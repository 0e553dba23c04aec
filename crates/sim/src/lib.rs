//! Deterministic whole-system simulation (VOPR-style) for the OCWP
//! serve stack.
//!
//! The simulator runs the **real** serving engine
//! ([`ocep_net::EngineCore`] — the same state machine behind
//! `ocep serve`) over simulated transports in virtual time: a seeded
//! discrete-event [`Scheduler`] owns a single event queue, a
//! [`VirtualClock`] stands in for the wall clock, and N scripted
//! producer clients plus verdict tails exchange real OCWP wire bytes
//! through in-memory queues. Inbound bytes take the server's own path:
//! a push-based [`ocep_net::FrameDecoder`] per connection, whose every
//! outcome goes to [`ocep_net::EngineCore::on_decoded`], as on a TCP
//! reader thread. Outbound bytes are the engine's own: each client
//! drains its connection's [`ocep_net::OutQueue`], as a TCP writer
//! thread takes it, and producers read the frames back with
//! `wire::read_frame`, as `Client` does.
//!
//! A seeded fault plan injects wire corruption, frame duplication and
//! reorder, partitions with reconnect-and-resend, slow tails whose full
//! queues drop verdicts, and mid-stream daemon kills recovered from the
//! durable log, as production recovers. After every run the engine's
//! ingestion journal is replayed through a fresh in-process
//! `MonitorSet` — the oracle — and the run fails unless verdicts,
//! representative subsets, ingest statistics, and the checkpoint bytes
//! of each dying engine are **bit-identical**. Every run is a pure function of its
//! [`SimConfig`]; a mismatch shrinks to a minimal config and lands in a
//! replayable dump (`ocep sim --replay`).
//!
//! See `docs/SIMULATION.md` for the scheduler model, fault taxonomy,
//! and seed/replay workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod dump;
pub mod run;
pub mod sched;

pub use clock::VirtualClock;
pub use dump::{load_dump, replay_dump, shrink_config, write_dump, SimFailure, SimReplay};
pub use run::{run_sim, FaultCounts, FaultToggles, SimConfig, SimOutcome};
pub use sched::{Scheduler, Step};
