//! Networked serving layer for the OCEP reproduction.
//!
//! The paper's monitor "connects to the POET server in a way that it
//! receives the arriving events in a linearization of the partial
//! order" (§V-A); until this crate, that connection was an in-process
//! channel. `ocep-net` gives it a real transport, std-only
//! (`std::net` TCP, no external dependencies):
//!
//! * [`wire`] — **OCWP v1**, a length-prefixed binary frame protocol
//!   with the same hardening discipline as the dump/checkpoint formats:
//!   magic + version, per-frame interned string tables, and decode
//!   errors that carry byte offsets instead of panicking.
//! * [`engine`] — the transport-free serving engine: OCWP frame
//!   semantics, credit windows, bounded tail queues, and report
//!   assembly behind a clock/connection abstraction, so the same state
//!   machine runs over real sockets and over the deterministic
//!   simulator's virtual time.
//! * [`server`] — the serving loop: a TCP acceptor, per-connection
//!   reader/writer threads, and a single engine thread that feeds
//!   every decoded arrival through the admission guard — so a remote
//!   producer gets byte-identical verdicts to in-process
//!   [`MonitorSet::observe_raw`] delivery, and a hostile one is
//!   quarantined by exactly the same machinery.
//! * [`shard`] — the data plane under the engine: one durable log in
//!   front of one [`MonitorSet`] and its admission guard, plus the
//!   verdict history a recovered server reprints.
//! * [`client`] — producer and tail handles used by the `ocep serve`,
//!   `ocep send`, and `ocep tail` subcommands.
//!
//! Backpressure: producers operate under an Ack-credit window (the
//! server grants `window` credits at handshake and one back per
//! processed data frame); each verdict subscriber has a bounded queue,
//! and a verdict that finds it full is dropped and counted (the tail can
//! re-read it with `tail --from`). See `docs/WIRE.md` for the full
//! grammar and failure semantics.
//!
//! [`MonitorSet::observe_raw`]: ocep_core::MonitorSet::observe_raw
//! [`MonitorSet`]: ocep_core::MonitorSet

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod server;
pub mod shard;
pub mod wire;

pub use client::{register_patterns, Client, Tail};
pub use engine::{EngineCore, EngineOp, NetClock, OutQueue, SystemClock};
pub use server::{ServeConfig, ServeReport, Server, ServerHandle};
pub use shard::{route_of, DeliverOut, FaultHooks, ShardGroup};
pub use wire::{
    Decoded, FaultCode, Frame, FrameDecoder, Mode, StatsReport, VerdictFrame, WireError,
};
