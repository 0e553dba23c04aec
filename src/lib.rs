//! # OCEP — Online Causal-Event-Pattern Matching
//!
//! Umbrella crate for the reproduction of *"Towards an Efficient Online
//! Causal-Event-Pattern-Matching Framework"* (ICDCS 2013). It re-exports
//! the public API of every workspace crate so examples and downstream
//! users need a single dependency.
//!
//! * [`vclock`] — vector clocks and the causality algebra (§III).
//! * [`poet`] — the POET-style partial-order event tracer (§V-A).
//! * [`simulator`] — deterministic workload simulator (§V-B/C).
//! * [`pattern`] — the causal pattern language and its constraint graph (§III/IV-A).
//! * [`ocep`] — the online matching engine itself (§IV).
//! * [`adapters`] — real-stream ingestion adapters (`ocep ingest`):
//!   OTLP-style span recordings, MPI traces, and agent-session
//!   recordings mapped onto traces/events with synthesized Fidge
//!   clocks.
//! * [`baselines`] — sliding-window / naive / dependency-graph baselines.
//! * [`analysis`] — post-mortem companion: trace slicing, offline stats.
//! * [`conformance`] — differential fuzzing harness (`ocep fuzz`):
//!   seeded pattern/execution generators, oracle cross-checks,
//!   shrinking, replayable failure dumps.
//! * [`sim`] — deterministic whole-system simulator (`ocep sim`,
//!   VOPR-style): drives the real serving engine over simulated
//!   transports in virtual time under seeded faults and crash/restart,
//!   with a journal-replay oracle demanding bit-identical conclusions.
//!
//! # Quickstart
//!
//! ```
//! use ocep_repro::pattern::Pattern;
//! use ocep_repro::ocep::Monitor;
//! use ocep_repro::poet::{EventKind, PoetServer};
//! use ocep_repro::vclock::TraceId;
//!
//! // A two-trace computation: trace 0 sends, trace 1 receives, and we
//! // watch for the pattern "a Ping send happens before a Pong event".
//! let pattern = Pattern::parse(
//!     r#"
//!     Ping := [*, ping, *];
//!     Pong := [*, pong, *];
//!     pattern := Ping -> Pong;
//!     "#,
//! )
//! .expect("pattern parses");
//!
//! let mut poet = PoetServer::new(2);
//! let mut monitor = Monitor::new(pattern, 2);
//!
//! let ping = poet.record(TraceId::new(0), EventKind::Send, "ping", "");
//! let _recv = poet.record_receive(TraceId::new(1), ping.id(), "deliver", "");
//! let pong = poet.record(TraceId::new(1), EventKind::Unary, "pong", "");
//!
//! let mut matches = Vec::new();
//! for ev in poet.linearization() {
//!     matches.extend(monitor.observe(&ev));
//! }
//! assert_eq!(matches.len(), 1);
//! assert!(matches[0].binding_for("Ping").unwrap().id() == ping.id());
//! assert!(matches[0].binding_for("Pong").unwrap().id() == pong.id());
//! ```

#![forbid(unsafe_code)]

pub use ocep_adapters as adapters;
pub use ocep_analysis as analysis;
pub use ocep_baselines as baselines;
pub use ocep_conformance as conformance;
pub use ocep_core as ocep;
pub use ocep_net as net;
pub use ocep_pattern as pattern;
pub use ocep_poet as poet;
pub use ocep_sim as sim;
pub use ocep_simulator as simulator;
pub use ocep_vclock as vclock;
pub use ocep_wal as wal;
