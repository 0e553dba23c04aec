//! Post-mortem companion tools for OCEP.
//!
//! The paper positions online matching as *complementary* to post-mortem
//! analysis (§II): "A user may identify a runtime safety violation using
//! our tool and then restrict offline analysis, for in-depth checking,
//! to particular traces that are involved." This crate supplies that
//! second step:
//!
//! * [`slice()`] — project a recorded computation onto the traces a
//!   reported match involves, producing a small self-contained dump an
//!   offline tool (or a human) can study. Causality *within* the kept
//!   traces is preserved exactly; messages to or from dropped traces
//!   degrade to local events.
//! * [`analyze`] — offline, exhaustive match statistics over a full
//!   recording: total matches, per-(leaf, trace) participation counts,
//!   and the earliest/latest completion positions — the ground-truth
//!   view that bounded online monitoring deliberately forgoes.
//!
//! # Example
//!
//! ```
//! use ocep_analysis::{analyze, slice};
//! use ocep_pattern::Pattern;
//! use ocep_poet::{EventKind, PoetServer};
//! use ocep_vclock::TraceId;
//!
//! let mut poet = PoetServer::new(3);
//! let s = poet.record(TraceId::new(0), EventKind::Send, "a", "");
//! poet.record_receive(TraceId::new(1), s.id(), "deliver", "");
//! poet.record(TraceId::new(1), EventKind::Unary, "b", "");
//! poet.record(TraceId::new(2), EventKind::Unary, "noise", "");
//!
//! // Offline statistics.
//! let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
//! let report = analyze(&p, poet.store());
//! assert_eq!(report.total_matches, 1);
//!
//! // Slice the computation down to the two involved traces.
//! let sliced = slice(poet.store(), &[TraceId::new(0), TraceId::new(1)]);
//! assert_eq!(sliced.store().n_traces(), 2);
//! assert_eq!(analyze(&p, sliced.store()).total_matches, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod slicer;

pub use report::{analyze, LeafTraceCount, MatchReport};
pub use slicer::slice;
