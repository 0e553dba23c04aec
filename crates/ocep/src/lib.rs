//! OCEP — the online causal-event-pattern matching engine (§IV of the
//! paper).
//!
//! The [`Monitor`] consumes the events of a distributed computation in a
//! linearization of the partial order (as delivered by a
//! [`ocep_poet::PoetServer`]) and matches a compiled
//! [`ocep_pattern::Pattern`] online:
//!
//! * Arriving events are routed to the **history** of every pattern leaf
//!   whose shape they match, grouped by trace and totally ordered per
//!   trace (Fig 2's *History* attribute). Consecutive same-attribute
//!   occurrences with no intervening causally relevant event on the trace
//!   are deduplicated in O(1) (§VI), which bounds storage per
//!   communication block.
//! * Only **terminating events** (§V-B) start a search: leaves with no
//!   outgoing happens-before constraint, the only positions an event that
//!   completes a match can occupy.
//! * The search is the backtracking procedure of Algorithms 1–3: levels
//!   follow the pattern's evaluation order; each level's **domain** on a
//!   trace is the contiguous interval obtained by intersecting the Fig 4
//!   causality rules (`GP`/`LS` bounds from the already-instantiated
//!   events, computed by O(log) binary search over the history); empty
//!   domains record their culprit level and a Fig 5 *jump bound*, and
//!   exhausted levels backjump conflict-directed instead of
//!   chronologically.
//! * Completed matches update the **representative subset** (§IV-B): per
//!   arrival, at most one match is reported through each (level, trace)
//!   cell, and globally the subset keeps the most recent match per
//!   (leaf, trace) — at most `k·n` entries for a `k`-event pattern over
//!   `n` traces.
//!
//! # Example
//!
//! ```
//! use ocep_core::Monitor;
//! use ocep_pattern::Pattern;
//! use ocep_poet::{EventKind, PoetServer};
//! use ocep_vclock::TraceId;
//!
//! // Watch for two concurrent "green" events — the traffic-light safety
//! // violation from the paper's introduction.
//! let pattern = Pattern::parse(
//!     "G1 := [*, green, *]; G2 := [*, green, *]; pattern := G1 || G2;",
//! )
//! .unwrap();
//! let mut poet = PoetServer::new(2);
//! let mut monitor = Monitor::new(pattern, 2);
//!
//! poet.record(TraceId::new(0), EventKind::Unary, "green", "north");
//! poet.record(TraceId::new(1), EventKind::Unary, "green", "east");
//! let matches: Vec<_> = poet
//!     .linearization()
//!     .flat_map(|e| monitor.observe(&e))
//!     .collect();
//! assert_eq!(matches.len(), 1, "the two lights are concurrently green");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod domain;
mod history;
pub mod ingest;
mod matching;
mod monitor;
mod multi;
mod search;
mod stats;

pub mod json;
pub mod obs;
/// Facade alias for the observability subsystem (metrics registry,
/// histograms, exporters) — see [`obs`].
pub use self::obs as ocep_obs;

pub use checkpoint::{
    load_at, load_set, load_set_at, save_at, save_set, save_set_at, strip_metrics, CheckpointError,
    LoadedMonitor,
};
pub use history::LeafHistory;
pub use ingest::{
    AdmissionGuard, GuardConfig, IngestFault, IngestFaultKind, IngestStats, OverflowPolicy,
};
pub use matching::Match;
pub use monitor::{Monitor, MonitorConfig, SubsetPolicy, OBS_TIMING_SAMPLE};
pub use multi::MonitorSet;
pub use obs::{
    ArrivalRecord, Histogram, MetricFamily, MetricKind, MetricSample, MetricValue, Metrics,
    MetricsSnapshot, ObsLevel, SearchObs, Stage,
};
pub use stats::MonitorStats;
