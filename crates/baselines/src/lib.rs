//! Baseline matchers and detectors OCEP is evaluated against.
//!
//! * [`ExhaustiveMatcher`] — offline enumeration of *all* matches; the
//!   ground-truth oracle for the §V-D completeness and false-positive
//!   metrics.
//! * [`SlidingWindowMatcher`] — the §II / Fig 3 alternative: keep only
//!   the last `n²` events and match within the window. Demonstrates the
//!   omission problem the representative subset avoids.
//! * [`NaiveMatcher`] — chronological backtracking *without* the Fig 4
//!   causal domain restriction or conflict-directed backjumping: the
//!   ablation baseline quantifying what the paper's pruning buys.
//! * [`DepGraphDetector`] — a wait-for dependency-graph deadlock detector
//!   with explicit cycle search, standing in for the graph-based tool of
//!   §V-C1's comparison (whose implementation is not publicly available).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod depgraph;
mod exhaustive;
mod naive;
mod sliding_window;

pub use depgraph::DepGraphDetector;
pub use exhaustive::{Assignment, ExhaustiveMatcher};
pub use naive::NaiveMatcher;
pub use sliding_window::SlidingWindowMatcher;
