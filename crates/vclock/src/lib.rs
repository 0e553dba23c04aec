//! Vector clocks and the causality algebra used by the OCEP framework.
//!
//! This crate implements the causality foundation of *"Towards an Efficient
//! Online Causal-Event-Pattern-Matching Framework"* (ICDCS 2013, §III):
//!
//! * [`VectorClock`] — Fidge/Mattern vector timestamps assigned by the
//!   tracer, supporting the constant-time happens-before test of §III-A
//!   (at most two integer comparisons, plus a trace/event-number tiebreak
//!   to separate equality from concurrency).
//! * [`TraceId`] / [`EventIndex`] / [`EventId`] — newtypes identifying a
//!   position in the partial order. A *trace* is any entity with sequential
//!   behaviour: a process, a thread, or a passive entity such as a
//!   semaphore or a communication channel.
//! * [`Causality`] — the four-way classification of a pair of primitive
//!   events (before / after / concurrent / equal).
//! * [`compound`] — Nichols' relations between *compound* events (sets of
//!   primitive events): strong and weak precedence, overlap, disjointness,
//!   crossing, and entanglement, together with the exhaustive four-way
//!   classification of §III-B.
//!
//! # Example
//!
//! ```
//! use ocep_vclock::{ClockAssigner, Causality, TraceId};
//!
//! // Two traces; trace 0 sends a message that trace 1 receives.
//! let mut assigner = ClockAssigner::new(2);
//! let send = assigner.local(TraceId::new(0));
//! let recv = assigner.receive(TraceId::new(1), &send);
//! let other = assigner.local(TraceId::new(0)); // after the send, unrelated to recv
//!
//! assert_eq!(send.causality(&recv), Causality::Before);
//! assert_eq!(recv.causality(&send), Causality::After);
//! assert_eq!(other.causality(&recv), Causality::Concurrent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
pub mod compound;
mod ids;
pub mod kernels;
pub mod ops;
mod pool;
mod stamped;

pub use clock::VectorClock;
pub use compound::{CompoundRelation, EventSet};
pub use ids::{EventId, EventIndex, ParseTraceIdError, TraceId};
pub use ops::ClockOpCounts;
pub use pool::ClockPool;
pub use stamped::{ClockAssigner, StampedEvent};

/// The causal relationship between two primitive events.
///
/// Exactly one of the four variants holds for any pair of events in a
/// distributed computation (Lamport's happened-before relation extended
/// with equality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Causality {
    /// The first event happens before the second (`a -> b`).
    Before,
    /// The second event happens before the first (`b -> a`).
    After,
    /// The events are causally unrelated (`a || b`).
    Concurrent,
    /// The events are the same event.
    Equal,
}

impl Causality {
    /// Returns the relation with the roles of the two events exchanged.
    ///
    /// ```
    /// use ocep_vclock::Causality;
    /// assert_eq!(Causality::Before.inverse(), Causality::After);
    /// assert_eq!(Causality::Concurrent.inverse(), Causality::Concurrent);
    /// ```
    #[must_use]
    pub fn inverse(self) -> Self {
        match self {
            Causality::Before => Causality::After,
            Causality::After => Causality::Before,
            other => other,
        }
    }

    /// True if the relation is [`Causality::Before`].
    #[must_use]
    pub fn is_before(self) -> bool {
        self == Causality::Before
    }

    /// True if the relation is [`Causality::Concurrent`].
    #[must_use]
    pub fn is_concurrent(self) -> bool {
        self == Causality::Concurrent
    }
}

impl std::fmt::Display for Causality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Causality::Before => "->",
            Causality::After => "<-",
            Causality::Concurrent => "||",
            Causality::Equal => "==",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causality_inverse_is_an_involution() {
        for c in [
            Causality::Before,
            Causality::After,
            Causality::Concurrent,
            Causality::Equal,
        ] {
            assert_eq!(c.inverse().inverse(), c);
        }
    }

    #[test]
    fn causality_display() {
        assert_eq!(Causality::Before.to_string(), "->");
        assert_eq!(Causality::After.to_string(), "<-");
        assert_eq!(Causality::Concurrent.to_string(), "||");
        assert_eq!(Causality::Equal.to_string(), "==");
    }
}
