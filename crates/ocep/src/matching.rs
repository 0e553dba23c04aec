//! Reported pattern matches.

use ocep_pattern::{LeafId, Pattern};
use ocep_poet::Event;
use std::sync::Arc;

/// One complete match: an assignment of a concrete event to every leaf of
/// the pattern, satisfying all causal, partner, and binding constraints.
///
/// # Example
///
/// ```
/// use ocep_core::Monitor;
/// use ocep_pattern::Pattern;
/// use ocep_poet::{EventKind, PoetServer};
/// use ocep_vclock::TraceId;
///
/// let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
/// let mut poet = PoetServer::new(1);
/// let mut monitor = Monitor::new(p, 1);
/// let a = poet.record(TraceId::new(0), EventKind::Unary, "a", "");
/// let b = poet.record(TraceId::new(0), EventKind::Unary, "b", "");
/// let matches: Vec<_> = poet.linearization().flat_map(|e| monitor.observe(&e)).collect();
/// assert_eq!(matches[0].binding_for("A").unwrap().id(), a.id());
/// assert_eq!(matches[0].binding_for("B").unwrap().id(), b.id());
/// ```
#[derive(Debug, Clone)]
pub struct Match {
    pattern: Arc<Pattern>,
    /// Indexed by leaf.
    events: Vec<Event>,
}

impl Match {
    pub(crate) fn new(pattern: Arc<Pattern>, events: Vec<Event>) -> Self {
        debug_assert_eq!(events.len(), pattern.n_leaves());
        Match { pattern, events }
    }

    /// Reassembles a match from externally persisted parts (the serving
    /// layer's durable-log recovery): `events` must be the bound events
    /// in leaf order.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the event count does not equal the pattern's
    /// leaf count.
    pub fn from_bound_events(pattern: Arc<Pattern>, events: Vec<Event>) -> Result<Self, String> {
        if events.len() != pattern.n_leaves() {
            return Err(format!(
                "{} bound events for a {}-leaf pattern",
                events.len(),
                pattern.n_leaves()
            ));
        }
        Ok(Match::new(pattern, events))
    }

    /// The event bound to `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range for the pattern.
    #[must_use]
    pub fn event(&self, leaf: LeafId) -> &Event {
        &self.events[leaf.as_usize()]
    }

    /// The events of the match, indexed by leaf.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The match as leaf-wise `(trace, index)` coordinates, the form
    /// verdicts take on the wire and in every transparency comparison.
    #[must_use]
    pub fn coords(&self) -> Vec<(u32, u32)> {
        self.events
            .iter()
            .map(|e| (e.trace().as_u32(), e.index().get()))
            .collect()
    }

    /// Looks up the event bound to the occurrence named `name`: an exact
    /// occurrence name (`B#2`, `$diff`) or a class name (resolving to its
    /// first occurrence).
    #[must_use]
    pub fn binding_for(&self, name: &str) -> Option<&Event> {
        let leaves = self.pattern.leaves();
        if let Some(l) = leaves.iter().find(|l| l.display_name() == name) {
            return Some(&self.events[l.id().as_usize()]);
        }
        leaves
            .iter()
            .find(|l| l.class_name() == name)
            .map(|l| &self.events[l.id().as_usize()])
    }

    /// The pattern this match instantiates.
    #[must_use]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// True if `other` assigns exactly the same events to all leaves.
    #[must_use]
    pub fn same_events(&self, other: &Match) -> bool {
        self.events.len() == other.events.len()
            && self
                .events
                .iter()
                .zip(&other.events)
                .all(|(a, b)| a.id() == b.id())
    }
}

impl std::fmt::Display for Match {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (leaf, e)) in self.pattern.leaves().iter().zip(&self.events).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", leaf.display_name(), e.id())?;
        }
        write!(f, "}}")
    }
}
