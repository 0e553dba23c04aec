//! Fidge/Mattern vector clocks.

use crate::{EventIndex, TraceId};
use std::sync::Arc;

/// A Fidge/Mattern vector timestamp over a fixed set of traces.
///
/// Entry `V[t]` is the number of events on trace `t` that causally precede
/// (or are) the stamped event. Under this convention an event `e` on trace
/// `t` has `V_e[t]` equal to its own 1-based [`EventIndex`], and for two
/// distinct events `a` (on trace `i`) and `b`:
///
/// ```text
/// a -> b  ⇔  V_a[i] <= V_b[i]
/// ```
///
/// which is the at-most-two-integer-comparison test of §III-A.
///
/// The entry buffer is shared (`Arc`-backed): `clone` is O(1) and never
/// copies the entries, so a stamped event's timestamp can be handed
/// around the matcher's hot path for free regardless of the trace count.
/// Mutation (`tick`/`join`) is copy-on-write — it copies the buffer only
/// when it is actually shared. Stamping does not go through it:
/// [`crate::ClockAssigner`] steps rows of its own and copies each
/// event's timestamp out once.
///
/// # Example
///
/// ```
/// use ocep_vclock::{TraceId, VectorClock};
///
/// let mut a = VectorClock::new(3);
/// a.tick(TraceId::new(0));               // a = [1, 0, 0]
/// let mut b = a.clone();
/// b.tick(TraceId::new(1));               // b = [1, 1, 0] — receive from a
/// assert!(a.entry(TraceId::new(0)).get() <= b.entry(TraceId::new(0)).get());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorClock {
    entries: Arc<[u32]>,
}

impl VectorClock {
    /// Creates the zero clock for a computation with `n_traces` traces.
    #[must_use]
    pub fn new(n_traces: usize) -> Self {
        VectorClock {
            entries: vec![0; n_traces].into(),
        }
    }

    /// Builds a clock from raw entries.
    #[must_use]
    pub fn from_entries(entries: Vec<u32>) -> Self {
        VectorClock {
            entries: entries.into(),
        }
    }

    /// A clock holding a copy of `entries`: one allocation, one copy.
    pub(crate) fn copy_of(entries: &[u32]) -> Self {
        VectorClock {
            entries: entries.into(),
        }
    }

    /// Unique view of the entry buffer, copying it first when shared.
    fn entries_mut(&mut self) -> &mut [u32] {
        if Arc::get_mut(&mut self.entries).is_none() {
            self.entries = self.entries.iter().copied().collect();
        }
        Arc::get_mut(&mut self.entries).expect("buffer is unique after copy-on-write")
    }

    /// Number of traces this clock covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the clock covers zero traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for trace `t`, i.e. the greatest-predecessor index on `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range for this clock.
    #[must_use]
    pub fn entry(&self, t: TraceId) -> EventIndex {
        EventIndex::new(self.entries[t.as_usize()])
    }

    /// Advances the local component for trace `t` by one and returns the
    /// new value (the stamped event's own index).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range for this clock.
    pub fn tick(&mut self, t: TraceId) -> EventIndex {
        crate::ops::count_tick();
        let e = &mut self.entries_mut()[t.as_usize()];
        *e += 1;
        EventIndex::new(*e)
    }

    /// Component-wise maximum with `other` (the message-receive join).
    ///
    /// # Panics
    ///
    /// Panics if the clocks cover different numbers of traces.
    pub fn join(&mut self, other: &VectorClock) {
        crate::ops::count_join();
        assert_eq!(
            self.entries.len(),
            other.entries.len(),
            "cannot join clocks of different widths"
        );
        if self.shares_buffer(other) {
            return; // joining with an alias of self is the identity
        }
        crate::kernels::join_into(self.entries_mut(), &other.entries);
    }

    /// Component-wise `self <= other` (the classic partial order on
    /// clocks). Used by tests and the exhaustive oracle; the hot matcher
    /// path uses the O(1) entry test instead.
    #[must_use]
    pub fn le(&self, other: &VectorClock) -> bool {
        crate::ops::count_comparison();
        self.entries.len() == other.entries.len()
            && crate::kernels::le(&self.entries, &other.entries)
    }

    /// Raw entries, indexed by trace.
    #[must_use]
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// True if `self` and `other` share the same physical entry buffer —
    /// i.e. one is an O(1) clone of the other and no copy has happened.
    /// Used by tests asserting the zero-copy discipline of the matcher.
    #[must_use]
    pub fn shares_buffer(&self, other: &VectorClock) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }
}

impl std::fmt::Display for VectorClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<u32> for VectorClock {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        VectorClock {
            entries: iter.into_iter().collect::<Arc<[u32]>>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_increments_only_local_entry() {
        let mut v = VectorClock::new(3);
        let idx = v.tick(TraceId::new(1));
        assert_eq!(idx, EventIndex::new(1));
        assert_eq!(v.entries(), &[0, 1, 0]);
    }

    #[test]
    fn join_takes_componentwise_max() {
        let mut a = VectorClock::from_entries(vec![3, 0, 5]);
        let b = VectorClock::from_entries(vec![1, 4, 5]);
        a.join(&b);
        assert_eq!(a.entries(), &[3, 4, 5]);
    }

    #[test]
    fn le_is_reflexive_and_detects_incomparability() {
        let a = VectorClock::from_entries(vec![1, 2]);
        let b = VectorClock::from_entries(vec![2, 1]);
        assert!(a.le(&a));
        assert!(!a.le(&b));
        assert!(!b.le(&a));
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn join_panics_on_width_mismatch() {
        let mut a = VectorClock::new(2);
        let b = VectorClock::new(3);
        a.join(&b);
    }

    #[test]
    fn display_is_compact() {
        let v = VectorClock::from_entries(vec![1, 0, 2]);
        assert_eq!(v.to_string(), "[1,0,2]");
    }

    #[test]
    fn from_iterator_collects_entries() {
        let v: VectorClock = (0..4u32).collect();
        assert_eq!(v.entries(), &[0, 1, 2, 3]);
    }

    #[test]
    fn clone_shares_the_entry_buffer() {
        let v = VectorClock::from_entries(vec![1, 2, 3]);
        let c = v.clone();
        assert!(v.shares_buffer(&c), "clone must be O(1), not a buffer copy");
        assert_eq!(c.entries(), v.entries());
    }

    #[test]
    fn mutation_copies_on_write_and_leaves_clones_intact() {
        let v = VectorClock::from_entries(vec![1, 2]);
        let mut c = v.clone();
        c.tick(TraceId::new(0));
        assert!(!v.shares_buffer(&c), "mutation must unshare the buffer");
        assert_eq!(v.entries(), &[1, 2], "original unchanged");
        assert_eq!(c.entries(), &[2, 2]);
        // An unshared clock mutates in place: no further copies.
        let before = c.clone();
        drop(before); // refcount back to one
        c.tick(TraceId::new(1));
        assert_eq!(c.entries(), &[2, 3]);
    }
}
