//! Interned clock pool keyed by trace.
//!
//! Under duplication/resend, consecutive events on one trace can carry
//! *exactly* identical vector clocks. The pool remembers the last clock
//! seen per trace; interning a clock that equals the cached one returns
//! a pointer-equal `Arc` clone instead of keeping a second buffer alive.
//!
//! The serving engine no longer interns: a clock equal to the last one
//! on its trace is a re-delivery, which the admission guard drops as a
//! duplicate, so interning never saved a byte of history and cost an
//! O(width) compare per event. The pool stays only because the
//! repository benchmark (`benchmark/src/staged.rs`) still constructs
//! one; it goes once the benchmark stops linking it. Neither the wire
//! codec nor the record codec reads it.
//!
//! Hits and misses are counted process-wide in [`crate::ops`] (gated by
//! the same enable flag as the tick/join/comparison counters) and
//! surface as `ocep_vclock_ops_total{op=pool_hit|pool_miss}`.

use crate::{TraceId, VectorClock};

/// Last-clock-per-trace intern pool. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct ClockPool {
    slots: Vec<Option<VectorClock>>,
}

impl ClockPool {
    /// Creates an empty pool for a computation with `n_traces` traces.
    #[must_use]
    pub fn new(n_traces: usize) -> Self {
        ClockPool {
            slots: vec![None; n_traces],
        }
    }

    /// Number of traces the pool covers.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.slots.len()
    }

    /// Interns `clock` under trace `t`: if it equals the clock cached
    /// for `t`, the cached (pointer-equal) clone is returned and `clock`
    /// is dropped; otherwise `clock` replaces the cache and is returned
    /// unchanged. Either way the result is value-equal to the input.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range for this pool.
    #[must_use]
    pub fn intern(&mut self, t: TraceId, clock: VectorClock) -> VectorClock {
        let slot = &mut self.slots[t.as_usize()];
        match slot {
            Some(cached) if *cached == clock => {
                crate::ops::count_pool_hit();
                cached.clone()
            }
            _ => {
                crate::ops::count_pool_miss();
                *slot = Some(clock.clone());
                clock
            }
        }
    }

    /// The clock most recently interned for trace `t`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range for this pool.
    #[must_use]
    pub fn last(&self, t: TraceId) -> Option<&VectorClock> {
        self.slots[t.as_usize()].as_ref()
    }

    /// Forgets every cached clock (the trace count is kept).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    #[test]
    fn equal_clocks_intern_to_pointer_equal_arcs() {
        let mut pool = ClockPool::new(2);
        let a = VectorClock::from_entries(vec![1, 2]);
        let b = VectorClock::from_entries(vec![1, 2]); // equal, separate buffer
        assert!(!a.shares_buffer(&b));
        let ia = pool.intern(t(0), a);
        let ib = pool.intern(t(0), b);
        assert!(ia.shares_buffer(&ib), "hit must return the cached buffer");
        assert_eq!(ib.entries(), &[1, 2]);
    }

    #[test]
    fn distinct_clocks_and_traces_miss() {
        let mut pool = ClockPool::new(2);
        let a = pool.intern(t(0), VectorClock::from_entries(vec![1, 0]));
        let b = pool.intern(t(1), VectorClock::from_entries(vec![1, 0]));
        assert!(
            !a.shares_buffer(&b),
            "slots are per-trace; no cross-trace interning"
        );
        let c = pool.intern(t(0), VectorClock::from_entries(vec![2, 0]));
        assert_eq!(c.entries(), &[2, 0]);
        assert_eq!(pool.last(t(0)).unwrap().entries(), &[2, 0]);
    }

    #[test]
    fn clear_forgets_bases() {
        let mut pool = ClockPool::new(1);
        let _ = pool.intern(t(0), VectorClock::from_entries(vec![3]));
        assert!(pool.last(t(0)).is_some());
        pool.clear();
        assert!(pool.last(t(0)).is_none());
        assert_eq!(pool.n_traces(), 1);
    }
}
