//! Ordered per-trace event storage with causality queries.

use crate::{Event, PoetError};
use ocep_vclock::{EventId, EventIndex, StampedEvent, TraceId};

/// The tracer's core store: events grouped by trace, totally ordered on
/// each trace, plus the global arrival order.
///
/// Supports the two §IV-C causality queries the matcher and baselines rely
/// on:
///
/// * `GP(a, t)` — *greatest predecessor*: the most recent event on trace
///   `t` that happens before `a` (O(1) from `a`'s vector clock).
/// * `LS(a, t)` — *least successor*: the least recent event on trace `t`
///   that happens after `a` (O(log n) by binary search over the monotone
///   clock column, the "constant-time timestamp retrieval plugin" the
///   paper's future-work section asks of POET).
#[derive(Debug, Clone, Default)]
pub struct TraceStore {
    traces: Vec<Vec<Event>>,
    arrival: Vec<EventId>,
}

impl TraceStore {
    /// Creates an empty store for `n_traces` traces.
    #[must_use]
    pub fn new(n_traces: usize) -> Self {
        TraceStore {
            traces: vec![Vec::new(); n_traces],
            arrival: Vec::new(),
        }
    }

    /// Number of traces.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.traces.len()
    }

    /// Total number of stored events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    /// True if no events are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }

    /// Appends an event. Events on one trace must arrive in index order.
    ///
    /// # Errors
    ///
    /// Returns [`PoetError::Inconsistent`] if the event's trace is out of
    /// range or its index is not the next index on that trace.
    pub fn push(&mut self, event: Event) -> Result<(), PoetError> {
        let t = event.trace().as_usize();
        let Some(trace) = self.traces.get_mut(t) else {
            return Err(PoetError::Inconsistent(format!(
                "event {} names trace {} but the store has {} traces",
                event.id(),
                event.trace(),
                self.traces.len()
            )));
        };
        let expected = trace.len() as u32 + 1;
        if event.index().get() != expected {
            return Err(PoetError::Inconsistent(format!(
                "event {} arrived out of order (expected index {expected})",
                event.id()
            )));
        }
        self.arrival.push(event.id());
        trace.push(event);
        Ok(())
    }

    /// Looks up an event by identifier.
    #[must_use]
    pub fn get(&self, id: EventId) -> Option<&Event> {
        let trace = self.traces.get(id.trace().as_usize())?;
        let idx = id.index().get();
        if idx == 0 {
            return None;
        }
        trace.get(idx as usize - 1)
    }

    /// All events of trace `t` in index order.
    #[must_use]
    pub fn trace_events(&self, t: TraceId) -> &[Event] {
        self.traces
            .get(t.as_usize())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates over every stored event in global arrival order (a valid
    /// linearization of the partial order).
    pub fn iter_arrival(&self) -> impl ExactSizeIterator<Item = &Event> + '_ {
        self.iter_arrival_from(0)
    }

    /// Iterates in global arrival order from the `from`-th arrival on
    /// (nothing when fewer events have arrived). The length is exact, so
    /// collecting a linearization allocates once.
    pub fn iter_arrival_from(&self, from: usize) -> impl ExactSizeIterator<Item = &Event> + '_ {
        let rest = self.arrival.get(from..).unwrap_or(&[]);
        rest.iter().map(move |id| {
            self.get(*id)
                .expect("`push` records an arrival id only with its event")
        })
    }

    /// `GP(a, t)`: index of the most recent event on `t` happening before
    /// `a`, or [`EventIndex::ZERO`] if none does.
    #[must_use]
    pub fn greatest_predecessor(&self, a: &StampedEvent, t: TraceId) -> EventIndex {
        a.greatest_predecessor(t)
    }

    /// `LS(a, t)`: index of the least recent event on `t` that `a` happens
    /// before, or `None` if no event on `t` (yet) follows `a`.
    ///
    /// Found by binary search: along trace `t`, the clock entry for
    /// `a.trace()` is non-decreasing, and an event `x` on `t` follows `a`
    /// exactly when that entry reaches `a.index()` (and `x != a`).
    #[must_use]
    pub fn least_successor(&self, a: &StampedEvent, t: TraceId) -> Option<EventIndex> {
        let events = self.trace_events(t);
        if t == a.trace() {
            // On a's own trace the least successor is simply the next event.
            let next = a.index().next();
            return if (next.get() as usize) <= events.len() {
                Some(next)
            } else {
                None
            };
        }
        let needle = a.index().get();
        let col = a.trace();
        // Find the first event whose clock[col] >= needle.
        let pos = events.partition_point(|e| e.clock().entry(col).get() < needle);
        events.get(pos).map(Event::index)
    }

    /// Convenience: is the store's content equal to `other`'s? Used by
    /// dump/reload round-trip checks.
    #[must_use]
    pub fn content_eq(&self, other: &TraceStore) -> bool {
        self.traces == other.traces && self.arrival == other.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, PoetServer};
    use ocep_vclock::TraceId;

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    /// trace 0: a1 a2=send a3 ; trace 1: b1=recv b2
    fn sample() -> (PoetServer, Vec<Event>) {
        let mut poet = PoetServer::new(2);
        let a1 = poet.record(t(0), EventKind::Unary, "a", "");
        let a2 = poet.record(t(0), EventKind::Send, "s", "");
        let b1 = poet.record_receive(t(1), a2.id(), "r", "");
        let a3 = poet.record(t(0), EventKind::Unary, "a", "");
        let b2 = poet.record(t(1), EventKind::Unary, "b", "");
        (poet, vec![a1, a2, b1, a3, b2])
    }

    #[test]
    fn get_round_trips_ids() {
        let (poet, evs) = sample();
        for e in &evs {
            assert_eq!(poet.store().get(e.id()).unwrap().id(), e.id());
        }
        assert!(poet
            .store()
            .get(EventId::new(t(0), EventIndex::new(99)))
            .is_none());
        assert!(poet
            .store()
            .get(EventId::new(t(0), EventIndex::ZERO))
            .is_none());
    }

    #[test]
    fn least_successor_cross_trace() {
        let (poet, evs) = sample();
        let (a2, b1) = (&evs[1], &evs[2]);
        // LS of a2 on trace 1 is b1 (the receive).
        assert_eq!(
            poet.store().least_successor(a2.stamp(), t(1)),
            Some(b1.index())
        );
        // LS of a1 on trace 1 is also b1 (transitively through a2).
        assert_eq!(
            poet.store().least_successor(evs[0].stamp(), t(1)),
            Some(b1.index())
        );
        // Nothing on trace 1 follows a3.
        assert_eq!(poet.store().least_successor(evs[3].stamp(), t(1)), None);
        // Nothing on trace 0 follows b1 (no message back).
        assert_eq!(poet.store().least_successor(b1.stamp(), t(0)), None);
    }

    #[test]
    fn least_successor_own_trace_is_next_event() {
        let (poet, evs) = sample();
        assert_eq!(
            poet.store().least_successor(evs[0].stamp(), t(0)),
            Some(EventIndex::new(2))
        );
        assert_eq!(poet.store().least_successor(evs[3].stamp(), t(0)), None);
    }

    #[test]
    fn push_rejects_gaps_and_unknown_traces() {
        let (poet, _) = sample();
        let mut store = TraceStore::new(1);
        // An event for trace 1 cannot go into a 1-trace store.
        let foreign = poet.store().trace_events(t(1))[0].clone();
        assert!(store.push(foreign).is_err());
        // Skipping index 1 on trace 0 is rejected.
        let second = poet.store().trace_events(t(0))[1].clone();
        assert!(store.push(second).is_err());
    }

    #[test]
    fn arrival_iteration_is_a_linearization() {
        let (poet, _) = sample();
        let seen: Vec<_> = poet.store().iter_arrival().map(Event::id).collect();
        assert_eq!(seen.len(), 5);
        // Every event appears after all events that happen before it.
        for (i, id) in seen.iter().enumerate() {
            let e = poet.store().get(*id).unwrap();
            for later in &seen[i + 1..] {
                let l = poet.store().get(*later).unwrap();
                assert!(!l.stamp().happens_before(e.stamp()));
            }
        }
    }
}
