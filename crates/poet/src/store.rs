//! The tracer's store: one arrival log plus a per-trace index into it.
//!
//! An observed computation *is* one sequence — the order the tracer saw
//! its events in — and each trace's history is a subsequence of it. The
//! store keeps exactly that: every event once, in arrival order, in
//! chunks that are filled once and never reallocated, and for each trace
//! the arrival positions of its events. Recording an event writes it into
//! its final slot and appends one `u32`; nothing already recorded is ever
//! copied, however long the run.

use crate::{Event, PoetError};
use ocep_vclock::{EventId, EventIndex, StampedEvent, TraceId};

/// Events in the log's first chunk (and its second: each later chunk
/// doubles what the log holds, as a growing vector would, but without
/// moving what it already holds).
const FIRST_CHUNK: usize = 4;
/// Most events in one chunk. Doubling stops here, so a long run asks the
/// allocator for blocks of one moderate size instead of ever larger ones.
const CHUNK_CAP: usize = 4096;
const FIRST_SHIFT: u32 = FIRST_CHUNK.trailing_zeros();
const CAP_SHIFT: u32 = CHUNK_CAP.trailing_zeros();

/// Where arrival position `pos` lives: `(chunk, slot)`.
///
/// Chunk 0 holds positions `0..FIRST_CHUNK`; chunk `k >= 1` holds
/// `FIRST_CHUNK << (k - 1) ..  FIRST_CHUNK << k` — the positions with the
/// same highest set bit — until a chunk holds `CHUNK_CAP` events, after
/// which every chunk does.
fn locate(pos: usize) -> (usize, usize) {
    if pos < FIRST_CHUNK {
        (0, pos)
    } else if pos < 2 * CHUNK_CAP {
        let high = pos.ilog2();
        ((high - FIRST_SHIFT + 1) as usize, pos - (1 << high))
    } else {
        (
            (CAP_SHIFT - FIRST_SHIFT) as usize + (pos >> CAP_SHIFT),
            pos & (CHUNK_CAP - 1),
        )
    }
}

/// How many events the next chunk of a log holding `held` is allocated
/// for: as many as the log holds, within the two bounds.
fn next_chunk_capacity(held: usize) -> usize {
    held.clamp(FIRST_CHUNK, CHUNK_CAP)
}

/// The tracer's core store: every event once, in global arrival order,
/// plus for each trace the arrival positions of its events in index
/// order.
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
#[derive(Debug, Default)]
pub struct TraceStore {
    /// The arrival log. A chunk is allocated once, with
    /// `next_chunk_capacity` slots, and only ever pushed to within them,
    /// so a stored event never moves.
    chunks: Vec<Vec<Event>>,
    /// Events in the log.
    len: usize,
    /// `index[t][i - 1]` is the arrival position of event `i` of trace `t`.
    index: Vec<Vec<u32>>,
}

impl Clone for TraceStore {
    /// Copies the log chunk for chunk at full capacity, so events pushed
    /// to the copy do not move the ones it already holds either.
    fn clone(&self) -> Self {
        let mut held = 0;
        let chunks = self.chunks.iter().map(|chunk| {
            let mut copy = Vec::with_capacity(next_chunk_capacity(held));
            copy.extend_from_slice(chunk);
            held += chunk.len();
            copy
        });
        TraceStore {
            chunks: chunks.collect(),
            len: self.len,
            index: self.index.clone(),
        }
    }
}

impl TraceStore {
    /// Creates an empty store for `n_traces` traces.
    #[must_use]
    pub fn new(n_traces: usize) -> Self {
        TraceStore {
            chunks: Vec::new(),
            len: 0,
            index: vec![Vec::new(); n_traces],
        }
    }

    /// Number of traces.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.index.len()
    }

    /// Total number of stored events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an event. Events on one trace must arrive in index order.
    ///
    /// # Errors
    ///
    /// Returns [`PoetError::Inconsistent`] if the event's trace is out of
    /// range or its index is not the next index on that trace.
    pub fn push(&mut self, event: Event) -> Result<(), PoetError> {
        let n_traces = self.index.len();
        let Some(positions) = self.index.get_mut(event.trace().as_usize()) else {
            return Err(PoetError::Inconsistent(format!(
                "event {} names trace {} but the store has {n_traces} traces",
                event.id(),
                event.trace(),
            )));
        };
        let expected = positions.len() as u32 + 1;
        if event.index().get() != expected {
            return Err(PoetError::Inconsistent(format!(
                "event {} arrived out of order (expected index {expected})",
                event.id()
            )));
        }
        let pos = u32::try_from(self.len).map_err(|_| {
            PoetError::Inconsistent(format!("the store is full at {} events", self.len))
        })?;
        let (chunk, slot) = locate(self.len);
        if slot == 0 {
            self.chunks
                .push(Vec::with_capacity(next_chunk_capacity(self.len)));
        }
        positions.push(pos);
        self.chunks[chunk].push(event);
        self.len += 1;
        Ok(())
    }

    /// The event at arrival position `pos < self.len()`.
    fn at(&self, pos: usize) -> &Event {
        let (chunk, slot) = locate(pos);
        &self.chunks[chunk][slot]
    }

    /// Looks up an event by identifier.
    #[must_use]
    pub fn get(&self, id: EventId) -> Option<&Event> {
        let nth = (id.index().get() as usize).checked_sub(1)?;
        self.trace_events(id.trace()).get(nth)
    }

    /// All events of trace `t` in index order (none for a trace the store
    /// does not have).
    #[must_use]
    pub fn trace_events(&self, t: TraceId) -> TraceEvents<'_> {
        TraceEvents {
            store: self,
            positions: self.index.get(t.as_usize()).map_or(&[], Vec::as_slice),
        }
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
        (from.min(self.len)..self.len).map(move |pos| self.at(pos))
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
        // The per-trace index is a function of the arrival order.
        self.n_traces() == other.n_traces() && self.iter_arrival().eq(other.iter_arrival())
    }
}

/// One trace's events in index order: a view through the trace's
/// positions into the arrival log, indexable like the slice it stands for.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvents<'a> {
    store: &'a TraceStore,
    positions: &'a [u32],
}

impl<'a> TraceEvents<'a> {
    /// Number of events on the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the trace has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The trace's `nth` event, counting from 0 (its index is `nth + 1`).
    #[must_use]
    pub fn get(&self, nth: usize) -> Option<&'a Event> {
        self.positions
            .get(nth)
            .map(|&pos| self.store.at(pos as usize))
    }

    /// The trace's events in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a Event> + 'a {
        let store = self.store;
        self.positions
            .iter()
            .map(move |&pos| store.at(pos as usize))
    }

    /// How many leading events satisfy `pred`, which must hold for a
    /// prefix of the trace and for nothing after it (as
    /// [`slice::partition_point`]).
    pub fn partition_point(&self, mut pred: impl FnMut(&'a Event) -> bool) -> usize {
        self.positions
            .partition_point(|&pos| pred(self.store.at(pos as usize)))
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
        let foreign = poet.store().trace_events(t(1)).get(0).unwrap().clone();
        let msg = store.push(foreign).unwrap_err().to_string();
        assert!(
            msg.contains("names trace T1 but the store has 1 traces"),
            "{msg}"
        );
        // Skipping index 1 on trace 0 is rejected.
        let second = poet.store().trace_events(t(0)).get(1).unwrap().clone();
        let msg = store.push(second).unwrap_err().to_string();
        assert!(
            msg.contains("arrived out of order (expected index 1)"),
            "{msg}"
        );
        assert!(store.is_empty());
    }

    #[test]
    fn positions_fill_chunk_after_chunk_without_gaps() {
        // Walk far enough to cross from doubling chunks into capped ones.
        let (mut chunk, mut slot, mut capacity) = (0, 0, next_chunk_capacity(0));
        for pos in 0..4 * CHUNK_CAP {
            assert_eq!(locate(pos), (chunk, slot), "position {pos}");
            slot += 1;
            if slot == capacity {
                (chunk, slot, capacity) = (chunk + 1, 0, next_chunk_capacity(pos + 1));
            }
        }
        assert_eq!(capacity, CHUNK_CAP);
    }

    #[test]
    fn a_long_trace_is_read_back_across_chunks() {
        let mut poet = PoetServer::new(2);
        let n = 2 * CHUNK_CAP + 37;
        for i in 0..n {
            poet.record_id(t((i % 2) as u32), EventKind::Unary, "x", "");
        }
        let store = poet.store();
        assert_eq!(store.iter_arrival().len(), n);
        for (pos, e) in store.iter_arrival().enumerate() {
            assert_eq!(e.trace(), t((pos % 2) as u32));
            assert_eq!(e.index().get() as usize, pos / 2 + 1);
        }
        for from in [FIRST_CHUNK, CHUNK_CAP - 1, 2 * CHUNK_CAP, n - 1, n] {
            let tail = store.iter_arrival_from(from);
            assert_eq!(tail.len(), n - from);
            assert_eq!(tail.count(), n - from);
        }
        let evens = store.trace_events(t(0));
        assert_eq!(evens.len(), n.div_ceil(2));
        assert_eq!(evens.iter().len(), evens.len());
        assert!(evens.iter().all(|e| e.trace() == t(0)));
        assert_eq!(evens.partition_point(|e| e.index().get() <= 10), 10);
        assert!(store.clone().content_eq(store));
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
