//! Timestamped events and the per-computation clock assigner.

use crate::{Causality, EventId, EventIndex, TraceId, VectorClock};

/// An event position together with its vector timestamp.
///
/// This is the minimal information the matcher needs about an event to
/// answer every causality query in constant time.
///
/// ```
/// use ocep_vclock::{ClockAssigner, Causality, TraceId};
/// let mut asn = ClockAssigner::new(2);
/// let a = asn.local(TraceId::new(0));
/// let b = asn.receive(TraceId::new(1), &a);
/// assert!(a.happens_before(&b));
/// assert_eq!(b.causality(&a), Causality::After);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StampedEvent {
    id: EventId,
    clock: VectorClock,
}

impl StampedEvent {
    /// Creates a stamped event. `clock.entry(id.trace())` must equal
    /// `id.index()` under the Fidge convention; this is validated.
    ///
    /// # Panics
    ///
    /// Panics if the clock's own-trace entry disagrees with the index.
    #[must_use]
    pub fn new(id: EventId, clock: VectorClock) -> Self {
        assert_eq!(
            clock.entry(id.trace()),
            id.index(),
            "Fidge convention violated: own-trace clock entry must equal event index"
        );
        StampedEvent { id, clock }
    }

    /// Creates a stamped event *without* validating the Fidge convention.
    ///
    /// Exists for layers that must be able to represent malformed input:
    /// an ingestion guard validating events from an untrusted transport,
    /// or a fault injector synthesizing corrupt clocks on purpose. All
    /// in-process producers should use [`StampedEvent::new`].
    #[must_use]
    pub fn new_unchecked(id: EventId, clock: VectorClock) -> Self {
        StampedEvent { id, clock }
    }

    /// The event's global identifier.
    #[must_use]
    pub fn id(&self) -> EventId {
        self.id
    }

    /// The trace the event occurred on.
    #[must_use]
    pub fn trace(&self) -> TraceId {
        self.id.trace()
    }

    /// The event's 1-based index on its trace.
    #[must_use]
    pub fn index(&self) -> EventIndex {
        self.id.index()
    }

    /// The event's vector timestamp.
    #[must_use]
    pub fn clock(&self) -> &VectorClock {
        &self.clock
    }

    /// Constant-time happens-before test (§III-A).
    ///
    /// For `a` on trace `i`: `a -> b ⇔ V_a[i] <= V_b[i]` and `a != b`.
    #[must_use]
    pub fn happens_before(&self, other: &StampedEvent) -> bool {
        crate::ops::count_comparison();
        self.id != other.id && self.index() <= other.clock.entry(self.trace())
    }

    /// True if the two events are causally unrelated.
    #[must_use]
    pub fn concurrent_with(&self, other: &StampedEvent) -> bool {
        self.causality(other) == Causality::Concurrent
    }

    /// Full four-way classification of this event against `other`.
    #[must_use]
    pub fn causality(&self, other: &StampedEvent) -> Causality {
        if self.id == other.id {
            Causality::Equal
        } else if self.happens_before(other) {
            Causality::Before
        } else if other.happens_before(self) {
            Causality::After
        } else {
            Causality::Concurrent
        }
    }

    /// Interns this event's clock through `pool` (keyed by the event's
    /// trace): if an equal clock is cached there, the event adopts the
    /// cached, pointer-equal buffer. Value-wise a no-op; events whose
    /// trace is outside the pool's range are left untouched (range
    /// enforcement belongs to the admission guard, not here). Only the
    /// repository benchmark still calls this (see [`crate::ClockPool`]).
    pub fn intern_clock(&mut self, pool: &mut crate::ClockPool) {
        if self.trace().as_usize() < pool.n_traces() {
            let clock = std::mem::replace(&mut self.clock, VectorClock::new(0));
            self.clock = pool.intern(self.trace(), clock);
        }
    }

    /// The *greatest predecessor* of this event on trace `t` (§IV-C): the
    /// index of the most recent event on `t` that happens before this
    /// event, or [`EventIndex::ZERO`] if none does. On the event's own
    /// trace this is simply the previous event.
    #[must_use]
    pub fn greatest_predecessor(&self, t: TraceId) -> EventIndex {
        if t == self.trace() {
            self.index().prev().unwrap_or(EventIndex::ZERO)
        } else {
            self.clock.entry(t)
        }
    }
}

impl std::fmt::Display for StampedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.id, self.clock)
    }
}

/// Assigns Fidge vector clocks to the events of one computation.
///
/// This is the timestamping logic the tracer (POET, §V-A) runs so that the
/// monitored application carries no vector-clock overhead itself: the
/// assigner holds one clock per trace and stamps local, send, and receive
/// events.
///
/// ```
/// use ocep_vclock::{ClockAssigner, TraceId};
/// let mut asn = ClockAssigner::new(3);
/// let s = asn.local(TraceId::new(0));          // send is a local step...
/// let r = asn.receive(TraceId::new(2), &s);    // ...joined at the receiver
/// assert!(s.happens_before(&r));
/// ```
#[derive(Debug, Clone)]
pub struct ClockAssigner {
    n_traces: usize,
    /// Where each trace's row starts in `rows`; [`UNSTAMPED`] until the
    /// trace's first event.
    starts: Vec<usize>,
    /// The current clock of every trace stamped so far, as plain
    /// entries, `n_traces` to a row, in order of first event. A row is
    /// never shared with the events it stamped, so advancing it probes
    /// no reference count: an event costs the in-place step and one
    /// copy out. Traces that never record an event take no room.
    rows: Vec<u32>,
}

/// The `starts` entry of a trace with no event yet (its clock is zero).
const UNSTAMPED: usize = usize::MAX;

/// The widest computation whose rows are all reserved up front (1 MiB).
const MAX_RESERVED_TRACES: usize = 512;

impl ClockAssigner {
    /// Creates an assigner for `n_traces` traces, all clocks zero.
    #[must_use]
    pub fn new(n_traces: usize) -> Self {
        // Room for every row when that is small (reserved, not touched),
        // so rows are added without moving the others; a wide
        // computation pays only for the traces that record.
        let reserve = if n_traces <= MAX_RESERVED_TRACES {
            n_traces * n_traces
        } else {
            0
        };
        ClockAssigner {
            n_traces,
            starts: vec![UNSTAMPED; n_traces],
            rows: Vec::with_capacity(reserve),
        }
    }

    /// Number of traces managed.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.n_traces
    }

    /// Trace `t`'s row, added (all zero) on first use.
    fn row(&mut self, t: TraceId) -> &mut [u32] {
        let start = &mut self.starts[t.as_usize()];
        if *start == UNSTAMPED {
            *start = self.rows.len();
            self.rows.resize(*start + self.n_traces, 0);
        }
        &mut self.rows[*start..*start + self.n_traces]
    }

    /// Advances `row`'s own entry and stamps the event it now describes.
    fn stamp(row: &mut [u32], t: TraceId) -> StampedEvent {
        crate::ops::count_tick();
        let own = &mut row[t.as_usize()];
        *own += 1;
        let id = EventId::new(t, EventIndex::new(*own));
        StampedEvent::new(id, VectorClock::copy_of(row))
    }

    /// Stamps a purely local event (including a message send) on trace `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn local(&mut self, t: TraceId) -> StampedEvent {
        Self::stamp(self.row(t), t)
    }

    /// Stamps a receive event on trace `t` for a message whose send was
    /// stamped `sender`: joins the sender's clock, then ticks.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or the clock widths differ.
    pub fn receive(&mut self, t: TraceId, sender: &StampedEvent) -> StampedEvent {
        let row = self.row(t);
        let sent = sender.clock().entries();
        assert_eq!(
            row.len(),
            sent.len(),
            "cannot join clocks of different widths"
        );
        crate::ops::count_join();
        crate::kernels::join_into(row, sent);
        Self::stamp(row, t)
    }

    /// The current clock of trace `t` (timestamp of its latest event).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn current(&self, t: TraceId) -> VectorClock {
        match self.starts[t.as_usize()] {
            UNSTAMPED => VectorClock::new(self.n_traces),
            start => VectorClock::copy_of(&self.rows[start..start + self.n_traces]),
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
    fn local_events_on_one_trace_are_totally_ordered() {
        let mut asn = ClockAssigner::new(1);
        let a = asn.local(t(0));
        let b = asn.local(t(0));
        let c = asn.local(t(0));
        assert!(a.happens_before(&b));
        assert!(b.happens_before(&c));
        assert!(a.happens_before(&c));
        assert!(!c.happens_before(&a));
    }

    #[test]
    fn unrelated_traces_are_concurrent() {
        let mut asn = ClockAssigner::new(2);
        let a = asn.local(t(0));
        let b = asn.local(t(1));
        assert_eq!(a.causality(&b), Causality::Concurrent);
        assert_eq!(b.causality(&a), Causality::Concurrent);
    }

    #[test]
    fn message_transfers_causality_transitively() {
        let mut asn = ClockAssigner::new(3);
        let a = asn.local(t(0));
        let r1 = asn.receive(t(1), &a);
        let s1 = asn.local(t(1));
        let r2 = asn.receive(t(2), &s1);
        assert!(a.happens_before(&r2));
        assert!(r1.happens_before(&r2));
    }

    #[test]
    fn event_after_send_is_concurrent_with_receive() {
        // Paper Fig 5 style: a send's successor on the sender's trace is
        // concurrent with the receive (no message back).
        let mut asn = ClockAssigner::new(2);
        let s = asn.local(t(0));
        let r = asn.receive(t(1), &s);
        let after = asn.local(t(0));
        assert_eq!(after.causality(&r), Causality::Concurrent);
    }

    #[test]
    fn stamps_equal_the_tick_and_join_definition() {
        // The assigner steps private rows; the definition is
        // `VectorClock::join` then `tick` on the trace's previous clock.
        for n in [5, MAX_RESERVED_TRACES + 1] {
            assigner_matches_definition(n);
        }
    }

    fn assigner_matches_definition(n: usize) {
        let mut rng = ocep_rng::Rng::seed_from_u64(16);
        let mut asn = ClockAssigner::new(n);
        let mut reference = vec![VectorClock::new(n); n];
        let mut stamped: Vec<StampedEvent> = Vec::new();
        for _ in 0..500 {
            let tr = t(rng.gen_range(0..5));
            // Trace 4 never records: its clock must stay readable as zero.
            if tr == t(4) {
                continue;
            }
            let sender = rng.choose(&stamped).filter(|_| rng.gen_bool(0.4)).cloned();
            let clock = &mut reference[tr.as_usize()];
            let event = match &sender {
                Some(s) => {
                    clock.join(s.clock());
                    asn.receive(tr, s)
                }
                None => asn.local(tr),
            };
            let index = clock.tick(tr);
            assert_eq!(event.id(), EventId::new(tr, index));
            assert_eq!(event.clock(), &*clock);
            assert_eq!(&asn.current(tr), &*clock);
            stamped.push(event);
        }
        assert_eq!(asn.current(t(4)), VectorClock::new(n));
    }

    #[test]
    fn equal_only_for_same_event() {
        let mut asn = ClockAssigner::new(2);
        let a = asn.local(t(0));
        assert_eq!(a.causality(&a.clone()), Causality::Equal);
    }

    #[test]
    fn greatest_predecessor_reads_clock_entry() {
        let mut asn = ClockAssigner::new(2);
        let _a1 = asn.local(t(0));
        let a2 = asn.local(t(0));
        let r = asn.receive(t(1), &a2);
        // GP of r on trace 0 is a2 (index 2).
        assert_eq!(r.greatest_predecessor(t(0)), EventIndex::new(2));
        // GP of r on its own trace is the previous event (none here).
        assert_eq!(r.greatest_predecessor(t(1)), EventIndex::ZERO);
        // GP of a2 on its own trace is a1.
        assert_eq!(a2.greatest_predecessor(t(0)), EventIndex::new(1));
        // GP of a2 on trace 1: nothing there precedes it.
        assert_eq!(a2.greatest_predecessor(t(1)), EventIndex::ZERO);
    }

    #[test]
    #[should_panic(expected = "Fidge convention")]
    fn stamped_event_rejects_inconsistent_clock() {
        let clock = VectorClock::from_entries(vec![5, 0]);
        let _ = StampedEvent::new(EventId::new(t(0), EventIndex::new(3)), clock);
    }
}
