//! The causal admission guard: a validating reorder stage in front of
//! a [`MonitorSet`](crate::MonitorSet)
//! ([`enable_guard`](crate::MonitorSet::enable_guard)) — one guard per
//! stream, however many monitors observe what it delivers.
//!
//! Every correctness argument of §IV assumes the monitor consumes a
//! *clean linearization* of the causal order. A real transport delivers
//! duplicated, reordered, late, and occasionally corrupt events; the
//! guard uses the Fidge/Mattern timestamps already carried by every
//! [`Event`] to re-establish a causal delivery order at the ingestion
//! boundary instead of trusting the producer:
//!
//! * **Validation** — events naming an out-of-range trace, carrying a
//!   clock of the wrong dimension, or violating the Fidge convention
//!   (own-trace clock entry ≠ index, or index 0) are *quarantined* into a
//!   structured [`IngestFault`] stream with per-category counters. They
//!   never reach the history.
//! * **Duplicate drop** — an event whose index is already admitted on its
//!   trace is dropped in O(1); a duplicate of a still-buffered event is
//!   dropped by id lookup.
//! * **Causal buffering** — a causally premature event (a program-order
//!   gap on its own trace, or a receive whose partner send has not been
//!   admitted) is buffered until its predecessors arrive. Admission is
//!   O(1) per in-order event: because the guard only ever admits an event
//!   whose full causal past is admitted, deliverability reduces to two
//!   constant-time checks — *program order* (`index == admitted + 1`) and
//!   *direct dependency* (the partner send, if any, is admitted) — the
//!   Birman–Schiper–Stephenson observation specialized to one-partner
//!   messages.
//! * **Bounded memory** — the buffer holds at most
//!   [`GuardConfig::capacity`] events; a premature event that finds it
//!   full is rejected (counted, and recorded as a fault), so what the
//!   monitor has admitted stays causally closed. No input can make the
//!   guard panic or grow without bound.

use crate::obs::MetricKind;
use crate::stats::{counters, CounterRow};
use ocep_poet::Event;
use ocep_vclock::EventId;
use std::collections::HashSet;

/// Configuration of an [`AdmissionGuard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardConfig {
    /// Maximum number of causally premature events held for reordering;
    /// a premature event that finds the buffer full is rejected.
    pub capacity: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig { capacity: 1024 }
    }
}

/// The category of one quarantined or dropped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestFaultKind {
    /// The event (or its partner) names a trace outside the computation.
    TraceOutOfRange,
    /// The vector clock's dimension differs from the trace count.
    ClockWidthMismatch,
    /// The clock's own-trace entry disagrees with the event index, or the
    /// index is 0 — the local component is not the required monotone
    /// counter.
    NonMonotoneLocal,
    /// The reorder buffer was full and the incoming event was rejected.
    BufferOverflow,
}

impl std::fmt::Display for IngestFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IngestFaultKind::TraceOutOfRange => "trace-out-of-range",
            IngestFaultKind::ClockWidthMismatch => "clock-width-mismatch",
            IngestFaultKind::NonMonotoneLocal => "non-monotone-local",
            IngestFaultKind::BufferOverflow => "buffer-overflow",
        })
    }
}

/// One entry of the structured ingest-error stream.
#[derive(Debug, Clone)]
pub struct IngestFault {
    /// The fault category.
    pub kind: IngestFaultKind,
    /// The offending event, when it carried a well-formed id.
    pub event: Option<EventId>,
    /// Human-readable context.
    pub detail: String,
}

impl std::fmt::Display for IngestFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

// The families of the catalogue below with more than one sample: each
// row names its sample's labels (and its stats-line key) and takes the
// rest from here.
const EVENTS: CounterRow = CounterRow {
    key: None,
    family: "ocep_ingest_events_total",
    labels: &[],
    kind: MetricKind::Counter,
    help: "Admission-guard event outcomes.",
};
const QUARANTINED: CounterRow = CounterRow {
    key: Some("ingest_quarantined"),
    family: "ocep_ingest_quarantined_total",
    labels: &[],
    kind: MetricKind::Counter,
    help: "Events quarantined by the admission guard, by reason.",
};

counters! {
    /// Per-category ingestion counters of one [`AdmissionGuard`].
    /// `Display` prints the `ingest_*=N` list `ocep check --stats`
    /// appends to the monitor counters when a guard ran: the
    /// quarantine reasons summed, the degraded deliveries and the
    /// buffer peak left off.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct IngestStats {
        /// Events admitted to the monitor (in causal order).
        admitted: CounterRow {
            key: Some("ingest_admitted"),
            labels: &[("outcome", "admitted")],
            ..EVENTS
        },
        /// Exact duplicates dropped (already admitted, or already buffered).
        duplicates_dropped: CounterRow {
            key: Some("ingest_duplicates"),
            labels: &[("outcome", "duplicate")],
            ..EVENTS
        },
        /// Premature events that entered the reorder buffer.
        buffered: CounterRow {
            key: Some("ingest_buffered"),
            labels: &[("outcome", "buffered")],
            ..EVENTS
        },
        /// Buffered events later delivered once their predecessors arrived.
        reordered_delivered: CounterRow {
            key: Some("ingest_reordered"),
            labels: &[("outcome", "reordered")],
            ..EVENTS
        },
        /// Quarantined: event or partner trace id out of range.
        quarantined_trace_range: CounterRow {
            labels: &[("reason", "trace_range")],
            ..QUARANTINED
        },
        /// Quarantined: clock dimension != trace count.
        quarantined_clock_width: CounterRow {
            labels: &[("reason", "clock_width")],
            ..QUARANTINED
        },
        /// Quarantined: own-trace clock entry inconsistent with the index.
        quarantined_non_monotone: CounterRow {
            labels: &[("reason", "non_monotone")],
            ..QUARANTINED
        },
        /// Premature events rejected because the buffer was full.
        overflow_rejected: CounterRow {
            key: Some("ingest_overflow"),
            family: "ocep_ingest_overflow_total",
            labels: &[("policy", "rejected")],
            kind: MetricKind::Counter,
            help: "Premature events rejected by a full reorder buffer.",
        },
        /// Times an explicit flush of a non-empty buffer abandoned causal
        /// order.
        degraded_flushes: CounterRow::total(
            "ingest_degraded_flushes",
            "ocep_ingest_degraded_flushes_total",
            "Flushes that abandoned causal order.",
        ),
        /// Events delivered out of causal order by those flushes.
        degraded_delivered: CounterRow {
            labels: &[("outcome", "degraded_delivered")],
            ..EVENTS
        },
        /// High-water mark of the reorder buffer.
        buffered_peak: CounterRow {
            key: None,
            family: "ocep_ingest_buffer_peak",
            labels: &[],
            kind: MetricKind::Gauge,
            help: "High-water mark of the reorder buffer.",
        },
    }
}

impl IngestStats {
    /// Total quarantined events across all validation categories.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.quarantined_trace_range + self.quarantined_clock_width + self.quarantined_non_monotone
    }

    /// True when ingestion lost or reordered information: something was
    /// quarantined, rejected by a full buffer, or flushed out of causal
    /// order.
    /// (Duplicates and successful reorders are *not* degradation — the
    /// guard fully repaired those.)
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.quarantined() > 0 || self.overflow_rejected > 0 || self.degraded_flushes > 0
    }
}

/// Cap on the retained structured fault log; counters keep counting past
/// it, so an attacker cannot grow memory by sending garbage.
const MAX_FAULT_LOG: usize = 256;

/// The validating reorder stage (see the module docs).
///
/// Feed raw events to [`AdmissionGuard::admit`]; it appends the events
/// that became deliverable — validated, deduplicated, and in causal
/// order — to the output buffer.
#[derive(Debug)]
pub struct AdmissionGuard {
    pub(crate) n_traces: usize,
    /// `admitted[t]` — count of admitted events on trace `t`; indices
    /// `1..=admitted[t]` have all been delivered, in order.
    pub(crate) admitted: Vec<u32>,
    /// Premature events awaiting predecessors, in arrival order.
    pub(crate) buffer: Vec<Event>,
    /// Ids of buffered events, for O(1) duplicate-of-buffered detection.
    pub(crate) buffered_ids: HashSet<EventId>,
    pub(crate) config: GuardConfig,
    pub(crate) stats: IngestStats,
    faults: Vec<IngestFault>,
    /// Faults not retained because the log was full (still counted).
    faults_dropped: u64,
}

impl AdmissionGuard {
    /// Creates a guard for a computation of `n_traces` traces.
    #[must_use]
    pub fn new(n_traces: usize, config: GuardConfig) -> Self {
        AdmissionGuard {
            n_traces,
            admitted: vec![0; n_traces],
            buffer: Vec::new(),
            buffered_ids: HashSet::new(),
            config,
            stats: IngestStats::default(),
            faults: Vec::new(),
            faults_dropped: 0,
        }
    }

    /// Ingestion counters.
    #[must_use]
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The guard's configuration.
    #[must_use]
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Number of events currently buffered awaiting predecessors.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Drains the structured fault stream (quarantines and overflow
    /// rejections, capped at a fixed retention; counters are exact).
    pub fn take_faults(&mut self) -> Vec<IngestFault> {
        std::mem::take(&mut self.faults)
    }

    /// Faults that were counted but not retained in the capped log.
    #[must_use]
    pub fn faults_dropped(&self) -> u64 {
        self.faults_dropped
    }

    fn fault(&mut self, kind: IngestFaultKind, event: Option<EventId>, detail: String) {
        match kind {
            IngestFaultKind::TraceOutOfRange => self.stats.quarantined_trace_range += 1,
            IngestFaultKind::ClockWidthMismatch => self.stats.quarantined_clock_width += 1,
            IngestFaultKind::NonMonotoneLocal => self.stats.quarantined_non_monotone += 1,
            IngestFaultKind::BufferOverflow => {} // counted at the call site
        }
        if self.faults.len() < MAX_FAULT_LOG {
            self.faults.push(IngestFault {
                kind,
                event,
                detail,
            });
        } else {
            self.faults_dropped += 1;
        }
    }

    /// O(1) causal deliverability for a *validated* event: program order
    /// on its own trace, plus (for receives) the partner send admitted.
    /// Sufficient because every admitted event's full causal past is
    /// admitted (induction over admissions).
    fn deliverable(&self, event: &Event) -> bool {
        let t = event.trace().as_usize();
        if u64::from(event.index().get()) != u64::from(self.admitted[t]) + 1 {
            return false;
        }
        match event.partner() {
            Some(p) => p.index().get() <= self.admitted[p.trace().as_usize()],
            None => true,
        }
    }

    /// Validates `event`; returns `false` (and records the quarantine)
    /// when it must not be admitted in any order.
    fn validate(&mut self, event: &Event) -> bool {
        let t = event.trace();
        if t.as_usize() >= self.n_traces {
            self.fault(
                IngestFaultKind::TraceOutOfRange,
                Some(event.id()),
                format!("event {} on trace {} of {}", event.id(), t, self.n_traces),
            );
            return false;
        }
        if event.clock().len() != self.n_traces {
            self.fault(
                IngestFaultKind::ClockWidthMismatch,
                Some(event.id()),
                format!(
                    "event {} carries a {}-entry clock over {} traces",
                    event.id(),
                    event.clock().len(),
                    self.n_traces
                ),
            );
            return false;
        }
        if event.index().get() == 0 || event.clock().entry(t) != event.index() {
            self.fault(
                IngestFaultKind::NonMonotoneLocal,
                Some(event.id()),
                format!(
                    "event {} has own-trace clock entry {} (Fidge convention requires {})",
                    event.id(),
                    event.clock().entry(t).get(),
                    event.index().get()
                ),
            );
            return false;
        }
        if let Some(p) = event.partner() {
            if p.trace().as_usize() >= self.n_traces {
                self.fault(
                    IngestFaultKind::TraceOutOfRange,
                    Some(event.id()),
                    format!(
                        "event {} names partner {} on an unknown trace",
                        event.id(),
                        p
                    ),
                );
                return false;
            }
            if p.index().get() == 0 {
                self.fault(
                    IngestFaultKind::NonMonotoneLocal,
                    Some(event.id()),
                    format!("event {} names partner {} with index 0", event.id(), p),
                );
                return false;
            }
        }
        true
    }

    fn deliver(&mut self, event: Event, out: &mut Vec<Event>) {
        let t = event.trace().as_usize();
        self.admitted[t] = self.admitted[t].max(event.index().get());
        self.stats.admitted += 1;
        out.push(event);
    }

    /// Repeatedly sweeps the buffer, delivering events whose predecessors
    /// are now admitted, until a fixpoint. In-order sweeps deliver
    /// same-unlock chains in arrival order.
    fn drain_buffer(&mut self, out: &mut Vec<Event>) {
        loop {
            let mut progress = false;
            let mut i = 0;
            while i < self.buffer.len() {
                if self.deliverable(&self.buffer[i]) {
                    let e = self.buffer.remove(i);
                    self.buffered_ids.remove(&e.id());
                    self.stats.reordered_delivered += 1;
                    self.deliver(e, out);
                    progress = true;
                } else {
                    i += 1;
                }
            }
            if !progress {
                return;
            }
        }
    }

    /// Processes one raw arrival. Deliverable events (the arrival and/or
    /// previously buffered ones it unlocked) are appended to `out` in
    /// causal order; invalid, duplicate, and overflowing arrivals are
    /// counted and recorded instead. Never panics.
    pub fn admit(&mut self, event: &Event, out: &mut Vec<Event>) {
        if !self.validate(event) {
            return;
        }
        let t = event.trace().as_usize();
        // O(1) duplicate of an already-admitted index.
        if event.index().get() <= self.admitted[t] {
            self.stats.duplicates_dropped += 1;
            return;
        }
        if self.deliverable(event) {
            // The fast path: an in-order arrival costs two comparisons
            // and (with an empty buffer) no scan at all.
            self.deliver(event.clone(), out);
            if !self.buffer.is_empty() {
                self.drain_buffer(out);
            }
            return;
        }
        // Premature: buffer it, or reject it when the buffer is full.
        if self.buffered_ids.contains(&event.id()) {
            self.stats.duplicates_dropped += 1;
            return;
        }
        if self.buffer.len() >= self.config.capacity {
            self.stats.overflow_rejected += 1;
            self.fault(
                IngestFaultKind::BufferOverflow,
                Some(event.id()),
                format!(
                    "buffer at capacity {}; rejected incoming {}",
                    self.config.capacity,
                    event.id()
                ),
            );
            return;
        }
        self.buffer.push(event.clone());
        self.buffered_ids.insert(event.id());
        self.stats.buffered += 1;
        self.stats.buffered_peak = self.stats.buffered_peak.max(self.buffer.len() as u64);
    }

    /// Processes a whole batch of raw arrivals through the same state
    /// machine as per-event [`AdmissionGuard::admit`] — validation,
    /// deduplication, and causal reordering are applied to every event
    /// in batch order, so verdicts, delivery order, counters, and the
    /// fault log are bit-identical to calling `admit` once per event.
    ///
    /// What the batch form buys is amortization, not different
    /// semantics: `out` is grown once for the whole frame instead of
    /// re-checked per push, and callers (the monitor set, the serve
    /// engine) check the guard out and swap their reuse buffers once
    /// per batch instead of once per event. The common clean batch —
    /// in-order, no duplicates, empty buffer — runs entirely on the
    /// two-comparison fast path of `admit` with no buffer scans.
    pub fn admit_batch(&mut self, events: &[Event], out: &mut Vec<Event>) {
        out.reserve(events.len());
        for event in events {
            self.admit(event, out);
        }
    }

    /// Abandons causal order for everything still buffered: delivers the
    /// buffer sorted by `(trace, index)` (so per-trace order at least is
    /// preserved) and marks the run degraded. Used by end-of-stream
    /// drains. A no-op on an empty buffer.
    pub fn flush(&mut self, out: &mut Vec<Event>) {
        if self.buffer.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.buffer);
        self.buffered_ids.clear();
        pending.sort_by_key(|e| (e.trace().as_u32(), e.index().get()));
        self.stats.degraded_flushes += 1;
        self.stats.degraded_delivered += pending.len() as u64;
        for e in pending {
            self.deliver(e, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_poet::{EventKind, PoetServer};
    use ocep_vclock::{EventIndex, StampedEvent, TraceId, VectorClock};

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    /// A small two-trace execution with a message in the middle:
    /// T0: a1, s2(send), a3 — T1: b1, r2(recv of s2), b3.
    fn sample_events() -> Vec<Event> {
        let mut poet = PoetServer::new(2);
        poet.record(t(0), EventKind::Unary, "a", "");
        let s = poet.record(t(0), EventKind::Send, "s", "");
        poet.record(t(1), EventKind::Unary, "b", "");
        poet.record_receive(t(1), s.id(), "r", "");
        poet.record(t(0), EventKind::Unary, "a", "");
        poet.record(t(1), EventKind::Unary, "b", "");
        poet.store().iter_arrival().cloned().collect()
    }

    fn admit_all(guard: &mut AdmissionGuard, events: &[Event]) -> Vec<Event> {
        let mut out = Vec::new();
        for e in events {
            guard.admit(e, &mut out);
        }
        out
    }

    fn ids(events: &[Event]) -> Vec<EventId> {
        events.iter().map(Event::id).collect()
    }

    #[test]
    fn clean_stream_passes_through_unchanged() {
        let events = sample_events();
        let mut guard = AdmissionGuard::new(2, GuardConfig::default());
        let out = admit_all(&mut guard, &events);
        assert_eq!(ids(&out), ids(&events));
        assert_eq!(guard.stats().admitted, 6);
        assert_eq!(guard.stats().buffered, 0);
        assert_eq!(guard.stats().quarantined(), 0);
        assert_eq!(guard.buffered(), 0);
    }

    #[test]
    fn premature_event_is_buffered_then_delivered_in_order() {
        let events = sample_events();
        let mut guard = AdmissionGuard::new(2, GuardConfig::default());
        // Deliver the receive (arrival index 3) before its partner send
        // (arrival index 1): [a1, b1, r2, s2, a3, b3].
        let shuffled = [
            events[0].clone(),
            events[2].clone(),
            events[3].clone(),
            events[1].clone(),
            events[4].clone(),
            events[5].clone(),
        ];
        let out = admit_all(&mut guard, &shuffled);
        // The guard must re-establish causal order: s2 before r2.
        let pos = |id: EventId| ids(&out).iter().position(|&x| x == id).unwrap();
        assert_eq!(out.len(), 6);
        assert!(pos(events[1].id()) < pos(events[3].id()));
        assert_eq!(guard.stats().buffered, 1);
        assert_eq!(guard.stats().reordered_delivered, 1);
        assert_eq!(guard.buffered(), 0);
    }

    #[test]
    fn swapped_program_order_pair_is_restored_exactly() {
        let events = sample_events();
        let mut guard = AdmissionGuard::new(2, GuardConfig::default());
        // Swap a1 and s2 (same trace, program-ordered): guard must
        // restore the exact original sequence.
        let shuffled = [
            events[1].clone(),
            events[0].clone(),
            events[2].clone(),
            events[3].clone(),
            events[4].clone(),
            events[5].clone(),
        ];
        let out = admit_all(&mut guard, &shuffled);
        assert_eq!(ids(&out), ids(&events));
    }

    #[test]
    fn duplicate_of_admitted_event_dropped_in_o1() {
        let events = sample_events();
        let mut guard = AdmissionGuard::new(2, GuardConfig::default());
        let mut out = Vec::new();
        guard.admit(&events[0], &mut out);
        guard.admit(&events[0], &mut out);
        guard.admit(&events[0], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(guard.stats().duplicates_dropped, 2);
    }

    #[test]
    fn duplicate_of_buffered_event_dropped() {
        let events = sample_events();
        let mut guard = AdmissionGuard::new(2, GuardConfig::default());
        let mut out = Vec::new();
        // a3 (trace 0 index 3) is premature with nothing admitted.
        guard.admit(&events[4], &mut out);
        guard.admit(&events[4], &mut out);
        assert!(out.is_empty());
        assert_eq!(guard.buffered(), 1);
        assert_eq!(guard.stats().duplicates_dropped, 1);
    }

    #[test]
    fn quarantines_trace_out_of_range() {
        let mut guard = AdmissionGuard::new(2, GuardConfig::default());
        let stamp = StampedEvent::new_unchecked(
            EventId::new(t(7), EventIndex::new(1)),
            VectorClock::from_entries(vec![0, 0]),
        );
        let bad = Event::new(stamp, EventKind::Unary, "a", "", None);
        let mut out = Vec::new();
        guard.admit(&bad, &mut out);
        assert!(out.is_empty());
        assert_eq!(guard.stats().quarantined_trace_range, 1);
        let faults = guard.take_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, IngestFaultKind::TraceOutOfRange);
    }

    #[test]
    fn quarantines_clock_width_mismatch() {
        let mut guard = AdmissionGuard::new(2, GuardConfig::default());
        let stamp = StampedEvent::new_unchecked(
            EventId::new(t(0), EventIndex::new(1)),
            VectorClock::from_entries(vec![1, 0, 0]),
        );
        let bad = Event::new(stamp, EventKind::Unary, "a", "", None);
        let mut out = Vec::new();
        guard.admit(&bad, &mut out);
        assert!(out.is_empty());
        assert_eq!(guard.stats().quarantined_clock_width, 1);
    }

    #[test]
    fn quarantines_non_monotone_local_component() {
        let mut guard = AdmissionGuard::new(2, GuardConfig::default());
        let stamp = StampedEvent::new_unchecked(
            EventId::new(t(0), EventIndex::new(3)),
            VectorClock::from_entries(vec![9, 0]),
        );
        let bad = Event::new(stamp, EventKind::Unary, "a", "", None);
        let mut out = Vec::new();
        guard.admit(&bad, &mut out);
        assert!(out.is_empty());
        assert_eq!(guard.stats().quarantined_non_monotone, 1);
        assert_eq!(guard.stats().quarantined(), 1);
    }

    #[test]
    fn buffer_exactly_at_capacity_still_reorders() {
        // Capacity 2, and exactly 2 events buffered before the unlock
        // arrives: nothing overflows and order is restored.
        let mut poet = PoetServer::new(1);
        for _ in 0..3 {
            poet.record(t(0), EventKind::Unary, "a", "");
        }
        let evs: Vec<Event> = poet.store().iter_arrival().cloned().collect();
        let mut guard = AdmissionGuard::new(1, GuardConfig { capacity: 2 });
        let out = admit_all(
            &mut guard,
            &[evs[1].clone(), evs[2].clone(), evs[0].clone()],
        );
        assert_eq!(ids(&out), ids(&evs));
        assert_eq!(guard.stats().buffered_peak, 2);
        assert_eq!(guard.stats().overflow_rejected, 0);
    }

    #[test]
    fn overflow_reject_drops_incoming() {
        let mut poet = PoetServer::new(1);
        for _ in 0..4 {
            poet.record(t(0), EventKind::Unary, "a", "");
        }
        let evs: Vec<Event> = poet.store().iter_arrival().cloned().collect();
        let mut guard = AdmissionGuard::new(1, GuardConfig { capacity: 2 });
        let mut out = Vec::new();
        guard.admit(&evs[1], &mut out); // premature
        guard.admit(&evs[2], &mut out); // premature — buffer now full
        guard.admit(&evs[3], &mut out); // premature — rejected
        assert!(out.is_empty());
        assert_eq!(guard.stats().overflow_rejected, 1);
        // The gap-filler still unlocks what was buffered.
        guard.admit(&evs[0], &mut out);
        assert_eq!(ids(&out), ids(&evs[..3]));
    }

    #[test]
    fn premature_event_with_quarantined_predecessor_waits_then_overflows() {
        // The predecessor (index 1) arrives corrupt and is quarantined;
        // its successor (index 2) must stay buffered — the guard cannot
        // know the gap will never fill — and the buffer's capacity is the
        // bound on that wait.
        let mut poet = PoetServer::new(1);
        poet.record(t(0), EventKind::Unary, "a", "");
        poet.record(t(0), EventKind::Unary, "a", "");
        let evs: Vec<Event> = poet.store().iter_arrival().cloned().collect();
        // Corrupt copy of evs[0]: own-entry mismatch.
        let corrupt = Event::new(
            StampedEvent::new_unchecked(
                EventId::new(t(0), EventIndex::new(1)),
                VectorClock::from_entries(vec![5]),
            ),
            EventKind::Unary,
            "a",
            "",
            None,
        );
        let mut guard = AdmissionGuard::new(1, GuardConfig { capacity: 1 });
        let mut out = Vec::new();
        guard.admit(&corrupt, &mut out);
        assert_eq!(guard.stats().quarantined_non_monotone, 1);
        guard.admit(&evs[1], &mut out);
        assert!(out.is_empty());
        assert_eq!(guard.buffered(), 1, "successor waits for the gap");
        // A healthy copy of the predecessor eventually unblocks it.
        guard.admit(&evs[0], &mut out);
        assert_eq!(ids(&out), ids(&evs));
        assert_eq!(guard.buffered(), 0);
    }

    #[test]
    fn single_trace_degenerate_case() {
        // n_traces = 1: deliverability is pure program order.
        let mut poet = PoetServer::new(1);
        for _ in 0..5 {
            poet.record(t(0), EventKind::Unary, "a", "");
        }
        let evs: Vec<Event> = poet.store().iter_arrival().cloned().collect();
        let mut guard = AdmissionGuard::new(1, GuardConfig::default());
        let shuffled = [
            evs[1].clone(),
            evs[0].clone(),
            evs[4].clone(),
            evs[2].clone(),
            evs[3].clone(),
        ];
        let out = admit_all(&mut guard, &shuffled);
        assert_eq!(ids(&out), ids(&evs));
        assert_eq!(guard.stats().quarantined(), 0);
    }

    #[test]
    fn explicit_flush_drains_stragglers_sorted() {
        let events = sample_events();
        let mut guard = AdmissionGuard::new(2, GuardConfig::default());
        let mut out = Vec::new();
        // Only the tail events arrive; their predecessors never do.
        guard.admit(&events[4], &mut out); // T0:3
        guard.admit(&events[5], &mut out); // T1:3
        assert!(out.is_empty());
        guard.flush(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(guard.stats().degraded_flushes, 1);
        assert!(guard.stats().is_degraded());
        guard.flush(&mut out);
        assert_eq!(guard.stats().degraded_flushes, 1, "empty flush is free");
    }

    #[test]
    fn fault_log_is_capped_but_counters_are_exact() {
        let mut guard = AdmissionGuard::new(1, GuardConfig::default());
        let mut out = Vec::new();
        for i in 0..(MAX_FAULT_LOG + 50) {
            let bad = Event::new(
                StampedEvent::new_unchecked(
                    EventId::new(t(9), EventIndex::new(i as u32 + 1)),
                    VectorClock::from_entries(vec![0]),
                ),
                EventKind::Unary,
                "a",
                "",
                None,
            );
            guard.admit(&bad, &mut out);
        }
        assert_eq!(
            guard.stats().quarantined_trace_range,
            (MAX_FAULT_LOG + 50) as u64
        );
        assert_eq!(guard.take_faults().len(), MAX_FAULT_LOG);
        assert_eq!(guard.faults_dropped(), 50);
    }

    /// A seeded multi-trace execution with cross-trace messages, in
    /// arrival order — the workload the batch-equivalence sweeps run on.
    fn seeded_events(seed: u64, n_traces: u32, n_events: usize) -> Vec<Event> {
        let mut rng = ocep_rng::Rng::seed_from_u64(seed);
        let mut poet = PoetServer::new(n_traces as usize);
        let mut sends: Vec<(TraceId, EventId)> = Vec::new();
        for _ in 0..n_events {
            let tr = t(rng.gen_range(0..n_traces));
            match rng.gen_range(0..4u32) {
                0 => {
                    let s = poet.record(tr, EventKind::Send, "s", "");
                    sends.push((tr, s.id()));
                }
                1 if sends.iter().any(|(st, _)| *st != tr) => {
                    let candidates: Vec<EventId> = sends
                        .iter()
                        .filter(|(st, _)| *st != tr)
                        .map(|(_, id)| *id)
                        .collect();
                    let pick = *rng.choose(&candidates).unwrap();
                    poet.record_receive(tr, pick, "r", "");
                }
                _ => {
                    poet.record(tr, EventKind::Unary, "u", "");
                }
            }
        }
        poet.store().iter_arrival().cloned().collect()
    }

    /// Applies a pinned-seed transport fault plan: adjacent + windowed
    /// reorder, duplicated deliveries, and a sprinkling of malformed
    /// events (wrong clock width, out-of-range trace) that must be
    /// quarantined identically by both admission paths.
    fn apply_fault_plan(events: &[Event], rng: &mut ocep_rng::Rng) -> Vec<Event> {
        let mut stream: Vec<Event> = events.to_vec();
        // Windowed reorder: displace events a few slots back.
        let mut i = 0;
        while i + 1 < stream.len() {
            if rng.gen_bool(0.3) {
                let j = (i + rng.gen_range(1..4usize)).min(stream.len() - 1);
                stream.swap(i, j);
            }
            i += 1;
        }
        // Duplicates: re-deliver random earlier events.
        for _ in 0..events.len() / 5 {
            let src = rng.gen_range(0..stream.len());
            let dst = rng.gen_range(0..stream.len() + 1);
            let dup = stream[src].clone();
            stream.insert(dst, dup);
        }
        // Malformed arrivals that must be quarantined.
        for _ in 0..3 {
            let bad = Event::new(
                StampedEvent::new_unchecked(
                    EventId::new(t(rng.gen_range(90..99u32)), EventIndex::new(1)),
                    VectorClock::from_entries(vec![0]),
                ),
                EventKind::Unary,
                "bad",
                "",
                None,
            );
            let dst = rng.gen_range(0..stream.len() + 1);
            stream.insert(dst, bad);
        }
        stream
    }

    fn fault_key(f: &IngestFault) -> (IngestFaultKind, Option<EventId>, String) {
        (f.kind, f.event, f.detail.clone())
    }

    /// `admit_batch` must be observationally identical to per-event
    /// `admit`: same delivered events in the same order, same counters,
    /// same fault log — for every batch partition of the same stream,
    /// under reorder/duplicate/corruption fault plans, with and without
    /// overflow. This is the contract that lets the serve engine switch
    /// `EventBatch` frames to the batch path without perturbing the
    /// deterministic-simulation oracle.
    #[test]
    fn admit_batch_is_bit_identical_to_per_event_admit() {
        for seed in 0..12u64 {
            let events = seeded_events(0xBA7C_0000 + seed, 2 + (seed % 7) as u32, 80);
            let mut rng = ocep_rng::Rng::seed_from_u64(0xFA_0017 + seed);
            let stream = apply_fault_plan(&events, &mut rng);
            // Capacity 8 overflows on some plans; 1,024 never does.
            for capacity in [8, 1024] {
                let config = GuardConfig { capacity };
                let mut reference = AdmissionGuard::new(7, config);
                let mut ref_out = Vec::new();
                for e in &stream {
                    reference.admit(e, &mut ref_out);
                }
                for batch_size in [1usize, 7, 64, stream.len()] {
                    let mut batched = AdmissionGuard::new(7, config);
                    let mut out = Vec::new();
                    for chunk in stream.chunks(batch_size) {
                        batched.admit_batch(chunk, &mut out);
                    }
                    assert_eq!(
                        out, ref_out,
                        "delivery diverged (seed {seed}, capacity {capacity}, batch {batch_size})"
                    );
                    assert_eq!(
                        batched.stats(),
                        reference.stats(),
                        "stats diverged (seed {seed}, capacity {capacity}, batch {batch_size})"
                    );
                    assert_eq!(
                        batched.faults.iter().map(fault_key).collect::<Vec<_>>(),
                        reference.faults.iter().map(fault_key).collect::<Vec<_>>(),
                        "fault log diverged (seed {seed}, capacity {capacity}, batch {batch_size})"
                    );
                }
            }
        }
    }
}
