//! Monitoring several patterns over one event stream.

use crate::ingest::{AdmissionGuard, GuardConfig, IngestFault, IngestStats};
use crate::obs::{Metrics, ObsLevel};
use crate::stats::CounterBlock;
use crate::{Match, Monitor, MonitorConfig, MonitorStats};
use ocep_pattern::Pattern;
use ocep_poet::Event;

/// A set of independently configured monitors sharing one event stream —
/// how a deployment watches for deadlocks, races, and ordering bugs
/// simultaneously (each §V-C case study is one entry).
///
/// Each pattern keeps its own histories and representative subset;
/// `observe` fans the event out and returns the reports tagged with the
/// pattern's registered name.
///
/// # Example
///
/// ```
/// use ocep_core::MonitorSet;
/// use ocep_pattern::Pattern;
/// use ocep_poet::{EventKind, PoetServer};
/// use ocep_vclock::TraceId;
///
/// let mut set = MonitorSet::new(2);
/// set.add(
///     "greens",
///     Pattern::parse("G1 := [*, green, *]; G2 := [*, green, *]; pattern := G1 || G2;")
///         .unwrap(),
/// );
/// set.add(
///     "handoff",
///     Pattern::parse("R := [*, red, *]; G := [*, green, *]; pattern := R -> G;").unwrap(),
/// );
///
/// let mut poet = PoetServer::new(2);
/// poet.record(TraceId::new(0), EventKind::Unary, "green", "");
/// poet.record(TraceId::new(1), EventKind::Unary, "green", "");
/// let mut names = Vec::new();
/// for e in poet.linearization() {
///     for (name, _m) in set.observe(&e) {
///         names.push(name);
///     }
/// }
/// assert_eq!(names, vec!["greens"]);
/// ```
#[derive(Debug, Default)]
pub struct MonitorSet {
    n_traces: usize,
    entries: Vec<(String, Monitor)>,
    /// The causal [`AdmissionGuard`] in front of the whole set (see
    /// [`MonitorSet::observe_raw`]): the one place a raw arrival is
    /// validated, deduplicated and reordered, however many patterns
    /// watch the stream.
    guard: Option<AdmissionGuard>,
    /// Reused output buffer for set-level guard deliveries.
    admit_buf: Vec<Event>,
}

impl MonitorSet {
    /// Creates an empty set for a computation with `n_traces` traces.
    #[must_use]
    pub fn new(n_traces: usize) -> Self {
        MonitorSet {
            n_traces,
            entries: Vec::new(),
            guard: None,
            admit_buf: Vec::new(),
        }
    }

    /// Puts a shared causal [`AdmissionGuard`] in front of the whole set.
    /// Raw arrivals fed to [`MonitorSet::observe_raw`] are validated,
    /// deduplicated, and causally reordered once, and every delivered
    /// event fans out to all registered monitors. Replaces any previous
    /// set-level guard (counters reset).
    pub fn enable_guard(&mut self, config: GuardConfig) {
        self.guard = Some(AdmissionGuard::new(self.n_traces, config));
    }

    /// Registers `pattern` under `name` with the default configuration.
    pub fn add(&mut self, name: impl Into<String>, pattern: Pattern) {
        self.add_with_config(name, pattern, MonitorConfig::default());
    }

    /// Registers `pattern` under `name` with an explicit configuration.
    pub fn add_with_config(
        &mut self,
        name: impl Into<String>,
        pattern: Pattern,
        config: MonitorConfig,
    ) {
        let monitor = Monitor::with_config(pattern, self.n_traces, config);
        self.insert_monitor(name, monitor);
    }

    /// Observes one event on every registered monitor; returns the newly
    /// reported matches tagged with their pattern's name.
    pub fn observe(&mut self, event: &Event) -> Vec<(String, Match)> {
        let mut out = Vec::new();
        self.observe_into(event, &mut out);
        out
    }

    fn observe_into(&mut self, event: &Event, out: &mut Vec<(String, Match)>) {
        for (name, monitor) in &mut self.entries {
            for m in monitor.observe(event) {
                out.push((name.clone(), m));
            }
        }
    }

    /// Runs `admit` against the set-level guard and fans every event it
    /// released out to the monitors. The guard is checked out and the
    /// delivery buffer swapped once per call.
    fn observe_admitted(
        &mut self,
        admit: impl FnOnce(&mut AdmissionGuard, &mut Vec<Event>),
    ) -> Vec<(String, Match)> {
        let mut out = Vec::new();
        let Some(mut guard) = self.guard.take() else {
            return out;
        };
        let mut deliverable = std::mem::take(&mut self.admit_buf);
        admit(&mut guard, &mut deliverable);
        self.guard = Some(guard);
        for e in &deliverable {
            self.observe_into(e, &mut out);
        }
        deliverable.clear();
        self.admit_buf = deliverable;
        out
    }

    /// Observes one **raw** arrival — the entry point for untrusted
    /// transports. With a set-level guard
    /// ([`MonitorSet::enable_guard`]) the arrival is validated,
    /// deduplicated, and causally ordered first; one raw arrival may
    /// yield zero deliveries (buffered, duplicate, or quarantined —
    /// never a panic) or several (it unblocked buffered successors).
    /// Without a guard this is exactly [`MonitorSet::observe`].
    pub fn observe_raw(&mut self, event: &Event) -> Vec<(String, Match)> {
        self.observe_raw_batch(std::slice::from_ref(event))
    }

    /// Observes a whole batch of **raw** arrivals — the per-frame entry
    /// point for batched transports. Equivalent to calling
    /// [`MonitorSet::observe_raw`] once per event (verdicts, guard
    /// counters, and fault log are bit-identical, in the same order),
    /// but the guard is checked out and the delivery buffer swapped
    /// once per batch instead of once per event, and the batch is
    /// admitted through [`AdmissionGuard::admit_batch`].
    pub fn observe_raw_batch(&mut self, events: &[Event]) -> Vec<(String, Match)> {
        if self.guard.is_none() {
            let mut out = Vec::new();
            for e in events {
                self.observe_into(e, &mut out);
            }
            return out;
        }
        self.observe_admitted(|guard, out| guard.admit_batch(events, out))
    }

    /// Abandons causal order for events still waiting in the set-level
    /// guard's reorder buffer: delivers them to every monitor sorted by
    /// `(trace, index)` and marks the run degraded. Call at end of
    /// stream (or before a checkpoint). A no-op without a set-level
    /// guard or with an empty buffer.
    pub fn flush_guard(&mut self) -> Vec<(String, Match)> {
        self.observe_admitted(AdmissionGuard::flush)
    }

    /// The guard's ingestion counters (all zero when no guard is
    /// enabled).
    #[must_use]
    pub fn ingest_stats(&self) -> IngestStats {
        self.guard.as_ref().map(|g| *g.stats()).unwrap_or_default()
    }

    /// The set-level guard, when one is enabled.
    #[must_use]
    pub fn guard(&self) -> Option<&AdmissionGuard> {
        self.guard.as_ref()
    }

    /// Drains the set-level guard's structured fault stream (empty
    /// without a guard).
    pub fn take_ingest_faults(&mut self) -> Vec<IngestFault> {
        self.guard
            .as_mut()
            .map(AdmissionGuard::take_faults)
            .unwrap_or_default()
    }

    /// True when the set-level guard lost or reordered information
    /// (quarantines, overflow drops, or degraded flushes).
    #[must_use]
    pub fn ingest_degraded(&self) -> bool {
        self.guard.as_ref().is_some_and(|g| g.stats().is_degraded())
    }

    /// Number of traces in the monitored computation.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.n_traces
    }

    /// Installs an already-populated guard: the restore path of
    /// [`crate::checkpoint::load_set_at`], and where a caller puts the
    /// guard [`crate::checkpoint::load_at`] hands back from a checkpoint
    /// written when a `Monitor` could own one.
    pub fn install_guard(&mut self, guard: AdmissionGuard) {
        self.guard = Some(guard);
    }

    /// Removes the monitor registered under `name`, returning true when
    /// one was removed. Remaining monitors keep their relative order
    /// (and with it the set's verdict order).
    pub fn remove(&mut self, name: &str) -> bool {
        match self.entries.iter().position(|(n, _)| n == name) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// The monitor registered under `name`.
    #[must_use]
    pub fn monitor(&self, name: &str) -> Option<&Monitor> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Iterates over `(name, monitor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Monitor)> {
        self.entries.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Number of registered patterns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no patterns are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sums the work counters over all registered monitors.
    #[must_use]
    pub fn total_stats(&self) -> MonitorStats {
        let mut total = MonitorStats::default();
        for (_, m) in &self.entries {
            total.absorb(m.stats());
        }
        total
    }

    /// Aggregates every monitor's [`Monitor::metrics`] snapshot into one
    /// (counters and gauges sum, histograms merge; recent arrivals
    /// concatenate, bounded), with the guard's `ocep_ingest_*` families
    /// when the set has a guard.
    #[must_use]
    pub fn metrics(&self) -> crate::MetricsSnapshot {
        let mut total = crate::MetricsSnapshot::default();
        if !self.entries.is_empty() {
            total.record(&self.total_stats());
        }
        // Admission is the set's stage: the guard's `ocep_ingest_*`
        // families follow the monitor counters.
        if let Some(g) = &self.guard {
            total.record(g.stats());
        }
        for (_, m) in &self.entries {
            let mut s = crate::MetricsSnapshot::default();
            m.record_state(&mut s);
            total.absorb(&s);
        }
        total
    }

    /// Gives every monitor that collects nothing an empty
    /// [`ObsLevel::Full`] registry, so a set restored from an
    /// obs-off checkpoint can export full metrics: counters carry over,
    /// timers and search introspection start here.
    pub fn enable_obs(&mut self) {
        for (_, m) in &mut self.entries {
            if m.obs_metrics().is_none() {
                m.set_obs_metrics(Some(Box::new(Metrics::new(ObsLevel::Full))));
            }
        }
    }

    /// Installs an already-built monitor under `name`, preserving its
    /// accumulated state — the restore path of
    /// [`crate::checkpoint::load_set_at`].
    pub fn insert_monitor(&mut self, name: impl Into<String>, monitor: Monitor) {
        self.entries.push((name.into(), monitor));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_poet::{EventKind, PoetServer};
    use ocep_vclock::TraceId;

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    fn feed(set: &mut MonitorSet, poet: &mut PoetServer) -> Vec<(String, Match)> {
        poet.linearization().flat_map(|e| set.observe(&e)).collect()
    }

    #[test]
    fn patterns_fire_independently() {
        let mut set = MonitorSet::new(2);
        set.add(
            "hb",
            Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap(),
        );
        set.add(
            "conc",
            Pattern::parse("X := [*, a, *]; Y := [*, b, *]; pattern := X || Y;").unwrap(),
        );
        let mut poet = PoetServer::new(2);
        // a on T0 and b on T1, concurrent: only "conc" matches.
        poet.record(t(0), EventKind::Unary, "a", "");
        poet.record(t(1), EventKind::Unary, "b", "");
        let reports = feed(&mut set, &mut poet);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, "conc");
        // Now an ordered pair: only "hb" (the conc cell is new per leaf
        // trace, so check names precisely).
        let s = poet.record(t(0), EventKind::Send, "a", "");
        poet.record_receive(t(1), s.id(), "link", "");
        poet.record(t(1), EventKind::Unary, "b", "");
        let reports = feed(&mut set, &mut poet);
        assert!(reports.iter().any(|(n, _)| n == "hb"));
    }

    #[test]
    fn observe_raw_without_guard_is_observe() {
        let mut set = MonitorSet::new(1);
        set.add(
            "one",
            Pattern::parse("A := [*, a, *]; pattern := A;").unwrap(),
        );
        let mut poet = PoetServer::new(1);
        poet.record(t(0), EventKind::Unary, "a", "");
        let reports: Vec<_> = poet
            .linearization()
            .flat_map(|e| set.observe_raw(&e))
            .collect();
        assert_eq!(reports.len(), 1);
        assert_eq!(set.ingest_stats(), IngestStats::default());
        assert!(!set.ingest_degraded());
    }

    #[test]
    fn set_guard_reorders_once_for_all_monitors() {
        let mut set = MonitorSet::new(2);
        set.add(
            "hb",
            Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap(),
        );
        set.add(
            "conc",
            Pattern::parse("X := [*, a, *]; Y := [*, c, *]; pattern := X || Y;").unwrap(),
        );
        set.enable_guard(GuardConfig::default());
        let mut poet = PoetServer::new(2);
        let s = poet.record(t(0), EventKind::Send, "a", "");
        poet.record_receive(t(1), s.id(), "b", "");
        poet.record(t(1), EventKind::Unary, "c", "");
        let events: Vec<Event> = poet.linearization().collect();
        // Deliver the receive before its send plus a duplicate: the
        // guard must repair both, and each monitor sees the clean order.
        let mut reports = Vec::new();
        for e in [&events[1], &events[0], &events[0], &events[2]] {
            reports.extend(set.observe_raw(e));
        }
        assert!(reports.iter().any(|(n, _)| n == "hb"), "{reports:?}");
        let stats = set.ingest_stats();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.duplicates_dropped, 1);
        assert_eq!(stats.reordered_delivered, 1);
        assert!(!set.ingest_degraded());
        // Every monitor observed all three deliveries exactly once.
        for (_, m) in set.iter() {
            assert_eq!(m.stats().events, 3);
        }
    }

    #[test]
    fn set_guard_flush_and_fault_accounting() {
        let mut set = MonitorSet::new(2);
        set.add(
            "one",
            Pattern::parse("A := [*, a, *]; pattern := A;").unwrap(),
        );
        set.enable_guard(GuardConfig::default());
        let mut poet = PoetServer::new(2);
        poet.record(t(0), EventKind::Unary, "x", "");
        poet.record(t(0), EventKind::Unary, "a", "");
        let events: Vec<Event> = poet.linearization().collect();
        // Only the second event arrives: it stays buffered until the
        // explicit flush abandons causal order.
        assert!(set.observe_raw(&events[1]).is_empty());
        assert_eq!(set.ingest_stats().buffered, 1);
        let flushed = set.flush_guard();
        assert_eq!(flushed.len(), 1);
        assert!(set.ingest_degraded());
        assert_eq!(set.ingest_stats().degraded_flushes, 1);
        // The set-level counters surface in the aggregated metrics.
        let snap = set.metrics();
        assert_eq!(
            snap.value("ocep_ingest_degraded_flushes_total"),
            Some(1),
            "set-level guard counters must export"
        );
        assert!(set.take_ingest_faults().is_empty());
    }

    /// `observe_raw_batch` must yield exactly the concatenation of
    /// per-event `observe_raw` results — same verdicts in the same
    /// order, same guard counters, same per-monitor stats — with and
    /// without a set-level guard.
    #[test]
    fn observe_raw_batch_matches_per_event_observe_raw() {
        let build = |guard: bool| {
            let mut set = MonitorSet::new(2);
            set.add(
                "hb",
                Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap(),
            );
            set.add(
                "conc",
                Pattern::parse("X := [*, a, *]; Y := [*, c, *]; pattern := X || Y;").unwrap(),
            );
            if guard {
                set.enable_guard(GuardConfig::default());
            }
            set
        };
        let mut poet = PoetServer::new(2);
        let s = poet.record(t(0), EventKind::Send, "a", "");
        poet.record_receive(t(1), s.id(), "b", "");
        poet.record(t(1), EventKind::Unary, "c", "");
        let events: Vec<Event> = poet.linearization().collect();
        // Receive before send, a duplicate, then the tail — the guard
        // repairs it; without a guard both paths just fan out as-is.
        let stream = [
            events[1].clone(),
            events[0].clone(),
            events[0].clone(),
            events[2].clone(),
        ];
        for guard in [true, false] {
            let mut per_event = build(guard);
            let mut reference = Vec::new();
            for e in &stream {
                reference.extend(per_event.observe_raw(e));
            }
            let mut batched = build(guard);
            let got = batched.observe_raw_batch(&stream);
            let names =
                |v: &[(String, Match)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
            assert_eq!(names(&got), names(&reference), "guard={guard}");
            assert_eq!(batched.ingest_stats(), per_event.ingest_stats());
            for ((_, a), (_, b)) in batched.iter().zip(per_event.iter()) {
                assert_eq!(a.stats().events, b.stats().events);
            }
        }
    }

    #[test]
    fn remove_unregisters_a_monitor_and_keeps_order() {
        let mut set = MonitorSet::new(1);
        for name in ["a", "b", "c"] {
            set.add(
                name,
                Pattern::parse("A := [*, a, *]; pattern := A;").unwrap(),
            );
        }
        assert!(set.remove("b"));
        assert!(!set.remove("b"), "second remove finds nothing");
        assert_eq!(
            set.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            vec!["a", "c"]
        );
        let mut poet = PoetServer::new(1);
        poet.record(t(0), EventKind::Unary, "a", "");
        let names: Vec<String> = feed(&mut set, &mut poet)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn accessors_and_stats() {
        let mut set = MonitorSet::new(1);
        assert!(set.is_empty());
        set.add(
            "one",
            Pattern::parse("A := [*, a, *]; pattern := A;").unwrap(),
        );
        assert_eq!(set.len(), 1);
        assert!(set.monitor("one").is_some());
        assert!(set.monitor("two").is_none());
        let mut poet = PoetServer::new(1);
        poet.record(t(0), EventKind::Unary, "a", "");
        let _ = feed(&mut set, &mut poet);
        assert_eq!(set.total_stats().events, 1);
        assert_eq!(set.iter().count(), 1);
    }
}
