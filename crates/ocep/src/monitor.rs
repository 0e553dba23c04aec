//! The public monitor facade.

use crate::history::LeafHistory;
use crate::matching::Match;
use crate::obs::{ArrivalRecord, Metrics, MetricsSnapshot, ObsLevel, Stage};
use crate::search::{Search, SearchScratch};
use crate::stats::{CounterBlock, MonitorStats};
use ocep_pattern::Pattern;
use ocep_poet::Event;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds elapsed since `t0`, saturating.
fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One in this many arrivals takes the wall-clock timers (arrival +
/// per-stage). An `Instant` read serializes the pipeline, so timing
/// every stage boundary of every arrival costs more than most of the
/// stages it measures; deterministic sampling keeps the medians honest
/// at a sixteenth of that cost. Counters and search introspection stay
/// exact on every arrival.
pub const OBS_TIMING_SAMPLE: u64 = 16;

/// Which matches a [`Monitor`] reports to its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubsetPolicy {
    /// §IV-B representative subset: a match is reported only when it
    /// covers a `(leaf, trace)` cell no previously reported match
    /// covered, bounding total reports by `k·n`. The maintained subset is
    /// always refreshed to the most recent match per cell.
    #[default]
    Representative,
    /// Every match found by a per-arrival search is reported (still at
    /// most one per `(level, trace)` cell per arrival, and duplicates by
    /// event set are suppressed). Storage stays bounded; only the report
    /// volume grows. Useful when each violation occurrence must alert.
    PerArrival,
}

/// Tuning knobs for a [`Monitor`].
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Enable the §VI O(1) history deduplication (default `true`;
    /// disable only for the ablation study).
    pub dedup: bool,
    /// Reporting policy (default [`SubsetPolicy::Representative`]).
    pub policy: SubsetPolicy,
    /// Observability level (default [`ObsLevel::Off`]). `Off` takes no
    /// timers and allocates nothing; see [`crate::obs`]. Observation
    /// never changes matching behaviour — the metrics-transparency suite
    /// pins verdict/subset/checkpoint equality between `Off` and `Full`.
    pub obs: ObsLevel,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            dedup: true,
            policy: SubsetPolicy::default(),
            obs: ObsLevel::Off,
        }
    }
}

/// The OCEP online monitor: feed it a pattern and the event stream of a
/// computation (in linearization order); it reports a representative
/// subset of pattern matches as they complete (§IV).
///
/// The linearization is the caller's promise (§V-A). A stream that may
/// arrive duplicated, reordered or damaged goes through a
/// [`MonitorSet`](crate::MonitorSet) with
/// [`enable_guard`](crate::MonitorSet::enable_guard) — of one pattern if
/// need be — which admits each event once in front of every monitor.
///
/// See the [crate documentation](crate) for the algorithm and an example.
#[derive(Debug)]
pub struct Monitor {
    pub(crate) pattern: Arc<Pattern>,
    pub(crate) history: LeafHistory,
    n_traces: usize,
    config: MonitorConfig,
    /// `subset[leaf][trace]` — the most recent reported-or-found match
    /// whose `leaf` event is on `trace` (the §IV-B representative subset,
    /// at most `k·n` entries).
    pub(crate) subset: Vec<Vec<Option<Match>>>,
    pub(crate) stats: MonitorStats,
    /// Working buffers for the searches, reused across arrivals.
    scratch: SearchScratch,
    /// Live metrics registry; `None` when [`MonitorConfig::obs`] is
    /// `Off` so the disabled path costs one pointer-null check.
    pub(crate) obs: Option<Box<Metrics>>,
}

impl Monitor {
    /// Creates a monitor for `pattern` over a computation with
    /// `n_traces` traces, with the default configuration.
    #[must_use]
    pub fn new(pattern: Pattern, n_traces: usize) -> Self {
        Monitor::with_config(pattern, n_traces, MonitorConfig::default())
    }

    /// Creates a monitor with an explicit [`MonitorConfig`].
    #[must_use]
    pub fn with_config(pattern: Pattern, n_traces: usize, config: MonitorConfig) -> Self {
        let pattern = Arc::new(pattern);
        let k = pattern.n_leaves();
        Monitor {
            history: LeafHistory::new(&pattern, n_traces, config.dedup),
            subset: vec![vec![None; n_traces]; k],
            pattern,
            n_traces,
            config,
            stats: MonitorStats::default(),
            scratch: SearchScratch::default(),
            obs: config
                .obs
                .enabled()
                .then(|| Box::new(Metrics::new(config.obs))),
        }
    }

    /// Observes the next event of the linearization and returns the
    /// newly reported matches.
    ///
    /// Non-matching events cost one routing pass; events suppressed by
    /// the §VI dedup rule cost O(1); only terminating events (§V-B)
    /// trigger the backtracking search.
    pub fn observe(&mut self, event: &Event) -> Vec<Match> {
        self.stats.events += 1;
        // `stats.events % OBS_TIMING_SAMPLE` is now fixed for the whole
        // arrival: every stage_timing() call below agrees on whether
        // this arrival is in the timing sample.
        if self.obs.is_none() {
            return self.observe_arrival(event);
        }
        // Observability wrapper: snapshot the counters, time the whole
        // arrival, then file a post-mortem record from the deltas. The
        // matching path below is byte-identical to the Off path.
        let before = self.stats;
        let timing = self.stage_timing();
        let t0 = timing.then(Instant::now);
        let reported = self.observe_arrival(event);
        let total_ns = t0.map_or(0, ns_since);
        let stats = &self.stats;
        let rec = ArrivalRecord {
            seq: stats.events,
            event: String::new(),
            stored: stats.stored > before.stored,
            searches: stats.searches - before.searches,
            matches_found: stats.matches_found - before.matches_found,
            matches_reported: stats.matches_reported - before.matches_reported,
            nodes: stats.nodes - before.nodes,
            total_ns,
        };
        if let Some(m) = self.obs.as_deref_mut() {
            if timing {
                m.record_arrival(total_ns);
            }
            // The event text renders straight into the ring's reused
            // slot buffer — the per-arrival record never allocates once
            // the ring is warm.
            m.push_record_with(
                rec,
                format_args!(
                    "{}@{}:{}",
                    event.text(),
                    event.trace().as_usize(),
                    event.index().get()
                ),
            );
        }
        reported
    }

    /// Whether the current arrival takes wall-clock timers. Observability
    /// times one in [`OBS_TIMING_SAMPLE`] arrivals, deterministically
    /// keyed on the exact arrival counter (which [`Monitor::observe`]
    /// bumps first, so the very first arrival is always in the sample).
    /// Everything that is not a timer — counters, the arrival ring,
    /// search introspection — ignores this gate.
    fn stage_timing(&self) -> bool {
        self.stats.events % OBS_TIMING_SAMPLE == 1 && self.obs.is_some()
    }

    /// The matcher proper, shared by the instrumented and plain variants
    /// of [`Monitor::observe`].
    fn observe_arrival(&mut self, event: &Event) -> Vec<Match> {
        let timing = self.stage_timing();
        let tr = timing.then(Instant::now);
        let stored = self.history.observe(&self.pattern, event);
        if let (Some(tr), Some(m)) = (tr, self.obs.as_deref_mut()) {
            m.record_stage(Stage::RouteDedup, ns_since(tr));
        }
        if !stored {
            return Vec::new();
        }
        self.stats.stored += 1;

        let mut reported = Vec::new();
        let mut seen_this_arrival: HashSet<Vec<ocep_vclock::EventId>> = HashSet::new();
        let pattern = Arc::clone(&self.pattern);
        for &tl in pattern.terminating_leaves() {
            if !pattern.leaves()[tl.as_usize()].matches_shape(event) {
                continue;
            }
            self.stats.searches += 1;
            let ts = timing.then(Instant::now);
            let (matches, counters) = Search::new(
                &self.pattern,
                &self.history,
                self.n_traces,
                tl,
                &mut self.scratch,
                self.obs.as_deref_mut().map(|m| &mut m.search),
            )
            .run(event);
            if let (Some(ts), Some(m)) = (ts, self.obs.as_deref_mut()) {
                m.record_stage(Stage::Search, ns_since(ts));
            }
            self.stats.absorb(&counters);
            self.stats.matches_found += matches.len() as u64;

            let tm = timing.then(Instant::now);
            for m in matches {
                // Suppress event-set duplicates within one arrival (two
                // seeded searches can find the same match with leaves
                // permuted).
                let mut ids: Vec<_> = m.events().iter().map(Event::id).collect();
                ids.sort_unstable();
                if !seen_this_arrival.insert(ids) {
                    continue;
                }

                let mut new_cell = false;
                for (leaf, e) in pattern.leaves().iter().zip(m.events()) {
                    let cell = &mut self.subset[leaf.id().as_usize()][e.trace().as_usize()];
                    if cell.is_none() {
                        new_cell = true;
                    }
                    *cell = Some(m.clone());
                }
                let report = match self.config.policy {
                    SubsetPolicy::Representative => new_cell,
                    SubsetPolicy::PerArrival => true,
                };
                if report {
                    self.stats.matches_reported += 1;
                    reported.push(m);
                }
            }
            if let (Some(tm), Some(m)) = (tm, self.obs.as_deref_mut()) {
                m.record_stage(Stage::SubsetMerge, ns_since(tm));
            }
        }
        reported
    }

    /// The current representative subset: for each `(leaf, trace)` cell
    /// with at least one known match, the most recent such match. Matches
    /// covering several cells appear once.
    #[must_use]
    pub fn subset(&self) -> Vec<&Match> {
        let mut out: Vec<&Match> = Vec::new();
        let mut seen: HashSet<Vec<ocep_vclock::EventId>> = HashSet::new();
        for per_trace in &self.subset {
            for m in per_trace.iter().flatten() {
                // Leaf-wise ids: `same_events` equality, as a hashable key.
                let ids: Vec<_> = m.events().iter().map(Event::id).collect();
                if seen.insert(ids) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// True if some reported match has `leaf_name`'s event on trace `t` —
    /// the §IV-B coverage criterion.
    #[must_use]
    pub fn covers(&self, leaf_name: &str, t: ocep_vclock::TraceId) -> bool {
        self.pattern
            .leaves()
            .iter()
            .filter(|l| l.display_name() == leaf_name || l.class_name() == leaf_name)
            .any(|l| self.subset[l.id().as_usize()][t.as_usize()].is_some())
    }

    /// Number of traces in the monitored computation.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.n_traces
    }

    /// The compiled pattern being monitored.
    #[must_use]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Cumulative work counters.
    #[must_use]
    pub fn stats(&self) -> &MonitorStats {
        &self.stats
    }

    /// The live metrics registry, when [`MonitorConfig::obs`] is not
    /// `Off`. Checkpointing serializes this; tests introspect it.
    #[must_use]
    pub fn obs_metrics(&self) -> Option<&Metrics> {
        self.obs.as_deref()
    }

    /// Replaces the live metrics registry (checkpoint restore). Also
    /// aligns [`MonitorConfig::obs`] with the registry's level so a
    /// restored monitor keeps collecting consistently.
    pub(crate) fn set_obs_metrics(&mut self, metrics: Option<Box<Metrics>>) {
        self.config.obs = metrics.as_ref().map_or(ObsLevel::Off, |m| m.level());
        self.obs = metrics;
    }

    /// An exportable snapshot of everything this monitor knows about its
    /// own behaviour: the [`MonitorStats`] counters, history gauges,
    /// process-wide clock-op counters (when
    /// [`ocep_vclock::ops::enable`]d), and — when [`MonitorConfig::obs`]
    /// is not `Off` — stage/arrival latency histograms, search
    /// introspection, and the recent-arrival ring.
    ///
    /// See `docs/OBSERVABILITY.md` for the metric catalog.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.record(&self.stats);
        self.record_state(&mut s);
        s
    }

    /// Files everything [`Monitor::metrics`] does after the counters.
    pub(crate) fn record_state(&self, s: &mut MetricsSnapshot) {
        s.gauge(
            "ocep_history_events",
            "Events currently stored across all leaf histories (§VI).",
            self.history_size() as u64,
        );
        s.counter(
            "ocep_history_suppressed_total",
            "Arrivals suppressed by the §VI dedup rule.",
            self.suppressed() as u64,
        );
        s.gauge(
            "ocep_history_bytes",
            "Approximate history memory in bytes.",
            self.history_bytes() as u64,
        );

        if ocep_vclock::ops::enabled() {
            let ops = ocep_vclock::ops::snapshot();
            let n = "ocep_vclock_ops_total";
            let h = "Process-wide vector-clock operations (not per-monitor).";
            s.counter_with(n, h, &[("op", "tick")], ops.ticks);
            s.counter_with(n, h, &[("op", "join")], ops.joins);
            s.counter_with(n, h, &[("op", "comparison")], ops.comparisons);
            s.counter_with(n, h, &[("op", "pool_hit")], ops.pool_hits);
            s.counter_with(n, h, &[("op", "pool_miss")], ops.pool_misses);
        }

        if let Some(m) = &self.obs {
            for stage in Stage::ALL {
                s.histogram_with(
                    "ocep_stage_ns",
                    "Per-stage pipeline latency (ns), 1-in-16 sampled arrivals.",
                    &[("stage", stage.name())],
                    m.stage_hist(stage),
                );
            }
            s.histogram(
                "ocep_arrival_ns",
                "End-to-end arrival latency (ns), 1-in-16 sampled arrivals.",
                m.arrival_hist(),
            );
            let so = m.search_obs();
            for (level, h) in so.domain_width.iter().enumerate() {
                if h.is_empty() {
                    continue;
                }
                let label = if level == crate::obs::MAX_TRACKED_LEVELS - 1 {
                    format!("{level}+")
                } else {
                    level.to_string()
                };
                s.histogram_with(
                    "ocep_search_domain_width",
                    "Live Fig-4 domain widths per evaluation level.",
                    &[("level", &label)],
                    h,
                );
            }
            s.histogram(
                "ocep_search_backjump_depth",
                "Levels conflict-directed backjumps landed on.",
                &so.backjump_depth,
            );
            s.histogram(
                "ocep_search_conflict_size",
                "Conflict-set sizes (popcount) of exhausted subtrees.",
                &so.conflict_size,
            );
            let pr = "ocep_search_prunes_total";
            let pr_help = "Domains emptied by Fig-4 restriction, by cause.";
            s.counter_with(pr, pr_help, &[("kind", "gp_ls")], so.prune_gp_ls);
            s.counter_with(pr, pr_help, &[("kind", "intersect")], so.prune_intersect);
            s.recent = m.recent().records();
        }
    }

    /// Number of events currently stored across all leaf histories (the
    /// §VI bounded-storage metric).
    #[must_use]
    pub fn history_size(&self) -> usize {
        self.history.stored()
    }

    /// Arrivals suppressed by the §VI dedup rule.
    #[must_use]
    pub fn suppressed(&self) -> usize {
        self.history.suppressed()
    }

    /// Approximate history memory in bytes (the §VI bounded-storage
    /// metric).
    #[must_use]
    pub fn history_bytes(&self) -> usize {
        self.history.approx_bytes()
    }

    /// A shared handle to the compiled pattern — used by the serving
    /// layer's recovery path to rebuild [`Match`]es from logged bytes.
    #[must_use]
    pub fn pattern_arc(&self) -> Arc<ocep_pattern::Pattern> {
        Arc::clone(&self.pattern)
    }

    /// The monitor's configuration.
    #[must_use]
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }
}
