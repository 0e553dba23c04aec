//! Observability: per-stage pipeline timing, search introspection, and
//! metric export.
//!
//! The paper's efficiency argument (§V–§VI) rests on GP/LS pruning,
//! conflict-directed backjumping, and O(1) dedup keeping online matching
//! cheap. This module makes those claims *observable*: a std-only metrics
//! registry threaded through the monitor pipeline that answers "where did
//! this arrival's time go" and "why was this search cheap or expensive".
//!
//! # Design
//!
//! * [`ObsLevel`] is one switch per monitor ([`crate::MonitorConfig::obs`]).
//!   `Off` is the default and is zero-cost: every instrumentation site is
//!   a branch on an `Option` that is `None`, and no timer is ever taken.
//!   `Full` keeps exact counters and exact search introspection; only the
//!   wall-clock timers are sampled.
//! * [`Histogram`] is a fixed-bucket log2 latency histogram: lock-free to
//!   record into (plain `u64`s, one owner), mergeable across monitors, and
//!   cheap to serialize.
//! * [`Metrics`] is the live per-monitor registry: one histogram per
//!   pipeline [`Stage`], an end-to-end arrival histogram, the accumulated
//!   [`SearchObs`] introspection, and a bounded ring of recent
//!   [`ArrivalRecord`]s for post-mortem debugging.
//! * [`MetricsSnapshot`] is the export model: a flat list of metric
//!   families rendered to Prometheus text ([`MetricsSnapshot::to_prometheus`])
//!   or to JSON ([`MetricsSnapshot::to_json`]). Snapshots from several
//!   monitors [`MetricsSnapshot::absorb`] into one aggregate.
//!
//! Pipeline stage taxonomy (per arrival): route/dedup → backtracking
//! search → subset merge. See `docs/OBSERVABILITY.md` for the full
//! metric catalog.

use crate::json::Json;
use crate::stats::CounterBlock;
use std::fmt::Write as _;

/// How much observability a monitor collects.
///
/// The level is part of [`crate::MonitorConfig`] and must never change
/// matching behaviour — the metrics-transparency suite pins this by
/// running every conformance case at `Off` and `Full` and demanding
/// bit-identical verdicts, subsets, and (metrics-stripped) checkpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ObsLevel {
    /// No collection at all. Instrumentation sites reduce to a branch on
    /// an empty `Option`; no timers are taken and no allocation happens.
    #[default]
    Off,
    /// Everything: search introspection (prune hits, backjump depths,
    /// domain widths, conflict sizes) on every search, per-stage and
    /// per-arrival latency histograms, and the recent-arrival ring
    /// buffer. Only the timers are sampled, on one in sixteen arrivals
    /// (deterministically, from the exact arrival counter), so reading
    /// the clock at every stage boundary doesn't dominate the stages it
    /// measures.
    Full,
}

impl ObsLevel {
    /// True when collection is on.
    #[must_use]
    pub fn enabled(self) -> bool {
        self != ObsLevel::Off
    }

    /// Parses a CLI-style level name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ObsLevel> {
        match name {
            "off" => Some(ObsLevel::Off),
            "full" => Some(ObsLevel::Full),
            _ => None,
        }
    }

    /// The CLI-style level name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Full => "full",
        }
    }

    /// Stable numeric code used by the checkpoint format.
    #[must_use]
    pub(crate) fn code(self) -> u8 {
        match self {
            ObsLevel::Off => 0,
            ObsLevel::Full => 2,
        }
    }

    /// Inverse of [`ObsLevel::code`].
    #[must_use]
    pub(crate) fn from_code(code: u8) -> Option<ObsLevel> {
        match code {
            0 => Some(ObsLevel::Off),
            2 => Some(ObsLevel::Full),
            _ => None,
        }
    }
}

impl std::fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of log2 buckets in a [`Histogram`].
///
/// Bucket 0 holds exact zeros; bucket `i` (for `1 <= i < BUCKETS-1`)
/// holds values in `[2^(i-1), 2^i)`; the top bucket saturates, holding
/// everything `>= 2^(BUCKETS-2)`. With 40 buckets the top edge is
/// `2^38` ≈ 275 s in nanoseconds — any sample beyond that is an outage,
/// not a latency.
pub const HIST_BUCKETS: usize = 40;

/// A fixed-bucket log2 histogram of `u64` samples.
///
/// Designed for latencies in nanoseconds but unit-agnostic (the search
/// introspection uses it for domain widths and backjump depths too).
/// Recording is branch-free apart from the bucket-index computation;
/// merging is element-wise addition, hence associative and commutative.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index for a value.
    #[must_use]
    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive lower edge of bucket `i`.
    #[must_use]
    pub fn lower_edge(i: usize) -> u64 {
        if i <= 1 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Exclusive upper edge of bucket `i`; `u64::MAX` for the saturated
    /// top bucket.
    #[must_use]
    pub fn upper_edge(i: usize) -> u64 {
        if i == 0 {
            1
        } else if i >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other` into `self` (element-wise; the merge
    /// is associative and commutative, so per-monitor histograms can be
    /// folded in any order).
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket counts (empty slice until the first sample).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bucket `[lower, upper)` containing the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`), or `None` when empty. The true quantile is
    /// guaranteed to lie within the returned edges; this is the precision
    /// the log2 bucketing affords (a factor-of-two band).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((Self::lower_edge(i), Self::upper_edge(i)));
            }
        }
        None
    }

    /// Mean of the recorded samples, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Rebuilds a histogram from serialized parts (checkpoint restore).
    pub(crate) fn from_raw(counts: Vec<u64>, sum: u64, max: u64) -> Histogram {
        let count = counts.iter().sum();
        Histogram {
            counts,
            count,
            sum,
            max,
        }
    }
}

/// A timed pipeline stage of one monitor's arrival path. One latency
/// histogram is kept per stage; the stages are disjoint. Admission runs
/// once in front of the monitors ([`crate::MonitorSet::observe_raw`]),
/// outside any one monitor's registry, so it is not a stage here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Leaf-history routing and §VI O(1) dedup (`LeafHistory::observe`).
    RouteDedup,
    /// The terminating-event-seeded backtracking search (Algs 1–3),
    /// Fig-4 domain construction and restriction included.
    Search,
    /// Representative-subset maintenance (§IV-B) and match reporting.
    SubsetMerge,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 3;
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [Stage::RouteDedup, Stage::Search, Stage::SubsetMerge];

    /// Stable label used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::RouteDedup => "route_dedup",
            Stage::Search => "search",
            Stage::SubsetMerge => "subset_merge",
        }
    }
}

/// Deepest evaluation-order level with its own domain-width histogram;
/// deeper levels share the last slot (labelled `"15+"`).
pub const MAX_TRACKED_LEVELS: usize = 16;

/// Search introspection accumulated across every search of a monitor:
/// the search records straight into its monitor's registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchObs {
    /// Live (post-restriction, non-empty) domain widths per evaluation
    /// level; levels `>= MAX_TRACKED_LEVELS-1` share the last histogram.
    pub domain_width: Vec<Histogram>,
    /// Distribution of the levels conflict-directed backjumps landed on.
    pub backjump_depth: Histogram,
    /// Popcount of the conflict set returned by exhausted subtrees.
    pub conflict_size: Histogram,
    /// Domains emptied by a single GP/LS restriction rule (Fig-4 prune).
    pub prune_gp_ls: u64,
    /// Domains emptied by intersecting individually non-empty
    /// restrictions.
    pub prune_intersect: u64,
}

impl SearchObs {
    /// Records a live domain's width at an evaluation level.
    pub fn record_domain_width(&mut self, level: usize, width: u64) {
        let slot = level.min(MAX_TRACKED_LEVELS - 1);
        if self.domain_width.len() <= slot {
            self.domain_width.resize(slot + 1, Histogram::new());
        }
        self.domain_width[slot].record(width);
    }
}

/// One arrival's post-mortem record, kept in a bounded ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalRecord {
    /// 1-based arrival sequence number (the monitor's `events` counter
    /// at the time of this arrival).
    pub seq: u64,
    /// Compact event rendering, `"text@trace:index"`.
    pub event: String,
    /// Whether any leaf history stored the event.
    pub stored: bool,
    /// Terminating-event searches this arrival triggered.
    pub searches: u64,
    /// Matches found (pre-dedup) by those searches.
    pub matches_found: u64,
    /// Matches reported to the caller.
    pub matches_reported: u64,
    /// Backtracking nodes explored.
    pub nodes: u64,
    /// End-to-end wall-clock nanoseconds for the arrival; 0 for arrivals
    /// outside the 1-in-16 timing sample.
    pub total_ns: u64,
}

/// Capacity of the recent-arrival ring buffer.
pub const RECENT_CAP: usize = 128;

/// Fixed-capacity overwriting ring of [`ArrivalRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct RecentRing {
    buf: Vec<ArrivalRecord>,
    next: usize,
}

impl RecentRing {
    /// Appends a record, evicting the oldest once full.
    pub fn push(&mut self, rec: ArrivalRecord) {
        if self.buf.len() < RECENT_CAP {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
        }
        self.next = (self.next + 1) % RECENT_CAP;
    }

    /// Appends a record whose `event` description is rendered lazily:
    /// the text is written into the evicted slot's string buffer, so a
    /// steady-state push allocates nothing. `rec.event` must arrive
    /// empty. This keeps the always-on (every arrival) ring cost off
    /// the allocator.
    pub fn push_with(&mut self, mut rec: ArrivalRecord, event: std::fmt::Arguments<'_>) {
        use std::fmt::Write as _;
        debug_assert!(rec.event.is_empty());
        if self.buf.len() < RECENT_CAP {
            let _ = write!(rec.event, "{event}");
            self.buf.push(rec);
        } else {
            let slot = &mut self.buf[self.next];
            rec.event = std::mem::take(&mut slot.event);
            rec.event.clear();
            let _ = write!(rec.event, "{event}");
            *slot = rec;
        }
        self.next = (self.next + 1) % RECENT_CAP;
    }

    /// Number of records currently held (≤ [`RECENT_CAP`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no record has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records in arrival order, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<ArrivalRecord> {
        if self.buf.len() < RECENT_CAP {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(RECENT_CAP);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }
}

impl PartialEq for RecentRing {
    fn eq(&self, other: &RecentRing) -> bool {
        // Rings are equal when they hold the same records in the same
        // arrival order, regardless of internal rotation (a restored
        // ring starts unrotated).
        self.records() == other.records()
    }
}

impl Eq for RecentRing {}

/// The live per-monitor metrics registry.
///
/// Owned by a [`crate::Monitor`] (boxed, only when
/// [`crate::MonitorConfig::obs`] is not `Off`) and updated single-threaded
/// from the arrival path; every search records its introspection into
/// [`Metrics::search_obs`] as it runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    pub(crate) level: ObsLevel,
    pub(crate) stage_ns: [Histogram; Stage::COUNT],
    pub(crate) arrival_ns: Histogram,
    pub(crate) search: SearchObs,
    pub(crate) recent: RecentRing,
}

impl Metrics {
    /// Creates an empty registry collecting at `level`.
    #[must_use]
    pub fn new(level: ObsLevel) -> Metrics {
        Metrics {
            level,
            ..Metrics::default()
        }
    }

    /// The collection level.
    #[must_use]
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Records a stage duration in nanoseconds.
    pub fn record_stage(&mut self, stage: Stage, ns: u64) {
        self.stage_ns[stage as usize].record(ns);
    }

    /// Records an end-to-end arrival duration in nanoseconds.
    pub fn record_arrival(&mut self, ns: u64) {
        self.arrival_ns.record(ns);
    }

    /// Appends an arrival record, rendering the event description into
    /// the ring's reused buffer (see [`RecentRing::push_with`]).
    pub fn push_record_with(&mut self, rec: ArrivalRecord, event: std::fmt::Arguments<'_>) {
        self.recent.push_with(rec, event);
    }

    /// The latency histogram of one stage.
    #[must_use]
    pub fn stage_hist(&self, stage: Stage) -> &Histogram {
        &self.stage_ns[stage as usize]
    }

    /// The end-to-end arrival latency histogram.
    #[must_use]
    pub fn arrival_hist(&self) -> &Histogram {
        &self.arrival_ns
    }

    /// The accumulated search introspection.
    #[must_use]
    pub fn search_obs(&self) -> &SearchObs {
        &self.search
    }

    /// The recent-arrival ring.
    #[must_use]
    pub fn recent(&self) -> &RecentRing {
        &self.recent
    }
}

/// Kind of a metric family, mirroring the Prometheus type taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` keyword.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A single exported value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter or gauge reading.
    Int(u64),
    /// Full bucketed distribution.
    Hist(Histogram),
}

/// One labelled sample of a metric family.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Label pairs, e.g. `[("stage", "search")]`; empty for unlabelled
    /// metrics.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// A named metric family with one or more labelled samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Metric name (Prometheus conventions: counters end in `_total`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Samples, one per distinct label set.
    pub samples: Vec<MetricSample>,
}

/// An exportable point-in-time view of one or more monitors' metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Metric families in catalog order.
    pub families: Vec<MetricFamily>,
    /// Recent arrivals (post-mortem ring contents), oldest first. Not
    /// part of the Prometheus export; included in JSON and `ocep stats`.
    pub recent: Vec<ArrivalRecord>,
}

impl MetricsSnapshot {
    fn family_mut(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut MetricFamily {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            return &mut self.families[i];
        }
        self.families.push(MetricFamily {
            name: name.to_owned(),
            help: help.to_owned(),
            kind,
            samples: Vec::new(),
        });
        self.families.last_mut().expect("just pushed")
    }

    fn push_sample(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: Vec<(String, String)>,
        value: MetricValue,
    ) {
        let fam = self.family_mut(name, help, kind);
        if let Some(s) = fam.samples.iter_mut().find(|s| s.labels == labels) {
            merge_value(&mut s.value, &value);
        } else {
            fam.samples.push(MetricSample { labels, value });
        }
    }

    /// Adds an unlabelled counter.
    pub fn counter(&mut self, name: &str, help: &str, v: u64) {
        self.push_sample(
            name,
            help,
            MetricKind::Counter,
            Vec::new(),
            MetricValue::Int(v),
        );
    }

    /// Adds a labelled counter sample.
    pub fn counter_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        self.push_sample(
            name,
            help,
            MetricKind::Counter,
            own_labels(labels),
            MetricValue::Int(v),
        );
    }

    /// Adds an unlabelled gauge.
    pub fn gauge(&mut self, name: &str, help: &str, v: u64) {
        self.push_sample(
            name,
            help,
            MetricKind::Gauge,
            Vec::new(),
            MetricValue::Int(v),
        );
    }

    /// Adds an unlabelled histogram.
    pub fn histogram(&mut self, name: &str, help: &str, h: &Histogram) {
        self.push_sample(
            name,
            help,
            MetricKind::Histogram,
            Vec::new(),
            MetricValue::Hist(h.clone()),
        );
    }

    /// Adds a labelled histogram sample.
    pub fn histogram_with(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &Histogram,
    ) {
        self.push_sample(
            name,
            help,
            MetricKind::Histogram,
            own_labels(labels),
            MetricValue::Hist(h.clone()),
        );
    }

    /// Files every counter of `block` as the sample its catalogue row
    /// names ([`crate::CounterBlock::CATALOGUE`]).
    /// [`crate::Monitor::metrics`] files its [`crate::MonitorStats`];
    /// [`crate::MonitorSet::metrics`] files their total and, when the set
    /// has a guard in front of [`crate::MonitorSet::observe_raw`], the
    /// guard's [`crate::IngestStats`].
    pub fn record<B: CounterBlock>(&mut self, block: &B) {
        for (row, v) in B::CATALOGUE.iter().zip(block.values()) {
            self.push_sample(
                row.family,
                row.help,
                row.kind,
                own_labels(row.labels),
                MetricValue::Int(v),
            );
        }
    }

    /// Merges another snapshot into this one: same-name families unify,
    /// same-label samples combine (counters/gauges add, histograms
    /// merge). Used to aggregate a [`crate::MonitorSet`] and to total the
    /// per-case snapshots of a fuzz run.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for fam in &other.families {
            for s in &fam.samples {
                self.push_sample(
                    &fam.name,
                    &fam.help,
                    fam.kind,
                    s.labels.clone(),
                    s.value.clone(),
                );
            }
        }
        self.recent.extend(other.recent.iter().cloned());
        if self.recent.len() > RECENT_CAP {
            let drop = self.recent.len() - RECENT_CAP;
            self.recent.drain(..drop);
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Histograms expand to cumulative `_bucket{le="..."}` series plus
    /// `_sum` and `_count`; every family gets exactly one `# HELP` and
    /// `# TYPE` line. Empty histogram buckets are elided (the cumulative
    /// counts stay correct). `le` is inclusive, as Prometheus defines it:
    /// a bucket's `le` is the largest integer it holds (`upper_edge - 1`,
    /// so the zeros bucket is `le="0"`), and the top bucket is `+Inf`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.name());
            for s in &fam.samples {
                match &s.value {
                    MetricValue::Int(v) => {
                        let _ = writeln!(out, "{}{} {}", fam.name, fmt_labels(&s.labels, None), v);
                    }
                    MetricValue::Hist(h) => {
                        let mut cum = 0u64;
                        for (i, c) in h.bucket_counts().iter().enumerate() {
                            cum += c;
                            if *c == 0 && i != HIST_BUCKETS - 1 {
                                continue;
                            }
                            let le = if i >= HIST_BUCKETS - 1 {
                                "+Inf".to_owned()
                            } else {
                                (Histogram::upper_edge(i) - 1).to_string()
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                fam.name,
                                fmt_labels(&s.labels, Some(&le)),
                                cum
                            );
                        }
                        if h.bucket_counts().is_empty() {
                            let _ = writeln!(
                                out,
                                "{}_bucket{} 0",
                                fam.name,
                                fmt_labels(&s.labels, Some("+Inf"))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            fam.name,
                            fmt_labels(&s.labels, None),
                            h.sum()
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            fam.name,
                            fmt_labels(&s.labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON document: a `families` array in
    /// catalog order (each with `name`, `help`, `kind`, and per-label-set
    /// `samples`) plus the `recent` arrival ring. Histogram buckets carry
    /// per-bucket (non-cumulative) counts with their exclusive upper edge;
    /// empty buckets are elided.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let families = self.families.iter().map(|fam| {
            let samples = fam.samples.iter().map(|sample| {
                let labels = Json::obj(
                    sample
                        .labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.clone()))),
                );
                let value = match &sample.value {
                    MetricValue::Int(v) => Json::from(*v),
                    MetricValue::Hist(h) => hist_json(h),
                };
                Json::obj([("labels", labels), ("value", value)])
            });
            Json::obj([
                ("name", Json::from(fam.name.clone())),
                ("help", Json::from(fam.help.clone())),
                ("kind", Json::from(fam.kind.name())),
                ("samples", Json::arr(samples)),
            ])
        });
        let recent = self.recent.iter().map(|r| {
            Json::obj([
                ("seq", Json::from(r.seq)),
                ("event", Json::from(r.event.clone())),
                ("stored", Json::from(r.stored)),
                ("searches", Json::from(r.searches)),
                ("matches_found", Json::from(r.matches_found)),
                ("matches_reported", Json::from(r.matches_reported)),
                ("nodes", Json::from(r.nodes)),
                ("total_ns", Json::from(r.total_ns)),
            ])
        });
        Json::obj([
            ("families", Json::arr(families)),
            ("recent", Json::arr(recent)),
        ])
    }

    /// Renders a human-readable snapshot for `ocep stats`.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            let nonzero = fam.samples.iter().any(|s| match &s.value {
                MetricValue::Int(v) => *v != 0,
                MetricValue::Hist(h) => !h.is_empty(),
            });
            if !nonzero {
                continue;
            }
            let _ = writeln!(out, "{}  ({})", fam.name, fam.help);
            for s in &fam.samples {
                let label = if s.labels.is_empty() {
                    String::new()
                } else {
                    format!("{} ", fmt_labels(&s.labels, None))
                };
                match &s.value {
                    MetricValue::Int(v) => {
                        let _ = writeln!(out, "  {label}{v}");
                    }
                    MetricValue::Hist(h) if h.is_empty() => {}
                    MetricValue::Hist(h) => {
                        let p50 = h.quantile(0.5).map_or(0, |(_, hi)| hi);
                        let p99 = h.quantile(0.99).map_or(0, |(_, hi)| hi);
                        let _ = writeln!(
                            out,
                            "  {label}count={} sum={} mean={:.1} p50<{} p99<{} max={}",
                            h.count(),
                            h.sum(),
                            h.mean().unwrap_or(0.0),
                            p50,
                            p99,
                            h.max()
                        );
                    }
                }
            }
        }
        if !self.recent.is_empty() {
            let _ = writeln!(out, "recent arrivals (oldest first, cap {RECENT_CAP}):");
            for r in &self.recent {
                let _ = writeln!(
                    out,
                    "  #{} {} stored={} searches={} found={} reported={} nodes={} total_ns={}",
                    r.seq,
                    r.event,
                    r.stored,
                    r.searches,
                    r.matches_found,
                    r.matches_reported,
                    r.nodes,
                    r.total_ns
                );
            }
        }
        out
    }

    /// Looks up an unlabelled counter/gauge value by family name (test
    /// and cross-check helper). Labelled samples are summed.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<u64> {
        let fam = self.families.iter().find(|f| f.name == name)?;
        let mut total = 0u64;
        for s in &fam.samples {
            match &s.value {
                MetricValue::Int(v) => total += v,
                MetricValue::Hist(_) => return None,
            }
        }
        Some(total)
    }
}

fn hist_json(h: &Histogram) -> Json {
    let buckets = h
        .bucket_counts()
        .iter()
        .enumerate()
        .filter(|(_, c)| **c != 0)
        .map(|(i, c)| {
            let le = if Histogram::upper_edge(i) == u64::MAX {
                Json::from("+Inf")
            } else {
                Json::from(Histogram::upper_edge(i))
            };
            Json::obj([("le", le), ("count", Json::from(*c))])
        });
    Json::obj([
        ("count", Json::from(h.count())),
        ("sum", Json::from(h.sum())),
        ("max", Json::from(h.max())),
        ("buckets", Json::arr(buckets)),
    ])
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

fn merge_value(into: &mut MetricValue, from: &MetricValue) {
    match (into, from) {
        (MetricValue::Int(a), MetricValue::Int(b)) => *a += b,
        (MetricValue::Hist(a), MetricValue::Hist(b)) => a.merge(b),
        // Kind mismatch cannot happen for catalog-built snapshots; keep
        // the existing value rather than panicking on foreign input.
        _ => {}
    }
}

fn fmt_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", k, escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn hist_of(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn bucket_edges_are_monotone_and_cover_u64() {
        // Satellite: bucket monotonicity. Edges must be non-decreasing,
        // every value must land in a bucket whose [lower, upper) range
        // contains it, and bucket_index must be monotone in the value.
        let mut prev_edge = 0u64;
        for i in 0..HIST_BUCKETS {
            let lo = Histogram::lower_edge(i);
            let hi = Histogram::upper_edge(i);
            assert!(lo <= hi, "bucket {i}: lower {lo} > upper {hi}");
            assert!(lo >= prev_edge, "bucket {i}: edges not monotone");
            prev_edge = lo;
        }
        let mut prev_idx = 0usize;
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(i >= prev_idx, "bucket_index not monotone at {v}");
            prev_idx = i;
            assert!(
                Histogram::lower_edge(i) <= v,
                "{v} below its bucket {i} lower edge"
            );
            if i < HIST_BUCKETS - 1 {
                assert!(
                    v < Histogram::upper_edge(i),
                    "{v} at/above bucket {i} upper edge"
                );
            }
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let a = hist_of(&[0, 1, 5, 1000]);
        let b = hist_of(&[2, 2, 700_000]);
        let c = hist_of(&[u64::MAX, 3]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        assert_eq!(ab_c.count(), 9);

        // Merging an empty histogram is the identity.
        let mut with_empty = a.clone();
        with_empty.merge(&Histogram::new());
        assert_eq!(with_empty, a);
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn quantile_estimates_are_bounded_by_bucket_edges() {
        let samples: Vec<u64> = (0..1000u64).map(|i| i * 37 % 5000).collect();
        let h = hist_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let (lo, hi) = h.quantile(q).expect("non-empty");
            assert!(lo <= hi);
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            assert!(
                lo <= truth && (truth < hi || hi == u64::MAX),
                "q={q}: true quantile {truth} outside bucket [{lo}, {hi})"
            );
        }
        assert!(Histogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn top_bucket_saturates() {
        let mut h = Histogram::new();
        let top_lo = 1u64 << (HIST_BUCKETS - 2);
        h.record(top_lo);
        h.record(u64::MAX);
        h.record(u64::MAX); // sum saturates instead of overflowing
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_counts()[HIST_BUCKETS - 1], 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum must saturate, not wrap");
        let (lo, hi) = h.quantile(0.5).expect("non-empty");
        assert_eq!(lo, top_lo / 2 * 2); // lower edge of the top bucket
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn search_obs_clamps_levels() {
        let mut a = SearchObs::default();
        a.record_domain_width(2, 9);
        assert_eq!(a.domain_width.len(), 3);
        assert_eq!(a.domain_width[2].count(), 1);
        a.record_domain_width(0, 5);
        a.record_domain_width(MAX_TRACKED_LEVELS + 7, 3);
        assert_eq!(a.domain_width.len(), MAX_TRACKED_LEVELS);
        assert_eq!(a.domain_width[MAX_TRACKED_LEVELS - 1].count(), 1);
        assert_eq!(a.domain_width[2].count(), 1);
    }

    #[test]
    fn recent_ring_overwrites_oldest_and_compares_by_content() {
        let rec = |seq: u64| ArrivalRecord {
            seq,
            event: format!("e{seq}"),
            stored: true,
            searches: 0,
            matches_found: 0,
            matches_reported: 0,
            nodes: 0,
            total_ns: 0,
        };
        let mut ring = RecentRing::default();
        for i in 0..(RECENT_CAP as u64 + 10) {
            ring.push(rec(i));
        }
        let records = ring.records();
        assert_eq!(records.len(), RECENT_CAP);
        assert_eq!(records[0].seq, 10, "oldest surviving record");
        assert_eq!(records[RECENT_CAP - 1].seq, RECENT_CAP as u64 + 9);

        // A rebuilt (unrotated) ring with the same records compares equal.
        let mut rebuilt = RecentRing::default();
        for r in records {
            rebuilt.push(r);
        }
        assert_eq!(ring, rebuilt);
    }

    #[test]
    fn snapshot_absorb_sums_and_merges() {
        let mut a = MetricsSnapshot::default();
        a.counter("ocep_events_total", "events", 3);
        a.counter_with("ocep_prunes_total", "prunes", &[("kind", "gp_ls")], 2);
        a.histogram("ocep_arrival_ns", "arrival latency", &hist_of(&[10, 20]));

        let mut b = MetricsSnapshot::default();
        b.counter("ocep_events_total", "events", 4);
        b.counter_with("ocep_prunes_total", "prunes", &[("kind", "intersect")], 5);
        b.histogram("ocep_arrival_ns", "arrival latency", &hist_of(&[30]));

        a.absorb(&b);
        assert_eq!(a.value("ocep_events_total"), Some(7));
        assert_eq!(
            a.value("ocep_prunes_total"),
            Some(7),
            "labelled samples sum"
        );
        let fam = a
            .families
            .iter()
            .find(|f| f.name == "ocep_arrival_ns")
            .expect("family");
        match &fam.samples[0].value {
            MetricValue::Hist(h) => assert_eq!(h.count(), 3),
            MetricValue::Int(_) => panic!("histogram family"),
        }
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        let mut s = MetricsSnapshot::default();
        s.counter("ocep_events_total", "Events observed.", 42);
        s.counter_with(
            "ocep_frames_total",
            "Frames per shard.",
            &[("shard", "0")],
            7,
        );
        s.histogram(
            "ocep_arrival_ns",
            "Arrival latency (ns).",
            &hist_of(&[1, 3, 3000]),
        );
        s.histogram("ocep_empty_ns", "Never recorded.", &Histogram::new());
        let text = s.to_prometheus();

        // One HELP/TYPE pair per family; sample lines are `name{labels} value`.
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut last_cum: HashMap<String, u64> = HashMap::new();
        for line in text.lines() {
            assert!(!line.is_empty());
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment line: {line}"
                );
                assert!(seen.insert(rest.to_owned()), "duplicate meta line: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            let value: f64 = value.parse().expect("numeric value");
            assert!(value >= 0.0);
            assert!(seen.insert(series.to_owned()), "duplicate series: {series}");
            // Cumulative bucket counts must be non-decreasing per series.
            if let Some(base) = series
                .split('{')
                .next()
                .and_then(|n| n.strip_suffix("_bucket"))
            {
                let prev = last_cum.entry(base.to_owned()).or_insert(0);
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let v = value as u64;
                assert!(v >= *prev, "bucket counts must be cumulative: {series}");
                *prev = v;
            }
        }
        assert!(text.contains("# TYPE ocep_events_total counter"));
        assert!(text.contains("ocep_events_total 42"));
        assert!(text.contains("ocep_frames_total{shard=\"0\"} 7"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("ocep_arrival_ns_count 3"));
        assert!(text.contains("ocep_empty_ns_count 0"));
    }

    #[test]
    fn prometheus_le_is_the_largest_value_a_bucket_holds() {
        let mut s = MetricsSnapshot::default();
        s.histogram("probe", "Probe.", &hist_of(&[0, 3, 4, 1 << 40]));
        let text = s.to_prometheus();
        // Buckets [0, 0], [2, 3] and [4, 7]: every sample counted at or
        // below an edge is <= it. 2^40 lands in the saturated top bucket.
        assert!(text.contains("probe_bucket{le=\"0\"} 1\n"), "{text}");
        assert!(text.contains("probe_bucket{le=\"3\"} 2\n"), "{text}");
        assert!(text.contains("probe_bucket{le=\"7\"} 3\n"), "{text}");
        assert!(text.contains("probe_bucket{le=\"+Inf\"} 4\n"), "{text}");
        assert!(!text.contains("le=\"4\""), "{text}");
    }

    #[test]
    fn obs_level_names_round_trip() {
        for lvl in [ObsLevel::Off, ObsLevel::Full] {
            assert_eq!(ObsLevel::from_name(lvl.name()), Some(lvl));
            assert_eq!(ObsLevel::from_code(lvl.code()), Some(lvl));
        }
        assert_eq!(ObsLevel::from_name("verbose"), None);
        assert_eq!(ObsLevel::from_name("counters"), None);
        // The retired `counters` code is the legacy checkpoint reader's.
        assert_eq!(ObsLevel::from_code(1), None);
        assert_eq!(ObsLevel::from_code(9), None);
        assert!(!ObsLevel::Off.enabled());
        assert!(ObsLevel::Full.enabled());
    }

    #[test]
    fn snapshot_renders_counters_and_histograms() {
        let mut s = MetricsSnapshot::default();
        s.counter("ocep_events_total", "Events observed.", 7);
        let mut h = Histogram::new();
        h.record(0);
        h.record(3);
        h.record(3);
        s.histogram_with(
            "ocep_stage_ns",
            "Stage latency.",
            &[("stage", "search")],
            &h,
        );
        let doc = s.to_json().to_string();
        assert!(doc.contains(r#""name":"ocep_events_total""#), "{doc}");
        assert!(doc.contains(r#""value":7"#), "{doc}");
        assert!(doc.contains(r#""stage":"search""#), "{doc}");
        assert!(doc.contains(r#""count":3,"sum":6,"max":3"#), "{doc}");
        // Bucket for value 3 is [2,4) → le 4, two samples; zeros bucket le 1.
        assert!(doc.contains(r#"{"le":1,"count":1}"#), "{doc}");
        assert!(doc.contains(r#"{"le":4,"count":2}"#), "{doc}");
    }
}
