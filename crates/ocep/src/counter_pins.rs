//! Where every work and admission counter goes. Each `MonitorStats` and
//! `IngestStats` counter holds a distinct non-zero value, and each value
//! must reach its own key in the stats line, its own metric sample
//! (family, labels and kind) and its own word in OCKP and OCKS
//! checkpoints. The pinned transcripts leave several counters at zero, so
//! only distinct values catch two counters trading places.

use crate::checkpoint::{load_at, load_set_at, save_at, save_set_at};
use crate::ingest::{AdmissionGuard, GuardConfig, IngestStats};
use crate::obs::{MetricKind, MetricValue, MetricsSnapshot};
use crate::{Monitor, MonitorSet, MonitorStats};
use ocep_pattern::Pattern;
use std::collections::HashMap;

const PATTERN: &str = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";

fn monitor_stats() -> MonitorStats {
    MonitorStats {
        events: 1_001,
        stored: 1_002,
        searches: 1_003,
        matches_found: 1_004,
        matches_reported: 1_005,
        nodes: 1_006,
        candidates: 1_007,
        domains: 1_008,
        backjumps: 1_009,
        deferred_rejections: 1_011,
    }
}

fn ingest_stats() -> IngestStats {
    IngestStats {
        admitted: 2_001,
        duplicates_dropped: 2_002,
        buffered: 2_003,
        reordered_delivered: 2_004,
        quarantined_trace_range: 2_005,
        quarantined_clock_width: 2_006,
        quarantined_non_monotone: 2_007,
        overflow_rejected: 2_008,
        degraded_flushes: 2_010,
        degraded_delivered: 2_011,
        buffered_peak: 2_012,
    }
}

/// `(value, family)` for every monitor counter, in checkpoint order;
/// each is an unlabelled counter.
const MONITOR_SAMPLES: [(u64, &str); 10] = [
    (1_001, "ocep_events_total"),
    (1_002, "ocep_stored_total"),
    (1_003, "ocep_searches_total"),
    (1_004, "ocep_matches_found_total"),
    (1_005, "ocep_matches_reported_total"),
    (1_006, "ocep_search_nodes_total"),
    (1_007, "ocep_search_candidates_total"),
    (1_008, "ocep_search_domains_total"),
    (1_009, "ocep_search_backjumps_total"),
    (1_011, "ocep_search_deferred_rejections_total"),
];

/// `(value, family, labels, kind)` of one metric sample.
type Sample = (
    u64,
    &'static str,
    &'static [(&'static str, &'static str)],
    MetricKind,
);

/// Every admission-guard counter's sample, in checkpoint order.
const INGEST_SAMPLES: [Sample; 11] = [
    (
        2_001,
        "ocep_ingest_events_total",
        &[("outcome", "admitted")],
        MetricKind::Counter,
    ),
    (
        2_002,
        "ocep_ingest_events_total",
        &[("outcome", "duplicate")],
        MetricKind::Counter,
    ),
    (
        2_003,
        "ocep_ingest_events_total",
        &[("outcome", "buffered")],
        MetricKind::Counter,
    ),
    (
        2_004,
        "ocep_ingest_events_total",
        &[("outcome", "reordered")],
        MetricKind::Counter,
    ),
    (
        2_005,
        "ocep_ingest_quarantined_total",
        &[("reason", "trace_range")],
        MetricKind::Counter,
    ),
    (
        2_006,
        "ocep_ingest_quarantined_total",
        &[("reason", "clock_width")],
        MetricKind::Counter,
    ),
    (
        2_007,
        "ocep_ingest_quarantined_total",
        &[("reason", "non_monotone")],
        MetricKind::Counter,
    ),
    (
        2_008,
        "ocep_ingest_overflow_total",
        &[("policy", "rejected")],
        MetricKind::Counter,
    ),
    (
        2_010,
        "ocep_ingest_degraded_flushes_total",
        &[],
        MetricKind::Counter,
    ),
    (
        2_011,
        "ocep_ingest_events_total",
        &[("outcome", "degraded_delivered")],
        MetricKind::Counter,
    ),
    (2_012, "ocep_ingest_buffer_peak", &[], MetricKind::Gauge),
];

fn pinned_monitor() -> Monitor {
    let mut m = Monitor::new(Pattern::parse(PATTERN).unwrap(), 2);
    m.stats = monitor_stats();
    m
}

fn pinned_set() -> MonitorSet {
    let mut set = MonitorSet::new(2);
    set.insert_monitor("m", pinned_monitor());
    let mut guard = AdmissionGuard::new(2, GuardConfig::default());
    guard.stats = ingest_stats();
    set.install_guard(guard);
    set
}

fn assert_sample(
    s: &MetricsSnapshot,
    value: u64,
    family: &str,
    labels: &[(&str, &str)],
    kind: MetricKind,
) {
    let fam = s
        .families
        .iter()
        .find(|f| f.name == family)
        .unwrap_or_else(|| panic!("no family {family}"));
    assert_eq!(fam.kind, kind, "{family}");
    let want: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    let sample = fam
        .samples
        .iter()
        .find(|x| x.labels == want)
        .unwrap_or_else(|| panic!("no sample {family}{labels:?}"));
    assert_eq!(sample.value, MetricValue::Int(value), "{family}{labels:?}");
}

fn words(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn occurrences(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(needle.len()).filter(|w| *w == needle).count()
}

/// The OCKP stats block: the ten counters.
fn monitor_block() -> Vec<u8> {
    let values: Vec<u64> = MONITOR_SAMPLES.iter().map(|p| p.0).collect();
    words(&values)
}

#[test]
fn every_counter_reaches_its_own_key() {
    assert_eq!(
        monitor_stats().to_string(),
        "events=1001 stored=1002 searches=1003 found=1004 reported=1005 \
         nodes=1006 candidates=1007 domains=1008 backjumps=1009 \
         deferred_rejections=1011"
    );
    // The guard's line sums the quarantine reasons; the degraded
    // deliveries and the peak are not on it.
    assert_eq!(
        ingest_stats().to_string(),
        "ingest_admitted=2001 ingest_duplicates=2002 ingest_buffered=2003 \
         ingest_reordered=2004 ingest_quarantined=6018 ingest_overflow=2008 \
         ingest_degraded_flushes=2010"
    );
}

#[test]
fn every_counter_reaches_its_own_sample() {
    for s in [pinned_monitor().metrics(), pinned_set().metrics()] {
        for (value, family) in MONITOR_SAMPLES {
            assert_sample(&s, value, family, &[], MetricKind::Counter);
        }
    }
    let s = pinned_set().metrics();
    for (value, family, labels, kind) in INGEST_SAMPLES {
        assert_sample(&s, value, family, labels, kind);
    }
    // Admission is the set's stage: without a guard there is no
    // `ocep_ingest_*` family to file.
    let mut unguarded = MonitorSet::new(2);
    unguarded.insert_monitor("m", pinned_monitor());
    for s in [pinned_monitor().metrics(), unguarded.metrics()] {
        assert!(
            !s.families
                .iter()
                .any(|f| f.name.starts_with("ocep_ingest_")),
            "{:?}",
            s.families.iter().map(|f| &f.name).collect::<Vec<_>>()
        );
    }
}

#[test]
fn every_counter_reaches_its_own_checkpoint_word() {
    let bytes = save_at(&pinned_monitor(), PATTERN, 0);
    assert_eq!(occurrences(&bytes, &monitor_block()), 1);
    let loaded = load_at(&bytes).unwrap();
    assert_eq!(*loaded.monitor.stats(), monitor_stats());
    assert_eq!(save_at(&loaded.monitor, PATTERN, 0), bytes);

    let sources = HashMap::from([("m".to_owned(), PATTERN.to_owned())]);
    let bytes = save_set_at(&pinned_set(), &sources, 0);
    assert_eq!(occurrences(&bytes, &monitor_block()), 1);
    let ingest: Vec<u64> = INGEST_SAMPLES.iter().map(|p| p.0).collect();
    assert_eq!(occurrences(&bytes, &words(&ingest)), 1);
    let loaded = load_set_at(&bytes).unwrap();
    assert_eq!(*loaded.set.monitor("m").unwrap().stats(), monitor_stats());
    assert_eq!(loaded.set.ingest_stats(), ingest_stats());
    assert_eq!(save_set_at(&loaded.set, &sources, 0), bytes);
}

#[test]
fn set_totals_add_every_counter_to_its_own_field() {
    let mut set = MonitorSet::new(2);
    set.insert_monitor("m", pinned_monitor());
    set.insert_monitor("n", pinned_monitor());
    assert_eq!(
        set.total_stats().to_string(),
        "events=2002 stored=2004 searches=2006 found=2008 reported=2010 \
         nodes=2012 candidates=2014 domains=2016 backjumps=2018 \
         deferred_rejections=2022"
    );
}
