//! Metrics-transparency and exactness suite (tier-1).
//!
//! The observability layer must be a pure observer: collecting metrics
//! can never change what the engine matches, stores, or checkpoints, and
//! the counters it exports must equal what an independent recount of the
//! run produces. Both properties are pinned over seeded conformance
//! cases so they run on plain `cargo test`.

use ocep_repro::conformance as conf;
use ocep_repro::ocep::{
    save_at, strip_metrics, Match, Monitor, MonitorConfig, ObsLevel, SubsetPolicy,
};
use ocep_repro::pattern::Pattern;
use ocep_repro::poet::Event;

/// The pinned seed grid: 2 master seeds × 100 indices = 200 cases, the
/// same generator the fuzz corpus uses (`conf::nth_case`).
const MASTERS: [u64; 2] = [0, 7];
const CASES_PER_MASTER: usize = 100;

struct RunResult {
    /// Every reported match, rendered (bindings included).
    matches: Vec<String>,
    /// The representative subset's bindings after the run.
    subset: Vec<String>,
    /// Final work counters.
    stats: ocep_repro::ocep::MonitorStats,
    /// Checkpoint bytes at end of run.
    checkpoint: Vec<u8>,
}

fn run_case(case: &conf::Case, dedup: bool, obs: ObsLevel) -> RunResult {
    let pattern = Pattern::parse(&case.pattern_src).expect("generated pattern parses");
    let poet = case.build();
    let mut monitor = Monitor::with_config(
        pattern,
        case.n_traces,
        MonitorConfig {
            dedup,
            policy: SubsetPolicy::PerArrival,
            obs,
        },
    );
    let mut matches = Vec::new();
    for e in poet.store().iter_arrival() {
        for m in monitor.observe(e) {
            matches.push(m.to_string());
        }
    }
    let subset = monitor
        .subset()
        .iter()
        .map(|m: &&Match| m.to_string())
        .collect();
    let stats = *monitor.stats();
    let checkpoint = save_at(&monitor, &case.pattern_src, 0);
    RunResult {
        matches,
        subset,
        stats,
        checkpoint,
    }
}

/// Satellite 1 — metrics transparency. Every pinned case runs twice,
/// `Off` vs `Full`; verdicts, subsets, work counters, and (metrics-
/// stripped) checkpoint bytes must be bit-identical. The only permitted
/// difference is the metrics section itself.
#[test]
fn full_observability_is_bit_transparent() {
    let mut with_matches = 0usize;
    for master in MASTERS {
        for i in 0..CASES_PER_MASTER {
            let (case, cfg) = conf::nth_case(master, i);
            let off = run_case(&case, cfg.dedup, ObsLevel::Off);
            let full = run_case(&case, cfg.dedup, ObsLevel::Full);
            let ctx = format!("seed {master} case {i}");
            assert_eq!(off.matches, full.matches, "{ctx}: verdicts diverged");
            assert_eq!(off.subset, full.subset, "{ctx}: subsets diverged");
            assert_eq!(off.stats, full.stats, "{ctx}: work counters diverged");
            assert_eq!(
                strip_metrics(&full.checkpoint).expect("full checkpoint strips"),
                off.checkpoint,
                "{ctx}: stripped checkpoint bytes diverged"
            );
            if !off.matches.is_empty() {
                with_matches += 1;
            }
        }
    }
    assert!(
        with_matches >= 20,
        "only {with_matches} pinned cases exercised a match"
    );
}

/// Satellite 2 — exactness. The registry's exported counters must equal
/// an independent recount of the run: every arrival, stored event,
/// search, and reported match counted once, never lost or doubled. The
/// counters must also equal a separate metrics-off oracle replay.
#[test]
fn exported_counters_match_a_sequential_recount() {
    for master in MASTERS {
        for i in (0..CASES_PER_MASTER).step_by(4) {
            let (case, cfg) = conf::nth_case(master, i);
            let parse = || Pattern::parse(&case.pattern_src).expect("pattern parses");
            let poet = case.build();
            let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();

            // Independent recount: feed the stream sequentially and tally
            // at the call site, without trusting any internal counter.
            let mut recount_reported = 0u64;
            let mut oracle = Monitor::with_config(
                parse(),
                case.n_traces,
                MonitorConfig {
                    dedup: cfg.dedup,
                    policy: SubsetPolicy::PerArrival,
                    obs: ObsLevel::Off,
                },
            );
            for e in &events {
                recount_reported += oracle.observe(e).len() as u64;
            }
            let oracle_stats = *oracle.stats();

            let mut monitor = Monitor::with_config(
                parse(),
                case.n_traces,
                MonitorConfig {
                    dedup: cfg.dedup,
                    policy: SubsetPolicy::PerArrival,
                    obs: ObsLevel::Full,
                },
            );
            // Recount the timing sample alongside the run: arrival
            // N (1-based) is timed iff N % OBS_TIMING_SAMPLE == 1,
            // and a timed arrival contributes one search-stage
            // sample per search it triggers.
            let sample = ocep_repro::ocep::OBS_TIMING_SAMPLE;
            let mut seen = 0u64;
            let mut sampled_arrivals = 0u64;
            let mut sampled_searches = 0u64;
            for (idx, e) in events.iter().enumerate() {
                let before = monitor.stats().searches;
                seen += monitor.observe(e).len() as u64;
                if (idx as u64 + 1) % sample == 1 {
                    sampled_arrivals += 1;
                    sampled_searches += monitor.stats().searches - before;
                }
            }
            let snap = monitor.metrics();
            let ctx = format!("seed {master} case {i}");
            let value = |name: &str| {
                snap.value(name)
                    .unwrap_or_else(|| panic!("{ctx}: missing counter {name}"))
            };
            // Independent of the registry: the caller counted arrivals
            // and reported matches itself.
            assert_eq!(value("ocep_events_total"), events.len() as u64, "{ctx}");
            assert_eq!(value("ocep_matches_reported_total"), seen, "{ctx}");
            // The run must agree with the metrics-off oracle replay
            // exactly — the registry may not drift from what an
            // unobserved monitor counts.
            assert_eq!(seen, recount_reported, "{ctx}: reported matches diverged");
            assert_eq!(value("ocep_stored_total"), oracle_stats.stored, "{ctx}");
            assert_eq!(value("ocep_searches_total"), oracle_stats.searches, "{ctx}");
            assert_eq!(
                value("ocep_matches_found_total"),
                oracle_stats.matches_found,
                "{ctx}"
            );
            // The arrival ring records every arrival (bounded).
            let m = monitor.obs_metrics().expect("Full keeps a registry");
            assert_eq!(
                m.recent().len() as u64,
                (events.len() as u64).min(ocep_repro::ocep::obs::RECENT_CAP as u64),
                "{ctx}: ring length"
            );
            // Stage histograms are consistent with the declared
            // timing sample: one end-to-end sample per timed
            // arrival, one search-stage sample per search a timed
            // arrival triggered.
            assert_eq!(
                m.arrival_hist().count(),
                sampled_arrivals,
                "{ctx}: arrival samples"
            );
            assert_eq!(
                m.stage_hist(ocep_repro::ocep::Stage::Search).count(),
                sampled_searches,
                "{ctx}: search stage samples"
            );
            // Search introspection is exact, not sampled: one depth per
            // backjump, one width per domain that survived Fig 4.
            let so = m.search_obs();
            assert_eq!(
                so.backjump_depth.count(),
                oracle_stats.backjumps,
                "{ctx}: backjump depths"
            );
            let widths: u64 = so.domain_width.iter().map(|h| h.count()).sum();
            assert_eq!(
                widths,
                oracle_stats.domains - value("ocep_search_prunes_total"),
                "{ctx}: domain widths"
            );
        }
    }
}

/// The fuzz driver's aggregate snapshot sums per-case snapshots: its
/// event counter equals the sum of events over all checked monitors, and
/// enabling collection never flips a verdict.
#[test]
fn fuzz_report_metrics_aggregate_consistently() {
    let base = conf::FuzzConfig {
        seed: 3,
        cases: 25,
        dump_dir: None,
        max_failures: 0,
        ..conf::FuzzConfig::default()
    };
    let off = conf::run_fuzz(&base, |_, _| {});
    let full = conf::run_fuzz(
        &conf::FuzzConfig {
            obs: ObsLevel::Full,
            ..base
        },
        |_, _| {},
    );
    assert!(off.metrics.is_none());
    assert_eq!(off.cases_run, full.cases_run);
    assert_eq!(off.detected, full.detected);
    assert_eq!(off.truth_total, full.truth_total);
    assert!(off.failures.is_empty() && full.failures.is_empty());
    let snap = full.metrics.expect("Full run aggregates metrics");
    let events = snap.value("ocep_events_total").expect("events counter");
    assert!(events > 0, "aggregate should have seen events");
    // The Prometheus export of the aggregate is well-formed enough to
    // contain every family exactly once.
    let text = snap.to_prometheus();
    let help_lines = text
        .lines()
        .filter(|l| l.starts_with("# HELP ocep_events_total "))
        .count();
    assert_eq!(help_lines, 1);
}

/// The family names `docs/OBSERVABILITY.md` mentions anywhere.
fn catalogued_families() -> std::collections::HashSet<String> {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/OBSERVABILITY.md"
    ))
    .expect("read the metric catalogue");
    doc.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with("ocep_"))
        .map(str::to_owned)
        .collect()
}

/// Every family the product exports is named in the metric catalogue of
/// `docs/OBSERVABILITY.md`: what a bare `Off` monitor files, and what a
/// daemon serving through a durable log files at shutdown.
#[test]
fn every_exported_family_is_in_the_catalogue() {
    use ocep_repro::net::{EngineCore, NetClock, ServeConfig, SystemClock};
    use ocep_repro::ocep::{MetricsSnapshot, MonitorSet};
    use std::sync::Arc;

    let named = catalogued_families();
    let missing = |s: &MetricsSnapshot| -> Vec<String> {
        s.families
            .iter()
            .map(|f| f.name.clone())
            .filter(|n| !named.contains(n))
            .collect()
    };
    let src = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";
    let monitor = Monitor::new(Pattern::parse(src).unwrap(), 2);
    assert_eq!(
        missing(&monitor.metrics()),
        Vec::<String>::new(),
        "Off monitor"
    );

    let wal_dir = std::env::temp_dir().join(format!("ocep-obs-catalogue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut set = MonitorSet::new(2);
    set.add("p", Pattern::parse(src).unwrap());
    let config = ServeConfig {
        pattern_sources: [("p".to_owned(), src.to_owned())].into(),
        wal_dir: Some(wal_dir.clone()),
        ..ServeConfig::default()
    };
    let clock: Arc<dyn NetClock> = Arc::new(SystemClock::new());
    let mut core = EngineCore::new(set, config, clock);
    core.recover_wal().expect("open a fresh log");
    let report = core.finish();
    let _ = std::fs::remove_dir_all(&wal_dir);
    assert_eq!(
        missing(&report.metrics),
        Vec::<String>::new(),
        "engine with a log"
    );
}
