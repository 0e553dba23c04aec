//! API-surface tests for the monitor: configuration accessors, stats
//! display, and subset accessors.

use ocep_core::{load_at, save_at, LoadedMonitor, Monitor, MonitorConfig, SubsetPolicy};
use ocep_pattern::Pattern;
use ocep_poet::{EventKind, PoetServer};
use ocep_vclock::TraceId;

fn t(i: u32) -> TraceId {
    TraceId::new(i)
}

fn ab() -> Pattern {
    Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap()
}

#[test]
fn config_is_exposed() {
    let m = Monitor::with_config(
        ab(),
        2,
        MonitorConfig {
            dedup: false,
            policy: SubsetPolicy::PerArrival,
            ..MonitorConfig::default()
        },
    );
    assert!(!m.config().dedup);
    assert_eq!(m.config().policy, SubsetPolicy::PerArrival);
    // Defaults.
    let d = Monitor::new(ab(), 2);
    assert!(d.config().dedup);
    assert_eq!(d.config().policy, SubsetPolicy::Representative);
}

#[test]
fn stats_display_lists_every_counter() {
    let mut poet = PoetServer::new(1);
    let mut m = Monitor::new(ab(), 1);
    poet.record(t(0), EventKind::Unary, "a", "");
    poet.record(t(0), EventKind::Unary, "b", "");
    for e in poet.linearization() {
        let _ = m.observe(&e);
    }
    let shown = m.stats().to_string();
    for field in [
        "events=2",
        "stored=2",
        "searches=1",
        "found=1",
        "reported=1",
        "nodes=",
        "candidates=",
        "domains=",
        "backjumps=",
        "deferred_rejections=",
    ] {
        assert!(shown.contains(field), "missing {field} in: {shown}");
    }
}

#[test]
fn pattern_accessor_and_history_metrics() {
    let mut poet = PoetServer::new(2);
    let mut m = Monitor::new(ab(), 2);
    assert_eq!(m.pattern().n_leaves(), 2);
    assert_eq!(m.history_size(), 0);
    assert_eq!(m.history_bytes(), 0);
    poet.record(t(0), EventKind::Unary, "a", "");
    for e in poet.linearization() {
        let _ = m.observe(&e);
    }
    assert_eq!(m.history_size(), 1);
    assert!(m.history_bytes() > 0);
}

#[test]
fn subset_lists_each_distinct_match_once() {
    // One match covers cells for both leaves; subset() must not repeat it.
    let mut poet = PoetServer::new(1);
    let mut m = Monitor::new(ab(), 1);
    poet.record(t(0), EventKind::Unary, "a", "");
    poet.record(t(0), EventKind::Unary, "b", "");
    for e in poet.linearization() {
        let _ = m.observe(&e);
    }
    assert_eq!(m.subset().len(), 1);
    assert!(m.covers("A", t(0)));
    assert!(m.covers("B", t(0)));
    assert!(!m.covers("A", t(0)) || !m.covers("Nope", t(0)));
}

#[test]
fn covers_resolves_occurrence_and_class_names() {
    let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B && A -> B;").unwrap();
    let mut poet = PoetServer::new(1);
    let mut m = Monitor::with_config(
        p,
        1,
        MonitorConfig {
            dedup: false,
            ..MonitorConfig::default()
        },
    );
    poet.record(t(0), EventKind::Unary, "a", "x");
    poet.record(t(0), EventKind::Unary, "a", "y");
    poet.record(t(0), EventKind::Unary, "b", "x");
    poet.record(t(0), EventKind::Unary, "b", "y");
    for e in poet.linearization() {
        let _ = m.observe(&e);
    }
    // Class name covers both occurrences; exact names work too.
    assert!(m.covers("A", t(0)));
    assert!(m.covers("A#2", t(0)));
    assert!(m.covers("B#2", t(0)));
    assert!(!m.covers("C", t(0)));
}

/// `crates/net` moves `MonitorSet` partitions onto shard threads; the
/// bound used to follow from `Arc`-wrapped fields, so pin it.
#[test]
fn monitor_and_monitor_set_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Monitor>();
    assert_send::<ocep_core::MonitorSet>();
}

/// `tests/corpus/ockp/parent-guarded/`, written by commit 0c944c5 (see
/// `tests/cli.rs::guarded_check_output_is_pinned_to_the_parent`): its
/// checkpoints are OCKP version 3.
const PARENT_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/corpus/ockp/parent-guarded"
);

/// The fixture's pattern source and the first `n` events of its dump.
fn parent_fixture_prefix(n: usize) -> (String, Vec<ocep_poet::Event>) {
    let src = std::fs::read_to_string(format!("{PARENT_FIXTURE}/pattern.ocep")).unwrap();
    let poet = ocep_poet::dump::reload_from_file(format!("{PARENT_FIXTURE}/stream.poet")).unwrap();
    let events = poet.store().iter_arrival().take(n).cloned().collect();
    (src, events)
}

/// The monitor the fixture's `unguarded.ockp` checkpointed: 4 traces,
/// per-arrival subsets, after the first 12 events of the dump.
fn fixture_monitor(src: &str) -> Monitor {
    Monitor::with_config(
        Pattern::parse(src).unwrap(),
        4,
        MonitorConfig {
            policy: SubsetPolicy::PerArrival,
            ..MonitorConfig::default()
        },
    )
}

/// Offset of a version-3 config block's reserved `u64` (once
/// `parallelism`): it follows magic 4, version 2, the `u32`-prefixed
/// pattern source, n_traces 4, dedup 1, policy 1 and the node-limit
/// word 8.
fn config_reserved_slot(src: &str) -> usize {
    4 + 2 + 4 + src.len() + 4 + 1 + 1 + 8
}

/// Offset of a version-3 stats block's reserved fourteenth `u64` (once
/// `degraded_arrivals`): the config block ends with the guard flag byte.
fn stats_reserved_slot(src: &str) -> usize {
    config_reserved_slot(src) + 8 + 1 + 13 * 8
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// `save_at` of what `bytes` restores to.
fn resaved(bytes: &[u8]) -> Vec<u8> {
    let loaded = load_at(bytes).unwrap();
    save_at(&loaded.monitor, &loaded.pattern_src, loaded.wal_lsn)
}

#[test]
fn checkpoint_written_by_a_pooled_degraded_monitor_still_loads() {
    let (src, events) = parent_fixture_prefix(usize::MAX);
    let verdicts =
        |ms: Vec<ocep_core::Match>| ms.iter().map(ToString::to_string).collect::<Vec<_>>();
    let subset = |m: &Monitor| {
        m.subset()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };

    let cut = 12;
    let mut straight = fixture_monitor(&src);
    for e in &events[..cut] {
        straight.observe(e);
    }
    let saved = std::fs::read(format!("{PARENT_FIXTURE}/unguarded.ockp")).unwrap();
    let (config_at, stats_at) = (config_reserved_slot(&src), stats_reserved_slot(&src));
    assert_eq!(u64_at(&saved, config_at), 1);
    assert_eq!(u64_at(&saved, stats_at), 0);

    // What a version-3 writer wrote for `parallelism: 4` after seven
    // degraded arrivals.
    let mut pooled = saved.clone();
    pooled[config_at..config_at + 8].copy_from_slice(&4u64.to_le_bytes());
    pooled[stats_at..stats_at + 8].copy_from_slice(&7u64.to_le_bytes());

    let LoadedMonitor {
        monitor: mut resumed,
        pattern_src,
        ..
    } = load_at(&pooled).unwrap();
    assert_eq!(pattern_src, src);
    assert_eq!(
        save_at(&resumed, &src, 0),
        resaved(&saved),
        "the two reserved slots are ignored on load"
    );
    let mut found = 0;
    for e in &events[cut..] {
        let expected = verdicts(straight.observe(e));
        found += expected.len();
        assert_eq!(verdicts(resumed.observe(e)), expected);
    }
    assert!(found > 0, "the second half must report something");
    assert_eq!(resumed.stats(), straight.stats());
    assert_eq!(subset(&resumed), subset(&straight));
}

/// `MonitorConfig::node_limit` is gone. A version-3 file holds its word,
/// written as the 0 every default-config checkpoint carried; any value
/// there is ignored on load.
#[test]
fn the_node_limit_word_is_written_zero_and_ignored_on_load() {
    let (src, _) = parent_fixture_prefix(0);
    let saved = std::fs::read(format!("{PARENT_FIXTURE}/unguarded.ockp")).unwrap();
    let at = config_reserved_slot(&src) - 8;
    assert_eq!(u64_at(&saved, at), 0);
    let mut limited = saved.clone();
    limited[at..at + 8].copy_from_slice(&50u64.to_le_bytes());
    assert_eq!(resaved(&limited), resaved(&saved));
}

/// The monitor of the parent's `unguarded.ockp` saves to the committed
/// version-4 `tests/corpus/ockp/v4/unguarded.ockp`, and so does the
/// parent's file once restored.
#[test]
fn unguarded_checkpoint_bytes_equal_the_parents() {
    let (src, prefix) = parent_fixture_prefix(12);
    let mut m = fixture_monitor(&src);
    for e in &prefix {
        m.observe(e);
    }
    let v4 = std::fs::read(format!("{PARENT_FIXTURE}/../v4/unguarded.ockp")).unwrap();
    assert_eq!(save_at(&m, &src, 0), v4);
    let parent = std::fs::read(format!("{PARENT_FIXTURE}/unguarded.ockp")).unwrap();
    assert_eq!(resaved(&parent), v4);
}
