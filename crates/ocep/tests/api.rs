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
            node_limit: 7,
            ..MonitorConfig::default()
        },
    );
    assert!(!m.config().dedup);
    assert_eq!(m.config().policy, SubsetPolicy::PerArrival);
    assert_eq!(m.config().node_limit, 7);
    // Defaults.
    let d = Monitor::new(ab(), 2);
    assert!(d.config().dedup);
    assert_eq!(d.config().policy, SubsetPolicy::Representative);
    assert_eq!(d.config().node_limit, 0);
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
        "jump_bounds=",
        "deferred_rejections=",
        "clones_avoided=",
        "clone_bytes_avoided=",
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

/// Offset of the OCKP config block's reserved `u64` (once `parallelism`):
/// it follows magic 4, version 2, the `u32`-prefixed pattern source,
/// n_traces 4, dedup 1, policy 1 and node_limit 8.
fn config_reserved_slot(src: &str) -> usize {
    4 + 2 + 4 + src.len() + 4 + 1 + 1 + 8
}

/// Offset of the stats block's reserved fourteenth `u64` (once
/// `degraded_arrivals`): the config block ends with the guard flag byte.
fn stats_reserved_slot(src: &str) -> usize {
    config_reserved_slot(src) + 8 + 1 + 13 * 8
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

#[test]
fn checkpoint_written_by_a_pooled_degraded_monitor_still_loads() {
    const SRC: &str = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";
    let mut poet = PoetServer::new(3);
    for round in 0..8u32 {
        let from = t(round % 3);
        let s = poet.record(from, EventKind::Send, "a", "m");
        poet.record_receive(t((round + 1) % 3), s.id(), "b", "m");
        poet.record(from, EventKind::Unary, "b", "");
    }
    let events: Vec<_> = poet.linearization().collect();
    let monitor = || {
        Monitor::with_config(
            Pattern::parse(SRC).unwrap(),
            3,
            MonitorConfig {
                policy: SubsetPolicy::PerArrival,
                ..MonitorConfig::default()
            },
        )
    };
    let verdicts =
        |ms: Vec<ocep_core::Match>| ms.iter().map(ToString::to_string).collect::<Vec<_>>();
    let subset = |m: &Monitor| {
        m.subset()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };

    let cut = events.len() / 2;
    let mut straight = monitor();
    let mut first_half = monitor();
    for e in &events[..cut] {
        straight.observe(e);
        first_half.observe(e);
    }
    let saved = save_at(&first_half, SRC, 0);
    let (config_at, stats_at) = (config_reserved_slot(SRC), stats_reserved_slot(SRC));
    assert_eq!(u64_at(&saved, config_at), 1);
    assert_eq!(u64_at(&saved, stats_at), 0);

    // What the parent wrote for `parallelism: 4` after seven degraded
    // arrivals.
    let mut pooled = saved.clone();
    pooled[config_at..config_at + 8].copy_from_slice(&4u64.to_le_bytes());
    pooled[stats_at..stats_at + 8].copy_from_slice(&7u64.to_le_bytes());

    let LoadedMonitor {
        monitor: mut resumed,
        pattern_src: src,
        ..
    } = load_at(&pooled).unwrap();
    assert_eq!(src, SRC);
    assert_eq!(
        save_at(&resumed, SRC, 0),
        saved,
        "re-save differs from the patched bytes only in the two reserved slots"
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

/// `tests/corpus/ockp/parent-guarded/`, written by commit 0c944c5 (see
/// `tests/cli.rs::guarded_check_output_is_pinned_to_the_parent`).
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

#[test]
fn unguarded_checkpoint_bytes_equal_the_parents() {
    let (src, prefix) = parent_fixture_prefix(12);
    let mut m = Monitor::with_config(
        Pattern::parse(&src).unwrap(),
        4,
        MonitorConfig {
            policy: SubsetPolicy::PerArrival,
            ..MonitorConfig::default()
        },
    );
    for e in &prefix {
        m.observe(e);
    }
    let parent = std::fs::read(format!("{PARENT_FIXTURE}/unguarded.ockp")).unwrap();
    assert_eq!(save_at(&m, &src, 0), parent);
}
