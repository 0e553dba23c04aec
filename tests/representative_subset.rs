//! Tests of the §IV-B representative-subset semantics: coverage,
//! cardinality bound, freshness, and the Fig 3 scenario proper.

use ocep_repro::baselines::SlidingWindowMatcher;
use ocep_repro::ocep::{Monitor, MonitorConfig, SubsetPolicy};
use ocep_repro::pattern::Pattern;
use ocep_repro::poet::{EventKind, PoetServer};
use ocep_repro::vclock::TraceId;

fn t(i: u32) -> TraceId {
    TraceId::new(i)
}

const AB: &str = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";

/// Builds the paper's Fig 3 process-time diagram exactly:
///
/// ```text
/// P1: c11 d12 a13 a14 a15 c17
/// P2: a21 d22 e23 b25
/// P3: d31 e32 a33 a34
/// ```
///
/// with a P1→P2 message after a15 (so a13–a15 all causally precede b25)
/// and a21 preceding b25 in P2's program order. On arrival of b25 the
/// matches for `A -> B` are a13b25, a14b25, a15b25, a21b25 — and the
/// desired representative subset is {a15 b25, a21 b25}.
fn fig3_diagram() -> PoetServer {
    let mut poet = PoetServer::new(3);
    // P1: c11.
    poet.record(t(0), EventKind::Unary, "c", "");
    // P2: a21 — the occurrence the sliding window will forget.
    poet.record(t(1), EventKind::Unary, "a", "21");
    // P1: a13 a14 a15 (distinct texts so all three stay despite §VI
    // dedup; the dedup-equivalence property is tested elsewhere).
    poet.record(t(0), EventKind::Unary, "a", "13");
    poet.record(t(0), EventKind::Unary, "a", "14");
    poet.record(t(0), EventKind::Unary, "a", "15");
    // P1 → P2 message: everything on P1 so far precedes P2's remainder.
    let d16 = poet.record(t(0), EventKind::Send, "d", "");
    poet.record_receive(t(1), d16.id(), "d", "");
    // P3: d31, a33, a34 — concurrent with b25 (no link to P2).
    poet.record(t(2), EventKind::Unary, "d", "");
    poet.record(t(2), EventKind::Unary, "a", "33");
    poet.record(t(2), EventKind::Unary, "a", "34");
    // P2: b25 — the terminating event.
    poet.record(t(1), EventKind::Unary, "b", "");
    // P1: c17.
    poet.record(t(0), EventKind::Unary, "c", "");
    poet
}

#[test]
fn fig3_subset_covers_p1_and_p2_but_window_misses_p2() {
    let poet = fig3_diagram();

    // OCEP.
    let mut monitor = Monitor::new(Pattern::parse(AB).unwrap(), 3);
    let mut reported = Vec::new();
    for e in poet.store().iter_arrival() {
        reported.extend(monitor.observe(e));
    }
    // The desired subset of Fig 3: an A on P1 and the A on P2.
    assert!(monitor.covers("A", t(0)), "a1x b25 missing");
    assert!(
        monitor.covers("A", t(1)),
        "a21 b25 missing (the window's blind spot)"
    );
    // a33/a34 on P3 are concurrent with b25: no match, so no coverage.
    assert!(!monitor.covers("A", t(2)));

    // The freshest representative is kept: a15 (text "15"), not a13.
    let a_on_p1 = reported
        .iter()
        .filter_map(|m| {
            let a = m.binding_for("A").unwrap();
            (a.trace() == t(0)).then(|| a.text().to_owned())
        })
        .next_back()
        .expect("an A on P1 was reported");
    assert_eq!(a_on_p1, "15", "nextMatch picks the latest candidate first");

    // The n² sliding window (9 events) has already evicted a21 by the
    // time b25 arrives.
    let mut window = SlidingWindowMatcher::paper_sized(Pattern::parse(AB).unwrap(), 3);
    let mut window_covers_p2 = false;
    for e in poet.store().iter_arrival() {
        for m in window.observe(e) {
            if m[0].trace() == t(1) {
                window_covers_p2 = true;
            }
        }
    }
    assert!(
        !window_covers_p2,
        "the window should demonstrate the omission"
    );
}

#[test]
fn subset_cardinality_never_exceeds_kn() {
    // Flood with matches: many senders, many rounds.
    let n = 6usize;
    let mut poet = PoetServer::new(n);
    let mut monitor = Monitor::new(Pattern::parse(AB).unwrap(), n);
    let mut reported = 0usize;
    for round in 0..200u32 {
        let src = t(round % (n as u32 - 1) + 1);
        poet.record(src, EventKind::Unary, "a", round.to_string());
        let s = poet.record(src, EventKind::Send, "m", "");
        poet.record_receive(t(0), s.id(), "m", "");
        poet.record(t(0), EventKind::Unary, "b", round.to_string());
    }
    for e in poet.store().iter_arrival() {
        reported += monitor.observe(e).len();
    }
    let k = 2;
    assert!(monitor.subset().len() <= k * n);
    assert!(reported <= k * n);
    // The subset is *fresh*: its B events are from late rounds, not the
    // first ones, because every new match replaces its cells.
    let max_b_round: u32 = monitor
        .subset()
        .iter()
        .map(|m| m.binding_for("B").unwrap().text().parse::<u32>().unwrap())
        .max()
        .unwrap();
    assert!(
        max_b_round >= 190,
        "subset should hold recent matches, got {max_b_round}"
    );
}

#[test]
fn per_arrival_policy_reports_every_completing_event() {
    let mut poet = PoetServer::new(1);
    let mut monitor = Monitor::with_config(
        Pattern::parse(AB).unwrap(),
        1,
        MonitorConfig {
            policy: SubsetPolicy::PerArrival,
            dedup: false,
            ..MonitorConfig::default()
        },
    );
    poet.record(t(0), EventKind::Unary, "a", "");
    let mut reports = 0;
    for i in 0..5 {
        poet.record(t(0), EventKind::Unary, "b", i.to_string());
    }
    for e in poet.store().iter_arrival() {
        reports += monitor.observe(e).len();
    }
    assert_eq!(reports, 5, "each b completes a match and must alert");

    // Representative policy on the same stream reports only the first.
    let mut poet = PoetServer::new(1);
    let mut monitor = Monitor::with_config(
        Pattern::parse(AB).unwrap(),
        1,
        MonitorConfig {
            policy: SubsetPolicy::Representative,
            dedup: false,
            ..MonitorConfig::default()
        },
    );
    poet.record(t(0), EventKind::Unary, "a", "");
    for i in 0..5 {
        poet.record(t(0), EventKind::Unary, "b", i.to_string());
    }
    let mut reports = 0;
    for e in poet.store().iter_arrival() {
        reports += monitor.observe(e).len();
    }
    assert_eq!(reports, 1);
}

#[test]
fn coverage_expands_monotonically_across_arrivals() {
    let n = 4;
    let mut poet = PoetServer::new(n);
    let mut monitor = Monitor::new(Pattern::parse(AB).unwrap(), n);
    let mut covered_history: Vec<usize> = Vec::new();
    for round in 0..(n as u32 - 1) {
        let src = t(round + 1);
        poet.record(src, EventKind::Unary, "a", "");
        let s = poet.record(src, EventKind::Send, "m", "");
        poet.record_receive(t(0), s.id(), "m", "");
        poet.record(t(0), EventKind::Unary, "b", "");
        for e in poet.linearization() {
            let _ = monitor.observe(&e);
        }
        let covered = (0..n as u32)
            .filter(|&tr| monitor.covers("A", t(tr)))
            .count();
        covered_history.push(covered);
    }
    // Each round brings a new sender trace into the subset.
    assert_eq!(covered_history, vec![1, 2, 3]);
}
