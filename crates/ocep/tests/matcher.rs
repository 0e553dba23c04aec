//! Scenario tests for the OCEP matcher: each exercises one mechanism of
//! §III–§IV against a hand-built computation.

use ocep_core::{Monitor, MonitorConfig, SubsetPolicy};
use ocep_pattern::Pattern;
use ocep_poet::plugin::{MpiPlugin, UcxxPlugin};
use ocep_poet::{EventKind, PoetServer};
use ocep_vclock::TraceId;

fn t(i: u32) -> TraceId {
    TraceId::new(i)
}

fn drain(poet: &mut PoetServer, monitor: &mut Monitor) -> Vec<ocep_core::Match> {
    poet.linearization()
        .flat_map(|e| monitor.observe(&e))
        .collect()
}

#[test]
fn happens_before_respects_causality_not_arrival_order() {
    // a on T0, b on T1 concurrent: A -> B must NOT match even though a is
    // delivered before b.
    let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
    let mut poet = PoetServer::new(2);
    let mut monitor = Monitor::new(p, 2);
    poet.record(t(0), EventKind::Unary, "a", "");
    poet.record(t(1), EventKind::Unary, "b", "");
    assert!(drain(&mut poet, &mut monitor).is_empty());

    // Now a causally ordered pair matches.
    let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
    let mut poet = PoetServer::new(2);
    let mut monitor = Monitor::new(p, 2);
    let s = poet.record(t(0), EventKind::Send, "a", "");
    poet.record_receive(t(1), s.id(), "deliver", "");
    poet.record(t(1), EventKind::Unary, "b", "");
    let matches = drain(&mut poet, &mut monitor);
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].binding_for("A").unwrap().id(), s.id());
}

#[test]
fn partner_operator_requires_the_exact_message() {
    let p =
        Pattern::parse("S := [*, mpi_send, *]; R := [*, mpi_recv, *]; pattern := S <> R;").unwrap();
    let mut poet = PoetServer::new(3);
    let mut monitor = Monitor::with_config(
        p,
        3,
        MonitorConfig {
            policy: SubsetPolicy::PerArrival,
            ..MonitorConfig::default()
        },
    );
    let mut mpi = MpiPlugin::new(&mut poet);
    let s1 = mpi.send(t(0), t(2));
    let s2 = mpi.send(t(1), t(2));
    let r1 = mpi.recv(t(2), &s1);
    let r2 = mpi.recv(t(2), &s2);
    let matches = drain(&mut poet, &mut monitor);
    // Exactly the two (send, its-receive) pairs — never s1 with r2.
    assert_eq!(matches.len(), 2);
    for m in &matches {
        let s = m.binding_for("S").unwrap();
        let r = m.binding_for("R").unwrap();
        assert_eq!(r.partner(), Some(s.id()));
    }
    let pairs: Vec<_> = matches
        .iter()
        .map(|m| {
            (
                m.binding_for("S").unwrap().id(),
                m.binding_for("R").unwrap().id(),
            )
        })
        .collect();
    assert!(pairs.contains(&(s1.id(), r1.id())));
    assert!(pairs.contains(&(s2.id(), r2.id())));
}

#[test]
fn paper_ordering_bug_pattern_detects_stale_snapshot() {
    // §III-D: snapshot taken on a synch request, then an update, then the
    // stale snapshot forwarded.
    let src = r#"
        Synch    := [$l, synch_leader, $f];
        Snapshot := [$l, take_snapshot, $f];
        Update   := [$l, make_update, *];
        Forward  := [$l, forward_snapshot, $f];
        Snapshot $diff;
        Update $write;
        pattern := (Synch -> $diff) && ($diff -> $write) && ($write -> Forward);
    "#;
    let p = Pattern::parse(src).unwrap();
    // Traces: 0 = leader, 1 = good follower, 2 = victim follower.
    let mut poet = PoetServer::new(3);
    let mut monitor = Monitor::new(p, 3);

    // Correct round for follower 1: synch, snapshot, forward (no update
    // in between).
    let req1 = poet.record(t(1), EventKind::Send, "synch_request", "T0");
    poet.record_receive(t(0), req1.id(), "synch_leader", "T1");
    poet.record(t(0), EventKind::Unary, "take_snapshot", "T1");
    poet.record(t(0), EventKind::Send, "forward_snapshot", "T1");

    // Buggy round for follower 2: update sneaks in after the snapshot.
    let req2 = poet.record(t(2), EventKind::Send, "synch_request", "T0");
    poet.record_receive(t(0), req2.id(), "synch_leader", "T2");
    poet.record(t(0), EventKind::Unary, "take_snapshot", "T2");
    poet.record(t(0), EventKind::Unary, "make_update", "x=1");
    poet.record(t(0), EventKind::Send, "forward_snapshot", "T2");

    let matches = drain(&mut poet, &mut monitor);
    assert_eq!(matches.len(), 1, "only the buggy round matches");
    let m = &matches[0];
    // The variable binding isolated the victim follower.
    assert_eq!(m.binding_for("Synch").unwrap().text(), "T2");
    assert_eq!(m.binding_for("Forward").unwrap().text(), "T2");
    assert_eq!(m.binding_for("$diff").unwrap().text(), "T2");
}

#[test]
fn ordering_pattern_rejects_cross_follower_confusion() {
    // An update between follower-1's snapshot and follower-2's forward
    // must not produce a match for either follower when each follower's
    // own round is clean... except the leader's trace orders everything:
    // snapshot(T1) -> update -> forward(T2) *does* causally match if the
    // variables allowed mixing. The $f variable forbids it.
    let src = r#"
        Synch    := [$l, synch_leader, $f];
        Snapshot := [$l, take_snapshot, $f];
        Update   := [$l, make_update, *];
        Forward  := [$l, forward_snapshot, $f];
        Snapshot $diff;
        Update $write;
        pattern := (Synch -> $diff) && ($diff -> $write) && ($write -> Forward);
    "#;
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(3);
    let mut monitor = Monitor::new(p, 3);

    // Follower 1 round completes BEFORE its update-free forward.
    let req1 = poet.record(t(1), EventKind::Send, "synch_request", "T0");
    poet.record_receive(t(0), req1.id(), "synch_leader", "T1");
    poet.record(t(0), EventKind::Unary, "take_snapshot", "T1");
    poet.record(t(0), EventKind::Send, "forward_snapshot", "T1");
    // Update AFTER follower 1 was served.
    poet.record(t(0), EventKind::Unary, "make_update", "x=2");
    // Follower 2 round, snapshot after the update, clean.
    let req2 = poet.record(t(2), EventKind::Send, "synch_request", "T0");
    poet.record_receive(t(0), req2.id(), "synch_leader", "T2");
    poet.record(t(0), EventKind::Unary, "take_snapshot", "T2");
    poet.record(t(0), EventKind::Send, "forward_snapshot", "T2");

    let matches = drain(&mut poet, &mut monitor);
    assert!(
        matches.is_empty(),
        "variable binding must prevent mixing rounds: {matches:?}"
    );
}

#[test]
fn deadlock_cycle_pattern_with_attribute_variables() {
    // Three blocked sends forming a cycle T0→T1→T2→T0, all concurrent.
    let src = r#"
        S1 := [$a, mpi_block_send, $b];
        S2 := [$b, mpi_block_send, $c];
        S3 := [$c, mpi_block_send, $a];
        S1 $x; S2 $y; S3 $z;
        pattern := $x || $y && $y || $z && $x || $z;
    "#;
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(3);
    let mut monitor = Monitor::new(p, 3);
    let mut mpi = MpiPlugin::new(&mut poet);
    mpi.block_send(t(0), t(1));
    mpi.block_send(t(1), t(2));
    mpi.block_send(t(2), t(0));
    let matches = drain(&mut poet, &mut monitor);
    assert!(!matches.is_empty(), "the 3-cycle must be detected");
    let m = &matches[0];
    // Verify the cycle: each send's destination is the next sender.
    let s1 = m.binding_for("S1").unwrap();
    let s2 = m.binding_for("S2").unwrap();
    let s3 = m.binding_for("S3").unwrap();
    assert_eq!(s1.text(), s2.trace().to_string());
    assert_eq!(s2.text(), s3.trace().to_string());
    assert_eq!(s3.text(), s1.trace().to_string());
}

#[test]
fn no_deadlock_match_without_a_cycle() {
    let src = r#"
        S1 := [$a, mpi_block_send, $b];
        S2 := [$b, mpi_block_send, $a];
        pattern := S1 || S2;
    "#;
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(3);
    let mut monitor = Monitor::new(p, 3);
    let mut mpi = MpiPlugin::new(&mut poet);
    // T0 sends to T1, T1 sends to T2 — no cycle.
    mpi.block_send(t(0), t(1));
    mpi.block_send(t(1), t(2));
    assert!(drain(&mut poet, &mut monitor).is_empty());
}

#[test]
fn atomicity_violation_via_semaphore_traces() {
    let p = Pattern::parse(
        "E1 := [*, enter_method, *]; E2 := [*, enter_method, *]; pattern := E1 || E2;",
    )
    .unwrap();
    let mut poet = PoetServer::new(3); // threads 0,1; semaphore 2
    let mut monitor = Monitor::new(p, 3);
    let sem = t(2);
    {
        let mut ucxx = UcxxPlugin::new(&mut poet);
        // Proper protocol: serialized entries — no violation.
        ucxx.acquire(t(0), sem);
        ucxx.enter_method(t(0), "m");
        ucxx.exit_method(t(0), "m");
        ucxx.release(t(0), sem);
        ucxx.acquire(t(1), sem);
        ucxx.enter_method(t(1), "m");
        ucxx.exit_method(t(1), "m");
        ucxx.release(t(1), sem);
    }
    assert!(drain(&mut poet, &mut monitor).is_empty());

    // Buggy run: thread 1 skips the acquire — concurrent entries.
    let p = Pattern::parse(
        "E1 := [*, enter_method, *]; E2 := [*, enter_method, *]; pattern := E1 || E2;",
    )
    .unwrap();
    let mut poet = PoetServer::new(3);
    let mut monitor = Monitor::new(p, 3);
    {
        let mut ucxx = UcxxPlugin::new(&mut poet);
        ucxx.acquire(t(0), sem);
        ucxx.enter_method(t(0), "m");
        ucxx.enter_method(t(1), "m"); // no acquire!
        ucxx.exit_method(t(1), "m");
        ucxx.exit_method(t(0), "m");
        ucxx.release(t(0), sem);
    }
    let matches = drain(&mut poet, &mut monitor);
    assert_eq!(matches.len(), 1, "the skipped acquire must be caught");
}

#[test]
fn lim_operator_requires_immediate_precedence() {
    // A ~> B: the matched A must have no other A causally between it and B.
    let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A ~> B;").unwrap();
    let mut poet = PoetServer::new(1);
    let mut monitor = Monitor::with_config(
        p,
        1,
        MonitorConfig {
            dedup: false, // keep both a's so the lim check is observable
            policy: SubsetPolicy::PerArrival,
            ..MonitorConfig::default()
        },
    );
    let _a1 = poet.record(t(0), EventKind::Unary, "a", "first");
    let a2 = poet.record(t(0), EventKind::Unary, "a", "second");
    poet.record(t(0), EventKind::Unary, "b", "");
    let matches = drain(&mut poet, &mut monitor);
    assert_eq!(matches.len(), 1);
    assert_eq!(
        matches[0].binding_for("A").unwrap().id(),
        a2.id(),
        "only the latest A immediately precedes B"
    );
}

#[test]
fn weak_precedence_between_compounds() {
    // (A || B) -> (C || D): some constituent ordered, groups not entangled.
    let src = "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; D := [*,d,*]; \
               pattern := (A || B) -> (C || D);";
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(4);
    let mut monitor = Monitor::new(p, 4);
    // a on T0, b on T1 concurrent; then a message from T0 to T2 makes
    // a -> c; d on T3 concurrent with everything except... c and d must
    // be concurrent with each other and (weak) follow {a, b}.
    let a = poet.record(t(0), EventKind::Send, "a", "");
    poet.record(t(1), EventKind::Unary, "b", "");
    poet.record_receive(t(2), a.id(), "deliver", "");
    poet.record(t(2), EventKind::Unary, "c", "");
    poet.record(t(3), EventKind::Unary, "d", "");
    let matches = drain(&mut poet, &mut monitor);
    assert!(
        !matches.is_empty(),
        "a->c orders the compounds; b, d stay concurrent"
    );
}

#[test]
fn weak_precedence_rejects_entangled_compounds() {
    // Crossing messages entangle the two compounds: no match.
    let src = "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; D := [*,d,*]; \
               pattern := (A && B) -> (C && D);";
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(2);
    let mut monitor = Monitor::new(p, 2);
    // a(T0) -> c(T1)  and  d(T1) -> b(T0): crossing.
    let a = poet.record(t(0), EventKind::Send, "a", "");
    let d = poet.record(t(1), EventKind::Send, "d", "");
    let _c = poet.record_receive(t(1), a.id(), "c", "");
    let _b = poet.record_receive(t(0), d.id(), "b", "");
    let matches = drain(&mut poet, &mut monitor);
    assert!(
        matches.is_empty(),
        "entangled compounds must not satisfy weak precedence: {matches:?}"
    );
}

#[test]
fn fig3_representative_subset_covers_both_sender_traces() {
    // The Fig 3 scenario: several a's on T0 (one per causal block via
    // messages), one a on T1, then b arrives on T2 after messages from
    // both. The representative subset must include an A on T0 *and* an A
    // on T1 — the sliding window baseline famously misses the T1 one.
    let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
    let mut poet = PoetServer::new(3);
    let mut monitor = Monitor::new(p, 3);
    // Many a's on T0 separated by communication (distinct blocks).
    let mut last_send = None;
    for _ in 0..4 {
        poet.record(t(0), EventKind::Unary, "a", "");
        last_send = Some(poet.record(t(0), EventKind::Send, "sync", ""));
    }
    poet.record_receive(t(2), last_send.unwrap().id(), "sync", "");
    // One a on T1, linked to T2.
    poet.record(t(1), EventKind::Unary, "a", "");
    let s1 = poet.record(t(1), EventKind::Send, "sync", "");
    poet.record_receive(t(2), s1.id(), "sync", "");
    // The terminating b.
    poet.record(t(2), EventKind::Unary, "b", "");
    let _ = drain(&mut poet, &mut monitor);
    assert!(monitor.covers("A", t(0)), "subset must represent A on T0");
    assert!(monitor.covers("A", t(1)), "subset must represent A on T1");
    assert!(monitor.covers("B", t(2)));
    // Bounded: at most k·n entries.
    assert!(monitor.subset().len() <= 2 * 3);
}

#[test]
fn dedup_does_not_change_detection() {
    // Long runs of identical events: with and without §VI dedup the same
    // violations are detected, but storage differs hugely.
    let src = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";
    let build = |dedup: bool| {
        let p = Pattern::parse(src).unwrap();
        let mut poet = PoetServer::new(2);
        let mut monitor = Monitor::with_config(
            p,
            2,
            MonitorConfig {
                dedup,
                ..MonitorConfig::default()
            },
        );
        let mut last = None;
        for _ in 0..100 {
            last = Some(poet.record(t(0), EventKind::Unary, "a", ""));
        }
        let s = poet.record(t(0), EventKind::Send, "go", "");
        poet.record_receive(t(1), s.id(), "go", "");
        poet.record(t(1), EventKind::Unary, "b", "");
        let matches = drain(&mut poet, &mut monitor);
        let _ = last;
        (matches.len(), monitor.history_size())
    };
    let (with_dedup_matches, with_dedup_size) = build(true);
    let (without_matches, without_size) = build(false);
    assert_eq!(with_dedup_matches, without_matches);
    assert!(with_dedup_size < without_size / 10);
}

#[test]
fn monitor_subset_is_bounded_by_kn() {
    // Hammer the monitor with many matches; the representative subset and
    // the number of reported matches stay within k·n.
    let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
    let n = 4;
    let mut poet = PoetServer::new(n);
    let mut monitor = Monitor::new(p, n);
    let mut total_reported = 0;
    for round in 0..50 {
        let src = t((round % (n as u32 - 1)) + 1);
        poet.record(src, EventKind::Unary, "a", "");
        let s = poet.record(src, EventKind::Send, "m", "");
        poet.record_receive(t(0), s.id(), "m", "");
        poet.record(t(0), EventKind::Unary, "b", "");
        total_reported += drain(&mut poet, &mut monitor).len();
    }
    let k = 2;
    assert!(monitor.subset().len() <= k * n);
    assert!(
        total_reported <= k * n,
        "representative policy reported {total_reported} > k*n"
    );
    // But matches keep being *found* (freshness maintenance).
    assert!(monitor.stats().matches_found > total_reported as u64);
}

#[test]
fn stats_count_searches_and_matches() {
    let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
    let mut poet = PoetServer::new(1);
    let mut monitor = Monitor::new(p, 1);
    poet.record(t(0), EventKind::Unary, "a", "");
    poet.record(t(0), EventKind::Unary, "b", "");
    poet.record(t(0), EventKind::Unary, "zzz", "");
    let _ = drain(&mut poet, &mut monitor);
    let s = monitor.stats();
    assert_eq!(s.events, 3);
    assert_eq!(s.stored, 2);
    assert_eq!(s.searches, 1, "only b is terminating");
    assert_eq!(s.matches_found, 1);
    assert_eq!(s.matches_reported, 1);
}

#[test]
fn suppressed_terminating_events_skip_the_search() {
    // Identical b's in one causal block: only the first triggers a search.
    let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
    let mut poet = PoetServer::new(1);
    let mut monitor = Monitor::new(p, 1);
    poet.record(t(0), EventKind::Unary, "a", "");
    for _ in 0..10 {
        poet.record(t(0), EventKind::Unary, "b", "");
    }
    let _ = drain(&mut poet, &mut monitor);
    assert_eq!(monitor.stats().searches, 1);
    assert_eq!(monitor.suppressed(), 9);
}

#[test]
fn results_are_linearization_independent() {
    // Replay the same computation in 8 different valid linearizations:
    // the set of covered subset cells must be identical.
    use ocep_poet::Linearizer;
    let src = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";
    let mut poet = PoetServer::new(3);
    let a0 = poet.record(t(0), EventKind::Send, "a", "");
    poet.record(t(1), EventKind::Unary, "a", "");
    let r = poet.record_receive(t(2), a0.id(), "x", "");
    let _ = r;
    poet.record(t(2), EventKind::Unary, "b", "");
    let s1 = poet.record(t(1), EventKind::Send, "a", "");
    poet.record_receive(t(2), s1.id(), "x", "");
    poet.record(t(2), EventKind::Unary, "b", "");

    let mut cell_sets = Vec::new();
    for seed in 0..8 {
        let lin = Linearizer::new(poet.store()).with_seed(seed).linearize();
        let p = Pattern::parse(src).unwrap();
        let mut monitor = Monitor::new(p, 3);
        for e in &lin {
            let _ = monitor.observe(e);
        }
        let mut cells = Vec::new();
        for name in ["A", "B"] {
            for tr in 0..3 {
                if monitor.covers(name, t(tr)) {
                    cells.push((name, tr));
                }
            }
        }
        cell_sets.push(cells);
    }
    for w in cell_sets.windows(2) {
        assert_eq!(w[0], w[1], "coverage differs across linearizations");
    }
}

#[test]
fn event_routed_to_multiple_leaves() {
    // One event can be a candidate for several leaves of different classes.
    let p = Pattern::parse("X := [*, ping, *]; Y := [T1, ping, *]; pattern := X || Y;").unwrap();
    let mut poet = PoetServer::new(2);
    let mut monitor = Monitor::new(p, 2);
    poet.record(t(0), EventKind::Unary, "ping", "");
    poet.record(t(1), EventKind::Unary, "ping", "");
    let matches = drain(&mut poet, &mut monitor);
    assert_eq!(matches.len(), 1);
    let m = &matches[0];
    assert_eq!(m.binding_for("Y").unwrap().trace(), t(1));
    assert_eq!(m.binding_for("X").unwrap().trace(), t(0));
}

#[test]
fn display_of_match_names_leaves() {
    let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
    let mut poet = PoetServer::new(1);
    let mut monitor = Monitor::new(p, 1);
    poet.record(t(0), EventKind::Unary, "a", "");
    poet.record(t(0), EventKind::Unary, "b", "");
    let matches = drain(&mut poet, &mut monitor);
    let shown = matches[0].to_string();
    assert!(shown.contains("A=T0:1"), "{shown}");
    assert!(shown.contains("B=T0:2"), "{shown}");
}

#[test]
fn latest_feasible_candidate_is_found_without_chronological_retries() {
    // Level layout (eval order seeded at Z): [Z, $x, Y] with
    // $x -> Y and $x -> Z. T0 holds many 'a' sends; only the earliest
    // two causally precede the single 'y' on T1. When the search tries
    // the latest 'a' first, Y's domain on T1 empties with $x as the sole
    // culprit, so each later 'a' costs one candidate before a2 matches.
    let src = "X := [T0, a, *]; Y := [T1, y, *]; Z := [T0, z, *]; X $x; \
               pattern := $x -> Y && $x -> Z;";
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(2);
    let a1 = poet.record(t(0), EventKind::Send, "a", "1");
    let a2 = poet.record(t(0), EventKind::Send, "a", "2");
    poet.record_receive(t(1), a2.id(), "link", "");
    poet.record(t(1), EventKind::Unary, "y", "");
    for i in 3..=9 {
        poet.record(t(0), EventKind::Send, "a", i.to_string());
    }
    poet.record(t(0), EventKind::Unary, "z", "");
    let mut monitor = Monitor::new(p, 2);
    let matches = drain(&mut poet, &mut monitor);
    let _ = a1;
    assert!(!matches.is_empty(), "a2 -> y and a2 -> z is a match");
    assert_eq!(
        matches.last().unwrap().binding_for("$x").unwrap().text(),
        "2",
        "the latest feasible candidate is a2"
    );
    // Fewer candidates examined than the chronological worst case
    // (9 a's x retries).
    assert!(monitor.stats().candidates < 20, "{}", monitor.stats());
}

#[test]
fn strong_precedence_requires_every_pair_ordered() {
    // (A && B) ->> C: both a and b must precede c. With a || c the weak
    // arrow would match; the strong one must not.
    let src = "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; \
               pattern := (A && B) ->> C;";
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(3);
    let b = poet.record(t(1), EventKind::Send, "b", "");
    poet.record_receive(t(2), b.id(), "link", "");
    poet.record(t(0), EventKind::Unary, "a", ""); // concurrent with c
    poet.record(t(2), EventKind::Unary, "c", "");
    let mut monitor = Monitor::new(p, 3);
    assert!(drain(&mut poet, &mut monitor).is_empty());

    // Ordering both a and b before c satisfies it.
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(3);
    let a = poet.record(t(0), EventKind::Send, "a", "");
    poet.record_receive(t(2), a.id(), "link", "");
    let b = poet.record(t(1), EventKind::Send, "b", "");
    poet.record_receive(t(2), b.id(), "link", "");
    poet.record(t(2), EventKind::Unary, "c", "");
    let mut monitor = Monitor::new(p, 3);
    assert_eq!(drain(&mut poet, &mut monitor).len(), 1);
}

#[test]
fn entanglement_operator_matches_crossing_compounds() {
    // (A && B) <-> (C && D): satisfied by crossing messages
    // (a -> c and d -> b), rejected when one group fully precedes.
    let src = "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; D := [*,d,*]; \
               pattern := (A && B) <-> (C && D);";
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(2);
    let a = poet.record(t(0), EventKind::Send, "a", "");
    let d = poet.record(t(1), EventKind::Send, "d", "");
    poet.record_receive(t(1), a.id(), "c", "");
    poet.record_receive(t(0), d.id(), "b", "");
    let mut monitor = Monitor::with_config(
        p,
        2,
        MonitorConfig {
            policy: SubsetPolicy::PerArrival,
            ..MonitorConfig::default()
        },
    );
    let matches = drain(&mut poet, &mut monitor);
    assert!(!matches.is_empty(), "crossing groups are entangled");

    // Fully ordered groups are NOT entangled.
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(2);
    let a = poet.record(t(0), EventKind::Send, "a", "");
    poet.record(t(0), EventKind::Unary, "b", "");
    let link = poet.record(t(0), EventKind::Send, "link", "");
    poet.record_receive(t(1), link.id(), "link", "");
    poet.record(t(1), EventKind::Unary, "c", "");
    poet.record(t(1), EventKind::Unary, "d", "");
    let _ = a;
    let mut monitor = Monitor::new(p, 2);
    assert!(drain(&mut poet, &mut monitor).is_empty());
}

#[test]
fn entanglement_between_distinct_primitives_is_rejected() {
    let err = Pattern::parse("A := [*,a,*]; B := [*,b,*]; pattern := A <-> B;").unwrap_err();
    assert!(err.to_string().contains("entanglement"), "{err}");
}

#[test]
fn regression_cbj_blames_domain_contributors() {
    // Minimal input shrunk by proptest for a former bug: when all
    // candidates in a non-empty domain fail, levels that *narrowed* the
    // domain must share the blame, or the backjump skips the candidate
    // that would have widened it. Pattern: A -> B && C -> B#2 with two
    // independent B leaves.
    let p = Pattern::parse(
        "A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; \
         pattern := A -> B && C -> B;",
    )
    .unwrap();
    let mut poet = PoetServer::new(2);
    poet.record(t(0), EventKind::Send, "a", "");
    let s = poet.record(t(1), EventKind::Send, "b", "");
    poet.record_receive(t(0), s.id(), "b", "");
    poet.record(t(0), EventKind::Unary, "a", "");
    poet.record(t(0), EventKind::Unary, "c", "");
    poet.record(t(0), EventKind::Unary, "a", "");
    poet.record(t(0), EventKind::Unary, "b", "");
    let mut monitor = Monitor::with_config(
        p,
        2,
        MonitorConfig {
            dedup: false,
            policy: SubsetPolicy::PerArrival,
            ..MonitorConfig::default()
        },
    );
    let matches = drain(&mut poet, &mut monitor);
    assert!(
        !matches.is_empty(),
        "A=a@1 -> B=recv-b, C=c -> B#2=b@6 must be found"
    );
}

#[test]
fn chain_pattern_across_five_traces() {
    // A1 -> A2 -> A3 -> A4 -> A5, one hop per trace via messages.
    let src = "E := [*, hop, *]; E $e1; \
               F := [*, hop, *]; F $e2; \
               G := [*, hop, *]; G $e3; \
               H := [*, hop, *]; H $e4; \
               I := [*, hop, *]; I $e5; \
               pattern := $e1 -> $e2 && $e2 -> $e3 && $e3 -> $e4 && $e4 -> $e5;";
    let p = Pattern::parse(src).unwrap();
    let n = 5;
    let mut poet = PoetServer::new(n);
    let mut prev = poet.record(t(0), EventKind::Send, "hop", "0");
    for i in 1..n as u32 {
        poet.record_receive(t(i), prev.id(), "link", "");
        prev = poet.record(t(i), EventKind::Send, "hop", i.to_string());
    }
    let mut monitor = Monitor::new(p, n);
    let matches = drain(&mut poet, &mut monitor);
    assert!(!matches.is_empty(), "the 5-hop chain must match");
    let m = &matches[0];
    for (i, var) in ["$e1", "$e2", "$e3", "$e4", "$e5"].iter().enumerate() {
        assert_eq!(
            m.binding_for(var).unwrap().trace(),
            t(i as u32),
            "hop {i} must land on trace {i}"
        );
    }
}

#[test]
fn seed_bindings_constrain_earlier_levels() {
    // The terminating event binds $p; candidates for the other leaf on
    // non-matching traces must be rejected by the binding even though
    // their causality fits.
    let p = Pattern::parse("W := [$p, work, *]; D := [*, done, $p]; pattern := W -> D;").unwrap();
    let mut poet = PoetServer::new(3);
    let w0 = poet.record(t(0), EventKind::Send, "work", "");
    let w1 = poet.record(t(1), EventKind::Send, "work", "");
    poet.record_receive(t(2), w0.id(), "link", "");
    poet.record_receive(t(2), w1.id(), "link", "");
    // done names T1, so only w1 qualifies despite w0 also preceding it.
    poet.record(t(2), EventKind::Unary, "done", "T1");
    let mut monitor = Monitor::with_config(
        p,
        3,
        MonitorConfig {
            policy: SubsetPolicy::PerArrival,
            ..MonitorConfig::default()
        },
    );
    let matches = drain(&mut poet, &mut monitor);
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].binding_for("W").unwrap().id(), w1.id());
}

#[test]
fn same_trace_candidates_never_satisfy_concurrency() {
    let p = Pattern::parse("A := [*, x, *]; B := [*, x, *]; pattern := A || B;").unwrap();
    let mut poet = PoetServer::new(1);
    for i in 0..5 {
        poet.record(t(0), EventKind::Send, "x", i.to_string());
    }
    let mut monitor = Monitor::new(p, 1);
    assert!(drain(&mut poet, &mut monitor).is_empty());
}

#[test]
fn text_index_resolves_bound_variables_without_scanning() {
    // Many rounds with unique tokens: the Synch-style level must resolve
    // through the text index, keeping candidates examined per search
    // bounded instead of scanning all prior rounds.
    let src = "Q := [T0, q, $tok]; R := [T1, r, $tok]; pattern := Q -> R;";
    let p = Pattern::parse(src).unwrap();
    let mut poet = PoetServer::new(2);
    let rounds = 300u32;
    for i in 0..rounds {
        let q = poet.record(t(0), EventKind::Send, "q", format!("tok{i}"));
        poet.record_receive(t(1), q.id(), "link", "");
        poet.record(t(1), EventKind::Unary, "r", format!("tok{i}"));
    }
    let mut monitor = Monitor::with_config(
        p,
        2,
        MonitorConfig {
            policy: SubsetPolicy::PerArrival,
            ..MonitorConfig::default()
        },
    );
    let matches = drain(&mut poet, &mut monitor);
    assert_eq!(matches.len() as u32, rounds, "one match per token round");
    for m in &matches {
        assert_eq!(
            m.binding_for("Q").unwrap().text(),
            m.binding_for("R").unwrap().text()
        );
    }
    // Without the index each of the 300 searches would scan up to 300
    // q-candidates (~45k); with it, one lookup each.
    let per_search = monitor.stats().candidates as f64 / monitor.stats().searches as f64;
    assert!(
        per_search < 4.0,
        "text-indexed lookup degraded to scanning: {per_search:.1} candidates/search"
    );
}
