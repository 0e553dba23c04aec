//! Property tests: the online matcher against a brute-force oracle on
//! seeded random computations and a family of representative patterns.
//!
//! The oracle enumerates *all* leaf assignments over the full event set
//! and checks every constraint directly with vector-clock causality. The
//! monitor must (a) report only assignments the oracle accepts
//! (soundness — no false positives, §V-D), (b) find a match whenever the
//! oracle does (detection completeness), and (c) keep its reported
//! subset within the k·n bound (§IV-B).

use ocep_core::{Monitor, MonitorConfig, SubsetPolicy};
use ocep_pattern::{Bindings, Constraint, PairRel, Pattern};
use ocep_poet::{Event, EventKind, PoetServer};
use ocep_rng::Rng;
use ocep_vclock::{Causality, EventSet, TraceId};

#[derive(Debug, Clone)]
enum Step {
    Local(u32, u8, u8),
    Message(u32, u32, u8),
}

const TYPES: [&str; 3] = ["a", "b", "c"];
const TEXTS: [&str; 3] = ["", "u", "v"];

fn random_computation(rng: &mut Rng) -> (u32, Vec<Step>) {
    let n = rng.gen_range(2u32..5);
    let len = rng.gen_range(1usize..30);
    let steps = (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                Step::Local(
                    rng.gen_range(0..n),
                    rng.gen_range(0u8..3),
                    rng.gen_range(0u8..3),
                )
            } else {
                Step::Message(
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(0u8..3),
                )
            }
        })
        .collect();
    (n, steps)
}

fn run_steps(n: u32, steps: &[Step]) -> PoetServer {
    let mut poet = PoetServer::new(n as usize);
    for s in steps {
        match *s {
            Step::Local(t, ty, tx) => {
                poet.record(
                    TraceId::new(t),
                    EventKind::Unary,
                    TYPES[ty as usize],
                    TEXTS[tx as usize],
                );
            }
            Step::Message(from, to, ty) => {
                let send = poet.record(TraceId::new(from), EventKind::Send, TYPES[ty as usize], "");
                if from != to {
                    poet.record_receive(TraceId::new(to), send.id(), TYPES[ty as usize], "");
                }
            }
        }
    }
    poet
}

const PATTERNS: [&str; 11] = [
    "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;",
    "A := [*, a, *]; B := [*, b, *]; pattern := A || B;",
    "A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; pattern := A -> B && C -> B;",
    "A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; A $x; \
     pattern := $x -> B && $x -> C;",
    "A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; B $m; \
     pattern := A -> $m && $m -> C;",
    "S := [*, a, *]; R := [*, a, *]; pattern := S <> R;",
    "X := [$p, a, *]; Y := [*, b, $p]; pattern := X -> Y;",
    "A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; pattern := (A || B) -> C;",
    "A := [*, a, *]; B := [*, b, *]; pattern := A ~> B;",
    "A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; pattern := (A && B) ->> C;",
    "A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; \
     pattern := (A && B) <-> (B && C);",
];

/// Checks one full assignment against every pattern constraint, using
/// only the causality algebra (independent of the search code).
fn oracle_accepts(pattern: &Pattern, events: &[&Event], all: &[Event]) -> bool {
    // Distinct events per leaf.
    for i in 0..events.len() {
        for j in i + 1..events.len() {
            if events[i].id() == events[j].id() {
                return false;
            }
        }
    }
    // Shape + attribute-variable consistency, assigned in leaf order.
    let mut bindings = Bindings::new(pattern.n_vars());
    for (leaf, e) in pattern.leaves().iter().zip(events) {
        match pattern.leaf_match(leaf.id(), e, &bindings) {
            Some(delta) => bindings.apply(&delta),
            None => return false,
        }
    }
    // Pairwise causal requirements.
    for i in 0..events.len() {
        for j in 0..events.len() {
            let (li, lj) = (pattern.leaves()[i].id(), pattern.leaves()[j].id());
            if let Some(rel) = pattern.rel(li, lj) {
                let got = events[i].stamp().causality(events[j].stamp());
                let ok = matches!(
                    (rel, got),
                    (PairRel::Before, Causality::Before)
                        | (PairRel::After, Causality::After)
                        | (PairRel::Concurrent, Causality::Concurrent)
                );
                if !ok {
                    return false;
                }
            }
        }
    }
    // Partner, lim, weak-precede.
    for c in pattern.constraints() {
        match c {
            Constraint::Partner { send, recv } => {
                let s = events[send.as_usize()];
                let r = events[recv.as_usize()];
                if r.partner() != Some(s.id()) {
                    return false;
                }
            }
            Constraint::Lim { from, to } => {
                let a = events[from.as_usize()];
                let b = events[to.as_usize()];
                let from_spec = &pattern.leaves()[from.as_usize()];
                let blocked = all.iter().any(|x| {
                    x.id() != a.id()
                        && x.id() != b.id()
                        && from_spec.matches_shape(x)
                        && a.stamp().happens_before(x.stamp())
                        && x.stamp().happens_before(b.stamp())
                });
                if blocked {
                    return false;
                }
            }
            Constraint::WeakPrecede { from, to } => {
                let fs: EventSet = from
                    .iter()
                    .map(|l| events[l.as_usize()].stamp().clone())
                    .collect();
                let ts: EventSet = to
                    .iter()
                    .map(|l| events[l.as_usize()].stamp().clone())
                    .collect();
                if !fs.weakly_precedes(&ts) {
                    return false;
                }
            }
            Constraint::Entangled { left, right } => {
                let ls: EventSet = left
                    .iter()
                    .map(|l| events[l.as_usize()].stamp().clone())
                    .collect();
                let rs: EventSet = right
                    .iter()
                    .map(|l| events[l.as_usize()].stamp().clone())
                    .collect();
                if !ls.entangled(&rs) {
                    return false;
                }
            }
        }
    }
    true
}

/// Enumerates all oracle matches (bounded: k <= 3, |events| <= ~60).
fn oracle_matches<'a>(pattern: &Pattern, all: &'a [Event]) -> Vec<Vec<&'a Event>> {
    let k = pattern.n_leaves();
    let mut out = Vec::new();
    let mut stack: Vec<&Event> = Vec::with_capacity(k);
    fn rec<'a>(
        pattern: &Pattern,
        all: &'a [Event],
        stack: &mut Vec<&'a Event>,
        out: &mut Vec<Vec<&'a Event>>,
    ) {
        if stack.len() == pattern.n_leaves() {
            if oracle_accepts(pattern, stack, all) {
                out.push(stack.clone());
            }
            return;
        }
        let leaf = &pattern.leaves()[stack.len()];
        for e in all {
            if leaf.matches_shape(e) {
                stack.push(e);
                rec(pattern, all, stack, out);
                stack.pop();
            }
        }
    }
    rec(pattern, all, &mut stack, &mut out);
    out
}

#[test]
fn monitor_agrees_with_oracle() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x0AC1E ^ case);
        let (n, steps) = random_computation(&mut rng);
        let pat_idx = rng.gen_range(0..PATTERNS.len());
        let dedup = rng.gen_bool(0.5);

        let poet = run_steps(n, &steps);
        let all: Vec<Event> = poet.store().iter_arrival().cloned().collect();
        let pattern = Pattern::parse(PATTERNS[pat_idx]).unwrap();
        let truth = oracle_matches(&pattern, &all);

        let pattern2 = Pattern::parse(PATTERNS[pat_idx]).unwrap();
        let mut monitor = Monitor::with_config(
            pattern2,
            n as usize,
            MonitorConfig {
                dedup,
                policy: SubsetPolicy::PerArrival,
                ..MonitorConfig::default()
            },
        );
        let mut reported = Vec::new();
        for e in &all {
            reported.extend(monitor.observe(e));
        }

        // (a) Soundness: every reported match is accepted by the oracle.
        let p_check = Pattern::parse(PATTERNS[pat_idx]).unwrap();
        for m in &reported {
            let evs: Vec<&Event> = m.events().iter().collect();
            assert!(
                oracle_accepts(&p_check, &evs, &all),
                "case {case}: false positive: {m} (pattern {pat_idx})"
            );
        }

        // (b) Detection completeness: a match exists iff one is found.
        assert_eq!(
            truth.is_empty(),
            monitor.stats().matches_found == 0,
            "case {case}: oracle found {} matches, monitor found {} (pattern {}, dedup={})",
            truth.len(),
            monitor.stats().matches_found,
            pat_idx,
            dedup
        );

        // (c) With the representative policy, reports stay within k*n.
        let pattern3 = Pattern::parse(PATTERNS[pat_idx]).unwrap();
        let k = pattern3.n_leaves();
        let mut rep_monitor = Monitor::new(pattern3, n as usize);
        let mut rep_count = 0usize;
        for e in &all {
            rep_count += rep_monitor.observe(e).len();
        }
        assert!(rep_count <= k * n as usize, "case {case}");

        // (d) Cell soundness: every covered (class, trace) cell appears in
        // some oracle match (`covers` resolves names at class granularity,
        // so compare against any same-class leaf position).
        let leaves = rep_monitor.pattern().leaves().to_vec();
        for leaf in &leaves {
            for tr in 0..n {
                if rep_monitor.covers(leaf.display_name(), TraceId::new(tr)) {
                    let in_truth = truth.iter().any(|m| {
                        m.iter().zip(&leaves).any(|(e, l)| {
                            l.class_name() == leaf.class_name() && e.trace() == TraceId::new(tr)
                        })
                    });
                    assert!(
                        in_truth,
                        "case {case}: cell ({}, T{}) covered but not in any oracle match",
                        leaf.display_name(),
                        tr
                    );
                }
            }
        }
    }
}

/// With dedup off, every terminating arrival that the oracle says
/// participates (as the causally-newest element) in a match triggers
/// at least one found match at that arrival.
#[test]
fn every_completing_arrival_is_detected() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0xA11 ^ case);
        let (n, steps) = random_computation(&mut rng);
        let pat_idx = rng.gen_range(0..PATTERNS.len());

        let poet = run_steps(n, &steps);
        let all: Vec<Event> = poet.store().iter_arrival().cloned().collect();
        let pattern = Pattern::parse(PATTERNS[pat_idx]).unwrap();
        let truth = oracle_matches(&pattern, &all);

        let pattern2 = Pattern::parse(PATTERNS[pat_idx]).unwrap();
        let mut monitor = Monitor::with_config(
            pattern2,
            n as usize,
            MonitorConfig {
                dedup: false,
                policy: SubsetPolicy::PerArrival,
                ..MonitorConfig::default()
            },
        );
        let mut found_at: Vec<u64> = Vec::new(); // arrival positions with found matches
        for (i, e) in all.iter().enumerate() {
            let before = monitor.stats().matches_found;
            let _ = monitor.observe(e);
            if monitor.stats().matches_found > before {
                found_at.push(i as u64);
            }
        }
        // For each oracle match, its delivery-last constituent position
        // must be an arrival where the monitor found something.
        for m in &truth {
            let last_pos = m
                .iter()
                .map(|e| all.iter().position(|x| x.id() == e.id()).unwrap())
                .max()
                .unwrap() as u64;
            assert!(
                found_at.contains(&last_pos),
                "case {case}: match completing at arrival {last_pos} was not detected \
                 (pattern {pat_idx})"
            );
        }
    }
}

/// Delivery-order independence of *detection*: every valid
/// linearization agrees on whether the pattern occurred, and any
/// covered (class, trace) cell is justified by the oracle. (Exactly
/// *which* representative cells a run covers is best-effort and may
/// legitimately vary with delivery order, as in the paper.)
#[test]
fn detection_is_linearization_independent() {
    use ocep_poet::Linearizer;
    for case in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0x11DE ^ case);
        let (n, steps) = random_computation(&mut rng);
        let pat_idx = rng.gen_range(0..PATTERNS.len());
        let seed_a = rng.gen_range(0u64..64);
        let seed_b = rng.gen_range(0u64..64);

        let poet = run_steps(n, &steps);
        let all: Vec<Event> = poet.store().iter_arrival().cloned().collect();
        let pattern = Pattern::parse(PATTERNS[pat_idx]).unwrap();
        let truth = oracle_matches(&pattern, &all);

        let run = |seed: u64| {
            let lin = Linearizer::new(poet.store()).with_seed(seed).linearize();
            let pattern = Pattern::parse(PATTERNS[pat_idx]).unwrap();
            let mut monitor = Monitor::new(pattern, n as usize);
            for e in &lin {
                let _ = monitor.observe(e);
            }
            let mut cells = Vec::new();
            for leaf in monitor.pattern().leaves() {
                for tr in 0..n {
                    if monitor.covers(leaf.display_name(), TraceId::new(tr)) {
                        cells.push((leaf.class_name().to_owned(), tr));
                    }
                }
            }
            cells.sort();
            cells.dedup();
            (monitor.stats().matches_found > 0, cells)
        };
        let (found_a, cells_a) = run(seed_a);
        let (found_b, cells_b) = run(seed_b);
        assert_eq!(found_a, !truth.is_empty(), "case {case}");
        assert_eq!(found_b, !truth.is_empty(), "case {case}");
        // Cell soundness for both orders, at class granularity.
        let leaves = pattern.leaves();
        for cells in [&cells_a, &cells_b] {
            for (class, tr) in cells {
                let ok = truth.iter().any(|m| {
                    m.iter()
                        .zip(leaves)
                        .any(|(e, l)| l.class_name() == class && e.trace() == TraceId::new(*tr))
                });
                assert!(
                    ok,
                    "case {case}: covered cell ({class}, T{tr}) not in oracle"
                );
            }
        }
    }
}
