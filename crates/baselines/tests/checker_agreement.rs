//! The exhaustive oracle enumerates exactly the leaf assignments that
//! `Pattern::accepts` admits, on seeded random computations and the
//! pattern families of the engine's oracle test.

use ocep_baselines::ExhaustiveMatcher;
use ocep_pattern::Pattern;
use ocep_poet::{Event, EventKind, PoetServer};
use ocep_rng::Rng;
use ocep_vclock::{EventId, TraceId};

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

const TYPES: [&str; 3] = ["a", "b", "c"];
const TEXTS: [&str; 4] = ["", "u", "T0", "T1"];

/// A random computation of up to 24 steps over 2 to 4 traces: local
/// events, and messages whose endpoints share a type.
fn random_computation(rng: &mut Rng) -> Vec<Event> {
    let n = rng.gen_range(2u32..5);
    let mut poet = PoetServer::new(n as usize);
    for _ in 0..rng.gen_range(1usize..25) {
        let ty = TYPES[rng.gen_range(0usize..TYPES.len())];
        let from = TraceId::new(rng.gen_range(0..n));
        if rng.gen_bool(0.5) {
            let text = TEXTS[rng.gen_range(0usize..TEXTS.len())];
            poet.record(from, EventKind::Unary, ty, text);
        } else {
            let send = poet.record(from, EventKind::Send, ty, "");
            let to = TraceId::new(rng.gen_range(0..n));
            if to != from {
                poet.record_receive(to, send.id(), ty, "");
            }
        }
    }
    poet.store().iter_arrival().cloned().collect()
}

/// Every shape-matching k-tuple `accepts` admits, in the oracle's
/// enumeration order.
fn admitted(pattern: &Pattern, all: &[Event]) -> Vec<Vec<EventId>> {
    let mut out = Vec::new();
    let mut tuples: Vec<Vec<Event>> = vec![Vec::new()];
    for leaf in pattern.leaves() {
        tuples = tuples
            .into_iter()
            .flat_map(|prefix| {
                all.iter().filter(|e| leaf.matches_shape(e)).map(move |e| {
                    let mut next = prefix.clone();
                    next.push(e.clone());
                    next
                })
            })
            .collect();
    }
    for tuple in tuples {
        if pattern.accepts(&tuple, all) {
            out.push(tuple.iter().map(Event::id).collect());
        }
    }
    out
}

#[test]
fn oracle_enumerates_exactly_what_accepts_admits() {
    let mut nonempty = 0;
    for case in 0..96u64 {
        let mut rng = Rng::seed_from_u64(0xC4EC ^ case);
        let all = random_computation(&mut rng);
        let src = PATTERNS[case as usize % PATTERNS.len()];
        let pattern = Pattern::parse(src).unwrap();
        let oracle: Vec<Vec<EventId>> = ExhaustiveMatcher::new(&pattern)
            .matches(&all)
            .iter()
            .map(|m| m.iter().map(Event::id).collect())
            .collect();
        assert_eq!(oracle, admitted(&pattern, &all), "case {case}: {src}");
        if !oracle.is_empty() {
            nonempty += 1;
        }
    }
    assert!(nonempty >= 24, "only {nonempty} cases hold a match");
}
