//! Property tests for the tracer substrate: dump/reload round trips,
//! linearization validity, and GP/LS consistency on seeded random
//! computations.

use ocep_poet::{dump, Event, EventKind, Linearizer, PoetServer};
use ocep_rng::Rng;
use ocep_vclock::TraceId;

#[derive(Debug, Clone)]
enum Step {
    Local(u32, u8),
    Message(u32, u32, u8),
}

const TYPES: [&str; 4] = ["alpha", "beta", "gamma", ""];

fn random_computation(rng: &mut Rng) -> (u32, Vec<Step>) {
    let n = rng.gen_range(1u32..6);
    let len = rng.gen_range(0usize..80);
    let steps = (0..len)
        .map(|_| {
            let ty = rng.gen_range(0u8..4);
            if rng.gen_bool(0.5) {
                Step::Local(rng.gen_range(0..n), ty)
            } else {
                Step::Message(rng.gen_range(0..n), rng.gen_range(0..n), ty)
            }
        })
        .collect();
    (n, steps)
}

fn build(n: u32, steps: &[Step]) -> PoetServer {
    let mut poet = PoetServer::new(n as usize);
    for s in steps {
        match *s {
            Step::Local(t, ty) => {
                poet.record(TraceId::new(t), EventKind::Unary, TYPES[ty as usize], "txt");
            }
            Step::Message(from, to, ty) => {
                let s = poet.record(TraceId::new(from), EventKind::Send, TYPES[ty as usize], "");
                if from != to {
                    poet.record_receive(TraceId::new(to), s.id(), TYPES[ty as usize], "");
                }
            }
        }
    }
    poet
}

const CASES: u64 = 64;

/// dump → reload reproduces the store exactly, including re-derived
/// vector timestamps.
#[test]
fn dump_reload_round_trip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xD0D0 ^ case);
        let (n, steps) = random_computation(&mut rng);
        let poet = build(n, &steps);
        let bytes = dump::dump(poet.store());
        let reloaded = dump::reload(&bytes).expect("reload");
        assert!(
            reloaded.store().content_eq(poet.store()),
            "case {case}: reload diverged"
        );
    }
}

/// Reloading any truncated prefix fails cleanly (never panics).
#[test]
fn truncated_dumps_error_cleanly() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x7B0C ^ case);
        let (n, steps) = random_computation(&mut rng);
        let poet = build(n, &steps);
        let bytes = dump::dump(poet.store());
        let cut = rng.gen_range(0..bytes.len() as u64) as usize;
        assert!(
            dump::reload(&bytes[..cut]).is_err(),
            "case {case}: prefix {cut} accepted"
        );
    }
}

/// Every seeded linearization is a valid extension of the partial
/// order and a permutation of the full event set.
#[test]
fn linearizations_are_valid() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x11EA ^ case);
        let (n, steps) = random_computation(&mut rng);
        let poet = build(n, &steps);
        let seed = rng.gen_range(0u64..32);
        let lin = Linearizer::new(poet.store()).with_seed(seed).linearize();
        assert_eq!(lin.len(), poet.store().len(), "case {case}");
        for (i, e) in lin.iter().enumerate() {
            for later in &lin[i + 1..] {
                assert!(
                    !later.stamp().happens_before(e.stamp()),
                    "case {case}: {later} delivered after {e} yet happens before it"
                );
            }
        }
        // Permutation check.
        let mut ids: Vec<_> = lin.iter().map(Event::id).collect();
        ids.sort_unstable();
        let mut all: Vec<_> = poet.store().iter_arrival().map(Event::id).collect();
        all.sort_unstable();
        assert_eq!(ids, all, "case {case}");
    }
}

/// LS is the inverse bound of GP: for every event a and trace t, all
/// events on t strictly between GP(a,t) and LS(a,t) are concurrent
/// with a.
#[test]
fn gp_ls_window_is_exactly_the_concurrent_region() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x6715 ^ case);
        let (n, steps) = random_computation(&mut rng);
        let poet = build(n, &steps);
        let store = poet.store();
        for a in store.iter_arrival() {
            for t in 0..n {
                let t = TraceId::new(t);
                let gp = store.greatest_predecessor(a.stamp(), t);
                let ls = store.least_successor(a.stamp(), t);
                for x in store.trace_events(t).iter() {
                    let before = x.stamp().happens_before(a.stamp());
                    let after = a.stamp().happens_before(x.stamp());
                    if x.id() == a.id() {
                        continue;
                    }
                    // GP really bounds the predecessors...
                    assert_eq!(before, x.index() <= gp, "case {case}");
                    // ...and LS the successors.
                    match ls {
                        Some(ls) => assert_eq!(after, x.index() >= ls, "case {case}"),
                        None => assert!(!after, "case {case}"),
                    }
                }
            }
        }
    }
}
