//! Property tests for the trace slicer: projection preserves exactly the
//! causality that flows through kept traces. Driven by seeded
//! deterministic random computations (`ocep-rng`).

use ocep_analysis::slice;
use ocep_poet::{Event, EventKind, PoetServer};
use ocep_rng::Rng;
use ocep_vclock::TraceId;

#[derive(Debug, Clone)]
enum Step {
    Local(u32, u8),
    Message(u32, u32, u8),
}

const TYPES: [&str; 3] = ["a", "b", "c"];

fn build(n: u32, steps: &[Step]) -> PoetServer {
    let mut poet = PoetServer::new(n as usize);
    for (i, s) in steps.iter().enumerate() {
        match *s {
            Step::Local(t, ty) => {
                poet.record(
                    TraceId::new(t % n),
                    EventKind::Unary,
                    TYPES[ty as usize],
                    i.to_string(),
                );
            }
            Step::Message(from, to, ty) => {
                let (from, to) = (from % n, to % n);
                let send = poet.record(
                    TraceId::new(from),
                    EventKind::Send,
                    TYPES[ty as usize],
                    i.to_string(),
                );
                if from != to {
                    poet.record_receive(
                        TraceId::new(to),
                        send.id(),
                        TYPES[ty as usize],
                        i.to_string(),
                    );
                }
            }
        }
    }
    poet
}

fn random_computation(rng: &mut Rng) -> (u32, Vec<Step>) {
    let n = rng.gen_range(2u32..6);
    let len = rng.gen_range(1usize..50);
    let steps = (0..len)
        .map(|_| {
            let ty = rng.gen_range(0u8..3);
            if rng.gen_bool(0.5) {
                Step::Local(rng.gen_range(0..n), ty)
            } else {
                Step::Message(rng.gen_range(0..n), rng.gen_range(0..n), ty)
            }
        })
        .collect();
    (n, steps)
}

/// For every pair of kept events: if the slice says `x -> y`, the
/// original said so too (no causality is invented), and every
/// original `x -> y` realized purely through kept traces survives
/// (checked via the kept-messages path: same-trace order and kept
/// partner edges are preserved, so any violation would show up as an
/// inversion, which the first property rules out together with the
/// per-trace order check).
#[test]
fn slice_never_invents_causality() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x511C ^ case);
        let (n, steps) = random_computation(&mut rng);
        let poet = build(n, &steps);
        let keep_mask = rng.gen_range(1u32..31);
        let keep: Vec<TraceId> = (0..n)
            .filter(|t| keep_mask & (1 << t) != 0)
            .map(TraceId::new)
            .collect();
        if keep.is_empty() {
            continue;
        }
        let sliced = slice(poet.store(), &keep);

        // Map sliced events back to originals via the unique text tag.
        let original: Vec<Event> = poet.store().iter_arrival().cloned().collect();
        let find_original = |e: &Event| {
            original
                .iter()
                .find(|o| {
                    o.text() == e.text()
                        && o.ty() == e.ty()
                        && keep[e.trace().as_usize()] == o.trace()
                })
                .cloned()
                .expect("sliced event has an original")
        };

        let sliced_events: Vec<Event> = sliced.store().iter_arrival().cloned().collect();
        for x in &sliced_events {
            for y in &sliced_events {
                if x.id() == y.id() {
                    continue;
                }
                let (ox, oy) = (find_original(x), find_original(y));
                if x.stamp().happens_before(y.stamp()) {
                    assert!(
                        ox.stamp().happens_before(oy.stamp()),
                        "case {case}: slice invented {ox} -> {oy}"
                    );
                }
            }
        }

        // Per-trace event order is preserved exactly.
        for (new_t, &old_t) in keep.iter().enumerate() {
            let new_events = sliced.store().trace_events(TraceId::new(new_t as u32));
            let old_events = poet.store().trace_events(old_t);
            assert_eq!(new_events.len(), old_events.len(), "case {case}");
            for (ne, oe) in new_events.iter().zip(old_events.iter()) {
                assert_eq!(ne.ty(), oe.ty(), "case {case}");
                assert_eq!(ne.text(), oe.text(), "case {case}");
            }
        }

        // Kept partner edges survive with the same endpoints.
        for (ne, oe) in sliced_events
            .iter()
            .zip(original.iter().filter(|o| keep.contains(&o.trace())))
        {
            assert_eq!(ne.ty(), oe.ty(), "case {case}");
            if let (Some(np), Some(op)) = (ne.partner(), oe.partner()) {
                // Partner trace maps through the renumbering.
                assert_eq!(keep[np.trace().as_usize()], op.trace(), "case {case}");
            }
        }
    }
}
