//! What a [`TraceStore`] answers, pinned to the commit before its
//! layout changed.
//!
//! The constants in `PINS` were computed at commit 3173f91, where the
//! store was one `Vec<Event>` per trace plus a vector of arrival ids,
//! and are never edited afterwards: whatever the store is made of, the
//! four simulator workloads at their default parameters and one seeded
//! six-trace recording must dump to the same bytes, arrive in the same
//! order, file the same events under each trace, linearize the same way
//! under a seed and answer every `LS(a, t)` as a brute-force scan does.
//! Only what both layouts offer is used — `len`, `get`, `iter` on a
//! trace's events — so this file compiles unchanged on either side.

use ocep_poet::{dump, Event, EventKind, Linearizer, PoetServer, TraceStore};
use ocep_rng::Rng;
use ocep_simulator::workloads::{atomicity, message_race, random_walk, replicated_service};
use ocep_vclock::{EventId, EventIndex, TraceId};

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_id(h: &mut u64, id: EventId) {
    fnv1a(h, &id.trace().as_u32().to_le_bytes());
    fnv1a(h, &id.index().get().to_le_bytes());
}

fn fnv_ids<'a>(events: impl Iterator<Item = &'a Event>) -> u64 {
    let mut h = FNV_OFFSET;
    for e in events {
        fnv_id(&mut h, e.id());
    }
    h
}

/// One seeded recording straight against the tracer: six traces, local
/// events, sends, and receives of pending sends on another trace.
fn seeded_server() -> PoetServer {
    let mut rng = Rng::seed_from_u64(0x57_0e1a);
    let mut poet = PoetServer::new(6);
    let mut pending: Vec<(EventId, u32)> = Vec::new();
    const TYPES: [&str; 4] = ["alpha", "beta", "gamma", ""];
    for _ in 0..900 {
        let t = rng.gen_range(0u32..6);
        let ty = TYPES[rng.gen_range(0usize..4)];
        let text = if rng.gen_bool(0.3) { "note" } else { "" };
        match rng.gen_range(0u32..3) {
            0 => {
                poet.record(TraceId::new(t), EventKind::Unary, ty, text);
            }
            1 => {
                let s = poet.record(TraceId::new(t), EventKind::Send, ty, text);
                pending.push((s.id(), t));
            }
            _ => match pending.iter().position(|&(_, from)| from != t) {
                Some(i) => {
                    let (send, _) = pending.swap_remove(i);
                    poet.record_receive(TraceId::new(t), send, ty, text);
                }
                None => {
                    poet.record(TraceId::new(t), EventKind::Unary, ty, text);
                }
            },
        }
    }
    poet
}

fn stores() -> Vec<(&'static str, PoetServer)> {
    vec![
        (
            "random_walk",
            random_walk::generate(&random_walk::Params::default()).poet,
        ),
        (
            "message_race",
            message_race::generate(&message_race::Params::default()).poet,
        ),
        (
            "atomicity",
            atomicity::generate(&atomicity::Params::default()).poet,
        ),
        (
            "replicated_service",
            replicated_service::generate(&replicated_service::Params::default()).poet,
        ),
        ("seeded_server", seeded_server()),
    ]
}

/// What is pinned of one store.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    events: usize,
    dump: u64,
    arrival: u64,
    /// Every trace's id sequence, each preceded by its length.
    per_trace: u64,
    /// `Linearizer::linearize` under `LINEARIZE_SEEDS`.
    linearized: [u64; 3],
    /// `least_successor(a, t)` over every (event, trace), arrival-major.
    least_successors: u64,
}

const LINEARIZE_SEEDS: [u64; 3] = [0, 7, 0xfeed];

const PINS: &[(&str, Pin)] = &[
    (
        "random_walk",
        Pin {
            events: 0x1f58,
            dump: 0x4501002675eef0c4,
            arrival: 0x34706d0b3f00c709,
            per_trace: 0x47be40a0b368e595,
            linearized: [0x26d5c795aefdbd81, 0x62c383ba5edad50d, 0xcfa3a50e4e8d68ad],
            least_successors: 0xefe38e1cf0702ed,
        },
    ),
    (
        "message_race",
        Pin {
            events: 0x8ca,
            dump: 0xcbad7ecf4619cae,
            arrival: 0xc1c5ce4d461d54af,
            per_trace: 0x1257c34926f7b2a8,
            linearized: [0xe5c46f430dbf0107, 0xa862cc688243f4f3, 0xe96c041dfd5a3287],
            least_successors: 0x6864a7c24bfe26b4,
        },
    ),
    (
        "atomicity",
        Pin {
            events: 0x10bc,
            dump: 0x7c8aeb5bdba60e8c,
            arrival: 0x571c2d408da1d86b,
            per_trace: 0x5a75f8a589c632a2,
            linearized: [0xd1a8938037427bcb, 0x23e25af2f49e5edb, 0xc8ca137c23de3cb7],
            least_successors: 0x407a7dd85d293a05,
        },
    ),
    (
        "replicated_service",
        Pin {
            events: 0x874,
            dump: 0xb6efe7f25a240d27,
            arrival: 0x7ca3d38192ef3e35,
            per_trace: 0xbe8ef101f1e5b73d,
            linearized: [0x2271c4009b9fa411, 0x133aa5bb7ac161d5, 0x29e188e97037719],
            least_successors: 0x8437d0899f593499,
        },
    ),
    (
        "seeded_server",
        Pin {
            events: 0x384,
            dump: 0xc648220f242d80a1,
            arrival: 0xd6eaeacdd04b0170,
            per_trace: 0xe38ddb6806b213f0,
            linearized: [0x3489a648fa7d7650, 0x1e21b237c9b72150, 0xebb31cb614349f10],
            least_successors: 0x48a7311bf9d0b8d0,
        },
    ),
];

/// `LS(a, t)` the slow way: the first event on `t`, other than `a`,
/// that `a` happens before.
fn least_successor_by_scan(store: &TraceStore, a: &Event, t: TraceId) -> Option<EventIndex> {
    store
        .trace_events(t)
        .iter()
        .find(|x| x.id() != a.id() && a.stamp().happens_before(x.stamp()))
        .map(Event::index)
}

fn pin_of(store: &TraceStore) -> Pin {
    let n = store.n_traces() as u32;
    let mut per_trace = FNV_OFFSET;
    for t in 0..n {
        let events = store.trace_events(TraceId::new(t));
        fnv1a(&mut per_trace, &(events.len() as u64).to_le_bytes());
        for e in events.iter() {
            fnv_id(&mut per_trace, e.id());
        }
    }
    let mut least_successors = FNV_OFFSET;
    for a in store.iter_arrival() {
        for t in (0..n).map(TraceId::new) {
            let ls = store.least_successor(a.stamp(), t);
            assert_eq!(
                ls,
                least_successor_by_scan(store, a, t),
                "LS({}, {t})",
                a.id()
            );
            fnv1a(
                &mut least_successors,
                &ls.map_or(0, EventIndex::get).to_le_bytes(),
            );
        }
    }
    Pin {
        events: store.len(),
        dump: {
            let mut h = FNV_OFFSET;
            fnv1a(&mut h, &dump::dump(store));
            h
        },
        arrival: fnv_ids(store.iter_arrival()),
        per_trace,
        linearized: LINEARIZE_SEEDS
            .map(|seed| fnv_ids(Linearizer::new(store).with_seed(seed).linearize().iter())),
        least_successors,
    }
}

#[test]
fn every_store_answers_as_it_did_before_the_layout_changed() {
    let actual: Vec<(&str, Pin)> = stores()
        .iter()
        .map(|(name, poet)| (*name, pin_of(poet.store())))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, p)| format!("    ({name:?}, {p:#x?}),\n"))
        .collect();
    assert_eq!(actual.len(), PINS.len(), "actual:\n{table}");
    for ((name, pin), (want_name, want)) in actual.iter().zip(PINS) {
        assert_eq!(name, want_name);
        assert_eq!(pin, want, "{name} moved; actual:\n{table}");
    }
}

#[test]
fn arrival_iteration_from_any_point_is_the_tail_of_the_arrival_order() {
    for (name, poet) in stores() {
        let store = poet.store();
        let all: Vec<EventId> = store.iter_arrival().map(Event::id).collect();
        let len = store.len();
        assert_eq!(all.len(), len, "{name}");
        assert_eq!(store.iter_arrival().len(), len, "{name}: exact length");
        for k in [0, 1, len - 1, len, len + 5] {
            let tail = store.iter_arrival_from(k);
            assert_eq!(tail.len(), len.saturating_sub(k), "{name} from {k}");
            let ids: Vec<EventId> = tail.map(Event::id).collect();
            assert_eq!(ids, all[k.min(len)..], "{name} from {k}");
        }
        // The arrival order is the order each trace filed its events in.
        for t in (0..store.n_traces() as u32).map(TraceId::new) {
            let filed: Vec<EventId> = store.trace_events(t).iter().map(Event::id).collect();
            let arrived: Vec<EventId> = all.iter().copied().filter(|id| id.trace() == t).collect();
            assert_eq!(filed, arrived, "{name} trace {t}");
        }
    }
}

#[test]
fn get_answers_none_outside_what_was_recorded() {
    for (name, poet) in stores() {
        let store = poet.store();
        let n = store.n_traces() as u32;
        for t in (0..n).map(TraceId::new) {
            let filed = store.trace_events(t).len() as u32;
            assert!(
                store.get(EventId::new(t, EventIndex::ZERO)).is_none(),
                "{name}"
            );
            assert!(
                store
                    .get(EventId::new(t, EventIndex::new(filed + 1)))
                    .is_none(),
                "{name}: one past the end of {t}"
            );
            for i in 1..=filed {
                let id = EventId::new(t, EventIndex::new(i));
                assert_eq!(store.get(id).map(Event::id), Some(id), "{name}");
            }
        }
        let unknown = TraceId::new(n);
        assert!(
            store
                .get(EventId::new(unknown, EventIndex::new(1)))
                .is_none(),
            "{name}"
        );
        assert_eq!(store.trace_events(unknown).len(), 0, "{name}");
    }
}

/// FNV-1a over the id order of `Linearizer::linearize` for seeds 0–63
/// over [`seeded_server`], each seed's order preceded by the seed.
/// Computed at commit c0e9392, where the linearizer kept a private
/// SplitMix64, and never edited afterwards: whatever generator it
/// draws from, every seed must shuffle the same way.
const LINEARIZER_ORDER_PIN: u64 = 0x3719_1d21_836b_2185;

#[test]
fn linearizer_order_is_pinned_for_seeds_0_to_63() {
    let poet = seeded_server();
    let mut h = FNV_OFFSET;
    for seed in 0..64u64 {
        fnv1a(&mut h, &seed.to_le_bytes());
        for e in Linearizer::new(poet.store()).with_seed(seed).linearize() {
            fnv_id(&mut h, e.id());
        }
    }
    assert_eq!(h, LINEARIZER_ORDER_PIN, "actual: {h:#018x}");
}
