//! `apply_faults` output, pinned: the length and FNV-1a of the perturbed
//! stream plus the exact [`InjectedFaults`] of every case in
//! `tests/corpus/fault-seeds.txt`, and of a sweep over both reorder
//! modes, four reorder windows and every drop/duplicate/corrupt rate
//! combination on a random walk of over 1,000 events.
//!
//! The values were written by the `Vec::insert`/`Vec::remove`
//! implementation. Any rewrite of the injector must reproduce them bit
//! for bit: the fault corpus, the simulator seeds and the benchmark's
//! resend stream are all defined by what this function returns.

use ocep_conformance::{apply_faults, nth_fault_case, FaultPlan, InjectedFaults, ReorderMode};
use ocep_poet::codec::{put_event_record, ClockForm, StrForm};
use ocep_poet::Event;
use ocep_simulator::workloads::random_walk;

/// `(len, fnv1a64 of every event record, duplicates, reorders, drops,
/// corrupt)`.
type Row = (usize, u64, [u64; 4]);

/// Per `master_seed,case_index` line of `tests/corpus/fault-seeds.txt`.
const CORPUS_PINS: &[((u64, usize), Row)] = &[
    ((0, 0), (35, 10378312862451321052, [10, 3, 0, 3])),
    ((0, 1), (27, 12028869120809836050, [3, 0, 0, 4])),
    ((0, 2), (24, 7328787119101697849, [2, 0, 0, 0])),
    ((0, 3), (13, 14040183575256068585, [4, 0, 2, 0])),
    ((0, 7), (27, 6573676405483982973, [3, 1, 5, 0])),
    ((0, 11), (27, 6970834127988344485, [1, 7, 3, 0])),
    ((0, 19), (59, 15948173085544221984, [11, 0, 13, 4])),
    ((0, 23), (31, 12016534974819562630, [0, 1, 7, 2])),
    ((0, 42), (11, 10435431737322518101, [0, 0, 0, 1])),
    ((0, 55), (23, 12246577084931100103, [3, 4, 4, 2])),
    ((1, 0), (50, 4628058609081702376, [10, 0, 0, 2])),
    ((1, 3), (16, 5019514343972771523, [1, 2, 3, 1])),
    ((1, 9), (20, 2980859382737034846, [4, 3, 0, 1])),
    ((1, 27), (29, 12087029158217476889, [3, 7, 9, 3])),
    ((1, 31), (39, 4009896887781482018, [5, 5, 3, 5])),
    ((42, 4), (21, 17846173768638821017, [5, 0, 0, 1])),
    ((42, 7), (13, 6236052913780804150, [3, 2, 0, 1])),
    ((1234567, 2), (21, 442638299406040791, [2, 5, 0, 2])),
    ((1234567, 15), (84, 15797975141180030495, [2, 0, 15, 10])),
];

/// Per `(reorder mode, window)`, folded over the eight rate combinations.
const SWEEP_PINS: &[((&str, usize), Row)] = &[
    (
        ("causal-safe", 0),
        (13534, 4458443714191532789, [1601, 0, 600, 965]),
    ),
    (
        ("causal-safe", 1),
        (13654, 12037772188683157200, [1683, 1583, 613, 1016]),
    ),
    (
        ("causal-safe", 3),
        (13644, 14724490069719562224, [1690, 1538, 575, 961]),
    ),
    (
        ("causal-safe", 5),
        (13620, 2135112622558868547, [1632, 1553, 538, 958]),
    ),
    (
        ("arbitrary", 0),
        (13534, 4458443714191532789, [1601, 0, 600, 965]),
    ),
    (
        ("arbitrary", 1),
        (13671, 4122809081626259884, [1691, 3891, 599, 1011]),
    ),
    (
        ("arbitrary", 3),
        (13566, 15068429927840754120, [1674, 2286, 607, 931]),
    ),
    (
        ("arbitrary", 5),
        (13589, 14393600486759423790, [1628, 1653, 556, 949]),
    ),
];

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn row(events: &[Event], injected: InjectedFaults) -> Row {
    let mut buf = Vec::new();
    for e in events {
        put_event_record(&mut buf, e, StrForm::Inline, &mut ClockForm::Full);
    }
    (
        events.len(),
        fnv(FNV_OFFSET, &buf),
        [
            injected.duplicates,
            injected.reorders,
            injected.drops,
            injected.corrupt,
        ],
    )
}

fn corpus_lines() -> Vec<(u64, usize)> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/fault-seeds.txt"
    );
    let text = std::fs::read_to_string(path).expect("tests/corpus/fault-seeds.txt exists");
    text.lines()
        .map(|raw| raw.split('#').next().unwrap_or("").trim())
        .filter(|line| !line.is_empty())
        .map(|line| {
            let (seed, index) = line.split_once(',').expect("`seed,case` per line");
            (
                seed.trim().parse().expect("numeric master seed"),
                index.trim().parse().expect("numeric case index"),
            )
        })
        .collect()
}

#[test]
fn corpus_fault_plans_inject_the_pinned_streams() {
    let mut got = Vec::new();
    for (master, index) in corpus_lines() {
        let (case, _, plan) = nth_fault_case(master, index);
        let events: Vec<Event> = case.build().store().iter_arrival().cloned().collect();
        let (out, injected) = apply_faults(&events, case.n_traces, &plan);
        got.push(((master, index), row(&out, injected)));
    }
    assert!(got.len() >= 10, "fault corpus shrank to {}", got.len());
    assert_eq!(got, CORPUS_PINS, "{got:#?}");
}

#[test]
fn swept_fault_plans_inject_the_pinned_streams() {
    let walk = random_walk::generate(&random_walk::Params {
        n_processes: 6,
        rounds: 60,
        seed: 7,
        ..random_walk::Params::default()
    });
    let events: Vec<Event> = walk.poet.store().iter_arrival().cloned().collect();
    assert!(events.len() >= 1_000, "{} events", events.len());
    let mut got = Vec::new();
    for (name, mode) in [
        ("causal-safe", ReorderMode::CausalSafe),
        ("arbitrary", ReorderMode::Arbitrary),
    ] {
        for window in [0, 1, 3, 5] {
            let (mut len, mut h, mut counts) = (0, FNV_OFFSET, [0; 4]);
            for (k, drop_p) in [0.0, 0.1].into_iter().enumerate() {
                for (j, duplicate_p) in [0.0, 0.3].into_iter().enumerate() {
                    for (i, corrupt_clock_p) in [0.0, 0.15].into_iter().enumerate() {
                        let plan = FaultPlan {
                            seed: (window * 8 + k * 4 + j * 2 + i) as u64,
                            duplicate_p,
                            reorder_window: window,
                            reorder: mode,
                            drop_p,
                            corrupt_clock_p,
                        };
                        let (out, injected) = apply_faults(&events, 6, &plan);
                        let (n, digest, c) = row(&out, injected);
                        len += n;
                        h = fnv(h, &digest.to_le_bytes());
                        for (total, x) in counts.iter_mut().zip(c) {
                            *total += x;
                        }
                    }
                }
            }
            got.push(((name, window), (len, h, counts)));
        }
    }
    assert_eq!(got, SWEEP_PINS, "{got:#?}");
}
