//! Pins what the three baselines decide, by FNV-1a 64 digest.
//!
//! Over every case of `tests/corpus/seeds.txt` and the first 500
//! conformance cases of master seed 7, the digests cover:
//!
//! * `ExhaustiveMatcher::matches`: every assignment, as the event
//!   coordinates of its leaves, in enumeration order;
//! * `NaiveMatcher`: its detections, search nodes and history size after
//!   the whole arrival order;
//! * `SlidingWindowMatcher` at the paper's `n²` window: every match it
//!   reports, per arrival.
//!
//! A change to how the baselines decide a match (which relation code
//! they call, how they walk their history) passes here with every digest
//! unchanged or not at all.
//!
//! `PINS` was computed at commit cd256c6 and is not to be edited.

use ocep_repro::baselines::{ExhaustiveMatcher, NaiveMatcher, SlidingWindowMatcher};
use ocep_repro::conformance as conf;
use ocep_repro::pattern::Pattern;
use ocep_repro::poet::Event;
use std::path::Path;

const PINS: [(&str, u64); 3] = [
    ("exhaustive", 0x84203af1e1dd3249),
    ("naive", 0x726eae43b053f3b0),
    ("sliding-window", 0x01d071881f49cca4),
];

const GENERATED_SEED: u64 = 7;
const GENERATED_CASES: usize = 500;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed string, so adjacent fields cannot run together.
    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    fn assignment(&mut self, events: &[Event]) {
        let ids: Vec<String> = events.iter().map(|e| e.id().to_string()).collect();
        self.str(&ids.join(" "));
    }
}

/// The corpus cases, then the generated ones.
fn cases() -> Vec<(u64, usize)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/seeds.txt");
    let text = std::fs::read_to_string(path).expect("tests/corpus/seeds.txt exists");
    let mut out: Vec<(u64, usize)> = text
        .lines()
        .map(|raw| raw.split('#').next().unwrap_or("").trim())
        .filter(|line| !line.is_empty())
        .map(|line| {
            let (seed, index) = line.split_once(',').expect("`seed,case` line");
            (
                seed.trim().parse().expect("numeric master seed"),
                index.trim().parse().expect("numeric case index"),
            )
        })
        .collect();
    out.extend((0..GENERATED_CASES).map(|i| (GENERATED_SEED, i)));
    out
}

#[test]
fn oracle_and_baselines_are_pinned() {
    let (mut exhaustive, mut naive, mut window) = (Fnv::new(), Fnv::new(), Fnv::new());
    for (seed, index) in cases() {
        let (case, _) = conf::nth_case(seed, index);
        let label = format!("case {seed},{index}");
        for h in [&mut exhaustive, &mut naive, &mut window] {
            h.str(&label);
        }
        let pattern = Pattern::parse(&case.pattern_src).expect("generated patterns compile");
        let events: Vec<Event> = case.build().store().iter_arrival().cloned().collect();

        let all = ExhaustiveMatcher::new(&pattern).matches(&events);
        exhaustive.str(&format!("matches {}", all.len()));
        for a in &all {
            exhaustive.assignment(a);
        }

        let mut n = NaiveMatcher::new(Pattern::parse(&case.pattern_src).unwrap(), case.n_traces);
        for e in &events {
            n.observe(e);
        }
        naive.str(&format!(
            "{} {} {}",
            n.detections(),
            n.nodes(),
            n.history_size()
        ));

        let mut w = SlidingWindowMatcher::paper_sized(
            Pattern::parse(&case.pattern_src).unwrap(),
            case.n_traces,
        );
        for (i, e) in events.iter().enumerate() {
            let reported = w.observe(e);
            window.str(&format!("arrival {i} reports {}", reported.len()));
            for a in &reported {
                window.assignment(a);
            }
        }
    }
    let got = [
        ("exhaustive", exhaustive.0),
        ("naive", naive.0),
        ("sliding-window", window.0),
    ];
    if got != PINS {
        for (name, digest) in &got {
            eprintln!("    (\"{name}\", {digest:#018x}),");
        }
    }
    assert_eq!(got, PINS);
}
