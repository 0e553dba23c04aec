//! Workload inputs, generated from the run's seed and nothing else.
//!
//! The program under test never sees the seed — only the events (or
//! recording text) built here. Sizes are pinned constants: the figures
//! in `README.md` are only comparable across commits because every run
//! offers the same amount of work.

use ocep_adapters::testgen;
use ocep_conformance::{apply_faults, FaultPlan, ReorderMode};
use ocep_poet::{Event, EventKind};
use ocep_simulator::workloads::{random_walk, replicated_service};

/// The five workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InprocDeadlock50,
    ServedClean8,
    ServedResend8,
    ServedTenants16,
    IngestOtlpOffline,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::InprocDeadlock50,
        Workload::ServedClean8,
        Workload::ServedResend8,
        Workload::ServedTenants16,
        Workload::IngestOtlpOffline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InprocDeadlock50 => "inproc-deadlock-50",
            Workload::ServedClean8 => "served-clean-8",
            Workload::ServedResend8 => "served-resend-8",
            Workload::ServedTenants16 => "served-tenants-16",
            Workload::IngestOtlpOffline => "ingest-otlp-offline",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Served workloads go through a loopback OCWP server; the other
    /// two call the matcher in-process.
    pub fn is_served(self) -> bool {
        matches!(
            self,
            Workload::ServedClean8 | Workload::ServedResend8 | Workload::ServedTenants16
        )
    }

    /// Events per `EventBatchD` frame.
    pub fn frame_events(self) -> usize {
        match self {
            Workload::ServedTenants16 => 64,
            _ => 256,
        }
    }

    /// Fixed offered rate of the open-loop phase, events per second.
    /// Pinned, never derived from a measurement: a slower commit must
    /// show as higher latency, not as a gentler test.
    pub fn open_loop_rate(self) -> f64 {
        match self {
            Workload::ServedTenants16 => 30_000.0,
            _ => 300_000.0,
        }
    }

    /// Tenants registering the workload's pattern over OCWP (0: one
    /// statically registered monitor).
    pub fn tenants(self) -> usize {
        match self {
            Workload::ServedTenants16 => 16,
            _ => 0,
        }
    }
}

/// Stream sizes. `Smoke` is for `--smoke` and the tests: the same code
/// paths on streams small enough to finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Every `RESEND_EVERY`-th frame of `served-resend-8` is sent twice.
const RESEND_EVERY: usize = 64;

/// `apply_faults` inserts duplicates with `Vec::insert`, quadratic in
/// the slice it is given; faulting the stream in segments keeps set-up
/// linear and leaves every fault inside its segment.
const FAULT_SEGMENT: usize = 1024;

/// One workload's generated input.
#[derive(Default)]
pub struct Input {
    pub n_traces: usize,
    pub pattern_src: String,
    /// The distinct events, in a causal linearization — what an
    /// in-process reference is fed. Empty when the input is `text`.
    pub clean: Vec<Event>,
    /// What a producer sends, frame by frame (served workloads). Equal
    /// to `clean` chunked, except on `served-resend-8`.
    pub frames: Vec<Vec<Event>>,
    /// Recording text (`ingest-otlp-offline`): parsed inside the timed
    /// region, because parsing is the work being measured there.
    pub text: Option<String>,
    /// Events in `frames` beyond the distinct ones.
    pub duplicates: u64,
    /// Causal-order-violating displacements injected into `frames`.
    pub reorders: u64,
    /// Violations the generator injected (must be non-zero, or the
    /// matcher under test would be idle).
    pub truth: usize,
}

impl Input {
    /// Events offered per pass, duplicates included (for a recording,
    /// one per line that is not a comment).
    pub fn offered(&self) -> usize {
        match (&self.text, self.frames.is_empty()) {
            (Some(text), _) => text.lines().filter(|l| !l.starts_with('#')).count(),
            (None, true) => self.clean.len(),
            (None, false) => self.frames.iter().map(Vec::len).sum(),
        }
    }
}

fn sub_seed(seed: u64, k: u64) -> u64 {
    // SplitMix64 finalizer: nearby seeds give unrelated streams.
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn chunked(events: &[Event], n: usize) -> Vec<Vec<Event>> {
    events.chunks(n).map(<[Event]>::to_vec).collect()
}

fn deadlock_walk(seed: u64, n: usize, rounds: usize, prob: f64) -> (Vec<Event>, String, usize) {
    let g = random_walk::generate(&random_walk::Params {
        n_processes: n,
        rounds,
        walk_steps: 2,
        cycle_len: 8,
        deadlock_prob: prob,
        seed,
    });
    let events = g.poet.store().iter_arrival().cloned().collect();
    (events, g.pattern_src, g.truth.len())
}

fn mpi_stream(seed: u64, events: usize) -> (Vec<Event>, usize) {
    let rec = testgen::mpi_soak(seed, 8, events);
    let out = rec.parse("mpi");
    assert_eq!(out.n_traces, 8, "mpi recording keeps its rank count");
    (out.events, rec.truth)
}

/// Generates `workload`'s input from `seed`.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Input {
    let full = size == Size::Full;
    let frame = workload.frame_events();
    match workload {
        Workload::InprocDeadlock50 => {
            // Fig 6 at 50 traces. One episode of 8 blocked sends per
            // ~3 rounds: ~3.6k search arrivals in ~300k events per pass.
            let rounds = if full { 1500 } else { 150 };
            let (clean, pattern_src, truth) = deadlock_walk(sub_seed(seed, 1), 50, rounds, 0.3);
            Input {
                n_traces: 50,
                pattern_src,
                clean,
                truth,
                ..Input::default()
            }
        }
        Workload::ServedClean8 | Workload::ServedResend8 => {
            let target = if full { 300_000 } else { 20_000 };
            // Both use sub-seed 2: the resend workload perturbs the
            // *same* stream the clean one sends, so their difference is
            // the slow path and nothing else.
            let (clean, truth) = mpi_stream(sub_seed(seed, 2), target);
            let pattern_src = random_walk::cycle_pattern(3);
            let (frames, duplicates, reorders) = if workload == Workload::ServedResend8 {
                resend_frames(&clean, sub_seed(seed, 3), frame)
            } else {
                (chunked(&clean, frame), 0, 0)
            };
            Input {
                n_traces: 8,
                pattern_src,
                clean,
                frames,
                duplicates,
                reorders,
                truth,
                ..Input::default()
            }
        }
        Workload::ServedTenants16 => {
            let rounds = if full { 2300 } else { 150 };
            let (clean, pattern_src, truth) = deadlock_walk(sub_seed(seed, 4), 10, rounds, 0.03);
            Input {
                n_traces: 10,
                pattern_src,
                frames: chunked(&clean, frame),
                clean,
                truth,
                ..Input::default()
            }
        }
        Workload::IngestOtlpOffline => {
            let synchs = if full { 600 } else { 30 };
            let rec = testgen::zookeeper_otlp(sub_seed(seed, 5), 20, synchs, 0.05);
            Input {
                n_traces: rec.n_traces,
                pattern_src: replicated_service::ordering_pattern(),
                // No `clean`: parsing is this workload's timed work,
                // not set-up.
                text: Some(rec.text),
                truth: rec.truth,
                ..Input::default()
            }
        }
    }
}

/// `served-resend-8`'s frames: seeded duplicates and causal-safe
/// reorders (no drops, no corruption — every fault is one the guard
/// repairs exactly), then every [`RESEND_EVERY`]-th frame sent twice,
/// as a producer that lost an ack would.
fn resend_frames(clean: &[Event], seed: u64, frame: usize) -> (Vec<Vec<Event>>, u64, u64) {
    let mut faulty = Vec::with_capacity(clean.len() + clean.len() / 16);
    let (mut duplicates, mut reorders) = (0u64, 0u64);
    for (i, segment) in clean.chunks(FAULT_SEGMENT).enumerate() {
        let plan = FaultPlan {
            seed: sub_seed(seed, i as u64),
            duplicate_p: 0.05,
            reorder_window: 3,
            reorder: ReorderMode::CausalSafe,
            drop_p: 0.0,
            corrupt_clock_p: 0.0,
        };
        let (out, injected) = apply_faults(segment, 8, &plan);
        duplicates += injected.duplicates;
        reorders += injected.reorders;
        faulty.extend(out);
    }
    let mut frames = Vec::new();
    for (i, chunk) in faulty.chunks(frame).enumerate() {
        frames.push(chunk.to_vec());
        if i % RESEND_EVERY == RESEND_EVERY - 1 {
            frames.push(chunk.to_vec());
            duplicates += chunk.len() as u64;
        }
    }
    (frames, duplicates, reorders)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn eat(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a 64 over every field of every event, in order: two streams
/// with equal digests are the same input.
pub fn digest<'a>(events: impl IntoIterator<Item = &'a Event>) -> u64 {
    let mut h = FNV_OFFSET;
    for e in events {
        eat(&mut h, &e.trace().as_u32().to_le_bytes());
        eat(&mut h, &e.index().get().to_le_bytes());
        eat(
            &mut h,
            &[match e.kind() {
                EventKind::Send => 0,
                EventKind::Receive => 1,
                EventKind::Unary => 2,
            }],
        );
        eat(&mut h, e.ty().as_bytes());
        eat(&mut h, &[0xff]);
        eat(&mut h, e.text().as_bytes());
        eat(&mut h, &[0xff]);
        if let Some(p) = e.partner() {
            eat(&mut h, &p.trace().as_u32().to_le_bytes());
            eat(&mut h, &p.index().get().to_le_bytes());
        }
        for v in e.clock().entries() {
            eat(&mut h, &v.to_le_bytes());
        }
    }
    h
}

/// Digest of everything a workload sends, observes or parses.
pub fn input_digest(input: &Input) -> u64 {
    match (&input.text, input.frames.is_empty()) {
        (Some(text), _) => {
            let mut h = FNV_OFFSET;
            eat(&mut h, text.as_bytes());
            h
        }
        (None, true) => digest(&input.clean),
        (None, false) => digest(input.frames.iter().flatten()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_different_seed_different_stream() {
        for w in Workload::ALL {
            let a = input_digest(&generate(w, 7, Size::Smoke));
            let b = input_digest(&generate(w, 7, Size::Smoke));
            let c = input_digest(&generate(w, 8, Size::Smoke));
            assert_eq!(a, b, "{}: same seed must give the same input", w.name());
            assert_ne!(a, c, "{}: the seed must reach the input", w.name());
        }
    }

    #[test]
    fn resend_perturbs_the_clean_stream_without_losing_events() {
        let clean = generate(Workload::ServedClean8, 3, Size::Smoke);
        let resend = generate(Workload::ServedResend8, 3, Size::Smoke);
        assert_eq!(digest(&clean.clean), digest(&resend.clean));
        assert!(resend.duplicates > 0 && resend.reorders > 0);
        assert_eq!(
            resend.offered() as u64,
            clean.offered() as u64 + resend.duplicates
        );
        assert_ne!(input_digest(&clean), input_digest(&resend));
    }

    #[test]
    fn every_workload_injects_violations() {
        for w in Workload::ALL {
            let input = generate(w, 1, Size::Smoke);
            assert!(input.truth > 0, "{} would leave the matcher idle", w.name());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
