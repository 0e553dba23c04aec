//! Deterministic-simulator corpus (tier-1).
//!
//! Replays every seed pinned in `tests/corpus/sim-seeds.txt` through
//! the whole-system simulator — the real serving engine under scripted
//! clients, all fault classes, and mid-stream kills recovered from the
//! durable log — and demands that each run agrees bit-for-bit with its
//! journal-replay oracle. A sample of seeds is run twice to pin bit-reproducibility
//! itself (same seed ⇒ identical digest).
//!
//! `OCEP_SIM_SEEDS=N` sweeps N additional unpinned seeds after the
//! corpus — the nightly depth knob (CI uses 500); it costs nothing
//! when unset.

use ocep_repro::sim::{run_sim, FaultToggles, SimConfig};

/// The chaos configuration every corpus seed is pinned under.
fn corpus_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        clients: 8,
        tails: 2,
        events: 64,
        faults: FaultToggles::all(),
        crashes: 1,
        sabotage: false,
        wal_sabotage: false,
    }
}

/// A `crash2 <seed>` corpus line: the same chaos run with 2 daemon
/// kills, so the second recovery replays a log the first one already
/// recovered and extended.
fn crash2_corpus_config(seed: u64) -> SimConfig {
    SimConfig {
        crashes: 2,
        ..corpus_config(seed)
    }
}

fn check_seed(seed: u64, reproducibility: bool) {
    let config = corpus_config(seed);
    let out = run_sim(&config);
    assert!(
        out.mismatch.is_none(),
        "sim corpus seed {seed} diverged from its oracle: {}",
        out.mismatch.unwrap()
    );
    if reproducibility {
        let again = run_sim(&config);
        assert_eq!(
            out.digest, again.digest,
            "sim corpus seed {seed} is not bit-reproducible"
        );
    }
}

#[test]
fn pinned_sim_seeds_stay_oracle_exact() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/sim-seeds.txt");
    let text = std::fs::read_to_string(&path).expect("tests/corpus/sim-seeds.txt exists");
    let mut checked = 0usize;
    let mut crashes = 0usize;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let config = if let Some(rest) = line.strip_prefix("crash2 ") {
            crash2_corpus_config(rest.trim().parse().expect("numeric crash2 seed"))
        } else {
            corpus_config(line.parse().expect("numeric seed per line"))
        };
        let seed = config.seed;
        let out = run_sim(&config);
        assert!(
            out.mismatch.is_none(),
            "sim corpus seed {seed} diverged from its oracle: {}",
            out.mismatch.unwrap()
        );
        crashes += out.crashes;
        // Every 10th pinned seed also pins bit-reproducibility.
        if checked.is_multiple_of(10) {
            let again = run_sim(&config);
            assert_eq!(
                out.digest, again.digest,
                "sim corpus seed {seed} is not bit-reproducible"
            );
        }
        checked += 1;
    }
    assert!(checked >= 50, "corpus shrank to {checked} seeds");
    assert!(
        crashes >= checked / 2,
        "only {crashes} crash/restart cycles across {checked} seeds; \
         the crash path is under-exercised"
    );
}

#[test]
fn extra_seeds_from_env_stay_oracle_exact() {
    // Nightly depth: OCEP_SIM_SEEDS=500 sweeps seeds the corpus does
    // not pin. Unset (the default), this test is free.
    let extra: u64 = std::env::var("OCEP_SIM_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    for i in 0..extra {
        // Offset past the pinned range so the sweep adds coverage.
        check_seed(1_000 + i, i.is_multiple_of(25));
    }
}
