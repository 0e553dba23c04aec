//! The seeded fuzz driver.
//!
//! Case `i` of a run with master seed `s` is generated from its own
//! PRNG seeded with `s` mixed with `i`, so any single case can be
//! regenerated without replaying the stream, and a failure report is
//! fully described by `(master seed, case index)`.

use crate::case::Case;
use crate::diff::{check_case_with_metrics, CaseOutcome, CheckConfig, Mismatch};
use crate::generate::gen_case;
use crate::replay::write_dump;
use crate::shrink::shrink_case;
use ocep_core::{MetricsSnapshot, ObsLevel};
use ocep_rng::Rng;
use std::path::PathBuf;

/// Weyl increment used to spread case indices over the seed space —
/// the same constant SplitMix64 itself advances by.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Configuration for one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: usize,
    /// Where to write failure dumps (`failure-<index>` subdirectories);
    /// `None` disables dumping.
    pub dump_dir: Option<PathBuf>,
    /// Stop after this many failures (0 means never stop early).
    pub max_failures: usize,
    /// Observability level forced onto every case's monitors. `Off`
    /// keeps the generated per-case configs untouched; `Full`
    /// additionally collects a [`FuzzReport::metrics`] aggregate.
    pub obs: ObsLevel,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 500,
            dump_dir: None,
            max_failures: 5,
            obs: ObsLevel::Off,
        }
    }
}

/// One shrunk, dumped failure.
#[derive(Debug)]
pub struct Failure {
    /// Index of the failing case within the run.
    pub case_index: usize,
    /// The derived per-case seed (regenerates the case directly).
    pub case_seed: u64,
    /// The violated invariant and its context.
    pub mismatch: Mismatch,
    /// The greedily minimized case that still fails identically.
    pub shrunk: Case,
    /// Dump directory, when dumping was enabled and succeeded.
    pub dump: Option<PathBuf>,
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases actually executed (may be short of the request when
    /// `max_failures` stops the run early).
    pub cases_run: usize,
    /// Cases in which a pattern match existed.
    pub detected: usize,
    /// Total oracle assignments across the run.
    pub truth_total: usize,
    /// All failures, in case order.
    pub failures: Vec<Failure>,
    /// Aggregated monitor metrics over the run, when
    /// [`FuzzConfig::obs`] enabled collection.
    pub metrics: Option<MetricsSnapshot>,
}

/// Derives the self-contained seed for case `i` of a run.
#[must_use]
pub fn case_seed(master: u64, i: usize) -> u64 {
    master ^ GOLDEN_GAMMA.wrapping_mul(i as u64 + 1)
}

/// Generates the `i`-th case of a run (shared by the fuzzer and any
/// test that wants to pin a specific case).
#[must_use]
pub fn nth_case(master: u64, i: usize) -> (Case, CheckConfig) {
    let mut rng = Rng::seed_from_u64(case_seed(master, i));
    let case = gen_case(&mut rng);
    let cfg = CheckConfig {
        dedup: rng.gen_bool(0.5),
        lin_seeds: [rng.next_u64(), rng.next_u64()],
        obs: ObsLevel::Off,
    };
    (case, cfg)
}

/// Runs `cfg.cases` differential checks, shrinking and dumping each
/// failure. `on_case` observes every case result (for CLI progress).
pub fn run_fuzz(
    cfg: &FuzzConfig,
    mut on_case: impl FnMut(usize, &Result<CaseOutcome, Mismatch>),
) -> FuzzReport {
    let mut report = FuzzReport::default();
    if cfg.obs.enabled() {
        report.metrics = Some(MetricsSnapshot::default());
    }
    for i in 0..cfg.cases {
        let (case, mut check_cfg) = nth_case(cfg.seed, i);
        if cfg.obs.enabled() {
            check_cfg.obs = cfg.obs;
        }
        let result = check_case_with_metrics(&case, &check_cfg, report.metrics.as_mut());
        report.cases_run += 1;
        on_case(i, &result);
        match result {
            Ok(outcome) => {
                report.truth_total += outcome.truth;
                if outcome.detected {
                    report.detected += 1;
                }
            }
            Err(mismatch) => {
                let shrunk = shrink_case(&case, &check_cfg, mismatch.invariant);
                let dump = cfg.dump_dir.as_ref().and_then(|root| {
                    write_dump(
                        &root.join(format!("failure-{i}")),
                        &shrunk,
                        &check_cfg,
                        &mismatch,
                        &[
                            ("seed", cfg.seed.to_string()),
                            ("case", i.to_string()),
                            ("case_seed", case_seed(cfg.seed, i).to_string()),
                        ],
                    )
                    .ok()
                });
                report.failures.push(Failure {
                    case_index: i,
                    case_seed: case_seed(cfg.seed, i),
                    mismatch,
                    shrunk,
                    dump,
                });
                if cfg.max_failures != 0 && report.failures.len() >= cfg.max_failures {
                    break;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_reproducible() {
        let cfg = FuzzConfig {
            seed: 9,
            cases: 20,
            dump_dir: None,
            max_failures: 0,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&cfg, |_, _| {});
        let b = run_fuzz(&cfg, |_, _| {});
        assert_eq!(a.cases_run, b.cases_run);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.truth_total, b.truth_total);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn case_seeds_are_spread() {
        let s: std::collections::HashSet<u64> = (0..100).map(|i| case_seed(0, i)).collect();
        assert_eq!(s.len(), 100);
    }

    /// The headline acceptance gate, kept cheap enough for `cargo
    /// test`: a healthy engine survives a fuzz burst with zero
    /// invariant violations. (The CLI smoke run and CI cover larger
    /// counts.)
    #[test]
    fn healthy_engine_survives_a_burst() {
        let cfg = FuzzConfig {
            seed: 0,
            cases: 60,
            dump_dir: None,
            max_failures: 0,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg, |_, _| {});
        assert_eq!(report.cases_run, 60);
        assert!(
            report.failures.is_empty(),
            "invariant violations: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.case_index, f.mismatch.to_string()))
                .collect::<Vec<_>>()
        );
        assert!(report.detected > 0, "burst never exercised a match");
    }
}
