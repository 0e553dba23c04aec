//! Differential conformance harness for the OCEP engine.
//!
//! The paper's central claims (§IV–§V) are turned into machine-checked
//! invariants over seeded random (pattern, execution) cases:
//!
//! 1. **Oracle agreement** — the online [`ocep_core::Monitor`] reports
//!    exactly the matches the [`ocep_baselines::ExhaustiveMatcher`]
//!    oracle enumerates: no false positives (every reported assignment
//!    is in the oracle set) and no false negatives (a match exists iff
//!    the monitor finds one), cross-checked against
//!    [`ocep_baselines::NaiveMatcher`] detection.
//! 2. **k·n subset bound** — under the representative policy the
//!    reported subset never exceeds `n_leaves · n_traces` (§IV-B).
//! 3. **Participation coverage** — every `(leaf, trace)` cell the
//!    monitor marks covered is justified by at least one oracle match.
//! 4. **Linearization invariance** — re-delivering the same partial
//!    order through [`ocep_poet::Linearizer`] with different tie-break
//!    seeds never changes the verdict (cf. "Worlds of Events":
//!    conclusions must be invariant across linearizations).
//!
//! On a mismatch the harness greedily shrinks the failing case (drop
//! processes, drop events, shorten the pattern) and writes a replayable
//! dump directory (`pattern.ocep` + `trace.poet` + `meta.txt`) that
//! `ocep fuzz --replay <dir>` reproduces deterministically.
//!
//! Everything is reproducible from a single `u64` seed: all randomness
//! flows from [`ocep_rng::Rng`]; the harness never consults the clock
//! or the OS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod case;
mod diff;
mod faults;
mod fuzz;
mod generate;
mod netdiff;
mod replay;
mod shrink;

pub use case::{Action, Case};
pub use diff::{
    check_case, check_case_with_metrics, CaseOutcome, CheckConfig, Invariant, Mismatch,
};
pub use faults::{
    apply_faults, check_checkpoint_restart, check_fault_case, nth_fault_case, run_fault_fuzz,
    FaultFailure, FaultFuzzConfig, FaultFuzzReport, FaultOutcome, FaultPlan, InjectedFaults,
    ReorderMode,
};
pub use fuzz::{case_seed, nth_case, run_fuzz, Failure, FuzzConfig, FuzzReport};
pub use generate::{gen_case, gen_pattern, GeneratedPattern};
pub use netdiff::{
    check_net_transparency, in_process_fingerprint, loopback_fingerprint, Fingerprint,
};
pub use replay::{load_dump, replay_dump, write_dump, ReplayOutcome};
pub use shrink::shrink_case;
