//! The fault-injection acceptance gate: over hundreds of pinned seeded
//! cases, a monitor fronted by the admission guard must be transparent
//! to every repairable fault plan (duplicates + causal-safe reorders,
//! no drops), verdict-preserving under arbitrary in-window shuffles,
//! exact in its quarantine accounting, and panic-free on lossy degraded
//! plans, whose missing events fill the reorder buffer until it rejects.

use ocep_conformance::{
    check_fault_case, nth_fault_case, run_fault_fuzz, FaultFuzzConfig, FaultPlan, ReorderMode,
};

/// ≥200 pinned cases, split across two master seeds so a generator
/// regression on one stream cannot hide the whole property.
#[test]
fn guarded_ingestion_is_transparent_across_pinned_seeds() {
    let mut detected = 0;
    let mut degraded = 0;
    let mut totals = ocep_conformance::InjectedFaults::default();
    for seed in [0u64, 1] {
        let cfg = FaultFuzzConfig {
            seed,
            cases: 110,
            max_failures: 0,
        };
        let report = run_fault_fuzz(&cfg, |_, _| {});
        assert_eq!(report.cases_run, 110);
        assert!(
            report.failures.is_empty(),
            "seed {seed}: fault-differential violations: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.case_index, f.plan, f.mismatch.to_string()))
                .collect::<Vec<_>>()
        );
        detected += report.detected;
        degraded += report.degraded_cases;
        totals.duplicates += report.injected.duplicates;
        totals.reorders += report.injected.reorders;
        totals.drops += report.injected.drops;
        totals.corrupt += report.injected.corrupt;
    }
    // The run must actually have exercised every fault category.
    assert!(detected > 0, "no pinned case ever detected a match");
    assert!(degraded > 0, "no pinned case exercised a lossy plan");
    assert!(totals.duplicates > 0, "no duplicates were ever injected");
    assert!(totals.reorders > 0, "no reorders were ever injected");
    assert!(totals.drops > 0, "no drops were ever injected");
    assert!(totals.corrupt > 0, "no corrupt events were ever injected");
}

/// A corrupt-clock-only plan: every injected event must be quarantined
/// and counted, and the stream must otherwise be untouched.
#[test]
fn corrupt_clock_events_are_all_quarantined() {
    let mut injected_total = 0;
    for i in 0..40 {
        let (case, cfg, _) = nth_fault_case(2, i);
        let plan = FaultPlan {
            seed: 0xC0FFEE ^ i as u64,
            duplicate_p: 0.0,
            reorder_window: 0,
            reorder: ReorderMode::CausalSafe,
            drop_p: 0.0,
            corrupt_clock_p: 0.4,
        };
        let outcome =
            check_fault_case(&case, &cfg, &plan).unwrap_or_else(|m| panic!("case {i}: {m}"));
        assert_eq!(outcome.quarantined, outcome.injected.corrupt);
        injected_total += outcome.injected.corrupt;
    }
    assert!(
        injected_total > 0,
        "the sweep never injected a corrupt event"
    );
}

/// Arbitrary in-window shuffles: the guard restores *a* causal
/// linearization, so detection verdicts must hold across the board.
#[test]
fn arbitrary_shuffles_preserve_the_verdict() {
    let mut exercised = 0;
    for i in 0..40 {
        let (case, cfg, mut plan) = nth_fault_case(3, i);
        plan.reorder = ReorderMode::Arbitrary;
        plan.reorder_window = 4;
        plan.drop_p = 0.0;
        let outcome =
            check_fault_case(&case, &cfg, &plan).unwrap_or_else(|m| panic!("case {i}: {m}"));
        if outcome.detected {
            exercised += 1;
        }
    }
    assert!(exercised > 0, "shuffled cases never exercised a match");
}
