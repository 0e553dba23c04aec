//! Soundness under overflow: whatever a full reorder buffer does to a
//! stream, every verdict the guarded set reports while the stream is
//! still arriving must be a match of the whole clean computation.
//!
//! The plans reorder arbitrarily in windows of 6 — deeper than the
//! smaller guard capacities, so the buffer overflows — with and without
//! drops. `Pattern::accepts` over the complete clean computation decides
//! each reported match, so a verdict built on a delivery that was not a
//! causal linearization (a receive before its send, a `~>` witness not
//! yet delivered) fails here. The end-of-stream `flush_guard` is left
//! out: it delivers whatever is still buffered out of causal order by
//! design, and the run is marked degraded for it.

use ocep_conformance::{apply_faults, nth_fault_case, FaultPlan, ReorderMode};
use ocep_core::{GuardConfig, MonitorConfig, MonitorSet, SubsetPolicy};
use ocep_pattern::Pattern;
use ocep_poet::Event;

#[test]
fn mid_stream_verdicts_are_matches_of_the_clean_computation() {
    let mut runs = 0;
    let mut overflowing = 0;
    let mut verdicts = 0;
    for capacity in [1usize, 4, 16] {
        for drop_p in [0.0, 0.1] {
            for master in 0..4u64 {
                for i in 0..200 {
                    let (case, cfg, base) = nth_fault_case(master, i);
                    let plan = FaultPlan {
                        reorder: ReorderMode::Arbitrary,
                        reorder_window: 6,
                        drop_p,
                        ..base
                    };
                    let events: Vec<Event> = case.build().store().iter_arrival().cloned().collect();
                    let (faulted, _) = apply_faults(&events, case.n_traces, &plan);

                    let mut set = MonitorSet::new(case.n_traces);
                    let config = MonitorConfig {
                        dedup: cfg.dedup,
                        policy: SubsetPolicy::Representative,
                        ..MonitorConfig::default()
                    };
                    set.add_with_config(
                        "case",
                        Pattern::parse(&case.pattern_src).expect("a generated pattern parses"),
                        config,
                    );
                    set.enable_guard(GuardConfig {
                        capacity,
                        ..GuardConfig::default()
                    });
                    for e in &faulted {
                        for (_, m) in set.observe_raw(e) {
                            verdicts += 1;
                            assert!(
                                m.pattern().accepts(m.events(), &events),
                                "capacity {capacity}, drop {drop_p}, case ({master}, {i}), \
                                 {plan}: reported {m}, which the clean computation refutes"
                            );
                        }
                    }
                    runs += 1;
                    if set.ingest_stats().overflow_rejected > 0 {
                        overflowing += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 4_800);
    // The property must have been exercised: runs whose buffer
    // overflowed, and verdicts reported before the end of the stream.
    assert!(overflowing > 1_000, "only {overflowing} runs overflowed");
    assert!(verdicts > 1_000, "only {verdicts} mid-stream verdicts");
}
