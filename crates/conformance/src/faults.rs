//! Fault injection: seeded transport-level perturbation of a clean
//! linearization, differentially checked against the admission guard.
//!
//! A [`FaultPlan`] perturbs the arrival stream the way a lossy transport
//! would — duplicates, reorders, drops, and corrupt-clock garbage — all
//! derived from one seed. The harness then runs the *same* case twice:
//! once clean through a bare [`Monitor`], once faulted through a
//! [`MonitorSet`] of that one pattern behind its
//! [`AdmissionGuard`](ocep_core::AdmissionGuard), and demands:
//!
//! * **Guard transparency** — for repairable plans (duplicates plus
//!   causal-safe reorders, no drops) the guarded run's reported matches,
//!   representative subset, coverage cells, and history are *identical*
//!   to the clean run's. Causal-safe reorders only displace an event
//!   behind followers that causally depend on it, so the guard's
//!   deliverability rule provably restores the exact clean order.
//! * **Linearization-level transparency** — for arbitrary in-window
//!   shuffles the guard still delivers *some* causal linearization, so
//!   the detection verdict must not change (the same invariance the
//!   clean fuzzer checks across tie-break seeds).
//! * **Quarantine accounting** — every injected corrupt-clock event is
//!   quarantined and counted, exactly; every injected duplicate is
//!   dropped, exactly; nothing is silently lost.
//! * **No panics** — degraded plans (with drops, which can fill the
//!   reorder buffer) must still terminate with consistent counters.
//!
//! Checkpoint/restore rides the same differential style:
//! [`check_checkpoint_restart`] cuts a run mid-stream, round-trips the
//! guarded set through [`save_set_at`] and [`load_set_at`], and requires
//! the resumed run to be indistinguishable — down to byte-identical
//! final checkpoints — from the uninterrupted one.

use crate::case::Case;
use crate::diff::{CheckConfig, Invariant, Mismatch};
use crate::fuzz::{case_seed, nth_case};
use ocep_core::{
    load_set_at, save_set_at, GuardConfig, Monitor, MonitorConfig, MonitorSet, SubsetPolicy,
};
use ocep_pattern::Pattern;
use ocep_poet::{Event, EventKind};
use ocep_rng::Rng;
use ocep_vclock::{EventId, EventIndex, StampedEvent, TraceId, VectorClock};
use std::collections::HashMap;

/// Salt mixed into [`case_seed`] so a fault plan's randomness is
/// independent of the case generator's.
const FAULT_SALT: u64 = 0x8f5c_28f5_c28f_5c29;

/// How injected reorders displace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorderMode {
    /// Delay an event only behind followers that causally depend on it.
    /// The guard provably restores the exact original order, so the
    /// differential check demands full equality.
    #[default]
    CausalSafe,
    /// Shuffle disjoint windows arbitrarily. The guard restores *a*
    /// causal linearization (not necessarily the original), so only the
    /// detection verdict is compared.
    Arbitrary,
}

impl std::fmt::Display for ReorderMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReorderMode::CausalSafe => "causal-safe",
            ReorderMode::Arbitrary => "arbitrary",
        })
    }
}

impl ReorderMode {
    /// Parses the [`Display`](std::fmt::Display) form (for replay
    /// metadata).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "causal-safe" => ReorderMode::CausalSafe,
            "arbitrary" => ReorderMode::Arbitrary,
            _ => return None,
        })
    }
}

/// A seeded description of transport faults to inject into a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault-injection randomness.
    pub seed: u64,
    /// Per-event probability of re-sending a copy at a later offset.
    pub duplicate_p: f64,
    /// Maximum displacement window for reorders (`0` disables them).
    pub reorder_window: usize,
    /// How reorders displace events.
    pub reorder: ReorderMode,
    /// Per-event probability of losing the event entirely. Non-zero
    /// plans are *degraded*: the differential check relaxes to
    /// accounting consistency and panic-freedom.
    pub drop_p: f64,
    /// Per-event probability of injecting an additional corrupt-clock
    /// event next to it (never replacing it).
    pub corrupt_clock_p: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            duplicate_p: 0.1,
            reorder_window: 3,
            reorder: ReorderMode::CausalSafe,
            drop_p: 0.0,
            corrupt_clock_p: 0.05,
        }
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={} dup={:.3} reorder={}x{} drop={:.3} corrupt={:.3}",
            self.seed,
            self.duplicate_p,
            self.reorder,
            self.reorder_window,
            self.drop_p,
            self.corrupt_clock_p
        )
    }
}

/// Exact counts of the faults a plan injected into one stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Duplicate copies inserted after their originals.
    pub duplicates: u64,
    /// Reorder displacements performed (windows, not events).
    pub reorders: u64,
    /// Events removed from the stream.
    pub drops: u64,
    /// Corrupt-clock events inserted.
    pub corrupt: u64,
}

/// Synthesizes one guaranteed-invalid event near `template`: an
/// out-of-range trace id, a wrong clock dimension, or a Fidge-violating
/// own-trace entry — one of the three categories the guard quarantines.
fn corrupt_event(template: &Event, n_traces: usize, rng: &mut Rng) -> Event {
    let stamp = match rng.gen_range(0u32..3) {
        0 => {
            // Trace id outside the computation.
            let bad = TraceId::new(n_traces as u32 + rng.gen_range(0u32..4));
            StampedEvent::new_unchecked(
                EventId::new(bad, EventIndex::new(1)),
                VectorClock::new(n_traces),
            )
        }
        1 => {
            // Clock of the wrong dimension.
            StampedEvent::new_unchecked(template.id(), VectorClock::new(n_traces + 1))
        }
        _ => {
            // Own-trace entry disagrees with the index.
            let mut entries = template.clock().entries().to_vec();
            entries[template.trace().as_usize()] += 7;
            StampedEvent::new_unchecked(template.id(), VectorClock::from_entries(entries))
        }
    };
    Event::new(stamp, EventKind::Unary, "corrupt", "", None)
}

/// Applies `plan` to a clean arrival stream, returning the perturbed
/// stream and the exact injected-fault counts.
///
/// Fault order is fixed — reorder, drop, duplicate, corrupt — so that
/// duplicates always copy surviving events and corrupt events are purely
/// additive; this is what makes the accounting in [`check_fault_case`]
/// exact.
#[must_use]
pub fn apply_faults(
    events: &[Event],
    n_traces: usize,
    plan: &FaultPlan,
) -> (Vec<Event>, InjectedFaults) {
    let mut rng = Rng::seed_from_u64(plan.seed);
    let mut injected = InjectedFaults::default();
    let mut out: Vec<Event> = events.to_vec();

    // --- reorders in disjoint windows --------------------------------
    if plan.reorder_window > 0 {
        let mut i = 0;
        while i < out.len() {
            if !rng.gen_bool(0.5) {
                i += 1;
                continue;
            }
            match plan.reorder {
                ReorderMode::CausalSafe => {
                    // Displace out[i] behind the longest run of followers
                    // that all causally depend on it (O(1) per test).
                    let mut d = 0;
                    while d < plan.reorder_window
                        && i + d + 1 < out.len()
                        && out[i].stamp().happens_before(out[i + d + 1].stamp())
                    {
                        d += 1;
                    }
                    if d > 0 {
                        out[i..=i + d].rotate_left(1);
                        injected.reorders += 1;
                        i += d; // windows stay disjoint
                    }
                }
                ReorderMode::Arbitrary => {
                    let end = (i + plan.reorder_window + 1).min(out.len());
                    if end - i > 1 {
                        rng.shuffle(&mut out[i..end]);
                        injected.reorders += 1;
                        i = end - 1;
                    }
                }
            }
            i += 1;
        }
    }

    // --- drops -------------------------------------------------------
    if plan.drop_p > 0.0 {
        out.retain(|_| {
            let dropped = rng.gen_bool(plan.drop_p);
            injected.drops += u64::from(dropped);
            !dropped
        });
    }

    // --- duplicates (strictly after their originals) -----------------
    if plan.duplicate_p > 0.0 {
        let mut inserts: Vec<(usize, Event)> = Vec::new();
        for (i, e) in out.iter().enumerate() {
            if rng.gen_bool(plan.duplicate_p) {
                let offset = rng.gen_range(1usize..plan.reorder_window.max(1) + 4);
                inserts.push(((i + offset).min(out.len()), e.clone()));
            }
        }
        // Every copy lands at an index strictly greater than its
        // original's.
        injected.duplicates += inserts.len() as u64;
        out = insert_back_to_front(out, inserts);
    }

    // --- corrupt-clock events (additive, never replacing) ------------
    if plan.corrupt_clock_p > 0.0 && !out.is_empty() {
        let mut inserts: Vec<(usize, Event)> = Vec::new();
        for (i, e) in out.iter().enumerate() {
            if rng.gen_bool(plan.corrupt_clock_p) {
                let ev = corrupt_event(e, n_traces, &mut rng);
                inserts.push((i, ev));
            }
        }
        injected.corrupt += inserts.len() as u64;
        out = insert_back_to_front(out, inserts);
    }

    (out, injected)
}

/// `out.insert(p, e)` for each of `inserts` from last to first — so each
/// position refers to the sequence before any insert — on a gap buffer:
/// `front` is the sequence up to the gap, `back` the rest reversed, and
/// moving the gap costs the distance moved. Duplicate positions are not
/// monotone (an offset of up to `window + 3` follows each original), so
/// this replays the inserts rather than merging by original index; the
/// gap still moves a bounded distance per insert, which keeps the whole
/// replay linear.
fn insert_back_to_front(mut front: Vec<Event>, inserts: Vec<(usize, Event)>) -> Vec<Event> {
    if inserts.is_empty() {
        return front;
    }
    // Sized once for the result, which it becomes: the sequence reversed.
    let mut back: Vec<Event> = Vec::with_capacity(front.len() + inserts.len());
    for (p, e) in inserts.into_iter().rev() {
        while front.len() > p {
            back.extend(front.pop());
        }
        while front.len() < p {
            front.extend(back.pop());
        }
        back.push(e);
    }
    back.extend(front.drain(..).rev());
    back.reverse();
    back
}

/// Statistics from a passing fault check.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultOutcome {
    /// What the plan actually injected.
    pub injected: InjectedFaults,
    /// Matches the clean run reported.
    pub clean_reported: usize,
    /// Whether a match was detected (identical on both sides).
    pub detected: bool,
    /// Events the guard quarantined (equals `injected.corrupt` on
    /// non-degraded plans).
    pub quarantined: u64,
    /// Whether the guarded run ended in degraded mode.
    pub degraded: bool,
}

fn parse_pattern(case: &Case) -> Result<Pattern, Mismatch> {
    Pattern::parse(&case.pattern_src).map_err(|e| Mismatch {
        invariant: Invariant::PatternParse,
        detail: format!("{e:?}"),
    })
}

fn monitor_config(cfg: &CheckConfig) -> MonitorConfig {
    MonitorConfig {
        dedup: cfg.dedup,
        policy: SubsetPolicy::Representative,
        ..MonitorConfig::default()
    }
}

/// The name the case's pattern is registered under in a guarded set.
const CASE: &str = "case";

/// A set of the case's one pattern behind an admission guard — where a
/// raw stream enters.
fn guarded_set_for(
    case: &Case,
    cfg: &CheckConfig,
    guard: GuardConfig,
) -> Result<MonitorSet, Mismatch> {
    let mut set = MonitorSet::new(case.n_traces);
    set.add_with_config(CASE, parse_pattern(case)?, monitor_config(cfg));
    set.enable_guard(guard);
    Ok(set)
}

fn only_monitor(set: &MonitorSet) -> &Monitor {
    set.monitor(CASE)
        .expect("the set was built with the case's pattern")
}

fn verdicts(reports: Vec<(String, ocep_core::Match)>) -> impl Iterator<Item = String> {
    reports.into_iter().map(|(_, m)| m.to_string())
}

fn sorted_subset(m: &Monitor) -> Vec<String> {
    let mut out: Vec<String> = m.subset().iter().map(|m| m.to_string()).collect();
    out.sort();
    out
}

fn coverage_cells(m: &Monitor, n_traces: usize) -> Vec<(String, u32)> {
    let mut cells = Vec::new();
    for leaf in m.pattern().leaves() {
        let name = leaf.display_name().to_string();
        for t in 0..n_traces as u32 {
            if m.covers(&name, TraceId::new(t)) {
                cells.push((name.clone(), t));
            }
        }
    }
    cells
}

/// Runs one case clean and one fault-injected-but-guarded, checking
/// guard transparency and quarantine accounting (see the module docs).
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_fault_case(
    case: &Case,
    cfg: &CheckConfig,
    plan: &FaultPlan,
) -> Result<FaultOutcome, Mismatch> {
    let poet = case.build();
    let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();
    let (faulted, injected) = apply_faults(&events, case.n_traces, plan);

    // --- clean, unguarded reference ----------------------------------
    let mut clean = Monitor::with_config(parse_pattern(case)?, case.n_traces, monitor_config(cfg));
    let mut clean_verdicts: Vec<String> = Vec::new();
    for e in &events {
        for m in clean.observe(e) {
            clean_verdicts.push(m.to_string());
        }
    }

    // --- guarded run over the faulted stream -------------------------
    // Capacity comfortably exceeds the worst premature backlog a
    // repairable plan can create (one reorder window's worth).
    let guard_cfg = GuardConfig {
        capacity: (2 * plan.reorder_window + 16).max(32),
    };
    let mut guarded_set = guarded_set_for(case, cfg, guard_cfg)?;
    let mut guarded_verdicts: Vec<String> = Vec::new();
    for e in &faulted {
        guarded_verdicts.extend(verdicts(guarded_set.observe_raw(e)));
    }
    guarded_verdicts.extend(verdicts(guarded_set.flush_guard()));
    let ingest = guarded_set.ingest_stats();
    let leftover = guarded_set.guard().map_or(0, |g| g.buffered());
    let guarded = only_monitor(&guarded_set);

    // --- quarantine accounting (all plans) ---------------------------
    if ingest.quarantined() != injected.corrupt {
        return Err(Mismatch {
            invariant: Invariant::QuarantineAccounting,
            detail: format!(
                "injected {} corrupt events but the guard quarantined {} \
                 (trace-range {}, clock-width {}, non-monotone {})",
                injected.corrupt,
                ingest.quarantined(),
                ingest.quarantined_trace_range,
                ingest.quarantined_clock_width,
                ingest.quarantined_non_monotone
            ),
        });
    }

    if plan.drop_p > 0.0 {
        // Degraded plan: the stream genuinely lost information, so the
        // only demands are panic-freedom (we got here) and conservation:
        // every valid event is admitted (degraded flushes deliver through
        // the same path), dropped as a duplicate, rejected by a full
        // buffer, or still buffered.
        let sent = faulted.len() as u64 - injected.corrupt;
        let accounted = ingest.admitted
            + ingest.duplicates_dropped
            + ingest.overflow_rejected
            + leftover as u64;
        if accounted != sent {
            return Err(Mismatch {
                invariant: Invariant::QuarantineAccounting,
                detail: format!(
                    "degraded plan: {sent} valid events sent but only {accounted} accounted \
                     for (admitted {}, dup-dropped {}, rejected {})",
                    ingest.admitted, ingest.duplicates_dropped, ingest.overflow_rejected
                ),
            });
        }
        return Ok(FaultOutcome {
            injected,
            clean_reported: clean_verdicts.len(),
            detected: !clean_verdicts.is_empty(),
            quarantined: ingest.quarantined(),
            degraded: ingest.is_degraded(),
        });
    }

    // --- repairable plans: exact accounting --------------------------
    if ingest.duplicates_dropped != injected.duplicates {
        return Err(Mismatch {
            invariant: Invariant::QuarantineAccounting,
            detail: format!(
                "injected {} duplicates but the guard dropped {}",
                injected.duplicates, ingest.duplicates_dropped
            ),
        });
    }
    if ingest.admitted != events.len() as u64 {
        return Err(Mismatch {
            invariant: Invariant::QuarantineAccounting,
            detail: format!(
                "{} clean events but the guard admitted {}",
                events.len(),
                ingest.admitted
            ),
        });
    }
    if leftover != 0 {
        return Err(Mismatch {
            invariant: Invariant::GuardTransparency,
            detail: format!("{leftover} events still buffered after a complete, no-drop stream"),
        });
    }

    // --- guard transparency ------------------------------------------
    match plan.reorder {
        ReorderMode::CausalSafe => {
            // The guard restores the exact clean order: everything the
            // monitor computes must be identical, in order.
            if clean_verdicts != guarded_verdicts {
                return Err(Mismatch {
                    invariant: Invariant::GuardTransparency,
                    detail: format!(
                        "reported matches diverged: clean {clean_verdicts:?} vs guarded \
                         {guarded_verdicts:?}"
                    ),
                });
            }
            if sorted_subset(&clean) != sorted_subset(guarded) {
                return Err(Mismatch {
                    invariant: Invariant::GuardTransparency,
                    detail: "representative subsets diverged".to_string(),
                });
            }
            if coverage_cells(&clean, case.n_traces) != coverage_cells(guarded, case.n_traces) {
                return Err(Mismatch {
                    invariant: Invariant::GuardTransparency,
                    detail: "coverage cells diverged".to_string(),
                });
            }
            if clean.history_size() != guarded.history_size() {
                return Err(Mismatch {
                    invariant: Invariant::GuardTransparency,
                    detail: format!(
                        "history size diverged: clean {} vs guarded {}",
                        clean.history_size(),
                        guarded.history_size()
                    ),
                });
            }
        }
        ReorderMode::Arbitrary => {
            // The guard delivered *some* causal linearization; the
            // verdict is linearization-invariant.
            if clean_verdicts.is_empty() != guarded_verdicts.is_empty() {
                return Err(Mismatch {
                    invariant: Invariant::GuardTransparency,
                    detail: format!(
                        "verdict flipped under arbitrary reorder: clean detected={}, \
                         guarded detected={}",
                        !clean_verdicts.is_empty(),
                        !guarded_verdicts.is_empty()
                    ),
                });
            }
        }
    }

    Ok(FaultOutcome {
        injected,
        clean_reported: clean_verdicts.len(),
        detected: !clean_verdicts.is_empty(),
        quarantined: ingest.quarantined(),
        degraded: ingest.is_degraded(),
    })
}

/// Cuts a run at `cut`, round-trips the guarded set through a
/// checkpoint, resumes, and compares against the uninterrupted run —
/// per-arrival verdicts, final subset, and byte-identical final
/// checkpoints.
///
/// # Errors
///
/// Returns a [`Mismatch`] (invariant `checkpoint-restore`) on any
/// divergence, including a checkpoint that fails to decode.
pub fn check_checkpoint_restart(
    case: &Case,
    cfg: &CheckConfig,
    cut: usize,
) -> Result<(), Mismatch> {
    let poet = case.build();
    let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();
    let cut = cut.min(events.len());

    let mut straight = guarded_set_for(case, cfg, GuardConfig::default())?;
    let mut resumed = guarded_set_for(case, cfg, GuardConfig::default())?;
    let sources = HashMap::from([(CASE.to_string(), case.pattern_src.clone())]);

    let mut straight_verdicts: Vec<String> = Vec::new();
    let mut resumed_verdicts: Vec<String> = Vec::new();
    for e in &events[..cut] {
        straight_verdicts.extend(verdicts(straight.observe_raw(e)));
        resumed_verdicts.extend(verdicts(resumed.observe_raw(e)));
    }

    let bytes = save_set_at(&resumed, &sources, 0);
    let loaded = load_set_at(&bytes).map_err(|e| Mismatch {
        invariant: Invariant::CheckpointRestore,
        detail: format!("checkpoint failed to restore: {e}"),
    })?;
    let mut resumed = loaded.set;
    if loaded.sources != [(CASE.to_string(), case.pattern_src.clone())] {
        return Err(Mismatch {
            invariant: Invariant::CheckpointRestore,
            detail: "embedded pattern source changed across the round trip".to_string(),
        });
    }

    for e in &events[cut..] {
        straight_verdicts.extend(verdicts(straight.observe_raw(e)));
        resumed_verdicts.extend(verdicts(resumed.observe_raw(e)));
    }

    if straight_verdicts != resumed_verdicts {
        return Err(Mismatch {
            invariant: Invariant::CheckpointRestore,
            detail: format!(
                "verdicts diverged after restart at event {cut}: straight \
                 {straight_verdicts:?} vs resumed {resumed_verdicts:?}"
            ),
        });
    }
    if sorted_subset(only_monitor(&straight)) != sorted_subset(only_monitor(&resumed)) {
        return Err(Mismatch {
            invariant: Invariant::CheckpointRestore,
            detail: format!("final subsets diverged after restart at event {cut}"),
        });
    }
    let a = save_set_at(&straight, &sources, 0);
    let b = save_set_at(&resumed, &sources, 0);
    if a != b {
        return Err(Mismatch {
            invariant: Invariant::CheckpointRestore,
            detail: format!(
                "final checkpoints are not bit-identical after restart at event {cut} \
                 ({} vs {} bytes)",
                a.len(),
                b.len()
            ),
        });
    }
    Ok(())
}

/// Configuration for one fault-injection fuzz run.
#[derive(Debug, Clone)]
pub struct FaultFuzzConfig {
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Number of cases to generate, perturb, and check.
    pub cases: usize,
    /// Stop after this many failures (0 means never stop early).
    pub max_failures: usize,
}

impl Default for FaultFuzzConfig {
    fn default() -> Self {
        FaultFuzzConfig {
            seed: 0,
            cases: 200,
            max_failures: 5,
        }
    }
}

/// One failed fault-differential case. Fault cases replay directly from
/// `(master seed, index)` via [`nth_fault_case`], so no shrink/dump
/// machinery is needed.
#[derive(Debug)]
pub struct FaultFailure {
    /// Index of the failing case within the run.
    pub case_index: usize,
    /// The derived per-case seed.
    pub case_seed: u64,
    /// The plan that was injected.
    pub plan: FaultPlan,
    /// The violated invariant and its context.
    pub mismatch: Mismatch,
}

/// Aggregate result of a fault-injection fuzz run.
#[derive(Debug, Default)]
pub struct FaultFuzzReport {
    /// Cases actually executed.
    pub cases_run: usize,
    /// Cases whose clean run detected a match.
    pub detected: usize,
    /// Sum of all injected fault counts across the run.
    pub injected: InjectedFaults,
    /// Cases run with a degraded (lossy) plan.
    pub degraded_cases: usize,
    /// All failures, in case order.
    pub failures: Vec<FaultFailure>,
}

/// Generates the `i`-th fault case of a run: the same case and check
/// config as [`nth_case`] plus a derived plan.
/// Every 4th case is degraded (non-zero drop probability) to exercise
/// lost events and buffer overflow; the rest are repairable and checked
/// strictly.
#[must_use]
pub fn nth_fault_case(master: u64, i: usize) -> (Case, CheckConfig, FaultPlan) {
    let (case, cfg) = nth_case(master, i);
    let mut rng = Rng::seed_from_u64(case_seed(master, i) ^ FAULT_SALT);
    let degraded = i % 4 == 3;
    let plan = FaultPlan {
        seed: rng.next_u64(),
        duplicate_p: 0.3 * rng.gen_f64(),
        reorder_window: rng.gen_range(0usize..6),
        reorder: if rng.gen_bool(0.25) {
            ReorderMode::Arbitrary
        } else {
            ReorderMode::CausalSafe
        },
        drop_p: if degraded {
            0.05 + 0.15 * rng.gen_f64()
        } else {
            0.0
        },
        corrupt_clock_p: 0.15 * rng.gen_f64(),
    };
    (case, cfg, plan)
}

/// Runs `cfg.cases` fault-differential checks. `on_case` observes every
/// case result (for CLI progress).
pub fn run_fault_fuzz(
    cfg: &FaultFuzzConfig,
    mut on_case: impl FnMut(usize, &Result<FaultOutcome, Mismatch>),
) -> FaultFuzzReport {
    let mut report = FaultFuzzReport::default();
    for i in 0..cfg.cases {
        let (case, check_cfg, plan) = nth_fault_case(cfg.seed, i);
        let result = check_fault_case(&case, &check_cfg, &plan);
        report.cases_run += 1;
        on_case(i, &result);
        match result {
            Ok(outcome) => {
                if outcome.detected {
                    report.detected += 1;
                }
                if plan.drop_p > 0.0 {
                    report.degraded_cases += 1;
                }
                report.injected.duplicates += outcome.injected.duplicates;
                report.injected.reorders += outcome.injected.reorders;
                report.injected.drops += outcome.injected.drops;
                report.injected.corrupt += outcome.injected.corrupt;
            }
            Err(mismatch) => {
                report.failures.push(FaultFailure {
                    case_index: i,
                    case_seed: case_seed(cfg.seed, i),
                    plan,
                    mismatch,
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
    use crate::case::Action;

    fn message_case() -> Case {
        Case {
            pattern_src: "A := [*, 'a', *];\nB := [*, 'b', *];\npattern := A -> B;\n".into(),
            n_traces: 2,
            actions: vec![
                Action::Send {
                    trace: 0,
                    ty: "a".into(),
                    text: "".into(),
                },
                Action::Local {
                    trace: 0,
                    ty: "x".into(),
                    text: "".into(),
                },
                Action::Receive {
                    trace: 1,
                    sender: 0,
                    ty: "b".into(),
                    text: "".into(),
                },
                Action::Local {
                    trace: 1,
                    ty: "b".into(),
                    text: "tail".into(),
                },
            ],
        }
    }

    #[test]
    fn apply_faults_is_reproducible_and_additive() {
        let case = message_case();
        let poet = case.build();
        let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();
        let plan = FaultPlan {
            seed: 42,
            duplicate_p: 0.5,
            reorder_window: 2,
            corrupt_clock_p: 0.5,
            ..FaultPlan::default()
        };
        let (a, ia) = apply_faults(&events, case.n_traces, &plan);
        let (b, ib) = apply_faults(&events, case.n_traces, &plan);
        assert_eq!(ia, ib);
        assert_eq!(
            a.iter().map(ToString::to_string).collect::<Vec<_>>(),
            b.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        assert_eq!(
            a.len(),
            events.len() + ia.duplicates as usize + ia.corrupt as usize
        );
    }

    #[test]
    fn causal_safe_reorder_only_displaces_behind_dependents() {
        let case = message_case();
        let poet = case.build();
        let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();
        let plan = FaultPlan {
            seed: 7,
            duplicate_p: 0.0,
            reorder_window: 3,
            corrupt_clock_p: 0.0,
            ..FaultPlan::default()
        };
        let (faulted, _) = apply_faults(&events, case.n_traces, &plan);
        // Same multiset of events, possibly different order.
        let mut a: Vec<String> = events.iter().map(ToString::to_string).collect();
        let mut b: Vec<String> = faulted.iter().map(ToString::to_string).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Every displaced event only moved behind followers that depend
        // on it: in the faulted stream, whenever x precedes y but was
        // after y in the clean stream, y must happen-before x.
        for (i, x) in faulted.iter().enumerate() {
            for y in &faulted[i + 1..] {
                let clean_x = events.iter().position(|e| e.id() == x.id()).unwrap();
                let clean_y = events.iter().position(|e| e.id() == y.id()).unwrap();
                if clean_y < clean_x {
                    assert!(
                        y.stamp().happens_before(x.stamp()),
                        "unsafe displacement: {} overtaken by non-dependent {}",
                        x.id(),
                        y.id()
                    );
                }
            }
        }
    }

    #[test]
    fn a_repairable_plan_is_transparent() {
        let plan = FaultPlan {
            seed: 3,
            duplicate_p: 0.4,
            reorder_window: 3,
            corrupt_clock_p: 0.3,
            ..FaultPlan::default()
        };
        let outcome = check_fault_case(&message_case(), &CheckConfig::default(), &plan).unwrap();
        assert!(outcome.detected);
        assert_eq!(outcome.quarantined, outcome.injected.corrupt);
    }

    #[test]
    fn checkpoint_restart_is_indistinguishable() {
        let case = message_case();
        for cut in 0..=4 {
            check_checkpoint_restart(&case, &CheckConfig::default(), cut)
                .unwrap_or_else(|m| panic!("cut {cut}: {m}"));
        }
    }

    #[test]
    fn fault_runs_are_reproducible() {
        let cfg = FaultFuzzConfig {
            seed: 11,
            cases: 12,
            max_failures: 0,
        };
        let a = run_fault_fuzz(&cfg, |_, _| {});
        let b = run_fault_fuzz(&cfg, |_, _| {});
        assert_eq!(a.cases_run, b.cases_run);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn reorder_mode_names_round_trip() {
        for mode in [ReorderMode::CausalSafe, ReorderMode::Arbitrary] {
            assert_eq!(ReorderMode::from_name(&mode.to_string()), Some(mode));
        }
        assert_eq!(ReorderMode::from_name("nope"), None);
    }
}
