//! The differential executor: one case, four invariants.
//!
//! Truth is established by [`ExhaustiveMatcher`] over the full
//! recording; the online engine and the naive baseline must agree with
//! it, the representative subset must honor the §IV-B bound, coverage
//! cells must be justified, and re-linearizing the same partial order
//! must not change the verdict.

use crate::case::Case;
use ocep_baselines::{ExhaustiveMatcher, NaiveMatcher};
use ocep_core::{MetricsSnapshot, Monitor, MonitorConfig, ObsLevel, SubsetPolicy};
use ocep_pattern::Pattern;
use ocep_poet::{Event, Linearizer};
use ocep_vclock::EventId;
use std::collections::HashSet;
use std::fmt;

/// The invariant a mismatch violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// The pattern source failed to parse — only possible on replayed
    /// (hand-edited) dumps, never on generated cases.
    PatternParse,
    /// The monitor reported an assignment the oracle does not contain
    /// (false positive).
    OracleSoundness,
    /// The oracle contains a match the monitor never detected (false
    /// negative).
    OracleCompleteness,
    /// The naive per-arrival baseline disagrees with the oracle on
    /// whether a match exists.
    NaiveAgreement,
    /// The representative subset exceeded `k·n` (§IV-B).
    SubsetBound,
    /// A `(leaf, trace)` coverage cell is claimed but no oracle match
    /// justifies it.
    Coverage,
    /// A different linearization of the same partial order changed the
    /// verdict.
    Linearization,
    /// A guarded run over a fault-injected stream diverged from the
    /// clean-delivery run even though the guard could repair every
    /// injected fault (duplicates and causal-safe reorders, no drops).
    GuardTransparency,
    /// The guard's ingest counters disagree with the number of faults the
    /// harness actually injected.
    QuarantineAccounting,
    /// A monitor restored from a checkpoint diverged from the
    /// uninterrupted run over the same stream.
    CheckpointRestore,
    /// Delivery over the loopback OCWP transport diverged from
    /// in-process `observe_raw` delivery (verdicts, subsets, or ingest
    /// statistics).
    NetTransparency,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Invariant::PatternParse => "pattern-parse",
            Invariant::OracleSoundness => "oracle-soundness",
            Invariant::OracleCompleteness => "oracle-completeness",
            Invariant::NaiveAgreement => "naive-agreement",
            Invariant::SubsetBound => "subset-bound",
            Invariant::Coverage => "coverage",
            Invariant::Linearization => "linearization",
            Invariant::GuardTransparency => "guard-transparency",
            Invariant::QuarantineAccounting => "quarantine-accounting",
            Invariant::CheckpointRestore => "checkpoint-restore",
            Invariant::NetTransparency => "net-transparency",
        })
    }
}

impl Invariant {
    /// Parses the [`Display`](fmt::Display) form back (for replay
    /// metadata).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "pattern-parse" => Invariant::PatternParse,
            "oracle-soundness" => Invariant::OracleSoundness,
            "oracle-completeness" => Invariant::OracleCompleteness,
            "naive-agreement" => Invariant::NaiveAgreement,
            "subset-bound" => Invariant::SubsetBound,
            "coverage" => Invariant::Coverage,
            "linearization" => Invariant::Linearization,
            "guard-transparency" => Invariant::GuardTransparency,
            "quarantine-accounting" => Invariant::QuarantineAccounting,
            "checkpoint-restore" => Invariant::CheckpointRestore,
            "net-transparency" => Invariant::NetTransparency,
            _ => return None,
        })
    }
}

/// A violated invariant with human-readable context.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// What exactly disagreed.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Knobs for one differential check.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Run the engines with §VI dedup on or off.
    pub dedup: bool,
    /// Tie-break seeds for the two extra linearizations of invariant 4.
    pub lin_seeds: [u64; 2],
    /// Observability level for the monitors under test. Must never change
    /// a verdict — the metrics-transparency suite pins this by running
    /// the same cases at [`ObsLevel::Off`] and [`ObsLevel::Full`].
    pub obs: ObsLevel,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            dedup: true,
            lin_seeds: [1, 2],
            obs: ObsLevel::Off,
        }
    }
}

/// Statistics from a passing check.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseOutcome {
    /// Number of assignments in the oracle truth set.
    pub truth: usize,
    /// Matches the per-arrival monitor reported.
    pub reported: usize,
    /// Size of the representative subset after the run.
    pub subset: usize,
    /// Whether a match exists at all.
    pub detected: bool,
}

fn ids(events: &[Event]) -> Vec<EventId> {
    events.iter().map(Event::id).collect()
}

/// Runs one case through the online engine, the exhaustive oracle, and
/// the naive baseline, checking all four invariants.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_case(case: &Case, cfg: &CheckConfig) -> Result<CaseOutcome, Mismatch> {
    check_case_with_metrics(case, cfg, None)
}

/// Like [`check_case`], additionally absorbing the per-arrival and
/// representative monitors' [`Monitor::metrics`] snapshots into `metrics`
/// (when given) so callers can export what a fuzz run observed.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_case_with_metrics(
    case: &Case,
    cfg: &CheckConfig,
    mut metrics: Option<&mut MetricsSnapshot>,
) -> Result<CaseOutcome, Mismatch> {
    let parse = || {
        Pattern::parse(&case.pattern_src).map_err(|e| Mismatch {
            invariant: Invariant::PatternParse,
            detail: format!("{e:?}"),
        })
    };
    let pattern = parse()?;
    let poet = case.build();
    let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();

    // --- ground truth ------------------------------------------------
    let truth = ExhaustiveMatcher::new(&pattern).matches(&events);
    let truth_ids: HashSet<Vec<EventId>> = truth.iter().map(|a| ids(a)).collect();
    let exists = !truth.is_empty();

    // --- invariant 1a: per-arrival monitor vs oracle -----------------
    let mut per_arrival = Monitor::with_config(
        parse()?,
        case.n_traces,
        MonitorConfig {
            dedup: cfg.dedup,
            policy: SubsetPolicy::PerArrival,
            obs: cfg.obs,
        },
    );
    let mut reported = 0usize;
    for e in &events {
        for m in per_arrival.observe(e) {
            reported += 1;
            let got = ids(m.events());
            if !truth_ids.contains(&got) {
                return Err(Mismatch {
                    invariant: Invariant::OracleSoundness,
                    detail: format!(
                        "monitor reported {got:?} which is not among the {} oracle assignments",
                        truth.len()
                    ),
                });
            }
        }
    }
    if let Some(sink) = metrics.as_deref_mut() {
        sink.absorb(&per_arrival.metrics());
    }
    if exists && reported == 0 {
        return Err(Mismatch {
            invariant: Invariant::OracleCompleteness,
            detail: format!(
                "oracle holds {} assignments but the monitor reported none",
                truth.len()
            ),
        });
    }

    // --- invariant 1b: naive baseline agreement ----------------------
    let mut naive = NaiveMatcher::new(parse()?, case.n_traces);
    let mut naive_detected = false;
    for e in &events {
        naive_detected |= naive.observe(e);
    }
    if naive_detected != exists {
        return Err(Mismatch {
            invariant: Invariant::NaiveAgreement,
            detail: format!(
                "naive baseline detected={naive_detected}, oracle match exists={exists}"
            ),
        });
    }

    // --- invariants 2 + 3: representative subset ---------------------
    let mut representative = Monitor::with_config(
        parse()?,
        case.n_traces,
        MonitorConfig {
            dedup: cfg.dedup,
            policy: SubsetPolicy::Representative,
            obs: cfg.obs,
        },
    );
    let mut rep_reported = 0usize;
    for e in &events {
        for m in representative.observe(e) {
            rep_reported += 1;
            let got = ids(m.events());
            if !truth_ids.contains(&got) {
                return Err(Mismatch {
                    invariant: Invariant::OracleSoundness,
                    detail: format!("representative monitor reported non-oracle match {got:?}"),
                });
            }
        }
    }
    if let Some(sink) = metrics {
        sink.absorb(&representative.metrics());
    }
    let bound = pattern.n_leaves() * case.n_traces;
    if rep_reported > bound {
        return Err(Mismatch {
            invariant: Invariant::SubsetBound,
            detail: format!(
                "representative policy reported {rep_reported} matches, k*n bound is {bound}"
            ),
        });
    }
    let subset = representative.subset().len();
    if subset > bound {
        return Err(Mismatch {
            invariant: Invariant::SubsetBound,
            detail: format!("maintained subset holds {subset} matches, k*n bound is {bound}"),
        });
    }
    if exists && rep_reported == 0 {
        return Err(Mismatch {
            invariant: Invariant::OracleCompleteness,
            detail: "representative monitor missed an existing match".to_string(),
        });
    }
    for leaf in pattern.leaves() {
        // `covers` resolves a name to every leaf whose display *or*
        // class name matches (so "C" covers both occurrences of a
        // repeated class); mirror that group here.
        let name = leaf.display_name();
        let group: Vec<usize> = pattern
            .leaves()
            .iter()
            .filter(|l| l.display_name() == name || l.class_name() == name)
            .map(|l| l.id().as_usize())
            .collect();
        for t in 0..case.n_traces as u32 {
            let trace = ocep_vclock::TraceId::new(t);
            if representative.covers(name, trace)
                && !truth
                    .iter()
                    .any(|a| group.iter().any(|&li| a[li].trace() == trace))
            {
                return Err(Mismatch {
                    invariant: Invariant::Coverage,
                    detail: format!(
                        "cell ({name}, T{t}) claimed covered but no oracle match places \
                         any such leaf on that trace"
                    ),
                });
            }
        }
    }

    // --- invariant 4: linearization invariance -----------------------
    for &seed in &cfg.lin_seeds {
        let lin = Linearizer::new(poet.store()).with_seed(seed).linearize();
        let mut mon = Monitor::with_config(
            parse()?,
            case.n_traces,
            MonitorConfig {
                dedup: cfg.dedup,
                policy: SubsetPolicy::PerArrival,
                obs: cfg.obs,
            },
        );
        let mut detected = false;
        for e in &lin {
            for m in mon.observe(e) {
                detected = true;
                let got = ids(m.events());
                if !truth_ids.contains(&got) {
                    return Err(Mismatch {
                        invariant: Invariant::Linearization,
                        detail: format!(
                            "under tie-break seed {seed} the monitor reported non-oracle \
                             match {got:?}"
                        ),
                    });
                }
            }
        }
        if detected != exists {
            return Err(Mismatch {
                invariant: Invariant::Linearization,
                detail: format!(
                    "verdict flipped under tie-break seed {seed}: detected={detected}, \
                     oracle={exists}"
                ),
            });
        }
    }

    Ok(CaseOutcome {
        truth: truth.len(),
        reported,
        subset,
        detected: exists,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Action;

    fn matching_case() -> Case {
        Case {
            pattern_src: "A := [*, 'a', *];\nB := [*, 'b', *];\npattern := A -> B;\n".into(),
            n_traces: 2,
            actions: vec![
                Action::Send {
                    trace: 0,
                    ty: "a".into(),
                    text: "".into(),
                },
                Action::Receive {
                    trace: 1,
                    sender: 0,
                    ty: "b".into(),
                    text: "".into(),
                },
            ],
        }
    }

    #[test]
    fn a_matching_case_passes_all_invariants() {
        let outcome = check_case(&matching_case(), &CheckConfig::default()).unwrap();
        assert!(outcome.detected);
        assert_eq!(outcome.truth, 1);
        assert!(outcome.reported >= 1);
    }

    #[test]
    fn a_non_matching_case_passes_too() {
        let case = Case {
            pattern_src: "A := [*, 'a', *];\nB := [*, 'b', *];\npattern := B -> A;\n".into(),
            ..matching_case()
        };
        let outcome = check_case(&case, &CheckConfig::default()).unwrap();
        assert!(!outcome.detected);
        assert_eq!(outcome.truth, 0);
    }

    #[test]
    fn parse_failure_is_reported_not_panicked() {
        let case = Case {
            pattern_src: "pattern := ;".into(),
            n_traces: 1,
            actions: vec![],
        };
        let err = check_case(&case, &CheckConfig::default()).unwrap_err();
        assert_eq!(err.invariant, Invariant::PatternParse);
    }

    #[test]
    fn invariant_names_round_trip() {
        for inv in [
            Invariant::PatternParse,
            Invariant::OracleSoundness,
            Invariant::OracleCompleteness,
            Invariant::NaiveAgreement,
            Invariant::SubsetBound,
            Invariant::Coverage,
            Invariant::Linearization,
            Invariant::GuardTransparency,
            Invariant::QuarantineAccounting,
            Invariant::CheckpointRestore,
            Invariant::NetTransparency,
        ] {
            assert_eq!(Invariant::from_name(&inv.to_string()), Some(inv));
        }
    }
}
