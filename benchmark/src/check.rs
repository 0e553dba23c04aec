//! The correctness gate: every pass's verdicts, representative subsets
//! and ingest counters must equal an in-process reference computed by
//! `ocep_conformance::in_process_fingerprint` on the clean
//! stream. A throughput or latency figure from a run that concluded
//! something else is meaningless, so any mismatch fails the whole run.

use crate::gen::{Input, Workload};
use ocep_conformance::{in_process_fingerprint, Fingerprint};
use ocep_core::{IngestStats, Match};
use ocep_net::ServeReport;
use ocep_poet::Event;

/// Name of the single statically registered monitor; the reference
/// side (`in_process_fingerprint`) uses the same one.
pub const MONITOR: &str = "pattern";

/// The `(trace, index)` of the event bound to each pattern leaf.
pub type Bindings = Vec<(u32, u32)>;

/// One verdict: the monitor that fired and what it bound.
pub type NamedVerdict = (String, Bindings);

pub fn match_ids(m: &Match) -> Bindings {
    m.events()
        .iter()
        .map(|e| (e.trace().as_u32(), e.index().get()))
        .collect()
}

/// The in-process reference for `input`. For a recording the events
/// come from the adapter first, exactly as the offline CLI path does.
pub fn reference(input: &Input) -> Result<Fingerprint, String> {
    let parsed: Vec<Event>;
    let events: &[Event] = match &input.text {
        Some(text) => {
            parsed = ocep_adapters::by_name("otlp")
                .expect("otlp adapter registered")
                .parse_str(text)
                .map_err(|e| format!("reference parse: {e}"))?
                .events;
            &parsed
        }
        None => &input.clean,
    };
    let fp = in_process_fingerprint(&input.pattern_src, input.n_traces, events)
        .map_err(|m| format!("reference run: {}", m.detail))?;
    if fp.verdicts.is_empty() {
        return Err("reference run reported no verdicts: the matcher would be idle".into());
    }
    Ok(fp)
}

/// Checks one in-process pass (verdict bindings in report order, final
/// subset) against the reference.
pub fn check_inproc(
    reference: &Fingerprint,
    verdicts: &[Vec<(u32, u32)>],
    subset: &[Vec<(u32, u32)>],
) -> Result<(), String> {
    if !reference.verdicts.iter().map(|(_, ids)| ids).eq(verdicts) {
        return Err(format!(
            "verdicts diverged from the reference: {} vs {}",
            verdicts.len(),
            reference.verdicts.len()
        ));
    }
    if reference.subset != subset {
        return Err("representative subset diverged from the reference".into());
    }
    Ok(())
}

/// The ingest counters a served pass must end with: the reference's
/// on a clean stream; on `served-resend-8`, the reference's admissions
/// plus exactly the injected duplicates dropped and every reordered
/// event buffered then delivered — nothing quarantined, lost or
/// degraded.
fn check_ingest(want: &IngestStats, got: &IngestStats, input: &Input) -> Result<(), String> {
    if input.duplicates == 0 && input.reorders == 0 {
        return if want == got {
            Ok(())
        } else {
            Err(format!("ingest stats diverged: {got:?} vs {want:?}"))
        };
    }
    let repaired = IngestStats {
        admitted: want.admitted,
        duplicates_dropped: input.duplicates,
        buffered: got.buffered,
        reordered_delivered: got.buffered,
        buffered_peak: got.buffered_peak,
        ..IngestStats::default()
    };
    if *got != repaired || got.buffered == 0 {
        return Err(format!(
            "resend stream was not repaired exactly: {got:?} (want admitted {} duplicates {})",
            want.admitted, input.duplicates
        ));
    }
    Ok(())
}

/// The monitors a workload runs: the one static monitor, or one per
/// tenant.
pub fn monitor_names(workload: Workload) -> Vec<String> {
    match workload.tenants() {
        0 => vec![MONITOR.to_owned()],
        n => (0..n).map(|j| format!("t{j}/deadlock")).collect(),
    }
}

/// Checks a named verdict list (report order) against the reference:
/// every monitor in `names` registered the same pattern over the same
/// stream, so each one's verdict sequence must be the reference's, and
/// nothing else may appear.
pub fn check_verdicts(
    reference: &Fingerprint,
    verdicts: &[NamedVerdict],
    names: &[String],
) -> Result<(), String> {
    let want: Vec<&Vec<(u32, u32)>> = reference.verdicts.iter().map(|(_, ids)| ids).collect();
    for name in names {
        let got: Vec<&Vec<(u32, u32)>> = verdicts
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, ids)| ids)
            .collect();
        if got != want {
            return Err(format!(
                "{name}: verdicts diverged from the reference ({} vs {})",
                got.len(),
                want.len()
            ));
        }
    }
    if verdicts.len() != want.len() * names.len() {
        return Err("verdicts from unknown monitors".into());
    }
    Ok(())
}

/// Checks one served pass's final report against the reference.
pub fn check_served(
    reference: &Fingerprint,
    report: &ServeReport,
    input: &Input,
    workload: Workload,
) -> Result<(), String> {
    let names = monitor_names(workload);
    let verdicts: Vec<NamedVerdict> = report
        .verdicts
        .iter()
        .map(|(n, m)| (n.clone(), match_ids(m)))
        .collect();
    check_verdicts(reference, &verdicts, &names)?;
    for name in &names {
        let subset = report
            .subsets
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_slice())
            .unwrap_or_default();
        if reference.subset != subset {
            return Err(format!("{name}: representative subset diverged"));
        }
    }
    check_ingest(&reference.ingest, &report.ingest, input)?;
    if report.stats.degraded || report.stats.quarantined != 0 {
        return Err("server reported degraded or quarantined ingestion".into());
    }
    Ok(())
}
