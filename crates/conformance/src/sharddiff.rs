//! Sharded-core driver: the shard-transparency differential.
//!
//! Replays a conformance [`Case`] twice — once through in-process
//! [`MonitorSet::observe_raw`] delivery, once through an N-shard
//! [`ShardGroup`] (the engine core behind `ocep serve --shards N`) —
//! and demands **bit-identical** verdict sequences, representative
//! subsets, [`IngestStats`], and per-monitor checkpoint bytes. The
//! shard count is an implementation detail: splitting the monitors
//! across N partitions behind the one admission guard and re-merging
//! the verdict fan-in must not change a single conclusion, byte, or
//! counter.
//!
//! [`MonitorSet::observe_raw`]: ocep_core::MonitorSet::observe_raw
//! [`IngestStats`]: ocep_core::IngestStats

use crate::netdiff::{build_set, match_ids, Fingerprint, MONITOR};
use crate::{Case, Invariant, Mismatch};
use ocep_core::MonitorSet;
use ocep_net::{FaultHooks, ShardGroup};
use ocep_poet::Event;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

fn err(detail: String) -> Mismatch {
    Mismatch {
        invariant: Invariant::ShardTransparency,
        detail,
    }
}

/// The in-process oracle run: fingerprint plus the checkpoint bytes
/// the single engine would write for the monitor (`save_at`, LSN 0 —
/// no log is involved on either side of this differential).
fn oracle(case: &Case, events: &[Event]) -> Result<(Fingerprint, Vec<u8>), Mismatch> {
    let mut set = build_set(case)?;
    let mut verdicts = Vec::new();
    for e in events {
        verdicts.extend(set.observe_raw(e));
    }
    verdicts.extend(set.flush_guard());
    let monitor = set.monitor(MONITOR).expect("monitor registered");
    let checkpoint = ocep_core::save_at(monitor, &case.pattern_src, 0);
    let fp = Fingerprint {
        verdicts: verdicts
            .iter()
            .map(|(n, m)| (n.clone(), match_ids(m)))
            .collect(),
        subset: monitor.subset().iter().map(|m| match_ids(m)).collect(),
        ingest: set.ingest_stats(),
    };
    Ok((fp, checkpoint))
}

/// The sharded run: the same arrival stream through an N-shard group —
/// the one inline mode the daemon also runs — returning the merged
/// fingerprint and the monitor's checkpoint-file bytes as written by
/// [`ShardGroup::checkpoint`].
fn sharded(
    case: &Case,
    events: &[Event],
    shards: usize,
    batch: usize,
    sabotage: bool,
) -> Result<(Fingerprint, Vec<u8>), Mismatch> {
    let set: MonitorSet = build_set(case)?;
    let mut sources = HashMap::new();
    sources.insert(MONITOR.to_string(), case.pattern_src.clone());
    let mut group = ShardGroup::new(set, shards, &sources);
    group.set_fault_hooks(FaultHooks {
        misroute_next: sabotage,
        ..FaultHooks::default()
    });
    let mut verdicts = Vec::new();
    if batch <= 1 {
        for e in events {
            verdicts.extend(group.deliver("conformance", e).verdicts);
        }
    } else {
        for chunk in events.chunks(batch) {
            verdicts.extend(group.deliver_batch("conformance", chunk.to_vec()).verdicts);
        }
    }
    verdicts.extend(group.flush().verdicts);

    // Checkpoint through the real path: one `.ockp` file per monitor,
    // written into a scratch directory.
    static SCRATCH: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ocep-sharddiff-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let written = group
        .checkpoint(Some(&dir))
        .map_err(|e| err(format!("sharded checkpoint failed: {e}")))?;
    let checkpoint = match written.as_slice() {
        [path] => {
            std::fs::read(path).map_err(|e| err(format!("cannot read {}: {e}", path.display())))
        }
        other => Err(err(format!(
            "sharded checkpoint wrote {} file(s) for one monitor",
            other.len()
        ))),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let checkpoint = checkpoint?;

    let fp = Fingerprint {
        verdicts: verdicts
            .iter()
            .map(|(n, m)| (n.clone(), match_ids(m)))
            .collect(),
        subset: group
            .monitor(MONITOR)
            .map(|m| m.subset().iter().map(|m| match_ids(m)).collect())
            .unwrap_or_default(),
        ingest: group.ingest_stats(),
    };
    Ok((fp, checkpoint))
}

fn check(case: &Case, shards: usize, batch: usize, sabotage: bool) -> Result<usize, Mismatch> {
    let poet = case.build();
    let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();
    let (local, local_ckpt) = oracle(case, &events)?;
    let (shard_fp, shard_ckpt) = sharded(case, &events, shards, batch, sabotage)?;
    if let Some(d) = local.diff(&shard_fp) {
        return Err(err(format!("{shards}-shard delivery diverged: {d}")));
    }
    if local_ckpt != shard_ckpt {
        return Err(err(format!(
            "{shards}-shard checkpoint bytes diverged: {} vs {} byte(s)",
            local_ckpt.len(),
            shard_ckpt.len()
        )));
    }
    Ok(local.verdicts.len())
}

/// Checks shard transparency for one case: verdicts, subset, ingest
/// statistics, and checkpoint bytes after delivery through an
/// N-shard engine core (batched by `batch` events per frame; `0`/`1`
/// delivers single events) must equal in-process
/// [`MonitorSet::observe_raw`] delivery. Returns the number of
/// verdicts both sides agreed on.
///
/// # Errors
///
/// Returns a [`Mismatch`] with invariant
/// [`Invariant::ShardTransparency`] on any divergence,
/// [`Invariant::PatternParse`] if the case's pattern is invalid.
///
/// [`MonitorSet::observe_raw`]: ocep_core::MonitorSet::observe_raw
pub fn check_shard_transparency(
    case: &Case,
    shards: usize,
    batch: usize,
) -> Result<usize, Mismatch> {
    check(case, shards, batch, false)
}

/// [`check_shard_transparency`] with the misroute sabotage hook armed:
/// the group silently skips delivering the first data frame to the
/// shard owning the monitor. A correct differential **must** fail this
/// check — it is how the suite proves it would catch a routing bug.
///
/// # Errors
///
/// See [`check_shard_transparency`]; here an `Err` is the expected
/// outcome.
pub fn check_shard_transparency_sabotaged(
    case: &Case,
    shards: usize,
    batch: usize,
) -> Result<usize, Mismatch> {
    check(case, shards, batch, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nth_case;

    #[test]
    fn generated_cases_are_shard_transparent() {
        for i in 0..3 {
            let (case, _) = nth_case(0x0CE9_0002, i);
            for shards in [1, 2, 4] {
                check_shard_transparency(&case, shards, 1).unwrap();
                check_shard_transparency(&case, shards, 8).unwrap();
            }
        }
    }

    #[test]
    fn misroute_sabotage_is_caught() {
        // Deliver the whole workload as one frame: the misrouted frame
        // is then the entire stream, so any case with at least one
        // verdict must fail the sabotaged differential.
        for i in 0..16 {
            let (case, _) = nth_case(0x0CE9_0002, i);
            if check_shard_transparency(&case, 2, 1).unwrap() == 0 {
                continue;
            }
            assert!(
                check_shard_transparency_sabotaged(&case, 2, usize::MAX).is_err(),
                "case {i}: misrouted delivery went undetected"
            );
            return;
        }
        panic!("no verdict-bearing case in the first 16 generated cases");
    }
}
