//! Failure minimization and replayable dumps.
//!
//! When a simulated run mismatches its oracle, the harness greedily
//! shrinks the configuration (fewer clients, fewer fault classes,
//! fewer crashes, fewer events) while the mismatch persists — the same
//! discipline as the conformance shrinker — and writes a one-file dump
//! (`meta.txt`, sorted `key=value` lines) that `ocep sim --replay`
//! reproduces byte-for-byte.

use crate::run::{run_sim, FaultToggles, SimConfig, SimOutcome};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Re-runs the shrinker is allowed before settling on its best config.
const SHRINK_BUDGET: usize = 48;

/// A mismatching configuration plus the divergence it produced.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// The (possibly shrunk) configuration that mismatches.
    pub config: SimConfig,
    /// The mismatch description from the failing run.
    pub mismatch: String,
}

/// The result of replaying a dump directory.
#[derive(Debug)]
pub struct SimReplay {
    /// The configuration the dump recorded.
    pub config: SimConfig,
    /// The outcome of re-running it.
    pub outcome: SimOutcome,
    /// True when the re-run mismatched again (the bug reproduced).
    pub reproduced: bool,
}

/// Greedily minimizes a mismatching configuration: each candidate
/// reduction (halve clients, drop tails, disable a fault class, drop a
/// crash, halve events) is kept iff the re-run still mismatches.
/// Deterministic, and bounded by a fixed re-run budget.
#[must_use]
pub fn shrink_config(config: &SimConfig) -> SimConfig {
    let mut best = config.clone();
    let mut budget = SHRINK_BUDGET;
    let mut changed = true;
    while changed && budget > 0 {
        changed = false;
        let mut candidates: Vec<SimConfig> = Vec::new();
        if best.clients > 1 {
            let mut c = best.clone();
            c.clients = best.clients / 2;
            candidates.push(c);
        }
        if best.tails > 0 {
            let mut c = best.clone();
            c.tails = 0;
            candidates.push(c);
        }
        if best.crashes > 0 {
            let mut c = best.clone();
            c.crashes = best.crashes - 1;
            candidates.push(c);
        }
        for off in [
            |f: &mut FaultToggles| f.corrupt = false,
            |f: &mut FaultToggles| f.duplicate = false,
            |f: &mut FaultToggles| f.reorder = false,
            |f: &mut FaultToggles| f.partition = false,
            |f: &mut FaultToggles| f.stall = false,
        ] {
            let mut c = best.clone();
            off(&mut c.faults);
            if c.faults != best.faults {
                candidates.push(c);
            }
        }
        if best.events > 8 {
            let mut c = best.clone();
            c.events = best.events / 2;
            candidates.push(c);
        }
        for c in candidates {
            if budget == 0 {
                break;
            }
            budget -= 1;
            if run_sim(&c).mismatch.is_some() {
                best = c;
                changed = true;
                break;
            }
        }
    }
    best
}

fn meta_lines(failure: &SimFailure) -> String {
    let c = &failure.config;
    let mismatch = failure.mismatch.replace(['\n', '\r'], "; ");
    let mut kv = vec![
        ("clients", c.clients.to_string()),
        ("corrupt", c.faults.corrupt.to_string()),
        ("crashes", c.crashes.to_string()),
        ("duplicate", c.faults.duplicate.to_string()),
        ("events", c.events.to_string()),
        ("mismatch", mismatch),
        ("partition", c.faults.partition.to_string()),
        ("reorder", c.faults.reorder.to_string()),
        ("sabotage", c.sabotage.to_string()),
        ("seed", c.seed.to_string()),
        ("stall", c.faults.stall.to_string()),
        ("tails", c.tails.to_string()),
        ("wal_sabotage", c.wal_sabotage.to_string()),
    ];
    kv.sort();
    let mut out = String::new();
    for (k, v) in kv {
        out.push_str(k);
        out.push('=');
        out.push_str(&v);
        out.push('\n');
    }
    out
}

/// Writes `failure` as a replayable dump directory under `dir` (named
/// `sim-<seed in hex>`) and returns its path. The dump is a single
/// deterministic `meta.txt` of sorted `key=value` lines, so identical
/// failures produce byte-identical dumps.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_dump(dir: &Path, failure: &SimFailure) -> io::Result<PathBuf> {
    let dump = dir.join(format!("sim-{:016x}", failure.config.seed));
    fs::create_dir_all(&dump)?;
    fs::write(dump.join("meta.txt"), meta_lines(failure))?;
    Ok(dump)
}

/// Reads a dump directory back into the failure it recorded.
///
/// # Errors
///
/// A missing or malformed `meta.txt` (every message names the offending
/// key).
pub fn load_dump(dir: &Path) -> Result<SimFailure, String> {
    let path = dir.join("meta.txt");
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut config = SimConfig::default();
    let mut mismatch = String::new();
    for line in text.lines() {
        let Some((k, v)) = line.split_once('=') else {
            continue;
        };
        let parse_usize = |v: &str| {
            v.parse::<usize>()
                .map_err(|e| format!("bad {k} value: {e}"))
        };
        let parse_bool = |v: &str| v.parse::<bool>().map_err(|e| format!("bad {k} value: {e}"));
        match k {
            "seed" => config.seed = v.parse().map_err(|e| format!("bad seed value: {e}"))?,
            "clients" => config.clients = parse_usize(v)?,
            "tails" => config.tails = parse_usize(v)?,
            "events" => config.events = parse_usize(v)?,
            "crashes" => config.crashes = parse_usize(v)?,
            "corrupt" => config.faults.corrupt = parse_bool(v)?,
            "duplicate" => config.faults.duplicate = parse_bool(v)?,
            "reorder" => config.faults.reorder = parse_bool(v)?,
            "partition" => config.faults.partition = parse_bool(v)?,
            "stall" => config.faults.stall = parse_bool(v)?,
            "sabotage" => config.sabotage = parse_bool(v)?,
            "wal_sabotage" => config.wal_sabotage = parse_bool(v)?,
            "mismatch" => mismatch = v.to_string(),
            // Includes `shards=` and `wal=`, which older versions wrote:
            // every crash now recovers through the one log.
            _ => {}
        }
    }
    Ok(SimFailure { config, mismatch })
}

/// Re-runs a dumped configuration and reports whether the mismatch
/// reproduced.
///
/// # Errors
///
/// See [`load_dump`].
pub fn replay_dump(dir: &Path) -> Result<SimReplay, String> {
    let failure = load_dump(dir)?;
    let outcome = run_sim(&failure.config);
    let reproduced = outcome.mismatch.is_some();
    Ok(SimReplay {
        config: failure.config,
        outcome,
        reproduced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ocep-sim-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn dump_round_trips_the_config() {
        let failure = SimFailure {
            config: SimConfig {
                seed: 0xDEAD,
                clients: 3,
                tails: 1,
                events: 40,
                faults: FaultToggles {
                    corrupt: true,
                    duplicate: false,
                    reorder: true,
                    partition: false,
                    stall: true,
                },
                crashes: 2,
                sabotage: false,
                wal_sabotage: false,
            },
            mismatch: "engine vs oracle: verdicts diverged\nat 3".into(),
        };
        let dir = temp_dir("roundtrip");
        let dump = write_dump(&dir, &failure).unwrap();
        let back = load_dump(&dump).unwrap();
        assert_eq!(back.config, failure.config);
        assert_eq!(back.mismatch, "engine vs oracle: verdicts diverged; at 3");
        // Deterministic bytes: writing again changes nothing.
        let before = fs::read(dump.join("meta.txt")).unwrap();
        let dump2 = write_dump(&dir, &failure).unwrap();
        assert_eq!(before, fs::read(dump2.join("meta.txt")).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_of_older_versions_are_ignored() {
        let dir = temp_dir("legacy");
        fs::write(
            dir.join("meta.txt"),
            "crashes=2\nseed=7\nshards=4\nwal=true\nwal_sabotage=false\n",
        )
        .unwrap();
        let back = load_dump(&dir).unwrap();
        let expected = SimConfig {
            seed: 7,
            crashes: 2,
            ..SimConfig::default()
        };
        assert_eq!(back.config, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sabotaged_run_shrinks_dumps_and_replays() {
        let config = SimConfig {
            seed: 9,
            clients: 4,
            tails: 2,
            events: 48,
            faults: FaultToggles::all(),
            crashes: 1,
            sabotage: true,
            wal_sabotage: false,
        };
        let out = run_sim(&config);
        let mismatch = out.mismatch.expect("sabotage must mismatch");
        let shrunk = shrink_config(&config);
        assert!(shrunk.events <= config.events);
        assert!(shrunk.clients <= config.clients);
        let shrunk_out = run_sim(&shrunk);
        assert!(
            shrunk_out.mismatch.is_some(),
            "shrunk config must still fail"
        );
        let dir = temp_dir("shrink");
        let dump = write_dump(
            &dir,
            &SimFailure {
                config: shrunk,
                mismatch,
            },
        )
        .unwrap();
        let replay = replay_dump(&dump).unwrap();
        assert!(replay.reproduced, "replay lost the mismatch");
        let _ = fs::remove_dir_all(&dir);
    }
}
