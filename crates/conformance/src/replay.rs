//! Replayable failure dumps.
//!
//! A dump directory holds everything needed to reproduce a failing
//! case deterministically, in formats the rest of the toolchain
//! already speaks:
//!
//! * `pattern.ocep` — the pattern source, byte for byte;
//! * `trace.poet`   — the execution in the binary POET dump format
//!   ([`ocep_poet::dump`]), vector timestamps included;
//! * `meta.txt`     — `key=value` lines: the originating fuzz seed and
//!   case index, the violated invariant, and the check configuration
//!   (dedup flag, linearizer tie-break seeds).
//!
//! `ocep fuzz --replay <dir>` reloads the trio and re-runs the
//! differential check, reporting whether the recorded invariant still
//! fails.

use crate::case::Case;
use crate::diff::{check_case, CaseOutcome, CheckConfig, Invariant, Mismatch};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

fn other_err(e: impl std::fmt::Debug) -> io::Error {
    io::Error::other(format!("{e:?}"))
}

/// Writes a failure dump under `dir` (created if absent).
///
/// `meta` carries provenance pairs (e.g. `seed`, `case`) alongside the
/// mismatch and check configuration.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_dump(
    dir: &Path,
    case: &Case,
    cfg: &CheckConfig,
    mismatch: &Mismatch,
    meta: &[(&str, String)],
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("pattern.ocep"), case.pattern_src.as_bytes())?;
    let poet = case.build();
    std::fs::write(dir.join("trace.poet"), ocep_poet::dump::dump(poet.store()))?;
    let mut text = String::new();
    for (k, v) in meta {
        text.push_str(&format!("{k}={v}\n"));
    }
    text.push_str(&format!("invariant={}\n", mismatch.invariant));
    text.push_str(&format!("detail={}\n", mismatch.detail.replace('\n', " ")));
    text.push_str(&format!("dedup={}\n", cfg.dedup));
    text.push_str(&format!("lin_seed_0={}\n", cfg.lin_seeds[0]));
    text.push_str(&format!("lin_seed_1={}\n", cfg.lin_seeds[1]));
    std::fs::write(dir.join("meta.txt"), text)?;
    Ok(dir.to_path_buf())
}

/// Reloads a dump directory into a runnable case.
///
/// # Errors
///
/// Fails on missing files, a corrupt POET dump, or malformed metadata.
pub fn load_dump(dir: &Path) -> io::Result<(Case, CheckConfig, Option<Invariant>)> {
    let pattern_src = std::fs::read_to_string(dir.join("pattern.ocep"))?;
    let bytes = std::fs::read(dir.join("trace.poet"))?;
    let poet = ocep_poet::dump::reload(&bytes).map_err(other_err)?;
    let case = Case::from_store(pattern_src, poet.store());

    let meta_text = std::fs::read_to_string(dir.join("meta.txt")).unwrap_or_default();
    let meta: HashMap<&str, &str> = meta_text
        .lines()
        .filter_map(|l| l.split_once('='))
        .collect();
    let mut cfg = CheckConfig::default();
    if let Some(d) = meta.get("dedup") {
        cfg.dedup = *d == "true";
    }
    for (i, key) in ["lin_seed_0", "lin_seed_1"].iter().enumerate() {
        if let Some(s) = meta.get(key).and_then(|v| v.parse().ok()) {
            cfg.lin_seeds[i] = s;
        }
    }
    let expected = meta.get("invariant").and_then(|s| Invariant::from_name(s));
    Ok((case, cfg, expected))
}

/// The result of replaying a dump.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The invariant the dump's metadata says should fail, if any.
    pub expected: Option<Invariant>,
    /// What the differential check produced on this run.
    pub result: Result<CaseOutcome, Mismatch>,
}

impl ReplayOutcome {
    /// True when the replay failed the same invariant the dump
    /// recorded (or failed at all, when no expectation was recorded).
    #[must_use]
    pub fn reproduced(&self) -> bool {
        match (&self.result, self.expected) {
            (Err(m), Some(inv)) => m.invariant == inv,
            (Err(_), None) => true,
            (Ok(_), _) => false,
        }
    }
}

/// Loads and re-checks a dump directory.
///
/// # Errors
///
/// Fails only on I/O or decode problems; a non-reproducing case is an
/// `Ok` outcome with [`ReplayOutcome::reproduced`] `false`.
pub fn replay_dump(dir: &Path) -> io::Result<ReplayOutcome> {
    let (case, cfg, expected) = load_dump(dir)?;
    Ok(ReplayOutcome {
        expected,
        result: check_case(&case, &cfg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Action;

    fn send_then_receive() -> Case {
        Case {
            pattern_src: "A := [*, 'a', *];\nB := [*, 'b', *];\npattern := A -> B;\n".into(),
            n_traces: 2,
            actions: vec![
                Action::Send {
                    trace: 0,
                    ty: "a".into(),
                    text: "m".into(),
                },
                Action::Receive {
                    trace: 1,
                    sender: 0,
                    ty: "b".into(),
                    text: "m".into(),
                },
            ],
        }
    }

    #[test]
    fn dump_and_replay_round_trip() {
        let case = send_then_receive();
        let cfg = CheckConfig {
            dedup: false,
            lin_seeds: [7, 8],
            ..CheckConfig::default()
        };
        let mismatch = Mismatch {
            invariant: Invariant::OracleSoundness,
            detail: "synthetic\nmulti-line".into(),
        };
        let dir = std::env::temp_dir().join("ocep-conformance-replay-test");
        let _ = std::fs::remove_dir_all(&dir);
        write_dump(&dir, &case, &cfg, &mismatch, &[("seed", "42".into())]).unwrap();

        let (loaded, loaded_cfg, expected) = load_dump(&dir).unwrap();
        assert_eq!(loaded.pattern_src, case.pattern_src);
        assert_eq!(loaded.actions, case.actions);
        assert_eq!(loaded.n_traces, case.n_traces);
        assert!(!loaded_cfg.dedup);
        assert_eq!(loaded_cfg.lin_seeds, [7, 8]);
        assert_eq!(expected, Some(Invariant::OracleSoundness));

        // This case is healthy, so the replay must NOT reproduce the
        // synthetic mismatch.
        let outcome = replay_dump(&dir).unwrap();
        assert!(!outcome.reproduced());
        assert!(outcome.result.is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Dumps written while `CheckConfig` had a `parallelism` knob carry a
    /// `parallelism=` line in `meta.txt`; it is an unknown key now and
    /// must not stop the dump loading or replaying.
    #[test]
    fn dump_with_a_parallelism_line_still_loads_and_replays() {
        let case = send_then_receive();
        let mismatch = Mismatch {
            invariant: Invariant::OracleSoundness,
            detail: "synthetic".into(),
        };
        let dir = std::env::temp_dir().join("ocep-conformance-replay-legacy-meta-test");
        let _ = std::fs::remove_dir_all(&dir);
        write_dump(&dir, &case, &CheckConfig::default(), &mismatch, &[]).unwrap();
        let meta = dir.join("meta.txt");
        let mut text = std::fs::read_to_string(&meta).unwrap();
        text.push_str("parallelism=3\n");
        std::fs::write(&meta, text).unwrap();

        let (loaded, _, expected) = load_dump(&dir).unwrap();
        assert_eq!(loaded.actions, case.actions);
        assert_eq!(expected, Some(Invariant::OracleSoundness));
        let outcome = replay_dump(&dir).unwrap();
        assert!(outcome.result.is_ok(), "healthy case replays green");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
