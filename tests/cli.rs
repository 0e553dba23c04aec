//! Integration tests for the `ocep` command-line tool: the full
//! record → validate → check pipeline through the real binary.

use std::process::Command;

mod common;

fn ocep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ocep"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ocep-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn record_info_validate_check_pipeline() {
    let dump = tmp("pipeline.poet");
    let out = ocep()
        .args([
            "record-demo",
            "ordering",
            dump.to_str().unwrap(),
            "--seed",
            "7",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("violations injected"), "{stdout}");

    let info = ocep()
        .args(["info", dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(info.status.success());
    let info_out = String::from_utf8_lossy(&info.stdout);
    assert!(info_out.contains("recv_snapshot"), "{info_out}");

    let pattern = format!("{}.pattern", dump.display());
    let validate = ocep().args(["validate", &pattern]).output().unwrap();
    assert!(validate.status.success());
    let v_out = String::from_utf8_lossy(&validate.stdout);
    assert!(v_out.contains("[terminating]"), "{v_out}");
    assert!(v_out.contains("pattern is valid"), "{v_out}");

    let check = ocep()
        .args(["check", &pattern, dump.to_str().unwrap(), "--stats"])
        .output()
        .unwrap();
    // A found violation is exit code 1 (0 is reserved for "no match").
    assert_eq!(check.status.code(), Some(1));
    let c_out = String::from_utf8_lossy(&check.stdout);
    assert!(c_out.contains("matches found"), "{c_out}");
    assert!(
        c_out.contains("match: {"),
        "violations must be reported: {c_out}"
    );
}

#[test]
fn check_exit_codes_separate_clean_and_violation() {
    let dump = tmp("exit-codes.poet");
    ocep()
        .args([
            "record-demo",
            "ordering",
            dump.to_str().unwrap(),
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    // A pattern that cannot match anything in the dump: exit 0.
    let nomatch = tmp("exit-codes-nomatch.pattern");
    std::fs::write(
        &nomatch,
        "A := [*, no_such_type, *]; B := [*, also_missing, *]; pattern := A -> B;",
    )
    .unwrap();
    let clean = ocep()
        .args(["check", nomatch.to_str().unwrap(), dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        clean.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    // The bundled pattern finds the injected violations: exit 1.
    let pattern = format!("{}.pattern", dump.display());
    let hit = ocep()
        .args(["check", &pattern, dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(hit.status.code(), Some(1));
    // Usage and I/O errors are exit 3.
    let err = ocep()
        .args(["check", &pattern, "/nonexistent.poet"])
        .output()
        .unwrap();
    assert_eq!(err.status.code(), Some(3));
    let bad_flag = ocep()
        .args([
            "check",
            &pattern,
            dump.to_str().unwrap(),
            "--overflow",
            "panic",
        ])
        .output()
        .unwrap();
    assert_eq!(bad_flag.status.code(), Some(3));
}

#[test]
fn checkpoint_then_resume_reaches_the_same_verdicts() {
    let dump = tmp("ckpt.poet");
    ocep()
        .args([
            "record-demo",
            "ordering",
            dump.to_str().unwrap(),
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    let pattern = format!("{}.pattern", dump.display());

    let full = ocep()
        .args(["check", &pattern, dump.to_str().unwrap()])
        .output()
        .unwrap();
    let full_out = String::from_utf8_lossy(&full.stdout);
    // Final "<N> events, <M> matches found" totals (the per-run
    // "reported" tally legitimately differs: matches reported before the
    // checkpoint cut are not re-reported after resume).
    let summary = |s: &str| {
        s.lines()
            .rev()
            .find(|l| l.ends_with("reported"))
            .and_then(|l| l.rsplit_once(','))
            .map(|(totals, _)| totals.to_owned())
            .unwrap()
    };

    let ckpt = tmp("ckpt.bin");
    let cp = ocep()
        .args([
            "checkpoint",
            &pattern,
            dump.to_str().unwrap(),
            ckpt.to_str().unwrap(),
            "--events",
            "100",
        ])
        .output()
        .unwrap();
    assert_eq!(
        cp.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&cp.stderr)
    );
    assert!(String::from_utf8_lossy(&cp.stdout).contains("checkpointed after 100"));

    let resumed = ocep()
        .args([
            "check",
            "--resume",
            ckpt.to_str().unwrap(),
            dump.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(resumed.status.code(), full.status.code());
    let r_out = String::from_utf8_lossy(&resumed.stdout);
    assert!(r_out.contains("resumed from"), "{r_out}");
    assert_eq!(
        summary(&full_out),
        summary(&r_out),
        "resumed run must converge to the uninterrupted totals"
    );

    // A truncated checkpoint is a clean error (exit 3), not a panic.
    let bytes = std::fs::read(&ckpt).unwrap();
    let broken = tmp("ckpt-broken.bin");
    std::fs::write(&broken, &bytes[..bytes.len() / 2]).unwrap();
    let bad = ocep()
        .args([
            "check",
            "--resume",
            broken.to_str().unwrap(),
            dump.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("cannot restore"));
}

/// `tests/corpus/ockp/parent-guarded/` was written by commit 0c944c5,
/// the last one whose `Monitor` could own an admission guard
/// (`generate.rs` beside it is the program that did): a 30-event dump,
/// two guarded per-monitor OCKP checkpoints taken with events still in
/// the reorder buffer (`guarded-ahead`: default guard; `guarded-gap`:
/// one slot, drop-oldest, one eviction already counted, which loads as
/// a rejecting guard with one rejection) and an
/// unguarded one. `cli-guarded.ocks` is the set checkpoint commit
/// a177727's `ocep checkpoint pattern.ocep stream.poet cli-guarded.ocks
/// --events 12 --guard --per-arrival` wrote (`checkpoint` has no guard
/// flags since). Each `expected/*.txt` is a command line with the exit
/// code, stdout and stderr that commit 0c944c5's binary gave: resuming
/// the three checkpoints, a plain `check`, `ingest` of an
/// `examples/fixtures` recording, and resuming a checkpoint the CLI
/// itself took with `--guard` (`cli.ckpt` in the transcript; the
/// committed `cli-guarded.ocks` here). Whatever admits events now must
/// reprint every line: matches, degraded-flush matches, counters, fault
/// log.
#[test]
fn guarded_check_output_is_pinned_to_the_parent() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = "tests/corpus/ockp/parent-guarded";
    let cli_ckpt = format!("{fixture}/cli-guarded.ocks");
    // Without a guard flag the file is the monitor's own checkpoint:
    // the parent's `unguarded.ockp` state in version 4, byte for byte
    // the committed `ockp/v4/unguarded.ockp`.
    let plain_ckpt = tmp("pinned-cli-plain.ckpt");
    let cp = ocep()
        .current_dir(root)
        .args(["checkpoint", &format!("{fixture}/pattern.ocep")])
        .args([
            &format!("{fixture}/stream.poet"),
            plain_ckpt.to_str().unwrap(),
        ])
        .args(["--events", "12", "--per-arrival"])
        .output()
        .unwrap();
    assert_eq!(cp.status.code(), Some(0), "{cp:?}");
    assert_eq!(
        std::fs::read(&plain_ckpt).unwrap(),
        std::fs::read(root.join("tests/corpus/ockp/v4/unguarded.ockp")).unwrap()
    );

    let mut cases: Vec<_> = std::fs::read_dir(root.join(fixture).join("expected"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    cases.sort();
    assert_eq!(cases.len(), 7, "{cases:?}");
    for case in cases {
        let text = std::fs::read_to_string(&case).unwrap();
        let (head, rest) = text.split_once("\n--- stdout\n").unwrap();
        let (want_out, want_err) = rest.split_once("\n--- stderr\n").unwrap();
        let (cmd, exit) = head.split_once("\nexit ").unwrap();
        let args: Vec<String> = cmd
            .strip_prefix("$ ocep ")
            .unwrap()
            .split(' ')
            .map(|a| a.replace("cli.ckpt", &cli_ckpt))
            .collect();
        let got = ocep().current_dir(root).args(&args).output().unwrap();
        let text_of = |bytes: &[u8]| String::from_utf8_lossy(bytes).replace(&cli_ckpt, "cli.ckpt");
        let name = case.display();
        assert_eq!(
            text_of(&got.stdout).trim_end(),
            want_out.trim_end(),
            "{name}: stdout"
        );
        assert_eq!(
            text_of(&got.stderr).trim_end(),
            want_err.trim_end(),
            "{name}: stderr"
        );
        assert_eq!(got.status.code(), exit.trim().parse().ok(), "{name}: exit");
    }
}

/// `tests/corpus/cli/offline/expected/*.txt` were written by commit
/// 7a7f463's binary, in the format of the parent-guarded transcripts:
/// `replay` of a pattern over the committed `parent-shards0` log (read
/// only), `ingest` of a recording into two monitors one event at a
/// time, and `checkpoint` without a guard flag (the output file is
/// `plain.ckpt`). Every offline subcommand must reprint them exactly.
#[test]
fn offline_runs_are_pinned_to_the_parent() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_ckpt = tmp("pinned-offline-plain.ckpt");
    let out_ckpt = out_ckpt.to_str().unwrap();
    let mut cases: Vec<_> = std::fs::read_dir(root.join("tests/corpus/cli/offline/expected"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    cases.sort();
    assert_eq!(cases.len(), 3, "{cases:?}");
    for case in cases {
        let text = std::fs::read_to_string(&case).unwrap();
        let (head, rest) = text.split_once("\n--- stdout\n").unwrap();
        let (want_out, want_err) = rest.split_once("\n--- stderr\n").unwrap();
        let (cmd, exit) = head.split_once("\nexit ").unwrap();
        let args: Vec<String> = cmd
            .strip_prefix("$ ocep ")
            .unwrap()
            .split(' ')
            .map(|a| a.replace("plain.ckpt", out_ckpt))
            .collect();
        let got = ocep().current_dir(root).args(&args).output().unwrap();
        let text_of = |bytes: &[u8]| String::from_utf8_lossy(bytes).replace(out_ckpt, "plain.ckpt");
        let name = case.display();
        assert_eq!(
            text_of(&got.stdout).trim_end(),
            want_out.trim_end(),
            "{name}: stdout"
        );
        assert_eq!(
            text_of(&got.stderr).trim_end(),
            want_err.trim_end(),
            "{name}: stderr"
        );
        assert_eq!(got.status.code(), exit.trim().parse().ok(), "{name}: exit");
    }
}

/// A reader that stops reading (`ocep check … | head -1`) ends the
/// output, not the run: the exit code is still the run's own (1, it
/// matched) and nothing panics. The dump matches on every event, so its
/// output outgrows the pipe and the child is still writing when the pipe
/// closes.
#[test]
fn a_closed_stdout_ends_the_output_not_the_run() {
    use ocep_repro::poet::{dump, EventKind, PoetServer};
    use std::io::BufRead as _;
    let mut poet = PoetServer::new(2);
    for i in 0..20_000u32 {
        poet.record(
            ocep_repro::vclock::TraceId::new(i % 2),
            EventKind::Unary,
            "a",
            "",
        );
    }
    let dump_path = tmp("closed-stdout.poet");
    let pattern = tmp("closed-stdout.ocep");
    dump::dump_to_file(poet.store(), &dump_path).unwrap();
    std::fs::write(&pattern, "A := [*, a, *]; pattern := A;").unwrap();

    let mut child = ocep()
        .args([
            "check",
            pattern.to_str().unwrap(),
            dump_path.to_str().unwrap(),
        ])
        .arg("--per-arrival")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("match: "), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
}

#[test]
fn fault_fuzz_smoke_is_clean() {
    let out = ocep()
        .args(["fuzz", "--faults", "--cases", "20"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("guarded ingestion is transparent"), "{text}");
}

#[test]
fn check_per_arrival_reports_each_violation() {
    let dump = tmp("per-arrival.poet");
    ocep()
        .args([
            "record-demo",
            "atomicity",
            dump.to_str().unwrap(),
            "--seed",
            "3",
        ])
        .output()
        .unwrap();
    let pattern = format!("{}.pattern", dump.display());
    let rep = ocep()
        .args(["check", &pattern, dump.to_str().unwrap()])
        .output()
        .unwrap();
    let per = ocep()
        .args(["check", &pattern, dump.to_str().unwrap(), "--per-arrival"])
        .output()
        .unwrap();
    let count = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("match:"))
            .count()
    };
    assert!(count(&per) >= count(&rep));
}

#[test]
fn helpful_errors_for_bad_input() {
    let out = ocep()
        .args(["validate", "/nonexistent.pattern"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let bad = tmp("bad.pattern");
    std::fs::write(&bad, "pattern := ;").unwrap();
    let out = ocep()
        .args(["validate", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = ocep().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = ocep().output().unwrap();
    assert!(!out.status.success());
}

/// `validate` prints the compiled graph: one line per related leaf pair,
/// the pairs the closure derives included, then the constraints a pair
/// cannot express — each once, however often the pattern repeats it.
#[test]
fn validate_prints_each_relation_once_with_the_closure() {
    let validate = |name: &str, src: &str| {
        let path = tmp(name);
        std::fs::write(&path, src).unwrap();
        let out = ocep()
            .args(["validate", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{name}");
        String::from_utf8(out.stdout).unwrap()
    };
    let chain = validate(
        "validate-chain.pattern",
        "A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; B $b; \
         pattern := A -> $b && $b -> C;",
    );
    assert_eq!(
        chain,
        "pattern: ((A -> $b) && ($b -> C))\n\
         \n\
         events (3):\n  \
         A  (class A)\n  \
         $b  (class B)\n  \
         C  (class C)  [terminating]\n\
         \n\
         relations:\n  \
         A -> $b\n  \
         A -> C\n  \
         $b -> C\n\
         \n\
         ok: pattern is valid\n"
    );

    let repeated = validate(
        "validate-repeated.pattern",
        &format!(
            "A := [*, a, *]; B := [*, b, *]; A $a; B $b; pattern := {};",
            vec!["$a || $b"; 64].join(" && ")
        ),
    );
    let (_, graph) = repeated.split_once("\nrelations:\n").unwrap();
    assert_eq!(graph, "  $a || $b\n\nok: pattern is valid\n");

    let partner = validate(
        "validate-partner.pattern",
        &format!(
            "S := [*, s, *]; R := [*, r, *]; S $s; R $r; pattern := {};",
            vec!["$s <> $r"; 64].join(" && ")
        ),
    );
    let (_, graph) = partner.split_once("\nrelations:\n").unwrap();
    assert_eq!(
        graph,
        "  $s -> $r\n\nconstraints:\n  $s <> $r\n\nok: pattern is valid\n"
    );
}

/// A flag the subcommand does not declare, or a valued flag with no
/// value, is a usage error naming the flag and the subcommand — not a
/// run that silently ignores what was asked.
#[test]
fn unknown_and_valueless_flags_are_usage_errors() {
    for (args, flag) in [
        (
            &["check", "P", "D", "--stat"][..],
            "unknown flag '--stat' for 'ocep check'",
        ),
        (
            &["check", "P", "D", "--overflw", "drop-oldest"],
            "unknown flag '--overflw' for 'ocep check'",
        ),
        (
            &["check", "P", "D", "--metrics"],
            "flag '--metrics' of 'ocep check' needs a value",
        ),
        (
            &["check", "P", "D", "--metrics", "--stats"],
            "flag '--metrics' of 'ocep check' needs a value",
        ),
        (
            &["serve", "P", "--traces", "10", "--wal-dir", "DIR"],
            "unknown flag '--wal-dir' for 'ocep serve'",
        ),
        (
            &["serve", "P", "--traces", "10", "--history-gc"],
            "unknown flag '--history-gc' for 'ocep serve'",
        ),
        (
            &["sim", "--shard", "4"],
            "unknown flag '--shard' for 'ocep sim'",
        ),
        (
            &["sim", "--shards", "4"],
            "unknown flag '--shards' for 'ocep sim'",
        ),
        (
            &["serve", "P", "--traces", "10", "--shards", "2"],
            "unknown flag '--shards' for 'ocep serve'",
        ),
        // The log is the one place a daemon keeps state: no checkpoint
        // directory, one slow-consumer rule, and every simulated crash
        // recovers through the log.
        (
            &["serve", "P", "--traces", "10", "--checkpoint", "DIR"],
            "unknown flag '--checkpoint' for 'ocep serve'",
        ),
        (
            &["serve", "P", "--traces", "10", "--slow-policy", "reject"],
            "unknown flag '--slow-policy' for 'ocep serve'",
        ),
        (
            &["sim", "--crashes", "2", "--wal"],
            "unknown flag '--wal' for 'ocep sim'",
        ),
        (
            &["serve", "P", "--traces", "10", "--checkpoint-every", "8"],
            "--checkpoint-every anchors checkpoints in the log and needs --wal DIR",
        ),
        (
            &["serve", "P", "--traces", "10", "--durability", "strict"],
            "--durability sets when the log is synced and needs --wal DIR",
        ),
        // Without a log the level is kept nowhere; `--metrics` alone
        // decides what is exported.
        (
            &["serve", "P", "--traces", "10", "--obs", "full"],
            "--obs sets the level the log's checkpoints store and needs --wal DIR",
        ),
        (
            &["fuzz", "--smoke", "--cases", "5"],
            "'--cases' cannot be combined with --smoke, the fixed-size run",
        ),
        (
            &["fuzz", "--faults", "--smoke", "--cases", "5"],
            "'--cases' cannot be combined with --smoke, the fixed-size run",
        ),
        // `--wal` takes a directory.
        (
            &["serve", "P", "--traces", "10", "--wal"],
            "flag '--wal' of 'ocep serve' needs a value",
        ),
        (
            &["validate", "P", "--guard"],
            "unknown flag '--guard' for 'ocep validate'",
        ),
        (
            &["checkpoint", "P", "D", "O", "--obs", "counters"],
            "bad --obs 'counters' (expected off|full)",
        ),
        // A reloaded dump is in a clean causal order: `check` runs no
        // admission guard, so it takes no guard flag (these were the
        // parent-guarded `check-guard`, `check-guard-capacity` and
        // `check-overflow` transcripts).
        (
            &[
                "check",
                "tests/corpus/ockp/parent-guarded/pattern.ocep",
                "tests/corpus/ockp/parent-guarded/stream.poet",
                "--guard",
                "--stats",
            ],
            "unknown flag '--guard' for 'ocep check'",
        ),
        (
            &[
                "check",
                "tests/corpus/ockp/parent-guarded/pattern.ocep",
                "tests/corpus/ockp/parent-guarded/stream.poet",
                "--guard-capacity",
                "1",
                "--overflow",
                "drop-oldest",
                "--per-arrival",
                "--stats",
            ],
            "unknown flag '--guard-capacity' for 'ocep check'",
        ),
        (
            &[
                "check",
                "tests/corpus/ockp/parent-guarded/pattern.ocep",
                "tests/corpus/ockp/parent-guarded/stream.poet",
                "--overflow",
                "flush-degraded",
                "--no-dedup",
                "--stats",
            ],
            "unknown flag '--overflow' for 'ocep check'",
        ),
        (
            &["fuzz", "--cases", "1", "--obs", "counters"],
            "bad --obs 'counters' (expected off|full)",
        ),
    ] {
        let out = ocep()
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(first, format!("error: {flag}"), "{args:?}");
    }
}

/// The checkpoint carries the monitor's configuration, so `check
/// --resume` takes `--stats` and `--metrics` only and refuses any other
/// monitor flag; `check` has no guard or `--obs` flag at all. Resumed
/// under `--metrics`, a checkpoint taken with observability off exports
/// the full families, timed from the resume point.
#[test]
fn check_resume_refuses_monitor_flags() {
    let dump = tmp("resume-flags.poet");
    let dump = dump.to_str().unwrap();
    ocep()
        .args(["record-demo", "race", dump, "--seed", "1"])
        .output()
        .unwrap();
    let pattern = format!("{dump}.pattern");
    let ckpt = tmp("resume-flags.ockp");
    let ckpt = ckpt.to_str().unwrap();
    let cp = ocep()
        .args(["checkpoint", &pattern, dump, ckpt, "--events", "50"])
        .output()
        .unwrap();
    assert_eq!(cp.status.code(), Some(0));

    for (extra, refusal) in [
        (
            &["--per-arrival"][..],
            "'--per-arrival' cannot be combined with --resume",
        ),
        (
            &["--no-dedup"],
            "'--no-dedup' cannot be combined with --resume",
        ),
        (&["--guard"], "unknown flag '--guard' for 'ocep check'"),
        (&["--obs", "full"], "unknown flag '--obs' for 'ocep check'"),
        (
            &["--guard-capacity", "5"],
            "unknown flag '--guard-capacity' for 'ocep check'",
        ),
        (
            &["--overflow", "reject"],
            "unknown flag '--overflow' for 'ocep check'",
        ),
    ] {
        let out = ocep()
            .args(["check", "--resume", ckpt, dump, "--stats"])
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(3), "{extra:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("error: {refusal}")),
            "{extra:?}: {first}"
        );
    }

    let prom = tmp("resume-flags.prom");
    let plain = ocep()
        .args(["check", "--resume", ckpt, dump])
        .output()
        .unwrap();
    let out = ocep()
        .args(["check", "--resume", ckpt, dump, "--stats", "--metrics"])
        .arg(&prom)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), plain.status.code());
    assert!(String::from_utf8_lossy(&out.stdout).contains("stats: "));
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(text.contains("# TYPE ocep_arrival_ns histogram"), "{text}");
}

/// Every mode of the six monitor subcommands (`check`, `check --resume`,
/// `stats` over a dump, a checkpoint or `--addr`, `checkpoint`, `serve`,
/// `ingest` offline and with `--addr`, `replay`): where a mode takes
/// `--metrics` the file is written with the full families, and every
/// flag a mode cannot act on exits 3 naming the flag — before any file
/// is written or any address dialed. No mode takes `--overflow`: a full
/// reorder buffer always rejects.
#[test]
fn every_monitor_flag_takes_effect_or_is_refused() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let fix = "tests/corpus/ockp/parent-guarded";
    let (pattern, dump) = (
        &format!("{fix}/pattern.ocep"),
        &format!("{fix}/stream.poet"),
    );
    let ckpt = &format!("{fix}/unguarded.ockp");
    let (pings, wal) = (
        "tests/corpus/cli/offline/pings.ocep",
        "tests/corpus/wal/parent-shards0",
    );
    let (mpi, cycle) = (
        "examples/fixtures/mpi_deadlock.trace",
        "examples/fixtures/deadlock_cycle.pat",
    );
    let out_ckpt = tmp("modes.ckpt");
    let out_ckpt = out_ckpt.to_str().unwrap();
    let nowhere = "127.0.0.1:1";

    for (i, args) in [
        &["check", pattern, dump][..],
        &["check", "--resume", ckpt, dump],
        &["stats", pattern, dump],
        &["ingest", "mpi", mpi, "--pattern", cycle],
        &["replay", pings, wal],
    ]
    .into_iter()
    .enumerate()
    {
        let prom = tmp(&format!("modes-{i}.prom"));
        let _ = std::fs::remove_file(&prom);
        let out = ocep()
            .current_dir(root)
            .args(args)
            .arg("--metrics")
            .arg(&prom)
            .output()
            .unwrap();
        assert_ne!(out.status.code(), Some(3), "{args:?}: {out:?}");
        let text = std::fs::read_to_string(&prom).unwrap_or_default();
        assert!(
            text.contains("# TYPE ocep_arrival_ns histogram"),
            "{args:?}: {text}"
        );
    }

    let (serve_dump, serve_pattern) = demo_dump("modes-serve");
    let port_file = tmp("modes-serve.port");
    let prom = tmp("modes-serve.prom");
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(&prom);
    let serve = ocep()
        .args([
            "serve",
            &serve_pattern,
            "--traces",
            "10",
            "--addr",
            "127.0.0.1:0",
        ])
        .arg("--port-file")
        .arg(&port_file)
        .arg("--metrics")
        .arg(&prom)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);
    ocep()
        .args(["send", &addr, serve_dump.to_str().unwrap(), "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(serve.wait_with_output().unwrap().status.code(), Some(1));
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(
        text.contains("# TYPE ocep_arrival_ns histogram"),
        "serve: {text}"
    );

    let prom = tmp("modes-refused.prom");
    let prom = prom.to_str().unwrap();
    for (args, flag) in [
        (&["check", pattern, dump, "--guard"][..], "--guard"),
        (
            &["check", pattern, dump, "--guard-capacity", "1"],
            "--guard-capacity",
        ),
        (
            &["check", pattern, dump, "--overflow", "reject"],
            "--overflow",
        ),
        (&["check", pattern, dump, "--obs", "full"], "--obs"),
        (
            &["check", "--resume", ckpt, dump, "--per-arrival"],
            "--per-arrival",
        ),
        (
            &["check", "--resume", ckpt, dump, "--no-dedup"],
            "--no-dedup",
        ),
        (&["stats", pattern, dump, "--obs", "off"], "--obs"),
        (&["stats", pattern, dump, "--guard"], "--guard"),
        (
            &["stats", ckpt, "--per-arrival", "--metrics", prom],
            "--per-arrival",
        ),
        (&["stats", ckpt, "--no-dedup"], "--no-dedup"),
        (&["stats", ckpt, "--metrics", prom], "--metrics"),
        (
            &["stats", "--addr", nowhere, "--metrics", prom],
            "--metrics",
        ),
        (
            &["stats", "--addr", nowhere, "--per-arrival"],
            "--per-arrival",
        ),
        (&["stats", "--addr", nowhere, "--no-dedup"], "--no-dedup"),
        (
            &["checkpoint", pattern, dump, out_ckpt, "--metrics", prom],
            "--metrics",
        ),
        (
            &["checkpoint", pattern, dump, out_ckpt, "--guard"],
            "--guard",
        ),
        (
            &[
                "checkpoint",
                pattern,
                dump,
                out_ckpt,
                "--guard-capacity",
                "1",
            ],
            "--guard-capacity",
        ),
        (
            &[
                "checkpoint",
                pattern,
                dump,
                out_ckpt,
                "--overflow",
                "reject",
            ],
            "--overflow",
        ),
        (&["serve", pattern, "--guard"], "--guard"),
        (&["serve", pattern, "--overflow", "reject"], "--overflow"),
        (
            &["ingest", "mpi", mpi, "--pattern", cycle, "--guard"],
            "--guard",
        ),
        (
            &[
                "ingest",
                "mpi",
                mpi,
                "--pattern",
                cycle,
                "--overflow",
                "drop-oldest",
            ],
            "--overflow",
        ),
        (
            &["ingest", "mpi", mpi, "--pattern", cycle, "--obs", "full"],
            "--obs",
        ),
        (
            &["ingest", "mpi", mpi, "--pattern", cycle, "--name", "n"],
            "--name",
        ),
        (
            &["ingest", "mpi", mpi, "--pattern", cycle, "--shutdown"],
            "--shutdown",
        ),
        (
            &["ingest", "mpi", mpi, "--addr", nowhere, "--per-arrival"],
            "--per-arrival",
        ),
        (
            &["ingest", "mpi", mpi, "--addr", nowhere, "--no-dedup"],
            "--no-dedup",
        ),
        (
            &["ingest", "mpi", mpi, "--addr", nowhere, "--pattern", cycle],
            "--pattern",
        ),
        (
            &["ingest", "mpi", mpi, "--addr", nowhere, "--metrics", prom],
            "--metrics",
        ),
        (
            &[
                "ingest",
                "mpi",
                mpi,
                "--addr",
                nowhere,
                "--guard-capacity",
                "8",
            ],
            "--guard-capacity",
        ),
        (
            &[
                "ingest",
                "mpi",
                mpi,
                "--addr",
                nowhere,
                "--overflow",
                "reject",
            ],
            "--overflow",
        ),
        (
            &["ingest", "mpi", mpi, "--addr", nowhere, "--obs", "off"],
            "--obs",
        ),
        (
            &["ingest", "mpi", mpi, "--addr", nowhere, "--guard"],
            "--guard",
        ),
        (&["replay", pings, wal, "--guard"], "--guard"),
        (
            &["replay", pings, wal, "--overflow", "flush-degraded"],
            "--overflow",
        ),
        (&["replay", pings, wal, "--obs", "full"], "--obs"),
    ] {
        let _ = std::fs::remove_file(out_ckpt);
        let out = ocep().current_dir(root).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.contains(&format!("'{flag}'")),
            "{args:?}: {first}"
        );
        assert!(
            !std::path::Path::new(prom).exists(),
            "{args:?} wrote {prom}"
        );
        assert!(
            !std::path::Path::new(out_ckpt).exists(),
            "{args:?} wrote {out_ckpt}"
        );
    }
}

#[test]
fn custom_pattern_over_demo_dump() {
    // A user-authored pattern (not the bundled one) over a demo dump:
    // find any update that reaches a follower.
    let dump = tmp("custom.poet");
    ocep()
        .args(["record-demo", "ordering", dump.to_str().unwrap()])
        .output()
        .unwrap();
    let pattern = tmp("custom.pattern");
    std::fs::write(
        &pattern,
        "U := [T0, make_update, *]; R := [*, recv_snapshot, *]; pattern := U -> R;",
    )
    .unwrap();
    let out = ocep()
        .args(["check", pattern.to_str().unwrap(), dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "a found match exits 1: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("match: {"), "{stdout}");
}

#[test]
fn show_renders_a_process_time_diagram() {
    let dump = tmp("show.poet");
    ocep()
        .args(["record-demo", "deadlock", dump.to_str().unwrap()])
        .output()
        .unwrap();
    let out = ocep()
        .args(["show", dump.to_str().unwrap(), "--limit", "5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("T0"), "{text}");
    assert!(text.contains("more events"), "{text}");
    assert!(text.lines().count() >= 7, "{text}");
}

#[test]
fn analyze_and_slice_post_mortem_workflow() {
    // The §II workflow: detect online, then slice the recording down to
    // the involved traces for focused offline analysis.
    let dump = tmp("pm.poet");
    ocep()
        .args([
            "record-demo",
            "ordering",
            dump.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    let pattern = format!("{}.pattern", dump.display());

    let analyze = ocep()
        .args(["analyze", &pattern, dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(analyze.status.success());
    let a_out = String::from_utf8_lossy(&analyze.stdout);
    assert!(a_out.contains("total matches:"), "{a_out}");
    assert!(a_out.contains("involved traces: "), "{a_out}");

    // Slice to the leader plus one victim named in the report.
    let involved = a_out
        .lines()
        .find(|l| l.starts_with("involved traces: "))
        .unwrap()
        .trim_start_matches("involved traces: ")
        .to_owned();
    let sliced = tmp("pm-slice.poet");
    let out = ocep()
        .args([
            "slice",
            dump.to_str().unwrap(),
            sliced.to_str().unwrap(),
            &involved,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The sliced dump still contains every match (all involved traces kept).
    let re_analyze = ocep()
        .args(["analyze", &pattern, sliced.to_str().unwrap()])
        .output()
        .unwrap();
    let r_out = String::from_utf8_lossy(&re_analyze.stdout);
    let total = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("total matches:"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap()
    };
    assert_eq!(total(&a_out), total(&r_out), "slice lost matches: {r_out}");

    // Bad trace list errors cleanly.
    let bad = ocep()
        .args([
            "slice",
            dump.to_str().unwrap(),
            sliced.to_str().unwrap(),
            "X9",
        ])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

#[test]
fn slice_takes_only_canonical_trace_names() {
    let dump = tmp("names.poet");
    ocep()
        .args(["record-demo", "ordering", dump.to_str().unwrap()])
        .output()
        .unwrap();
    let sliced = tmp("names-slice.poet");
    let slice = |spec: &str| {
        ocep()
            .args([
                "slice",
                dump.to_str().unwrap(),
                sliced.to_str().unwrap(),
                spec,
            ])
            .output()
            .unwrap()
    };
    // A sign or a leading zero is not how a trace is named.
    for spec in ["T+1", "T01", "T1,T+1"] {
        let out = slice(spec);
        assert_eq!(out.status.code(), Some(3), "{spec} is a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad trace name"), "{spec}: {err}");
    }
    // A repeated name keeps one trace, and the summary counts it once.
    let out = slice("T1,T1");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("onto 1 traces"), "{text}");
}

#[test]
fn check_exports_metrics_in_both_formats() {
    let dump = tmp("metrics.poet");
    let out = ocep()
        .args([
            "record-demo",
            "deadlock",
            dump.to_str().unwrap(),
            "--seed",
            "11",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let pattern = format!("{}.pattern", dump.display());

    // Prometheus text export (any non-.json path).
    let prom = tmp("metrics.prom");
    let check = ocep()
        .args([
            "check",
            &pattern,
            dump.to_str().unwrap(),
            "--metrics",
            prom.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        check.status.code() == Some(0) || check.status.code() == Some(1),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(stderr.contains("metrics written to"), "{stderr}");
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(text.contains("# HELP ocep_events_total"), "{text}");
    assert!(text.contains("# TYPE ocep_events_total counter"), "{text}");
    assert!(text.contains("# TYPE ocep_arrival_ns histogram"), "{text}");
    // Every HELP line is unique (no family emitted twice).
    let mut helps: Vec<&str> = text.lines().filter(|l| l.starts_with("# HELP ")).collect();
    let total = helps.len();
    helps.sort_unstable();
    helps.dedup();
    assert_eq!(total, helps.len(), "duplicate metric families: {text}");

    // JSON export (path ends in .json) parses as a single object.
    let json = tmp("metrics.json");
    let check = ocep()
        .args([
            "check",
            &pattern,
            dump.to_str().unwrap(),
            "--metrics",
            json.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(check.status.code() == Some(0) || check.status.code() == Some(1));
    let body = std::fs::read_to_string(&json).unwrap();
    assert!(
        body.starts_with('{') && body.trim_end().ends_with('}'),
        "{body}"
    );
    assert!(body.contains("\"ocep_events_total\""), "{body}");
    assert!(body.contains("\"families\""), "{body}");
}

#[test]
fn stats_subcommand_replays_and_reads_checkpoints() {
    let dump = tmp("stats.poet");
    let out = ocep()
        .args([
            "record-demo",
            "deadlock",
            dump.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let pattern = format!("{}.pattern", dump.display());

    // Replay mode: full observability is forced on, timing histograms
    // show up in the human rendering.
    let stats = ocep()
        .args(["stats", &pattern, dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        stats.status.success(),
        "{}",
        String::from_utf8_lossy(&stats.stderr)
    );
    let s_out = String::from_utf8_lossy(&stats.stdout);
    assert!(s_out.contains("ocep_events_total"), "{s_out}");
    assert!(s_out.contains("ocep_arrival_ns"), "{s_out}");

    // Checkpoints taken with observability embed the registry; `stats`
    // on the file reports the level it was collected at.
    let ckpt = tmp("stats.ckpt");
    let cp = ocep()
        .args([
            "checkpoint",
            &pattern,
            dump.to_str().unwrap(),
            ckpt.to_str().unwrap(),
            "--obs",
            "full",
        ])
        .output()
        .unwrap();
    assert!(
        cp.status.success(),
        "{}",
        String::from_utf8_lossy(&cp.stderr)
    );
    let from_ckpt = ocep()
        .args(["stats", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(from_ckpt.status.success());
    let c_out = String::from_utf8_lossy(&from_ckpt.stdout);
    assert!(c_out.contains("collected at obs level full"), "{c_out}");
    assert!(c_out.contains("ocep_events_total"), "{c_out}");

    // A metrics-free checkpoint still renders the work counters.
    let plain = tmp("stats-plain.ckpt");
    let cp = ocep()
        .args([
            "checkpoint",
            &pattern,
            dump.to_str().unwrap(),
            plain.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(cp.status.success());
    let from_plain = ocep()
        .args(["stats", plain.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(from_plain.status.success());
    let p_out = String::from_utf8_lossy(&from_plain.stdout);
    assert!(p_out.contains("holds no metrics"), "{p_out}");
    assert!(p_out.contains("ocep_events_total"), "{p_out}");
}

#[test]
fn fuzz_exports_aggregate_metrics() {
    let path = tmp("fuzz-metrics.prom");
    let out = ocep()
        .args([
            "fuzz",
            "--seed",
            "2",
            "--cases",
            "10",
            "--metrics",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("ocep_events_total"), "{text}");
    assert!(text.contains("# TYPE ocep_stage_ns histogram"), "{text}");
}

// ------------------------------------------------------------ networking

/// Polls a `--port-file` until the daemon writes its bound address.
fn wait_port(path: &std::path::Path) -> String {
    common::wait_for(
        &format!("daemon address in {}", path.display()),
        std::time::Duration::from_secs(10),
        std::time::Duration::from_millis(10),
        || match std::fs::read_to_string(path) {
            Ok(s) if !s.trim().is_empty() => Ok(s.trim().to_owned()),
            Ok(_) => Err("port file exists but is still empty".to_owned()),
            Err(e) => Err(format!("port file unreadable: {e}")),
        },
    )
}

/// Records the deadlock demo dump + pattern under distinct names.
fn demo_dump(stem: &str) -> (std::path::PathBuf, String) {
    let dump = tmp(&format!("{stem}.poet"));
    let out = ocep()
        .args([
            "record-demo",
            "deadlock",
            dump.to_str().unwrap(),
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let pattern = format!("{}.pattern", dump.display());
    (dump, pattern)
}

#[test]
fn serve_send_shutdown_round_trip_reports_matches() {
    let (dump, pattern) = demo_dump("net-roundtrip");
    let port_file = tmp("net-roundtrip.port");
    let metrics = tmp("net-roundtrip.prom");
    let _ = std::fs::remove_file(&port_file);
    let serve = ocep()
        .args([
            "serve",
            &pattern,
            "--traces",
            "10",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);

    let send = ocep()
        .args(["send", &addr, dump.to_str().unwrap(), "--shutdown"])
        .output()
        .unwrap();
    let send_out = String::from_utf8_lossy(&send.stdout);
    // The deadlock demo contains violations: exit 1, like `check`.
    assert_eq!(send.status.code(), Some(1), "{send_out}");
    assert!(send_out.contains("admitted"), "{send_out}");
    assert!(send_out.contains("server shut down"), "{send_out}");

    let out = serve.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("match["), "{stdout}");
    assert!(stdout.contains("events admitted"), "{stdout}");
    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(prom.contains("ocep_net_connections_total"), "{prom}");
    assert!(prom.contains("ocep_net_frames_total"), "{prom}");
}

#[test]
fn tail_once_sees_a_verdict() {
    let (dump, pattern) = demo_dump("net-tail");
    let port_file = tmp("net-tail.port");
    let _ = std::fs::remove_file(&port_file);
    let mut serve = ocep()
        .args([
            "serve",
            &pattern,
            "--traces",
            "10",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);

    let mut tail = ocep()
        .args(["tail", &addr, "--once"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Wait for the tail's readiness line so no verdict can race the
    // subscription (bounded, unlike a fixed sleep).
    {
        use std::io::BufRead;
        let stderr = tail.stderr.take().unwrap();
        let mut lines = std::io::BufReader::new(stderr).lines();
        common::wait_for(
            "the tail's 'subscribed to' readiness line",
            std::time::Duration::from_secs(10),
            std::time::Duration::from_millis(1),
            || match lines.next() {
                Some(Ok(line)) if line.contains("subscribed to") => Ok(()),
                Some(Ok(line)) => Err(format!("tail stderr said {line:?} instead")),
                Some(Err(e)) => Err(format!("tail stderr read failed: {e}")),
                None => panic!("tail stderr closed before reporting a subscription"),
            },
        );
    }

    let send = ocep()
        .args(["send", &addr, dump.to_str().unwrap(), "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(send.status.code(), Some(1));

    let tail_out = tail.wait_with_output().unwrap();
    // --once exits 1 after printing the first verdict.
    assert_eq!(tail_out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&tail_out.stdout);
    assert!(stdout.contains("match["), "{stdout}");

    serve.wait().unwrap();
}

#[test]
fn stats_addr_queries_a_live_server() {
    let (_dump, pattern) = demo_dump("net-stats");
    let port_file = tmp("net-stats.port");
    let _ = std::fs::remove_file(&port_file);
    let mut serve = ocep()
        .args([
            "serve",
            &pattern,
            "--traces",
            "10",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);

    let stats = ocep().args(["stats", "--addr", &addr]).output().unwrap();
    assert_eq!(stats.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stdout.contains("admitted      0"), "{stdout}");
    assert!(stdout.contains("matches       0"), "{stdout}");

    // Clean shutdown via the client library.
    let client = ocep_repro::net::Client::connect(&addr, 10, "cleanup").unwrap();
    client.shutdown().unwrap();
    serve.wait().unwrap();
}

#[test]
fn send_rejects_trace_count_mismatch() {
    let (dump, pattern) = demo_dump("net-mismatch");
    let port_file = tmp("net-mismatch.port");
    let _ = std::fs::remove_file(&port_file);
    let mut serve = ocep()
        .args([
            "serve",
            &pattern,
            "--traces",
            "3",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);

    // The demo dump announces 10 traces; the server expects 3 — the
    // handshake must fail with a usage-style error, not hang or crash.
    let send = ocep()
        .args(["send", &addr, dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(send.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&send.stderr);
    assert!(stderr.contains("error:"), "{stderr}");

    let client = ocep_repro::net::Client::connect(&addr, 3, "cleanup").unwrap();
    client.shutdown().unwrap();
    serve.wait().unwrap();
}

#[test]
fn serve_without_matches_exits_zero() {
    let (dump, _pattern) = demo_dump("net-clean");
    let pattern = tmp("net-clean-nomatch.ocep");
    std::fs::write(&pattern, "Z := [*, no_such_event_type, *]; pattern := Z;").unwrap();
    let port_file = tmp("net-clean.port");
    let _ = std::fs::remove_file(&port_file);
    let serve = ocep()
        .args([
            "serve",
            pattern.to_str().unwrap(),
            "--traces",
            "10",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);

    let send = ocep()
        .args(["send", &addr, dump.to_str().unwrap(), "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(send.status.code(), Some(0));

    let out = serve.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0));
}

/// `serve` exits as soon as `Server::join` returns. If a connection's
/// writer thread has not flushed the final `StatsReport` by then, the
/// producer's shutdown handshake dies with "connection closed" and
/// `send` exits 3. Four workers keep the machine busy while each runs
/// the handshake over and over: every `send` must exit 0 or 1.
#[test]
fn shutdown_handshake_survives_the_server_exiting() {
    let (dump, _pattern) = demo_dump("net-handshake");
    let pattern = tmp("net-handshake-nomatch.ocep");
    std::fs::write(&pattern, "Z := [*, no_such_event_type, *]; pattern := Z;").unwrap();
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let (dump, pattern) = (&dump, &pattern);
            scope.spawn(move || {
                for round in 0..13 {
                    let port_file = tmp(&format!("net-handshake-{worker}-{round}.port"));
                    let _ = std::fs::remove_file(&port_file);
                    let mut serve = ocep()
                        .args(["serve", pattern.to_str().unwrap(), "--traces", "10"])
                        .args(["--addr", "127.0.0.1:0", "--port-file"])
                        .arg(&port_file)
                        .stdout(std::process::Stdio::null())
                        .stderr(std::process::Stdio::null())
                        .spawn()
                        .unwrap();
                    let addr = wait_port(&port_file);
                    let send = ocep()
                        .args(["send", &addr, dump.to_str().unwrap(), "--shutdown"])
                        .output()
                        .unwrap();
                    assert_eq!(
                        send.status.code(),
                        Some(0),
                        "worker {worker} round {round}: {}",
                        String::from_utf8_lossy(&send.stderr)
                    );
                    assert_eq!(serve.wait().unwrap().code(), Some(0));
                    let _ = std::fs::remove_file(&port_file);
                }
            });
        }
    });
}

/// Kills the child daemon when a test fails before reaping it.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A registered pattern is untrusted input. Each of these shapes once
/// took the daemon down, so the daemon runs as a child here: a stack
/// overflow aborts the process that hits it, and a cubic compile
/// stalls every tenant. Each must be answered with a `Fault` naming
/// the pattern size rule, and the daemon must keep serving.
#[test]
fn hostile_registrations_are_refused_and_the_daemon_keeps_serving() {
    let pattern = tmp("net-hostile-nomatch.ocep");
    std::fs::write(&pattern, "Z := [*, no_such_event_type, *]; pattern := Z;").unwrap();
    let port_file = tmp("net-hostile.port");
    let _ = std::fs::remove_file(&port_file);
    let mut serve = Daemon(
        ocep()
            .args(["serve", pattern.to_str().unwrap(), "--traces", "10"])
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap(),
    );
    let addr = wait_port(&port_file);
    let mut client = ocep_repro::net::Client::connect(&addr, 10, "hostile").unwrap();
    for (name, src) in common::hostile_patterns() {
        let live = client
            .register("evil", &[(name.to_owned(), src)])
            .unwrap_or_else(|e| panic!("registering {name} lost the daemon: {e}"));
        assert_eq!(live, 0, "{name} was registered");
        let faults = client.take_faults();
        assert!(
            faults.iter().any(|(_, detail)| {
                detail.contains(&format!("evil/{name}")) && detail.contains("size rule")
            }),
            "{name}: {faults:?}"
        );
        let stats = client
            .stats()
            .unwrap_or_else(|e| panic!("the daemon stopped serving after {name}: {e}"));
        assert_eq!(stats.admitted, 0);
    }
    client.shutdown().unwrap();
    assert_eq!(serve.0.wait().unwrap().code(), Some(0));
}

// ------------------------------------------------------- durable log

/// The `match[...]` lines of a serve/replay stdout, in order.
fn match_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.starts_with("match["))
        .map(str::to_owned)
        .collect()
}

/// SIGKILL mid-stream, restart from the same log directory, re-send the
/// same named session: the recovered daemon must reach bit-identical
/// verdicts to an uninterrupted run, and the resuming client must not
/// re-send a single event.
#[test]
fn wal_serve_survives_sigkill_with_no_resends() {
    let (dump, pattern) = demo_dump("net-wal-crash");

    // Baseline: the same workload served without any crash.
    let port_file = tmp("net-wal-base.port");
    let _ = std::fs::remove_file(&port_file);
    let serve = ocep()
        .args([
            "serve",
            &pattern,
            "--traces",
            "10",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);
    let send = ocep()
        .args(["send", &addr, dump.to_str().unwrap(), "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(send.status.code(), Some(1));
    let base = serve.wait_with_output().unwrap();
    let base_out = String::from_utf8_lossy(&base.stdout);
    let base_matches = match_lines(&base_out);
    assert!(!base_matches.is_empty(), "{base_out}");
    // Connection/frame counts legitimately differ across a restart, so
    // pin only the admission and verdict counts from the summary line.
    let admitted_prefix = |out: &str| -> String {
        let line = out
            .lines()
            .find(|l| l.contains("events admitted"))
            .expect("summary line")
            .to_owned();
        let cut = line.find("matches reported").expect("summary shape");
        line[..cut + "matches reported".len()].to_owned()
    };
    let base_admitted = admitted_prefix(&base_out);

    // Crash run: serve with a durable log, stream the whole dump, then
    // SIGKILL the daemon with no chance to drain or checkpoint.
    let wal_dir = tmp("net-wal-crash-log");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let port_file = tmp("net-wal-crash.port");
    let _ = std::fs::remove_file(&port_file);
    let mut victim = ocep()
        .args([
            "serve",
            &pattern,
            "--traces",
            "10",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--wal",
            wal_dir.to_str().unwrap(),
            "--durability",
            "batch",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);
    let send = ocep()
        .args([
            "send",
            &addr,
            dump.to_str().unwrap(),
            "--name",
            "crash-session",
        ])
        .output()
        .unwrap();
    // The stats round trip confirms every event was processed (and
    // therefore logged) before the kill.
    assert_eq!(send.status.code(), Some(1), "{send:?}");
    victim.kill().unwrap();
    victim.wait().unwrap();

    // Restart from the log; the same named session must resume past its
    // durable prefix and send nothing.
    let port_file = tmp("net-wal-restart.port");
    let _ = std::fs::remove_file(&port_file);
    let serve = ocep()
        .args([
            "serve",
            &pattern,
            "--traces",
            "10",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--wal",
            wal_dir.to_str().unwrap(),
            "--durability",
            "batch",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);
    let send = ocep()
        .args([
            "send",
            &addr,
            dump.to_str().unwrap(),
            "--name",
            "crash-session",
            "--shutdown",
        ])
        .output()
        .unwrap();
    assert_eq!(send.status.code(), Some(1), "{send:?}");
    let send_out = String::from_utf8_lossy(&send.stdout);
    let send_err = String::from_utf8_lossy(&send.stderr);
    assert!(send_out.contains("sent 0 events"), "{send_out}");
    assert!(send_out.contains(" 0 duplicates"), "{send_out}");
    assert!(send_err.contains("resumed"), "{send_err}");

    let out = serve.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("recovered"), "{stderr}");
    // Bit-identical conclusions: same verdicts, same admission count.
    assert_eq!(match_lines(&stdout), base_matches, "{stdout}");
    assert_eq!(
        admitted_prefix(&stdout),
        base_admitted,
        "{stdout}\nvs\n{base_admitted}"
    );
}

/// A copy of the log directory as `dir` holds it now: what a SIGKILL
/// leaves once every record is in the kernel.
fn copy_log(dir: &std::path::Path, to: &std::path::Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// `--checkpoint-every` anchors checkpoints in the log while the daemon
/// runs, so a daemon killed before any graceful drain restarts from the
/// newest one and replays fewer events than were sent.
#[test]
fn checkpoint_every_writes_periodic_checkpoints() {
    let (dump, pattern) = demo_dump("net-ckpt-every");
    let wal_dir = tmp("net-ckpt-every-log");
    let image = tmp("net-ckpt-every-image");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let serve_on = |dir: &std::path::Path, port_file: &std::path::Path| {
        let _ = std::fs::remove_file(port_file);
        ocep()
            .args(["serve", &pattern, "--traces", "10"])
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(port_file)
            .arg("--wal")
            .arg(dir)
            .args(["--checkpoint-every", "8"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap()
    };
    let shutdown = |addr: &str| {
        let client = ocep_repro::net::Client::connect(addr, 10, "cleanup").unwrap();
        client.shutdown().unwrap();
    };

    let port_file = tmp("net-ckpt-every.port");
    let serve = serve_on(&wal_dir, &port_file);
    let addr = wait_port(&port_file);
    // No shutdown: when `send` returns, its events are processed and in
    // the kernel, and only the periodic trigger can have checkpointed.
    let send = ocep()
        .args(["send", &addr, dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(send.status.code(), Some(1), "{send:?}");
    let send_out = String::from_utf8_lossy(&send.stdout);
    let sent: u64 = send_out
        .strip_prefix("sent ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no event count in {send_out}"));
    copy_log(&wal_dir, &image);
    shutdown(&addr);
    serve.wait_with_output().unwrap();

    let port_file = tmp("net-ckpt-every-restart.port");
    let restarted = serve_on(&image, &port_file);
    shutdown(&wait_port(&port_file));
    let out = restarted.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let recovered: u64 = stderr
        .lines()
        .find_map(|l| l.strip_prefix("recovered "))
        .and_then(|rest| rest.split(' ').next())
        .map_or(0, |n| n.parse().unwrap());
    assert!(
        recovered < sent,
        "restart replayed {recovered} of {sent} events: no periodic checkpoint\n{stderr}"
    );
}

#[test]
fn replay_reruns_a_pattern_over_the_log() {
    let (dump, pattern) = demo_dump("net-replay");
    let wal_dir = tmp("net-replay-log");
    let port_file = tmp("net-replay.port");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_file(&port_file);
    let serve = ocep()
        .args([
            "serve",
            &pattern,
            "--traces",
            "10",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--wal",
            wal_dir.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);
    let send = ocep()
        .args(["send", &addr, dump.to_str().unwrap(), "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(send.status.code(), Some(1), "{send:?}");
    let out = serve.wait_with_output().unwrap();
    let serve_matches = match_lines(&String::from_utf8_lossy(&out.stdout));
    assert!(!serve_matches.is_empty());

    // Replaying the same pattern over the log reaches the same verdicts.
    let replay = ocep()
        .args(["replay", &pattern, wal_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(replay.status.code(), Some(1), "{replay:?}");
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert_eq!(match_lines(&stdout), serve_matches, "{stdout}");
    assert!(stdout.contains("replayed"), "{stdout}");
}

/// A log whose only delivery is a trace's second event leaves the guard
/// waiting for the first: the end-of-log flush is degraded, and `replay`
/// exits 2 with the warning, like `check`, `ingest` and `serve`.
#[test]
fn replay_of_a_log_with_a_gap_exits_degraded() {
    use ocep_repro::poet::{codec::put_str, EventKind, PoetServer};
    use ocep_repro::vclock::TraceId;
    use ocep_repro::wal::{self, Wal, WalOptions};

    let mut poet = PoetServer::new(2);
    poet.record(TraceId::new(0), EventKind::Unary, "a", "");
    let second = poet.record(TraceId::new(0), EventKind::Unary, "a", "");
    let dir = tmp("replay-gap-log");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut log, _) = Wal::open(&dir, WalOptions::default()).unwrap();
    let mut payload = Vec::new();
    put_str(&mut payload, "sess");
    ocep_repro::net::wire::put_event_body(&mut payload, &second);
    log.append(wal::REC_DELIVER, &payload).unwrap();
    log.sync().unwrap();
    drop(log);

    let pattern = tmp("replay-gap.pattern");
    std::fs::write(&pattern, "A := [*, a, *]; pattern := A;").unwrap();
    let replay = ocep()
        .args(["replay", pattern.to_str().unwrap(), dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(replay.status.code(), Some(2), "{replay:?}");
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert!(stderr.contains("ingestion degraded"), "{stderr}");
}

#[test]
fn tail_from_zero_replays_the_verdict_backlog() {
    let (dump, pattern) = demo_dump("net-tail-from");
    let wal_dir = tmp("net-tail-from-log");
    let port_file = tmp("net-tail-from.port");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_file(&port_file);
    let mut serve = ocep()
        .args([
            "serve",
            &pattern,
            "--traces",
            "10",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--wal",
            wal_dir.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_port(&port_file);

    // Stream everything first: the verdicts fire with no tail attached.
    let send = ocep()
        .args(["send", &addr, dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(send.status.code(), Some(1), "{send:?}");

    // A late subscriber asking from log offset 0 still sees them.
    let tail = ocep()
        .args(["tail", &addr, "--from", "0", "--once"])
        .output()
        .unwrap();
    assert_eq!(tail.status.code(), Some(1), "{tail:?}");
    let stdout = String::from_utf8_lossy(&tail.stdout);
    assert!(stdout.contains("match["), "{stdout}");
    assert!(
        stdout.contains("]@"),
        "backlog verdict lacks its lsn: {stdout}"
    );

    let send = ocep()
        .args(["send", &addr, dump.to_str().unwrap(), "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(send.status.code(), Some(1), "{send:?}");
    serve.wait().unwrap();
}
