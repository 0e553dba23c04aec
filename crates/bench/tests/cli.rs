//! The `ocep-bench` binary's surface: the paper's eleven experiments
//! and `all`, one JSON document under `--json`, usage errors as exit 2.

use std::process::{Command, Output};

const EXPERIMENTS: [&str; 11] = [
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "completeness",
    "depgraph",
    "ablation-pattern-len",
    "ablation-pruning",
    "ablation-dedup",
];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ocep-bench"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn all_json_is_one_line_with_each_paper_experiment_once() {
    let out = bench(&["all", "--events", "2000", "--reps", "1", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.starts_with(r#"{"bench":"all""#), "{stdout}");
    for key in EXPERIMENTS {
        let n = stdout.matches(&format!(r#""{key}":"#)).count();
        assert_eq!(n, 1, "key {key} appears {n} times");
    }
    for gone in ["net", "clocks", "sim", "wal", "shards", "soak"] {
        assert!(!stdout.contains(&format!(r#""{gone}":"#)), "{gone} is back");
    }
}

/// The objects of the flat array `"key":[{…},…]` in a JSON document, with
/// their first field (the row's label) cut off.
fn rows<'a>(doc: &'a str, key: &str) -> Vec<&'a str> {
    let start = doc.find(&format!(r#""{key}":[{{"#)).expect(key) + key.len() + 5;
    let body = &doc[start..start + doc[start..].find("}]").expect(key)];
    body.split("},{")
        .map(|row| row.split_once(',').expect("labelled row").1)
        .collect()
}

/// Fig 10 measures nothing itself: its rows are the last (largest) rows
/// of Figs 6–9 from the same run.
#[test]
fn fig10_rows_are_the_last_rows_of_figs_6_to_9() {
    let out = bench(&["all", "--events", "2000", "--reps", "1", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let doc = String::from_utf8(out.stdout).expect("utf-8");
    let fig10 = rows(&doc, "fig10");
    let last: Vec<&str> = ["fig6", "fig7", "fig8", "fig9"]
        .iter()
        .map(|fig| *rows(&doc, fig).last().unwrap())
        .collect();
    assert_eq!(fig10, last);
    assert!(doc.contains(r#""fig10":[{"case":"Deadlock","#), "{doc}");
}

#[test]
fn deleted_sub_benches_are_unknown_not_aliased() {
    for args in [&["net"][..], &["soak"], &["--net"]] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown"), "{args:?}: {stderr}");
    }
}

#[test]
fn zero_reps_or_events_is_a_usage_error_not_a_panic() {
    for flag in ["--reps", "--events"] {
        let out = bench(&["fig6", flag, "0"]);
        assert_eq!(out.status.code(), Some(2), "{flag} 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
    }
}
