//! `ocep-benchmark`: the repo benchmark described by `BENCHMARK.json`.
//!
//! ```text
//! benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! benchmark/run.sh [--seed <n>] [--smoke] [--trace-out <dir>]    # every workload, both ways
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON
//! object: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`) of that workload. Without it, every workload
//! is run untraced and then traced, one such line each, with a table
//! on standard error. See `README.md`.

mod alloc;
mod check;
mod gen;
mod net;
mod run;
mod sched;
mod span;
mod staged;
mod stats;

use gen::{Size, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Pinned default seed: a bare `run.sh` measures the same inputs every
/// time.
const DEFAULT_SEED: u64 = 1;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// The gated end-to-end metrics with their units, in report order.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s")];

/// End-to-end metrics that did not repeat within the regression bound
/// on the seed commit (README, "Which metrics are gated"): measured by
/// every untraced run and printed on their own line, outside the gate.
pub const UNGATED: &[(&str, &str)] = &[
    ("events_per_s", "events/s"),
    ("latency_us_p50", "us"),
    ("latency_us_p99", "us"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        size: Size::Full,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.size = Size::Smoke,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.size == Size::Smoke {
        // A smoke run exercises every path once; it measures nothing.
        args.seconds = args.seconds.min(0.5);
    }
    Ok(args)
}

/// One run's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Untraced runs only: the [`UNGATED`] timings; `None` is a
    /// percentile with too few samples behind it.
    ungated: Vec<(&'static str, &'static str, Option<f64>)>,
    note: String,
}

type Metric = (&'static str, &'static str, f64);

fn metrics_json(metrics: impl Iterator<Item = Metric>) -> String {
    let mut s = String::from("{");
    for (i, (name, unit, value)) in metrics.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    s.push('}');
    s
}

impl Outcome {
    fn json(&self) -> String {
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(self.metrics.iter().copied())
        )
    }

    /// The [`UNGATED`] timings that were measured (empty for a traced
    /// run), in the shape of `metrics`.
    fn ungated_json(&self) -> String {
        metrics_json(self.measured_ungated())
    }

    fn measured_ungated(&self) -> impl Iterator<Item = Metric> + '_ {
        self.ungated
            .iter()
            .filter_map(|(n, u, v)| v.map(|v| (*n, *u, v)))
    }
}

/// A metric that could not be measured is an error, never a 0: a
/// lower-is-better 0 would read as an improvement without bound.
fn measured(name: &str, value: f64, nonzero: bool) -> Result<f64, String> {
    if value.is_finite() && !(nonzero && value <= 0.0) {
        Ok(value)
    } else {
        Err(format!("{name} was not measured (read {value})"))
    }
}

fn run_one(
    workload: Workload,
    args: &Args,
    trace: bool,
    work: &mut net::WorkDir,
) -> Result<Outcome, String> {
    if trace {
        let out_path = args
            .trace_out
            .as_ref()
            .map(|dir| dir.join(format!("{}.spans.jsonl", workload.name())));
        if let Some(dir) = &args.trace_out {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let t = staged::run(
            workload,
            args.seed,
            args.seconds,
            args.size,
            work,
            out_path.as_deref(),
        )?;
        let metrics = staged::LAYER_METRICS
            .iter()
            .map(|(n, u)| {
                // A layer the workload does not touch reads 0.
                let v = t.metrics.get(n).copied().unwrap_or(0.0);
                Ok((*n, *u, measured(n, v, false)?))
            })
            .collect::<Result<_, String>>()?;
        Ok(Outcome {
            correct: t.correct,
            attempted: t.attempted,
            failed: t.failed,
            metrics,
            ungated: Vec::new(),
            note: t.note,
        })
    } else {
        let e = run::run(workload, args.seed, args.seconds, args.size, work)?;
        eprintln!(
            "# {}: {} set-ups, {} throughput passes, {} latency passes, {} latency samples, \
             worst {:.0} us",
            workload.name(),
            e.setup_samples,
            e.passes,
            e.latency_passes,
            e.latency_samples,
            e.latency_us_max
        );
        let gated = [e.setup_s];
        let ungated = [
            Some(e.events_per_s),
            Some(e.latency_us_p50),
            e.latency_us_p99,
            Some(e.peak_rss_mb),
        ];
        Ok(Outcome {
            correct: e.correct,
            attempted: e.attempted,
            failed: e.failed,
            metrics: END_TO_END
                .iter()
                .zip(gated)
                .map(|((n, u), v)| Ok((*n, *u, measured(n, v, true)?)))
                .collect::<Result<_, String>>()?,
            ungated: UNGATED
                .iter()
                .zip(ungated)
                .map(|((n, u), v)| Ok((*n, *u, v.map(|v| measured(n, v, true)).transpose()?)))
                .collect::<Result<_, String>>()?,
            note: e.note,
        })
    }
}

fn report(workload: Workload, trace: bool, o: &Outcome) {
    let mode = if trace { "traced" } else { "untraced" };
    eprintln!(
        "# {} ({mode}): attempted {} failed {} correct {}{}",
        workload.name(),
        o.attempted,
        o.failed,
        o.correct,
        if o.note.is_empty() {
            String::new()
        } else {
            format!(" — {}", o.note)
        }
    );
    for (name, unit, value) in o.metrics.iter().copied().chain(o.measured_ungated()) {
        eprintln!(
            "{:<22} {:<32} {:>16.4} {unit}",
            workload.name(),
            name,
            value
        );
    }
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let mut work = net::WorkDir::new().map_err(|e| format!("scratch directory: {e}"))?;
    eprintln!(
        "# ocep-benchmark: seed {} · {} s per run · host loopback, local disk · {} hardware threads",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut all_correct = true;
    match args.workload {
        Some(workload) => {
            let o = run_one(workload, &args, args.trace, &mut work)?;
            report(workload, args.trace, &o);
            all_correct = o.correct;
            if !args.trace {
                println!(r#"{{"ungated": {}}}"#, o.ungated_json());
            }
            println!("{}", o.json());
        }
        None => {
            for trace in [false, true] {
                for workload in Workload::ALL {
                    let o = run_one(workload, &args, trace, &mut work)?;
                    report(workload, trace, &o);
                    all_correct &= o.correct;
                    println!(
                        r#"{{"workload": "{}", "trace": {}, "result": {}, "ungated": {}}}"#,
                        workload.name(),
                        u8::from(trace),
                        o.json(),
                        o.ungated_json()
                    );
                }
            }
        }
    }
    Ok(all_correct)
}

fn main() {
    // `real_main` owns the scratch directory, so it is gone — success,
    // failure or error — before the process exits.
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("ocep-benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract the driver reads; the binary's
    /// tables must say the same thing.
    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for w in Workload::ALL {
            assert!(
                text.contains(&format!(r#""name": "{}""#, w.name())),
                "workload {}",
                w.name()
            );
        }
        for (name, unit) in END_TO_END.iter().chain(staged::LAYER_METRICS) {
            assert!(
                text.contains(&format!(r#""name": "{name}", "unit": "{unit}""#)),
                "metric {name} ({unit})"
            );
        }
        let listed = text.matches(r#""unit": "#).count();
        assert_eq!(listed, END_TO_END.len() + staged::LAYER_METRICS.len());
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", "s", 0.25)],
            ungated: vec![("events_per_s", "events/s", Some(1e6)), ("p99", "us", None)],
            note: String::new(),
        };
        assert_eq!(
            o.json(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
        assert_eq!(
            o.ungated_json(),
            r#"{"events_per_s": {"value": 1000000, "unit": "events/s"}}"#
        );
        // An unmeasured metric is an error, not a 0.
        assert!(measured("setup_s", f64::NAN, false).is_err());
        assert!(measured("setup_s", 0.0, true).is_err());
        assert_eq!(measured("ingest.duplicates", 0.0, false), Ok(0.0));
    }

    /// Every workload, untraced and traced, at smoke size: all paths
    /// run, every fingerprint check passes, every metric is reported.
    #[test]
    fn smoke_run_is_correct_on_every_workload() {
        let args = Args {
            workload: None,
            seed: 5,
            seconds: 0.2,
            trace: false,
            size: Size::Smoke,
            trace_out: None,
        };
        let mut work = net::WorkDir::new().expect("scratch directory");
        for trace in [false, true] {
            for w in Workload::ALL {
                let o = run_one(w, &args, trace, &mut work)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(o.correct, "{} (trace {trace}): {}", w.name(), o.note);
                assert_eq!(o.failed, 0, "{} (trace {trace})", w.name());
                let want = if trace {
                    staged::LAYER_METRICS.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(o.metrics.len(), want);
            }
        }
    }
}
