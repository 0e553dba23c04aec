//! The `ocep-bench` command-line harness: regenerates every figure and
//! table of the paper's evaluation plus the DESIGN.md ablations.

use ocep_bench::json::Json;
use ocep_bench::stats::BoxPlot;
use ocep_bench::{figures, output, RunOptions};
use ocep_core::ObsLevel;

const USAGE: &str = "\
ocep-bench — regenerate the OCEP paper's evaluation

USAGE:
    ocep-bench <EXPERIMENT> [--events N] [--reps N] [--full] [--guard]
               [--obs [LEVEL]] [--json]

EXPERIMENTS:
    all                   run every experiment below
    fig3                  sliding-window omission vs representative subset
    fig6                  deadlock detection time vs #traces
    fig7                  message-race detection time vs #traces
    fig8                  atomicity-violation detection time vs #traces
    fig9                  ordering-bug detection time vs #traces
    fig10                 quartile table over all four test cases
    completeness          SV-D: all violations found, zero false positives
    depgraph              SV-C1: OCEP vs dependency-graph deadlock detector
    ablation-pattern-len  runtime vs deadlock-cycle length
    ablation-pruning      causal pruning vs naive backtracking
    ablation-dedup        SVI history deduplication effect
    net                   loopback OCWP serving throughput and accept->admit
                          latency vs in-process delivery (also: --net)
    clocks                vector-clock kernel microbenchmarks: chunked vs
                          scalar dominance/join, interned vs fresh clocks
    sim                   deterministic whole-system simulator turnover:
                          simulated events/s and runs/s vs client count
    wal                   durable-log microbenchmarks: append records/s per
                          durability mode, recovery ms per 100k records, and
                          batch-WAL vs no-WAL ingest medians
    shards                N-shard engine scaling: ShardGroup ingest throughput
                          at shards 1/2/4 (threaded above 1) over a
                          multi-tenant pattern registry, ratio vs 1 shard
    soak                  sustained-ingestion soak: an adapter-parsed MPI
                          recording (>= 1M events; --events raises it)
                          streamed through a live loopback server under
                          credit backpressure, with adapter parse and
                          served ingest rates per frame size

OPTIONS:
    --events N   approximate events per workload (default 40000)
    --reps N     repetitions per configuration (default 5)
    --full       paper scale: 1,000,000 events per test case
    --guard      run the monitors behind the causal admission guard
                 (measures the guard's in-order fast path overhead)
    --obs [LEVEL] collect observability metrics at LEVEL (off, counters,
                 full; bare --obs means full) — measures instrumentation
                 overhead against the uninstrumented baseline
    --json       emit one machine-readable JSON document on stdout
                 instead of the human tables
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprint!("{USAGE}");
        std::process::exit(2);
    }
    let mut opts = RunOptions::default();
    let mut experiment = None;
    let mut json_mode = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opts = RunOptions::paper_scale(),
            "--net" => experiment = Some("net".to_owned()),
            "--guard" => opts.guard = true,
            "--json" => json_mode = true,
            "--obs" => {
                // The level is optional: a bare --obs means full.
                if let Some(level) = args.get(i + 1).and_then(|s| ObsLevel::from_name(s)) {
                    opts.obs = level;
                    i += 1;
                } else {
                    opts.obs = ObsLevel::Full;
                }
            }
            "--events" => {
                i += 1;
                opts.events = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| bail("--events needs a number"));
            }
            "--reps" => {
                i += 1;
                opts.reps = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| bail("--reps needs a number"));
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_owned());
            }
            other => bail(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let Some(experiment) = experiment else {
        bail("missing experiment name");
    };

    output::set_human(!json_mode);
    if opts.obs.enabled() {
        ocep_vclock::ops::enable(true);
    }
    if !json_mode {
        println!(
            "# ocep-bench: {experiment} (events≈{}, reps={})",
            opts.events, opts.reps
        );
    }
    let results = match experiment.as_str() {
        "all" => Json::obj(
            [
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
            ]
            .into_iter()
            .map(|name| (name, run_one(name, &opts))),
        ),
        name => run_one(name, &opts),
    };
    if json_mode {
        let doc = Json::obj([
            ("bench", Json::from(experiment)),
            (
                "options",
                Json::obj([
                    ("events", Json::from(opts.events)),
                    ("reps", Json::from(opts.reps)),
                    ("guard", Json::from(opts.guard)),
                    ("obs", Json::from(opts.obs.name())),
                ]),
            ),
            ("results", results),
        ]);
        println!("{doc}");
    }
}

/// Runs one named experiment and returns its results as JSON (also
/// printing the human table unless `--json` suppressed it).
fn run_one(name: &str, opts: &RunOptions) -> Json {
    match name {
        "fig3" => {
            let (ocep, window) = figures::fig3();
            Json::obj([
                ("ocep_covers_old_trace", Json::from(ocep)),
                ("window_covers_old_trace", Json::from(window)),
            ])
        }
        "fig6" => series_json("traces", figures::fig6(opts)),
        "fig7" => series_json("traces", figures::fig7(opts)),
        "fig8" => series_json("traces", figures::fig8(opts)),
        "fig9" => series_json("traces", figures::fig9(opts)),
        "fig10" => Json::arr(figures::fig10(opts).into_iter().map(|(case, b)| {
            let mut pairs = vec![("case".to_owned(), Json::from(case))];
            pairs.extend(boxplot_pairs(&b));
            Json::Obj(pairs)
        })),
        "completeness" => Json::arr(figures::completeness(opts).into_iter().map(|c| {
            Json::obj([
                ("case", Json::from(c.name)),
                ("injected", Json::from(c.injected)),
                ("represented", Json::from(c.represented)),
                ("matches_found", Json::from(c.matches_found)),
                ("false_positives", Json::from(c.false_positives)),
            ])
        })),
        "depgraph" => Json::arr(figures::depgraph(opts).into_iter().map(
            |(len, ocep_med, dep_med)| {
                Json::obj([
                    ("cycle_len", Json::from(len)),
                    ("ocep_median_us", Json::from(ocep_med)),
                    ("depgraph_median_us", Json::from(dep_med)),
                ])
            },
        )),
        "net" => Json::arr([1usize, 64, 256, 1024].into_iter().map(|batch| {
            let r = ocep_bench::netbench::net(opts, batch);
            Json::obj([
                ("batch", Json::from(r.batch)),
                ("events", Json::from(r.events)),
                ("inproc_events_per_sec", Json::from(r.inproc_events_per_sec)),
                ("net_events_per_sec", Json::from(r.net_events_per_sec)),
                ("ratio", Json::from(r.ratio)),
                ("p50_accept_admit_ns_lo", Json::from(r.p50_ns.0)),
                ("p50_accept_admit_ns_hi", Json::from(r.p50_ns.1)),
                ("p99_accept_admit_ns_lo", Json::from(r.p99_ns.0)),
                ("p99_accept_admit_ns_hi", Json::from(r.p99_ns.1)),
                ("verdicts", Json::from(r.verdicts)),
            ])
        })),
        "clocks" => Json::arr(ocep_bench::clockbench::clocks().into_iter().map(|r| {
            Json::obj([
                ("traces", Json::from(r.traces)),
                ("le_ns", Json::from(r.le_ns)),
                ("le_scalar_ns", Json::from(r.le_scalar_ns)),
                ("join_ns", Json::from(r.join_ns)),
                ("join_scalar_ns", Json::from(r.join_scalar_ns)),
                ("intern_hit_ns", Json::from(r.intern_hit_ns)),
                ("fresh_ns", Json::from(r.fresh_ns)),
            ])
        })),
        "sim" => Json::arr([4usize, 32, 128].into_iter().map(|clients| {
            let r = ocep_bench::simbench::sim(opts, clients);
            Json::obj([
                ("clients", Json::from(r.clients)),
                ("events", Json::from(r.events)),
                ("steps", Json::from(r.steps)),
                ("verdicts", Json::from(r.verdicts)),
                ("sim_events_per_sec", Json::from(r.events_per_sec)),
                ("runs_per_sec", Json::from(r.runs_per_sec)),
            ])
        })),
        "soak" => Json::arr([256usize, 1024].into_iter().map(|batch| {
            let r = ocep_bench::soakbench::soak(opts, batch);
            Json::obj([
                ("batch", Json::from(r.batch)),
                ("ranks", Json::from(r.ranks)),
                ("records", Json::from(r.records)),
                ("events", Json::from(r.events)),
                ("truth_episodes", Json::from(r.truth)),
                ("parse_events_per_sec", Json::from(r.parse_events_per_sec)),
                ("serve_events_per_sec", Json::from(r.serve_events_per_sec)),
                ("p50_accept_admit_ns_lo", Json::from(r.p50_ns.0)),
                ("p50_accept_admit_ns_hi", Json::from(r.p50_ns.1)),
                ("p99_accept_admit_ns_lo", Json::from(r.p99_ns.0)),
                ("p99_accept_admit_ns_hi", Json::from(r.p99_ns.1)),
                ("verdicts", Json::from(r.verdicts)),
            ])
        })),
        "shards" => Json::arr(ocep_bench::shardbench::shards(opts).into_iter().map(|r| {
            Json::obj([
                ("shards", Json::from(r.shards)),
                ("events", Json::from(r.events)),
                ("patterns", Json::from(r.patterns)),
                ("events_per_sec", Json::from(r.events_per_sec)),
                ("verdicts", Json::from(r.verdicts)),
                ("ratio_vs_single", Json::from(r.ratio_vs_single)),
            ])
        })),
        "wal" => {
            let b = ocep_bench::walbench::wal(opts);
            Json::obj([
                (
                    "appends",
                    Json::arr(b.appends.into_iter().map(|a| {
                        Json::obj([
                            ("durability", Json::from(a.durability)),
                            ("records", Json::from(a.records)),
                            ("payload_bytes", Json::from(a.payload_bytes)),
                            ("records_per_sec", Json::from(a.records_per_sec)),
                        ])
                    })),
                ),
                ("recovery_records", Json::from(b.recovery_records)),
                ("recovery_ms_per_100k", Json::from(b.recovery_ms_per_100k)),
                (
                    "ingest",
                    Json::obj([
                        ("events", Json::from(b.ingest.events)),
                        ("off_median_us", Json::from(b.ingest.off_median_us)),
                        ("wal_median_us", Json::from(b.ingest.wal_median_us)),
                        ("ratio", Json::from(b.ingest.ratio)),
                    ]),
                ),
            ])
        }
        "ablation-pattern-len" => series_json("pattern_len", figures::ablation_pattern_len(opts)),
        "ablation-pruning" => Json::arr(figures::ablation_pruning(opts).into_iter().map(
            |(case, ocep_med, naive_med, ocep_cands, naive_cands)| {
                Json::obj([
                    ("case", Json::from(case)),
                    ("ocep_median_us", Json::from(ocep_med)),
                    ("naive_median_us", Json::from(naive_med)),
                    ("ocep_candidates", Json::from(ocep_cands)),
                    ("naive_candidates", Json::from(naive_cands)),
                ])
            },
        )),
        "ablation-dedup" => {
            let (with, without, with_us, without_us) = figures::ablation_dedup(opts);
            Json::obj([
                ("history_with_dedup", Json::from(with)),
                ("history_without_dedup", Json::from(without)),
                ("total_with_us", Json::from(with_us)),
                ("total_without_us", Json::from(without_us)),
            ])
        }
        other => bail(&format!("unknown experiment '{other}'")),
    }
}

fn boxplot_pairs(b: &BoxPlot) -> Vec<(String, Json)> {
    vec![
        ("q1_us".to_owned(), Json::from(b.q1)),
        ("median_us".to_owned(), Json::from(b.median)),
        ("q3_us".to_owned(), Json::from(b.q3)),
        ("top_whisker_us".to_owned(), Json::from(b.top_whisker)),
        ("max_us".to_owned(), Json::from(b.max)),
        ("samples".to_owned(), Json::from(b.n)),
    ]
}

fn series_json(key: &str, series: Vec<(usize, BoxPlot)>) -> Json {
    Json::arr(series.into_iter().map(|(n, b)| {
        let mut pairs = vec![(key.to_owned(), Json::from(n))];
        pairs.extend(boxplot_pairs(&b));
        Json::Obj(pairs)
    }))
}

fn bail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}
