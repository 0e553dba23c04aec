//! The `ocep-bench` command-line harness: regenerates every figure and
//! table of the paper's evaluation plus the DESIGN.md ablations.

use ocep_bench::stats::BoxPlot;
use ocep_bench::{figures, output, RunOptions};
use ocep_core::json::Json;
use ocep_core::ObsLevel;

const USAGE: &str = "\
ocep-bench — regenerate the OCEP paper's evaluation

USAGE:
    ocep-bench <EXPERIMENT> [--events N] [--reps N] [--full]
               [--obs [LEVEL]] [--json]

EXPERIMENTS:
    all                   run every experiment below
    fig3                  sliding-window omission vs representative subset
    fig6                  deadlock detection time vs #traces
    fig7                  message-race detection time vs #traces
    fig8                  atomicity-violation detection time vs #traces
    fig9                  ordering-bug detection time vs #traces
    fig10                 quartile table over all four test cases: the
                          largest row of fig6-fig9 (run first if needed)
    completeness          SV-D: all violations found, zero false positives
    depgraph              SV-C1: OCEP vs dependency-graph deadlock detector
    ablation-pattern-len  runtime vs deadlock-cycle length
    ablation-pruning      causal pruning vs naive backtracking
    ablation-dedup        SVI history deduplication effect

OPTIONS:
    --events N   approximate events per workload (default 40000)
    --reps N     repetitions per configuration (default 5)
    --full       paper scale: 1,000,000 events per test case
    --obs [LEVEL] collect observability metrics at LEVEL (off or full;
                 bare --obs means full) — measures instrumentation
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
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| bail("--events needs a positive number"));
            }
            "--reps" => {
                i += 1;
                opts.reps = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| bail("--reps needs a positive number"));
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
    let mut series = Default::default();
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
            .map(|name| (name, run_one(name, &opts, &mut series))),
        ),
        name => run_one(name, &opts, &mut series),
    };
    if json_mode {
        let doc = Json::obj([
            ("bench", Json::from(experiment)),
            (
                "options",
                Json::obj([
                    ("events", Json::from(opts.events)),
                    ("reps", Json::from(opts.reps)),
                    ("obs", Json::from(opts.obs.name())),
                ]),
            ),
            ("results", results),
        ]);
        println!("{doc}");
    }
}

/// Figs 6–9, the per-trace-count series that Fig 10 summarises.
type Series = Vec<(usize, BoxPlot)>;
type Figure = fn(&RunOptions) -> Series;
const SERIES: [(&str, Figure); 4] = [
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
];

/// Series `i` of [`SERIES`], measured on its first use in this run
/// only, so `all` measures each figure once.
fn series(i: usize, opts: &RunOptions, done: &mut [Option<Series>; 4]) -> Series {
    done[i].get_or_insert_with(|| SERIES[i].1(opts)).clone()
}

/// Runs one named experiment and returns its results as JSON (also
/// printing the human table unless `--json` suppressed it).
fn run_one(name: &str, opts: &RunOptions, done: &mut [Option<Series>; 4]) -> Json {
    if let Some(i) = SERIES.iter().position(|(n, _)| *n == name) {
        return series_json("traces", series(i, opts, done));
    }
    match name {
        "fig3" => {
            let (ocep, window) = figures::fig3();
            Json::obj([
                ("ocep_covers_old_trace", Json::from(ocep)),
                ("window_covers_old_trace", Json::from(window)),
            ])
        }
        "fig10" => Json::arr(
            figures::fig10([0, 1, 2, 3].map(|i| series(i, opts, done)))
                .into_iter()
                .map(|(case, b)| {
                    let mut pairs = vec![("case".to_owned(), Json::from(case))];
                    pairs.extend(boxplot_pairs(&b));
                    Json::Obj(pairs)
                }),
        ),
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

fn series_json(key: &str, series: Series) -> Json {
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
