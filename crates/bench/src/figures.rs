//! One runner per figure/table of the paper, plus the ablations called
//! out in DESIGN.md. Every function both prints the paper-format output
//! and returns the raw data so tests can assert on it.

use crate::measure::{measure_monitor, measure_naive};
use crate::stats::BoxPlot;
use crate::RunOptions;
use ocep_baselines::{DepGraphDetector, SlidingWindowMatcher};
use ocep_core::{Monitor, MonitorConfig};
use ocep_pattern::Pattern;
use ocep_poet::Event;
use ocep_simulator::workloads::{
    atomicity, message_race, random_walk, replicated_service, Generated,
};
use ocep_vclock::TraceId;

/// The monitor configuration every figure measures: the default engine
/// at the requested observability level.
fn figure_config(opts: &RunOptions) -> MonitorConfig {
    MonitorConfig {
        obs: opts.obs,
        ..MonitorConfig::default()
    }
}

fn pooled_samples<F>(opts: &RunOptions, mut generate: F) -> Vec<f64>
where
    F: FnMut(u64) -> Generated,
{
    // One discarded warmup pass: the very first measured search of a
    // process otherwise pays the cold costs (page faults, lazy
    // allocator arenas, branch-predictor training) and shows up as a
    // single ~4 ms outlier in the max column of the smallest series.
    let warm = generate(0);
    let _ = measure_monitor(&warm, figure_config(opts));
    let mut samples = Vec::new();
    for rep in 0..opts.reps {
        let g = generate(rep);
        let m = measure_monitor(&g, figure_config(opts));
        samples.extend(m.per_search_event_us);
    }
    samples
}

fn print_series(title: &str, series: &[(usize, BoxPlot)]) {
    crate::hprintln!("\n=== {title} ===");
    crate::hprintln!(
        "{:>8} {:>8} {:>8} {:>8} {:>12} {:>8} {:>8}",
        "traces",
        "Q1",
        "Med",
        "Q3",
        "TopWhisker",
        "Max",
        "samples"
    );
    for (n, b) in series {
        crate::hprintln!(
            "{:>8} {:>8.0} {:>8.0} {:>8.0} {:>12.0} {:>8.0} {:>8}",
            n,
            b.q1,
            b.median,
            b.q3,
            b.top_whisker,
            b.max,
            b.n
        );
    }
}

// ---------------------------------------------------------------- fig 6

/// Deadlock-workload parameters for `n` traces and an event budget.
#[must_use]
pub fn deadlock_params(
    n: usize,
    events: usize,
    cycle_len: usize,
    seed: u64,
) -> random_walk::Params {
    let per_round = n * (2 + 2); // walk_steps=2 locals + send + recv per process
    let rounds = (events / per_round).max(20);
    random_walk::Params {
        n_processes: n,
        rounds,
        walk_steps: 2,
        cycle_len,
        deadlock_prob: (60.0 / rounds as f64).min(0.5),
        seed,
    }
}

/// Fig 6: per-terminating-event execution time for deadlock detection,
/// versus the number of traces.
pub fn fig6(opts: &RunOptions) -> Vec<(usize, BoxPlot)> {
    let mut out = Vec::new();
    for &n in &[10usize, 20, 50] {
        let samples = pooled_samples(opts, |rep| {
            random_walk::generate(&deadlock_params(n, opts.events, 8, 42 + rep))
        });
        out.push((n, BoxPlot::from_samples(&samples)));
    }
    print_series("Fig 6: Execution Time for Deadlock (us)", &out);
    out
}

// ---------------------------------------------------------------- fig 7

/// Race-workload parameters for `n` traces and an event budget.
#[must_use]
pub fn race_params(n: usize, events: usize, seed: u64) -> message_race::Params {
    message_race::Params {
        n_processes: n,
        messages_per_sender: (events / (5 * (n - 1))).max(5),
        seed,
    }
}

/// Fig 7: message-race detection time versus the number of traces.
pub fn fig7(opts: &RunOptions) -> Vec<(usize, BoxPlot)> {
    let mut out = Vec::new();
    for &n in &[10usize, 20, 50] {
        let samples = pooled_samples(opts, |rep| {
            message_race::generate(&race_params(n, opts.events, 42 + rep))
        });
        out.push((n, BoxPlot::from_samples(&samples)));
    }
    print_series("Fig 7: Execution Time for Message Races (us)", &out);
    out
}

// ---------------------------------------------------------------- fig 8

/// Atomicity-workload parameters for `n` traces (threads + semaphore).
#[must_use]
pub fn atomicity_params(n: usize, events: usize, seed: u64) -> atomicity::Params {
    let threads = n - 1;
    atomicity::Params {
        n_threads: threads,
        rounds_per_thread: (events / (12 * threads)).max(5),
        bug_prob: 0.01,
        seed,
    }
}

/// Fig 8: atomicity-violation detection time versus the number of traces.
pub fn fig8(opts: &RunOptions) -> Vec<(usize, BoxPlot)> {
    let mut out = Vec::new();
    for &n in &[10usize, 20, 50] {
        let samples = pooled_samples(opts, |rep| {
            atomicity::generate(&atomicity_params(n, opts.events, 42 + rep))
        });
        out.push((n, BoxPlot::from_samples(&samples)));
    }
    print_series("Fig 8: Execution Time for Atomicity Violation (us)", &out);
    out
}

// ---------------------------------------------------------------- fig 9

/// Ordering-workload parameters for `n` traces (leader + followers).
#[must_use]
pub fn ordering_params(n: usize, events: usize, seed: u64) -> replicated_service::Params {
    let followers = n - 1;
    replicated_service::Params {
        n_followers: followers,
        synchs_per_follower: (events / (8 * followers)).max(3),
        bug_prob: 0.01,
        seed,
    }
}

/// Fig 9: ordering-bug detection time versus the number of traces
/// (50 / 100 / 500 in the paper).
pub fn fig9(opts: &RunOptions) -> Vec<(usize, BoxPlot)> {
    let mut out = Vec::new();
    for &n in &[50usize, 100, 500] {
        let samples = pooled_samples(opts, |rep| {
            replicated_service::generate(&ordering_params(n, opts.events, 42 + rep))
        });
        out.push((n, BoxPlot::from_samples(&samples)));
    }
    print_series("Fig 9: Execution Time for Ordering Bug (us)", &out);
    out
}

// --------------------------------------------------------------- fig 10

/// Fig 10: the quartile table over all four test cases (µs). It
/// measures nothing itself: each case's row is the last (largest) row of
/// its Fig 6–9 series, given in that order.
pub fn fig10(series: [Vec<(usize, BoxPlot)>; 4]) -> Vec<(&'static str, BoxPlot)> {
    crate::hprintln!("\n=== Fig 10: Detailed Runtime for Test Cases (us) ===");
    crate::hprintln!(
        "{:<12} {:>8} {:>8} {:>8} {:>12} {:>8}",
        "Test Case",
        "Q1",
        "Med",
        "Q3",
        "TopWhisker",
        "Max"
    );
    let mut out = Vec::new();
    for (name, rows) in ["Deadlock", "Races", "Atomicity", "Ordering"]
        .into_iter()
        .zip(series)
    {
        let (_, b) = *rows.last().expect("a figure has rows");
        crate::hprintln!("{name:<12} {}", b.fig10_row());
        out.push((name, b));
    }
    out
}

// ---------------------------------------------------------------- fig 3

/// Fig 3: the sliding-window omission scenario. Returns
/// `(ocep_covers_t1, window_covers_t1)` for the old-trace match the
/// window forgets.
pub fn fig3() -> (bool, bool) {
    let src = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";
    let n = 3;
    let mut poet = ocep_poet::PoetServer::new(n);
    let t = TraceId::new;
    // a21-style: an old 'a' on T1 whose match will outlive the window.
    poet.record_id(t(1), ocep_poet::EventKind::Unary, "a", "");
    let s = poet.record_id(t(1), ocep_poet::EventKind::Send, "m", "");
    poet.record_receive_id(t(2), s, "m", "");
    // A stream of fresher a's on T0 (communication between them keeps
    // each one distinct), enough to overflow the n² window.
    for _ in 0..2 * n * n {
        poet.record_id(t(0), ocep_poet::EventKind::Unary, "a", "");
        let s0 = poet.record_id(t(0), ocep_poet::EventKind::Send, "m", "");
        poet.record_receive_id(t(2), s0, "m", "");
    }
    // The terminating b on T2.
    poet.record_id(t(2), ocep_poet::EventKind::Unary, "b", "");

    let mut monitor = Monitor::new(Pattern::parse(src).unwrap(), n);
    let mut window = SlidingWindowMatcher::paper_sized(Pattern::parse(src).unwrap(), n);
    let mut window_covers_t1 = false;
    for e in poet.store().iter_arrival() {
        let _ = monitor.observe(e);
        for m in window.observe(e) {
            if m.iter().any(|x| x.trace() == t(1) && x.ty() == "a") {
                window_covers_t1 = true;
            }
        }
    }
    let ocep_covers_t1 = monitor.covers("A", t(1));
    crate::hprintln!("\n=== Fig 3: Representative Subset vs Sliding Window ===");
    crate::hprintln!("match involving the old event on T1 (the paper's a21 b25):");
    crate::hprintln!("  OCEP representative subset covers it: {ocep_covers_t1}");
    crate::hprintln!("  n^2 sliding window reports it:        {window_covers_t1}");
    (ocep_covers_t1, window_covers_t1)
}

// -------------------------------------------------------- completeness

/// §V-D completeness/false-positive results for one workload.
#[derive(Debug)]
pub struct Completeness {
    /// Workload name.
    pub name: &'static str,
    /// Injected violations (ground truth).
    pub injected: usize,
    /// Ground-truth violations represented in the reported subset.
    pub represented: usize,
    /// Matches found by the monitor across the run.
    pub matches_found: u64,
    /// Reported matches failing independent re-verification.
    pub false_positives: usize,
}

/// §V-D: every injected violation detected, zero false positives, for
/// all four case studies.
pub fn completeness(opts: &RunOptions) -> Vec<Completeness> {
    let scale = opts.events.min(60_000);
    let mut out = Vec::new();

    // Deadlock.
    {
        let g = random_walk::generate(&deadlock_params(10, scale, 3, 7));
        let (monitor, reported) = run_rep(&g);
        let represented = g
            .truth
            .iter()
            .filter(|v| {
                v.traces
                    .iter()
                    .all(|&tr| (0..3).any(|i| monitor.covers(&format!("S{i}"), tr)))
            })
            .count();
        out.push(Completeness {
            name: "Deadlock",
            injected: g.truth.len(),
            represented,
            matches_found: monitor.stats().matches_found,
            false_positives: count_false_positives(&g, &reported),
        });
    }
    // Races.
    {
        let g = message_race::generate(&race_params(10, scale, 7));
        let (monitor, reported) = run_rep(&g);
        let represented = g
            .truth
            .iter()
            .filter(|v| {
                v.traces
                    .iter()
                    .all(|&tr| monitor.covers("S1", tr) || monitor.covers("S2", tr))
            })
            .count();
        out.push(Completeness {
            name: "Races",
            injected: g.truth.len(),
            represented,
            matches_found: monitor.stats().matches_found,
            false_positives: count_false_positives(&g, &reported),
        });
    }
    // Atomicity.
    {
        let g = atomicity::generate(&atomicity::Params {
            bug_prob: 0.02,
            ..atomicity_params(10, scale, 7)
        });
        let (monitor, reported) = run_rep(&g);
        let represented = g
            .truth
            .iter()
            .filter(|v| monitor.covers("E1", v.traces[0]) || monitor.covers("E2", v.traces[0]))
            .count();
        out.push(Completeness {
            name: "Atomicity",
            injected: g.truth.len(),
            represented,
            matches_found: monitor.stats().matches_found,
            false_positives: count_false_positives(&g, &reported),
        });
    }
    // Ordering.
    {
        let g = replicated_service::generate(&replicated_service::Params {
            bug_prob: 0.02,
            ..ordering_params(50, scale, 7)
        });
        let (monitor, reported) = run_rep(&g);
        let represented = g
            .truth
            .iter()
            .filter(|v| monitor.covers("Receive", v.traces[1]))
            .count();
        out.push(Completeness {
            name: "Ordering",
            injected: g.truth.len(),
            represented,
            matches_found: monitor.stats().matches_found,
            false_positives: count_false_positives(&g, &reported),
        });
    }

    crate::hprintln!("\n=== SV-D: Completeness and False Positives ===");
    crate::hprintln!(
        "{:<12} {:>9} {:>12} {:>13} {:>16}",
        "Test Case",
        "injected",
        "represented",
        "matches",
        "false positives"
    );
    for c in &out {
        crate::hprintln!(
            "{:<12} {:>9} {:>12} {:>13} {:>16}",
            c.name,
            c.injected,
            c.represented,
            c.matches_found,
            c.false_positives
        );
    }
    out
}

fn run_rep(g: &Generated) -> (Monitor, Vec<ocep_core::Match>) {
    let mut monitor = Monitor::new(g.pattern(), g.n_traces);
    let mut reported = Vec::new();
    for e in g.poet.store().iter_arrival() {
        reported.extend(monitor.observe(e));
    }
    (monitor, reported)
}

/// Independent re-verification of every reported match with the whole
/// check the oracle decides by ([`Pattern::accepts`]), against the whole
/// recorded computation.
fn count_false_positives(g: &Generated, reported: &[ocep_core::Match]) -> usize {
    let pattern = g.pattern();
    let seen: Vec<Event> = g.poet.store().iter_arrival().cloned().collect();
    reported
        .iter()
        .filter(|m| !pattern.accepts(m.events(), &seen))
        .count()
}

// ------------------------------------------------------------ depgraph

/// §V-C1 comparison: OCEP pattern matching versus a wait-for
/// dependency-graph cycle detector, per blocked-send event (µs medians),
/// across cycle lengths.
pub fn depgraph(opts: &RunOptions) -> Vec<(usize, f64, f64)> {
    crate::hprintln!("\n=== SV-C1: OCEP vs dependency-graph deadlock detection ===");
    crate::hprintln!(
        "{:>10} {:>16} {:>16}",
        "cycle len",
        "OCEP med (us)",
        "depgraph med (us)"
    );
    let mut out = Vec::new();
    for &len in &[2usize, 3, 4, 5] {
        let g = random_walk::generate(&deadlock_params(10, opts.events.min(100_000), len, 3));
        let m = measure_monitor(&g, MonitorConfig::default());
        let ocep_med = BoxPlot::from_samples(&m.per_search_event_us).median;

        let mut det = DepGraphDetector::new(g.n_traces);
        let mut dep_samples = Vec::new();
        for e in g.poet.store().iter_arrival() {
            if e.ty() == "mpi_block_send" {
                let t0 = std::time::Instant::now();
                let _ = det.observe(e);
                dep_samples.push(t0.elapsed().as_secs_f64() * 1e6);
            } else {
                let _ = det.observe(e);
            }
        }
        let dep_med = BoxPlot::from_samples(&dep_samples).median;
        crate::hprintln!("{len:>10} {ocep_med:>16.1} {dep_med:>16.1}");
        out.push((len, ocep_med, dep_med));
    }
    out
}

// ------------------------------------------------------------ ablations

/// Ablation: deadlock detection time versus pattern (cycle) length —
/// the paper's "still exponential in the length of the pattern".
pub fn ablation_pattern_len(opts: &RunOptions) -> Vec<(usize, BoxPlot)> {
    let mut out = Vec::new();
    for &len in &[2usize, 3, 4, 5, 6] {
        let samples = pooled_samples(&RunOptions { reps: 3, ..*opts }, |rep| {
            random_walk::generate(&deadlock_params(
                10,
                opts.events.min(60_000),
                len,
                100 + rep,
            ))
        });
        out.push((len, BoxPlot::from_samples(&samples)));
    }
    crate::hprintln!("\n=== Ablation: runtime vs pattern length (deadlock cycle) ===");
    crate::hprintln!(
        "{:>12} {:>8} {:>8} {:>8} {:>12} {:>8}",
        "pattern len",
        "Q1",
        "Med",
        "Q3",
        "TopWhisker",
        "Max"
    );
    for (len, b) in &out {
        crate::hprintln!(
            "{:>12} {:>8.0} {:>8.0} {:>8.0} {:>12.0} {:>8.0}",
            len,
            b.q1,
            b.median,
            b.q3,
            b.top_whisker,
            b.max
        );
    }
    out
}

/// Ablation: OCEP's causal pruning versus naive chronological
/// backtracking. Returns `(name, ocep_median_us, naive_median_us,
/// ocep_nodes, naive_nodes)`.
pub fn ablation_pruning(opts: &RunOptions) -> Vec<(&'static str, f64, f64, u64, u64)> {
    let scale = opts.events.min(30_000);
    let mut out = Vec::new();
    let cases: Vec<(&'static str, Generated)> = vec![
        (
            "Deadlock",
            random_walk::generate(&deadlock_params(10, scale, 3, 5)),
        ),
        (
            "Ordering",
            replicated_service::generate(&ordering_params(20, scale, 5)),
        ),
        (
            "Races",
            message_race::generate(&race_params(10, scale.min(10_000), 5)),
        ),
    ];
    crate::hprintln!("\n=== Ablation: causal pruning vs naive backtracking ===");
    crate::hprintln!(
        "{:<10} {:>14} {:>14} {:>12} {:>12}",
        "case",
        "OCEP med(us)",
        "naive med(us)",
        "OCEP cands",
        "naive cands"
    );
    for (name, g) in cases {
        let m = measure_monitor(&g, MonitorConfig::default());
        let ocep_med = BoxPlot::from_samples(&m.per_search_event_us).median;
        let (naive_samples, naive_nodes, _) = measure_naive(&g);
        let naive_med = BoxPlot::from_samples(&naive_samples).median;
        crate::hprintln!(
            "{:<10} {:>14.1} {:>14.1} {:>12} {:>12}",
            name,
            ocep_med,
            naive_med,
            m.stats.candidates,
            naive_nodes
        );
        out.push((name, ocep_med, naive_med, m.stats.candidates, naive_nodes));
    }
    out
}

/// Ablation: the §VI O(1) history dedup. Returns
/// `(history_with, history_without, total_with_us, total_without_us)`.
pub fn ablation_dedup(opts: &RunOptions) -> (usize, usize, f64, f64) {
    // The random-walk workload has long unary stretches between
    // communication, which is exactly where the SVI dedup pays off; make
    // the walk steps match a pattern leaf so they enter histories.
    let mut params = deadlock_params(10, opts.events.min(60_000), 3, 5);
    params.walk_steps = 20;
    let mut g = random_walk::generate(&params);
    // Watch walk steps themselves so the histories see the unary bursts.
    g.pattern_src = "W := [*, walk_step, *]; B := [*, mpi_block_send, *]; \
                     pattern := W -> B;"
        .to_owned();
    let with = measure_monitor(&g, MonitorConfig::default());
    let without = measure_monitor(
        &g,
        MonitorConfig {
            dedup: false,
            ..MonitorConfig::default()
        },
    );
    crate::hprintln!("\n=== Ablation: SVI history deduplication ===");
    crate::hprintln!(
        "history with dedup:    {:>10} events ({} arrivals suppressed)",
        with.history_size,
        with.suppressed
    );
    crate::hprintln!("history without dedup: {:>10} events", without.history_size);
    crate::hprintln!(
        "approx memory: {:.1} KiB with vs {:.1} KiB without",
        with.history_bytes as f64 / 1024.0,
        without.history_bytes as f64 / 1024.0
    );
    crate::hprintln!(
        "monitoring time: {:.1} ms with vs {:.1} ms without",
        with.total.as_secs_f64() * 1e3,
        without.total.as_secs_f64() * 1e3
    );
    (
        with.history_size,
        without.history_size,
        with.total.as_secs_f64() * 1e6,
        without.total.as_secs_f64() * 1e6,
    )
}
