//! Shard-scaling benchmark (`ocep-bench shards`).
//!
//! Registers copies of the deadlock pattern across tenants and streams
//! the same workload through a [`ShardGroup`] at 1, 2, and 4 shards
//! (threaded above 1; a single partition runs inline), measuring
//! sustained ingest throughput. The interesting number is the scaling
//! ratio `shards=N / shards=1`: the per-monitor match search is what
//! partitions, so on a multi-core box the ratio should exceed 1, while
//! on a single core it measures pure fan-out overhead (SPSC rings,
//! verdict merge) and must stay ≥ 0.9 — the `pr9_shards` gate in
//! `BENCH_core.json`.

use crate::figures::deadlock_params;
use crate::output;
use crate::RunOptions;
use ocep_core::ingest::GuardConfig;
use ocep_core::MonitorSet;
use ocep_net::ShardGroup;
use ocep_poet::Event;
use ocep_simulator::workloads::{random_walk, Generated};
use std::collections::HashMap;
use std::time::Instant;

/// Monitors registered (as `t{j}/deadlock` tenant patterns): enough
/// that every shard owns several and the match search dominates.
const PATTERNS: usize = 16;
/// Events per `deliver_batch` frame.
const BATCH: usize = 256;

/// One measured shard-count configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShardRun {
    /// Matcher partitions (1 = everything inline on the caller).
    pub shards: usize,
    /// Events streamed per repetition.
    pub events: usize,
    /// Monitors registered across tenants.
    pub patterns: usize,
    /// Median sustained ingest throughput, events per second.
    pub events_per_sec: f64,
    /// Verdicts reported (must agree across all shard counts).
    pub verdicts: usize,
    /// `events_per_sec` relative to the 1-shard run.
    pub ratio_vs_single: f64,
}

fn build_group(g: &Generated, shards: usize) -> ShardGroup {
    let mut set = MonitorSet::new(g.n_traces);
    let mut sources = HashMap::new();
    for j in 0..PATTERNS {
        let name = format!("t{j}/deadlock");
        set.add(&name, g.pattern());
        sources.insert(name, g.pattern_src.clone());
    }
    set.enable_guard(GuardConfig::default());
    ShardGroup::new(set, shards, &sources)
}

fn pass(g: &Generated, events: &[Event], shards: usize) -> (f64, usize) {
    let mut group = build_group(g, shards);
    group.start_threads();
    let start = Instant::now();
    let mut verdicts = 0usize;
    for chunk in events.chunks(BATCH) {
        verdicts += group.deliver_batch("bench", chunk.to_vec()).verdicts.len();
    }
    verdicts += group.flush().verdicts.len();
    let dt = start.elapsed().as_secs_f64();
    group.seal();
    (events.len() as f64 / dt.max(1e-9), verdicts)
}

/// Runs the scaling sweep at shard counts 1, 2, and 4: `opts.reps`
/// repetitions each, keeping the median throughput (whole-run rates
/// are stable enough to gate on even on noisy machines).
///
/// # Panics
///
/// Panics if any shard count reports a different verdict count than
/// the 1-shard run — a throughput number from a diverging engine would
/// be meaningless.
#[must_use]
pub fn shards(opts: &RunOptions) -> Vec<ShardRun> {
    let g = random_walk::generate(&deadlock_params(10, opts.events, 8, 42));
    let events: Vec<Event> = g.poet.store().iter_arrival().cloned().collect();

    let mut runs = Vec::new();
    let mut single_rate = 0.0f64;
    let mut single_verdicts = None;
    for shards in [1usize, 2, 4] {
        let mut rates = Vec::new();
        let mut verdicts = 0usize;
        for _ in 0..opts.reps.max(1) {
            let (rate, v) = pass(&g, &events, shards);
            rates.push(rate);
            verdicts = v;
        }
        rates.sort_by(f64::total_cmp);
        let rate = rates[rates.len() / 2];
        match single_verdicts {
            None => {
                single_rate = rate;
                single_verdicts = Some(verdicts);
            }
            Some(v) => assert_eq!(
                verdicts, v,
                "{shards}-shard delivery disagreed on verdict count"
            ),
        }
        let run = ShardRun {
            shards,
            events: events.len(),
            patterns: PATTERNS,
            events_per_sec: rate,
            verdicts,
            ratio_vs_single: rate / single_rate.max(1e-9),
        };
        if output::human() {
            println!(
                "  shards={:<2} {:>10.0} ev/s | ratio vs 1-shard {:.3} | \
                 {} patterns | verdicts {}",
                run.shards, run.events_per_sec, run.ratio_vs_single, run.patterns, run.verdicts,
            );
        }
        runs.push(run);
    }
    runs
}
