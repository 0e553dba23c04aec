//! Micro-benchmarks for the primitive operations the §IV matcher
//! composes: vector-clock comparison, GP/LS lookup, history insertion
//! with §VI dedup, pattern parsing, monitor observation, and the
//! dump/reload path — plus the MPI reader, the first stage of the
//! served pipeline.
//!
//! Self-timed (no external bench framework): each benchmark runs a
//! short warmup, then reports the median of 15 timed batches.

use ocep_core::{Monitor, MonitorConfig};
use ocep_pattern::Pattern;
use ocep_poet::{Event, EventKind, PoetServer};
use ocep_vclock::TraceId;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` in timed batches of `batch` iterations and prints the
/// median per-iteration time.
fn bench<T>(name: &str, batch: u32, mut f: impl FnMut() -> T) {
    for _ in 0..batch {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() / f64::from(batch)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    println!("{name:<45} {:>12.1} ns/iter", median * 1e9);
}

fn t(i: u32) -> TraceId {
    TraceId::new(i)
}

/// A chain computation over `n` traces with `len` events per trace,
/// cross-linked so clocks are non-trivial.
fn build_store(n: usize, len: usize) -> PoetServer {
    let mut poet = PoetServer::new(n);
    let mut last_send = None;
    for round in 0..len {
        for p in 0..n {
            let tr = t(p as u32);
            if round % 3 == 0 {
                let s = poet.record_id(tr, EventKind::Send, "a", "");
                if let Some(prev) = last_send.replace(s) {
                    poet.record_receive_id(tr, prev, "r", "");
                }
            } else {
                poet.record_id(tr, EventKind::Unary, "a", "");
            }
        }
    }
    poet
}

fn bench_clock_comparison() {
    let poet = build_store(16, 64);
    let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();
    let a = events[events.len() / 3].clone();
    let b = events[2 * events.len() / 3].clone();
    bench("vclock/happens_before", 1000, || {
        a.stamp().happens_before(black_box(b.stamp()))
    });
    bench("vclock/causality_classify", 1000, || {
        a.stamp().causality(black_box(b.stamp()))
    });
}

fn bench_gp_ls() {
    let poet = build_store(16, 256);
    let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();
    let probe = events[events.len() / 2].clone();
    bench("store/greatest_predecessor", 1000, || {
        poet.store()
            .greatest_predecessor(probe.stamp(), black_box(t(3)))
    });
    bench("store/least_successor_binary_search", 1000, || {
        poet.store().least_successor(probe.stamp(), black_box(t(3)))
    });
}

fn bench_history_insert() {
    let pattern_src = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";
    let poet = build_store(8, 128);
    let events: Vec<Event> = poet.store().iter_arrival().cloned().collect();
    bench("history/observe_with_dedup", 4, || {
        let mut monitor = Monitor::with_config(
            Pattern::parse(pattern_src).unwrap(),
            8,
            MonitorConfig::default(),
        );
        for e in &events {
            black_box(monitor.observe(e));
        }
    });
}

fn bench_pattern_parse() {
    let src = ocep_simulator::workloads::replicated_service::ordering_pattern();
    bench("pattern/parse_ordering_bug", 200, || {
        Pattern::parse(black_box(&src)).unwrap()
    });
    let cycle = ocep_simulator::workloads::random_walk::cycle_pattern(6);
    bench("pattern/parse_deadlock_cycle6", 200, || {
        Pattern::parse(black_box(&cycle)).unwrap()
    });
}

fn bench_observe_terminating() {
    // Cost of the terminating-event searches on a warm monitor.
    let g = ocep_simulator::workloads::replicated_service::generate(
        &ocep_simulator::workloads::replicated_service::Params {
            n_followers: 20,
            synchs_per_follower: 20,
            bug_prob: 0.05,
            seed: 1,
        },
    );
    let events: Vec<Event> = g.poet.store().iter_arrival().cloned().collect();
    let (warm, tail) = events.split_at(events.len() - 50);
    bench("monitor/observe_tail_50_events_ordering", 2, || {
        let mut m = Monitor::new(g.pattern(), g.n_traces);
        for e in warm {
            let _ = m.observe(e);
        }
        for e in tail {
            black_box(m.observe(e));
        }
    });
}

fn bench_dump_reload() {
    let poet = build_store(8, 128);
    bench("poet/dump", 100, || ocep_poet::dump::dump(poet.store()));
    let bytes = ocep_poet::dump::dump(poet.store());
    bench("poet/reload", 100, || {
        ocep_poet::dump::reload(black_box(&bytes)).unwrap()
    });
}

/// The MPI reader over the served workloads' input: its first call in
/// the process (on heap pages not yet touched) and the median of 15
/// more, each output dropped outside the timed region.
fn bench_mpi_parse() {
    let rec = ocep_adapters::testgen::mpi_soak(1, 8, 300_000);
    let adapter = ocep_adapters::by_name("mpi").expect("mpi reader");
    let parse = || {
        let t0 = Instant::now();
        let out = adapter.parse_str(black_box(&rec.text)).unwrap();
        (t0.elapsed().as_secs_f64(), out.events.len())
    };
    let (cold, events) = parse();
    let mut samples: Vec<f64> = (0..15).map(|_| parse().0).collect();
    samples.sort_by(f64::total_cmp);
    let per_event = |s: f64| s * 1e9 / events as f64;
    println!(
        "{:<45} {:>12.1} ns/event ({events} events; first call {:.1})",
        "adapters/mpi_parse_str",
        per_event(samples[samples.len() / 2]),
        per_event(cold),
    );
}

fn main() {
    bench_mpi_parse();
    bench_clock_comparison();
    bench_gp_ls();
    bench_history_insert();
    bench_pattern_parse();
    bench_observe_terminating();
    bench_dump_reload();
}
