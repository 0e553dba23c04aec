//! Work budgets of the serving pipeline, counted rather than timed
//! (tier-1; the in-tree twin of `benchmark/`'s ledger, ROADMAP item 1).
//!
//! Miniature versions of the five `BENCHMARK.json` workloads are built
//! from the in-tree generators and run through the layers one call at a
//! time on this thread — encode, decode, admit + match, log, checkpoint
//! — with the per-thread counting allocator around each call. What is
//! pinned repeats exactly under a seed: bytes on the wire (full and
//! delta clocks) and in the log, checkpoint size, allocations per
//! encoded frame, per decoded event and per observed event, search
//! nodes and candidates, history events and bytes. A change that moves
//! one of these on purpose edits `BUDGETS` and says why; one that moves
//! it by accident fails here on a number, not on a timing.
//!
//! The figures were first taken at commit 81ea5c6, one PR before the
//! record codec moved into `ocep_poet::codec`, and every one of them is
//! still what it was there but two: decoding no longer `format!`s a
//! label per string-table entry and sizes the table from its checked
//! count, so at that commit `decode_allocs` read `table_strings +
//! table_regrowths` higher and `log_decode_allocs` read
//! `log_table_strings` higher (8,638 / 10,123 / 6,393 and 24,640).
//!
//! Set-up has a budget too: `setup_allocs`, `setup_bytes` and
//! `setup_large_reallocs` count what generating each workload's input
//! asks of the allocator — the bulk of what the benchmark's one gated
//! metric, `setup_s`, times. They were first taken at commit 3173f91,
//! where the tracer kept a `Vec<Event>` per trace and a vector of
//! arrival ids; since its store became one arrival log with a per-trace
//! index the two workloads generated through it ask for less
//! (`inproc-deadlock-50` 8,643 allocations / 4,336,576 bytes there,
//! `served-tenants-16` 2,703 / 937,080) and the other three, which never
//! build a tracer, for exactly what they did. The three generated from
//! `testgen` recordings asked for more while the generators formatted
//! each record into a `String` that regrew by doubling; since they write
//! into one buffer sized up front, `ingest-otlp-offline` asks for 2
//! allocations / 504,832 bytes / no large reallocation instead of
//! 1,754 / 1,204,056 / 1, `served-clean-8` for 4,131 / 850,487 instead
//! of 4,145 / 947,942, and `served-resend-8` for 4,168 / 2,075,047
//! instead of 4,182 / 2,172,502.
//!
//! Search and observe figures moved with the search's one narrowing
//! rule. Routing an event no longer formats its trace name for
//! every leaf (`LeafSpec::matches_shape` compares a process literal in
//! place), and a bound text variable reads the text index's positions in
//! place instead of collecting them per trace. With the smaller search
//! below, `observe_allocs` fell from 68,867 / 12,689 / 12,692 / 357,766 /
//! 25,275 (in the order of `BUDGETS`) to the figures there. The
//! breadth-first evaluation order now takes first a reached leaf whose
//! process variable is bound, so the deadlock cycle is searched along its
//! variable chain: `nodes` / `candidates` fell from 1,245 / 861 on
//! `inproc-deadlock-50`, 112 / 49 on both `served-*-8` and 10,912 / 6,816
//! on `served-tenants-16`; `ingest-otlp-offline` searched the same.
//!
//! Deleting the Fig 5 jump bounds left `nodes` and `candidates` where
//! they were (the bounds never fired here) and took away each monitor's
//! per-level bound buffers, one allocation the first time its search
//! reached a level: `observe_allocs` fell from 2,739 / 436 / 439 /
//! 29,430 / 4,737 to the figures in `BUDGETS`.

use ocep_repro::adapters::testgen;
use ocep_repro::conformance::{apply_faults, FaultPlan, ReorderMode};
use ocep_repro::net::shard::decode_deliver;
use ocep_repro::net::wire::{decode_body, encode_body, encode_body_delta, Frame};
use ocep_repro::net::ShardGroup;
use ocep_repro::ocep::{save_set, GuardConfig, MonitorConfig, MonitorSet};
use ocep_repro::pattern::Pattern;
use ocep_repro::poet::Event;
use ocep_repro::simulator::workloads::{random_walk, replicated_service};
use ocep_repro::wal::{self, Durability, REC_DELIVER};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::counted;

/// Everything counted on one miniature workload. A layer the workload
/// does not cross reads 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Budget {
    /// Events offered (duplicates included).
    events: u64,
    /// Frames they travel in.
    frames: u64,
    /// OCWP bytes, length prefixes included, with full clocks.
    wire_full_bytes: u64,
    /// The same frames as `EventBatchD`.
    wire_delta_bytes: u64,
    /// String-table entries over all frames.
    table_strings: u64,
    /// Reallocations a table vector grown from empty (capacity 4, 8,
    /// 16, ..) would have made, over all frames.
    table_regrowths: u64,
    /// Allocations of `encode_body_delta`, all frames.
    encode_allocs: u64,
    /// Allocations of `decode_body`, all frames.
    decode_allocs: u64,
    /// Allocations of admission + matching, all events.
    observe_allocs: u64,
    searches: u64,
    nodes: u64,
    candidates: u64,
    history_events: u64,
    history_bytes: u64,
    /// `save_set` of the final state.
    checkpoint_bytes: u64,
    /// Segment bytes of the durable log.
    log_bytes: u64,
    /// String-table entries over all deliver records of the log.
    log_table_strings: u64,
    /// Allocations of `decode_deliver`, all deliver records.
    log_decode_allocs: u64,
    /// Allocations of generating the workload's input, which is what the
    /// benchmark's `set_up` (and so `setup_s`) mostly is.
    setup_allocs: u64,
    /// Bytes those allocations requested.
    setup_bytes: u64,
    /// Reallocations of a block of 256 KiB or more among them.
    setup_large_reallocs: u64,
}

const BUDGETS: &[(&str, Budget)] = &[
    (
        "inproc-deadlock-50",
        Budget {
            events: 8096,
            frames: 0,
            wire_full_bytes: 0,
            wire_delta_bytes: 0,
            table_strings: 0,
            table_regrowths: 0,
            encode_allocs: 0,
            decode_allocs: 0,
            observe_allocs: 2731,
            searches: 384,
            nodes: 912,
            candidates: 528,
            history_events: 384,
            history_bytes: 104448,
            checkpoint_bytes: 20414,
            log_bytes: 0,
            log_table_strings: 0,
            log_decode_allocs: 0,
            setup_allocs: 8646,
            setup_bytes: 3068832,
            setup_large_reallocs: 0,
        },
    ),
    (
        "served-clean-8",
        Budget {
            events: 4042,
            frames: 16,
            wire_full_bytes: 228305,
            wire_delta_bytes: 162115,
            table_strings: 221,
            table_regrowths: 32,
            encode_allocs: 278,
            decode_allocs: 8385,
            observe_allocs: 433,
            searches: 63,
            nodes: 105,
            candidates: 42,
            history_events: 63,
            history_bytes: 6552,
            checkpoint_bytes: 2490,
            log_bytes: 0,
            log_table_strings: 0,
            log_decode_allocs: 0,
            setup_allocs: 4131,
            setup_bytes: 850487,
            setup_large_reallocs: 0,
        },
    ),
    (
        "served-resend-8",
        Budget {
            events: 4732,
            frames: 19,
            wire_full_bytes: 267297,
            wire_delta_bytes: 186941,
            table_strings: 263,
            table_regrowths: 38,
            encode_allocs: 331,
            decode_allocs: 9822,
            observe_allocs: 436,
            searches: 63,
            nodes: 105,
            candidates: 42,
            history_events: 63,
            history_bytes: 6552,
            checkpoint_bytes: 2490,
            log_bytes: 0,
            log_table_strings: 0,
            log_decode_allocs: 0,
            setup_allocs: 4168,
            // 2450710 when `apply_faults` inserted with `Vec::insert`,
            // whose first insert doubled the segment's vector; the gap
            // buffer sizes its one vector for the result.
            setup_bytes: 2075047,
            setup_large_reallocs: 0,
        },
    ),
    (
        "served-tenants-16",
        Budget {
            events: 2464,
            frames: 39,
            wire_full_bytes: 162851,
            wire_delta_bytes: 115587,
            table_strings: 595,
            table_regrowths: 80,
            encode_allocs: 741,
            decode_allocs: 5718,
            // 357824 with two inline partitions behind the group's own
            // guard, which admitted into a fresh `Vec` per delivery; the
            // one set reuses its admission buffer.
            observe_allocs: 29302,
            searches: 4096,
            nodes: 7680,
            candidates: 3584,
            history_events: 4096,
            history_bytes: 458752,
            checkpoint_bytes: 95954,
            log_bytes: 312878,
            log_table_strings: 4928,
            log_decode_allocs: 19712,
            setup_allocs: 2706,
            setup_bytes: 821720,
            setup_large_reallocs: 0,
        },
    ),
    (
        "ingest-otlp-offline",
        Budget {
            events: 4229,
            frames: 0,
            wire_full_bytes: 0,
            wire_delta_bytes: 0,
            table_strings: 0,
            table_regrowths: 0,
            encode_allocs: 0,
            decode_allocs: 0,
            observe_allocs: 4733,
            searches: 600,
            nodes: 1829,
            candidates: 1229,
            history_events: 2429,
            history_bytes: 378924,
            checkpoint_bytes: 296594,
            log_bytes: 0,
            log_table_strings: 0,
            log_decode_allocs: 0,
            setup_allocs: 2,
            setup_bytes: 504832,
            setup_large_reallocs: 0,
        },
    ),
];

fn chunked(events: &[Event], n: usize) -> Vec<Vec<Event>> {
    events.chunks(n).map(<[Event]>::to_vec).collect()
}

fn deadlock_walk(seed: u64, n: usize, rounds: usize, prob: f64) -> (Vec<Event>, String) {
    let g = random_walk::generate(&random_walk::Params {
        n_processes: n,
        rounds,
        walk_steps: 2,
        cycle_len: 8,
        deadlock_prob: prob,
        seed,
    });
    assert!(!g.truth.is_empty(), "the matcher would be idle");
    (
        g.poet.store().iter_arrival().cloned().collect(),
        g.pattern_src,
    )
}

fn mpi_stream(seed: u64) -> Vec<Event> {
    // `mpi_soak`'s traffic at a size where its 0.002 episodes per round
    // would leave the matcher idle: 125 rounds, one episode in twenty.
    let rec = testgen::mpi_deadlock(seed, 8, 125, 3, 0.05, 2);
    assert!(rec.truth > 0);
    rec.parse("mpi").events
}

/// `served-resend-8` in miniature: seeded duplicates and causal-safe
/// reorders, then every eighth frame sent twice.
fn resend_frames(clean: &[Event]) -> Vec<Vec<Event>> {
    let mut faulty = Vec::new();
    for (i, segment) in clean.chunks(1024).enumerate() {
        let plan = FaultPlan {
            seed: 0x5eed + i as u64,
            duplicate_p: 0.05,
            reorder_window: 3,
            reorder: ReorderMode::CausalSafe,
            drop_p: 0.0,
            corrupt_clock_p: 0.0,
        };
        faulty.extend(apply_faults(segment, 8, &plan).0);
    }
    let mut frames = Vec::new();
    for (i, chunk) in faulty.chunks(256).enumerate() {
        frames.push(chunk.to_vec());
        if i % 8 == 7 {
            frames.push(chunk.to_vec());
        }
    }
    frames
}

fn guarded_set(n_traces: usize, names: &[String], src: &str) -> MonitorSet {
    let mut set = MonitorSet::new(n_traces);
    for name in names {
        set.add(name.clone(), Pattern::parse(src).unwrap());
    }
    set.enable_guard(GuardConfig::default());
    set
}

fn distinct_strings(events: &[Event]) -> u64 {
    let mut seen = HashSet::new();
    for e in events {
        seen.insert(e.ty());
        seen.insert(e.text());
    }
    seen.len() as u64
}

/// Encodes and decodes every frame, filling the wire counters; returns
/// the decoded frames (what the engine would be handed).
fn cross_the_wire(frames: &[Vec<Event>], b: &mut Budget) -> Vec<Vec<Event>> {
    let mut decoded = Vec::with_capacity(frames.len());
    for events in frames {
        b.events += events.len() as u64;
        b.frames += 1;
        let strings = distinct_strings(events);
        b.table_strings += strings;
        b.table_regrowths += (2..)
            .map(|k| 1u64 << k)
            .take_while(|&cap| cap < strings)
            .count() as u64;
        let frame = Frame::EventBatch(events.clone());
        b.wire_full_bytes += 4 + encode_body(&frame).len() as u64;
        let (body, cost) = counted(|| encode_body_delta(&frame));
        b.encode_allocs += cost.allocs;
        b.wire_delta_bytes += 4 + body.len() as u64;
        let (back, cost) = counted(|| decode_body(&body).expect("own encoding decodes"));
        b.decode_allocs += cost.allocs;
        let Frame::EventBatch(back) = back else {
            panic!("an event batch decodes to an event batch");
        };
        assert_eq!(&back, events);
        decoded.push(back);
    }
    decoded
}

fn matcher_counters<'a>(
    monitors: impl Iterator<Item = &'a ocep_repro::ocep::Monitor>,
    b: &mut Budget,
) {
    for m in monitors {
        let s = m.stats();
        b.searches += s.searches;
        b.nodes += s.nodes;
        b.candidates += s.candidates;
        b.history_events += m.history_size() as u64;
        b.history_bytes += m.history_bytes() as u64;
    }
}

/// One `MonitorSet` in process, a frame per call: the served
/// single-pattern workloads after the wire (behind the guard), and the
/// two in-process ones (without).
fn observe_all(mut set: MonitorSet, src: &str, frames: &[Vec<Event>], b: &mut Budget) {
    let mut verdicts = 0usize;
    for events in frames {
        let (out, cost) = counted(|| set.observe_raw_batch(events));
        b.observe_allocs += cost.allocs;
        verdicts += out.len();
    }
    assert!(verdicts > 0, "the matcher was idle");
    matcher_counters(set.iter().map(|(_, m)| m), b);
    let sources: HashMap<String, String> = set
        .iter()
        .map(|(name, _)| (name.to_owned(), src.to_owned()))
        .collect();
    b.checkpoint_bytes = save_set(&set, &sources).len() as u64;
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("work-budget-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `generate` — a workload's input generation — and files what it
/// asked of the allocator under the set-up counters.
fn set_up<T>(b: &mut Budget, generate: impl FnOnce() -> T) -> T {
    let (input, cost) = counted(generate);
    b.setup_allocs = cost.allocs;
    b.setup_bytes = cost.bytes;
    b.setup_large_reallocs = cost.large_reallocs;
    input
}

fn inproc_deadlock_50() -> Budget {
    let mut b = Budget::default();
    let (events, src) = set_up(&mut b, || deadlock_walk(11, 50, 40, 0.3));
    b.events = events.len() as u64;
    // No guard, one arrival per call: `Monitor::observe` and nothing else.
    let mut set = MonitorSet::new(50);
    set.add("deadlock", Pattern::parse(&src).unwrap());
    observe_all(set, &src, &chunked(&events, 1), &mut b);
    b
}

fn served_8(frames: impl FnOnce(&[Event]) -> Vec<Vec<Event>>) -> Budget {
    let mut b = Budget::default();
    let frames = set_up(&mut b, || frames(&mpi_stream(12)));
    let decoded = cross_the_wire(&frames, &mut b);
    let src = random_walk::cycle_pattern(3);
    let set = guarded_set(8, &["cycle".to_owned()], &src);
    observe_all(set, &src, &decoded, &mut b);
    b
}

fn served_tenants_16() -> Budget {
    let mut b = Budget::default();
    let (frames, src) = set_up(&mut b, || {
        let (events, src) = deadlock_walk(14, 10, 60, 0.03);
        (chunked(&events, 64), src)
    });
    let decoded = cross_the_wire(&frames, &mut b);

    let dir = scratch_dir("tenants");
    let set = guarded_set(10, &[], &src);
    let mut group = ShardGroup::new(set, 0, &HashMap::new());
    group.recover(&dir, Durability::Batch).unwrap();
    for j in 0..16 {
        group
            .register(&format!("t{j}/deadlock"), &src, MonitorConfig::default())
            .unwrap();
    }
    let mut verdicts = 0usize;
    for events in decoded {
        let (out, cost) = counted(|| group.deliver_batch("bench", events));
        b.observe_allocs += cost.allocs;
        verdicts += out.verdicts.len();
    }
    assert!(verdicts > 0, "the matcher was idle");
    group.flush_os();
    assert_eq!(group.wal_append_errors(), 0);
    matcher_counters(group.live_monitors().map(|(_, m)| m), &mut b);
    b.checkpoint_bytes = group.checkpoint_set().len() as u64;
    drop(group);

    for entry in std::fs::read_dir(&dir).unwrap() {
        b.log_bytes += entry.unwrap().metadata().unwrap().len();
    }
    for rec in wal::scan(&dir).unwrap().records {
        if rec.rtype != REC_DELIVER {
            continue;
        }
        let ((_, e), cost) = counted(|| decode_deliver(&rec.payload).expect("own record"));
        b.log_decode_allocs += cost.allocs;
        b.log_table_strings += distinct_strings(std::slice::from_ref(&e));
    }
    let _ = std::fs::remove_dir_all(&dir);
    b
}

fn ingest_otlp_offline() -> Budget {
    let mut b = Budget::default();
    // The input is the recording's text: parsing it is this workload's
    // timed work, not set-up.
    let rec = set_up(&mut b, || testgen::zookeeper_otlp(15, 20, 30, 0.05));
    assert!(rec.truth > 0);
    let out = rec.parse("otlp");
    b.events = out.events.len() as u64;
    let src = replicated_service::ordering_pattern();
    let mut set = MonitorSet::new(out.n_traces);
    set.add("ordering", Pattern::parse(&src).unwrap());
    observe_all(set, &src, &chunked(&out.events, 1), &mut b);
    b
}

fn actual_budgets() -> Vec<(&'static str, Budget)> {
    vec![
        ("inproc-deadlock-50", inproc_deadlock_50()),
        ("served-clean-8", served_8(|mpi| chunked(mpi, 256))),
        ("served-resend-8", served_8(resend_frames)),
        ("served-tenants-16", served_tenants_16()),
        ("ingest-otlp-offline", ingest_otlp_offline()),
    ]
}

#[test]
fn every_counter_on_every_miniature_workload_is_at_its_budget() {
    let actual = actual_budgets();
    let table: String = actual
        .iter()
        .map(|(name, b)| format!("    ({name:?}, {b:#?}),\n"))
        .collect();
    assert_eq!(actual.len(), BUDGETS.len(), "actual:\n{table}");
    for ((name, b), (want_name, want)) in actual.iter().zip(BUDGETS) {
        assert_eq!(name, want_name);
        assert_eq!(b, want, "{name} left its budget; actual:\n{table}");
        let e = b.events.max(1) as f64;
        eprintln!(
            "{name}: {:.1} / {:.1} wire B/event (full / delta), {:.1} log B/event, \
             checkpoint {} B, {:.2} encode allocs/frame, {:.3} decode allocs/event, \
             {:.2} observe allocs/event, {:.3} nodes/event, {:.3} candidates/event, \
             history {} events / {} B, set-up {} allocs / {} B / {} large reallocs",
            b.wire_full_bytes as f64 / e,
            b.wire_delta_bytes as f64 / e,
            b.log_bytes as f64 / e,
            b.checkpoint_bytes,
            b.encode_allocs as f64 / b.frames.max(1) as f64,
            b.decode_allocs as f64 / e,
            b.observe_allocs as f64 / e,
            b.nodes as f64 / e,
            b.candidates as f64 / e,
            b.history_events,
            b.history_bytes,
            b.setup_allocs,
            b.setup_bytes,
            b.setup_large_reallocs,
        );
    }
}

// ---------------------------------------------------------------------
// Hostile counts: one table over every count field the codec guards.
// ---------------------------------------------------------------------

fn u32_at(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Offset just past a string table starting at `at`.
fn skip_table(bytes: &[u8], mut at: usize) -> usize {
    let n = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    at += 4;
    for _ in 0..n {
        at += 4 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    }
    at
}

/// `(format and field, input, offset of the count, decoder)`: each input
/// is a valid encoding with one count overwritten by `u32::MAX`.
#[allow(clippy::type_complexity)]
fn hostile_inputs() -> Vec<(
    &'static str,
    Vec<u8>,
    usize,
    fn(&[u8]) -> Result<(), String>,
)> {
    use ocep_repro::net::VerdictFrame;
    use ocep_repro::ocep::checkpoint::{load_at, load_set_at, save_at, save_set_at};
    use ocep_repro::poet::dump;

    fn wire(body: &[u8]) -> Result<(), String> {
        decode_body(body).map(drop).map_err(|e| e.to_string())
    }
    fn ockp(bytes: &[u8]) -> Result<(), String> {
        load_at(bytes).map(drop).map_err(|e| e.to_string())
    }
    fn ocks(bytes: &[u8]) -> Result<(), String> {
        load_set_at(bytes).map(drop).map_err(|e| e.to_string())
    }
    fn poet(bytes: &[u8]) -> Result<(), String> {
        dump::reload(bytes).map(drop).map_err(|e| e.to_string())
    }
    fn checkpoint_record(payload: &[u8]) -> Result<(), String> {
        // The payload's decoder is recovery: log it, then recover.
        let dir = scratch_dir("hostile-checkpoint");
        let (mut log, _) = wal::Wal::open(&dir, wal::WalOptions::default()).unwrap();
        log.append(wal::REC_CHECKPOINT, payload).unwrap();
        log.sync().unwrap();
        drop(log);
        let mut group = ShardGroup::new(guarded_set(3, &[], ""), 0, &HashMap::new());
        let out = group.recover(&dir, Durability::Batch);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    let events: Vec<Event> = mpi_stream(12).into_iter().take(24).collect();
    let mut rows: Vec<(
        &'static str,
        Vec<u8>,
        usize,
        fn(&[u8]) -> Result<(), String>,
    )> = Vec::new();
    let mut row = |what, mut bytes: Vec<u8>, at: usize, decode| {
        u32_at(&mut bytes, at, u32::MAX);
        rows.push((what, bytes, at, decode));
    };

    // OCWP: string table, record, clock width, delta, binding and
    // pattern counts.
    let batch = encode_body(&Frame::EventBatch(events.clone()));
    let records_at = skip_table(&batch, 1);
    row("OCWP string count", batch.clone(), 1, wire);
    row("OCWP record count", batch.clone(), records_at, wire);
    let width_at = batch.len() - 4 - 4 * 8;
    row("OCWP clock width", batch, width_at, wire);
    let delta = encode_body_delta(&Frame::EventBatch(events.clone()));
    row("OCWP delta record count", delta.clone(), records_at, wire);
    // The last record of an in-order batch is a delta: flag 1, count.
    let last = events.last().unwrap();
    let changed = events[..events.len() - 1]
        .iter()
        .rev()
        .find(|e| e.trace() == last.trace())
        .map(|base| {
            let (a, b) = (base.clock().entries(), last.clock().entries());
            a.iter().zip(b).filter(|(x, y)| x != y).count()
        })
        .expect("the last event's trace appears earlier in the frame");
    let delta_at = delta.len() - 8 * changed - 4;
    assert_eq!(delta[delta_at - 1], 1, "the last record travels as a delta");
    row("OCWP delta entry count", delta, delta_at, wire);
    let verdict = encode_body(&Frame::Verdict(VerdictFrame {
        monitor: "m".into(),
        bindings: vec![(0, 1)],
    }));
    row("OCWP binding count", verdict, 1 + 4 + 1, wire);
    let register = encode_body(&Frame::Register {
        tenant: "acme".into(),
        patterns: vec![("p".into(), "A := [*, a, *]; pattern := A;".into())],
    });
    let reg_table_at = 1 + 4 + 4;
    row(
        "OCWP register string count",
        register.clone(),
        reg_table_at,
        wire,
    );
    let reg_count_at = register.len() - 12;
    row("OCWP register pattern count", register, reg_count_at, wire);
    let unregister = encode_body(&Frame::Unregister {
        tenant: "acme".into(),
        patterns: vec!["p".into()],
    });
    let unreg_count_at = unregister.len() - 8;
    row(
        "OCWP unregister pattern count",
        unregister,
        unreg_count_at,
        wire,
    );

    // OCKP: trace count, string table, event table.
    let src = random_walk::cycle_pattern(3);
    let mut set = guarded_set(8, &["cycle".to_owned()], &src);
    set.observe_raw_batch(&events[1..]);
    assert!(
        set.guard().unwrap().buffered() > 0,
        "a reorder buffer to write"
    );
    let blob = save_at(set.monitor("cycle").unwrap(), &src, 0);
    let n_traces_at = 4 + 2 + 4 + src.len();
    // The trace count, the config block's two bytes, ten stats words.
    let strings_at = n_traces_at + 4 + 2 + 10 * 8;
    let events_at = skip_table(&blob, strings_at);
    row("OCKP trace count", blob.clone(), n_traces_at, ockp);
    row("OCKP string count", blob.clone(), strings_at, ockp);
    row("OCKP event count", blob, events_at, ockp);

    // OCKS: monitor count, buffered-event count (after the monitors, the
    // guard flag, its config and a counter per trace).
    let sources = HashMap::from([("cycle".to_owned(), src.clone())]);
    let set_blob = save_set_at(&set, &sources, 0);
    row("OCKS monitor count", set_blob, 4 + 2 + 4, ocks);
    let guard_only = save_set_at(&set, &HashMap::new(), 0);
    row(
        "OCKS buffered-event count",
        guard_only,
        14 + 1 + 9 + 4 * 8,
        ocks,
    );

    // POET dump, checkpoint record.
    let mut tracer = ocep_repro::poet::PoetServer::new(2);
    tracer.record(
        ocep_repro::vclock::TraceId::new(0),
        ocep_repro::poet::EventKind::Unary,
        "a",
        "",
    );
    row(
        "POET string count",
        dump::dump(tracer.store()),
        4 + 2 + 4,
        poet,
    );
    let empty = save_set_at(&guarded_set(3, &[], ""), &HashMap::new(), 0);
    let mut payload = (empty.len() as u32).to_le_bytes().to_vec();
    payload.extend_from_slice(&empty);
    payload.extend_from_slice(&0u32.to_le_bytes());
    let verdicts_at = payload.len() - 4;
    row(
        "OWAL checkpoint verdict count",
        payload,
        verdicts_at,
        checkpoint_record,
    );
    rows
}

#[test]
fn hostile_counts_are_refused_at_the_count_before_anything_is_allocated_for_them() {
    for (what, bytes, at, decode) in hostile_inputs() {
        let (out, cost) = counted(|| decode(&bytes));
        let msg = out.expect_err(what);
        assert!(
            msg.contains(&format!("claimed at byte {at},")),
            "{what}: not refused at its count (byte {at}): {msg}"
        );
        // Covers the diagnosis and what precedes the count (for the
        // checkpoint record, opening the log). The smallest allocation a
        // trusted count used to buy — 4,096 table slots — is 64 KiB.
        let allowance = 8 * 1024 + 2 * bytes.len() as u64;
        assert!(
            cost.bytes <= allowance,
            "{what}: {} bytes allocated on the way to refusing {} input bytes",
            cost.bytes,
            bytes.len()
        );
    }
}

// ---------------------------------------------------------------------
// The tracer's store.
// ---------------------------------------------------------------------

/// Bytes a 30-event, 4-trace tracer requested at commit 3173f91, where
/// the store was a `Vec<Event>` per trace plus a vector of arrival ids.
const PARENT_SMALL_STORE_BYTES: u64 = 5376;

/// Thirty events over four traces — a conformance case's size: every
/// third a send, received next on the neighbouring trace.
fn small_server() -> ocep_repro::poet::PoetServer {
    use ocep_repro::poet::{EventKind, PoetServer};
    use ocep_repro::vclock::TraceId;
    let mut poet = PoetServer::new(4);
    let mut in_flight = None;
    for i in 0..30u32 {
        let t = TraceId::new(i % 4);
        match (i % 3, in_flight.take()) {
            (0, _) => in_flight = Some(poet.record(t, EventKind::Send, "req", "").id()),
            (_, Some(send)) => drop(poet.record_receive(t, send, "req", "")),
            _ => drop(poet.record(t, EventKind::Unary, "work", "step")),
        }
    }
    poet
}

#[test]
fn a_small_store_requests_no_more_than_the_parent() {
    let (poet, cost) = counted(small_server);
    assert_eq!(poet.store().len(), 30);
    eprintln!("a 30-event tracer requests {} bytes", cost.bytes);
    assert!(
        cost.bytes <= PARENT_SMALL_STORE_BYTES,
        "a 30-event tracer requested {} bytes, {PARENT_SMALL_STORE_BYTES} at the parent",
        cost.bytes
    );
}

#[test]
fn recorded_events_never_move() {
    use ocep_repro::poet::{EventKind, PoetServer};
    use ocep_repro::vclock::TraceId;
    let mut poet = PoetServer::new(3);
    let first = poet.record_id(TraceId::new(0), EventKind::Unary, "first", "");
    let address = |poet: &PoetServer, id| std::ptr::from_ref(poet.store().get(id).unwrap());
    let first_at = address(&poet, first);
    let mut last = first;
    for i in 0..50_000u32 {
        last = poet.record_id(TraceId::new(i % 3), EventKind::Unary, "later", "");
    }
    assert_eq!(address(&poet, first), first_at, "50,000 pushes moved it");

    // Nor does a copy of the store move what it holds when it grows.
    let mut copy = poet.store().clone();
    assert_eq!(address(&poet, first), first_at, "cloning moved it");
    let last_in_copy = std::ptr::from_ref(copy.get(last).unwrap());
    let from = copy.len();
    for _ in 0..5_000 {
        poet.record_id(TraceId::new(1), EventKind::Unary, "later", "");
    }
    for e in poet.store().iter_arrival_from(from) {
        copy.push(e.clone()).unwrap();
    }
    assert!(copy.content_eq(poet.store()));
    assert_eq!(std::ptr::from_ref(copy.get(last).unwrap()), last_in_copy);
}

/// The walk workloads at the benchmark's full size: a generated event
/// asks for its clock, its slot in the log and its `u32` in the index,
/// and no block of 256 KiB or more is ever regrown (at commit 3173f91:
/// 438.7 and 335.2 bytes per event, 54 and 22 such regrowths).
#[test]
fn a_full_size_walk_never_regrows_a_large_block() {
    for (n, rounds, prob, bytes_per_event) in [(50, 1500, 0.3, 305), (10, 2300, 0.03, 150)] {
        let params = random_walk::Params {
            n_processes: n,
            rounds,
            walk_steps: 2,
            cycle_len: 8,
            deadlock_prob: prob,
            seed: 1,
        };
        let (g, cost) = counted(|| random_walk::generate(&params));
        let events = g.poet.store().len() as u64;
        assert_eq!(cost.large_reallocs, 0, "width {n}");
        assert!(
            cost.bytes <= bytes_per_event * events,
            "width {n}: {} bytes for {events} events, {:.1} each",
            cost.bytes,
            cost.bytes as f64 / events as f64
        );
    }
}

/// Reloading a dump costs what recording it live cost — one clock per
/// record — and nothing on top: no stand-in clock, no copies of the
/// table's strings, no second copy of the event.
#[test]
fn a_reloaded_record_costs_its_stamp_and_nothing_else() {
    use ocep_repro::poet::{dump, EventKind, PoetServer};
    let g = random_walk::generate(&random_walk::Params {
        rounds: 50,
        ..random_walk::Params::default()
    });
    let recorded = g.poet.store();
    assert!(recorded.len() >= 2000);
    let bytes = dump::dump(recorded);

    // The same actions recorded live: the stamps, plus the store's
    // chunks and index growing and each string's first sight.
    let mut live = PoetServer::new(recorded.n_traces());
    let (_, live_cost) = counted(|| {
        for e in recorded.iter_arrival() {
            match e.partner() {
                Some(send) if e.kind() == EventKind::Receive => {
                    live.record_receive_id(e.trace(), send, e.ty(), e.text())
                }
                _ => live.record_id(e.trace(), e.kind(), e.ty(), e.text()),
            };
        }
    });

    let mut stream = dump::DumpStream::open(&bytes).unwrap();
    let mut per_record = Vec::with_capacity(recorded.len());
    loop {
        let (id, cost) = counted(|| stream.next_event().unwrap());
        if id.is_none() {
            break;
        }
        per_record.push(cost.allocs);
    }
    assert!(stream.server().store().content_eq(recorded));
    assert_eq!(per_record.iter().sum::<u64>(), live_cost.allocs);
    per_record.sort_unstable();
    assert_eq!(
        (per_record[0], per_record[per_record.len() / 2]),
        (1, 1),
        "allocations per reloaded record (least, median)"
    );
}
