//! The traced run: per-layer metrics, measured from outside.
//!
//! A *staged replay* drives the workload's own stream frame by frame
//! through the public entry points of each crate, in the order the
//! served pipeline runs them — `Adapter::parse_str` →
//! `wire::encode_body_delta` → `FrameDecoder::push/next` →
//! `ClockPool::intern` → `AdmissionGuard::admit_batch` →
//! `wire::put_event_body` + `Wal::append`/`flush_os` →
//! `MonitorSet::observe` (or `ShardGroup::deliver_batch`) →
//! `wire::encode_body(Frame::Verdict)` — with one span per stage per
//! frame and allocation counts read at the same boundaries. Loopback
//! passes with client-side spans then tie the stage sums back to the
//! end-to-end figure (`trace.coverage`, `server.residual_ns_per_event`).
//! Nothing inside the program is instrumented; counts come from the
//! counters it already exports.

use crate::alloc;
use crate::check::{self, NamedVerdict};
use crate::gen::{Input, Size, Workload};
use crate::net::{self, Pace, WorkDir};
use crate::run;
use crate::span::{self, Tracer};
use crate::stats::{median, nearest_rank, sorted, tail_percentile};
use ocep_conformance::Fingerprint;
use ocep_core::ingest::GuardConfig;
use ocep_core::{AdmissionGuard, MonitorSet};
use ocep_net::wire::{encode_body, encode_body_delta, put_event_body};
use ocep_net::{route_of, Decoded, Frame, FrameDecoder, ShardGroup, VerdictFrame};
use ocep_pattern::Pattern;
use ocep_poet::Event;
use ocep_vclock::ClockPool;
use ocep_wal::{Durability, Wal, WalOptions, REC_DELIVER};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in report order. The traced
/// run reports all of them on every workload; a layer the workload
/// does not touch reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("adapters.parse_ns_per_event", "ns"),
    ("adapters.bytes_per_event", "B"),
    ("adapters.allocs_per_event", "count"),
    ("wire.encode_ns_per_event", "ns"),
    ("wire.decode_ns_per_event", "ns"),
    ("wire.bytes_per_event", "B"),
    ("wire.delta_bytes_ratio", "ratio"),
    ("wire.decode_allocs_per_event", "count"),
    ("wire.verdict_encode_ns", "ns"),
    ("vclock.intern_ns_per_event", "ns"),
    ("vclock.pool_hit_ratio", "ratio"),
    ("vclock.comparisons_per_search", "count"),
    ("vclock.le_ns_at_width", "ns"),
    ("ingest.admit_ns_per_event", "ns"),
    ("ingest.fast_path_ratio", "ratio"),
    ("ingest.duplicates", "count"),
    ("ingest.reordered", "count"),
    ("ingest.buffered_peak", "count"),
    ("wal.append_ns_per_event", "ns"),
    ("wal.flush_ns_per_frame", "ns"),
    ("wal.bytes_per_event", "B"),
    ("wal.scan_ns_per_event", "ns"),
    ("wal.recover_events_per_s", "events/s"),
    ("shard.deliver_ns_per_event", "ns"),
    ("shard.overhead_ns_per_event", "ns"),
    ("shard.skew", "ratio"),
    ("ocep.observe_ns_per_event", "ns"),
    ("ocep.search_ns_per_search", "ns"),
    ("ocep.route_ns_per_event", "ns"),
    ("ocep.search_share", "ratio"),
    ("ocep.useful_search_ratio", "ratio"),
    ("ocep.nodes_per_search", "count"),
    ("ocep.backjumps_per_search", "count"),
    ("ocep.domains_per_search", "count"),
    ("ocep.candidates_per_search", "count"),
    ("ocep.suppressed_ratio", "ratio"),
    ("ocep.history_events", "count"),
    ("ocep.history_bytes", "B"),
    ("ocep.allocs_per_event", "count"),
    ("pattern.compile_us", "us"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("client.send_ns_per_event", "ns"),
    ("client.credit_wait_share", "ratio"),
    ("client.batch1_events_per_s", "events/s"),
    ("server.residual_ns_per_event", "ns"),
    ("server.accept_admit_p50_ns", "ns"),
    ("tail.verdicts", "count"),
    ("tail.verdict_ms_p50", "ms"),
    ("open.ack_us_p50", "us"),
    ("open.ack_us_p99", "us"),
    ("open.failed_frames", "count"),
    ("gen.late_ms_max", "ms"),
    ("gen.backlog_frames_end", "count"),
    ("run.events_per_s", "events/s"),
    ("run.latency_us_p50", "us"),
    ("run.latency_us_p99", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.events_per_s", "events/s"),
    ("proc.peak_rss_mb", "MB"),
    ("proc.cpu_s", "s"),
];

/// The result of one traced run.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub note: String,
}

/// Time and allocations spent inside one stage, summed over frames.
#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    ns: u64,
    allocs: u64,
    calls: u64,
}

/// Span and counter sink for the staged replay.
struct Stager {
    tracer: Tracer,
    acc: BTreeMap<&'static str, Acc>,
}

/// An open stage: start time and the allocation count at entry.
struct Open(u64, u64);

impl Stager {
    fn new(frames: usize) -> Stager {
        Stager {
            tracer: Tracer::new(frames * 10 + 16),
            acc: BTreeMap::new(),
        }
    }

    fn begin(&self) -> Open {
        Open(self.tracer.now_ns(), alloc::allocations())
    }

    fn end(&mut self, name: &'static str, open: Open, parent: u32, frame: u64) {
        let end_ns = self.tracer.now_ns();
        let allocs = alloc::allocations();
        let a = self.acc.entry(name).or_default();
        a.ns += end_ns - open.0;
        a.allocs += allocs - open.1;
        a.calls += 1;
        self.tracer
            .record(name, open.0, end_ns, Some(parent), frame);
    }

    fn get(&self, name: &str) -> Acc {
        self.acc.get(name).copied().unwrap_or_default()
    }

    fn ns_per(&self, name: &str, n: usize) -> f64 {
        self.get(name).ns as f64 / n.max(1) as f64
    }
}

/// What the observe stage learned event by event.
#[derive(Debug, Default)]
struct ObserveSplit {
    search_ns: u64,
    route_ns: u64,
    search_arrivals: u64,
    useful_arrivals: u64,
    comparisons: u64,
    verdicts: Vec<NamedVerdict>,
}

fn search_counters(set: &MonitorSet) -> (u64, u64) {
    set.iter().fold((0, 0), |(s, f), (_, m)| {
        (s + m.stats().searches, f + m.stats().matches_found)
    })
}

/// Observes `events` on `set`, one chained timestamp per event, and
/// attributes each arrival to *search* (it started at least one) or
/// *route* (it did not).
fn observe_split(set: &mut MonitorSet, events: &[Event], split: &mut ObserveSplit) {
    let ops0 = ocep_vclock::ops::snapshot().comparisons;
    let (mut searches, mut found) = search_counters(set);
    let mut prev = Instant::now();
    for e in events {
        for (name, m) in set.observe(e) {
            split.verdicts.push((name, check::match_ids(&m)));
        }
        let now = Instant::now();
        let ns = (now - prev).as_nanos() as u64;
        let (s, f) = search_counters(set);
        if s > searches {
            split.search_ns += ns;
            split.search_arrivals += 1;
            split.useful_arrivals += u64::from(f > found);
        } else {
            split.route_ns += ns;
        }
        (searches, found) = (s, f);
        // The counter reads above are the harness's, not the matcher's.
        prev = Instant::now();
    }
    split.comparisons += ocep_vclock::ops::snapshot().comparisons - ops0;
}

fn monitor_set(
    workload: Workload,
    input: &Input,
    n_traces: usize,
) -> Result<(MonitorSet, HashMap<String, String>), String> {
    let mut set = MonitorSet::new(n_traces);
    let mut sources = HashMap::new();
    for name in check::monitor_names(workload) {
        let pattern = Pattern::parse(&input.pattern_src).map_err(|e| format!("pattern: {e}"))?;
        set.add(name.clone(), pattern);
        sources.insert(name, input.pattern_src.clone());
    }
    Ok((set, sources))
}

fn deliver_payload(e: &Event, buf: &mut Vec<u8>) {
    // `[session:str][Event frame body]`, the serve path's deliver record.
    buf.clear();
    buf.extend_from_slice(&5u32.to_le_bytes());
    buf.extend_from_slice(b"bench");
    put_event_body(buf, e);
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// `le` on clock pairs taken from the stream itself, so the width and
/// the entry distribution are the workload's.
fn le_ns_at_width(events: &[Event]) -> f64 {
    if events.len() < 2 {
        return 0.0;
    }
    let pairs = 200_000.min(events.len() - 1);
    let stride = (events.len() - 1) / pairs;
    let start = Instant::now();
    let mut hits = 0usize;
    for i in 0..pairs {
        let a = events[i * stride].clock();
        let b = events[i * stride + 1].clock();
        hits += usize::from(black_box(a).le(black_box(b)));
    }
    black_box(hits);
    start.elapsed().as_nanos() as f64 / pairs as f64
}

fn compile_us(src: &str) -> f64 {
    let times: Vec<f64> = (0..32)
        .map(|_| {
            let t = Instant::now();
            black_box(Pattern::parse(black_box(src)).is_ok());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

struct Replay {
    stager: Stager,
    split: ObserveSplit,
    /// Distinct events that reached the matcher.
    delivered: usize,
    /// Events offered (duplicates included).
    offered: usize,
    wire_bytes: u64,
    full_bytes: u64,
    pool_hits: u64,
    pool_misses: u64,
    ingest: ocep_core::IngestStats,
    set: MonitorSet,
    sources: HashMap<String, String>,
    /// The adapter's output (recording workloads only).
    parsed: Vec<Event>,
    text_bytes: usize,
    wal_scan_ns_per_event: f64,
}

/// The staged replay of one workload: every frame through every stage
/// the workload's pipeline has, single-threaded, in pipeline order.
fn replay(workload: Workload, input: &Input, work: &mut WorkDir) -> Result<Replay, String> {
    let (mut set, sources) = monitor_set(workload, input, input.n_traces)?;
    let served = workload.is_served();
    let frame_events = workload.frame_events();
    let mut split = ObserveSplit::default();
    let mut text_bytes = 0;

    // In-process workloads have no frames of their own; group arrivals
    // the same way so spans stay comparable.
    let mut parsed: Vec<Event> = Vec::new();
    let mut stager = Stager::new(input.frames.len().max(input.clean.len() / frame_events) + 1024);
    let frames: Vec<&[Event]> = if let Some(text) = &input.text {
        let root = stager.tracer.open("frame", None, 0);
        let open = stager.begin();
        parsed = ocep_adapters::by_name("otlp")
            .expect("otlp adapter registered")
            .parse_str(text)
            .map_err(|e| format!("parse: {e}"))?
            .events;
        stager.end("adapters.parse", open, root, 0);
        stager.tracer.close(root);
        text_bytes = text.len();
        parsed.chunks(frame_events).collect()
    } else if served {
        input.frames.iter().map(Vec::as_slice).collect()
    } else {
        input.clean.chunks(frame_events).collect()
    };

    let mut pool = ClockPool::new(input.n_traces);
    let mut guard = AdmissionGuard::new(input.n_traces, GuardConfig::default());
    let wal_dir = (workload.tenants() > 0).then(|| work.fresh("staged-wal"));
    let mut wal = match &wal_dir {
        Some(dir) => Some(
            Wal::open(
                dir,
                WalOptions {
                    durability: Durability::Batch,
                    ..WalOptions::default()
                },
            )
            .map_err(|e| format!("staged wal: {e}"))?
            .0,
        ),
        None => None,
    };
    let mut decoder = FrameDecoder::new();
    let mut admitted: Vec<Event> = Vec::new();
    let mut payload = Vec::new();
    let (mut wire_bytes, mut full_bytes, mut offered, mut delivered) = (0u64, 0u64, 0usize, 0usize);
    let ops0 = ocep_vclock::ops::snapshot();

    for (i, chunk) in frames.iter().enumerate() {
        let id = i as u64 + 1;
        let root = stager.tracer.open("frame", None, id);
        offered += chunk.len();
        let deliverable: &[Event] = if served {
            let open = stager.begin();
            let body = encode_body_delta(&Frame::EventBatch(chunk.to_vec()));
            stager.end("wire.encode", open, root, id);
            wire_bytes += 4 + body.len() as u64;
            full_bytes += 4 + encode_body(&Frame::EventBatch(chunk.to_vec())).len() as u64;

            let open = stager.begin();
            decoder.push(&(body.len() as u32).to_le_bytes());
            decoder.push(&body);
            let decoded = decoder.next();
            stager.end("wire.decode", open, root, id);
            let Some(Decoded::Frame {
                frame: Frame::EventBatch(mut events),
                ..
            }) = decoded
            else {
                return Err(format!("frame {i} did not decode to an event batch"));
            };

            let open = stager.begin();
            for e in &mut events {
                e.intern_clock(&mut pool);
            }
            stager.end("vclock.intern", open, root, id);

            admitted.clear();
            let open = stager.begin();
            guard.admit_batch(&events, &mut admitted);
            stager.end("ingest.admit", open, root, id);

            if let Some(wal) = wal.as_mut() {
                let open = stager.begin();
                for e in &admitted {
                    deliver_payload(e, &mut payload);
                    wal.append(REC_DELIVER, &payload)
                        .map_err(|e| format!("wal append: {e}"))?;
                }
                stager.end("wal.append", open, root, id);
                let open = stager.begin();
                wal.flush_os().map_err(|e| format!("wal flush: {e}"))?;
                stager.end("wal.flush", open, root, id);
            }
            &admitted
        } else {
            chunk
        };

        delivered += deliverable.len();
        let before = split.verdicts.len();
        let open = stager.begin();
        observe_split(&mut set, deliverable, &mut split);
        stager.end("ocep.observe", open, root, id);

        if served {
            for (name, ids) in &split.verdicts[before..] {
                let open = stager.begin();
                black_box(encode_body(&Frame::Verdict(VerdictFrame {
                    monitor: name.clone(),
                    bindings: ids.clone(),
                })));
                stager.end("wire.verdict_encode", open, root, id);
            }
        }
        stager.tracer.close(root);
    }
    let ops1 = ocep_vclock::ops::snapshot();

    drop(frames);
    let mut wal_scan_ns_per_event = 0.0;
    if let (Some(mut wal), Some(dir)) = (wal, wal_dir) {
        wal.sync().map_err(|e| format!("wal sync: {e}"))?;
        drop(wal);
        let t = Instant::now();
        let scanned = ocep_wal::scan(&dir).map_err(|e| format!("wal scan: {e}"))?;
        let ns = t.elapsed().as_nanos() as f64;
        if scanned.records.len() != delivered {
            return Err(format!(
                "staged log holds {} of {delivered} records",
                scanned.records.len()
            ));
        }
        wal_scan_ns_per_event = ns / delivered.max(1) as f64;
        work.remove(&dir);
    }
    Ok(Replay {
        stager,
        split,
        delivered,
        offered,
        wire_bytes,
        full_bytes,
        pool_hits: ops1.pool_hits - ops0.pool_hits,
        pool_misses: ops1.pool_misses - ops0.pool_misses,
        ingest: *guard.stats(),
        set,
        sources,
        parsed,
        text_bytes,
        wal_scan_ns_per_event,
    })
}

/// `ShardGroup::deliver_batch` over the same frames on two shard
/// threads with per-shard logs — what the tenant workload's server
/// runs in place of the single-set admit/log/observe stages.
fn shard_replay(
    workload: Workload,
    input: &Input,
    work: &mut WorkDir,
    stager: &mut Stager,
) -> Result<Vec<NamedVerdict>, String> {
    let (mut set, sources) = monitor_set(workload, input, input.n_traces)?;
    set.enable_guard(GuardConfig::default());
    let mut group = ShardGroup::new(set, 2, &sources);
    let dir = work.fresh("shard-wal");
    group
        .recover(&dir, Durability::Batch)
        .map_err(|e| format!("shard logs: {e}"))?;
    group.start_threads();
    let mut pool = ClockPool::new(input.n_traces);
    let mut verdicts = Vec::new();
    for (i, frame) in input.frames.iter().enumerate() {
        let id = i as u64 + 1;
        let mut events = frame.clone();
        for e in &mut events {
            e.intern_clock(&mut pool);
        }
        let root = stager.tracer.open("frame", None, id);
        let open = stager.begin();
        let out = group.deliver_batch("bench", events);
        group.flush_os();
        stager.end("shard.deliver", open, root, id);
        stager.tracer.close(root);
        verdicts.extend(
            out.verdicts
                .iter()
                .map(|(n, m)| (n.clone(), check::match_ids(m))),
        );
    }
    let out = group.flush();
    verdicts.extend(
        out.verdicts
            .iter()
            .map(|(n, m)| (n.clone(), check::match_ids(m))),
    );
    group.seal();
    drop(group);
    work.remove(&dir);
    Ok(verdicts)
}

/// Due time of the last-sent bound event → `Verdict` frame read by the
/// tail, per verdict, in milliseconds.
fn verdict_latencies_ms(p: &net::Produced, frames: &[Vec<Event>]) -> Vec<f64> {
    let mut frame_of: HashMap<(u32, u32), usize> = HashMap::new();
    for (i, frame) in frames.iter().enumerate() {
        for e in frame {
            frame_of
                .entry((e.trace().as_u32(), e.index().get()))
                .or_insert(i);
        }
    }
    p.tail
        .iter()
        .filter_map(|(at_ns, bindings)| {
            let last = bindings.iter().filter_map(|b| frame_of.get(b)).max()?;
            let due = *p.sent.due_ns.get(*last)?;
            Some(at_ns.saturating_sub(due) as f64 / 1e6)
        })
        .collect()
}

/// Runs `workload` traced for about `seconds` and returns every
/// per-layer metric. Spans go to `trace_out` after timing has ended.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    work: &mut WorkDir,
    trace_out: Option<&Path>,
) -> Result<Traced, String> {
    let (input, _) = run::set_up(workload, seed, size, work)?;
    let reference: Fingerprint = check::reference(&input)?;
    let names = check::monitor_names(workload);
    let mut m: BTreeMap<&'static str, f64> = LAYER_METRICS.iter().map(|(n, _)| (*n, 0.0)).collect();
    let mut correct = true;
    let mut note = String::new();
    let mut fail = |e: String| {
        correct = false;
        note = e;
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;

    m.insert("pattern.compile_us", compile_us(&input.pattern_src));

    // ---- staged replay -------------------------------------------------
    ocep_vclock::ops::enable(true);
    let replayed = replay(workload, &input, work);
    ocep_vclock::ops::enable(false);
    let mut r = replayed?;
    attempted += r.offered as u64;
    if let Err(e) = check::check_verdicts(&reference, &r.split.verdicts, &names) {
        fail(format!("staged replay: {e}"));
    }
    let n = r.delivered;
    let offered = r.offered;
    let st = &r.stager;
    if input.text.is_some() {
        m.insert(
            "adapters.parse_ns_per_event",
            st.ns_per("adapters.parse", n),
        );
        m.insert(
            "adapters.bytes_per_event",
            r.text_bytes as f64 / n.max(1) as f64,
        );
        m.insert(
            "adapters.allocs_per_event",
            st.get("adapters.parse").allocs as f64 / n.max(1) as f64,
        );
    }
    if workload.is_served() {
        m.insert(
            "wire.encode_ns_per_event",
            st.ns_per("wire.encode", offered),
        );
        m.insert(
            "wire.decode_ns_per_event",
            st.ns_per("wire.decode", offered),
        );
        m.insert(
            "wire.bytes_per_event",
            r.wire_bytes as f64 / offered.max(1) as f64,
        );
        m.insert(
            "wire.delta_bytes_ratio",
            r.wire_bytes as f64 / r.full_bytes.max(1) as f64,
        );
        m.insert(
            "wire.decode_allocs_per_event",
            st.get("wire.decode").allocs as f64 / offered.max(1) as f64,
        );
        let ve = st.get("wire.verdict_encode");
        m.insert(
            "wire.verdict_encode_ns",
            ve.ns as f64 / ve.calls.max(1) as f64,
        );
        m.insert(
            "vclock.intern_ns_per_event",
            st.ns_per("vclock.intern", offered),
        );
        m.insert(
            "vclock.pool_hit_ratio",
            r.pool_hits as f64 / (r.pool_hits + r.pool_misses).max(1) as f64,
        );
        m.insert(
            "ingest.admit_ns_per_event",
            st.ns_per("ingest.admit", offered),
        );
        let g = &r.ingest;
        m.insert(
            "ingest.fast_path_ratio",
            (g.admitted - g.reordered_delivered) as f64 / offered.max(1) as f64,
        );
        m.insert("ingest.duplicates", g.duplicates_dropped as f64);
        m.insert("ingest.reordered", g.reordered_delivered as f64);
        m.insert("ingest.buffered_peak", g.buffered_peak as f64);
        if g.admitted != reference.ingest.admitted || g.quarantined() != 0 {
            fail(format!(
                "staged guard admitted {} of {}",
                g.admitted, reference.ingest.admitted
            ));
        }
    }
    let stats = r.set.total_stats();
    let searches = stats.searches.max(1) as f64;
    let observe = st.get("ocep.observe");
    // Per-event stamps, not the stage span: the span also holds the
    // harness's own clock and counter reads (its self time).
    let observe_ns = (r.split.search_ns + r.split.route_ns) as f64;
    m.insert("ocep.observe_ns_per_event", observe_ns / n.max(1) as f64);
    m.insert(
        "ocep.search_ns_per_search",
        r.split.search_ns as f64 / r.split.search_arrivals.max(1) as f64,
    );
    m.insert(
        "ocep.route_ns_per_event",
        r.split.route_ns as f64 / (n as u64 - r.split.search_arrivals).max(1) as f64,
    );
    m.insert(
        "ocep.search_share",
        r.split.search_ns as f64 / (r.split.search_ns + r.split.route_ns).max(1) as f64,
    );
    m.insert(
        "ocep.useful_search_ratio",
        r.split.useful_arrivals as f64 / r.split.search_arrivals.max(1) as f64,
    );
    m.insert("ocep.nodes_per_search", stats.nodes as f64 / searches);
    m.insert(
        "ocep.backjumps_per_search",
        stats.backjumps as f64 / searches,
    );
    m.insert("ocep.domains_per_search", stats.domains as f64 / searches);
    m.insert(
        "ocep.candidates_per_search",
        stats.candidates as f64 / searches,
    );
    m.insert(
        "vclock.comparisons_per_search",
        r.split.comparisons as f64 / searches,
    );
    let (mut hist_events, mut hist_bytes, mut suppressed) = (0usize, 0usize, 0usize);
    for (_, mon) in r.set.iter() {
        hist_events += mon.history_size();
        hist_bytes += mon.history_bytes();
        suppressed += mon.suppressed();
    }
    m.insert(
        "ocep.suppressed_ratio",
        suppressed as f64 / (stats.stored as usize + suppressed).max(1) as f64,
    );
    m.insert("ocep.history_events", hist_events as f64);
    m.insert("ocep.history_bytes", hist_bytes as f64);
    m.insert(
        "ocep.allocs_per_event",
        observe.allocs as f64 / n.max(1) as f64,
    );
    m.insert(
        "vclock.le_ns_at_width",
        le_ns_at_width(if input.text.is_some() {
            &r.parsed
        } else {
            &input.clean
        }),
    );

    // Checkpoint: the state-size witness, taken once after the replay.
    let t = Instant::now();
    let blob = ocep_core::save_set(&r.set, &r.sources);
    m.insert("checkpoint.save_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let loaded = ocep_core::load_set(&blob);
    m.insert("checkpoint.load_ms", t.elapsed().as_secs_f64() * 1e3);
    m.insert("checkpoint.bytes", blob.len() as f64);
    match loaded {
        Ok((set, _)) if set.len() == names.len() => {}
        Ok(_) => fail("checkpoint lost monitors".into()),
        Err(e) => fail(format!("checkpoint reload: {e}")),
    }

    let mut staged_ns_per_event: f64 = ([
        "adapters.parse",
        "wire.encode",
        "wire.decode",
        "vclock.intern",
        "ingest.admit",
        "wal.append",
        "wal.flush",
        "wire.verdict_encode",
    ]
    .iter()
    .map(|s| st.get(s).ns as f64)
    .sum::<f64>()
        + observe_ns)
        / n.max(1) as f64;

    if workload.tenants() > 0 {
        m.insert("wal.append_ns_per_event", st.ns_per("wal.append", n));
        let fl = st.get("wal.flush");
        m.insert(
            "wal.flush_ns_per_frame",
            fl.ns as f64 / fl.calls.max(1) as f64,
        );
        m.insert("wal.scan_ns_per_event", r.wal_scan_ns_per_event);
        let single = st.ns_per("ingest.admit", n)
            + st.ns_per("wal.append", n)
            + st.ns_per("wal.flush", n)
            + observe_ns / n.max(1) as f64;
        let verdicts = shard_replay(workload, &input, work, &mut r.stager)?;
        if let Err(e) = check::check_verdicts(&reference, &verdicts, &names) {
            fail(format!("shard replay: {e}"));
        }
        let deliver = r.stager.ns_per("shard.deliver", n);
        m.insert("shard.deliver_ns_per_event", deliver);
        m.insert("shard.overhead_ns_per_event", deliver - single);
        let mut per_shard = [0usize; 2];
        for name in &names {
            per_shard[route_of(name, 2)] += 1;
        }
        m.insert(
            "shard.skew",
            *per_shard.iter().max().expect("two shards") as f64 / (names.len() as f64 / 2.0),
        );
        // The server runs the shard group, not the single-set stages.
        staged_ns_per_event += deliver - single;
    }

    // ---- loopback passes with client-side spans --------------------------
    let end_to_end_ns_per_event;
    if workload.is_served() {
        let durable = workload.tenants() > 0;
        // Plain pass through the product's client: the untraced
        // reference rate, and (durable workload) the crash image.
        let wal = durable.then(|| work.fresh("wal"));
        let image = durable.then(|| work.fresh("crash-image"));
        let mut copied = Ok(0);
        let plain = net::closed_pass(workload, &input, wal.as_deref(), || {
            if let (Some(from), Some(to)) = (&wal, &image) {
                // Every frame is acked and its records are in the
                // kernel, but no checkpoint has been written: exactly
                // what a SIGKILL at this instant would leave on disk.
                copied = net::copy_tree(from, to);
            }
        })?;
        attempted += offered as u64;
        if let Err(e) = check::check_served(&reference, &plain.report, &input, workload) {
            fail(format!("plain pass: {e}"));
        }
        let plain_rate = n as f64 / plain.secs.max(1e-9);
        m.insert("run.events_per_s", plain_rate);
        end_to_end_ns_per_event = 1e9 / plain_rate;
        m.insert(
            "server.accept_admit_p50_ns",
            plain
                .report
                .latency
                .quantile(0.5)
                .map_or(0.0, |(lo, _)| lo as f64),
        );
        if let Some(dir) = &wal {
            m.insert(
                "wal.bytes_per_event",
                dir_bytes(dir) as f64 / n.max(1) as f64,
            );
            work.remove(dir);
        }

        // The same closed loop with every ack stamped and every send
        // wrapped in a span.
        let traced = work.with_wal(durable, |wal| {
            net::produce(workload, &input, &input.frames, wal, Pace::Credit)
        })?;
        attempted += offered as u64;
        if let Err(e) = check::check_served(&reference, &traced.report, &input, workload) {
            fail(format!("traced pass: {e}"));
        }
        let send_ns: u64 = traced.sent.send_spans.iter().map(|(a, b)| b - a).sum();
        m.insert(
            "client.send_ns_per_event",
            send_ns as f64 / offered.max(1) as f64,
        );
        m.insert(
            "client.credit_wait_share",
            traced.sent.credit_wait_ns as f64 / (traced.sent.secs * 1e9).max(1.0),
        );
        let traced_rate = n as f64 / traced.sent.secs.max(1e-9);
        m.insert("trace.events_per_s", traced_rate);
        m.insert("trace.overhead_ratio", traced_rate / plain_rate);
        for (i, (a, b)) in traced.sent.send_spans.iter().enumerate() {
            r.stager
                .tracer
                .record("client.send", *a, *b, None, i as u64 + 1);
        }
        for (i, (due, ack)) in traced
            .sent
            .due_ns
            .iter()
            .zip(&traced.sent.ack_ns)
            .enumerate()
        {
            r.stager
                .tracer
                .record("client.ack_wait", *due, *ack, None, i as u64 + 1);
        }

        // The open loop at the workload's fixed rate: ack latency from
        // due time, the generator's own health, and the tail's verdict
        // latency. Reported here, ungated (see README). A server sees
        // each event once, so where the phase outlasts the stream it
        // continues on a fresh server; the samples are pooled.
        let rate = workload.open_loop_rate();
        let mut remaining = ((rate * seconds * 0.2) as usize / workload.frame_events()).max(1);
        let mut ack_us = Vec::with_capacity(remaining);
        let mut verdict_ms = Vec::new();
        let (mut unacked, mut late_max_ns, mut backlog, mut tail_verdicts) = (0, 0, 0, 0);
        while remaining > 0 {
            let frames = &input.frames[..remaining.min(input.frames.len())];
            remaining -= frames.len();
            let open = work.with_wal(durable, |wal| {
                net::produce(workload, &input, frames, wal, Pace::Fixed(rate))
            })?;
            attempted += frames.iter().map(Vec::len).sum::<usize>() as u64;
            let (us, open_failed) = run::ack_latencies(&open.sent, frames);
            failed += open_failed;
            unacked += frames.len() - us.len();
            ack_us.extend(us);
            late_max_ns = late_max_ns.max(open.sent.late_max_ns);
            backlog = backlog.max(open.sent.backlog_frames_end);
            tail_verdicts += open.tail.len();
            verdict_ms.extend(verdict_latencies_ms(&open, frames));
            if open.tail.len() != open.report.verdicts.len() {
                fail(format!(
                    "tail saw {} of {} verdicts",
                    open.tail.len(),
                    open.report.verdicts.len()
                ));
            }
        }
        let ack_us = sorted(ack_us);
        m.insert("open.ack_us_p50", nearest_rank(&ack_us, 0.5).unwrap_or(0.0));
        m.insert(
            "open.ack_us_p99",
            tail_percentile(&ack_us, 0.99).unwrap_or(0.0),
        );
        let over = ack_us
            .iter()
            .filter(|us| **us > run::LATENCY_LIMIT.as_secs_f64() * 1e6)
            .count();
        m.insert("open.failed_frames", (over + unacked) as f64);
        m.insert("gen.late_ms_max", late_max_ns as f64 / 1e6);
        m.insert("gen.backlog_frames_end", backlog as f64);
        m.insert("tail.verdicts", tail_verdicts as f64);
        let v = sorted(verdict_ms);
        if v.len() >= 30 {
            m.insert("tail.verdict_ms_p50", nearest_rank(&v, 0.5).unwrap_or(0.0));
        }

        // One frame at a time: write → `Ack` with nothing queued in
        // front, one pass of what the untraced run repeats.
        let single = work.with_wal(durable, |wal| {
            net::produce(workload, &input, &input.frames, wal, Pace::OneAtATime)
        })?;
        attempted += offered as u64;
        let (single_us, single_failed) = run::ack_latencies(&single.sent, &input.frames);
        failed += single_failed;
        let single_us = sorted(single_us);
        m.insert(
            "run.latency_us_p50",
            nearest_rank(&single_us, 0.5).unwrap_or(0.0),
        );
        m.insert(
            "run.latency_us_p99",
            tail_percentile(&single_us, 0.99).unwrap_or(0.0),
        );

        // Single-event frames: the protocol's per-frame floor.
        let probe = Duration::from_secs_f64(seconds * 0.1);
        m.insert(
            "client.batch1_events_per_s",
            work.with_wal(durable, |wal| {
                net::batch1_probe(workload, &input, wal, probe)
            })?,
        );

        // Restart on the crash image: full replay of the log.
        if let Some(image) = &image {
            copied.map_err(|e| format!("crash image: {e}"))?;
            let rec = net::recover(workload, &input, image)?;
            if rec.resume_from != n as u64 || rec.report.recovered_events != n as u64 {
                fail(format!(
                    "recovery replayed {} and resumes at {} of {n} events",
                    rec.report.recovered_events, rec.resume_from
                ));
            }
            if let Err(e) = check::check_served(&reference, &rec.report, &input, workload) {
                fail(format!("recovered server: {e}"));
            }
            m.insert("wal.recover_events_per_s", n as f64 / rec.secs.max(1e-9));
            work.remove(image);
        }
    } else {
        // In-process: the untraced pass of `run.rs` is the end-to-end
        // side; the staged replay above is the traced side.
        let pass = run::inproc_pass(workload, &input)?;
        attempted += pass.events as u64;
        if let Err(e) = check::check_inproc(&reference, &pass.verdicts, &pass.subset) {
            fail(format!("untraced pass: {e}"));
        }
        end_to_end_ns_per_event = pass.secs * 1e9 / pass.events.max(1) as f64;
        m.insert("run.events_per_s", pass.events as f64 / pass.secs.max(1e-9));
        let arrival_us = sorted(pass.arrival_us);
        m.insert(
            "run.latency_us_p50",
            nearest_rank(&arrival_us, 0.5).unwrap_or(0.0),
        );
        m.insert(
            "run.latency_us_p99",
            tail_percentile(&arrival_us, 0.99).unwrap_or(0.0),
        );
        // Traced side: the whole replay, harness reads included.
        let replay_ns: u64 = r
            .stager
            .tracer
            .spans
            .iter()
            .filter(|s| s.name == "frame")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let traced_rate = n as f64 * 1e9 / (replay_ns as f64).max(1.0);
        m.insert("trace.events_per_s", traced_rate);
        m.insert(
            "trace.overhead_ratio",
            traced_rate / (pass.events as f64 / pass.secs.max(1e-9)),
        );
    }
    m.insert(
        "trace.coverage",
        staged_ns_per_event / end_to_end_ns_per_event.max(1e-9),
    );
    if workload.is_served() {
        m.insert(
            "server.residual_ns_per_event",
            end_to_end_ns_per_event - staged_ns_per_event,
        );
    }

    let (rss, cpu) = run::proc_usage().ok_or("/proc/self is unreadable")?;
    m.insert("proc.peak_rss_mb", rss);
    m.insert("proc.cpu_s", cpu);

    // Timing is over: spans may now touch the disk.
    if let Some(path) = trace_out {
        span::write_jsonl(path, &r.stager.tracer.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let by_name = span::self_time_by_name(&r.stager.tracer.spans);
    if let Some((frames, harness_ns)) = by_name.get("frame") {
        eprintln!(
            "# {}: {} spans, {frames} frame spans, harness self time {:.1} ms",
            workload.name(),
            r.stager.tracer.spans.len(),
            *harness_ns as f64 / 1e6
        );
    }
    if !correct {
        failed = attempted;
    }
    Ok(Traced {
        metrics: m,
        attempted,
        failed,
        correct,
        note,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in LAYER_METRICS {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
