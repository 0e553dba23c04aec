//! The simulation run: scripted clients, simulated transports, seeded
//! faults, crash/restart, and the journal-replay oracle.
//!
//! One [`run_sim`] call builds a seeded workload (a conformance case
//! tiled to the requested event count, partitioned round-robin over N
//! producers), drives the **real** [`EngineCore`] through in-memory
//! transports in virtual time, injects wire-level faults from the seed
//! (corruption, duplication, reorder, partitions, slow tails), kills
//! the engine mid-stream and recovers it from its durable log — the one
//! way production survives a crash — and finally replays the engine's
//! ingestion journal through a fresh in-process `MonitorSet`, demanding
//! bit-identical verdicts, subsets, ingest statistics, and checkpoint
//! bytes at every kill. Everything is a pure function of [`SimConfig`]:
//! same config, same [`SimOutcome::digest`].

use crate::clock::VirtualClock;
use crate::sched::{Scheduler, Step};
use ocep_conformance::{nth_case, Action, Case, Fingerprint};
use ocep_core::ingest::GuardConfig;
use ocep_core::{save_set_at, Match, MonitorSet};
use ocep_net::wire::{read_frame, write_frame};
use ocep_net::{
    Decoded, EngineCore, EngineOp, FaultCode, FaultHooks, Frame, FrameDecoder, Mode, NetClock,
    OutQueue, ServeConfig, StatsReport,
};
use ocep_pattern::Pattern;
use ocep_poet::Event;
use ocep_rng::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Single monitor name used by the simulated daemon and the oracle.
const MONITOR: &str = "pattern";

/// Hard ceiling on scheduler steps: a run that exceeds it is reported
/// as a livelock mismatch instead of hanging the harness.
const STEP_LIMIT: u64 = 2_000_000;

/// Consecutive zero-credit waits before a producer declares starvation
/// (a lost-ack bug in the engine or the fault model).
const WAIT_LIMIT: u32 = 10_000;

/// Which wire-level fault classes the plan generator may inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultToggles {
    /// Flip one body bit (never the length prefix or the frame tag) in
    /// some data frames, exercising quarantine-and-continue decode.
    pub corrupt: bool,
    /// Send some encoded data frames twice (dedup via guard watermarks).
    pub duplicate: bool,
    /// Swap some adjacent data frames before encoding (guard reorder).
    pub reorder: bool,
    /// Producers go silent for windows, and rarely drop the connection
    /// and reconnect with a full resend.
    pub partition: bool,
    /// Tails stall behind a tiny queue, so verdicts are dropped.
    pub stall: bool,
}

impl FaultToggles {
    /// Every fault class enabled (the `--faults` CLI switch).
    #[must_use]
    pub fn all() -> Self {
        FaultToggles {
            corrupt: true,
            duplicate: true,
            reorder: true,
            partition: true,
            stall: true,
        }
    }

    /// True when at least one class is enabled.
    #[must_use]
    pub fn any(self) -> bool {
        self.corrupt || self.duplicate || self.reorder || self.partition || self.stall
    }
}

/// A complete, self-describing simulation configuration — the unit the
/// shrinker minimizes and the failure dump records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Master seed; every random decision in the run derives from it.
    pub seed: u64,
    /// Number of scripted producer clients (≥ 1).
    pub clients: usize,
    /// Number of verdict-tail subscribers.
    pub tails: usize,
    /// Total workload size in events, split round-robin over clients.
    pub events: usize,
    /// Enabled fault classes.
    pub faults: FaultToggles,
    /// Mid-stream daemon kills. A run with at least one serves through
    /// an on-disk durable log in a private temp directory; each kill is
    /// SIGKILL-like (no checkpoint, no drain) and the restart recovers by
    /// replaying the log.
    pub crashes: usize,
    /// Test-only oracle sabotage: drop the last journaled delivery so
    /// the comparison must fail (exercises shrink/dump/replay).
    pub sabotage: bool,
    /// Test-only log sabotage: silently drop one admitted delivery's log
    /// append, so after a crash the recovered engine is missing an event
    /// the oracle has — the comparison must flag it. Implies at least
    /// one crash.
    pub wal_sabotage: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            clients: 4,
            tails: 2,
            events: 96,
            faults: FaultToggles::default(),
            crashes: 0,
            sabotage: false,
            wal_sabotage: false,
        }
    }
}

/// How many faults of each class a run actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Data frames with one body bit flipped.
    pub corrupted: u64,
    /// Data frames sent twice.
    pub duplicated: u64,
    /// Adjacent data-frame swaps.
    pub reordered: u64,
    /// Silent-window partitions entered.
    pub partitions: u64,
    /// Connection drops followed by reconnect + full resend.
    pub reconnects: u64,
    /// Tail stall windows entered.
    pub stalls: u64,
}

/// What one simulated run concluded.
#[derive(Debug)]
pub struct SimOutcome {
    /// The engine-side run fingerprint (verdicts, subset, ingest).
    pub fingerprint: Fingerprint,
    /// The daemon's final stats broadcast (last incarnation).
    pub stats: StatsReport,
    /// Faults injected, by class.
    pub injected: FaultCounts,
    /// Crash/restart cycles actually performed.
    pub crashes: usize,
    /// Scheduler steps executed.
    pub steps: u64,
    /// FNV-1a digest over the fingerprint, stats and fault counts —
    /// byte-reproducibility is `digest == digest`.
    pub digest: u64,
    /// `Some(description)` when the engine diverged from the oracle
    /// (or the run livelocked / failed to recover); `None` on success.
    pub mismatch: Option<String>,
}

/// One logical event the oracle replays — the engine's journal plus the
/// checkpoint markers the crash protocol interleaves.
enum SimOp {
    /// One event was fed to `observe_raw`.
    Deliver(Box<Event>),
    /// The guard was flushed.
    Flush,
    /// The engine's set as it was killed; the oracle must hold exactly
    /// these bytes at this point, and only compares. Log recovery must
    /// rebuild the state the cumulative journal implies, verdict history
    /// included, so the oracle carries straight on — any loss shows up
    /// in the final diff.
    Checkpoint(Vec<u8>),
}

impl From<EngineOp> for SimOp {
    fn from(op: EngineOp) -> SimOp {
        match op {
            EngineOp::Deliver(e) => SimOp::Deliver(e),
            EngineOp::Flush => SimOp::Flush,
        }
    }
}

struct PlanItem {
    bytes: Vec<u8>,
    data: bool,
}

struct Producer {
    gen: u32,
    conn: u64,
    out: OutQueue,
    decoder: FrameDecoder,
    plan: Vec<PlanItem>,
    pos: usize,
    credits: u32,
    partition_until: u64,
    waits: u32,
    done: bool,
    closed: bool,
    rng: Rng,
}

struct TailSub {
    gen: u32,
    conn: u64,
    out: OutQueue,
    decoder: FrameDecoder,
    stalled_until: u64,
    rng: Rng,
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Tiles the case's action list until the execution holds `target`
/// events, then returns them in arrival order. Replaying the actions
/// through one tracer re-derives all vector timestamps, so the tiled
/// execution is always causally valid.
fn workload(case: &Case, target: usize) -> Vec<Event> {
    if case.actions.is_empty() {
        return Vec::new();
    }
    let reps = target.div_ceil(case.actions.len());
    let mut actions = Vec::with_capacity(case.actions.len() * reps);
    for r in 0..reps {
        let off = r * case.actions.len();
        for a in &case.actions {
            let mut a = a.clone();
            if let Action::Receive { sender, .. } = &mut a {
                *sender += off;
            }
            actions.push(a);
        }
    }
    let big = Case {
        pattern_src: case.pattern_src.clone(),
        n_traces: case.n_traces,
        actions,
    };
    let poet = big.build();
    poet.store().iter_arrival().take(target).cloned().collect()
}

/// The exact set construction both the daemon and the oracle use.
fn build_set(case: &Case) -> Option<MonitorSet> {
    let pattern = Pattern::parse(&case.pattern_src).ok()?;
    let mut set = MonitorSet::new(case.n_traces);
    set.add(MONITOR, pattern);
    set.enable_guard(GuardConfig::default());
    Some(set)
}

/// `f` as it goes on the wire, length prefix included.
fn framed(f: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, f).expect("a Vec takes every write");
    bytes
}

/// Builds one producer's scripted frame plan for one incarnation:
/// hello, then the client's event slice chunked into `Event`/
/// `EventBatch` frames with occasional `Flush`/`StatsReq`/
/// `CheckpointReq`, with the enabled fault classes applied.
fn build_plan(
    slice: &[Event],
    n_traces: usize,
    id: usize,
    faults: FaultToggles,
    rng: &mut Rng,
    counts: &mut FaultCounts,
) -> Vec<PlanItem> {
    let mut frames: Vec<(Frame, bool)> = vec![(
        Frame::Hello {
            mode: Mode::Producer,
            n_traces: n_traces as u32,
            name: format!("sim-producer-{id}"),
        },
        false,
    )];
    let mut i = 0;
    while i < slice.len() {
        if slice.len() - i >= 2 && rng.gen_bool(0.4) {
            let k = rng.gen_range(2usize..5).min(slice.len() - i);
            frames.push((Frame::EventBatch(slice[i..i + k].to_vec()), true));
            i += k;
        } else {
            frames.push((Frame::Event(Box::new(slice[i].clone())), true));
            i += 1;
        }
        if rng.gen_bool(0.05) {
            frames.push((Frame::Flush, true));
        }
        if rng.gen_bool(0.02) {
            frames.push((Frame::StatsReq, false));
        }
        if rng.gen_bool(0.01) {
            frames.push((Frame::CheckpointReq, false));
        }
    }
    if faults.reorder {
        // Swap adjacent data frames (never the hello): the guard's
        // reorder buffer must repair the inversion.
        let mut j = 1;
        while j + 1 < frames.len() {
            if frames[j].1 && frames[j + 1].1 && rng.gen_bool(0.1) {
                frames.swap(j, j + 1);
                counts.reordered += 1;
                j += 2;
            } else {
                j += 1;
            }
        }
    }
    let mut plan = Vec::with_capacity(frames.len());
    for (frame, data) in frames {
        let mut bytes = framed(&frame);
        let body_len = bytes.len() - 4;
        if data && faults.corrupt && body_len > 1 && rng.gen_bool(0.05) {
            // Flip one bit at body offset >= 1: the length prefix and
            // the frame tag stay intact, so the stream stays aligned
            // and the outcome is quarantine-or-different-decode.
            let idx = rng.gen_range(1usize..body_len);
            let bit = rng.gen_range(0u32..8);
            bytes[4 + idx] ^= 1u8 << bit;
            counts.corrupted += 1;
        }
        let dup = data && faults.duplicate && rng.gen_bool(0.04);
        plan.push(PlanItem {
            bytes: bytes.clone(),
            data,
        });
        if dup {
            counts.duplicated += 1;
            // The duplicate costs the client no credit: the engine acks
            // both copies, so the window self-heals (+1 net).
            plan.push(PlanItem { bytes, data: false });
        }
    }
    plan
}

/// Feeds raw wire bytes into the server-side decoder for `conn` and
/// hands every outcome to the engine, as a TCP reader thread does.
/// Returns true when the connection fatally closed.
fn feed(
    core: &mut EngineCore,
    clock: &VirtualClock,
    conn: u64,
    decoder: &mut FrameDecoder,
    bytes: &[u8],
    delivered_data: &mut u64,
    rng: &mut Rng,
) -> bool {
    if bytes.len() > 8 && rng.gen_bool(0.25) {
        // Split the write: the decoder must reassemble across chunks.
        let cut = rng.gen_range(1usize..bytes.len());
        decoder.push(&bytes[..cut]);
        decoder.push(&bytes[cut..]);
    } else {
        decoder.push(bytes);
    }
    while let Some(d) = decoder.next() {
        if matches!(&d, Decoded::Frame { frame, .. } if frame.is_data()) {
            *delivered_data += 1;
        }
        // Scripted plans never send Shutdown; the driver calls finish()
        // at quiescence instead.
        let _ = core.on_decoded(conn, d, clock.now_ns());
    }
    decoder.is_poisoned()
}

struct World {
    cfg: SimConfig,
    case: Case,
    serve: ServeConfig,
    sources: HashMap<String, String>,
    clock: Arc<VirtualClock>,
    core: EngineCore,
    sched: Scheduler,
    producers: Vec<Producer>,
    tails: Vec<TailSub>,
    ops: Vec<SimOp>,
    next_conn: u64,
    delivered_data: u64,
    crash_at: Vec<u64>,
    crashes_done: usize,
    counts: FaultCounts,
    failure: Option<String>,
    slices: Vec<Vec<Event>>,
    incarnation: u32,
    steps: u64,
}

impl World {
    fn all_producers_done(&self) -> bool {
        self.producers.iter().all(|p| p.done || p.closed)
    }

    /// Regenerates producer `id`'s plan for the current incarnation and
    /// reseeds its step rng — both pure functions of (seed, id,
    /// incarnation).
    fn fresh_plan(&mut self, id: usize) -> Vec<PlanItem> {
        let mut rng = Rng::seed_from_u64(mix(
            self.cfg.seed,
            0x5052_4F44 ^ (id as u64),
            u64::from(self.incarnation),
        ));
        self.producers[id].rng = rng.fork();
        build_plan(
            &self.slices[id],
            self.case.n_traces,
            id,
            self.cfg.faults,
            &mut rng,
            &mut self.counts,
        )
    }

    /// Gives producer `id` a fresh connection (new conn id, queue,
    /// decoder) and rewinds its plan for a full resend.
    fn reconnect_producer(&mut self, id: usize) {
        let conn = self.next_conn;
        self.next_conn += 1;
        let out = OutQueue::new();
        self.core
            .on_accepted(conn, format!("sim-producer-{id}"), out.clone());
        let p = &mut self.producers[id];
        p.conn = conn;
        p.out = out;
        p.decoder = FrameDecoder::new();
        p.pos = 0;
        p.credits = 0;
        p.waits = 0;
        p.done = false;
        p.closed = false;
    }

    /// Connects tail `id` and performs its handshake immediately.
    fn connect_tail(&mut self, id: usize) {
        let conn = self.next_conn;
        self.next_conn += 1;
        let out = OutQueue::new();
        self.core
            .on_accepted(conn, format!("sim-tail-{id}"), out.clone());
        {
            let t = &mut self.tails[id];
            t.conn = conn;
            t.out = out;
            t.decoder = FrameDecoder::new();
            t.stalled_until = 0;
            t.rng = Rng::seed_from_u64(mix(
                self.cfg.seed,
                0x7A11_0000 ^ (id as u64),
                u64::from(self.incarnation),
            ));
        }
        let hello = framed(&Frame::Hello {
            mode: Mode::Tail,
            n_traces: 0,
            name: format!("sim-tail-{id}"),
        });
        let t = &mut self.tails[id];
        feed(
            &mut self.core,
            &self.clock,
            conn,
            &mut t.decoder,
            &hello,
            &mut self.delivered_data,
            &mut t.rng,
        );
    }

    fn step_producer(&mut self, id: usize, gen: u32) {
        let now = self.clock.now_ns();
        {
            let p = &self.producers[id];
            if p.gen != gen || p.done || p.closed {
                return;
            }
        }
        // Read inbound control traffic (acks, faults, stats) the way a
        // client does: the engine only ever queues whole frames.
        {
            let p = &mut self.producers[id];
            let drained = p.out.drain();
            let mut rest = drained.as_slice();
            while !rest.is_empty() {
                match read_frame(&mut rest).expect("the engine queues whole frames") {
                    Frame::Ack { credits } => p.credits += credits,
                    // A quarantined frame is never acked; the decode
                    // fault is the signal to return that credit.
                    Frame::Fault {
                        code: FaultCode::Decode,
                        ..
                    } => p.credits += 1,
                    _ => {}
                }
            }
        }
        // Partition onset, then silence until the window heals.
        if self.cfg.faults.partition {
            let p = &mut self.producers[id];
            if now >= p.partition_until && p.rng.gen_bool(0.02) {
                p.partition_until = now + 120_000;
                self.counts.partitions += 1;
            }
        }
        if now < self.producers[id].partition_until {
            self.sched
                .schedule(now + 10_000, Step::Producer { id, gen });
            return;
        }
        // Rare full connection drop: reconnect and resend from the top
        // (the guard's watermarks dedup the replayed prefix).
        if self.cfg.faults.partition
            && self.producers[id].pos > 1
            && self.producers[id].rng.gen_bool(0.004)
        {
            let conn = self.producers[id].conn;
            self.core.on_closed(conn);
            self.counts.reconnects += 1;
            self.reconnect_producer(id);
            self.sched.schedule(now + 5_000, Step::Producer { id, gen });
            return;
        }
        if self.producers[id].pos >= self.producers[id].plan.len() {
            self.producers[id].done = true;
            return;
        }
        let (is_data, credits) = {
            let p = &self.producers[id];
            (p.plan[p.pos].data, p.credits)
        };
        if is_data && credits == 0 {
            let p = &mut self.producers[id];
            p.waits += 1;
            if p.waits > WAIT_LIMIT {
                self.failure = Some(format!(
                    "producer {id} starved of credits at plan position {}",
                    self.producers[id].pos
                ));
                return;
            }
            self.sched.schedule(now + 2_000, Step::Producer { id, gen });
            return;
        }
        let item_bytes = {
            let p = &mut self.producers[id];
            p.waits = 0;
            if is_data {
                p.credits -= 1;
            }
            p.pos += 1;
            p.plan[p.pos - 1].bytes.clone()
        };
        let p = &mut self.producers[id];
        let closed = feed(
            &mut self.core,
            &self.clock,
            p.conn,
            &mut p.decoder,
            &item_bytes,
            &mut self.delivered_data,
            &mut p.rng,
        );
        if closed {
            self.producers[id].closed = true;
            return;
        }
        let delay = 800 + self.producers[id].rng.gen_range(0u64..1_600);
        self.sched.schedule(now + delay, Step::Producer { id, gen });
    }

    fn step_tail(&mut self, id: usize, gen: u32) {
        let now = self.clock.now_ns();
        if self.tails[id].gen != gen {
            return;
        }
        if self.cfg.faults.stall {
            let t = &mut self.tails[id];
            if now >= t.stalled_until && t.rng.gen_bool(0.15) {
                t.stalled_until = now + 60_000;
                self.counts.stalls += 1;
            }
        }
        if now < self.tails[id].stalled_until {
            self.sched.schedule(now + 10_000, Step::Tail { id, gen });
            return;
        }
        // The tail reads and discards whatever the engine queued.
        let _ = self.tails[id].out.drain();
        if !self.all_producers_done() {
            let delay = 3_000 + self.tails[id].rng.gen_range(0u64..3_000);
            self.sched.schedule(now + delay, Step::Tail { id, gen });
        }
    }

    /// Kills the daemon at the next armed threshold: journal drain, the
    /// dying set's checkpoint bytes handed to the oracle to compare,
    /// engine teardown with no drain, recovery from the log, and a full
    /// reconnect + resend from every client.
    fn maybe_crash(&mut self) {
        if self.crashes_done >= self.crash_at.len()
            || self.delivered_data < self.crash_at[self.crashes_done]
        {
            return;
        }
        self.crashes_done += 1;
        for op in self.core.take_journal() {
            self.ops.push(op.into());
        }
        self.ops
            .push(SimOp::Checkpoint(self.core.group().checkpoint_set()));
        // The daemon dies: every connection queue closes with it.
        for p in &self.producers {
            p.out.close();
        }
        for t in &self.tails {
            t.out.close();
        }
        // SIGKILL semantics: no checkpoint, no graceful drain — the
        // on-disk log is the only thing that survives. The new
        // incarnation rebuilds everything by replaying it.
        let Some(set) = build_set(&self.case) else {
            self.failure = Some("restart: pattern failed to parse".into());
            return;
        };
        let dynclock: Arc<dyn NetClock> = Arc::clone(&self.clock) as Arc<dyn NetClock>;
        // Replace (and thereby drop) the dying incarnation before the
        // replacement scans the log directory.
        self.core = EngineCore::new(set, self.serve.clone(), dynclock);
        if let Err(e) = self.core.recover_wal() {
            self.failure = Some(format!("restart failed to recover log: {e}"));
            return;
        }
        self.core.enable_journal();
        self.incarnation += 1;
        let now = self.clock.now_ns();
        for id in 0..self.producers.len() {
            self.producers[id].gen += 1;
            let plan = self.fresh_plan(id);
            self.producers[id].plan = plan;
            self.reconnect_producer(id);
            let gen = self.producers[id].gen;
            self.sched
                .schedule(now + 1_000 + (id as u64) * 137, Step::Producer { id, gen });
        }
        for id in 0..self.tails.len() {
            self.tails[id].gen += 1;
            self.connect_tail(id);
            let gen = self.tails[id].gen;
            self.sched
                .schedule(now + 2_000 + (id as u64) * 211, Step::Tail { id, gen });
        }
    }
}

fn verdict_coords(verdicts: &[(String, Match)]) -> Vec<(String, Vec<(u32, u32)>)> {
    verdicts
        .iter()
        .map(|(n, m)| (n.clone(), m.coords()))
        .collect()
}

/// Replays the recorded op stream through a fresh in-process set: the
/// oracle. Checkpoint ops assert bit-equality against the engine's
/// bytes and change nothing.
fn replay_oracle(
    case: &Case,
    sources: &HashMap<String, String>,
    ops: &[SimOp],
) -> Result<(MonitorSet, Vec<(String, Match)>), String> {
    let mut set = build_set(case).ok_or_else(|| "oracle: pattern failed to parse".to_string())?;
    let mut verdicts = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            SimOp::Deliver(e) => {
                verdicts.extend(set.observe_raw(e));
                let _ = set.take_ingest_faults();
            }
            SimOp::Flush => {
                verdicts.extend(set.flush_guard());
                let _ = set.take_ingest_faults();
            }
            SimOp::Checkpoint(engine_bytes) => {
                let mine = save_set_at(&set, sources, 0);
                if &mine != engine_bytes {
                    return Err(format!(
                        "checkpoint bytes diverged at op {i}: engine wrote {} byte(s), \
                         oracle wrote {}",
                        engine_bytes.len(),
                        mine.len()
                    ));
                }
            }
        }
    }
    Ok((set, verdicts))
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

fn digest_of(fp: &Fingerprint, stats: &StatsReport, crashes: usize, counts: &FaultCounts) -> u64 {
    let mut h = Fnv::new();
    for (name, pairs) in &fp.verdicts {
        h.eat(name.as_bytes());
        for &(t, i) in pairs {
            h.u64(u64::from(t));
            h.u64(u64::from(i));
        }
        h.eat(b";");
    }
    h.eat(b"|subset|");
    for pairs in &fp.subset {
        for &(t, i) in pairs {
            h.u64(u64::from(t));
            h.u64(u64::from(i));
        }
        h.eat(b";");
    }
    h.eat(b"|ingest|");
    let g = &fp.ingest;
    for v in [
        g.admitted,
        g.duplicates_dropped,
        g.buffered,
        g.reordered_delivered,
        g.quarantined_trace_range,
        g.quarantined_clock_width,
        g.quarantined_non_monotone,
        g.overflow_rejected,
        g.overflow_dropped,
        g.degraded_flushes,
        g.degraded_delivered,
        g.buffered_peak,
    ] {
        h.u64(v);
    }
    h.eat(b"|stats|");
    for v in [
        stats.admitted,
        stats.quarantined,
        stats.duplicates,
        u64::from(stats.degraded),
        stats.matches,
        u64::from(stats.connections),
        stats.frames,
    ] {
        h.u64(v);
    }
    h.eat(b"|run|");
    for v in [
        crashes as u64,
        counts.corrupted,
        counts.duplicated,
        counts.reordered,
        counts.partitions,
        counts.reconnects,
        counts.stalls,
    ] {
        h.u64(v);
    }
    h.0
}

/// Runs one complete simulation: see the [module docs](self). Pure —
/// two calls with equal configs return equal digests and outcomes.
#[must_use]
pub fn run_sim(config: &SimConfig) -> SimOutcome {
    let mut cfg = config.clone();
    cfg.clients = cfg.clients.max(1);
    cfg.events = cfg.events.max(1);
    if cfg.wal_sabotage {
        // A dropped log record is only observable through a recovery
        // that misses it.
        cfg.crashes = cfg.crashes.max(1);
    }

    // A run that crashes serves through a private on-disk log directory
    // (the simulator is deterministic in virtual time, but the log must
    // not be shared between concurrent runs of the same seed).
    static WAL_RUN: AtomicU64 = AtomicU64::new(0);
    let wal_dir = (cfg.crashes > 0).then(|| {
        let dir = std::env::temp_dir().join(format!(
            "ocep-sim-wal-{}-{:016x}-{}",
            std::process::id(),
            cfg.seed,
            WAL_RUN.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });

    let (case, _) = nth_case(cfg.seed, 0);
    let events = workload(&case, cfg.events);
    let Some(set) = build_set(&case) else {
        return SimOutcome {
            fingerprint: Fingerprint {
                verdicts: Vec::new(),
                subset: Vec::new(),
                ingest: ocep_core::IngestStats::default(),
            },
            stats: StatsReport::default(),
            injected: FaultCounts::default(),
            crashes: 0,
            steps: 0,
            digest: 0,
            mismatch: Some("pattern failed to parse".into()),
        };
    };
    let mut sources = HashMap::new();
    sources.insert(MONITOR.to_string(), case.pattern_src.clone());
    let serve = ServeConfig {
        window: 4 + (cfg.seed % 13) as u32,
        subscriber_queue: if cfg.faults.stall { 4 } else { 1024 },
        pattern_sources: sources.clone(),
        wal_dir: wal_dir.clone(),
        ..ServeConfig::default()
    };
    let clock = Arc::new(VirtualClock::new());
    let dynclock: Arc<dyn NetClock> = Arc::clone(&clock) as Arc<dyn NetClock>;
    let mut core = EngineCore::new(set, serve.clone(), dynclock);
    core.group().set_fault_hooks(FaultHooks {
        drop_next_append: cfg.wal_sabotage,
    });
    let init_failure = core
        .recover_wal()
        .err()
        .map(|e| format!("initial log open failed: {e}"));
    core.enable_journal();

    let slices: Vec<Vec<Event>> = (0..cfg.clients)
        .map(|i| {
            events
                .iter()
                .enumerate()
                .filter(|(j, _)| j % cfg.clients == i)
                .map(|(_, e)| e.clone())
                .collect()
        })
        .collect();

    let n_clients = cfg.clients;
    let n_tails = cfg.tails;
    let crashes_requested = cfg.crashes;
    let mut world = World {
        cfg,
        case,
        serve,
        sources,
        clock,
        core,
        sched: Scheduler::new(),
        producers: Vec::new(),
        tails: Vec::new(),
        ops: Vec::new(),
        next_conn: 0,
        delivered_data: 0,
        crash_at: Vec::new(),
        crashes_done: 0,
        counts: FaultCounts::default(),
        failure: init_failure,
        slices,
        incarnation: 0,
        steps: 0,
    };

    for id in 0..n_clients {
        world.producers.push(Producer {
            gen: 0,
            conn: 0,
            out: OutQueue::new(),
            decoder: FrameDecoder::new(),
            plan: Vec::new(),
            pos: 0,
            credits: 0,
            partition_until: 0,
            waits: 0,
            done: false,
            closed: false,
            rng: Rng::seed_from_u64(0),
        });
        let plan = world.fresh_plan(id);
        world.producers[id].plan = plan;
        world.reconnect_producer(id);
        world
            .sched
            .schedule(1_000 + (id as u64) * 97, Step::Producer { id, gen: 0 });
    }
    for id in 0..n_tails {
        world.tails.push(TailSub {
            gen: 0,
            conn: 0,
            out: OutQueue::new(),
            decoder: FrameDecoder::new(),
            stalled_until: 0,
            rng: Rng::seed_from_u64(0),
        });
        world.connect_tail(id);
        world
            .sched
            .schedule(2_000 + (id as u64) * 131, Step::Tail { id, gen: 0 });
    }

    // Crash thresholds: evenly spaced through the first incarnation's
    // data volume, measured in cumulative delivered data frames (the
    // counter keeps growing through resends, so each fires once).
    let total_data: u64 = world
        .producers
        .iter()
        .map(|p| p.plan.iter().filter(|i| i.data).count() as u64)
        .sum();
    world.crash_at = (0..crashes_requested)
        .map(|k| ((k as u64 + 1) * total_data / (crashes_requested as u64 + 1)).max(1))
        .collect();

    while world.failure.is_none() {
        let Some((t, step)) = world.sched.pop() else {
            break;
        };
        world.steps += 1;
        if world.steps > STEP_LIMIT {
            world.failure = Some("step limit exceeded (livelock?)".into());
            break;
        }
        world.clock.advance_to(t);
        match step {
            Step::Producer { id, gen } => world.step_producer(id, gen),
            Step::Tail { id, gen } => world.step_tail(id, gen),
        }
        world.maybe_crash();
        if world.failure.is_some() {
            break;
        }
    }

    // Quiescent: graceful shutdown.
    let report = world.core.finish();
    for op in world.core.take_journal() {
        world.ops.push(op.into());
    }

    if world.cfg.sabotage {
        // Test hook: forget the last delivery so the oracle must
        // disagree — the failure path shrink/dump/replay tests need.
        if let Some(i) = world
            .ops
            .iter()
            .rposition(|o| matches!(o, SimOp::Deliver(_)))
        {
            world.ops.remove(i);
        }
    }

    let engine_fp = Fingerprint {
        verdicts: verdict_coords(&report.verdicts),
        subset: report
            .subsets
            .iter()
            .find(|(n, _)| n == MONITOR)
            .map(|(_, s)| s.clone())
            .unwrap_or_default(),
        ingest: report.ingest,
    };
    let mismatch = world.failure.take().or_else(|| {
        match replay_oracle(&world.case, &world.sources, &world.ops) {
            Err(e) => Some(e),
            Ok((oset, overdicts)) => {
                let oracle_fp = Fingerprint {
                    verdicts: verdict_coords(&overdicts),
                    subset: oset
                        .monitor(MONITOR)
                        .map(|m| m.subset().iter().map(|m| m.coords()).collect())
                        .unwrap_or_default(),
                    ingest: oset.ingest_stats(),
                };
                engine_fp
                    .diff(&oracle_fp)
                    .map(|d| format!("engine vs oracle: {d}"))
            }
        }
    });
    let digest = digest_of(&engine_fp, &report.stats, world.crashes_done, &world.counts);
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    SimOutcome {
        fingerprint: engine_fp,
        stats: report.stats,
        injected: world.counts,
        crashes: world.crashes_done,
        steps: world.steps,
        digest,
        mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            clients: 6,
            tails: 2,
            events: 80,
            faults: FaultToggles::all(),
            crashes: 1,
            sabotage: false,
            wal_sabotage: false,
        }
    }

    #[test]
    fn clean_run_agrees_with_oracle() {
        let out = run_sim(&SimConfig::default());
        assert_eq!(out.mismatch, None, "{:?}", out.mismatch);
        assert!(out.stats.admitted > 0, "workload admitted nothing");
        assert_eq!(out.crashes, 0);
    }

    #[test]
    fn same_seed_is_bit_reproducible() {
        let cfg = chaos(7);
        let a = run_sim(&cfg);
        let b = run_sim(&cfg);
        assert_eq!(a.mismatch, None, "{:?}", a.mismatch);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.injected, b.injected);
    }

    #[test]
    fn different_seeds_diverge() {
        // Not a guarantee for every pair, but these two must differ or
        // the digest is vacuous.
        let a = run_sim(&chaos(1));
        let b = run_sim(&chaos(2));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn crash_recovery_is_oracle_exact() {
        let mut cfg = chaos(11);
        cfg.crashes = 2;
        let out = run_sim(&cfg);
        assert_eq!(out.mismatch, None, "{:?}", out.mismatch);
        assert!(out.crashes >= 1, "no crash threshold fired");
    }

    #[test]
    fn chaos_run_injects_every_enabled_class() {
        let out = run_sim(&chaos(3));
        assert_eq!(out.mismatch, None, "{:?}", out.mismatch);
        let c = out.injected;
        assert!(
            c.corrupted + c.duplicated + c.reordered + c.partitions + c.stalls > 0,
            "chaos config injected nothing: {c:?}"
        );
    }

    /// Three kills in one run: each recovery replays a log that already
    /// holds the previous recoveries' resends.
    #[test]
    fn wal_crash_recovery_is_oracle_exact() {
        let mut cfg = chaos(13);
        cfg.crashes = 3;
        let out = run_sim(&cfg);
        assert_eq!(out.mismatch, None, "{:?}", out.mismatch);
        assert_eq!(out.crashes, 3, "a crash threshold did not fire");
    }

    /// Each run writes and recovers its own log directory, so a killed
    /// run repeats bit for bit.
    #[test]
    fn wal_run_is_bit_reproducible() {
        let cfg = chaos(17);
        let a = run_sim(&cfg);
        let b = run_sim(&cfg);
        assert_eq!(a.mismatch, None, "{:?}", a.mismatch);
        assert_eq!(a.crashes, 1);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn wal_sabotage_forces_a_mismatch() {
        let mut cfg = chaos(19);
        cfg.wal_sabotage = true;
        let out = run_sim(&cfg);
        assert!(
            out.mismatch.is_some(),
            "a dropped log record went unnoticed through crash recovery"
        );
    }

    #[test]
    fn sabotage_forces_a_mismatch() {
        let mut cfg = chaos(5);
        cfg.sabotage = true;
        let out = run_sim(&cfg);
        assert!(out.mismatch.is_some(), "sabotaged journal still matched");
    }
}
