//! The transport-free serving engine.
//!
//! [`EngineCore`] is the single-owner state machine behind `ocep serve`:
//! it speaks OCWP at the frame level, grants Ack credits, bounds every
//! subscriber's verdict queue, journals what it ingests, and
//! assembles the final [`ServeReport`] — all over exactly one
//! [`ShardGroup`], the data plane that owns the durable log and the one
//! matcher set with its admission guard. It performs **no network I/O
//! and reads no real clock** — connections hand it decoded [`Frame`]s tagged with
//! a connection id and a receipt timestamp from a [`NetClock`], and
//! outbound frames leave through per-connection [`OutQueue`]s. The TCP
//! harness in [`crate::server`] drives it from reader threads over
//! [`SystemClock`] time; the deterministic simulator (`ocep-sim`)
//! drives the very same state machine from a virtual-time scheduler
//! over in-memory queues, which is what makes whole-system chaos runs
//! reproducible from a seed.
//!
//! For oracle-based checking the core can journal its ingestion: with
//! [`EngineCore::enable_journal`] every event actually delivered to the
//! set (and every guard flush) is recorded as an [`EngineOp`], the
//! ground truth a replay harness feeds to an in-process reference
//! `MonitorSet` to demand bit-identical verdicts.

use crate::shard::ShardGroup;
use crate::wire::{FaultCode, Frame, Mode, StatsReport, VerdictFrame};
use ocep_core::ingest::IngestFault;
use ocep_core::{Histogram, Match, MetricsSnapshot, MonitorConfig, MonitorSet};
use ocep_wal::Durability;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Serving-loop configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ack-credit window granted to each producer: the number of data
    /// frames it may have in flight before waiting for an Ack.
    pub window: u32,
    /// Bounded per-subscriber outbound queue length. A verdict that
    /// finds its tail's queue full is dropped (the newest one loses)
    /// and counted; the tail can re-read it with `tail --from`.
    pub subscriber_queue: usize,
    /// Pattern source per monitor name, required to checkpoint a
    /// monitor into the log.
    pub pattern_sources: HashMap<String, String>,
    /// Directory for the durable event log; `None` serves non-durably.
    /// When set, every admitted delivery is appended (hash-chained)
    /// before it reaches the set, recovery replays the log on startup,
    /// and producers with named sessions resume at their acknowledged
    /// log offset instead of re-sending. The log is the only state a
    /// restarted daemon reads.
    pub wal_dir: Option<PathBuf>,
    /// Group-commit fsync policy for the event log.
    pub durability: Durability,
    /// Anchor a log checkpoint every this many ingested events (0
    /// disables the periodic trigger; graceful drain always anchors
    /// one). Without `wal_dir` there is no log to anchor in.
    pub checkpoint_every: u64,
    /// Ignored: the engine runs one matcher set. Kept because the
    /// repository benchmark still sets it.
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            window: 64,
            subscriber_queue: 1024,
            pattern_sources: HashMap::new(),
            wal_dir: None,
            durability: Durability::Batch,
            checkpoint_every: 0,
            shards: 0,
        }
    }
}

/// One monitor's retained matches as leaf-wise `(trace, index)`
/// coordinates: outer `Vec` per match, inner per leaf.
pub type MatchCoords = Vec<Vec<(u32, u32)>>;

/// What the serving loop did, returned by [`crate::server::Server::join`].
#[derive(Debug)]
pub struct ServeReport {
    /// Every `(monitor, match)` verdict, in report order.
    pub verdicts: Vec<(String, Match)>,
    /// Final aggregate statistics (also broadcast on shutdown).
    pub stats: StatsReport,
    /// Final ingest statistics from the set-level guard.
    pub ingest: ocep_core::IngestStats,
    /// Combined monitor + network metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Log sequence number of the last durable-log record (0 when the
    /// server ran without a WAL).
    pub wal_last_lsn: u64,
    /// Events replayed from the durable log during startup recovery.
    pub recovered_events: u64,
    /// Final representative subset per monitor: each match as leaf-wise
    /// `(trace, index)` pairs, in subset order. Lets callers compare a
    /// served run against in-process delivery without keeping the set.
    pub subsets: Vec<(String, MatchCoords)>,
    /// Accept→admit latency histogram (nanoseconds): socket-read to
    /// post-`observe_raw` per event. Same samples as the exported
    /// `ocep_net_accept_admit_ns` metric, in queryable form.
    pub latency: Histogram,
}

/// The engine's notion of time: a monotonic nanosecond counter.
///
/// The TCP harness uses [`SystemClock`] (real elapsed time); the
/// deterministic simulator substitutes a virtual clock it advances
/// itself, so latency accounting — and through it, every byte of the
/// final report — is a pure function of the seed.
pub trait NetClock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin; must be monotone.
    fn now_ns(&self) -> u64;
}

/// Wall-clock [`NetClock`]: nanoseconds since the clock was created.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    #[must_use]
    pub fn new() -> Self {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl NetClock for SystemClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// What a subscriber's queue did with one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowAction {
    /// The verdict was queued for delivery.
    Delivered,
    /// The queue was full (or closed): this verdict was discarded.
    DroppedNewest,
}

#[derive(Debug)]
struct OutState {
    queue: VecDeque<Frame>,
    closed: bool,
}

/// A bounded outbound frame queue shared by the engine (producer side)
/// and one consumer — a TCP writer thread, or the simulator draining it
/// in virtual time.
///
/// Control frames (acks, faults, stats) are never dropped; a verdict
/// that finds the queue full is.
#[derive(Debug, Clone)]
pub struct OutQueue {
    inner: Arc<(Mutex<OutState>, Condvar)>,
    cap: usize,
}

impl OutQueue {
    /// A queue holding at most `cap` frames.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        OutQueue {
            inner: Arc::new((
                Mutex::new(OutState {
                    queue: VecDeque::new(),
                    closed: false,
                }),
                Condvar::new(),
            )),
            cap: cap.max(1),
        }
    }

    /// Enqueues a control frame (never dropped; ignored after close).
    pub fn push_control(&self, frame: Frame) {
        let (lock, cv) = &*self.inner;
        let mut st = lock.lock().unwrap();
        if !st.closed {
            st.queue.push_back(frame);
            cv.notify_one();
        }
    }

    /// Enqueues a verdict frame unless the queue is full or closed, in
    /// which case the verdict (the newest one) is dropped; returns which.
    pub fn push_verdict(&self, frame: Frame) -> SlowAction {
        let (lock, cv) = &*self.inner;
        let mut st = lock.lock().unwrap();
        if st.closed || st.queue.len() >= self.cap {
            return SlowAction::DroppedNewest;
        }
        st.queue.push_back(frame);
        cv.notify_one();
        SlowAction::Delivered
    }

    /// Marks the queue closed and wakes any blocked consumer.
    pub fn close(&self) {
        let (lock, cv) = &*self.inner;
        lock.lock().unwrap().closed = true;
        cv.notify_all();
    }

    /// Blocks for the next frame; `None` once closed and drained.
    pub fn pop(&self) -> Option<Frame> {
        let (lock, cv) = &*self.inner;
        let mut st = lock.lock().unwrap();
        loop {
            if let Some(f) = st.queue.pop_front() {
                return Some(f);
            }
            if st.closed {
                return None;
            }
            st = cv.wait(st).unwrap();
        }
    }

    /// Removes and returns the next frame without blocking.
    pub fn try_pop(&self) -> Option<Frame> {
        let (lock, _) = &*self.inner;
        lock.lock().unwrap().queue.pop_front()
    }

    /// Drains every queued frame without blocking (the simulator's
    /// consumer path: one drain models one write burst).
    #[must_use]
    pub fn drain(&self) -> Vec<Frame> {
        let (lock, _) = &*self.inner;
        lock.lock().unwrap().queue.drain(..).collect()
    }

    /// Number of frames currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        let (lock, _) = &*self.inner;
        lock.lock().unwrap().queue.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One entry of the engine's ingestion journal: exactly what the engine
/// fed its `MonitorSet`, in order. Replaying a journal through a fresh
/// set must reproduce the engine's verdicts bit-identically — the
/// oracle contract the simulator enforces every run.
#[derive(Debug, Clone)]
pub enum EngineOp {
    /// One raw event was passed to `observe_raw`.
    Deliver(Box<ocep_poet::Event>),
    /// The guard's reorder buffer was flushed (`Flush` frame or final
    /// shutdown drain).
    Flush,
}

struct Conn {
    name: String,
    peer: String,
    mode: Option<Mode>,
    out: OutQueue,
    frames_in: u64,
    /// Remaining credits the peer holds; engine-side bookkeeping to
    /// detect window violations.
    granted: i64,
    /// Tenant scope for a tail subscriber: when set, only verdicts of
    /// monitors named `{tenant}/...` reach this connection.
    tenant_filter: Option<String>,
}

/// The transport-free serving engine: OCWP frame semantics, credit
/// windows, bounded tail queues and report assembly over one
/// [`ShardGroup`] — with time injected through a [`NetClock`] and all
/// I/O delegated to the caller. See the [module docs](self).
pub struct EngineCore {
    group: ShardGroup,
    config: ServeConfig,
    clock: Arc<dyn NetClock>,
    bytes_out: Arc<AtomicU64>,
    conns: HashMap<u64, Conn>,
    connections_total: u64,
    data_frames: u64,
    frames_in: HashMap<&'static str, u64>,
    frames_out: HashMap<&'static str, u64>,
    bytes_in: u64,
    decode_faults: HashMap<&'static str, u64>,
    slow_actions: HashMap<&'static str, u64>,
    ingest_fault_frames: u64,
    latency: Histogram,
    /// Frame counts of connections that already closed, keyed by the
    /// connection's self-reported name.
    finished_conns: Vec<(String, u64)>,
    journal: Option<Vec<EngineOp>>,
    events_since_checkpoint: u64,
}

/// True when `monitor` is in `filter`'s tenant scope (no filter admits
/// everything; a filter admits exactly the `{tenant}/...` namespace).
fn tenant_matches(filter: Option<&str>, monitor: &str) -> bool {
    filter.is_none_or(|t| {
        monitor
            .strip_prefix(t)
            .is_some_and(|rest| rest.starts_with('/'))
    })
}

fn bindings_of(m: &Match) -> Vec<(u32, u32)> {
    m.events()
        .iter()
        .map(|e| (e.trace().as_u32(), e.index().get()))
        .collect()
}

impl std::fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCore")
            .field("conns", &self.conns.len())
            .field("verdicts", &self.group.history().len())
            .field("data_frames", &self.data_frames)
            .finish_non_exhaustive()
    }
}

impl EngineCore {
    /// An engine over `set`, reading time from `clock` and accounting
    /// outbound bytes into `bytes_out` (shared with whatever performs
    /// the actual writes).
    #[must_use]
    pub fn new(
        set: MonitorSet,
        config: ServeConfig,
        clock: Arc<dyn NetClock>,
        bytes_out: Arc<AtomicU64>,
    ) -> EngineCore {
        let group = ShardGroup::new(set, 0, &config.pattern_sources);
        EngineCore {
            group,
            config,
            clock,
            bytes_out,
            conns: HashMap::new(),
            connections_total: 0,
            data_frames: 0,
            frames_in: HashMap::new(),
            frames_out: HashMap::new(),
            bytes_in: 0,
            decode_faults: HashMap::new(),
            slow_actions: HashMap::new(),
            ingest_fault_frames: 0,
            latency: Histogram::default(),
            finished_conns: Vec::new(),
            journal: None,
            events_since_checkpoint: 0,
        }
    }

    /// The data plane: log, matcher set and verdict history. The
    /// simulator reaches through it to checkpoint the set and to arm
    /// its log sabotage.
    pub fn group(&mut self) -> &mut ShardGroup {
        &mut self.group
    }

    fn conn_name(&self, conn: u64) -> String {
        self.conns
            .get(&conn)
            .map(|c| c.name.clone())
            .unwrap_or_default()
    }

    /// Starts recording every ingested event and guard flush as
    /// [`EngineOp`]s (see [`EngineCore::take_journal`]).
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Takes the ops journaled since [`EngineCore::enable_journal`] (or
    /// the last take); empty when journaling is off.
    pub fn take_journal(&mut self) -> Vec<EngineOp> {
        match &mut self.journal {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    fn journal_op(&mut self, op: EngineOp) {
        if let Some(j) = &mut self.journal {
            j.push(op);
        }
    }

    /// Post-ingest housekeeping: the periodic checkpoint trigger.
    fn after_ingest(&mut self, n: u64) {
        if self.config.checkpoint_every > 0 {
            self.events_since_checkpoint += n;
            if self.events_since_checkpoint >= self.config.checkpoint_every {
                self.events_since_checkpoint = 0;
                self.group.checkpoint();
            }
        }
    }

    /// Opens the configured durable log and rebuilds serving state from
    /// it (see [`ShardGroup::recover`]). Call once, before processing
    /// any frame. No-op (`Ok(false)`) when no `wal_dir` is configured.
    ///
    /// # Errors
    ///
    /// A corrupt or undecodable log, or one in the per-shard layout of
    /// older versions — each diagnosed, never a panic.
    pub fn recover_wal(&mut self) -> Result<bool, String> {
        let Some(dir) = &self.config.wal_dir else {
            return Ok(false);
        };
        self.group.recover(dir, self.config.durability)?;
        Ok(true)
    }

    /// Registers a newly accepted connection with its outbound queue.
    pub fn on_accepted(&mut self, conn: u64, peer: String, out: OutQueue) {
        self.connections_total += 1;
        self.conns.insert(
            conn,
            Conn {
                name: format!("conn-{conn}"),
                peer,
                mode: None,
                out,
                frames_in: 0,
                granted: 0,
                tenant_filter: None,
            },
        );
    }

    /// Accounts for a frame the transport rejected before decode (the
    /// reader already replied with a `Fault`).
    pub fn on_malformed(&mut self, code: FaultCode) {
        *self.decode_faults.entry(code.name()).or_insert(0) += 1;
        *self.frames_out.entry("fault").or_insert(0) += 1;
    }

    /// Unregisters a closed connection and closes its outbound queue.
    pub fn on_closed(&mut self, conn: u64) {
        if let Some(c) = self.conns.remove(&conn) {
            c.out.close();
            self.finished_conns.push((c.name, c.frames_in));
        }
    }

    /// Processes one decoded frame from `conn`, stamped by the caller
    /// with the receipt time (`clock.now_ns()` at read) and its wire
    /// size (length prefix included). Returns true when the frame
    /// requests shutdown — the caller should then invoke
    /// [`EngineCore::finish`].
    pub fn on_frame(&mut self, conn: u64, frame: Frame, received_ns: u64, bytes: u64) -> bool {
        self.bytes_in += bytes;
        *self.frames_in.entry(frame.type_name()).or_insert(0) += 1;
        if let Some(c) = self.conns.get_mut(&conn) {
            c.frames_in += 1;
        }
        self.handle_frame(conn, frame, received_ns)
    }

    fn send_control(&mut self, conn: u64, frame: Frame) {
        // No control frame (ack, stats, resume) may outrun the log: the
        // writer thread can put this frame on the wire immediately, so
        // the records it implicitly acknowledges must already be in the
        // kernel by the time it is queued.
        self.group.flush_os();
        *self.frames_out.entry(frame.type_name()).or_insert(0) += 1;
        if let Some(c) = self.conns.get(&conn) {
            c.out.push_control(frame);
        }
    }

    fn fault(&mut self, conn: u64, code: FaultCode, detail: String) {
        *self.decode_faults.entry(code.name()).or_insert(0) += 1;
        self.send_control(conn, Frame::Fault { code, detail });
    }

    /// Acknowledges a tenant-scoped frame with the live monitor count
    /// in the tenant's namespace.
    fn send_registered(&mut self, conn: u64, tenant: String) {
        let patterns = self
            .group
            .names()
            .filter(|n| tenant_matches(Some(&tenant), n))
            .count() as u32;
        self.send_control(conn, Frame::Registered { tenant, patterns });
    }

    /// Returns true when the frame requests shutdown.
    fn handle_frame(&mut self, conn: u64, frame: Frame, received_ns: u64) -> bool {
        let mode = self.conns.get(&conn).and_then(|c| c.mode);
        match frame {
            Frame::Hello {
                mode: hello_mode,
                n_traces,
                name,
            } => {
                if mode.is_some() {
                    self.fault(conn, FaultCode::Protocol, "duplicate hello".into());
                    return false;
                }
                if hello_mode == Mode::Producer && n_traces as usize != self.group.n_traces() {
                    self.fault(
                        conn,
                        FaultCode::Protocol,
                        format!(
                            "producer announces {n_traces} trace(s), server monitors {}",
                            self.group.n_traces()
                        ),
                    );
                    return false;
                }
                let window = self.config.window;
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.mode = Some(hello_mode);
                    if !name.is_empty() {
                        c.name = name;
                    }
                    c.granted = i64::from(window);
                }
                // Durable serving: tell the producer how much of its
                // named session already survived in the log, *before*
                // the credit grant, so it never re-sends that prefix.
                if hello_mode == Mode::Producer && self.group.has_wal() {
                    let durable = self.group.durable(&self.conn_name(conn));
                    self.send_control(conn, Frame::Resume { durable });
                }
                self.send_control(conn, Frame::Ack { credits: window });
            }
            Frame::Event(_) | Frame::EventBatch(_) | Frame::Flush
                if mode != Some(Mode::Producer) =>
            {
                self.fault(
                    conn,
                    FaultCode::Protocol,
                    format!("{} frame before producer hello", frame.type_name()),
                );
            }
            Frame::Event(e) => {
                self.data_frame_start(conn);
                self.ingest(vec![*e], conn, received_ns);
                self.ack_data(conn);
            }
            Frame::EventBatch(events) => {
                self.data_frame_start(conn);
                self.ingest(events, conn, received_ns);
                self.ack_data(conn);
            }
            Frame::Flush => {
                self.data_frame_start(conn);
                self.journal_op(EngineOp::Flush);
                let out = self.group.flush();
                self.publish(&out.verdicts);
                self.relay_faults(conn, out.faults);
                self.ack_data(conn);
            }
            Frame::CheckpointReq => {
                self.group.checkpoint();
                let report = self.stats_report();
                self.send_control(conn, Frame::StatsReport(report));
            }
            Frame::TailFrom { from } => {
                if mode != Some(Mode::Tail) {
                    self.fault(
                        conn,
                        FaultCode::Protocol,
                        "tail_from frame before tail hello".into(),
                    );
                    return false;
                }
                // Replay the retained verdict backlog at LSNs >= from
                // as control frames (never dropped — the subscriber
                // asked for exactly this history), then the live
                // verdict stream continues as usual. A tenant-scoped
                // tail only sees its own namespace.
                let filter = self.conns.get(&conn).and_then(|c| c.tenant_filter.clone());
                let backlog: Vec<Frame> = self
                    .group
                    .history()
                    .iter()
                    .filter(|(lsn, name, _)| {
                        *lsn >= from && tenant_matches(filter.as_deref(), name)
                    })
                    .map(|(lsn, name, m)| Frame::VerdictAt {
                        lsn: *lsn,
                        verdict: VerdictFrame {
                            monitor: name.clone(),
                            bindings: bindings_of(m),
                        },
                    })
                    .collect();
                for f in backlog {
                    self.send_control(conn, f);
                }
            }
            Frame::StatsReq => {
                let report = self.stats_report();
                self.send_control(conn, Frame::StatsReport(report));
            }
            Frame::Shutdown => return true,
            Frame::Register { tenant, patterns } => {
                if mode.is_none() {
                    self.fault(
                        conn,
                        FaultCode::Protocol,
                        "register frame before hello".into(),
                    );
                    return false;
                }
                for (pname, source) in patterns {
                    let full = format!("{tenant}/{pname}");
                    if self.group.is_live(&full) {
                        self.fault(
                            conn,
                            FaultCode::Protocol,
                            format!("pattern {full} is already registered"),
                        );
                    } else if let Err(e) =
                        self.group
                            .register(&full, &source, MonitorConfig::default())
                    {
                        self.fault(conn, FaultCode::Protocol, format!("pattern {full}: {e}"));
                    }
                }
                self.send_registered(conn, tenant);
            }
            Frame::Unregister { tenant, patterns } => {
                if mode.is_none() {
                    self.fault(
                        conn,
                        FaultCode::Protocol,
                        "unregister frame before hello".into(),
                    );
                    return false;
                }
                for pname in patterns {
                    let full = format!("{tenant}/{pname}");
                    if !self.group.unregister(&full) {
                        self.fault(
                            conn,
                            FaultCode::Protocol,
                            format!("pattern {full} is not registered"),
                        );
                    }
                }
                self.send_registered(conn, tenant);
            }
            Frame::TailTenant { tenant } => {
                if mode != Some(Mode::Tail) {
                    self.fault(
                        conn,
                        FaultCode::Protocol,
                        "tail_tenant frame before tail hello".into(),
                    );
                    return false;
                }
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.tenant_filter = Some(tenant.clone());
                }
                self.send_registered(conn, tenant);
            }
            // Client-to-server frames that make no sense here.
            Frame::Ack { .. }
            | Frame::Fault { .. }
            | Frame::StatsReport(_)
            | Frame::Verdict(_)
            | Frame::Resume { .. }
            | Frame::VerdictAt { .. }
            | Frame::Registered { .. } => {
                self.fault(
                    conn,
                    FaultCode::Protocol,
                    format!("unexpected {} frame from client", frame.type_name()),
                );
            }
        }
        false
    }

    fn data_frame_start(&mut self, conn: u64) {
        self.data_frames += 1;
        let violated = match self.conns.get_mut(&conn) {
            Some(c) => {
                c.granted -= 1;
                c.granted < 0
            }
            None => false,
        };
        if violated {
            self.fault(
                conn,
                FaultCode::Protocol,
                "credit window violated (data frame without credit)".into(),
            );
        }
    }

    fn ack_data(&mut self, conn: u64) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.granted += 1;
        }
        self.send_control(conn, Frame::Ack { credits: 1 });
    }

    /// Ingests one data frame's events: one [`EngineOp::Deliver`] is
    /// journaled per raw event, and the whole frame goes through
    /// [`ShardGroup::deliver_batch`] — bit-identical to delivering it
    /// event by event, with one latency sample per event either way.
    fn ingest(&mut self, events: Vec<ocep_poet::Event>, conn: u64, received_ns: u64) {
        for e in &events {
            self.journal_op(EngineOp::Deliver(Box::new(e.clone())));
        }
        let n = events.len() as u64;
        let out = self.group.deliver_batch(&self.conn_name(conn), events);
        let elapsed = self.clock.now_ns().saturating_sub(received_ns);
        for _ in 0..n {
            self.latency.record(elapsed);
        }
        self.publish(&out.verdicts);
        self.relay_faults(conn, out.faults);
        self.after_ingest(n);
    }

    /// Relays guard quarantines back to the offending producer as
    /// `Fault` frames — the wire-level visibility of `IngestFault`s.
    fn relay_faults(&mut self, conn: u64, faults: Vec<IngestFault>) {
        for f in faults {
            self.ingest_fault_frames += 1;
            self.send_control(
                conn,
                Frame::Fault {
                    code: FaultCode::Ingest,
                    detail: f.to_string(),
                },
            );
        }
    }

    /// Streams fresh verdicts to every tail subscriber in scope.
    fn publish(&mut self, verdicts: &[(String, Match)]) {
        if !verdicts.is_empty() {
            // A verdict visible to a tail implies its deliveries are
            // recoverable: flush so a SIGKILL after the broadcast still
            // replays to the same conclusion.
            self.group.flush_os();
        }
        for (name, m) in verdicts {
            let frame = Frame::Verdict(VerdictFrame {
                monitor: name.clone(),
                bindings: bindings_of(m),
            });
            for c in self.conns.values() {
                if c.mode != Some(Mode::Tail) || !tenant_matches(c.tenant_filter.as_deref(), name) {
                    continue;
                }
                let counter = match c.out.push_verdict(frame.clone()) {
                    SlowAction::Delivered => self.frames_out.entry("verdict"),
                    SlowAction::DroppedNewest => self.slow_actions.entry("dropped_newest"),
                };
                *counter.or_insert(0) += 1;
            }
        }
    }

    /// The engine's current aggregate statistics (what `StatsReq` and
    /// the shutdown broadcast report).
    #[must_use]
    pub fn stats_report(&self) -> StatsReport {
        let g = self.group.ingest_stats();
        StatsReport {
            admitted: g.admitted,
            quarantined: g.quarantined(),
            duplicates: g.duplicates_dropped,
            degraded: g.is_degraded(),
            matches: self.group.history().len() as u64,
            connections: self.connections_total.min(u64::from(u32::MAX)) as u32,
            frames: self.data_frames,
        }
    }

    /// Drains the guard, anchors a log checkpoint, broadcasts final
    /// stats to every open connection, closes their queues, and
    /// assembles the final report. The caller owns transport teardown (stopping
    /// acceptors, unblocking sockets).
    pub fn finish(&mut self) -> ServeReport {
        // Graceful drain: deliver everything the guard still buffers.
        self.journal_op(EngineOp::Flush);
        let out = self.group.flush();
        self.publish(&out.verdicts);
        self.group.checkpoint();
        let stats = self.stats_report();
        for (_, c) in self.conns.drain() {
            *self.frames_out.entry("stats_report").or_insert(0) += 1;
            c.out.push_control(Frame::StatsReport(stats));
            c.out.close();
            self.finished_conns.push((c.name, c.frames_in));
        }
        ServeReport {
            verdicts: self
                .group
                .history()
                .iter()
                .map(|(_, name, m)| (name.clone(), m.clone()))
                .collect(),
            stats,
            ingest: self.group.ingest_stats(),
            metrics: self.metrics(),
            wal_last_lsn: self.group.last_lsn(),
            recovered_events: self.group.recovered_events(),
            subsets: self
                .group
                .live_monitors()
                .map(|(name, m)| {
                    (
                        name.to_owned(),
                        m.subset().iter().map(|mm| bindings_of(mm)).collect(),
                    )
                })
                .collect(),
            latency: std::mem::take(&mut self.latency),
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        let mut s = self.group.metrics();
        s.counter(
            "ocep_net_connections_total",
            "Connections accepted over the server lifetime.",
            self.connections_total,
        );
        s.gauge(
            "ocep_net_open_connections",
            "Connections currently open.",
            self.conns.len() as u64,
        );
        let mut in_types: Vec<_> = self.frames_in.iter().collect();
        in_types.sort();
        for (ty, n) in in_types {
            s.counter_with(
                "ocep_net_frames_total",
                "Frames processed, by direction and type.",
                &[("dir", "in"), ("type", ty)],
                *n,
            );
        }
        let mut out_types: Vec<_> = self.frames_out.iter().collect();
        out_types.sort();
        for (ty, n) in out_types {
            s.counter_with(
                "ocep_net_frames_total",
                "Frames processed, by direction and type.",
                &[("dir", "out"), ("type", ty)],
                *n,
            );
        }
        s.counter_with(
            "ocep_net_bytes_total",
            "Wire bytes, by direction (length prefixes included).",
            &[("dir", "in")],
            self.bytes_in,
        );
        s.counter_with(
            "ocep_net_bytes_total",
            "Wire bytes, by direction (length prefixes included).",
            &[("dir", "out")],
            self.bytes_out.load(Ordering::Relaxed),
        );
        let mut faults: Vec<_> = self.decode_faults.iter().collect();
        faults.sort();
        for (kind, n) in faults {
            s.counter_with(
                "ocep_net_decode_faults_total",
                "Frames rejected before admission, by kind.",
                &[("kind", kind)],
                *n,
            );
        }
        s.counter(
            "ocep_net_ingest_fault_frames_total",
            "Guard quarantines relayed to producers as Fault frames.",
            self.ingest_fault_frames,
        );
        if self.config.wal_dir.is_some() {
            s.gauge(
                "ocep_wal_last_lsn",
                "Log sequence number of the newest durable-log record.",
                self.group.last_lsn(),
            );
            s.counter(
                "ocep_wal_recovered_events_total",
                "Events replayed from the durable log at startup.",
                self.group.recovered_events(),
            );
            s.counter(
                "ocep_wal_append_errors_total",
                "Durable-log append failures (the log degrades to off).",
                self.group.wal_append_errors(),
            );
        }
        let mut slow: Vec<_> = self.slow_actions.iter().collect();
        slow.sort();
        for (action, n) in slow {
            s.counter_with(
                "ocep_net_slow_client_total",
                "Verdicts a full tail queue dropped, by action.",
                &[("action", action)],
                *n,
            );
        }
        if !self.latency.is_empty() {
            s.histogram(
                "ocep_net_accept_admit_ns",
                "Nanoseconds from frame receipt to event admission.",
                &self.latency,
            );
        }
        for (id, c) in &self.conns {
            let label = format!("{}#{id}", c.name);
            s.counter_with(
                "ocep_net_conn_frames_total",
                "Frames received per connection.",
                &[("conn", label.as_str()), ("peer", c.peer.as_str())],
                c.frames_in,
            );
        }
        for (name, n) in &self.finished_conns {
            s.counter_with(
                "ocep_net_conn_frames_total",
                "Frames received per connection.",
                &[("conn", name.as_str()), ("peer", "closed")],
                *n,
            );
        }
        s
    }
}
