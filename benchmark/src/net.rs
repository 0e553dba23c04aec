//! Loopback serving passes: one producer connection and one tail
//! connection against `ocep_net::Server::bind("127.0.0.1:0", ..)`.
//!
//! Everything here crosses the host's loopback interface and, for the
//! durable workload, the local disk — no real link is involved, and the
//! figures say nothing about one.
//!
//! Two producers exist on purpose. Closed-loop throughput uses the
//! product's own [`ocep_net::Client`], because that is what a user of
//! the system runs. The open-loop phase and the traced pass need what
//! `Client` hides — when each `Ack` arrived, how long the sender sat
//! without credit — so [`produce`] speaks OCWP through the public
//! `wire` functions with acks read on a second thread.

use crate::check::{Bindings, MONITOR};
use crate::gen::{Input, Workload};
use crate::sched::{Pacer, Poll};
use ocep_core::ingest::GuardConfig;
use ocep_core::MonitorSet;
use ocep_net::wire::{read_frame, write_frame, write_frame_delta};
use ocep_net::{Client, Frame, Mode, ServeConfig, ServeReport, Server, Tail};
use ocep_pattern::Pattern;
use ocep_poet::Event;
use ocep_wal::Durability;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Producer session name (also the durable-log session key).
const SESSION: &str = "bench";

/// How close to a frame's due time the open-loop sender stops
/// sleeping and starts spinning.
const SPIN_NS: u64 = 150_000;

/// A frame still unacknowledged this long after the last one was sent
/// is counted as failed rather than waited for.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);

fn wire_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Binds a fresh loopback server for `workload`: a default
/// `ServeConfig` with one guarded monitor, or — for the tenant
/// workload — two shards with a batch-durability log under `wal_dir`
/// and no monitors yet (tenants register over OCWP).
pub fn bind(workload: Workload, input: &Input, wal_dir: Option<&Path>) -> Result<Server, String> {
    let mut set = MonitorSet::new(input.n_traces);
    let mut config = ServeConfig::default();
    if workload.tenants() == 0 {
        let pattern = Pattern::parse(&input.pattern_src).map_err(|e| wire_err("pattern", e))?;
        set.add(MONITOR, pattern);
    } else {
        config.shards = 2;
        config.wal_dir = wal_dir.map(Path::to_path_buf);
        config.durability = Durability::Batch;
    }
    set.enable_guard(GuardConfig::default());
    Server::bind("127.0.0.1:0", set, config).map_err(|e| wire_err("loopback bind", e))
}

/// Registers the workload's pattern once per tenant (`t{j}/deadlock`).
pub fn register_tenants(
    client: &mut Client,
    workload: Workload,
    input: &Input,
) -> Result<(), String> {
    for j in 0..workload.tenants() {
        let patterns = [("deadlock".to_owned(), input.pattern_src.clone())];
        let live = client
            .register(&format!("t{j}"), &patterns)
            .map_err(|e| wire_err("register", e))?;
        if live != 1 {
            return Err(format!(
                "tenant t{j} has {live} live patterns after registering one"
            ));
        }
    }
    let faults = client.take_faults();
    if !faults.is_empty() {
        return Err(format!("registration faulted: {faults:?}"));
    }
    Ok(())
}

/// A verdict subscription drained on its own thread. Each `Verdict`
/// frame is stamped on arrival; the thread ends with the server's
/// final report (or the socket closing).
pub struct TailThread {
    handle: JoinHandle<Vec<(u64, Bindings)>>,
}

impl TailThread {
    pub fn connect(addr: &str, origin: Instant) -> Result<TailThread, String> {
        let mut tail = Tail::connect(addr, "bench-tail").map_err(|e| wire_err("tail", e))?;
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            loop {
                match tail.next() {
                    Ok(Frame::Verdict(v)) => {
                        seen.push((origin.elapsed().as_nanos() as u64, v.bindings));
                    }
                    Ok(Frame::StatsReport(_)) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            seen
        });
        Ok(TailThread { handle })
    }

    /// `(arrival ns since origin, bindings)` per verdict received.
    pub fn join(self) -> Vec<(u64, Bindings)> {
        self.handle.join().expect("tail thread panicked")
    }
}

/// One closed-loop pass through the product's own client.
pub struct ClosedPass {
    /// First data frame written → final report read (everything acked
    /// and drained).
    pub secs: f64,
    pub report: ServeReport,
    pub tail_verdicts: usize,
}

/// Streams every frame through [`Client::send_batch`] under the default
/// credit window, then drains the server with the shutdown handshake.
/// `before_shutdown` runs after the last frame is acknowledged and
/// logged (a stats round trip) and before the drain.
pub fn closed_pass(
    workload: Workload,
    input: &Input,
    wal_dir: Option<&Path>,
    before_shutdown: impl FnOnce(),
) -> Result<ClosedPass, String> {
    let server = bind(workload, input, wal_dir)?;
    let addr = server.addr().to_string();
    let run = || -> Result<(f64, usize), String> {
        let tail = TailThread::connect(&addr, Instant::now())?;
        let mut client =
            Client::connect(&addr, input.n_traces, SESSION).map_err(|e| wire_err("connect", e))?;
        register_tenants(&mut client, workload, input)?;
        let start = Instant::now();
        for frame in &input.frames {
            client.send_batch(frame).map_err(|e| wire_err("send", e))?;
        }
        // The stats reply is queued behind every ack, and no control
        // frame leaves the engine before the log reaches the kernel.
        client.stats().map_err(|e| wire_err("stats", e))?;
        let paused = Instant::now();
        before_shutdown();
        let paused = paused.elapsed();
        let faults = client.take_faults();
        client.shutdown().map_err(|e| wire_err("shutdown", e))?;
        let secs = (start.elapsed() - paused).as_secs_f64();
        if !faults.is_empty() {
            return Err(format!("server faulted the producer: {faults:?}"));
        }
        Ok((secs, tail.join().len()))
    };
    match run() {
        Ok((secs, tail_verdicts)) => Ok(ClosedPass {
            secs,
            report: server.join(),
            tail_verdicts,
        }),
        Err(e) => {
            // Don't leak the serving threads on a failed stream.
            server.handle().shutdown();
            let _ = server.join();
            Err(e)
        }
    }
}

/// One [`produce`] pass: what the client measured on its side of the
/// socket, the server's final report, and what the tail received.
pub struct Produced {
    pub sent: Streamed,
    pub report: ServeReport,
    pub tail: Vec<(u64, Bindings)>,
}

/// When [`produce`] sends the next frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// As fast as the credit window allows: a closed loop of `window`
    /// frames in flight, what [`ocep_net::Client`] does.
    Credit,
    /// One frame in flight: the next is written when the previous
    /// one's `Ack` has been read. Its latency (write → `Ack`) is what a
    /// frame costs with nothing queued in front of it.
    OneAtATime,
    /// Open loop at this many events per second: frames fall due on a
    /// fixed grid whether or not the server keeps up, and latency runs
    /// from the due time.
    Fixed(f64),
}

/// Streams `frames` at `pace` and stamps every `Ack` on a reader thread
/// the moment it arrives.
pub fn produce(
    workload: Workload,
    input: &Input,
    frames: &[Vec<Event>],
    wal_dir: Option<&Path>,
    pace: Pace,
) -> Result<Produced, String> {
    let server = bind(workload, input, wal_dir)?;
    let addr = server.addr().to_string();
    let origin = Instant::now();
    let run = || -> Result<_, String> {
        let tail = TailThread::connect(&addr, origin)?;
        if workload.tenants() > 0 {
            let mut registrar = Client::connect(&addr, input.n_traces, "bench-register")
                .map_err(|e| wire_err("connect", e))?;
            register_tenants(&mut registrar, workload, input)?;
        }
        let out = stream_frames(
            &addr,
            input.n_traces,
            frames,
            workload.frame_events(),
            pace,
            origin,
        )?;
        Ok((out, tail.join()))
    };
    match run() {
        Ok((sent, tail)) => Ok(Produced {
            sent,
            report: server.join(),
            tail,
        }),
        Err(e) => {
            server.handle().shutdown();
            let _ = server.join();
            Err(e)
        }
    }
}

/// What the producer side of a [`produce`] pass measured. All times are
/// nanoseconds since the pass's origin.
pub struct Streamed {
    /// When each frame's latency clock started: its due time under
    /// [`Pace::Fixed`], the start of its write under
    /// [`Pace::OneAtATime`].
    pub due_ns: Vec<u64>,
    /// Arrival time of the `Ack` for frame `i`; shorter than `due_ns`
    /// when frames were left unacknowledged.
    pub ack_ns: Vec<u64>,
    /// When each frame's write began and ended (client-side spans).
    pub send_spans: Vec<(u64, u64)>,
    /// Time the sender sat with a frame due and no credit.
    pub credit_wait_ns: u64,
    pub late_max_ns: u64,
    pub backlog_frames_end: usize,
    /// Schedule start → final report read, seconds.
    pub secs: f64,
    /// `Fault` frames the server sent this producer.
    pub faults: usize,
}

fn stream_frames(
    addr: &str,
    n_traces: usize,
    frames: &[Vec<Event>],
    frame_events: usize,
    pace: Pace,
    origin: Instant,
) -> Result<Streamed, String> {
    let stream = TcpStream::connect(addr).map_err(|e| wire_err("connect", e))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(DRAIN_DEADLINE + Duration::from_secs(10)));
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| wire_err("clone", e))?);
    let mut writer = BufWriter::new(stream);
    write_frame(
        &mut writer,
        &Frame::Hello {
            mode: Mode::Producer,
            n_traces: n_traces as u32,
            name: SESSION.to_owned(),
        },
    )
    .map_err(|e| wire_err("hello", e))?;
    writer.flush().map_err(|e| wire_err("hello", e))?;
    // Handshake: an optional `Resume` (durable servers), then the
    // window grant.
    let window = loop {
        match read_frame(&mut reader).map_err(|e| wire_err("handshake", e))? {
            Frame::Resume { durable: 0 } => {}
            Frame::Ack { credits } => break credits,
            other => return Err(format!("unexpected {} in handshake", other.type_name())),
        }
    };

    let credits = Arc::new(AtomicU32::new(window));
    let acked = Arc::new(AtomicUsize::new(0));
    let sender = std::thread::current();
    let acks = {
        let (credits, acked) = (Arc::clone(&credits), Arc::clone(&acked));
        let capacity = frames.len();
        std::thread::spawn(move || {
            let mut ack_ns = Vec::with_capacity(capacity);
            let mut faults = 0usize;
            loop {
                match read_frame(&mut reader) {
                    Ok(Frame::Ack { credits: n }) => {
                        // One credit comes back per processed data
                        // frame, in order: the k-th credit after the
                        // handshake acknowledges frame k.
                        let now = origin.elapsed().as_nanos() as u64;
                        for _ in 0..n {
                            ack_ns.push(now);
                        }
                        acked.fetch_add(n as usize, Ordering::Release);
                        credits.fetch_add(n, Ordering::Release);
                        sender.unpark();
                    }
                    Ok(Frame::Fault { .. }) => faults += 1,
                    Ok(Frame::StatsReport(_)) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            sender.unpark();
            (ack_ns, faults)
        })
    };

    let start_ns = origin.elapsed().as_nanos() as u64;
    let now = || origin.elapsed().as_nanos() as u64 - start_ns;
    // Without a fixed rate every frame is "due" at once and the credit
    // window (or the previous ack) is what holds the sender back.
    let rate = match pace {
        Pace::Fixed(rate) => rate,
        Pace::Credit | Pace::OneAtATime => f64::INFINITY,
    };
    let mut pacer = Pacer::new(rate, frame_events, frames.len());
    let mut due_ns = Vec::with_capacity(frames.len());
    let mut send_spans = Vec::with_capacity(frames.len());
    let mut credit_wait_ns = 0u64;
    let mut io: Result<(), String> = Ok(());
    'send: loop {
        match pacer.poll(now()) {
            Poll::Done => break,
            // Sleep to within [`SPIN_NS`] of the due time, then spin. A
            // timer wake-up in a guest lands 50–150 µs late and would be
            // charged to every frame's latency; spinning the whole gap
            // would take a core from the server being measured.
            Poll::Wait(ns) if ns > SPIN_NS => {
                std::thread::sleep(Duration::from_nanos(ns - SPIN_NS))
            }
            Poll::Wait(_) => std::hint::spin_loop(),
            Poll::Due { idx, due_ns: due } => {
                let mut due = due;
                if pace == Pace::OneAtATime {
                    let blocked = Instant::now();
                    while acked.load(Ordering::Acquire) < idx {
                        if acks.is_finished() || blocked.elapsed() > DRAIN_DEADLINE {
                            io = Err("server stopped acknowledging frames".into());
                            break 'send;
                        }
                        std::thread::park_timeout(Duration::from_millis(5));
                    }
                    due = now();
                }
                if credits.load(Ordering::Acquire) == 0 {
                    let blocked = Instant::now();
                    while credits.load(Ordering::Acquire) == 0 {
                        if acks.is_finished() || blocked.elapsed() > DRAIN_DEADLINE {
                            io = Err("server stopped granting credit".into());
                            break 'send;
                        }
                        std::thread::park_timeout(Duration::from_millis(5));
                    }
                    credit_wait_ns += blocked.elapsed().as_nanos() as u64;
                }
                credits.fetch_sub(1, Ordering::AcqRel);
                let t0 = now();
                let sent = write_frame_delta(&mut writer, &Frame::EventBatch(frames[idx].clone()))
                    .map_err(|e| wire_err("send", e))
                    .and_then(|_| writer.flush().map_err(|e| wire_err("send", e)));
                if let Err(e) = sent {
                    io = Err(e);
                    break 'send;
                }
                send_spans.push((start_ns + t0, start_ns + now()));
                due_ns.push(start_ns + due);
            }
        }
    }
    // Drain: every sent frame acknowledged, or the deadline.
    let drain = Instant::now();
    while io.is_ok()
        && acked.load(Ordering::Acquire) < due_ns.len()
        && !acks.is_finished()
        && drain.elapsed() < DRAIN_DEADLINE
    {
        std::thread::park_timeout(Duration::from_millis(5));
    }
    let shutdown = write_frame(&mut writer, &Frame::Shutdown)
        .map_err(|e| wire_err("shutdown", e))
        .and_then(|_| writer.flush().map_err(|e| wire_err("shutdown", e)));
    let (ack_ns, faults) = acks.join().expect("ack reader panicked");
    let secs = (origin.elapsed().as_nanos() as u64 - start_ns) as f64 / 1e9;
    io?;
    shutdown?;
    Ok(Streamed {
        due_ns,
        ack_ns,
        send_spans,
        credit_wait_ns,
        late_max_ns: pacer.late_max_ns(),
        backlog_frames_end: pacer.backlog_at_end(),
        secs,
        faults,
    })
}

/// Single-event frames through [`Client::send_event`] for up to
/// `budget`: the protocol's per-frame floor (one syscall and one credit
/// round trip per event). Returns events per second.
pub fn batch1_probe(
    workload: Workload,
    input: &Input,
    wal_dir: Option<&Path>,
    budget: Duration,
) -> Result<f64, String> {
    let server = bind(workload, input, wal_dir)?;
    let addr = server.addr().to_string();
    let run = || -> Result<f64, String> {
        let mut client =
            Client::connect(&addr, input.n_traces, SESSION).map_err(|e| wire_err("connect", e))?;
        register_tenants(&mut client, workload, input)?;
        let start = Instant::now();
        let mut sent = 0usize;
        for e in &input.clean {
            if start.elapsed() >= budget {
                break;
            }
            client.send_event(e).map_err(|e| wire_err("send", e))?;
            sent += 1;
        }
        client.stats().map_err(|e| wire_err("stats", e))?;
        let secs = start.elapsed().as_secs_f64();
        client.shutdown().map_err(|e| wire_err("shutdown", e))?;
        Ok(sent as f64 / secs.max(1e-9))
    };
    let rate = run();
    if rate.is_err() {
        server.handle().shutdown();
    }
    let _ = server.join();
    rate
}

/// Restart on `wal_dir` (a crash image: no checkpoint record, so the
/// whole log is replayed): time from `Server::bind` to the producer's
/// handshake `Ack`, the point at which the server serves again.
pub struct Recovered {
    pub secs: f64,
    pub resume_from: u64,
    pub report: ServeReport,
}

pub fn recover(workload: Workload, input: &Input, wal_dir: &Path) -> Result<Recovered, String> {
    let start = Instant::now();
    let server = bind(workload, input, Some(wal_dir))?;
    let addr = server.addr().to_string();
    let client = Client::connect(&addr, input.n_traces, SESSION);
    let secs = start.elapsed().as_secs_f64();
    let outcome = client.map_err(|e| wire_err("reconnect", e)).and_then(|c| {
        let resume_from = c.resume_from();
        c.shutdown().map_err(|e| wire_err("shutdown", e))?;
        Ok(resume_from)
    });
    if outcome.is_err() {
        server.handle().shutdown();
    }
    let report = server.join();
    Ok(Recovered {
        secs,
        resume_from: outcome?,
        report,
    })
}

/// Scratch directories under `benchmark/.work/`, inside the checkout
/// and ignored by git; removed on drop, which also runs when a pass
/// fails or panics.
pub struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    pub fn new() -> std::io::Result<WorkDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        // `run.sh` runs from the repository root; `cargo test` runs
        // from the package directory.
        let base = if Path::new("benchmark/Cargo.toml").exists() {
            "benchmark/.work"
        } else {
            ".work"
        };
        let root = Path::new(base).join(format!(
            "run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root, next: 0 })
    }

    /// A fresh, empty directory.
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        let dir = self.root.join(format!("{tag}-{}", self.next));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }

    pub fn remove(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Runs one pass with a fresh WAL directory of its own (`None` for a
    /// workload that serves without a log) and removes it afterwards.
    pub fn with_wal<T>(&mut self, durable: bool, pass: impl FnOnce(Option<&Path>) -> T) -> T {
        let dir = durable.then(|| self.fresh("wal"));
        let out = pass(dir.as_deref());
        if let Some(dir) = &dir {
            self.remove(dir);
        }
        out
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves `.work` itself only while another run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Copies a directory tree (the WAL root with its `wal-shard-{i}`
/// subdirectories). Returns the bytes copied.
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<u64> {
    std::fs::create_dir_all(to)?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            bytes += copy_tree(&entry.path(), &target)?;
        } else {
            bytes += std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(bytes)
}
