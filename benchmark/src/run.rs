//! The untraced run: the end-to-end metrics of one workload.
//!
//! Tracing is off here — no spans, no per-stage timers, no counters
//! read — so these are the numbers a user of the system would see. The
//! traced run (`staged.rs`) explains them layer by layer.

use crate::check::{self, MONITOR};
use crate::gen::{self, Input, Size, Workload};
use crate::net::{self, WorkDir};
use crate::stats::{median, nearest_rank, sorted, tail_percentile};
use ocep_conformance::Fingerprint;
use ocep_core::{Monitor, MonitorSet};
use ocep_net::Client;
use ocep_pattern::Pattern;
use std::time::{Duration, Instant};

/// A frame acknowledged later than this counts as failed. The limit is
/// there to catch a growing backlog, which reaches seconds, and sits far
/// above any latency the system itself produces (p99 under 10 ms
/// everywhere on the seed commit): the shared host alone stalls the
/// guest for 50–100 ms now and then, and for over 200 ms three times in
/// fifty runs of its slow spells.
pub const LATENCY_LIMIT: Duration = Duration::from_secs(1);

/// The end-to-end result of one workload.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    /// Set-ups behind `setup_s`.
    pub setup_samples: usize,
    pub events_per_s: f64,
    /// High-water mark of the process's resident set when the run ends.
    pub peak_rss_mb: f64,
    pub latency_us_p50: f64,
    /// `None` with fewer than ten samples beyond it.
    pub latency_us_p99: Option<f64>,
    /// Events offered across every timed phase.
    pub attempted: u64,
    /// Events not admitted, acknowledged past the latency limit, or —
    /// on any fingerprint mismatch — all of them.
    pub failed: u64,
    pub correct: bool,
    /// Samples behind the two latency percentiles, pooled over passes.
    pub latency_samples: usize,
    /// Throughput passes run (closed-loop ones on served workloads).
    pub passes: usize,
    /// Passes that contributed latency samples.
    pub latency_passes: usize,
    /// Worst latency sample of the run, microseconds.
    pub latency_us_max: f64,
    pub note: String,
}

/// Generates the workload's input and does everything else that comes
/// before the first timed phase — pattern compile, and for served
/// workloads bind, connect and tenant registration — returning the
/// input and how long all of it took.
pub fn set_up(
    workload: Workload,
    seed: u64,
    size: Size,
    work: &mut WorkDir,
) -> Result<(Input, f64), String> {
    let start = Instant::now();
    let input = gen::generate(workload, seed, size);
    let pattern = Pattern::parse(&input.pattern_src).map_err(|e| format!("pattern: {e}"))?;
    if !workload.is_served() {
        std::hint::black_box(Monitor::new(pattern, input.n_traces));
        return Ok((input, start.elapsed().as_secs_f64()));
    }
    let secs = work.with_wal(workload.tenants() > 0, |wal| {
        let server = net::bind(workload, &input, wal)?;
        let addr = server.addr().to_string();
        let ready = Client::connect(&addr, input.n_traces, "bench-setup")
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut c| net::register_tenants(&mut c, workload, &input).map(|()| c));
        let secs = start.elapsed().as_secs_f64();
        let stopped = match ready {
            Ok(client) => client
                .shutdown()
                .map(drop)
                .map_err(|e| format!("shutdown: {e}")),
            Err(e) => {
                server.handle().shutdown();
                Err(e)
            }
        };
        let _ = server.join();
        stopped.map(|()| secs)
    })?;
    Ok((input, secs))
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// The set-up repeated over a run. One set-up takes 8–250 ms, too short
/// to stand for itself, and the host's speed moves in spells longer
/// than that: the first is timed before measuring starts and the rest
/// fall due at even intervals of the measuring time, between passes,
/// so the median samples the same stretch of the host's moods as the
/// passes do.
struct SetUps {
    workload: Workload,
    seed: u64,
    size: Size,
    /// Measuring time between two set-ups, seconds.
    every: f64,
    times: Vec<f64>,
}

impl SetUps {
    /// Called before every pass with the measuring time elapsed so
    /// far: sets up once more if the next repetition has fallen due.
    fn before_pass(&mut self, elapsed: Duration, work: &mut WorkDir) -> Result<(), String> {
        let due = self.times.len() as f64 * self.every;
        if self.size == Size::Full
            && self.times.len() < SETUP_REPEATS
            && elapsed.as_secs_f64() >= due
        {
            let (_, secs) = set_up(self.workload, self.seed, self.size, work)?;
            self.times.push(secs);
        }
        Ok(())
    }
}

/// One in-process pass: a fresh matcher, every event observed once.
pub struct InprocPass {
    /// Whole pass (for a recording: parse included).
    pub secs: f64,
    pub events: usize,
    /// Wall time of `observe` for each arrival that started a search —
    /// the paper's per-terminating-event cost — in microseconds.
    pub arrival_us: Vec<f64>,
    pub verdicts: Vec<Vec<(u32, u32)>>,
    pub subset: Vec<Vec<(u32, u32)>>,
}

pub fn inproc_pass(workload: Workload, input: &Input) -> Result<InprocPass, String> {
    let pattern = Pattern::parse(&input.pattern_src).map_err(|e| format!("pattern: {e}"))?;
    let mut arrival_us = Vec::with_capacity(16 * 1024);
    let mut verdicts = Vec::new();
    let start = Instant::now();
    let (events, subset) = if workload == Workload::IngestOtlpOffline {
        // The `ocep ingest otlp --pattern` offline path: the adapter
        // runs inside the timed region, then the set observes.
        let text = input.text.as_deref().expect("recording text");
        let out = ocep_adapters::by_name("otlp")
            .expect("otlp adapter registered")
            .parse_str(text)
            .map_err(|e| format!("parse: {e}"))?;
        let mut set = MonitorSet::new(out.n_traces);
        set.add(MONITOR, pattern);
        let searches = |set: &MonitorSet| set.iter().map(|(_, m)| m.stats().searches).sum::<u64>();
        let mut before = 0u64;
        let mut prev = Instant::now();
        for e in &out.events {
            for (_, m) in set.observe(e) {
                verdicts.push(check::match_ids(&m));
            }
            let now = Instant::now();
            let after = searches(&set);
            if after > before {
                arrival_us.push((now - prev).as_secs_f64() * 1e6);
                before = after;
            }
            prev = now;
        }
        let subset = set
            .monitor(MONITOR)
            .map(|m| m.subset().iter().map(|m| check::match_ids(m)).collect())
            .unwrap_or_default();
        (out.events.len(), subset)
    } else {
        let mut monitor = Monitor::new(pattern, input.n_traces);
        let mut before = 0u64;
        let mut prev = Instant::now();
        for e in &input.clean {
            for m in monitor.observe(e) {
                verdicts.push(check::match_ids(&m));
            }
            let now = Instant::now();
            let after = monitor.stats().searches;
            if after > before {
                arrival_us.push((now - prev).as_secs_f64() * 1e6);
                before = after;
            }
            prev = now;
        }
        let subset = monitor
            .subset()
            .iter()
            .map(|m| check::match_ids(m))
            .collect();
        (input.clean.len(), subset)
    };
    Ok(InprocPass {
        secs: start.elapsed().as_secs_f64(),
        events,
        arrival_us,
        verdicts,
        subset,
    })
}

/// `(peak RSS in MB, user + system CPU seconds)` of this process so
/// far, from `/proc/self`; `None` where that is unavailable.
pub fn proc_usage() -> Option<(f64, f64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let rss_kb: f64 = hwm.split_whitespace().nth(1)?.parse().ok()?;
    // Fields 14 and 15 of /proc/self/stat (after the parenthesised
    // command name) are utime and stime in clock ticks; Linux exports
    // USER_HZ = 100 on every supported architecture.
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields: Vec<&str> = stat.rsplit_once(") ")?.1.split_whitespace().collect();
    let ticks = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some((rss_kb / 1024.0, ticks / 100.0))
}

/// What the timed passes of one run collected.
#[derive(Default)]
struct Passes {
    /// Events per second of each throughput pass, whole pass.
    rates: Vec<f64>,
    /// Every latency sample of every pass, microseconds.
    latency_us: Vec<f64>,
    latency_passes: usize,
}

impl Passes {
    /// The end-to-end figures: plain statistics over everything
    /// measured — median of whole-pass rates, percentiles pooled over
    /// every latency sample. An empty sample is an error, not a zero: a
    /// lower-is-better 0 would read as an improvement.
    fn finish(self, mut out: EndToEnd) -> Result<EndToEnd, String> {
        out.passes = self.rates.len();
        out.latency_passes = self.latency_passes;
        out.events_per_s = median(&self.rates);
        out.latency_samples = self.latency_us.len();
        let pooled = sorted(self.latency_us);
        out.latency_us_p50 = nearest_rank(&pooled, 0.50)
            .ok_or("no latency sample: no arrival started a search, no frame was acknowledged")?;
        out.latency_us_p99 = tail_percentile(&pooled, 0.99);
        out.latency_us_max = pooled.last().copied().unwrap_or(0.0);
        Ok(out)
    }
}

fn run_inproc(
    workload: Workload,
    input: &Input,
    reference: &Fingerprint,
    budget: Duration,
    min: usize,
    setups: &mut SetUps,
    work: &mut WorkDir,
) -> Result<EndToEnd, String> {
    let mut out = EndToEnd {
        correct: true,
        ..EndToEnd::default()
    };
    let mut passes = Passes::default();
    let start = Instant::now();
    while passes.rates.len() < min || start.elapsed() < budget {
        setups.before_pass(start.elapsed(), work)?;
        let p = inproc_pass(workload, input)?;
        out.attempted += p.events as u64;
        if let Err(e) = check::check_inproc(reference, &p.verdicts, &p.subset) {
            out.correct = false;
            out.note = e;
        }
        passes.rates.push(p.events as f64 / p.secs.max(1e-9));
        passes.latency_us.extend(p.arrival_us);
        passes.latency_passes += 1;
    }
    passes.finish(out)
}

/// Frames of a latency pass: latency-clock start → `Ack`, in
/// microseconds, for the acknowledged ones, and the events of those
/// that failed (never acknowledged, or acknowledged past
/// [`LATENCY_LIMIT`]).
pub fn ack_latencies(p: &net::Streamed, frames: &[Vec<ocep_poet::Event>]) -> (Vec<f64>, u64) {
    let limit_ns = LATENCY_LIMIT.as_nanos() as u64;
    let mut us = Vec::with_capacity(p.ack_ns.len());
    let mut failed = 0u64;
    for (i, frame) in frames.iter().enumerate() {
        match (p.due_ns.get(i), p.ack_ns.get(i)) {
            (Some(&due), Some(&ack)) => {
                let ns = ack.saturating_sub(due);
                us.push(ns as f64 / 1e3);
                if ns > limit_ns {
                    failed += frame.len() as u64;
                }
            }
            _ => failed += frame.len() as u64,
        }
    }
    (us, failed)
}

fn run_served(
    workload: Workload,
    input: &Input,
    reference: &Fingerprint,
    budget: Duration,
    min: usize,
    setups: &mut SetUps,
    work: &mut WorkDir,
) -> Result<EndToEnd, String> {
    let durable = workload.tenants() > 0;
    let mut out = EndToEnd {
        correct: true,
        ..EndToEnd::default()
    };
    let fail = |out: &mut EndToEnd, e: String| {
        out.correct = false;
        out.note = e;
    };
    let mut passes = Passes::default();

    // Two kinds of pass alternate for the whole measuring time, so that
    // both metrics sample the same stretch of the host's moods.
    let start = Instant::now();
    while passes.rates.len() < min || start.elapsed() < budget {
        // Closed loop: the producer's next frame waits for credit, so a
        // slower server is offered less. Measures capacity.
        setups.before_pass(start.elapsed(), work)?;
        let closed = work.with_wal(durable, |wal| net::closed_pass(workload, input, wal, || ()))?;
        out.attempted += input.offered() as u64;
        passes
            .rates
            .push(input.clean.len() as f64 / closed.secs.max(1e-9));
        if let Err(e) = check::check_served(reference, &closed.report, input, workload) {
            fail(&mut out, e);
        }
        if closed.tail_verdicts != closed.report.verdicts.len() {
            let (saw, of) = (closed.tail_verdicts, closed.report.verdicts.len());
            fail(&mut out, format!("tail saw {saw} of {of} verdicts"));
        }

        // One frame at a time: what a frame costs from write to `Ack` —
        // decoded, interned, admitted, logged, matched — with nothing
        // queued in front of it. (The open loop at the workload's fixed
        // rate is in the traced run.)
        setups.before_pass(start.elapsed(), work)?;
        let single = work.with_wal(durable, |wal| {
            net::produce(workload, input, &input.frames, wal, net::Pace::OneAtATime)
        })?;
        passes.latency_passes += 1;
        out.attempted += input.offered() as u64;
        let (us, failed) = ack_latencies(&single.sent, &input.frames);
        out.failed += failed;
        passes.latency_us.extend(us);
        if let Err(e) = check::check_served(reference, &single.report, input, workload) {
            fail(&mut out, e);
        }
        if single.sent.faults != 0 {
            let n = single.sent.faults;
            fail(&mut out, format!("{n} fault frames in a latency pass"));
        }
    }
    passes.finish(out)
}

/// Runs `workload` untraced for about `seconds` of measuring time.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    work: &mut WorkDir,
) -> Result<EndToEnd, String> {
    let min_passes = match size {
        Size::Full => 3,
        Size::Smoke => 1,
    };
    let (input, first) = set_up(workload, seed, size, work)?;
    if input.truth == 0 {
        return Err("generator injected no violations".into());
    }
    eprintln!(
        "# {}: input digest {:016x}, {} events offered per pass",
        workload.name(),
        gen::input_digest(&input),
        input.offered()
    );
    let reference = check::reference(&input)?;
    let mut setups = SetUps {
        workload,
        seed,
        size,
        every: seconds / SETUP_REPEATS as f64,
        times: vec![first],
    };
    let budget = Duration::from_secs_f64(seconds);
    let run_passes = if workload.is_served() {
        run_served
    } else {
        run_inproc
    };
    let mut out = run_passes(
        workload,
        &input,
        &reference,
        budget,
        min_passes,
        &mut setups,
        work,
    )?;
    out.setup_samples = setups.times.len();
    out.setup_s = median(&setups.times);
    out.peak_rss_mb = proc_usage().ok_or("/proc/self is unreadable")?.0;
    if !out.correct {
        out.failed = out.attempted;
    }
    Ok(out)
}
