//! Monitor checkpoint/restore: crash recovery for a long-running monitor.
//!
//! A checkpoint captures everything the matcher's *future* behavior
//! depends on — the leaf histories (with their dedup bookkeeping), the
//! §IV-B representative subset, the cumulative [`MonitorStats`] and the
//! configuration — so a monitor restored from a checkpoint and fed the
//! remainder of the stream produces bit-identical verdicts to one that
//! never stopped. The stream position is implied by `stats.events`: a
//! resuming driver replays the recorded stream and skips that many. The
//! admission guard's reorder state belongs to the set in front of the
//! monitors and travels in the set checkpoint ([`save_set_at`]).
//!
//! The byte format is built on the shared codec of the POET dump and
//! the OCWP wire (`ocep_poet::codec`; `docs/WIRE.md`, "Record grammar"),
//! decoded through the offset-tracking [`Reader`] so a truncated or
//! corrupt checkpoint yields a diagnostic with a byte offset, never a
//! panic.
//!
//! ```text
//! magic        [u8;4] = b"OCKP", version u16 = 4
//! pattern_src  str (u32 len + utf-8) — the monitored pattern's source
//! n_traces     u32
//! config       dedup u8, policy u8
//! stats        10 × u64: MonitorStats in catalogue order (`stats.rs`)
//! strings      string table
//! events       u32 count; per event one record: table-id strings,
//!              full clock
//! history      relevant u64×n; per leaf: last_relevant u64×n;
//!              per leaf×trace: u32 count + event refs; stored u64,
//!              suppressed u64
//! subset       per leaf×trace: u8 flag [, n_leaves event refs]
//! obs          marker u8; iff 1: level u8 = 2, 3 stage histograms
//!              (route_dedup, search, subset_merge), arrival histogram,
//!              u32 level count + domain-width histograms, backjump and
//!              conflict histograms, prune_gp_ls u64, prune_intersect u64,
//!              recent ring (u32 count; per record: seq u64, event str,
//!              stored u8, 5 × u64); histogram := u32 n (0 or 40) +
//!              n × u64 counts, sum u64, max u64
//! wal_lsn      u64 — the durable-log anchor a recovery replays after
//!              (`docs/DURABILITY.md`); 0 outside a log
//! ```
//!
//! The obs level lives inside the optional section, so an `Off`
//! checkpoint and a metrics-stripped one ([`strip_metrics`]) are
//! byte-identical. A [`MonitorStats`] row added or deleted moves every
//! later word, so it comes with a version bump.
//!
//! Versions 1–3 load through the decoder's one `Legacy` arm into the
//! same state; every word v4 dropped is read and ignored. Their config
//! ends with two `u64`s (`node_limit`, `parallelism`) and a guard flag,
//! followed, when set, by capacity u64 and overflow u8 and, after the
//! subset, a `guard` section (admitted u32×n, u32 buffered + event refs,
//! 12 `IngestStats` words) that [`load_at`] hands back for a
//! [`MonitorSet`]. Their stats block is 26 words: words 9, 11 and 12
//! held three retired counters (Fig 5 bounds, avoided clones and bytes),
//! the last 13 were reserved. Version 1 ends after `guard`; version 2
//! adds `obs`, with level 1 (the retired `counters`, loaded as full),
//! five stage slots (the first and third retired) and a reserved word
//! after `prune_intersect`; version 3 adds `wal_lsn`. A guard's fault
//! log is not checkpointed; a restored guard starts with an empty one.

use crate::history::LeafHistory;
use crate::ingest::{AdmissionGuard, GuardConfig, OverflowPolicy};
use crate::matching::Match;
use crate::monitor::{Monitor, MonitorConfig, SubsetPolicy};
use crate::multi::MonitorSet;
use crate::obs::{ArrivalRecord, Histogram, Metrics, ObsLevel, Stage, HIST_BUCKETS, RECENT_CAP};
use crate::stats::{CounterBlock, MonitorStats};
use ocep_pattern::Pattern;
use ocep_poet::codec::{
    get_event_record, nth, put_event_record, put_str, put_u16, put_u32, put_u32s, put_u64,
    ClockForm, EventRecord, Reader, StrForm, StrTable,
};
use ocep_poet::{Event, PoetError};
use ocep_vclock::{EventId, EventIndex};
use std::collections::HashMap;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"OCKP";
const VERSION: u16 = 4;

/// Where a version 1–3 file differs from version 4 (see the module
/// docs): the decoder's one legacy arm, which reads the dropped words and
/// ignores them.
struct Legacy {
    version: u16,
}

impl Legacy {
    /// The stats block's words: the 13 counters of the old catalogue,
    /// then 13 reserved.
    const STATS_WORDS: usize = 26;
    /// The word of each live [`MonitorStats`] counter, in catalogue order.
    const LIVE_STATS: [usize; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10];
    /// The metrics section's stage slots; `None` is a retired stage.
    const STAGE_SLOTS: [Option<Stage>; 5] = [
        None,
        Some(Stage::RouteDedup),
        None,
        Some(Stage::Search),
        Some(Stage::SubsetMerge),
    ];

    /// The config block's tail: `node_limit`, `parallelism`, and the
    /// guard flag with the guard's config when set.
    fn guard_config(&self, r: &mut Reader<'_>) -> Result<Option<GuardConfig>, CheckpointError> {
        r.u64("config.node_limit")?;
        r.u64("config.parallelism")?;
        if r.u8("config.guard flag")? == 0 {
            return Ok(None);
        }
        read_guard_config(r).map(Some)
    }

    fn stats(&self, r: &mut Reader<'_>) -> Result<MonitorStats, PoetError> {
        let mut words = [0; Self::STATS_WORDS];
        for w in &mut words {
            *w = r.u64("monitor stat")?;
        }
        let mut s = MonitorStats::default();
        for (field, &w) in s.fields_mut().zip(&Self::LIVE_STATS) {
            *field = words[w];
        }
        Ok(s)
    }
}

/// Why a checkpoint failed to decode.
#[derive(Debug)]
pub enum CheckpointError {
    /// The byte stream itself was malformed (truncated, bad magic,
    /// version mismatch, trailing garbage); carries the offset.
    Format(PoetError),
    /// The bytes decoded but describe an inconsistent monitor (out of
    /// range references, shape mismatches, a pattern that fails to
    /// parse).
    Invalid(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Format(e) => write!(f, "checkpoint format error: {e}"),
            CheckpointError::Invalid(s) => write!(f, "invalid checkpoint: {s}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<PoetError> for CheckpointError {
    fn from(e: PoetError) -> Self {
        CheckpointError::Format(e)
    }
}

/// Interns every distinct event (by id) and string reachable from the
/// monitor, so shared events serialize once.
#[derive(Default)]
struct EventTable<'m> {
    events: Vec<&'m Event>,
    ids: HashMap<EventId, u32>,
    strings: StrTable<'m>,
}

impl<'m> EventTable<'m> {
    fn intern(&mut self, e: &'m Event) {
        if self.ids.contains_key(&e.id()) {
            return;
        }
        self.ids.insert(e.id(), self.events.len() as u32);
        self.events.push(e);
        self.strings.intern(e.ty());
        self.strings.intern(e.text());
    }
}

/// Writes a counter block as one `u64` per catalogue row, in row order.
fn put_counters(buf: &mut Vec<u8>, block: &impl CounterBlock) {
    for v in block.values() {
        put_u64(buf, v);
    }
}

/// Reads the words [`put_counters`] wrote; `what` names them in errors.
fn read_counters<B: CounterBlock>(r: &mut Reader<'_>, what: &str) -> Result<B, PoetError> {
    let mut block = B::default();
    for field in block.fields_mut() {
        *field = r.u64(what)?;
    }
    Ok(block)
}

fn put_hist(buf: &mut Vec<u8>, h: &Histogram) {
    let counts = h.bucket_counts();
    put_u32(buf, counts.len() as u32);
    for &c in counts {
        put_u64(buf, c);
    }
    put_u64(buf, h.sum());
    put_u64(buf, h.max());
}

fn read_hist(r: &mut Reader<'_>) -> Result<Histogram, CheckpointError> {
    let n = r.u32("histogram bucket count")? as usize;
    if n != 0 && n != HIST_BUCKETS {
        return Err(CheckpointError::Invalid(format!(
            "histogram with {n} buckets (expected 0 or {HIST_BUCKETS})"
        )));
    }
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.u64("histogram bucket")?);
    }
    let sum = r.u64("histogram sum")?;
    let max = r.u64("histogram max")?;
    Ok(Histogram::from_raw(counts, sum, max))
}

fn put_metrics(buf: &mut Vec<u8>, m: &Metrics) {
    buf.push(m.level().code());
    for stage in Stage::ALL {
        put_hist(buf, m.stage_hist(stage));
    }
    put_hist(buf, &m.arrival_ns);
    put_u32(buf, m.search.domain_width.len() as u32);
    for h in &m.search.domain_width {
        put_hist(buf, h);
    }
    put_hist(buf, &m.search.backjump_depth);
    put_hist(buf, &m.search.conflict_size);
    put_u64(buf, m.search.prune_gp_ls);
    put_u64(buf, m.search.prune_intersect);
    // Rotation is an in-memory detail: records go out oldest-first and
    // come back unrotated (RecentRing compares by content).
    let recent = m.recent.records();
    put_u32(buf, recent.len() as u32);
    for rec in &recent {
        put_u64(buf, rec.seq);
        put_str(buf, &rec.event);
        buf.push(u8::from(rec.stored));
        for v in [
            rec.searches,
            rec.matches_found,
            rec.matches_reported,
            rec.nodes,
            rec.total_ns,
        ] {
            put_u64(buf, v);
        }
    }
}

fn read_metrics(r: &mut Reader<'_>, legacy: Option<&Legacy>) -> Result<Metrics, CheckpointError> {
    let code = r.u8("obs level")?;
    let level = match (code, legacy) {
        // The retired `counters` level: a `Full` registry whose timers
        // never ran.
        (1, Some(_)) => Some(ObsLevel::Full),
        _ => ObsLevel::from_code(code),
    }
    .ok_or_else(|| CheckpointError::Invalid(format!("unknown obs level {code}")))?;
    let mut m = Metrics::new(level);
    let v4_slots = Stage::ALL.map(Some);
    let slots: &[Option<Stage>] = match legacy {
        Some(_) => &Legacy::STAGE_SLOTS,
        None => &v4_slots,
    };
    for slot in slots {
        let h = read_hist(r)?;
        if let Some(stage) = slot {
            m.stage_ns[*stage as usize] = h;
        }
    }
    m.arrival_ns = read_hist(r)?;
    let n_levels = r.u32("domain width level count")? as usize;
    if n_levels > crate::obs::MAX_TRACKED_LEVELS {
        return Err(CheckpointError::Invalid(format!(
            "domain width tracked for {n_levels} levels (max {})",
            crate::obs::MAX_TRACKED_LEVELS
        )));
    }
    for _ in 0..n_levels {
        m.search.domain_width.push(read_hist(r)?);
    }
    m.search.backjump_depth = read_hist(r)?;
    m.search.conflict_size = read_hist(r)?;
    m.search.prune_gp_ls = r.u64("prune_gp_ls")?;
    m.search.prune_intersect = r.u64("prune_intersect")?;
    if legacy.is_some() {
        r.u64("retired search word")?;
    }
    let n_recent = r.u32("recent record count")? as usize;
    if n_recent > RECENT_CAP {
        return Err(CheckpointError::Invalid(format!(
            "{n_recent} recent records (ring capacity {RECENT_CAP})"
        )));
    }
    for _ in 0..n_recent {
        let seq = r.u64("record seq")?;
        let event = r.str("record event")?.to_string();
        let stored = r.u8("record stored flag")? != 0;
        let searches = r.u64("record searches")?;
        let matches_found = r.u64("record matches_found")?;
        let matches_reported = r.u64("record matches_reported")?;
        let nodes = r.u64("record nodes")?;
        let total_ns = r.u64("record total_ns")?;
        m.recent.push(ArrivalRecord {
            seq,
            event,
            stored,
            searches,
            matches_found,
            matches_reported,
            nodes,
            total_ns,
        });
    }
    Ok(m)
}

fn read_guard_config(r: &mut Reader<'_>) -> Result<GuardConfig, CheckpointError> {
    let capacity = r.u64("guard capacity")? as usize;
    let overflow = match r.u8("guard overflow policy")? {
        0 => OverflowPolicy::Reject,
        1 => OverflowPolicy::DropOldest,
        2 => OverflowPolicy::FlushDegraded,
        k => {
            return Err(CheckpointError::Invalid(format!(
                "unknown overflow policy {k}"
            )))
        }
    };
    Ok(GuardConfig { capacity, overflow })
}

/// Reads a guard's reorder state — per-trace admitted counters, the
/// buffered events (each at least `min_event_bytes`, decoded by
/// `buffered_event`), the counters — into a fresh guard.
fn read_guard(
    r: &mut Reader<'_>,
    n_traces: usize,
    config: GuardConfig,
    min_event_bytes: usize,
    mut buffered_event: impl FnMut(&mut Reader<'_>) -> Result<Event, CheckpointError>,
) -> Result<AdmissionGuard, CheckpointError> {
    // Read before the guard is built: a trace count the file cannot back
    // is a truncation here, not per-trace tables.
    let admitted = r.u32s(n_traces, "guard admitted counters")?;
    let mut guard = AdmissionGuard::new(n_traces, config);
    guard.admitted = admitted;
    for _ in 0..r.count("buffered events", min_event_bytes)? {
        let e = buffered_event(r)?;
        guard.buffered_ids.insert(e.id());
        guard.buffer.push(e);
    }
    guard.stats = read_counters(r, "ingest stat")?;
    Ok(guard)
}

/// The record's event, once it passes what a checkpoint requires of it:
/// partner in range, a clock entry per trace, the Fidge convention.
fn checked_event(
    rec: EventRecord,
    n_traces: usize,
    what: std::fmt::Arguments<'_>,
) -> Result<Event, CheckpointError> {
    if let Some(p) = rec.partner {
        if p.trace().as_usize() >= n_traces || p.index() == EventIndex::ZERO {
            return Err(CheckpointError::Invalid(format!(
                "{what} partner {p} out of range"
            )));
        }
    }
    if rec.clock.len() != n_traces {
        return Err(CheckpointError::Invalid(format!(
            "{what} clock has {} entries over {n_traces} traces",
            rec.clock.len()
        )));
    }
    if rec.trace.as_usize() >= n_traces
        || rec.index == EventIndex::ZERO
        || rec.clock.entry(rec.trace) != rec.index
    {
        return Err(CheckpointError::Invalid(format!(
            "{what} ({}) violates the Fidge convention",
            EventId::new(rec.trace, rec.index)
        )));
    }
    Ok(rec.into_event())
}

/// Serializes `monitor` (monitoring the pattern whose source text is
/// `pattern_src`; embedded so a load can rebuild the pattern) to the
/// checkpoint format, anchored at log position `wal_lsn`: a recovery
/// restores the checkpoint and replays the durable log strictly after
/// that LSN. A checkpoint taken outside a durable log is anchored at 0.
#[must_use]
pub fn save_at(monitor: &Monitor, pattern_src: &str, wal_lsn: u64) -> Vec<u8> {
    let n_traces = monitor.history.n_traces();
    let n_leaves = monitor.pattern().n_leaves();

    // Intern everything reachable, deterministic order: histories first
    // (leaf-major, trace-major, index order), then subset.
    let mut table = EventTable::default();
    for leaf in &monitor.history.per_leaf {
        for trace in leaf {
            for e in trace {
                table.intern(e);
            }
        }
    }
    for per_trace in &monitor.subset {
        for m in per_trace.iter().flatten() {
            for e in m.events() {
                table.intern(e);
            }
        }
    }

    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u16(&mut buf, VERSION);
    put_str(&mut buf, pattern_src);
    put_u32(&mut buf, n_traces as u32);

    let config = monitor.config();
    buf.push(u8::from(config.dedup));
    buf.push(match config.policy {
        SubsetPolicy::Representative => 0,
        SubsetPolicy::PerArrival => 1,
    });

    put_counters(&mut buf, monitor.stats());

    table.strings.put(&mut buf);

    put_u32(&mut buf, table.events.len() as u32);
    for e in &table.events {
        put_event_record(&mut buf, e, table.strings.ids_of(e), &mut ClockForm::Full);
    }

    for &v in &monitor.history.relevant {
        put_u64(&mut buf, v);
    }
    for l in 0..n_leaves {
        for &v in &monitor.history.last_relevant[l] {
            put_u64(&mut buf, v);
        }
    }
    for leaf in &monitor.history.per_leaf {
        for trace in leaf {
            put_u32(&mut buf, trace.len() as u32);
            for e in trace {
                put_u32(&mut buf, table.ids[&e.id()]);
            }
        }
    }
    put_u64(&mut buf, monitor.history.stored as u64);
    put_u64(&mut buf, monitor.history.suppressed as u64);

    for per_trace in &monitor.subset {
        for cell in per_trace {
            match cell {
                Some(m) => {
                    buf.push(1);
                    for e in m.events() {
                        put_u32(&mut buf, table.ids[&e.id()]);
                    }
                }
                None => buf.push(0),
            }
        }
    }

    match &monitor.obs {
        Some(m) => {
            buf.push(1);
            put_metrics(&mut buf, m);
        }
        None => buf.push(0),
    }

    put_u64(&mut buf, wal_lsn);

    buf
}

/// [`load_at`] for callers with nowhere to put a guard: a blob whose
/// monitor owned one is [`CheckpointError::Invalid`], since only
/// [`load_at`] can hand its reorder state over.
fn load_unguarded(data: &[u8]) -> Result<LoadedMonitor, CheckpointError> {
    let loaded = load_at(data)?;
    if loaded.guard.is_some() {
        return Err(CheckpointError::Invalid(
            "the monitor owned an admission guard; load it with `load_at` and \
             install the guard on a `MonitorSet`"
                .to_owned(),
        ));
    }
    Ok(loaded)
}

/// What [`load_at`] decodes from one `OCKP` blob.
#[derive(Debug)]
pub struct LoadedMonitor {
    /// The restored monitor.
    pub monitor: Monitor,
    /// The pattern source it was monitoring.
    pub pattern_src: String,
    /// The durable-log position the checkpoint is anchored at (0 for
    /// pre-v3 checkpoints and log-less saves).
    pub wal_lsn: u64,
    /// The admission guard the monitor owned, reorder buffer and counters
    /// included, when the file was written with one: put it in front of
    /// the [`MonitorSet`] the monitor joins
    /// ([`MonitorSet::install_guard`]). `monitor.stats().events` of such
    /// a file counts raw arrivals, not admitted events. `None` for
    /// everything [`save_at`] writes now.
    pub guard: Option<AdmissionGuard>,
}

/// Decodes a checkpoint back into a live [`Monitor`], returning it with
/// the pattern source it was monitoring (so a resuming driver can verify
/// it matches the pattern file it was invoked with), its `wal_lsn`
/// anchor and the admission guard it owned, if any.
///
/// # Errors
///
/// [`CheckpointError::Format`] on malformed bytes (with a byte offset),
/// [`CheckpointError::Invalid`] on well-formed bytes that describe an
/// inconsistent monitor. Never panics.
pub fn load_at(data: &[u8]) -> Result<LoadedMonitor, CheckpointError> {
    let mut r = Reader::new(data);
    r.magic(MAGIC)?;
    let version = r.u16("version")?;
    if version == 0 || version > VERSION {
        return Err(CheckpointError::Format(PoetError::BadHeader(format!(
            "checkpoint version {version} is not supported (expected 1..={VERSION})"
        ))));
    }
    let legacy = (version < VERSION).then_some(Legacy { version });
    let pattern_src = r.str("pattern source")?.to_string();
    // The history section alone holds a `u64` per trace.
    let n_traces = r.count("traces", 8)?;

    let dedup = r.u8("config.dedup")? != 0;
    let policy = match r.u8("config.policy")? {
        0 => SubsetPolicy::Representative,
        1 => SubsetPolicy::PerArrival,
        k => {
            return Err(CheckpointError::Invalid(format!(
                "unknown subset policy {k}"
            )))
        }
    };
    let guard_cfg = match &legacy {
        Some(l) => l.guard_config(&mut r)?,
        None => None,
    };
    let config = MonitorConfig {
        dedup,
        policy,
        // The obs level is stored inside the trailing obs section (when
        // present), not in the config block; restored below.
        obs: ObsLevel::Off,
    };

    let stats = match &legacy {
        Some(l) => l.stats(&mut r)?,
        None => read_counters(&mut r, "monitor stat")?,
    };

    let strings = StrTable::get(&mut r)?;
    let mut clock = ClockForm::Full;
    let n_events = r.count("events", clock.min_record_bytes())?;
    let mut events: Vec<Event> = Vec::with_capacity(n_events);
    for i in 0..n_events {
        let rec = get_event_record(&mut r, StrForm::Table(&strings), &mut clock)
            .map_err(nth("event", i))?;
        events.push(checked_event(rec, n_traces, format_args!("event {i}"))?);
    }

    let pattern = Pattern::parse(&pattern_src)
        .map_err(|e| CheckpointError::Invalid(format!("pattern failed to parse: {e}")))?;
    let mut monitor = Monitor::with_config(pattern, n_traces, config);
    let n_leaves = monitor.pattern().n_leaves();

    let lookup_event = |idx: u32| -> Result<Event, CheckpointError> {
        events.get(idx as usize).cloned().ok_or_else(|| {
            CheckpointError::Invalid(format!(
                "event reference {idx} beyond table of {}",
                events.len()
            ))
        })
    };

    let mut history = LeafHistory::new(monitor.pattern(), n_traces, dedup);
    for t in 0..n_traces {
        history.relevant[t] = r.u64("relevant counter")?;
    }
    for l in 0..n_leaves {
        for t in 0..n_traces {
            history.last_relevant[l][t] = r.u64("last_relevant counter")?;
        }
    }
    for l in 0..n_leaves {
        for t in 0..n_traces {
            let count = r.u32("history length")? as usize;
            for _ in 0..count {
                let e = lookup_event(r.u32("history event ref")?)?;
                if e.trace().as_usize() != t {
                    return Err(CheckpointError::Invalid(format!(
                        "event {} filed under trace {t}",
                        e.id()
                    )));
                }
                if let Some(prev) = history.per_leaf[l][t].last() {
                    if prev.index() >= e.index() {
                        return Err(CheckpointError::Invalid(format!(
                            "history for leaf {l} trace {t} is not ascending at {}",
                            e.id()
                        )));
                    }
                }
                history.append(l, e);
            }
        }
    }
    history.stored = r.u64("stored counter")? as usize;
    history.suppressed = r.u64("suppressed counter")? as usize;
    monitor.history = history;

    let pattern_arc = Arc::clone(&monitor.pattern);
    for l in 0..n_leaves {
        for t in 0..n_traces {
            if r.u8("subset cell flag")? == 0 {
                continue;
            }
            let mut bound = Vec::with_capacity(n_leaves);
            for _ in 0..n_leaves {
                bound.push(lookup_event(r.u32("subset event ref")?)?);
            }
            monitor.subset[l][t] = Some(Match::new(Arc::clone(&pattern_arc), bound));
        }
    }

    let guard = match guard_cfg {
        Some(cfg) => Some(read_guard(&mut r, n_traces, cfg, 4, |r| {
            lookup_event(r.u32("guard buffer event ref")?)
        })?),
        None => None,
    };

    if legacy.as_ref().is_none_or(|l| l.version >= 2) && r.u8("obs section marker")? != 0 {
        let metrics = read_metrics(&mut r, legacy.as_ref())?;
        monitor.set_obs_metrics(Some(Box::new(metrics)));
    }

    let wal_lsn = match &legacy {
        Some(l) if l.version < 3 => 0,
        _ => r.u64("wal lsn")?,
    };

    monitor.stats = stats;
    r.finish()?;
    Ok(LoadedMonitor {
        monitor,
        pattern_src,
        wal_lsn,
        guard,
    })
}

/// Rewrites a checkpoint with its metrics section cleared (marker 0),
/// leaving all matching state intact. An `Off`-collected checkpoint and a
/// `Full`-collected one stripped through this function are byte-identical
/// — the property the metrics-transparency suite pins.
///
/// # Errors
///
/// See [`load_at`]; stripping decodes the checkpoint first, and refuses
/// one whose monitor owned an admission guard.
pub fn strip_metrics(data: &[u8]) -> Result<Vec<u8>, CheckpointError> {
    let mut loaded = load_unguarded(data)?;
    loaded.monitor.set_obs_metrics(None);
    Ok(save_at(
        &loaded.monitor,
        &loaded.pattern_src,
        loaded.wal_lsn,
    ))
}

// ---------------------------------------------------------------------
// Set-level checkpoints (the serve daemon's unit of crash recovery).
// ---------------------------------------------------------------------

const SET_MAGIC: &[u8; 4] = b"OCKS";
const SET_VERSION: u16 = 2;

/// Serializes a whole [`MonitorSet`] — every registered monitor plus the
/// set-level admission guard's reorder state and counters — to one
/// `OCKS` blob anchored at durable-log position `wal_lsn` (0 when
/// log-less): a recovery restores the set and replays the log strictly
/// after that LSN. This is the serve daemon's unit of crash recovery: a
/// set restored from it and fed the remainder of the stream produces
/// bit-identical verdicts, subsets, and `IngestStats` to one that never
/// stopped.
///
/// `sources` maps monitor names to the pattern source each is
/// monitoring (the per-monitor [`save_at`] format embeds the source so
/// restore can rebuild the pattern). Monitors without an entry are
/// skipped, mirroring the serve daemon's per-file checkpoint policy.
///
/// ```text
/// magic     [u8;4] = b"OCKS", version u16 = 2
/// n_traces  u32
/// monitors  u32 count; per monitor: name str, u32-len-prefixed
///           OCKP blob (see [`save_at`])
/// guard     u8 flag; iff 1: capacity u64, overflow u8,
///           admitted u32×n_traces, u32 buffered + one record each
///           (inline strings, full clock), 12 × u64 IngestStats
///           counters in catalogue order
/// wal_lsn   u64 (version ≥ 2) — durable-log anchor; 0 when log-less
/// ```
#[must_use]
pub fn save_set_at(set: &MonitorSet, sources: &HashMap<String, String>, wal_lsn: u64) -> Vec<u8> {
    let monitors: Vec<(&str, &Monitor, &str)> = set
        .iter()
        .filter_map(|(name, m)| sources.get(name).map(|src| (name, m, src.as_str())))
        .collect();
    let mut buf = Vec::new();
    buf.extend_from_slice(SET_MAGIC);
    put_u16(&mut buf, SET_VERSION);
    put_u32(&mut buf, set.n_traces() as u32);

    put_u32(&mut buf, monitors.len() as u32);
    for (name, m, src) in monitors {
        let blob = save_at(m, src, 0);
        put_str(&mut buf, name);
        put_u32(&mut buf, blob.len() as u32);
        buf.extend_from_slice(&blob);
    }

    match set.guard() {
        Some(g) => {
            buf.push(1);
            put_u64(&mut buf, g.config.capacity as u64);
            buf.push(match g.config.overflow {
                OverflowPolicy::Reject => 0,
                OverflowPolicy::DropOldest => 1,
                OverflowPolicy::FlushDegraded => 2,
            });
            put_u32s(&mut buf, &g.admitted);
            put_u32(&mut buf, g.buffer.len() as u32);
            for e in &g.buffer {
                put_event_record(&mut buf, e, StrForm::Inline, &mut ClockForm::Full);
            }
            put_counters(&mut buf, g.stats());
        }
        None => buf.push(0),
    }

    put_u64(&mut buf, wal_lsn);

    buf
}

/// [`save_set_at`] at anchor 0; kept because the repository benchmark
/// links it.
#[must_use]
pub fn save_set(set: &MonitorSet, sources: &HashMap<String, String>) -> Vec<u8> {
    save_set_at(set, sources, 0)
}

/// [`load_set_at`] without the anchor; kept because the repository
/// benchmark links it.
///
/// # Errors
///
/// See [`load_set_at`]; a monitor whose pattern no longer parses is an
/// error here.
pub fn load_set(data: &[u8]) -> Result<(MonitorSet, Vec<(String, String)>), CheckpointError> {
    let loaded = load_set_at(data)?;
    match loaded.refused.into_iter().next() {
        Some((name, why)) => Err(CheckpointError::Invalid(format!("monitor {name}: {why}"))),
        None => Ok((loaded.set, loaded.sources)),
    }
}

/// What [`load_set_at`] decodes from one `OCKS` blob.
#[derive(Debug)]
pub struct LoadedSet {
    /// The restored set.
    pub set: MonitorSet,
    /// The restored monitors' embedded `(name, pattern_src)` pairs, so
    /// a resuming daemon can cross-check them against its configuration.
    pub sources: Vec<(String, String)>,
    /// The durable-log anchor: 0 for version-1 checkpoints and log-less
    /// saves.
    pub wal_lsn: u64,
    /// `(name, parse error)` of every embedded monitor whose pattern
    /// source no longer parses — one an older version accepted and the
    /// size rule now refuses — left out of `set`.
    pub refused: Vec<(String, String)>,
}

/// Decodes [`save_set_at`] bytes back into a live [`MonitorSet`] (see
/// [`LoadedSet`]).
///
/// # Errors
///
/// [`CheckpointError::Format`] on malformed bytes (with a byte offset),
/// [`CheckpointError::Invalid`] on well-formed bytes describing an
/// inconsistent set — or holding a monitor that owned an admission
/// guard. Never panics.
pub fn load_set_at(data: &[u8]) -> Result<LoadedSet, CheckpointError> {
    let mut r = Reader::new(data);
    r.magic(SET_MAGIC)?;
    let version = r.u16("set version")?;
    if version == 0 || version > SET_VERSION {
        return Err(CheckpointError::Format(PoetError::BadHeader(format!(
            "set checkpoint version {version} is not supported (expected 1..={SET_VERSION})"
        ))));
    }
    let n_traces = r.u32("set n_traces")? as usize;
    // A name and a blob length prefix, at the least.
    let n_monitors = r.count("monitors", 8)?;

    let mut set = MonitorSet::new(n_traces);
    let mut sources = Vec::with_capacity(n_monitors);
    let mut refused = Vec::new();
    for i in 0..n_monitors {
        let name = r.str("monitor name")?.to_string();
        let blob_len = r.u32("monitor blob length")? as usize;
        let blob = r.bytes(blob_len, "monitor blob")?;
        if let Some(why) = refused_pattern(blob) {
            refused.push((name, why));
            continue;
        }
        let loaded = load_unguarded(blob).map_err(|e| match e {
            CheckpointError::Format(f) => {
                CheckpointError::Invalid(format!("monitor {i} ({name}) blob is malformed: {f}"))
            }
            other => other,
        })?;
        if loaded.monitor.history.n_traces() != n_traces {
            return Err(CheckpointError::Invalid(format!(
                "monitor {i} ({name}) spans {} traces in a {n_traces}-trace set",
                loaded.monitor.history.n_traces()
            )));
        }
        set.insert_monitor(name.clone(), loaded.monitor);
        sources.push((name, loaded.pattern_src));
    }

    if r.u8("set guard flag")? != 0 {
        let config = read_guard_config(&mut r)?;
        let mut clock = ClockForm::Full;
        let guard = read_guard(&mut r, n_traces, config, clock.min_record_bytes(), |r| {
            let rec = get_event_record(r, StrForm::Inline, &mut clock)?;
            checked_event(rec, n_traces, format_args!("buffered event"))
        })?;
        set.install_guard(guard);
    }

    let wal_lsn = if version >= 2 {
        r.u64("set wal lsn")?
    } else {
        0
    };

    r.finish()?;
    Ok(LoadedSet {
        set,
        sources,
        wal_lsn,
        refused,
    })
}

/// Why the pattern source at the head of an `OCKP` blob does not parse,
/// if it does not (a blob too short to hold one is left to [`load_at`]).
fn refused_pattern(blob: &[u8]) -> Option<String> {
    let mut r = Reader::new(blob);
    r.magic(MAGIC).ok()?;
    r.u16("version").ok()?;
    let src = r.str("pattern source").ok()?;
    Pattern::parse(src).err().map(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_poet::{EventKind, PoetServer};
    use ocep_vclock::TraceId;

    const PATTERN: &str = "A := [*, a, *]; B := [s, b, *]; C := [r, b, *]; \
                           pattern := (A -> B) && (B <> C);";

    fn workload(n_events: usize) -> (PoetServer, Vec<Event>) {
        let mut poet = PoetServer::new(3);
        let mut rng = ocep_rng::Rng::seed_from_u64(7);
        for _ in 0..n_events {
            let t = TraceId::new(rng.gen_range(0u32..3));
            match rng.gen_range(0u32..4) {
                0 => {
                    let s = poet.record(t, EventKind::Send, "b", "m");
                    let dst = TraceId::new((t.as_u32() + 1) % 3);
                    poet.record_receive(dst, s.id(), "b", "m");
                }
                1 => {
                    poet.record(t, EventKind::Unary, "a", "x");
                }
                _ => {
                    poet.record(t, EventKind::Unary, "c", "");
                }
            }
        }
        let events: Vec<Event> = poet.linearization().collect();
        (poet, events)
    }

    fn subset_ids(m: &Monitor) -> Vec<Vec<EventId>> {
        m.subset()
            .iter()
            .map(|mm| mm.events().iter().map(Event::id).collect())
            .collect()
    }

    #[test]
    fn round_trip_preserves_state_and_future_verdicts() {
        let (_poet, events) = workload(40);
        let mut straight = Monitor::new(Pattern::parse(PATTERN).unwrap(), 3);
        let mut first_half = Monitor::new(Pattern::parse(PATTERN).unwrap(), 3);

        let cut = events.len() / 2;
        for e in &events[..cut] {
            straight.observe(e);
            first_half.observe(e);
        }
        let bytes = save_at(&first_half, PATTERN, 0);
        let LoadedMonitor {
            monitor: mut resumed,
            pattern_src: src,
            ..
        } = load_at(&bytes).unwrap();
        assert_eq!(src, PATTERN);
        assert_eq!(resumed.stats(), first_half.stats());
        assert_eq!(resumed.history_size(), first_half.history_size());
        assert_eq!(subset_ids(&resumed), subset_ids(&first_half));

        for e in &events[cut..] {
            let a = straight.observe(e);
            let b = resumed.observe(e);
            assert_eq!(
                a.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
                b.iter().map(|m| m.to_string()).collect::<Vec<_>>()
            );
        }
        assert_eq!(straight.stats(), resumed.stats());
        assert_eq!(subset_ids(&straight), subset_ids(&resumed));
    }

    /// `guarded-ahead.ockp` was written by the last commit whose
    /// `Monitor` could own a guard (see `tests/cli.rs`), with two events
    /// in its reorder buffer after twelve arrivals of `stream.poet`.
    #[test]
    fn round_trip_preserves_guard_buffer() {
        let dir = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/corpus/ockp/parent-guarded"
        );
        let bytes = std::fs::read(format!("{dir}/guarded-ahead.ockp")).unwrap();
        let err = load_unguarded(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("owned an admission guard"),
            "{err}"
        );

        let loaded = load_at(&bytes).unwrap();
        assert_eq!(loaded.monitor.stats().events, 12, "raw arrivals");
        let guard = loaded.guard.expect("the file carries a guard");
        assert_eq!(guard.buffered(), 2);
        assert_eq!(guard.stats().admitted, 10);
        assert_eq!(guard.stats().buffered_peak, 2);

        // In front of a set of one, the buffer survives the set's own
        // checkpoint, and the rest of the stream ends where the parent's
        // `check --resume` did (`expected/resume-guarded-ahead.txt`).
        let mut set = MonitorSet::new(4);
        set.insert_monitor("p", loaded.monitor);
        set.install_guard(guard);
        let sources = HashMap::from([("p".to_string(), loaded.pattern_src)]);
        let (mut set, _) = load_set(&save_set(&set, &sources)).unwrap();
        assert_eq!(set.guard().unwrap().buffered(), 2);
        let poet = ocep_poet::dump::reload_from_file(format!("{dir}/stream.poet")).unwrap();
        let mut reported = 0;
        for e in poet.store().iter_arrival().skip(12) {
            reported += set.observe_raw(e).len();
        }
        assert_eq!(reported, 18);
        assert_eq!(set.flush_guard().len(), 12);
        let stats = set.ingest_stats();
        assert_eq!(stats.admitted, 29);
        assert_eq!(stats.duplicates_dropped, 1);
        assert_eq!(stats.buffered, 4);
        assert_eq!(stats.degraded_flushes, 1);
    }

    #[test]
    fn round_trip_preserves_metrics_registry() {
        let (_poet, events) = workload(40);
        let config = MonitorConfig {
            obs: ObsLevel::Full,
            ..MonitorConfig::default()
        };
        let mut m = Monitor::with_config(Pattern::parse(PATTERN).unwrap(), 3, config);
        for e in &events {
            m.observe(e);
        }
        let before = m.obs_metrics().expect("Full keeps a registry").clone();
        assert!(before.arrival_hist().count() > 0, "timers should have run");
        assert!(!before.recent().is_empty(), "ring should have records");
        let bytes = save_at(&m, PATTERN, 0);
        let LoadedMonitor {
            monitor: resumed, ..
        } = load_at(&bytes).unwrap();
        assert_eq!(resumed.config().obs, ObsLevel::Full);
        assert_eq!(resumed.obs_metrics(), Some(&before));
        assert_eq!(resumed.stats(), m.stats());
    }

    fn legacy_fixture(name: &str) -> Vec<u8> {
        let path = format!(
            "{}/../../tests/corpus/ockp/{name}",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// `save_at` of what `bytes` restores to.
    fn resaved(bytes: &[u8]) -> Vec<u8> {
        let loaded = load_at(bytes).unwrap();
        save_at(&loaded.monitor, &loaded.pattern_src, loaded.wal_lsn)
    }

    #[test]
    fn version_1_and_2_checkpoints_still_load() {
        let v3 = legacy_fixture("parent-guarded/unguarded.ockp");
        assert_eq!(
            v3[v3.len() - 9..],
            [0u8; 9],
            "obs-off log-less checkpoint ends in marker 0 + wal_lsn 0"
        );
        // A v2 file is exactly a v3 obs-off file without the trailing
        // wal_lsn; a v1 file additionally drops the obs marker byte.
        let mut v2 = v3[..v3.len() - 8].to_vec();
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        let mut v1 = v3[..v3.len() - 9].to_vec();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        let want = resaved(&v3);
        assert_eq!(want[4..6], VERSION.to_le_bytes());
        for old in [v2, v1] {
            let loaded = load_at(&old).unwrap();
            assert!(loaded.monitor.obs_metrics().is_none());
            assert_eq!(loaded.wal_lsn, 0);
            assert_eq!(resaved(&old), want);
        }
    }

    #[test]
    fn wal_lsn_anchor_round_trips() {
        let (_poet, events) = workload(20);
        let mut m = Monitor::new(Pattern::parse(PATTERN).unwrap(), 3);
        for e in &events {
            m.observe(e);
        }
        let bytes = save_at(&m, PATTERN, 0xdead_beef);
        assert_eq!(load_at(&bytes).unwrap().wal_lsn, 0xdead_beef);
        // Stripping metrics preserves the anchor.
        let stripped = strip_metrics(&bytes).unwrap();
        assert_eq!(load_at(&stripped).unwrap().wal_lsn, 0xdead_beef);

        let mut set = guarded_set();
        for e in &events[1..] {
            set.observe_raw(e);
        }
        let set_bytes = save_set_at(&set, &set_sources(), 42);
        let restored = load_set_at(&set_bytes).unwrap();
        assert_eq!(restored.wal_lsn, 42);
        assert_eq!(restored.set.ingest_stats(), set.ingest_stats());
    }

    #[test]
    fn strip_metrics_matches_off_checkpoint_bytes() {
        let (_poet, events) = workload(40);
        let mut off = Monitor::new(Pattern::parse(PATTERN).unwrap(), 3);
        let config = MonitorConfig {
            obs: ObsLevel::Full,
            ..MonitorConfig::default()
        };
        let mut full = Monitor::with_config(Pattern::parse(PATTERN).unwrap(), 3, config);
        for e in &events {
            off.observe(e);
            full.observe(e);
        }
        let off_bytes = save_at(&off, PATTERN, 0);
        let full_bytes = save_at(&full, PATTERN, 0);
        assert_ne!(off_bytes, full_bytes, "Full embeds a metrics section");
        assert_eq!(strip_metrics(&full_bytes).unwrap(), off_bytes);
        // Stripping an already-off checkpoint is the identity.
        assert_eq!(strip_metrics(&off_bytes).unwrap(), off_bytes);
    }

    #[test]
    fn retired_counters_level_loads_as_full() {
        let off = legacy_fixture("parent-guarded/unguarded.ockp");
        let full = legacy_fixture("v3/full-obs.ockp");
        // Both files are of one run: the off one ends in marker 0 +
        // wal_lsn; the full one has marker 1 there, then the level byte.
        let level_at = off.len() - 8;
        assert_eq!(full[level_at - 1..=level_at], [1, 2]);
        let mut counters = full.clone();
        counters[level_at] = 1;
        let LoadedMonitor { monitor, .. } = load_at(&counters).unwrap();
        assert_eq!(monitor.config().obs, ObsLevel::Full);
        assert_eq!(
            monitor.obs_metrics(),
            load_at(&full).unwrap().monitor.obs_metrics()
        );
        assert_eq!(strip_metrics(&counters).unwrap(), resaved(&off));

        // Version 4 writes level 2 only and refuses the retired code.
        let v4_off = resaved(&off);
        let mut v4 = resaved(&full);
        assert_eq!(v4[v4_off.len() - 9..v4_off.len() - 7], [1, 2]);
        v4[v4_off.len() - 8] = 1;
        let err = load_at(&v4).unwrap_err();
        assert!(err.to_string().contains("unknown obs level 1"), "{err}");
    }

    #[test]
    fn truncated_checkpoint_errors_with_offset() {
        let (_poet, events) = workload(12);
        let mut m = Monitor::new(Pattern::parse(PATTERN).unwrap(), 3);
        for e in &events {
            m.observe(e);
        }
        let bytes = save_at(&m, PATTERN, 0);
        for cut in [0, 3, 7, bytes.len() / 2, bytes.len() - 1] {
            let err = load_at(&bytes[..cut]).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("byte") || msg.contains("header"),
                "diagnostic should locate the failure: {msg}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let m = Monitor::new(Pattern::parse(PATTERN).unwrap(), 3);
        let mut bytes = save_at(&m, PATTERN, 0);
        bytes.extend_from_slice(b"junk");
        let err = load_at(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn corrupt_event_reference_is_invalid_not_panic() {
        let (_poet, events) = workload(16);
        let mut m = Monitor::new(Pattern::parse(PATTERN).unwrap(), 3);
        for e in &events {
            m.observe(e);
        }
        let bytes = save_at(&m, PATTERN, 0);
        // Flip bytes across the body; every outcome must be Ok or Err,
        // never a panic, and a changed byte in a structural field must
        // not be silently accepted as the original state.
        for pos in (8..bytes.len()).step_by(11) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xff;
            let _ = load_at(&bad);
        }
    }

    #[test]
    fn wrong_magic_and_version_are_bad_header() {
        let m = Monitor::new(Pattern::parse(PATTERN).unwrap(), 3);
        let mut bytes = save_at(&m, PATTERN, 0);
        bytes[0] = b'X';
        assert!(matches!(
            load_at(&bytes),
            Err(CheckpointError::Format(PoetError::BadHeader(_)))
        ));
        let mut bytes2 = save_at(&m, PATTERN, 0);
        bytes2[4] = 99; // version
        assert!(matches!(
            load_at(&bytes2),
            Err(CheckpointError::Format(PoetError::BadHeader(_)))
        ));
    }

    const PATTERN2: &str = "X := [*, c, *]; Y := [*, a, *]; pattern := X -> Y;";

    fn set_sources() -> HashMap<String, String> {
        let mut sources = HashMap::new();
        sources.insert("first".to_string(), PATTERN.to_string());
        sources.insert("second".to_string(), PATTERN2.to_string());
        sources
    }

    fn guarded_set() -> MonitorSet {
        let mut set = MonitorSet::new(3);
        set.add("first", Pattern::parse(PATTERN).unwrap());
        set.add("second", Pattern::parse(PATTERN2).unwrap());
        set.enable_guard(GuardConfig::default());
        set
    }

    fn set_verdict_names(out: &[(String, Match)]) -> Vec<String> {
        out.iter().map(|(n, m)| format!("{n}:{m}")).collect()
    }

    fn set_subsets(set: &MonitorSet) -> Vec<Vec<Vec<EventId>>> {
        set.iter().map(|(_, m)| subset_ids(m)).collect()
    }

    #[test]
    fn set_round_trip_preserves_state_and_future_verdicts() {
        let (_poet, events) = workload(40);
        let mut straight = guarded_set();
        let mut first_half = guarded_set();
        // Hold back events[0] so the guard buffer is non-empty at the
        // checkpoint: the set-level reorder state must survive too.
        let cut = events.len() / 2;
        for e in &events[1..cut] {
            straight.observe_raw(e);
            first_half.observe_raw(e);
        }
        assert!(
            first_half.guard().unwrap().buffered() > 0,
            "workload should leave a gap"
        );

        let sources = set_sources();
        let bytes = save_set(&first_half, &sources);
        let (mut resumed, embedded) = load_set(&bytes).unwrap();
        assert_eq!(
            embedded,
            vec![
                ("first".to_string(), PATTERN.to_string()),
                ("second".to_string(), PATTERN2.to_string()),
            ]
        );
        assert_eq!(resumed.n_traces(), 3);
        assert_eq!(resumed.ingest_stats(), first_half.ingest_stats());
        assert_eq!(set_subsets(&resumed), set_subsets(&first_half));

        // Deliver the straggler plus the rest; both paths must agree.
        let mut tail_events: Vec<&Event> = vec![&events[0]];
        tail_events.extend(&events[cut..]);
        for e in tail_events {
            let a = set_verdict_names(&straight.observe_raw(e));
            let b = set_verdict_names(&resumed.observe_raw(e));
            assert_eq!(a, b);
        }
        assert_eq!(
            set_verdict_names(&straight.flush_guard()),
            set_verdict_names(&resumed.flush_guard())
        );
        assert_eq!(straight.ingest_stats(), resumed.ingest_stats());
        assert_eq!(set_subsets(&straight), set_subsets(&resumed));
        // Checkpointing both ends of the run must agree byte-for-byte.
        assert_eq!(save_set(&straight, &sources), save_set(&resumed, &sources));
    }

    #[test]
    fn set_checkpoint_skips_unsourced_monitors() {
        let (_poet, events) = workload(10);
        let mut set = guarded_set();
        for e in &events {
            set.observe_raw(e);
        }
        let mut sources = set_sources();
        sources.remove("second");
        let bytes = save_set(&set, &sources);
        let (resumed, embedded) = load_set(&bytes).unwrap();
        assert_eq!(resumed.len(), 1);
        assert_eq!(embedded, vec![("first".to_string(), PATTERN.to_string())]);
    }

    #[test]
    fn set_checkpoint_corruption_never_panics() {
        let (_poet, events) = workload(16);
        let mut set = guarded_set();
        for e in &events[1..] {
            set.observe_raw(e);
        }
        let bytes = save_set(&set, &set_sources());
        for cut in [0, 3, 5, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(load_set(&bytes[..cut]).is_err());
        }
        for pos in (6..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xff;
            let _ = load_set(&bad);
        }
        let mut junk = bytes.clone();
        junk.extend_from_slice(b"junk");
        assert!(load_set(&junk).is_err());
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert!(matches!(
            load_set(&wrong_magic),
            Err(CheckpointError::Format(PoetError::BadHeader(_)))
        ));
    }
}
