//! The engine's data plane: one admission stage, one log, N matcher
//! partitions.
//!
//! A [`ShardGroup`] runs the same pipeline at every partition count:
//!
//! ```text
//! raw arrival → log append → AdmissionGuard → delivery sequence stamp
//!             → each of N partitions observes it → merge by (seq, registration)
//! ```
//!
//! The causal linearization is a property of the stream, so it is
//! derived once: the group owns the one [`AdmissionGuard`] and the one
//! durable [`Wal`], and only *admitted* events — already validated,
//! deduplicated, ordered and numbered — reach the partitions. A
//! partition is a guard-less [`MonitorSet`] holding the monitors that
//! [`route_of`] assigns to it. Verdicts come back tagged with their
//! delivery sequence number and are merged by a stable sort on
//! `(delivery_seq, registration index)`, which is the order one set
//! holding every monitor would have reported them in — so the partition
//! count is unobservable, in the verdict stream and on disk.
//!
//! Every partition runs inline on the caller's thread, one after the
//! other. A partition is a logical unit — routing, one set, a share of
//! the merge — not a concurrency one: on two hardware threads, partition
//! threads in lockstep measured slower than the same code inline
//! (EXPERIMENTS.md, "Partition threads").

use crate::wire::{decode_body, encode_body, put_event_body, Frame};
use ocep_core::ingest::{AdmissionGuard, IngestFault, IngestStats};
use ocep_core::{
    load_set_at, save_at, save_parts_at, Match, MetricsSnapshot, Monitor, MonitorConfig, MonitorSet,
};
use ocep_pattern::Pattern;
use ocep_poet::codec::{nth, put_str, put_u32, put_u64, Reader};
use ocep_poet::{Event, PoetError};
use ocep_wal::{
    Durability, Record, Wal, WalOptions, REC_CHECKPOINT, REC_DELIVER, REC_FLUSH, REC_REGISTER,
    REC_UNREGISTER,
};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The routing rule: `fnv1a64(name) % n_shards`. It only decides which
/// partition matches which pattern; nothing on disk depends on it.
#[must_use]
pub fn route_of(name: &str, n_shards: usize) -> usize {
    let h = ocep_wal::fnv1a64(ocep_wal::FNV_OFFSET, name.as_bytes());
    (h % n_shards.max(1) as u64) as usize
}

/// Oracle-sharpness switches for the shard-transparency suite and the
/// simulator: each sabotages one step so the harness can prove it would
/// notice. The default injects nothing; no daemon sets a field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultHooks {
    /// The next data frame is not delivered to the partition owning the
    /// first registered monitor — the routing bug the shard-transparency
    /// suite must catch.
    pub misroute_next: bool,
    /// The next deliver record is silently left out of the log. The
    /// live engine still observes the event, so a later crash recovery
    /// diverges from the oracle — which must flag it.
    pub drop_next_append: bool,
}

/// What [`ShardGroup::deliver`] (and batch/flush) hands back to the
/// engine.
pub struct DeliverOut {
    /// Verdicts merged across partitions by
    /// `(delivery_seq, registration index)` — the single-set order.
    pub verdicts: Vec<(String, Match)>,
    /// Guard faults raised by this operation.
    pub faults: Vec<IngestFault>,
    /// LSN of the newest log record (0 without a log).
    pub last_lsn: u64,
}

/// One registry row: a live monitor, where it routes, and what is
/// needed to checkpoint it.
struct RegEntry {
    name: String,
    /// Pattern source, when known.
    source: Option<String>,
    part: usize,
}

/// The engine's data plane (see the [module docs](self)).
#[derive(Default)]
pub struct ShardGroup {
    /// One set per partition, holding the monitors [`route_of`] assigns
    /// to it.
    parts: Vec<MonitorSet>,
    n_traces: usize,
    guard: Option<AdmissionGuard>,
    /// Sequence number of the next delivery.
    next_seq: u64,
    /// Live monitors in registration order.
    registry: Vec<RegEntry>,
    /// Monitor name → its `registry` index (the merge key).
    index_of: HashMap<String, usize>,
    /// Every verdict reported so far as `(firing LSN, monitor, match)` —
    /// what a checkpoint record carries so a recovered server can
    /// reprint its history and serve `tail --from`.
    history: Vec<(u64, String, Match)>,
    wal: Option<Wal>,
    last_lsn: u64,
    wal_append_errors: u64,
    /// Durable deliver count per producer session.
    durable: HashMap<String, u64>,
    recovered_events: u64,
    hooks: FaultHooks,
}

impl std::fmt::Debug for ShardGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardGroup")
            .field("shards", &self.parts.len())
            .field("registry", &self.registry.len())
            .finish_non_exhaustive()
    }
}

impl ShardGroup {
    /// Distributes `set` across `n_shards` partitions (`0` means one) by
    /// [`route_of`], behind the set's own guard. `sources` supplies
    /// pattern text per monitor name (needed to checkpoint a monitor).
    #[must_use]
    pub fn new(set: MonitorSet, n_shards: usize, sources: &HashMap<String, String>) -> ShardGroup {
        let n_traces = set.n_traces();
        let mut group = ShardGroup {
            parts: (0..n_shards.max(1))
                .map(|_| MonitorSet::new(n_traces))
                .collect(),
            n_traces,
            ..ShardGroup::default()
        };
        group.adopt(set, |name| sources.get(name).cloned());
        group
    }

    /// Replaces guard, registry and partition contents with `set`'s.
    fn adopt(&mut self, set: MonitorSet, source_of: impl Fn(&str) -> Option<String>) {
        let (n_traces, entries, guard) = set.into_parts();
        self.guard = guard;
        self.registry.clear();
        self.index_of.clear();
        for part in &mut self.parts {
            *part = MonitorSet::new(n_traces);
        }
        for (name, monitor) in entries {
            let source = source_of(&name);
            self.install(name, source, monitor);
        }
    }

    /// Arms fault injection (see [`FaultHooks`]).
    pub fn set_fault_hooks(&mut self, hooks: FaultHooks) {
        self.hooks = hooks;
    }

    /// Number of partitions.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.parts.len()
    }

    /// Number of traces in the monitored computation.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.n_traces
    }

    /// True when `name` is currently registered.
    #[must_use]
    pub fn is_live(&self, name: &str) -> bool {
        self.index_of.contains_key(name)
    }

    /// Live monitor names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.registry.iter().map(|e| e.name.as_str())
    }

    /// Durable deliver count for `session` (what `Resume` reports).
    #[must_use]
    pub fn durable(&self, session: &str) -> u64 {
        self.durable.get(session).copied().unwrap_or(0)
    }

    /// True while a durable log is open (false when none was configured,
    /// and after an append failure degraded it).
    #[must_use]
    pub fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// LSN of the newest log record (0 without a log).
    #[must_use]
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// Log append and flush failures; the first one closes the log.
    #[must_use]
    pub fn wal_append_errors(&self) -> u64 {
        self.wal_append_errors
    }

    /// Events replayed from the log by [`ShardGroup::recover`].
    #[must_use]
    pub fn recovered_events(&self) -> u64 {
        self.recovered_events
    }

    /// Every verdict reported so far as `(firing LSN, monitor, match)`,
    /// recovered history included.
    #[must_use]
    pub fn history(&self) -> &[(u64, String, Match)] {
        &self.history
    }

    /// Does nothing: every partition runs inline. Kept, with its
    /// signature, for callers written when partitions could run on
    /// threads of their own.
    pub fn start_threads(&mut self) {}

    /// Does nothing: there are no partition threads to stop. Kept, with
    /// its signature, beside [`ShardGroup::start_threads`].
    pub fn seal(&mut self) {}

    /// The monitor registered under `name`.
    #[must_use]
    pub fn monitor(&self, name: &str) -> Option<&Monitor> {
        let &i = self.index_of.get(name)?;
        self.parts[self.registry[i].part].monitor(name)
    }

    /// Live `(name, monitor)` pairs in registration order.
    pub fn live_monitors(&self) -> impl Iterator<Item = (&str, &Monitor)> {
        self.registry.iter().filter_map(|e| {
            self.parts[e.part]
                .monitor(&e.name)
                .map(|m| (e.name.as_str(), m))
        })
    }

    /// `(name, monitor, pattern source)` for every live monitor with a
    /// known source, in registration order: the monitors a checkpoint
    /// can carry.
    fn saved(&self) -> Vec<(&str, &Monitor, &str)> {
        self.registry
            .iter()
            .filter_map(|e| {
                let m = self.parts[e.part].monitor(&e.name)?;
                Some((e.name.as_str(), m, e.source.as_deref()?))
            })
            .collect()
    }

    // ---- the log ------------------------------------------------------

    /// Counts a log failure and closes the log: a sick disk costs
    /// durability, not ingest.
    fn degrade(&mut self) {
        self.wal_append_errors += 1;
        self.wal = None;
    }

    fn append(&mut self, rtype: u8, payload: &[u8]) -> Option<u64> {
        match self.wal.as_mut()?.append(rtype, payload) {
            Ok(lsn) => {
                self.last_lsn = lsn;
                Some(lsn)
            }
            Err(_) => {
                self.degrade();
                None
            }
        }
    }

    /// Appends `[session:str][Event frame body]` for a raw arrival about
    /// to enter the guard; true when the record was logged.
    fn append_deliver(&mut self, session: &str, e: &Event) -> bool {
        if self.wal.is_none() || std::mem::take(&mut self.hooks.drop_next_append) {
            return false;
        }
        let mut payload = Vec::with_capacity(32 + 4 * e.clock().len());
        put_str(&mut payload, session);
        put_event_body(&mut payload, e);
        self.append(REC_DELIVER, &payload).is_some()
    }

    /// Hands buffered log appends to the kernel. Must run before any
    /// frame an observer could treat as an acknowledgement leaves the
    /// engine: once a client sees an ack, the corresponding records have
    /// to survive a SIGKILL, and kernel-visible is exactly that line.
    pub fn flush_os(&mut self) {
        if self.wal.as_mut().is_some_and(|wal| wal.flush_os().is_err()) {
            self.degrade();
        }
    }

    // ---- ingest -------------------------------------------------------

    /// Logs one raw event, admits it, and matches whatever the guard
    /// released.
    pub fn deliver(&mut self, session: &str, event: &Event) -> DeliverOut {
        self.deliver_raw(session, std::slice::from_ref(event))
    }

    /// [`ShardGroup::deliver`] for a whole frame: bit-identical to
    /// delivering its events one by one, with one pass over the
    /// partitions.
    pub fn deliver_batch(&mut self, session: &str, events: Vec<Event>) -> DeliverOut {
        self.deliver_raw(session, &events)
    }

    fn deliver_raw(&mut self, session: &str, events: &[Event]) -> DeliverOut {
        let logged = events
            .iter()
            .filter(|e| self.append_deliver(session, e))
            .count();
        if logged > 0 {
            *self.durable.entry(session.to_owned()).or_insert(0) += logged as u64;
        }
        let admitted = self.admit(events);
        self.dispatch(&admitted)
    }

    /// Logs and performs a guard flush (end of stream or a `Flush`
    /// frame): whatever the reorder buffer still holds is delivered.
    pub fn flush(&mut self) -> DeliverOut {
        self.append(REC_FLUSH, &[]);
        let admitted = self.admit_flush();
        self.dispatch(&admitted)
    }

    fn admit(&mut self, raw: &[Event]) -> Vec<Event> {
        let mut admitted = Vec::new();
        match &mut self.guard {
            Some(guard) => guard.admit_batch(raw, &mut admitted),
            None => admitted.extend_from_slice(raw),
        }
        admitted
    }

    fn admit_flush(&mut self) -> Vec<Event> {
        let mut admitted = Vec::new();
        if let Some(guard) = &mut self.guard {
            guard.flush(&mut admitted);
        }
        admitted
    }

    /// Stamps `admitted` with delivery sequence numbers, has every
    /// partition observe it, merges the verdicts into single-set order
    /// and retains them at the current LSN.
    fn dispatch(&mut self, admitted: &[Event]) -> DeliverOut {
        let skip = if std::mem::take(&mut self.hooks.misroute_next) {
            self.registry.first().map(|e| e.part)
        } else {
            None
        };
        let first_seq = self.next_seq;
        self.next_seq += admitted.len() as u64;
        let mut tagged = Vec::new();
        for (i, part) in self.parts.iter_mut().enumerate() {
            if Some(i) == skip {
                continue;
            }
            for (seq, e) in (first_seq..).zip(admitted) {
                tagged.extend(part.observe(e).into_iter().map(|(n, m)| (seq, n, m)));
            }
        }
        if self.parts.len() > 1 {
            tagged.sort_by_cached_key(|(seq, name, _)| (*seq, self.index_of.get(name).copied()));
        }
        let verdicts: Vec<(String, Match)> = tagged.into_iter().map(|(_, n, m)| (n, m)).collect();
        for (name, m) in &verdicts {
            self.history.push((self.last_lsn, name.clone(), m.clone()));
        }
        DeliverOut {
            verdicts,
            faults: self
                .guard
                .as_mut()
                .map(AdmissionGuard::take_faults)
                .unwrap_or_default(),
            last_lsn: self.last_lsn,
        }
    }

    /// The guard's ingestion counters (all zero without a guard).
    #[must_use]
    pub fn ingest_stats(&self) -> IngestStats {
        self.guard.as_ref().map(|g| *g.stats()).unwrap_or_default()
    }

    /// Merged metrics: monitor families from every partition, guard
    /// (`ocep_ingest_*`) families from the one guard.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for part in &self.parts {
            total.absorb(&part.metrics());
        }
        if let Some(guard) = &self.guard {
            total.record_ingest(guard.stats());
        }
        total
    }

    // ---- the registry -------------------------------------------------

    /// Appends `monitor` to the registry and hands it to its partition.
    fn install(&mut self, name: String, source: Option<String>, monitor: Monitor) {
        let part = route_of(&name, self.parts.len());
        self.index_of.insert(name.clone(), self.registry.len());
        self.registry.push(RegEntry {
            name: name.clone(),
            source,
            part,
        });
        self.parts[part].insert_monitor(name, monitor);
    }

    fn add_monitor(
        &mut self,
        name: &str,
        source: &str,
        config: MonitorConfig,
    ) -> Result<(), String> {
        let pattern = Pattern::parse(source).map_err(|e| e.to_string())?;
        let monitor = Monitor::with_config(pattern, self.n_traces, config);
        self.install(name.to_owned(), Some(source.to_owned()), monitor);
        Ok(())
    }

    fn remove_monitor(&mut self, name: &str) -> bool {
        let Some(idx) = self.index_of.remove(name) else {
            return false;
        };
        let part = self.registry.remove(idx).part;
        for (i, e) in self.registry.iter().enumerate().skip(idx) {
            self.index_of.insert(e.name.clone(), i);
        }
        self.parts[part].remove(name);
        true
    }

    /// Registers `name` mid-stream: logged, appended to the registry,
    /// and installed on its partition.
    ///
    /// # Errors
    ///
    /// An unparsable pattern source; nothing is logged or changed.
    pub fn register(
        &mut self,
        name: &str,
        source: &str,
        config: MonitorConfig,
    ) -> Result<(), String> {
        self.add_monitor(name, source, config)?;
        let mut payload = Vec::new();
        put_str(&mut payload, name);
        put_str(&mut payload, source);
        self.append(REC_REGISTER, &payload);
        Ok(())
    }

    /// Unregisters `name` and logs it; false when it was not live.
    pub fn unregister(&mut self, name: &str) -> bool {
        if !self.remove_monitor(name) {
            return false;
        }
        let mut payload = Vec::new();
        put_str(&mut payload, name);
        self.append(REC_UNREGISTER, &payload);
        true
    }

    // ---- checkpoints --------------------------------------------------

    /// The whole set — every monitor with a known source plus the
    /// guard's reorder state — as one `OCKS` blob, byte-identical to
    /// what [`ocep_core::save_set`] writes for one set holding every
    /// monitor.
    #[must_use]
    pub fn checkpoint_set(&self) -> Vec<u8> {
        save_parts_at(self.n_traces, &self.saved(), self.guard.as_ref(), 0)
    }

    /// A `REC_CHECKPOINT` payload: the set-level `OCKS` blob anchored at
    /// the current LSN, then the verdict history.
    fn checkpoint_payload(&self) -> Vec<u8> {
        let ocks = save_parts_at(
            self.n_traces,
            &self.saved(),
            self.guard.as_ref(),
            self.last_lsn,
        );
        let mut payload = Vec::new();
        put_u32(&mut payload, ocks.len() as u32);
        payload.extend_from_slice(&ocks);
        put_u32(&mut payload, self.history.len() as u32);
        for (lsn, name, m) in &self.history {
            put_u64(&mut payload, *lsn);
            put_str(&mut payload, name);
            let body = encode_body(&Frame::EventBatch(m.events().to_vec()));
            put_u32(&mut payload, body.len() as u32);
            payload.extend_from_slice(&body);
        }
        payload
    }

    /// Anchors a checkpoint record in the log — synced regardless of
    /// durability mode, since a checkpoint that may vanish anchors
    /// nothing — then writes one `.ockp` file per monitor with a known
    /// source into `dir`. Returns the files written, in registration
    /// order.
    ///
    /// # Errors
    ///
    /// A checkpoint file or directory that could not be written.
    pub fn checkpoint(&mut self, dir: Option<&Path>) -> Result<Vec<PathBuf>, String> {
        if self.wal.is_some() {
            let payload = self.checkpoint_payload();
            self.append(REC_CHECKPOINT, &payload);
            // A failed append closed the log; otherwise make it stick.
            if let Some(wal) = &mut self.wal {
                let _ = wal.sync();
            }
        }
        let Some(dir) = dir else {
            return Ok(Vec::new());
        };
        let mut written = Vec::new();
        for (name, m, src) in self.saved() {
            // Tenant monitors are named `{tenant}/{pattern}`, so a file
            // can live one directory down.
            let path = dir.join(format!("{name}.ockp"));
            let parent = path.parent().unwrap_or(dir);
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
            replace_file(&path, &save_at(m, src, self.last_lsn))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            written.push(path);
        }
        Ok(written)
    }

    /// Restores guard, registry, partitions and verdict history from a
    /// `REC_CHECKPOINT` payload.
    fn load_checkpoint(&mut self, payload: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(payload);
        let ocks_len = r.u32("ocks length").map_err(text)? as usize;
        let ocks = r.bytes(ocks_len, "ocks blob").map_err(text)?;
        let (set, sources, _lsn) = load_set_at(ocks).map_err(text)?;
        let sources: HashMap<String, String> = sources.into_iter().collect();
        self.adopt(set, |name| sources.get(name).cloned());
        self.history.clear();
        // An lsn, a name, a body length and a one-byte body at the least.
        for i in 0..r.count("verdicts", 17).map_err(text)? {
            let mut entry = || {
                let lsn = r.u64("lsn")?;
                let name = r.str("monitor")?.to_owned();
                let body_len = r.u32("body length")? as usize;
                Ok((lsn, name, r.bytes(body_len, "events")?))
            };
            let (lsn, name, body) = entry().map_err(nth("verdict", i)).map_err(text)?;
            let Frame::EventBatch(events) = decode_body(body).map_err(text)? else {
                return Err(format!("verdict {i} payload is not an event batch"));
            };
            // A verdict can outlive its monitor (unregistered after it
            // fired); without the pattern its bindings cannot be
            // rebuilt, so the historic entry is dropped.
            let Some(pattern) = self.monitor(&name).map(Monitor::pattern_arc) else {
                continue;
            };
            let m = Match::from_bound_events(pattern, events)?;
            self.history.push((lsn, name, m));
        }
        r.finish().map_err(text)
    }

    // ---- recovery -----------------------------------------------------

    /// Opens the log under `dir` and rebuilds the group from it: durable
    /// session offsets from every deliver record, state and verdict
    /// history from the newest checkpoint, then everything after it
    /// replayed through the guard and the partitions. Must run before
    /// any frame.
    ///
    /// # Errors
    ///
    /// A corrupt log (anything the repair scan cannot attribute to a
    /// torn tail) or an undecodable record, diagnosed with its position;
    /// a log root still holding the per-shard `wal-shard-{i}`
    /// directories older versions wrote.
    pub fn recover(&mut self, dir: &Path, durability: Durability) -> Result<(), String> {
        if let Some(legacy) = std::fs::read_dir(dir).ok().and_then(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .find(|name| name.starts_with("wal-shard-"))
        }) {
            return Err(format!(
                "{} holds per-shard logs ({legacy}) from an older version; \
                 this version keeps one log under the root and does not read them \
                 (docs/DURABILITY.md)",
                dir.display()
            ));
        }
        let opts = WalOptions {
            durability,
            ..WalOptions::default()
        };
        let (wal, recovery) = Wal::open(dir, opts).map_err(|e| e.to_string())?;
        self.replay(&recovery.records)?;
        self.last_lsn = recovery.records.last().map_or(0, |r| r.lsn);
        self.wal = Some(wal);
        Ok(())
    }

    /// Applies a scanned record sequence (see [`ShardGroup::recover`]).
    fn replay(&mut self, records: &[Record]) -> Result<(), String> {
        let checkpoint = records.iter().rposition(|r| r.rtype == REC_CHECKPOINT);
        for (i, rec) in records.iter().enumerate() {
            let at = |e: String| format!("log record at lsn {}: {e}", rec.lsn);
            // Records before the newest checkpoint are already part of
            // it — except that producers number their session events
            // from the start of the stream, so every deliver counts.
            let live = checkpoint.is_none_or(|c| i > c);
            match rec.rtype {
                REC_DELIVER => {
                    let (session, e) = decode_deliver(&rec.payload).map_err(at)?;
                    *self.durable.entry(session).or_insert(0) += 1;
                    if live {
                        self.last_lsn = rec.lsn;
                        self.recovered_events += 1;
                        let admitted = self.admit(std::slice::from_ref(&e));
                        self.dispatch(&admitted);
                    }
                }
                REC_CHECKPOINT if checkpoint == Some(i) => {
                    self.load_checkpoint(&rec.payload).map_err(at)?;
                }
                _ if !live => {}
                REC_FLUSH => {
                    self.last_lsn = rec.lsn;
                    let admitted = self.admit_flush();
                    self.dispatch(&admitted);
                }
                REC_REGISTER => {
                    self.last_lsn = rec.lsn;
                    let (name, source) = decode_register(&rec.payload).map_err(at)?;
                    if !self.is_live(&name) {
                        self.add_monitor(&name, &source, MonitorConfig::default())
                            .map_err(at)?;
                    }
                }
                REC_UNREGISTER => {
                    self.last_lsn = rec.lsn;
                    let name = decode_unregister(&rec.payload).map_err(at)?;
                    self.remove_monitor(&name);
                }
                // Includes the watermark records older versions wrote:
                // nothing in them changes what the partitions match.
                _ => {}
            }
        }
        Ok(())
    }
}

/// Writes `bytes` to a sibling temporary, makes them durable, and
/// renames it over `path`: dying at any point leaves either the previous
/// file or the new one whole, never a torn one.
fn replace_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)
}

/// A decode error as the diagnostic line recovery prints.
fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Decodes a whole record payload with `f`; bytes left over are an error.
fn decode_payload<'a, T>(
    payload: &'a [u8],
    f: impl FnOnce(&mut Reader<'a>) -> Result<T, PoetError>,
) -> Result<T, String> {
    let mut r = Reader::new(payload);
    let out = f(&mut r).and_then(|out| r.finish().map(|()| out));
    out.map_err(text)
}

/// Decodes a `REC_DELIVER` payload: `[session:str][Event frame body]`.
///
/// # Errors
///
/// A structural diagnostic with a byte offset; never panics.
pub fn decode_deliver(payload: &[u8]) -> Result<(String, Event), String> {
    let (session, body) = decode_payload(payload, |r| {
        let session = r.str("deliver session")?.to_owned();
        Ok((session, r.bytes(r.remaining(), "deliver event frame")?))
    })?;
    match decode_body(body).map_err(text)? {
        Frame::Event(e) => Ok((session, *e)),
        other => Err(format!(
            "deliver payload carries a {} frame, expected event",
            other.type_name()
        )),
    }
}

fn decode_register(payload: &[u8]) -> Result<(String, String), String> {
    decode_payload(payload, |r| {
        let name = r.str("register name")?.to_owned();
        Ok((name, r.str("register source")?.to_owned()))
    })
}

fn decode_unregister(payload: &[u8]) -> Result<String, String> {
    decode_payload(payload, |r| Ok(r.str("unregister name")?.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_core::ingest::GuardConfig;
    use ocep_poet::{EventKind, PoetServer};
    use ocep_vclock::TraceId;

    const HB: &str = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";
    const CONC: &str = "X := [*, a, *]; Y := [*, c, *]; pattern := X || Y;";
    const LONE: &str = "C := [*, c, *]; pattern := C;";
    const ALL: [(&str, &str); 3] = [("hb", HB), ("conc", CONC), ("lone", LONE)];

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    /// The frozen benchmark's tenant names and `tests/wal_layout.rs`
    /// rely on which partition a name lands on.
    #[test]
    fn routing_of_known_names_stays_put() {
        assert_eq!(route_of("t0/deadlock", 2), 1);
        assert_eq!(route_of("t7/deadlock", 2), 0);
        assert_eq!(route_of("acme/late", 4), 0);
        assert_eq!(route_of("pings", 8), 6);
        assert_eq!(route_of("pings", 0), 0, "zero shards route like one");
    }

    fn build_set(names: &[(&str, &str)]) -> (MonitorSet, HashMap<String, String>) {
        let mut set = MonitorSet::new(2);
        let mut sources = HashMap::new();
        for (name, src) in names {
            set.add(*name, Pattern::parse(src).unwrap());
            sources.insert((*name).to_owned(), (*src).to_owned());
        }
        set.enable_guard(GuardConfig::default());
        (set, sources)
    }

    fn build_group(names: &[(&str, &str)], shards: usize) -> ShardGroup {
        let (set, sources) = build_set(names);
        ShardGroup::new(set, shards, &sources)
    }

    /// Under the workspace's ignored `target/`: this crate reads no
    /// environment, its tests included.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
            .join(format!("ocep-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn scrambled_stream() -> Vec<Event> {
        let mut poet = PoetServer::new(2);
        let s = poet.record(t(0), EventKind::Send, "a", "");
        poet.record_receive(t(1), s.id(), "b", "");
        poet.record(t(1), EventKind::Unary, "c", "");
        let events: Vec<Event> = poet.linearization().collect();
        vec![
            events[1].clone(),
            events[0].clone(),
            events[0].clone(), // duplicate
            events[2].clone(),
        ]
    }

    fn single_reference(stream: &[Event]) -> (Vec<String>, IngestStats) {
        let (mut set, _) = build_set(&ALL);
        let mut names = Vec::new();
        for e in stream {
            names.extend(set.observe_raw(e).into_iter().map(|(n, _)| n));
        }
        names.extend(set.flush_guard().into_iter().map(|(n, _)| n));
        (names, set.ingest_stats())
    }

    fn group_names(group: &mut ShardGroup, stream: &[Event]) -> Vec<String> {
        let mut names = Vec::new();
        for e in stream {
            let out = group.deliver("s", e);
            names.extend(out.verdicts.into_iter().map(|(n, _)| n));
        }
        names.extend(group.flush().verdicts.into_iter().map(|(n, _)| n));
        names
    }

    fn history_names(group: &ShardGroup) -> Vec<String> {
        group.history().iter().map(|(_, n, _)| n.clone()).collect()
    }

    #[test]
    fn sharded_group_matches_single_set() {
        let stream = scrambled_stream();
        let (reference, ref_stats) = single_reference(&stream);
        assert!(!reference.is_empty());
        for shards in [0, 1, 2, 4, 8] {
            let mut group = build_group(&ALL, shards);
            let names = group_names(&mut group, &stream);
            assert_eq!(names, reference, "shards={shards}");
            assert_eq!(group.ingest_stats(), ref_stats, "shards={shards}");
        }
    }

    #[test]
    fn batch_delivery_matches_per_event() {
        let stream = scrambled_stream();
        let (reference, _) = single_reference(&stream);
        let mut group = build_group(&ALL, 3);
        let mut names: Vec<String> = group
            .deliver_batch("s", stream.clone())
            .verdicts
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        names.extend(group.flush().verdicts.into_iter().map(|(n, _)| n));
        assert_eq!(names, reference);
    }

    #[test]
    fn misroute_sabotage_is_observable() {
        let stream = scrambled_stream();
        let (reference, _) = single_reference(&stream);
        let mut group = build_group(&ALL, 2);
        group.set_fault_hooks(FaultHooks {
            misroute_next: true,
            ..FaultHooks::default()
        });
        let names: Vec<String> = group
            .deliver_batch("s", stream)
            .verdicts
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_ne!(
            names, reference,
            "a mis-routed frame must change the merged verdict stream"
        );
    }

    #[test]
    fn registration_and_removal_route_to_owning_partitions() {
        let mut group = build_group(&[("hb", HB)], 4);
        group
            .register("t0/lone", LONE, MonitorConfig::default())
            .unwrap();
        assert!(group.is_live("t0/lone"));
        assert!(group
            .register("t0/bad", "pattern :=", MonitorConfig::default())
            .is_err());
        assert!(!group.is_live("t0/bad"));
        let names = group_names(&mut group, &scrambled_stream());
        assert!(names.iter().any(|n| n == "t0/lone"), "{names:?}");
        assert!(group.unregister("t0/lone"));
        assert!(!group.unregister("t0/lone"));
        assert_eq!(group.names().collect::<Vec<_>>(), ["hb"]);
    }

    #[test]
    fn one_log_recovers_the_group_at_any_partition_count() {
        let tmp = scratch_dir("rec");
        let stream = scrambled_stream();
        let (reference, ref_stats) = single_reference(&stream);

        let mut group = build_group(&ALL, 2);
        group.recover(&tmp, Durability::Strict).unwrap();
        assert!(group.history().is_empty());
        assert_eq!(group_names(&mut group, &stream), reference);
        assert_eq!(group.durable("s"), 4);
        drop(group);

        // A fresh group (simulated process restart) replays the one log
        // — whatever its partition count — and reprints the same merged
        // verdict history.
        for shards in [0, 2, 4] {
            let image = scratch_dir("rec-image");
            std::fs::create_dir_all(&image).unwrap();
            for entry in std::fs::read_dir(&tmp).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
            }
            let mut again = build_group(&ALL, shards);
            again.recover(&image, Durability::Strict).unwrap();
            assert_eq!(history_names(&again), reference, "shards={shards}");
            assert_eq!(again.durable("s"), 4);
            assert_eq!(again.recovered_events(), 4);
            assert_eq!(again.ingest_stats(), ref_stats);
            let _ = std::fs::remove_dir_all(&image);
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }

    /// A failed append closes the one log for every partition at once:
    /// the error is counted, session offsets stop advancing, and ingest
    /// carries on non-durably.
    #[test]
    fn append_failure_degrades_to_non_durable_at_two_shards() {
        let tmp = scratch_dir("degrade");
        let stream = scrambled_stream();
        let (reference, _) = single_reference(&stream);
        let mut group = build_group(&ALL, 2);
        group.recover(&tmp, Durability::None).unwrap();
        let mut names: Vec<String> = Vec::new();
        for e in &stream[..2] {
            names.extend(group.deliver("s", e).verdicts.into_iter().map(|(n, _)| n));
        }
        assert_eq!(group.durable("s"), 2);
        assert_eq!(group.wal_append_errors(), 0);

        // The log directory vanishes; the open segment still takes
        // writes, so the next record that needs a new segment — one
        // larger than a whole segment — is the append that fails.
        std::fs::remove_dir_all(&tmp).unwrap();
        let padded = format!("{}{LONE}", " ".repeat(9 << 20));
        group
            .register("t0/padded", &padded, MonitorConfig::default())
            .unwrap();
        assert_eq!(group.wal_append_errors(), 1);
        assert!(!group.has_wal());
        assert!(group.unregister("t0/padded"));

        for e in &stream[2..] {
            names.extend(group.deliver("s", e).verdicts.into_iter().map(|(n, _)| n));
        }
        names.extend(group.flush().verdicts.into_iter().map(|(n, _)| n));
        assert_eq!(names, reference, "ingest continues");
        assert_eq!(group.durable("s"), 2, "durable offset stops advancing");
        assert_eq!(group.wal_append_errors(), 1);
    }
}
