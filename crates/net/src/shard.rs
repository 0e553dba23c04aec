//! The engine's data plane: one log in front of one matcher set.
//!
//! A [`ShardGroup`] runs one pipeline:
//!
//! ```text
//! raw arrival → log append → MonitorSet (its AdmissionGuard, then every monitor)
//! ```
//!
//! The causal linearization is a property of the stream, so it is
//! derived once, by the guard the [`MonitorSet`] keeps in front of its
//! monitors; the group adds the one durable [`Wal`], the pattern source
//! of every monitor (what a checkpoint needs) and the verdict history a
//! recovered server reprints. Verdicts come out in the set's own order —
//! by arrival, then by registration — which is the paper's one sequential
//! monitor fed one linearization (§V-A).
//!
//! The engine never uses [`route_of`], the `n_shards` argument of
//! [`ShardGroup::new`], [`ShardGroup::start_threads`] or
//! [`ShardGroup::seal`]; they stay because the repository benchmark,
//! which ordinary changes may not edit, still links them.

use crate::wire::{decode_body, encode_body, put_event_body, Frame};
use ocep_core::ingest::{IngestFault, IngestStats};
use ocep_core::{
    load_set_at, save_set_at, Match, MetricsSnapshot, Monitor, MonitorConfig, MonitorSet,
};
use ocep_pattern::Pattern;
use ocep_poet::codec::{nth, put_str, put_u32, put_u64, Reader};
use ocep_poet::{Event, PoetError};
use ocep_wal::{
    Durability, Record, Wal, WalOptions, REC_CHECKPOINT, REC_DELIVER, REC_FLUSH, REC_REGISTER,
    REC_UNREGISTER,
};
use std::collections::HashMap;
use std::path::Path;

/// `fnv1a64(name) % n_shards`: the partition a monitor named `name`
/// would land on among `n_shards`. Nothing in the engine calls it; the
/// repository benchmark still reports its `shard.skew` figure from it.
#[must_use]
pub fn route_of(name: &str, n_shards: usize) -> usize {
    let h = ocep_wal::fnv1a64(ocep_wal::FNV_OFFSET, name.as_bytes());
    (h % n_shards.max(1) as u64) as usize
}

/// Oracle-sharpness switch for the simulator: sabotages one step so the
/// harness can prove it would notice. The default injects nothing; no
/// daemon sets it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultHooks {
    /// The next deliver record is silently left out of the log. The
    /// live engine still observes the event, so a later crash recovery
    /// diverges from the oracle — which must flag it.
    pub drop_next_append: bool,
}

/// What [`ShardGroup::deliver_batch`] (and flush) hands back to the
/// engine.
pub struct DeliverOut {
    /// Verdicts in report order: by arrival, then by registration.
    pub verdicts: Vec<(String, Match)>,
    /// Guard faults raised by this operation.
    pub faults: Vec<IngestFault>,
    /// LSN of the newest log record (0 without a log).
    pub last_lsn: u64,
}

/// The engine's data plane (see the [module docs](self)).
#[derive(Default)]
pub struct ShardGroup {
    /// Every live monitor, in registration order, behind the set's own
    /// admission guard.
    set: MonitorSet,
    /// Pattern source per monitor name: the monitors a checkpoint can
    /// carry are the live ones with an entry here.
    sources: HashMap<String, String>,
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
            .field("monitors", &self.set.len())
            .field("verdicts", &self.history.len())
            .finish_non_exhaustive()
    }
}

impl ShardGroup {
    /// The data plane over `set`, behind the set's own guard. `sources`
    /// supplies pattern text per monitor name (needed to checkpoint a
    /// monitor). `_n_shards` is ignored: the repository benchmark still
    /// passes a partition count.
    #[must_use]
    pub fn new(set: MonitorSet, _n_shards: usize, sources: &HashMap<String, String>) -> ShardGroup {
        ShardGroup {
            set,
            sources: sources.clone(),
            ..ShardGroup::default()
        }
    }

    /// Arms fault injection (see [`FaultHooks`]).
    pub fn set_fault_hooks(&mut self, hooks: FaultHooks) {
        self.hooks = hooks;
    }

    /// Number of traces in the monitored computation.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.set.n_traces()
    }

    /// True when `name` is currently registered.
    #[must_use]
    pub fn is_live(&self, name: &str) -> bool {
        self.set.monitor(name).is_some()
    }

    /// Live monitor names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.set.iter().map(|(name, _)| name)
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

    /// Does nothing: there are no partitions to start. Kept, with its
    /// signature, because the repository benchmark calls it.
    pub fn start_threads(&mut self) {}

    /// Does nothing: there are no partitions to stop. Kept, with its
    /// signature, beside [`ShardGroup::start_threads`].
    pub fn seal(&mut self) {}

    /// The monitor registered under `name`.
    #[must_use]
    pub fn monitor(&self, name: &str) -> Option<&Monitor> {
        self.set.monitor(name)
    }

    /// Live `(name, monitor)` pairs in registration order.
    pub fn live_monitors(&self) -> impl Iterator<Item = (&str, &Monitor)> {
        self.set.iter()
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

    /// Logs a frame's raw events, admits them in one guard pass, and
    /// matches whatever the guard released: bit-identical to delivering
    /// the events one by one.
    pub fn deliver_batch(&mut self, session: &str, events: Vec<Event>) -> DeliverOut {
        let logged = events
            .iter()
            .filter(|e| self.append_deliver(session, e))
            .count();
        if logged > 0 {
            *self.durable.entry(session.to_owned()).or_insert(0) += logged as u64;
        }
        let verdicts = self.set.observe_raw_batch(&events);
        self.retain(verdicts)
    }

    /// Logs and performs a guard flush (end of stream or a `Flush`
    /// frame): whatever the reorder buffer still holds is delivered.
    pub fn flush(&mut self) -> DeliverOut {
        self.append(REC_FLUSH, &[]);
        let verdicts = self.set.flush_guard();
        self.retain(verdicts)
    }

    /// Retains fresh verdicts at the current LSN and drains the guard's
    /// faults.
    fn retain(&mut self, verdicts: Vec<(String, Match)>) -> DeliverOut {
        for (name, m) in &verdicts {
            self.history.push((self.last_lsn, name.clone(), m.clone()));
        }
        DeliverOut {
            verdicts,
            faults: self.set.take_ingest_faults(),
            last_lsn: self.last_lsn,
        }
    }

    /// The guard's ingestion counters (all zero without a guard).
    #[must_use]
    pub fn ingest_stats(&self) -> IngestStats {
        self.set.ingest_stats()
    }

    /// The set's metrics: every monitor's families plus the guard's
    /// `ocep_ingest_*` ones.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.set.metrics()
    }

    // ---- the registry -------------------------------------------------

    fn add_monitor(
        &mut self,
        name: &str,
        source: &str,
        config: MonitorConfig,
    ) -> Result<(), String> {
        let pattern = Pattern::parse(source).map_err(|e| e.to_string())?;
        self.set.add_with_config(name, pattern, config);
        self.sources.insert(name.to_owned(), source.to_owned());
        Ok(())
    }

    fn remove_monitor(&mut self, name: &str) -> bool {
        if !self.set.remove(name) {
            return false;
        }
        self.sources.remove(name);
        true
    }

    /// Registers `name` mid-stream: logged and appended to the set.
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
    /// guard's reorder state — as one `OCKS` blob, what
    /// [`ocep_core::save_set_at`] writes at anchor 0.
    #[must_use]
    pub fn checkpoint_set(&self) -> Vec<u8> {
        save_set_at(&self.set, &self.sources, 0)
    }

    /// A `REC_CHECKPOINT` payload: the set-level `OCKS` blob anchored at
    /// the current LSN, then the verdict history.
    fn checkpoint_payload(&self) -> Vec<u8> {
        let ocks = save_set_at(&self.set, &self.sources, self.last_lsn);
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

    /// Anchors a checkpoint record in the log, synced regardless of
    /// durability mode, since a checkpoint that may vanish anchors
    /// nothing. Without a log there is nothing to anchor in, and this
    /// does nothing.
    pub fn checkpoint(&mut self) {
        if self.wal.is_none() {
            return;
        }
        let payload = self.checkpoint_payload();
        self.append(REC_CHECKPOINT, &payload);
        // A failed append closed the log; otherwise make it stick.
        if let Some(wal) = &mut self.wal {
            let _ = wal.sync();
        }
    }

    /// Restores the set, its sources and the verdict history from a
    /// `REC_CHECKPOINT` payload.
    fn load_checkpoint(&mut self, payload: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(payload);
        let ocks_len = r.u32("ocks length").map_err(text)? as usize;
        let ocks = r.bytes(ocks_len, "ocks blob").map_err(text)?;
        let (set, sources, _lsn) = load_set_at(ocks).map_err(text)?;
        self.set = set;
        self.sources = sources.into_iter().collect();
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
    /// replayed through the set. Must run before any frame.
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
                        let verdicts = self.set.observe_raw(&e);
                        self.retain(verdicts);
                    }
                }
                REC_CHECKPOINT if checkpoint == Some(i) => {
                    self.load_checkpoint(&rec.payload).map_err(at)?;
                }
                _ if !live => {}
                REC_FLUSH => {
                    self.last_lsn = rec.lsn;
                    let verdicts = self.set.flush_guard();
                    self.retain(verdicts);
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
                // nothing in them changes what the set matches.
                _ => {}
            }
        }
        Ok(())
    }
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
    use std::path::PathBuf;

    const HB: &str = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";
    const CONC: &str = "X := [*, a, *]; Y := [*, c, *]; pattern := X || Y;";
    const LONE: &str = "C := [*, c, *]; pattern := C;";
    const ALL: [(&str, &str); 3] = [("hb", HB), ("conc", CONC), ("lone", LONE)];

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    /// The repository benchmark's `shard.skew` figure reads these.
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

    fn build_group(names: &[(&str, &str)]) -> ShardGroup {
        let (set, sources) = build_set(names);
        ShardGroup::new(set, 0, &sources)
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
            let out = group.deliver_batch("s", vec![e.clone()]);
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
        let mut group = build_group(&ALL);
        assert_eq!(group_names(&mut group, &stream), reference);
        assert_eq!(group.ingest_stats(), ref_stats);
    }

    #[test]
    fn batch_delivery_matches_per_event() {
        let stream = scrambled_stream();
        let (reference, _) = single_reference(&stream);
        let mut group = build_group(&ALL);
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
    fn registration_and_removal_change_the_live_set() {
        let mut group = build_group(&[("hb", HB)]);
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
    fn one_log_recovers_the_group() {
        let tmp = scratch_dir("rec");
        let stream = scrambled_stream();
        let (reference, ref_stats) = single_reference(&stream);

        let mut group = build_group(&ALL);
        group.recover(&tmp, Durability::Strict).unwrap();
        assert!(group.history().is_empty());
        assert_eq!(group_names(&mut group, &stream), reference);
        assert_eq!(group.durable("s"), 4);
        drop(group);

        // A fresh group (simulated process restart) replays the log and
        // reprints the same verdict history.
        let mut again = build_group(&ALL);
        again.recover(&tmp, Durability::Strict).unwrap();
        assert_eq!(history_names(&again), reference);
        assert_eq!(again.durable("s"), 4);
        assert_eq!(again.recovered_events(), 4);
        assert_eq!(again.ingest_stats(), ref_stats);
        drop(again);
        let _ = std::fs::remove_dir_all(&tmp);
    }

    /// A failed append closes the log: the error is counted, session
    /// offsets stop advancing, and ingest carries on non-durably.
    #[test]
    fn append_failure_degrades_to_non_durable() {
        let tmp = scratch_dir("degrade");
        let stream = scrambled_stream();
        let (reference, _) = single_reference(&stream);
        let mut group = build_group(&ALL);
        group.recover(&tmp, Durability::None).unwrap();
        let mut names: Vec<String> = Vec::new();
        for e in &stream[..2] {
            names.extend(
                group
                    .deliver_batch("s", vec![e.clone()])
                    .verdicts
                    .into_iter()
                    .map(|(n, _)| n),
            );
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
            names.extend(
                group
                    .deliver_batch("s", vec![e.clone()])
                    .verdicts
                    .into_iter()
                    .map(|(n, _)| n),
            );
        }
        names.extend(group.flush().verdicts.into_iter().map(|(n, _)| n));
        assert_eq!(names, reference, "ingest continues");
        assert_eq!(group.durable("s"), 2, "durable offset stops advancing");
        assert_eq!(group.wal_append_errors(), 1);
    }
}
