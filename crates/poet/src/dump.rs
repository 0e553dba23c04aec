//! The dump/reload trace-file format (§V-B).
//!
//! The paper's methodology records each workload once, *dumps* the
//! collected trace-event data to a file, and *reloads* it so the saved
//! events are "passed to POET via the same interface used to collect
//! events from a running application". We reproduce that: a dump stores
//! the raw recorded actions (trace, kind, type, text, partner) in arrival
//! order, and [`reload`] replays them through a fresh [`PoetServer`],
//! which re-derives the vector timestamps — exercising exactly the live
//! ingest path.
//!
//! Decoding is hardened: a truncated, garbage, or version-mismatched file
//! always returns an [`Err`] carrying the byte offset where decoding
//! stopped — never a panic.
//!
//! # Format
//!
//! Little-endian, preceded by the magic `POET` and a `u16` version. The
//! string table and the record are the shared ones of [`crate::codec`]
//! (`docs/WIRE.md`, "Record grammar"): table-id strings, no stamp.
//!
//! ```text
//! magic      [u8;4] = b"POET"
//! version    u16    = 1
//! n_traces   u32
//! strings    string table (type & text attributes, deduplicated)
//! n_events   u64
//! records    one per event, arrival order: ClockForm::None
//! ```

use crate::codec::{
    get_action_record, nth, put_event_record, put_u16, put_u32, put_u64, ClockForm, Reader,
    StrTable,
};
use crate::{EventKind, PoetError, PoetServer, TraceStore};
use ocep_vclock::EventId;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"POET";
const VERSION: u16 = 1;
/// Most traces a dump may name. Reloading allocates per-trace tables
/// before the first event is read and a clock this wide for every
/// event after it (256 KiB each at the limit), so a larger count is
/// refused as damage rather than allocated for.
pub const MAX_TRACES: usize = 1 << 16;

/// Serializes a store's recorded actions to the dump format.
///
/// # Example
///
/// ```
/// use ocep_poet::{dump, EventKind, PoetServer};
/// use ocep_vclock::TraceId;
///
/// let mut poet = PoetServer::new(2);
/// let s = poet.record(TraceId::new(0), EventKind::Send, "s", "");
/// poet.record_receive(TraceId::new(1), s.id(), "r", "");
///
/// let bytes = dump::dump(poet.store());
/// let reloaded = dump::reload(&bytes).unwrap();
/// assert!(reloaded.store().content_eq(poet.store()));
/// ```
#[must_use]
pub fn dump(store: &TraceStore) -> Vec<u8> {
    let table = StrTable::of_events(store.iter_arrival());
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u16(&mut buf, VERSION);
    put_u32(&mut buf, store.n_traces() as u32);
    table.put(&mut buf);
    put_u64(&mut buf, store.len() as u64);
    for e in store.iter_arrival() {
        put_event_record(&mut buf, e, table.ids_of(e), &mut ClockForm::None);
    }
    buf
}

/// An incremental dump decoder: replays the recorded events one at a
/// time instead of materializing the whole server before the first event
/// is available.
///
/// This is the streaming interface a transport uses to put a recorded
/// dump *on the wire*: each decoded record is immediately replayed
/// through the internal [`PoetServer`] (re-deriving its vector
/// timestamp, exactly like [`reload`]) and its identifier handed back —
/// the event is in [`DumpStream::server`]'s store — so frames can go
/// out while the rest of the file is still unread. [`reload`] is a
/// thin drain of this type, so the two paths cannot diverge.
///
/// # Example
///
/// ```
/// use ocep_poet::{dump, EventKind, PoetServer};
/// use ocep_vclock::TraceId;
///
/// let mut poet = PoetServer::new(1);
/// poet.record(TraceId::new(0), EventKind::Unary, "tick", "");
/// let bytes = dump::dump(poet.store());
///
/// let mut stream = dump::DumpStream::open(&bytes).unwrap();
/// let first = stream.next_event().unwrap().unwrap();
/// assert_eq!(stream.server().store().get(first).unwrap().ty(), "tick");
/// assert!(stream.next_event().unwrap().is_none());
/// ```
#[derive(Debug)]
pub struct DumpStream<'a> {
    r: Reader<'a>,
    server: PoetServer,
    strings: Vec<Arc<str>>,
    /// Events not yet decoded.
    remaining: u64,
    /// Events decoded so far (for diagnostics).
    decoded: u64,
    /// Total events the header promised.
    total: u64,
}

impl<'a> DumpStream<'a> {
    /// Parses the header, string table, and event count; event records
    /// stay unread until [`DumpStream::next_event`].
    ///
    /// # Errors
    ///
    /// Returns [`PoetError`] on a bad magic, unsupported version, or a
    /// truncated header/string table (with the byte offset).
    pub fn open(data: &'a [u8]) -> Result<Self, PoetError> {
        let mut r = Reader::new(data);
        r.magic(MAGIC)?;
        let version = r
            .u16("version")
            .map_err(|_| PoetError::BadHeader("file shorter than header".into()))?;
        if version != VERSION {
            return Err(PoetError::BadHeader(format!(
                "unsupported version {version}"
            )));
        }
        let n_traces = r.u32("n_traces")? as usize;
        if n_traces > MAX_TRACES {
            return Err(PoetError::Corrupt(format!(
                "n_traces {n_traces} before byte {} exceeds the {MAX_TRACES}-trace limit",
                r.offset()
            )));
        }
        let strings = StrTable::get(&mut r)?;
        let total = r.u64("event count")?;
        Ok(DumpStream {
            r,
            server: PoetServer::new(n_traces),
            strings,
            remaining: total,
            decoded: 0,
            total,
        })
    }

    /// Number of traces in the recorded computation.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.server.n_traces()
    }

    /// Total events the header promises.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when the dump records no events at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The internal server holding everything replayed so far.
    #[must_use]
    pub fn server(&self) -> &PoetServer {
        &self.server
    }

    /// Consumes the stream, returning the replayed server.
    #[must_use]
    pub fn into_server(self) -> PoetServer {
        self.server
    }

    /// Decodes and replays the next event and returns its identifier;
    /// `Ok(None)` after the last one (at which point trailing garbage is
    /// rejected). A replayed record costs what recording it live costs —
    /// the stamp — and nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`PoetError`] on malformed records, unknown string or
    /// partner references, or trailing garbage — always with the byte
    /// offset, never a panic.
    pub fn next_event(&mut self) -> Result<Option<EventId>, PoetError> {
        if self.remaining == 0 {
            self.r.finish()?;
            return Ok(None);
        }
        let i = self.decoded;
        let at = self.r.offset();
        let rec =
            get_action_record(&mut self.r, &self.strings).map_err(nth("event", i as usize))?;
        if rec.trace.as_usize() >= self.server.n_traces() {
            return Err(PoetError::Inconsistent(format!(
                "event {i} names out-of-range trace {} (byte {at})",
                rec.trace
            )));
        }
        // A partner on anything but a receive is read and ignored.
        let id = match (rec.kind, rec.partner) {
            (EventKind::Receive, None) => {
                return Err(PoetError::Inconsistent(format!(
                    "receive event {i} has no partner (byte {at})"
                )));
            }
            (EventKind::Receive, Some(pid)) => {
                if self.server.store().get(pid).is_none() {
                    return Err(PoetError::Inconsistent(format!(
                        "receive event {i} names unknown partner {pid} (byte {at})"
                    )));
                }
                self.server
                    .record_receive_id(rec.trace, pid, rec.ty, rec.text)
            }
            (kind, _) => self.server.record_id(rec.trace, kind, rec.ty, rec.text),
        };
        self.remaining -= 1;
        self.decoded += 1;
        Ok(Some(id))
    }
}

/// Replays a dump through a fresh server, reconstructing all timestamps.
///
/// # Errors
///
/// Returns [`PoetError`] if the header, string table, or event records are
/// malformed, or if a receive names a partner that has not been recorded.
/// Every error carries the byte offset where decoding stopped.
pub fn reload(data: &[u8]) -> Result<PoetServer, PoetError> {
    let mut stream = DumpStream::open(data)?;
    while stream.next_event()?.is_some() {}
    Ok(stream.into_server())
}

/// Writes a dump to `path`.
///
/// # Errors
///
/// Returns [`PoetError::Io`] on filesystem failure.
pub fn dump_to_file(store: &TraceStore, path: impl AsRef<Path>) -> Result<(), PoetError> {
    std::fs::write(path, dump(store))?;
    Ok(())
}

/// Reads and replays a dump file.
///
/// # Errors
///
/// Returns [`PoetError`] on I/O failure or malformed content.
pub fn reload_from_file(path: impl AsRef<Path>) -> Result<PoetServer, PoetError> {
    let data = std::fs::read(path)?;
    reload(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_vclock::{EventId, EventIndex, TraceId};

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    fn sample() -> PoetServer {
        let mut poet = PoetServer::new(3);
        let s1 = poet.record(t(0), EventKind::Send, "sync", "leader");
        poet.record(t(1), EventKind::Unary, "snapshot", "");
        poet.record_receive(t(1), s1.id(), "sync", "leader");
        let s2 = poet.record(t(1), EventKind::Send, "forward", "");
        poet.record_receive(t(2), s2.id(), "forward", "");
        poet.record(t(2), EventKind::Unary, "apply", "x=1");
        poet
    }

    #[test]
    fn round_trip_preserves_content_and_clocks() {
        let original = sample();
        let bytes = dump(original.store());
        let reloaded = reload(&bytes).unwrap();
        assert!(reloaded.store().content_eq(original.store()));
        // Clocks were *re-derived*, not copied — verify one.
        let orig = original
            .store()
            .get(EventId::new(t(2), EventIndex::new(1)))
            .unwrap();
        let re = reloaded
            .store()
            .get(EventId::new(t(2), EventIndex::new(1)))
            .unwrap();
        assert_eq!(orig.clock(), re.clock());
    }

    #[test]
    fn file_round_trip() {
        let original = sample();
        let dir = std::env::temp_dir().join("ocep-poet-dump-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.poet");
        dump_to_file(original.store(), &path).unwrap();
        let reloaded = reload_from_file(&path).unwrap();
        assert!(reloaded.store().content_eq(original.store()));
    }

    #[test]
    fn stream_yields_events_incrementally_and_matches_reload() {
        let original = sample();
        let bytes = dump(original.store());
        let mut stream = DumpStream::open(&bytes).unwrap();
        assert_eq!(stream.n_traces(), 3);
        assert_eq!(stream.len(), 6);
        // The streamed events carry re-derived clocks identical to a
        // full reload's.
        let reloaded = reload(&bytes).unwrap();
        let mut streamed = 0;
        while let Some(id) = stream.next_event().unwrap() {
            let e = stream.server().store().get(id).unwrap();
            let r = reloaded.store().get(id).unwrap();
            assert_eq!(e.clock(), r.clock());
            assert_eq!(e.ty(), r.ty());
            streamed += 1;
        }
        assert_eq!(streamed, 6);
        assert!(stream.into_server().store().content_eq(original.store()));
    }

    #[test]
    fn stream_next_after_end_keeps_returning_none() {
        let bytes = dump(sample().store());
        let mut stream = DumpStream::open(&bytes).unwrap();
        while stream.next_event().unwrap().is_some() {}
        assert!(stream.next_event().unwrap().is_none());
    }

    #[test]
    fn stream_rejects_trailing_garbage_at_the_end() {
        let mut bytes = dump(sample().store());
        bytes.extend_from_slice(b"junk");
        let mut stream = DumpStream::open(&bytes).unwrap();
        let last = loop {
            match stream.next_event() {
                Ok(Some(_)) => {}
                other => break other,
            }
        };
        assert!(last.is_err(), "trailing garbage was accepted");
    }

    #[test]
    fn rejects_bad_magic() {
        let err = reload(b"NOPExxxxxxxxxxxx").unwrap_err();
        assert!(matches!(err, PoetError::BadHeader(_)), "{err}");
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = dump(sample().store());
        // Chop the dump at many offsets; every prefix must fail cleanly,
        // never panic.
        for cut in 0..bytes.len() - 1 {
            assert!(reload(&bytes[..cut]).is_err(), "prefix {cut} was accepted");
        }
    }

    #[test]
    fn truncation_errors_carry_a_byte_offset() {
        let bytes = dump(sample().store());
        let err = reload(&bytes[..bytes.len() - 3]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("byte"), "no offset diagnostic in: {msg}");
    }

    #[test]
    fn rejects_unknown_version() {
        let mut bytes = dump(sample().store());
        bytes[4] = 99;
        assert!(matches!(
            reload(&bytes).unwrap_err(),
            PoetError::BadHeader(_)
        ));
    }

    #[test]
    fn rejects_trailing_garbage_with_offset() {
        let mut bytes = dump(sample().store());
        let end = bytes.len();
        bytes.extend_from_slice(b"junk");
        let msg = reload(&bytes).unwrap_err().to_string();
        assert!(
            msg.contains("trailing") && msg.contains(&format!("byte {end}")),
            "bad trailing-garbage diagnostic: {msg}"
        );
    }

    #[test]
    fn rejects_bad_kind_byte_with_offset() {
        let poet = {
            let mut p = PoetServer::new(1);
            p.record(t(0), EventKind::Unary, "a", "");
            p
        };
        let mut bytes = dump(poet.store());
        // Header (6) + n_traces (4) + n_strings (4) + 2 strings ("a", "")
        // then the event record: trace u32, kind u8 at +4.
        let event_start = bytes.len() - (4 + 1 + 4 + 4 + 1);
        bytes[event_start + 4] = 7;
        let msg = reload(&bytes).unwrap_err().to_string();
        assert!(
            msg.contains("bad kind 7") && msg.contains("byte"),
            "bad kind diagnostic: {msg}"
        );
    }

    #[test]
    fn rejects_unknown_string_id_cleanly() {
        let poet = {
            let mut p = PoetServer::new(1);
            p.record(t(0), EventKind::Unary, "a", "");
            p
        };
        let mut bytes = dump(poet.store());
        let event_start = bytes.len() - (4 + 1 + 4 + 4 + 1);
        // Overwrite the type-id field with an out-of-table id.
        bytes[event_start + 5..event_start + 9].copy_from_slice(&999u32.to_le_bytes());
        let msg = reload(&bytes).unwrap_err().to_string();
        assert!(
            msg.contains("unknown string 999"),
            "bad string-id diagnostic: {msg}"
        );
    }

    #[test]
    fn rejects_garbage_after_header() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0xff; 64]);
        // A huge bogus string count must fail on truncation, not OOM or
        // panic.
        assert!(reload(&bytes).is_err());
    }

    #[test]
    fn empty_store_round_trips() {
        let poet = PoetServer::new(4);
        let reloaded = reload(&dump(poet.store())).unwrap();
        assert_eq!(reloaded.n_traces(), 4);
        assert!(reloaded.store().is_empty());
    }
}
