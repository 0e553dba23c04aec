//! The one record codec: how an [`Event`] becomes bytes, written once.
//!
//! Four formats carry traced events — OCWP frames (`ocep_net::wire`),
//! OCKP/OCKS checkpoints (`ocep_core::checkpoint`), POET dumps
//! ([`crate::dump`]) and the OWAL record payloads (`ocep_net::shard`) —
//! and every one of them is a header of its own around the same three
//! things, all defined here and specified in `docs/WIRE.md`, "Record
//! grammar": little-endian scalars and `u32`-length-prefixed strings
//! ([`put_u32`], [`put_str`], [`Reader`]); a first-appearance string
//! table ([`StrTable`]); and the event record ([`put_event_record`],
//! [`get_event_record`]), parameterised by how it names its strings
//! ([`StrForm`]) and how it carries its stamp ([`ClockForm`]).
//!
//! Decoding is hardened the same way everywhere: a truncated or garbage
//! input returns an [`Err`] naming the byte offset where decoding
//! stopped — never a panic — and a count that promises more items than
//! the bytes left could hold is refused at the count
//! ([`Reader::count`]), before anything is allocated for it. The codec
//! checks *structure* only. What a record means — trace range, partner
//! range, clock width, the Fidge convention — stays with each format,
//! which is why [`get_event_record`] hands back unvalidated parts.

use crate::{Event, EventKind, PoetError};
use ocep_vclock::{EventId, EventIndex, StampedEvent, TraceId, VectorClock};
use std::collections::HashMap;
use std::sync::Arc;

/// The little-endian bytes of `v` — the byte order of every format.
#[must_use]
pub const fn u32_le(v: u32) -> [u8; 4] {
    v.to_le_bytes()
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&u32_le(v));
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends `u32` values back to back (no count).
pub fn put_u32s(buf: &mut Vec<u8>, values: &[u32]) {
    for &v in values {
        put_u32(buf, v);
    }
}

fn corrupt(msg: String) -> PoetError {
    PoetError::Corrupt(msg)
}

/// Prefixes a decode error with the index of the table entry or record
/// it arose in. Runs on the error path only: decoding an entry that is
/// fine formats nothing.
pub fn nth(what: &'static str, i: usize) -> impl Fn(PoetError) -> PoetError {
    move |e| match e {
        PoetError::Corrupt(m) => corrupt(format!("{what} {i}: {m}")),
        other => other,
    }
}

/// An offset-tracking little-endian reader over a byte slice.
///
/// Every decoding failure reports the byte offset at which the stream
/// ended or went bad, so a corrupt file yields an actionable diagnostic
/// (`truncated: need 4 byte(s) for n_traces at byte 6`) instead of a
/// panic or a context-free error.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `data` from offset 0.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// The current byte offset (how much has been consumed).
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Consumes `n` raw bytes for field `what`.
    ///
    /// # Errors
    ///
    /// [`PoetError::Corrupt`] with the offset when fewer than `n` bytes
    /// remain.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], PoetError> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated: need {n} byte(s) for {what} at byte {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`PoetError::Corrupt`] with the offset on truncation.
    pub fn u8(&mut self, what: &str) -> Result<u8, PoetError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Consumes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`PoetError::Corrupt`] with the offset on truncation.
    pub fn u16(&mut self, what: &str) -> Result<u16, PoetError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`PoetError::Corrupt`] with the offset on truncation.
    pub fn u32(&mut self, what: &str) -> Result<u32, PoetError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("length checked")))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`PoetError::Corrupt`] with the offset on truncation.
    pub fn u64(&mut self, what: &str) -> Result<u64, PoetError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("length checked")))
    }

    /// Consumes a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`PoetError::Corrupt`] with the offset on truncation or invalid
    /// UTF-8.
    pub fn str(&mut self, what: &str) -> Result<&'a str, PoetError> {
        let len = self.u32(what)? as usize;
        let at = self.pos;
        let raw = self.bytes(len, what)?;
        std::str::from_utf8(raw)
            .map_err(|e| corrupt(format!("{what} at byte {at} is not utf-8: {e}")))
    }

    /// Consumes a `u32` count of `what`, each of which occupies at least
    /// `min_bytes_each` (≥ 1) of the bytes that follow. This is the one
    /// spelling of the count rule: a count may not promise more than the
    /// bytes left can hold, and is refused *here* — with its offset,
    /// before any allocation sized by it — rather than trusted as a
    /// capacity or discovered item by item.
    ///
    /// # Errors
    ///
    /// [`PoetError::Corrupt`] with the count's offset on truncation or a
    /// count the remaining bytes cannot back.
    pub fn count(&mut self, what: &str, min_bytes_each: usize) -> Result<usize, PoetError> {
        let at = self.pos;
        let n = self.u32(what)? as usize;
        if n > self.remaining() / min_bytes_each {
            return Err(corrupt(format!(
                "{what}: {n} claimed at byte {at}, but each takes {min_bytes_each} byte(s) or \
                 more and only {} are left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Consumes `n` little-endian `u32`s with one bounds check for the
    /// run, not one per value.
    ///
    /// # Errors
    ///
    /// [`PoetError::Corrupt`] with the offset on truncation; nothing is
    /// allocated in that case.
    pub fn u32s(&mut self, n: usize, what: &str) -> Result<Vec<u32>, PoetError> {
        let raw = self.bytes(n.saturating_mul(4), what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
            .collect())
    }

    /// Consumes and checks a 4-byte magic number.
    ///
    /// # Errors
    ///
    /// [`PoetError::BadHeader`] when the magic is absent or different.
    pub fn magic(&mut self, expected: &[u8; 4]) -> Result<(), PoetError> {
        let got = self
            .bytes(4, "magic")
            .map_err(|_| PoetError::BadHeader("file shorter than header".into()))?;
        if got != expected {
            return Err(PoetError::BadHeader(format!(
                "magic {got:?} is not {expected:?}"
            )));
        }
        Ok(())
    }

    /// Asserts the stream was fully consumed.
    ///
    /// # Errors
    ///
    /// [`PoetError::Corrupt`] naming the offset where trailing garbage
    /// starts.
    pub fn finish(&self) -> Result<(), PoetError> {
        if self.remaining() != 0 {
            return Err(corrupt(format!(
                "{} byte(s) of trailing garbage at byte {}",
                self.remaining(),
                self.pos
            )));
        }
        Ok(())
    }
}

/// A string table: each distinct string once, numbered in order of
/// first appearance, written as `n:u32 (str)*`.
#[derive(Debug, Default)]
pub struct StrTable<'a> {
    strings: Vec<&'a str>,
    ids: HashMap<&'a str, u32>,
}

impl<'a> StrTable<'a> {
    /// The id of `s`, interning it on first appearance.
    pub fn intern(&mut self, s: &'a str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(s, id);
        self.strings.push(s);
        id
    }

    /// A table of the type, then text, of each of `events` in order.
    pub fn of_events(events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut table = StrTable::default();
        for e in events {
            table.intern(e.ty());
            table.intern(e.text());
        }
        table
    }

    /// The table ids of an interned event's type and text.
    ///
    /// # Panics
    ///
    /// Panics if the event's strings were never interned.
    #[must_use]
    pub fn ids_of(&self, e: &Event) -> StrForm<(u32, u32)> {
        StrForm::Table((self.ids[e.ty()], self.ids[e.text()]))
    }

    /// The id of an interned string.
    ///
    /// # Panics
    ///
    /// Panics if `s` was never interned.
    #[must_use]
    pub fn id(&self, s: &str) -> u32 {
        self.ids[s]
    }

    /// Appends the table.
    pub fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.strings.len() as u32);
        for s in &self.strings {
            put_str(buf, s);
        }
    }

    /// Reads a table back as shared strings, indexed by id.
    ///
    /// # Errors
    ///
    /// [`PoetError::Corrupt`] with the offset on a hostile count,
    /// truncation or invalid UTF-8.
    pub fn get(r: &mut Reader<'_>) -> Result<Vec<Arc<str>>, PoetError> {
        let n = r.count("strings", 4)?;
        let mut strings = Vec::with_capacity(n);
        for i in 0..n {
            strings.push(Arc::from(r.str("table entry").map_err(nth("string", i))?));
        }
        Ok(strings)
    }
}

impl EventKind {
    /// The kind byte of every format.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            EventKind::Send => 0,
            EventKind::Receive => 1,
            EventKind::Unary => 2,
        }
    }

    /// The kind a kind byte names, if any.
    #[must_use]
    pub fn from_code(code: u8) -> Option<EventKind> {
        match code {
            0 => Some(EventKind::Send),
            1 => Some(EventKind::Receive),
            2 => Some(EventKind::Unary),
            _ => None,
        }
    }
}

/// How a record names its type and text: two ids into a [`StrTable`]
/// written earlier (the encoder passes the ids, the decoder the table),
/// or two inline `str`s.
#[derive(Debug, Clone, Copy)]
pub enum StrForm<T> {
    /// `ty:u32 text:u32`, ids into a string table.
    Table(T),
    /// `ty:str text:str`.
    Inline,
}

/// How a record carries its stamp. `D` is the state the delta form
/// threads from one record of a frame to the next: a [`DeltaEncoder`]
/// when writing, a [`DeltaDecoder`] when reading.
#[derive(Debug)]
pub enum ClockForm<D> {
    /// No stamp at all — neither index nor clock: a POET dump stores
    /// recorded actions and the tracer re-derives both on reload.
    None,
    /// `index:u32`, then after the partner `clock_n:u32 (u32)*`.
    Full,
    /// `index:u32`, then after the partner a flag byte: `0` and a full
    /// clock, or `1` and `n:u32 (col:u32 val:u32)*` — the entries that
    /// differ from the previous record's clock on the same trace in the
    /// same frame, columns ascending.
    Delta(D),
}

impl<D> ClockForm<D> {
    /// Fewest bytes a record of this clock form can occupy (both string
    /// forms cost at least eight): what [`Reader::count`] holds a
    /// record count against.
    #[must_use]
    pub fn min_record_bytes(&self) -> usize {
        // trace + kind + two ids or length prefixes + partner flag
        14 + match self {
            ClockForm::None => 0,
            ClockForm::Full => 8,
            ClockForm::Delta(_) => 9,
        }
    }
}

/// Delta-form encoder state: the previous clock on each trace within
/// the frame (what the decoder will have reconstructed), plus scratch.
#[derive(Debug, Default)]
pub struct DeltaEncoder<'e> {
    last: HashMap<TraceId, &'e VectorClock>,
    changed: Vec<(u32, u32)>,
}

/// Delta-form decoder state: the last reconstructed clock per trace. A
/// map, not a dense table, because record trace ids are untrusted.
pub type DeltaDecoder = HashMap<TraceId, VectorClock>;

fn put_full_clock(buf: &mut Vec<u8>, entries: &[u32]) {
    put_u32(buf, entries.len() as u32);
    put_u32s(buf, entries);
}

/// Appends one event record in the given string and clock form.
pub fn put_event_record<'e>(
    buf: &mut Vec<u8>,
    e: &'e Event,
    strs: StrForm<(u32, u32)>,
    clock: &mut ClockForm<DeltaEncoder<'e>>,
) {
    put_u32(buf, e.trace().as_u32());
    if !matches!(clock, ClockForm::None) {
        put_u32(buf, e.index().get());
    }
    buf.push(e.kind().code());
    match strs {
        StrForm::Table((ty, text)) => {
            put_u32(buf, ty);
            put_u32(buf, text);
        }
        StrForm::Inline => {
            put_str(buf, e.ty());
            put_str(buf, e.text());
        }
    }
    match e.partner() {
        Some(p) => {
            buf.push(1);
            put_u32(buf, p.trace().as_u32());
            put_u32(buf, p.index().get());
        }
        None => buf.push(0),
    }
    let entries = e.clock().entries();
    match clock {
        ClockForm::None => {}
        ClockForm::Full => put_full_clock(buf, entries),
        ClockForm::Delta(d) => {
            // Delta against the previous clock on this trace when it
            // exists, matches in width, and the diff is actually smaller
            // (8 bytes per changed entry vs 4 per full entry); full
            // clock otherwise — including always for the first record
            // per trace.
            d.changed.clear();
            let use_delta = match d.last.get(&e.trace()) {
                Some(base) if base.len() == entries.len() => {
                    let changed = &mut d.changed;
                    ocep_vclock::kernels::for_each_changed(base.entries(), entries, |i, v| {
                        changed.push((i as u32, v));
                    });
                    8 * d.changed.len() < 4 * entries.len()
                }
                _ => false,
            };
            if use_delta {
                buf.push(1);
                put_u32(buf, d.changed.len() as u32);
                for &(col, val) in &d.changed {
                    put_u32(buf, col);
                    put_u32(buf, val);
                }
            } else {
                buf.push(0);
                put_full_clock(buf, entries);
            }
            d.last.insert(e.trace(), e.clock());
        }
    }
}

/// One decoded record, structurally sound and otherwise unvalidated.
#[derive(Debug)]
pub struct EventRecord {
    /// Trace id as written.
    pub trace: TraceId,
    /// Index as written ([`EventIndex::ZERO`] under [`ClockForm::None`]).
    pub index: EventIndex,
    /// Communication role.
    pub kind: EventKind,
    /// Type attribute.
    pub ty: Arc<str>,
    /// Text attribute.
    pub text: Arc<str>,
    /// Partner id as written, whatever the kind.
    pub partner: Option<EventId>,
    /// The clock, reconstructed if it travelled as a delta (width 0
    /// under [`ClockForm::None`]).
    pub clock: VectorClock,
}

impl EventRecord {
    /// The record as an [`Event`], stamp unchecked: the caller has
    /// validated the Fidge convention itself or hands the event to the
    /// admission guard, which does.
    #[must_use]
    pub fn into_event(self) -> Event {
        let stamp = StampedEvent::new_unchecked(EventId::new(self.trace, self.index), self.clock);
        Event::new(stamp, self.kind, self.ty, self.text, self.partner)
    }
}

fn get_full_clock(r: &mut Reader<'_>) -> Result<VectorClock, PoetError> {
    let n = r.count("clock width", 4)?;
    Ok(VectorClock::from_entries(r.u32s(n, "clock entries")?))
}

fn get_delta_clock(
    r: &mut Reader<'_>,
    trace: TraceId,
    base: Option<&VectorClock>,
) -> Result<VectorClock, PoetError> {
    let n_at = r.offset();
    let n_changed = r.count("delta entries", 8)?;
    let Some(base) = base else {
        return Err(corrupt(format!(
            "clock delta with no base for trace {} at byte {n_at}",
            trace.as_u32()
        )));
    };
    let mut entries = base.entries().to_vec();
    let mut prev_col: Option<u32> = None;
    for k in 0..n_changed {
        let col_at = r.offset();
        let col = r.u32("delta column")?;
        let val = r.u32("delta value")?;
        if prev_col.is_some_and(|p| col <= p) {
            return Err(corrupt(format!(
                "delta entry {k} column {col} not ascending at byte {col_at}"
            )));
        }
        prev_col = Some(col);
        let Some(slot) = entries.get_mut(col as usize) else {
            return Err(corrupt(format!(
                "delta column {col} exceeds clock width {} at byte {col_at}",
                entries.len()
            )));
        };
        *slot = val;
    }
    Ok(VectorClock::from_entries(entries))
}

/// A record up to its clock. `S` is how its strings are handed out: a
/// shared `Arc<str>` for a record that becomes an [`Event`], a `&str`
/// into the table for a recorded action the tracer interns itself.
#[derive(Debug)]
pub struct RecordHead<S> {
    /// Trace id as written.
    pub trace: TraceId,
    /// Index as written ([`EventIndex::ZERO`] under [`ClockForm::None`]).
    pub index: EventIndex,
    /// Communication role.
    pub kind: EventKind,
    /// Type attribute.
    pub ty: S,
    /// Text attribute.
    pub text: S,
    /// Partner id as written, whatever the kind.
    pub partner: Option<EventId>,
}

/// Reads a record up to its clock; `string` reads one of its two strings.
fn get_record_head<'r, S>(
    r: &mut Reader<'r>,
    indexed: bool,
    mut string: impl FnMut(&mut Reader<'r>, &'static str) -> Result<S, PoetError>,
) -> Result<RecordHead<S>, PoetError> {
    let trace = TraceId::new(r.u32("record trace")?);
    let index = if indexed {
        EventIndex::new(r.u32("record index")?)
    } else {
        EventIndex::ZERO
    };
    let kind_at = r.offset();
    let code = r.u8("record kind")?;
    let kind = EventKind::from_code(code)
        .ok_or_else(|| corrupt(format!("bad kind {code} at byte {kind_at}")))?;
    let ty = string(r, "record type")?;
    let text = string(r, "record text")?;
    let pflag_at = r.offset();
    let partner = match r.u8("partner flag")? {
        0 => None,
        1 => {
            let pt = TraceId::new(r.u32("partner trace")?);
            let pi = EventIndex::new(r.u32("partner index")?);
            Some(EventId::new(pt, pi))
        }
        b => return Err(corrupt(format!("bad partner flag {b} at byte {pflag_at}"))),
    };
    Ok(RecordHead {
        trace,
        index,
        kind,
        ty,
        text,
        partner,
    })
}

/// Reads a string id and looks it up in `table`.
fn table_string<'t>(
    r: &mut Reader<'_>,
    table: &'t [Arc<str>],
    what: &str,
) -> Result<&'t Arc<str>, PoetError> {
    let at = r.offset();
    let id = r.u32(what)?;
    (table.get(id as usize))
        .ok_or_else(|| corrupt(format!("unknown string {id} for {what} at byte {at}")))
}

/// Reads one [`ClockForm::None`] record with table-id strings — the
/// recorded action of a POET dump: what a tracer is told, before it
/// derives index and clock. The strings stay borrowed from the table,
/// so nothing is allocated.
///
/// # Errors
///
/// As [`get_event_record`], less everything about clocks.
pub fn get_action_record<'t>(
    r: &mut Reader<'_>,
    table: &'t [Arc<str>],
) -> Result<RecordHead<&'t str>, PoetError> {
    get_record_head(r, false, |r, what| {
        table_string(r, table, what).map(|s| &**s)
    })
}

/// Reads one event record in the given string and clock form.
///
/// # Errors
///
/// [`PoetError::Corrupt`] with a byte offset on truncation, a kind byte
/// outside `0..=2`, a partner or clock flag outside `{0, 1}`, a string id
/// beyond the table, or a malformed clock (hostile width or delta count,
/// delta with no base, column out of range or not ascending).
pub fn get_event_record(
    r: &mut Reader<'_>,
    strs: StrForm<&[Arc<str>]>,
    clock: &mut ClockForm<DeltaDecoder>,
) -> Result<EventRecord, PoetError> {
    let indexed = !matches!(clock, ClockForm::None);
    let head = get_record_head(r, indexed, |r, what| match strs {
        StrForm::Inline => Ok(Arc::from(r.str(what)?)),
        StrForm::Table(table) => table_string(r, table, what).cloned(),
    })?;
    let trace = head.trace;
    let clock = match clock {
        ClockForm::None => VectorClock::new(0),
        ClockForm::Full => get_full_clock(r)?,
        ClockForm::Delta(bases) => {
            let cflag_at = r.offset();
            let clock = match r.u8("clock flag")? {
                0 => get_full_clock(r)?,
                1 => get_delta_clock(r, trace, bases.get(&trace))?,
                b => return Err(corrupt(format!("bad clock flag {b} at byte {cflag_at}"))),
            };
            bases.insert(trace, clock.clone());
            clock
        }
    };
    Ok(EventRecord {
        trace,
        index: head.index,
        kind: head.kind,
        ty: head.ty,
        text: head.text,
        partner: head.partner,
        clock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reports_offsets() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8("first").unwrap(), 1);
        assert_eq!(r.offset(), 1);
        let err = r.u32("wide field").unwrap_err().to_string();
        assert!(
            err.contains("wide field") && err.contains("byte 1"),
            "{err}"
        );
    }

    #[test]
    fn a_count_is_held_against_the_bytes_left_at_its_own_offset() {
        // Three items of four bytes fit twelve bytes; four do not.
        let mut body = u32_le(3).to_vec();
        body.extend_from_slice(&[0; 12]);
        let mut r = Reader::new(&body);
        assert_eq!(r.count("items", 4).unwrap(), 3);
        assert_eq!(r.u32s(3, "items").unwrap(), [0, 0, 0]);
        r.finish().unwrap();

        body[0] = 4;
        let err = Reader::new(&body)
            .count("items", 4)
            .unwrap_err()
            .to_string();
        assert!(err.contains("items: 4 claimed at byte 0,"), "{err}");
    }

    #[test]
    fn the_index_of_a_bad_entry_is_named_only_in_the_error() {
        let mut body = Vec::new();
        put_u32(&mut body, 2);
        put_str(&mut body, "fine");
        put_u32(&mut body, 2);
        body.extend_from_slice(&[0xff, 0xfe]);
        let err = StrTable::get(&mut Reader::new(&body))
            .unwrap_err()
            .to_string();
        assert!(err.contains("string 1:") && err.contains("utf-8"), "{err}");
    }

    #[test]
    fn every_form_round_trips_and_the_kind_byte_is_the_dump_convention() {
        let mut poet = crate::PoetServer::new(2);
        let s = poet.record(TraceId::new(0), EventKind::Send, "req", "payload");
        let recv = poet.record_receive(TraceId::new(1), s.id(), "req", "");
        assert_eq!(
            [EventKind::Send, EventKind::Receive, EventKind::Unary].map(EventKind::code),
            [0, 1, 2]
        );
        assert_eq!(EventKind::from_code(3), None);

        let table = StrTable::of_events([&recv]);
        let mut strings = Vec::new();
        table.put(&mut strings);
        let strings = StrTable::get(&mut Reader::new(&strings)).unwrap();
        for inline in [false, true] {
            let mut buf = Vec::new();
            let put_strs = if inline {
                StrForm::Inline
            } else {
                table.ids_of(&recv)
            };
            put_event_record(&mut buf, &recv, put_strs, &mut ClockForm::Full);
            let get_strs = if inline {
                StrForm::Inline
            } else {
                StrForm::Table(strings.as_slice())
            };
            let mut r = Reader::new(&buf);
            let back = get_event_record(&mut r, get_strs, &mut ClockForm::Full).unwrap();
            r.finish().unwrap();
            assert_eq!(back.into_event(), recv);
            assert!(buf.len() >= ClockForm::<()>::Full.min_record_bytes());
        }

        let mut buf = Vec::new();
        put_event_record(&mut buf, &recv, table.ids_of(&recv), &mut ClockForm::None);
        assert_eq!(
            buf.len(),
            ClockForm::<()>::None.min_record_bytes() + 8,
            "no stamp"
        );
        let mut r = Reader::new(&buf);
        let back =
            get_event_record(&mut r, StrForm::Table(&strings), &mut ClockForm::None).unwrap();
        assert_eq!(back.partner, Some(s.id()));
        assert_eq!((back.index, back.clock.len()), (EventIndex::ZERO, 0));
    }
}
