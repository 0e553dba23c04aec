//! The OCWP v1 wire protocol: length-prefixed binary frames.
//!
//! OCWP (*Online Causal Wire Protocol*) carries traced events from
//! producers to an `ocep serve` daemon and verdicts/statistics back.
//! It shares its encoding with the POET dump and OCKP checkpoint formats
//! — the scalars, string table, event record and offset-tracking
//! [`Reader`] of `ocep_poet::codec` — so a truncated or corrupt frame
//! yields a diagnostic with a byte offset, never a panic.
//!
//! # Frame grammar
//!
//! Every frame is a `u32` length prefix followed by exactly that many
//! body bytes; the body starts with a one-byte frame type:
//!
//! ```text
//! frame       := len:u32 body[len]           (len ≤ MAX_FRAME, len ≥ 1)
//! body        := type:u8 payload
//! Hello       := magic[4]="OCWP" version:u16 mode:u8 n_traces:u32 name:str
//! Event       := events                      (exactly one record)
//! EventBatch  := events
//! EventBatchD := strtab count:u32 drecord*
//! events      := strtab count:u32 record*
//! strtab, record (full clock), drecord (delta clock): the shared
//!                record grammar of `ocep_poet::codec` — see
//!                `docs/WIRE.md`, "Record grammar"
//! Flush       := ε
//! CheckpointReq := ε
//! Stats       := flag:u8 [report]            (0 = request, 1 = report)
//! report      := admitted:u64 quarantined:u64 duplicates:u64
//!                degraded:u8 matches:u64 connections:u32 frames:u64
//! Shutdown    := ε
//! Ack         := credits:u32
//! Fault       := code:u8 detail:str
//! Verdict     := monitor:str n:u32 (trace:u32 index:u32)*
//! Resume      := durable:u64
//! TailFrom    := from:u64
//! VerdictAt   := lsn:u64 monitor:str n:u32 (trace:u32 index:u32)*
//! Register    := tenant:str strtab count:u32 (name:u32 src:u32)*
//! Unregister  := tenant:str strtab count:u32 (name:u32)*
//! TailTenant  := tenant:str
//! Registered  := tenant:str patterns:u32
//! str         := len:u32 utf8[len]
//! ```
//!
//! `Register`, `Unregister`, `TailTenant`, and `Registered` are the
//! multi-tenant registration frames (protocol revision 9, no
//! negotiation). A client registers named patterns for a tenant at
//! runtime; the server monitors them as `{tenant}/{name}` and answers
//! with `Registered { tenant, patterns }` (the tenant's live pattern
//! count after the change). A tail sends `TailTenant` after its `Hello`
//! to scope its verdict stream to one tenant. Pattern names and sources
//! travel through a per-frame interned string table exactly like event
//! batches; a record naming an id beyond the table is an
//! "unknown pattern ref" decode error. Tenant ids are *structurally*
//! validated at the wire layer (1–[`MAX_TENANT`] bytes of
//! `[A-Za-z0-9_-]`): the id namespaces monitor names as
//! `{tenant}/{name}`, so a `/` — or anything exotic — is rejected
//! before it can alias another tenant's namespace.
//!
//! `Resume`, `TailFrom`, and `VerdictAt` exist for durable-log serving
//! (protocol revision 8, no negotiation — servers without a WAL simply
//! never send them). A WAL-backed server answers a producer `Hello`
//! with `Resume { durable }` *before* the window `Ack`: `durable` is
//! the number of events from that named session already fsynced into
//! the log, and the producer skips re-sending exactly that prefix. A
//! tail sends `TailFrom { from }` after its `Hello` to request the
//! retained verdict backlog at log sequence numbers `>= from`; the
//! server replays it as `VerdictAt` frames (each verdict tagged with
//! the LSN of the event that fired it) before switching to live
//! `Verdict` frames.
//!
//! The `kind` byte uses the dump convention (0 = send, 1 = receive,
//! 2 = unary). In a plain `EventBatch` every record travels with its
//! **full Fidge vector clock**. `EventBatchD` is the compact form:
//! each record's clock is either full (`cflag=0`) or a sparse diff
//! (`cflag=1`) against the previous record's *reconstructed* clock on
//! the same trace **within the same frame** — consecutive timestamps on
//! a trace differ in very few entries (Vaidya/Kulkarni), so a delta is
//! typically a handful of `(col, val)` pairs instead of `n_traces`
//! words. Encoders must emit a full clock for the first record of each
//! trace in a frame (there is no cross-frame base) and whenever the
//! delta would not be smaller; decoders reconstruct full clocks, so
//! both forms decode to the same [`Frame::EventBatch`] and everything
//! downstream is oblivious to the wire form. A delta with no base,
//! an out-of-range or non-ascending column, or a hostile count is a
//! structural decode error with a byte offset — never a panic.
//!
//! The wire layer checks only *structure* (framing, UTF-8, table
//! references, delta well-formedness); *semantic* validation — clock
//! width, trace range, per-trace monotonicity — is the
//! [`AdmissionGuard`]'s job on the serving side, so a malicious
//! producer is quarantined by exactly the same machinery as a buggy
//! in-process transport.
//!
//! [`AdmissionGuard`]: ocep_core::ingest::AdmissionGuard

use ocep_poet::codec::{
    get_event_record, nth, put_event_record, put_str, put_u16, put_u32, put_u64, u32_le, ClockForm,
    DeltaDecoder, DeltaEncoder, Reader, StrForm, StrTable,
};
use ocep_poet::{Event, PoetError};
use std::io::{Read as IoRead, Write as IoWrite};
use std::sync::Arc;

/// Handshake magic for OCWP frames.
pub const MAGIC: &[u8; 4] = b"OCWP";
/// Current protocol version.
pub const VERSION: u16 = 1;
/// Largest accepted frame body, in bytes. A frame whose length prefix
/// exceeds this is rejected *before* allocating, so a corrupt or hostile
/// length cannot balloon memory.
pub const MAX_FRAME: usize = 4 << 20;

/// What a connecting client intends to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Streams events to the server.
    Producer,
    /// Subscribes to the verdict stream.
    Tail,
}

impl Mode {
    fn to_u8(self) -> u8 {
        match self {
            Mode::Producer => 0,
            Mode::Tail => 1,
        }
    }

    fn from_u8(b: u8) -> Option<Mode> {
        match b {
            0 => Some(Mode::Producer),
            1 => Some(Mode::Tail),
            _ => None,
        }
    }
}

/// Why the server raised a [`Frame::Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCode {
    /// The frame body failed structural decoding; the offending body was
    /// quarantined and the connection continues.
    Decode,
    /// The length prefix exceeded [`MAX_FRAME`]; the connection is
    /// closed (framing can no longer be trusted).
    Oversize,
    /// A structurally valid frame arrived in the wrong state (e.g. a
    /// second `Hello`, or an `Event` before any `Hello`).
    Protocol,
    /// The admission guard quarantined the event semantically.
    Ingest,
    /// This subscriber fell behind and queued verdicts were discarded.
    /// No longer sent: a full tail queue drops the newest verdict and
    /// counts it. Kept so the code stays reserved and decodable.
    SlowClient,
}

impl FaultCode {
    fn to_u8(self) -> u8 {
        match self {
            FaultCode::Decode => 0,
            FaultCode::Oversize => 1,
            FaultCode::Protocol => 2,
            FaultCode::Ingest => 3,
            FaultCode::SlowClient => 4,
        }
    }

    fn from_u8(b: u8) -> Option<FaultCode> {
        match b {
            0 => Some(FaultCode::Decode),
            1 => Some(FaultCode::Oversize),
            2 => Some(FaultCode::Protocol),
            3 => Some(FaultCode::Ingest),
            4 => Some(FaultCode::SlowClient),
            _ => None,
        }
    }

    /// Stable label for metrics and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultCode::Decode => "decode",
            FaultCode::Oversize => "oversize",
            FaultCode::Protocol => "protocol",
            FaultCode::Ingest => "ingest",
            FaultCode::SlowClient => "slow_client",
        }
    }
}

impl std::fmt::Display for FaultCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Aggregate serving statistics, carried by `Stats` report frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Events admitted through the guard.
    pub admitted: u64,
    /// Events quarantined by the guard.
    pub quarantined: u64,
    /// Duplicate events dropped.
    pub duplicates: u64,
    /// True when results are best-effort (events were lost).
    pub degraded: bool,
    /// Pattern matches reported so far.
    pub matches: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u32,
    /// Data frames processed.
    pub frames: u64,
}

/// One reported match: the monitor that fired and the event bound to
/// each pattern leaf, in leaf order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictFrame {
    /// Name of the monitor (pattern) that matched.
    pub monitor: String,
    /// `(trace, index)` of the event bound to each leaf.
    pub bindings: Vec<(u32, u32)>,
}

/// A decoded OCWP frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection handshake: protocol magic/version, intent, the trace
    /// count the producer believes, and a diagnostic client name.
    Hello {
        /// Producer or tail.
        mode: Mode,
        /// Trace count of the computation being streamed.
        n_traces: u32,
        /// Free-form client name for logs and per-connection metrics.
        name: String,
    },
    /// A single traced event.
    Event(Box<Event>),
    /// A batch of traced events sharing one interned string table.
    EventBatch(Vec<Event>),
    /// Deliver everything the guard still buffers (degraded flush).
    Flush,
    /// Anchor a checkpoint in the server's durable log now (a no-op
    /// without one); answered with a [`StatsReport`].
    CheckpointReq,
    /// Request a [`StatsReport`].
    StatsReq,
    /// Statistics reply (also sent unsolicited on shutdown).
    StatsReport(StatsReport),
    /// Drain, anchor a log checkpoint, and stop serving.
    Shutdown,
    /// Flow-control grant: the peer may send `credits` more data frames.
    Ack {
        /// Number of additional data frames permitted.
        credits: u32,
    },
    /// The server rejected or lost something; connection state is
    /// described by the [`FaultCode`].
    Fault {
        /// Machine-readable category.
        code: FaultCode,
        /// Human-readable diagnostic (includes byte offsets for decode
        /// faults).
        detail: String,
    },
    /// One pattern match, streamed to tail subscribers.
    Verdict(VerdictFrame),
    /// Durable-log session resume (server → producer, before the first
    /// `Ack`): this many events from the producer's named session are
    /// already durable in the server's log and must not be re-sent.
    Resume {
        /// Events from this session already persisted.
        durable: u64,
    },
    /// Tail request for the retained verdict backlog starting at a log
    /// sequence number (client → server, after the tail `Hello`).
    TailFrom {
        /// Replay verdicts whose firing LSN is `>= from`.
        from: u64,
    },
    /// One replayed pattern match tagged with the log sequence number
    /// of the event that fired it (server → tail, backlog replay).
    VerdictAt {
        /// LSN of the `Deliver` record that produced this match.
        lsn: u64,
        /// The match itself, as in [`Frame::Verdict`].
        verdict: VerdictFrame,
    },
    /// Register named patterns for a tenant (client → server, after
    /// `Hello`). The server monitors each as `{tenant}/{name}` and
    /// answers with [`Frame::Registered`].
    Register {
        /// Tenant owning the patterns (validated shape, see
        /// [`validate_tenant`]).
        tenant: String,
        /// `(name, pattern_source)` pairs to register.
        patterns: Vec<(String, String)>,
    },
    /// Remove previously registered patterns for a tenant (client →
    /// server). Unknown names are reported as ingest faults; the server
    /// answers with [`Frame::Registered`].
    Unregister {
        /// Tenant owning the patterns.
        tenant: String,
        /// Pattern names to remove (as given to [`Frame::Register`]).
        patterns: Vec<String>,
    },
    /// Scope this tail subscription to one tenant's verdicts (client →
    /// server, after a tail `Hello`). Acknowledged with
    /// [`Frame::Registered`] carrying the tenant's live pattern count.
    TailTenant {
        /// Tenant whose verdicts to stream.
        tenant: String,
    },
    /// Registration acknowledgement (server → client): the tenant's
    /// live pattern count after a `Register`/`Unregister`, or at
    /// `TailTenant` subscription time.
    Registered {
        /// Tenant the acknowledgement is about.
        tenant: String,
        /// Patterns currently registered for the tenant.
        patterns: u32,
    },
}

impl Frame {
    /// Stable label for frame-type metrics.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Event(_) => "event",
            Frame::EventBatch(_) => "event_batch",
            Frame::Flush => "flush",
            Frame::CheckpointReq => "checkpoint_req",
            Frame::StatsReq => "stats_req",
            Frame::StatsReport(_) => "stats_report",
            Frame::Shutdown => "shutdown",
            Frame::Ack { .. } => "ack",
            Frame::Fault { .. } => "fault",
            Frame::Verdict(_) => "verdict",
            Frame::Resume { .. } => "resume",
            Frame::TailFrom { .. } => "tail_from",
            Frame::VerdictAt { .. } => "verdict_at",
            Frame::Register { .. } => "register",
            Frame::Unregister { .. } => "unregister",
            Frame::TailTenant { .. } => "tail_tenant",
            Frame::Registered { .. } => "registered",
        }
    }

    /// True for frames that consume a flow-control credit.
    #[must_use]
    pub fn is_data(&self) -> bool {
        matches!(self, Frame::Event(_) | Frame::EventBatch(_) | Frame::Flush)
    }
}

/// Errors raised by the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// Structural decode failure; carries the byte offset where the
    /// frame body went bad.
    Format(PoetError),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversize(u32),
    /// A valid frame arrived that the protocol state machine forbids.
    Protocol(String),
    /// The transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Format(e) => write!(f, "malformed frame: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Oversize(n) => {
                write!(f, "frame length {n} exceeds maximum {MAX_FRAME}")
            }
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Format(e) => Some(e),
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PoetError> for WireError {
    fn from(e: PoetError) -> Self {
        WireError::Format(e)
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

const T_HELLO: u8 = 0;
const T_EVENT: u8 = 1;
const T_EVENT_BATCH: u8 = 2;
const T_FLUSH: u8 = 3;
const T_CHECKPOINT: u8 = 4;
const T_STATS: u8 = 5;
const T_SHUTDOWN: u8 = 6;
const T_ACK: u8 = 7;
const T_FAULT: u8 = 8;
const T_VERDICT: u8 = 9;
const T_EVENT_BATCH_D: u8 = 10;
const T_RESUME: u8 = 11;
const T_TAIL_FROM: u8 = 12;
const T_VERDICT_AT: u8 = 13;
const T_REGISTER: u8 = 14;
const T_UNREGISTER: u8 = 15;
const T_TAIL_TENANT: u8 = 16;
const T_REGISTERED: u8 = 17;

/// Longest accepted tenant id, in bytes.
pub const MAX_TENANT: usize = 64;
/// Longest accepted pattern name, in bytes.
pub const MAX_PATTERN_NAME: usize = 256;

/// Checks a tenant id against the wire-layer shape rule: 1–[`MAX_TENANT`]
/// bytes, each from `[A-Za-z0-9_-]`.
///
/// # Errors
///
/// A human-readable description of the violation.
pub fn validate_tenant(s: &str) -> Result<(), String> {
    if s.is_empty() {
        return Err("tenant id is empty".into());
    }
    if s.len() > MAX_TENANT {
        return Err(format!(
            "tenant id of {} bytes exceeds maximum {MAX_TENANT}",
            s.len()
        ));
    }
    if let Some(b) = s
        .bytes()
        .find(|b| !(b.is_ascii_alphanumeric() || *b == b'-' || *b == b'_'))
    {
        return Err(format!(
            "tenant id contains byte 0x{b:02x} outside [A-Za-z0-9_-]"
        ));
    }
    Ok(())
}

/// `strtab count:u32 record*`, clocks in the given form.
fn put_events<'e>(buf: &mut Vec<u8>, events: &'e [Event], mut clock: ClockForm<DeltaEncoder<'e>>) {
    let table = StrTable::of_events(events);
    table.put(buf);
    put_u32(buf, events.len() as u32);
    // Reserve for the common shape (fixed fields + clock) up front so
    // batch encoding doesn't grow the buffer record by record. Delta
    // records are never larger than full ones, so this reserve also
    // covers the delta form.
    let per_record = 23 + 4 * events.first().map_or(0, |e| e.clock().entries().len());
    buf.reserve(events.len() * per_record);
    for e in events {
        put_event_record(buf, e, table.ids_of(e), &mut clock);
    }
}

/// Appends a single-event `Frame::Event` body (tag included) to `buf`
/// directly from a borrowed event. Byte-identical to
/// `encode_body(&Frame::Event(..))` but without cloning the event or
/// boxing a frame — the WAL deliver-record hot path logs every admitted
/// event through this.
pub fn put_event_body(buf: &mut Vec<u8>, e: &Event) {
    buf.push(T_EVENT);
    // The two-entry string table is written directly (ty first, then
    // text unless equal), skipping the interning map a batch needs.
    let same = e.ty() == e.text();
    put_u32(buf, if same { 1 } else { 2 });
    put_str(buf, e.ty());
    if !same {
        put_str(buf, e.text());
    }
    put_u32(buf, 1);
    let ids = StrForm::Table((0, u32::from(!same)));
    put_event_record(buf, e, ids, &mut ClockForm::Full);
}

/// Serializes a frame body (without the length prefix).
#[must_use]
pub fn encode_body(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    match frame {
        Frame::Hello {
            mode,
            n_traces,
            name,
        } => {
            buf.push(T_HELLO);
            buf.extend_from_slice(MAGIC);
            put_u16(&mut buf, VERSION);
            buf.push(mode.to_u8());
            put_u32(&mut buf, *n_traces);
            put_str(&mut buf, name);
        }
        Frame::Event(e) => {
            buf.push(T_EVENT);
            put_events(&mut buf, std::slice::from_ref(e), ClockForm::Full);
        }
        Frame::EventBatch(events) => {
            buf.push(T_EVENT_BATCH);
            put_events(&mut buf, events, ClockForm::Full);
        }
        Frame::Flush => buf.push(T_FLUSH),
        Frame::CheckpointReq => buf.push(T_CHECKPOINT),
        Frame::StatsReq => {
            buf.push(T_STATS);
            buf.push(0);
        }
        Frame::StatsReport(r) => {
            buf.push(T_STATS);
            buf.push(1);
            put_u64(&mut buf, r.admitted);
            put_u64(&mut buf, r.quarantined);
            put_u64(&mut buf, r.duplicates);
            buf.push(u8::from(r.degraded));
            put_u64(&mut buf, r.matches);
            put_u32(&mut buf, r.connections);
            put_u64(&mut buf, r.frames);
        }
        Frame::Shutdown => buf.push(T_SHUTDOWN),
        Frame::Ack { credits } => {
            buf.push(T_ACK);
            put_u32(&mut buf, *credits);
        }
        Frame::Fault { code, detail } => {
            buf.push(T_FAULT);
            buf.push(code.to_u8());
            put_str(&mut buf, detail);
        }
        Frame::Verdict(v) => {
            buf.push(T_VERDICT);
            put_verdict(&mut buf, v);
        }
        Frame::Resume { durable } => {
            buf.push(T_RESUME);
            put_u64(&mut buf, *durable);
        }
        Frame::TailFrom { from } => {
            buf.push(T_TAIL_FROM);
            put_u64(&mut buf, *from);
        }
        Frame::VerdictAt { lsn, verdict } => {
            buf.push(T_VERDICT_AT);
            put_u64(&mut buf, *lsn);
            put_verdict(&mut buf, verdict);
        }
        Frame::Register { tenant, patterns } => {
            buf.push(T_REGISTER);
            put_str(&mut buf, tenant);
            let mut table = StrTable::default();
            for (name, src) in patterns {
                table.intern(name);
                table.intern(src);
            }
            table.put(&mut buf);
            put_u32(&mut buf, patterns.len() as u32);
            for (name, src) in patterns {
                put_u32(&mut buf, table.id(name));
                put_u32(&mut buf, table.id(src));
            }
        }
        Frame::Unregister { tenant, patterns } => {
            buf.push(T_UNREGISTER);
            put_str(&mut buf, tenant);
            let mut table = StrTable::default();
            for name in patterns {
                table.intern(name);
            }
            table.put(&mut buf);
            put_u32(&mut buf, patterns.len() as u32);
            for name in patterns {
                put_u32(&mut buf, table.id(name));
            }
        }
        Frame::TailTenant { tenant } => {
            buf.push(T_TAIL_TENANT);
            put_str(&mut buf, tenant);
        }
        Frame::Registered { tenant, patterns } => {
            buf.push(T_REGISTERED);
            put_str(&mut buf, tenant);
            put_u32(&mut buf, *patterns);
        }
    }
    buf
}

fn put_verdict(buf: &mut Vec<u8>, v: &VerdictFrame) {
    put_str(buf, &v.monitor);
    put_u32(buf, v.bindings.len() as u32);
    for &(t, i) in &v.bindings {
        put_u32(buf, t);
        put_u32(buf, i);
    }
}

/// Serializes a frame body using the compact delta clock encoding for
/// [`Frame::EventBatch`] (`EventBatchD`, type 10); every other frame is
/// byte-identical to [`encode_body`]. Decoders accept both forms since
/// protocol revision 7 with no negotiation: the encoding is chosen per
/// frame by the sender, and [`decode_body`] reconstructs full clocks
/// either way.
#[must_use]
pub fn encode_body_delta(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::EventBatch(events) => {
            let mut buf = Vec::new();
            buf.push(T_EVENT_BATCH_D);
            put_events(&mut buf, events, ClockForm::Delta(DeltaEncoder::default()));
            buf
        }
        other => encode_body(other),
    }
}

fn corrupt(msg: String) -> WireError {
    WireError::Format(PoetError::Corrupt(msg))
}

/// `strtab count:u32 record*`, clocks in the given form.
fn get_events(
    r: &mut Reader<'_>,
    mut clock: ClockForm<DeltaDecoder>,
) -> Result<Vec<Event>, WireError> {
    let strings = StrTable::get(r)?;
    let count = r.count("records", clock.min_record_bytes())?;
    let mut events = Vec::with_capacity(count);
    for i in 0..count {
        let rec =
            get_event_record(r, StrForm::Table(&strings), &mut clock).map_err(nth("record", i))?;
        events.push(rec.into_event());
    }
    Ok(events)
}

/// Decodes and shape-validates a tenant id field.
fn get_tenant(r: &mut Reader<'_>) -> Result<String, WireError> {
    let at = r.offset();
    let tenant = r.str("tenant id")?;
    match validate_tenant(tenant) {
        Ok(()) => Ok(tenant.to_owned()),
        Err(why) => Err(corrupt(format!("bad tenant id at byte {at}: {why}"))),
    }
}

/// Reads entry `i`'s `u32` reference into a `Register`/`Unregister`
/// string table.
fn get_pattern_ref(
    r: &mut Reader<'_>,
    strings: &[Arc<str>],
    i: usize,
) -> Result<String, WireError> {
    let at = r.offset();
    let id = r.u32("pattern ref")?;
    (strings.get(id as usize).map(|s| s.to_string())).ok_or_else(|| {
        corrupt(format!(
            "entry {i} names unknown pattern ref {id} at byte {at}"
        ))
    })
}

/// [`get_pattern_ref`] for a pattern name, shape-checked: non-empty,
/// bounded, and free of `/` (the tenant/name separator in monitor names).
fn get_pattern_name(
    r: &mut Reader<'_>,
    strings: &[Arc<str>],
    i: usize,
) -> Result<String, WireError> {
    let at = r.offset();
    let name = get_pattern_ref(r, strings, i)?;
    let why = if name.is_empty() {
        "is empty".to_owned()
    } else if name.len() > MAX_PATTERN_NAME {
        format!("is {} bytes (maximum {MAX_PATTERN_NAME})", name.len())
    } else if name.contains('/') {
        "contains '/'".to_owned()
    } else {
        return Ok(name);
    };
    Err(corrupt(format!(
        "entry {i} pattern name {why} at byte {at}"
    )))
}

fn get_verdict(r: &mut Reader<'_>) -> Result<VerdictFrame, WireError> {
    let monitor = r.str("verdict monitor")?.to_owned();
    let n = r.count("verdict bindings", 8)?;
    let mut bindings = Vec::with_capacity(n);
    for _ in 0..n {
        let t = r.u32("binding trace")?;
        let i = r.u32("binding index")?;
        bindings.push((t, i));
    }
    Ok(VerdictFrame { monitor, bindings })
}

/// Decodes a frame body (the bytes after the length prefix).
///
/// # Errors
///
/// [`WireError::Format`] with a byte offset for any structural problem;
/// never panics, regardless of input.
pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(body);
    let ty_at = r.offset();
    let frame = match r.u8("frame type")? {
        T_HELLO => {
            r.magic(MAGIC)?;
            let version = r.u16("protocol version")?;
            if version != VERSION {
                return Err(WireError::Format(PoetError::BadHeader(format!(
                    "unsupported OCWP version {version}"
                ))));
            }
            let mode_at = r.offset();
            let mode_b = r.u8("hello mode")?;
            let mode = Mode::from_u8(mode_b)
                .ok_or_else(|| corrupt(format!("bad hello mode {mode_b} at byte {mode_at}")))?;
            let n_traces = r.u32("hello n_traces")?;
            let name = r.str("hello name")?.to_owned();
            Frame::Hello {
                mode,
                n_traces,
                name,
            }
        }
        T_EVENT => {
            let mut events = get_events(&mut r, ClockForm::Full)?;
            if events.len() != 1 {
                return Err(corrupt(format!(
                    "event frame carries {} records, expected exactly 1",
                    events.len()
                )));
            }
            Frame::Event(Box::new(events.pop().expect("length checked")))
        }
        T_EVENT_BATCH => Frame::EventBatch(get_events(&mut r, ClockForm::Full)?),
        T_EVENT_BATCH_D => {
            Frame::EventBatch(get_events(&mut r, ClockForm::Delta(DeltaDecoder::new()))?)
        }
        T_FLUSH => Frame::Flush,
        T_CHECKPOINT => Frame::CheckpointReq,
        T_STATS => {
            let flag_at = r.offset();
            match r.u8("stats flag")? {
                0 => Frame::StatsReq,
                1 => Frame::StatsReport(StatsReport {
                    admitted: r.u64("stats admitted")?,
                    quarantined: r.u64("stats quarantined")?,
                    duplicates: r.u64("stats duplicates")?,
                    degraded: r.u8("stats degraded")? != 0,
                    matches: r.u64("stats matches")?,
                    connections: r.u32("stats connections")?,
                    frames: r.u64("stats frames")?,
                }),
                b => return Err(corrupt(format!("bad stats flag {b} at byte {flag_at}"))),
            }
        }
        T_SHUTDOWN => Frame::Shutdown,
        T_ACK => Frame::Ack {
            credits: r.u32("ack credits")?,
        },
        T_FAULT => {
            let code_at = r.offset();
            let code_b = r.u8("fault code")?;
            let code = FaultCode::from_u8(code_b)
                .ok_or_else(|| corrupt(format!("bad fault code {code_b} at byte {code_at}")))?;
            let detail = r.str("fault detail")?.to_owned();
            Frame::Fault { code, detail }
        }
        T_VERDICT => Frame::Verdict(get_verdict(&mut r)?),
        T_RESUME => Frame::Resume {
            durable: r.u64("resume durable count")?,
        },
        T_TAIL_FROM => Frame::TailFrom {
            from: r.u64("tail-from lsn")?,
        },
        T_VERDICT_AT => Frame::VerdictAt {
            lsn: r.u64("verdict lsn")?,
            verdict: get_verdict(&mut r)?,
        },
        T_REGISTER => {
            let tenant = get_tenant(&mut r)?;
            let strings = StrTable::get(&mut r)?;
            let count = r.count("patterns", 8)?;
            let mut patterns = Vec::with_capacity(count);
            for i in 0..count {
                let name = get_pattern_name(&mut r, &strings, i)?;
                patterns.push((name, get_pattern_ref(&mut r, &strings, i)?));
            }
            Frame::Register { tenant, patterns }
        }
        T_UNREGISTER => {
            let tenant = get_tenant(&mut r)?;
            let strings = StrTable::get(&mut r)?;
            let count = r.count("patterns", 4)?;
            let mut patterns = Vec::with_capacity(count);
            for i in 0..count {
                patterns.push(get_pattern_name(&mut r, &strings, i)?);
            }
            Frame::Unregister { tenant, patterns }
        }
        T_TAIL_TENANT => Frame::TailTenant {
            tenant: get_tenant(&mut r)?,
        },
        T_REGISTERED => Frame::Registered {
            tenant: get_tenant(&mut r)?,
            patterns: r.u32("registered pattern count")?,
        },
        b => return Err(corrupt(format!("unknown frame type {b} at byte {ty_at}"))),
    };
    r.finish()?;
    Ok(frame)
}

/// Writes one length-prefixed frame, returning the bytes written
/// (prefix included). Does not flush.
///
/// # Errors
///
/// [`WireError::Io`] when the transport fails.
pub fn write_frame(w: &mut impl IoWrite, frame: &Frame) -> Result<usize, WireError> {
    write_body(w, encode_body(frame))
}

/// Like [`write_frame`] but event batches use the compact delta clock
/// encoding ([`encode_body_delta`]); used by the client's throughput
/// path. Returns the bytes written (prefix included).
///
/// # Errors
///
/// [`WireError::Io`] when the transport fails.
pub fn write_frame_delta(w: &mut impl IoWrite, frame: &Frame) -> Result<usize, WireError> {
    write_body(w, encode_body_delta(frame))
}

fn write_body(w: &mut impl IoWrite, body: Vec<u8>) -> Result<usize, WireError> {
    debug_assert!(body.len() <= MAX_FRAME, "encoder produced oversize frame");
    w.write_all(&u32_le(body.len() as u32))?;
    w.write_all(&body)?;
    Ok(4 + body.len())
}

/// The one length-prefix rule both readers apply: a zero-length frame
/// is corrupt (the stream stays aligned), and a length over
/// [`MAX_FRAME`] is oversize (framing can no longer be trusted).
fn body_len(prefix: &[u8]) -> Result<usize, WireError> {
    match Reader::new(prefix).u32("length prefix")? {
        0 => Err(corrupt("zero-length frame".into())),
        len if len as usize > MAX_FRAME => Err(WireError::Oversize(len)),
        len => Ok(len as usize),
    }
}

/// Reads one length-prefixed frame body without decoding it.
fn read_frame_body(r: &mut impl IoRead) -> Result<Vec<u8>, WireError> {
    let mut prefix = [0u8; 4];
    // A clean EOF before any length byte is a normal close; EOF after a
    // partial prefix is a truncated stream.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("stream ended inside a length prefix ({filled}/4 bytes)"),
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let mut body = vec![0u8; body_len(&prefix)?];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Reads and decodes one frame: the blocking reader a [`crate::Client`]
/// uses for the server's replies.
///
/// # Errors
///
/// [`WireError::Closed`] on a clean close between frames,
/// [`WireError::Oversize`] for a hostile length prefix,
/// [`WireError::Format`] for a zero-length frame or a body that fails
/// to decode, and [`WireError::Io`] for transport failures (including
/// mid-frame EOF).
pub fn read_frame(r: &mut impl IoRead) -> Result<Frame, WireError> {
    let body = read_frame_body(r)?;
    decode_body(&body)
}

/// One outcome of a [`FrameDecoder`]. In serving, `EngineCore::on_decoded`
/// is the only code that acts on it, for the TCP reader threads and the
/// simulator alike.
#[derive(Debug)]
pub enum Decoded {
    /// A well-formed frame; `bytes` is its wire size (prefix included).
    Frame {
        /// The decoded frame.
        frame: Frame,
        /// Wire bytes consumed by this frame, length prefix included.
        bytes: u64,
    },
    /// A recoverable stream fault: the frame was rejected but the
    /// length prefix kept the stream aligned (zero-length frame, or a
    /// body that failed to decode). The server answers it with a
    /// `Fault` frame and keeps reading.
    Quarantined {
        /// The fault code the server sends back.
        code: FaultCode,
        /// The diagnostic detail the `Fault` carries.
        detail: String,
    },
    /// Framing can no longer be trusted (hostile length prefix). The
    /// server faults and closes the connection; the decoder is poisoned
    /// and yields nothing further.
    Fatal {
        /// The fault code the server sends back.
        code: FaultCode,
        /// The diagnostic detail the `Fault` carries.
        detail: String,
    },
}

/// An incremental, push-based OCWP decoder over a byte stream: feed it
/// arbitrary chunks with [`FrameDecoder::push`], pull complete decode
/// outcomes with [`FrameDecoder::next`].
///
/// It is the server's only inbound framing path. Each TCP reader thread
/// pumps its socket through one, and the deterministic simulator pushes
/// its in-memory transports through one; both hand every outcome to
/// `EngineCore::on_decoded`.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw wire bytes (ignored once the decoder is poisoned).
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        // Compact lazily so a long-lived connection doesn't grow the
        // buffer without bound.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Decodes the next complete unit, or `None` when more bytes are
    /// needed (or the decoder is poisoned).
    ///
    /// Deliberately named like `Iterator::next` — the call shape is the
    /// same — but not implemented as the trait: `None` here means "feed
    /// me more bytes via [`FrameDecoder::push`]", not end-of-stream, so
    /// `for`-loop semantics would be a trap.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Decoded> {
        if self.poisoned || self.pending().len() < 4 {
            return None;
        }
        let len = match body_len(self.pending()) {
            Ok(len) => len,
            // A zero-length frame is its prefix alone.
            Err(WireError::Format(e)) => {
                self.pos += 4;
                return Some(Decoded::Quarantined {
                    code: FaultCode::Decode,
                    detail: e.to_string(),
                });
            }
            Err(WireError::Oversize(len)) => {
                self.poisoned = true;
                return Some(Decoded::Fatal {
                    code: FaultCode::Oversize,
                    detail: format!("frame length {len} exceeds maximum"),
                });
            }
            Err(e) => unreachable!("the length-prefix rule raised {e}"),
        };
        if self.pending().len() < 4 + len {
            return None;
        }
        let body = &self.pending()[4..4 + len];
        let outcome = match decode_body(body) {
            Ok(frame) => Decoded::Frame {
                frame,
                bytes: 4 + len as u64,
            },
            // The length prefix was sound, so the stream stays
            // aligned: quarantine this body only.
            Err(e) => Decoded::Quarantined {
                code: FaultCode::Decode,
                detail: e.to_string(),
            },
        };
        self.pos += 4 + len;
        Some(outcome)
    }

    /// True once a fatal framing error occurred; the server closes the
    /// connection at this point.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Bytes buffered but not yet consumed by a decode outcome.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.pending().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_poet::{EventKind, PoetServer};
    use ocep_vclock::TraceId;

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    fn sample_events() -> Vec<Event> {
        let mut poet = PoetServer::new(3);
        let s = poet.record(t(0), EventKind::Send, "req", "payload");
        poet.record_receive(t(1), s.id(), "req", "payload");
        poet.record(t(2), EventKind::Unary, "tick", "");
        poet.linearization().collect()
    }

    #[test]
    fn put_event_body_matches_general_encoder() {
        for e in sample_events() {
            let general = encode_body(&Frame::Event(Box::new(e.clone())));
            let mut fast = Vec::new();
            put_event_body(&mut fast, &e);
            assert_eq!(fast, general, "single-event fast path drifted");
        }
    }

    fn all_frames() -> Vec<Frame> {
        let events = sample_events();
        vec![
            Frame::Hello {
                mode: Mode::Producer,
                n_traces: 3,
                name: "bench-client".into(),
            },
            Frame::Hello {
                mode: Mode::Tail,
                n_traces: 0,
                name: String::new(),
            },
            Frame::Event(Box::new(events[0].clone())),
            Frame::EventBatch(events.clone()),
            Frame::EventBatch(Vec::new()),
            Frame::Flush,
            Frame::CheckpointReq,
            Frame::StatsReq,
            Frame::StatsReport(StatsReport {
                admitted: 1,
                quarantined: 2,
                duplicates: 3,
                degraded: true,
                matches: 4,
                connections: 5,
                frames: 6,
            }),
            Frame::Shutdown,
            Frame::Ack { credits: 64 },
            Frame::Fault {
                code: FaultCode::Decode,
                detail: "truncated at byte 9".into(),
            },
            Frame::Verdict(VerdictFrame {
                monitor: "safety".into(),
                bindings: vec![(0, 1), (2, 7)],
            }),
            Frame::Resume { durable: 9001 },
            Frame::TailFrom { from: 42 },
            Frame::VerdictAt {
                lsn: u64::MAX - 3,
                verdict: VerdictFrame {
                    monitor: "safety".into(),
                    bindings: vec![(1, 4)],
                },
            },
            Frame::Register {
                tenant: "acme-corp".into(),
                patterns: vec![
                    ("safety".into(), "A := [*, a, *]; pattern := A -> A;".into()),
                    (
                        "liveness".into(),
                        "A := [*, a, *]; pattern := A -> A;".into(),
                    ),
                ],
            },
            Frame::Register {
                tenant: "t0".into(),
                patterns: Vec::new(),
            },
            Frame::Unregister {
                tenant: "acme-corp".into(),
                patterns: vec!["safety".into(), "liveness".into()],
            },
            Frame::TailTenant {
                tenant: "acme-corp".into(),
            },
            Frame::Registered {
                tenant: "acme-corp".into(),
                patterns: 17,
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in all_frames() {
            let body = encode_body(&frame);
            let back = decode_body(&body)
                .unwrap_or_else(|e| panic!("decode failed for {}: {e}", frame.type_name()));
            assert_eq!(back, frame, "round trip mismatch for {}", frame.type_name());
        }
    }

    #[test]
    fn events_keep_clocks_and_partners_across_the_wire() {
        let events = sample_events();
        let body = encode_body(&Frame::EventBatch(events.clone()));
        let Frame::EventBatch(back) = decode_body(&body).unwrap() else {
            panic!("wrong frame type");
        };
        for (orig, got) in events.iter().zip(&back) {
            assert_eq!(orig.id(), got.id());
            assert_eq!(orig.clock(), got.clock());
            assert_eq!(orig.partner(), got.partner());
            assert_eq!(orig.kind(), got.kind());
            assert_eq!(orig.ty(), got.ty());
            assert_eq!(orig.text(), got.text());
        }
    }

    #[test]
    fn truncation_at_every_offset_errors_cleanly() {
        for frame in all_frames() {
            let body = encode_body(&frame);
            for cut in 0..body.len() {
                assert!(
                    decode_body(&body[..cut]).is_err(),
                    "{} prefix of {} bytes was accepted",
                    frame.type_name(),
                    cut
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for frame in all_frames() {
            let mut body = encode_body(&frame);
            body.push(0xAB);
            assert!(
                decode_body(&body).is_err(),
                "{} with trailing garbage was accepted",
                frame.type_name()
            );
        }
    }

    #[test]
    fn decode_errors_carry_byte_offsets() {
        let body = encode_body(&Frame::EventBatch(sample_events()));
        let msg = decode_body(&body[..body.len() - 2])
            .unwrap_err()
            .to_string();
        assert!(msg.contains("byte"), "no offset diagnostic in: {msg}");
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        let err = decode_body(&[200]).unwrap_err();
        assert!(err.to_string().contains("unknown frame type 200"), "{err}");
    }

    #[test]
    fn hello_version_mismatch_is_rejected() {
        let mut body = encode_body(&Frame::Hello {
            mode: Mode::Producer,
            n_traces: 1,
            name: "x".into(),
        });
        body[5] = 99; // version low byte, after type + magic
        let err = decode_body(&body).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn hostile_clock_width_does_not_allocate() {
        // Craft a single-record batch whose clock width claims u32::MAX.
        let mut body = encode_body(&Frame::Event(Box::new(sample_events()[0].clone())));
        // The clock width is the last 4 + 3*4 bytes from the end for a
        // 3-entry clock; overwrite it with a huge value.
        let w = body.len() - 16;
        body[w..w + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_body(&body).unwrap_err();
        assert!(
            err.to_string().contains("clock width"),
            "hostile width not diagnosed: {err}"
        );
    }

    #[test]
    fn frame_io_round_trips_over_a_buffer() {
        let mut wire = Vec::new();
        for frame in all_frames() {
            write_frame(&mut wire, &frame).unwrap();
        }
        let mut cursor = &wire[..];
        for frame in all_frames() {
            let got = read_frame(&mut cursor).unwrap();
            assert_eq!(got, frame);
        }
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Closed)));
    }

    #[test]
    fn oversize_length_prefix_is_rejected_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(b"garbage");
        let mut cursor = &wire[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Oversize(u32::MAX))
        ));
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let wire = 0u32.to_le_bytes();
        let mut cursor = &wire[..];
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Format(_))));
    }

    #[test]
    fn mid_frame_eof_is_io_not_closed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Shutdown).unwrap();
        wire.truncate(wire.len() - 1);
        // Reading the truncated body hits EOF inside the frame.
        let mut cursor = &wire[..];
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io(_))));
    }

    #[test]
    fn decoder_round_trips_every_frame_in_one_byte_chunks() {
        let mut wire = Vec::new();
        for frame in all_frames() {
            write_frame(&mut wire, &frame).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b));
            while let Some(d) = dec.next() {
                match d {
                    Decoded::Frame { frame, bytes } => {
                        assert!(bytes >= 5);
                        got.push(frame);
                    }
                    other => panic!("clean stream produced {other:?}"),
                }
            }
        }
        assert_eq!(got, all_frames());
        assert_eq!(dec.buffered(), 0);
        assert!(!dec.is_poisoned());
    }

    /// A seeded causal workload: `n_events` events over `n_traces`
    /// traces with a mix of local steps and cross-trace receives, so
    /// consecutive clocks per trace differ in 1–2 entries (the shape
    /// the delta encoding exists for).
    fn seeded_batch(seed: u64, n_traces: u32, n_events: usize) -> Vec<Event> {
        let mut rng = ocep_rng::Rng::seed_from_u64(seed);
        let mut poet = PoetServer::new(n_traces as usize);
        let mut out: Vec<Event> = Vec::new();
        for _ in 0..n_events {
            let tr = t(rng.gen_range(0u32..n_traces));
            let e = if !out.is_empty() && rng.gen_range(0u32..3) == 0 {
                let s = &out[rng.gen_range(0usize..out.len())];
                if s.trace() == tr || s.kind() != EventKind::Send {
                    poet.record(tr, EventKind::Unary, "step", "")
                } else {
                    poet.record_receive(tr, s.id(), "msg", "recv")
                }
            } else {
                let kind = if rng.gen_range(0u32..2) == 0 {
                    EventKind::Send
                } else {
                    EventKind::Unary
                };
                poet.record(tr, kind, "msg", "x")
            };
            out.push(e);
        }
        out
    }

    #[test]
    fn delta_batches_round_trip_bit_identically_to_full_encoding() {
        for seed in 0..25u64 {
            for n_traces in [1u32, 3, 8, 50] {
                let events = seeded_batch(seed, n_traces, 120);
                let frame = Frame::EventBatch(events);
                let full = encode_body(&frame);
                let delta = encode_body_delta(&frame);
                let from_full = decode_body(&full).expect("full decodes");
                let from_delta = decode_body(&delta)
                    .unwrap_or_else(|e| panic!("delta decode failed (seed {seed}): {e}"));
                assert_eq!(from_full, frame, "full round trip (seed {seed})");
                assert_eq!(
                    from_delta, frame,
                    "delta round trip diverged (seed {seed}, {n_traces} traces)"
                );
            }
        }
    }

    #[test]
    fn delta_encoding_is_smaller_for_wide_clocks() {
        let frame = Frame::EventBatch(seeded_batch(7, 50, 256));
        let full = encode_body(&frame).len();
        let delta = encode_body_delta(&frame).len();
        assert!(
            delta * 2 < full,
            "delta batch should be well under half the full size at 50 traces: {delta} vs {full}"
        );
    }

    #[test]
    fn non_batch_frames_are_unchanged_by_the_delta_encoder() {
        for frame in all_frames() {
            if matches!(frame, Frame::EventBatch(_)) {
                continue;
            }
            assert_eq!(
                encode_body_delta(&frame),
                encode_body(&frame),
                "{} must be byte-identical under the delta encoder",
                frame.type_name()
            );
        }
    }

    #[test]
    fn delta_truncation_at_every_offset_errors_cleanly() {
        let body = encode_body_delta(&Frame::EventBatch(seeded_batch(3, 4, 40)));
        for cut in 0..body.len() {
            assert!(
                decode_body(&body[..cut]).is_err(),
                "delta prefix of {cut} bytes was accepted"
            );
        }
        let mut garbage = body;
        garbage.push(0xAB);
        assert!(decode_body(&garbage).is_err(), "trailing garbage accepted");
    }

    /// Hand-rolls a one-string `EventBatchD` body whose single record's
    /// clock tail is `tail` (bytes after the partner flag).
    fn drecord_body(tail: &[u8]) -> Vec<u8> {
        let mut b = vec![T_EVENT_BATCH_D];
        b.extend_from_slice(&1u32.to_le_bytes()); // one string
        b.extend_from_slice(&1u32.to_le_bytes());
        b.push(b'a');
        b.extend_from_slice(&1u32.to_le_bytes()); // one record
        b.extend_from_slice(&0u32.to_le_bytes()); // trace
        b.extend_from_slice(&1u32.to_le_bytes()); // index
        b.push(2); // Unary
        b.extend_from_slice(&0u32.to_le_bytes()); // ty id
        b.extend_from_slice(&0u32.to_le_bytes()); // text id
        b.push(0); // no partner
        b.extend_from_slice(tail);
        b
    }

    #[test]
    fn delta_with_no_base_is_diagnosed() {
        // cflag=1, zero changes — but no prior record on trace 0.
        let mut tail = vec![1u8];
        tail.extend_from_slice(&0u32.to_le_bytes());
        let err = decode_body(&drecord_body(&tail)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no base"), "{msg}");
        assert!(msg.contains("byte"), "no offset: {msg}");
    }

    #[test]
    fn bad_clock_flag_is_diagnosed() {
        let mut tail = vec![9u8];
        tail.extend_from_slice(&0u32.to_le_bytes());
        let err = decode_body(&drecord_body(&tail)).unwrap_err();
        assert!(err.to_string().contains("bad clock flag 9"), "{err}");
    }

    #[test]
    fn hostile_delta_count_does_not_allocate() {
        let mut tail = vec![1u8];
        tail.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_body(&drecord_body(&tail)).unwrap_err();
        assert!(err.to_string().contains("delta entries"), "{err}");
    }

    /// Two-record body on one trace: record 0 carries a full width-2
    /// clock, record 1 a delta with caller-chosen `(col, val)` pairs.
    fn two_record_delta_body(changes: &[(u32, u32)]) -> Vec<u8> {
        let mut b = vec![T_EVENT_BATCH_D];
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes());
        b.push(b'a');
        b.extend_from_slice(&2u32.to_le_bytes()); // two records
        for (idx, full) in [(1u32, true), (2u32, false)] {
            b.extend_from_slice(&0u32.to_le_bytes()); // trace
            b.extend_from_slice(&idx.to_le_bytes()); // index
            b.push(2); // Unary
            b.extend_from_slice(&0u32.to_le_bytes()); // ty id
            b.extend_from_slice(&0u32.to_le_bytes()); // text id
            b.push(0); // no partner
            if full {
                b.push(0);
                b.extend_from_slice(&2u32.to_le_bytes()); // width 2
                b.extend_from_slice(&1u32.to_le_bytes());
                b.extend_from_slice(&0u32.to_le_bytes());
            } else {
                b.push(1);
                b.extend_from_slice(&(changes.len() as u32).to_le_bytes());
                for (col, val) in changes {
                    b.extend_from_slice(&col.to_le_bytes());
                    b.extend_from_slice(&val.to_le_bytes());
                }
            }
        }
        b
    }

    #[test]
    fn delta_column_out_of_range_is_diagnosed() {
        let err = decode_body(&two_record_delta_body(&[(7, 9)])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("column 7 exceeds clock width 2"), "{msg}");
    }

    #[test]
    fn delta_columns_must_ascend() {
        let err = decode_body(&two_record_delta_body(&[(1, 3), (0, 2)])).unwrap_err();
        assert!(err.to_string().contains("not ascending"), "{err}");
        let err = decode_body(&two_record_delta_body(&[(0, 3), (0, 2)])).unwrap_err();
        assert!(err.to_string().contains("not ascending"), "{err}");
    }

    #[test]
    fn well_formed_hand_rolled_delta_reconstructs() {
        let Frame::EventBatch(events) =
            decode_body(&two_record_delta_body(&[(0, 2)])).expect("valid delta")
        else {
            panic!("wrong frame type");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].clock().entries(), &[1, 0]);
        assert_eq!(events[1].clock().entries(), &[2, 0]);
    }

    #[test]
    fn frame_decoder_handles_delta_batches() {
        let frame = Frame::EventBatch(seeded_batch(11, 6, 64));
        let mut wire = Vec::new();
        write_frame_delta(&mut wire, &frame).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.next().unwrap() {
            Decoded::Frame { frame: got, bytes } => {
                assert_eq!(got, frame);
                assert_eq!(bytes as usize, wire.len());
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn decoder_quarantines_zero_length_and_stays_aligned() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&0u32.to_le_bytes());
        write_frame(&mut wire, &Frame::Shutdown).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.next().unwrap() {
            Decoded::Quarantined { code, detail } => {
                assert_eq!(code, FaultCode::Decode);
                assert!(detail.contains("zero-length frame"), "{detail}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(matches!(
            dec.next().unwrap(),
            Decoded::Frame {
                frame: Frame::Shutdown,
                ..
            }
        ));
    }

    #[test]
    fn decoder_quarantines_bad_body_and_stays_aligned() {
        // A sound length prefix over a garbage body: the frame is
        // rejected but the next frame still decodes.
        let mut wire = Vec::new();
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(&[0xfe, 0xca, 0xfe]);
        write_frame(&mut wire, &Frame::Flush).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert!(matches!(
            dec.next().unwrap(),
            Decoded::Quarantined {
                code: FaultCode::Decode,
                ..
            }
        ));
        assert!(matches!(
            dec.next().unwrap(),
            Decoded::Frame {
                frame: Frame::Flush,
                ..
            }
        ));
    }

    fn register_body(tenant: &str) -> Vec<u8> {
        encode_body(&Frame::Register {
            tenant: tenant.into(),
            patterns: vec![("p".into(), "A := [*, a, *]; pattern := A -> A;".into())],
        })
    }

    #[test]
    fn bad_tenant_ids_are_rejected_with_offsets() {
        // Encode with a syntactically fine tenant, then splice the bad
        // one in (the encoder itself never validates).
        for bad in ["", "a/b", "tenant with spaces", &"x".repeat(65)] {
            let mut body = vec![T_TAIL_TENANT];
            put_str(&mut body, bad);
            let err = decode_body(&body).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("bad tenant id"), "{bad:?}: {msg}");
            assert!(msg.contains("byte"), "no offset for {bad:?}: {msg}");
        }
        assert!(validate_tenant("ok-Tenant_9").is_ok());
    }

    #[test]
    fn unknown_pattern_ref_is_diagnosed() {
        // Valid register body, then bump the first name id past the table.
        let body = register_body("acme");
        // name id is 8 bytes from the end (name:u32 src:u32).
        let mut bad = body.clone();
        let at = bad.len() - 8;
        bad[at..at + 4].copy_from_slice(&9u32.to_le_bytes());
        let err = decode_body(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown pattern ref 9"), "{err}");
    }

    #[test]
    fn hostile_register_counts_do_not_allocate() {
        // String-table count and pattern count both claim u32::MAX.
        let body = register_body("acme");
        let tenant_end = 1 + 4 + 4; // type + len + "acme"
        let mut bad_tab = body.clone();
        bad_tab[tenant_end..tenant_end + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_body(&bad_tab).unwrap_err();
        assert!(err.to_string().contains("strings"), "{err}");

        let mut bad_count = body;
        let at = bad_count.len() - 12; // count:u32 name:u32 src:u32
        bad_count[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_body(&bad_count).unwrap_err();
        assert!(err.to_string().contains("patterns"), "{err}");
    }

    #[test]
    fn registered_pattern_names_are_shape_checked() {
        for bad in ["", "a/b", &"n".repeat(257)] {
            let body = encode_body(&Frame::Unregister {
                tenant: "acme".into(),
                patterns: vec![bad.to_string()],
            });
            let err = decode_body(&body).unwrap_err();
            assert!(err.to_string().contains("pattern name"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn decoder_poisons_on_oversize_prefix() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        write_frame(&mut wire, &Frame::Shutdown).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.next().unwrap() {
            Decoded::Fatal { code, detail } => {
                assert_eq!(code, FaultCode::Oversize);
                assert!(detail.contains("exceeds maximum"), "{detail}");
            }
            other => panic!("expected fatal, got {other:?}"),
        }
        assert!(dec.is_poisoned());
        assert!(dec.next().is_none(), "poisoned decoder yields nothing");
        dec.push(b"more");
        assert!(dec.next().is_none());
    }
}
