//! # Real-stream ingestion adapters
//!
//! Everything the engine matched before this crate existed came from
//! `crates/simulator`. An *adapter* closes that gap: it reads an
//! external recording — an OTLP-style span export, an MPI trace, an
//! agent-session log — and turns it into the engine's native currency:
//! a stream of [`ocep_poet::Event`]s on numbered traces carrying valid
//! Fidge vector clocks, ready to enter the serving stack through the
//! admission guard (`AdmissionGuard::admit_batch` behind
//! `MonitorSet::observe_raw_batch`, or `EventBatchD` frames over OCWP).
//!
//! The hard part is honesty about causality. External formats record
//! *partial* knowledge of the happens-before relation (span parent
//! edges, message send/receive pairs, session hand-offs); the adapter
//! must synthesize vector clocks that are **sound** with respect to
//! exactly that recorded knowledge — never inventing an ordering the
//! recording does not justify, and never dropping one it does. Each
//! adapter documents its causality-synthesis rules; see
//! `docs/ADAPTERS.md` for the format grammars and the full rules.
//!
//! Three formats ship:
//!
//! * [`otlp`] — JSON-lines distributed-trace span records. Service →
//!   trace, span parent/child and link edges → happens-before, clocks
//!   synthesized by a topological sweep with explicit diagnostics for
//!   cycles and orphan parents.
//! * [`mpi`] — line-oriented MPI-style traces (`send`/`recv`/`bsend`
//!   with tag-scoped FIFO matching) feeding the `crates/poet` MPI
//!   vocabulary (`mpi_send`, `mpi_recv`, `mpi_block_send`).
//! * [`session`] — replayable agent-session recordings (JSON-lines
//!   tool-call/message records; session → trace, explicit `from`
//!   references → cross-session edges).
//!
//! # Error discipline
//!
//! Adapters parse *untrusted* files. Every structural problem —
//! truncated line, cyclic parent reference, out-of-range rank, hostile
//! length claim — surfaces as a line-diagnosed [`AdapterError`];
//! corrupt input **never panics** and never balloons allocation (length
//! claims are bounded by [`MAX_TRACES`]/[`MAX_RECORDS`] before any
//! proportional allocation happens). This mirrors the offset-diagnosed
//! decode discipline of `ocep-net`'s `wire.rs` and the WAL reader.

#![forbid(unsafe_code)]

mod emit;
mod error;
mod json;
pub mod mpi;
pub mod otlp;
pub mod session;
pub mod testgen;

pub use error::{AdapterError, AdapterErrorKind};

use ocep_poet::Event;

/// Hard ceiling on the number of traces (services, ranks, sessions) an
/// adapter will synthesize. Vector clocks are O(n traces) *per event*,
/// so a recording claiming millions of ranks is hostile, not big: the
/// bound is checked before any clock storage is allocated.
pub const MAX_TRACES: usize = 4096;

/// Hard ceiling on the number of records in one recording — a backstop
/// against pathological inputs, far above any fixture this repo ships.
pub const MAX_RECORDS: usize = 64 << 20;

/// Per-span ceiling on `links` entries (OTLP) — each link materializes
/// a synthetic receive event, so unbounded links would let one line
/// manufacture unbounded output.
pub const MAX_LINKS_PER_SPAN: usize = 64;

/// What an adapter distilled from one recording: a causally valid
/// event stream plus the bookkeeping needed to interpret it.
///
/// `events` is a valid linearization — every event appears after all
/// of its causal predecessors — with correct Fidge clocks, so feeding
/// it in order through `AdmissionGuard::admit_batch` admits every
/// event without buffering, and any *reordered* delivery of the same
/// events is repaired by the guard like any other transport would be.
#[derive(Debug, Clone)]
pub struct AdapterOutput {
    /// Number of traces in the synthesized computation.
    pub n_traces: usize,
    /// External name of each trace, indexed by `TraceId` (service
    /// name, `rank-{i}`, or session id).
    pub trace_names: Vec<String>,
    /// The synthesized events, in a valid linearization.
    pub events: Vec<Event>,
    /// Parse/synthesis counters.
    pub stats: AdapterStats,
}

/// Counters describing what one [`Adapter::parse_str`] run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdapterStats {
    /// Input lines seen (including blank/comment lines).
    pub lines: u64,
    /// Records successfully parsed.
    pub records: u64,
    /// Events synthesized (may exceed `records`: multi-link spans
    /// materialize extra receive events).
    pub events: u64,
    /// Cross-trace happens-before edges synthesized.
    pub edges: u64,
    /// Extra synthetic events materialized beyond one-per-record
    /// (e.g. `span_link` receives for secondary span links).
    pub synthesized: u64,
}

/// A reader for one external recording format.
///
/// Implementations are stateless: all per-recording state lives inside
/// `parse_str`. The returned [`AdapterOutput`] is the *whole*
/// recording; callers chunk `output.events` into batches themselves
/// (the CLI's `--batch`, the soak bench's frame size).
pub trait Adapter {
    /// Short format name as accepted by `ocep ingest <format>`.
    fn format(&self) -> &'static str;

    /// Parses one complete recording.
    ///
    /// # Errors
    ///
    /// Returns a line-diagnosed [`AdapterError`] on any structural or
    /// causal defect; never panics on corrupt input.
    fn parse_str(&self, input: &str) -> Result<AdapterOutput, AdapterError>;
}

/// The record lines of a line-oriented recording, each trimmed and
/// paired with its 1-based line number; blank lines and `#` comments
/// are skipped. `seen` counts every line passed over, skipped or not.
fn record_lines<'a>(
    input: &'a str,
    seen: &'a mut u64,
) -> impl Iterator<Item = (usize, &'a str)> + 'a {
    input.lines().enumerate().filter_map(move |(i, raw)| {
        *seen += 1;
        let text = raw.trim();
        (!text.is_empty() && !text.starts_with('#')).then_some((i + 1, text))
    })
}

/// How many records `input` can hold at most, for sizing a reader's
/// tables and output once, before the first record: one per line, and
/// no more than fit at `min_record` bytes each (line break included) —
/// so a file of blank lines reserves a fixed multiple of its own size,
/// not a table slot per line.
fn record_hint(input: &str, min_record: usize) -> usize {
    let lines = input.bytes().filter(|&b| b == b'\n').count() + 1;
    lines.min(input.len() / min_record + 1)
}

/// Looks an adapter up by format name (`"otlp"`, `"mpi"`,
/// `"session"`). Returns `None` for unknown formats — the CLI turns
/// that into a usage error listing [`FORMATS`].
#[must_use]
pub fn by_name(format: &str) -> Option<&'static dyn Adapter> {
    match format {
        "otlp" => Some(&otlp::OtlpAdapter),
        "mpi" => Some(&mpi::MpiAdapter),
        "session" => Some(&session::SessionAdapter),
        _ => None,
    }
}

/// Every format name [`by_name`] accepts, for usage messages.
pub const FORMATS: &[&str] = &["otlp", "mpi", "session"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_every_advertised_format() {
        for f in FORMATS {
            let a = by_name(f).expect("advertised format resolves");
            assert_eq!(a.format(), *f);
        }
        assert!(by_name("protobuf").is_none());
    }

    #[test]
    fn record_hint_counts_lines_but_never_more_than_the_bytes_could_hold() {
        assert_eq!(record_hint("", 9), 1);
        assert_eq!(record_hint("mpi 2\n0 send 1 w\n1 recv 0 w\n", 9), 4);
        // A last line without its break still counts.
        assert_eq!(record_hint("mpi 1\n0 local x", 9), 2);
        assert_eq!(record_hint(&"\n".repeat(9_000), 9), 1_001);
    }
}
