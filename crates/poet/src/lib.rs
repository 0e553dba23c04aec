//! A POET-style partial-order event tracer.
//!
//! The paper's evaluation (§V-A) is built on POET, the *Partial-Order
//! Event Tracer*: a target-system-independent tool that collects
//! instrumented events from a distributed application, groups them by
//! *trace* (any entity with sequential behaviour — a process, a thread, or
//! a passive entity such as a semaphore), assigns vector timestamps
//! **inside the tracer** (so the application carries no clock overhead),
//! and delivers the events to clients in a *linearization of the partial
//! order*. POET also supports *dump*ing collected trace-event data to a
//! file and *reload*ing it through the same interface used for live
//! collection.
//!
//! POET itself is a University-of-Waterloo internal tool; this crate
//! implements the same contract from scratch:
//!
//! * [`PoetServer`] — event ingest, timestamping, storage.
//! * [`Event`] / [`EventKind`] — the traced event model.
//! * [`TraceStore`] — the arrival log (every event once, in the order
//!   the tracer saw it, never moved) plus a per-trace index into it,
//!   with the `GP`/`LS` (greatest-predecessor / least-successor) queries
//!   of §IV-C.
//! * [`Linearizer`] — replays a stored computation in any (seeded) valid
//!   linearization, used to show monitor results are delivery-order
//!   independent.
//! * [`dump`] — the dump/reload file format (§V-B).
//! * [`codec`] — the one binary encoding of an [`Event`] record that the
//!   dump, the OCWP wire, the checkpoints and the durable log all share.
//! * [`client`] — a channel-based subscription client, mirroring how the
//!   OCEP monitor "connects to POET as a client".
//! * [`plugin`] — the event vocabularies of the paper's two target
//!   environments (MPI and μC++).
//!
//! # Example
//!
//! ```
//! use ocep_poet::{EventKind, PoetServer};
//! use ocep_vclock::TraceId;
//!
//! let mut poet = PoetServer::new(2);
//! let send = poet.record(TraceId::new(0), EventKind::Send, "req", "payload");
//! let recv = poet.record_receive(TraceId::new(1), send.id(), "req", "payload");
//! assert!(send.stamp().happens_before(recv.stamp()));
//! assert_eq!(recv.partner(), Some(send.id()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod dump;
mod event;
mod linearizer;
pub mod plugin;
mod server;
mod store;

pub use client::{Subscription, TryRecv};
pub use event::{Event, EventKind};
pub use linearizer::Linearizer;
pub use server::PoetServer;
pub use store::{TraceEvents, TraceStore};

/// Errors produced by the tracer, chiefly by [`dump`] parsing.
#[derive(Debug)]
pub enum PoetError {
    /// The dump file's magic number or version was not recognized.
    BadHeader(String),
    /// The dump data ended prematurely or a field was malformed.
    Corrupt(String),
    /// An event referenced a trace or partner that does not exist.
    Inconsistent(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for PoetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoetError::BadHeader(m) => write!(f, "bad dump header: {m}"),
            PoetError::Corrupt(m) => write!(f, "corrupt dump data: {m}"),
            PoetError::Inconsistent(m) => write!(f, "inconsistent trace data: {m}"),
            PoetError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for PoetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PoetError {
    fn from(e: std::io::Error) -> Self {
        PoetError::Io(e)
    }
}
