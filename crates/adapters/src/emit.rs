//! The emit core: the one place adapter events are made.
//!
//! A reader reduces each event to its trace, its type and text, and
//! the earlier event (if any) it receives from, and hands that to an
//! [`Emitter`]. The contract (`docs/ADAPTERS.md`, "Cost"):
//!
//! * **Pushed once, in linearization order.** `local` and `receive` each
//!   append one event and return its output position; a receive names
//!   its partner by that position, so the partner is already emitted
//!   and its clock is read in place.
//! * **Strings interned by value.** Type and text travel as [`Sym`]s:
//!   one `Arc<str>` per *distinct* string, not two per event.

use crate::error::limit;
use crate::{AdapterError, AdapterOutput, AdapterStats, MAX_TRACES};
use ocep_poet::{Event, EventKind};
use ocep_vclock::{ClockAssigner, TraceId};
use std::collections::HashMap;
use std::sync::Arc;

/// An interned string; equal text gives an equal `Sym`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Sym(u32);

/// A string table: each distinct string gets the next [`Sym`], in
/// order of first appearance. Readers keep one for event types and
/// texts and a second whose `Sym`s are the trace numbers.
#[derive(Default)]
pub(crate) struct Interner {
    ids: HashMap<Arc<str>, Sym>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    pub(crate) fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.ids.get(s) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.strings.len()).expect("bounded by MAX_RECORDS"));
        let shared: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&shared));
        self.ids.insert(shared, sym);
        sym
    }

    fn get(&self, sym: Sym) -> Arc<str> {
        Arc::clone(&self.strings[sym.0 as usize])
    }

    /// The trace number of `name`, a `what` ("service", "session") seen
    /// on `line`; bounded by [`MAX_TRACES`] before any clock exists.
    pub(crate) fn trace(
        &mut self,
        name: &str,
        line: usize,
        what: &str,
    ) -> Result<u32, AdapterError> {
        let Sym(trace) = self.intern(name);
        if (trace as usize) < MAX_TRACES {
            return Ok(trace);
        }
        Err(limit(
            line,
            format!(
                "{what} `{name}` would be trace {} — the clock width is capped at {MAX_TRACES} traces",
                trace + 1
            ),
        ))
    }

    /// The interned strings in `Sym` order (the trace names).
    pub(crate) fn into_names(self) -> Vec<String> {
        self.strings.iter().map(|s| s.to_string()).collect()
    }
}

/// Stamps and collects the output events of one recording.
pub(crate) struct Emitter {
    trace_names: Vec<String>,
    asn: ClockAssigner,
    pub(crate) strings: Interner,
    events: Vec<Event>,
}

impl Emitter {
    /// An emitter for the traces named `trace_names`, expecting about
    /// `capacity` events and resolving the `Sym`s made by `strings`.
    pub(crate) fn new(trace_names: Vec<String>, strings: Interner, capacity: usize) -> Self {
        Emitter {
            asn: ClockAssigner::new(trace_names.len()),
            trace_names,
            strings,
            events: Vec::with_capacity(capacity),
        }
    }

    /// Emits an event with no partner — a send endpoint when `send`,
    /// purely local otherwise; returns its position.
    pub(crate) fn local(&mut self, trace: u32, send: bool, ty: Sym, text: Sym) -> usize {
        let kind = if send {
            EventKind::Send
        } else {
            EventKind::Unary
        };
        let stamp = self.asn.local(TraceId::new(trace));
        let (ty, text) = (self.strings.get(ty), self.strings.get(text));
        self.events.push(Event::new(stamp, kind, ty, text, None));
        self.events.len() - 1
    }

    /// Emits the receive of the message sent by the event at position
    /// `partner`, joining that event's clock; returns its position.
    pub(crate) fn receive(&mut self, trace: u32, partner: usize, ty: Sym, text: Sym) -> usize {
        let sender = self.events[partner].stamp();
        let stamp = self.asn.receive(TraceId::new(trace), sender);
        let partner = Some(sender.id());
        let (ty, text) = (self.strings.get(ty), self.strings.get(text));
        self.events
            .push(Event::new(stamp, EventKind::Receive, ty, text, partner));
        self.events.len() - 1
    }

    /// The recording's output: the events in the order they were
    /// pushed, with `stats.events` filled in.
    pub(crate) fn finish(self, mut stats: AdapterStats) -> AdapterOutput {
        stats.events = self.events.len() as u64;
        AdapterOutput {
            n_traces: self.trace_names.len(),
            trace_names: self.trace_names,
            events: self.events,
            stats,
        }
    }
}
