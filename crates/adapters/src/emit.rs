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
//!   one `Arc<str>` per *distinct* string, not two per event; a repeat
//!   of the previous string is answered without hashing.
//! * **Sized once.** The reader says how many events to expect
//!   (`record_hint`, bounded by the input's bytes) before the first
//!   one, so the output vector does not regrow record by record.

use crate::error::limit;
use crate::{AdapterError, AdapterOutput, AdapterStats, MAX_TRACES};
use ocep_poet::{Event, EventKind};
use ocep_vclock::{ClockAssigner, TraceId};
use std::collections::HashMap;
use std::sync::Arc;

/// An interned string; equal text gives an equal `Sym`, and `Sym`s
/// order by first appearance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Sym(u32);

/// A string table: each distinct string gets the next [`Sym`], in
/// order of first appearance. Readers keep one for event types and
/// texts and a second whose `Sym`s are the trace numbers.
#[derive(Default)]
pub(crate) struct Interner {
    ids: HashMap<Arc<str>, Sym>,
    strings: Vec<Arc<str>>,
    /// The previous answer. Recordings repeat themselves — runs of one
    /// tag, one operation, one service — and a repeat is recognised by
    /// comparing the text, with no hash taken.
    last: Sym,
}

impl Interner {
    /// A table with room for `strings` distinct strings.
    pub(crate) fn with_capacity(strings: usize) -> Self {
        Interner {
            ids: HashMap::with_capacity(strings),
            strings: Vec::with_capacity(strings),
            ..Interner::default()
        }
    }

    pub(crate) fn intern(&mut self, s: &str) -> Sym {
        if self
            .strings
            .get(self.last.0 as usize)
            .is_some_and(|l| **l == *s)
        {
            return self.last;
        }
        self.last = match self.ids.get(s) {
            Some(&sym) => sym,
            None => {
                let sym = Sym(u32::try_from(self.strings.len()).expect("bounded by MAX_RECORDS"));
                let shared: Arc<str> = Arc::from(s);
                self.strings.push(Arc::clone(&shared));
                self.ids.insert(shared, sym);
                sym
            }
        };
        self.last
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
    /// An emitter for the traces named `trace_names`, with room for
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_and_alternations_intern_to_first_appearance_order() {
        let mut table = Interner::default();
        let seen: Vec<Sym> = ["w", "w", "", "w", "blk", "", "", "blk"]
            .map(|s| table.intern(s))
            .to_vec();
        let [w, empty, blk] = [Sym(0), Sym(1), Sym(2)];
        assert_eq!(seen, [w, w, empty, w, blk, empty, empty, blk]);
        assert_eq!(table.into_names(), ["w", "", "blk"]);
    }
}
