//! The tracer server: ingest, timestamping, storage, delivery.

use crate::client::Subscription;
use crate::{Event, EventKind, TraceStore};
use ocep_vclock::{ClockAssigner, EventId, TraceId};
use std::collections::HashSet;
use std::sync::{mpsc, Arc};

/// One field's string table (event types, or event texts): every
/// recorded event shares one allocation per distinct string.
#[derive(Debug)]
struct Strings {
    seen: HashSet<Arc<str>>,
    /// The previous answer. A computation repeats itself — runs of one
    /// event type, the empty text — and a repeat is recognised by
    /// comparing the string, with no hash taken.
    last: Arc<str>,
}

impl Strings {
    fn new() -> Self {
        Strings {
            seen: HashSet::new(),
            last: Arc::from(""),
        }
    }

    fn intern(&mut self, s: &str) -> Arc<str> {
        if *self.last != *s {
            self.last = match self.seen.get(s) {
                Some(shared) => Arc::clone(shared),
                None => {
                    let shared: Arc<str> = Arc::from(s);
                    self.seen.insert(Arc::clone(&shared));
                    shared
                }
            };
        }
        Arc::clone(&self.last)
    }
}

/// The POET-style tracer server.
///
/// Applications (or the workload simulator feeding replayed dump
/// files) record events here; the server assigns Fidge vector timestamps —
/// the application itself carries no clock overhead, matching §V-C2's
/// "OCEP receives a vector timestamp constructed in POET, not in the
/// application" — stores the events grouped by trace, and delivers them to
/// clients in a linearization of the partial order.
///
/// # Example
///
/// ```
/// use ocep_poet::{EventKind, PoetServer};
/// use ocep_vclock::TraceId;
///
/// let mut poet = PoetServer::new(3);
/// let s = poet.record(TraceId::new(0), EventKind::Send, "ping", "");
/// let r = poet.record_receive(TraceId::new(2), s.id(), "pong", "");
/// assert_eq!(poet.store().len(), 2);
/// assert!(s.stamp().happens_before(r.stamp()));
/// ```
#[derive(Debug)]
pub struct PoetServer {
    assigner: ClockAssigner,
    store: TraceStore,
    /// How many events, in the store's arrival order, `linearization()`
    /// has already drained.
    drained: usize,
    subscribers: Vec<mpsc::Sender<Event>>,
    types: Strings,
    texts: Strings,
}

impl PoetServer {
    /// Creates a server for a computation with `n_traces` traces.
    #[must_use]
    pub fn new(n_traces: usize) -> Self {
        PoetServer {
            assigner: ClockAssigner::new(n_traces),
            store: TraceStore::new(n_traces),
            drained: 0,
            subscribers: Vec::new(),
            types: Strings::new(),
            texts: Strings::new(),
        }
    }

    /// Number of traces in the monitored computation.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.store.n_traces()
    }

    /// Records a local or send event on trace `t` and returns its
    /// identifier. The event itself is written once, into the store
    /// ([`TraceStore::get`] reads it back): this is the call for a loop
    /// that records many events and keeps none of them.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range, or if `kind` is
    /// [`EventKind::Receive`] (receives need a partner — use
    /// [`PoetServer::record_receive_id`]).
    pub fn record_id(
        &mut self,
        t: TraceId,
        kind: EventKind,
        ty: impl AsRef<str>,
        text: impl AsRef<str>,
    ) -> EventId {
        assert!(
            kind != EventKind::Receive,
            "receive events must be recorded with record_receive"
        );
        self.stamp_intern_store(t, kind, None, ty.as_ref(), text.as_ref())
    }

    /// Records the receive endpoint of the message whose send was
    /// `sender` and returns its identifier (see [`PoetServer::record_id`]).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or `sender` is not a stored event.
    pub fn record_receive_id(
        &mut self,
        t: TraceId,
        sender: EventId,
        ty: impl AsRef<str>,
        text: impl AsRef<str>,
    ) -> EventId {
        self.stamp_intern_store(
            t,
            EventKind::Receive,
            Some(sender),
            ty.as_ref(),
            text.as_ref(),
        )
    }

    /// [`PoetServer::record_id`], handing back a copy of the stored event.
    ///
    /// # Panics
    ///
    /// As [`PoetServer::record_id`].
    pub fn record(
        &mut self,
        t: TraceId,
        kind: EventKind,
        ty: impl AsRef<str>,
        text: impl AsRef<str>,
    ) -> Event {
        let id = self.record_id(t, kind, ty, text);
        self.stored(id)
    }

    /// [`PoetServer::record_receive_id`], handing back a copy of the
    /// stored event.
    ///
    /// # Panics
    ///
    /// As [`PoetServer::record_receive_id`].
    pub fn record_receive(
        &mut self,
        t: TraceId,
        sender: EventId,
        ty: impl AsRef<str>,
        text: impl AsRef<str>,
    ) -> Event {
        let id = self.record_receive_id(t, sender, ty, text);
        self.stored(id)
    }

    fn stored(&self, id: EventId) -> Event {
        self.store
            .get(id)
            .expect("the identifier of an event just stored")
            .clone()
    }

    /// The one recording step: stamps the event (joining `partner`'s
    /// clock for a receive), shares its strings, and moves it into the
    /// store — the only copy the server keeps — after one copy per
    /// subscriber.
    fn stamp_intern_store(
        &mut self,
        t: TraceId,
        kind: EventKind,
        partner: Option<EventId>,
        ty: &str,
        text: &str,
    ) -> EventId {
        let stamp = match partner {
            Some(sender) => {
                let send = self
                    .store
                    .get(sender)
                    .unwrap_or_else(|| panic!("unknown partner event {sender}"));
                self.assigner.receive(t, send.stamp())
            }
            None => self.assigner.local(t),
        };
        let ty = self.types.intern(ty);
        let text = self.texts.intern(text);
        let event = Event::new(stamp, kind, ty, text, partner);
        let id = event.id();
        self.subscribers.retain(|tx| tx.send(event.clone()).is_ok());
        self.store
            .push(event)
            .expect("server-assigned events are always consistent");
        id
    }

    /// Drains the events recorded since the previous call, in arrival
    /// order — a valid linearization of the partial order, because a
    /// receive is always recorded after its send and each trace records in
    /// program order.
    pub fn linearization(&mut self) -> impl Iterator<Item = Event> + '_ {
        let from = std::mem::replace(&mut self.drained, self.store.len());
        self.store.iter_arrival_from(from).cloned()
    }

    /// Opens a channel-based subscription that will receive every event
    /// recorded **after** this call, in linearization order. This mirrors
    /// the paper's architecture where the OCEP monitor connects to POET as
    /// a client, possibly on another thread.
    pub fn subscribe(&mut self) -> Subscription {
        let (tx, rx) = mpsc::channel();
        self.subscribers.push(tx);
        Subscription::new(rx)
    }

    /// The underlying store (read access for GP/LS queries and dumping).
    #[must_use]
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Consumes the server, returning the store — used after a run to dump
    /// the collected trace-event data.
    #[must_use]
    pub fn into_store(self) -> TraceStore {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    #[test]
    fn record_assigns_sequential_indices() {
        let mut poet = PoetServer::new(1);
        let a = poet.record(t(0), EventKind::Unary, "x", "");
        let b = poet.record(t(0), EventKind::Unary, "x", "");
        assert_eq!(a.index().get(), 1);
        assert_eq!(b.index().get(), 2);
    }

    #[test]
    fn linearization_drains_pending() {
        let mut poet = PoetServer::new(2);
        poet.record(t(0), EventKind::Unary, "x", "");
        poet.record(t(1), EventKind::Unary, "y", "");
        assert_eq!(poet.linearization().count(), 2);
        assert_eq!(poet.linearization().count(), 0);
        poet.record(t(0), EventKind::Unary, "z", "");
        assert_eq!(poet.linearization().count(), 1);
    }

    #[test]
    fn receive_joins_sender_clock() {
        let mut poet = PoetServer::new(2);
        let s = poet.record(t(0), EventKind::Send, "s", "");
        let r = poet.record_receive(t(1), s.id(), "r", "");
        assert_eq!(r.clock().entry(t(0)).get(), 1);
        assert_eq!(r.partner(), Some(s.id()));
    }

    #[test]
    #[should_panic(expected = "record_receive")]
    fn record_rejects_receive_kind() {
        let mut poet = PoetServer::new(1);
        poet.record(t(0), EventKind::Receive, "r", "");
    }

    #[test]
    #[should_panic(expected = "unknown partner")]
    fn record_receive_rejects_unknown_sender() {
        let mut poet = PoetServer::new(2);
        poet.record_receive(t(1), EventId::new(t(0), 5.into()), "r", "");
    }

    #[test]
    fn subscription_sees_only_later_events() {
        let mut poet = PoetServer::new(1);
        poet.record(t(0), EventKind::Unary, "early", "");
        let sub = poet.subscribe();
        poet.record(t(0), EventKind::Unary, "late", "");
        drop(poet);
        let got: Vec<_> = sub.into_iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ty(), "late");
    }
}
