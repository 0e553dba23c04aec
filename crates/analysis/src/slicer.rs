//! Projecting a computation onto a subset of its traces.

use ocep_poet::{EventKind, PoetServer, TraceStore};
use ocep_vclock::TraceId;
use std::collections::HashMap;

/// Projects `store` onto `keep`: a fresh computation containing exactly
/// the kept traces' events, renumbered densely in `keep` order, with
/// timestamps re-derived.
///
/// Messages between two kept traces stay messages; a receive whose send
/// was dropped becomes a unary event (its type and text are preserved),
/// and sends to dropped traces simply lose their receive. Causality
/// *between kept events* that flows only through kept traces is
/// preserved exactly; causality that transited a dropped trace is lost —
/// which is the point: the slice shows what the involved traces alone
/// can justify, the right input for focused offline debugging.
///
/// Duplicate entries in `keep` are ignored after the first.
///
/// # Panics
///
/// Panics if `keep` is empty or names a trace outside the store.
#[must_use]
pub fn slice(store: &TraceStore, keep: &[TraceId]) -> PoetServer {
    assert!(!keep.is_empty(), "slice needs at least one trace");
    let mut order: Vec<TraceId> = Vec::new();
    for &t in keep {
        assert!(
            t.as_usize() < store.n_traces(),
            "trace {t} is outside the store"
        );
        if !order.contains(&t) {
            order.push(t);
        }
    }
    let renumber: HashMap<TraceId, TraceId> = order
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, TraceId::new(i as u32)))
        .collect();

    let mut out = PoetServer::new(order.len());
    // Maps an original event id to its id in the slice, for partner
    // rewiring.
    let mut new_ids = HashMap::new();
    for event in store.iter_arrival() {
        let Some(&new_trace) = renumber.get(&event.trace()) else {
            continue;
        };
        let new_id = match (event.kind(), event.partner()) {
            (EventKind::Receive, Some(partner)) => {
                match new_ids.get(&partner) {
                    Some(&new_partner) => {
                        out.record_receive_id(new_trace, new_partner, event.ty(), event.text())
                    }
                    // The send was on a dropped trace: degrade to unary.
                    None => out.record_id(new_trace, EventKind::Unary, event.ty(), event.text()),
                }
            }
            (kind, _) => out.record_id(new_trace, kind, event.ty(), event.text()),
        };
        new_ids.insert(event.id(), new_id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_poet::Event;

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    /// T0 -> T1 message, T1 -> T2 message, plus locals everywhere.
    fn build() -> PoetServer {
        let mut poet = PoetServer::new(3);
        poet.record(t(0), EventKind::Unary, "a", "1");
        let s01 = poet.record(t(0), EventKind::Send, "m", "");
        poet.record_receive(t(1), s01.id(), "m", "");
        let s12 = poet.record(t(1), EventKind::Send, "n", "");
        poet.record_receive(t(2), s12.id(), "n", "");
        poet.record(t(2), EventKind::Unary, "c", "");
        poet
    }

    #[test]
    fn kept_messages_stay_causal() {
        let poet = build();
        let sliced = slice(poet.store(), &[t(0), t(1)]);
        assert_eq!(sliced.store().n_traces(), 2);
        let events: Vec<&Event> = sliced.store().iter_arrival().collect();
        // a, send, receive, send-to-dropped = 4 events.
        assert_eq!(events.len(), 4);
        let a = events[0];
        let recv = events[2];
        assert!(a.stamp().happens_before(recv.stamp()));
        assert_eq!(recv.partner().map(|p| p.trace()), Some(t(0)));
    }

    #[test]
    fn dropped_sender_degrades_receive_to_unary() {
        let poet = build();
        let sliced = slice(poet.store(), &[t(2)]);
        let events: Vec<&Event> = sliced.store().iter_arrival().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), EventKind::Unary);
        assert_eq!(events[0].ty(), "n"); // type preserved
        assert_eq!(events[0].partner(), None);
    }

    #[test]
    fn renumbering_follows_keep_order() {
        let poet = build();
        let sliced = slice(poet.store(), &[t(2), t(0)]);
        // t2 becomes T0, t0 becomes T1.
        let events: Vec<&Event> = sliced.store().iter_arrival().collect();
        let c = events.iter().find(|e| e.ty() == "c").unwrap();
        assert_eq!(c.trace(), t(0));
        let a = events.iter().find(|e| e.ty() == "a").unwrap();
        assert_eq!(a.trace(), t(1));
    }

    #[test]
    fn duplicates_in_keep_are_ignored() {
        let poet = build();
        let sliced = slice(poet.store(), &[t(0), t(0), t(1)]);
        assert_eq!(sliced.store().n_traces(), 2);
    }

    #[test]
    #[should_panic(expected = "outside the store")]
    fn out_of_range_trace_rejected() {
        let poet = build();
        let _ = slice(poet.store(), &[t(9)]);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_keep_rejected() {
        let poet = build();
        let _ = slice(poet.store(), &[]);
    }
}
