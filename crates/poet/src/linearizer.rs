//! Replaying a stored computation in alternative linearizations.
//!
//! A *linearization* of a partial order `->` on a set `X` is a sequence
//! containing each element of `X` once such that any `x` occurs before
//! `x'` whenever `x -> x'` (§V-A). The server's arrival order is one
//! linearization; [`Linearizer`] generates others, which the test suite
//! uses to show the monitor's reported subset is delivery-order
//! independent and the reload path exercises the same interface as live
//! collection.

use crate::{Event, TraceStore};
use ocep_rng::Rng;
use ocep_vclock::EventId;

/// Produces seeded, uniformly shuffled valid linearizations of a
/// [`TraceStore`].
///
/// # Example
///
/// ```
/// use ocep_poet::{EventKind, Linearizer, PoetServer};
/// use ocep_vclock::TraceId;
///
/// let mut poet = PoetServer::new(2);
/// let s = poet.record(TraceId::new(0), EventKind::Send, "s", "");
/// poet.record_receive(TraceId::new(1), s.id(), "r", "");
/// poet.record(TraceId::new(1), EventKind::Unary, "u", "");
///
/// let lin = Linearizer::new(poet.store()).with_seed(7).linearize();
/// assert_eq!(lin.len(), 3);
/// // Causal order is preserved regardless of the seed.
/// let sp = lin.iter().position(|e| e.ty() == "s").unwrap();
/// let rp = lin.iter().position(|e| e.ty() == "r").unwrap();
/// assert!(sp < rp);
/// ```
#[derive(Debug)]
pub struct Linearizer<'a> {
    store: &'a TraceStore,
    seed: u64,
}

impl<'a> Linearizer<'a> {
    /// Creates a linearizer over `store` with the default seed.
    #[must_use]
    pub fn new(store: &'a TraceStore) -> Self {
        Linearizer { store, seed: 0 }
    }

    /// Sets the shuffle seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Produces a valid linearization: repeatedly emits a uniformly chosen
    /// *ready* event (one whose trace predecessor and, for receives,
    /// partner send have already been emitted).
    #[must_use]
    pub fn linearize(&self) -> Vec<Event> {
        let n = self.store.n_traces();
        // Offset by one golden-ratio step so every seed keeps the stream
        // of the SplitMix64 this linearizer used before it shared the
        // workspace generator.
        let mut rng = Rng::seed_from_u64(self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
        // Next unemitted index per trace (0-based into trace_events).
        let mut cursor = vec![0usize; n];
        let mut emitted_count = 0usize;
        let total = self.store.len();
        let mut out = Vec::with_capacity(total);
        let mut emitted = EmittedSet::new(self.store);

        while emitted_count < total {
            // Collect ready traces: head event exists and its partner (if a
            // receive) was emitted.
            let mut ready: Vec<usize> = Vec::new();
            for (t, cur) in cursor.iter().enumerate() {
                let events = self.store.trace_events(ocep_vclock::TraceId::new(t as u32));
                if let Some(head) = events.get(*cur) {
                    let ok = match head.partner() {
                        Some(p) => emitted.contains(p),
                        None => true,
                    };
                    if ok {
                        ready.push(t);
                    }
                }
            }
            assert!(
                !ready.is_empty(),
                "partial order has a cycle or a dangling partner"
            );
            let pick = ready[(rng.next_u64() % ready.len() as u64) as usize];
            let t = ocep_vclock::TraceId::new(pick as u32);
            let ev = self
                .store
                .trace_events(t)
                .get(cursor[pick])
                .expect("a ready trace has an unemitted head")
                .clone();
            emitted.insert(ev.id());
            cursor[pick] += 1;
            emitted_count += 1;
            out.push(ev);
        }
        out
    }
}

/// Dense bitset over (trace, index) pairs.
#[derive(Debug)]
struct EmittedSet {
    per_trace: Vec<Vec<bool>>,
}

impl EmittedSet {
    fn new(store: &TraceStore) -> Self {
        let per_trace = (0..store.n_traces())
            .map(|t| {
                vec![
                    false;
                    store
                        .trace_events(ocep_vclock::TraceId::new(t as u32))
                        .len()
                ]
            })
            .collect();
        EmittedSet { per_trace }
    }

    fn insert(&mut self, id: EventId) {
        self.per_trace[id.trace().as_usize()][id.index().get() as usize - 1] = true;
    }

    fn contains(&self, id: EventId) -> bool {
        self.per_trace[id.trace().as_usize()]
            .get(id.index().get() as usize - 1)
            .copied()
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, PoetServer};
    use ocep_vclock::TraceId;

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    fn build() -> PoetServer {
        let mut poet = PoetServer::new(3);
        let s1 = poet.record(t(0), EventKind::Send, "s1", "");
        poet.record(t(1), EventKind::Unary, "u1", "");
        poet.record_receive(t(1), s1.id(), "r1", "");
        let s2 = poet.record(t(1), EventKind::Send, "s2", "");
        poet.record_receive(t(2), s2.id(), "r2", "");
        poet.record(t(0), EventKind::Unary, "u0", "");
        poet
    }

    fn assert_valid(lin: &[Event]) {
        for (i, e) in lin.iter().enumerate() {
            for later in &lin[i + 1..] {
                assert!(
                    !later.stamp().happens_before(e.stamp()),
                    "{later} delivered after {e} but happens before it"
                );
            }
        }
    }

    #[test]
    fn every_seed_produces_a_valid_linearization() {
        let poet = build();
        for seed in 0..32 {
            let lin = Linearizer::new(poet.store()).with_seed(seed).linearize();
            assert_eq!(lin.len(), poet.store().len());
            assert_valid(&lin);
        }
    }

    #[test]
    fn different_seeds_produce_different_orders() {
        let poet = build();
        let orders: std::collections::HashSet<Vec<_>> = (0..16)
            .map(|s| {
                Linearizer::new(poet.store())
                    .with_seed(s)
                    .linearize()
                    .iter()
                    .map(Event::id)
                    .collect()
            })
            .collect();
        assert!(orders.len() > 1, "shuffling had no effect");
    }

    #[test]
    fn same_seed_is_deterministic() {
        let poet = build();
        let a = Linearizer::new(poet.store()).with_seed(9).linearize();
        let b = Linearizer::new(poet.store()).with_seed(9).linearize();
        assert_eq!(
            a.iter().map(Event::id).collect::<Vec<_>>(),
            b.iter().map(Event::id).collect::<Vec<_>>()
        );
    }
}
