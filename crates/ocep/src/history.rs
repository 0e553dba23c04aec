//! Per-leaf event histories with O(1) causal deduplication (§VI).

use ocep_pattern::{LeafId, Pattern};
use ocep_poet::Event;
use ocep_vclock::{EventId, TraceId};
use std::collections::HashMap;

/// The *History* attribute of the pattern's leaves (Fig 2's leaf nodes):
/// for each leaf, the matched events grouped by trace and totally ordered
/// on each trace.
///
/// Storage is bounded by the §VI observation: how an event relates
/// causally to events on *other* traces is affected only by messages, so
/// two same-shape occurrences with no intervening causally relevant event
/// on their trace are interchangeable, and only the first is kept. An
/// event is *causally relevant* here if it is a message endpoint or was
/// itself appended to any leaf history (the latter protects same-trace
/// pattern constraints, which compare event indices).
///
/// Histories are append-only: nothing removes a stored event, so it
/// keeps its slice position for good, and `by_text`'s positions and
/// `by_partner`'s entries never go stale.
#[derive(Debug)]
pub struct LeafHistory {
    /// `per_leaf[leaf][trace]` — events ascending by index.
    pub(crate) per_leaf: Vec<Vec<Vec<Event>>>,
    /// Monotone per-trace counter of causally relevant arrivals.
    pub(crate) relevant: Vec<u64>,
    /// `last_relevant[leaf][trace]` — the `relevant` value when that
    /// history last grew.
    pub(crate) last_relevant: Vec<Vec<u64>>,
    /// `by_partner[leaf]` — for stored receive events, the receive's id
    /// keyed by its partner send. Lets the search resolve a
    /// `<>`-constrained leaf in O(1) instead of scanning candidates.
    pub(crate) by_partner: Vec<HashMap<EventId, EventId>>,
    /// `by_text[leaf][trace]` — ascending slice positions keyed by text
    /// value, maintained only for leaves whose text attribute is a
    /// variable: a bound variable then resolves its candidates without a
    /// linear scan.
    pub(crate) by_text: Vec<Vec<HashMap<std::sync::Arc<str>, Vec<u32>>>>,
    /// Which leaves maintain `by_text`.
    pub(crate) text_indexed: Vec<bool>,
    /// `filled[leaf]` — the traces on which that leaf's history is not
    /// empty, in the order they filled. The search reads it to tell
    /// whether narrowing a level to some traces skipped a candidate.
    pub(crate) filled: Vec<Vec<u32>>,
    pub(crate) dedup: bool,
    /// Leaves whose candidates must never be suppressed: the `from` side
    /// of a `~>` constraint, where "no other occurrence causally between"
    /// makes same-block repeats semantically distinct.
    pub(crate) dedup_exempt: Vec<bool>,
    pub(crate) stored: usize,
    pub(crate) suppressed: usize,
}

impl LeafHistory {
    /// Creates empty histories for `pattern`'s leaves over `n_traces`
    /// traces. `dedup` enables the §VI O(1) suppression (disable it only
    /// for the ablation benchmark). Two leaf classes are exempted:
    ///
    /// * the `from` side of a `~>` constraint, because limited precedence
    ///   distinguishes same-block repeats;
    /// * any leaf with an overlapping-shape sibling not forced
    ///   `Concurrent` with it. A suppressed arrival's stored duplicate
    ///   matches exactly the same leaves, so a match may need *both*
    ///   occurrences at two related leaves (`C -> C`, or `C && C'` with
    ///   `C'` shape-compatible) — distinctness then makes the suppression
    ///   lossy. Concurrent pairs are safe: same-trace duplicates are
    ///   always program-ordered, never concurrent, so e.g. the pairwise-`||`
    ///   deadlock-cycle patterns keep their full §VI dedup.
    #[must_use]
    pub fn new(pattern: &Pattern, n_traces: usize, dedup: bool) -> Self {
        let n_leaves = pattern.n_leaves();
        let mut dedup_exempt = vec![false; n_leaves];
        for c in pattern.constraints() {
            if let ocep_pattern::Constraint::Lim { from, .. } = c {
                dedup_exempt[from.as_usize()] = true;
            }
        }
        let leaves = pattern.leaves();
        for i in 0..n_leaves {
            for j in 0..n_leaves {
                if i == j {
                    continue;
                }
                let rel = pattern.rel(LeafId::from_index(i as u32), LeafId::from_index(j as u32));
                if rel == Some(ocep_pattern::PairRel::Concurrent) {
                    continue;
                }
                if leaves[i].may_overlap(&leaves[j]) {
                    dedup_exempt[i] = true;
                    break;
                }
            }
        }
        let text_indexed: Vec<bool> = pattern
            .leaves()
            .iter()
            .map(|l| l.text_var().is_some())
            .collect();
        LeafHistory {
            per_leaf: vec![vec![Vec::new(); n_traces]; n_leaves],
            relevant: vec![0; n_traces],
            last_relevant: vec![vec![0; n_traces]; n_leaves],
            by_partner: vec![HashMap::new(); n_leaves],
            by_text: vec![vec![HashMap::new(); n_traces]; n_leaves],
            text_indexed,
            filled: vec![Vec::new(); n_leaves],
            dedup,
            dedup_exempt,
            stored: 0,
            suppressed: 0,
        }
    }

    /// Routes an arriving event into the histories of every shape-matching
    /// leaf. Returns `true` if the event was stored in at least one
    /// history (false means it was suppressed everywhere or matched no
    /// leaf — a suppressed terminating event needs no search either,
    /// because an equivalent representative has already been searched).
    pub fn observe(&mut self, pattern: &Pattern, event: &Event) -> bool {
        let t = event.trace().as_usize();
        let mut stored_somewhere = false;
        for leaf in pattern.matching_leaves(event) {
            let l = leaf.as_usize();
            let hist = &mut self.per_leaf[l][t];
            let fresh = self.relevant[t] > self.last_relevant[l][t] || hist.is_empty();
            // Only a unary event may merge into a block, and only when the
            // block head is itself unary: a communication event is never
            // interchangeable with anything (it has its own partner and
            // successor set), in either role.
            let mergeable = hist.last().is_some_and(|prev| {
                prev.kind() == ocep_poet::EventKind::Unary
                    && prev.ty() == event.ty()
                    && prev.text() == event.text()
            });
            if self.dedup
                && !self.dedup_exempt[l]
                && !fresh
                && mergeable
                && !event.kind().is_communication()
            {
                self.suppressed += 1;
                continue;
            }
            self.append(l, event.clone());
            self.last_relevant[l][t] = self.relevant[t] + 1;
            self.stored += 1;
            stored_somewhere = true;
        }
        // A suppressed-everywhere event adds no candidate and leaves the
        // causal structure unchanged, so it is not "relevant": the block
        // it belongs to stays collapsible.
        if event.kind().is_communication() || stored_somewhere {
            self.relevant[t] += 1;
        }
        stored_somewhere
    }

    /// Appends `event` to leaf `l`'s history on its trace and updates the
    /// indexes derived from it (`by_partner`, `by_text`, `filled`). The
    /// caller keeps each history ascending by index.
    pub(crate) fn append(&mut self, l: usize, event: Event) {
        let t = event.trace().as_usize();
        let hist = &mut self.per_leaf[l][t];
        let pos = hist.len() as u32;
        if pos == 0 {
            self.filled[l].push(t as u32);
        }
        if let Some(p) = event.partner() {
            self.by_partner[l].insert(p, event.id());
        }
        if self.text_indexed[l] {
            self.by_text[l][t]
                .entry(event.text_arc())
                .or_default()
                .push(pos);
        }
        hist.push(event);
    }

    /// The traces on which `leaf` has a stored candidate.
    pub(crate) fn filled(&self, leaf: LeafId) -> &[u32] {
        &self.filled[leaf.as_usize()]
    }

    /// The stored candidates for `leaf` on trace `t`, ascending by index.
    #[must_use]
    pub fn on_trace(&self, leaf: LeafId, t: TraceId) -> &[Event] {
        &self.per_leaf[leaf.as_usize()][t.as_usize()]
    }

    /// Total number of stored events across all histories.
    #[must_use]
    pub fn stored(&self) -> usize {
        self.stored
    }

    /// Approximate resident size of the histories in bytes (event
    /// bookkeeping plus one clock entry per trace per event) — the
    /// §VI bounded-storage metric in physical terms.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let per_event = std::mem::size_of::<Event>() + self.n_traces() * std::mem::size_of::<u32>();
        self.stored * per_event
    }

    /// Number of arrivals suppressed by the §VI dedup rule.
    #[must_use]
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// Number of traces.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.relevant.len()
    }

    /// Ascending slice positions of `leaf`'s candidates on `t` whose text
    /// equals `value`. Only leaves whose text attribute is a variable
    /// are indexed; any other leaf reads empty.
    #[must_use]
    pub fn text_positions(&self, leaf: LeafId, t: TraceId, value: &str) -> &[u32] {
        self.by_text[leaf.as_usize()][t.as_usize()]
            .get(value)
            .map_or(&[], Vec::as_slice)
    }

    /// The stored receive in `leaf`'s history whose partner send is
    /// `send`, if any — the O(1) `<>` resolution.
    #[must_use]
    pub fn receive_of(&self, leaf: LeafId, send: EventId) -> Option<EventId> {
        self.by_partner[leaf.as_usize()].get(&send).copied()
    }

    /// The position of the stored event `id` in `leaf`'s history on its
    /// trace, found by binary search over the index-sorted slice.
    #[must_use]
    pub fn position(&self, leaf: LeafId, id: EventId) -> Option<usize> {
        let slice = self.on_trace(leaf, id.trace());
        let pos = slice.partition_point(|x| x.index() < id.index());
        slice.get(pos).is_some_and(|x| x.id() == id).then_some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_poet::{EventKind, PoetServer};

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    fn pattern() -> Pattern {
        Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap()
    }

    #[test]
    fn routes_to_matching_leaf_only() {
        let p = pattern();
        let mut h = LeafHistory::new(&p, 2, true);
        let mut poet = PoetServer::new(2);
        let a = poet.record(t(0), EventKind::Unary, "a", "");
        let other = poet.record(t(0), EventKind::Unary, "zzz", "");
        assert!(h.observe(&p, &a));
        assert!(!h.observe(&p, &other));
        assert_eq!(h.on_trace(p.leaves()[0].id(), t(0)).len(), 1);
        assert_eq!(h.on_trace(p.leaves()[1].id(), t(0)).len(), 0);
    }

    #[test]
    fn dedup_suppresses_causally_equivalent_repeats() {
        let p = pattern();
        let mut h = LeafHistory::new(&p, 2, true);
        let mut poet = PoetServer::new(2);
        for _ in 0..5 {
            let a = poet.record(t(0), EventKind::Unary, "a", "");
            h.observe(&p, &a);
        }
        // Only the first of the equivalent block is kept.
        assert_eq!(h.on_trace(p.leaves()[0].id(), t(0)).len(), 1);
        assert_eq!(h.suppressed(), 4);
    }

    #[test]
    fn communication_breaks_the_equivalence_block() {
        let p = pattern();
        let mut h = LeafHistory::new(&p, 2, true);
        let mut poet = PoetServer::new(2);
        let a1 = poet.record(t(0), EventKind::Unary, "a", "");
        h.observe(&p, &a1);
        let s = poet.record(t(0), EventKind::Send, "msg", "");
        h.observe(&p, &s); // not a leaf match, but a communication event
        let a2 = poet.record(t(0), EventKind::Unary, "a", "");
        h.observe(&p, &a2);
        assert_eq!(h.on_trace(p.leaves()[0].id(), t(0)).len(), 2);
    }

    #[test]
    fn other_leaf_match_on_same_trace_breaks_the_block() {
        // A unary 'b' between two 'a's is causally relevant for same-trace
        // ordering (a1 -> b -> ... vs b -> a2), so a2 must be kept.
        let p = pattern();
        let mut h = LeafHistory::new(&p, 2, true);
        let mut poet = PoetServer::new(2);
        let a1 = poet.record(t(0), EventKind::Unary, "a", "");
        let b = poet.record(t(0), EventKind::Unary, "b", "");
        let a2 = poet.record(t(0), EventKind::Unary, "a", "");
        h.observe(&p, &a1);
        h.observe(&p, &b);
        h.observe(&p, &a2);
        assert_eq!(h.on_trace(p.leaves()[0].id(), t(0)).len(), 2);
    }

    #[test]
    fn different_text_is_not_deduplicated() {
        let p = pattern();
        let mut h = LeafHistory::new(&p, 1, true);
        let mut poet = PoetServer::new(1);
        let a1 = poet.record(t(0), EventKind::Unary, "a", "x");
        let a2 = poet.record(t(0), EventKind::Unary, "a", "y");
        h.observe(&p, &a1);
        h.observe(&p, &a2);
        assert_eq!(h.on_trace(p.leaves()[0].id(), t(0)).len(), 2);
    }

    #[test]
    fn dedup_disabled_stores_everything() {
        let p = pattern();
        let mut h = LeafHistory::new(&p, 1, false);
        let mut poet = PoetServer::new(1);
        for _ in 0..5 {
            let a = poet.record(t(0), EventKind::Unary, "a", "");
            h.observe(&p, &a);
        }
        assert_eq!(h.on_trace(p.leaves()[0].id(), t(0)).len(), 5);
        assert_eq!(h.suppressed(), 0);
    }

    #[test]
    fn histories_stay_sorted_by_index() {
        let p = pattern();
        let mut h = LeafHistory::new(&p, 2, true);
        let mut poet = PoetServer::new(2);
        for i in 0..10 {
            let tr = t(i % 2);
            let s = poet.record(tr, EventKind::Send, "a", format!("{i}"));
            h.observe(&p, &s);
        }
        for tr in 0..2 {
            let evs = h.on_trace(p.leaves()[0].id(), t(tr));
            for w in evs.windows(2) {
                assert!(w[0].index() < w[1].index());
            }
        }
    }
}

#[cfg(test)]
mod block_head_tests {
    use super::*;
    use ocep_poet::{EventKind, PoetServer};

    /// Regression (found by the oracle property suite): a unary event
    /// must not merge into a block headed by a *send* of the same shape —
    /// the send has successors through its receive that the unary lacks.
    #[test]
    fn unary_never_merges_into_a_send_head() {
        let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A || B;").unwrap();
        let mut h = LeafHistory::new(&p, 2, true);
        let mut poet = PoetServer::new(2);
        let s = poet.record(TraceId::new(1), EventKind::Send, "b", "");
        poet.record_receive(TraceId::new(0), s.id(), "b", "");
        let u = poet.record(TraceId::new(1), EventKind::Unary, "b", "");
        for e in poet.store().iter_arrival() {
            h.observe(&p, e);
        }
        // Both the send and the unary must be stored on T1.
        let b_leaf = p.leaves()[1].id();
        assert_eq!(h.on_trace(b_leaf, TraceId::new(1)).len(), 2);
        assert_eq!(h.on_trace(b_leaf, TraceId::new(1))[1].id(), u.id());
    }
}
