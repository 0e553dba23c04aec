//! Chronological backtracking without causal pruning — the ablation
//! baseline.

use ocep_pattern::{Bindings, LeafId, Pattern};
use ocep_poet::Event;

/// An online matcher with the *same* history layout and terminating-event
/// analysis as OCEP but none of its search intelligence:
///
/// * no Fig 4 domain restriction — every stored candidate of a leaf is
///   tried, latest first (plain "chronological backtracking", which §IV-C
///   notes "explores the entire search space until a solution is found or
///   a conflict is reached");
/// * no conflict-directed backjumping;
/// * no §VI history deduplication.
///
/// It decides a match with the oracle's checker: [`Pattern::pair_holds`]
/// against every assigned leaf, then [`Pattern::deferred_hold`] with its
/// own per-leaf history as the `~>` blockers.
///
/// It stops at the first complete match per arrival (detection
/// semantics), so timing it against [`ocep_core::Monitor`] isolates the
/// cost of the missing pruning.
#[derive(Debug)]
pub struct NaiveMatcher {
    pattern: Pattern,
    /// `history[leaf]` — all shape-matching events, arrival order.
    history: Vec<Vec<Event>>,
    n_traces: usize,
    nodes: u64,
    found: u64,
}

impl NaiveMatcher {
    /// Creates a matcher for `pattern` over `n_traces` traces.
    #[must_use]
    pub fn new(pattern: Pattern, n_traces: usize) -> Self {
        let k = pattern.n_leaves();
        NaiveMatcher {
            pattern,
            history: vec![Vec::new(); k],
            n_traces,
            nodes: 0,
            found: 0,
        }
    }

    /// Observes one event; returns `true` if a complete match containing
    /// it exists (first match only).
    pub fn observe(&mut self, event: &Event) -> bool {
        for leaf in self.pattern.matching_leaves(event) {
            self.history[leaf.as_usize()].push(event.clone());
        }
        let (mut nodes, mut found) = (0, 0);
        let mut assignment: Vec<Option<&Event>> = vec![None; self.pattern.n_leaves()];
        for &tl in self.pattern.terminating_leaves() {
            if !self.pattern.leaves()[tl.as_usize()].matches_shape(event) {
                continue;
            }
            let mut bindings = Bindings::new(self.pattern.n_vars());
            let Some(delta) = self.pattern.leaf_match(tl, event, &bindings) else {
                continue;
            };
            bindings.apply(&delta);
            assignment[tl.as_usize()] = Some(event);
            let order = self.pattern.eval_order(tl);
            if self.descend(order, 1, &mut assignment, &mut bindings, &mut nodes) {
                found += 1;
            }
            assignment[tl.as_usize()] = None;
        }
        self.nodes += nodes;
        self.found += found;
        found > 0
    }

    /// Tries every stored candidate of `order[pos]`, latest first,
    /// against the leaves already assigned, counting each in `nodes`.
    fn descend<'e>(
        &'e self,
        order: &[LeafId],
        pos: usize,
        assignment: &mut [Option<&'e Event>],
        bindings: &mut Bindings,
        nodes: &mut u64,
    ) -> bool {
        let p = &self.pattern;
        if pos == order.len() {
            return p.deferred_hold(
                |l| assignment[l.as_usize()].expect("assigned"),
                |l| &self.history[l.as_usize()],
            );
        }
        let leaf = order[pos];
        for cand in self.history[leaf.as_usize()].iter().rev() {
            *nodes += 1;
            if assignment.iter().flatten().any(|e| e.id() == cand.id()) {
                continue;
            }
            // Direct causality comparison against every assigned leaf,
            // not domain restriction.
            let consistent = order[..pos].iter().all(|&q| {
                let other = assignment[q.as_usize()].expect("assigned");
                p.pair_holds(leaf, cand, q, other)
            });
            if !consistent {
                continue;
            }
            let Some(delta) = p.leaf_match(leaf, cand, bindings) else {
                continue;
            };
            bindings.apply(&delta);
            assignment[leaf.as_usize()] = Some(cand);
            let complete = self.descend(order, pos + 1, assignment, bindings, nodes);
            assignment[leaf.as_usize()] = None;
            bindings.retract(&delta);
            if complete {
                return true;
            }
        }
        false
    }

    /// Total candidate events examined (the ablation metric).
    #[must_use]
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Number of arrivals on which a match was found.
    #[must_use]
    pub fn detections(&self) -> u64 {
        self.found
    }

    /// Total events stored (no dedup, so this grows without bound).
    #[must_use]
    pub fn history_size(&self) -> usize {
        self.history.iter().map(Vec::len).sum()
    }

    /// Number of traces in the monitored computation.
    #[must_use]
    pub fn n_traces(&self) -> usize {
        self.n_traces
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

    #[test]
    fn detects_the_same_simple_match_as_ocep() {
        let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
        let mut naive = NaiveMatcher::new(p, 1);
        let mut poet = PoetServer::new(1);
        poet.record(t(0), EventKind::Unary, "a", "");
        poet.record(t(0), EventKind::Unary, "b", "");
        let hits: Vec<bool> = poet.linearization().map(|e| naive.observe(&e)).collect();
        assert_eq!(hits, vec![false, true]);
        assert_eq!(naive.detections(), 1);
    }

    #[test]
    fn explores_more_nodes_than_needed() {
        // Many useless candidates: naive visits them all; this is the
        // quantity the ablation bench compares against OCEP's domains.
        let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
        let mut naive = NaiveMatcher::new(p, 2);
        let mut poet = PoetServer::new(2);
        // 'a's on T1, concurrent with the final 'b' on T0 — all useless.
        for _ in 0..50 {
            poet.record(t(1), EventKind::Unary, "a", "");
        }
        poet.record(t(0), EventKind::Unary, "b", "");
        let mut detected = false;
        for e in poet.linearization() {
            detected |= naive.observe(&e);
        }
        assert!(!detected);
        assert!(naive.nodes() >= 1);
        assert_eq!(naive.history_size(), 51);
    }
}
