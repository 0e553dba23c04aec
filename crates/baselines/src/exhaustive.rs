//! The all-matches oracle.

use ocep_pattern::{Bindings, Pattern};
use ocep_poet::Event;

/// One complete assignment of events to pattern leaves (indexed by leaf).
pub type Assignment = Vec<Event>;

/// Enumerates every match of a pattern over a complete recorded
/// computation. Exponential in the pattern length by design — this is
/// the ground truth the online matcher is validated against, not a
/// monitor. Each prefix is pruned with [`Pattern::pair_holds`] and each
/// complete assignment finished with [`Pattern::deferred_hold`], the
/// checker the engine's own search does not call.
///
/// # Example
///
/// ```
/// use ocep_baselines::ExhaustiveMatcher;
/// use ocep_pattern::Pattern;
/// use ocep_poet::{EventKind, PoetServer};
/// use ocep_vclock::TraceId;
///
/// let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
/// let mut poet = PoetServer::new(1);
/// poet.record(TraceId::new(0), EventKind::Unary, "a", "");
/// poet.record(TraceId::new(0), EventKind::Unary, "b", "");
/// let all: Vec<_> = poet.store().iter_arrival().cloned().collect();
/// let matches = ExhaustiveMatcher::new(&p).matches(&all);
/// assert_eq!(matches.len(), 1);
/// ```
#[derive(Debug)]
pub struct ExhaustiveMatcher<'p> {
    pattern: &'p Pattern,
}

impl<'p> ExhaustiveMatcher<'p> {
    /// Wraps a compiled pattern.
    #[must_use]
    pub fn new(pattern: &'p Pattern) -> Self {
        ExhaustiveMatcher { pattern }
    }

    /// Enumerates all matches over `events` (any order; causality comes
    /// from the vector timestamps).
    #[must_use]
    pub fn matches(&self, events: &[Event]) -> Vec<Assignment> {
        // Pre-filter candidates per leaf by shape.
        let candidates: Vec<Vec<&Event>> = self
            .pattern
            .leaves()
            .iter()
            .map(|l| events.iter().filter(|e| l.matches_shape(e)).collect())
            .collect();
        let mut out = Vec::new();
        let mut stack: Vec<&Event> = Vec::with_capacity(self.pattern.n_leaves());
        let mut bindings = Bindings::new(self.pattern.n_vars());
        self.recurse(&candidates, events, &mut stack, &mut bindings, &mut out);
        out
    }

    /// True if the computation contains at least one match.
    #[must_use]
    pub fn any_match(&self, events: &[Event]) -> bool {
        !self.matches(events).is_empty()
    }

    fn recurse<'e>(
        &self,
        candidates: &[Vec<&'e Event>],
        all: &[Event],
        stack: &mut Vec<&'e Event>,
        bindings: &mut Bindings,
        out: &mut Vec<Assignment>,
    ) {
        let p = self.pattern;
        let pos = stack.len();
        if pos == p.n_leaves() {
            if p.deferred_hold(|l| stack[l.as_usize()], |_| all) {
                out.push(stack.iter().map(|e| (*e).clone()).collect());
            }
            return;
        }
        let leaf = p.leaves()[pos].id();
        for &cand in &candidates[pos] {
            let consistent = stack
                .iter()
                .zip(p.leaves())
                .all(|(e, l)| e.id() != cand.id() && p.pair_holds(leaf, cand, l.id(), e));
            if !consistent {
                continue;
            }
            let Some(delta) = p.leaf_match(leaf, cand, bindings) else {
                continue;
            };
            bindings.apply(&delta);
            stack.push(cand);
            self.recurse(candidates, all, stack, bindings, out);
            stack.pop();
            bindings.retract(&delta);
        }
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
    fn enumerates_all_hb_pairs() {
        let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
        let mut poet = PoetServer::new(1);
        for _ in 0..3 {
            poet.record(t(0), EventKind::Unary, "a", "");
        }
        for _ in 0..2 {
            poet.record(t(0), EventKind::Unary, "b", "");
        }
        let all: Vec<_> = poet.store().iter_arrival().cloned().collect();
        // 3 a's × 2 b's, every a precedes every b on one trace.
        assert_eq!(ExhaustiveMatcher::new(&p).matches(&all).len(), 6);
    }

    #[test]
    fn respects_partner_and_variables() {
        let p =
            Pattern::parse("S := [$x, mpi_send, *]; R := [*, mpi_recv, $x]; pattern := S <> R;")
                .unwrap();
        let mut poet = PoetServer::new(2);
        let s = poet.record(t(0), EventKind::Send, "mpi_send", "");
        poet.record_receive(t(1), s.id(), "mpi_recv", "T0");
        let all: Vec<_> = poet.store().iter_arrival().cloned().collect();
        let m = ExhaustiveMatcher::new(&p).matches(&all);
        assert_eq!(m.len(), 1);

        // Mismatched variable text yields nothing.
        let mut poet = PoetServer::new(2);
        let s = poet.record(t(0), EventKind::Send, "mpi_send", "");
        poet.record_receive(t(1), s.id(), "mpi_recv", "T9");
        let all: Vec<_> = poet.store().iter_arrival().cloned().collect();
        assert!(ExhaustiveMatcher::new(&p).matches(&all).is_empty());
    }

    #[test]
    fn concurrency_counted_once_per_ordered_assignment() {
        let p = Pattern::parse("A := [*, a, *]; B := [*, a, *]; pattern := A || B;").unwrap();
        let mut poet = PoetServer::new(2);
        poet.record(t(0), EventKind::Unary, "a", "");
        poet.record(t(1), EventKind::Unary, "a", "");
        let all: Vec<_> = poet.store().iter_arrival().cloned().collect();
        // Both leaf orders are distinct assignments: 2 matches.
        assert_eq!(ExhaustiveMatcher::new(&p).matches(&all).len(), 2);
    }
}
