//! The compiled pattern: its leaves and its constraint graph.

use crate::binding::{Bindings, VarId};
use crate::compile::{compile, Constraint, PairRel};
use crate::parser::parse;
use crate::{PatternError, Program};
use ocep_poet::Event;
use ocep_vclock::{Causality, EventSet, TraceId};
use std::sync::Arc;

/// Index of a leaf (primitive-event occurrence) in a compiled pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeafId(u32);

impl LeafId {
    /// Builds a `LeafId` from its dense index.
    #[must_use]
    pub fn from_index(i: u32) -> Self {
        LeafId(i)
    }

    /// The dense index, usable as an array offset.
    #[must_use]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LeafId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "leaf{}", self.0)
    }
}

/// A class attribute after variable resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ResolvedAttr {
    Wildcard,
    Literal(Arc<str>),
    Var(VarId),
}

/// A leaf of the pattern: one primitive-event occurrence with
/// its resolved `[process, type, text]` specification (Fig 2's *Type*
/// attribute; *Order* is per-terminating-leaf in
/// [`Pattern::eval_order`]; *History* lives in the matcher).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafSpec {
    id: LeafId,
    class_name: String,
    display: String,
    process: ResolvedAttr,
    ty: ResolvedAttr,
    text: ResolvedAttr,
}

impl LeafSpec {
    pub(crate) fn new(
        id: LeafId,
        class_name: String,
        display: String,
        process: ResolvedAttr,
        ty: ResolvedAttr,
        text: ResolvedAttr,
    ) -> Self {
        LeafSpec {
            id,
            class_name,
            display,
            process,
            ty,
            text,
        }
    }

    /// The leaf's index.
    #[must_use]
    pub fn id(&self) -> LeafId {
        self.id
    }

    /// The class this occurrence instantiates.
    #[must_use]
    pub fn class_name(&self) -> &str {
        &self.class_name
    }

    /// Human-readable occurrence name: the class name, `Class#2` for
    /// repeated occurrences, or `$var` for event variables.
    #[must_use]
    pub fn display_name(&self) -> &str {
        &self.display
    }

    /// True if the leaf's type attribute is the literal `ty` — a fast
    /// pre-filter used when routing arriving events to leaf histories.
    #[must_use]
    pub fn ty_literal(&self) -> Option<&str> {
        match &self.ty {
            ResolvedAttr::Literal(s) => Some(s),
            _ => None,
        }
    }

    /// The attribute variable occupying the text slot, if any — the
    /// matcher indexes such leaves' candidates by text value so a bound
    /// variable resolves without scanning.
    #[must_use]
    pub fn text_var(&self) -> Option<VarId> {
        match &self.text {
            ResolvedAttr::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// The attribute variable occupying the process slot, if any.
    #[must_use]
    pub fn process_var(&self) -> Option<VarId> {
        match &self.process {
            ResolvedAttr::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// True if any attribute slot is the variable `v`. In an evaluation
    /// order, the first leaf that mentions `v` is the one that binds it.
    #[must_use]
    pub fn mentions(&self, v: VarId) -> bool {
        [&self.process, &self.ty, &self.text].contains(&&ResolvedAttr::Var(v))
    }

    /// The single trace this leaf's candidates can live on, if the
    /// process attribute pins one: a `T<n>` literal, or a variable
    /// already bound to a trace name. The matcher then skips every other
    /// trace at this leaf's level.
    #[must_use]
    pub fn process_pin(&self, bindings: &Bindings) -> Option<TraceId> {
        match &self.process {
            ResolvedAttr::Literal(s) => parse_trace_name(s),
            ResolvedAttr::Var(v) => bindings.get(*v).and_then(|s| parse_trace_name(&s)),
            ResolvedAttr::Wildcard => None,
        }
    }

    /// Checks the variable-free attributes (literals and wildcards)
    /// against an event. Variable sites always pass here; they are
    /// checked/bound by [`Pattern::leaf_match`] during the search.
    #[must_use]
    pub fn matches_shape(&self, event: &Event) -> bool {
        let process_ok = match &self.process {
            ResolvedAttr::Literal(want) => is_trace_name(want, event.trace()),
            ResolvedAttr::Wildcard | ResolvedAttr::Var(_) => true,
        };
        process_ok && attr_shape_ok(&self.ty, event.ty()) && attr_shape_ok(&self.text, event.text())
    }

    /// True if some event could match both leaves: every attribute slot
    /// is compatible (equal literals, or at least one side a wildcard or
    /// variable). Conservative — variables count as compatible with
    /// everything regardless of what they end up bound to.
    #[must_use]
    pub fn may_overlap(&self, other: &LeafSpec) -> bool {
        fn compat(a: &ResolvedAttr, b: &ResolvedAttr) -> bool {
            match (a, b) {
                (ResolvedAttr::Literal(x), ResolvedAttr::Literal(y)) => x == y,
                _ => true,
            }
        }
        compat(&self.process, &other.process)
            && compat(&self.ty, &other.ty)
            && compat(&self.text, &other.text)
    }
}

fn attr_shape_ok(attr: &ResolvedAttr, actual: &str) -> bool {
    match attr {
        ResolvedAttr::Wildcard | ResolvedAttr::Var(_) => true,
        ResolvedAttr::Literal(want) => &**want == actual,
    }
}

/// `s == format!("T{}", t)` without allocating.
fn is_trace_name(s: &str, t: TraceId) -> bool {
    parse_trace_name(s) == Some(t)
}

/// Parses a canonical trace display name (`T7`).
fn parse_trace_name(s: &str) -> Option<TraceId> {
    let digits = s.strip_prefix('T')?;
    // Reject the leading zeros and plus sign that parse would accept.
    if !digits.bytes().all(|b| b.is_ascii_digit())
        || digits.is_empty()
        || (digits.len() > 1 && digits.starts_with('0'))
    {
        return None;
    }
    digits.parse::<u32>().ok().map(TraceId::new)
}

/// A parsed, compiled causal event-pattern.
///
/// See the [crate documentation](crate) for the language. The accessors
/// expose everything the §IV matcher needs: the leaf table, one closed
/// pairwise relation per leaf pair ([`Pattern::rel`]), the constraints a
/// pair cannot express ([`Pattern::constraints`]), the terminating-leaf
/// set, and a per-seed evaluation order.
///
/// # Example
///
/// ```
/// use ocep_pattern::{PairRel, Pattern};
///
/// let p = Pattern::parse(
///     "A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; B $b; \
///      pattern := A -> $b && $b -> C;",
/// )
/// .unwrap();
/// let (a, b, c) = (p.leaves()[0].id(), p.leaves()[1].id(), p.leaves()[2].id());
/// // The closure derives A -> C from A -> $b -> C.
/// assert_eq!(p.rel(a, c), Some(PairRel::Before));
/// // Only C can complete a match.
/// assert_eq!(p.terminating_leaves(), &[c]);
/// ```
#[derive(Debug)]
pub struct Pattern {
    program: Program,
    source: String,
    leaves: Vec<LeafSpec>,
    constraints: Vec<Constraint>,
    rel: Vec<Vec<Option<PairRel>>>,
    var_names: Vec<String>,
    terminating: Vec<LeafId>,
    eval_order: Vec<Vec<LeafId>>,
}

impl Pattern {
    /// Parses and compiles a pattern program.
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] describing the first lexical, syntactic,
    /// or semantic problem (unknown class, contradictory or cyclic
    /// constraints, misused operator, …), or a parse error naming the
    /// size rule ([`crate::MAX_LEAVES`], [`crate::MAX_DEPTH`]).
    pub fn parse(src: &str) -> Result<Self, PatternError> {
        let program = parse(src)?;
        let compiled = compile(&program)?;
        Ok(Pattern {
            program,
            source: src.to_owned(),
            leaves: compiled.leaves,
            constraints: compiled.constraints,
            rel: compiled.rel,
            var_names: compiled.var_names,
            terminating: compiled.terminating,
            eval_order: compiled.eval_order,
        })
    }

    /// The original source text.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed program (class definitions, declarations, expression).
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The pattern's leaves (primitive-event occurrences) in creation
    /// order.
    #[must_use]
    pub fn leaves(&self) -> &[LeafSpec] {
        &self.leaves
    }

    /// Number of leaves (the `k` of the §IV-B `k·n` subset bound).
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The constraints [`Pattern::rel`] cannot express — `<>`, `~>`,
    /// weak precedence and entanglement — each once, in the order the
    /// pattern first states them.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The pairwise causal requirement between two leaves, after
    /// transitive closure, or `None` if unconstrained.
    #[must_use]
    pub fn rel(&self, a: LeafId, b: LeafId) -> Option<PairRel> {
        self.rel[a.as_usize()][b.as_usize()]
    }

    /// Names of the attribute variables, indexed by [`VarId`].
    #[must_use]
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// Number of attribute variables (for sizing a [`Bindings`] table).
    #[must_use]
    pub fn n_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The terminating leaves (§V-B): only an event matching one of these
    /// can complete a match, so only these arrivals start a search.
    #[must_use]
    pub fn terminating_leaves(&self) -> &[LeafId] {
        &self.terminating
    }

    /// The leaf evaluation order for a search seeded at `seed` (Fig 2's
    /// *Order* attribute): begins with `seed`, then walks constraint
    /// neighbours breadth-first so each new level is causally
    /// constrained by an earlier one where possible, taking first a
    /// reached leaf whose process variable an earlier leaf binds.
    #[must_use]
    pub fn eval_order(&self, seed: LeafId) -> &[LeafId] {
        &self.eval_order[seed.as_usize()]
    }

    /// Checks whether `event` can instantiate `leaf` under the current
    /// `bindings`. On success returns the delta of *new* variable
    /// bindings the instantiation introduces (empty if none); the caller
    /// applies it and retracts it when backtracking. Returns `None` on
    /// any attribute or binding mismatch.
    #[must_use]
    pub fn leaf_match(
        &self,
        leaf: LeafId,
        event: &Event,
        bindings: &Bindings,
    ) -> Option<Vec<(VarId, Arc<str>)>> {
        let spec = &self.leaves[leaf.as_usize()];
        let mut delta: Vec<(VarId, Arc<str>)> = Vec::new();
        // The process attribute compares against the trace's display name
        // without allocating; the name is only materialized when a
        // process variable actually binds.
        match &spec.process {
            ResolvedAttr::Wildcard => {}
            ResolvedAttr::Literal(want) => {
                if !is_trace_name(want, event.trace()) {
                    return None;
                }
            }
            ResolvedAttr::Var(v) => {
                if let Some(bound) = bindings.get(*v) {
                    if !is_trace_name(&bound, event.trace()) {
                        return None;
                    }
                } else {
                    delta.push((*v, Arc::from(event.trace().to_string())));
                }
            }
        }
        let sites = [(&spec.ty, event.ty_arc()), (&spec.text, event.text_arc())];
        for (attr, actual) in sites {
            match attr {
                ResolvedAttr::Wildcard => {}
                ResolvedAttr::Literal(want) => {
                    if **want != *actual {
                        return None;
                    }
                }
                ResolvedAttr::Var(v) => {
                    if let Some(bound) = bindings.get(*v) {
                        if *bound != *actual {
                            return None;
                        }
                    } else if let Some((_, prior)) = delta.iter().find(|(dv, _)| dv == v) {
                        if **prior != *actual {
                            return None;
                        }
                    } else {
                        delta.push((*v, actual));
                    }
                }
            }
        }
        Some(delta)
    }

    /// True if `a` at leaf `la` and `b` at leaf `lb` satisfy everything
    /// the pattern asks of that pair: the [`Pattern::rel`] cell, compared
    /// on the two events' own clocks, and a `<>` between the two leaves.
    /// Distinctness, attributes and the deferred constraints are checked
    /// elsewhere ([`Pattern::leaf_match`], [`Pattern::deferred_hold`]).
    #[must_use]
    pub fn pair_holds(&self, la: LeafId, a: &Event, lb: LeafId, b: &Event) -> bool {
        if let Some(rel) = self.rel(la, lb) {
            let got = a.stamp().causality(b.stamp());
            let ok = matches!(
                (rel, got),
                (PairRel::Before, Causality::Before)
                    | (PairRel::After, Causality::After)
                    | (PairRel::Concurrent, Causality::Concurrent)
            );
            if !ok {
                return false;
            }
        }
        self.constraints.iter().all(|c| match *c {
            Constraint::Partner { send, recv } if (send, recv) == (la, lb) => {
                b.partner() == Some(a.id())
            }
            Constraint::Partner { send, recv } if (send, recv) == (lb, la) => {
                a.partner() == Some(b.id())
            }
            _ => true,
        })
    }

    /// True if a complete assignment (`event_of` gives each leaf's
    /// event) satisfies the constraints no pair decides: `~>` (no event
    /// of the `from` leaf's shape in `seen(from)` lies strictly causally
    /// between the two endpoints), compound precedence and entanglement.
    #[must_use]
    pub fn deferred_hold<'e>(
        &self,
        event_of: impl Fn(LeafId) -> &'e Event,
        seen: impl Fn(LeafId) -> &'e [Event],
    ) -> bool {
        let set = |leaves: &[LeafId]| -> EventSet {
            leaves
                .iter()
                .map(|&l| event_of(l).stamp().clone())
                .collect()
        };
        self.constraints.iter().all(|c| match c {
            Constraint::Partner { .. } => true,
            Constraint::Lim { from, to } => {
                let (a, b) = (event_of(*from).stamp(), event_of(*to).stamp());
                let spec = &self.leaves[from.as_usize()];
                !seen(*from).iter().any(|x| {
                    a.happens_before(x.stamp())
                        && x.stamp().happens_before(b)
                        && spec.matches_shape(x)
                })
            }
            Constraint::WeakPrecede { from, to } => set(from).weakly_precedes(&set(to)),
            Constraint::Entangled { left, right } => set(left).entangled(&set(right)),
        })
    }

    /// The whole-match check: true if `events` (indexed by leaf) is a
    /// match of the pattern over a computation in which `seen` are the
    /// events observed so far. The events must be distinct, each must
    /// instantiate its leaf with one consistent set of attribute
    /// bindings (taken in leaf order), every pair must hold
    /// ([`Pattern::pair_holds`]) and so must the deferred constraints
    /// ([`Pattern::deferred_hold`]).
    ///
    /// # Example
    ///
    /// ```
    /// use ocep_pattern::Pattern;
    /// use ocep_poet::{EventKind, PoetServer};
    /// use ocep_vclock::TraceId;
    ///
    /// let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
    /// let mut poet = PoetServer::new(2);
    /// let a = poet.record(TraceId::new(0), EventKind::Unary, "a", "");
    /// let b = poet.record(TraceId::new(0), EventKind::Unary, "b", "");
    /// let c = poet.record(TraceId::new(1), EventKind::Unary, "b", "");
    /// let seen = [a.clone(), b.clone(), c.clone()];
    /// assert!(p.accepts(&[a.clone(), b], &seen));
    /// // `a` does not happen before the `b` on the other trace.
    /// assert!(!p.accepts(&[a, c], &seen));
    /// ```
    #[must_use]
    pub fn accepts(&self, events: &[Event], seen: &[Event]) -> bool {
        if events.len() != self.n_leaves() {
            return false;
        }
        let mut bindings = Bindings::new(self.n_vars());
        for (i, (spec, e)) in self.leaves.iter().zip(events).enumerate() {
            for (l, p) in self.leaves.iter().zip(&events[..i]) {
                if p.id() == e.id() || !self.pair_holds(spec.id, e, l.id, p) {
                    return false;
                }
            }
            let Some(delta) = self.leaf_match(spec.id, e, &bindings) else {
                return false;
            };
            bindings.apply(&delta);
        }
        self.deferred_hold(|l| &events[l.as_usize()], |_| seen)
    }

    /// The leaves whose shape (variable-free attributes) accepts `event` —
    /// the routing step that appends an arriving event to leaf histories.
    pub fn matching_leaves<'a>(&'a self, event: &'a Event) -> impl Iterator<Item = LeafId> + 'a {
        self.leaves
            .iter()
            .filter(move |l| l.matches_shape(event))
            .map(LeafSpec::id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_poet::{EventKind, PoetServer};

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    #[test]
    fn simple_before_pattern_compiles() {
        let p = Pattern::parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
        assert_eq!(p.n_leaves(), 2);
        let (a, b) = (p.leaves()[0].id(), p.leaves()[1].id());
        assert_eq!(p.rel(a, b), Some(PairRel::Before));
        assert_eq!(p.rel(b, a), Some(PairRel::After));
        assert_eq!(p.terminating_leaves(), &[b]);
    }

    #[test]
    fn repeated_class_creates_distinct_leaves() {
        let p = Pattern::parse(
            "A := [*, a, *]; B := [*, b, *]; \
                                pattern := A -> B && A -> B;",
        )
        .unwrap();
        assert_eq!(p.n_leaves(), 4);
        assert_eq!(p.leaves()[2].display_name(), "A#2");
    }

    #[test]
    fn event_variable_shares_one_leaf() {
        let p = Pattern::parse(
            "A := [*, a, *]; B := [*, b, *]; A $x; \
             pattern := $x -> B && $x -> B;",
        )
        .unwrap();
        // $x once, two B occurrences.
        assert_eq!(p.n_leaves(), 3);
        assert_eq!(p.leaves()[0].display_name(), "$x");
    }

    #[test]
    fn transitive_closure_and_terminating() {
        let p = Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; B $b; \
             pattern := A -> $b && $b -> C;",
        )
        .unwrap();
        let ids: Vec<_> = p.leaves().iter().map(LeafSpec::id).collect();
        assert_eq!(p.rel(ids[0], ids[2]), Some(PairRel::Before));
        assert_eq!(p.terminating_leaves(), &[ids[2]]);
        // Evaluation order from C: C first, then its neighbours.
        assert_eq!(p.eval_order(ids[2])[0], ids[2]);
        assert_eq!(p.eval_order(ids[2]).len(), 3);
    }

    #[test]
    fn concurrency_pattern_has_all_terminating() {
        let p = Pattern::parse("A := [*,a,*]; B := [*,b,*]; pattern := A || B;").unwrap();
        assert_eq!(p.terminating_leaves().len(), 2);
    }

    #[test]
    fn compound_concurrency_decomposes_to_all_pairs() {
        let p = Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; D := [*,d,*]; \
             pattern := (A -> B) || (C -> D);",
        )
        .unwrap();
        let ids: Vec<_> = p.leaves().iter().map(LeafSpec::id).collect();
        // A||C, A||D, B||C, B||D.
        for (x, y) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
            assert_eq!(p.rel(ids[x], ids[y]), Some(PairRel::Concurrent));
        }
        // Terminating: B and D (A precedes B, C precedes D).
        assert_eq!(p.terminating_leaves(), &[ids[1], ids[3]]);
    }

    #[test]
    fn compound_precedence_becomes_deferred_weak() {
        let p = Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; D := [*,d,*]; \
             pattern := (A || B) -> (C || D);",
        )
        .unwrap();
        assert!(p
            .constraints()
            .iter()
            .any(|c| matches!(c, Constraint::WeakPrecede { .. })));
        // Weak precedence adds no binary edges, so all four leaves remain
        // terminating.
        assert_eq!(p.terminating_leaves().len(), 4);
    }

    #[test]
    fn rejects_contradictions_and_cycles() {
        // Bare class names make fresh occurrences, so contradictions need
        // event variables to refer to the same occurrence twice.
        let e = Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; A $x; B $y; \
             pattern := $x -> $y && $x || $y;",
        )
        .unwrap_err();
        assert!(matches!(e, PatternError::Semantic(_)), "{e}");
        let e = Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; A $x; B $y; \
             pattern := $x -> $y && $y -> $x;",
        )
        .unwrap_err();
        assert!(matches!(e, PatternError::Semantic(_)), "{e}");
        let e = Pattern::parse("A := [*,a,*]; A $x; pattern := $x -> $x;").unwrap_err();
        assert!(matches!(e, PatternError::Semantic(_)), "{e}");
        // A cycle through three event variables is caught by the closure.
        let e = Pattern::parse(
            "A := [*,a,*]; A $x; A $y; A $z; \
             pattern := $x -> $y && $y -> $z && $z -> $x;",
        )
        .unwrap_err();
        assert!(matches!(e, PatternError::Semantic(_)), "{e}");
        // But two fresh occurrences of one class may be ordered freely.
        assert!(Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; \
                                pattern := A -> B && A || B;"
        )
        .is_ok());
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(Pattern::parse("pattern := A;").is_err());
        assert!(Pattern::parse("A := [*,a,*]; pattern := $x;").is_err());
        assert!(Pattern::parse("B $x; pattern := $x;").is_err());
        assert!(Pattern::parse("A := [*,a,*]; A := [*,b,*]; pattern := A;").is_err());
        assert!(Pattern::parse("A := [*,a,*]; A $x; A $x; pattern := $x;").is_err());
    }

    #[test]
    fn partner_and_lim_require_primitives() {
        assert!(Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; pattern := (A && B) <> C;"
        )
        .is_err());
        assert!(Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; pattern := A ~> (B && C);"
        )
        .is_err());
    }

    #[test]
    fn leaf_match_binds_and_checks_variables() {
        let p = Pattern::parse("S := [$l, synch, $f]; F := [$f, forward, $l]; pattern := S -> F;")
            .unwrap();
        let mut poet = PoetServer::new(2);
        let s = poet.record(t(0), EventKind::Unary, "synch", "T1");
        let f_good = poet.record(t(1), EventKind::Unary, "forward", "T0");
        let f_bad = poet.record(t(1), EventKind::Unary, "forward", "T9");

        let mut bindings = Bindings::new(p.n_vars());
        let s_leaf = p.leaves()[0].id();
        let f_leaf = p.leaves()[1].id();
        let delta = p.leaf_match(s_leaf, &s, &bindings).expect("s matches");
        assert_eq!(delta.len(), 2); // $l=T0, $f=T1
        bindings.apply(&delta);
        assert!(p.leaf_match(f_leaf, &f_good, &bindings).is_some());
        assert!(p.leaf_match(f_leaf, &f_bad, &bindings).is_none());
        bindings.retract(&delta);
        // Unbound again: f_bad now matches (binds fresh values).
        assert!(p.leaf_match(f_leaf, &f_bad, &bindings).is_some());
    }

    #[test]
    fn same_variable_twice_in_one_class_forces_equality() {
        let p = Pattern::parse("A := [*, x, $v]; B := [*, y, $v]; pattern := A -> B;").unwrap();
        let mut poet = PoetServer::new(1);
        let a = poet.record(t(0), EventKind::Unary, "x", "same");
        let b_ok = poet.record(t(0), EventKind::Unary, "y", "same");
        let b_no = poet.record(t(0), EventKind::Unary, "y", "different");
        let mut bindings = Bindings::new(p.n_vars());
        let d = p.leaf_match(p.leaves()[0].id(), &a, &bindings).unwrap();
        bindings.apply(&d);
        assert!(p.leaf_match(p.leaves()[1].id(), &b_ok, &bindings).is_some());
        assert!(p.leaf_match(p.leaves()[1].id(), &b_no, &bindings).is_none());
    }

    #[test]
    fn matching_leaves_routes_by_shape() {
        let p = Pattern::parse("A := [T0, a, *]; B := [*, b, *]; pattern := A -> B;").unwrap();
        let mut poet = PoetServer::new(2);
        let on_t0 = poet.record(t(0), EventKind::Unary, "a", "");
        let on_t1 = poet.record(t(1), EventKind::Unary, "a", "");
        assert_eq!(p.matching_leaves(&on_t0).count(), 1);
        assert_eq!(p.matching_leaves(&on_t1).count(), 0);
    }

    #[test]
    fn process_literal_matches_trace_display_name() {
        let p = Pattern::parse("A := [T1, go, *]; pattern := A;").unwrap();
        let mut poet = PoetServer::new(2);
        let e = poet.record(t(1), EventKind::Unary, "go", "");
        assert!(p.leaves()[0].matches_shape(&e));
    }
}

#[cfg(test)]
mod operator_tests {
    use super::*;
    use crate::compile::Constraint;

    #[test]
    fn strong_precedence_decomposes_to_all_pairs() {
        let p = Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; \
             pattern := (A && B) ->> C;",
        )
        .unwrap();
        let ids: Vec<_> = p.leaves().iter().map(LeafSpec::id).collect();
        assert_eq!(p.rel(ids[0], ids[2]), Some(PairRel::Before));
        assert_eq!(p.rel(ids[1], ids[2]), Some(PairRel::Before));
        // C is the sole terminating leaf.
        assert_eq!(p.terminating_leaves(), &[ids[2]]);
    }

    #[test]
    fn strong_precedence_on_primitives_equals_before() {
        let p = Pattern::parse("A := [*,a,*]; B := [*,b,*]; pattern := A ->> B;").unwrap();
        let ids: Vec<_> = p.leaves().iter().map(LeafSpec::id).collect();
        assert_eq!(p.rel(ids[0], ids[1]), Some(PairRel::Before));
    }

    #[test]
    fn entanglement_compiles_to_deferred_constraint() {
        let p = Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; C := [*,c,*]; D := [*,d,*]; \
             pattern := (A && B) <-> (C && D);",
        )
        .unwrap();
        assert!(p
            .constraints()
            .iter()
            .any(|c| matches!(c, Constraint::Entangled { .. })));
        // No binary precedence edges: all four leaves terminate.
        assert_eq!(p.terminating_leaves().len(), 4);
    }

    #[test]
    fn overlapping_entanglement_is_trivially_satisfied() {
        // $x appears on both sides: overlap is structural, so no deferred
        // constraint is emitted.
        let p = Pattern::parse(
            "A := [*,a,*]; B := [*,b,*]; A $x; \
             pattern := ($x && B) <-> ($x && B);",
        );
        // The second occurrence of bare B makes the sides differ; the
        // shared $x still forces overlap.
        let p = p.unwrap();
        assert!(!p
            .constraints()
            .iter()
            .any(|c| matches!(c, Constraint::Entangled { .. })));
    }

    #[test]
    fn strong_arrow_lexes_distinctly_from_arrow() {
        let p = Pattern::parse("A := [*,a,*]; B := [*,b,*]; pattern := A ->> B;").unwrap();
        assert_eq!(p.program().pattern.to_string(), "(A ->> B)");
        let p = Pattern::parse("A := [*,a,*]; B := [*,b,*]; pattern := A -> B;").unwrap();
        assert_eq!(p.program().pattern.to_string(), "(A -> B)");
    }
}
