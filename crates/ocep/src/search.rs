//! The OCEP backtracking search (Algorithms 1–3).
//!
//! A search is seeded by one terminating event (Alg 1's precondition: `M`
//! is a partial match of length one). Levels follow the pattern's
//! evaluation order; `go` instantiates the current level by iterating
//! traces and, per trace, the Fig 4 domain latest-first (`nextMatch`).
//! On a complete match the subset is updated and the search *advances to
//! the next trace* at the completing level (§IV-C), which is what bounds
//! the reported subset by one match per (level, trace) cell.
//!
//! Values that earlier levels bound can narrow a level further: a `<>`
//! partner pins one event, a bound process variable (or a `T<n>` literal)
//! pins one trace, and a bound text variable picks the text index's
//! entries for its value. The narrowed candidates run through the same
//! loop as any others. Whenever the narrowing skips a candidate the loop
//! would have tried (on a trace neither covered nor empty, or inside a
//! Fig 4 domain), the levels that bound those values are part of the
//! level's failure: the skipped candidate would have failed against them.
//!
//! Failure handling is conflict-directed backjumping: every failed
//! subtree reports the set of earlier levels its failure depends on; a
//! level whose choice is not in that set returns immediately instead of
//! trying further candidates (the paper's `goBackward` jump past
//! "repeated failure from the same conflicting event"). The paper's
//! second refinement, Fig 5's timestamp jump bounds (`getTS`/
//! `getClosest`), is not implemented: measured, it never fired on the
//! paper's workloads or the benchmark's (EXPERIMENTS.md).
//!
//! # Allocation discipline
//!
//! The recursion allocates only where a level binds a fresh attribute
//! variable: [`Pattern::leaf_match`] returns the new bindings as a `Vec`
//! (and a process variable's value as a new string). Everything else is
//! borrowed or reused: already-instantiated events are *borrowed* out of
//! the assignment for the Fig 4 restriction rules, the text index's
//! positions are read in place, candidate events are O(1) clones
//! (`Arc`-shared timestamps), a failed subtree's outcome is a `Copy`
//! bitmask, and the working buffers (`assignment`, `covered`, variable
//! bindings) live in a [`SearchScratch`] that the caller reuses across
//! searches — the monitor keeps one.

use crate::domain::{restrict, Domain};
use crate::history::LeafHistory;
use crate::matching::Match;
use crate::obs::SearchObs;
use crate::stats::MonitorStats;
use ocep_pattern::{Bindings, Constraint, LeafId, PairRel, Pattern, VarId};
use ocep_poet::Event;
use ocep_vclock::{EventId, EventSet, TraceId};
use std::ops::Range;
use std::sync::Arc;

/// Result of exploring one subtree. `Copy`, so failure propagation never
/// allocates.
#[derive(Clone, Copy)]
enum Outcome {
    /// At least one complete match was recorded below this point.
    FoundSome,
    /// No match; `conflicts` is a bitmask (over eval-order positions) of
    /// the levels the failure depends on.
    Exhausted { conflicts: u64 },
}

/// Reusable per-search working memory (see the module docs on allocation
/// discipline). One instance lives in each [`crate::Monitor`]. Buffers
/// are resized on demand, so one scratch serves searches of any shape.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    /// Assignment indexed by *leaf id*.
    assignment: Vec<Option<Event>>,
    /// Per (eval position, trace), flattened: a match through this cell
    /// was already found this arrival, so the trace is skipped
    /// (per-trace advance).
    covered: Vec<bool>,
    /// Attribute-variable bindings (§III-C).
    bindings: Bindings,
}

impl SearchScratch {
    /// Clears the buffers and sizes them for one search.
    fn prepare(&mut self, levels: usize, n_traces: usize, n_leaves: usize, n_vars: usize) {
        self.assignment.clear();
        self.assignment.resize(n_leaves, None);
        self.covered.clear();
        self.covered.resize(levels * n_traces, false);
        self.bindings.reset(n_vars);
    }
}

pub(crate) struct Search<'a> {
    pattern: &'a Arc<Pattern>,
    history: &'a LeafHistory,
    n_traces: usize,
    order: &'a [LeafId],
    scratch: &'a mut SearchScratch,
    matches: Vec<Match>,
    /// The monitor counters a search adds to: `nodes` through
    /// `deferred_rejections` (the arrival counters stay zero).
    stats: MonitorStats,
    /// The monitor's search introspection when its observability is on:
    /// every search records into it directly.
    obs: Option<&'a mut SearchObs>,
}

impl<'a> Search<'a> {
    pub fn new(
        pattern: &'a Arc<Pattern>,
        history: &'a LeafHistory,
        n_traces: usize,
        seed_leaf: LeafId,
        scratch: &'a mut SearchScratch,
        obs: Option<&'a mut SearchObs>,
    ) -> Self {
        let order = pattern.eval_order(seed_leaf);
        scratch.prepare(order.len(), n_traces, pattern.n_leaves(), pattern.n_vars());
        Search {
            pattern,
            history,
            n_traces,
            order,
            scratch,
            matches: Vec::new(),
            stats: MonitorStats::default(),
            obs,
        }
    }

    fn covered(&self, pos: usize, t: usize) -> bool {
        self.scratch.covered[pos * self.n_traces + t]
    }

    /// Runs the search seeded with `seed` at the order's first leaf and
    /// returns every match found (one per covered (level, trace) cell).
    pub fn run(mut self, seed: &Event) -> (Vec<Match>, MonitorStats) {
        let seed_leaf = self.order[0];
        let Some(delta) = self
            .pattern
            .leaf_match(seed_leaf, seed, &self.scratch.bindings)
        else {
            return (Vec::new(), self.stats);
        };
        // Quick feasibility screen: every leaf needs at least one
        // candidate on some trace.
        if self.order[1..]
            .iter()
            .any(|&leaf| self.history.filled(leaf).is_empty())
        {
            return (Vec::new(), self.stats);
        }
        self.scratch.bindings.apply(&delta);
        self.scratch.assignment[seed_leaf.as_usize()] = Some(seed.clone());
        let _ = self.go(1);
        (std::mem::take(&mut self.matches), self.stats)
    }

    /// Alg 2 / Alg 3 rolled into one recursive step for eval position
    /// `pos` (the paper's backtracking level).
    fn go(&mut self, pos: usize) -> Outcome {
        self.stats.nodes += 1;
        if pos == self.order.len() {
            return self.complete();
        }
        let leaf = self.order[pos];
        let history = self.history;
        let narrowing = self.narrowing(leaf, pos);
        let mut found_any = false;
        let mut conflicts: u64 = 0;
        // A candidate the narrowing keeps the loop from would fail
        // against the levels that bound its values, so they share any
        // failure here when it skips a trace the loop would search (not
        // covered, not empty) or, below, a position of a domain.
        if narrowing.blame != 0
            && history.filled(leaf).iter().any(|&t| {
                !narrowing.traces.contains(&(t as usize)) && !self.covered(pos, t as usize)
            })
        {
            conflicts |= narrowing.blame;
        }
        // Set when a deeper failure does not involve this level: the
        // backjump past it.
        let mut backjump = false;

        'traces: for t in narrowing.traces.clone() {
            if self.covered(pos, t) {
                continue;
            }
            let trace = TraceId::new(t as u32);
            let slice = history.on_trace(leaf, trace);
            if slice.is_empty() {
                continue;
            }
            // ---- Fig 4: domain computation with conflict attribution ----
            self.stats.domains += 1;
            // None = domain survived; Some(true) = a single GP/LS rule
            // emptied it; Some(false) = the intersection emptied it.
            let mut pruned: Option<bool> = None;
            let mut dom = Domain::full(slice.len());
            let mut contributors: u64 = 0;
            for (p, &other_leaf) in self.order[..pos].iter().enumerate() {
                let Some(rel) = self.pattern.rel(leaf, other_leaf) else {
                    continue;
                };
                let e = self.assigned(other_leaf);
                // Deliberate, feature-gated bug used to validate the
                // conformance harness: drop the happens-before (GP-derived)
                // domain restriction, so candidates that do not precede the
                // already-assigned event survive and false positives reach
                // the report path.
                #[cfg(feature = "mutation-skip-domain")]
                if rel == PairRel::Before {
                    continue;
                }
                let individual = restrict(slice, rel, e);
                if individual.is_empty() {
                    // The conflict involves only e and this history.
                    conflicts |= 1 << p;
                    pruned = Some(true);
                    break;
                }
                let next = dom.intersect(individual);
                if next.is_empty() {
                    // Intersection conflict: blame every contributor so far
                    // plus this one.
                    conflicts |= contributors | (1 << p);
                    pruned = Some(false);
                    break;
                }
                if next != dom {
                    contributors |= 1 << p;
                }
                dom = next;
            }
            if let Some(o) = self.obs.as_deref_mut() {
                match pruned {
                    Some(true) => o.prune_gp_ls += 1,
                    Some(false) => o.prune_intersect += 1,
                    None => o.record_domain_width(pos, dom.len() as u64),
                }
            }
            if pruned.is_some() {
                continue 'traces;
            }
            // Levels whose rules shrank this domain excluded candidates; if
            // the remaining ones all fail, those levels share the blame.
            conflicts |= contributors;

            // ---- nextMatch: candidates latest-first -----------------------
            // The narrowing leaves a window of the domain, or the text
            // index's entries inside it. The cursor runs over the window's
            // positions or the list's entries; `at(cursor)` is the slice
            // position either way.
            let window = dom.intersect(narrowing.span);
            let list = narrowing.text.as_deref().map(|text| {
                let v = history.text_positions(leaf, trace, text);
                let a = v.partition_point(|&p| (p as usize) < window.lo);
                &v[a..a + v[a..].partition_point(|&p| (p as usize) < window.hi)]
            });
            if list.map_or(window.len(), <[u32]>::len) < dom.len() {
                conflicts |= narrowing.blame;
            }
            let at = |i: usize| list.map_or(i, |v| v[i] as usize);
            let (floor, mut cursor) =
                list.map_or((window.lo, window.hi.max(window.lo)), |v| (0, v.len()));
            while cursor > floor {
                cursor -= 1;
                self.stats.candidates += 1;
                // O(1): the event's timestamp buffer is Arc-shared.
                let cand = slice[at(cursor)].clone();
                // Distinctness: one concrete event per leaf.
                if let Some(p) = self.position_holding(&cand, pos) {
                    conflicts |= 1 << p;
                    continue;
                }
                // Partner constraints against instantiated endpoints.
                if let Some(p) = self.partner_violation(leaf, &cand, pos) {
                    conflicts |= 1 << p;
                    continue;
                }
                // Attribute variables (§III-C).
                let Some(delta) = self.pattern.leaf_match(leaf, &cand, &self.scratch.bindings)
                else {
                    conflicts |= mask_below(pos);
                    continue;
                };
                self.scratch.bindings.apply(&delta);
                self.scratch.assignment[leaf.as_usize()] = Some(cand);
                let out = self.go(pos + 1);
                self.scratch.assignment[leaf.as_usize()] = None;
                self.scratch.bindings.retract(&delta);
                match out {
                    Outcome::FoundSome => {
                        found_any = true;
                        // §IV-C: after a complete match with this level's
                        // event on trace t, continue with trace t+1.
                        continue 'traces;
                    }
                    Outcome::Exhausted { conflicts: c } => {
                        if c & (1 << pos) == 0 {
                            // This level's choice is irrelevant to the
                            // failure: no other candidate here can help
                            // (conflict-directed backjump).
                            self.stats.backjumps += 1;
                            if let Some(o) = self.obs.as_deref_mut() {
                                o.backjump_depth.record(pos as u64);
                            }
                            conflicts |= c;
                            backjump = true;
                            break 'traces;
                        }
                        conflicts |= c & mask_below(pos);
                    }
                }
            }
        }

        if found_any {
            return Outcome::FoundSome;
        }
        if !backjump {
            if let Some(o) = self.obs.as_deref_mut() {
                o.conflict_size.record(u64::from(conflicts.count_ones()));
            }
        }
        Outcome::Exhausted { conflicts }
    }

    /// What the values of earlier levels leave of `leaf`'s candidates at
    /// eval position `pos`: a `T<n>` literal or a bound process variable
    /// pins one trace, a bound text variable picks the text index's
    /// entries for its value, and an instantiated `<>` partner pins its
    /// counterpart, one position on one trace (none, if the counterpart
    /// is not stored).
    fn narrowing(&self, leaf: LeafId, pos: usize) -> Narrowing {
        let spec = &self.pattern.leaves()[leaf.as_usize()];
        let bindings = &self.scratch.bindings;
        let mut n = Narrowing {
            traces: 0..self.n_traces,
            span: Domain::full(usize::MAX),
            text: None,
            blame: 0,
        };
        if let Some(t) = spec.process_pin(bindings) {
            n.traces = meet(n.traces, t.as_usize()..t.as_usize() + 1);
            n.blame |= spec.process_var().map_or(0, |v| self.binder(v, pos));
        }
        if let Some(v) = spec.text_var() {
            n.text = bindings.get(v);
            if n.text.is_some() {
                n.blame |= self.binder(v, pos);
            }
        }
        if let Some((p, counterpart)) = self.partner(leaf, pos) {
            n.blame |= 1 << p;
            match counterpart.and_then(|id| Some((id.trace(), self.history.position(leaf, id)?))) {
                Some((t, i)) => {
                    n.traces = meet(n.traces, t.as_usize()..t.as_usize() + 1);
                    n.span = Domain { lo: i, hi: i + 1 };
                }
                None => n.traces = 0..0,
            }
        }
        n
    }

    /// The eval position, as a conflict bit, of the level that bound
    /// `v`: the first earlier level whose leaf mentions it.
    fn binder(&self, v: VarId, pos: usize) -> u64 {
        let leaves = self.pattern.leaves();
        self.order[..pos]
            .iter()
            .position(|l| leaves[l.as_usize()].mentions(v))
            .map_or(0, |p| 1 << p)
    }

    /// For `leaf` `<>`-constrained against an instantiated endpoint: that
    /// endpoint's eval position and the id of the event `leaf` must take
    /// — the stored receive of an assigned send (via the partner index)
    /// or the send named by an assigned receive's partner field.
    fn partner(&self, leaf: LeafId, pos: usize) -> Option<(usize, Option<EventId>)> {
        self.pattern.constraints().iter().find_map(|c| {
            let (other, leaf_is_send) = match c {
                Constraint::Partner { send, recv } if *recv == leaf => (*send, false),
                Constraint::Partner { send, recv } if *send == leaf => (*recv, true),
                _ => return None,
            };
            let p = self.order[..pos].iter().position(|l| *l == other)?;
            let e = self.assigned(other);
            Some(if leaf_is_send {
                (p, e.partner())
            } else {
                (p, self.history.receive_of(leaf, e.id()))
            })
        })
    }

    /// The event instantiating `leaf`, which an earlier level assigned.
    fn assigned(&self, leaf: LeafId) -> &Event {
        self.scratch.assignment[leaf.as_usize()]
            .as_ref()
            .expect("earlier levels are instantiated")
    }

    /// All levels instantiated: verify deferred constraints, record the
    /// match, and mark per-trace coverage (`updateSubset`).
    fn complete(&mut self) -> Outcome {
        if !self.deferred_ok() {
            self.stats.deferred_rejections += 1;
            // Deferred constraints span many leaves; blame every level.
            return Outcome::Exhausted {
                conflicts: mask_below(self.order.len()),
            };
        }
        // O(1) clones throughout: the Match shares every event's
        // timestamp and string buffers with the history.
        let events: Vec<Event> = self
            .scratch
            .assignment
            .iter()
            .map(|e| e.as_ref().expect("complete assignment").clone())
            .collect();
        self.matches
            .push(Match::new(Arc::clone(self.pattern), events));
        for (p, &leaf) in self.order.iter().enumerate() {
            let t = self.assigned(leaf).trace().as_usize();
            self.scratch.covered[p * self.n_traces + t] = true;
        }
        Outcome::FoundSome
    }

    /// Checks the `~>`, weak precedence and entanglement constraints on
    /// the full assignment.
    fn deferred_ok(&self) -> bool {
        let stamps = |leaves: &[LeafId]| -> EventSet {
            leaves
                .iter()
                .map(|&l| self.assigned(l).stamp().clone())
                .collect()
        };
        self.pattern.constraints().iter().all(|c| match c {
            Constraint::Lim { from, to } => self.lim_ok(*from, *to),
            Constraint::WeakPrecede { from, to } => stamps(from).weakly_precedes(&stamps(to)),
            Constraint::Entangled { left, right } => stamps(left).entangled(&stamps(right)),
            Constraint::Partner { .. } => true,
        })
    }

    /// `from ~> to`: no other stored event of `from`'s leaf strictly
    /// causally between the two assigned events.
    fn lim_ok(&self, from: LeafId, to: LeafId) -> bool {
        let a = self.assigned(from);
        let b = self.assigned(to);
        for t in 0..self.n_traces {
            let trace = TraceId::new(t as u32);
            let slice = self.history.on_trace(from, trace);
            // Events x with a -> x and x -> b.
            let after_a = restrict(slice, PairRel::After, a);
            let before_b = restrict(slice, PairRel::Before, b);
            let mid = after_a.intersect(before_b);
            for x in &slice[mid.lo..mid.hi.max(mid.lo)] {
                if x.id() != a.id() && x.id() != b.id() {
                    return false;
                }
            }
        }
        true
    }

    /// If `cand` is already assigned to an earlier level, returns that
    /// level's eval position.
    fn position_holding(&self, cand: &Event, pos: usize) -> Option<usize> {
        self.order[..pos]
            .iter()
            .position(|&l| self.assigned(l).id() == cand.id())
    }

    /// Checks the `<>` constraints of `leaf` against instantiated
    /// endpoints; on violation returns the conflicting eval position.
    fn partner_violation(&self, leaf: LeafId, cand: &Event, pos: usize) -> Option<usize> {
        for c in self.pattern.constraints() {
            let (other, cand_is_send) = match c {
                Constraint::Partner { send, recv } if *send == leaf => (*recv, true),
                Constraint::Partner { send, recv } if *recv == leaf => (*send, false),
                _ => continue,
            };
            let Some(e) = &self.scratch.assignment[other.as_usize()] else {
                continue;
            };
            let ok = if cand_is_send {
                e.partner() == Some(cand.id())
            } else {
                cand.partner() == Some(e.id())
            };
            if !ok {
                let p = self.order[..pos]
                    .iter()
                    .position(|l| *l == other)
                    .expect("assigned leaf is in the order prefix");
                return Some(p);
            }
        }
        None
    }
}

/// What earlier levels' values leave of one level's candidates (see
/// [`Search::narrowing`]). Each narrowing skips candidates that would
/// fail against the level that bound its value, so `blame` carries those
/// levels into a failure at this one whenever a candidate was skipped;
/// without it the search would backjump past them and miss a match a
/// different value allows.
struct Narrowing {
    /// The traces that can hold a candidate.
    traces: Range<usize>,
    /// The slice positions, on those traces, that can hold one.
    span: Domain,
    /// The text every candidate carries, looked up in the text index.
    text: Option<Arc<str>>,
    /// Eval positions (bits) of the levels that bound those values.
    blame: u64,
}

fn meet(a: Range<usize>, b: Range<usize>) -> Range<usize> {
    a.start.max(b.start)..a.end.min(b.end)
}

fn mask_below(pos: usize) -> u64 {
    if pos >= 64 {
        u64::MAX
    } else {
        (1u64 << pos) - 1
    }
}
