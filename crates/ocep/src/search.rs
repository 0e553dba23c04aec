//! The OCEP backtracking search (Algorithms 1–3).
//!
//! A search is seeded by one terminating event (Alg 1's precondition: `M`
//! is a partial match of length one). Levels follow the pattern's
//! evaluation order; `go_forward` instantiates the current level by
//! iterating traces and, per trace, the Fig 4 domain latest-first
//! (`nextMatch`). On a complete match the subset is updated and the
//! search *advances to the next trace* at the completing level (§IV-C),
//! which is what bounds the reported subset by one match per
//! (level, trace) cell.
//!
//! Failure handling refines the paper's `bt[][]`/`getTS` machinery into
//! two sound mechanisms:
//!
//! * **Conflict-directed backjumping** — every failed subtree reports the
//!   set of earlier levels its failure depends on; a level whose choice is
//!   not in that set returns immediately instead of trying further
//!   candidates (the paper's `goBackward` jump past "repeated failure
//!   from the same conflicting event").
//! * **Fig 5 jump bounds** — when a single instantiated event `e` alone
//!   empties a level's domain on a trace, the vector timestamps of the
//!   conflicting events yield an exact bound on which other candidates
//!   for `e`'s level can ever resolve the conflict (cases a and b of
//!   Fig 5); the bound is carried upward and fast-forwards the candidate
//!   cursor at that level.
//!
//! # Allocation discipline
//!
//! The recursion itself is allocation-free: already-instantiated events
//! are *borrowed* out of the assignment for the Fig 4 restriction rules,
//! candidate events are O(1) clones (`Arc`-shared timestamps), a failed
//! subtree's jump bound travels as a `Copy` `Option` rather than a `Vec`,
//! and the per-level working buffers (`assignment`, `covered`,
//! `my_bound`, variable bindings) live in a [`SearchScratch`] that the
//! caller reuses across searches — the monitor keeps one.

use crate::domain::{restrict, Domain};
use crate::history::LeafHistory;
use crate::matching::Match;
use crate::obs::{ObsLevel, SearchObs};
use ocep_pattern::{Bindings, Constraint, LeafId, PairRel, Pattern};
use ocep_poet::Event;
use ocep_vclock::{EventSet, TraceId};
use std::sync::Arc;

/// Statistics of one arrival's search, merged into the monitor totals.
#[derive(Debug, Default, Clone)]
pub(crate) struct SearchStats {
    pub nodes: u64,
    pub candidates: u64,
    pub domains: u64,
    pub backjumps: u64,
    pub jump_bounds_applied: u64,
    pub deferred_rejections: u64,
    /// Fig 4 restrictions evaluated against a *borrowed* assigned event
    /// where the matcher previously cloned it (the ablation counter for
    /// the zero-copy hot path).
    pub clones_avoided: u64,
    /// Heap bytes those avoided clones would have copied pre-Arc: one
    /// `n_traces`-wide `u32` timestamp buffer per restriction.
    pub clone_bytes_avoided: u64,
    /// Domains emptied by a single GP/LS rule (Fig 4). Carried as a plain
    /// counter (not inside `obs`) so the recursion's flush points stay
    /// branch-free adds; the registry picks it up after the search.
    pub prune_gp_ls: u64,
    /// Domains emptied by the running intersection (Fig 4).
    pub prune_intersect: u64,
    /// Sampled, scaled wall-clock ns in the fused domain + Fig-4 loop
    /// (see [`DOMAIN_TIME_SAMPLE`]); zero unless timing is enabled.
    pub domain_ns: u64,
    /// Search introspection, collected only when the monitor's
    /// [`ObsLevel`] asks for it (`None` keeps the `Off` path
    /// allocation-free). Boxed so the common case stays one word.
    pub obs: Option<Box<SearchObs>>,
}

/// A Fig 5 jump bound: candidates for the level holding `target_leaf` on
/// `on_trace` with index greater than `max_index` are guaranteed to
/// reproduce the recorded conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JumpBound {
    target_leaf: LeafId,
    on_trace: TraceId,
    max_index: u32,
}

/// Result of exploring one subtree. `Copy`, so failure propagation never
/// allocates.
#[derive(Clone, Copy)]
enum Outcome {
    /// At least one complete match was recorded below this point.
    FoundSome,
    /// No match; `conflicts` is a bitmask (over eval-order positions) of
    /// the levels the failure depends on, and `bound` carries the Fig 5
    /// jump bound for an earlier level when one was derivable. (At most
    /// one bound can survive a level — it must be *uniform* across every
    /// failed trace — so an `Option` replaces the old per-subtree `Vec`.)
    Exhausted {
        conflicts: u64,
        bound: Option<JumpBound>,
    },
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
    /// Per eval position: the Fig 5 fast-forward bound for that level's
    /// candidates, keyed by trace. Taken out by the level's recursion
    /// frame and put back on exit.
    my_bound: Vec<Vec<Option<u32>>>,
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
        if self.my_bound.len() < levels {
            self.my_bound.resize_with(levels, Vec::new);
        }
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
    pub stats: SearchStats,
    /// [`ObsLevel::Full`] only: take wall-clock timers around the fused
    /// domain-construction + Fig-4 restriction loop. Sampled 1 in
    /// [`DOMAIN_TIME_SAMPLE`] computations and scaled, so the timer's
    /// syscall cost stays off the search's hot path.
    time_domains: bool,
}

/// Sampling rate for the per-domain wall-clock timer: one in this many
/// domain computations is timed and the reading scaled back up, making
/// `domain_ns` an estimate whose overhead is ~1/64th of timing every
/// computation (two `Instant` reads per domain would otherwise dominate
/// the fused Fig-4 loop they are trying to measure).
const DOMAIN_TIME_SAMPLE: u64 = 64;

impl<'a> Search<'a> {
    pub fn new(
        pattern: &'a Arc<Pattern>,
        history: &'a LeafHistory,
        n_traces: usize,
        seed_leaf: LeafId,
        scratch: &'a mut SearchScratch,
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
            stats: SearchStats::default(),
            time_domains: false,
        }
    }

    /// Enables search introspection at the given [`ObsLevel`] (builder
    /// style). `Off` leaves the search untouched; `Counters` collects
    /// prune/width/backjump distributions; `Full` also times the fused
    /// domain + Fig-4 loop.
    pub fn with_obs(mut self, level: ObsLevel) -> Self {
        if level.enabled() {
            self.stats.obs = Some(Box::default());
            self.time_domains = level.timing();
        }
        self
    }

    fn covered(&self, pos: usize, t: usize) -> bool {
        self.scratch.covered[pos * self.n_traces + t]
    }

    /// Runs the search seeded with `seed` at the order's first leaf and
    /// returns every match found (one per covered (level, trace) cell).
    pub fn run(mut self, seed: &Event) -> (Vec<Match>, SearchStats) {
        let seed_leaf = self.order[0];
        let Some(delta) = self
            .pattern
            .leaf_match(seed_leaf, seed, &self.scratch.bindings)
        else {
            return (Vec::new(), self.stats);
        };
        // Quick feasibility screen: every leaf needs at least one
        // candidate on some trace.
        for &leaf in &self.order[1..] {
            if !(0..self.n_traces).any(|t| self.history.has_any(leaf, TraceId::new(t as u32))) {
                return (Vec::new(), self.stats);
            }
        }
        self.scratch.bindings.apply(&delta);
        self.scratch.assignment[seed_leaf.as_usize()] = Some(seed.clone());
        let _ = self.go(1);
        (std::mem::take(&mut self.matches), self.stats)
    }

    fn exhausted_all_earlier(&self, pos: usize) -> Outcome {
        Outcome::Exhausted {
            conflicts: mask_below(pos),
            bound: None,
        }
    }

    /// Alg 2 / Alg 3 rolled into one recursive step for eval position
    /// `pos` (the paper's backtracking level).
    fn go(&mut self, pos: usize) -> Outcome {
        self.stats.nodes += 1;
        if pos == self.order.len() {
            return self.complete();
        }
        let leaf = self.order[pos];
        // O(1) `<>` resolution: when this leaf is partner-constrained
        // against an already-instantiated endpoint, the candidate is
        // unique — no trace/domain iteration needed.
        if let Some(unique) = self.partner_candidate(leaf, pos) {
            return self.try_unique_candidate(leaf, pos, unique);
        }
        let mut found_any = false;
        let mut conflicts: u64 = 0;
        // Local tallies for counters that would otherwise need `&mut
        // self` while an assigned event is borrowed.
        let mut avoided: u64 = 0;
        let obs_on = self.stats.obs.is_some();
        let mut domain_ns: u64 = 0;
        let mut prune_gp_ls: u64 = 0;
        let mut prune_intersect: u64 = 0;
        // Fig 5 bookkeeping. A jump bound may only be emitted when *every*
        // failed trace at this level was emptied by the same earlier
        // level's event alone, each with a derivable bound — otherwise a
        // replacement for that event might succeed through a trace whose
        // failure had a different cause.
        let mut uniform: Option<JumpBound> = None;
        let mut poisoned = false;
        // Fast-forward bound for *this* level's candidates, learned from
        // deeper failures, keyed by the trace currently being iterated.
        // Taken out of the scratch pool (and put back on every exit) so
        // recursion never allocates it.
        let mut my_bound = std::mem::take(&mut self.scratch.my_bound[pos]);
        my_bound.clear();
        my_bound.resize(self.n_traces, None);
        // A literal or bound process attribute pins the level to one
        // trace: skip all others outright.
        let pin = self.pattern.leaves()[leaf.as_usize()]
            .process_pin(&self.scratch.bindings)
            .map(ocep_vclock::TraceId::as_usize);

        #[allow(clippy::needless_range_loop)]
        'traces: for t in 0..self.n_traces {
            if let Some(pin) = pin {
                if t != pin {
                    continue;
                }
            }
            if self.covered(pos, t) {
                continue;
            }
            let trace = TraceId::new(t as u32);
            let slice = self.history.on_trace(leaf, trace);
            if slice.is_empty() {
                continue;
            }
            // ---- Fig 4: domain computation with conflict attribution ----
            self.stats.domains += 1;
            let dom_t = (self.time_domains && self.stats.domains % DOMAIN_TIME_SAMPLE == 1)
                .then(std::time::Instant::now);
            // None = domain survived; Some(true) = a single GP/LS rule
            // emptied it; Some(false) = the intersection emptied it.
            let mut pruned: Option<bool> = None;
            let mut dom = Domain::full(slice.len());
            let mut contributors: u64 = 0;
            for (p, &other_leaf) in self.order[..pos].iter().enumerate() {
                let Some(rel) = self.pattern.rel(leaf, other_leaf) else {
                    continue;
                };
                let e = self.scratch.assignment[other_leaf.as_usize()]
                    .as_ref()
                    .expect("earlier levels are instantiated");
                avoided += 1;
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
                    // The conflict involves only e and this history: a
                    // Fig 5 bound on replacements for e may exist.
                    match fig5_bound(rel, e, slice) {
                        Some(b) => {
                            let jb = JumpBound {
                                target_leaf: other_leaf,
                                on_trace: e.trace(),
                                max_index: b,
                            };
                            uniform = match uniform {
                                None => Some(jb),
                                Some(u)
                                    if u.target_leaf == jb.target_leaf
                                        && u.on_trace == jb.on_trace =>
                                {
                                    // getClosest: the *latest* timestamp
                                    // that can resolve every conflict.
                                    Some(JumpBound {
                                        max_index: u.max_index.max(jb.max_index),
                                        ..u
                                    })
                                }
                                Some(_) => {
                                    poisoned = true;
                                    uniform
                                }
                            };
                        }
                        None => poisoned = true,
                    }
                    conflicts |= 1 << p;
                    pruned = Some(true);
                    break;
                }
                let next = dom.intersect(individual);
                if next.is_empty() {
                    // Intersection conflict: blame every contributor so far
                    // plus this one.
                    conflicts |= contributors | (1 << p);
                    poisoned = true;
                    pruned = Some(false);
                    break;
                }
                if next != dom {
                    contributors |= 1 << p;
                }
                dom = next;
            }
            if let Some(t0) = dom_t {
                domain_ns += u64::try_from(t0.elapsed().as_nanos())
                    .unwrap_or(u64::MAX)
                    .saturating_mul(DOMAIN_TIME_SAMPLE);
            }
            match pruned {
                Some(true) => {
                    prune_gp_ls += 1;
                    continue 'traces;
                }
                Some(false) => {
                    prune_intersect += 1;
                    continue 'traces;
                }
                None => {}
            }
            if obs_on {
                if let Some(o) = self.stats.obs.as_deref_mut() {
                    o.record_domain_width(pos, dom.len() as u64);
                }
            }
            // Levels that narrowed this domain excluded candidates; if the
            // remaining ones all fail, those levels share the blame.
            conflicts |= contributors;
            poisoned = true; // candidate-level failures have mixed causes

            // When the leaf's text attribute is a bound variable, the
            // text index yields the (few) matching candidates directly
            // instead of scanning the whole domain.
            let indexed: Option<Vec<usize>> = self.pattern.leaves()[leaf.as_usize()]
                .text_var()
                .and_then(|v| self.scratch.bindings.get(v))
                .and_then(|val| self.history.text_positions(leaf, trace, &val))
                .map(|positions| {
                    let lo = positions.partition_point(|&p| (p as usize) < dom.lo);
                    let hi = positions.partition_point(|&p| (p as usize) < dom.hi);
                    positions[lo..hi].iter().map(|&p| p as usize).collect()
                });

            // ---- nextMatch: candidates latest-first -----------------------
            let (mut cursor, floor) = match &indexed {
                Some(v) => (v.len(), 0),
                None => (dom.hi, dom.lo),
            };
            while cursor > floor {
                cursor -= 1;
                let cpos = match &indexed {
                    Some(v) => v[cursor],
                    None => {
                        if let Some(maxidx) = my_bound[t] {
                            // Fast-forward past candidates a Fig 5 bound
                            // rules out.
                            let cand_idx = slice[cursor].index().get();
                            if cand_idx > maxidx {
                                self.stats.jump_bounds_applied += 1;
                                let new_hi = slice[dom.lo..=cursor]
                                    .partition_point(|x| x.index().get() <= maxidx)
                                    + dom.lo;
                                if new_hi <= dom.lo {
                                    continue 'traces;
                                }
                                cursor = new_hi - 1;
                            }
                        }
                        cursor
                    }
                };
                self.stats.candidates += 1;
                // O(1): the event's timestamp buffer is Arc-shared.
                let cand = slice[cpos].clone();
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
                    Outcome::Exhausted {
                        conflicts: c,
                        bound,
                    } => {
                        if c & (1 << pos) == 0 {
                            // This level's choice is irrelevant to the
                            // failure: no other candidate here can help
                            // (conflict-directed backjump). The bound
                            // passes through unchanged — its validity
                            // depends only on its target's assignment.
                            self.stats.backjumps += 1;
                            self.stats.clones_avoided += avoided;
                            self.stats.clone_bytes_avoided += avoided * self.clone_bytes();
                            self.scratch.my_bound[pos] = my_bound;
                            self.stats.domain_ns += domain_ns;
                            self.stats.prune_gp_ls += prune_gp_ls;
                            self.stats.prune_intersect += prune_intersect;
                            if obs_on {
                                if let Some(o) = self.stats.obs.as_deref_mut() {
                                    o.backjump_depth.record(pos as u64);
                                }
                            }
                            if found_any {
                                return Outcome::FoundSome;
                            }
                            return Outcome::Exhausted {
                                conflicts: c | conflicts,
                                bound,
                            };
                        }
                        conflicts |= c & mask_below(pos);
                        if let Some(b) = bound {
                            if b.target_leaf == leaf && b.on_trace == trace {
                                let slot = &mut my_bound[t];
                                *slot = Some(match *slot {
                                    Some(old) => old.min(b.max_index),
                                    None => b.max_index,
                                });
                            }
                            // A bound for another level is dropped here: a
                            // strict-rule bound only arrives with a
                            // singleton conflict set, which either names
                            // this level (consumed above) or triggers the
                            // pass-through backjump branch.
                        }
                    }
                }
            }
        }

        self.stats.clones_avoided += avoided;
        self.stats.clone_bytes_avoided += avoided * self.clone_bytes();
        self.scratch.my_bound[pos] = my_bound;
        self.stats.domain_ns += domain_ns;
        self.stats.prune_gp_ls += prune_gp_ls;
        self.stats.prune_intersect += prune_intersect;
        if obs_on && !found_any {
            if let Some(o) = self.stats.obs.as_deref_mut() {
                o.conflict_size.record(u64::from(conflicts.count_ones()));
            }
        }
        if found_any {
            Outcome::FoundSome
        } else {
            let bound = match uniform {
                Some(u) if !poisoned => Some(u),
                _ => None,
            };
            Outcome::Exhausted { conflicts, bound }
        }
    }

    /// Heap bytes one avoided `Event` clone would have copied before the
    /// timestamps became `Arc`-shared: the `n_traces`-wide `u32` buffer.
    fn clone_bytes(&self) -> u64 {
        (self.n_traces * std::mem::size_of::<u32>()) as u64
    }

    /// All levels instantiated: verify deferred constraints, record the
    /// match, and mark per-trace coverage (`updateSubset`).
    fn complete(&mut self) -> Outcome {
        if !self.deferred_ok() {
            self.stats.deferred_rejections += 1;
            // Deferred constraints span many leaves; blame every level.
            return self.exhausted_all_earlier(self.order.len());
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
            let t = self.scratch.assignment[leaf.as_usize()]
                .as_ref()
                .expect("complete assignment")
                .trace()
                .as_usize();
            self.scratch.covered[p * self.n_traces + t] = true;
        }
        Outcome::FoundSome
    }

    /// Checks `Lim` and `WeakPrecede` constraints on the full assignment.
    fn deferred_ok(&self) -> bool {
        for c in self.pattern.constraints() {
            match c {
                Constraint::Lim { from, to } if !self.lim_ok(*from, *to) => {
                    return false;
                }
                Constraint::WeakPrecede { from, to } => {
                    let fs: EventSet = from
                        .iter()
                        .map(|l| {
                            self.scratch.assignment[l.as_usize()]
                                .as_ref()
                                .expect("complete")
                                .stamp()
                                .clone()
                        })
                        .collect();
                    let ts: EventSet = to
                        .iter()
                        .map(|l| {
                            self.scratch.assignment[l.as_usize()]
                                .as_ref()
                                .expect("complete")
                                .stamp()
                                .clone()
                        })
                        .collect();
                    if !fs.weakly_precedes(&ts) {
                        return false;
                    }
                }
                Constraint::Entangled { left, right } => {
                    let ls: EventSet = left
                        .iter()
                        .map(|l| {
                            self.scratch.assignment[l.as_usize()]
                                .as_ref()
                                .expect("complete")
                                .stamp()
                                .clone()
                        })
                        .collect();
                    let rs: EventSet = right
                        .iter()
                        .map(|l| {
                            self.scratch.assignment[l.as_usize()]
                                .as_ref()
                                .expect("complete")
                                .stamp()
                                .clone()
                        })
                        .collect();
                    if !ls.entangled(&rs) {
                        return false;
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// `from ~> to`: no other stored event of `from`'s leaf strictly
    /// causally between the two assigned events.
    fn lim_ok(&self, from: LeafId, to: LeafId) -> bool {
        let a = self.scratch.assignment[from.as_usize()]
            .as_ref()
            .expect("complete");
        let b = self.scratch.assignment[to.as_usize()]
            .as_ref()
            .expect("complete");
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

    /// The unique candidate for `leaf` when it is `<>`-constrained
    /// against an instantiated endpoint: the stored receive of an
    /// assigned send (via the partner index) or the stored send named by
    /// an assigned receive's partner field.
    fn partner_candidate(&self, leaf: LeafId, pos: usize) -> Option<Event> {
        for c in self.pattern.constraints() {
            match c {
                Constraint::Partner { send, recv } if *recv == leaf => {
                    if let Some(s) = &self.scratch.assignment[send.as_usize()] {
                        if self.order[..pos].contains(send) {
                            return self.history.receive_of(leaf, s.id()).cloned();
                        }
                    }
                }
                Constraint::Partner { send, recv } if *send == leaf => {
                    if let Some(r) = &self.scratch.assignment[recv.as_usize()] {
                        if self.order[..pos].contains(recv) {
                            let sid = r.partner()?;
                            return self.history.find(leaf, sid).cloned();
                        }
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Tries the single possible candidate for a partner-resolved level:
    /// validates every constraint directly (no domain computation) and
    /// descends. Failure blames all earlier levels (coarse but sound —
    /// the partner chain pins the candidate).
    fn try_unique_candidate(&mut self, leaf: LeafId, pos: usize, cand: Event) -> Outcome {
        let t = cand.trace().as_usize();
        let fail = Outcome::Exhausted {
            conflicts: mask_below(pos),
            bound: None,
        };
        if self.covered(pos, t) || self.position_holding(&cand, pos).is_some() {
            return fail;
        }
        for &other_leaf in &self.order[..pos] {
            let Some(rel) = self.pattern.rel(leaf, other_leaf) else {
                continue;
            };
            let other = self.scratch.assignment[other_leaf.as_usize()]
                .as_ref()
                .expect("earlier levels are instantiated");
            let got = cand.stamp().causality(other.stamp());
            let ok = matches!(
                (rel, got),
                (PairRel::Before, ocep_vclock::Causality::Before)
                    | (PairRel::After, ocep_vclock::Causality::After)
                    | (PairRel::Concurrent, ocep_vclock::Causality::Concurrent)
            );
            if !ok {
                return fail;
            }
        }
        if self.partner_violation(leaf, &cand, pos).is_some() {
            return fail;
        }
        let Some(delta) = self.pattern.leaf_match(leaf, &cand, &self.scratch.bindings) else {
            return fail;
        };
        self.stats.candidates += 1;
        self.scratch.bindings.apply(&delta);
        self.scratch.assignment[leaf.as_usize()] = Some(cand);
        let out = self.go(pos + 1);
        self.scratch.assignment[leaf.as_usize()] = None;
        self.scratch.bindings.retract(&delta);
        match out {
            Outcome::FoundSome => Outcome::FoundSome,
            Outcome::Exhausted { .. } => fail,
        }
    }

    /// If `cand` is already assigned to an earlier level, returns that
    /// level's eval position.
    fn position_holding(&self, cand: &Event, pos: usize) -> Option<usize> {
        for (p, &l) in self.order[..pos].iter().enumerate() {
            if let Some(e) = &self.scratch.assignment[l.as_usize()] {
                if e.id() == cand.id() {
                    return Some(p);
                }
            }
        }
        None
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

/// Fig 5 bound derivation for a single-constraint empty domain on a trace:
/// returns the greatest index a replacement candidate for `e`'s level may
/// have (on `e`'s trace) such that the conflict could be resolved.
fn fig5_bound(rel: PairRel, e: &Event, slice: &[Event]) -> Option<u32> {
    match rel {
        // Candidate x needs e -> x but nothing on this trace follows e:
        // a replacement e' helps only if e' -> x_max, i.e. its index is at
        // most GP(x_max, trace(e)) (Fig 5a).
        PairRel::After => {
            let x_max = slice.last()?;
            Some(x_max.clock().entry(e.trace()).get())
        }
        // Candidate x needs x -> e but nothing here precedes e: an even
        // earlier e' has fewer predecessors still — prune the whole trace
        // (Fig 5b).
        PairRel::Before => Some(0),
        // Concurrency conflicts move both interval ends; no single-ended
        // sound bound (Fig 5c is handled by plain backjumping).
        PairRel::Concurrent => None,
    }
}

fn mask_below(pos: usize) -> u64 {
    if pos >= 64 {
        u64::MAX
    } else {
        (1u64 << pos) - 1
    }
}
