//! Seeded random generators for causal patterns and distributed
//! executions.
//!
//! Patterns are grown as [`Program`] ASTs over the full operator and
//! constraint grammar, rendered through the AST `Display` impls and
//! validated by [`Pattern::parse`] (retry on semantic rejects such as
//! `<->` over primitives). Executions come in three flavours: direct
//! random recording against a [`PoetServer`], scripted actors on the
//! deterministic [`SimKernel`], and the paper's random-walk/deadlock
//! workload with injected violations. With some probability a
//! *satisfying assignment* for the generated pattern is injected into
//! the execution so the positive paths of the engine get exercised,
//! not just the (overwhelmingly likely) no-match paths.

use crate::case::Case;
use ocep_pattern::{Attr, BinOp, ClassDef, Constraint, Expr, Pattern, Program};
use ocep_poet::{EventKind, PoetServer};
use ocep_rng::Rng;
use ocep_simulator::workloads::random_walk;
use ocep_simulator::{Actor, Ctx, Message, SimKernel};
use ocep_vclock::TraceId;
use std::collections::HashMap;

/// Event-type alphabet the generators draw from. Kept tiny so random
/// executions actually collide with random patterns.
const TYPES: [&str; 3] = ["a", "b", "c"];
/// Text alphabet, same rationale.
const TEXTS: [&str; 3] = ["u", "v", "w"];
/// Type used for pure synchronization messages the injector emits to
/// realize happens-before edges. Deliberately outside [`TYPES`] so a
/// sync message can never itself satisfy a leaf.
const SYNC_TY: &str = "z";

/// A generated pattern: the rendered source and its compiled form.
#[derive(Debug)]
pub struct GeneratedPattern {
    /// Rendered pattern-language source.
    pub source: String,
    /// The parsed pattern.
    pub pattern: Pattern,
}

/// Generates a random well-formed pattern over the full grammar.
///
/// Renders a random AST and keeps it only if [`Pattern::parse`]
/// accepts it, so semantic rules (entanglement needs compounds,
/// partner/limited precedence need primitives, event vars must be
/// declared) are enforced by the real front end rather than
/// re-implemented here. Falls back to a fixed known-good pattern if
/// forty attempts all get rejected — keeping the case stream flowing
/// matters more than novelty on a pathological seed.
pub fn gen_pattern(rng: &mut Rng) -> GeneratedPattern {
    for _ in 0..40 {
        let src = render(&random_program(rng));
        if let Ok(pattern) = Pattern::parse(&src) {
            if pattern.n_leaves() <= 4 {
                return GeneratedPattern {
                    source: src,
                    pattern,
                };
            }
        }
    }
    let src = "A := [*, 'a', *];\nB := [*, 'b', *];\npattern := A -> B;\n".to_string();
    let pattern = Pattern::parse(&src).expect("fallback pattern is well-formed");
    GeneratedPattern {
        source: src,
        pattern,
    }
}

/// Renders a program AST back to parseable source.
#[must_use]
pub(crate) fn render(program: &Program) -> String {
    let mut src = String::new();
    for c in &program.classes {
        src.push_str(&format!("{c};\n"));
    }
    for (class, var) in &program.event_vars {
        src.push_str(&format!("{class} ${var};\n"));
    }
    src.push_str(&format!("pattern := {};\n", program.pattern));
    src
}

fn random_attr(rng: &mut Rng, pool: &[&str], var: &str, var_p: f64, lit_p: f64) -> Attr {
    let r = rng.gen_f64();
    if r < var_p {
        Attr::Var(var.to_string())
    } else if r < var_p + lit_p {
        Attr::Literal((*rng.choose(pool).expect("pool non-empty")).to_string())
    } else {
        Attr::Wildcard
    }
}

fn random_program(rng: &mut Rng) -> Program {
    let n_classes = rng.gen_range(1..4usize);
    let trace_names = ["T0", "T1", "T2"];
    let mut classes = Vec::with_capacity(n_classes);
    for i in 0..n_classes {
        classes.push(ClassDef {
            name: format!("C{i}"),
            // Process: usually wildcard; sometimes a shared process
            // variable or a concrete trace pin.
            process: random_attr(rng, &trace_names, "p", 0.15, 0.10),
            // Type: always a literal — patterns with wildcard types
            // are legal but drown the oracle in candidates.
            ty: Attr::Literal((*rng.choose(&TYPES).expect("non-empty")).to_string()),
            // Text: wildcard-heavy, with literal and variable salt.
            text: random_attr(rng, &TEXTS, "m", 0.15, 0.25),
        });
    }
    // Occasionally declare an event variable over a random class.
    let mut event_vars = Vec::new();
    if rng.gen_bool(0.25) {
        let class = format!("C{}", rng.gen_range(0..n_classes));
        event_vars.push((class, "x".to_string()));
    }
    // Occurrences: mostly fresh class uses, sometimes the event var.
    let n_occ = rng.gen_range(2..5usize);
    let occs: Vec<Expr> = (0..n_occ)
        .map(|_| {
            if !event_vars.is_empty() && rng.gen_bool(0.3) {
                Expr::EventVar("x".to_string())
            } else {
                Expr::Class(format!("C{}", rng.gen_range(0..n_classes)))
            }
        })
        .collect();
    let pattern = random_expr(rng, &occs);
    Program {
        classes,
        event_vars,
        pattern,
    }
}

/// Folds occurrences into a random binary tree with random operators.
fn random_expr(rng: &mut Rng, occs: &[Expr]) -> Expr {
    if occs.len() == 1 {
        return occs[0].clone();
    }
    let cut = rng.gen_range(1..occs.len());
    let lhs = random_expr(rng, &occs[..cut]);
    let rhs = random_expr(rng, &occs[cut..]);
    // Weighted toward the workhorse operators; the rarer compound ops
    // are still drawn often enough to keep their code paths hot. The
    // parser rejects ill-typed uses (e.g. `<>` over compounds) and
    // `gen_pattern` simply retries.
    let op = match rng.gen_range(0..100u32) {
        0..=29 => BinOp::HappensBefore,
        30..=49 => BinOp::And,
        50..=64 => BinOp::Concurrent,
        65..=74 => BinOp::StrongPrecedes,
        75..=84 => BinOp::Partner,
        85..=92 => BinOp::Lim,
        _ => BinOp::Entangled,
    };
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// Generates one complete fuzz case: a pattern plus an execution.
pub fn gen_case(rng: &mut Rng) -> Case {
    match rng.gen_range(0..10u32) {
        0..=5 => {
            let gp = gen_pattern(rng);
            let poet = direct_execution(rng, &gp.pattern);
            Case::from_store(gp.source, poet.store())
        }
        6..=7 => {
            let gp = gen_pattern(rng);
            let poet = kernel_execution(rng, &gp.pattern);
            Case::from_store(gp.source, poet.store())
        }
        _ => workload_case(rng),
    }
}

/// Random recording directly against the tracer: local events, sends,
/// receives of pending sends, with an optional injected match.
fn direct_execution(rng: &mut Rng, pattern: &Pattern) -> PoetServer {
    let n_traces = rng.gen_range(2..5usize);
    let mut poet = PoetServer::new(n_traces);
    let steps = rng.gen_range(3..28usize);
    let inject_at = if rng.gen_bool(0.55) {
        Some(rng.gen_range(0..steps))
    } else {
        None
    };
    // Sends not yet received, as (event id, sender trace).
    let mut pending: Vec<(ocep_vclock::EventId, u32)> = Vec::new();
    for step in 0..steps {
        if Some(step) == inject_at {
            inject_match(rng, &mut poet, pattern);
        }
        let t = rng.gen_range(0..n_traces as u32);
        let ty = *rng.choose(&TYPES).expect("non-empty");
        let text = if rng.gen_bool(0.5) {
            *rng.choose(&TEXTS).expect("non-empty")
        } else {
            ""
        };
        match rng.gen_range(0..3u32) {
            0 => {
                poet.record_id(TraceId::new(t), EventKind::Unary, ty, text);
            }
            1 => {
                let send = poet.record_id(TraceId::new(t), EventKind::Send, ty, text);
                pending.push((send, t));
            }
            _ => {
                // Receive a pending send on some *other* trace, if any;
                // otherwise degrade to a local event.
                let candidates: Vec<usize> =
                    (0..pending.len()).filter(|&i| pending[i].1 != t).collect();
                if let Some(&i) = rng.choose(&candidates) {
                    let (send, _) = pending.swap_remove(i);
                    poet.record_receive_id(TraceId::new(t), send, ty, text);
                } else {
                    poet.record_id(TraceId::new(t), EventKind::Unary, ty, text);
                }
            }
        }
    }
    poet
}

/// A table-driven actor for the kernel mode: a fixed start script and a
/// reaction script consumed one entry per delivered message.
struct Scripted {
    start: Vec<(Option<u32>, String, String)>,
    on_msg: Vec<(Option<u32>, String, String)>,
    next: usize,
}

impl Actor for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (to, ty, text) in &self.start {
            match to {
                Some(t) => {
                    ctx.send_with_text(TraceId::new(*t), ty, ty, text, text);
                }
                None => {
                    ctx.local(ty, text);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: &Message, _recv: &ocep_poet::Event) {
        if let Some((to, ty, text)) = self.on_msg.get(self.next) {
            self.next += 1;
            match to {
                Some(t) => {
                    ctx.send_with_text(TraceId::new(*t), ty, ty, text, text);
                }
                None => {
                    ctx.local(ty, text);
                }
            }
        }
    }
}

/// Runs randomly scripted actors on the deterministic simulation
/// kernel, then optionally injects a match on top of the recording.
fn kernel_execution(rng: &mut Rng, pattern: &Pattern) -> PoetServer {
    let n_traces = rng.gen_range(2..4usize);
    let mut kernel = SimKernel::new(n_traces, rng.next_u64());
    for me in 0..n_traces as u32 {
        let script = |rng: &mut Rng, len: usize| -> Vec<(Option<u32>, String, String)> {
            (0..len)
                .map(|_| {
                    let ty = (*rng.choose(&TYPES).expect("non-empty")).to_string();
                    let text = (*rng.choose(&TEXTS).expect("non-empty")).to_string();
                    if rng.gen_bool(0.5) {
                        let mut to = rng.gen_range(0..n_traces as u32);
                        if to == me {
                            to = (to + 1) % n_traces as u32;
                        }
                        (Some(to), ty, text)
                    } else {
                        (None, ty, text)
                    }
                })
                .collect()
        };
        let start_len = rng.gen_range(1..4usize);
        let msg_len = rng.gen_range(0..3usize);
        kernel.add_actor(Scripted {
            start: script(rng, start_len),
            on_msg: script(rng, msg_len),
            next: 0,
        });
    }
    let mut poet = kernel.run(200);
    if rng.gen_bool(0.4) {
        inject_match(rng, &mut poet, pattern);
    }
    poet
}

/// A small instance of the paper's §V-C random-walk/deadlock workload:
/// a real multi-process computation with construction-guaranteed
/// violations and a cycle pattern over process/text attribute
/// variables.
fn workload_case(rng: &mut Rng) -> Case {
    let cycle_len = rng.gen_range(2..4usize);
    let n_processes = rng.gen_range(cycle_len..6usize.max(cycle_len + 1));
    let params = random_walk::Params {
        n_processes,
        rounds: rng.gen_range(2..6usize),
        walk_steps: rng.gen_range(0..2usize),
        cycle_len,
        deadlock_prob: 0.4,
        seed: rng.next_u64(),
    };
    let generated = random_walk::generate(&params);
    Case::from_store(generated.pattern_src.clone(), generated.poet.store())
}

/// Appends events realizing one satisfying assignment of `pattern` to
/// the recording, best-effort. Bails (leaving the recording valid but
/// unaugmented) whenever the pattern's constraints cannot be satisfied
/// by the simple construction below — the differential check does not
/// depend on injection succeeding.
fn inject_match(rng: &mut Rng, poet: &mut PoetServer, pattern: &Pattern) {
    let n = poet.n_traces();
    let k = pattern.n_leaves();
    if k == 0 || k > 6 || n == 0 {
        return;
    }

    // Happens-before obligations from the compiled constraint closure.
    let before_edge = |i: usize, j: usize| {
        pattern.rel(
            ocep_pattern::LeafId::from_index(i as u32),
            ocep_pattern::LeafId::from_index(j as u32),
        ) == Some(ocep_pattern::PairRel::Before)
    };

    // Topological order over Before edges (Kahn). The compiler rejects
    // cyclic precedence, so this always completes.
    let mut indeg = vec![0usize; k];
    for i in 0..k {
        for (j, d) in indeg.iter_mut().enumerate() {
            if i != j && before_edge(i, j) {
                *d += 1;
            }
        }
    }
    let mut order = Vec::with_capacity(k);
    let mut ready: Vec<usize> = (0..k).filter(|&i| indeg[i] == 0).collect();
    while let Some(&i) = rng.choose(&ready) {
        ready.retain(|&x| x != i);
        order.push(i);
        for (j, d) in indeg.iter_mut().enumerate() {
            if j != i && before_edge(i, j) {
                *d -= 1;
                if *d == 0 {
                    ready.push(j);
                }
            }
        }
    }
    if order.len() != k {
        return;
    }

    // Class table: leaf -> declared attributes.
    let classes: HashMap<&str, &ClassDef> = pattern
        .program()
        .classes
        .iter()
        .map(|c| (c.name.as_str(), c))
        .collect();
    let leaf_class = |i: usize| -> &ClassDef { classes[pattern.leaves()[i].class_name()] };

    // --- assign a trace to every leaf --------------------------------
    // Literal pins are forced; leaves sharing a process variable share a
    // trace; concurrent pairs need distinct traces (events on one trace
    // are totally ordered).
    let mut trace_of = vec![usize::MAX; k];
    let mut var_trace: HashMap<String, usize> = HashMap::new();
    #[allow(clippy::needless_range_loop)] // `leaf_class(i)` needs the index anyway
    for i in 0..k {
        trace_of[i] = match &leaf_class(i).process {
            Attr::Literal(s) => {
                // Only `T<n>` literals within range are realizable.
                match s.parse::<TraceId>() {
                    Ok(t) if t.as_usize() < n => t.as_usize(),
                    _ => return,
                }
            }
            Attr::Var(v) => *var_trace
                .entry(v.clone())
                .or_insert_with(|| rng.gen_range(0..n)),
            Attr::Wildcard => rng.gen_range(0..n),
        };
    }
    // Repair pass: concurrent leaves that landed on one trace get moved
    // apart when the assignment is free (wildcard process only).
    for _ in 0..3 {
        let mut ok = true;
        for i in 0..k {
            for j in i + 1..k {
                let concurrent = pattern.rel(
                    ocep_pattern::LeafId::from_index(i as u32),
                    ocep_pattern::LeafId::from_index(j as u32),
                ) == Some(ocep_pattern::PairRel::Concurrent);
                if concurrent && trace_of[i] == trace_of[j] {
                    ok = false;
                    if n > 1 && matches!(leaf_class(j).process, Attr::Wildcard) {
                        trace_of[j] = (trace_of[j] + 1 + rng.gen_range(0..n - 1)) % n;
                    } else if n > 1 && matches!(leaf_class(i).process, Attr::Wildcard) {
                        trace_of[i] = (trace_of[i] + 1 + rng.gen_range(0..n - 1)) % n;
                    }
                }
            }
        }
        if ok {
            break;
        }
    }

    // --- resolve attribute values ------------------------------------
    // A variable used anywhere as a *process* attribute is bound to a
    // trace name, which its text occurrences must then repeat (the
    // random-walk cycle pattern relies on exactly this coupling).
    let mut var_value: HashMap<String, String> = HashMap::new();
    for (v, t) in &var_trace {
        var_value.insert(v.clone(), TraceId::new(*t as u32).to_string());
    }

    // Partner obligations: leaf -> (is_send, peer).
    let mut partner_send_of = vec![None; k]; // recv leaf -> send leaf
    let mut is_partner_send = vec![false; k];
    for c in pattern.constraints() {
        if let Constraint::Partner { send, recv } = c {
            partner_send_of[recv.as_usize()] = Some(send.as_usize());
            is_partner_send[send.as_usize()] = true;
            // Partner endpoints must sit on distinct traces.
            if trace_of[send.as_usize()] == trace_of[recv.as_usize()] {
                if n <= 1 {
                    return;
                }
                if matches!(leaf_class(recv.as_usize()).process, Attr::Wildcard) {
                    trace_of[recv.as_usize()] = (trace_of[recv.as_usize()] + 1) % n;
                } else if matches!(leaf_class(send.as_usize()).process, Attr::Wildcard) {
                    trace_of[send.as_usize()] = (trace_of[send.as_usize()] + 1) % n;
                } else {
                    return;
                }
            }
        }
    }

    // --- emit, in topological order ----------------------------------
    fn resolve(attr: &Attr, rng: &mut Rng, var_value: &mut HashMap<String, String>) -> String {
        match attr {
            Attr::Literal(s) => s.clone(),
            Attr::Wildcard => (*rng.choose(&TEXTS).expect("non-empty")).to_string(),
            Attr::Var(v) => var_value
                .entry(v.clone())
                .or_insert_with(|| (*rng.choose(&TEXTS).expect("non-empty")).to_string())
                .clone(),
        }
    }

    let mut emitted: Vec<Option<ocep_vclock::EventId>> = vec![None; k];
    for &i in &order {
        let t = TraceId::new(trace_of[i] as u32);
        let class = leaf_class(i);
        let ty = resolve(&class.ty, rng, &mut var_value);
        let text = resolve(&class.text, rng, &mut var_value);
        // Realize cross-trace happens-before edges with sync messages
        // (same-trace edges hold by program order since we emit in
        // topological order). The partner send, if any, carries the
        // ordering itself.
        for &j in &order {
            if j == i {
                break;
            }
            if before_edge(j, i) && trace_of[j] != trace_of[i] && partner_send_of[i] != Some(j) {
                if emitted[j].is_none() {
                    return;
                }
                // Leaf j is already on trace j, so it precedes this sync
                // send by program order; receiving the sync on trace i
                // orders it before everything later there, leaf i
                // included.
                let sync = poet.record_id(
                    TraceId::new(trace_of[j] as u32),
                    EventKind::Send,
                    SYNC_TY,
                    "",
                );
                poet.record_receive_id(t, sync, SYNC_TY, "");
            }
        }
        let ev = if let Some(send_leaf) = partner_send_of[i] {
            let Some(send) = emitted[send_leaf] else {
                return;
            };
            poet.record_receive_id(t, send, ty.as_str(), text.as_str())
        } else if is_partner_send[i] {
            poet.record_id(t, EventKind::Send, ty.as_str(), text.as_str())
        } else {
            poet.record_id(t, EventKind::Unary, ty.as_str(), text.as_str())
        };
        emitted[i] = Some(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_generation_is_deterministic_and_valid() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..64 {
            let pa = gen_pattern(&mut a);
            let pb = gen_pattern(&mut b);
            assert_eq!(pa.source, pb.source);
            assert!(Pattern::parse(&pa.source).is_ok());
            assert!(pa.pattern.n_leaves() >= 1);
        }
    }

    #[test]
    fn generated_patterns_are_diverse() {
        let mut rng = Rng::seed_from_u64(0);
        let sources: std::collections::HashSet<String> =
            (0..64).map(|_| gen_pattern(&mut rng).source).collect();
        assert!(
            sources.len() > 32,
            "only {} distinct patterns",
            sources.len()
        );
    }

    #[test]
    fn cases_replay_deterministically() {
        for seed in 0..32u64 {
            let mut a = Rng::seed_from_u64(seed);
            let mut b = Rng::seed_from_u64(seed);
            let ca = gen_case(&mut a);
            let cb = gen_case(&mut b);
            assert_eq!(ca.pattern_src, cb.pattern_src);
            assert_eq!(ca.actions, cb.actions);
            // Rebuilding from actions reproduces the exact store.
            assert!(ca.build().store().content_eq(cb.build().store()));
        }
    }

    #[test]
    fn injection_produces_matches_reasonably_often() {
        use ocep_baselines::ExhaustiveMatcher;
        let mut rng = Rng::seed_from_u64(11);
        let mut matched = 0usize;
        let total = 60usize;
        for _ in 0..total {
            let case = gen_case(&mut rng);
            let Ok(pattern) = Pattern::parse(&case.pattern_src) else {
                continue;
            };
            let poet = case.build();
            let events: Vec<_> = poet.store().iter_arrival().cloned().collect();
            if ExhaustiveMatcher::new(&pattern).any_match(&events) {
                matched += 1;
            }
        }
        assert!(
            matched >= total / 6,
            "only {matched}/{total} generated cases contain a match"
        );
    }
}
