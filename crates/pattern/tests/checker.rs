//! The match checker: `Pattern::accepts`, `pair_holds` and
//! `deferred_hold`. Each test pairs an accepted assignment with one the
//! named check alone rejects.

use ocep_pattern::{LeafId, Pattern};
use ocep_poet::{Event, EventKind, PoetServer};
use ocep_vclock::TraceId;

fn t(i: u32) -> TraceId {
    TraceId::new(i)
}

fn leaf(i: u32) -> LeafId {
    LeafId::from_index(i)
}

fn local(poet: &mut PoetServer, trace: u32, ty: &str, text: &str) -> Event {
    poet.record(t(trace), EventKind::Unary, ty, text)
}

fn seen(poet: &PoetServer) -> Vec<Event> {
    poet.store().iter_arrival().cloned().collect()
}

fn parse(src: &str) -> Pattern {
    Pattern::parse(src).unwrap()
}

#[test]
fn wrong_arity_is_rejected() {
    let p = parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;");
    let mut poet = PoetServer::new(1);
    let a = local(&mut poet, 0, "a", "");
    assert!(!p.accepts(&[a], &seen(&poet)));
}

#[test]
fn duplicate_event_is_rejected() {
    let p = parse("A := [*, a, *]; B := [*, a, *]; pattern := A && B;");
    let mut poet = PoetServer::new(2);
    let x = local(&mut poet, 0, "a", "");
    let y = local(&mut poet, 1, "a", "");
    let all = seen(&poet);
    assert!(p.accepts(&[x.clone(), y], &all));
    assert!(!p.accepts(&[x.clone(), x], &all));
}

#[test]
fn wrong_shape_is_rejected() {
    let p = parse("A := [T0, a, *]; pattern := A;");
    let mut poet = PoetServer::new(2);
    let good = local(&mut poet, 0, "a", "");
    let wrong_type = local(&mut poet, 0, "b", "");
    let wrong_trace = local(&mut poet, 1, "a", "");
    let all = seen(&poet);
    assert!(p.accepts(&[good], &all));
    assert!(!p.accepts(&[wrong_type], &all));
    assert!(!p.accepts(&[wrong_trace], &all));
}

#[test]
fn process_names_compare_as_written() {
    // `T+1` is not trace T1's name, whether a literal says it or a
    // variable carries it from a text attribute, in either leaf order.
    let p = parse("A := ['T+1', a, *]; pattern := A;");
    let mut poet = PoetServer::new(2);
    let a = local(&mut poet, 1, "a", "");
    assert!(!p.accepts(&[a], &seen(&poet)));

    let text_first = parse("S := [*, s, $p]; R := [$p, r, *]; pattern := S && R;");
    let process_first = parse("R := [$p, r, *]; S := [*, s, $p]; pattern := R && S;");
    let mut poet = PoetServer::new(2);
    let s_plus = local(&mut poet, 0, "s", "T+1");
    let s_plain = local(&mut poet, 0, "s", "T1");
    let r = local(&mut poet, 1, "r", "");
    let all = seen(&poet);
    assert!(text_first.accepts(&[s_plain.clone(), r.clone()], &all));
    assert!(process_first.accepts(&[r.clone(), s_plain], &all));
    assert!(!text_first.accepts(&[s_plus.clone(), r.clone()], &all));
    assert!(!process_first.accepts(&[r, s_plus], &all));
}

#[test]
fn inconsistent_variable_is_rejected() {
    let p = parse("A := [*, a, $v]; B := [*, b, $v]; pattern := A && B;");
    let mut poet = PoetServer::new(2);
    let a = local(&mut poet, 0, "a", "u");
    let b_same = local(&mut poet, 1, "b", "u");
    let b_other = local(&mut poet, 1, "b", "w");
    let all = seen(&poet);
    assert!(p.accepts(&[a.clone(), b_same], &all));
    assert!(!p.accepts(&[a, b_other], &all));
}

#[test]
fn each_pair_relation_is_checked_in_both_directions() {
    let p = parse("A := [*, a, *]; B := [*, b, *]; pattern := A -> B;");
    let mut poet = PoetServer::new(2);
    let b_early = local(&mut poet, 0, "b", "");
    let a = local(&mut poet, 0, "a", "");
    let b = local(&mut poet, 0, "b", "");
    let b_concurrent = local(&mut poet, 1, "b", "");
    let all = seen(&poet);
    // Before, read from A's row.
    assert!(p.pair_holds(leaf(0), &a, leaf(1), &b));
    assert!(!p.pair_holds(leaf(0), &a, leaf(1), &b_early));
    assert!(!p.pair_holds(leaf(0), &a, leaf(1), &b_concurrent));
    // After, read from B's row.
    assert!(p.pair_holds(leaf(1), &b, leaf(0), &a));
    assert!(!p.pair_holds(leaf(1), &b_early, leaf(0), &a));
    assert!(p.accepts(&[a.clone(), b], &all));
    assert!(!p.accepts(&[a.clone(), b_early], &all));
    assert!(!p.accepts(&[a, b_concurrent], &all));

    let p = parse("A := [*, a, *]; B := [*, b, *]; pattern := A || B;");
    let mut poet = PoetServer::new(2);
    let a = local(&mut poet, 0, "a", "");
    let b_ordered = local(&mut poet, 0, "b", "");
    let b_concurrent = local(&mut poet, 1, "b", "");
    let all = seen(&poet);
    assert!(p.pair_holds(leaf(0), &a, leaf(1), &b_concurrent));
    assert!(!p.pair_holds(leaf(0), &a, leaf(1), &b_ordered));
    assert!(p.accepts(&[a.clone(), b_concurrent], &all));
    assert!(!p.accepts(&[a, b_ordered], &all));
}

#[test]
fn wrong_message_partner_is_rejected() {
    let p = parse("S := [*, s, *]; R := [*, r, *]; pattern := S <> R;");
    let mut poet = PoetServer::new(2);
    let s1 = poet.record(t(0), EventKind::Send, "s", "");
    let s2 = poet.record(t(0), EventKind::Send, "s", "");
    let r1 = poet.record_receive(t(1), s1.id(), "r", "");
    let r2 = poet.record_receive(t(1), s2.id(), "r", "");
    let all = seen(&poet);
    // s1 happens before r2, but r2 received s2.
    assert!(s1.stamp().happens_before(r2.stamp()));
    assert!(p.pair_holds(leaf(0), &s1, leaf(1), &r1));
    assert!(p.pair_holds(leaf(1), &r1, leaf(0), &s1));
    assert!(!p.pair_holds(leaf(0), &s1, leaf(1), &r2));
    assert!(!p.pair_holds(leaf(1), &r2, leaf(0), &s1));
    assert!(p.accepts(&[s1.clone(), r1], &all));
    assert!(!p.accepts(&[s1, r2], &all));
}

#[test]
fn limited_precedence_rejects_an_intervening_event_it_has_seen() {
    let p = parse("A := [*, a, *]; B := [*, b, *]; pattern := A ~> B;");
    let mut poet = PoetServer::new(1);
    let a1 = local(&mut poet, 0, "a", "");
    let a2 = local(&mut poet, 0, "a", "");
    let b = local(&mut poet, 0, "b", "");
    let all = seen(&poet);
    assert!(p.accepts(&[a2.clone(), b.clone()], &all));
    assert!(!p.accepts(&[a1.clone(), b.clone()], &all));
    // The blocker counts only where `seen` holds it.
    let without_a2 = [a1.clone(), b.clone()];
    assert!(p.accepts(&[a1.clone(), b.clone()], &without_a2));
    let assigned = [a1, b];
    assert!(!p.deferred_hold(|l| &assigned[l.as_usize()], |_| &all));
    assert!(p.deferred_hold(|l| &assigned[l.as_usize()], |_| &without_a2));
}

#[test]
fn limited_precedence_blocks_only_events_of_the_from_shape() {
    let p = parse("A := [*, a, u]; B := [*, b, *]; pattern := A ~> B;");
    let mut poet = PoetServer::new(1);
    let a = local(&mut poet, 0, "a", "u");
    local(&mut poet, 0, "a", "w");
    let b = local(&mut poet, 0, "b", "");
    assert!(p.accepts(&[a, b], &seen(&poet)));
}

#[test]
fn strong_precedence_rejects_one_unordered_pair() {
    let p = parse("A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; pattern := (A && B) ->> C;");
    let mut poet = PoetServer::new(3);
    let a = local(&mut poet, 0, "a", "");
    let b_far = local(&mut poet, 1, "b", "");
    let s = poet.record(t(1), EventKind::Send, "m", "");
    let b = local(&mut poet, 2, "b", "");
    poet.record_receive(t(0), s.id(), "m", "");
    let c = local(&mut poet, 0, "c", "");
    let all = seen(&poet);
    // b_far reaches c through the message; b on T2 does not.
    assert!(p.accepts(&[a.clone(), b_far, c.clone()], &all));
    assert!(!p.accepts(&[a, b, c], &all));
}

#[test]
fn compound_precedence_needs_one_ordered_pair() {
    let p = parse("A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; pattern := (A || B) -> C;");
    let mut poet = PoetServer::new(3);
    let a = local(&mut poet, 0, "a", "");
    let b = local(&mut poet, 1, "b", "");
    let c_after_a = local(&mut poet, 0, "c", "");
    let c_apart = local(&mut poet, 2, "c", "");
    let all = seen(&poet);
    assert!(p.accepts(&[a.clone(), b.clone(), c_after_a], &all));
    assert!(!p.accepts(&[a, b, c_apart], &all));
}

#[test]
fn entanglement_needs_overlap_or_a_crossing() {
    let p = parse(
        "A := [*, a, *]; B := [*, b, *]; C := [*, c, *]; D := [*, d, *]; \
         pattern := (A && B) <-> (C && D);",
    );
    // Crossing: a -> c and d -> b, through one message each way.
    let mut poet = PoetServer::new(2);
    let a = local(&mut poet, 0, "a", "");
    let d = local(&mut poet, 1, "d", "");
    let s1 = poet.record(t(0), EventKind::Send, "m", "");
    let s2 = poet.record(t(1), EventKind::Send, "m", "");
    poet.record_receive(t(1), s1.id(), "m", "");
    let c = local(&mut poet, 1, "c", "");
    poet.record_receive(t(0), s2.id(), "m", "");
    let b = local(&mut poet, 0, "b", "");
    assert!(p.accepts(&[a, b, c, d], &seen(&poet)));

    // Four events on four traces: no precedence either way.
    let mut poet = PoetServer::new(4);
    let a = local(&mut poet, 0, "a", "");
    let b = local(&mut poet, 1, "b", "");
    let c = local(&mut poet, 2, "c", "");
    let d = local(&mut poet, 3, "d", "");
    assert!(!p.accepts(&[a, b, c, d], &seen(&poet)));
}
