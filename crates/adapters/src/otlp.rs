//! OTLP-style distributed-trace span reader.
//!
//! # Format
//!
//! JSON-lines: one span record per line (blank lines and lines
//! starting with `#` are skipped). Fields:
//!
//! ```json
//! {"service": "checkout", "span": "c1", "name": "charge",
//!  "parent": "f0", "links": ["inv3"], "start": 1200, "attr": "order=9"}
//! ```
//!
//! * `service` (string, required) — the resource that emitted the
//!   span; each distinct service becomes one trace.
//! * `span` (string, required) — span id, unique within the recording.
//! * `name` (string, required) — operation name; becomes the event
//!   *type* so patterns match on it directly (`[*, charge, *]`).
//! * `start` (integer, required) — start timestamp; orders spans
//!   *within* one service. Cross-service order comes only from edges.
//! * `parent` (string, optional) — parent span id.
//! * `links` (array of strings, optional) — additional causal
//!   predecessors (OTLP span links).
//! * `attr` (string, optional) — free-form attribute; becomes the
//!   event *text* (the third class position patterns bind `$vars` on).
//!
//! Unknown fields (`end`, `duration`, OTLP noise) are ignored.
//!
//! # Causality synthesis
//!
//! A span recording only fixes a *partial* order: span begin edges
//! (`parent.start → child.start`, `link → span`) plus the per-service
//! timestamp order. The sweep materializes exactly that knowledge:
//!
//! 1. Spans of one service are totally ordered by `(start, input
//!    line)` — program order on the trace.
//! 2. Every parent/link edge becomes a happens-before edge. Edges
//!    between spans of the *same* service must agree with timestamp
//!    order (a parent that starts after its child is a recorded
//!    contradiction and is diagnosed as a cycle).
//! 3. A topological sweep (deterministic: ready spans are processed
//!    in `(trace, position)` order) assigns Fidge clocks: a span with
//!    cross-service predecessors becomes a *receive* joining its first
//!    predecessor's clock, and each additional cross-service
//!    predecessor materializes one synthetic `span_link` receive event
//!    immediately before it on the same trace — every message edge is
//!    carried by exactly one receive with exactly one partner, which
//!    is what the admission guard's deliverability rule expects.
//! 4. A span some other service's span points at is stamped as a
//!    *send* endpoint.
//!
//! Cycles (including same-service timestamp contradictions) and
//! references to unknown spans (orphan parents, dangling links) are
//! rejected with the offending line and span id — never a panic.

use crate::emit::{Emitter, Interner, Sym};
use crate::error::{limit, syn, too_many_records};
use crate::json::{self, Field, Value};
use crate::{record_hint, record_lines};
use crate::{Adapter, AdapterError, AdapterErrorKind, AdapterOutput, AdapterStats};
use crate::{MAX_LINKS_PER_SPAN, MAX_RECORDS};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Event type of the synthetic receives materialized for secondary
/// span links; their text carries the receiving span's id.
pub const SPAN_LINK_TYPE: &str = "span_link";

/// The OTLP-style span adapter (format name `otlp`).
#[derive(Debug, Clone, Copy, Default)]
pub struct OtlpAdapter;

/// No record is shorter than its required keys and a line break:
/// `{"service":"","span":"","name":"","start":0}`.
const MIN_RECORD_BYTES: usize = 45;

/// The record fields the reader looks at, in [`json::scan`] order.
const FIELDS: [&str; 7] = [
    "service", "span", "name", "start", "parent", "attr", "links",
];

struct Span<'a> {
    line: usize,
    trace: u32,
    id: Cow<'a, str>,
    name: Sym,
    attr: Sym,
    parent: Option<Cow<'a, str>>,
    links: Vec<Cow<'a, str>>,
    start: u64,
}

fn req_str<'a>(v: Field<'a>, field: &str, line: usize) -> Result<Cow<'a, str>, AdapterError> {
    match v {
        Some(Value::Str(s)) if !s.is_empty() => Ok(s),
        Some(Value::Str(_)) => Err(syn(line, format!("field `{field}` must be non-empty"))),
        Some(_) => Err(syn(line, format!("field `{field}` must be a string"))),
        None => Err(syn(line, format!("missing required field `{field}`"))),
    }
}

fn opt_str<'a>(
    v: Field<'a>,
    field: &str,
    line: usize,
) -> Result<Option<Cow<'a, str>>, AdapterError> {
    match v {
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(Value::Null) | None => Ok(None),
        Some(_) => Err(syn(line, format!("field `{field}` must be a string"))),
    }
}

fn req_u64(v: Field<'_>, field: &str, line: usize) -> Result<u64, AdapterError> {
    match v {
        Some(Value::Num(n)) if n >= 0.0 && n.fract() == 0.0 && n < 9.0e15 => Ok(n as u64),
        Some(Value::Num(_)) => Err(syn(
            line,
            format!("field `{field}` must be a non-negative integer"),
        )),
        Some(_) => Err(syn(line, format!("field `{field}` must be a number"))),
        None => Err(syn(line, format!("missing required field `{field}`"))),
    }
}

fn link_ids<'a>(v: Field<'a>, id: &str, line: usize) -> Result<Vec<Cow<'a, str>>, AdapterError> {
    let items = match v {
        Some(Value::Arr(items)) => items,
        Some(Value::Null) | None => return Ok(Vec::new()),
        Some(_) => return Err(syn(line, "field `links` must be an array of span ids")),
    };
    if items.len() > MAX_LINKS_PER_SPAN {
        let n = items.len();
        let detail = format!("span `{id}` carries {n} links, more than {MAX_LINKS_PER_SPAN}");
        return Err(limit(line, detail));
    }
    items
        .into_iter()
        .map(|it| match it {
            Value::Str(s) if !s.is_empty() => Ok(s),
            _ => Err(syn(line, "`links` entries must be non-empty strings")),
        })
        .collect()
}

impl Adapter for OtlpAdapter {
    fn format(&self) -> &'static str {
        "otlp"
    }

    fn parse_str(&self, input: &str) -> Result<AdapterOutput, AdapterError> {
        let mut stats = AdapterStats::default();
        let hint = record_hint(input, MIN_RECORD_BYTES);
        let mut spans: Vec<Span> = Vec::with_capacity(hint);
        let mut traces = Interner::default();
        let mut strings = Interner::default();
        let mut span_ix: HashMap<Cow<str>, usize> = HashMap::with_capacity(hint);

        // ── Pass 1: parse records ───────────────────────────────────
        for (line, text) in record_lines(input, &mut stats.lines) {
            let [service, id, name, start, parent, attr, links] = json::scan(text, &FIELDS)
                .map_err(|(at, detail)| syn(line, format!("byte {at}: {detail}")))?;
            if spans.len() >= MAX_RECORDS {
                return Err(too_many_records(line));
            }
            let service = req_str(service, "service", line)?;
            let id = req_str(id, "span", line)?;
            let name = req_str(name, "name", line)?;
            let start = req_u64(start, "start", line)?;
            let parent = opt_str(parent, "parent", line)?;
            let attr = opt_str(attr, "attr", line)?.unwrap_or_default();
            let links = link_ids(links, &id, line)?;

            let trace = traces.trace(&service, line, "service")?;
            if let Some(first) = span_ix.insert(id.clone(), spans.len()) {
                let first = spans[first].line;
                let detail = format!("duplicate span id `{id}` (first defined on line {first})");
                return Err(syn(line, detail));
            }
            stats.records += 1;
            spans.push(Span {
                line,
                trace,
                id,
                name: strings.intern(&name),
                attr: strings.intern(&attr),
                parent,
                links,
                start,
            });
        }

        // ── Pass 2: per-trace order + dependency graph ──────────────
        // `order` lists spans trace by trace, each trace in `(start,
        // input line)` order: a span's program-order successor is the
        // next entry when that is on the same trace, and its rank (its
        // place in `order`) is its priority in the sweep.
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_unstable_by_key(|&i| (spans[i].trace, spans[i].start, spans[i].line));
        let mut rank = vec![0usize; spans.len()];
        let mut indegree = vec![0u32; spans.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
            indegree[i] = u32::from(r > 0 && spans[order[r - 1]].trace == spans[i].trace);
        }

        let resolve = |from_id: &str, to: usize, what: &str| -> Result<usize, AdapterError> {
            let Span { line, id, .. } = &spans[to];
            let (kind, detail) = match span_ix.get(from_id) {
                Some(&p) if p != to => return Ok(p),
                Some(_) => (
                    AdapterErrorKind::Cycle,
                    format!("span `{id}` names itself as {what}"),
                ),
                None => (
                    AdapterErrorKind::OrphanRef,
                    format!("span `{id}` names {what} `{from_id}`, which no record defines"),
                ),
            };
            Err(AdapterError::new(kind, *line, detail))
        };
        // The parent/link edges as two CSR lists. `preds[pred_off[i]..
        // pred_off[i + 1]]` are span i's causal predecessors, parent
        // first, then links; `succs` is the same edge set keyed by the
        // predecessor, filled by a counting sort.
        let mut preds: Vec<usize> = Vec::new();
        let mut pred_off = Vec::with_capacity(spans.len() + 1);
        let mut succ_off = vec![0usize; spans.len() + 1];
        let mut sends = vec![false; spans.len()];
        for (i, span) in spans.iter().enumerate() {
            pred_off.push(preds.len());
            let parent = span.parent.iter().map(|p| (p, "parent"));
            for (from_id, what) in parent.chain(span.links.iter().map(|l| (l, "link"))) {
                let p = resolve(from_id, i, what)?;
                preds.push(p);
                indegree[i] += 1;
                succ_off[p + 1] += 1;
                if spans[p].trace != span.trace {
                    sends[p] = true;
                    stats.edges += 1;
                }
            }
        }
        pred_off.push(preds.len());
        for p in 0..spans.len() {
            succ_off[p + 1] += succ_off[p];
        }
        let mut succs = vec![0usize; preds.len()];
        let mut fill = succ_off.clone();
        for i in 0..spans.len() {
            for &p in &preds[pred_off[i]..pred_off[i + 1]] {
                succs[fill[p]] = i;
                fill[p] += 1;
            }
        }

        // ── Pass 3: deterministic topological sweep ─────────────────
        let mut ready: BinaryHeap<Reverse<usize>> = (0..spans.len())
            .filter(|&i| indegree[i] == 0)
            .map(|i| Reverse(rank[i]))
            .collect();
        let link_ty = strings.intern(SPAN_LINK_TYPE);
        let mut em = Emitter::new(traces.into_names(), strings, spans.len());
        // Output position of each swept span's own event.
        let mut at = vec![0usize; spans.len()];
        let mut done = 0usize;
        while let Some(Reverse(r)) = ready.pop() {
            done += 1;
            let i = order[r];
            let s = &spans[i];
            let mut cross = preds[pred_off[i]..pred_off[i + 1]]
                .iter()
                .filter(|&&d| spans[d].trace != s.trace);
            let first = cross.next();
            // Secondary cross-trace predecessors each get a synthetic
            // receive carrying exactly one message edge.
            for &d in cross {
                let text = em.strings.intern(&s.id);
                em.receive(s.trace, at[d], link_ty, text);
                stats.synthesized += 1;
            }
            at[i] = match first {
                Some(&d) => em.receive(s.trace, at[d], s.name, s.attr),
                None => em.local(s.trace, sends[i], s.name, s.attr),
            };
            let next = order.get(r + 1).filter(|&&n| spans[n].trace == s.trace);
            for &n in succs[succ_off[i]..succ_off[i + 1]].iter().chain(next) {
                indegree[n] -= 1;
                if indegree[n] == 0 {
                    ready.push(Reverse(rank[n]));
                }
            }
        }
        if done < spans.len() {
            // Name a witness: the earliest-line span still blocked.
            let stuck = (0..spans.len())
                .filter(|&i| indegree[i] > 0)
                .min_by_key(|&i| spans[i].line)
                .expect("done < len implies a blocked span");
            let (Span { line, id, .. }, left) = (&spans[stuck], spans.len() - done);
            let detail = format!(
                "span `{id}` participates in a causal cycle ({left} span(s) unresolvable; \
                 parent/link edges contradict each other or same-service start order)"
            );
            return Err(AdapterError::new(AdapterErrorKind::Cycle, *line, detail));
        }
        Ok(em.finish(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adapter;
    use ocep_poet::EventKind;
    use ocep_vclock::TraceId;

    fn parse(input: &str) -> Result<AdapterOutput, AdapterError> {
        OtlpAdapter.parse_str(input)
    }

    #[test]
    fn parent_edges_synthesize_happens_before() {
        let out = parse(
            r#"
            # a frontend span fans out to a backend child
            {"service": "front", "span": "f1", "name": "request", "start": 10}
            {"service": "back",  "span": "b1", "name": "handle",  "start": 20, "parent": "f1"}
            {"service": "front", "span": "f2", "name": "respond", "start": 30, "links": ["b1"]}
            "#,
        )
        .unwrap();
        assert_eq!(out.n_traces, 2);
        assert_eq!(out.trace_names, vec!["front", "back"]);
        assert_eq!(out.events.len(), 3);
        let find = |name: &str| {
            out.events
                .iter()
                .find(|e| e.ty() == name)
                .unwrap_or_else(|| panic!("event {name}"))
        };
        let (req, handle, resp) = (find("request"), find("handle"), find("respond"));
        assert!(req.stamp().happens_before(handle.stamp()));
        assert!(handle.stamp().happens_before(resp.stamp()));
        assert_eq!(req.kind(), EventKind::Send);
        assert_eq!(handle.kind(), EventKind::Receive);
        assert_eq!(handle.partner(), Some(req.id()));
        assert_eq!(out.stats.edges, 2);
        assert_eq!(out.stats.synthesized, 0);
    }

    #[test]
    fn same_service_order_is_timestamps_not_edges() {
        let out = parse(
            r#"
            {"service": "s", "span": "late",  "name": "second", "start": 99}
            {"service": "s", "span": "early", "name": "first",  "start": 1}
            "#,
        )
        .unwrap();
        assert_eq!(out.events[0].ty(), "first");
        assert_eq!(out.events[1].ty(), "second");
        assert!(out.events[0].stamp().happens_before(out.events[1].stamp()));
    }

    #[test]
    fn secondary_links_materialize_span_link_receives() {
        let out = parse(
            r#"
            {"service": "a", "span": "a1", "name": "left",  "start": 1}
            {"service": "b", "span": "b1", "name": "right", "start": 1}
            {"service": "c", "span": "c1", "name": "join",  "start": 2, "parent": "a1", "links": ["b1"]}
            "#,
        )
        .unwrap();
        // join receives a1 directly; b1 via one synthetic span_link.
        assert_eq!(out.events.len(), 4);
        assert_eq!(out.stats.synthesized, 1);
        let link = out
            .events
            .iter()
            .find(|e| e.ty() == SPAN_LINK_TYPE)
            .expect("synthetic link receive");
        assert_eq!(link.text(), "c1");
        let join = out.events.iter().find(|e| e.ty() == "join").unwrap();
        for src in ["left", "right"] {
            let s = out.events.iter().find(|e| e.ty() == src).unwrap();
            assert!(
                s.stamp().happens_before(join.stamp()),
                "{src} must precede join"
            );
        }
    }

    #[test]
    fn orphan_parent_is_line_diagnosed() {
        let err = parse(
            r#"
            {"service": "a", "span": "a1", "name": "x", "start": 1, "parent": "ghost"}
            "#,
        )
        .unwrap_err();
        assert_eq!(err.kind, AdapterErrorKind::OrphanRef);
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn parent_cycles_are_diagnosed() {
        let err = parse(
            r#"
            {"service": "a", "span": "a1", "name": "x", "start": 1, "parent": "b1"}
            {"service": "b", "span": "b1", "name": "y", "start": 1, "parent": "a1"}
            "#,
        )
        .unwrap_err();
        assert_eq!(err.kind, AdapterErrorKind::Cycle);
        assert_eq!(err.line, 2);

        let self_ref =
            parse(r#"{"service":"a","span":"a1","name":"x","start":1,"parent":"a1"}"#).unwrap_err();
        assert_eq!(self_ref.kind, AdapterErrorKind::Cycle);
    }

    #[test]
    fn same_service_parent_after_child_contradicts_timestamps() {
        // The parent *starts after* its child on the same service:
        // program order says child first, the edge says parent first.
        let err = parse(
            r#"
            {"service": "s", "span": "child",  "name": "c", "start": 1, "parent": "par"}
            {"service": "s", "span": "par",    "name": "p", "start": 50}
            "#,
        )
        .unwrap_err();
        assert_eq!(err.kind, AdapterErrorKind::Cycle);
    }

    #[test]
    fn corrupt_lines_never_panic() {
        for bad in [
            r#"{"service": "a", "span": "a1", "name": "x""#, // truncated
            r#"{"service": "a", "span": "a1"}"#,             // missing fields
            r#"{"service": "a", "span": "a1", "name": "x", "start": -4}"#,
            r#"{"service": "a", "span": "a1", "name": "x", "start": 1.5}"#,
            r#"{"service": "", "span": "a1", "name": "x", "start": 1}"#,
            r#"{"service": "a", "span": "a1", "name": "x", "start": 1, "links": [3]}"#,
            "not json at all",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.kind, AdapterErrorKind::Syntax, "{bad}");
            assert_eq!(err.line, 1);
        }
    }

    #[test]
    fn duplicate_span_ids_rejected() {
        let err = parse(
            "{\"service\":\"a\",\"span\":\"d\",\"name\":\"x\",\"start\":1}\n\
             {\"service\":\"b\",\"span\":\"d\",\"name\":\"y\",\"start\":2}",
        )
        .unwrap_err();
        assert_eq!(err.kind, AdapterErrorKind::Syntax);
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn output_is_a_valid_linearization_with_fidge_clocks() {
        let out = parse(
            r#"
            {"service": "a", "span": "a1", "name": "w", "start": 1}
            {"service": "b", "span": "b1", "name": "x", "start": 1, "parent": "a1"}
            {"service": "a", "span": "a2", "name": "y", "start": 2, "links": ["b1"]}
            {"service": "c", "span": "c1", "name": "z", "start": 9, "parent": "a2"}
            "#,
        )
        .unwrap();
        // Fidge convention: own entry equals index (StampedEvent::new
        // inside the assigner already asserts this; double-check and
        // verify prefix-closedness of the linearization).
        let mut seen: Vec<u32> = vec![0; out.n_traces];
        for e in &out.events {
            assert_eq!(e.clock().entry(e.trace()), e.index());
            assert_eq!(seen[e.trace().as_usize()] + 1, e.index().get());
            for t in 0..out.n_traces {
                let t = TraceId::new(t as u32);
                assert!(
                    e.clock().entry(t).get() <= seen[t.as_usize()] + u32::from(t == e.trace()),
                    "event {e:?} depends on an unseen prefix"
                );
            }
            seen[e.trace().as_usize()] += 1;
        }
    }
}
