//! Replayable agent-session recording reader.
//!
//! # Format
//!
//! JSON-lines: one record per line (blank lines and `#` comments
//! skipped), appended in real time — so **file order is a valid
//! linearization** of the recorded computation, and every causal
//! reference points backwards. Fields:
//!
//! ```json
//! {"session": "s-main", "kind": "tool_call", "op": "kv_put",
//!  "id": "w1", "attr": "k=cart", "from": "m3"}
//! ```
//!
//! * `session` (string, required) — each distinct session is one
//!   trace.
//! * `kind` (string, required) — one of `message`, `tool_call`,
//!   `tool_result`, `spawn`.
//! * `op` (string, optional) — application-level operation name; when
//!   present it becomes the event *type* (so patterns match
//!   `[*, kv_put, *]`), otherwise the `kind` is the type.
//! * `id` (string, optional) — names this record so later records can
//!   reference it; unique across the recording.
//! * `from` (string, optional) — the `id` of an **earlier** record
//!   this one causally depends on (the reply to a message, the result
//!   of a tool call, the first record of a spawned session). Becomes
//!   a receive event joining that record's clock.
//! * `target` (string, required on `spawn`) — the session being
//!   spawned. The spawn event's *text* is the target's trace name
//!   (`"T4"`), so patterns can chain a spawner to the spawned
//!   session's events through one variable, exactly like the MPI
//!   deadlock patterns chain send destinations.
//! * `attr` (string, optional) — free-form attribute; becomes the
//!   event *text* (ignored on `spawn`, whose text is the target).
//!
//! # Causality synthesis
//!
//! Per-session program order is file order; every `from` reference is
//! one message edge (receive joins the referenced record's clock). A
//! `spawn` alone does **not** order the child after it — hand-off
//! causality is only recorded when the child's first record carries
//! `from` naming the spawn. That is deliberate: the adapter
//! materializes exactly the causality the recording asserts, nothing
//! more — which is precisely what lets the curated read-your-writes
//! pattern catch a hand-off that *failed* to carry causality (the
//! child's read stays concurrent with the parent's write).
//!
//! A `from` naming an undefined id is an orphan reference; naming a
//! *later* record violates replayability (`unmatched`); naming itself
//! is a cycle. All are line-diagnosed; corrupt input never panics.

use crate::emit::{Emitter, Interner, Sym};
use crate::error::{syn, too_many_records};
use crate::json::{self, Field, Value};
use crate::{record_hint, record_lines, MAX_RECORDS};
use crate::{Adapter, AdapterError, AdapterErrorKind, AdapterOutput, AdapterStats};
use ocep_vclock::TraceId;
use std::borrow::Cow;
use std::collections::HashMap;

/// The agent-session recording adapter (format name `session`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionAdapter;

/// No record is shorter than its required keys and a line break:
/// `{"session":"","kind":"message"}`.
const MIN_RECORD_BYTES: usize = 32;

/// The record fields the reader looks at, in [`json::scan`] order.
const FIELDS: [&str; 7] = ["session", "kind", "op", "target", "attr", "id", "from"];

/// An optional string field: absent and `null` are `None`; present, it
/// must be a non-empty string.
fn get_str<'a>(
    v: Field<'a>,
    field: &str,
    line: usize,
) -> Result<Option<Cow<'a, str>>, AdapterError> {
    match v {
        Some(Value::Str(s)) if !s.is_empty() => Ok(Some(s)),
        Some(Value::Str(_)) => Err(syn(line, format!("field `{field}` must be non-empty"))),
        Some(Value::Null) | None => Ok(None),
        Some(_) => Err(syn(line, format!("field `{field}` must be a string"))),
    }
}

struct Record {
    line: usize,
    trace: u32,
    ty: Sym,
    text: Sym,
    /// A message send: a `spawn`, or the target of a later `from`
    /// (unless it is a receive itself, which keeps its partner).
    send: bool,
    /// Index into `records` (and so output position) of the `from`
    /// target.
    from: Option<usize>,
}

impl Adapter for SessionAdapter {
    fn format(&self) -> &'static str {
        "session"
    }

    fn parse_str(&self, input: &str) -> Result<AdapterOutput, AdapterError> {
        let mut stats = AdapterStats::default();
        let mut traces = Interner::default();
        let mut strings = Interner::default();

        // ── Pass 1: parse records, resolve ids and references ───────
        let hint = record_hint(input, MIN_RECORD_BYTES);
        let mut records: Vec<Record> = Vec::with_capacity(hint);
        let mut id_of: HashMap<Cow<str>, usize> = HashMap::with_capacity(hint);
        // The first reference that could not be resolved yet: (line,
        // id). Diagnosed in pass 2.
        let mut unresolved: Option<(usize, Cow<str>)> = None;

        for (line, text) in record_lines(input, &mut stats.lines) {
            if records.len() >= MAX_RECORDS {
                return Err(too_many_records(line));
            }
            let [session, kind, op, target, attr, id, from] = json::scan(text, &FIELDS)
                .map_err(|(at, detail)| syn(line, format!("byte {at}: {detail}")))?;
            let session = get_str(session, "session", line)?
                .ok_or_else(|| syn(line, "missing required field `session`"))?;
            let kind = get_str(kind, "kind", line)?
                .ok_or_else(|| syn(line, "missing required field `kind`"))?;
            if !matches!(&*kind, "message" | "tool_call" | "tool_result" | "spawn") {
                return Err(syn(
                    line,
                    format!("unknown kind `{kind}` (message|tool_call|tool_result|spawn)"),
                ));
            }
            let spawn = kind == "spawn";
            let trace = traces.trace(&session, line, "session")?;
            let ty = strings.intern(&get_str(op, "op", line)?.unwrap_or(kind));
            let text = if spawn {
                let target = get_str(target, "target", line)?
                    .ok_or_else(|| syn(line, "`spawn` records require field `target`"))?;
                let target = TraceId::new(traces.trace(&target, line, "session")?);
                strings.intern(&target.to_string())
            } else {
                strings.intern(&get_str(attr, "attr", line)?.unwrap_or_default())
            };
            let ix = records.len();
            if let Some(id) = get_str(id, "id", line)? {
                if let Some(first) = id_of.insert(id.clone(), ix) {
                    let first = records[first].line;
                    let detail =
                        format!("duplicate record id `{id}` (first defined on line {first})");
                    return Err(syn(line, detail));
                }
            }
            let from = match get_str(from, "from", line)? {
                None => None,
                Some(fid) => match id_of.get(&fid) {
                    Some(&t) if t == ix => {
                        return Err(AdapterError::new(
                            AdapterErrorKind::Cycle,
                            line,
                            format!("record `{fid}` references itself"),
                        ));
                    }
                    Some(&t) => {
                        records[t].send = true;
                        Some(t)
                    }
                    None => {
                        // Defined later (forward ref) or never; pass 2
                        // tells them apart for the diagnostic.
                        unresolved.get_or_insert((line, fid));
                        None
                    }
                },
            };
            stats.records += 1;
            records.push(Record {
                line,
                trace,
                ty,
                text,
                send: spawn,
                from,
            });
        }

        // ── Pass 2: diagnose unresolved references ──────────────────
        if let Some((line, fid)) = unresolved {
            return Err(match id_of.get(&fid) {
                Some(&def) => AdapterError::new(
                    AdapterErrorKind::Unmatched,
                    line,
                    format!(
                        "forward causal reference: `from` names `{fid}`, defined later on \
                         line {} — a replayable recording logs causes before effects",
                        records[def].line
                    ),
                ),
                None => AdapterError::new(
                    AdapterErrorKind::OrphanRef,
                    line,
                    format!("`from` names `{fid}`, which no record defines"),
                ),
            });
        }

        // ── Pass 3: single-sweep clock synthesis in file order ──────
        let mut em = Emitter::new(traces.into_names(), strings, records.len());
        for r in &records {
            match r.from {
                Some(f) => {
                    stats.edges += 1;
                    em.receive(r.trace, f, r.ty, r.text)
                }
                None => em.local(r.trace, r.send, r.ty, r.text),
            };
        }
        Ok(em.finish(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adapter;
    use ocep_poet::EventKind;

    fn parse(input: &str) -> Result<AdapterOutput, AdapterError> {
        SessionAdapter.parse_str(input)
    }

    #[test]
    fn handoff_with_from_carries_causality() {
        let out = parse(
            r#"
            {"session": "parent", "kind": "tool_call", "op": "kv_put", "id": "w1", "attr": "k=cart"}
            {"session": "parent", "kind": "spawn", "target": "child", "id": "sp1"}
            {"session": "child", "kind": "message", "from": "sp1"}
            {"session": "child", "kind": "tool_call", "op": "kv_get", "attr": "k=cart"}
            "#,
        )
        .unwrap();
        assert_eq!(out.n_traces, 2);
        assert_eq!(out.trace_names, vec!["parent", "child"]);
        let put = out.events.iter().find(|e| e.ty() == "kv_put").unwrap();
        let get = out.events.iter().find(|e| e.ty() == "kv_get").unwrap();
        let spawn = out.events.iter().find(|e| e.ty() == "spawn").unwrap();
        assert_eq!(spawn.text(), "T1", "spawn text names the child trace");
        assert_eq!(spawn.kind(), EventKind::Send);
        assert!(put.stamp().happens_before(get.stamp()));
        assert_eq!(out.stats.edges, 1);
    }

    #[test]
    fn spawn_without_from_leaves_child_concurrent() {
        let out = parse(
            r#"
            {"session": "parent", "kind": "spawn", "target": "child", "id": "sp1"}
            {"session": "parent", "kind": "tool_call", "op": "kv_put", "attr": "k=cart"}
            {"session": "child", "kind": "tool_call", "op": "kv_get", "attr": "k=cart"}
            "#,
        )
        .unwrap();
        let put = out.events.iter().find(|e| e.ty() == "kv_put").unwrap();
        let get = out.events.iter().find(|e| e.ty() == "kv_get").unwrap();
        assert!(
            put.stamp().concurrent_with(get.stamp()),
            "no recorded hand-off edge: read and write stay concurrent"
        );
    }

    #[test]
    fn op_overrides_kind_as_event_type() {
        let out = parse(
            r#"
            {"session": "s", "kind": "message", "attr": "hello"}
            {"session": "s", "kind": "tool_call", "op": "bash_exec"}
            "#,
        )
        .unwrap();
        assert_eq!(out.events[0].ty(), "message");
        assert_eq!(out.events[0].text(), "hello");
        assert_eq!(out.events[1].ty(), "bash_exec");
    }

    #[test]
    fn forward_and_orphan_references_are_distinguished() {
        let fwd = parse(
            r#"
            {"session": "a", "kind": "message", "from": "later"}
            {"session": "a", "kind": "message", "id": "later"}
            "#,
        )
        .unwrap_err();
        assert_eq!(fwd.kind, AdapterErrorKind::Unmatched);
        assert_eq!(fwd.line, 2);
        assert!(fwd.to_string().contains("line 3"), "{fwd}");

        let orphan = parse(r#"{"session": "a", "kind": "message", "from": "ghost"}"#).unwrap_err();
        assert_eq!(orphan.kind, AdapterErrorKind::OrphanRef);

        let cycle =
            parse(r#"{"session": "a", "kind": "message", "id": "x", "from": "x"}"#).unwrap_err();
        assert_eq!(cycle.kind, AdapterErrorKind::Cycle);
    }

    #[test]
    fn malformed_records_never_panic() {
        for bad in [
            r#"{"session": "a"}"#,
            r#"{"kind": "message"}"#,
            r#"{"session": "a", "kind": "dance"}"#,
            r#"{"session": "a", "kind": "spawn"}"#,
            r#"{"session": "a", "kind": "message", "id": 7}"#,
            r#"{"session": "a", "kind": "#,
            r#"{"session": "", "kind": "message"}"#,
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.line, 1, "{bad}");
        }
        // Duplicate ids across lines.
        let err = parse(
            "{\"session\":\"a\",\"kind\":\"message\",\"id\":\"d\"}\n\
             {\"session\":\"a\",\"kind\":\"message\",\"id\":\"d\"}",
        )
        .unwrap_err();
        assert_eq!(err.kind, AdapterErrorKind::Syntax);
        assert_eq!(err.line, 2);
    }

    #[test]
    fn file_order_is_a_valid_linearization() {
        let out = parse(
            r#"
            {"session": "a", "kind": "message", "id": "m1"}
            {"session": "b", "kind": "message", "from": "m1", "id": "m2"}
            {"session": "c", "kind": "message", "from": "m2"}
            "#,
        )
        .unwrap();
        let mut seen: Vec<u32> = vec![0; out.n_traces];
        for e in &out.events {
            assert_eq!(e.clock().entry(e.trace()), e.index());
            for t in 0..out.n_traces {
                let t = TraceId::new(t as u32);
                assert!(e.clock().entry(t).get() <= seen[t.as_usize()] + u32::from(t == e.trace()));
            }
            seen[e.trace().as_usize()] += 1;
        }
        assert!(out.events[0].stamp().happens_before(out.events[2].stamp()));
    }
}
