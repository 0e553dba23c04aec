//! A self-contained fuzz case: a pattern source plus an execution
//! described as an arrival-ordered action list.
//!
//! The action list is the shrinkable representation: dropping actions
//! or whole traces and replaying through a fresh [`PoetServer`]
//! re-derives all vector timestamps, so a shrunk case is always a
//! *valid* execution (never a hand-edited, inconsistent one).

use ocep_poet::{EventKind, PoetServer, TraceStore};
use ocep_vclock::TraceId;

/// One recorded step of an execution, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// A unary (purely local) event.
    Local {
        /// Trace the event occurs on.
        trace: u32,
        /// Event type attribute.
        ty: String,
        /// Event text attribute.
        text: String,
    },
    /// A send event (possibly never received — e.g. a blocked send).
    Send {
        /// Trace the send occurs on.
        trace: u32,
        /// Event type attribute.
        ty: String,
        /// Event text attribute.
        text: String,
    },
    /// A receive joining the send at arrival position `sender`.
    Receive {
        /// Trace the receive occurs on.
        trace: u32,
        /// Arrival index of the matching [`Action::Send`].
        sender: usize,
        /// Event type attribute.
        ty: String,
        /// Event text attribute.
        text: String,
    },
}

impl Action {
    /// The trace this action records on.
    #[must_use]
    pub fn trace(&self) -> u32 {
        match self {
            Action::Local { trace, .. }
            | Action::Send { trace, .. }
            | Action::Receive { trace, .. } => *trace,
        }
    }
}

/// A (pattern, execution) pair — the unit the differential executor
/// checks and the shrinker minimizes.
#[derive(Debug, Clone)]
pub struct Case {
    /// Pattern program source.
    pub pattern_src: String,
    /// Number of traces in the execution.
    pub n_traces: usize,
    /// The execution, in arrival order.
    pub actions: Vec<Action>,
}

impl Case {
    /// Replays the action list through a fresh tracer, re-deriving all
    /// vector timestamps.
    ///
    /// # Panics
    ///
    /// Panics if an action names an out-of-range trace or a receive
    /// references a non-send / later action — the constructors uphold
    /// these invariants.
    #[must_use]
    pub fn build(&self) -> PoetServer {
        let mut poet = PoetServer::new(self.n_traces);
        let mut ids = Vec::with_capacity(self.actions.len());
        for (i, a) in self.actions.iter().enumerate() {
            let id = match a {
                Action::Local { trace, ty, text } => poet.record_id(
                    TraceId::new(*trace),
                    EventKind::Unary,
                    ty.as_str(),
                    text.as_str(),
                ),
                Action::Send { trace, ty, text } => poet.record_id(
                    TraceId::new(*trace),
                    EventKind::Send,
                    ty.as_str(),
                    text.as_str(),
                ),
                Action::Receive {
                    trace,
                    sender,
                    ty,
                    text,
                } => {
                    assert!(*sender < i, "receive references a later action");
                    poet.record_receive_id(
                        TraceId::new(*trace),
                        ids[*sender],
                        ty.as_str(),
                        text.as_str(),
                    )
                }
            };
            ids.push(id);
        }
        poet
    }

    /// Reconstructs the action list from a recorded store (the inverse
    /// of [`Case::build`] up to event identity).
    #[must_use]
    pub fn from_store(pattern_src: String, store: &TraceStore) -> Self {
        let mut pos = std::collections::HashMap::new();
        let mut actions = Vec::with_capacity(store.len());
        for (i, e) in store.iter_arrival().enumerate() {
            pos.insert(e.id(), i);
            let (trace, ty, text) = (e.trace().as_u32(), e.ty().to_owned(), e.text().to_owned());
            actions.push(match e.kind() {
                EventKind::Unary => Action::Local { trace, ty, text },
                EventKind::Send => Action::Send { trace, ty, text },
                EventKind::Receive => Action::Receive {
                    trace,
                    sender: pos[&e.partner().expect("receives have partners")],
                    ty,
                    text,
                },
            });
        }
        Case {
            pattern_src,
            n_traces: store.n_traces(),
            actions,
        }
    }

    /// Returns a copy with the marked actions removed. Receives whose
    /// send is dropped are dropped too (transitively safe because a
    /// sender always precedes its receive in arrival order).
    #[must_use]
    pub fn drop_actions(&self, drop: &[bool]) -> Self {
        assert_eq!(drop.len(), self.actions.len());
        let mut kept_at: Vec<Option<usize>> = Vec::with_capacity(self.actions.len());
        let mut actions = Vec::new();
        for (i, a) in self.actions.iter().enumerate() {
            if drop[i] {
                kept_at.push(None);
                continue;
            }
            let keep = match a {
                Action::Receive { sender, .. } => kept_at[*sender].is_some(),
                _ => true,
            };
            if !keep {
                kept_at.push(None);
                continue;
            }
            let mut a = a.clone();
            if let Action::Receive { sender, .. } = &mut a {
                *sender = kept_at[*sender].expect("checked above");
            }
            kept_at.push(Some(actions.len()));
            actions.push(a);
        }
        Case {
            pattern_src: self.pattern_src.clone(),
            n_traces: self.n_traces,
            actions,
        }
    }

    /// Returns a copy with trace `t` removed entirely (its events, and
    /// any receive of a dropped send), renumbering the traces above it.
    /// Returns `None` when only one trace is left.
    #[must_use]
    pub fn drop_trace(&self, t: u32) -> Option<Self> {
        if self.n_traces <= 1 {
            return None;
        }
        let drop: Vec<bool> = self.actions.iter().map(|a| a.trace() == t).collect();
        let mut out = self.drop_actions(&drop);
        for a in &mut out.actions {
            match a {
                Action::Local { trace, .. }
                | Action::Send { trace, .. }
                | Action::Receive { trace, .. } => {
                    if *trace > t {
                        *trace -= 1;
                    }
                }
            }
        }
        out.n_traces = self.n_traces - 1;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Case {
        Case {
            pattern_src: "A := [*, 'a', *]; B := [*, 'b', *]; pattern := (A -> B);".into(),
            n_traces: 3,
            actions: vec![
                Action::Local {
                    trace: 0,
                    ty: "a".into(),
                    text: "".into(),
                },
                Action::Send {
                    trace: 0,
                    ty: "a".into(),
                    text: "m".into(),
                },
                Action::Receive {
                    trace: 2,
                    sender: 1,
                    ty: "b".into(),
                    text: "m".into(),
                },
                Action::Local {
                    trace: 1,
                    ty: "c".into(),
                    text: "".into(),
                },
            ],
        }
    }

    #[test]
    fn build_round_trips_through_from_store() {
        let case = sample();
        let poet = case.build();
        let back = Case::from_store(case.pattern_src.clone(), poet.store());
        assert_eq!(back.actions, case.actions);
        assert_eq!(back.n_traces, case.n_traces);
    }

    #[test]
    fn dropping_a_send_cascades_to_its_receive() {
        let case = sample();
        let drop = vec![false, true, false, false];
        let out = case.drop_actions(&drop);
        assert_eq!(out.actions.len(), 2, "send and its receive both gone");
        assert!(out
            .actions
            .iter()
            .all(|a| !matches!(a, Action::Receive { .. })));
        // The shrunk case still replays cleanly.
        assert_eq!(out.build().store().len(), 2);
    }

    #[test]
    fn drop_trace_renumbers() {
        let case = sample();
        let out = case.drop_trace(1).unwrap();
        assert_eq!(out.n_traces, 2);
        // Trace 2 became trace 1; trace 0 unchanged.
        assert!(out.actions.iter().all(|a| a.trace() <= 1));
        assert_eq!(out.build().store().len(), 3);
    }

    #[test]
    fn drop_last_trace_refused() {
        let case = Case {
            pattern_src: String::new(),
            n_traces: 1,
            actions: vec![],
        };
        assert!(case.drop_trace(0).is_none());
    }
}
