//! §III-D / §V-C4: the leader/follower stale-snapshot ordering bug
//! (modelled on ZooKeeper bug #962).
//!
//! One leader serves a replicated service; followers periodically
//! restart and send synchronization requests. On a synch the leader
//! takes a snapshot and forwards it to the follower. The deliberate bug:
//! with probability `bug_prob` the leader is not blocked from making an
//! update *between* taking the snapshot and forwarding it — the follower
//! then receives stale service data. The §III-D pattern with attribute
//! and event variables detects exactly the buggy rounds and identifies
//! the victim follower.

use super::{Generated, Violation};
use crate::{Actor, Ctx, Message, SimKernel};
use ocep_poet::Event;
use ocep_vclock::TraceId;

/// Parameters for the replicated-service workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of followers; the leader adds one trace (trace 0).
    pub n_followers: usize,
    /// Synch rounds each follower performs.
    pub synchs_per_follower: usize,
    /// Probability a synch round hits the ordering bug.
    pub bug_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n_followers: 9,
            synchs_per_follower: 30,
            bug_prob: 0.01,
            seed: 42,
        }
    }
}

/// The §III-D ordering-bug pattern.
///
/// `$f` binds the *round token* (`T3#r5`) the follower put into its synch
/// request; the leader stamps the snapshot and the forwarded message with
/// the same token, so the pattern correlates exactly one synch round —
/// matching across rounds (a snapshot from an old round followed by any
/// later update) would be a false alarm. The final event is the
/// follower's receive of the snapshot, so a match names the victim trace.
#[must_use]
pub fn ordering_pattern() -> String {
    "Synch    := [$l, synch_leader, $f];\n\
     Snapshot := [$l, take_snapshot, $f];\n\
     Update   := [$l, make_update, *];\n\
     Receive  := [*, recv_snapshot, $f];\n\
     Snapshot $diff;\n\
     Update $write;\n\
     pattern := (Synch -> $diff) && ($diff -> $write) && ($write -> Receive);"
        .to_owned()
}

struct Leader {
    bug_prob: f64,
    update_seq: u64,
    violations: std::rc::Rc<std::cell::RefCell<Vec<Violation>>>,
}

impl Actor for Leader {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.local("leader_boot", "");
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message, _recv: &Event) {
        if &*msg.ty != "synch_leader" {
            return;
        }
        let follower = msg.from;
        let token = msg.payload.clone();
        // Healthy background update, causally before the snapshot.
        self.update_seq += 1;
        ctx.local("make_update", &format!("seq={}", self.update_seq));
        ctx.local("take_snapshot", &token);
        if ctx.chance(self.bug_prob) {
            // The bug: the leader is not blocked from updating after the
            // snapshot — the forwarded snapshot is stale.
            self.update_seq += 1;
            ctx.local("make_update", &format!("seq={}", self.update_seq));
            self.violations.borrow_mut().push(Violation {
                kind: "ordering",
                traces: vec![ctx.me(), follower],
            });
        }
        ctx.send_with_text(
            follower,
            "forward_snapshot",
            "recv_snapshot",
            &token,
            &token,
        );
    }
}

struct Follower {
    leader: TraceId,
    remaining: usize,
    round: usize,
}

impl Follower {
    fn resync(&mut self, ctx: &mut Ctx<'_>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.round += 1;
        ctx.local("follower_restart", "");
        // The payload is a unique round token ("T3#r5"); the leader's
        // receive event carries it in its text attribute ($f), and the
        // leader stamps the whole round with it.
        let token = format!("{}#r{}", ctx.me(), self.round);
        ctx.send_typed(self.leader, "synch_request", "synch_leader", &token);
    }
}

impl Actor for Follower {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.resync(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message, _recv: &Event) {
        if &*msg.ty == "recv_snapshot" {
            ctx.local("apply_snapshot", "");
            self.resync(ctx);
        }
    }
}

/// Generates the workload.
///
/// # Panics
///
/// Panics if `n_followers` is zero.
#[must_use]
pub fn generate(params: &Params) -> Generated {
    assert!(params.n_followers >= 1);
    let n = params.n_followers + 1;
    let violations = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut kernel = SimKernel::new(n, params.seed);
    kernel.add_actor(Leader {
        bug_prob: params.bug_prob,
        update_seq: 0,
        violations: std::rc::Rc::clone(&violations),
    });
    for _ in 0..params.n_followers {
        kernel.add_actor(Follower {
            leader: TraceId::new(0),
            remaining: params.synchs_per_follower,
            round: 0,
        });
    }
    let poet = kernel.run(usize::MAX);
    let truth = std::rc::Rc::try_unwrap(violations)
        .expect("kernel dropped")
        .into_inner();
    Generated {
        poet,
        pattern_src: ordering_pattern(),
        n_traces: n,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_compiles_with_variables() {
        let p = ocep_pattern::Pattern::parse(&ordering_pattern()).unwrap();
        assert_eq!(p.n_leaves(), 4);
        assert_eq!(p.n_vars(), 2); // $l, $f
                                   // Forward is the single terminating leaf.
        assert_eq!(p.terminating_leaves().len(), 1);
    }

    #[test]
    fn clean_run_has_no_post_snapshot_updates() {
        let g = generate(&Params {
            bug_prob: 0.0,
            n_followers: 3,
            synchs_per_follower: 8,
            seed: 9,
        });
        assert!(g.truth.is_empty());
        // On the leader trace, no make_update between a take_snapshot and
        // the next forward of that snapshot.
        let leader_events = g.poet.store().trace_events(TraceId::new(0));
        let mut in_round = false;
        for e in leader_events.iter() {
            match e.ty() {
                "take_snapshot" => in_round = true,
                "forward_snapshot" => in_round = false,
                "make_update" => assert!(!in_round, "update inside a synch round"),
                _ => {}
            }
        }
    }

    #[test]
    fn buggy_rounds_are_recorded_with_victims() {
        let g = generate(&Params {
            bug_prob: 0.4,
            n_followers: 4,
            synchs_per_follower: 10,
            seed: 5,
        });
        assert!(!g.truth.is_empty());
        for v in &g.truth {
            assert_eq!(v.kind, "ordering");
            assert_eq!(v.traces[0], TraceId::new(0), "leader first");
            assert_ne!(v.traces[1], TraceId::new(0), "victim is a follower");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&Params::default());
        let b = generate(&Params::default());
        assert!(a.poet.store().content_eq(b.poet.store()));
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn every_synch_is_served() {
        let g = generate(&Params {
            bug_prob: 0.1,
            n_followers: 3,
            synchs_per_follower: 6,
            seed: 2,
        });
        let forwards = g
            .poet
            .store()
            .trace_events(TraceId::new(0))
            .iter()
            .filter(|e| e.ty() == "forward_snapshot")
            .count();
        assert_eq!(forwards, 3 * 6);
    }
}
