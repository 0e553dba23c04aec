//! §V-C2: message races into an `MPI_ANY_SOURCE` receiver.
//!
//! All processes but one concurrently send to the remaining process,
//! which accepts them with a blocking wildcard receive — the paper's
//! benchmark program. Two incoming messages race when their sends are
//! concurrent; the receiver's ack after each receive causally orders a
//! sender's *next* message after everything received so far, so races
//! occur within the in-flight window, as in a real MPI run.
//!
//! The detection pattern is the paper's vector-timestamp criterion
//! ("if any two incoming messages to a process are concurrent then the
//! two messages race") expressed causally: two receives on one process
//! whose partner sends are concurrent.

use super::{Generated, Violation};
use crate::{Actor, Ctx, Message, SimKernel};
use ocep_poet::Event;
use ocep_vclock::TraceId;

/// Parameters for the message-race workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Total processes; process 0 is the receiver, the rest send.
    pub n_processes: usize,
    /// Messages each sender transmits.
    pub messages_per_sender: usize,
    /// RNG seed (controls delivery interleaving).
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n_processes: 10,
            messages_per_sender: 50,
            seed: 42,
        }
    }
}

/// The race-detection pattern source.
#[must_use]
pub fn race_pattern() -> String {
    "S1 := [*, mpi_send, *];\n\
     S2 := [*, mpi_send, *];\n\
     R1 := [$p, mpi_recv, *];\n\
     R2 := [$p, mpi_recv, *];\n\
     S1 $s1; S2 $s2;\n\
     pattern := $s1 <> R1 && $s2 <> R2 && $s1 || $s2;"
        .to_owned()
}

struct Receiver;

impl Actor for Receiver {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message, _recv: &Event) {
        if &*msg.ty == "mpi_recv" {
            // Accept (wildcard receive) and ack so the sender may proceed.
            ctx.send_typed(msg.from, "ack", "ack", "");
        }
    }
}

struct Sender {
    receiver: TraceId,
    remaining: usize,
}

impl Sender {
    fn transmit(&mut self, ctx: &mut Ctx<'_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.local("prepare", "");
            ctx.send_typed(self.receiver, "mpi_send", "mpi_recv", "payload");
        }
    }
}

impl Actor for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.transmit(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message, _recv: &Event) {
        if &*msg.ty == "ack" {
            self.transmit(ctx);
        }
    }
}

/// Generates the workload and computes the exact ground truth (all pairs
/// of racing messages) from the recorded vector timestamps — the same
/// criterion the pattern expresses.
///
/// # Panics
///
/// Panics if `n_processes < 3` (a race needs two senders).
#[must_use]
pub fn generate(params: &Params) -> Generated {
    assert!(params.n_processes >= 3, "need at least two senders");
    let n = params.n_processes;
    let mut kernel = SimKernel::new(n, params.seed);
    kernel.add_actor(Receiver);
    for _ in 1..n {
        kernel.add_actor(Sender {
            receiver: TraceId::new(0),
            remaining: params.messages_per_sender,
        });
    }
    let poet = kernel.run(usize::MAX);

    // Ground truth: every pair of receives on T0 whose partner sends are
    // concurrent.
    let store = poet.store();
    let recvs: Vec<&Event> = store
        .trace_events(TraceId::new(0))
        .iter()
        .filter(|e| e.ty() == "mpi_recv")
        .collect();
    let mut truth = Vec::new();
    for i in 0..recvs.len() {
        for j in i + 1..recvs.len() {
            let si = store
                .get(recvs[i].partner().expect("recv has partner"))
                .unwrap();
            let sj = store
                .get(recvs[j].partner().expect("recv has partner"))
                .unwrap();
            if si.stamp().concurrent_with(sj.stamp()) {
                truth.push(Violation {
                    kind: "race",
                    traces: vec![si.trace(), sj.trace()],
                });
            }
        }
    }

    Generated {
        poet,
        pattern_src: race_pattern(),
        n_traces: n,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_compiles() {
        let p = ocep_pattern::Pattern::parse(&race_pattern()).unwrap();
        assert_eq!(p.n_leaves(), 4);
        // R1, R2 are the terminating leaves (sends precede receives).
        assert_eq!(p.terminating_leaves().len(), 2);
    }

    #[test]
    fn races_exist_between_different_senders_only() {
        let g = generate(&Params {
            n_processes: 4,
            messages_per_sender: 10,
            seed: 1,
        });
        assert!(!g.truth.is_empty(), "concurrent senders must race");
        for v in &g.truth {
            assert_ne!(v.traces[0], v.traces[1], "a sender cannot race itself");
        }
    }

    #[test]
    fn acks_serialize_a_single_sender() {
        // With one sender there is no race at all.
        let g = generate(&Params {
            n_processes: 3,
            messages_per_sender: 10,
            seed: 1,
        });
        // Two senders: races only between them.
        for v in &g.truth {
            assert_ne!(v.traces[0], v.traces[1]);
        }
        let _ = g;
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&Params::default());
        let b = generate(&Params::default());
        assert!(a.poet.store().content_eq(b.poet.store()));
        assert_eq!(a.truth.len(), b.truth.len());
    }

    #[test]
    fn all_messages_delivered() {
        let p = Params {
            n_processes: 5,
            messages_per_sender: 7,
            seed: 3,
        };
        let g = generate(&p);
        let recvs = g
            .poet
            .store()
            .trace_events(TraceId::new(0))
            .iter()
            .filter(|e| e.ty() == "mpi_recv")
            .count();
        assert_eq!(recvs, 4 * 7);
    }
}
