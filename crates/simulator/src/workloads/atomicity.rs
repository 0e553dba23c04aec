//! §V-C3: atomicity violations in a semaphore-protected method.
//!
//! A μC++-style program where `n_threads` threads repeatedly execute a
//! method protected by one semaphore. The semaphore is its own trace (as
//! the paper's μC++ POET plugin arranges), so correct executions causally
//! serialize every `enter_method`. The deliberate bug: with probability
//! `bug_prob` a thread's acquire "does not take effect" and the thread
//! enters unprotected — its `enter_method` is then concurrent with other
//! threads' entries, which is exactly what the pattern
//! `E1 || E2` over `enter_method` events detects.

use super::{Generated, Violation};
use crate::{Actor, Ctx, Message, SimKernel};
use ocep_poet::Event;
use ocep_vclock::TraceId;
use std::collections::VecDeque;

/// Parameters for the atomicity workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of worker threads; the semaphore adds one extra trace.
    pub n_threads: usize,
    /// Rounds (method executions) per thread.
    pub rounds_per_thread: usize,
    /// Probability a round skips the semaphore (the injected bug).
    pub bug_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n_threads: 9,
            rounds_per_thread: 40,
            bug_prob: 0.01,
            seed: 42,
        }
    }
}

/// The atomicity-violation pattern: two concurrent entries.
#[must_use]
pub fn atomicity_pattern() -> String {
    "E1 := [*, enter_method, *];\n\
     E2 := [*, enter_method, *];\n\
     pattern := E1 || E2;"
        .to_owned()
}

/// The semaphore actor: grants in FIFO order, one holder at a time.
struct Semaphore {
    holder: Option<TraceId>,
    queue: VecDeque<TraceId>,
}

impl Actor for Semaphore {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message, _recv: &Event) {
        match &*msg.ty {
            "sem_p" => {
                if self.holder.is_none() {
                    self.holder = Some(msg.from);
                    ctx.send(msg.from, "sem_grant", "");
                } else {
                    self.queue.push_back(msg.from);
                }
            }
            "sem_v" => {
                self.holder = self.queue.pop_front();
                if let Some(next) = self.holder {
                    ctx.send(next, "sem_grant", "");
                }
            }
            _ => {}
        }
    }
}

struct Thread {
    sem: TraceId,
    remaining: usize,
    bug_prob: f64,
    violations: std::rc::Rc<std::cell::RefCell<Vec<Violation>>>,
}

impl Thread {
    fn begin_round(&mut self, ctx: &mut Ctx<'_>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        ctx.local("compute", "");
        if ctx.chance(self.bug_prob) {
            // Failed acquire: enter unprotected.
            self.violations.borrow_mut().push(Violation {
                kind: "atomicity",
                traces: vec![ctx.me()],
            });
            ctx.local("enter_method", "protected");
            ctx.local("update_state", "");
            ctx.local("exit_method", "protected");
            // Move on to the next round via a self-tick so the kernel
            // interleaves other threads in between.
            ctx.send(ctx.me(), "tick", "");
        } else {
            ctx.send(self.sem, "sem_p", "");
        }
    }
}

impl Actor for Thread {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.begin_round(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message, _recv: &Event) {
        match &*msg.ty {
            "sem_grant" => {
                ctx.local("enter_method", "protected");
                ctx.local("update_state", "");
                ctx.local("exit_method", "protected");
                ctx.send(self.sem, "sem_v", "");
                ctx.send(ctx.me(), "tick", "");
            }
            "tick" => self.begin_round(ctx),
            _ => {}
        }
    }
}

/// Generates the workload.
///
/// # Panics
///
/// Panics if `n_threads < 2`.
#[must_use]
pub fn generate(params: &Params) -> Generated {
    assert!(
        params.n_threads >= 2,
        "atomicity needs at least two threads"
    );
    let n = params.n_threads + 1; // semaphore is the last trace
    let sem = TraceId::new(params.n_threads as u32);
    let violations = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut kernel = SimKernel::new(n, params.seed);
    for _ in 0..params.n_threads {
        kernel.add_actor(Thread {
            sem,
            remaining: params.rounds_per_thread,
            bug_prob: params.bug_prob,
            violations: std::rc::Rc::clone(&violations),
        });
    }
    kernel.add_actor(Semaphore {
        holder: None,
        queue: VecDeque::new(),
    });
    let poet = kernel.run(usize::MAX);
    let truth = std::rc::Rc::try_unwrap(violations)
        .expect("kernel dropped")
        .into_inner();
    Generated {
        poet,
        pattern_src: atomicity_pattern(),
        n_traces: n,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_compiles() {
        let p = ocep_pattern::Pattern::parse(&atomicity_pattern()).unwrap();
        assert_eq!(p.n_leaves(), 2);
        assert_eq!(p.terminating_leaves().len(), 2);
    }

    #[test]
    fn clean_run_serializes_all_entries() {
        let g = generate(&Params {
            bug_prob: 0.0,
            n_threads: 4,
            rounds_per_thread: 10,
            seed: 7,
        });
        assert!(g.truth.is_empty());
        // Every pair of enter_method events is causally ordered.
        let enters: Vec<_> = g
            .poet
            .store()
            .iter_arrival()
            .filter(|e| e.ty() == "enter_method")
            .collect();
        assert_eq!(enters.len(), 4 * 10);
        for i in 0..enters.len() {
            for j in i + 1..enters.len() {
                assert!(
                    !enters[i].stamp().concurrent_with(enters[j].stamp()),
                    "{} and {} concurrent in a clean run",
                    enters[i],
                    enters[j]
                );
            }
        }
    }

    #[test]
    fn buggy_rounds_create_concurrent_entries() {
        let g = generate(&Params {
            bug_prob: 0.3,
            n_threads: 4,
            rounds_per_thread: 15,
            seed: 3,
        });
        assert!(!g.truth.is_empty());
        let enters: Vec<_> = g
            .poet
            .store()
            .iter_arrival()
            .filter(|e| e.ty() == "enter_method")
            .collect();
        let concurrent_pair_exists = enters.iter().enumerate().any(|(i, a)| {
            enters[i + 1..]
                .iter()
                .any(|b| a.stamp().concurrent_with(b.stamp()))
        });
        assert!(concurrent_pair_exists);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&Params::default());
        let b = generate(&Params::default());
        assert!(a.poet.store().content_eq(b.poet.store()));
        assert_eq!(a.truth, b.truth);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn always_buggy_run_still_terminates() {
        let g = generate(&Params {
            n_threads: 3,
            rounds_per_thread: 5,
            bug_prob: 1.0,
            seed: 1,
        });
        assert_eq!(g.truth.len(), 3 * 5, "every round skips the semaphore");
    }

    #[test]
    fn zero_rounds_produce_no_method_entries() {
        let g = generate(&Params {
            n_threads: 2,
            rounds_per_thread: 0,
            bug_prob: 0.5,
            seed: 1,
        });
        assert!(g.truth.is_empty());
        assert!(g
            .poet
            .store()
            .iter_arrival()
            .all(|e| e.ty() != "enter_method"));
    }

    #[test]
    #[should_panic(expected = "at least two threads")]
    fn single_thread_rejected() {
        let _ = generate(&Params {
            n_threads: 1,
            ..Params::default()
        });
    }
}
