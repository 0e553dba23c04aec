//! §V-C1: a parallel random-walk application with injected blocking-send
//! deadlock cycles.
//!
//! The simulated application divides a domain among `n` processes in a
//! ring; each round every process advances its walkers (local
//! `walk_step` events) and exchanges boundary-crossing walkers with its
//! right neighbour (buffered `mpi_send`/`mpi_recv` pairs). The deliberate
//! bug of the paper — a blocking point-to-point send cycle that only
//! manifests "when the network cannot buffer the message completely" —
//! is injected with a per-round probability: a random set of `cycle_len`
//! processes each issue an `mpi_block_send` to the next process in the
//! cycle and stall. A later timeout round delivers the blocked messages
//! so the run continues (and subsequent episodes stay causally separated
//! from earlier ones).
//!
//! The detection pattern is the length-`cycle_len` cycle of pairwise
//! concurrent blocked sends chained through attribute variables — the
//! paper's "patterns can identify a deadlock of specific length".

use super::{Generated, Violation};
use ocep_poet::PoetServer;
use ocep_rng::Rng;
use ocep_vclock::TraceId;
use std::fmt::Write as _;

/// Parameters for the random-walk/deadlock workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of processes (traces).
    pub n_processes: usize,
    /// Number of exchange rounds to simulate.
    pub rounds: usize,
    /// Local walk steps per process per round.
    pub walk_steps: usize,
    /// Length of the injected deadlock cycle (= pattern length).
    pub cycle_len: usize,
    /// Per-round probability of injecting a deadlock episode.
    pub deadlock_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n_processes: 10,
            rounds: 200,
            walk_steps: 2,
            cycle_len: 3,
            deadlock_prob: 0.02,
            seed: 42,
        }
    }
}

/// The pattern source detecting a blocked-send cycle of length `k`:
/// classes `S0..Sk-1` with destinations chained by attribute variables,
/// all pairwise concurrent.
#[must_use]
pub fn cycle_pattern(k: usize) -> String {
    assert!(k >= 2, "a deadlock cycle needs at least two processes");
    let mut src = String::new();
    for i in 0..k {
        let _ = writeln!(src, "S{i} := [$p{i}, mpi_block_send, $p{}];", (i + 1) % k);
    }
    for i in 0..k {
        let _ = writeln!(src, "S{i} $s{i};");
    }
    src.push_str("pattern := ");
    let mut first = true;
    for i in 0..k {
        for j in i + 1..k {
            if !first {
                src.push_str(" && ");
            }
            first = false;
            let _ = write!(src, "$s{i} || $s{j}");
        }
    }
    src.push(';');
    src
}

/// Generates the workload.
///
/// # Panics
///
/// Panics if `cycle_len` exceeds `n_processes` or is below 2.
#[must_use]
pub fn generate(params: &Params) -> Generated {
    assert!(params.cycle_len >= 2);
    assert!(params.cycle_len <= params.n_processes);
    let n = params.n_processes;
    let mut rng = Rng::seed_from_u64(params.seed);
    let mut poet = PoetServer::new(n);
    let names: Vec<String> = (0..n as u32).map(|p| TraceId::new(p).to_string()).collect();
    let mut truth = Vec::new();
    // Blocked sends from the previous episode, delivered (timeout) a
    // round later so the computation proceeds and future episodes are
    // causally separated from this one.
    let mut pending_timeouts: Vec<(TraceId, ocep_vclock::EventId)> = Vec::new();

    for _round in 0..params.rounds {
        // Resolve the previous episode's blocked messages first.
        for (to, send) in pending_timeouts.drain(..) {
            poet.record_receive_id(to, send, "mpi_recv", "timeout");
        }

        // Local walker movement.
        for p in 0..n {
            for _ in 0..params.walk_steps {
                poet.record_id(
                    TraceId::new(p as u32),
                    ocep_poet::EventKind::Unary,
                    "walk_step",
                    "",
                );
            }
        }

        // Possibly inject a deadlock episode.
        if rng.gen_bool(params.deadlock_prob) {
            let mut procs: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut procs);
            procs.truncate(params.cycle_len);
            for (i, &p) in procs.iter().enumerate() {
                let next = procs[(i + 1) % procs.len()];
                let send = poet.record_id(
                    TraceId::new(p),
                    ocep_poet::EventKind::Send,
                    "mpi_block_send",
                    &names[next as usize],
                );
                pending_timeouts.push((TraceId::new(next), send));
            }
            truth.push(Violation {
                kind: "deadlock",
                traces: procs.iter().map(|&p| TraceId::new(p)).collect(),
            });
        }

        // Normal buffered boundary exchange around the ring.
        let mut sends = Vec::with_capacity(n);
        for p in 0..n {
            let to = TraceId::new(((p + 1) % n) as u32);
            let s = poet.record_id(
                TraceId::new(p as u32),
                ocep_poet::EventKind::Send,
                "mpi_send",
                &names[to.as_usize()],
            );
            sends.push((to, s));
        }
        for (to, s) in sends {
            poet.record_receive_id(to, s, "mpi_recv", "walkers");
        }
    }

    Generated {
        poet,
        pattern_src: cycle_pattern(params.cycle_len),
        n_traces: n,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_pattern_compiles_for_various_lengths() {
        for k in 2..=6 {
            let p = ocep_pattern::Pattern::parse(&cycle_pattern(k)).unwrap();
            assert_eq!(p.n_leaves(), k);
            // Pure concurrency: every leaf is terminating.
            assert_eq!(p.terminating_leaves().len(), k);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&Params::default());
        let b = generate(&Params::default());
        assert!(a.poet.store().content_eq(b.poet.store()));
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn episodes_record_blocked_cycles() {
        let params = Params {
            deadlock_prob: 0.5,
            rounds: 40,
            ..Params::default()
        };
        let g = generate(&params);
        assert!(!g.truth.is_empty());
        for v in &g.truth {
            assert_eq!(v.kind, "deadlock");
            assert_eq!(v.traces.len(), params.cycle_len);
        }
        // Blocked sends exist in the stream.
        let blocks = g
            .poet
            .store()
            .iter_arrival()
            .filter(|e| e.ty() == "mpi_block_send")
            .count();
        assert_eq!(blocks, g.truth.len() * params.cycle_len);
    }

    #[test]
    fn no_injection_means_no_blocked_sends() {
        let g = generate(&Params {
            deadlock_prob: 0.0,
            ..Params::default()
        });
        assert!(g.truth.is_empty());
        assert!(g
            .poet
            .store()
            .iter_arrival()
            .all(|e| e.ty() != "mpi_block_send"));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn minimal_cycle_and_full_participation() {
        // cycle_len == n_processes: every process blocks.
        let g = generate(&Params {
            n_processes: 3,
            cycle_len: 3,
            rounds: 10,
            deadlock_prob: 1.0,
            walk_steps: 0,
            seed: 1,
        });
        assert_eq!(g.truth.len(), 10);
        for v in &g.truth {
            let mut traces: Vec<_> = v.traces.clone();
            traces.sort();
            traces.dedup();
            assert_eq!(traces.len(), 3, "participants must be distinct");
        }
    }

    #[test]
    #[should_panic]
    fn cycle_longer_than_processes_rejected() {
        let _ = generate(&Params {
            n_processes: 2,
            cycle_len: 3,
            ..Params::default()
        });
    }

    #[test]
    fn zero_rounds_is_an_empty_computation() {
        let g = generate(&Params {
            rounds: 0,
            ..Params::default()
        });
        assert!(g.poet.store().is_empty());
        assert!(g.truth.is_empty());
    }
}
