//! Wait-for dependency-graph deadlock detection — the §V-C1 comparator.
//!
//! The common alternative to event patterns for deadlock detection is to
//! "build a dependency graph and check for cycles" [Agarwal et al.]. The
//! implementations the paper compares against are not publicly available
//! (§V-D), so this module provides a faithful stand-in: it consumes the
//! same event stream as the OCEP monitor, maintains a wait-for graph
//! from blocking sends, and runs an explicit cycle search on every graph
//! change.

use ocep_poet::Event;
use ocep_vclock::TraceId;
use std::collections::HashMap;

/// A wait-for-graph deadlock detector over the tracer's event stream.
///
/// A `mpi_block_send` from `p` whose text names `q` adds the edge
/// `p -> q` ("p waits for q"); the matching receive (identified by the
/// partner id) removes it. After each added edge the detector searches
/// for a cycle through the new edge.
///
/// # Example
///
/// ```
/// use ocep_baselines::DepGraphDetector;
/// use ocep_poet::plugin::MpiPlugin;
/// use ocep_poet::PoetServer;
/// use ocep_vclock::TraceId;
///
/// let mut poet = PoetServer::new(2);
/// let mut mpi = MpiPlugin::new(&mut poet);
/// mpi.block_send(TraceId::new(0), TraceId::new(1));
/// mpi.block_send(TraceId::new(1), TraceId::new(0));
/// let mut det = DepGraphDetector::new(2);
/// let cycles: Vec<_> = poet
///     .linearization()
///     .filter_map(|e| det.observe(&e))
///     .collect();
/// assert_eq!(cycles.len(), 1);
/// assert_eq!(cycles[0].len(), 2);
/// ```
#[derive(Debug)]
pub struct DepGraphDetector {
    n_traces: usize,
    /// `edges[p]` — the traces p currently waits for, with the blocked
    /// send that created each edge.
    edges: Vec<HashMap<TraceId, ocep_vclock::EventId>>,
    cycles_found: u64,
}

impl DepGraphDetector {
    /// Creates a detector for `n_traces` traces.
    #[must_use]
    pub fn new(n_traces: usize) -> Self {
        DepGraphDetector {
            n_traces,
            edges: vec![HashMap::new(); n_traces],
            cycles_found: 0,
        }
    }

    /// Observes one event. Returns the cycle (as the list of waiting
    /// traces) if this event closed one.
    pub fn observe(&mut self, event: &Event) -> Option<Vec<TraceId>> {
        match event.ty() {
            "mpi_block_send" => {
                // A destination that names no monitored trace is ignored,
                // like a text that names no trace at all.
                let to = event
                    .text()
                    .parse::<TraceId>()
                    .ok()
                    .filter(|t| t.as_usize() < self.n_traces)?;
                let from = event.trace();
                self.edges[from.as_usize()].insert(to, event.id());
                self.find_cycle_through(from)
                    .inspect(|_| self.cycles_found += 1)
            }
            "mpi_recv" => {
                // A receive resolves the blocked send it partners.
                if let Some(partner) = event.partner() {
                    let from = partner.trace();
                    self.edges[from.as_usize()].retain(|_, send| *send != partner);
                }
                None
            }
            _ => None,
        }
    }

    /// DFS for a cycle containing `start`.
    fn find_cycle_through(&self, start: TraceId) -> Option<Vec<TraceId>> {
        let mut path: Vec<TraceId> = Vec::new();
        let mut visited = vec![false; self.n_traces];
        // Recursive DFS with an explicit path for cycle extraction.
        fn dfs(
            edges: &[HashMap<TraceId, ocep_vclock::EventId>],
            node: TraceId,
            start: TraceId,
            visited: &mut [bool],
            path: &mut Vec<TraceId>,
        ) -> bool {
            visited[node.as_usize()] = true;
            path.push(node);
            for &next in edges[node.as_usize()].keys() {
                if next == start {
                    return true;
                }
                if !visited[next.as_usize()] && dfs(edges, next, start, visited, path) {
                    return true;
                }
            }
            path.pop();
            false
        }
        if dfs(&self.edges, start, start, &mut visited, &mut path) {
            Some(path)
        } else {
            None
        }
    }

    /// Total cycles detected so far.
    #[must_use]
    pub fn cycles_found(&self) -> u64 {
        self.cycles_found
    }

    /// Current number of wait-for edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(HashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_poet::plugin::MpiPlugin;
    use ocep_poet::PoetServer;

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    #[test]
    fn three_cycle_detected_on_closing_edge() {
        let mut poet = PoetServer::new(3);
        let mut mpi = MpiPlugin::new(&mut poet);
        mpi.block_send(t(0), t(1));
        mpi.block_send(t(1), t(2));
        let mut det = DepGraphDetector::new(3);
        let mut cycles = Vec::new();
        for e in poet.linearization() {
            cycles.extend(det.observe(&e));
        }
        assert!(cycles.is_empty(), "no cycle yet");
        let mut mpi = MpiPlugin::new(&mut poet);
        mpi.block_send(t(2), t(0));
        for e in poet.linearization() {
            cycles.extend(det.observe(&e));
        }
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
    }

    #[test]
    fn resolved_wait_removes_edge() {
        let mut poet = PoetServer::new(2);
        let mut mpi = MpiPlugin::new(&mut poet);
        let s = mpi.block_send(t(0), t(1));
        let mut det = DepGraphDetector::new(2);
        for e in poet.linearization() {
            det.observe(&e);
        }
        assert_eq!(det.edge_count(), 1);
        // The neighbour finally receives: edge resolved.
        let mut mpi = MpiPlugin::new(&mut poet);
        mpi.recv(t(1), &s);
        for e in poet.linearization() {
            det.observe(&e);
        }
        assert_eq!(det.edge_count(), 0);
        // A later opposite block does not produce a false cycle.
        let mut mpi = MpiPlugin::new(&mut poet);
        mpi.block_send(t(1), t(0));
        let mut cycles = Vec::new();
        for e in poet.linearization() {
            cycles.extend(det.observe(&e));
        }
        assert!(cycles.is_empty());
    }

    #[test]
    fn destination_outside_the_traces_is_ignored() {
        let mut poet = PoetServer::new(2);
        poet.record(t(0), ocep_poet::EventKind::Send, "mpi_block_send", "T9");
        let mut det = DepGraphDetector::new(2);
        for e in poet.linearization() {
            assert!(det.observe(&e).is_none());
        }
        assert_eq!(det.edge_count(), 0);
    }

    #[test]
    fn only_canonical_trace_names_are_destinations() {
        // `T+1` and `T00` are not trace names, so these sends make no
        // T0 <-> T1 cycle.
        let mut poet = PoetServer::new(2);
        poet.record(t(0), ocep_poet::EventKind::Send, "mpi_block_send", "T+1");
        poet.record(t(1), ocep_poet::EventKind::Send, "mpi_block_send", "T00");
        let mut det = DepGraphDetector::new(2);
        for e in poet.linearization() {
            assert!(det.observe(&e).is_none());
        }
        assert_eq!(det.edge_count(), 0);
    }

    #[test]
    fn ignores_unrelated_events() {
        let mut poet = PoetServer::new(1);
        poet.record(t(0), ocep_poet::EventKind::Unary, "walk_step", "");
        let mut det = DepGraphDetector::new(1);
        for e in poet.linearization() {
            assert!(det.observe(&e).is_none());
        }
        assert_eq!(det.edge_count(), 0);
    }
}
