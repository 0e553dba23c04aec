//! Monitor counters used by tests, benchmarks, and the ablation studies.

use crate::search::SearchStats;

/// Cumulative counters of a [`crate::Monitor`]'s work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MonitorStats {
    /// Events observed (all categories of §V-B).
    pub events: u64,
    /// Events stored into at least one leaf history.
    pub stored: u64,
    /// Terminating-event searches started (category iii arrivals).
    pub searches: u64,
    /// Complete matches found (before subset filtering).
    pub matches_found: u64,
    /// Matches actually reported to the caller.
    pub matches_reported: u64,
    /// Backtracking nodes explored across all searches.
    pub nodes: u64,
    /// Candidate events examined across all searches.
    pub candidates: u64,
    /// Fig 4 domain computations performed.
    pub domains: u64,
    /// Conflict-directed backjumps taken.
    pub backjumps: u64,
    /// Fig 5 jump bounds applied to fast-forward a candidate cursor.
    pub jump_bounds: u64,
    /// Complete assignments rejected by deferred (`~>`/compound-`->`)
    /// checks.
    pub deferred_rejections: u64,
    /// `Event` clones the zero-copy hot path skipped (assigned events are
    /// borrowed for the Fig 4 restriction rules instead of cloned).
    pub clones_avoided: u64,
    /// Timestamp-buffer bytes those skipped clones would have copied
    /// before clocks became `Arc`-shared.
    pub clone_bytes_avoided: u64,
}

impl MonitorStats {
    /// Folds one search's counters into the monitor totals.
    pub(crate) fn absorb_search(&mut self, s: &SearchStats) {
        self.nodes += s.nodes;
        self.candidates += s.candidates;
        self.domains += s.domains;
        self.backjumps += s.backjumps;
        self.jump_bounds += s.jump_bounds_applied;
        self.deferred_rejections += s.deferred_rejections;
        self.clones_avoided += s.clones_avoided;
        self.clone_bytes_avoided += s.clone_bytes_avoided;
    }

    /// Adds every counter of `other` into `self` (used to total a
    /// [`crate::MonitorSet`]).
    pub fn absorb(&mut self, other: &MonitorStats) {
        self.events += other.events;
        self.stored += other.stored;
        self.searches += other.searches;
        self.matches_found += other.matches_found;
        self.matches_reported += other.matches_reported;
        self.nodes += other.nodes;
        self.candidates += other.candidates;
        self.domains += other.domains;
        self.backjumps += other.backjumps;
        self.jump_bounds += other.jump_bounds;
        self.deferred_rejections += other.deferred_rejections;
        self.clones_avoided += other.clones_avoided;
        self.clone_bytes_avoided += other.clone_bytes_avoided;
    }
}

impl std::fmt::Display for MonitorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "events={} stored={} searches={} found={} reported={} nodes={} \
             candidates={} domains={} backjumps={} jump_bounds={} \
             deferred_rejections={} clones_avoided={} clone_bytes_avoided={}",
            self.events,
            self.stored,
            self.searches,
            self.matches_found,
            self.matches_reported,
            self.nodes,
            self.candidates,
            self.domains,
            self.backjumps,
            self.jump_bounds,
            self.deferred_rejections,
            self.clones_avoided,
            self.clone_bytes_avoided
        )
    }
}
