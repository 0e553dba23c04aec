//! The counter catalogues: every work and admission counter is declared
//! once, as one row saying where it goes in every output.
//!
//! A row holds the counter's key in the `key=value` stats line, its
//! metric family, labels and kind, and the family's help text; the row's
//! position is the counter's word in OCKP/OCKS checkpoints. The stats
//! line, [`MetricsSnapshot::record`](crate::MetricsSnapshot::record), the
//! checkpoint codec and the simulator's digest loop over the rows, so
//! none of them spells out a field list. [`MonitorStats`] is catalogued
//! here, [`IngestStats`](crate::IngestStats) in `ingest.rs`.
//!
//! To add a counter, add its field and row at the end of the block's
//! `counters!` declaration, and bump the version of the format that
//! stores the block (OCKP for `MonitorStats`, OCKS for `IngestStats`) in
//! the same change: the new row is a new checkpoint word.

use crate::obs::MetricKind;

/// Where one counter goes in every output: one row of a catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRow {
    /// Key in the `key=value` stats line. Adjacent rows with one key
    /// print as their sum; `None` keeps the counter off the line.
    pub key: Option<&'static str>,
    /// Metric family the counter is one sample of.
    pub family: &'static str,
    /// The sample's labels within its family (empty when unlabelled).
    pub labels: &'static [(&'static str, &'static str)],
    /// [`MetricKind::Counter`] or [`MetricKind::Gauge`].
    pub kind: MetricKind,
    /// The family's help text.
    pub help: &'static str,
}

impl CounterRow {
    /// An unlabelled counter family of its own, on the stats line.
    #[must_use]
    pub(crate) const fn total(key: &'static str, family: &'static str, help: &'static str) -> Self {
        CounterRow {
            key: Some(key),
            family,
            labels: &[],
            kind: MetricKind::Counter,
            help,
        }
    }
}

/// A block of `u64` counters described by one catalogue, read and
/// written by position.
pub trait CounterBlock: Default {
    /// One row per field, in field (and checkpoint) order.
    const CATALOGUE: &'static [CounterRow];

    /// Every counter's value, in catalogue order.
    fn values(&self) -> impl Iterator<Item = u64>;

    /// Every counter, writable, in catalogue order.
    fn fields_mut(&mut self) -> impl Iterator<Item = &mut u64>;

    /// Adds every counter of `other` into the same counter of `self`
    /// (totals a [`crate::MonitorSet`] and folds a search into its
    /// monitor).
    fn absorb(&mut self, other: &Self) {
        for (mine, theirs) in self.fields_mut().zip(other.values()) {
            *mine += theirs;
        }
    }
}

/// Writes `block`'s `key=value` stats line: one entry per key, in row
/// order, adjacent rows with one key summed.
pub(crate) fn write_line<B: CounterBlock>(
    block: &B,
    f: &mut std::fmt::Formatter<'_>,
) -> std::fmt::Result {
    let mut line: Vec<(&str, u64)> = Vec::new();
    for (row, v) in B::CATALOGUE.iter().zip(block.values()) {
        let Some(key) = row.key else { continue };
        match line.last_mut() {
            Some((k, sum)) if *k == key => *sum += v,
            _ => line.push((key, v)),
        }
    }
    for (i, (key, v)) in line.iter().enumerate() {
        let sep = if i == 0 { "" } else { " " };
        write!(f, "{sep}{key}={v}")?;
    }
    Ok(())
}

/// Declares a counter block: a struct of public `u64` fields, each
/// with its catalogue row, implementing [`CounterBlock`] and printing
/// its stats line as `Display`.
macro_rules! counters {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $( $(#[$field_attr:meta])* $field:ident: $row:expr, )*
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $( $(#[$field_attr])* pub $field: u64, )*
        }

        impl $crate::stats::CounterBlock for $name {
            const CATALOGUE: &'static [$crate::stats::CounterRow] = &[$($row),*];

            fn values(&self) -> impl Iterator<Item = u64> {
                [$(self.$field),*].into_iter()
            }

            fn fields_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$(&mut self.$field),*].into_iter()
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                $crate::stats::write_line(self, f)
            }
        }
    };
}
pub(crate) use counters;

counters! {
    /// Cumulative counters of a [`crate::Monitor`]'s work; `Display`
    /// prints the `events=N stored=N …` stats line.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct MonitorStats {
        /// Events observed (all categories of §V-B).
        events: CounterRow::total(
            "events",
            "ocep_events_total",
            "Events observed (§V-B arrivals).",
        ),
        /// Events stored into at least one leaf history.
        stored: CounterRow::total(
            "stored",
            "ocep_stored_total",
            "Events stored into at least one leaf history.",
        ),
        /// Terminating-event searches started (category iii arrivals).
        searches: CounterRow::total(
            "searches",
            "ocep_searches_total",
            "Terminating-event searches started.",
        ),
        /// Complete matches found (before subset filtering).
        matches_found: CounterRow::total(
            "found",
            "ocep_matches_found_total",
            "Complete matches found before subset filtering.",
        ),
        /// Matches actually reported to the caller.
        matches_reported: CounterRow::total(
            "reported",
            "ocep_matches_reported_total",
            "Matches reported to the caller.",
        ),
        /// Backtracking nodes explored across all searches.
        nodes: CounterRow::total(
            "nodes",
            "ocep_search_nodes_total",
            "Backtracking nodes explored.",
        ),
        /// Candidate events examined across all searches.
        candidates: CounterRow::total(
            "candidates",
            "ocep_search_candidates_total",
            "Candidate events examined.",
        ),
        /// Fig 4 domain computations performed.
        domains: CounterRow::total(
            "domains",
            "ocep_search_domains_total",
            "Fig-4 domain computations performed.",
        ),
        /// Conflict-directed backjumps taken.
        backjumps: CounterRow::total(
            "backjumps",
            "ocep_search_backjumps_total",
            "Conflict-directed backjumps taken.",
        ),
        /// Complete assignments rejected by deferred (`~>`/compound-`->`)
        /// checks.
        deferred_rejections: CounterRow::total(
            "deferred_rejections",
            "ocep_search_deferred_rejections_total",
            "Complete assignments rejected by deferred checks.",
        ),
    }
}
