//! Line-diagnosed adapter errors.
//!
//! The counterpart of `ocep-net`'s byte-offset-diagnosed `WireError`:
//! adapter inputs are line-oriented text, so every error names the
//! 1-based input line it was detected on plus a taxonomy kind, and the
//! `Display` form always embeds `line {n}:` so operators (and the
//! corpus tests) can grep for the locus.

use crate::MAX_RECORDS;

/// Classification of what went wrong while reading a recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdapterErrorKind {
    /// The line is not well-formed for the format (bad JSON, wrong
    /// field type, missing required field, truncated record).
    Syntax,
    /// A structurally valid value exceeds a hard bound (trace count,
    /// record count, links per span) — hostile-count protection.
    Limit,
    /// A reference to a record that does not exist (orphan span
    /// parent, unknown link target, unknown `from` record).
    OrphanRef,
    /// The recorded happens-before relation is cyclic (span parent
    /// cycles, including timestamp order contradicting parent order on
    /// one trace).
    Cycle,
    /// A receive with no matching send (MPI `recv` with an empty
    /// tag-scoped channel), or a causal reference to a *later* record
    /// in a replayable recording.
    Unmatched,
}

impl AdapterErrorKind {
    /// Stable lowercase name used in diagnostics and stats output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AdapterErrorKind::Syntax => "syntax",
            AdapterErrorKind::Limit => "limit",
            AdapterErrorKind::OrphanRef => "orphan-ref",
            AdapterErrorKind::Cycle => "cycle",
            AdapterErrorKind::Unmatched => "unmatched",
        }
    }
}

/// One rejected recording: where, what class of defect, and a
/// human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdapterError {
    /// Defect classification.
    pub kind: AdapterErrorKind,
    /// 1-based input line the defect was detected on.
    pub line: usize,
    /// Free-form description (names the offending field/id/rank).
    pub detail: String,
}

impl AdapterError {
    /// Builds an error pinned to `line` (1-based).
    #[must_use]
    pub fn new(kind: AdapterErrorKind, line: usize, detail: impl Into<String>) -> Self {
        AdapterError {
            kind,
            line,
            detail: detail.into(),
        }
    }
}

/// A [`AdapterErrorKind::Syntax`] error on `line`.
pub(crate) fn syn(line: usize, detail: impl Into<String>) -> AdapterError {
    AdapterError::new(AdapterErrorKind::Syntax, line, detail)
}

/// A [`AdapterErrorKind::Limit`] error on `line`.
pub(crate) fn limit(line: usize, detail: impl Into<String>) -> AdapterError {
    AdapterError::new(AdapterErrorKind::Limit, line, detail)
}

/// The [`MAX_RECORDS`] backstop tripping on `line`.
pub(crate) fn too_many_records(line: usize) -> AdapterError {
    limit(line, format!("recording exceeds {MAX_RECORDS} records"))
}

impl std::fmt::Display for AdapterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}: {} ({})",
            self.line,
            self.detail,
            self.kind.name()
        )
    }
}

impl std::error::Error for AdapterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_embeds_line_and_kind() {
        let e = AdapterError::new(
            AdapterErrorKind::Cycle,
            7,
            "span a1 participates in a cycle",
        );
        let s = e.to_string();
        assert!(s.contains("line 7:"), "{s}");
        assert!(s.contains("cycle"), "{s}");
        assert!(s.contains("a1"), "{s}");
    }

    #[test]
    fn kind_names_are_stable() {
        let kinds = [
            AdapterErrorKind::Syntax,
            AdapterErrorKind::Limit,
            AdapterErrorKind::OrphanRef,
            AdapterErrorKind::Cycle,
            AdapterErrorKind::Unmatched,
        ];
        let names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            ["syntax", "limit", "orphan-ref", "cycle", "unmatched"]
        );
    }
}
