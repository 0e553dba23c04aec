//! The OCEP causal event-pattern language (§III of the paper).
//!
//! A pattern program consists of *class definitions*, optional *event
//! variable declarations*, and the *pattern* itself:
//!
//! ```text
//! Synch    := [$l, synch_leader, $f];   // [process, type, text]
//! Snapshot := [$l, take_snapshot, $f];
//! Update   := [$l, make_update, *];
//! Forward  := [$l, forward_snapshot, $f];
//! Snapshot $diff;                       // event variable of class Snapshot
//! Update   $write;
//! pattern  := (Synch -> $diff) && ($diff -> $write) && ($write -> Forward);
//! ```
//!
//! * A **class** is the `[process, type, text]` 3-tuple of §III-A. Each
//!   attribute is a literal (exact match), `*` (wild-card), or `$var` (an
//!   *attribute variable* enforcing equality wherever it re-occurs).
//!   Process attributes match the trace's display name (`T0`, `T1`, …),
//!   which is also what the built-in target plugins store in message text
//!   attributes, so a process variable can bind against a text field.
//! * An **event variable** (`Snapshot $diff;`) names a single occurrence:
//!   every use of `$diff` in the pattern refers to the *same* matched
//!   event, per §III-C. A bare class name used twice denotes two
//!   independent occurrences.
//! * **Operators** (Fig 1): `->` happens-before, `||` concurrency, `<>`
//!   message partners (point-to-point send/receive pair), `~>` limited
//!   precedence (`a -> b` with no intervening event of the left class),
//!   and `&&` conjunction. Operators on compound operands use Nichols'
//!   weak precedence (eq. 2) and strong concurrency (eq. 3): `||` between
//!   groups decomposes into all-pairs concurrency; `->` between groups
//!   requires some pair ordered and the groups not entangled.
//!
//! Parsing produces a [`Pattern`]: the parsed [`Program`] plus the
//! compiled constraint graph the §IV matcher consumes — one pairwise
//! causal relation per leaf pair with its transitive closure, the
//! compound and message constraints a pair cannot express (each held
//! once), attribute-variable sites, per-terminating-leaf evaluation
//! orders, and the terminating-leaf set of §V-B.
//!
//! A pattern source is untrusted input and §IV's search is exponential
//! in pattern length, so [`Pattern::parse`] refuses one with more than
//! [`MAX_LEAVES`] leaves, more than [`MAX_USES`] leaf uses or deeper
//! than [`MAX_DEPTH`] before anything recurses over it.
//!
//! # Example
//!
//! ```
//! use ocep_pattern::Pattern;
//!
//! let p = Pattern::parse(
//!     r#"
//!     A := [*, green, *];
//!     B := [*, green, *];
//!     pattern := A || B;
//!     "#,
//! )
//! .unwrap();
//! assert_eq!(p.leaves().len(), 2);
//! // Both leaves of a pure-concurrency pattern are terminating (§V-B).
//! assert_eq!(p.terminating_leaves().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod binding;
mod compile;
mod lexer;
mod parser;
mod tree;

pub use ast::{Attr, BinOp, ClassDef, Expr, Program};
pub use binding::{AttrField, Bindings, VarId};
pub use compile::{Constraint, PairRel};
pub use tree::{LeafId, LeafSpec, Pattern};

/// The most leaves a pattern may have: each class occurrence is a
/// leaf, and each event variable is one leaf however often it is used.
/// The matcher keeps one bit per leaf in a `u64`.
pub const MAX_LEAVES: usize = 64;

/// The most leaf uses a pattern may have: every class name and every
/// event-variable reference in the pattern expression. What compile
/// keeps does not grow with repetition — one relation per leaf pair and
/// each compound constraint once — but the parser and compile's walk
/// visit every use, and each operator relates every leaf pair across
/// its operands, so their work does; the deadlock cycle over
/// [`MAX_LEAVES`] processes (`k (k - 1)` uses) fits.
pub const MAX_USES: usize = 4096;

/// The most operators and parentheses a pattern may nest above any one
/// leaf; a left-deep chain is as deep as it is long. A fully
/// parenthesised chain of [`MAX_LEAVES`] leaves fits. Every tree walk
/// over a pattern (parse, compile, `Display`, drop) recurses at most
/// this deep.
pub const MAX_DEPTH: usize = 128;

/// A position in pattern source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl std::fmt::Display for Pos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors raised while parsing or compiling a pattern program.
#[derive(Debug)]
pub enum PatternError {
    /// A character or token could not be lexed.
    Lex {
        /// Where the bad input starts.
        pos: Pos,
        /// Description of the problem.
        msg: String,
    },
    /// The token stream did not match the grammar.
    Parse {
        /// Where the unexpected token is.
        pos: Pos,
        /// Description of the problem.
        msg: String,
    },
    /// The program parsed but is semantically invalid (unknown class,
    /// duplicate definition, contradictory constraints, …).
    Semantic(String),
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::Lex { pos, msg } => write!(f, "lex error at {pos}: {msg}"),
            PatternError::Parse { pos, msg } => write!(f, "parse error at {pos}: {msg}"),
            PatternError::Semantic(msg) => write!(f, "invalid pattern: {msg}"),
        }
    }
}

impl std::error::Error for PatternError {}
