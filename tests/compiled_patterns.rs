//! Pins what `Pattern::parse` compiles, by FNV-1a 64 digest.
//!
//! For every source below the digest covers the leaf display names, the
//! closed pairwise relation matrix (`rel`), the terminating leaves, each
//! leaf's evaluation order, and the first occurrence of every `Partner`,
//! `Lim`, `WeakPrecede` and `Entangled` constraint, in list order. Those
//! are everything the matcher, the baselines and the generators read of
//! a compiled pattern, so a change to how compile stores its constraint
//! graph passes here with every digest unchanged or not at all.
//!
//! The sources: the example fixtures, the offline CLI corpus, the
//! deadlock cycle patterns over 2 to 8 processes, the size rule's
//! admitted shapes, and 2,000 generated patterns from one seed. Sources
//! the size rule or compile refuses must stay refused.
//!
//! `PINS` was computed at commit 9b4b5ff and is not to be edited. Three
//! entries have been, on purpose, when compile's breadth-first
//! evaluation order began to take first a reached leaf whose process
//! variable is bound: with the `order` lines left out, every digest is
//! what it was. They read
//! `fixtures` 0xcdbb0152772d0b58, `cycle-patterns` 0x97e8285952cded0c
//! and `generated` 0x7a0c50b7e735c13a before.

use ocep_repro::conformance::gen_pattern;
use ocep_repro::pattern::{Constraint, LeafId, Pattern, MAX_DEPTH, MAX_LEAVES};
use ocep_repro::simulator::workloads::random_walk;
use ocep_rng::Rng;

mod common;

const PINS: [(&str, u64); 6] = [
    ("fixtures", 0x862f8a15fd6abbcc),
    ("offline-corpus", 0x7c5f07542eaa5ce7),
    ("cycle-patterns", 0xfb48e82ca2da1380),
    ("size-rule-shapes", 0x074c32e93c507cdf),
    ("generated", 0xac68b35f47d6db1c),
    ("refused", 0x19e007c5e4f084ae),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed string, so adjacent fields cannot run together.
    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }
}

/// Folds one compiled pattern into `h`.
fn digest_into(h: &mut Fnv, p: &Pattern) {
    let k = p.n_leaves();
    h.str(&format!("leaves {k}"));
    for leaf in p.leaves() {
        h.str(leaf.display_name());
    }
    let id = |i: usize| LeafId::from_index(i as u32);
    for i in 0..k {
        for j in 0..k {
            h.str(&format!("{:?}", p.rel(id(i), id(j))));
        }
    }
    h.str(&format!("terminating {:?}", p.terminating_leaves()));
    for i in 0..k {
        h.str(&format!("order {:?}", p.eval_order(id(i))));
    }
    let mut kept: Vec<&Constraint> = Vec::new();
    for c in p.constraints() {
        let listed = matches!(
            c,
            Constraint::Partner { .. }
                | Constraint::Lim { .. }
                | Constraint::WeakPrecede { .. }
                | Constraint::Entangled { .. }
        );
        if listed && !kept.contains(&c) {
            kept.push(c);
        }
    }
    for c in kept {
        h.str(&format!("{c:?}"));
    }
}

/// One digest over a group of sources, each of which must compile.
fn digest_group(sources: &[(String, String)]) -> u64 {
    let mut h = Fnv::new();
    for (name, src) in sources {
        let p = Pattern::parse(src).unwrap_or_else(|e| panic!("{name} is refused: {e}"));
        h.str(name);
        digest_into(&mut h, &p);
    }
    h.0
}

fn files(dir: &str, ext: &str) -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .{ext} files in {dir}");
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).unwrap())
        })
        .collect()
}

// The size rule's shapes, spelled as in crates/pattern/tests/size_rule.rs.

fn parens(n: usize) -> String {
    format!(
        "A := [*, a, *]; pattern := {}A{};",
        "(".repeat(n),
        ")".repeat(n)
    )
}

fn conjuncts(n: usize) -> String {
    format!(
        "A := [*, a, *]; B := [*, b, *]; A $a; B $b; pattern := {};",
        vec!["$a || $b"; n].join(" && ")
    )
}

fn chain(n: usize, extra: usize) -> String {
    let mut e = "A".to_owned();
    for _ in 1..n {
        e = format!("({e} -> A)");
    }
    format!(
        "A := [*, a, *]; pattern := {}{e}{};",
        "(".repeat(extra),
        ")".repeat(extra)
    )
}

fn reused_vars(n: usize) -> String {
    let mut src = "A := [*, a, *];".to_owned();
    for i in 0..n {
        src.push_str(&format!(" A $v{i};"));
    }
    let uses: Vec<String> = (0..n).map(|i| format!("$v{i}")).collect();
    format!(
        "{src} pattern := {} && {};",
        uses.join(" || "),
        uses.join(" || ")
    )
}

fn repeated(copies: usize) -> String {
    fn par(lo: usize, n: usize) -> String {
        if n == 1 {
            return format!("$v{lo}");
        }
        format!("({} || {})", par(lo, n / 2), par(lo + n / 2, n - n / 2))
    }
    fn conj(tree: &str, k: usize) -> String {
        if k == 1 {
            return tree.to_owned();
        }
        format!("({} && {})", conj(tree, k / 2), conj(tree, k - k / 2))
    }
    let vars: String = (0..64).map(|i| format!(" A $v{i};")).collect();
    format!(
        "A := [*, a, *];{vars} pattern := {};",
        conj(&par(0, 64), copies)
    )
}

fn groups() -> Vec<(&'static str, Vec<(String, String)>)> {
    let chain_depth = 2 * (MAX_LEAVES - 1);
    let named = |what: &str, src: String| (what.to_owned(), src);
    let mut rng = Rng::seed_from_u64(0x0c0f_fee5);
    vec![
        ("fixtures", files("examples/fixtures", "pat")),
        ("offline-corpus", files("tests/corpus/cli/offline", "ocep")),
        (
            "cycle-patterns",
            (2..=8)
                .map(|k| (format!("cycle {k}"), random_walk::cycle_pattern(k)))
                .collect(),
        ),
        (
            "size-rule-shapes",
            vec![
                named("parens", parens(MAX_DEPTH)),
                named("conjuncts", conjuncts(MAX_DEPTH)),
                named("chain", chain(MAX_LEAVES, MAX_DEPTH - chain_depth)),
                named("reused vars", reused_vars(MAX_LEAVES)),
                named("repeated 1", repeated(1)),
                named("repeated 64", repeated(64)),
            ],
        ),
        (
            "generated",
            (0..2_000)
                .map(|i| (format!("generated {i}"), gen_pattern(&mut rng).source))
                .collect(),
        ),
    ]
}

/// Sources that must stay refused: one step past each size bound, the
/// daemon's hostile shapes, and compile's semantic refusals.
fn refused() -> Vec<(String, String)> {
    let chain_depth = 2 * (MAX_LEAVES - 1);
    let mut out = vec![
        ("parens".to_owned(), parens(MAX_DEPTH + 1)),
        ("conjuncts".to_owned(), conjuncts(MAX_DEPTH + 1)),
        (
            "deep chain".to_owned(),
            chain(MAX_LEAVES, MAX_DEPTH - chain_depth + 1),
        ),
        ("long chain".to_owned(), chain(MAX_LEAVES + 1, 0)),
        ("reused vars".to_owned(), reused_vars(MAX_LEAVES + 1)),
        ("repeated 65".to_owned(), repeated(65)),
    ];
    for (name, src) in common::hostile_patterns() {
        out.push((format!("hostile {name}"), src));
    }
    let classes = "A := [*,a,*]; B := [*,b,*]; A $x; B $y; A $z;";
    for expr in [
        "$x -> $y && $x || $y",
        "$x -> $y && $y -> $x",
        "$x -> $x",
        "$x || $x",
        "$x <> $x",
        "$x -> $y && $y -> $z && $z -> $x",
        "$x ->> $y && $y || $x",
        "$x <> $y && $y ~> $x",
        "(A && B) <> A",
        "A ~> (A && B)",
        "A <-> B",
    ] {
        out.push((expr.to_owned(), format!("{classes} pattern := {expr};")));
    }
    out
}

/// Digest of which sources are refused, and by which kind of error.
fn refused_digest() -> u64 {
    let mut h = Fnv::new();
    for (name, src) in refused() {
        let err = Pattern::parse(&src)
            .err()
            .unwrap_or_else(|| panic!("{name} is admitted"));
        h.str(&name);
        h.str(err.to_string().split(':').next().unwrap_or(""));
    }
    h.0
}

#[test]
fn compiled_patterns_are_pinned() {
    let mut got: Vec<(&str, u64)> = groups()
        .iter()
        .map(|(name, sources)| (*name, digest_group(sources)))
        .collect();
    got.push(("refused", refused_digest()));
    if got != PINS {
        for (name, digest) in &got {
            eprintln!("    (\"{name}\", {digest:#018x}),");
        }
    }
    assert_eq!(got, PINS);
}
