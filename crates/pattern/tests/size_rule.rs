//! The pattern size rule: at most [`MAX_LEAVES`] leaves, 4,096 leaf
//! uses and depth [`MAX_DEPTH`], refused by the parser before anything
//! recurses.

use ocep_pattern::{LeafId, Pattern, MAX_DEPTH, MAX_LEAVES};

/// The stack every thread the daemon spawns gets.
const THREAD_STACK: usize = 2 << 20;

/// `n` nested parentheses around one leaf: depth `n`.
fn parens(n: usize) -> String {
    format!(
        "A := [*, a, *]; pattern := {}A{};",
        "(".repeat(n),
        ")".repeat(n)
    )
}

/// A two-leaf chain of `n` conjuncts `$a || $b`: depth `n`.
fn conjuncts(n: usize) -> String {
    format!(
        "A := [*, a, *]; B := [*, b, *]; A $a; B $b; pattern := {};",
        vec!["$a || $b"; n].join(" && ")
    )
}

/// A fully parenthesised left-deep `->` chain of `n` class leaves
/// (`((A -> A) -> A)`), with `extra` parentheses around the whole:
/// depth `2 (n - 1) + extra`.
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

/// `n` event variables, each used twice: `n` leaves at depth about 2n.
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

/// `copies` copies of a balanced `||` tree over 64 event variables,
/// joined by a balanced `&&` tree: 64 leaves, shallow, 64 uses per copy.
/// Compile pushes one constraint per leaf pair per `||`, so its cost
/// grows with the uses, not with the leaves or the depth.
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

/// A pattern inside the leaf and depth bounds can still repeat its
/// leaves without end; the rule bounds the uses too (4,096), so what
/// compile builds stays small.
#[test]
fn repeated_uses_are_bounded() {
    // 64 copies of 64 uses: the most the rule admits.
    let fits = Pattern::parse(&repeated(64)).unwrap();
    assert!(fits.constraints().len() <= 64 * 2016);
    assert_refused(repeated(65), "repeated uses");
    let err = Pattern::parse(&repeated(400)).unwrap_err().to_string();
    assert!(err.contains("more than 4096 leaf uses"), "{err}");
}

/// FNV-1a 64 over what a compiled pattern holds: leaf names, the
/// relation matrix, the terminating leaves, the evaluation orders and
/// the constraint list.
fn digest(p: &Pattern) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut put = |s: String| {
        for b in (s.len() as u64)
            .to_le_bytes()
            .into_iter()
            .chain(s.into_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let id = |i: usize| LeafId::from_index(i as u32);
    for (i, leaf) in p.leaves().iter().enumerate() {
        put(leaf.display_name().to_owned());
        for j in 0..p.n_leaves() {
            put(format!("{:?}", p.rel(id(i), id(j))));
        }
        put(format!("{:?}", p.eval_order(id(i))));
    }
    put(format!("{:?}", p.terminating_leaves()));
    put(format!("{:?}", p.constraints()));
    h
}

/// `copies` copies of `expr` joined by a balanced `&&` tree.
fn conj(expr: &str, copies: usize) -> String {
    if copies == 1 {
        return expr.to_owned();
    }
    format!(
        "({} && {})",
        conj(expr, copies / 2),
        conj(expr, copies - copies / 2)
    )
}

/// Repeating a sub-pattern adds nothing to what compile keeps: each leaf
/// pair's relation is one matrix cell, so 64 copies of the `||` tree
/// compile to exactly what one copy does, with an empty list.
#[test]
fn repeated_copies_compile_to_one_graph() {
    let one = Pattern::parse(&repeated(1)).unwrap();
    let all = Pattern::parse(&repeated(64)).unwrap();
    assert!(
        all.constraints().is_empty(),
        "{:?}",
        &all.constraints()[..1]
    );
    assert_eq!(digest(&all), digest(&one));
}

/// A constraint a matrix cell cannot hold is listed once however often
/// the pattern states it.
#[test]
fn each_listed_constraint_is_held_once() {
    let classes = "A := [*, a, *]; A $a; A $b; A $c; A $d;";
    for (expr, what) in [
        ("$a <> $b", "partner"),
        ("$a ~> $b", "limited precedence"),
        ("($a && $b) -> ($c && $d)", "weak precedence"),
        ("($a && $b) <-> ($c && $d)", "entanglement"),
    ] {
        let one = Pattern::parse(&format!("{classes} pattern := {expr};")).unwrap();
        let many = Pattern::parse(&format!("{classes} pattern := {};", conj(expr, 1_000)))
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(many.constraints(), one.constraints(), "{what}");
        assert_eq!(many.constraints().len(), 1, "{what}");
        assert_eq!(digest(&many), digest(&one), "{what}");
    }
}

/// Parses, compiles, displays and drops `src` on a thread with the
/// daemon's stack, returning the error text if it was refused.
fn on_daemon_stack(src: String) -> Result<(), String> {
    std::thread::Builder::new()
        .stack_size(THREAD_STACK)
        .spawn(move || {
            let p = Pattern::parse(&src).map_err(|e| e.to_string())?;
            assert!(p.n_leaves() <= MAX_LEAVES);
            assert!(!p.program().pattern.to_string().is_empty());
            assert!(!format!("{p:?}").is_empty());
            drop(p);
            Ok(())
        })
        .unwrap()
        .join()
        .expect("the pattern overflowed or panicked the thread")
}

fn assert_refused(src: String, what: &str) {
    let err = on_daemon_stack(src).expect_err(what);
    assert!(err.contains("size rule"), "{what}: {err}");
}

#[test]
fn the_deepest_admitted_shapes_run_on_the_daemon_stack() {
    let chain_depth = 2 * (MAX_LEAVES - 1);
    for (what, src) in [
        ("parentheses", parens(MAX_DEPTH)),
        ("conjuncts", conjuncts(MAX_DEPTH)),
        ("chain", chain(MAX_LEAVES, MAX_DEPTH - chain_depth)),
        ("reused variables", reused_vars(MAX_LEAVES)),
    ] {
        on_daemon_stack(src).unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

#[test]
fn one_step_past_the_rule_is_refused() {
    let chain_depth = 2 * (MAX_LEAVES - 1);
    assert_refused(parens(MAX_DEPTH + 1), "parentheses");
    assert_refused(conjuncts(MAX_DEPTH + 1), "conjuncts");
    assert_refused(chain(MAX_LEAVES, MAX_DEPTH - chain_depth + 1), "deep chain");
    assert_refused(chain(MAX_LEAVES + 1, 0), "long chain");
    assert_refused(reused_vars(MAX_LEAVES + 1), "variables");
}

#[test]
fn refusals_name_the_rule_and_point_at_the_offender() {
    let err = Pattern::parse(&parens(MAX_DEPTH + 1))
        .unwrap_err()
        .to_string();
    // The first parenthesis past the bound, found before the parser
    // descends any further.
    let at = format!("parse error at 1:{}:", 28 + MAX_DEPTH);
    assert!(err.starts_with(&at), "{err}");
    assert!(err.contains(&format!("deeper than {MAX_DEPTH}")), "{err}");
    let err = Pattern::parse(&chain(MAX_LEAVES + 1, 0))
        .unwrap_err()
        .to_string();
    assert!(
        err.contains(&format!("more than {MAX_LEAVES} leaves")),
        "{err}"
    );
    assert!(
        err.contains(&format!(
            "size rule: at most {MAX_LEAVES} leaves, 4096 leaf uses and depth {MAX_DEPTH}"
        )),
        "{err}"
    );
}

/// Far past the rule, each shape is refused in time linear in its
/// source, on the daemon's stack, with no deep recursion.
#[test]
fn shapes_far_past_the_rule_are_refused_without_recursing() {
    assert_refused(parens(100_000), "parentheses");
    assert_refused(conjuncts(100_000), "conjuncts");
    assert_refused(chain(5_000, 0), "chain");
}
