//! API-surface tests for the pattern crate: error display, positions,
//! AST accessors, and leaf-spec conveniences.

use ocep_pattern::{Attr, BinOp, Pattern, PatternError, Pos};

#[test]
fn pattern_error_display_variants() {
    let lex = Pattern::parse("A := @").unwrap_err();
    assert!(lex.to_string().starts_with("lex error at 1:6"), "{lex}");
    let parse = Pattern::parse("A := [*, x, *]").unwrap_err();
    assert!(parse.to_string().contains("parse error"), "{parse}");
    let sem = Pattern::parse("pattern := Ghost;").unwrap_err();
    assert!(sem.to_string().contains("invalid pattern"), "{sem}");
    assert!(sem.to_string().contains("Ghost"), "{sem}");
}

#[test]
fn pos_display() {
    let p = Pos { line: 3, col: 14 };
    assert_eq!(p.to_string(), "3:14");
}

#[test]
fn binop_display_covers_all_operators() {
    for (op, s) in [
        (BinOp::HappensBefore, "->"),
        (BinOp::StrongPrecedes, "->>"),
        (BinOp::Entangled, "<->"),
        (BinOp::Concurrent, "||"),
        (BinOp::Partner, "<>"),
        (BinOp::Lim, "~>"),
        (BinOp::And, "&&"),
    ] {
        assert_eq!(op.to_string(), s);
    }
}

#[test]
fn attr_is_literal() {
    assert!(Attr::Literal("x".into()).is_literal());
    assert!(!Attr::Wildcard.is_literal());
    assert!(!Attr::Var("v".into()).is_literal());
}

#[test]
fn pattern_exposes_source_and_program() {
    let src = "A := [*, a, *]; pattern := A;";
    let p = Pattern::parse(src).unwrap();
    assert_eq!(p.source(), src);
    assert_eq!(p.program().classes.len(), 1);
    assert_eq!(p.program().pattern.to_string(), "A");
}

#[test]
fn leaf_spec_ty_literal_prefilter() {
    let p = Pattern::parse("A := [*, green, *]; B := [*, $v, *]; pattern := A -> B;").unwrap();
    assert_eq!(p.leaves()[0].ty_literal(), Some("green"));
    assert_eq!(p.leaves()[1].ty_literal(), None);
}

#[test]
fn pattern_tree_root_mirrors_expression_structure() {
    use ocep_pattern::Expr;
    let p = Pattern::parse("A := [*,a,*]; B := [*,b,*]; pattern := A -> B && A;").unwrap();
    let Expr::Binary { op, lhs, .. } = &p.program().pattern else {
        panic!("root must be an operator node");
    };
    assert_eq!(*op, BinOp::And);
    let Expr::Binary { op: inner, .. } = lhs.as_ref() else {
        panic!("lhs must be the -> node");
    };
    assert_eq!(*inner, BinOp::HappensBefore);
    // Three distinct leaves: A, B, A#2.
    assert_eq!(p.n_leaves(), 3);
}

#[test]
fn comments_and_whitespace_are_ignored() {
    let p = Pattern::parse("// watch the lights\nA := [*, green, *]; // class\n\n   pattern := A;")
        .unwrap();
    assert_eq!(p.n_leaves(), 1);
}

#[test]
fn pattern_reserved_word_cannot_name_a_class() {
    let e = Pattern::parse("pattern := [*, x, *]; pattern := pattern;").unwrap_err();
    assert!(matches!(
        e,
        PatternError::Parse { .. } | PatternError::Semantic(_)
    ));
}

#[test]
fn leaf_id_display_and_conversions() {
    use ocep_pattern::LeafId;
    let l = LeafId::from_index(3);
    assert_eq!(l.as_usize(), 3);
    assert_eq!(l.to_string(), "leaf3");
}

#[test]
fn var_names_are_in_first_occurrence_order() {
    let p = Pattern::parse("A := [$beta, x, $alpha]; B := [$alpha, y, $gamma]; pattern := A -> B;")
        .unwrap();
    assert_eq!(p.var_names(), &["beta", "alpha", "gamma"]);
    assert_eq!(p.n_vars(), 3);
}
