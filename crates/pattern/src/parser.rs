//! Recursive-descent parser for pattern programs.
//!
//! Grammar (EBNF):
//!
//! ```text
//! program    = { class_def | event_var } pattern_def ;
//! class_def  = IDENT ':=' '[' attr ',' attr ',' attr ']' ';' ;
//! event_var  = IDENT VAR ';' ;
//! pattern_def= 'pattern' ':=' expr ';' ;
//! attr       = '*' | IDENT | STRING | VAR ;
//! expr       = causal { '&&' causal } ;
//! causal     = primary { ('->'|'->>'|'||'|'<>'|'~>'|'<->') primary } ; (left-assoc)
//! primary    = IDENT | VAR | '(' expr ')' ;
//! ```
//!
//! The parser enforces the size rule ([`MAX_LEAVES`], [`MAX_USES`],
//! [`MAX_DEPTH`]) as it goes: it counts leaves and uses as it meets
//! them, each expression function returns the depth of what it parsed,
//! and a parenthesis is checked before the parser recurses into it.

use crate::ast::{Attr, BinOp, ClassDef, Expr, Program};
use crate::lexer::{lex, Spanned, Tok};
use crate::{PatternError, Pos, MAX_DEPTH, MAX_LEAVES, MAX_USES};

pub(crate) fn parse(src: &str) -> Result<Program, PatternError> {
    let toks = lex(src)?;
    Parser {
        toks,
        at: 0,
        class_leaves: 0,
        event_vars: Vec::new(),
        uses: 0,
    }
    .program()
}

struct Parser {
    toks: Vec<Spanned>,
    at: usize,
    /// Leaves met so far, as compilation makes them: every class
    /// occurrence, and each event variable once.
    class_leaves: usize,
    event_vars: Vec<String>,
    /// Class names and event-variable references met so far.
    uses: usize,
}

/// An expression with its depth: the most operators and parentheses
/// above any one of its leaves.
type Parsed = (Expr, usize);

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.at).map(|s| &s.tok)
    }

    fn pos(&self) -> Pos {
        self.toks
            .get(self.at.min(self.toks.len().saturating_sub(1)))
            .map(|s| s.pos)
            .unwrap_or(Pos { line: 1, col: 1 })
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.at).map(|s| s.tok.clone());
        self.at += 1;
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), PatternError> {
        let pos = self.pos();
        match self.bump() {
            Some(t) if &t == want => Ok(()),
            Some(t) => Err(PatternError::Parse {
                pos,
                msg: format!("expected {want}, found {t}"),
            }),
            None => Err(PatternError::Parse {
                pos,
                msg: format!("expected {want}, found end of input"),
            }),
        }
    }

    fn program(&mut self) -> Result<Program, PatternError> {
        let mut classes = Vec::new();
        let mut event_vars = Vec::new();
        loop {
            let pos = self.pos();
            match self.peek() {
                Some(Tok::Ident(name)) if name == "pattern" => {
                    self.bump();
                    self.expect(&Tok::Define)?;
                    let (pattern, _) = self.expr(0)?;
                    self.expect(&Tok::Semi)?;
                    if self.at != self.toks.len() {
                        return Err(PatternError::Parse {
                            pos: self.pos(),
                            msg: "trailing input after pattern definition".into(),
                        });
                    }
                    return Ok(Program {
                        classes,
                        event_vars,
                        pattern,
                    });
                }
                Some(Tok::Ident(_)) => {
                    let Some(Tok::Ident(name)) = self.bump() else {
                        unreachable!()
                    };
                    match self.peek() {
                        Some(Tok::Define) => {
                            self.bump();
                            let def = self.class_body(name)?;
                            classes.push(def);
                        }
                        Some(Tok::Var(_)) => {
                            let Some(Tok::Var(v)) = self.bump() else {
                                unreachable!()
                            };
                            self.expect(&Tok::Semi)?;
                            event_vars.push((name, v));
                        }
                        _ => {
                            return Err(PatternError::Parse {
                                pos: self.pos(),
                                msg: format!(
                                    "after '{name}' expected ':=' (class definition) or \
                                     '$var;' (event variable)"
                                ),
                            })
                        }
                    }
                }
                Some(t) => {
                    return Err(PatternError::Parse {
                        pos,
                        msg: format!("expected a definition or 'pattern', found {t}"),
                    })
                }
                None => {
                    return Err(PatternError::Parse {
                        pos,
                        msg: "missing 'pattern := ...;' definition".into(),
                    })
                }
            }
        }
    }

    fn class_body(&mut self, name: String) -> Result<ClassDef, PatternError> {
        self.expect(&Tok::LBracket)?;
        let process = self.attr()?;
        self.expect(&Tok::Comma)?;
        let ty = self.attr()?;
        self.expect(&Tok::Comma)?;
        let text = self.attr()?;
        self.expect(&Tok::RBracket)?;
        self.expect(&Tok::Semi)?;
        Ok(ClassDef {
            name,
            process,
            ty,
            text,
        })
    }

    fn attr(&mut self) -> Result<Attr, PatternError> {
        let pos = self.pos();
        match self.bump() {
            Some(Tok::Star) => Ok(Attr::Wildcard),
            Some(Tok::Ident(s)) => Ok(Attr::Literal(s)),
            Some(Tok::Str(s)) => {
                // An empty quoted string is the paper's '' — also a
                // wild-card-free exact match on the empty text.
                Ok(Attr::Literal(s))
            }
            Some(Tok::Var(v)) => Ok(Attr::Var(v)),
            Some(t) => Err(PatternError::Parse {
                pos,
                msg: format!("expected an attribute (*, literal, or $var), found {t}"),
            }),
            None => Err(PatternError::Parse {
                pos,
                msg: "expected an attribute, found end of input".into(),
            }),
        }
    }

    /// Checks `depth` against the size rule at the operator or
    /// parenthesis at `pos`.
    fn depth(pos: Pos, depth: usize) -> Result<usize, PatternError> {
        if depth <= MAX_DEPTH {
            return Ok(depth);
        }
        let what = format!("pattern nests deeper than {MAX_DEPTH} operators and parentheses");
        Err(too_large(pos, what))
    }

    /// Combines two operands under the operator at `pos`, one level
    /// deeper than either.
    fn binary(
        pos: Pos,
        op: BinOp,
        (lhs, l): Parsed,
        (rhs, r): Parsed,
    ) -> Result<Parsed, PatternError> {
        let depth = Self::depth(pos, l.max(r) + 1)?;
        let e = Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
        Ok((e, depth))
    }

    /// `open` is the number of parentheses enclosing this expression.
    fn expr(&mut self, open: usize) -> Result<Parsed, PatternError> {
        let mut lhs = self.causal(open)?;
        while self.peek() == Some(&Tok::And) {
            let pos = self.pos();
            self.bump();
            let rhs = self.causal(open)?;
            lhs = Self::binary(pos, BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn causal(&mut self, open: usize) -> Result<Parsed, PatternError> {
        let mut lhs = self.primary(open)?;
        loop {
            let op = match self.peek() {
                Some(Tok::Arrow) => BinOp::HappensBefore,
                Some(Tok::StrongArrow) => BinOp::StrongPrecedes,
                Some(Tok::Entangle) => BinOp::Entangled,
                Some(Tok::Par) => BinOp::Concurrent,
                Some(Tok::Partner) => BinOp::Partner,
                Some(Tok::Lim) => BinOp::Lim,
                _ => break,
            };
            let pos = self.pos();
            self.bump();
            let rhs = self.primary(open)?;
            lhs = Self::binary(pos, op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    /// Counts the leaf `e` at `pos` against the size rule.
    fn leaf(&mut self, pos: Pos, e: Expr) -> Result<Parsed, PatternError> {
        match &e {
            Expr::EventVar(v) if self.event_vars.contains(v) => {}
            Expr::EventVar(v) => self.event_vars.push(v.clone()),
            _ => self.class_leaves += 1,
        }
        if self.class_leaves + self.event_vars.len() > MAX_LEAVES {
            let what = format!("pattern has more than {MAX_LEAVES} leaves");
            return Err(too_large(pos, what));
        }
        self.uses += 1;
        if self.uses > MAX_USES {
            let what = format!("pattern has more than {MAX_USES} leaf uses");
            return Err(too_large(pos, what));
        }
        Ok((e, 0))
    }

    fn primary(&mut self, open: usize) -> Result<Parsed, PatternError> {
        let pos = self.pos();
        match self.bump() {
            Some(Tok::Ident(n)) => self.leaf(pos, Expr::Class(n)),
            Some(Tok::Var(v)) => self.leaf(pos, Expr::EventVar(v)),
            Some(Tok::LParen) => {
                // Every leaf inside is at least this deep: refuse before
                // recursing.
                Self::depth(pos, open + 1)?;
                let (e, depth) = self.expr(open + 1)?;
                self.expect(&Tok::RParen)?;
                Ok((e, Self::depth(pos, depth + 1)?))
            }
            Some(t) => Err(PatternError::Parse {
                pos,
                msg: format!("expected a class, event variable, or '(', found {t}"),
            }),
            None => Err(PatternError::Parse {
                pos,
                msg: "expected an expression, found end of input".into(),
            }),
        }
    }
}

/// A size-rule refusal at `pos`.
fn too_large(pos: Pos, what: String) -> PatternError {
    PatternError::Parse {
        pos,
        msg: format!(
            "{what} (size rule: at most {MAX_LEAVES} leaves, {MAX_USES} leaf uses \
             and depth {MAX_DEPTH})"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let p = parse("A := [*, x, *]; B := [*, y, *]; pattern := A -> B;").unwrap();
        assert_eq!(p.classes.len(), 2);
        assert_eq!(p.pattern.to_string(), "(A -> B)");
    }

    #[test]
    fn and_binds_looser_than_causal_ops() {
        let p = parse("A := [*,x,*]; B := [*,y,*]; C := [*,z,*]; pattern := A -> B && C;").unwrap();
        assert_eq!(p.pattern.to_string(), "((A -> B) && C)");
    }

    #[test]
    fn causal_ops_are_left_associative() {
        let p = parse("A := [*,x,*]; pattern := A -> A -> A;").unwrap();
        assert_eq!(p.pattern.to_string(), "((A -> A) -> A)");
    }

    #[test]
    fn parentheses_group_compounds() {
        let p = parse("A := [*,x,*]; B := [*,y,*]; pattern := (A -> B) || (A -> B);").unwrap();
        assert_eq!(p.pattern.to_string(), "((A -> B) || (A -> B))");
    }

    #[test]
    fn parses_event_variables_and_paper_example() {
        let src = r#"
            Synch    := [$1, synch_leader, $2];
            Snapshot := [$2, take_snapshot, ''];
            Update   := [$2, make_update, ''];
            Forward  := [$2, forward_snapshot, $1];
            Snapshot $diff;
            Update $write;
            pattern := (Synch -> $diff) && ($diff -> $write) && ($write -> Forward);
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.classes.len(), 4);
        assert_eq!(p.event_vars.len(), 2);
        assert_eq!(
            p.pattern.to_string(),
            "(((Synch -> $diff) && ($diff -> $write)) && ($write -> Forward))"
        );
    }

    #[test]
    fn rejects_missing_pattern() {
        assert!(matches!(
            parse("A := [*, x, *];").unwrap_err(),
            PatternError::Parse { .. }
        ));
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse("A := [*,x,*]; pattern := A; B := [*,y,*];").is_err());
    }

    #[test]
    fn rejects_malformed_class() {
        assert!(parse("A := [*, x]; pattern := A;").is_err());
        assert!(parse("A := *; pattern := A;").is_err());
        assert!(parse("A [*, x, *]; pattern := A;").is_err());
    }

    #[test]
    fn rejects_dangling_operator() {
        assert!(parse("A := [*,x,*]; pattern := A ->;").is_err());
        assert!(parse("A := [*,x,*]; pattern := && A;").is_err());
        assert!(parse("A := [*,x,*]; pattern := (A;").is_err());
    }

    #[test]
    fn quoted_empty_string_is_empty_literal() {
        let p = parse("A := [*, x, '']; pattern := A;").unwrap();
        assert_eq!(p.classes[0].text, Attr::Literal(String::new()));
    }
}
