//! Compilation of a parsed program into the matcher-facing constraint
//! graph: leaves, one pairwise relation per leaf pair with its transitive
//! closure, the compound constraints a matrix cell cannot hold,
//! terminating leaves, and evaluation orders.

use crate::ast::{Attr, BinOp, ClassDef, Expr, Program};
use crate::binding::VarId;
use crate::tree::{LeafId, LeafSpec, ResolvedAttr};
use crate::PatternError;
use std::collections::HashMap;
use std::sync::Arc;

/// A compiled constraint a pairwise relation cannot express. The
/// happens-before half of `<>` and `~>` is in [`crate::Pattern::rel`]
/// like every `->` and `||`; these entries add what the matcher checks
/// beyond it. A pattern holds each at most once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// The leaves' events must be the two endpoints of one point-to-point
    /// message (`<>` in Fig 1): `recv.partner() == send.id()`.
    Partner {
        /// The send endpoint.
        send: LeafId,
        /// The receive endpoint.
        recv: LeafId,
    },
    /// Limited precedence (`~>`): `from -> to` with no other event
    /// matching `from`'s leaf strictly causally between them.
    Lim {
        /// Earlier leaf.
        from: LeafId,
        /// Later leaf.
        to: LeafId,
    },
    /// Weak precedence between compound operands (eq. 2): at least one
    /// `(from, to)` pair ordered, and the two groups not entangled.
    /// Checked when all involved leaves are instantiated.
    WeakPrecede {
        /// Leaves of the left compound.
        from: Vec<LeafId>,
        /// Leaves of the right compound.
        to: Vec<LeafId>,
    },
    /// Entanglement between compound operands (eq. 1): the instantiated
    /// sets overlap or cross. Checked when all involved leaves are
    /// instantiated.
    Entangled {
        /// Leaves of the left compound.
        left: Vec<LeafId>,
        /// Leaves of the right compound.
        right: Vec<LeafId>,
    },
}

/// The pairwise causal requirement between two instantiated leaves,
/// derived from the pattern's operators and their transitive closure.
/// This is what drives the Fig 4 domain restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairRel {
    /// Row leaf must happen before column leaf.
    Before,
    /// Row leaf must happen after column leaf.
    After,
    /// The leaves must be concurrent.
    Concurrent,
}

pub(crate) struct Compiled {
    pub leaves: Vec<LeafSpec>,
    pub constraints: Vec<Constraint>,
    pub rel: Vec<Vec<Option<PairRel>>>,
    pub var_names: Vec<String>,
    pub terminating: Vec<LeafId>,
    pub eval_order: Vec<Vec<LeafId>>,
}

pub(crate) fn compile(program: &Program) -> Result<Compiled, PatternError> {
    // --- class table -----------------------------------------------------
    let mut classes: HashMap<&str, &ClassDef> = HashMap::new();
    for c in &program.classes {
        if c.name == "pattern" {
            return Err(PatternError::Semantic(
                "'pattern' is reserved and cannot name a class".into(),
            ));
        }
        if classes.insert(&c.name, c).is_some() {
            return Err(PatternError::Semantic(format!(
                "class '{}' defined twice",
                c.name
            )));
        }
    }

    // --- event variables --------------------------------------------------
    let mut event_var_class: HashMap<&str, &ClassDef> = HashMap::new();
    for (class, var) in &program.event_vars {
        let def = classes.get(class.as_str()).ok_or_else(|| {
            PatternError::Semantic(format!(
                "event variable '${var}' declared with unknown class '{class}'"
            ))
        })?;
        if event_var_class.insert(var, def).is_some() {
            return Err(PatternError::Semantic(format!(
                "event variable '${var}' declared twice"
            )));
        }
    }

    // --- leaves, attribute variables and the constraint graph -------------
    let mut g = Graph::default();
    walk(&program.pattern, &classes, &event_var_class, &mut g)?;
    // A misused operator anywhere in the expression outranks a
    // contradiction the walk met before reaching it.
    if let Some(e) = g.conflict.take() {
        return Err(e);
    }

    let k = g.leaves.len();
    if k == 0 {
        return Err(PatternError::Semantic("pattern has no events".into()));
    }

    // Transitive closure of Before (Floyd-Warshall); detect cycles and
    // conflicts with Concurrent edges.
    for m in 0..k {
        for i in 0..k {
            for j in 0..k {
                if g.rel[i][m] == Some(PairRel::Before) && g.rel[m][j] == Some(PairRel::Before) {
                    if i == j {
                        return Err(PatternError::Semantic(format!(
                            "precedence cycle through '{}'",
                            g.leaves[i].display_name()
                        )));
                    }
                    g.relate(i, j, PairRel::Before)?;
                }
            }
        }
    }
    let Graph {
        leaves,
        rel,
        constraints,
        var_names,
        ..
    } = g;

    // --- terminating leaves (§V-B): no outgoing Before edge ---------------
    let terminating = (0..k)
        .filter(|&i| !rel[i].contains(&Some(PairRel::Before)))
        .map(|i| LeafId::from_index(i as u32))
        .collect();

    // --- evaluation order per seed ----------------------------------------
    // Breadth-first over the constraint adjacency from the seed, so every
    // newly instantiated level is causally constrained by an earlier one
    // where possible (maximizes Fig 4 pruning). Binding first: of the
    // leaves the walk has reached, one whose process variable an earlier
    // level bound goes next, so the search visits one trace there. A
    // bound leaf the walk has not reached is related to no placed level,
    // and placed early it would scan its whole pinned trace.
    let mut adjacency: Vec<Vec<usize>> = rel
        .iter()
        .map(|row| (0..k).filter(|&j| row[j].is_some()).collect())
        .collect();
    for c in &constraints {
        let (xs, ys) = match c {
            Constraint::WeakPrecede { from, to } => (from, to),
            Constraint::Entangled { left, right } => (left, right),
            _ => continue,
        };
        for a in xs {
            for b in ys {
                if a != b {
                    adjacency[a.as_usize()].push(b.as_usize());
                    adjacency[b.as_usize()].push(a.as_usize());
                }
            }
        }
    }

    let mut eval_order = Vec::with_capacity(k);
    for seed in 0..k {
        let mut order: Vec<LeafId> = Vec::with_capacity(k);
        let mut seen = vec![false; k];
        let mut queue = vec![seed];
        seen[seed] = true;
        while !queue.is_empty() {
            let bound = |i: &usize| {
                leaves[*i]
                    .process_var()
                    .is_some_and(|v| order.iter().any(|p| leaves[p.as_usize()].mentions(v)))
            };
            let i = queue.remove(queue.iter().position(bound).unwrap_or(0));
            order.push(LeafId::from_index(i as u32));
            for &j in &adjacency[i] {
                if !seen[j] {
                    seen[j] = true;
                    queue.push(j);
                }
            }
        }
        for (i, s) in seen.iter().enumerate() {
            if !s {
                order.push(LeafId::from_index(i as u32));
            }
        }
        eval_order.push(order);
    }

    Ok(Compiled {
        leaves,
        constraints,
        rel,
        var_names,
        terminating,
        eval_order,
    })
}

fn inverse(r: PairRel) -> PairRel {
    match r {
        PairRel::Before => PairRel::After,
        PairRel::After => PairRel::Before,
        PairRel::Concurrent => PairRel::Concurrent,
    }
}

/// The pattern under construction: its leaves and attribute variables,
/// the relation matrix (one row and column per leaf so far) and the
/// compound constraints, each held once.
#[derive(Default)]
struct Graph {
    leaves: Vec<LeafSpec>,
    event_var_leaf: HashMap<String, LeafId>,
    var_ids: HashMap<String, VarId>,
    var_names: Vec<String>,
    rel: Vec<Vec<Option<PairRel>>>,
    constraints: Vec<Constraint>,
    /// The first relation the walk found contradicting the matrix.
    conflict: Option<PatternError>,
}

impl Graph {
    fn resolve_attr(&mut self, attr: &Attr) -> ResolvedAttr {
        match attr {
            Attr::Wildcard => ResolvedAttr::Wildcard,
            Attr::Literal(s) => ResolvedAttr::Literal(Arc::from(s.as_str())),
            Attr::Var(name) => {
                let next = VarId::from_index(self.var_names.len() as u32);
                let id = *self.var_ids.entry(name.clone()).or_insert_with(|| {
                    self.var_names.push(name.clone());
                    next
                });
                ResolvedAttr::Var(id)
            }
        }
    }

    fn new_leaf(&mut self, def: &ClassDef, display: String) -> LeafId {
        let id = LeafId::from_index(self.leaves.len() as u32);
        let process = self.resolve_attr(&def.process);
        let ty = self.resolve_attr(&def.ty);
        let text = self.resolve_attr(&def.text);
        self.leaves.push(LeafSpec::new(
            id,
            def.name.clone(),
            display,
            process,
            ty,
            text,
        ));
        for row in &mut self.rel {
            row.push(None);
        }
        self.rel.push(vec![None; self.leaves.len()]);
        id
    }

    /// Records `i r j` (and its inverse) in the matrix, refusing a leaf
    /// related to itself or a pair already related differently.
    fn relate(&mut self, i: usize, j: usize, r: PairRel) -> Result<(), PatternError> {
        let name = |i: usize| self.leaves[i].display_name();
        if i == j {
            return Err(PatternError::Semantic(format!(
                "constraint relates the event '{}' to itself",
                name(i)
            )));
        }
        match self.rel[i][j] {
            None => {
                self.rel[i][j] = Some(r);
                self.rel[j][i] = Some(inverse(r));
                Ok(())
            }
            Some(existing) if existing == r => Ok(()),
            Some(existing) => Err(PatternError::Semantic(format!(
                "contradictory constraints between '{}' and '{}': {existing:?} vs {r:?}",
                name(i),
                name(j)
            ))),
        }
    }

    /// [`Graph::relate`] during the walk: the first refusal is kept and
    /// every later relation skipped.
    fn relate_leaves(&mut self, a: LeafId, b: LeafId, r: PairRel) {
        if self.conflict.is_none() {
            self.conflict = self.relate(a.as_usize(), b.as_usize(), r).err();
        }
    }

    /// Appends `c` unless the pattern already holds it. The scan is
    /// linear, but the size rule's 4,096 uses bound the list and each
    /// entry's leaves together, so a whole compile stays in the millions
    /// of leaf comparisons.
    fn list(&mut self, c: Constraint) {
        if !self.constraints.contains(&c) {
            self.constraints.push(c);
        }
    }
}

/// Walks the expression, creating leaves and recording its relations and
/// constraints; returns the sub-expression's leaf set in first-occurrence
/// order (an event variable used twice in it is listed once).
fn walk(
    expr: &Expr,
    classes: &HashMap<&str, &ClassDef>,
    event_vars: &HashMap<&str, &ClassDef>,
    g: &mut Graph,
) -> Result<Vec<LeafId>, PatternError> {
    match expr {
        Expr::Class(name) => {
            let def = classes.get(name.as_str()).ok_or_else(|| {
                PatternError::Semantic(format!("unknown class '{name}' in pattern"))
            })?;
            let n = g.leaves.iter().filter(|l| l.class_name() == name).count();
            let display = if n == 0 {
                name.clone()
            } else {
                format!("{name}#{}", n + 1)
            };
            Ok(vec![g.new_leaf(def, display)])
        }
        Expr::EventVar(var) => {
            if let Some(&leaf) = g.event_var_leaf.get(var) {
                return Ok(vec![leaf]);
            }
            let def = event_vars.get(var.as_str()).ok_or_else(|| {
                PatternError::Semantic(format!("event variable '${var}' used but never declared"))
            })?;
            let leaf = g.new_leaf(def, format!("${var}"));
            g.event_var_leaf.insert(var.clone(), leaf);
            Ok(vec![leaf])
        }
        Expr::Binary { op, lhs, rhs } => {
            let ls = walk(lhs, classes, event_vars, g)?;
            let rs = walk(rhs, classes, event_vars, g)?;
            let single = ls.len() == 1 && rs.len() == 1;
            match op {
                BinOp::And => {}
                BinOp::HappensBefore if single => g.relate_leaves(ls[0], rs[0], PairRel::Before),
                BinOp::HappensBefore => g.list(Constraint::WeakPrecede {
                    from: ls.clone(),
                    to: rs.clone(),
                }),
                // Lamport's strong precedence orders every pair, and
                // concurrency is all-pairs: both are matrix cells only.
                BinOp::StrongPrecedes | BinOp::Concurrent => {
                    let r = if *op == BinOp::Concurrent {
                        PairRel::Concurrent
                    } else {
                        PairRel::Before
                    };
                    for &a in &ls {
                        for &b in &rs {
                            g.relate_leaves(a, b, r);
                        }
                    }
                }
                BinOp::Entangled => {
                    let shares_leaf = ls.iter().any(|l| rs.contains(l));
                    if single && !shares_leaf {
                        // Two distinct single events can neither overlap
                        // nor cross: the constraint is unsatisfiable.
                        return Err(PatternError::Semantic(
                            "'<->' between two distinct primitive events can                              never hold; entanglement needs compound operands"
                                .into(),
                        ));
                    }
                    // Overlapping operands are trivially entangled: no
                    // constraint needed.
                    if !shares_leaf {
                        g.list(Constraint::Entangled {
                            left: ls.clone(),
                            right: rs.clone(),
                        });
                    }
                }
                BinOp::Partner | BinOp::Lim => {
                    if !single {
                        return Err(PatternError::Semantic(format!(
                            "'{op}' requires primitive-event operands"
                        )));
                    }
                    let (from, to) = (ls[0], rs[0]);
                    g.relate_leaves(from, to, PairRel::Before);
                    g.list(if *op == BinOp::Partner {
                        Constraint::Partner {
                            send: from,
                            recv: to,
                        }
                    } else {
                        Constraint::Lim { from, to }
                    });
                }
            }
            let mut set = ls;
            for l in rs {
                if !set.contains(&l) {
                    set.push(l);
                }
            }
            Ok(set)
        }
    }
}
