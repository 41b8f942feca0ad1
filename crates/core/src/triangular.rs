//! Algorithm 1 of the paper: the triangular solved form.
//!
//! Given a normal system `S` in variables `x₁ … xₙ` (the *retrieval
//! order*), repeated projection produces
//!
//! ```text
//! C₁(x₁)
//! C₂(x₁, x₂)
//! …
//! Cₙ(x₁, …, xₙ)
//! ```
//!
//! where each `Cᵢ` is the strongest necessary condition on the prefix
//! `x₁…xᵢ` (exact over atomless algebras). Each `Cᵢ` is in *solved form*
//! with respect to `xᵢ`:
//!
//! ```text
//! s(x₁…xᵢ₋₁) ≤ xᵢ ≤ t(x₁…xᵢ₋₁)   ∧   ⋀ⱼ ( xᵢ·pⱼ ∨ ¬xᵢ·qⱼ ≠ 0 )
//! ```
//!
//! obtained from Schröder's theorem (range part) and Boole's expansion
//! (disequations). Because `s`, `t`, `pⱼ`, `qⱼ` mention only `x₁…xᵢ₋₁`,
//! the engine evaluates them once per retrieval level
//! ([`SolvedRow::bind_prefix`]) and then tests each candidate for `xᵢ`
//! against the bound row ([`RowBounds::admits`]), pruning useless
//! partial solution tuples; `scq-core::plan` compiles each row further
//! into a bounding-box range query.

use std::fmt;

use scq_algebra::eval::UnboundVar;
use scq_algebra::{eval_formula_in, Assignment, BooleanAlgebra, Val, VarLookup};
use scq_bbox::{Bbox, CornerQuery};
use scq_boolean::minimize::minimize;
use scq_boolean::quant::{boole_expansion, schroder_range};
use scq_boolean::{Formula, Var, VarTable};

use crate::constraint::NormalSystem;
use crate::proj::proj;

/// One disequation `x·p ∨ ¬x·q ≠ 0` of a solved row (Theorem 11 form).
#[derive(Clone, PartialEq, Debug)]
pub struct DiseqRow {
    /// Coefficient of `x`.
    pub p: Formula,
    /// Coefficient of `¬x`.
    pub q: Formula,
}

impl DiseqRow {}

/// The solved-form constraint `Cᵢ` for one retrieval step.
#[derive(Clone, PartialEq, Debug)]
pub struct SolvedRow {
    /// The variable `xᵢ` this row constrains.
    pub var: Var,
    /// Lower bound `s(x₁…xᵢ₋₁)`: the row requires `s ≤ xᵢ`.
    pub lower: Formula,
    /// Upper bound `t(x₁…xᵢ₋₁)`: the row requires `xᵢ ≤ t`.
    pub upper: Formula,
    /// The disequations `xᵢ·pⱼ ∨ ¬xᵢ·qⱼ ≠ 0`.
    pub diseqs: Vec<DiseqRow>,
}

impl SolvedRow {
    /// Exact evaluation of the row in an algebra: requires bindings for
    /// `var` and every earlier variable mentioned.
    pub fn check<A: BooleanAlgebra>(
        &self,
        alg: &A,
        assign: &Assignment<A::Elem>,
    ) -> Result<bool, UnboundVar> {
        self.check_in(alg, assign)
    }

    /// [`SolvedRow::check`] over any assignment storage, where the bound
    /// element and the variable leaves of `s`, `t`, `pⱼ`, `qⱼ` are read
    /// by reference instead of cloned.
    pub fn check_in<A: BooleanAlgebra, L: VarLookup<A::Elem>>(
        &self,
        alg: &A,
        assign: &L,
    ) -> Result<bool, UnboundVar> {
        let x = assign.lookup(self.var).ok_or(UnboundVar(self.var))?;
        Ok(self.bind_prefix(alg, assign)?.admits(alg, x))
    }

    /// Evaluates `s`, `t`, `pⱼ`, `qⱼ` under `prefix`, once for every
    /// candidate of `var` — the executors' hot path.
    ///
    /// Solved form guarantees the bounds mention only earlier variables,
    /// so the result does not depend on whether or to what `var` is
    /// bound. Variable leaves stay borrowed from `prefix`.
    pub fn bind_prefix<'a, A: BooleanAlgebra, L: VarLookup<A::Elem>>(
        &self,
        alg: &A,
        prefix: &'a L,
    ) -> Result<RowBounds<'a, A::Elem>, UnboundVar> {
        debug_assert!(
            !self.bounds().any(|f| f.mentions(self.var)),
            "solved row for {} mentions its own variable",
            self.var
        );
        let diseqs = self
            .diseqs
            .iter()
            .map(|d| {
                Ok((
                    eval_formula_in(alg, &d.p, prefix)?,
                    eval_formula_in(alg, &d.q, prefix)?,
                ))
            })
            .collect::<Result<_, UnboundVar>>()?;
        Ok(RowBounds {
            lower: eval_formula_in(alg, &self.lower, prefix)?,
            upper: eval_formula_in(alg, &self.upper, prefix)?,
            diseqs,
        })
    }

    /// `s`, `t` and every `pⱼ`, `qⱼ`.
    fn bounds(&self) -> impl Iterator<Item = &Formula> {
        [&self.lower, &self.upper]
            .into_iter()
            .chain(self.diseqs.iter().flat_map(|d| [&d.p, &d.q]))
    }

    /// Pretty-prints with variable names.
    pub(crate) fn display<'a>(&'a self, table: &'a VarTable) -> RowDisplay<'a> {
        RowDisplay { row: self, table }
    }
}

/// A solved row with its bounds evaluated for one prefix `x₁…xᵢ₋₁`
/// ([`SolvedRow::bind_prefix`]), ready to test candidates for `xᵢ`.
#[derive(Debug)]
pub struct RowBounds<'a, E> {
    lower: Val<'a, E>,
    upper: Val<'a, E>,
    /// `(pⱼ, qⱼ)` per disequation.
    diseqs: Vec<(Val<'a, E>, Val<'a, E>)>,
}

impl<E> RowBounds<'_, E> {
    /// Whether the row holds with `x` bound to its variable:
    /// `s ≤ x ≤ t` and, per disequation, `x∧p ≠ 0 ∨ q ≰ x` — exactly
    /// `x·p ∨ ¬x·q ≠ 0`, tested without building either side.
    pub fn admits<A: BooleanAlgebra<Elem = E>>(&self, alg: &A, x: &E) -> bool {
        alg.le(self.lower.as_ref(), x)
            && alg.le(x, self.upper.as_ref())
            && self
                .diseqs
                .iter()
                .all(|(p, q)| alg.overlaps(x, p.as_ref()) || !alg.le(q.as_ref(), x))
    }

    /// Narrows `within` by the boxes of the bound `s` and `t`, given
    /// the element-to-box map `bbox`: `s ≤ x ⇒ ⌈s⌉ ⊑ ⌈x⌉` and
    /// `x ≤ t ⇒ ⌈x⌉ ⊑ ⌈t⌉`. So every nonempty `x` the row admits has a
    /// box the result matches; an empty `x` has no box to match, and
    /// callers must let it through to [`RowBounds::admits`].
    pub fn box_query<const K: usize>(
        &self,
        within: CornerQuery<K>,
        bbox: impl Fn(&E) -> Bbox<K>,
    ) -> CornerQuery<K> {
        within
            .and_contains(&bbox(self.lower.as_ref()))
            .and_contained_in(&bbox(self.upper.as_ref()))
    }
}

/// Pretty-printer for solved rows.
pub(crate) struct RowDisplay<'a> {
    row: &'a SolvedRow,
    table: &'a VarTable,
}

impl fmt::Display for RowDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.table;
        let x = t.display(self.row.var);
        write!(
            f,
            "{} <= {} <= {}",
            self.row.lower.display(t),
            x,
            self.row.upper.display(t)
        )?;
        for d in &self.row.diseqs {
            // Cosmetic special cases: x·1 ∨ ¬x·0 ≠ 0 is just x ≠ 0, etc.
            match (&d.p, &d.q) {
                (Formula::One, Formula::Zero) => write!(f, ",  {x} != 0")?,
                (Formula::Zero, Formula::One) => write!(f, ",  ~{x} != 0")?,
                (p, Formula::Zero) => write!(f, ",  {} & {} != 0", x, p.display(t))?,
                (Formula::Zero, q) => write!(f, ",  ~{} & {} != 0", x, q.display(t))?,
                (p, q) => write!(
                    f,
                    ",  {} & {} | ~{} & {} != 0",
                    x,
                    p.display(t),
                    x,
                    q.display(t)
                )?,
            }
        }
        Ok(())
    }
}

/// The triangular solved form of a constraint system.
#[derive(Clone, Debug)]
pub struct TriangularSystem {
    /// The retrieval order `x₁ … xₙ`.
    pub order: Vec<Var>,
    /// `rows[i]` constrains `order[i]` in terms of `order[..i]`.
    pub rows: Vec<SolvedRow>,
    /// `S₀`: the ground residue after eliminating every variable. Its
    /// `NormalSystem::ground_status` decides global satisfiability
    /// (exactly, over atomless algebras).
    pub ground: NormalSystem,
}

impl TriangularSystem {
    /// The row for a given variable, if it is part of the order.
    pub fn row_for(&self, v: Var) -> Option<&SolvedRow> {
        self.rows.iter().find(|r| r.var == v)
    }

    /// Exact check of the full triangular system under a complete
    /// assignment.
    ///
    /// Checks every row *and* the ground residue. The residue matters:
    /// a disequation whose variables all cancel during elimination (it
    /// becomes a constant before any row captures it) survives only in
    /// `S₀` — e.g. `¬(x∧y) = 0 ∧ ¬x ≠ 0`, where the disequation reduces
    /// to `0` after the first projection. The conjunction of rows plus
    /// the residue is equivalent to the original system for complete
    /// assignments.
    pub fn check_all<A: BooleanAlgebra>(
        &self,
        alg: &A,
        assign: &Assignment<A::Elem>,
    ) -> Result<bool, UnboundVar> {
        if self.ground.ground_status() == crate::constraint::GroundStatus::Unsatisfiable {
            return Ok(false);
        }
        for row in &self.rows {
            if !row.check(alg, assign)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Pretty-prints all rows.
    pub fn display<'a>(&'a self, table: &'a VarTable) -> TriangularDisplay<'a> {
        TriangularDisplay { t: self, table }
    }
}

/// Pretty-printer for triangular systems.
pub struct TriangularDisplay<'a> {
    t: &'a TriangularSystem,
    table: &'a VarTable,
}

impl fmt::Display for TriangularDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, row) in self.t.rows.iter().enumerate() {
            writeln!(f, "C{}: {}", i + 1, row.display(self.table))?;
        }
        Ok(())
    }
}

/// Algorithm 1: computes the triangular solved form of `system` under
/// the given retrieval order.
///
/// `order` must contain every variable of `system` exactly once (extra
/// variables that never occur are allowed and produce unconstrained
/// rows `0 ≤ x ≤ 1`).
///
/// # Panics
/// If `order` has duplicates or misses a system variable.
pub fn triangularize(system: &NormalSystem, order: &[Var]) -> TriangularSystem {
    let mut seen = std::collections::BTreeSet::new();
    for v in order {
        assert!(seen.insert(*v), "duplicate variable {v} in retrieval order");
    }
    for v in system.vars() {
        assert!(
            seen.contains(&v),
            "system variable {v} missing from retrieval order"
        );
    }

    let mut rows: Vec<SolvedRow> = Vec::with_capacity(order.len());
    let mut current = system.simplified();
    // Eliminate from the last retrieval variable backwards (the paper's
    // `for i = n downto 1`).
    for &x in order.iter().rev() {
        // Range part (Schröder, Theorem 10): s = f[x←0], t = ¬f[x←1].
        let (s, t) = schroder_range(&current.eq, x);
        // Disequations in which x occurs (Boole, Theorem 11).
        let mut diseqs = Vec::new();
        for g in &current.neqs {
            if g.mentions(x) {
                let (p, q) = boole_expansion(g, x);
                diseqs.push(DiseqRow {
                    p: minimize(&p),
                    q: minimize(&q),
                });
            }
        }
        // Rows are evaluated exactly per candidate tuple: emit the
        // irredundant prime cover (minimize) rather than the full BCF.
        rows.push(SolvedRow {
            var: x,
            lower: minimize(&s),
            upper: minimize(&t),
            diseqs,
        });
        current = proj(&current, x).simplified();
    }
    rows.reverse();
    TriangularSystem {
        order: order.to_vec(),
        rows,
        ground: current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{normalize, Constraint, GroundStatus};
    use scq_algebra::{BitsetAlgebra, BooleanAlgebra};
    use scq_boolean::Bdd;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    /// Builds the paper's smuggler system (Figure 1) over variables
    /// C=0, A=1, T=2, R=3, B=4.
    fn smuggler() -> NormalSystem {
        let (c, a, t, r, b) = (v(0), v(1), v(2), v(3), v(4));
        let cs = vec![
            Constraint::Subset(a.clone(), c.clone()),
            Constraint::Subset(b.clone(), c.clone()),
            Constraint::Subset(
                r.clone(),
                Formula::or(Formula::or(a.clone(), b.clone()), t.clone()),
            ),
            Constraint::Overlaps(r.clone(), a.clone()),
            Constraint::Overlaps(r.clone(), t.clone()),
            Constraint::ProperSubset(t.clone(), c.clone()),
        ];
        normalize(&cs)
    }

    /// `f ≡ g` under the context `ctx = 0` (propositionally).
    fn equiv_under(bdd: &mut Bdd, ctx: &Formula, f: &Formula, g: &Formula) -> bool {
        let not_ctx_holds = Formula::not(ctx.clone()); // ctx = 0 means ¬ctx... careful:
                                                       // context is "ctx-formula evaluates to 0", i.e. assignments where
                                                       // ctx is false. f ≡ g there ⟺ ¬ctx → (f ⊕ g) is unsat ⟺
                                                       // ¬ctx ∧ (f ⊕ g) ≡ 0.
        let _ = not_ctx_holds;
        let xor = Formula::xor(f.clone(), g.clone());
        let test = Formula::and(Formula::not(ctx.clone()), xor);
        bdd.is_zero_formula(&test)
    }

    #[test]
    fn smuggler_triangular_matches_paper() {
        // Paper §2: with retrieval order T, R, B (C and A known) the
        // triangular form is
        //   0 ≤ T ≤ C,  (plus disequations making T nonempty)
        //   0 ≤ R ≤ C∨T,  A∧R ≠ 0,  R∧T ≠ 0
        //   R∧¬A∧¬T ≤ B ≤ C
        // modulo the context A ⊆ C ∧ T ⊆ C established by earlier rows.
        let sys = smuggler();
        let order = [Var(0), Var(1), Var(2), Var(3), Var(4)]; // C,A,T,R,B
        let tri = triangularize(&sys, &order);
        assert_eq!(tri.rows.len(), 5);
        let mut bdd = Bdd::new();
        let (c, a, t, r) = (v(0), v(1), v(2), v(3));
        // context: A∖C = 0 and T∖C = 0
        let ctx = Formula::or(
            Formula::diff(a.clone(), c.clone()),
            Formula::diff(t.clone(), c.clone()),
        );

        let row_b = tri.row_for(Var(4)).unwrap();
        assert!(bdd.equivalent(&row_b.upper, &c), "B ≤ C exactly");
        let want_lower =
            Formula::and_all([r.clone(), Formula::not(a.clone()), Formula::not(t.clone())]);
        assert!(
            equiv_under(&mut bdd, &ctx, &row_b.lower, &want_lower),
            "R∧¬A∧¬T ≤ B under context; got {}",
            row_b.lower
        );
        assert!(row_b.diseqs.is_empty(), "no disequation mentions B");

        let row_r = tri.row_for(Var(3)).unwrap();
        assert!(
            equiv_under(&mut bdd, &ctx, &row_r.lower, &Formula::Zero),
            "0 ≤ R under context"
        );
        let c_or_t = Formula::or(c.clone(), t.clone());
        assert!(
            equiv_under(&mut bdd, &ctx, &row_r.upper, &c_or_t),
            "R ≤ C∨T under context; got {}",
            row_r.upper
        );
        assert_eq!(row_r.diseqs.len(), 2, "A∧R ≠ 0 and R∧T ≠ 0");
        for d in &row_r.diseqs {
            // Both are pure x·p ≠ 0 disequations: q reduces to 0 in context.
            assert!(
                equiv_under(&mut bdd, &ctx, &d.q, &Formula::Zero),
                "diseq q-part vanishes; got {}",
                d.q
            );
        }
        let ps: Vec<bool> = row_r
            .diseqs
            .iter()
            .map(|d| equiv_under(&mut bdd, &ctx, &d.p, &a))
            .collect();
        assert!(ps.contains(&true), "one disequation is A∧R ≠ 0");

        let row_t = tri.row_for(Var(2)).unwrap();
        assert!(
            equiv_under(&mut bdd, &ctx, &row_t.lower, &Formula::Zero),
            "0 ≤ T"
        );
        assert!(
            equiv_under(&mut bdd, &ctx, &row_t.upper, &c),
            "T ≤ C; got {}",
            row_t.upper
        );
        assert!(
            !row_t.diseqs.is_empty(),
            "T is forced nonempty via disequations"
        );
    }

    #[test]
    fn smuggler_is_satisfiable() {
        let sys = smuggler();
        let order = [Var(0), Var(1), Var(2), Var(3), Var(4)];
        let tri = triangularize(&sys, &order);
        assert_eq!(tri.ground.ground_status(), GroundStatus::Valid);
    }

    #[test]
    fn rows_only_mention_earlier_variables() {
        let sys = smuggler();
        let order = [Var(0), Var(1), Var(2), Var(3), Var(4)];
        let tri = triangularize(&sys, &order);
        for (i, row) in tri.rows.iter().enumerate() {
            let allowed: std::collections::BTreeSet<Var> = order[..i].iter().copied().collect();
            let check = |f: &Formula| {
                for vv in f.vars() {
                    assert!(
                        allowed.contains(&vv),
                        "row {i} mentions later var {vv} in {f}"
                    );
                }
            };
            check(&row.lower);
            check(&row.upper);
            for d in &row.diseqs {
                check(&d.p);
                check(&d.q);
            }
            assert_eq!(row.var, order[i]);
        }
        assert!(tri.ground.is_ground());
    }

    #[test]
    fn triangular_is_necessary_condition() {
        // Any exact solution of S satisfies every row (soundness of the
        // solved form), exhaustively over small bitsets.
        use scq_algebra::eval_formula;
        let alg = BitsetAlgebra::new(2);
        let sys = NormalSystem {
            eq: Formula::diff(v(0), v(1)), // x0 ⊆ x1
            neqs: vec![Formula::and(v(0), v(2))],
        };
        let order = [Var(0), Var(1), Var(2)];
        let tri = triangularize(&sys, &order);
        for e0 in alg.elements() {
            for e1 in alg.elements() {
                for e2 in alg.elements() {
                    let assign = Assignment::new()
                        .with(Var(0), e0)
                        .with(Var(1), e1)
                        .with(Var(2), e2);
                    let s_holds = alg.is_zero(&eval_formula(&alg, &sys.eq, &assign).unwrap())
                        && sys
                            .neqs
                            .iter()
                            .all(|g| !alg.is_zero(&eval_formula(&alg, g, &assign).unwrap()));
                    if s_holds {
                        assert!(tri.check_all(&alg, &assign).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn unsatisfiable_system_has_unsat_ground() {
        // x ≠ 0 ∧ x = 0
        let sys = NormalSystem {
            eq: v(0),
            neqs: vec![v(0)],
        };
        let tri = triangularize(&sys, &[Var(0)]);
        assert_eq!(tri.ground.ground_status(), GroundStatus::Unsatisfiable);
    }

    #[test]
    fn unconstrained_variable_rows() {
        // A variable the system never mentions still gets a row. When it
        // is eliminated LAST (first in retrieval order), projection has
        // already reduced the system and the row is syntactically
        // trivial; when eliminated FIRST, Schröder yields f ≤ x ≤ ¬f,
        // which is trivial only modulo the remaining equation f = 0.
        let sys = NormalSystem {
            eq: v(0),
            neqs: vec![],
        };
        let tri = triangularize(&sys, &[Var(9), Var(0)]);
        let row9 = tri.row_for(Var(9)).unwrap();
        assert_eq!(row9.lower, Formula::Zero);
        assert_eq!(row9.upper, Formula::One);
        assert!(row9.diseqs.is_empty());

        let tri2 = triangularize(&sys, &[Var(0), Var(9)]);
        let row9b = tri2.row_for(Var(9)).unwrap();
        assert_eq!(row9b.lower, v(0), "Schröder lower bound is f itself");
        let mut bdd = Bdd::new();
        assert!(bdd.equivalent(&row9b.upper, &Formula::not(v(0))));
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_order_rejected() {
        let sys = NormalSystem::trivial();
        triangularize(&sys, &[Var(0), Var(0)]);
    }

    #[test]
    #[should_panic(expected = "missing from retrieval order")]
    fn missing_variable_rejected() {
        let sys = NormalSystem {
            eq: v(3),
            neqs: vec![],
        };
        triangularize(&sys, &[Var(0)]);
    }

    #[test]
    fn row_check_semantics() {
        // Row: x1 ≤ x0 ≤ 1, with diseq x0·x2 ∨ ¬x0·0 ≠ 0.
        let row = SolvedRow {
            var: Var(0),
            lower: v(1),
            upper: Formula::One,
            diseqs: vec![DiseqRow {
                p: v(2),
                q: Formula::Zero,
            }],
        };
        let alg = BitsetAlgebra::new(4);
        let ok = Assignment::new()
            .with(Var(0), 0b0111u64)
            .with(Var(1), 0b0011u64)
            .with(Var(2), 0b0100u64);
        assert!(row.check(&alg, &ok).unwrap());
        let bad_lower = Assignment::new()
            .with(Var(0), 0b0001u64)
            .with(Var(1), 0b0011u64)
            .with(Var(2), 0b0100u64);
        assert!(!row.check(&alg, &bad_lower).unwrap());
        let bad_diseq = Assignment::new()
            .with(Var(0), 0b0011u64)
            .with(Var(1), 0b0011u64)
            .with(Var(2), 0b0100u64);
        assert!(!row.check(&alg, &bad_diseq).unwrap());
    }

    /// The executors bind a row before any candidate for its variable is
    /// bound, which is sound only because no bound of a solved row
    /// mentions the row's own variable. Checked over all six orders of
    /// the smuggler's unknowns (after the knowns C, A) and both orders
    /// of the district system `T ≤ W ∧ R∧T ≠ 0` (after W): each row
    /// binds over its prefix alone and then decides candidates exactly
    /// like `check`.
    #[test]
    fn rows_bind_over_their_prefix_alone() {
        use scq_region::{AaBox, Region, RegionAlgebra};
        let alg = RegionAlgebra::new(AaBox::new([0.0, 0.0], [10.0, 10.0]));
        let region = |boxes: &[[f64; 4]]| {
            Region::from_boxes(boxes.iter().map(|b| AaBox::new([b[0], b[1]], [b[2], b[3]])))
        };
        let elems = [
            region(&[[0.0, 0.0, 10.0, 10.0]]),
            region(&[[1.0, 1.0, 6.0, 4.0]]),
            region(&[[2.0, 2.0, 4.0, 8.0], [4.0, 2.0, 9.0, 3.0]]),
            region(&[]),
            region(&[[3.0, 1.0, 5.0, 3.0]]),
        ];

        let (c, a, t, r, b) = (Var(0), Var(1), Var(2), Var(3), Var(4));
        let mut cases: Vec<(NormalSystem, Vec<Var>)> = [
            [t, r, b],
            [t, b, r],
            [r, t, b],
            [r, b, t],
            [b, t, r],
            [b, r, t],
        ]
        .into_iter()
        .map(|unknowns| (smuggler(), [vec![c, a], unknowns.to_vec()].concat()))
        .collect();
        let district = crate::parse_system("T <= W; R & T != 0").unwrap();
        let [w, t, r] = ["W", "T", "R"].map(|n| district.table.get(n).unwrap());
        cases.push((district.normalize(), vec![w, t, r]));
        cases.push((district.normalize(), vec![w, r, t]));

        for (sys, order) in &cases {
            let tri = triangularize(sys, order);
            for (i, row) in tri.rows.iter().enumerate() {
                assert!(
                    !row.bounds().any(|f| f.mentions(row.var)),
                    "order {order:?}: row {i} mentions {}",
                    row.var
                );
                let mut prefix = Assignment::new();
                for (j, v) in order[..i].iter().enumerate() {
                    prefix.bind(*v, elems[j % elems.len()].clone());
                }
                let bounds = row
                    .bind_prefix(&alg, &prefix)
                    .expect("bounds read only earlier variables");
                for x in &elems {
                    let full = prefix.clone().with(row.var, x.clone());
                    assert_eq!(
                        Ok(bounds.admits(&alg, x)),
                        row.check(&alg, &full),
                        "order {order:?}: row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn display_rows() {
        let sys = smuggler();
        let order = [Var(0), Var(1), Var(2), Var(3), Var(4)];
        let tri = triangularize(&sys, &order);
        let mut table = VarTable::new();
        for n in ["C", "A", "T", "R", "B"] {
            table.intern(n);
        }
        let text = tri.display(&table).to_string();
        assert!(text.contains("C1:"));
        assert!(text.contains("<= B <="), "row for B is printed: {text}");
    }
}
