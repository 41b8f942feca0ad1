//! Constructive constraint solving over atomless algebras.
//!
//! The paper's Theorem 7 says projection is *exact* quantifier
//! elimination on atomless algebras: whenever the triangular system's
//! prefix constraints hold, a continuation exists. This module makes
//! that constructive — `solve` synthesizes an actual element for every
//! variable, row by row, using the witness construction of Lemma 3 /
//! Theorem 6 (implemented in [`crate::proj::witness`], refined here with
//! reservation of `¬x`-side regions).
//!
//! This turns the optimizer into a small *constraint solver* for
//! regions: given `A ⊆ C ∧ R ∩ A ≠ ∅ ∧ …` with some variables known,
//! it produces concrete regions for the rest — useful for testing, for
//! integrity-constraint repair, and as an executable model of the
//! paper's semantics.
//!
//! Completeness note: the reservation heuristic can, in contrived
//! cases, fail on a satisfiable row (it returns `None` rather than a
//! wrong answer; the defensive re-verification in `witness` guarantees
//! soundness). The full Theorem 6 construction would require refining
//! the partition generated by all row operands.

use scq_algebra::eval::UnboundVar;
use scq_algebra::{eval_formula, Assignment, Atomless};

use crate::constraint::GroundStatus;
use crate::triangular::TriangularSystem;

/// Synthesizes values for every unbound variable of the triangular
/// system, in retrieval order.
///
/// `assign` carries the known variables (which must satisfy their own
/// rows); the returned assignment extends it with constructed elements
/// for the rest, or `None` when the system (with those knowns) is
/// unsatisfiable.
pub(crate) fn solve<A: Atomless>(
    tri: &TriangularSystem,
    alg: &A,
    assign: &Assignment<A::Elem>,
) -> Result<Option<Assignment<A::Elem>>, UnboundVar> {
    if tri.ground.ground_status() == GroundStatus::Unsatisfiable {
        return Ok(None);
    }
    let mut out = assign.clone();
    for row in &tri.rows {
        if out.is_bound(row.var) {
            // Known variable: its row is a constraint on the inputs.
            if !row.check(alg, &out)? {
                return Ok(None);
            }
            continue;
        }
        let lower = eval_formula(alg, &row.lower, &out)?;
        let upper = eval_formula(alg, &row.upper, &out)?;
        let diseqs: Vec<(A::Elem, A::Elem)> = row
            .diseqs
            .iter()
            .map(|d| {
                Ok((
                    eval_formula(alg, &d.p, &out)?,
                    eval_formula(alg, &d.q, &out)?,
                ))
            })
            .collect::<Result<_, UnboundVar>>()?;
        match crate::proj::witness(alg, &lower, &upper, &diseqs) {
            Some(x) => {
                out.bind(row.var, x);
            }
            None => return Ok(None),
        }
    }
    Ok(Some(out))
}

/// Convenience: normalize, triangularize in the given order, and solve.
pub fn solve_system<A: Atomless>(
    system: &crate::constraint::NormalSystem,
    order: &[scq_boolean::Var],
    alg: &A,
    knowns: &Assignment<A::Elem>,
) -> Result<Option<Assignment<A::Elem>>, UnboundVar> {
    let tri = crate::triangular::triangularize(system, order);
    solve(&tri, alg, knowns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_normal;
    use crate::constraint::{normalize, Constraint, NormalSystem};
    use crate::triangular::triangularize;
    use scq_algebra::BooleanAlgebra;
    use scq_boolean::{Formula, Var};
    use scq_region::{AaBox, Region, RegionAlgebra};

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    fn alg() -> RegionAlgebra<2> {
        RegionAlgebra::new(AaBox::new([0.0, 0.0], [100.0, 100.0]))
    }

    #[test]
    fn solves_smuggler_with_knowns() {
        // C=0, A=1, T=2, R=3, B=4 — synthesize T, R, B from scratch.
        let cs = vec![
            Constraint::Subset(v(1), v(0)),
            Constraint::Subset(v(4), v(0)),
            Constraint::Subset(v(3), Formula::or_all([v(1), v(4), v(2)])),
            Constraint::Overlaps(v(3), v(1)),
            Constraint::Overlaps(v(3), v(2)),
            Constraint::ProperSubset(v(2), v(0)),
        ];
        let sys = normalize(&cs);
        let order = [Var(0), Var(1), Var(2), Var(3), Var(4)];
        let tri = triangularize(&sys, &order);
        let a = alg();
        let knowns = Assignment::new()
            .with(
                Var(0),
                Region::from_box(AaBox::new([10.0, 10.0], [90.0, 90.0])),
            )
            .with(
                Var(1),
                Region::from_box(AaBox::new([60.0, 40.0], [70.0, 50.0])),
            );
        let solved = solve(&tri, &a, &knowns).unwrap().expect("satisfiable");
        // The synthesized assignment satisfies the ORIGINAL system.
        assert!(check_normal(&a, &sys, &solved).unwrap());
        // and spot-check the geometry
        let t = solved.get(Var(2)).unwrap();
        let c = solved.get(Var(0)).unwrap();
        assert!(t.subset_of(c) && !t.same_set(c));
    }

    #[test]
    fn detects_unsatisfiable_knowns() {
        // A ⊆ C with A sticking out of C.
        let sys = normalize(&[Constraint::Subset(v(1), v(0))]);
        let tri = triangularize(&sys, &[Var(0), Var(1)]);
        let a = alg();
        let knowns = Assignment::new()
            .with(
                Var(0),
                Region::from_box(AaBox::new([0.0, 0.0], [10.0, 10.0])),
            )
            .with(
                Var(1),
                Region::from_box(AaBox::new([50.0, 50.0], [60.0, 60.0])),
            );
        assert!(solve(&tri, &a, &knowns).unwrap().is_none());
    }

    #[test]
    fn detects_propositionally_unsat() {
        let sys = NormalSystem {
            eq: v(0),
            neqs: vec![v(0)],
        };
        let tri = triangularize(&sys, &[Var(0)]);
        let a = alg();
        assert!(solve(&tri, &a, &Assignment::new()).unwrap().is_none());
    }

    #[test]
    fn synthesizes_chain_of_proper_subsets() {
        // x0 ⊂ x1 ⊂ x2 ⊂ x3, all nonempty, from nothing.
        let cs = vec![
            Constraint::ProperSubset(v(0), v(1)),
            Constraint::ProperSubset(v(1), v(2)),
            Constraint::ProperSubset(v(2), v(3)),
            Constraint::NotSubset(v(0), Formula::Zero),
        ];
        let sys = normalize(&cs);
        let order = [Var(3), Var(2), Var(1), Var(0)];
        let a = alg();
        let solved = solve_system(&sys, &order, &a, &Assignment::new())
            .unwrap()
            .expect("satisfiable");
        assert!(check_normal(&a, &sys, &solved).unwrap());
        for i in 0..3 {
            let lo = solved.get(Var(i)).unwrap();
            let hi = solved.get(Var(i + 1)).unwrap();
            assert!(lo.subset_of(hi) && !lo.same_set(hi));
        }
        assert!(!solved.get(Var(0)).unwrap().is_empty());
    }

    #[test]
    fn random_systems_solutions_verify() {
        // Whatever `solve` returns must satisfy the system — across a
        // batch of random systems (None is acceptable; wrong answers
        // are not).
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use scq_boolean::random::{random_formula, FormulaConfig};
        let a = alg();
        let mut rng = StdRng::seed_from_u64(7177);
        let cfg = FormulaConfig {
            nvars: 3,
            depth: 3,
            const_prob: 0.05,
        };
        let mut solved_count = 0;
        for _ in 0..40 {
            let sys = NormalSystem {
                eq: random_formula(&mut rng, &cfg),
                neqs: vec![random_formula(&mut rng, &cfg)],
            };
            let order = [Var(0), Var(1), Var(2)];
            if let Some(solved) = solve_system(&sys, &order, &a, &Assignment::new()).unwrap() {
                solved_count += 1;
                assert!(
                    check_normal(&a, &sys, &solved).unwrap(),
                    "solve returned a non-solution for {} / {:?}",
                    sys.eq,
                    sys.neqs
                );
            }
        }
        assert!(
            solved_count > 5,
            "solver should succeed on a decent fraction"
        );
    }

    #[test]
    fn equality_forces_exact_value() {
        // x1 = ¬x0 (complement): solver must produce the exact
        // complement region.
        let sys = normalize(&[Constraint::Eq(v(1), Formula::not(v(0)))]);
        let a = alg();
        let x0 = Region::from_box(AaBox::new([20.0, 20.0], [60.0, 60.0]));
        let knowns = Assignment::new().with(Var(0), x0.clone());
        let solved = solve_system(&sys, &[Var(0), Var(1)], &a, &knowns)
            .unwrap()
            .expect("satisfiable");
        let x1 = solved.get(Var(1)).unwrap();
        assert!(a.eq_elem(x1, &a.complement(&x0)));
    }
}
