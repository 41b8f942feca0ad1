//! Algebra-generic exact evaluation of constraints and systems.
//!
//! Each `*_in` checker is generic over [`VarLookup`] storage and
//! evaluates without cloning elements at variable leaves (the executors'
//! zero-clone path); [`check_system`] and [`check_normal`] take an
//! [`Assignment`] and delegate to it.

use scq_algebra::eval::UnboundVar;
use scq_algebra::{eval_formula_in, Assignment, BooleanAlgebra, VarLookup};

use crate::constraint::{Constraint, NormalSystem};

/// Whether a single surface constraint holds under `assign`.
fn check_constraint_in<A: BooleanAlgebra, L: VarLookup<A::Elem>>(
    alg: &A,
    c: &Constraint,
    assign: &L,
) -> Result<bool, UnboundVar> {
    let ev = |f| eval_formula_in(alg, f, assign);
    Ok(match c {
        Constraint::Subset(f, g) => alg.le(ev(f)?.as_ref(), ev(g)?.as_ref()),
        Constraint::NotSubset(f, g) => !alg.le(ev(f)?.as_ref(), ev(g)?.as_ref()),
        Constraint::Eq(f, g) => alg.eq_elem(ev(f)?.as_ref(), ev(g)?.as_ref()),
        Constraint::Neq(f, g) => !alg.eq_elem(ev(f)?.as_ref(), ev(g)?.as_ref()),
        Constraint::ProperSubset(f, g) => {
            let (a, b) = (ev(f)?, ev(g)?);
            alg.le(a.as_ref(), b.as_ref()) && !alg.eq_elem(a.as_ref(), b.as_ref())
        }
        Constraint::Disjoint(f, g) => alg.is_zero(&alg.meet(ev(f)?.as_ref(), ev(g)?.as_ref())),
        Constraint::Overlaps(f, g) => !alg.is_zero(&alg.meet(ev(f)?.as_ref(), ev(g)?.as_ref())),
    })
}

/// Whether every constraint of a system holds.
pub fn check_system<A: BooleanAlgebra>(
    alg: &A,
    constraints: &[Constraint],
    assign: &Assignment<A::Elem>,
) -> Result<bool, UnboundVar> {
    check_system_in(alg, constraints, assign)
}

/// [`check_system`] over any assignment storage.
pub fn check_system_in<A: BooleanAlgebra, L: VarLookup<A::Elem>>(
    alg: &A,
    constraints: &[Constraint],
    assign: &L,
) -> Result<bool, UnboundVar> {
    for c in constraints {
        if !check_constraint_in(alg, c, assign)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Whether a Theorem-1 normal system holds.
pub fn check_normal<A: BooleanAlgebra>(
    alg: &A,
    s: &NormalSystem,
    assign: &Assignment<A::Elem>,
) -> Result<bool, UnboundVar> {
    check_normal_in(alg, s, assign)
}

/// [`check_normal`] over any assignment storage.
fn check_normal_in<A: BooleanAlgebra, L: VarLookup<A::Elem>>(
    alg: &A,
    s: &NormalSystem,
    assign: &L,
) -> Result<bool, UnboundVar> {
    if !alg.is_zero(eval_formula_in(alg, &s.eq, assign)?.as_ref()) {
        return Ok(false);
    }
    for g in &s.neqs {
        if alg.is_zero(eval_formula_in(alg, g, assign)?.as_ref()) {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::normalize;
    use scq_algebra::BitsetAlgebra;
    use scq_boolean::{Formula, Var};

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn surface_and_normal_agree() {
        let alg = BitsetAlgebra::new(3);
        let cs = vec![
            Constraint::Subset(v(0), v(1)),
            Constraint::Overlaps(v(0), v(2)),
            Constraint::Neq(v(1), v(2)),
        ];
        let n = normalize(&cs);
        for a in alg.elements() {
            for b in alg.elements() {
                for c in alg.elements() {
                    let assign = Assignment::new()
                        .with(Var(0), a)
                        .with(Var(1), b)
                        .with(Var(2), c);
                    assert_eq!(
                        check_system(&alg, &cs, &assign).unwrap(),
                        check_normal(&alg, &n, &assign).unwrap(),
                    );
                }
            }
        }
    }

    #[test]
    fn unbound_variables_error() {
        let alg = BitsetAlgebra::new(2);
        let c = Constraint::Subset(v(0), v(5));
        let assign = Assignment::new().with(Var(0), 1u64);
        assert_eq!(
            check_constraint_in(&alg, &c, &assign),
            Err(UnboundVar(Var(5)))
        );
    }

    #[test]
    fn proper_subset_strictness() {
        let alg = BitsetAlgebra::new(2);
        let c = Constraint::ProperSubset(v(0), v(1));
        let strict = Assignment::new()
            .with(Var(0), 0b01u64)
            .with(Var(1), 0b11u64);
        assert!(check_constraint_in(&alg, &c, &strict).unwrap());
        let equal = Assignment::new()
            .with(Var(0), 0b11u64)
            .with(Var(1), 0b11u64);
        assert!(!check_constraint_in(&alg, &c, &equal).unwrap());
    }
}
