//! Algebra-generic evaluation of symbolic formulas.
//!
//! Two entry points: [`eval_formula`] returns an owned element (cloning
//! at variable leaves), while [`eval_formula_in`] works over any
//! [`VarLookup`] and returns a [`Val`] that borrows leaf elements — the
//! executors' zero-clone path, where a formula that reduces to a single
//! variable never copies the (potentially fragment-heavy) element.

use scq_boolean::{Formula, Var};

use crate::assignment::{Assignment, VarLookup};
use crate::traits::BooleanAlgebra;

/// An evaluation result that is either a borrow of a bound element or
/// an owned intermediate — `Cow` without the `ToOwned` machinery.
#[derive(Debug)]
pub enum Val<'a, E> {
    /// A borrow of an element bound in the assignment.
    Ref(&'a E),
    /// An element computed during evaluation.
    Owned(E),
}

impl<E> AsRef<E> for Val<'_, E> {
    fn as_ref(&self) -> &E {
        match self {
            Val::Ref(e) => e,
            Val::Owned(e) => e,
        }
    }
}

impl<E> Val<'_, E> {
    /// The owned value, cloning only in the borrowed case.
    fn into_owned(self) -> E
    where
        E: Clone,
    {
        match self {
            Val::Ref(e) => e.clone(),
            Val::Owned(e) => e,
        }
    }
}

/// Evaluates `f` in `alg` over any assignment storage, without cloning
/// elements at variable leaves.
///
/// Every variable occurring in `f` must be bound; otherwise the first
/// unbound variable is reported.
pub fn eval_formula_in<'l, A: BooleanAlgebra, L: VarLookup<A::Elem>>(
    alg: &A,
    f: &Formula,
    lookup: &'l L,
) -> Result<Val<'l, A::Elem>, UnboundVar> {
    match f {
        Formula::Zero => Ok(Val::Owned(alg.zero())),
        Formula::One => Ok(Val::Owned(alg.one())),
        Formula::Var(v) => lookup.lookup(*v).map(Val::Ref).ok_or(UnboundVar(*v)),
        Formula::Not(g) => {
            let x = eval_formula_in(alg, g, lookup)?;
            Ok(Val::Owned(alg.complement(x.as_ref())))
        }
        Formula::And(a, b) => {
            let x = eval_formula_in(alg, a, lookup)?;
            if alg.is_zero(x.as_ref()) {
                return Ok(Val::Owned(alg.zero())); // short-circuit: 0 ∧ _ = 0
            }
            let y = eval_formula_in(alg, b, lookup)?;
            Ok(Val::Owned(alg.meet(x.as_ref(), y.as_ref())))
        }
        Formula::Or(a, b) => {
            let x = eval_formula_in(alg, a, lookup)?;
            let y = eval_formula_in(alg, b, lookup)?;
            Ok(Val::Owned(alg.join(x.as_ref(), y.as_ref())))
        }
    }
}

/// Error for evaluation under an incomplete assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnboundVar(pub Var);

impl std::fmt::Display for UnboundVar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "variable {} is not bound", self.0)
    }
}

impl std::error::Error for UnboundVar {}

/// Evaluates `f` in `alg` under `assign`.
///
/// Every variable occurring in `f` must be bound; otherwise the first
/// unbound variable is reported.
pub fn eval_formula<A: BooleanAlgebra>(
    alg: &A,
    f: &Formula,
    assign: &Assignment<A::Elem>,
) -> Result<A::Elem, UnboundVar> {
    eval_formula_in(alg, f, assign).map(Val::into_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitsetAlgebra;
    use crate::bool2::Bool2;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn matches_two_valued_eval() {
        let f = Formula::or(Formula::and(v(0), Formula::not(v(1))), v(2));
        for bits in 0u32..8 {
            let mut assign = Assignment::new();
            for i in 0..3 {
                assign.bind(Var(i), bits >> i & 1 == 1);
            }
            let got = eval_formula(&Bool2, &f, &assign).unwrap();
            assert_eq!(got, f.eval2(|x| bits >> x.0 & 1 == 1));
        }
    }

    #[test]
    fn unbound_variable_is_reported() {
        let f = Formula::and(v(0), v(7));
        let assign = Assignment::new().with(Var(0), true);
        assert_eq!(eval_formula(&Bool2, &f, &assign), Err(UnboundVar(Var(7))));
    }

    #[test]
    fn short_circuit_skips_unbound_branch() {
        // 0 ∧ x7 with x7 unbound: fine, because the meet is already 0.
        let f = Formula::And(
            std::sync::Arc::new(Formula::Zero),
            std::sync::Arc::new(v(7)),
        );
        let assign: Assignment<bool> = Assignment::new();
        assert_eq!(eval_formula(&Bool2, &f, &assign), Ok(false));
    }

    #[test]
    fn bitset_evaluation() {
        let alg = BitsetAlgebra::new(8);
        // f = (x ∧ ¬y) ∨ z over concrete sets
        let f = Formula::or(Formula::and(v(0), Formula::not(v(1))), v(2));
        let assign = Assignment::new()
            .with(Var(0), 0b1111_0000u64)
            .with(Var(1), 0b1100_0000u64)
            .with(Var(2), 0b0000_0011u64);
        let got = eval_formula(&alg, &f, &assign).unwrap();
        assert_eq!(got, 0b0011_0011);
    }

    #[test]
    fn borrowed_eval_matches_owned_eval() {
        use crate::assignment::FlatAssignment;
        let alg = BitsetAlgebra::new(8);
        let f = Formula::or(Formula::and(v(0), Formula::not(v(1))), v(2));
        let (e0, e1, e2) = (0b1111_0000u64, 0b1100_0000u64, 0b0000_0011u64);
        let owned = Assignment::new()
            .with(Var(0), e0)
            .with(Var(1), e1)
            .with(Var(2), e2);
        let mut flat: FlatAssignment<'_, u64> = FlatAssignment::with_capacity(3);
        flat.bind(Var(0), &e0).bind(Var(1), &e1).bind(Var(2), &e2);
        let a = eval_formula(&alg, &f, &owned).unwrap();
        let b = eval_formula_in(&alg, &f, &flat).unwrap();
        assert_eq!(a, *b.as_ref());
        assert_eq!(a, b.into_owned());
    }

    #[test]
    fn borrowed_eval_returns_leaf_by_reference() {
        use crate::assignment::FlatAssignment;
        let alg = BitsetAlgebra::new(4);
        let e = 0b1010u64;
        let mut flat: FlatAssignment<'_, u64> = FlatAssignment::with_capacity(1);
        flat.bind(Var(0), &e);
        match eval_formula_in(&alg, &Formula::var(Var(0)), &flat).unwrap() {
            Val::Ref(r) => assert!(std::ptr::eq(r, &e), "leaf is the bound element itself"),
            Val::Owned(_) => panic!("variable leaf must not be copied"),
        }
    }

    #[test]
    fn borrowed_eval_reports_unbound() {
        use crate::assignment::FlatAssignment;
        let alg = BitsetAlgebra::new(2);
        let flat: FlatAssignment<'_, u64> = FlatAssignment::with_capacity(2);
        match eval_formula_in(&alg, &Formula::var(Var(1)), &flat) {
            Err(UnboundVar(v)) => assert_eq!(v, Var(1)),
            other => panic!("expected unbound error, got {other:?}"),
        }
    }

    #[test]
    fn constants_need_no_bindings() {
        let alg = BitsetAlgebra::new(4);
        let assign: Assignment<u64> = Assignment::new();
        assert_eq!(eval_formula(&alg, &Formula::One, &assign), Ok(alg.one()));
        assert_eq!(eval_formula(&alg, &Formula::Zero, &assign), Ok(0));
    }
}
