//! The two-element Boolean algebra.

use crate::traits::BooleanAlgebra;

/// The two-valued algebra `{0, 1}`.
///
/// The paper points out that over `Bool2` negative constraints add no
/// power, because `x ≠ 0` is equivalent to `¬x = 0`; the tests below pin
/// that down. `Bool2` is atomic (its single nonzero element `1` is an
/// atom), so it is *not* [`crate::Atomless`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Bool2;

impl BooleanAlgebra for Bool2 {
    type Elem = bool;

    fn zero(&self) -> bool {
        false
    }

    fn one(&self) -> bool {
        true
    }

    fn meet(&self, a: &bool, b: &bool) -> bool {
        *a && *b
    }

    fn join(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }

    fn complement(&self, a: &bool) -> bool {
        !*a
    }

    fn is_zero(&self, a: &bool) -> bool {
        !*a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    #[test]
    fn satisfies_boolean_algebra_laws() {
        let elems = [false, true];
        laws::check_all(&Bool2, &elems);
    }

    #[test]
    fn negative_constraints_collapse() {
        // x ≠ 0 ⟺ ¬x = 0 in the two-valued algebra.
        let a = Bool2;
        for x in [false, true] {
            let neq_zero = !a.is_zero(&x);
            let comp_eq_zero = a.is_zero(&a.complement(&x));
            assert_eq!(neq_zero, comp_eq_zero);
        }
    }
}
