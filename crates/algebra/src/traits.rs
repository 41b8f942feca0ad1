//! The [`BooleanAlgebra`] and [`Atomless`] traits.

/// A Boolean algebra `(B, 0, 1, ∧, ∨, ¬)`.
///
/// Implementors provide the five operations and a zero test; the order,
/// difference, symmetric difference and one test are derived. The algebra
/// itself is a *value* (not just a type) because concrete algebras carry
/// parameters — the width of a powerset algebra, the universe box of a
/// region algebra.
pub trait BooleanAlgebra {
    /// The element type.
    type Elem: Clone + PartialEq + std::fmt::Debug;

    /// The bottom element `0`.
    fn zero(&self) -> Self::Elem;

    /// The top element `1`.
    fn one(&self) -> Self::Elem;

    /// Meet `a ∧ b` (intersection).
    fn meet(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Join `a ∨ b` (union).
    fn join(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Complement `¬a`.
    fn complement(&self, a: &Self::Elem) -> Self::Elem;

    /// Whether `a = 0`. This is the one semantic predicate the constraint
    /// checker needs (`f = 0` / `g ≠ 0`).
    fn is_zero(&self, a: &Self::Elem) -> bool;

    /// Whether `a = 1`.
    fn is_one(&self, a: &Self::Elem) -> bool {
        self.is_zero(&self.complement(a))
    }

    /// Difference `a ∧ ¬b`.
    fn diff(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.meet(a, &self.complement(b))
    }

    /// Symmetric difference `(a ∧ ¬b) ∨ (¬a ∧ b)`.
    fn sym_diff(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.join(&self.diff(a, b), &self.diff(b, a))
    }

    /// The algebra order `a ≤ b  ⟺  a ∧ ¬b = 0`.
    fn le(&self, a: &Self::Elem, b: &Self::Elem) -> bool {
        self.is_zero(&self.diff(a, b))
    }

    /// Whether `a ∧ b ≠ 0`. Algebras that can answer without building
    /// the meet override this.
    fn overlaps(&self, a: &Self::Elem, b: &Self::Elem) -> bool {
        !self.is_zero(&self.meet(a, b))
    }

    /// Semantic equality `a = b ⟺ a ⊕ b = 0`.
    ///
    /// Concrete algebras whose `Elem: PartialEq` is already semantic may
    /// override this with `a == b`.
    fn eq_elem(&self, a: &Self::Elem, b: &Self::Elem) -> bool {
        self.is_zero(&self.sym_diff(a, b))
    }
}

/// An *atomless* Boolean algebra: no minimal nonzero elements.
///
/// Formally (paper, Definition before Theorem 6): `x ≠ 0` is atomic iff
/// there is no `y` with `0 < y < x`; an algebra is atomless iff it has no
/// atomic elements. The measure algebra of ℝᵏ is atomless, and on atomless
/// algebras the `proj` operator of the paper computes *exactly*
/// `∃x S` (Theorem 7) rather than merely its best approximation.
pub trait Atomless: BooleanAlgebra {
    /// For a nonzero `a`, returns some `b` with `0 < b < a`.
    ///
    /// Returns `None` only when `a = 0`. The existence of such a `b` for
    /// every nonzero `a` *is* atomlessness, so this method doubles as the
    /// constructive witness used by the independence-theorem tests.
    fn proper_part(&self, a: &Self::Elem) -> Option<Self::Elem>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bool2::Bool2;

    #[test]
    fn derived_operations_on_bool2() {
        let a = Bool2;
        assert!(a.le(&false, &true));
        assert!(!a.le(&true, &false));
        assert!(a.eq_elem(&true, &true));
        assert!(!a.eq_elem(&true, &false));
        assert!(!a.diff(&true, &true));
        assert!(a.sym_diff(&true, &false));
        assert!(a.is_one(&true));
        assert!(!a.is_one(&false));
    }
}
