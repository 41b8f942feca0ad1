//! The finite powerset algebra `2^{0..n}` represented as bit masks.
//!
//! This algebra is **atomic** — the singletons are atoms — which makes it
//! the natural stage for the paper's non-closure example: the system
//! `∃x (x·¬y = 0 ∧ x ≠ 0 ∧ y·¬x ≠ 0)` forces `|y| ≥ 2`, a condition no
//! Boolean constraint over `y` can express, so `proj` is a strict
//! over-approximation here (and exact on atomless algebras).

use crate::traits::BooleanAlgebra;

/// The powerset algebra of `{0, 1, …, width-1}` with `width ≤ 64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitsetAlgebra {
    width: u32,
}

impl BitsetAlgebra {
    /// Creates the powerset algebra of a `width`-element set.
    ///
    /// # Panics
    /// If `width > 64` or `width == 0`.
    pub fn new(width: u32) -> Self {
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        BitsetAlgebra { width }
    }

    fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// The singleton `{i}`.
    pub fn singleton(&self, i: u32) -> u64 {
        assert!(i < self.width);
        1u64 << i
    }

    /// Number of ground elements in `a`.
    pub fn cardinality(&self, a: u64) -> u32 {
        (a & self.mask()).count_ones()
    }

    /// Iterates over all `2^width` elements (careful: exponential).
    pub fn elements(&self) -> impl Iterator<Item = u64> {
        let m = self.mask();
        (0..=m).take_while(move |&x| x <= m)
    }

    /// The atoms (singletons) of the algebra.
    #[cfg(test)]
    fn atoms(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.width).map(|i| 1u64 << i)
    }
}

impl BooleanAlgebra for BitsetAlgebra {
    type Elem = u64;

    fn zero(&self) -> u64 {
        0
    }

    fn one(&self) -> u64 {
        self.mask()
    }

    fn meet(&self, a: &u64, b: &u64) -> u64 {
        a & b
    }

    fn join(&self, a: &u64, b: &u64) -> u64 {
        a | b
    }

    fn complement(&self, a: &u64) -> u64 {
        !a & self.mask()
    }

    fn is_zero(&self, a: &u64) -> bool {
        a & self.mask() == 0
    }

    fn eq_elem(&self, a: &u64, b: &u64) -> bool {
        a & self.mask() == b & self.mask()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    #[test]
    fn laws_hold_on_width_4() {
        let a = BitsetAlgebra::new(4);
        let elems: Vec<u64> = a.elements().collect();
        assert_eq!(elems.len(), 16);
        laws::check_all(&a, &elems);
    }

    #[test]
    fn laws_hold_on_width_64() {
        let a = BitsetAlgebra::new(64);
        let elems = [0u64, u64::MAX, 0xDEAD_BEEF, 1 << 63, 0x0F0F_F0F0_1234_5678];
        laws::check_all(&a, &elems);
    }

    #[test]
    fn atoms_are_atomic() {
        // An atom has no proper nonzero subset.
        let a = BitsetAlgebra::new(5);
        for atom in a.atoms() {
            for e in a.elements() {
                let below = a.le(&e, &atom);
                assert!(
                    !(below && !a.is_zero(&e) && e != atom),
                    "atom {atom:b} has proper part {e:b}"
                );
            }
        }
    }

    #[test]
    fn cardinality_and_singletons() {
        let a = BitsetAlgebra::new(8);
        let s = a.join(&a.singleton(1), &a.singleton(5));
        assert_eq!(a.cardinality(s), 2);
        assert!(a.le(&a.singleton(1), &s));
        assert!(!a.le(&a.singleton(2), &s));
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn rejects_zero_width() {
        BitsetAlgebra::new(0);
    }

    #[test]
    fn complement_respects_mask() {
        let a = BitsetAlgebra::new(3);
        assert_eq!(a.complement(&0b101), 0b010);
        assert!(a.is_one(&0b111));
    }
}
