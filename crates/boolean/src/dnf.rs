//! Conversion between [`Formula`] trees and sum-of-products ([`Sop`]) form.
//!
//! The conversion pushes negations to the leaves (negation normal form) and
//! distributes conjunction over disjunction. This is worst-case exponential
//! — as the paper notes for its Algorithms 1 and 2 — but runs at query
//! *compilation* time on small constraint systems.

use crate::cube::{Cube, Literal, Sop};
use crate::formula::Formula;

/// Converts a formula to sum-of-products form (with absorption applied).
pub fn formula_to_sop(f: &Formula) -> Sop {
    to_sop(f, true)
}

fn to_sop(f: &Formula, polarity: bool) -> Sop {
    match (f, polarity) {
        (Formula::Zero, true) | (Formula::One, false) => Sop::zero(),
        (Formula::One, true) | (Formula::Zero, false) => Sop::one(),
        (Formula::Var(v), p) => Sop::from_cubes([Cube::literal(Literal {
            var: *v,
            positive: p,
        })]),
        (Formula::Not(g), p) => to_sop(g, !p),
        (Formula::And(a, b), true) | (Formula::Or(a, b), false) => {
            to_sop(a, polarity).and(&to_sop(b, polarity))
        }
        (Formula::Or(a, b), true) | (Formula::And(a, b), false) => {
            to_sop(a, polarity).or(&to_sop(b, polarity))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    /// Exhaustively checks semantic equality of two-valued functions.
    fn equivalent(f: &Formula, s: &Sop, nvars: u32) {
        for bits in 0u32..(1 << nvars) {
            let assign = |x: Var| bits >> x.0 & 1 == 1;
            assert_eq!(
                f.eval2(assign),
                s.eval2(assign),
                "bits={bits:b} f={f} s={s}"
            );
        }
    }

    #[test]
    fn simple_conversions() {
        let f = Formula::and(Formula::or(v(0), v(1)), Formula::not(v(2)));
        let s = formula_to_sop(&f);
        equivalent(&f, &s, 3);
    }

    #[test]
    fn negation_pushes_through() {
        // ~(x & (y | ~z)) = ~x | ~y & z
        let f = Formula::not(Formula::and(v(0), Formula::or(v(1), Formula::not(v(2)))));
        let s = formula_to_sop(&f);
        equivalent(&f, &s, 3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn contradictions_vanish() {
        // x & ~x ⇒ empty SOP
        let f = Formula::And(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::not(v(0))),
        );
        assert!(formula_to_sop(&f).is_zero());
    }

    #[test]
    fn tautology_collapses() {
        // x | ~x ⇒ contains complementary single-literal cubes; not
        // necessarily the single cube 1, but semantically 1.
        let f = Formula::Or(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::not(v(0))),
        );
        let s = formula_to_sop(&f);
        equivalent(&f, &s, 1);
    }

    #[test]
    fn xor_has_two_cubes() {
        let f = Formula::xor(v(0), v(1));
        let s = formula_to_sop(&f);
        equivalent(&f, &s, 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn round_trip_formula() {
        let f = Formula::or(Formula::and(v(0), Formula::not(v(1))), v(2));
        let s = formula_to_sop(&f);
        let g = s.to_formula();
        equivalent(&g, &s, 3);
    }
}
