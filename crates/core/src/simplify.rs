//! Semantic formula simplification used throughout the compiler.

use scq_boolean::{blake_canonical_form, Bdd, Formula};

/// Simplifies a formula to a canonical small form:
///
/// * propositional constants collapse to `0`/`1` (BDD check);
/// * everything else becomes its Blake canonical form (the disjunction
///   of all prime implicants), which is canonical per function — two
///   equivalent formulas simplify to the identical AST.
///
/// Exponential in the worst case, which the paper accepts for query
/// *compilation* ("the number of variables in a constraint system can be
/// expected to be reasonably small").
pub(crate) fn simplify(f: &Formula) -> Formula {
    let mut bdd = Bdd::new();
    let n = bdd.from_formula(f);
    if bdd.is_zero(n) {
        return Formula::Zero;
    }
    if bdd.is_one(n) {
        return Formula::One;
    }
    blake_canonical_form(f).to_formula()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_boolean::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn constants_collapse() {
        let taut = Formula::Or(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::not(v(0))),
        );
        assert_eq!(simplify(&taut), Formula::One);
        let contra = Formula::And(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::not(v(0))),
        );
        assert_eq!(simplify(&contra), Formula::Zero);
    }

    #[test]
    fn canonical_across_syntax() {
        let f1 = Formula::and(Formula::or(v(0), v(1)), Formula::or(v(0), v(2)));
        let f2 = Formula::or(v(0), Formula::and(v(1), v(2)));
        assert_eq!(simplify(&f1), simplify(&f2));
    }

    #[test]
    fn preserves_semantics() {
        let f = Formula::or(
            Formula::and(v(0), Formula::not(v(1))),
            Formula::and(Formula::not(v(0)), v(2)),
        );
        let s = simplify(&f);
        let mut bdd = Bdd::new();
        assert!(bdd.equivalent(&f, &s));
    }

    #[test]
    fn absorbs_redundancy() {
        let f = Formula::Or(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::and(v(0), v(1))),
        );
        assert_eq!(simplify(&f), v(0));
    }
}
