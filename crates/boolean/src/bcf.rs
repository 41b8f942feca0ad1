//! The Blake canonical form (BCF) — the disjunction of *all prime
//! implicants* of a Boolean function — computed by Blake's method of
//! iterated consensus and absorption, exactly as in §4 of the paper:
//!
//! > One method first converts `f` to an arbitrary sum-of-products formula
//! > and then repeatedly forms the consensus of two terms in `f` and
//! > simplifies by absorption until a fixpoint is reached.
//!
//! The BCF drives Algorithm 2 (best bounding-box approximations): the best
//! lower approximation `L_f` is the join of the single-atom terms of
//! `BCF(f)` (Theorem 16), and the best upper approximation `U_f` is
//! obtained by dropping negative literals from a sum-of-products form
//! (Theorem 18).
//!
//! Blake's theorem (Theorem 19 in the paper) reduces the *semantic* test
//! `g ≤ f` to the *syntactic* syllogistic test `g ≼ BCF(f)`; see
//! [`syllogistic_le`] and [`implies`].

use crate::cube::{Cube, Sop};
use crate::dnf::formula_to_sop;
use crate::formula::Formula;

/// Computes the Blake canonical form of `f`: the SOP of all prime
/// implicants, with no absorbed terms.
///
/// Worst-case exponential in the number of variables (as the paper notes,
/// acceptable because it runs during query compilation).
pub fn blake_canonical_form(f: &Formula) -> Sop {
    bcf_of_sop(formula_to_sop(f))
}

/// Iterated consensus + absorption on an SOP until fixpoint.
pub fn bcf_of_sop(start: Sop) -> Sop {
    if start.is_one() {
        return Sop::one();
    }
    let mut cubes: Vec<Cube> = start.sorted_cubes();
    // Work-list algorithm: try consensus between every pair; inserted
    // consensus terms participate in further rounds. Absorption is
    // maintained eagerly by `Sop::push`.
    let mut sop = Sop::from_cubes(cubes.drain(..));
    loop {
        let snapshot = sop.sorted_cubes();
        let mut grew = false;
        for i in 0..snapshot.len() {
            for j in (i + 1)..snapshot.len() {
                if let Some(c) = snapshot[i].consensus(&snapshot[j]) {
                    if c.is_one() {
                        return Sop::one();
                    }
                    grew |= sop.push(c);
                }
            }
        }
        if !grew {
            break;
        }
    }
    sop
}

/// Syllogistic order on SOP formulas (paper, before Theorem 19):
/// `g ≼ f` iff every term of `g` has a *subterm* in `f` — i.e. for each
/// cube of `g` some cube of `f` subsumes it.
pub fn syllogistic_le(g: &Sop, f: &Sop) -> bool {
    g.cubes()
        .iter()
        .all(|gc| f.cubes().iter().any(|fc| fc.subsumes(gc)))
}

/// Semantic implication `g ⟹ f` decided via Blake's theorem:
/// `g ≤ f ⟺ g ≼ BCF(f)` for any SOP `g`.
pub fn implies(g: &Formula, f: &Formula) -> bool {
    let g_sop = formula_to_sop(g);
    let f_bcf = blake_canonical_form(f);
    syllogistic_le(&g_sop, &f_bcf)
}

/// Semantic equivalence via two implications.
pub fn equivalent(f: &Formula, g: &Formula) -> bool {
    implies(f, g) && implies(g, f)
}

/// The single-atom (positive, length-1) terms of an SOP — the atoms `x`
/// with `x ≤ f` when the SOP is a BCF (paper, Theorem 16).
pub fn single_atom_terms(bcf: &Sop) -> Vec<crate::var::Var> {
    let mut out: Vec<crate::var::Var> = bcf
        .cubes()
        .iter()
        .filter(|c| c.len() == 1)
        .filter_map(|c| {
            let l = c.literals().next().expect("len 1");
            l.positive.then_some(l.var)
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Literal;
    use crate::var::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    fn cube(lits: &[(u32, bool)]) -> Cube {
        Cube::from_literals(lits.iter().map(|&(i, p)| Literal {
            var: Var(i),
            positive: p,
        }))
        .unwrap()
    }

    /// Checks BCF(f) ≡ f on all assignments.
    fn semantically_equal(f: &Formula, s: &Sop, nvars: u32) {
        for bits in 0u32..(1 << nvars) {
            let assign = |x: Var| bits >> x.0 & 1 == 1;
            assert_eq!(f.eval2(assign), s.eval2(assign), "bits={bits:b}");
        }
    }

    #[test]
    fn paper_example_2() {
        // §4 Example 2: f = (x & y) | (~x & y) | (x & z & ~w).
        // BCF(f) = y | x & z & ~w  (consensus on x yields y, which absorbs
        // both xy and ~xy).
        let (x, y, z, w) = (0, 1, 2, 3);
        let f = Formula::or_all([
            Formula::and(v(x), v(y)),
            Formula::and(Formula::not(v(x)), v(y)),
            Formula::and_all([v(x), v(z), Formula::not(v(w))]),
        ]);
        let bcf = blake_canonical_form(&f);
        let expected = Sop::from_cubes([
            cube(&[(y, true)]),
            cube(&[(x, true), (z, true), (w, false)]),
        ]);
        assert_eq!(bcf.sorted_cubes(), expected.sorted_cubes());
        semantically_equal(&f, &bcf, 4);
        // Example 3: the only single-atom term is y.
        assert_eq!(single_atom_terms(&bcf), vec![Var(y)]);
    }

    #[test]
    fn bcf_of_tautology_is_one() {
        let f = Formula::Or(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::not(v(0))),
        );
        assert!(blake_canonical_form(&f).is_one());
    }

    #[test]
    fn bcf_of_contradiction_is_zero() {
        let f = Formula::And(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::not(v(0))),
        );
        assert!(blake_canonical_form(&f).is_zero());
    }

    #[test]
    fn classic_consensus_chain() {
        // f = x&y | ~x&z has the derived prime implicant y&z.
        let f = Formula::or(
            Formula::and(v(0), v(1)),
            Formula::and(Formula::not(v(0)), v(2)),
        );
        let pis = blake_canonical_form(&f).sorted_cubes();
        assert!(pis.contains(&cube(&[(1, true), (2, true)])));
        assert_eq!(pis.len(), 3);
        semantically_equal(&f, &blake_canonical_form(&f), 3);
    }

    #[test]
    fn prime_implicants_are_implicants_and_prime() {
        let f = Formula::or_all([
            Formula::and(v(0), v(1)),
            Formula::and(Formula::not(v(1)), v(2)),
            Formula::and(v(0), v(2)),
        ]);
        let pis = blake_canonical_form(&f).sorted_cubes();
        for p in &pis {
            // implicant: p ⟹ f on all assignments
            for bits in 0u32..8 {
                let assign = |x: Var| bits >> x.0 & 1 == 1;
                if p.eval2(assign) {
                    assert!(f.eval2(assign), "{p} not an implicant");
                }
            }
            // prime: dropping any literal breaks implication
            for l in p.literals() {
                let mut shrunk: Vec<Literal> = p.literals().filter(|&m| m != l).collect();
                let smaller = Cube::from_literals(shrunk.drain(..)).unwrap();
                let violated = (0u32..8).any(|bits| {
                    let assign = |x: Var| bits >> x.0 & 1 == 1;
                    smaller.eval2(assign) && !f.eval2(assign)
                });
                assert!(violated, "{p} not prime: {smaller} still implies f");
            }
        }
    }

    #[test]
    fn syllogistic_matches_semantics() {
        let f = Formula::or(v(0), Formula::and(v(1), v(2)));
        let g = Formula::and(v(0), v(1));
        assert!(implies(&g, &f));
        assert!(!implies(&f, &g));
        assert!(equivalent(&f, &f));
    }

    #[test]
    fn implies_handles_constants() {
        assert!(implies(&Formula::Zero, &v(0)));
        assert!(implies(&v(0), &Formula::One));
        assert!(!implies(&Formula::One, &v(0)));
    }

    #[test]
    fn single_atom_terms_ignore_negative_literals() {
        // BCF of ~x is the single cube ~x: not a positive atom.
        let f = Formula::not(v(0));
        let bcf = blake_canonical_form(&f);
        assert!(single_atom_terms(&bcf).is_empty());
    }

    #[test]
    fn bcf_is_canonical_across_representations() {
        // Two different formulas for the same function get the same BCF.
        // x | x&y  vs  x
        let f1 = Formula::Or(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::and(v(0), v(1))),
        );
        let f2 = v(0);
        assert_eq!(
            blake_canonical_form(&f1).sorted_cubes(),
            blake_canonical_form(&f2).sorted_cubes()
        );
        // (x|y)&(x|z)  vs  x | y&z
        let g1 = Formula::and(Formula::or(v(0), v(1)), Formula::or(v(0), v(2)));
        let g2 = Formula::or(v(0), Formula::and(v(1), v(2)));
        assert_eq!(
            blake_canonical_form(&g1).sorted_cubes(),
            blake_canonical_form(&g2).sorted_cubes()
        );
    }
}
