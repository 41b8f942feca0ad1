//! Two-level minimization: irredundant sums of prime implicants.
//!
//! The Blake canonical form contains *all* prime implicants, which is
//! canonical but often redundant as an executable formula. Quine's
//! classical second step selects a subset that still covers the
//! function: essential prime implicants first, then a greedy cover of
//! the remainder. The result is an equivalent, usually much smaller SOP
//! — the query compiler uses it to shrink solved-row formulas before
//! they are evaluated per candidate tuple.
//!
//! Selection works on the implicant lattice itself (no truth tables):
//! a prime `p` is redundant iff it is implied by the disjunction of the
//! other selected primes, decided with the BDD engine. This keeps the
//! procedure exact for any number of variables, at BDD cost rather than
//! `2^n` table cost.

use crate::bcf::bcf_of_sop;
use crate::bdd::Bdd;
use crate::cube::{Cube, Sop};
use crate::dnf::formula_to_sop;
use crate::formula::Formula;

/// Returns an irredundant prime cover of `f`: a subset of the prime
/// implicants whose disjunction is equivalent to `f` and from which no
/// member can be dropped.
///
/// Greedy, so not guaranteed *minimum*, but always irredundant and
/// equivalent; essential primes (the only prime covering some minterm)
/// are always retained.
fn irredundant_sop(f: &Formula) -> Sop {
    let bcf = bcf_of_sop(formula_to_sop(f));
    irredundant_cover(&bcf)
}

/// Irredundant cover of an SOP already consisting of prime implicants.
fn irredundant_cover(primes: &Sop) -> Sop {
    if primes.is_zero() || primes.is_one() {
        return primes.clone();
    }
    let mut bdd = Bdd::new();
    let cubes: Vec<Cube> = primes.sorted_cubes();
    let full = bdd.from_formula(&primes.to_formula());

    // Order candidates largest-cube-first (fewest literals = biggest
    // coverage), so the greedy pass keeps strong implicants.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| cubes[i].len());

    let mut selected: Vec<bool> = vec![true; cubes.len()];
    // Try to drop cubes one at a time, weakest (most literals) first.
    for &i in order.iter().rev() {
        selected[i] = false;
        let rest = Formula::or_all(
            cubes
                .iter()
                .zip(&selected)
                .filter(|(_, &keep)| keep)
                .map(|(c, _)| c.to_formula()),
        );
        let rest_node = bdd.from_formula(&rest);
        if rest_node != full {
            selected[i] = true; // cube was essential w.r.t. current set
        }
    }
    Sop::from_cubes(
        cubes
            .into_iter()
            .zip(selected)
            .filter(|(_, keep)| *keep)
            .map(|(c, _)| c),
    )
}

/// Minimized formula: the irredundant prime cover as a formula.
pub fn minimize(f: &Formula) -> Formula {
    let mut bdd = Bdd::new();
    let n = bdd.from_formula(f);
    if bdd.is_zero(n) {
        return Formula::Zero;
    }
    if bdd.is_one(n) {
        return Formula::One;
    }
    irredundant_sop(f).to_formula()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blake_canonical_form;
    use crate::var::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn drops_consensus_redundancy() {
        // x·y ∨ ¬x·z ∨ y·z: the consensus term y·z is redundant.
        let f = Formula::or_all([
            Formula::and(v(0), v(1)),
            Formula::and(Formula::not(v(0)), v(2)),
            Formula::and(v(1), v(2)),
        ]);
        let bcf = blake_canonical_form(&f);
        assert_eq!(bcf.len(), 3, "BCF keeps all three primes");
        let irr = irredundant_sop(&f);
        assert_eq!(irr.len(), 2, "cover drops the consensus term");
        let mut bdd = Bdd::new();
        assert!(bdd.equivalent(&f, &irr.to_formula()));
    }

    #[test]
    fn keeps_essential_primes() {
        // xor has two essential primes; nothing can be dropped.
        let f = Formula::xor(v(0), v(1));
        let irr = irredundant_sop(&f);
        assert_eq!(irr.len(), 2);
    }

    #[test]
    fn constants() {
        assert_eq!(minimize(&Formula::Zero), Formula::Zero);
        assert_eq!(minimize(&Formula::One), Formula::One);
        let taut = Formula::Or(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::not(v(0))),
        );
        assert_eq!(minimize(&taut), Formula::One);
    }

    #[test]
    fn equivalence_on_random_formulas() {
        use crate::random::{random_formula, FormulaConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(909);
        let cfg = FormulaConfig {
            nvars: 5,
            depth: 5,
            const_prob: 0.05,
        };
        let mut bdd = Bdd::new();
        for _ in 0..60 {
            let f = random_formula(&mut rng, &cfg);
            let m = minimize(&f);
            assert!(bdd.equivalent(&f, &m), "minimize changed semantics of {f}");
            // never more cubes than the BCF
            let bcf = blake_canonical_form(&f);
            let irr = formula_to_sop(&m);
            assert!(irr.len() <= bcf.len().max(1));
        }
    }

    #[test]
    fn irredundance_property() {
        use crate::random::{random_formula, FormulaConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(44);
        let cfg = FormulaConfig {
            nvars: 4,
            depth: 4,
            const_prob: 0.0,
        };
        let mut bdd = Bdd::new();
        for _ in 0..30 {
            let f = random_formula(&mut rng, &cfg);
            let irr = irredundant_sop(&f);
            let cubes = irr.sorted_cubes();
            let full = bdd.from_formula(&irr.to_formula());
            for skip in 0..cubes.len() {
                let rest = Formula::or_all(
                    cubes
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != skip)
                        .map(|(_, c)| c.to_formula()),
                );
                let rest_node = bdd.from_formula(&rest);
                assert_ne!(rest_node, full, "cube {} was droppable in {f}", cubes[skip]);
            }
        }
    }
}
