//! A seeded random formula generator for property tests.
//!
//! It takes an external [`Rng`] so callers control seeding and
//! reproducibility.

use rand::{Rng, RngExt};

use crate::formula::Formula;
use crate::var::Var;

/// Parameters for random formula generation.
#[derive(Clone, Copy, Debug)]
pub struct FormulaConfig {
    /// Number of distinct variables `x0..x{nvars-1}`.
    pub nvars: u32,
    /// Maximum AST depth.
    pub depth: u32,
    /// Probability of generating a constant leaf instead of a variable.
    pub const_prob: f64,
}

impl Default for FormulaConfig {
    fn default() -> Self {
        FormulaConfig {
            nvars: 4,
            depth: 5,
            const_prob: 0.05,
        }
    }
}

/// Generates a random formula.
pub fn random_formula<R: Rng + ?Sized>(rng: &mut R, cfg: &FormulaConfig) -> Formula {
    if cfg.depth == 0 || rng.random_range(0..4) == 0 {
        if rng.random_bool(cfg.const_prob) {
            return if rng.random_bool(0.5) {
                Formula::Zero
            } else {
                Formula::One
            };
        }
        return Formula::var(Var(rng.random_range(0..cfg.nvars)));
    }
    let smaller = FormulaConfig {
        depth: cfg.depth - 1,
        ..*cfg
    };
    match rng.random_range(0..3) {
        0 => Formula::not(random_formula(rng, &smaller)),
        1 => Formula::and(random_formula(rng, &smaller), random_formula(rng, &smaller)),
        _ => Formula::or(random_formula(rng, &smaller), random_formula(rng, &smaller)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_under_seed() {
        let cfg = FormulaConfig {
            nvars: 5,
            depth: 6,
            const_prob: 0.1,
        };
        let f1 = random_formula(&mut StdRng::seed_from_u64(42), &cfg);
        let f2 = random_formula(&mut StdRng::seed_from_u64(42), &cfg);
        assert_eq!(f1, f2);
    }

    #[test]
    fn respects_variable_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = FormulaConfig {
            nvars: 3,
            depth: 8,
            const_prob: 0.0,
        };
        for _ in 0..50 {
            let f = random_formula(&mut rng, &cfg);
            assert!(f.vars().iter().all(|v| v.0 < 3));
        }
    }
}
