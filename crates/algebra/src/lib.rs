#![warn(missing_docs)]

//! Boolean algebras as first-class values, and evaluation of symbolic
//! formulas and constraint systems inside them.
//!
//! The paper's constraint language is interpreted over an arbitrary Boolean
//! algebra — typically the (atomless) algebra of measurable subsets of ℝᵏ,
//! but also finite powerset algebras and the two-valued algebra. This crate
//! provides:
//!
//! * [`BooleanAlgebra`] — the operations `0, 1, ∧, ∨, ¬` plus a zero test,
//!   with the derived order `≤`, difference and symmetric difference;
//! * [`Atomless`] — the property the paper's Theorems 6–8 rely on: every
//!   nonzero element strictly contains a nonzero element;
//! * `Bool2` (test-only) — the two-element algebra (where negative
//!   constraints add no expressive power, as the paper remarks);
//! * [`BitsetAlgebra`] — the finite powerset algebra `2^n` (atomic!), used
//!   to exhibit the paper's non-closure example `|y| ≥ 2`;
//! * [`eval_formula`] / [`Assignment`] — algebra-generic evaluation;
//! * [`laws`] — reusable law checkers (commutativity, distributivity,
//!   De Morgan, complementation …) used by the tests of every concrete
//!   algebra, including `scq-region`'s.

pub mod assignment;
pub mod bitset;
#[cfg(test)]
mod bool2;
pub mod eval;
pub mod laws;
pub mod traits;

pub use assignment::{Assignment, FlatAssignment, VarLookup};
pub use bitset::BitsetAlgebra;
pub use eval::{eval_formula, eval_formula_in, Val};
pub use traits::{Atomless, BooleanAlgebra};
