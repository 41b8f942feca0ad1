#![warn(missing_docs)]

//! Symbolic Boolean formulas and the classical algebraic machinery used by
//! the constraint-based spatial query optimizer of Helm, Marriott and
//! Odersky (PODS 1991).
//!
//! This crate is a *substrate*: it knows nothing about regions or spatial
//! indexes. It provides
//!
//! * [`Formula`] — a shared-subterm Boolean formula AST with smart
//!   constructors, substitution and cofactors,
//! * [`cube::Cube`] / [`cube::Sop`] — terms (conjunctions of literals) and
//!   sum-of-products forms, with consensus and absorption,
//! * [`bcf`] — the Blake canonical form (the sum of all prime implicants),
//!   computed by iterated consensus, together with the syllogistic order
//!   used by Blake's theorem,
//! * [`Bdd`] — a reduced ordered binary decision diagram engine used for
//!   semantic checks (equivalence, constancy, satisfiability),
//! * [`quant`] — Boole's and Schröder's theorems as executable functions
//!   (existential quantification of equations, range form, expansion),
//! * [`parse`] — a small text syntax for formulas,
//! * [`random`] — a seeded random formula generator for property tests.
//!
//! Formulas are interpreted over an *arbitrary* Boolean algebra (regions,
//! bit sets, the two-valued algebra…); evaluation lives in `scq-algebra`.
//! Two formulas are considered equivalent when they are equivalent in the
//! free Boolean algebra, i.e. propositionally — which by the paper's
//! Theorem 8 coincides with equivalence over all (atomless) algebras.

pub mod bcf;
pub mod bdd;
pub mod cube;
pub mod dnf;
pub mod formula;
pub mod minimize;
pub mod parse;
pub mod quant;
pub mod random;
pub mod var;

pub use bcf::blake_canonical_form;
pub use bdd::Bdd;
pub use dnf::formula_to_sop;
pub use formula::Formula;
pub use parse::{parse_formula, ParseError};
pub use var::{Var, VarTable};
