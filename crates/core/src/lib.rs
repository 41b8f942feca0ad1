#![warn(missing_docs)]

//! The paper's primary contribution: compiling systems of multivariate
//! Boolean constraints into sequences of univariate **range queries**.
//!
//! Pipeline (mirroring the paper's sections):
//!
//! 1. [`constraint`] — the surface constraint language (`f ⊆ g`,
//!    `f = g`, `f ∩ g = ∅`, their negations …) and **Theorem 1**
//!    normalization into `f = 0 ∧ g₁ ≠ 0 ∧ … ∧ gₘ ≠ 0`.
//! 2. [`mod@proj`] — the best unquantified approximation `proj(S, x)` of
//!    `∃x S` (**Theorem 4** and the Definition after it), exact on
//!    atomless algebras (**Theorems 6–7**).
//! 3. [`triangular`] — **Algorithm 1**: repeated projection yields the
//!    triangular solved form `C₁(x₁) ∧ C₂(x₁,x₂) ∧ … ∧ Cₙ(x₁…xₙ)`, each
//!    row a range constraint `s ≤ xᵢ ≤ t` plus disequations
//!    `xᵢ·p ∨ ¬xᵢ·q ≠ 0` (**Theorems 10–11**).
//! 4. [`approx`] — **Algorithm 2**: best lower/upper bounding-box
//!    function approximations `L_f`, `U_f` via the Blake canonical form
//!    (**Theorems 16 & 18**).
//! 5. [`plan`] — assembling per-variable [`scq_bbox::CornerQuery`]
//!    builders: one spatial range query per retrieval step (Figure 3).
//!
//! The crate is algebra-generic: `check` evaluates everything exactly in
//! any [`scq_algebra::BooleanAlgebra`], and the compiled plans only
//! assume the bounding-box operator `⌈·⌉`.

pub mod approx;
pub mod check;
pub mod constraint;
pub mod parser;
pub mod plan;
pub mod proj;
mod simplify;
pub mod solve;
pub mod triangular;

pub use approx::{lower_bbox_fn, upper_bbox_fn, UpperBound};
pub use check::{check_normal, check_system, check_system_in};
pub use constraint::{Constraint, ConstraintSystem, NormalSystem};
pub use parser::parse_system;
pub use plan::BboxPlan;
pub use proj::{proj, witness};
pub use solve::solve_system;
pub use triangular::{triangularize, RowBounds, SolvedRow, TriangularSystem};
