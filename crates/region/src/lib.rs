#![warn(missing_docs)]

//! A concrete, exactly-computable model of the paper's "measurable
//! subsets of ℝᵏ": finite unions of **half-open** axis-aligned boxes.
//!
//! Half-open boxes `[lo, hi)` tile space without overlap or gap, so finite
//! unions of them are closed under union, intersection and complement
//! (relative to a universe box) with *exact* results — no epsilon, no
//! grid. The resulting algebra [`RegionAlgebra`] is a genuine Boolean
//! algebra and, over real coordinates, **atomless** in the paper's sense:
//! every nonempty region strictly contains a nonempty region (halve any
//! fragment). That makes it a faithful stage for Theorems 6–8, where
//! `proj` computes `∃x S` exactly.
//!
//! The bounding-box operator `⌈·⌉` of Section 4 is [`Region::bbox`],
//! returning the closed [`scq_bbox::Bbox`] used by the approximation
//! machinery and the spatial indexes.

pub mod aabox;
pub mod algebra;
pub mod region;

pub use aabox::AaBox;
pub use algebra::RegionAlgebra;
pub use region::{FragmentError, Region};
