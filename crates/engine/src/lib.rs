#![warn(missing_docs)]

//! The query engine: a spatial database of region objects plus the
//! incremental constraint-query evaluator of the paper's introduction.
//!
//! The engine materializes the paper's execution strategy:
//!
//! > The set of solution tuples is constructed incrementally … at each
//! > step the constraints C can be used to eliminate useless partial
//! > solution tuples in two ways. First, we need only keep those partial
//! > solutions for which there is some possible assignment to the
//! > remaining unknown variables which satisfies C. Second, when
//! > retrieving objects from the database … we use a range query to
//! > filter the choices.
//!
//! Three executors share one backtracking skeleton and differ only in
//! how much of the paper's machinery they use (see [`exec`]):
//!
//! * [`exec::naive_execute`] — cross product + full constraint check at
//!   the leaves (the baseline a system without the optimizer runs);
//! * [`exec::triangular_execute`] — exact solved-row checks prune
//!   partial tuples early, but candidates come from a full collection
//!   scan (ablation: early pruning without range queries);
//! * [`exec::bbox_execute`] — the full pipeline: one corner-transform
//!   range query per step against a spatial index, then exact row
//!   verification (the paper's proposal).
//!
//! All three provably enumerate the same solutions (the solved form is
//! an equivalence, not just a necessary condition — see the crate and
//! integration test suites). Only the bbox executor serves requests;
//! the naive one is the test reference and the triangular one the
//! no-index ablation.

pub mod database;
pub mod exec;
pub mod integrity;
pub mod planner;
pub mod query;
pub mod snapshot;
pub mod stats;
pub mod view;
pub mod workload;

pub use database::{CollectionId, CompactReport, ObjectRef, SpatialDatabase};
pub use exec::{
    bbox_execute, bbox_execute_compiled, bbox_execute_opts, compile_triangular, naive_execute,
    triangular_execute, ExecOptions, QueryResult,
};
pub use planner::{order_by_selectivity, SelectivityPlan};
pub use query::{IndexKind, Query, VarBinding};
pub use stats::ExecStats;
pub use view::{ProbeReport, StoreView};
