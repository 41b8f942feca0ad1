//! Umbrella crate hosting the workspace-level integration tests
//! (`/tests`) and runnable examples (`/examples`).
//!
//! It re-exports the full public API so tests and examples read like
//! downstream user code:
//!
//! ```
//! use scq_integration::prelude::*;
//! let sys = parse_system("A <= C; A != 0").unwrap();
//! assert_eq!(sys.constraints.len(), 2);
//! ```

/// One-stop imports for examples and integration tests.
pub mod prelude {
    pub use scq_algebra::{eval_formula, Assignment, Atomless, BitsetAlgebra, BooleanAlgebra};
    pub use scq_bbox::{corner_point, Bbox, BboxExpr, CornerQuery};
    pub use scq_boolean::{blake_canonical_form, parse_formula, Bdd, Formula, Var, VarTable};
    pub use scq_core::{
        check_normal, check_system, lower_bbox_fn, parse_system, proj, solve_system, triangularize,
        upper_bbox_fn, witness, BboxPlan, Constraint, ConstraintSystem, NormalSystem,
        TriangularSystem, UpperBound,
    };
    pub use scq_engine::{
        bbox_execute, naive_execute, triangular_execute, IndexKind, ObjectRef, Query,
        SpatialDatabase,
    };
    pub use scq_index::{GridFile, RTree, ScanIndex, SpatialIndex, SplitStrategy};
    pub use scq_region::{AaBox, Region, RegionAlgebra};
    pub use scq_shard::{
        BreakerConfig, BreakerState, ClusterSpec, ShardBackend, ShardSpec, ShardedDatabase,
    };
    pub use scq_zorder::{decompose_cells, morton_decode, morton_encode, ZCurve};
}
