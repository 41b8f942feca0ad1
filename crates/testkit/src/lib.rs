#![warn(missing_docs)]

//! Test-only machinery shared by the workspace's test suites.
//!
//! Only dev-dependencies name this crate: `scq-shard`'s, for the
//! proxy's own unit tests, and the root package's, for `tests/`. No
//! shipped crate depends on it, and CI fails if `scq-serve`'s normal
//! dependency tree ever lists it. It holds:
//!
//! * [`fault`], the deterministic fault-injection proxy for the shard
//!   wire protocol;
//! * [`churn`], one mutation generator ([`Op`], [`op_strategy`], and
//!   [`insert_strategy`] for the fill a churn starts from) with
//!   one [`Op::apply`] over every store ([`Store`]), and the [`Model`]
//!   every store is checked against;
//! * [`corner_queries`] and [`normalize`], the probe set and the
//!   solution normaliser the differential checks share;
//! * [`oracle`], the differential matrix every store answers like the
//!   model in ([`Stores`], [`Checks`]).

use std::collections::BTreeMap;

use scq_bbox::{Bbox, CornerQuery};
use scq_boolean::Var;
use scq_engine::{ObjectRef, QueryResult};

pub mod churn;
pub mod fault;
pub mod oracle;

pub use churn::{apply_both, create_all, insert_strategy, op_strategy, Effect, Model, Op, Store};
pub use fault::{Direction, FaultAction, FaultGate, FaultProxy, FaultRule, FrameMatch};
pub use oracle::{Checks, Stores};

/// Corner queries over the `[0, 100]²` universe the churn draws in:
/// the unconstrained query plus, at six offsets, an overlap, a
/// containment, a contains-inner and the conjunction of all three.
pub fn corner_queries() -> Vec<CornerQuery<2>> {
    let mut qs = vec![CornerQuery::unconstrained()];
    for i in 0..6 {
        let t = i as f64 * 13.0;
        let probe = Bbox::new([t, t * 0.5], [t + 25.0, t * 0.5 + 30.0]);
        let inner = Bbox::new([t + 8.0, t * 0.5 + 8.0], [t + 12.0, t * 0.5 + 12.0]);
        qs.push(CornerQuery::unconstrained().and_overlaps(&probe));
        qs.push(CornerQuery::unconstrained().and_contained_in(&probe));
        qs.push(CornerQuery::unconstrained().and_contains(&inner));
        qs.push(
            CornerQuery::unconstrained()
                .and_contained_in(&probe)
                .and_contains(&inner)
                .and_overlaps(&probe),
        );
    }
    qs
}

/// A result's solutions in an order-independent form: the tuples
/// sorted, so executions that enumerate in different orders compare
/// equal exactly when they found the same solutions.
pub fn normalize(result: &QueryResult) -> Vec<BTreeMap<Var, ObjectRef>> {
    let mut solutions = result.solutions.clone();
    solutions.sort();
    solutions
}
