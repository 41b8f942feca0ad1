//! The served planner path, `order_by_selectivity` →
//! `bbox_execute_compiled`, answers every query shape like naive under
//! arbitrary churn, on every index and cap, unsharded and sharded, and
//! planning advances no epoch. Slices of the test kit's differential
//! oracle; the root package's `tests/differential.rs` runs the whole
//! matrix.

use proptest::prelude::*;
use scq_testkit::oracle::QUERIES;
use scq_testkit::{insert_strategy, op_strategy, Checks, Stores};

fn planned_matches_naive(mut stores: Stores, fill: &[scq_testkit::Op], churn: &[scq_testkit::Op]) {
    for op in fill.iter().chain(churn) {
        stores.apply(op);
    }
    stores.check_only(Checks::SERVED, QUERIES);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn planned_execution_matches_default_unsharded(
        fill in prop::collection::vec(insert_strategy(3), 8..32),
        churn in prop::collection::vec(op_strategy(3), 1..48),
    ) {
        planned_matches_naive(Stores::only(true, &[]), &fill, &churn);
    }

    #[test]
    fn planned_execution_matches_default_sharded(
        fill in prop::collection::vec(insert_strategy(3), 8..32),
        churn in prop::collection::vec(op_strategy(3), 1..48),
    ) {
        planned_matches_naive(Stores::only(false, &[1, 2, 3, 4]), &fill, &churn);
    }
}
