//! Property tests for incremental maintenance under mutations: after
//! an arbitrary churn of the test kit's ops (inserts, removes and
//! updates that hit tombstones, empty regions, repeated targets and
//! shard migrations, compactions and snapshot round trips), every store
//! stays consistent, every maintained index answers corner queries like
//! a fresh rebuild, and the executors still answer like naive. Slices
//! of the test kit's differential oracle; `tests/differential.rs` runs
//! the whole matrix.

use proptest::prelude::*;
use scq_testkit::oracle::QUERIES;
use scq_testkit::{insert_strategy, op_strategy, Checks, Op, Stores};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any mutation sequence, each maintained index of every
    /// store answers exactly like one rebuilt from scratch over the
    /// live objects, and `integrity::check`/`check()` holds.
    #[test]
    fn mutated_indexes_match_fresh_rebuild(ops in prop::collection::vec(op_strategy(3), 1..120)) {
        let mut stores = Stores::all();
        for op in &ops {
            stores.apply(op);
        }
        stores.check_only(Checks::CORNERS, &[]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine answers survive mutations: the executors agree with naive
    /// after churn, and after a final snapshot round trip (tombstones
    /// included) they still do.
    #[test]
    fn executors_and_snapshots_agree_after_mutations(
        fill in prop::collection::vec(insert_strategy(3), 8..24),
        churn in prop::collection::vec(op_strategy(3), 1..48),
    ) {
        let mut stores = Stores::all();
        for op in fill.iter().chain(&churn) {
            stores.apply(op);
        }
        stores.check_only(Checks::EXECUTORS, QUERIES);
        stores.apply(&Op::SnapshotRoundTrip);
        stores.check_only(Checks::EXECUTORS, QUERIES);
    }
}
