//! One differential oracle for the paper's exactness contract: after
//! any churn, every store × index × execution × cap answers like the
//! test kit's model (see `scq_testkit::oracle` for the matrix).

use proptest::prelude::*;
use scq_engine::{order_by_selectivity, IndexKind};
use scq_testkit::oracle::{query, QUERIES};
use scq_testkit::{insert_strategy, op_strategy, Op, Stores};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After any churn, every store × index × execution × cap answers
    /// like the model, and every store passes its integrity check.
    #[test]
    fn every_configuration_answers_like_the_model(
        fill in prop::collection::vec(insert_strategy(3), 16..32),
        churn in prop::collection::vec(op_strategy(3), 1..48),
    ) {
        let mut stores = Stores::all();
        for op in fill.iter().chain(&churn) {
            stores.apply(op);
        }
        stores.check();
    }
}

/// The star on a store where the ascending-estimate order is `Y Z X`
/// (six objects in the second collection, twelve inside the window in
/// the first): that order re-probes `X` for each of the 6 × 6 `(Y, Z)`
/// pairs, while `X Y Z` probes `Y` and `Z` once per `X`. The cost
/// model reorders to `X Y Z`, and every configuration answers like the
/// model.
#[test]
fn star_query_is_reordered_by_cost_and_answers_alike() {
    let mut stores = Stores::all();
    let ops = (0..12)
        .map(|i| Op::Insert {
            coll: 0,
            rect: [10.0 + 6.0 * i as f64, 10.0 + 5.0 * i as f64, 8.0, 8.0],
        })
        .chain((0..6).map(|i| Op::Insert {
            coll: 1,
            rect: [15.0 * i as f64, 0.0, 10.0, 95.0],
        }));
    for op in ops {
        stores.apply(&op);
    }
    let query = query(QUERIES[8], &stores.colls);
    let db = &stores.sharded[2];
    let plan = order_by_selectivity(db, &query, IndexKind::RTree).unwrap();
    let name = |v| query.system.table.name(v);
    let mut ascending = plan.estimates.clone();
    ascending.sort_by_key(|e| (e.candidates, e.var));
    let ascending: Vec<&str> = ascending.iter().map(|e| name(e.var)).collect();
    assert_eq!(ascending, ["Y", "Z", "X"]);
    let chosen: Vec<&str> = plan.order.iter().map(|&v| name(v)).collect();
    assert_eq!(chosen, ["X", "Y", "Z"]);
    assert!(plan.probes.iter().sum::<u64>() < plan.ascending_probes);
    stores.check();
}
