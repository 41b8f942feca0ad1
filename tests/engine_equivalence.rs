//! Cross-executor equivalence on freshly built databases: the
//! triangular-exact and bbox-filtered executors (on all three index
//! structures, in every retrieval order and cap) enumerate exactly the
//! naive answer, and pruning never enumerates more than naive does.
//! Slices of the test kit's differential oracle; `tests/differential.rs`
//! runs the whole matrix after churn.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scq_engine::workload::uniform_boxes;
use scq_engine::{bbox_execute, naive_execute};
use scq_testkit::oracle::{permutations, query, universe, KINDS, QUERIES};
use scq_testkit::{insert_strategy, Checks, Op, Stores};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On a freshly filled unsharded database every execution answers
    /// every query shape like naive.
    #[test]
    fn executors_agree(fill in prop::collection::vec(insert_strategy(3), 8..32)) {
        let mut stores = Stores::only(true, &[]);
        for op in &fill {
            stores.apply(op);
        }
        stores.check_only(Checks::EXECUTORS, QUERIES);
    }

    /// The optimizer's pruning counters never exceed the naive search
    /// tree in the same order (the paper's "eliminate useless partial
    /// solution tuples"), and both find the same number of solutions.
    #[test]
    fn pruning_never_expands_search(fill in prop::collection::vec(insert_strategy(3), 8..32)) {
        let mut stores = Stores::only(true, &[]);
        for op in &fill {
            stores.apply(op);
        }
        let db = stores.plain.as_ref().unwrap();
        let reference = stores.model.rebuild();
        for &system in QUERIES {
            let q = query(system, &stores.colls);
            let names: Vec<&str> = system.1.iter().map(|&(name, _)| name).collect();
            for order in permutations(&names) {
                let ordered = q.clone().with_order(&order);
                let naive = naive_execute(&reference, &ordered).unwrap();
                for kind in KINDS {
                    let bbox = bbox_execute(db, &ordered, kind).unwrap();
                    prop_assert!(
                        bbox.stats.partial_tuples <= naive.stats.partial_tuples,
                        "`{}` {:?} order {:?}", system.0, kind, order
                    );
                    prop_assert_eq!(naive.stats.solutions, bbox.stats.solutions);
                }
            }
        }
    }
}

/// The three-unknown shapes on seeded uniform boxes (heavier, so not
/// proptest), on every store, index, order and cap.
#[test]
fn three_way_join_equivalence() {
    let three: Vec<_> = QUERIES.iter().copied().filter(|s| s.1.len() == 3).collect();
    assert_eq!(three.len(), 2);
    for seed in [1, 17, 99] {
        let mut stores = Stores::all();
        let mut rng = StdRng::seed_from_u64(seed);
        for coll in 0..3 {
            for r in uniform_boxes(&mut rng, 8, &universe(), 5.0, 25.0) {
                let b = r.bbox();
                let (lo, hi) = (b.lo().unwrap(), b.hi().unwrap());
                stores.apply(&Op::Insert {
                    coll,
                    rect: [lo[0], lo[1], hi[0] - lo[0], hi[1] - lo[1]],
                });
            }
        }
        stores.check_only(Checks::EXECUTORS, &three);
    }
}
