//! Property: installing the selectivity planner's order never changes
//! a query's *answer* — only its enumeration cost. Under arbitrary
//! churn (inserts, empty-region inserts, removes, updates,
//! compaction), for all three index kinds, against both the unsharded
//! engine store and the sharded routing tier, executing with
//! [`with_selectivity_order`] must produce exactly the solutions and
//! outcome of the default size-ordered execution.
//!
//! This is the end-to-end oracle behind the serve tier's planner: the
//! plan cache may swap orders freely because order is provably
//! answer-invariant.

use proptest::prelude::*;
use scq_engine::{
    bbox_execute, with_selectivity_order, CollectionId, IndexKind, ObjectRef, Query, QueryResult,
    SpatialDatabase, StoreView, VarBinding,
};
use scq_region::{AaBox, Region};
use scq_shard::{LocalShard, ShardedDatabase};

const UNIVERSE: f64 = 100.0;

/// One churn step. Slot picks are taken modulo the collection's
/// current length, so every op is applicable at any point in the
/// sequence (removing an already-dead slot is a no-op, same as the
/// database's own semantics).
#[derive(Clone, Debug)]
enum Op {
    Insert {
        coll: usize,
        x: f64,
        y: f64,
        w: f64,
        h: f64,
    },
    InsertEmpty {
        coll: usize,
    },
    Remove {
        coll: usize,
        pick: usize,
    },
    Update {
        coll: usize,
        pick: usize,
        x: f64,
        y: f64,
        w: f64,
        h: f64,
    },
    Compact,
}

fn op_strategy() -> BoxedStrategy<Op> {
    let coord = || 0.0..80.0f64;
    let side = || 0.5..18.0f64;
    prop_oneof![
        5 => (0..2usize, coord(), coord(), side(), side())
            .prop_map(|(coll, x, y, w, h)| Op::Insert { coll, x, y, w, h }),
        1 => (0..2usize).prop_map(|coll| Op::InsertEmpty { coll }),
        2 => (0..2usize, 0..64usize).prop_map(|(coll, pick)| Op::Remove { coll, pick }),
        2 => (0..2usize, 0..64usize, coord(), coord(), side(), side())
            .prop_map(|(coll, pick, x, y, w, h)| Op::Update { coll, pick, x, y, w, h }),
        1 => Just(Op::Compact),
    ]
    .boxed()
}

fn boxed_region(x: f64, y: f64, w: f64, h: f64) -> Region<2> {
    let x1 = (x + w).min(UNIVERSE);
    let y1 = (y + h).min(UNIVERSE);
    Region::from_box(AaBox::new([x, y], [x1, y1]))
}

/// Applies the churn to an unsharded engine store.
fn churn_unsharded(ops: &[Op]) -> (SpatialDatabase<2>, [CollectionId; 2]) {
    let mut d = SpatialDatabase::new(AaBox::new([0.0, 0.0], [UNIVERSE, UNIVERSE]));
    let colls = [d.collection("a"), d.collection("b")];
    for op in ops {
        match *op {
            Op::Insert { coll, x, y, w, h } => {
                d.insert(colls[coll], boxed_region(x, y, w, h));
            }
            Op::InsertEmpty { coll } => {
                d.insert(colls[coll], Region::empty());
            }
            Op::Remove { coll, pick } => {
                let len = d.collection_len(colls[coll]);
                if len > 0 {
                    d.remove(ObjectRef {
                        collection: colls[coll],
                        index: pick % len,
                    });
                }
            }
            Op::Update {
                coll,
                pick,
                x,
                y,
                w,
                h,
            } => {
                let len = d.collection_len(colls[coll]);
                if len > 0 {
                    let obj = ObjectRef {
                        collection: colls[coll],
                        index: pick % len,
                    };
                    if d.is_live(obj) {
                        d.update(obj, boxed_region(x, y, w, h));
                    }
                }
            }
            Op::Compact => {
                d.compact();
            }
        }
    }
    (d, colls)
}

/// Applies the same churn through the sharded routing tier.
fn churn_sharded(ops: &[Op]) -> (ShardedDatabase<LocalShard>, [CollectionId; 2]) {
    let mut d = ShardedDatabase::<LocalShard>::new(AaBox::new([0.0, 0.0], [UNIVERSE, UNIVERSE]), 3);
    let colls = [d.collection("a"), d.collection("b")];
    for op in ops {
        match *op {
            Op::Insert { coll, x, y, w, h } => {
                d.insert(colls[coll], boxed_region(x, y, w, h));
            }
            Op::InsertEmpty { coll } => {
                d.insert(colls[coll], Region::empty());
            }
            Op::Remove { coll, pick } => {
                let len = d.collection_len(colls[coll]);
                if len > 0 {
                    d.remove(ObjectRef {
                        collection: colls[coll],
                        index: pick % len,
                    });
                }
            }
            Op::Update {
                coll,
                pick,
                x,
                y,
                w,
                h,
            } => {
                let len = d.collection_len(colls[coll]);
                if len > 0 {
                    let obj = ObjectRef {
                        collection: colls[coll],
                        index: pick % len,
                    };
                    if d.is_live(obj) {
                        d.update(obj, boxed_region(x, y, w, h));
                    }
                }
            }
            Op::Compact => {
                d.compact();
            }
        }
    }
    (d, colls)
}

/// The paper's district shape over the churned collections: `A` inside
/// a known window, `B` overlapping `A`.
fn build_query(colls: &[CollectionId; 2]) -> Query<2> {
    let sys = scq_core::parse_system("A <= C; B & A != 0").expect("system parses");
    let mut q = Query::new(sys);
    let a = q.system.table.get("A").unwrap();
    let b = q.system.table.get("B").unwrap();
    let c = q.system.table.get("C").unwrap();
    q.bindings.insert(a, VarBinding::Collection(colls[0]));
    q.bindings.insert(b, VarBinding::Collection(colls[1]));
    q.bindings.insert(
        c,
        VarBinding::Known(Region::from_box(AaBox::new([10.0, 10.0], [65.0, 65.0]))),
    );
    q
}

/// A three-unknown star: `X` inside a known window, `Y` and `Z` (both
/// over the second collection) overlapping `X`. `Y`'s and `Z`'s corner
/// queries read `X` alone, so the whole-order cost puts `X` first even
/// when the second collection's estimates are the smaller ones and the
/// ascending-estimate order would retrieve `Y` and `Z` first.
fn build_star_query(colls: &[CollectionId; 2]) -> Query<2> {
    let sys = scq_core::parse_system("X <= W; Y & X != 0; Z & X != 0").expect("system parses");
    let mut q = Query::new(sys);
    for (name, coll) in [("X", colls[0]), ("Y", colls[1]), ("Z", colls[1])] {
        let v = q.system.table.get(name).unwrap();
        q.bindings.insert(v, VarBinding::Collection(coll));
    }
    let w = q.system.table.get("W").unwrap();
    q.bindings.insert(
        w,
        VarBinding::Known(Region::from_box(AaBox::new([5.0, 5.0], [90.0, 90.0]))),
    );
    q
}

/// Normalizes a result to an order-independent form: sorted tuples of
/// `var=collection:slot` plus the outcome.
fn normalize(query: &Query<2>, result: &QueryResult) -> (Vec<String>, bool) {
    let mut tuples: Vec<String> = result
        .solutions
        .iter()
        .map(|s| {
            s.iter()
                .map(|(v, o)| {
                    format!(
                        "{}={}:{}",
                        query.system.table.display(*v),
                        o.collection.0,
                        o.index
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    tuples.sort();
    (tuples, result.outcome.is_partial())
}

/// The oracle: for every index kind, planned execution answers exactly
/// like the default order on the same store.
fn assert_planned_matches_default<V: StoreView<2>>(db: &V, colls: &[CollectionId; 2]) {
    for query in [build_query(colls), build_star_query(colls)] {
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let base = bbox_execute(db, &query, kind).expect("default order executes");
            let planned_query = with_selectivity_order(db, &query, kind).expect("planner runs");
            let planned = bbox_execute(db, &planned_query, kind).expect("planned order executes");
            assert_eq!(
                normalize(&query, &base),
                normalize(&planned_query, &planned),
                "selectivity order changed the answer for {kind:?}"
            );
        }
    }
}

/// The star on a store where the ascending-estimate order is `Y Z X`
/// (six objects in the second collection, twelve inside the window in
/// the first): that order re-probes `X` for each of the 6 × 6 `(Y, Z)`
/// pairs, while `X Y Z` probes `Y` and `Z` once per `X`. The cost
/// model reorders to `X Y Z`, and the answer is the default order's.
#[test]
fn star_query_is_reordered_by_cost_and_answers_alike() {
    let ops: Vec<Op> = (0..12)
        .map(|i| Op::Insert {
            coll: 0,
            x: 10.0 + 6.0 * i as f64,
            y: 10.0 + 5.0 * i as f64,
            w: 8.0,
            h: 8.0,
        })
        .chain((0..6).map(|i| Op::Insert {
            coll: 1,
            x: 15.0 * i as f64,
            y: 0.0,
            w: 10.0,
            h: 95.0,
        }))
        .collect();
    let (db, colls) = churn_sharded(&ops);
    let query = build_star_query(&colls);
    let plan = scq_engine::order_by_selectivity(&db, &query, IndexKind::RTree).unwrap();
    let name = |v| query.system.table.name(v);
    let mut ascending = plan.estimates.clone();
    ascending.sort_by_key(|e| (e.candidates, e.var));
    let ascending: Vec<&str> = ascending.iter().map(|e| name(e.var)).collect();
    assert_eq!(ascending, ["Y", "Z", "X"]);
    let chosen: Vec<&str> = plan.order.iter().map(|&v| name(v)).collect();
    assert_eq!(chosen, ["X", "Y", "Z"]);
    assert!(plan.probes.iter().sum::<u64>() < plan.ascending_probes);
    assert_planned_matches_default(&db, &colls);
    let (db, colls) = churn_unsharded(&ops);
    assert_planned_matches_default(&db, &colls);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Selectivity-planned execution is answer-equivalent to the
    /// default order on the unsharded store, under churn, for all
    /// three index kinds.
    #[test]
    fn planned_execution_matches_default_unsharded(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        let (db, colls) = churn_unsharded(&ops);
        assert_planned_matches_default(&db, &colls);
    }

    /// Same property through the sharded routing tier (3 z-order
    /// shards), where the planner's probes fan out per shard.
    #[test]
    fn planned_execution_matches_default_sharded(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        let (db, colls) = churn_sharded(&ops);
        assert_planned_matches_default(&db, &colls);

        // Epoch sanity alongside: planning never mutates, so running
        // the planner twice observes the same epochs.
        let before: Vec<u64> = colls.iter().map(|&c| StoreView::epoch(&db, c)).collect();
        let query = build_query(&colls);
        let _ = with_selectivity_order(&db, &query, IndexKind::RTree).unwrap();
        let after: Vec<u64> = colls.iter().map(|&c| StoreView::epoch(&db, c)).collect();
        prop_assert_eq!(before, after, "planning must not advance mutation epochs");
    }
}
