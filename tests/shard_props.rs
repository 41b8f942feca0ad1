//! Property tests for the sharded database.
//!
//! The central claim of `crates/shard`: a [`ShardedDatabase`] fed an
//! **arbitrary** mutation sequence (the test kit's churn, applied to
//! both stores by `scq_testkit::apply_both`) answers every corner query
//! and every constraint query exactly like an unsharded
//! [`SpatialDatabase`] fed the same sequence. Both stores hand out slot
//! indices in insertion order and never reuse them until a compaction,
//! so global ids are directly comparable — no translation layer in the
//! oracle. `tests/differential.rs` checks both against the kit's model.

use proptest::prelude::*;
use scq_integration::prelude::*;
use scq_testkit::{apply_both, corner_queries, normalize, op_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// After any mutation sequence, the sharded store answers every
    /// corner query identically to the unsharded store, on all three
    /// index structures, and both pass their integrity checks.
    #[test]
    fn sharded_corner_queries_match_unsharded(
        ops in prop::collection::vec(op_strategy(1), 1..100),
        n_shards in 1usize..7,
    ) {
        let universe = AaBox::new([0.0, 0.0], [100.0, 100.0]);
        let mut sharded = ShardedDatabase::new(universe, n_shards);
        let mut plain = SpatialDatabase::new(universe);
        let coll = sharded.collection("objs");
        prop_assert_eq!(plain.collection("objs"), coll);
        for op in &ops {
            apply_both(&mut sharded, &mut plain, &[coll], op);
        }
        sharded.check().expect("sharded store is consistent");
        scq_engine::integrity::check(&plain).expect("plain store is consistent");
        prop_assert_eq!(sharded.live_len(coll), plain.live_len(coll));

        for q in corner_queries() {
            for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
                let mut a = Vec::new();
                sharded.query_collection(coll, kind, &q, &mut a);
                a.sort_unstable();
                let mut b = Vec::new();
                plain.query_collection(coll, kind, &q, &mut b);
                b.sort_unstable();
                prop_assert_eq!(a, b, "{:?} diverged between sharded and plain", kind);
            }
        }
    }

    /// Constraint queries agree too: the engine executor over the
    /// sharded view, for every index kind and after a per-shard
    /// snapshot round trip, returns the unsharded answer set.
    #[test]
    fn sharded_executors_match_unsharded(
        ops in prop::collection::vec(op_strategy(1), 1..50),
        n_shards in 2usize..6,
        seed in 0u64..500,
    ) {
        let universe = AaBox::new([0.0, 0.0], [100.0, 100.0]);
        let mut sharded = ShardedDatabase::new(universe, n_shards);
        let mut plain = SpatialDatabase::new(universe);
        let xs = sharded.collection("xs");
        let ys = sharded.collection("ys");
        prop_assert_eq!(plain.collection("xs"), xs);
        prop_assert_eq!(plain.collection("ys"), ys);
        for i in 0..10 {
            let t = (i as f64 * 9.0 + seed as f64) % 78.0;
            let rx = Region::from_box(AaBox::new([t, 2.0], [t + 11.0, 48.0]));
            let ry = Region::from_box(AaBox::new([t + 3.0, 12.0], [t + 8.0, 38.0]));
            sharded.insert(xs, rx.clone());
            plain.insert(xs, rx);
            sharded.insert(ys, ry.clone());
            plain.insert(ys, ry);
        }
        for op in &ops {
            apply_both(&mut sharded, &mut plain, &[xs], op);
        }

        let sys = parse_system("X & Y != 0; X <= W").unwrap();
        let q = Query::new(sys)
            .known("W", Region::from_box(AaBox::new([0.0, 0.0], [55.0, 55.0])))
            .from_collection("X", xs)
            .from_collection("Y", ys);

        let oracle = normalize(&naive_execute(&plain, &q).unwrap());
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let got = normalize(&bbox_execute(&sharded, &q, kind).unwrap());
            prop_assert_eq!(&got, &oracle, "sharded {:?} diverged from naive", kind);
        }

        // per-shard snapshot round trip preserves the answers
        let manifest = scq_shard::snapshot::save_manifest(&sharded);
        let payloads: Vec<_> = (0..sharded.n_shards())
            .map(|s| scq_shard::snapshot::save_shard(&sharded, s).unwrap())
            .collect();
        let reloaded = scq_shard::snapshot::load(&manifest, &payloads).unwrap();
        reloaded.check().expect("reloaded sharded store is consistent");
        let after = normalize(&bbox_execute(&reloaded, &q, IndexKind::GridFile).unwrap());
        prop_assert_eq!(after, oracle, "answers changed across the snapshot");
    }

    /// Compaction preserves the live contents: answers over a compacted
    /// sharded store equal the pre-compaction answers modulo the remap.
    #[test]
    fn sharded_compaction_preserves_answers(
        ops in prop::collection::vec(op_strategy(1), 1..80),
    ) {
        let universe = AaBox::new([0.0, 0.0], [100.0, 100.0]);
        let mut sharded = ShardedDatabase::new(universe, 4);
        let mut plain = SpatialDatabase::new(universe);
        let coll = sharded.collection("objs");
        plain.collection("objs");
        for op in &ops {
            apply_both(&mut sharded, &mut plain, &[coll], op);
        }
        let report = sharded.compact();
        sharded.check().expect("consistent after compaction");
        prop_assert_eq!(sharded.collection_len(coll), sharded.live_len(coll));
        for q in corner_queries() {
            let mut before = Vec::new();
            plain.query_collection(coll, IndexKind::RTree, &q, &mut before);
            let mut before: Vec<u64> = before
                .into_iter()
                .map(|id| {
                    report
                        .fix_up(ObjectRef { collection: coll, index: id as usize })
                        .expect("query results are live, hence remapped")
                        .index as u64
                })
                .collect();
            before.sort_unstable();
            let mut after = Vec::new();
            sharded.query_collection(coll, IndexKind::RTree, &q, &mut after);
            after.sort_unstable();
            prop_assert_eq!(before, after, "compaction changed an answer");
        }
    }

    /// The SCQM manifest round trip under arbitrary mutations: a saved
    /// database reloads into a store that answers every corner query
    /// like the unsharded oracle and passes its integrity check — and
    /// the same manifest hand-downgraded to a v1 header (version field
    /// rewritten, range and replica tables spliced out, exactly what a
    /// v1 writer produced) is refused by name, never half-read.
    #[test]
    fn manifest_reloads_identically_and_v1_is_refused(
        ops in prop::collection::vec(op_strategy(1), 1..80),
        n_shards in 1usize..6,
    ) {
        let universe = AaBox::new([0.0, 0.0], [100.0, 100.0]);
        let mut sharded = ShardedDatabase::new(universe, n_shards);
        let mut plain = SpatialDatabase::new(universe);
        let coll = sharded.collection("objs");
        prop_assert_eq!(plain.collection("objs"), coll);
        for op in &ops {
            apply_both(&mut sharded, &mut plain, &[coll], op);
        }
        let manifest = scq_shard::snapshot::save_manifest(&sharded).to_vec();
        let payloads: Vec<_> = (0..sharded.n_shards())
            .map(|s| scq_shard::snapshot::save_shard(&sharded, s).unwrap())
            .collect();
        // The range table (16 bytes per shard) sits after magic(4) +
        // version(2) + dim(2) + universe(32) + bits(4) + shard
        // count(4) = 48 bytes, the replica table right after it (a
        // zero u32 count per in-process shard).
        let mut v1 = manifest.clone();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        v1.drain(48..48 + n_shards * 16 + n_shards * 4);
        prop_assert_eq!(
            scq_shard::snapshot::load(&v1, &payloads).err(),
            Some(scq_shard::ShardSnapshotError::BadVersion(1))
        );
        let reloaded = scq_shard::snapshot::load(&manifest, &payloads).unwrap();
        reloaded.check().expect("reload is consistent");
        prop_assert_eq!(reloaded.collection_len(coll), sharded.collection_len(coll));
        prop_assert_eq!(reloaded.live_len(coll), sharded.live_len(coll));
        for q in corner_queries() {
            for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
                let mut ids = Vec::new();
                reloaded.query_collection(coll, kind, &q, &mut ids);
                ids.sort_unstable();
                let mut oracle = Vec::new();
                plain.query_collection(coll, kind, &q, &mut oracle);
                oracle.sort_unstable();
                prop_assert_eq!(&ids, &oracle, "reload diverged from the oracle ({:?})", kind);
            }
        }
    }
}
