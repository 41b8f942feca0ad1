//! A multi-process shard cluster in miniature.
//!
//! Boots three shard servers speaking the binary wire protocol on
//! ephemeral loopback ports (in-process threads here; `scq-serve
//! --shard` gives each its own OS process), connects a router tier
//! over a [`ClusterSpec`], and walks the distribution story end to
//! end: routed inserts, a corner query the router prunes, cross-shard
//! migration on update, a constraint solve over the cluster, and a
//! snapshot round trip where every shard streams its own bytes over
//! the wire.
//!
//! ```text
//! cargo run --release --example cluster_tier
//! ```

use std::time::Duration;

use scq_integration::prelude::*;
use scq_shard::ShardServerConfig;

fn main() {
    let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);

    // ── 1. three shard processes ────────────────────────────────────
    let servers: Vec<scq_shard::ShardServerHandle> = (0..3)
        .map(|_| {
            scq_shard::serve_shard(&ShardServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 1,
                universe_size: 1000.0,
                ..ShardServerConfig::default()
            })
            .expect("bind shard server")
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    println!("shard processes: {addrs:?}");

    // ── 2. the cluster spec + router tier ───────────────────────────
    let spec = ClusterSpec::balanced(universe, scq_shard::DEFAULT_ROUTER_BITS, &addrs);
    print!("{}", spec.to_text());
    let mut db = spec
        .connect(Duration::from_secs(10))
        .expect("connect cluster");

    // ── 3. routed inserts ───────────────────────────────────────────
    let towns = db.collection("towns");
    let mut refs = Vec::new();
    for i in 0..24u64 {
        let x = (i * 41 % 23) as f64 * 40.0;
        let y = (i * 17 % 23) as f64 * 40.0;
        refs.push(db.insert(
            towns,
            Region::from_box(AaBox::new([x, y], [x + 12.0, y + 12.0])),
        ));
    }
    let mut per_shard = vec![0usize; db.n_shards()];
    for &r in &refs {
        per_shard[db.shard_of(r)] += 1;
    }
    println!("placement across shard processes: {per_shard:?}");
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "diagonal data spans all shards"
    );

    // ── 4. a pruned corner query ────────────────────────────────────
    let q = CornerQuery::unconstrained().and_contained_in(&Bbox::new([0.0, 0.0], [300.0, 300.0]));
    let mut ids = Vec::new();
    let report = db.query_collection(towns, IndexKind::RTree, &q, &mut ids);
    println!(
        "corner query in the low corner: {} matches, {} of {} shard processes never probed",
        ids.len(),
        report.shards_pruned,
        db.n_shards()
    );
    assert!(
        report.shards_pruned > 0,
        "the router must prune for a corner-bound query"
    );
    assert!(report.is_complete(), "all shard processes answered");

    // ── 5. cross-process migration ──────────────────────────────────
    // move an object from the highest-z shard into the low corner
    let mover = *refs
        .iter()
        .max_by_key(|&&r| db.shard_of(r))
        .expect("there are towns");
    let before = db.shard_of(mover);
    assert!(db.update(
        mover,
        Region::from_box(AaBox::new([5.0, 5.0], [15.0, 15.0]))
    ));
    let after = db.shard_of(mover);
    println!(
        "update migrated object {} from shard {before} to shard {after}",
        mover.index
    );
    assert_ne!(before, after, "a universe-crossing move changes shards");
    db.check().expect("cluster consistent after migration");

    // ── 6. a constraint solve over the cluster ──────────────────────
    let sys = parse_system("T <= W; T != 0").unwrap();
    let query = Query::new(sys)
        .known(
            "W",
            Region::from_box(AaBox::new([0.0, 600.0], [500.0, 1000.0])),
        )
        .from_collection("T", towns);
    let result = bbox_execute(&db, &query, IndexKind::RTree).expect("solve");
    println!(
        "solve over the cluster: {} solutions, {} shard probes pruned",
        result.solutions.len(),
        result.stats.shards_pruned
    );

    // ── 7. snapshot round trip over the wire ────────────────────────
    let dir = std::env::temp_dir().join(format!("scq_cluster_example_{}", std::process::id()));
    scq_shard::save_to_dir(&db, &dir).expect("save cluster snapshot");
    let local = scq_shard::load_from_dir(&dir).expect("reload as a local store");
    assert_eq!(local.live_len(towns), db.live_len(towns));
    scq_shard::reload_from_dir(&mut db, &dir).expect("restore the cluster in place");
    db.check().expect("cluster consistent after restore");
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "snapshot: {} live towns streamed out of {} shard processes and restored back",
        local.live_len(towns),
        db.n_shards()
    );

    drop(db);
    for server in servers {
        server.shutdown();
    }
    println!("cluster example finished cleanly");
}
