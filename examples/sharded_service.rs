//! Sharded database + query server, end to end.
//!
//! Builds a z-order range-partitioned database, shows router pruning
//! under the engine's executor, round-trips a per-shard snapshot, then
//! boots the `scq-serve` front end in-process and runs a scripted
//! client session against it over real TCP.
//!
//! ```sh
//! cargo run --release --example sharded_service
//! ```

use scq_integration::prelude::*;

fn main() {
    // ── build: one logical database, four shards ────────────────────
    let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);
    let mut db = ShardedDatabase::new(universe, 4);
    let towns = db.collection("towns");
    let roads = db.collection("roads");
    for i in 0..60 {
        let t = (i * 37 % 53) as f64 * 17.0;
        db.insert(
            towns,
            Region::from_box(AaBox::new([t, 900.0 - t], [t + 14.0, 914.0 - t])),
        );
        db.insert(
            roads,
            Region::from_box(AaBox::new([t, 898.0 - t], [t + 120.0, 906.0 - t])),
        );
    }
    println!(
        "4 shards, {} towns, {} roads",
        db.live_len(towns),
        db.live_len(roads)
    );
    for s in 0..db.n_shards() {
        println!(
            "  shard {s}: {} towns, {} roads (z-range {:?})",
            db.shard(s).live_len(towns),
            db.shard(s).live_len(roads),
            db.router().ranges()[s]
        );
    }

    // ── query: the router prunes shards per retrieval level ─────────
    let sys = parse_system("T <= W; R & T != 0").unwrap();
    let district = Query::new(sys)
        .known(
            "W",
            Region::from_box(AaBox::new([0.0, 600.0], [400.0, 1000.0])),
        )
        .from_collection("T", towns)
        .from_collection("R", roads);
    let r = bbox_execute(&db, &district, IndexKind::RTree).unwrap();
    println!(
        "\ndistrict query: {} solutions, {} shard probes pruned by the router",
        r.stats.solutions, r.stats.shards_pruned
    );
    assert!(r.stats.shards_pruned > 0, "corner district must prune");

    // ── snapshot: manifest + one independent stream per shard ───────
    let dir = std::env::temp_dir().join(format!("scq_sharded_example_{}", std::process::id()));
    scq_shard::save_to_dir(&db, &dir).unwrap();
    let reloaded = scq_shard::load_from_dir(&dir).unwrap();
    reloaded.check().expect("reloaded database is consistent");
    let again = bbox_execute(&reloaded, &district, IndexKind::RTree).unwrap();
    assert_eq!(again.stats.solutions, r.stats.solutions);
    println!(
        "\nsnapshot round trip through {} streams preserved the answers",
        db.n_shards() + 1
    );
    std::fs::remove_dir_all(&dir).ok();

    // ── serve: the TCP front end, scripted session ──────────────────
    let handle = scq_serve::serve(&scq_serve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 4,
        threads: 2,
        universe_size: 1000.0,
        ..Default::default()
    })
    .unwrap();
    println!("\nscq-serve listening on {}", handle.addr());
    let script: Vec<(String, String)> = [
        ("CREATE sites", "OK coll=0"),
        ("INSERT sites 40 40 60 60", "OK ref=0"),
        ("INSERT sites 800 800 850 850", "OK ref=1"),
        ("QUERY sites rtree within 0 0 100 100", "OK n=1"),
        (
            "SOLVE rtree all S=coll:sites,W=box:0:0:100:100 S <= W; S != 0",
            "OK n=1",
        ),
        ("STAT", "OK shards=4"),
        ("QUIT", "OK bye"),
    ]
    .into_iter()
    .map(|(c, r)| (c.to_string(), r.to_string()))
    .collect();
    let transcript = scq_serve::run_script(handle.addr(), &script).unwrap();
    for line in &transcript {
        println!("{line}");
    }
    handle.shutdown();
    println!("\nserver session OK — the same database now serves over TCP");
}
