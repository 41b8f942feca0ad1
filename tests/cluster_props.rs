//! Property tests for the multi-process shard cluster.
//!
//! The distribution claim of `crates/shard`'s backend layer: a
//! `ShardedDatabase<RemoteShard>` — N shard servers speaking the
//! length-prefixed wire protocol over real TCP sockets, one router
//! keeping only routing state and a region mirror — fed an
//! **arbitrary** mutation sequence answers every corner query and
//! every constraint query exactly like an unsharded [`SpatialDatabase`]
//! fed the same sequence. This is `tests/shard_props.rs` with the
//! shards moved behind sockets: the same op generator (the test kit's
//! churn, compactions and snapshot round trips included), the same
//! oracle, plus cross-process migration, snapshot round trips pulled
//! over the wire, and an in-place cluster restore.
//!
//! The shard servers here run as threads of the test process bound to
//! ephemeral loopback ports — every byte still crosses a real TCP
//! socket through the real wire codec, which is the property under
//! test; `scripts/cluster_smoke.sh` exercises the identical stack with
//! shards as separate OS processes.

use std::time::Duration;

use proptest::prelude::*;
use scq_engine::CollectionId;
use scq_integration::prelude::*;
use scq_shard::{ClusterSpec, RemoteShard, ShardServerConfig, ShardServerHandle, WalConfig};
use scq_testkit::{
    apply_both, corner_queries, normalize, op_strategy, Direction, FaultAction, FaultProxy,
    FaultRule, FrameMatch, Op,
};

const UNIVERSE_SIZE: f64 = 100.0;

/// A live cluster: shard server threads plus the connected router-side
/// database. Shuts the servers down on drop so proptest failures never
/// leak listeners.
struct Cluster {
    servers: Vec<ShardServerHandle>,
    db: Option<ShardedDatabase<RemoteShard>>,
}

fn boot_server(threads: usize) -> ShardServerHandle {
    scq_shard::serve_shard(&ShardServerConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        universe_size: UNIVERSE_SIZE,
        ..ShardServerConfig::default()
    })
    .expect("bind shard server")
}

impl Cluster {
    fn boot(n_shards: usize) -> Cluster {
        let servers: Vec<ShardServerHandle> = (0..n_shards).map(|_| boot_server(1)).collect();
        let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
        let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
        let spec = ClusterSpec::balanced(universe, scq_shard::DEFAULT_ROUTER_BITS, &addrs);
        let db = spec
            .connect(Duration::from_secs(10))
            .expect("connect cluster");
        Cluster {
            servers,
            db: Some(db),
        }
    }

    fn db(&mut self) -> &mut ShardedDatabase<RemoteShard> {
        self.db.as_mut().expect("cluster is up")
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.db.take();
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

/// A scripted churn of `n` ops over one collection: inserts, removes,
/// cross-shard updates and updates to empty, in turn.
fn fixed_churn(n: u32) -> Vec<Op> {
    (0..n)
        .map(|i| match i % 4 {
            0 => Op::Insert {
                coll: 0,
                rect: [(i * 7 % 80) as f64, (i * 13 % 80) as f64, 4.0, 3.0],
            },
            1 => Op::Remove {
                coll: 0,
                slot: (i * 31) as u16,
            },
            2 => Op::Update {
                coll: 0,
                slot: (i * 17) as u16,
                rect: [(i * 11 % 85) as f64, (i * 5 % 85) as f64, 3.0, 5.0],
            },
            _ => Op::UpdateToEmpty {
                coll: 0,
                slot: (i * 13) as u16,
            },
        })
        .collect()
}

/// Inserts a 6 × 6 grid spread over the whole square into both stores,
/// so every shard owns objects; returns the cluster's refs.
fn insert_grid(
    db: &mut ShardedDatabase<RemoteShard>,
    plain: &mut SpatialDatabase<2>,
    coll: CollectionId,
) -> Vec<ObjectRef> {
    (0..36)
        .map(|i| {
            let (x, y) = ((i % 6) as f64 * 16.0 + 2.0, (i / 6) as f64 * 16.0 + 2.0);
            let r = Region::from_box(AaBox::new([x, y], [x + 5.0, y + 5.0]));
            plain.insert(coll, r.clone());
            db.try_insert(coll, r).expect("insert")
        })
        .collect()
}

/// `X <= W` with `W` the whole universe: every live object of `coll`.
fn everything_in(coll: CollectionId) -> Query<2> {
    Query::new(parse_system("X <= W").unwrap())
        .known(
            "W",
            Region::from_box(AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE])),
        )
        .from_collection("X", coll)
}

/// A cluster whose every shard process sits behind a [`FaultProxy`]:
/// the router only ever dials the proxies, so each shard's connectivity
/// can be severed and healed independently while the shard process (and
/// its state) lives on — a deterministic network partition.
struct ProxiedCluster {
    servers: Vec<ShardServerHandle>,
    proxies: Vec<FaultProxy>,
    db: Option<ShardedDatabase<RemoteShard>>,
}

impl ProxiedCluster {
    fn boot(n_shards: usize) -> ProxiedCluster {
        let servers: Vec<ShardServerHandle> = (0..n_shards).map(|_| boot_server(2)).collect();
        let proxies: Vec<FaultProxy> = servers
            .iter()
            .map(|s| FaultProxy::start(&s.addr().to_string()).expect("bind proxy"))
            .collect();
        let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
        let addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
        let spec = ClusterSpec::balanced(universe, scq_shard::DEFAULT_ROUTER_BITS, &addrs);
        let db = spec
            .connect(Duration::from_secs(10))
            .expect("connect cluster through the proxies");
        ProxiedCluster {
            servers,
            proxies,
            db: Some(db),
        }
    }

    fn db(&mut self) -> &mut ShardedDatabase<RemoteShard> {
        self.db.as_mut().expect("cluster is up")
    }
}

impl Drop for ProxiedCluster {
    fn drop(&mut self) {
        self.db.take();
        self.proxies.clear();
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

/// The kill-a-shard scenario: reads answer from the router's mirror,
/// so a shard that cannot be reached takes nothing away from them.
/// First every `QUERY` frame to shard 2 is cut on the wire, then the
/// shard is partitioned outright; through both, the executor's
/// per-level fan-out answers `Complete` and oracle-equal on all three
/// index kinds. The outage shows on writes: a mutation routed to the
/// partitioned shard fails with a transport error. After the partition
/// heals, the shard rejoins the SAME router — no reconnect ceremony, no
/// restart — takes writes again and passes the integrity check.
#[test]
fn severed_shard_mid_query_keeps_reads_complete_then_rejoins() {
    let mut cluster = ProxiedCluster::boot(4);
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
    let mut plain = SpatialDatabase::new(universe);
    let coll = cluster.db().try_collection("objs").expect("create");
    plain.collection("objs");
    let refs = insert_grid(cluster.db(), &mut plain, coll);
    let owners: std::collections::BTreeSet<usize> =
        refs.iter().map(|&r| cluster.db().shard_of(r)).collect();
    assert_eq!(owners.len(), 4, "every shard owns objects: {owners:?}");

    let q = everything_in(coll);
    let oracle = normalize(&naive_execute(&plain, &q).unwrap());
    let reads_complete = |db: &mut ShardedDatabase<RemoteShard>, when: &str| {
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let result = bbox_execute(db, &q, kind).unwrap();
            assert_eq!(result.outcome, QueryOutcome::Complete, "{when} {kind:?}");
            assert_eq!(result.stats.shards_unavailable, 0, "{when} {kind:?}");
            assert_eq!(normalize(&result), oracle, "{when} {kind:?}");
        }
    };
    reads_complete(cluster.db(), "healthy");

    // Sever shard 2 mid-query: every QUERY frame it is sent is cut on
    // the wire. No read sends one.
    let victim = 2usize;
    cluster.proxies[victim].inject(FaultRule {
        direction: Direction::ClientToServer,
        matches: FrameMatch::Opcode(scq_shard::wire::OP_QUERY),
        action: FaultAction::Sever,
        remaining: usize::MAX,
        skip: 0,
    });
    reads_complete(cluster.db(), "QUERY severed");

    // Partition it: the shard process is unreachable, reads are not
    // touched, and a mutation routed to it fails with a transport
    // error — never silently dropped, never retried.
    cluster.proxies[victim].partition();
    reads_complete(cluster.db(), "partitioned");
    let on_victim = refs
        .iter()
        .find(|&&r| cluster.db.as_ref().unwrap().shard_of(r) == victim)
        .copied()
        .unwrap();
    let err = cluster.db().try_remove(on_victim).unwrap_err();
    assert!(matches!(err, scq_shard::ShardError::Wire(_)), "{err}");
    assert!(
        cluster.db().is_live(on_victim),
        "the failed remove changed nothing"
    );

    // Heal the partition: the shard rejoins the same router with no
    // restart on either side. Mirror and shards are still in lockstep
    // after the outage, and the write goes through.
    cluster.proxies[victim].heal();
    cluster.db().check().expect("cluster consistent after heal");
    assert!(cluster
        .db()
        .try_remove(on_victim)
        .expect("the healed shard takes writes"));
    plain.remove(on_victim);
    let oracle = normalize(&naive_execute(&plain, &q).unwrap());
    let recovered = bbox_execute(cluster.db(), &q, IndexKind::RTree).unwrap();
    assert_eq!(recovered.outcome, QueryOutcome::Complete);
    assert_eq!(normalize(&recovered), oracle);
    cluster
        .db()
        .check()
        .expect("cluster consistent after the write");
}

/// A migration whose target shard process is dead must fail WITHOUT
/// losing the object: the insert-into-new-shard step runs first, so a
/// transport failure leaves the object live, queryable and consistent
/// on its old shard.
#[test]
fn failed_migration_keeps_the_object_intact() {
    let config = ShardServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        universe_size: UNIVERSE_SIZE,
        ..ShardServerConfig::default()
    };
    let shard_a = scq_shard::serve_shard(&config).unwrap();
    let shard_b = scq_shard::serve_shard(&config).unwrap();
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
    let spec = ClusterSpec::balanced(
        universe,
        scq_shard::DEFAULT_ROUTER_BITS,
        &[shard_a.addr().to_string(), shard_b.addr().to_string()],
    );
    let mut db = spec.connect(Duration::from_secs(10)).unwrap();
    let coll = db.try_collection("objs").unwrap();
    let obj = db
        .try_insert(
            coll,
            Region::from_box(AaBox::new([10.0, 10.0], [15.0, 15.0])),
        )
        .unwrap();
    assert_eq!(db.shard_of(obj), 0, "low corner routes to shard 0");
    let before = db.region(obj).clone();

    // Kill the migration target, then try to move the object there.
    shard_b.shutdown();
    let err = db
        .try_update(
            obj,
            Region::from_box(AaBox::new([90.0, 90.0], [95.0, 95.0])),
        )
        .expect_err("migrating onto a dead shard process must fail");
    assert!(matches!(err, scq_shard::ShardError::Wire(_)), "{err}");

    // Nothing was lost: still live, still on shard 0, same region,
    // still answered by a query the router routes to shard 0 only.
    assert!(db.is_live(obj));
    assert_eq!(db.shard_of(obj), 0);
    assert!(db.region(obj).same_set(&before));
    let q = CornerQuery::unconstrained().and_contained_in(&Bbox::new([0.0, 0.0], [30.0, 30.0]));
    let mut out = Vec::new();
    db.query_collection(coll, IndexKind::RTree, &q, &mut out);
    assert_eq!(out, vec![obj.index as u64]);
    shard_a.shutdown();
}

/// A replicated cluster: `n_shards` z-ranges × `n_replicas` shard
/// server threads per range (primary first), each individually
/// killable mid-test.
struct ReplicatedCluster {
    servers: Vec<Vec<Option<ShardServerHandle>>>,
    db: Option<ShardedDatabase<RemoteShard>>,
}

impl ReplicatedCluster {
    fn boot(n_shards: usize, n_replicas: usize, breaker: BreakerConfig) -> ReplicatedCluster {
        let servers: Vec<Vec<Option<ShardServerHandle>>> = (0..n_shards)
            .map(|_| (0..n_replicas).map(|_| Some(boot_server(1))).collect())
            .collect();
        let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
        let sets: Vec<Vec<String>> = servers
            .iter()
            .map(|replicas| {
                replicas
                    .iter()
                    .map(|s| s.as_ref().unwrap().addr().to_string())
                    .collect()
            })
            .collect();
        let mut spec =
            ClusterSpec::balanced_replicated(universe, scq_shard::DEFAULT_ROUTER_BITS, &sets);
        spec.breaker = breaker;
        let db = spec
            .connect(Duration::from_secs(10))
            .expect("connect replicated cluster");
        ReplicatedCluster {
            servers,
            db: Some(db),
        }
    }

    fn db(&mut self) -> &mut ShardedDatabase<RemoteShard> {
        self.db.as_mut().expect("cluster is up")
    }

    /// Kills replica `r` of shard `s`: listener closed, every live
    /// connection dropped — the thread equivalent of SIGKILL on a
    /// shard process.
    fn kill(&mut self, s: usize, r: usize) {
        self.servers[s][r]
            .take()
            .expect("replica already killed")
            .shutdown();
    }
}

impl Drop for ReplicatedCluster {
    fn drop(&mut self) {
        self.db.take();
        for replicas in self.servers.drain(..) {
            for server in replicas.into_iter().flatten() {
                server.shutdown();
            }
        }
    }
}

/// On a 2-replica spec, one replica of EVERY range dies mid-churn — the
/// secondary of range 1 first (writes keep flowing and desync it
/// quietly), then, churn done, the primary of range 0 — and the
/// executor still answers `Complete` and oracle-equal, with no failover
/// and no stale answer: reads answer from the router's mirror. Writes
/// routed to the dead primary fail with a named transport error and
/// are never silently retried against the secondary.
#[test]
fn one_dead_replica_per_range_keeps_fanout_complete_and_oracle_equal() {
    let mut cluster = ReplicatedCluster::boot(2, 2, BreakerConfig::default());
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
    let mut plain = SpatialDatabase::new(universe);
    let coll = cluster.db().try_collection("objs").expect("create");
    plain.collection("objs");
    let refs = insert_grid(cluster.db(), &mut plain, coll);
    let churn = fixed_churn(24);
    for op in &churn[..12] {
        apply_both(cluster.db(), &mut plain, &[coll], op);
    }
    // Mid-churn: the secondary of range 1 dies. Every further write to
    // that range succeeds on its primary (and marks the replica
    // desynced); cross-range migrations included.
    cluster.kill(1, 1);
    for op in &churn[12..] {
        apply_both(cluster.db(), &mut plain, &[coll], op);
    }
    // Churn done: the primary of range 0 dies too. Now every range is
    // down to one live process — a different one each.
    cluster.kill(0, 0);

    let q = everything_in(coll);
    let oracle = normalize(&naive_execute(&plain, &q).unwrap());

    let result = bbox_execute(cluster.db(), &q, IndexKind::RTree)
        .expect("reads survive one dead replica per range");
    assert_eq!(
        result.outcome,
        QueryOutcome::Complete,
        "dead replicas take nothing away from a read"
    );
    let got = normalize(&result);
    assert_eq!(got, oracle, "answers equal the unsharded oracle");
    assert_eq!(result.stats.failovers, 0, "{:?}", result.stats);
    assert_eq!(result.stats.stale_answers, 0, "{:?}", result.stats);

    let h0 = cluster.db.as_ref().unwrap().backend(0).health();
    let h1 = cluster.db.as_ref().unwrap().backend(1).health();
    assert!(
        !h0[1].desynced,
        "range 0's secondary converged before the primary died: {h0:?}"
    );
    assert!(
        h1[1].desynced && !h1[0].desynced,
        "range 1's dead secondary is marked, its primary is not: {h1:?}"
    );

    // A mutation routed to range 0 hits the dead primary: loud named
    // transport error, never redirected to the secondary.
    let db = cluster.db.as_ref().unwrap();
    let on0 = refs
        .iter()
        .find(|&&r| db.shard_of(r) == 0 && db.is_live(r))
        .copied()
        .expect("range 0 owns live objects");
    let err = cluster
        .db()
        .try_remove(on0)
        .expect_err("a dead primary fails writes");
    assert!(matches!(err, scq_shard::ShardError::Wire(_)), "{err}");
    // The failed remove reached no replica: the same read is still
    // Complete and oracle-equal.
    let again = bbox_execute(cluster.db(), &q, IndexKind::RTree).unwrap();
    assert_eq!(again.outcome, QueryOutcome::Complete);
    let again_solutions = normalize(&again);
    assert_eq!(again_solutions, oracle, "the failed write changed nothing");
}

/// The flapping-breaker script, with zero sleeps, driven by writes (no
/// read reaches a shard process): K consecutive transport failures trip
/// the primary address's breaker (at exactly K, not before), a write
/// to a tripped address fails fast WITHOUT dialing (the proxy forwards
/// no frames even after the partition heals), and advancing the
/// injected clock past the cooldown re-admits the address through a
/// half-open write that closes the breaker on success. Reads answer in
/// full throughout, with no failover.
#[test]
fn breaker_trips_at_exactly_k_skips_without_dialing_and_readmits_after_cooldown() {
    let primary = boot_server(2);
    let secondary = boot_server(2);
    let proxy = FaultProxy::start(&primary.addr().to_string()).expect("bind proxy");
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
    let mut spec = ClusterSpec::balanced_replicated(
        universe,
        scq_shard::DEFAULT_ROUTER_BITS,
        &[vec![proxy.addr().to_string(), secondary.addr().to_string()]],
    );
    spec.breaker = BreakerConfig {
        threshold: 3,
        cooldown: Duration::from_secs(3600),
    };
    let mut db = spec.connect(Duration::from_secs(10)).expect("connect");
    // Deterministic time: the test advances the breaker clock by hand.
    let now = std::sync::Arc::new(std::sync::Mutex::new(std::time::Instant::now()));
    let tick = now.clone();
    db.backend_mut(0)
        .set_clock(std::sync::Arc::new(move || *tick.lock().unwrap()));

    let coll = db.try_collection("objs").expect("create");
    for i in 0..4 {
        let t = i as f64 * 20.0 + 1.0;
        db.try_insert(
            coll,
            Region::from_box(AaBox::new([t, 5.0], [t + 5.0, 11.0])),
        )
        .expect("insert");
    }
    let read = |db: &ShardedDatabase<RemoteShard>, expect: Vec<u64>| {
        let mut out = Vec::new();
        let mut trace = ProbeTrace::default();
        db.backend(0)
            .try_corner_query(
                coll,
                IndexKind::RTree,
                &CornerQuery::unconstrained(),
                &mut out,
                &mut trace,
            )
            .expect("reads never fail");
        out.sort_unstable();
        assert_eq!(out, expect);
        assert_eq!((trace.failovers, trace.stale), (0, false), "{trace:?}");
    };
    let write = |db: &mut ShardedDatabase<RemoteShard>| {
        db.try_insert(
            coll,
            Region::from_box(AaBox::new([50.0, 50.0], [55.0, 55.0])),
        )
    };
    read(&db, vec![0, 1, 2, 3]);

    // Partition the primary: each write fails and costs its address
    // one consecutive failure. Closed through K-1 failures...
    proxy.partition();
    for i in 1..=2usize {
        let err = write(&mut db).expect_err("a partitioned primary fails writes");
        assert!(matches!(err, scq_shard::ShardError::Wire(_)), "{err}");
        read(&db, vec![0, 1, 2, 3]);
        let h = db.backend(0).health();
        assert_eq!(
            h[0].stats.breaker,
            BreakerState::Closed,
            "failure {i}: {h:?}"
        );
        assert_eq!(h[0].stats.consecutive_failures, i, "{h:?}");
        assert_eq!(h[0].stats.breaker_trips, 0, "{h:?}");
    }
    // ...tripped at exactly K.
    write(&mut db).expect_err("still partitioned");
    let h = db.backend(0).health();
    assert_eq!(h[0].stats.breaker, BreakerState::Open, "{h:?}");
    assert_eq!(h[0].stats.breaker_trips, 1, "{h:?}");

    // Heal the network. The breaker is still open, so the next write
    // fails fast without dialing: the healed proxy forwards nothing.
    proxy.heal();
    let frames = proxy.frames_forwarded(Direction::ClientToServer);
    let err = write(&mut db).expect_err("an open breaker refuses the write");
    assert!(err.to_string().contains("circuit breaker open"), "{err}");
    assert_eq!(
        proxy.frames_forwarded(Direction::ClientToServer),
        frames,
        "a tripped address receives no traffic"
    );
    assert_eq!(db.backend(0).health()[0].stats.consecutive_failures, 3);
    read(&db, vec![0, 1, 2, 3]);

    // Advance the clock past the cooldown: the half-open write dials
    // the healed primary, succeeds, and the breaker closes.
    *now.lock().unwrap() += Duration::from_secs(3601);
    let obj = write(&mut db).expect("the half-open write lands");
    assert_eq!(obj.index, 4);
    let h = db.backend(0).health();
    assert_eq!(h[0].stats.breaker, BreakerState::Closed, "{h:?}");
    assert_eq!(
        h[0].stats.breaker_trips, 1,
        "exactly one trip across the whole flap: {h:?}"
    );
    assert!(
        !h[1].desynced,
        "the failed writes reached no replica: {h:?}"
    );
    assert!(proxy.frames_forwarded(Direction::ClientToServer) > frames);
    read(&db, vec![0, 1, 2, 3, 4]);
    db.check().expect("no failed write reached any copy");

    primary.shutdown();
    secondary.shutdown();
}

/// The split-brain script: a PRISTINE process restarted behind a dead
/// secondary's address must never be silently re-adopted. Reads never
/// consult it, the integrity check names the impostor, a replicated
/// write fails loudly instead of diverging, and the documented recovery
/// path — restore every replica from one snapshot — actually heals the
/// cluster.
#[test]
fn pristine_restart_behind_a_replica_address_stays_a_loud_desync_until_restored() {
    let primary = boot_server(2);
    let secondary = boot_server(2);
    // The proxy's address is the replica's stable, spec'd address; the
    // process behind it will change.
    let proxy = FaultProxy::start(&secondary.addr().to_string()).expect("bind proxy");
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
    let spec = ClusterSpec::balanced_replicated(
        universe,
        scq_shard::DEFAULT_ROUTER_BITS,
        &[vec![primary.addr().to_string(), proxy.addr().to_string()]],
    );
    let mut db = spec.connect(Duration::from_secs(10)).expect("connect");
    let coll = db.try_collection("objs").expect("create");
    for i in 0..5 {
        let t = i as f64 * 15.0 + 1.0;
        db.try_insert(coll, Region::from_box(AaBox::new([t, 2.0], [t + 6.0, 9.0])))
            .expect("insert");
    }
    db.check().expect("healthy replicated cluster");
    let dir = std::env::temp_dir().join(format!("scq_split_brain_{}", std::process::id()));
    scq_shard::save_to_dir(&db, &dir).expect("snapshot the good state");
    // The v3 manifest recorded the replica topology the cluster served
    // from (primary first).
    let manifest = std::fs::read(dir.join(scq_shard::snapshot::MANIFEST_FILE)).unwrap();
    let m = scq_shard::snapshot::load_manifest(&manifest).unwrap();
    assert_eq!(
        m.replica_sets(),
        &[vec![primary.addr().to_string(), proxy.addr().to_string()]]
    );

    // The secondary dies; a pristine process comes up behind its
    // address.
    secondary.shutdown();
    let impostor = boot_server(2);
    proxy.retarget(&impostor.addr().to_string());
    proxy.sever_all();

    // Reads never consult the impostor while the primary is healthy.
    let mut out = Vec::new();
    let mut trace = ProbeTrace::default();
    db.backend(0)
        .try_corner_query(
            coll,
            IndexKind::RTree,
            &CornerQuery::unconstrained(),
            &mut out,
            &mut trace,
        )
        .expect("primary still serves");
    assert_eq!(out.len(), 5);
    assert_eq!((trace.failovers, trace.stale), (0, false), "{trace:?}");

    // The integrity check cross-examines the replica's census and is
    // loud about the mismatch.
    let problems = db
        .check()
        .expect_err("a pristine impostor fails the integrity check");
    assert!(
        problems.iter().any(|p| p.contains("replica")),
        "{problems:?}"
    );

    // A replicated write fails loudly — the primary accepted what the
    // impostor cannot have, and the router refuses to paper over it.
    let err = db
        .try_insert(
            coll,
            Region::from_box(AaBox::new([80.0, 80.0], [85.0, 85.0])),
        )
        .expect_err("split-brain write must fail");
    assert!(err.to_string().contains("rejected"), "{err}");

    // Recovery is the documented path: restore every replica from one
    // snapshot. That turns the impostor into a real, converged
    // replica.
    scq_shard::reload_from_dir(&mut db, &dir).expect("restore from snapshot");
    std::fs::remove_dir_all(&dir).ok();
    db.check().expect("restored cluster is consistent");
    db.try_insert(
        coll,
        Region::from_box(AaBox::new([80.0, 80.0], [85.0, 85.0])),
    )
    .expect("writes replicate again");
    // …and the restored replica really is a backup: with the primary
    // alive, the check compares its census with the mirror.
    db.check()
        .expect("the restored replica agrees with the mirror");
    // A dead primary takes nothing away from a read, and fails the
    // next write loudly.
    primary.shutdown();
    let mut out = Vec::new();
    let mut trace = ProbeTrace::default();
    db.backend(0)
        .try_corner_query(
            coll,
            IndexKind::RTree,
            &CornerQuery::unconstrained(),
            &mut out,
            &mut trace,
        )
        .expect("reads answer from the mirror");
    assert_eq!(out.len(), 6, "snapshot contents plus the new insert");
    assert_eq!((trace.failovers, trace.stale), (0, false), "{trace:?}");
    let err = db
        .try_insert(
            coll,
            Region::from_box(AaBox::new([60.0, 60.0], [65.0, 65.0])),
        )
        .expect_err("a dead primary fails writes");
    assert!(matches!(err, scq_shard::ShardError::Wire(_)), "{err}");
    impostor.shutdown();
}

/// Boots a WAL-enabled shard server logging under `<root>/<tag>`.
fn boot_wal_server(root: &std::path::Path, tag: &str) -> ShardServerHandle {
    scq_shard::serve_shard(&ShardServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        universe_size: UNIVERSE_SIZE,
        wal: Some(WalConfig::new(root.join(tag))),
        ..ShardServerConfig::default()
    })
    .expect("bind wal shard server")
}

/// The durability acceptance scenario: every shard process of a
/// WAL-enabled cluster dies mid-churn (listener closed, every live
/// connection cut — the thread equivalent of SIGKILL;
/// `scripts/crash_smoke.sh` repeats this with real processes and a real
/// `kill -9`) and a fresh process restarts behind the same spec'd
/// address on the same log directory. Recovery must replay the log
/// back to exactly the acknowledged state — zero acknowledged
/// mutations lost, every answer oracle-equal — and the cluster must
/// keep taking writes afterwards.
#[test]
fn wal_cluster_killed_mid_churn_replays_every_acknowledged_mutation() {
    let root = std::env::temp_dir().join(format!("scq_wal_crash_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut servers = vec![boot_wal_server(&root, "s0"), boot_wal_server(&root, "s1")];
    // The proxies own the stable, spec'd addresses; the processes
    // behind them change across the crash.
    let proxies: Vec<FaultProxy> = servers
        .iter()
        .map(|s| FaultProxy::start(&s.addr().to_string()).expect("bind proxy"))
        .collect();
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
    let addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
    let spec = ClusterSpec::balanced(universe, scq_shard::DEFAULT_ROUTER_BITS, &addrs);
    let mut db = spec.connect(Duration::from_secs(10)).expect("connect");
    let mut plain = SpatialDatabase::new(universe);
    let coll = db.try_collection("objs").expect("create");
    plain.collection("objs");

    let churn = fixed_churn(40);
    for op in &churn[..25] {
        apply_both(&mut db, &mut plain, &[coll], op);
    }

    // Every mutation above was acknowledged, so each is already
    // fsync'd. Kill both shard processes mid-churn…
    for server in servers.drain(..) {
        server.shutdown();
    }
    // …and restart them on the same WAL directories, behind the same
    // addresses.
    servers = vec![boot_wal_server(&root, "s0"), boot_wal_server(&root, "s1")];
    for (proxy, server) in proxies.iter().zip(&servers) {
        proxy.retarget(&server.addr().to_string());
        proxy.sever_all();
    }

    let stats = db.wal_stats().expect("a wal cluster reports stats");
    assert!(stats.replayed > 0, "restart replayed the log: {stats:?}");
    assert_eq!(stats.torn_tails, 0, "clean shutdown left no torn tail");
    db.check()
        .expect("replayed cluster passes the integrity check");
    assert_eq!(db.live_len(coll), plain.live_len(coll));
    for q in corner_queries() {
        let mut a = Vec::new();
        db.query_collection(coll, IndexKind::RTree, &q, &mut a);
        a.sort_unstable();
        let mut b = Vec::new();
        plain.query_collection(coll, IndexKind::RTree, &q, &mut b);
        b.sort_unstable();
        assert_eq!(a, b, "replayed answers equal the unsharded oracle");
    }

    // The revived cluster is fully live: finish the churn and stay
    // oracle-equal.
    for op in &churn[25..] {
        apply_both(&mut db, &mut plain, &[coll], op);
    }
    assert_eq!(db.live_len(coll), plain.live_len(coll));
    let stats = db.wal_stats().expect("stats");
    assert!(
        stats.appended > 0,
        "post-recovery writes hit the log: {stats:?}"
    );
    for server in servers.drain(..) {
        server.shutdown();
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A lagging replica has one repair path: `resync` ships it the
/// primary's snapshot, pulled read-only so the primary's log is left
/// alone. It works the same whether or not `SNAPSHOT SAVE` has
/// truncated that log in between.
#[test]
fn desynced_replica_resyncs_before_and_after_log_truncation() {
    let root = std::env::temp_dir().join(format!("scq_wal_resync_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let primary = boot_wal_server(&root, "primary");
    let secondary = boot_server(1);
    let proxy = FaultProxy::start(&secondary.addr().to_string()).expect("bind proxy");
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
    let spec = ClusterSpec::balanced_replicated(
        universe,
        scq_shard::DEFAULT_ROUTER_BITS,
        &[vec![primary.addr().to_string(), proxy.addr().to_string()]],
    );
    let mut db = spec.connect(Duration::from_secs(10)).expect("connect");
    let coll = db.try_collection("objs").expect("create");
    for i in 0..6 {
        let t = i as f64 * 14.0 + 1.0;
        db.try_insert(coll, Region::from_box(AaBox::new([t, 3.0], [t + 6.0, 9.0])))
            .expect("insert");
    }

    // Twice, the replica's process dies, the next write succeeds on
    // the primary and marks the replica desynced, and a pristine process
    // comes back behind the replica's address for `resync` to repair —
    // the second time after `SNAPSHOT SAVE`, the log-truncation point,
    // so the primary's log no longer reaches genesis. Repair does not
    // care.
    let mut replica = secondary;
    for (round, [x, y]) in [[90.0, 90.0], [80.0, 10.0]].into_iter().enumerate() {
        if round == 1 {
            scq_shard::save_to_dir(&db, &root.join("snap"))
                .expect("snapshot (truncates the primary's log)");
        }
        replica.shutdown();
        proxy.sever_all();
        db.try_insert(
            coll,
            Region::from_box(AaBox::new([x, y], [x + 5.0, y + 5.0])),
        )
        .expect("writes keep flowing on the primary");
        assert!(db.backend(0).health()[1].desynced);
        replica = boot_server(1);
        proxy.retarget(&replica.addr().to_string());
        assert_eq!(db.resync_all().expect("resync"), 1, "round {round}");
        db.check().expect("resynced cluster is consistent");
    }

    // The twice-resynced replica really is a backup: with the primary
    // alive, the check compares its census with the mirror.
    assert!(!db.backend(0).health()[1].desynced);
    db.check()
        .expect("the resynced replica agrees with the mirror");
    // A dead primary takes nothing away from a read, and fails the
    // next write loudly.
    primary.shutdown();
    let mut out = Vec::new();
    let mut trace = ProbeTrace::default();
    db.backend(0)
        .try_corner_query(
            coll,
            IndexKind::RTree,
            &CornerQuery::unconstrained(),
            &mut out,
            &mut trace,
        )
        .expect("reads answer from the mirror");
    assert_eq!(out.len(), 8, "6 seed inserts + 2 desync-window inserts");
    assert_eq!((trace.failovers, trace.stale), (0, false), "{trace:?}");
    let err = db
        .try_insert(
            coll,
            Region::from_box(AaBox::new([60.0, 60.0], [65.0, 65.0])),
        )
        .expect_err("a dead primary fails writes");
    assert!(matches!(err, scq_shard::ShardError::Wire(_)), "{err}");
    replica.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

proptest! {
    // Each case boots real listeners, so run fewer, longer cases than
    // the in-process suite.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After any mutation sequence — including cross-process migration
    /// on update — a cluster of shard processes answers every corner
    /// query identically to the unsharded store, on all three index
    /// structures, and passes the full integrity check (which
    /// cross-examines every shard process over the wire).
    #[test]
    fn cluster_corner_queries_match_unsharded(
        ops in prop::collection::vec(op_strategy(1), 1..60),
        n_shards in 2usize..5,
    ) {
        let mut cluster = Cluster::boot(n_shards);
        let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
        let mut plain = SpatialDatabase::new(universe);
        let coll = cluster.db().try_collection("objs").expect("create");
        prop_assert_eq!(plain.collection("objs"), coll);
        for op in &ops {
            apply_both(cluster.db(), &mut plain, &[coll], op);
        }
        cluster.db().check().expect("cluster is consistent");
        scq_engine::integrity::check(&plain).expect("plain store is consistent");
        prop_assert_eq!(cluster.db().live_len(coll), plain.live_len(coll));

        for q in corner_queries() {
            for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
                let mut a = Vec::new();
                cluster.db().query_collection(coll, kind, &q, &mut a);
                a.sort_unstable();
                let mut b = Vec::new();
                plain.query_collection(coll, kind, &q, &mut b);
                b.sort_unstable();
                prop_assert_eq!(a, b, "{:?} diverged between cluster and plain", kind);
            }
        }
    }

    /// Constraint queries agree too — the engine executor over the
    /// remote-backed view, for every index kind — and the snapshot
    /// paths hold: a snapshot pulled over the wire loads as an
    /// identical local store, and reloading it back **into the same
    /// cluster** (each shard process swallowing its stream) preserves
    /// every answer.
    #[test]
    fn cluster_executors_and_snapshots_match_unsharded(
        ops in prop::collection::vec(op_strategy(1), 1..40),
        n_shards in 2usize..4,
        seed in 0u64..200,
    ) {
        let mut cluster = Cluster::boot(n_shards);
        let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
        let mut plain = SpatialDatabase::new(universe);
        let xs = cluster.db().try_collection("xs").expect("create");
        let ys = cluster.db().try_collection("ys").expect("create");
        prop_assert_eq!(plain.collection("xs"), xs);
        prop_assert_eq!(plain.collection("ys"), ys);
        for i in 0..8 {
            let t = (i as f64 * 11.0 + seed as f64) % 78.0;
            let rx = Region::from_box(AaBox::new([t, 2.0], [t + 11.0, 48.0]));
            let ry = Region::from_box(AaBox::new([t + 3.0, 12.0], [t + 8.0, 38.0]));
            cluster.db().try_insert(xs, rx.clone()).expect("insert");
            plain.insert(xs, rx);
            cluster.db().try_insert(ys, ry.clone()).expect("insert");
            plain.insert(ys, ry);
        }
        for op in &ops {
            apply_both(cluster.db(), &mut plain, &[xs], op);
        }

        let sys = parse_system("X & Y != 0; X <= W").unwrap();
        let q = Query::new(sys)
            .known("W", Region::from_box(AaBox::new([0.0, 0.0], [55.0, 55.0])))
            .from_collection("X", xs)
            .from_collection("Y", ys);

        let oracle = normalize(&naive_execute(&plain, &q).unwrap());
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let got = normalize(&bbox_execute(cluster.db(), &q, kind).unwrap());
            prop_assert_eq!(&got, &oracle, "cluster {:?} diverged from naive", kind);
        }

        // Snapshot pulled over the wire → identical local store.
        let dir = std::env::temp_dir().join(format!(
            "scq_cluster_props_{}_{}",
            std::process::id(),
            seed
        ));
        scq_shard::save_to_dir(cluster.db(), &dir).expect("save cluster snapshot");
        let local = scq_shard::load_from_dir(&dir).expect("load locally");
        local.check().expect("local reload is consistent");
        let local_ans = normalize(&bbox_execute(&local, &q, IndexKind::GridFile).unwrap());
        prop_assert_eq!(&local_ans, &oracle, "answers changed across the wire snapshot");

        // In-place cluster restore: every shard process reloads its own
        // stream, the router rebuilds the mapping, answers survive.
        scq_shard::reload_from_dir(cluster.db(), &dir).expect("reload cluster in place");
        std::fs::remove_dir_all(&dir).ok();
        cluster.db().check().expect("cluster consistent after reload");
        let after = normalize(&bbox_execute(cluster.db(), &q, IndexKind::RTree).unwrap());
        prop_assert_eq!(&after, &oracle, "answers changed across the cluster restore");
    }

    /// Cluster compaction — every shard process compacts, remaps cross
    /// the wire, the router repairs its mapping — preserves the live
    /// contents modulo the remap.
    #[test]
    fn cluster_compaction_preserves_answers(
        ops in prop::collection::vec(op_strategy(1), 1..50),
    ) {
        let mut cluster = Cluster::boot(3);
        let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
        let mut plain = SpatialDatabase::new(universe);
        let coll = cluster.db().try_collection("objs").expect("create");
        plain.collection("objs");
        for op in &ops {
            apply_both(cluster.db(), &mut plain, &[coll], op);
        }
        let report = cluster.db().try_compact().expect("remote compact");
        cluster.db().check().expect("consistent after compaction");
        prop_assert_eq!(
            cluster.db().collection_len(coll),
            cluster.db().live_len(coll)
        );
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
            cluster.db().query_collection(coll, IndexKind::RTree, &q, &mut after);
            after.sort_unstable();
            prop_assert_eq!(before, after, "compaction changed an answer");
        }
    }
}

proptest! {
    // Pure text-format properties: cheap, so run many cases.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cluster spec text format is a bijection on valid specs:
    /// format → parse → format is a fixpoint, and parse recovers the
    /// exact spec — arbitrary (non-balanced) range tilings, replica
    /// counts, breaker tunings and universes included.
    #[test]
    fn cluster_spec_round_trips_format_parse_format(
        bits in 3u32..10,
        raw_cuts in prop::collection::vec(1u64..u64::MAX, 0..7),
        (ux, uy) in (1u16..2000, 1u16..2000),
        n_replicas in prop::collection::vec(1usize..4, 8),
        threshold in 1usize..9,
        cooldown_ms in 1u64..100_000,
    ) {
        let space = scq_zorder::key_space(bits);
        let mut cuts: Vec<u64> = raw_cuts.iter().map(|c| 1 + c % (space - 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut bounds = vec![0u64];
        bounds.extend(cuts);
        bounds.push(space);
        let shards: Vec<ShardSpec> = bounds
            .windows(2)
            .enumerate()
            .map(|(i, w)| ShardSpec {
                name: format!("shard{i}"),
                addrs: (0..n_replicas[i])
                    .map(|r| format!("10.0.{r}.{i}:7{i:03}"))
                    .collect(),
                range: (w[0], w[1]),
            })
            .collect();
        let spec = ClusterSpec {
            universe: AaBox::new([0.0, 0.0], [ux as f64, uy as f64]),
            bits,
            breaker: BreakerConfig {
                threshold,
                cooldown: Duration::from_millis(cooldown_ms),
            },
            shards,
        };
        spec.validate().expect("generated specs are valid");
        let text = spec.to_text();
        let parsed = ClusterSpec::parse(&text).expect("own output parses");
        prop_assert_eq!(&parsed, &spec, "parse must recover the spec");
        prop_assert_eq!(parsed.to_text(), text, "format∘parse is a fixpoint");
    }
}
