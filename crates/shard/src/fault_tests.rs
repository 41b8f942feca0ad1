//! The fault-injection proxy (`scq_testkit::fault`) driven against a
//! real shard server and a `RemoteShard`: reconnect-once on
//! idempotent requests, mutations never auto-retried, named truncation
//! and decode errors, multiplexed in-flight depth, mid-stream severs,
//! partition/heal, and a router that stays consistent across a lost
//! ack or a compaction one shard fails. They live here, not in the kit,
//! because they reach the shard crate's own internals (`link_stats`,
//! the opcodes, `STREAM_CHUNK`).

mod tests {
    use std::time::Duration;

    use scq_testkit::{Direction, FaultAction, FaultGate, FaultProxy, FaultRule, FrameMatch};

    use crate::backend::{local_ref, ProbeTrace, ShardBackend, ShardError};
    use crate::remote::RemoteShard;
    use crate::server::{serve_shard, ShardServerConfig, ShardServerHandle};
    use crate::wire::{WireError, OP_COMPACT, OP_INSERT, OP_METRICS, OP_REMOVE};
    use crate::{ClusterSpec, ShardedDatabase, DEFAULT_ROUTER_BITS};
    use scq_bbox::{Bbox, CornerQuery};
    use scq_engine::{CollectionId, IndexKind, ObjectRef};
    use scq_region::{AaBox, Region};

    fn universe() -> AaBox<2> {
        AaBox::new([0.0, 0.0], [100.0, 100.0])
    }

    fn boxed(x: f64, y: f64, w: f64, h: f64) -> Region<2> {
        Region::from_box(AaBox::new([x, y], [x + w, y + h]))
    }

    fn start_server() -> ShardServerHandle {
        serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            universe_size: 100.0,
            ..ShardServerConfig::default()
        })
        .expect("bind shard server")
    }

    /// A shard server, a proxy in front of it, and a RemoteShard that
    /// only knows the proxy's address.
    fn start() -> (ShardServerHandle, FaultProxy, RemoteShard) {
        let server = start_server();
        let proxy = FaultProxy::start(&server.addr().to_string()).expect("bind proxy");
        let remote = RemoteShard::connect(
            &proxy.addr().to_string(),
            universe(),
            Duration::from_secs(5),
        )
        .expect("connect through the proxy");
        (server, proxy, remote)
    }

    #[test]
    fn passthrough_proxy_is_invisible() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        let mut out = Vec::new();
        let mut trace = ProbeTrace::default();
        remote
            .try_corner_query(
                c,
                IndexKind::RTree,
                &CornerQuery::unconstrained(),
                &mut out,
                &mut trace,
            )
            .unwrap();
        assert_eq!(trace.retries, 0, "no faults, no retries");
        assert_eq!(out, vec![0]);
        assert!(remote.check().is_empty());
        assert!(proxy.frames_forwarded(Direction::ClientToServer) >= 4);
        assert_eq!(proxy.severed(), 0);
        server.shutdown();
    }

    /// Reads never reach the shard process, so the idempotent request
    /// that carries the fault here is `METRICS`.
    #[test]
    fn severed_query_reconnects_and_retries_exactly_once() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        proxy.inject(FaultRule {
            direction: Direction::ClientToServer,
            matches: FrameMatch::Opcode(OP_METRICS),
            action: FaultAction::Sever,
            remaining: 1,
            skip: 0,
        });
        assert!(
            remote.metrics().is_some(),
            "the retry lands on a fresh connection"
        );
        let stats = remote.link_stats();
        // Exactly one reconnect: the first connection and its one
        // successor. The broken connection was replaced, a healthy one
        // stands ready, and nothing broken lingers.
        assert_eq!(stats.created, 2, "{stats:?}");
        assert_eq!(stats.discarded, 1, "{stats:?}");
        assert_eq!(stats.idle, 1, "{stats:?}");
        assert_eq!(proxy.severed(), 1);
        assert_eq!(query(&remote, c), vec![0], "reads never saw the fault");
        server.shutdown();
    }

    /// Every live local slot of `c`, as the mirror answers an
    /// unconstrained probe.
    fn query(remote: &RemoteShard, c: CollectionId) -> Vec<u64> {
        let mut out = Vec::new();
        remote
            .try_corner_query(
                c,
                IndexKind::RTree,
                &CornerQuery::unconstrained(),
                &mut out,
                &mut ProbeTrace::default(),
            )
            .expect("a mirror read cannot fail");
        out.sort_unstable();
        out
    }

    #[test]
    fn mutations_are_never_auto_retried() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
        // Sever the next INSERT before it reaches the server: the
        // client must fail the mutation, not replay it.
        proxy.inject(FaultRule {
            direction: Direction::ClientToServer,
            matches: FrameMatch::Opcode(OP_INSERT),
            action: FaultAction::Sever,
            remaining: 1,
            skip: 0,
        });
        let err = remote.insert(c, boxed(5.0, 5.0, 2.0, 2.0)).unwrap_err();
        assert!(matches!(err, ShardError::Wire(_)), "{err}");
        // The mirror and shard still agree on the OLD state — the shard
        // never saw the insert, the mirror never recorded it.
        assert_eq!(remote.database().collection_len(c), 1);
        assert!(remote.check().is_empty(), "{:?}", remote.check());
        // And the connection heals for the next mutation.
        assert_eq!(remote.insert(c, boxed(5.0, 5.0, 2.0, 2.0)).unwrap(), 1);
        assert!(remote.check().is_empty());
        server.shutdown();
    }

    #[test]
    fn a_lost_ack_surfaces_as_mirror_drift_not_a_silent_retry() {
        // The reason mutations must not auto-retry: once the request
        // reached the shard, a lost ack leaves the shard mutated and
        // the mirror not — replaying would double-apply. The client
        // errors out and the drift is *detectable* via check().
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
        proxy.inject(FaultRule {
            direction: Direction::ServerToClient,
            matches: FrameMatch::Any,
            action: FaultAction::Sever,
            remaining: 1,
            skip: 0,
        });
        let err = remote.remove(c, 0).unwrap_err();
        assert!(matches!(err, ShardError::Wire(_)), "{err}");
        let problems = remote.check();
        assert!(
            problems.iter().any(|p| p.contains("drift")),
            "a lost ack must be visible as mirror drift: {problems:?}"
        );
        server.shutdown();
    }

    /// The lost ack that leaves every count unchanged: the shard
    /// applied an UPDATE and the mirror did not. `check()` compares the
    /// primary's regions with the mirror's slot by slot and names the
    /// slot.
    #[test]
    fn a_lost_update_ack_surfaces_as_region_drift() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
        proxy.inject(FaultRule {
            direction: Direction::ServerToClient,
            matches: FrameMatch::Any,
            action: FaultAction::Sever,
            remaining: 1,
            skip: 0,
        });
        let err = remote
            .update(c, 0, boxed(50.0, 50.0, 2.0, 2.0))
            .unwrap_err();
        assert!(matches!(err, ShardError::Wire(_)), "{err}");
        assert_eq!(
            remote.check(),
            vec!["mirror drift on \"objs\" slot 0: the shard's region differs from the mirror's"]
        );
        server.shutdown();
    }

    /// A shard answer that is not the mirror's own answer to the same
    /// write — here a slot or a remap garbled on the wire — is refused
    /// by name, and the mirror is left exactly as it was.
    #[test]
    fn answers_the_mirror_would_not_give_are_refused_and_apply_nothing() {
        type Write = fn(&mut RemoteShard, CollectionId) -> Result<(), ShardError>;
        let cases: [(Write, &str, &str); 2] = [
            (
                |r, c| r.insert(c, boxed(9.0, 9.0, 1.0, 1.0)).map(drop),
                "INSERT with Slot(6)",
                "Slot(2)",
            ),
            (
                |r, _| r.compact().map(drop),
                "COMPACT with Remap { reclaimed: 5, remap: [[None, Some(0)]] }",
                "Remap { reclaimed: 1, remap: [[None, Some(0)]] }",
            ),
        ];
        for (write, answered, ours) in cases {
            let (server, proxy, mut remote) = start();
            let c = remote.create_collection("objs").unwrap();
            remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
            remote.insert(c, boxed(5.0, 5.0, 2.0, 2.0)).unwrap();
            assert!(remote.remove(c, 0).unwrap());
            let slots = |r: &RemoteShard| {
                let db = r.database();
                let live: Vec<bool> = db
                    .object_indices(c)
                    .map(|index| db.is_live(local_ref(c, index)))
                    .collect();
                (live, db.live_len(c), db.epoch(c))
            };
            let before = slots(&remote);
            // The low byte of the slot, or of the reclaimed count: the
            // first byte after the response's status and kind bytes.
            proxy.inject(FaultRule {
                direction: Direction::ServerToClient,
                matches: FrameMatch::Any,
                action: FaultAction::Garble {
                    offset: crate::wire::MUX_HEADER + 2,
                    xor: 0x04,
                },
                remaining: 1,
                skip: 0,
            });
            let err = write(&mut remote, c).expect_err("a garbled answer must be refused");
            assert_eq!(
                err.to_string(),
                format!(
                    "shard rejected: shard {} answered {answered} where the mirror answers \
                     {ours}: shard state is out of lockstep with the router",
                    proxy.addr()
                )
            );
            assert_eq!(slots(&remote), before, "{answered} touched the mirror");
            server.shutdown();
        }
    }

    #[test]
    fn truncation_mid_length_prefix_is_the_named_error() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        // Let 2 of the 4 length-prefix bytes of the next response
        // through, then sever: the client must report the distinct
        // prefix-truncation error, not a generic I/O failure. Use a
        // mutation so no retry masks the error.
        proxy.inject(FaultRule {
            direction: Direction::ServerToClient,
            matches: FrameMatch::Any,
            action: FaultAction::Truncate { keep: 2 },
            remaining: 1,
            skip: 0,
        });
        let err = remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap_err();
        assert_eq!(
            err,
            ShardError::Wire(WireError::TruncatedLengthPrefix { got: 2 }),
            "mid-prefix close must be the named error"
        );
        server.shutdown();
    }

    #[test]
    fn truncation_mid_body_is_a_named_error_too() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        proxy.inject(FaultRule {
            direction: Direction::ServerToClient,
            matches: FrameMatch::Any,
            action: FaultAction::Truncate { keep: 5 },
            remaining: 1,
            skip: 0,
        });
        let err = remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap_err();
        assert_eq!(err, ShardError::Wire(WireError::Truncated), "{err}");
        server.shutdown();
    }

    #[test]
    fn garbled_responses_are_named_decode_errors_and_queries_recover() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        // Corrupt the response-kind byte of the next response — the
        // first body byte AFTER the 9-byte mux header (corrupting the
        // header itself would orphan the response instead). The decode
        // fails loudly, that one request errors, and the idempotent
        // METRICS transparently retries on the same connection: a
        // decode error is one answer gone bad, not a dead transport.
        proxy.inject(FaultRule {
            direction: Direction::ServerToClient,
            matches: FrameMatch::Any,
            action: FaultAction::Garble {
                offset: crate::wire::MUX_HEADER,
                xor: 0x77,
            },
            remaining: 1,
            skip: 0,
        });
        let t = scq_obs::TraceState::new(5);
        let guard = t.install();
        assert!(remote.metrics().is_some(), "the retried exchange answers");
        drop(guard);
        let retries = t.spans().iter().filter(|s| s.name == "retry").count();
        assert_eq!(retries, 1, "the garbled exchange is retried once");
        let stats = remote.link_stats();
        assert_eq!((stats.created, stats.discarded), (1, 0), "{stats:?}");
        // A mutation has no retry to hide behind: its garbled answer
        // is the named decode error itself.
        proxy.inject(FaultRule {
            direction: Direction::ServerToClient,
            matches: FrameMatch::Any,
            action: FaultAction::Garble {
                offset: crate::wire::MUX_HEADER,
                xor: 0x77,
            },
            remaining: 1,
            skip: 0,
        });
        let err = remote.insert(c, boxed(1.0, 1.0, 1.0, 1.0)).unwrap_err();
        assert!(
            matches!(err, ShardError::Wire(ref e) if !e.is_transport()),
            "a garbled answer is a decode error, not an outage: {err:?}"
        );
        assert_eq!(query(&remote, c), vec![0]);
        server.shutdown();
    }

    /// Two requests on ONE `RemoteShard` are in flight at the same time
    /// over ONE multiplexed connection. The first `METRICS` request
    /// frame is parked at a gate; while it is provably held, a second
    /// one runs to completion over the same socket (its frames flow
    /// past the parked one); then the gate opens and the first
    /// completes too. No sleeps, no racing clocks.
    #[test]
    fn concurrent_queries_overlap_on_one_multiplexed_connection() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        let gate = FaultGate::new();
        proxy.inject(FaultRule {
            direction: Direction::ClientToServer,
            matches: FrameMatch::Opcode(OP_METRICS),
            action: FaultAction::Hold(gate.clone()),
            remaining: 1,
            skip: 0,
        });
        let remote = &remote;
        std::thread::scope(|scope| {
            let held = scope.spawn(move || remote.metrics().is_some());
            assert!(
                gate.wait_for_hold(Duration::from_secs(10)),
                "the first request must reach the gate"
            );
            // First request provably in flight. A second on the SAME
            // RemoteShard completes over the same socket — impossible
            // on a serialized request/response protocol.
            assert!(
                remote.metrics().is_some(),
                "the overlapping request completes while the first is held"
            );
            assert!(
                gate.holding() > 0,
                "the first request is still parked at the gate"
            );
            gate.open();
            assert!(held.join().expect("no panic"), "the held request answers");
        });
        let stats = remote.link_stats();
        assert!(
            stats.peak_in_flight >= 2,
            "both requests must have been in flight at once: {stats:?}"
        );
        assert_eq!(
            stats.created, 1,
            "everything multiplexed over ONE connection: {stats:?}"
        );
        server.shutdown();
    }

    /// Depth, not just overlap: EIGHT requests in flight on ONE
    /// connection, each provably parked at the proxy's gate at the
    /// same instant — no sleeps, the gate count is the evidence.
    #[test]
    fn eight_requests_in_flight_on_one_multiplexed_connection() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        let gate = FaultGate::new();
        proxy.inject(FaultRule {
            direction: Direction::ClientToServer,
            matches: FrameMatch::Opcode(OP_METRICS),
            action: FaultAction::Hold(gate.clone()),
            remaining: 8,
            skip: 0,
        });
        let remote = &remote;
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..8)
                .map(|_| scope.spawn(move || remote.metrics().is_some()))
                .collect();
            assert!(
                gate.wait_for_holding(8, Duration::from_secs(10)),
                "all 8 requests must be parked at the gate simultaneously \
                 (holding = {})",
                gate.holding()
            );
            let stats = remote.link_stats();
            assert_eq!(stats.created, 1, "one connection carries all 8: {stats:?}");
            assert!(stats.peak_in_flight >= 8, "{stats:?}");
            gate.open();
            for waiter in waiters {
                assert!(waiter.join().expect("no panic"));
            }
        });
        server.shutdown();
    }

    /// A connection severed in the middle of a chunked response stream
    /// must surface as a *named* transport error on the waiting
    /// request — never a hang — and the client must recover once the
    /// fault clears.
    #[test]
    fn mid_stream_sever_is_a_named_error_then_recovers() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        // Fat objects (64 disjoint boxes each) push the snapshot past
        // one chunk (1 MiB) cheaply: the response streams as
        // MUX_CHUNK frames with a terminal MUX_END.
        for i in 0..900u64 {
            let x = (i % 40) as f64;
            let y = (i / 40) as f64;
            let cells = (0..64u64).map(|j| {
                let fx = x + (j % 8) as f64 * 0.125;
                let fy = y + (j / 8) as f64 * 0.125;
                AaBox::new([fx, fy], [fx + 0.06, fy + 0.06])
            });
            remote.insert(c, Region::from_boxes(cells)).unwrap();
        }
        // Let the first response chunk through, then sever mid-stream.
        // remaining = 2 so the automatic idempotent retry hits the
        // same fault and the error genuinely surfaces.
        proxy.inject(FaultRule {
            direction: Direction::ServerToClient,
            matches: FrameMatch::Any,
            action: FaultAction::Sever,
            remaining: 2,
            skip: 1,
        });
        let err = remote
            .snapshot_stream()
            .expect_err("a severed stream must error, not hang");
        match err {
            ShardError::Wire(e) => assert!(
                e.is_transport(),
                "mid-stream sever must be a named transport error: {e:?}"
            ),
            other => panic!("expected a wire transport error, got {other:?}"),
        }
        // Fault spent; a fresh attempt streams the whole snapshot.
        let bytes = remote
            .snapshot_stream()
            .expect("the healed connection streams the snapshot");
        assert!(
            bytes.len() > crate::wire::STREAM_CHUNK,
            "the snapshot must span multiple chunks to prove mid-stream \
             recovery ({} bytes)",
            bytes.len()
        );
        assert!(remote.check().is_empty(), "{:?}", remote.check());
        server.shutdown();
    }

    /// A partition shows on writes and on the shard-tier diagnostics,
    /// never on reads; after the heal the same client writes again and
    /// the mirror and shard agree.
    #[test]
    fn partition_and_heal_round_trips_without_a_new_client() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        proxy.partition();
        let err = remote.insert(c, boxed(30.0, 30.0, 5.0, 5.0)).unwrap_err();
        assert!(
            matches!(err, ShardError::Wire(ref e) if e.is_transport()),
            "a partitioned shard cannot take a write: {err:?}"
        );
        assert!(remote.metrics().is_none(), "nor answer METRICS");
        assert_eq!(query(&remote, c), vec![0], "reads answer through it");
        proxy.heal();
        assert_eq!(
            remote.insert(c, boxed(30.0, 30.0, 5.0, 5.0)).unwrap(),
            1,
            "the healed shard takes writes from the same client"
        );
        assert_eq!(query(&remote, c), vec![0, 1]);
        // The mirror and shard still agree after the outage.
        assert!(remote.check().is_empty(), "{:?}", remote.check());
        server.shutdown();
    }

    /// Every live local slot of `coll` whose box meets `b`, as global
    /// ids.
    fn probe(db: &ShardedDatabase<crate::RemoteShard>, coll: CollectionId, b: Bbox<2>) -> Vec<u64> {
        let mut out = Vec::new();
        let report = db.query_collection(
            coll,
            IndexKind::RTree,
            &CornerQuery::unconstrained().and_overlaps(&b),
            &mut out,
        );
        assert!(report.is_complete(), "{report:?}");
        out.sort_unstable();
        out
    }

    fn everywhere() -> Bbox<2> {
        Bbox::new([0.0, 0.0], [100.0, 100.0])
    }

    /// A one-shard cluster behind a proxy.
    fn proxied_cluster() -> (
        ShardServerHandle,
        FaultProxy,
        ShardedDatabase<crate::RemoteShard>,
    ) {
        let server = start_server();
        let proxy = FaultProxy::start(&server.addr().to_string()).expect("bind proxy");
        let db =
            ClusterSpec::balanced(universe(), DEFAULT_ROUTER_BITS, &[proxy.addr().to_string()])
                .connect(Duration::from_secs(5))
                .expect("connect through the proxy");
        (server, proxy, db)
    }

    fn sever_next_ack(proxy: &FaultProxy) {
        proxy.inject(FaultRule {
            direction: Direction::ServerToClient,
            matches: FrameMatch::Any,
            action: FaultAction::Sever,
            remaining: 1,
            skip: 0,
        });
    }

    /// A lost `INSERT` ack: the shard process holds a slot the router
    /// never mapped. A read answers from the mirror, so it lists only
    /// the acknowledged objects instead of remapping a slot past the
    /// router's table, and `check()` names the drift.
    #[test]
    fn a_lost_insert_ack_never_reaches_a_read() {
        let (server, proxy, mut db) = proxied_cluster();
        let coll = db.try_collection("objs").unwrap();
        db.try_insert(coll, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        sever_next_ack(&proxy);
        let err = db
            .try_insert(coll, boxed(20.0, 20.0, 5.0, 5.0))
            .unwrap_err();
        assert!(matches!(err, ShardError::Wire(_)), "{err}");
        assert_eq!(probe(&db, coll, everywhere()), vec![0]);
        let problems = db.check().expect_err("the lost ack is drift");
        assert!(
            problems.iter().any(|p| p.contains("mirror drift")),
            "{problems:?}"
        );
        server.shutdown();
    }

    /// A lost `UPDATE` ack: the shard process moved the object, the
    /// router did not. A read probes and binds the acknowledged (old)
    /// region: found where the router says it is, absent where only
    /// the shard process put it.
    #[test]
    fn a_lost_update_ack_reads_the_acknowledged_region() {
        let (server, proxy, mut db) = proxied_cluster();
        let coll = db.try_collection("objs").unwrap();
        let old = boxed(10.0, 10.0, 5.0, 5.0);
        let obj = db.try_insert(coll, old.clone()).unwrap();
        sever_next_ack(&proxy);
        let err = db.try_update(obj, boxed(70.0, 70.0, 5.0, 5.0)).unwrap_err();
        assert!(matches!(err, ShardError::Wire(_)), "{err}");
        assert_eq!(
            probe(&db, coll, Bbox::new([9.0, 9.0], [16.0, 16.0])),
            vec![0]
        );
        assert!(probe(&db, coll, Bbox::new([69.0, 69.0], [76.0, 76.0])).is_empty());
        assert!(db.region(obj).same_set(&old));
        let problems = db.check().expect_err("the lost ack is drift");
        assert!(
            problems.iter().any(|p| p.contains("region differs")),
            "{problems:?}"
        );
        server.shutdown();
    }

    /// A migration whose remove *and* rollback are both severed leaves
    /// an orphan: a live slot on the target shard that no global slot
    /// owns. The next read neither panics nor answers the sentinel id,
    /// the object stays where the router says it is, and `check()`
    /// names the orphan by shard and slot.
    #[test]
    fn a_migration_whose_rollback_fails_leaves_a_named_orphan_reads_skip() {
        let servers: Vec<ShardServerHandle> = (0..2).map(|_| start_server()).collect();
        let proxies: Vec<FaultProxy> = servers
            .iter()
            .map(|s| FaultProxy::start(&s.addr().to_string()).expect("bind proxy"))
            .collect();
        let addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
        let mut db = ClusterSpec::balanced(universe(), DEFAULT_ROUTER_BITS, &addrs)
            .connect(Duration::from_secs(5))
            .expect("connect");
        let coll = db.try_collection("objs").unwrap();
        let low = boxed(2.0, 2.0, 4.0, 4.0);
        let obj = db.try_insert(coll, low.clone()).unwrap();
        assert_eq!(db.shard_of(obj), 0);
        for proxy in &proxies {
            proxy.inject(FaultRule {
                direction: Direction::ClientToServer,
                matches: FrameMatch::Opcode(OP_REMOVE),
                action: FaultAction::Sever,
                remaining: 1,
                skip: 0,
            });
        }
        let err = db
            .try_update(obj, boxed(90.0, 90.0, 4.0, 4.0))
            .expect_err("the old shard's remove is severed");
        assert!(matches!(err, ShardError::Wire(_)), "{err}");

        assert_eq!(probe(&db, coll, everywhere()), vec![0]);
        assert!(probe(&db, coll, Bbox::new([89.0, 89.0], [95.0, 95.0])).is_empty());
        let sys = scq_core::parse_system("T <= W").unwrap();
        let query = scq_engine::Query::new(sys)
            .known("W", Region::from_box(universe()))
            .from_collection("T", coll);
        let solved = scq_engine::bbox_execute(&db, &query, IndexKind::RTree).unwrap();
        assert_eq!(solved.solutions.len(), 1);
        assert!(db.is_live(obj) && db.region(obj).same_set(&low));

        let problems = db.check().expect_err("the orphan is named");
        assert!(
            problems
                .iter()
                .any(|p| p.contains("orphan on shard 1 slot 0")),
            "{problems:?}"
        );
        drop(db);
        proxies.into_iter().for_each(drop);
        servers.into_iter().for_each(|s| s.shutdown());
    }

    /// Severs the `COMPACT` request to each shard of a 2- and a 3-shard
    /// cluster in turn. The shards before the victim have compacted;
    /// the router must still read every live object's own region,
    /// `check()` must stay clean (and never panic), and a retried
    /// compaction must converge.
    #[test]
    fn a_compaction_one_shard_fails_leaves_the_router_consistent() {
        for n in [2usize, 3] {
            for victim in 0..n {
                let servers: Vec<ShardServerHandle> = (0..n).map(|_| start_server()).collect();
                let proxies: Vec<FaultProxy> = servers
                    .iter()
                    .map(|s| FaultProxy::start(&s.addr().to_string()).expect("bind proxy"))
                    .collect();
                let addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
                let mut db = ClusterSpec::balanced(universe(), DEFAULT_ROUTER_BITS, &addrs)
                    .connect(Duration::from_secs(5))
                    .expect("connect");
                let coll = db.try_collection("objs").unwrap();
                // A 6 × 6 grid so every shard owns objects; every other
                // one removed so every shard has tombstones to reclaim,
                // and one object migrated across the universe.
                let mut live: Vec<(ObjectRef, Region<2>)> = Vec::new();
                for i in 0..36 {
                    let (x, y) = ((i % 6) as f64 * 16.0 + 2.0, (i / 6) as f64 * 16.0 + 2.0);
                    let r = boxed(x, y, 5.0, 5.0);
                    let obj = db.try_insert(coll, r.clone()).unwrap();
                    if i % 2 == 0 {
                        assert!(db.try_remove(obj).unwrap());
                    } else {
                        live.push((obj, r));
                    }
                }
                let moved = boxed(90.0, 90.0, 4.0, 4.0);
                assert!(db.try_update(live[0].0, moved.clone()).unwrap());
                live[0].1 = moved;
                let owners: std::collections::BTreeSet<usize> =
                    live.iter().map(|(obj, _)| db.shard_of(*obj)).collect();
                assert_eq!(owners.len(), n, "every shard owns objects");

                proxies[victim].inject(FaultRule {
                    direction: Direction::ClientToServer,
                    matches: FrameMatch::Opcode(OP_COMPACT),
                    action: FaultAction::Sever,
                    remaining: 1,
                    skip: 0,
                });
                let err = db.try_compact().expect_err("the severed shard fails");
                assert!(matches!(err, ShardError::Wire(_)), "{n}/{victim}: {err}");
                let reads_own_regions =
                    |db: &ShardedDatabase<crate::RemoteShard>, live: &[(ObjectRef, Region<2>)]| {
                        for (obj, r) in live {
                            assert!(db.is_live(*obj), "{n}/{victim}: {obj:?}");
                            assert!(db.region(*obj).same_set(r), "{n}/{victim}: {obj:?}");
                            let b = r.bbox();
                            assert!(
                                probe(db, coll, b).contains(&(obj.index as u64)),
                                "{n}/{victim}: {obj:?} not found at its own box"
                            );
                        }
                        assert_eq!(
                            probe(db, coll, everywhere()).len(),
                            live.len(),
                            "{n}/{victim}"
                        );
                    };
                reads_own_regions(&db, &live);
                db.check().unwrap_or_else(|p| panic!("{n}/{victim}: {p:?}"));

                let report = db.try_compact().expect("the retried compaction lands");
                db.check()
                    .unwrap_or_else(|p| panic!("{n}/{victim} after retry: {p:?}"));
                assert_eq!(db.collection_len(coll), live.len());
                let live: Vec<(ObjectRef, Region<2>)> = live
                    .into_iter()
                    .map(|(obj, r)| (report.fix_up(obj).expect("live objects survive"), r))
                    .collect();
                reads_own_regions(&db, &live);
                drop(db);
                proxies.into_iter().for_each(drop);
                servers.into_iter().for_each(|s| s.shutdown());
            }
        }
    }

    /// A partial compaction's tombstones survive a snapshot round trip
    /// of the manifest: the reclaimed slots load as tombstones.
    #[test]
    fn a_partial_compaction_round_trips_through_a_snapshot() {
        let servers: Vec<ShardServerHandle> = (0..2).map(|_| start_server()).collect();
        let proxies: Vec<FaultProxy> = servers
            .iter()
            .map(|s| FaultProxy::start(&s.addr().to_string()).expect("bind proxy"))
            .collect();
        let addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
        let mut db = ClusterSpec::balanced(universe(), DEFAULT_ROUTER_BITS, &addrs)
            .connect(Duration::from_secs(5))
            .expect("connect");
        let coll = db.try_collection("objs").unwrap();
        let low = db.try_insert(coll, boxed(2.0, 2.0, 4.0, 4.0)).unwrap();
        let high = db.try_insert(coll, boxed(90.0, 90.0, 4.0, 4.0)).unwrap();
        let gone = db.try_insert(coll, boxed(5.0, 5.0, 4.0, 4.0)).unwrap();
        assert_eq!(
            (db.shard_of(low), db.shard_of(high), db.shard_of(gone)),
            (0, 1, 0)
        );
        assert!(db.try_remove(gone).unwrap());
        proxies[1].inject(FaultRule {
            direction: Direction::ClientToServer,
            matches: FrameMatch::Opcode(OP_COMPACT),
            action: FaultAction::Sever,
            remaining: 1,
            skip: 0,
        });
        db.try_compact().expect_err("shard 1 fails");
        let dir = std::env::temp_dir().join(format!("scq_partial_compact_{}", std::process::id()));
        crate::save_to_dir(&db, &dir).expect("save");
        let local = crate::load_from_dir(&dir).expect("a partial compaction's manifest loads");
        std::fs::remove_dir_all(&dir).ok();
        local.check().expect("consistent");
        assert!(!local.is_live(gone) && local.is_live(low) && local.is_live(high));
        assert!(local.region(high).same_set(&boxed(90.0, 90.0, 4.0, 4.0)));
        drop(db);
        proxies.into_iter().for_each(drop);
        servers.into_iter().for_each(|s| s.shutdown());
    }
}
