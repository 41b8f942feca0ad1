//! The fault-injection proxy (`scq_testkit::fault`) driven against a
//! real shard server and a `RemoteShard`: reconnect-once on
//! idempotent reads, mutations never auto-retried, named truncation and
//! decode errors, multiplexed in-flight depth, mid-stream severs and
//! partition/heal. They live here, not in the kit, because they reach
//! the shard crate's own internals (`link_stats`, the opcodes,
//! `STREAM_CHUNK`).

mod tests {
    use std::time::Duration;

    use scq_testkit::{Direction, FaultAction, FaultGate, FaultProxy, FaultRule, FrameMatch};

    use crate::backend::{local_ref, ProbeTrace, ShardBackend, ShardError};
    use crate::remote::RemoteShard;
    use crate::server::{serve_shard, ShardServerConfig, ShardServerHandle};
    use crate::wire::{WireError, OP_INSERT, OP_QUERY};
    use scq_bbox::CornerQuery;
    use scq_engine::{CollectionId, IndexKind};
    use scq_region::{AaBox, Region};

    fn universe() -> AaBox<2> {
        AaBox::new([0.0, 0.0], [100.0, 100.0])
    }

    fn boxed(x: f64, y: f64, w: f64, h: f64) -> Region<2> {
        Region::from_box(AaBox::new([x, y], [x + w, y + h]))
    }

    /// A shard server, a proxy in front of it, and a RemoteShard that
    /// only knows the proxy's address.
    fn start() -> (ShardServerHandle, FaultProxy, RemoteShard) {
        let server = serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            universe_size: 100.0,
            ..ShardServerConfig::default()
        })
        .expect("bind shard server");
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

    #[test]
    fn severed_query_reconnects_and_retries_exactly_once() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        proxy.inject(FaultRule {
            direction: Direction::ClientToServer,
            matches: FrameMatch::Opcode(OP_QUERY),
            action: FaultAction::Sever,
            remaining: 1,
            skip: 0,
        });
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
            .expect("the retry lands on a fresh connection");
        assert_eq!(trace.retries, 1, "exactly one reconnect-and-retry");
        assert_eq!(out, vec![0], "the retried answer is correct");
        let stats = remote.link_stats();
        // The broken connection was replaced: a healthy one stands
        // ready, and nothing broken lingers.
        assert_eq!(stats.idle, 1, "{stats:?}");
        assert_eq!(proxy.severed(), 1);
        server.shutdown();
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
        // query transparently retries.
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
        let mut out = Vec::new();
        let mut trace = ProbeTrace::default();
        remote
            .try_corner_query(
                c,
                IndexKind::Scan,
                &CornerQuery::unconstrained(),
                &mut out,
                &mut trace,
            )
            .unwrap();
        assert_eq!(trace.retries, 1, "the garbled exchange is retried once");
        assert_eq!(out, vec![0]);
        server.shutdown();
    }

    /// The tentpole concurrency proof: two corner queries on ONE
    /// `RemoteShard` are in flight at the same time over ONE
    /// multiplexed connection. The first query's request frame is
    /// parked at a gate; while it is provably held, the second query
    /// runs to completion over the same socket (its frames flow past
    /// the parked one); then the gate opens and the first completes
    /// too. No sleeps, no racing clocks.
    #[test]
    fn concurrent_queries_overlap_on_one_multiplexed_connection() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        remote.insert(c, boxed(60.0, 60.0, 5.0, 5.0)).unwrap();
        let gate = FaultGate::new();
        proxy.inject(FaultRule {
            direction: Direction::ClientToServer,
            matches: FrameMatch::Opcode(OP_QUERY),
            action: FaultAction::Hold(gate.clone()),
            remaining: 1,
            skip: 0,
        });
        let remote = &remote;
        std::thread::scope(|scope| {
            let held = scope.spawn(move || {
                let mut out = Vec::new();
                remote
                    .try_corner_query(
                        c,
                        IndexKind::RTree,
                        &CornerQuery::unconstrained(),
                        &mut out,
                        &mut ProbeTrace::default(),
                    )
                    .expect("held query completes after the gate opens");
                out.sort_unstable();
                out
            });
            assert!(
                gate.wait_for_hold(Duration::from_secs(10)),
                "the first query must reach the gate"
            );
            // First query provably in flight. A second on the SAME
            // RemoteShard completes over the same socket — impossible
            // on a serialized request/response protocol.
            let mut out = Vec::new();
            remote
                .try_corner_query(
                    c,
                    IndexKind::RTree,
                    &CornerQuery::unconstrained(),
                    &mut out,
                    &mut ProbeTrace::default(),
                )
                .expect("the overlapping query completes while the first is held");
            out.sort_unstable();
            assert_eq!(out, vec![0, 1]);
            assert!(
                gate.holding() > 0,
                "the first query is still parked at the gate"
            );
            gate.open();
            assert_eq!(held.join().expect("no panic"), vec![0, 1]);
        });
        let stats = remote.link_stats();
        assert!(
            stats.peak_in_flight >= 2,
            "both queries must have been in flight at once: {stats:?}"
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
            matches: FrameMatch::Opcode(OP_QUERY),
            action: FaultAction::Hold(gate.clone()),
            remaining: 8,
            skip: 0,
        });
        let remote = &remote;
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        remote
                            .try_corner_query(
                                c,
                                IndexKind::RTree,
                                &CornerQuery::unconstrained(),
                                &mut out,
                                &mut ProbeTrace::default(),
                            )
                            .expect("held query completes after the gate opens");
                        out
                    })
                })
                .collect();
            assert!(
                gate.wait_for_holding(8, Duration::from_secs(10)),
                "all 8 queries must be parked at the gate simultaneously \
                 (holding = {})",
                gate.holding()
            );
            let stats = remote.link_stats();
            assert_eq!(stats.created, 1, "one connection carries all 8: {stats:?}");
            assert!(stats.peak_in_flight >= 8, "{stats:?}");
            gate.open();
            for waiter in waiters {
                assert_eq!(waiter.join().expect("no panic"), vec![0]);
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

    #[test]
    fn partition_and_heal_round_trips_without_a_new_client() {
        let (server, proxy, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        proxy.partition();
        let mut out = Vec::new();
        let mut trace = ProbeTrace::default();
        assert!(
            remote
                .try_corner_query(
                    c,
                    IndexKind::RTree,
                    &CornerQuery::unconstrained(),
                    &mut out,
                    &mut trace,
                )
                .is_err(),
            "a partitioned shard cannot answer"
        );
        assert!(out.is_empty());
        assert_eq!(
            trace.retries, 1,
            "the failed probe still accounts for its retry attempt"
        );
        proxy.heal();
        let mut out = Vec::new();
        remote
            .try_corner_query(
                c,
                IndexKind::RTree,
                &CornerQuery::unconstrained(),
                &mut out,
                &mut ProbeTrace::default(),
            )
            .expect("the healed shard answers the same client");
        assert_eq!(out, vec![0]);
        // The mirror and shard still agree after the outage.
        assert!(remote.check().is_empty(), "{:?}", remote.check());
        server.shutdown();
    }
}
