//! The soak: 90 seconds of 64 concurrent clients against a 2-shard
//! WAL-backed cluster behind fault-injecting proxies. Each client reads
//! (answered by the router's mirror, so it must never degrade) and asks
//! a shard process for its `METRICS` (an idempotent request over the
//! multiplexed wire, the part the faults hit). A last phase has the 64
//! clients write concurrently, each on its own connection to a shard
//! process, so group commit has writers to batch.
//!
//! Ignored by default (it runs for a fixed 90 s budget); CI runs it on
//! its own:
//!
//! ```sh
//! cargo test --release -q --test soak -- --ignored --nocapture
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use scq_engine::{bbox_execute, IndexKind};
use scq_region::{AaBox, Region};
use scq_shard::wire::{
    decode_mux, decode_response, encode_mux, encode_request, frame, Request, Response, MUX_REQ,
    MUX_RESP, WIRE_VERSION,
};
use scq_shard::{serve_shard, ClusterSpec, ShardBackend, ShardServerConfig, Wal, WalConfig};
use scq_testkit::{Direction, FaultAction, FaultProxy, FaultRule, FrameMatch};

/// How long the fault rounds run.
const BUDGET: Duration = Duration::from_secs(90);

/// Durable inserts each client makes in the concurrent write phase.
const WRITES_PER_CLIENT: u64 = 50;

/// One raw wire connection to a shard process: the handshake, then one
/// multiplexed request at a time. The concurrent write phase talks to
/// the shards this way because the router serialises its writes.
struct WireClient {
    stream: TcpStream,
    next_id: u64,
}

impl WireClient {
    fn connect(addr: SocketAddr) -> WireClient {
        let mut stream = TcpStream::connect(addr).expect("connect to a shard");
        let hello = encode_request(&Request::Hello {
            version: WIRE_VERSION,
        });
        stream.write_all(&frame(&hello).unwrap()).unwrap();
        let answer = decode_response(&read_payload(&mut stream)).unwrap();
        assert!(matches!(answer, Response::Hello { .. }), "{answer:?}");
        WireClient { stream, next_id: 0 }
    }

    fn call(&mut self, req: &Request) -> Response {
        self.next_id += 1;
        let payload = encode_mux(MUX_REQ, self.next_id, &encode_request(req));
        self.stream.write_all(&frame(&payload).unwrap()).unwrap();
        let answer = decode_mux(&read_payload(&mut self.stream)).unwrap();
        assert_eq!((answer.kind, answer.id), (MUX_RESP, self.next_id));
        decode_response(&answer.body).unwrap()
    }
}

/// One length-prefixed frame's payload.
fn read_payload(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("frame payload");
    payload
}

/// Records and fsyncs summed over every shard's WAL.
fn wal_totals(servers: &[scq_shard::ShardServerHandle]) -> (u64, u64) {
    servers
        .iter()
        .map(|s| s.wal_stats().expect("soak shards keep a wal"))
        .fold((0, 0), |(appended, fsyncs), w| {
            (appended + w.appended, fsyncs + w.fsync_batches)
        })
}

/// Open file descriptors of this process, via `/proc` (Linux-only, the
/// only platform CI runs on). 0 when `/proc` is unavailable, which
/// disables the leak assertion rather than failing it spuriously.
fn count_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Live threads of this process, from `/proc/self/status`.
fn count_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Boots a 2-shard WAL-backed cluster behind FaultProxies, runs 64
/// concurrent clients while the proxies truncate and sever streamed
/// response frames, and then proves the damage stayed contained: every
/// read, mid-fault included, equals the pre-fault oracle, every shard's
/// integrity check is clean, at least one multiplexed connection
/// carried ≥8 requests in flight, no file descriptors or threads
/// leaked, 64 concurrent writers leave the whole run under one fsync
/// per write, and both WALs reopen with zero torn tails.
#[test]
#[ignore = "runs for 90 s; CI runs it in its own job"]
fn soak() {
    let t_start = Instant::now();
    let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);
    let base = std::env::temp_dir().join(format!("scq_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut servers = Vec::new();
    let mut proxies = Vec::new();
    for i in 0..2 {
        let server = serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            universe_size: 1000.0,
            wal: Some(WalConfig::new(base.join(format!("wal{i}")))),
            ..ShardServerConfig::default()
        })
        .expect("bind soak shard");
        proxies.push(FaultProxy::start(&server.addr().to_string()).expect("bind soak proxy"));
        servers.push(server);
    }
    let addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
    let spec = ClusterSpec::balanced(universe, 6, &addrs);
    let mut db = spec
        .connect(Duration::from_secs(15))
        .expect("connect soak cluster");

    // Clean mutation phase: a deterministic fixture, no faults. The
    // fault phase below sends only idempotent requests over the wire —
    // they retry transparently, mutations never do, so corrupting a
    // mutation's reply would turn a transport fault into a (correct but
    // noisy) client error.
    let towns = db.collection("towns");
    let roads = db.collection("roads");
    for i in 0..400u64 {
        let x = (i % 20) as f64 * 48.0 + 4.0;
        let y = (i / 20) as f64 * 48.0 + 4.0;
        db.insert(
            towns,
            Region::from_box(AaBox::new([x, y], [x + 6.0, y + 6.0])),
        );
        db.insert(
            roads,
            Region::from_box(AaBox::new([x - 2.0, y + 1.0], [x + 10.0, y + 2.5])),
        );
    }
    let sys = scq_core::parse_system("T <= W; R & T != 0").expect("parses");
    let dq = scq_engine::Query::new(sys)
        .known(
            "W",
            Region::from_box(AaBox::new([100.0, 100.0], [360.0, 360.0])),
        )
        .from_collection("T", towns)
        .from_collection("R", roads);
    let run = |db: &scq_shard::ShardedDatabase<scq_shard::RemoteShard>| {
        bbox_execute(db, &dq, IndexKind::RTree)
    };
    let oracle = run(&db).expect("clean oracle query").solutions;
    // A scan enumerates every live object, so its answer is complete
    // by construction: the indexed oracle must equal it.
    let mut scanned = bbox_execute(&db, &dq, IndexKind::Scan)
        .expect("clean scan query")
        .solutions;
    let mut sorted = oracle.clone();
    scanned.sort();
    sorted.sort();
    assert_eq!(sorted, scanned, "the oracle must be complete");
    assert!(!oracle.is_empty(), "the soak query must select something");
    for s in 0..db.n_shards() {
        for h in ShardBackend::health(db.backend(s)) {
            assert_eq!(
                h.stats.created, 1,
                "the clean phase must multiplex on one connection per shard: {h:?}"
            );
            assert_eq!(
                h.stats.wire_version,
                scq_shard::wire::WIRE_VERSION,
                "soak speaks the one wire version: {h:?}"
            );
        }
    }

    // Leak baseline: everything long-lived (servers, proxies, one mux
    // connection per shard with its reader thread) already exists.
    let fd_baseline = count_fds();
    let thread_baseline = count_threads();

    let queries_done = AtomicUsize::new(0);
    let mut rounds = 0u64;
    while rounds == 0 || t_start.elapsed() < BUDGET {
        rounds += 1;
        for p in &proxies {
            // Transport faults only: a mid-frame close (Truncate) and
            // outright severs. Both surface as transport errors, which
            // an idempotent request retries once or reports.
            // Garble is deliberately absent here — a corrupted-but-
            // complete frame is a *protocol* error, which the router
            // treats as a bug (panic), not as weather; it has its own
            // scoped unit tests.
            p.inject(FaultRule {
                direction: Direction::ServerToClient,
                matches: FrameMatch::Any,
                action: FaultAction::Truncate { keep: 100 },
                remaining: 2,
                skip: 3,
            });
            p.inject(FaultRule {
                direction: Direction::ServerToClient,
                matches: FrameMatch::Any,
                action: FaultAction::Sever,
                remaining: 2,
                skip: 40,
            });
        }
        std::thread::scope(|scope| {
            for _ in 0..64 {
                let db = &db;
                let queries_done = &queries_done;
                let run = &run;
                let oracle = &oracle;
                scope.spawn(move || {
                    for i in 0..4 {
                        // Reads answer from the mirror: the faults
                        // never reach them.
                        let r = run(db).expect("a mid-fault read");
                        assert_eq!(r.solutions, *oracle, "a read changed mid-fault");
                        // A failed METRICS is expected mid-fault; what
                        // matters is the post-heal checks below.
                        let _ = db.backend(i % db.n_shards()).metrics();
                        queries_done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for p in &proxies {
            p.clear_rules();
            p.heal();
        }
        let verdict = run(&db).expect("query after faults heal");
        assert_eq!(
            verdict.solutions, oracle,
            "faults must never change answers (round {rounds})"
        );
    }

    // Zero desyncs: every shard's integrity check stays clean.
    for s in 0..db.n_shards() {
        let complaints = db.backend(s).check();
        assert!(complaints.is_empty(), "shard {s} integrity: {complaints:?}");
    }
    let peak = (0..db.n_shards())
        .flat_map(|s| ShardBackend::health(db.backend(s)))
        .map(|h| h.stats.peak_in_flight)
        .max()
        .unwrap_or(0);
    assert!(
        peak >= 8,
        "64 clients over 2 shards must drive ≥8 concurrent in-flight requests (peak {peak})"
    );

    // Leak check: severed connections' reader and proxy pump threads
    // must exit and their sockets close. Poll briefly — thread exit is
    // asynchronous — then fail hard.
    let mut settled = false;
    for _ in 0..100 {
        if count_fds() <= fd_baseline && count_threads() <= thread_baseline {
            settled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        settled,
        "leaked fds or threads: fds {} (baseline {fd_baseline}), threads {} (baseline {thread_baseline})",
        count_fds(),
        count_threads()
    );

    drop(db);
    drop(proxies);

    // Concurrent durable writes: every client inserts on its own
    // connection to one shard process (the router's mirror is gone, so
    // nothing has to stay in lockstep with these). Writers that arrive
    // during one fsync share the next, so the soak as a whole must
    // average under one fsync per write.
    let (appended_before, fsyncs_before) = wal_totals(&servers);
    std::thread::scope(|scope| {
        for c in 0..64u64 {
            let addr = servers[c as usize % servers.len()].addr();
            scope.spawn(move || {
                let mut client = WireClient::connect(addr);
                for i in 0..WRITES_PER_CLIENT {
                    let (x, y) = ((c * 15) as f64, (i * 19) as f64);
                    let insert = Request::Insert {
                        coll: towns,
                        region: Region::from_box(AaBox::new([x, y], [x + 5.0, y + 5.0])),
                    };
                    match client.call(&insert) {
                        Response::Slot(_) => {}
                        other => panic!("client {c} insert {i}: {other:?}"),
                    }
                }
            });
        }
    });
    let (appended, fsyncs) = wal_totals(&servers);
    assert_eq!(appended - appended_before, 64 * WRITES_PER_CLIENT);
    let concurrent_ratio = (fsyncs - fsyncs_before) as f64 / (64 * WRITES_PER_CLIENT) as f64;
    assert!(
        fsyncs < appended,
        "group commit must batch concurrent writers: {fsyncs} fsyncs for {appended} writes \
         ({concurrent_ratio:.2} per write in the concurrent phase)"
    );
    for s in servers {
        s.shutdown();
    }
    // Durability: both WALs reopen with zero torn tails after the
    // whole fault schedule.
    for i in 0..2 {
        let cfg = WalConfig::new(base.join(format!("wal{i}")));
        let (wal, _db) = Wal::open(&cfg, universe).expect("reopen soak wal");
        let stats = wal.stats();
        assert_eq!(
            stats.torn_tails, 0,
            "soak wal {i} must reopen with zero torn tails: {stats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
    println!(
        "soak passed: {rounds} fault rounds, {} queries, peak in-flight {peak}, \
         fds/threads back to baseline ({fd_baseline}/{thread_baseline}), zero torn tails, \
         {:.2} fsyncs per write ({concurrent_ratio:.2} with 64 concurrent writers)",
        queries_done.load(Ordering::Relaxed),
        fsyncs as f64 / appended as f64
    );
}
