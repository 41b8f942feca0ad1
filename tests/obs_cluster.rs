//! End-to-end observability acceptance: a router tier fronting two
//! shard server processes answers `METRICS` with Prometheus-style
//! exposition carrying per-command latency histograms from **both**
//! tiers, and `TRACE <id>` for a cross-shard query replays a span tree
//! naming each probed shard with per-span durations. A [`FaultProxy`]
//! partition in front of shard 0's primary forces one deterministic
//! replica failover, which must surface as an event in the query's
//! trace. The same harness partitions a shard with no replica under a
//! `SOLVE`, whose planner probes the dead shard before execution does.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scq_region::AaBox;
use scq_serve::{body_lines, serve_db, ServerConfig};
use scq_shard::{BreakerConfig, ClusterSpec, FaultProxy, ShardServerConfig, ShardServerHandle};

const UNIVERSE_SIZE: f64 = 100.0;

fn boot_server() -> ShardServerHandle {
    scq_shard::serve_shard(&ShardServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        universe_size: UNIVERSE_SIZE,
        ..ShardServerConfig::default()
    })
    .expect("bind shard server")
}

/// One line-protocol exchange; multi-line responses (`lines=` in the
/// header) are consumed whole.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    cmd: &str,
) -> (String, Vec<String>) {
    writer
        .write_all(format!("{cmd}\n").as_bytes())
        .expect("send");
    writer.flush().expect("flush");
    let mut head = String::new();
    reader.read_line(&mut head).expect("read header");
    let head = head.trim_end().to_string();
    let body = (0..body_lines(&head).unwrap_or(0))
        .map(|_| {
            let mut l = String::new();
            reader.read_line(&mut l).expect("read body line");
            l.trim_end().to_string()
        })
        .collect();
    (head, body)
}

fn trace_id_of(response: &str) -> u64 {
    response
        .split_whitespace()
        .find_map(|f| f.strip_prefix("trace="))
        .unwrap_or_else(|| panic!("no trace id in {response:?}"))
        .parse()
        .expect("numeric trace id")
}

#[test]
fn cluster_metrics_and_traces_cover_both_tiers_and_record_a_forced_failover() {
    // Topology: shard 0 = [fault proxy → primary, plain secondary],
    // shard 1 = single replica. The proxy is the only reach to shard
    // 0's primary, so a partition forces the failover deterministically.
    let primary0 = boot_server();
    let secondary0 = boot_server();
    let shard1 = boot_server();
    let proxy = FaultProxy::start(&primary0.addr().to_string()).expect("bind proxy");
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
    let mut spec = ClusterSpec::balanced_replicated(
        universe,
        scq_shard::DEFAULT_ROUTER_BITS,
        &[
            vec![proxy.addr().to_string(), secondary0.addr().to_string()],
            vec![shard1.addr().to_string()],
        ],
    );
    // One partition must mean one failover, never a tripped breaker.
    spec.breaker = BreakerConfig {
        threshold: 100,
        cooldown: Duration::from_secs(3600),
    };
    let db = spec.connect(Duration::from_secs(10)).expect("connect");
    let router = serve_db(
        &ServerConfig {
            threads: 2,
            universe_size: UNIVERSE_SIZE,
            ..ServerConfig::default()
        },
        db,
    )
    .expect("bind router");

    let stream = TcpStream::connect(router.addr()).expect("connect router");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut run = |cmd: &str| exchange(&mut reader, &mut writer, cmd);

    run("CREATE objs");
    // Low corner → shard 0, high corner → shard 1: a broad query must
    // probe both processes.
    run("INSERT objs 5 5 10 10");
    run("INSERT objs 90 90 95 95");
    run("INSERT objs 8 80 12 85");

    // ── healthy cross-shard query: span tree names every shard ──────
    let (q, _) = run("QUERY objs rtree overlaps 0 0 100 100");
    assert!(q.starts_with("OK n=3"), "healthy query: {q:?}");
    let (head, spans) = run(&format!("TRACE {}", trace_id_of(&q)));
    assert!(head.starts_with("OK trace="), "trace header: {head:?}");
    for shard in ["shard=0", "shard=1"] {
        assert!(
            spans
                .iter()
                .any(|l| l.trim_start().starts_with("probe ") && l.contains(shard)),
            "span tree must name {shard}: {spans:?}"
        );
    }
    assert!(
        spans.iter().all(|l| l.contains("dur=")),
        "every span carries its duration: {spans:?}"
    );

    // ── METRICS: per-command latency histograms from both tiers ─────
    let (head, body) = run("METRICS");
    assert!(head.starts_with("OK lines="), "metrics header: {head:?}");
    let samples = scq_obs::parse_exposition(&body.join("\n")).expect("scrape parses");
    let latency_count = |pred: &dyn Fn(&scq_obs::Sample) -> bool| -> f64 {
        samples
            .iter()
            .filter(|s| s.name.ends_with("_latency_us_count") && pred(s))
            .map(|s| s.value)
            .sum()
    };
    assert!(
        latency_count(
            &|s| s.name == "serve_query_latency_us_count" && s.labels.contains("tier=\"serve\"")
        ) >= 1.0,
        "serve tier must expose the QUERY latency histogram"
    );
    for shard in ["shard=\"0\"", "shard=\"1\""] {
        assert!(
            latency_count(&|s| s.labels.contains("tier=\"shard\"") && s.labels.contains(shard))
                >= 1.0,
            "shard tier ({shard}) must expose per-op latency histograms"
        );
    }
    // The happy path must scrape clean: no failovers, no retries, no
    // slow queries yet.
    for counter in ["serve_failovers", "serve_retries", "serve_slow_queries"] {
        let v = samples
            .iter()
            .find(|s| s.name == counter && s.labels.contains("tier=\"serve\""))
            .unwrap_or_else(|| panic!("{counter} missing from the scrape"))
            .value;
        assert_eq!(v, 0.0, "{counter} must be 0 before the partition");
    }

    // ── partition the primary: the failover lands in the trace ──────
    // The write first: it bumps the collection's mutation epoch, so
    // the repeated query below misses the serve tier's candidate
    // cache and really probes the shards (a verbatim repeat at the
    // same epoch would be answered from cache — no probe, no
    // failover to observe).
    run("INSERT objs 20 20 25 25");
    proxy.partition();
    let (q, _) = run("QUERY objs rtree overlaps 0 0 100 100");
    assert!(
        q.starts_with("OK n=4"),
        "the secondary keeps the answer complete: {q:?}"
    );
    let (_, spans) = run(&format!("TRACE {}", trace_id_of(&q)));
    let failover = spans
        .iter()
        .find(|l| l.trim_start().starts_with("failover"))
        .unwrap_or_else(|| panic!("no failover event in {spans:?}"));
    assert!(
        failover.contains(&proxy.addr().to_string()),
        "the failover event names the dead primary: {failover:?}"
    );

    let (_, body) = run("METRICS");
    let samples = scq_obs::parse_exposition(&body.join("\n")).expect("scrape parses");
    let failovers = samples
        .iter()
        .find(|s| s.name == "serve_failovers")
        .expect("failover counter")
        .value;
    assert!(failovers >= 1.0, "the forced failover must be counted");

    run("QUIT");
    router.shutdown();
    primary0.shutdown();
    secondary0.shutdown();
    shard1.shutdown();
}

/// The `u64` value of `name` (e.g. `plan_cache_hits=`) in a `STAT` line.
fn stat_field(stat: &str, name: &str) -> u64 {
    stat.split_whitespace()
        .find_map(|f| f.strip_prefix(name))
        .unwrap_or_else(|| panic!("no {name} in {stat:?}"))
        .parse()
        .expect("numeric counter")
}

/// Every `SOLVE` asks the planner for its order first, so a degraded
/// `SOLVE` meets the dead shard twice: in the planner's estimate probes
/// and in execution. With shard 0 partitioned (no replica, breaker held
/// open), a two-unknown `SOLVE` answers `PARTIAL missing=0` with the
/// surviving shard's tuples — never `ERR`, never a hang. After the
/// partition heals, the verbatim `SOLVE` reuses the plan made from the
/// degraded estimates (a plan-cache hit: the epochs did not move) and
/// answers `OK` with every tuple, because order is answer-invariant.
#[test]
fn a_degraded_solve_answers_partial_and_its_cached_plan_answers_in_full_after_heal() {
    let shard0 = boot_server();
    let shard1 = boot_server();
    let proxy = FaultProxy::start(&shard0.addr().to_string()).expect("bind proxy");
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
    let mut spec = ClusterSpec::balanced(
        universe,
        scq_shard::DEFAULT_ROUTER_BITS,
        &[proxy.addr().to_string(), shard1.addr().to_string()],
    );
    // The first failed probe trips shard 0's breaker, and the injected
    // clock holds it open until the test advances it: every later probe
    // of the dead shard fails fast instead of dialing.
    spec.breaker = BreakerConfig {
        threshold: 1,
        cooldown: Duration::from_secs(3600),
    };
    let mut db = spec.connect(Duration::from_secs(10)).expect("connect");
    let now = Arc::new(Mutex::new(Instant::now()));
    for s in 0..2 {
        let tick = now.clone();
        db.backend_mut(s)
            .set_clock(Arc::new(move || *tick.lock().unwrap()));
    }
    let router = serve_db(
        &ServerConfig {
            threads: 2,
            universe_size: UNIVERSE_SIZE,
            ..ServerConfig::default()
        },
        db,
    )
    .expect("bind router");

    let stream = TcpStream::connect(router.addr()).expect("connect router");
    // A hung command fails the test instead of wedging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut run = |cmd: &str| exchange(&mut reader, &mut writer, cmd).0;

    run("CREATE towns");
    run("CREATE roads");
    // Two towns and a road crossing both on each shard: low corner →
    // shard 0, high corner → shard 1. Four (town, road) tuples in all.
    for cmd in [
        "INSERT towns 5 5 10 10",
        "INSERT towns 20 20 25 25",
        "INSERT roads 4 4 30 30",
        "INSERT towns 70 70 75 75",
        "INSERT towns 90 90 95 95",
        "INSERT roads 68 68 96 96",
    ] {
        assert!(run(cmd).starts_with("OK ref="), "{cmd}");
    }
    assert!(run("SHARDS").starts_with("OK n=2 live=3,3"));
    let solve = "SOLVE rtree all T=coll:towns,R=coll:roads,C=box:0:0:100:100 T <= C; R & T != 0";
    // The same system spelt differently has a plan-cache entry of its
    // own: the healthy answer, without planning the SOLVE under test.
    let healthy =
        run("SOLVE rtree all T=coll:towns,R=coll:roads,C=box:0:0:100:100 R & T != 0; T <= C");
    assert!(healthy.starts_with("OK n=4 "), "{healthy}");

    proxy.partition();
    let misses = stat_field(&run("STAT"), "plan_cache_misses=");
    let degraded = run(solve);
    assert!(
        degraded.starts_with("PARTIAL missing=0 n=2 "),
        "shard 1's two tuples, shard 0 named missing: {degraded}"
    );
    let stat = run("STAT");
    assert_eq!(
        stat_field(&stat, "plan_cache_misses="),
        misses + 1,
        "planned from the degraded estimates: {stat}"
    );
    let hits = stat_field(&stat, "plan_cache_hits=");

    // Heal, then wait out the cooldown: the next probe is the
    // half-open re-admit.
    proxy.heal();
    *now.lock().unwrap() += Duration::from_secs(3601);
    let healed = run(solve);
    assert!(
        healed.starts_with("OK n=4 "),
        "full answer after heal: {healed}"
    );
    let stat = run("STAT");
    assert_eq!(
        stat_field(&stat, "plan_cache_hits="),
        hits + 1,
        "the verbatim SOLVE reuses the degraded plan: {stat}"
    );
    assert_eq!(stat_field(&stat, "plan_cache_misses="), misses + 1);

    run("QUIT");
    router.shutdown();
    shard0.shutdown();
    shard1.shutdown();
}
