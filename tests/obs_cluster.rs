//! End-to-end observability acceptance: a router tier fronting two
//! shard server processes answers `METRICS` with Prometheus-style
//! exposition carrying per-command latency histograms from **both**
//! tiers, and `TRACE <id>` for a cross-shard query replays a span tree
//! naming each probed shard with per-span durations. A [`FaultProxy`]
//! partition in front of shard 0's primary takes nothing away from a
//! read — reads answer from the router's mirror — and shows instead as
//! an `ERR` on a write routed to the partitioned primary. The same
//! harness partitions a shard with no replica under a `SOLVE`, which
//! still answers in full.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use scq_region::AaBox;
use scq_serve::{body_lines, serve_db, ServerConfig};
use scq_shard::{BreakerConfig, ClusterSpec, ShardServerConfig, ShardServerHandle};
use scq_testkit::FaultProxy;

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
    // 0's primary, so a partition cuts it off deterministically.
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
    // One partition must mean one failed write, never a tripped
    // breaker.
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
    // The happy path must scrape clean: no slow queries yet.
    let slow = samples
        .iter()
        .find(|s| s.name == "serve_slow_queries" && s.labels.contains("tier=\"serve\""))
        .expect("serve_slow_queries in the scrape")
        .value;
    assert_eq!(slow, 0.0, "no slow query before the partition");

    // ── partition the primary: reads answer, the write says where ──
    // The write first: it bumps the collection's mutation epoch, so
    // the repeated query below misses the serve tier's candidate
    // cache and really probes the shards (a verbatim repeat at the
    // same epoch would be answered from cache).
    run("INSERT objs 20 20 25 25");
    proxy.partition();
    let (q, _) = run("QUERY objs rtree overlaps 0 0 100 100");
    assert!(
        q.starts_with("OK n=4"),
        "the mirror keeps the answer complete: {q:?}"
    );
    let (_, spans) = run(&format!("TRACE {}", trace_id_of(&q)));
    assert!(
        !spans.iter().any(|l| l.trim_start().starts_with("failover")),
        "no read fails over: {spans:?}"
    );
    let (write, _) = run("INSERT objs 5 5 8 8");
    assert!(
        write.starts_with("ERR ") && write.contains(&proxy.addr().to_string()),
        "a write routed to the partitioned primary names it: {write:?}"
    );

    // The outage shows on METRICS: the partitioned primary's process
    // tier drops out of the scrape, the healthy shard's stays.
    let (_, body) = run("METRICS");
    let samples = scq_obs::parse_exposition(&body.join("\n")).expect("scrape parses");
    let shard_tier = |shard: &str| {
        samples
            .iter()
            .any(|s| s.labels.contains("tier=\"shard\"") && s.labels.contains(shard))
    };
    assert!(
        !shard_tier("shard=\"0\""),
        "the partitioned shard answers nothing"
    );
    assert!(shard_tier("shard=\"1\""), "the healthy shard still reports");

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

/// Every `SOLVE` asks the planner for its order first, and both the
/// planner's estimate probes and execution answer from the router's
/// mirror. With shard 0 partitioned (no replica), a two-unknown `SOLVE`
/// answers `OK` with all four tuples — the healthy answer — and is
/// planned once (a plan-cache miss). After the partition heals, the
/// verbatim `SOLVE` reuses that plan (a plan-cache hit: the epochs did
/// not move) and answers the same.
#[test]
fn a_partitioned_solve_answers_in_full_and_its_cached_plan_answers_after_heal() {
    let shard0 = boot_server();
    let shard1 = boot_server();
    let proxy = FaultProxy::start(&shard0.addr().to_string()).expect("bind proxy");
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIZE, UNIVERSE_SIZE]);
    let spec = ClusterSpec::balanced(
        universe,
        scq_shard::DEFAULT_ROUTER_BITS,
        &[proxy.addr().to_string(), shard1.addr().to_string()],
    );
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
    // The answer without the per-command trace id.
    let answer = |line: &str| line.split(" trace=").next().unwrap_or(line).to_string();

    proxy.partition();
    let misses = stat_field(&run("STAT"), "plan_cache_misses=");
    let partitioned = run(solve);
    assert!(
        partitioned.starts_with("OK n=4 "),
        "every tuple, shard 0's included: {partitioned}"
    );
    let stat = run("STAT");
    assert_eq!(
        stat_field(&stat, "plan_cache_misses="),
        misses + 1,
        "planned under the partition: {stat}"
    );
    let hits = stat_field(&stat, "plan_cache_hits=");

    proxy.heal();
    let healed = run(solve);
    assert_eq!(
        answer(&healed),
        answer(&partitioned),
        "same answer after heal"
    );
    let stat = run("STAT");
    assert_eq!(
        stat_field(&stat, "plan_cache_hits="),
        hits + 1,
        "the verbatim SOLVE reuses the plan: {stat}"
    );
    assert_eq!(stat_field(&stat, "plan_cache_misses="), misses + 1);

    run("QUIT");
    router.shutdown();
    shard0.shutdown();
    shard1.shutdown();
}
