//! The four workloads: what each sends, to which processes, and the
//! closed-loop measurement over two client connections.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::client::{Conn, Reply};
use crate::gen::{
    district_pool, range_pool, smuggler_pool, Map, RangeOp, Rng, SolveOp, WriteOp, Writer, Zipf,
    DISTRICT_POOL, RANGE_POOL, WEST_QUERY_POOL, WRITER_LIVE,
};
use crate::oracle::{Expect, Oracle};
use crate::procs::{work_dir, Servers, Topology};
use crate::stats::{highest_supported_percentile, lower_quartile, median, summarize, Summary};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    JoinLocal,
    DistrictCluster,
    RangeLocal,
    RwCluster,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::JoinLocal,
        Workload::DistrictCluster,
        Workload::RangeLocal,
        Workload::RwCluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinLocal => "join_local",
            Workload::DistrictCluster => "district_cluster",
            Workload::RangeLocal => "range_local",
            Workload::RwCluster => "rw_cluster",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn topology(self) -> Topology {
        match self {
            Workload::JoinLocal | Workload::RangeLocal => Topology::Local,
            Workload::DistrictCluster | Workload::RwCluster => Topology::Cluster,
        }
    }
}

/// Caches fill and lazy set-up finishes here, unmeasured. On
/// `rw_cluster` the reader runs alone, which is the base of
/// `serve.reader_slowdown`.
pub const WARM_UP: Duration = Duration::from_secs(2);

/// Read-only workloads spend this share of `--seconds` on the read
/// window and the rest on the write tail (the writer alone, on the
/// same topology), so every workload reports every end-to-end metric.
/// `rw_cluster` runs both streams concurrently for all of `--seconds`.
const READ_SHARE: f64 = 0.8;

/// Set-up is repeated and the lower quartile of its times reported (the
/// window's estimator, for the window's reason), so a slow spell does
/// not move `setup_s`: at least `SETUP_MIN_REPEATS` times (unless that
/// alone overruns `SETUP_BUDGET`), and — where set-up is quick, on the
/// local topology — on until `SETUP_SOFT_BUDGET` is spent.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 41;
const SETUP_SOFT_BUDGET: Duration = Duration::from_secs(3);
const SETUP_BUDGET: Duration = Duration::from_secs(24);

/// What a pooled read asks, in the form the traced pass takes apart.
pub enum ReadKind {
    Solve(SolveOp),
    Range(RangeOp),
}

/// A pooled read with its precomputed oracle answer.
pub struct ReadOp {
    pub kind: ReadKind,
    pub line: String,
    pub expect: Expect,
}

/// A named number with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything generated from the seed for one workload.
pub struct Inputs {
    pub map: Map,
    /// What set-up sends: the map, then the writer's first roads (so
    /// its live count is steady from the first measured write), each
    /// with the answer it must get.
    pub load: Vec<(String, Expect)>,
    /// The oracle and the writer as they stand after `load`.
    pub oracle: Oracle,
    pub writer: Writer,
    /// The read pool, answers computed on the loaded state.
    pub reads: Vec<ReadOp>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let map = Map::generate(seed);
        let mut oracle = Oracle::new(&map);
        let mut load: Vec<(String, Expect)> = map
            .load_lines()
            .into_iter()
            .map(|line| {
                let want = if line.starts_with("CREATE") {
                    "OK coll="
                } else {
                    "OK ref="
                };
                (line, Expect::Prefix(want))
            })
            .collect();
        let mut writer = Writer::new(seed);
        for _ in 0..WRITER_LIVE {
            let op = writer.next_op();
            let expect = oracle.apply(&op);
            if let (WriteOp::Insert(rect), Expect::Slot(slot)) = (op, &expect) {
                writer.inserted(*slot, rect);
            }
            load.push((op.line(), expect));
        }
        let solve = |ops: Vec<SolveOp>| -> Vec<ReadOp> {
            ops.into_iter()
                .map(|op| ReadOp {
                    line: op.line(),
                    expect: oracle.expect_solve(&op),
                    kind: ReadKind::Solve(op),
                })
                .collect()
        };
        let range = |n: usize, x_max: f64| -> Vec<ReadOp> {
            range_pool(seed, n, x_max)
                .into_iter()
                .map(|op| ReadOp {
                    line: op.line(),
                    expect: oracle.expect_range(&op),
                    kind: ReadKind::Range(op),
                })
                .collect()
        };
        let reads = match workload {
            Workload::JoinLocal => solve(smuggler_pool(&map, seed)),
            Workload::DistrictCluster => solve(district_pool(seed)),
            Workload::RangeLocal => range(RANGE_POOL, 900.0),
            Workload::RwCluster => {
                // District windows first, then west-half query boxes:
                // nothing the writer touches (x >= 700) can reach them.
                let mut pool = solve(district_pool(seed));
                pool.extend(range(WEST_QUERY_POOL, 500.0));
                pool
            }
        };
        Inputs {
            map,
            load,
            oracle,
            writer,
            reads,
        }
    }
}

/// The order in which one connection walks the read pool.
pub struct ReadOrder {
    workload: Workload,
    step: usize,
    zipf: Option<Zipf>,
    rng: Rng,
}

impl ReadOrder {
    /// `reader` numbers the read connections from 0; each starts at its
    /// own place so two connections do not request the same key in step.
    pub fn new(workload: Workload, seed: u64, reader: usize, pool: usize) -> ReadOrder {
        ReadOrder {
            workload,
            step: reader * pool / 2,
            zipf: (workload == Workload::RangeLocal).then(|| Zipf::new(pool)),
            rng: Rng::new(seed ^ (0x7265_6164 + reader as u64)),
        }
    }

    pub fn next_index(&mut self) -> usize {
        let i = self.step;
        self.step += 1;
        match self.workload {
            Workload::JoinLocal => i % crate::gen::SMUGGLER_POOL,
            Workload::DistrictCluster => i % DISTRICT_POOL,
            Workload::RangeLocal => self
                .zipf
                .as_ref()
                .expect("set in new")
                .sample(&mut self.rng),
            Workload::RwCluster => {
                if i.is_multiple_of(2) {
                    (i / 2) % DISTRICT_POOL
                } else {
                    DISTRICT_POOL + (i / 2) % WEST_QUERY_POOL
                }
            }
        }
    }
}

/// Operation accounting: every checked exchange is attempted; `ERR`,
/// `PARTIAL`, an answer the oracle disagrees with and a timeout all
/// fail. The first few offenders are kept for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, line: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(format!("{line} -> {why}"));
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.first_failures {
            if self.first_failures.len() < 5 {
                self.first_failures.push(f);
            }
        }
    }
}

/// What the connections of one phase recorded: for each completed
/// operation, when it completed (seconds into the phase) and how long
/// it took (µs).
pub struct Phase {
    started: Instant,
    until: Instant,
    pub ops: Vec<(f64, f64)>,
}

impl Phase {
    fn starting_now(length: Duration) -> Phase {
        let started = Instant::now();
        Phase {
            started,
            until: started + length,
            ops: Vec::new(),
        }
    }

    fn summary(&self, kind: &str) -> Result<Summary, String> {
        let window = (self.until - self.started).as_secs_f64();
        let s = summarize(&self.ops, window)
            .ok_or_else(|| format!("a tenth of the window completed no {kind}"))?;
        if highest_supported_percentile(s.samples).is_none_or(|p| p < 95.0) {
            eprintln!(
                "warning: only {} {kind}; p95 has fewer than ten samples beyond it",
                s.samples
            );
        }
        eprintln!(
            "{kind}: {} samples, {:.1} ops/s, p50 {:.1} us, p95 {:.1} us",
            s.samples, s.ops_per_s, s.p50_us, s.p95_us
        );
        Ok(s)
    }
}

/// Sends `line`, checks the answer, and returns the latency. `None`
/// means the connection broke (the failure is already tallied).
fn exchange(
    conn: &mut Conn,
    line: &str,
    tally: &mut Tally,
    check: impl FnOnce(&Reply) -> Result<(), String>,
) -> Option<(Duration, Reply)> {
    let started = Instant::now();
    match conn.request(line) {
        Ok(reply) => {
            let took = started.elapsed();
            tally.record(line, check(&reply));
            Some((took, reply))
        }
        Err(why) => {
            tally.record(line, Err(why));
            None
        }
    }
}

/// One connection reading in closed loop until the phase ends.
fn read_phase(
    conn: &mut Conn,
    reads: &[ReadOp],
    order: &mut ReadOrder,
    (started, until): (Instant, Instant),
    tally: &mut Tally,
) -> Vec<(f64, f64)> {
    let mut ops = Vec::new();
    while Instant::now() < until {
        let op = &reads[order.next_index()];
        let Some((took, _)) = exchange(conn, &op.line, tally, |r| op.expect.check(r)) else {
            break;
        };
        ops.push((started.elapsed().as_secs_f64(), took.as_secs_f64() * 1e6));
    }
    ops
}

/// Every connection in `conns` reading concurrently for the phase, one
/// thread each.
fn read_all(
    conns: &mut [Conn],
    orders: &mut [ReadOrder],
    reads: &[ReadOp],
    phase: &mut Phase,
    tally: &mut Tally,
) {
    let span = (phase.started, phase.until);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(orders.iter_mut())
            .map(|(conn, order)| {
                scope.spawn(move || {
                    let mut t = Tally::default();
                    let ops = read_phase(conn, reads, order, span, &mut t);
                    (ops, t)
                })
            })
            .collect();
        for h in handles {
            let (ops, t) = h.join().expect("reader thread");
            tally.merge(t);
            phase.ops.extend(ops);
        }
    })
}

/// The writer connection in closed loop until the phase ends; every
/// mutation is mirrored into the oracle before it is sent.
fn write_phase(
    conn: &mut Conn,
    writer: &mut Writer,
    oracle: &mut Oracle,
    phase: &mut Phase,
    tally: &mut Tally,
) {
    while Instant::now() < phase.until {
        let op = writer.next_op();
        let expect = oracle.apply(&op);
        let Some((took, _)) = exchange(conn, &op.line(), tally, |r| expect.check(r)) else {
            break;
        };
        if let (WriteOp::Insert(rect), Expect::Slot(slot)) = (op, expect) {
            writer.inserted(slot, rect);
        }
        phase.ops.push((
            phase.started.elapsed().as_secs_f64(),
            took.as_secs_f64() * 1e6,
        ));
    }
}

/// Boots the topology and sends it the generated inputs.
fn set_up(
    workload: Workload,
    bin: &Path,
    load: &[(String, Expect)],
    tally: &mut Tally,
) -> Result<Servers, String> {
    let servers = Servers::boot(workload.topology(), bin, work_dir(workload.name())?)?;
    let mut conn = Conn::connect(servers.addr)?;
    for (line, expect) in load {
        exchange(&mut conn, line, tally, |r| expect.check(r))
            .ok_or_else(|| format!("set-up broke at {line:?}"))?;
    }
    Ok(servers)
}

/// Cumulative server-side counters, read over the line protocol
/// (`STAT` and `METRICS`) between phases of a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub candidate_hits: f64,
    pub candidate_misses: f64,
    pub plan_hits: f64,
    pub plan_misses: f64,
    pub wal_appended: f64,
    pub wal_fsync_batches: f64,
    pub wal_bytes: f64,
    /// Per-shard probes the routing tier issued.
    pub router_probes: f64,
}

impl ServerCounters {
    pub fn read(addr: SocketAddr) -> Result<ServerCounters, String> {
        let mut conn = Conn::connect(addr)?;
        let stat = conn.request("STAT")?;
        let metrics = conn.request("METRICS")?;
        let n = |key: &str| stat.number(key).unwrap_or(0) as f64;
        let router_probes = metrics
            .body
            .iter()
            .find_map(|l| l.strip_prefix("shard_probe_latency_us_count{tier=\"router\"} "))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        Ok(ServerCounters {
            candidate_hits: n("candidate_cache_hits"),
            candidate_misses: n("candidate_cache_misses"),
            plan_hits: n("plan_cache_hits"),
            plan_misses: n("plan_cache_misses"),
            wal_appended: n("wal_appended"),
            wal_fsync_batches: n("wal_fsync_batches"),
            wal_bytes: n("wal_bytes"),
            router_probes,
        })
    }
}

/// What the traced pass needs from the socket-level run.
pub struct Observed {
    pub before: ServerCounters,
    pub after_reads: ServerCounters,
    pub after_writes: ServerCounters,
    pub read_ops: f64,
    pub ping_rtt_us: f64,
    /// Reader throughput in the warm-up over reader throughput in the
    /// window.
    pub reader_slowdown: f64,
    /// Socket-level latencies of this (traced) run's window.
    pub read_p95_us: f64,
    pub write_p50_us: f64,
    pub write_p95_us: f64,
}

pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: Vec<Metric>,
    pub observed: Option<Observed>,
}

/// Runs one workload against real server processes and measures it
/// from outside. With `observe`, server counters are also read between
/// the phases (the traced run's socket-level half); the end-to-end
/// metrics the harness compares come only from runs without it.
pub fn run(
    workload: Workload,
    bin: &Path,
    seed: u64,
    seconds: u64,
    observe: bool,
) -> Result<Outcome, String> {
    let Inputs {
        load,
        mut oracle,
        mut writer,
        reads,
        ..
    } = Inputs::generate(workload, seed);
    let mut tally = Tally::default();

    let mut setup_times = Vec::new();
    let setup_started = Instant::now();
    let mut servers = loop {
        let t0 = Instant::now();
        let up = set_up(workload, bin, &load, &mut tally)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        // A traced run reports no set-up time, so it sets up once.
        let spent = setup_started.elapsed();
        if observe
            || setup_times.len() >= SETUP_MAX_REPEATS
            || spent > SETUP_BUDGET
            || (setup_times.len() >= SETUP_MIN_REPEATS && spent > SETUP_SOFT_BUDGET)
        {
            break up;
        }
        drop(up);
    };
    eprintln!("set-ups: {setup_times:.3?}");
    let addr = servers.addr;

    let window = Duration::from_secs(seconds);
    let concurrent = workload == Workload::RwCluster;
    let read_window = if concurrent {
        window
    } else {
        window.mul_f64(READ_SHARE)
    };
    // Connection 0 writes (in the window on `rw_cluster`, in the tail
    // elsewhere); the readers are the connections from `first_reader`.
    let mut conns = [Conn::connect(addr)?, Conn::connect(addr)?];
    let first_reader = usize::from(concurrent);
    let mut orders: Vec<ReadOrder> = (first_reader..conns.len())
        .map(|r| ReadOrder::new(workload, seed, r, reads.len()))
        .collect();
    let reads = &reads[..];

    let mut warm = Phase::starting_now(WARM_UP);
    read_all(
        &mut conns[first_reader..],
        &mut orders,
        reads,
        &mut warm,
        &mut tally,
    );

    let ping_rtt_us = if observe {
        let mut conn = Conn::connect(addr)?;
        let rtts: Vec<f64> = (0..200)
            .filter_map(|_| {
                exchange(&mut conn, "PING", &mut tally, |r| {
                    Expect::Line("OK pong").check(r)
                })
            })
            .map(|(took, _)| took.as_secs_f64() * 1e6)
            .collect();
        median(&rtts)
    } else {
        0.0
    };
    let counters = |at: &str| -> Result<ServerCounters, String> {
        if observe {
            ServerCounters::read(addr).map_err(|e| format!("reading counters {at}: {e}"))
        } else {
            Ok(ServerCounters::default())
        }
    };
    let before = counters("before the window")?;

    // The measured window.
    let mut reads_phase = Phase::starting_now(read_window);
    let mut writes = Phase::starting_now(read_window);
    if concurrent {
        let (writer_conn, reader_conns) = conns.split_at_mut(1);
        let (oracle_ref, writer_ref, writes) = (&mut oracle, &mut writer, &mut writes);
        std::thread::scope(|scope| {
            let w = scope.spawn(move || {
                let mut t = Tally::default();
                write_phase(&mut writer_conn[0], writer_ref, oracle_ref, writes, &mut t);
                t
            });
            read_all(
                reader_conns,
                &mut orders,
                reads,
                &mut reads_phase,
                &mut tally,
            );
            tally.merge(w.join().expect("writer thread"));
        });
    } else {
        read_all(&mut conns, &mut orders, reads, &mut reads_phase, &mut tally);
    }
    let after_reads = counters("after the read window")?;
    if !concurrent {
        writes = Phase::starting_now(window.saturating_sub(read_window));
        write_phase(
            &mut conns[0],
            &mut writer,
            &mut oracle,
            &mut writes,
            &mut tally,
        );
    }
    let after_writes = counters("after the writes")?;

    // The oracle's mirrored state against the servers', after all writes.
    for (line, expect) in oracle.sweep() {
        exchange(&mut conns[1], &line, &mut tally, |r| expect.check(r));
    }
    servers.check_alive()?;
    let peak_rss_mb = servers.peak_rss_mb();
    drop(servers);

    let reads_summary = reads_phase.summary("reads")?;
    let writes_summary = writes.summary("writes")?;
    // The p95s are measured here but reported with the per-layer
    // metrics: on this sandbox they spread by 20–30 % of their median
    // between runs of one commit, more than any bound the harness
    // accepts, so they cannot gate a change.
    let end_to_end = vec![
        ("setup_s", lower_quartile(&setup_times), "s"),
        ("read_ops_per_s", reads_summary.ops_per_s, "ops/s"),
        ("read_p50_us", reads_summary.p50_us, "us"),
        ("write_ops_per_s", writes_summary.ops_per_s, "ops/s"),
        ("write_p50_us", writes_summary.p50_us, "us"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];

    let observed = observe.then(|| {
        let warm_rate = warm.ops.len() as f64 / WARM_UP.as_secs_f64();
        Observed {
            before,
            after_reads,
            after_writes,
            read_ops: reads_phase.ops.len() as f64,
            ping_rtt_us,
            reader_slowdown: warm_rate / reads_summary.ops_per_s,
            read_p95_us: reads_summary.p95_us,
            write_p50_us: writes_summary.p50_us,
            write_p95_us: writes_summary.p95_us,
        }
    });
    Ok(Outcome {
        tally,
        end_to_end,
        observed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_orders_stay_inside_their_pools_and_split_the_connections() {
        for w in Workload::ALL {
            let pool = match w {
                Workload::JoinLocal => crate::gen::SMUGGLER_POOL,
                Workload::DistrictCluster => DISTRICT_POOL,
                Workload::RangeLocal => RANGE_POOL,
                Workload::RwCluster => DISTRICT_POOL + WEST_QUERY_POOL,
            };
            let mut a = ReadOrder::new(w, 1, 0, pool);
            let mut b = ReadOrder::new(w, 1, 1, pool);
            let ia: Vec<usize> = (0..2000).map(|_| a.next_index()).collect();
            let ib: Vec<usize> = (0..2000).map(|_| b.next_index()).collect();
            assert!(ia.iter().chain(&ib).all(|&i| i < pool), "{w:?}");
            assert_ne!(ia, ib, "{w:?}: the two connections walk different orders");
        }
        // rw_cluster's reader alternates district solves and west queries.
        let mut r = ReadOrder::new(Workload::RwCluster, 1, 0, DISTRICT_POOL + WEST_QUERY_POOL);
        let first: Vec<usize> = (0..4).map(|_| r.next_index()).collect();
        assert_eq!(first, vec![0, DISTRICT_POOL, 1, DISTRICT_POOL + 1]);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nosuch"), None);
    }

    #[test]
    fn the_tally_keeps_the_first_five_offenders() {
        let mut t = Tally::default();
        for i in 0..8 {
            t.record(&format!("Q{i}"), Err("bad".into()));
        }
        t.record("fine", Ok(()));
        assert_eq!((t.attempted, t.failed, t.first_failures.len()), (9, 8, 5));
    }
}
