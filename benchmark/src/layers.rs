//! The traced pass: the per-layer half of the benchmark.
//!
//! The first operations of the workload are replayed single-threaded
//! *inside the driver*. Each operation runs twice over the same store:
//! once whole, through `scq_serve::handle_command` (the `serve.command`
//! span — what the server does with the line), and once taken apart,
//! composing the layers' public functions in the server's order with a
//! span around each call: `core.parse`, `engine.plan`, `core.compile`,
//! `engine.exec` and, through a [`StoreView`] wrapper, one
//! `store.probe` per corner query the executor issues. Calls the
//! driver cannot reach from outside a command (the codec, the index
//! under a shard, one row check, one WAL append) are timed on the
//! operation's own probes and operands right after it.
//!
//! On the cluster workloads the store is a `ShardedDatabase<RemoteShard>`
//! connected to two fresh WAL-backed shard *processes*, so probes and
//! mutations cross the real wire; on the local ones it is the same
//! four-shard in-process store `scq-serve` runs.
//!
//! The whole replay then runs again with tracing off; the ratio of the
//! two is the tracing overhead. No file outside `benchmark/` gains a
//! span, a counter or a flag for any of this.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use scq_algebra::Assignment;
use scq_bbox::{Bbox, CornerQuery};
use scq_core::{parse_system, BboxPlan, ConstraintSystem, TriangularSystem};
use scq_engine::planner::SelectivityPlan;
use scq_engine::{
    bbox_execute_opts, compile_triangular, order_by_selectivity, CollectionId, ExecOptions,
    ExecStats, IndexKind, ObjectRef, ProbeReport, Query, QueryResult, StoreView,
};
use scq_index::{RTree, SpatialIndex, SplitStrategy};
use scq_region::{AaBox, Region};
use scq_serve::{handle_command, PlanMode, ServeContext};
use scq_shard::backend::ProbeTrace;
use scq_shard::wire::{
    decode_mux, decode_request, decode_response, encode_mux, encode_request, encode_response,
    frame, Request, Response, MUX_REQ, MUX_RESP,
};
use scq_shard::{ClusterSpec, LocalShard, ShardBackend, ShardedDatabase, Wal, WalConfig};

use crate::alloc::allocations;
use crate::client::Reply;
use crate::gen::{Rect, SolveOp, WriteOp, Writer, COLLECTIONS, UNIVERSE_SIDE};
use crate::oracle::{Expect, Oracle};
use crate::procs::{work_dir, Servers, Topology};
use crate::stats::median;
use crate::trace::{self_time_per_op, write_jsonl, Span, Tracer};
use crate::workloads::{
    Inputs, Metric, Observed, ReadKind, ReadOp, ReadOrder, ServerCounters, Tally, Workload,
};

/// How many operations of each workload are replayed.
fn replayed_ops(workload: Workload) -> usize {
    match workload {
        Workload::JoinLocal => 200,
        Workload::DistrictCluster => 1000,
        Workload::RangeLocal => 20_000,
        Workload::RwCluster => 1000,
    }
}

/// Probes, solutions and operations sampled per op for the per-call
/// timings: enough for steady medians, few enough to stay cheap.
const SAMPLED_PROBES: usize = 16;
const SAMPLED_SOLUTIONS: usize = 8;
const ALLOCATION_PROBES: usize = 8;

/// The collection id `name` has on every store the benchmark builds.
fn collection_id(name: &str) -> CollectionId {
    CollectionId(
        COLLECTIONS
            .iter()
            .position(|c| *c == name)
            .expect("a generated collection"),
    )
}

/// Binds a parsed system the way the line's bindings say.
pub fn bind(sys: ConstraintSystem, op: &SolveOp) -> Query<2> {
    let mut q = Query::new(sys);
    for (var, rect) in &op.knowns {
        q = q.known(var, rect.region());
    }
    for (var, coll) in &op.unknowns {
        q = q.from_collection(var, collection_id(coll));
    }
    q
}

/// One corner query the executor issued, kept for the per-call timings.
struct Probe {
    coll: CollectionId,
    kind: IndexKind,
    query: CornerQuery<2>,
    answers: Vec<u64>,
}

/// The engine → store boundary: every `StoreView` call passes through
/// untouched, and each corner query gets a `store.probe` span.
struct TracedView<'a, B: ShardBackend> {
    inner: &'a ShardedDatabase<B>,
    tracer: &'a Tracer,
    probes: RefCell<Vec<Probe>>,
}

impl<B: ShardBackend> StoreView<2> for TracedView<'_, B> {
    fn universe(&self) -> &AaBox<2> {
        self.inner.universe()
    }
    fn collection_len(&self, coll: CollectionId) -> usize {
        self.inner.collection_len(coll)
    }
    fn live_len(&self, coll: CollectionId) -> usize {
        self.inner.live_len(coll)
    }
    fn epoch(&self, coll: CollectionId) -> u64 {
        self.inner.epoch(coll)
    }
    fn is_live(&self, obj: ObjectRef) -> bool {
        self.inner.is_live(obj)
    }
    fn region(&self, obj: ObjectRef) -> &Region<2> {
        self.inner.region(obj)
    }
    fn bbox(&self, obj: ObjectRef) -> Bbox<2> {
        self.inner.bbox(obj)
    }
    fn query_collection(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<2>,
        out: &mut Vec<u64>,
    ) -> ProbeReport {
        let start = out.len();
        let report = self.tracer.span("store.probe", || {
            self.inner.query_collection(coll, kind, q, out)
        });
        let mut probes = self.probes.borrow_mut();
        if probes.len() < SAMPLED_PROBES {
            probes.push(Probe {
                coll,
                kind,
                query: *q,
                answers: out[start..].to_vec(),
            });
        }
        report
    }
    fn empty_objects(&self, coll: CollectionId) -> &[usize] {
        self.inner.empty_objects(coll)
    }
    fn live_indices_into(&self, coll: CollectionId, out: &mut Vec<usize>) {
        out.extend(self.inner.live_indices(coll));
    }
}

/// Per-call timings and counts gathered during the traced replay.
#[derive(Default)]
struct Samples {
    values: BTreeMap<&'static str, Vec<f64>>,
    exec: ExecStats,
    solve_ops: usize,
    allocations: u64,
    allocation_row_checks: u64,
    allocation_probes: usize,
}

impl Samples {
    fn add(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| median(v))
    }

    fn mean(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Everything one replay needs besides the tracer.
struct Replay<'a, B: ShardBackend> {
    workload: Workload,
    seed: u64,
    db: &'a Arc<RwLock<ShardedDatabase<B>>>,
    reads: &'a [ReadOp],
    oracle: &'a mut Oracle,
    writer: &'a mut Writer,
    /// A driver-side WAL on the same directory tree as the shards'
    /// logs: the same `Wal` code, group-commit window and disk.
    wal: Option<&'a Wal>,
    tally: &'a mut Tally,
}

fn cache_misses(ctx: &ServeContext) -> (u64, u64) {
    let snap = ctx.metrics.snapshot();
    (
        snap.counter("serve.plan_cache_misses").unwrap_or(0),
        snap.counter("serve.candidate_cache_misses").unwrap_or(0),
    )
}

impl<B: ShardBackend> Replay<'_, B> {
    /// Replays `n_ops` operations under `tracer` with a fresh serve
    /// context (so both replays start with cold caches, like the
    /// servers). Returns the time spent in the operations themselves;
    /// the per-call sampling, done only when `samples` is given, is
    /// extra work and not part of it.
    fn pass(
        &mut self,
        tracer: &Tracer,
        n_ops: usize,
        mut samples: Option<&mut Samples>,
    ) -> Result<Duration, String> {
        let ctx = ServeContext::new(None).with_plan(PlanMode::Selectivity);
        let mut order = ReadOrder::new(
            self.workload,
            self.seed,
            usize::from(self.workload == Workload::RwCluster),
            self.reads.len(),
        );
        let mut plans: HashMap<String, SelectivityPlan> = HashMap::new();
        let mut in_ops = Duration::ZERO;
        for i in 0..n_ops {
            tracer.begin_op(i as u32);
            // rw_cluster interleaves its two streams one for one.
            if self.workload == Workload::RwCluster && i % 2 == 0 {
                in_ops += self.write(tracer, &ctx)?;
                continue;
            }
            let reads = self.reads;
            let op = &reads[order.next_index()];
            let before = cache_misses(&ctx);
            let started = Instant::now();
            let response = tracer.span("serve.command", || {
                handle_command(self.db, &ctx, &op.line).0
            });
            in_ops += started.elapsed();
            let after = cache_misses(&ctx);
            self.tally
                .record(&op.line, op.expect.check(&Reply::from_text(&response)));

            let guard = self.db.read().map_err(|_| "database lock poisoned")?;
            let view = TracedView {
                inner: &*guard,
                tracer,
                probes: RefCell::new(Vec::new()),
            };
            let started = Instant::now();
            let solved = tracer.span("decomposed", || match &op.kind {
                ReadKind::Solve(solve) => decomposed_solve(
                    tracer,
                    &view,
                    solve,
                    &op.line,
                    after.0 > before.0,
                    &mut plans,
                )
                .map(Some),
                ReadKind::Range(range) => {
                    // A candidate-cache hit never reaches the store.
                    if after.1 > before.1 {
                        view.query_collection(
                            collection_id("roads"),
                            IndexKind::RTree,
                            &range.corner_query(),
                            &mut Vec::new(),
                        );
                    }
                    Ok(None)
                }
            })?;
            in_ops += started.elapsed();
            if let Some((result, _, _)) = &solved {
                let want = match &op.expect {
                    Expect::Solve { tuples } => tuples.len(),
                    _ => unreachable!("solve ops expect solve answers"),
                };
                self.tally.record(
                    &op.line,
                    if result.solutions.len() == want {
                        Ok(())
                    } else {
                        Err(format!(
                            "the decomposed run found {} solutions, the oracle {want}",
                            result.solutions.len()
                        ))
                    },
                );
            }
            if let Some(samples) = samples.as_deref_mut() {
                let probes = view.probes.take();
                for p in &probes {
                    self.sample_probe(&guard, p, samples);
                }
                if let Some((result, query, tri)) = &solved {
                    samples.exec.merge(&result.stats);
                    samples.solve_ops += 1;
                    sample_row_checks(&guard, result, query, tri, samples);
                    if samples.allocation_probes < ALLOCATION_PROBES {
                        samples.allocation_probes += 1;
                        // Nothing else in this process runs now, so the
                        // count is exactly this call's.
                        let a0 = allocations();
                        let r = bbox_execute_opts(
                            &self.oracle.db,
                            query,
                            IndexKind::RTree,
                            ExecOptions::all(),
                        )
                        .map_err(|e| e.to_string())?;
                        samples.allocations += allocations() - a0;
                        samples.allocation_row_checks += r.stats.exact_row_checks as u64;
                    }
                }
            }
        }
        Ok(in_ops)
    }

    /// One writer mutation: the whole command, then — where the
    /// topology logs — the same record through a `Wal` of the driver's.
    fn write(&mut self, tracer: &Tracer, ctx: &ServeContext) -> Result<Duration, String> {
        let op = self.writer.next_op();
        let expect = self.oracle.apply(&op);
        let line = op.line();
        let started = Instant::now();
        let response = tracer.span("serve.command", || handle_command(self.db, ctx, &line).0);
        let mut took = started.elapsed();
        self.tally
            .record(&line, expect.check(&Reply::from_text(&response)));
        if let (WriteOp::Insert(rect), Expect::Slot(slot)) = (op, expect) {
            self.writer.inserted(slot, rect);
        }
        if let Some(wal) = self.wal {
            let roads = collection_id("roads");
            // The log record is the wire request; slots here are the
            // global ones, which are as long as the shard-local ones.
            let request = match op {
                WriteOp::Insert(r) => Request::Insert {
                    coll: roads,
                    region: r.region(),
                },
                WriteOp::Update(slot, r) => Request::Update {
                    coll: roads,
                    local: slot as u64,
                    region: r.region(),
                },
                WriteOp::Remove(slot) => Request::Remove {
                    coll: roads,
                    local: slot as u64,
                },
            };
            // A closed-loop writer's record always arrives just after
            // the previous group commit; an untimed record first puts
            // the driver's log in that same phase of its commit timer.
            wal.append_durable(&request).map_err(|e| e.to_string())?;
            let started = Instant::now();
            tracer.span("decomposed", || -> Result<(), String> {
                let ticket = tracer
                    .span("wal.append", || wal.append(&request))
                    .map_err(|e| e.to_string())?;
                tracer
                    .span("wal.durable_wait", || wal.wait_durable(ticket))
                    .map_err(|e| e.to_string())
            })?;
            took += started.elapsed();
        }
        Ok(took)
    }

    /// The calls under one corner query, timed on that query: routing,
    /// the index (on the oracle's identical data), and — over a wire —
    /// the codec both ways and one real round trip per shard.
    fn sample_probe(&self, db: &ShardedDatabase<B>, p: &Probe, samples: &mut Samples) {
        let mut shards = Vec::new();
        let t = Instant::now();
        db.router().candidate_shards(&p.query, &mut shards);
        samples.add("router.route_us", ns_since(t) / 1e3);
        samples.add(
            "router.pruned_ratio",
            (db.n_shards() - shards.len()) as f64 / db.n_shards() as f64,
        );

        let mut out = Vec::new();
        let t = Instant::now();
        self.oracle
            .db
            .query_collection(p.coll, IndexKind::RTree, &p.query, &mut out);
        let index_us = ns_since(t) / 1e3;
        samples.add("index.rtree_query_us", index_us);
        samples.add("index.candidates_per_query", out.len() as f64);
        out.clear();
        let t = Instant::now();
        self.oracle
            .db
            .query_collection(p.coll, IndexKind::GridFile, &p.query, &mut out);
        samples.add("index.grid_query_us", ns_since(t) / 1e3);

        // Only the cluster topologies (the ones that log) have a wire.
        if self.wal.is_none() {
            return;
        }
        let request = Request::Query {
            coll: p.coll,
            kind: p.kind,
            query: p.query,
        };
        let response = Response::Ids(p.answers.clone());
        let t = Instant::now();
        let req_frame = frame(&encode_mux(MUX_REQ, 1, &encode_request(&request)));
        let resp_frame = frame(&encode_mux(MUX_RESP, 1, &encode_response(&response)));
        let encode_us = ns_since(t) / 1e3;
        let (Ok(req_frame), Ok(resp_frame)) = (req_frame, resp_frame) else {
            return; // an answer past the frame cap streams instead
        };
        let t = Instant::now();
        let decoded = decode_mux(&req_frame[4..]).and_then(|m| decode_request(&m.body));
        let answered = decode_mux(&resp_frame[4..]).and_then(|m| decode_response(&m.body));
        let decode_us = ns_since(t) / 1e3;
        debug_assert!(decoded.is_ok() && answered.is_ok());
        samples.add("wire.encode_us", encode_us);
        samples.add("wire.decode_us", decode_us);
        samples.add(
            "wire.bytes_per_probe",
            (req_frame.len() + resp_frame.len()) as f64,
        );
        for &s in &shards {
            out.clear();
            let t = Instant::now();
            let ok = db
                .backend(s)
                .try_corner_query(
                    p.coll,
                    p.kind,
                    &p.query,
                    &mut out,
                    &mut ProbeTrace::default(),
                )
                .is_ok();
            let rtt_us = ns_since(t) / 1e3;
            if ok {
                samples.add("remote.probe_rtt_us", rtt_us);
                samples.add(
                    "remote.transport_us",
                    (rtt_us - encode_us - decode_us - index_us).max(0.0),
                );
            }
        }
    }
}

/// The server's `SOLVE`, taken apart: parse, (plan, when the command's
/// plan cache missed), compile, execute — each a span.
fn decomposed_solve<B: ShardBackend>(
    tracer: &Tracer,
    view: &TracedView<'_, B>,
    op: &SolveOp,
    line: &str,
    planned: bool,
    plans: &mut HashMap<String, SelectivityPlan>,
) -> Result<(QueryResult, Query<2>, TriangularSystem), String> {
    let sys = tracer
        .span("core.parse", || parse_system(op.system))
        .map_err(|e| e.to_string())?;
    let mut query = bind(sys, op);
    if planned || !plans.contains_key(line) {
        let plan = tracer
            .span("engine.plan", || {
                order_by_selectivity(view, &query, IndexKind::RTree)
            })
            .map_err(|e| e.to_string())?;
        plans.insert(line.to_string(), plan);
    }
    query.order = Some(plans[line].order.clone());
    let tri = tracer
        .span("core.compile", || {
            compile_triangular(view, &query).inspect(|tri| {
                std::hint::black_box(BboxPlan::<2>::compile(tri));
            })
        })
        .map_err(|e| e.to_string())?;
    let result = tracer
        .span("engine.exec", || {
            bbox_execute_opts(view, &query, IndexKind::RTree, ExecOptions::all())
        })
        .map_err(|e| e.to_string())?;
    Ok((result, query, tri))
}

/// Exact row checks and region operations on the operands the
/// operation really bound: a few of its own solutions.
fn sample_row_checks<B: ShardBackend>(
    db: &ShardedDatabase<B>,
    result: &QueryResult,
    query: &Query<2>,
    tri: &TriangularSystem,
    samples: &mut Samples,
) {
    let alg = StoreView::algebra(db);
    for solution in result.solutions.iter().take(SAMPLED_SOLUTIONS) {
        let mut assign = Assignment::new();
        for (var, region) in query.known_vars() {
            assign.bind(var, region.clone());
        }
        let bound: Vec<&Region<2>> = solution.values().map(|&obj| db.region(obj)).collect();
        for (&var, region) in solution.keys().zip(&bound) {
            assign.bind(var, (*region).clone());
        }
        let t = Instant::now();
        let ok = tri.check_all(&alg, &assign);
        samples.add(
            "core.row_check_ns",
            ns_since(t) / tri.rows.len().max(1) as f64,
        );
        debug_assert_eq!(ok, Ok(true), "a solution satisfies its solved rows");
        for pair in bound.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let t = Instant::now();
            std::hint::black_box(a.union(b));
            std::hint::black_box(a.intersection(b));
            std::hint::black_box(a.subset_of(b));
            samples.add("region.op_ns", ns_since(t) / 3.0);
        }
    }
}

/// `index.insert_us` / `index.remove_us`: the writer's boxes into and
/// out of an R-tree holding the map's roads.
fn sample_index_mutations(roads: &[Rect], seed: u64, samples: &mut Samples) {
    let mut tree: RTree<2> = RTree::new(SplitStrategy::Quadratic);
    for (id, r) in roads.iter().enumerate() {
        tree.insert(id as u64, r.bbox());
    }
    let mut writer = Writer::new(seed);
    let mut id = roads.len() as u64;
    for _ in 0..2000 {
        if let WriteOp::Insert(r) = writer.next_op() {
            writer.inserted(id as usize, r);
            let t = Instant::now();
            tree.insert(id, r.bbox());
            samples.add("index.insert_us", ns_since(t) / 1e3);
            let t = Instant::now();
            let removed = tree.remove(id, r.bbox());
            samples.add("index.remove_us", ns_since(t) / 1e3);
            debug_assert!(removed);
            id += 1;
        }
    }
}

/// Runs the traced pass for `workload` and returns every per-layer
/// metric. `observed` is the socket-level half (server counters around
/// the untraced window); spans go to `benchmark/out/trace-<w>.jsonl`.
pub fn traced_pass(
    workload: Workload,
    seed: u64,
    bin: &Path,
    observed: &Observed,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let universe = AaBox::new([0.0, 0.0], [UNIVERSE_SIDE, UNIVERSE_SIDE]);
    match workload.topology() {
        Topology::Local => replay(
            workload,
            seed,
            ShardedDatabase::<LocalShard>::new(universe, 4),
            None,
            observed,
            tally,
        ),
        Topology::Cluster => {
            let shards = Servers::boot_shards_only(bin, work_dir("traced")?)?;
            let spec = ClusterSpec::parse(shards.spec.as_deref().expect("shards have a spec"))
                .map_err(|e| e.to_string())?;
            let db = spec
                .connect(Duration::from_secs(15))
                .map_err(|e| e.to_string())?;
            let wal_dir = work_dir("driver-wal")?;
            let (wal, _) =
                Wal::open(&WalConfig::new(&wal_dir), universe).map_err(|e| e.to_string())?;
            let metrics = replay(workload, seed, db, Some(&wal), observed, tally);
            drop(wal);
            let _ = std::fs::remove_dir_all(&wal_dir);
            drop(shards);
            metrics
        }
    }
}

fn replay<B: ShardBackend>(
    workload: Workload,
    seed: u64,
    db: ShardedDatabase<B>,
    wal: Option<&Wal>,
    observed: &Observed,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let Inputs {
        map,
        load,
        mut oracle,
        mut writer,
        reads,
    } = Inputs::generate(workload, seed);
    let db = Arc::new(RwLock::new(db));
    let loader = ServeContext::new(None);
    for (line, expect) in &load {
        let response = handle_command(&db, &loader, line).0;
        tally.record(line, expect.check(&Reply::from_text(&response)));
    }

    let n_ops = replayed_ops(workload);
    let mut samples = Samples::default();
    let mut run = Replay {
        workload,
        seed,
        db: &db,
        reads: &reads,
        oracle: &mut oracle,
        writer: &mut writer,
        wal,
        tally,
    };
    let traced = Tracer::new(true);
    let with_spans = run.pass(&traced, n_ops, Some(&mut samples))?;
    let without_spans = run.pass(&Tracer::new(false), n_ops, None)?;
    sample_index_mutations(&map.roads, seed, &mut samples);

    let spans = traced.into_spans();
    let path = Path::new("benchmark/out").join(format!("trace-{}.jsonl", workload.name()));
    write_jsonl(&spans, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", spans.len(), path.display());
    Ok(metrics(
        &spans,
        &samples,
        observed,
        with_spans.as_secs_f64() / without_spans.as_secs_f64(),
    ))
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Turns spans, samples and server counters into the per-layer table.
fn metrics(spans: &[Span], samples: &Samples, observed: &Observed, overhead: f64) -> Vec<Metric> {
    let per_op = self_time_per_op(spans);
    // Median self time per operation that entered the span, in µs.
    let self_us = |name: &str| per_op.get(name).map_or(0.0, |v| median(v) / 1e3);
    // Total self time over the whole replay, in ns.
    let total_self = |name: &str| per_op.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    };
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;

    let command = total("serve.command");
    // `engine.exec` compiles the plan again itself, so the standalone
    // `core.compile` span is not added on top of it.
    let compute = total_self("core.parse") + total_self("engine.plan") + total_self("engine.exec");
    let store = total("store.probe");
    let remote = if samples.values.contains_key("remote.probe_rtt_us") {
        let under_wire = samples.median("router.route_us") + samples.median("index.rtree_query_us");
        (store - count("store.probe") * under_wire * 1e3).max(0.0)
    } else {
        0.0
    };
    let per_solve = |v: usize| ratio(v as f64, samples.solve_ops as f64);
    let x = &samples.exec;
    let reads = |f: fn(&ServerCounters) -> f64| f(&observed.after_reads) - f(&observed.before);
    let writes = |f: fn(&ServerCounters) -> f64| f(&observed.after_writes) - f(&observed.before);
    let (cand_hits, cand_misses) = (reads(|c| c.candidate_hits), reads(|c| c.candidate_misses));
    let (plan_hits, plan_misses) = (reads(|c| c.plan_hits), reads(|c| c.plan_misses));
    let appended = writes(|c| c.wal_appended);

    vec![
        ("read_p95_us", observed.read_p95_us, "us"),
        ("write_p95_us", observed.write_p95_us, "us"),
        ("serve.ping_rtt_us", observed.ping_rtt_us, "us"),
        ("serve.command_us", self_us("serve.command"), "us"),
        (
            "serve.candidate_cache_hit_ratio",
            ratio(cand_hits, cand_hits + cand_misses),
            "ratio",
        ),
        (
            "serve.plan_cache_hit_ratio",
            ratio(plan_hits, plan_hits + plan_misses),
            "ratio",
        ),
        ("serve.reader_slowdown", observed.reader_slowdown, "ratio"),
        ("core.parse_us", self_us("core.parse"), "us"),
        ("core.compile_us", self_us("core.compile"), "us"),
        (
            "core.row_check_ns",
            samples.median("core.row_check_ns"),
            "ns",
        ),
        ("engine.plan_us", self_us("engine.plan"), "us"),
        ("engine.exec_us", self_us("engine.exec"), "us"),
        ("engine.probe_us", per_solve(x.probe_us as usize), "us"),
        ("engine.check_us", per_solve(x.check_us as usize), "us"),
        (
            "engine.exact_row_checks",
            per_solve(x.exact_row_checks),
            "count",
        ),
        (
            "engine.index_candidates",
            per_solve(x.index_candidates),
            "count",
        ),
        (
            "engine.partial_tuples",
            per_solve(x.partial_tuples),
            "count",
        ),
        (
            "engine.bbox_prefilter_rejections",
            per_solve(x.bbox_prefilter_rejections),
            "count",
        ),
        (
            "engine.row_checks_per_solution",
            ratio(x.exact_row_checks as f64, x.solutions as f64),
            "ratio",
        ),
        (
            "engine.corner_cache_hit_ratio",
            ratio(
                x.corner_cache_hits as f64,
                (x.corner_cache_hits + x.corner_cache_misses) as f64,
            ),
            "ratio",
        ),
        ("region.op_ns", samples.median("region.op_ns"), "ns"),
        (
            "region.allocs_per_row_check",
            ratio(
                samples.allocations as f64,
                samples.allocation_row_checks as f64,
            ),
            "ratio",
        ),
        (
            "index.rtree_query_us",
            samples.median("index.rtree_query_us"),
            "us",
        ),
        (
            "index.grid_query_us",
            samples.median("index.grid_query_us"),
            "us",
        ),
        (
            "index.candidates_per_query",
            samples.mean("index.candidates_per_query"),
            "count",
        ),
        ("index.insert_us", samples.median("index.insert_us"), "us"),
        ("index.remove_us", samples.median("index.remove_us"), "us"),
        ("router.route_us", samples.median("router.route_us"), "us"),
        (
            "router.pruned_ratio",
            samples.mean("router.pruned_ratio"),
            "ratio",
        ),
        ("wire.encode_us", samples.median("wire.encode_us"), "us"),
        ("wire.decode_us", samples.median("wire.decode_us"), "us"),
        (
            "wire.bytes_per_probe",
            samples.mean("wire.bytes_per_probe"),
            "bytes",
        ),
        (
            "remote.probe_rtt_us",
            samples.median("remote.probe_rtt_us"),
            "us",
        ),
        (
            "remote.transport_us",
            samples.median("remote.transport_us"),
            "us",
        ),
        (
            // The routing tier counts in-process shard probes too;
            // only over a wire are they remote.
            "remote.probes_per_op",
            if remote > 0.0 {
                ratio(reads(|c| c.router_probes), observed.read_ops)
            } else {
                0.0
            },
            "count",
        ),
        ("wal.append_us", self_us("wal.append"), "us"),
        ("wal.durable_wait_us", self_us("wal.durable_wait"), "us"),
        (
            "wal.fsyncs_per_write",
            ratio(writes(|c| c.wal_fsync_batches), appended),
            "ratio",
        ),
        (
            "wal.bytes_per_write",
            ratio(writes(|c| c.wal_bytes), appended),
            "bytes",
        ),
        ("share.compute", ratio(compute, command), "ratio"),
        ("share.wire_remote", ratio(remote, command), "ratio"),
        (
            "share.wal_wait_of_write",
            ratio(self_us("wal.durable_wait"), observed.write_p50_us),
            "ratio",
        ),
        (
            "trace.coverage_ratio",
            ratio(total("decomposed") - total("core.compile"), command),
            "ratio",
        ),
        ("trace.overhead_ratio", overhead, "ratio"),
    ]
}
