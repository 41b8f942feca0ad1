//! Command parsing and execution for the line protocol.
//!
//! Every command handler returns `OK …` or `ERR <reason>` as one line;
//! parse errors never tear down the connection. Read-only commands
//! (`QUERY`, `SOLVE`, `STAT`, `SHARDS`, `PING`) take the database's
//! read lock and run concurrently; mutations (`INSERT`, `REMOVE`,
//! `UPDATE`, `CREATE`, `COMPACT`, `LOAD`, `SNAPSHOT LOAD`) take the
//! write lock.
//!
//! Everything is generic over the [`ShardBackend`]: the same command
//! table serves an in-process sharded store and a cluster of shard
//! processes. Mutations go through the database's fallible `try_*`
//! forms, so a lost shard process surfaces as an `ERR` line on the
//! client's connection instead of tearing the server down. Reads never
//! reach a shard process: every backend answers probes from an
//! in-process copy of its shard, so `QUERY` and `SOLVE` answer in full
//! while a shard process is down.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use scq_bbox::{Bbox, CornerQuery};
use scq_core::parse_system;
use scq_engine::workload::{map_workload, MapParams};
use scq_engine::{
    bbox_execute_compiled, order_by_selectivity, CollectionId, ExecOptions, IndexKind, ObjectRef,
    Query, SelectivityPlan, SpatialDatabase, VarBinding,
};
use scq_region::{AaBox, Region};
use scq_shard::{ShardBackend, ShardedDatabase};

/// Cumulative counters of one serving process, shared by every worker,
/// reported by `STAT` and scraped through `METRICS`. All instruments
/// live in one [`scq_obs::Registry`].
pub struct ServeMetrics {
    registry: scq_obs::Registry,
    /// `serve.queries`: `QUERY`/`SOLVE` commands answered.
    queries: scq_obs::Counter,
    /// `serve.slow_queries`: queries at or above the slow threshold.
    slow_queries: scq_obs::Counter,
    /// `serve.candidate_cache_hits`: `QUERY` answers served from the
    /// epoch-keyed candidate cache without touching a shard.
    candidate_cache_hits: scq_obs::Counter,
    /// `serve.candidate_cache_misses`: `QUERY` probes that had to run
    /// because no current-epoch entry existed.
    candidate_cache_misses: scq_obs::Counter,
    /// `serve.plan_cache_hits`: `SOLVE` retrieval orders reused from
    /// the epoch-keyed plan cache (selectivity mode only).
    plan_cache_hits: scq_obs::Counter,
    /// `serve.plan_cache_misses`: `SOLVE` commands that ran the
    /// selectivity planner's probe round.
    plan_cache_misses: scq_obs::Counter,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        let registry = scq_obs::Registry::new();
        ServeMetrics {
            queries: registry.counter("serve.queries"),
            slow_queries: registry.counter("serve.slow_queries"),
            candidate_cache_hits: registry.counter("serve.candidate_cache_hits"),
            candidate_cache_misses: registry.counter("serve.candidate_cache_misses"),
            plan_cache_hits: registry.counter("serve.plan_cache_hits"),
            plan_cache_misses: registry.counter("serve.plan_cache_misses"),
            registry,
        }
    }
}

impl ServeMetrics {
    /// A snapshot of every serve-tier instrument.
    pub fn snapshot(&self) -> scq_obs::Snapshot {
        self.registry.snapshot()
    }

    /// The per-command latency histogram (`serve.<verb>.latency`).
    fn command_latency(&self, verb: &str) -> scq_obs::Histogram {
        self.registry
            .histogram(&format!("serve.{}.latency", verb.to_ascii_lowercase()))
    }
}

/// The serve tier's one planner, as the `--plan` flag names it.
///
/// Every `SOLVE` probes each unknown's first-position corner query once
/// and runs the order with the fewest estimated probes
/// ([`order_by_selectivity`]); chosen orders are cached with their
/// compiled plans per command text and invalidated by the bound
/// collections' mutation epochs. The type stays only because the
/// benchmark (`benchmark/src/layers.rs`) names `PlanMode::Selectivity`;
/// the next change to the benchmark deletes it (ROADMAP item 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMode {
    /// Whole-order cost planning with the epoch-keyed plan cache.
    Selectivity,
}

impl PlanMode {
    /// Parses a `--plan` flag value: only `selectivity` is accepted.
    /// The flag stays only because the benchmark
    /// (`benchmark/src/procs.rs`) passes `--plan selectivity`; the next
    /// change to the benchmark deletes it (ROADMAP item 1).
    pub fn parse(s: &str) -> Result<PlanMode, String> {
        match s {
            "selectivity" => Ok(PlanMode::Selectivity),
            other => Err(format!(
                "unknown plan mode {other:?} (the one planner is `selectivity`)"
            )),
        }
    }
}

/// Capacity bounds for the epoch-keyed caches. Entries under a
/// superseded epoch can never be addressed again (epochs only grow),
/// so hitting the cap clears the map wholesale: that only costs warm
/// entries, never correctness.
const CANDIDATE_CACHE_CAP: usize = 1024;
const PLAN_CACHE_CAP: usize = 256;

/// Key of one cached `QUERY` answer: collection, index kind, probe
/// mode, the probe box's exact bit pattern, and the collection's
/// mutation epoch when the answer was computed. Every effective write
/// — local or through the remote write-through mirror — bumps the
/// epoch, so stale entries simply stop being addressable.
type CandidateKey = (usize, u8, u8, [u64; 4], u64);

/// Key of one cached `SOLVE` plan: index kind, the command's binding
/// and system text verbatim, and the mutation epoch of every bound
/// collection in binding order.
type PlanKey = (u8, String, String, Vec<u64>);

/// A cached `SOLVE` plan: the planner's order with the plan compiled
/// for it. Parsing the same system text interns the same variables in
/// the same order, and that text is part of the key, so the plan's
/// variables stay valid for every command that hits.
type CachedPlan = Arc<SelectivityPlan>;

/// The serve tier's epoch-invalidated caches above the executors.
#[derive(Default)]
struct QueryCaches {
    /// Complete, primary-fresh `QUERY` answers: sorted ids plus the
    /// router's prune count for that probe.
    candidates: Mutex<HashMap<CandidateKey, (Vec<u64>, usize)>>,
    /// Planned retrieval orders with their compiled plans.
    plans: Mutex<HashMap<PlanKey, CachedPlan>>,
}

/// Per-server observability state shared by every worker: the metrics
/// registry, the ring of recent command traces replayed by `TRACE`,
/// the trace-id allocator, the slow-query threshold and the
/// epoch-invalidated query caches.
pub struct ServeContext {
    /// The serve tier's instruments.
    pub metrics: ServeMetrics,
    traces: scq_obs::TraceRing,
    next_trace_id: AtomicU64,
    slow_ms: Option<u64>,
    caches: QueryCaches,
}

impl Default for ServeContext {
    fn default() -> Self {
        ServeContext::new(None)
    }
}

impl ServeContext {
    /// A fresh context; queries at or above `slow_ms` milliseconds are
    /// counted and logged with their trace retained (`None` disables
    /// the slow-query log).
    pub fn new(slow_ms: Option<u64>) -> ServeContext {
        ServeContext {
            metrics: ServeMetrics::default(),
            traces: scq_obs::TraceRing::new(256),
            next_trace_id: AtomicU64::new(1),
            slow_ms,
            caches: QueryCaches::default(),
        }
    }

    /// Returns the context unchanged: there is one planner. It stays
    /// only because the benchmark (`benchmark/src/layers.rs`) calls
    /// `with_plan(PlanMode::Selectivity)`; the next change to the
    /// benchmark deletes it (ROADMAP item 1).
    pub fn with_plan(self, _plan: PlanMode) -> ServeContext {
        self
    }

    /// The recorded trace with id `id`, if it is still in the ring.
    pub(crate) fn trace(&self, id: u64) -> Option<Arc<scq_obs::TraceState>> {
        self.traces.get(id)
    }
}

/// Renders the per-shard health section of a plain `STAT` response:
/// one `shard<i>[…]` entry per shard so a single sick replica is
/// visible from the front end. For remote backends each replica is
/// listed as
/// `addr,role,breaker,trips=<t>,conns=<created>/<discarded>/<idle>,sync,wire=v<n>`
/// — the trailing token is the wire version the replica's handshake
/// settled on (`v0` = never connected); local (in-process) shards have
/// no transport and report `local`.
fn shard_health<B: ShardBackend>(d: &ShardedDatabase<B>) -> String {
    let health = (0..d.n_shards())
        .map(|s| {
            let replicas = d.backend(s).health();
            if replicas.is_empty() {
                return format!("shard{s}[local]");
            }
            let listed = replicas
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},trips={},conns={}/{}/{},{},wire=v{}",
                        r.addr,
                        if r.primary { "primary" } else { "replica" },
                        r.stats.breaker.as_str(),
                        r.stats.breaker_trips,
                        r.stats.created,
                        r.stats.discarded,
                        r.stats.idle,
                        if r.desynced { "desynced" } else { "in-sync" },
                        r.stats.wire_version
                    )
                })
                .collect::<Vec<_>>()
                .join("|");
            format!("shard{s}[{listed}]")
        })
        .collect::<Vec<_>>()
        .join(";");
    format!("health={health}")
}

/// Renders the durability section of a plain `STAT` response: the
/// WAL counters merged across every shard process, or nothing at all
/// when no shard runs with a WAL (so the pre-WAL `STAT` shape is
/// unchanged for in-memory deployments).
fn wal_rows<B: ShardBackend>(d: &ShardedDatabase<B>) -> String {
    match d.wal_stats() {
        Some(s) => format!(
            " wal_appended={} wal_replayed={} wal_fsync_batches={} \
             wal_segments={} wal_bytes={} wal_torn_tails={}",
            s.appended, s.replayed, s.fsync_batches, s.segments, s.bytes, s.torn_tails
        ),
        None => String::new(),
    }
}

/// Frames a multi-line body behind an `OK lines=<n>` header so a
/// client reading one line per command knows exactly how many more
/// lines to consume.
fn multiline(body: &str) -> String {
    let lines: Vec<&str> = body.lines().collect();
    let mut out = format!("OK lines={}", lines.len());
    for l in &lines {
        out.push('\n');
        out.push_str(l);
    }
    out
}

/// Parses and runs one command line. Returns the response (no trailing
/// newline; `METRICS` and `TRACE` responses are multi-line, with the
/// body line count in the header's `lines=` field) and whether the
/// connection should close. Responses start `OK` or `ERR`.
///
/// Every command runs under a fresh trace (ids from a per-server
/// counter); `QUERY` and `SOLVE` responses carry theirs as a trailing
/// ` trace=<id>` field so a client can replay the span tree with
/// `TRACE <id>` while it is still in the ring.
pub fn handle_command<B: ShardBackend>(
    db: &Arc<RwLock<ShardedDatabase<B>>>,
    ctx: &ServeContext,
    line: &str,
) -> (String, bool) {
    if line.trim() == "QUIT" {
        return ("OK bye".into(), true);
    }
    let verb = line.split_whitespace().next().unwrap_or("");
    let trace_id = ctx.next_trace_id.fetch_add(1, Ordering::Relaxed);
    let trace = scq_obs::TraceState::new(trace_id);
    let started = Instant::now();
    let outcome = {
        let _install = trace.install();
        let _span = scq_obs::span("serve.command", format!("cmd={verb}"));
        dispatch(db, ctx, line)
    };
    let elapsed = started.elapsed();
    if !verb.is_empty() {
        ctx.metrics.command_latency(verb).observe(elapsed);
    }
    ctx.traces.push(trace);
    let is_query = matches!(verb, "QUERY" | "SOLVE");
    if is_query {
        if let Some(slow_ms) = ctx.slow_ms {
            if elapsed.as_millis() as u64 >= slow_ms {
                ctx.metrics.slow_queries.inc();
                eprintln!(
                    "slow query trace={trace_id} ms={} cmd={}",
                    elapsed.as_millis(),
                    line.trim()
                );
            }
        }
    }
    match outcome {
        // Only single-line query responses carry the trace id; the
        // multi-line METRICS/TRACE bodies must stay exactly `lines=`
        // long.
        Ok(mut r) => {
            if is_query {
                r.push_str(&format!(" trace={trace_id}"));
            }
            (r, false)
        }
        Err(e) => (format!("ERR {e}"), false),
    }
}

fn lock_poisoned<T>(_: T) -> String {
    "database lock poisoned".to_string()
}

/// Cap on ids / tuples listed inline in a response line; `n=` always
/// carries the true count.
const MAX_LISTED: usize = 16;

fn dispatch<B: ShardBackend>(
    db: &Arc<RwLock<ShardedDatabase<B>>>,
    ctx: &ServeContext,
    line: &str,
) -> Result<String, String> {
    let mut parts = line.split_whitespace();
    let verb = parts.next().ok_or("empty command")?;
    let rest: Vec<&str> = parts.collect();
    match verb {
        "PING" => Ok("OK pong".into()),
        "CREATE" => {
            let [name] = rest[..] else {
                return Err("usage: CREATE <name>".into());
            };
            // Snapshot formats frame collection names with a u16
            // length; reject anything unserializable up front.
            if name.len() > 255 {
                return Err(format!(
                    "collection name too long ({} > 255 bytes)",
                    name.len()
                ));
            }
            let mut d = db.write().map_err(lock_poisoned)?;
            let id = d.try_collection(name).map_err(|e| e.to_string())?;
            Ok(format!("OK coll={}", id.0))
        }
        "INSERT" => {
            let (name, coords) = rest.split_first().ok_or("usage: INSERT <coll> <region>")?;
            let region = parse_region(coords)?;
            let mut d = db.write().map_err(lock_poisoned)?;
            let coll = lookup(&d, name)?;
            let obj = d.try_insert(coll, region).map_err(|e| e.to_string())?;
            Ok(format!("OK ref={}", obj.index))
        }
        "REMOVE" => {
            let [name, slot] = rest[..] else {
                return Err("usage: REMOVE <coll> <slot>".into());
            };
            let mut d = db.write().map_err(lock_poisoned)?;
            let coll = lookup(&d, name)?;
            let obj = object_ref(&d, coll, slot)?;
            Ok(if d.try_remove(obj).map_err(|e| e.to_string())? {
                "OK removed".into()
            } else {
                "OK noop".into()
            })
        }
        "UPDATE" => {
            let (name, more) = rest
                .split_first()
                .ok_or("usage: UPDATE <coll> <slot> <region>")?;
            let (slot, coords) = more
                .split_first()
                .ok_or("usage: UPDATE <coll> <slot> <region>")?;
            let region = parse_region(coords)?;
            let mut d = db.write().map_err(lock_poisoned)?;
            let coll = lookup(&d, name)?;
            let obj = object_ref(&d, coll, slot)?;
            Ok(if d.try_update(obj, region).map_err(|e| e.to_string())? {
                "OK updated".into()
            } else {
                "OK noop".into()
            })
        }
        "QUERY" => {
            let [name, kind, mode, x0, y0, x1, y1] = rest[..] else {
                return Err(
                    "usage: QUERY <coll> <rtree|grid|scan> <overlaps|within|contains> \
                            <x0> <y0> <x1> <y1>"
                        .into(),
                );
            };
            let kind = parse_kind(kind)?;
            let (x0, y0, x1, y1) = (
                parse_f64(x0)?,
                parse_f64(y0)?,
                parse_f64(x1)?,
                parse_f64(y1)?,
            );
            let probe = Bbox::new([x0, y0], [x1, y1]);
            let (q, mode_tag) = match mode {
                "overlaps" => (CornerQuery::unconstrained().and_overlaps(&probe), 0u8),
                "within" => (CornerQuery::unconstrained().and_contained_in(&probe), 1u8),
                "contains" => (CornerQuery::unconstrained().and_contains(&probe), 2u8),
                other => return Err(format!("unknown mode {other:?}")),
            };
            let d = db.read().map_err(lock_poisoned)?;
            let coll = lookup(&d, name)?;
            // Cross-query candidate cache: the key carries the
            // collection's mutation epoch, so any effective write —
            // local or through the remote write-through mirror —
            // retires every entry for the collection without a scan.
            let key: CandidateKey = (
                coll.0,
                kind_tag(kind),
                mode_tag,
                [x0.to_bits(), y0.to_bits(), x1.to_bits(), y1.to_bits()],
                d.epoch(coll),
            );
            if let Some((ids, pruned)) = ctx
                .caches
                .candidates
                .lock()
                .ok()
                .and_then(|c| c.get(&key).cloned())
            {
                // A hit is still an answered query — it just cost no
                // shard probe.
                ctx.metrics.queries.inc();
                ctx.metrics.candidate_cache_hits.inc();
                return Ok(format!(
                    "OK n={} pruned={pruned} ids={}",
                    ids.len(),
                    list_ids(&ids)
                ));
            }
            ctx.metrics.candidate_cache_misses.inc();
            let mut ids = Vec::new();
            let pruned = contain_backend_panic(|| d.query_collection(coll, kind, &q, &mut ids))?
                .shards_pruned;
            ctx.metrics.queries.inc();
            ids.sort_unstable();
            if let Ok(mut c) = ctx.caches.candidates.lock() {
                if c.len() >= CANDIDATE_CACHE_CAP {
                    c.clear();
                }
                c.insert(key, (ids.clone(), pruned));
            }
            // `n=` carries the true count; the listing is capped so a
            // broad query cannot blow the response line up to megabytes
            // (same shape as SOLVE's tuple cap).
            Ok(format!(
                "OK n={} pruned={pruned} ids={}",
                ids.len(),
                list_ids(&ids)
            ))
        }
        "SOLVE" => solve(db, ctx, &rest),
        "EXPLAIN" => explain(db, &rest),
        "SHARDS" => {
            let d = db.read().map_err(lock_poisoned)?;
            let live: Vec<String> = (0..d.n_shards())
                .map(|s| {
                    d.collections()
                        .map(|c| d.shard(s).live_len(c))
                        .sum::<usize>()
                        .to_string()
                })
                .collect();
            Ok(format!(
                "OK n={} live={} backend={}",
                d.n_shards(),
                live.join(","),
                d.backend(0).describe()
            ))
        }
        "STAT" => {
            let d = db.read().map_err(lock_poisoned)?;
            match rest[..] {
                [] => {
                    let live: usize = d.collections().map(|c| d.live_len(c)).sum();
                    let snap = ctx.metrics.snapshot();
                    let counter = |name: &str| snap.counter(name).unwrap_or(0);
                    Ok(format!(
                        "OK shards={} collections={} live={live} backend={} \
                         candidate_cache_hits={} candidate_cache_misses={} \
                         plan_cache_hits={} plan_cache_misses={}{} {}",
                        d.n_shards(),
                        d.collections().count(),
                        d.backend(0).describe(),
                        counter("serve.candidate_cache_hits"),
                        counter("serve.candidate_cache_misses"),
                        counter("serve.plan_cache_hits"),
                        counter("serve.plan_cache_misses"),
                        wal_rows(&d),
                        shard_health(&d)
                    ))
                }
                [name] => {
                    let coll = lookup(&d, name)?;
                    Ok(format!(
                        "OK len={} live={}",
                        d.collection_len(coll),
                        d.live_len(coll)
                    ))
                }
                _ => Err("usage: STAT [<coll>]".into()),
            }
        }
        "METRICS" => {
            let d = db.read().map_err(lock_poisoned)?;
            match rest[..] {
                [] => {
                    // The full scrape: the serve tier's own
                    // instruments, the router's routing/probe/transport
                    // instruments (per-shard client registries merged),
                    // and — in cluster mode — every shard process's
                    // registry fetched over the wire, labelled by
                    // shard. Shards that cannot answer (old wire
                    // version, in-process backend, dead primary) are
                    // simply absent from the scrape, never an error.
                    let mut text = ctx.metrics.snapshot().render(&[("tier", "serve")]);
                    let mut router = d.obs().snapshot();
                    for s in 0..d.n_shards() {
                        if let Some(cm) = d.backend(s).client_metrics() {
                            router.merge(&cm);
                        }
                    }
                    text.push_str(&router.render(&[("tier", "router")]));
                    for s in 0..d.n_shards() {
                        if let Some(m) = d.backend(s).metrics() {
                            let shard = s.to_string();
                            text.push_str(&m.render(&[("tier", "shard"), ("shard", &shard)]));
                        }
                    }
                    Ok(multiline(&text))
                }
                ["SHARD", s] => {
                    let s: usize = s.parse().map_err(|_| format!("bad shard index {s:?}"))?;
                    if s >= d.n_shards() {
                        return Err(format!("shard {s} out of range ({} shards)", d.n_shards()));
                    }
                    let m = d.backend(s).metrics().ok_or_else(|| {
                        format!("shard {s} has no process metrics (local backend or unreachable)")
                    })?;
                    let shard = s.to_string();
                    Ok(multiline(
                        &m.render(&[("tier", "shard"), ("shard", &shard)]),
                    ))
                }
                _ => Err("usage: METRICS [SHARD <i>]".into()),
            }
        }
        "TRACE" => {
            let [id] = rest[..] else {
                return Err("usage: TRACE <id>".into());
            };
            let id: u64 = id.parse().map_err(|_| format!("bad trace id {id:?}"))?;
            let trace = ctx
                .trace(id)
                .ok_or_else(|| format!("unknown trace {id} (never assigned or evicted)"))?;
            let lines = trace.render();
            Ok(format!(
                "OK trace={id} lines={}{}",
                lines.len(),
                lines.iter().map(|l| format!("\n{l}")).collect::<String>()
            ))
        }
        "RESYNC" => {
            // Catch lagging replicas up explicitly: each desynced
            // secondary is shipped its primary's snapshot. In-process
            // deployments have nothing to resync and report zero.
            let mut d = db.write().map_err(lock_poisoned)?;
            let resynced = d.resync_all().map_err(|e| e.to_string())?;
            Ok(format!("OK resynced={resynced}"))
        }
        "COMPACT" => {
            let mut d = db.write().map_err(lock_poisoned)?;
            let report = d.try_compact().map_err(|e| e.to_string())?;
            Ok(format!("OK reclaimed={}", report.slots_reclaimed))
        }
        "SNAPSHOT" => {
            let [action, dir] = rest[..] else {
                return Err("usage: SNAPSHOT <SAVE|LOAD> <dir>".into());
            };
            match action {
                "SAVE" => {
                    let d = db.read().map_err(lock_poisoned)?;
                    scq_shard::save_to_dir(&d, Path::new(dir)).map_err(|e| e.to_string())?;
                    Ok(format!("OK saved shards={}", d.n_shards()))
                }
                "LOAD" => {
                    // In-place restore: each shard backend (possibly a
                    // remote process) swallows its own stream. The
                    // snapshot's topology must match the server's —
                    // shard processes cannot be conjured mid-flight.
                    let mut d = db.write().map_err(lock_poisoned)?;
                    scq_shard::reload_from_dir(&mut d, Path::new(dir))
                        .map_err(|e| e.to_string())?;
                    Ok(format!("OK loaded collections={}", d.collections().count()))
                }
                other => Err(format!("unknown snapshot action {other:?}")),
            }
        }
        "LOAD" => {
            let [preset, seed, size] = rest[..] else {
                return Err("usage: LOAD map <seed> <roads>".into());
            };
            if preset != "map" {
                return Err(format!("unknown preset {preset:?}"));
            }
            let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
            let roads: usize = size.parse().map_err(|_| "bad road count")?;
            let mut d = db.write().map_err(lock_poisoned)?;
            load_map(&mut d, seed, roads)
        }
        _ => Err(format!("unknown command {verb:?}")),
    }
}

/// `SOLVE <kind> <max> <bindings> <system…>`: run a constraint query
/// against the sharded database through the engine executor.
fn solve<B: ShardBackend>(
    db: &Arc<RwLock<ShardedDatabase<B>>>,
    ctx: &ServeContext,
    rest: &[&str],
) -> Result<String, String> {
    let usage = "usage: SOLVE <rtree|grid|scan> <all|N> \
                 VAR=coll:<name>,VAR=box:<x0>:<y0>:<x1>:<y1>,… <system>";
    if rest.len() < 4 {
        return Err(usage.into());
    }
    let kind = parse_kind(rest[0])?;
    let options = exec_options(rest[1])?;
    let bindings_src = rest[2];
    let system_src = rest[3..].join(" ");
    let sys = parse_system(&system_src).map_err(|e| e.to_string())?;
    let d = db.read().map_err(lock_poisoned)?;
    let mut query = Query::new(sys);
    let colls = bind_query(&d, &mut query, bindings_src)?;
    let planned = selectivity_plan(&d, ctx, &query, kind, bindings_src, &system_src, &colls)?;
    query.order = Some(planned.order.clone());
    let result =
        contain_backend_panic(|| bbox_execute_compiled(&*d, &query, &planned.plan, kind, options))?
            .map_err(|e| e.to_string())?;
    ctx.metrics.queries.inc();
    let mut tuples: Vec<String> = result
        .solutions
        .iter()
        .map(|s| {
            s.iter()
                .map(|(v, o)| format!("{}={}", query.system.table.display(*v), o.index))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    tuples.sort();
    let shown = tuples.len().min(MAX_LISTED);
    let mut listing = tuples[..shown].join("|");
    if tuples.len() > shown {
        listing.push_str("|+more");
    }
    Ok(format!(
        "OK n={} pruned={} tuples={listing}",
        result.solutions.len(),
        result.stats.shards_pruned
    ))
}

/// Parses `VAR=coll:<name>,VAR=box:<x0>:<y0>:<x1>:<y1>,…` bindings
/// into `query`, returning the bound collections in binding order (the
/// epoch-key ingredient for the plan cache).
fn bind_query<B: ShardBackend>(
    d: &ShardedDatabase<B>,
    query: &mut Query<2>,
    bindings_src: &str,
) -> Result<Vec<CollectionId>, String> {
    let mut colls = Vec::new();
    for b in bindings_src.split(',') {
        let (var_name, spec) = b
            .split_once('=')
            .ok_or_else(|| format!("bad binding {b:?}"))?;
        let var = query
            .system
            .table
            .get(var_name)
            .ok_or_else(|| format!("variable {var_name:?} is not in the system"))?;
        if let Some(name) = spec.strip_prefix("coll:") {
            let coll = lookup(d, name)?;
            query.bindings.insert(var, VarBinding::Collection(coll));
            colls.push(coll);
        } else if let Some(coords) = spec.strip_prefix("box:") {
            let cs: Vec<&str> = coords.split(':').collect();
            let region = parse_region(&cs)?;
            query.bindings.insert(var, VarBinding::Known(region));
        } else {
            return Err(format!("bad binding spec {spec:?} (coll:… or box:…)"));
        }
    }
    Ok(colls)
}

/// The planner's order and compiled plan for `query`, from the plan
/// cache when it holds them. The key carries the bound collections'
/// mutation epochs: equal epochs guarantee identical contents, so a
/// cached plan is exactly what a fresh planning round would build —
/// and any effective write silently retires it.
fn selectivity_plan<B: ShardBackend>(
    d: &ShardedDatabase<B>,
    ctx: &ServeContext,
    query: &Query<2>,
    kind: IndexKind,
    bindings_src: &str,
    system_src: &str,
    colls: &[CollectionId],
) -> Result<CachedPlan, String> {
    let epochs: Vec<u64> = colls.iter().map(|&c| d.epoch(c)).collect();
    let key: PlanKey = (
        kind_tag(kind),
        bindings_src.to_string(),
        system_src.to_string(),
        epochs,
    );
    if let Some(hit) = ctx
        .caches
        .plans
        .lock()
        .ok()
        .and_then(|p| p.get(&key).cloned())
    {
        ctx.metrics.plan_cache_hits.inc();
        return Ok(hit);
    }
    ctx.metrics.plan_cache_misses.inc();
    let plan = contain_backend_panic(|| order_by_selectivity(d, query, kind))?
        .map_err(|e| e.to_string())?;
    let planned = Arc::new(plan);
    if let Ok(mut p) = ctx.caches.plans.lock() {
        if p.len() >= PLAN_CACHE_CAP {
            p.clear();
        }
        p.insert(key, planned.clone());
    }
    Ok(planned)
}

/// `EXPLAIN <kind> <bindings> <system…>`: report the planner's
/// per-unknown estimates and its estimated probes per level, the
/// retrieval order `SOLVE` would execute, and the compiled per-level
/// range query plan — without running the query.
/// The body is framed behind `OK lines=<n>` like `METRICS`.
fn explain<B: ShardBackend>(
    db: &Arc<RwLock<ShardedDatabase<B>>>,
    rest: &[&str],
) -> Result<String, String> {
    let usage = "usage: EXPLAIN <rtree|grid|scan> \
                 VAR=coll:<name>,VAR=box:<x0>:<y0>:<x1>:<y1>,… <system>";
    if rest.len() < 3 {
        return Err(usage.into());
    }
    let kind = parse_kind(rest[0])?;
    let bindings_src = rest[1];
    let system_src = rest[2..].join(" ");
    let sys = parse_system(&system_src).map_err(|e| e.to_string())?;
    let d = db.read().map_err(lock_poisoned)?;
    let mut query = Query::new(sys);
    bind_query(&d, &mut query, bindings_src)?;
    let plan = contain_backend_panic(|| order_by_selectivity(&*d, &query, kind))?
        .map_err(|e| e.to_string())?;
    let mut body = format!("plan=selectivity index={}", rest[0]);
    for est in &plan.estimates {
        body.push_str(&format!(
            "\nestimate {}: candidates={}",
            query.system.table.display(est.var),
            est.candidates
        ));
    }
    let levels: Vec<String> = plan
        .order
        .iter()
        .zip(&plan.probes)
        .map(|(&v, p)| format!("{}={p}", query.system.table.display(v)))
        .collect();
    body.push_str(&format!(
        "\ncost: probes {} total={} ascending_total={}",
        levels.join(" "),
        plan.probes.iter().sum::<u64>(),
        plan.ascending_probes
    ));
    query.order = Some(plan.order);
    let order = query.retrieval_order(&*d);
    body.push_str(&format!(
        "\norder: {}",
        order
            .iter()
            .map(|&v| query.system.table.display(v))
            .collect::<Vec<_>>()
            .join(" -> ")
    ));
    // Per-level view: knowns bind for free; each unknown names the
    // index its corner query will probe.
    for (level, &v) in order.iter().enumerate() {
        let name = query.system.table.display(v);
        match query.bindings.get(&v) {
            Some(VarBinding::Known(_)) => {
                body.push_str(&format!("\nlevel {level}: {name} known (no retrieval)"));
            }
            _ => {
                let est = plan
                    .estimates
                    .iter()
                    .find(|e| e.var == v)
                    .map(|e| e.candidates);
                body.push_str(&format!(
                    "\nlevel {level}: {name} index={} estimated_candidates={}",
                    rest[0],
                    est.map_or("?".to_string(), |c| c.to_string())
                ));
            }
        }
    }
    body.push('\n');
    // The compiled range-query plan (Algorithm 2's triangular rows) the
    // planner built for that order.
    body.push_str(plan.plan.explain(&query.system.table).trim_end());
    Ok(multiline(&body))
}

/// The cache-key byte for an index kind.
fn kind_tag(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::RTree => 0,
        IndexKind::GridFile => 1,
        IndexKind::Scan => 2,
    }
}

/// Renders a capped id listing (the `ids=` field of a `QUERY` answer).
fn list_ids(ids: &[u64]) -> String {
    let shown = ids.len().min(MAX_LISTED);
    let mut listing = ids[..shown]
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    if ids.len() > shown {
        listing.push_str(",+more");
    }
    listing
}

/// `LOAD map`: generate the GIS workload into a scratch single-store
/// database, then stream its live objects into the shared sharded one
/// (appending to `towns` / `roads` / `states`).
fn load_map<B: ShardBackend>(
    d: &mut ShardedDatabase<B>,
    seed: u64,
    roads: usize,
) -> Result<String, String> {
    let mut scratch = SpatialDatabase::new(*d.universe());
    let w = map_workload(
        &mut scratch,
        seed,
        &MapParams {
            n_states: 8,
            n_towns: roads / 4,
            n_roads: roads,
            useful_road_fraction: 0.08,
        },
    );
    let mut copied = [0usize; 3];
    for (i, (name, src)) in [("towns", w.towns), ("roads", w.roads), ("states", w.states)]
        .into_iter()
        .enumerate()
    {
        let dst = d.try_collection(name).map_err(|e| e.to_string())?;
        for index in scratch.live_indices(src).collect::<Vec<_>>() {
            let obj = ObjectRef {
                collection: src,
                index,
            };
            d.try_insert(dst, scratch.region(obj).clone())
                .map_err(|e| e.to_string())?;
            copied[i] += 1;
        }
    }
    Ok(format!(
        "OK towns={} roads={} states={}",
        copied[0], copied[1], copied[2]
    ))
}

/// Runs a read-path closure, converting a panic in it into an `ERR`
/// line. Reads answer from in-process copies of the shards, so no
/// transport failure reaches them, but a broken routing invariant still
/// panics by design (corruption must stay loud), and that panic must
/// cost the client its command, not the server one of its fixed-pool
/// worker threads.
fn contain_backend_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => {
            let reason = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("shard backend panicked");
            Err(format!("query failed: {reason}"))
        }
    }
}

fn lookup<B: ShardBackend>(db: &ShardedDatabase<B>, name: &str) -> Result<CollectionId, String> {
    db.collection_id(name)
        .ok_or_else(|| format!("unknown collection {name:?}"))
}

fn parse_kind(s: &str) -> Result<IndexKind, String> {
    match s {
        "rtree" => Ok(IndexKind::RTree),
        "grid" => Ok(IndexKind::GridFile),
        "scan" => Ok(IndexKind::Scan),
        other => Err(format!("unknown index kind {other:?} (rtree|grid|scan)")),
    }
}

fn parse_f64(s: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|_| format!("not a number: {s:?}"))?;
    if !v.is_finite() {
        return Err(format!("not finite: {s:?}"));
    }
    Ok(v)
}

fn parse_region(coords: &[&str]) -> Result<Region<2>, String> {
    if coords.len() == 1 && coords[0] == "empty" {
        return Ok(Region::empty());
    }
    let [x0, y0, x1, y1] = coords[..] else {
        return Err("expected <x0> <y0> <x1> <y1> or `empty`".into());
    };
    Ok(Region::from_box(AaBox::new(
        [parse_f64(x0)?, parse_f64(y0)?],
        [parse_f64(x1)?, parse_f64(y1)?],
    )))
}

fn object_ref<B: ShardBackend>(
    db: &ShardedDatabase<B>,
    coll: CollectionId,
    slot: &str,
) -> Result<ObjectRef, String> {
    let index: usize = slot.parse().map_err(|_| format!("bad slot {slot:?}"))?;
    if index >= db.collection_len(coll) {
        return Err(format!(
            "slot {index} out of range (collection has {} slots)",
            db.collection_len(coll)
        ));
    }
    Ok(ObjectRef {
        collection: coll,
        index,
    })
}

fn exec_options(max: &str) -> Result<ExecOptions, String> {
    if max == "all" {
        return Ok(ExecOptions::all());
    }
    let n: usize = max
        .parse()
        .map_err(|_| format!("bad max {max:?} (number or `all`)"))?;
    Ok(ExecOptions {
        max_solutions: Some(n),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_mode_parses_exactly_the_flag_values() {
        assert_eq!(PlanMode::parse("selectivity"), Ok(PlanMode::Selectivity));
        // There is no size planner: `--plan size` is refused by name.
        let err = PlanMode::parse("size").unwrap_err();
        assert!(err.contains("\"size\""), "{err}");
        assert!(PlanMode::parse("given").is_err());
        assert!(PlanMode::parse("cost").is_err());
    }

    /// `EXPLAIN` surfaces the planner's reasoning (estimates, chosen
    /// order, compiled per-level plan) without executing, and the
    /// candidate cache serves verbatim `QUERY` repeats until an
    /// effective write bumps the collection's mutation epoch.
    #[test]
    fn explain_and_candidate_cache_follow_the_mutation_epoch() {
        let universe = AaBox::new([0.0, 0.0], [100.0, 100.0]);
        let db = Arc::new(RwLock::new(ShardedDatabase::<scq_shard::LocalShard>::new(
            universe, 2,
        )));
        let ctx = ServeContext::new(None);
        let run = |line: &str| handle_command(&db, &ctx, line).0;
        assert!(run("CREATE towns").starts_with("OK"));
        assert!(run("CREATE roads").starts_with("OK"));
        run("INSERT towns 10 10 20 20");
        run("INSERT roads 5 5 50 50");
        run("INSERT roads 60 60 70 70");
        let explain =
            run("EXPLAIN rtree T=coll:towns,R=coll:roads,C=box:0:0:40:40 T <= C; R & T != 0");
        assert!(explain.starts_with("OK lines="), "{explain}");
        assert!(
            explain.contains("plan=selectivity index=rtree"),
            "{explain}"
        );
        assert!(explain.contains("estimate T: candidates="), "{explain}");
        assert!(explain.contains("estimate R: candidates="), "{explain}");
        assert!(explain.contains("order: C"), "knowns bind first: {explain}");
        assert!(
            explain.contains("retrieve"),
            "compiled plan body: {explain}"
        );

        // Identical probes at the same epoch: first misses, second is
        // served from the cache (identical answer, no shard probe).
        let q = "QUERY towns rtree within 0 0 40 40";
        let strip_trace = |r: String| r.split(" trace=").next().unwrap().to_string();
        let first = strip_trace(run(q));
        assert!(first.starts_with("OK n=1"), "{first}");
        assert_eq!(strip_trace(run(q)), first);
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.counter("serve.candidate_cache_hits"), Some(1));
        assert_eq!(snap.counter("serve.candidate_cache_misses"), Some(1));

        // An effective write bumps towns' epoch: the same probe misses
        // and answers fresh.
        run("INSERT towns 12 12 14 14");
        assert!(strip_trace(run(q)).starts_with("OK n=2"));
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.counter("serve.candidate_cache_hits"), Some(1));
        assert_eq!(snap.counter("serve.candidate_cache_misses"), Some(2));

        // SOLVE: a verbatim repeat reuses the cached plan; the write above already retired nothing (first
        // SOLVE plans fresh), so hits lag misses by exactly one.
        let s = "SOLVE rtree all T=coll:towns,R=coll:roads,C=box:0:0:40:40 T <= C; R & T != 0";
        let a = strip_trace(run(s));
        let b = strip_trace(run(s));
        assert_eq!(a, b, "cached plan yields the identical answer");
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.counter("serve.plan_cache_misses"), Some(1));
        assert_eq!(snap.counter("serve.plan_cache_hits"), Some(1));
    }

    /// `EXPLAIN` of the smuggler join on a loaded map shows the
    /// whole-order cost model's pick: `R` first, because `T`'s corner
    /// query reads `R` but not `B`, so the sibling cache serves `T`
    /// across every `B` of an `R`. The ascending-estimate order
    /// (`B -> R -> T`) is costed on the same line.
    #[test]
    fn explain_pins_the_smuggler_order_and_its_cost() {
        let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);
        let db = Arc::new(RwLock::new(ShardedDatabase::<scq_shard::LocalShard>::new(
            universe, 4,
        )));
        let ctx = ServeContext::new(None);
        let run = |line: &str| handle_command(&db, &ctx, line).0;
        assert!(run("LOAD map 1 1000").starts_with("OK"));
        // The map's destination area, as `LOAD map 1 1000` placed it.
        let w = map_workload(
            &mut SpatialDatabase::new(universe),
            1,
            &MapParams {
                n_states: 8,
                n_towns: 250,
                n_roads: 1000,
                useful_road_fraction: 0.08,
            },
        );
        let Bbox::Box { lo, hi } = w.area.bbox() else {
            panic!("the area is not empty")
        };
        let explain = run(&format!(
            "EXPLAIN rtree C=box:100:100:900:900,A=box:{}:{}:{}:{},T=coll:towns,R=coll:roads,\
             B=coll:states A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T < C",
            lo[0], lo[1], hi[0], hi[1]
        ));
        let lines: Vec<&str> = explain.lines().collect();
        assert!(
            lines.contains(&"cost: probes R=1 B=1 T=98 total=100 ascending_total=793"),
            "{explain}"
        );
        assert!(lines.contains(&"order: A -> C -> R -> B -> T"), "{explain}");
    }

    /// `SOLVE <kind> 0 …` asks for no solutions and gets none — also
    /// for a system with no unknowns, whose one solution is the empty
    /// tuple.
    #[test]
    fn a_zero_cap_solve_answers_nothing() {
        let universe = AaBox::new([0.0, 0.0], [100.0, 100.0]);
        let db = Arc::new(RwLock::new(ShardedDatabase::<scq_shard::LocalShard>::new(
            universe, 2,
        )));
        let ctx = ServeContext::new(None);
        let run = |line: &str| handle_command(&db, &ctx, line).0;
        run("CREATE towns");
        run("INSERT towns 10 10 20 20");
        let closed = "A=box:1:1:2:2,B=box:0:0:5:5 A <= B";
        assert!(run(&format!("SOLVE rtree all {closed}")).starts_with("OK n=1 "));
        assert!(run(&format!("SOLVE rtree 0 {closed}")).starts_with("OK n=0 "));
        let open = "T=coll:towns,C=box:0:0:40:40 T <= C";
        assert!(run(&format!("SOLVE rtree all {open}")).starts_with("OK n=1 "));
        assert!(run(&format!("SOLVE rtree 0 {open}")).starts_with("OK n=0 "));
    }

    /// `SOLVE` lists the `MAX_LISTED` least tuples in string order,
    /// then `+more` when it holds back any. Checked against a full sort
    /// of the known answer below, at and above the cap, with ids whose
    /// decimal lengths differ (`T=99` sorts after `T=100`).
    #[test]
    fn solve_lists_the_least_tuples_in_string_order() {
        let listing = |mut tuples: Vec<String>| {
            tuples.sort();
            let more = if tuples.len() > MAX_LISTED {
                "|+more"
            } else {
                ""
            };
            tuples.truncate(MAX_LISTED);
            format!("{}{more}", tuples.join("|"))
        };
        for n in [5usize, MAX_LISTED, MAX_LISTED + 1, 120] {
            let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);
            let db = Arc::new(RwLock::new(ShardedDatabase::<scq_shard::LocalShard>::new(
                universe, 2,
            )));
            let ctx = ServeContext::new(None);
            let run = |line: &str| handle_command(&db, &ctx, line).0;
            run("CREATE towns");
            run("CREATE roads");
            for i in 0..n {
                let x = (i % 30) as f64 * 30.0 + 5.0;
                let y = (i / 30) as f64 * 30.0 + 5.0;
                run(&format!("INSERT towns {x} {y} {} {}", x + 10.0, y + 10.0));
            }
            // Two roads, each crossing the first row of towns.
            run("INSERT roads 0 8 1000 9");
            run("INSERT roads 0 10 1000 11");

            let one = run("SOLVE rtree all T=coll:towns,C=box:0:0:1000:1000 T <= C");
            let expect = listing((0..n).map(|i| format!("T={i}")).collect());
            assert!(
                one.starts_with(&format!("OK n={n} pruned=0 tuples={expect}")),
                "{n}: {one}"
            );
            if n > 100 {
                assert!(one.contains("|T=100|") && !one.contains("T=99"), "{one}");
            }

            let row = n.min(30);
            let two = run("SOLVE rtree all T=coll:towns,R=coll:roads R & T != 0");
            let expect = listing(
                (0..row)
                    .flat_map(|i| (0..2).map(move |r| format!("R={r},T={i}")))
                    .collect(),
            );
            assert!(
                two.starts_with(&format!("OK n={} pruned=0 tuples={expect}", 2 * row)),
                "{n}: {two}"
            );
        }
    }

    /// Per-command latency histograms materialize lazily under
    /// `serve.<verb>.latency` and fold into the same registry scrape.
    #[test]
    fn command_latency_histograms_land_in_the_scrape() {
        let m = ServeMetrics::default();
        m.command_latency("QUERY").observe_us(120);
        m.command_latency("query").observe_us(80);
        let s = m.snapshot();
        let h = s
            .histogram("serve.query.latency")
            .expect("histogram exists");
        assert_eq!(h.count(), 2, "verb casing folds into one histogram");
    }
}
