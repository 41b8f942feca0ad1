//! The three executors: naive, triangular-exact, and bbox-filtered.
//!
//! All share one backtracking skeleton over the retrieval order; they
//! differ in how a level's candidates are produced and which pruning
//! runs before recursing:
//!
//! | executor | candidates | pruning |
//! |---|---|---|
//! | [`naive_execute`] | whole collection | none (full check at leaves) |
//! | [`triangular_execute`] | whole collection | corner query ⊓ exact-bound box prefilter, then exact solved row `Cᵢ` |
//! | [`bbox_execute`] | **index range query** | exact-bound box prefilter, then exact solved row `Cᵢ` |
//!
//! Because the triangular solved form is an *equivalence* for complete
//! assignments (Schröder and Boole rewrites are equivalences, and
//! projected residues are implied by the lower rows), checking every row
//! exactly equals checking the original system — the executors return
//! identical solution sets, which the tests assert.
//!
//! # The zero-clone core
//!
//! The inner loop binds `&Region` straight out of the database into a
//! slot-based [`FlatAssignment`] — no `Region` clone, no `BTreeMap`
//! rebalancing. A level's solved row is evaluated once per prefix
//! ([`scq_core::SolvedRow::bind_prefix`], borrowing its variable leaves)
//! and each candidate is tested against the bound row with
//! allocation-free subset and overlap predicates
//! ([`scq_core::RowBounds::admits`]). Candidate vectors are reused
//! across the whole search via a per-level buffer pool ([`LevelBuf`]),
//! so a steady-state query performs no allocations per candidate.
//! Before each exact row check, a cheap
//! **exact-bound box prefilter** tests the candidate's precomputed
//! bounding box against the boxes of the level's bound `s` and `t`
//! (`⌈s⌉ ⊑ ⌈x⌉ ⊑ ⌈t⌉`, necessary for `s ≤ x ≤ t`). Those boxes come
//! from the regions the prefix is bound to, so they are never looser
//! than Algorithm 2's `L_s` and `U_t` and are tighter whenever a bound
//! complements a prefix variable — a lower bound like `R·¬A·¬B` has no
//! box function, but it has a box once `R`, `A` and `B` are bound.
//! Candidates that cannot satisfy the row are rejected without touching
//! `RegionAlgebra`. The index already answered the corner query, so it
//! is not tested again; a scan meets it with the prefilter. Empty-bbox
//! candidates always proceed to the exact check, since an empty region
//! can satisfy a row while its (empty) box matches no query.
//!
//! [`bbox_execute_opts`] compiles the plan and runs it;
//! [`bbox_execute_compiled`] runs a plan compiled beforehand (the
//! planner's, or one the serve tier cached). Both run the same search.

use std::collections::BTreeMap;

use scq_algebra::eval::UnboundVar;
use scq_algebra::FlatAssignment;
use scq_bbox::{Bbox, CornerQuery};
use scq_boolean::Var;
use scq_core::plan::{BboxPlan, CompiledRow};
use scq_core::{check_system_in, triangularize, RowBounds, TriangularSystem};
use scq_region::{Region, RegionAlgebra};

use crate::database::{CollectionId, ObjectRef};
use crate::query::{IndexKind, Query};
use crate::stats::{ExecStats, Timings};
use crate::view::StoreView;

/// One solution: an object per unknown variable.
pub type Solution = BTreeMap<Var, ObjectRef>;

/// Whether a query's answer set is known to be complete.
///
/// A store whose shards live in other processes can lose a shard
/// mid-query. The executors do not abort: they keep searching over the
/// candidates that did arrive and report the degradation here, so a
/// caller can distinguish "no matches" (`Complete`, empty solutions)
/// from "shard 3 was down" (`Partial`). A single-store execution is
/// always `Complete`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Every probed shard answered: the solution set is exact.
    #[default]
    Complete,
    /// At least one shard was unavailable: the solutions are a correct
    /// **subset** of the true answer (everything returned is a real
    /// solution; solutions involving the missing shards' objects may be
    /// absent).
    Partial {
        /// The shards that failed to answer, ascending, deduplicated.
        missing_shards: Vec<usize>,
    },
}

impl QueryOutcome {
    /// Builds an outcome from the union of missing shards seen during
    /// an execution (sorted and deduplicated here).
    pub fn from_missing(mut missing: Vec<usize>) -> QueryOutcome {
        if missing.is_empty() {
            return QueryOutcome::Complete;
        }
        missing.sort_unstable();
        missing.dedup();
        QueryOutcome::Partial {
            missing_shards: missing,
        }
    }

    /// Whether the answer set may be missing solutions.
    pub fn is_partial(&self) -> bool {
        matches!(self, QueryOutcome::Partial { .. })
    }

    /// The missing shards (empty when complete).
    pub fn missing_shards(&self) -> &[usize] {
        match self {
            QueryOutcome::Complete => &[],
            QueryOutcome::Partial { missing_shards } => missing_shards,
        }
    }
}

/// Result of executing a query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// All solutions, in retrieval (depth-first) order.
    pub solutions: Vec<Solution>,
    /// Work counters.
    pub stats: ExecStats,
    /// Whether the solution set is exact or degraded by unavailable
    /// shards.
    pub outcome: QueryOutcome,
}

/// Errors surfaced by the executors.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// The query failed validation (unbound variables, bad order…).
    InvalidQuery(String),
    /// Internal evaluation hit an unbound variable — indicates a planner
    /// bug, surfaced rather than panicking.
    Unbound(Var),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            ExecError::Unbound(v) => write!(f, "internal error: unbound variable {v}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<UnboundVar> for ExecError {
    fn from(e: UnboundVar) -> Self {
        ExecError::Unbound(e.0)
    }
}

/// Tuning knobs shared by all executors.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Stop after this many solutions (existence queries set it to 1).
    /// `None` enumerates everything.
    pub max_solutions: Option<usize>,
}

impl ExecOptions {
    /// Enumerate every solution (the default).
    pub fn all() -> Self {
        ExecOptions {
            max_solutions: None,
        }
    }

    /// Stop at the first solution — "does a smuggling route exist?".
    pub fn first() -> Self {
        ExecOptions {
            max_solutions: Some(1),
        }
    }
}

// ── search machinery ────────────────────────────────────────────────────

/// A query validated and decomposed for execution: retrieval order,
/// clamped known regions (the arena the search borrows from), unknowns
/// in retrieval order, and the slot count for flat assignments.
struct PreparedQuery<const K: usize> {
    order: Vec<Var>,
    knowns: Vec<(Var, Region<K>)>,
    unknowns: Vec<(Var, CollectionId)>,
    max_var: usize,
}

fn prepare<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
) -> Result<PreparedQuery<K>, ExecError> {
    query.validate().map_err(ExecError::InvalidQuery)?;
    let order = query.retrieval_order(db);
    let alg = db.algebra();
    let knowns: Vec<(Var, Region<K>)> = query
        .known_vars()
        .into_iter()
        .map(|(v, r)| (v, alg.clamp(r)))
        .collect();
    let unknown_positions: BTreeMap<Var, CollectionId> = query.unknown_vars().into_iter().collect();
    let unknowns: Vec<(Var, CollectionId)> = order
        .iter()
        .filter_map(|v| unknown_positions.get(v).map(|&c| (*v, c)))
        .collect();
    let max_var = order
        .iter()
        .map(|v| v.index())
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    Ok(PreparedQuery {
        order,
        knowns,
        unknowns,
        max_var,
    })
}

/// Reusable per-level candidate buffers: the backtracking search at
/// level `i` always and only uses `LevelBufs[i]`, so one pool amortizes
/// every candidate allocation across the whole search.
struct LevelBuf<const K: usize> {
    /// Raw ids from the index range query.
    ids: Vec<u64>,
    /// Candidate object indices for the level (ids + empty objects, or
    /// the whole collection).
    candidates: Vec<usize>,
    /// Sibling corner-query cache tag: the `(corner query, collection
    /// mutation epoch)` whose **complete** probe answer `ids` currently
    /// holds. When the next gather at this level computes an equal
    /// query against an unchanged epoch — the prefix boxes feeding
    /// `row.corner_query` did not move since the previous sibling — the
    /// range query is skipped and `ids` reused; candidates are rebuilt
    /// identically either way, so only the probe is saved.
    cached: Option<(CornerQuery<K>, u64)>,
}

fn level_bufs<const K: usize>(n: usize) -> Vec<LevelBuf<K>> {
    (0..n)
        .map(|_| LevelBuf {
            ids: Vec::new(),
            candidates: Vec::new(),
            cached: None,
        })
        .collect()
}

/// Folds one probe's [`ProbeReport`] into the running stats and the
/// execution's union of missing shards. The single aggregation point
/// for availability accounting — the executors and the planner both go
/// through it.
pub(crate) fn note_probe(
    report: crate::view::ProbeReport,
    stats: &mut ExecStats,
    missing: &mut Vec<usize>,
) {
    stats.shards_pruned += report.shards_pruned;
    stats.retries += report.retries;
    stats.failovers += report.failovers;
    stats.stale_answers += report.stale_shards.len();
    stats.shards_unavailable += report.missing_shards.len();
    stats.route_us = stats.route_us.saturating_add(report.route_us);
    // `missing` is kept sorted and deduplicated (it only ever grows
    // through this function), so the union is a binary-search insert
    // per element instead of a quadratic `contains` scan — wide
    // fan-outs with many failed shards stay linear-ish.
    for s in report.missing_shards {
        if let Err(pos) = missing.binary_search(&s) {
            missing.insert(pos, s);
        }
    }
}

/// Fills `buf.candidates` for one retrieval level and returns the
/// level's corner query (a scan's candidates are filtered by it). This is the
/// level's one range query; the caller then evaluates the level's solved
/// row once ([`bind_level`]) if any candidate came back.
///
/// With an index, candidates come from the corner-transform range query
/// plus the collection's empty-region objects (which no corner query
/// can return but which may satisfy the row); tombstoned slots never
/// appear, because mutations maintain the indexes eagerly. Without one,
/// the live slots of the collection are enumerated and skipped
/// tombstones are counted in [`ExecStats::tombstones_skipped`]. Either
/// way the buffers are recycled — no allocation once the pool has
/// warmed up.
///
/// A shard that fails to answer the probe costs its candidates, not the
/// query: the failure is recorded (`stats.shards_unavailable`,
/// `missing`) and the search continues over what arrived.
///
/// Consecutive gathers at the same level whose corner query is equal
/// (the prefix boxes it reads were unchanged since the previous
/// sibling) and whose collection epoch has not moved skip the range
/// query and reuse the buffered ids — the **sibling corner-query
/// cache** (`ExecStats::{corner_cache_hits, corner_cache_misses}`).
/// Only *complete* probe answers are cached; a degraded probe is
/// re-issued every time so a recovering shard is seen immediately.
#[allow(clippy::too_many_arguments)]
fn gather_candidates<const K: usize, V: StoreView<K>>(
    db: &V,
    coll: CollectionId,
    kind: Option<IndexKind>,
    row: &CompiledRow<K>,
    boxes: &[Bbox<K>],
    buf: &mut LevelBuf<K>,
    stats: &mut ExecStats,
    timings: &mut Timings,
    missing: &mut Vec<usize>,
) -> CornerQuery<K> {
    let lookup = |i: usize| boxes.get(i).copied().unwrap_or(Bbox::Empty);
    let q = row.corner_query(lookup);
    buf.candidates.clear();
    match kind {
        Some(k) => {
            if q.is_unsatisfiable() {
                // No probe to reuse: an unsatisfiable query has no ids.
                buf.ids.clear();
                buf.cached = None;
            } else if buf.cached.as_ref() == Some(&(q, db.epoch(coll))) {
                stats.corner_cache_hits += 1;
            } else {
                stats.corner_cache_misses += 1;
                buf.ids.clear();
                buf.cached = None;
                let probe_start = std::time::Instant::now();
                let report = db.query_collection(coll, k, &q, &mut buf.ids);
                timings.probe(probe_start);
                if report.is_complete() {
                    buf.cached = Some((q, db.epoch(coll)));
                }
                note_probe(report, stats, missing);
            }
            buf.candidates.extend(buf.ids.iter().map(|&id| id as usize));
            buf.candidates.extend_from_slice(db.empty_objects(coll));
        }
        None => {
            buf.ids.clear();
            buf.cached = None;
            db.live_indices_into(coll, &mut buf.candidates);
            stats.tombstones_skipped += db.collection_len(coll) - buf.candidates.len();
        }
    }
    q
}

/// Considers one candidate: counts it, applies the level's exact-bound
/// box prefilter ([`RowBounds::box_query`]), and on survival tests the
/// region, read **by reference**, against the level's bound row — three
/// allocation-free predicates per bound, the bounds themselves
/// evaluated once per level ([`bind_level`]).
///
/// Returns the candidate's bounding box when accepted, with the region
/// bound to `var` — the caller recurses, then unbinds. On rejection the
/// assignment is left unchanged.
#[allow(clippy::too_many_arguments)]
fn try_candidate<'e, const K: usize, V: StoreView<K>>(
    db: &'e V,
    alg: &RegionAlgebra<K>,
    bounds: &RowBounds<'_, Region<K>>,
    filter: &CornerQuery<K>,
    var: Var,
    obj: ObjectRef,
    assign: &mut FlatAssignment<'e, Region<K>>,
    stats: &mut ExecStats,
    timings: &mut Timings,
) -> Option<Bbox<K>> {
    debug_assert!(db.is_live(obj), "candidate generation leaked a tombstone");
    stats.partial_tuples += 1;
    let bb = db.bbox(obj);
    // The filter is a necessary condition for the exact row, so a
    // non-matching bbox rejects without region algebra. Empty boxes are
    // exempt: empty regions never match corner queries yet can satisfy
    // rows.
    if !bb.is_empty() && !filter.matches(&bb) {
        stats.bbox_prefilter_rejections += 1;
        return None;
    }
    let region = db.region(obj);
    stats.regions_bound += 1;
    stats.exact_row_checks += 1;
    let check_start = std::time::Instant::now();
    let admitted = bounds.admits(alg, region);
    timings.check(check_start);
    if admitted {
        assign.bind(var, region);
        Some(bb)
    } else {
        stats.row_rejections += 1;
        None
    }
}

/// Evaluates `row`'s bounds once for the prefix bound in `prefix`, the
/// part of the exact check every candidate of the level shares; its time
/// counts as check time.
fn bind_level<'a, const K: usize>(
    alg: &RegionAlgebra<K>,
    row: &CompiledRow<K>,
    prefix: &'a FlatAssignment<'_, Region<K>>,
    timings: &mut Timings,
) -> Result<RowBounds<'a, Region<K>>, ExecError> {
    let start = std::time::Instant::now();
    let bounds = row.exact.bind_prefix(alg, prefix)?;
    timings.check(start);
    Ok(bounds)
}

/// Binds the known variables by reference into a fresh flat assignment
/// and box table, then validates their solved rows (the paper's
/// integrity check on query inputs). Returns `None` when a known row
/// fails — the query has no solutions.
#[allow(clippy::type_complexity)]
fn bind_knowns<'e, const K: usize>(
    alg: &RegionAlgebra<K>,
    plan: &BboxPlan<K>,
    knowns: &'e [(Var, Region<K>)],
    max_var: usize,
    stats: &mut ExecStats,
) -> Result<Option<(FlatAssignment<'e, Region<K>>, Vec<Bbox<K>>)>, ExecError> {
    let mut assign: FlatAssignment<'e, Region<K>> = FlatAssignment::with_capacity(max_var);
    let mut boxes: Vec<Bbox<K>> = vec![Bbox::Empty; max_var];
    for (v, r) in knowns {
        assign.bind(*v, r);
        boxes[v.index()] = r.bbox();
    }
    if check_known_rows(alg, plan, knowns, &assign, stats)? {
        Ok(Some((assign, boxes)))
    } else {
        Ok(None)
    }
}

/// Validates the solved rows of the known variables. Returns `false`
/// when a row fails, in which case the query has no solutions.
fn check_known_rows<const K: usize>(
    alg: &RegionAlgebra<K>,
    plan: &BboxPlan<K>,
    knowns: &[(Var, Region<K>)],
    assign: &FlatAssignment<'_, Region<K>>,
    stats: &mut ExecStats,
) -> Result<bool, ExecError> {
    for &(v, _) in knowns {
        if let Some(row) = plan.row_for(v) {
            stats.exact_row_checks += 1;
            if !row.exact.check_in(alg, assign)? {
                stats.row_rejections += 1;
                return Ok(false);
            }
        }
    }
    Ok(true)
}

// ── sequential executors ────────────────────────────────────────────────

/// Shared execution context.
struct Ctx<'e, const K: usize, V: StoreView<K>> {
    db: &'e V,
    alg: RegionAlgebra<K>,
    unknowns: Vec<(Var, CollectionId)>, // in retrieval order
    stats: ExecStats,
    timings: Timings,
    solutions: Vec<Solution>,
    options: ExecOptions,
    /// Union of shards that failed to answer a probe (degraded read).
    missing: Vec<usize>,
}

impl<const K: usize, V: StoreView<K>> Ctx<'_, K, V> {
    fn done(&self) -> bool {
        self.options
            .max_solutions
            .is_some_and(|max| self.solutions.len() >= max)
    }
}

/// Cross product + full constraint check at the leaves: what a system
/// without the optimizer must do, and the tests' reference answer.
pub fn naive_execute<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
) -> Result<QueryResult, ExecError> {
    naive_execute_opts(db, query, ExecOptions::all())
}

/// [`naive_execute`] with tuning options.
pub fn naive_execute_opts<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
    options: ExecOptions,
) -> Result<QueryResult, ExecError> {
    let started = std::time::Instant::now();
    let prep = prepare(db, query)?;
    let mut assign: FlatAssignment<'_, Region<K>> = FlatAssignment::with_capacity(prep.max_var);
    for (v, r) in &prep.knowns {
        assign.bind(*v, r);
    }
    let mut ctx = Ctx {
        db,
        alg: db.algebra(),
        unknowns: prep.unknowns,
        stats: ExecStats::default(),
        timings: Timings::default(),
        solutions: Vec::new(),
        options,
        missing: Vec::new(),
    };
    let mut tuple = BTreeMap::new();
    naive_rec(&mut ctx, query, 0, &mut assign, &mut tuple)?;
    ctx.stats.total_us = crate::stats::elapsed_us(started);
    Ok(QueryResult {
        solutions: ctx.solutions,
        stats: ctx.stats,
        outcome: QueryOutcome::from_missing(ctx.missing),
    })
}

fn naive_rec<'e, const K: usize, V: StoreView<K>>(
    ctx: &mut Ctx<'e, K, V>,
    query: &Query<K>,
    level: usize,
    assign: &mut FlatAssignment<'e, Region<K>>,
    tuple: &mut Solution,
) -> Result<(), ExecError> {
    if ctx.done() {
        return Ok(()); // a cap of 0 stops before the first tuple
    }
    if level == ctx.unknowns.len() {
        ctx.stats.full_system_checks += 1;
        if check_system_in(&ctx.alg, &query.system.constraints, assign)? {
            ctx.stats.solutions += 1;
            ctx.solutions.push(tuple.clone());
        }
        return Ok(());
    }
    let (var, coll) = ctx.unknowns[level];
    for index in 0..ctx.db.collection_len(coll) {
        if ctx.done() {
            return Ok(());
        }
        let obj = ObjectRef {
            collection: coll,
            index,
        };
        if !ctx.db.is_live(obj) {
            ctx.stats.tombstones_skipped += 1;
            continue;
        }
        ctx.stats.partial_tuples += 1;
        ctx.stats.index_candidates += 1;
        assign.bind(var, ctx.db.region(obj));
        ctx.stats.regions_bound += 1;
        tuple.insert(var, obj);
        naive_rec(ctx, query, level + 1, assign, tuple)?;
        tuple.remove(&var);
        assign.unbind(var);
    }
    Ok(())
}

/// Prepares the triangular system for a query (shared by the two
/// optimized executors and exposed for benchmarks that want to time
/// compilation separately).
pub fn compile_triangular<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
) -> Result<TriangularSystem, ExecError> {
    let prep = prepare(db, query)?;
    let normal = query.system.normalize();
    Ok(triangularize(&normal, &prep.order))
}

/// Early pruning with exact solved rows, candidates from full collection
/// scans (no spatial index). Isolates the benefit of the triangular form
/// from the benefit of range queries (the bbox prefilter still applies,
/// so the ablation measures the index's *retrieval* savings).
pub fn triangular_execute<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
) -> Result<QueryResult, ExecError> {
    run_optimized(db, query, None, ExecOptions::all())
}

/// [`triangular_execute`] with tuning options.
pub fn triangular_execute_opts<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
    options: ExecOptions,
) -> Result<QueryResult, ExecError> {
    run_optimized(db, query, None, options)
}

/// The paper's full pipeline: per-level corner-transform range query
/// against the chosen index, then exact row verification.
pub fn bbox_execute<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
    kind: IndexKind,
) -> Result<QueryResult, ExecError> {
    run_optimized(db, query, Some(kind), ExecOptions::all())
}

/// [`bbox_execute`] with tuning options.
pub fn bbox_execute_opts<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
    kind: IndexKind,
    options: ExecOptions,
) -> Result<QueryResult, ExecError> {
    run_optimized(db, query, Some(kind), options)
}

/// [`bbox_execute_opts`] over a plan compiled beforehand: the
/// selectivity planner's ([`crate::SelectivityPlan::plan`]) or a cached
/// one. `plan` must be compiled for the query's retrieval order — the
/// order [`compile_triangular`] would triangularize — or the query is
/// refused as invalid.
pub fn bbox_execute_compiled<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
    plan: &BboxPlan<K>,
    kind: IndexKind,
    options: ExecOptions,
) -> Result<QueryResult, ExecError> {
    let started = std::time::Instant::now();
    let prep = prepare(db, query)?;
    if plan.order != prep.order {
        return Err(ExecError::InvalidQuery(
            "the compiled plan is for another retrieval order".into(),
        ));
    }
    run_plan(db, prep, plan, Some(kind), options, started)
}

fn run_optimized<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
    kind: Option<IndexKind>,
    options: ExecOptions,
) -> Result<QueryResult, ExecError> {
    let started = std::time::Instant::now();
    let prep = prepare(db, query)?;
    let plan = BboxPlan::compile(&triangularize(&query.system.normalize(), &prep.order));
    run_plan(db, prep, &plan, kind, options, started)
}

/// The search itself, over a compiled plan; `started` is when the
/// caller began (its total time includes compiling, when it compiled).
fn run_plan<const K: usize, V: StoreView<K>>(
    db: &V,
    prep: PreparedQuery<K>,
    plan: &BboxPlan<K>,
    kind: Option<IndexKind>,
    options: ExecOptions,
    started: std::time::Instant,
) -> Result<QueryResult, ExecError> {
    let alg = db.algebra();
    let mut stats = ExecStats::default();
    let empty = |mut stats: ExecStats| {
        stats.total_us = crate::stats::elapsed_us(started);
        QueryResult {
            solutions: Vec::new(),
            stats,
            outcome: QueryOutcome::Complete,
        }
    };
    if !plan.satisfiable {
        return Ok(empty(stats));
    }
    let Some((mut assign, mut boxes)) =
        bind_knowns(&alg, plan, &prep.knowns, prep.max_var, &mut stats)?
    else {
        return Ok(empty(stats));
    };
    let mut ctx = Ctx {
        db,
        alg,
        unknowns: prep.unknowns,
        stats,
        timings: Timings::default(),
        solutions: Vec::new(),
        options,
        missing: Vec::new(),
    };
    let mut tuple = BTreeMap::new();
    let mut bufs = level_bufs(ctx.unknowns.len());
    opt_rec(
        &mut ctx,
        plan,
        kind,
        0,
        &mut assign,
        &mut boxes,
        &mut tuple,
        &mut bufs,
    )?;
    ctx.timings.fold_into(&mut ctx.stats);
    ctx.stats.total_us = crate::stats::elapsed_us(started);
    Ok(QueryResult {
        solutions: ctx.solutions,
        stats: ctx.stats,
        outcome: QueryOutcome::from_missing(ctx.missing),
    })
}

#[allow(clippy::too_many_arguments)]
fn opt_rec<'e, const K: usize, V: StoreView<K>>(
    ctx: &mut Ctx<'e, K, V>,
    plan: &BboxPlan<K>,
    kind: Option<IndexKind>,
    level: usize,
    assign: &mut FlatAssignment<'e, Region<K>>,
    boxes: &mut [Bbox<K>],
    tuple: &mut Solution,
    bufs: &mut [LevelBuf<K>],
) -> Result<(), ExecError> {
    if ctx.done() {
        return Ok(()); // a cap of 0 stops before the first probe
    }
    if level == ctx.unknowns.len() {
        ctx.stats.solutions += 1;
        ctx.solutions.push(tuple.clone());
        return Ok(());
    }
    let (var, coll) = ctx.unknowns[level];
    let row = plan.row_for(var).expect("plan has a row per variable");
    let (buf, rest) = bufs.split_first_mut().expect("buffer per level");
    let q = gather_candidates(
        ctx.db,
        coll,
        kind,
        row,
        boxes,
        buf,
        &mut ctx.stats,
        &mut ctx.timings,
        &mut ctx.missing,
    );
    ctx.stats.index_candidates += buf.candidates.len();
    if buf.candidates.is_empty() {
        return Ok(());
    }
    // The bounds borrow from a snapshot of the prefix, so the candidate
    // loop stays free to bind and unbind `var` in `assign`.
    let prefix = assign.clone();
    let bounds = bind_level(&ctx.alg, row, &prefix, &mut ctx.timings)?;
    // The prefilter: the boxes of the exact bounds. An index already
    // answered the corner query `q`; a scan has not, so they narrow it.
    let within = if kind.is_some() {
        CornerQuery::unconstrained()
    } else {
        q
    };
    let filter = bounds.box_query(within, Region::bbox);

    for &index in &buf.candidates {
        if ctx.done() {
            return Ok(());
        }
        let obj = ObjectRef {
            collection: coll,
            index,
        };
        if let Some(bb) = try_candidate(
            ctx.db,
            &ctx.alg,
            &bounds,
            &filter,
            var,
            obj,
            assign,
            &mut ctx.stats,
            &mut ctx.timings,
        ) {
            boxes[var.index()] = bb;
            tuple.insert(var, obj);
            opt_rec(ctx, plan, kind, level + 1, assign, boxes, tuple, rest)?;
            tuple.remove(&var);
            boxes[var.index()] = Bbox::Empty;
            assign.unbind(var);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SpatialDatabase;
    use crate::query::VarBinding;
    use scq_core::parse_system;
    use scq_region::AaBox;

    /// A miniature smuggler scenario with known ground truth.
    fn smuggler_db() -> (SpatialDatabase<2>, Query<2>) {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
        let towns = db.collection("towns");
        let roads = db.collection("roads");
        let states = db.collection("states");

        // country: [10,90]²; border band is near x=10
        let country = Region::from_box(AaBox::new([10.0, 10.0], [90.0, 90.0]));
        // destination area A deep inside
        let area = Region::from_box(AaBox::new([60.0, 40.0], [70.0, 50.0]));

        // towns: two on the border strip, one outside the country
        db.insert(
            towns,
            Region::from_box(AaBox::new([10.0, 42.0], [14.0, 46.0])),
        ); // t0 ok
        db.insert(
            towns,
            Region::from_box(AaBox::new([10.0, 70.0], [14.0, 74.0])),
        ); // t1 wrong row
        db.insert(towns, Region::from_box(AaBox::new([0.0, 0.0], [5.0, 5.0]))); // t2 outside C

        // states: horizontal bands of the country
        db.insert(
            states,
            Region::from_box(AaBox::new([10.0, 10.0], [90.0, 55.0])),
        ); // s0 contains corridor
        db.insert(
            states,
            Region::from_box(AaBox::new([10.0, 55.0], [90.0, 90.0])),
        ); // s1 north

        // roads: r0 connects t0 to A inside s0; r1 connects t1 heading
        // south crossing both states; r2 unrelated
        db.insert(
            roads,
            Region::from_box(AaBox::new([12.0, 43.0], [65.0, 45.0])),
        ); // r0 good
        db.insert(
            roads,
            Region::from_box(AaBox::new([12.0, 45.0], [14.0, 72.0])),
        ); // r1 crosses bands, touches A? no
        db.insert(
            roads,
            Region::from_box(AaBox::new([20.0, 80.0], [80.0, 82.0])),
        ); // r2

        let sys =
            parse_system("A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T < C").unwrap();
        let q = Query::new(sys)
            .known("C", country)
            .known("A", area)
            .from_collection("T", towns)
            .from_collection("R", roads)
            .from_collection("B", states)
            .with_order(&["T", "R", "B"]);
        (db, q)
    }

    fn solution_names(db: &SpatialDatabase<2>, q: &Query<2>, r: &QueryResult) -> Vec<String> {
        let _ = db;
        let mut out: Vec<String> = r
            .solutions
            .iter()
            .map(|s| {
                s.iter()
                    .map(|(v, o)| format!("{}={}", q.system.table.display(*v), o.index))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn executors_agree_on_smuggler() {
        let (db, q) = smuggler_db();
        let naive = naive_execute(&db, &q).unwrap();
        let tri = triangular_execute(&db, &q).unwrap();
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let bbox = bbox_execute(&db, &q, kind).unwrap();
            assert_eq!(
                solution_names(&db, &q, &naive),
                solution_names(&db, &q, &bbox),
                "bbox({kind:?}) differs from naive"
            );
        }
        assert_eq!(
            solution_names(&db, &q, &naive),
            solution_names(&db, &q, &tri)
        );
        // Ground truth: t0 with r0 entirely within s0 (and the corridor
        // road overlaps both the town and the area).
        let names = solution_names(&db, &q, &naive);
        assert!(!names.is_empty(), "the smuggler has a route");
        assert!(
            names.iter().all(|s| s.contains("T=0")),
            "only t0 works: {names:?}"
        );
    }

    #[test]
    fn optimizer_prunes_work() {
        let (db, q) = smuggler_db();
        let naive = naive_execute(&db, &q).unwrap();
        let bbox = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        assert!(
            bbox.stats.partial_tuples < naive.stats.partial_tuples,
            "range queries + row pruning must reduce the search tree: {} vs {}",
            bbox.stats.partial_tuples,
            naive.stats.partial_tuples
        );
        assert_eq!(
            bbox.stats.full_system_checks, 0,
            "no leaf-level full checks needed"
        );
    }

    #[test]
    fn unsatisfiable_inputs_yield_no_solutions() {
        let (db, mut q) = smuggler_db();
        // Destination area outside the country: A ≤ C fails.
        let outside = Region::from_box(AaBox::new([95.0, 95.0], [99.0, 99.0]));
        let v = q.system.table.get("A").unwrap();
        q.bindings.insert(v, VarBinding::Known(outside));
        let r = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        assert!(r.solutions.is_empty());
        let n = naive_execute(&db, &q).unwrap();
        assert!(n.solutions.is_empty());
    }

    #[test]
    fn empty_region_objects_are_handled() {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [10.0, 10.0]));
        let xs = db.collection("xs");
        db.insert(xs, Region::empty());
        db.insert(xs, Region::from_box(AaBox::new([1.0, 1.0], [2.0, 2.0])));
        // X ≤ A with A known: the empty region satisfies it.
        let sys = parse_system("X <= A").unwrap();
        let q = Query::new(sys)
            .known("A", Region::from_box(AaBox::new([0.0, 0.0], [5.0, 5.0])))
            .from_collection("X", xs);
        let naive = naive_execute(&db, &q).unwrap();
        let bbox = bbox_execute(&db, &q, IndexKind::GridFile).unwrap();
        assert_eq!(naive.solutions.len(), 2, "both objects qualify");
        assert_eq!(
            bbox.solutions.len(),
            2,
            "empty-region object must not be lost"
        );
    }

    #[test]
    fn nonempty_constraint_excludes_empty_objects() {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [10.0, 10.0]));
        let xs = db.collection("xs");
        db.insert(xs, Region::empty());
        db.insert(xs, Region::from_box(AaBox::new([1.0, 1.0], [2.0, 2.0])));
        let sys = parse_system("X <= A; X != 0").unwrap();
        let q = Query::new(sys)
            .known("A", Region::from_box(AaBox::new([0.0, 0.0], [5.0, 5.0])))
            .from_collection("X", xs);
        for r in [
            naive_execute(&db, &q).unwrap(),
            triangular_execute(&db, &q).unwrap(),
            bbox_execute(&db, &q, IndexKind::RTree).unwrap(),
        ] {
            assert_eq!(r.solutions.len(), 1);
            assert_eq!(r.solutions[0].values().next().unwrap().index, 1);
        }
    }

    /// A database where the overlay query has many solutions.
    fn overlay_db() -> (SpatialDatabase<2>, Query<2>) {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
        let xs = db.collection("xs");
        let ys = db.collection("ys");
        for i in 0..10 {
            let t = i as f64 * 8.0;
            db.insert(xs, Region::from_box(AaBox::new([t, 0.0], [t + 10.0, 50.0])));
            db.insert(
                ys,
                Region::from_box(AaBox::new([t + 4.0, 10.0], [t + 12.0, 40.0])),
            );
        }
        let sys = parse_system("X & Y != 0").unwrap();
        let q = Query::new(sys)
            .from_collection("X", xs)
            .from_collection("Y", ys);
        (db, q)
    }

    #[test]
    fn first_solution_stops_early() {
        let (db, q) = overlay_db();
        let full = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        assert!(full.solutions.len() > 1, "scenario has several routes");
        let one = bbox_execute_opts(&db, &q, IndexKind::RTree, ExecOptions::first()).unwrap();
        assert_eq!(one.solutions.len(), 1);
        assert!(one.stats.partial_tuples < full.stats.partial_tuples);
        assert!(full.solutions.contains(&one.solutions[0]));
        // naive and triangular variants honour the limit too
        let n1 = naive_execute_opts(&db, &q, ExecOptions::first()).unwrap();
        assert_eq!(n1.solutions.len(), 1);
        let t1 = triangular_execute_opts(&db, &q, ExecOptions::first()).unwrap();
        assert_eq!(t1.solutions.len(), 1);
    }

    #[test]
    fn max_solutions_caps_exactly() {
        let (db, q) = overlay_db();
        let full = bbox_execute(&db, &q, IndexKind::Scan).unwrap();
        let k = full.solutions.len().saturating_sub(1).max(1);
        let capped = bbox_execute_opts(
            &db,
            &q,
            IndexKind::Scan,
            ExecOptions {
                max_solutions: Some(k),
            },
        )
        .unwrap();
        assert_eq!(capped.solutions.len(), k.min(full.solutions.len()));
        for s in &capped.solutions {
            assert!(full.solutions.contains(s));
        }
    }

    #[test]
    fn zero_cap_returns_immediately() {
        // A query with no unknowns has one solution, the empty tuple;
        // the overlay join has many. A cap of 0 returns none of them
        // and does no search work: no tuple, no candidate, no probe.
        let (db, join) = overlay_db();
        let sys = parse_system("A <= B").unwrap();
        let closed = Query::new(sys)
            .known("A", Region::from_box(AaBox::new([1.0, 1.0], [2.0, 2.0])))
            .known("B", Region::from_box(AaBox::new([0.0, 0.0], [5.0, 5.0])));
        assert_eq!(naive_execute(&db, &closed).unwrap().solutions.len(), 1);
        let zero = ExecOptions {
            max_solutions: Some(0),
        };
        for q in [&closed, &join] {
            for r in [
                naive_execute_opts(&db, q, zero).unwrap(),
                triangular_execute_opts(&db, q, zero).unwrap(),
                bbox_execute_opts(&db, q, IndexKind::RTree, zero).unwrap(),
            ] {
                assert!(r.solutions.is_empty());
                assert_eq!(r.stats.solutions, 0);
                assert_eq!(r.stats.partial_tuples, 0, "no search work at cap 0");
                assert_eq!(r.stats.index_candidates, 0);
                assert_eq!(r.stats.corner_cache_misses, 0, "no probe at cap 0");
            }
        }
    }

    #[test]
    fn invalid_queries_error() {
        let db: SpatialDatabase<2> = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1.0, 1.0]));
        let sys = parse_system("X <= Y").unwrap();
        let q = Query::new(sys);
        match naive_execute(&db, &q) {
            Err(ExecError::InvalidQuery(m)) => assert!(m.contains("not bound")),
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
    }

    /// A plan compiled beforehand runs exactly like the executor's own
    /// compilation, and only for the retrieval order it was compiled for.
    #[test]
    fn compiled_plans_run_only_in_their_own_order() {
        let (db, q) = smuggler_db();
        let tri = compile_triangular(&db, &q).unwrap();
        let plan: BboxPlan<2> = BboxPlan::compile(&tri);
        let own = bbox_execute_compiled(&db, &q, &plan, IndexKind::RTree, ExecOptions::all());
        let compiled_here = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        let own = own.unwrap();
        assert_eq!(own.solutions, compiled_here.solutions);
        assert_eq!(
            own.stats.without_timings(),
            compiled_here.stats.without_timings()
        );
        let other = q.clone().with_order(&["R", "T", "B"]);
        match bbox_execute_compiled(&db, &other, &plan, IndexKind::RTree, ExecOptions::all()) {
            Err(ExecError::InvalidQuery(m)) => assert!(m.contains("another retrieval order")),
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
    }

    #[test]
    fn negative_constraints_prune() {
        // Roads must NOT be contained in the forbidden zone.
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [10.0, 10.0]));
        let roads = db.collection("roads");
        db.insert(roads, Region::from_box(AaBox::new([1.0, 1.0], [2.0, 2.0]))); // inside F
        db.insert(roads, Region::from_box(AaBox::new([5.0, 5.0], [6.0, 6.0]))); // outside F
        let sys = parse_system("R !<= F").unwrap();
        let q = Query::new(sys)
            .known("F", Region::from_box(AaBox::new([0.0, 0.0], [3.0, 3.0])))
            .from_collection("R", roads);
        for r in [
            naive_execute(&db, &q).unwrap(),
            triangular_execute(&db, &q).unwrap(),
            bbox_execute(&db, &q, IndexKind::Scan).unwrap(),
        ] {
            assert_eq!(r.solutions.len(), 1);
            assert_eq!(r.solutions[0].values().next().unwrap().index, 1);
        }
    }

    #[test]
    fn prefilter_never_changes_solutions() {
        // The bbox prefilter is a necessary condition for the exact
        // row, so it may only skip region algebra — never a solution.
        // Checked on both reference scenarios against the naive oracle.
        for (db, q) in [smuggler_db(), overlay_db()] {
            let oracle = solution_names(&db, &q, &naive_execute(&db, &q).unwrap());
            let tri = triangular_execute(&db, &q).unwrap();
            assert!(
                tri.stats.bbox_prefilter_rejections > 0,
                "full-scan candidates exercise the prefilter"
            );
            assert_eq!(oracle, solution_names(&db, &q, &tri));
            for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
                let bbox = bbox_execute(&db, &q, kind).unwrap();
                assert_eq!(oracle, solution_names(&db, &q, &bbox), "{kind:?}");
            }
        }
    }

    #[test]
    fn tombstones_are_skipped_never_bound() {
        let (mut db, q) = smuggler_db();
        let oracle = solution_names(&db, &q, &naive_execute(&db, &q).unwrap());
        let towns = db.collection_id("towns").unwrap();
        let roads = db.collection_id("roads").unwrap();
        // Tombstone objects that are in no solution (t2 lies outside the
        // country, r2 is a decoy): answers must not change, but the
        // full-scan executors must notice and skip the dead slots.
        assert!(db.remove(ObjectRef {
            collection: towns,
            index: 2,
        }));
        assert!(db.remove(ObjectRef {
            collection: roads,
            index: 2,
        }));
        let naive = naive_execute(&db, &q).unwrap();
        assert!(naive.stats.tombstones_skipped > 0, "naive scans every slot");
        let tri = triangular_execute(&db, &q).unwrap();
        assert!(tri.stats.tombstones_skipped > 0, "full-scan candidates");
        assert_eq!(oracle, solution_names(&db, &q, &naive));
        assert_eq!(oracle, solution_names(&db, &q, &tri));
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let bbox = bbox_execute(&db, &q, kind).unwrap();
            assert_eq!(oracle, solution_names(&db, &q, &bbox), "{kind:?}");
            assert_eq!(
                bbox.stats.tombstones_skipped, 0,
                "indexes never surface tombstones ({kind:?})"
            );
        }
    }

    #[test]
    fn removing_a_solution_object_removes_its_solutions() {
        let (mut db, q) = smuggler_db();
        let towns = db.collection_id("towns").unwrap();
        // t0 is the only town in any solution; tombstoning it empties
        // the answer set across all executors.
        assert!(db.remove(ObjectRef {
            collection: towns,
            index: 0,
        }));
        assert!(naive_execute(&db, &q).unwrap().solutions.is_empty());
        assert!(triangular_execute(&db, &q).unwrap().solutions.is_empty());
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            assert!(bbox_execute(&db, &q, kind).unwrap().solutions.is_empty());
        }
    }

    #[test]
    fn updates_change_answers_in_place() {
        let (mut db, q) = smuggler_db();
        let roads = db.collection_id("roads").unwrap();
        let r0 = ObjectRef {
            collection: roads,
            index: 0,
        };
        let before = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        assert!(!before.solutions.is_empty());
        // Shrink the good road to a stub that reaches nothing: its
        // solutions disappear without a rebuild.
        assert!(db.update(r0, Region::from_box(AaBox::new([12.0, 43.0], [13.0, 44.0]))));
        let naive = naive_execute(&db, &q).unwrap();
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let after = bbox_execute(&db, &q, kind).unwrap();
            assert_eq!(
                solution_names(&db, &q, &naive),
                solution_names(&db, &q, &after),
                "{kind:?}"
            );
            assert!(after.solutions.is_empty(), "stub road solves nothing");
        }
        // Restoring the road restores the answers.
        assert!(db.update(r0, Region::from_box(AaBox::new([12.0, 43.0], [65.0, 45.0]))));
        let restored = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        assert_eq!(
            solution_names(&db, &q, &before),
            solution_names(&db, &q, &restored)
        );
    }

    #[test]
    fn note_probe_dedups_missing_shards_sorted() {
        use crate::view::ProbeReport;
        let mut stats = ExecStats::default();
        let mut missing: Vec<usize> = Vec::new();
        note_probe(
            ProbeReport {
                missing_shards: vec![3, 1, 3],
                ..Default::default()
            },
            &mut stats,
            &mut missing,
        );
        assert_eq!(missing, vec![1, 3]);
        note_probe(
            ProbeReport {
                missing_shards: vec![2, 1, 7, 2],
                ..Default::default()
            },
            &mut stats,
            &mut missing,
        );
        assert_eq!(
            missing,
            vec![1, 2, 3, 7],
            "union stays sorted and deduplicated across reports"
        );
        assert_eq!(
            stats.shards_unavailable, 7,
            "every reported failure counts, duplicates included"
        );
    }

    #[test]
    fn sibling_corner_cache_skips_repeat_probes() {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
        let xs = db.collection("xs");
        let ys = db.collection("ys");
        for i in 0..6 {
            let t = i as f64 * 10.0;
            db.insert(xs, Region::from_box(AaBox::new([t, 0.0], [t + 8.0, 8.0])));
            db.insert(ys, Region::from_box(AaBox::new([t, 20.0], [t + 8.0, 28.0])));
        }
        // Y's solved row references only the known W, so the Y-level
        // corner query is identical for every accepted X sibling: all
        // but the first gather at that level hit the sibling cache.
        let sys = parse_system("X <= W; Y <= W").unwrap();
        let q = Query::new(sys)
            .known(
                "W",
                Region::from_box(AaBox::new([0.0, 0.0], [100.0, 100.0])),
            )
            .from_collection("X", xs)
            .from_collection("Y", ys)
            .with_order(&["X", "Y"]);
        let naive = naive_execute(&db, &q).unwrap();
        assert_eq!(naive.solutions.len(), 36);
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let r = bbox_execute(&db, &q, kind).unwrap();
            assert_eq!(
                solution_names(&db, &q, &naive),
                solution_names(&db, &q, &r),
                "{kind:?}: cache must not change answers"
            );
            assert_eq!(
                r.stats.corner_cache_hits, 5,
                "{kind:?}: 6 X siblings → 5 repeat gathers at the Y level"
            );
            assert_eq!(
                r.stats.corner_cache_misses, 2,
                "{kind:?}: one real probe per level"
            );
        }
    }

    #[test]
    fn sibling_corner_cache_misses_when_prefix_boxes_move() {
        // In the smuggler scenario the R and B rows reference the
        // previously bound unknowns, so their corner queries change per
        // sibling: the cache must observe that and re-probe.
        let (db, q) = smuggler_db();
        let r = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        assert!(
            r.stats.corner_cache_misses > 0,
            "joined levels re-probe when the prefix boxes change"
        );
        let gathers = r.stats.corner_cache_hits + r.stats.corner_cache_misses;
        assert!(
            gathers >= r.stats.corner_cache_misses,
            "counters stay consistent"
        );
    }

    #[test]
    fn prefilter_counters_are_consistent() {
        let (db, q) = smuggler_db();
        let r = triangular_execute(&db, &q).unwrap();
        // Every candidate is either prefiltered or bound + row-checked.
        assert_eq!(
            r.stats.partial_tuples,
            r.stats.bbox_prefilter_rejections + r.stats.regions_bound
        );
        // Row checks = one per bound candidate + one per known variable
        // (C and A are validated up front).
        assert_eq!(r.stats.exact_row_checks, r.stats.regions_bound + 2);
    }

    /// The allocation-regression smoke test: executing the map workload
    /// performs **zero** `Region` clones in the candidate loops — the
    /// executors bind regions by reference. Counter-based (thread-local,
    /// debug builds), so CI enforces it deterministically.
    #[cfg(debug_assertions)]
    #[test]
    fn executors_perform_zero_region_clones() {
        use crate::workload::{map_workload, MapParams};
        use scq_region::region::clone_counter;

        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
        let w = map_workload(
            &mut db,
            5,
            &MapParams {
                n_states: 6,
                n_towns: 16,
                n_roads: 48,
                useful_road_fraction: 0.15,
            },
        );
        let sys =
            parse_system("A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T < C").unwrap();
        let q = Query::new(sys)
            .known("C", w.country.clone())
            .known("A", w.area.clone())
            .from_collection("T", w.towns)
            .from_collection("R", w.roads)
            .from_collection("B", w.states)
            .with_order(&["T", "R", "B"]);

        clone_counter::reset();
        let bbox = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        assert_eq!(
            clone_counter::count(),
            0,
            "bbox executor must not clone regions"
        );
        let tri = triangular_execute(&db, &q).unwrap();
        assert_eq!(
            clone_counter::count(),
            0,
            "triangular executor must not clone regions"
        );
        let naive = naive_execute(&db, &q).unwrap();
        assert_eq!(
            clone_counter::count(),
            0,
            "naive executor must not clone regions"
        );
        assert_eq!(bbox.stats.solutions, naive.stats.solutions);
        assert_eq!(tri.stats.solutions, naive.stats.solutions);
        assert!(
            naive.stats.regions_bound > 0,
            "the search actually bound regions"
        );
    }
}
