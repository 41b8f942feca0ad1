//! Parallel query execution over a shared work queue.
//!
//! The backtracking search parallelizes at *every* level, not just the
//! first: workers pull subtree tasks from a shared queue, and while
//! exploring a subtree they **donate** accepted child subtrees back to
//! the queue whenever it runs low — so a query whose first level has
//! two fat candidates still spreads across all workers, where the old
//! first-level-only partitioning would have used two.
//!
//! A task is a validated prefix of object indices: re-deriving it on
//! the receiving worker is a handful of by-reference binds into a
//! [`FlatAssignment`] (the zero-clone core makes splitting cheap — no
//! region is ever copied between workers). Candidate generation, the
//! bbox prefilter, and the exact row check are the same helpers the
//! sequential executor uses ([`crate::exec`]), so the two executors
//! cannot drift.
//!
//! Semantics match [`crate::bbox_execute`] exactly — same solution set,
//! in nondeterministic order. [`ExecOptions::max_solutions`] is
//! enforced by a **shared atomic counter**: the worker that claims the
//! last slot raises a stop flag that halts every worker at its next
//! candidate, so a capped parallel run does only marginally more work
//! than the sequential capped run (the old per-worker cap did up to
//! `threads ×` the work and truncated after the merge).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use scq_algebra::FlatAssignment;
use scq_bbox::Bbox;
use scq_core::plan::BboxPlan;
use scq_core::triangularize;
use scq_region::{Region, RegionAlgebra};

use crate::database::{CollectionId, ObjectRef};
use crate::exec::{
    bind_knowns, bind_level, gather_candidates, level_bufs, prepare, try_candidate, ExecError,
    ExecOptions, LevelBuf, QueryOutcome, QueryResult, Solution,
};
use crate::query::{IndexKind, Query};
use crate::stats::{ExecStats, Timings};
use crate::view::StoreView;

/// A unit of work: a **validated** prefix of the retrieval order plus
/// the still-untried candidates at the next level. The receiving worker
/// rebinds the prefix (no row re-checks, no re-gather) and processes
/// the pending candidates.
struct Task {
    prefix: Vec<usize>,
    pending: Vec<usize>,
}

struct QueueState {
    tasks: VecDeque<Task>,
    /// Workers currently processing a task (for termination detection).
    active: usize,
}

/// Shared coordination state for one parallel execution.
struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    /// Approximate queue length, readable without the lock (workers use
    /// it to decide whether to donate subtrees).
    queue_len: AtomicUsize,
    /// Raised when the solution cap is reached or a worker errored.
    stop: AtomicBool,
    /// Solution slots claimed so far (only consulted with a cap).
    claimed: AtomicUsize,
    /// Queue lengths below this trigger donation.
    hunger: usize,
}

impl Shared {
    fn new(threads: usize) -> Self {
        Shared {
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                active: 0,
            }),
            available: Condvar::new(),
            queue_len: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            claimed: AtomicUsize::new(0),
            hunger: threads,
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn hungry(&self) -> bool {
        self.queue_len.load(Ordering::Relaxed) < self.hunger
    }

    fn push(&self, task: Task) {
        let mut st = self.queue.lock().expect("queue poisoned");
        st.tasks.push_back(task);
        self.queue_len.store(st.tasks.len(), Ordering::Relaxed);
        self.available.notify_one();
    }

    /// Blocks until a task is available, every worker is idle (search
    /// exhausted), or the stop flag is raised.
    fn pop(&self) -> Option<Task> {
        let mut st = self.queue.lock().expect("queue poisoned");
        loop {
            if self.stopped() {
                self.available.notify_all();
                return None;
            }
            if let Some(t) = st.tasks.pop_front() {
                st.active += 1;
                self.queue_len.store(st.tasks.len(), Ordering::Relaxed);
                return Some(t);
            }
            if st.active == 0 {
                self.available.notify_all();
                return None;
            }
            st = self.available.wait(st).expect("queue poisoned");
        }
    }

    /// Marks the current task finished; wakes waiters when the search
    /// is exhausted.
    fn finish(&self) {
        let mut st = self.queue.lock().expect("queue poisoned");
        st.active -= 1;
        if st.active == 0 && st.tasks.is_empty() {
            self.available.notify_all();
        }
    }

    /// Claims a solution slot. Returns whether the solution should be
    /// recorded; raises the stop flag on claiming the last slot.
    fn claim(&self, max: Option<usize>) -> bool {
        let Some(max) = max else { return true };
        let prev = self.claimed.fetch_add(1, Ordering::SeqCst);
        if prev >= max {
            // Already full (also covers max == 0, where no slot ever
            // existed): make sure the stop flag is up and drop it.
            self.halt();
            return false;
        }
        if prev + 1 == max {
            self.halt();
        }
        true
    }

    /// Raises the stop flag and wakes every waiting worker.
    fn halt(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }
}

/// Read-only search environment shared by all workers.
struct Env<'e, const K: usize, V: StoreView<K>> {
    db: &'e V,
    alg: RegionAlgebra<K>,
    plan: &'e BboxPlan<K>,
    kind: IndexKind,
    unknowns: &'e [(scq_boolean::Var, CollectionId)],
    options: ExecOptions,
    shared: &'e Shared,
}

/// Executes the query like [`crate::bbox_execute`], distributing
/// subtrees of the search over `threads` workers through a shared work
/// queue.
///
/// `threads == 0` or `1`, or a query with no unknowns, falls back to the
/// sequential executor.
pub fn bbox_execute_parallel<const K: usize, V: StoreView<K> + Sync>(
    db: &V,
    query: &Query<K>,
    kind: IndexKind,
    threads: usize,
    options: ExecOptions,
) -> Result<QueryResult, ExecError> {
    if threads <= 1 {
        return crate::exec::bbox_execute_opts(db, query, kind, options);
    }
    let started = std::time::Instant::now();
    let prep = prepare(db, query)?;
    if prep.unknowns.is_empty() {
        return crate::exec::bbox_execute_opts(db, query, kind, options);
    }
    let normal = query.system.normalize();
    let tri = triangularize(&normal, &prep.order);
    let plan: BboxPlan<K> = BboxPlan::compile(&tri);
    let alg = db.algebra();
    let mut stats = ExecStats::default();
    let mut missing: Vec<usize> = Vec::new();
    let empty = |stats: ExecStats| QueryResult {
        solutions: Vec::new(),
        stats,
        outcome: QueryOutcome::Complete,
    };
    if !plan.satisfiable || options.max_solutions == Some(0) {
        return Ok(empty(stats));
    }
    // Knowns: bound once here for validation, and cloned (slot vector
    // of references only) by each worker from the same arena.
    let Some((base_assign, base_boxes)) =
        bind_knowns(&alg, &plan, &prep.knowns, prep.max_var, &mut stats)?
    else {
        return Ok(empty(stats));
    };

    // Gather the first level once and seed the queue with it; deeper
    // levels are gathered by whichever worker first opens them.
    let first_row = plan
        .row_for(prep.unknowns[0].0)
        .expect("plan has a row per variable");
    let mut seed_buf = level_bufs(1);
    let mut timings = Timings::default();
    gather_candidates(
        db,
        prep.unknowns[0].1,
        Some(kind),
        first_row,
        &base_boxes,
        &mut seed_buf[0],
        &mut stats,
        &mut timings,
        &mut missing,
    );
    timings.fold_into(&mut stats);
    stats.index_candidates += seed_buf[0].candidates.len();

    let shared = Shared::new(threads);
    shared.push(Task {
        prefix: Vec::new(),
        pending: std::mem::take(&mut seed_buf[0].candidates),
    });

    // Workers run on fresh threads: re-install the caller's request
    // trace (if any) so shard probes they perform land in the right
    // span tree instead of vanishing.
    let trace = scq_obs::current();
    let results: Vec<Result<QueryResult, ExecError>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let env = Env {
                db,
                alg: db.algebra(),
                plan: &plan,
                kind,
                unknowns: &prep.unknowns,
                options,
                shared: &shared,
            };
            let base_assign = &base_assign;
            let base_boxes = &base_boxes;
            let trace = trace.clone();
            handles.push(scope.spawn(move || {
                let _trace_guard = trace.as_ref().map(|t| t.install());
                worker(env, base_assign, base_boxes)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut merged = empty(stats);
    merged.outcome = QueryOutcome::from_missing(missing);
    for r in results {
        let r = r?;
        merged.stats.merge(&r.stats);
        merged.solutions.extend(r.solutions);
        merged.outcome.merge(&r.outcome);
    }
    if let Some(max) = options.max_solutions {
        merged.solutions.truncate(max);
    }
    merged.stats.solutions = merged.solutions.len();
    merged.stats.total_us = crate::stats::elapsed_us(started);
    Ok(merged)
}

/// Worker loop: pop a task, rebind its validated prefix, explore the
/// subtree (donating children while the queue is hungry), undo, repeat.
fn worker<'e, const K: usize, V: StoreView<K>>(
    env: Env<'e, K, V>,
    base_assign: &FlatAssignment<'e, Region<K>>,
    base_boxes: &[Bbox<K>],
) -> Result<QueryResult, ExecError> {
    let mut local = QueryResult {
        solutions: Vec::new(),
        stats: ExecStats::default(),
        outcome: QueryOutcome::Complete,
    };
    let mut missing: Vec<usize> = Vec::new();
    let mut timings = Timings::default();
    let mut assign = base_assign.clone();
    let mut boxes = base_boxes.to_vec();
    let mut tuple: Solution = BTreeMap::new();
    let mut path: Vec<usize> = Vec::new();
    let mut bufs = level_bufs(env.unknowns.len());

    while let Some(task) = env.shared.pop() {
        // Rebind the validated prefix — by-reference binds only, no row
        // re-checks, no stats.
        let level = task.prefix.len();
        for (i, &index) in task.prefix.iter().enumerate() {
            let (var, coll) = env.unknowns[i];
            let obj = ObjectRef {
                collection: coll,
                index,
            };
            assign.bind(var, env.db.region(obj));
            boxes[var.index()] = env.db.bbox(obj);
            tuple.insert(var, obj);
        }
        path.clone_from(&task.prefix);

        // Rebuild the level's corner query from the prefix boxes (no
        // index round-trip — the candidates travel with the task).
        let (var, _) = env.unknowns[level];
        let row = env.plan.row_for(var).expect("plan has a row per variable");
        let lookup = |i: usize| boxes.get(i).copied().unwrap_or(Bbox::Empty);
        let q = row.corner_query(lookup);

        let result = process_level(
            &env,
            level,
            row,
            &q,
            &task.pending,
            &mut assign,
            &mut boxes,
            &mut tuple,
            &mut path,
            &mut bufs[level + 1..],
            &mut local,
            &mut timings,
            &mut missing,
        );

        // Undo the prefix bindings regardless of outcome.
        for i in 0..level {
            let var = env.unknowns[i].0;
            assign.unbind(var);
            boxes[var.index()] = base_boxes[var.index()];
            tuple.remove(&var);
        }
        path.clear();
        env.shared.finish();

        if let Err(e) = result {
            env.shared.halt();
            return Err(e);
        }
    }
    timings.fold_into(&mut local.stats);
    local.outcome = QueryOutcome::from_missing(missing);
    Ok(local)
}

/// Processes a batch of candidates at one level: the parallel twin of
/// the sequential `opt_rec` loop, plus steal-half donation and shared
/// stop/claim coordination.
///
/// When the queue runs hungry, the worker donates the **second half**
/// of its remaining batch as one task (so splitting is `O(log n)` per
/// level, not one queue round-trip per candidate) and keeps the first
/// half.
#[allow(clippy::too_many_arguments)]
fn process_level<'e, const K: usize, V: StoreView<K>>(
    env: &Env<'e, K, V>,
    level: usize,
    row: &scq_core::plan::CompiledRow<K>,
    q: &scq_bbox::CornerQuery<K>,
    pending: &[usize],
    assign: &mut FlatAssignment<'e, Region<K>>,
    boxes: &mut [Bbox<K>],
    tuple: &mut Solution,
    path: &mut Vec<usize>,
    below: &mut [LevelBuf<K>],
    local: &mut QueryResult,
    timings: &mut Timings,
    missing: &mut Vec<usize>,
) -> Result<(), ExecError> {
    let (var, _) = env.unknowns[level];
    if pending.is_empty() {
        return Ok(());
    }
    // As in the sequential executor: bounds borrow a prefix snapshot.
    let prefix = assign.clone();
    let bounds = bind_level(&env.alg, row, &prefix, timings)?;
    let mut end = pending.len();
    let mut pos = 0;
    while pos < end {
        if env.shared.stopped() {
            return Ok(());
        }
        if end - pos >= 2 && env.shared.hungry() {
            let mid = pos + (end - pos) / 2;
            env.shared.push(Task {
                prefix: path.clone(),
                pending: pending[mid..end].to_vec(),
            });
            end = mid;
            continue;
        }
        let index = pending[pos];
        pos += 1;
        let obj = ObjectRef {
            collection: env.unknowns[level].1,
            index,
        };
        if let Some(bb) = try_candidate(
            env.db,
            &env.alg,
            &bounds,
            q,
            var,
            obj,
            assign,
            &mut local.stats,
            timings,
        ) {
            boxes[var.index()] = bb;
            tuple.insert(var, obj);
            path.push(index);
            descend(
                env,
                level + 1,
                assign,
                boxes,
                tuple,
                path,
                below,
                local,
                timings,
                missing,
            )?;
            path.pop();
            tuple.remove(&var);
            boxes[var.index()] = Bbox::Empty;
            assign.unbind(var);
        }
    }
    Ok(())
}

/// Opens one level below a validated prefix: record a solution at the
/// leaves, otherwise gather the level's candidates (into the worker's
/// reusable buffer) and process them.
#[allow(clippy::too_many_arguments)]
fn descend<'e, const K: usize, V: StoreView<K>>(
    env: &Env<'e, K, V>,
    level: usize,
    assign: &mut FlatAssignment<'e, Region<K>>,
    boxes: &mut [Bbox<K>],
    tuple: &mut Solution,
    path: &mut Vec<usize>,
    bufs: &mut [LevelBuf<K>],
    local: &mut QueryResult,
    timings: &mut Timings,
    missing: &mut Vec<usize>,
) -> Result<(), ExecError> {
    if level == env.unknowns.len() {
        if env.shared.claim(env.options.max_solutions) {
            local.solutions.push(tuple.clone());
        }
        return Ok(());
    }
    let (var, coll) = env.unknowns[level];
    let row = env.plan.row_for(var).expect("plan has a row per variable");
    let (buf, rest) = bufs.split_first_mut().expect("buffer per level");
    let q = gather_candidates(
        env.db,
        coll,
        Some(env.kind),
        row,
        boxes,
        buf,
        &mut local.stats,
        timings,
        missing,
    );
    local.stats.index_candidates += buf.candidates.len();
    // The batch is processed straight out of the reusable buffer
    // (moved around the recursion and restored, so the pool keeps its
    // capacity); a donated second half is copied into its task, the
    // retained first half is not.
    let cands = std::mem::take(&mut buf.candidates);
    let result = process_level(
        env, level, row, &q, &cands, assign, boxes, tuple, path, rest, local, timings, missing,
    );
    buf.candidates = cands;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SpatialDatabase;
    use crate::exec::bbox_execute;
    use crate::workload::{map_workload, MapParams};
    use scq_core::parse_system;
    use scq_region::{AaBox, Region};

    fn setup() -> (SpatialDatabase<2>, Query<2>) {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
        let w = map_workload(
            &mut db,
            13,
            &MapParams {
                n_states: 6,
                n_towns: 20,
                n_roads: 60,
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
        (db, q)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (db, q) = setup();
        let seq = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        for threads in [2, 4, 7] {
            let par = bbox_execute_parallel(&db, &q, IndexKind::RTree, threads, ExecOptions::all())
                .unwrap();
            let mut a = seq.solutions.clone();
            let mut b = par.solutions.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "threads = {threads}");
            assert_eq!(par.stats.solutions, seq.stats.solutions);
        }
    }

    #[test]
    fn uncapped_parallel_does_the_same_work() {
        // Donation moves subtrees between workers but must not duplicate
        // or skip them: the aggregate counters equal the sequential
        // run's exactly.
        let (db, q) = setup();
        let seq = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        for threads in [2, 5] {
            let par = bbox_execute_parallel(&db, &q, IndexKind::RTree, threads, ExecOptions::all())
                .unwrap();
            assert_eq!(par.stats.partial_tuples, seq.stats.partial_tuples);
            assert_eq!(par.stats.index_candidates, seq.stats.index_candidates);
            assert_eq!(par.stats.exact_row_checks, seq.stats.exact_row_checks);
            assert_eq!(par.stats.regions_bound, seq.stats.regions_bound);
        }
    }

    #[test]
    fn single_thread_falls_back() {
        let (db, q) = setup();
        let seq = bbox_execute(&db, &q, IndexKind::GridFile).unwrap();
        let par =
            bbox_execute_parallel(&db, &q, IndexKind::GridFile, 1, ExecOptions::all()).unwrap();
        assert_eq!(seq.solutions, par.solutions);
    }

    #[test]
    fn parallel_respects_solution_cap() {
        let (db, q) = setup();
        let capped = bbox_execute_parallel(
            &db,
            &q,
            IndexKind::RTree,
            4,
            ExecOptions {
                max_solutions: Some(2),
            },
        )
        .unwrap();
        assert!(capped.solutions.len() <= 2);
        assert!(!capped.solutions.is_empty());
    }

    #[test]
    fn capped_parallel_stops_promptly() {
        // The shared atomic counter stops *all* workers once the cap is
        // reached, where the old per-worker cap let every worker run to
        // its own cap and truncated after the merge. Two bounds, both
        // safe under real concurrency (workers race in disjoint
        // subtrees until the stop flag rises, so per-run counts are
        // nondeterministic on multicore hosts):
        // 1. each concurrent worker does at most about the sequential
        //    capped work before somebody fills the cap;
        // 2. the run explores a small fraction of the full search.
        let (db, q) = setup();
        let threads = 4;
        let cap = ExecOptions {
            max_solutions: Some(2),
        };
        let uncapped = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        let seq = crate::exec::bbox_execute_opts(&db, &q, IndexKind::RTree, cap).unwrap();
        let par = bbox_execute_parallel(&db, &q, IndexKind::RTree, threads, cap).unwrap();
        assert_eq!(par.solutions.len(), 2);
        let per_worker_bound = threads * (seq.stats.partial_tuples + 16);
        assert!(
            par.stats.partial_tuples <= per_worker_bound,
            "parallel capped run over-worked: {} vs bound {}",
            par.stats.partial_tuples,
            per_worker_bound
        );
        assert!(
            par.stats.partial_tuples < uncapped.stats.partial_tuples / 2,
            "capped run should explore a fraction of the full search: {} vs {}",
            par.stats.partial_tuples,
            uncapped.stats.partial_tuples
        );
    }

    #[test]
    fn zero_cap_returns_immediately() {
        let (db, q) = setup();
        let par = bbox_execute_parallel(
            &db,
            &q,
            IndexKind::RTree,
            4,
            ExecOptions {
                max_solutions: Some(0),
            },
        )
        .unwrap();
        assert!(par.solutions.is_empty());
        assert_eq!(par.stats.partial_tuples, 0, "no search work at cap 0");
    }

    #[test]
    fn parallel_unsat_inputs() {
        let (db, mut q) = setup();
        let v = q.system.table.get("A").unwrap();
        q.bindings.insert(
            v,
            crate::query::VarBinding::Known(Region::from_box(AaBox::new(
                [990.0, 990.0],
                [999.0, 999.0],
            ))),
        );
        let par = bbox_execute_parallel(&db, &q, IndexKind::RTree, 4, ExecOptions::all()).unwrap();
        assert!(par.solutions.is_empty());
    }
}
