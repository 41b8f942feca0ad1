//! Retrieval-order planning.
//!
//! The paper picks the retrieval order "arbitrarily" and leaves order
//! selection open. The engine offers three policies:
//!
//! * *given* — the caller's order ([`crate::Query::with_order`]);
//! * *by size* — ascending collection cardinality (the default in
//!   [`crate::Query::retrieval_order`]);
//! * *by whole-order cost* ([`order_by_selectivity`]) — estimate each
//!   unknown's candidates as if it were retrieved first (**one index
//!   probe per unknown**, `e_v`), then cost every order over the static
//!   read sets of its compiled rows and keep the cheapest.
//!
//! The cost is what dominates a join: how often each level re-issues
//! its range query. The executors' sibling corner-query cache re-probes
//! level `i` only when a box its compiled query reads has changed
//! ([`scq_core::plan::CompiledRow::reads`]); with `d(i)` the deepest
//! earlier unknown level in that read set, level `i` probes about
//! `P_i = e₁·…·e_d(i)` times (`1` when it reads no unknown). The planner
//! picks the order with the least `Σ P_i`, ties going to the
//! lexicographically smallest sequence of estimates in retrieval order.
//! Up to `MAX_COSTED_UNKNOWNS` unknowns it triangularises and compiles
//! every order exactly once — an order led by `v` doubles as `v`'s
//! first-position plan — and keeps the winner's compiled plan for the
//! executor. Past that it falls back to ascending estimates.
//!
//! The planner is generic over [`StoreView`], so the same cost model
//! serves the unsharded database, the sharded router, and remote
//! clusters — whatever the executors can run against, the planner can
//! plan against. Estimates are **execution-parity** numbers: for each
//! unknown, the estimate equals exactly what `gather_candidates` would
//! enumerate if that unknown were retrieved first (clamped known boxes,
//! empty-region objects included, zero for unsatisfiable plans).

use scq_bbox::Bbox;
use scq_boolean::Var;
use scq_core::plan::BboxPlan;
use scq_core::triangularize;

use crate::exec::ExecError;
use crate::query::{IndexKind, Query};
use crate::stats::{ExecStats, Timings};
use crate::view::StoreView;

/// Up to this many unknowns the planner costs every retrieval order
/// (at most 4! = 24 compilations); past it, it sorts by estimate.
const MAX_COSTED_UNKNOWNS: usize = 4;

/// Estimated candidate counts per unknown variable, as computed by
/// [`order_by_selectivity`].
#[derive(Clone, Debug)]
pub struct SelectivityEstimate {
    /// The unknown variable.
    pub var: Var,
    /// Candidates the executors would enumerate if this unknown were
    /// retrieved first: range-query matches plus the collection's
    /// empty-region objects (or zero when the plan is unsatisfiable).
    pub candidates: usize,
}

/// The planner's full answer: the chosen order and its compiled plan,
/// the per-unknown estimates behind it (in [`Query::unknown_vars`]
/// order), the cost model's reading, and what the planning itself
/// cost. `K` defaults to 2, the dimension the servers run.
#[derive(Clone, Debug)]
pub struct SelectivityPlan<const K: usize = 2> {
    /// The unknowns in retrieval order: the least estimated probes, or
    /// ascending estimates past `MAX_COSTED_UNKNOWNS` (ties broken by
    /// variable index, so plans are deterministic).
    pub order: Vec<Var>,
    /// The estimates the order was derived from.
    pub estimates: Vec<SelectivityEstimate>,
    /// Estimated probes `P_i` per level of `order`.
    pub probes: Vec<u64>,
    /// `Σ P_i` of the ascending-estimate order, for comparison.
    pub ascending_probes: u64,
    /// The plan compiled for `order` (known variables first), ready for
    /// [`crate::exec::bbox_execute_compiled`].
    pub plan: BboxPlan<K>,
    /// The planner's own cost, in executor terms: each index probe is
    /// recorded as a `corner_cache_misses` (a probe no cache served) —
    /// at most one per unknown — with `index_candidates`, shard
    /// accounting and timings filled in like any execution.
    pub stats: ExecStats,
}

/// Chooses the retrieval order by whole-order cost (see the module
/// docs) and compiles it. Returns the estimates and costs alongside the
/// order so callers (tests, `EXPLAIN`) can inspect the planner's
/// reasoning.
pub fn order_by_selectivity<const K: usize, V: StoreView<K>>(
    db: &V,
    query: &Query<K>,
    kind: IndexKind,
) -> Result<SelectivityPlan<K>, ExecError> {
    query.validate().map_err(ExecError::InvalidQuery)?;
    let alg = db.algebra();
    let knowns = query.known_vars();
    let unknowns = query.unknown_vars();
    let n = unknowns.len();
    // Shared work, hoisted out of the per-order loop: one
    // normalization, one known-box table, one reusable id buffer.
    let normal = query.system.normalize();

    let max_var = query
        .system
        .vars()
        .iter()
        .map(|v| v.index())
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    // Known boxes are clamped to the universe exactly like `prepare`
    // clamps known regions before binding, so the planner's corner
    // queries are the ones the execution would issue.
    let mut known_boxes: Vec<Bbox<K>> = vec![Bbox::Empty; max_var];
    for (v, r) in &knowns {
        known_boxes[v.index()] = alg.clamp(r).bbox();
    }

    let base_order: Vec<Var> = knowns.iter().map(|&(kv, _)| kv).collect();
    let compile = |perm: &[usize]| -> BboxPlan<K> {
        let mut order = base_order.clone();
        order.extend(perm.iter().map(|&i| unknowns[i].0));
        BboxPlan::compile(&triangularize(&normal, &order))
    };
    // Every order when they are few; otherwise each unknown first with
    // the rest in variable order. Either way the first order led by `v`
    // is `v` then the rest ascending: `v`'s first-position plan.
    let mut perms: Vec<Vec<usize>> = if n <= MAX_COSTED_UNKNOWNS {
        permutations(n)
    } else {
        (0..n)
            .map(|v| {
                std::iter::once(v)
                    .chain((0..n).filter(|&u| u != v))
                    .collect()
            })
            .collect()
    };
    let mut plans: Vec<BboxPlan<K>> = perms.iter().map(|p| compile(p)).collect();

    let mut ids: Vec<u64> = Vec::new();
    let mut stats = ExecStats::default();
    let mut timings = Timings::default();
    let mut missing: Vec<usize> = Vec::new();
    let mut estimates = Vec::with_capacity(n);
    for (v, &(var, coll)) in unknowns.iter().enumerate() {
        let lead = perms
            .iter()
            .position(|p| p[0] == v)
            .expect("an order per leading unknown");
        let plan = &plans[lead];
        let candidates = if plan.satisfiable {
            let row = plan.row_for(var).expect("row per variable");
            let q = row.corner_query(|i| known_boxes.get(i).copied().unwrap_or(Bbox::Empty));
            ids.clear();
            if !q.is_unsatisfiable() {
                stats.corner_cache_misses += 1;
                let probe_start = std::time::Instant::now();
                let report = db.query_collection(coll, kind, &q, &mut ids);
                timings.probe(probe_start);
                crate::exec::note_probe(report, &mut stats, &mut missing);
            }
            // Empty-region objects are enumerated by the executors
            // whether or not the probe runs (no corner query can return
            // them), so they count here too — including for an
            // unsatisfiable first-position query, which executes as
            // "no probe, empties only".
            ids.len() + db.empty_objects(coll).len()
        } else {
            // The executors return before a single gather when the
            // whole plan is unsatisfiable: nothing gets enumerated.
            0
        };
        stats.index_candidates += candidates;
        estimates.push(SelectivityEstimate { var, candidates });
    }

    let mut ascending: Vec<usize> = (0..n).collect();
    ascending.sort_by_key(|&i| (estimates[i].candidates, estimates[i].var));
    if n > MAX_COSTED_UNKNOWNS {
        // Too many orders to cost: the ascending-estimate one runs.
        plans = vec![compile(&ascending)];
        perms = vec![ascending.clone()];
    }
    let e =
        |perm: &[usize]| -> Vec<usize> { perm.iter().map(|&i| estimates[i].candidates).collect() };
    let vars = |perm: &[usize]| -> Vec<Var> { perm.iter().map(|&i| unknowns[i].0).collect() };
    let mut costs: Vec<Vec<u64>> = perms
        .iter()
        .zip(&plans)
        .map(|(p, plan)| level_probes(plan, &vars(p), &e(p)))
        .collect();
    let total = |i: usize| -> u64 { costs[i].iter().fold(0, |a, &p| a.saturating_add(p)) };
    let best = (0..perms.len())
        .min_by_key(|&i| (total(i), e(&perms[i])))
        .expect("at least the empty order");
    let ascending_probes = total(
        perms
            .iter()
            .position(|p| *p == ascending)
            .expect("the ascending order is costed"),
    );
    timings.fold_into(&mut stats);
    Ok(SelectivityPlan {
        order: vars(&perms[best]),
        probes: costs.swap_remove(best),
        ascending_probes,
        plan: plans.swap_remove(best),
        estimates,
        stats,
    })
}

/// Every permutation of `0..n`, in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn extend(n: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for i in 0..n {
            if !prefix.contains(&i) {
                prefix.push(i);
                extend(n, prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(n, &mut Vec::with_capacity(n), &mut out);
    out
}

/// Estimated probes per unknown level of `order` under `plan`, given the
/// levels' first-position estimates `e`: level `i` is re-probed once per
/// distinct prefix down to the deepest earlier unknown its compiled
/// corner query reads, so `P_i = e₀·…·e_d(i)`, or 1 when it reads none.
fn level_probes<const K: usize>(plan: &BboxPlan<K>, order: &[Var], e: &[usize]) -> Vec<u64> {
    let mut prefix_products = Vec::with_capacity(order.len());
    let mut product = 1u64;
    for &c in e {
        product = product.saturating_mul(c as u64);
        prefix_products.push(product);
    }
    order
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let reads = plan.row_for(v).map(|r| r.reads()).unwrap_or_default();
            order[..i]
                .iter()
                .rposition(|u| reads.contains(&u.index()))
                .map_or(1, |d| prefix_products[d])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SpatialDatabase;
    use crate::exec::{bbox_execute, naive_execute};
    use scq_core::parse_system;
    use scq_region::{AaBox, Region};

    /// A database where collection size is misleading: the large
    /// collection is far more selective for the query.
    fn tricky_db() -> (SpatialDatabase<2>, Query<2>) {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
        let big = db.collection("big");
        let small = db.collection("small");
        // 60 objects, but only 2 intersect the known key region.
        for i in 0..60 {
            let x = (i % 10) as f64 * 9.0;
            let y = (i / 10) as f64 * 12.0 + 40.0; // mostly far from K
            db.insert(
                big,
                Region::from_box(AaBox::new([x, y], [x + 3.0, y + 3.0])),
            );
        }
        db.insert(big, Region::from_box(AaBox::new([2.0, 2.0], [6.0, 6.0])));
        db.insert(big, Region::from_box(AaBox::new([8.0, 3.0], [12.0, 7.0])));
        // 10 objects, all overlapping the key region: unselective.
        for i in 0..10 {
            let x = i as f64 * 1.5;
            db.insert(
                small,
                Region::from_box(AaBox::new([x, 0.0], [x + 5.0, 20.0])),
            );
        }
        let sys = parse_system("X & K != 0; Y & K != 0; X & Y != 0").unwrap();
        let q = Query::new(sys)
            .known("K", Region::from_box(AaBox::new([0.0, 0.0], [15.0, 15.0])))
            .from_collection("X", big)
            .from_collection("Y", small);
        (db, q)
    }

    #[test]
    fn selectivity_beats_size_ordering() {
        let (db, q) = tricky_db();
        let plan = order_by_selectivity(&db, &q, IndexKind::RTree).unwrap();
        let x = q.system.table.get("X").unwrap();
        let y = q.system.table.get("Y").unwrap();
        // X (big but selective) must come first.
        assert_eq!(plan.order, vec![x, y]);
        let ex = plan
            .estimates
            .iter()
            .find(|e| e.var == x)
            .unwrap()
            .candidates;
        let ey = plan
            .estimates
            .iter()
            .find(|e| e.var == y)
            .unwrap()
            .candidates;
        assert!(ex < ey, "estimates: X={ex} Y={ey}");

        // and it actually reduces work relative to the size-based default
        // when run the way `SOLVE` runs it: the plan's order, its
        // compiled plan
        let mut q_sel = q.clone();
        q_sel.order = Some(plan.order.clone());
        let default = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        let planned = crate::exec::bbox_execute_compiled(
            &db,
            &q_sel,
            &plan.plan,
            IndexKind::RTree,
            crate::exec::ExecOptions::all(),
        )
        .unwrap();
        assert_eq!(default.stats.solutions, planned.stats.solutions);
        assert!(
            planned.stats.exact_row_checks <= default.stats.exact_row_checks,
            "planned {} vs default {}",
            planned.stats.exact_row_checks,
            default.stats.exact_row_checks
        );
        // answers agree with naive
        let naive = naive_execute(&db, &q).unwrap();
        assert_eq!(naive.stats.solutions, planned.stats.solutions);
    }

    #[test]
    fn planner_issues_at_most_one_probe_per_unknown() {
        let (db, q) = tricky_db();
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let plan = order_by_selectivity(&db, &q, kind).unwrap();
            let n = q.unknown_vars().len();
            assert!(
                plan.stats.corner_cache_misses <= n,
                "{kind:?}: {} probes for {} unknowns",
                plan.stats.corner_cache_misses,
                n
            );
            assert_eq!(plan.stats.corner_cache_hits, 0, "the planner has no cache");
        }
    }

    /// Past [`MAX_COSTED_UNKNOWNS`] the planner runs the
    /// ascending-estimate order, still compiled once for the executor.
    #[test]
    fn many_unknowns_fall_back_to_ascending_estimates() {
        let (db, _) = tricky_db();
        let big = db.collection_id("big").unwrap();
        let small = db.collection_id("small").unwrap();
        let sys = parse_system("X & K != 0; Y & K != 0; Z <= K; U & Z != 0; V & X != 0").unwrap();
        let q = Query::new(sys)
            .known("K", Region::from_box(AaBox::new([0.0, 0.0], [15.0, 15.0])))
            .from_collection("X", big)
            .from_collection("Y", small)
            .from_collection("Z", big)
            .from_collection("U", small)
            .from_collection("V", big);
        let plan = order_by_selectivity(&db, &q, IndexKind::RTree).unwrap();
        let mut ascending = plan.estimates.clone();
        ascending.sort_by_key(|e| (e.candidates, e.var));
        let ascending: Vec<Var> = ascending.iter().map(|e| e.var).collect();
        assert_eq!(plan.order, ascending);
        assert_eq!(plan.probes.iter().sum::<u64>(), plan.ascending_probes);
        assert!(plan.stats.corner_cache_misses <= 5);
        assert_eq!(&plan.plan.order[1..], &plan.order[..]);
        let mut planned = q.clone();
        planned.order = Some(plan.order.clone());
        let run = crate::exec::bbox_execute_compiled(
            &db,
            &planned,
            &plan.plan,
            IndexKind::RTree,
            crate::exec::ExecOptions::all(),
        )
        .unwrap();
        assert_eq!(
            run.stats.solutions,
            bbox_execute(&db, &q, IndexKind::RTree)
                .unwrap()
                .stats
                .solutions
        );
    }

    #[test]
    fn unsat_plans_estimate_zero() {
        let (db, mut q) = tricky_db();
        // contradictory extra constraint
        let sys = parse_system("X & K != 0; X <= K; X !<= K").unwrap();
        q.system = sys;
        let mut q2 = Query::new(q.system.clone())
            .known("K", Region::from_box(AaBox::new([0.0, 0.0], [15.0, 15.0])));
        let big = db.collection_id("big").unwrap();
        q2 = q2.from_collection("X", big);
        let plan = order_by_selectivity(&db, &q2, IndexKind::Scan).unwrap();
        assert_eq!(plan.order.len(), 1);
        assert_eq!(plan.estimates[0].candidates, 0);
        assert_eq!(
            plan.stats.corner_cache_misses, 0,
            "an unsatisfiable plan costs no probe"
        );
    }

    /// The estimate for an unknown equals exactly what executing it in
    /// first position enumerates — empty-region objects, unsatisfiable
    /// corner queries, and out-of-universe knowns (clamping) included.
    #[test]
    fn estimates_match_execution_enumeration() {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [10.0, 10.0]));
        let xs = db.collection("xs");
        db.insert(xs, Region::empty()); // only an empty object can satisfy X <= 0-area K
        db.insert(xs, Region::from_box(AaBox::new([1.0, 1.0], [2.0, 2.0])));
        db.insert(xs, Region::from_box(AaBox::new([8.0, 8.0], [9.0, 9.0])));

        // Known region extends OUTSIDE the universe: the execution
        // clamps it before deriving boxes, so the planner must too.
        let clamped_sys = parse_system("X <= A").unwrap();
        let q = Query::new(clamped_sys)
            .known("A", Region::from_box(AaBox::new([0.0, 0.0], [3.0, 30.0])))
            .from_collection("X", xs);
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let plan = order_by_selectivity(&db, &q, kind).unwrap();
            let run = bbox_execute(&db, &q, kind).unwrap();
            assert_eq!(
                plan.estimates[0].candidates, run.stats.index_candidates,
                "{kind:?}: single-unknown estimate must equal enumerated candidates"
            );
        }

        // Unsatisfiable first-position corner query (contained in an
        // empty known): execution enumerates the empty objects only.
        let empty_sys = parse_system("X <= A").unwrap();
        let q_empty = Query::new(empty_sys)
            .known("A", Region::empty())
            .from_collection("X", xs);
        let plan = order_by_selectivity(&db, &q_empty, IndexKind::RTree).unwrap();
        let run = bbox_execute(&db, &q_empty, IndexKind::RTree).unwrap();
        assert_eq!(plan.estimates[0].candidates, run.stats.index_candidates);
        assert_eq!(
            plan.estimates[0].candidates,
            db.empty_objects(xs).len(),
            "unsatisfiable query enumerates exactly the empty objects"
        );
        assert_eq!(run.stats.solutions, 1, "the empty region satisfies X <= 0");
    }
}
