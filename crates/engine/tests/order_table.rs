//! The retrieval-order table, pinned: every order of the smuggler and
//! district shapes on one seeded map, with the work each order does.
//!
//! The order decides how often each level re-issues its range query
//! (`corner_cache_misses` are probes, `corner_cache_hits` the sibling
//! cache's reuses), how many candidates come back, and how many exact
//! row checks the exact-bound prefilter leaves. Every order finds the
//! same solutions. The planner must pick an order within 1.25× of the
//! fewest probes, from at most one probe per unknown of its own.

use scq_core::parse_system;
use scq_engine::workload::{map_workload, MapParams, MapWorkload};
use scq_engine::{
    bbox_execute_compiled, bbox_execute_opts, order_by_selectivity, ExecOptions, ExecStats,
    IndexKind, Query, SpatialDatabase,
};
use scq_region::{AaBox, Region};

/// `(probes, sibling hits, candidates, exact row checks, prefilter
/// rejections, solutions)` of one execution.
type Work = (usize, usize, usize, usize, usize, usize);

fn work(s: &ExecStats) -> Work {
    (
        s.corner_cache_misses,
        s.corner_cache_hits,
        s.index_candidates,
        s.exact_row_checks,
        s.bbox_prefilter_rejections,
        s.solutions,
    )
}

fn map() -> (SpatialDatabase<2>, MapWorkload) {
    let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
    let w = map_workload(
        &mut db,
        1,
        &MapParams {
            n_states: 8,
            n_towns: 250,
            n_roads: 1000,
            useful_road_fraction: 0.032,
        },
    );
    (db, w)
}

fn smuggler(w: &MapWorkload) -> Query<2> {
    let sys = parse_system("A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T < C")
        .expect("the smuggler system parses");
    Query::new(sys)
        .known("C", w.country.clone())
        .known("A", w.area.clone())
        .from_collection("T", w.towns)
        .from_collection("R", w.roads)
        .from_collection("B", w.states)
}

fn district(w: &MapWorkload) -> Query<2> {
    let sys = parse_system("T <= W; R & T != 0").expect("the district system parses");
    Query::new(sys)
        .known(
            "W",
            Region::from_box(AaBox::new([60.0, 380.0], [320.0, 640.0])),
        )
        .from_collection("T", w.towns)
        .from_collection("R", w.roads)
}

/// Runs every pinned order, then the planner's, and checks the planner
/// against the table; `chosen` is the planner's pinned pick.
fn check_table(
    db: &SpatialDatabase<2>,
    query: &Query<2>,
    table: &[(&[&str], Work)],
    chosen: &[&str],
) {
    let run = |q: &Query<2>| {
        bbox_execute_opts(db, q, IndexKind::RTree, ExecOptions::all()).expect("query executes")
    };
    for (order, want) in table {
        let got = work(&run(&query.clone().with_order(order)).stats);
        assert_eq!(got, *want, "order {order:?}");
    }

    let plan = order_by_selectivity(db, query, IndexKind::RTree).expect("planner runs");
    let n = query.unknown_vars().len();
    assert!(
        plan.stats.corner_cache_misses <= n,
        "{} planning probes for {n} unknowns",
        plan.stats.corner_cache_misses
    );
    assert_eq!(plan.stats.corner_cache_hits, 0, "the planner has no cache");

    let names: Vec<&str> = plan
        .order
        .iter()
        .map(|&v| query.system.table.name(v))
        .collect();
    assert_eq!(names, chosen);
    let mut planned = query.clone();
    planned.order = Some(plan.order.clone());
    let by_order = run(&planned);
    let compiled = bbox_execute_compiled(
        db,
        &planned,
        &plan.plan,
        IndexKind::RTree,
        ExecOptions::all(),
    )
    .expect("the planner's compiled plan executes");
    assert_eq!(
        compiled.stats.without_timings(),
        by_order.stats.without_timings(),
        "the planner's plan is the one the executor would compile"
    );
    assert_eq!(compiled.solutions, by_order.solutions);

    let fewest = table
        .iter()
        .map(|(_, w)| w.0)
        .min()
        .expect("a pinned order");
    let probes = by_order.stats.corner_cache_misses;
    assert!(
        probes * 4 <= fewest * 5,
        "planner order {names:?} makes {probes} probes; the best order makes {fewest}"
    );
}

#[test]
fn smuggler_orders_are_pinned_and_the_planner_picks_a_cheap_one() {
    let (db, w) = map();
    check_table(
        &db,
        &smuggler(&w),
        &[
            (&["B", "R", "T"], (402, 7, 9480, 1544, 7938, 398)),
            (&["B", "T", "R"], (2258, 7, 10439, 10441, 0, 398)),
            (&["R", "B", "T"], (52, 399, 9522, 1586, 7938, 398)),
            (&["R", "T", "B"], (52, 397, 4368, 1584, 2786, 398)),
            (&["T", "B", "R"], (1963, 576, 10713, 10715, 0, 398)),
            (&["T", "R", "B"], (284, 397, 4600, 1816, 2786, 398)),
        ],
        &["R", "B", "T"],
    );
}

#[test]
fn district_orders_are_pinned_and_the_planner_picks_a_cheap_one() {
    let (db, w) = map();
    check_table(
        &db,
        &district(&w),
        &[
            (&["R", "T"], (158, 0, 194, 195, 0, 37)),
            (&["T", "R"], (82, 0, 118, 119, 0, 37)),
        ],
        &["T", "R"],
    );
}
