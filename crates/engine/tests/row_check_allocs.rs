//! Allocation regression test for the exact row check, pinned exactly.
//!
//! A test binary of its own, because it installs a counting global
//! allocator and holds a single test: nothing else in the process
//! allocates while the measured call runs, so the count repeats
//! exactly. It runs the smuggler join over the engine's map workload,
//! once to warm up and once counted, and holds the executor to at most
//! two heap allocations per candidate — a level's solved row is bound
//! once and each candidate tested without building a region. The work
//! counters are pinned too: binding rows once per level must not change
//! which candidates are probed, extended or checked.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use scq_core::parse_system;
use scq_engine::workload::{map_workload, MapParams};
use scq_engine::{bbox_execute_opts, ExecOptions, IndexKind, Query, SpatialDatabase};
use scq_region::AaBox;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn smuggler_join_allocates_at_most_two_per_row_check() {
    let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
    let w = map_workload(
        &mut db,
        5,
        &MapParams {
            n_states: 8,
            n_towns: 250,
            n_roads: 1000,
            useful_road_fraction: 0.1,
        },
    );
    let sys = parse_system("A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T < C")
        .expect("the smuggler system parses");
    let q = Query::new(sys)
        .known("C", w.country.clone())
        .known("A", w.area.clone())
        .from_collection("T", w.towns)
        .from_collection("R", w.roads)
        .from_collection("B", w.states)
        .with_order(&["T", "R", "B"]);
    let run = || bbox_execute_opts(&db, &q, IndexKind::RTree, ExecOptions::all()).unwrap();

    let warm = run();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(
        r.stats.without_timings(),
        warm.stats.without_timings(),
        "a repeated run does the same work"
    );
    // The exact-bound box prefilter rejects 17 689 of the 27 744
    // candidates before any region algebra: the 27 746 row checks of the
    // executor without it (two are the known rows) become 10 057.
    assert_eq!(r.stats.exact_row_checks, 10_057);
    assert_eq!(r.stats.bbox_prefilter_rejections, 17_689);
    assert_eq!(r.stats.index_candidates, 27_744);
    assert_eq!(r.stats.partial_tuples, 27_744);
    assert_eq!(r.stats.solutions, 2_527);
    // Per candidate, not per row check: the prefilter moves work out of
    // the row check, not allocations out of the search.
    assert!(
        allocations <= 2 * r.stats.partial_tuples as u64,
        "{allocations} allocations for {} candidates",
        r.stats.partial_tuples
    );
}
