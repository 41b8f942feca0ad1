//! Regenerates the experiment summary table: one row per experiment
//! with the qualitative quantity the paper's claim is about (speedups,
//! pruning factors, false-positive rates, result counts), measured on
//! this machine.
//!
//! ```sh
//! cargo run --release -p scq-bench --bin experiments
//! ```
//!
//! Criterion (`cargo bench`) produces the detailed latency
//! distributions; this binary produces the compact paper-vs-measured
//! table.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use scq_algebra::{Assignment, BooleanAlgebra};
use scq_bbox::Bbox;
use scq_bench::{random_bboxes, sharded_smuggler_setup, smuggler_setup};
use scq_boolean::{Formula, Var};
use scq_core::plan::BboxPlan;
use scq_core::{parse_system, triangularize, NormalSystem};
use scq_engine::{bbox_execute, naive_execute, triangular_execute, IndexKind};
use scq_index::{GridFile, RTree, ScanIndex, SpatialIndex, SplitStrategy};
use scq_region::{AaBox, Region, RegionAlgebra};
use scq_zorder::{zorder_join, ZCurve};

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

fn b1() {
    println!("## B1 — join executors (smuggler query)");
    println!("| n_roads | naive ms | triangular ms | bbox(R-tree) ms | bad-order ms | first-only ms | solutions | naive partials | bbox partials |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for n in [40usize, 120, 360] {
        let (db, q) = smuggler_setup(1000 + n as u64, n);
        let (rb, tb) = time(|| bbox_execute(&db, &q, IndexKind::RTree).unwrap());
        let (_rt, tt) = time(|| triangular_execute(&db, &q).unwrap());
        let q_bad = q.clone().with_order(&["B", "R", "T"]);
        let (_rbad, tbad) = time(|| bbox_execute(&db, &q_bad, IndexKind::RTree).unwrap());
        let (_rf, tf) = time(|| {
            scq_engine::bbox_execute_opts(
                &db,
                &q,
                IndexKind::RTree,
                scq_engine::ExecOptions::first(),
            )
            .unwrap()
        });
        let (naive_str, naive_partials) = if n <= 120 {
            let (rn, tn) = time(|| naive_execute(&db, &q).unwrap());
            (format!("{tn:.2}"), rn.stats.partial_tuples.to_string())
        } else {
            ("—".into(), "—".into())
        };
        println!(
            "| {n} | {naive_str} | {tt:.2} | {tb:.2} | {tbad:.2} | {tf:.2} | {} | {naive_partials} | {} |",
            rb.stats.solutions, rb.stats.partial_tuples
        );
    }
}

fn b2() {
    println!("\n## B2 — Algorithm 1 compile time vs #vars (chain systems)");
    println!("| n vars | time ms |");
    println!("|---|---|");
    for n in [2u32, 4, 6, 8, 10] {
        let mut eq = Formula::Zero;
        let mut neqs = Vec::new();
        for i in 0..n - 1 {
            eq = Formula::or(
                eq,
                Formula::diff(Formula::var(Var(i)), Formula::var(Var(i + 1))),
            );
            neqs.push(Formula::and(Formula::var(Var(i)), Formula::var(Var(i + 1))));
        }
        let sys = NormalSystem { eq, neqs };
        let order: Vec<Var> = (0..n).map(Var).collect();
        let (_, t) = time(|| triangularize(&sys, &order));
        println!("| {n} | {t:.3} |");
    }
}

fn b3() {
    println!("\n## B3 — Blake canonical form vs #vars (random SOP, 2n cubes)");
    println!("| n vars | time ms | prime implicants |");
    println!("|---|---|---|");
    for n in [4u32, 6, 8, 10, 12] {
        let mut rng = StdRng::seed_from_u64(42 + n as u64);
        let sop = scq_boolean::random::random_sop(&mut rng, n, n * 2, 3);
        let (bcf, t) = time(|| scq_boolean::bcf::bcf_of_sop(sop));
        println!("| {n} | {t:.3} | {} |", bcf.len());
    }
}

fn b4() {
    println!("\n## B4 — range-query latency (16 mixed queries, total ms)");
    println!("| n | rtree-lin | rtree-quad | gridfile | scan |");
    println!("|---|---|---|---|---|");
    for n in [1_000usize, 10_000, 50_000] {
        let items = random_bboxes(7, n, 3.0);
        let rt_lin = RTree::from_items(SplitStrategy::Linear, items.iter().copied());
        let rt_quad = RTree::from_items(SplitStrategy::Quadratic, items.iter().copied());
        let grid = GridFile::bulk_load(32, items.iter().copied());
        let scan = ScanIndex::from_items(items.iter().copied());
        let queries: Vec<_> = (0..16)
            .map(|i| {
                let x = (i * 6) as f64;
                scq_bbox::CornerQuery::unconstrained()
                    .and_overlaps(&Bbox::new([x, x], [x + 8.0, x + 8.0]))
            })
            .collect();
        let run = |idx: &dyn Fn(&scq_bbox::CornerQuery<2>, &mut Vec<u64>)| {
            let mut out = Vec::new();
            let t = Instant::now();
            for _ in 0..10 {
                for q in &queries {
                    out.clear();
                    idx(q, &mut out);
                }
            }
            t.elapsed().as_secs_f64() * 1e3 / 10.0
        };
        let t1 = run(&|q, out| rt_lin.query_corner(q, out));
        let t2 = run(&|q, out| rt_quad.query_corner(q, out));
        let t3 = run(&|q, out| grid.query_corner(q, out));
        let t4 = run(&|q, out| scan.query_corner(q, out));
        println!("| {n} | {t1:.3} | {t2:.3} | {t3:.3} | {t4:.3} |");
    }
}

fn b5() {
    println!("\n## B5 — one corner query vs three passes (R-tree, total ms)");
    println!("| n | one query | three passes |");
    println!("|---|---|---|");
    for n in [1_000usize, 10_000, 50_000] {
        let items = random_bboxes(21, n, 4.0);
        let rtree = RTree::from_items(SplitStrategy::Quadratic, items.iter().copied());
        let a = Bbox::new([33.0, 33.0], [34.0, 34.0]);
        let b = Bbox::new([30.0, 30.0], [50.0, 50.0]);
        let c = Bbox::new([38.0, 38.0], [42.0, 42.0]);
        let (_, t_one) = time(|| {
            let mut out = Vec::new();
            for _ in 0..50 {
                out.clear();
                let q = scq_bbox::CornerQuery::unconstrained()
                    .and_contains(&a)
                    .and_contained_in(&b)
                    .and_overlaps(&c);
                rtree.query_corner(&q, &mut out);
            }
            out.len()
        });
        let (_, t_three) = time(|| {
            let mut total = 0;
            for _ in 0..50 {
                let mut q1 = Vec::new();
                rtree.query_corner(
                    &scq_bbox::CornerQuery::unconstrained().and_contains(&a),
                    &mut q1,
                );
                let mut q2 = Vec::new();
                rtree.query_corner(
                    &scq_bbox::CornerQuery::unconstrained().and_contained_in(&b),
                    &mut q2,
                );
                let mut q3 = Vec::new();
                rtree.query_corner(
                    &scq_bbox::CornerQuery::unconstrained().and_overlaps(&c),
                    &mut q3,
                );
                let s1: std::collections::HashSet<u64> = q1.into_iter().collect();
                let s2: std::collections::HashSet<u64> = q2.into_iter().collect();
                total += q3
                    .into_iter()
                    .filter(|id| s1.contains(id) && s2.contains(id))
                    .count();
            }
            total
        });
        println!("| {n} | {t_one:.3} | {t_three:.3} |");
    }
}

fn b6() {
    println!("\n## B6 — bbox filter vs exact region check (400 candidates)");
    println!("| frags | bbox ms | exact ms | bbox passes | exact passes | fp rate |");
    println!("|---|---|---|---|---|---|");
    let sys = parse_system("X <= A | B; X & B != 0").unwrap();
    let (a, b, x) = (
        sys.table.get("A").unwrap(),
        sys.table.get("B").unwrap(),
        sys.table.get("X").unwrap(),
    );
    let tri = triangularize(&sys.normalize(), &[a, b, x]);
    let plan: BboxPlan<2> = BboxPlan::compile(&tri);
    let row = plan.row_for(x).unwrap();
    let alg = RegionAlgebra::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
    for frags in [1usize, 4, 16] {
        let mk = |seed: u64, n: usize| -> Vec<Region<2>> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| {
                    Region::from_boxes((0..frags).map(|_| {
                        let lo = [rng.random_range(0.0..90.0), rng.random_range(0.0..90.0)];
                        let w = [rng.random_range(1.0..8.0), rng.random_range(1.0..8.0)];
                        AaBox::new(lo, [lo[0] + w[0], lo[1] + w[1]])
                    }))
                })
                .collect()
        };
        let known = mk(5, 2);
        // Stratified candidates: sub-boxes of B fragments (exact pass),
        // jittered fragment copies (bbox-only), uniform noise (miss).
        let candidates: Vec<Region<2>> = {
            let mut rng = StdRng::seed_from_u64(77);
            let pool: Vec<AaBox<2>> = known
                .iter()
                .flat_map(|r| r.boxes().iter().copied())
                .collect();
            let b_frags: Vec<AaBox<2>> = known[1].boxes().to_vec();
            (0..400usize)
                .map(|i| match i % 3 {
                    0 => {
                        let src = b_frags[rng.random_range(0..b_frags.len())];
                        let (lo, hi) = (src.lo(), src.hi());
                        let cx = [lo[0] / 2.0 + hi[0] / 2.0, lo[1] / 2.0 + hi[1] / 2.0];
                        Region::from_box(AaBox::new(
                            [lo[0] / 2.0 + cx[0] / 2.0, lo[1] / 2.0 + cx[1] / 2.0],
                            [hi[0] / 2.0 + cx[0] / 2.0, hi[1] / 2.0 + cx[1] / 2.0],
                        ))
                    }
                    1 => {
                        let src = pool[rng.random_range(0..pool.len())];
                        let (lo, hi) = (src.lo(), src.hi());
                        let jit = rng.random_range(0.5..4.0);
                        Region::from_box(AaBox::new(
                            [lo[0] + jit * 0.5, lo[1] + jit],
                            [hi[0] + jit, hi[1] + jit * 1.5],
                        ))
                    }
                    _ => {
                        let lo = [rng.random_range(0.0..90.0), rng.random_range(0.0..90.0)];
                        let w = [rng.random_range(1.0..8.0), rng.random_range(1.0..8.0)];
                        Region::from_box(AaBox::new(lo, [lo[0] + w[0], lo[1] + w[1]]))
                    }
                })
                .collect()
        };
        let mut var_boxes = [Bbox::Empty; 3];
        var_boxes[a.index()] = known[0].bbox();
        var_boxes[b.index()] = known[1].bbox();
        let lookup = |i: usize| var_boxes.get(i).copied().unwrap_or(Bbox::Empty);
        let q = row.corner_query(lookup);
        let (n_bbox, t_bbox) = time(|| candidates.iter().filter(|r| q.matches(&r.bbox())).count());
        let mut assign = Assignment::new();
        assign.bind(a, known[0].clone());
        assign.bind(b, known[1].clone());
        let (n_exact, t_exact) = time(|| {
            candidates
                .iter()
                .filter(|r| {
                    assign.bind(x, (*r).clone());
                    row.exact.check(&alg, &assign).unwrap()
                })
                .count()
        });
        println!(
            "| {frags} | {t_bbox:.3} | {t_exact:.3} | {n_bbox} | {n_exact} | {:.1}% |",
            100.0 * (n_bbox.saturating_sub(n_exact)) as f64 / n_bbox.max(1) as f64
        );
    }
}

fn b7() {
    println!("\n## B7 — overlay join: z-order vs engine vs nested loop");
    println!("| n per side | zorder ms | engine ms | nested ms | pairs |");
    println!("|---|---|---|---|---|");
    for n in [500usize, 2_000, 8_000] {
        let left = random_bboxes(100, n, 2.0);
        let right = random_bboxes(200, n, 2.0);
        let l_items: Vec<_> = left.iter().map(|&(id, b)| (b, id)).collect();
        let r_items: Vec<_> = right.iter().map(|&(id, b)| (b, id)).collect();
        let curve = ZCurve::new(Bbox::new([0.0, 0.0], [100.0, 100.0]), 10);
        let (pairs, t_z) = time(|| zorder_join(&curve, &l_items, &r_items).len());
        let mut db = scq_engine::SpatialDatabase::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
        let cx = db.collection("X");
        let cy = db.collection("Y");
        for (_, bx) in &left {
            db.insert(
                cx,
                Region::from_box(AaBox::new(bx.lo().unwrap(), bx.hi().unwrap())),
            );
        }
        for (_, bx) in &right {
            db.insert(
                cy,
                Region::from_box(AaBox::new(bx.lo().unwrap(), bx.hi().unwrap())),
            );
        }
        let sys = parse_system("X & Y != 0").unwrap();
        let q = scq_engine::Query::new(sys)
            .from_collection("X", cx)
            .from_collection("Y", cy);
        let (_, t_e) = time(|| bbox_execute(&db, &q, IndexKind::RTree).unwrap());
        let t_n = if n <= 2_000 {
            let (_, t) = time(|| {
                l_items
                    .iter()
                    .map(|(lb, _)| r_items.iter().filter(|(rb, _)| lb.overlaps(rb)).count())
                    .sum::<usize>()
            });
            format!("{t:.2}")
        } else {
            "—".into()
        };
        println!("| {n} | {t_z:.2} | {t_e:.2} | {t_n} | {pairs} |");
    }
}

fn b8() {
    println!("\n## B8 — region-algebra operation cost vs fragments (ms)");
    println!("| frags | union | intersection | complement | bbox |");
    println!("|---|---|---|---|---|");
    let alg = RegionAlgebra::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
    for frags in [4usize, 16, 64, 256] {
        let mk = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            Region::from_boxes((0..frags).map(|_| {
                let lo = [rng.random_range(0.0..90.0), rng.random_range(0.0..90.0)];
                let w = [rng.random_range(0.5..6.0), rng.random_range(0.5..6.0)];
                AaBox::new(lo, [lo[0] + w[0], lo[1] + w[1]])
            }))
        };
        let a = mk(1);
        let b = mk(2);
        let (_, tu) = time(|| a.union(&b));
        let (_, ti) = time(|| a.intersection(&b));
        let (_, tc) = time(|| alg.complement(&a));
        let (_, tb) = time(|| a.bbox());
        println!("| {frags} | {tu:.3} | {ti:.3} | {tc:.3} | {tb:.4} |");
    }
}

fn b9() {
    println!("\n## B9 — constructive solver (chain of proper subsets)");
    println!("| n vars | compile ms | solve ms |");
    println!("|---|---|---|");
    use scq_core::constraint::{normalize, Constraint};
    let alg = RegionAlgebra::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
    for n in [2u32, 4, 6, 8] {
        let mut cs = vec![Constraint::NotSubset(Formula::var(Var(0)), Formula::Zero)];
        for i in 0..n - 1 {
            cs.push(Constraint::ProperSubset(
                Formula::var(Var(i)),
                Formula::var(Var(i + 1)),
            ));
        }
        cs.push(Constraint::Subset(
            Formula::var(Var(n - 1)),
            Formula::var(Var(n)),
        ));
        let sys = normalize(&cs);
        let mut order: Vec<Var> = vec![Var(n)];
        order.extend((0..n).rev().map(Var));
        let (tri, t_compile) = time(|| triangularize(&sys, &order));
        let knowns = Assignment::new().with(
            Var(n),
            Region::from_box(AaBox::new([10.0, 10.0], [90.0, 90.0])),
        );
        let (res, t_solve) = time(|| scq_core::solve(&tri, &alg, &knowns).unwrap());
        assert!(res.is_some());
        println!("| {n} | {t_compile:.3} | {t_solve:.3} |");
    }
}

fn b10() {
    println!("\n## B10 — parallel executor and z-order index");
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host CPUs: {cpus} (speedup requires >1)");
    println!("| threads | overlay join ms |");
    println!("|---|---|");
    let (db, q) = {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use scq_engine::workload::clustered_boxes;
        let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);
        let mut db = scq_engine::SpatialDatabase::new(universe);
        let mut rng = StdRng::seed_from_u64(777);
        let xs = db.collection("xs");
        let ys = db.collection("ys");
        for r in clustered_boxes(&mut rng, 30, 60, &universe, 60.0, 14.0) {
            db.insert(xs, r);
        }
        for r in clustered_boxes(&mut rng, 30, 60, &universe, 60.0, 14.0) {
            db.insert(ys, r);
        }
        let sys = parse_system("X & Y != 0; X & K != 0").unwrap();
        let q = scq_engine::Query::new(sys)
            .known(
                "K",
                Region::from_box(AaBox::new([100.0, 100.0], [900.0, 900.0])),
            )
            .from_collection("X", xs)
            .from_collection("Y", ys);
        (db, q)
    };
    let (_, t_seq) = time(|| bbox_execute(&db, &q, IndexKind::RTree).unwrap());
    println!("| 1 (sequential) | {t_seq:.2} |");
    for t in [2usize, 4] {
        let (_, ms) = time(|| {
            scq_engine::bbox_execute_parallel(
                &db,
                &q,
                IndexKind::RTree,
                t,
                scq_engine::ExecOptions::all(),
            )
            .unwrap()
        });
        println!("| {t} | {ms:.2} |");
    }
    println!("\n| n | z-order index ms | rtree ms | (16 overlap queries) |");
    println!("|---|---|---|---|");
    for n in [1_000usize, 10_000, 50_000] {
        let items = random_bboxes(5, n, 3.0);
        let z = scq_zorder::ZOrderIndex::from_items(
            Bbox::new([0.0, 0.0], [100.0, 100.0]),
            10,
            items.iter().copied(),
        );
        let rt = RTree::from_items(SplitStrategy::Quadratic, items.iter().copied());
        let queries: Vec<scq_bbox::CornerQuery<2>> = (0..16)
            .map(|i| {
                let x = (i * 6) as f64;
                scq_bbox::CornerQuery::unconstrained()
                    .and_overlaps(&Bbox::new([x, x], [x + 8.0, x + 8.0]))
            })
            .collect();
        let run = |f: &dyn Fn(&scq_bbox::CornerQuery<2>, &mut Vec<u64>)| {
            let mut out = Vec::new();
            let t = Instant::now();
            for q in &queries {
                out.clear();
                f(q, &mut out);
            }
            t.elapsed().as_secs_f64() * 1e3
        };
        let tz = run(&|q, out| z.query_corner(q, out));
        let tr = run(&|q, out| rt.query_corner(q, out));
        println!("| {n} | {tz:.3} | {tr:.3} | |");
    }
}

fn b11() {
    println!("\n## B11 — sharded database (z-order range partitioning)");
    println!("| shards | smuggler ms | fan-out ms | district ms | shards pruned (district) |");
    println!("|---|---|---|---|---|");
    for n_shards in [1usize, 4, 8, 16] {
        let (db, sq, dq) = sharded_smuggler_setup(1120, 120, n_shards);
        let (_, t_s) = time(|| {
            scq_shard::execute(&db, &sq, IndexKind::RTree, scq_engine::ExecOptions::all()).unwrap()
        });
        let (_, t_f) = time(|| {
            scq_shard::execute_fanout(&db, &sq, IndexKind::RTree, scq_engine::ExecOptions::all())
                .unwrap()
        });
        let (d, t_d) = time(|| {
            scq_shard::execute(&db, &dq, IndexKind::RTree, scq_engine::ExecOptions::all()).unwrap()
        });
        println!(
            "| {n_shards} | {t_s:.2} | {t_f:.2} | {t_d:.2} | {} |",
            d.stats.shards_pruned
        );
    }
}

/// Median of `reps` timed runs of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// CI smoke preset: a handful of representative measurements on small
/// inputs, emitted as a JSON artifact (`BENCH_ci.json`) so the perf
/// trajectory across PRs is machine-readable. Runs in seconds — it
/// exists to catch order-of-magnitude regressions and keep the bench
/// path building, not to replace `cargo bench`.
fn smoke(path: &str) {
    let mut rows: Vec<(&str, f64)> = Vec::new();

    // Join executors on the small smuggler map.
    let (db, q) = smuggler_setup(1120, 120);
    rows.push((
        "b1_bbox_rtree_120_roads_ms",
        median_ms(5, || {
            bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        }),
    ));
    rows.push((
        "b1_triangular_120_roads_ms",
        median_ms(5, || {
            triangular_execute(&db, &q).unwrap();
        }),
    ));

    // Range-query latency, 16 mixed probes per run.
    let items = random_bboxes(7, 10_000, 3.0);
    let rt = RTree::from_items(SplitStrategy::Quadratic, items.iter().copied());
    let grid = GridFile::bulk_load(32, items.iter().copied());
    let queries: Vec<scq_bbox::CornerQuery<2>> = (0..16)
        .map(|i| {
            let x = (i * 6) as f64;
            scq_bbox::CornerQuery::unconstrained()
                .and_overlaps(&Bbox::new([x, x], [x + 8.0, x + 8.0]))
        })
        .collect();
    let mut out = Vec::new();
    rows.push((
        "b4_rtree_10k_16_queries_ms",
        median_ms(5, || {
            for q in &queries {
                out.clear();
                rt.query_corner(q, &mut out);
            }
        }),
    ));
    rows.push((
        "b4_gridfile_10k_16_queries_ms",
        median_ms(5, || {
            for q in &queries {
                out.clear();
                grid.query_corner(q, &mut out);
            }
        }),
    ));

    // Incremental mutation maintenance: seeded churn over two
    // collections, all three indexes maintained per op.
    rows.push((
        "mutation_churn_4k_ops_ms",
        median_ms(3, || {
            let mut db = scq_engine::SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
            let a = db.collection("a");
            let b = db.collection("b");
            scq_engine::workload::churn(&mut db, 99, &[a, b], 4_000);
        }),
    ));

    // Snapshot round trip of a mutated database.
    let mut snap_db = scq_engine::SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
    let a = snap_db.collection("a");
    let b = snap_db.collection("b");
    scq_engine::workload::churn(&mut snap_db, 7, &[a, b], 2_000);
    rows.push((
        "snapshot_roundtrip_churned_ms",
        median_ms(5, || {
            let bytes = scq_engine::snapshot::save(&snap_db);
            let _db: scq_engine::SpatialDatabase<2> = scq_engine::snapshot::load(&bytes).unwrap();
        }),
    ));

    // Sharded preset: the same smuggler workload partitioned across 8
    // z-order range shards, queried through the sharded view. The
    // district query's containment row must let the router prune — the
    // assert keeps the pruning property from silently regressing.
    let (sharded, sq, dq) = sharded_smuggler_setup(1120, 120, 8);
    rows.push((
        "sharded_b1_bbox_rtree_8shards_120_roads_ms",
        median_ms(5, || {
            scq_shard::execute(
                &sharded,
                &sq,
                IndexKind::RTree,
                scq_engine::ExecOptions::all(),
            )
            .unwrap();
        }),
    ));
    rows.push((
        "sharded_fanout_rtree_8shards_120_roads_ms",
        median_ms(5, || {
            scq_shard::execute_fanout(
                &sharded,
                &sq,
                IndexKind::RTree,
                scq_engine::ExecOptions::all(),
            )
            .unwrap();
        }),
    ));
    let district = scq_shard::execute(
        &sharded,
        &dq,
        IndexKind::RTree,
        scq_engine::ExecOptions::all(),
    )
    .unwrap();
    assert!(
        district.stats.shards_pruned > 0,
        "sharded preset lost its pruning: {}",
        district.stats
    );
    rows.push((
        "sharded_district_query_rtree_8shards_ms",
        median_ms(5, || {
            scq_shard::execute(
                &sharded,
                &dq,
                IndexKind::RTree,
                scq_engine::ExecOptions::all(),
            )
            .unwrap();
        }),
    ));
    rows.push((
        "sharded_district_shards_pruned",
        district.stats.shards_pruned as f64,
    ));
    // Tail latency through the observability plane: the district query
    // repeats into a log2-bucket histogram and the artifact carries the
    // derived p99 (gated like a latency row — faster never fails).
    // `slow_queries` counts runs at or past 100 ms and is ceiling-held
    // at 0: an in-process district query crossing that line means the
    // executor, not the runner, went sideways.
    let district_hist = scq_obs::Histogram::new();
    let mut district_slow = 0u64;
    for _ in 0..32 {
        let t0 = std::time::Instant::now();
        scq_shard::execute(
            &sharded,
            &dq,
            IndexKind::RTree,
            scq_engine::ExecOptions::all(),
        )
        .unwrap();
        let elapsed = t0.elapsed();
        district_hist.observe(elapsed);
        if elapsed.as_millis() >= 100 {
            district_slow += 1;
        }
    }
    rows.push((
        "sharded_district_p99_us",
        district_hist.snapshot().quantile_us(0.99) as f64,
    ));
    rows.push(("sharded_district_slow_queries", district_slow as f64));
    // Failure counters, ceiling-gated at 0: on an all-local happy-path
    // run nothing may retry and no shard may be unavailable — these
    // rows existing in the artifact is what lets the gate hold the
    // degraded-read machinery at zero cost when nothing is degraded.
    assert!(
        !district.outcome.is_partial(),
        "happy-path district query must be complete"
    );
    rows.push(("sharded_district_retries", district.stats.retries as f64));
    rows.push((
        "sharded_district_shards_unavailable",
        district.stats.shards_unavailable as f64,
    ));
    rows.push((
        "sharded_district_failovers",
        district.stats.failovers as f64,
    ));
    let breaker_trips: usize = (0..sharded.n_shards())
        .map(|s| {
            scq_shard::ShardBackend::health(sharded.backend(s))
                .iter()
                .map(|r| r.stats.breaker_trips)
                .sum::<usize>()
        })
        .sum();
    rows.push(("sharded_district_breaker_trips", breaker_trips as f64));
    // Cost-based planning rows. `planned_district_row_checks` is a
    // ceiling (the `_row_checks` suffix): the selectivity-planned
    // district execution is held to its baseline enumeration work, so
    // a planner change that picks a worse order — more exact row
    // checks for the same answer — trips the gate even if wall-clock
    // noise hides it.
    let planned_dq = scq_engine::with_selectivity_order(&sharded, &dq, IndexKind::RTree)
        .expect("selectivity planner runs over the sharded view");
    let planned = scq_shard::execute(
        &sharded,
        &planned_dq,
        IndexKind::RTree,
        scq_engine::ExecOptions::all(),
    )
    .unwrap();
    assert_eq!(
        planned.solutions.len(),
        district.solutions.len(),
        "selectivity planning must not change the district answer"
    );
    rows.push((
        "planned_district_row_checks",
        planned.stats.exact_row_checks as f64,
    ));
    rows.push((
        "planned_district_query_rtree_8shards_ms",
        median_ms(5, || {
            let q = scq_engine::with_selectivity_order(&sharded, &dq, IndexKind::RTree).unwrap();
            scq_shard::execute(
                &sharded,
                &q,
                IndexKind::RTree,
                scq_engine::ExecOptions::all(),
            )
            .unwrap();
        }),
    ));
    // Sibling corner-query cache: in the box join `T <= W; R <= W`
    // the R level's corner query references only the known window, so
    // every town candidate after the first reuses the cached roads
    // probe. Floor-gated: these hits vanishing means the cache broke.
    let towns = sharded
        .collection_id("towns")
        .expect("smuggler map has towns");
    let roads = sharded
        .collection_id("roads")
        .expect("smuggler map has roads");
    let boxq_sys = parse_system("T <= W; R <= W").expect("parses");
    let boxq = scq_engine::Query::new(boxq_sys)
        .known(
            "W",
            Region::from_box(AaBox::new([100.0, 100.0], [360.0, 360.0])),
        )
        .from_collection("T", towns)
        .from_collection("R", roads);
    let boxq_result = scq_shard::execute(
        &sharded,
        &boxq,
        IndexKind::RTree,
        scq_engine::ExecOptions::all(),
    )
    .unwrap();
    assert!(
        boxq_result.stats.corner_cache_hits > 0,
        "semi-join-free box join must hit the sibling corner cache: {}",
        boxq_result.stats
    );
    rows.push((
        "sharded_boxjoin_corner_cache_hits",
        boxq_result.stats.corner_cache_hits as f64,
    ));
    rows.push((
        "sharded_snapshot_roundtrip_8shards_ms",
        median_ms(5, || {
            let manifest = scq_shard::snapshot::save_manifest(&sharded);
            let payloads: Vec<_> = (0..sharded.n_shards())
                .map(|s| scq_shard::snapshot::save_shard(&sharded, s).unwrap())
                .collect();
            scq_shard::snapshot::load(&manifest, &payloads).unwrap();
        }),
    ));

    // Durability counters: one in-process WAL write/replay cycle.
    // `wal_fsync_batches` carries records-per-fsync and is floor-gated
    // (group commit must keep batching at least as well as the
    // baseline); torn tails and replay errors are ceilings held at 0 —
    // a clean log that replays with damage is a recovery bug, not
    // noise.
    {
        let dir = std::env::temp_dir().join(format!("scq_bench_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);
        let mut cfg = scq_shard::WalConfig::new(&dir);
        cfg.group_commit = std::time::Duration::from_millis(25);
        let (wal, mut db) = scq_shard::Wal::open(&cfg, universe).expect("open wal");
        let coll = db.collection("w");
        wal.append_durable(&scq_shard::wire::Request::Create { name: "w".into() })
            .expect("log create");
        let mut last = None;
        for i in 0..400u32 {
            let (x, y) = ((i % 90) as f64, ((i * 7) % 90) as f64);
            let region = Region::from_box(AaBox::new([x, y], [x + 3.0, y + 2.0]));
            db.insert(coll, region.clone());
            last = Some(
                wal.append(&scq_shard::wire::Request::Insert { coll, region })
                    .expect("append"),
            );
        }
        if let Some(ticket) = last {
            wal.wait_durable(ticket).expect("group commit lands");
        }
        let write_stats = wal.stats();
        rows.push((
            "wal_fsync_batches",
            write_stats.appended as f64 / write_stats.fsync_batches.max(1) as f64,
        ));
        let live = db.live_len(coll);
        drop(wal);
        let replay_errors = match scq_shard::Wal::open(&cfg, universe) {
            Ok((replayed_wal, replayed_db)) => {
                let s = replayed_wal.stats();
                rows.push(("wal_torn_tails", s.torn_tails as f64));
                let diverged =
                    s.replayed != write_stats.appended || replayed_db.live_len(coll) != live;
                diverged as u64 as f64
            }
            Err(_) => {
                rows.push(("wal_torn_tails", 0.0));
                1.0
            }
        };
        rows.push(("wal_replay_errors", replay_errors));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Multiplexed wire-protocol rows, measured over real sockets.
    // `mux_inflight_depth` is deterministic, not statistical: a
    // FaultProxy gate parks 8 query frames at once, so the row proves
    // 8 requests were simultaneously in flight on ONE multiplexed
    // connection (floor-gated — the depth must never decay).
    // `stream_chunks` counts the MUX_CHUNK frames of a multi-megabyte
    // snapshot answer on a raw mux session (floor-gated — the server
    // must keep streaming chunked answers, not regress to
    // buffer-and-send).
    {
        use scq_shard::wire;
        use scq_shard::{
            serve_shard, Direction, FaultAction, FaultGate, FaultProxy, FaultRule, FrameMatch,
            ProbeTrace, RemoteShard, ShardBackend, ShardServerConfig,
        };
        use std::io::Write;
        use std::time::Duration;

        let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);
        let server = serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            universe_size: 1000.0,
            ..ShardServerConfig::default()
        })
        .expect("bind shard server");
        let proxy = FaultProxy::start(&server.addr().to_string()).expect("bind proxy");
        let mut remote =
            RemoteShard::connect(&proxy.addr().to_string(), universe, Duration::from_secs(5))
                .expect("connect through the proxy");
        let c = remote.create_collection("objs").expect("create");
        remote
            .insert(c, Region::from_box(AaBox::new([10.0, 10.0], [15.0, 15.0])))
            .expect("insert");

        let gate = FaultGate::new();
        proxy.inject(FaultRule {
            direction: Direction::ClientToServer,
            matches: FrameMatch::Opcode(wire::OP_QUERY),
            action: FaultAction::Hold(gate.clone()),
            remaining: 8,
            skip: 0,
        });
        {
            let remote = &remote;
            std::thread::scope(|scope| {
                let waiters: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            remote
                                .try_corner_query(
                                    c,
                                    IndexKind::RTree,
                                    &scq_bbox::CornerQuery::unconstrained(),
                                    &mut out,
                                    &mut ProbeTrace::default(),
                                )
                                .expect("held query completes once the gate opens");
                            out.len()
                        })
                    })
                    .collect();
                assert!(
                    gate.wait_for_holding(8, Duration::from_secs(30)),
                    "8 concurrent queries must park at the gate (holding = {})",
                    gate.holding()
                );
                gate.open();
                for w in waiters {
                    assert_eq!(w.join().expect("no panic"), 1);
                }
            });
        }
        let stats = remote.pool_stats();
        assert_eq!(
            stats.created, 1,
            "one connection must carry the whole depth: {stats:?}"
        );
        rows.push(("mux_inflight_depth", stats.peak_in_flight as f64));

        // Push the snapshot past several chunks with fat (64-box)
        // regions, then count the stream frames on a raw socket.
        for i in 0..2000u64 {
            let x = (i % 40) as f64 * 2.0;
            let y = (i / 40) as f64 * 2.0;
            let cells = (0..64u64).map(|j| {
                let fx = x + (j % 8) as f64 * 0.2;
                let fy = y + (j / 8) as f64 * 0.2;
                AaBox::new([fx, fy], [fx + 0.1, fy + 0.1])
            });
            remote
                .insert(c, Region::from_boxes(cells))
                .expect("insert fat region");
        }
        let mut sock = std::net::TcpStream::connect(server.addr()).expect("raw connect");
        sock.write_all(
            &wire::frame(&wire::encode_request(&wire::Request::Hello {
                version: wire::WIRE_VERSION,
            }))
            .expect("frame hello"),
        )
        .expect("send hello");
        let hello = wire::read_frame(&mut sock)
            .expect("read hello")
            .expect("hello reply");
        match wire::decode_response(&hello).expect("decode hello") {
            wire::Response::Hello { version } => assert_eq!(version, wire::WIRE_VERSION),
            other => panic!("unexpected handshake reply: {other:?}"),
        }
        sock.write_all(
            &wire::frame(&wire::encode_mux(
                wire::MUX_REQ,
                1,
                &wire::encode_request(&wire::Request::SnapshotRead),
            ))
            .expect("frame snapshot request"),
        )
        .expect("send snapshot request");
        let mut chunks = 0u64;
        let mut streamed = 0usize;
        loop {
            let payload = wire::read_frame(&mut sock)
                .expect("read stream frame")
                .expect("stream must end with MUX_END, not EOF");
            let f = wire::decode_mux(&payload).expect("mux frame");
            assert_eq!(f.id, 1, "stream frames carry the request id");
            match f.kind {
                wire::MUX_CHUNK => {
                    chunks += 1;
                    streamed += f.body.len();
                }
                wire::MUX_END => break,
                wire::MUX_RESP => {
                    panic!("a multi-megabyte answer must stream, got one MUX_RESP")
                }
                k => panic!("unexpected mux kind 0x{k:02X}"),
            }
        }
        assert!(
            chunks >= 2,
            "snapshot must span chunks (got {chunks} chunks, {streamed} bytes)"
        );
        rows.push(("stream_chunks", chunks as f64));
        drop(sock);
        drop(remote);
        drop(proxy);
        server.shutdown();
    }

    let mut json = String::from("{\n  \"schema\": 1,\n  \"preset\": \"ci\",\n  \"benches\": [\n");
    for (i, (name, ms)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"median_ms\": {ms:.4}}}{comma}\n"
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json).expect("write bench artifact");
    println!("wrote {} measurements to {path}", rows.len());
}

/// `--gate <baseline.json> <current.json> [factor]`: the CI perf
/// regression gate. Exits nonzero when any `*_ms` median regresses
/// beyond `factor`× its baseline (default 10× — loose enough for
/// shared-runner noise, tight enough to catch order-of-magnitude
/// regressions) or any count row (e.g. shards pruned) decays.
fn gate(baseline_path: &str, current_path: &str, factor: f64) {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read bench artifact {path}: {e}"));
        scq_bench::parse_bench_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
    };
    let gate_rows = scq_bench::gate_rows(&read(baseline_path), &read(current_path), factor);
    let failed = gate_rows.iter().filter(|r| !r.passed).count();
    for r in &gate_rows {
        if r.passed {
            println!("{}", r.detail);
        } else {
            eprintln!("REGRESSION: {}", r.detail);
        }
    }
    step_summary(&gate_rows, baseline_path, factor, failed);
    if failed > 0 {
        eprintln!("bench gate FAILED ({factor}x tolerance vs {baseline_path})");
        std::process::exit(1);
    }
    println!("bench gate passed ({factor}x tolerance vs {baseline_path})");
}

/// Appends the gate's per-row pass/fail table to the file named by
/// `$GITHUB_STEP_SUMMARY` when set, so a CI run shows the verdicts on
/// the workflow summary page without digging through logs. A missing
/// or unwritable summary file never fails the gate — the gate's
/// verdict is the exit code, the table is a courtesy.
fn step_summary(rows: &[scq_bench::GateRow], baseline_path: &str, factor: f64, failed: usize) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mut md = format!(
        "### Bench gate ({factor}x tolerance vs `{baseline_path}`)\n\n\
         | row | status | detail |\n|---|---|---|\n"
    );
    for r in rows {
        let status = if r.passed { "✅ pass" } else { "❌ FAIL" };
        let prefix = format!("{}: ", r.name);
        let detail = r.detail.strip_prefix(&prefix).unwrap_or(&r.detail);
        md.push_str(&format!("| `{}` | {status} | {detail} |\n", r.name));
    }
    md.push_str(&format!(
        "\n**{}** rows checked, **{failed}** failing.\n\n",
        rows.len()
    ));
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            if let Err(e) = f.write_all(md.as_bytes()) {
                eprintln!("write step summary {path}: {e}");
            }
        }
        Err(e) => eprintln!("open step summary {path}: {e}"),
    }
}

/// Open file descriptors of this process, via `/proc` (Linux-only, the
/// only platform CI runs on). 0 when `/proc` is unavailable, which
/// disables the leak assertion rather than failing it spuriously.
fn count_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Live threads of this process, from `/proc/self/status`.
fn count_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// `--soak [seconds]`: the CI soak driver. Boots a 2-shard WAL-backed
/// cluster behind FaultProxies, runs 64 concurrent query clients over
/// multiplexed connections while the proxies garble and sever streamed
/// response frames, and then proves the damage stayed contained:
/// healed answers equal the pre-fault oracle, every shard's integrity
/// check is clean, at least one connection carried ≥8 requests in
/// flight, no file descriptors or threads leaked, and both WALs reopen
/// with zero torn tails. Panics (nonzero exit) on any violation.
fn soak(budget_secs: u64) {
    use scq_shard::{
        serve_shard, ClusterSpec, Direction, FaultAction, FaultProxy, FaultRule, FrameMatch,
        ShardBackend, ShardServerConfig, Wal, WalConfig,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    let t_start = Instant::now();
    let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);
    let base = std::env::temp_dir().join(format!("scq_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut servers = Vec::new();
    let mut proxies = Vec::new();
    for i in 0..2 {
        let mut wal = WalConfig::new(base.join(format!("wal{i}")));
        wal.group_commit = Duration::from_millis(25);
        let server = serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            universe_size: 1000.0,
            wal: Some(wal),
            ..ShardServerConfig::default()
        })
        .expect("bind soak shard");
        proxies.push(FaultProxy::start(&server.addr().to_string()).expect("bind soak proxy"));
        servers.push(server);
    }
    let addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
    let spec = ClusterSpec::balanced(universe, 6, &addrs);
    let mut db = spec
        .connect(Duration::from_secs(15))
        .expect("connect soak cluster");

    // Clean mutation phase: a deterministic fixture, no faults. The
    // fault phase below is read-only — reads retry transparently,
    // mutations never do, so corrupting a mutation's reply would turn
    // a transport fault into a (correct but noisy) client error.
    let towns = db.collection("towns");
    let roads = db.collection("roads");
    for i in 0..400u64 {
        let x = (i % 20) as f64 * 48.0 + 4.0;
        let y = (i / 20) as f64 * 48.0 + 4.0;
        db.insert(
            towns,
            Region::from_box(AaBox::new([x, y], [x + 6.0, y + 6.0])),
        );
        db.insert(
            roads,
            Region::from_box(AaBox::new([x - 2.0, y + 1.0], [x + 10.0, y + 2.5])),
        );
    }
    let sys = scq_core::parse_system("T <= W; R & T != 0").expect("parses");
    let dq = scq_engine::Query::new(sys)
        .known(
            "W",
            Region::from_box(AaBox::new([100.0, 100.0], [360.0, 360.0])),
        )
        .from_collection("T", towns)
        .from_collection("R", roads);
    let run = |db: &scq_shard::ShardedDatabase<scq_shard::RemoteShard>| {
        scq_shard::execute(db, &dq, IndexKind::RTree, scq_engine::ExecOptions::all())
    };
    let oracle = run(&db).expect("clean oracle query");
    assert!(!oracle.outcome.is_partial(), "oracle must be complete");
    let oracle_solutions = oracle.solutions.len();
    assert!(oracle_solutions > 0, "the soak query must select something");
    for s in 0..db.n_shards() {
        for h in ShardBackend::health(db.backend(s)) {
            assert_eq!(
                h.stats.created, 1,
                "the clean phase must multiplex on one connection per shard: {h:?}"
            );
            assert_eq!(
                h.stats.wire_version,
                scq_shard::wire::WIRE_VERSION,
                "soak speaks the one wire version: {h:?}"
            );
        }
    }

    // Leak baseline: everything long-lived (servers, proxies, one mux
    // connection per shard with its reader thread) already exists.
    let fd_baseline = count_fds();
    let thread_baseline = count_threads();

    let queries_done = AtomicUsize::new(0);
    let mut rounds = 0u64;
    let budget = Duration::from_secs(budget_secs);
    while rounds == 0 || t_start.elapsed() < budget {
        rounds += 1;
        for p in &proxies {
            // Transport faults only: a mid-frame close (Truncate) and
            // outright severs. Both surface as transport errors, which
            // the degraded-read path retries or reports as Partial.
            // Garble is deliberately absent here — a corrupted-but-
            // complete frame is a *protocol* error, which the router
            // treats as a bug (panic), not as weather; it has its own
            // scoped unit tests.
            p.inject(FaultRule {
                direction: Direction::ServerToClient,
                matches: FrameMatch::Any,
                action: FaultAction::Truncate { keep: 100 },
                remaining: 2,
                skip: 3,
            });
            p.inject(FaultRule {
                direction: Direction::ServerToClient,
                matches: FrameMatch::Any,
                action: FaultAction::Sever,
                remaining: 2,
                skip: 40,
            });
        }
        std::thread::scope(|scope| {
            for _ in 0..64 {
                let db = &db;
                let queries_done = &queries_done;
                let run = &run;
                scope.spawn(move || {
                    for _ in 0..4 {
                        // Degraded (partial or failed) reads are
                        // expected mid-fault; what matters is the
                        // post-heal convergence check below.
                        let _ = run(db);
                        queries_done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for p in &proxies {
            p.clear_rules();
            p.heal();
        }
        let verdict = run(&db).expect("query after faults heal");
        assert!(
            !verdict.outcome.is_partial(),
            "healed cluster must answer completely (round {rounds})"
        );
        assert_eq!(
            verdict.solutions.len(),
            oracle_solutions,
            "faults must never change answers (round {rounds})"
        );
    }

    // Zero desyncs: every shard's integrity check stays clean.
    for s in 0..db.n_shards() {
        let complaints = db.backend(s).check();
        assert!(complaints.is_empty(), "shard {s} integrity: {complaints:?}");
    }
    let peak = (0..db.n_shards())
        .flat_map(|s| ShardBackend::health(db.backend(s)))
        .map(|h| h.stats.peak_in_flight)
        .max()
        .unwrap_or(0);
    assert!(
        peak >= 8,
        "64 clients over 2 shards must drive ≥8 concurrent in-flight requests (peak {peak})"
    );

    // Leak check: severed connections' reader and proxy pump threads
    // must exit and their sockets close. Poll briefly — thread exit is
    // asynchronous — then fail hard.
    let mut settled = false;
    for _ in 0..100 {
        if count_fds() <= fd_baseline && count_threads() <= thread_baseline {
            settled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        settled,
        "leaked fds or threads: fds {} (baseline {fd_baseline}), threads {} (baseline {thread_baseline})",
        count_fds(),
        count_threads()
    );

    drop(db);
    drop(proxies);
    for s in servers {
        s.shutdown();
    }
    // Durability: both WALs reopen with zero torn tails after the
    // whole fault schedule.
    for i in 0..2 {
        let cfg = WalConfig::new(base.join(format!("wal{i}")));
        let (wal, _db) = Wal::open(&cfg, universe).expect("reopen soak wal");
        let stats = wal.stats();
        assert_eq!(
            stats.torn_tails, 0,
            "soak wal {i} must reopen with zero torn tails: {stats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
    println!(
        "soak passed: {rounds} fault rounds, {} queries, peak in-flight {peak}, \
         fds/threads back to baseline ({fd_baseline}/{thread_baseline}), zero torn tails",
        queries_done.load(Ordering::Relaxed)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--gate") {
        let (Some(baseline), Some(current)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("usage: experiments --gate <baseline.json> <current.json> [factor]");
            std::process::exit(2);
        };
        let factor = args.get(i + 3).and_then(|f| f.parse().ok()).unwrap_or(10.0);
        gate(baseline, current, factor);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--soak") {
        let budget = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(90);
        soak(budget);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--smoke") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_ci.json");
        smoke(path);
        return;
    }
    println!("# Experiment summary (generated by `cargo run --release -p scq-bench --bin experiments`)\n");
    b1();
    b2();
    b3();
    b4();
    b5();
    b6();
    b7();
    b8();
    b9();
    b10();
    b11();
}
