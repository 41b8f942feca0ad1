//! Shared helpers for the experiment benches (B1–B8).
//!
//! Each bench in `benches/` regenerates one experiment row/series of
//! the table the `experiments` binary prints. The helpers here build
//! deterministic databases and query sets so that criterion timings
//! and the printed auxiliary statistics (solution counts, candidate
//! counts, false-positive rates) are reproducible.

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use scq_bbox::Bbox;
use scq_engine::workload::{map_workload, MapParams};
use scq_engine::{ObjectRef, Query, SpatialDatabase};
use scq_region::{AaBox, Region};
use scq_shard::ShardedDatabase;

/// Criterion tuned for a large suite: short warm-up, few samples. The
/// shapes (who wins, scaling exponents) are robust to this; absolute
/// numbers are machine-specific anyway.
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10)
        .configure_from_args()
}

/// Random boxes with the given count inside the 0..100 square.
pub fn random_bboxes(seed: u64, n: usize, max_size: f64) -> Vec<(u64, Bbox<2>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            let lo = [rng.random_range(0.0..95.0), rng.random_range(0.0..95.0)];
            let w = [
                rng.random_range(0.1..max_size),
                rng.random_range(0.1..max_size),
            ];
            (
                id,
                Bbox::new(lo, [(lo[0] + w[0]).min(100.0), (lo[1] + w[1]).min(100.0)]),
            )
        })
        .collect()
}

/// Random single-box regions.
pub fn random_regions(seed: u64, n: usize, max_size: f64) -> Vec<Region<2>> {
    random_bboxes(seed, n, max_size)
        .into_iter()
        .map(|(_, b)| Region::from_box(AaBox::new(b.lo().unwrap(), b.hi().unwrap())))
        .collect()
}

/// The smuggler benchmark database at a given scale.
pub fn smuggler_setup(seed: u64, n_roads: usize) -> (SpatialDatabase<2>, Query<2>) {
    let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
    let w = map_workload(
        &mut db,
        seed,
        &MapParams {
            n_states: 8,
            n_towns: n_roads / 4,
            n_roads,
            useful_road_fraction: 0.05,
        },
    );
    let sys =
        scq_core::parse_system("A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T < C")
            .expect("parses");
    let q = Query::new(sys)
        .known("C", w.country.clone())
        .known("A", w.area.clone())
        .from_collection("T", w.towns)
        .from_collection("R", w.roads)
        .from_collection("B", w.states)
        .with_order(&["T", "R", "B"]);
    (db, q)
}

/// The smuggler benchmark database partitioned across `n_shards`,
/// plus two queries: the full smuggler join and a **district** query
/// (`T` contained in a small corner window) whose containment row lets
/// the z-order router prune shards.
pub fn sharded_smuggler_setup(
    seed: u64,
    n_roads: usize,
    n_shards: usize,
) -> (ShardedDatabase, Query<2>, Query<2>) {
    let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);
    let mut plain = SpatialDatabase::new(universe);
    let w = map_workload(
        &mut plain,
        seed,
        &MapParams {
            n_states: 8,
            n_towns: n_roads / 4,
            n_roads,
            useful_road_fraction: 0.05,
        },
    );
    let mut db = ShardedDatabase::new(universe, n_shards);
    for coll in plain.collections() {
        let dst = db.collection(plain.collection_name(coll));
        assert_eq!(dst, coll, "collection ids stay aligned");
        for index in plain.object_indices(coll) {
            let obj = ObjectRef {
                collection: coll,
                index,
            };
            db.insert(dst, plain.region(obj).clone());
        }
    }
    let sys =
        scq_core::parse_system("A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T < C")
            .expect("parses");
    let smuggler = Query::new(sys)
        .known("C", w.country.clone())
        .known("A", w.area.clone())
        .from_collection("T", w.towns)
        .from_collection("R", w.roads)
        .from_collection("B", w.states)
        .with_order(&["T", "R", "B"]);
    let district_sys = scq_core::parse_system("T <= W; R & T != 0").expect("parses");
    let district = Query::new(district_sys)
        .known(
            "W",
            Region::from_box(AaBox::new([100.0, 100.0], [360.0, 360.0])),
        )
        .from_collection("T", w.towns)
        .from_collection("R", w.roads);
    (db, smuggler, district)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_deterministic() {
        assert_eq!(random_bboxes(1, 10, 5.0), random_bboxes(1, 10, 5.0));
        let (db1, _) = smuggler_setup(3, 40);
        let (db2, _) = smuggler_setup(3, 40);
        assert_eq!(
            db1.collection_len(db1.collection_id("roads").unwrap()),
            db2.collection_len(db2.collection_id("roads").unwrap())
        );
    }

    #[test]
    fn sharded_setup_matches_unsharded_answers() {
        let (plain, q) = smuggler_setup(9, 40);
        let (sharded, sq, district) = sharded_smuggler_setup(9, 40, 8);
        let a = scq_engine::bbox_execute(&plain, &q, scq_engine::IndexKind::RTree).unwrap();
        let b = scq_shard::execute(
            &sharded,
            &sq,
            scq_engine::IndexKind::RTree,
            scq_engine::ExecOptions::all(),
        )
        .unwrap();
        assert_eq!(a.stats.solutions, b.stats.solutions);
        let d = scq_shard::execute(
            &sharded,
            &district,
            scq_engine::IndexKind::RTree,
            scq_engine::ExecOptions::all(),
        )
        .unwrap();
        assert!(
            d.stats.shards_pruned > 0,
            "district query must prune shards: {}",
            d.stats
        );
    }
}

// ── bench regression gate ───────────────────────────────────────────────

/// One measured row of a bench artifact: name and value (`*_ms` rows
/// are medians in milliseconds; other rows are counts).
pub type BenchRow = (String, f64);

/// Parses the `BENCH_*.json` artifact format written by the smoke
/// preset (`{"benches": [{"name": …, "median_ms": …}, …]}`). The
/// writer is in this repository, so the parser matches its exact
/// shape rather than dragging in a JSON dependency; anything it cannot
/// read is an error, not a silently empty baseline.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRow>, String> {
    let mut rows = Vec::new();
    for obj in text.split('{').skip(1) {
        let Some(name_at) = obj.find("\"name\"") else {
            continue; // the envelope object
        };
        let name = obj[name_at..]
            .split('"')
            .nth(3)
            .ok_or_else(|| format!("unterminated name near {:.40}…", &obj[name_at..]))?
            .to_string();
        let value_at = obj
            .find("\"median_ms\"")
            .ok_or_else(|| format!("row {name:?} has no median_ms field"))?;
        let raw = obj[value_at..]
            .split(':')
            .nth(1)
            .and_then(|v| v.split(['}', ',', '\n']).next())
            .ok_or_else(|| format!("row {name:?} has a malformed median_ms"))?
            .trim();
        let value: f64 = raw
            .parse()
            .map_err(|_| format!("row {name:?}: {raw:?} is not a number"))?;
        rows.push((name, value));
    }
    if rows.is_empty() {
        return Err("no bench rows found".into());
    }
    Ok(rows)
}

/// Compares a current bench artifact against a checked-in baseline.
///
/// * `*_ms` rows regress when the current median exceeds
///   `baseline × factor` **and** the absolute growth exceeds a small
///   noise floor (0.25 ms) — sub-millisecond rows on shared CI runners
///   jitter by integer factors without meaning anything.
/// * `*_us` rows (histogram-derived latency quantiles, e.g.
///   `sharded_district_p99_us`) gate the same way, with the same noise
///   floor expressed in microseconds — a *faster* p99 must never fail
///   the gate, so they are latency rows, not count rows.
/// * count rows (no `_ms`/`_us` suffix, e.g. shards pruned) regress
///   when the current value drops below the baseline — pruning counts
///   must never silently decay.
/// * **ceiling** count rows — names ending in `_retries`,
///   `_shards_unavailable`, `_failovers`, `_breaker_trips`,
///   `_torn_tails`, `_replay_errors`, `_slow_queries` or
///   `_row_checks` — regress when the current value *exceeds* the
///   baseline: the first seven are failure counters held at 0 on the
///   happy path (growth means connections flapped, shards vanished,
///   WAL recovery hit damage, or a query crossed the slow threshold),
///   while `_row_checks` rows bound the executor's enumeration work —
///   a cost-based plan that starts checking *more* rows than the
///   baseline has silently lost its selectivity advantage.
/// * a baseline row missing from the current artifact is a regression
///   (a deleted bench would otherwise vanish from the gate unnoticed);
///   new rows in the current artifact are fine.
///
/// Returns the per-row report lines on success, the violation lines on
/// failure.
pub fn gate_benches(
    baseline: &[BenchRow],
    current: &[BenchRow],
    factor: f64,
) -> Result<Vec<String>, Vec<String>> {
    let rows = gate_rows(baseline, current, factor);
    let failed: Vec<String> = rows
        .iter()
        .filter(|r| !r.passed)
        .map(|r| r.detail.clone())
        .collect();
    if failed.is_empty() {
        Ok(rows.into_iter().map(|r| r.detail).collect())
    } else {
        Err(failed)
    }
}

/// One baseline row's gate verdict: the row name, a human-readable
/// detail line, and whether it passed. This is the structured form
/// behind [`gate_benches`], kept separate so callers can render a
/// per-row pass/fail table (the CI step summary) without re-parsing
/// the report strings.
pub struct GateRow {
    /// The bench row's name.
    pub name: String,
    /// The rendered comparison (`name: value vs baseline …`).
    pub detail: String,
    /// Whether the row is within its gate.
    pub passed: bool,
}

/// Evaluates every baseline row against the current artifact. See
/// [`gate_benches`] for the row classification rules.
pub fn gate_rows(baseline: &[BenchRow], current: &[BenchRow], factor: f64) -> Vec<GateRow> {
    const NOISE_FLOOR_MS: f64 = 0.25;
    let mut rows = Vec::new();
    let mut push = |name: &str, detail: String, passed: bool| {
        rows.push(GateRow {
            name: name.to_string(),
            detail,
            passed,
        });
    };
    for (name, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(n, _)| n == name) else {
            push(
                name,
                format!("{name}: present in the baseline, missing from the run"),
                false,
            );
            continue;
        };
        let is_ceiling = name.ends_with("_retries")
            || name.ends_with("_shards_unavailable")
            || name.ends_with("_failovers")
            || name.ends_with("_breaker_trips")
            || name.ends_with("_torn_tails")
            || name.ends_with("_replay_errors")
            || name.ends_with("_slow_queries")
            || name.ends_with("_row_checks");
        if name.ends_with("_ms") {
            let limit = base * factor;
            if *cur > limit && cur - base > NOISE_FLOOR_MS {
                push(
                    name,
                    format!("{name}: {cur:.4} ms exceeds {factor}x baseline ({base:.4} ms)"),
                    false,
                );
            } else {
                push(
                    name,
                    format!("{name}: {cur:.4} ms (baseline {base:.4} ms) ok"),
                    true,
                );
            }
        } else if name.ends_with("_us") {
            // Histogram-derived latency quantiles: same factor gate as
            // the `_ms` rows (faster must never fail), same noise
            // floor in this unit.
            let limit = base * factor;
            if *cur > limit && cur - base > NOISE_FLOOR_MS * 1000.0 {
                push(
                    name,
                    format!("{name}: {cur:.1} us exceeds {factor}x baseline ({base:.1} us)"),
                    false,
                );
            } else {
                push(
                    name,
                    format!("{name}: {cur:.1} us (baseline {base:.1} us) ok"),
                    true,
                );
            }
        } else if is_ceiling && cur > base {
            push(
                name,
                format!(
                    "{name}: {cur} exceeds the baseline {base} (a ceiling row — failure counter \
                     or planner work bound — must stay at its baseline value)"
                ),
                false,
            );
        } else if !is_ceiling && cur < base {
            push(
                name,
                format!(
                    "{name}: {cur} fell below the baseline {base} (a pruning/count row must not \
                     decay)"
                ),
                false,
            );
        } else {
            push(name, format!("{name}: {cur} (baseline {base}) ok"), true);
        }
    }
    rows
}

#[cfg(test)]
mod gate_tests {
    use super::*;

    fn rows(pairs: &[(&str, f64)]) -> Vec<BenchRow> {
        pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn artifact_format_round_trips() {
        let json = "{\n  \"schema\": 1,\n  \"preset\": \"ci\",\n  \"benches\": [\n    \
                    {\"name\": \"a_ms\", \"median_ms\": 1.2500},\n    \
                    {\"name\": \"b_count\", \"median_ms\": 6.0000}\n  ]\n}\n";
        let rows = parse_bench_json(json).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "a_ms");
        assert!((rows[0].1 - 1.25).abs() < 1e-9);
        assert!(
            parse_bench_json("{}").is_err(),
            "empty artifact is an error"
        );
        assert!(parse_bench_json("not json at all").is_err());
    }

    #[test]
    fn time_rows_gate_on_factor_above_the_noise_floor() {
        let base = rows(&[("solve_ms", 2.0)]);
        assert!(gate_benches(&base, &rows(&[("solve_ms", 3.9)]), 2.0).is_ok());
        assert!(gate_benches(&base, &rows(&[("solve_ms", 4.5)]), 2.0).is_err());
        // a tiny row blowing past the factor but inside the noise
        // floor passes
        let tiny = rows(&[("q_ms", 0.01)]);
        assert!(gate_benches(&tiny, &rows(&[("q_ms", 0.2)]), 2.0).is_ok());
        assert!(gate_benches(&tiny, &rows(&[("q_ms", 0.9)]), 2.0).is_err());
    }

    #[test]
    fn count_rows_must_not_decay_and_rows_must_not_vanish() {
        let base = rows(&[("pruned", 6.0), ("solve_ms", 1.0)]);
        let ok = rows(&[("pruned", 7.0), ("solve_ms", 1.0), ("extra_ms", 9.0)]);
        assert!(
            gate_benches(&base, &ok, 10.0).is_ok(),
            "growth and new rows pass"
        );
        let decayed = rows(&[("pruned", 5.0), ("solve_ms", 1.0)]);
        assert!(gate_benches(&base, &decayed, 10.0).is_err());
        let missing = rows(&[("solve_ms", 1.0)]);
        let err = gate_benches(&base, &missing, 10.0).unwrap_err();
        assert!(err[0].contains("missing"), "{err:?}");
    }

    #[test]
    fn failure_counter_rows_gate_on_a_ceiling() {
        let base = rows(&[("q_retries", 0.0), ("q_shards_unavailable", 0.0)]);
        assert!(
            gate_benches(&base, &base, 10.0).is_ok(),
            "zero matches zero"
        );
        let flapping = rows(&[("q_retries", 2.0), ("q_shards_unavailable", 0.0)]);
        let err = gate_benches(&base, &flapping, 10.0).unwrap_err();
        assert!(err[0].contains("failure counter"), "{err:?}");
        let degraded = rows(&[("q_retries", 0.0), ("q_shards_unavailable", 1.0)]);
        assert!(gate_benches(&base, &degraded, 10.0).is_err());
        // replication counters are ceilings too: a happy-path run that
        // failed over or tripped a breaker is a regression, not growth
        let rep = rows(&[("q_failovers", 0.0), ("q_breaker_trips", 0.0)]);
        assert!(gate_benches(&rep, &rep, 10.0).is_ok());
        let failed_over = rows(&[("q_failovers", 1.0), ("q_breaker_trips", 0.0)]);
        assert!(gate_benches(&rep, &failed_over, 10.0).is_err());
        let tripped = rows(&[("q_failovers", 0.0), ("q_breaker_trips", 1.0)]);
        assert!(gate_benches(&rep, &tripped, 10.0).is_err());
        // durability counters: torn tails and replay errors are held
        // at zero, while fsync batching is a floor (group commit must
        // keep batching at least as well as the baseline).
        let wal = rows(&[
            ("wal_torn_tails", 0.0),
            ("wal_replay_errors", 0.0),
            ("wal_fsync_batches", 2.0),
        ]);
        assert!(gate_benches(&wal, &wal, 10.0).is_ok());
        let torn = rows(&[
            ("wal_torn_tails", 1.0),
            ("wal_replay_errors", 0.0),
            ("wal_fsync_batches", 2.0),
        ]);
        assert!(gate_benches(&wal, &torn, 10.0).is_err());
        let rejected = rows(&[
            ("wal_torn_tails", 0.0),
            ("wal_replay_errors", 1.0),
            ("wal_fsync_batches", 2.0),
        ]);
        assert!(gate_benches(&wal, &rejected, 10.0).is_err());
        let unbatched = rows(&[
            ("wal_torn_tails", 0.0),
            ("wal_replay_errors", 0.0),
            ("wal_fsync_batches", 1.0),
        ]);
        assert!(
            gate_benches(&wal, &unbatched, 10.0).is_err(),
            "records-per-fsync decaying below baseline means group commit stopped batching"
        );
        // planner work rows: `_row_checks` is a ceiling (a cost-based
        // plan must not start enumerating more rows than the
        // baseline), while plain counts like cache hits stay floors.
        let planner = rows(&[
            ("planned_district_row_checks", 40.0),
            ("district_corner_cache_hits", 12.0),
        ]);
        assert!(gate_benches(&planner, &planner, 10.0).is_ok());
        let wasteful = rows(&[
            ("planned_district_row_checks", 41.0),
            ("district_corner_cache_hits", 12.0),
        ]);
        assert!(
            gate_benches(&planner, &wasteful, 10.0).is_err(),
            "more row checks than baseline means the plan lost selectivity"
        );
        let cold = rows(&[
            ("planned_district_row_checks", 40.0),
            ("district_corner_cache_hits", 11.0),
        ]);
        assert!(
            gate_benches(&planner, &cold, 10.0).is_err(),
            "corner-cache hits are a floor like any other count row"
        );
    }
}
