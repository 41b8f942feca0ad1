//! Execution statistics shared by all executors.

/// Microseconds elapsed since `start`, clamped into `u64` — the unit
/// every timing field of [`ExecStats`] uses.
pub fn elapsed_us(start: std::time::Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Nanoseconds an execution spent in its per-call timed sections.
///
/// A row check is often shorter than a microsecond, so summing each
/// call's whole microseconds would add 0 for most of them. Executors
/// add nanoseconds here and fold them into [`ExecStats::probe_us`] /
/// [`ExecStats::check_us`] once, when the result is built.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Timings {
    probe_ns: u64,
    check_ns: u64,
}

impl Timings {
    /// Adds the time since `start` to the candidate-production total.
    pub(crate) fn probe(&mut self, start: std::time::Instant) {
        self.probe_ns = self.probe_ns.saturating_add(elapsed_ns(start));
    }

    /// Adds the time since `start` to the exact-row-check total.
    pub(crate) fn check(&mut self, start: std::time::Instant) {
        self.check_ns = self.check_ns.saturating_add(elapsed_ns(start));
    }

    /// Converts the totals to microseconds and adds them to `stats`.
    pub(crate) fn fold_into(self, stats: &mut ExecStats) {
        stats.probe_us = stats.probe_us.saturating_add(self.probe_ns / 1_000);
        stats.check_us = stats.check_us.saturating_add(self.check_ns / 1_000);
    }
}

fn elapsed_ns(start: std::time::Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Counters describing how much work an execution did.
///
/// The interesting comparison across executors (`scq smuggler`):
/// `partial_tuples` and `exact_row_checks` shrink dramatically when the
/// triangular form prunes early, and `index_candidates` shows how
/// selective the range queries are compared to full collection scans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Solutions emitted.
    pub solutions: usize,
    /// Partial tuples extended at any level (nodes of the search tree).
    pub partial_tuples: usize,
    /// Candidates produced by index range queries (bbox executor) or by
    /// collection enumeration (other executors).
    pub index_candidates: usize,
    /// Exact solved-row evaluations (region algebra work).
    pub exact_row_checks: usize,
    /// Partial tuples rejected by an exact row check.
    pub row_rejections: usize,
    /// Full constraint-system evaluations (naive executor only).
    pub full_system_checks: usize,
    /// Candidates rejected before any region algebra ran by the
    /// exact-bound box prefilter: the candidate's box must contain the
    /// box of the level's bound lower bound `s` and lie within that of
    /// its upper bound `t` (met with the corner query when a scan, not
    /// an index, produced the candidates).
    pub bbox_prefilter_rejections: usize,
    /// Candidate regions read by reference into the search: by every
    /// exact row check (the region stays bound if the row admits it) and
    /// by every binding of the naive executor.
    pub regions_bound: usize,
    /// Tombstoned slots skipped during collection enumeration (index
    /// range queries never surface tombstones, so this counts only the
    /// full-scan paths).
    pub tombstones_skipped: usize,
    /// Shards the router proved disjoint from a range query and never
    /// probed (always 0 against an unsharded database).
    pub shards_pruned: usize,
    /// Levels where the backtracking search reused the previous
    /// sibling's corner-query answer: the prefix boxes feeding the
    /// level's `corner_query` were unchanged (and the collection's
    /// mutation epoch too), so the range query was not re-issued.
    pub corner_cache_hits: usize,
    /// Levels where the sibling corner-query cache could not help —
    /// the level's corner query changed since the previous sibling (or
    /// there was no previous sibling), so the index was probed.
    pub corner_cache_misses: usize,
    /// Shard probes that found the shard unavailable (process dead or
    /// unreachable after the transport's one reconnect attempt). Each
    /// such probe lost that shard's candidates — the query result is
    /// partial (see `QueryOutcome`). Always 0 on a healthy cluster.
    pub shards_unavailable: usize,
    /// Transport-level reconnect-and-retry events the shard backends
    /// performed while answering idempotent requests. Nonzero means
    /// connections broke mid-query but the answers stayed complete.
    pub retries: usize,
    /// Replica failovers the shard backends performed: an earlier
    /// replica (usually the primary) was unreachable or skipped by its
    /// circuit breaker and a later replica answered instead. Always 0
    /// on a healthy cluster and against an unsharded database.
    pub failovers: usize,
    /// Shard probes whose answer was served by a non-primary replica —
    /// complete but **stale-flagged** (see `ProbeReport::stale_shards`).
    pub stale_answers: usize,
    /// Wall-clock microseconds spent producing candidates (index range
    /// queries / shard probes / collection enumeration).
    pub probe_us: u64,
    /// Wall-clock microseconds spent on exact solved-row checks: each
    /// level's bound evaluation plus every candidate's test against it.
    pub check_us: u64,
    /// Wall-clock microseconds the router spent planning shard routes
    /// (always 0 against an unsharded database).
    pub route_us: u64,
    /// End-to-end wall-clock microseconds of the execution that
    /// produced this block. Merging keeps the **maximum**: the slowest
    /// of the merged executions.
    pub total_us: u64,
}

impl ExecStats {
    /// Aggregates another stat block into this one, field by field with
    /// **saturating** adds — counters summed over many executions (the
    /// benchmark's per-layer replay) degrade to `usize::MAX` instead of
    /// wrapping.
    pub fn merge(&mut self, other: &ExecStats) {
        let ExecStats {
            solutions,
            partial_tuples,
            index_candidates,
            exact_row_checks,
            row_rejections,
            full_system_checks,
            bbox_prefilter_rejections,
            regions_bound,
            tombstones_skipped,
            shards_pruned,
            corner_cache_hits,
            corner_cache_misses,
            shards_unavailable,
            retries,
            failovers,
            stale_answers,
            probe_us,
            check_us,
            route_us,
            total_us,
        } = other;
        self.solutions = self.solutions.saturating_add(*solutions);
        self.partial_tuples = self.partial_tuples.saturating_add(*partial_tuples);
        self.index_candidates = self.index_candidates.saturating_add(*index_candidates);
        self.exact_row_checks = self.exact_row_checks.saturating_add(*exact_row_checks);
        self.row_rejections = self.row_rejections.saturating_add(*row_rejections);
        self.full_system_checks = self.full_system_checks.saturating_add(*full_system_checks);
        self.bbox_prefilter_rejections = self
            .bbox_prefilter_rejections
            .saturating_add(*bbox_prefilter_rejections);
        self.regions_bound = self.regions_bound.saturating_add(*regions_bound);
        self.tombstones_skipped = self.tombstones_skipped.saturating_add(*tombstones_skipped);
        self.shards_pruned = self.shards_pruned.saturating_add(*shards_pruned);
        self.corner_cache_hits = self.corner_cache_hits.saturating_add(*corner_cache_hits);
        self.corner_cache_misses = self
            .corner_cache_misses
            .saturating_add(*corner_cache_misses);
        self.shards_unavailable = self.shards_unavailable.saturating_add(*shards_unavailable);
        self.retries = self.retries.saturating_add(*retries);
        self.failovers = self.failovers.saturating_add(*failovers);
        self.stale_answers = self.stale_answers.saturating_add(*stale_answers);
        self.probe_us = self.probe_us.saturating_add(*probe_us);
        self.check_us = self.check_us.saturating_add(*check_us);
        self.route_us = self.route_us.saturating_add(*route_us);
        self.total_us = self.total_us.max(*total_us);
    }

    /// This block with the wall-clock timing fields zeroed — the
    /// deterministic part. Tests comparing two executions for equality
    /// compare `a.without_timings() == b.without_timings()`; the raw
    /// blocks differ on every run because timings are measurements,
    /// not counts.
    pub fn without_timings(mut self) -> ExecStats {
        self.probe_us = 0;
        self.check_us = 0;
        self.route_us = 0;
        self.total_us = 0;
        self
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solutions={} partials={} candidates={} row_checks={} row_rejects={} \
             full_checks={} bbox_rejects={} bound={} tombstones={} shards_pruned={} \
             corner_cache_hits={} corner_cache_misses={} \
             shards_unavailable={} retries={} failovers={} stale_answers={} \
             probe_us={} check_us={} route_us={} total_us={}",
            self.solutions,
            self.partial_tuples,
            self.index_candidates,
            self.exact_row_checks,
            self.row_rejections,
            self.full_system_checks,
            self.bbox_prefilter_rejections,
            self.regions_bound,
            self.tombstones_skipped,
            self.shards_pruned,
            self.corner_cache_hits,
            self.corner_cache_misses,
            self.shards_unavailable,
            self.retries,
            self.failovers,
            self.stale_answers,
            self.probe_us,
            self.check_us,
            self.route_us,
            self.total_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = ExecStats {
            solutions: 1,
            partial_tuples: 2,
            ..Default::default()
        };
        let b = ExecStats {
            solutions: 3,
            index_candidates: 5,
            shards_pruned: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.solutions, 4);
        assert_eq!(a.partial_tuples, 2);
        assert_eq!(a.index_candidates, 5);
        assert_eq!(a.shards_pruned, 2);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = ExecStats {
            exact_row_checks: usize::MAX - 1,
            ..Default::default()
        };
        let b = ExecStats {
            exact_row_checks: 10,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.exact_row_checks, usize::MAX);
    }

    #[test]
    fn display_is_compact() {
        let s = ExecStats::default();
        let t = s.to_string();
        assert!(t.contains("solutions=0"));
        assert!(t.contains("shards_pruned=0"));
        assert!(t.contains("shards_unavailable=0"));
        assert!(t.contains("retries=0"));
    }

    #[test]
    fn corner_cache_counters_merge_and_display() {
        let mut a = ExecStats {
            corner_cache_hits: 2,
            corner_cache_misses: 5,
            ..Default::default()
        };
        a.merge(&ExecStats {
            corner_cache_hits: 3,
            corner_cache_misses: 1,
            ..Default::default()
        });
        assert_eq!(a.corner_cache_hits, 5);
        assert_eq!(a.corner_cache_misses, 6);
        let t = a.to_string();
        assert!(t.contains("corner_cache_hits=5"));
        assert!(t.contains("corner_cache_misses=6"));
    }

    #[test]
    fn availability_counters_merge() {
        let mut a = ExecStats {
            shards_unavailable: 1,
            retries: 2,
            ..Default::default()
        };
        a.merge(&ExecStats {
            shards_unavailable: 3,
            retries: 1,
            ..Default::default()
        });
        assert_eq!(a.shards_unavailable, 4);
        assert_eq!(a.retries, 3);
    }

    #[test]
    fn failover_counters_merge_and_display() {
        let mut a = ExecStats {
            failovers: 1,
            stale_answers: 2,
            ..Default::default()
        };
        a.merge(&ExecStats {
            failovers: 2,
            stale_answers: 1,
            ..Default::default()
        });
        assert_eq!(a.failovers, 3);
        assert_eq!(a.stale_answers, 3);
        let t = a.to_string();
        assert!(t.contains("failovers=3"));
        assert!(t.contains("stale_answers=3"));
    }

    #[test]
    fn sub_microsecond_intervals_accumulate() {
        // Thousands of back-to-back intervals, each far below 1 µs:
        // truncating per call would report 0, the nanosecond sum does not.
        let mut t = Timings::default();
        for _ in 0..10_000 {
            t.check(std::time::Instant::now());
        }
        assert!(t.check_ns > 0, "sub-µs checks are not lost");
        let mut stats = ExecStats::default();
        Timings {
            probe_ns: 1_999,
            check_ns: 2_500_400,
        }
        .fold_into(&mut stats);
        assert_eq!((stats.probe_us, stats.check_us), (1, 2_500));
    }

    #[test]
    fn timings_sum_except_total_which_takes_the_max() {
        let mut a = ExecStats {
            probe_us: 10,
            check_us: 5,
            route_us: 1,
            total_us: 40,
            ..Default::default()
        };
        a.merge(&ExecStats {
            probe_us: 7,
            check_us: 2,
            route_us: 3,
            total_us: 25,
            ..Default::default()
        });
        assert_eq!(a.probe_us, 17);
        assert_eq!(a.check_us, 7);
        assert_eq!(a.route_us, 4);
        assert_eq!(a.total_us, 40, "merged total is the slowest leg");
        assert!(a.to_string().contains("probe_us=17"));
        let stripped = a.without_timings();
        assert_eq!(stripped.probe_us, 0);
        assert_eq!(stripped.total_us, 0);
        assert_eq!(stripped, ExecStats::default());
    }
}
