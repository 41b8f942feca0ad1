//! The shard router: z-order range partitioning plus corner-query
//! pruning.
//!
//! Every object is assigned a **routing key** — the Morton code of its
//! bounding-box center under a [`ZCurve`] over the universe — and each
//! shard owns one contiguous, half-open range of the z-code space
//! ([`scq_zorder::shard_ranges`]). Routing is therefore a binary search;
//! pruning exploits that a corner query bounds the `lo` and `hi`
//! corners of every matching box, hence bounds its center: the center
//! box decomposes into dyadic z-intervals ([`scq_zorder::decompose_cells`]
//! on the quantized cell rectangle) and only shards whose range
//! overlaps one of those intervals can hold a match. Everything else
//! is **pruned** without being probed — the quantity
//! [`scq_engine::ExecStats::shards_pruned`] counts.

use scq_bbox::{Bbox, CornerQuery};
use scq_region::AaBox;
use scq_zorder::{center_key, decompose_cells, shard_ranges, ZCurve};

/// Checks that `ranges` is a valid shard assignment on a `bits`-bit
/// grid: nonempty, each range nonempty half-open `[lo, hi)`, ascending
/// and contiguous, together tiling exactly `[0, key_space(bits))`.
/// Returns a human-readable reason on failure.
pub fn validate_ranges(bits: u32, ranges: &[(u64, u64)]) -> Result<(), String> {
    if !(1..=16).contains(&bits) {
        return Err(format!("router bits {bits} outside 1..=16"));
    }
    if ranges.is_empty() {
        return Err("no shard ranges".into());
    }
    let total = scq_zorder::key_space(bits);
    let mut expect = 0u64;
    for (s, &(lo, hi)) in ranges.iter().enumerate() {
        if lo != expect {
            return Err(format!(
                "shard {s} starts at {lo}, expected {expect} (ranges must be contiguous)"
            ));
        }
        if hi <= lo {
            return Err(format!("shard {s} range [{lo}, {hi}) is empty"));
        }
        expect = hi;
    }
    if expect != total {
        return Err(format!(
            "ranges end at {expect}, key space has {total} cells"
        ));
    }
    Ok(())
}

/// Routes objects and corner queries to shards of a z-order
/// range-partitioned store.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    curve: ZCurve,
    ranges: Vec<(u64, u64)>,
}

impl ShardRouter {
    /// A router over `universe` with `n_shards` equal z-ranges on a
    /// `2^bits × 2^bits` grid.
    ///
    /// # Panics
    /// If the universe is empty, `bits` is outside `1..=16`, `n_shards`
    /// is 0, or `n_shards` exceeds the number of grid cells.
    pub fn new(universe: &AaBox<2>, bits: u32, n_shards: usize) -> Self {
        Self::from_ranges(universe, bits, shard_ranges(bits, n_shards))
    }

    /// A router with an **explicit** range assignment — the cluster
    /// configuration path, where a [`crate::ClusterSpec`] may give
    /// shards unequal z-territory.
    ///
    /// # Panics
    /// If the universe is empty or the ranges do not tile the key
    /// space (see [`validate_ranges`]).
    pub fn from_ranges(universe: &AaBox<2>, bits: u32, ranges: Vec<(u64, u64)>) -> Self {
        if let Err(m) = validate_ranges(bits, &ranges) {
            panic!("invalid shard ranges: {m}");
        }
        let ub = Bbox::new(universe.lo(), universe.hi());
        ShardRouter {
            curve: ZCurve::new(ub, bits),
            ranges,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.ranges.len()
    }

    /// Bits per dimension of the routing grid.
    pub fn bits(&self) -> u32 {
        self.curve.bits()
    }

    /// The z-code range `[lo, hi)` each shard owns.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// The shard owning a z-code.
    pub fn route_key(&self, z: u64) -> usize {
        // ranges are contiguous ascending; find the one containing z
        match self.ranges.binary_search_by(|&(lo, _)| lo.cmp(&z)) {
            Ok(i) => i,
            Err(i) => i - 1, // z > ranges[i-1].lo, z < ranges[i].lo
        }
    }

    /// The shard owning an object with the given bounding box. Empty
    /// boxes have no center and all land on shard 0 (corner queries can
    /// never return them, so their placement is immaterial to pruning).
    pub fn route_bbox(&self, b: &Bbox<2>) -> usize {
        match center_key(&self.curve, b) {
            None => 0,
            Some(z) => self.route_key(z),
        }
    }

    /// Appends (in ascending order) every shard that can hold a box
    /// matching `q`; every other shard is proven disjoint and skipped.
    ///
    /// Sound because matching boxes have `lo ∈ [lo_min, lo_max]`,
    /// `hi ∈ [hi_min, hi_max]` *and* `lo ≤ hi` per dimension — so the
    /// effective bounds are `hi ≥ max(hi_min, lo_min)` and
    /// `lo ≤ min(lo_max, hi_max)`, and the center `(lo + hi) / 2` lies
    /// between the midpoints of those tightened intervals (this is what
    /// lets a pure containment query, which only bounds `lo` from below
    /// and `hi` from above, still prune). Quantization is monotone and
    /// clamps exactly like routing does. An unsatisfiable query selects
    /// no shard.
    pub fn candidate_shards(&self, q: &CornerQuery<2>, out: &mut Vec<usize>) {
        out.clear();
        if q.is_unsatisfiable() {
            return;
        }
        let mut lo = [0.0f64; 2];
        let mut hi = [0.0f64; 2];
        let (ulo, uhi) = self.curve.universe_corners().expect("nonempty universe");
        for d in 0..2 {
            // Midpoints of the effective corner bounds; ±∞ bounds clamp
            // to the universe, mirroring `ZCurve::quantize`'s clamping.
            let hi_min = q.hi_min[d].max(q.lo_min[d]); // hi ≥ lo ≥ lo_min
            let lo_max = q.lo_max[d].min(q.hi_max[d]); // lo ≤ hi ≤ hi_max
            lo[d] = ((q.lo_min[d] + hi_min) / 2.0).clamp(ulo[d], uhi[d]);
            hi[d] = ((lo_max + q.hi_max[d]) / 2.0).clamp(ulo[d], uhi[d]);
        }
        if lo[0] > hi[0] || lo[1] > hi[1] {
            return; // no center can satisfy the bounds
        }
        let c0 = self.curve.quantize(lo);
        let c1 = self.curve.quantize(hi);
        let intervals = decompose_cells(c0, c1, self.curve.bits());
        // Merge-walk the sorted interval list against the sorted shard
        // ranges, emitting each overlapping shard once.
        let mut s = 0usize;
        for &(ilo, ihi) in &intervals {
            while s < self.ranges.len() && self.ranges[s].1 <= ilo {
                s += 1;
            }
            let mut t = s;
            while t < self.ranges.len() && self.ranges[t].0 < ihi {
                if out.last() != Some(&t) {
                    out.push(t);
                }
                t += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(n: usize) -> ShardRouter {
        ShardRouter::new(&AaBox::new([0.0, 0.0], [100.0, 100.0]), 6, n)
    }

    #[test]
    fn routing_covers_all_keys() {
        let r = router(5);
        let total: u64 = scq_zorder::key_space(6);
        for z in [0, 1, total / 2, total - 1] {
            let s = r.route_key(z);
            let (lo, hi) = r.ranges()[s];
            assert!(lo <= z && z < hi, "key {z} in shard {s}");
        }
    }

    #[test]
    fn objects_route_to_exactly_one_shard() {
        let r = router(7);
        for i in 0..50 {
            let t = i as f64 * 1.9;
            let b = Bbox::new([t, 90.0 - t], [t + 3.0, 93.0 - t]);
            let s = r.route_bbox(&b);
            assert!(s < r.n_shards());
        }
        assert_eq!(r.route_bbox(&Bbox::Empty), 0);
    }

    #[test]
    fn candidate_shards_cover_matching_objects() {
        // Soundness: for random boxes and random queries, the owning
        // shard of every matching box is among the candidates.
        let r = router(6);
        let boxes: Vec<Bbox<2>> = (0..80)
            .map(|i| {
                let x = (i * 13 % 89) as f64;
                let y = (i * 29 % 83) as f64;
                Bbox::new([x, y], [x + 4.0, y + 6.0])
            })
            .collect();
        let queries = [
            CornerQuery::unconstrained(),
            CornerQuery::unconstrained().and_overlaps(&Bbox::new([10.0, 10.0], [30.0, 30.0])),
            CornerQuery::unconstrained().and_contained_in(&Bbox::new([0.0, 0.0], [40.0, 45.0])),
            CornerQuery::unconstrained().and_contains(&Bbox::new([70.0, 70.0], [72.0, 71.0])),
            CornerQuery::unconstrained()
                .and_contained_in(&Bbox::new([50.0, 0.0], [100.0, 50.0]))
                .and_overlaps(&Bbox::new([60.0, 10.0], [70.0, 20.0])),
        ];
        let mut cands = Vec::new();
        for q in &queries {
            r.candidate_shards(q, &mut cands);
            assert!(cands.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for b in &boxes {
                if q.matches(b) {
                    let owner = r.route_bbox(b);
                    assert!(
                        cands.contains(&owner),
                        "query {q:?} matches {b} on shard {owner}, candidates {cands:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn selective_queries_prune() {
        let r = router(8);
        let mut cands = Vec::new();
        // A tight containment query reaches few z-ranges.
        let q = CornerQuery::unconstrained().and_contained_in(&Bbox::new([2.0, 2.0], [12.0, 12.0]));
        r.candidate_shards(&q, &mut cands);
        assert!(!cands.is_empty());
        assert!(
            cands.len() < r.n_shards(),
            "tight query must prune: {cands:?}"
        );
        // The unconstrained query prunes nothing.
        r.candidate_shards(&CornerQuery::unconstrained(), &mut cands);
        assert_eq!(cands.len(), r.n_shards());
    }

    #[test]
    fn explicit_ranges_route_like_balanced_ones() {
        let total = scq_zorder::key_space(6);
        let balanced = router(4);
        let custom = ShardRouter::from_ranges(
            &AaBox::new([0.0, 0.0], [100.0, 100.0]),
            6,
            balanced.ranges().to_vec(),
        );
        for z in [0, 1, total / 3, total / 2, total - 1] {
            assert_eq!(balanced.route_key(z), custom.route_key(z));
        }
    }

    #[test]
    fn bad_range_assignments_are_named() {
        let total = scq_zorder::key_space(6);
        assert!(validate_ranges(6, &[(0, total)]).is_ok());
        assert!(validate_ranges(6, &[(0, 10), (10, total)]).is_ok());
        assert!(validate_ranges(6, &[]).is_err(), "empty");
        assert!(validate_ranges(0, &[(0, 1)]).is_err(), "bad bits");
        assert!(validate_ranges(6, &[(1, total)]).is_err(), "gap at 0");
        assert!(
            validate_ranges(6, &[(0, 10), (12, total)]).is_err(),
            "hole between shards"
        );
        assert!(
            validate_ranges(6, &[(0, 10), (10, 10), (10, total)]).is_err(),
            "empty shard"
        );
        assert!(
            validate_ranges(6, &[(0, total - 1)]).is_err(),
            "short of the key space"
        );
        assert!(
            validate_ranges(6, &[(0, total + 1)]).is_err(),
            "past the key space"
        );
    }

    #[test]
    fn unsatisfiable_queries_select_no_shard() {
        let r = router(4);
        let mut cands = vec![99];
        r.candidate_shards(&CornerQuery::unsatisfiable(), &mut cands);
        assert!(cands.is_empty());
        // contradictory bounds (contained in a low box, containing a
        // high one) also select nothing
        let q = CornerQuery::unconstrained()
            .and_contained_in(&Bbox::new([0.0, 0.0], [5.0, 5.0]))
            .and_contains(&Bbox::new([50.0, 50.0], [60.0, 60.0]));
        r.candidate_shards(&q, &mut cands);
        assert!(cands.is_empty());
    }
}
