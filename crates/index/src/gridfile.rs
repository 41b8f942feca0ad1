//! A grid file (Nievergelt, Hinterberger, Sevcik — reference \[9\] of the
//! paper) over **corner-transformed** boxes.
//!
//! Boxes in `Xᵏ` are stored as points in `X²ᵏ` (their `(lo, hi)` corner
//! pair), and the combined range query of Figure 3 — containment above,
//! containment below, overlap — is a single axis-aligned rectangle probe
//! in that corner space. The structure keeps one sorted *scale* of split
//! points per corner dimension and a directory mapping grid cells to
//! buckets; overflowing cells refine the scale along the most spread-out
//! dimension (the "adaptable, symmetric" part of the original design).
//!
//! Simplification relative to the 1984 paper: the directory is a hash map
//! from cell coordinates to buckets (no paging/disk layout), and scale
//! refinement re-keys the directory eagerly. Query semantics are exact.

use std::collections::HashMap;

use scq_bbox::{corner_point, Bbox, CornerQuery};

use crate::traits::SpatialIndex;

type CornerPt<const K: usize> = ([f64; K], [f64; K]);

/// Grid file over corner points in `X²ᵏ`.
#[derive(Clone, Debug)]
pub struct GridFile<const K: usize> {
    /// `2K` sorted scales of split points.
    scales: Vec<Vec<f64>>,
    /// Directory: cell coordinates (one index per corner dimension) to
    /// bucket contents.
    buckets: HashMap<Vec<u16>, Vec<(CornerPt<K>, u64)>>,
    capacity: usize,
    len: usize,
    /// Ids inserted with empty boxes (never matched by queries); kept
    /// as ids so `remove(id, Bbox::Empty)` only removes entries that
    /// were actually inserted.
    empty: Vec<u64>,
    /// Removals since the last [`GridFile::coarsen`] scan; the scan is
    /// amortized over `capacity` removals.
    removals_since_coarsen: usize,
}

fn coord<const K: usize>(p: &CornerPt<K>, d: usize) -> f64 {
    if d < K {
        p.0[d]
    } else {
        p.1[d - K]
    }
}

impl<const K: usize> Default for GridFile<K> {
    fn default() -> Self {
        Self::new(32)
    }
}

impl<const K: usize> GridFile<K> {
    /// Creates an empty grid file with the given bucket capacity.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bucket capacity must be positive");
        GridFile {
            scales: vec![Vec::new(); 2 * K],
            buckets: HashMap::new(),
            capacity,
            len: 0,
            empty: Vec::new(),
            removals_since_coarsen: 0,
        }
    }

    /// Bulk-loads items, pre-computing quantile scales so that the
    /// expected bucket occupancy is near `capacity` without any
    /// refinement re-keying.
    pub fn bulk_load<I: IntoIterator<Item = (u64, Bbox<K>)>>(capacity: usize, items: I) -> Self {
        let items: Vec<(u64, Bbox<K>)> = items.into_iter().collect();
        let mut gf = Self::new(capacity);
        let pts: Vec<CornerPt<K>> = items.iter().filter_map(|(_, b)| corner_point(b)).collect();
        if !pts.is_empty() {
            let target_cells = (pts.len() / capacity).max(1);
            // intervals per dimension ≈ target_cells^(1/2K), at least 1
            let per_dim = (target_cells as f64).powf(1.0 / (2 * K) as f64).ceil() as usize;
            for d in 0..2 * K {
                let mut coords: Vec<f64> = pts.iter().map(|p| coord(p, d)).collect();
                coords.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let mut splits = Vec::new();
                for i in 1..per_dim {
                    let q = coords[i * coords.len() / per_dim];
                    if splits.last() != Some(&q) {
                        splits.push(q);
                    }
                }
                gf.scales[d] = splits;
            }
        }
        for (id, b) in items {
            gf.insert(id, b);
        }
        gf
    }

    /// Number of directory cells currently materialized.
    #[cfg(test)]
    fn cell_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total number of scale split points across all corner dimensions
    /// (directory resolution; grows under refinement, shrinks under
    /// coarsening).
    #[cfg(test)]
    fn scale_points(&self) -> usize {
        self.scales.iter().map(Vec::len).sum()
    }

    fn cell_index(&self, d: usize, c: f64) -> u16 {
        self.scales[d].partition_point(|&s| s <= c) as u16
    }

    fn key_of(&self, p: &CornerPt<K>) -> Vec<u16> {
        (0..2 * K)
            .map(|d| self.cell_index(d, coord(p, d)))
            .collect()
    }

    fn insert_point(&mut self, p: CornerPt<K>, id: u64) {
        let key = self.key_of(&p);
        let bucket = self.buckets.entry(key).or_default();
        bucket.push((p, id));
        if bucket.len() > self.capacity {
            self.refine(&p);
        }
    }

    /// Splits the cell containing `p` by adding a scale point along the
    /// dimension with the greatest value spread inside the bucket, then
    /// re-keys the directory. No-op when every coordinate in the bucket
    /// is identical in all dimensions (duplicates simply chain).
    fn refine(&mut self, p: &CornerPt<K>) {
        let key = self.key_of(p);
        let bucket = match self.buckets.get(&key) {
            Some(b) => b,
            None => return,
        };
        let mut best: Option<(usize, f64)> = None; // (dim, split value)
        let mut best_spread = 0.0;
        for d in 0..2 * K {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (pt, _) in bucket {
                let c = coord(pt, d);
                lo = lo.min(c);
                hi = hi.max(c);
            }
            let spread = hi - lo;
            if spread > best_spread {
                // median-ish split: midpoint keeps scales balanced even
                // under adversarial insertion order
                best_spread = spread;
                best = Some((d, lo / 2.0 + hi / 2.0));
            }
        }
        let (d, split) = match best {
            Some(x) => x,
            None => return, // all points identical: chained overflow
        };
        // Insert the split point, keeping the scale sorted and deduped.
        let pos = self.scales[d].partition_point(|&s| s < split);
        if self.scales[d].get(pos) == Some(&split) {
            return;
        }
        self.scales[d].insert(pos, split);
        self.rekey();
    }

    /// Re-keys the whole directory against the current scales
    /// (simplification; see module docs).
    fn rekey(&mut self) {
        let old = std::mem::take(&mut self.buckets);
        for (_, entries) in old {
            for (pt, id) in entries {
                let key = self.key_of(&pt);
                self.buckets.entry(key).or_default().push((pt, id));
            }
        }
    }

    /// The merge counterpart of [`GridFile::refine`]: while some split
    /// point separates two adjacent slabs whose combined occupancy fits
    /// in **half** a bucket, drop the lightest such split and re-key —
    /// deletions shrink the directory instead of leaving it fragmented.
    /// The half-capacity threshold gives hysteresis against refine
    /// (which triggers at full capacity), so alternating insert/remove
    /// near a boundary cannot thrash the directory.
    fn coarsen(&mut self) {
        loop {
            let mut lightest: Option<(usize, usize, usize)> = None; // (sum, dim, split)
            for d in 0..2 * K {
                if self.scales[d].is_empty() {
                    continue;
                }
                let mut slab_counts = vec![0usize; self.scales[d].len() + 1];
                for (key, bucket) in &self.buckets {
                    slab_counts[key[d] as usize] += bucket.len();
                }
                for j in 0..self.scales[d].len() {
                    let sum = slab_counts[j] + slab_counts[j + 1];
                    if lightest.is_none_or(|(best, _, _)| sum < best) {
                        lightest = Some((sum, d, j));
                    }
                }
            }
            match lightest {
                Some((sum, d, j)) if 2 * sum <= self.capacity => {
                    self.scales[d].remove(j);
                    self.rekey();
                }
                _ => return,
            }
        }
    }
}

impl<const K: usize> GridFile<K> {
    /// [`SpatialIndex::query_corner`] body over caller-provided scratch.
    fn query_with_scratch(
        &self,
        query: &CornerQuery<K>,
        ranges: &mut [(u16, u16)],
        key: &mut [u16],
        out: &mut Vec<u64>,
    ) {
        // Per corner dimension, the range of cell indices intersecting
        // the query interval.
        for (d, range) in ranges.iter_mut().enumerate() {
            let (qlo, qhi) = if d < K {
                (query.lo_min[d], query.lo_max[d])
            } else {
                (query.hi_min[d - K], query.hi_max[d - K])
            };
            if qlo > qhi {
                return;
            }
            let lo_cell = if qlo == f64::NEG_INFINITY {
                0
            } else {
                self.cell_index(d, qlo)
            };
            let hi_cell = if qhi == f64::INFINITY {
                self.scales[d].len() as u16
            } else {
                self.cell_index(d, qhi)
            };
            *range = (lo_cell, hi_cell);
        }
        // When the Cartesian product of cell ranges exceeds the number
        // of materialized buckets (common for weakly-constrained
        // queries), walking the directory is cheaper than enumerating
        // mostly-missing cells.
        let product: u128 = ranges
            .iter()
            .map(|&(lo, hi)| (hi - lo) as u128 + 1)
            .product();
        if product > self.buckets.len() as u128 {
            for (cell, bucket) in &self.buckets {
                if cell
                    .iter()
                    .zip(ranges.iter())
                    .all(|(&k, &(lo, hi))| lo <= k && k <= hi)
                {
                    for (pt, id) in bucket {
                        let b = Bbox::new(pt.0, pt.1);
                        if query.matches(&b) {
                            out.push(*id);
                        }
                    }
                }
            }
            return;
        }
        // Enumerate the Cartesian product of cell ranges.
        for (d, slot) in key.iter_mut().enumerate() {
            *slot = ranges[d].0;
        }
        'cells: loop {
            if let Some(bucket) = self.buckets.get(&key[..]) {
                for (pt, id) in bucket {
                    let b = Bbox::new(pt.0, pt.1);
                    if query.matches(&b) {
                        out.push(*id);
                    }
                }
            }
            // odometer increment
            for d in 0..2 * K {
                if key[d] < ranges[d].1 {
                    key[d] += 1;
                    for (dd, slot) in key.iter_mut().enumerate().take(d) {
                        *slot = ranges[dd].0;
                    }
                    continue 'cells;
                }
            }
            break;
        }
    }
}

impl<const K: usize> SpatialIndex<K> for GridFile<K> {
    fn insert(&mut self, id: u64, bbox: Bbox<K>) {
        self.len += 1;
        match corner_point(&bbox) {
            None => self.empty.push(id),
            Some(p) => self.insert_point(p, id),
        }
    }

    fn remove(&mut self, id: u64, bbox: Bbox<K>) -> bool {
        match corner_point(&bbox) {
            None => match self.empty.iter().position(|&i| i == id) {
                Some(pos) => {
                    self.empty.swap_remove(pos);
                    self.len -= 1;
                    true
                }
                None => false,
            },
            Some(p) => {
                let key = self.key_of(&p);
                let Some(bucket) = self.buckets.get_mut(&key) else {
                    return false;
                };
                let Some(pos) = bucket.iter().position(|&(pt, i)| i == id && pt == p) else {
                    return false;
                };
                bucket.swap_remove(pos);
                if bucket.is_empty() {
                    self.buckets.remove(&key);
                }
                self.len -= 1;
                // Amortize the merge scan: one full slab-count pass per
                // `capacity` removals keeps per-removal cost O(1)-ish
                // while still shrinking the directory under sustained
                // deletion.
                self.removals_since_coarsen += 1;
                if self.removals_since_coarsen >= self.capacity {
                    self.removals_since_coarsen = 0;
                    self.coarsen();
                }
                true
            }
        }
    }

    fn query_corner(&self, query: &CornerQuery<K>, out: &mut Vec<u64>) {
        if query.is_unsatisfiable() || self.buckets.is_empty() {
            return;
        }
        // Scratch for the cell ranges and the odometer key lives on the
        // stack — queries are the executors' inner loop and must not
        // allocate. `2K ≤ 16` covers every dimension the workspace
        // uses; higher dimensions fall back to one heap scratch.
        const MAX_SCRATCH: usize = 16;
        if 2 * K <= MAX_SCRATCH {
            let mut ranges = [(0u16, 0u16); MAX_SCRATCH];
            let mut key = [0u16; MAX_SCRATCH];
            self.query_with_scratch(query, &mut ranges[..2 * K], &mut key[..2 * K], out);
        } else {
            let mut ranges = vec![(0u16, 0u16); 2 * K];
            let mut key = vec![0u16; 2 * K];
            self.query_with_scratch(query, &mut ranges, &mut key, out);
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanIndex;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_box(rng: &mut StdRng) -> Bbox<2> {
        let lo = [rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)];
        let w = [rng.random_range(0.1..10.0), rng.random_range(0.1..10.0)];
        Bbox::new(lo, [lo[0] + w[0], lo[1] + w[1]])
    }

    fn assert_same(gf: &GridFile<2>, scan: &ScanIndex<2>, q: &CornerQuery<2>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        gf.query_corner(q, &mut a);
        scan.query_corner(q, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn agrees_with_scan_incremental() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut gf = GridFile::<2>::new(8);
        let mut scan = ScanIndex::new();
        for id in 0..800u64 {
            let b = random_box(&mut rng);
            gf.insert(id, b);
            scan.insert(id, b);
        }
        assert!(gf.cell_count() > 4, "refinement must have split cells");
        for _ in 0..40 {
            let probe = random_box(&mut rng);
            assert_same(
                &gf,
                &scan,
                &CornerQuery::unconstrained().and_overlaps(&probe),
            );
            assert_same(
                &gf,
                &scan,
                &CornerQuery::unconstrained().and_contained_in(&probe),
            );
            assert_same(
                &gf,
                &scan,
                &CornerQuery::unconstrained().and_contains(&probe),
            );
        }
    }

    #[test]
    fn agrees_with_scan_bulk() {
        let mut rng = StdRng::seed_from_u64(11);
        let items: Vec<(u64, Bbox<2>)> =
            (0..1500u64).map(|id| (id, random_box(&mut rng))).collect();
        let gf = GridFile::bulk_load(16, items.clone());
        let scan = ScanIndex::from_items(items);
        for _ in 0..40 {
            let probe = random_box(&mut rng);
            let q = CornerQuery::unconstrained()
                .and_contained_in(&Bbox::new(
                    [probe.lo().unwrap()[0] - 20.0, probe.lo().unwrap()[1] - 20.0],
                    [probe.hi().unwrap()[0] + 20.0, probe.hi().unwrap()[1] + 20.0],
                ))
                .and_overlaps(&probe);
            assert_same(&gf, &scan, &q);
        }
    }

    #[test]
    fn unbounded_query_returns_everything_nonempty() {
        let mut gf = GridFile::<1>::new(4);
        for id in 0..50u64 {
            gf.insert(id, Bbox::new([id as f64], [id as f64 + 1.0]));
        }
        gf.insert(50, Bbox::Empty);
        let mut out = Vec::new();
        gf.query_corner(&CornerQuery::unconstrained(), &mut out);
        assert_eq!(out.len(), 50);
        assert_eq!(gf.len(), 51);
    }

    #[test]
    fn duplicate_points_chain_without_refinement_loop() {
        let mut gf = GridFile::<1>::new(2);
        let b = Bbox::new([1.0], [2.0]);
        for id in 0..20u64 {
            gf.insert(id, b); // identical corner points cannot be split
        }
        let mut out = Vec::new();
        gf.query_overlaps(&b, &mut out);
        assert_eq!(out.len(), 20);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        GridFile::<1>::new(0);
    }

    #[test]
    fn remove_agrees_with_scan() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut gf = GridFile::<2>::new(8);
        let mut scan = ScanIndex::new();
        let mut items: Vec<(u64, Bbox<2>)> = Vec::new();
        for id in 0..600u64 {
            let b = random_box(&mut rng);
            gf.insert(id, b);
            scan.insert(id, b);
            items.push((id, b));
        }
        // remove two thirds, interleaving queries
        for step in 0..400 {
            let pos = (step * 7919) % items.len();
            let (id, b) = items.swap_remove(pos);
            assert!(gf.remove(id, b), "entry must be found");
            assert!(scan.remove(id, b));
            if step % 50 == 0 {
                let probe = random_box(&mut rng);
                assert_same(
                    &gf,
                    &scan,
                    &CornerQuery::unconstrained().and_overlaps(&probe),
                );
            }
        }
        assert_eq!(gf.len(), items.len());
        for _ in 0..40 {
            let probe = random_box(&mut rng);
            assert_same(
                &gf,
                &scan,
                &CornerQuery::unconstrained().and_overlaps(&probe),
            );
            assert_same(
                &gf,
                &scan,
                &CornerQuery::unconstrained().and_contained_in(&probe),
            );
        }
    }

    #[test]
    fn removal_coarsens_the_directory() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut gf = GridFile::<2>::new(4);
        let items: Vec<(u64, Bbox<2>)> = (0..500u64).map(|id| (id, random_box(&mut rng))).collect();
        for &(id, b) in &items {
            gf.insert(id, b);
        }
        let grown = gf.scale_points();
        assert!(grown > 2, "insertion must have refined the scales");
        for &(id, b) in &items[..490] {
            assert!(gf.remove(id, b));
        }
        assert!(
            gf.scale_points() < grown,
            "mass removal must coarsen: {} vs {}",
            gf.scale_points(),
            grown
        );
        // the survivors are still all answerable
        let mut out = Vec::new();
        gf.query_corner(&CornerQuery::unconstrained(), &mut out);
        out.sort_unstable();
        let mut expect: Vec<u64> = items[490..].iter().map(|&(id, _)| id).collect();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn remove_missing_and_empty_entries() {
        let mut gf = GridFile::<1>::new(4);
        gf.insert(1, Bbox::new([0.0], [1.0]));
        gf.insert(2, Bbox::Empty);
        assert!(!gf.remove(1, Bbox::new([5.0], [6.0])), "box must match");
        assert!(!gf.remove(9, Bbox::new([0.0], [1.0])), "id must match");
        assert!(!gf.remove(9, Bbox::Empty), "empty removal matches by id");
        assert!(gf.remove(2, Bbox::Empty));
        assert!(!gf.remove(2, Bbox::Empty), "empty pool exhausted");
        assert!(gf.remove(1, Bbox::new([0.0], [1.0])));
        assert_eq!(gf.len(), 0);
        // index remains usable after emptying
        gf.insert(3, Bbox::new([2.0], [3.0]));
        let mut out = Vec::new();
        gf.query_corner(&CornerQuery::unconstrained(), &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn update_moves_an_entry() {
        let mut gf = GridFile::<1>::new(4);
        gf.insert(1, Bbox::new([0.0], [1.0]));
        assert!(gf.update(1, Bbox::new([0.0], [1.0]), Bbox::new([8.0], [9.0])));
        let mut out = Vec::new();
        gf.query_overlaps(&Bbox::new([8.0], [9.0]), &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        gf.query_overlaps(&Bbox::new([0.0], [1.0]), &mut out);
        assert!(out.is_empty());
        assert!(!gf.update(1, Bbox::new([0.0], [1.0]), Bbox::new([2.0], [3.0])));
        assert_eq!(gf.len(), 1);
    }

    #[test]
    fn empty_gridfile_queries() {
        let gf = GridFile::<2>::new(8);
        let mut out = Vec::new();
        gf.query_corner(&CornerQuery::unconstrained(), &mut out);
        assert!(out.is_empty());
    }
}
