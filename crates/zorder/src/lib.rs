#![warn(missing_docs)]

//! Z-order (Morton) encoding and the z-order spatial join of Orenstein
//! and Manola's PROBE system — the related-work comparison point of the
//! paper's Section 1.
//!
//! The paper contrasts its constraint-based optimizer with PROBE's
//! z-order *spatial join*: a binary overlay operator implemented by
//! decomposing each object into dyadic z-intervals and merging the two
//! sorted interval lists. This crate implements that baseline for
//! two-dimensional data:
//!
//! * [`ZCurve`] — quantization of a universe box onto a `2ᵇ × 2ᵇ` grid
//!   and bit-interleaved Morton codes;
//! * [`decompose`] — quadtree decomposition of a box into maximal dyadic
//!   z-intervals;
//! * [`zorder_join`] — sort-merge join over z-intervals with exact
//!   bounding-box verification of candidate pairs.
//!
//! As the paper notes, the z-order join handles a *single binary overlay
//! constraint*; the constraint optimizer handles arbitrary Boolean
//! systems. `tests/zorder_props.rs` checks the join against a
//! brute-force nested loop.

pub mod zindex;

pub use zindex::ZOrderIndex;

use scq_bbox::Bbox;

/// Interleaves the low 32 bits of `x` and `y` (x in even positions).
pub fn morton_encode(x: u32, y: u32) -> u64 {
    part1by1(x) | (part1by1(y) << 1)
}

/// Inverse of [`morton_encode`].
pub fn morton_decode(z: u64) -> (u32, u32) {
    (compact1by1(z), compact1by1(z >> 1))
}

fn part1by1(v: u32) -> u64 {
    let mut x = v as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

fn compact1by1(z: u64) -> u32 {
    let mut x = z & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// A z-order curve over a universe box, quantized to `2^bits` cells per
/// dimension.
#[derive(Clone, Copy, Debug)]
pub struct ZCurve {
    universe: Bbox<2>,
    bits: u32,
}

impl ZCurve {
    /// Creates a curve over `universe` with `bits` bits per dimension.
    ///
    /// # Panics
    /// If the universe is empty or `bits` is 0 or exceeds 16 (the join
    /// works on 32-bit cell coordinates interleaved into u64; 16 bits
    /// per dimension keeps interval arithmetic comfortably in range).
    pub fn new(universe: Bbox<2>, bits: u32) -> Self {
        assert!(!universe.is_empty(), "universe must be nonempty");
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        ZCurve { universe, bits }
    }

    /// Grid cells per dimension.
    pub fn cells_per_dim(&self) -> u32 {
        1 << self.bits
    }

    /// Bits per dimension.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The universe's `(lo, hi)` corners.
    pub fn universe_corners(&self) -> Option<([f64; 2], [f64; 2])> {
        Some((self.universe.lo()?, self.universe.hi()?))
    }

    /// Quantizes a point to cell coordinates (clamped to the universe).
    pub fn quantize(&self, p: [f64; 2]) -> (u32, u32) {
        let lo = self.universe.lo().expect("nonempty");
        let hi = self.universe.hi().expect("nonempty");
        let n = self.cells_per_dim() as f64;
        let mut out = [0u32; 2];
        for d in 0..2 {
            let w = hi[d] - lo[d];
            let t = if w > 0.0 {
                ((p[d] - lo[d]) / w * n).floor()
            } else {
                0.0
            };
            out[d] = t.clamp(0.0, n - 1.0) as u32;
        }
        (out[0], out[1])
    }

    /// The cell-coordinate rectangle covered by `b` (clamped, inclusive).
    /// `None` when `b` is empty.
    pub fn quantize_box(&self, b: &Bbox<2>) -> Option<((u32, u32), (u32, u32))> {
        let lo = b.lo()?;
        let hi = b.hi()?;
        Some((self.quantize(lo), self.quantize(hi)))
    }
}

/// Decomposes a cell rectangle into maximal dyadic z-intervals.
///
/// Recursion over quadtree blocks: a block fully inside the rectangle
/// contributes its whole z-interval; a disjoint block contributes
/// nothing; a straddling block recurses into its four children. The
/// result is sorted and pairwise disjoint.
pub fn decompose_cells((x0, y0): (u32, u32), (x1, y1): (u32, u32), bits: u32) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    rec(0, 0, bits, (x0, y0), (x1, y1), &mut out);
    // Recursion emits blocks in z-order already; coalesce adjacent runs.
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(out.len());
    for (lo, hi) in out {
        match merged.last_mut() {
            Some(last) if last.1 == lo => last.1 = hi,
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

fn rec(
    bx: u32,
    by: u32,
    level: u32,
    (x0, y0): (u32, u32),
    (x1, y1): (u32, u32),
    out: &mut Vec<(u64, u64)>,
) {
    // Block at (bx, by) with side 2^level covers cells
    // [bx, bx + 2^level) × [by, by + 2^level).
    let side = 1u32 << level;
    let (bx1, by1) = (bx + side - 1, by + side - 1);
    // disjoint?
    if bx > x1 || bx1 < x0 || by > y1 || by1 < y0 {
        return;
    }
    // fully contained?
    if bx >= x0 && bx1 <= x1 && by >= y0 && by1 <= y1 {
        let z = morton_encode(bx, by);
        let size = 1u64 << (2 * level);
        out.push((z, z + size));
        return;
    }
    debug_assert!(level > 0, "level-0 blocks are single cells, always decided");
    let half = side / 2;
    rec(bx, by, level - 1, (x0, y0), (x1, y1), out);
    rec(bx + half, by, level - 1, (x0, y0), (x1, y1), out);
    rec(bx, by + half, level - 1, (x0, y0), (x1, y1), out);
    rec(bx + half, by + half, level - 1, (x0, y0), (x1, y1), out);
}

/// The total number of z-codes under a curve with `bits` bits per
/// dimension: `4^bits`, i.e. one code per grid cell.
pub fn key_space(bits: u32) -> u64 {
    1u64 << (2 * bits)
}

/// Partitions the z-code space of a `bits`-per-dimension curve into `n`
/// contiguous, equally-sized half-open ranges `[lo, hi)` covering
/// `[0, 4^bits)` exactly — the shard map of a z-order range-partitioned
/// database. Because the ranges follow the curve, spatially clustered
/// data lands in few shards and range queries prune the rest.
///
/// # Panics
/// If `n` is 0 or exceeds the number of cells.
pub fn shard_ranges(bits: u32, n: usize) -> Vec<(u64, u64)> {
    let total = key_space(bits);
    assert!(n > 0, "at least one shard");
    assert!(n as u64 <= total, "more shards than z-codes");
    let n64 = n as u64;
    let base = total / n64;
    let extra = total % n64; // first `extra` ranges get one more code
    let mut out = Vec::with_capacity(n);
    let mut lo = 0u64;
    for i in 0..n64 {
        let hi = lo + base + u64::from(i < extra);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// The z-code of a box's center point under `curve` — the routing key
/// of a z-order range-partitioned store. `None` for the empty box,
/// which has no center.
pub fn center_key(curve: &ZCurve, b: &Bbox<2>) -> Option<u64> {
    let lo = b.lo()?;
    let hi = b.hi()?;
    let (cx, cy) = curve.quantize([(lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0]);
    Some(morton_encode(cx, cy))
}

/// Decomposes a box into z-intervals under `curve`. Empty boxes give no
/// intervals.
pub fn decompose(curve: &ZCurve, b: &Bbox<2>) -> Vec<(u64, u64)> {
    match curve.quantize_box(b) {
        None => Vec::new(),
        Some((lo, hi)) => decompose_cells(lo, hi, curve.bits),
    }
}

/// Like [`decompose`] but WITHOUT coalescing adjacent runs: every
/// returned interval is a single dyadic quadtree block. Dyadic blocks
/// either nest or are disjoint, which [`crate::ZOrderIndex`] exploits
/// for ancestor lookups.
pub fn decompose_blocks(curve: &ZCurve, b: &Bbox<2>) -> Vec<(u64, u64)> {
    match curve.quantize_box(b) {
        None => Vec::new(),
        Some((lo, hi)) => {
            let mut out = Vec::new();
            rec(0, 0, curve.bits, lo, hi, &mut out);
            out
        }
    }
}

/// The z-order spatial join: all pairs `(idₐ, id_b)` whose boxes overlap.
///
/// Each input box is decomposed into z-intervals; the two interval lists
/// are sort-merged with active lists (dyadic intervals either nest or
/// are disjoint, so candidates are exactly the interval overlaps), and
/// candidate pairs are verified with the exact bbox test — quantization
/// makes the interval stage a *filter*, never a final answer.
pub fn zorder_join(
    curve: &ZCurve,
    left: &[(Bbox<2>, u64)],
    right: &[(Bbox<2>, u64)],
) -> Vec<(u64, u64)> {
    #[derive(Clone, Copy)]
    struct Elem {
        lo: u64,
        hi: u64,
        idx: u32,
        side: bool, // false = left, true = right
    }
    let mut elems: Vec<Elem> = Vec::new();
    for (i, (b, _)) in left.iter().enumerate() {
        for (lo, hi) in decompose(curve, b) {
            elems.push(Elem {
                lo,
                hi,
                idx: i as u32,
                side: false,
            });
        }
    }
    for (i, (b, _)) in right.iter().enumerate() {
        for (lo, hi) in decompose(curve, b) {
            elems.push(Elem {
                lo,
                hi,
                idx: i as u32,
                side: true,
            });
        }
    }
    elems.sort_by_key(|e| (e.lo, e.hi));

    let mut active_l: Vec<(u64, u32)> = Vec::new(); // (hi, idx)
    let mut active_r: Vec<(u64, u32)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for e in &elems {
        active_l.retain(|&(hi, _)| hi > e.lo);
        active_r.retain(|&(hi, _)| hi > e.lo);
        let opposite: &[(u64, u32)] = if e.side { &active_l } else { &active_r };
        for &(_, other) in opposite {
            let (li, ri) = if e.side {
                (other, e.idx)
            } else {
                (e.idx, other)
            };
            if seen.insert((li, ri)) && left[li as usize].0.overlaps(&right[ri as usize].0) {
                out.push((left[li as usize].1, right[ri as usize].1));
            }
        }
        if e.side {
            active_r.push((e.hi, e.idx));
        } else {
            active_l.push((e.hi, e.idx));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn morton_round_trip() {
        for (x, y) in [
            (0, 0),
            (1, 0),
            (0, 1),
            (12345, 54321),
            (u32::MAX, 0),
            (u32::MAX, u32::MAX),
        ] {
            assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
        }
    }

    #[test]
    fn morton_orders_quadrants() {
        // The four cells of a 2×2 block are consecutive in z-order.
        let z00 = morton_encode(0, 0);
        let z10 = morton_encode(1, 0);
        let z01 = morton_encode(0, 1);
        let z11 = morton_encode(1, 1);
        assert_eq!((z00, z10, z01, z11), (0, 1, 2, 3));
    }

    #[test]
    fn quantize_clamps() {
        let c = ZCurve::new(Bbox::new([0.0, 0.0], [10.0, 10.0]), 4);
        assert_eq!(c.quantize([0.0, 0.0]), (0, 0));
        assert_eq!(
            c.quantize([10.0, 10.0]),
            (15, 15),
            "upper edge clamps to last cell"
        );
        assert_eq!(c.quantize([-5.0, 20.0]), (0, 15));
    }

    #[test]
    fn decomposition_covers_exactly() {
        let bits = 4;
        let rect = ((3, 2), (9, 12));
        let ranges = decompose_cells(rect.0, rect.1, bits);
        // ranges sorted and disjoint
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "sorted, disjoint: {w:?}");
        }
        // exact cover check over the whole grid
        for x in 0u32..16 {
            for y in 0u32..16 {
                let z = morton_encode(x, y);
                let inside = (3..=9).contains(&x) && (2..=12).contains(&y);
                let covered = ranges.iter().any(|&(lo, hi)| lo <= z && z < hi);
                assert_eq!(covered, inside, "cell ({x},{y})");
            }
        }
    }

    #[test]
    fn full_grid_is_one_interval() {
        let bits = 5;
        let ranges = decompose_cells((0, 0), (31, 31), bits);
        assert_eq!(ranges, vec![(0, 1 << (2 * bits))]);
    }

    #[test]
    fn join_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(77);
        let universe = Bbox::new([0.0, 0.0], [100.0, 100.0]);
        let curve = ZCurve::new(universe, 8);
        let gen = |rng: &mut StdRng, n: usize, base: u64| -> Vec<(Bbox<2>, u64)> {
            (0..n)
                .map(|i| {
                    let lo = [rng.random_range(0.0..90.0), rng.random_range(0.0..90.0)];
                    let w = [rng.random_range(0.5..8.0), rng.random_range(0.5..8.0)];
                    (Bbox::new(lo, [lo[0] + w[0], lo[1] + w[1]]), base + i as u64)
                })
                .collect()
        };
        let left = gen(&mut rng, 120, 0);
        let right = gen(&mut rng, 150, 1000);
        let mut got = zorder_join(&curve, &left, &right);
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = Vec::new();
        for (lb, li) in &left {
            for (rb, ri) in &right {
                if lb.overlaps(rb) {
                    want.push((*li, *ri));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn join_with_empty_side() {
        let curve = ZCurve::new(Bbox::new([0.0, 0.0], [1.0, 1.0]), 4);
        let left = vec![(Bbox::new([0.0, 0.0], [1.0, 1.0]), 1u64)];
        assert!(zorder_join(&curve, &left, &[]).is_empty());
        assert!(zorder_join(&curve, &[], &left).is_empty());
    }

    #[test]
    fn coarse_quantization_still_exact() {
        // With 1 bit per dim everything lands in 4 cells; the exact
        // verification must weed out the false candidates.
        let curve = ZCurve::new(Bbox::new([0.0, 0.0], [100.0, 100.0]), 1);
        let left = vec![(Bbox::new([0.0, 0.0], [10.0, 10.0]), 1u64)];
        let right = vec![
            (Bbox::new([5.0, 5.0], [15.0, 15.0]), 2u64),   // overlaps
            (Bbox::new([40.0, 40.0], [45.0, 45.0]), 3u64), // same cell, no overlap
        ];
        let got = zorder_join(&curve, &left, &right);
        assert_eq!(got, vec![(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn rejects_excessive_bits() {
        ZCurve::new(Bbox::new([0.0, 0.0], [1.0, 1.0]), 17);
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for (bits, n) in [(4u32, 1usize), (4, 3), (4, 7), (8, 16), (2, 16)] {
            let ranges = shard_ranges(bits, n);
            assert_eq!(ranges.len(), n);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[n - 1].1, key_space(bits));
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous: {w:?}");
                assert!(w[0].0 < w[0].1, "nonempty: {w:?}");
            }
            // balanced to within one code
            let sizes: Vec<u64> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "more shards than z-codes")]
    fn shard_ranges_reject_too_many_shards() {
        shard_ranges(1, 5);
    }

    #[test]
    fn center_key_routes_consistently() {
        let curve = ZCurve::new(Bbox::new([0.0, 0.0], [100.0, 100.0]), 8);
        assert_eq!(center_key(&curve, &Bbox::Empty), None);
        let b = Bbox::new([10.0, 20.0], [14.0, 26.0]);
        let k = center_key(&curve, &b).unwrap();
        assert_eq!(
            k,
            morton_encode(curve.quantize([12.0, 23.0]).0, {
                curve.quantize([12.0, 23.0]).1
            })
        );
        assert!(k < key_space(8));
        // the key falls inside the decomposition of any box containing
        // the center (soundness of range-based pruning)
        let cover = Bbox::new([0.0, 0.0], [50.0, 50.0]);
        let intervals = decompose(&curve, &cover);
        assert!(intervals.iter().any(|&(lo, hi)| lo <= k && k < hi));
    }

    #[test]
    fn center_key_clamps_outliers() {
        let curve = ZCurve::new(Bbox::new([0.0, 0.0], [10.0, 10.0]), 4);
        // a box whose center lies outside the universe still gets a key
        let k = center_key(&curve, &Bbox::new([50.0, 50.0], [60.0, 60.0])).unwrap();
        assert_eq!(k, morton_encode(15, 15));
    }
}
