#![warn(missing_docs)]

//! Z-order routing keys for the shard router.
//!
//! A z-order range-partitioned store needs four things from the curve:
//!
//! * [`ZCurve`] — quantization of a universe box onto a `2ᵇ × 2ᵇ` grid;
//! * [`center_key`] — the Morton code of a box's center, the key that
//!   places an object on a shard;
//! * [`shard_ranges`] / [`key_space`] — contiguous z-code ranges, one
//!   per shard;
//! * [`decompose_cells`] — quadtree decomposition of a cell rectangle
//!   into maximal dyadic z-intervals, which the router intersects with
//!   the shard ranges to prune a corner query.

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
    /// If the universe is empty or `bits` is 0 or exceeds 16 (cell
    /// coordinates are interleaved into u64 z-codes; 16 bits per
    /// dimension keeps interval arithmetic comfortably in range).
    pub fn new(universe: Bbox<2>, bits: u32) -> Self {
        assert!(!universe.is_empty(), "universe must be nonempty");
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        ZCurve { universe, bits }
    }

    /// Grid cells per dimension.
    fn cells_per_dim(&self) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let intervals =
            decompose_cells(curve.quantize([0.0, 0.0]), curve.quantize([50.0, 50.0]), 8);
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
