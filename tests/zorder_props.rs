//! Property tests for the z-order routing keys: Morton codes round-trip,
//! dyadic blocks nest, and the decomposition the shard router prunes
//! with is an exact cover of the quantized rectangle.

use proptest::prelude::*;
use scq_integration::prelude::*;

fn universe() -> Bbox<2> {
    Bbox::new([0.0, 0.0], [64.0, 64.0])
}

fn box_strategy() -> BoxedStrategy<Bbox<2>> {
    (0.0f64..60.0, 0.0f64..60.0, 0.2f64..10.0, 0.2f64..10.0)
        .prop_map(|(x, y, w, h)| Bbox::new([x, y], [(x + w).min(64.0), (y + h).min(64.0)]))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Morton encode/decode round trip.
    #[test]
    fn morton_round_trip(x in 0u32..u32::MAX, y in 0u32..u32::MAX) {
        prop_assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
    }

    /// Z-order preserves quadtree block locality: the four children of a
    /// block occupy a contiguous quarter each of the parent's interval.
    #[test]
    fn dyadic_nesting(x in 0u32..1 << 15, y in 0u32..1 << 15, level in 1u32..8) {
        let bx = (x >> level) << level; // align to block
        let by = (y >> level) << level;
        let z_block = morton_encode(bx, by);
        let size = 1u64 << (2 * level);
        let z = morton_encode(x & ((1 << 15) - 1) | bx, y & ((1 << 15) - 1) | by);
        // any cell inside the block lies in [z_block, z_block + size)
        let inside = (bx..bx + (1 << level)).contains(&(x | bx))
            && (by..by + (1 << level)).contains(&(y | by));
        if inside {
            prop_assert!(z >= z_block && z < z_block + size);
        }
    }

    /// Decomposition covers exactly the quantized rectangle.
    #[test]
    fn decomposition_exact_cover(b in box_strategy()) {
        let curve = ZCurve::new(universe(), 6);
        let (x0, y0) = curve.quantize(b.lo().unwrap());
        let (x1, y1) = curve.quantize(b.hi().unwrap());
        let ranges = decompose_cells((x0, y0), (x1, y1), curve.bits());
        for x in 0u32..64 {
            for y in 0u32..64 {
                let z = morton_encode(x, y);
                let inside = x >= x0 && x <= x1 && y >= y0 && y <= y1;
                let covered = ranges.iter().any(|&(lo, hi)| lo <= z && z < hi);
                prop_assert_eq!(covered, inside, "cell ({}, {})", x, y);
            }
        }
        // disjoint and sorted
        for w in ranges.windows(2) {
            prop_assert!(w[0].1 <= w[1].0);
        }
    }
}
