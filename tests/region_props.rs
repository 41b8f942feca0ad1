//! Property tests for the region algebra substrate: Boolean algebra
//! laws, measure consistency and pointwise semantics on random regions.

use proptest::prelude::*;
use scq_integration::prelude::*;

/// Strategy: a random region of 1–4 boxes inside [0,100]².
fn region_strategy() -> BoxedStrategy<Region<2>> {
    prop::collection::vec(
        (0.0f64..90.0, 0.0f64..90.0, 0.5f64..10.0, 0.5f64..10.0),
        1..4,
    )
    .prop_map(|boxes| {
        Region::from_boxes(
            boxes
                .into_iter()
                .map(|(x, y, w, h)| AaBox::new([x, y], [x + w, y + h])),
        )
    })
    .boxed()
}

/// Strategy: 0–5 boxes with corners on the integer grid of [0,8]², so
/// regions come out empty, fragmented, with half-open boxes that touch
/// along an edge, and with overlapping or duplicate boxes.
fn grid_region_strategy() -> BoxedStrategy<Region<2>> {
    prop::collection::vec((0u32..9, 0u32..9, 0u32..9, 0u32..9), 0..6)
        .prop_map(|boxes| {
            Region::from_boxes(boxes.into_iter().map(|(x0, x1, y0, y1)| {
                let (x0, x1, y0, y1) = (x0 as f64, x1 as f64, y0 as f64, y1 as f64);
                AaBox::new([x0.min(x1), y0.min(y1)], [x0.max(x1), y0.max(y1)])
            }))
        })
        .boxed()
}

/// One point inside each unit cell of the grid: every grid box covers a
/// cell wholly or not at all, so these points decide set relations of
/// grid regions exactly.
fn cell_centers() -> impl Iterator<Item = [f64; 2]> {
    (0..8).flat_map(|i| (0..8).map(move |j| [i as f64 + 0.5, j as f64 + 0.5]))
}

fn universe() -> AaBox<2> {
    AaBox::new([0.0, 0.0], [100.0, 100.0])
}

fn alg() -> RegionAlgebra<2> {
    RegionAlgebra::new(universe())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn de_morgan(a in region_strategy(), b in region_strategy()) {
        let alg = alg();
        let lhs = alg.complement(&alg.meet(&a, &b));
        let rhs = alg.join(&alg.complement(&a), &alg.complement(&b));
        prop_assert!(alg.eq_elem(&lhs, &rhs));
    }

    #[test]
    fn distributivity(a in region_strategy(), b in region_strategy(), c in region_strategy()) {
        let alg = alg();
        let lhs = alg.meet(&a, &alg.join(&b, &c));
        let rhs = alg.join(&alg.meet(&a, &b), &alg.meet(&a, &c));
        prop_assert!(alg.eq_elem(&lhs, &rhs));
    }

    #[test]
    fn inclusion_exclusion(a in region_strategy(), b in region_strategy()) {
        let u = a.union(&b).volume();
        let i = a.intersection(&b).volume();
        prop_assert!((u + i - a.volume() - b.volume()).abs() < 1e-9);
    }

    #[test]
    fn double_complement(a in region_strategy()) {
        let alg = alg();
        let cc = alg.complement(&alg.complement(&a));
        prop_assert!(alg.eq_elem(&cc, &a));
    }

    #[test]
    fn difference_pointwise(a in region_strategy(), b in region_strategy()) {
        let d = a.difference(&b);
        let mut rng_points = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                rng_points.push([i as f64 * 5.0 + 0.3, j as f64 * 5.0 + 0.7]);
            }
        }
        for p in rng_points {
            prop_assert_eq!(
                d.contains_point(&p),
                a.contains_point(&p) && !b.contains_point(&p)
            );
        }
    }

    /// The streaming `subset_of` / `same_set` agree with testing a
    /// materialised difference for emptiness and with the points.
    #[test]
    fn streaming_subset_matches_difference_and_points(
        a in grid_region_strategy(),
        b in grid_region_strategy(),
    ) {
        let by_points = cell_centers().all(|p| !a.contains_point(&p) || b.contains_point(&p));
        prop_assert_eq!(a.subset_of(&b), a.difference(&b).is_empty());
        prop_assert_eq!(a.subset_of(&b), by_points);
        let equal_points = cell_centers().all(|p| a.contains_point(&p) == b.contains_point(&p));
        prop_assert_eq!(
            a.same_set(&b),
            a.difference(&b).is_empty() && b.difference(&a).is_empty()
        );
        prop_assert_eq!(a.same_set(&b), equal_points);
        let shared_points = cell_centers().any(|p| a.contains_point(&p) && b.contains_point(&p));
        prop_assert_eq!(a.intersects(&b), shared_points);
    }

    /// Covers built from duplicate and overlapping boxes, and the same
    /// set fragmented differently.
    #[test]
    fn streaming_subset_over_duplicate_covers(
        a in grid_region_strategy(),
        b in grid_region_strategy(),
    ) {
        let cover = Region::from_boxes(a.boxes().iter().chain(b.boxes()).chain(a.boxes()).copied());
        prop_assert!(a.subset_of(&cover));
        prop_assert!(cover.same_set(&a.union(&b)));
        let refragmented = a.difference(&b).union(&a.intersection(&b));
        prop_assert!(refragmented.same_set(&a));
        prop_assert!(a.same_set(&refragmented));
        prop_assert!(Region::empty().subset_of(&a));
        prop_assert_eq!(a.subset_of(&Region::empty()), a.is_empty());
    }

    /// Union and difference, rebuilt on the streaming fragment walk,
    /// keep disjoint fragments and the pointwise semantics.
    #[test]
    fn set_operations_match_points(a in grid_region_strategy(), b in grid_region_strategy()) {
        for (r, op) in [(a.union(&b), "union"), (a.difference(&b), "difference")] {
            for (i, f) in r.boxes().iter().enumerate() {
                prop_assert!(!f.is_empty(), "{} keeps an empty fragment", op);
                for g in &r.boxes()[i + 1..] {
                    prop_assert!(!f.intersects(g), "{} fragments {:?} and {:?} overlap", op, f, g);
                }
            }
        }
        for p in cell_centers() {
            let (in_a, in_b) = (a.contains_point(&p), b.contains_point(&p));
            prop_assert_eq!(a.union(&b).contains_point(&p), in_a || in_b);
            prop_assert_eq!(a.difference(&b).contains_point(&p), in_a && !in_b);
        }
    }

    #[test]
    fn bbox_encloses_region(a in region_strategy()) {
        let bb = a.bbox();
        for frag in a.boxes() {
            prop_assert!(frag.bbox().le(&bb));
        }
    }

    #[test]
    fn coalesce_preserves_semantics(a in region_strategy(), b in region_strategy()) {
        let mut u = a.union(&b);
        let before = u.clone();
        u.coalesce();
        prop_assert!(u.same_set(&before));
        prop_assert!(u.fragment_count() <= before.fragment_count());
    }

    #[test]
    fn atomless_proper_parts(a in region_strategy()) {
        let alg = alg();
        if !alg.is_zero(&a) {
            let p = alg.proper_part(&a).unwrap();
            prop_assert!(!p.is_empty());
            prop_assert!(p.subset_of(&a));
            prop_assert!(!p.same_set(&a));
            prop_assert!(p.volume() < a.volume());
        }
    }

    /// Fragment counts stay bounded by the structural O(n·m·2K) bound
    /// for difference of unions of boxes.
    #[test]
    fn fragmentation_bounded(a in region_strategy(), b in region_strategy()) {
        let d = a.difference(&b);
        let bound = a.fragment_count() * (b.fragment_count() * 4 + 1).pow(1);
        // Each subtraction of a box can split a fragment into ≤ 2K = 4
        // pieces; m sequential subtractions give ≤ n·(4m+…) — use a
        // generous structural bound.
        let generous = a.fragment_count() * (1 + 4 * b.fragment_count()) * 4;
        prop_assert!(d.fragment_count() <= generous.max(bound));
    }
}

/// Measure monotonicity under the algebra order.
#[test]
fn measure_monotone() {
    let a = Region::from_box(AaBox::new([10.0, 10.0], [30.0, 30.0]));
    let b = Region::from_boxes([
        AaBox::new([0.0, 0.0], [50.0, 50.0]),
        AaBox::new([60.0, 60.0], [70.0, 70.0]),
    ]);
    assert!(a.subset_of(&b));
    assert!(a.volume() <= b.volume());
}
