//! [`RegionAlgebra`]: the Boolean algebra of regions inside a universe
//! box, with the atomlessness witness required by the paper's Theorem 7.

use scq_algebra::{Atomless, BooleanAlgebra};

use crate::aabox::AaBox;
use crate::region::Region;

/// The Boolean algebra of sub-regions of a fixed universe box.
///
/// `1` is the universe, `0` the empty region, meet/join/complement the
/// exact geometric operations. Elements are expected to be subsets of the
/// universe; [`RegionAlgebra::clamp`] restricts arbitrary regions.
///
/// Over `f64` coordinates this algebra is atomless for every universe
/// with positive volume: any nonempty region contains a strictly smaller
/// nonempty region (half of one of its fragments). This is the concrete
/// stage on which the paper's `proj` is *exact* (Theorem 7), not merely
/// the best approximation.
#[derive(Clone, Copy, Debug)]
pub struct RegionAlgebra<const K: usize> {
    universe: AaBox<K>,
}

impl<const K: usize> RegionAlgebra<K> {
    /// Creates the algebra with the given universe.
    ///
    /// # Panics
    /// If the universe is empty (the algebra would be degenerate).
    pub fn new(universe: AaBox<K>) -> Self {
        assert!(!universe.is_empty(), "universe must be nonempty");
        RegionAlgebra { universe }
    }

    /// The universe box.
    pub fn universe(&self) -> &AaBox<K> {
        &self.universe
    }

    /// Restricts a region to the universe.
    pub fn clamp(&self, r: &Region<K>) -> Region<K> {
        r.intersection(&Region::from_box(self.universe))
    }
}

impl<const K: usize> BooleanAlgebra for RegionAlgebra<K> {
    type Elem = Region<K>;

    fn zero(&self) -> Region<K> {
        Region::empty()
    }

    fn one(&self) -> Region<K> {
        Region::from_box(self.universe)
    }

    fn meet(&self, a: &Region<K>, b: &Region<K>) -> Region<K> {
        a.intersection(b)
    }

    fn join(&self, a: &Region<K>, b: &Region<K>) -> Region<K> {
        a.union(b)
    }

    fn complement(&self, a: &Region<K>) -> Region<K> {
        a.complement_in(&self.universe)
    }

    fn is_zero(&self, a: &Region<K>) -> bool {
        a.is_empty()
    }

    fn diff(&self, a: &Region<K>, b: &Region<K>) -> Region<K> {
        a.difference(b) // avoid materializing the complement
    }

    fn le(&self, a: &Region<K>, b: &Region<K>) -> bool {
        a.subset_of(b)
    }

    fn overlaps(&self, a: &Region<K>, b: &Region<K>) -> bool {
        a.intersects(b)
    }

    fn eq_elem(&self, a: &Region<K>, b: &Region<K>) -> bool {
        a.same_set(b)
    }
}

impl<const K: usize> Atomless for RegionAlgebra<K> {
    fn proper_part(&self, a: &Region<K>) -> Option<Region<K>> {
        let first = a.boxes().first()?;
        first.halve().map(|(left, _right)| Region::from_box(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_algebra::laws;

    fn alg() -> RegionAlgebra<2> {
        RegionAlgebra::new(AaBox::new([0.0, 0.0], [10.0, 10.0]))
    }

    fn sample_elems(a: &RegionAlgebra<2>) -> Vec<Region<2>> {
        let b = |lo: [f64; 2], hi: [f64; 2]| AaBox::new(lo, hi);
        vec![
            a.zero(),
            a.one(),
            Region::from_box(b([0.0, 0.0], [5.0, 5.0])),
            Region::from_box(b([2.0, 2.0], [8.0, 4.0])),
            Region::from_boxes([b([1.0, 1.0], [3.0, 3.0]), b([6.0, 6.0], [9.0, 9.0])]),
            Region::from_boxes([b([0.0, 4.0], [10.0, 6.0]), b([4.0, 0.0], [6.0, 10.0])]),
        ]
    }

    #[test]
    fn boolean_algebra_laws_hold() {
        let a = alg();
        let elems = sample_elems(&a);
        laws::check_all(&a, &elems);
    }

    #[test]
    fn atomless_witness() {
        let a = alg();
        let elems = sample_elems(&a);
        laws::check_atomless(&a, &elems);
    }

    #[test]
    fn repeated_halving_descends_forever() {
        // atomlessness in action: a strictly descending chain of nonzero
        // elements, impossible in an atomic algebra.
        let a = alg();
        let mut cur = a.one();
        for _ in 0..50 {
            let next = a.proper_part(&cur).expect("nonzero has a proper part");
            assert!(a.le(&next, &cur));
            assert!(!a.eq_elem(&next, &cur));
            assert!(!a.is_zero(&next));
            cur = next;
        }
    }

    #[test]
    fn clamp_restricts() {
        let a = alg();
        let big = Region::from_box(AaBox::new([-5.0, -5.0], [15.0, 15.0]));
        let clamped = a.clamp(&big);
        assert!(a.eq_elem(&clamped, &a.one()));
    }

    #[test]
    #[should_panic(expected = "universe must be nonempty")]
    fn degenerate_universe_rejected() {
        RegionAlgebra::new(AaBox::<2>::empty());
    }

    #[test]
    fn diff_override_consistent() {
        let a = alg();
        let elems = sample_elems(&a);
        for x in &elems {
            for y in &elems {
                let direct = a.diff(x, y);
                let via_complement = x.intersection(&a.complement(y));
                assert!(a.eq_elem(&direct, &via_complement));
            }
        }
    }
}
