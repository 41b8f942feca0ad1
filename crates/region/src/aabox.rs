//! Half-open axis-aligned boxes `[lo, hi)`.

use scq_bbox::Bbox;

/// A half-open axis-aligned box `∏ᵢ [loᵢ, hiᵢ)`.
///
/// The box is *empty* iff `lo[d] >= hi[d]` in some dimension. Half-open
/// semantics make box subtraction exact: the fragments of `a \ b`
/// partition `a \ b` with no overlap and no sliver double-counting.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AaBox<const K: usize> {
    lo: [f64; K],
    hi: [f64; K],
}

impl<const K: usize> AaBox<K> {
    /// Creates a box. Coordinates must be finite.
    ///
    /// # Panics
    /// If any coordinate is not finite (debug builds assert; release
    /// builds propagate NaN poison through comparisons, so we always
    /// check).
    pub fn new(lo: [f64; K], hi: [f64; K]) -> Self {
        assert!(
            lo.iter().chain(hi.iter()).all(|c| c.is_finite()),
            "box coordinates must be finite"
        );
        AaBox { lo, hi }
    }

    /// A canonical empty box.
    #[cfg(test)]
    pub(crate) fn empty() -> Self {
        AaBox {
            lo: [0.0; K],
            hi: [0.0; K],
        }
    }

    /// Lower corner (inclusive).
    pub fn lo(&self) -> [f64; K] {
        self.lo
    }

    /// Upper corner (exclusive).
    pub fn hi(&self) -> [f64; K] {
        self.hi
    }

    /// Whether the box contains no points.
    pub fn is_empty(&self) -> bool {
        (0..K).any(|d| self.lo[d] >= self.hi[d])
    }

    /// Whether `p` lies inside (half-open bounds).
    pub(crate) fn contains_point(&self, p: &[f64; K]) -> bool {
        (0..K).all(|d| self.lo[d] <= p[d] && p[d] < self.hi[d])
    }

    /// Whether `other ⊆ self`. The empty box is contained in everything.
    #[cfg(test)]
    fn contains_box(&self, other: &AaBox<K>) -> bool {
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        (0..K).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Geometric intersection; `None` when empty.
    pub(crate) fn intersection(&self, other: &AaBox<K>) -> Option<AaBox<K>> {
        let mut lo = [0.0; K];
        let mut hi = [0.0; K];
        for d in 0..K {
            lo[d] = self.lo[d].max(other.lo[d]);
            hi[d] = self.hi[d].min(other.hi[d]);
            if lo[d] >= hi[d] {
                return None;
            }
        }
        Some(AaBox { lo, hi })
    }

    /// Whether the boxes share any point (half-open test).
    pub fn intersects(&self, other: &AaBox<K>) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && (0..K).all(|d| self.lo[d] < other.hi[d] && other.lo[d] < self.hi[d])
    }

    /// Lebesgue measure: the product of side lengths (0 when empty).
    pub(crate) fn volume(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (0..K).map(|d| self.hi[d] - self.lo[d]).product()
        }
    }

    /// Hands each fragment of `self \ cut` to `emit`: pairwise disjoint,
    /// nonempty, at most `2K`, nothing collected.
    ///
    /// Standard axis sweep: for each dimension the parts of `self`
    /// strictly below/above `cut` are split off whole, and the remaining
    /// core is narrowed to `cut`'s extent in that dimension.
    pub(crate) fn subtract_each(&self, cut: &AaBox<K>, mut emit: impl FnMut(AaBox<K>)) {
        if self.is_empty() {
            return;
        }
        let inter = match self.intersection(cut) {
            None => return emit(*self),
            Some(i) => i,
        };
        let mut core = *self;
        for d in 0..K {
            // part below cut in dimension d
            if core.lo[d] < inter.lo[d] {
                let mut frag = core;
                frag.hi[d] = inter.lo[d];
                emit(frag);
            }
            // part above cut in dimension d
            if inter.hi[d] < core.hi[d] {
                let mut frag = core;
                frag.lo[d] = inter.hi[d];
                emit(frag);
            }
            // narrow the core to cut's slab
            core.lo[d] = inter.lo[d];
            core.hi[d] = inter.hi[d];
        }
    }

    /// The closed bounding box `⌈·⌉` of this half-open box.
    ///
    /// The half-open box `[lo, hi)` has closure `[lo, hi]`; using the
    /// closed box is the standard over-approximation and what R-trees
    /// store.
    pub fn bbox(&self) -> Bbox<K> {
        if self.is_empty() {
            Bbox::Empty
        } else {
            Bbox::new(self.lo, self.hi)
        }
    }

    /// Splits the box in half along its longest dimension.
    ///
    /// Returns `None` when empty. Degenerate halving (midpoint equal to
    /// an endpoint due to floating-point underflow) cannot happen for
    /// nonempty boxes with finite coordinates because `lo < hi` implies
    /// `lo < midpoint < hi` in IEEE-754 arithmetic whenever
    /// `midpoint = lo/2 + hi/2` — we assert it anyway.
    pub(crate) fn halve(&self) -> Option<(AaBox<K>, AaBox<K>)> {
        if self.is_empty() {
            return None;
        }
        let d = (0..K)
            .max_by(|&a, &b| {
                let wa = self.hi[a] - self.lo[a];
                let wb = self.hi[b] - self.lo[b];
                wa.partial_cmp(&wb).expect("finite widths")
            })
            .expect("K > 0");
        let mid = self.lo[d] / 2.0 + self.hi[d] / 2.0;
        if !(self.lo[d] < mid && mid < self.hi[d]) {
            // Extremely thin box where the midpoint collapses; nudge via
            // next-representable value is overkill — treat as unsplittable
            // by splitting another dimension if any has width.
            return None;
        }
        let mut left = *self;
        left.hi[d] = mid;
        let mut right = *self;
        right.lo[d] = mid;
        Some((left, right))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [f64; 2], hi: [f64; 2]) -> AaBox<2> {
        AaBox::new(lo, hi)
    }

    fn subtract(a: &AaBox<2>, cut: &AaBox<2>) -> Vec<AaBox<2>> {
        let mut out = Vec::new();
        a.subtract_each(cut, |f| out.push(f));
        out
    }

    #[test]
    fn emptiness_and_points() {
        assert!(AaBox::<2>::empty().is_empty());
        assert!(
            b([0.0, 0.0], [0.0, 1.0]).is_empty(),
            "zero width is empty (half-open)"
        );
        let x = b([0.0, 0.0], [1.0, 1.0]);
        assert!(x.contains_point(&[0.0, 0.0]), "lo corner inside");
        assert!(!x.contains_point(&[1.0, 1.0]), "hi corner outside");
        assert!(!x.contains_point(&[0.5, 1.0]));
    }

    #[test]
    fn half_open_adjacency_does_not_intersect() {
        let left = b([0.0, 0.0], [1.0, 1.0]);
        let right = b([1.0, 0.0], [2.0, 1.0]);
        assert!(!left.intersects(&right));
        assert!(left.intersection(&right).is_none());
        // but their closed bounding boxes touch
        assert!(left.bbox().overlaps(&right.bbox()));
    }

    #[test]
    fn intersection_volume() {
        let a = b([0.0, 0.0], [2.0, 2.0]);
        let c = b([1.0, 1.0], [3.0, 3.0]);
        let i = a.intersection(&c).unwrap();
        assert_eq!(i.volume(), 1.0);
        assert_eq!(a.volume(), 4.0);
    }

    #[test]
    fn containment() {
        let big = b([0.0, 0.0], [4.0, 4.0]);
        let small = b([1.0, 1.0], [2.0, 2.0]);
        assert!(big.contains_box(&small));
        assert!(!small.contains_box(&big));
        assert!(big.contains_box(&AaBox::empty()));
        assert!(!AaBox::<2>::empty().contains_box(&big));
        assert!(big.contains_box(&big));
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = b([0.0, 0.0], [1.0, 1.0]);
        let c = b([5.0, 5.0], [6.0, 6.0]);
        assert_eq!(subtract(&a, &c), vec![a]);
    }

    #[test]
    fn subtract_covering_returns_nothing() {
        let a = b([1.0, 1.0], [2.0, 2.0]);
        let c = b([0.0, 0.0], [4.0, 4.0]);
        assert!(subtract(&a, &c).is_empty());
    }

    #[test]
    fn subtract_fragments_partition() {
        let a = b([0.0, 0.0], [4.0, 4.0]);
        let c = b([1.0, 1.0], [2.0, 3.0]);
        let frags = subtract(&a, &c);
        // volume is preserved
        let v: f64 = frags.iter().map(AaBox::volume).sum();
        assert!((v - (16.0 - 2.0)).abs() < 1e-12);
        // fragments are pairwise disjoint and inside a, outside c
        for (i, f) in frags.iter().enumerate() {
            assert!(a.contains_box(f));
            assert!(!f.intersects(&c));
            for g in &frags[i + 1..] {
                assert!(!f.intersects(g), "{f:?} vs {g:?}");
            }
        }
        // sample points of a are covered iff outside c
        for xi in 0..40 {
            for yi in 0..40 {
                let p = [xi as f64 * 0.1 + 0.05, yi as f64 * 0.1 + 0.05];
                let in_a = a.contains_point(&p);
                let in_c = c.contains_point(&p);
                let covered = frags.iter().any(|f| f.contains_point(&p));
                assert_eq!(covered, in_a && !in_c, "p = {p:?}");
            }
        }
    }

    #[test]
    fn subtract_partial_overlap() {
        let a = b([0.0, 0.0], [2.0, 2.0]);
        let c = b([1.0, 1.0], [3.0, 3.0]);
        let frags = subtract(&a, &c);
        let v: f64 = frags.iter().map(AaBox::volume).sum();
        assert!((v - 3.0).abs() < 1e-12);
    }

    #[test]
    fn halve_splits_longest_dimension() {
        let a = b([0.0, 0.0], [4.0, 1.0]);
        let (l, r) = a.halve().unwrap();
        assert_eq!(l.hi()[0], 2.0);
        assert_eq!(r.lo()[0], 2.0);
        assert!((l.volume() + r.volume() - a.volume()).abs() < 1e-12);
        assert!(!l.intersects(&r));
        assert!(AaBox::<2>::empty().halve().is_none());
    }

    #[test]
    fn bbox_of_box() {
        let a = b([0.0, 1.0], [2.0, 3.0]);
        assert_eq!(a.bbox(), scq_bbox::Bbox::new([0.0, 1.0], [2.0, 3.0]));
        assert!(AaBox::<2>::empty().bbox().is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        AaBox::new([f64::NAN], [1.0]);
    }
}
