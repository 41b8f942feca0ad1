//! Closed axis-aligned bounding boxes and their lattice structure.

use std::fmt;

/// A closed axis-aligned box `[lo₁,hi₁] × … × [lo_K,hi_K]`, or the empty
/// box `∅`.
///
/// `Bbox` is the element type of the paper's bounding-box lattice: meet
/// [`Bbox::meet`] is geometric intersection, join [`Bbox::join`] is the
/// minimal enclosing box, and the order [`Bbox::le`] is containment. The
/// empty box is the bottom element and behaves as the unit of `join` and
/// the absorbing element of `meet`.
///
/// Coordinates must be finite; the constructors debug-assert this.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Bbox<const K: usize> {
    /// The empty bounding box (bottom of the lattice).
    Empty,
    /// A nonempty closed box; `lo[d] <= hi[d]` for every dimension `d`.
    Box {
        /// Lower corner.
        lo: [f64; K],
        /// Upper corner.
        hi: [f64; K],
    },
}

impl<const K: usize> Bbox<K> {
    /// A box from corners. Returns [`Bbox::Empty`] when `lo[d] > hi[d]`
    /// in some dimension.
    pub fn new(lo: [f64; K], hi: [f64; K]) -> Self {
        debug_assert!(
            lo.iter().chain(hi.iter()).all(|c| c.is_finite()),
            "bounding box coordinates must be finite"
        );
        for d in 0..K {
            if lo[d] > hi[d] {
                return Bbox::Empty;
            }
        }
        Bbox::Box { lo, hi }
    }

    /// A degenerate box containing exactly one point.
    pub fn point(p: [f64; K]) -> Self {
        Bbox::new(p, p)
    }

    /// Whether this is the empty box.
    pub fn is_empty(&self) -> bool {
        matches!(self, Bbox::Empty)
    }

    /// Lower corner, if nonempty.
    pub fn lo(&self) -> Option<[f64; K]> {
        match self {
            Bbox::Empty => None,
            Bbox::Box { lo, .. } => Some(*lo),
        }
    }

    /// Upper corner, if nonempty.
    pub fn hi(&self) -> Option<[f64; K]> {
        match self {
            Bbox::Empty => None,
            Bbox::Box { hi, .. } => Some(*hi),
        }
    }

    /// Lattice meet `⊓`: geometric intersection.
    pub fn meet(&self, other: &Self) -> Self {
        match (self, other) {
            (Bbox::Empty, _) | (_, Bbox::Empty) => Bbox::Empty,
            (Bbox::Box { lo: a, hi: b }, Bbox::Box { lo: c, hi: d }) => {
                let mut lo = [0.0; K];
                let mut hi = [0.0; K];
                for i in 0..K {
                    lo[i] = a[i].max(c[i]);
                    hi[i] = b[i].min(d[i]);
                    if lo[i] > hi[i] {
                        return Bbox::Empty;
                    }
                }
                Bbox::Box { lo, hi }
            }
        }
    }

    /// Lattice join `⊔`: the minimal enclosing box. Note this is *not*
    /// set union — the paper is explicit that `⊔` over-approximates `∪`.
    pub fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (Bbox::Empty, b) => *b,
            (a, Bbox::Empty) => *a,
            (Bbox::Box { lo: a, hi: b }, Bbox::Box { lo: c, hi: d }) => {
                let mut lo = [0.0; K];
                let mut hi = [0.0; K];
                for i in 0..K {
                    lo[i] = a[i].min(c[i]);
                    hi[i] = b[i].max(d[i]);
                }
                Bbox::Box { lo, hi }
            }
        }
    }

    /// Containment order `⊑` (the lattice order).
    pub fn le(&self, other: &Self) -> bool {
        match (self, other) {
            (Bbox::Empty, _) => true,
            (_, Bbox::Empty) => false,
            (Bbox::Box { lo: a, hi: b }, Bbox::Box { lo: c, hi: d }) => {
                (0..K).all(|i| c[i] <= a[i] && b[i] <= d[i])
            }
        }
    }

    /// Whether the boxes intersect (`self ⊓ other ≠ ∅`).
    pub fn overlaps(&self, other: &Self) -> bool {
        !self.meet(other).is_empty()
    }

    /// Whether the point lies inside (closed) bounds.
    #[cfg(test)]
    fn contains_point(&self, p: &[f64; K]) -> bool {
        match self {
            Bbox::Empty => false,
            Bbox::Box { lo, hi } => (0..K).all(|i| lo[i] <= p[i] && p[i] <= hi[i]),
        }
    }

    /// Product of side lengths; `0` for the empty box (and for degenerate
    /// boxes, which have zero width in some dimension).
    pub fn volume(&self) -> f64 {
        match self {
            Bbox::Empty => 0.0,
            Bbox::Box { lo, hi } => (0..K).map(|i| hi[i] - lo[i]).product(),
        }
    }

    /// Sum of side lengths — the "margin", used by R-tree heuristics.
    #[cfg(test)]
    fn margin(&self) -> f64 {
        match self {
            Bbox::Empty => 0.0,
            Bbox::Box { lo, hi } => (0..K).map(|i| hi[i] - lo[i]).sum(),
        }
    }

    /// Volume of the join minus own volumes' proxy: the *enlargement* of
    /// `self` needed to cover `other` (Guttman's insertion criterion).
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.join(other).volume() - self.volume()
    }

    /// The center point, if nonempty.
    pub fn center(&self) -> Option<[f64; K]> {
        match self {
            Bbox::Empty => None,
            Bbox::Box { lo, hi } => {
                let mut c = [0.0; K];
                for i in 0..K {
                    c[i] = 0.5 * (lo[i] + hi[i]);
                }
                Some(c)
            }
        }
    }

    /// n-ary join.
    pub fn join_all<I: IntoIterator<Item = Bbox<K>>>(it: I) -> Self {
        it.into_iter().fold(Bbox::Empty, |acc, b| acc.join(&b))
    }
}

impl<const K: usize> fmt::Display for Bbox<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bbox::Empty => write!(f, "∅"),
            Bbox::Box { lo, hi } => {
                write!(f, "[")?;
                for i in 0..K {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}..{}", lo[i], hi[i])?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b2(lo: [f64; 2], hi: [f64; 2]) -> Bbox<2> {
        Bbox::new(lo, hi)
    }

    #[test]
    fn inverted_bounds_are_empty() {
        assert!(b2([1.0, 0.0], [0.0, 1.0]).is_empty());
        assert!(
            !b2([0.0, 0.0], [0.0, 0.0]).is_empty(),
            "degenerate point box is nonempty"
        );
    }

    #[test]
    fn meet_is_intersection() {
        let a = b2([0.0, 0.0], [2.0, 2.0]);
        let b = b2([1.0, 1.0], [3.0, 3.0]);
        assert_eq!(a.meet(&b), b2([1.0, 1.0], [2.0, 2.0]));
        let c = b2([5.0, 5.0], [6.0, 6.0]);
        assert!(a.meet(&c).is_empty());
        assert!(a.meet(&Bbox::Empty).is_empty());
    }

    #[test]
    fn join_is_enclosing_box() {
        let a = b2([0.0, 0.0], [1.0, 1.0]);
        let b = b2([2.0, 2.0], [3.0, 3.0]);
        let j = a.join(&b);
        assert_eq!(j, b2([0.0, 0.0], [3.0, 3.0]));
        assert_eq!(a.join(&Bbox::Empty), a);
        assert_eq!(Bbox::Empty.join(&b), b);
    }

    #[test]
    fn lattice_laws() {
        let elems = [
            Bbox::Empty,
            b2([0.0, 0.0], [2.0, 2.0]),
            b2([1.0, 1.0], [3.0, 3.0]),
            b2([0.5, 0.5], [1.5, 4.0]),
            b2([2.0, 0.0], [2.0, 5.0]),
        ];
        for a in &elems {
            assert_eq!(a.meet(a), *a, "meet idempotent");
            assert_eq!(a.join(a), *a, "join idempotent");
            assert!(Bbox::Empty.le(a), "empty is bottom");
            for b in &elems {
                assert_eq!(a.meet(b), b.meet(a), "meet commutes");
                assert_eq!(a.join(b), b.join(a), "join commutes");
                assert_eq!(a.meet(&a.join(b)), *a, "absorption 1");
                assert_eq!(a.join(&a.meet(b)), *a, "absorption 2");
                // order compatibility
                assert_eq!(a.le(b), a.join(b) == *b);
                assert_eq!(a.le(b), a.meet(b) == *a);
                for c in &elems {
                    assert_eq!(a.meet(&b.meet(c)), a.meet(b).meet(c), "meet associates");
                    assert_eq!(a.join(&b.join(c)), a.join(b).join(c), "join associates");
                }
            }
        }
    }

    #[test]
    fn join_overapproximates_union() {
        // Distributivity FAILS in the bbox lattice (the paper's point):
        // (a ⊔ b) ⊓ c can exceed (a ⊓ c) ⊔ (b ⊓ c).
        let a = b2([0.0, 0.0], [1.0, 1.0]);
        let b = b2([4.0, 4.0], [5.0, 5.0]);
        let c = b2([2.0, 2.0], [3.0, 3.0]);
        let lhs = a.join(&b).meet(&c);
        let rhs = a.meet(&c).join(&b.meet(&c));
        assert_eq!(lhs, c);
        assert!(rhs.is_empty());
    }

    #[test]
    fn containment_and_overlap() {
        let outer = b2([0.0, 0.0], [10.0, 10.0]);
        let inner = b2([1.0, 1.0], [2.0, 2.0]);
        assert!(inner.le(&outer));
        assert!(!outer.le(&inner));
        assert!(inner.overlaps(&outer));
        assert!(outer.contains_point(&[5.0, 5.0]));
        assert!(!inner.contains_point(&[5.0, 5.0]));
        // closed boxes: touching edges overlap
        let left = b2([0.0, 0.0], [1.0, 1.0]);
        let right = b2([1.0, 0.0], [2.0, 1.0]);
        assert!(left.overlaps(&right));
    }

    #[test]
    fn volume_margin_enlargement() {
        let a = b2([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(a.volume(), 6.0);
        assert_eq!(a.margin(), 5.0);
        assert_eq!(Bbox::<2>::Empty.volume(), 0.0);
        let b = b2([2.0, 3.0], [4.0, 4.0]);
        assert_eq!(a.enlargement(&b), 16.0 - 6.0);
    }

    #[test]
    fn center_and_point() {
        let a = b2([0.0, 2.0], [4.0, 4.0]);
        assert_eq!(a.center(), Some([2.0, 3.0]));
        assert_eq!(Bbox::<2>::Empty.center(), None);
        let p = Bbox::point([1.0, 1.0]);
        assert!(p.contains_point(&[1.0, 1.0]));
        assert_eq!(p.volume(), 0.0);
    }

    #[test]
    fn join_all_folds() {
        let boxes = vec![
            b2([0.0, 0.0], [1.0, 1.0]),
            b2([5.0, -1.0], [6.0, 0.5]),
            Bbox::Empty,
        ];
        assert_eq!(Bbox::join_all(boxes), b2([0.0, -1.0], [6.0, 1.0]));
        assert!(Bbox::<2>::join_all(std::iter::empty()).is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(Bbox::<2>::Empty.to_string(), "∅");
        assert_eq!(b2([0.0, 1.0], [2.0, 3.0]).to_string(), "[0..2, 1..3]");
    }
}
