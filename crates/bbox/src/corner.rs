//! The corner transform (paper, Figure 3; Samet \[12\]).
//!
//! A nonempty box in `Xᵏ` is a point `(lo, hi)` in `X²ᵏ`. Under this
//! transform the three bounding-box constraint shapes that spatial
//! indexes support —
//!
//! * `⌈x⌉ ⊑ a` (containment in a constant),
//! * `b ⊑ ⌈x⌉` (containment of a constant),
//! * `⌈x⌉ ⊓ c ≠ ∅` (overlap with a constant)
//!
//! — all become per-coordinate interval constraints on `(lo, hi)`, so any
//! conjunction of them is a single axis-aligned **range query** in `X²ᵏ`.
//! [`CornerQuery`] is that range query: it accumulates constraint parts
//! and yields lower/upper bounds for the 2k corner coordinates.

use crate::lattice::Bbox;

/// A corner point: the `(lo, hi)` pair representing a box in `X²ᵏ`.
type CornerPoint<const K: usize> = ([f64; K], [f64; K]);

/// The corner transform: a nonempty box becomes the pair of its corners,
/// i.e. a point in `X²ᵏ` split as `(lo, hi)`. `None` for the empty box,
/// which has no corner representation.
pub fn corner_point<const K: usize>(b: &Bbox<K>) -> Option<CornerPoint<K>> {
    match b {
        Bbox::Empty => None,
        Bbox::Box { lo, hi } => Some((*lo, *hi)),
    }
}

/// An axis-aligned range query over corner points, i.e. a box in `X²ᵏ`.
///
/// Built by conjoining constraint parts; answers
/// [`CornerQuery::matches`] for a candidate bounding box. The query
/// starts unconstrained (the whole corner space) and each part only
/// shrinks it, mirroring `⊓` on the query box of Figure 3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CornerQuery<const K: usize> {
    /// Lower bounds on the `lo` coordinates.
    pub lo_min: [f64; K],
    /// Upper bounds on the `lo` coordinates.
    pub lo_max: [f64; K],
    /// Lower bounds on the `hi` coordinates.
    pub hi_min: [f64; K],
    /// Upper bounds on the `hi` coordinates.
    pub hi_max: [f64; K],
    unsat: bool,
}

impl<const K: usize> Default for CornerQuery<K> {
    fn default() -> Self {
        Self::unconstrained()
    }
}

impl<const K: usize> CornerQuery<K> {
    /// The query matching every box.
    pub fn unconstrained() -> Self {
        CornerQuery {
            lo_min: [f64::NEG_INFINITY; K],
            lo_max: [f64::INFINITY; K],
            hi_min: [f64::NEG_INFINITY; K],
            hi_max: [f64::INFINITY; K],
            unsat: false,
        }
    }

    /// The query matching no box.
    pub fn unsatisfiable() -> Self {
        CornerQuery {
            unsat: true,
            ..Self::unconstrained()
        }
    }

    /// Whether the query provably matches nothing.
    pub fn is_unsatisfiable(&self) -> bool {
        self.unsat
            || (0..K).any(|d| self.lo_min[d] > self.lo_max[d] || self.hi_min[d] > self.hi_max[d])
    }

    /// Adds `⌈x⌉ ⊑ a`: the candidate must be contained in `a`.
    ///
    /// With an empty `a` only the empty box would qualify, and corner
    /// space has no empty boxes, so the query becomes unsatisfiable.
    pub fn and_contained_in(mut self, a: &Bbox<K>) -> Self {
        match a {
            Bbox::Empty => {
                self.unsat = true;
                self
            }
            Bbox::Box { lo, hi } => {
                for d in 0..K {
                    self.lo_min[d] = self.lo_min[d].max(lo[d]);
                    self.hi_max[d] = self.hi_max[d].min(hi[d]);
                }
                self
            }
        }
    }

    /// Adds `b ⊑ ⌈x⌉`: the candidate must contain `b`. An empty `b` is
    /// contained in everything, so it adds no constraint.
    pub fn and_contains(mut self, b: &Bbox<K>) -> Self {
        match b {
            Bbox::Empty => self,
            Bbox::Box { lo, hi } => {
                for d in 0..K {
                    self.lo_max[d] = self.lo_max[d].min(lo[d]);
                    self.hi_min[d] = self.hi_min[d].max(hi[d]);
                }
                self
            }
        }
    }

    /// Adds `⌈x⌉ ⊓ c ≠ ∅`: the candidate must overlap `c`. Nothing
    /// overlaps the empty box, so an empty `c` makes the query
    /// unsatisfiable.
    pub fn and_overlaps(mut self, c: &Bbox<K>) -> Self {
        match c {
            Bbox::Empty => {
                self.unsat = true;
                self
            }
            Bbox::Box { lo, hi } => {
                for d in 0..K {
                    self.lo_max[d] = self.lo_max[d].min(hi[d]);
                    self.hi_min[d] = self.hi_min[d].max(lo[d]);
                }
                self
            }
        }
    }

    /// Reassembles a query from raw corner bounds plus the
    /// unsatisfiable marker — the inverse of reading the public bound
    /// fields and [`CornerQuery::is_unsatisfiable`]. This is the
    /// deserialization entry point for transports that ship corner
    /// queries between processes; a query rebuilt from its own parts
    /// matches exactly the same boxes as the original.
    pub fn from_parts(
        lo_min: [f64; K],
        lo_max: [f64; K],
        hi_min: [f64; K],
        hi_max: [f64; K],
        unsat: bool,
    ) -> Self {
        CornerQuery {
            lo_min,
            lo_max,
            hi_min,
            hi_max,
            unsat,
        }
    }

    /// Whether a candidate bounding box satisfies the query.
    ///
    /// The empty box never matches (it has no corner point).
    pub fn matches(&self, b: &Bbox<K>) -> bool {
        if self.unsat {
            return false;
        }
        match corner_point(b) {
            None => false,
            Some((lo, hi)) => (0..K).all(|d| {
                self.lo_min[d] <= lo[d]
                    && lo[d] <= self.lo_max[d]
                    && self.hi_min[d] <= hi[d]
                    && hi[d] <= self.hi_max[d]
            }),
        }
    }

    /// The query box in corner space as `(lower, upper)` corner-point
    /// pairs — the rectangle shaded in the paper's Figure 3.
    pub fn query_box(&self) -> (CornerPoint<K>, CornerPoint<K>) {
        ((self.lo_min, self.hi_min), (self.lo_max, self.hi_max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b1(lo: f64, hi: f64) -> Bbox<1> {
        Bbox::new([lo], [hi])
    }

    #[test]
    fn corner_point_round_trip() {
        let b = Bbox::new([1.0, 2.0], [3.0, 4.0]);
        assert_eq!(corner_point(&b), Some(([1.0, 2.0], [3.0, 4.0])));
        assert_eq!(corner_point(&Bbox::<2>::Empty), None);
    }

    #[test]
    fn figure3_combination() {
        // Figure 3: intervals x with a ⊑ ⌈x⌉, ⌈x⌉ ⊑ b, ⌈x⌉ ⊓ c ≠ ∅.
        let a = b1(2.0, 3.0);
        let b = b1(0.0, 10.0);
        let c = b1(8.0, 9.0);
        let q = CornerQuery::unconstrained()
            .and_contains(&a)
            .and_contained_in(&b)
            .and_overlaps(&c);
        assert!(q.matches(&b1(1.0, 8.5)), "covers a, inside b, touches c");
        assert!(!q.matches(&b1(2.5, 9.0)), "does not contain a");
        assert!(!q.matches(&b1(-1.0, 8.5)), "not inside b");
        assert!(!q.matches(&b1(1.0, 7.0)), "misses c");
        assert!(!q.is_unsatisfiable());
    }

    #[test]
    fn matches_agrees_with_direct_predicates() {
        let a = b1(2.0, 6.0);
        let bb = b1(0.0, 8.0);
        let c = b1(5.0, 7.0);
        let q = CornerQuery::unconstrained()
            .and_contains(&a)
            .and_contained_in(&bb)
            .and_overlaps(&c);
        // exhaustively compare on a grid of candidate intervals
        for lo10 in -2..20 {
            for hi10 in lo10..20 {
                let x = b1(lo10 as f64 * 0.5, hi10 as f64 * 0.5);
                let direct = a.le(&x) && x.le(&bb) && x.overlaps(&c);
                assert_eq!(q.matches(&x), direct, "x = {x}");
            }
        }
    }

    #[test]
    fn empty_operands() {
        let q = CornerQuery::<1>::unconstrained().and_contained_in(&Bbox::Empty);
        assert!(q.is_unsatisfiable());
        assert!(!q.matches(&b1(0.0, 1.0)));

        let q = CornerQuery::<1>::unconstrained().and_overlaps(&Bbox::Empty);
        assert!(q.is_unsatisfiable());

        // ∅ ⊑ x holds for all x: no constraint.
        let q = CornerQuery::<1>::unconstrained().and_contains(&Bbox::Empty);
        assert!(!q.is_unsatisfiable());
        assert!(q.matches(&b1(3.0, 4.0)));
    }

    #[test]
    fn empty_candidate_never_matches() {
        let q = CornerQuery::<1>::unconstrained();
        assert!(!q.matches(&Bbox::Empty));
    }

    #[test]
    fn conflicting_parts_become_unsat() {
        // contained in [0,1] but containing [5,6]: impossible.
        let q = CornerQuery::unconstrained()
            .and_contained_in(&b1(0.0, 1.0))
            .and_contains(&b1(5.0, 6.0));
        assert!(q.is_unsatisfiable());
    }

    #[test]
    fn query_box_shape() {
        let q = CornerQuery::unconstrained()
            .and_contained_in(&b1(0.0, 10.0))
            .and_overlaps(&b1(4.0, 5.0));
        let ((lo_lo, lo_hi), (hi_lo, hi_hi)) = q.query_box();
        assert_eq!(lo_lo, [0.0]);
        assert_eq!(hi_lo, [5.0]); // lo ≤ c.hi
        assert_eq!(lo_hi, [4.0]); // hi ≥ c.lo
        assert_eq!(hi_hi, [10.0]);
    }
}
