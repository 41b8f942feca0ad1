//! Regions: finite unions of pairwise-disjoint half-open boxes.

use scq_bbox::Bbox;

use crate::aabox::AaBox;

/// Why [`Region::decode_fragments`] refused a fragment list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FragmentError {
    /// The buffer ended before the declared fragments.
    Truncated,
    /// A coordinate was NaN or infinite.
    NonFinite,
    /// A fragment was empty or inverted on some axis.
    EmptyFragment,
    /// Two fragments overlap.
    Overlap,
}

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FragmentError::Truncated => "region fragments truncated",
            FragmentError::NonFinite => "non-finite region coordinate",
            FragmentError::EmptyFragment => "empty or inverted region fragment",
            FragmentError::Overlap => "overlapping region fragments",
        })
    }
}

impl std::error::Error for FragmentError {}

/// A region of `ℝᵏ`: a finite union of half-open boxes.
///
/// Invariant: the stored boxes are nonempty and pairwise disjoint, so
/// [`Region::volume`] is a simple sum and emptiness is `boxes.is_empty()`.
/// All constructors and operations maintain the invariant.
#[derive(Debug, Default)]
pub struct Region<const K: usize> {
    boxes: Vec<AaBox<K>>,
}

impl<const K: usize> Clone for Region<K> {
    fn clone(&self) -> Self {
        #[cfg(debug_assertions)]
        clone_counter::record();
        Region {
            boxes: self.boxes.clone(),
        }
    }
}

/// Debug-only accounting of [`Region`] deep clones.
///
/// The executors' hot loops are designed to bind regions by reference;
/// the allocation-regression test in `scq-engine` resets this counter,
/// runs a query, and asserts it stayed at zero. The counter is
/// **thread-local** so concurrently running tests cannot pollute each
/// other, and compiled only under `debug_assertions` so release builds
/// pay nothing.
#[cfg(debug_assertions)]
pub mod clone_counter {
    use std::cell::Cell;

    thread_local! {
        static CLONES: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn record() {
        CLONES.with(|c| c.set(c.get() + 1));
    }

    /// Number of `Region::clone` calls on this thread since the last
    /// [`reset`].
    pub fn count() -> u64 {
        CLONES.with(|c| c.get())
    }

    /// Resets this thread's clone counter to zero.
    pub fn reset() {
        CLONES.with(|c| c.set(0));
    }
}

impl<const K: usize> Region<K> {
    /// The empty region.
    pub fn empty() -> Self {
        Region { boxes: Vec::new() }
    }

    /// The region of a single box (empty boxes give the empty region).
    pub fn from_box(b: AaBox<K>) -> Self {
        if b.is_empty() {
            Region::empty()
        } else {
            Region { boxes: vec![b] }
        }
    }

    /// The union of arbitrarily overlapping boxes.
    pub fn from_boxes<I: IntoIterator<Item = AaBox<K>>>(it: I) -> Self {
        let mut r = Region::empty();
        for b in it {
            r.insert_box(&b);
        }
        r
    }

    /// Decodes a fragment list from the front of `buf`: a
    /// little-endian `u32` count, then each fragment's `K` low and `K`
    /// high coordinates as little-endian `f64`s — the layout the
    /// snapshot and wire codecs write from [`Region::boxes`]. The
    /// count is checked against the buffer before anything is
    /// reserved. The fragments become the region as they stand, with
    /// no re-union, so a list that no region could hold is refused by
    /// name.
    pub fn decode_fragments(buf: &mut &[u8]) -> Result<Self, FragmentError> {
        fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], FragmentError> {
            let (head, rest) = buf.split_first_chunk().ok_or(FragmentError::Truncated)?;
            *buf = rest;
            Ok(*head)
        }
        let n = u32::from_le_bytes(take(buf)?) as usize;
        if buf.len() < n.saturating_mul(16 * K) {
            return Err(FragmentError::Truncated);
        }
        let mut boxes: Vec<AaBox<K>> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut corners = [[0.0; K]; 2];
            for c in corners.iter_mut().flatten() {
                *c = f64::from_le_bytes(take(buf)?);
                if !c.is_finite() {
                    return Err(FragmentError::NonFinite);
                }
            }
            let b = AaBox::new(corners[0], corners[1]);
            if b.is_empty() {
                return Err(FragmentError::EmptyFragment);
            }
            if boxes.iter().any(|o| o.intersects(&b)) {
                return Err(FragmentError::Overlap);
            }
            boxes.push(b);
        }
        Ok(Region { boxes })
    }

    /// The disjoint fragments making up the region.
    pub fn boxes(&self) -> &[AaBox<K>] {
        &self.boxes
    }

    /// Number of stored fragments (a complexity metric, not a semantic
    /// property — equal regions may have different fragmentations).
    pub fn fragment_count(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the region has no points.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Lebesgue measure.
    pub fn volume(&self) -> f64 {
        self.boxes.iter().map(AaBox::volume).sum()
    }

    /// The bounding-box operator `⌈·⌉` of the paper: the minimal closed
    /// box enclosing the region ([`Bbox::Empty`] for the empty region).
    pub fn bbox(&self) -> Bbox<K> {
        Bbox::join_all(self.boxes.iter().map(AaBox::bbox))
    }

    /// Membership test.
    pub fn contains_point(&self, p: &[f64; K]) -> bool {
        self.boxes.iter().any(|b| b.contains_point(p))
    }

    /// Adds `b \ self` fragments — the union-insert primitive for boxes
    /// that may overlap each other.
    fn insert_box(&mut self, b: &AaBox<K>) {
        if b.is_empty() {
            return;
        }
        let mut fresh = Vec::new();
        for_each_uncovered(*b, &self.boxes, &mut |f| {
            fresh.push(f);
            true
        });
        self.boxes.append(&mut fresh);
    }

    /// Set union.
    pub fn union(&self, other: &Region<K>) -> Region<K> {
        // Builds the result directly rather than via `Region::clone`:
        // the debug clone counter tracks accidental deep clones of
        // region *values* (executor hot loops), not the intrinsic data
        // flow of set operations. `other`'s fragments are pairwise
        // disjoint, so `self ∪ (other \ self)` needs no re-insertion.
        let mut boxes = self.boxes.clone();
        for b in &other.boxes {
            for_each_uncovered(*b, &self.boxes, &mut |f| {
                boxes.push(f);
                true
            });
        }
        Region { boxes }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Region<K>) -> Region<K> {
        let mut boxes = Vec::new();
        for a in &self.boxes {
            for b in &other.boxes {
                if let Some(i) = a.intersection(b) {
                    boxes.push(i);
                }
            }
        }
        // Fragments of disjoint sets intersected with disjoint sets stay
        // pairwise disjoint, so the invariant holds without re-insertion.
        Region { boxes }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Region<K>) -> Region<K> {
        let mut boxes = Vec::new();
        for a in &self.boxes {
            for_each_uncovered(*a, &other.boxes, &mut |f| {
                boxes.push(f);
                true
            });
        }
        Region { boxes }
    }

    /// Symmetric difference.
    pub fn sym_diff(&self, other: &Region<K>) -> Region<K> {
        self.difference(other).union(&other.difference(self))
    }

    /// Complement relative to `universe`.
    pub(crate) fn complement_in(&self, universe: &AaBox<K>) -> Region<K> {
        Region::from_box(*universe).difference(self)
    }

    /// Semantic equality: each region covers the other.
    ///
    /// Fragmentation is not canonical, so `==` on `boxes` would be wrong;
    /// this is the real extensional test.
    pub fn same_set(&self, other: &Region<K>) -> bool {
        self.subset_of(other) && other.subset_of(self)
    }

    /// Whether `self ⊆ other`: a streaming coverage test that stops at
    /// the first uncovered fragment and allocates nothing.
    pub fn subset_of(&self, other: &Region<K>) -> bool {
        self.boxes
            .iter()
            .all(|a| for_each_uncovered(*a, &other.boxes, &mut |_| false))
    }

    /// Whether the regions share any point.
    pub fn intersects(&self, other: &Region<K>) -> bool {
        self.boxes
            .iter()
            .any(|a| other.boxes.iter().any(|b| a.intersects(b)))
    }

    /// Greedily merges adjacent fragments that differ in exactly one
    /// dimension, shrinking the representation. Semantics preserved.
    pub fn coalesce(&mut self) {
        loop {
            let mut merged = false;
            'outer: for i in 0..self.boxes.len() {
                for j in (i + 1)..self.boxes.len() {
                    if let Some(m) = try_merge(&self.boxes[i], &self.boxes[j]) {
                        self.boxes[i] = m;
                        self.boxes.swap_remove(j);
                        merged = true;
                        break 'outer;
                    }
                }
            }
            if !merged {
                return;
            }
        }
    }
}

/// Hands `visit` each fragment of `b \ ⋃cover` — the pieces subtracting
/// `cover` box by box would leave, in that order — without collecting
/// them, and stops as soon as `visit` returns `false`. Returns whether it
/// ran to the end.
///
/// Depth-first over [`AaBox::subtract_each`]: a fragment only meets the
/// cover boxes after the one that cut it. The last fragment of each cut
/// continues the loop instead of recursing, so a strip cut by a long run
/// of boxes stays one stack frame deep.
fn for_each_uncovered<const K: usize>(
    mut b: AaBox<K>,
    mut cover: &[AaBox<K>],
    visit: &mut impl FnMut(AaBox<K>) -> bool,
) -> bool {
    'fragment: loop {
        for (i, c) in cover.iter().enumerate() {
            if !c.intersects(&b) {
                continue;
            }
            let rest = &cover[i + 1..];
            let mut last = None;
            let mut go_on = true;
            b.subtract_each(c, |f| {
                if let Some(prev) = last.replace(f) {
                    go_on = go_on && for_each_uncovered(prev, rest, visit);
                }
            });
            match last {
                Some(f) if go_on => {
                    b = f;
                    cover = rest;
                    continue 'fragment;
                }
                _ => return go_on,
            }
        }
        return visit(b);
    }
}

/// Merges two boxes that agree in all dimensions but one, where they are
/// adjacent or identical. Returns the merged box.
fn try_merge<const K: usize>(a: &AaBox<K>, b: &AaBox<K>) -> Option<AaBox<K>> {
    let mut diff_dim = None;
    for d in 0..K {
        if a.lo()[d] != b.lo()[d] || a.hi()[d] != b.hi()[d] {
            if diff_dim.is_some() {
                return None;
            }
            diff_dim = Some(d);
        }
    }
    let d = match diff_dim {
        None => return Some(*a), // identical boxes (should not occur; harmless)
        Some(d) => d,
    };
    if a.hi()[d] == b.lo()[d] {
        let mut lo = a.lo();
        let mut hi = a.hi();
        lo[d] = a.lo()[d];
        hi[d] = b.hi()[d];
        Some(AaBox::new(lo, hi))
    } else if b.hi()[d] == a.lo()[d] {
        let mut lo = a.lo();
        let mut hi = a.hi();
        lo[d] = b.lo()[d];
        hi[d] = a.hi()[d];
        Some(AaBox::new(lo, hi))
    } else {
        None
    }
}

impl<const K: usize> PartialEq for Region<K> {
    /// Extensional equality (same point set).
    fn eq(&self, other: &Self) -> bool {
        self.same_set(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [f64; 2], hi: [f64; 2]) -> AaBox<2> {
        AaBox::new(lo, hi)
    }

    /// The fragment layout the snapshot and wire codecs write.
    fn encode(count: u32, coords: &[f64]) -> Vec<u8> {
        let mut out = count.to_le_bytes().to_vec();
        for c in coords {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    #[test]
    fn decode_fragments_keeps_the_fragments_and_names_bad_lists() {
        let region = r(&[b([0.0, 0.0], [4.0, 4.0]), b([2.0, 2.0], [6.0, 6.0])]);
        let coords: Vec<f64> = region
            .boxes()
            .iter()
            .flat_map(|f| f.lo().into_iter().chain(f.hi()))
            .collect();
        let bytes = encode(region.fragment_count() as u32, &coords);
        let mut buf = &bytes[..];
        let back = Region::<2>::decode_fragments(&mut buf).unwrap();
        assert_eq!(back.boxes(), region.boxes(), "fragments as they were");
        assert!(buf.is_empty(), "the whole list is consumed");

        let decode = |bytes: Vec<u8>| Region::<2>::decode_fragments(&mut &bytes[..]);
        let overlap = encode(2, &[0.0, 0.0, 2.0, 2.0, 1.0, 1.0, 3.0, 3.0]);
        assert_eq!(decode(overlap).err(), Some(FragmentError::Overlap));
        let touching = encode(2, &[0.0, 0.0, 2.0, 2.0, 2.0, 0.0, 3.0, 2.0]);
        assert_eq!(decode(touching).unwrap().fragment_count(), 2);
        let inverted = encode(1, &[3.0, 0.0, 1.0, 2.0]);
        assert_eq!(decode(inverted).err(), Some(FragmentError::EmptyFragment));
        let flat = encode(1, &[0.0, 1.0, 2.0, 1.0]);
        assert_eq!(decode(flat).err(), Some(FragmentError::EmptyFragment));
        let nan = encode(1, &[0.0, f64::NAN, 2.0, 1.0]);
        assert_eq!(decode(nan).err(), Some(FragmentError::NonFinite));
        // A claimed count past the buffer errs before reserving.
        let huge = encode(u32::MAX, &[0.0, 0.0, 1.0, 1.0]);
        assert_eq!(decode(huge).err(), Some(FragmentError::Truncated));
        assert_eq!(decode(vec![1, 0]).err(), Some(FragmentError::Truncated));
        assert!(decode(encode(0, &[])).unwrap().is_empty());
    }

    fn r(boxes: &[AaBox<2>]) -> Region<2> {
        Region::from_boxes(boxes.iter().copied())
    }

    /// Validates the disjointness invariant.
    fn check_invariant(reg: &Region<2>) {
        for (i, a) in reg.boxes().iter().enumerate() {
            assert!(!a.is_empty());
            for bx in &reg.boxes()[i + 1..] {
                assert!(!a.intersects(bx), "{a:?} overlaps {bx:?}");
            }
        }
    }

    #[test]
    fn union_of_overlapping_boxes() {
        let reg = r(&[b([0.0, 0.0], [2.0, 2.0]), b([1.0, 1.0], [3.0, 3.0])]);
        check_invariant(&reg);
        assert!((reg.volume() - 7.0).abs() < 1e-12);
        assert!(reg.contains_point(&[2.5, 2.5]));
        assert!(!reg.contains_point(&[2.5, 0.5]));
    }

    #[test]
    fn union_is_idempotent_and_commutative() {
        let x = r(&[b([0.0, 0.0], [2.0, 2.0])]);
        let y = r(&[b([1.0, 0.0], [3.0, 1.0])]);
        assert!(x.union(&y).same_set(&y.union(&x)));
        assert!(x.union(&x).same_set(&x));
        check_invariant(&x.union(&y));
    }

    #[test]
    fn intersection_matches_pointwise() {
        let x = r(&[b([0.0, 0.0], [2.0, 2.0]), b([3.0, 3.0], [5.0, 5.0])]);
        let y = r(&[b([1.0, 1.0], [4.0, 4.0])]);
        let i = x.intersection(&y);
        check_invariant(&i);
        for xi in 0..60 {
            for yi in 0..60 {
                let p = [xi as f64 * 0.1, yi as f64 * 0.1];
                assert_eq!(
                    i.contains_point(&p),
                    x.contains_point(&p) && y.contains_point(&p),
                    "p = {p:?}"
                );
            }
        }
    }

    #[test]
    fn difference_matches_pointwise() {
        let x = r(&[b([0.0, 0.0], [4.0, 4.0])]);
        let y = r(&[b([1.0, 1.0], [2.0, 2.0]), b([3.0, 0.0], [5.0, 5.0])]);
        let d = x.difference(&y);
        check_invariant(&d);
        for xi in 0..55 {
            for yi in 0..55 {
                let p = [xi as f64 * 0.1, yi as f64 * 0.1];
                assert_eq!(
                    d.contains_point(&p),
                    x.contains_point(&p) && !y.contains_point(&p),
                    "p = {p:?}"
                );
            }
        }
    }

    #[test]
    fn complement_in_universe() {
        let u = b([0.0, 0.0], [10.0, 10.0]);
        let x = r(&[b([2.0, 2.0], [8.0, 8.0])]);
        let c = x.complement_in(&u);
        check_invariant(&c);
        assert!((c.volume() - (100.0 - 36.0)).abs() < 1e-12);
        // double complement is identity
        assert!(c.complement_in(&u).same_set(&x));
    }

    #[test]
    fn volume_additivity() {
        let x = r(&[b([0.0, 0.0], [2.0, 2.0])]);
        let y = r(&[b([1.0, 1.0], [3.0, 3.0])]);
        let vu = x.union(&y).volume();
        let vi = x.intersection(&y).volume();
        assert!(
            (vu + vi - (x.volume() + y.volume())).abs() < 1e-12,
            "inclusion-exclusion"
        );
    }

    #[test]
    fn same_set_ignores_fragmentation() {
        // same square built two different ways
        let one = r(&[b([0.0, 0.0], [2.0, 2.0])]);
        let two = r(&[b([0.0, 0.0], [1.0, 2.0]), b([1.0, 0.0], [2.0, 2.0])]);
        assert!(one.same_set(&two));
        assert_eq!(one, two);
        assert_ne!(one.fragment_count(), two.fragment_count());
    }

    #[test]
    fn subset_and_intersects() {
        let big = r(&[b([0.0, 0.0], [4.0, 4.0])]);
        let small = r(&[b([1.0, 1.0], [2.0, 2.0])]);
        let far = r(&[b([9.0, 9.0], [10.0, 10.0])]);
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
        assert!(small.intersects(&big));
        assert!(!far.intersects(&big));
        assert!(Region::<2>::empty().subset_of(&small));
    }

    #[test]
    fn bbox_encloses() {
        let x = r(&[b([0.0, 0.0], [1.0, 1.0]), b([4.0, 2.0], [5.0, 6.0])]);
        assert_eq!(x.bbox(), Bbox::new([0.0, 0.0], [5.0, 6.0]));
        assert!(Region::<2>::empty().bbox().is_empty());
    }

    #[test]
    fn coalesce_reduces_fragments() {
        let mut x = r(&[b([0.0, 0.0], [1.0, 2.0]), b([1.0, 0.0], [2.0, 2.0])]);
        let before = x.clone();
        x.coalesce();
        assert_eq!(x.fragment_count(), 1);
        assert!(x.same_set(&before));
    }

    #[test]
    fn empty_behaviour() {
        let e = Region::<2>::empty();
        let x = r(&[b([0.0, 0.0], [1.0, 1.0])]);
        assert!(e.union(&x).same_set(&x));
        assert!(e.intersection(&x).is_empty());
        assert!(x.difference(&e).same_set(&x));
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
    }

    #[test]
    fn sym_diff_pointwise() {
        let x = r(&[b([0.0, 0.0], [2.0, 2.0])]);
        let y = r(&[b([1.0, 1.0], [3.0, 3.0])]);
        let s = x.sym_diff(&y);
        for xi in 0..35 {
            for yi in 0..35 {
                let p = [xi as f64 * 0.1, yi as f64 * 0.1];
                assert_eq!(
                    s.contains_point(&p),
                    x.contains_point(&p) != y.contains_point(&p)
                );
            }
        }
    }
}
