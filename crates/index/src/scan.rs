//! The linear-scan baseline index.

use scq_bbox::{Bbox, CornerQuery};

use crate::traits::SpatialIndex;

/// A trivially correct index: a vector of `(box, id)` pairs filtered on
/// every query. Serves as the oracle for the tree indexes' tests and as
/// the no-index baseline.
#[derive(Clone, Debug, Default)]
pub struct ScanIndex<const K: usize> {
    entries: Vec<(Bbox<K>, u64)>,
}

impl<const K: usize> ScanIndex<K> {
    /// Creates an empty scan index.
    pub fn new() -> Self {
        ScanIndex {
            entries: Vec::new(),
        }
    }

    /// Creates from an iterator of `(id, bbox)` pairs.
    pub fn from_items<I: IntoIterator<Item = (u64, Bbox<K>)>>(items: I) -> Self {
        let mut s = Self::new();
        for (id, b) in items {
            s.insert(id, b);
        }
        s
    }

    /// Direct access to the stored entries.
    pub fn entries(&self) -> &[(Bbox<K>, u64)] {
        &self.entries
    }
}

impl<const K: usize> SpatialIndex<K> for ScanIndex<K> {
    fn insert(&mut self, id: u64, bbox: Bbox<K>) {
        self.entries.push((bbox, id));
    }

    fn remove(&mut self, id: u64, bbox: Bbox<K>) -> bool {
        match self.entries.iter().position(|&(b, i)| i == id && b == bbox) {
            Some(pos) => {
                self.entries.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    fn query_corner(&self, query: &CornerQuery<K>, out: &mut Vec<u64>) {
        if query.is_unsatisfiable() {
            return;
        }
        out.extend(
            self.entries
                .iter()
                .filter(|(b, _)| query.matches(b))
                .map(|&(_, id)| id),
        );
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut s = ScanIndex::<2>::new();
        s.insert(1, Bbox::new([0.0, 0.0], [1.0, 1.0]));
        s.insert(2, Bbox::new([5.0, 5.0], [6.0, 6.0]));
        s.insert(3, Bbox::Empty);
        assert_eq!(s.len(), 3);
        let mut out = Vec::new();
        s.query_overlaps(&Bbox::new([0.5, 0.5], [5.5, 5.5]), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn empty_boxes_never_match() {
        let mut s = ScanIndex::<1>::new();
        s.insert(7, Bbox::Empty);
        let mut out = Vec::new();
        s.query_corner(&CornerQuery::unconstrained(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unsatisfiable_query_is_fast_path() {
        let s = ScanIndex::<1>::from_items([(1, Bbox::new([0.0], [1.0]))]);
        let mut out = Vec::new();
        s.query_corner(&CornerQuery::unsatisfiable(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn remove_and_update() {
        let mut s = ScanIndex::<1>::from_items([
            (1, Bbox::new([0.0], [1.0])),
            (2, Bbox::new([5.0], [6.0])),
        ]);
        assert!(!s.remove(1, Bbox::new([5.0], [6.0])), "box must match");
        assert!(s.remove(1, Bbox::new([0.0], [1.0])));
        assert_eq!(s.len(), 1);
        assert!(s.update(2, Bbox::new([5.0], [6.0]), Bbox::new([0.0], [1.0])));
        let mut out = Vec::new();
        s.query_overlaps(&Bbox::new([0.0], [2.0]), &mut out);
        assert_eq!(out, vec![2]);
        assert!(!s.update(9, Bbox::new([0.0], [1.0]), Bbox::Empty));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn containment_helpers() {
        let s = ScanIndex::<1>::from_items([
            (1, Bbox::new([0.0], [10.0])),
            (2, Bbox::new([2.0], [3.0])),
        ]);
        let mut out = Vec::new();
        s.query_contained_in(&Bbox::new([1.0], [4.0]), &mut out);
        assert_eq!(out, vec![2]);
        out.clear();
        s.query_containing(&Bbox::new([1.0], [4.0]), &mut out);
        assert_eq!(out, vec![1]);
    }
}
