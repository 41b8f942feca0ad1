//! Guttman's R-tree (reference \[6\] of the paper) with linear and
//! quadratic node-split heuristics.
//!
//! The tree stores `(bounding box, id)` pairs in leaves; internal nodes
//! keep the minimal bounding rectangle (MBR) of each child. Insertion
//! follows Guttman's ChooseLeaf (least enlargement, ties by smaller
//! volume), splits overflowing nodes with the configured heuristic, and
//! propagates MBR adjustments to the root.
//!
//! Search prunes subtrees through the **corner-space** interpretation of
//! the node MBR: every entry box inside a subtree has both corners inside
//! the subtree's MBR, which yields per-dimension bounds on the entry's
//! `(lo, hi)` corner coordinates that can be intersected with the
//! [`CornerQuery`] intervals.

use scq_bbox::{Bbox, CornerQuery};

use crate::traits::SpatialIndex;

/// Node-split heuristic (Guttman 1984, §3.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SplitStrategy {
    /// Linear-cost seeds: greatest normalized separation per dimension.
    Linear,
    /// Quadratic-cost seeds: pair wasting the most dead space.
    Quadratic,
}

#[derive(Clone, Debug)]
enum Node<const K: usize> {
    Leaf(Vec<(Bbox<K>, u64)>),
    Internal(Vec<(Bbox<K>, Node<K>)>),
}

/// An R-tree over `K`-dimensional bounding boxes.
#[derive(Clone, Debug)]
pub struct RTree<const K: usize> {
    root: Node<K>,
    max_entries: usize,
    min_entries: usize,
    strategy: SplitStrategy,
    len: usize,
    /// Ids inserted with empty boxes; never matched by queries, kept as
    /// ids so `remove(id, Bbox::Empty)` only removes entries that were
    /// actually inserted.
    empty: Vec<u64>,
}

impl<const K: usize> Default for RTree<K> {
    fn default() -> Self {
        Self::new(SplitStrategy::Quadratic)
    }
}

impl<const K: usize> RTree<K> {
    /// Creates an empty tree with the default node capacity (8).
    pub fn new(strategy: SplitStrategy) -> Self {
        Self::with_capacity(strategy, 8)
    }

    /// Creates an empty tree with the given maximum node fan-out
    /// (minimum fill is 40% of it, per Guttman's recommendation).
    ///
    /// # Panics
    /// If `max_entries < 4`.
    fn with_capacity(strategy: SplitStrategy, max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R-tree fan-out must be at least 4");
        RTree {
            root: Node::Leaf(Vec::new()),
            max_entries,
            min_entries: (max_entries * 2 / 5).max(1),
            strategy,
            len: 0,
            empty: Vec::new(),
        }
    }

    /// Builds a tree from items.
    pub fn from_items<I: IntoIterator<Item = (u64, Bbox<K>)>>(
        strategy: SplitStrategy,
        items: I,
    ) -> Self {
        let mut t = Self::new(strategy);
        for (id, b) in items {
            t.insert(id, b);
        }
        t
    }

    /// Height of the tree (1 for a single leaf).
    #[cfg(test)]
    fn height(&self) -> usize {
        fn depth<const K: usize>(n: &Node<K>) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Internal(children) => {
                    1 + children.first().map(|(_, c)| depth(c)).unwrap_or(0)
                }
            }
        }
        depth(&self.root)
    }

    /// Validates the structural invariants; test support.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        fn go<const K: usize>(
            n: &Node<K>,
            max: usize,
            min: usize,
            is_root: bool,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> Bbox<K> {
            match n {
                Node::Leaf(entries) => {
                    assert!(entries.len() <= max, "leaf overflow");
                    if !is_root {
                        assert!(entries.len() >= min, "leaf underflow");
                    }
                    match leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) => assert_eq!(*d, depth, "leaves at unequal depth"),
                    }
                    Bbox::join_all(entries.iter().map(|(b, _)| *b))
                }
                Node::Internal(children) => {
                    assert!(!children.is_empty());
                    assert!(children.len() <= max, "internal overflow");
                    if !is_root {
                        assert!(children.len() >= min, "internal underflow");
                    }
                    let mut whole = Bbox::Empty;
                    for (mbr, child) in children {
                        let actual = go(child, max, min, false, depth + 1, leaf_depth);
                        assert_eq!(*mbr, actual, "stale child MBR");
                        whole = whole.join(mbr);
                    }
                    whole
                }
            }
        }
        let mut leaf_depth = None;
        go(
            &self.root,
            self.max_entries,
            self.min_entries,
            true,
            0,
            &mut leaf_depth,
        );
    }

    /// Like [`RTree::check_invariants`] but without the minimum-fill
    /// requirement: STR bulk loading legitimately leaves one underfull
    /// group per level.
    #[cfg(test)]
    fn check_invariants_packed(&self) {
        fn go<const K: usize>(
            n: &Node<K>,
            max: usize,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> Bbox<K> {
            match n {
                Node::Leaf(entries) => {
                    assert!(entries.len() <= max, "leaf overflow");
                    match leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) => assert_eq!(*d, depth, "leaves at unequal depth"),
                    }
                    Bbox::join_all(entries.iter().map(|(b, _)| *b))
                }
                Node::Internal(children) => {
                    assert!(!children.is_empty());
                    assert!(children.len() <= max, "internal overflow");
                    let mut whole = Bbox::Empty;
                    for (mbr, child) in children {
                        let actual = go(child, max, depth + 1, leaf_depth);
                        assert_eq!(*mbr, actual, "stale child MBR");
                        whole = whole.join(mbr);
                    }
                    whole
                }
            }
        }
        let mut leaf_depth = None;
        go(&self.root, self.max_entries, 0, &mut leaf_depth);
    }
}

/// Per-dimension corner-interval pruning: can a box with both corners
/// inside `mbr` satisfy `q`?
fn node_may_match<const K: usize>(q: &CornerQuery<K>, mbr: &Bbox<K>) -> bool {
    let (lo, hi) = match (mbr.lo(), mbr.hi()) {
        (Some(lo), Some(hi)) => (lo, hi),
        _ => return false,
    };
    for d in 0..K {
        // entry.lo[d] ∈ [lo[d], hi[d]] must meet [q.lo_min, q.lo_max]
        if q.lo_min[d] > hi[d] || q.lo_max[d] < lo[d] {
            return false;
        }
        // entry.hi[d] ∈ [lo[d], hi[d]] must meet [q.hi_min, q.hi_max]
        if q.hi_min[d] > hi[d] || q.hi_max[d] < lo[d] {
            return false;
        }
    }
    true
}

fn search<const K: usize>(node: &Node<K>, q: &CornerQuery<K>, out: &mut Vec<u64>) {
    match node {
        Node::Leaf(entries) => {
            out.extend(
                entries
                    .iter()
                    .filter(|(b, _)| q.matches(b))
                    .map(|&(_, id)| id),
            );
        }
        Node::Internal(children) => {
            for (mbr, child) in children {
                if node_may_match(q, mbr) {
                    search(child, q, out);
                }
            }
        }
    }
}

/// Two entry groups produced by a node split.
type SplitGroups<const K: usize, T> = (Vec<(Bbox<K>, T)>, Vec<(Bbox<K>, T)>);

/// Splits an overflowing entry list into two groups per the strategy.
fn split_entries<const K: usize, T>(
    mut entries: Vec<(Bbox<K>, T)>,
    min: usize,
    strategy: SplitStrategy,
) -> SplitGroups<K, T> {
    debug_assert!(entries.len() >= 2);
    let (s1, s2) = match strategy {
        SplitStrategy::Linear => linear_seeds(&entries),
        SplitStrategy::Quadratic => quadratic_seeds(&entries),
    };
    // Remove seeds (larger index first to keep positions valid).
    let (hi_idx, lo_idx) = if s1 > s2 { (s1, s2) } else { (s2, s1) };
    let seed_b = entries.swap_remove(hi_idx);
    let seed_a = entries.swap_remove(lo_idx);

    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut mbr_a = group_a[0].0;
    let mut mbr_b = group_b[0].0;

    while let Some(pos) = pick_next(&entries, &mbr_a, &mbr_b, strategy) {
        let remaining = entries.len();
        // Min-fill enforcement: if a group needs all remaining entries,
        // give them to it wholesale.
        if group_a.len() + remaining == min {
            for e in entries.drain(..) {
                mbr_a = mbr_a.join(&e.0);
                group_a.push(e);
            }
            break;
        }
        if group_b.len() + remaining == min {
            for e in entries.drain(..) {
                mbr_b = mbr_b.join(&e.0);
                group_b.push(e);
            }
            break;
        }
        let e = entries.swap_remove(pos);
        let ea = mbr_a.enlargement(&e.0);
        let eb = mbr_b.enlargement(&e.0);
        let to_a = match ea.partial_cmp(&eb).expect("finite volumes") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                if mbr_a.volume() != mbr_b.volume() {
                    mbr_a.volume() < mbr_b.volume()
                } else {
                    group_a.len() <= group_b.len()
                }
            }
        };
        if to_a {
            mbr_a = mbr_a.join(&e.0);
            group_a.push(e);
        } else {
            mbr_b = mbr_b.join(&e.0);
            group_b.push(e);
        }
    }
    (group_a, group_b)
}

fn pick_next<const K: usize, T>(
    entries: &[(Bbox<K>, T)],
    mbr_a: &Bbox<K>,
    mbr_b: &Bbox<K>,
    strategy: SplitStrategy,
) -> Option<usize> {
    if entries.is_empty() {
        return None;
    }
    match strategy {
        SplitStrategy::Linear => Some(0),
        SplitStrategy::Quadratic => {
            // PickNext: entry with maximal |d_a − d_b| preference.
            let mut best = 0;
            let mut best_pref = f64::NEG_INFINITY;
            for (i, (b, _)) in entries.iter().enumerate() {
                let pref = (mbr_a.enlargement(b) - mbr_b.enlargement(b)).abs();
                if pref > best_pref {
                    best_pref = pref;
                    best = i;
                }
            }
            Some(best)
        }
    }
}

fn linear_seeds<const K: usize, T>(entries: &[(Bbox<K>, T)]) -> (usize, usize) {
    let mut best_dim_sep = f64::NEG_INFINITY;
    let mut best = (0, 1);
    for d in 0..K {
        let mut highest_lo = f64::NEG_INFINITY;
        let mut highest_lo_idx = 0;
        let mut lowest_hi = f64::INFINITY;
        let mut lowest_hi_idx = 0;
        let mut min_lo = f64::INFINITY;
        let mut max_hi = f64::NEG_INFINITY;
        for (i, (b, _)) in entries.iter().enumerate() {
            let (lo, hi) = match (b.lo(), b.hi()) {
                (Some(l), Some(h)) => (l[d], h[d]),
                _ => continue,
            };
            if lo > highest_lo {
                highest_lo = lo;
                highest_lo_idx = i;
            }
            if hi < lowest_hi {
                lowest_hi = hi;
                lowest_hi_idx = i;
            }
            min_lo = min_lo.min(lo);
            max_hi = max_hi.max(hi);
        }
        let width = (max_hi - min_lo).max(f64::MIN_POSITIVE);
        let sep = (highest_lo - lowest_hi) / width;
        if sep > best_dim_sep && highest_lo_idx != lowest_hi_idx {
            best_dim_sep = sep;
            best = (highest_lo_idx, lowest_hi_idx);
        }
    }
    best
}

fn quadratic_seeds<const K: usize, T>(entries: &[(Bbox<K>, T)]) -> (usize, usize) {
    let mut worst = f64::NEG_INFINITY;
    let mut best = (0, 1);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let dead = entries[i].0.join(&entries[j].0).volume()
                - entries[i].0.volume()
                - entries[j].0.volume();
            if dead > worst {
                worst = dead;
                best = (i, j);
            }
        }
    }
    best
}

/// Result of an insertion: the subtree's new MBR plus an optional split
/// sibling (with its MBR).
struct Inserted<const K: usize> {
    mbr: Bbox<K>,
    sibling: Option<(Bbox<K>, Node<K>)>,
}

fn insert_rec<const K: usize>(
    node: &mut Node<K>,
    bbox: Bbox<K>,
    id: u64,
    max: usize,
    min: usize,
    strategy: SplitStrategy,
) -> Inserted<K> {
    match node {
        Node::Leaf(entries) => {
            entries.push((bbox, id));
            if entries.len() > max {
                let (a, b) = split_entries(std::mem::take(entries), min, strategy);
                let mbr_a = Bbox::join_all(a.iter().map(|(b, _)| *b));
                let mbr_b = Bbox::join_all(b.iter().map(|(bb, _)| *bb));
                *entries = a;
                Inserted {
                    mbr: mbr_a,
                    sibling: Some((mbr_b, Node::Leaf(b))),
                }
            } else {
                Inserted {
                    mbr: Bbox::join_all(entries.iter().map(|(b, _)| *b)),
                    sibling: None,
                }
            }
        }
        Node::Internal(children) => {
            // ChooseSubtree: least enlargement, ties by smaller volume.
            let mut best = 0;
            let mut best_enl = f64::INFINITY;
            let mut best_vol = f64::INFINITY;
            for (i, (mbr, _)) in children.iter().enumerate() {
                let enl = mbr.enlargement(&bbox);
                let vol = mbr.volume();
                if enl < best_enl || (enl == best_enl && vol < best_vol) {
                    best = i;
                    best_enl = enl;
                    best_vol = vol;
                }
            }
            let res = insert_rec(&mut children[best].1, bbox, id, max, min, strategy);
            children[best].0 = res.mbr;
            if let Some(sib) = res.sibling {
                children.push(sib);
            }
            if children.len() > max {
                let (a, b) = split_entries(std::mem::take(children), min, strategy);
                let mbr_a = Bbox::join_all(a.iter().map(|(m, _)| *m));
                let mbr_b = Bbox::join_all(b.iter().map(|(m, _)| *m));
                *children = a;
                Inserted {
                    mbr: mbr_a,
                    sibling: Some((mbr_b, Node::Internal(b))),
                }
            } else {
                Inserted {
                    mbr: Bbox::join_all(children.iter().map(|(m, _)| *m)),
                    sibling: None,
                }
            }
        }
    }
}

impl<const K: usize> RTree<K> {
    /// [`SpatialIndex::remove`] body; see the trait impl below.
    ///
    /// Implements Guttman's Delete/CondenseTree: the leaf entry is
    /// removed, underfull nodes along the path are dissolved and their
    /// surviving entries reinserted (reinsertion-on-underflow), and a
    /// root with a single child is shortened.
    fn remove_entry(&mut self, id: u64, bbox: Bbox<K>) -> bool {
        if bbox.is_empty() {
            return match self.empty.iter().position(|&i| i == id) {
                Some(pos) => {
                    self.empty.swap_remove(pos);
                    self.len -= 1;
                    true
                }
                None => false,
            };
        }
        let mut orphan_leaves: Vec<Vec<(Bbox<K>, u64)>> = Vec::new();
        let removed = remove_rec(
            &mut self.root,
            id,
            &bbox,
            self.min_entries,
            &mut orphan_leaves,
        )
        .is_some();
        if !removed {
            return false;
        }
        self.len -= 1;
        // Shorten a root that lost all but one child.
        loop {
            let replace = match &mut self.root {
                Node::Internal(children) if children.len() == 1 => {
                    Some(children.pop().expect("len 1").1)
                }
                _ => None,
            };
            match replace {
                Some(child) => self.root = child,
                None => break,
            }
        }
        // Reinsert orphaned entries (Guttman reinserts at the level they
        // came from; entry-by-entry reinsertion preserves correctness and
        // keeps the code simple).
        for (b, i) in orphan_leaves.into_iter().flatten() {
            self.len -= 1; // insert() increments; net zero
            self.insert(i, b);
        }
        true
    }
}

/// Removes the entry from the subtree. `Some(new_mbr)` when found;
/// underfull descendants are dissolved into the orphan lists.
fn remove_rec<const K: usize>(
    node: &mut Node<K>,
    id: u64,
    bbox: &Bbox<K>,
    min: usize,
    orphan_leaves: &mut Vec<Vec<(Bbox<K>, u64)>>,
) -> Option<Bbox<K>> {
    match node {
        Node::Leaf(entries) => {
            let pos = entries.iter().position(|(b, i)| *i == id && b == bbox)?;
            entries.swap_remove(pos);
            Some(Bbox::join_all(entries.iter().map(|(b, _)| *b)))
        }
        Node::Internal(children) => {
            let mut found_at: Option<usize> = None;
            for (ci, (mbr, child)) in children.iter_mut().enumerate() {
                if !node_covers(mbr, bbox) {
                    continue;
                }
                if let Some(new_mbr) = remove_rec(child, id, bbox, min, orphan_leaves) {
                    *mbr = new_mbr;
                    found_at = Some(ci);
                    break;
                }
            }
            let ci = found_at?;
            // Dissolve an underfull child, orphaning its entries.
            let underfull = match &children[ci].1 {
                Node::Leaf(entries) => entries.len() < min,
                Node::Internal(gc) => gc.len() < min,
            };
            if underfull {
                let (_, child) = children.swap_remove(ci);
                collect_entries(child, orphan_leaves);
            }
            Some(Bbox::join_all(children.iter().map(|(m, _)| *m)))
        }
    }
}

/// Whether a node MBR could contain the target box.
fn node_covers<const K: usize>(mbr: &Bbox<K>, target: &Bbox<K>) -> bool {
    target.le(mbr)
}

/// Flattens a dissolved subtree into orphaned leaf entries.
fn collect_entries<const K: usize>(node: Node<K>, orphan_leaves: &mut Vec<Vec<(Bbox<K>, u64)>>) {
    match node {
        Node::Leaf(entries) => orphan_leaves.push(entries),
        Node::Internal(children) => {
            for (_, child) in children {
                collect_entries(child, orphan_leaves);
            }
        }
    }
}

impl<const K: usize> RTree<K> {
    /// Bulk-loads with Sort-Tile-Recursive packing (Leutenegger et al.),
    /// producing a tree with near-full nodes — better query performance
    /// than repeated insertion for static data.
    #[cfg(test)]
    pub(crate) fn bulk_load(
        strategy: SplitStrategy,
        max_entries: usize,
        items: Vec<(u64, Bbox<K>)>,
    ) -> Self {
        let mut tree = Self::with_capacity(strategy, max_entries);
        let (empty, mut nonempty): (Vec<_>, Vec<_>) =
            items.into_iter().partition(|(_, b)| b.is_empty());
        tree.len = empty.len() + nonempty.len();
        tree.empty = empty.into_iter().map(|(id, _)| id).collect();
        if nonempty.is_empty() {
            return tree;
        }
        // STR: sort by center of dim 0, tile into vertical slabs, sort
        // each slab by dim 1, pack runs of max_entries... generalized to
        // K dims by recursive tiling.
        let leaf_entries: Vec<(Bbox<K>, u64)> = nonempty.drain(..).map(|(id, b)| (b, id)).collect();
        let leaves = str_pack(leaf_entries, max_entries, 0);
        let mut level: Vec<(Bbox<K>, Node<K>)> = leaves
            .into_iter()
            .map(|entries| {
                (
                    Bbox::join_all(entries.iter().map(|(b, _)| *b)),
                    Node::Leaf(entries),
                )
            })
            .collect();
        while level.len() > 1 {
            let groups = str_pack(level, max_entries, 0);
            level = groups
                .into_iter()
                .map(|children| {
                    (
                        Bbox::join_all(children.iter().map(|(m, _)| *m)),
                        Node::Internal(children),
                    )
                })
                .collect();
        }
        tree.root = level.pop().expect("nonempty").1;
        tree
    }
}

/// Recursively tiles entries into groups of at most `cap`, cycling
/// through the dimensions.
#[cfg(test)]
fn str_pack<const K: usize, T>(
    mut entries: Vec<(Bbox<K>, T)>,
    cap: usize,
    dim: usize,
) -> Vec<Vec<(Bbox<K>, T)>> {
    if entries.len() <= cap {
        return vec![entries];
    }
    entries.sort_by(|a, b| {
        let ca = a.0.center().map(|c| c[dim]).unwrap_or(0.0);
        let cb = b.0.center().map(|c| c[dim]).unwrap_or(0.0);
        ca.partial_cmp(&cb).expect("finite centers")
    });
    let n_groups = entries.len().div_ceil(cap);
    if dim + 1 == K {
        // final dimension: chop into runs
        let mut out = Vec::with_capacity(n_groups);
        while !entries.is_empty() {
            let take = entries.len().min(cap);
            out.push(entries.drain(..take).collect());
        }
        return out;
    }
    // slabs of roughly equal entry count, recurse on the next dimension
    let slab_count = (n_groups as f64).powf(1.0 / (K - dim) as f64).ceil() as usize;
    let slab_size = entries.len().div_ceil(slab_count.max(1));
    let mut out = Vec::new();
    while !entries.is_empty() {
        let take = entries.len().min(slab_size);
        let slab: Vec<(Bbox<K>, T)> = entries.drain(..take).collect();
        out.extend(str_pack(slab, cap, dim + 1));
    }
    out
}

impl<const K: usize> SpatialIndex<K> for RTree<K> {
    fn insert(&mut self, id: u64, bbox: Bbox<K>) {
        self.len += 1;
        if bbox.is_empty() {
            self.empty.push(id);
            return;
        }
        let res = insert_rec(
            &mut self.root,
            bbox,
            id,
            self.max_entries,
            self.min_entries,
            self.strategy,
        );
        if let Some((sib_mbr, sib)) = res.sibling {
            let old = std::mem::replace(&mut self.root, Node::Leaf(Vec::new()));
            self.root = Node::Internal(vec![(res.mbr, old), (sib_mbr, sib)]);
        }
    }

    fn remove(&mut self, id: u64, bbox: Bbox<K>) -> bool {
        self.remove_entry(id, bbox)
    }

    fn query_corner(&self, query: &CornerQuery<K>, out: &mut Vec<u64>) {
        if query.is_unsatisfiable() {
            return;
        }
        search(&self.root, query, out);
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanIndex;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_box(rng: &mut StdRng) -> Bbox<2> {
        let lo = [rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)];
        let w = [rng.random_range(0.1..10.0), rng.random_range(0.1..10.0)];
        Bbox::new(lo, [lo[0] + w[0], lo[1] + w[1]])
    }

    fn build(strategy: SplitStrategy, n: usize, seed: u64) -> (RTree<2>, ScanIndex<2>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RTree::with_capacity(strategy, 6);
        let mut scan = ScanIndex::new();
        for id in 0..n as u64 {
            let b = random_box(&mut rng);
            tree.insert(id, b);
            scan.insert(id, b);
        }
        (tree, scan)
    }

    fn assert_same_results(tree: &RTree<2>, scan: &ScanIndex<2>, q: &CornerQuery<2>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        tree.query_corner(q, &mut a);
        scan.query_corner(q, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn agrees_with_scan_on_random_queries() {
        for strategy in [SplitStrategy::Linear, SplitStrategy::Quadratic] {
            let (tree, scan) = build(strategy, 500, 1);
            tree.check_invariants();
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..50 {
                let probe = random_box(&mut rng);
                let q = CornerQuery::unconstrained().and_overlaps(&probe);
                assert_same_results(&tree, &scan, &q);
                let q = CornerQuery::unconstrained().and_contained_in(&probe);
                assert_same_results(&tree, &scan, &q);
                let q = CornerQuery::unconstrained().and_contains(&probe);
                assert_same_results(&tree, &scan, &q);
                // combined Figure-3 query
                let inner = Bbox::new(
                    [probe.lo().unwrap()[0] + 0.5, probe.lo().unwrap()[1] + 0.5],
                    [probe.lo().unwrap()[0] + 1.0, probe.lo().unwrap()[1] + 1.0],
                );
                let q = CornerQuery::unconstrained()
                    .and_contained_in(&probe)
                    .and_contains(&inner)
                    .and_overlaps(&probe);
                assert_same_results(&tree, &scan, &q);
            }
        }
    }

    #[test]
    fn grows_in_height_and_keeps_invariants() {
        let (tree, _) = build(SplitStrategy::Quadratic, 2000, 2);
        assert!(tree.height() >= 3, "2000 entries at fan-out 6 must be deep");
        tree.check_invariants();
        assert_eq!(tree.len(), 2000);
    }

    #[test]
    fn linear_split_keeps_invariants() {
        let (tree, _) = build(SplitStrategy::Linear, 1200, 3);
        tree.check_invariants();
    }

    #[test]
    fn empty_boxes_are_counted_but_unmatched() {
        let mut tree = RTree::<2>::default();
        tree.insert(1, Bbox::Empty);
        tree.insert(2, Bbox::new([0.0, 0.0], [1.0, 1.0]));
        assert_eq!(tree.len(), 2);
        let mut out = Vec::new();
        tree.query_corner(&CornerQuery::unconstrained(), &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn duplicate_boxes_are_all_returned() {
        let mut tree = RTree::<1>::with_capacity(SplitStrategy::Quadratic, 4);
        let b = Bbox::new([0.0], [1.0]);
        for id in 0..20 {
            tree.insert(id, b);
        }
        tree.check_invariants();
        let mut out = Vec::new();
        tree.query_overlaps(&b, &mut out);
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn unsatisfiable_query_returns_nothing() {
        let (tree, _) = build(SplitStrategy::Quadratic, 100, 4);
        let mut out = Vec::new();
        tree.query_corner(&CornerQuery::unsatisfiable(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_capacity_rejected() {
        RTree::<1>::with_capacity(SplitStrategy::Linear, 2);
    }

    #[test]
    fn remove_deletes_and_condenses() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut tree = RTree::<2>::with_capacity(SplitStrategy::Quadratic, 5);
        let mut items: Vec<(u64, Bbox<2>)> = Vec::new();
        for id in 0..400u64 {
            let b = random_box(&mut rng);
            tree.insert(id, b);
            items.push((id, b));
        }
        // remove a random half, checking invariants and queries as we go
        for step in 0..200 {
            let pos = (step * 7919) % items.len();
            let (id, b) = items.swap_remove(pos);
            assert!(tree.remove(id, b), "entry must be found");
            if step % 20 == 0 {
                tree.check_invariants();
            }
        }
        assert_eq!(tree.len(), items.len());
        tree.check_invariants();
        // queries match the remaining scan
        let scan = ScanIndex::from_items(items.iter().copied());
        let mut rng2 = StdRng::seed_from_u64(18);
        for _ in 0..20 {
            let probe = random_box(&mut rng2);
            let q = CornerQuery::unconstrained().and_overlaps(&probe);
            assert_same_results(&tree, &scan, &q);
        }
    }

    #[test]
    fn remove_missing_entry_is_noop() {
        let mut tree = RTree::<1>::default();
        tree.insert(1, Bbox::new([0.0], [1.0]));
        assert!(!tree.remove(2, Bbox::new([0.0], [1.0])));
        assert!(!tree.remove(1, Bbox::new([5.0], [6.0])));
        assert_eq!(tree.len(), 1);
        assert!(tree.remove(1, Bbox::new([0.0], [1.0])));
        assert_eq!(tree.len(), 0);
        assert!(!tree.remove(1, Bbox::new([0.0], [1.0])));
    }

    #[test]
    fn remove_empty_box_entries() {
        let mut tree = RTree::<1>::default();
        tree.insert(9, Bbox::Empty);
        assert_eq!(tree.len(), 1);
        assert!(
            !tree.remove(8, Bbox::Empty),
            "empty-box removal matches by id"
        );
        assert!(tree.remove(9, Bbox::Empty));
        assert_eq!(tree.len(), 0);
        assert!(!tree.remove(9, Bbox::Empty));
    }

    #[test]
    fn remove_to_empty_and_reuse() {
        let mut tree = RTree::<2>::with_capacity(SplitStrategy::Linear, 4);
        let mut rng = StdRng::seed_from_u64(23);
        let items: Vec<(u64, Bbox<2>)> = (0..60u64).map(|id| (id, random_box(&mut rng))).collect();
        for &(id, b) in &items {
            tree.insert(id, b);
        }
        for &(id, b) in &items {
            assert!(tree.remove(id, b));
        }
        assert_eq!(tree.len(), 0);
        tree.check_invariants();
        // tree remains usable
        tree.insert(100, Bbox::new([0.0, 0.0], [1.0, 1.0]));
        let mut out = Vec::new();
        tree.query_corner(&CornerQuery::unconstrained(), &mut out);
        assert_eq!(out, vec![100]);
    }

    #[test]
    fn bulk_load_matches_incremental_queries() {
        let mut rng = StdRng::seed_from_u64(31);
        let items: Vec<(u64, Bbox<2>)> =
            (0..3000u64).map(|id| (id, random_box(&mut rng))).collect();
        let packed = RTree::bulk_load(SplitStrategy::Quadratic, 8, items.clone());
        packed.check_invariants_packed();
        assert_eq!(packed.len(), items.len());
        let scan = ScanIndex::from_items(items.iter().copied());
        for _ in 0..30 {
            let probe = random_box(&mut rng);
            for q in [
                CornerQuery::unconstrained().and_overlaps(&probe),
                CornerQuery::unconstrained().and_contained_in(&probe),
            ] {
                let mut a = Vec::new();
                packed.query_corner(&q, &mut a);
                let mut b = Vec::new();
                scan.query_corner(&q, &mut b);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
        // STR packing yields a shallower tree than insertion
        let incremental = RTree::from_items(SplitStrategy::Quadratic, items);
        assert!(packed.height() <= incremental.height());
    }

    #[test]
    fn bulk_load_edge_cases() {
        let t = RTree::<2>::bulk_load(SplitStrategy::Linear, 4, Vec::new());
        assert_eq!(t.len(), 0);
        let t = RTree::bulk_load(
            SplitStrategy::Linear,
            4,
            vec![(1, Bbox::new([0.0], [1.0])), (2, Bbox::Empty)],
        );
        assert_eq!(t.len(), 2);
        let mut out = Vec::new();
        t.query_corner(&CornerQuery::unconstrained(), &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn point_boxes_work() {
        // Degenerate boxes (points) exercise zero-volume split paths.
        let mut rng = StdRng::seed_from_u64(5);
        let mut tree = RTree::<2>::with_capacity(SplitStrategy::Quadratic, 5);
        let mut scan = ScanIndex::new();
        for id in 0..300u64 {
            let p = [rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)];
            let b = Bbox::point(p);
            tree.insert(id, b);
            scan.insert(id, b);
        }
        tree.check_invariants();
        let probe = Bbox::new([2.0, 2.0], [7.0, 7.0]);
        let q = CornerQuery::unconstrained().and_contained_in(&probe);
        assert_same_results(&tree, &scan, &q);
    }
}
