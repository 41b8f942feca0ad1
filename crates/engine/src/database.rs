//! The object store: named collections of regions with per-collection
//! spatial indexes.
//!
//! # Mutation model
//!
//! The database is mutable end to end: [`SpatialDatabase::insert`]
//! appends, [`SpatialDatabase::remove`] tombstones, and
//! [`SpatialDatabase::update`] replaces an object's region in place.
//! Every mutation maintains all three spatial indexes *incrementally*
//! (R-tree delete/condense, grid-file bucket split/merge, scan
//! swap-remove) plus the materialized bbox cache — nothing is rebuilt.
//!
//! Removal never shifts slots: an [`ObjectRef`] handed out by `insert`
//! stays valid (and stable) for the lifetime of the database. A removed
//! slot becomes a **tombstone**: it keeps its region for snapshot
//! round-tripping but is invisible to indexes, executors and integrity
//! checks. [`SpatialDatabase::collection_len`] counts all slots
//! (tombstones included); [`SpatialDatabase::live_len`] counts only
//! live objects. Tombstoned slots are never reused.

use std::collections::HashMap;

use scq_bbox::{Bbox, CornerQuery};
use scq_index::{GridFile, RTree, ScanIndex, SpatialIndex, SplitStrategy};
use scq_region::{AaBox, Region, RegionAlgebra};

use crate::query::IndexKind;
use crate::view::StoreView;

/// Identifier of a collection within a database.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CollectionId(pub usize);

/// Reference to one object: collection plus position inside it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ObjectRef {
    /// Owning collection.
    pub collection: CollectionId,
    /// Index within the collection.
    pub index: usize,
}

struct Collection<const K: usize> {
    name: String,
    objects: Vec<Region<K>>,
    /// `⌈objects[i]⌉`, materialized at insert time so the executors'
    /// per-candidate bbox reads are one indexed load instead of a
    /// fragment scan.
    bboxes: Vec<Bbox<K>>,
    /// Liveness per slot; `false` marks a tombstone. Slots are never
    /// reused, so `ObjectRef`s stay stable across removals.
    live: Vec<bool>,
    /// Number of `true` entries in `live`.
    live_count: usize,
    rtree: RTree<K>,
    grid: GridFile<K>,
    scan: ScanIndex<K>,
    /// *Live* objects whose region (hence bounding box) is empty;
    /// corner queries cannot return them, so executors re-add them as
    /// candidates to stay exact.
    empty_objects: Vec<usize>,
    /// Mutation epoch: bumped on every effective mutation (insert,
    /// effective remove/update, compact). Caches key on it to validate
    /// entries without re-reading contents.
    epoch: u64,
}

/// A spatial database over `K`-dimensional regions inside a universe
/// box.
///
/// Every collection maintains all three index structures so executors
/// can choose per query ([`IndexKind`]); real deployments would pick
/// one, but the benchmarks compare them head-to-head on identical data.
pub struct SpatialDatabase<const K: usize> {
    universe: AaBox<K>,
    collections: Vec<Collection<K>>,
    by_name: HashMap<String, CollectionId>,
}

impl<const K: usize> SpatialDatabase<K> {
    /// Creates a database with the given universe box.
    ///
    /// # Panics
    /// If the universe is empty.
    pub fn new(universe: AaBox<K>) -> Self {
        assert!(!universe.is_empty(), "universe must be nonempty");
        SpatialDatabase {
            universe,
            collections: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The universe box.
    pub fn universe(&self) -> &AaBox<K> {
        &self.universe
    }

    /// The Boolean algebra of this database's regions.
    pub fn algebra(&self) -> RegionAlgebra<K> {
        RegionAlgebra::new(self.universe)
    }

    /// Creates (or returns) the collection with the given name.
    pub fn collection(&mut self, name: &str) -> CollectionId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = CollectionId(self.collections.len());
        self.collections.push(Collection {
            name: name.to_owned(),
            objects: Vec::new(),
            bboxes: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            rtree: RTree::new(SplitStrategy::Quadratic),
            grid: GridFile::new(32),
            scan: ScanIndex::new(),
            empty_objects: Vec::new(),
            epoch: 0,
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a collection by name.
    pub fn collection_id(&self, name: &str) -> Option<CollectionId> {
        self.by_name.get(name).copied()
    }

    /// The collection's name.
    pub fn collection_name(&self, id: CollectionId) -> &str {
        &self.collections[id.0].name
    }

    /// Number of slots in a collection, tombstones included. Slot
    /// indices range over `0..collection_len`.
    pub fn collection_len(&self, id: CollectionId) -> usize {
        self.collections[id.0].objects.len()
    }

    /// Number of live (non-tombstoned) objects in a collection.
    pub fn live_len(&self, id: CollectionId) -> usize {
        self.collections[id.0].live_count
    }

    /// Whether the object's slot is live (not tombstoned).
    pub fn is_live(&self, obj: ObjectRef) -> bool {
        self.collections[obj.collection.0].live[obj.index]
    }

    /// The collection's mutation epoch: bumped on every effective
    /// mutation (insert, effective remove/update, compact). Ineffective
    /// mutations — removing a tombstone, updating a dead slot — leave
    /// it unchanged, so equal epochs mean identical contents.
    pub fn epoch(&self, coll: CollectionId) -> u64 {
        self.collections[coll.0].epoch
    }

    /// All collection ids.
    pub fn collections(&self) -> impl Iterator<Item = CollectionId> {
        (0..self.collections.len()).map(CollectionId)
    }

    /// Inserts an object, indexing its bounding box.
    pub fn insert(&mut self, coll: CollectionId, region: Region<K>) -> ObjectRef {
        let c = &mut self.collections[coll.0];
        let index = c.objects.len();
        let bbox = region.bbox();
        if bbox.is_empty() {
            c.empty_objects.push(index);
        }
        c.rtree.insert(index as u64, bbox);
        c.grid.insert(index as u64, bbox);
        c.scan.insert(index as u64, bbox);
        c.bboxes.push(bbox);
        c.objects.push(region);
        c.live.push(true);
        c.live_count += 1;
        c.epoch += 1;
        ObjectRef {
            collection: coll,
            index,
        }
    }

    /// Tombstones an object: every index forgets it incrementally, its
    /// slot stays allocated (so other `ObjectRef`s keep their meaning),
    /// and executors will never bind it again. Returns `false` when the
    /// object was already removed.
    pub fn remove(&mut self, obj: ObjectRef) -> bool {
        let c = &mut self.collections[obj.collection.0];
        if !c.live[obj.index] {
            return false;
        }
        let bbox = c.bboxes[obj.index];
        let id = obj.index as u64;
        assert!(c.rtree.remove(id, bbox), "rtree out of sync");
        assert!(c.grid.remove(id, bbox), "grid file out of sync");
        assert!(c.scan.remove(id, bbox), "scan index out of sync");
        if bbox.is_empty() {
            c.empty_objects.retain(|&i| i != obj.index);
        }
        c.live[obj.index] = false;
        c.live_count -= 1;
        c.epoch += 1;
        true
    }

    /// Replaces a live object's region in place, maintaining all three
    /// indexes, the bbox cache and the empty-object list incrementally.
    /// The `ObjectRef` keeps designating the object. Returns `false`
    /// (changing nothing) when the object is tombstoned.
    pub fn update(&mut self, obj: ObjectRef, region: Region<K>) -> bool {
        let c = &mut self.collections[obj.collection.0];
        if !c.live[obj.index] {
            return false;
        }
        let old = c.bboxes[obj.index];
        let new = region.bbox();
        let id = obj.index as u64;
        assert!(c.rtree.update(id, old, new), "rtree out of sync");
        assert!(c.grid.update(id, old, new), "grid file out of sync");
        assert!(c.scan.update(id, old, new), "scan index out of sync");
        match (old.is_empty(), new.is_empty()) {
            (false, true) => c.empty_objects.push(obj.index),
            (true, false) => c.empty_objects.retain(|&i| i != obj.index),
            _ => {}
        }
        c.bboxes[obj.index] = new;
        c.objects[obj.index] = region;
        c.epoch += 1;
        true
    }

    /// Appends a slot with explicit liveness — the snapshot loader's
    /// restore path. Dead slots keep their region but never touch the
    /// indexes.
    pub(crate) fn restore_slot(
        &mut self,
        coll: CollectionId,
        region: Region<K>,
        live: bool,
    ) -> ObjectRef {
        if live {
            return self.insert(coll, region);
        }
        let c = &mut self.collections[coll.0];
        let index = c.objects.len();
        c.bboxes.push(region.bbox());
        c.objects.push(region);
        c.live.push(false);
        ObjectRef {
            collection: coll,
            index,
        }
    }

    /// The region of an object.
    pub fn region(&self, obj: ObjectRef) -> &Region<K> {
        &self.collections[obj.collection.0].objects[obj.index]
    }

    /// The bounding box of an object, materialized at insert time.
    pub fn bbox(&self, obj: ObjectRef) -> Bbox<K> {
        self.collections[obj.collection.0].bboxes[obj.index]
    }

    /// Runs a corner query against the chosen index of a collection,
    /// appending matching object indices to `out`.
    pub fn query_collection(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<K>,
        out: &mut Vec<u64>,
    ) {
        let c = &self.collections[coll.0];
        match kind {
            IndexKind::RTree => c.rtree.query_corner(q, out),
            IndexKind::GridFile => c.grid.query_corner(q, out),
            IndexKind::Scan => c.scan.query_corner(q, out),
        }
    }

    /// *Live* object indices in a collection whose regions are empty.
    pub(crate) fn empty_objects(&self, coll: CollectionId) -> &[usize] {
        &self.collections[coll.0].empty_objects
    }

    /// Iterates over all slot indices of a collection, tombstones
    /// included (callers that bind objects must filter through
    /// [`SpatialDatabase::is_live`] or use
    /// [`SpatialDatabase::live_indices`]).
    pub fn object_indices(&self, coll: CollectionId) -> std::ops::Range<usize> {
        0..self.collections[coll.0].objects.len()
    }

    /// Iterates over the live object indices of a collection.
    pub fn live_indices(&self, coll: CollectionId) -> impl Iterator<Item = usize> + '_ {
        self.collections[coll.0]
            .live
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| l.then_some(i))
    }

    /// Entry count reported by the chosen index structure (integrity
    /// support; must equal [`SpatialDatabase::live_len`]).
    pub(crate) fn index_len(&self, coll: CollectionId, kind: IndexKind) -> usize {
        let c = &self.collections[coll.0];
        match kind {
            IndexKind::RTree => c.rtree.len(),
            IndexKind::GridFile => c.grid.len(),
            IndexKind::Scan => c.scan.len(),
        }
    }

    /// Panics when the R-tree's structural invariants are violated
    /// (integrity support).
    pub(crate) fn check_rtree_invariants(&self, coll: CollectionId) {
        self.collections[coll.0].rtree.check_invariants();
    }

    /// Reclaims every tombstoned slot: live objects shift down to fill
    /// the gaps and all three indexes are rebuilt over the compacted
    /// slot space. The inverse of the never-reuse policy — meant for
    /// long-lived, churny collections whose tombstone overhead has
    /// grown past the cost of fixing up held [`ObjectRef`]s.
    ///
    /// **Every `ObjectRef` handed out before the call is invalidated.**
    /// The returned [`CompactReport`] maps each old slot to its new
    /// slot (or `None` for dropped tombstones) so callers can fix up
    /// the refs they hold; after compaction `collection_len` equals
    /// `live_len` for every collection.
    pub fn compact(&mut self) -> CompactReport {
        let mut report = CompactReport {
            remap: Vec::with_capacity(self.collections.len()),
            slots_reclaimed: 0,
        };
        for c in &mut self.collections {
            let mut remap: Vec<Option<usize>> = Vec::with_capacity(c.objects.len());
            let objects = std::mem::take(&mut c.objects);
            let bboxes = std::mem::take(&mut c.bboxes);
            let live = std::mem::take(&mut c.live);
            c.rtree = RTree::new(SplitStrategy::Quadratic);
            c.grid = GridFile::new(32);
            c.scan = ScanIndex::new();
            c.empty_objects.clear();
            c.live_count = 0;
            c.epoch += 1;
            for ((region, bbox), alive) in objects.into_iter().zip(bboxes).zip(live) {
                if !alive {
                    remap.push(None);
                    report.slots_reclaimed += 1;
                    continue;
                }
                let index = c.objects.len();
                remap.push(Some(index));
                if bbox.is_empty() {
                    c.empty_objects.push(index);
                }
                c.rtree.insert(index as u64, bbox);
                c.grid.insert(index as u64, bbox);
                c.scan.insert(index as u64, bbox);
                c.bboxes.push(bbox);
                c.objects.push(region);
                c.live.push(true);
                c.live_count += 1;
            }
            report.remap.push(remap);
        }
        report
    }
}

/// The slot remap produced by [`SpatialDatabase::compact`].
#[derive(Clone, Debug)]
pub struct CompactReport {
    /// `remap[coll][old_index]` is the slot's post-compaction index, or
    /// `None` when the slot was a tombstone and got dropped.
    pub remap: Vec<Vec<Option<usize>>>,
    /// Number of tombstoned slots reclaimed across all collections.
    pub slots_reclaimed: usize,
}

impl CompactReport {
    /// Translates a pre-compaction [`ObjectRef`] into its
    /// post-compaction equivalent, or `None` when the object had been
    /// removed before the compaction.
    pub fn fix_up(&self, obj: ObjectRef) -> Option<ObjectRef> {
        self.remap
            .get(obj.collection.0)?
            .get(obj.index)
            .copied()
            .flatten()
            .map(|index| ObjectRef {
                collection: obj.collection,
                index,
            })
    }
}

impl<const K: usize> StoreView<K> for SpatialDatabase<K> {
    fn universe(&self) -> &AaBox<K> {
        SpatialDatabase::universe(self)
    }

    fn collection_len(&self, coll: CollectionId) -> usize {
        SpatialDatabase::collection_len(self, coll)
    }

    fn live_len(&self, coll: CollectionId) -> usize {
        SpatialDatabase::live_len(self, coll)
    }

    fn epoch(&self, coll: CollectionId) -> u64 {
        SpatialDatabase::epoch(self, coll)
    }

    fn is_live(&self, obj: ObjectRef) -> bool {
        SpatialDatabase::is_live(self, obj)
    }

    fn region(&self, obj: ObjectRef) -> &Region<K> {
        SpatialDatabase::region(self, obj)
    }

    fn bbox(&self, obj: ObjectRef) -> Bbox<K> {
        SpatialDatabase::bbox(self, obj)
    }

    fn query_collection(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<K>,
        out: &mut Vec<u64>,
    ) -> crate::view::ProbeReport {
        SpatialDatabase::query_collection(self, coll, kind, q, out);
        // one store, in this process: nothing pruned, nothing missing
        crate::view::ProbeReport::default()
    }

    fn empty_objects(&self, coll: CollectionId) -> &[usize] {
        SpatialDatabase::empty_objects(self, coll)
    }

    fn live_indices_into(&self, coll: CollectionId, out: &mut Vec<usize>) {
        out.extend(self.live_indices(coll));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_bbox::Bbox;

    fn db() -> SpatialDatabase<2> {
        SpatialDatabase::new(AaBox::new([0.0, 0.0], [100.0, 100.0]))
    }

    #[test]
    fn collections_are_named_and_idempotent() {
        let mut d = db();
        let a = d.collection("towns");
        let b = d.collection("roads");
        assert_ne!(a, b);
        assert_eq!(d.collection("towns"), a);
        assert_eq!(d.collection_id("roads"), Some(b));
        assert_eq!(d.collection_name(a), "towns");
        assert_eq!(d.collections().count(), 2);
    }

    #[test]
    fn insert_and_query_all_indexes() {
        let mut d = db();
        let c = d.collection("boxes");
        for i in 0..50 {
            let x = i as f64;
            d.insert(c, Region::from_box(AaBox::new([x, 0.0], [x + 0.5, 1.0])));
        }
        let probe = Bbox::new([10.0, 0.0], [20.0, 2.0]);
        let q = CornerQuery::unconstrained().and_contained_in(&probe);
        let mut expected: Option<Vec<u64>> = None;
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let mut out = Vec::new();
            d.query_collection(c, kind, &q, &mut out);
            out.sort_unstable();
            match &expected {
                None => expected = Some(out),
                Some(e) => assert_eq!(&out, e, "{kind:?} disagrees"),
            }
        }
        assert!(!expected.unwrap().is_empty());
    }

    #[test]
    fn empty_regions_are_tracked() {
        let mut d = db();
        let c = d.collection("mixed");
        d.insert(c, Region::from_box(AaBox::new([0.0, 0.0], [1.0, 1.0])));
        let r = d.insert(c, Region::empty());
        assert_eq!(d.empty_objects(c), &[1]);
        assert!(d.region(r).is_empty());
        assert_eq!(d.collection_len(c), 2);
    }

    #[test]
    fn remove_tombstones_without_shifting() {
        let mut d = db();
        let c = d.collection("boxes");
        let refs: Vec<ObjectRef> = (0..10)
            .map(|i| {
                let x = i as f64 * 5.0;
                d.insert(c, Region::from_box(AaBox::new([x, 0.0], [x + 4.0, 4.0])))
            })
            .collect();
        assert!(d.remove(refs[3]));
        assert!(!d.remove(refs[3]), "double remove is a no-op");
        assert_eq!(d.collection_len(c), 10, "slots never shift");
        assert_eq!(d.live_len(c), 9);
        assert!(!d.is_live(refs[3]));
        assert!(d.is_live(refs[4]), "other refs keep their meaning");
        assert_eq!(d.live_indices(c).count(), 9);
        // no index returns the tombstone
        let q = CornerQuery::unconstrained();
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let mut out = Vec::new();
            d.query_collection(c, kind, &q, &mut out);
            out.sort_unstable();
            assert_eq!(out.len(), 9, "{kind:?}");
            assert!(!out.contains(&3), "{kind:?} returned a tombstone");
        }
    }

    #[test]
    fn update_moves_an_object_in_every_index() {
        let mut d = db();
        let c = d.collection("boxes");
        let obj = d.insert(c, Region::from_box(AaBox::new([0.0, 0.0], [1.0, 1.0])));
        assert!(d.update(
            obj,
            Region::from_box(AaBox::new([50.0, 50.0], [60.0, 60.0]))
        ));
        let probe = Bbox::new([45.0, 45.0], [65.0, 65.0]);
        let q = CornerQuery::unconstrained().and_contained_in(&probe);
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let mut out = Vec::new();
            d.query_collection(c, kind, &q, &mut out);
            assert_eq!(out, vec![0], "{kind:?} must see the new box");
        }
        assert_eq!(d.bbox(obj), Bbox::new([50.0, 50.0], [60.0, 60.0]));
        // updating to and from empty maintains the empty-object list
        assert!(d.update(obj, Region::empty()));
        assert_eq!(d.empty_objects(c), &[0]);
        assert!(d.update(obj, Region::from_box(AaBox::new([2.0, 2.0], [3.0, 3.0]))));
        assert!(d.empty_objects(c).is_empty());
        // tombstoned objects reject updates
        assert!(d.remove(obj));
        assert!(!d.update(obj, Region::empty()));
    }

    #[test]
    fn removing_empty_region_objects_maintains_the_list() {
        let mut d = db();
        let c = d.collection("mixed");
        d.insert(c, Region::from_box(AaBox::new([0.0, 0.0], [1.0, 1.0])));
        let e1 = d.insert(c, Region::empty());
        let _e2 = d.insert(c, Region::empty());
        assert_eq!(d.empty_objects(c), &[1, 2]);
        assert!(d.remove(e1));
        assert_eq!(d.empty_objects(c), &[2]);
        assert_eq!(d.live_len(c), 2);
    }

    #[test]
    fn compact_reclaims_tombstones_and_remaps() {
        let mut d = db();
        let c = d.collection("boxes");
        let refs: Vec<ObjectRef> = (0..12)
            .map(|i| {
                let x = i as f64 * 8.0;
                d.insert(c, Region::from_box(AaBox::new([x, 0.0], [x + 6.0, 6.0])))
            })
            .collect();
        let empty = d.insert(c, Region::empty());
        for &i in &[1usize, 4, 7, 8] {
            assert!(d.remove(refs[i]));
        }
        let report = d.compact();
        assert_eq!(report.slots_reclaimed, 4);
        assert_eq!(d.collection_len(c), 9, "tombstones reclaimed");
        assert_eq!(d.live_len(c), 9);
        // dropped slots remap to None, survivors to their shifted slot
        assert_eq!(report.fix_up(refs[1]), None);
        let r0 = report.fix_up(refs[0]).expect("slot 0 survives");
        assert_eq!(r0.index, 0);
        let r5 = report.fix_up(refs[5]).expect("slot 5 survives");
        assert_eq!(r5.index, 3, "two earlier tombstones shift it down");
        assert!(d
            .region(r5)
            .same_set(&Region::from_box(AaBox::new([40.0, 0.0], [46.0, 6.0]))));
        // the empty-region object stays tracked under its new slot
        let e = report.fix_up(empty).expect("empty object survives");
        assert_eq!(d.empty_objects(c), &[e.index]);
        // all indexes answer over the compacted id space
        let q = CornerQuery::unconstrained();
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let mut out = Vec::new();
            d.query_collection(c, kind, &q, &mut out);
            out.sort_unstable();
            let expect: Vec<u64> = (0..9).filter(|&i| i != e.index as u64).collect();
            assert_eq!(out, expect, "{kind:?}");
        }
        crate::integrity::check(&d).expect("compacted database is consistent");
        // compacting an already-compact database is a no-op remap
        let again = d.compact();
        assert_eq!(again.slots_reclaimed, 0);
        assert_eq!(again.fix_up(r5), Some(r5));
    }

    #[test]
    fn compact_is_per_collection() {
        let mut d = db();
        let a = d.collection("a");
        let b = d.collection("b");
        let ra = d.insert(a, Region::from_box(AaBox::new([0.0, 0.0], [1.0, 1.0])));
        let rb0 = d.insert(b, Region::from_box(AaBox::new([2.0, 2.0], [3.0, 3.0])));
        let rb1 = d.insert(b, Region::from_box(AaBox::new([4.0, 4.0], [5.0, 5.0])));
        assert!(d.remove(rb0));
        let report = d.compact();
        assert_eq!(
            report.fix_up(ra),
            Some(ra),
            "untouched collection keeps slots"
        );
        assert_eq!(report.fix_up(rb0), None);
        assert_eq!(
            report.fix_up(rb1).map(|o| o.index),
            Some(0),
            "b's survivor shifts to slot 0"
        );
        crate::integrity::check(&d).expect("consistent after compaction");
    }

    #[test]
    fn epoch_tracks_effective_mutations_only() {
        let mut d = db();
        let c = d.collection("boxes");
        assert_eq!(d.epoch(c), 0);
        let a = d.insert(c, Region::from_box(AaBox::new([0.0, 0.0], [1.0, 1.0])));
        assert_eq!(d.epoch(c), 1);
        assert!(d.update(a, Region::from_box(AaBox::new([2.0, 2.0], [3.0, 3.0]))));
        assert_eq!(d.epoch(c), 2);
        assert!(d.remove(a));
        assert_eq!(d.epoch(c), 3);
        // ineffective mutations leave the epoch unchanged
        assert!(!d.remove(a));
        assert!(!d.update(a, Region::empty()));
        assert_eq!(d.epoch(c), 3);
        // compaction rewrites slots, so it always bumps
        d.compact();
        assert_eq!(d.epoch(c), 4);
        // epochs are per collection
        let other = d.collection("other");
        assert_eq!(d.epoch(other), 0);
        d.insert(other, Region::empty());
        assert_eq!(d.epoch(other), 1);
        assert_eq!(d.epoch(c), 4, "a mutation elsewhere leaves c alone");
    }

    #[test]
    fn region_retrieval() {
        let mut d = db();
        let c = d.collection("x");
        let reg = Region::from_box(AaBox::new([5.0, 5.0], [6.0, 6.0]));
        let obj = d.insert(c, reg.clone());
        assert!(d.region(obj).same_set(&reg));
        assert_eq!(d.object_indices(c), 0..1);
    }
}
