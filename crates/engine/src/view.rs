//! The executor-facing store abstraction.
//!
//! Every executor ([`crate::exec`]) runs against a
//! [`StoreView`]: the minimal read surface of an object store —
//! collections of regions with materialized bounding boxes, per-slot
//! liveness and corner-query retrieval. [`crate::SpatialDatabase`] is
//! the single-store implementation; a sharded database implements the
//! same trait by fanning corner queries out across shards and mapping
//! shard-local ids back to a global slot space, so one executor code
//! path serves both (and the two can be property-tested against each
//! other). The shards themselves may live in **other processes**: the
//! sharded store then answers corner queries, `region`, `bbox` and
//! liveness from a router-side mirror of each shard, and the executors
//! cannot tell — which is why `region` returning a borrow is a hard
//! requirement of this trait, not a convenience: it forces every
//! implementation, however remote, to keep the hot read path
//! memory-speed. No read crosses a socket, so no read can fail.
//!
//! The trait is deliberately read-only: executors never mutate the
//! store, which is what lets concurrent requests share one view under a
//! read lock (`&V` where `V: Sync`).

use scq_bbox::{Bbox, CornerQuery};
use scq_region::{AaBox, Region, RegionAlgebra};

use crate::database::{CollectionId, ObjectRef};
use crate::query::IndexKind;

/// What one corner-query probe did across a partitioned store.
///
/// Single-store implementations return [`ProbeReport::default`]; a
/// sharded store reports how many shards the router pruned and how
/// long routing took. A probe always answers in full: a sharded
/// store's reads come from its router-side mirror, so no shard can be
/// missing from `out`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProbeReport {
    /// Shards the router proved disjoint from the query and never
    /// probed.
    pub shards_pruned: usize,
    /// Wall-clock microseconds the router spent deciding which shards
    /// to probe (interval-vs-shard-extent pruning). Always 0 for
    /// single-store implementations. A timing, not a count: two runs
    /// that did equal work still differ here.
    pub route_us: u64,
}

/// Read access to an object store, as consumed by the executors.
///
/// Object identity is `(collection, slot index)` — [`ObjectRef`] — in a
/// *view-global* slot space: implementations over partitioned storage
/// must translate to and from their internal addressing. Slot indices
/// returned by [`StoreView::query_collection`] and
/// [`StoreView::live_indices_into`] index that global space.
pub trait StoreView<const K: usize> {
    /// The universe box all regions live in.
    fn universe(&self) -> &AaBox<K>;

    /// The Boolean algebra of this store's regions.
    fn algebra(&self) -> RegionAlgebra<K> {
        RegionAlgebra::new(*self.universe())
    }

    /// Number of slots in a collection, tombstones included. Slot
    /// indices range over `0..collection_len`.
    fn collection_len(&self, coll: CollectionId) -> usize;

    /// Number of live (non-tombstoned) objects in a collection.
    fn live_len(&self, coll: CollectionId) -> usize;

    /// The collection's **mutation epoch**: a counter bumped on every
    /// effective mutation (insert, effective remove/update, compact).
    /// Two reads of the same collection observing the same epoch are
    /// guaranteed to see identical contents, which is what lets caches
    /// at every layer — the executors' sibling corner-query cache, the
    /// serve tier's cross-query candidate cache — validate entries
    /// without re-reading the data. Partitioned stores keep one logical
    /// epoch per collection (not per shard), bumped on the routing
    /// tier; no cache reads a shard's own epoch.
    fn epoch(&self, coll: CollectionId) -> u64;

    /// Whether the object's slot is live (not tombstoned).
    fn is_live(&self, obj: ObjectRef) -> bool;

    /// The region of an object.
    fn region(&self, obj: ObjectRef) -> &Region<K>;

    /// The object's bounding box, materialized at insert time.
    fn bbox(&self, obj: ObjectRef) -> Bbox<K>;

    /// Runs a corner query against the chosen index of a collection,
    /// appending matching (global) object indices to `out`. Returns a
    /// [`ProbeReport`]: shards pruned and routing time. The answer is
    /// always complete.
    fn query_collection(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<K>,
        out: &mut Vec<u64>,
    ) -> ProbeReport;

    /// *Live* object indices in a collection whose regions are empty
    /// (corner queries cannot return them; executors re-add them as
    /// candidates to stay exact).
    fn empty_objects(&self, coll: CollectionId) -> &[usize];

    /// Appends the live (global) slot indices of a collection to `out`,
    /// in ascending order.
    fn live_indices_into(&self, coll: CollectionId, out: &mut Vec<usize>);
}
