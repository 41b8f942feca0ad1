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
//! sharded store's backends can answer corner queries over a socket
//! while serving `region`/`bbox`/liveness from a client-side mirror,
//! and the executors cannot tell — which is why `region` returning a
//! borrow is a hard requirement of this trait, not a convenience: it
//! forces every implementation, however remote, to keep the hot read
//! path memory-speed.
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
/// sharded store reports how many shards the router pruned, how many
/// transport retries its backends performed, and which shards were
/// **unavailable** — probed but unreachable, their candidates missing
/// from `out`. An unavailable shard does not abort the query: the
/// executors keep searching over the candidates that did arrive and
/// surface the degradation as a partial
/// [`QueryOutcome`](crate::QueryOutcome), so callers can distinguish
/// "no matches" from "shard 3 was down".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProbeReport {
    /// Shards the router proved disjoint from the query and never
    /// probed.
    pub shards_pruned: usize,
    /// Transport-level retries the backends performed while answering
    /// (reconnect-and-retry on idempotent requests).
    pub retries: usize,
    /// Replica failovers the backends performed while answering: a
    /// shard's primary (or an earlier replica) was unreachable or
    /// breaker-skipped and a later replica served instead.
    pub failovers: usize,
    /// Shards that were probed but could not answer (every replica
    /// dead or skipped, connection refused after retry). Their
    /// candidates are missing from the output. Empty for a fully
    /// answered probe.
    pub missing_shards: Vec<usize>,
    /// Shards whose answer came from a **non-primary** replica. The
    /// answer is complete under write-through convergence, but it was
    /// served by a stand-in — surfaced so operators can tell "healthy"
    /// from "healthy because the replica caught it".
    pub stale_shards: Vec<usize>,
    /// Wall-clock microseconds the router spent deciding which shards
    /// to probe (interval-vs-shard-extent pruning). Always 0 for
    /// single-store implementations. A timing, not a count: two runs
    /// that did equal work still differ here.
    pub route_us: u64,
}

impl ProbeReport {
    /// Whether every probed shard answered.
    pub fn is_complete(&self) -> bool {
        self.missing_shards.is_empty()
    }
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
    /// [`ProbeReport`]: shards pruned, transport retries, and any
    /// shards that were probed but unavailable (their candidates are
    /// missing — a **degraded** read, not an error: the executors keep
    /// going and mark the result partial).
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
