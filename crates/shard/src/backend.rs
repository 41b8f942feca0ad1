//! The shard backend abstraction: where one shard's objects live.
//!
//! [`crate::ShardedDatabase`] never touches a [`SpatialDatabase`]
//! directly any more — it drives a [`ShardBackend`], the complete
//! contract between the routing layer and one shard: mutation
//! (insert / remove / update), corner-query candidate retrieval, the
//! shard's slots as a [`SpatialDatabase`] the executors bind regions
//! from, statistics, compaction with a remap report, integrity
//! checking, and snapshot streaming. Two implementations exist:
//!
//! * [`LocalShard`] — a [`SpatialDatabase`] in this process (exactly
//!   the pre-backend behavior, zero overhead, infallible);
//! * [`crate::RemoteShard`] — a client speaking the length-prefixed
//!   shard wire protocol ([`crate::wire`]) to a shard **process**
//!   behind a socket, keeping a write-through copy of the shard's
//!   database that answers every read — corner queries and the
//!   `&Region`s the executors bind — without a round trip.
//!
//! The routing layer is deliberately ignorant of which one it holds:
//! all cross-shard bookkeeping (global slots, migration) lives above
//! this trait, so a cluster of OS processes and an in-process sharded
//! store answer identically — that equivalence is property-tested in
//! `tests/cluster_props.rs`.
//!
//! Addressing is **shard-local** throughout: `(collection, local
//! slot)`, with the global↔local translation owned by the caller.

use bytes::Bytes;
use scq_bbox::CornerQuery;
use scq_engine::{integrity, snapshot, CollectionId, CompactReport, IndexKind, SpatialDatabase};
use scq_region::{AaBox, Region};

use crate::wire::WireError;

/// Why a shard backend operation failed.
///
/// [`LocalShard`] never fails; every variant originates in the remote
/// backend's transport or in a shard process rejecting an operation.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardError {
    /// Transport-level failure talking to a remote shard process.
    Wire(WireError),
    /// The shard (or the client's own consistency checks) rejected the
    /// operation.
    Rejected(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Wire(e) => write!(f, "shard wire: {e}"),
            ShardError::Rejected(m) => write!(f, "shard rejected: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<WireError> for ShardError {
    fn from(e: WireError) -> Self {
        ShardError::Wire(e)
    }
}

/// Accounting for one corner-query probe, folded into
/// `ProbeReport`/`ExecStats` by the routing layer. Both backends answer
/// a probe from an in-process [`SpatialDatabase`], so neither fills it
/// in and every field stays zero; it remains part of
/// [`ShardBackend::try_corner_query`]'s signature until the failure
/// counters it feeds are retired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeTrace {
    /// Transport reconnect-and-retry attempts made while answering,
    /// counted whether the probe ultimately succeeded or not.
    pub retries: usize,
    /// Replicas that failed (or were skipped by an open breaker)
    /// before one answered — 0 when the primary answered directly.
    pub failovers: usize,
    /// Whether the answer came from a non-primary replica. Such an
    /// answer is correct against the last replicated write, but the
    /// primary could not confirm it — callers surface it as a
    /// staleness marker.
    pub stale: bool,
}

/// One shard of a [`crate::ShardedDatabase`]: the full contract between
/// the routing layer and wherever the shard's objects actually live.
///
/// All slot indices are **shard-local**. Mutations are fallible because
/// a remote backend sits behind a socket; [`LocalShard`] never returns
/// an error. Reads — [`ShardBackend::database`] and
/// [`ShardBackend::try_corner_query`] — are answered by an in-process
/// [`SpatialDatabase`] in every implementation: that is what lets the
/// executors run over a remote-backed store at local speed. No read
/// crosses the wire.
pub trait ShardBackend: Send + Sync {
    /// Short human-readable description (`local`, `remote:<addr>`),
    /// used in stats and error messages.
    fn describe(&self) -> String;

    /// The shard's slots — universe, collections, regions, bounding
    /// boxes, liveness — addressed by shard-local [`ObjectRef`]s. A
    /// remote backend answers from its write-through copy, which
    /// [`ShardBackend::check`] compares with the shard process.
    ///
    /// [`ObjectRef`]: scq_engine::ObjectRef
    fn database(&self) -> &SpatialDatabase<2>;

    /// Creates (or finds) a collection. Shards create collections in
    /// lockstep with the routing layer, so the returned id must equal
    /// the logical id — implementations return an error if the shard
    /// numbers it differently (a desynchronized shard process).
    fn create_collection(&mut self, name: &str) -> Result<CollectionId, ShardError>;

    /// Inserts a region, returning the fresh local slot index.
    fn insert(&mut self, coll: CollectionId, region: Region<2>) -> Result<usize, ShardError>;

    /// Tombstones a local slot. `Ok(false)` when it was already dead.
    fn remove(&mut self, coll: CollectionId, local: usize) -> Result<bool, ShardError>;

    /// Replaces a live local slot's region in place (no routing here —
    /// cross-shard migration is the layer above). `Ok(false)` when the
    /// slot is tombstoned.
    fn update(
        &mut self,
        coll: CollectionId,
        local: usize,
        region: Region<2>,
    ) -> Result<bool, ShardError>;

    /// Runs a corner query against the chosen index of
    /// [`ShardBackend::database`], appending matching **local** slot
    /// indices to `out` (the caller remaps to global). Candidates and
    /// the regions the executors then bind come from the same copy.
    ///
    /// Both implementations answer in process and return `Ok`, leaving
    /// `trace` untouched. An `Err` would mean the shard could not
    /// answer — the routing layer treats a transport error as an
    /// unavailable shard — and implementations must leave `out`
    /// untouched on error.
    fn try_corner_query(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<2>,
        out: &mut Vec<u64>,
        trace: &mut ProbeTrace,
    ) -> Result<(), ShardError>;

    /// Compacts the shard, returning the local-slot remap report.
    fn compact(&mut self) -> Result<CompactReport, ShardError>;

    /// Structural integrity problems of this shard (empty = healthy).
    /// Transport failures surface as problems, not panics.
    fn check(&self) -> Vec<String>;

    /// Per-replica connection/breaker health, one entry per replica,
    /// primary first. Local backends have no connections and return an
    /// empty list (the default).
    fn health(&self) -> Vec<crate::remote::ReplicaHealth> {
        Vec::new()
    }

    /// WAL counters aggregated across this shard's replicas, when any
    /// of them keeps a log. Local backends are purely in-memory and
    /// report `None` (the default).
    fn wal_stats(&self) -> Option<crate::wal::WalStats> {
        None
    }

    /// Brings desynchronized replicas back in sync with the primary by
    /// shipping them the primary's snapshot, returning how many were
    /// repaired. Local backends have no replicas and repair none (the
    /// default).
    fn resync(&mut self) -> Result<usize, ShardError> {
        Ok(0)
    }

    /// The shard **process's** own instruments (per-op latency
    /// histograms, WAL fsync latency), fetched over the wire for a
    /// remote backend. Local backends run inside the caller's process —
    /// their work is already observed there — and report `None` (the
    /// default), as does a remote shard that cannot be reached.
    fn metrics(&self) -> Option<scq_obs::Snapshot> {
        None
    }

    /// Client-side instruments for talking **to** this shard
    /// (wait to get onto the connection, breaker trips), merged across
    /// replicas. Local backends have no client and report `None` (the
    /// default).
    fn client_metrics(&self) -> Option<scq_obs::Snapshot> {
        None
    }

    /// The shard's full snapshot stream (the engine's versioned `SCQS`
    /// format) — for a remote backend this is produced by the shard
    /// process, so only one shard's bytes ever cross the wire at once.
    fn snapshot_stream(&self) -> Result<Bytes, ShardError>;

    /// Replaces the shard's entire contents with a decoded `SCQS`
    /// stream (snapshot restore).
    fn load_snapshot(&mut self, stream: &[u8]) -> Result<(), ShardError>;
}

/// The in-process backend: a [`SpatialDatabase`] owned directly.
/// Infallible and zero-overhead — exactly the behavior the sharded
/// store had before backends existed.
pub struct LocalShard(SpatialDatabase<2>);

impl LocalShard {
    /// An empty local shard over `universe`.
    pub(crate) fn new(universe: AaBox<2>) -> Self {
        LocalShard(SpatialDatabase::new(universe))
    }

    /// Wraps an existing database (snapshot assembly).
    pub(crate) fn from_database(db: SpatialDatabase<2>) -> Self {
        LocalShard(db)
    }
}

impl ShardBackend for LocalShard {
    fn describe(&self) -> String {
        "local".into()
    }

    fn database(&self) -> &SpatialDatabase<2> {
        &self.0
    }

    fn create_collection(&mut self, name: &str) -> Result<CollectionId, ShardError> {
        Ok(self.0.collection(name))
    }

    fn insert(&mut self, coll: CollectionId, region: Region<2>) -> Result<usize, ShardError> {
        Ok(self.0.insert(coll, region).index)
    }

    fn remove(&mut self, coll: CollectionId, local: usize) -> Result<bool, ShardError> {
        Ok(self.0.remove(local_ref(coll, local)))
    }

    fn update(
        &mut self,
        coll: CollectionId,
        local: usize,
        region: Region<2>,
    ) -> Result<bool, ShardError> {
        Ok(self.0.update(local_ref(coll, local), region))
    }

    fn try_corner_query(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<2>,
        out: &mut Vec<u64>,
        _trace: &mut ProbeTrace,
    ) -> Result<(), ShardError> {
        self.0.query_collection(coll, kind, q, out);
        Ok(())
    }

    fn compact(&mut self) -> Result<CompactReport, ShardError> {
        Ok(self.0.compact())
    }

    fn check(&self) -> Vec<String> {
        integrity::check(&self.0).err().unwrap_or_default()
    }

    fn snapshot_stream(&self) -> Result<Bytes, ShardError> {
        Ok(snapshot::save(&self.0))
    }

    fn load_snapshot(&mut self, stream: &[u8]) -> Result<(), ShardError> {
        self.0 = snapshot::load::<2>(stream).map_err(|e| ShardError::Rejected(e.to_string()))?;
        Ok(())
    }
}

/// The shard-local [`scq_engine::ObjectRef`] of slot `local`.
pub(crate) fn local_ref(coll: CollectionId, local: usize) -> scq_engine::ObjectRef {
    scq_engine::ObjectRef {
        collection: coll,
        index: local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_shard_round_trips_through_the_trait() {
        let mut s = LocalShard::new(AaBox::new([0.0, 0.0], [10.0, 10.0]));
        let c = s.create_collection("objs").unwrap();
        assert_eq!(s.database().collection_id("objs"), Some(c));
        let r = Region::from_box(AaBox::new([1.0, 1.0], [2.0, 2.0]));
        let slot = s.insert(c, r.clone()).unwrap();
        assert_eq!(slot, 0);
        assert!(s.database().is_live(local_ref(c, slot)));
        assert!(s.database().region(local_ref(c, slot)).same_set(&r));
        assert!(s
            .update(
                c,
                slot,
                Region::from_box(AaBox::new([3.0, 3.0], [4.0, 4.0]))
            )
            .unwrap());
        assert!(s.remove(c, slot).unwrap());
        assert!(!s.remove(c, slot).unwrap());
        assert_eq!(s.database().live_len(c), 0);
        assert_eq!(s.database().collection_len(c), 1);
        let report = s.compact().unwrap();
        assert_eq!(report.slots_reclaimed, 1);
        assert!(s.check().is_empty());
        let stream = s.snapshot_stream().unwrap();
        let mut other = LocalShard::new(AaBox::new([0.0, 0.0], [1.0, 1.0]));
        other.load_snapshot(&stream).unwrap();
        assert_eq!(other.database().collection_id("objs"), Some(c));
        assert_eq!(
            other.database().collection_len(c),
            0,
            "compacted shard is empty"
        );
    }
}
