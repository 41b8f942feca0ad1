//! The sharded spatial database: N independent shard backends behind
//! one [`StoreView`].
//!
//! Each logical collection is partitioned across every shard by the
//! z-order routing key of the object's bounding-box center
//! ([`crate::router::ShardRouter`]). Objects are addressed by **global**
//! [`ObjectRef`]s — `(logical collection, global slot)` — and a mapping
//! table translates between the global slot space and `(shard, local
//! slot)` pairs, so the executors (which run unchanged over the
//! [`StoreView`] trait) never see the partitioning. Global refs have
//! the same stability contract as unsharded ones: slots never shift or
//! get reused, removal tombstones.
//!
//! [`ShardedDatabase::update`] **migrates** an object whose new
//! bounding box routes to a different shard: the old shard keeps a
//! tombstone, the new shard gets a fresh local slot, and the global
//! slot is repointed — callers keep their refs.
//!
//! Since PR 4 the store is generic over **where the shards live**: a
//! [`ShardBackend`] is the complete routing-layer↔shard contract, and
//! `ShardedDatabase<LocalShard>` (the default) behaves exactly like
//! the pre-backend in-process store while `ShardedDatabase<RemoteShard>`
//! drives one OS process per shard over the wire protocol — same
//! routing, same migration, same global ids, property-tested
//! equivalent. Mutations have `try_*` forms that surface backend
//! (transport) errors; the plain forms keep the historical infallible
//! signatures and panic on a backend failure, which for the default
//! local backend can never happen.

use std::collections::HashMap;

use scq_bbox::{Bbox, CornerQuery};
use scq_engine::view::{ProbeReport, StoreView};
use scq_engine::{CollectionId, CompactReport, IndexKind, ObjectRef, SpatialDatabase};
use scq_region::{AaBox, Region};

use crate::backend::{local_ref, LocalShard, ShardBackend, ShardError};
use crate::router::ShardRouter;

thread_local! {
    /// Reusable candidate-shard buffer for the corner-query fan-out
    /// (one per thread: concurrent requests share `&ShardedDatabase`
    /// under the serve tier's read lock).
    static SHARD_SCRATCH: std::cell::RefCell<Vec<usize>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Where one global slot lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SlotAddr {
    /// Owning shard.
    pub shard: u32,
    /// Slot inside the shard's collection.
    pub local: u32,
}

impl SlotAddr {
    /// The `local` of a tombstoned global slot whose shard has already
    /// compacted its tombstone away while another shard's compaction
    /// failed (see [`ShardedDatabase::try_compact`]). Only dead global
    /// slots carry it, and the next complete compaction drops them.
    pub(crate) const RECLAIMED: u32 = u32::MAX;
}

/// Per-shard side tables of one logical collection.
#[derive(Clone, Debug, Default)]
pub(crate) struct ShardSide {
    /// Local slot -> global slot (dense: shard collections only grow).
    pub globals: Vec<u64>,
}

impl ShardSide {
    /// The `globals` entry of a shard slot no global slot owns: the
    /// copy a failed migration rolled back, or — when the rollback
    /// failed too — an **orphan**, live on its shard. `check()` names
    /// orphans and reads skip them.
    pub(crate) const UNOWNED: u64 = u64::MAX;
}

pub(crate) struct LogicalCollection {
    pub name: String,
    /// Global slot -> shard address (never shrinks; tombstoned slots
    /// keep their last address).
    pub slots: Vec<SlotAddr>,
    /// Global per-slot liveness.
    pub live: Vec<bool>,
    pub live_count: usize,
    /// Global indices of live objects with an empty region.
    pub empty_objects: Vec<usize>,
    /// One side table per shard.
    pub per_shard: Vec<ShardSide>,
    /// Logical mutation epoch (see `StoreView::epoch`): one counter per
    /// **logical** collection, bumped on the routing tier for every
    /// effective insert/remove/update/compact regardless of which shard
    /// absorbed it.
    pub epoch: u64,
}

/// A spatial database partitioned across `n_shards` z-order range
/// shards — each a [`ShardBackend`]: a full in-process
/// [`SpatialDatabase`] ([`LocalShard`], the default) or a shard process
/// behind a socket ([`crate::RemoteShard`]).
///
/// Implements [`StoreView`], so every engine executor (naive,
/// triangular, bbox) runs against it unchanged;
/// corner queries fan out only to the shards the router cannot prune
/// (counted in [`scq_engine::ExecStats::shards_pruned`]).
///
/// The backend parameter stays while the benchmark
/// (`benchmark/src/layers.rs`) names `ShardedDatabase<B>`; folding the
/// two shard types into one goes with ROADMAP item 1.
pub struct ShardedDatabase<B: ShardBackend = LocalShard> {
    universe: AaBox<2>,
    router: ShardRouter,
    shards: Vec<B>,
    collections: Vec<LogicalCollection>,
    by_name: HashMap<String, CollectionId>,
    obs: DbInstruments,
}

/// Router-side instruments of one [`ShardedDatabase`]: where the time
/// goes between a query arriving and its shard answers coming back.
/// The serve tier merges this registry's snapshot into the
/// process-wide scrape.
pub struct DbInstruments {
    registry: scq_obs::Registry,
    /// `shard.probe.latency` — wall time of one shard probe (backend
    /// round trip included), observed per probed shard.
    probe_latency: scq_obs::Histogram,
    /// `db.route.latency` — time the z-order router spends choosing
    /// candidate shards, observed per fan-out.
    route_latency: scq_obs::Histogram,
}

impl DbInstruments {
    fn new() -> DbInstruments {
        let registry = scq_obs::Registry::new();
        let probe_latency = registry.histogram("shard.probe.latency");
        let route_latency = registry.histogram("db.route.latency");
        DbInstruments {
            registry,
            probe_latency,
            route_latency,
        }
    }

    /// A point-in-time snapshot of the router-side instruments.
    pub fn snapshot(&self) -> scq_obs::Snapshot {
        self.registry.snapshot()
    }
}

/// Default bits per dimension of the routing grid (64×64 cells: fine
/// enough that realistic shard counts get distinct spatial territory,
/// coarse enough that query pruning costs microseconds).
pub const DEFAULT_ROUTER_BITS: u32 = 6;

impl ShardedDatabase<LocalShard> {
    /// Creates a database partitioned into `n_shards` in-process
    /// shards over `universe`, with the default routing grid
    /// ([`DEFAULT_ROUTER_BITS`]).
    ///
    /// # Panics
    /// If the universe is empty or `n_shards` is 0.
    pub fn new(universe: AaBox<2>, n_shards: usize) -> Self {
        Self::with_router_bits(universe, n_shards, DEFAULT_ROUTER_BITS)
    }

    /// [`ShardedDatabase::new`] with an explicit routing grid
    /// resolution (`bits` per dimension, in `1..=16`).
    fn with_router_bits(universe: AaBox<2>, n_shards: usize, bits: u32) -> Self {
        assert!(!universe.is_empty(), "universe must be nonempty");
        let router = ShardRouter::new(&universe, bits, n_shards);
        ShardedDatabase::from_parts(
            universe,
            router,
            (0..n_shards).map(|_| LocalShard::new(universe)).collect(),
            Vec::new(),
        )
    }
}

impl<B: ShardBackend> ShardedDatabase<B> {
    /// Read access to shard `s`'s [`SpatialDatabase`] (for a remote
    /// shard, the router's write-through copy). Its slots are
    /// shard-local: going through it bypasses the global id space.
    pub fn shard(&self, s: usize) -> &SpatialDatabase<2> {
        self.shards[s].database()
    }

    /// Assembles a sharded database over pre-built backends with an
    /// explicit router. The backends' universes must equal `universe`.
    ///
    /// # Panics
    /// If `shards` is empty, the router's shard count disagrees, or a
    /// backend spans a different universe.
    pub(crate) fn from_backends(universe: AaBox<2>, router: ShardRouter, shards: Vec<B>) -> Self {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        assert_eq!(
            router.n_shards(),
            shards.len(),
            "router and backend count must agree"
        );
        for (s, shard) in shards.iter().enumerate() {
            assert_eq!(
                shard.database().universe(),
                &universe,
                "shard {s} ({}) spans a different universe",
                shard.describe()
            );
        }
        ShardedDatabase::from_parts(universe, router, shards, Vec::new())
    }

    pub(crate) fn from_parts(
        universe: AaBox<2>,
        router: ShardRouter,
        shards: Vec<B>,
        collections: Vec<LogicalCollection>,
    ) -> Self {
        let by_name = collections
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), CollectionId(i)))
            .collect();
        ShardedDatabase {
            universe,
            router,
            shards,
            collections,
            by_name,
            obs: DbInstruments::new(),
        }
    }

    /// The router-side instruments (probe and route latency).
    pub fn obs(&self) -> &DbInstruments {
        &self.obs
    }

    /// Replaces the global mapping layer (snapshot reload plumbing).
    pub(crate) fn set_collections(&mut self, mut collections: Vec<LogicalCollection>) {
        // A reload is itself a mutation: whatever epoch the outgoing
        // mapping had reached, a same-named reloaded collection gets a
        // strictly larger one, so epoch-validated caches can never
        // serve pre-reload answers against post-reload contents.
        for c in &mut collections {
            if let Some(&old) = self.by_name.get(&c.name) {
                c.epoch = c.epoch.max(self.collections[old.0].epoch + 1);
            }
        }
        self.by_name = collections
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), CollectionId(i)))
            .collect();
        self.collections = collections;
    }

    /// The universe box.
    pub fn universe(&self) -> &AaBox<2> {
        &self.universe
    }

    /// The router (shard map).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's backend.
    pub fn backend(&self, s: usize) -> &B {
        &self.shards[s]
    }

    /// Mutable access to one shard's backend — for backend-level
    /// configuration after connect (e.g.
    /// [`crate::RemoteShard::set_clock`] in deterministic
    /// fault-injection tests). The backend's data plane has no mutable
    /// surface here; the mapping layer stays consistent.
    pub fn backend_mut(&mut self, s: usize) -> &mut B {
        &mut self.shards[s]
    }

    /// WAL counters summed across every shard (and, for replicated
    /// backends, every replica). `None` when no shard keeps a log.
    pub fn wal_stats(&self) -> Option<crate::wal::WalStats> {
        let mut agg: Option<crate::wal::WalStats> = None;
        for shard in &self.shards {
            if let Some(stats) = shard.wal_stats() {
                agg = Some(agg.map_or(stats, |a| a.merge(&stats)));
            }
        }
        agg
    }

    /// Runs [`crate::ShardBackend::resync`] on every shard: each
    /// lagging replica is shipped its primary's snapshot. Returns how
    /// many replicas were repaired; a shard with no desynced replicas
    /// contributes nothing. Stops loudly on the first non-transport
    /// failure.
    pub fn resync_all(&mut self) -> Result<usize, ShardError> {
        self.shards.iter_mut().map(|shard| shard.resync()).sum()
    }

    pub(crate) fn backends(&self) -> &[B] {
        &self.shards
    }

    pub(crate) fn backends_mut(&mut self) -> &mut [B] {
        &mut self.shards
    }

    /// Creates (or returns) the collection with the given name. The
    /// collection exists in every shard. Backend failures surface as
    /// errors; on the default local backend this never fails.
    pub fn try_collection(&mut self, name: &str) -> Result<CollectionId, ShardError> {
        if let Some(&id) = self.by_name.get(name) {
            return Ok(id);
        }
        let id = CollectionId(self.collections.len());
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let sc = shard.create_collection(name)?;
            // Logical and shard-local collection ids coincide because
            // every shard creates collections in the same order. A
            // shard that numbers a collection differently (e.g. one
            // that missed an earlier create during a partial failure)
            // must be a hard error even in release builds: routing to
            // it would silently read and write the wrong collection.
            if sc != id {
                return Err(ShardError::Rejected(format!(
                    "shard {s} ({}) numbered collection {name:?} as {} (expected {}): \
                     shards are out of lockstep with the router",
                    shard.describe(),
                    sc.0,
                    id.0
                )));
            }
        }
        self.collections.push(LogicalCollection {
            name: name.to_owned(),
            slots: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            empty_objects: Vec::new(),
            per_shard: (0..self.shards.len())
                .map(|_| ShardSide::default())
                .collect(),
            epoch: 0,
        });
        self.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// [`ShardedDatabase::try_collection`], panicking on a backend
    /// failure (infallible on local backends).
    pub fn collection(&mut self, name: &str) -> CollectionId {
        self.try_collection(name)
            .unwrap_or_else(|e| panic!("collection {name:?}: {e}"))
    }

    /// Looks up a collection by name.
    pub fn collection_id(&self, name: &str) -> Option<CollectionId> {
        self.by_name.get(name).copied()
    }

    /// The collection's name.
    pub(crate) fn collection_name(&self, id: CollectionId) -> &str {
        &self.collections[id.0].name
    }

    /// All collection ids.
    pub fn collections(&self) -> impl Iterator<Item = CollectionId> {
        (0..self.collections.len()).map(CollectionId)
    }

    /// The shard an object currently lives on.
    pub fn shard_of(&self, obj: ObjectRef) -> usize {
        self.collections[obj.collection.0].slots[obj.index].shard as usize
    }

    /// Inserts an object: routed by its bounding-box center to one
    /// shard, registered under a fresh global slot.
    pub fn try_insert(
        &mut self,
        coll: CollectionId,
        region: Region<2>,
    ) -> Result<ObjectRef, ShardError> {
        let bbox = region.bbox();
        let s = self.router.route_bbox(&bbox);
        let local = self.shards[s].insert(coll, region)?;
        let c = &mut self.collections[coll.0];
        let index = c.slots.len();
        c.per_shard[s].globals.push(index as u64);
        debug_assert_eq!(c.per_shard[s].globals.len(), local + 1);
        c.slots.push(SlotAddr {
            shard: s as u32,
            local: local as u32,
        });
        c.live.push(true);
        c.live_count += 1;
        c.epoch += 1;
        if bbox.is_empty() {
            c.empty_objects.push(index);
        }
        Ok(ObjectRef {
            collection: coll,
            index,
        })
    }

    /// [`ShardedDatabase::try_insert`], panicking on a backend failure
    /// (infallible on local backends).
    pub fn insert(&mut self, coll: CollectionId, region: Region<2>) -> ObjectRef {
        self.try_insert(coll, region)
            .unwrap_or_else(|e| panic!("insert: {e}"))
    }

    /// Tombstones an object on its shard and in the global slot space.
    /// Returns `Ok(false)` when the object was already removed.
    pub fn try_remove(&mut self, obj: ObjectRef) -> Result<bool, ShardError> {
        let c = &mut self.collections[obj.collection.0];
        if !c.live[obj.index] {
            return Ok(false);
        }
        let addr = c.slots[obj.index];
        let removed =
            self.shards[addr.shard as usize].remove(obj.collection, addr.local as usize)?;
        if !removed {
            return Err(ShardError::Rejected(
                "shard out of sync with global liveness".into(),
            ));
        }
        c.live[obj.index] = false;
        c.live_count -= 1;
        c.epoch += 1;
        c.empty_objects.retain(|&i| i != obj.index);
        Ok(true)
    }

    /// [`ShardedDatabase::try_remove`], panicking on a backend failure.
    pub fn remove(&mut self, obj: ObjectRef) -> bool {
        self.try_remove(obj)
            .unwrap_or_else(|e| panic!("remove: {e}"))
    }

    /// Replaces a live object's region. When the new bounding box
    /// routes to a different shard the object **migrates**: tombstone
    /// on the old shard, fresh slot on the new one, global slot
    /// repointed — the caller's `ObjectRef` keeps working. Returns
    /// `Ok(false)` (changing nothing) when the object is tombstoned.
    pub fn try_update(&mut self, obj: ObjectRef, region: Region<2>) -> Result<bool, ShardError> {
        let c = &mut self.collections[obj.collection.0];
        if !c.live[obj.index] {
            return Ok(false);
        }
        let addr = c.slots[obj.index];
        let old_shard = addr.shard as usize;
        let local = addr.local as usize;
        let was_empty = self.shards[old_shard]
            .database()
            .bbox(local_ref(obj.collection, local))
            .is_empty();
        let new_bbox = region.bbox();
        let new_shard = self.router.route_bbox(&new_bbox);
        if new_shard == old_shard {
            let ok = self.shards[old_shard].update(obj.collection, local, region)?;
            if !ok {
                return Err(ShardError::Rejected(
                    "shard out of sync with global liveness".into(),
                ));
            }
        } else {
            // Migration order is insert-new-first so a failure at any
            // single step never loses the object: an insert failure
            // changes nothing (the object stays live on the old
            // shard), and a remove failure rolls the fresh copy back.
            let new_local = self.shards[new_shard].insert(obj.collection, region)?;
            match self.shards[old_shard].remove(obj.collection, local) {
                Ok(true) => {}
                outcome => {
                    // Roll back the copy. The reverse table still gets
                    // an entry so local slots and `globals` stay
                    // index-aligned; the slot is dead or, if even the
                    // rollback fails, an orphan that `check()` names
                    // and `probe_shard` skips.
                    let _ = self.shards[new_shard].remove(obj.collection, new_local);
                    c.per_shard[new_shard].globals.push(ShardSide::UNOWNED);
                    return match outcome {
                        Ok(false) => Err(ShardError::Rejected("shard desync".into())),
                        Err(e) => Err(e),
                        Ok(true) => unreachable!("handled above"),
                    };
                }
            }
            c.per_shard[new_shard].globals.push(obj.index as u64);
            debug_assert_eq!(c.per_shard[new_shard].globals.len(), new_local + 1);
            c.slots[obj.index] = SlotAddr {
                shard: new_shard as u32,
                local: new_local as u32,
            };
        }
        match (was_empty, new_bbox.is_empty()) {
            (false, true) => c.empty_objects.push(obj.index),
            (true, false) => c.empty_objects.retain(|&i| i != obj.index),
            _ => {}
        }
        c.epoch += 1;
        Ok(true)
    }

    /// [`ShardedDatabase::try_update`], panicking on a backend failure.
    pub fn update(&mut self, obj: ObjectRef, region: Region<2>) -> bool {
        self.try_update(obj, region)
            .unwrap_or_else(|e| panic!("update: {e}"))
    }

    /// Number of global slots, tombstones included.
    pub fn collection_len(&self, coll: CollectionId) -> usize {
        self.collections[coll.0].slots.len()
    }

    /// Number of live objects.
    pub fn live_len(&self, coll: CollectionId) -> usize {
        self.collections[coll.0].live_count
    }

    /// The collection's logical mutation epoch (see
    /// `StoreView::epoch`): bumped on the routing tier for every
    /// effective insert/remove/update/compact, so one counter covers
    /// the whole partitioned collection.
    pub fn epoch(&self, coll: CollectionId) -> u64 {
        self.collections[coll.0].epoch
    }

    /// Whether the object's global slot is live.
    pub fn is_live(&self, obj: ObjectRef) -> bool {
        self.collections[obj.collection.0].live[obj.index]
    }

    /// The region of an object (read through its shard backend — for a
    /// remote shard this is the router's copy, no round trip).
    pub fn region(&self, obj: ObjectRef) -> &Region<2> {
        let addr = self.collections[obj.collection.0].slots[obj.index];
        self.shard(addr.shard as usize)
            .region(local_ref(obj.collection, addr.local as usize))
    }

    /// The materialized bounding box of an object.
    pub(crate) fn bbox(&self, obj: ObjectRef) -> Bbox<2> {
        let addr = self.collections[obj.collection.0].slots[obj.index];
        self.shard(addr.shard as usize)
            .bbox(local_ref(obj.collection, addr.local as usize))
    }

    /// Probes one shard's corner query and remaps its answers to
    /// global slots. Every backend answers from its in-process copy of
    /// the shard (for a remote shard, the mirror — see
    /// [`crate::RemoteShard`]'s read contract), so a probe cannot fail
    /// and a shard process's outage never reaches a read.
    fn probe_shard(
        &self,
        s: usize,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<2>,
        out: &mut Vec<u64>,
    ) {
        let start = out.len();
        let started = std::time::Instant::now();
        // The span names the shard up front (so a probe that panics
        // still identifies itself) and refines its detail once the
        // candidates are in.
        let mut span = scq_obs::span("probe", format!("shard={s}"));
        self.shards[s]
            .database()
            .query_collection(coll, kind, q, out);
        let globals = &self.collections[coll.0].per_shard[s].globals;
        let mut orphans = false;
        for id in &mut out[start..] {
            *id = globals[*id as usize];
            orphans |= *id == ShardSide::UNOWNED;
        }
        if orphans {
            // A live shard slot no global id owns (see
            // `ShardSide::UNOWNED`) is not an answer.
            let found = out.split_off(start);
            out.extend(found.into_iter().filter(|&g| g != ShardSide::UNOWNED));
        }
        if let Some(sp) = span.as_mut() {
            sp.set_detail(format!(
                "shard={s} backend={} candidates={}",
                self.shards[s].describe(),
                out.len() - start
            ));
        }
        self.obs.probe_latency.observe(started.elapsed());
    }

    /// Runs a corner query against the chosen index of every shard the
    /// router cannot prune, appending matching **global** object
    /// indices. Returns a [`ProbeReport`]: shards pruned and routing
    /// time; the answer is always complete.
    ///
    /// Allocation-free in steady state: each shard's ids land directly
    /// in `out` and are remapped to global slots in place, and the
    /// candidate-shard list lives in a reusable thread-local buffer —
    /// this runs once per node per level of the backtracking search,
    /// the same hot path the engine's `LevelBuf` pool protects.
    pub fn query_collection(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<2>,
        out: &mut Vec<u64>,
    ) -> ProbeReport {
        SHARD_SCRATCH.with(|buf| {
            let mut shards = buf.borrow_mut();
            let route_started = std::time::Instant::now();
            self.router.candidate_shards(q, &mut shards);
            let route_us = scq_engine::stats::elapsed_us(route_started);
            self.obs.route_latency.observe_us(route_us);
            for &s in shards.iter() {
                self.probe_shard(s, coll, kind, q, out);
            }
            ProbeReport {
                shards_pruned: self.n_shards() - shards.len(),
                route_us,
            }
        })
    }

    /// *Live* global indices of objects with empty regions.
    pub(crate) fn empty_objects(&self, coll: CollectionId) -> &[usize] {
        &self.collections[coll.0].empty_objects
    }

    /// `(shard, local slot)` of a global slot (snapshot plumbing).
    pub(crate) fn slot_addr(&self, obj: ObjectRef) -> (usize, usize) {
        let addr = self.collections[obj.collection.0].slots[obj.index];
        (addr.shard as usize, addr.local as usize)
    }

    /// Iterates over the live global slot indices of a collection.
    pub fn live_indices(&self, coll: CollectionId) -> impl Iterator<Item = usize> + '_ {
        self.collections[coll.0]
            .live
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| l.then_some(i))
    }

    /// Structural integrity: every shard backend passes its own check
    /// (for a remote shard: the shard process's integrity check plus a
    /// mirror census), and the global mapping tables are a
    /// liveness-respecting bijection consistent with the router. An
    /// empty `Ok(())` means the sharded database survived its mutation
    /// history (inserts, removes, cross-shard migrations, compactions)
    /// intact.
    pub fn check(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            problems.extend(shard.check().into_iter().map(|p| format!("shard {s}: {p}")));
        }
        for (ci, c) in self.collections.iter().enumerate() {
            let coll = CollectionId(ci);
            let name = &c.name;
            if c.slots.len() != c.live.len() {
                problems.push(format!("{name}: slot/liveness table length mismatch"));
                continue;
            }
            let recount = c.live.iter().filter(|&&l| l).count();
            if recount != c.live_count {
                problems.push(format!(
                    "{name}: cached live count {} != recount {recount}",
                    c.live_count
                ));
            }
            let shard_live: usize = self
                .shards
                .iter()
                .map(|s| s.database().live_len(coll))
                .sum();
            if shard_live != c.live_count {
                problems.push(format!(
                    "{name}: shards hold {shard_live} live objects, mapping says {}",
                    c.live_count
                ));
            }
            // Global slots whose address names a real shard slot; only
            // those are compared with their shard.
            let mut addressed = vec![false; c.slots.len()];
            for (gi, (&addr, &live)) in c.slots.iter().zip(&c.live).enumerate() {
                let (s, l) = (addr.shard as usize, addr.local as usize);
                if !live && addr.local == SlotAddr::RECLAIMED {
                    continue;
                }
                if s >= self.shards.len() || l >= self.shard(s).collection_len(coll) {
                    problems.push(format!(
                        "{name}[{gi}]: dangling shard address (shard {s} slot {l})"
                    ));
                    continue;
                }
                addressed[gi] = true;
                if c.per_shard[s].globals.get(l).copied() != Some(gi as u64) {
                    problems.push(format!(
                        "{name}[{gi}]: reverse mapping disagrees on shard {s} slot {l}"
                    ));
                }
                if live != self.shard(s).is_live(local_ref(coll, l)) {
                    problems.push(format!(
                        "{name}[{gi}]: global liveness {live} != shard liveness"
                    ));
                }
                if live {
                    let owner = self
                        .router
                        .route_bbox(&self.shard(s).bbox(local_ref(coll, l)));
                    if owner != s {
                        problems.push(format!(
                            "{name}[{gi}]: lives on shard {s} but routes to {owner}"
                        ));
                    }
                }
            }
            for (s, side) in c.per_shard.iter().enumerate() {
                for (l, &g) in side.globals.iter().enumerate() {
                    if g == ShardSide::UNOWNED
                        && l < self.shard(s).collection_len(coll)
                        && self.shard(s).is_live(local_ref(coll, l))
                    {
                        problems.push(format!(
                            "{name}: orphan on shard {s} slot {l}: live, but no global slot \
                             owns it (a migration's rollback failed)"
                        ));
                    }
                }
            }
            let mut empties: Vec<usize> = c.empty_objects.clone();
            empties.sort_unstable();
            let expect: Vec<usize> = c
                .live
                .iter()
                .enumerate()
                .filter(|&(gi, &l)| {
                    l && addressed[gi]
                        && StoreView::bbox(
                            self,
                            ObjectRef {
                                collection: coll,
                                index: gi,
                            },
                        )
                        .is_empty()
                })
                .map(|(gi, _)| gi)
                .collect();
            if empties != expect {
                problems.push(format!(
                    "{name}: empty-object list {empties:?} != live empty regions {expect:?}"
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// Compacts every shard backend **and** the global slot space:
    /// tombstoned global slots are dropped, live ones shift down, and
    /// the shard remap tables fix up the mapping layer — the same remap
    /// contract callers use, applied to the sharded database's own held
    /// refs. Returns the global remap.
    ///
    /// The shards compact one at a time, and each one's local
    /// renumbering is folded into the router's addresses as soon as it
    /// succeeds, so every address always names the slot its shard holds
    /// now. The global slots are renumbered only once every shard has
    /// compacted: when one fails, its error comes back with no global
    /// remap, every client-held ref stays valid, and a retried compaction
    /// finishes the job.
    pub fn try_compact(&mut self) -> Result<CompactReport, ShardError> {
        for s in 0..self.shards.len() {
            let local = self.shards[s].compact()?;
            self.fold_shard_compaction(s, &local);
        }
        let mut report = CompactReport {
            remap: Vec::with_capacity(self.collections.len()),
            slots_reclaimed: 0,
        };
        for (ci, c) in self.collections.iter_mut().enumerate() {
            let coll = CollectionId(ci);
            let mut remap: Vec<Option<usize>> = Vec::with_capacity(c.slots.len());
            let old_slots = std::mem::take(&mut c.slots);
            let old_live = std::mem::take(&mut c.live);
            c.empty_objects.clear();
            for (addr, live) in old_slots.into_iter().zip(old_live) {
                if !live {
                    remap.push(None);
                    report.slots_reclaimed += 1;
                    continue;
                }
                let (s, local) = (addr.shard as usize, addr.local as usize);
                let index = c.slots.len();
                remap.push(Some(index));
                c.slots.push(addr);
                c.per_shard[s].globals[local] = index as u64;
                if self.shards[s]
                    .database()
                    .bbox(local_ref(coll, local))
                    .is_empty()
                {
                    c.empty_objects.push(index);
                }
            }
            c.live = vec![true; c.slots.len()];
            c.live_count = c.slots.len();
            c.epoch += 1;
            report.remap.push(remap);
        }
        Ok(report)
    }

    /// Folds shard `s`'s own compaction into the mapping layer: its
    /// reverse tables shrink to the shard's new slots, and every global
    /// slot it owns moves to its new local slot. Global ids do not
    /// change. A tombstoned global slot whose shard slot was reclaimed
    /// is marked [`SlotAddr::RECLAIMED`] until the global renumbering
    /// drops it.
    fn fold_shard_compaction(&mut self, s: usize, local: &CompactReport) {
        for (ci, c) in self.collections.iter_mut().enumerate() {
            let coll = CollectionId(ci);
            let side = &mut c.per_shard[s];
            let mut globals =
                vec![ShardSide::UNOWNED; self.shards[s].database().collection_len(coll)];
            for (old, &g) in side.globals.iter().enumerate() {
                if let Some(new) = local.fix_up(local_ref(coll, old)) {
                    globals[new.index] = g;
                }
            }
            side.globals = globals;
            for (addr, &live) in c.slots.iter_mut().zip(&c.live) {
                if addr.shard as usize != s || addr.local == SlotAddr::RECLAIMED {
                    continue;
                }
                addr.local = match local.fix_up(local_ref(coll, addr.local as usize)) {
                    Some(new) => new.index as u32,
                    None => {
                        debug_assert!(!live, "a live global slot maps to a live shard slot");
                        SlotAddr::RECLAIMED
                    }
                };
            }
        }
    }

    /// [`ShardedDatabase::try_compact`], panicking on a backend
    /// failure (infallible on local backends).
    pub fn compact(&mut self) -> CompactReport {
        self.try_compact()
            .unwrap_or_else(|e| panic!("compact: {e}"))
    }
}

impl<B: ShardBackend> StoreView<2> for ShardedDatabase<B> {
    fn universe(&self) -> &AaBox<2> {
        ShardedDatabase::universe(self)
    }

    fn collection_len(&self, coll: CollectionId) -> usize {
        ShardedDatabase::collection_len(self, coll)
    }

    fn live_len(&self, coll: CollectionId) -> usize {
        ShardedDatabase::live_len(self, coll)
    }

    fn epoch(&self, coll: CollectionId) -> u64 {
        ShardedDatabase::epoch(self, coll)
    }

    fn is_live(&self, obj: ObjectRef) -> bool {
        ShardedDatabase::is_live(self, obj)
    }

    fn region(&self, obj: ObjectRef) -> &Region<2> {
        ShardedDatabase::region(self, obj)
    }

    fn bbox(&self, obj: ObjectRef) -> Bbox<2> {
        ShardedDatabase::bbox(self, obj)
    }

    fn query_collection(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<2>,
        out: &mut Vec<u64>,
    ) -> ProbeReport {
        ShardedDatabase::query_collection(self, coll, kind, q, out)
    }

    fn empty_objects(&self, coll: CollectionId) -> &[usize] {
        ShardedDatabase::empty_objects(self, coll)
    }

    fn live_indices_into(&self, coll: CollectionId, out: &mut Vec<usize>) {
        out.extend(self.live_indices(coll));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(n: usize) -> ShardedDatabase {
        ShardedDatabase::new(AaBox::new([0.0, 0.0], [100.0, 100.0]), n)
    }

    fn boxed(x: f64, y: f64, w: f64, h: f64) -> Region<2> {
        Region::from_box(AaBox::new([x, y], [x + w, y + h]))
    }

    #[test]
    fn inserts_spread_across_shards() {
        let mut d = db(4);
        let c = d.collection("boxes");
        for i in 0..40 {
            let t = (i * 7 % 38) as f64 * 2.5;
            d.insert(c, boxed(t, 95.0 - t, 2.0, 2.0));
        }
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..40 {
            seen.insert(d.shard_of(ObjectRef {
                collection: c,
                index: i,
            }));
        }
        assert!(seen.len() > 1, "diagonal data spans shards: {seen:?}");
        assert_eq!(d.collection_len(c), 40);
        assert_eq!(d.live_len(c), 40);
        d.check().expect("consistent");
    }

    #[test]
    fn queries_return_global_ids() {
        let mut d = db(4);
        let c = d.collection("boxes");
        let mut expect = Vec::new();
        for i in 0..30 {
            let t = (i * 11 % 29) as f64 * 3.0;
            let r = d.insert(c, boxed(t, t, 2.0, 2.0));
            // The probe sits off-center (inside the low z-quadrants),
            // so the router can prove the far shards disjoint.
            if t >= 2.0 && t + 2.0 <= 40.0 {
                expect.push(r.index as u64);
            }
        }
        expect.sort_unstable();
        let probe = Bbox::new([2.0, 2.0], [40.0, 40.0]);
        let q = CornerQuery::unconstrained().and_contained_in(&probe);
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let mut out = Vec::new();
            let report = d.query_collection(c, kind, &q, &mut out);
            out.sort_unstable();
            assert_eq!(out, expect, "{kind:?}");
            assert!(
                report.shards_pruned > 0,
                "diagonal probe must prune ({kind:?})"
            );
        }
    }

    #[test]
    fn remove_and_update_preserve_global_refs() {
        let mut d = db(3);
        let c = d.collection("objs");
        let a = d.insert(c, boxed(5.0, 5.0, 2.0, 2.0));
        let b = d.insert(c, boxed(90.0, 90.0, 2.0, 2.0));
        assert_ne!(d.shard_of(a), d.shard_of(b), "far corners shard apart");
        assert!(d.remove(a));
        assert!(!d.remove(a));
        assert!(d.is_live(b));
        assert_eq!(d.live_len(c), 1);
        // update b across the universe: it migrates shards, ref intact
        let before = d.shard_of(b);
        assert!(d.update(b, boxed(2.0, 2.0, 2.0, 2.0)));
        assert_ne!(d.shard_of(b), before, "object migrated");
        assert!(d.region(b).same_set(&boxed(2.0, 2.0, 2.0, 2.0)));
        assert_eq!(d.live_len(c), 1);
        d.check().expect("consistent after migration");
        // the migrated object is queryable at its new location only
        let q_new =
            CornerQuery::unconstrained().and_contained_in(&Bbox::new([0.0, 0.0], [10.0, 10.0]));
        let mut out = Vec::new();
        d.query_collection(c, IndexKind::RTree, &q_new, &mut out);
        assert_eq!(out, vec![1]);
        let q_old =
            CornerQuery::unconstrained().and_contained_in(&Bbox::new([80.0, 80.0], [100.0, 100.0]));
        out.clear();
        d.query_collection(c, IndexKind::RTree, &q_old, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_regions_route_and_track() {
        let mut d = db(4);
        let c = d.collection("objs");
        d.insert(c, boxed(50.0, 50.0, 5.0, 5.0));
        let e = d.insert(c, Region::empty());
        assert_eq!(d.empty_objects(c), &[1]);
        assert!(d.update(e, boxed(1.0, 1.0, 1.0, 1.0)));
        assert!(d.empty_objects(c).is_empty());
        assert!(d.update(e, Region::empty()));
        assert_eq!(d.empty_objects(c), &[1]);
        assert!(d.remove(e));
        assert!(d.empty_objects(c).is_empty());
        d.check().expect("consistent");
    }

    #[test]
    fn sharded_compact_reclaims_and_remaps() {
        let mut d = db(4);
        let c = d.collection("objs");
        let refs: Vec<ObjectRef> = (0..20)
            .map(|i| {
                let t = (i * 13 % 19) as f64 * 5.0;
                d.insert(c, boxed(t, 95.0 - t, 3.0, 3.0))
            })
            .collect();
        // churn: migrate some, remove some
        assert!(d.update(refs[3], boxed(1.0, 1.0, 2.0, 2.0)));
        assert!(d.update(refs[8], boxed(96.0, 96.0, 2.0, 2.0)));
        for &i in &[0usize, 5, 9, 14] {
            assert!(d.remove(refs[i]));
        }
        let survivor_region = d.region(refs[8]).clone();
        let report = d.compact();
        assert_eq!(report.slots_reclaimed, 4);
        assert_eq!(d.collection_len(c), 16);
        assert_eq!(d.live_len(c), 16);
        assert_eq!(report.fix_up(refs[0]), None);
        let r8 = report.fix_up(refs[8]).expect("survivor");
        assert!(d.region(r8).same_set(&survivor_region));
        d.check().expect("consistent after compaction");
        // every shard is tombstone-free
        for s in 0..d.n_shards() {
            assert_eq!(d.shard(s).collection_len(c), d.shard(s).live_len(c));
        }
    }

    #[test]
    fn logical_epoch_tracks_effective_mutations() {
        let mut d = db(3);
        let c = d.collection("objs");
        assert_eq!(StoreView::epoch(&d, c), 0);
        let a = d.insert(c, boxed(5.0, 5.0, 2.0, 2.0));
        let b = d.insert(c, boxed(90.0, 90.0, 2.0, 2.0));
        assert_eq!(StoreView::epoch(&d, c), 2);
        // A migrating update bumps the LOGICAL epoch once, even though
        // two shards mutated underneath.
        assert!(d.update(b, boxed(2.0, 2.0, 2.0, 2.0)));
        assert_eq!(StoreView::epoch(&d, c), 3);
        assert!(d.remove(a));
        assert_eq!(StoreView::epoch(&d, c), 4);
        // Ineffective mutations leave the epoch alone.
        assert!(!d.remove(a));
        assert!(!d.update(a, boxed(1.0, 1.0, 1.0, 1.0)));
        assert_eq!(StoreView::epoch(&d, c), 4);
        d.compact();
        assert_eq!(StoreView::epoch(&d, c), 5);
        // Unrelated collections are isolated.
        let other = d.collection("other");
        d.insert(other, boxed(1.0, 1.0, 1.0, 1.0));
        assert_eq!(StoreView::epoch(&d, other), 1);
        assert_eq!(
            StoreView::epoch(&d, c),
            5,
            "a mutation elsewhere leaves c alone"
        );
    }

    #[test]
    fn router_prunes_on_selective_queries() {
        // A "district" query: the known containment region covers only
        // the low corner of the universe, so the X row's corner query
        // proves the high-z shards disjoint. (Centered or overlap-only
        // queries legitimately cannot prune — an overlap constraint
        // bounds no box center.)
        let mut d = db(6);
        let xs = d.collection("xs");
        let ys = d.collection("ys");
        for i in 0..14 {
            let t = (i * 19 % 87) as f64;
            d.insert(xs, boxed(t, t * 0.7, 8.0, 9.0));
            d.insert(ys, boxed(t + 3.0, t * 0.7 + 2.0, 6.0, 5.0));
        }
        let sys = scq_core::parse_system("X & Y != 0; X <= W").unwrap();
        let q = scq_engine::Query::new(sys)
            .known("W", boxed(0.0, 0.0, 35.0, 35.0))
            .from_collection("X", xs)
            .from_collection("Y", ys);
        let r = scq_engine::bbox_execute(&d, &q, IndexKind::RTree).unwrap();
        assert!(
            r.stats.shards_pruned > 0,
            "the known-region containment row must prune shards: {}",
            r.stats
        );
    }

    /// The district query of the map workload (seed 1120, 120 roads) on
    /// 8 in-process shards, pinned exactly: the router prunes 6 shards,
    /// the selectivity-planned order checks 13 rows, the answer equals
    /// the unsharded one, and the happy path counts no breaker trip.
    #[test]
    fn district_query_pins_pruning_and_planned_row_checks() {
        use scq_engine::workload::{map_workload, MapParams};
        let universe = AaBox::new([0.0, 0.0], [1000.0, 1000.0]);
        let mut plain = SpatialDatabase::new(universe);
        let w = map_workload(
            &mut plain,
            1120,
            &MapParams {
                n_states: 8,
                n_towns: 30,
                n_roads: 120,
                useful_road_fraction: 0.05,
            },
        );
        let mut d = ShardedDatabase::new(universe, 8);
        for coll in plain.collections() {
            assert_eq!(d.collection(plain.collection_name(coll)), coll);
            for index in plain.object_indices(coll) {
                let obj = ObjectRef {
                    collection: coll,
                    index,
                };
                d.insert(coll, plain.region(obj).clone());
            }
        }
        let sys = scq_core::parse_system("T <= W; R & T != 0").unwrap();
        let q = scq_engine::Query::new(sys)
            .known("W", boxed(100.0, 100.0, 260.0, 260.0))
            .from_collection("T", w.towns)
            .from_collection("R", w.roads);

        let r = scq_engine::bbox_execute(&d, &q, IndexKind::RTree).unwrap();
        let mut got = r.solutions.clone();
        let mut want = scq_engine::naive_execute(&plain, &q).unwrap().solutions;
        got.sort();
        want.sort();
        assert_eq!(got, want, "the sharded answer is the unsharded one");
        assert_eq!(r.stats.shards_pruned, 6, "{}", r.stats);
        let trips: usize = (0..d.n_shards())
            .flat_map(|s| d.backend(s).health())
            .map(|h| h.stats.breaker_trips)
            .sum();
        assert_eq!(trips, 0);

        let plan = scq_engine::order_by_selectivity(&d, &q, IndexKind::RTree).unwrap();
        let mut planned = q.clone();
        planned.order = Some(plan.order);
        let p = scq_engine::bbox_execute_compiled(
            &d,
            &planned,
            &plan.plan,
            IndexKind::RTree,
            scq_engine::ExecOptions::all(),
        )
        .unwrap();
        assert_eq!(p.solutions.len(), r.solutions.len());
        assert_eq!(p.stats.exact_row_checks, 13, "{}", p.stats);
    }

    #[test]
    fn single_shard_degenerates_to_plain_database() {
        let mut d = db(1);
        let mut plain = SpatialDatabase::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
        let c = d.collection("objs");
        let pc = plain.collection("objs");
        for i in 0..25 {
            let t = (i * 17 % 23) as f64 * 4.0;
            d.insert(c, boxed(t, t / 2.0, 3.0, 4.0));
            plain.insert(pc, boxed(t, t / 2.0, 3.0, 4.0));
        }
        let q = CornerQuery::unconstrained().and_overlaps(&Bbox::new([10.0, 5.0], [40.0, 30.0]));
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let mut a = Vec::new();
            let report = d.query_collection(c, kind, &q, &mut a);
            assert_eq!(report.shards_pruned, 0, "one shard, nothing to prune");
            let mut b = Vec::new();
            plain.query_collection(pc, kind, &q, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{kind:?}");
        }
    }
}
