//! One churn generator, one way to apply it, and one model.
//!
//! [`op_strategy`] draws scripted mutations; [`Op::apply`] runs one
//! against any [`Store`] — the unsharded database, a sharded one over
//! any backend, or the [`Model`] — and reports its [`Effect`], so two
//! stores fed the same script can be compared op by op
//! ([`apply_both`]).
//!
//! The [`Model`] holds the op semantics and nothing else: per
//! collection, one `Option<Region>` per slot. Its reference answers
//! come from [`scq_engine::naive_execute`] over a database rebuilt from
//! it by insert-then-remove ([`Model::rebuild`]), so no update,
//! compaction, plan or cache path decides what is right.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use scq_bbox::CornerQuery;
use scq_engine::snapshot::{load, save};
use scq_engine::{CollectionId, ObjectRef, SpatialDatabase};
use scq_region::{AaBox, Region};
use scq_shard::{ShardBackend, ShardedDatabase};

/// One scripted mutation. `coll` picks a collection by position in the
/// slice handed to [`Op::apply`] and `slot` a slot by value, both
/// modulo the current count, so any script applies to any store state.
/// A slot op on an empty collection does nothing.
#[derive(Clone, Debug)]
pub enum Op {
    /// Inserts a box.
    Insert {
        /// Collection pick.
        coll: usize,
        /// `[x, y, w, h]`: the box `[x, x + w] × [y, y + h]`.
        rect: [f64; 4],
    },
    /// Inserts the empty region.
    InsertEmpty {
        /// Collection pick.
        coll: usize,
    },
    /// Removes a slot (a tombstone stays one).
    Remove {
        /// Collection pick.
        coll: usize,
        /// Slot pick.
        slot: u16,
    },
    /// Moves a slot to a box — across shards when the box's center
    /// lands in another z-range.
    Update {
        /// Collection pick.
        coll: usize,
        /// Slot pick.
        slot: u16,
        /// `[x, y, w, h]`: the box `[x, x + w] × [y, y + h]`.
        rect: [f64; 4],
    },
    /// Replaces a slot's region with the empty region.
    UpdateToEmpty {
        /// Collection pick.
        coll: usize,
        /// Slot pick.
        slot: u16,
    },
    /// Reclaims every tombstone.
    Compact,
    /// Saves a snapshot and reloads the store from it.
    SnapshotRoundTrip,
}

/// Boxes inside the `[0, 100]²` universe, up to 30 on a side.
fn rect() -> impl Strategy<Value = [f64; 4]> {
    (0.0..70.0, 0.0..70.0, 0.0..30.0, 0.0..30.0).prop_map(|(x, y, w, h)| [x, y, w, h])
}

/// Inserts of a box into one of `n_colls` collections: the fill a
/// churn starts from.
pub fn insert_strategy(n_colls: usize) -> BoxedStrategy<Op> {
    (0..n_colls, rect())
        .prop_map(|(coll, rect)| Op::Insert { coll, rect })
        .boxed()
}

/// Mutations over `n_colls` collections inside the `[0, 100]²`
/// universe. Updates are long moves, so a sharded store migrates
/// objects between shards constantly.
pub fn op_strategy(n_colls: usize) -> BoxedStrategy<Op> {
    let coll = move || 0..n_colls;
    prop_oneof![
        5 => insert_strategy(n_colls),
        1 => coll().prop_map(|coll| Op::InsertEmpty { coll }),
        3 => (coll(), 0u16..u16::MAX).prop_map(|(coll, slot)| Op::Remove { coll, slot }),
        3 => (coll(), 0u16..u16::MAX, rect())
            .prop_map(|(coll, slot, rect)| Op::Update { coll, slot, rect }),
        1 => (coll(), 0u16..u16::MAX).prop_map(|(coll, slot)| Op::UpdateToEmpty { coll, slot }),
        1 => Just(Op::Compact),
        1 => Just(Op::SnapshotRoundTrip),
    ]
    .boxed()
}

/// What one applied [`Op`] reported. Two stores in lockstep report the
/// same effect for every op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// An insert and the reference it handed out.
    Inserted(ObjectRef),
    /// A remove, and whether the slot was live.
    Removed(bool),
    /// An update, and whether the slot was live.
    Updated(bool),
    /// A compaction's per-collection old-slot → new-slot remap.
    Compacted(Vec<Vec<Option<usize>>>),
    /// A snapshot round trip.
    RoundTripped,
    /// A slot op on an empty collection.
    Nothing,
}

/// A store the churn applies to, with the mutation semantics of
/// [`SpatialDatabase`]: slots are handed out in insertion order, never
/// reused until a compaction, which keeps live slots in order.
pub trait Store {
    /// Creates a collection.
    fn create(&mut self, name: &str) -> CollectionId;
    /// Slots of a collection, tombstones included.
    fn slots(&self, coll: CollectionId) -> usize;
    /// Inserts a region.
    fn insert(&mut self, coll: CollectionId, region: Region<2>) -> ObjectRef;
    /// Tombstones a slot; `false` when it already was one.
    fn remove(&mut self, obj: ObjectRef) -> bool;
    /// Replaces a live slot's region; `false` (and no change) on a
    /// tombstone.
    fn update(&mut self, obj: ObjectRef, region: Region<2>) -> bool;
    /// Reclaims every tombstone and returns each collection's remap.
    fn compact(&mut self) -> Vec<Vec<Option<usize>>>;
    /// Saves a snapshot and replaces the store's contents with its
    /// reload.
    fn round_trip(&mut self);
}

/// Creates the named collections in order.
pub fn create_all(store: &mut impl Store, names: &[&str]) -> Vec<CollectionId> {
    names.iter().map(|name| store.create(name)).collect()
}

impl Op {
    /// Applies the op to `store`, whose collections are `colls`.
    pub fn apply<S: Store>(&self, store: &mut S, colls: &[CollectionId]) -> Effect {
        let coll = |pick: usize| colls[pick % colls.len()];
        let target = |store: &dyn Store, pick: usize, slot: u16| {
            let collection = coll(pick);
            let slots = store.slots(collection);
            (slots > 0).then(|| ObjectRef {
                collection,
                index: slot as usize % slots,
            })
        };
        match *self {
            Op::Insert { coll: c, rect } => Effect::Inserted(store.insert(coll(c), boxed(rect))),
            Op::InsertEmpty { coll: c } => Effect::Inserted(store.insert(coll(c), Region::empty())),
            Op::Remove { coll: c, slot } => match target(store, c, slot) {
                Some(obj) => Effect::Removed(store.remove(obj)),
                None => Effect::Nothing,
            },
            Op::Update {
                coll: c,
                slot,
                rect,
            } => match target(store, c, slot) {
                Some(obj) => Effect::Updated(store.update(obj, boxed(rect))),
                None => Effect::Nothing,
            },
            Op::UpdateToEmpty { coll: c, slot } => match target(store, c, slot) {
                Some(obj) => Effect::Updated(store.update(obj, Region::empty())),
                None => Effect::Nothing,
            },
            Op::Compact => Effect::Compacted(store.compact()),
            Op::SnapshotRoundTrip => {
                store.round_trip();
                Effect::RoundTripped
            }
        }
    }
}

/// Applies `op` to both stores and asserts they report the same
/// effect: the same reference handed out, the same liveness seen, the
/// same compaction remap.
pub fn apply_both(a: &mut impl Store, b: &mut impl Store, colls: &[CollectionId], op: &Op) {
    let ea = op.apply(a, colls);
    let eb = op.apply(b, colls);
    assert_eq!(ea, eb, "stores diverged on {op:?}");
}

fn boxed([x, y, w, h]: [f64; 4]) -> Region<2> {
    Region::from_box(AaBox::new([x, y], [x + w, y + h]))
}

impl Store for SpatialDatabase<2> {
    fn create(&mut self, name: &str) -> CollectionId {
        SpatialDatabase::collection(self, name)
    }

    fn slots(&self, coll: CollectionId) -> usize {
        SpatialDatabase::collection_len(self, coll)
    }

    fn insert(&mut self, coll: CollectionId, region: Region<2>) -> ObjectRef {
        SpatialDatabase::insert(self, coll, region)
    }

    fn remove(&mut self, obj: ObjectRef) -> bool {
        SpatialDatabase::remove(self, obj)
    }

    fn update(&mut self, obj: ObjectRef, region: Region<2>) -> bool {
        SpatialDatabase::update(self, obj, region)
    }

    fn compact(&mut self) -> Vec<Vec<Option<usize>>> {
        SpatialDatabase::compact(self).remap
    }

    fn round_trip(&mut self) {
        *self = load(&save(self)).expect("snapshot reloads");
    }
}

impl<B: ShardBackend> Store for ShardedDatabase<B> {
    fn create(&mut self, name: &str) -> CollectionId {
        ShardedDatabase::collection(self, name)
    }

    fn slots(&self, coll: CollectionId) -> usize {
        ShardedDatabase::collection_len(self, coll)
    }

    fn insert(&mut self, coll: CollectionId, region: Region<2>) -> ObjectRef {
        ShardedDatabase::insert(self, coll, region)
    }

    fn remove(&mut self, obj: ObjectRef) -> bool {
        ShardedDatabase::remove(self, obj)
    }

    fn update(&mut self, obj: ObjectRef, region: Region<2>) -> bool {
        ShardedDatabase::update(self, obj, region)
    }

    fn compact(&mut self) -> Vec<Vec<Option<usize>>> {
        ShardedDatabase::compact(self).remap
    }

    /// Through a snapshot directory, restored in place: every backend
    /// (a shard process, for a remote one) swallows its own stream.
    fn round_trip(&mut self) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "scq_testkit_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        scq_shard::save_to_dir(self, &dir).expect("save the snapshot");
        let reloaded = scq_shard::reload_from_dir(self, &dir);
        std::fs::remove_dir_all(&dir).ok();
        reloaded.expect("reload the snapshot in place");
    }
}

/// The reference store: per collection, one `Option<Region>` per slot,
/// `None` for a tombstone. No index, plan or cache.
#[derive(Debug)]
pub struct Model {
    universe: AaBox<2>,
    collections: Vec<(String, Vec<Option<Region<2>>>)>,
}

impl Model {
    /// An empty model over `universe`.
    pub fn new(universe: AaBox<2>) -> Model {
        Model {
            universe,
            collections: Vec::new(),
        }
    }

    /// Live objects in a collection.
    pub fn live_len(&self, coll: CollectionId) -> usize {
        self.collections[coll.0].1.iter().flatten().count()
    }

    /// The live slots whose bounding box matches `q`, ascending: what
    /// every index must answer.
    pub fn corner_answer(&self, coll: CollectionId, q: &CornerQuery<2>) -> Vec<u64> {
        self.collections[coll.0]
            .1
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.as_ref().is_some_and(|r| q.matches(&r.bbox())))
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// A fresh database holding the model: every slot inserted in order
    /// (a tombstone as the empty region), then the tombstones removed.
    /// Slot numbers match the model's, and no update or compaction path
    /// runs.
    pub fn rebuild(&self) -> SpatialDatabase<2> {
        let mut db = SpatialDatabase::new(self.universe);
        for (name, slots) in &self.collections {
            let coll = db.collection(name);
            let refs: Vec<ObjectRef> = slots
                .iter()
                .map(|slot| db.insert(coll, slot.clone().unwrap_or_else(Region::empty)))
                .collect();
            for (obj, slot) in refs.into_iter().zip(slots) {
                if slot.is_none() {
                    db.remove(obj);
                }
            }
        }
        db
    }

    fn slot_mut(&mut self, obj: ObjectRef) -> &mut Option<Region<2>> {
        &mut self.collections[obj.collection.0].1[obj.index]
    }
}

impl Store for Model {
    fn create(&mut self, name: &str) -> CollectionId {
        self.collections.push((name.to_owned(), Vec::new()));
        CollectionId(self.collections.len() - 1)
    }

    fn slots(&self, coll: CollectionId) -> usize {
        self.collections[coll.0].1.len()
    }

    fn insert(&mut self, coll: CollectionId, region: Region<2>) -> ObjectRef {
        let slots = &mut self.collections[coll.0].1;
        slots.push(Some(region));
        ObjectRef {
            collection: coll,
            index: slots.len() - 1,
        }
    }

    fn remove(&mut self, obj: ObjectRef) -> bool {
        self.slot_mut(obj).take().is_some()
    }

    fn update(&mut self, obj: ObjectRef, region: Region<2>) -> bool {
        match self.slot_mut(obj) {
            Some(old) => {
                *old = region;
                true
            }
            None => false,
        }
    }

    fn compact(&mut self) -> Vec<Vec<Option<usize>>> {
        self.collections
            .iter_mut()
            .map(|(_, slots)| {
                let mut next = 0;
                let remap = slots
                    .iter()
                    .map(|slot| {
                        slot.as_ref().map(|_| {
                            next += 1;
                            next - 1
                        })
                    })
                    .collect();
                slots.retain(Option::is_some);
                remap
            })
            .collect()
    }

    fn round_trip(&mut self) {}
}
