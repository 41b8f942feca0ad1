//! The write-through mirror of one remote shard.
//!
//! Authority: **the router's copy of a shard's slots** — every slot's
//! region, bounding box and liveness, and every collection's mutation
//! epoch. The executors bind `&Region` out of a [`Mirror`] exactly as
//! they would out of a local database, so the read surface of
//! [`crate::RemoteShard`] never crosses the wire.
//!
//! Only three things change a mirror, and each validates before it
//! touches anything: committing a decoded snapshot, applying a write
//! the shard acknowledged (the shard's answer must agree with the
//! mirror's slot numbering and liveness), and applying a compaction
//! remap the shard answered. Only two things compare it with a shard:
//! the `STAT` census and the epochs. A disagreement is returned to the
//! replica set to report — it is never repaired here.

use std::collections::HashMap;

use scq_bbox::Bbox;
use scq_engine::{CollectionId, ObjectRef, SpatialDatabase};
use scq_region::Region;

/// One collection's mirrored slots. Read through [`Mirror::coll`];
/// only [`Mirror`] changes them.
#[derive(Clone, Debug, Default)]
pub(crate) struct MirrorCollection {
    name: String,
    pub(crate) regions: Vec<Region<2>>,
    pub(crate) bboxes: Vec<Bbox<2>>,
    pub(crate) live: Vec<bool>,
    pub(crate) live_count: usize,
    /// The mirror's copy of the shard's per-collection mutation epoch,
    /// bumped on every effective write-through so it stays in lockstep
    /// with the shard process.
    pub(crate) epoch: u64,
}

/// The router-side copy of one shard's collections.
#[derive(Default)]
pub(crate) struct Mirror {
    collections: Vec<MirrorCollection>,
    by_name: HashMap<String, usize>,
}

/// Why a compaction remap was refused: applying it would make the
/// mirror describe slots the shard does not hold. `collection` is a
/// collection id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RemapError {
    /// The remap covers a different number of collections.
    CollectionCount { shard: usize, mirror: usize },
    /// One collection's remap covers a different number of slots.
    SlotCount {
        collection: usize,
        shard: usize,
        mirror: usize,
    },
    /// A live slot maps to `None`: its object would silently vanish.
    LiveSlotDropped { collection: usize, slot: usize },
    /// A tombstone maps to a new slot: a removed object would return.
    TombstoneRevived { collection: usize, slot: usize },
    /// A slot maps past the end of the compacted collection.
    TargetOutOfRange { collection: usize, target: u64 },
    /// Two slots map to the same new slot: one region would be lost.
    DuplicateTarget { collection: usize, target: u64 },
}

impl Mirror {
    /// Replaces the mirror with a decoded snapshot's contents. `epochs`
    /// are the shard process's own, read after it loaded the same
    /// stream, so the lockstep check holds from the first mutation on.
    /// When the shard could not be asked (`None`), every epoch instead
    /// advances strictly past the previous generation's (matched by
    /// name), so no epoch-keyed cache entry taken before the reload
    /// stays addressable.
    pub(crate) fn commit(&mut self, db: &SpatialDatabase<2>, epochs: Option<&[u64]>) {
        let old_epochs: HashMap<&str, u64> = self
            .collections
            .iter()
            .map(|c| (c.name.as_str(), c.epoch))
            .collect();
        let collections: Vec<MirrorCollection> = db
            .collections()
            .map(|coll| {
                let name = db.collection_name(coll).to_owned();
                let epoch = match epochs {
                    Some(epochs) => epochs.get(coll.0).copied().unwrap_or(0),
                    None => old_epochs.get(name.as_str()).map_or(0, |&e| e + 1),
                };
                let mut m = MirrorCollection {
                    name,
                    live_count: db.live_len(coll),
                    epoch,
                    ..MirrorCollection::default()
                };
                for index in db.object_indices(coll) {
                    let obj = ObjectRef {
                        collection: coll,
                        index,
                    };
                    m.regions.push(db.region(obj).clone());
                    m.bboxes.push(db.bbox(obj));
                    m.live.push(db.is_live(obj));
                }
                m
            })
            .collect();
        self.by_name = collections
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        self.collections = collections;
    }

    /// Whether the mirror holds no collections at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.collections.is_empty()
    }

    pub(crate) fn collection_id(&self, name: &str) -> Option<CollectionId> {
        self.by_name.get(name).map(|&i| CollectionId(i))
    }

    /// One collection's slots, read-only.
    pub(crate) fn coll(&self, coll: CollectionId) -> &MirrorCollection {
        &self.collections[coll.0]
    }

    // ── write-through ───────────────────────────────────────────────

    /// Adds the collection the shard created as `id`, which must be
    /// the next id: shards number collections in lockstep with the
    /// router.
    pub(crate) fn create(&mut self, name: &str, id: CollectionId) -> Result<(), String> {
        let expected = self.collections.len();
        if id.0 != expected {
            return Err(format!(
                "numbered collection {name:?} as {} (expected {expected})",
                id.0
            ));
        }
        self.collections.push(MirrorCollection {
            name: name.to_owned(),
            ..MirrorCollection::default()
        });
        self.by_name.insert(name.to_owned(), id.0);
        Ok(())
    }

    /// Appends the region the shard stored in slot `local`, which must
    /// be the mirror's next slot.
    pub(crate) fn insert(
        &mut self,
        coll: CollectionId,
        local: usize,
        region: Region<2>,
    ) -> Result<(), String> {
        let m = &mut self.collections[coll.0];
        if local != m.regions.len() {
            return Err(format!(
                "handed out slot {local}, mirror expected {}",
                m.regions.len()
            ));
        }
        m.bboxes.push(region.bbox());
        m.regions.push(region);
        m.live.push(true);
        m.live_count += 1;
        m.epoch += 1;
        Ok(())
    }

    /// Tombstones slot `local` if the shard did (`removed`), which it
    /// must have exactly when the mirror holds the slot live.
    pub(crate) fn remove(
        &mut self,
        coll: CollectionId,
        local: usize,
        removed: bool,
    ) -> Result<(), String> {
        let m = &mut self.collections[coll.0];
        if removed != m.live[local] {
            return Err(format!(
                "liveness for slot {local} disagrees with the mirror"
            ));
        }
        if removed {
            m.live[local] = false;
            m.live_count -= 1;
            m.epoch += 1;
        }
        Ok(())
    }

    /// Replaces a live slot's region after the shard updated it.
    pub(crate) fn update(&mut self, coll: CollectionId, local: usize, region: Region<2>) {
        let m = &mut self.collections[coll.0];
        m.bboxes[local] = region.bbox();
        m.regions[local] = region;
        m.epoch += 1;
    }

    /// Applies a shard's compaction remap (per collection, old slot →
    /// new slot, `None` = dropped). The remap must be a bijection from
    /// the live slots onto the compacted slots that drops every
    /// tombstone; every collection is checked before any is touched, so
    /// a refused remap leaves the mirror exactly as it was. Compaction
    /// renumbers slots, so it advances every collection's epoch —
    /// exactly as the shard process does.
    pub(crate) fn remap(&mut self, remap: &[Vec<Option<u64>>]) -> Result<(), RemapError> {
        if remap.len() != self.collections.len() {
            return Err(RemapError::CollectionCount {
                shard: remap.len(),
                mirror: self.collections.len(),
            });
        }
        for (collection, (m, coll_remap)) in self.collections.iter().zip(remap).enumerate() {
            validate_remap(collection, m, coll_remap)?;
        }
        for (m, coll_remap) in self.collections.iter_mut().zip(remap) {
            let old_regions = std::mem::take(&mut m.regions);
            let mut regions = vec![Region::empty(); m.live_count];
            let mut bboxes = vec![Bbox::Empty; m.live_count];
            for ((region, bbox), new) in old_regions.into_iter().zip(&m.bboxes).zip(coll_remap) {
                if let Some(new) = *new {
                    regions[new as usize] = region;
                    bboxes[new as usize] = *bbox;
                }
            }
            m.regions = regions;
            m.bboxes = bboxes;
            m.live = vec![true; m.live_count];
            m.epoch += 1;
        }
        Ok(())
    }

    // ── comparison ──────────────────────────────────────────────────

    /// One line per disagreement between a shard process's `STAT`
    /// census (per collection: name, slots, live) and the mirror;
    /// empty when they agree.
    pub(crate) fn census_drift(&self, rows: &[(String, u64, u64)]) -> Vec<String> {
        if rows.len() != self.collections.len() {
            return vec![format!(
                "shard reports {} collections, mirror holds {}",
                rows.len(),
                self.collections.len()
            )];
        }
        rows.iter()
            .zip(&self.collections)
            .filter(|((name, slots, live), m)| {
                name != &m.name
                    || *slots as usize != m.regions.len()
                    || *live as usize != m.live_count
            })
            .map(|((_, slots, live), m)| {
                format!(
                    "mirror drift on {:?}: shard has {slots} slots / {live} live, \
                     mirror has {} / {}",
                    m.name,
                    m.regions.len(),
                    m.live_count
                )
            })
            .collect()
    }

    /// One line per collection whose mirrored epoch differs from the
    /// shard's (`epochs` in collection-id order); empty when they
    /// agree. A broken lockstep lets epoch-keyed caches above the
    /// backend serve stale answers.
    pub(crate) fn epoch_drift(&self, epochs: &[u64]) -> Vec<String> {
        self.collections
            .iter()
            .enumerate()
            .filter(|(i, m)| epochs.get(*i) != Some(&m.epoch))
            .map(|(i, m)| {
                format!(
                    "mirror epoch for {:?} is {}, shard reports {:?}: epoch lockstep broken",
                    m.name,
                    m.epoch,
                    epochs.get(i)
                )
            })
            .collect()
    }
}

/// Checks collection `collection`'s remap without applying it.
fn validate_remap(
    collection: usize,
    m: &MirrorCollection,
    remap: &[Option<u64>],
) -> Result<(), RemapError> {
    if remap.len() != m.regions.len() {
        return Err(RemapError::SlotCount {
            collection,
            shard: remap.len(),
            mirror: m.regions.len(),
        });
    }
    let mut taken = vec![false; m.live_count];
    for (slot, (&new, &live)) in remap.iter().zip(&m.live).enumerate() {
        let refused = match (new, live) {
            (None, false) => continue,
            (None, true) => RemapError::LiveSlotDropped { collection, slot },
            (Some(_), false) => RemapError::TombstoneRevived { collection, slot },
            (Some(target), true) => match taken.get_mut(target as usize) {
                Some(t) if !*t => {
                    *t = true;
                    continue;
                }
                Some(_) => RemapError::DuplicateTarget { collection, target },
                None => RemapError::TargetOutOfRange { collection, target },
            },
        };
        return Err(refused);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_region::AaBox;

    fn boxed(x: f64) -> Region<2> {
        Region::from_box(AaBox::new([x, x], [x + 1.0, x + 1.0]))
    }

    /// Collection 0 of four slots, slot 1 tombstoned, then collection 1
    /// of one live slot.
    fn mirror() -> Mirror {
        let mut m = Mirror::default();
        let (c, d) = (CollectionId(0), CollectionId(1));
        m.create("objs", c).unwrap();
        for (slot, x) in [0.0, 10.0, 20.0, 30.0].into_iter().enumerate() {
            m.insert(c, slot, boxed(x)).unwrap();
        }
        m.remove(c, 1, true).unwrap();
        m.create("more", d).unwrap();
        m.insert(d, 0, boxed(50.0)).unwrap();
        m
    }

    /// Everything a refused remap must leave untouched.
    fn state(m: &Mirror) -> Vec<(Vec<bool>, Vec<Bbox<2>>, usize, u64)> {
        let c = |c: &MirrorCollection| (c.live.clone(), c.bboxes.clone(), c.live_count, c.epoch);
        m.collections.iter().map(c).collect()
    }

    /// The refusal a remap earns, by name and fields.
    fn refusal(m: &mut Mirror, remap: &[Vec<Option<u64>>]) -> String {
        format!("{:?}", m.remap(remap).expect_err("remap must be refused"))
    }

    /// Each remap that would lose, revive or misplace an object is
    /// refused by name — including one whose fault is only in the
    /// second collection — and leaves every collection untouched.
    #[test]
    fn remap_that_would_lose_or_invent_an_object_is_refused_by_name() {
        let keep = vec![Some(0)];
        let cases = [
            (
                vec![Some(0), None, None, Some(1)],
                "LiveSlotDropped { collection: 0, slot: 2 }",
            ),
            (
                vec![Some(0), Some(1), Some(2), None],
                "TombstoneRevived { collection: 0, slot: 1 }",
            ),
            (
                vec![Some(0), None, Some(1), Some(1)],
                "DuplicateTarget { collection: 0, target: 1 }",
            ),
            (
                vec![Some(0), None, Some(1), Some(3)],
                "TargetOutOfRange { collection: 0, target: 3 }",
            ),
            (
                vec![Some(0), None, Some(1)],
                "SlotCount { collection: 0, shard: 3, mirror: 4 }",
            ),
        ];
        for (remap, want) in cases {
            let mut m = mirror();
            let before = state(&m);
            assert_eq!(refusal(&mut m, &[remap, keep.clone()]), want);
            assert_eq!(state(&m), before, "{want} touched the mirror");
        }
        let mut m = mirror();
        let before = state(&m);
        let valid = vec![Some(0), None, Some(1), Some(2)];
        let dropped = refusal(&mut m, &[valid, vec![None]]);
        assert_eq!(dropped, "LiveSlotDropped { collection: 1, slot: 0 }");
        let short = refusal(&mut m, &[]);
        assert_eq!(short, "CollectionCount { shard: 0, mirror: 2 }");
        assert_eq!(state(&m), before);
    }

    #[test]
    fn valid_remap_shifts_live_slots_and_advances_the_epoch() {
        let mut m = mirror();
        let c = CollectionId(0);
        let epoch = m.coll(c).epoch;
        // Live slots 0, 2, 3 land on 0, 2, 1: any bijection is honoured.
        m.remap(&[vec![Some(0), None, Some(2), Some(1)], vec![Some(0)]])
            .unwrap();
        let objs = m.coll(c);
        assert_eq!((objs.regions.len(), objs.live_count), (3, 3));
        assert_eq!(objs.live, vec![true; 3]);
        for (slot, x) in [(0, 0.0), (1, 30.0), (2, 20.0)] {
            assert!(objs.regions[slot].same_set(&boxed(x)), "slot {slot}");
            assert_eq!(objs.bboxes[slot], boxed(x).bbox(), "slot {slot}");
        }
        assert_eq!(objs.epoch, epoch + 1);
        let census = [("objs".into(), 3, 3), ("more".into(), 1, 1)];
        assert!(m.census_drift(&census).is_empty());
    }
}
