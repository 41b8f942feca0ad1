//! Binary snapshots of a spatial database.
//!
//! A compact, versioned, self-describing format:
//!
//! ```text
//! magic "SCQS" | u16 version | u16 dimension K
//! universe (2K f64 little-endian)
//! u32 collection count
//! per collection:
//!   u16 name length | name bytes (UTF-8)
//!   u32 slot count              (tombstones included)
//!   per slot:
//!     u8 flags                  (bit 0 = live)
//!     u32 fragment count | fragments (2K f64 little-endian)
//! ```
//!
//! Each slot's liveness is serialized so a mutated database round-trips
//! exactly: tombstoned slots keep their position (hence every
//! [`crate::ObjectRef`] keeps its meaning) and stay out of the rebuilt
//! indexes. The format version is 2, the only one read or written; any
//! other is [`SnapshotError::BadVersion`].
//!
//! Indexes are *not* serialized — they are derived data and are rebuilt
//! on load (deterministically, since insertion order is preserved).
//! Decoding validates the header, the dimension and all counts against
//! the remaining buffer, so truncated or corrupted input yields a
//! [`SnapshotError`] instead of a panic or a garbage database; a buffer
//! with bytes left over after the declared content is rejected as
//! [`SnapshotError::TrailingData`] rather than silently accepted.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use scq_region::{AaBox, FragmentError, Region};

use crate::database::SpatialDatabase;

const MAGIC: &[u8; 4] = b"SCQS";
/// The format version, written and the only one loaded.
const VERSION: u16 = 2;

/// Errors produced by [`load`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The snapshot was written for a different dimension.
    DimensionMismatch {
        /// Dimension recorded in the snapshot.
        found: u16,
        /// Dimension requested by the caller.
        expected: u16,
    },
    /// The buffer ended before the declared content.
    Truncated,
    /// A collection name was not valid UTF-8.
    BadName,
    /// A coordinate was not finite.
    BadCoordinate,
    /// A region's fragments were empty or overlapped: no region stores
    /// that.
    BadRegion(FragmentError),
    /// Bytes remained after the last declared collection — the payload
    /// is longer than its own header admits (corruption or a
    /// mis-framed write), so it is rejected rather than silently
    /// truncated.
    TrailingData {
        /// Number of unconsumed bytes.
        bytes: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a database snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::DimensionMismatch { found, expected } => {
                write!(f, "snapshot is {found}-dimensional, expected {expected}")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadName => write!(f, "collection name is not UTF-8"),
            SnapshotError::BadCoordinate => write!(f, "non-finite coordinate"),
            SnapshotError::BadRegion(e) => write!(f, "{e}"),
            SnapshotError::TrailingData { bytes } => {
                write!(f, "{bytes} trailing bytes after the last collection")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<FragmentError> for SnapshotError {
    fn from(e: FragmentError) -> Self {
        match e {
            FragmentError::Truncated => SnapshotError::Truncated,
            FragmentError::NonFinite => SnapshotError::BadCoordinate,
            e => SnapshotError::BadRegion(e),
        }
    }
}

/// Serializes the database (universe, collections, regions, per-slot
/// liveness).
pub fn save<const K: usize>(db: &SpatialDatabase<K>) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(K as u16);
    // universe
    for c in db.universe().lo().iter().chain(db.universe().hi().iter()) {
        buf.put_f64_le(*c);
    }
    let collections: Vec<_> = db.collections().collect();
    buf.put_u32_le(collections.len() as u32);
    for coll in collections {
        let name = db.collection_name(coll);
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name.as_bytes());
        let n = db.collection_len(coll);
        buf.put_u32_le(n as u32);
        for index in db.object_indices(coll) {
            let obj = crate::database::ObjectRef {
                collection: coll,
                index,
            };
            let region = db.region(obj);
            buf.put_u8(db.is_live(obj) as u8);
            buf.put_u32_le(region.boxes().len() as u32);
            for b in region.boxes() {
                for c in b.lo().iter().chain(b.hi().iter()) {
                    buf.put_f64_le(*c);
                }
            }
        }
    }
    buf.freeze()
}

fn need(buf: &impl Buf, n: usize) -> Result<(), SnapshotError> {
    if buf.remaining() < n {
        Err(SnapshotError::Truncated)
    } else {
        Ok(())
    }
}

fn get_coords<const K: usize>(buf: &mut impl Buf) -> Result<([f64; K], [f64; K]), SnapshotError> {
    need(buf, 16 * K)?;
    let mut lo = [0.0; K];
    let mut hi = [0.0; K];
    for c in lo.iter_mut().chain(hi.iter_mut()) {
        let v = buf.get_f64_le();
        if !v.is_finite() {
            return Err(SnapshotError::BadCoordinate);
        }
        *c = v;
    }
    Ok((lo, hi))
}

/// Reconstructs a database from a snapshot, rebuilding all indexes.
pub fn load<const K: usize>(data: &[u8]) -> Result<SpatialDatabase<K>, SnapshotError> {
    let mut buf = data;
    need(&buf, 8)?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let dim = buf.get_u16_le();
    if dim as usize != K {
        return Err(SnapshotError::DimensionMismatch {
            found: dim,
            expected: K as u16,
        });
    }
    let (ulo, uhi) = get_coords::<K>(&mut buf)?;
    let mut db = SpatialDatabase::new(AaBox::new(ulo, uhi));
    need(&buf, 4)?;
    let n_coll = buf.get_u32_le();
    for _ in 0..n_coll {
        need(&buf, 2)?;
        let name_len = buf.get_u16_le() as usize;
        need(&buf, name_len)?;
        let mut name_bytes = vec![0u8; name_len];
        buf.copy_to_slice(&mut name_bytes);
        let name = String::from_utf8(name_bytes).map_err(|_| SnapshotError::BadName)?;
        let coll = db.collection(&name);
        need(&buf, 4)?;
        let n_obj = buf.get_u32_le();
        for _ in 0..n_obj {
            need(&buf, 1)?;
            let live = buf.get_u8() & 1 != 0;
            let region = Region::decode_fragments(&mut buf)?;
            db.restore_slot(coll, region, live);
        }
    }
    if buf.has_remaining() {
        return Err(SnapshotError::TrailingData {
            bytes: buf.remaining(),
        });
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{bbox_execute, naive_execute};
    use crate::query::{IndexKind, Query};
    use crate::workload::{map_workload, MapParams};
    use scq_core::parse_system;

    fn sample_db() -> SpatialDatabase<2> {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
        map_workload(
            &mut db,
            3,
            &MapParams {
                n_states: 4,
                n_towns: 10,
                n_roads: 20,
                useful_road_fraction: 0.2,
            },
        );
        // include an empty region and a multi-fragment region
        let misc = db.collection("misc");
        db.insert(misc, Region::empty());
        db.insert(
            misc,
            Region::from_boxes([
                AaBox::new([1.0, 1.0], [2.0, 2.0]),
                AaBox::new([5.0, 5.0], [6.0, 6.0]),
            ]),
        );
        db
    }

    #[test]
    fn round_trip_preserves_everything() {
        let db = sample_db();
        let bytes = save(&db);
        let loaded: SpatialDatabase<2> = load(&bytes).unwrap();
        assert_eq!(db.collections().count(), loaded.collections().count());
        for coll in db.collections() {
            let name = db.collection_name(coll);
            let lcoll = loaded.collection_id(name).unwrap();
            assert_eq!(db.collection_len(coll), loaded.collection_len(lcoll));
            for index in db.object_indices(coll) {
                let a = db.region(crate::database::ObjectRef {
                    collection: coll,
                    index,
                });
                let b = loaded.region(crate::database::ObjectRef {
                    collection: lcoll,
                    index,
                });
                assert!(a.same_set(b), "object {index} of {name} differs");
            }
            assert_eq!(db.empty_objects(coll), loaded.empty_objects(lcoll));
        }
    }

    #[test]
    fn queries_agree_after_reload() {
        let db = sample_db();
        let loaded: SpatialDatabase<2> = load(&save(&db)).unwrap();
        let sys = parse_system("T <= K; T != 0").unwrap();
        let towns = db.collection_id("towns").unwrap();
        let region = Region::from_box(AaBox::new([0.0, 0.0], [500.0, 500.0]));
        let q = Query::new(sys.clone())
            .known("K", region.clone())
            .from_collection("T", towns);
        let q2 = Query::new(sys)
            .known("K", region)
            .from_collection("T", loaded.collection_id("towns").unwrap());
        let a = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
        let b = bbox_execute(&loaded, &q2, IndexKind::RTree).unwrap();
        let n = naive_execute(&loaded, &q2).unwrap();
        assert_eq!(a.stats.solutions, b.stats.solutions);
        assert_eq!(n.stats.solutions, b.stats.solutions);
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let db = sample_db();
        let bytes = save(&db);
        // bad magic
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert_eq!(load::<2>(&bad).err(), Some(SnapshotError::BadMagic));
        // bad version
        let mut bad = bytes.to_vec();
        bad[4] = 99;
        assert!(matches!(
            load::<2>(&bad).err(),
            Some(SnapshotError::BadVersion(_))
        ));
        // wrong dimension
        assert!(matches!(
            load::<3>(&bytes).err(),
            Some(SnapshotError::DimensionMismatch {
                found: 2,
                expected: 3
            })
        ));
        // truncation at every prefix must error, never panic
        for cut in 0..bytes.len().min(200) {
            assert!(load::<2>(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        assert!(load::<2>(&bytes[..bytes.len() - 3]).is_err());
        // non-finite coordinate
        let mut bad = bytes.to_vec();
        let pos = 8; // first universe coordinate
        bad[pos..pos + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(load::<2>(&bad).err(), Some(SnapshotError::BadCoordinate));
    }

    #[test]
    fn fragments_round_trip_unchanged_and_an_overlap_is_named() {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [10.0, 10.0]));
        let c = db.collection("c");
        let obj = db.insert(
            c,
            Region::from_boxes([
                AaBox::new([0.0, 0.0], [2.0, 2.0]),
                AaBox::new([5.0, 5.0], [6.0, 6.0]),
            ]),
        );
        let bytes = save(&db);
        let loaded: SpatialDatabase<2> = load(&bytes).unwrap();
        assert_eq!(loaded.region(obj).boxes(), db.region(obj).boxes());
        // The last fragment is the payload's last 32 bytes: move it
        // onto the first. Loading names the overlap; it does not union.
        let mut bad = bytes.to_vec();
        let at = bad.len() - 32;
        for (i, v) in [1.0f64, 1.0, 3.0, 3.0].iter().enumerate() {
            bad[at + 8 * i..at + 8 * i + 8].copy_from_slice(&v.to_le_bytes());
        }
        assert_eq!(
            load::<2>(&bad).err(),
            Some(SnapshotError::BadRegion(FragmentError::Overlap))
        );
    }

    #[test]
    fn v2_round_trips_tombstones() {
        let mut db = sample_db();
        let towns = db.collection_id("towns").unwrap();
        let roads = db.collection_id("roads").unwrap();
        let t = crate::database::ObjectRef {
            collection: towns,
            index: 1,
        };
        let r = crate::database::ObjectRef {
            collection: roads,
            index: 0,
        };
        let t2 = crate::database::ObjectRef {
            collection: towns,
            index: 2,
        };
        assert!(db.remove(t));
        assert!(db.remove(r));
        assert!(db.update(
            t2,
            Region::from_box(AaBox::new([400.0, 400.0], [410.0, 410.0]))
        ));
        let loaded: SpatialDatabase<2> = load(&save(&db)).unwrap();
        for coll in db.collections() {
            let name = db.collection_name(coll);
            let lcoll = loaded.collection_id(name).unwrap();
            assert_eq!(db.collection_len(coll), loaded.collection_len(lcoll));
            assert_eq!(db.live_len(coll), loaded.live_len(lcoll), "{name}");
            for index in db.object_indices(coll) {
                let a = crate::database::ObjectRef {
                    collection: coll,
                    index,
                };
                let b = crate::database::ObjectRef {
                    collection: lcoll,
                    index,
                };
                assert_eq!(db.is_live(a), loaded.is_live(b), "{name}[{index}]");
                assert!(db.region(a).same_set(loaded.region(b)), "{name}[{index}]");
            }
        }
        crate::integrity::check(&loaded).expect("reloaded database is consistent");
        // index answers agree between the mutated original and the reload
        let probe = scq_bbox::Bbox::new([0.0, 0.0], [500.0, 500.0]);
        let q = scq_bbox::CornerQuery::unconstrained().and_contained_in(&probe);
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            db.query_collection(towns, kind, &q, &mut a);
            loaded.query_collection(loaded.collection_id("towns").unwrap(), kind, &q, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{kind:?}");
        }
    }

    /// Version 1 (no per-slot liveness byte) is no longer read: the
    /// refusal names the version instead of guessing at the layout.
    #[test]
    fn version_1_snapshots_are_refused() {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(b"SCQS");
        buf.extend_from_slice(&1u16.to_le_bytes()); // version 1
        buf.extend_from_slice(&2u16.to_le_bytes()); // K = 2
        for c in [0.0f64, 0.0, 100.0, 100.0] {
            buf.extend_from_slice(&c.to_le_bytes()); // universe
        }
        buf.extend_from_slice(&0u32.to_le_bytes()); // no collections
        assert_eq!(load::<2>(&buf).err(), Some(SnapshotError::BadVersion(1)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = save(&sample_db());
        let mut bad = bytes.to_vec();
        bad.push(0);
        assert_eq!(
            load::<2>(&bad).err(),
            Some(SnapshotError::TrailingData { bytes: 1 })
        );
    }

    #[test]
    fn truncation_inside_the_liveness_section_is_rejected() {
        // Hand-crafted v2 payload declaring two objects but cut exactly
        // where the second object's liveness flags byte should start:
        // the loader must report Truncated, not default the flag or
        // panic.
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(b"SCQS");
        buf.extend_from_slice(&2u16.to_le_bytes()); // version 2
        buf.extend_from_slice(&2u16.to_le_bytes()); // K = 2
        for c in [0.0f64, 0.0, 100.0, 100.0] {
            buf.extend_from_slice(&c.to_le_bytes()); // universe
        }
        buf.extend_from_slice(&1u32.to_le_bytes()); // one collection
        buf.extend_from_slice(&5u16.to_le_bytes());
        buf.extend_from_slice(b"boxes");
        buf.extend_from_slice(&2u32.to_le_bytes()); // TWO objects declared
        buf.push(1); // object 0: live
        buf.extend_from_slice(&1u32.to_le_bytes()); // one fragment
        for c in [1.0f64, 1.0, 2.0, 2.0] {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        // object 1 is missing entirely — the cut lands on its flags byte
        assert_eq!(load::<2>(&buf).err(), Some(SnapshotError::Truncated));
        // one flags byte but no fragment count: still truncated
        let mut partial = buf.clone();
        partial.push(0); // object 1: tombstone flag present…
        assert_eq!(load::<2>(&partial).err(), Some(SnapshotError::Truncated));
        // completing the object (empty region) makes the payload load,
        // confirming the cut above was precisely the missing piece
        let mut whole = partial.clone();
        whole.extend_from_slice(&0u32.to_le_bytes());
        let db: SpatialDatabase<2> = load(&whole).unwrap();
        let coll = db.collection_id("boxes").unwrap();
        assert_eq!(db.collection_len(coll), 2);
        assert_eq!(db.live_len(coll), 1, "object 1 is a tombstone");
    }

    #[test]
    fn huge_fragment_count_is_rejected_without_allocating() {
        // A corrupt object declaring u32::MAX fragments must error out
        // of the length check, not attempt a ~137 GB reservation.
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(b"SCQS");
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        for c in [0.0f64, 0.0, 100.0, 100.0] {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(b'x');
        buf.extend_from_slice(&1u32.to_le_bytes()); // one object
        buf.push(1); // live
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd n_frag
        assert_eq!(load::<2>(&buf).err(), Some(SnapshotError::Truncated));
    }

    #[test]
    fn empty_database_round_trips() {
        let db: SpatialDatabase<1> = SpatialDatabase::new(AaBox::new([0.0], [1.0]));
        let loaded: SpatialDatabase<1> = load(&save(&db)).unwrap();
        assert_eq!(loaded.collections().count(), 0);
    }
}
