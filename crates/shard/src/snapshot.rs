//! Per-shard snapshot streams plus a manifest.
//!
//! A sharded snapshot is `1 + N` independent byte streams:
//!
//! * the **manifest** — router configuration and the global slot
//!   mapping of every logical collection (`SCQM` format below);
//! * one **shard stream** per shard — the shard's own
//!   [`SpatialDatabase`] in the engine's versioned `SCQS` format
//!   ([`scq_engine::snapshot`]).
//!
//! Streams are written and read **independently**: saving shard `s`
//! serializes only that shard's objects, so a deployment can stream
//! shards to different files, processes or machines without ever
//! materializing the whole database in one buffer. [`load`] reassembles
//! and cross-validates — a manifest that disagrees with its shard
//! payloads (dangling slots, liveness mismatches, double-mapped locals)
//! is rejected with a named [`ShardSnapshotError`] instead of producing
//! a silently wrong database.
//!
//! ```text
//! manifest: magic "SCQM" | u16 version (=3) | u16 dimension (=2)
//!           universe (4 f64 LE)
//!           u32 router bits | u32 shard count
//!           per shard: u64 z-range lo | u64 z-range hi
//!           per shard: u32 replica count
//!                      per replica: u16 addr length | addr bytes (UTF-8)
//!           u32 collection count
//!           per collection:
//!             u16 name length | name bytes (UTF-8)
//!             u64 slot count
//!             per slot: u32 shard | u32 local slot | u8 flags (bit 0 = live)
//! ```
//!
//! Each shard's z-range is explicit, so a cluster with a custom
//! [`crate::ClusterSpec`] range assignment round-trips exactly. The
//! replica table records the ordered address set the cluster was
//! serving from when the snapshot was taken (empty for in-process
//! shards). The addresses are informational: a restore may
//! legitimately target a redeployed cluster at new addresses, so
//! [`reload_from_dir`] checks ranges/bits/shard-count but not
//! addresses. Version 3 is the only one read or written; any other is
//! [`ShardSnapshotError::BadVersion`].

use std::io::{Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use scq_engine::snapshot::{self, SnapshotError};
use scq_engine::{CollectionId, SpatialDatabase};
use scq_region::AaBox;

use crate::backend::{LocalShard, ShardBackend};
use crate::database::{LogicalCollection, ShardSide, ShardedDatabase, SlotAddr};
use crate::router::ShardRouter;

const MAGIC: &[u8; 4] = b"SCQM";
/// The manifest version, written and the only one loaded.
const VERSION: u16 = 3;

/// Errors produced while loading a sharded snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardSnapshotError {
    /// The manifest does not start with the `SCQM` magic.
    BadMagic,
    /// Unsupported manifest version.
    BadVersion(u16),
    /// The manifest was written for a different dimension.
    DimensionMismatch(u16),
    /// The manifest ended before its declared content.
    Truncated,
    /// A collection name or replica address was not valid UTF-8.
    BadName,
    /// A universe coordinate was not finite.
    BadCoordinate,
    /// Bytes remained after the declared manifest content.
    TrailingData {
        /// Number of unconsumed bytes.
        bytes: usize,
    },
    /// The router configuration is out of range (bits, shard count).
    BadConfig(String),
    /// One shard stream failed to decode.
    Shard {
        /// Which shard.
        shard: usize,
        /// The engine-level decode error.
        source: SnapshotError,
    },
    /// The manifest and the shard payloads disagree (dangling slot,
    /// liveness mismatch, double-mapped local slot, missing
    /// collection…).
    Inconsistent(String),
    /// A shard backend failed to stream or load its payload (remote
    /// transport failure or rejection).
    Backend {
        /// Which shard.
        shard: usize,
        /// The backend's failure.
        message: String,
    },
    /// Filesystem error while reading or writing snapshot streams.
    Io(String),
}

impl std::fmt::Display for ShardSnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardSnapshotError::BadMagic => write!(f, "not a shard manifest (bad magic)"),
            ShardSnapshotError::BadVersion(v) => write!(f, "unsupported manifest version {v}"),
            ShardSnapshotError::DimensionMismatch(d) => {
                write!(f, "manifest is {d}-dimensional, expected 2")
            }
            ShardSnapshotError::Truncated => write!(f, "manifest truncated"),
            ShardSnapshotError::BadName => write!(f, "collection name or address is not UTF-8"),
            ShardSnapshotError::BadCoordinate => write!(f, "non-finite universe coordinate"),
            ShardSnapshotError::TrailingData { bytes } => {
                write!(f, "{bytes} trailing bytes after the manifest")
            }
            ShardSnapshotError::BadConfig(m) => write!(f, "bad router configuration: {m}"),
            ShardSnapshotError::Shard { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            ShardSnapshotError::Inconsistent(m) => write!(f, "manifest/shard mismatch: {m}"),
            ShardSnapshotError::Backend { shard, message } => {
                write!(f, "shard {shard} backend: {message}")
            }
            ShardSnapshotError::Io(m) => write!(f, "snapshot io: {m}"),
        }
    }
}

impl std::error::Error for ShardSnapshotError {}

/// Serializes the manifest: router configuration plus the global slot
/// mapping. Object data lives in the per-shard streams
/// ([`save_shard`]).
pub fn save_manifest<B: ShardBackend>(db: &ShardedDatabase<B>) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(2);
    for c in db.universe().lo().iter().chain(db.universe().hi().iter()) {
        buf.put_f64_le(*c);
    }
    buf.put_u32_le(db.router().bits());
    buf.put_u32_le(db.n_shards() as u32);
    for &(lo, hi) in db.router().ranges() {
        buf.put_u64_le(lo);
        buf.put_u64_le(hi);
    }
    // The replica set each shard was serving from (primary first;
    // empty for in-process shards).
    for s in 0..db.n_shards() {
        let replicas = db.backend(s).health();
        buf.put_u32_le(replicas.len() as u32);
        for r in &replicas {
            assert!(
                r.addr.len() <= u16::MAX as usize,
                "replica address exceeds the snapshot format's u16 length"
            );
            buf.put_u16_le(r.addr.len() as u16);
            buf.put_slice(r.addr.as_bytes());
        }
    }
    let collections: Vec<CollectionId> = db.collections().collect();
    buf.put_u32_le(collections.len() as u32);
    for coll in collections {
        let name = db.collection_name(coll);
        // The format frames names with a u16 length; a longer name
        // would silently produce an unparseable manifest.
        assert!(
            name.len() <= u16::MAX as usize,
            "collection name exceeds the snapshot format's u16 length"
        );
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name.as_bytes());
        buf.put_u64_le(db.collection_len(coll) as u64);
        for index in 0..db.collection_len(coll) {
            let obj = scq_engine::ObjectRef {
                collection: coll,
                index,
            };
            let (shard, local) = db.slot_addr(obj);
            buf.put_u32_le(shard as u32);
            buf.put_u32_le(local as u32);
            buf.put_u8(db.is_live(obj) as u8);
        }
    }
    buf.freeze()
}

/// Serializes one shard's stream — only that shard's objects are
/// materialized (a remote backend produces the bytes in the shard
/// process, so they cross the wire once and nothing else does).
pub fn save_shard<B: ShardBackend>(
    db: &ShardedDatabase<B>,
    shard: usize,
) -> Result<Bytes, ShardSnapshotError> {
    db.backend(shard)
        .snapshot_stream()
        .map_err(|e| ShardSnapshotError::Backend {
            shard,
            message: e.to_string(),
        })
}

fn need(buf: &impl Buf, n: usize) -> Result<(), ShardSnapshotError> {
    if buf.remaining() < n {
        Err(ShardSnapshotError::Truncated)
    } else {
        Ok(())
    }
}

/// One global slot as recorded in the manifest: owning shard, local
/// slot, liveness.
type ManifestSlot = (u32, u32, bool);

/// The decoded manifest: everything needed to assemble a
/// [`ShardedDatabase`] from shard streams.
pub struct Manifest {
    universe: AaBox<2>,
    bits: u32,
    n_shards: usize,
    /// The z-range each shard owns.
    ranges: Vec<(u64, u64)>,
    /// Per shard: the replica addresses it was serving from when the
    /// snapshot was taken (empty for in-process shards).
    replicas: Vec<Vec<String>>,
    /// Per collection: name and one [`ManifestSlot`] per global slot.
    collections: Vec<(String, Vec<ManifestSlot>)>,
}

impl Manifest {
    /// Number of shard streams this manifest expects.
    pub(crate) fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Per shard, the replica addresses recorded at snapshot time
    /// (primary first). Informational: a restore may target a
    /// redeployed cluster, so nothing enforces these at load time.
    /// Empty per-shard lists for local shards.
    pub fn replica_sets(&self) -> &[Vec<String>] {
        &self.replicas
    }
}

/// Decodes and validates a manifest (no shard data involved).
pub fn load_manifest(data: &[u8]) -> Result<Manifest, ShardSnapshotError> {
    let mut buf = data;
    need(&buf, 8)?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ShardSnapshotError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(ShardSnapshotError::BadVersion(version));
    }
    let dim = buf.get_u16_le();
    if dim != 2 {
        return Err(ShardSnapshotError::DimensionMismatch(dim));
    }
    need(&buf, 32)?;
    let mut u = [0.0f64; 4];
    for c in &mut u {
        let v = buf.get_f64_le();
        if !v.is_finite() {
            return Err(ShardSnapshotError::BadCoordinate);
        }
        *c = v;
    }
    let universe = AaBox::new([u[0], u[1]], [u[2], u[3]]);
    if universe.is_empty() {
        return Err(ShardSnapshotError::BadConfig("empty universe".into()));
    }
    need(&buf, 12)?;
    let bits = buf.get_u32_le();
    if !(1..=16).contains(&bits) {
        return Err(ShardSnapshotError::BadConfig(format!(
            "router bits {bits} outside 1..=16"
        )));
    }
    let n_shards = buf.get_u32_le() as usize;
    if n_shards == 0 || n_shards as u64 > scq_zorder::key_space(bits) {
        return Err(ShardSnapshotError::BadConfig(format!(
            "{n_shards} shards on a {bits}-bit grid"
        )));
    }
    need(&buf, n_shards.saturating_mul(16))?;
    let mut ranges = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let lo = buf.get_u64_le();
        let hi = buf.get_u64_le();
        ranges.push((lo, hi));
    }
    crate::router::validate_ranges(bits, &ranges).map_err(ShardSnapshotError::BadConfig)?;
    let mut replicas = Vec::with_capacity(n_shards);
    for s in 0..n_shards {
        need(&buf, 4)?;
        let n = buf.get_u32_le() as usize;
        // A corrupt count must not reserve gigabytes; no sane
        // deployment runs this many replicas of one shard.
        if n > 64 {
            return Err(ShardSnapshotError::BadConfig(format!(
                "shard {s} declares {n} replicas"
            )));
        }
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            need(&buf, 2)?;
            let len = buf.get_u16_le() as usize;
            need(&buf, len)?;
            let mut bytes = vec![0u8; len];
            buf.copy_to_slice(&mut bytes);
            addrs.push(String::from_utf8(bytes).map_err(|_| ShardSnapshotError::BadName)?);
        }
        replicas.push(addrs);
    }
    need(&buf, 4)?;
    let n_coll = buf.get_u32_le();
    let mut collections = Vec::new();
    for _ in 0..n_coll {
        need(&buf, 2)?;
        let name_len = buf.get_u16_le() as usize;
        need(&buf, name_len)?;
        let mut name_bytes = vec![0u8; name_len];
        buf.copy_to_slice(&mut name_bytes);
        let name = String::from_utf8(name_bytes).map_err(|_| ShardSnapshotError::BadName)?;
        need(&buf, 8)?;
        let n_slots = buf.get_u64_le();
        // Validate the declared slot bytes before reserving.
        need(&buf, (n_slots as usize).saturating_mul(9))?;
        let mut slots = Vec::with_capacity(n_slots as usize);
        for _ in 0..n_slots {
            let shard = buf.get_u32_le();
            let local = buf.get_u32_le();
            let live = buf.get_u8() & 1 != 0;
            if shard as usize >= n_shards {
                return Err(ShardSnapshotError::Inconsistent(format!(
                    "collection {name:?} maps a slot to shard {shard} of {n_shards}"
                )));
            }
            slots.push((shard, local, live));
        }
        collections.push((name, slots));
    }
    if buf.has_remaining() {
        return Err(ShardSnapshotError::TrailingData {
            bytes: buf.remaining(),
        });
    }
    Ok(Manifest {
        universe,
        bits,
        n_shards,
        ranges,
        replicas,
        collections,
    })
}

/// Rebuilds the global mapping layer from a decoded manifest,
/// cross-validating every slot against the shard backends' actual
/// contents. Shared by [`assemble`] (fresh local assembly) and
/// [`reload_from_dir`] (in-place cluster restore) — the validation is
/// identical whether a shard is a decoded byte stream or a process
/// that just loaded one.
fn build_collections<B: ShardBackend>(
    manifest: &Manifest,
    shards: &[B],
) -> Result<Vec<LogicalCollection>, ShardSnapshotError> {
    let mut collections = Vec::with_capacity(manifest.collections.len());
    for (ci, (name, slots)) in manifest.collections.iter().enumerate() {
        let coll = CollectionId(ci);
        // Each shard stream must carry this collection under the same
        // id (shards create collections in lockstep with the logical
        // table).
        for (s, shard) in shards.iter().enumerate() {
            match shard.collection_id(name) {
                Some(id) if id == coll => {}
                Some(_) => {
                    return Err(ShardSnapshotError::Inconsistent(format!(
                        "shard {s} numbers collection {name:?} differently"
                    )))
                }
                None => {
                    return Err(ShardSnapshotError::Inconsistent(format!(
                        "shard {s} is missing collection {name:?}"
                    )))
                }
            }
        }
        let mut per_shard: Vec<ShardSide> = shards
            .iter()
            .map(|shard| ShardSide {
                globals: vec![u64::MAX; shard.collection_len(coll)],
            })
            .collect();
        let mut live_count = 0usize;
        let mut empty_objects = Vec::new();
        let mut live = Vec::with_capacity(slots.len());
        let mut addrs = Vec::with_capacity(slots.len());
        for (gi, &(shard, local, is_live)) in slots.iter().enumerate() {
            let (s, l) = (shard as usize, local as usize);
            if l >= shards[s].collection_len(coll) {
                return Err(ShardSnapshotError::Inconsistent(format!(
                    "{name:?}[{gi}] points past shard {s}'s {} slots",
                    shards[s].collection_len(coll)
                )));
            }
            if per_shard[s].globals[l] != u64::MAX {
                return Err(ShardSnapshotError::Inconsistent(format!(
                    "{name:?}: shard {s} slot {l} mapped twice"
                )));
            }
            per_shard[s].globals[l] = gi as u64;
            if shards[s].is_live(coll, l) != is_live {
                return Err(ShardSnapshotError::Inconsistent(format!(
                    "{name:?}[{gi}]: manifest liveness disagrees with shard {s}"
                )));
            }
            if is_live {
                live_count += 1;
                if shards[s].bbox(coll, l).is_empty() {
                    empty_objects.push(gi);
                }
            }
            live.push(is_live);
            addrs.push(SlotAddr { shard, local });
        }
        // Every *live* local slot must be reachable from a global slot;
        // dead local slots may be unmapped (an object migrated away
        // leaves its tombstone behind with no global counterpart).
        for (s, side) in per_shard.iter().enumerate() {
            for (l, &g) in side.globals.iter().enumerate() {
                if g == u64::MAX && shards[s].is_live(coll, l) {
                    return Err(ShardSnapshotError::Inconsistent(format!(
                        "{name:?}: live shard {s} slot {l} is unmapped"
                    )));
                }
            }
        }
        collections.push(LogicalCollection {
            name: name.clone(),
            slots: addrs,
            live,
            live_count,
            empty_objects,
            per_shard,
            // Fresh assemblies start at epoch 0; an in-place reload
            // advances past the outgoing mapping's epoch inside
            // `set_collections`.
            epoch: 0,
        });
    }
    Ok(collections)
}

/// Assembles a database over arbitrary backends from a decoded
/// manifest, cross-validating the mapping against each backend's
/// contents. The backends must already hold their shard data (decoded
/// streams for local shards; loaded processes for remote ones).
fn assemble_backends<B: ShardBackend>(
    manifest: Manifest,
    shards: Vec<B>,
) -> Result<ShardedDatabase<B>, ShardSnapshotError> {
    if shards.len() != manifest.n_shards {
        return Err(ShardSnapshotError::Inconsistent(format!(
            "manifest expects {} shards, got {}",
            manifest.n_shards,
            shards.len()
        )));
    }
    for (s, shard) in shards.iter().enumerate() {
        if shard.universe() != &manifest.universe {
            return Err(ShardSnapshotError::Inconsistent(format!(
                "shard {s} universe differs from the manifest's"
            )));
        }
    }
    let router =
        ShardRouter::from_ranges(&manifest.universe, manifest.bits, manifest.ranges.clone());
    let collections = build_collections(&manifest, &shards)?;
    Ok(ShardedDatabase::from_parts(
        manifest.universe,
        router,
        shards,
        collections,
    ))
}

/// Assembles a local database from a decoded manifest and one decoded
/// [`SpatialDatabase`] per shard, cross-validating the mapping.
pub(crate) fn assemble(
    manifest: Manifest,
    shards: Vec<SpatialDatabase<2>>,
) -> Result<ShardedDatabase, ShardSnapshotError> {
    assemble_backends(
        manifest,
        shards.into_iter().map(LocalShard::from_database).collect(),
    )
}

/// Loads a sharded database from a manifest and per-shard payloads.
pub fn load(
    manifest: &[u8],
    shard_payloads: &[impl AsRef<[u8]>],
) -> Result<ShardedDatabase, ShardSnapshotError> {
    let m = load_manifest(manifest)?;
    let mut shards = Vec::with_capacity(shard_payloads.len());
    for (s, payload) in shard_payloads.iter().enumerate() {
        shards.push(
            snapshot::load::<2>(payload.as_ref())
                .map_err(|source| ShardSnapshotError::Shard { shard: s, source })?,
        );
    }
    assemble(m, shards)
}

/// File name of the manifest inside a snapshot directory.
pub const MANIFEST_FILE: &str = "manifest.scqm";

/// File name of one shard's stream inside a snapshot directory.
fn shard_file(s: usize) -> String {
    format!("shard-{s:04}.scqs")
}

/// Writes the snapshot into a directory: `manifest.scqm` plus one
/// `shard-NNNN.scqs` per shard, each streamed independently (one
/// shard's bytes in memory at a time). Works over any backend: for a
/// remote cluster the router pulls each shard process's stream over
/// the wire and writes it out, one shard at a time.
pub fn save_to_dir<B: ShardBackend>(
    db: &ShardedDatabase<B>,
    dir: &Path,
) -> Result<(), ShardSnapshotError> {
    let io = |e: std::io::Error| ShardSnapshotError::Io(e.to_string());
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut f = std::fs::File::create(dir.join(MANIFEST_FILE)).map_err(io)?;
    f.write_all(&save_manifest(db)).map_err(io)?;
    for s in 0..db.n_shards() {
        let mut f = std::fs::File::create(dir.join(shard_file(s))).map_err(io)?;
        f.write_all(&save_shard(db, s)?).map_err(io)?;
    }
    Ok(())
}

/// Loads a snapshot directory written by [`save_to_dir`], reading one
/// shard stream at a time.
pub fn load_from_dir(dir: &Path) -> Result<ShardedDatabase, ShardSnapshotError> {
    let io = |e: std::io::Error| ShardSnapshotError::Io(e.to_string());
    let mut manifest = Vec::new();
    std::fs::File::open(dir.join(MANIFEST_FILE))
        .map_err(io)?
        .read_to_end(&mut manifest)
        .map_err(io)?;
    let m = load_manifest(&manifest)?;
    let mut shards = Vec::with_capacity(m.n_shards());
    for s in 0..m.n_shards() {
        let mut payload = Vec::new();
        std::fs::File::open(dir.join(shard_file(s)))
            .map_err(io)?
            .read_to_end(&mut payload)
            .map_err(io)?;
        shards.push(
            snapshot::load::<2>(&payload)
                .map_err(|source| ShardSnapshotError::Shard { shard: s, source })?,
        );
    }
    assemble(m, shards)
}

/// Restores a snapshot directory **in place** into an existing sharded
/// database — the cluster restore path: each shard backend (possibly a
/// remote process) swallows its own stream, then the global mapping is
/// rebuilt from the manifest with full cross-validation.
///
/// The receiving database's topology must match the snapshot's:
/// universe, router bits, shard count and range assignment. A snapshot
/// of a 4-shard cluster cannot be poured into a 2-shard one — shard
/// processes cannot be conjured, so a mismatch is a named error rather
/// than a silent reshape.
pub fn reload_from_dir<B: ShardBackend>(
    db: &mut ShardedDatabase<B>,
    dir: &Path,
) -> Result<(), ShardSnapshotError> {
    let io = |e: std::io::Error| ShardSnapshotError::Io(e.to_string());
    let mut manifest = Vec::new();
    std::fs::File::open(dir.join(MANIFEST_FILE))
        .map_err(io)?
        .read_to_end(&mut manifest)
        .map_err(io)?;
    let m = load_manifest(&manifest)?;
    if m.universe != *db.universe() {
        return Err(ShardSnapshotError::Inconsistent(format!(
            "snapshot universe {:?} differs from the cluster's {:?}",
            m.universe,
            db.universe()
        )));
    }
    if m.n_shards != db.n_shards() || m.bits != db.router().bits() {
        return Err(ShardSnapshotError::Inconsistent(format!(
            "snapshot topology ({} shards, {} bits) differs from the cluster's ({} shards, {} bits)",
            m.n_shards,
            m.bits,
            db.n_shards(),
            db.router().bits()
        )));
    }
    if m.ranges != db.router().ranges() {
        return Err(ShardSnapshotError::Inconsistent(
            "snapshot shard ranges differ from the cluster's range assignment".into(),
        ));
    }
    // Read and decode every stream BEFORE any backend swallows one:
    // the common failures (missing file, corrupt stream, wrong
    // universe) must reject the restore with the cluster untouched.
    let mut payloads = Vec::with_capacity(db.n_shards());
    for s in 0..db.n_shards() {
        let mut payload = Vec::new();
        std::fs::File::open(dir.join(shard_file(s)))
            .map_err(io)?
            .read_to_end(&mut payload)
            .map_err(io)?;
        let decoded = snapshot::load::<2>(&payload)
            .map_err(|source| ShardSnapshotError::Shard { shard: s, source })?;
        if decoded.universe() != db.universe() {
            return Err(ShardSnapshotError::Inconsistent(format!(
                "shard {s} stream universe differs from the cluster's"
            )));
        }
        payloads.push(payload);
    }
    // Push the pre-validated streams. A transport failure mid-loop
    // (remote backends only) leaves the shards split between old and
    // new data; the stale mapping would then index into the wrong
    // shard contents, so it is dropped — the store comes back empty
    // (every command answers `ERR unknown collection`) rather than
    // serving mixed or out-of-bounds reads, and a retried SNAPSHOT
    // LOAD restores it completely.
    let poisoned = |db: &mut ShardedDatabase<B>, err: ShardSnapshotError| {
        db.set_collections(Vec::new());
        Err(err)
    };
    for (s, payload) in payloads.iter().enumerate() {
        if let Err(e) = db.backends_mut()[s].load_snapshot(payload) {
            return poisoned(
                db,
                ShardSnapshotError::Backend {
                    shard: s,
                    message: e.to_string(),
                },
            );
        }
    }
    match build_collections(&m, db.backends()) {
        Ok(collections) => {
            db.set_collections(collections);
            Ok(())
        }
        Err(e) => poisoned(db, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_bbox::{Bbox, CornerQuery};
    use scq_engine::{IndexKind, ObjectRef};
    use scq_region::Region;

    fn sample() -> ShardedDatabase {
        let mut db = ShardedDatabase::new(AaBox::new([0.0, 0.0], [100.0, 100.0]), 4);
        let a = db.collection("alpha");
        let b = db.collection("beta");
        for i in 0..25 {
            let t = (i * 17 % 91) as f64;
            db.insert(
                a,
                Region::from_box(AaBox::new([t, 90.0 - t], [t + 4.0, 94.0 - t])),
            );
            if i % 3 == 0 {
                db.insert(b, Region::from_box(AaBox::new([t, t], [t + 2.0, t + 6.0])));
            }
        }
        db.insert(b, Region::empty());
        // churn so the snapshot carries tombstones and a migration
        let gone = ObjectRef {
            collection: a,
            index: 3,
        };
        assert!(db.remove(gone));
        let moved = ObjectRef {
            collection: a,
            index: 7,
        };
        assert!(db.update(moved, Region::from_box(AaBox::new([1.0, 1.0], [3.0, 3.0]))));
        db
    }

    #[test]
    fn round_trip_preserves_everything() {
        let db = sample();
        let manifest = save_manifest(&db);
        let payloads: Vec<Bytes> = (0..db.n_shards())
            .map(|s| save_shard(&db, s).unwrap())
            .collect();
        let loaded = load(&manifest, &payloads).unwrap();
        loaded.check().expect("reloaded database is consistent");
        assert_eq!(loaded.n_shards(), db.n_shards());
        for coll in db.collections() {
            let name = db.collection_name(coll);
            let lcoll = loaded.collection_id(name).unwrap();
            assert_eq!(db.collection_len(coll), loaded.collection_len(lcoll));
            assert_eq!(db.live_len(coll), loaded.live_len(lcoll));
            assert_eq!(db.empty_objects(coll), loaded.empty_objects(lcoll));
            for index in 0..db.collection_len(coll) {
                let o = ObjectRef {
                    collection: coll,
                    index,
                };
                assert_eq!(db.is_live(o), loaded.is_live(o), "{name}[{index}]");
                assert!(db.region(o).same_set(loaded.region(o)), "{name}[{index}]");
            }
            // index answers agree
            let q = CornerQuery::unconstrained().and_overlaps(&Bbox::new([0.0, 0.0], [60.0, 60.0]));
            for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
                let (mut x, mut y) = (Vec::new(), Vec::new());
                db.query_collection(coll, kind, &q, &mut x);
                loaded.query_collection(lcoll, kind, &q, &mut y);
                x.sort_unstable();
                y.sort_unstable();
                assert_eq!(x, y, "{kind:?}");
            }
        }
    }

    #[test]
    fn directory_round_trip() {
        let db = sample();
        let dir = std::env::temp_dir().join(format!("scq_shard_snap_{}", std::process::id()));
        save_to_dir(&db, &dir).unwrap();
        let loaded = load_from_dir(&dir).unwrap();
        loaded.check().expect("consistent");
        assert_eq!(
            db.live_len(db.collection_id("alpha").unwrap()),
            loaded.live_len(loaded.collection_id("alpha").unwrap())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // ranges sit after magic(4)+version(2)+dim(2)+universe(32)+
    // bits(4)+count(4) = 48, sixteen bytes per shard
    const RANGES_AT: usize = 48;

    /// Byte offset of the replica-topology table in a manifest of
    /// `n` shards.
    fn replicas_at(n: usize) -> usize {
        RANGES_AT + n * 16
    }

    /// Manifest versions 1 (no range table) and 2 (no replica table)
    /// are no longer read: the refusal names the version instead of
    /// guessing at the layout.
    #[test]
    fn version_1_and_2_manifests_are_refused() {
        let current = save_manifest(&sample()).to_vec();
        for version in [1u16, 2] {
            let mut old = current.clone();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                load_manifest(&old).err(),
                Some(ShardSnapshotError::BadVersion(version))
            );
        }
    }

    #[test]
    fn non_tiling_ranges_are_rejected() {
        let mut bad = save_manifest(&sample()).to_vec();
        bad[RANGES_AT..RANGES_AT + 8].copy_from_slice(&7u64.to_le_bytes());
        assert!(matches!(
            load_manifest(&bad).err(),
            Some(ShardSnapshotError::BadConfig(_))
        ));
    }

    #[test]
    fn replica_topology_round_trips() {
        let db = sample();
        let n = db.n_shards();
        let manifest = save_manifest(&db).to_vec();
        // in-process shards record empty replica sets
        let m = load_manifest(&manifest).expect("loads");
        assert_eq!(m.replica_sets().len(), n);
        assert!(m.replica_sets().iter().all(|s| s.is_empty()));
        // splice a two-address replica set into shard 0's entry — the
        // shape a remote cluster writes
        let mut spliced = manifest.clone();
        let mut entry = Vec::new();
        entry.extend_from_slice(&2u32.to_le_bytes());
        for addr in ["127.0.0.1:7001", "127.0.0.1:7002"] {
            entry.extend_from_slice(&(addr.len() as u16).to_le_bytes());
            entry.extend_from_slice(addr.as_bytes());
        }
        spliced.splice(replicas_at(n)..replicas_at(n) + 4, entry);
        let m = load_manifest(&spliced).expect("spliced topology parses");
        assert_eq!(m.replica_sets()[0], ["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert!(m.replica_sets()[1..].iter().all(|s| s.is_empty()));
        // an absurd replica count is rejected, not allocated
        let mut bad = manifest.clone();
        bad[replicas_at(n)..replicas_at(n) + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            load_manifest(&bad).err(),
            Some(ShardSnapshotError::BadConfig(_))
        ));
        // a non-UTF-8 address is rejected
        let mut bad = spliced.clone();
        bad[replicas_at(n) + 6] = 0xff;
        assert_eq!(load_manifest(&bad).err(), Some(ShardSnapshotError::BadName));
    }

    #[test]
    fn corrupt_manifests_are_rejected() {
        let db = sample();
        let manifest = save_manifest(&db);
        // bad magic
        let mut bad = manifest.to_vec();
        bad[0] = b'X';
        assert_eq!(
            load_manifest(&bad).err(),
            Some(ShardSnapshotError::BadMagic)
        );
        // bad version
        let mut bad = manifest.to_vec();
        bad[4] = 99;
        assert!(matches!(
            load_manifest(&bad).err(),
            Some(ShardSnapshotError::BadVersion(_))
        ));
        // wrong dimension
        let mut bad = manifest.to_vec();
        bad[6] = 3;
        assert_eq!(
            load_manifest(&bad).err(),
            Some(ShardSnapshotError::DimensionMismatch(3))
        );
        // truncation at every prefix errors, never panics
        for cut in 0..manifest.len().min(300) {
            assert!(load_manifest(&manifest[..cut]).is_err(), "prefix {cut}");
        }
        assert!(load_manifest(&manifest[..manifest.len() - 2]).is_err());
        // trailing bytes rejected
        let mut bad = manifest.to_vec();
        bad.extend_from_slice(&[0, 0]);
        assert_eq!(
            load_manifest(&bad).err(),
            Some(ShardSnapshotError::TrailingData { bytes: 2 })
        );
        // non-finite universe
        let mut bad = manifest.to_vec();
        bad[8..16].copy_from_slice(&f64::INFINITY.to_le_bytes());
        assert_eq!(
            load_manifest(&bad).err(),
            Some(ShardSnapshotError::BadCoordinate)
        );
    }

    #[test]
    fn mismatched_payloads_are_rejected() {
        let db = sample();
        let manifest = save_manifest(&db);
        let payloads: Vec<Bytes> = (0..db.n_shards())
            .map(|s| save_shard(&db, s).unwrap())
            .collect();
        // wrong shard count
        assert!(matches!(
            load(&manifest, &payloads[..2]).err(),
            Some(ShardSnapshotError::Inconsistent(_))
        ));
        // swapped shard streams break the slot mapping
        let mut swapped = payloads.clone();
        swapped.swap(0, db.n_shards() - 1);
        assert!(matches!(
            load(&manifest, &swapped).err(),
            Some(ShardSnapshotError::Inconsistent(_))
        ));
        // a corrupted shard stream surfaces with its shard id
        let mut corrupt: Vec<Vec<u8>> = payloads.iter().map(|p| p.to_vec()).collect();
        corrupt[1][0] = b'Z';
        match load(&manifest, &corrupt).err() {
            Some(ShardSnapshotError::Shard { shard, source }) => {
                assert_eq!(shard, 1);
                assert_eq!(source, SnapshotError::BadMagic);
            }
            other => panic!("expected Shard error, got {other:?}"),
        }
    }
}
