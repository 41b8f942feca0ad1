//! Per-shard write-ahead log: durable mutation records between
//! snapshots.
//!
//! A shard process with a WAL survives SIGKILL without losing a single
//! **acknowledged** mutation: every committed `create`/`insert`/
//! `remove`/`update`/`compact` is encoded with the same `SCQW` codec
//! the wire protocol uses ([`crate::wire::encode_request`]), framed as
//! a length-prefixed, checksummed record, appended to the current
//! **segment** file, and the client's response is held back until a
//! **group commit** has fsynced it. Recovery is
//! *newest snapshot + replay*: startup loads the newest `snap-*.scqs`
//! file (if any) and replays every segment past it, tolerating exactly
//! one **torn tail** record at the physical end of the newest segment
//! (the record a crash cut mid-write was, by construction, never
//! acknowledged). Any other damage — a checksum mismatch, a record
//! spliced in from another shard's log, a truncated *sealed* segment,
//! a gap in the segment sequence — is a loud named [`WalError`], never
//! a silently shorter history.
//!
//! Group commit has no thread and no window ([`Wal::wait_durable`]).
//! A waiter whose record is not yet durable and that finds no sync in
//! flight becomes the **leader**: it marks a sync in flight, takes
//! everything appended so far as its target, and fsyncs *outside* the
//! log lock, so appends on other connections never stall behind it.
//! Waiters that find a sync in flight sleep until it lands; records
//! appended meanwhile ride the next leader's sync. A lone writer pays
//! one fsync and no timer, and a batch is as large as the number of
//! writers that arrived during the previous fsync.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! <dir>/seg-00000000.scql     segment: header, then records
//! <dir>/seg-00000001.scql     (rotated when a segment passes the cap)
//! <dir>/snap-00000002.scqs    an SCQS snapshot; replay resumes at seg 2
//!
//! segment header := "SCQL" | u16 version (=1) | u64 salt | u64 seq
//! record         := u32 payload_len | u32 crc | payload
//! payload        := encode_request(create/insert/remove/update/compact)
//! crc            := crc32(salt_le_bytes ++ payload)
//! ```
//!
//! The **salt** is drawn once per log and stamped into every segment
//! header and every record checksum, so a record (or whole segment)
//! copied in from a *different* shard's WAL fails validation instead of
//! replaying someone else's history.
//!
//! `Wal::truncate` is the log-truncation point behind `SNAPSHOT
//! SAVE`/`SNAPSHOT LOAD`: it snapshots the current state next to the
//! log (tmp file + atomic rename), seals the current segment, opens the
//! next one, and deletes everything the snapshot makes redundant. A
//! crash anywhere inside truncation recovers cleanly: until the rename
//! lands the old snapshot + full replay win; after it, stale files are
//! swept at the next recovery.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use scq_engine::{snapshot, ObjectRef, SpatialDatabase};
use scq_obs::Histogram;
use scq_region::AaBox;

use crate::wire::{decode_request, encode_request, Request, MAX_FRAME};

/// Magic prefix of every segment file.
const SEGMENT_MAGIC: &[u8; 4] = b"SCQL";
/// The segment format version, written and the only one read. Bump
/// on any layout change; other versions are refused by name.
const SEGMENT_VERSION: u16 = 1;
/// Byte length of the segment header: magic + version + salt + seq.
const SEGMENT_HEADER_LEN: usize = 4 + 2 + 8 + 8;
/// Fixed per-record overhead: `u32` payload length + `u32` checksum.
const RECORD_HEADER_LEN: usize = 8;

// ── errors ──────────────────────────────────────────────────────────────

/// Errors from the write-ahead log. Everything recovery refuses to
/// guess about is its own named variant.
#[derive(Clone, Debug, PartialEq)]
pub enum WalError {
    /// Filesystem-level failure.
    Io(String),
    /// A segment header is malformed (bad magic, unknown version,
    /// sequence number disagreeing with the file name).
    BadHeader {
        /// What was wrong.
        reason: String,
    },
    /// A segment carries a different salt than the rest of the log —
    /// it belongs to another shard's WAL.
    SaltMismatch {
        /// Offending file name.
        file: String,
        /// Salt the rest of the log carries.
        expected: u64,
        /// Salt the offending segment carries.
        found: u64,
    },
    /// The segment sequence has a hole: records are missing and replay
    /// cannot be trusted.
    SequenceGap {
        /// The sequence number recovery expected next.
        expected: u64,
        /// The sequence number it found instead.
        found: u64,
    },
    /// A record failed validation somewhere other than the tolerated
    /// torn tail: checksum mismatch, oversized or undecodable payload,
    /// a truncated record inside a sealed segment.
    CorruptRecord {
        /// File the record lives in.
        file: String,
        /// Byte offset of the record start.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// A record decoded cleanly but the database refused it on replay
    /// (an impossible slot, a non-mutation opcode): the log and the
    /// state it claims to rebuild disagree.
    ReplayRejected {
        /// File the record lives in.
        file: String,
        /// Byte offset of the record start.
        offset: u64,
        /// Why the database refused it.
        reason: String,
    },
    /// The newest snapshot file would not load.
    BadSnapshot {
        /// Snapshot file name.
        file: String,
        /// The snapshot codec's complaint.
        reason: String,
    },
    /// The request is not a loggable mutation (queries, handshakes and
    /// snapshot transfers never enter the WAL).
    NotLoggable {
        /// Debug rendering of the refused request.
        op: String,
    },
    /// An fsync failed: nothing appended since the last successful
    /// one may be acknowledged, so no further appends or durability
    /// waits can succeed.
    Closed(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(m) => write!(f, "wal io: {m}"),
            WalError::BadHeader { reason } => write!(f, "bad segment header: {reason}"),
            WalError::SaltMismatch {
                file,
                expected,
                found,
            } => write!(
                f,
                "{file}: salt {found:#018x} does not match this log's {expected:#018x} \
                 (segment from another shard's wal?)"
            ),
            WalError::SequenceGap { expected, found } => {
                write!(
                    f,
                    "segment sequence gap: expected seg {expected}, found {found}"
                )
            }
            WalError::CorruptRecord {
                file,
                offset,
                reason,
            } => write!(f, "{file}: corrupt record at offset {offset}: {reason}"),
            WalError::ReplayRejected {
                file,
                offset,
                reason,
            } => write!(
                f,
                "{file}: replay rejected record at offset {offset}: {reason}"
            ),
            WalError::BadSnapshot { file, reason } => {
                write!(f, "{file}: snapshot would not load: {reason}")
            }
            WalError::NotLoggable { op } => write!(f, "not a loggable mutation: {op}"),
            WalError::Closed(m) => write!(f, "wal closed: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

// ── configuration and observability ─────────────────────────────────────

/// Where a shard keeps its WAL and when it rotates segments. Group
/// commit needs no setting: a batch is whatever was appended while the
/// previous fsync ran (see the module doc).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalConfig {
    /// Directory holding this shard's segments and snapshots. One
    /// directory per shard **address** — two shards must never share.
    pub dir: PathBuf,
    /// Rotate to a fresh segment once the current one passes this many
    /// bytes. Small segments keep per-file replay granular.
    pub segment_cap: u64,
}

/// Default segment rotation threshold (1 MiB).
const DEFAULT_SEGMENT_CAP: u64 = 1 << 20;

impl WalConfig {
    /// A config with the default segment cap.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            segment_cap: DEFAULT_SEGMENT_CAP,
        }
    }
}

/// Counters describing a live WAL. `appended`/`fsync_batches` count
/// this process's session; `replayed`/`torn_tails` describe the
/// recovery that opened it; `segments`/`bytes` describe the on-disk
/// log right now.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since the log was opened.
    pub appended: u64,
    /// Records replayed by the recovery that opened the log.
    pub replayed: u64,
    /// Batched fsyncs issued since the log was opened.
    pub fsync_batches: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Total bytes across those segment files.
    pub bytes: u64,
    /// Torn tail records discarded by recovery (0 or 1).
    pub torn_tails: u64,
}

impl WalStats {
    /// Field-wise sum, for aggregating across shards.
    pub(crate) fn merge(&self, other: &WalStats) -> WalStats {
        WalStats {
            appended: self.appended + other.appended,
            replayed: self.replayed + other.replayed,
            fsync_batches: self.fsync_batches + other.fsync_batches,
            segments: self.segments + other.segments,
            bytes: self.bytes + other.bytes,
            torn_tails: self.torn_tails + other.torn_tails,
        }
    }
}

/// A claim ticket from [`Wal::append`]: pass to [`Wal::wait_durable`]
/// before acknowledging the mutation it logged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(u64);

// ── checksums and the segment header ────────────────────────────────────

/// CRC-32 (IEEE) over the log salt followed by the payload, so the
/// same bytes under a different salt never validate.
fn record_crc(salt: u64, payload: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut c = u32::MAX;
    for &b in salt.to_le_bytes().iter().chain(payload.iter()) {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// A parsed segment header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SegmentHeader {
    /// The log's salt.
    pub salt: u64,
    /// This segment's sequence number.
    pub seq: u64,
}

/// Serializes the segment header. The layout is frozen: magic at 0,
/// version at 4, salt at 6, seq at 14 — any change must bump
/// [`SEGMENT_VERSION`].
fn segment_header(salt: u64, seq: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[0..4].copy_from_slice(SEGMENT_MAGIC);
    h[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h[6..14].copy_from_slice(&salt.to_le_bytes());
    h[14..22].copy_from_slice(&seq.to_le_bytes());
    h
}

/// Parses a segment header, rejecting bad magic and unknown versions
/// with named errors.
fn parse_segment_header(bytes: &[u8]) -> Result<SegmentHeader, WalError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(WalError::BadHeader {
            reason: format!(
                "{} bytes is shorter than the {SEGMENT_HEADER_LEN}-byte header",
                bytes.len()
            ),
        });
    }
    if &bytes[0..4] != SEGMENT_MAGIC {
        return Err(WalError::BadHeader {
            reason: "not a wal segment (bad magic)".into(),
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != SEGMENT_VERSION {
        return Err(WalError::BadHeader {
            reason: format!(
                "unknown segment version {version} (this build reads {SEGMENT_VERSION})"
            ),
        });
    }
    let salt = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
    let seq = u64::from_le_bytes(bytes[14..22].try_into().expect("8 bytes"));
    Ok(SegmentHeader { salt, seq })
}

fn seg_name(seq: u64) -> String {
    format!("seg-{seq:08}.scql")
}

fn snap_name(seq: u64) -> String {
    format!("snap-{seq:08}.scqs")
}

fn parse_name(name: &str) -> Option<(bool, u64)> {
    let (is_seg, rest) = if let Some(r) = name.strip_prefix("seg-") {
        (true, r.strip_suffix(".scql")?)
    } else if let Some(r) = name.strip_prefix("snap-") {
        (false, r.strip_suffix(".scqs")?)
    } else {
        return None;
    };
    rest.parse::<u64>().ok().map(|seq| (is_seg, seq))
}

/// Which requests belong in the log: exactly the mutations (compaction
/// included — its remap is deterministic given the state it runs on,
/// so replay reproduces the same slot layout).
fn loggable(req: &Request) -> bool {
    matches!(
        req,
        Request::Create { .. }
            | Request::Insert { .. }
            | Request::Remove { .. }
            | Request::Update { .. }
            | Request::Compact
    )
}

/// Applies one replayed mutation to the database. Refusals are loud:
/// a record that does not fit the state it claims to extend means the
/// log is not the history of this database.
fn apply_record(db: &mut SpatialDatabase<2>, req: &Request) -> Result<(), String> {
    let known = |db: &SpatialDatabase<2>, coll: scq_engine::CollectionId| {
        if coll.0 < db.collections().count() {
            Ok(())
        } else {
            Err(format!("unknown collection id {}", coll.0))
        }
    };
    match req {
        Request::Create { name } => {
            db.collection(name);
            Ok(())
        }
        Request::Insert { coll, region } => {
            known(db, *coll)?;
            db.insert(*coll, region.clone());
            Ok(())
        }
        Request::Remove { coll, local } => {
            known(db, *coll)?;
            let index = *local as usize;
            if index >= db.collection_len(*coll) {
                return Err(format!("slot {index} out of range"));
            }
            db.remove(ObjectRef {
                collection: *coll,
                index,
            });
            Ok(())
        }
        Request::Update {
            coll,
            local,
            region,
        } => {
            known(db, *coll)?;
            let index = *local as usize;
            if index >= db.collection_len(*coll) {
                return Err(format!("slot {index} out of range"));
            }
            db.update(
                ObjectRef {
                    collection: *coll,
                    index,
                },
                region.clone(),
            );
            Ok(())
        }
        Request::Compact => {
            db.compact();
            Ok(())
        }
        other => Err(format!("non-mutation record {other:?}")),
    }
}

// ── segment scanning ────────────────────────────────────────────────────

struct ScanOutcome {
    header: Option<SegmentHeader>,
    records: u64,
    /// Byte length of the valid prefix (header + whole records).
    valid_len: u64,
    /// Whether bytes past `valid_len` were discarded as a torn tail.
    torn: bool,
}

/// Walks one segment's bytes, calling `on_record` for each valid
/// record. `allow_torn` permits an incomplete record (or header) at
/// the physical end — legal only in the newest segment.
fn scan_segment<F>(
    name: &str,
    bytes: &[u8],
    expected_salt: Option<u64>,
    expected_seq: Option<u64>,
    allow_torn: bool,
    mut on_record: F,
) -> Result<ScanOutcome, WalError>
where
    F: FnMut(Request, u64) -> Result<(), WalError>,
{
    if bytes.len() < SEGMENT_HEADER_LEN {
        if allow_torn {
            // A crash during segment creation: no complete header ever
            // hit the disk. Nothing in it can have been acknowledged.
            return Ok(ScanOutcome {
                header: None,
                records: 0,
                valid_len: 0,
                torn: !bytes.is_empty(),
            });
        }
        return Err(WalError::BadHeader {
            reason: format!("{name}: sealed segment shorter than its header"),
        });
    }
    let header = parse_segment_header(bytes).map_err(|e| match e {
        WalError::BadHeader { reason } => WalError::BadHeader {
            reason: format!("{name}: {reason}"),
        },
        other => other,
    })?;
    if let Some(salt) = expected_salt {
        if header.salt != salt {
            return Err(WalError::SaltMismatch {
                file: name.to_string(),
                expected: salt,
                found: header.salt,
            });
        }
    }
    if let Some(seq) = expected_seq {
        if header.seq != seq {
            return Err(WalError::BadHeader {
                reason: format!(
                    "{name}: header claims sequence {} but the file is named {seq}",
                    header.seq
                ),
            });
        }
    }
    let mut off = SEGMENT_HEADER_LEN;
    let mut records = 0u64;
    loop {
        let remaining = bytes.len() - off;
        if remaining == 0 {
            return Ok(ScanOutcome {
                header: Some(header),
                records,
                valid_len: off as u64,
                torn: false,
            });
        }
        let torn_tail = |off: usize, records: u64| {
            if allow_torn {
                Ok(ScanOutcome {
                    header: Some(header),
                    records,
                    valid_len: off as u64,
                    torn: true,
                })
            } else {
                Err(WalError::CorruptRecord {
                    file: name.to_string(),
                    offset: off as u64,
                    reason: "record truncated inside a sealed segment".into(),
                })
            }
        };
        if remaining < RECORD_HEADER_LEN {
            return torn_tail(off, records);
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            // Append caps record payloads at MAX_FRAME, so a larger
            // length is corruption of the length field itself — a torn
            // write leaves a *prefix* of a real record, never a
            // rewritten one.
            return Err(WalError::CorruptRecord {
                file: name.to_string(),
                offset: off as u64,
                reason: format!("record length {len} exceeds the {MAX_FRAME}-byte cap"),
            });
        }
        if RECORD_HEADER_LEN + len > remaining {
            return torn_tail(off, records);
        }
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        let payload = &bytes[off + RECORD_HEADER_LEN..off + RECORD_HEADER_LEN + len];
        if record_crc(header.salt, payload) != crc {
            return Err(WalError::CorruptRecord {
                file: name.to_string(),
                offset: off as u64,
                reason: "checksum mismatch".into(),
            });
        }
        let req = decode_request(payload).map_err(|e| WalError::CorruptRecord {
            file: name.to_string(),
            offset: off as u64,
            reason: format!("undecodable record: {e}"),
        })?;
        if !loggable(&req) {
            return Err(WalError::CorruptRecord {
                file: name.to_string(),
                offset: off as u64,
                reason: format!("non-mutation record {req:?}"),
            });
        }
        on_record(req, off as u64)?;
        records += 1;
        off += RECORD_HEADER_LEN + len;
    }
}

// ── recovery ────────────────────────────────────────────────────────────

struct Recovered {
    db: SpatialDatabase<2>,
    salt: Option<u64>,
    /// Sequence of the segment appends should continue in (recreated
    /// if its header never finished, resumed otherwise).
    next_seq: u64,
    /// Valid byte length to resume the newest segment at, when it
    /// exists with an intact header.
    resume_len: Option<u64>,
    replayed: u64,
    torn_tails: u64,
}

type NumberedFiles = BTreeMap<u64, PathBuf>;

fn list_dir(dir: &Path) -> Result<(NumberedFiles, NumberedFiles), WalError> {
    let mut segs = BTreeMap::new();
    let mut snaps = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        match parse_name(name) {
            Some((true, seq)) => {
                segs.insert(seq, entry.path());
            }
            Some((false, seq)) => {
                snaps.insert(seq, entry.path());
            }
            // Tmp files from an interrupted truncation, editor
            // droppings: not ours to interpret.
            None => {}
        }
    }
    Ok((segs, snaps))
}

fn recover(dir: &Path, universe: AaBox<2>) -> Result<Recovered, WalError> {
    fs::create_dir_all(dir)?;
    let (segs, snaps) = list_dir(dir)?;

    // Newest snapshot is the replay base. Older snapshots are
    // redundant; a corrupt *newest* snapshot is a loud error because
    // the segments its truncation deleted are gone with it.
    let (mut db, base_seq) = match snaps.iter().next_back() {
        Some((&seq, path)) => {
            let file = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("snapshot");
            let bytes = fs::read(path)?;
            let db = snapshot::load::<2>(&bytes).map_err(|e| WalError::BadSnapshot {
                file: file.to_string(),
                reason: e.to_string(),
            })?;
            (db, seq)
        }
        None => (SpatialDatabase::new(universe), 0),
    };

    // Segments below the base are leftovers of a truncation that
    // crashed before its deletes finished; the snapshot superseded
    // them. Sweep now so they never confuse a later recovery.
    for (&seq, path) in &segs {
        if seq < base_seq {
            let _ = fs::remove_file(path);
        }
    }
    for (&seq, path) in &snaps {
        if seq < base_seq {
            let _ = fs::remove_file(path);
        }
    }

    let replay: Vec<(u64, &PathBuf)> = segs.range(base_seq..).map(|(s, p)| (*s, p)).collect();
    let mut salt: Option<u64> = None;
    let mut replayed = 0u64;
    let mut torn_tails = 0u64;
    let mut next_seq = base_seq;
    let mut resume_len = None;
    for (i, (seq, path)) in replay.iter().enumerate() {
        let expected = base_seq + i as u64;
        if *seq != expected {
            return Err(WalError::SequenceGap {
                expected,
                found: *seq,
            });
        }
        let newest = i + 1 == replay.len();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("segment")
            .to_string();
        let bytes = fs::read(path)?;
        let outcome = scan_segment(&name, &bytes, salt, Some(*seq), newest, |req, off| {
            apply_record(&mut db, &req).map_err(|reason| WalError::ReplayRejected {
                file: name.clone(),
                offset: off,
                reason,
            })
        })?;
        if let Some(h) = outcome.header {
            salt = Some(h.salt);
        }
        replayed += outcome.records;
        if outcome.torn {
            torn_tails += 1;
        }
        if newest {
            next_seq = *seq;
            if outcome.header.is_some() {
                resume_len = Some(outcome.valid_len);
            }
        }
    }
    Ok(Recovered {
        db,
        salt,
        next_seq,
        resume_len,
        replayed,
        torn_tails,
    })
}

// ── the log itself ──────────────────────────────────────────────────────

struct WalState {
    /// The open segment. Shared so a group-commit leader can fsync it
    /// after releasing the lock, even if a rotation replaces it
    /// meanwhile.
    file: Arc<File>,
    seq: u64,
    file_len: u64,
    appended: u64,
    durable: u64,
    /// A group-commit leader is fsyncing outside the lock.
    syncing: bool,
    fsync_batches: u64,
    broken: Option<String>,
    /// Condvar waits in [`Wal::wait_durable`]: a lone writer does none.
    #[cfg(test)]
    cv_waits: u64,
}

/// A shard's open write-ahead log: appends, group commit and
/// truncation. Construct with [`Wal::open`], which runs recovery first
/// and hands back the recovered database alongside the log.
pub struct Wal {
    dir: PathBuf,
    salt: u64,
    segment_cap: u64,
    state: Mutex<WalState>,
    /// Signalled whenever a sync lands (or fails).
    cv: Condvar,
    /// Latency of every data fsync (group-commit batches, rotation
    /// seals and truncation flushes). Shared out via
    /// [`Wal::fsync_latency`] so the shard server can register it as
    /// `wal.fsync.latency` without a stats-plumbing detour.
    fsync_latency: Histogram,
    replayed: u64,
    torn_tails: u64,
    #[cfg(test)]
    hook: tests::SyncHook,
}

fn sync_dir(dir: &Path) -> Result<(), WalError> {
    // Directory fsync makes creates/renames/deletes durable on Linux;
    // a platform where opening a directory fails just skips it.
    if let Ok(d) = File::open(dir) {
        d.sync_all()?;
    }
    Ok(())
}

fn fresh_salt() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED);
    let pid = std::process::id() as u64;
    // SplitMix64 scrambles the timestamp/pid so two shards started in
    // the same instant still diverge.
    let mut z = nanos ^ (pid << 32) ^ pid;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn create_segment(dir: &Path, salt: u64, seq: u64) -> Result<File, WalError> {
    let path = dir.join(seg_name(seq));
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.write_all(&segment_header(salt, seq))?;
    file.sync_data()?;
    sync_dir(dir)?;
    Ok(file)
}

impl Wal {
    /// Recovers the directory (newest snapshot + replay, tolerating
    /// one torn tail) and opens the log for appending. Returns the log
    /// and the recovered database.
    pub fn open(
        config: &WalConfig,
        universe: AaBox<2>,
    ) -> Result<(Wal, SpatialDatabase<2>), WalError> {
        let r = recover(&config.dir, universe)?;
        let salt = r.salt.unwrap_or_else(fresh_salt);
        let (file, file_len) = match r.resume_len {
            Some(valid) if valid >= SEGMENT_HEADER_LEN as u64 => {
                let path = config.dir.join(seg_name(r.next_seq));
                let file = OpenOptions::new().read(true).write(true).open(&path)?;
                // Drop the torn tail so the next append starts at a
                // record boundary.
                file.set_len(valid)?;
                file.sync_data()?;
                let mut file = file;
                std::io::Seek::seek(&mut file, std::io::SeekFrom::End(0))?;
                (file, valid)
            }
            _ => {
                let file = create_segment(&config.dir, salt, r.next_seq)?;
                (file, SEGMENT_HEADER_LEN as u64)
            }
        };
        let wal = Wal {
            dir: config.dir.clone(),
            salt,
            segment_cap: config.segment_cap.max(SEGMENT_HEADER_LEN as u64 + 1),
            state: Mutex::new(WalState {
                file: Arc::new(file),
                seq: r.next_seq,
                file_len,
                appended: 0,
                durable: 0,
                syncing: false,
                fsync_batches: 0,
                broken: None,
                #[cfg(test)]
                cv_waits: 0,
            }),
            cv: Condvar::new(),
            fsync_latency: Histogram::new(),
            replayed: r.replayed,
            torn_tails: r.torn_tails,
            #[cfg(test)]
            hook: tests::SyncHook::default(),
        };
        Ok((wal, r.db))
    }

    /// The log's salt (stamped into every segment and checksum).
    #[cfg(test)]
    fn salt(&self) -> u64 {
        self.salt
    }

    /// Appends one mutation record and returns the ticket to wait on.
    /// The record is in the OS page cache when this returns — it is
    /// **not durable** until [`Wal::wait_durable`] admits the ticket.
    ///
    /// Call while holding the lock that serializes mutations, so log
    /// order equals apply order; wait for durability *after* releasing
    /// it, so the fsync latency never blocks readers.
    pub fn append(&self, req: &Request) -> Result<Ticket, WalError> {
        if !loggable(req) {
            return Err(WalError::NotLoggable {
                op: format!("{req:?}"),
            });
        }
        let payload = encode_request(req);
        if payload.len() > MAX_FRAME {
            return Err(WalError::NotLoggable {
                op: format!("record of {} bytes exceeds the frame cap", payload.len()),
            });
        }
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&record_crc(self.salt, &payload).to_le_bytes());
        record.extend_from_slice(&payload);

        let mut st = self.state.lock().expect("wal state");
        if let Some(broken) = &st.broken {
            return Err(WalError::Closed(broken.clone()));
        }
        if st.file_len + record.len() as u64 > self.segment_cap
            && st.file_len > SEGMENT_HEADER_LEN as u64
        {
            self.rotate(&mut st)?;
        }
        (&*st.file).write_all(&record)?;
        st.file_len += record.len() as u64;
        st.appended += 1;
        Ok(Ticket(st.appended))
    }

    /// The one data-sync call: fsyncs `file`, whose first `target`
    /// records are then durable, and records the latency.
    #[cfg_attr(not(test), allow(unused_variables))]
    fn sync(&self, file: &File, target: u64) -> std::io::Result<()> {
        #[cfg(test)]
        self.hook.before_sync();
        let started = Instant::now();
        file.sync_data()?;
        self.fsync_latency.observe(started.elapsed());
        #[cfg(test)]
        self.hook.completed(target);
        Ok(())
    }

    /// Flushes any unacknowledged records in the open segment while
    /// holding the state lock (rotation and truncation). A leader
    /// syncing outside the lock meanwhile publishes with `max`, so it
    /// never moves `durable` back.
    fn sync_pending(&self, st: &mut WalState) -> Result<(), WalError> {
        if st.durable < st.appended {
            self.sync(&st.file, st.appended)?;
            st.durable = st.appended;
            st.fsync_batches += 1;
            self.cv.notify_all();
        }
        Ok(())
    }

    /// Seals the current segment (flushing what it holds) and opens
    /// the next one. Caller holds the state lock.
    fn rotate(&self, st: &mut WalState) -> Result<(), WalError> {
        self.sync_pending(st)?;
        let next = st.seq + 1;
        st.file = Arc::new(create_segment(&self.dir, self.salt, next)?);
        st.seq = next;
        st.file_len = SEGMENT_HEADER_LEN as u64;
        Ok(())
    }

    /// Blocks until the ticket's record is fsynced. Only after this
    /// returns may the mutation be acknowledged.
    ///
    /// Group commit, leader/follower: a waiter that finds no sync in
    /// flight leads one — it takes everything appended so far as the
    /// target, fsyncs the open segment with the lock released, then
    /// publishes `durable` and wakes the rest. A waiter that finds a
    /// sync in flight waits for it; if that sync did not cover its
    /// ticket, it (or another waiter) leads the next one.
    pub fn wait_durable(&self, ticket: Ticket) -> Result<(), WalError> {
        let mut st = self.state.lock().expect("wal state");
        while st.durable < ticket.0 {
            if let Some(broken) = &st.broken {
                return Err(WalError::Closed(broken.clone()));
            }
            if st.syncing {
                #[cfg(test)]
                {
                    st.cv_waits += 1;
                }
                st = self.cv.wait(st).expect("wal state");
                continue;
            }
            st.syncing = true;
            let (target, file) = (st.appended, Arc::clone(&st.file));
            drop(st);
            let synced = self.sync(&file, target);
            st = self.state.lock().expect("wal state");
            st.syncing = false;
            match synced {
                Ok(()) => {
                    st.durable = st.durable.max(target);
                    st.fsync_batches += 1;
                }
                // A failed fsync poisons the log: nothing after it may
                // be acknowledged, and waiters must fail loud.
                Err(e) => st.broken = Some(format!("fsync failed: {e}")),
            }
            self.cv.notify_all();
        }
        Ok(())
    }

    /// [`Wal::append`] + [`Wal::wait_durable`] in one call, for
    /// callers with no lock to release in between.
    pub fn append_durable(&self, req: &Request) -> Result<(), WalError> {
        let t = self.append(req)?;
        self.wait_durable(t)
    }

    /// The truncation point: snapshots `db` next to the log (tmp +
    /// atomic rename), seals the current segment, opens the next one
    /// and deletes every file the snapshot made redundant. Call with
    /// mutations excluded (the shard server holds its database lock)
    /// and `db` equal to the state the log describes.
    pub(crate) fn truncate(&self, db: &SpatialDatabase<2>) -> Result<(), WalError> {
        let mut st = self.state.lock().expect("wal state");
        if let Some(broken) = &st.broken {
            return Err(WalError::Closed(broken.clone()));
        }
        // Everything appended so far must be on disk before the
        // snapshot claims to supersede it.
        self.sync_pending(&mut st)?;
        let next = st.seq + 1;
        let tmp = self.dir.join(format!("snap-{next:08}.tmp"));
        let stream = snapshot::save(db);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&stream)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(snap_name(next)))?;
        sync_dir(&self.dir)?;
        // The snapshot is durable: recovery now starts at `next`
        // whatever happens below.
        st.file = Arc::new(create_segment(&self.dir, self.salt, next)?);
        st.seq = next;
        st.file_len = SEGMENT_HEADER_LEN as u64;
        drop(st);
        let (segs, snaps) = list_dir(&self.dir)?;
        for (seq, path) in segs.iter().chain(snaps.iter()) {
            if *seq < next {
                let _ = fs::remove_file(path);
            }
        }
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// The log's fsync-latency histogram. The handle shares cells with
    /// the live log, so registering it once
    /// (`registry.register_histogram("wal.fsync.latency", …)`) keeps
    /// scrapes current with no polling.
    pub(crate) fn fsync_latency(&self) -> Histogram {
        self.fsync_latency.clone()
    }

    /// Live counters (see [`WalStats`]).
    pub fn stats(&self) -> WalStats {
        let st = self.state.lock().expect("wal state");
        let (appended, fsync_batches) = (st.appended, st.fsync_batches);
        drop(st);
        let (mut segments, mut bytes) = (0u64, 0u64);
        if let Ok((segs, _)) = list_dir(&self.dir) {
            for path in segs.values() {
                segments += 1;
                bytes += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            }
        }
        WalStats {
            appended,
            replayed: self.replayed,
            fsync_batches,
            segments,
            bytes,
            torn_tails: self.torn_tails,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_engine::CollectionId;
    use scq_region::Region;

    fn universe() -> AaBox<2> {
        AaBox::new([0.0, 0.0], [100.0, 100.0])
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scq-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_config(dir: &Path) -> WalConfig {
        WalConfig::new(dir)
    }

    /// Test-only instrumentation at [`Wal::sync`]: the target of every
    /// completed sync, and a gate that can hold a sync before it
    /// starts.
    #[derive(Default)]
    pub(super) struct SyncHook {
        state: Mutex<HookState>,
        cv: Condvar,
    }

    #[derive(Default)]
    struct HookState {
        completed: Vec<u64>,
        hold: bool,
        held: usize,
    }

    impl SyncHook {
        pub(super) fn before_sync(&self) {
            let mut h = self.state.lock().unwrap();
            h.held += 1;
            self.cv.notify_all();
            while h.hold {
                h = self.cv.wait(h).unwrap();
            }
            h.held -= 1;
        }

        pub(super) fn completed(&self, target: u64) {
            self.state.lock().unwrap().completed.push(target);
        }

        /// The highest target a completed sync covered.
        fn last_completed(&self) -> u64 {
            let h = self.state.lock().unwrap();
            h.completed.iter().copied().max().unwrap_or(0)
        }

        fn set_hold(&self, hold: bool) {
            self.state.lock().unwrap().hold = hold;
            self.cv.notify_all();
        }

        fn wait_until_held(&self, n: usize) {
            let mut h = self.state.lock().unwrap();
            while h.held < n {
                h = self.cv.wait(h).unwrap();
            }
        }
    }

    fn insert(i: u64) -> Request {
        Request::Insert {
            coll: CollectionId(0),
            region: boxed((i % 50) as f64),
        }
    }

    fn boxed(lo: f64) -> Region<2> {
        Region::from_box(AaBox::new([lo, lo], [lo + 1.0, lo + 1.0]))
    }

    /// A scripted little history: create, three inserts, an update, a
    /// remove — applied to `db` and appended durably to `wal`.
    fn churn(wal: &Wal, db: &mut SpatialDatabase<2>) {
        let reqs = sample_history();
        for req in &reqs {
            apply_record(db, req).unwrap();
            wal.append_durable(req).unwrap();
        }
    }

    fn sample_history() -> Vec<Request> {
        vec![
            Request::Create {
                name: "objs".into(),
            },
            Request::Insert {
                coll: CollectionId(0),
                region: boxed(1.0),
            },
            Request::Insert {
                coll: CollectionId(0),
                region: boxed(10.0),
            },
            Request::Insert {
                coll: CollectionId(0),
                region: boxed(20.0),
            },
            Request::Update {
                coll: CollectionId(0),
                local: 1,
                region: boxed(30.0),
            },
            Request::Remove {
                coll: CollectionId(0),
                local: 0,
            },
            Request::Compact,
            Request::Insert {
                coll: CollectionId(0),
                region: boxed(40.0),
            },
        ]
    }

    fn state_bytes(db: &SpatialDatabase<2>) -> Vec<u8> {
        snapshot::save(db).to_vec()
    }

    #[test]
    fn append_then_recover_rebuilds_the_exact_state() {
        let dir = tmpdir("roundtrip");
        let oracle;
        {
            let (wal, db) = Wal::open(&small_config(&dir), universe()).unwrap();
            let mut db = db;
            churn(&wal, &mut db);
            oracle = db;
            assert_eq!(wal.stats().appended, sample_history().len() as u64);
        }
        let (wal, recovered) = Wal::open(&small_config(&dir), universe()).unwrap();
        assert_eq!(state_bytes(&recovered), state_bytes(&oracle));
        let stats = wal.stats();
        assert_eq!(stats.replayed, sample_history().len() as u64);
        assert_eq!(stats.torn_tails, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_spans_rotated_segments() {
        let dir = tmpdir("rotate");
        let mut cfg = small_config(&dir);
        cfg.segment_cap = 80; // force a rotation every record or two
        let oracle;
        {
            let (wal, mut db) = Wal::open(&cfg, universe()).unwrap();
            churn(&wal, &mut db);
            oracle = db;
            assert!(wal.stats().segments > 1, "cap of 80 bytes must rotate");
        }
        let (wal, recovered) = Wal::open(&cfg, universe()).unwrap();
        assert_eq!(state_bytes(&recovered), state_bytes(&oracle));
        assert_eq!(wal.stats().replayed, sample_history().len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_offset_is_torn_tail_or_clean() {
        // Build a two-segment log, then cut the NEWEST segment at every
        // byte offset: recovery must always succeed, replaying exactly
        // the records whose bytes survived whole, counting one torn
        // tail when (and only when) partial bytes were dropped.
        let dir = tmpdir("everycut");
        let mut cfg = small_config(&dir);
        cfg.segment_cap = 120;
        {
            let (wal, mut db) = Wal::open(&cfg, universe()).unwrap();
            churn(&wal, &mut db);
        }
        let (segs, _) = list_dir(&dir).unwrap();
        assert!(segs.len() >= 2, "need a sealed segment and a newest one");
        let (&last_seq, last_path) = segs.iter().next_back().unwrap();
        let pristine = fs::read(last_path).unwrap();

        // Count the records of the untouched newest segment and the
        // boundaries where each one ends.
        let mut boundaries = vec![SEGMENT_HEADER_LEN];
        {
            let mut off = SEGMENT_HEADER_LEN;
            while off < pristine.len() {
                let len = u32::from_le_bytes(pristine[off..off + 4].try_into().unwrap()) as usize;
                off += RECORD_HEADER_LEN + len;
                boundaries.push(off);
            }
        }
        let earlier_records: u64 = segs
            .iter()
            .filter(|(s, _)| **s != last_seq)
            .map(|(_, p)| {
                let bytes = fs::read(p).unwrap();
                scan_segment("seg", &bytes, None, None, false, |_, _| Ok(()))
                    .unwrap()
                    .records
            })
            .sum();

        for cut in 0..=pristine.len() {
            let f = OpenOptions::new().write(true).open(last_path).unwrap();
            f.set_len(cut as u64).unwrap();
            drop(f);
            let (wal, _db) = Wal::open(&cfg, universe()).unwrap_or_else(|e| {
                panic!("cut at {cut}: recovery must tolerate a torn tail, got {e}")
            });
            let stats = wal.stats();
            let whole = (boundaries.iter().filter(|b| **b <= cut).count() as u64).saturating_sub(1);
            let at_boundary = boundaries.contains(&cut);
            if cut < SEGMENT_HEADER_LEN {
                // Torn header: the segment is recreated empty.
                assert_eq!(stats.replayed, earlier_records, "cut {cut}");
                assert_eq!(stats.torn_tails, u64::from(cut != 0), "cut {cut}");
            } else {
                assert_eq!(stats.replayed, earlier_records + whole, "cut {cut}");
                assert_eq!(stats.torn_tails, u64::from(!at_boundary), "cut {cut}");
            }
            drop(wal);
            // Restore the pristine segment for the next cut (recovery
            // may have truncated or recreated it).
            fs::write(last_path, &pristine).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_checksum_is_a_loud_corrupt_record() {
        let dir = tmpdir("garble");
        {
            let (wal, mut db) = Wal::open(&small_config(&dir), universe()).unwrap();
            churn(&wal, &mut db);
        }
        let (segs, _) = list_dir(&dir).unwrap();
        let path = segs.values().next().unwrap();
        let mut bytes = fs::read(path).unwrap();
        // Flip one payload byte of the FIRST record: its length stays
        // intact, so this is unambiguous corruption, never a torn tail.
        let flip_at = SEGMENT_HEADER_LEN + RECORD_HEADER_LEN;
        bytes[flip_at] ^= 0xFF;
        fs::write(path, &bytes).unwrap();
        match Wal::open(&small_config(&dir), universe()).map(|_| ()) {
            Err(WalError::CorruptRecord { offset, reason, .. }) => {
                assert_eq!(offset, SEGMENT_HEADER_LEN as u64);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_complete_tail_record_is_corruption_not_torn() {
        let dir = tmpdir("garbletail");
        {
            let (wal, mut db) = Wal::open(&small_config(&dir), universe()).unwrap();
            churn(&wal, &mut db);
        }
        let (segs, _) = list_dir(&dir).unwrap();
        let path = segs.values().next_back().unwrap();
        let mut bytes = fs::read(path).unwrap();
        // Flip the LAST byte: the final record is complete (its length
        // fits), so a checksum mismatch must stay loud even at the tail.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(path, &bytes).unwrap();
        match Wal::open(&small_config(&dir), universe()).map(|_| ()) {
            Err(WalError::CorruptRecord { reason, .. }) => {
                assert!(reason.contains("checksum"), "{reason}")
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_spliced_from_another_shards_wal_is_rejected() {
        let dir_a = tmpdir("splice-a");
        let dir_b = tmpdir("splice-b");
        {
            let (wal_a, mut db_a) = Wal::open(&small_config(&dir_a), universe()).unwrap();
            churn(&wal_a, &mut db_a);
            let (wal_b, mut db_b) = Wal::open(&small_config(&dir_b), universe()).unwrap();
            churn(&wal_b, &mut db_b);
            assert_ne!(wal_a.salt(), wal_b.salt(), "two logs, two salts");
        }
        // Graft B's first record (same wire bytes, B's salt in the
        // checksum) onto the end of A's newest segment.
        let (segs_b, _) = list_dir(&dir_b).unwrap();
        let b_bytes = fs::read(segs_b.values().next().unwrap()).unwrap();
        let b_len = u32::from_le_bytes(
            b_bytes[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        let b_record = &b_bytes[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + RECORD_HEADER_LEN + b_len];
        let (segs_a, _) = list_dir(&dir_a).unwrap();
        let a_path = segs_a.values().next_back().unwrap().clone();
        let mut a_bytes = fs::read(&a_path).unwrap();
        let offset = a_bytes.len() as u64;
        a_bytes.extend_from_slice(b_record);
        fs::write(&a_path, &a_bytes).unwrap();
        match Wal::open(&small_config(&dir_a), universe()).map(|_| ()) {
            Err(WalError::CorruptRecord {
                offset: o, reason, ..
            }) => {
                assert_eq!(o, offset);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn whole_foreign_segment_is_a_salt_mismatch() {
        let dir_a = tmpdir("foreign-a");
        let dir_b = tmpdir("foreign-b");
        {
            let (wal_a, mut db_a) = Wal::open(&small_config(&dir_a), universe()).unwrap();
            churn(&wal_a, &mut db_a);
            let (wal_b, mut db_b) = Wal::open(&small_config(&dir_b), universe()).unwrap();
            churn(&wal_b, &mut db_b);
        }
        // B's seg-0, renamed as A's seg-1: the sequence is contiguous
        // and records are internally valid, but the salt betrays it.
        let (segs_b, _) = list_dir(&dir_b).unwrap();
        let mut bytes = fs::read(segs_b.values().next().unwrap()).unwrap();
        bytes[14..22].copy_from_slice(&1u64.to_le_bytes()); // rewrite seq 0 -> 1
        fs::write(dir_a.join(seg_name(1)), &bytes).unwrap();
        match Wal::open(&small_config(&dir_a), universe()).map(|_| ()) {
            Err(WalError::SaltMismatch { file, .. }) => assert!(file.contains("seg-00000001")),
            other => panic!("expected SaltMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn missing_middle_segment_is_a_sequence_gap() {
        let dir = tmpdir("gap");
        let mut cfg = small_config(&dir);
        cfg.segment_cap = 80;
        {
            let (wal, mut db) = Wal::open(&cfg, universe()).unwrap();
            churn(&wal, &mut db);
            assert!(wal.stats().segments >= 3);
        }
        let (segs, _) = list_dir(&dir).unwrap();
        let middle = segs.keys().nth(1).copied().unwrap();
        fs::remove_file(dir.join(seg_name(middle))).unwrap();
        match Wal::open(&cfg, universe()).map(|_| ()) {
            Err(WalError::SequenceGap { expected, found }) => {
                assert_eq!(expected, middle);
                assert!(found > middle);
            }
            other => panic!("expected SequenceGap, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Only the newest segment may end in a torn record: a sealed one
    /// cut short lost acknowledged history, and recovery says so.
    #[test]
    fn truncated_sealed_segment_is_a_loud_corrupt_record() {
        let dir = tmpdir("sealedcut");
        let mut cfg = small_config(&dir);
        cfg.segment_cap = 80;
        {
            let (wal, mut db) = Wal::open(&cfg, universe()).unwrap();
            churn(&wal, &mut db);
            assert!(wal.stats().segments >= 2);
        }
        let (segs, _) = list_dir(&dir).unwrap();
        let sealed = OpenOptions::new().write(true).open(&segs[&0]).unwrap();
        sealed
            .set_len(sealed.metadata().unwrap().len() - 3)
            .unwrap();
        drop(sealed);
        match Wal::open(&cfg, universe()).map(|_| ()) {
            Err(WalError::CorruptRecord { reason, .. }) => {
                assert!(reason.contains("sealed segment"), "{reason}")
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_header_layout_is_locked() {
        // The byte-exact v1 layout, so a future format change cannot
        // land without bumping SEGMENT_VERSION: magic at 0, version LE at 4, salt LE at 6, seq LE
        // at 14, 22 bytes total.
        let h = segment_header(0x1122_3344_5566_7788, 9);
        assert_eq!(h.len(), 22);
        assert_eq!(&h[0..4], b"SCQL");
        assert_eq!(u16::from_le_bytes([h[4], h[5]]), 1);
        assert_eq!(
            u64::from_le_bytes(h[6..14].try_into().unwrap()),
            0x1122_3344_5566_7788
        );
        assert_eq!(u64::from_le_bytes(h[14..22].try_into().unwrap()), 9);
        // …and it round-trips through the parser.
        let parsed = parse_segment_header(&h).unwrap();
        assert_eq!(
            parsed,
            SegmentHeader {
                salt: 0x1122_3344_5566_7788,
                seq: 9
            }
        );
        // Unknown versions and bad magic are named errors.
        let mut bumped = h;
        bumped[4] = 2;
        assert!(matches!(
            parse_segment_header(&bumped),
            Err(WalError::BadHeader { .. })
        ));
        let mut wrong = h;
        wrong[0] = b'X';
        assert!(matches!(
            parse_segment_header(&wrong),
            Err(WalError::BadHeader { .. })
        ));
    }

    #[test]
    fn truncate_seals_deletes_and_replay_resumes_past_the_snapshot() {
        let dir = tmpdir("truncate");
        let oracle;
        {
            let (wal, mut db) = Wal::open(&small_config(&dir), universe()).unwrap();
            churn(&wal, &mut db);
            wal.truncate(&db).unwrap();
            // Only the fresh (empty) segment and one snapshot remain.
            let (segs, snaps) = list_dir(&dir).unwrap();
            assert_eq!(segs.len(), 1);
            assert_eq!(snaps.len(), 1);
            assert_eq!(segs.keys().next(), snaps.keys().next());
            // Mutations after the truncation land in the new segment.
            let post = Request::Insert {
                coll: CollectionId(0),
                region: boxed(50.0),
            };
            apply_record(&mut db, &post).unwrap();
            wal.append_durable(&post).unwrap();
            oracle = db;
        }
        let (wal, recovered) = Wal::open(&small_config(&dir), universe()).unwrap();
        assert_eq!(state_bytes(&recovered), state_bytes(&oracle));
        // Replay covered only the post-truncation record.
        assert_eq!(wal.stats().replayed, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_is_loud() {
        let dir = tmpdir("badsnap");
        {
            let (wal, mut db) = Wal::open(&small_config(&dir), universe()).unwrap();
            churn(&wal, &mut db);
            wal.truncate(&db).unwrap();
        }
        let (_, snaps) = list_dir(&dir).unwrap();
        let path = snaps.values().next().unwrap();
        let mut bytes = fs::read(path).unwrap();
        // Garble the stream header: the codec must refuse, and the
        // refusal must surface as a named error, not an empty shard.
        bytes[0] ^= 0xFF;
        fs::write(path, &bytes).unwrap();
        match Wal::open(&small_config(&dir), universe()).map(|_| ()) {
            Err(WalError::BadSnapshot { .. }) => {}
            other => panic!("expected BadSnapshot, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_many_records_per_fsync() {
        let dir = tmpdir("batch");
        let (wal, _db) = Wal::open(&small_config(&dir), universe()).unwrap();
        let n = 200u64;
        let mut last = Ticket(0);
        for i in 0..n {
            last = wal.append(&insert(i)).unwrap();
        }
        wal.wait_durable(last).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.appended, n);
        // Nothing syncs until someone waits; the one waiter's sync
        // covers every record appended before it.
        assert_eq!(
            stats.fsync_batches, 1,
            "group commit must batch: {n} records took {} fsyncs",
            stats.fsync_batches
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The durability contract at the sync call itself: no
    /// `wait_durable` returns for a ticket a completed sync has not
    /// covered, however the waiters interleave.
    #[test]
    fn no_ticket_is_acknowledged_past_the_last_completed_sync() {
        let dir = tmpdir("acked");
        let (wal, _db) = Wal::open(&small_config(&dir), universe()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..100 {
                        let ticket = wal.append(&insert(t * 7 + i)).unwrap();
                        wal.wait_durable(ticket).unwrap();
                        let synced = wal.hook.last_completed();
                        assert!(
                            ticket.0 <= synced,
                            "ticket {} acknowledged; the last completed sync covers {synced}",
                            ticket.0
                        );
                    }
                });
            }
        });
        assert_eq!(wal.stats().appended, 800);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Records appended while a leader's fsync is in flight ride the
    /// next leader's one sync: the first leader is held at the sync
    /// call while seven more writers append and wait.
    #[test]
    fn writers_arriving_during_a_sync_share_the_next_one() {
        let dir = tmpdir("leader");
        let (wal, _db) = Wal::open(&small_config(&dir), universe()).unwrap();
        wal.hook.set_hold(true);
        std::thread::scope(|scope| {
            let wal = &wal;
            scope.spawn(move || wal.append_durable(&insert(0)).unwrap());
            wal.hook.wait_until_held(1);
            for i in 1..8 {
                scope.spawn(move || wal.append_durable(&insert(i)).unwrap());
            }
            while wal.stats().appended < 8 {
                std::thread::yield_now();
            }
            wal.hook.set_hold(false);
        });
        let stats = wal.stats();
        assert_eq!(stats.appended, 8);
        assert!(stats.fsync_batches < stats.appended, "{stats:?}");
        assert_eq!(
            stats.fsync_batches, 2,
            "the held sync, then one for the seven"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A lone writer leads every sync itself: one fsync per write and
    /// no condvar wait, so no timer stands between it and its ack.
    #[test]
    fn a_lone_writer_syncs_once_per_write_and_never_waits() {
        let dir = tmpdir("lone");
        let (wal, _db) = Wal::open(&small_config(&dir), universe()).unwrap();
        for i in 0..20 {
            wal.append_durable(&insert(i)).unwrap();
        }
        let stats = wal.stats();
        assert_eq!((stats.appended, stats.fsync_batches), (20, 20));
        assert_eq!(wal.state.lock().unwrap().cv_waits, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_mutations_are_not_loggable() {
        let dir = tmpdir("notloggable");
        let (wal, _db) = Wal::open(&small_config(&dir), universe()).unwrap();
        assert!(matches!(
            wal.append(&Request::Stat),
            Err(WalError::NotLoggable { .. })
        ));
        assert!(matches!(
            wal.append(&Request::Query {
                coll: CollectionId(0),
                kind: scq_engine::IndexKind::Scan,
                query: scq_bbox::CornerQuery::unconstrained(),
            }),
            Err(WalError::NotLoggable { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_rejected_when_log_and_state_disagree() {
        let dir = tmpdir("rejected");
        {
            let (wal, _db) = Wal::open(&small_config(&dir), universe()).unwrap();
            // Log an insert into a collection that was never created:
            // the database must refuse it on replay.
            wal.append_durable(&Request::Insert {
                coll: CollectionId(3),
                region: boxed(1.0),
            })
            .unwrap();
        }
        match Wal::open(&small_config(&dir), universe()).map(|_| ()) {
            Err(WalError::ReplayRejected { reason, .. }) => {
                assert!(reason.contains("unknown collection"), "{reason}")
            }
            other => panic!("expected ReplayRejected, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_snapshot_and_new_segment_recovers_clean() {
        // Simulate a truncation that crashed after the snapshot rename
        // but before anything else: delete every segment, keep the
        // snapshot. Recovery must come back with the snapshot state
        // and zero replay.
        let dir = tmpdir("midtruncate");
        let oracle;
        {
            let (wal, mut db) = Wal::open(&small_config(&dir), universe()).unwrap();
            churn(&wal, &mut db);
            wal.truncate(&db).unwrap();
            oracle = db;
        }
        let (segs, _) = list_dir(&dir).unwrap();
        for p in segs.values() {
            fs::remove_file(p).unwrap();
        }
        let (wal, recovered) = Wal::open(&small_config(&dir), universe()).unwrap();
        assert_eq!(state_bytes(&recovered), state_bytes(&oracle));
        assert_eq!(wal.stats().replayed, 0);
        // …and the log accepts appends again.
        wal.append_durable(&Request::Create {
            name: "more".into(),
        })
        .unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
