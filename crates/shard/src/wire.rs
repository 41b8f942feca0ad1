//! The shard wire protocol: length-prefixed binary frames between the
//! routing tier and a shard process.
//!
//! Every message is one **frame**:
//!
//! ```text
//! u32 LE payload length | payload
//! payload := u8 opcode | body
//! ```
//!
//! A connection opens with a handshake — the client sends
//! [`Request::Hello`] carrying the `SCQW` magic and its protocol
//! version as a plain frame, the server answers with the same version
//! or rejects a mismatch, naming the one version it speaks, and closes.
//! Both ends of this build speak exactly [`WIRE_VERSION`]. After the
//! handshake the connection is **multiplexed**: every payload carries a
//! mux header (`u8 kind | u64 LE request id`), many requests may be in
//! flight at once, responses may arrive out of order, and oversized
//! answers stream as a chunk sequence closed by an explicit
//! end-of-stream frame (see the *mux framing* section).
//!
//! Decoding is defensive in the snapshot codecs' named-error style: a
//! frame longer than `MAX_FRAME` is rejected **before** any
//! allocation ([`WireError::Oversized`]), truncated bodies yield
//! [`WireError::Truncated`], bytes left after the declared body yield
//! [`WireError::TrailingData`], unknown opcodes and NaN coordinates are
//! named errors — never panics, never a silently wrong message.
//!
//! Regions travel as their disjoint box fragments (the same
//! representation the `SCQS` snapshot format uses); corner queries as
//! their raw corner bounds plus the unsatisfiable marker, which may
//! legitimately be ±∞ (unconstrained sides) but never NaN.

use bytes::{Buf, BufMut};
use scq_bbox::CornerQuery;
use scq_engine::{CollectionId, CompactReport, IndexKind};
use scq_region::{FragmentError, Region};

/// Handshake magic carried by [`Request::Hello`].
const WIRE_MAGIC: &[u8; 4] = b"SCQW";
/// The wire protocol version, and the only one this build speaks: a
/// peer announcing anything else is refused at the handshake with a
/// named mismatch error. Bump it on any change to the frames below.
pub const WIRE_VERSION: u16 = 4;
/// Hard cap on **one frame's** payload (snapshot streams are the
/// largest legitimate single frames). A length prefix above this is
/// rejected before any buffer is reserved. It is not a cap on an
/// *answer*: a response larger than one frame streams as a
/// [`MUX_CHUNK`] sequence, each chunk individually under the cap, with
/// no bound on the reassembled total.
pub(crate) const MAX_FRAME: usize = 64 << 20;
/// Chunk size the server slices oversized responses into. Deliberately
/// far below [`MAX_FRAME`] so a streaming answer never monopolizes the
/// connection: other responses interleave between chunks.
pub(crate) const STREAM_CHUNK: usize = 1 << 20;

/// Errors produced while encoding, framing or decoding wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The stream or frame ended before the declared content.
    Truncated,
    /// The stream closed inside the 4-byte length prefix itself — the
    /// peer died before even declaring a frame. Distinct from
    /// [`WireError::Truncated`] (which means the declared body never
    /// arrived): a prefix cut is always a transport-level death, never
    /// a codec disagreement, so retry logic can treat it as such.
    TruncatedLengthPrefix {
        /// Prefix bytes that did arrive (1..=3).
        got: usize,
    },
    /// A frame declared a payload longer than `MAX_FRAME`.
    Oversized {
        /// Declared payload length.
        bytes: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The handshake did not carry the `SCQW` magic.
    BadMagic,
    /// The two ends speak different protocol versions.
    VersionMismatch {
        /// Version on this end.
        ours: u16,
        /// Version the peer announced.
        theirs: u16,
    },
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// Unknown index kind byte.
    BadIndexKind(u8),
    /// Unknown instrument kind byte in a metrics snapshot row.
    BadMetricKind(u8),
    /// A coordinate was NaN (region fragments additionally reject ±∞).
    BadCoordinate,
    /// A region's fragments were empty or overlapped: no region stores
    /// that.
    BadRegion(FragmentError),
    /// A string field was not valid UTF-8.
    BadString,
    /// Bytes remained after the declared message body.
    TrailingData {
        /// Number of unconsumed bytes.
        bytes: usize,
    },
    /// The address's circuit breaker is open: the client refused to
    /// dial at all because the address failed its last K requests and
    /// is in cooldown. Counts as a transport failure (the address is,
    /// as far as the client knows, dead) but is its own named variant
    /// so a fast-failed write is distinguishable from a socket error.
    BreakerOpen {
        /// The tripped address.
        addr: String,
    },
    /// The peer reported a failure executing the request.
    Remote(String),
    /// The response decoded fine but had the wrong shape for the
    /// request (a desynchronized or misbehaving peer).
    Unexpected(String),
    /// Socket-level failure.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TruncatedLengthPrefix { got } => {
                write!(
                    f,
                    "stream closed inside a frame length prefix ({got} of 4 bytes)"
                )
            }
            WireError::Oversized { bytes, max } => {
                write!(f, "frame of {bytes} bytes exceeds the {max}-byte cap")
            }
            WireError::BadMagic => write!(f, "handshake is not shard wire protocol (bad magic)"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "wire version mismatch: we speak {ours}, peer speaks {theirs}"
                )
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadStatus(s) => write!(f, "unknown response status {s:#04x}"),
            WireError::BadIndexKind(k) => write!(f, "unknown index kind byte {k}"),
            WireError::BadMetricKind(k) => write!(f, "unknown metric kind byte {k}"),
            WireError::BadCoordinate => write!(f, "bad coordinate in wire message"),
            WireError::BadRegion(e) => write!(f, "{e} in wire message"),
            WireError::BadString => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingData { bytes } => {
                write!(f, "{bytes} trailing bytes after the message body")
            }
            WireError::BreakerOpen { addr } => {
                write!(f, "circuit breaker open for {addr}: address in cooldown")
            }
            WireError::Remote(m) => write!(f, "remote error: {m}"),
            WireError::Unexpected(m) => write!(f, "unexpected response: {m}"),
            WireError::Io(m) => write!(f, "io: {m}"),
        }
    }
}

impl WireError {
    /// Whether this error means the **transport** died (socket failure,
    /// connection closed mid-exchange) as opposed to the two ends
    /// disagreeing about the protocol or its contents.
    ///
    /// The distinction drives the failure policy: transport deaths are
    /// expected at scale — they count toward an address's circuit
    /// breaker and mark a replica the write fan-out cannot reach as
    /// desynced — while protocol-level trouble — a version mismatch, an
    /// unexpected response shape, undecodable bytes — is a
    /// misconfigured or corrupt deployment that must stay loud rather
    /// than masquerade as an outage.
    pub(crate) fn is_transport(&self) -> bool {
        matches!(
            self,
            WireError::Io(_)
                | WireError::Truncated
                | WireError::TruncatedLengthPrefix { .. }
                | WireError::BreakerOpen { .. }
        )
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.to_string())
        }
    }
}

// ── messages ────────────────────────────────────────────────────────────

/// One request from the routing tier to a shard process.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Handshake: magic + client protocol version.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u16,
    },
    /// Create (or find) a collection.
    Create {
        /// Collection name.
        name: String,
    },
    /// Insert a region, returning its fresh local slot.
    Insert {
        /// Target collection.
        coll: CollectionId,
        /// The region to store.
        region: Region<2>,
    },
    /// Tombstone a local slot.
    Remove {
        /// Target collection.
        coll: CollectionId,
        /// Local slot index.
        local: u64,
    },
    /// Replace a live local slot's region.
    Update {
        /// Target collection.
        coll: CollectionId,
        /// Local slot index.
        local: u64,
        /// The replacement region.
        region: Region<2>,
    },
    /// Corner query against one index; answers local slot ids. No
    /// router sends it: the benchmark's wire rows are its only caller,
    /// and it goes with ROADMAP item 1.
    Query {
        /// Target collection.
        coll: CollectionId,
        /// Index structure to probe.
        kind: IndexKind,
        /// The corner query.
        query: CornerQuery<2>,
    },
    /// Per-collection slot and live counts.
    Stat,
    /// Compact the shard, returning the local remap.
    Compact,
    /// Stream the shard's full `SCQS` snapshot **and truncate its
    /// WAL**: the stream is the shard's new recovery base, so the log
    /// behind it is sealed and deleted. This is the explicit
    /// `SNAPSHOT SAVE` path.
    SnapshotSave,
    /// Stream the shard's full `SCQS` snapshot read-only — no WAL
    /// truncation. Seeding and checking the router's mirror and replica
    /// resync use this so merely *reading* a shard never seals its log.
    SnapshotRead,
    /// Replace the shard's contents with an `SCQS` stream.
    SnapshotLoad {
        /// The snapshot bytes.
        stream: Vec<u8>,
    },
    /// Run the shard's integrity check.
    Check,
    /// The shard's write-ahead-log counters, if it keeps one.
    WalStat,
    /// An envelope attributing its inner request to a client
    /// trace: the server executes `inner` with the trace installed so
    /// shard-side spans and events join the request's tree. Nesting
    /// `Traced` inside `Traced` is a codec error.
    Traced {
        /// The originating request's trace ID.
        trace_id: u64,
        /// The request to execute under that trace.
        inner: Box<Request>,
    },
    /// A coherent snapshot of the shard's metric instruments.
    Metrics,
}

/// One response from a shard process. `Err` is the failure envelope for
/// any request; the other variants are the per-request success shapes.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted; the server's protocol version.
    Hello {
        /// The server's [`WIRE_VERSION`].
        version: u16,
    },
    /// A collection id ([`Request::Create`]).
    Coll(CollectionId),
    /// A fresh local slot ([`Request::Insert`]).
    Slot(u64),
    /// A boolean outcome ([`Request::Remove`] / [`Request::Update`]).
    Flag(bool),
    /// Matching local slot ids ([`Request::Query`]).
    Ids(Vec<u64>),
    /// Per-collection `(name, slots, live)` ([`Request::Stat`]).
    Stat(Vec<(String, u64, u64)>),
    /// Compaction outcome ([`Request::Compact`]).
    Remap {
        /// Tombstoned slots reclaimed.
        reclaimed: u64,
        /// Per-collection local-slot remap (`None` = dropped).
        remap: Vec<Vec<Option<u64>>>,
    },
    /// Raw bytes ([`Request::SnapshotSave`]).
    Bytes(Vec<u8>),
    /// Success with nothing to report ([`Request::SnapshotLoad`]).
    Ok,
    /// Integrity problems, empty when healthy ([`Request::Check`]).
    Problems(Vec<String>),
    /// WAL counters ([`Request::WalStat`]).
    WalStat(crate::wal::WalStats),
    /// The shard's metric snapshot ([`Request::Metrics`]).
    Metrics(scq_obs::Snapshot),
    /// The request failed on the shard.
    Err(String),
}

impl Response {
    /// Converts a [`CompactReport`] into the wire remap shape.
    pub(crate) fn from_compact(report: &CompactReport) -> Response {
        Response::Remap {
            reclaimed: report.slots_reclaimed as u64,
            remap: report
                .remap
                .iter()
                .map(|coll| coll.iter().map(|s| s.map(|i| i as u64)).collect())
                .collect(),
        }
    }
}

// ── framing ─────────────────────────────────────────────────────────────

/// Wraps a payload in a length-prefixed frame. The sender enforces the
/// same `MAX_FRAME` cap the receiver does: an oversized payload (a
/// giant snapshot stream) is a named error here, before any bytes hit
/// the socket — not a poisoned connection on the other end. (Past the
/// cap, the server streams the answer as `MUX_CHUNK` frames, each
/// individually under the cap.)
pub fn frame(payload: &[u8]) -> Result<Vec<u8>, WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversized {
            bytes: payload.len(),
            max: MAX_FRAME,
        });
    }
    let mut out = Vec::with_capacity(4 + payload.len());
    out.put_u32_le(payload.len() as u32);
    out.put_slice(payload);
    Ok(out)
}

/// Reads one frame from a blocking stream. Distinguishes a clean close
/// before any byte (`Ok(None)`), a close inside the length prefix
/// ([`WireError::TruncatedLengthPrefix`]), and a close inside the
/// declared body ([`WireError::Truncated`]).
pub(crate) fn read_frame(r: &mut impl std::io::Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::TruncatedLengthPrefix { got }),
            Ok(n) => got += n,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            bytes: len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(payload))
}

/// Incremental frame assembly for readers that poll with a timeout
/// (the shard server's connection loop): bytes are pushed as they
/// arrive and complete frames pop out, so a slow sender's frame
/// survives arbitrarily many read timeouts. Public, with [`is_mux`]
/// and [`MUX_HEADER`], for frame-level tools outside the crate (the
/// test kit's fault-injection proxy).
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends freshly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one is buffered. An oversized
    /// length prefix errors immediately — the stream can never be
    /// resynchronized past it.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized {
                bytes: len,
                max: MAX_FRAME,
            });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }

    /// Whether a partial frame is buffered (a disconnect now would be
    /// mid-stream).
    #[cfg(test)]
    fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }
}

// ── scalar codecs ───────────────────────────────────────────────────────

fn need(buf: &impl Buf, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    // The format frames strings with a u16 length; anything longer
    // (a pathological error message) is truncated at a char boundary
    // rather than silently producing an unparseable frame.
    let mut end = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    buf.put_u16_le(end as u16);
    buf.put_slice(&s.as_bytes()[..end]);
}

fn get_string(buf: &mut &[u8]) -> Result<String, WireError> {
    need(buf, 2)?;
    let len = buf.get_u16_le() as usize;
    need(buf, len)?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| WireError::BadString)
}

fn kind_byte(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::RTree => 0,
        IndexKind::GridFile => 1,
        IndexKind::Scan => 2,
    }
}

fn kind_from_byte(b: u8) -> Result<IndexKind, WireError> {
    match b {
        0 => Ok(IndexKind::RTree),
        1 => Ok(IndexKind::GridFile),
        2 => Ok(IndexKind::Scan),
        other => Err(WireError::BadIndexKind(other)),
    }
}

/// Appends a region as `u32 fragment count | fragments (4 f64 LE)`.
fn put_region(buf: &mut Vec<u8>, region: &Region<2>) {
    buf.put_u32_le(region.boxes().len() as u32);
    for b in region.boxes() {
        for c in b.lo().iter().chain(b.hi().iter()) {
            buf.put_f64_le(*c);
        }
    }
}

/// Decodes a region written by [`put_region`].
fn get_region(buf: &mut &[u8]) -> Result<Region<2>, WireError> {
    Region::decode_fragments(buf).map_err(|e| match e {
        FragmentError::Truncated => WireError::Truncated,
        FragmentError::NonFinite => WireError::BadCoordinate,
        e => WireError::BadRegion(e),
    })
}

fn put_query(buf: &mut Vec<u8>, q: &CornerQuery<2>) {
    for d in 0..2 {
        buf.put_f64_le(q.lo_min[d]);
        buf.put_f64_le(q.lo_max[d]);
        buf.put_f64_le(q.hi_min[d]);
        buf.put_f64_le(q.hi_max[d]);
    }
    buf.put_u8(q.is_unsatisfiable() as u8);
}

fn get_query(buf: &mut &[u8]) -> Result<CornerQuery<2>, WireError> {
    need(buf, 8 * 8 + 1)?;
    let mut lo_min = [0.0f64; 2];
    let mut lo_max = [0.0f64; 2];
    let mut hi_min = [0.0f64; 2];
    let mut hi_max = [0.0f64; 2];
    for d in 0..2 {
        lo_min[d] = buf.get_f64_le();
        lo_max[d] = buf.get_f64_le();
        hi_min[d] = buf.get_f64_le();
        hi_max[d] = buf.get_f64_le();
    }
    // Query bounds are legitimately ±∞ (unconstrained sides) but NaN
    // would poison every comparison downstream.
    if lo_min
        .iter()
        .chain(&lo_max)
        .chain(&hi_min)
        .chain(&hi_max)
        .any(|c| c.is_nan())
    {
        return Err(WireError::BadCoordinate);
    }
    let unsat = buf.get_u8() & 1 != 0;
    Ok(CornerQuery::from_parts(
        lo_min, lo_max, hi_min, hi_max, unsat,
    ))
}

// ── request codec ───────────────────────────────────────────────────────

// Request opcodes are public protocol surface: the fault-injection
// proxy (`scq_testkit::fault`) matches scripted triggers on the opcode
// byte of a request frame.

/// Opcode of [`Request::Hello`].
pub(crate) const OP_HELLO: u8 = 0x01;
/// Opcode of [`Request::Create`].
const OP_CREATE: u8 = 0x02;
/// Opcode of [`Request::Insert`].
pub(crate) const OP_INSERT: u8 = 0x03;
/// Opcode of [`Request::Remove`].
pub(crate) const OP_REMOVE: u8 = 0x04;
/// Opcode of [`Request::Update`].
const OP_UPDATE: u8 = 0x05;
/// Opcode of [`Request::Query`] (kept for the benchmark's wire rows
/// only; it goes with ROADMAP item 1).
pub const OP_QUERY: u8 = 0x06;
/// Opcode of [`Request::Stat`].
const OP_STAT: u8 = 0x07;
/// Opcode of [`Request::Compact`].
pub(crate) const OP_COMPACT: u8 = 0x08;
/// Opcode of [`Request::SnapshotSave`].
const OP_SNAP_SAVE: u8 = 0x09;
/// Opcode of [`Request::SnapshotLoad`].
const OP_SNAP_LOAD: u8 = 0x0A;
/// Opcode of [`Request::Check`].
const OP_CHECK: u8 = 0x0B;
// 0x0C is retired (it asked the server to close the connection; a
// client closes by dropping its socket).
/// Opcode of [`Request::WalStat`].
const OP_WAL_STAT: u8 = 0x0D;
// 0x0E and 0x0F are retired (they shipped WAL segments); a peer that
// sends one gets `BadOpcode` like any unknown byte.
/// Opcode of [`Request::SnapshotRead`].
const OP_SNAP_READ: u8 = 0x10;
/// Opcode of [`Request::Traced`].
const OP_TRACED: u8 = 0x11;
/// Opcode of [`Request::Metrics`].
pub(crate) const OP_METRICS: u8 = 0x12;
// 0x13 is retired (it read a shard's per-collection epochs, which no
// cache reads).

/// Serializes a request into a frame payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Hello { version } => {
            buf.put_u8(OP_HELLO);
            buf.put_slice(WIRE_MAGIC);
            buf.put_u16_le(*version);
        }
        Request::Create { name } => {
            buf.put_u8(OP_CREATE);
            put_string(&mut buf, name);
        }
        Request::Insert { coll, region } => {
            buf.put_u8(OP_INSERT);
            buf.put_u32_le(coll.0 as u32);
            put_region(&mut buf, region);
        }
        Request::Remove { coll, local } => {
            buf.put_u8(OP_REMOVE);
            buf.put_u32_le(coll.0 as u32);
            buf.put_u64_le(*local);
        }
        Request::Update {
            coll,
            local,
            region,
        } => {
            buf.put_u8(OP_UPDATE);
            buf.put_u32_le(coll.0 as u32);
            buf.put_u64_le(*local);
            put_region(&mut buf, region);
        }
        Request::Query { coll, kind, query } => {
            buf.put_u8(OP_QUERY);
            buf.put_u32_le(coll.0 as u32);
            buf.put_u8(kind_byte(*kind));
            put_query(&mut buf, query);
        }
        Request::Stat => buf.put_u8(OP_STAT),
        Request::Compact => buf.put_u8(OP_COMPACT),
        Request::SnapshotSave => buf.put_u8(OP_SNAP_SAVE),
        Request::SnapshotRead => buf.put_u8(OP_SNAP_READ),
        Request::SnapshotLoad { stream } => {
            buf.put_u8(OP_SNAP_LOAD);
            buf.put_slice(stream);
        }
        Request::Check => buf.put_u8(OP_CHECK),
        Request::WalStat => buf.put_u8(OP_WAL_STAT),
        Request::Traced { trace_id, inner } => {
            buf.put_u8(OP_TRACED);
            buf.put_u64_le(*trace_id);
            // Length-framed inner payload: truncating anywhere inside
            // stays a named decode error (the raw-tail shapes like
            // SnapshotLoad would otherwise make a shorter cut "valid").
            let inner = encode_request(inner);
            buf.put_u32_le(inner.len() as u32);
            buf.put_slice(&inner);
        }
        Request::Metrics => buf.put_u8(OP_METRICS),
    }
    buf
}

/// Decodes a request payload, consuming it exactly.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut buf = payload;
    need(&buf, 1)?;
    let op = buf.get_u8();
    let req = match op {
        OP_HELLO => {
            need(&buf, 6)?;
            let mut magic = [0u8; 4];
            buf.copy_to_slice(&mut magic);
            if &magic != WIRE_MAGIC {
                return Err(WireError::BadMagic);
            }
            Request::Hello {
                version: buf.get_u16_le(),
            }
        }
        OP_CREATE => Request::Create {
            name: get_string(&mut buf)?,
        },
        OP_INSERT => {
            need(&buf, 4)?;
            let coll = CollectionId(buf.get_u32_le() as usize);
            Request::Insert {
                coll,
                region: get_region(&mut buf)?,
            }
        }
        OP_REMOVE => {
            need(&buf, 12)?;
            Request::Remove {
                coll: CollectionId(buf.get_u32_le() as usize),
                local: buf.get_u64_le(),
            }
        }
        OP_UPDATE => {
            need(&buf, 12)?;
            let coll = CollectionId(buf.get_u32_le() as usize);
            let local = buf.get_u64_le();
            Request::Update {
                coll,
                local,
                region: get_region(&mut buf)?,
            }
        }
        OP_QUERY => {
            need(&buf, 5)?;
            let coll = CollectionId(buf.get_u32_le() as usize);
            let kind = kind_from_byte(buf.get_u8())?;
            Request::Query {
                coll,
                kind,
                query: get_query(&mut buf)?,
            }
        }
        OP_STAT => Request::Stat,
        OP_COMPACT => Request::Compact,
        OP_SNAP_SAVE => Request::SnapshotSave,
        OP_SNAP_READ => Request::SnapshotRead,
        OP_SNAP_LOAD => {
            let stream = buf.to_vec();
            buf = &buf[buf.len()..];
            Request::SnapshotLoad { stream }
        }
        OP_CHECK => Request::Check,
        OP_WAL_STAT => Request::WalStat,
        OP_TRACED => {
            need(&buf, 12)?;
            let trace_id = buf.get_u64_le();
            let len = buf.get_u32_le() as usize;
            need(&buf, len)?;
            let inner_payload = &buf[..len];
            buf = &buf[len..];
            let inner = decode_request(inner_payload)?;
            if matches!(inner, Request::Traced { .. }) {
                return Err(WireError::Unexpected("nested Traced request".into()));
            }
            Request::Traced {
                trace_id,
                inner: Box::new(inner),
            }
        }
        OP_METRICS => Request::Metrics,
        other => return Err(WireError::BadOpcode(other)),
    };
    if buf.has_remaining() {
        return Err(WireError::TrailingData {
            bytes: buf.remaining(),
        });
    }
    Ok(req)
}

// ── response codec ──────────────────────────────────────────────────────

const ST_OK: u8 = 0x00;
const ST_ERR: u8 = 0x01;

const RK_HELLO: u8 = 0x01;
const RK_COLL: u8 = 0x02;
const RK_SLOT: u8 = 0x03;
const RK_FLAG: u8 = 0x04;
const RK_IDS: u8 = 0x05;
const RK_STAT: u8 = 0x06;
const RK_REMAP: u8 = 0x07;
const RK_BYTES: u8 = 0x08;
const RK_OK: u8 = 0x09;
const RK_PROBLEMS: u8 = 0x0A;
const RK_WAL_STAT: u8 = 0x0B;
// 0x0C and 0x0D are retired with the WAL-segment requests.
const RK_METRICS: u8 = 0x0E;

// Instrument kind bytes inside a [`Response::Metrics`] snapshot row.
const MK_COUNTER: u8 = 0;
// 1 is retired with the gauge instrument.
const MK_HISTOGRAM: u8 = 2;

fn put_snapshot(buf: &mut Vec<u8>, snap: &scq_obs::Snapshot) {
    buf.put_u32_le(snap.rows.len() as u32);
    for (name, value) in &snap.rows {
        put_string(buf, name);
        match value {
            scq_obs::Value::Counter(v) => {
                buf.put_u8(MK_COUNTER);
                buf.put_u64_le(*v);
            }
            scq_obs::Value::Histogram(h) => {
                buf.put_u8(MK_HISTOGRAM);
                for b in &h.buckets {
                    buf.put_u64_le(*b);
                }
                buf.put_u64_le(h.sum_us);
            }
        }
    }
}

fn get_snapshot(buf: &mut &[u8]) -> Result<scq_obs::Snapshot, WireError> {
    need(buf, 4)?;
    let n = buf.get_u32_le() as usize;
    let mut rows = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = get_string(buf)?;
        need(buf, 1)?;
        let value = match buf.get_u8() {
            MK_COUNTER => {
                need(buf, 8)?;
                scq_obs::Value::Counter(buf.get_u64_le())
            }
            MK_HISTOGRAM => {
                need(buf, (scq_obs::N_BUCKETS + 1) * 8)?;
                let mut h = scq_obs::HistogramSnapshot::default();
                for b in &mut h.buckets {
                    *b = buf.get_u64_le();
                }
                h.sum_us = buf.get_u64_le();
                scq_obs::Value::Histogram(h)
            }
            other => return Err(WireError::BadMetricKind(other)),
        };
        rows.push((name, value));
    }
    Ok(scq_obs::Snapshot { rows })
}

/// Serializes a response into a frame payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Err(message) => {
            buf.put_u8(ST_ERR);
            put_string(&mut buf, message);
            return buf;
        }
        _ => buf.put_u8(ST_OK),
    }
    match resp {
        Response::Hello { version } => {
            buf.put_u8(RK_HELLO);
            buf.put_u16_le(*version);
        }
        Response::Coll(id) => {
            buf.put_u8(RK_COLL);
            buf.put_u32_le(id.0 as u32);
        }
        Response::Slot(local) => {
            buf.put_u8(RK_SLOT);
            buf.put_u64_le(*local);
        }
        Response::Flag(v) => {
            buf.put_u8(RK_FLAG);
            buf.put_u8(*v as u8);
        }
        Response::Ids(ids) => {
            buf.put_u8(RK_IDS);
            buf.put_u32_le(ids.len() as u32);
            for id in ids {
                buf.put_u64_le(*id);
            }
        }
        Response::Stat(rows) => {
            buf.put_u8(RK_STAT);
            buf.put_u32_le(rows.len() as u32);
            for (name, slots, live) in rows {
                put_string(&mut buf, name);
                buf.put_u64_le(*slots);
                buf.put_u64_le(*live);
            }
        }
        Response::Remap { reclaimed, remap } => {
            buf.put_u8(RK_REMAP);
            buf.put_u64_le(*reclaimed);
            buf.put_u32_le(remap.len() as u32);
            for coll in remap {
                buf.put_u64_le(coll.len() as u64);
                for slot in coll {
                    // 0 = dropped, else new index + 1.
                    buf.put_u64_le(slot.map_or(0, |i| i + 1));
                }
            }
        }
        Response::Bytes(bytes) => {
            buf.put_u8(RK_BYTES);
            buf.put_slice(bytes);
        }
        Response::Ok => buf.put_u8(RK_OK),
        Response::Problems(problems) => {
            buf.put_u8(RK_PROBLEMS);
            buf.put_u32_le(problems.len() as u32);
            for p in problems {
                put_string(&mut buf, p);
            }
        }
        Response::WalStat(stats) => {
            buf.put_u8(RK_WAL_STAT);
            buf.put_u64_le(stats.appended);
            buf.put_u64_le(stats.replayed);
            buf.put_u64_le(stats.fsync_batches);
            buf.put_u64_le(stats.segments);
            buf.put_u64_le(stats.bytes);
            buf.put_u64_le(stats.torn_tails);
        }
        Response::Metrics(snap) => {
            buf.put_u8(RK_METRICS);
            put_snapshot(&mut buf, snap);
        }
        Response::Err(_) => unreachable!("handled above"),
    }
    buf
}

/// Decodes a response payload, consuming it exactly.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut buf = payload;
    need(&buf, 1)?;
    match buf.get_u8() {
        ST_ERR => {
            let message = get_string(&mut buf)?;
            if buf.has_remaining() {
                return Err(WireError::TrailingData {
                    bytes: buf.remaining(),
                });
            }
            return Ok(Response::Err(message));
        }
        ST_OK => {}
        other => return Err(WireError::BadStatus(other)),
    }
    need(&buf, 1)?;
    let resp = match buf.get_u8() {
        RK_HELLO => {
            need(&buf, 2)?;
            Response::Hello {
                version: buf.get_u16_le(),
            }
        }
        RK_COLL => {
            need(&buf, 4)?;
            Response::Coll(CollectionId(buf.get_u32_le() as usize))
        }
        RK_SLOT => {
            need(&buf, 8)?;
            Response::Slot(buf.get_u64_le())
        }
        RK_FLAG => {
            need(&buf, 1)?;
            Response::Flag(buf.get_u8() & 1 != 0)
        }
        RK_IDS => {
            need(&buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(&buf, n.saturating_mul(8))?;
            Response::Ids((0..n).map(|_| buf.get_u64_le()).collect())
        }
        RK_STAT => {
            need(&buf, 4)?;
            let n = buf.get_u32_le() as usize;
            let mut rows = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = get_string(&mut buf)?;
                need(&buf, 16)?;
                rows.push((name, buf.get_u64_le(), buf.get_u64_le()));
            }
            Response::Stat(rows)
        }
        RK_REMAP => {
            need(&buf, 12)?;
            let reclaimed = buf.get_u64_le();
            let n_coll = buf.get_u32_le() as usize;
            let mut remap = Vec::with_capacity(n_coll.min(1024));
            for _ in 0..n_coll {
                need(&buf, 8)?;
                let n_slots = buf.get_u64_le() as usize;
                need(&buf, n_slots.saturating_mul(8))?;
                remap.push(
                    (0..n_slots)
                        .map(|_| match buf.get_u64_le() {
                            0 => None,
                            i => Some(i - 1),
                        })
                        .collect(),
                );
            }
            Response::Remap { reclaimed, remap }
        }
        RK_BYTES => {
            let bytes = buf.to_vec();
            buf = &buf[buf.len()..];
            Response::Bytes(bytes)
        }
        RK_OK => Response::Ok,
        RK_PROBLEMS => {
            need(&buf, 4)?;
            let n = buf.get_u32_le() as usize;
            let mut problems = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                problems.push(get_string(&mut buf)?);
            }
            Response::Problems(problems)
        }
        RK_WAL_STAT => {
            need(&buf, 48)?;
            Response::WalStat(crate::wal::WalStats {
                appended: buf.get_u64_le(),
                replayed: buf.get_u64_le(),
                fsync_batches: buf.get_u64_le(),
                segments: buf.get_u64_le(),
                bytes: buf.get_u64_le(),
                torn_tails: buf.get_u64_le(),
            })
        }
        RK_METRICS => Response::Metrics(get_snapshot(&mut buf)?),
        other => return Err(WireError::BadOpcode(other)),
    };
    if buf.has_remaining() {
        return Err(WireError::TrailingData {
            bytes: buf.remaining(),
        });
    }
    Ok(resp)
}

// ── mux framing ─────────────────────────────────────────────────────────
//
// After the handshake, every payload on the connection (both
// directions) carries a 9-byte mux header in front of the message
// bytes:
//
// ```text
// payload := u8 mux-kind | u64 LE request id | body
// ```
//
// The outer `u32 LE length | payload` framing is the same one the
// handshake uses, so `FrameReader`, `read_frame` and every frame-level
// tool (`scq_testkit::fault`'s proxy included) work on mux traffic
// untouched. The kind bytes live in 0xF1..=0xF5 — disjoint from every
// request opcode (0x01..=0x13) and response status byte (0x00/0x01),
// so a plain payload can never be mistaken for a mux one (`is_mux`).
// Hello frames and connection-level error frames (a refused handshake,
// framing poison) belong to no request and always travel plain.
//
// Responses complete in one of two shapes: a single [`MUX_RESP`] frame
// carrying the whole encoded response, or — when the response exceeds
// the server's chunk threshold — a run of [`MUX_CHUNK`] frames closed
// by a [`MUX_END`] frame, all sharing the request id. Chunks of
// *different* ids may interleave freely; [`MuxReassembly`] keeps the
// per-id partial buffers apart and never mixes them.

/// Mux kind: client→server, `body` is an encoded [`Request`].
pub const MUX_REQ: u8 = 0xF1;
/// Mux kind: server→client, `body` is a complete encoded [`Response`].
pub const MUX_RESP: u8 = 0xF2;
/// Mux kind: server→client, one non-final slice of an oversized
/// response. The reassembled concatenation of every chunk body plus the
/// [`MUX_END`] body is the encoded [`Response`].
pub(crate) const MUX_CHUNK: u8 = 0xF3;
/// Mux kind: server→client, the final slice of a chunked response —
/// the explicit end-of-stream marker.
pub(crate) const MUX_END: u8 = 0xF4;
/// Mux kind: client→server, empty body. The client no longer wants the
/// answer for this id; the server drops any undelivered frames for it.
/// Best-effort — a response already in flight may still arrive and is
/// discarded client-side.
pub(crate) const MUX_CANCEL: u8 = 0xF5;

/// Byte length of the mux header (`u8` kind + `u64` request id).
pub const MUX_HEADER: usize = 9;

/// Whether a decoded frame payload is mux-framed (first byte is a mux
/// kind). Kind bytes are disjoint from opcodes and status bytes, so
/// this is unambiguous on any well-formed payload.
pub fn is_mux(payload: &[u8]) -> bool {
    matches!(payload.first(), Some(&k) if (MUX_REQ..=MUX_CANCEL).contains(&k))
}

/// One decoded mux frame: kind byte, request id, and the body bytes
/// (an encoded request, an encoded response, or a response slice).
#[derive(Clone, Debug, PartialEq)]
pub struct MuxFrame {
    /// One of [`MUX_REQ`]..=`MUX_CANCEL`.
    pub kind: u8,
    /// The request id this frame belongs to.
    pub id: u64,
    /// Frame body (may be empty, e.g. `MUX_CANCEL`).
    pub body: Vec<u8>,
}

/// Prepends the mux header to a body, producing a frame payload ready
/// for [`frame`].
pub fn encode_mux(kind: u8, id: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MUX_HEADER + body.len());
    out.put_u8(kind);
    out.put_u64_le(id);
    out.put_slice(body);
    out
}

/// Splits a mux header off a frame payload. A payload shorter than the
/// header is [`WireError::Truncated`]; an unknown kind byte is
/// [`WireError::BadOpcode`] — named errors in the codec's usual style,
/// never a panic.
pub fn decode_mux(payload: &[u8]) -> Result<MuxFrame, WireError> {
    if payload.len() < MUX_HEADER {
        return Err(WireError::Truncated);
    }
    let kind = payload[0];
    if !(MUX_REQ..=MUX_CANCEL).contains(&kind) {
        return Err(WireError::BadOpcode(kind));
    }
    let id = u64::from_le_bytes(payload[1..MUX_HEADER].try_into().unwrap());
    Ok(MuxFrame {
        kind,
        id,
        body: payload[MUX_HEADER..].to_vec(),
    })
}

/// Splits one encoded response into the mux payloads that deliver it
/// for request `id`: a single [`MUX_RESP`] when it fits in `chunk`
/// bytes, otherwise [`MUX_CHUNK`] slices closed by a [`MUX_END`]
/// carrying the final slice. Servers pass [`STREAM_CHUNK`]; tests pass
/// tiny chunk sizes to exercise many-chunk streams cheaply.
pub(crate) fn split_response(id: u64, response: &[u8], chunk: usize) -> Vec<Vec<u8>> {
    let chunk = chunk.max(1);
    if response.len() <= chunk {
        return vec![encode_mux(MUX_RESP, id, response)];
    }
    let mut out = Vec::with_capacity(response.len() / chunk + 1);
    let mut slices = response.chunks(chunk).peekable();
    while let Some(s) = slices.next() {
        let kind = if slices.peek().is_some() {
            MUX_CHUNK
        } else {
            MUX_END
        };
        out.push(encode_mux(kind, id, s));
    }
    out
}

/// Client-side reassembly of interleaved mux response streams: partial
/// chunk buffers keyed by request id, so chunks of different requests
/// can interleave arbitrarily and still reassemble into the right
/// answers. Feed every inbound server frame to [`MuxReassembly::accept`];
/// it yields `(id, response bytes)` exactly when a response completes.
#[derive(Debug, Default)]
pub(crate) struct MuxReassembly {
    partial: std::collections::HashMap<u64, Vec<u8>>,
}

impl MuxReassembly {
    /// Empty reassembler.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Accepts one server→client mux frame. Returns the completed
    /// `(id, response bytes)` when this frame finishes a response
    /// ([`MUX_RESP`], or [`MUX_END`] closing a chunk run), `None` while
    /// a stream is still open. Client-side kinds ([`MUX_REQ`],
    /// [`MUX_CANCEL`]) and a [`MUX_RESP`] colliding with an open chunk
    /// stream for the same id are [`WireError::Unexpected`] — a
    /// desynchronized peer, kept loud.
    pub(crate) fn accept(&mut self, frame: MuxFrame) -> Result<Option<(u64, Vec<u8>)>, WireError> {
        match frame.kind {
            MUX_RESP => {
                if self.partial.contains_key(&frame.id) {
                    return Err(WireError::Unexpected(format!(
                        "unchunked response for request {} with a chunk stream open",
                        frame.id
                    )));
                }
                Ok(Some((frame.id, frame.body)))
            }
            MUX_CHUNK => {
                self.partial
                    .entry(frame.id)
                    .or_default()
                    .extend_from_slice(&frame.body);
                Ok(None)
            }
            MUX_END => {
                let mut buf = self.partial.remove(&frame.id).unwrap_or_default();
                buf.extend_from_slice(&frame.body);
                Ok(Some((frame.id, buf)))
            }
            other => Err(WireError::Unexpected(format!(
                "client received mux kind {other:#04x} (request-direction frame)"
            ))),
        }
    }

    /// Number of ids with a chunk stream currently open.
    #[cfg(test)]
    fn in_progress(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_bbox::Bbox;
    use scq_region::AaBox;

    fn sample_requests() -> Vec<Request> {
        let region = Region::from_boxes([
            AaBox::new([1.0, 2.0], [3.0, 4.0]),
            AaBox::new([7.0, 7.0], [9.0, 8.0]),
        ]);
        vec![
            Request::Hello {
                version: WIRE_VERSION,
            },
            Request::Create {
                name: "towns".into(),
            },
            Request::Insert {
                coll: CollectionId(3),
                region: region.clone(),
            },
            Request::Insert {
                coll: CollectionId(0),
                region: Region::empty(),
            },
            Request::Remove {
                coll: CollectionId(1),
                local: 42,
            },
            Request::Update {
                coll: CollectionId(2),
                local: 7,
                region,
            },
            Request::Query {
                coll: CollectionId(0),
                kind: IndexKind::GridFile,
                query: CornerQuery::unconstrained()
                    .and_overlaps(&Bbox::new([1.0, 1.0], [5.0, 5.0]))
                    .and_contains(&Bbox::new([2.0, 2.0], [3.0, 3.0])),
            },
            Request::Query {
                coll: CollectionId(0),
                kind: IndexKind::Scan,
                query: CornerQuery::unsatisfiable(),
            },
            Request::Stat,
            Request::Compact,
            Request::SnapshotSave,
            Request::SnapshotRead,
            Request::SnapshotLoad {
                stream: vec![1, 2, 3, 4, 5],
            },
            Request::Check,
            Request::WalStat,
            Request::Traced {
                trace_id: 0xDEAD_BEEF_CAFE,
                inner: Box::new(Request::Query {
                    coll: CollectionId(4),
                    kind: IndexKind::RTree,
                    query: CornerQuery::unconstrained()
                        .and_overlaps(&Bbox::new([0.0, 0.0], [2.0, 2.0])),
                }),
            },
            Request::Traced {
                trace_id: 1,
                inner: Box::new(Request::Stat),
            },
            Request::Metrics,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Hello {
                version: WIRE_VERSION,
            },
            Response::Coll(CollectionId(5)),
            Response::Slot(99),
            Response::Flag(true),
            Response::Flag(false),
            Response::Ids(vec![0, 3, 17, u64::MAX - 1]),
            Response::Ids(vec![]),
            Response::Stat(vec![("towns".into(), 10, 8), ("roads".into(), 0, 0)]),
            Response::Remap {
                reclaimed: 3,
                remap: vec![vec![Some(0), None, Some(1)], vec![]],
            },
            Response::Bytes(vec![9, 8, 7]),
            Response::Ok,
            Response::Problems(vec!["shard desync".into()]),
            Response::Problems(vec![]),
            Response::WalStat(crate::wal::WalStats {
                appended: 11,
                replayed: 7,
                fsync_batches: 3,
                segments: 2,
                bytes: 4096,
                torn_tails: 1,
            }),
            Response::Metrics(scq_obs::Snapshot { rows: vec![] }),
            Response::Metrics(scq_obs::Snapshot {
                rows: vec![
                    (
                        "shard.op.latency".into(),
                        scq_obs::Value::Histogram(scq_obs::HistogramSnapshot {
                            buckets: std::array::from_fn(|i| (i as u64) % 5),
                            sum_us: 12_345,
                        }),
                    ),
                    ("shard.ops".into(), scq_obs::Value::Counter(42)),
                ],
            }),
            Response::Err("no such collection".into()),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let payload = encode_request(&req);
            assert_eq!(decode_request(&payload).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn unsatisfiable_query_round_trips_as_unsatisfiable() {
        let payload = encode_request(&Request::Query {
            coll: CollectionId(0),
            kind: IndexKind::RTree,
            query: CornerQuery::unsatisfiable(),
        });
        match decode_request(&payload).unwrap() {
            Request::Query { query, .. } => assert!(query.is_unsatisfiable()),
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn truncated_payloads_error_never_panic() {
        for req in sample_requests() {
            let payload = encode_request(&req);
            for cut in 0..payload.len() {
                // SnapshotLoad's body is raw bytes: every prefix that
                // still carries the opcode is a (shorter) valid message.
                if payload[0] == OP_SNAP_LOAD && cut >= 1 {
                    assert!(decode_request(&payload[..cut]).is_ok());
                } else {
                    assert!(
                        decode_request(&payload[..cut]).is_err(),
                        "{req:?} prefix {cut} accepted"
                    );
                }
            }
        }
        for resp in sample_responses() {
            let payload = encode_response(&resp);
            for cut in 0..payload.len() {
                if payload.len() >= 2 && payload[1] == RK_BYTES && cut >= 2 {
                    assert!(decode_response(&payload[..cut]).is_ok());
                } else {
                    assert!(
                        decode_response(&payload[..cut]).is_err(),
                        "{resp:?} prefix {cut} accepted"
                    );
                }
            }
        }
    }

    #[test]
    fn nested_traced_requests_are_rejected() {
        let payload = encode_request(&Request::Traced {
            trace_id: 9,
            inner: Box::new(Request::Stat),
        });
        // Hand-build Traced(Traced(Stat)): the decoder must name the
        // nesting, not recurse forever or accept it.
        let mut outer = Vec::new();
        outer.put_u8(OP_TRACED);
        outer.put_u64_le(8);
        outer.put_u32_le(payload.len() as u32);
        outer.put_slice(&payload);
        assert!(matches!(
            decode_request(&outer).err(),
            Some(WireError::Unexpected(_))
        ));
    }

    #[test]
    fn traced_round_trips_the_inner_request_exactly() {
        for inner in [
            Request::Stat,
            Request::Metrics,
            Request::Create { name: "t".into() },
        ] {
            let req = Request::Traced {
                trace_id: u64::MAX,
                inner: Box::new(inner),
            };
            let payload = encode_request(&req);
            assert_eq!(payload[0], OP_TRACED);
            assert_eq!(decode_request(&payload).unwrap(), req);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Stat);
        payload.push(0);
        assert_eq!(
            decode_request(&payload).err(),
            Some(WireError::TrailingData { bytes: 1 })
        );
        let mut payload = encode_response(&Response::Slot(3));
        payload.extend_from_slice(&[0, 0]);
        assert_eq!(
            decode_response(&payload).err(),
            Some(WireError::TrailingData { bytes: 2 })
        );
    }

    #[test]
    fn unknown_opcodes_and_kinds_are_named_errors() {
        assert_eq!(
            decode_request(&[0xEE]).err(),
            Some(WireError::BadOpcode(0xEE))
        );
        assert_eq!(
            decode_response(&[0x07]).err(),
            Some(WireError::BadStatus(0x07))
        );
        // query with a bogus index kind byte
        let mut payload = encode_request(&Request::Query {
            coll: CollectionId(0),
            kind: IndexKind::Scan,
            query: CornerQuery::unconstrained(),
        });
        payload[5] = 9;
        assert_eq!(
            decode_request(&payload).err(),
            Some(WireError::BadIndexKind(9))
        );
    }

    /// A metrics row's kind byte names the instrument. Byte 1 (the
    /// gauge) is retired at the same wire version, so it and any other
    /// unknown byte are refused as a bad metric kind, not an opcode.
    #[test]
    fn unknown_metric_kinds_are_bad_metric_kinds() {
        let payload = encode_response(&Response::Metrics(scq_obs::Snapshot {
            rows: vec![("shard.ops".into(), scq_obs::Value::Counter(42))],
        }));
        // The row ends with its kind byte and an eight-byte value.
        let kind_at = payload.len() - 9;
        assert_eq!(payload[kind_at], MK_COUNTER);
        for kind in [1u8, 0xFF] {
            let mut bad = payload.clone();
            bad[kind_at] = kind;
            assert_eq!(
                decode_response(&bad).err(),
                Some(WireError::BadMetricKind(kind))
            );
        }
    }

    /// The opcodes that once shipped WAL segments (0x0E, 0x0F) were
    /// retired at the same wire version: a peer that still sends one
    /// (here with a one-segment body) is refused by name.
    #[test]
    fn retired_wal_shipping_opcodes_are_bad_opcodes() {
        for op in [0x0E, 0x0F] {
            let payload = [op, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
            assert_eq!(
                decode_request(&payload).err(),
                Some(WireError::BadOpcode(op))
            );
        }
    }

    /// `BYE` (0x0C) and `EPOCHS` (0x13) were bodiless; at the same
    /// wire version their bytes are refused by name.
    #[test]
    fn retired_close_and_epoch_opcodes_are_bad_opcodes() {
        for op in [0x0C, 0x13] {
            assert_eq!(decode_request(&[op]).err(), Some(WireError::BadOpcode(op)));
        }
        assert_eq!(WIRE_VERSION, 4, "retiring a message keeps the version");
    }

    #[test]
    fn bad_magic_and_nan_coordinates_are_rejected() {
        let mut payload = encode_request(&Request::Hello {
            version: WIRE_VERSION,
        });
        payload[1] = b'X';
        assert_eq!(decode_request(&payload).err(), Some(WireError::BadMagic));
        // NaN in a query bound
        let mut payload = encode_request(&Request::Query {
            coll: CollectionId(0),
            kind: IndexKind::RTree,
            query: CornerQuery::unconstrained(),
        });
        let nan_at = payload.len() - 1 - 8; // last f64 before the unsat byte
        payload[nan_at..nan_at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            decode_request(&payload).err(),
            Some(WireError::BadCoordinate)
        );
        // infinite region fragment coordinate
        let mut payload = encode_request(&Request::Insert {
            coll: CollectionId(0),
            region: Region::from_box(AaBox::new([0.0, 0.0], [1.0, 1.0])),
        });
        let frag_at = payload.len() - 32;
        payload[frag_at..frag_at + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
        assert_eq!(
            decode_request(&payload).err(),
            Some(WireError::BadCoordinate)
        );
    }

    #[test]
    fn region_fragments_round_trip_unchanged_and_an_overlap_is_named() {
        let region = Region::from_boxes([
            AaBox::new([0.0, 0.0], [2.0, 2.0]),
            AaBox::new([5.0, 5.0], [6.0, 6.0]),
        ]);
        let insert = |region: Region<2>| Request::Insert {
            coll: CollectionId(0),
            region,
        };
        let payload = encode_request(&insert(region.clone()));
        let Ok(Request::Insert { region: back, .. }) = decode_request(&payload) else {
            panic!("an insert decodes");
        };
        assert_eq!(back.boxes(), region.boxes());
        // The last fragment is the payload's last 32 bytes: move it
        // onto the first. Decoding names the overlap; it does not union.
        let mut bad = payload.clone();
        let at = bad.len() - 32;
        for (i, v) in [1.0f64, 1.0, 3.0, 3.0].iter().enumerate() {
            bad[at + 8 * i..at + 8 * i + 8].copy_from_slice(&v.to_le_bytes());
        }
        assert_eq!(
            decode_request(&bad).err(),
            Some(WireError::BadRegion(FragmentError::Overlap))
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut fr = FrameReader::new();
        fr.push(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            fr.next_frame().err(),
            Some(WireError::Oversized { .. })
        ));
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut r: &[u8] = &huge;
        assert!(matches!(
            read_frame(&mut r).err(),
            Some(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn frame_reader_assembles_across_arbitrary_chunking() {
        let a = frame(&encode_request(&Request::Stat)).unwrap();
        let b = frame(&encode_request(&Request::Create {
            name: "roads".into(),
        }))
        .unwrap();
        let mut stream: Vec<u8> = a.clone();
        stream.extend_from_slice(&b);
        for chunk in [1usize, 2, 3, 5, stream.len()] {
            let mut fr = FrameReader::new();
            let mut frames = Vec::new();
            for piece in stream.chunks(chunk) {
                fr.push(piece);
                while let Some(f) = fr.next_frame().unwrap() {
                    frames.push(f);
                }
            }
            assert_eq!(frames.len(), 2, "chunk size {chunk}");
            assert_eq!(decode_request(&frames[0]).unwrap(), Request::Stat);
            assert!(!fr.mid_frame());
        }
    }

    #[test]
    fn read_frame_distinguishes_clean_close_from_truncation() {
        let payload = encode_request(&Request::Stat);
        let framed = frame(&payload).unwrap();
        let mut r: &[u8] = &framed;
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean close");
        let mut cut: &[u8] = &framed[..framed.len() - 1];
        assert_eq!(read_frame(&mut cut).err(), Some(WireError::Truncated));
        let mut header_only: &[u8] = &framed[..2];
        assert_eq!(
            read_frame(&mut header_only).err(),
            Some(WireError::TruncatedLengthPrefix { got: 2 })
        );
    }

    /// Every truncation offset of a whole **framed** message (length
    /// prefix included, the layer the payload-truncation test above
    /// never cut): offset 0 is a clean close, offsets inside the prefix
    /// are the distinct [`WireError::TruncatedLengthPrefix`], offsets
    /// inside the declared body are [`WireError::Truncated`]. Run over
    /// every sample request and response so new frame shapes stay
    /// covered automatically.
    #[test]
    fn every_framing_truncation_offset_is_a_named_error() {
        let mut framed_messages: Vec<Vec<u8>> = sample_requests()
            .iter()
            .map(|r| frame(&encode_request(r)).unwrap())
            .collect();
        framed_messages.extend(
            sample_responses()
                .iter()
                .map(|r| frame(&encode_response(r)).unwrap()),
        );
        for framed in framed_messages {
            for cut in 0..framed.len() {
                let mut r: &[u8] = &framed[..cut];
                match read_frame(&mut r) {
                    Ok(None) => assert_eq!(cut, 0, "only an empty stream is a clean close"),
                    Err(WireError::TruncatedLengthPrefix { got }) => {
                        assert!((1..4).contains(&cut), "prefix error at offset {cut}");
                        assert_eq!(got, cut);
                    }
                    Err(WireError::Truncated) => {
                        assert!(cut >= 4, "body error before the prefix completed")
                    }
                    other => panic!("offset {cut}: unexpected {other:?}"),
                }
            }
            // the un-truncated frame still reads back whole
            let mut r: &[u8] = &framed;
            assert!(read_frame(&mut r).unwrap().is_some());
        }
    }

    // ── mux framing ─────────────────────────────────────────────────

    #[test]
    fn mux_frames_round_trip() {
        let body = encode_request(&Request::Stat);
        for (kind, id, body) in [
            (MUX_REQ, 1u64, body.clone()),
            (MUX_RESP, u64::MAX, encode_response(&Response::Ok)),
            (MUX_CHUNK, 7, vec![0xAB; 100]),
            (MUX_END, 7, vec![]),
            (MUX_CANCEL, 42, vec![]),
        ] {
            let payload = encode_mux(kind, id, &body);
            assert!(is_mux(&payload));
            let frame = decode_mux(&payload).unwrap();
            assert_eq!(frame, MuxFrame { kind, id, body });
        }
    }

    #[test]
    fn mux_kinds_are_disjoint_from_plain_payloads() {
        // No plain request or response payload can be mistaken for a mux
        // frame: kind bytes live above every opcode and status byte.
        for req in sample_requests() {
            assert!(!is_mux(&encode_request(&req)), "{req:?}");
        }
        for resp in sample_responses() {
            assert!(!is_mux(&encode_response(&resp)), "{resp:?}");
        }
        assert!(!is_mux(&[]));
        assert_eq!(
            decode_mux(&encode_mux(0xF6, 1, &[])).err(),
            Some(WireError::BadOpcode(0xF6))
        );
    }

    #[test]
    fn split_response_streams_and_reassembles_exactly() {
        let resp = Response::Ids((0..1000).collect());
        let encoded = encode_response(&resp);
        // Fits: one MUX_RESP.
        let whole = split_response(3, &encoded, encoded.len());
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0][0], MUX_RESP);
        // Oversized: CHUNK… + END, every slice under the chunk size,
        // reassembling byte-exact.
        let parts = split_response(3, &encoded, 100);
        assert!(parts.len() >= 2);
        let mut reasm = MuxReassembly::new();
        let mut done = None;
        for (i, p) in parts.iter().enumerate() {
            let f = decode_mux(p).unwrap();
            assert!(f.body.len() <= 100);
            assert_eq!(f.id, 3);
            let expected_kind = if i + 1 == parts.len() {
                MUX_END
            } else {
                MUX_CHUNK
            };
            assert_eq!(f.kind, expected_kind, "slice {i}");
            if let Some(full) = reasm.accept(f).unwrap() {
                assert_eq!(i + 1, parts.len(), "completed before the END frame");
                done = Some(full);
            }
        }
        let (id, bytes) = done.expect("stream never completed");
        assert_eq!(id, 3);
        assert_eq!(bytes, encoded);
        assert_eq!(decode_response(&bytes).unwrap(), resp);
        assert_eq!(reasm.in_progress(), 0);
    }

    #[test]
    fn mux_reassembly_rejects_request_direction_and_colliding_frames() {
        let mut reasm = MuxReassembly::new();
        for kind in [MUX_REQ, MUX_CANCEL] {
            assert!(matches!(
                reasm.accept(MuxFrame {
                    kind,
                    id: 1,
                    body: vec![]
                }),
                Err(WireError::Unexpected(_))
            ));
        }
        // A whole response colliding with an open chunk stream for the
        // same id is a desynchronized server, not silently resolved.
        reasm
            .accept(MuxFrame {
                kind: MUX_CHUNK,
                id: 9,
                body: vec![1, 2],
            })
            .unwrap();
        assert!(matches!(
            reasm.accept(MuxFrame {
                kind: MUX_RESP,
                id: 9,
                body: vec![]
            }),
            Err(WireError::Unexpected(_))
        ));
    }

    /// The mux mirror of [`every_framing_truncation_offset_is_a_named_error`]:
    /// cut a framed mux message (request, whole response, chunk,
    /// end-of-stream, cancel) at every byte offset. The frame layer
    /// yields the same named errors as for plain frames (the outer
    /// framing is the same), and a payload cut inside the 9-byte mux header is
    /// [`WireError::Truncated`] from `decode_mux`.
    #[test]
    fn every_mux_truncation_offset_is_a_named_error() {
        let req_body = encode_request(&Request::Query {
            coll: CollectionId(0),
            kind: IndexKind::RTree,
            query: CornerQuery::unconstrained(),
        });
        let resp_body = encode_response(&Response::Ids(vec![1, 2, 3]));
        let payloads = vec![
            encode_mux(MUX_REQ, 1, &req_body),
            encode_mux(MUX_RESP, 2, &resp_body),
            encode_mux(MUX_CHUNK, 3, &resp_body[..5]),
            encode_mux(MUX_END, 3, &resp_body[5..]),
            encode_mux(MUX_CANCEL, 4, &[]),
        ];
        for payload in payloads {
            // Frame layer: identical behavior to plain framing.
            let framed = frame(&payload).unwrap();
            for cut in 0..framed.len() {
                let mut r: &[u8] = &framed[..cut];
                match read_frame(&mut r) {
                    Ok(None) => assert_eq!(cut, 0),
                    Err(WireError::TruncatedLengthPrefix { got }) => {
                        assert!((1..4).contains(&cut));
                        assert_eq!(got, cut);
                    }
                    Err(WireError::Truncated) => assert!(cut >= 4),
                    other => panic!("offset {cut}: unexpected {other:?}"),
                }
            }
            // Mux header layer: a cut inside the header is named; past
            // the header the frame decodes (the body is opaque here)
            // and the *inner* codec is the one that rejects short
            // bodies — covered by truncated_payloads_error_never_panic.
            for cut in 0..payload.len() {
                let res = decode_mux(&payload[..cut]);
                if cut < MUX_HEADER {
                    assert_eq!(res.err(), Some(WireError::Truncated), "cut {cut}");
                } else {
                    assert_eq!(res.unwrap().body, payload[MUX_HEADER..cut].to_vec());
                }
            }
            // An un-truncated payload round-trips whole.
            assert!(is_mux(&payload));
            assert!(decode_mux(&payload).is_ok());
        }
    }
}

#[cfg(test)]
mod mux_interleaving_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Responses split into chunk streams and interleaved out of
        /// order across many request ids always reassemble byte-exact
        /// per id — reassembly never mixes bytes across ids, whatever
        /// the arrival order.
        #[test]
        fn out_of_order_interleaving_never_crosses_ids(
            sizes in proptest::collection::vec(0usize..400, 1..6),
            chunk in 1usize..64,
            picks in proptest::collection::vec(0usize..64, 0..512),
        ) {
            // One response per id: distinct, recognizable bodies.
            let responses: Vec<(u64, Vec<u8>)> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let id = i as u64 + 1;
                    let ids = (0..n as u64).map(|v| v * 1000 + id).collect();
                    (id, encode_response(&Response::Ids(ids)))
                })
                .collect();
            let mut queues: Vec<std::collections::VecDeque<Vec<u8>>> = responses
                .iter()
                .map(|(id, enc)| split_response(*id, enc, chunk).into())
                .collect();
            // Interleave: each pick selects among the still-non-empty
            // streams; leftovers drain round-robin so every stream
            // always finishes.
            let mut arrival = Vec::new();
            let mut picks = picks.into_iter();
            loop {
                let live: Vec<usize> = (0..queues.len())
                    .filter(|&q| !queues[q].is_empty())
                    .collect();
                if live.is_empty() {
                    break;
                }
                let q = live[picks.next().unwrap_or(0) % live.len()];
                arrival.push(queues[q].pop_front().unwrap());
            }
            let mut reasm = MuxReassembly::new();
            let mut completed = std::collections::HashMap::new();
            for payload in arrival {
                let frame = decode_mux(&payload).unwrap();
                if let Some((id, bytes)) = reasm.accept(frame).unwrap() {
                    prop_assert!(completed.insert(id, bytes).is_none(), "id completed twice");
                }
            }
            prop_assert_eq!(reasm.in_progress(), 0);
            prop_assert_eq!(completed.len(), responses.len());
            for (id, enc) in &responses {
                prop_assert_eq!(completed.get(id), Some(enc));
            }
        }
    }
}
