//! The shard server: one [`SpatialDatabase`] behind the wire protocol.
//!
//! This is what runs inside each shard **process** of a cluster
//! (`scq-serve --shard`). It knows nothing about siblings, routing or
//! global slots — it answers exactly the [`crate::ShardBackend`]
//! contract over TCP: mutations and compaction under a write lock,
//! corner queries and snapshot streaming under a read lock, so one
//! router connection and any number of diagnostic connections can work
//! concurrently.
//!
//! Sockets, the event loop and the worker pool
//! ([`ShardServerConfig::threads`]) belong to the shared
//! [`crate::reactor`]; this module supplies the protocol and the
//! request handlers. A connection opens with a plain-framed
//! [`Request::Hello`], answered inline on the loop thread: it is cheap,
//! and the connection must be in mux framing before any later buffered
//! frame is parsed. From then on every frame carries a request id
//! ([`crate::wire::MUX_REQ`] and friends): any number of requests run
//! concurrently across the worker pool, responses complete out of
//! order, and a response bigger than `STREAM_CHUNK` streams back as
//! `MUX_CHUNK…MUX_END` — the 64 MiB frame cap is not a cap on answers.
//! `MUX_CANCEL` drops a pending answer before it is written.
//!
//! Connection-level poison — a handshake at another version, a request
//! before the handshake, an oversized length prefix, a frame that is
//! not mux-framed after it — earns one plain error frame and a closed
//! connection (the stream cannot be resynchronized). A request *body*
//! that fails to decode is answered with an error under its id and the
//! connection lives on: the framing layer is intact and other in-flight
//! requests are unaffected. Shard-level failures (unknown collection,
//! bad snapshot payload) are ordinary [`Response::Err`]s.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, RwLock};

use scq_engine::{snapshot, CollectionId, SpatialDatabase};
use scq_region::AaBox;

use crate::reactor::{self, Port, Protocol, ReactorHandle};
use crate::wal::{Wal, WalConfig, WalStats};
use crate::wire::{
    decode_mux, decode_request, encode_response, frame, split_response, FrameReader, Request,
    Response, MUX_CANCEL, MUX_REQ, OP_HELLO, STREAM_CHUNK, WIRE_VERSION,
};

/// Shard server configuration.
#[derive(Clone, Debug)]
pub struct ShardServerConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads executing requests. The event loop handles all
    /// socket readiness on its own thread; this bounds how many
    /// requests *run* concurrently (and how many WAL group-commit
    /// waits can overlap), not how many connections are open or how
    /// many requests are in flight.
    pub threads: usize,
    /// Hard cap on concurrently open connections: a connection
    /// accepted while this many are live is closed immediately (its
    /// peer sees a transport failure, which a router retries for a
    /// diagnostic and reports for a write). A router needs one
    /// multiplexed connection per shard, so this bounds misbehaving
    /// peers, not legitimate concurrency.
    pub max_connections: usize,
    /// The universe square side: the shard spans `[0, size]²`. Must
    /// match the router tier's universe or the cluster handshake's
    /// consistency checks will reject the shard.
    pub universe_size: f64,
    /// Write-ahead log, when the shard should survive crashes: startup
    /// recovers the directory (newest snapshot + replay) instead of
    /// starting empty, and every mutation is acknowledged only once
    /// its log record is fsynced. `None` keeps the shard purely
    /// in-memory.
    pub wal: Option<WalConfig>,
}

impl Default for ShardServerConfig {
    fn default() -> Self {
        ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            max_connections: 64,
            universe_size: 1000.0,
            wal: None,
        }
    }
}

/// The shard a server drives: the database plus its optional log.
/// Mutations append under the database write lock (so log order is
/// apply order) and wait for durability after releasing it.
struct ShardState {
    db: RwLock<SpatialDatabase<2>>,
    wal: Option<Wal>,
    /// Shard-local instruments (`shard.<op>.latency` histograms plus
    /// the WAL's `wal.fsync.latency`), answered wholesale over
    /// [`Request::Metrics`] so the router can merge them into one
    /// cluster scrape.
    registry: scq_obs::Registry,
    /// Traces installed by [`Request::Traced`]: the shard-side span
    /// record of recently traced requests, for diagnostics.
    traces: scq_obs::TraceRing,
}

/// A running shard server: the reactor serving the wire protocol and
/// the shard state its handlers work on.
pub struct ShardServerHandle {
    reactor: ReactorHandle,
    state: Arc<ShardState>,
}

impl ShardServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// WAL counters, when the server keeps a log (`None` otherwise).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.state.wal.as_ref().map(Wal::stats)
    }

    /// A point-in-time snapshot of the shard's instruments — the same
    /// rows [`Request::Metrics`] answers over the wire.
    pub fn metrics(&self) -> scq_obs::Snapshot {
        self.state.registry.snapshot()
    }

    /// The shard-side trace a [`Request::Traced`] request recorded,
    /// newest match by ID.
    pub fn trace(&self, id: u64) -> Option<Arc<scq_obs::TraceState>> {
        self.state.traces.get(id)
    }

    /// Event-loop wakeups so far ([`ReactorHandle::loop_wakeups`]).
    #[cfg(test)]
    pub(crate) fn loop_wakeups(&self) -> u64 {
        self.reactor.loop_wakeups()
    }

    /// Stops the event loop (closing every connection) and the worker
    /// pool, and joins them all.
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }
}

/// Starts a shard server: binds, spawns the event loop and worker
/// pool, returns immediately.
pub fn serve_shard(config: &ShardServerConfig) -> std::io::Result<ShardServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let universe = AaBox::new([0.0, 0.0], [config.universe_size, config.universe_size]);
    // With a WAL, startup *is* recovery: the database the connections
    // see is the newest snapshot plus every durable record past it. A
    // log that fails recovery refuses to serve — better no shard than
    // a shard silently missing acknowledged history.
    let (wal, db) = match &config.wal {
        Some(wal_config) => {
            let (wal, db) = Wal::open(wal_config, universe)
                .map_err(|e| std::io::Error::other(format!("wal recovery failed: {e}")))?;
            (Some(wal), db)
        }
        None => (None, SpatialDatabase::new(universe)),
    };
    let registry = scq_obs::Registry::new();
    if let Some(wal) = &wal {
        // The histogram handle shares cells with the live log: every
        // fsync lands in scrapes with no polling.
        registry.register_histogram("wal.fsync.latency", wal.fsync_latency());
    }
    let state = Arc::new(ShardState {
        db: RwLock::new(db),
        wal,
        registry,
        traces: scq_obs::TraceRing::new(64),
    });
    let protocol = ShardProtocol {
        state: Arc::clone(&state),
    };
    let reactor = reactor::start(listener, protocol, config.threads, config.max_connections)?;
    Ok(ShardServerHandle { reactor, state })
}

// ── the shard protocol ──────────────────────────────────────────────────

/// Length-prefixed frames: a plain `Hello`, then mux framing with any
/// number of requests in flight.
struct ShardProtocol {
    state: Arc<ShardState>,
}

/// One connection's framing and request-id state.
#[derive(Default)]
struct WireConn {
    reader: FrameReader,
    /// The handshake succeeded: frames are mux-framed from here on.
    greeted: bool,
    /// Ids queued or executing.
    in_flight: HashSet<u64>,
    /// In-flight ids whose answers must be discarded (cancelled).
    cancelled: HashSet<u64>,
}

/// One mux request's worth of work for the pool.
struct Job {
    id: u64,
    /// The encoded request (the mux frame's body).
    payload: Vec<u8>,
}

/// A finished response on its way back through the loop thread.
struct Completion {
    id: u64,
    /// Framed bytes ready for the socket (possibly several frames: a
    /// chunked stream).
    bytes: Vec<u8>,
}

impl Protocol for ShardProtocol {
    type Conn = WireConn;
    type Job = Job;
    type Done = Completion;

    fn open(&self) -> WireConn {
        WireConn::default()
    }

    fn received(&self, conn: &mut WireConn, bytes: &[u8], port: &mut Port<'_, Job>) {
        conn.reader.push(bytes);
        while !port.closing() {
            match conn.reader.next_frame() {
                Ok(Some(payload)) if conn.greeted => dispatch_mux(conn, port, &payload),
                Ok(Some(payload)) => self.handle_hello(conn, port, &payload),
                Ok(None) => break,
                // Framing poison (oversized prefix): report, close.
                Err(e) => refuse(port, format!("bad frame: {e}")),
            }
        }
    }

    /// Decodes, executes and frames one request on a worker thread.
    fn run(&self, job: Job) -> Completion {
        let state = &*self.state;
        let response = match decode_request(&job.payload) {
            Ok(req) => {
                let op = op_name(&req);
                let started = std::time::Instant::now();
                let out = handle_request(state, req);
                state
                    .registry
                    .histogram(&format!("shard.{op}.latency"))
                    .observe(started.elapsed());
                out
            }
            // The *framing* is intact — only this request's body is
            // garbage — so the error answers under its id and every
            // other in-flight request proceeds.
            Err(e) => Response::Err(format!("bad request: {e}")),
        };
        Completion {
            id: job.id,
            bytes: frame_mux(job.id, &response),
        }
    }

    fn completed(&self, conn: &mut WireConn, done: Completion, port: &mut Port<'_, Job>) {
        conn.in_flight.remove(&done.id);
        if !conn.cancelled.remove(&done.id) {
            port.send(&done.bytes);
        }
    }
}

impl ShardProtocol {
    /// The handshake, inline on the loop thread: the first frame of a
    /// connection must be a plain `Hello` at exactly [`WIRE_VERSION`].
    fn handle_hello(&self, conn: &mut WireConn, port: &mut Port<'_, Job>, payload: &[u8]) {
        if payload.first() != Some(&OP_HELLO) {
            return refuse(
                port,
                format!(
                    "bad request: expected a Hello handshake, got opcode {:#04x}",
                    payload.first().copied().unwrap_or(0)
                ),
            );
        }
        let started = std::time::Instant::now();
        match decode_request(payload) {
            Ok(Request::Hello { version }) if version == WIRE_VERSION => {
                conn.greeted = true;
                port.send(&frame_plain(&Response::Hello { version }));
            }
            // A peer speaking another version must not get garbage
            // answers; name the one version spoken and close.
            Ok(Request::Hello { version }) => refuse(
                port,
                format!(
                    "wire version mismatch: shard speaks {WIRE_VERSION}, client speaks {version}"
                ),
            ),
            Ok(_) | Err(_) => refuse(port, "bad request: malformed handshake".into()),
        }
        self.state
            .registry
            .histogram("shard.hello.latency")
            .observe(started.elapsed());
    }
}

/// Answers a connection-level failure with one plain error frame and
/// closes: the stream cannot be resynchronized past it.
fn refuse(port: &mut Port<'_, Job>, message: String) {
    port.send(&frame_plain(&Response::Err(message)));
    port.close();
}

fn dispatch_mux(conn: &mut WireConn, port: &mut Port<'_, Job>, payload: &[u8]) {
    match decode_mux(payload) {
        Ok(f) if f.kind == MUX_REQ => {
            conn.in_flight.insert(f.id);
            port.submit(Job {
                id: f.id,
                payload: f.body,
            });
        }
        Ok(f) if f.kind == MUX_CANCEL => {
            // Only ids actually pending can be cancelled; anything
            // else already completed (or never existed) and the
            // cancel is a no-op, not state to keep forever.
            if conn.in_flight.contains(&f.id) {
                conn.cancelled.insert(f.id);
            }
        }
        // A response-direction kind from a client: desync.
        Ok(f) => refuse(
            port,
            format!(
                "bad request: unexpected mux kind {:#04x} from a client",
                f.kind
            ),
        ),
        Err(e) => refuse(
            port,
            format!("bad request: plain frame after the handshake ({e})"),
        ),
    }
}

/// Frames a plain (un-muxed) response: the handshake answer or a
/// connection-level error.
fn frame_plain(response: &Response) -> Vec<u8> {
    frame(&encode_response(response)).expect("handshake and error frames are small")
}

/// Frames a mux response: one `MUX_RESP` frame, or a `MUX_CHUNK…END`
/// stream when the response outgrows [`STREAM_CHUNK`] — which is why
/// the frame cap is not a cap on answers.
fn frame_mux(id: u64, response: &Response) -> Vec<u8> {
    let encoded = encode_response(response);
    let mut out = Vec::with_capacity(encoded.len() + 64);
    for payload in split_response(id, &encoded, STREAM_CHUNK) {
        out.extend_from_slice(&frame(&payload).expect("chunks fit under the frame cap"));
    }
    out
}

fn poisoned<T>(_: T) -> Response {
    Response::Err("shard lock poisoned".into())
}

/// Runs one mutation under the write lock and, when the shard keeps a
/// WAL, acknowledges it only once its record is durable. The append
/// happens **while still holding the lock** — log order is exactly
/// apply order — and the durability wait happens after releasing it:
/// this worker either leads the next fsync or waits for one in flight
/// (see [`Wal::wait_durable`]), and neither blocks readers or the next
/// writer's apply and append.
fn mutate<F>(state: &ShardState, req: &Request, op: F) -> Response
where
    F: FnOnce(&mut SpatialDatabase<2>) -> Response,
{
    let mut d = match state.db.write() {
        Ok(d) => d,
        Err(e) => return poisoned(e),
    };
    let resp = op(&mut d);
    if matches!(resp, Response::Err(_)) {
        // The mutation was refused: nothing changed, nothing to log.
        return resp;
    }
    let ticket = match &state.wal {
        Some(wal) => match wal.append(req) {
            Ok(t) => Some(t),
            // The mutation applied in memory but could not be logged:
            // fail the request (the client must not treat it as
            // committed). The next recovery rebuilds without it.
            Err(e) => return Response::Err(format!("wal append failed: {e}")),
        },
        None => None,
    };
    drop(d);
    if let Some(ticket) = ticket {
        let wal = state.wal.as_ref().expect("ticket implies wal");
        if let Err(e) = wal.wait_durable(ticket) {
            return Response::Err(format!("wal not durable: {e}"));
        }
    }
    resp
}

/// The request's flat name, for per-op latency instruments. A traced
/// request reports as its inner op — the wrapper is plumbing, not work.
fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "hello",
        Request::Create { .. } => "create",
        Request::Insert { .. } => "insert",
        Request::Remove { .. } => "remove",
        Request::Update { .. } => "update",
        Request::Query { .. } => "query",
        Request::Stat => "stat",
        Request::Compact => "compact",
        Request::SnapshotSave => "snapshot_save",
        Request::SnapshotRead => "snapshot_read",
        Request::SnapshotLoad { .. } => "snapshot_load",
        Request::Check => "check",
        Request::WalStat => "wal_stat",
        Request::Metrics => "metrics",
        Request::Traced { inner, .. } => op_name(inner),
    }
}

/// Executes one decoded request against the shard database.
fn handle_request(state: &ShardState, req: Request) -> Response {
    // Unwrap tracing before the main dispatch so the inner request is
    // handled — and WAL-logged — as itself. The router's trace ID rides
    // the frame header; installing a shard-side trace under it means
    // spans recorded here land in the shard's ring under the same ID
    // the client saw.
    if let Request::Traced { trace_id, inner } = req {
        let trace = scq_obs::TraceState::new(trace_id);
        let out = {
            let _guard = trace.install();
            let _span = scq_obs::span("shard.handle", format!("op={}", op_name(&inner)));
            handle_request(state, *inner)
        };
        state.traces.push(trace);
        return out;
    }
    let db = &state.db;
    match &req {
        // The handshake is the connection's first, plain frame; one
        // arriving as a mux request is a confused peer.
        Request::Hello { .. } => {
            Response::Err("bad request: Hello inside a multiplexed request".into())
        }
        Request::Create { name } => {
            if name.len() > 255 {
                Response::Err(format!(
                    "collection name too long ({} > 255 bytes)",
                    name.len()
                ))
            } else {
                mutate(state, &req, |d| Response::Coll(d.collection(name)))
            }
        }
        Request::Insert { coll, region } => mutate(state, &req, |d| match known(d, *coll) {
            Ok(()) => Response::Slot(d.insert(*coll, region.clone()).index as u64),
            Err(e) => e,
        }),
        Request::Remove { coll, local } => {
            mutate(state, &req, |d| match known_slot(d, *coll, *local) {
                Ok(obj) => Response::Flag(d.remove(obj)),
                Err(e) => e,
            })
        }
        Request::Update {
            coll,
            local,
            region,
        } => mutate(state, &req, |d| match known_slot(d, *coll, *local) {
            Ok(obj) => Response::Flag(d.update(obj, region.clone())),
            Err(e) => e,
        }),
        // No router sends a QUERY; the benchmark's wire rows are its only
        // caller, and the arm goes with ROADMAP item 1.
        Request::Query { coll, kind, query } => match db.read() {
            Ok(d) => match known(&d, *coll) {
                Ok(()) => {
                    let mut ids = Vec::new();
                    d.query_collection(*coll, *kind, query, &mut ids);
                    Response::Ids(ids)
                }
                Err(e) => e,
            },
            Err(e) => poisoned(e),
        },
        Request::Stat => match db.read() {
            Ok(d) => Response::Stat(
                d.collections()
                    .map(|c| {
                        (
                            d.collection_name(c).to_owned(),
                            d.collection_len(c) as u64,
                            d.live_len(c) as u64,
                        )
                    })
                    .collect(),
            ),
            Err(e) => poisoned(e),
        },
        // Compaction is a logged mutation: its remap is deterministic
        // in the state it runs on, so replay reproduces the exact slot
        // layout the answers after it were built on.
        Request::Compact => mutate(state, &req, |d| Response::from_compact(&d.compact())),
        // The read lock excludes writers, so the stream and the
        // truncation snapshot describe the same state: SNAPSHOT SAVE
        // *is* the log-truncation point.
        Request::SnapshotSave => match db.read() {
            Ok(d) => seal_log(state, &d, Response::Bytes(snapshot::save(&d).to_vec())),
            Err(e) => poisoned(e),
        },
        // The read-only stream: same bytes, no truncation — reading a
        // shard's state must never seal its log.
        Request::SnapshotRead => match db.read() {
            Ok(d) => Response::Bytes(snapshot::save(&d).to_vec()),
            Err(e) => poisoned(e),
        },
        Request::SnapshotLoad { stream } => match snapshot::load::<2>(stream) {
            Ok(loaded) => match db.write() {
                Ok(mut d) => {
                    *d = loaded;
                    // The load rewrote history wholesale; the old log
                    // no longer describes this state.
                    seal_log(state, &d, Response::Ok)
                }
                Err(e) => poisoned(e),
            },
            Err(e) => Response::Err(format!("bad snapshot stream: {e}")),
        },
        Request::Check => match db.read() {
            Ok(d) => Response::Problems(scq_engine::integrity::check(&d).err().unwrap_or_default()),
            Err(e) => poisoned(e),
        },
        Request::WalStat => match &state.wal {
            Some(wal) => Response::WalStat(wal.stats()),
            None => Response::Err("wal not enabled on this shard".into()),
        },
        Request::Metrics => Response::Metrics(state.registry.snapshot()),
        // Handled above, before the dispatch; decode rejects nesting.
        Request::Traced { .. } => Response::Err("nested Traced request".into()),
    }
}

/// Seals the shard's log, if it keeps one, behind a snapshot of `d`
/// (its new recovery base) and answers `ok` — or the failure, in which
/// case the caller must not treat the log as truncated.
fn seal_log(state: &ShardState, d: &SpatialDatabase<2>, ok: Response) -> Response {
    match state.wal.as_ref().map(|wal| wal.truncate(d)) {
        Some(Err(e)) => Response::Err(format!("wal truncation failed: {e}")),
        _ => ok,
    }
}

fn known(d: &SpatialDatabase<2>, coll: CollectionId) -> Result<(), Response> {
    if coll.0 < d.collections().count() {
        Ok(())
    } else {
        Err(Response::Err(format!("unknown collection id {}", coll.0)))
    }
}

fn known_slot(
    d: &SpatialDatabase<2>,
    coll: CollectionId,
    local: u64,
) -> Result<scq_engine::ObjectRef, Response> {
    known(d, coll)?;
    let index = local as usize;
    if index >= d.collection_len(coll) {
        return Err(Response::Err(format!(
            "slot {index} out of range (shard collection has {} slots)",
            d.collection_len(coll)
        )));
    }
    Ok(scq_engine::ObjectRef {
        collection: coll,
        index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{
        encode_mux, encode_request, read_frame, MuxReassembly, MAX_FRAME, MUX_CHUNK,
    };
    use scq_region::Region;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn start() -> ShardServerHandle {
        serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            universe_size: 100.0,
            ..ShardServerConfig::default()
        })
        .expect("bind shard server")
    }

    /// One plain-framed exchange: the handshake, and the refusals
    /// that answer in place of it.
    fn plain_roundtrip(stream: &mut TcpStream, req: &Request) -> Response {
        stream
            .write_all(&frame(&encode_request(req)).unwrap())
            .unwrap();
        let payload = read_frame(stream).unwrap().expect("response frame");
        crate::wire::decode_response(&payload).unwrap()
    }

    /// One request/response exchange over mux framing, one request in
    /// flight (the pipelined tests below drive `mux_send`/`mux_read`
    /// themselves).
    fn roundtrip(stream: &mut TcpStream, req: &Request) -> Response {
        mux_send(stream, 1, req);
        let (id, resp) = mux_read(stream, &mut MuxReassembly::new(), &mut 0);
        assert_eq!(id, 1);
        resp
    }

    /// Connects and handshakes, leaving the connection in mux framing.
    fn hello(addr: SocketAddr) -> TcpStream {
        let mut s = TcpStream::connect(addr).unwrap();
        let resp = plain_roundtrip(
            &mut s,
            &Request::Hello {
                version: WIRE_VERSION,
            },
        );
        assert_eq!(
            resp,
            Response::Hello {
                version: WIRE_VERSION
            }
        );
        s
    }

    fn mux_send(s: &mut TcpStream, id: u64, req: &Request) {
        s.write_all(&frame(&encode_mux(MUX_REQ, id, &encode_request(req))).unwrap())
            .unwrap();
    }

    /// Reads server frames until one response completes; counts the
    /// chunk frames it took.
    fn mux_read(
        s: &mut TcpStream,
        reasm: &mut MuxReassembly,
        chunks: &mut usize,
    ) -> (u64, Response) {
        loop {
            let payload = read_frame(s).unwrap().expect("mux frame");
            let f = decode_mux(&payload).unwrap();
            if f.kind == MUX_CHUNK {
                *chunks += 1;
            }
            if let Some((id, bytes)) = reasm.accept(f).unwrap() {
                return (id, crate::wire::decode_response(&bytes).unwrap());
            }
        }
    }

    /// Reads the one plain error frame a refusal sends, then requires
    /// the clean close that must follow it.
    fn refusal(s: &mut TcpStream) -> String {
        let payload = read_frame(s)
            .unwrap()
            .expect("an error response before the close");
        let message = match crate::wire::decode_response(&payload).unwrap() {
            Response::Err(m) => m,
            other => panic!("{other:?}"),
        };
        assert_eq!(read_frame(s).unwrap(), None, "connection closed");
        message
    }

    #[test]
    fn scripted_session_over_real_sockets() {
        let server = start();
        let mut s = hello(server.addr());
        let coll = match roundtrip(
            &mut s,
            &Request::Create {
                name: "objs".into(),
            },
        ) {
            Response::Coll(c) => c,
            other => panic!("{other:?}"),
        };
        let region = Region::from_box(AaBox::new([1.0, 1.0], [5.0, 5.0]));
        assert_eq!(
            roundtrip(
                &mut s,
                &Request::Insert {
                    coll,
                    region: region.clone()
                }
            ),
            Response::Slot(0)
        );
        assert_eq!(
            roundtrip(
                &mut s,
                &Request::Query {
                    coll,
                    kind: scq_engine::IndexKind::RTree,
                    query: scq_bbox::CornerQuery::unconstrained()
                        .and_overlaps(&scq_bbox::Bbox::new([0.0, 0.0], [10.0, 10.0])),
                }
            ),
            Response::Ids(vec![0])
        );
        assert_eq!(
            roundtrip(&mut s, &Request::Remove { coll, local: 0 }),
            Response::Flag(true)
        );
        assert_eq!(
            roundtrip(&mut s, &Request::Remove { coll, local: 0 }),
            Response::Flag(false)
        );
        match roundtrip(&mut s, &Request::Compact) {
            Response::Remap { reclaimed, .. } => assert_eq!(reclaimed, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            roundtrip(&mut s, &Request::Check),
            Response::Problems(vec![])
        );
        drop(s);
        server.shutdown();
    }

    #[test]
    fn version_mismatch_is_rejected_and_closes() {
        let server = start();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&frame(&encode_request(&Request::Hello { version: 99 })).unwrap())
            .unwrap();
        let m = refusal(&mut s);
        assert!(m.contains("version mismatch"), "{m}");
        server.shutdown();
    }

    /// The previous wire generation is refused by name, not negotiated
    /// down to: one version is spoken, and the error says which.
    #[test]
    fn older_versions_are_refused_naming_the_one_version_spoken() {
        let server = start();
        for version in [1, 2, 3] {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(&frame(&encode_request(&Request::Hello { version })).unwrap())
                .unwrap();
            assert_eq!(
                refusal(&mut s),
                format!("wire version mismatch: shard speaks 4, client speaks {version}")
            );
        }
        server.shutdown();
    }

    #[test]
    fn a_request_before_the_handshake_is_refused() {
        let server = start();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&frame(&encode_request(&Request::Stat)).unwrap())
            .unwrap();
        let m = refusal(&mut s);
        assert!(m.contains("expected a Hello handshake"), "{m}");
        server.shutdown();
    }

    #[test]
    fn a_plain_frame_after_the_handshake_is_refused() {
        let server = start();
        let mut s = hello(server.addr());
        s.write_all(&frame(&encode_request(&Request::Stat)).unwrap())
            .unwrap();
        let m = refusal(&mut s);
        assert!(m.contains("plain frame after the handshake"), "{m}");
        server.shutdown();
    }

    #[test]
    fn metrics_reports_per_op_latency_histograms() {
        let server = start();
        let mut s = hello(server.addr());
        assert_eq!(roundtrip(&mut s, &Request::Stat), Response::Stat(vec![]));
        let snap = match roundtrip(&mut s, &Request::Metrics) {
            Response::Metrics(snap) => snap,
            other => panic!("{other:?}"),
        };
        // The hello and stat already served must have landed in their
        // per-op histograms; the metrics request itself is observed
        // only after its response is built, so it may not appear yet.
        for op in ["hello", "stat"] {
            let h = snap
                .histogram(&format!("shard.{op}.latency"))
                .unwrap_or_else(|| panic!("missing shard.{op}.latency"));
            assert_eq!(h.count(), 1, "one {op} was served");
        }
        server.shutdown();
    }

    #[test]
    fn traced_requests_answer_as_the_inner_op_and_record_a_span() {
        let server = start();
        let mut s = hello(server.addr());
        let resp = roundtrip(
            &mut s,
            &Request::Traced {
                trace_id: 42,
                inner: Box::new(Request::Stat),
            },
        );
        assert_eq!(resp, Response::Stat(vec![]));
        let trace = server.trace(42).expect("shard kept the trace");
        let spans = trace.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "shard.handle");
        assert_eq!(spans[0].detail, "op=stat");
        assert!(server.trace(7).is_none(), "unknown ids stay unknown");
        server.shutdown();
    }

    #[test]
    fn malformed_frames_error_and_close() {
        let server = start();
        // In-frame garbage: an unknown opcode.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&frame(&[0xEE, 1, 2, 3]).unwrap()).unwrap();
        let m = refusal(&mut s);
        assert!(m.contains("bad request"), "{m}");
        server.shutdown();
    }

    #[test]
    fn oversized_length_prefix_errors_and_closes() {
        let server = start();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&((MAX_FRAME as u32) + 1).to_le_bytes())
            .unwrap();
        let m = refusal(&mut s);
        assert!(m.contains("bad frame"), "{m}");
        server.shutdown();
    }

    #[test]
    fn one_acceptor_serves_many_concurrent_long_lived_connections() {
        // Router tiers hold a POOL of long-lived connections per
        // shard. A serve-to-completion worker pool would wedge the
        // second connection behind the first until it closed; the
        // thread-per-connection server must interleave them freely,
        // even with a single acceptor.
        let server = serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            universe_size: 100.0,
            ..ShardServerConfig::default()
        })
        .unwrap();
        let mut a = hello(server.addr());
        let mut b = hello(server.addr()); // a is still open and idle
        assert_eq!(roundtrip(&mut b, &Request::Stat), Response::Stat(vec![]));
        assert_eq!(roundtrip(&mut a, &Request::Stat), Response::Stat(vec![]));
        // interleave once more in the other order
        assert_eq!(roundtrip(&mut a, &Request::Compact), {
            Response::Remap {
                reclaimed: 0,
                remap: vec![],
            }
        });
        assert_eq!(
            roundtrip(&mut b, &Request::Check),
            Response::Problems(vec![])
        );
        server.shutdown();
    }

    #[test]
    fn connections_over_the_cap_are_refused_and_slots_are_reclaimed() {
        let server = serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            max_connections: 1,
            universe_size: 100.0,
            ..ShardServerConfig::default()
        })
        .unwrap();
        // The first connection fills the cap…
        let mut a = hello(server.addr());
        // …so the second is closed before it gets a response.
        let mut b = TcpStream::connect(server.addr()).unwrap();
        let _ = b.write_all(
            &frame(&encode_request(&Request::Hello {
                version: WIRE_VERSION,
            }))
            .unwrap(),
        );
        match read_frame(&mut b) {
            Ok(None) | Err(_) => {} // closed, no protocol answer
            Ok(Some(p)) => panic!("over-cap connection was served: {p:?}"),
        }
        // The capped connection still works…
        assert_eq!(roundtrip(&mut a, &Request::Stat), Response::Stat(vec![]));
        // …and closing it frees the slot for a newcomer.
        drop(a);
        // The loop may take a moment to see the close; the accept-time
        // reap then admits the new connection.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let mut c = TcpStream::connect(server.addr()).unwrap();
            let ok = (|| {
                c.write_all(
                    &frame(&encode_request(&Request::Hello {
                        version: WIRE_VERSION,
                    }))
                    .ok()?,
                )
                .ok()?;
                match read_frame(&mut c) {
                    Ok(Some(payload)) => crate::wire::decode_response(&payload).ok(),
                    _ => None,
                }
            })();
            match ok {
                Some(Response::Hello { .. }) => break,
                _ if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                other => panic!("slot never freed: last answer {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn mid_stream_disconnect_leaves_the_server_serving() {
        let server = start();
        // A client that sends half a frame and vanishes…
        {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            let full = frame(&encode_request(&Request::Stat)).unwrap();
            s.write_all(&full[..full.len() - 2]).unwrap();
            // dropped here, mid-frame
        }
        // …must not wedge the worker: a fresh client gets served.
        let mut s = hello(server.addr());
        assert_eq!(roundtrip(&mut s, &Request::Stat), Response::Stat(vec![]));
        server.shutdown();
    }

    #[test]
    fn unknown_collections_and_slots_are_ordinary_errors() {
        let server = start();
        let mut s = hello(server.addr());
        match roundtrip(
            &mut s,
            &Request::Insert {
                coll: CollectionId(7),
                region: Region::empty(),
            },
        ) {
            Response::Err(m) => assert!(m.contains("unknown collection"), "{m}"),
            other => panic!("{other:?}"),
        }
        // the connection survived the error
        assert_eq!(roundtrip(&mut s, &Request::Stat), Response::Stat(vec![]));
        server.shutdown();
    }

    fn wal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scq-server-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wal_config(dir: &std::path::Path) -> ShardServerConfig {
        ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            universe_size: 100.0,
            wal: Some(WalConfig::new(dir)),
            ..ShardServerConfig::default()
        }
    }

    fn overlap_all(coll: CollectionId) -> Request {
        Request::Query {
            coll,
            kind: scq_engine::IndexKind::Scan,
            query: scq_bbox::CornerQuery::unconstrained()
                .and_overlaps(&scq_bbox::Bbox::new([0.0, 0.0], [100.0, 100.0])),
        }
    }

    #[test]
    fn wal_server_restarts_with_every_acknowledged_mutation() {
        let dir = wal_dir("restart");
        let config = wal_config(&dir);
        let server = serve_shard(&config).unwrap();
        let mut s = hello(server.addr());
        let coll = match roundtrip(
            &mut s,
            &Request::Create {
                name: "objs".into(),
            },
        ) {
            Response::Coll(c) => c,
            other => panic!("{other:?}"),
        };
        for i in 0..4u64 {
            let lo = 10.0 * i as f64;
            assert_eq!(
                roundtrip(
                    &mut s,
                    &Request::Insert {
                        coll,
                        region: Region::from_box(AaBox::new([lo, lo], [lo + 1.0, lo + 1.0])),
                    }
                ),
                Response::Slot(i)
            );
        }
        assert_eq!(
            roundtrip(&mut s, &Request::Remove { coll, local: 2 }),
            Response::Flag(true)
        );
        let before = match roundtrip(&mut s, &overlap_all(coll)) {
            Response::Ids(ids) => ids,
            other => panic!("{other:?}"),
        };
        drop(s);
        server.shutdown();

        // Same directory, fresh process-equivalent: recovery must
        // rebuild exactly the acknowledged state, and say so in stats.
        let server = serve_shard(&config).unwrap();
        assert_eq!(server.wal_stats().expect("wal enabled").replayed, 6);
        let mut s = hello(server.addr());
        match roundtrip(&mut s, &overlap_all(coll)) {
            Response::Ids(ids) => assert_eq!(ids, before),
            other => panic!("{other:?}"),
        }
        match roundtrip(&mut s, &Request::WalStat) {
            Response::WalStat(stats) => {
                assert_eq!(stats.replayed, 6);
                assert_eq!(stats.torn_tails, 0);
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_save_truncates_the_log() {
        let dir = wal_dir("truncpoint");
        let config = wal_config(&dir);
        let server = serve_shard(&config).unwrap();
        let mut s = hello(server.addr());
        let coll = match roundtrip(
            &mut s,
            &Request::Create {
                name: "objs".into(),
            },
        ) {
            Response::Coll(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            roundtrip(
                &mut s,
                &Request::Insert {
                    coll,
                    region: Region::from_box(AaBox::new([1.0, 1.0], [2.0, 2.0])),
                }
            ),
            Response::Slot(0)
        );
        match roundtrip(&mut s, &Request::SnapshotSave) {
            Response::Bytes(_) => {}
            other => panic!("{other:?}"),
        }
        drop(s);
        server.shutdown();
        // Recovery past the truncation point replays nothing — the
        // snapshot carries the whole state.
        let server = serve_shard(&config).unwrap();
        assert_eq!(server.wal_stats().expect("wal enabled").replayed, 0);
        let mut s = hello(server.addr());
        match roundtrip(&mut s, &overlap_all(coll)) {
            Response::Ids(ids) => assert_eq!(ids, vec![0]),
            other => panic!("{other:?}"),
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ── pipelining, cancellation, streaming ─────────────────────────

    /// Fills the shard directly — in-process, not over the wire — with
    /// enough objects that a `SnapshotRead` occupies a worker for a
    /// while (a multi-megabyte answer).
    fn populate_slow_snapshot(server: &ShardServerHandle) {
        let mut d = server.state.db.write().unwrap();
        let coll = d.collection("bulk");
        for i in 0..50_000u64 {
            let x = (i % 90) as f64;
            let y = ((i / 90) % 90) as f64;
            d.insert(
                coll,
                Region::from_box(AaBox::new([x, y], [x + 0.5, y + 0.5])),
            );
        }
    }

    #[test]
    fn mux_session_pipelines_many_requests_on_one_connection() {
        let server = start();
        let mut s = hello(server.addr());
        mux_send(
            &mut s,
            1,
            &Request::Create {
                name: "objs".into(),
            },
        );
        let mut reasm = MuxReassembly::new();
        let mut chunks = 0;
        let (id, resp) = mux_read(&mut s, &mut reasm, &mut chunks);
        assert_eq!(id, 1);
        let coll = match resp {
            Response::Coll(c) => c,
            other => panic!("{other:?}"),
        };
        // Pipeline a burst of requests before reading any answer: the
        // whole point of mux framing. Responses may complete in any
        // order; ids pair every answer with its question.
        for i in 0..8u64 {
            let lo = 2.0 * i as f64;
            mux_send(
                &mut s,
                100 + i,
                &Request::Insert {
                    coll,
                    region: Region::from_box(AaBox::new([lo, lo], [lo + 1.0, lo + 1.0])),
                },
            );
        }
        let mut slots = std::collections::HashMap::new();
        for _ in 0..8 {
            let (id, resp) = mux_read(&mut s, &mut reasm, &mut chunks);
            match resp {
                Response::Slot(n) => assert!(slots.insert(id, n).is_none()),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(slots.len(), 8, "every id answered exactly once");
        let mut seen: Vec<u64> = slots.into_values().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        // A bad request *body* errors under its id and the connection
        // survives — the framing layer is intact.
        s.write_all(&frame(&encode_mux(MUX_REQ, 999, &[0xEE, 1, 2])).unwrap())
            .unwrap();
        let (id, resp) = mux_read(&mut s, &mut reasm, &mut chunks);
        assert_eq!(id, 999);
        match resp {
            Response::Err(m) => assert!(m.contains("bad request"), "{m}"),
            other => panic!("{other:?}"),
        }
        mux_send(&mut s, 1000, &Request::Stat);
        let (id, resp) = mux_read(&mut s, &mut reasm, &mut chunks);
        assert_eq!(id, 1000);
        assert_eq!(resp, Response::Stat(vec![("objs".into(), 8, 8)]));
        server.shutdown();
    }

    #[test]
    fn cancelled_requests_are_never_answered() {
        // One worker: request A occupies it while B waits in the
        // queue, so the cancel (dispatched by the loop thread the
        // moment it reads the frame, microseconds after B is queued)
        // deterministically lands while B is still pending.
        let server = serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            universe_size: 100.0,
            ..ShardServerConfig::default()
        })
        .unwrap();
        populate_slow_snapshot(&server);
        let mut s = hello(server.addr());
        // A (slow: a multi-megabyte snapshot), B, cancel-B, C — written
        // back-to-back so the loop dispatches them in one batch.
        let mut burst = Vec::new();
        burst.extend_from_slice(
            &frame(&encode_mux(
                MUX_REQ,
                1,
                &encode_request(&Request::SnapshotRead),
            ))
            .unwrap(),
        );
        burst.extend_from_slice(
            &frame(&encode_mux(MUX_REQ, 2, &encode_request(&Request::Stat))).unwrap(),
        );
        burst.extend_from_slice(&frame(&encode_mux(MUX_CANCEL, 2, &[])).unwrap());
        burst.extend_from_slice(
            &frame(&encode_mux(MUX_REQ, 3, &encode_request(&Request::Check))).unwrap(),
        );
        s.write_all(&burst).unwrap();
        let mut reasm = MuxReassembly::new();
        let mut chunks = 0;
        let mut answered = Vec::new();
        for _ in 0..2 {
            let (id, _) = mux_read(&mut s, &mut reasm, &mut chunks);
            answered.push(id);
        }
        answered.sort_unstable();
        assert_eq!(answered, vec![1, 3], "id 2 was cancelled, never answered");
        server.shutdown();
    }

    /// An answer past `MAX_FRAME` streams as chunks and reassembles
    /// byte for byte. What fills the snapshot does not matter to the
    /// framing, so most of it is collection names, the cheapest bytes
    /// a snapshot holds: filling it with regions instead costs each
    /// one a fragment-by-fragment rebuild and three index inserts, on
    /// both ends, and took half a minute in a debug build.
    #[test]
    fn answers_past_the_frame_cap_stream_as_chunked_frames() {
        let server = start();
        {
            let mut d = server.state.db.write().unwrap();
            let coll = d.collection("bulk");
            for i in 0..64u64 {
                let x = i as f64;
                d.insert(
                    coll,
                    Region::from_box(AaBox::new([x, x], [x + 0.5, x + 0.5])),
                );
            }
            // A snapshot stores a name in at most `u16::MAX` bytes.
            let name_len = 60_000;
            for i in 0..=MAX_FRAME / name_len {
                let tag = format!("{i:06}");
                d.collection(&tag.repeat(name_len / tag.len()));
            }
        }
        let mut s = hello(server.addr());
        mux_send(&mut s, 7, &Request::SnapshotRead);
        let mut reasm = MuxReassembly::new();
        let mut chunks = 0;
        let (id, resp) = mux_read(&mut s, &mut reasm, &mut chunks);
        assert_eq!(id, 7);
        let stream = match resp {
            Response::Bytes(b) => b,
            other => panic!("{other:?}"),
        };
        assert!(
            stream.len() > MAX_FRAME,
            "the reassembled answer ({} bytes) must beat the {MAX_FRAME}-byte cap",
            stream.len()
        );
        assert!(chunks >= 2, "a >cap answer takes multiple chunks");
        let loaded = snapshot::load::<2>(&stream).expect("streamed snapshot decodes");
        let d = server.state.db.read().unwrap();
        assert_eq!(
            loaded.collection_len(CollectionId(0)),
            d.collection_len(CollectionId(0))
        );
        let names = |db: &SpatialDatabase<2>| -> Vec<String> {
            db.collections()
                .map(|c| db.collection_name(c).to_owned())
                .collect()
        };
        assert!(names(&loaded) == names(&d), "every name arrives intact");
        drop(d);
        server.shutdown();
    }

    /// A client that sends its requests and then shuts down its
    /// writing half is owed every answer: finish, flush, then close —
    /// without spinning on the half-closed socket meanwhile.
    #[test]
    fn a_half_closed_client_still_gets_every_answer() {
        use std::net::Shutdown;
        // One worker, and a first request slow enough (a multi-megabyte
        // snapshot) that both are still outstanding when the FIN
        // behind them has been read.
        let server = serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            universe_size: 100.0,
            ..ShardServerConfig::default()
        })
        .unwrap();
        populate_slow_snapshot(&server);
        let mut s = hello(server.addr());
        s.set_read_timeout(Some(std::time::Duration::from_secs(120)))
            .unwrap();
        let before = server.loop_wakeups();
        let t0 = std::time::Instant::now();
        mux_send(&mut s, 1, &Request::SnapshotRead);
        mux_send(&mut s, 2, &Request::Stat);
        s.shutdown(Shutdown::Write).unwrap();
        let mut reasm = MuxReassembly::new();
        let mut answered = Vec::new();
        for _ in 0..2 {
            let (id, resp) = mux_read(&mut s, &mut reasm, &mut 0);
            assert!(!matches!(resp, Response::Err(_)), "{resp:?}");
            answered.push(id);
        }
        answered.sort_unstable();
        assert_eq!(answered, vec![1, 2]);
        assert_eq!(read_frame(&mut s).unwrap(), None, "then a clean close");
        // Idle, the loop wakes ten times a second (the shutdown
        // heartbeat); a loop that kept its read interest on the
        // half-closed socket would wake continuously.
        let wakeups = server.loop_wakeups() - before;
        let budget = 50 + t0.elapsed().as_millis() as u64 / 20;
        assert!(
            wakeups <= budget,
            "loop woke {wakeups} times in {:?} (budget {budget}): spinning on the half-closed socket",
            t0.elapsed()
        );
        // With nothing asked, a half-closed connection is simply closed.
        let mut idle = hello(server.addr());
        idle.shutdown(Shutdown::Write).unwrap();
        assert_eq!(read_frame(&mut idle).unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn shutdown_returns_despite_idle_and_midframe_connections() {
        let server = start();
        let idle = TcpStream::connect(server.addr()).unwrap();
        let mut partial = TcpStream::connect(server.addr()).unwrap();
        partial.write_all(&[3, 0]).unwrap(); // half a length prefix
        std::thread::sleep(std::time::Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "shutdown must not hang"
        );
        drop(idle);
        let mut buf = [0u8; 8];
        let _ = partial.read(&mut buf);
    }
}
