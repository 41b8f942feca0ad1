//! The remote shard backend: a wire-protocol client plus a
//! write-through region mirror, replicated across an ordered set of
//! shard processes.
//!
//! A [`RemoteShard`] stands in for one shard — an **ordered replica
//! set** of processes, the first of which is the write primary. The
//! split of responsibilities is the one that keeps the executors fast:
//!
//! * the shard process owns the **indexes** — corner queries,
//!   compaction, snapshot streaming and integrity checks run there;
//! * the client keeps a **mirror** of every slot's region, bounding
//!   box and liveness, maintained write-through on each mutation, so
//!   the executor read surface ([`ShardBackend::region`] /
//!   [`ShardBackend::bbox`] / liveness / lengths) never crosses the
//!   wire. Executors bind `&Region` out of the mirror exactly as they
//!   would out of a local database.
//!
//! Each shard process is reached over a single **multiplexed
//! connection**: every concurrent request rides one socket under its
//! own request id, the responses come back in whatever order the shard
//! finishes them (large ones as chunked streams), and a reader thread
//! matches each to its waiter — concurrent requests probe the same
//! shard **in parallel** without a socket per request. A connection that breaks is discarded
//! and its successor re-dials. Idempotent reads (queries, stats,
//! snapshot pulls, checks) transparently reconnect and retry **once**
//! after a connection failure — the retry count surfaces through
//! [`crate::ShardBackend::try_corner_query`] into
//! `ExecStats::retries`; mutations never auto-retry — a lost ack is
//! indistinguishable from a lost request, and replaying an insert
//! would double it. [`RemoteShard::connect`] polls until the shard
//! process is reachable (readiness), validates the wire version, and
//! pulls the shard's snapshot to seed the mirror, rejecting a shard
//! whose universe disagrees with the cluster's — deployment
//! misconfiguration surfaces at connect time, not as wrong answers.
//!
//! **Replication.** Mutations go through the **primary only** and are
//! never auto-retried or redirected — a dead primary is a loud named
//! error. A mutation the primary acks is then fanned out verbatim to
//! every other replica (write-through convergence): a replica whose
//! response disagrees with the primary's is a loud desync, while a
//! replica the fan-out cannot reach is marked **desynced** — excluded
//! from reads (its answers would disagree with the mirror) until a
//! snapshot load re-converges it. Corner-query reads try the primary
//! first and **fail over** in replica order on transport errors only;
//! an answer served by a non-primary is flagged stale
//! ([`crate::backend::ProbeTrace`]). Every address additionally sits
//! behind a **circuit breaker** ([`BreakerConfig`]): after K
//! consecutive transport failures the address is skipped for a
//! cooldown (no dial at all — a fast [`WireError::BreakerOpen`]), then
//! a half-open probe re-admits or re-trips it. The breaker clock is
//! injectable ([`RemoteShard::set_clock`]) so fault-injection tests
//! advance time without sleeping.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use scq_bbox::{Bbox, CornerQuery};
use scq_engine::{snapshot, CollectionId, CompactReport, IndexKind, SpatialDatabase};
use scq_region::{AaBox, Region};

use crate::backend::{ShardBackend, ShardError};
use crate::wire::{
    decode_mux, decode_response, encode_mux, encode_request, frame, is_mux, read_frame,
    MuxReassembly, Request, Response, WireError, MUX_CANCEL, MUX_REQ, WIRE_VERSION,
};

/// One collection's mirrored slots.
#[derive(Clone, Debug, Default)]
struct MirrorCollection {
    name: String,
    regions: Vec<Region<2>>,
    bboxes: Vec<Bbox<2>>,
    live: Vec<bool>,
    live_count: usize,
    /// The mirror's copy of the shard's per-collection mutation epoch,
    /// bumped on every effective write-through so it stays in lockstep
    /// with the shard process ([`ShardBackend::check`] verifies).
    epoch: u64,
}

/// Dials `addr` and performs the plain-framed handshake. A server
/// that refuses it, or answers any version but [`WIRE_VERSION`], is a
/// named error — there is one wire dialect and nothing to fall back to.
fn dial(addr: &str) -> Result<TcpStream, WireError> {
    let mut stream = TcpStream::connect(addr)?;
    // Bounds the handshake only; `MuxConn::spawn` lifts it.
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(&frame(&encode_request(&Request::Hello {
        version: WIRE_VERSION,
    }))?)?;
    let payload = read_frame(&mut stream)?.ok_or(WireError::Truncated)?;
    match decode_response(&payload)? {
        Response::Hello { version } if version == WIRE_VERSION => Ok(stream),
        Response::Hello { version } => Err(WireError::VersionMismatch {
            ours: WIRE_VERSION,
            theirs: version,
        }),
        // The server names its own version in the rejection.
        Response::Err(m) => Err(WireError::Remote(m)),
        other => Err(WireError::Unexpected(format!(
            "handshake answered {other:?}"
        ))),
    }
}

/// How long a multiplexed request waits for its response before the
/// client cancels it. Generous: large snapshot streams take real time.
const MUX_REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One multiplexed wire connection: a single socket carrying many
/// logical requests at once, each tagged with a request id. The write
/// half serializes request frames under a mutex; a reader thread owns
/// the receive side, reassembles chunked responses per id, and
/// completes whichever pending request each response names —
/// out-of-order by design. Death (socket error, EOF, protocol
/// violation) fails every pending request with a transport error; the
/// link discards the corpse and dials a successor.
struct MuxConn {
    addr: String,
    writer: Mutex<Option<TcpStream>>,
    /// Pending requests by id: `None` while in flight, `Some(result)`
    /// once the reader (or death) resolves them. A waiter that gave up
    /// removes its slot, so a late answer finds nothing and is dropped.
    slots: Mutex<HashMap<u64, Option<Result<Response, WireError>>>>,
    completed: Condvar,
    next_id: AtomicU64,
    dead: AtomicBool,
}

impl MuxConn {
    /// Wraps a freshly-handshaken stream and starts the reader thread.
    fn spawn(stream: TcpStream, addr: String) -> Result<Arc<MuxConn>, WireError> {
        // The reader blocks until the server has something to say;
        // liveness is enforced per request ([`MUX_REQUEST_TIMEOUT`]),
        // not by a socket-wide read timeout that would kill idle
        // connections.
        stream.set_read_timeout(None).map_err(WireError::from)?;
        let read_half = stream.try_clone().map_err(WireError::from)?;
        let conn = Arc::new(MuxConn {
            addr,
            writer: Mutex::new(Some(stream)),
            slots: Mutex::new(HashMap::new()),
            completed: Condvar::new(),
            next_id: AtomicU64::new(1),
            dead: AtomicBool::new(false),
        });
        let reader = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("scq-mux-reader".into())
            .spawn(move || reader.read_loop(read_half))
            .map_err(WireError::from)?;
        Ok(conn)
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn death(&self) -> WireError {
        WireError::Io(format!("multiplexed connection to {} died", self.addr))
    }

    /// Reader thread: reassembles response streams per request id and
    /// completes whichever pending exchange each one names.
    fn read_loop(&self, mut stream: TcpStream) {
        let mut reasm = MuxReassembly::new();
        let fatal = loop {
            let payload = match read_frame(&mut stream) {
                Ok(Some(payload)) => payload,
                // Clean EOF: the connection is simply gone.
                Ok(None) => break self.death(),
                // Mid-frame truncation, garbled length prefix, socket
                // error — keep the *named* transport error so every
                // stranded waiter learns what actually happened.
                Err(e) => break e,
            };
            // After the handshake the server only sends mux frames; a
            // plain one is its connection-level refusal (or a peer
            // that has lost framing).
            if !is_mux(&payload) {
                break WireError::Unexpected("non-mux frame on multiplexed connection".into());
            }
            let frame = match decode_mux(&payload) {
                Ok(f) => f,
                Err(e) => break e,
            };
            match reasm.accept(frame) {
                // A response that fails to decode is an answer to ONE
                // request, not a transport death: the framing is
                // intact, every other request keeps flowing.
                Ok(Some((id, bytes))) => self.complete(id, decode_response(&bytes)),
                Ok(None) => {}
                Err(e) => break e,
            }
        };
        self.die_with(fatal);
    }

    /// Hands one request's result to its waiter.
    fn complete(&self, id: u64, result: Result<Response, WireError>) {
        let Ok(mut slots) = self.slots.lock() else {
            return;
        };
        if let Some(slot) = slots.get_mut(&id) {
            *slot = Some(result);
            drop(slots);
            self.completed.notify_all();
        }
    }

    /// Marks the connection dead and fails every pending request — a
    /// response that will never arrive must not strand its waiter.
    fn die(&self) {
        let cause = self.death();
        self.die_with(cause);
    }

    /// [`MuxConn::die`], but pending requests fail with the specific
    /// transport error that killed the connection (a truncated frame
    /// surfaces as [`WireError::Truncated`], not a generic death).
    fn die_with(&self, cause: WireError) {
        self.dead.store(true, Ordering::Release);
        if let Ok(mut writer) = self.writer.lock() {
            *writer = None; // closes the socket; the reader unblocks
        }
        if let Ok(mut slots) = self.slots.lock() {
            for slot in slots.values_mut() {
                if slot.is_none() {
                    *slot = Some(Err(cause.clone()));
                }
            }
        }
        self.completed.notify_all();
    }

    /// Severs the socket in place (tests): the reader sees EOF and the
    /// connection dies exactly as on a real transport failure.
    #[cfg(test)]
    fn sever(&self) {
        if let Ok(writer) = self.writer.lock() {
            if let Some(stream) = writer.as_ref() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn write_frame(&self, bytes: &[u8]) -> Result<(), WireError> {
        let mut writer = self
            .writer
            .lock()
            .map_err(|_| WireError::Io("mux writer lock poisoned".into()))?;
        let Some(stream) = writer.as_mut() else {
            return Err(self.death());
        };
        let sent = stream.write_all(bytes).and_then(|()| stream.flush());
        drop(writer);
        if let Err(e) = sent {
            self.die();
            return Err(WireError::from(e));
        }
        Ok(())
    }

    /// One logical request/response exchange: registers a fresh id,
    /// writes the request frame, and blocks until the reader completes
    /// that id — responses interleave freely across ids in between. A
    /// request the server has not answered within
    /// [`MUX_REQUEST_TIMEOUT`] is cancelled best-effort and fails as a
    /// transport timeout.
    fn exchange(&self, req: &Request) -> Result<Response, WireError> {
        if self.is_dead() {
            return Err(self.death());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Stamp the caller's trace onto the request so shard-side
        // spans join its tree.
        let traced;
        let req = match scq_obs::current_id() {
            Some(trace_id) => {
                traced = Request::Traced {
                    trace_id,
                    inner: Box::new(req.clone()),
                };
                &traced
            }
            None => req,
        };
        let bytes = frame(&encode_mux(MUX_REQ, id, &encode_request(req)))?;
        let lock_err = |_| WireError::Io("mux slot lock poisoned".into());
        self.slots.lock().map_err(lock_err)?.insert(id, None);
        if let Err(e) = self.write_frame(&bytes) {
            if let Ok(mut slots) = self.slots.lock() {
                slots.remove(&id);
            }
            return Err(e);
        }
        let deadline = Instant::now() + MUX_REQUEST_TIMEOUT;
        let mut slots = self.slots.lock().map_err(lock_err)?;
        loop {
            if slots.get(&id).is_some_and(|slot| slot.is_some()) {
                return slots
                    .remove(&id)
                    .flatten()
                    .expect("slot was checked complete");
            }
            let now = Instant::now();
            if now >= deadline {
                slots.remove(&id);
                drop(slots);
                // Tell the server to stop working on it; the answer
                // would be dropped at `complete` anyway.
                if let Ok(cancel) = frame(&encode_mux(MUX_CANCEL, id, &[])) {
                    let _ = self.write_frame(&cancel);
                }
                return Err(WireError::Io(format!(
                    "request {id} to {} timed out after {:?}",
                    self.addr, MUX_REQUEST_TIMEOUT
                )));
            }
            slots = self
                .completed
                .wait_timeout(slots, deadline - now)
                .map_err(|_| WireError::Io("mux slot lock poisoned".into()))?
                .0;
        }
    }
}

/// Consecutive transport failures that trip an address's circuit
/// breaker when no explicit threshold is configured (the `breaker`
/// directive of a [`crate::ClusterSpec`]).
pub const DEFAULT_BREAKER_THRESHOLD: usize = 3;

/// Default breaker cooldown in milliseconds: how long a tripped
/// address is skipped before a half-open probe re-admits it.
pub const DEFAULT_BREAKER_COOLDOWN_MS: u64 = 1000;

/// The breaker's time source. Injectable so fault-injection tests
/// advance "time" by swapping the closure's answer instead of
/// sleeping through real cooldowns.
pub type BreakerClock = Arc<dyn Fn() -> Instant + Send + Sync>;

/// Per-address circuit-breaker tuning: `threshold` consecutive
/// transport failures trip the address into a `cooldown`-long open
/// state during which every request fast-fails with
/// [`WireError::BreakerOpen`] instead of dialing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transport failures before the breaker opens
    /// (must be at least 1).
    pub threshold: usize,
    /// How long an open breaker skips the address before letting one
    /// half-open probe through.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: DEFAULT_BREAKER_THRESHOLD,
            cooldown: Duration::from_millis(DEFAULT_BREAKER_COOLDOWN_MS),
        }
    }
}

/// Observable circuit-breaker state for one address.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, failures are being counted.
    #[default]
    Closed,
    /// Tripped: requests fast-fail without dialing until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed: exactly this state lets probes through; the
    /// first success closes the breaker, the first failure re-trips it.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase token for status lines (`STAT` output).
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "tripped",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Internal breaker state machine (the open state carries its expiry).
#[derive(Clone, Copy, Debug)]
enum Breaker {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

/// Observable per-address transport counters (diagnostics and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Connections ever dialed to the address.
    pub created: usize,
    /// Dead connections discarded (their successors re-dial).
    pub discarded: usize,
    /// Most requests in flight on the connection at the same time —
    /// proof of concurrent probes on one shard.
    pub peak_in_flight: usize,
    /// 1 while a live connection stands ready for another request,
    /// 0 otherwise.
    pub idle: usize,
    /// Circuit-breaker position for this address.
    pub breaker: BreakerState,
    /// Times the breaker has ever tripped open (each re-trip counts).
    pub breaker_trips: usize,
    /// Transport failures since the last success (resets to 0 on any
    /// completed exchange).
    pub consecutive_failures: usize,
    /// The wire version the last successful handshake settled on
    /// (0 = never connected).
    pub wire_version: u16,
}

struct LinkState {
    /// The multiplexed connection, once a handshake has succeeded; a
    /// dead one is replaced by the next request.
    conn: Option<Arc<MuxConn>>,
    in_flight: usize,
    created: usize,
    discarded: usize,
    peak_in_flight: usize,
    breaker: Breaker,
    consecutive_failures: usize,
    trips: usize,
}

/// The transport to one shard process: a single multiplexed connection
/// (dialed lazily, re-dialed when it dies) carrying every concurrent
/// request, behind the address's circuit breaker.
struct Link {
    addr: String,
    breaker_cfg: BreakerConfig,
    clock: BreakerClock,
    state: Mutex<LinkState>,
    /// Serializes dials: a burst of first requests opens ONE
    /// connection, not a stampede.
    dialing: Mutex<()>,
    /// Client-side instruments for this address: `link.wait` (time
    /// callers wait to get onto the address's one connection — observed on
    /// every exchange, so its count doubles as a request count) and
    /// `breaker.trips`. Snapshotted per replica and merged by
    /// [`RemoteShard`]'s `client_metrics`.
    registry: scq_obs::Registry,
    link_wait: scq_obs::Histogram,
    trips_counter: scq_obs::Counter,
}

impl Link {
    fn new(addr: String, breaker_cfg: BreakerConfig) -> Link {
        let registry = scq_obs::Registry::new();
        let link_wait = registry.histogram("link.wait");
        let trips_counter = registry.counter("breaker.trips");
        Link {
            addr,
            breaker_cfg,
            clock: Arc::new(Instant::now),
            state: Mutex::new(LinkState {
                conn: None,
                in_flight: 0,
                created: 0,
                discarded: 0,
                peak_in_flight: 0,
                breaker: Breaker::Closed,
                consecutive_failures: 0,
                trips: 0,
            }),
            dialing: Mutex::new(()),
            registry,
            link_wait,
            trips_counter,
        }
    }

    /// Whether the breaker lets a request through right now. An open
    /// breaker whose cooldown has elapsed transitions to half-open
    /// here — the caller's request becomes the probe that either
    /// closes or re-trips it.
    fn admits(&self) -> bool {
        let Ok(mut st) = self.state.lock() else {
            return false;
        };
        match st.breaker {
            Breaker::Closed | Breaker::HalfOpen => true,
            Breaker::Open { until } => {
                if (self.clock)() >= until {
                    st.breaker = Breaker::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Any completed exchange proves the transport works: reset the
    /// failure streak and close the breaker.
    fn note_success(&self) {
        let Ok(mut st) = self.state.lock() else {
            return;
        };
        st.consecutive_failures = 0;
        st.breaker = Breaker::Closed;
    }

    /// One transport failure: extend the streak; trip when the streak
    /// reaches the threshold (or immediately on a failed half-open
    /// probe — the address had one chance to prove itself).
    fn note_failure(&self) {
        let Ok(mut st) = self.state.lock() else {
            return;
        };
        st.consecutive_failures += 1;
        let trip = match st.breaker {
            Breaker::HalfOpen => true,
            Breaker::Closed => st.consecutive_failures >= self.breaker_cfg.threshold,
            Breaker::Open { .. } => false,
        };
        if trip {
            st.breaker = Breaker::Open {
                until: (self.clock)() + self.breaker_cfg.cooldown,
            };
            st.trips += 1;
            self.trips_counter.inc();
        }
    }

    /// One request/response exchange behind the breaker: an open
    /// breaker fast-fails with [`WireError::BreakerOpen`] without
    /// dialing, and the exchange's outcome feeds the breaker (only
    /// transport failures count — a server that *answers*, even with
    /// an error, is reachable).
    fn request(
        &self,
        req: &Request,
        idempotent: bool,
        retries: &mut usize,
    ) -> Result<Response, ShardError> {
        if !self.admits() {
            return Err(ShardError::Wire(WireError::BreakerOpen {
                addr: self.addr.clone(),
            }));
        }
        self.request_unguarded(req, idempotent, retries)
    }

    /// [`Link::request`] without the breaker gate: used by diagnostics
    /// ([`ShardBackend::check`]) and operator-driven resyncs (snapshot
    /// save/load), which must reach even a tripped address. Outcomes
    /// still feed the breaker.
    ///
    /// `idempotent` requests are retried once, on a freshly dialed
    /// connection, after a failure on a connection that had been
    /// established (a first-ever dial that fails does not retry).
    /// Every retry attempted is counted into `retries` **before** its
    /// outcome is known, so a probe that retried and still failed is
    /// distinguishable from one that never got a second chance.
    fn request_unguarded(
        &self,
        req: &Request,
        idempotent: bool,
        retries: &mut usize,
    ) -> Result<Response, ShardError> {
        let had_conn = self
            .state
            .lock()
            .map(|st| st.conn.is_some())
            .unwrap_or(false);
        let result = match self.connection() {
            Ok(conn) => match self.exchange(&conn, req) {
                Err(_) if idempotent => self.retry(req, retries),
                other => other.map_err(ShardError::from),
            },
            Err(e) if idempotent && had_conn && is_transport(&e) => self.retry(req, retries),
            Err(e) => Err(e),
        };
        match &result {
            Err(e) if is_transport(e) => self.note_failure(),
            _ => self.note_success(),
        }
        result
    }

    /// The one second attempt an idempotent request gets, on a fresh
    /// connection (`connection` discards the dead one and re-dials).
    fn retry(&self, req: &Request, retries: &mut usize) -> Result<Response, ShardError> {
        *retries += 1;
        scq_obs::event("retry", format!("addr={}", self.addr));
        let fresh = self.connection()?;
        self.exchange(&fresh, req).map_err(ShardError::from)
    }

    /// The live multiplexed connection, dialing one when none exists.
    /// A dead connection is discarded (exactly once) and replaced the
    /// same way.
    fn connection(&self) -> Result<Arc<MuxConn>, ShardError> {
        let lock_err = |_| ShardError::Rejected("connection state lock poisoned".into());
        loop {
            {
                let mut st = self.state.lock().map_err(lock_err)?;
                match &st.conn {
                    Some(conn) if !conn.is_dead() => return Ok(Arc::clone(conn)),
                    Some(_) => {
                        st.discarded += 1;
                        st.conn = None;
                    }
                    None => {}
                }
            }
            let _dial_guard = self
                .dialing
                .lock()
                .map_err(|_| ShardError::Rejected("connection state lock poisoned".into()))?;
            // Someone may have connected while this thread waited for
            // the dial lock; re-check before dialing.
            if self.state.lock().map_err(lock_err)?.conn.is_some() {
                continue;
            }
            let stream = dial(&self.addr).map_err(ShardError::from)?;
            let conn = MuxConn::spawn(stream, self.addr.clone()).map_err(ShardError::from)?;
            let mut st = self.state.lock().map_err(lock_err)?;
            st.created += 1;
            st.conn = Some(Arc::clone(&conn));
            return Ok(conn);
        }
    }

    /// The accounting wrapper around [`MuxConn::exchange`]: logical
    /// in-flight depth and the wait to get onto the connection.
    fn exchange(&self, conn: &MuxConn, req: &Request) -> Result<Response, WireError> {
        let started = Instant::now();
        if let Ok(mut st) = self.state.lock() {
            st.in_flight += 1;
            st.peak_in_flight = st.peak_in_flight.max(st.in_flight);
        }
        self.link_wait.observe(started.elapsed());
        let result = conn.exchange(req);
        if let Ok(mut st) = self.state.lock() {
            st.in_flight -= 1;
        }
        result
    }

    fn stats(&self) -> LinkStats {
        let st = self.state.lock().expect("connection state lock poisoned");
        LinkStats {
            created: st.created,
            discarded: st.discarded,
            peak_in_flight: st.peak_in_flight,
            idle: st.conn.as_ref().map_or(0, |conn| !conn.is_dead() as usize),
            // Every handshake that succeeds settles on the one version.
            wire_version: if st.created > 0 { WIRE_VERSION } else { 0 },
            breaker: match st.breaker {
                Breaker::Closed => BreakerState::Closed,
                Breaker::Open { .. } => BreakerState::Open,
                Breaker::HalfOpen => BreakerState::HalfOpen,
            },
            breaker_trips: st.trips,
            consecutive_failures: st.consecutive_failures,
        }
    }

    /// Severs the connection in place (tests: the next user must
    /// transparently re-dial).
    #[cfg(test)]
    fn break_idle(&self) {
        let st = self.state.lock().expect("connection state lock poisoned");
        if let Some(conn) = &st.conn {
            conn.sever();
        }
    }
}

/// One member of a [`RemoteShard`]'s replica set: an address, the
/// link to it (with breaker), and whether it is known to have missed
/// replicated writes.
struct Replica {
    addr: String,
    link: Link,
    desynced: bool,
}

/// Observable health of one replica of a [`RemoteShard`] — the
/// per-address view behind [`ShardBackend::health`].
#[derive(Clone, Debug)]
pub struct ReplicaHealth {
    /// The replica's address.
    pub addr: String,
    /// Whether this replica is the write primary (first in the set).
    pub primary: bool,
    /// Whether the replica missed a replicated write and is excluded
    /// from reads until a snapshot load re-converges it.
    pub desynced: bool,
    /// Connection and circuit-breaker counters for the address.
    pub stats: LinkStats,
}

/// Outcome of a [`crate::ShardBackend::resync`] pass over one shard's
/// replica set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResyncOutcome {
    /// Desynced replicas brought back in sync.
    pub resynced: usize,
    /// …of which caught up by replaying the primary's shipped WAL
    /// segments.
    pub via_wal: usize,
    /// …of which needed a full snapshot (the primary's log no longer
    /// reaches genesis, or the replica refused the replay).
    pub via_snapshot: usize,
}

/// Whether an error is a transport failure (the kind reads may fail
/// over on and the breaker counts); everything else is a loud answer
/// from a reachable server.
fn is_transport(e: &ShardError) -> bool {
    matches!(e, ShardError::Wire(w) if w.is_transport())
}

/// A shard living in other processes, reached over the wire protocol:
/// an ordered replica set whose first address is the write primary.
pub struct RemoteShard {
    universe: AaBox<2>,
    replicas: Vec<Replica>,
    collections: Vec<MirrorCollection>,
    by_name: HashMap<String, usize>,
}

impl RemoteShard {
    /// [`RemoteShard::connect_replicated`] over a single address with
    /// the default breaker tuning.
    pub fn connect(addr: &str, universe: AaBox<2>, wait: Duration) -> Result<Self, ShardError> {
        Self::connect_replicated(
            std::slice::from_ref(&addr.to_owned()),
            universe,
            wait,
            BreakerConfig::default(),
        )
    }

    /// Connects to an ordered replica set of shard processes (the
    /// first address is the write primary), polling each until it is
    /// reachable (sharing one `wait` deadline), then handshakes and
    /// seeds the mirror from the **primary's** current snapshot.
    /// Fails on a wire version mismatch or when a shard's universe
    /// differs from `universe` — a misconfigured deployment must not
    /// come up quietly — and requires every secondary's collection
    /// census to agree with the primary's: a replica restarted behind
    /// an old address (split-brain) is rejected here, loudly, instead
    /// of silently serving stale answers.
    pub fn connect_replicated(
        addrs: &[String],
        universe: AaBox<2>,
        wait: Duration,
        breaker: BreakerConfig,
    ) -> Result<Self, ShardError> {
        if addrs.is_empty() {
            return Err(ShardError::Rejected(
                "a replica set needs at least one address".into(),
            ));
        }
        let deadline = Instant::now() + wait;
        let mut replicas = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let link = Link::new(addr.clone(), breaker);
            loop {
                match link.connection() {
                    Ok(_) => break,
                    // Version mismatches and handshake rejections never
                    // heal by waiting; only connection refusals are
                    // readiness.
                    Err(
                        e @ ShardError::Wire(
                            WireError::VersionMismatch { .. } | WireError::Remote(_),
                        ),
                    ) => {
                        return Err(e);
                    }
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(e);
                        }
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            }
            replicas.push(Replica {
                addr: addr.clone(),
                link,
                desynced: false,
            });
        }
        let mut shard = RemoteShard {
            universe,
            replicas,
            collections: Vec::new(),
            by_name: HashMap::new(),
        };
        let stream = shard.snapshot_read()?;
        let decoded = shard.decode_stream(&stream)?;
        shard.commit_mirror(&decoded);
        for i in 1..shard.replicas.len() {
            shard.verify_replica_census(i)?;
        }
        Ok(shard)
    }

    /// The write primary's address.
    pub fn addr(&self) -> &str {
        &self.replicas[0].addr
    }

    /// Every replica address, primary first.
    pub fn replica_addrs(&self) -> Vec<String> {
        self.replicas.iter().map(|r| r.addr.clone()).collect()
    }

    /// The **primary's** connection counters (dials, discards, peak
    /// concurrency, breaker). Per-replica counters come from
    /// [`ShardBackend::health`].
    pub fn link_stats(&self) -> LinkStats {
        self.replicas[0].link.stats()
    }

    /// Replaces the breaker clock on every replica's link — tests
    /// advance an injected clock instead of sleeping through
    /// cooldowns.
    pub fn set_clock(&mut self, clock: BreakerClock) {
        for replica in &mut self.replicas {
            replica.link.clock = clock.clone();
        }
    }

    /// Whether the shard holds no collections at all (a fresh process;
    /// the only state a cluster may be assembled over without a
    /// manifest).
    pub fn is_pristine(&self) -> bool {
        self.collections.is_empty()
    }

    /// Requires replica `i`'s collection census (names, slot counts,
    /// live counts) to match the mirror just seeded from the primary.
    /// A replica that disagrees at connect time is split-brain — a
    /// pristine restart or stale process behind a configured address —
    /// and must be re-seeded from a snapshot, never served from.
    fn verify_replica_census(&self, i: usize) -> Result<(), ShardError> {
        let replica = &self.replicas[i];
        let rows = match replica
            .link
            .request_unguarded(&Request::Stat, true, &mut 0)?
        {
            Response::Stat(rows) => rows,
            Response::Err(m) => return Err(ShardError::Rejected(m)),
            other => {
                return Err(ShardError::Wire(WireError::Unexpected(format!(
                    "STAT answered {other:?}"
                ))))
            }
        };
        let agrees = rows.len() == self.collections.len()
            && rows
                .iter()
                .zip(&self.collections)
                .all(|((name, slots, live), m)| {
                    name == &m.name
                        && *slots as usize == m.regions.len()
                        && *live as usize == m.live_count
                });
        if !agrees {
            return Err(ShardError::Rejected(format!(
                "replica {} disagrees with the primary's state at connect \
                 (split-brain): restore every replica from one snapshot \
                 before serving",
                replica.addr
            )));
        }
        Ok(())
    }

    /// Compares one shard process's `STAT` census against the mirror.
    /// `who` names a secondary replica; `None` is the primary.
    fn census_drift(&self, rows: &[(String, u64, u64)], who: Option<&str>) -> Vec<String> {
        let prefix = |s: String| match who {
            Some(addr) => format!("replica {addr}: {s}"),
            None => s,
        };
        let mut problems = Vec::new();
        if rows.len() != self.collections.len() {
            problems.push(prefix(format!(
                "shard reports {} collections, mirror holds {}",
                rows.len(),
                self.collections.len()
            )));
            return problems;
        }
        for ((name, slots, live), m) in rows.iter().zip(&self.collections) {
            if name != &m.name
                || *slots as usize != m.regions.len()
                || *live as usize != m.live_count
            {
                problems.push(prefix(format!(
                    "mirror drift on {:?}: shard has {slots} slots / {live} live, \
                     mirror has {} / {}",
                    m.name,
                    m.regions.len(),
                    m.live_count
                )));
            }
        }
        problems
    }

    /// An idempotent read against the primary only (diagnostics,
    /// snapshot pulls) — no failover, no breaker gate: a stale
    /// secondary's snapshot would be silently wrong data, and an
    /// operator asking for diagnostics wants an answer even from a
    /// tripped address.
    fn primary_request(&self, req: &Request, idempotent: bool) -> Result<Response, ShardError> {
        self.replicas[0]
            .link
            .request_unguarded(req, idempotent, &mut 0)
    }

    /// A failure-aware read: replicas are tried in order (primary
    /// first), skipping desynced ones, and a transport failure —
    /// including a fast [`WireError::BreakerOpen`] — moves on to the
    /// next. Every replica skipped or failed before the serving one
    /// counts as a failover, and an answer served by a non-primary is
    /// flagged stale in `trace`. Non-transport errors (a server that
    /// *answers* wrongly) return immediately and loudly.
    fn read_request(
        &self,
        req: &Request,
        trace: &mut crate::backend::ProbeTrace,
    ) -> Result<Response, ShardError> {
        let mut last_err: Option<ShardError> = None;
        let mut skipped_or_failed = 0usize;
        for (i, replica) in self.replicas.iter().enumerate() {
            if replica.desynced {
                scq_obs::event("skip-desynced", format!("addr={}", replica.addr));
                skipped_or_failed += 1;
                continue;
            }
            match replica.link.request(req, true, &mut trace.retries) {
                Ok(resp) => {
                    trace.failovers += skipped_or_failed;
                    trace.stale |= i != 0;
                    return Ok(resp);
                }
                Err(e) if is_transport(&e) => {
                    // Name the address the read is moving past: a fast
                    // breaker skip reads differently from a dial that
                    // died, and the trace should show which happened.
                    if matches!(&e, ShardError::Wire(WireError::BreakerOpen { .. })) {
                        scq_obs::event("breaker-skip", format!("addr={}", replica.addr));
                    } else {
                        scq_obs::event("failover", format!("addr={} error={e}", replica.addr));
                    }
                    skipped_or_failed += 1;
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            ShardError::Wire(WireError::BreakerOpen {
                addr: self.replicas[0].addr.clone(),
            })
        }))
    }

    /// A mutation: primary only, never auto-retried (a lost ack is
    /// indistinguishable from a lost request), then fanned out
    /// verbatim to every secondary for write-through convergence. A
    /// secondary whose answer differs from the primary's is a loud
    /// lockstep error; a secondary the fan-out cannot reach is marked
    /// desynced and excluded from reads — the write itself still
    /// succeeds. A primary rejection (`Response::Err`) changed no
    /// state and is returned without fan-out. A primary transport
    /// failure does **not** desync the secondaries: the mirror was
    /// not advanced, so they still agree with it — only the primary
    /// may have drifted ahead, which [`ShardBackend::check`] reports
    /// as mirror drift.
    fn mutate(&mut self, req: &Request) -> Result<Response, ShardError> {
        let resp = self.replicas[0].link.request(req, false, &mut 0)?;
        if matches!(resp, Response::Err(_)) {
            return Ok(resp);
        }
        for replica in self.replicas.iter_mut().skip(1) {
            if replica.desynced {
                continue;
            }
            match replica.link.request(req, false, &mut 0) {
                Ok(ref rr) if *rr == resp => {}
                Ok(Response::Err(m)) => {
                    return Err(ShardError::Rejected(format!(
                        "replica {} rejected a mutation the primary accepted: {m}",
                        replica.addr
                    )));
                }
                Ok(other) => {
                    return Err(ShardError::Rejected(format!(
                        "replica {} answered {other:?} where the primary answered \
                         {resp:?}: replica state is out of lockstep",
                        replica.addr
                    )));
                }
                Err(e) if is_transport(&e) => {
                    let _ = e;
                    replica.desynced = true;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(resp)
    }

    /// Decodes and validates an `SCQS` stream (exactly like a shard
    /// process would) without committing anything.
    fn decode_stream(&self, stream: &[u8]) -> Result<SpatialDatabase<2>, ShardError> {
        let db: SpatialDatabase<2> = snapshot::load(stream)
            .map_err(|e| ShardError::Rejected(format!("bad shard snapshot: {e}")))?;
        if db.universe() != &self.universe {
            return Err(ShardError::Rejected(format!(
                "shard {} universe {:?} differs from the cluster universe {:?}",
                self.addr(),
                db.universe(),
                self.universe
            )));
        }
        Ok(db)
    }

    /// The shard process's per-collection mutation epochs, in
    /// collection-id order — `None` when the shard is unreachable.
    fn shard_epochs(&self) -> Option<Vec<u64>> {
        match self.primary_request(&Request::Epochs, true) {
            Ok(Response::Ids(epochs)) => Some(epochs),
            _ => None,
        }
    }

    /// Replaces the mirror with the contents of a decoded stream.
    fn commit_mirror(&mut self, db: &SpatialDatabase<2>) {
        // Epoch seeding: adopt the shard process's own epochs (the
        // stream was already applied there, so this reflects the
        // post-load state) and the lockstep check holds from the first
        // mutation on. If the shard cannot be asked right now, the
        // mirror epochs instead advance strictly past the previous
        // mirror generation (old + 1, matched by name) so any
        // epoch-keyed cache entry taken before the reload is
        // invalidated.
        let fetched = self.shard_epochs();
        let old_epochs: HashMap<String, u64> = self
            .collections
            .iter()
            .map(|c| (c.name.clone(), c.epoch))
            .collect();
        self.collections = db
            .collections()
            .map(|coll| {
                let n = db.collection_len(coll);
                let name = db.collection_name(coll).to_owned();
                let epoch = match &fetched {
                    Some(epochs) => epochs.get(coll.0).copied().unwrap_or(0),
                    None => old_epochs.get(&name).map_or(0, |&e| e + 1),
                };
                let mut m = MirrorCollection {
                    name,
                    regions: Vec::with_capacity(n),
                    bboxes: Vec::with_capacity(n),
                    live: Vec::with_capacity(n),
                    live_count: db.live_len(coll),
                    epoch,
                };
                for index in db.object_indices(coll) {
                    let obj = scq_engine::ObjectRef {
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
        self.by_name = self
            .collections
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
    }

    fn coll(&self, coll: CollectionId) -> &MirrorCollection {
        &self.collections[coll.0]
    }

    /// Pulls the primary's snapshot **read-only**: same bytes as
    /// [`ShardBackend::snapshot_stream`], but the shard keeps its WAL
    /// intact. Mirror bootstrap and resync shipping use this so merely
    /// reading a shard never seals its log.
    fn snapshot_read(&self) -> Result<Bytes, ShardError> {
        match self.primary_request(&Request::SnapshotRead, true)? {
            Response::Bytes(bytes) => Ok(bytes.into()),
            Response::Err(m) => Err(ShardError::Rejected(m)),
            other => Err(ShardError::Wire(WireError::Unexpected(format!(
                "SNAPSHOT READ answered {other:?}"
            )))),
        }
    }
}

impl ShardBackend for RemoteShard {
    fn describe(&self) -> String {
        format!("remote:{}", self.addr())
    }

    fn universe(&self) -> &AaBox<2> {
        &self.universe
    }

    fn create_collection(&mut self, name: &str) -> Result<CollectionId, ShardError> {
        if let Some(&i) = self.by_name.get(name) {
            return Ok(CollectionId(i));
        }
        let resp = self.mutate(&Request::Create {
            name: name.to_owned(),
        })?;
        let id = match resp {
            Response::Coll(id) => id,
            Response::Err(m) => return Err(ShardError::Rejected(m)),
            other => {
                return Err(ShardError::Wire(WireError::Unexpected(format!(
                    "CREATE answered {other:?}"
                ))))
            }
        };
        // Shards create collections in lockstep with the router; a
        // shard that numbers them differently is serving someone else.
        if id.0 != self.collections.len() {
            return Err(ShardError::Rejected(format!(
                "shard {} numbered collection {name:?} as {} (expected {}): \
                 shard state is out of lockstep with the router",
                self.addr(),
                id.0,
                self.collections.len()
            )));
        }
        self.collections.push(MirrorCollection {
            name: name.to_owned(),
            ..MirrorCollection::default()
        });
        self.by_name.insert(name.to_owned(), id.0);
        Ok(id)
    }

    fn collection_id(&self, name: &str) -> Option<CollectionId> {
        self.by_name.get(name).map(|&i| CollectionId(i))
    }

    fn collection_len(&self, coll: CollectionId) -> usize {
        self.coll(coll).regions.len()
    }

    fn live_len(&self, coll: CollectionId) -> usize {
        self.coll(coll).live_count
    }

    fn epoch(&self, coll: CollectionId) -> u64 {
        self.coll(coll).epoch
    }

    fn is_live(&self, coll: CollectionId, local: usize) -> bool {
        self.coll(coll).live[local]
    }

    fn region(&self, coll: CollectionId, local: usize) -> &Region<2> {
        &self.coll(coll).regions[local]
    }

    fn bbox(&self, coll: CollectionId, local: usize) -> Bbox<2> {
        self.coll(coll).bboxes[local]
    }

    fn insert(&mut self, coll: CollectionId, region: Region<2>) -> Result<usize, ShardError> {
        let resp = self.mutate(&Request::Insert {
            coll,
            region: region.clone(),
        })?;
        let local = match resp {
            Response::Slot(local) => local as usize,
            Response::Err(m) => return Err(ShardError::Rejected(m)),
            other => {
                return Err(ShardError::Wire(WireError::Unexpected(format!(
                    "INSERT answered {other:?}"
                ))))
            }
        };
        let expected = self.collections[coll.0].regions.len();
        if local != expected {
            return Err(ShardError::Rejected(format!(
                "shard {} handed out slot {local}, mirror expected {expected}: \
                 shard state is out of lockstep with the router",
                self.addr(),
            )));
        }
        let m = &mut self.collections[coll.0];
        m.bboxes.push(region.bbox());
        m.regions.push(region);
        m.live.push(true);
        m.live_count += 1;
        m.epoch += 1;
        Ok(local)
    }

    fn remove(&mut self, coll: CollectionId, local: usize) -> Result<bool, ShardError> {
        let resp = self.mutate(&Request::Remove {
            coll,
            local: local as u64,
        })?;
        match resp {
            Response::Flag(removed) => {
                if removed != self.collections[coll.0].live[local] {
                    return Err(ShardError::Rejected(format!(
                        "shard {} liveness for slot {local} disagrees with the mirror",
                        self.addr(),
                    )));
                }
                if removed {
                    let m = &mut self.collections[coll.0];
                    m.live[local] = false;
                    m.live_count -= 1;
                    m.epoch += 1;
                }
                Ok(removed)
            }
            Response::Err(m) => Err(ShardError::Rejected(m)),
            other => Err(ShardError::Wire(WireError::Unexpected(format!(
                "REMOVE answered {other:?}"
            )))),
        }
    }

    fn update(
        &mut self,
        coll: CollectionId,
        local: usize,
        region: Region<2>,
    ) -> Result<bool, ShardError> {
        let resp = self.mutate(&Request::Update {
            coll,
            local: local as u64,
            region: region.clone(),
        })?;
        match resp {
            Response::Flag(updated) => {
                if updated {
                    let m = &mut self.collections[coll.0];
                    m.bboxes[local] = region.bbox();
                    m.regions[local] = region;
                    m.epoch += 1;
                }
                Ok(updated)
            }
            Response::Err(m) => Err(ShardError::Rejected(m)),
            other => Err(ShardError::Wire(WireError::Unexpected(format!(
                "UPDATE answered {other:?}"
            )))),
        }
    }

    fn try_corner_query(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<2>,
        out: &mut Vec<u64>,
        trace: &mut crate::backend::ProbeTrace,
    ) -> Result<(), ShardError> {
        let resp = self.read_request(
            &Request::Query {
                coll,
                kind,
                query: *q,
            },
            trace,
        )?;
        match resp {
            Response::Ids(ids) => {
                out.extend(ids);
                Ok(())
            }
            Response::Err(m) => Err(ShardError::Rejected(m)),
            other => Err(ShardError::Wire(WireError::Unexpected(format!(
                "QUERY answered {other:?}"
            )))),
        }
    }

    fn health(&self) -> Vec<ReplicaHealth> {
        self.replicas
            .iter()
            .enumerate()
            .map(|(i, r)| ReplicaHealth {
                addr: r.addr.clone(),
                primary: i == 0,
                desynced: r.desynced,
                stats: r.link.stats(),
            })
            .collect()
    }

    fn metrics(&self) -> Option<scq_obs::Snapshot> {
        // Primary only: replica processes see the same replicated
        // writes but their read traffic differs, and a merged answer
        // would blur which process the latencies belong to.
        match self.primary_request(&Request::Metrics, true) {
            Ok(Response::Metrics(snap)) => Some(snap),
            // A dead shard answers nothing: nothing to report.
            _ => None,
        }
    }

    fn client_metrics(&self) -> Option<scq_obs::Snapshot> {
        let mut merged: Option<scq_obs::Snapshot> = None;
        for replica in &self.replicas {
            let snap = replica.link.registry.snapshot();
            merged = Some(match merged {
                Some(mut acc) => {
                    acc.merge(&snap);
                    acc
                }
                None => snap,
            });
        }
        merged
    }

    fn compact(&mut self) -> Result<CompactReport, ShardError> {
        let resp = self.mutate(&Request::Compact)?;
        let (reclaimed, remap) = match resp {
            Response::Remap { reclaimed, remap } => (reclaimed, remap),
            Response::Err(m) => return Err(ShardError::Rejected(m)),
            other => {
                return Err(ShardError::Wire(WireError::Unexpected(format!(
                    "COMPACT answered {other:?}"
                ))))
            }
        };
        let addr = self.addr().to_owned();
        if remap.len() != self.collections.len() {
            return Err(ShardError::Rejected(format!(
                "shard {addr} compacted {} collections, mirror holds {}",
                remap.len(),
                self.collections.len()
            )));
        }
        // Apply the shard's remap to the mirror: live slots shift down
        // in order, dropped slots disappear.
        for (m, coll_remap) in self.collections.iter_mut().zip(&remap) {
            if coll_remap.len() != m.regions.len() {
                return Err(ShardError::Rejected(format!(
                    "shard {addr} remap covers {} slots, mirror holds {}",
                    coll_remap.len(),
                    m.regions.len()
                )));
            }
            let old_regions = std::mem::take(&mut m.regions);
            let old_bboxes = std::mem::take(&mut m.bboxes);
            let old_live = std::mem::take(&mut m.live);
            let survivors = coll_remap.iter().flatten().count();
            m.regions = vec![Region::empty(); survivors];
            m.bboxes = vec![Bbox::Empty; survivors];
            m.live = vec![true; survivors];
            // Injectivity is checked explicitly: a desynced shard
            // mapping two live slots onto one target would otherwise
            // silently drop one region and leave another slot empty.
            let mut assigned = vec![false; survivors];
            for (old, new) in coll_remap.iter().enumerate() {
                let Some(new) = *new else { continue };
                let new = new as usize;
                if new >= survivors || !old_live[old] || assigned[new] {
                    return Err(ShardError::Rejected(format!(
                        "shard {addr} remap is not a liveness-respecting bijection"
                    )));
                }
                assigned[new] = true;
                m.regions[new] = old_regions[old].clone();
                m.bboxes[new] = old_bboxes[old];
            }
            m.live_count = survivors;
            // Compaction renumbers slots, so it advances the epoch of
            // every collection — exactly as the shard process does.
            m.epoch += 1;
        }
        Ok(CompactReport {
            remap: remap
                .into_iter()
                .map(|coll| coll.into_iter().map(|s| s.map(|i| i as usize)).collect())
                .collect(),
            slots_reclaimed: reclaimed as usize,
        })
    }

    fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // The primary's own structural check…
        match self.primary_request(&Request::Check, true) {
            Ok(Response::Problems(ps)) => problems.extend(ps),
            Ok(Response::Err(m)) => problems.push(format!("remote check failed: {m}")),
            Ok(other) => problems.push(format!("CHECK answered {other:?}")),
            Err(e) => problems.push(format!("remote check unreachable: {e}")),
        }
        // …plus a mirror-vs-shard census: slot and live counts must
        // agree per collection or the mirror has drifted.
        match self.primary_request(&Request::Stat, true) {
            Ok(Response::Stat(rows)) => {
                problems.extend(self.census_drift(&rows, None));
            }
            Ok(other) => problems.push(format!("STAT answered {other:?}")),
            Err(e) => problems.push(format!("remote stat unreachable: {e}")),
        }
        // …plus epoch lockstep: the mirror's per-collection mutation
        // epochs must equal the shard's, or epoch-keyed caches above
        // this backend may serve stale answers.
        match self.primary_request(&Request::Epochs, true) {
            Ok(Response::Ids(epochs)) => {
                for (i, m) in self.collections.iter().enumerate() {
                    let shard = epochs.get(i).copied();
                    if shard != Some(m.epoch) {
                        problems.push(format!(
                            "mirror epoch for {:?} is {}, shard reports {:?}: \
                             epoch lockstep broken",
                            m.name, m.epoch, shard
                        ));
                    }
                }
            }
            Ok(other) => problems.push(format!("EPOCHS answered {other:?}")),
            Err(e) => problems.push(format!("remote epochs unreachable: {e}")),
        }
        // …plus the same census per secondary: a replica that missed
        // writes (desynced) or answers a different census must not be
        // served from until re-seeded.
        for replica in self.replicas.iter().skip(1) {
            if replica.desynced {
                problems.push(format!(
                    "replica {} is desynced (missed replicated writes); \
                     restore it with SNAPSHOT LOAD",
                    replica.addr
                ));
                continue;
            }
            match replica.link.request_unguarded(&Request::Stat, true, &mut 0) {
                Ok(Response::Stat(rows)) => {
                    problems.extend(self.census_drift(&rows, Some(&replica.addr)));
                }
                Ok(Response::Err(m)) => {
                    problems.push(format!("replica {} stat failed: {m}", replica.addr))
                }
                Ok(other) => {
                    problems.push(format!("replica {} STAT answered {other:?}", replica.addr))
                }
                Err(e) => problems.push(format!("replica {} unreachable: {e}", replica.addr)),
            }
        }
        problems
    }

    fn wal_stats(&self) -> Option<crate::wal::WalStats> {
        // Each replica process keeps its own log; the shard's counters
        // are their sum. Replicas without a WAL (or unreachable ones)
        // contribute nothing; if none keeps a log there is nothing to
        // report.
        let mut agg: Option<crate::wal::WalStats> = None;
        for replica in &self.replicas {
            if let Ok(Response::WalStat(stats)) =
                replica
                    .link
                    .request_unguarded(&Request::WalStat, true, &mut 0)
            {
                agg = Some(agg.map_or(stats, |a| a.merge(&stats)));
            }
        }
        agg
    }

    fn resync(&mut self) -> Result<ResyncOutcome, ShardError> {
        let mut outcome = ResyncOutcome::default();
        if !self.replicas.iter().skip(1).any(|r| r.desynced) {
            return Ok(outcome);
        }
        // Preferred transport: the primary's WAL, when it still
        // reaches genesis (complete). The replica is reset to pristine
        // with an empty snapshot (a few bytes) and replays the shipped
        // segments — far less data than a full snapshot on a log that
        // has not grown past its truncation budget.
        let export: Option<Vec<Vec<u8>>> = match self.primary_request(&Request::WalExport, true) {
            Ok(Response::WalSegments {
                complete: true,
                segments,
            }) => Some(segments),
            _ => None,
        };
        let empty = snapshot::save(&SpatialDatabase::new(self.universe)).to_vec();
        let mut full_stream: Option<Vec<u8>> = None;
        for i in 1..self.replicas.len() {
            if !self.replicas[i].desynced {
                continue;
            }
            let mut fixed_via_wal = false;
            if let Some(segments) = &export {
                let replica = &self.replicas[i];
                let reset = replica.link.request_unguarded(
                    &Request::SnapshotLoad {
                        stream: empty.clone(),
                    },
                    false,
                    &mut 0,
                );
                if matches!(reset, Ok(Response::Ok)) {
                    if let Ok(Response::Applied(_)) = replica.link.request_unguarded(
                        &Request::WalApply {
                            segments: segments.clone(),
                        },
                        false,
                        &mut 0,
                    ) {
                        fixed_via_wal = true;
                    }
                }
            }
            if !fixed_via_wal {
                // Fallback: ship the primary's full snapshot (pulled
                // once, reused for every lagging replica).
                let stream = match &full_stream {
                    Some(s) => s.clone(),
                    None => {
                        // Read-only pull: repairing a replica must not
                        // truncate the primary's log.
                        let s = self.snapshot_read()?.to_vec();
                        full_stream = Some(s.clone());
                        s
                    }
                };
                match self.replicas[i].link.request_unguarded(
                    &Request::SnapshotLoad { stream },
                    false,
                    &mut 0,
                ) {
                    Ok(Response::Ok) => {}
                    Ok(Response::Err(m)) => {
                        return Err(ShardError::Rejected(format!(
                            "replica {} refused the resync snapshot: {m}",
                            self.replicas[i].addr
                        )));
                    }
                    Ok(other) => {
                        return Err(ShardError::Wire(WireError::Unexpected(format!(
                            "SNAPSHOT LOAD answered {other:?}"
                        ))));
                    }
                    // Unreachable: the replica simply stays desynced
                    // until a later pass can reach it.
                    Err(e) if is_transport(&e) => continue,
                    Err(e) => return Err(e),
                }
            }
            self.replicas[i].desynced = false;
            // The replica must now agree with the mirror exactly; a
            // replay or snapshot that converged anywhere else is loud.
            self.verify_replica_census(i)?;
            outcome.resynced += 1;
            if fixed_via_wal {
                outcome.via_wal += 1;
            } else {
                outcome.via_snapshot += 1;
            }
        }
        Ok(outcome)
    }

    fn snapshot_stream(&self) -> Result<Bytes, ShardError> {
        // Primary only, no failover: a desynced or stale secondary's
        // snapshot would persist silently wrong data. This is the
        // explicit save path, so the primary also truncates its WAL —
        // the stream becomes the shard's recovery base.
        match self.primary_request(&Request::SnapshotSave, true)? {
            Response::Bytes(bytes) => Ok(bytes.into()),
            Response::Err(m) => Err(ShardError::Rejected(m)),
            other => Err(ShardError::Wire(WireError::Unexpected(format!(
                "SNAPSHOT SAVE answered {other:?}"
            )))),
        }
    }

    fn load_snapshot(&mut self, stream: &[u8]) -> Result<(), ShardError> {
        // Validate locally first (a stream the mirror cannot decode
        // must not reach any shard process at all), then ship it to
        // the primary, and only commit the mirror once the primary
        // has accepted — a shard-side failure must leave mirror and
        // shard agreeing on the OLD data, not silently describing
        // different worlds.
        let decoded = self.decode_stream(stream)?;
        let req = Request::SnapshotLoad {
            stream: stream.to_vec(),
        };
        match self.replicas[0]
            .link
            .request_unguarded(&req, false, &mut 0)?
        {
            Response::Ok => {}
            Response::Err(m) => return Err(ShardError::Rejected(m)),
            other => {
                return Err(ShardError::Wire(WireError::Unexpected(format!(
                    "SNAPSHOT LOAD answered {other:?}"
                ))))
            }
        }
        self.commit_mirror(&decoded);
        // Fan the same snapshot out to every secondary: this is the
        // re-sync path, so it is attempted even on desynced replicas
        // (clearing the flag on success) and bypasses the breaker
        // gate; an unreachable secondary stays/becomes desynced.
        for replica in self.replicas.iter_mut().skip(1) {
            match replica.link.request_unguarded(&req, false, &mut 0) {
                Ok(Response::Ok) => replica.desynced = false,
                Ok(Response::Err(m)) => {
                    return Err(ShardError::Rejected(format!(
                        "replica {} rejected a snapshot the primary accepted: {m}",
                        replica.addr
                    )));
                }
                Ok(other) => {
                    return Err(ShardError::Wire(WireError::Unexpected(format!(
                        "SNAPSHOT LOAD answered {other:?}"
                    ))));
                }
                Err(e) if is_transport(&e) => {
                    let _ = e;
                    replica.desynced = true;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ProbeTrace;
    use crate::server::{serve_shard, ShardServerConfig};

    fn universe() -> AaBox<2> {
        AaBox::new([0.0, 0.0], [100.0, 100.0])
    }

    fn start() -> (crate::server::ShardServerHandle, RemoteShard) {
        let server = serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            universe_size: 100.0,
            ..ShardServerConfig::default()
        })
        .unwrap();
        let shard = RemoteShard::connect(
            &server.addr().to_string(),
            universe(),
            Duration::from_secs(5),
        )
        .unwrap();
        (server, shard)
    }

    fn boxed(x: f64, y: f64, w: f64, h: f64) -> Region<2> {
        Region::from_box(AaBox::new([x, y], [x + w, y + h]))
    }

    /// Drives the same mutation script through a RemoteShard and a
    /// LocalShard; every read answer must match.
    #[test]
    fn remote_backend_matches_local_backend() {
        let (server, mut remote) = start();
        let mut local = crate::LocalShard::new(universe());
        let c_r = remote.create_collection("objs").unwrap();
        let c_l = local.create_collection("objs").unwrap();
        assert_eq!(c_r, c_l);
        for i in 0..12 {
            let t = (i * 17 % 89) as f64;
            let r = boxed(t, 90.0 - t, 3.0, 4.0);
            assert_eq!(
                remote.insert(c_r, r.clone()).unwrap(),
                local.insert(c_l, r).unwrap()
            );
        }
        assert_eq!(
            remote.remove(c_r, 3).unwrap(),
            local.remove(c_l, 3).unwrap()
        );
        assert_eq!(
            remote.update(c_r, 5, boxed(1.0, 1.0, 2.0, 2.0)).unwrap(),
            local.update(c_l, 5, boxed(1.0, 1.0, 2.0, 2.0)).unwrap()
        );
        assert_eq!(remote.collection_len(c_r), local.collection_len(c_l));
        assert_eq!(remote.live_len(c_r), local.live_len(c_l));
        for local_slot in 0..remote.collection_len(c_r) {
            assert_eq!(
                remote.is_live(c_r, local_slot),
                local.is_live(c_l, local_slot)
            );
            assert!(remote
                .region(c_r, local_slot)
                .same_set(local.region(c_l, local_slot)));
            assert_eq!(remote.bbox(c_r, local_slot), local.bbox(c_l, local_slot));
        }
        let q = CornerQuery::unconstrained().and_overlaps(&Bbox::new([0.0, 0.0], [50.0, 95.0]));
        for kind in [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut trace = ProbeTrace::default();
            remote
                .try_corner_query(c_r, kind, &q, &mut a, &mut trace)
                .unwrap();
            local
                .try_corner_query(c_l, kind, &q, &mut b, &mut trace)
                .unwrap();
            assert_eq!(trace.retries, 0, "healthy backends never retry");
            assert_eq!(trace.failovers, 0, "healthy backends never fail over");
            assert!(!trace.stale, "the primary's answers are never stale");
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{kind:?}");
        }
        assert!(remote.check().is_empty(), "{:?}", remote.check());
        // compaction: same remap, same surviving answers
        let rr = remote.compact().unwrap();
        let lr = local.compact().unwrap();
        assert_eq!(rr.remap, lr.remap);
        assert_eq!(rr.slots_reclaimed, lr.slots_reclaimed);
        assert_eq!(remote.collection_len(c_r), local.collection_len(c_l));
        assert!(remote.check().is_empty(), "{:?}", remote.check());
        // snapshot stream round trip into a fresh local backend
        let stream = remote.snapshot_stream().unwrap();
        let mut fresh = crate::LocalShard::new(universe());
        fresh.load_snapshot(&stream).unwrap();
        assert_eq!(fresh.collection_len(c_r), remote.collection_len(c_r));
        server.shutdown();
    }

    #[test]
    fn connect_times_out_against_a_dead_address() {
        let err = RemoteShard::connect(
            "127.0.0.1:1", // reserved port, nothing listens
            universe(),
            Duration::from_millis(300),
        )
        .err()
        .expect("connect must fail");
        assert!(matches!(err, ShardError::Wire(_)), "{err}");
    }

    #[test]
    fn universe_mismatch_is_rejected_at_connect() {
        let server = serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            universe_size: 500.0, // shard disagrees with the cluster
            ..ShardServerConfig::default()
        })
        .unwrap();
        let err = RemoteShard::connect(
            &server.addr().to_string(),
            universe(),
            Duration::from_secs(5),
        )
        .err()
        .expect("universe mismatch must be rejected");
        assert!(err.to_string().contains("universe"), "{err}");
        server.shutdown();
    }

    #[test]
    fn queries_survive_a_server_side_connection_drop() {
        let (server, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(10.0, 10.0, 5.0, 5.0)).unwrap();
        // Sever the connection in place… the next idempotent
        // request transparently re-dials.
        remote.replicas[0].link.break_idle();
        let mut out = Vec::new();
        remote
            .try_corner_query(
                c,
                IndexKind::RTree,
                &CornerQuery::unconstrained(),
                &mut out,
                &mut ProbeTrace::default(),
            )
            .unwrap();
        assert_eq!(out, vec![0]);
        server.shutdown();
    }

    #[test]
    fn sequential_requests_reuse_one_pooled_connection() {
        let (server, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        for i in 0..6 {
            remote
                .insert(c, boxed(i as f64 * 10.0, 5.0, 3.0, 3.0))
                .unwrap();
            let mut out = Vec::new();
            remote
                .try_corner_query(
                    c,
                    IndexKind::Scan,
                    &CornerQuery::unconstrained(),
                    &mut out,
                    &mut ProbeTrace::default(),
                )
                .unwrap();
            assert_eq!(out.len(), i + 1);
        }
        let stats = remote.link_stats();
        assert_eq!(
            stats.created, 1,
            "sequential traffic convoys onto one connection: {stats:?}"
        );
        assert_eq!(stats.discarded, 0, "{stats:?}");
        assert_eq!(stats.idle, 1, "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn broken_connections_are_discarded_and_redialed() {
        let (server, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
        let before = remote.link_stats();
        // Kill the server: the in-flight exchange fails, the broken
        // connection must NOT be reused.
        server.shutdown();
        let mut out = Vec::new();
        assert!(remote
            .try_corner_query(
                c,
                IndexKind::RTree,
                &CornerQuery::unconstrained(),
                &mut out,
                &mut ProbeTrace::default(),
            )
            .is_err());
        let after = remote.link_stats();
        assert_eq!(after.idle, 0, "a dead connection stayed in use");
        assert!(after.discarded > before.discarded, "{after:?}");
    }

    #[test]
    fn mutations_fail_cleanly_after_shutdown() {
        let (server, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        server.shutdown();
        let err = remote.insert(c, boxed(1.0, 1.0, 1.0, 1.0)).err().unwrap();
        assert!(matches!(err, ShardError::Wire(_)), "{err}");
    }

    fn start_one() -> crate::server::ShardServerHandle {
        serve_shard(&ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            universe_size: 100.0,
            ..ShardServerConfig::default()
        })
        .unwrap()
    }

    fn start_replicated(
        breaker: BreakerConfig,
    ) -> (
        crate::server::ShardServerHandle,
        crate::server::ShardServerHandle,
        RemoteShard,
    ) {
        let a = start_one();
        let b = start_one();
        let shard = RemoteShard::connect_replicated(
            &[a.addr().to_string(), b.addr().to_string()],
            universe(),
            Duration::from_secs(5),
            breaker,
        )
        .unwrap();
        (a, b, shard)
    }

    fn query_all(remote: &RemoteShard, c: CollectionId, trace: &mut ProbeTrace) -> Vec<u64> {
        let mut out = Vec::new();
        remote
            .try_corner_query(
                c,
                IndexKind::RTree,
                &CornerQuery::unconstrained(),
                &mut out,
                trace,
            )
            .unwrap();
        out.sort_unstable();
        out
    }

    #[test]
    fn reads_fail_over_to_the_secondary_when_the_primary_dies() {
        let breaker = BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_secs(3600),
        };
        let (a, b, mut remote) = start_replicated(breaker);
        let c = remote.create_collection("objs").unwrap();
        for i in 0..5 {
            remote
                .insert(c, boxed(i as f64 * 10.0, 5.0, 3.0, 3.0))
                .unwrap();
        }
        // Healthy replica set: primary serves, nothing is stale.
        let mut trace = ProbeTrace::default();
        assert_eq!(query_all(&remote, c, &mut trace), vec![0, 1, 2, 3, 4]);
        assert_eq!((trace.failovers, trace.stale), (0, false));

        a.shutdown();
        // The same answers now come from the secondary — the fan-out
        // kept it converged — flagged as one failover and stale.
        let mut trace = ProbeTrace::default();
        assert_eq!(query_all(&remote, c, &mut trace), vec![0, 1, 2, 3, 4]);
        assert_eq!(trace.failovers, 1, "{trace:?}");
        assert!(trace.stale, "{trace:?}");

        // A dead primary fails writes loudly — never a silent redirect
        // to the secondary.
        let err = remote.insert(c, boxed(1.0, 1.0, 1.0, 1.0)).err().unwrap();
        assert!(matches!(err, ShardError::Wire(_)), "{err}");
        let mut trace = ProbeTrace::default();
        assert_eq!(
            query_all(&remote, c, &mut trace),
            vec![0, 1, 2, 3, 4],
            "the failed write must not have reached the secondary"
        );

        // Two reads + one write = three consecutive transport failures:
        // the primary's breaker is now open, and further reads skip the
        // dead address without dialing (still one failover, still
        // correct).
        let health = remote.health();
        assert_eq!(health.len(), 2);
        assert!(health[0].primary && !health[1].primary);
        assert_eq!(health[0].stats.breaker, BreakerState::Open, "{health:?}");
        assert_eq!(health[0].stats.breaker_trips, 1, "{health:?}");
        assert_eq!(health[1].stats.breaker, BreakerState::Closed, "{health:?}");
        let mut trace = ProbeTrace::default();
        assert_eq!(query_all(&remote, c, &mut trace), vec![0, 1, 2, 3, 4]);
        assert_eq!(trace.failovers, 1, "{trace:?}");
        assert_eq!(trace.retries, 0, "an open breaker does not dial: {trace:?}");
        b.shutdown();
    }

    #[test]
    fn dead_secondary_desyncs_quietly_and_writes_keep_working() {
        let (a, b, mut remote) = start_replicated(BreakerConfig::default());
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
        b.shutdown();
        // The fan-out cannot reach the secondary: the write succeeds,
        // the replica is marked desynced, and reads stay primary-only
        // (non-stale) instead of failing over to known-bad state.
        remote.insert(c, boxed(11.0, 1.0, 2.0, 2.0)).unwrap();
        let health = remote.health();
        assert!(!health[0].desynced && health[1].desynced, "{health:?}");
        let mut trace = ProbeTrace::default();
        assert_eq!(query_all(&remote, c, &mut trace), vec![0, 1]);
        assert_eq!((trace.failovers, trace.stale), (0, false), "{trace:?}");
        let problems = remote.check();
        assert!(
            problems.iter().any(|p| p.contains("desynced")),
            "{problems:?}"
        );
        a.shutdown();
    }

    #[test]
    fn split_brain_replica_is_rejected_at_connect() {
        let a = start_one();
        // Seed the primary with state through a plain single-replica
        // client, then try to assemble a replica set with a pristine
        // process behind the second address.
        let mut seed =
            RemoteShard::connect(&a.addr().to_string(), universe(), Duration::from_secs(5))
                .unwrap();
        let c = seed.create_collection("objs").unwrap();
        seed.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
        drop(seed);
        let b = start_one();
        let err = RemoteShard::connect_replicated(
            &[a.addr().to_string(), b.addr().to_string()],
            universe(),
            Duration::from_secs(5),
            BreakerConfig::default(),
        )
        .err()
        .expect("a pristine replica behind a non-pristine primary must be rejected");
        assert!(err.to_string().contains("split-brain"), "{err}");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shard_metrics_come_back_over_the_wire() {
        let (server, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
        let mut trace = ProbeTrace::default();
        query_all(&remote, c, &mut trace);
        let snap = remote.metrics().expect("a live shard answers metrics");
        let h = snap
            .histogram("shard.query.latency")
            .expect("the query latency histogram exists");
        assert!(h.count() >= 1, "the query above was observed");
        assert!(
            snap.histogram("shard.insert.latency").is_some(),
            "mutations are observed too"
        );
        server.shutdown();
    }

    #[test]
    fn client_metrics_count_checkouts_and_trips() {
        let (server, mut remote) = start();
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
        let snap = remote.client_metrics().expect("links always have metrics");
        let wait = snap
            .histogram("link.wait")
            .expect("link wait histogram exists");
        assert!(wait.count() >= 2, "every request waits onto the link");
        assert_eq!(snap.counter("breaker.trips"), Some(0), "healthy address");
        server.shutdown();
    }

    #[test]
    fn traced_reads_record_failover_and_retry_events() {
        let (a, b, mut remote) = start_replicated(BreakerConfig {
            threshold: 100, // never trips: this test wants real dials
            cooldown: Duration::from_secs(3600),
        });
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
        let primary_addr = a.addr().to_string();
        a.shutdown();
        let t = scq_obs::TraceState::new(5);
        let _g = t.install();
        let mut trace = ProbeTrace::default();
        assert_eq!(query_all(&remote, c, &mut trace), vec![0]);
        assert_eq!(trace.failovers, 1, "{trace:?}");
        let spans = t.spans();
        assert!(
            spans
                .iter()
                .any(|s| s.name == "failover" && s.detail.contains(&primary_addr)),
            "the failover event names the dead primary: {spans:?}"
        );
        assert!(
            spans.iter().any(|s| s.name == "retry"),
            "the reconnect attempt left a retry event: {spans:?}"
        );
        b.shutdown();
    }

    /// A listener that answers every connection's first frame with
    /// `answer` as a plain frame, then hangs up — the handshake side
    /// of a peer from another wire generation.
    fn handshake_answering(answer: Response) -> std::net::SocketAddr {
        use crate::wire::encode_response;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut s) = stream else { break };
                if let Ok(Some(_)) = read_frame(&mut s) {
                    let _ = s.write_all(&frame(&encode_response(&answer)).unwrap());
                }
            }
        });
        addr
    }

    /// There is one wire version and nothing to negotiate down to: a
    /// peer that answers the handshake with another version, or
    /// refuses ours, fails the connect at once with the named error —
    /// not after the readiness deadline, and never by hanging.
    #[test]
    fn peers_at_another_wire_version_fail_the_connect_by_name() {
        let wait = Duration::from_secs(30);
        let t0 = Instant::now();
        let older = handshake_answering(Response::Hello { version: 3 });
        let err = RemoteShard::connect(&older.to_string(), universe(), wait)
            .err()
            .expect("a v3 answer must fail the connect");
        assert_eq!(
            err,
            ShardError::Wire(WireError::VersionMismatch { ours: 4, theirs: 3 })
        );
        let refusing = handshake_answering(Response::Err(
            "wire version mismatch: shard speaks 3, client speaks 4".into(),
        ));
        let err = RemoteShard::connect(&refusing.to_string(), universe(), wait)
            .err()
            .expect("a refused handshake must fail the connect");
        assert!(
            err.to_string().contains("wire version mismatch"),
            "the server's refusal is passed on: {err}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "a version mismatch never heals by waiting"
        );
    }

    #[test]
    fn breaker_trips_after_exactly_k_failures_and_half_open_probe_retrips() {
        let breaker = BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_secs(3600),
        };
        let a = start_one();
        let mut remote = RemoteShard::connect_replicated(
            &[a.addr().to_string()],
            universe(),
            Duration::from_secs(5),
            breaker,
        )
        .unwrap();
        let c = remote.create_collection("objs").unwrap();
        // Injected clock: the test advances time by hand, never sleeps.
        let now = Arc::new(Mutex::new(Instant::now()));
        let tick = now.clone();
        remote.set_clock(Arc::new(move || *tick.lock().unwrap()));
        a.shutdown();

        let probe = |remote: &RemoteShard| {
            let mut out = Vec::new();
            remote.try_corner_query(
                c,
                IndexKind::RTree,
                &CornerQuery::unconstrained(),
                &mut out,
                &mut ProbeTrace::default(),
            )
        };
        // K-1 failures: breaker still closed, every probe really dials.
        for i in 0..2 {
            assert!(probe(&remote).is_err());
            let stats = remote.link_stats();
            assert_eq!(stats.breaker, BreakerState::Closed, "probe {i}: {stats:?}");
            assert_eq!(stats.breaker_trips, 0, "probe {i}: {stats:?}");
            assert_eq!(stats.consecutive_failures, i + 1, "probe {i}: {stats:?}");
        }
        // The K-th failure trips it…
        assert!(probe(&remote).is_err());
        let stats = remote.link_stats();
        assert_eq!(stats.breaker, BreakerState::Open, "{stats:?}");
        assert_eq!(stats.breaker_trips, 1, "{stats:?}");
        // …and while open, requests fast-fail with the named error
        // without dialing or counting further failures.
        let err = probe(&remote).err().unwrap();
        assert!(err.to_string().contains("circuit breaker open"), "{err}");
        let stats = remote.link_stats();
        assert_eq!(stats.consecutive_failures, 3, "{stats:?}");
        assert_eq!(stats.breaker_trips, 1, "{stats:?}");
        // Advancing the injected clock past the cooldown lets one
        // half-open probe through; the address is still dead, so the
        // probe re-trips the breaker immediately.
        *now.lock().unwrap() += Duration::from_secs(3601);
        let err = probe(&remote).err().unwrap();
        assert!(!err.to_string().contains("circuit breaker open"), "{err}");
        let stats = remote.link_stats();
        assert_eq!(stats.breaker, BreakerState::Open, "{stats:?}");
        assert_eq!(stats.breaker_trips, 2, "{stats:?}");
    }
}
