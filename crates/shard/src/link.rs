//! The transport to one shard address.
//!
//! Authority: **the connection to an address and whether to use it.** A
//! [`Link`] owns one multiplexed wire connection per address, dialed
//! lazily and re-dialed when it dies, the retry-once rule for
//! idempotent requests, and the address's circuit breaker. It knows
//! nothing about replicas, mirrors or what a request means; the replica
//! set ([`crate::remote`]) decides which link to ask.
//!
//! Every concurrent request rides the one socket under its own request
//! id; responses come back in whatever order the shard finishes them
//! (large ones as chunked streams) and a reader thread matches each to
//! its waiter, so concurrent requests probe one shard **in parallel**
//! without a socket per request. Idempotent reads transparently
//! reconnect and retry **once** after a connection failure, and every
//! retry is counted into the caller's `retries`; mutations never
//! auto-retry — a lost ack is indistinguishable from a lost request,
//! and replaying an insert would double it.
//!
//! After K consecutive transport failures the **breaker** skips the
//! address for a cooldown (no dial at all — a fast
//! [`WireError::BreakerOpen`]), then a half-open probe re-admits or
//! re-trips it. The breaker clock is injectable ([`BreakerClock`]) so
//! fault-injection tests advance time without sleeping.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::backend::ShardError;
use crate::wire::{
    decode_mux, decode_response, encode_mux, encode_request, frame, is_mux, read_frame,
    MuxReassembly, Request, Response, WireError, MUX_CANCEL, MUX_REQ, WIRE_VERSION,
};

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
    /// response that will never arrive must not strand its waiter —
    /// with the transport error that killed it (a truncated frame
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
            self.die_with(self.death());
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
const DEFAULT_BREAKER_THRESHOLD: usize = 3;

/// Default breaker cooldown in milliseconds: how long a tripped
/// address is skipped before a half-open probe re-admits it.
const DEFAULT_BREAKER_COOLDOWN_MS: u64 = 1000;

/// The breaker's time source. Injectable so fault-injection tests
/// advance "time" by swapping the closure's answer instead of
/// sleeping through real cooldowns.
pub(crate) type BreakerClock = Arc<dyn Fn() -> Instant + Send + Sync>;

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

/// Whether an error is a transport failure (the kind reads may fail
/// over on and the breaker counts); everything else is a loud answer
/// from a reachable server.
pub(crate) fn is_transport(e: &ShardError) -> bool {
    matches!(e, ShardError::Wire(w) if w.is_transport())
}

/// The transport to one shard process: a single multiplexed connection
/// (dialed lazily, re-dialed when it dies) carrying every concurrent
/// request, behind the address's circuit breaker.
pub(crate) struct Link {
    pub(crate) addr: String,
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
    /// [`crate::RemoteShard`]'s `client_metrics`.
    registry: scq_obs::Registry,
    link_wait: scq_obs::Histogram,
    trips_counter: scq_obs::Counter,
}

impl Link {
    pub(crate) fn new(addr: String, breaker_cfg: BreakerConfig) -> Link {
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

    /// Replaces the breaker clock (tests advance an injected clock
    /// instead of sleeping through cooldowns).
    pub(crate) fn set_clock(&mut self, clock: BreakerClock) {
        self.clock = clock;
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
    pub(crate) fn request(
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
    /// (`ShardBackend::check`) and operator-driven repairs (snapshot
    /// save/load, resync), which must reach even a tripped address.
    /// Outcomes still feed the breaker.
    ///
    /// `idempotent` requests are retried once, on a freshly dialed
    /// connection, after a failure on a connection that had been
    /// established (a first-ever dial that fails does not retry).
    /// Every retry attempted is counted into `retries` **before** its
    /// outcome is known, so a probe that retried and still failed is
    /// distinguishable from one that never got a second chance.
    pub(crate) fn request_unguarded(
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

    /// Dials the address now unless a live connection already stands
    /// (readiness polling at connect time).
    pub(crate) fn connect(&self) -> Result<(), ShardError> {
        self.connection().map(drop)
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

    pub(crate) fn stats(&self) -> LinkStats {
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

    /// This address's client-side instruments (`link.wait`,
    /// `breaker.trips`).
    pub(crate) fn metrics(&self) -> scq_obs::Snapshot {
        self.registry.snapshot()
    }

    /// Severs the connection in place (tests: the next user must
    /// transparently re-dial).
    #[cfg(test)]
    pub(crate) fn break_idle(&self) {
        let st = self.state.lock().expect("connection state lock poisoned");
        if let Some(conn) = &st.conn {
            conn.sever();
        }
    }
}
