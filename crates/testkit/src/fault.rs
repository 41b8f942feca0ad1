//! Deterministic fault injection for the shard wire protocol.
//!
//! A [`FaultProxy`] is an in-process TCP proxy that sits between a
//! wire client (a `scq_shard::RemoteShard`, a router tier) and a shard
//! server, reassembles the length-prefixed frame stream in both
//! directions, and breaks it on **scripted triggers** — the nth frame
//! of a connection, a request opcode — in reproducible ways:
//!
//! * [`FaultAction::Sever`] — close both sides instead of forwarding
//!   the matched frame (a process dying mid-request);
//! * [`FaultAction::Hold`] — park the frame at a [`FaultGate`] until
//!   the test opens it (deterministic overlap: prove a second request
//!   completes while the first is in flight);
//! * [`FaultAction::Truncate`] — forward only a prefix of the framed
//!   bytes, then sever (a connection dying mid-frame);
//! * [`FaultAction::Garble`] — corrupt a payload byte, then forward
//!   (bit rot that must surface as a named decode error, never a
//!   silently wrong answer).
//!
//! Beyond per-frame rules, [`FaultProxy::partition`] severs every live
//! connection **and** refuses new ones (a network partition / dead
//! process), and [`FaultProxy::heal`] lifts it — so a test can cut a
//! shard off, assert what fails and what does not, then bring the
//! shard back and assert it rejoins without restarting the router.
//!
//! Every failure path the CI smoke scripts provoke with real processes
//! — reconnect-once on idempotent ops, mutations never auto-retried,
//! eviction of broken connections, mirror/shard lockstep after
//! reconnect — is reproducible in `cargo test` through this module.
//!
//! The proxy's API names no `scq_shard` type, only std ones. That keeps
//! the dev-dependency cycle harmless: `scq-shard`'s own unit tests
//! drive this proxy, and their `scq-shard` is a different compilation
//! of the crate from the one this kit links.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use scq_shard::wire::{frame, is_mux, FrameReader, MUX_HEADER};

/// Which way a frame is traveling through the proxy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Request frames: wire client → shard server.
    ClientToServer,
    /// Response frames: shard server → wire client.
    ServerToClient,
}

/// What a [`FaultRule`] matches a frame on.
///
/// After the handshake every frame is multiplexed: many requests
/// interleave on one connection, so "the nth frame" of a socket does
/// not identify a request, and the opcode sits after the 9-byte mux
/// header. The matcher follows: on a mux frame, [`FrameMatch::Nth`]
/// keys on the **request id** (ids count up from 1 per connection) and
/// [`FrameMatch::Opcode`] reads the byte after the header. Plain
/// frames (the handshake, connection-level errors) match on their
/// position and first byte.
#[derive(Clone, Copy, Debug)]
pub enum FrameMatch {
    /// Every frame in the rule's direction.
    Any,
    /// Plain framing: the nth frame (0-based) of a connection in the
    /// rule's direction. Mux framing: frames carrying request id `n`.
    Nth(usize),
    /// Frames whose opcode byte equals the given opcode — the first
    /// payload byte on plain frames, the byte after the mux header on
    /// multiplexed ones.
    Opcode(u8),
}

impl FrameMatch {
    fn matches(&self, frame_idx: usize, payload: &[u8]) -> bool {
        let (ordinal, op) = if is_mux(payload) && payload.len() >= MUX_HEADER {
            let id = u64::from_le_bytes(payload[1..9].try_into().expect("8 id bytes"));
            (id as usize, payload.get(MUX_HEADER).copied())
        } else {
            (frame_idx, payload.first().copied())
        };
        match *self {
            FrameMatch::Any => true,
            FrameMatch::Nth(n) => ordinal == n,
            FrameMatch::Opcode(wanted) => op == Some(wanted),
        }
    }
}

/// What to do with a matched frame.
#[derive(Clone)]
pub enum FaultAction {
    /// Close both directions of the connection without forwarding the
    /// matched frame.
    Sever,
    /// Park the frame at the gate; forward it once the gate opens.
    Hold(FaultGate),
    /// Forward only the first `keep` bytes of the **framed** message
    /// (length prefix included), then sever — the receiver sees a
    /// mid-frame close.
    Truncate {
        /// Framed bytes to let through before closing.
        keep: usize,
    },
    /// XOR one payload byte, then forward the corrupted frame.
    Garble {
        /// Payload offset to corrupt (clamped to the last byte).
        offset: usize,
        /// The XOR mask (must be nonzero to corrupt anything).
        xor: u8,
    },
}

/// One scripted trigger: direction + matcher + action, armed for
/// `remaining` matches (each match consumes one). The first `skip`
/// matches pass untouched before the rule arms — how a test lets the
/// opening chunks of a streamed response through and severs mid-stream.
#[derive(Clone)]
pub struct FaultRule {
    /// Which traffic direction the rule watches.
    pub direction: Direction,
    /// What the rule matches on.
    pub matches: FrameMatch,
    /// What happens to a matched frame.
    pub action: FaultAction,
    /// How many matches the rule is armed for (`usize::MAX` ≈ forever).
    pub remaining: usize,
    /// Matches to forward untouched before the rule starts acting
    /// (0 = act on the first match).
    pub skip: usize,
}

#[derive(Default)]
struct GateState {
    open: bool,
    holding: usize,
}

#[derive(Default)]
struct GateInner {
    state: Mutex<GateState>,
    cv: Condvar,
}

/// A rendezvous point for [`FaultAction::Hold`]: the proxy parks
/// matched frames here; the test observes the park and decides when to
/// release. This is what makes overlap tests deterministic — no
/// sleeps, no racing clocks.
#[derive(Clone, Default)]
pub struct FaultGate(Arc<GateInner>);

impl FaultGate {
    /// A closed gate.
    pub fn new() -> FaultGate {
        FaultGate::default()
    }

    /// Opens the gate: held frames are forwarded, future holds pass
    /// straight through.
    pub fn open(&self) {
        let mut st = self.0.state.lock().expect("gate lock poisoned");
        st.open = true;
        self.0.cv.notify_all();
    }

    /// Number of frames currently parked at the gate.
    pub fn holding(&self) -> usize {
        self.0.state.lock().expect("gate lock poisoned").holding
    }

    /// Blocks until a frame is parked at the gate (or `timeout` runs
    /// out). Returns whether a frame is held.
    pub fn wait_for_hold(&self, timeout: Duration) -> bool {
        self.wait_for_holding(1, timeout)
    }

    /// Blocks until at least `n` frames are parked at the gate (or
    /// `timeout` runs out). Returns whether `n` frames are held. This
    /// is the deterministic in-flight-depth probe: park `n` requests,
    /// prove the connection carried all of them concurrently, open.
    pub fn wait_for_holding(&self, n: usize, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.0.state.lock().expect("gate lock poisoned");
        while st.holding < n && !st.open {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .0
                .cv
                .wait_timeout(st, deadline - now)
                .expect("gate lock poisoned");
            st = guard;
        }
        st.holding >= n
    }

    /// Whether [`FaultGate::open`] has been called.
    fn is_open(&self) -> bool {
        self.0.state.lock().expect("gate lock poisoned").open
    }

    /// A pump thread parked one frame here (non-blocking: the pump
    /// keeps forwarding other traffic while the frame waits).
    fn park(&self) {
        let mut st = self.0.state.lock().expect("gate lock poisoned");
        st.holding += 1;
        self.0.cv.notify_all();
    }

    /// A parked frame left the gate (forwarded after `open`, or
    /// dropped at pump shutdown).
    fn unpark(&self) {
        let mut st = self.0.state.lock().expect("gate lock poisoned");
        st.holding -= 1;
        self.0.cv.notify_all();
    }
}

struct ProxyShared {
    /// Upstream address new connections dial. Behind a lock so
    /// [`FaultProxy::retarget`] can swap the process behind a stable
    /// client-facing address (the split-brain script: a pristine
    /// restart takes over a dead replica's address).
    target: Mutex<String>,
    rules: Mutex<Vec<FaultRule>>,
    refuse_new: AtomicBool,
    stop: AtomicBool,
    /// Stream clones of every live pump's read side, keyed by pump id,
    /// so [`FaultProxy::sever_all`] can kill them from outside. Each
    /// pump removes its own entry on exit — a long soak must not
    /// accumulate dead sockets (file descriptors) here.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_pump: AtomicU64,
    severed: AtomicUsize,
    forwarded: [AtomicUsize; 2],
}

impl ProxyShared {
    /// Finds and consumes the first armed rule matching this frame. A
    /// rule still skipping lets the frame through untouched (and no
    /// later rule sees it — the frame was claimed).
    fn match_rule(&self, dir: Direction, frame_idx: usize, payload: &[u8]) -> Option<FaultAction> {
        let mut rules = self.rules.lock().expect("rules lock poisoned");
        for rule in rules.iter_mut() {
            if rule.remaining > 0
                && rule.direction == dir
                && rule.matches.matches(frame_idx, payload)
            {
                if rule.skip > 0 {
                    rule.skip -= 1;
                    return None;
                }
                rule.remaining -= 1;
                return Some(rule.action.clone());
            }
        }
        None
    }
}

/// An in-process TCP fault-injection proxy for the shard wire
/// protocol. See the module docs.
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral loopback port, forwarding every
    /// connection to `target` (a shard server address).
    pub fn start(target: &str) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            target: Mutex::new(target.to_owned()),
            rules: Mutex::new(Vec::new()),
            refuse_new: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            next_pump: AtomicU64::new(0),
            severed: AtomicUsize::new(0),
            forwarded: [AtomicUsize::new(0), AtomicUsize::new(0)],
        });
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let pumps = Arc::clone(&pumps);
            std::thread::spawn(move || accept_loop(listener, &shared, &pumps))
        };
        Ok(FaultProxy {
            addr,
            shared,
            accept: Some(accept),
            pumps,
        })
    }

    /// The address clients should dial instead of the shard server's.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Arms a scripted rule.
    pub fn inject(&self, rule: FaultRule) {
        self.shared
            .rules
            .lock()
            .expect("rules lock poisoned")
            .push(rule);
    }

    /// Disarms every rule.
    pub fn clear_rules(&self) {
        self.shared
            .rules
            .lock()
            .expect("rules lock poisoned")
            .clear();
    }

    /// Makes the proxy drop fresh connections immediately after accept
    /// (`true`) or forward them again (`false`).
    fn refuse_new(&self, refuse: bool) {
        self.shared.refuse_new.store(refuse, Ordering::SeqCst);
    }

    /// Severs every live proxied connection right now.
    pub fn sever_all(&self) {
        let conns = self.shared.conns.lock().expect("conns lock poisoned");
        for (_, stream) in conns.iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// A network partition: every live connection severed, new ones
    /// refused. From the client's side the shard process is dead.
    pub fn partition(&self) {
        self.refuse_new(true);
        self.sever_all();
    }

    /// Lifts a partition and disarms every rule: the shard is
    /// reachable again.
    pub fn heal(&self) {
        self.clear_rules();
        self.refuse_new(false);
    }

    /// Swaps the upstream process behind the proxy's stable
    /// client-facing address: **new** connections dial `target`, live
    /// ones keep their old upstream (sever them first to force a full
    /// swap). This is the deterministic stand-in for "a different
    /// process restarted behind the replica's address" — the
    /// split-brain script.
    pub fn retarget(&self, target: &str) {
        *self.shared.target.lock().expect("target lock poisoned") = target.to_owned();
    }

    /// Connections the proxy severed through a rule or a partition.
    pub fn severed(&self) -> usize {
        self.shared.severed.load(Ordering::SeqCst)
    }

    /// Frames forwarded intact in one direction.
    pub fn frames_forwarded(&self, dir: Direction) -> usize {
        self.shared.forwarded[dir_index(dir)].load(Ordering::SeqCst)
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.sever_all();
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let pumps = std::mem::take(&mut *self.pumps.lock().expect("pumps lock poisoned"));
        for pump in pumps {
            let _ = pump.join();
        }
    }
}

fn dir_index(dir: Direction) -> usize {
    match dir {
        Direction::ClientToServer => 0,
        Direction::ServerToClient => 1,
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: &Arc<ProxyShared>,
    pumps: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = conn else { continue };
        if shared.refuse_new.load(Ordering::SeqCst) {
            drop(client); // the dialer sees an immediate close
            continue;
        }
        let target = shared.target.lock().expect("target lock poisoned").clone();
        let Ok(server) = TcpStream::connect(&target) else {
            drop(client);
            continue;
        };
        let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        // Each pump registers its read side under its own id and
        // deregisters on exit: sever_all() can always reach both
        // directions of a live connection, and dead connections leave
        // nothing behind.
        let c2s = shared.next_pump.fetch_add(1, Ordering::SeqCst);
        let s2c = shared.next_pump.fetch_add(1, Ordering::SeqCst);
        {
            let mut conns = shared.conns.lock().expect("conns lock poisoned");
            if let (Ok(c), Ok(s)) = (client.try_clone(), server.try_clone()) {
                conns.push((c2s, c));
                conns.push((s2c, s));
            }
        }
        let mut handles = pumps.lock().expect("pumps lock poisoned");
        // Finished pump threads have nothing left to join; dropping
        // their handles detaches nothing live and keeps this vec (and
        // its thread bookkeeping) bounded across a long soak.
        handles.retain(|h| !h.is_finished());
        {
            let shared = Arc::clone(shared);
            handles.push(std::thread::spawn(move || {
                run_pump(client, server, Direction::ClientToServer, &shared, c2s)
            }));
        }
        {
            let shared = Arc::clone(shared);
            handles.push(std::thread::spawn(move || {
                run_pump(s2, c2, Direction::ServerToClient, &shared, s2c)
            }));
        }
    }
}

/// Runs [`pump`], then deregisters the pump's stream clone and
/// guarantees any gates still parked at exit are released, so a
/// severed connection never leaves a test waiting on a `holding` count
/// that can no longer drop.
fn run_pump(src: TcpStream, dst: TcpStream, dir: Direction, shared: &ProxyShared, pump_id: u64) {
    let mut parked = Vec::new();
    pump(src, dst, dir, shared, &mut parked);
    shared
        .conns
        .lock()
        .expect("conns lock poisoned")
        .retain(|(id, _)| *id != pump_id);
    for (gate, _dropped_frame) in parked {
        gate.unpark();
    }
}

/// Forwards complete frames from `src` to `dst`, applying matched
/// rules. Runs until a close, a sever, or proxy shutdown. Held frames
/// park in `parked` **without blocking the pump** — later frames keep
/// flowing past them (multiplexed connections carry many requests, and
/// holding one must not convoy the rest) — and are flushed in arrival
/// order once their gate opens. Frames still parked when the pump
/// exits are dropped (severed with the connection); the caller unparks
/// them.
fn pump(
    src: TcpStream,
    mut dst: TcpStream,
    dir: Direction,
    shared: &ProxyShared,
    parked: &mut Vec<(FaultGate, Vec<u8>)>,
) {
    let mut src = src;
    let _ = src.set_read_timeout(Some(Duration::from_millis(100)));
    let sever = |src: &TcpStream, dst: &TcpStream| {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
        shared.severed.fetch_add(1, Ordering::SeqCst);
    };
    let mut reader = FrameReader::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut frame_idx = 0usize;
    loop {
        loop {
            let mut payload = match reader.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                // Framing poison the proxy cannot resynchronize past.
                Err(_) => return sever(&src, &dst),
            };
            let action = shared.match_rule(dir, frame_idx, &payload);
            frame_idx += 1;
            match action {
                Some(FaultAction::Sever) => return sever(&src, &dst),
                Some(FaultAction::Truncate { keep }) => {
                    let framed = frame_bytes(&payload);
                    let keep = keep.min(framed.len());
                    let _ = dst.write_all(&framed[..keep]);
                    let _ = dst.flush();
                    return sever(&src, &dst);
                }
                Some(FaultAction::Garble { offset, xor }) => {
                    if let Some(last) = payload.len().checked_sub(1) {
                        payload[offset.min(last)] ^= xor;
                    }
                }
                Some(FaultAction::Hold(gate)) => {
                    gate.park();
                    parked.push((gate, frame_bytes(&payload)));
                    continue; // later frames flow past the held one
                }
                None => {}
            }
            if dst.write_all(&frame_bytes(&payload)).is_err() || dst.flush().is_err() {
                return sever(&src, &dst);
            }
            shared.forwarded[dir_index(dir)].fetch_add(1, Ordering::SeqCst);
        }
        // Flush parked frames whose gate has opened, in arrival order.
        let mut still_parked = Vec::new();
        for (gate, bytes) in parked.drain(..) {
            if gate.is_open() {
                gate.unpark();
                if dst.write_all(&bytes).is_err() || dst.flush().is_err() {
                    return sever(&src, &dst);
                }
                shared.forwarded[dir_index(dir)].fetch_add(1, Ordering::SeqCst);
            } else {
                still_parked.push((gate, bytes));
            }
        }
        *parked = still_parked;
        if shared.stop.load(Ordering::SeqCst) {
            return sever(&src, &dst);
        }
        match src.read(&mut chunk) {
            // Clean close: propagate the EOF downstream so the peer
            // notices (mid-frame leftovers simply never arrive, which
            // is exactly what a dying sender looks like).
            Ok(0) => {
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => reader.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return sever(&src, &dst),
        }
    }
}

/// Re-frames a payload through the real wire codec (the proxy forwards
/// what it parsed, so partial source frames are never relayed). The
/// payload came out of [`FrameReader`], which already enforced the
/// frame cap.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    frame(payload).expect("parsed frame is within the cap")
}
