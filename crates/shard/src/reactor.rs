//! The reactor: the one readiness-driven event loop both servers run
//! on — the line-protocol front end (`scq-serve`) and the shard wire
//! server ([`crate::server`]).
//!
//! One loop thread owns the nonblocking listener and every connection
//! socket through an epoll instance. It reads whatever the sockets
//! have, hands the bytes to the connection's [`Protocol`] state, and
//! the protocol turns complete requests into jobs for a worker pool.
//! Requests never run on the loop thread: a command may block on a
//! lock, a WAL fsync or (in cluster mode) on network I/O to the shard
//! tier. Workers push what they produced to a completion queue and
//! wake the loop through a self-pipe; the loop gives each completion
//! back to its connection's protocol state, which queues the response
//! bytes, and writes them out, parking partial writes behind
//! `EPOLLOUT`. Idle connections therefore cost a file descriptor each,
//! not a thread each.
//!
//! The reactor owns sockets, epoll, the wake pipe, the worker pool,
//! out-buffers and shutdown. Framing, ordering and request state
//! belong to the [`Protocol`]; the reactor only counts how many jobs a
//! connection has outstanding, which is what makes a **half-closed**
//! peer safe: on EOF the loop stops reading that socket (dropping
//! `EPOLLIN` so level-triggered epoll does not spin), lets the
//! outstanding jobs finish, flushes their answers and only then
//! closes.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use epoll::{Epoll, Event, WakePipe, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// What a server speaks on its connections. One value serves every
/// connection of a reactor and is shared with the worker pool; the
/// per-connection half ([`Protocol::Conn`]) lives on the loop thread.
pub trait Protocol: Send + Sync + 'static {
    /// Loop-side state of one connection: input assembly, ordering,
    /// ids in flight.
    type Conn;
    /// One request's worth of work for the pool.
    type Job: Send + 'static;
    /// What a worker hands back to the loop for a finished job.
    type Done: Send + 'static;

    /// State for a freshly accepted connection.
    fn open(&self) -> Self::Conn;

    /// Bytes arrived (loop thread). Assemble them, [`Port::submit`]
    /// every complete request, answer framing errors inline with
    /// [`Port::send`] + [`Port::close`].
    fn received(&self, conn: &mut Self::Conn, bytes: &[u8], port: &mut Port<'_, Self::Job>);

    /// Executes one job (worker thread).
    fn run(&self, job: Self::Job) -> Self::Done;

    /// A job of this connection finished (loop thread): queue its
    /// response bytes, release whatever waited behind it.
    fn completed(&self, conn: &mut Self::Conn, done: Self::Done, port: &mut Port<'_, Self::Job>);
}

/// The loop-side handle a [`Protocol`] acts on one connection through.
pub struct Port<'a, J> {
    token: u64,
    io: &'a mut ConnIo,
    work: &'a WorkQueue<J>,
}

impl<J> Port<'_, J> {
    /// Hands one job to the worker pool; its [`Protocol::completed`]
    /// call comes back to this connection.
    pub fn submit(&mut self, job: J) {
        self.io.in_flight += 1;
        self.work
            .jobs
            .lock()
            .expect("work queue")
            .push_back((self.token, job));
        self.work.ready.notify_one();
    }

    /// Queues bytes for the peer, after everything queued before.
    pub fn send(&mut self, bytes: &[u8]) {
        self.io.out.push(bytes);
    }

    /// Closes the connection once the queued bytes have flushed; input
    /// is ignored from here on.
    pub fn close(&mut self) {
        self.io.closing = true;
    }

    /// Whether [`Port::close`] was called: stop consuming input.
    pub fn closing(&self) -> bool {
        self.io.closing
    }
}

/// A running reactor: the bound address, the loop thread and the
/// worker pool.
pub struct ReactorHandle {
    addr: SocketAddr,
    ctl: Arc<Control>,
    /// The loop thread first, then the workers.
    threads: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The address the listener actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many times the loop thread has come back from `epoll_wait`.
    /// An idle reactor advances this ten times a second (the shutdown
    /// heartbeat); a loop spinning on a readiness it never consumes
    /// shows up as runaway growth.
    pub fn loop_wakeups(&self) -> u64 {
        self.ctl.wakeups.load(Ordering::Relaxed)
    }

    /// Stops the loop (closing every connection) and the worker pool,
    /// and joins them all. The loop notices the stop flag at its next
    /// wakeup — forced immediately through the wake pipe — and wakes
    /// the workers on its way out.
    pub fn shutdown(self) {
        self.ctl.stop.store(true, Ordering::SeqCst);
        self.ctl.wake.wake();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// What the handle needs to stop the reactor, free of the protocol's
/// types.
struct Control {
    stop: AtomicBool,
    wake: WakePipe,
    wakeups: AtomicU64,
}

/// State shared between the loop thread and the worker pool.
struct Shared<P: Protocol> {
    protocol: P,
    work: WorkQueue<P::Job>,
    /// Finished jobs awaiting delivery by the loop thread, each with
    /// its connection's token.
    done: Mutex<Vec<(u64, P::Done)>>,
    ctl: Arc<Control>,
}

struct WorkQueue<J> {
    /// Jobs with the token of the connection they belong to.
    jobs: Mutex<VecDeque<(u64, J)>>,
    ready: Condvar,
}

/// Starts a reactor on `listener`: spawns the loop thread and
/// `threads` workers (at least one), returns immediately. A connection
/// accepted while `max_connections` are open is closed at once — its
/// peer sees a transport failure.
pub fn start<P: Protocol>(
    listener: TcpListener,
    protocol: P,
    threads: usize,
    max_connections: usize,
) -> std::io::Result<ReactorHandle> {
    let threads = threads.max(1);
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let epoll = Epoll::new()?;
    let ctl = Arc::new(Control {
        stop: AtomicBool::new(false),
        wake: WakePipe::new()?,
        wakeups: AtomicU64::new(0),
    });
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(ctl.wake.read_fd(), EPOLLIN, TOKEN_WAKE)?;
    let shared = Arc::new(Shared {
        protocol,
        work: WorkQueue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        },
        done: Mutex::new(Vec::new()),
        ctl: Arc::clone(&ctl),
    });
    let mut handle = ReactorHandle {
        addr,
        ctl,
        threads: Vec::with_capacity(threads + 1),
    };
    let loop_shared = Arc::clone(&shared);
    let max_connections = max_connections.max(1);
    handle.threads.push(
        std::thread::Builder::new()
            .name("scq-loop".into())
            .spawn(move || event_loop(listener, epoll, &loop_shared, max_connections))?,
    );
    for _ in 0..threads {
        let shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("scq-worker".into())
            .spawn(move || worker_loop(&shared));
        match worker {
            Ok(worker) => handle.threads.push(worker),
            Err(e) => {
                // Half a pool is no reactor: take down what started.
                handle.shutdown();
                return Err(e);
            }
        }
    }
    Ok(handle)
}

// ── the event loop ──────────────────────────────────────────────────────

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Outbound bytes with a write cursor, so partially-flushed buffers
/// never shift their remaining bytes (a chunked stream can be tens of
/// megabytes deep while the socket drains at its own pace).
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn push(&mut self, bytes: &[u8]) {
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn unwritten(&self) -> &[u8] {
        &self.buf[self.pos.min(self.buf.len())..]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
    }
}

/// The part of a connection a [`Port`] exposes to the protocol.
#[derive(Default)]
struct ConnIo {
    out: OutBuf,
    /// Jobs submitted and not yet completed.
    in_flight: usize,
    /// Close once `out` drains; stop consuming input.
    closing: bool,
}

/// One connection's loop-side state.
struct Conn<C> {
    stream: TcpStream,
    io: ConnIo,
    proto: C,
    /// The peer shut down its writing half: nothing more to read, but
    /// outstanding jobs still get their answers.
    eof: bool,
    /// The epoll interest mask currently registered.
    interest: u32,
}

impl<C> Conn<C> {
    /// Read interest while there can be input to act on, write
    /// interest exactly while bytes are queued.
    fn wanted_interest(&self) -> u32 {
        let read = if self.eof || self.io.closing {
            0
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        let write = if self.io.out.is_empty() { 0 } else { EPOLLOUT };
        read | write
    }
}

fn event_loop<P: Protocol>(
    listener: TcpListener,
    epoll: Epoll,
    shared: &Shared<P>,
    max_connections: usize,
) {
    let mut conns: HashMap<u64, Conn<P::Conn>> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = [Event::new(0, 0); 64];
    loop {
        // The timeout is the shutdown heartbeat; the wake pipe makes
        // completions (and shutdown itself) immediate, not 100ms late.
        let n = epoll.wait(100, &mut events).unwrap_or(0);
        shared.ctl.wakeups.fetch_add(1, Ordering::Relaxed);
        if shared.ctl.stop.load(Ordering::SeqCst) {
            // Dropping the map closes every socket; the workers learn
            // about the stop from here.
            shared.work.ready.notify_all();
            return;
        }
        for ev in &events[..n] {
            match ev.token() {
                TOKEN_LISTENER => accept_ready(
                    &listener,
                    &epoll,
                    shared,
                    &mut conns,
                    &mut next_token,
                    max_connections,
                ),
                TOKEN_WAKE => shared.ctl.wake.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue; // already closed earlier in this batch
                    };
                    if ev.events() & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0
                        && !read_ready(conn, token, shared)
                    {
                        conns.remove(&token);
                    }
                    // EPOLLOUT needs no per-event work: the flush pass
                    // below writes every connection with queued bytes.
                }
            }
        }
        for (token, done) in std::mem::take(&mut *shared.done.lock().expect("completion queue")) {
            deliver(&mut conns, shared, token, done);
        }
        // Flush pass: write what the sockets will take, keep the
        // registered interest in step with the connection's state,
        // reap finished connections.
        conns.retain(|&token, conn| {
            if !flush(conn) {
                return false;
            }
            let want = conn.wanted_interest();
            if want != conn.interest {
                if epoll.modify(conn.stream.as_raw_fd(), want, token).is_err() {
                    return false;
                }
                conn.interest = want;
            }
            true
        });
    }
}

fn accept_ready<P: Protocol>(
    listener: &TcpListener,
    epoll: &Epoll,
    shared: &Shared<P>,
    conns: &mut HashMap<u64, Conn<P::Conn>>,
    next_token: &mut u64,
    max_connections: usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.len() >= max_connections {
                    // Over the cap: close immediately. The peer sees a
                    // transport failure and degrades or retries.
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                let interest = EPOLLIN | EPOLLRDHUP;
                if epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        io: ConnIo::default(),
                        proto: shared.protocol.open(),
                        eof: false,
                        interest,
                    },
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Reads everything the socket has and feeds it to the protocol.
/// Returns `false` when the connection is dead and must be dropped.
fn read_ready<P: Protocol>(conn: &mut Conn<P::Conn>, token: u64, shared: &Shared<P>) -> bool {
    if conn.eof {
        // Read interest is already gone, so this is EPOLLHUP/EPOLLERR:
        // the peer closed the half the answers would travel on too.
        return false;
    }
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if conn.io.closing {
            // Answered a fatal error or a goodbye; ignore further
            // input, just flush.
            return true;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // The peer finished sending. Jobs already submitted
                // still owe it their answers; with none outstanding
                // there is nothing left to say.
                conn.eof = true;
                if conn.io.in_flight == 0 {
                    conn.io.closing = true;
                }
                return true;
            }
            Ok(n) => {
                let mut port = Port {
                    token,
                    io: &mut conn.io,
                    work: &shared.work,
                };
                shared
                    .protocol
                    .received(&mut conn.proto, &chunk[..n], &mut port);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Hands one finished job back to its connection's protocol state.
fn deliver<P: Protocol>(
    conns: &mut HashMap<u64, Conn<P::Conn>>,
    shared: &Shared<P>,
    token: u64,
    done: P::Done,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return; // connection died while the job ran
    };
    conn.io.in_flight -= 1;
    let mut port = Port {
        token,
        io: &mut conn.io,
        work: &shared.work,
    };
    shared.protocol.completed(&mut conn.proto, done, &mut port);
    if conn.eof && conn.io.in_flight == 0 {
        // The half-closed peer has every answer it asked for.
        conn.io.closing = true;
    }
}

/// Writes what the socket will take. Returns `false` when the
/// connection is finished (dead socket, or `closing` fully flushed).
fn flush<C>(conn: &mut Conn<C>) -> bool {
    while !conn.io.out.is_empty() {
        match conn.stream.write(conn.io.out.unwritten()) {
            Ok(0) => return false,
            Ok(n) => conn.io.out.consume(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    !(conn.io.closing && conn.io.out.is_empty())
}

// ── the worker pool ─────────────────────────────────────────────────────

fn worker_loop<P: Protocol>(shared: &Shared<P>) {
    loop {
        let (token, job) = {
            let mut jobs = shared.work.jobs.lock().expect("work queue");
            loop {
                if shared.ctl.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                // The timeout is a belt-and-braces stop check; the
                // loop thread's notify_all makes exit immediate.
                let (guard, _) = shared
                    .work
                    .ready
                    .wait_timeout(jobs, Duration::from_millis(100))
                    .expect("work queue");
                jobs = guard;
            }
        };
        let done = shared.protocol.run(job);
        shared
            .done
            .lock()
            .expect("completion queue")
            .push((token, done));
        shared.ctl.wake.wake();
    }
}
