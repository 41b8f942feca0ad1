//! The shared reactor on its own, under a toy echo protocol: response
//! order, write back-pressure, the connection cap, and a shutdown that
//! leaves no thread or file descriptor behind.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use scq_shard::reactor::{self, Port, Protocol, ReactorHandle};

/// Newline-framed echo: every line is a job, answered with itself —
/// or, for `big <n>`, with `n` bytes of `x`.
struct Echo;

impl Protocol for Echo {
    type Conn = Vec<u8>;
    type Job = String;
    type Done = Vec<u8>;

    fn open(&self) -> Vec<u8> {
        Vec::new()
    }

    fn received(&self, inbuf: &mut Vec<u8>, bytes: &[u8], port: &mut Port<'_, String>) {
        inbuf.extend_from_slice(bytes);
        while let Some(nl) = inbuf.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&inbuf[..nl]).into_owned();
            inbuf.drain(..=nl);
            port.submit(line);
        }
    }

    fn run(&self, line: String) -> Vec<u8> {
        let mut out = match line.strip_prefix("big ") {
            Some(n) => vec![b'x'; n.parse().expect("big <n>")],
            None => line.into_bytes(),
        };
        out.push(b'\n');
        out
    }

    fn completed(&self, _: &mut Vec<u8>, done: Vec<u8>, port: &mut Port<'_, String>) {
        port.send(&done);
    }
}

/// The leak test counts this process's descriptors, so the tests of
/// this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn start(threads: usize, max_connections: usize) -> ReactorHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    reactor::start(listener, Echo, threads, max_connections).expect("start reactor")
}

fn connect(reactor: &ReactorHandle) -> TcpStream {
    let s = TcpStream::connect(reactor.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

#[test]
fn pipelined_input_keeps_response_order() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One worker: jobs run in submission order, so the answers must
    // come back in the order the lines went in.
    let reactor = start(1, usize::MAX);
    let mut s = connect(&reactor);
    let lines: Vec<String> = (0..500).map(|i| format!("line {i}")).collect();
    s.write_all((lines.join("\n") + "\n").as_bytes()).unwrap();
    let mut answers = BufReader::new(s);
    for want in &lines {
        let mut got = String::new();
        answers.read_line(&mut got).unwrap();
        assert_eq!(got.trim_end(), want);
    }
    reactor.shutdown();
}

#[test]
fn a_response_larger_than_the_socket_buffer_parks_and_completes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let reactor = start(1, usize::MAX);
    let mut s = connect(&reactor);
    // Far more than the kernel will buffer on both ends of a loopback
    // socket: the loop must park the tail behind EPOLLOUT and finish
    // it as this side drains.
    const N: usize = 48 << 20;
    s.write_all(format!("big {N}\nafter\n").as_bytes()).unwrap();
    let mut answers = BufReader::new(s);
    let mut big = Vec::new();
    answers.read_until(b'\n', &mut big).unwrap();
    assert_eq!(big.len(), N + 1);
    assert!(big[..N].iter().all(|&b| b == b'x'));
    let mut after = String::new();
    answers.read_line(&mut after).unwrap();
    assert_eq!(after, "after\n");
    reactor.shutdown();
}

#[test]
fn accepts_over_the_cap_are_closed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let reactor = start(1, 1);
    let mut first = connect(&reactor);
    first.write_all(b"one\n").unwrap();
    let mut buf = [0u8; 4];
    first.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"one\n");
    // The cap is full: the newcomer is closed without an answer.
    let mut second = connect(&reactor);
    let _ = second.write_all(b"two\n");
    match second.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("over-cap connection was served: {:?}", &buf[..n]),
    }
    // The capped connection still works, and closing it frees the slot.
    first.write_all(b"one\n").unwrap();
    first.read_exact(&mut buf).unwrap();
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut third = connect(&reactor);
        let _ = third.write_all(b"333\n");
        if matches!(third.read(&mut buf), Ok(4)) {
            assert_eq!(&buf, b"333\n");
            break;
        }
        assert!(Instant::now() < deadline, "the slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    reactor.shutdown();
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("/proc").count()
}

/// Live threads the reactor named (`scq-loop`, `scq-worker`).
fn reactor_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| matches!(comm.trim(), "scq-loop" | "scq-worker"))
        .count()
}

/// Polls until the reactor's thread count reads `want`: a thread names
/// itself a moment after its spawn returns, and leaves `/proc` a
/// moment after its join does.
fn settles_at(want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while reactor_threads() != want {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn shutdown_joins_the_loop_and_every_worker_and_leaks_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    settles_at(0, "an earlier test's reactor is gone");
    let fds = open_fds();
    let reactor = start(3, usize::MAX);
    settles_at(4, "one loop thread, three workers");
    // Connections in every state a shutdown can find them in: idle,
    // mid-line, answered, and with a large answer still parked.
    let idle = connect(&reactor);
    let mut partial = connect(&reactor);
    partial.write_all(b"no newline yet").unwrap();
    let mut answered = connect(&reactor);
    answered.write_all(b"ping\n").unwrap();
    let mut buf = [0u8; 5];
    answered.read_exact(&mut buf).unwrap();
    let mut parked = connect(&reactor);
    parked
        .write_all(format!("big {}\n", 32 << 20).as_bytes())
        .unwrap();
    parked.read_exact(&mut buf).unwrap();
    assert!(open_fds() > fds);
    let t0 = Instant::now();
    reactor.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(5), "shutdown hung");
    settles_at(0, "shutdown joins every thread");
    drop((idle, partial, answered, parked));
    assert_eq!(
        open_fds(),
        fds,
        "listener, epoll, wake pipe and sockets are closed"
    );
}
