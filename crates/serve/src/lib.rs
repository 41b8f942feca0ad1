#![warn(missing_docs)]

//! `scq-serve`: a concurrent query-serving front end over the sharded
//! spatial database.
//!
//! The server speaks a **line-oriented text protocol** over TCP
//! (`std::net` only — no async runtime, no framing library): one
//! command per line in, one response line out, every response starting
//! with `OK` or `ERR`. Sockets, the event loop and the worker pool
//! ([`ServerConfig::threads`]) belong to the shared
//! [`scq_shard::reactor`]; this crate supplies the protocol — newline
//! framing, a line-length cap, and commands that run on the pool, never
//! on the loop thread, because in cluster mode they do network I/O to
//! the shard tier. Each connection runs one command at a time
//! (pipelined lines queue), preserving the protocol's strict
//! request/response order. The database sits behind an `RwLock`, so
//! queries run concurrently across connections while mutations
//! serialize — the classic read-mostly serving posture.
//!
//! # Protocol
//!
//! ```text
//! PING                                         → OK pong
//! CREATE <name>                                → OK coll=<id>
//! INSERT <coll> <x0> <y0> <x1> <y1>            → OK ref=<slot>
//! INSERT <coll> empty                          → OK ref=<slot>
//! REMOVE <coll> <slot>                         → OK removed | OK noop
//! UPDATE <coll> <slot> <x0> <y0> <x1> <y1>     → OK updated | OK noop
//! QUERY <coll> <index> <mode> <x0> <y0> <x1> <y1>
//!                                              → OK n=<n> pruned=<p> ids=<a,b,…>
//! SOLVE <index> <max> <bindings> <system>      → OK n=<n> pruned=<p> tuples=<…>
//! EXPLAIN <index> <bindings> <system>          → OK lines=<n> + the planner's per-unknown
//!                                                   selectivity estimates, the retrieval order
//!                                                   SOLVE would execute, and the compiled
//!                                                   per-level range-query plan
//! STAT                                         → OK shards=<s> collections=<c> live=<n> backend=<b>
//!                                                   candidate_cache_hits=<h> … health=<per-shard…>
//! STAT <coll>                                  → OK len=<slots> live=<n>
//! METRICS [SHARD <i>]                          → OK lines=<n> + n lines of Prometheus-style
//!                                                   text exposition (serve, router and shard tiers)
//! TRACE <id>                                   → OK trace=<id> lines=<n> + n span-tree lines
//! SHARDS                                       → OK n=<s> live=<l0,l1,…> backend=<b>
//! COMPACT                                      → OK reclaimed=<n>
//! SNAPSHOT SAVE <dir>                          → OK saved shards=<s>
//! SNAPSHOT LOAD <dir>                          → OK loaded collections=<c>
//! LOAD map <seed> <roads>                      → OK towns=<t> roads=<r> states=<s>
//! QUIT                                         → OK bye (closes the connection)
//! ```
//!
//! * `<coll>` is a collection **name**; `CREATE` is idempotent.
//! * `<index>` is `rtree`, `grid` or `scan`; `<mode>` is `overlaps`,
//!   `within` or `contains` (the three corner-query shapes).
//! * `<max>` is `all` or a solution cap.
//! * `<bindings>` is comma-separated `VAR=coll:<name>` and
//!   `VAR=box:<x0>:<y0>:<x1>:<y1>` entries; `<system>` is the rest of
//!   the line in the engine's constraint syntax (`;`-separated).
//! * `pruned` reports [`scq_engine::ExecStats::shards_pruned`] — how
//!   many shards the z-order router proved disjoint and never probed.
//! * reads (`QUERY`, `SOLVE`, `EXPLAIN`) never leave the router: in
//!   cluster mode every probe is answered by the router's copy of the
//!   shard, which advances only on writes the shard's primary
//!   acknowledged (the read contract in [`scq_shard::RemoteShard`]).
//!   A dead shard process therefore takes nothing away from a read;
//!   it shows on writes (`ERR`), in `STAT`'s `health=` and in
//!   `METRICS`; every read answers in full.
//! * `STAT`'s cache counters are cumulative per process
//!   ([`ServeMetrics`]). `health=` lists every shard's replicas —
//!   address, role, breaker position (`closed` / `tripped` /
//!   `half-open`), trip count, connection counters and sync state — so
//!   a single sick replica is visible from the front end.
//! * `backend` names where the shards live: `local` (in this process)
//!   or `remote:<addr>` (a cluster of shard processes; `<addr>` is the
//!   first range's write primary).
//! * every command runs under a fresh **trace**; `QUERY`/`SOLVE`
//!   responses end with ` trace=<id>`, and `TRACE <id>` replays the
//!   span tree (route → per-shard probes → merge, with retry events
//!   from any request that reached a shard process) while it is still
//!   in the ring.
//! * `METRICS` merges three tiers into one scrape: the serve tier's
//!   per-command latency histograms and counters
//!   (`tier="serve"`), the router's routing/probe/transport
//!   instruments (`tier="router"`), and — in cluster mode — every
//!   shard process's registry fetched over the wire (`tier="shard"`,
//!   labelled by shard index). `--slow-ms <t>` adds a slow-query log:
//!   queries at or above the threshold bump `serve.slow_queries` and
//!   keep their traces.
//! * there is one planner: every `SOLVE` runs the order with the
//!   fewest estimated probes ([`scq_engine::order_by_selectivity`]);
//!   `EXPLAIN` shows that decision without executing. Planned orders
//!   are cached with their compiled plans and invalidated by the bound
//!   collections' mutation epochs (`plan_cache_hits`/`plan_cache_misses`
//!   in `STAT`). `--plan` accepts only `selectivity` ([`PlanMode`]).
//! * repeated `QUERY`s are answered from a cross-query **candidate
//!   cache** keyed by `(collection, index, mode, box, epoch)`; any
//!   effective write to the collection bumps its epoch and retires the
//!   entries (`candidate_cache_hits`/`candidate_cache_misses` in
//!   `STAT`). Only complete answers are ever cached.
//!
//! Mutations (`INSERT`, `REMOVE`, `UPDATE`, `COMPACT`, snapshot loads)
//! never degrade: a shard process that cannot acknowledge one yields a
//! plain `ERR` line and **no retry** — replaying a mutation whose ack
//! was lost could double-apply it.
//!
//! # Cluster mode
//!
//! The front end is generic over the [`ShardBackend`]: [`serve`] boots
//! the classic in-process sharded store, [`serve_db`] fronts **any**
//! sharded database — in particular one whose shards are separate OS
//! processes reached through [`scq_shard::ClusterSpec::connect`]
//! (`scq-serve --cluster <spec>`), each process running the shard wire
//! protocol server (`scq-serve --shard`). The command table is
//! identical either way.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use scq_region::AaBox;
use scq_shard::reactor::{self, Port, Protocol, ReactorHandle};
use scq_shard::{ClusterSpec, LocalShard, ShardBackend, ShardedDatabase};

mod proto;

pub use proto::{handle_command, PlanMode, ServeContext, ServeMetrics};

/// Server configuration. There is no plan setting: every `SOLVE` runs
/// the whole-order cost planner through the plan cache.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Number of shards of the database.
    pub shards: usize,
    /// Worker threads executing commands.
    pub threads: usize,
    /// Universe half-open square side (the database spans
    /// `[0, size]²`).
    pub universe_size: f64,
    /// Slow-query threshold in milliseconds: a `QUERY`/`SOLVE` at or
    /// above it is counted (`serve.slow_queries`), logged to stderr
    /// and keeps its trace replayable via `TRACE <id>`. `None` (the
    /// default) disables the log.
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 4,
            threads: 4,
            universe_size: 1000.0,
            slow_ms: None,
        }
    }
}

/// A running server: the reactor serving the line protocol.
pub struct ServerHandle {
    reactor: ReactorHandle,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// Event-loop wakeups so far ([`ReactorHandle::loop_wakeups`]).
    #[cfg(test)]
    fn loop_wakeups(&self) -> u64 {
        self.reactor.loop_wakeups()
    }

    /// Stops the event loop (closing every connection) and the worker
    /// pool, and joins them all.
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }
}

/// Starts the server over the classic in-process sharded store: binds,
/// spawns the worker pool, returns immediately.
pub fn serve(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let universe = AaBox::new([0.0, 0.0], [config.universe_size, config.universe_size]);
    serve_db(
        config,
        ShardedDatabase::<LocalShard>::new(universe, config.shards.max(1)),
    )
}

/// Starts the server over an arbitrary sharded database — the cluster
/// entry point: pass a `ShardedDatabase<RemoteShard>` from
/// [`ClusterSpec::connect`] and this process becomes a pure router
/// tier over N shard processes.
pub fn serve_db<B: ShardBackend + 'static>(
    config: &ServerConfig,
    db: ShardedDatabase<B>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let protocol = LineProtocol {
        db: Arc::new(RwLock::new(db)),
        ctx: ServeContext::new(config.slow_ms),
    };
    let reactor = reactor::start(listener, protocol, config.threads, usize::MAX)?;
    Ok(ServerHandle { reactor })
}

// ── the line protocol ───────────────────────────────────────────────────

/// A command line longer than this earns an error and a closed
/// connection — the alternative is an unbounded input buffer.
const MAX_LINE: usize = 1 << 20;

/// Newline framing, strictly ordered: one command per line, one
/// command of a connection executing at a time.
struct LineProtocol<B: ShardBackend> {
    db: Arc<RwLock<ShardedDatabase<B>>>,
    ctx: ServeContext,
}

/// One connection's line assembly and ordering state.
#[derive(Default)]
struct LineConn {
    /// Raw inbound bytes not yet terminated by a newline.
    inbuf: Vec<u8>,
    /// A command is executing; later complete lines wait in `pending`
    /// so one-command-one-response ordering holds exactly.
    busy: bool,
    pending: VecDeque<String>,
}

impl<B: ShardBackend + 'static> Protocol for LineProtocol<B> {
    type Conn = LineConn;
    /// The command, already stripped of its newline.
    type Job = String;
    /// The response, newline included (possibly multi-line: `METRICS`
    /// and `TRACE` carry a body), and whether to close once it has
    /// flushed (`QUIT`).
    type Done = (Vec<u8>, bool);

    fn open(&self) -> LineConn {
        LineConn::default()
    }

    /// Splits every complete line out of the input buffer and
    /// dispatches it: straight to the pool when the connection is
    /// idle, queued behind the executing command otherwise.
    fn received(&self, conn: &mut LineConn, bytes: &[u8], port: &mut Port<'_, String>) {
        conn.inbuf.extend_from_slice(bytes);
        while !port.closing() {
            let Some(nl) = conn.inbuf.iter().position(|&b| b == b'\n') else {
                if conn.inbuf.len() > MAX_LINE {
                    port.send(b"ERR line too long\n");
                    port.close();
                }
                break;
            };
            let line = String::from_utf8_lossy(&conn.inbuf[..nl])
                .trim()
                .to_string();
            conn.inbuf.drain(..=nl);
            if line.is_empty() {
                continue; // blank lines get no response
            }
            if conn.busy {
                conn.pending.push_back(line);
            } else {
                conn.busy = true;
                port.submit(line);
            }
        }
    }

    fn run(&self, line: String) -> (Vec<u8>, bool) {
        let (response, quit) = handle_command(&self.db, &self.ctx, &line);
        let mut bytes = response.into_bytes();
        bytes.push(b'\n');
        (bytes, quit)
    }

    /// Queues the response and releases the next waiting line.
    fn completed(
        &self,
        conn: &mut LineConn,
        (bytes, quit): (Vec<u8>, bool),
        port: &mut Port<'_, String>,
    ) {
        port.send(&bytes);
        if quit {
            port.close();
            conn.pending.clear();
        } else if let Some(next) = conn.pending.pop_front() {
            port.submit(next);
        } else {
            conn.busy = false;
        }
    }
}

// ── scripted client + self test ─────────────────────────────────────────

/// One scripted exchange: a command and the prefix its response must
/// carry.
type ScriptStep<'a> = (&'a str, &'a str);

/// Owned script steps from literals.
fn own(steps: Vec<ScriptStep<'_>>) -> Vec<(String, String)> {
    steps
        .into_iter()
        .map(|(c, r)| (c.to_string(), r.to_string()))
        .collect()
}

/// The scripted session the CI smoke test runs: exercises create /
/// insert / remove / update / query / solve / stat / compact /
/// snapshot round-trip end to end against a live server.
fn smoke_script(snapshot_dir: &str) -> Vec<(String, String)> {
    let mut steps = own(vec![
        ("PING", "OK pong"),
        ("CREATE towns", "OK coll=0"),
        ("CREATE roads", "OK coll=1"),
        ("CREATE towns", "OK coll=0"), // idempotent
        ("INSERT towns 10 42 14 46", "OK ref=0"),
        ("INSERT towns 10 70 14 74", "OK ref=1"),
        ("INSERT towns 880 880 890 890", "OK ref=2"),
        ("INSERT towns empty", "OK ref=3"),
        ("INSERT roads 12 43 65 45", "OK ref=0"),
        ("INSERT roads 12 45 14 72", "OK ref=1"),
        ("STAT", "OK shards=4 collections=2 live=6"),
        ("STAT towns", "OK len=4 live=4"),
        ("QUERY towns rtree within 0 0 100 100", "OK n=2 pruned="),
        ("QUERY towns grid overlaps 11 43 13 44", "OK n=1"),
        ("QUERY towns scan contains 11 43 13 44", "OK n=1"),
        ("REMOVE towns 1", "OK removed"),
        ("REMOVE towns 1", "OK noop"),
        ("UPDATE towns 2 10 60 16 66", "OK updated"),
        ("STAT towns", "OK len=4 live=3"),
        (
            "SOLVE rtree all T=coll:towns,R=coll:roads,C=box:0:0:100:100 T <= C; R & T != 0",
            "OK n=3",
        ),
        // Verbatim repeat at the same epochs: the planned order comes
        // from the plan cache, no fresh probes.
        (
            "SOLVE rtree all T=coll:towns,R=coll:roads,C=box:0:0:100:100 T <= C; R & T != 0",
            "OK n=3",
        ),
        (
            "SOLVE grid all T=coll:towns,R=coll:roads,C=box:0:0:50:50 T <= C; R & T != 0",
            "OK n=2",
        ),
    ]);
    steps.extend(own(vec![("COMPACT", "OK reclaimed=1")]));
    steps.push((
        format!("SNAPSHOT SAVE {snapshot_dir}"),
        "OK saved shards=4".into(),
    ));
    steps.push((
        format!("SNAPSHOT LOAD {snapshot_dir}"),
        "OK loaded collections=2".into(),
    ));
    steps.extend(own(vec![
        ("STAT towns", "OK len=3 live=3"),
        ("QUERY towns rtree within 0 0 100 100", "OK n=2"),
        (
            "EXPLAIN rtree T=coll:towns,R=coll:roads,C=box:0:0:100:100 T <= C; R & T != 0",
            "OK lines=",
        ),
        // Candidate cache: a verbatim repeat at the same epoch is a
        // hit; the INSERT bumps towns' mutation epoch and the same
        // probe misses again with the fresh answer.
        ("QUERY towns grid within 0 0 100 100", "OK n=2"),
        ("QUERY towns grid within 0 0 100 100", "OK n=2"),
        ("INSERT towns 30 30 34 34", "OK ref=3"),
        ("QUERY towns grid within 0 0 100 100", "OK n=3"),
        ("LOAD map 7 40", "OK towns="),
        ("STAT states", "OK len=8 live=8"),
        // Full STAT again so the transcript carries the final cache
        // counters (self_test parses them).
        ("STAT", "OK shards=4 collections="),
        ("METRICS", "OK lines="),
        ("TRACE 999999", "ERR unknown trace"),
        ("BOGUS", "ERR unknown command"),
        ("QUIT", "OK bye"),
    ]));
    steps
}

/// Parses the cumulative cache counters out of a scripted transcript's
/// last full `STAT` response and asserts the epoch-keyed caches did
/// real work during the session: the scripts repeat a `QUERY` verbatim
/// (must hit), issue fresh probes (must miss), and mutate between
/// repeats (the post-mutation repeat must miss again — epoch
/// invalidation); a verbatim `SOLVE` repeat must have reused its cached
/// plan.
fn verify_cache_counters(transcript: &[String]) -> Result<(), String> {
    let stat = transcript
        .iter()
        .rev()
        .find(|t| t.contains("candidate_cache_hits="))
        .ok_or("no STAT response with cache counters in transcript")?;
    let field = |name: &str| -> Result<u64, String> {
        stat.split_whitespace()
            .find_map(|f| f.strip_prefix(name))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("missing {name} in {stat:?}"))
    };
    let hits = field("candidate_cache_hits=")?;
    let misses = field("candidate_cache_misses=")?;
    if hits == 0 {
        return Err(format!(
            "candidate cache never hit despite a repeated QUERY: {stat:?}"
        ));
    }
    if misses < 2 {
        return Err(format!(
            "expected >= 2 candidate cache misses (first probe + \
             post-mutation epoch invalidation), got {misses}: {stat:?}"
        ));
    }
    if field("plan_cache_hits=")? == 0 {
        return Err(format!(
            "plan cache never hit despite a repeated SOLVE: {stat:?}"
        ));
    }
    Ok(())
}

/// The `lines=<n>` field of a multi-line response header (`METRICS`,
/// `TRACE`), if present: how many body lines follow the header.
pub fn body_lines(header: &str) -> Option<usize> {
    if !header.starts_with("OK") {
        return None;
    }
    header
        .split_whitespace()
        .find_map(|f| f.strip_prefix("lines="))
        .and_then(|n| n.parse().ok())
}

/// Runs a scripted session against `addr`, asserting every response
/// prefix (multi-line responses are consumed whole; the prefix applies
/// to the header line). Returns the transcript; errors carry the first
/// divergence.
pub fn run_script(addr: SocketAddr, script: &[(String, String)]) -> Result<Vec<String>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut transcript = Vec::new();
    for (cmd, want_prefix) in script {
        writer
            .write_all(format!("{cmd}\n").as_bytes())
            .map_err(|e| format!("send {cmd:?}: {e}"))?;
        writer.flush().map_err(|e| e.to_string())?;
        let mut response = String::new();
        reader
            .read_line(&mut response)
            .map_err(|e| format!("read after {cmd:?}: {e}"))?;
        let response = response.trim_end().to_string();
        let mut body = String::new();
        for _ in 0..body_lines(&response).unwrap_or(0) {
            reader
                .read_line(&mut body)
                .map_err(|e| format!("read body after {cmd:?}: {e}"))?;
        }
        let body = body.trim_end();
        transcript.push(if body.is_empty() {
            format!("> {cmd}\n< {response}")
        } else {
            format!("> {cmd}\n< {response}\n{body}")
        });
        if !response.starts_with(want_prefix.as_str()) {
            return Err(format!(
                "command {cmd:?}: expected prefix {want_prefix:?}, got {response:?}\n\
                 transcript so far:\n{}",
                transcript.join("\n")
            ));
        }
    }
    Ok(transcript)
}

/// The scripted session the cluster smoke runs against a router tier
/// fronting **two** shard processes: placement across shards,
/// cross-shard migration on update, router pruning over real sockets
/// (`pruned=1` with 2 shards), compaction, and a snapshot save/load
/// round trip through the remote backends. Prefixes assert the
/// interesting invariants: `SHARDS` live counts prove objects actually
/// move between processes.
fn cluster_script(snapshot_dir: &str) -> Vec<(String, String)> {
    let mut steps = own(vec![
        ("PING", "OK pong"),
        ("SHARDS", "OK n=2 live=0,0 backend=remote:"),
        ("CREATE objs", "OK coll=0"),
        // low corner → shard 0; high corner → shard 1
        ("INSERT objs 50 50 60 60", "OK ref=0"),
        ("INSERT objs 900 900 920 920", "OK ref=1"),
        ("INSERT objs 100 80 140 120", "OK ref=2"),
        ("SHARDS", "OK n=2 live=2,1"),
        // the router proves the high-z shard disjoint: pruned=1 of 2
        ("QUERY objs rtree within 0 0 200 200", "OK n=2 pruned=1"),
        // cross-process migration: ref 1 moves shard 1 → shard 0
        ("UPDATE objs 1 20 20 40 40", "OK updated"),
        ("SHARDS", "OK n=2 live=3,0"),
        ("QUERY objs rtree within 0 0 200 200", "OK n=3 pruned=1"),
        (
            "QUERY objs rtree within 800 800 1000 1000",
            "OK n=0 pruned=1",
        ),
        (
            "SOLVE rtree all A=coll:objs,C=box:0:0:200:200 A <= C",
            "OK n=3",
        ),
        ("REMOVE objs 2", "OK removed"),
        ("COMPACT", "OK reclaimed=1"),
    ]);
    steps.push((
        format!("SNAPSHOT SAVE {snapshot_dir}"),
        "OK saved shards=2".into(),
    ));
    steps.push((
        format!("SNAPSHOT LOAD {snapshot_dir}"),
        "OK loaded collections=1".into(),
    ));
    steps.extend(own(vec![
        ("QUERY objs rtree within 0 0 200 200", "OK n=2 pruned=1"),
        // Planner over live shard processes: estimates come from real
        // wire probes.
        (
            "EXPLAIN rtree A=coll:objs,C=box:0:0:200:200 A <= C",
            "OK lines=",
        ),
        // Candidate cache against remote shards: verbatim repeat hits;
        // the INSERT write-through bumps the logical epoch and the
        // same probe misses with the fresh (n=3) answer.
        ("QUERY objs rtree within 0 0 200 200", "OK n=2 pruned=1"),
        ("INSERT objs 70 70 80 80", "OK ref="),
        ("QUERY objs rtree within 0 0 200 200", "OK n=3 pruned=1"),
        // Verbatim SOLVE repeat: reuses the cached plan.
        (
            "SOLVE rtree all A=coll:objs,C=box:0:0:200:200 A <= C",
            "OK n=3",
        ),
        (
            "SOLVE rtree all A=coll:objs,C=box:0:0:200:200 A <= C",
            "OK n=3",
        ),
        ("STAT", "OK shards=2 collections=1 live=3 backend=remote:"),
        // both tiers answer the scrape: the serve/router instruments
        // plus each shard process's registry fetched over the wire
        ("METRICS", "OK lines="),
        ("QUIT", "OK bye"),
    ]));
    steps
}

/// Boots a complete in-process cluster — two shard servers speaking
/// the wire protocol plus a router tier connected over real sockets —
/// and drives `cluster_script` through the line protocol. This is
/// the same topology `scripts/cluster_smoke.sh` builds out of OS
/// processes; `scq-serve --cluster-self-test` runs this variant.
pub fn cluster_self_test() -> Result<Vec<String>, String> {
    let universe_size = 1000.0;
    let shard_config = scq_shard::ShardServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        universe_size,
        ..scq_shard::ShardServerConfig::default()
    };
    let shard_a = scq_shard::serve_shard(&shard_config).map_err(|e| format!("shard a: {e}"))?;
    let shard_b = scq_shard::serve_shard(&shard_config).map_err(|e| format!("shard b: {e}"))?;
    let spec = ClusterSpec::balanced(
        AaBox::new([0.0, 0.0], [universe_size, universe_size]),
        scq_shard::DEFAULT_ROUTER_BITS,
        &[shard_a.addr().to_string(), shard_b.addr().to_string()],
    );
    let result = (|| {
        let db = spec
            .connect(Duration::from_secs(10))
            .map_err(|e| format!("cluster connect: {e}"))?;
        let handle = serve_db(
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 2,
                ..ServerConfig::default()
            },
            db,
        )
        .map_err(|e| format!("router bind: {e}"))?;
        let dir = std::env::temp_dir().join(format!("scq_cluster_selftest_{}", std::process::id()));
        let script = cluster_script(&dir.display().to_string());
        let result =
            run_script(handle.addr(), &script).and_then(|t| verify_cache_counters(&t).map(|()| t));
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        result
    })();
    shard_a.shutdown();
    shard_b.shutdown();
    result
}

/// Boots an ephemeral server, runs the smoke script against it over
/// real TCP, and shuts down. The CI server-smoke job calls this through
/// `scq-serve --self-test`.
pub fn self_test() -> Result<Vec<String>, String> {
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 4,
        threads: 2,
        universe_size: 1000.0,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let dir = std::env::temp_dir().join(format!("scq_serve_selftest_{}", std::process::id()));
    let script = smoke_script(&dir.display().to_string());
    let result =
        run_script(handle.addr(), &script).and_then(|t| verify_cache_counters(&t).map(|()| t));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes_end_to_end() {
        let transcript = self_test().expect("scripted session succeeds");
        assert!(transcript.len() >= 20);
    }

    #[test]
    fn cluster_self_test_passes_end_to_end() {
        let transcript = cluster_self_test().expect("cluster session succeeds");
        assert!(transcript.len() >= 15);
        // the transcript proves the shards are remote processes
        assert!(
            transcript.iter().any(|t| t.contains("backend=remote:")),
            "router must report remote backends"
        );
    }

    /// A district `SOLVE` over a 2-shard cluster sends no `QUERY` to
    /// either shard process: the router answers every probe from its
    /// mirror. The router still counts one probe per shard it routes a
    /// level's range query to, and that count is pinned here.
    #[test]
    fn a_cluster_solve_probes_the_mirror_and_sends_no_shard_query() {
        let shard_config = scq_shard::ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            universe_size: 1000.0,
            ..scq_shard::ShardServerConfig::default()
        };
        let shards: Vec<_> = (0..2)
            .map(|_| scq_shard::serve_shard(&shard_config).expect("bind shard"))
            .collect();
        let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
        let db = ClusterSpec::balanced(
            AaBox::new([0.0, 0.0], [1000.0, 1000.0]),
            scq_shard::DEFAULT_ROUTER_BITS,
            &addrs,
        )
        .connect(Duration::from_secs(10))
        .expect("connect");
        let db = std::sync::Arc::new(std::sync::RwLock::new(db));
        let ctx = ServeContext::new(None);
        let run = |line: &str| handle_command(&db, &ctx, line).0;
        assert!(run("LOAD map 1120 120").starts_with("OK"));
        // (shard-tier QUERY count, router-tier probe count) in METRICS.
        let counts = || {
            let scrape = run("METRICS");
            let body: Vec<&str> = scrape.lines().skip(1).collect();
            let samples = scq_obs::parse_exposition(&body.join("\n")).expect("scrape parses");
            let sum = |name: &str, tier: &str| -> f64 {
                samples
                    .iter()
                    .filter(|s| s.name == name && s.labels.contains(tier))
                    .map(|s| s.value)
                    .sum()
            };
            (
                sum("shard_query_latency_us_count", "tier=\"shard\""),
                sum("shard_probe_latency_us_count", "tier=\"router\""),
            )
        };
        let (queries, probes) = counts();
        let solve = run("SOLVE rtree all W=box:0:0:500:500,T=coll:towns,R=coll:roads T<=W; R&T!=0");
        assert!(solve.starts_with("OK n=9 "), "{solve}");
        let (queries_after, probes_after) = counts();
        assert_eq!(
            queries_after - queries,
            0.0,
            "no QUERY reached a shard process"
        );
        // One router probe per routed shard per retrieval level.
        assert_eq!(
            probes_after - probes,
            38.0,
            "router probes per district SOLVE"
        );
        drop(db);
        shards.into_iter().for_each(|s| s.shutdown());
    }

    #[test]
    fn concurrent_clients_are_served() {
        let handle = serve(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 3,
            threads: 3,
            universe_size: 100.0,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr();
        // Writer sets up data, three readers query concurrently.
        run_script(
            addr,
            &own(vec![
                ("CREATE objs", "OK coll=0"),
                ("INSERT objs 1 1 5 5", "OK ref=0"),
                ("INSERT objs 90 90 95 95", "OK ref=1"),
                ("QUIT", "OK bye"),
            ]),
        )
        .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(move || {
                    run_script(
                        addr,
                        &own(vec![
                            ("QUERY objs rtree within 0 0 10 10", "OK n=1"),
                            ("QUERY objs scan overlaps 0 0 100 100", "OK n=2"),
                            ("QUIT", "OK bye"),
                        ]),
                    )
                    .unwrap();
                });
            }
        });
        handle.shutdown();
    }

    /// A raw session (no script helper): a QUERY's response names its
    /// trace, `TRACE <id>` replays a span tree that reaches the probe
    /// layer, and `METRICS` parses as exposition carrying the query's
    /// latency observation.
    #[test]
    fn metrics_and_trace_round_trip_over_the_wire() {
        let handle = serve(&ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut exchange = |cmd: &str| -> (String, Vec<String>) {
            writer.write_all(format!("{cmd}\n").as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut head = String::new();
            reader.read_line(&mut head).unwrap();
            let head = head.trim_end().to_string();
            let body: Vec<String> = (0..body_lines(&head).unwrap_or(0))
                .map(|_| {
                    let mut l = String::new();
                    reader.read_line(&mut l).unwrap();
                    l.trim_end().to_string()
                })
                .collect();
            (head, body)
        };
        exchange("CREATE objs");
        exchange("INSERT objs 10 10 20 20");
        exchange("INSERT objs 700 700 720 720");
        let (q, _) = exchange("QUERY objs rtree within 0 0 100 100");
        let trace_id = q
            .split_whitespace()
            .find_map(|f| f.strip_prefix("trace="))
            .expect("QUERY response names its trace")
            .to_string();
        let (head, spans) = exchange(&format!("TRACE {trace_id}"));
        assert!(
            head.starts_with(&format!("OK trace={trace_id} lines=")),
            "bad TRACE header: {head:?}"
        );
        assert!(
            spans.iter().any(|l| l.contains("serve.command"))
                && spans.iter().any(|l| l.trim_start().starts_with("probe ")),
            "span tree must span serve → probe: {spans:?}"
        );
        let (head, body) = exchange("METRICS");
        assert!(
            head.starts_with("OK lines="),
            "bad METRICS header: {head:?}"
        );
        let samples = scq_obs::parse_exposition(&body.join("\n")).expect("scrape parses");
        let count = samples
            .iter()
            .find(|s| {
                s.name == "serve_query_latency_us_count" && s.labels.contains("tier=\"serve\"")
            })
            .expect("query latency histogram is in the scrape");
        assert!(count.value >= 1.0, "the QUERY above must be observed");
        assert!(
            samples
                .iter()
                .any(|s| s.name == "shard_probe_latency_us_count"
                    && s.labels.contains("tier=\"router\"")),
            "router-tier probe histogram is in the scrape"
        );
        exchange("QUIT");
        handle.shutdown();
    }

    #[test]
    fn shutdown_returns_despite_an_idle_connection() {
        // A client that connects and never sends anything must not
        // wedge shutdown(): the per-connection read timeout lets the
        // worker notice the stop flag.
        let handle = serve(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            threads: 1,
            universe_size: 100.0,
            ..ServerConfig::default()
        })
        .unwrap();
        let idle = TcpStream::connect(handle.addr()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        handle.shutdown();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "shutdown must not hang on the idle connection"
        );
        drop(idle);
    }

    /// A client that sends its commands and then shuts down its
    /// writing half (`nc -N`, or any pipe-fed tool) is owed every
    /// answer: the server must finish what was asked, flush, and only
    /// then close — and must not spin on the half-closed socket while
    /// the commands run.
    #[test]
    fn a_half_closed_client_still_gets_every_answer() {
        use std::io::Read;
        use std::net::Shutdown;
        let handle = serve(&ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        run_script(
            handle.addr(),
            &own(vec![("LOAD map 7 1000", "OK towns="), ("QUIT", "OK bye")]),
        )
        .unwrap();
        // The smuggler join on a 1 000-road map: tens of milliseconds
        // in a debug build, long enough that it is still running when
        // the FIN behind it has been read.
        let solve = "SOLVE rtree all C=box:0:0:1000:1000,A=box:0:0:120:1000,\
                     T=coll:towns,R=coll:roads,B=coll:states \
                     A<=C; B<=C; R<=A|B|T; R&A!=0; R&T!=0; T<C";
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let before = handle.loop_wakeups();
        let t0 = std::time::Instant::now();
        s.write_all(format!("PING\n{solve}\nPING\n").as_bytes())
            .unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut answers = String::new();
        s.read_to_string(&mut answers)
            .expect("every answer, then EOF");
        let lines: Vec<&str> = answers.lines().collect();
        assert_eq!(lines.len(), 3, "{answers:?}");
        assert_eq!(lines[0], "OK pong");
        assert!(lines[1].starts_with("OK n="), "{}", lines[1]);
        assert_eq!(lines[2], "OK pong");
        // Level-triggered epoll reports a half-closed socket readable
        // forever; the loop must have dropped its read interest rather
        // than woken for it continuously. Idle, it wakes ten times a
        // second (the shutdown heartbeat).
        let wakeups = handle.loop_wakeups() - before;
        let budget = 50 + t0.elapsed().as_millis() as u64 / 20;
        assert!(
            wakeups <= budget,
            "loop woke {wakeups} times in {:?} (budget {budget}): spinning on the half-closed socket",
            t0.elapsed()
        );
        // With nothing asked, a half-closed connection is simply closed.
        let mut idle = TcpStream::connect(handle.addr()).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        idle.shutdown(Shutdown::Write).unwrap();
        assert_eq!(idle.read(&mut [0u8; 8]).expect("a clean close"), 0);
        handle.shutdown();
    }

    #[test]
    fn malformed_commands_error_without_dropping_the_connection() {
        let handle = serve(&ServerConfig::default()).unwrap();
        run_script(
            handle.addr(),
            &own(vec![
                ("INSERT", "ERR"),
                ("INSERT nosuch 1 2 3 4", "ERR unknown collection"),
                (
                    "QUERY nosuch rtree within 0 0 1 1",
                    "ERR unknown collection",
                ),
                ("INSERT bad 1 2 three 4", "ERR"),
                ("SOLVE rtree all X=coll:none X != 0", "ERR"),
                ("PING", "OK pong"), // still alive
                ("QUIT", "OK bye"),
            ]),
        )
        .unwrap();
        handle.shutdown();
    }
}
