//! `scq-serve` — the sharded spatial database behind a TCP line
//! protocol, plus the shard-process and router-tier cluster modes.
//!
//! ```text
//! scq-serve [--addr A] [--shards N] [--threads T] [--universe S]
//!                              in-process sharded store (classic mode)
//! scq-serve --shard [--addr A] [--threads T] [--universe S]
//!                              one shard process: a single spatial
//!                              database speaking the binary shard wire
//!                              protocol (what --cluster connects to)
//! scq-serve --cluster <spec>   router tier: connect to the shard
//!                              processes in the cluster spec file and
//!                              front them through the line protocol
//! scq-serve --self-test        boot an ephemeral server, run the
//!                              scripted smoke session, exit 0/1
//! scq-serve --cluster-self-test
//!                              boot 2 in-process shard servers + a
//!                              router over real sockets, run the
//!                              cluster script, exit 0/1
//! scq-serve --client <addr>    interactive client: lines from stdin,
//!                              responses to stdout
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

use scq_serve::{cluster_self_test, self_test, serve, serve_db, PlanMode, ServerConfig};
use scq_shard::{serve_shard, ClusterSpec, ShardServerConfig, WalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let numbers = match check_args(&args) {
        Ok(numbers) => numbers,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    if args.iter().any(|a| a == "--self-test") {
        run_self_test(self_test());
        return;
    }
    if args.iter().any(|a| a == "--cluster-self-test") {
        run_self_test(cluster_self_test());
        return;
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    if let Some(addr) = flag("--client") {
        // Pretty-printing is for humans; piped output (CI transcripts,
        // smoke-test greps) keeps the server's raw line shape unless
        // --pretty asks for it.
        let pretty = args.iter().any(|a| a == "--pretty")
            || std::io::IsTerminal::is_terminal(&std::io::stdout());
        std::process::exit(client(&addr, pretty));
    }

    if args.iter().any(|a| a == "--shard") {
        // Shard-process mode: this process is ONE shard of a cluster.
        let mut config = ShardServerConfig {
            addr: flag("--addr").unwrap_or_else(|| "127.0.0.1:7979".into()),
            ..ShardServerConfig::default()
        };
        if let Some(t) = numbers.threads {
            config.threads = t;
        }
        if let Some(u) = numbers.universe {
            config.universe_size = u;
        }
        if let Some(m) = numbers.max_conns {
            config.max_connections = m;
        }
        if let Some(dir) = flag("--wal") {
            config.wal = Some(WalConfig::new(dir));
        }
        match serve_shard(&config) {
            Ok(handle) => {
                println!(
                    "scq-shard listening on {} (universe {}, {} workers, wire v{})",
                    handle.addr(),
                    config.universe_size,
                    config.threads,
                    scq_shard::wire::WIRE_VERSION
                );
                if let Some(stats) = handle.wal_stats() {
                    println!(
                        "scq-shard wal: replayed {} records ({} segments, {} bytes)",
                        stats.replayed, stats.segments, stats.bytes
                    );
                }
                park_forever();
            }
            Err(e) => {
                eprintln!("bind {}: {e}", config.addr);
                std::process::exit(1);
            }
        }
    }

    let mut config = ServerConfig {
        addr: flag("--addr").unwrap_or_else(|| "127.0.0.1:7878".into()),
        ..ServerConfig::default()
    };
    if let Some(s) = numbers.shards {
        config.shards = s;
    }
    if let Some(t) = numbers.threads {
        config.threads = t;
    }
    if let Some(u) = numbers.universe {
        config.universe_size = u;
    }
    if let Some(ms) = numbers.slow_ms {
        config.slow_ms = Some(ms);
    }
    // `--plan` stays only because the benchmark
    // (`benchmark/src/procs.rs`) passes `--plan selectivity`: there is
    // one planner, so the flag selects nothing and any other value is
    // refused. The next change to the benchmark deletes it (ROADMAP
    // item 1).
    if let Some(p) = flag("--plan") {
        if let Err(e) = PlanMode::parse(&p) {
            eprintln!("bad --plan: {e}");
            std::process::exit(2);
        }
    }

    if let Some(spec_path) = flag("--cluster") {
        // Router-tier mode: shards are separate processes named by the
        // cluster spec; this process only routes.
        let spec = match ClusterSpec::load(Path::new(&spec_path)) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        let n_shards = spec.shards.len();
        let db = match spec.connect(Duration::from_secs(15)) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cluster connect: {e}");
                std::process::exit(1);
            }
        };
        match serve_db(&config, db) {
            Ok(handle) => {
                println!(
                    "scq-serve listening on {} (cluster of {} shard processes, {} workers)",
                    handle.addr(),
                    n_shards,
                    config.threads
                );
                park_forever();
            }
            Err(e) => {
                eprintln!("bind {}: {e}", config.addr);
                std::process::exit(1);
            }
        }
    }

    match serve(&config) {
        Ok(handle) => {
            println!(
                "scq-serve listening on {} ({} shards, {} workers)",
                handle.addr(),
                config.shards,
                config.threads
            );
            park_forever();
        }
        Err(e) => {
            eprintln!("bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    }
}

/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--client",
    "--cluster",
    "--max-conns",
    "--plan",
    "--shards",
    "--slow-ms",
    "--threads",
    "--universe",
    "--wal",
];

/// Flags that stand alone.
const SWITCHES: &[&str] = &[
    "--cluster-self-test",
    "--help",
    "-h",
    "--pretty",
    "--self-test",
    "--shard",
];

/// The numeric flags' values (the first of each, as for every flag).
#[derive(Debug, Default)]
struct Numbers {
    max_conns: Option<usize>,
    shards: Option<usize>,
    slow_ms: Option<u64>,
    threads: Option<usize>,
    universe: Option<f64>,
}

/// Refuses any argument that is not a known flag (or a value flag's
/// value), naming it: a misspelt `--wal` must not start a shard that
/// quietly keeps no log. A numeric flag's value must parse, or it is
/// refused naming the flag and the value: `--threads two` must not
/// start a server on the default.
fn check_args(args: &[String]) -> Result<Numbers, String> {
    fn number<T: FromStr>(slot: &mut Option<T>, flag: &str, value: &str) -> Result<(), String> {
        let n = value
            .parse()
            .map_err(|_| format!("bad {flag} {value:?} (want a number)"))?;
        slot.get_or_insert(n);
        Ok(())
    }
    let mut numbers = Numbers::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            let Some(value) = args.next() else {
                return Err(format!("{arg} needs a value"));
            };
            match arg.as_str() {
                "--max-conns" => number(&mut numbers.max_conns, arg, value)?,
                "--shards" => number(&mut numbers.shards, arg, value)?,
                "--slow-ms" => number(&mut numbers.slow_ms, arg, value)?,
                "--threads" => number(&mut numbers.threads, arg, value)?,
                "--universe" => number(&mut numbers.universe, arg, value)?,
                _ => {}
            }
        } else if !SWITCHES.contains(&arg.as_str()) {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(numbers)
}

/// Serve until killed.
fn park_forever() -> ! {
    loop {
        std::thread::park();
    }
}

fn run_self_test(result: Result<Vec<String>, String>) {
    match result {
        Ok(transcript) => {
            for line in &transcript {
                println!("{line}");
            }
            println!("self-test passed ({} exchanges)", transcript.len());
        }
        Err(e) => {
            eprintln!("self-test FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() -> &'static str {
    "scq-serve — concurrent query server over the sharded spatial database\n\
     \n\
     usage:\n\
     \x20 scq-serve [--addr A] [--shards N] [--threads T] [--universe S] [--slow-ms W]\n\
     \x20           [--plan selectivity]\n\
     \x20 scq-serve --shard [--addr A] [--threads T] [--universe S] [--max-conns N]\n\
     \x20           [--wal <dir>]\n\
     \x20 scq-serve --cluster <spec-file> [--addr A] [--threads T]\n\
     \x20           [--plan selectivity]\n\
     \x20 scq-serve --self-test\n\
     \x20 scq-serve --cluster-self-test\n\
     \x20 scq-serve --client <addr>\n\
     \n\
     --plan accepts only `selectivity`, the one planner; it stays for the\n\
     repo benchmark. A shard started with --wal acknowledges a write only\n\
     once it is fsynced; writes that arrive during one fsync share the\n\
     next. Any other argument is refused.\n\
     \n\
     protocol: one command per line; see the scq-serve crate docs or the\n\
     repository README for the command reference and the cluster spec\n\
     file format.\n"
}

/// Minimal interactive client: stdin lines to the server, responses to
/// stdout. With `pretty`, `STAT`, `METRICS` and `TRACE` responses are
/// pretty-printed (one field per line, aligned); multi-line bodies
/// (`lines=` in the header) are always consumed whole so the session
/// never desyncs. Exits when the server closes the connection or stdin
/// ends.
fn client(addr: &str, pretty: bool) -> i32 {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return 1;
        }
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("clone stream: {e}");
            return 1;
        }
    });
    let mut writer = stream;
    let stdin = std::io::stdin();
    'session: for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
            break;
        }
        let mut head = String::new();
        match reader.read_line(&mut head) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let head = head.trim_end().to_string();
        let mut body = Vec::new();
        for _ in 0..scq_serve::body_lines(&head).unwrap_or(0) {
            let mut l = String::new();
            match reader.read_line(&mut l) {
                Ok(0) | Err(_) => break 'session,
                Ok(_) => body.push(l.trim_end().to_string()),
            }
        }
        print_response(line.trim(), &head, &body, pretty);
        if line.trim() == "QUIT" {
            break;
        }
    }
    0
}

/// Prints one response. When `pretty`, `STAT`'s single packed line
/// becomes one aligned `key = value` row per field and `METRICS` /
/// `TRACE` bodies indent under their header (they are already
/// line-structured); otherwise everything prints verbatim.
fn print_response(cmd: &str, head: &str, body: &[String], pretty: bool) {
    let verb = if pretty {
        cmd.split_whitespace().next().unwrap_or("")
    } else {
        ""
    };
    match verb {
        "STAT" if head.starts_with("OK") => {
            let fields: Vec<&str> = head.split_whitespace().skip(1).collect();
            let width = fields
                .iter()
                .filter_map(|f| f.split_once('='))
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            println!("OK");
            for f in fields {
                match f.split_once('=') {
                    Some((k, v)) => println!("  {k:<width$} = {v}"),
                    None => println!("  {f}"),
                }
            }
        }
        "METRICS" | "TRACE" if head.starts_with("OK") => {
            println!("{head}");
            for l in body {
                println!("  {l}");
            }
        }
        _ => {
            println!("{head}");
            for l in body {
                println!("{l}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::check_args;

    fn check(line: &str) -> Result<(), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        check_args(&args).map(|_| ())
    }

    /// Every command line the repo benchmark and the smoke scripts
    /// start a server with is accepted.
    #[test]
    fn the_benchmark_and_script_command_lines_are_accepted() {
        for line in [
            "--addr 127.0.0.1:0 --shards 4 --threads 2 --plan selectivity",
            "--addr 127.0.0.1:0 --cluster out/cluster.spec --threads 2 --plan selectivity",
            "--addr 127.0.0.1:0 --shard --threads 1 --wal out/wal-0",
            "--shard --addr 127.0.0.1:0 --threads 2 --universe 1000 --wal w/shard_a",
            "--cluster w/cluster.spec --addr 127.0.0.1:0 --threads 2",
            "--shard --max-conns 8 --slow-ms 5",
            "--client 127.0.0.1:7878 --pretty",
            "--self-test",
            "--cluster-self-test",
            "--help",
            "-h",
            "",
        ] {
            assert_eq!(check(line), Ok(()), "{line}");
        }
    }

    /// Anything else is refused by name, including the retired
    /// group-commit window, a value flag missing its value and a
    /// numeric flag whose value does not parse.
    #[test]
    fn unknown_flags_are_refused_by_name() {
        for (line, named) in [
            ("--shard --wall w/a", "\"--wall\""),
            (
                "--shard --wal w/a --wal-group-commit-ms 2",
                "\"--wal-group-commit-ms\"",
            ),
            ("--threads 2 stray", "\"stray\""),
            ("--shard --wal", "--wal needs a value"),
            ("--shard --threads two --universe big", "--threads \"two\""),
            ("--shard --universe big", "--universe \"big\""),
            ("--shards 4x", "--shards \"4x\""),
            ("--shard --max-conns -1", "--max-conns \"-1\""),
            ("--slow-ms 1.5", "--slow-ms \"1.5\""),
        ] {
            let err = check(line).expect_err(line);
            assert!(err.contains(named), "{line}: {err}");
        }
    }
}
