//! Server processes: real `scq-serve` binaries on ephemeral ports,
//! killed from a `Drop` guard whatever happens to the run.

use std::fs::File;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to print its `listening on` line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(15);

/// Which processes a workload runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One `scq-serve --shards 4 --threads 2 --plan selectivity`
    /// process: no wire, no WAL.
    Local,
    /// A `--cluster` router (2 threads) over two `--shard --threads 1
    /// --wal <dir>` processes, default 5 ms group commit.
    Cluster,
}

struct Server {
    name: String,
    child: Child,
}

/// A running topology. Dropping it kills and reaps every process and
/// removes the work directory (logs, spec file, WAL segments).
pub struct Servers {
    servers: Vec<Server>,
    /// The line-protocol front end clients connect to.
    pub addr: SocketAddr,
    /// The cluster spec text, when the topology has one.
    pub spec: Option<String>,
    dir: PathBuf,
}

/// The `scq-serve` binary the root workspace built.
pub fn serve_binary() -> Result<PathBuf, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("scq-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing: build it with `cargo build --release -p scq-serve` \
             (benchmark/run.sh does)",
            bin.display()
        ))
    }
}

/// A fresh work directory under `benchmark/out/` — inside the checkout,
/// which is the only place the benchmark may write.
pub fn work_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = Path::new("benchmark/out").join(format!("run-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

impl Servers {
    fn none_yet(dir: PathBuf) -> Servers {
        Servers {
            servers: Vec::new(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spec: None,
            dir,
        }
    }

    pub fn boot(topology: Topology, bin: &Path, dir: PathBuf) -> Result<Servers, String> {
        let mut servers = Servers::none_yet(dir);
        match topology {
            Topology::Local => {
                servers.addr = servers.spawn(
                    bin,
                    "serve",
                    &["--shards", "4", "--threads", "2", "--plan", "selectivity"],
                )?;
            }
            Topology::Cluster => {
                let shards = servers.boot_shards(bin)?;
                let spec = cluster_spec(&shards);
                let spec_path = servers.dir.join("cluster.spec");
                std::fs::write(&spec_path, &spec).map_err(|e| format!("write spec: {e}"))?;
                let spec_arg = spec_path.display().to_string();
                servers.addr = servers.spawn(
                    bin,
                    "router",
                    &[
                        "--cluster",
                        &spec_arg,
                        "--threads",
                        "2",
                        "--plan",
                        "selectivity",
                    ],
                )?;
                servers.spec = Some(spec);
            }
        }
        Ok(servers)
    }

    /// Two pristine WAL-backed shard processes and no router: the
    /// traced pass connects to them itself, as the router would.
    pub fn boot_shards_only(bin: &Path, dir: PathBuf) -> Result<Servers, String> {
        let mut servers = Servers::none_yet(dir);
        let shards = servers.boot_shards(bin)?;
        servers.spec = Some(cluster_spec(&shards));
        Ok(servers)
    }

    fn boot_shards(&mut self, bin: &Path) -> Result<Vec<SocketAddr>, String> {
        (0..2)
            .map(|i| {
                let wal = self.dir.join(format!("wal-{i}")).display().to_string();
                self.spawn(
                    bin,
                    &format!("shard-{i}"),
                    &["--shard", "--threads", "1", "--wal", &wal],
                )
            })
            .collect()
    }

    /// Starts one server on an ephemeral port and polls its log for the
    /// `listening on <addr>` line (the `scripts/cluster_smoke.sh`
    /// convention): no fixed ports, no sleep-and-hope, and a server
    /// that dies while booting fails at once with its log.
    fn spawn(&mut self, bin: &Path, name: &str, args: &[&str]) -> Result<SocketAddr, String> {
        let log_path = self.dir.join(format!("{name}.log"));
        let log = File::create(&log_path).map_err(|e| format!("create log: {e}"))?;
        let err_log = log.try_clone().map_err(|e| e.to_string())?;
        let mut command = Command::new(bin);
        command
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(err_log);
        // The `Drop` guard covers success, failure and panic; a driver
        // that is itself killed (a harness timeout) runs no destructor,
        // so the kernel is asked to kill the server with it.
        // SAFETY: the closure runs in the forked child before exec and
        // makes one async-signal-safe system call with constant
        // arguments; it touches no memory of the parent.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        self.servers.push(Server {
            name: name.to_string(),
            child,
        });
        let server = self.servers.last_mut().expect("just pushed");
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            if let Some(addr) = listening_addr(&text) {
                return Ok(addr);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("{name} exited while booting ({status}): {text}"));
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err(format!("{name} was not listening after {BOOT_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Names a process that is no longer running — the reason an
    /// operation stream broke, instead of a bare timeout.
    pub fn check_alive(&mut self) -> Result<(), String> {
        for s in &mut self.servers {
            if let Ok(Some(status)) = s.child.try_wait() {
                return Err(format!("{} died mid-run ({status})", s.name));
            }
        }
        Ok(())
    }

    /// Sum of the processes' peak resident set sizes (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.servers
            .iter()
            .filter_map(|s| {
                let status =
                    std::fs::read_to_string(format!("/proc/{}/status", s.child.id())).ok()?;
                let kb: f64 = status
                    .lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()?;
                Some(kb / 1024.0)
            })
            .sum()
    }
}

impl Drop for Servers {
    fn drop(&mut self) {
        for s in &mut self.servers {
            let _ = s.child.kill();
        }
        for s in &mut self.servers {
            let _ = s.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn listening_addr(log: &str) -> Option<SocketAddr> {
    log.lines()
        .find_map(|l| l.split("listening on ").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
}

/// The two-shard spec: the 6-bit z-key space split evenly, so shard 0
/// owns box centers with y < 500 and shard 1 the rest.
fn cluster_spec(shards: &[SocketAddr]) -> String {
    format!(
        "universe 0 0 1000 1000\nbits 6\nshard {} 0 2048\nshard {} 2048 4096\n",
        shards[0], shards[1]
    )
}

/// Children of this process that are still running: any entry here
/// after the guards dropped is a leaked server.
pub fn leaked_children() -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let pid = e.file_name().into_string().ok()?;
            pid.parse::<u32>().ok()?;
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            // `pid (comm) state ppid …`; comm may hold spaces.
            let after = stat.rsplit_once(')')?.1;
            let ppid = after.split_whitespace().nth(1)?;
            (ppid == me).then(|| format!("pid {pid}: {}", stat.trim_end()))
        })
        .collect()
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and so every thread and server process it
/// later starts — to the first CPU it may run on, and returns that CPU.
///
/// Why: on the two-CPU sandbox a wake-up that crosses CPUs costs three
/// to four times one that does not, and which of the two a run gets is
/// the scheduler's whim (set-up alone read 0.027 s or 0.13 s). On one
/// CPU runs repeat within a few percent. The price is stated in the
/// README: the benchmark measures work and waiting, never parallel
/// speed-up.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the byte length passed.
    (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_listening_line_is_found_in_both_server_banners() {
        let serve = "scq-serve listening on 127.0.0.1:40123 (4 shards, 2 workers)\n";
        assert_eq!(listening_addr(serve), "127.0.0.1:40123".parse().ok());
        let shard = "scq-shard listening on 127.0.0.1:5 (universe 1000, 1 workers, wire v4)\n\
                     scq-shard wal: replayed 0 records\n";
        assert_eq!(listening_addr(shard), "127.0.0.1:5".parse().ok());
        assert_eq!(listening_addr("bind 127.0.0.1:0: denied\n"), None);
        assert_eq!(listening_addr(""), None);
    }
}
