//! Cluster configuration: which shard processes exist and which
//! z-ranges they own.
//!
//! A [`ClusterSpec`] is the deployment artifact of the multi-process
//! story — the router tier's equivalent of a manifest of backends: the
//! shared universe, the routing grid resolution, and one `(address,
//! z-range)` entry per shard process. [`ClusterSpec::connect`] turns it
//! into a live `ShardedDatabase<RemoteShard>`, validating everything a
//! misconfigured deployment could get wrong — ranges that do not tile
//! the key space, a shard process spanning a different universe, a
//! wire version mismatch, a shard that already holds data — **before**
//! any query runs, because deployment glue that fails quietly is how
//! distributed stores rot.
//!
//! The text format is deliberately trivial (comments, five directive
//! kinds: `universe`, `bits`, `breaker`, `wal`, `shard`), written and
//! parsed by this module so `scripts/cluster_smoke.sh` and a human
//! operator author the same file:
//!
//! ```text
//! # scq cluster spec
//! universe 0 0 1000 1000
//! bits 6
//! breaker 3 1000
//! shard low  127.0.0.1:9101,127.0.0.1:9201 0 2048
//! shard high 127.0.0.1:9102,127.0.0.1:9202 2048 4096
//! ```
//!
//! Each `shard` directive names an **ordered replica set** for one
//! z-range: the first address is the write primary, the rest are read
//! replicas in failover order. The bare three-token form
//! `shard <addr> <zlo> <zhi>` is a single-replica shard with a
//! generated name. Every address is reached over one multiplexed
//! connection, so there is no connection count to configure; `breaker`
//! tunes the per-address circuit breaker (consecutive transport
//! failures to trip, cooldown in milliseconds before a half-open
//! probe) and is optional, defaulting to [`BreakerConfig::default`].
//! Duplicate addresses — across replica sets, not just across
//! primaries — and duplicate shard names are named validation errors:
//! connecting the same process twice would double-count its objects
//! and desynchronize its mirror.

use std::path::Path;
use std::time::Duration;

use scq_region::AaBox;

use crate::backend::ShardError;
use crate::database::ShardedDatabase;
use crate::router::{validate_ranges, ShardRouter};
use crate::{link::BreakerConfig, remote::RemoteShard};

/// One shard — an ordered replica set of processes owning one z-range —
/// in a [`ClusterSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Operator-facing shard name (no whitespace or commas).
    pub name: String,
    /// The replica addresses (`host:port`), in failover order; the
    /// first is the write primary. Never empty.
    pub addrs: Vec<String>,
    /// The half-open z-code range `[lo, hi)` this shard owns.
    pub range: (u64, u64),
}

impl ShardSpec {
    /// The write primary's address (the first replica).
    #[cfg(test)]
    pub(crate) fn primary(&self) -> &str {
        &self.addrs[0]
    }
}

/// A cluster of shard processes: universe, routing grid, breaker
/// tuning, shard list.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    /// The universe every shard must span.
    pub universe: AaBox<2>,
    /// Routing grid resolution (bits per dimension, `1..=16`).
    pub bits: u32,
    /// Per-address circuit breaker tuning (trip threshold + cooldown).
    pub breaker: BreakerConfig,
    /// Root directory for per-shard write-ahead logs, when the
    /// deployment is durable: each shard **process** is started with
    /// its own `--wal` subdirectory of it, so two replicas never share
    /// a log. `None` = in-memory shards.
    pub wal_dir: Option<String>,
    /// Group-commit window in milliseconds for WAL-enabled shard
    /// processes (`None` = the server default,
    /// `crate::wal::DEFAULT_GROUP_COMMIT_MS`).
    pub wal_group_commit_ms: Option<u64>,
    /// The shard replica sets, in shard-id order.
    pub shards: Vec<ShardSpec>,
}

/// Errors reading or validating a cluster spec.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterSpecError {
    /// A line failed to parse. Carries the offending line verbatim so
    /// an operator can find the typo without opening the file at the
    /// reported number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending line's text (comments stripped, trimmed).
        text: String,
        /// What went wrong.
        message: String,
    },
    /// A required directive is missing or the configuration is
    /// invalid (empty cluster, non-tiling ranges, bad universe…).
    BadConfig(String),
    /// The same process address appears twice — across replica sets,
    /// not just across primaries. Connecting one process twice would
    /// double-count its objects, so this is its own named error
    /// instead of a connect-time surprise.
    DuplicateAddress {
        /// The address that appears more than once.
        addr: String,
    },
    /// Filesystem error reading the spec.
    Io(String),
}

impl std::fmt::Display for ClusterSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterSpecError::Parse {
                line,
                text,
                message,
            } => {
                write!(f, "cluster spec line {line} ({text:?}): {message}")
            }
            ClusterSpecError::BadConfig(m) => write!(f, "bad cluster spec: {m}"),
            ClusterSpecError::DuplicateAddress { addr } => {
                write!(f, "duplicate shard address {addr:?} in cluster spec")
            }
            ClusterSpecError::Io(m) => write!(f, "cluster spec io: {m}"),
        }
    }
}

impl std::error::Error for ClusterSpecError {}

/// Errors bringing a cluster up from a spec.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterError {
    /// The spec itself is invalid.
    Spec(ClusterSpecError),
    /// One shard failed to connect, handshake or validate.
    Shard {
        /// Which shard (index into [`ClusterSpec::shards`]).
        shard: usize,
        /// Its address.
        addr: String,
        /// The failure.
        source: ShardError,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Spec(e) => write!(f, "{e}"),
            ClusterError::Shard {
                shard,
                addr,
                source,
            } => {
                write!(f, "shard {shard} ({addr}): {source}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl ClusterSpec {
    /// A spec giving each address an equal share of the z-key space —
    /// the default deployment shape ([`scq_zorder::shard_ranges`]).
    ///
    /// # Panics
    /// If `addrs` is empty or `bits` is outside `1..=16`.
    pub fn balanced(universe: AaBox<2>, bits: u32, addrs: &[String]) -> Self {
        assert!(!addrs.is_empty(), "a cluster needs at least one shard");
        let sets: Vec<Vec<String>> = addrs.iter().map(|a| vec![a.clone()]).collect();
        Self::balanced_replicated(universe, bits, &sets)
    }

    /// [`ClusterSpec::balanced`] with replica sets: each entry of
    /// `replica_sets` is one shard's ordered address list (primary
    /// first), and the z-key space is split evenly across the sets.
    ///
    /// # Panics
    /// If `replica_sets` is empty or `bits` is outside `1..=16`.
    pub fn balanced_replicated(
        universe: AaBox<2>,
        bits: u32,
        replica_sets: &[Vec<String>],
    ) -> Self {
        assert!(
            !replica_sets.is_empty(),
            "a cluster needs at least one shard"
        );
        let ranges = scq_zorder::shard_ranges(bits, replica_sets.len());
        ClusterSpec {
            universe,
            bits,
            breaker: BreakerConfig::default(),
            wal_dir: None,
            wal_group_commit_ms: None,
            shards: replica_sets
                .iter()
                .zip(ranges)
                .enumerate()
                .map(|(i, (addrs, range))| ShardSpec {
                    name: format!("shard{i}"),
                    addrs: addrs.clone(),
                    range,
                })
                .collect(),
        }
    }

    /// Checks the spec: bits in range, at least one shard, a sane
    /// breaker, ranges tiling the key space exactly,
    /// well-formed names, and no address named twice — across replica
    /// sets, not just across primaries.
    pub fn validate(&self) -> Result<(), ClusterSpecError> {
        if self.universe.is_empty() {
            return Err(ClusterSpecError::BadConfig("empty universe".into()));
        }
        if self.breaker.threshold == 0 {
            return Err(ClusterSpecError::BadConfig(
                "breaker threshold must be at least 1".into(),
            ));
        }
        let malformed =
            |s: &str| s.is_empty() || s.contains(|c: char| c.is_whitespace() || c == ',');
        let mut seen_addrs: Vec<&str> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if malformed(&shard.name) {
                return Err(ClusterSpecError::BadConfig(format!(
                    "bad shard name {:?} (empty, whitespace or comma)",
                    shard.name
                )));
            }
            if self.shards[..i].iter().any(|s| s.name == shard.name) {
                return Err(ClusterSpecError::BadConfig(format!(
                    "duplicate shard name {:?}",
                    shard.name
                )));
            }
            if shard.addrs.is_empty() {
                return Err(ClusterSpecError::BadConfig(format!(
                    "shard {:?} has no replica addresses",
                    shard.name
                )));
            }
            for addr in &shard.addrs {
                if malformed(addr) {
                    return Err(ClusterSpecError::BadConfig(format!(
                        "bad replica address {addr:?} in shard {:?}",
                        shard.name
                    )));
                }
                if seen_addrs.contains(&addr.as_str()) {
                    return Err(ClusterSpecError::DuplicateAddress { addr: addr.clone() });
                }
                seen_addrs.push(addr);
            }
        }
        let ranges: Vec<(u64, u64)> = self.shards.iter().map(|s| s.range).collect();
        validate_ranges(self.bits, &ranges).map_err(ClusterSpecError::BadConfig)
    }

    /// Parses the text format (see the module docs).
    pub fn parse(text: &str) -> Result<Self, ClusterSpecError> {
        let mut universe = None;
        let mut bits = None;
        let mut breaker = None;
        let mut wal_dir = None;
        let mut wal_group_commit_ms = None;
        let mut shards = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            let parse_err = |message: String| ClusterSpecError::Parse {
                line,
                text: content.to_owned(),
                message,
            };
            if content.is_empty() {
                continue;
            }
            let mut parts = content.split_whitespace();
            let directive = parts.next().expect("nonempty line has a first token");
            let rest: Vec<&str> = parts.collect();
            match directive {
                "universe" => {
                    let [x0, y0, x1, y1] = rest[..] else {
                        return Err(parse_err("usage: universe <x0> <y0> <x1> <y1>".into()));
                    };
                    let mut c = [0.0f64; 4];
                    for (v, s) in c.iter_mut().zip([x0, y0, x1, y1]) {
                        *v = s
                            .parse::<f64>()
                            .ok()
                            .filter(|v| v.is_finite())
                            .ok_or_else(|| parse_err(format!("bad coordinate {s:?}")))?;
                    }
                    universe = Some(AaBox::new([c[0], c[1]], [c[2], c[3]]));
                }
                "bits" => {
                    let [b] = rest[..] else {
                        return Err(parse_err("usage: bits <1..=16>".into()));
                    };
                    bits = Some(
                        b.parse::<u32>()
                            .map_err(|_| parse_err(format!("bad bits {b:?}")))?,
                    );
                }
                "breaker" => {
                    let [k, ms] = rest[..] else {
                        return Err(parse_err(
                            "usage: breaker <failure threshold> <cooldown ms>".into(),
                        ));
                    };
                    let threshold = k
                        .parse::<usize>()
                        .ok()
                        .filter(|&k| k > 0)
                        .ok_or_else(|| parse_err(format!("bad breaker threshold {k:?}")))?;
                    let cooldown_ms = ms
                        .parse::<u64>()
                        .map_err(|_| parse_err(format!("bad breaker cooldown {ms:?}")))?;
                    breaker = Some(BreakerConfig {
                        threshold,
                        cooldown: Duration::from_millis(cooldown_ms),
                    });
                }
                "wal" => {
                    let (dir, ms) = match rest[..] {
                        [dir] => (dir, None),
                        [dir, ms] => (dir, Some(ms)),
                        _ => return Err(parse_err("usage: wal <dir> [group_commit_ms]".into())),
                    };
                    wal_dir = Some(dir.to_owned());
                    wal_group_commit_ms = match ms {
                        Some(ms) => {
                            Some(ms.parse::<u64>().ok().filter(|&ms| ms > 0).ok_or_else(|| {
                                parse_err(format!("bad group-commit window {ms:?}"))
                            })?)
                        }
                        None => None,
                    };
                }
                "shard" => {
                    // Two arities: the full form names the shard and
                    // lists its replica set, the bare three-token form
                    // is a single-replica shard with a generated name.
                    let (name, addr_list, lo, hi) = match rest[..] {
                        [name, addrs, lo, hi] => (name.to_owned(), addrs, lo, hi),
                        [addr, lo, hi] => (format!("shard{}", shards.len()), addr, lo, hi),
                        _ => {
                            return Err(parse_err(
                                "usage: shard <name> <addr>[,<addr>…] <zlo> <zhi> \
                                 (or: shard <addr> <zlo> <zhi>)"
                                    .into(),
                            ))
                        }
                    };
                    let addrs: Vec<String> = addr_list.split(',').map(str::to_owned).collect();
                    if addrs.iter().any(String::is_empty) {
                        return Err(parse_err(format!("bad replica list {addr_list:?}")));
                    }
                    let lo = lo
                        .parse::<u64>()
                        .map_err(|_| parse_err(format!("bad z-range lo {lo:?}")))?;
                    let hi = hi
                        .parse::<u64>()
                        .map_err(|_| parse_err(format!("bad z-range hi {hi:?}")))?;
                    shards.push(ShardSpec {
                        name,
                        addrs,
                        range: (lo, hi),
                    });
                }
                other => {
                    return Err(parse_err(format!(
                        "unknown directive {other:?} \
                         (universe | bits | breaker | wal | shard)"
                    )))
                }
            }
        }
        let spec = ClusterSpec {
            universe: universe
                .ok_or_else(|| ClusterSpecError::BadConfig("missing universe directive".into()))?,
            bits: bits
                .ok_or_else(|| ClusterSpecError::BadConfig("missing bits directive".into()))?,
            breaker: breaker.unwrap_or_default(),
            wal_dir,
            wal_group_commit_ms,
            shards,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Reads and parses a spec file.
    pub fn load(path: &Path) -> Result<Self, ClusterSpecError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| ClusterSpecError::Io(e.to_string()))?;
        Self::parse(&text)
    }

    /// Renders the spec in the text format [`ClusterSpec::parse`]
    /// reads back.
    pub fn to_text(&self) -> String {
        let lo = self.universe.lo();
        let hi = self.universe.hi();
        let mut out = String::from("# scq cluster spec\n");
        out.push_str(&format!(
            "universe {} {} {} {}\n",
            lo[0], lo[1], hi[0], hi[1]
        ));
        out.push_str(&format!("bits {}\n", self.bits));
        out.push_str(&format!(
            "breaker {} {}\n",
            self.breaker.threshold,
            self.breaker.cooldown.as_millis()
        ));
        if let Some(dir) = &self.wal_dir {
            match self.wal_group_commit_ms {
                Some(ms) => out.push_str(&format!("wal {dir} {ms}\n")),
                None => out.push_str(&format!("wal {dir}\n")),
            }
        }
        for s in &self.shards {
            out.push_str(&format!(
                "shard {} {} {} {}\n",
                s.name,
                s.addrs.join(","),
                s.range.0,
                s.range.1
            ));
        }
        out
    }

    /// Brings the cluster up: connects to every shard process (polling
    /// each address for up to `wait` — shard processes may still be
    /// booting), validates universes and wire versions, and requires
    /// every shard to be **pristine** (no collections): a warm shard's
    /// global mapping lives in a snapshot manifest, so a restarted
    /// router must restore state through
    /// [`crate::snapshot::reload_from_dir`], never by guessing.
    pub fn connect(&self, wait: Duration) -> Result<ShardedDatabase<RemoteShard>, ClusterError> {
        self.validate().map_err(ClusterError::Spec)?;
        let mut backends = Vec::with_capacity(self.shards.len());
        for (shard, spec) in self.shards.iter().enumerate() {
            let backend =
                RemoteShard::connect_replicated(&spec.addrs, self.universe, wait, self.breaker)
                    .map_err(|source| ClusterError::Shard {
                        shard,
                        addr: spec.addrs.join(","),
                        source,
                    })?;
            if !backend.is_pristine() {
                return Err(ClusterError::Shard {
                    shard,
                    addr: spec.addrs.join(","),
                    source: ShardError::Rejected(
                        "shard already holds collections; a restarted router must \
                         reload the cluster from a snapshot directory"
                            .into(),
                    ),
                });
            }
            backends.push(backend);
        }
        let router = ShardRouter::from_ranges(
            &self.universe,
            self.bits,
            self.shards.iter().map(|s| s.range).collect(),
        );
        Ok(ShardedDatabase::from_backends(
            self.universe,
            router,
            backends,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> AaBox<2> {
        AaBox::new([0.0, 0.0], [1000.0, 1000.0])
    }

    #[test]
    fn balanced_spec_round_trips_through_text() {
        let spec = ClusterSpec::balanced(
            universe(),
            6,
            &["127.0.0.1:9101".to_string(), "127.0.0.1:9102".to_string()],
        );
        spec.validate().unwrap();
        let text = spec.to_text();
        let parsed = ClusterSpec::parse(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.shards[0].range.0, 0);
        assert_eq!(
            parsed.shards[1].range.1,
            scq_zorder::key_space(6),
            "ranges tile the key space"
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text =
            "\n# a comment\nuniverse 0 0 100 100   # trailing comment\n\nbits 4\nshard a:1 0 256\n";
        let spec = ClusterSpec::parse(text).unwrap();
        assert_eq!(spec.bits, 4);
        assert_eq!(spec.shards.len(), 1);
    }

    #[test]
    fn duplicate_shard_addresses_are_a_named_error() {
        let text = "universe 0 0 100 100\nbits 6\nshard a:1 0 2048\nshard a:1 2048 4096\n";
        match ClusterSpec::parse(text) {
            Err(ClusterSpecError::DuplicateAddress { addr }) => assert_eq!(addr, "a:1"),
            other => panic!("expected DuplicateAddress, got {other:?}"),
        }
        // distinct addresses on the same host are fine
        let ok = "universe 0 0 100 100\nbits 6\nshard a:1 0 2048\nshard a:2 2048 4096\n";
        ClusterSpec::parse(ok).unwrap();
    }

    #[test]
    fn duplicate_addresses_across_replica_sets_are_rejected() {
        // a:2 is a replica of "low" AND the primary of "high" — the
        // same process would be connected twice.
        let text = "universe 0 0 100 100\nbits 6\n\
                    shard low a:1,a:2 0 2048\nshard high a:2,a:3 2048 4096\n";
        match ClusterSpec::parse(text) {
            Err(ClusterSpecError::DuplicateAddress { addr }) => assert_eq!(addr, "a:2"),
            other => panic!("expected DuplicateAddress, got {other:?}"),
        }
        // an address may not even repeat within one replica set
        let twice = "universe 0 0 100 100\nbits 6\nshard solo a:1,a:1 0 4096\n";
        assert!(matches!(
            ClusterSpec::parse(twice),
            Err(ClusterSpecError::DuplicateAddress { .. })
        ));
    }

    #[test]
    fn replicated_shard_lines_round_trip() {
        let text = "universe 0 0 100 100\nbits 6\nbreaker 5 250\n\
                    shard low a:1,a:2 0 2048\nshard high b:1,b:2,b:3 2048 4096\n";
        let spec = ClusterSpec::parse(text).unwrap();
        assert_eq!(spec.shards[0].name, "low");
        assert_eq!(spec.shards[0].primary(), "a:1");
        assert_eq!(spec.shards[1].addrs, vec!["b:1", "b:2", "b:3"]);
        assert_eq!(spec.breaker.threshold, 5);
        assert_eq!(spec.breaker.cooldown, Duration::from_millis(250));
        let reparsed = ClusterSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(reparsed, spec, "replicated spec survives the round trip");
    }

    #[test]
    fn wal_directive_round_trips() {
        let text = "universe 0 0 100 100\nbits 6\nwal /tmp/scq-wal 12\n\
                    shard low a:1,a:2 0 2048\nshard high b:1 2048 4096\n";
        let spec = ClusterSpec::parse(text).unwrap();
        assert_eq!(spec.wal_dir.as_deref(), Some("/tmp/scq-wal"));
        assert_eq!(spec.wal_group_commit_ms, Some(12));
        let reparsed = ClusterSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(reparsed, spec, "wal directive survives the round trip");

        // the window is optional; zero / junk windows are loud
        let bare = "universe 0 0 100 100\nbits 6\nwal logs\nshard a:1 0 4096\n";
        let spec = ClusterSpec::parse(bare).unwrap();
        assert_eq!(spec.wal_dir.as_deref(), Some("logs"));
        assert_eq!(spec.wal_group_commit_ms, None);
        assert_eq!(
            ClusterSpec::parse(&spec.to_text()).unwrap(),
            spec,
            "bare wal directive round-trips too"
        );
        let zero = "universe 0 0 100 100\nbits 6\nwal logs 0\nshard a:1 0 4096\n";
        assert!(ClusterSpec::parse(zero).is_err());
        let junk = "universe 0 0 100 100\nbits 6\nwal logs soon\nshard a:1 0 4096\n";
        match ClusterSpec::parse(junk) {
            Err(ClusterSpecError::Parse { line, message, .. }) => {
                assert_eq!(line, 3);
                assert!(message.contains("group-commit"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        // a spec without the directive is simply not durable
        let plain = "universe 0 0 100 100\nbits 6\nshard a:1 0 4096\n";
        let spec = ClusterSpec::parse(plain).unwrap();
        assert_eq!(spec.wal_dir, None);
        assert_eq!(spec.wal_group_commit_ms, None);
    }

    #[test]
    fn duplicate_shard_names_are_rejected() {
        let text = "universe 0 0 100 100\nbits 6\n\
                    shard same a:1 0 2048\nshard same a:2 2048 4096\n";
        match ClusterSpec::parse(text) {
            Err(ClusterSpecError::BadConfig(m)) => assert!(m.contains("same"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    /// `pool` sized a per-address connection pool that no longer
    /// exists; a spec still carrying it is refused by name rather than
    /// silently ignored.
    #[test]
    fn the_retired_pool_directive_is_an_unknown_directive() {
        let text = "universe 0 0 100 100\nbits 6\npool 4\nshard a:1 0 4096\n";
        match ClusterSpec::parse(text) {
            Err(ClusterSpecError::Parse {
                line,
                text,
                message,
            }) => {
                assert_eq!(line, 3);
                assert_eq!(text, "pool 4");
                assert!(message.contains("unknown directive \"pool\""), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_breaker_directives_are_rejected() {
        let zero = "universe 0 0 100 100\nbits 6\nbreaker 0 100\nshard a:1 0 4096\n";
        assert!(ClusterSpec::parse(zero).is_err());
        let junk = "universe 0 0 100 100\nbits 6\nbreaker 3 soon\nshard a:1 0 4096\n";
        match ClusterSpec::parse(junk) {
            Err(ClusterSpecError::Parse { line, message, .. }) => {
                assert_eq!(line, 3);
                assert!(message.contains("cooldown"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers_and_text() {
        let text = "universe 0 0 100 100\nbits 6\nshard a:1 zero 4096   # oops\n";
        match ClusterSpec::parse(text) {
            Err(ClusterSpecError::Parse {
                line,
                text,
                message,
            }) => {
                assert_eq!(line, 3);
                assert_eq!(text, "shard a:1 zero 4096", "the offending line, verbatim");
                assert!(message.contains("z-range"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        match ClusterSpec::parse("bits 6\nshard a:1 0 4096\n") {
            Err(ClusterSpecError::BadConfig(m)) => assert!(m.contains("universe"), "{m}"),
            other => panic!("{other:?}"),
        }
        match ClusterSpec::parse("universe 0 0 1 1\nbits 6\nfrobnicate\n") {
            Err(ClusterSpecError::Parse { line, text, .. }) => {
                assert_eq!(line, 3);
                assert_eq!(text, "frobnicate");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_tiling_ranges_are_rejected() {
        let text = "universe 0 0 100 100\nbits 6\nshard a:1 0 100\nshard b:2 200 4096\n";
        match ClusterSpec::parse(text) {
            Err(ClusterSpecError::BadConfig(m)) => assert!(m.contains("contiguous"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn connect_brings_up_a_live_cluster_over_sockets() {
        let a = crate::server::serve_shard(&crate::server::ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            universe_size: 1000.0,
            ..crate::server::ShardServerConfig::default()
        })
        .unwrap();
        let b = crate::server::serve_shard(&crate::server::ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            universe_size: 1000.0,
            ..crate::server::ShardServerConfig::default()
        })
        .unwrap();
        let spec =
            ClusterSpec::balanced(universe(), 6, &[a.addr().to_string(), b.addr().to_string()]);
        let mut db = spec.connect(Duration::from_secs(5)).unwrap();
        let c = db.try_collection("objs").unwrap();
        let low = db
            .try_insert(
                c,
                scq_region::Region::from_box(AaBox::new([10.0, 10.0], [20.0, 20.0])),
            )
            .unwrap();
        let high = db
            .try_insert(
                c,
                scq_region::Region::from_box(AaBox::new([900.0, 900.0], [920.0, 920.0])),
            )
            .unwrap();
        assert_ne!(db.shard_of(low), db.shard_of(high), "corners shard apart");
        db.check().expect("cluster is consistent");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn connecting_to_a_warm_shard_is_refused() {
        let a = crate::server::serve_shard(&crate::server::ShardServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            universe_size: 1000.0,
            ..crate::server::ShardServerConfig::default()
        })
        .unwrap();
        // Warm the shard through a direct backend connection.
        {
            let mut direct =
                RemoteShard::connect(&a.addr().to_string(), universe(), Duration::from_secs(5))
                    .unwrap();
            crate::backend::ShardBackend::create_collection(&mut direct, "left-behind").unwrap();
        }
        let spec = ClusterSpec::balanced(universe(), 6, &[a.addr().to_string()]);
        match spec.connect(Duration::from_secs(5)) {
            Err(ClusterError::Shard { source, .. }) => {
                assert!(source.to_string().contains("snapshot"), "{source}")
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("warm shard must be refused"),
        }
        a.shutdown();
    }
}
