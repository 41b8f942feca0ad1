//! The remote shard backend: one shard served by an ordered replica set
//! of shard processes.
//!
//! Authority: **the replica-set policy** — which replica a request goes
//! to, what a replica's failure means, and when a replica may be served
//! from again. A [`RemoteShard`] is an **ordered replica set**, the
//! first of which is the write primary. It owns no socket: each
//! address's connection, retry and breaker belong to its link
//! (`link.rs`). The policy and its [`ShardBackend`] impl live together
//! because the impl is the policy's only caller. The shard processes
//! keep the shard durable (each may log to its own WAL) and redundant;
//! they apply writes, stream snapshots and answer integrity checks.
//!
//! The router's copy of the shard — the **mirror** — is an ordinary
//! [`SpatialDatabase`]: the one decoded from the primary's snapshot,
//! then advanced by each write the primary acknowledged. Every
//! write-through is first answered by the mirror itself (the slot it
//! would hand out, whether the slot is live, the compaction remap it
//! would report); the primary must give the same answer or the write is
//! refused and the mirror is left untouched. The mirror answers every
//! read: the executors bind regions from it, and
//! [`ShardBackend::try_corner_query`] probes its indexes. No read
//! crosses the wire.
//!
//! **The read contract.**
//! * A cluster read sees exactly the writes the primary acknowledged.
//!   The mirror advances only after a primary ack that equals the
//!   mirror's own answer, and it advances inside the same `&mut self`
//!   call that sent the write. The serve tier makes that call under its
//!   database write lock, and every read holds the read lock (in the
//!   library, `&mut self` alone rules out a concurrent read), so a read
//!   never sees a half-applied write: it sees the mirror before the
//!   write or after it.
//! * Candidates and regions come from one copy. A write whose ack is
//!   lost may have reached the shard process, but it never reaches the
//!   mirror, so a read can neither be handed a slot the router never
//!   mapped nor probe one region while checking another.
//! * A read does not fail over and does not degrade to `PARTIAL`: it
//!   never leaves the router, so it is never stale and never partial.
//! * An outage shows on **writes**, as a loud [`ShardError::Wire`], and
//!   in [`ShardBackend::check`], `RESYNC` and the shard-tier `METRICS`,
//!   which all ask the processes.
//!
//! * **Connect.** `RemoteShard::connect_replicated` polls until each
//!   process is reachable, validates the wire version, and seeds the
//!   mirror from the primary's snapshot, rejecting a shard whose
//!   universe disagrees with the cluster's and a secondary whose census
//!   disagrees with the primary's (split-brain) — deployment
//!   misconfiguration surfaces at connect time, not as wrong answers.
//! * **Writes** go through the **primary only** and are never
//!   auto-retried or redirected — a dead primary is a loud named error.
//!   An acked mutation is fanned out verbatim to every other replica: a
//!   replica whose answer disagrees with the primary's is a loud
//!   desync, one the fan-out cannot reach is marked **desynced** until
//!   it is repaired.
//! * **Check** compares the primary's read-only snapshot with the
//!   mirror slot by slot (liveness, and the region as a point set), and
//!   each secondary's census with the mirror's.
//! * **Repair** has one path: ship the primary's snapshot
//!   ([`ShardBackend::resync`], or a `SNAPSHOT LOAD` of the whole
//!   cluster).

use std::time::{Duration, Instant};

use bytes::Bytes;
use scq_bbox::CornerQuery;
use scq_engine::{snapshot, CollectionId, CompactReport, IndexKind, ObjectRef, SpatialDatabase};
use scq_region::{AaBox, Region};

use crate::backend::{local_ref, ShardBackend, ShardError};
use crate::link::{is_transport, BreakerClock, BreakerConfig, Link, LinkStats};
use crate::wire::{Request, Response, WireError};

/// One member of a [`RemoteShard`]'s replica set: the link to its
/// address (with breaker), and whether it is known to have missed
/// replicated writes.
struct Replica {
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
    /// Whether the replica missed a replicated write and is left out of
    /// the write fan-out until a snapshot ship re-converges it.
    pub desynced: bool,
    /// Connection and circuit-breaker counters for the address.
    pub stats: LinkStats,
}

/// The error for any answer but the one a request expects: the shard's
/// own refusal as [`ShardError::Rejected`], any other shape as a named
/// [`WireError::Unexpected`] naming the request's verb.
fn unexpected(verb: &str, resp: Response) -> ShardError {
    match resp {
        Response::Err(m) => ShardError::Rejected(m),
        other => ShardError::Wire(WireError::Unexpected(format!("{verb} answered {other:?}"))),
    }
}

/// A shard living in other processes, reached over the wire protocol:
/// an ordered replica set whose first address is the write primary.
pub struct RemoteShard {
    replicas: Vec<Replica>,
    /// The router's copy of the primary's slots (see the module doc).
    mirror: SpatialDatabase<2>,
}

impl RemoteShard {
    /// [`RemoteShard::connect_replicated`] over a single address with
    /// the default breaker tuning.
    #[cfg(test)]
    pub(crate) fn connect(
        addr: &str,
        universe: AaBox<2>,
        wait: Duration,
    ) -> Result<Self, ShardError> {
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
    pub(crate) fn connect_replicated(
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
                match link.connect() {
                    Ok(()) => break,
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
                link,
                desynced: false,
            });
        }
        let mut shard = RemoteShard {
            replicas,
            mirror: SpatialDatabase::new(universe),
        };
        let stream = shard.snapshot_read()?;
        shard.mirror = shard.decode_stream(&stream)?;
        for i in 1..shard.replicas.len() {
            shard.verify_census(i)?;
        }
        Ok(shard)
    }

    /// The write primary's address.
    pub(crate) fn addr(&self) -> &str {
        &self.replicas[0].link.addr
    }

    /// The **primary's** connection counters (dials, discards, peak
    /// concurrency, breaker). Per-replica counters come from
    /// [`ShardBackend::health`].
    #[cfg(test)]
    pub(crate) fn link_stats(&self) -> LinkStats {
        self.replicas[0].link.stats()
    }

    /// Replaces the breaker clock on every replica's link — tests
    /// advance an injected clock instead of sleeping through
    /// cooldowns.
    pub fn set_clock(&mut self, clock: BreakerClock) {
        for replica in &mut self.replicas {
            replica.link.set_clock(clock.clone());
        }
    }

    /// Whether the shard holds no collections at all (a fresh process;
    /// the only state a cluster may be assembled over without a
    /// manifest).
    pub(crate) fn is_pristine(&self) -> bool {
        self.mirror.collections().next().is_none()
    }

    /// A lockstep violation: the shard answered something other than
    /// what the mirror answers.
    fn lockstep(&self, why: impl std::fmt::Display) -> ShardError {
        ShardError::Rejected(format!(
            "shard {} {why}: shard state is out of lockstep with the router",
            self.addr()
        ))
    }

    /// One shard process's `STAT` census: per collection, its name,
    /// slot count and live count. Reaches even a tripped address — it
    /// is a diagnostic.
    fn census(link: &Link) -> Result<Vec<(String, u64, u64)>, ShardError> {
        match link.request_unguarded(&Request::Stat, true)? {
            Response::Stat(rows) => Ok(rows),
            other => Err(unexpected("STAT", other)),
        }
    }

    /// Requires secondary `i`'s census to match the mirror. A replica
    /// that disagrees is split-brain — a pristine restart or stale
    /// process behind a configured address — and must be re-seeded
    /// from a snapshot, never served from.
    fn verify_census(&self, i: usize) -> Result<(), ShardError> {
        let replica = &self.replicas[i];
        let drift = census_drift(&self.mirror, &Self::census(&replica.link)?);
        if drift.is_empty() {
            return Ok(());
        }
        Err(ShardError::Rejected(format!(
            "replica {} disagrees with the primary's state (split-brain: {}): \
             restore every replica from one snapshot before serving",
            replica.link.addr,
            drift.join("; ")
        )))
    }

    /// An idempotent request to the primary only (diagnostics,
    /// snapshot pulls) — no other replica, no breaker gate: a stale
    /// secondary's snapshot would be silently wrong data, and an
    /// operator asking for diagnostics wants an answer even from a
    /// tripped address.
    fn primary_request(&self, req: &Request) -> Result<Response, ShardError> {
        self.replicas[0].link.request_unguarded(req, true)
    }

    /// A mutation: primary only, never auto-retried (a lost ack is
    /// indistinguishable from a lost request), then fanned out
    /// verbatim to every secondary for write-through convergence.
    /// `expected` is the mirror's own answer to the same write. A
    /// primary that answers anything else is a lockstep error and the
    /// write goes no further, so the caller leaves the mirror as it
    /// was; a primary rejection changed no state and is returned as
    /// such. A secondary whose answer differs from the primary's is a
    /// loud lockstep error; a secondary the fan-out cannot reach is
    /// marked desynced and left out of later fan-outs — the write itself
    /// still succeeds. A primary transport failure does **not** desync the
    /// secondaries: the mirror was not advanced, so they still agree
    /// with it — only the primary may have drifted ahead, which
    /// [`ShardBackend::check`] reports as mirror drift.
    fn mutate(&mut self, verb: &str, req: &Request, expected: Response) -> Result<(), ShardError> {
        match self.replicas[0].link.request(req)? {
            resp if resp == expected => {}
            Response::Err(m) => return Err(ShardError::Rejected(m)),
            other => {
                return Err(self.lockstep(format!(
                    "answered {verb} with {other:?} where the mirror answers {expected:?}"
                )))
            }
        }
        for replica in self.replicas.iter_mut().skip(1) {
            if replica.desynced {
                continue;
            }
            match replica.link.request(req) {
                Ok(ref rr) if *rr == expected => {}
                Ok(Response::Err(m)) => {
                    return Err(ShardError::Rejected(format!(
                        "replica {} rejected a mutation the primary accepted: {m}",
                        replica.link.addr
                    )));
                }
                Ok(other) => {
                    return Err(ShardError::Rejected(format!(
                        "replica {} answered {other:?} where the primary answered \
                         {expected:?}: replica state is out of lockstep",
                        replica.link.addr
                    )));
                }
                Err(e) if is_transport(&e) => replica.desynced = true,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Ships a `SNAPSHOT LOAD` to secondary `i` over the repair path
    /// (past the breaker gate: repairing must reach a tripped
    /// address). `Ok(true)`: the replica loaded it and is in sync
    /// again. `Ok(false)`: it could not be reached and is (or stays)
    /// desynced. A replica that refuses the stream is loud.
    fn ship_snapshot(&mut self, i: usize, load: &Request) -> Result<bool, ShardError> {
        let replica = &mut self.replicas[i];
        match replica.link.request_unguarded(load, false) {
            Ok(Response::Ok) => {
                replica.desynced = false;
                Ok(true)
            }
            Err(e) if is_transport(&e) => {
                replica.desynced = true;
                Ok(false)
            }
            Ok(other) => Err(ShardError::Rejected(format!(
                "replica {} refused the snapshot: {}",
                replica.link.addr,
                unexpected("SNAPSHOT LOAD", other)
            ))),
            Err(e) => Err(e),
        }
    }

    /// Decodes and validates an `SCQS` stream (exactly like a shard
    /// process would) without committing anything.
    fn decode_stream(&self, stream: &[u8]) -> Result<SpatialDatabase<2>, ShardError> {
        let db: SpatialDatabase<2> = snapshot::load(stream)
            .map_err(|e| ShardError::Rejected(format!("bad shard snapshot: {e}")))?;
        if db.universe() != self.mirror.universe() {
            return Err(ShardError::Rejected(format!(
                "shard {} universe {:?} differs from the cluster universe {:?}",
                self.addr(),
                db.universe(),
                self.mirror.universe()
            )));
        }
        Ok(db)
    }

    /// Pulls the primary's snapshot **read-only**: same bytes as
    /// [`ShardBackend::snapshot_stream`], but the shard keeps its WAL
    /// intact. Connecting, [`ShardBackend::check`] and resync use this
    /// so merely reading a shard never seals its log.
    fn snapshot_read(&self) -> Result<Vec<u8>, ShardError> {
        match self.primary_request(&Request::SnapshotRead)? {
            Response::Bytes(bytes) => Ok(bytes),
            other => Err(unexpected("SNAPSHOT READ", other)),
        }
    }
}

impl ShardBackend for RemoteShard {
    fn describe(&self) -> String {
        format!("remote:{}", self.addr())
    }

    fn database(&self) -> &SpatialDatabase<2> {
        &self.mirror
    }

    fn create_collection(&mut self, name: &str) -> Result<CollectionId, ShardError> {
        if let Some(id) = self.mirror.collection_id(name) {
            return Ok(id);
        }
        let req = Request::Create {
            name: name.to_owned(),
        };
        let next = CollectionId(self.mirror.collections().count());
        self.mutate("CREATE", &req, Response::Coll(next))?;
        Ok(self.mirror.collection(name))
    }

    fn insert(&mut self, coll: CollectionId, region: Region<2>) -> Result<usize, ShardError> {
        let req = Request::Insert {
            coll,
            region: region.clone(),
        };
        let next = self.mirror.collection_len(coll) as u64;
        self.mutate("INSERT", &req, Response::Slot(next))?;
        Ok(self.mirror.insert(coll, region).index)
    }

    fn remove(&mut self, coll: CollectionId, local: usize) -> Result<bool, ShardError> {
        let req = Request::Remove {
            coll,
            local: local as u64,
        };
        let obj = local_ref(coll, local);
        self.mutate("REMOVE", &req, Response::Flag(self.mirror.is_live(obj)))?;
        Ok(self.mirror.remove(obj))
    }

    fn update(
        &mut self,
        coll: CollectionId,
        local: usize,
        region: Region<2>,
    ) -> Result<bool, ShardError> {
        let req = Request::Update {
            coll,
            local: local as u64,
            region: region.clone(),
        };
        let obj = local_ref(coll, local);
        self.mutate("UPDATE", &req, Response::Flag(self.mirror.is_live(obj)))?;
        Ok(self.mirror.update(obj, region))
    }

    fn try_corner_query(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<2>,
        out: &mut Vec<u64>,
        _trace: &mut crate::backend::ProbeTrace,
    ) -> Result<(), ShardError> {
        // The mirror is the read authority (see the module doc).
        self.mirror.query_collection(coll, kind, q, out);
        Ok(())
    }

    fn health(&self) -> Vec<ReplicaHealth> {
        self.replicas
            .iter()
            .enumerate()
            .map(|(i, r)| ReplicaHealth {
                addr: r.link.addr.clone(),
                primary: i == 0,
                desynced: r.desynced,
                stats: r.link.stats(),
            })
            .collect()
    }

    fn metrics(&self) -> Option<scq_obs::Snapshot> {
        // Primary only: replica processes see the same replicated
        // writes, and a merged answer would blur which process the
        // latencies belong to.
        match self.primary_request(&Request::Metrics) {
            Ok(Response::Metrics(snap)) => Some(snap),
            // A dead shard answers nothing: nothing to report.
            _ => None,
        }
    }

    fn client_metrics(&self) -> Option<scq_obs::Snapshot> {
        self.replicas
            .iter()
            .map(|replica| replica.link.metrics())
            .reduce(|mut acc, snap| {
                acc.merge(&snap);
                acc
            })
    }

    fn compact(&mut self) -> Result<CompactReport, ShardError> {
        let expected = Response::from_compact(&self.mirror.compaction_report());
        self.mutate("COMPACT", &Request::Compact, expected)?;
        Ok(self.mirror.compact())
    }

    fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // The primary's own structural check…
        match self.primary_request(&Request::Check) {
            Ok(Response::Problems(ps)) => problems.extend(ps),
            Ok(other) => problems.push(format!("remote check: {}", unexpected("CHECK", other))),
            Err(e) => problems.push(format!("remote check unreachable: {e}")),
        }
        // …plus the primary's slots against the mirror's, one by one: a
        // write the primary applied but whose ack was lost shows here,
        // even one (an update) that leaves every count unchanged…
        match self
            .snapshot_read()
            .and_then(|stream| self.decode_stream(&stream))
        {
            Ok(primary) => problems.extend(slot_drift(&self.mirror, &primary)),
            Err(e) => problems.push(format!("remote snapshot: {e}")),
        }
        // …plus the census per secondary: a replica that missed
        // writes (desynced) or answers a different census is no backup
        // until re-seeded.
        for replica in self.replicas.iter().skip(1) {
            if replica.desynced {
                problems.push(format!(
                    "replica {} is desynced (missed replicated writes); \
                     repair it with RESYNC or SNAPSHOT LOAD",
                    replica.link.addr
                ));
                continue;
            }
            match Self::census(&replica.link) {
                Ok(rows) => problems.extend(
                    census_drift(&self.mirror, &rows)
                        .into_iter()
                        .map(|p| format!("replica {}: {p}", replica.link.addr)),
                ),
                Err(e) => problems.push(format!("replica {} stat: {e}", replica.link.addr)),
            }
        }
        problems
    }

    fn wal_stats(&self) -> Option<crate::wal::WalStats> {
        // Each replica process keeps its own log; the shard's counters
        // are their sum. Replicas without a WAL (or unreachable ones)
        // contribute nothing; if none keeps a log there is nothing to
        // report.
        self.replicas
            .iter()
            .filter_map(
                |r| match r.link.request_unguarded(&Request::WalStat, true) {
                    Ok(Response::WalStat(stats)) => Some(stats),
                    _ => None,
                },
            )
            .reduce(|a, b| a.merge(&b))
    }

    fn resync(&mut self) -> Result<usize, ShardError> {
        if !self.replicas.iter().any(|r| r.desynced) {
            return Ok(0);
        }
        // Pulled once, read-only (repairing a replica must not
        // truncate the primary's log), shipped to every lagging one.
        let load = Request::SnapshotLoad {
            stream: self.snapshot_read()?,
        };
        let mut resynced = 0;
        for i in 1..self.replicas.len() {
            // An unreachable replica simply stays desynced until a
            // later pass can reach it; one that loaded the stream must
            // now agree with the mirror exactly.
            if self.replicas[i].desynced && self.ship_snapshot(i, &load)? {
                self.verify_census(i)?;
                resynced += 1;
            }
        }
        Ok(resynced)
    }

    fn snapshot_stream(&self) -> Result<Bytes, ShardError> {
        // Primary only, no failover: a desynced or stale secondary's
        // snapshot would persist silently wrong data. This is the
        // explicit save path, so the primary also truncates its WAL —
        // the stream becomes the shard's recovery base.
        match self.primary_request(&Request::SnapshotSave)? {
            Response::Bytes(bytes) => Ok(bytes.into()),
            other => Err(unexpected("SNAPSHOT SAVE", other)),
        }
    }

    fn load_snapshot(&mut self, stream: &[u8]) -> Result<(), ShardError> {
        // Validate locally first (a stream the mirror cannot decode
        // must not reach any shard process at all), then ship it to
        // the primary, and only replace the mirror once the primary
        // has accepted — a shard-side failure must leave mirror and
        // shard agreeing on the OLD data, not silently describing
        // different worlds.
        let decoded = self.decode_stream(stream)?;
        let load = Request::SnapshotLoad {
            stream: stream.to_vec(),
        };
        match self.replicas[0].link.request_unguarded(&load, false)? {
            Response::Ok => {}
            other => return Err(unexpected("SNAPSHOT LOAD", other)),
        }
        self.mirror = decoded;
        // Then every secondary, desynced or not: this is a repair path
        // too, so a replica that loads the stream is in sync again.
        for i in 1..self.replicas.len() {
            self.ship_snapshot(i, &load)?;
        }
        Ok(())
    }
}

/// One line per disagreement between a shard process's `STAT` census
/// (per collection: name, slots, live) and the mirror's; empty when
/// they agree.
fn census_drift(mirror: &SpatialDatabase<2>, rows: &[(String, u64, u64)]) -> Vec<String> {
    let held = mirror.collections().count();
    if rows.len() != held {
        return vec![format!(
            "shard reports {} collections, mirror holds {held}",
            rows.len()
        )];
    }
    rows.iter()
        .zip(mirror.collections())
        .filter_map(|((name, slots, live), coll)| {
            let ours = mirror.collection_name(coll);
            let (our_slots, our_live) = (mirror.collection_len(coll), mirror.live_len(coll));
            if name == ours && *slots as usize == our_slots && *live as usize == our_live {
                return None;
            }
            Some(format!(
                "mirror drift on {ours:?}: shard has {slots} slots / {live} live, \
                 mirror has {our_slots} / {our_live}"
            ))
        })
        .collect()
}

/// One line per disagreement between `shard` (the primary's decoded
/// snapshot) and the mirror: first the census, then — when the census
/// agrees — every slot's liveness and region, regions compared as
/// point sets. Empty when they agree.
fn slot_drift(mirror: &SpatialDatabase<2>, shard: &SpatialDatabase<2>) -> Vec<String> {
    let census: Vec<(String, u64, u64)> = shard
        .collections()
        .map(|c| {
            let name = shard.collection_name(c).to_owned();
            (
                name,
                shard.collection_len(c) as u64,
                shard.live_len(c) as u64,
            )
        })
        .collect();
    let drift = census_drift(mirror, &census);
    if !drift.is_empty() {
        return drift;
    }
    let slots = mirror.collections().flat_map(|collection| {
        mirror
            .object_indices(collection)
            .map(move |index| ObjectRef { collection, index })
    });
    slots
        .filter_map(|obj| {
            let what = if mirror.is_live(obj) != shard.is_live(obj) {
                "liveness"
            } else if !mirror.region(obj).same_set(shard.region(obj)) {
                "region"
            } else {
                return None;
            };
            Some(format!(
                "mirror drift on {:?} slot {}: the shard's {what} differs from the mirror's",
                mirror.collection_name(obj.collection),
                obj.index
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::backend::ProbeTrace;
    use crate::link::BreakerState;
    use crate::server::{serve_shard, ShardServerConfig};
    use crate::wire::{encode_response, frame, read_frame};
    use scq_bbox::Bbox;

    fn universe() -> AaBox<2> {
        AaBox::new([0.0, 0.0], [100.0, 100.0])
    }

    fn start() -> (crate::server::ShardServerHandle, RemoteShard) {
        let server = start_one();
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
        let (r, l) = (remote.database(), local.database());
        assert_eq!(r.collection_len(c_r), l.collection_len(c_l));
        assert_eq!(r.live_len(c_r), l.live_len(c_l));
        for slot in 0..r.collection_len(c_r) {
            let obj = local_ref(c_r, slot);
            assert_eq!(r.is_live(obj), l.is_live(obj));
            assert!(r.region(obj).same_set(l.region(obj)));
            assert_eq!(r.bbox(obj), l.bbox(obj));
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
        assert_eq!(
            remote.database().collection_len(c_r),
            local.database().collection_len(c_l)
        );
        assert!(remote.check().is_empty(), "{:?}", remote.check());
        // snapshot stream round trip into a fresh local backend
        let stream = remote.snapshot_stream().unwrap();
        let mut fresh = crate::LocalShard::new(universe());
        fresh.load_snapshot(&stream).unwrap();
        assert_eq!(
            fresh.database().collection_len(c_r),
            remote.database().collection_len(c_r)
        );
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
        // request transparently re-dials, and the read never needed
        // the connection at all.
        remote.replicas[0].link.break_idle();
        assert!(remote.metrics().is_some(), "the re-dialed shard answers");
        assert_eq!(query_all(&remote, c, &mut ProbeTrace::default()), vec![0]);
        assert_eq!(remote.link_stats().created, 2, "{:?}", remote.link_stats());
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
            let ids = query_all(&remote, c, &mut ProbeTrace::default());
            assert_eq!(ids.len(), i + 1);
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
        // Kill the server: the next exchange fails, the broken
        // connection must NOT be reused.
        server.shutdown();
        assert!(remote.metrics().is_none(), "a dead shard answers nothing");
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

    /// Reads never leave the router: a dead primary changes no answer
    /// and costs no failover. It shows on writes instead, which fail
    /// loudly and, after K of them, trip the primary's breaker.
    #[test]
    fn reads_answer_from_the_mirror_when_the_primary_dies() {
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
        let mut trace = ProbeTrace::default();
        assert_eq!(query_all(&remote, c, &mut trace), vec![0, 1, 2, 3, 4]);
        assert_eq!(
            trace,
            ProbeTrace::default(),
            "a mirror read has nothing to account"
        );

        a.shutdown();
        let mut trace = ProbeTrace::default();
        assert_eq!(query_all(&remote, c, &mut trace), vec![0, 1, 2, 3, 4]);
        assert_eq!((trace.failovers, trace.stale), (0, false), "{trace:?}");

        // A dead primary fails writes loudly — never a silent redirect
        // to the secondary — and the failed write reaches no copy.
        for _ in 0..3 {
            let err = remote.insert(c, boxed(1.0, 1.0, 1.0, 1.0)).err().unwrap();
            assert!(matches!(err, ShardError::Wire(_)), "{err}");
        }
        assert_eq!(
            query_all(&remote, c, &mut ProbeTrace::default()),
            vec![0, 1, 2, 3, 4],
            "the failed writes must not have reached the mirror"
        );

        // Three consecutive write failures: the primary's breaker is
        // open, so the next write fails fast without dialing, and
        // reads still answer.
        let health = remote.health();
        assert_eq!(health.len(), 2);
        assert!(health[0].primary && !health[1].primary);
        assert_eq!(health[0].stats.breaker, BreakerState::Open, "{health:?}");
        assert_eq!(health[0].stats.breaker_trips, 1, "{health:?}");
        assert_eq!(health[1].stats.breaker, BreakerState::Closed, "{health:?}");
        assert!(
            !health[1].desynced,
            "no write reached the fan-out: {health:?}"
        );
        let err = remote.insert(c, boxed(1.0, 1.0, 1.0, 1.0)).err().unwrap();
        assert!(err.to_string().contains("circuit breaker open"), "{err}");
        assert_eq!(remote.link_stats().consecutive_failures, 3);
        assert_eq!(query_all(&remote, c, &mut ProbeTrace::default()).len(), 5);
        b.shutdown();
    }

    #[test]
    fn dead_secondary_desyncs_quietly_and_writes_keep_working() {
        let (a, b, mut remote) = start_replicated(BreakerConfig::default());
        let c = remote.create_collection("objs").unwrap();
        remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0)).unwrap();
        b.shutdown();
        // The fan-out cannot reach the secondary: the write succeeds,
        // the replica is marked desynced, and reads answer every
        // acknowledged write.
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
        assert_eq!(query_all(&remote, c, &mut ProbeTrace::default()), vec![0]);
        let snap = remote.metrics().expect("a live shard answers metrics");
        let count = |name: &str| snap.histogram(name).map_or(0, |h| h.count());
        assert!(
            count("shard.insert.latency") >= 1,
            "the insert was observed"
        );
        assert_eq!(
            count("shard.query.latency"),
            0,
            "the read never reached the shard"
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

    /// An idempotent diagnostic to a dead primary reconnects once and
    /// leaves a `retry` event in the trace. Reads leave no event at all:
    /// there is no read failover to record.
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
        assert_eq!(trace.failovers, 0, "{trace:?}");
        assert!(
            t.spans().is_empty(),
            "a mirror read leaves no event: {:?}",
            t.spans()
        );
        assert!(
            remote.metrics().is_none(),
            "the dead primary answers nothing"
        );
        let spans = t.spans();
        assert!(
            spans
                .iter()
                .any(|s| s.name == "retry" && s.detail.contains(&primary_addr)),
            "the reconnect attempt left a retry event naming the primary: {spans:?}"
        );
        assert!(!spans.iter().any(|s| s.name == "failover"), "{spans:?}");
        b.shutdown();
    }

    /// A listener that answers every connection's first frame with
    /// `answer` as a plain frame, then hangs up — the handshake side
    /// of a peer from another wire generation.
    fn handshake_answering(answer: Response) -> std::net::SocketAddr {
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

        // Every probe of the dead address is a write: reads never
        // reach it.
        let probe = |remote: &mut RemoteShard| remote.insert(c, boxed(1.0, 1.0, 2.0, 2.0));
        // K-1 failures: breaker still closed, every probe really dials.
        for i in 0..2 {
            assert!(probe(&mut remote).is_err());
            let stats = remote.link_stats();
            assert_eq!(stats.breaker, BreakerState::Closed, "probe {i}: {stats:?}");
            assert_eq!(stats.breaker_trips, 0, "probe {i}: {stats:?}");
            assert_eq!(stats.consecutive_failures, i + 1, "probe {i}: {stats:?}");
        }
        // The K-th failure trips it…
        assert!(probe(&mut remote).is_err());
        let stats = remote.link_stats();
        assert_eq!(stats.breaker, BreakerState::Open, "{stats:?}");
        assert_eq!(stats.breaker_trips, 1, "{stats:?}");
        // …and while open, requests fast-fail with the named error
        // without dialing or counting further failures.
        let err = probe(&mut remote).err().unwrap();
        assert!(err.to_string().contains("circuit breaker open"), "{err}");
        let stats = remote.link_stats();
        assert_eq!(stats.consecutive_failures, 3, "{stats:?}");
        assert_eq!(stats.breaker_trips, 1, "{stats:?}");
        // Advancing the injected clock past the cooldown lets one
        // half-open probe through; the address is still dead, so the
        // probe re-trips the breaker immediately.
        *now.lock().unwrap() += Duration::from_secs(3601);
        let err = probe(&mut remote).err().unwrap();
        assert!(!err.to_string().contains("circuit breaker open"), "{err}");
        let stats = remote.link_stats();
        assert_eq!(stats.breaker, BreakerState::Open, "{stats:?}");
        assert_eq!(stats.breaker_trips, 2, "{stats:?}");
    }
}
