#![warn(missing_docs)]

//! Sharded spatial database: the scale-out layer over
//! [`scq_engine`]'s single-store engine.
//!
//! A [`ShardedDatabase`] partitions every collection across `N` shards
//! by **z-order range**: each object routes to the shard owning the
//! Morton code of its bounding-box center ([`router::ShardRouter`],
//! [`scq_zorder::shard_ranges`]). Each shard is a complete
//! [`scq_engine::SpatialDatabase`] — its own R-tree, grid file and scan
//! index, its own snapshot stream, its own integrity check — and the
//! sharding layer above owns only routing and the global↔local slot
//! mapping. That separation is the architectural seam for multi-process
//! deployment: a shard never knows about its siblings.
//!
//! Three properties make the layer transparent to the query engine:
//!
//! * **One executor code path.** [`ShardedDatabase`] implements
//!   [`scq_engine::StoreView`], so the engine's executors run against
//!   it unchanged — `scq-serve` answers every `SOLVE` with
//!   [`scq_engine::bbox_execute_compiled`] over it; corner queries fan out
//!   per level to only the shards the router cannot prune (counted in
//!   [`scq_engine::ExecStats::shards_pruned`]).
//! * **Stable global refs.** Objects are addressed by global
//!   [`scq_engine::ObjectRef`]s with the same stability contract as the
//!   unsharded store — even across [`ShardedDatabase::update`]
//!   migrations that move an object between shards.
//! * **Answer equivalence.** A sharded database answers every corner
//!   query and every constraint query identically to an unsharded
//!   database built from the same mutation sequence (property-tested
//!   against one model store in `tests/differential.rs` and
//!   `tests/shard_props.rs` at the workspace root).
//!
//! [`snapshot`] streams each shard independently under a
//! cross-validated manifest.
//!
//! Since PR 4 the *location* of a shard is abstract: the routing layer
//! drives [`ShardBackend`]s, and the store is generic over them.
//! [`LocalShard`] keeps everything in-process (the default, zero
//! regression); [`RemoteShard`] speaks the length-prefixed shard
//! [`wire`] protocol to a shard **process** ([`server`],
//! `scq-serve --shard`), and a [`ClusterSpec`] names the processes and
//! their z-ranges so `scq-serve --cluster` can front N of them as one
//! database — same global refs, same migration-on-update, same
//! snapshot manifest, property-tested identical to the in-process
//! store (`tests/cluster_props.rs`).
//!
//! The client side of a remote shard is two modules, one authority
//! each: `link.rs` owns one **multiplexed connection** per shard
//! address (so concurrent requests reach one shard in parallel),
//! retry-once and the circuit breaker; and [`remote`] owns the
//! replica-set policy — primary-only writes checked against the
//! router's write-through copy of the shard (an ordinary
//! [`scq_engine::SpatialDatabase`], the mirror), and one way to repair
//! a lagging replica: ship it the primary's snapshot.
//!
//! Reads **never leave the router**: the mirror answers every corner
//! query and binds every region, so a shard process dying costs a read
//! nothing (the read contract is in [`remote`]). Mutations fail loudly
//! and are never auto-retried.
//! Every failure path is reproducible in `cargo test` through the
//! deterministic fault-injection proxy of the dev-only `scq-testkit`
//! crate (`scq_testkit::FaultProxy`); no shipped crate depends on it.

pub mod backend;
pub mod cluster;
pub mod database;
mod link;
pub mod reactor;
pub mod remote;
pub mod router;
pub mod server;
pub mod snapshot;
pub mod wal;
pub mod wire;

// The test kit's fault proxy against this crate's server and client,
// in a module named `fault` so the tests run as `fault::tests::*`.
#[cfg(test)]
#[path = "fault_tests.rs"]
mod fault;

pub use backend::{LocalShard, ProbeTrace, ShardBackend, ShardError};
pub use cluster::{ClusterSpec, ShardSpec};
pub use database::{ShardedDatabase, DEFAULT_ROUTER_BITS};
pub use link::{BreakerConfig, BreakerState, LinkStats};
pub use remote::RemoteShard;
pub use server::{serve_shard, ShardServerConfig, ShardServerHandle};
pub use snapshot::{load_from_dir, reload_from_dir, save_to_dir, ShardSnapshotError};
pub use wal::{Wal, WalConfig};
