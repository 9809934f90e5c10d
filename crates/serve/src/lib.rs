//! # diversity-serve
//!
//! The **warm-path serving layer**: a long-lived pool of fully dynamic
//! shard engines that absorbs inserts/deletes continuously and answers
//! `Task`-shaped queries from the maintained state — the layer the
//! ROADMAP places below `Task::run_sharded`'s cold path.
//!
//! The pieces:
//!
//! * [`ShardPool`] — `N` [`diversity_dynamic::DynamicDiversity`]
//!   engines behind per-shard `RwLock`s. Updates take one shard's
//!   write lock; queries take read locks shard-by-shard, extract the
//!   maintained core-sets, compose them with
//!   [`Coreset::merge`](diversity_core::coreset::Coreset::merge), and
//!   finish with the same 2-round combiner every sharded run uses.
//!   Answers are the standard [`diversity::Report`] with the composed
//!   radius certificate.
//! * [`Router`] — where updates land ([`RoundRobin`], [`HashRouter`],
//!   [`FnRouter`]); placement never affects soundness.
//! * [`rebalance`] — live shard rebalancing on router skew:
//!   [`ShardPool::maybe_rebalance`] quiesces the pool when
//!   [`ShardPool::skew`] crosses a [`RebalanceConfig`] threshold
//!   (`DIVMAX_REBALANCE`), re-partitions the consistent cut
//!   ([`rebalance_state`] — sound for *arbitrary* partitions by the
//!   paper's Definition 2), and swaps the rebuilt shard set in
//!   atomically; pre-rebalance [`ShardedId`]s keep resolving through
//!   a [`RemapEntry`] table.
//! * [`PoolState`] / [`ShardPool::checkpoint_consistent`] /
//!   [`ShardPool::restore`] — serde snapshots of the whole pool
//!   (engine cover hierarchies included, via
//!   [`diversity_dynamic::EngineState`]); restored pools answer
//!   bit-identically.
//! * [`Serve`] — the extension trait that puts
//!   [`serve`](Serve::serve) on `diversity::Task`: the caller's opt-in
//!   to a persistent handle behind `Strategy::ShardedDynamic`.
//! * [`churn`] — the reusable churn-stress driver the `serve_churn`
//!   test (and any downstream soak test) is built on, plus its chaos
//!   variant [`chaos_round`] for runs under an installed fault plan.
//!
//! ## Fault tolerance
//!
//! Each shard carries a [`ShardHealth`] state machine. A panicking
//! mutation is caught under the shard's write lock (`catch_unwind`),
//! the shard is **quarantined**, and recovery rebuilds its engine from
//! the last checkpoint plus the log of acknowledged operations — so no
//! acknowledged write is ever lost and a recovered shard answers
//! bit-identically to one that never failed. While shards are
//! quarantined (or miss a [`ShardPool::query_within`] deadline),
//! queries **degrade** instead of failing: the surviving shards'
//! core-sets merge (dropping a shard from
//! [`Coreset::merge`](diversity_core::coreset::Coreset::merge) is
//! sound — the union of the survivors' artifacts is a valid core-set
//! of exactly the survivors' points) and the [`diversity::Report`]
//! carries a [`diversity::Degradation`] block scoping the certificate.
//! Deterministic fault injection lives in `diversity-faults`
//! (`DIVMAX_FAULTS`); the pool's injection points are named in
//! [`ShardPool`]'s docs.
//!
//! ## Cold vs warm
//!
//! ```text
//! cold  Task::run_sharded(parts)   build N engines → extract → merge → solve   (per query!)
//! warm  Task::serve(..) → pool     [engines live across queries]
//!         pool.insert/delete       touch one shard's write lock, O(structure) work
//!         pool.query(&task)        extract under read locks → merge → solve
//! ```
//!
//! The `ablation_serve` bench records the gap; the per-query engine
//! builds dominate the cold path, so the warm path's advantage grows
//! with the data while its own cost tracks only the core-set size.
//!
//! ## Quick start
//!
//! ```
//! use diversity::prelude::*;
//! use diversity_serve::Serve;
//!
//! let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
//! let pool = task.serve(Euclidean, 4)?;
//!
//! // Traffic: routed inserts, deletes by handle.
//! let ids = pool.extend((0..40).map(|i| VecPoint::from([i as f64 * 2.0, 0.0])))?;
//! pool.delete(ids[0])?;
//!
//! // Warm-path answer with the composed certificate.
//! let report = pool.query(&task)?;
//! assert_eq!(report.len(), 3);
//! assert!(report.coreset_radius.is_some());
//! assert!(report.degradation.is_none()); // every shard answered
//!
//! // Snapshot and restore: bit-identical answers.
//! let restored = diversity_serve::ShardPool::restore(Euclidean, pool.checkpoint_consistent()?)?;
//! assert_eq!(restored.query(&task)?.value, report.value);
//! # Ok::<(), diversity::DivError>(())
//! ```

pub mod churn;
pub mod pool;
pub mod rebalance;
pub mod router;
pub mod task_ext;
pub mod wire;

pub use churn::{
    assert_degradation_consistent, chaos_round, churn_round, env_ops, value_loss, ChaosOutcome,
    ChurnConfig, ChurnOutcome,
};
pub use pool::{PoolState, ShardHealth, ShardPool, ShardedId};
pub use rebalance::{
    rebalance_state, RebalanceConfig, RebalanceReport, RebalanceStats, RemapEntry,
};
pub use router::{occupancy_skew, FnRouter, HashRouter, RoundRobin, Router, RouterState};
pub use task_ext::Serve;
