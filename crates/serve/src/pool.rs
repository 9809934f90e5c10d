//! The long-lived shard-engine pool — the warm path behind
//! `Strategy::ShardedDynamic` — with per-shard fault isolation:
//! panic quarantine, checkpoint+log recovery, and certified degraded
//! answers when shards drop out.

use crate::rebalance::{
    rebalance_state, RebalanceConfig, RebalanceReport, RebalanceStats, RemapEntry,
};
use crate::router::{RoundRobin, Router, RouterState};
use diversity::{Backend, Degradation, DivError, Report, StageMemory, StageTiming, Task};
use diversity_core::coreset::Coreset;
use diversity_core::Problem;
use diversity_dynamic::{DynamicConfig, DynamicDiversity, EngineState, PointId, UpdateStats};
use diversity_faults as faults;
use diversity_mapreduce::two_round::solve_union;
use diversity_mapreduce::MapReduceRuntime;
use metric::Metric;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-wide pool id source: every pool gets a distinct telemetry
/// namespace (`serve.pool{id}.shard{i}.occupancy`), so concurrently
/// live pools — parallel tests, blue/green serving — never write each
/// other's gauges.
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

/// Precomputed per-shard gauge names for one pool: publishing a gauge
/// on the insert/delete path must not allocate.
fn occupancy_gauge_names(pool_id: usize, shards: usize) -> Vec<String> {
    (0..shards)
        .map(|i| format!("serve.pool{pool_id}.shard{i}.occupancy"))
        .collect()
}

/// Bits of a [`ShardedId`] encoding reserved for the per-shard
/// [`PointId`]; the remaining high bits carry the shard index.
const RAW_BITS: u32 = 48;

/// A pool-wide point handle: the shard a point lives in plus its
/// engine-local [`PointId`]. Encodes into a single `u64` (shard in the
/// high 16 bits, engine id in the low 48) — the provenance the pool's
/// extracted [`Coreset`]s and [`Report`] indices carry, so a selected
/// point can always be traced back to its shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardedId {
    /// Index of the owning shard.
    pub shard: usize,
    /// The engine-local handle within that shard.
    pub id: PointId,
}

impl ShardedId {
    /// Packs the handle into one `u64`: `shard << 48 | raw`.
    ///
    /// # Panics
    /// Panics past 2^16 shards or 2^48 updates on one shard — both far
    /// beyond anything a single pool holds. Paths that handle
    /// wire-received or remapped ids use the checked
    /// [`try_encode`](Self::try_encode) instead: the old
    /// unchecked shift silently *corrupted* out-of-range handles
    /// (`shard << 48 | raw` with `raw >= 2^48` bleeds into the shard
    /// bits), which mattered the moment rebalancing started remapping
    /// ids across shards.
    pub fn encode(self) -> u64 {
        let raw = self.id.raw();
        assert!(raw < 1 << RAW_BITS, "engine id overflows the encoding");
        assert!(self.shard < 1 << 16, "shard index overflows the encoding");
        ((self.shard as u64) << RAW_BITS) | raw
    }

    /// Checked [`encode`](Self::encode): [`DivError::InvalidShards`]
    /// instead of a panic when `raw >= 2^48` or `shard >= 2^16` — the
    /// boundary past which the packed form can no longer represent the
    /// handle losslessly.
    pub fn try_encode(self) -> Result<u64, DivError> {
        let raw = self.id.raw();
        if raw >= 1 << RAW_BITS || self.shard >= 1 << 16 {
            return Err(DivError::InvalidShards);
        }
        Ok(((self.shard as u64) << RAW_BITS) | raw)
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(encoded: u64) -> Self {
        Self {
            shard: (encoded >> RAW_BITS) as usize,
            id: PointId::from_raw(encoded & ((1 << RAW_BITS) - 1)),
        }
    }
}

impl std::fmt::Display for ShardedId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.id, self.shard)
    }
}

/// A serde-able snapshot of an entire pool: one [`EngineState`] per
/// shard plus the router's opaque state. Produced by
/// [`ShardPool::checkpoint_consistent`], consumed by
/// [`ShardPool::restore`]; queries on the restored pool are
/// bit-identical to the live one (each shard's engine state
/// round-trips losslessly, and the combiner is deterministic).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PoolState<P> {
    /// Per-shard engine checkpoints, in shard order.
    pub shards: Vec<EngineState<P>>,
    /// The router's checkpointed state ([`Router::checkpoint`]) —
    /// always present, always tagged with the router kind, and stamped
    /// with the shard count it was routing over, so a restore can tell
    /// whether the pool was checkpointed under the same placement
    /// discipline *and* the same shard layout.
    pub router: RouterState,
    /// The rebalance remap table ([`RemapEntry`]), sorted by `from`:
    /// every pre-rebalance encoded [`ShardedId`] still resolvable to a
    /// live point, however many rebalances ago it was issued. Empty
    /// for a never-rebalanced pool.
    pub remap: Vec<RemapEntry>,
}

impl<P> PoolState<P> {
    /// Total alive points across the checkpointed shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(EngineState::len).sum()
    }

    /// `true` when no shard held a point.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(EngineState::is_empty)
    }
}

/// The health state machine of one shard.
///
/// ```text
///            panic caught in a mutation
///  Healthy ────────────────────────────► Quarantined
///     ▲                                      │
///     │            rebuild succeeded         │ recovery begins (under
///     └──────────── Recovering ◄─────────────┘ the shard write lock)
/// ```
///
/// * **Healthy** — serves queries, accepts updates.
/// * **Quarantined** — excluded from every query merge (answers become
///   *degraded*, see [`Degradation`]) and from
///   [`len`](ShardPool::len)/[`alive`](ShardPool::alive); updates
///   routed here trigger an in-line recovery attempt first.
/// * **Recovering** — transient: the shard's engine is being rebuilt
///   from its last checkpoint plus the acknowledged-operation log,
///   under the shard's write lock. Ends in `Healthy` (rebuild
///   succeeded) or back in `Quarantined` (transient faults exhausted
///   the backoff budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardHealth {
    /// Serving and accepting updates.
    Healthy = 0,
    /// Excluded from queries; awaiting recovery.
    Quarantined = 1,
    /// Being rebuilt from checkpoint + log (held briefly, under the
    /// shard's write lock).
    Recovering = 2,
}

impl ShardHealth {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => ShardHealth::Healthy,
            1 => ShardHealth::Quarantined,
            _ => ShardHealth::Recovering,
        }
    }
}

/// One acknowledged mutation, replayed during recovery. The engine
/// assigns [`PointId`]s from a deterministic counter, so replaying the
/// log in acknowledgement order reproduces the exact pre-failure
/// state, ids included.
enum Op<P> {
    Insert(P),
    Delete(PointId),
}

/// A shard's recovery material: the last checkpointed engine state
/// plus every mutation acknowledged since. `base + log` always equals
/// the acknowledged state of the shard, so recovery never loses an
/// acknowledged write. [`ShardPool::checkpoint_consistent`] folds the
/// log into a fresh `base` (truncating it), bounding replay time and
/// log memory between checkpoints.
struct RecoveryState<P> {
    base: EngineState<P>,
    log: Vec<Op<P>>,
}

/// One shard slot: the engine, its health, its recovery material, and
/// its last-acknowledged occupancy (readable without any lock — what a
/// degraded answer's coverage fraction uses for skipped shards).
struct Shard<P, M> {
    engine: RwLock<DynamicDiversity<P, M>>,
    health: AtomicU8,
    recovery: Mutex<RecoveryState<P>>,
    occupancy: AtomicUsize,
}

impl<P, M> Shard<P, M> {
    fn health(&self) -> ShardHealth {
        ShardHealth::from_u8(self.health.load(Ordering::Acquire))
    }

    fn set_health(&self, h: ShardHealth) {
        self.health.store(h as u8, Ordering::Release);
    }
}

/// What one per-shard extraction pass produced (see
/// `ShardPool::extract_shards`).
struct Extraction<P> {
    /// Shard count of the snapshot this extraction ran over (constant
    /// across rebalances, but read from the same snapshot as the
    /// artifacts so one query never mixes generations).
    shards_total: usize,
    /// Artifacts of the shards that answered, in shard order.
    artifacts: Vec<Coreset<P>>,
    /// Shards that dropped out: quarantined, past the deadline, lock
    /// not acquired within the deadline, or a panic caught during
    /// extraction.
    skipped: Vec<usize>,
    /// Alive points seen across the answering shards.
    total: usize,
    /// Largest single answering shard.
    max_shard: usize,
    /// Time spent waiting on shard read locks.
    lock_wait_secs: f64,
    /// Last-acknowledged occupancy summed over the skipped shards.
    skipped_occupancy: usize,
}

/// A long-lived pool of `N` fully dynamic shard engines behind
/// per-shard `RwLock`s: inserts and deletes route to one shard and
/// take that shard's **write** lock only; queries take each shard's
/// **read** lock just long enough to extract the maintained core-set,
/// so concurrent readers never serialize behind each other and writers
/// block only the shard they touch. This is the **warm path** the
/// cold `Task::run_sharded` amortizes into: engine builds happen once
/// (and incrementally, as traffic arrives), queries are
/// extraction-only.
///
/// ## Why serving merged core-sets from drifting shards is sound
///
/// A query composes per-shard extractions through [`Coreset::merge`]
/// and solves the union with the same 2-round combiner
/// (`solve_union`) that `Strategy::ShardedDynamic` uses. Soundness
/// follows from the paper's own composition theory:
///
/// * each shard's extraction certifies that every point **currently
///   alive in that shard** is within `r_i` of its artifact — the cover
///   level's telescoped covering radius (`Σ_{j≤i} 2^j < 2^(i+1)`),
///   i.e. the same triangle-inequality argument that underlies the
///   streaming Lemmas 3–4;
/// * the union of the artifacts then covers the union of the shards'
///   alive sets within `max_i r_i` — Definition 2's composition law
///   ([`Coreset::merge`]), stated for *arbitrary* partitions of the
///   data, so it holds no matter how inserts were routed or how
///   deletions have since reshaped each shard;
/// * the combiner solves the union **directly** (no re-extraction), so
///   no second radius term accrues ([`Coreset::deepen`] is never
///   invoked), and the reported `coreset_radius = max_i r_i` bounds
///   the solve's value loss through the proxy-function Lemmas 1–2.
///
/// Shards therefore drift independently under churn — grow, shrink,
/// even empty out (an empty shard contributes [`Coreset::empty`], the
/// merge identity) — and every individual answer still carries an
/// honest certificate for exactly the points alive at extraction time.
/// What the pool does **not** promise is a cross-shard atomic
/// snapshot: read locks are taken shard by shard, so a query
/// concurrent with writes may see shard `A` before an insert and shard
/// `B` after one. Each per-shard extraction is still internally
/// consistent, and the composed certificate covers precisely the union
/// of what was seen — the usual contract of a serving system that
/// answers while absorbing traffic. Quiescent queries (no concurrent
/// writers) are deterministic and equal to `Task::run_sharded` on the
/// same shard contents.
///
/// ## Fault tolerance
///
/// The same composition law makes *partial* answers principled: a
/// shard that cannot answer simply drops out of the merge, and the
/// union of the surviving artifacts is still a valid core-set of
/// exactly the union of the surviving shards' alive points. The pool
/// exploits this end to end:
///
/// * **Panic isolation.** Every engine mutation runs under
///   `catch_unwind` (with the
///   [`faults::sites::SHARD_MUTATE`] injection point inside the
///   guarded scope). A panicking insert/delete can never leave a
///   half-mutated shard visible: the shard is quarantined while the
///   write lock is still held, and an in-line recovery is attempted
///   immediately.
/// * **Quarantine & recovery.** Each shard carries a
///   [`ShardHealth`] state. Recovery rebuilds the engine from the
///   shard's last checkpoint plus the log of every mutation
///   acknowledged since — so acknowledged writes are never lost and a
///   recovered shard is **bit-identical** to one that never failed.
///   Transient faults during recovery ([`faults::sites::RECOVERY`])
///   back off exponentially for up to
///   [`RECOVERY_ATTEMPTS`](Self::RECOVERY_ATTEMPTS) tries; exhaustion
///   leaves the shard `Quarantined` and the update returns
///   [`DivError::ShardUnavailable`] while the rest of the pool keeps
///   serving.
/// * **Degraded answers.** [`query`](Self::query) merges whatever
///   shards can answer. When any shard drops out (quarantine, a
///   deadline miss in [`query_within`](Self::query_within), or a panic
///   caught during extraction) the [`Report`] carries
///   [`Degradation`] — shards answered/total, the skipped indices, and
///   the covered fraction of the pool's last-known population — and
///   its `coreset_radius` certificate is scoped to exactly the
///   surviving points. Only when *no* shard answers does the query
///   fail, with [`DivError::PoolUnavailable`].
/// * **Deadline budgets.** [`query_within`](Self::query_within) bounds
///   a query's wall time: shards whose read lock cannot be acquired in
///   time (e.g. a straggling writer holding it —
///   [`faults::sites::LOCK_HOLD`]) or whose turn comes after the
///   deadline are skipped, degrading the answer instead of stalling
///   it.
/// * **Transient retries.** Query admission retries injected/ambient
///   transient failures ([`faults::sites::QUERY`]) with bounded
///   backoff before giving up with [`DivError::TransientFailure`].
///
/// Construction: [`ShardPool::new`]/[`with_config`](Self::with_config)
/// for an empty pool, `Task::serve` (the `Serve` extension trait) to
/// opt into a persistent handle from the front door, or
/// [`restore`](Self::restore) to resume a
/// [`checkpoint_consistent`](Self::checkpoint_consistent).
pub struct ShardPool<P, M> {
    /// The live shard set, swapped **atomically** by
    /// [`rebalance`](Self::rebalance): readers clone the `Arc` under a
    /// brief outer read lock (never holding it across shard-lock
    /// acquisition), so in-flight queries on a superseded set finish
    /// undisturbed while new routes see the replacement.
    shards: RwLock<Arc<Vec<Shard<P, M>>>>,
    metric: M,
    config: DynamicConfig,
    router: Box<dyn Router<P>>,
    runtime: MapReduceRuntime,
    /// This pool's telemetry namespace (`serve.pool{id}.…`).
    pool_id: usize,
    /// Precomputed occupancy gauge names, one per shard (shard count
    /// is invariant across rebalances, so the names survive swaps).
    gauge_names: Vec<String>,
    /// Mutation epoch: bumped (under the touched shard's write lock)
    /// on every acknowledged mutation, every shard health transition,
    /// and every committed rebalance — anything that could change a
    /// query's answer *or its id space*. Two reads of
    /// [`epoch`](Self::epoch) bracketing equal values witness a
    /// quiescent pool, which is what the network layer's query
    /// coalescing keys on; the rebalance bump is what guarantees a
    /// coalesced follower can never be handed a pre-swap extraction as
    /// current.
    epoch: AtomicU64,
    /// Swap generation: bumped under the outer `shards` write lock on
    /// every committed rebalance. Writers re-check it after acquiring
    /// a shard write lock — a mutation applied to a superseded shard
    /// set would be silently lost, so a stale writer retries against
    /// the fresh snapshot instead.
    generation: AtomicU64,
    /// Old encoded [`ShardedId`] → current encoded id, folded across
    /// every committed rebalance ([`RemapEntry`] composition), so
    /// handles issued any number of rebalances ago keep resolving.
    remap: RwLock<HashMap<u64, u64>>,
    /// Serializes rebalances and carries the last-commit instant
    /// (`min_interval_ms` pacing) — held across the whole quiesce →
    /// re-partition → swap sequence.
    rebalance_ctl: Mutex<RebalanceCtl>,
    /// Committed rebalances (monotone; mirrored to `serve.rebalances`).
    rebalances: AtomicU64,
    /// `f64::to_bits` of the skew the latest rebalance started from.
    last_skew_before: AtomicU64,
    /// `f64::to_bits` of the skew the latest rebalance ended at.
    last_skew_after: AtomicU64,
    /// Router state from a restored checkpoint whose kind did not
    /// match the active router; held for [`with_router`]
    /// (Self::with_router) to apply when the matching router arrives.
    pending_router: Option<RouterState>,
}

/// Rebalance serialization state (see `ShardPool::rebalance_ctl`).
struct RebalanceCtl {
    /// When the last rebalance committed; `None` before the first.
    last: Option<Instant>,
}

impl<P, M> std::fmt::Debug for ShardPool<P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shards = self.shards();
        f.debug_struct("ShardPool")
            .field("shards", &shards.len())
            .field("config", &self.config)
            .field(
                "health",
                &shards.iter().map(Shard::health).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl<P, M> ShardPool<P, M> {
    /// The current shard set. The outer read lock is held only for the
    /// `Arc` clone — never across shard-lock acquisition — so a
    /// rebalance's swap (outer write lock) can never deadlock against
    /// readers or writers parked on shard locks.
    fn shards(&self) -> Arc<Vec<Shard<P, M>>> {
        self.shards.read().clone()
    }

    /// The current shard set plus the swap generation it belongs to,
    /// read under one outer lock so the pair is consistent. Writers
    /// re-check the generation after acquiring a shard write lock: a
    /// mismatch means a rebalance swapped the set out from under them
    /// and the mutation must retry on the fresh snapshot (applying it
    /// to the superseded set would lose the write).
    fn snapshot(&self) -> (Arc<Vec<Shard<P, M>>>, u64) {
        let guard = self.shards.read();
        let generation = self.generation.load(Ordering::Acquire);
        (guard.clone(), generation)
    }
}

impl<P, M> ShardPool<P, M>
where
    P: Clone + Send + Sync,
    M: Metric<P> + Clone,
{
    /// Passes an update gets at the [`faults::sites::SHARD_MUTATE`]
    /// injection point: the first execution plus one retry after a
    /// successful in-line recovery.
    pub const MUTATE_ATTEMPTS: usize = 2;

    /// Rebuild attempts a recovery makes before giving up and leaving
    /// the shard `Quarantined`; attempts after a transient failure
    /// back off exponentially (0.2 ms, 0.4 ms, 0.8 ms, …).
    pub const RECOVERY_ATTEMPTS: usize = 4;

    /// Admission attempts a query gets at the
    /// [`faults::sites::QUERY`] injection point before failing with
    /// [`DivError::TransientFailure`]; retries back off exponentially.
    pub const QUERY_ATTEMPTS: usize = 3;

    /// An empty pool of `shards` engines with the default
    /// [`DynamicConfig`] and a [`RoundRobin`] router.
    ///
    /// # Panics
    /// Panics if `shards == 0` (`Task::serve` returns
    /// [`DivError::InvalidShards`] instead).
    pub fn new(metric: M, shards: usize) -> Self {
        Self::with_config(metric, DynamicConfig::default(), shards)
    }

    /// An empty pool with an explicit engine configuration (shared by
    /// every shard).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_config(metric: M, config: DynamicConfig, shards: usize) -> Self {
        assert!(shards >= 1, "a pool needs at least one shard");
        let engines = (0..shards)
            .map(|_| {
                let engine = DynamicDiversity::with_config(metric.clone(), config);
                Shard {
                    recovery: Mutex::new(RecoveryState {
                        base: engine.state(),
                        log: Vec::new(),
                    }),
                    engine: RwLock::new(engine),
                    health: AtomicU8::new(ShardHealth::Healthy as u8),
                    occupancy: AtomicUsize::new(0),
                }
            })
            .collect();
        let pool_id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        Self {
            shards: RwLock::new(Arc::new(engines)),
            metric,
            config,
            router: Box::new(RoundRobin::new()),
            runtime: MapReduceRuntime::with_threads(1),
            pool_id,
            gauge_names: occupancy_gauge_names(pool_id, shards),
            epoch: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            remap: RwLock::new(HashMap::new()),
            rebalance_ctl: Mutex::new(RebalanceCtl { last: None }),
            rebalances: AtomicU64::new(0),
            last_skew_before: AtomicU64::new(0),
            last_skew_after: AtomicU64::new(0),
            pending_router: None,
        }
    }

    /// Resumes a pool from a
    /// [`checkpoint_consistent`](Self::checkpoint_consistent). Every
    /// shard engine is rebuilt losslessly; queries on the restored
    /// pool are bit-identical to the pool that produced the state.
    ///
    /// The router starts as the default [`RoundRobin`]. When the
    /// checkpointed [`RouterState`] carries a matching kind its state
    /// (the cursor) is re-applied immediately; a state of a *different*
    /// kind — the pool was checkpointed under e.g. a `HashRouter` — is
    /// held aside and applied by [`with_router`](Self::with_router)
    /// when the matching router is re-attached, so no checkpointed
    /// router state is silently dropped.
    ///
    /// A corrupt state — no shards, shards checkpointed under
    /// different configurations, a router state stamped with a
    /// *different* shard count than the checkpoint holds (restoring it
    /// would mis-route every stable-id placement — e.g. a `HashRouter`
    /// hashing over the wrong `shards.len()`), a remap entry pointing
    /// at a shard the pool does not have, or a structurally
    /// inconsistent engine state (truncated/bit-flipped wire bytes) —
    /// returns [`DivError::CorruptState`] so the caller can keep its
    /// last good pool instead of aborting. States produced by
    /// `checkpoint_consistent` always restore.
    pub fn restore(metric: M, state: PoolState<P>) -> Result<Self, DivError> {
        if state.shards.is_empty() {
            return Err(DivError::CorruptState {
                reason: "pool checkpoint holds no shards".into(),
            });
        }
        if state.router.shards as usize != state.shards.len() {
            return Err(DivError::CorruptState {
                reason: format!(
                    "router state was checkpointed over {} shards but the pool holds {}",
                    state.router.shards,
                    state.shards.len()
                ),
            });
        }
        for entry in &state.remap {
            let to = ShardedId::decode(entry.to);
            if to.shard >= state.shards.len() {
                return Err(DivError::CorruptState {
                    reason: format!(
                        "remap entry {} -> {} points at shard {} of a {}-shard pool",
                        entry.from,
                        entry.to,
                        to.shard,
                        state.shards.len()
                    ),
                });
            }
        }
        let span = diversity_obs::span("serve.restore_ns");
        let config = DynamicConfig {
            epsilon: state.shards[0].epsilon,
            dim: state.shards[0].dim,
            max_depth: state.shards[0].max_depth,
        };
        let mut shards = Vec::with_capacity(state.shards.len());
        for (i, s) in state.shards.into_iter().enumerate() {
            if s.epsilon != config.epsilon || s.dim != config.dim || s.max_depth != config.max_depth
            {
                return Err(DivError::CorruptState {
                    reason: format!("shard {i} checkpointed under a different configuration"),
                });
            }
            let engine = DynamicDiversity::resume(metric.clone(), s.clone()).map_err(|e| {
                DivError::CorruptState {
                    reason: format!("shard {i}: {}", e.reason),
                }
            })?;
            shards.push(Shard {
                occupancy: AtomicUsize::new(engine.len()),
                recovery: Mutex::new(RecoveryState {
                    base: s,
                    log: Vec::new(),
                }),
                engine: RwLock::new(engine),
                health: AtomicU8::new(ShardHealth::Healthy as u8),
            });
        }
        let router = RoundRobin::new();
        let pending_router = if Router::<P>::restore(&router, &state.router) {
            None
        } else {
            Some(state.router)
        };
        let remap: HashMap<u64, u64> = state.remap.iter().map(|e| (e.from, e.to)).collect();
        let pool_id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let pool = Self {
            gauge_names: occupancy_gauge_names(pool_id, shards.len()),
            shards: RwLock::new(Arc::new(shards)),
            metric,
            config,
            router: Box::new(router),
            runtime: MapReduceRuntime::with_threads(1),
            pool_id,
            epoch: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            remap: RwLock::new(remap),
            rebalance_ctl: Mutex::new(RebalanceCtl { last: None }),
            rebalances: AtomicU64::new(0),
            last_skew_before: AtomicU64::new(0),
            last_skew_after: AtomicU64::new(0),
            pending_router,
        };
        drop(span);
        if diversity_obs::enabled() {
            // Publish the restored occupancy so the pool's gauges are
            // correct before any traffic arrives.
            for (shard, slot) in pool.shards().iter().enumerate() {
                diversity_obs::gauge_set(&pool.gauge_names[shard], slot.engine.read().len() as i64);
            }
        }
        Ok(pool)
    }

    /// Replaces the router (builder-style). Routing affects placement
    /// only, never soundness — see the type-level docs.
    ///
    /// When the pool was [restored](Self::restore) from a checkpoint
    /// whose router state belonged to a different kind, that held
    /// state is applied now if `router` matches it — re-attaching the
    /// checkpointed router picks up exactly where it left off.
    pub fn with_router(mut self, router: impl Router<P> + 'static) -> Self {
        if let Some(state) = &self.pending_router {
            if router.restore(state) {
                self.pending_router = None;
            }
        }
        self.router = Box::new(router);
        self
    }

    /// Checkpointed router state still awaiting its matching router
    /// (see [`restore`](Self::restore)); `None` once applied.
    pub fn pending_router_state(&self) -> Option<&RouterState> {
        self.pending_router.as_ref()
    }

    /// Number of shards (invariant across rebalances — only placement
    /// changes).
    pub fn num_shards(&self) -> usize {
        self.shards().len()
    }

    /// This pool's telemetry namespace prefix: every per-shard
    /// occupancy gauge is named `{gauge_prefix()}shard{i}.occupancy`.
    /// At any quiescent point,
    /// `Snapshot::gauge_prefix_sum(&pool.gauge_prefix())` equals
    /// [`len`](Self::len).
    pub fn gauge_prefix(&self) -> String {
        format!("serve.pool{}.", self.pool_id)
    }

    /// The health state of shard `shard`.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.shards()[shard].health()
    }

    /// Every shard's health, in shard order.
    pub fn healths(&self) -> Vec<ShardHealth> {
        self.shards().iter().map(Shard::health).collect()
    }

    /// Number of shards currently `Healthy`.
    pub fn healthy_shards(&self) -> usize {
        self.shards()
            .iter()
            .filter(|s| s.health() == ShardHealth::Healthy)
            .count()
    }

    /// The pool's mutation epoch. Bumped under the touched shard's
    /// write lock on every acknowledged mutation and every shard
    /// health transition — anything that could change what a query
    /// would answer. Equal values from two reads bracketing an
    /// operation witness that the pool was quiescent in between;
    /// that is the key the network layer's query coalescing uses to
    /// share one extraction among concurrent identical queries.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Every shard's last-acknowledged occupancy, in shard order —
    /// read lock-free, so safe to poll from a rebalancing loop.
    /// Quarantined shards report the occupancy they last acknowledged
    /// (the population a recovery will restore), not zero.
    pub fn occupancies(&self) -> Vec<usize> {
        self.shards()
            .iter()
            .map(|s| s.occupancy.load(Ordering::Acquire))
            .collect()
    }

    /// The router's imbalance figure over the current
    /// [`occupancies`](Self::occupancies) ([`Router::skew`]; the
    /// default policy is max/mean — `1.0` is perfectly balanced, and
    /// an empty pool also reports `1.0`). This is what
    /// [`maybe_rebalance`](Self::maybe_rebalance) compares against its
    /// threshold.
    pub fn skew(&self) -> f64 {
        self.router.skew(&self.occupancies())
    }

    /// Alive points in shard `shard` (`0` while it is quarantined —
    /// quarantined shards are excluded from the serving population
    /// until they recover).
    pub fn shard_len(&self, shard: usize) -> usize {
        let shards = self.shards();
        let slot = &shards[shard];
        if slot.health() != ShardHealth::Healthy {
            return 0;
        }
        let len = slot.engine.read().len();
        len
    }

    /// Total alive points across the **healthy** shards — the
    /// population queries currently certify. Under concurrent writers
    /// this is a momentary sum (shards are read one at a time).
    /// Quarantined shards rejoin the count when they recover; their
    /// last-acknowledged occupancy is still visible to degraded
    /// answers' coverage accounting ([`Degradation::coverage`]).
    pub fn len(&self) -> usize {
        self.shards()
            .iter()
            .filter(|s| s.health() == ShardHealth::Healthy)
            .map(|s| s.engine.read().len())
            .sum()
    }

    /// `true` when every healthy shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The engine configuration every shard was built with.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// Inserts a point, routing it through the pool's [`Router`].
    /// Takes one shard's write lock; other shards (and readers of
    /// other shards) proceed untouched.
    ///
    /// When the routed shard is quarantined, an in-line recovery is
    /// attempted first; [`DivError::ShardUnavailable`] means the shard
    /// could not be recovered (the rest of the pool keeps serving —
    /// there is no silent re-route, so placement stays deterministic).
    pub fn insert(&self, point: P) -> Result<ShardedId, DivError> {
        let shard = self.router.route(&point, self.num_shards());
        self.insert_to(shard, point)
    }

    /// Inserts into an explicit shard, bypassing the router (how
    /// `Task::serve_seeded` replays a partitioning).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn insert_to(&self, shard: usize, point: P) -> Result<ShardedId, DivError> {
        match self.mutate(shard, Op::Insert(point))? {
            MutOutcome::Inserted(id) => Ok(ShardedId { shard, id }),
            MutOutcome::Deleted(_) => unreachable!("insert ops produce insert outcomes"),
        }
    }

    /// Inserts many points through the router, returning their
    /// handles. Stops at the first unavailable shard.
    pub fn extend(&self, points: impl IntoIterator<Item = P>) -> Result<Vec<ShardedId>, DivError> {
        points.into_iter().map(|p| self.insert(p)).collect()
    }

    /// Deletes an alive point; `Ok(false)` when the handle was already
    /// gone (or its shard index is out of range). Like
    /// [`insert`](Self::insert), a quarantined shard is recovered
    /// in-line first or the delete fails with
    /// [`DivError::ShardUnavailable`] — in which case the point is
    /// still alive (the operation was not applied).
    ///
    /// Handles issued before a [`rebalance`](Self::rebalance) are
    /// [resolved](Self::resolve) through the remap table first, so
    /// pre-rebalance ids keep deleting the point they named.
    pub fn delete(&self, id: ShardedId) -> Result<bool, DivError> {
        loop {
            let generation = self.generation.load(Ordering::Acquire);
            let resolved = self.resolve(id);
            if resolved.shard >= self.num_shards() {
                return Ok(false);
            }
            let deleted = match self.mutate(resolved.shard, Op::Delete(resolved.id))? {
                MutOutcome::Deleted(deleted) => deleted,
                MutOutcome::Inserted(_) => unreachable!("delete ops produce delete outcomes"),
            };
            if deleted || self.generation.load(Ordering::Acquire) == generation {
                return Ok(deleted);
            }
            // A rebalance committed between resolving the handle and
            // applying the delete, so the miss may be an artifact of
            // the stale resolution. Re-resolve against the fresh remap
            // table and retry (a *successful* delete is never retried).
        }
    }

    /// Follows the rebalance remap table: the current [`ShardedId`] of
    /// the point `id` named when it was issued. Ids the table does not
    /// know — ids issued after the last rebalance, ids of points that
    /// died before one, out-of-range hand-built ids — pass through
    /// unchanged (and then simply miss, since rebuilt id spaces never
    /// reuse pre-rebalance ids). One lookup suffices however many
    /// rebalances have happened: each commit folds the new hop into
    /// the table instead of chaining.
    pub fn resolve(&self, id: ShardedId) -> ShardedId {
        let Ok(key) = id.try_encode() else {
            return id;
        };
        match self.remap.read().get(&key) {
            Some(&to) => ShardedId::decode(to),
            None => id,
        }
    }

    /// Quarantines a shard administratively — e.g. to drain it for
    /// maintenance or to fence a suspect replica. Queries degrade
    /// around it exactly as after a caught panic;
    /// [`recover`](Self::recover) (or the next update routed to it)
    /// brings it back with no data loss.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn quarantine(&self, shard: usize) {
        loop {
            let (shards, generation) = self.snapshot();
            let slot = &shards[shard];
            // Under the write lock so the transition cannot interleave
            // with a mutation's own health handling.
            let _guard = slot.engine.write();
            if self.generation.load(Ordering::Acquire) != generation {
                // A rebalance swapped the set while we waited for the
                // lock; fencing the superseded shard would be a no-op.
                continue;
            }
            slot.set_health(ShardHealth::Quarantined);
            self.bump_epoch();
            diversity_obs::count("serve.quarantines", 1);
            return;
        }
    }

    /// Recovers shard `shard` if it is quarantined: rebuilds the
    /// engine from the last checkpoint plus the acknowledged-operation
    /// log (no acknowledged write is lost), with bounded exponential
    /// backoff across transient faults. No-op on a healthy shard.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn recover(&self, shard: usize) -> Result<(), DivError> {
        loop {
            let (shards, generation) = self.snapshot();
            let slot = &shards[shard];
            if slot.health() == ShardHealth::Healthy {
                return Ok(());
            }
            let mut engine = slot.engine.write();
            if self.generation.load(Ordering::Acquire) != generation {
                drop(engine); // superseded set; re-check the fresh one
                continue;
            }
            if slot.health() == ShardHealth::Healthy {
                return Ok(()); // someone else recovered while we waited
            }
            return self.recover_locked(slot, shard, &mut engine);
        }
    }

    /// Recovers every non-healthy shard ([`recover`](Self::recover)),
    /// returning the first failure.
    pub fn recover_all(&self) -> Result<(), DivError> {
        for shard in 0..self.num_shards() {
            self.recover(shard)?;
        }
        Ok(())
    }

    /// Rebuilds a shard's engine from `checkpoint + log` while holding
    /// its write lock. `Healthy` on success; `Quarantined` (and a
    /// typed error) when transient faults exhaust the backoff budget
    /// or the recovery material itself is corrupt.
    fn recover_locked(
        &self,
        slot: &Shard<P, M>,
        shard: usize,
        engine: &mut DynamicDiversity<P, M>,
    ) -> Result<(), DivError> {
        slot.set_health(ShardHealth::Recovering);
        let started = Instant::now();
        for attempt in 1..=Self::RECOVERY_ATTEMPTS {
            if faults::should_fail(faults::sites::RECOVERY) {
                if attempt == Self::RECOVERY_ATTEMPTS {
                    slot.set_health(ShardHealth::Quarantined);
                    return Err(DivError::TransientFailure {
                        site: faults::sites::RECOVERY.into(),
                    });
                }
                // Bounded exponential backoff: 0.2 ms, 0.4 ms, 0.8 ms.
                std::thread::sleep(Duration::from_micros(200 << (attempt - 1)));
                continue;
            }
            let recovery = slot.recovery.lock();
            let mut rebuilt =
                match DynamicDiversity::resume(self.metric.clone(), recovery.base.clone()) {
                    Ok(rebuilt) => rebuilt,
                    Err(e) => {
                        slot.set_health(ShardHealth::Quarantined);
                        return Err(DivError::CorruptState {
                            reason: format!("shard {shard} recovery checkpoint: {}", e.reason),
                        });
                    }
                };
            // Replay every acknowledged mutation since the checkpoint;
            // id assignment is deterministic, so the rebuilt engine is
            // bit-identical to one that never failed.
            for op in &recovery.log {
                match op {
                    Op::Insert(p) => {
                        rebuilt.insert(p.clone());
                    }
                    Op::Delete(id) => {
                        rebuilt.delete(*id);
                    }
                }
            }
            let occupancy = rebuilt.len();
            *engine = rebuilt;
            drop(recovery);
            slot.occupancy.store(occupancy, Ordering::Release);
            slot.set_health(ShardHealth::Healthy);
            self.bump_epoch();
            diversity_obs::observe("serve.recovery_ns", started.elapsed().as_nanos() as u64);
            diversity_obs::count("serve.recoveries", 1);
            if diversity_obs::enabled() {
                diversity_obs::gauge_set(&self.gauge_names[shard], occupancy as i64);
            }
            return Ok(());
        }
        unreachable!("the attempt loop returns on success or exhaustion")
    }

    /// Applies one mutation to a shard with panic isolation: the
    /// engine call runs under `catch_unwind` (the
    /// [`faults::sites::SHARD_MUTATE`] injection point fires inside
    /// the guarded scope), so a panicking mutation quarantines the
    /// shard — while the write lock is still held, before the
    /// half-mutated engine could become visible — and triggers an
    /// immediate recovery + one retry of the operation.
    fn mutate(&self, shard: usize, op: Op<P>) -> Result<MutOutcome, DivError> {
        let mut attempt = 1;
        loop {
            let (shards, generation) = self.snapshot();
            let slot = &shards[shard];
            // A quarantined shard gets an in-line recovery before the
            // operation is applied (or refused).
            if slot.health() != ShardHealth::Healthy {
                self.recover(shard)
                    .map_err(|_| DivError::ShardUnavailable { shard })?;
            }
            let obs = diversity_obs::enabled();
            let t0 = Instant::now();
            let mut engine = slot.engine.write();
            let acquired = Instant::now();
            if self.generation.load(Ordering::Acquire) != generation {
                // A rebalance swapped the shard set while we waited
                // for the lock: applying the op to the superseded
                // engine would silently lose the write. Retry on the
                // fresh snapshot (does not consume a fault attempt).
                drop(engine);
                continue;
            }
            if slot.health() != ShardHealth::Healthy {
                // Quarantined while we waited for the lock; loop back
                // through recovery.
                drop(engine);
                continue;
            }
            faults::slow_point(faults::sites::LOCK_HOLD);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                faults::panic_point(faults::sites::SHARD_MUTATE);
                match &op {
                    Op::Insert(p) => MutOutcome::Inserted(engine.insert(p.clone())),
                    Op::Delete(id) => MutOutcome::Deleted(engine.delete(*id)),
                }
            }));
            match outcome {
                Ok(out) => {
                    // Acknowledge: log the op for recovery, publish
                    // occupancy — all before the lock drops, so
                    // recovery material and gauges stay in lock order.
                    {
                        let mut recovery = slot.recovery.lock();
                        recovery.log.push(match (&op, &out) {
                            (Op::Insert(p), _) => Op::Insert(p.clone()),
                            (Op::Delete(id), _) => Op::Delete(*id),
                        });
                    }
                    slot.occupancy.store(engine.len(), Ordering::Release);
                    self.bump_epoch();
                    if obs {
                        diversity_obs::gauge_set(&self.gauge_names[shard], engine.len() as i64);
                    }
                    drop(engine);
                    if obs {
                        diversity_obs::observe(
                            "serve.lock.write_wait_ns",
                            (acquired - t0).as_nanos() as u64,
                        );
                        diversity_obs::observe(
                            "serve.lock.write_hold_ns",
                            acquired.elapsed().as_nanos() as u64,
                        );
                    }
                    return Ok(out);
                }
                Err(_panic) => {
                    // The engine may be half-mutated; fence it before
                    // anyone else can observe it, then rebuild in
                    // place (still under the write lock).
                    slot.set_health(ShardHealth::Quarantined);
                    self.bump_epoch();
                    diversity_obs::count("serve.quarantines", 1);
                    let recovered = self.recover_locked(slot, shard, &mut engine);
                    drop(engine);
                    if recovered.is_err() || attempt == Self::MUTATE_ATTEMPTS {
                        return Err(DivError::ShardUnavailable { shard });
                    }
                    // Recovered: retry the operation once.
                    attempt += 1;
                }
            }
        }
    }

    /// The point behind an alive handle, cloned out under the shard's
    /// read lock. `None` while the owning shard is quarantined.
    /// Pre-rebalance handles are [resolved](Self::resolve) through the
    /// remap table first.
    pub fn point(&self, id: ShardedId) -> Option<P> {
        // Resolve while holding the outer read lock: a rebalance
        // commits its swap *and* its remap update under the outer
        // write lock, so the (shard set, resolution) pair read here can
        // never straddle a swap.
        let (shards, id) = {
            let guard = self.shards.read();
            (guard.clone(), self.resolve(id))
        };
        let slot = shards.get(id.shard)?;
        if slot.health() != ShardHealth::Healthy {
            return None;
        }
        let point = slot.engine.read().point(id.id).cloned();
        point
    }

    /// Snapshot of all alive `(handle, point)` pairs across the
    /// **healthy** shards, shard by shard — the population a query's
    /// certificate covers right now.
    pub fn alive(&self) -> Vec<(ShardedId, P)> {
        let mut out = Vec::new();
        let shards = self.shards();
        for (shard, slot) in shards.iter().enumerate() {
            if slot.health() != ShardHealth::Healthy {
                continue;
            }
            out.extend(
                slot.engine
                    .read()
                    .alive()
                    .into_iter()
                    .map(|(id, p)| (ShardedId { shard, id }, p)),
            );
        }
        out
    }

    /// Per-shard cumulative update-work counters (healthy shards;
    /// quarantined shards report the zero default until they recover —
    /// recovery rebuilds the engine, which restarts its counters).
    pub fn shard_stats(&self) -> Vec<UpdateStats> {
        self.shards()
            .iter()
            .map(|s| {
                if s.health() == ShardHealth::Healthy {
                    *s.engine.read().stats()
                } else {
                    UpdateStats::default()
                }
            })
            .collect()
    }

    /// Exhaustively validates every healthy shard's cover invariants
    /// (test support; `O(n²)` per shard).
    pub fn validate(&self) {
        for shard in self.shards().iter() {
            if shard.health() == ShardHealth::Healthy {
                shard.engine.read().validate();
            }
        }
    }

    /// Extracts core-sets from every shard able to answer (read locks,
    /// one shard at a time) with provenance rewritten to encoded
    /// [`ShardedId`]s. A shard drops out — into `skipped` — when it is
    /// quarantined, the deadline has passed (or its read lock could
    /// not be acquired in time), or its extraction panics (which also
    /// quarantines it).
    fn extract_shards(
        &self,
        problem: Problem,
        k: usize,
        k_prime: usize,
        deadline: Option<Duration>,
    ) -> Extraction<P> {
        let started = Instant::now();
        // One whole query runs against one snapshot: a rebalance
        // mid-extraction swaps the pool's set, but this query keeps
        // reading the generation it started on (the old shards stay
        // alive behind the `Arc` until the last in-flight reader is
        // done), so the merged certificate never mixes two partitions
        // of the same points.
        let shards = self.shards();
        let mut ex = Extraction {
            shards_total: shards.len(),
            artifacts: Vec::with_capacity(shards.len()),
            skipped: Vec::new(),
            total: 0,
            max_shard: 0,
            lock_wait_secs: 0.0,
            skipped_occupancy: 0,
        };
        let skip = |ex: &mut Extraction<P>, shard: usize, slot: &Shard<P, M>| {
            ex.skipped.push(shard);
            ex.skipped_occupancy += slot.occupancy.load(Ordering::Acquire);
        };
        for (shard, slot) in shards.iter().enumerate() {
            if slot.health() != ShardHealth::Healthy {
                skip(&mut ex, shard, slot);
                continue;
            }
            let t0 = Instant::now();
            let engine = match deadline {
                None => slot.engine.read(),
                Some(budget) => {
                    // A shard whose turn comes at or past the deadline
                    // is skipped outright.
                    if started.elapsed() >= budget {
                        skip(&mut ex, shard, slot);
                        continue;
                    }
                    // Bounded acquisition: a straggler holding the
                    // write lock must not stall the whole query.
                    let mut guard = slot.engine.try_read();
                    while guard.is_none() && started.elapsed() < budget {
                        std::thread::yield_now();
                        guard = slot.engine.try_read();
                    }
                    match guard {
                        Some(g) => g,
                        None => {
                            skip(&mut ex, shard, slot);
                            continue;
                        }
                    }
                }
            };
            let acquired = Instant::now();
            ex.lock_wait_secs += (acquired - t0).as_secs_f64();
            // Re-check under the lock: a mutation that panicked while
            // we waited has quarantined (and maybe not yet recovered)
            // this engine.
            if slot.health() != ShardHealth::Healthy {
                drop(engine);
                skip(&mut ex, shard, slot);
                continue;
            }
            let n_s = engine.len();
            let art = if engine.is_empty() {
                // A drained shard contributes the merge identity.
                Some(Coreset::empty(k_prime))
            } else {
                // Extraction is read-only, but a panic here (a bug, or
                // corruption that slipped past the health fence) must
                // cost this shard's contribution, not the process.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.extract_coreset(problem, k, k_prime)
                }))
                .ok()
            };
            drop(engine); // provenance rewrite needs no lock
            if diversity_obs::enabled() {
                diversity_obs::observe(
                    "serve.lock.read_wait_ns",
                    (acquired - t0).as_nanos() as u64,
                );
                diversity_obs::observe(
                    "serve.lock.read_hold_ns",
                    acquired.elapsed().as_nanos() as u64,
                );
            }
            let Some(art) = art else {
                slot.set_health(ShardHealth::Quarantined);
                self.bump_epoch();
                diversity_obs::count("serve.quarantines", 1);
                skip(&mut ex, shard, slot);
                continue;
            };
            ex.total += n_s;
            ex.max_shard = ex.max_shard.max(n_s);
            ex.artifacts.push(art.map_sources(|raw| {
                ShardedId {
                    shard,
                    id: PointId::from_raw(raw),
                }
                .encode()
            }));
        }
        ex
    }

    /// The merged warm-path core-set a [`query`](Self::query) for
    /// `(problem, k, k_prime)` would solve on: per-shard extractions
    /// of every shard currently able to answer, composed by
    /// [`Coreset::merge`], radius = max of the shard radii, sources =
    /// encoded [`ShardedId`]s. With quarantined shards present this is
    /// the *surviving* core-set — exactly what a degraded answer's
    /// certificate is scoped to. Exposed for certificate audits
    /// (`coreset.certifies(&alive_points, ..)`) and tests.
    pub fn coreset(&self, problem: Problem, k: usize, k_prime: usize) -> Coreset<P> {
        let ex = self.extract_shards(problem, k, k_prime, None);
        Coreset::merge_all(ex.artifacts).unwrap_or_else(|| Coreset::empty(k_prime))
    }

    /// Answers a [`Task`] on the **warm path**: extraction-only reads
    /// of the maintained shard structures, composed through
    /// [`Coreset::merge`] and solved by the shared 2-round combiner —
    /// the same data path as `Task::run_sharded`, minus the per-query
    /// engine builds. Returns the standard [`Report`] with
    /// [`Backend::ShardedDynamic`], the composed radius certificate in
    /// `coreset_radius`, and indices/provenance in encoded
    /// [`ShardedId`] space ([`ShardedId::decode`] recovers the shard
    /// and engine handle).
    ///
    /// Budget resolution matches [`Task::run_dynamic`]
    /// ([`Task::dynamic_k_prime`]): `Auto` defers to the shards' own
    /// [`DynamicConfig`] sizing rather than sampling the data (the
    /// warm path never rescans points). Like the other dynamic-backed
    /// paths, no `(α+ε)` certificate is attached — the per-query
    /// composed radius is the honest accuracy witness.
    ///
    /// When shards are quarantined the answer **degrades** instead of
    /// failing: the surviving shards' artifacts merge, and the report
    /// carries [`Degradation`] scoping the certificate to the
    /// survivors (see the type-level docs). Only a pool with *no*
    /// answering shard errors, with [`DivError::PoolUnavailable`].
    pub fn query(&self, task: &Task) -> Result<Report<P>, DivError> {
        self.query_opts(task, None)
    }

    /// [`query`](Self::query) under a wall-clock budget: shards whose
    /// read lock cannot be acquired before `deadline` elapses (or
    /// whose turn comes after it) are skipped, degrading the answer
    /// rather than stalling it. The deadline bounds the *extraction*
    /// phase — lock acquisition and per-shard reads; the final
    /// combiner solve on the (small) merged core-set always runs to
    /// completion, so answers past the deadline are still certified.
    pub fn query_within(&self, task: &Task, deadline: Duration) -> Result<Report<P>, DivError> {
        self.query_opts(task, Some(deadline))
    }

    fn query_opts(&self, task: &Task, deadline: Option<Duration>) -> Result<Report<P>, DivError> {
        let k = task.k();
        if k == 0 {
            return Err(DivError::InvalidK { k, n: None });
        }
        let problem = task.problem();
        let k_prime = task.dynamic_k_prime(&self.config)?;

        // Admission: transient failures retry with bounded backoff
        // (0.1 ms, 0.2 ms) before surfacing as a typed error.
        for attempt in 1..=Self::QUERY_ATTEMPTS {
            if !faults::should_fail(faults::sites::QUERY) {
                break;
            }
            if attempt == Self::QUERY_ATTEMPTS {
                return Err(DivError::TransientFailure {
                    site: faults::sites::QUERY.into(),
                });
            }
            std::thread::sleep(Duration::from_micros(100 << (attempt - 1)));
        }

        let e2e = diversity_obs::span("serve.query.e2e_ns");
        let t0 = Instant::now();
        let ex = self.extract_shards(problem, k, k_prime, deadline);
        let extract_secs = t0.elapsed().as_secs_f64();
        if diversity_obs::enabled() {
            diversity_obs::observe("serve.extract_ns", (extract_secs * 1e9) as u64);
        }
        let shards_total = ex.shards_total;
        let shards_answered = shards_total - ex.skipped.len();
        if shards_answered == 0 {
            return Err(DivError::PoolUnavailable {
                healthy: 0,
                total: shards_total,
            });
        }
        if ex.total == 0 {
            // Nothing alive among the answering shards: an empty pool
            // when full coverage, otherwise an unanswerable query (the
            // points that exist are all behind skipped shards).
            return if ex.skipped.is_empty() {
                Err(DivError::EmptyInput)
            } else {
                Err(DivError::PoolUnavailable {
                    healthy: shards_answered,
                    total: shards_total,
                })
            };
        }
        if k > ex.total {
            return Err(DivError::InvalidK {
                k,
                n: Some(ex.total),
            });
        }
        let degradation = if ex.skipped.is_empty() {
            None
        } else {
            diversity_obs::count("serve.query.degraded", 1);
            let known = ex.total + ex.skipped_occupancy;
            Some(Degradation {
                shards_answered,
                shards_total,
                skipped_shards: ex.skipped.clone(),
                coverage: if known == 0 {
                    1.0
                } else {
                    ex.total as f64 / known as f64
                },
            })
        };

        let union = Coreset::merge_all(ex.artifacts).expect("at least one shard answered");
        // Keep (source, point) pairs to recover the selected points
        // after the solve without re-locking the shards — a concurrent
        // writer may have deleted a selected point by then, but it was
        // alive in the extraction this answer certifies.
        let lookup: Vec<(u64, P)> = union
            .sources()
            .iter()
            .copied()
            .zip(union.points().iter().cloned())
            .collect();
        let (solution, solve_input_size, coreset_radius, round_stats) = solve_union(
            problem,
            union,
            &self.metric,
            k,
            &self.runtime,
            "combine:solve",
        );

        let mut points = Vec::with_capacity(solution.indices.len());
        for &encoded in &solution.indices {
            let point = lookup
                .iter()
                .find(|(src, _)| *src == encoded as u64)
                .map(|(_, p)| p.clone())
                .ok_or_else(|| DivError::CorruptState {
                    reason: format!("combiner selected {encoded}, absent from the union's sources"),
                })?;
            points.push(point);
        }

        // End the e2e span before snapshotting so this very query is
        // already in the histogram the report carries.
        drop(e2e);
        let report = Report {
            problem,
            backend: Backend::ShardedDynamic,
            k,
            k_prime,
            coreset_size: solve_input_size,
            coreset_radius: Some(coreset_radius),
            indices: solution.indices,
            points,
            value: solution.value,
            timings: vec![
                StageTiming {
                    stage: "warm-extract".into(),
                    secs: extract_secs,
                },
                // Component of warm-extract spent *waiting* for shard
                // read locks — the contention share of warm latency.
                // Row names are pinned in `tests/serve_pool.rs`.
                StageTiming {
                    stage: "warm-lock-wait".into(),
                    secs: ex.lock_wait_secs,
                },
                StageTiming {
                    stage: round_stats.name.clone(),
                    secs: round_stats.wall.as_secs_f64(),
                },
            ],
            memory: vec![
                StageMemory {
                    stage: "warm-extract".into(),
                    reducers: shards_answered,
                    max_local_points: ex.max_shard,
                    total_points: ex.total,
                    emitted_points: solve_input_size,
                },
                StageMemory {
                    stage: round_stats.name.clone(),
                    reducers: round_stats.reducers,
                    max_local_points: round_stats.max_local_points,
                    total_points: round_stats.total_points,
                    emitted_points: round_stats.emitted_points,
                },
            ],
            certificate: None,
            degradation,
            telemetry: diversity_obs::snapshot(),
        };
        Ok(report)
    }

    /// The live remap table as sorted [`RemapEntry`] rows (what
    /// checkpoints persist).
    fn remap_entries(&self) -> Vec<RemapEntry> {
        let mut entries: Vec<RemapEntry> = self
            .remap
            .read()
            .iter()
            .map(|(&from, &to)| RemapEntry { from, to })
            .collect();
        entries.sort_by_key(|e| e.from);
        entries
    }

    /// The consistent cut both [`checkpoint_consistent`]
    /// (Self::checkpoint_consistent) and `rebalance_locked` take:
    /// recover every shard, take every shard write lock in shard order
    /// (so two concurrent cuts cannot deadlock each other or the
    /// one-lock-at-a-time paths), retry on the fresh set if a rebalance
    /// swapped it meanwhile, recover in place any shard quarantined
    /// between the recovery pass and the acquisition, then image the
    /// shard states, router and remap into one [`PoolState`].
    ///
    /// `f` runs with every write lock still held, so no mutation can
    /// land between the image and whatever `f` commits; the locks drop
    /// when it returns. It also gets the shard set the cut was taken
    /// from and the instant the last write lock was acquired.
    fn with_cut<R>(
        &self,
        f: impl FnOnce(&[Shard<P, M>], PoolState<P>, Instant) -> Result<R, DivError>,
    ) -> Result<R, DivError> {
        loop {
            let (shards, generation) = self.snapshot();
            // Recovery needs the write lock itself, so run it before
            // the global acquisition pass.
            self.recover_all()?;
            let mut guards = Vec::with_capacity(shards.len());
            for slot in shards.iter() {
                guards.push(slot.engine.write());
            }
            let locked_at = Instant::now();
            if self.generation.load(Ordering::Acquire) != generation {
                // A rebalance swapped the set while we were acquiring:
                // these locks fence the superseded shards. Retry on
                // the fresh set.
                drop(guards);
                continue;
            }
            // Health transitions happen under shard write locks, all of
            // which we now hold — but one may have slipped in between
            // recover_all and our acquisition. Recover in place.
            for (shard, guard) in guards.iter_mut().enumerate() {
                if shards[shard].health() != ShardHealth::Healthy {
                    self.recover_locked(&shards[shard], shard, &mut *guard)?;
                }
            }
            let states: Vec<EngineState<P>> = guards.iter().map(|g| g.state()).collect();
            let mut router = self.router.checkpoint();
            router.shards = states.len() as u64;
            let cut = PoolState {
                shards: states,
                router,
                remap: self.remap_entries(),
            };
            return f(&shards, cut, locked_at);
        }
    }

    /// Snapshots the pool into a serde-able [`PoolState`] with
    /// **quiesced writers**, through the shared all-shard write-lock
    /// cut (`with_cut`): no concurrent mutation can land between
    /// imaging shard `A` and shard `B`, so the snapshot is an exact
    /// cross-shard image. Restoring it yields a pool bit-identical to
    /// this one at the moment of the snapshot, even when taken
    /// mid-churn or racing a rebalance.
    ///
    /// The cost is availability: writers to *every* shard block for
    /// the duration (readers too — the engines sit behind `RwLock`s).
    ///
    /// The checkpoint doubles as each shard's recovery baseline: the
    /// acknowledged-operation log is folded into it and truncated, so
    /// periodic checkpoints bound both recovery replay time and log
    /// memory. Quarantined shards are recovered first (their state is
    /// fully reconstructible); a shard that cannot be recovered fails
    /// the checkpoint with the recovery's typed error.
    pub fn checkpoint_consistent(&self) -> Result<PoolState<P>, DivError> {
        let _span = diversity_obs::span("serve.checkpoint_consistent_ns");
        self.with_cut(|shards, cut, _| {
            // Still under every engine lock, so no acknowledged op can
            // slip between the image and the log truncation.
            for (slot, state) in shards.iter().zip(&cut.shards) {
                let mut recovery = slot.recovery.lock();
                recovery.base = state.clone();
                recovery.log.clear();
            }
            diversity_obs::count("serve.checkpoints.consistent", 1);
            Ok(cut)
        })
    }

    /// Rolling rebalance counters — committed rebalances plus the skew
    /// the most recent one saw before/after (zeroes before the first).
    /// This is what the network layer's `Stats` reply reports.
    pub fn rebalance_stats(&self) -> RebalanceStats {
        RebalanceStats {
            rebalances: self.rebalances.load(Ordering::Acquire),
            last_skew_before: f64::from_bits(self.last_skew_before.load(Ordering::Acquire)),
            last_skew_after: f64::from_bits(self.last_skew_after.load(Ordering::Acquire)),
        }
    }

    /// Rebalances the pool unconditionally (no threshold or pacing
    /// check — that is [`maybe_rebalance`](Self::maybe_rebalance)):
    /// quiesce, re-partition, swap. See `rebalance_locked` for the
    /// protocol and the soundness argument.
    pub fn rebalance(&self) -> Result<RebalanceReport, DivError> {
        let mut ctl = self.rebalance_ctl.lock();
        self.rebalance_locked(&mut ctl)
    }

    /// Rebalances iff [`skew`](Self::skew) has reached
    /// `config.threshold` **and** at least `config.min_interval_ms` has
    /// passed since the last committed rebalance. `Ok(None)` when
    /// either gate holds the pool back — the cheap, always-safe call a
    /// serving loop makes after every write burst. Concurrent callers
    /// serialize on the rebalance lock, so a churn storm triggers one
    /// rebalance per interval, not one per caller.
    pub fn maybe_rebalance(
        &self,
        config: &RebalanceConfig,
    ) -> Result<Option<RebalanceReport>, DivError> {
        let mut ctl = self.rebalance_ctl.lock();
        if self.skew() < config.threshold {
            return Ok(None);
        }
        if let Some(last) = ctl.last {
            if last.elapsed() < Duration::from_millis(config.min_interval_ms) {
                return Ok(None);
            }
        }
        self.rebalance_locked(&mut ctl).map(Some)
    }

    /// The live rebalance protocol, under the rebalance lock:
    ///
    /// 1. **Quiesce** — through `with_cut`, the all-shard write-lock
    ///    primitive [`checkpoint_consistent`](Self::checkpoint_consistent)
    ///    shares: recover every shard, then take every shard write lock
    ///    in shard order, fencing writers until the commit. In-flight
    ///    *readers* that already hold their snapshot keep extracting
    ///    from the old shards — the old set stays alive behind its
    ///    `Arc` until the last of them is done.
    /// 2. **Cut** — `with_cut` images every shard, the router and the
    ///    remap into one consistent [`PoolState`].
    /// 3. **Re-partition** — [`rebalance_state`]: greedy largest-first
    ///    reassignment, rebuilt engines, composed remap table. Runs
    ///    under `catch_unwind` with the [`faults::sites::REBALANCE`]
    ///    injection point inside, and nothing observable mutates until
    ///    step 5 — an injected panic (or any error) leaves the old pool
    ///    serving bit-identical answers: rebalance is **all-or-nothing**.
    /// 4. **Rebuild** — resume one engine per re-partitioned shard.
    /// 5. **Commit** — under the outer `shards` write lock: swap the
    ///    `Arc`, bump the swap generation (stale writers retry), fold
    ///    the remap table, bump the mutation epoch (a coalesced
    ///    follower can never be handed a pre-swap extraction), stamp
    ///    the pacing clock, publish telemetry. Pure moves and atomic
    ///    stores — this step cannot fail.
    ///
    /// ## Soundness (Definition 2)
    ///
    /// The paper states core-set composability for **arbitrary**
    /// partitions: the union of per-shard core-sets is a lawful
    /// core-set of the union of the shards, radius `max_i r_i`,
    /// regardless of which shard holds which point. The cut taken in
    /// step 2 is exact (all write locks held), the re-partition holds
    /// the same multiset of points, and the rebuilt engines are
    /// deterministic given the cut — so every quiescent query after the
    /// swap answers bit-identically to a never-rebalanced pool restored
    /// from the same cut, and its merged radius certificate certifies
    /// the same ground truth. Only placement (and therefore skew)
    /// changes.
    fn rebalance_locked(&self, ctl: &mut RebalanceCtl) -> Result<RebalanceReport, DivError> {
        let _span = diversity_obs::span("serve.rebalance_ns");
        let skew_before = self.skew();
        // Writers are fenced from the last lock acquisition to the
        // commit: that scope is the pause the report charges to the
        // rebalance.
        let (report, occupancies) = self.with_cut(|_, cut, pause_started| {
            let repartitioned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                faults::panic_point(faults::sites::REBALANCE);
                rebalance_state(&self.metric, &cut)
            }));
            let (next, fresh) = match repartitioned {
                Ok(result) => result?,
                Err(_panic) => {
                    return Err(DivError::TransientFailure {
                        site: faults::sites::REBALANCE.into(),
                    });
                }
            };
            let mut new_shards = Vec::with_capacity(next.shards.len());
            for (i, s) in next.shards.into_iter().enumerate() {
                let engine =
                    DynamicDiversity::resume(self.metric.clone(), s.clone()).map_err(|e| {
                        DivError::CorruptState {
                            reason: format!("rebalanced shard {i}: {}", e.reason),
                        }
                    })?;
                new_shards.push(Shard {
                    occupancy: AtomicUsize::new(engine.len()),
                    recovery: Mutex::new(RecoveryState {
                        base: s,
                        log: Vec::new(),
                    }),
                    engine: RwLock::new(engine),
                    health: AtomicU8::new(ShardHealth::Healthy as u8),
                });
            }
            let occupancies: Vec<usize> = new_shards
                .iter()
                .map(|s| s.occupancy.load(Ordering::Relaxed))
                .collect();
            let skew_after = self.router.skew(&occupancies);

            // Commit. Everything below is moves and atomic stores — no
            // fallible operation may appear past this comment. The remap
            // fold happens under the outer write lock so resolution and
            // shard set can never be observed straddling the swap.
            {
                let mut live = self.shards.write();
                *live = Arc::new(new_shards);
                self.generation.fetch_add(1, Ordering::AcqRel);
                let mut table = self.remap.write();
                *table = next.remap.iter().map(|e| (e.from, e.to)).collect();
                drop(table);
                self.bump_epoch();
            }
            let report = RebalanceReport {
                skew_before,
                skew_after,
                ids_remapped: fresh.len(),
                pause: pause_started.elapsed(),
            };
            Ok((report, occupancies))
        })?;
        // The cut's locks fenced the superseded set; they dropped with
        // it, and its last in-flight reader frees it.
        ctl.last = Some(Instant::now());
        self.rebalances.fetch_add(1, Ordering::AcqRel);
        self.last_skew_before
            .store(skew_before.to_bits(), Ordering::Release);
        self.last_skew_after
            .store(report.skew_after.to_bits(), Ordering::Release);
        diversity_obs::count("serve.rebalances", 1);
        diversity_obs::count("serve.ids_remapped", report.ids_remapped as u64);
        if diversity_obs::enabled() {
            for (shard, occupancy) in occupancies.iter().enumerate() {
                diversity_obs::gauge_set(&self.gauge_names[shard], *occupancy as i64);
            }
        }
        Ok(report)
    }
}

/// What a mutation produced (see `ShardPool::mutate`).
enum MutOutcome {
    Inserted(PointId),
    Deleted(bool),
}
