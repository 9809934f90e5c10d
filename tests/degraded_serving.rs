//! Degradation and recovery laws of the serving layer.
//!
//! * **Degradation law** (proptest): for *any* subset of quarantined
//!   shards, the degraded answer's value sits inside the
//!   structure-reported accuracy envelope of a fresh `run_seq` on the
//!   surviving points, and its certificate `certifies` exactly those
//!   survivors — dropping shards from `Coreset::merge` is sound
//!   (Definition 2 / Lemmas 3–4: the union of the surviving artifacts
//!   is a valid core-set of the union of the surviving shards).
//! * **Recovery round-trip**: an injected panic → quarantine →
//!   recovery leaves the pool bit-identical to one that never failed —
//!   checkpoints, selections, and values all compare equal.
//! * **Corrupt-restore regressions**: truncated and bit-flipped
//!   checkpoints are rejected with the typed
//!   [`DivError::CorruptState`], never a panic, never a half-restored
//!   pool.
//! * **Deadline budgets**: an expired budget degrades deterministically
//!   (all shards skipped ⇒ [`DivError::PoolUnavailable`]); a generous
//!   one answers identically to the unbounded query.

use diversity::prelude::*;
use diversity_faults as faults;
use diversity_serve::{
    value_loss, PoolState, RouterState, Serve, ShardHealth, ShardPool, ShardedId,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, Once};
use std::time::Duration;

/// Every test that builds a pool is serialized: a sibling's
/// process-global fault plan would otherwise hit its seed inserts.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// Injected panics are expected; keep them off stderr.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn gen_point(i: u64) -> VecPoint {
    let mut z = i
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z ^= z >> 29;
    z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 32;
    VecPoint::from([(z % 1_000) as f64 * 0.2, ((z >> 32) % 1_000) as f64 * 0.3])
}

/// A 4-shard pool with 20 deterministic points per shard (explicit
/// placement, so quarantining shard `s` removes exactly its 20).
fn seeded_pool(task: &Task) -> ShardPool<VecPoint, Euclidean> {
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 4).expect("pool");
    for i in 0..80u64 {
        pool.insert_to((i % 4) as usize, gen_point(i))
            .expect("seed");
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any proper, non-empty subset of quarantined shards the
    /// degraded answer stays inside the certified envelope of fresh
    /// ground truth on the survivors, its certificate certifies them,
    /// and its coverage fraction accounts for the skipped shards'
    /// last-known occupancy exactly.
    #[test]
    fn degraded_answers_stay_certified_for_any_quarantined_subset(mask in 1usize..15) {
        let _serial = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let problem = Problem::RemoteEdge;
        let k = 4;
        let task = Task::new(problem, k).budget(Budget::KPrime(16));
        let pool = seeded_pool(&task);
        let k_prime = task.dynamic_k_prime(pool.config()).expect("valid budget");

        let skipped: Vec<usize> = (0..4).filter(|s| mask & (1 << s) != 0).collect();
        for &s in &skipped {
            pool.quarantine(s);
        }

        let report = pool.query(&task).expect("some shard always survives");
        let d = report.degradation.as_ref().expect("skips must degrade");
        prop_assert_eq!(&d.skipped_shards, &skipped);
        prop_assert_eq!(d.shards_total, 4);
        prop_assert_eq!(d.shards_answered, 4 - skipped.len());
        let expected_coverage = (80 - 20 * skipped.len()) as f64 / 80.0;
        prop_assert!((d.coverage - expected_coverage).abs() < 1e-12,
            "coverage {} vs expected {}", d.coverage, expected_coverage);

        // The certificate is scoped to — and certifies — the survivors.
        let survivors: Vec<VecPoint> = pool.alive().into_iter().map(|(_, p)| p).collect();
        prop_assert_eq!(survivors.len(), 80 - 20 * skipped.len());
        let surviving = pool.coreset(problem, k, k_prime);
        prop_assert_eq!(Some(surviving.radius()), report.coreset_radius);
        prop_assert!(surviving.certifies(&survivors, &Euclidean, 1e-9));

        // And the degraded value keeps the structure-reported accuracy
        // envelope over exactly those survivors.
        let fresh = task.run_seq(&survivors, &Euclidean).expect("ground truth");
        let radius = report.coreset_radius.expect("certified");
        let loss = value_loss(problem, k, radius);
        prop_assert!(
            problem.alpha() * report.value + loss >= fresh.value - 1e-9,
            "degraded {} below certified envelope of fresh {}",
            report.value, fresh.value
        );

        // Recovery restores full answers: no degradation block, and the
        // full merge certifies everything again.
        pool.recover_all().expect("administrative quarantines recover");
        let full = pool.query(&task).expect("recovered pool");
        prop_assert!(full.degradation.is_none());
        let everything: Vec<VecPoint> = pool.alive().into_iter().map(|(_, p)| p).collect();
        prop_assert_eq!(everything.len(), 80);
        prop_assert!(pool.coreset(problem, k, k_prime).certifies(&everything, &Euclidean, 1e-9));
    }
}

/// With every shard quarantined, nothing can answer: the typed
/// [`DivError::PoolUnavailable`], not a panic or an empty report.
#[test]
fn fully_quarantined_pool_refuses_typed() {
    let _serial = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
    let pool = seeded_pool(&task);
    for s in 0..4 {
        pool.quarantine(s);
    }
    assert_eq!(
        pool.query(&task).unwrap_err(),
        DivError::PoolUnavailable {
            healthy: 0,
            total: 4
        }
    );
    assert_eq!(
        pool.len(),
        0,
        "quarantined shards leave the serving population"
    );
    pool.recover_all().expect("all recover");
    assert_eq!(pool.len(), 80);
    pool.query(&task).expect("fully recovered");
}

/// The recovery round-trip is lossless to the bit: a pool that panicked
/// mid-insert, quarantined, and recovered answers — and checkpoints —
/// identically to a pool that never failed.
#[test]
fn recovered_pool_is_bit_identical_to_a_never_failed_one() {
    let _serial = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let task = Task::new(Problem::RemoteClique, 3).budget(Budget::KPrime(18));

    // Identical explicit placements on both pools (no router drift).
    let build = || {
        let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 3).expect("pool");
        for i in 0..45u64 {
            pool.insert_to((i % 3) as usize, gen_point(i))
                .expect("seed");
        }
        pool
    };
    let failed = build();
    let pristine = build();

    // Inject: both mutation attempts panic, the insert is refused, the
    // shard ends quarantined-then-recovered with the op NOT applied.
    faults::install(Arc::new(faults::FaultPlan::from_spec(faults::FaultSpec {
        panic: 1.0,
        ..faults::FaultSpec::from_seed(99)
    })));
    let refused = failed.insert_to(0, gen_point(1000));
    faults::uninstall();
    assert!(
        matches!(refused, Err(DivError::ShardUnavailable { shard: 0 })),
        "got {refused:?}"
    );
    failed.recover_all().expect("recovers once faults stop");
    assert!(failed.healths().iter().all(|h| *h == ShardHealth::Healthy));

    // Re-apply the refused operation on both pools; every subsequent
    // handle must agree — id assignment never drifted.
    let a = failed.insert_to(0, gen_point(1000)).expect("healthy again");
    let b = pristine
        .insert_to(0, gen_point(1000))
        .expect("never failed");
    assert_eq!(a, b, "the failed+recovered pool assigns the same handle");

    let json_failed =
        serde_json::to_string(&failed.checkpoint().expect("checkpoint")).expect("serialize");
    let json_pristine =
        serde_json::to_string(&pristine.checkpoint().expect("checkpoint")).expect("serialize");
    assert_eq!(
        json_failed, json_pristine,
        "checkpoints are byte-identical after recovery"
    );

    let qa = failed.query(&task).expect("query");
    let qb = pristine.query(&task).expect("query");
    assert_eq!(qa.indices, qb.indices);
    assert_eq!(qa.value.to_bits(), qb.value.to_bits());
    assert_eq!(
        qa.coreset_radius.map(f64::to_bits),
        qb.coreset_radius.map(f64::to_bits)
    );
}

/// Corrupt pool checkpoints are rejected with the typed error — every
/// flavor: no shards, mismatched shard configurations, truncated wire
/// text, and structural corruption (dangling links) inside a shard.
#[test]
fn corrupt_pool_checkpoints_are_rejected_typed() {
    let _serial = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
    let pool = seeded_pool(&task);
    let state = pool.checkpoint().expect("checkpoint");
    let json = serde_json::to_string(&state).expect("serialize");

    // Zero shards: structurally empty states cannot restore.
    let err = ShardPool::<VecPoint, Euclidean>::restore(
        Euclidean,
        PoolState {
            shards: vec![],
            router: RouterState {
                kind: "round-robin".into(),
                cursor: 0,
                shards: 0,
            },
            remap: vec![],
        },
    )
    .expect_err("no shards");
    assert!(matches!(err, DivError::CorruptState { .. }), "got {err}");

    // Mismatched per-shard configurations.
    let mut mismatched = state.clone();
    mismatched.shards[2].epsilon *= 2.0;
    let err = ShardPool::restore(Euclidean, mismatched).expect_err("mismatch");
    assert!(
        matches!(&err, DivError::CorruptState { reason } if reason.contains("configuration")),
        "got {err}"
    );

    // Truncated wire text: rejected at parse (the serde layer).
    assert!(serde_json::from_str::<PoolState<VecPoint>>(&json[..json.len() - 7]).is_err());

    // Bit-flipped structure that still parses: a dangling parent link
    // inside shard 1 must surface as CorruptState, naming the shard.
    // Detach the victim from its old parent's child list too, so the
    // dangling link is the *only* defect regardless of which node the
    // validator visits first.
    let mut flipped = state.clone();
    let victim = flipped.shards[1].nodes[1].id;
    for node in &mut flipped.shards[1].nodes {
        node.children.retain(|&c| c != victim);
    }
    flipped.shards[1].nodes[1].parent = Some(9_999);
    let err = ShardPool::restore(Euclidean, flipped).expect_err("dangling");
    match &err {
        DivError::CorruptState { reason } => {
            assert!(reason.contains("shard 1"), "names the shard: {reason}");
            assert!(
                reason.contains("dangling parent"),
                "names the defect: {reason}"
            );
        }
        other => panic!("got {other}"),
    }

    // The untouched state still restores and answers.
    let restored = ShardPool::restore(Euclidean, state).expect("clean state restores");
    assert_eq!(restored.len(), pool.len());
    assert_eq!(
        restored.query(&task).expect("query").value.to_bits(),
        pool.query(&task).expect("query").value.to_bits()
    );
}

/// Deadline budgets degrade deterministically: an already-expired
/// budget skips every shard (typed refusal), a generous one answers
/// exactly like the unbounded query.
#[test]
fn deadline_budgets_degrade_deterministically() {
    let _serial = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let task = Task::new(Problem::RemoteEdge, 4).budget(Budget::KPrime(16));
    let pool = seeded_pool(&task);

    assert_eq!(
        pool.query_within(&task, Duration::ZERO).unwrap_err(),
        DivError::PoolUnavailable {
            healthy: 0,
            total: 4
        },
        "an expired budget answers from no shard"
    );

    let bounded = pool
        .query_within(&task, Duration::from_secs(60))
        .expect("a generous budget answers");
    let unbounded = pool.query(&task).expect("unbounded");
    assert!(bounded.degradation.is_none());
    assert_eq!(bounded.indices, unbounded.indices);
    assert_eq!(bounded.value.to_bits(), unbounded.value.to_bits());
}

/// Updates refused mid-fault leave no trace: a delete refused by an
/// unavailable shard keeps its target alive, and the handle space
/// stays consistent (decode∘encode is identity on everything alive).
#[test]
fn refused_operations_leave_no_trace() {
    let _serial = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();
    let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
    let pool = seeded_pool(&task);
    let victim = pool.alive()[0].0;
    let before = pool.len();

    faults::install(Arc::new(faults::FaultPlan::from_spec(faults::FaultSpec {
        panic: 1.0,
        ..faults::FaultSpec::from_seed(5)
    })));
    let refused = pool.delete(victim);
    faults::uninstall();
    assert!(matches!(refused, Err(DivError::ShardUnavailable { .. })));

    pool.recover_all().expect("recover");
    assert_eq!(pool.len(), before, "the refused delete was not applied");
    assert!(pool.point(victim).is_some(), "the victim is still alive");
    assert!(
        pool.delete(victim).expect("healthy delete"),
        "now it deletes"
    );
    for (id, _) in pool.alive() {
        assert_eq!(ShardedId::decode(id.encode()), id);
    }
}
