//! Admission-control stress test for the serving front end.
//!
//! The sharded service is `Sync`, so the realistic deployment shape is one
//! shared handle with many request threads and a drain loop. This test
//! drives that shape on one shard with deliberately bursty producers
//! against a small bounded queue and checks the admission-control
//! contract end to end:
//!
//! - overload is an explicit, immediate [`ServeError::Overloaded`], never
//!   unbounded buffering or a block;
//! - the system never deadlocks (the test itself completes);
//! - the books balance exactly: every submitted request is either admitted
//!   or rejected, and every admitted request is either decided, dropped as
//!   stale, or still queued at shutdown — as seen both by the callers and
//!   by the service's own telemetry counters.

use pfrl_core::experiment::{run_federation, Algorithm};
use pfrl_core::fed::{FedConfig, PolicySnapshot};
use pfrl_core::nn::{Activation, Mlp};
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::serve::{
    PolicyStore, RampStatus, ServeError, ShardedDecisionService, ShardedServeConfig,
};
use pfrl_core::sim::{EnvConfig, EnvDims, VmSpec};
use pfrl_core::telemetry::{InMemoryRecorder, Telemetry};
use pfrl_core::workloads::DatasetId;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const PRODUCERS: usize = 8;
const BURSTS_PER_PRODUCER: usize = 60;
const BURST_SIZE: usize = 10;
const QUEUE_CAPACITY: usize = 16;

fn stress_service(recorder: Arc<InMemoryRecorder>) -> ShardedDecisionService {
    let (_, trained) = run_federation(
        Algorithm::PfrlDm,
        table2_clients(40, 5),
        TABLE2_DIMS,
        EnvConfig::default(),
        PpoConfig::default(),
        FedConfig {
            episodes: 2,
            comm_every: 1,
            participation_k: 2,
            tasks_per_episode: Some(10),
            seed: 5,
            parallel: false,
        },
    );
    let store = PolicyStore::from_snapshots(trained.policy_snapshots()).expect("snapshots load");
    ShardedDecisionService::new(
        store,
        ShardedServeConfig { shards: 1, queue_capacity: QUEUE_CAPACITY, max_batch: 4 },
    )
    .with_telemetry(Telemetry::new(recorder))
}

#[test]
fn bursty_overload_rejects_explicitly_and_counters_balance() {
    let recorder = Arc::new(InMemoryRecorder::new());
    let svc = stress_service(recorder.clone());

    // One session per producer, each with a long episode so sessions stay
    // decidable for most of the run (completed episodes exercise the stale
    // path instead — both are legitimate fates for an admitted request).
    let client = svc.store().clients()[0].to_string();
    let tasks = DatasetId::Google.model().sample(200, 11);
    let mut session_ids = Vec::with_capacity(PRODUCERS);
    for _ in 0..PRODUCERS {
        let id = svc.open_session(&client).expect("open session");
        svc.begin_episode(id, &tasks).expect("begin episode");
        session_ids.push(id);
    }

    let admitted = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let decided = Arc::new(AtomicU64::new(0));
    let producers_done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut producers = Vec::with_capacity(PRODUCERS);
        for &id in &session_ids {
            let svc = &svc;
            let admitted = Arc::clone(&admitted);
            let rejected = Arc::clone(&rejected);
            producers.push(scope.spawn(move || {
                for burst in 0..BURSTS_PER_PRODUCER {
                    // A whole burst is fired back to back, and a wave
                    // serves each session once, so the queue overflows.
                    for _ in 0..BURST_SIZE {
                        match svc.submit(id) {
                            Ok(()) => {
                                admitted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServeError::Overloaded { capacity }) => {
                                assert_eq!(capacity, QUEUE_CAPACITY);
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("unexpected serve error: {e}"),
                        }
                    }
                    if burst % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }

        // Drain loop: keeps consuming while producers run, then empties
        // what is left so nothing is unaccounted for.
        let drain_svc = &svc;
        let drain_decided = Arc::clone(&decided);
        let drain_done = Arc::clone(&producers_done);
        let drainer = scope.spawn(move || loop {
            let outstanding = {
                let n = drain_svc.decide_wave(0).len();
                drain_decided.fetch_add(n as u64, Ordering::Relaxed);
                n.max(drain_svc.queue_depth())
            };
            if outstanding == 0 {
                if drain_done.load(Ordering::Acquire) {
                    break;
                }
                std::thread::yield_now();
            }
        });

        for p in producers {
            p.join().expect("producer panicked");
        }
        producers_done.store(true, Ordering::Release);
        drainer.join().expect("drainer panicked");
    });

    let submitted = (PRODUCERS * BURSTS_PER_PRODUCER * BURST_SIZE) as u64;
    let admitted = admitted.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    let decided = decided.load(Ordering::Relaxed);

    // Caller-side ledger: every request has exactly one fate at the door.
    assert_eq!(admitted + rejected, submitted, "admission ledger out of balance");
    assert!(rejected > 0, "bursts never overflowed a {QUEUE_CAPACITY}-slot queue");
    assert!(admitted > 0, "nothing was ever admitted");

    // Service-side ledger must agree with the callers exactly.
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("serve/admitted"), admitted, "service admitted count diverges");
    assert_eq!(snap.counter("serve/rejected"), rejected, "service rejected count diverges");

    // Every admitted request was decided, dropped as stale (its episode
    // finished first), or is still queued — no request vanishes.
    let stale = snap.counter("serve/stale");
    assert_eq!(svc.ledger().stale, stale, "stale counter diverges from the ledger");
    let queued = svc.queue_depth() as u64;
    assert_eq!(
        decided + stale + queued,
        admitted,
        "admitted requests unaccounted for: {decided} decided + {stale} stale + {queued} queued"
    );
    assert_eq!(snap.counter("serve/decisions"), decided, "decision counter diverges");
}

// --- sharded hot-swap ramp under load -------------------------------------

const RAMP_SHARDS: usize = 4;
const RAMP_PRODUCERS: usize = 8;
const RAMP_BURSTS: usize = 50;
const RAMP_BURST_SIZE: usize = 6;
const SHADOW_TARGET: u64 = 32;

/// A forged but fully valid snapshot (same recipe as the serve crate's own
/// test fixture) — training is irrelevant to ramp mechanics.
fn forged_snapshot(client: &str, version: u64, weight_seed: u64) -> PolicySnapshot {
    let dims = EnvDims::new(2, 8, 64.0, 3);
    let hidden = PpoConfig::default().hidden;
    let actor = Mlp::new(
        &[dims.state_dim(), hidden, dims.action_dim()],
        Activation::Tanh,
        &mut SmallRng::seed_from_u64(weight_seed),
    );
    PolicySnapshot {
        algorithm: "PFRL-DM".into(),
        client: client.into(),
        version,
        dims,
        env_cfg: EnvConfig::default(),
        vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
        hidden,
        mask_actions: true,
        actor_params: actor.flat_params(),
    }
}

/// The hot-swap ramp contract under bursty multi-threaded load:
///
/// - a second publish while a ramp is shadowing is refused;
/// - the shadow-evaluated candidate commits during the load, and from each
///   session's point of view the served version is monotone — once a
///   session decides on the new version, the retired snapshot never serves
///   it again;
/// - after the fleet quiesces, one more wave per session decides
///   exclusively on the committed version;
/// - the merged shard ledger balances exactly against both the callers'
///   counts and the telemetry counters;
/// - a poisoned candidate (NaN parameters) rolls back automatically
///   without ever serving or shadowing a decision.
#[test]
fn version_ramp_under_bursty_load_commits_monotonically_and_rolls_back_poison() {
    let v1 = forged_snapshot("prod", 1, 42);
    let mut v2 = v1.clone();
    v2.version = 2;
    // A genuinely different but finite candidate.
    for p in &mut v2.actor_params {
        *p = *p * 0.875 + 0.001;
    }
    let mut poisoned = v1.clone();
    poisoned.version = 3;
    poisoned.actor_params[0] = f32::NAN;

    let recorder = Arc::new(InMemoryRecorder::new());
    let store = PolicyStore::from_snapshots(vec![v1]).expect("valid snapshot");
    let svc = Arc::new(
        ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards: RAMP_SHARDS, queue_capacity: 32, max_batch: 8 },
        )
        .with_telemetry(Telemetry::new(recorder.clone())),
    );

    let tasks = DatasetId::Google.model().sample(300, 19);
    let mut session_ids = Vec::with_capacity(RAMP_PRODUCERS);
    for _ in 0..RAMP_PRODUCERS {
        let id = svc.open_session("prod").expect("open session");
        svc.begin_episode(id, &tasks).expect("begin episode");
        session_ids.push(id);
    }

    // Start the ramp before any wave runs: deterministically still in
    // shadow, so a competing publish must be refused.
    let handle = svc.publish(&v2, SHADOW_TARGET).expect("ramp starts");
    assert_eq!(handle.status(), RampStatus::Shadow);
    assert!(
        matches!(svc.publish(&v2, 1), Err(ServeError::RampRejected(_))),
        "publish while shadowing must be refused"
    );

    let admitted = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let producers_done = Arc::new(AtomicBool::new(false));

    // (session, version) in served order, one stream per shard drainer.
    // A session is owned by exactly one shard, so per-session order is
    // preserved within its drainer's stream.
    let mut version_streams: Vec<Vec<(u64, u64)>> = Vec::new();

    std::thread::scope(|scope| {
        let mut producers = Vec::with_capacity(RAMP_PRODUCERS);
        for &id in &session_ids {
            let svc = Arc::clone(&svc);
            let admitted = Arc::clone(&admitted);
            let rejected = Arc::clone(&rejected);
            producers.push(scope.spawn(move || {
                for burst in 0..RAMP_BURSTS {
                    for _ in 0..RAMP_BURST_SIZE {
                        match svc.submit(id) {
                            Ok(()) => {
                                admitted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServeError::Overloaded { .. }) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("unexpected serve error: {e}"),
                        }
                    }
                    if burst % 5 == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }

        let mut drainers = Vec::with_capacity(RAMP_SHARDS);
        for shard in 0..RAMP_SHARDS {
            let svc = Arc::clone(&svc);
            let done = Arc::clone(&producers_done);
            drainers.push(scope.spawn(move || {
                let mut stream: Vec<(u64, u64)> = Vec::new();
                loop {
                    let batch = svc.decide_wave(shard);
                    let drained = batch.len();
                    for (id, d) in batch {
                        stream.push((id, d.version));
                    }
                    if drained == 0 {
                        // Producers stopped and this shard's queue is dry.
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                stream
            }));
        }

        for p in producers {
            p.join().expect("producer panicked");
        }
        producers_done.store(true, Ordering::Release);
        for d in drainers {
            version_streams.push(d.join().expect("drainer panicked"));
        }
    });

    // The candidate shadowed enough healthy decisions to commit.
    assert_eq!(handle.status(), RampStatus::Committed, "finite candidate must commit");
    assert!(handle.shadowed() >= SHADOW_TARGET, "shadowed {} < target", handle.shadowed());

    // Per-session version monotonicity: once v2 serves a session, v1 is
    // retired for it — no decision ever goes back.
    let mut last_version = std::collections::BTreeMap::new();
    let mut v2_seen = 0u64;
    for (id, version) in version_streams.iter().flatten() {
        let prev = last_version.insert(*id, *version).unwrap_or(1);
        assert!(
            *version >= prev,
            "session {id}: version regressed {prev} -> {version} after cutover"
        );
        if *version == 2 {
            v2_seen += 1;
        }
    }
    assert!(v2_seen > 0, "load ended before any post-commit decision; raise RAMP_BURSTS");

    // Caller-side and service-side ledgers agree exactly.
    let decided: u64 = version_streams.iter().map(|s| s.len() as u64).sum();
    let admitted = admitted.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    assert_eq!(
        admitted + rejected,
        (RAMP_PRODUCERS * RAMP_BURSTS * RAMP_BURST_SIZE) as u64,
        "admission ledger out of balance"
    );
    let ledger = svc.ledger();
    assert_eq!(ledger.admitted, admitted, "service admitted count diverges");
    assert_eq!(ledger.rejected, rejected, "service rejected count diverges");
    assert_eq!(ledger.queued, 0, "drainers left requests queued");
    assert_eq!(
        ledger.decisions + ledger.stale,
        ledger.admitted,
        "admitted requests unaccounted for"
    );
    assert_eq!(ledger.decisions, decided, "decision counter diverges");
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("serve/admitted"), admitted);
    assert_eq!(snap.counter("serve/rejected"), rejected);
    assert_eq!(snap.counter("serve/decisions"), decided);
    assert_eq!(snap.counter("serve/ramp_committed"), 1);
    assert_eq!(snap.counter("serve/ramp_rollbacks"), 0);

    // Quiesced fleet: every session now serves the committed version and
    // nothing else.
    for &id in &session_ids {
        svc.begin_episode(id, &tasks).expect("session still open");
        svc.submit(id).expect("queue drained");
    }
    let mut final_decisions = 0usize;
    for shard in 0..RAMP_SHARDS {
        for (_, d) in svc.decide_wave(shard) {
            assert_eq!(d.version, 2, "retired snapshot served after cutover");
            final_decisions += 1;
        }
    }
    assert_eq!(final_decisions, RAMP_PRODUCERS, "every session must decide post-cutover");

    // A poisoned candidate never shadows, never serves: automatic rollback.
    let handle = svc.publish(&poisoned, 1).expect("publish returns an observable handle");
    assert_eq!(handle.status(), RampStatus::RolledBack, "NaN candidate must roll back");
    assert_eq!(handle.shadowed(), 0, "poisoned candidate must never shadow-decide");
    for &id in &session_ids {
        svc.submit(id).expect("queue drained");
    }
    for shard in 0..RAMP_SHARDS {
        for (_, d) in svc.decide_wave(shard) {
            assert_eq!(d.version, 2, "rolled-back candidate leaked into serving");
        }
    }
    assert_eq!(recorder.snapshot().counter("serve/ramp_rollbacks"), 1);
}
