//! Steady-state allocation audit of the training and inference hot paths.
//!
//! A counting `#[global_allocator]` wrapper tallies every allocation in the
//! process. After a warmup pass has sized all workspaces, a full PPO
//! train-episode + update, a dual-critic update, a public-critic receipt,
//! the public-critic loss probe, and per-decision greedy inference must
//! allocate **zero** bytes.
//!
//! Both measurements live in one `#[test]` because the counters are
//! process-global and libtest runs sibling tests on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pfrl_core::fed::{
    ClientSetup, FedAvgRunner, FedConfig, MfpoRunner, PfrlDmRunner, PolicySnapshot,
};
use pfrl_core::nn::{Activation, Mlp, MultiHeadConfig};
use pfrl_core::rl::{policy, DualCriticAgent, PpoAgent, PpoConfig};
use pfrl_core::serve::Session;
use pfrl_core::sim::{Action, CloudEnv, EnvConfig, EnvDims, VmSpec};
use pfrl_core::workloads::DatasetId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns `(alloc_calls, alloc_bytes, result)` for it alone.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let calls0 = ALLOC_CALLS.load(Ordering::SeqCst);
    let bytes0 = ALLOC_BYTES.load(Ordering::SeqCst);
    let out = f();
    let calls = ALLOC_CALLS.load(Ordering::SeqCst) - calls0;
    let bytes = ALLOC_BYTES.load(Ordering::SeqCst) - bytes0;
    (calls, bytes, out)
}

#[test]
fn hot_paths_are_allocation_free_after_warmup() {
    let dims = EnvDims::new(2, 8, 64.0, 3);
    let mut env =
        CloudEnv::new(dims, vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)], EnvConfig::default());
    let tasks = DatasetId::K8s.model().sample(25, 5);

    let mut ppo = PpoAgent::new(dims.state_dim(), dims.action_dim(), PpoConfig::default(), 1);
    let mut dual =
        DualCriticAgent::new(dims.state_dim(), dims.action_dim(), PpoConfig::default(), 9);

    // Warmup: size every workspace (scratch matrices, rollout buffer, env
    // queues) to its steady-state capacity. Episode length shifts while the
    // policy is still moving, so run enough episodes for the longest
    // trajectory (and thus every batch-sized workspace) to have been seen.
    // The run is fully deterministic (seeded agents, fixed task set).
    for _ in 0..12 {
        env.reset(tasks.clone());
        ppo.train_one_episode(&mut env);
        env.reset(tasks.clone());
        dual.train_one_episode(&mut env);
        env.reset(tasks.clone());
        ppo.evaluate(&mut env);
    }

    // Steady-state PPO train episode + update. The task clone happens before
    // measurement; `reset` itself only moves the vec into the queue.
    let warm_tasks = tasks.clone();
    let (calls, bytes, _) = count_allocs(|| {
        env.reset(warm_tasks);
        ppo.train_one_episode(&mut env)
    });
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "PPO train episode + update allocated {calls} times / {bytes} bytes after warmup"
    );

    // Steady-state dual-critic (PFRL-DM) episode + update, including the
    // inlined alpha refresh.
    let warm_tasks = tasks.clone();
    let (calls, bytes, _) = count_allocs(|| {
        env.reset(warm_tasks);
        dual.train_one_episode(&mut env)
    });
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "dual-critic train episode + update allocated {calls} times / {bytes} bytes after warmup"
    );

    // Steady-state receipt of a public critic, as every PFRL-DM client gets
    // one each round: installing it and refreshing α (Eq. 15) re-derives
    // the batch into the agent's scratch and runs both critics through
    // their workspaces. The incoming parameters are built outside the
    // measured region; one warm receipt sizes nothing new, so a second
    // must stay off the heap and land on the same α.
    let incoming: Vec<f32> = dual.local_critic.flat_params().iter().map(|p| 0.5 * p).collect();
    dual.receive_public_critic(&incoming);
    let warm_alpha = dual.alpha();
    let (calls, bytes, _) = count_allocs(|| dual.receive_public_critic(&incoming));
    assert_eq!(dual.alpha().to_bits(), warm_alpha.to_bits(), "receipt is deterministic");
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "receive_public_critic allocated {calls} times / {bytes} bytes after warmup"
    );

    // `L_ψ`, as PFRL-DM probes it before and after every traced
    // aggregation: the public critic's loss through the agent's scratch.
    let (calls, bytes, loss) = count_allocs(|| dual.public_critic_loss());
    assert!(loss.is_finite(), "public-critic loss is finite");
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "public_critic_loss allocated {calls} times / {bytes} bytes after warmup"
    );

    // Per-decision greedy inference: the exact observe → forward → mask →
    // argmax → step loop the agents run, measured over a full episode.
    // (End-of-episode `metrics()` summarization is diagnostics, not the
    // per-decision path, and is computed outside the measured region.)
    let mut rng = SmallRng::seed_from_u64(3);
    let mut actor =
        Mlp::new(&[dims.state_dim(), 64, 64, dims.action_dim()], Activation::Tanh, &mut rng);
    let mut state = Vec::new();
    let mut logits = Vec::new();
    let mut mask = Vec::new();
    let run_episode = |env: &mut CloudEnv,
                       actor: &mut Mlp,
                       state: &mut Vec<f32>,
                       logits: &mut Vec<f32>,
                       mask: &mut Vec<bool>| {
        let mut decisions = 0usize;
        loop {
            env.observe_into(state);
            actor.forward_one_into(state, logits);
            env.action_mask_into(mask);
            policy::apply_mask(logits, mask);
            let a = policy::greedy_action(logits);
            decisions += 1;
            if env.step(Action::from_index(a, dims.max_vms)).done {
                return decisions;
            }
        }
    };

    env.reset(tasks.clone());
    run_episode(&mut env, &mut actor, &mut state, &mut logits, &mut mask);

    let warm_tasks = tasks.clone();
    let (calls, bytes, decisions) = count_allocs(|| {
        env.reset(warm_tasks);
        run_episode(&mut env, &mut actor, &mut state, &mut logits, &mut mask)
    });
    assert!(decisions > 0, "inference episode made no decisions");
    assert!(env.metrics().tasks_placed > 0, "inference episode placed no tasks");
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "greedy inference allocated {calls} times / {bytes} bytes after warmup"
    );

    // Steady-state event core: the discrete-event calendar itself — event
    // pops, lazy arrival rescheduling, completion handling via `Vm::finish`,
    // and horizon jumps — must stay off the heap once the binary heap has
    // its capacity. A sparse trace maximizes calendar traffic per decision
    // (every wait is a far jump). `reset` is inside the measured region:
    // clearing the calendar retains its buffer.
    let mut sparse_tasks = DatasetId::HpcKs.model().sample(30, 11);
    for t in &mut sparse_tasks {
        t.arrival *= 8;
    }
    let mut ev_env =
        CloudEnv::new(dims, vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)], EnvConfig::default());
    assert_eq!(ev_env.time_engine(), pfrl_core::sim::TimeEngine::Event);
    let first_fit_episode = |env: &mut CloudEnv| {
        let mut decisions = 0usize;
        loop {
            let a = env.first_fit_action().unwrap_or(Action::Wait);
            decisions += 1;
            if env.step(a).done {
                return decisions;
            }
        }
    };
    for _ in 0..3 {
        ev_env.reset(sparse_tasks.clone());
        first_fit_episode(&mut ev_env);
    }
    let warm_tasks = sparse_tasks.clone();
    let (calls, bytes, decisions) = count_allocs(|| {
        ev_env.reset(warm_tasks);
        first_fit_episode(&mut ev_env)
    });
    assert!(decisions > 0, "event-core episode made no decisions");
    assert!(ev_env.events() > 0, "event-core episode applied no events");
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "event-core episode (reset + calendar-driven first-fit) allocated {calls} times / {bytes} bytes after warmup"
    );

    // A workflow episode's event loop (release chains + completion-driven
    // ready propagation). Its `reset_workflows` rebuilds dependency tables
    // and is allowed to allocate, so only the decision loop is measured.
    use pfrl_core::workloads::WorkflowModel;
    let wf_model = WorkflowModel::scientific(DatasetId::K8s.model());
    let workflows = wf_model.sample(4, 17);
    let mut dag_env =
        CloudEnv::new(dims, vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)], EnvConfig::default());
    let dag_episode = |env: &mut CloudEnv| {
        let mut decisions = 0usize;
        while !env.is_done() {
            let a = env.first_fit_action().unwrap_or(Action::Wait);
            env.step(a);
            decisions += 1;
        }
        decisions
    };
    for _ in 0..3 {
        dag_env.reset_workflows(workflows.clone());
        dag_episode(&mut dag_env);
    }
    dag_env.reset_workflows(workflows.clone());
    let (calls, bytes, decisions) = count_allocs(|| dag_episode(&mut dag_env));
    assert!(decisions > 0, "DAG event-core episode made no decisions");
    assert!(dag_env.events() > 0, "DAG event-core episode applied no events");
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "DAG event-core episode allocated {calls} times / {bytes} bytes after warmup"
    );

    // Steady-state serving: a `pfrl-serve` Session's decide loop over a
    // full episode. The session reuses its own scratch buffers, so
    // after one warmup episode (and the `begin_episode` task copy, which
    // stays outside the measured region) each decision allocates nothing.
    let mut rng = SmallRng::seed_from_u64(8);
    let hidden = PpoConfig::default().hidden;
    let serve_actor =
        Mlp::new(&[dims.state_dim(), hidden, dims.action_dim()], Activation::Tanh, &mut rng);
    let snapshot = PolicySnapshot {
        algorithm: "PFRL-DM".into(),
        client: "steady".into(),
        version: 1,
        dims,
        env_cfg: EnvConfig::default(),
        vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
        hidden,
        mask_actions: true,
        actor_params: serve_actor.flat_params(),
    };
    let mut session = Session::new(&snapshot).expect("snapshot instantiates");
    session.begin_episode(&tasks);
    while !session.decide().done {}

    session.begin_episode(&tasks);
    let (calls, bytes, decisions) = count_allocs(|| {
        let mut n = 1usize;
        while !session.decide().done {
            n += 1;
        }
        n
    });
    assert!(decisions > 0, "serving episode made no decisions");
    assert!(session.metrics().tasks_placed > 0, "serving episode placed no tasks");
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "serve Session::decide allocated {calls} times / {bytes} bytes after warmup"
    );

    // Steady-state sharded serving: submit_many → per-shard wave drains
    // (batched-GEMM decisions). After a warmup pass has sized the per-shard
    // plans, wave buffers, queues, and the caller's output vector, the
    // whole admission → wave → decision cycle must stay off the heap.
    // Telemetry is noop, as in any latency-critical deployment of the
    // sharded front end.
    use pfrl_core::serve::{PolicyStore, ShardedDecisionService, ShardedServeConfig};
    let sharded_store =
        PolicyStore::from_snapshots(vec![snapshot.clone()]).expect("snapshot loads");
    let sharded = ShardedDecisionService::new(
        sharded_store,
        ShardedServeConfig { shards: 4, queue_capacity: 64, max_batch: 16 },
    );
    let mut wave_ids: Vec<_> =
        (0..12).map(|_| sharded.open_session("steady").expect("open session")).collect();
    // Shard-grouped ids let submit_many take one lock per shard per round.
    wave_ids.sort_by_key(|&id| id & 0xff);
    let long_tasks = DatasetId::K8s.model().sample(60, 13);
    for &id in &wave_ids {
        sharded.begin_episode(id, &long_tasks).expect("begin episode");
    }
    // Warmup must cover a *complete* episode per session: the environment's
    // internal queues grow with episode progress, so measuring beyond the
    // warmup's episode position would observe their reallocation, not the
    // serving path's. Requests for already-finished episodes drop as stale,
    // which is itself part of the warmed path.
    let mut wave_out = Vec::new();
    for _ in 0..250 {
        sharded.submit_many(&wave_ids);
        for s in 0..4 {
            sharded.decide_wave_into(s, &mut wave_out);
        }
        wave_out.clear();
    }
    for &id in &wave_ids {
        assert!(
            sharded.with_session(id, |s| s.is_done()).unwrap(),
            "warmup must run every episode to completion"
        );
        sharded.begin_episode(id, &long_tasks).expect("restart episode");
    }
    for _ in 0..3 {
        sharded.submit_many(&wave_ids);
        for s in 0..4 {
            sharded.decide_wave_into(s, &mut wave_out);
        }
        wave_out.clear();
    }
    let (calls, bytes, served) = count_allocs(|| {
        let mut served = 0usize;
        for _ in 0..5 {
            sharded.submit_many(&wave_ids);
            for s in 0..4 {
                sharded.decide_wave_into(s, &mut wave_out);
            }
            served += wave_out.len();
            wave_out.clear();
        }
        served
    });
    assert_eq!(served, 5 * wave_ids.len(), "every submitted request must decide");
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "sharded wave serving allocated {calls} times / {bytes} bytes after warmup"
    );

    // Across a hot-swap ramp: after one warm publish → shadow → commit →
    // cutover cycle has sized each shard's shadow actor, a second ramp's
    // shadow waves and cutover wave move the candidate that `publish`
    // loaded into the plans, and allocate nothing. `publish` stays outside
    // the wave count: it must copy the candidate. But it loads the
    // candidate into networks the first cutover handed back, so it builds
    // none: it allocates less, and fewer than twice the parameter bytes,
    // than building one actor does. The shadow target spans several
    // rounds, so every shard shadows in both cycles.
    use pfrl_core::serve::RampStatus;
    let live = pfrl_core::sim::state::live_columns(&snapshot.dims, &snapshot.vms);
    let (build_calls, build_bytes, _) = count_allocs(|| {
        let mut actor =
            Mlp::from_flat_params(&snapshot.sizes(), Activation::Tanh, &snapshot.actor_params);
        actor.fold_inputs(&live);
        actor
    });
    let param_bytes = (snapshot.actor_params.len() * std::mem::size_of::<f32>()) as u64;
    for version in [2, 3] {
        for &id in &wave_ids {
            sharded.begin_episode(id, &long_tasks).expect("restart episode");
        }
        let mut candidate = snapshot.clone();
        candidate.version = version;
        for p in &mut candidate.actor_params {
            *p *= 1.0 - 0.125 * version as f32;
        }
        let (publish_calls, publish_bytes, ramp) =
            count_allocs(|| sharded.publish(&candidate, 3 * wave_ids.len() as u64));
        let ramp = ramp.expect("ramp starts");
        let (calls, bytes, rounds) = count_allocs(|| {
            let mut rounds = 0;
            loop {
                let committed = ramp.status() == RampStatus::Committed;
                sharded.submit_many(&wave_ids);
                for s in 0..4 {
                    sharded.decide_wave_into(s, &mut wave_out);
                }
                rounds += 1;
                if committed {
                    break rounds;
                }
                wave_out.clear();
            }
        });
        assert!(rounds > 2, "the ramp must shadow over several rounds");
        assert_eq!(wave_out.len(), wave_ids.len(), "every session decides after cutover");
        assert!(wave_out.iter().all(|(_, d)| d.version == version), "retired version served");
        wave_out.clear();
        if version == 3 {
            assert_eq!(
                (calls, bytes),
                (0, 0),
                "a ramp's shadow and cutover waves allocated {calls} times / {bytes} bytes"
            );
            assert!(
                publish_calls < build_calls && publish_bytes < 2 * param_bytes,
                "publish allocated {publish_calls} times / {publish_bytes} bytes, one actor \
                 build {build_calls} times / {build_bytes} bytes, parameters {param_bytes} bytes"
            );
        }
    }

    // Steady-state federated aggregation at K=64 — the federation-scale hot
    // path: top-k sparse attention, the pooled upload arena, and every
    // per-round workspace. After two warm-up rounds (first sizes the arena
    // and scratch, second exercises the warmed `last_good` fallback copies),
    // a full PFRL-DM aggregate() must not touch the heap. History recording
    // is switched off — `weight_history` would otherwise retain a K×K matrix
    // per round by design.
    let fed_setups = |n: usize, seed: u64| -> Vec<ClientSetup> {
        (0..n)
            .map(|i| ClientSetup {
                name: format!("agg{i}"),
                vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
                train_tasks: DatasetId::K8s.model().sample(8, seed + i as u64),
            })
            .collect()
    };
    let fed_cfg = |n: usize| FedConfig {
        episodes: 2,
        comm_every: 1,
        participation_k: n,
        tasks_per_episode: Some(8),
        seed: 77,
        parallel: false,
    };
    let att = MultiHeadConfig { top_k: Some(MultiHeadConfig::PAPER_TOP_K), ..Default::default() };
    let mut dm = PfrlDmRunner::with_attention(
        fed_setups(64, 900),
        dims,
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg(64),
        att,
    );
    dm.set_record_history(false);
    dm.aggregate();
    dm.aggregate();
    let (calls, bytes, _) = count_allocs(|| dm.aggregate());
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "PFRL-DM K=64 top-k aggregation allocated {calls} times / {bytes} bytes after warmup"
    );

    // The same audit for the FedAvg and MFPO aggregate paths at K=256: the
    // arena and the reusable workspaces must leave nothing per-round.
    let mut fa = FedAvgRunner::new(
        fed_setups(256, 2000),
        dims,
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg(256),
    );
    fa.aggregate();
    fa.aggregate();
    let (calls, bytes, _) = count_allocs(|| fa.aggregate());
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "FedAvg K=256 aggregation allocated {calls} times / {bytes} bytes after warmup"
    );

    let mut mf = MfpoRunner::new(
        fed_setups(256, 3000),
        dims,
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg(256),
    );
    mf.aggregate();
    mf.aggregate();
    let (calls, bytes, _) = count_allocs(|| mf.aggregate());
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "MFPO K=256 aggregation allocated {calls} times / {bytes} bytes after warmup"
    );

    // The fully defended robust path at K=64: a sign-flip coalition poisons
    // its uploads in place, the norm-band + cosine screens reject them
    // (their buffers return to the arena), and the trimmed-mean reduction
    // replaces the mean. Eviction is pushed out of reach so the screened
    // cohort shape is stable round over round; after two warm-up rounds the
    // whole attack → screen → reduce pipeline must not touch the heap.
    use pfrl_core::fed::{AttackPlan, QuarantinePolicy, RobustConfig};
    let mut df = FedAvgRunner::new(
        fed_setups(64, 4000),
        dims,
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg(64),
    )
    .with_attack_plan(AttackPlan::new(11).with_sign_flip(0.25, 1.0))
    .with_robust_aggregator(RobustConfig::defended())
    .with_quarantine_policy(QuarantinePolicy { evict_after: 1_000_000, ..Default::default() });
    df.aggregate();
    df.aggregate();
    let (calls, bytes, _) = count_allocs(|| df.aggregate());
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "defended FedAvg K=64 screen+trim aggregation allocated {calls} times / {bytes} bytes after warmup"
    );
}
