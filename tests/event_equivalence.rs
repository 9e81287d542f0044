//! Golden-trace equivalence suite: the event-calendar time engine must be
//! **bit-identical** to the stepped reference engine — per-step rewards,
//! simulation clocks, `EpisodeMetrics`, and deterministic telemetry
//! fingerprints — on every paper dataset, for both the flat and the DAG
//! environments, with fast-forward on and off.
//!
//! The driving policy deliberately exercises every reward branch:
//! successful placements, infeasible denials, void VM slots, lazy waits,
//! and neutral (fast-forwarding) waits.

use std::collections::BTreeMap;
use std::sync::Arc;

use pfrl_core::sim::{
    run_blind_random, run_heuristic, Action, CloudEnv, DagCloudEnv, EnvConfig, EnvDims,
    EpisodeMetrics, HeuristicPolicy, SchedulingEnv, TimeEngine, VmSpec,
};
use pfrl_core::stats::SeedStream;
use pfrl_core::telemetry::{InMemoryRecorder, Telemetry};
use pfrl_core::workloads::{DatasetId, TaskSpec, Workflow, WorkflowModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn dims() -> EnvDims {
    EnvDims::new(4, 8, 64.0, 5)
}

fn vms() -> Vec<VmSpec> {
    vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0), VmSpec::new(2, 16.0)]
}

/// A seeded policy hitting all reward branches: mostly first-fit, with a
/// mix of waits and raw (possibly denied / void-slot) VM picks.
fn mixed_action(first_fit: Option<Action>, max_vms: usize, rng: &mut SmallRng) -> Action {
    let roll: f64 = rng.gen_range(0.0..1.0);
    if roll < 0.15 {
        Action::Wait
    } else if roll < 0.30 {
        Action::Vm(rng.gen_range(0..max_vms))
    } else {
        first_fit.unwrap_or(Action::Wait)
    }
}

fn assert_metrics_bit_identical(label: &str, a: &EpisodeMetrics, b: &EpisodeMetrics) {
    assert_eq!(a.avg_response.to_bits(), b.avg_response.to_bits(), "{label}: avg_response");
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{label}: makespan");
    assert_eq!(
        a.avg_utilization.to_bits(),
        b.avg_utilization.to_bits(),
        "{label}: avg_utilization"
    );
    assert_eq!(
        a.avg_load_balance.to_bits(),
        b.avg_load_balance.to_bits(),
        "{label}: avg_load_balance"
    );
    assert_eq!(a.tasks_placed, b.tasks_placed, "{label}: tasks_placed");
    assert_eq!(a.tasks_unplaced, b.tasks_unplaced, "{label}: tasks_unplaced");
    assert_eq!(a.total_reward.to_bits(), b.total_reward.to_bits(), "{label}: total_reward");
}

/// Lockstep-drives a stepped and an event flat env over the same trace,
/// with the mixed policy seeded by `policy_seed`, and asserts bitwise-equal
/// rewards, clocks, events, and metrics.
fn assert_flat_equivalent(label: &str, cfg: EnvConfig, tasks: Vec<TaskSpec>, policy_seed: u64) {
    let mut stepped = CloudEnv::new(dims(), vms(), cfg);
    stepped.set_time_engine(TimeEngine::Stepped);
    let mut event = CloudEnv::new(dims(), vms(), cfg);
    assert_eq!(event.time_engine(), TimeEngine::Event, "event engine is the default");

    stepped.reset(tasks.clone());
    event.reset(tasks);
    assert_eq!(stepped.now(), event.now(), "{label}: clock after reset");
    assert_eq!(stepped.events(), event.events(), "{label}: events after reset");

    let mut rng = SmallRng::seed_from_u64(policy_seed);
    let mut steps = 0u64;
    while !stepped.is_done() {
        let a = mixed_action(stepped.first_fit_action(), stepped.dims().max_vms, &mut rng);
        let rs = stepped.step(a);
        let re = event.step(a);
        assert_eq!(
            rs.reward.to_bits(),
            re.reward.to_bits(),
            "{label}: reward diverged at step {steps} ({} vs {})",
            rs.reward,
            re.reward
        );
        assert_eq!((rs.done, rs.placed), (re.done, re.placed), "{label}: outcome at {steps}");
        assert_eq!(stepped.now(), event.now(), "{label}: clock at {steps}");
        assert_eq!(stepped.queue_len(), event.queue_len(), "{label}: queue at {steps}");
        steps += 1;
    }
    assert!(event.is_done(), "{label}: engines disagree on episode end");
    assert_eq!(stepped.events(), event.events(), "{label}: event counts");
    assert!(event.events() > 0, "{label}: no events applied");
    assert_eq!(stepped.rejected(), event.rejected(), "{label}: rejected");
    assert_metrics_bit_identical(label, &stepped.metrics(), &event.metrics());
}

#[test]
fn flat_env_bit_identical_across_all_datasets() {
    for ds in DatasetId::ALL {
        let mut tasks = ds.model().sample(120, 7);
        // Densify arrivals so the cluster actually saturates (denials and
        // forced waits occur), as the eval matrix does.
        for t in &mut tasks {
            t.arrival /= 4;
        }
        assert_flat_equivalent(&format!("{ds:?}"), EnvConfig::default(), tasks, 0x5eed);
    }
}

#[test]
fn flat_env_bit_identical_without_fast_forward() {
    for ds in [DatasetId::K8s, DatasetId::Kvm2019] {
        let tasks = ds.model().sample(60, 3);
        let cfg = EnvConfig { fast_forward: false, ..Default::default() };
        assert_flat_equivalent(&format!("{ds:?} (dense stepping)"), cfg, tasks, 0x5eed);
    }
}

#[test]
fn flat_env_bit_identical_on_sparse_traces() {
    // Sparse arrivals are where the event engine actually jumps far; the
    // contract must hold there too.
    for ds in [DatasetId::HpcKs, DatasetId::Google] {
        let mut tasks = ds.model().sample(80, 13);
        for t in &mut tasks {
            t.arrival *= 8;
        }
        assert_flat_equivalent(&format!("{ds:?} (sparse)"), EnvConfig::default(), tasks, 0x5eed);
    }
}

/// Lockstep-drives the DAG environment on both engines, with the mixed
/// policy seeded by `policy_seed`.
fn assert_dag_equivalent(label: &str, cfg: EnvConfig, workflows: Vec<Workflow>, policy_seed: u64) {
    let mut stepped = DagCloudEnv::new(dims(), vms(), cfg);
    stepped.set_time_engine(TimeEngine::Stepped);
    let mut event = DagCloudEnv::new(dims(), vms(), cfg);

    stepped.reset(workflows.clone());
    event.reset(workflows);
    assert_eq!(stepped.now(), event.now(), "{label}: clock after reset");

    let mut rng = SmallRng::seed_from_u64(policy_seed);
    let mut steps = 0u64;
    while !stepped.is_done() {
        let max_vms = SchedulingEnv::dims(&stepped).max_vms;
        let a = mixed_action(stepped.first_fit_action(), max_vms, &mut rng);
        let rs = stepped.step(a);
        let re = event.step(a);
        assert_eq!(
            rs.reward.to_bits(),
            re.reward.to_bits(),
            "{label}: reward diverged at step {steps}"
        );
        assert_eq!((rs.done, rs.placed), (re.done, re.placed), "{label}: outcome at {steps}");
        assert_eq!(stepped.now(), event.now(), "{label}: clock at {steps}");
        assert_eq!(stepped.queue_len(), event.queue_len(), "{label}: queue at {steps}");
        steps += 1;
    }
    assert!(event.is_done(), "{label}: engines disagree on episode end");
    assert_eq!(stepped.events(), event.events(), "{label}: event counts");
    assert!(event.events() > 0, "{label}: no events applied");
    assert_eq!(stepped.workflow_makespans(), event.workflow_makespans(), "{label}: makespans");
    assert_metrics_bit_identical(label, &stepped.metrics(), &event.metrics());
}

#[test]
fn dag_env_bit_identical_across_datasets() {
    for (i, ds) in DatasetId::ALL.iter().enumerate() {
        let mut model = WorkflowModel::scientific(ds.model());
        // Densify submissions so workflows overlap and contend.
        model.mean_interarrival /= 4.0;
        let workflows = model.sample(8, 100 + i as u64);
        assert_dag_equivalent(
            &format!("{ds:?} workflows"),
            EnvConfig::default(),
            workflows,
            0xdead,
        );
    }
}

#[test]
fn dag_env_bit_identical_without_fast_forward() {
    let model = WorkflowModel::scientific(DatasetId::Alibaba2018.model());
    let workflows = model.sample(4, 42);
    let cfg = EnvConfig { fast_forward: false, ..Default::default() };
    assert_dag_equivalent("Alibaba2018 workflows (dense stepping)", cfg, workflows, 0xdead);
}

/// The seeded sweep: on every dataset, one 80-task flat trace (arrivals
/// compressed 4×) with fast-forward on and off, and six scientific
/// workflows (submissions compressed 4×). Each dataset's seed is drawn
/// from one labeled stream and also seeds the flat policy; the DAG policy
/// takes `seed ^ 0xD46`. 30 paired episodes in all.
#[test]
fn seeded_sweep_bit_identical_on_every_dataset_and_arm() {
    let stream = SeedStream::new(0x51C0_2026).child("simcore-gate");
    for (k, ds) in DatasetId::ALL.iter().enumerate() {
        let seed = stream.index(k as u64).seed();
        let mut tasks = ds.model().sample(80, seed);
        for t in &mut tasks {
            t.arrival /= 4;
        }
        assert_flat_equivalent(&format!("{ds:?} sweep"), EnvConfig::default(), tasks.clone(), seed);
        let dense = EnvConfig { fast_forward: false, ..Default::default() };
        assert_flat_equivalent(&format!("{ds:?} sweep (dense stepping)"), dense, tasks, seed);

        let mut model = WorkflowModel::scientific(ds.model());
        model.mean_interarrival /= 4.0;
        let workflows = model.sample(6, seed);
        assert_dag_equivalent(
            &format!("{ds:?} sweep workflows"),
            EnvConfig::default(),
            workflows,
            seed ^ 0xD46,
        );
    }
}

type Fingerprint = (BTreeMap<String, u64>, BTreeMap<String, (Vec<(usize, u64)>, u64, u64, u64)>);

/// Runs `episodes` mixed-policy episodes against a telemetry recorder and
/// returns its deterministic fingerprint.
fn flat_fingerprint(engine: TimeEngine, episodes: usize) -> Fingerprint {
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut env = CloudEnv::new(dims(), vms(), EnvConfig::default());
    env.set_time_engine(engine);
    env.set_telemetry(Telemetry::new(recorder.clone()));
    let mut rng = SmallRng::seed_from_u64(99);
    for ep in 0..episodes {
        let mut tasks = DatasetId::Kvm2020.model().sample(60, ep as u64);
        for t in &mut tasks {
            t.arrival /= 4;
        }
        env.reset(tasks);
        while !env.is_done() {
            let a = mixed_action(env.first_fit_action(), env.dims().max_vms, &mut rng);
            env.step(a);
        }
    }
    recorder.snapshot().deterministic_fingerprint()
}

#[test]
fn flat_env_telemetry_fingerprints_match_across_engines() {
    let stepped = flat_fingerprint(TimeEngine::Stepped, 3);
    let event = flat_fingerprint(TimeEngine::Event, 3);
    assert_eq!(stepped, event);
    // The fingerprint actually covers the new event-core signals.
    assert!(event.0.contains_key("sim/events"), "sim/events counter missing");
    assert!(
        event.1.contains_key("sim/event_horizon_jump"),
        "sim/event_horizon_jump histogram missing"
    );
    assert!(event.0["sim/events"] > 0);
}

/// Same fingerprint check for the DAG env (which gained telemetry in this
/// redesign).
fn dag_fingerprint(engine: TimeEngine, episodes: usize) -> Fingerprint {
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut env = DagCloudEnv::new(dims(), vms(), EnvConfig::default());
    env.set_time_engine(engine);
    env.set_telemetry(Telemetry::new(recorder.clone()));
    let mut rng = SmallRng::seed_from_u64(7);
    let model = WorkflowModel::scientific(DatasetId::K8s.model());
    for ep in 0..episodes {
        env.reset(model.sample(5, ep as u64));
        while !env.is_done() {
            let max_vms = SchedulingEnv::dims(&env).max_vms;
            let a = mixed_action(env.first_fit_action(), max_vms, &mut rng);
            env.step(a);
        }
    }
    recorder.snapshot().deterministic_fingerprint()
}

#[test]
fn dag_env_telemetry_fingerprints_match_across_engines() {
    let stepped = dag_fingerprint(TimeEngine::Stepped, 2);
    let event = dag_fingerprint(TimeEngine::Event, 2);
    assert_eq!(stepped, event);
    assert!(event.0.contains_key("sim/events"));
    assert!(event.0.contains_key("sim/decisions"));
}

#[test]
fn heuristic_baselines_bit_identical_across_engines() {
    for policy in [
        HeuristicPolicy::Random,
        HeuristicPolicy::FirstFit,
        HeuristicPolicy::BestFit,
        HeuristicPolicy::WorstFit,
    ] {
        let tasks = DatasetId::Google.model().sample(80, 21);
        let mut stepped = CloudEnv::new(dims(), vms(), EnvConfig::default());
        stepped.set_time_engine(TimeEngine::Stepped);
        let mut event = CloudEnv::new(dims(), vms(), EnvConfig::default());
        stepped.reset(tasks.clone());
        event.reset(tasks);
        let ms = run_heuristic(&mut stepped, policy, 5);
        let me = run_heuristic(&mut event, policy, 5);
        assert_metrics_bit_identical(&format!("{policy:?}"), &ms, &me);
    }
    // Blind-random exercises denials and void slots heavily.
    let tasks = DatasetId::CeritSc.model().sample(60, 33);
    let mut stepped = CloudEnv::new(dims(), vms(), EnvConfig::default());
    stepped.set_time_engine(TimeEngine::Stepped);
    let mut event = CloudEnv::new(dims(), vms(), EnvConfig::default());
    stepped.reset(tasks.clone());
    event.reset(tasks);
    let ms = run_blind_random(&mut stepped, 5);
    let me = run_blind_random(&mut event, 5);
    assert_metrics_bit_identical("BlindRandom", &ms, &me);
}
