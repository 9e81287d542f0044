//! Chaos tests of the fault-tolerant federation runtime: deterministic
//! fault injection, partial-participation aggregation, update quarantine,
//! and checkpoint/kill/resume — across all four runners.

use pfrl_core::experiment::{
    run_federation_resumable_with_options, Algorithm, CheckpointConfig, RunOptions,
};
use pfrl_fed::{
    ClientSetup, FaultPlan, FedAvgRunner, FedConfig, IndependentRunner, MfpoRunner, PfrlDmRunner,
    QuarantinePolicy, TrainingCurves,
};
use pfrl_rl::PpoConfig;
use pfrl_sim::{EnvConfig, EnvDims, VmSpec};
use pfrl_telemetry::{InMemoryRecorder, Telemetry};
use pfrl_workloads::DatasetId;
use std::sync::Arc;

fn dims() -> EnvDims {
    EnvDims::new(2, 8, 64.0, 3)
}

fn setups(n: usize) -> Vec<ClientSetup> {
    let datasets = [DatasetId::K8s, DatasetId::Google, DatasetId::Alibaba2017, DatasetId::Kvm2019];
    (0..n)
        .map(|i| ClientSetup {
            name: format!("client{i}"),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: datasets[i % datasets.len()].model().sample(60, 300 + i as u64),
        })
        .collect()
}

fn fed(episodes: usize, parallel: bool) -> FedConfig {
    FedConfig {
        episodes,
        comm_every: 2,
        participation_k: 2,
        tasks_per_episode: Some(12),
        seed: 33,
        parallel,
    }
}

/// A plan exercising every fault type at once.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(17).with_dropout(0.2).with_straggle(0.1, 2).with_corrupt(0.1).with_stale(0.1, 2)
}

/// Trains one runner of each algorithm under `plan` and returns its curves.
fn run_with_plan(
    alg: Algorithm,
    plan: FaultPlan,
    episodes: usize,
    parallel: bool,
) -> TrainingCurves {
    let (s, d, e) = (setups(4), dims(), EnvConfig::default());
    let p = PpoConfig::default();
    let f = fed(episodes, parallel);
    match alg {
        Algorithm::PfrlDm => PfrlDmRunner::new(s, d, e, p, f).with_fault_plan(plan).train(),
        Algorithm::FedAvg => FedAvgRunner::new(s, d, e, p, f).with_fault_plan(plan).train(),
        Algorithm::Mfpo => MfpoRunner::new(s, d, e, p, f).with_fault_plan(plan).train(),
        Algorithm::Ppo => IndependentRunner::new(s, d, e, p, f).with_fault_plan(plan).train(),
    }
}

#[test]
#[ignore = "slow tier: 8 full trainings; the release-mode CI chaos step runs `--include-ignored`"]
fn none_plan_matches_default_construction_for_all_runners() {
    let (d, e, p) = (dims(), EnvConfig::default(), PpoConfig::default());
    let f = fed(4, false);
    // Explicitly installing the empty plan must not perturb training.
    let base = PfrlDmRunner::new(setups(4), d, e, p, f).train();
    assert_eq!(run_with_plan(Algorithm::PfrlDm, FaultPlan::none(), 4, false), base);
    let base = FedAvgRunner::new(setups(4), d, e, p, f).train();
    assert_eq!(run_with_plan(Algorithm::FedAvg, FaultPlan::none(), 4, false), base);
    let base = MfpoRunner::new(setups(4), d, e, p, f).train();
    assert_eq!(run_with_plan(Algorithm::Mfpo, FaultPlan::none(), 4, false), base);
    let base = IndependentRunner::new(setups(4), d, e, p, f).train();
    assert_eq!(run_with_plan(Algorithm::Ppo, FaultPlan::none(), 4, false), base);
}

#[test]
#[ignore = "slow tier: 8 chaos trainings; the release-mode CI chaos step runs `--include-ignored`"]
fn fault_plan_is_bit_identical_across_thread_counts() {
    // The same fault seed must replay the same schedule whether clients
    // train sequentially or on the rayon pool.
    for alg in Algorithm::ALL {
        let sequential = run_with_plan(alg, chaos_plan(), 6, false);
        let parallel = run_with_plan(alg, chaos_plan(), 6, true);
        assert_eq!(sequential, parallel, "{alg}: fault schedule depends on thread count");
    }
}

#[test]
fn dropout_heavy_runs_complete_with_finite_losses() {
    let plan = FaultPlan::new(9).with_dropout(0.2).with_corrupt(0.1);
    for alg in Algorithm::ALL {
        let curves = run_with_plan(alg, plan, 6, false);
        assert_eq!(curves.clients(), 4, "{alg}");
        for (i, c) in curves.per_client.iter().enumerate() {
            assert_eq!(c.len(), 6, "{alg}: client {i} missed local episodes");
            assert!(c.iter().all(|r| r.is_finite()), "{alg}: non-finite reward on client {i}");
        }
    }
}

#[test]
fn faults_surface_in_telemetry() {
    let rec = Arc::new(InMemoryRecorder::new());
    let plan = FaultPlan::new(3).with_dropout(0.25).with_corrupt(0.5);
    let mut r = PfrlDmRunner::new(
        setups(4),
        dims(),
        EnvConfig::default(),
        PpoConfig::default(),
        fed(16, false),
    )
    .with_telemetry(Telemetry::new(rec.clone()))
    .with_fault_plan(plan);
    let _ = r.train();
    let snap = rec.snapshot();
    assert!(snap.counter("fed/dropouts") > 0, "no dropouts recorded");
    assert!(snap.counter("fed/quarantined") > 0, "no quarantined uploads recorded");
    assert!(
        snap.histogram("fed/participation_fraction").is_some(),
        "participation fraction not observed"
    );
}

#[test]
fn aggressive_quarantine_evicts_repeat_offenders() {
    let rec = Arc::new(InMemoryRecorder::new());
    // Corrupt-every-round pressure plus a 1-strike policy forces evictions.
    let plan = FaultPlan::new(29).with_corrupt(0.9);
    let policy = QuarantinePolicy { evict_after: 1, ..QuarantinePolicy::default() };
    let cfg = FedConfig { participation_k: 1, ..fed(10, false) };
    let mut r =
        FedAvgRunner::new(setups(3), dims(), EnvConfig::default(), PpoConfig::default(), cfg)
            .with_telemetry(Telemetry::new(rec.clone()))
            .with_fault_plan(plan)
            .with_quarantine_policy(policy);
    let curves = r.train();
    assert!(curves.per_client.iter().all(|c| c.iter().all(|r| r.is_finite())));
    let snap = rec.snapshot();
    assert!(snap.counter("fed/evictions") > 0, "no evictions under 1-strike policy");
}

/// Kill-and-resume for every runner: train one round, checkpoint, rebuild
/// the runner from scratch (simulating a process kill), restore, and finish
/// — the curves must match an uninterrupted run bit-for-bit.
#[test]
#[ignore = "slow tier: 12 chaos trainings; the release-mode CI chaos step runs `--include-ignored`"]
fn checkpoint_kill_resume_is_bit_identical() {
    let (d, e, p) = (dims(), EnvConfig::default(), PpoConfig::default());
    let f = fed(6, false);
    let plan = chaos_plan();

    let full = run_with_plan(Algorithm::PfrlDm, plan, 6, false);
    let mut half = PfrlDmRunner::new(setups(4), d, e, p, f).with_fault_plan(plan);
    half.train_round();
    let bytes = half.checkpoint_bytes();
    drop(half);
    let mut resumed = PfrlDmRunner::new(setups(4), d, e, p, f).with_fault_plan(plan);
    resumed.restore_checkpoint(&bytes).expect("restore");
    assert_eq!(resumed.rounds_done(), 1);
    assert_eq!(resumed.train(), full, "PFRL-DM: resumed curves diverge");

    let full = run_with_plan(Algorithm::FedAvg, plan, 6, false);
    let mut half = FedAvgRunner::new(setups(4), d, e, p, f).with_fault_plan(plan);
    half.train_round();
    let bytes = half.checkpoint_bytes();
    let mut resumed = FedAvgRunner::new(setups(4), d, e, p, f).with_fault_plan(plan);
    resumed.restore_checkpoint(&bytes).expect("restore");
    assert_eq!(resumed.train(), full, "FedAvg: resumed curves diverge");

    let full = run_with_plan(Algorithm::Mfpo, plan, 6, false);
    let mut half = MfpoRunner::new(setups(4), d, e, p, f).with_fault_plan(plan);
    half.train_round();
    let bytes = half.checkpoint_bytes();
    let mut resumed = MfpoRunner::new(setups(4), d, e, p, f).with_fault_plan(plan);
    resumed.restore_checkpoint(&bytes).expect("restore");
    assert_eq!(resumed.train(), full, "MFPO: resumed curves diverge");

    let full = run_with_plan(Algorithm::Ppo, plan, 6, false);
    let mut half = IndependentRunner::new(setups(4), d, e, p, f).with_fault_plan(plan);
    half.train_round();
    let bytes = half.checkpoint_bytes();
    let mut resumed = IndependentRunner::new(setups(4), d, e, p, f).with_fault_plan(plan);
    resumed.restore_checkpoint(&bytes).expect("restore");
    assert_eq!(resumed.train(), full, "PPO: resumed curves diverge");
}

#[test]
fn checkpoint_refuses_mismatched_federation() {
    let (d, e, p) = (dims(), EnvConfig::default(), PpoConfig::default());
    let mut a = FedAvgRunner::new(setups(3), d, e, p, fed(4, false));
    a.train_round();
    let bytes = a.checkpoint_bytes();
    // Different seed → different federation → must be rejected.
    let other = FedConfig { seed: 99, ..fed(4, false) };
    let mut b = FedAvgRunner::new(setups(3), d, e, p, other);
    let err = b.restore_checkpoint(&bytes).unwrap_err();
    assert!(matches!(err, pfrl_fed::FedError::Checkpoint(_)), "got {err:?}");
    // Garbage is rejected up front.
    assert!(b.restore_checkpoint(b"garbage").is_err());
}

#[test]
fn resumable_driver_checkpoints_and_restores_on_disk() {
    let dir = std::env::temp_dir().join(format!("pfrl-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fedavg.ckpt");
    let _ = std::fs::remove_file(&path);
    let ckpt = CheckpointConfig::every_round(&path);
    let run = || {
        run_federation_resumable_with_options(
            Algorithm::FedAvg,
            setups(3),
            dims(),
            EnvConfig::default(),
            PpoConfig::default(),
            fed(5, false),
            &RunOptions::with_fault_plan(chaos_plan()),
            &ckpt,
            Telemetry::noop(),
        )
        .expect("resumable run")
    };
    // First invocation trains from scratch and leaves a checkpoint behind.
    let (curves_a, fed_a) = run();
    assert!(path.exists(), "checkpoint not persisted");
    assert_eq!(fed_a.algorithm(), Algorithm::FedAvg);
    let r = fed_a.downcast_ref::<FedAvgRunner>().expect("wrong federation kind");
    assert_eq!(r.rounds_done(), 2);
    // Second invocation restores the final checkpoint, skips all completed
    // rounds, and reproduces the identical curves (the post-round leftover
    // episodes replay deterministically from the restored cursors).
    let (curves_b, _) = run();
    assert_eq!(curves_a, curves_b, "restored run diverged from original");
    std::fs::remove_dir_all(&dir).ok();
}
