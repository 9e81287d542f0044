//! Behaviour pins for the four federation runners.
//!
//! The committed `PFRL-FEDCKPT` fixtures only prove that old bytes still
//! *decode*; they say nothing about whether today's code still *writes*
//! them. These pins do: every algorithm trains two rounds in each setup
//! below, and the test compares FNV-1a hashes of three artifacts against
//! constants recorded from a known-good build:
//!
//! * `checkpoint_bytes()` — the full resumable training state;
//! * every `policy_snapshots()` blob — what the serving layer loads;
//! * the telemetry `deterministic_fingerprint()` — counters and
//!   observe-histogram shapes.
//!
//! Any change to RNG draws, aggregation arithmetic, fault bookkeeping,
//! checkpoint framing, or telemetry accounting moves at least one hash. A
//! deliberate behaviour change must regenerate the table (the failure
//! message prints the full replacement) and say why in the change log.

use pfrl_core::fed::scenario::{ScenarioBinding, ScenarioPlan};
use pfrl_core::fed::{
    AttackPlan, ClientSetup, FaultPlan, FedAvgRunner, FedConfig, FederatedRunner,
    IndependentRunner, MfpoRunner, PfrlDmRunner, RobustAggregator, RobustConfig,
};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::{EnvConfig, EnvDims, VmSpec};
use pfrl_core::tensor::Matrix;
use pfrl_core::workloads::{DatasetId, WorkflowModel};
use pfrl_telemetry::{fnv1a, InMemoryRecorder, Telemetry};
use std::sync::Arc;

const DATASETS: [DatasetId; 4] =
    [DatasetId::K8s, DatasetId::Google, DatasetId::Alibaba2017, DatasetId::Kvm2019];
const N: usize = 4;
const ROUNDS: usize = 2;

fn dims() -> EnvDims {
    EnvDims::new(2, 8, 64.0, 3)
}

fn setup(i: usize) -> ClientSetup {
    ClientSetup {
        name: format!("client{i}"),
        vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
        train_tasks: DATASETS[i % DATASETS.len()].model().sample(40, 700 + i as u64),
    }
}

fn setups() -> Vec<ClientSetup> {
    (0..N).map(setup).collect()
}

fn fed(parallel: bool) -> FedConfig {
    FedConfig {
        episodes: 6,
        comm_every: 1,
        participation_k: 2,
        tasks_per_episode: Some(10),
        seed: 2718,
        parallel,
    }
}

/// The fault plan of the codec fixtures: every fault type at once.
fn fixture_plan() -> FaultPlan {
    FaultPlan::new(17).with_dropout(0.2).with_straggle(0.1, 2).with_corrupt(0.1).with_stale(0.1, 2)
}

/// Drift from the first episode, with the last client leaving at round 0.
fn drift_binding() -> ScenarioBinding {
    ScenarioBinding::new(ScenarioPlan::standard_drift(7, 0, 1, N), DATASETS.to_vec())
}

fn workflow_pools() -> Vec<Vec<pfrl_core::workloads::Workflow>> {
    (0..N)
        .map(|i| WorkflowModel::scientific(DATASETS[i].model()).sample(8, 90 + i as u64))
        .collect()
}

/// A row-stochastic mixing matrix with unequal weights.
fn mixing() -> Matrix {
    let mut m = Matrix::zeros(N, N);
    for i in 0..N {
        for j in 0..N {
            m[(i, j)] = if i == j { 0.55 } else { 0.15 };
        }
    }
    m
}

#[derive(Clone, Copy, Debug)]
enum Setup {
    Healthy,
    Faults,
    Attack,
    Drift,
    Workflows,
    Parallel,
}

const SETUPS: [Setup; 6] =
    [Setup::Healthy, Setup::Faults, Setup::Attack, Setup::Drift, Setup::Workflows, Setup::Parallel];

/// Builds `$runner` for `$setup` with telemetry routed to `$t`.
macro_rules! build {
    ($runner:ty, $setup:expr, $t:expr) => {{
        let parallel = matches!($setup, Setup::Parallel);
        let r = <$runner>::new(
            setups(),
            dims(),
            EnvConfig::default(),
            PpoConfig::default(),
            fed(parallel),
        )
        .with_telemetry($t.clone());
        match $setup {
            Setup::Healthy | Setup::Parallel => r,
            Setup::Faults => r.with_fault_plan(fixture_plan()),
            Setup::Attack => r
                .with_attack_plan(AttackPlan::new(41).with_sign_flip(0.5, 1.0))
                .with_robust_aggregator(RobustConfig::with_aggregator(
                    RobustAggregator::TrimmedMean { beta: 0.25 },
                )),
            Setup::Drift => r.with_scenario(&drift_binding()),
            Setup::Workflows => r.with_workflows(workflow_pools(), Some(3)),
        }
    }};
}

/// Trains `ROUNDS` rounds and hashes `[checkpoint, policies, telemetry]`.
fn pin(r: &mut dyn FederatedRunner, rec: &InMemoryRecorder) -> [u64; 3] {
    for _ in 0..ROUNDS {
        r.train_round();
    }
    hashes(r, rec)
}

fn hashes(r: &dyn FederatedRunner, rec: &InMemoryRecorder) -> [u64; 3] {
    let mut policies = Vec::new();
    for s in r.policy_snapshots() {
        policies.extend_from_slice(&s.to_bytes());
    }
    let fingerprint = format!("{:?}", rec.snapshot().deterministic_fingerprint());
    [fnv1a(&r.checkpoint_bytes()), fnv1a(&policies), fnv1a(fingerprint.as_bytes())]
}

fn recorder() -> (Arc<InMemoryRecorder>, Telemetry) {
    let rec = Arc::new(InMemoryRecorder::new());
    let t = Telemetry::new(rec.clone());
    (rec, t)
}

fn measure() -> Vec<(String, [u64; 3])> {
    let mut out = Vec::new();
    for setup in SETUPS {
        macro_rules! each {
            ($runner:ty, $name:literal) => {{
                let (rec, t) = recorder();
                let mut r = build!($runner, setup, t);
                out.push((format!("{}/{:?}", $name, setup), pin(&mut r, &rec)));
            }};
        }
        each!(IndependentRunner, "PPO");
        each!(FedAvgRunner, "FedAvg");
        each!(MfpoRunner, "MFPO");
        each!(PfrlDmRunner, "PFRL-DM");
    }

    // Whole schedules under faults and churn together, so that stragglers
    // and the re-joining client flow through the staleness re-entry blend.
    macro_rules! full {
        ($runner:ty, $name:literal) => {{
            let (rec, t) = recorder();
            let mut r = build!($runner, Setup::Drift, t).with_fault_plan(fixture_plan());
            r.train_to_completion();
            out.push((format!("{}/full", $name), hashes(&r, &rec)));
        }};
    }
    full!(IndependentRunner, "PPO");
    full!(FedAvgRunner, "FedAvg");
    full!(MfpoRunner, "MFPO");
    full!(PfrlDmRunner, "PFRL-DM");

    let (rec, t) = recorder();
    let mut r = build!(FedAvgRunner, Setup::Healthy, t).with_mixing(mixing());
    out.push(("FedAvg/mixing".into(), pin(&mut r, &rec)));

    let (rec, t) = recorder();
    let mut r = build!(FedAvgRunner, Setup::Healthy, t).with_secure_aggregation(true);
    out.push(("FedAvg/secure".into(), pin(&mut r, &rec)));

    let (rec, t) = recorder();
    let mut r = build!(PfrlDmRunner, Setup::Healthy, t);
    r.train_round();
    r.add_client(setup(N), true);
    r.train_round();
    out.push(("PFRL-DM/add_client".into(), hashes(&r, &rec)));

    let (rec, t) = recorder();
    let mut r = build!(PfrlDmRunner, Setup::Healthy, t);
    r.set_fixed_alpha(Some(0.5));
    out.push(("PFRL-DM/fixed_alpha".into(), pin(&mut r, &rec)));
    out
}

/// Recorded from a known-good build: `(case, [checkpoint, policies,
/// telemetry])`.
const PINS: &[(&str, [u64; 3])] = &[
    ("PPO/Healthy", [0x2a211016ca4bce65, 0xd82015f525d183b2, 0xe42f9d3afed8fdf6]),
    ("FedAvg/Healthy", [0x79bdbd05bf05efaf, 0x48eb1082e05578ed, 0x407d2d82b107191b]),
    ("MFPO/Healthy", [0xa28b1e9544d66f3b, 0xe3dc09481551afb1, 0x33355390194ca52e]),
    ("PFRL-DM/Healthy", [0x9d596cf5509a0247, 0x9d757aeabe29cffe, 0x9a626d6b7764e1ae]),
    ("PPO/Faults", [0x2a211016ca4bce65, 0xd82015f525d183b2, 0xb580fc70a93612af]),
    ("FedAvg/Faults", [0x99936230bc4e2633, 0xac3f2c710085b59b, 0x670ec7b7e58f022c]),
    ("MFPO/Faults", [0x48f7772d5059aeb6, 0xea4c53e9fe22d1be, 0xef59fa4ec09aca42]),
    ("PFRL-DM/Faults", [0xf5a3cf3241f4a73d, 0x6e003baf30a71689, 0x9c0438fecf49e867]),
    ("PPO/Attack", [0x2a211016ca4bce65, 0xd82015f525d183b2, 0xe42f9d3afed8fdf6]),
    ("FedAvg/Attack", [0x9bea70589b43427a, 0x73786d9910bc8d1d, 0x06d6599daf1c20ec]),
    ("MFPO/Attack", [0xb49bdf8545e26ece, 0x078f98114f874281, 0x865f6e4e479e2175]),
    ("PFRL-DM/Attack", [0x925a793a4b02c853, 0x083e0a40d327fc33, 0x3d72a45b7ed45752]),
    ("PPO/Drift", [0x018f52656e1a9e97, 0x1e3716e7096b8d15, 0x03f6f5954f627717]),
    ("FedAvg/Drift", [0x5cdfd9909c06583b, 0x61ff343d41580c1f, 0xfb32ed310ad89212]),
    ("MFPO/Drift", [0x8f8f04eba19caf3d, 0xa54245461b24aae0, 0xe12fbee1f8840a13]),
    ("PFRL-DM/Drift", [0xf04af09b4ac7469e, 0xefafc055666cdae6, 0x1efa378fc5cc0e5e]),
    ("PPO/Workflows", [0x80f535ca6b55c13a, 0xa17870baa9eadb48, 0x774d78f67d88a693]),
    ("FedAvg/Workflows", [0x05df4268f1cf55f8, 0xcf74ce5d6d4d2a85, 0x927d3395ab450702]),
    ("MFPO/Workflows", [0xf1840612a46762cd, 0x6a0c35a0804a4d19, 0x2577a2323438c7fb]),
    ("PFRL-DM/Workflows", [0xc593c96c64784810, 0x24c8e3d0e08a169e, 0x0de526c213e1dda4]),
    ("PPO/Parallel", [0x2a211016ca4bce65, 0xd82015f525d183b2, 0xe42f9d3afed8fdf6]),
    ("FedAvg/Parallel", [0x79bdbd05bf05efaf, 0x48eb1082e05578ed, 0x407d2d82b107191b]),
    ("MFPO/Parallel", [0xa28b1e9544d66f3b, 0xe3dc09481551afb1, 0x33355390194ca52e]),
    ("PFRL-DM/Parallel", [0x9d596cf5509a0247, 0x9d757aeabe29cffe, 0x9a626d6b7764e1ae]),
    ("PPO/full", [0xb1ed04620c3ea8f6, 0x3648ccda13266f60, 0x87106df3da02a469]),
    ("FedAvg/full", [0x88d54ce3aa1e60a5, 0x118aefdaa88d119c, 0xfbce89400089661a]),
    ("MFPO/full", [0xd2492026fa5f9199, 0x3adc0b17d8f4bc17, 0x6b9445320468f874]),
    ("PFRL-DM/full", [0x3918b823fd0f76a5, 0x548f1ef3dadad37f, 0x48cc80dec4fa8ae0]),
    ("FedAvg/mixing", [0x303003365184730f, 0x9df19b7b04af5efb, 0xba55043f5bf380a0]),
    ("FedAvg/secure", [0xc23247f0c4d440ac, 0x99fe5159ab0095a9, 0xe5da7c18ca65c199]),
    ("PFRL-DM/add_client", [0xe15aa432b91c1cad, 0x0868c0367d9c2152, 0x5ec29804f827f627]),
    ("PFRL-DM/fixed_alpha", [0x08bc4ff8426d3625, 0xfd4503a8b0f71fbc, 0x1e91b9ddec8c27c9]),
];

#[test]
fn runners_train_checkpoint_export_and_record_bit_identically() {
    let got = measure();
    let table: String = got
        .iter()
        .map(|(name, h)| {
            format!("    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),\n", h[0], h[1], h[2])
        })
        .collect();
    let want: Vec<(String, [u64; 3])> =
        PINS.iter().map(|(name, h)| (name.to_string(), *h)).collect();
    assert!(got == want, "runner behaviour moved; measured pins:\n{table}");
}
