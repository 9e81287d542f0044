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
    ("PPO/Healthy", [0x9beae7d196e0b505, 0x98338b66dc550df4, 0x9c7368339f335546]),
    ("FedAvg/Healthy", [0x9f8d943926f0b177, 0x71d98a6ebfed72e5, 0x4548df750675a2c9]),
    ("MFPO/Healthy", [0x279a8a57c3f2d8db, 0x3d3cbb4b1e31d1fd, 0x69fc084383e48060]),
    ("PFRL-DM/Healthy", [0x034e5407a37b55a7, 0xdcfc0572b985e636, 0x9568305d84196726]),
    ("PPO/Faults", [0x9beae7d196e0b505, 0x98338b66dc550df4, 0xa1482e62567ccfc7]),
    ("FedAvg/Faults", [0x4f56af449091474c, 0xadc18b8aa4e3da16, 0x0f472775e0941687]),
    ("MFPO/Faults", [0xd5fcec47a11de2ad, 0x7156af8a49cb6ee4, 0x927ec2fbea081a11]),
    ("PFRL-DM/Faults", [0xb9f9369b3fa2f347, 0xfa793054345eaab6, 0x411cc89439193453]),
    ("PPO/Attack", [0x9beae7d196e0b505, 0x98338b66dc550df4, 0x9c7368339f335546]),
    ("FedAvg/Attack", [0xa54360fe2eb702f2, 0x972f205dfe4eefe5, 0xaa3f2fc32ff32f21]),
    ("MFPO/Attack", [0xbb68055e32d86f53, 0x5d21dc39d0b93961, 0xc51521960c563fda]),
    ("PFRL-DM/Attack", [0xc5ad8e95256dcfaa, 0x7d9345c74c113447, 0x07dfaa275412cf8c]),
    ("PPO/Drift", [0xe03432541a8daaf8, 0x1264cd7e782a70a3, 0xd11ed62771607a7e]),
    ("FedAvg/Drift", [0x94ce0a54eec9bfca, 0xcdbd0cd40a041fb6, 0x64857070507bf4b5]),
    ("MFPO/Drift", [0x84bd23a1b3e3a42c, 0xbbace68c5a9f2bb3, 0x6b8dcb5bc935d53b]),
    ("PFRL-DM/Drift", [0x3c76d99c0fce116a, 0xddfb34f87b2daaa9, 0x702f8fd72ace8980]),
    ("PPO/Workflows", [0xe2bb49358593d799, 0xc004f7b230230466, 0xaa228f5b26cce05e]),
    ("FedAvg/Workflows", [0x1a2b5a893b37de82, 0x29b0713ac8f5d125, 0x0ef57cd9333b368d]),
    ("MFPO/Workflows", [0xe5563abf61d5523f, 0xa11db73312f7de65, 0x34fa37ec0210e5a8]),
    ("PFRL-DM/Workflows", [0x8c0edca8a419be20, 0x0280f71e764ac6e8, 0xd410cbea3d806327]),
    ("PPO/Parallel", [0x9beae7d196e0b505, 0x98338b66dc550df4, 0x9c7368339f335546]),
    ("FedAvg/Parallel", [0x9f8d943926f0b177, 0x71d98a6ebfed72e5, 0x4548df750675a2c9]),
    ("MFPO/Parallel", [0x279a8a57c3f2d8db, 0x3d3cbb4b1e31d1fd, 0x69fc084383e48060]),
    ("PFRL-DM/Parallel", [0x034e5407a37b55a7, 0xdcfc0572b985e636, 0x9568305d84196726]),
    ("PPO/full", [0xd056611dd1330c45, 0x3fb7bb76b1ab26b7, 0x264153d1b478677f]),
    ("FedAvg/full", [0xbaa1c90e3f6ab033, 0xf202ee879d319f19, 0xd315d9ec153c9ac1]),
    ("MFPO/full", [0x8c1cbed826b819de, 0xd269f981e412b2f3, 0xde383e7613455ca9]),
    ("PFRL-DM/full", [0xa9126b5d2d99a0c5, 0x397b10a43a12d906, 0x7ddb5621c90bb030]),
    ("FedAvg/mixing", [0xafdff2a22f05b7e0, 0x4469c85e41113d83, 0x0f9d0577b9911355]),
    ("FedAvg/secure", [0xf731f36480615fa3, 0x99fe5159ab0095a9, 0x722aa5dcb11dd9cb]),
    ("PFRL-DM/add_client", [0xc15588ae0fe3d429, 0xd49594807625c5a4, 0x5fe8e87f473da56a]),
    ("PFRL-DM/fixed_alpha", [0xe86be09a7142dc20, 0xd8f4a682d2ecd46f, 0x6eede354e77f75f0]),
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
