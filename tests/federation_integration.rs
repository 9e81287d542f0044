//! Cross-crate integration tests of the federated runtime.

use pfrl_fed::{ClientSetup, FedAvgRunner, FedConfig, MfpoRunner, PfrlDmRunner};
use pfrl_nn::params::average_params;
use pfrl_rl::PpoConfig;
use pfrl_sim::{EnvConfig, EnvDims, VmSpec};
use pfrl_workloads::DatasetId;

fn dims() -> EnvDims {
    EnvDims::new(2, 8, 64.0, 3)
}

fn setups(n: usize) -> Vec<ClientSetup> {
    let datasets = [
        DatasetId::K8s,
        DatasetId::Google,
        DatasetId::Alibaba2017,
        DatasetId::Kvm2019,
        DatasetId::HpcHf,
    ];
    (0..n)
        .map(|i| ClientSetup {
            name: format!("client{i}"),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: datasets[i % datasets.len()].model().sample(80, 100 + i as u64),
        })
        .collect()
}

fn fed(episodes: usize, k: usize) -> FedConfig {
    FedConfig {
        episodes,
        comm_every: 2,
        participation_k: k,
        tasks_per_episode: Some(15),
        seed: 42,
        parallel: true,
    }
}

#[test]
fn fedavg_round_synchronizes_and_preserves_mean() {
    let mut r =
        FedAvgRunner::new(setups(3), dims(), EnvConfig::default(), PpoConfig::default(), fed(4, 1));
    r.train();
    // Episodes = 4, comm_every = 2: the run ends exactly on an aggregation.
    let actor0 = r.clients[0].agent.actor_params();
    for c in &r.clients {
        assert_eq!(c.agent.actor_params(), actor0);
        assert_eq!(c.agent.critic_params(), r.clients[0].agent.critic_params());
    }
}

#[test]
fn pfrl_dm_only_critics_travel_and_weights_are_stochastic() {
    let mut r =
        PfrlDmRunner::new(setups(4), dims(), EnvConfig::default(), PpoConfig::default(), fed(4, 2));
    r.train();
    // Actors stay private.
    let a0 = r.clients[0].agent.actor.flat_params();
    let a1 = r.clients[1].agent.actor.flat_params();
    assert_ne!(a0, a1);
    // Every recorded attention matrix is row-stochastic.
    assert!(!r.weight_history().is_empty());
    for w in r.weight_history() {
        for row in 0..w.rows() {
            let s: f32 = w.row(row).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row sum {s}");
            assert!(w.row(row).iter().all(|&v| v >= 0.0));
        }
    }
    // Global model is the mean of the last round's personalized models.
    assert_eq!(r.server_global().len(), r.clients[0].agent.public_critic_params().len());
}

#[test]
fn mfpo_clients_synchronized_after_every_round() {
    let mut r =
        MfpoRunner::new(setups(3), dims(), EnvConfig::default(), PpoConfig::default(), fed(4, 1));
    r.train();
    let p0 = r.clients[0].agent.actor_params();
    for c in &r.clients {
        assert_eq!(c.agent.actor_params(), p0);
    }
}

#[test]
fn full_stack_determinism_parallel_vs_sequential() {
    let run = |parallel: bool| {
        let cfg = FedConfig { parallel, ..fed(4, 2) };
        let mut r =
            PfrlDmRunner::new(setups(4), dims(), EnvConfig::default(), PpoConfig::default(), cfg);
        let curves = r.train();
        (curves, r.server_global().to_vec())
    };
    let (c1, g1) = run(true);
    let (c2, g2) = run(false);
    assert_eq!(c1, c2, "reward curves must not depend on thread count");
    assert_eq!(g1, g2, "server model must not depend on thread count");
}

#[test]
fn average_params_matches_manual_mean_through_training() {
    let mut r =
        FedAvgRunner::new(setups(2), dims(), EnvConfig::default(), PpoConfig::default(), fed(2, 1));
    // One local phase without aggregation:
    r.clients.iter_mut().for_each(|c| c.run_episodes(1));
    let actors: Vec<Vec<f32>> = r.clients.iter().map(|c| c.agent.actor_params()).collect();
    let mean = average_params(&actors);
    r.aggregate();
    let got = r.clients[1].agent.actor_params();
    for (g, m) in got.iter().zip(&mean) {
        assert!((g - m).abs() < 1e-6);
    }
}
