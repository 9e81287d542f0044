//! Integration tests of the beyond-the-paper extensions: DAG scheduling,
//! secure aggregation, energy/cost objectives, checkpointing, and action
//! masking — exercised through the public API across crates.

use pfrl_rl::{DualCriticAgent, PpoAgent, PpoConfig};
use pfrl_sim::objectives::{total_cost_dollars, total_energy_wh, CostModel, EnergyModel};
use pfrl_sim::{Action, CloudEnv, EnvConfig, EnvDims, VmSpec};
use pfrl_workloads::{DatasetId, WorkflowModel};

fn dag_env() -> (EnvDims, CloudEnv) {
    let dims = EnvDims::new(3, 8, 64.0, 4);
    let env = CloudEnv::new(
        dims,
        vec![VmSpec::new(8, 64.0), VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
        EnvConfig::default(),
    );
    (dims, env)
}

fn small_workflows(n: usize, seed: u64) -> Vec<pfrl_workloads::Workflow> {
    let model = WorkflowModel {
        layers: (2, 4),
        width: (1, 3),
        max_fan_in: 2,
        mean_interarrival: 20.0,
        ..WorkflowModel::scientific(DatasetId::K8s.model())
    };
    model.sample(n, seed)
}

#[test]
fn ppo_trains_on_dag_environment_and_improves() {
    let (dims, mut env) = dag_env();
    let mut agent = PpoAgent::new(dims.state_dim(), dims.action_dim(), PpoConfig::default(), 1);
    let wfs = small_workflows(4, 3);
    let mut rewards = Vec::new();
    for _ in 0..60 {
        env.reset_workflows(wfs.clone());
        rewards.push(agent.train_one_episode(&mut env) as f64);
    }
    let early: f64 = rewards[..10].iter().sum::<f64>() / 10.0;
    let late: f64 = rewards[50..].iter().sum::<f64>() / 10.0;
    assert!(late > early, "DAG training: early {early:.1} late {late:.1}");
}

#[test]
fn dual_critic_agent_works_on_dags_too() {
    let (dims, mut env) = dag_env();
    let mut agent =
        DualCriticAgent::new(dims.state_dim(), dims.action_dim(), PpoConfig::default(), 2);
    let wfs = small_workflows(3, 5);
    for _ in 0..3 {
        env.reset_workflows(wfs.clone());
        let r = agent.train_one_episode(&mut env);
        assert!(r.is_finite());
    }
    assert!((0.0..=1.0).contains(&agent.alpha()));
}

#[test]
fn dag_makespans_respect_critical_path() {
    let (_, mut env) = dag_env();
    let wfs = small_workflows(5, 7);
    env.reset_workflows(wfs.clone());
    let mut guard = 0;
    while !env.is_done() && guard < 50_000 {
        let a = env.first_fit_action().unwrap_or(Action::Wait);
        env.step(a);
        guard += 1;
    }
    assert!(env.is_done() && !env.is_truncated());
    for (wf, span) in wfs.iter().zip(env.workflow_makespans()) {
        let span = span.expect("workflow completed");
        assert!(
            span >= wf.critical_path(),
            "span {span} below critical path {}",
            wf.critical_path()
        );
    }
}

#[test]
fn energy_and_cost_computable_from_any_episode() {
    let (_, mut env) = dag_env();
    env.reset_workflows(small_workflows(3, 9));
    let mut guard = 0;
    while !env.is_done() && guard < 50_000 {
        let a = env.first_fit_action().unwrap_or(Action::Wait);
        env.step(a);
        guard += 1;
    }
    let m = env.metrics();
    let vms = [VmSpec::new(8, 64.0), VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)];
    let energy = total_energy_wh(env.records(), &vms, &EnergyModel::commodity(), m.makespan);
    let cost = total_cost_dollars(env.records(), &CostModel::on_demand());
    assert!(energy > 0.0, "energy {energy}");
    assert!(cost > 0.0, "cost {cost}");
    // Energy at least covers idle power over the makespan.
    let idle_floor = 150.0 * 3.0 * (m.makespan / 60.0);
    assert!(energy >= idle_floor - 1e-6);
}

#[test]
fn secure_aggregation_is_transparent_to_training() {
    use pfrl_fed::{ClientSetup, FedAvgRunner, FedConfig};
    let dims = EnvDims::new(2, 8, 64.0, 3);
    let setups: Vec<ClientSetup> = (0..3)
        .map(|i| ClientSetup {
            name: format!("c{i}"),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: DatasetId::ALL[i].model().sample(60, i as u64),
        })
        .collect();
    let fed = FedConfig {
        episodes: 4,
        comm_every: 2,
        participation_k: 1,
        tasks_per_episode: Some(12),
        seed: 3,
        parallel: false,
    };
    let mut plain =
        FedAvgRunner::new(setups.clone(), dims, EnvConfig::default(), PpoConfig::default(), fed);
    let mut secure =
        FedAvgRunner::new(setups, dims, EnvConfig::default(), PpoConfig::default(), fed)
            .with_secure_aggregation(true);
    let c1 = plain.train();
    let c2 = secure.train();
    // Same training rewards episode by episode up to the (tiny) float
    // round-off the masking introduces at aggregation boundaries.
    for (a, b) in c1.per_client.iter().flatten().zip(c2.per_client.iter().flatten()) {
        assert!((a - b).abs() < 25.0, "diverged: {a} vs {b}");
    }
    let pa = plain.clients[0].agent.actor_params();
    let pb = secure.clients[0].agent.actor_params();
    let drift: f32 = pa.iter().zip(&pb).map(|(x, y)| (x - y).abs()).sum::<f32>() / pa.len() as f32;
    assert!(drift < 1e-2, "mean param drift {drift}");
}
