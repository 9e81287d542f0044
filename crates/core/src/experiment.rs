//! Uniform experiment driver over the four algorithms.

use pfrl_fed::{
    AttackPlan, ClientSetup, FaultPlan, FedAvg, FedConfig, FedError, FederatedRunner, Federation,
    Independent, Mfpo, PfrlDm, PolicySnapshot, RobustConfig, Strategy, TrainingCurves,
};
use pfrl_rl::PpoConfig;
use pfrl_scenario::ScenarioBinding;
use pfrl_sim::{EnvConfig, EnvDims, EpisodeMetrics};
use pfrl_telemetry::{RunManifest, Telemetry};
use pfrl_workloads::workflow::Workflow;
use pfrl_workloads::TaskSpec;
use std::io;
use std::path::PathBuf;

/// The four algorithms compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's contribution.
    PfrlDm,
    /// Classic FedAvg over actor + critic.
    FedAvg,
    /// Momentum-based FRL baseline.
    Mfpo,
    /// Independent PPO (no federation).
    Ppo,
}

impl Algorithm {
    /// All four, in the paper's plotting order.
    pub const ALL: [Algorithm; 4] =
        [Algorithm::PfrlDm, Algorithm::FedAvg, Algorithm::Mfpo, Algorithm::Ppo];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::PfrlDm => "PFRL-DM",
            Algorithm::FedAvg => "FedAvg",
            Algorithm::Mfpo => "MFPO",
            Algorithm::Ppo => "PPO",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A trained federation of any algorithm, kept for post-training
/// evaluation (Sec. 5.3's generalization studies) and policy export.
///
/// Every accessor dispatches through the [`FederatedRunner`] trait — there
/// is no per-algorithm branching here, so a fifth policy family only needs
/// a trait impl, not edits to this type.
pub struct TrainedFederation {
    algorithm: Algorithm,
    runner: Box<dyn FederatedRunner>,
}

impl TrainedFederation {
    /// Wraps a trained runner.
    pub fn new(algorithm: Algorithm, runner: Box<dyn FederatedRunner>) -> Self {
        Self { algorithm, runner }
    }

    /// The algorithm that trained this federation.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The trained runner, behind the uniform trait.
    pub fn runner(&self) -> &dyn FederatedRunner {
        &*self.runner
    }

    /// The concrete runner, when algorithm-specific state is needed (e.g.
    /// PFRL-DM's attention weight history).
    pub fn downcast_ref<R: FederatedRunner + 'static>(&self) -> Option<&R> {
        self.runner.as_any().downcast_ref::<R>()
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.runner.clients().len()
    }

    /// Client display names, in index order.
    pub fn client_names(&self) -> Vec<String> {
        self.runner.clients().iter().map(|c| c.name().to_string()).collect()
    }

    /// Each client's private training pool (used to build hybrid test sets).
    pub fn client_task_pools(&self) -> Vec<Vec<TaskSpec>> {
        self.runner.clients().iter().map(|c| c.train_tasks().to_vec()).collect()
    }

    /// Greedy evaluation of client `idx`'s trained policy on `tasks`.
    pub fn evaluate_client(&mut self, idx: usize, tasks: &[TaskSpec]) -> EpisodeMetrics {
        self.runner.clients_mut()[idx].evaluate_on(tasks)
    }

    /// One inference-only [`PolicySnapshot`] per client — the export the
    /// `pfrl-serve` layer loads.
    pub fn policy_snapshots(&self) -> Vec<PolicySnapshot> {
        self.runner.policy_snapshots()
    }
}

/// Optional run-shaping knobs accepted by every entry point: a fault
/// schedule, a workload-drift + churn scenario, and per-client DAG workflow
/// pools. [`RunOptions::default`] is a plain healthy flat-task run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Deterministic fault schedule ([`FaultPlan::none`] by default).
    pub fault_plan: FaultPlan,
    /// Workload drift + client churn scenario (see [`pfrl_scenario`]).
    pub scenario: Option<ScenarioBinding>,
    /// Per-client DAG workflow pools; switches every client to workflow
    /// episodes ([`pfrl_sim::CloudEnv::reset_workflows`]).
    pub workflows: Option<Vec<Vec<Workflow>>>,
    /// Seeded per-episode window into each workflow pool (`None` replays
    /// the full pool each episode). Only meaningful with `workflows`.
    pub workflows_per_episode: Option<usize>,
    /// Deterministic adversarial-upload schedule ([`AttackPlan::none`] by
    /// default): a seeded coalition poisons its uploads at the quarantine
    /// gate (see [`pfrl_fed::attack`]).
    pub attack_plan: AttackPlan,
    /// Server-side robust aggregation config ([`RobustConfig::default`] is
    /// a plain mean with no screens — bit-identical to the pre-robustness
    /// path; see [`pfrl_fed::robust`]).
    pub robust: RobustConfig,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            fault_plan: FaultPlan::none(),
            scenario: None,
            workflows: None,
            workflows_per_episode: None,
            attack_plan: AttackPlan::none(),
            robust: RobustConfig::default(),
        }
    }
}

impl RunOptions {
    /// Options carrying only a fault plan (the pre-scenario surface).
    pub fn with_fault_plan(fault_plan: FaultPlan) -> Self {
        Self { fault_plan, ..Self::default() }
    }

    /// Options carrying only a drift/churn scenario.
    pub fn with_scenario(binding: ScenarioBinding) -> Self {
        Self { scenario: Some(binding), ..Self::default() }
    }

    /// Options carrying an adversarial coalition and the aggregation
    /// defense evaluated against it (the robustness-sweep surface).
    pub fn with_attack(attack_plan: AttackPlan, robust: RobustConfig) -> Self {
        Self { attack_plan, robust, ..Self::default() }
    }
}

/// Trains `algorithm` over the given clients and returns the reward curves
/// plus the trained federation.
pub fn run_federation(
    algorithm: Algorithm,
    setups: Vec<ClientSetup>,
    dims: EnvDims,
    env_cfg: EnvConfig,
    ppo_cfg: PpoConfig,
    fed_cfg: FedConfig,
) -> (TrainingCurves, TrainedFederation) {
    run_federation_with_telemetry(
        algorithm,
        setups,
        dims,
        env_cfg,
        ppo_cfg,
        fed_cfg,
        Telemetry::noop(),
    )
}

/// [`run_federation`] with every runner, agent, and environment metric
/// routed to `telemetry` (a no-op [`Telemetry`] costs one branch per call
/// site, so the plain entry point just delegates here).
pub fn run_federation_with_telemetry(
    algorithm: Algorithm,
    setups: Vec<ClientSetup>,
    dims: EnvDims,
    env_cfg: EnvConfig,
    ppo_cfg: PpoConfig,
    fed_cfg: FedConfig,
    telemetry: Telemetry,
) -> (TrainingCurves, TrainedFederation) {
    run_federation_with_options(
        algorithm,
        setups,
        dims,
        env_cfg,
        ppo_cfg,
        fed_cfg,
        &RunOptions::default(),
        telemetry,
    )
}

/// The fully general entry point: [`run_federation_with_telemetry`] plus
/// the optional run-shaping knobs of [`RunOptions`] — fault schedule,
/// drift/churn scenario, and DAG workflow pools.
#[allow(clippy::too_many_arguments)]
pub fn run_federation_with_options(
    algorithm: Algorithm,
    setups: Vec<ClientSetup>,
    dims: EnvDims,
    env_cfg: EnvConfig,
    ppo_cfg: PpoConfig,
    fed_cfg: FedConfig,
    options: &RunOptions,
    telemetry: Telemetry,
) -> (TrainingCurves, TrainedFederation) {
    let mut runner =
        build_runner(algorithm, setups, dims, env_cfg, ppo_cfg, fed_cfg, telemetry, options);
    let curves = runner.train_to_completion();
    (curves, TrainedFederation::new(algorithm, runner))
}

/// Builds strategy `S`'s federation with every [`RunOptions`] knob applied.
#[allow(clippy::too_many_arguments)]
fn configured<S: Strategy + Default>(
    setups: Vec<ClientSetup>,
    dims: EnvDims,
    env_cfg: EnvConfig,
    ppo_cfg: PpoConfig,
    fed_cfg: FedConfig,
    telemetry: Telemetry,
    options: &RunOptions,
) -> Box<dyn FederatedRunner> {
    let mut r = Federation::<S>::new(setups, dims, env_cfg, ppo_cfg, fed_cfg)
        .with_telemetry(telemetry)
        .with_fault_plan(options.fault_plan)
        .with_attack_plan(options.attack_plan)
        .with_robust_aggregator(options.robust);
    if let Some(binding) = &options.scenario {
        r = r.with_scenario(binding);
    }
    if let Some(pools) = &options.workflows {
        r = r.with_workflows(pools.clone(), options.workflows_per_episode);
    }
    Box::new(r)
}

/// Constructs the requested runner behind the uniform trait. This is the
/// single place the driver distinguishes algorithms — everything after
/// construction goes through [`FederatedRunner`].
#[allow(clippy::too_many_arguments)]
fn build_runner(
    algorithm: Algorithm,
    setups: Vec<ClientSetup>,
    dims: EnvDims,
    env_cfg: EnvConfig,
    ppo_cfg: PpoConfig,
    fed_cfg: FedConfig,
    telemetry: Telemetry,
    options: &RunOptions,
) -> Box<dyn FederatedRunner> {
    let build = match algorithm {
        Algorithm::PfrlDm => configured::<PfrlDm>,
        Algorithm::FedAvg => configured::<FedAvg>,
        Algorithm::Mfpo => configured::<Mfpo>,
        Algorithm::Ppo => configured::<Independent>,
    };
    build(setups, dims, env_cfg, ppo_cfg, fed_cfg, telemetry, options)
}

/// Where and how often a resumable run checkpoints its federation state.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file (written atomically: temp file + rename).
    pub path: PathBuf,
    /// Communication rounds between checkpoints (≥ 1).
    pub every_rounds: usize,
}

impl CheckpointConfig {
    /// Checkpoints to `path` after every round.
    pub fn every_round(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into(), every_rounds: 1 }
    }
}

/// Atomically persists a runner checkpoint: a partial write can never
/// clobber the previous good checkpoint.
fn persist_checkpoint(path: &std::path::Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Drives one runner round-by-round with periodic checkpoints; restores
/// first when a checkpoint already exists on disk. Pure trait-object code —
/// the same loop serves all algorithms.
fn drive_resumable(
    r: &mut dyn FederatedRunner,
    ckpt: &CheckpointConfig,
    telemetry: &Telemetry,
) -> Result<TrainingCurves, FedError> {
    if ckpt.path.exists() {
        r.restore_checkpoint(&std::fs::read(&ckpt.path)?)?;
        telemetry.counter("fed/checkpoint_restores", 1);
    }
    while r.rounds_done() < r.config().rounds() {
        r.train_round();
        if r.rounds_done().is_multiple_of(ckpt.every_rounds) {
            persist_checkpoint(&ckpt.path, &r.checkpoint_bytes())?;
            telemetry.counter("fed/checkpoints", 1);
        }
    }
    Ok(r.finish())
}

/// [`run_federation_with_options`] with crash recovery: the federation
/// state (server model, per-client personalized state, optimizer moments,
/// RNG cursors, fault bookkeeping) is checkpointed every
/// `ckpt.every_rounds` rounds, and an existing checkpoint at `ckpt.path`
/// is restored before training. A run that is killed and re-invoked with
/// the same arguments finishes with curves bit-identical to an
/// uninterrupted run — every stochastic stream is either derived from
/// `(seed, client, episode)` or serialized in the checkpoint. Scenario,
/// workflow and fault configuration in `options` are construction-time
/// and not serialized in checkpoints, so re-invoking with the same
/// options resumes to bit-identical curves even mid-drift; a bare fault
/// schedule is [`RunOptions::with_fault_plan`].
///
/// Checkpoint I/O and decode failures surface as [`FedError`]
/// (`Io`/`Checkpoint` variants).
#[allow(clippy::too_many_arguments)]
pub fn run_federation_resumable_with_options(
    algorithm: Algorithm,
    setups: Vec<ClientSetup>,
    dims: EnvDims,
    env_cfg: EnvConfig,
    ppo_cfg: PpoConfig,
    fed_cfg: FedConfig,
    options: &RunOptions,
    ckpt: &CheckpointConfig,
    telemetry: Telemetry,
) -> Result<(TrainingCurves, TrainedFederation), FedError> {
    assert!(ckpt.every_rounds >= 1, "every_rounds must be >= 1");
    let mut runner = build_runner(
        algorithm,
        setups,
        dims,
        env_cfg,
        ppo_cfg,
        fed_cfg,
        telemetry.clone(),
        options,
    );
    let curves = drive_resumable(&mut *runner, ckpt, &telemetry)?;
    Ok((curves, TrainedFederation::new(algorithm, runner)))
}

/// Builds the reproducibility manifest for one federation run: seed,
/// algorithm, thread/scale context, and a config hash covering every knob
/// that shapes the result.
pub fn federation_manifest(
    run: &str,
    algorithm: Algorithm,
    dims: EnvDims,
    env_cfg: &EnvConfig,
    ppo_cfg: &PpoConfig,
    fed_cfg: &FedConfig,
) -> RunManifest {
    RunManifest::new(run)
        .with_algorithm(algorithm.name())
        .with_seed(fed_cfg.seed)
        .with_config_of(&(dims, env_cfg, ppo_cfg, fed_cfg))
}

/// The four per-client metric collections of Figs. 16–19: one value per
/// client, per metric.
#[derive(Debug, Clone, Default)]
pub struct GeneralizationResults {
    /// Mean response times (steps).
    pub response: Vec<f64>,
    /// Makespans (steps).
    pub makespan: Vec<f64>,
    /// Mean utilizations `[0, 1]`.
    pub utilization: Vec<f64>,
    /// Mean load-balance values (lower = better).
    pub load_balance: Vec<f64>,
}

/// Evaluates every client of a trained federation on its hybrid test set
/// (Sec. 5.3: `own_frac` of its own held-out tasks, the rest drawn from the
/// other clients), producing the data behind Figs. 16–19.
pub fn evaluate_generalization(
    fed: &mut TrainedFederation,
    test_sets: &[Vec<TaskSpec>],
    own_frac: f64,
    seed: u64,
) -> GeneralizationResults {
    let n = fed.n_clients();
    assert_eq!(test_sets.len(), n, "one test set per client required");
    let mut out = GeneralizationResults::default();
    for i in 0..n {
        let hybrid = pfrl_workloads::hybrid_test_set(test_sets, i, own_frac, seed);
        let m = fed.evaluate_client(i, &hybrid);
        out.response.push(m.avg_response);
        out.makespan.push(m.makespan);
        out.utilization.push(m.avg_utilization);
        out.load_balance.push(m.avg_load_balance);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{table2_clients, TABLE2_DIMS};

    fn tiny_fed() -> FedConfig {
        FedConfig {
            episodes: 2,
            comm_every: 1,
            participation_k: 2,
            tasks_per_episode: Some(10),
            seed: 3,
            parallel: false,
        }
    }

    #[test]
    fn all_algorithms_run_on_table2() {
        for alg in Algorithm::ALL {
            let (curves, fed) = run_federation(
                alg,
                table2_clients(40, 1),
                TABLE2_DIMS,
                EnvConfig::default(),
                PpoConfig::default(),
                tiny_fed(),
            );
            assert_eq!(curves.clients(), 4, "{alg}");
            assert_eq!(fed.n_clients(), 4, "{alg}");
            assert!(curves.per_client.iter().all(|c| c.len() == 2), "{alg}: wrong episode count");
        }
    }

    #[test]
    fn generalization_evaluates_every_client() {
        let (_, mut fed) = run_federation(
            Algorithm::Ppo,
            table2_clients(40, 2),
            TABLE2_DIMS,
            EnvConfig::default(),
            PpoConfig::default(),
            tiny_fed(),
        );
        let pools = fed.client_task_pools();
        let g = evaluate_generalization(&mut fed, &pools, 0.2, 9);
        assert_eq!(g.response.len(), 4);
        assert_eq!(g.makespan.len(), 4);
        assert!(g.utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
        assert!(g.load_balance.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn telemetry_records_rounds_and_phases() {
        use pfrl_telemetry::InMemoryRecorder;
        use std::sync::Arc;

        let rec = Arc::new(InMemoryRecorder::new());
        let (curves, _) = run_federation_with_telemetry(
            Algorithm::PfrlDm,
            table2_clients(40, 3),
            TABLE2_DIMS,
            EnvConfig::default(),
            PpoConfig::default(),
            tiny_fed(),
            Telemetry::new(rec.clone()),
        );
        assert_eq!(curves.clients(), 4);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("fed/rounds"), 2);
        assert!(snap.counter("fed/bytes_up") > 0);
        assert!(snap.counter("fed/bytes_down") > 0);
        for phase in
            ["fed/round", "fed/round/local_train", "fed/round/attention", "fed/round/broadcast"]
        {
            assert_eq!(snap.span_count(phase), 2, "{phase}");
        }
        assert!(snap.histogram("fed/attention_entropy").is_some());
        assert!(snap.histogram("rl/episode_reward").is_some());
    }

    #[test]
    fn manifest_hash_tracks_config_changes() {
        let mk = |seed: u64| {
            federation_manifest(
                "unit",
                Algorithm::FedAvg,
                TABLE2_DIMS,
                &EnvConfig::default(),
                &PpoConfig::default(),
                &FedConfig { seed, ..tiny_fed() },
            )
        };
        let a = mk(1);
        let b = mk(1);
        let c = mk(2);
        assert_eq!(a.config_hash, b.config_hash);
        assert_ne!(a.config_hash, c.config_hash);
        assert_eq!(a.algorithm.as_deref(), Some("FedAvg"));
        assert_eq!(a.seed, 1);
    }

    #[test]
    fn algorithm_names_match_paper() {
        assert_eq!(Algorithm::PfrlDm.name(), "PFRL-DM");
        assert_eq!(Algorithm::FedAvg.to_string(), "FedAvg");
        assert_eq!(Algorithm::ALL.len(), 4);
    }
}
