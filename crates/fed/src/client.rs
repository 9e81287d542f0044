//! A federated client: an agent bound to its private environment and
//! workload pool.

use crate::checkpoint::{
    read_dual_agent, read_ppo_agent, write_dual_agent, write_ppo_agent, Reader, Writer,
};
use crate::config::{ClientSetup, FedConfig};
use crate::snapshot::PolicySnapshot;
use pfrl_nn::Mlp;
use pfrl_rl::{DualCriticAgent, PpoAgent, PpoConfig};
use pfrl_scenario::ClientTrace;
use pfrl_sim::{CloudEnv, EnvConfig, EnvDims, EpisodeMetrics};
use pfrl_stats::seeding::SeedStream;
use pfrl_telemetry::Telemetry;
use pfrl_workloads::workflow::Workflow;
use pfrl_workloads::TaskSpec;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use std::io;

/// Minimal agent interface the federation machinery needs.
pub trait FedAgent: Clone + Send {
    /// A fresh agent with seeded initialization.
    fn build(state_dim: usize, action_dim: usize, cfg: PpoConfig, seed: u64) -> Self;
    /// Encodes the complete resumable training state.
    fn write_state(&self, w: &mut Writer);
    /// Reads state written by [`Self::write_state`] into `self`, checked
    /// against this agent's network shapes first: a mismatched checkpoint
    /// is an `Err`, not a panic.
    fn read_state(&mut self, r: &mut Reader<'_>) -> io::Result<()>;
    /// One training episode on a freshly reset env; returns total reward.
    fn train_episode(&mut self, env: &mut CloudEnv) -> f32;
    /// Greedy evaluation on a freshly reset env (`&mut self`: the agents
    /// route per-decision tensors through internal scratch buffers).
    fn evaluate_episode(&mut self, env: &mut CloudEnv) -> EpisodeMetrics;
    /// Routes the agent's metrics to `telemetry`. Default: ignore.
    fn set_telemetry(&mut self, _telemetry: Telemetry) {}
    /// The policy (actor) network — the part of the agent a serving
    /// snapshot exports.
    fn actor(&self) -> &Mlp;
    /// The agent's PPO configuration (hidden width, masking flag).
    fn ppo_config(&self) -> &PpoConfig;
}

impl FedAgent for PpoAgent {
    fn build(state_dim: usize, action_dim: usize, cfg: PpoConfig, seed: u64) -> Self {
        PpoAgent::new(state_dim, action_dim, cfg, seed)
    }
    fn write_state(&self, w: &mut Writer) {
        write_ppo_agent(w, &self.snapshot());
    }
    fn read_state(&mut self, r: &mut Reader<'_>) -> io::Result<()> {
        let snap = read_ppo_agent(r, self)?;
        self.restore(&snap);
        Ok(())
    }
    fn train_episode(&mut self, env: &mut CloudEnv) -> f32 {
        self.train_one_episode(env)
    }
    fn evaluate_episode(&mut self, env: &mut CloudEnv) -> EpisodeMetrics {
        self.evaluate(env)
    }
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        PpoAgent::set_telemetry(self, telemetry);
    }
    fn actor(&self) -> &Mlp {
        &self.actor
    }
    fn ppo_config(&self) -> &PpoConfig {
        self.config()
    }
}

impl FedAgent for DualCriticAgent {
    fn build(state_dim: usize, action_dim: usize, cfg: PpoConfig, seed: u64) -> Self {
        DualCriticAgent::new(state_dim, action_dim, cfg, seed)
    }
    fn write_state(&self, w: &mut Writer) {
        write_dual_agent(w, &self.snapshot());
    }
    fn read_state(&mut self, r: &mut Reader<'_>) -> io::Result<()> {
        let snap = read_dual_agent(r, self)?;
        self.restore(&snap);
        Ok(())
    }
    fn train_episode(&mut self, env: &mut CloudEnv) -> f32 {
        self.train_one_episode(env)
    }
    fn evaluate_episode(&mut self, env: &mut CloudEnv) -> EpisodeMetrics {
        self.evaluate(env)
    }
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        DualCriticAgent::set_telemetry(self, telemetry);
    }
    fn actor(&self) -> &Mlp {
        &self.actor
    }
    fn ppo_config(&self) -> &PpoConfig {
        self.config()
    }
}

/// One client of the federation.
pub struct Client<A: FedAgent> {
    /// The learning agent.
    pub agent: A,
    /// Display name.
    pub name: String,
    /// Episode rewards collected so far.
    pub rewards: Vec<f64>,
    env: CloudEnv,
    train_tasks: Vec<TaskSpec>,
    episode_seeds: SeedStream,
    episodes_done: usize,
    tasks_per_episode: Option<usize>,
    /// Non-stationary trace override: when set, episode tasks come from the
    /// scenario plan (pure in `(client, episode)`) instead of the pool.
    scenario: Option<ClientTrace>,
    /// Workflow pool; non-empty switches the client to workflow episodes.
    workflows: Vec<Workflow>,
    /// Per-episode workflow window (workflow mode; `None` = full pool).
    workflows_per_episode: Option<usize>,
}

impl<A: FedAgent> Client<A> {
    /// Builds a client from its setup, agent, and the shared dims/config.
    pub fn new(
        setup: ClientSetup,
        agent: A,
        dims: EnvDims,
        env_cfg: EnvConfig,
        fed_cfg: &FedConfig,
        client_index: usize,
    ) -> Self {
        assert!(!setup.train_tasks.is_empty(), "client {} has no tasks", setup.name);
        let env = CloudEnv::new(dims, setup.vms, env_cfg);
        let episode_seeds =
            SeedStream::new(fed_cfg.seed).child("episodes").index(client_index as u64);
        Self {
            agent,
            name: setup.name,
            rewards: Vec::new(),
            env,
            train_tasks: setup.train_tasks,
            episode_seeds,
            episodes_done: 0,
            tasks_per_episode: fed_cfg.tasks_per_episode,
            scenario: None,
            workflows: Vec::new(),
            workflows_per_episode: None,
        }
    }

    /// Routes this client's agent and environment metrics to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.agent.set_telemetry(telemetry.clone());
        self.env.set_telemetry(telemetry);
    }

    /// Installs a scenario trace: from now on episode tasks are sampled
    /// from the drifting plan instead of the static pool. The pool is kept
    /// (it still defines `train_tasks()` for evaluation bookkeeping).
    pub fn set_scenario_trace(&mut self, trace: ClientTrace) {
        self.scenario = Some(trace);
    }

    /// Switches the client to dependency-aware workflow episodes, training
    /// on windows of `pool`. `per_episode` bounds the workflows per episode
    /// window (`None` = the whole pool every episode). The environment keeps
    /// its telemetry handle, so a workflow run records its `sim/*` metrics
    /// whichever of this and [`Self::set_telemetry`] comes first.
    pub fn use_workflows(&mut self, pool: Vec<Workflow>, per_episode: Option<usize>) {
        assert!(!pool.is_empty(), "client {} has no workflows", self.name);
        self.workflows = pool;
        self.workflows_per_episode = per_episode;
    }

    /// Number of training episodes completed.
    pub fn episodes_done(&self) -> usize {
        self.episodes_done
    }

    /// Restores the episode cursor from a checkpoint (the reward history is
    /// restored directly through the public `rewards` field). Episode seeds
    /// derive from `(config seed, client index, episode index)`, so setting
    /// the cursor is all that is needed to resume the episode stream.
    pub(crate) fn restore_episode_cursor(&mut self, episodes_done: usize) {
        self.episodes_done = episodes_done;
    }

    /// The client's private training pool.
    pub fn train_tasks(&self) -> &[TaskSpec] {
        &self.train_tasks
    }

    /// Draws this episode's task window. A scenario trace, when installed,
    /// takes precedence (the drifting plan is the workload law); otherwise a
    /// seeded random contiguous slice of the pool, rebased to arrival 0 (or
    /// the full pool when `tasks_per_episode` is `None`).
    fn episode_tasks(&self, episode: usize) -> Vec<TaskSpec> {
        if let Some(trace) = &self.scenario {
            return trace.episode_tasks(episode);
        }
        match self.tasks_per_episode {
            None => self.train_tasks.clone(),
            Some(n) if n >= self.train_tasks.len() => self.train_tasks.clone(),
            Some(n) => {
                let seed = self.episode_seeds.index(episode as u64).seed();
                let mut rng = SmallRng::seed_from_u64(seed);
                let start = rng.gen_range(0..=self.train_tasks.len() - n);
                let mut window = self.train_tasks[start..start + n].to_vec();
                let base = window.first().map_or(0, |t| t.arrival);
                for (i, t) in window.iter_mut().enumerate() {
                    t.id = i as u64;
                    t.arrival -= base;
                }
                window
            }
        }
    }

    /// Draws this episode's workflow window (workflow mode): the same seeded
    /// windowing discipline as [`Self::episode_tasks`], with submission
    /// times rebased to 0.
    fn episode_workflows(&self, episode: usize) -> Vec<Workflow> {
        let n = match self.workflows_per_episode {
            None => return self.workflows.clone(),
            Some(n) if n >= self.workflows.len() => return self.workflows.clone(),
            Some(n) => n,
        };
        let seed = self.episode_seeds.index(episode as u64).seed();
        let mut rng = SmallRng::seed_from_u64(seed);
        let start = rng.gen_range(0..=self.workflows.len() - n);
        let mut window = self.workflows[start..start + n].to_vec();
        let base = window.first().map_or(0, |w| w.submit);
        for wf in &mut window {
            wf.submit -= base;
            for t in &mut wf.tasks {
                t.spec.arrival = wf.submit;
            }
        }
        window
    }

    /// Runs `n` training episodes, appending to `rewards`.
    pub fn run_episodes(&mut self, n: usize) {
        for _ in 0..n {
            let episode = self.episodes_done;
            if self.workflows.is_empty() {
                self.env.reset(self.episode_tasks(episode));
            } else {
                self.env.reset_workflows(self.episode_workflows(episode));
            }
            let r = self.agent.train_episode(&mut self.env);
            self.rewards.push(r as f64);
            self.episodes_done += 1;
        }
    }

    /// Greedy evaluation of the current policy on an arbitrary task set
    /// (e.g. a held-out or hybrid test set). Borrows the tasks: the one
    /// copy the environment needs (it re-sorts by arrival) happens here,
    /// not at every call site. In workflow mode the tasks run as singleton
    /// workflows, so flat- and workflow-trained policies share one
    /// evaluation pipeline.
    pub fn evaluate_on(&mut self, tasks: &[TaskSpec]) -> EpisodeMetrics {
        if self.workflows.is_empty() {
            self.env.reset(tasks.to_vec());
        } else {
            self.env.reset_workflows(tasks.iter().copied().map(Workflow::singleton).collect());
        }
        self.agent.evaluate_episode(&mut self.env)
    }

    /// Exports the client's current greedy policy plus its environment
    /// definition as an inference-only snapshot. `algorithm` is the paper
    /// name of the runner that trained it.
    pub fn policy_snapshot(&self, algorithm: &str) -> PolicySnapshot {
        let cfg = self.agent.ppo_config();
        PolicySnapshot {
            algorithm: algorithm.to_string(),
            client: self.name.clone(),
            version: self.episodes_done as u64,
            dims: *self.env.dims(),
            env_cfg: *self.env.config(),
            vms: self.env.vm_specs().to_vec(),
            hidden: cfg.hidden,
            mask_actions: cfg.mask_invalid_actions,
            actor_params: self.agent.actor().flat_params(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfrl_rl::PpoConfig;
    use pfrl_sim::VmSpec;
    use pfrl_workloads::DatasetId;

    fn dims() -> EnvDims {
        EnvDims::new(2, 8, 64.0, 3)
    }

    fn setup() -> ClientSetup {
        ClientSetup {
            name: "test".into(),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: DatasetId::K8s.model().sample(200, 1),
        }
    }

    fn client(fed_cfg: &FedConfig) -> Client<PpoAgent> {
        let d = dims();
        let agent = PpoAgent::new(d.state_dim(), d.action_dim(), PpoConfig::default(), 5);
        Client::new(setup(), agent, d, EnvConfig::default(), fed_cfg, 0)
    }

    #[test]
    fn runs_episodes_and_collects_rewards() {
        let cfg = FedConfig { tasks_per_episode: Some(20), ..Default::default() };
        let mut c = client(&cfg);
        c.run_episodes(3);
        assert_eq!(c.rewards.len(), 3);
        assert_eq!(c.episodes_done(), 3);
        assert!(c.rewards.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn episode_windows_differ_but_are_deterministic() {
        let cfg = FedConfig { tasks_per_episode: Some(20), seed: 3, ..Default::default() };
        let c1 = client(&cfg);
        let w0 = c1.episode_tasks(0);
        let w1 = c1.episode_tasks(1);
        assert_eq!(w0.len(), 20);
        assert_eq!(w0[0].arrival, 0);
        assert_ne!(w0, w1);
        let c2 = client(&cfg);
        assert_eq!(c2.episode_tasks(0), w0);
    }

    #[test]
    fn full_pool_when_window_is_none_or_large() {
        let cfg = FedConfig { tasks_per_episode: None, ..Default::default() };
        let c = client(&cfg);
        assert_eq!(c.episode_tasks(0).len(), 200);
        let cfg = FedConfig { tasks_per_episode: Some(500), ..Default::default() };
        let c = client(&cfg);
        assert_eq!(c.episode_tasks(0).len(), 200);
    }

    #[test]
    fn evaluate_on_external_tasks() {
        let cfg = FedConfig::default();
        let mut c = client(&cfg);
        let m = c.evaluate_on(&DatasetId::Google.model().sample(30, 2));
        assert_eq!(m.tasks_placed + m.tasks_unplaced, 30);
    }

    #[test]
    #[should_panic(expected = "no tasks")]
    fn empty_task_pool_rejected() {
        let d = dims();
        let agent = PpoAgent::new(d.state_dim(), d.action_dim(), PpoConfig::default(), 5);
        let s = ClientSetup {
            name: "empty".into(),
            vms: vec![VmSpec::new(8, 64.0)],
            train_tasks: vec![],
        };
        let _ = Client::new(s, agent, d, EnvConfig::default(), &FedConfig::default(), 0);
    }
}
