//! The standard single-critic PPO agent (the paper's "independent PPO"
//! baseline, and the client algorithm inside plain FedAvg).

use crate::buffer::{BufferSnapshot, RolloutBuffer};
use crate::config::PpoConfig;
use crate::policy::{self, PolicyScratch, PpoLossStats};
use crate::returns::{
    discounted_returns, discounted_returns_into, gae_advantages_into, normalize_in_place,
};
use pfrl_nn::AdamState;
use pfrl_nn::{Activation, Adam, Mlp, TransposedBatch};
use pfrl_sim::{Action, CloudEnv, EpisodeMetrics};
use pfrl_telemetry::Telemetry;
use pfrl_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds the paper's scheduler network shape: one hidden tanh layer.
pub(crate) fn build_net(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut SmallRng) -> Mlp {
    Mlp::new(&[in_dim, hidden, out_dim], Activation::Tanh, rng)
}

/// Reusable buffers for an agent's two hot paths — the per-decision
/// rollout/eval loop and the PPO minibatch update. Each agent owns one;
/// every buffer retains its capacity across episodes and updates, so
/// steady-state training and inference allocate nothing after warmup.
#[derive(Debug, Clone, Default)]
pub(crate) struct AgentScratch {
    // Per-decision path.
    pub(crate) state: Vec<f32>,
    pub(crate) logits: Vec<f32>,
    pub(crate) mask: Vec<bool>,
    pub(crate) policy: PolicyScratch,
    // Minibatch batch tensors (borrowed shared while the epoch scratch is
    // borrowed mutably — kept as sibling fields so the borrows are disjoint).
    pub(crate) states: Matrix,
    /// `statesᵀ`: every network's input-layer `xᵀ` for each backward pass
    /// of the update, built once per batch by `prepare_batch` (the α
    /// refresh outside an update refills `states` only).
    pub(crate) states_t: TransposedBatch,
    pub(crate) returns: Vec<f32>,
    pub(crate) values: Vec<f32>,
    pub(crate) advantages: Vec<f32>,
    /// The (local) critic's outputs on `states`. `prepare_batch` fills it
    /// with a training forward, which [`critic_update`]'s first epoch
    /// reuses; later epochs overwrite it.
    pub(crate) value_mat: Matrix,
    /// The same for the dual agent's public critic.
    pub(crate) value_mat2: Matrix,
    pub(crate) epoch: EpochScratch,
}

/// Per-epoch intermediates of [`actor_update`] / [`critic_update`]: the
/// actor's logits and the loss gradient.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochScratch {
    pub(crate) policy: PolicyScratch,
    pub(crate) logit_mat: Matrix,
    pub(crate) grad: Matrix,
}

/// Fills the batch states and their transpose in `scratch` from `buffer`.
pub(crate) fn load_states(buffer: &RolloutBuffer, scratch: &mut AgentScratch) {
    buffer.states_matrix_into(&mut scratch.states);
    scratch.states_t.set(&scratch.states);
}

/// Runs one episode with `actor`, filling `buffer`; returns the total
/// (undiscounted) episode reward. Shared by both agent types and by both
/// workloads (flat and DAG). All per-decision tensors live in `scratch`.
pub(crate) fn collect_episode_opts(
    actor: &mut Mlp,
    env: &mut CloudEnv,
    buffer: &mut RolloutBuffer,
    rng: &mut SmallRng,
    mask_actions: bool,
    scratch: &mut AgentScratch,
) -> f32 {
    assert!(!env.is_done(), "collect_episode needs a freshly reset env");
    let max_vms = env.dims().max_vms;
    let mut total = 0.0f32;
    let AgentScratch { state, logits, mask, policy, .. } = scratch;
    loop {
        env.observe_into(state);
        actor.forward_one_into(state, logits);
        let outcome;
        if mask_actions {
            env.action_mask_into(mask);
            let (a, lp) = policy::sample_action_masked_scratch(logits, mask, rng, policy);
            outcome = env.step(Action::from_index(a, max_vms));
            buffer.push_masked(state, a, outcome.reward, lp, mask);
        } else {
            let (a, lp) = policy::sample_action_scratch(logits, rng, policy);
            outcome = env.step(Action::from_index(a, max_vms));
            buffer.push(state, a, outcome.reward, lp);
        }
        total += outcome.reward;
        if outcome.done {
            buffer.end_episode();
            return total;
        }
    }
}

/// Greedy (argmax) rollout; returns final episode metrics.
pub(crate) fn evaluate_greedy_opts(
    actor: &mut Mlp,
    env: &mut CloudEnv,
    mask_actions: bool,
    scratch: &mut AgentScratch,
) -> EpisodeMetrics {
    assert!(!env.is_done(), "evaluate_greedy needs a freshly reset env");
    let max_vms = env.dims().max_vms;
    let AgentScratch { state, logits, mask, .. } = scratch;
    loop {
        env.observe_into(state);
        actor.forward_one_into(state, logits);
        if mask_actions {
            env.action_mask_into(mask);
            policy::apply_mask(logits, mask);
        }
        let a = policy::greedy_action(logits);
        if env.step(Action::from_index(a, max_vms)).done {
            return env.metrics();
        }
    }
}

/// One clipped-surrogate policy update (all epochs) on a prepared batch
/// (`states_t` is `states` transposed). `masks` (flattened `n ×
/// action_dim`) must be the masks the rollout was collected under, or
/// `None` for unmasked rollouts. The per-epoch logits and gradient live in
/// `scratch`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn actor_update(
    actor: &mut Mlp,
    opt: &mut Adam,
    states: &Matrix,
    states_t: &TransposedBatch,
    actions: &[usize],
    old_log_probs: &[f32],
    advantages: &[f32],
    masks: Option<&[bool]>,
    cfg: &PpoConfig,
    scratch: &mut EpochScratch,
) -> PpoLossStats {
    let mut last = PpoLossStats { surrogate: 0.0, entropy: 0.0, clip_fraction: 0.0 };
    let EpochScratch { policy, logit_mat, grad, .. } = scratch;
    for _ in 0..cfg.update_epochs {
        actor.forward_train_into(states, logit_mat);
        let stats = policy::clipped_surrogate_grad_masked_into(
            logit_mat,
            actions,
            old_log_probs,
            advantages,
            cfg.clip,
            cfg.entropy_coef,
            masks,
            grad,
            policy,
        );
        actor.zero_grad();
        actor.backward(states_t, grad);
        opt.step_mlp(actor);
        last = stats;
    }
    last
}

/// One squared-error regression pass of a value network onto returns
/// (Eqs. 16–17); returns the pre-update MSE. `values` must hold what
/// `critic.forward_train_into(states, values)` leaves under the current
/// parameters — `prepare_batch` runs exactly that for the advantages — so
/// the first epoch reuses that forward; each later epoch runs its own into
/// `values`. `states_t` is `states` transposed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn critic_update(
    critic: &mut Mlp,
    opt: &mut Adam,
    states: &Matrix,
    states_t: &TransposedBatch,
    returns: &[f32],
    epochs: usize,
    value_mat: &mut Matrix,
    grad: &mut Matrix,
) -> f32 {
    let n = states.rows();
    assert_eq!(value_mat.shape(), (n, 1), "critic_update needs the batch's values");
    let mut first_loss = 0.0f32;
    for epoch in 0..epochs {
        if epoch > 0 {
            critic.forward_train_into(states, value_mat);
        }
        grad.resize(n, 1);
        let mut loss = 0.0f32;
        for i in 0..n {
            let err = value_mat[(i, 0)] - returns[i];
            loss += err * err;
            grad[(i, 0)] = 2.0 * err / n as f32;
        }
        loss /= n as f32;
        if epoch == 0 {
            first_loss = loss;
        }
        critic.zero_grad();
        critic.backward(states_t, grad);
        opt.step_mlp(critic);
    }
    first_loss
}

/// MSE of `critic` on `(states, returns)` through scratch buffers, without
/// updating anything — the allocation-free loss probe used inside updates.
pub(crate) fn critic_loss_into(
    critic: &mut Mlp,
    states: &Matrix,
    returns: &[f32],
    values: &mut Matrix,
) -> f32 {
    critic.forward_into(states, values);
    let n = states.rows();
    (0..n)
        .map(|i| {
            let e = values[(i, 0)] - returns[i];
            e * e
        })
        .sum::<f32>()
        / n as f32
}

/// Mean squared error of a critic's predictions against returns, without
/// updating anything (the loss probe of Eq. 15 / Fig. 9).
pub(crate) fn critic_loss(critic: &Mlp, states: &Matrix, returns: &[f32]) -> f32 {
    let values = critic.forward(states);
    let n = states.rows();
    (0..n)
        .map(|i| {
            let e = values[(i, 0)] - returns[i];
            e * e
        })
        .sum::<f32>()
        / n as f32
}

/// Everything a [`PpoAgent`] needs to resume training mid-stream with
/// bit-identical results: parameters, optimizer moments, the RNG cursor,
/// and the retained rollout batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PpoAgentSnapshot {
    /// Flat actor parameters.
    pub actor: Vec<f32>,
    /// Flat critic parameters.
    pub critic: Vec<f32>,
    /// Actor optimizer moments.
    pub actor_opt: AdamState,
    /// Critic optimizer moments.
    pub critic_opt: AdamState,
    /// Sampling RNG state (xoshiro256++ words).
    pub rng: [u64; 4],
    /// Retained rollout batch.
    pub buffer: BufferSnapshot,
    /// Episodes collected into the current batch.
    pub episodes_buffered: usize,
}

/// Independent PPO agent: one actor, one critic.
#[derive(Debug, Clone)]
pub struct PpoAgent {
    /// Policy network (logits over `{VM 1..L, wait}`).
    pub actor: Mlp,
    /// Value network.
    pub critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    cfg: PpoConfig,
    rng: SmallRng,
    /// Collected episodes of the current batch (retained after the update
    /// for loss probes).
    buffer: RolloutBuffer,
    episodes_buffered: usize,
    telemetry: Telemetry,
    scratch: AgentScratch,
}

impl PpoAgent {
    /// Creates an agent with seeded initialization.
    pub fn new(state_dim: usize, action_dim: usize, cfg: PpoConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = SmallRng::seed_from_u64(seed);
        let actor = build_net(state_dim, cfg.hidden, action_dim, &mut rng);
        let critic = build_net(state_dim, cfg.hidden, 1, &mut rng);
        let actor_opt = Adam::new(actor.param_count(), cfg.lr_actor);
        let critic_opt = Adam::new(critic.param_count(), cfg.lr_critic);
        Self {
            actor,
            critic,
            actor_opt,
            critic_opt,
            cfg,
            rng,
            buffer: RolloutBuffer::new(state_dim),
            episodes_buffered: 0,
            telemetry: Telemetry::noop(),
            scratch: AgentScratch::default(),
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.cfg
    }

    /// Routes this agent's metrics (episode reward, losses, update timing,
    /// buffer size) to `telemetry`. Defaults to a noop handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Collects one episode on a freshly reset `env`, performs a PPO update
    /// once `episodes_per_update` episodes are batched, and returns the
    /// total episode reward. Works on either workload (flat or DAG) of a
    /// [`CloudEnv`] with matching dims.
    pub fn train_one_episode(&mut self, env: &mut CloudEnv) -> f32 {
        if self.episodes_buffered >= self.cfg.episodes_per_update {
            self.buffer.clear();
            self.episodes_buffered = 0;
        }
        let total = {
            let _rollout = self.telemetry.span("rl/rollout");
            collect_episode_opts(
                &mut self.actor,
                env,
                &mut self.buffer,
                &mut self.rng,
                self.cfg.mask_invalid_actions,
                &mut self.scratch,
            )
        };
        self.episodes_buffered += 1;
        self.telemetry.observe("rl/episode_reward", total as f64);
        self.telemetry.gauge("rl/buffer_transitions", self.buffer.len() as f64);
        if self.episodes_buffered >= self.cfg.episodes_per_update {
            self.update();
        }
        total
    }

    /// PPO update on the retained buffer (no-op when empty). The batch
    /// tensors (states, returns, values, advantages) and every per-epoch
    /// intermediate live in the agent's scratch, so repeated updates at a
    /// stable batch size allocate nothing.
    pub fn update(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.prepare_batch();
        let span = self.telemetry.span("rl/ppo_update");
        // Actor first, as in the paper's Algorithm 1. The advantages were
        // frozen from the pre-update value estimates, so the two passes
        // commute bit-for-bit (pinned by `actor_and_critic_passes_commute`).
        let actor_stats = {
            let _actor = self.telemetry.span("rl/ppo_update/actor");
            actor_update(
                &mut self.actor,
                &mut self.actor_opt,
                &self.scratch.states,
                &self.scratch.states_t,
                self.buffer.actions(),
                self.buffer.old_log_probs(),
                &self.scratch.advantages,
                self.buffer.masks_flat(),
                &self.cfg,
                &mut self.scratch.epoch,
            )
        };
        let critic_mse = {
            let _critic = self.telemetry.span("rl/ppo_update/critic");
            critic_update(
                &mut self.critic,
                &mut self.critic_opt,
                &self.scratch.states,
                &self.scratch.states_t,
                &self.scratch.returns,
                self.cfg.critic_epochs,
                &mut self.scratch.value_mat,
                &mut self.scratch.epoch.grad,
            )
        };
        drop(span);
        self.telemetry.observe("rl/actor_surrogate", actor_stats.surrogate as f64);
        self.telemetry.observe("rl/actor_entropy", actor_stats.entropy as f64);
        self.telemetry.observe("rl/clip_fraction", actor_stats.clip_fraction as f64);
        self.telemetry.observe("rl/critic_loss", critic_mse as f64);
    }

    /// Fills the batch tensors in scratch from the buffer: states (and
    /// their transpose), returns, and the (normalized) advantages under the
    /// pre-update critic. The critic runs its training forward here, so the
    /// first critic epoch starts from these values and activations.
    fn prepare_batch(&mut self) {
        load_states(&self.buffer, &mut self.scratch);
        discounted_returns_into(
            self.buffer.rewards(),
            self.buffer.terminals(),
            self.cfg.gamma,
            &mut self.scratch.returns,
        );
        self.critic.forward_train_into(&self.scratch.states, &mut self.scratch.value_mat);
        self.scratch.values.clear();
        for i in 0..self.scratch.value_mat.rows() {
            let v = self.scratch.value_mat[(i, 0)];
            self.scratch.values.push(v);
        }
        gae_advantages_into(
            self.buffer.rewards(),
            &self.scratch.values,
            self.buffer.terminals(),
            self.cfg.gamma,
            self.cfg.gae_lambda,
            &mut self.scratch.advantages,
        );
        if self.cfg.normalize_advantages {
            normalize_in_place(&mut self.scratch.advantages);
        }
    }

    /// Greedy evaluation episode on a freshly reset `env`. Takes `&mut self`
    /// to route per-decision tensors through the agent's scratch buffers;
    /// no learnable state changes.
    pub fn evaluate(&mut self, env: &mut CloudEnv) -> EpisodeMetrics {
        evaluate_greedy_opts(&mut self.actor, env, self.cfg.mask_invalid_actions, &mut self.scratch)
    }

    /// Critic MSE on the last collected episode (for the Fig. 9 probe).
    /// Returns `None` when no episode has been collected yet.
    pub fn critic_loss_on_last_episode(&self) -> Option<f32> {
        if self.buffer.is_empty() {
            return None;
        }
        let states = self.buffer.states_matrix();
        let returns =
            discounted_returns(self.buffer.rewards(), self.buffer.terminals(), self.cfg.gamma);
        Some(critic_loss(&self.critic, &states, &returns))
    }

    /// Captures the complete resumable training state.
    pub fn snapshot(&self) -> PpoAgentSnapshot {
        PpoAgentSnapshot {
            actor: self.actor.flat_params(),
            critic: self.critic.flat_params(),
            actor_opt: self.actor_opt.snapshot_state(),
            critic_opt: self.critic_opt.snapshot_state(),
            rng: self.rng.state(),
            buffer: self.buffer.snapshot(),
            episodes_buffered: self.episodes_buffered,
        }
    }

    /// Restores state captured by [`Self::snapshot`] on an agent built with
    /// the same dims and config; training continues bit-identically.
    ///
    /// # Panics
    /// If parameter or optimizer lengths disagree with this agent's shape.
    pub fn restore(&mut self, snap: &PpoAgentSnapshot) {
        self.actor.set_flat_params(&snap.actor);
        self.critic.set_flat_params(&snap.critic);
        self.actor_opt.restore_state(&snap.actor_opt);
        self.critic_opt.restore_state(&snap.critic_opt);
        self.rng = SmallRng::from_state(snap.rng);
        self.buffer.restore(&snap.buffer);
        self.episodes_buffered = snap.episodes_buffered;
    }

    /// Flat actor parameters (FedAvg transmits both networks).
    pub fn actor_params(&self) -> Vec<f32> {
        self.actor.flat_params()
    }

    /// [`Self::actor_params`] into a reusable buffer — the upload form the
    /// pooled arena uses, allocation-free once capacity suffices.
    pub fn actor_params_into(&self, out: &mut Vec<f32>) {
        self.actor.flat_params_into(out);
    }

    /// Replaces the actor parameters.
    pub fn set_actor_params(&mut self, p: &[f32]) {
        self.actor.set_flat_params(p);
    }

    /// Flat critic parameters.
    pub fn critic_params(&self) -> Vec<f32> {
        self.critic.flat_params()
    }

    /// [`Self::critic_params`] into a reusable buffer.
    pub fn critic_params_into(&self, out: &mut Vec<f32>) {
        self.critic.flat_params_into(out);
    }

    /// Replaces the critic parameters.
    pub fn set_critic_params(&mut self, p: &[f32]) {
        self.critic.set_flat_params(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfrl_sim::{EnvConfig, EnvDims, HeuristicPolicy, VmSpec};
    use pfrl_workloads::DatasetId;

    fn small_env() -> CloudEnv {
        CloudEnv::new(
            EnvDims::new(2, 8, 64.0, 3),
            vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            EnvConfig::default(),
        )
    }

    #[test]
    fn training_episode_runs_and_returns_finite_reward() {
        let mut env = small_env();
        let dims = *env.dims();
        let mut agent = PpoAgent::new(dims.state_dim(), dims.action_dim(), PpoConfig::default(), 1);
        env.reset(DatasetId::K8s.model().sample(25, 3));
        let r = agent.train_one_episode(&mut env);
        assert!(r.is_finite());
        assert!(env.is_done());
        assert!(agent.critic_loss_on_last_episode().is_some());
    }

    #[test]
    fn evaluation_places_tasks() {
        let mut env = small_env();
        let dims = *env.dims();
        let mut agent = PpoAgent::new(dims.state_dim(), dims.action_dim(), PpoConfig::default(), 2);
        env.reset(DatasetId::K8s.model().sample(25, 3));
        let m = agent.evaluate(&mut env);
        assert_eq!(m.tasks_placed + m.tasks_unplaced, 25);
    }

    #[test]
    fn deterministic_given_seed() {
        let tasks = DatasetId::K8s.model().sample(20, 5);
        let run = |seed: u64| {
            let mut env = small_env();
            let dims = *env.dims();
            let mut agent =
                PpoAgent::new(dims.state_dim(), dims.action_dim(), PpoConfig::default(), seed);
            let mut rewards = Vec::new();
            for _ in 0..3 {
                env.reset(tasks.clone());
                rewards.push(agent.train_one_episode(&mut env));
            }
            (rewards, agent.actor_params())
        };
        let (r1, p1) = run(42);
        let (r2, p2) = run(42);
        let (r3, _) = run(43);
        assert_eq!(r1, r2);
        assert_eq!(p1, p2);
        assert_ne!(r1, r3);
    }

    /// Learning sanity: training reward climbs clearly from the early
    /// episodes to the late ones on a fixed workload (the paper's Fig. 8 /
    /// Fig. 15 measure exactly this quantity).
    #[test]
    fn training_reward_improves_early_to_late() {
        let tasks = DatasetId::K8s.model().sample(30, 17);
        let mut env = small_env();
        let dims = *env.dims();
        let mut agent = PpoAgent::new(dims.state_dim(), dims.action_dim(), PpoConfig::default(), 7);
        let mut rewards = Vec::new();
        for _ in 0..120 {
            env.reset(tasks.clone());
            rewards.push(agent.train_one_episode(&mut env) as f64);
        }
        let early: f64 = rewards[..15].iter().sum::<f64>() / 15.0;
        let late: f64 = rewards[rewards.len() - 15..].iter().sum::<f64>() / 15.0;
        assert!(late > early + 10.0, "training did not improve: early {early:.1} late {late:.1}");

        // The learned stochastic policy should be far above the all-wait
        // floor and in the same regime as random feasible placement.
        let mut e = small_env();
        e.reset(tasks.clone());
        pfrl_sim::run_heuristic(&mut e, HeuristicPolicy::Random, 1);
        let random_r = e.metrics().total_reward;
        assert!(
            late > random_r - 45.0,
            "late training reward {late:.1} too far below random {random_r:.1}"
        );
    }

    /// With feasibility masking, the agent can never be denied a placement
    /// or pick a void VM slot: every reward is a placement (> 0), a neutral
    /// forced wait (0), or the lazy-wait constant.
    #[test]
    fn masked_agent_never_gets_denied() {
        let mut env = small_env();
        let dims = *env.dims();
        let cfg = PpoConfig { mask_invalid_actions: true, ..Default::default() };
        let mut agent = PpoAgent::new(dims.state_dim(), dims.action_dim(), cfg, 5);
        let lazy = env.config().lazy_wait_penalty;
        for seed in 0..3 {
            env.reset(DatasetId::K8s.model().sample(25, seed));
            agent.train_one_episode(&mut env);
            for &r in agent.buffer.rewards() {
                assert!(
                    r >= 0.0 || (r - lazy).abs() < 1e-6,
                    "denial-like reward {r} under masking"
                );
            }
            assert!(agent.buffer.is_masked());
        }
    }

    #[test]
    fn param_roundtrip_through_federation_api() {
        let mut a = PpoAgent::new(10, 3, PpoConfig::default(), 1);
        let b = PpoAgent::new(10, 3, PpoConfig::default(), 2);
        a.set_actor_params(&b.actor_params());
        a.set_critic_params(&b.critic_params());
        assert_eq!(a.actor_params(), b.actor_params());
        assert_eq!(a.critic_params(), b.critic_params());
    }

    /// Actor and critic are disjoint networks and the advantages are frozen
    /// from the pre-update critic before either pass, so the pass order is
    /// irrelevant: critic-then-actor must give the same parameter bits as
    /// actor-first, and `update` itself must land on those bits too.
    #[test]
    fn actor_and_critic_passes_commute() {
        fn actor_pass(a: &mut PpoAgent) {
            actor_update(
                &mut a.actor,
                &mut a.actor_opt,
                &a.scratch.states,
                &a.scratch.states_t,
                a.buffer.actions(),
                a.buffer.old_log_probs(),
                &a.scratch.advantages,
                a.buffer.masks_flat(),
                &a.cfg,
                &mut a.scratch.epoch,
            );
        }
        fn critic_pass(a: &mut PpoAgent) {
            let epochs = a.cfg.critic_epochs;
            critic_update(
                &mut a.critic,
                &mut a.critic_opt,
                &a.scratch.states,
                &a.scratch.states_t,
                &a.scratch.returns,
                epochs,
                &mut a.scratch.value_mat,
                &mut a.scratch.epoch.grad,
            );
        }
        let mut env = small_env();
        let dims = *env.dims();
        let cfg = PpoConfig { mask_invalid_actions: true, ..PpoConfig::default() };
        let mut agent = PpoAgent::new(dims.state_dim(), dims.action_dim(), cfg, 11);
        env.reset(DatasetId::K8s.model().sample(25, 3));
        agent.train_one_episode(&mut env);
        let mut via_update = agent.clone();
        via_update.update();
        agent.prepare_batch();
        let mut actor_first = agent.clone();
        actor_pass(&mut actor_first);
        critic_pass(&mut actor_first);
        let mut critic_first = agent.clone();
        critic_pass(&mut critic_first);
        actor_pass(&mut critic_first);
        let bits = |p: Vec<f32>| p.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        assert_ne!(bits(actor_first.actor_params()), bits(agent.actor_params()), "actor moved");
        assert_ne!(bits(actor_first.critic_params()), bits(agent.critic_params()), "critic moved");
        for other in [&critic_first, &via_update] {
            assert_eq!(bits(actor_first.actor_params()), bits(other.actor_params()));
            assert_eq!(bits(actor_first.critic_params()), bits(other.critic_params()));
        }
    }
}
