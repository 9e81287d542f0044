//! The dual-critic PPO agent of PFRL-DM (Sec. 4.3).
//!
//! Each client holds a *local* critic `φ` (never shared) and a *public*
//! critic `ψ` (uploaded to / replaced by the server). State values are the
//! blend `V(s) = α·V_φ(s) + (1−α)·V_ψ(s)` (Eq. 14) with
//!
//! ```text
//! α = e^{−L_φ} / (e^{−L_φ} + e^{−L_ψ}) = sigmoid(L_ψ − L_φ)   (Eq. 15)
//! ```
//!
//! recomputed from the buffered trajectories *every time either network's
//! parameters change* — after each local update and upon receiving a
//! personalized public critic from the server. A public critic that
//! evaluates the client's own trajectories poorly (heterogeneity damage,
//! Fig. 9) is automatically down-weighted, which is the paper's mechanism
//! for balancing global knowledge against local experience.

use crate::agent::{
    actor_update, build_net, collect_episode_opts, critic_loss, critic_loss_into, critic_update,
    evaluate_greedy_opts, fold_for, load_states, AgentScratch,
};
use crate::buffer::{BufferSnapshot, RolloutBuffer};
use crate::config::PpoConfig;
use crate::returns::{
    discounted_returns, discounted_returns_into, gae_advantages_into, normalize_in_place,
};
use pfrl_nn::AdamState;
use pfrl_nn::{Adam, Mlp};
use pfrl_sim::{CloudEnv, EpisodeMetrics};
use pfrl_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Everything a [`DualCriticAgent`] needs to resume training mid-stream
/// with bit-identical results: all three networks, their optimizer moments,
/// `α`, the RNG cursor, and the retained rollout batch.
#[derive(Debug, Clone, PartialEq)]
pub struct DualAgentSnapshot {
    /// Flat actor parameters.
    pub actor: Vec<f32>,
    /// Flat local-critic parameters `φ`.
    pub local_critic: Vec<f32>,
    /// Flat public-critic parameters `ψ`.
    pub public_critic: Vec<f32>,
    /// Actor optimizer moments.
    pub actor_opt: AdamState,
    /// Local-critic optimizer moments.
    pub local_opt: AdamState,
    /// Public-critic optimizer moments.
    pub public_opt: AdamState,
    /// Current blend weight `α`.
    pub alpha: f32,
    /// Pinned `α`, if the adaptive Eq. 15 is disabled.
    pub fixed_alpha: Option<f32>,
    /// Sampling RNG state (xoshiro256++ words).
    pub rng: [u64; 4],
    /// Retained rollout batch.
    pub buffer: BufferSnapshot,
    /// Episodes collected into the current batch.
    pub episodes_buffered: usize,
}

/// Regresses both critics on the batched returns held in `scratch`; returns
/// the pre-update `(L_φ, L_ψ)` MSEs. Each critic's first epoch starts from
/// the values `prepare_batch` left in `value_mat` (local) and `value_mat2`
/// (public). A free function over disjoint field borrows so
/// [`DualCriticAgent::update`] can call it while its telemetry span is live.
fn dual_critic_pass(
    local_critic: &mut Mlp,
    local_opt: &mut Adam,
    public_critic: &mut Mlp,
    public_opt: &mut Adam,
    scratch: &mut AgentScratch,
    epochs: usize,
) -> (f32, f32) {
    let AgentScratch { states, states_t, returns, value_mat, value_mat2, epoch, .. } = scratch;
    let local_mse = critic_update(
        local_critic,
        local_opt,
        states,
        states_t,
        returns,
        epochs,
        value_mat,
        &mut epoch.grad,
    );
    let public_mse = critic_update(
        public_critic,
        public_opt,
        states,
        states_t,
        returns,
        epochs,
        value_mat2,
        &mut epoch.grad,
    );
    (local_mse, public_mse)
}

/// Eq. 15 in its scale-normalized form (see
/// [`DualCriticAgent::refresh_alpha`]): `α = sigmoid((L_ψ − L_φ) / τ)`,
/// `τ = (L_φ + L_ψ)/2`, from both critics' MSE on the states/returns in
/// `scratch`, evaluated through its buffers (allocation-free).
fn batch_alpha(local_critic: &mut Mlp, public_critic: &mut Mlp, scratch: &mut AgentScratch) -> f32 {
    let AgentScratch { states, returns, value_mat, value_mat2, .. } = scratch;
    let l_local = critic_loss_into(local_critic, states, returns, value_mat);
    let l_public = critic_loss_into(public_critic, states, returns, value_mat2);
    let tau = (0.5 * (l_local + l_public)).max(1e-6);
    1.0 / (1.0 + (-(l_public - l_local) / tau).exp())
}

/// Dual-critic PPO client agent.
#[derive(Debug, Clone)]
pub struct DualCriticAgent {
    /// Policy network.
    pub actor: Mlp,
    /// Local critic `φ` (private to the client).
    pub local_critic: Mlp,
    /// Public critic `ψ` (exchanged with the server).
    pub public_critic: Mlp,
    actor_opt: Adam,
    local_opt: Adam,
    public_opt: Adam,
    alpha: f32,
    /// When set, `α` is pinned to this value and Eq. 15 is disabled
    /// (used by the ablation study).
    fixed_alpha: Option<f32>,
    cfg: PpoConfig,
    rng: SmallRng,
    buffer: RolloutBuffer,
    episodes_buffered: usize,
    telemetry: Telemetry,
    scratch: AgentScratch,
}

impl DualCriticAgent {
    /// Creates an agent; the two critics start from *different* seeded
    /// initializations (they must be distinguishable for Eq. 15 to carry
    /// signal).
    pub fn new(state_dim: usize, action_dim: usize, cfg: PpoConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = SmallRng::seed_from_u64(seed);
        let actor = build_net(state_dim, cfg.hidden, action_dim, &mut rng);
        let local_critic = build_net(state_dim, cfg.hidden, 1, &mut rng);
        let public_critic = build_net(state_dim, cfg.hidden, 1, &mut rng);
        let actor_opt = Adam::new(actor.param_count(), cfg.lr_actor);
        let local_opt = Adam::new(local_critic.param_count(), cfg.lr_critic);
        let public_opt = Adam::new(public_critic.param_count(), cfg.lr_critic);
        Self {
            actor,
            local_critic,
            public_critic,
            actor_opt,
            local_opt,
            public_opt,
            alpha: 0.5,
            fixed_alpha: None,
            cfg,
            rng,
            buffer: RolloutBuffer::new(state_dim),
            episodes_buffered: 0,
            telemetry: Telemetry::noop(),
            scratch: AgentScratch::default(),
        }
    }

    /// Routes this agent's metrics (episode reward, dual critic losses,
    /// update timing, α) to `telemetry`. Defaults to a noop handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Current local-critic weight `α`.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Pins `α` to a fixed value (disabling the adaptive Eq. 15), or
    /// restores adaptivity with `None`. `α = 1` ignores the public critic;
    /// `α = 0` ignores the local critic.
    ///
    /// # Panics
    /// If the value is outside `[0, 1]`.
    pub fn set_fixed_alpha(&mut self, alpha: Option<f32>) {
        if let Some(a) = alpha {
            assert!((0.0..=1.0).contains(&a), "alpha {a} out of [0,1]");
            self.alpha = a;
        }
        self.fixed_alpha = alpha;
    }

    /// The agent's configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.cfg
    }

    /// Collects one episode on a freshly reset `env`, runs the dual-critic
    /// PPO update once `episodes_per_update` episodes are batched, and
    /// returns the total episode reward.
    pub fn train_one_episode(&mut self, env: &mut CloudEnv) -> f32 {
        if self.episodes_buffered >= self.cfg.episodes_per_update {
            self.buffer.clear();
            self.episodes_buffered = 0;
        }
        fold_for(env, [&mut self.actor, &mut self.local_critic, &mut self.public_critic]);
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

    /// Dual-critic PPO update on the retained buffer (no-op when empty).
    /// Batch tensors and per-epoch intermediates live in the agent's
    /// scratch, so repeated updates at a stable batch size allocate
    /// nothing — including the α refresh (Eq. 15), which reuses the batch's
    /// states/returns instead of re-deriving them from the buffer.
    pub fn update(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.prepare_batch();
        let span = self.telemetry.span("rl/ppo_update");
        // Actor first, as in the paper's Algorithm 1. The advantages were
        // frozen from the pre-update blended values, so the passes commute
        // bit-for-bit (pinned by `actor_and_critic_passes_commute`); both
        // value functions regress on the same returns (Eqs. 16–17), and the
        // α refresh stays last.
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
        let (local_mse, public_mse) = {
            let _critic = self.telemetry.span("rl/ppo_update/critic");
            dual_critic_pass(
                &mut self.local_critic,
                &mut self.local_opt,
                &mut self.public_critic,
                &mut self.public_opt,
                &mut self.scratch,
                self.cfg.critic_epochs,
            )
        };
        drop(span);
        self.telemetry.observe("rl/actor_surrogate", actor_stats.surrogate as f64);
        self.telemetry.observe("rl/actor_entropy", actor_stats.entropy as f64);
        self.telemetry.observe("rl/clip_fraction", actor_stats.clip_fraction as f64);
        self.telemetry.observe("rl/critic_loss_local", local_mse as f64);
        self.telemetry.observe("rl/critic_loss_public", public_mse as f64);
        // Parameters changed → refresh α (Eq. 15) on the batch already in
        // scratch: it is the buffer's states/returns, so α is bit-for-bit
        // what `refresh_alpha` computes.
        if self.fixed_alpha.is_none() {
            let _refresh = self.telemetry.span("rl/alpha_refresh");
            self.alpha =
                batch_alpha(&mut self.local_critic, &mut self.public_critic, &mut self.scratch);
        }
        self.telemetry.observe("rl/alpha", self.alpha as f64);
    }

    /// Fills the batch tensors in scratch from the buffer: states (and
    /// their transpose), returns, and the (normalized) advantages under the
    /// pre-update α-blended values (Eq. 14). Both critics run their
    /// training forward here, so their first update epoch starts from these
    /// values and activations.
    fn prepare_batch(&mut self) {
        load_states(&self.buffer, &mut self.scratch);
        discounted_returns_into(
            self.buffer.rewards(),
            self.buffer.terminals(),
            self.cfg.gamma,
            &mut self.scratch.returns,
        );
        self.local_critic.forward_train_into(&self.scratch.states, &mut self.scratch.value_mat);
        self.public_critic.forward_train_into(&self.scratch.states, &mut self.scratch.value_mat2);
        self.scratch.values.clear();
        for i in 0..self.scratch.states.rows() {
            let v = self.alpha * self.scratch.value_mat[(i, 0)]
                + (1.0 - self.alpha) * self.scratch.value_mat2[(i, 0)];
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

    /// Recomputes `α` from the retained buffer per Eq. 15, in the
    /// scale-normalized form `α = sigmoid((L_ψ − L_φ) / τ)` with
    /// `τ = (L_φ + L_ψ)/2`. The paper's raw `e^{−L}` weights saturate to
    /// exactly 0/1 (and underflow) whenever the MSE losses are large —
    /// which they always are early in training, when the critics have not
    /// yet tracked the return scale — so the relative form keeps Eq. 15's
    /// ordering (worse public critic ⇒ larger α) while staying responsive.
    /// No-op when no trajectories have been collected yet. The batch is
    /// re-derived into the agent's scratch, so a steady-state refresh
    /// allocates nothing; α is bit-for-bit the value [`Self::critic_losses`]
    /// gives.
    pub fn refresh_alpha(&mut self) {
        if self.fixed_alpha.is_some() || self.buffer.is_empty() {
            return;
        }
        self.batch_into_scratch();
        self.alpha =
            batch_alpha(&mut self.local_critic, &mut self.public_critic, &mut self.scratch);
    }

    /// `(L_φ, L_ψ)`: both critics' MSE on the retained trajectories.
    ///
    /// # Panics
    /// If no episode has been collected yet.
    pub fn critic_losses(&self) -> (f32, f32) {
        assert!(!self.buffer.is_empty(), "no trajectories buffered");
        let states = self.buffer.states_matrix();
        let returns =
            discounted_returns(self.buffer.rewards(), self.buffer.terminals(), self.cfg.gamma);
        (
            critic_loss(&self.local_critic, &states, &returns),
            critic_loss(&self.public_critic, &states, &returns),
        )
    }

    /// `L_ψ` alone: the public critic's MSE on the retained trajectories,
    /// bit-for-bit `critic_losses().1` without the local critic's forward.
    /// The batch is re-derived into the agent's scratch, as in
    /// [`Self::refresh_alpha`], so a warm agent allocates nothing.
    ///
    /// # Panics
    /// If no episode has been collected yet.
    pub fn public_critic_loss(&mut self) -> f32 {
        assert!(!self.buffer.is_empty(), "no trajectories buffered");
        self.batch_into_scratch();
        let AgentScratch { states, returns, value_mat2, .. } = &mut self.scratch;
        critic_loss_into(&mut self.public_critic, states, returns, value_mat2)
    }

    /// Re-derives the buffered states and their discounted returns into
    /// the scratch batch.
    fn batch_into_scratch(&mut self) {
        self.buffer.states_matrix_into(&mut self.scratch.states);
        discounted_returns_into(
            self.buffer.rewards(),
            self.buffer.terminals(),
            self.cfg.gamma,
            &mut self.scratch.returns,
        );
    }

    /// Whether any trajectories are buffered (i.e. [`Self::critic_losses`]
    /// is callable).
    pub fn has_trajectories(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// Greedy evaluation episode on a freshly reset `env`. Takes `&mut self`
    /// to route per-decision tensors through the agent's scratch buffers;
    /// no learnable state changes.
    pub fn evaluate(&mut self, env: &mut CloudEnv) -> EpisodeMetrics {
        fold_for(env, [&mut self.actor, &mut self.local_critic, &mut self.public_critic]);
        evaluate_greedy_opts(&mut self.actor, env, self.cfg.mask_invalid_actions, &mut self.scratch)
    }

    /// Captures the complete resumable training state.
    pub fn snapshot(&self) -> DualAgentSnapshot {
        DualAgentSnapshot {
            actor: self.actor.flat_params(),
            local_critic: self.local_critic.flat_params(),
            public_critic: self.public_critic.flat_params(),
            actor_opt: self.actor_opt.snapshot_state(),
            local_opt: self.local_opt.snapshot_state(),
            public_opt: self.public_opt.snapshot_state(),
            alpha: self.alpha,
            fixed_alpha: self.fixed_alpha,
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
    pub fn restore(&mut self, snap: &DualAgentSnapshot) {
        self.actor.set_flat_params(&snap.actor);
        self.local_critic.set_flat_params(&snap.local_critic);
        self.public_critic.set_flat_params(&snap.public_critic);
        self.actor_opt.restore_state(&snap.actor_opt);
        self.local_opt.restore_state(&snap.local_opt);
        self.public_opt.restore_state(&snap.public_opt);
        self.alpha = snap.alpha;
        self.fixed_alpha = snap.fixed_alpha;
        self.rng = SmallRng::from_state(snap.rng);
        self.buffer.restore(&snap.buffer);
        self.episodes_buffered = snap.episodes_buffered;
    }

    /// Flat public-critic parameters `ψ` (what the client uploads).
    pub fn public_critic_params(&self) -> Vec<f32> {
        self.public_critic.flat_params()
    }

    /// [`Self::public_critic_params`] into a reusable buffer — the upload
    /// form the pooled arena uses, allocation-free once capacity suffices.
    pub fn public_critic_params_into(&self, out: &mut Vec<f32>) {
        self.public_critic.flat_params_into(out);
    }

    /// Installs a (personalized) public critic from the server and
    /// refreshes `α` against the buffered trajectories, per Algorithm 1.
    /// The public critic's optimizer state is reset: stale momentum from
    /// the pre-aggregation parameters would point nowhere useful.
    pub fn receive_public_critic(&mut self, params: &[f32]) {
        self.public_critic.set_flat_params(params);
        self.public_opt.reset_state();
        self.refresh_alpha();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfrl_sim::{EnvConfig, EnvDims, VmSpec};
    use pfrl_workloads::DatasetId;

    fn small_env() -> CloudEnv {
        CloudEnv::new(
            EnvDims::new(2, 8, 64.0, 3),
            vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            EnvConfig::default(),
        )
    }

    fn agent(seed: u64) -> DualCriticAgent {
        let dims = EnvDims::new(2, 8, 64.0, 3);
        DualCriticAgent::new(dims.state_dim(), dims.action_dim(), PpoConfig::default(), seed)
    }

    #[test]
    fn alpha_starts_balanced_and_stays_in_unit_interval() {
        let mut a = agent(1);
        assert_eq!(a.alpha(), 0.5);
        let mut env = small_env();
        for _ in 0..3 {
            env.reset(DatasetId::K8s.model().sample(20, 9));
            a.train_one_episode(&mut env);
            assert!((0.0..=1.0).contains(&a.alpha()), "alpha {}", a.alpha());
        }
    }

    #[test]
    fn critics_start_different_and_both_fit_a_fixed_buffer() {
        let mut a = agent(2);
        assert_ne!(a.local_critic.flat_params(), a.public_critic.flat_params());
        let tasks = DatasetId::K8s.model().sample(20, 4);
        let mut env = small_env();
        env.reset(tasks);
        a.train_one_episode(&mut env);
        let (l1, p1) = a.critic_losses();
        // Re-running the update on the retained buffer regresses both
        // critics on *fixed* targets: losses must fall. (During live
        // training the targets move with the policy, so the per-episode
        // loss is not monotone — that non-stationarity is exactly what
        // Fig. 9 exploits.)
        for _ in 0..10 {
            a.update();
        }
        let (l2, p2) = a.critic_losses();
        assert!(l2 < l1, "local critic loss {l1:.2} -> {l2:.2}");
        assert!(p2 < p1, "public critic loss {p1:.2} -> {p2:.2}");
    }

    /// The heterogeneity-defense property: installing a garbage public
    /// critic must shift α toward the local critic.
    #[test]
    fn bad_public_critic_downweighted() {
        let mut a = agent(3);
        let mut env = small_env();
        for _ in 0..5 {
            env.reset(DatasetId::K8s.model().sample(20, 6));
            a.train_one_episode(&mut env);
        }
        // Install the local critic as the public one: α snaps to 0.5 and
        // gives a clean reference point.
        let local = a.local_critic.flat_params();
        a.receive_public_critic(&local);
        let alpha_before = a.alpha();
        assert!((alpha_before - 0.5).abs() < 1e-4);
        // Garbage parameters: large random-ish constants whose predictions
        // (linear output layer) dwarf any plausible return scale, so
        // L_ψ ≫ L_φ independent of the sampled workload. The normalized
        // Eq. 15 saturates toward sigmoid(2) ≈ 0.88 as L_ψ → ∞.
        let garbage: Vec<f32> =
            (0..a.public_critic_params().len()).map(|i| ((i as f32 * 0.7).sin()) * 500.0).collect();
        a.receive_public_critic(&garbage);
        assert!(a.alpha() > 0.8, "alpha {} -> {}", alpha_before, a.alpha());
    }

    /// Installing a copy of the (good) local critic as the public critic
    /// must pull α back toward 0.5.
    #[test]
    fn equal_critics_give_balanced_alpha() {
        let mut a = agent(4);
        let mut env = small_env();
        for _ in 0..5 {
            env.reset(DatasetId::K8s.model().sample(20, 6));
            a.train_one_episode(&mut env);
        }
        let local = a.local_critic.flat_params();
        a.receive_public_critic(&local);
        assert!((a.alpha() - 0.5).abs() < 1e-4, "alpha {}", a.alpha());
    }

    /// `refresh_alpha` evaluates Eq. 15 through scratch buffers; it must
    /// give the bits of the formula over the allocating `critic_losses`.
    #[test]
    fn refresh_alpha_is_bitwise_eq15_over_critic_losses() {
        let mut a = agent(10);
        let mut env = small_env();
        for _ in 0..3 {
            env.reset(DatasetId::K8s.model().sample(20, 6));
            a.train_one_episode(&mut env);
        }
        let incoming: Vec<f32> = a.local_critic.flat_params().iter().map(|p| 0.5 * p).collect();
        a.receive_public_critic(&incoming);
        let (l_local, l_public) = a.critic_losses();
        let tau = (0.5 * (l_local + l_public)).max(1e-6);
        let want = 1.0 / (1.0 + (-(l_public - l_local) / tau).exp());
        assert_ne!(a.alpha(), 0.5, "the halved critic must move α");
        assert_eq!(a.alpha().to_bits(), want.to_bits());
    }

    #[test]
    fn public_critic_loss_is_the_bits_of_critic_losses() {
        let mut a = agent(11);
        let mut env = small_env();
        for _ in 0..2 {
            env.reset(DatasetId::K8s.model().sample(20, 6));
            a.train_one_episode(&mut env);
        }
        assert_eq!(a.public_critic_loss().to_bits(), a.critic_losses().1.to_bits());
    }

    #[test]
    fn receive_before_any_training_keeps_default_alpha() {
        let mut a = agent(5);
        let params = a.public_critic_params();
        a.receive_public_critic(&params);
        assert_eq!(a.alpha(), 0.5);
        assert!(!a.has_trajectories());
    }

    #[test]
    fn deterministic_training() {
        let tasks = DatasetId::Google.model().sample(20, 8);
        let run = |seed| {
            let mut a = agent(seed);
            let mut env = small_env();
            let mut rs = Vec::new();
            for _ in 0..3 {
                env.reset(tasks.clone());
                rs.push(a.train_one_episode(&mut env));
            }
            (rs, a.alpha(), a.public_critic_params())
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn fixed_alpha_disables_adaptation() {
        let mut a = agent(7);
        a.set_fixed_alpha(Some(1.0));
        let mut env = small_env();
        for _ in 0..3 {
            env.reset(DatasetId::K8s.model().sample(15, 2));
            a.train_one_episode(&mut env);
            assert_eq!(a.alpha(), 1.0);
        }
        a.set_fixed_alpha(None);
        env.reset(DatasetId::K8s.model().sample(15, 2));
        a.train_one_episode(&mut env);
        assert_ne!(a.alpha(), 1.0, "adaptive alpha should move off the pin");
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bad_fixed_alpha_rejected() {
        agent(8).set_fixed_alpha(Some(1.5));
    }

    #[test]
    fn evaluate_runs_greedy_episode() {
        let mut a = agent(6);
        let mut env = small_env();
        env.reset(DatasetId::K8s.model().sample(15, 2));
        let m = a.evaluate(&mut env);
        assert_eq!(m.tasks_placed + m.tasks_unplaced, 15);
    }

    /// Dual-critic twin of the single-critic commute test: the advantages
    /// are frozen from the pre-update α-blended values, so running both
    /// critic regressions before the actor pass leaves every parameter bit
    /// unchanged, and `update` itself lands on the same bits.
    #[test]
    fn actor_and_critic_passes_commute() {
        fn actor_pass(a: &mut DualCriticAgent) {
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
        fn critic_pass(a: &mut DualCriticAgent) {
            dual_critic_pass(
                &mut a.local_critic,
                &mut a.local_opt,
                &mut a.public_critic,
                &mut a.public_opt,
                &mut a.scratch,
                a.cfg.critic_epochs,
            );
        }
        let mut a = agent(12);
        let mut env = small_env();
        env.reset(DatasetId::K8s.model().sample(25, 3));
        a.train_one_episode(&mut env);
        let mut via_update = a.clone();
        via_update.update();
        a.prepare_batch();
        let mut actor_first = a.clone();
        actor_pass(&mut actor_first);
        critic_pass(&mut actor_first);
        let mut critic_first = a.clone();
        critic_pass(&mut critic_first);
        actor_pass(&mut critic_first);
        let bits = |m: &Mlp| m.flat_params().into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        for (x, y, z, before) in [
            (&actor_first.actor, &critic_first.actor, &via_update.actor, &a.actor),
            (
                &actor_first.local_critic,
                &critic_first.local_critic,
                &via_update.local_critic,
                &a.local_critic,
            ),
            (
                &actor_first.public_critic,
                &critic_first.public_critic,
                &via_update.public_critic,
                &a.public_critic,
            ),
        ] {
            assert_ne!(bits(x), bits(before), "pass left a network unchanged");
            assert_eq!(bits(x), bits(y));
            assert_eq!(bits(x), bits(z), "update diverged from the actor-first passes");
        }
    }
}
