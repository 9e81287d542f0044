//! The PFRL-DM federation runner (Algorithm 1): dual-critic clients +
//! multi-head-attention personalization on the server.
//!
//! Per communication round:
//!
//! 1. every client trains `Ω = comm_every` local episodes with its
//!    dual-critic PPO;
//! 2. the server collects the public critics `{ψ_k}` of `K ≤ N` clients
//!    (a seeded random subset each round, modeling the paper's
//!    "aggregate once K uploads arrive");
//! 3. the server computes the multi-head attention weight matrix
//!    `W ∈ R^{K×K}` over the uploaded parameter vectors (Eq. 18) and sends
//!    client `k` its personalized critic `ψ_k' = Σ_j W_{kj}·ψ_j` (Eq. 21);
//! 4. the global critic `ψ_G = (1/K)·Σ_k ψ_k'` (Eq. 22) is stored and sent
//!    to the clients that did not participate this round.
//!
//! Only critic parameters ever travel — the paper's communication-cost
//! advantage over FedAvg, which must ship actor + critic.

use crate::checkpoint::{read_matrix, read_params, write_matrix, Reader, Writer};
use crate::client::Client;
use crate::config::{ClientSetup, FedConfig};
use crate::fault::{AbsenceReason, FaultState, Presence};
use crate::federation::{param_bytes, Federation, Round, Strategy};
use crate::robust::reduce_into;
use crate::similarity::mean_row_entropy;
use pfrl_nn::params::{apply_mixing_matrix_into, average_params};
use pfrl_nn::{
    multi_head_attention_weights_into, Activation, AttentionScratch, Mlp, MultiHeadConfig,
};
use pfrl_rl::{DualCriticAgent, PpoConfig};
use pfrl_sim::{EnvConfig, EnvDims};
use pfrl_stats::seeding::SeedStream;
use pfrl_telemetry::Telemetry;
use pfrl_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io;

/// The PFRL-DM strategy: ships the public critic `ψ`, weighs the
/// survivors' critics by multi-head attention, and personalizes.
#[derive(Clone, Default)]
pub struct PfrlDm {
    attention: MultiHeadConfig,
    /// Server-held global public critic `ψ_G`.
    global: Vec<f32>,
    /// Cursor of the seeded cohort shuffle.
    participation_rng: [u64; 4],
    next_client_index: usize,
    /// Attention weight matrices of every aggregation round (for Fig. 11
    /// style inspection).
    weight_history: Vec<Matrix>,
    /// Client indices that survived into each round's aggregation.
    participant_history: Vec<Vec<usize>>,
    skip_history: bool,
    /// Scratch: the shuffled client order, the attention workspace, the
    /// round's weights, and the personalized critics.
    order: Vec<usize>,
    scratch: AttentionScratch,
    weights: Matrix,
    personalized: Vec<Vec<f32>>,
}

impl PfrlDm {
    /// The strategy with an explicit attention configuration.
    pub fn new(attention: MultiHeadConfig) -> Self {
        Self { attention, ..Self::default() }
    }
}

/// Mean public-critic MSE (`L_ψ`) across clients with buffered
/// trajectories, each computed through its agent's scratch.
fn mean_public_critic_loss(clients: &mut [Client<DualCriticAgent>]) -> Option<f64> {
    let (sum, count) = clients
        .iter_mut()
        .filter(|c| c.agent.has_trajectories())
        .fold((0.0f64, 0usize), |(sum, count), c| {
            (sum + c.agent.public_critic_loss() as f64, count + 1)
        });
    (count > 0).then(|| sum / count as f64)
}

impl Strategy for PfrlDm {
    type Agent = DualCriticAgent;
    const NAME: &'static str = "PFRL-DM";
    const TAG: u8 = 3;
    const STREAMS: usize = 1;
    const ATTENDS: bool = true;

    /// `ψ_G^{(0)}`: a fresh server-seeded critic, broadcast to everyone so
    /// the federation starts from a shared public critic (Algorithm 1,
    /// lines 4–5). The attention's frozen projections depend only on the
    /// critic's parameter count, so they are sampled here rather than in
    /// the first round.
    fn init(&mut self, cfg: &FedConfig, clients: &mut [Client<DualCriticAgent>]) {
        let server_seed = SeedStream::new(cfg.seed).child("server").seed();
        let server_net = Mlp::new(
            &clients[0].agent.public_critic.sizes(),
            Activation::Tanh,
            &mut SmallRng::seed_from_u64(server_seed),
        );
        self.global = server_net.flat_params();
        self.scratch.sample_projections(&self.attention, self.global.len());
        for c in clients.iter_mut() {
            c.agent.receive_public_critic(&self.global);
        }
        let participation = SeedStream::new(cfg.seed).child("participation").seed();
        self.participation_rng = SmallRng::seed_from_u64(participation).state();
        self.next_client_index = clients.len();
    }

    /// The seeded `K`-of-`N` cohort (the paper's "aggregate once K uploads
    /// arrive"). Churn shrinks the eligible pool, never the RNG stream: the
    /// shuffle always consumes the same randomness over all `N` clients,
    /// then scheduled leavers are filtered out of the ranked order, so a
    /// churn-free run is bit-identical to one with no churn plan. Faults
    /// act on the drawn cohort afterwards.
    fn select(&mut self, cfg: &FedConfig, f: &FaultState, p: &[Presence], cohort: &mut Vec<usize>) {
        let mut rng = SmallRng::from_state(self.participation_rng);
        self.order.clear();
        self.order.extend(0..p.len());
        self.order.shuffle(&mut rng);
        self.participation_rng = rng.state();
        let k = cfg.participation_k.min(f.enrolled_now());
        let eligible = |&&i: &&usize| p[i] != Presence::Absent(AbsenceReason::NotEnrolled);
        cohort.extend(self.order.iter().filter(eligible).take(k));
    }

    fn upload(agent: &DualCriticAgent, streams: &mut [Vec<f32>]) {
        agent.public_critic_params_into(&mut streams[0]);
    }

    /// Staleness-weighted re-entry: a survivor returning after `s` silent
    /// rounds contributes `decay^s · ψ + (1 − decay^s) · ψ_G` — its critic
    /// drifted alone, so its say shrinks with its staleness.
    fn reenter(&self, r: &mut Round<'_, DualCriticAgent>) {
        for (psi, &missed) in r.uploads[0].iter_mut().zip(r.missed) {
            if missed > 0 {
                let w = r.fault.reentry_weight(missed);
                for (x, g) in psi.iter_mut().zip(&self.global) {
                    *x = w * *x + (1.0 - w) * g;
                }
            }
        }
    }

    /// The `K×K` multi-head attention weights over the survivors' critics
    /// (Eq. 18).
    fn attend(&mut self, r: &mut Round<'_, DualCriticAgent>) {
        multi_head_attention_weights_into(
            &r.uploads[0],
            &self.attention,
            r.cfg.parallel,
            &mut self.scratch,
            &mut self.weights,
        );
        r.telemetry.observe("fed/attention_entropy", mean_row_entropy(&self.weights));
    }

    /// Personalized critics `ψ_k' = Σ_j W_kj·ψ_j` (Eq. 21), folded into
    /// `ψ_G` by the configured reduction (Eq. 22 for the plain mean).
    fn reduce(&mut self, r: &mut Round<'_, DualCriticAgent>) {
        apply_mixing_matrix_into(
            &self.weights,
            &r.uploads[0],
            r.cfg.parallel,
            &mut self.personalized,
        );
        reduce_into(
            r.robust.aggregator,
            &self.personalized,
            r.scratch,
            &mut self.global,
            r.telemetry,
        );
    }

    /// Survivors receive their personalized critic; connected clients
    /// outside the aggregation receive `ψ_G`; absent clients keep theirs.
    fn broadcast(&mut self, r: &mut Round<'_, DualCriticAgent>) -> u64 {
        for (slot, &i) in r.survivors.iter().enumerate() {
            r.clients[i].agent.receive_public_critic(&self.personalized[slot]);
        }
        let mut global_receivers = 0u64;
        for i in 0..r.clients.len() {
            if r.presences[i].is_present() && !r.survivors.contains(&i) {
                r.clients[i].agent.receive_public_critic(&self.global);
                r.fault.note_refreshed(i);
                global_receivers += 1;
            }
        }
        param_bytes(&self.personalized) + global_receivers * 4 * self.global.len() as u64
    }

    fn critic_loss(&self, clients: &mut [Client<DualCriticAgent>], t: &Telemetry) -> Option<f64> {
        t.is_enabled().then(|| mean_public_critic_loss(clients)).flatten()
    }

    fn record(&mut self, r: &Round<'_, DualCriticAgent>, _: Option<(f64, f64)>) {
        if !self.skip_history {
            self.weight_history.push(self.weights.clone());
            self.participant_history.push(r.survivors.to_vec());
        }
    }

    fn write_state(&self, w: &mut Writer) {
        w.vec_f32(&self.global);
        w.rng_state(self.participation_rng);
        w.usize(self.next_client_index);
        w.usize(self.weight_history.len());
        for m in &self.weight_history {
            write_matrix(w, m);
        }
        w.usize(self.participant_history.len());
        for p in &self.participant_history {
            w.vec_usize(p);
        }
    }

    fn read_state(&mut self, r: &mut Reader<'_>, lens: &[usize]) -> io::Result<()> {
        self.global = read_params(r, "global critic", lens[0])?;
        self.participation_rng = r.rng_state()?;
        self.next_client_index = r.usize()?;
        let n = r.usize()?;
        self.weight_history = (0..n).map(|_| read_matrix(r)).collect::<io::Result<_>>()?;
        let n = r.usize()?;
        self.participant_history = (0..n).map(|_| r.vec_usize()).collect::<io::Result<_>>()?;
        Ok(())
    }
}

/// PFRL-DM federation runner.
pub type PfrlDmRunner = Federation<PfrlDm>;

impl Federation<PfrlDm> {
    /// Builds the federation with an explicit attention configuration
    /// (used by the head-count ablation).
    pub fn with_attention(
        setups: Vec<ClientSetup>,
        dims: EnvDims,
        env_cfg: EnvConfig,
        ppo_cfg: PpoConfig,
        fed_cfg: FedConfig,
        attention: MultiHeadConfig,
    ) -> Self {
        Self::with_strategy(PfrlDm::new(attention), setups, dims, env_cfg, ppo_cfg, fed_cfg)
    }

    /// Toggles per-round weight/participant history recording. Each entry
    /// clones a `K×K` matrix — at federation scale that is the dominant
    /// steady-state allocation, so the scale probe and the zero-alloc gate
    /// turn it off. On by default (Fig. 11 inspection and checkpoint
    /// contents are unchanged).
    pub fn set_record_history(&mut self, on: bool) {
        self.strategy.skip_history = !on;
    }

    /// Attention weight matrices of every recorded aggregation round.
    pub fn weight_history(&self) -> &[Matrix] {
        &self.strategy.weight_history
    }

    /// Client indices that survived into each recorded aggregation round.
    pub fn participant_history(&self) -> &[Vec<usize>] {
        &self.strategy.participant_history
    }

    /// Pins every client's `α` to a fixed value (ablation of the adaptive
    /// Eq. 15); `None` restores adaptivity.
    pub fn set_fixed_alpha(&mut self, alpha: Option<f32>) {
        for c in &mut self.clients {
            c.agent.set_fixed_alpha(alpha);
        }
    }

    /// The server's current global public critic `ψ_G`.
    pub fn server_global(&self) -> &[f32] {
        &self.strategy.global
    }

    /// Adds a new client to a running federation (the Fig. 20 scenario):
    /// its public critic is initialized from the server's `ψ_G`, and —
    /// as a one-time onboarding bootstrap — its actor may be seeded from
    /// the average of the existing clients' actors (the paper initializes
    /// the joiner "with the model provided by the server"; since PFRL-DM
    /// servers only store critics, the actor bootstrap is the natural
    /// completion and is documented in DESIGN.md). Returns the new
    /// client's index.
    pub fn add_client(&mut self, setup: ClientSetup, bootstrap_actor: bool) -> usize {
        let mut client = self.new_client(setup, self.strategy.next_client_index);
        self.strategy.next_client_index += 1;
        client.agent.receive_public_critic(&self.strategy.global);
        if bootstrap_actor && !self.clients.is_empty() {
            let actors: Vec<Vec<f32>> =
                self.clients.iter().map(|c| c.agent.actor.flat_params()).collect();
            client.agent.actor.set_flat_params(&average_params(&actors));
        }
        client.set_telemetry(self.telemetry.clone());
        self.clients.push(client);
        self.fault.add_client();
        self.clients.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests_support::small_setups;
    use crate::federation::run_all;

    fn fed(n_clients: usize) -> FedConfig {
        FedConfig {
            episodes: 4,
            comm_every: 2,
            participation_k: (n_clients / 2).max(1),
            tasks_per_episode: Some(12),
            seed: 21,
            parallel: false,
        }
    }

    #[test]
    fn initial_broadcast_synchronizes_public_critics() {
        let (setups, dims, env_cfg) = small_setups(3);
        let r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(3));
        let p0 = r.clients[0].agent.public_critic_params();
        for c in &r.clients {
            assert_eq!(c.agent.public_critic_params(), p0);
        }
        assert_eq!(r.server_global(), &p0[..]);
    }

    #[test]
    fn aggregation_records_row_stochastic_weights() {
        let (setups, dims, env_cfg) = small_setups(4);
        let mut r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(4));
        run_all(&mut r.clients, 1, false);
        r.aggregate();
        assert_eq!(r.weight_history().len(), 1);
        let w = &r.weight_history()[0];
        assert_eq!(w.shape(), (2, 2)); // K = 2 of 4
        for row in 0..2 {
            let s: f32 = w.row(row).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
        assert_eq!(r.participant_history()[0].len(), 2);
    }

    #[test]
    fn participants_get_personalized_models_others_get_global() {
        let (setups, dims, env_cfg) = small_setups(4);
        let mut r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(4));
        run_all(&mut r.clients, 2, false);
        r.aggregate();
        let participants = r.participant_history()[0].clone();
        let global = r.server_global().to_vec();
        for i in 0..4 {
            let psi = r.clients[i].agent.public_critic_params();
            if participants.contains(&i) {
                // Personalized: generally different from the global mean
                // (the attention rows are not uniform).
                assert_eq!(psi.len(), global.len());
            } else {
                assert_eq!(psi, global, "non-participant {i} must hold ψ_G");
            }
        }
    }

    #[test]
    fn actors_never_synchronized() {
        // Only critics travel: actors must stay distinct across clients.
        let (setups, dims, env_cfg) = small_setups(3);
        let mut r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(3));
        r.train();
        let a0 = r.clients[0].agent.actor.flat_params();
        let a1 = r.clients[1].agent.actor.flat_params();
        assert_ne!(a0, a1);
    }

    #[test]
    fn full_training_produces_curves_and_history() {
        let (setups, dims, env_cfg) = small_setups(4);
        let mut r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(4));
        let curves = r.train();
        assert_eq!(curves.clients(), 4);
        assert!(curves.per_client.iter().all(|c| c.len() == 4));
        assert_eq!(r.weight_history().len(), 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let (setups, dims, env_cfg) = small_setups(3);
        let run = || {
            let mut r =
                PfrlDmRunner::new(setups.clone(), dims, env_cfg, PpoConfig::default(), fed(3));
            let c = r.train();
            (c, r.server_global().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn new_client_joins_with_server_model() {
        let (mut setups, dims, env_cfg) = small_setups(3);
        let joiner = setups.pop().unwrap();
        let mut r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(2));
        r.train_rounds(1);
        let idx = r.add_client(joiner, true);
        assert_eq!(idx, 2);
        assert_eq!(r.clients[idx].agent.public_critic_params(), r.server_global().to_vec());
        // The joiner trains along in subsequent rounds.
        r.train_rounds(1);
        assert_eq!(r.clients[idx].rewards.len(), 2);
    }
}
