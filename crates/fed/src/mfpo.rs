//! Momentum-based federated RL in the spirit of MFPO (Yue et al.,
//! INFOCOM'24), the paper's state-of-the-art comparison point.
//!
//! Substitution note (see DESIGN.md): the original MFPO couples momentum
//! into both the client-side policy updates and the server-side
//! aggregation to cut interaction/communication cost. The property the
//! PFRL-DM paper exercises is that *"its momentum mechanism preserves the
//! influence of past solutions"* under heterogeneity — which is carried by
//! the server momentum on aggregated parameter deltas implemented here
//! (FedAvg-M form): `v ← β·v + (x̄ − x_g)`, `x_g ← x_g + v`, broadcast
//! `x_g`, applied to both actor and critic.

use crate::checkpoint::{read_params, Reader, Writer};
use crate::client::Client;
use crate::config::{ClientSetup, FedConfig};
use crate::fedavg::{download_ppo, mean_critic_loss, upload_ppo};
use crate::federation::{Federation, Round, Strategy};
use crate::robust::reduce_into;
use pfrl_rl::{PpoAgent, PpoConfig};
use pfrl_sim::{EnvConfig, EnvDims};
use pfrl_telemetry::Telemetry;
use std::io;

/// One server-momentum update: `v ← β·v + (x̄ − x_g)`, `x_g ← x_g + v`.
fn momentum_step(server: &mut [f32], velocity: &mut [f32], avg: &[f32], beta: f32) {
    for ((s, v), a) in server.iter_mut().zip(velocity.iter_mut()).zip(avg) {
        let delta = a - *s;
        *v = beta * *v + delta;
        *s += *v;
    }
}

/// The MFPO strategy: ships `[actor, critic]`, folds the survivors' average
/// into the server model through momentum, and broadcasts the server model
/// to every connected client.
#[derive(Clone)]
pub struct Mfpo {
    beta: f32,
    /// Server model `[actor, critic]`.
    server: [Vec<f32>; 2],
    /// Momentum velocities `[actor, critic]`.
    velocity: [Vec<f32>; 2],
    /// The round's client average feeding the momentum.
    avg: Vec<f32>,
}

impl Mfpo {
    /// Default server momentum coefficient (as in FedAvgM practice and the
    /// MFPO paper's momentum range).
    pub const DEFAULT_BETA: f32 = 0.9;

    /// The strategy with momentum coefficient `beta ∈ [0, 1)`.
    pub fn new(beta: f32) -> Self {
        assert!((0.0..1.0).contains(&beta), "beta out of [0,1)");
        Self { beta, server: Default::default(), velocity: Default::default(), avg: Vec::new() }
    }
}

impl Default for Mfpo {
    fn default() -> Self {
        Self::new(Self::DEFAULT_BETA)
    }
}

impl Strategy for Mfpo {
    type Agent = PpoAgent;
    const NAME: &'static str = "MFPO";
    const TAG: u8 = 2;
    const STREAMS: usize = 2;

    /// The server model starts from client 0's initialization and is
    /// broadcast so all clients share a start point.
    fn init(&mut self, _: &FedConfig, clients: &mut [Client<PpoAgent>]) {
        self.server = [clients[0].agent.actor_params(), clients[0].agent.critic_params()];
        for c in clients.iter_mut() {
            download_ppo(&mut c.agent, &self.server[0], &self.server[1]);
        }
        self.velocity = [vec![0.0; self.server[0].len()], vec![0.0; self.server[1].len()]];
    }

    fn upload(agent: &PpoAgent, streams: &mut [Vec<f32>]) {
        upload_ppo(agent, streams);
    }

    /// The robust reduction replaces the plain client average that feeds
    /// the momentum (Mean delegates bit-identically).
    fn reduce(&mut self, r: &mut Round<'_, PpoAgent>) {
        for s in 0..2 {
            reduce_into(r.robust.aggregator, &r.uploads[s], r.scratch, &mut self.avg, r.telemetry);
            momentum_step(&mut self.server[s], &mut self.velocity[s], &self.avg, self.beta);
        }
    }

    fn broadcast(&mut self, r: &mut Round<'_, PpoAgent>) -> u64 {
        let mut receivers = 0u64;
        for i in 0..r.clients.len() {
            if r.presences[i].is_present() {
                download_ppo(&mut r.clients[i].agent, &self.server[0], &self.server[1]);
                r.fault.note_refreshed(i);
                receivers += 1;
            }
        }
        receivers * 4 * (self.server[0].len() + self.server[1].len()) as u64
    }

    fn critic_loss(&self, clients: &mut [Client<PpoAgent>], t: &Telemetry) -> Option<f64> {
        t.is_enabled().then(|| mean_critic_loss(clients)).flatten()
    }

    fn write_config(&self, w: &mut Writer) {
        w.f32(self.beta);
    }

    fn check_config(&self, r: &mut Reader<'_>) -> io::Result<()> {
        let beta = r.f32()?;
        if beta != self.beta {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint beta {beta} vs runner beta {}", self.beta),
            ));
        }
        Ok(())
    }

    fn write_state(&self, w: &mut Writer) {
        for v in self.server.iter().chain(&self.velocity) {
            w.vec_f32(v);
        }
    }

    fn read_state(&mut self, r: &mut Reader<'_>, lens: &[usize]) -> io::Result<()> {
        for (i, v) in self.server.iter_mut().chain(&mut self.velocity).enumerate() {
            *v = read_params(r, "MFPO server state", lens[i % 2])?;
        }
        Ok(())
    }
}

/// Momentum-FRL runner.
pub type MfpoRunner = Federation<Mfpo>;

impl Federation<Mfpo> {
    /// Builds the federation with an explicit momentum coefficient.
    pub fn with_beta(
        setups: Vec<ClientSetup>,
        dims: EnvDims,
        env_cfg: EnvConfig,
        ppo_cfg: PpoConfig,
        fed_cfg: FedConfig,
        beta: f32,
    ) -> Self {
        Self::with_strategy(Mfpo::new(beta), setups, dims, env_cfg, ppo_cfg, fed_cfg)
    }

    /// Current L2 norm of the actor velocity (diagnostics: how much history
    /// the momentum is carrying).
    pub fn actor_velocity_norm(&self) -> f32 {
        self.strategy.velocity[0].iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests_support::small_setups;
    use crate::federation::run_all;
    use pfrl_nn::params::average_params;

    fn fed() -> FedConfig {
        FedConfig {
            episodes: 4,
            comm_every: 2,
            participation_k: 1,
            tasks_per_episode: Some(12),
            seed: 11,
            parallel: false,
        }
    }

    #[test]
    fn clients_start_synchronized() {
        let (setups, dims, env_cfg) = small_setups(3);
        let r = MfpoRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed());
        let p0 = r.clients[0].agent.actor_params();
        for c in &r.clients[1..] {
            assert_eq!(c.agent.actor_params(), p0);
        }
    }

    #[test]
    fn zero_beta_first_round_equals_fedavg() {
        // With β=0 and zero initial velocity, the first aggregation lands
        // exactly on the client average.
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = MfpoRunner::with_beta(setups, dims, env_cfg, PpoConfig::default(), fed(), 0.0);
        run_all(&mut r.clients, 1, false);
        let actors: Vec<Vec<f32>> = r.clients.iter().map(|c| c.agent.actor_params()).collect();
        let avg = average_params(&actors);
        r.aggregate();
        let got = r.clients[0].agent.actor_params();
        for (g, a) in got.iter().zip(&avg) {
            assert!((g - a).abs() < 1e-6);
        }
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = MfpoRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed());
        assert_eq!(r.actor_velocity_norm(), 0.0);
        run_all(&mut r.clients, 1, false);
        r.aggregate();
        let v1 = r.actor_velocity_norm();
        assert!(v1 > 0.0);
    }

    #[test]
    fn momentum_overshoots_average_on_second_round() {
        // After two aggregations in the same direction, the server model
        // moves beyond the plain average — the "preserves the influence of
        // past solutions" behavior the paper attributes to MFPO.
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = MfpoRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed());
        run_all(&mut r.clients, 1, false);
        r.aggregate();
        run_all(&mut r.clients, 1, false);
        let actors: Vec<Vec<f32>> = r.clients.iter().map(|c| c.agent.actor_params()).collect();
        let avg = average_params(&actors);
        r.aggregate();
        let server = r.clients[0].agent.actor_params();
        let diff: f32 = server.iter().zip(&avg).map(|(s, a)| (s - a).abs()).sum::<f32>();
        assert!(diff > 1e-6, "server should deviate from the plain average");
    }

    #[test]
    fn full_training_produces_curves() {
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = MfpoRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed());
        let curves = r.train();
        assert_eq!(curves.clients(), 2);
        assert!(curves.per_client.iter().all(|c| c.len() == 4));
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn bad_beta_rejected() {
        let (setups, dims, env_cfg) = small_setups(2);
        let _ = MfpoRunner::with_beta(setups, dims, env_cfg, PpoConfig::default(), fed(), 1.0);
    }
}
