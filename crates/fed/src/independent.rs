//! Independent (non-federated) PPO training — the paper's "PPO" baseline.

use crate::checkpoint::{Reader, Writer};
use crate::federation::{Federation, Round, Strategy};
use pfrl_rl::PpoAgent;
use std::io;

/// The no-communication strategy: clients train alone. Rounds keep the
/// federated runners' chunking (so wall-clock and RNG usage compare) and
/// book presence, so a fault plan or churn schedule surfaces in telemetry
/// while training itself is untouched — the baseline's role in chaos,
/// attack, and drift experiments.
#[derive(Debug, Clone, Default)]
pub struct Independent;

impl Strategy for Independent {
    type Agent = PpoAgent;
    const NAME: &'static str = "PPO";
    const TAG: u8 = 0;
    const STREAMS: usize = 0;

    fn upload(_: &PpoAgent, _: &mut [Vec<f32>]) {}
    fn reduce(&mut self, _: &mut Round<'_, PpoAgent>) {}
    fn broadcast(&mut self, _: &mut Round<'_, PpoAgent>) -> u64 {
        0
    }
    fn write_state(&self, _: &mut Writer) {}
    fn read_state(&mut self, _: &mut Reader<'_>, _: &[usize]) -> io::Result<()> {
        Ok(())
    }
}

/// Baseline runner: every client trains alone, no communication.
pub type IndependentRunner = Federation<Independent>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests_support::small_setups;
    use crate::config::FedConfig;
    use pfrl_rl::PpoConfig;

    #[test]
    fn trains_all_clients_for_all_episodes() {
        let fed = FedConfig {
            episodes: 6,
            comm_every: 4,
            participation_k: 1,
            tasks_per_episode: Some(15),
            seed: 1,
            parallel: false,
        };
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = IndependentRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed);
        let curves = r.train();
        assert_eq!(curves.clients(), 2);
        assert!(curves.per_client.iter().all(|c| c.len() == 6));
    }

    #[test]
    fn parallel_equals_sequential() {
        let (setups, dims, env_cfg) = small_setups(3);
        let mk = |parallel: bool| {
            let fed = FedConfig {
                episodes: 4,
                comm_every: 2,
                participation_k: 1,
                tasks_per_episode: Some(12),
                seed: 7,
                parallel,
            };
            let mut r =
                IndependentRunner::new(setups.clone(), dims, env_cfg, PpoConfig::default(), fed);
            r.train()
        };
        assert_eq!(mk(true), mk(false));
    }
}
