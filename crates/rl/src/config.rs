//! PPO hyperparameters (defaults from Sec. 3.1 of the paper).

/// Configuration shared by the single- and dual-critic PPO agents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoConfig {
    /// Discount factor `γ` (paper: 0.99).
    pub gamma: f32,
    /// Clipping parameter `ε` (paper: 0.2).
    pub clip: f32,
    /// Gradient epochs per update over the collected episode.
    pub update_epochs: usize,
    /// Actor learning rate (paper: 3e-4).
    pub lr_actor: f32,
    /// Critic learning rate (paper: 1e-4).
    pub lr_critic: f32,
    /// Hidden layer width (paper: a single hidden layer of 64 neurons).
    pub hidden: usize,
    /// Entropy bonus coefficient (exploration aid; not specified in the
    /// paper, kept small).
    pub entropy_coef: f32,
    /// Standardize advantages before the policy update.
    pub normalize_advantages: bool,
    /// GAE λ; `1.0` reduces to the paper's plain sample-return advantage
    /// `A = G − V(s)`.
    pub gae_lambda: f32,
    /// Regression epochs for the value network(s) per update (the critic's
    /// slower learning rate needs more passes to track the return scale).
    pub critic_epochs: usize,
    /// Episodes collected into one update batch (1 = per-episode updates,
    /// as implied by the paper; larger batches reduce gradient variance).
    pub episodes_per_update: usize,
    /// Restrict the policy to feasible actions via masking instead of
    /// letting it learn feasibility from penalties (an ablation — the
    /// paper's Eq. 9 penalty mechanism is the default, `false`).
    pub mask_invalid_actions: bool,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            clip: 0.2,
            update_epochs: 4,
            lr_actor: 3e-4,
            lr_critic: 1e-4,
            hidden: 64,
            entropy_coef: 0.01,
            normalize_advantages: true,
            gae_lambda: 1.0,
            critic_epochs: 10,
            episodes_per_update: 1,
            mask_invalid_actions: false,
        }
    }
}

impl PpoConfig {
    /// Validates ranges; called by agent constructors.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.gamma), "gamma out of [0,1]");
        assert!(self.clip > 0.0 && self.clip < 1.0, "clip out of (0,1)");
        assert!(self.update_epochs >= 1, "need at least one update epoch");
        assert!(self.lr_actor > 0.0 && self.lr_critic > 0.0, "non-positive lr");
        assert!(self.hidden >= 1, "empty hidden layer");
        assert!(self.entropy_coef >= 0.0, "negative entropy coefficient");
        assert!((0.0..=1.0).contains(&self.gae_lambda), "gae_lambda out of [0,1]");
        assert!(self.critic_epochs >= 1, "need at least one critic epoch");
        assert!(self.episodes_per_update >= 1, "need at least one episode per update");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_settings() {
        let c = PpoConfig::default();
        c.validate();
        assert_eq!(c.gamma, 0.99);
        assert_eq!(c.clip, 0.2);
        assert_eq!(c.lr_actor, 3e-4);
        assert_eq!(c.lr_critic, 1e-4);
        assert_eq!(c.hidden, 64);
    }

    #[test]
    #[should_panic(expected = "clip")]
    fn bad_clip_rejected() {
        PpoConfig { clip: 0.0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn bad_gamma_rejected() {
        PpoConfig { gamma: 1.5, ..Default::default() }.validate();
    }
}
