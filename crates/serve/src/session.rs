//! A stateful serving session: one cluster's environment [`Mirror`] plus
//! its pinned policy.
//!
//! The hot path is [`Session::decide`]: observe → actor forward → (mask) →
//! argmax → env step. The sharded service keeps only the mirror per
//! session and runs the forward once per plan; both paths observe and
//! finish through the same [`Mirror`] methods. A session reuses its own
//! per-decision buffers, so the steady-state path allocates nothing — the
//! same discipline the training loop follows (see `tests/zero_alloc.rs` at
//! the workspace root).

use pfrl_fed::{FedError, PolicySnapshot};
use pfrl_nn::{Activation, Mlp};
use pfrl_rl::policy;
use pfrl_sim::{Action, CloudEnv, EpisodeMetrics};
use pfrl_workloads::TaskSpec;

/// The outcome of one served scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Chosen action index (`max_vms` means "wait").
    pub action: usize,
    /// Whether a task was placed on a VM by this decision.
    pub placed: bool,
    /// The environment's reward signal for the decision.
    pub reward: f32,
    /// Whether the episode is now complete.
    pub done: bool,
    /// Snapshot version of the policy that produced this decision — the
    /// audit trail for hot-swap ramps: after a cutover commits, no decision
    /// may carry a retired version (asserted by the stress suite).
    pub version: u64,
}

/// One session's environment mirror and identity, without any weights: the
/// part of a serving session the sharded service keeps per session. Its
/// policy lives in the shard's plan for the session's snapshot, whose
/// batched forward supplies the logits the mirror turns into a decision.
pub struct Mirror {
    env: CloudEnv,
    algorithm: String,
    client: String,
    mask_actions: bool,
    max_vms: usize,
    decisions: u64,
}

impl Mirror {
    /// Builds the environment mirror (dims, VM fleet, reward config) the
    /// snapshot's policy was trained against. The snapshot must already be
    /// validated.
    pub(crate) fn new(snapshot: &PolicySnapshot) -> Self {
        Self {
            env: CloudEnv::new(snapshot.dims, snapshot.vms.clone(), snapshot.env_cfg),
            algorithm: snapshot.algorithm.clone(),
            client: snapshot.client.clone(),
            mask_actions: snapshot.mask_actions,
            max_vms: snapshot.dims.max_vms,
            decisions: 0,
        }
    }

    /// Algorithm that trained the served policy.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Client (cluster) this session serves.
    pub fn client(&self) -> &str {
        &self.client
    }

    /// Decisions served over the session's lifetime.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// The state columns this mirror's fleet can fill
    /// ([`CloudEnv::live_columns`]): what a policy serving it folds for.
    pub(crate) fn live_columns(&self) -> &[usize] {
        self.env.live_columns()
    }

    /// Starts a new episode over `tasks` (the one defensive copy the
    /// environment needs happens here).
    pub fn begin_episode(&mut self, tasks: &[TaskSpec]) {
        self.env.reset(tasks.to_vec());
    }

    /// Whether the current episode has completed (or none was begun).
    pub fn is_done(&self) -> bool {
        self.env.is_done()
    }

    /// Metrics of the current episode so far.
    pub fn metrics(&self) -> EpisodeMetrics {
        self.env.metrics()
    }

    /// Writes the current observation into `state`, one `state_dim` row
    /// (first half of a decision). The sharded service observes straight
    /// into a row of a wave's state matrix before running a single batched
    /// forward for the wave.
    pub(crate) fn observe_into(&self, state: &mut [f32]) {
        self.env.observe_into_slice(state);
    }

    /// Second half of a decision, given already-computed `logits` for the
    /// current observation of a policy at `version`: mask → argmax → env
    /// step. `logits` is consumed in place (masking overwrites it); `mask`
    /// is caller scratch. Both [`Session::decide`] and the sharded wave end
    /// here, so a wave-batched decision is bit-identical to a sequential
    /// one whenever the logits are.
    pub(crate) fn finish(
        &mut self,
        logits: &mut [f32],
        mask: &mut Vec<bool>,
        version: u64,
    ) -> Decision {
        if self.mask_actions {
            self.env.action_mask_into(mask);
            policy::apply_mask(logits, mask);
        }
        let action = policy::greedy_action(logits);
        let out = self.env.step(Action::from_index(action, self.max_vms));
        self.decisions += 1;
        Decision { action, placed: out.placed, reward: out.reward, done: out.done, version }
    }
}

/// Builds the actor network of a `sizes`-shaped policy holding `params`,
/// its input layer folded for a fleet whose live state columns are `live`.
pub(crate) fn build_actor(sizes: &[usize], params: &[f32], live: &[usize]) -> Mlp {
    let mut actor = Mlp::from_flat_params(sizes, Activation::Tanh, params);
    actor.fold_inputs(live);
    actor
}

/// One cluster's standalone serving session: an environment [`Mirror`]
/// plus its own copy of the frozen greedy policy from a [`PolicySnapshot`].
/// It derefs to the mirror for identity, episode control and metrics.
///
/// This is the reference path: the sharded service's wave decisions are
/// checked against `Session::decide` bit for bit.
pub struct Session {
    mirror: Mirror,
    actor: Mlp,
    version: u64,
    state: Vec<f32>,
    logits: Vec<f32>,
    mask: Vec<bool>,
}

impl Session {
    /// Instantiates the snapshot: rebuilds the actor network and the
    /// environment mirror it was trained against. The snapshot is
    /// re-validated, so a `Session` can never hold a policy whose shape
    /// disagrees with its environment.
    pub fn new(snapshot: &PolicySnapshot) -> Result<Self, FedError> {
        snapshot.validate()?;
        let mirror = Mirror::new(snapshot);
        Ok(Self {
            actor: build_actor(&snapshot.sizes(), &snapshot.actor_params, mirror.live_columns()),
            mirror,
            version: snapshot.version,
            state: vec![0.0; snapshot.dims.state_dim()],
            logits: Vec::new(),
            mask: Vec::new(),
        })
    }

    /// Version of the pinned snapshot.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Serves one greedy scheduling decision. Steady-state this allocates
    /// nothing: state, logits, and mask are the session's own buffers and
    /// the actor forwards through its internal ones.
    ///
    /// # Panics
    ///
    /// If the episode is already complete — callers gate on
    /// [`Mirror::is_done`] (the sharded service does this for you).
    pub fn decide(&mut self) -> Decision {
        assert!(!self.is_done(), "decide on a completed episode; call begin_episode");
        self.mirror.observe_into(&mut self.state);
        self.actor.forward_one_into(&self.state, &mut self.logits);
        self.mirror.finish(&mut self.logits, &mut self.mask, self.version)
    }

    /// Convenience: runs one full episode over `tasks` and returns its
    /// metrics. Decision-for-decision identical to the trainer's greedy
    /// evaluation of the same policy.
    pub fn run_episode(&mut self, tasks: &[TaskSpec]) -> EpisodeMetrics {
        self.begin_episode(tasks);
        while !self.decide().done {}
        self.metrics()
    }
}

impl std::ops::Deref for Session {
    type Target = Mirror;

    fn deref(&self) -> &Mirror {
        &self.mirror
    }
}

impl std::ops::DerefMut for Session {
    fn deref_mut(&mut self) -> &mut Mirror {
        &mut self.mirror
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{tiny_snapshot, tiny_tasks};

    #[test]
    fn session_mirrors_snapshot_identity() {
        let snap = tiny_snapshot("bank-0");
        let s = Session::new(&snap).unwrap();
        assert_eq!(s.client(), "bank-0");
        assert_eq!(s.algorithm(), "PFRL-DM");
        assert_eq!(s.version(), snap.version);
        assert_eq!(s.decisions(), 0);
    }

    #[test]
    fn invalid_snapshot_cannot_become_a_session() {
        let mut snap = tiny_snapshot("x");
        snap.actor_params[0] = f32::NAN;
        assert!(matches!(Session::new(&snap), Err(FedError::Snapshot(_))));
    }

    #[test]
    fn episode_runs_to_completion_and_counts_decisions() {
        let snap = tiny_snapshot("x");
        let mut s = Session::new(&snap).unwrap();
        let tasks = tiny_tasks(12);
        let m = s.run_episode(&tasks);
        assert_eq!(m.tasks_placed + m.tasks_unplaced, 12);
        assert!(s.is_done());
        assert!(s.decisions() >= 12, "at least one decision per task");
        // Same tasks, same frozen policy → bit-identical metrics.
        assert_eq!(s.run_episode(&tasks), m);
    }

    #[test]
    #[should_panic(expected = "completed episode")]
    fn deciding_past_the_end_is_a_bug() {
        let snap = tiny_snapshot("x");
        let mut s = Session::new(&snap).unwrap();
        s.run_episode(&tiny_tasks(5));
        s.decide();
    }
}
