//! Discrete-time cloud task-scheduling simulator and RL environment —
//! the environment modeling of PFRL-DM Sec. 4.1–4.2.
//!
//! Time is driven by a discrete-event core (see [`events`]): a typed
//! calendar of arrival/completion/release events with deterministic
//! tie-breaking, bit-identical in rewards and metrics to the stepped
//! reference engine it replaced (selectable via
//! [`CloudEnv::set_time_engine`] for the equivalence suite and perf
//! baselines).
//!
//! One simulation step is one minute (matching `pfrl-workloads`). An episode
//! replays a task trace against a cluster of heterogeneous VMs; the agent
//! repeatedly assigns the head of the waiting queue to a VM (or waits), and
//! is rewarded per Eqs. (6)–(9) of the paper:
//!
//! * successful placement: `ρ·exp(j_run/j_res) + (1-ρ)·R_load`;
//! * infeasible placement attempt: `-exp(Σ w_i·util_i)` of the chosen VM;
//! * waiting although a feasible VM exists: a constant penalty.
//!
//! The observation is the padded triple `(S^VM, S^vCPU, S^Queue)` of Eq. (1):
//! remaining VM capacity, per-vCPU completion progress of running tasks (the
//! paper's substitute for exposing task durations), and the resource demands
//! of the first `Q` queued tasks.
//!
//! # Example
//!
//! ```
//! use pfrl_sim::{Action, CloudEnv, EnvConfig, EnvDims, VmSpec};
//! use pfrl_workloads::DatasetId;
//!
//! let dims = EnvDims::new(3, 8, 64.0, 5);
//! let vms = vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)];
//! let tasks = DatasetId::K8s.model().sample(20, 1);
//! let mut env = CloudEnv::new(dims, vms, EnvConfig::default());
//! env.reset(tasks);
//! let mut steps = 0;
//! while !env.is_done() && steps < 10_000 {
//!     let state = env.observe();
//!     assert_eq!(state.len(), env.dims().state_dim());
//!     // trivial policy: first VM that fits, else wait
//!     let action = env.first_fit_action().unwrap_or(Action::Wait);
//!     env.step(action);
//!     steps += 1;
//! }
//! assert!(env.is_done());
//! let m = env.metrics();
//! assert!(m.avg_response >= 1.0);
//! ```

pub mod baselines;
pub mod cluster;
pub mod config;
pub mod dag;
pub mod env;
pub mod events;
pub mod metrics;
pub mod objectives;
pub mod reward;
pub mod state;
pub mod vm;

pub use baselines::{run_blind_random, run_heuristic, HeuristicPolicy};
pub use cluster::Cluster;
pub use config::{EnvConfig, EnvDims};
pub use dag::DagCloudEnv;
pub use env::{Action, CloudEnv, StepOutcome};
pub use events::{Event, EventCalendar, EventKind, SimClock, TimeDriven, TimeEngine};
pub use metrics::{EpisodeMetrics, TaskRecord};
pub use vm::{Vm, VmSpec};

/// Number of resource dimensions modeled (vCPU, memory) — the paper's `d`.
pub const RESOURCE_DIMS: usize = 2;

/// The environment interface the RL agents drive. Implemented by the flat
/// [`CloudEnv`] (the paper's setting) and by [`dag::DagCloudEnv`]
/// (dependency-aware workflows — the paper's stated future work).
pub trait SchedulingEnv {
    /// Shared observation/action dimensioning.
    fn dims(&self) -> &EnvDims;
    /// Current observation (Eq. 1 layout) into a reusable buffer — the
    /// required form, so every implementation has an allocation-free
    /// per-decision path by construction.
    fn observe_into(&self, out: &mut Vec<f32>);
    /// Allocating convenience wrapper over
    /// [`SchedulingEnv::observe_into`] (tests, diagnostics — never the hot
    /// path).
    fn observe(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.observe_into(&mut out);
        out
    }
    /// Executes one agent decision.
    fn step(&mut self, action: Action) -> StepOutcome;
    /// Whether the episode has ended.
    fn is_done(&self) -> bool;
    /// Episode metrics so far.
    fn metrics(&self) -> EpisodeMetrics;
    /// Feasibility mask over the action head (`mask[max_vms]` = wait,
    /// always true) into a reusable buffer — the required form, like
    /// [`SchedulingEnv::observe_into`]. Used by masked-policy agents (an
    /// ablation; the paper itself relies on penalties instead).
    fn action_mask_into(&self, out: &mut Vec<bool>);
    /// Allocating convenience wrapper over
    /// [`SchedulingEnv::action_mask_into`].
    fn action_mask(&self) -> Vec<bool> {
        let mut out = Vec::new();
        self.action_mask_into(&mut out);
        out
    }
}

impl SchedulingEnv for CloudEnv {
    fn dims(&self) -> &EnvDims {
        CloudEnv::dims(self)
    }
    fn observe_into(&self, out: &mut Vec<f32>) {
        CloudEnv::observe_into(self, out)
    }
    fn step(&mut self, action: Action) -> StepOutcome {
        CloudEnv::step(self, action)
    }
    fn is_done(&self) -> bool {
        CloudEnv::is_done(self)
    }
    fn metrics(&self) -> EpisodeMetrics {
        CloudEnv::metrics(self)
    }
    fn action_mask_into(&self, out: &mut Vec<bool>) {
        CloudEnv::action_mask_into(self, out)
    }
}
