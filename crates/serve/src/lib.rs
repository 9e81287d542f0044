//! `pfrl-serve` — online policy serving for trained PFRL-DM federations.
//!
//! Training (the `pfrl-fed` runners) ends with each client exporting an
//! inference-only [`PolicySnapshot`](pfrl_fed::PolicySnapshot): the actor
//! weights plus the environment definition (dims, VM fleet, reward config)
//! they were trained against. This crate turns those snapshots into a
//! serving plane:
//!
//! * [`PolicyStore`] — an immutable, validated collection of snapshots,
//!   keyed by `(client, version)`, safe to share across threads;
//! * [`Session`] — one cluster's standalone serving session: an
//!   environment [`Mirror`] plus its own copy of the frozen greedy policy.
//!   The per-decision path ([`Session::decide`]) is allocation-free at
//!   steady state because the session reuses its own buffers; it is the
//!   reference the served decisions are checked against;
//! * [`ShardedDecisionService`] — the serving front end: sessions are
//!   hashed to share-nothing shards (one worker core each), a bounded
//!   per-shard queue rejects with [`ServeError::Overloaded`] instead of
//!   buffering without bound, waves of concurrent same-snapshot requests
//!   collapse into a single batched GEMM over the shard's one copy of that
//!   policy, and new snapshot versions roll out through shadow-evaluated
//!   hot-swap ramps ([`ShardedDecisionService::publish`]) with automatic
//!   rollback. Admissions, rejections, stale drops and decisions are
//!   reported through `pfrl-telemetry`. See the [`shard`] module docs for
//!   the ownership rule and the ramp state machine.
//!
//! Served decisions are bit-identical to the trainer's greedy evaluation
//! of the same policy — whether decided one at a time or in a sharded
//! wave — and the fidelity tests in `tests/policy_serving.rs` (workspace
//! root) assert this for all four federation algorithms.
//!
//! # Example: snapshot → store → batched decisions
//!
//! ```
//! use pfrl_serve::{PolicyStore, ShardedDecisionService, ShardedServeConfig};
//! use pfrl_fed::PolicySnapshot;
//! use pfrl_nn::{Activation, Mlp};
//! use pfrl_sim::{EnvConfig, EnvDims, VmSpec};
//! use pfrl_workloads::DatasetId;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // In production the snapshot comes from a trained federation
//! // (`TrainedFederation::policy_snapshots()`); here we forge a tiny one.
//! let dims = EnvDims::new(2, 8, 64.0, 3);
//! let actor = Mlp::new(
//!     &[dims.state_dim(), 8, dims.action_dim()],
//!     Activation::Tanh,
//!     &mut SmallRng::seed_from_u64(1),
//! );
//! let snapshot = PolicySnapshot {
//!     algorithm: "PFRL-DM".into(),
//!     client: "bank-0".into(),
//!     version: 1,
//!     dims,
//!     env_cfg: EnvConfig::default(),
//!     vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
//!     hidden: 8,
//!     mask_actions: true,
//!     actor_params: actor.flat_params(),
//! };
//!
//! let store = PolicyStore::from_blobs([snapshot.to_bytes().as_slice()]).unwrap();
//! let cfg = ShardedServeConfig { shards: 1, ..ShardedServeConfig::default() };
//! let svc = ShardedDecisionService::new(store, cfg);
//! let a = svc.open_session("bank-0").unwrap();
//! let b = svc.open_session("bank-0").unwrap();
//! for id in [a, b] {
//!     svc.begin_episode(id, &DatasetId::K8s.model().sample(10, 7)).unwrap();
//!     svc.submit(id).unwrap();
//! }
//! // One wave serves both sessions through one batched forward.
//! let served = svc.decide_wave(0);
//! assert_eq!(served.len(), 2);
//! ```

pub mod session;
pub mod shard;
pub mod store;

pub use session::{Decision, Mirror, Session};
pub use shard::{
    RampHandle, RampStatus, ServeError, ServeLedger, SessionId, ShardedDecisionService,
    ShardedServeConfig,
};
pub use store::PolicyStore;

#[cfg(test)]
pub(crate) mod tests_support {
    use pfrl_fed::PolicySnapshot;
    use pfrl_nn::{Activation, Mlp};
    use pfrl_rl::PpoConfig;
    use pfrl_sim::{EnvConfig, EnvDims, VmSpec};
    use pfrl_workloads::{DatasetId, TaskSpec};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A small but fully valid snapshot with deterministic random weights.
    pub(crate) fn tiny_snapshot(client: &str) -> PolicySnapshot {
        let dims = EnvDims::new(2, 8, 64.0, 3);
        let hidden = PpoConfig::default().hidden;
        let actor = Mlp::new(
            &[dims.state_dim(), hidden, dims.action_dim()],
            Activation::Tanh,
            &mut SmallRng::seed_from_u64(client.len() as u64),
        );
        PolicySnapshot {
            algorithm: "PFRL-DM".into(),
            client: client.into(),
            version: 7,
            dims,
            env_cfg: EnvConfig::default(),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            hidden,
            mask_actions: true,
            actor_params: actor.flat_params(),
        }
    }

    /// A deterministic workload sample.
    pub(crate) fn tiny_tasks(n: usize) -> Vec<TaskSpec> {
        DatasetId::K8s.model().sample(n, 11)
    }
}
