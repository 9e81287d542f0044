//! Layer probes the benchmark times directly, and the operation counts it
//! computes from tensor shapes (labelled "computed" in every report).

use crate::stats::median;
use pfrl_core::fed::PolicySnapshot;
use pfrl_core::nn::{Activation, Mlp};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::{Action, CloudEnv, EnvConfig, EnvDims, VmSpec};
use pfrl_core::telemetry::Telemetry;
use pfrl_core::tensor::Matrix;
use pfrl_core::workloads::TaskSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One simulator case: a VM fleet and a task window.
pub type SimCase<'a> = (&'a [VmSpec], &'a [TaskSpec]);

/// `CloudEnv::step` under the first-fit heuristic on the workload's task
/// windows.
pub struct SimProbe {
    pub step_ns: f64,
    pub decisions_per_task: f64,
    pub events_per_decision: f64,
    /// `(decisions, events, reward-sum bits)` of one pass: the traced and
    /// untraced probes must agree on it.
    pub fingerprint: (u64, u64, u64),
}

pub fn sim_probe(dims: EnvDims, cases: &[SimCase], telemetry: &Telemetry, min_ms: f64) -> SimProbe {
    let mut envs: Vec<CloudEnv> = cases
        .iter()
        .map(|(vms, _)| {
            let mut env = CloudEnv::new(dims, vms.to_vec(), EnvConfig::default());
            env.set_telemetry(telemetry.clone());
            env
        })
        .collect();
    let tasks: usize = cases.iter().map(|(_, t)| t.len()).sum();
    let mut per_step = Vec::new();
    let mut fingerprint = (0, 0, 0);
    let start = Instant::now();
    while per_step.is_empty() || start.elapsed().as_secs_f64() * 1e3 < min_ms {
        let (mut ns, mut steps, mut events, mut reward) = (0u128, 0u64, 0u64, 0f64);
        for (env, (_, window)) in envs.iter_mut().zip(cases) {
            env.reset(window.to_vec());
            let t = Instant::now();
            while !env.is_done() {
                let action = env.first_fit_action().unwrap_or(Action::Wait);
                reward += env.step(action).reward as f64;
            }
            ns += t.elapsed().as_nanos();
            steps += env.decisions() as u64;
            events += env.events();
        }
        per_step.push(ns as f64 / steps.max(1) as f64);
        fingerprint = (steps, events, reward.to_bits());
    }
    SimProbe {
        step_ns: median(&mut per_step),
        decisions_per_task: fingerprint.0 as f64 / tasks.max(1) as f64,
        events_per_decision: fingerprint.1 as f64 / fingerprint.0.max(1) as f64,
        fingerprint,
    }
}

/// Observations from first-fit rollouts over `cases`, `rows` of them.
pub fn sample_states(dims: EnvDims, cases: &[SimCase], rows: usize) -> Matrix {
    let mut out = Matrix::zeros(rows, dims.state_dim());
    let mut state = Vec::new();
    let mut filled = 0;
    'outer: for (vms, window) in cases.iter().cycle().take(rows * cases.len().max(1)) {
        let mut env = CloudEnv::new(dims, vms.to_vec(), EnvConfig::default());
        env.reset(window.to_vec());
        while !env.is_done() {
            env.observe_into(&mut state);
            out.row_mut(filled).copy_from_slice(&state);
            filled += 1;
            if filled == rows {
                break 'outer;
            }
            env.step(env.first_fit_action().unwrap_or(Action::Wait));
        }
    }
    out
}

/// Nanoseconds per row of `Mlp::forward_into` on a served actor, at the
/// batch widths of a full wave (32 rows) and a one-row plan.
pub fn nn_probe(snap: &PolicySnapshot, states32: &Matrix, min_ms: f64) -> (f64, f64) {
    let mut actor = actor_of(snap);
    let one = Matrix::from_vec(1, states32.cols(), states32.row(0).to_vec());
    let mut out = Matrix::zeros(0, 0);
    let mut time = |x: &Matrix| {
        let reps = (4096 / x.rows()).max(1);
        let mut blocks = Vec::new();
        let start = Instant::now();
        while blocks.len() < 5 || start.elapsed().as_secs_f64() * 1e3 < min_ms {
            let t = Instant::now();
            for _ in 0..reps {
                actor.forward_into(black_box(x), &mut out);
                black_box(&out);
            }
            blocks.push(t.elapsed().as_nanos() as f64 / (reps * x.rows()) as f64);
        }
        median(&mut blocks)
    };
    (time(states32), time(&one))
}

/// An actor rebuilt from a snapshot (the constructor's RNG draws are
/// overwritten by the snapshot's parameters).
pub fn actor_of(snap: &PolicySnapshot) -> Mlp {
    let mut actor = Mlp::new(&snap.sizes(), Activation::Tanh, &mut SmallRng::seed_from_u64(0));
    actor.set_flat_params(&snap.actor_params);
    actor
}

/// Multiply-accumulates of one forward pass per row of an MLP.
pub fn fwd_macs(sizes: &[usize]) -> u64 {
    sizes.windows(2).map(|w| (w[0] * w[1]) as u64).sum()
}

/// Computed MACs of the dual-critic PPO update over `rows` transitions:
/// actor epochs and both critics' regression epochs at forward + 2×
/// backward each, plus the two blended-value forwards and the two α-refresh
/// loss forwards.
pub fn ppo_update_macs(ppo: &PpoConfig, dims: EnvDims, rows: u64) -> u64 {
    let actor = fwd_macs(&[dims.state_dim(), ppo.hidden, dims.action_dim()]);
    let critic = fwd_macs(&[dims.state_dim(), ppo.hidden, 1]);
    rows * (3 * ppo.update_epochs as u64 * actor + (3 * 2 * ppo.critic_epochs as u64 + 4) * critic)
}

/// Computed MACs of multi-head attention over `k` uploads of `p` floats:
/// per head, the tied projection `k×p·d_k` and the scores `k×k·d_k`.
pub fn attention_macs(heads: usize, d_k: usize, k: u64, p: u64) -> u64 {
    heads as u64 * (k * p * d_k as u64 + k * k * d_k as u64)
}

/// Computed MACs of the dense personalized mixing `W·Ψ`.
pub fn mix_macs(k: u64, p: u64) -> u64 {
    k * k * p
}

/// Formats one per-layer table row.
pub fn row(layer: &str, value: f64, unit: &str, share: Option<f64>, source: &str) -> String {
    let share = share.map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
    format!("{layer:<28} {value:>14.3} {unit:<6} {share:>7}  {source}")
}
