//! Heuristic scheduling baselines.
//!
//! These are not in the paper's comparison set (which is RL-only), but they
//! anchor the simulator: a learned policy that cannot beat Random, or that
//! beats BestFit by an implausible factor, signals an environment bug. They
//! also serve as cheap reference points in the benches.

use crate::env::{Action, CloudEnv};
use crate::metrics::EpisodeMetrics;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// Built-in heuristic policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeuristicPolicy {
    /// Uniform choice among feasible VMs (wait if none).
    Random,
    /// Uniform over the *entire* action space — every VM slot (including
    /// void ones) plus Wait, with no feasibility check. This is what an
    /// untrained policy's uniform logits actually do, penalties and all,
    /// which makes it the regression floor the eval gate holds trained
    /// agents against. [`HeuristicPolicy::Random`] is feasibility-aware
    /// and near reward-optimal on underloaded fleets, so it anchors the
    /// top of the range instead.
    BlindRandom,
    /// Lowest-index feasible VM.
    FirstFit,
    /// Feasible VM with the least remaining vCPUs after placement
    /// (classic best-fit on the CPU dimension, memory as tie-break).
    BestFit,
    /// Feasible VM with the *most* remaining vCPUs (worst-fit: naturally
    /// load-balancing).
    WorstFit,
}

impl HeuristicPolicy {
    /// Chooses an action for the current environment state.
    pub fn decide(self, env: &CloudEnv, rng: &mut SmallRng) -> Action {
        if self == HeuristicPolicy::BlindRandom {
            let a = rng.gen_range(0..env.dims().action_dim());
            return if a == env.dims().max_vms { Action::Wait } else { Action::Vm(a) };
        }
        let Some(head) = env.head_task() else {
            return Action::Wait;
        };
        let feasible = env.cluster().feasible(head);
        if feasible.is_empty() {
            return Action::Wait;
        }
        match self {
            HeuristicPolicy::BlindRandom => unreachable!("handled above"),
            HeuristicPolicy::Random => Action::Vm(feasible[rng.gen_range(0..feasible.len())]),
            HeuristicPolicy::FirstFit => Action::Vm(feasible[0]),
            HeuristicPolicy::BestFit => {
                let best = feasible
                    .into_iter()
                    .min_by(|&a, &b| {
                        let va = &env.cluster().vms()[a];
                        let vb = &env.cluster().vms()[b];
                        let ka = (va.free_vcpus() - head.vcpus, va.free_mem() - head.mem_gb);
                        let kb = (vb.free_vcpus() - head.vcpus, vb.free_mem() - head.mem_gb);
                        ka.0.cmp(&kb.0).then(ka.1.partial_cmp(&kb.1).expect("finite"))
                    })
                    .expect("non-empty");
                Action::Vm(best)
            }
            HeuristicPolicy::WorstFit => {
                let best = feasible
                    .into_iter()
                    .max_by(|&a, &b| {
                        let va = &env.cluster().vms()[a];
                        let vb = &env.cluster().vms()[b];
                        let ka = (va.free_vcpus(), va.free_mem());
                        let kb = (vb.free_vcpus(), vb.free_mem());
                        ka.0.cmp(&kb.0).then(ka.1.partial_cmp(&kb.1).expect("finite"))
                    })
                    .expect("non-empty");
                Action::Vm(best)
            }
        }
    }
}

/// Runs one full episode of `policy` on an already-reset environment (a
/// flat or a workflow episode) and returns the final metrics.
pub fn run_heuristic(env: &mut CloudEnv, policy: HeuristicPolicy, seed: u64) -> EpisodeMetrics {
    let mut rng = SmallRng::seed_from_u64(seed);
    while !env.is_done() {
        let action = policy.decide(env, &mut rng);
        env.step(action);
    }
    env.metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EnvConfig, EnvDims};
    use crate::vm::VmSpec;
    use pfrl_workloads::DatasetId;

    fn env() -> CloudEnv {
        CloudEnv::new(
            EnvDims::new(4, 16, 128.0, 5),
            vec![
                VmSpec::new(16, 128.0),
                VmSpec::new(8, 64.0),
                VmSpec::new(8, 64.0),
                VmSpec::new(4, 32.0),
            ],
            EnvConfig::default(),
        )
    }

    fn google_tasks(n: usize) -> Vec<pfrl_workloads::TaskSpec> {
        DatasetId::Google.model().sample(n, 33)
    }

    #[test]
    fn every_policy_completes_an_episode() {
        for policy in [
            HeuristicPolicy::Random,
            HeuristicPolicy::FirstFit,
            HeuristicPolicy::BestFit,
            HeuristicPolicy::WorstFit,
        ] {
            let mut e = env();
            e.reset(google_tasks(100));
            let m = run_heuristic(&mut e, policy, 1);
            assert!(!e.is_truncated(), "{policy:?} truncated");
            assert_eq!(m.tasks_placed + m.tasks_unplaced, 100, "{policy:?}");
            assert!(m.avg_response >= 1.0, "{policy:?}");
            assert!(m.makespan > 0.0, "{policy:?}");
            assert!(m.avg_utilization > 0.0 && m.avg_utilization <= 1.0, "{policy:?}");
        }
    }

    #[test]
    fn worst_fit_balances_better_than_first_fit() {
        // Worst-fit spreads load; first-fit piles onto VM 0.
        let mut lb_ff = 0.0;
        let mut lb_wf = 0.0;
        for seed in 0..3 {
            let tasks = DatasetId::Google.model().sample(150, 100 + seed);
            let mut e1 = env();
            e1.reset(tasks.clone());
            lb_ff += run_heuristic(&mut e1, HeuristicPolicy::FirstFit, seed).avg_load_balance;
            let mut e2 = env();
            e2.reset(tasks);
            lb_wf += run_heuristic(&mut e2, HeuristicPolicy::WorstFit, seed).avg_load_balance;
        }
        assert!(lb_wf < lb_ff, "worst-fit {lb_wf} vs first-fit {lb_ff}");
    }

    #[test]
    fn heuristics_never_get_denied() {
        // Heuristics only pick feasible VMs, so every placement reward is
        // positive and total reward should exceed the all-penalty floor.
        let mut e = env();
        e.reset(google_tasks(80));
        let m = run_heuristic(&mut e, HeuristicPolicy::BestFit, 5);
        // 80 placements each worth > 0.5 (rho=0.5, r_res > 1, r_load > 0).
        assert!(m.total_reward > 0.0, "total reward {}", m.total_reward);
    }

    #[test]
    fn blind_random_is_a_reward_floor() {
        // Blind dispatch eats denial/void penalties that feasibility-aware
        // random never sees, so on the same tasks its total reward must be
        // strictly lower — that gap is what the eval gate's learning
        // invariant stands on.
        let tasks = google_tasks(80);
        let mut e1 = env();
        e1.reset(tasks.clone());
        let aware = run_heuristic(&mut e1, HeuristicPolicy::Random, 21);
        let mut e2 = env();
        e2.reset(tasks);
        let blind = run_heuristic(&mut e2, HeuristicPolicy::BlindRandom, 21);
        assert!(
            blind.total_reward < aware.total_reward,
            "blind {} vs aware {}",
            blind.total_reward,
            aware.total_reward
        );
        assert_eq!(blind.tasks_placed + blind.tasks_unplaced, 80);
    }

    #[test]
    fn random_policy_deterministic_per_seed() {
        let tasks = google_tasks(60);
        let mut e1 = env();
        e1.reset(tasks.clone());
        let m1 = run_heuristic(&mut e1, HeuristicPolicy::Random, 9);
        let mut e2 = env();
        e2.reset(tasks);
        let m2 = run_heuristic(&mut e2, HeuristicPolicy::Random, 9);
        assert_eq!(m1, m2);
    }
}
