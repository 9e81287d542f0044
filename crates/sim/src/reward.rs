//! The reward function of Sec. 4.2 (Eqs. 6–9) of [`crate::CloudEnv`], the
//! same for flat and workflow episodes.

use crate::config::EnvConfig;
use crate::vm::Vm;

/// Reward for a successful placement (Eq. 6):
/// `ρ·exp(run/res) + (1−ρ)·R_load` with
/// `R_load = 1` if the load balance improved, else the (small positive)
/// degradation `Load_c` (Eq. 8).
pub fn placement_reward(
    cfg: &EnvConfig,
    load_bal_before: f32,
    load_bal_after: f32,
    wait_steps: u64,
    run_steps: u64,
) -> f32 {
    let run = run_steps as f32;
    let res = wait_steps as f32 + run;
    let r_res = (run / res).exp();
    let load_c = load_bal_after - load_bal_before;
    let r_load = if load_c <= 0.0 { 1.0 } else { load_c };
    cfg.rho * r_res + (1.0 - cfg.rho) * r_load
}

/// Penalty for attempting an infeasible placement on `vm` (Eq. 9):
/// `−exp(Σ w_i · util_i(vm))`.
pub fn denial_penalty(cfg: &EnvConfig, vm: &Vm) -> f32 {
    let weighted: f32 =
        cfg.resource_weights.iter().enumerate().map(|(r, w)| w * vm.utilization(r)).sum();
    -weighted.exp()
}

/// Penalty for choosing a VM slot that does not exist (treated as a fully
/// utilized machine).
pub fn void_slot_penalty() -> f32 {
    -std::f32::consts::E
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmSpec;
    use pfrl_workloads::TaskSpec;

    fn cfg() -> EnvConfig {
        EnvConfig::default()
    }

    #[test]
    fn immediate_placement_maximizes_response_component() {
        // No wait: r_res = e^1; long wait: r_res → e^0 = 1.
        let fast = placement_reward(&cfg(), 0.0, 0.0, 0, 10);
        let slow = placement_reward(&cfg(), 0.0, 0.0, 1000, 10);
        assert!(fast > slow);
        // Both still positive (r_res ≥ 1, r_load ∈ (0, 1]).
        assert!(slow > 0.0);
    }

    #[test]
    fn balanced_placement_earns_full_load_reward() {
        let improved = placement_reward(&cfg(), 0.5, 0.3, 0, 10);
        let worsened = placement_reward(&cfg(), 0.3, 0.5, 0, 10);
        // Improvement gives R_load = 1; degradation gives Load_c = 0.2.
        assert!((improved - worsened - 0.5 * (1.0 - 0.2)).abs() < 1e-5);
    }

    #[test]
    fn rho_extremes_isolate_components() {
        let only_res = EnvConfig { rho: 1.0, ..cfg() };
        let r = placement_reward(&only_res, 0.0, 9.0, 0, 10);
        assert!((r - std::f32::consts::E).abs() < 1e-5);
        let only_load = EnvConfig { rho: 0.0, ..cfg() };
        let r = placement_reward(&only_load, 0.5, 0.2, 0, 10);
        assert!((r - 1.0).abs() < 1e-6);
    }

    #[test]
    fn denial_penalty_grows_with_utilization() {
        let mut vm = Vm::new(VmSpec::new(4, 16.0));
        let idle = denial_penalty(&cfg(), &vm);
        assert!((idle + 1.0).abs() < 1e-6, "idle VM: -e^0 = -1");
        vm.place(&TaskSpec { id: 0, arrival: 0, vcpus: 4, mem_gb: 16.0, duration: 5 }, 0);
        let full = denial_penalty(&cfg(), &vm);
        assert!((full + std::f32::consts::E).abs() < 1e-5, "full VM: -e^1");
        assert!(full < idle);
    }

    #[test]
    fn void_penalty_is_floor() {
        assert_eq!(void_slot_penalty(), -std::f32::consts::E);
    }
}
