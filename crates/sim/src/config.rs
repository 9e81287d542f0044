//! Environment dimensioning and reward configuration.

use crate::RESOURCE_DIMS;

/// Fixed observation/action dimensions shared by every client in a
/// federation (the paper requires clients to "have similar definitions of
/// the RL environments"; concretely the network shapes must agree for the
/// parameters to be aggregable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvDims {
    /// Maximum number of VMs `L`; clusters with fewer pad with *void* slots.
    pub max_vms: usize,
    /// Maximum vCPUs per VM `U^vcpu`.
    pub max_vcpus: u32,
    /// Maximum memory per VM `U^mem` (GiB), used for normalization.
    pub max_mem_gb: f32,
    /// Number of waiting-queue slots `Q` visible in the observation.
    pub queue_slots: usize,
}

impl EnvDims {
    /// Creates dims; panics on degenerate values.
    pub fn new(max_vms: usize, max_vcpus: u32, max_mem_gb: f32, queue_slots: usize) -> Self {
        assert!(max_vms >= 1, "need at least one VM slot");
        assert!(max_vcpus >= 1, "need at least one vCPU slot");
        assert!(max_mem_gb > 0.0, "max memory must be positive");
        assert!(queue_slots >= 1, "need at least one queue slot");
        Self { max_vms, max_vcpus, max_mem_gb, queue_slots }
    }

    /// Flattened state vector length:
    /// `L·d` (remaining capacity) + `L·U` (vCPU progress) + `Q·d` (queue).
    ///
    /// # Panics
    /// If the length overflows `usize` (see [`EnvDims::checked_state_dim`]).
    pub fn state_dim(&self) -> usize {
        self.checked_state_dim().expect("EnvDims::state_dim overflows usize")
    }

    /// [`EnvDims::state_dim`], or `None` if it overflows `usize` — for dims
    /// decoded from untrusted bytes.
    pub fn checked_state_dim(&self) -> Option<usize> {
        let capacity = self.max_vms.checked_mul(RESOURCE_DIMS)?;
        let progress = self.max_vms.checked_mul(self.max_vcpus as usize)?;
        let queue = self.queue_slots.checked_mul(RESOURCE_DIMS)?;
        capacity.checked_add(progress)?.checked_add(queue)
    }

    /// Action count: one per VM slot plus the wait action (`-1` in Eq. (2)).
    pub fn action_dim(&self) -> usize {
        self.max_vms + 1
    }

    /// The dims used by the paper's 10-client evaluation (Table 3): up to 8
    /// VMs of up to 64 vCPUs / 512 GiB, 5 visible queue slots.
    pub fn paper_table3() -> Self {
        Self::new(8, 64, 512.0, 5)
    }

    /// The dims used by the 4-client exploratory studies (Table 2): up to 5
    /// VMs of up to 32 vCPUs / 256 GiB.
    pub fn paper_table2() -> Self {
        Self::new(5, 32, 256.0, 5)
    }
}

/// Reward shaping and simulation options (Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvConfig {
    /// `ρ`: weight of the response-time reward vs the load-balance reward.
    pub rho: f32,
    /// `w_i`: per-resource weights in the load-balance measure and the
    /// denial penalty; must sum to 1.
    pub resource_weights: [f32; RESOURCE_DIMS],
    /// Constant penalty for waiting while a feasible VM exists
    /// ("a larger negative constant" in the paper).
    pub lazy_wait_penalty: f32,
    /// Safety cap on agent decisions per episode (guards untrained policies
    /// against unbounded episodes).
    pub max_decisions: usize,
    /// When the head task fits nowhere, jump time to the next completion
    /// event instead of ticking minute by minute (no decision exists either
    /// way; this only compresses dead time).
    pub fast_forward: bool,
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self {
            rho: 0.5,
            resource_weights: [0.5, 0.5],
            lazy_wait_penalty: -5.0,
            max_decisions: 200_000,
            fast_forward: true,
        }
    }
}

impl EnvConfig {
    /// Validates invariants; called by the environment constructor.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.rho), "rho out of [0,1]");
        let sum: f32 = self.resource_weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "resource weights must sum to 1, got {sum}");
        assert!(self.lazy_wait_penalty <= 0.0, "lazy wait penalty must be non-positive");
        assert!(self.max_decisions > 0, "max_decisions must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_and_action_dims() {
        let d = EnvDims::new(8, 64, 512.0, 5);
        assert_eq!(d.state_dim(), 8 * 2 + 8 * 64 + 5 * 2);
        assert_eq!(d.action_dim(), 9);
        assert_eq!(d.checked_state_dim(), Some(d.state_dim()));
        let huge = EnvDims { max_vms: usize::MAX / 2, ..d };
        assert_eq!(huge.checked_state_dim(), None);
    }

    #[test]
    fn paper_presets() {
        assert_eq!(EnvDims::paper_table3().max_vms, 8);
        assert_eq!(EnvDims::paper_table2().max_vcpus, 32);
        assert!(EnvDims::paper_table3().state_dim() > EnvDims::paper_table2().state_dim());
    }

    #[test]
    fn default_config_valid() {
        EnvConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_weights_rejected() {
        let cfg = EnvConfig { resource_weights: [0.9, 0.9], ..Default::default() };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn bad_rho_rejected() {
        let cfg = EnvConfig { rho: 1.5, ..Default::default() };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least one VM slot")]
    fn zero_vms_rejected() {
        let _ = EnvDims::new(0, 1, 1.0, 1);
    }
}
