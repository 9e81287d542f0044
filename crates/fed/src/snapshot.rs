//! Versioned, inference-only policy snapshots — the export format the
//! serving layer (`pfrl-serve`) loads.
//!
//! A [`PolicySnapshot`] captures everything needed to reproduce one
//! client's *greedy decision path* outside the training process: the actor
//! parameters and shape, the masking flag, and the client's environment
//! definition (dims, VM fleet, reward config) so a serving session can
//! mirror the cluster state decision-for-decision. Deliberately excluded:
//! critics, optimizer moments, rollout buffers, RNG cursors — those belong
//! to the (much larger) round checkpoint, not to serving.
//!
//! The wire format reuses the round-checkpoint primitive codec
//! ([`Writer`]/[`Reader`]) under its own magic/version prefix, with the
//! same strictness: truncation, trailing bytes, or internally inconsistent
//! declarations decode to [`FedError::Snapshot`], never to a partially
//! initialized policy.

use crate::checkpoint::{Reader, Writer};
use crate::error::FedError;
use pfrl_sim::{EnvConfig, EnvDims, VmSpec, RESOURCE_DIMS};

/// Magic + format version prefix of every policy snapshot.
const MAGIC: &[u8; 12] = b"PFRL-POLICY\x01";

/// One client's frozen greedy policy plus its environment definition.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySnapshot {
    /// Algorithm that trained the policy (paper name, e.g. `"PFRL-DM"`).
    pub algorithm: String,
    /// Client display name (unique within a federation).
    pub client: String,
    /// Snapshot version: the number of training episodes the policy had
    /// completed at export time. Monotonically increasing across exports
    /// of the same client, so a store can keep several and serve the
    /// latest.
    pub version: u64,
    /// Federation-wide observation/action dimensions.
    pub dims: EnvDims,
    /// Reward-shaping and simulation options of the client's environment.
    pub env_cfg: EnvConfig,
    /// The client's VM fleet.
    pub vms: Vec<VmSpec>,
    /// Hidden-layer width of the actor network.
    pub hidden: usize,
    /// Whether decisions use feasibility masking.
    pub mask_actions: bool,
    /// Flat actor parameters (shape `[state_dim, hidden, action_dim]`).
    pub actor_params: Vec<f32>,
}

impl PolicySnapshot {
    /// Layer sizes of the actor network.
    pub fn sizes(&self) -> [usize; 3] {
        [self.dims.state_dim(), self.hidden, self.dims.action_dim()]
    }

    /// [`Self::sizes`] and the parameter count they imply (dense layers +
    /// biases), derived with checked arithmetic so [`Self::validate`] can
    /// run on untrusted input: `None` if any of them overflows `usize`.
    fn checked_shape(&self) -> Option<([usize; 3], usize)> {
        let d = &self.dims;
        let sizes = [d.checked_state_dim()?, self.hidden, d.max_vms.checked_add(1)?];
        let count = sizes
            .windows(2)
            .try_fold(0usize, |n, w| n.checked_add(w[0].checked_add(1)?.checked_mul(w[1])?))?;
        Some((sizes, count))
    }

    /// Structural validation: every check needed so that building an actor
    /// network and a mirror environment from this snapshot cannot panic.
    pub fn validate(&self) -> Result<(), FedError> {
        let fail = |msg: String| Err(FedError::Snapshot(msg));
        if self.client.is_empty() {
            return fail("empty client name".into());
        }
        let d = &self.dims;
        if d.max_vms == 0
            || d.max_vcpus == 0
            || !d.max_mem_gb.is_finite()
            || d.max_mem_gb <= 0.0
            || d.queue_slots == 0
        {
            return fail(format!("degenerate dims {d:?}"));
        }
        let c = &self.env_cfg;
        let wsum: f32 = c.resource_weights.iter().sum();
        if !(0.0..=1.0).contains(&c.rho)
            || (wsum - 1.0).abs() >= 1e-5
            || c.lazy_wait_penalty > 0.0
            || c.max_decisions == 0
        {
            return fail(format!("invalid env config {c:?}"));
        }
        if self.vms.is_empty() || self.vms.len() > d.max_vms {
            return fail(format!("{} VMs for {} slots", self.vms.len(), d.max_vms));
        }
        for (i, v) in self.vms.iter().enumerate() {
            if v.vcpus == 0
                || !v.mem_gb.is_finite()
                || v.mem_gb <= 0.0
                || v.vcpus > d.max_vcpus
                || v.mem_gb > d.max_mem_gb
            {
                return fail(format!("VM {i} ({}, {}) outside dims", v.vcpus, v.mem_gb));
            }
        }
        if self.hidden == 0 {
            return fail("zero hidden width".into());
        }
        let Some((sizes, count)) = self.checked_shape() else {
            return fail(format!(
                "actor shape overflows usize: dims {d:?}, hidden {}",
                self.hidden
            ));
        };
        if self.actor_params.len() != count {
            return fail(format!(
                "{} actor params but shape {sizes:?} needs {count}",
                self.actor_params.len()
            ));
        }
        if self.actor_params.iter().any(|p| !p.is_finite()) {
            return fail("non-finite actor parameter".into());
        }
        Ok(())
    }

    /// Serializes to the versioned wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_magic(MAGIC);
        w.str(&self.algorithm);
        w.str(&self.client);
        w.u64(self.version);
        w.usize(self.dims.max_vms);
        w.u32(self.dims.max_vcpus);
        w.f32(self.dims.max_mem_gb);
        w.usize(self.dims.queue_slots);
        w.f32(self.env_cfg.rho);
        w.vec_f32(&self.env_cfg.resource_weights);
        w.f32(self.env_cfg.lazy_wait_penalty);
        w.usize(self.env_cfg.max_decisions);
        w.bool(self.env_cfg.fast_forward);
        w.usize(self.vms.len());
        for v in &self.vms {
            w.u32(v.vcpus);
            w.f32(v.mem_gb);
        }
        w.usize(self.hidden);
        w.bool(self.mask_actions);
        w.vec_f32(&self.actor_params);
        w.finish()
    }

    /// Decodes and validates a snapshot written by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FedError> {
        let mut r = Reader::with_magic(bytes, MAGIC).map_err(FedError::snapshot)?;
        let snap = (|| -> std::io::Result<Self> {
            let algorithm = r.str()?;
            let client = r.str()?;
            let version = r.u64()?;
            let dims = EnvDims {
                max_vms: r.usize()?,
                max_vcpus: r.u32()?,
                max_mem_gb: r.f32()?,
                queue_slots: r.usize()?,
            };
            let rho = r.f32()?;
            let weights = r.vec_f32()?;
            let env_cfg = EnvConfig {
                rho,
                resource_weights: weights.try_into().map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("expected {RESOURCE_DIMS} resource weights"),
                    )
                })?,
                lazy_wait_penalty: r.f32()?,
                max_decisions: r.usize()?,
                fast_forward: r.bool()?,
            };
            let n_vms = r.usize()?;
            let mut vms = Vec::with_capacity(n_vms.min(64));
            for _ in 0..n_vms {
                vms.push(VmSpec { vcpus: r.u32()?, mem_gb: r.f32()? });
            }
            let hidden = r.usize()?;
            let mask_actions = r.bool()?;
            let actor_params = r.vec_f32()?;
            Ok(Self {
                algorithm,
                client,
                version,
                dims,
                env_cfg,
                vms,
                hidden,
                mask_actions,
                actor_params,
            })
        })()
        .map_err(FedError::snapshot)?;
        r.finish().map_err(FedError::snapshot)?;
        snap.validate()?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> PolicySnapshot {
        let dims = EnvDims::new(2, 8, 64.0, 3);
        let hidden = 4;
        let n = (dims.state_dim() + 1) * hidden + (hidden + 1) * dims.action_dim();
        PolicySnapshot {
            algorithm: "PFRL-DM".into(),
            client: "bank-a".into(),
            version: 12,
            dims,
            env_cfg: EnvConfig::default(),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            hidden,
            mask_actions: false,
            actor_params: (0..n).map(|i| (i as f32 * 0.37).sin()).collect(),
        }
    }

    #[test]
    fn roundtrips_bit_identically() {
        let s = snapshot();
        let back = PolicySnapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn rejects_garbage_truncation_and_trailing_bytes() {
        assert!(matches!(
            PolicySnapshot::from_bytes(b"not a snapshot"),
            Err(FedError::Snapshot(_))
        ));
        let bytes = snapshot().to_bytes();
        assert!(PolicySnapshot::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(PolicySnapshot::from_bytes(&extended).is_err());
        // A round checkpoint is a different container: wrong magic.
        let ckpt = Writer::new().finish();
        assert!(PolicySnapshot::from_bytes(&ckpt).is_err());
    }

    #[test]
    fn rejects_inconsistent_shapes() {
        let mut s = snapshot();
        s.actor_params.pop();
        assert!(
            matches!(PolicySnapshot::from_bytes(&s.to_bytes()), Err(FedError::Snapshot(m)) if m.contains("actor params"))
        );
        let mut s = snapshot();
        s.vms.clear();
        assert!(PolicySnapshot::from_bytes(&s.to_bytes()).is_err());
        let mut s = snapshot();
        s.vms[0].vcpus = 1000; // exceeds dims
        assert!(PolicySnapshot::from_bytes(&s.to_bytes()).is_err());
        let mut s = snapshot();
        s.actor_params[0] = f32::NAN;
        assert!(PolicySnapshot::from_bytes(&s.to_bytes()).is_err());
    }

    #[test]
    fn param_count_matches_mlp_shape() {
        let s = snapshot();
        assert_eq!(s.sizes(), [s.dims.state_dim(), 4, s.dims.action_dim()]);
        assert_eq!(s.checked_shape(), Some((s.sizes(), s.actor_params.len())));
    }
}
