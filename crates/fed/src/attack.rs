//! Deterministic Byzantine attack schedules — the adversarial counterpart
//! of [`crate::fault::FaultPlan`].
//!
//! PR 3's quarantine gate rejects *syntactically* broken uploads (NaN/Inf,
//! absolute norm blow-up). A Byzantine client is nastier: it ships
//! well-formed parameter vectors crafted to poison the aggregate. This
//! module makes that adversary first-class and bit-reproducible:
//!
//! * [`AttackPlan`] — a seeded, purely functional schedule. Coalition
//!   membership is a pure function of `(seed, client)` and every crafted
//!   vector is a pure function of `(seed, round, client)`, so attack runs
//!   replay identically at any thread count and need no checkpoint state
//!   (the same contract as `FaultPlan` / `ScenarioPlan`).
//! * Four upload models, each tuned to slip past the absolute quarantine
//!   gate and stress a different aggregator weakness:
//!   - [`AttackModel::SignFlip`] — the classic gradient-reversal attack:
//!     the honest update negated and scaled by λ. Same norm at λ = 1, so
//!     the absolute gate passes it; a plain mean is dragged backwards.
//!   - [`AttackModel::GaussianNoise`] — i.i.d. Gaussian noise re-scaled to
//!     the honest upload's L2 norm, so both the absolute gate and a
//!     relative-norm band pass it. Defeats nothing by itself but erases
//!     the client's signal and inflates variance.
//!   - [`AttackModel::Collude`] — every coalition member uploads the
//!     *identical* crafted vector (a seeded random direction at a fixed
//!     norm). Against similarity-weighted aggregation (PFRL-DM attention)
//!     the replicas reinforce each other and capture attention mass.
//!   - [`AttackModel::StealthScale`] — slow multiplicative drift,
//!     `(1 + rate)^t` after `t` attacked rounds: each individual upload
//!     stays far below the quarantine norm limit while the aggregate walks
//!     off over time.
//!
//! Injection happens at the same client→server boundary as fault
//! injection — [`crate::fault::FaultState::gate_upload`] — so the
//! adversary composes with dropouts, stragglers, corruption, staleness,
//! and churn. Local replicas keep training honestly; only the *upload* is
//! adversarial, which keeps reward curves rectangular and local streams
//! independent of the attack schedule.

use pfrl_stats::seeding::SeedStream;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// How an adversarial client crafts its upload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackModel {
    /// Upload `-λ · θ` instead of the honest `θ`.
    SignFlip {
        /// Scale of the negated update (λ = 1 preserves the honest norm).
        lambda: f32,
    },
    /// Upload i.i.d. Gaussian noise re-scaled to the honest upload's L2
    /// norm — passes both the absolute gate and a relative-norm band.
    GaussianNoise,
    /// The whole coalition uploads one identical seeded random direction
    /// scaled to `norm` (chosen near honest-vector norms to evade band
    /// screens while the replicas capture similarity/attention mass).
    Collude {
        /// L2 norm of the crafted vector.
        norm: f32,
    },
    /// Multiplicative drift: the honest upload scaled by
    /// `(1 + rate)^(t + 1)` after `t` attacked rounds — each round's norm
    /// stays below the quarantine limit while the walk compounds.
    StealthScale {
        /// Per-round growth rate (e.g. 0.05 = 5% per round).
        rate: f32,
    },
}

impl AttackModel {
    /// Short stable label for telemetry, reports, and manifests.
    pub fn name(&self) -> &'static str {
        match self {
            AttackModel::SignFlip { .. } => "sign_flip",
            AttackModel::GaussianNoise => "gaussian_noise",
            AttackModel::Collude { .. } => "collude",
            AttackModel::StealthScale { .. } => "stealth_scale",
        }
    }
}

/// A deterministic, seeded Byzantine attack schedule.
///
/// Pure function of `(seed, round, client)` throughout: coalition
/// membership derives from `(seed, client)`, crafted vectors from
/// `(seed, round, client)` (or `(seed, round)` for colluders, which is
/// what makes their replicas identical). Construction-time config, like
/// `FaultPlan`: never checkpointed — a restored runner replays the same
/// schedule by pure derivation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackPlan {
    /// Root seed of the attack schedule (independent of the training seed).
    pub seed: u64,
    /// Fraction of clients in the adversarial coalition. Membership is a
    /// per-client Bernoulli draw, so the realized coalition size is the
    /// binomial mean only in expectation.
    pub fraction: f64,
    /// The upload model every coalition member follows.
    pub model: AttackModel,
}

impl AttackPlan {
    /// The no-attack plan: every client is honest and no RNG is ever
    /// drawn, so runs are bit-identical to a runner without the layer.
    pub fn none() -> Self {
        Self { seed: 0, fraction: 0.0, model: AttackModel::SignFlip { lambda: 1.0 } }
    }

    /// An inactive plan carrying a seed, for builder-style composition.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::none() }
    }

    /// Builder: a sign-flip coalition of the given fraction and scale.
    pub fn with_sign_flip(mut self, fraction: f64, lambda: f32) -> Self {
        self.fraction = fraction;
        self.model = AttackModel::SignFlip { lambda };
        self
    }

    /// Builder: a norm-matched Gaussian-noise coalition.
    pub fn with_gaussian_noise(mut self, fraction: f64) -> Self {
        self.fraction = fraction;
        self.model = AttackModel::GaussianNoise;
        self
    }

    /// Builder: a colluding coalition uploading identical vectors of the
    /// given norm.
    pub fn with_collusion(mut self, fraction: f64, norm: f32) -> Self {
        self.fraction = fraction;
        self.model = AttackModel::Collude { norm };
        self
    }

    /// Builder: a stealth-scaling coalition drifting at `rate` per round.
    pub fn with_stealth_scale(mut self, fraction: f64, rate: f32) -> Self {
        self.fraction = fraction;
        self.model = AttackModel::StealthScale { rate };
        self
    }

    /// Whether any client attacks: an active coalition attacks every round.
    pub fn is_active(&self) -> bool {
        self.fraction > 0.0
    }

    /// Panics on fractions outside `[0, 1]` or degenerate model params.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.fraction),
            "attack fraction {} outside [0, 1]",
            self.fraction
        );
        match self.model {
            AttackModel::SignFlip { lambda } => {
                assert!(lambda.is_finite() && lambda > 0.0, "sign-flip lambda {lambda} invalid")
            }
            AttackModel::GaussianNoise => {}
            AttackModel::Collude { norm } => {
                assert!(norm.is_finite() && norm > 0.0, "collusion norm {norm} invalid")
            }
            AttackModel::StealthScale { rate } => {
                assert!(rate.is_finite() && rate > 0.0, "stealth-scale rate {rate} invalid")
            }
        }
    }

    /// Whether `client` belongs to the coalition. Pure in
    /// `(seed, client)`: membership is fixed for the whole run, which is
    /// what lets colluders and stealth-scalers act coherently across
    /// rounds without shared state.
    pub fn is_adversary(&self, client: usize) -> bool {
        if !self.is_active() {
            return false;
        }
        let seed = SeedStream::new(self.seed).child("attacker").index(client as u64).seed();
        let mut rng = SmallRng::seed_from_u64(seed);
        rng.gen_range(0.0..1.0) < self.fraction
    }

    /// Realized coalition size among the first `n` clients.
    pub fn coalition_size(&self, n: usize) -> usize {
        (0..n).filter(|&k| self.is_adversary(k)).count()
    }

    /// Replaces `streams` (the honest upload) with the crafted adversarial
    /// upload for `(round, client)`. The caller must have checked
    /// [`Self::is_adversary`] and [`Self::is_active`]; this method is pure
    /// and in-place, so pooled arena buffers are reused without fresh
    /// allocation at steady state.
    pub fn poison(&self, round: usize, client: usize, streams: &mut [Vec<f32>]) {
        match self.model {
            AttackModel::SignFlip { lambda } => {
                for s in streams.iter_mut() {
                    for v in s.iter_mut() {
                        *v *= -lambda;
                    }
                }
            }
            AttackModel::GaussianNoise => {
                for (si, s) in streams.iter_mut().enumerate() {
                    let target = l2_norm(s);
                    let seed = SeedStream::new(self.seed)
                        .child("noise")
                        .index(round as u64)
                        .index(client as u64)
                        .index(si as u64)
                        .seed();
                    let mut rng = SmallRng::seed_from_u64(seed);
                    for v in s.iter_mut() {
                        *v = standard_normal(&mut rng);
                    }
                    rescale(s, target);
                }
            }
            AttackModel::Collude { norm } => {
                // No client index in the derivation: every coalition
                // member crafts the *same* vector for this round.
                for (si, s) in streams.iter_mut().enumerate() {
                    let seed = SeedStream::new(self.seed)
                        .child("collude")
                        .index(round as u64)
                        .index(si as u64)
                        .seed();
                    let mut rng = SmallRng::seed_from_u64(seed);
                    for v in s.iter_mut() {
                        *v = standard_normal(&mut rng);
                    }
                    rescale(s, norm);
                }
            }
            AttackModel::StealthScale { rate } => {
                let scale = (1.0 + rate).powi(round as i32 + 1);
                for s in streams.iter_mut() {
                    for v in s.iter_mut() {
                        *v *= scale;
                    }
                }
            }
        }
    }
}

/// L2 norm of a flat vector (same accumulation order as the quarantine
/// gate's check, so crafted norms and gate measurements agree bitwise).
fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Scales `v` in place to L2 norm `target` (no-op on zero vectors).
fn rescale(v: &mut [f32], target: f32) {
    let norm = l2_norm(v);
    if norm > 0.0 && target.is_finite() {
        let k = target / norm;
        for x in v.iter_mut() {
            *x *= k;
        }
    }
}

/// One standard-normal draw via Box–Muller (the offline `rand` shim has no
/// normal distribution, and hand-rolling keeps the byte stream pinned).
fn standard_normal(rng: &mut SmallRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inactive_and_has_no_adversaries() {
        let p = AttackPlan::none();
        assert!(!p.is_active());
        assert_eq!(p.coalition_size(64), 0);
    }

    #[test]
    fn membership_is_deterministic_and_seed_sensitive() {
        let a = AttackPlan::new(9).with_sign_flip(0.3, 1.0);
        let b = AttackPlan::new(9).with_sign_flip(0.3, 1.0);
        let c = AttackPlan::new(10).with_sign_flip(0.3, 1.0);
        let members = |p: &AttackPlan| (0..64).map(|k| p.is_adversary(k)).collect::<Vec<_>>();
        assert_eq!(members(&a), members(&b));
        assert_ne!(members(&a), members(&c));
    }

    #[test]
    fn coalition_size_roughly_matches_fraction() {
        let p = AttackPlan::new(3).with_sign_flip(0.25, 1.0);
        let frac = p.coalition_size(4000) as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.03, "coalition fraction {frac}");
    }

    #[test]
    fn sign_flip_negates_and_scales() {
        let p = AttackPlan::new(1).with_sign_flip(1.0, 2.0);
        let mut up = vec![vec![1.0f32, -3.0], vec![0.5]];
        p.poison(0, 0, &mut up);
        assert_eq!(up, vec![vec![-2.0f32, 6.0], vec![-1.0]]);
    }

    #[test]
    fn gaussian_noise_is_norm_matched_and_finite() {
        let p = AttackPlan::new(1).with_gaussian_noise(1.0);
        let honest = vec![vec![3.0f32, 4.0, 0.0, 0.0]];
        let mut up = honest.clone();
        p.poison(2, 5, &mut up);
        assert_ne!(up, honest);
        assert!(up[0].iter().all(|v| v.is_finite()));
        let norm = up[0].iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 5.0).abs() < 1e-3, "norm {norm} not matched to honest 5.0");
    }

    #[test]
    fn colluders_upload_identical_vectors() {
        let p = AttackPlan::new(4).with_collusion(1.0, 10.0);
        let mut a = vec![vec![1.0f32; 32]];
        let mut b = vec![vec![-7.5f32; 32]];
        p.poison(3, 0, &mut a);
        p.poison(3, 9, &mut b);
        assert_eq!(a, b, "coalition members must replicate the same vector");
        let norm = a[0].iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 10.0).abs() < 1e-3);
        // A different round crafts a different vector.
        let mut c = vec![vec![1.0f32; 32]];
        p.poison(4, 0, &mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn stealth_scale_compounds_but_stays_below_quarantine_limit() {
        let p = AttackPlan::new(2).with_stealth_scale(1.0, 0.05);
        let mut prev_norm = 0.0f32;
        for round in 0..100 {
            let mut up = vec![vec![3.0f32, 4.0]];
            p.poison(round, 0, &mut up);
            let norm = up[0].iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!(norm > prev_norm, "drift must compound");
            assert!(norm < 1e4, "round {round} norm {norm} tripped the absolute gate");
            prev_norm = norm;
        }
    }

    #[test]
    fn poison_is_deterministic() {
        let p = AttackPlan::new(8).with_gaussian_noise(1.0);
        let mut a = vec![vec![1.0f32; 16]];
        let mut b = vec![vec![1.0f32; 16]];
        p.poison(7, 3, &mut a);
        p.poison(7, 3, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_fraction_rejected() {
        AttackPlan::new(0).with_sign_flip(1.5, 1.0).validate();
    }
}
