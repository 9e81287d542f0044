//! The Adam optimizer (Kingma & Ba, 2015), over one flat moment vector per
//! network so the same optimizer serves actor, critic, and public critic
//! networks.

use crate::params::validate_params;
use crate::{Linear, Mlp};

/// Optimizer moments captured mid-run, for checkpoint/resume of a training
/// stream (hyperparameters are reconstructed from config, not stored here).
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// First-moment estimates.
    pub m: Vec<f32>,
    /// Second-moment estimates.
    pub v: Vec<f32>,
    /// Steps taken.
    pub t: u64,
}

/// First-moment decay β₁ (PyTorch default).
const BETA1: f32 = 0.9;
/// Second-moment decay β₂ (PyTorch default).
const BETA2: f32 = 0.999;
/// Denominator guard ε (PyTorch default).
const EPS: f32 = 1e-8;

/// Adam state for a fixed-size parameter vector, with PyTorch-default betas
/// `(0.9, 0.999)` and `eps 1e-8`.
///
/// The paper trains the actor at learning rate `3e-4` and critics at `1e-4`
/// (Sec. 3.1); these are constructor arguments here.
///
/// The moments are indexed in the flat order of [`Mlp::flat_params`]
/// (layer by layer, `W` then `b`), so a checkpoint's [`AdamState`] does not
/// depend on how a step walks the parameters. The optimizer holds no
/// parameter or gradient buffers: [`Adam::step_mlp`] reads each layer's
/// `dw`/`db` and writes its `w`/`b` in place.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    /// Optional global-norm gradient clipping (disabled when `None`).
    pub max_grad_norm: Option<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

/// The per-step constants every element of one update shares.
#[derive(Clone, Copy)]
struct StepConsts {
    lr: f32,
    /// Global-norm clip factor, `None` when the step does not clip.
    scale: Option<f32>,
    /// Bias corrections `1 − β₁ᵗ`, `1 − β₂ᵗ`.
    b1t: f32,
    b2t: f32,
}

impl StepConsts {
    /// One Adam update of the parameter run `params` (gradients `grads`,
    /// moments `m`/`v`), element by element: the single definition both
    /// [`Adam::step`] and [`Adam::step_mlp`] run.
    #[inline]
    fn apply(self, params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]) {
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
            let g = match self.scale {
                Some(s) => g * s,
                None => g,
            };
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            let mhat = *m / self.b1t;
            let vhat = *v / self.b2t;
            *p -= self.lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

/// The `(W, dW)` and `(b, db)` runs of a layer, in flat order.
fn layer_runs(l: &mut Linear) -> [(&mut [f32], &[f32]); 2] {
    let Linear { w, b, dw, db, .. } = l;
    [(w.as_mut_slice(), dw.as_slice()), (&mut b[..], &db[..])]
}

impl Adam {
    /// Creates Adam at learning rate `lr`, clipping gradients to norm 5.
    pub fn new(param_count: usize, lr: f32) -> Self {
        Self {
            lr,
            max_grad_norm: Some(5.0),
            m: vec![0.0; param_count],
            v: vec![0.0; param_count],
            t: 0,
        }
    }

    /// Builder-style override of the gradient-norm clip (None disables).
    pub fn with_max_grad_norm(mut self, max: Option<f32>) -> Self {
        self.max_grad_norm = max;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Resets first/second-moment state (used when a client receives a brand
    /// new aggregated model and stale momentum would point the wrong way).
    pub fn reset_state(&mut self) {
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
        self.t = 0;
    }

    /// Captures the optimizer's moment state for checkpointing.
    pub fn snapshot_state(&self) -> AdamState {
        AdamState { m: self.m.clone(), v: self.v.clone(), t: self.t }
    }

    /// Restores moment state captured by [`Self::snapshot_state`].
    ///
    /// # Panics
    /// If the state's vector lengths disagree with this optimizer's.
    pub fn restore_state(&mut self, state: &AdamState) {
        assert_eq!(state.m.len(), self.m.len(), "Adam: restored m length mismatch");
        assert_eq!(state.v.len(), self.v.len(), "Adam: restored v length mismatch");
        self.m.copy_from_slice(&state.m);
        self.v.copy_from_slice(&state.v);
        self.t = state.t;
    }

    /// Advances the step count and fixes the step's constants from the
    /// gradient, given in flat order: its L2 norm is summed sequentially in
    /// that order, and clipping rescales every element by `max / norm`
    /// exactly when `norm > max` — the factor
    /// [`pfrl_tensor::ops::clip_l2_norm`] multiplies by.
    fn begin_step<'a>(&mut self, grads: impl Iterator<Item = &'a f32>) -> StepConsts {
        let scale = self.max_grad_norm.and_then(|max| {
            let norm = grads.fold(0.0f32, |acc, g| acc + g * g).sqrt();
            (norm > max && norm > 0.0).then(|| max / norm)
        });
        self.t += 1;
        StepConsts {
            lr: self.lr,
            scale,
            b1t: 1.0 - BETA1.powi(self.t as i32),
            b2t: 1.0 - BETA2.powi(self.t as i32),
        }
    }

    /// One Adam update of `params` given `grads`.
    ///
    /// # Panics
    /// If the vector lengths disagree with the optimizer's state.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "Adam: params length changed");
        assert_eq!(grads.len(), self.m.len(), "Adam: grads length mismatch");
        debug_assert!(
            validate_params(grads).is_ok(),
            "Adam: non-finite gradient — corruption upstream of the optimizer"
        );
        let k = self.begin_step(grads.iter());
        k.apply(params, grads, &mut self.m, &mut self.v);
        debug_assert!(
            validate_params(params).is_ok(),
            "Adam: non-finite parameter after step — corrupted update"
        );
    }

    /// One Adam step on an [`Mlp`]'s accumulated gradients, in place: each
    /// layer's `w`/`b` is updated from its `dw`/`db` with no flat copy of
    /// either. Bit for bit the same as [`Adam::step`] over
    /// [`Mlp::flat_params`] and [`Mlp::flat_grads`]: the clip norm is summed
    /// in the same flat order and every element runs the same update. The
    /// network's folded input bias is recomputed from the new parameters
    /// ([`Mlp::fold_inputs`]).
    ///
    /// # Panics
    /// If the network's parameter count disagrees with the optimizer's.
    pub fn step_mlp(&mut self, net: &mut Mlp) {
        assert_eq!(net.param_count(), self.m.len(), "Adam: params length changed");
        let layers = net.layers_mut();
        debug_assert!(
            layers
                .iter()
                .all(|l| validate_params(l.dw.as_slice()).and(validate_params(&l.db)).is_ok()),
            "Adam: non-finite gradient — corruption upstream of the optimizer"
        );
        let k = self.begin_step(layers.iter().flat_map(|l| l.dw.as_slice().iter().chain(&l.db)));
        let mut off = 0;
        for l in layers.iter_mut() {
            for (params, grads) in layer_runs(l) {
                let run = off..off + params.len();
                off = run.end;
                k.apply(params, grads, &mut self.m[run.clone()], &mut self.v[run]);
            }
        }
        debug_assert!(
            layers
                .iter()
                .all(|l| validate_params(l.w.as_slice()).and(validate_params(&l.b)).is_ok()),
            "Adam: non-finite parameter after step — corrupted update"
        );
        net.refold();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_step_matches_hand_computation() {
        // With zero state, one step moves each param by exactly
        // -lr * g/(|g| + eps) ≈ -lr * sign(g) after bias correction.
        let mut opt = Adam::new(2, 0.1).with_max_grad_norm(None);
        let mut p = vec![1.0f32, -1.0];
        opt.step(&mut p, &[0.5, -0.25]);
        assert!((p[0] - 0.9).abs() < 1e-4, "{}", p[0]);
        assert!((p[1] + 0.9).abs() < 1e-4, "{}", p[1]);
    }

    #[test]
    fn zero_gradient_is_fixed_point() {
        let mut opt = Adam::new(3, 0.1);
        let mut p = vec![1.0f32, 2.0, 3.0];
        let orig = p.clone();
        opt.step(&mut p, &[0.0, 0.0, 0.0]);
        assert_eq!(p, orig);
    }

    #[test]
    fn converges_on_quadratic() {
        // minimize f(x) = (x - 3)²
        let mut opt = Adam::new(1, 0.1).with_max_grad_norm(None);
        let mut p = vec![-5.0f32];
        for _ in 0..2000 {
            let g = 2.0 * (p[0] - 3.0);
            opt.step(&mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 1e-2, "converged to {}", p[0]);
    }

    #[test]
    fn grad_clipping_bounds_update() {
        let mut clipped = Adam::new(1, 1.0).with_max_grad_norm(Some(1.0));
        let mut unclipped = Adam::new(1, 1.0).with_max_grad_norm(None);
        let mut p1 = vec![0.0f32];
        let mut p2 = vec![0.0f32];
        clipped.step(&mut p1, &[1e6]);
        unclipped.step(&mut p2, &[1e6]);
        // Adam normalizes by sqrt(v) so single-step sizes coincide, but the
        // clipped moments stay bounded.
        assert!(clipped.m[0].abs() <= 0.11, "clipped m: {}", clipped.m[0]);
        assert!(unclipped.m[0].abs() > 1e4);
        let _ = (p1, p2);
    }

    #[test]
    fn reset_state_clears_momentum() {
        let mut opt = Adam::new(1, 0.1);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0]);
        assert!(opt.steps() == 1 && opt.m[0] != 0.0);
        opt.reset_state();
        assert_eq!(opt.steps(), 0);
        assert_eq!(opt.m[0], 0.0);
        assert_eq!(opt.v[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_lengths_panic() {
        let mut opt = Adam::new(2, 0.1);
        let mut p = vec![0.0f32, 0.0];
        opt.step(&mut p, &[1.0]);
    }
}
