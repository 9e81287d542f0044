//! Categorical policy math: sampling, log-probabilities, entropy, and the
//! clipped-surrogate gradient (Eqs. 10–12) expressed directly in terms of
//! the policy logits.

use pfrl_tensor::{ops, Matrix};
use rand::Rng;

/// Reusable row buffers for the per-decision sampling path and the
/// surrogate-gradient inner loop. One scratch cycled through same-sized
/// calls stops allocating after the first.
#[derive(Debug, Clone, Default)]
pub struct PolicyScratch {
    row: Vec<f32>,
    lp: Vec<f32>,
    probs: Vec<f32>,
}

impl PolicyScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Inverse-CDF sample over `exp(lp)`; shared by both sampling entry points
/// so they consume the RNG identically.
fn sample_index(lp: &[f32], rng: &mut impl Rng) -> usize {
    let u: f32 = rng.gen_range(0.0..1.0);
    let mut cum = 0.0f32;
    let mut action = lp.len() - 1;
    for (i, l) in lp.iter().enumerate() {
        cum += l.exp();
        if u < cum {
            action = i;
            break;
        }
    }
    action
}

/// Samples an action index from `softmax(logits)` and returns
/// `(action, log_prob)`.
pub fn sample_action(logits: &[f32], rng: &mut impl Rng) -> (usize, f32) {
    let mut scratch = PolicyScratch::default();
    sample_action_scratch(logits, rng, &mut scratch)
}

/// [`sample_action`] through a reusable [`PolicyScratch`] (the agents'
/// per-decision hot path; bitwise identical, including RNG consumption).
pub fn sample_action_scratch(
    logits: &[f32],
    rng: &mut impl Rng,
    scratch: &mut PolicyScratch,
) -> (usize, f32) {
    ops::log_softmax_into(logits, &mut scratch.lp);
    let action = sample_index(&scratch.lp, rng);
    (action, scratch.lp[action])
}

/// Applies an action mask to logits in place: disallowed entries become
/// `-inf` so they carry zero probability mass.
#[inline]
pub fn apply_mask(logits: &mut [f32], mask: &[bool]) {
    assert_eq!(logits.len(), mask.len(), "mask length mismatch");
    assert!(mask.iter().any(|&m| m), "mask allows no actions");
    for (l, &m) in logits.iter_mut().zip(mask) {
        if !m {
            *l = f32::NEG_INFINITY;
        }
    }
}

/// Samples from the masked policy: disallowed actions have probability 0
/// and the returned log-prob is under the *masked* distribution.
pub fn sample_action_masked(logits: &[f32], mask: &[bool], rng: &mut impl Rng) -> (usize, f32) {
    let mut scratch = PolicyScratch::default();
    sample_action_masked_scratch(logits, mask, rng, &mut scratch)
}

/// [`sample_action_masked`] through a reusable [`PolicyScratch`].
pub fn sample_action_masked_scratch(
    logits: &[f32],
    mask: &[bool],
    rng: &mut impl Rng,
    scratch: &mut PolicyScratch,
) -> (usize, f32) {
    let PolicyScratch { row, lp, .. } = scratch;
    row.clear();
    row.extend_from_slice(logits);
    apply_mask(row, mask);
    ops::log_softmax_into(row, lp);
    let action = sample_index(lp, rng);
    (action, lp[action])
}

/// Greedy action: argmax of the logits.
#[inline]
pub fn greedy_action(logits: &[f32]) -> usize {
    ops::argmax(logits)
}

/// Log-probability of `action` under `softmax(logits)`.
pub fn log_prob(logits: &[f32], action: usize) -> f32 {
    ops::log_softmax(logits)[action]
}

/// Shannon entropy of `softmax(logits)` in nats.
pub fn entropy(logits: &[f32]) -> f32 {
    let lp = ops::log_softmax(logits);
    -lp.iter().map(|l| l.exp() * l).sum::<f32>()
}

/// Diagnostics emitted by [`clipped_surrogate_grad`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoLossStats {
    /// Mean clipped-surrogate objective value (to be maximized).
    pub surrogate: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Fraction of samples where the clip was active.
    pub clip_fraction: f32,
}

/// Computes `dLoss/dlogits` for the PPO-clip policy loss
/// `L = −E[min(r·A, clip(r, 1±ε)·A)] − c_H·H` over a batch.
///
/// The gradient flows through the ratio `r = exp(logπ_new − logπ_old)` only
/// where the unclipped branch is active — i.e. where the clip would not bind
/// the objective (`A ≥ 0 ∧ r ≤ 1+ε` or `A < 0 ∧ r ≥ 1−ε`).
///
/// When `masks` is given (flattened `n × action_dim`, from a masked
/// rollout), the new policy is evaluated under the same masks the behavior
/// policy sampled with; masked-out logits receive zero gradient.
///
/// Returns the per-logit gradient (same shape as `logits`) and loss stats.
///
/// # Panics
/// On length mismatches.
pub fn clipped_surrogate_grad_masked(
    logits: &Matrix,
    actions: &[usize],
    old_log_probs: &[f32],
    advantages: &[f32],
    clip: f32,
    entropy_coef: f32,
    masks: Option<&[bool]>,
) -> (Matrix, PpoLossStats) {
    let mut grad = Matrix::default();
    let mut scratch = PolicyScratch::default();
    let stats = clipped_surrogate_grad_masked_into(
        logits,
        actions,
        old_log_probs,
        advantages,
        clip,
        entropy_coef,
        masks,
        &mut grad,
        &mut scratch,
    );
    (grad, stats)
}

/// [`clipped_surrogate_grad_masked`] writing the gradient into a reusable
/// matrix, with the per-row log-softmax buffers drawn from `scratch` — the
/// PPO minibatch loop's allocation-free form (bitwise identical).
#[allow(clippy::too_many_arguments)]
pub fn clipped_surrogate_grad_masked_into(
    logits: &Matrix,
    actions: &[usize],
    old_log_probs: &[f32],
    advantages: &[f32],
    clip: f32,
    entropy_coef: f32,
    masks: Option<&[bool]>,
    grad: &mut Matrix,
    scratch: &mut PolicyScratch,
) -> PpoLossStats {
    let n = logits.rows();
    let cols = logits.cols();
    assert_eq!(actions.len(), n, "actions length mismatch");
    assert_eq!(old_log_probs.len(), n, "old_log_probs length mismatch");
    assert_eq!(advantages.len(), n, "advantages length mismatch");
    if let Some(m) = masks {
        assert_eq!(m.len(), n * cols, "masks length mismatch");
    }
    let inv_n = 1.0 / n as f32;

    grad.resize(n, cols);
    grad.fill_zero();
    let mut surrogate = 0.0f32;
    let mut total_entropy = 0.0f32;
    let mut clipped_count = 0usize;
    let PolicyScratch { row, lp, probs } = scratch;

    for i in 0..n {
        row.clear();
        row.extend_from_slice(logits.row(i));
        if let Some(m) = masks {
            apply_mask(row, &m[i * cols..(i + 1) * cols]);
        }
        ops::log_softmax_into(row, lp);
        probs.clear();
        probs.extend(lp.iter().map(|l| l.exp()));
        let a = actions[i];
        let adv = advantages[i];
        let ratio = (lp[a] - old_log_probs[i]).exp();

        let unclipped = ratio * adv;
        let clipped = ratio.clamp(1.0 - clip, 1.0 + clip) * adv;
        surrogate += unclipped.min(clipped) * inv_n;

        // Gradient of the surrogate w.r.t. logits, where active.
        let active = if adv >= 0.0 { ratio <= 1.0 + clip } else { ratio >= 1.0 - clip };
        if active {
            // d(r·A)/dlogit_j = r·A·(δ_aj − p_j)
            let coef = ratio * adv * inv_n;
            let grow = grad.row_mut(i);
            for (j, p) in probs.iter().enumerate() {
                // Loss is negative surrogate.
                grow[j] -= coef * (if j == a { 1.0 } else { 0.0 } - p);
            }
        } else {
            clipped_count += 1;
        }

        // Entropy bonus: Loss −= c_H·H, dH/dlogit_j = −p_j(log p_j + H).
        // Masked-out actions have p = 0 and log p = −inf; their entropy
        // contribution and gradient are 0 (the x·log x → 0 limit).
        let h: f32 =
            -lp.iter().zip(probs.iter()).filter(|(_, &p)| p > 0.0).map(|(l, p)| p * l).sum::<f32>();
        total_entropy += h * inv_n;
        if entropy_coef > 0.0 {
            let grow = grad.row_mut(i);
            for (j, &p) in probs.iter().enumerate() {
                if p > 0.0 {
                    grow[j] += entropy_coef * inv_n * p * (lp[j] + h);
                }
            }
        }
    }

    PpoLossStats {
        surrogate,
        entropy: total_entropy,
        clip_fraction: clipped_count as f32 / n as f32,
    }
}

/// [`clipped_surrogate_grad_masked`] without masks (the paper's default).
pub fn clipped_surrogate_grad(
    logits: &Matrix,
    actions: &[usize],
    old_log_probs: &[f32],
    advantages: &[f32],
    clip: f32,
    entropy_coef: f32,
) -> (Matrix, PpoLossStats) {
    clipped_surrogate_grad_masked(
        logits,
        actions,
        old_log_probs,
        advantages,
        clip,
        entropy_coef,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sample_respects_distribution() {
        let logits = vec![0.0, 0.0, 5.0]; // heavily favors action 2
        let mut rng = SmallRng::seed_from_u64(0);
        let mut count2 = 0;
        for _ in 0..1000 {
            let (a, lp) = sample_action(&logits, &mut rng);
            assert!(lp <= 0.0);
            if a == 2 {
                count2 += 1;
            }
        }
        assert!(count2 > 950, "action 2 sampled {count2}/1000");
    }

    #[test]
    fn greedy_picks_argmax() {
        assert_eq!(greedy_action(&[0.1, 3.0, -2.0]), 1);
    }

    #[test]
    fn log_prob_consistent_with_softmax() {
        let logits = [1.0, 2.0, 3.0];
        let mut sm = logits.to_vec();
        ops::softmax_inplace(&mut sm);
        for (a, &p) in sm.iter().enumerate() {
            assert!((log_prob(&logits, a).exp() - p).abs() < 1e-5);
        }
    }

    #[test]
    fn entropy_bounds() {
        // Uniform logits: H = ln(k); deterministic: H → 0.
        let uniform = entropy(&[0.0, 0.0, 0.0, 0.0]);
        assert!((uniform - (4.0f32).ln()).abs() < 1e-5);
        let peaked = entropy(&[100.0, 0.0, 0.0, 0.0]);
        assert!(peaked < 1e-3);
    }

    /// Finite-difference check of the full PPO-clip + entropy gradient.
    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_rows(&[&[0.5, -0.3, 0.8], &[-1.0, 0.2, 0.1]]);
        let actions = [2usize, 0];
        // Old log-probs close to current so ratios are near 1 (unclipped).
        let old: Vec<f32> = (0..2).map(|i| log_prob(logits.row(i), actions[i]) - 0.05).collect();
        let advantages = [1.5f32, -0.7];
        let clip = 0.2;
        let coef = 0.01;

        let loss = |m: &Matrix| -> f32 {
            let mut total = 0.0;
            for i in 0..2 {
                let lp = ops::log_softmax(m.row(i));
                let ratio = (lp[actions[i]] - old[i]).exp();
                let uncl = ratio * advantages[i];
                let cl = ratio.clamp(1.0 - clip, 1.0 + clip) * advantages[i];
                total -= uncl.min(cl) / 2.0;
                let h: f32 = -lp.iter().map(|l| l.exp() * l).sum::<f32>();
                total -= coef * h / 2.0;
            }
            total
        };

        let (grad, stats) =
            clipped_surrogate_grad(&logits, &actions, &old, &advantages, clip, coef);
        assert!(stats.entropy > 0.0);

        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..3 {
                let mut p = logits.clone();
                p[(r, c)] += eps;
                let plus = loss(&p);
                p[(r, c)] -= 2.0 * eps;
                let minus = loss(&p);
                let fd = (plus - minus) / (2.0 * eps);
                assert!(
                    (grad[(r, c)] - fd).abs() < 1e-3,
                    "({r},{c}): analytic {} vs fd {}",
                    grad[(r, c)],
                    fd
                );
            }
        }
    }

    /// Where the clip binds, the surrogate gradient must vanish (only the
    /// entropy term remains).
    #[test]
    fn clipped_samples_have_no_surrogate_gradient() {
        let logits = Matrix::from_rows(&[&[3.0, 0.0]]);
        let actions = [0usize];
        // Old log-prob much lower than current → ratio >> 1+ε with A > 0.
        let old = [log_prob(logits.row(0), 0) - 2.0];
        let advantages = [1.0f32];
        let (grad, stats) = clipped_surrogate_grad(&logits, &actions, &old, &advantages, 0.2, 0.0);
        assert_eq!(stats.clip_fraction, 1.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn masked_sampling_never_picks_disallowed() {
        let logits = vec![5.0, 0.0, 0.0, 0.0];
        let mask = vec![false, true, true, false];
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let (a, lp) = sample_action_masked(&logits, &mask, &mut rng);
            assert!(mask[a], "sampled masked-out action {a}");
            assert!(lp.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "no actions")]
    fn all_false_mask_panics() {
        let mut l = vec![0.0, 0.0];
        apply_mask(&mut l, &[false, false]);
    }

    /// Masked gradient: finite, zero on masked-out logits, matches finite
    /// differences of the masked loss.
    #[test]
    fn masked_gradient_matches_finite_differences() {
        let logits = Matrix::from_rows(&[&[0.5, -0.3, 0.8, 0.2]]);
        let mask = [true, false, true, true];
        let actions = [2usize];
        let masked_lp = |m: &Matrix| {
            let mut row = m.row(0).to_vec();
            apply_mask(&mut row, &mask);
            ops::log_softmax(&row)
        };
        let old = [masked_lp(&logits)[2] - 0.02];
        let advantages = [1.0f32];
        let coef = 0.01;

        let (grad, stats) = clipped_surrogate_grad_masked(
            &logits,
            &actions,
            &old,
            &advantages,
            0.2,
            coef,
            Some(&mask),
        );
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
        assert_eq!(grad[(0, 1)], 0.0, "masked logit must get zero gradient");
        assert!(stats.entropy.is_finite() && stats.entropy > 0.0);

        let loss = |m: &Matrix| -> f32 {
            let lp = masked_lp(m);
            let ratio = (lp[2] - old[0]).exp();
            let uncl = ratio * advantages[0];
            let cl = ratio.clamp(0.8, 1.2) * advantages[0];
            let h: f32 = -lp.iter().filter(|l| l.is_finite()).map(|l| l.exp() * l).sum::<f32>();
            -uncl.min(cl) - coef * h
        };
        let eps = 1e-3;
        for c in [0usize, 2, 3] {
            let mut p = logits.clone();
            p[(0, c)] += eps;
            let plus = loss(&p);
            p[(0, c)] -= 2.0 * eps;
            let minus = loss(&p);
            let fd = (plus - minus) / (2.0 * eps);
            assert!(
                (grad[(0, c)] - fd).abs() < 1e-3,
                "col {c}: analytic {} vs fd {}",
                grad[(0, c)],
                fd
            );
        }
    }

    #[test]
    fn gradient_direction_increases_good_action_probability() {
        // Positive advantage on action 1, ratio ≈ 1: stepping along −grad
        // must raise π(a=1).
        let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
        let old = [log_prob(logits.row(0), 1)];
        let (grad, _) = clipped_surrogate_grad(&logits, &[1], &old, &[1.0], 0.2, 0.0);
        // −grad on logit 1 should be positive (increase), logit 0 negative.
        assert!(grad[(0, 1)] < 0.0);
        assert!(grad[(0, 0)] > 0.0);
    }
}
