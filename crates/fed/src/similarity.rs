//! Client-similarity weight generators compared in Sec. 3.3
//! (Figs. 11–13): multi-head attention vs KL divergence vs cosine
//! similarity.
//!
//! All three return a `K × K` row-stochastic matrix whose row `k` holds
//! client `k`'s aggregation weights. The paper's observation — reproduced
//! by `fig11_13_weight_heatmaps` — is that only the attention weights
//! concentrate on genuinely similar clients.

use pfrl_nn::{multi_head_attention_weights, Mlp, MultiHeadConfig};
use pfrl_tensor::{ops, Matrix};

/// Multi-head attention weights over flat client parameter vectors
/// (Eq. 18 applied to models-as-tokens; the PFRL-DM aggregator).
pub fn attention_weights(client_params: &[Vec<f32>], cfg: &MultiHeadConfig) -> Matrix {
    multi_head_attention_weights(client_params, cfg)
}

/// Mean Shannon entropy (nats) of the rows of a row-stochastic weight
/// matrix. 0 when every client attends to exactly one peer, `ln K` for
/// uniform attention — the telemetry probe for how personalized the
/// aggregation actually is.
pub fn mean_row_entropy(w: &Matrix) -> f64 {
    if w.rows() == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for r in 0..w.rows() {
        total += -w
            .row(r)
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| (p as f64) * (p as f64).ln())
            .sum::<f64>();
    }
    total / w.rows() as f64
}

/// KL-divergence-based weights: each critic is evaluated on a shared probe
/// state batch, its outputs are softmax-normalized into a distribution over
/// the probe states, and client `i` weights client `j` by
/// `softmax_j(−KL(p_i ‖ p_j))`.
///
/// A trained critic's input layer is folded for its own fleet
/// ([`Mlp::fold_inputs`]), whose void columns may hold real values in the
/// probe states, so each critic is evaluated on a copy with every input
/// column live.
///
/// # Panics
/// If `critics` is empty or a critic's input dim mismatches `probe_states`.
pub fn kl_weights(critics: &[Mlp], probe_states: &Matrix) -> Matrix {
    assert!(!critics.is_empty(), "kl_weights: no critics");
    let k = critics.len();
    let every_column: Vec<usize> = (0..probe_states.cols()).collect();
    let dists: Vec<Vec<f64>> = critics
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.fold_inputs(&every_column);
            let out = c.forward(probe_states);
            let mut vals: Vec<f32> = (0..out.rows()).map(|i| out[(i, 0)]).collect();
            ops::softmax_inplace(&mut vals);
            vals.into_iter().map(|v| v as f64).collect()
        })
        .collect();
    let mut w = Matrix::zeros(k, k);
    for i in 0..k {
        let row: Vec<f32> =
            (0..k).map(|j| -(pfrl_stats::kl_divergence(&dists[i], &dists[j]) as f32)).collect();
        let mut row = row;
        ops::softmax_inplace(&mut row);
        w.row_mut(i).copy_from_slice(&row);
    }
    w
}

/// Cosine-similarity weights over flat parameter vectors:
/// `softmax_j(cos(θ_i, θ_j))`.
///
/// # Panics
/// If `client_params` is empty or lengths disagree.
pub fn cosine_weights(client_params: &[Vec<f32>]) -> Matrix {
    assert!(!client_params.is_empty(), "cosine_weights: no clients");
    let k = client_params.len();
    let mut w = Matrix::zeros(k, k);
    for i in 0..k {
        let mut row: Vec<f32> =
            (0..k).map(|j| ops::cosine_similarity(&client_params[i], &client_params[j])).collect();
        ops::softmax_inplace(&mut row);
        w.row_mut(i).copy_from_slice(&row);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfrl_nn::Activation;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn row_stochastic(m: &Matrix) -> bool {
        (0..m.rows()).all(|r| {
            let s: f32 = m.row(r).iter().sum();
            (s - 1.0).abs() < 1e-4 && m.row(r).iter().all(|&v| v >= 0.0)
        })
    }

    fn mk_critic(seed: u64) -> Mlp {
        Mlp::new(&[4, 8, 1], Activation::Tanh, &mut SmallRng::seed_from_u64(seed))
    }

    fn probe() -> Matrix {
        Matrix::from_vec(16, 4, (0..64).map(|i| ((i as f32) * 0.37).sin()).collect())
    }

    #[test]
    fn all_generators_row_stochastic() {
        let critics: Vec<Mlp> = (0..4).map(mk_critic).collect();
        let params: Vec<Vec<f32>> = critics.iter().map(Mlp::flat_params).collect();
        assert!(row_stochastic(&attention_weights(&params, &Default::default())));
        assert!(row_stochastic(&kl_weights(&critics, &probe())));
        assert!(row_stochastic(&cosine_weights(&params)));
    }

    #[test]
    fn kl_identical_critics_get_equal_max_weight() {
        let c0 = mk_critic(1);
        let critics = vec![c0.clone(), c0.clone(), mk_critic(2)];
        let w = kl_weights(&critics, &probe());
        // Clients 0 and 1 are identical: their mutual weight equals their
        // self weight and is at least the weight on the different client.
        assert!((w[(0, 1)] - w[(0, 0)]).abs() < 1e-5);
        assert!(w[(0, 1)] >= w[(0, 2)] - 1e-6);
    }

    /// Critics folded for different fleets weigh the shared probe states
    /// exactly as their unfolded selves, though the probes hold real
    /// values in columns some of them fold away.
    #[test]
    fn kl_ignores_each_critics_fold() {
        let plain: Vec<Mlp> = (0..3).map(mk_critic).collect();
        let mut folded = plain.clone();
        folded[0].fold_inputs(&[0, 2, 3]);
        folded[1].fold_inputs(&[1]);
        assert_eq!(kl_weights(&folded, &probe()), kl_weights(&plain, &probe()));
    }

    #[test]
    fn cosine_self_weight_is_row_max() {
        let params: Vec<Vec<f32>> = (0..3).map(|s| mk_critic(s).flat_params()).collect();
        let w = cosine_weights(&params);
        for i in 0..3 {
            for j in 0..3 {
                assert!(w[(i, i)] >= w[(i, j)] - 1e-6);
            }
        }
    }

    /// The Sec. 3.3 contrast: cosine over full parameter vectors barely
    /// separates a true twin from strangers (softmax of values all ≈ 1),
    /// while the standardized multi-head attention does.
    #[test]
    fn attention_separates_twins_better_than_cosine() {
        let base = mk_critic(7).flat_params();
        let mut twin = base.clone();
        for v in twin.iter_mut() {
            *v += 0.002; // same-environment near-duplicate
        }
        let strangers: Vec<Vec<f32>> = (20..22).map(|s| mk_critic(s).flat_params()).collect();
        let all = vec![base, twin, strangers[0].clone(), strangers[1].clone()];

        let att = attention_weights(&all, &Default::default());
        let cos = cosine_weights(&all);
        let contrast = |w: &Matrix| w[(0, 1)] - w[(0, 2)].max(w[(0, 3)]);
        assert!(
            contrast(&att) > contrast(&cos),
            "attention contrast {} vs cosine contrast {}",
            contrast(&att),
            contrast(&cos)
        );
        assert!(contrast(&att) > 0.05, "attention should clearly favor the twin");
    }

    #[test]
    fn row_entropy_bounds() {
        // Uniform rows → ln K; one-hot rows → 0.
        let k = 4;
        let uniform = Matrix::from_vec(k, k, vec![1.0 / k as f32; k * k]);
        assert!((mean_row_entropy(&uniform) - (k as f64).ln()).abs() < 1e-6);
        let mut onehot = Matrix::zeros(k, k);
        for i in 0..k {
            onehot[(i, i)] = 1.0;
        }
        assert_eq!(mean_row_entropy(&onehot), 0.0);
        assert_eq!(mean_row_entropy(&Matrix::zeros(0, 0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "no critics")]
    fn kl_empty_rejected() {
        let _ = kl_weights(&[], &probe());
    }

    #[test]
    #[should_panic(expected = "no clients")]
    fn cosine_empty_rejected() {
        let _ = cosine_weights(&[]);
    }
}
