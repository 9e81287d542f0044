//! Property-based tests of the neural-network stack.

use pfrl_nn::params::{
    apply_mixing_matrix, average_params, coordinate_median_into, trimmed_mean_into,
    weighted_combination,
};
use pfrl_nn::{
    multi_head_attention_weights, multi_head_attention_weights_into, Activation, Adam,
    AttentionScratch, Mlp, MultiHeadConfig, TransposedBatch,
};
use pfrl_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mlp_strategy() -> impl Strategy<Value = Mlp> {
    (1usize..6, 1usize..8, 1usize..4, 0u64..1000).prop_map(|(i, h, o, seed)| {
        Mlp::new(&[i, h, o], Activation::Tanh, &mut SmallRng::seed_from_u64(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// flat_params → set_flat_params is the identity on behavior.
    #[test]
    fn param_roundtrip_identity(net in mlp_strategy(), x in proptest::collection::vec(-2.0f32..2.0, 1..6)) {
        prop_assume!(x.len() == net.in_dim());
        let before = net.forward_one(&x);
        let mut copy = net.clone();
        let p = net.flat_params();
        copy.set_flat_params(&p);
        let after = copy.forward_one(&x);
        prop_assert_eq!(before, after);
        prop_assert_eq!(p.len(), net.param_count());
    }

    /// tanh MLP outputs stay finite for bounded inputs.
    #[test]
    fn outputs_finite(net in mlp_strategy(), x in proptest::collection::vec(-10.0f32..10.0, 1..6)) {
        prop_assume!(x.len() == net.in_dim());
        let y = net.forward_one(&x);
        prop_assert!(y.iter().all(|v| v.is_finite()));
        prop_assert_eq!(y.len(), net.out_dim());
    }

    /// Average of identical parameter vectors is the vector itself;
    /// average is permutation-invariant.
    #[test]
    fn average_params_properties(
        v in proptest::collection::vec(-5.0f32..5.0, 1..40),
        n in 1usize..6,
    ) {
        let stack = vec![v.clone(); n];
        let avg = average_params(&stack);
        for (a, b) in avg.iter().zip(&v) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// A weighted combination with a one-hot weight vector selects that
    /// client's parameters exactly.
    #[test]
    fn one_hot_combination_selects(
        params in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 8), 2..5),
        pick_raw in 0usize..5,
    ) {
        let pick = pick_raw % params.len();
        let mut w = vec![0.0f32; params.len()];
        w[pick] = 1.0;
        let got = weighted_combination(&w, &params);
        prop_assert_eq!(got, params[pick].clone());
    }

    /// Identity mixing is a no-op for any parameter stack.
    #[test]
    fn identity_mixing_noop(
        params in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 6), 1..5),
    ) {
        let out = apply_mixing_matrix(&Matrix::identity(params.len()), &params);
        prop_assert_eq!(out, params);
    }

    /// Attention weights are always a row-stochastic matrix, for any
    /// client parameters (including degenerate all-equal ones).
    #[test]
    fn attention_always_row_stochastic(
        params in proptest::collection::vec(
            proptest::collection::vec(-3.0f32..3.0, 16), 1..6),
        heads in 1usize..5,
    ) {
        let cfg = MultiHeadConfig { heads, ..Default::default() };
        let w = multi_head_attention_weights(&params, &cfg);
        prop_assert_eq!(w.shape(), (params.len(), params.len()));
        for r in 0..w.rows() {
            let sum: f32 = w.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3, "row {} sums to {}", r, sum);
            prop_assert!(w.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    /// A top-k cutoff at least as large as the cohort is a no-op: the
    /// sparse path must reproduce the dense mixing weights bit for bit.
    #[test]
    fn top_k_geq_cohort_is_bitwise_dense(
        params in proptest::collection::vec(
            proptest::collection::vec(-3.0f32..3.0, 16), 1..6),
        extra in 0usize..4,
    ) {
        let dense = MultiHeadConfig::default();
        let sparse = MultiHeadConfig { top_k: Some(params.len() + extra), ..dense };
        let wd = multi_head_attention_weights(&params, &dense);
        let ws = multi_head_attention_weights(&params, &sparse);
        prop_assert_eq!(wd.as_slice(), ws.as_slice());
    }

    /// The workspace (`_into`) attention form is bit-identical to the
    /// allocating form, dense and top-k alike, including when the scratch
    /// is reused across differently-shaped calls.
    #[test]
    fn attention_into_bitwise_equals_allocating(
        params in proptest::collection::vec(
            proptest::collection::vec(-3.0f32..3.0, 16), 1..8),
        top_k in 1usize..10,
        use_top_k in 0usize..2,
    ) {
        let cfg = MultiHeadConfig {
            top_k: (use_top_k == 1).then_some(top_k),
            ..Default::default()
        };
        let fresh = multi_head_attention_weights(&params, &cfg);
        let mut ws = AttentionScratch::new();
        let mut out = Matrix::default();
        // Dirty the scratch with a different shape first: reuse must not
        // leak state between cohorts.
        multi_head_attention_weights_into(&[vec![1.0; 4], vec![2.0; 4]], &cfg, false, &mut ws, &mut out);
        multi_head_attention_weights_into(&params, &cfg, false, &mut ws, &mut out);
        prop_assert_eq!(out.as_slice(), fresh.as_slice());
    }

    /// Top-k masking keeps every row a distribution: entries in [0, 1],
    /// rows summing to 1, and — since each head keeps at most k scores —
    /// at most `heads · k` nonzeros per row after head averaging.
    #[test]
    fn top_k_rows_stay_stochastic(
        params in proptest::collection::vec(
            proptest::collection::vec(-3.0f32..3.0, 16), 2..8),
        top_k in 1usize..6,
    ) {
        let cfg = MultiHeadConfig { top_k: Some(top_k), ..Default::default() };
        let w = multi_head_attention_weights(&params, &cfg);
        for r in 0..w.rows() {
            let sum: f32 = w.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3, "row {} sums to {}", r, sum);
            prop_assert!(w.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
            let nonzero = w.row(r).iter().filter(|&&v| v > 0.0).count();
            prop_assert!(nonzero <= (cfg.heads * top_k).min(params.len()),
                "row {} has {} nonzeros with top_k={}", r, nonzero, top_k);
        }
    }

    /// The robust reductions are permutation-invariant: shuffling the
    /// cohort order changes neither the coordinate median nor the trimmed
    /// mean, bit for bit (both kernels sort each coordinate column).
    #[test]
    fn robust_reductions_permutation_invariant(
        params in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 6), 2..7),
        beta in 0.0f32..0.49,
        seed in 0u64..500,
    ) {
        let mut shuffled = params.clone();
        use rand::seq::SliceRandom;
        shuffled.shuffle(&mut SmallRng::seed_from_u64(seed));

        let mut scratch = Vec::new();
        let (mut m1, mut m2) = (Vec::new(), Vec::new());
        coordinate_median_into(&params, &mut scratch, &mut m1);
        coordinate_median_into(&shuffled, &mut scratch, &mut m2);
        prop_assert_eq!(&m1, &m2);

        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        trimmed_mean_into(&params, beta, &mut scratch, &mut t1);
        trimmed_mean_into(&shuffled, beta, &mut scratch, &mut t2);
        prop_assert_eq!(&t1, &t2);
    }

    /// A trimmed mean at β = 0 trims nothing: it equals the plain mean up
    /// to summation-order rounding (the kernel sums sorted columns).
    #[test]
    fn trimmed_mean_beta_zero_is_the_mean(
        params in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 6), 1..7),
    ) {
        let mean = average_params(&params);
        let mut scratch = Vec::new();
        let mut trimmed = Vec::new();
        trimmed_mean_into(&params, 0.0, &mut scratch, &mut trimmed);
        for (t, m) in trimmed.iter().zip(&mean) {
            prop_assert!((t - m).abs() < 1e-4, "trimmed {} vs mean {}", t, m);
        }
    }

    /// Breakdown under a minority of coordinate outliers: the coordinate
    /// median of an honest majority plus strictly fewer corrupted vectors
    /// stays within the honest value range, no matter how extreme the
    /// corruption — while the plain mean is dragged out of it.
    #[test]
    fn median_resists_minority_outliers(
        honest_value in -5.0f32..5.0,
        n_honest in 3usize..7,
        magnitude in 100.0f32..1e6,
    ) {
        let n_bad = n_honest - 1; // strict minority
        let mut params = vec![vec![honest_value; 4]; n_honest];
        params.extend(vec![vec![magnitude; 4]; n_bad]);
        let mut scratch = Vec::new();
        let mut median = Vec::new();
        coordinate_median_into(&params, &mut scratch, &mut median);
        for &v in &median {
            prop_assert!(
                v >= honest_value - 1e-3 && v <= magnitude,
                "median {} escaped [{}, {}]", v, honest_value, magnitude
            );
            // With a strict minority corrupted, the median index lands on
            // an honest entry (or the midpoint touching one).
            prop_assert!(
                (v - honest_value).abs() < (magnitude - honest_value) / 2.0 + 1e-3,
                "median {} dragged toward the outliers", v
            );
        }
        let mean = average_params(&params);
        prop_assert!(
            mean[0] > honest_value + (magnitude - honest_value) * 0.2,
            "the plain mean should have been dragged (got {})", mean[0]
        );
    }

    /// Adam with zero gradients never moves parameters, at any step count.
    #[test]
    fn adam_zero_grad_fixed_point(
        mut p in proptest::collection::vec(-5.0f32..5.0, 1..16),
        steps in 1usize..10,
    ) {
        let orig = p.clone();
        let mut opt = Adam::new(p.len(), 0.1);
        let zeros = vec![0.0f32; p.len()];
        for _ in 0..steps {
            opt.step(&mut p, &zeros);
        }
        prop_assert_eq!(p, orig);
    }
}

// --- `_into` path equivalence ---------------------------------------------
//
// The workspace-reusing forward/backward variants must be bit-for-bit equal
// to the allocating originals, including when the output buffer starts out
// dirty and wrong-shaped (the steady-state training situation).

fn batch_for(net: &Mlp, rows: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..rows * net.in_dim()).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Matrix::from_vec(rows, net.in_dim(), data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn linear_forward_into_bitwise_equals(net in mlp_strategy(), rows in 1usize..6, seed in 0u64..500) {
        let layer = &net.layers()[0];
        let mut rng = SmallRng::seed_from_u64(seed);
        let data: Vec<f32> =
            (0..rows * layer.in_dim()).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let x = Matrix::from_vec(rows, layer.in_dim(), data);
        let fresh = layer.forward(&x);
        let mut out = Matrix::filled(3, 7, f32::NAN);
        layer.forward_into(&x, &mut out);
        prop_assert_eq!(out.shape(), fresh.shape());
        prop_assert_eq!(out.as_slice(), fresh.as_slice());
        // Row form matches the matching matrix row exactly.
        let mut row_out = vec![f32::NAN; 9];
        layer.forward_row_into(x.row(0), &mut row_out);
        prop_assert_eq!(row_out.as_slice(), fresh.row(0));
    }

    #[test]
    fn mlp_forward_into_bitwise_equals(net in mlp_strategy(), rows in 1usize..6, seed in 0u64..500) {
        let mut net = net;
        let x = batch_for(&net, rows, seed);
        let fresh = net.forward(&x);
        let mut out = Matrix::filled(2, 5, f32::NAN);
        net.forward_into(&x, &mut out);
        prop_assert_eq!(out.shape(), fresh.shape());
        prop_assert_eq!(out.as_slice(), fresh.as_slice());
    }

    #[test]
    fn mlp_forward_one_into_bitwise_equals(net in mlp_strategy(), seed in 0u64..500) {
        let mut net = net;
        let x = batch_for(&net, 1, seed);
        let fresh = net.forward_one(x.row(0));
        let mut out = vec![f32::NAN; 11];
        net.forward_one_into(x.row(0), &mut out);
        prop_assert_eq!(&out, &fresh);
    }

    #[test]
    fn mlp_forward_train_into_bitwise_equals(net in mlp_strategy(), rows in 1usize..6, seed in 0u64..500) {
        let mut a = net.clone();
        let mut b = net;
        let x = batch_for(&a, rows, seed);
        let fresh = a.forward_train(&x);
        let mut out = Matrix::filled(1, 4, f32::NAN);
        b.forward_train_into(&x, &mut out);
        prop_assert_eq!(out.shape(), fresh.shape());
        prop_assert_eq!(out.as_slice(), fresh.as_slice());
    }
}

// --- in-place Adam step ----------------------------------------------------
//
// `Adam::step_mlp` steps each layer's `w`/`b` in place from its `dw`/`db`.
// It must reproduce, bit for bit, the flat path it replaced: copy out the
// flat gradients and parameters, clip a copy of the gradients to the global
// norm, run the per-element update, and write the parameters back.

/// The pre-in-place `Adam::step_mlp`, kept verbatim as the oracle.
struct FlatAdam {
    lr: f32,
    max_grad_norm: Option<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl FlatAdam {
    fn step_mlp(&mut self, net: &mut Mlp) {
        const BETA1: f32 = 0.9;
        const BETA2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let mut grads = net.flat_grads();
        let mut params = net.flat_params();
        if let Some(max) = self.max_grad_norm {
            pfrl_tensor::ops::clip_l2_norm(&mut grads, max);
        }
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g;
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * g * g;
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + EPS);
        }
        net.set_flat_params(&params);
    }
}

fn deep_mlp_strategy() -> impl Strategy<Value = Mlp> {
    (1usize..9, 1usize..10, 0usize..8, 1usize..4, 0u64..1000).prop_map(|(i, h1, h2, o, seed)| {
        let mut sizes = vec![i, h1];
        if h2 > 0 {
            sizes.push(h2);
        }
        sizes.push(o);
        Mlp::new(&sizes, Activation::Tanh, &mut SmallRng::seed_from_u64(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn in_place_step_mlp_is_bitwise_the_flat_path(
        net in deep_mlp_strategy(),
        rows in 1usize..6,
        seed in 0u64..500,
        steps in 1usize..7,
        clip in 0u8..4,
        gscale in 0.01f32..100.0,
    ) {
        // No clip, a clip that fires on every step, one that never does,
        // and one that fires or not depending on the draw.
        let max_grad_norm = [None, Some(1e-4), Some(1e9), Some(gscale / 8.0)][clip as usize];
        let x = batch_for(&net, rows, seed);
        let xt = TransposedBatch::of(&x);
        let (mut a, mut b) = (net.clone(), net);
        let mut opt = Adam::new(a.param_count(), 1e-2).with_max_grad_norm(max_grad_norm);
        let mut flat = FlatAdam {
            lr: 1e-2,
            max_grad_norm,
            m: vec![0.0; b.param_count()],
            v: vec![0.0; b.param_count()],
            t: 0,
        };
        let mut fired = 0;
        for _ in 0..steps {
            // L = gscale · Σ out² / 2, so dL/d_out = gscale · out.
            for (net, step) in [(&mut a, 0), (&mut b, 1)] {
                let mut d = net.forward_train(&x);
                d.as_mut_slice().iter_mut().for_each(|v| *v *= gscale);
                net.zero_grad();
                net.backward(&xt, &d);
                if step == 0 {
                    let norm = net.flat_grads().iter().map(|g| g * g).sum::<f32>().sqrt();
                    fired += usize::from(max_grad_norm.is_some_and(|m| norm > m));
                    opt.step_mlp(net);
                } else {
                    flat.step_mlp(net);
                }
            }
            let bits = |p: Vec<f32>| p.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
            prop_assert_eq!(bits(a.flat_params()), bits(b.flat_params()));
            let state = opt.snapshot_state();
            prop_assert_eq!(bits(state.m), bits(flat.m.clone()));
            prop_assert_eq!(bits(state.v), bits(flat.v.clone()));
        }
        if clip == 1 {
            prop_assert_eq!(fired, steps, "the tiny clip must fire on every step");
        }
        if clip == 2 {
            prop_assert_eq!(fired, 0, "the huge clip must never fire");
        }
    }
}

// --- weight gradient over distinct input rows ------------------------------
//
// `Linear::backward` runs the `dW = xᵀ · dy` GEMM once per distinct row of
// `xᵀ` and hands each feature its row's product. It must give the bits of
// the full product over every row, accumulated into `dw` as before.

/// Batches shaped like encoded states: each feature (column) is drawn from
/// a small palette — a copy of an earlier feature, all `-1` (a void slot),
/// all `±0`, or free values with `-1`/`0` atoms — so rows of `xᵀ` repeat.
fn state_like_batch() -> impl Strategy<Value = Matrix> {
    (1usize..9, 1usize..24).prop_flat_map(|(rows, cols)| {
        (
            proptest::collection::vec(0u8..7, cols),
            proptest::collection::vec(0usize..24, cols),
            proptest::collection::vec(-2.0f32..2.0, rows * cols),
            proptest::collection::vec(0u8..4, rows * cols),
        )
            .prop_map(move |(kinds, copy_of, vals, atoms)| {
                let mut x = Matrix::zeros(rows, cols);
                for c in 0..cols {
                    for r in 0..rows {
                        let free = match atoms[r * cols + c] {
                            0 => -1.0,
                            1 => 0.0,
                            _ => vals[r * cols + c],
                        };
                        x[(r, c)] = match kinds[c] {
                            0 | 1 if c > 0 => x[(r, copy_of[c] % c)],
                            2 => -1.0,
                            3 => 0.0,
                            4 => -0.0,
                            _ => free,
                        };
                    }
                }
                x
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn backward_over_distinct_rows_is_bitwise_the_full_gemm(
        x in state_like_batch(),
        out_dim in 1usize..12,
        seed in 0u64..500,
    ) {
        let (rows, in_dim) = x.shape();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut layer = pfrl_nn::Linear::new(in_dim, out_dim, &mut rng);
        let xt = TransposedBatch::of(&x);
        prop_assert!(xt.distinct_rows().rows() <= in_dim);
        let mut want = Matrix::zeros(in_dim, out_dim);
        // Two calls: the second accumulates onto the first's gradient.
        for _ in 0..2 {
            let dy = Matrix::from_vec(
                rows,
                out_dim,
                (0..rows * out_dim).map(|_| rng.gen_range(-3.0f32..3.0)).collect(),
            );
            layer.backward(&xt, &dy, None);
            let full = pfrl_tensor::ops::matmul(&x.transposed(), &dy);
            pfrl_tensor::ops::add_assign(&mut want, &full);
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&layer.dw), bits(&want));
    }
}
