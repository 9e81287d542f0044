//! Property-based tests for the matrix kernels.

use pfrl_tensor::{ops, Matrix};
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn matmul_pair(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-5.0f32..5.0, m * k)
                .prop_map(move |d| Matrix::from_vec(m, k, d)),
            proptest::collection::vec(-5.0f32..5.0, k * n)
                .prop_map(move |d| Matrix::from_vec(k, n, d)),
        )
    })
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #[test]
    fn transpose_involution(m in small_matrix(12)) {
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn matmul_matches_naive_definition((a, b) in matmul_pair(8)) {
        let c = ops::matmul(&a, &b);
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let expect: f32 = (0..a.cols()).map(|p| a[(i, p)] * b[(p, j)]).sum();
                prop_assert!((c[(i, j)] - expect).abs() < 1e-3,
                    "({},{}) = {} expected {}", i, j, c[(i, j)], expect);
            }
        }
    }

    #[test]
    fn transpose_kernels_consistent((a, b) in matmul_pair(8)) {
        // a: m×k, b: k×n. a·b == matmul_transpose_b(a, bᵀ)
        let direct = ops::matmul(&a, &b);
        let via_tb = ops::matmul_transpose_b(&a, &b.transposed());
        prop_assert!(approx_eq(&direct, &via_tb, 1e-3));
    }

    #[test]
    fn softmax_rows_are_probability_rows(mut m in small_matrix(10)) {
        ops::softmax_rows(&mut m);
        for r in 0..m.rows() {
            let row = m.row(r);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {} sums to {}", r, sum);
        }
    }

    #[test]
    fn log_softmax_exp_is_softmax(v in proptest::collection::vec(-20.0f32..20.0, 1..16)) {
        let ls = ops::log_softmax(&v);
        let mut sm = v.clone();
        ops::softmax_inplace(&mut sm);
        for (l, s) in ls.iter().zip(&sm) {
            prop_assert!((l.exp() - s).abs() < 1e-4);
        }
    }

    #[test]
    fn clip_l2_never_increases_norm(
        mut v in proptest::collection::vec(-100.0f32..100.0, 1..32),
        cap in 0.01f32..10.0,
    ) {
        let before: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        ops::clip_l2_norm(&mut v, cap);
        let after: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(after <= cap * 1.001 || after <= before * 1.001);
    }

    #[test]
    fn cosine_similarity_in_unit_interval(
        a in proptest::collection::vec(-10.0f32..10.0, 4),
        b in proptest::collection::vec(-10.0f32..10.0, 4),
    ) {
        let c = ops::cosine_similarity(&a, &b);
        prop_assert!((-1.0001..=1.0001).contains(&c), "cosine {}", c);
    }

    #[test]
    fn argmax_returns_maximal_element(v in proptest::collection::vec(-1e6f32..1e6, 1..64)) {
        let i = ops::argmax(&v);
        prop_assert!(v.iter().all(|&x| x <= v[i]));
    }
}

// --- `_into` kernel equivalence -------------------------------------------
//
// The allocating kernels are thin wrappers over the `_into` forms, but these
// tests deliberately exercise the buffer-reuse path: every output buffer is
// pre-seeded with a *wrong-shaped, garbage-filled* matrix before the call,
// which is exactly the steady-state workspace situation in the NN stack.
// Equality is `==` on the backing slices — bit-for-bit, not approximate.

fn garbage(rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::filled(rows, cols, f32::NAN);
    if rows * cols > 0 {
        m[(0, 0)] = 1e30;
    }
    m
}

proptest! {
    #[test]
    fn matmul_into_bitwise_equals_matmul((a, b) in matmul_pair(8)) {
        let fresh = ops::matmul(&a, &b);
        let mut out = garbage(3, 5);
        ops::matmul_into(&a, &b, &mut out);
        prop_assert_eq!(out.shape(), fresh.shape());
        prop_assert_eq!(out.as_slice(), fresh.as_slice());
    }

    #[test]
    fn matmul_transpose_b_into_bitwise_equals((a, b) in matmul_pair(8)) {
        // a: m×k, b: k×n → op over (a, bᵀ: n×k).
        let bt = b.transposed();
        let fresh = ops::matmul_transpose_b(&a, &bt);
        let mut out = garbage(2, 7);
        let mut scratch = garbage(4, 1);
        ops::matmul_transpose_b_into(&a, &bt, &mut out, &mut scratch);
        prop_assert_eq!(out.shape(), fresh.shape());
        prop_assert_eq!(out.as_slice(), fresh.as_slice());
    }

    #[test]
    fn matvec_into_bitwise_equals_matvec((a, b) in matmul_pair(8)) {
        let x = a.row(0);
        let fresh = ops::matvec(x, &b);
        let mut out = vec![f32::NAN; 3];
        ops::matvec_into(x, &b, &mut out);
        prop_assert_eq!(&out, &fresh);
        // And both match the 1-row matmul exactly.
        let row = Matrix::from_vec(1, x.len(), x.to_vec());
        let mm = ops::matmul(&row, &b);
        prop_assert_eq!(out.as_slice(), mm.as_slice());
    }

    #[test]
    fn log_softmax_into_bitwise_equals(v in proptest::collection::vec(-20.0f32..20.0, 1..16)) {
        let fresh = ops::log_softmax(&v);
        let mut out = vec![f32::NAN; 40];
        ops::log_softmax_into(&v, &mut out);
        prop_assert_eq!(&out, &fresh);
    }

    /// One buffer cycled through several random shapes always matches the
    /// allocating kernel — shrink and regrow included.
    #[test]
    fn into_buffers_survive_shape_cycling(
        pairs in proptest::collection::vec(matmul_pair(6), 2..5),
    ) {
        let mut out = Matrix::default();
        let mut scratch = Matrix::default();
        for (a, b) in &pairs {
            ops::matmul_into(a, b, &mut out);
            let fresh = ops::matmul(a, b);
            prop_assert_eq!(out.as_slice(), fresh.as_slice());
            let bt = b.transposed();
            ops::matmul_transpose_b_into(a, &bt, &mut out, &mut scratch);
            let fresh_tb = ops::matmul_transpose_b(a, &bt);
            prop_assert_eq!(out.as_slice(), fresh_tb.as_slice());
        }
    }
}

// --- SIMD tier equivalence ------------------------------------------------
//
// Tolerance contract: **zero ULP**. The AVX2 tier vectorizes across output
// columns only (never across the inner contraction dimension), performs the
// same mul-then-add per element as the scalar loop (no FMA — a fused
// multiply-add rounds once where mul+add rounds twice, which is observably
// different at the last bit), and shares one polynomial `exp`/`tanh` with
// the scalar tier. Lane-order-sensitive reductions (the softmax sum) stay
// sequential scalar in both tiers; only the order-insensitive `max` is
// tree-reduced. So the dispatched kernels must equal `ops::reference` bit
// for bit — equality below is on `f32::to_bits`, no epsilon anywhere.
//
// The generators deliberately cover the hazard cases:
//   * lengths that are not multiples of the 8-lane vector width, and column
//     counts crossing the 64-column tile boundary (masked-tail paths);
//   * exact zeros in the input vector (the reference kernel's zero-skip
//     branch — skippable because `acc + 0.0·w` is bit-identical to `acc`
//     for every accumulator this kernel can produce), signed and varying
//     per batch row, including behind non-finite weights where `0·w` would
//     be NaN (the batched narrow-output kernel masks instead of branching);
//   * exact `-1.0` inputs (Eq. 1's padding, most of the nonzero entries
//     of an encoded state) and exact `+1.0` beside them;
//   * `-inf` logits, as produced by action masking, including whole-slice
//     `-inf` (the uniform-fallback row of softmax);
//   * dirty output buffers (NaN-filled, or stale from a previous larger
//     call) — the steady-state buffer-reuse situation in the NN stack.
//
// On a host without AVX2 (or with `PFRL_TENSOR_SIMD=0`) the dispatched
// entry points *are* the reference implementations and these properties
// hold trivially; on an AVX2 host they pin the vector tier to the scalar
// ground truth.

/// Logits with masked (`-inf`) entries mixed in, as `policy::apply_mask`
/// produces them.
fn maskedish(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    (1..=max_len).prop_flat_map(|n| {
        (proptest::collection::vec(-20.0f32..20.0, n), proptest::collection::vec(0u8..5, n))
            .prop_map(|(vals, picks)| {
                vals.into_iter()
                    .zip(picks)
                    .map(|(v, p)| if p == 0 { f32::NEG_INFINITY } else { v })
                    .collect()
            })
    })
}

/// Ragged `(x, w, bias)` triples: inner and outer dims sweep across the
/// 8-lane and 64-column boundaries (1..=70 covers 7, 8, 9, 63, 64, 65 …).
fn matvec_triple() -> impl Strategy<Value = (Vec<f32>, Matrix, Vec<f32>)> {
    (1usize..=70, 1usize..=70).prop_flat_map(|(k, n)| {
        (
            encodedish(k),
            proptest::collection::vec(-5.0f32..5.0, k * n)
                .prop_map(move |d| Matrix::from_vec(k, n, d)),
            proptest::collection::vec(-2.0f32..2.0, n),
        )
    })
}

/// Values with fat atoms at `+0.0` and `-0.0` (both take the zero-skip),
/// and at `-1.0` and `+1.0`: the values of an Eq. 1-encoded state, whose
/// padding is `-1.0`.
fn encodedish(n: usize) -> impl Strategy<Value = Vec<f32>> {
    (proptest::collection::vec(-8.0f32..8.0, n), proptest::collection::vec(0u8..8, n)).prop_map(
        |(vals, picks)| {
            vals.into_iter()
                .zip(picks)
                .map(|(v, p)| match p {
                    0 => 0.0,
                    1 => -0.0,
                    2 => -1.0,
                    3 => 1.0,
                    _ => v,
                })
                .collect()
        },
    )
}

/// Ragged batched `(a, w, bias)` triples. Up to 11 rows covers whole
/// 4-row groups of the narrow-output kernel plus every remainder; each row
/// draws its own zero pattern; half the draws take a narrow (`n < 8`)
/// output, the shape of the actor and critic heads.
fn matmul_triple(
    rows: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = (Matrix, Matrix, Vec<f32>)> {
    (rows, 1usize..=70, 1usize..8, 1usize..=70, 0u8..2).prop_flat_map(
        |(m, k, narrow, wide, pick)| {
            let n = if pick == 0 { narrow } else { wide };
            (
                encodedish(m * k).prop_map(move |d| Matrix::from_vec(m, k, d)),
                proptest::collection::vec(-5.0f32..5.0, k * n)
                    .prop_map(move |d| Matrix::from_vec(k, n, d)),
                proptest::collection::vec(-2.0f32..2.0, n),
            )
        },
    )
}

/// The NaN x86 arithmetic produces (`inf - inf`, `0 · inf`). Poisoning
/// weights with this NaN means every NaN in play carries the same bits, so
/// a bitwise comparison never hinges on which NaN operand an add returns.
const X86_DEFAULT_NAN: f32 = f32::from_bits(0xffc0_0000);

/// The batched kernel must equal one matvec per row — the property the
/// sharded serving wave leans on: collapsing many same-snapshot decisions
/// into one GEMM changes nothing, bitwise.
fn assert_rows_match_matvec(
    a: &Matrix,
    w: &Matrix,
    bias: &[f32],
    got: &Matrix,
) -> Result<(), String> {
    let mut row_want = vec![0.0f32; w.cols()];
    for i in 0..a.rows() {
        ops::reference::matvec_bias_into(a.row(i), w, Some(bias), &mut row_want);
        prop_assert_eq!(bits(got.row(i)), bits(&row_want), "row {}", i);
    }
    Ok(())
}

/// A ragged ascending live-row list over `0..k`: each row is kept unless
/// its pick is 0, so lists run from empty to full.
fn live_rows(picks: &[u8], k: usize) -> Vec<usize> {
    (0..k).filter(|&p| picks[p] != 0).collect()
}

/// `x` and `w` with every input row outside `rows` set to NaN (`x[p]` and
/// all of `w[p]`): a row-list kernel that reads a left-out row leaks NaN.
fn poison_outside(rows: &[usize], x: &[f32], w: &Matrix) -> (Vec<f32>, Matrix) {
    let (mut x, mut w) = (x.to_vec(), w.clone());
    for p in (0..x.len()).filter(|p| rows.binary_search(p).is_err()) {
        x[p] = X86_DEFAULT_NAN;
        w.row_mut(p).fill(X86_DEFAULT_NAN);
    }
    (x, w)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The weight-gradient kernel `dW = xᵀ · dy` as it was before it moved onto
/// the GEMM: a scalar `p-i-j` loop over the untransposed `x`, skipping
/// exact-zero `x[p][i]`.
fn dw_pij_oracle(x: &Matrix, dy: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.cols(), dy.cols());
    for p in 0..x.rows() {
        for (i, &xv) in x.row(p).iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            for (o, &g) in out.row_mut(i).iter_mut().zip(dy.row(p)) {
                *o += xv * g;
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn simd_matvec_bias_is_bitwise_reference(
        (x, w, bias) in matvec_triple(),
        picks in proptest::collection::vec(0u8..3, 70),
    ) {
        let n = w.cols();
        let mut want = vec![0.0f32; n];
        ops::reference::matvec_bias_into(&x, &w, Some(&bias), &mut want);
        // Dirty, oversized buffer: the dispatched kernel must fully
        // overwrite its live region regardless of prior contents.
        let mut got = vec![f32::NAN; n + 13];
        ops::matvec_bias_into(&x, &w, &bias, &mut got);
        prop_assert_eq!(got.len(), n);
        prop_assert_eq!(bits(&got), bits(&want));

        // And the no-bias form against the no-bias reference.
        let mut want_nb = vec![0.0f32; n];
        ops::reference::matvec_bias_into(&x, &w, None, &mut want_nb);
        let mut got_nb = vec![f32::NAN; 1];
        ops::matvec_into(&x, &w, &mut got_nb);
        prop_assert_eq!(bits(&got_nb), bits(&want_nb));

        // And over a live-row list: the full list is the plain product;
        // a ragged one never reads the rows it leaves out, so poisoning
        // them changes nothing.
        let all: Vec<usize> = (0..x.len()).collect();
        let mut got_all = vec![f32::NAN; 2];
        ops::matvec_bias_rows_into(&x, &all, &w, &bias, &mut got_all);
        prop_assert_eq!(bits(&got_all), bits(&want));
        let rows = live_rows(&picks, x.len());
        let (x, w) = poison_outside(&rows, &x, &w);
        let mut want_rows = vec![0.0f32; n];
        ops::reference::matvec_bias_rows_into(&x, &rows, &w, Some(&bias), &mut want_rows);
        prop_assert!(want_rows.iter().all(|v| !v.is_nan()));
        let mut got_rows = vec![f32::NAN; n + 5];
        ops::matvec_bias_rows_into(&x, &rows, &w, &bias, &mut got_rows);
        prop_assert_eq!(bits(&got_rows), bits(&want_rows));
    }

    #[test]
    fn simd_matmul_bias_is_bitwise_reference(
        (a, w, bias) in matmul_triple(1..=11),
        picks in proptest::collection::vec(0u8..3, 70),
    ) {
        let mut want = Matrix::zeros(a.rows(), w.cols());
        ops::reference::matmul_bias_into(&a, &w, Some(&bias), &mut want);
        let mut got = Matrix::filled(2, 3, f32::NAN);
        ops::matmul_bias_into(&a, &w, &bias, &mut got);
        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
        assert_rows_match_matvec(&a, &w, &bias, &got)?;

        // And the no-bias form against the no-bias reference.
        let mut want_nb = Matrix::zeros(a.rows(), w.cols());
        ops::reference::matmul_bias_into(&a, &w, None, &mut want_nb);
        let mut got_nb = Matrix::filled(1, 1, f32::NAN);
        ops::matmul_into(&a, &w, &mut got_nb);
        prop_assert_eq!(bits(got_nb.as_slice()), bits(want_nb.as_slice()));

        // And over a live-row list (see the matvec case), row by row equal
        // to the single-row kernel.
        let all: Vec<usize> = (0..a.cols()).collect();
        let mut got_all = Matrix::filled(3, 1, f32::NAN);
        ops::matmul_bias_rows_into(&a, &all, &w, &bias, &mut got_all);
        prop_assert_eq!(bits(got_all.as_slice()), bits(want.as_slice()));
        let rows = live_rows(&picks, a.cols());
        let mut poisoned = a.clone();
        let mut pw = w.clone();
        for r in 0..a.rows() {
            let (x, w) = poison_outside(&rows, a.row(r), &w);
            poisoned.row_mut(r).copy_from_slice(&x);
            pw = w;
        }
        let mut want_rows = Matrix::zeros(a.rows(), w.cols());
        ops::reference::matmul_bias_rows_into(&poisoned, &rows, &pw, Some(&bias), &mut want_rows);
        prop_assert!(want_rows.as_slice().iter().all(|v| !v.is_nan()));
        let mut got_rows = Matrix::filled(2, 9, f32::NAN);
        ops::matmul_bias_rows_into(&poisoned, &rows, &pw, &bias, &mut got_rows);
        prop_assert_eq!(bits(got_rows.as_slice()), bits(want_rows.as_slice()));
        let mut row_out = vec![f32::NAN; 3];
        for r in 0..a.rows() {
            ops::matvec_bias_rows_into(poisoned.row(r), &rows, &pw, &bias, &mut row_out);
            prop_assert_eq!(bits(got_rows.row(r)), bits(&row_out), "row {}", r);
        }
    }

    #[test]
    fn simd_matmul_bias_skips_nonfinite_weights_behind_zero_inputs(
        (mut a, mut w, bias) in matmul_triple(2..=11),
        poison in proptest::collection::vec(0u8..2, 70),
    ) {
        // Poison whole weight rows `p` with ±inf and NaN. Batch rows
        // 0, 3, 6, … read an exact (signed) zero at every poisoned `p`, so
        // the reference skips those terms and keeps them finite; every
        // other row reads a non-zero input there and goes non-finite. A
        // kernel that multiplies instead of skipping leaks NaN (0 · inf)
        // into the clean rows, including the ones that share a 4-row group
        // with poisoned rows.
        let (k, n) = (w.rows(), w.cols());
        for p in (0..k).filter(|&p| poison[p] == 1) {
            for j in 0..n {
                w[(p, j)] = [f32::INFINITY, f32::NEG_INFINITY, X86_DEFAULT_NAN][(p + j) % 3];
            }
            for r in 0..a.rows() {
                a[(r, p)] = if r % 3 == 0 {
                    if p % 2 == 0 { 0.0 } else { -0.0 }
                } else if a[(r, p)] == 0.0 {
                    1.5
                } else {
                    a[(r, p)]
                };
            }
        }
        let mut want = Matrix::zeros(a.rows(), n);
        ops::reference::matmul_bias_into(&a, &w, Some(&bias), &mut want);
        prop_assert!(want.row(0).iter().all(|v| v.is_finite()));
        let mut got = Matrix::filled(1, 1, f32::NAN);
        ops::matmul_bias_into(&a, &w, &bias, &mut got);
        prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
        assert_rows_match_matvec(&a, &w, &bias, &got)?;
    }

    #[test]
    fn weight_gradient_gemm_is_bitwise_pij_oracle(
        (xt, mut dy, _) in matmul_triple(1..=70),
        poison in proptest::collection::vec(0u8..100, 70 * 70),
    ) {
        // `Linear::backward` computes `dW` as the dispatched GEMM over its
        // transposed input cache (`xt`: in × batch, signed zeros included);
        // it must equal the historical loop bit for bit, also where the
        // upstream gradient `dy` (batch × out) carries ±inf and NaN.
        let hazards = [f32::INFINITY, f32::NEG_INFINITY, X86_DEFAULT_NAN];
        for (v, &p) in dy.as_mut_slice().iter_mut().zip(&poison) {
            if let Some(&h) = hazards.get(p as usize) {
                *v = h;
            }
        }
        let x = xt.transposed();
        let want = dw_pij_oracle(&x, &dy);
        let mut got = Matrix::filled(3, 2, f32::NAN);
        ops::matmul_into(&x.transposed(), &dy, &mut got);
        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
    }

    #[test]
    fn simd_tanh_is_bitwise_reference(mut v in maskedish(70)) {
        // tanh is defined on the whole line; swap -inf for large-magnitude
        // finite values plus the saturation threshold neighborhood.
        for (i, x) in v.iter_mut().enumerate() {
            if !x.is_finite() {
                *x = if i % 2 == 0 { -9.1 } else { 87.4 };
            }
        }
        let mut want = v.clone();
        ops::reference::tanh_slice_inplace(&mut want);
        let mut got = v;
        ops::tanh_slice_inplace(&mut got);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn simd_softmax_is_bitwise_reference(v in maskedish(70)) {
        let mut want = v.clone();
        ops::reference::softmax_inplace(&mut want);
        let mut got = v;
        ops::softmax_inplace(&mut got);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn simd_log_softmax_is_bitwise_reference(v in maskedish(70)) {
        let mut want = vec![0.0f32; v.len()];
        ops::reference::log_softmax(&v, &mut want);
        let mut got = vec![f32::NAN; 3];
        ops::log_softmax_into(&v, &mut got);
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

#[test]
fn simd_softmax_all_masked_row_is_uniform_in_both_tiers() {
    for n in [1usize, 7, 8, 9, 11, 64, 65] {
        let mut got = vec![f32::NEG_INFINITY; n];
        ops::softmax_inplace(&mut got);
        let mut want = vec![f32::NEG_INFINITY; n];
        ops::reference::softmax_inplace(&mut want);
        assert_eq!(bits(&got), bits(&want), "n={n}");
        assert!((got.iter().sum::<f32>() - 1.0).abs() < 1e-5, "n={n}");
    }
}
