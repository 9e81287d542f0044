//! Fully-connected layer with cached input and accumulated gradients.

use pfrl_tensor::{init, ops, Matrix};
use rand::Rng;

/// A dense layer `y = x · W + b` with `W: in×out`, `b: out`.
///
/// `forward_train` caches the input, stored transposed, so a subsequent
/// [`Linear::backward`] can compute `dW = xᵀ · dy` on the dispatched GEMM
/// ([`ops::matmul_into`], AVX2 where available, bit-identical to the scalar
/// reference), `db = Σ_rows dy`, and, when asked for, `dx = dy · Wᵀ`.
/// Gradients accumulate across calls until [`Linear::zero_grad`].
///
/// The `_into` forwards and the backward reuse caller-owned output buffers
/// plus two private scratch matrices, so a layer cycled through same-shaped
/// batches stops allocating after the first pass. The allocating forwards
/// are wrappers over them — both forms produce bitwise-identical results.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias vector, length `out_dim`.
    pub b: Vec<f32>,
    /// Accumulated weight gradient, same shape as `w`.
    pub dw: Matrix,
    /// Accumulated bias gradient, same length as `b`.
    pub db: Vec<f32>,
    /// `xᵀ` of the last `forward_train` input (`in_dim × batch`).
    cached_input: Option<Matrix>,
    /// Scratch for the per-call `xᵀ·dy` before accumulation into `dw`.
    dw_scratch: Matrix,
    /// Scratch holding `Wᵀ` for the `dx = dy · Wᵀ` kernel.
    wt_scratch: Matrix,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: init::xavier_uniform(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            dw: Matrix::zeros(in_dim, out_dim),
            db: vec![0.0; out_dim],
            cached_input: None,
            dw_scratch: Matrix::zeros(0, 0),
            wt_scratch: Matrix::zeros(0, 0),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Number of trainable scalars (`in·out + out`).
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass without caching (inference).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(x, &mut y);
        y
    }

    /// Fused forward pass into a reusable buffer: matmul and bias add in a
    /// single sweep over each output row (one pass over `out` instead of
    /// two). Per element the operation sequence is unchanged — all `x·W`
    /// terms accumulate in inner-index order, then the bias is added last —
    /// so results are bitwise identical to `matmul` + `add_row_bias`.
    /// Routed through [`ops::matmul_bias_into`], which dispatches to the
    /// register-blocked AVX2 GEMM when available (bit-identical).
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            x.cols(),
            self.in_dim(),
            "Linear::forward: input dim {} vs layer {}",
            x.cols(),
            self.in_dim()
        );
        ops::matmul_bias_into(x, &self.w, &self.b, out);
    }

    /// Single-row fused forward (`matvec` + bias) for per-decision
    /// inference. Bitwise identical to [`Linear::forward`] on a `1×k`
    /// matrix.
    pub fn forward_row_into(&self, x: &[f32], out: &mut Vec<f32>) {
        ops::matvec_bias_into(x, &self.w, &self.b, out);
    }

    /// Forward pass that caches `x` for the backward pass.
    pub fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        self.forward_train_into(x, &mut y);
        y
    }

    /// [`Linear::forward_train`] into a reusable buffer; the cached input
    /// is transposed into a retained allocation instead of freshly cloned.
    pub fn forward_train_into(&mut self, x: &Matrix, out: &mut Matrix) {
        ops::transpose_into(x, self.cached_input.get_or_insert_with(Matrix::default));
        self.forward_into(x, out);
    }

    /// Backward pass: accumulates `dw`/`db`, and writes `dx = dy · Wᵀ` into
    /// `dx` when one is given. The input layer of a network passes `None`:
    /// states are not learned, so nothing reads its input gradient. The
    /// per-call `xᵀ·dy` product (cached `xᵀ` times `dy` on the dispatched
    /// GEMM) lands in a scratch matrix and is then accumulated into `dw` —
    /// folding it directly into `dw` would change the addition order and
    /// thus the low bits.
    ///
    /// # Panics
    /// If called without a preceding [`Linear::forward_train`].
    pub fn backward(&mut self, dy: &Matrix, dx: Option<&mut Matrix>) {
        let Linear { w, dw, db, cached_input, dw_scratch, wt_scratch, .. } = self;
        let xt = cached_input.as_ref().expect("Linear::backward called without forward_train");
        assert_eq!(dy.rows(), xt.cols(), "backward batch size mismatch");
        assert_eq!(dy.cols(), w.cols(), "backward output dim mismatch");
        // dW += xᵀ · dy
        ops::matmul_into(xt, dy, dw_scratch);
        ops::add_assign(dw, dw_scratch);
        // db += column sums of dy
        for r in 0..dy.rows() {
            ops::axpy(1.0, dy.row(r), db);
        }
        // dx = dy · Wᵀ
        if let Some(dx) = dx {
            ops::matmul_transpose_b_into(dy, w, dx, wt_scratch);
        }
    }

    /// Clears accumulated gradients (keeps the cached input).
    pub fn zero_grad(&mut self) {
        self.dw.fill_zero();
        self.db.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Copies `W` then `b` into `out` (row-major), advancing the cursor.
    pub(crate) fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(&self.b);
    }

    /// Reads `W` then `b` from `src`, returning the rest of the slice.
    pub(crate) fn read_params<'a>(&mut self, src: &'a [f32]) -> &'a [f32] {
        let nw = self.w.len();
        let nb = self.b.len();
        assert!(src.len() >= nw + nb, "parameter slice too short");
        self.w.as_mut_slice().copy_from_slice(&src[..nw]);
        self.b.copy_from_slice(&src[nw..nw + nb]);
        &src[nw + nb..]
    }

    /// Copies `dW` then `db` into `out`.
    pub(crate) fn write_grads(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.dw.as_slice());
        out.extend_from_slice(&self.db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fixed_layer() -> Linear {
        let mut l = Linear::new(2, 3, &mut SmallRng::seed_from_u64(0));
        l.w = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        l.b = vec![0.1, 0.2, 0.3];
        l
    }

    #[test]
    fn forward_hand_example() {
        let l = fixed_layer();
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[5.1, 7.2, 9.3]);
    }

    #[test]
    fn backward_gradients_hand_example() {
        let mut l = fixed_layer();
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let _ = l.forward_train(&x);
        let dy = Matrix::from_rows(&[&[1.0, 0.0, -1.0]]);
        let mut dx = Matrix::zeros(0, 0);
        l.backward(&dy, Some(&mut dx));
        // dW = xᵀ · dy
        assert_eq!(l.dw, Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[2.0, 0.0, -2.0]]));
        assert_eq!(l.db, vec![1.0, 0.0, -1.0]);
        // dx = dy · Wᵀ = [1*1 + 0*2 + (-1)*3, 1*4 + 0*5 + (-1)*6]
        assert_eq!(dx.as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn transposed_cache_follows_the_latest_batch() {
        let mut l = fixed_layer();
        let _ = l.forward_train(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let _ = l.forward_train(&Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]));
        let dy = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[0.5, 2.0, 0.0]]);
        l.backward(&dy, None);
        // dW = xᵀ · dy over the 2-row batch only.
        assert_eq!(l.dw, Matrix::from_rows(&[&[2.0, 4.0, -1.0], &[-0.75, 1.0, 1.0]]));
        assert_eq!(l.db, vec![1.5, 2.0, -1.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = fixed_layer();
        let x = Matrix::from_rows(&[&[1.0, 0.0]]);
        let dy = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        let _ = l.forward_train(&x);
        l.backward(&dy, None);
        let _ = l.forward_train(&x);
        l.backward(&dy, None);
        assert_eq!(l.db, vec![2.0, 2.0, 2.0]);
        l.zero_grad();
        assert_eq!(l.db, vec![0.0, 0.0, 0.0]);
        assert!(l.dw.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "without forward_train")]
    fn backward_requires_forward_train() {
        let mut l = fixed_layer();
        let dy = Matrix::zeros(1, 3);
        l.backward(&dy, None);
    }

    #[test]
    fn param_roundtrip() {
        let mut a = fixed_layer();
        let b = Linear::new(2, 3, &mut SmallRng::seed_from_u64(99));
        let mut buf = Vec::new();
        b.write_params(&mut buf);
        let rest = a.read_params(&buf);
        assert!(rest.is_empty());
        assert_eq!(a.w, b.w);
        assert_eq!(a.b, b.b);
    }

    #[test]
    fn batch_forward_is_rowwise() {
        let l = fixed_layer();
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]);
        let y = l.forward(&x);
        assert_eq!(y.row(0), &[5.1, 7.2, 9.3]);
        assert_eq!(y.row(1), &[0.1, 0.2, 0.3]);
    }
}
