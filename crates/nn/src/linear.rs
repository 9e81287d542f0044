//! Fully-connected layer with accumulated gradients.

use pfrl_tensor::{init, ops, Matrix};
use rand::Rng;

/// The transpose `xᵀ` (`in_dim × batch`) of a batch `x`, as the weight
/// gradient `dW = xᵀ · dy` reads it: the distinct rows of `xᵀ`, plus the
/// distinct row each input feature's row equals.
///
/// Row `i` of `dW` depends only on row `i` of `xᵀ` — the feature's values
/// across the batch — so features whose rows are bit-equal get bit-equal
/// `dW` rows, and one GEMM row per distinct row serves all of them.
/// Encoded states repeat rows heavily: all states of one client share
/// their void slots (Eq. 1's `-1`) and many zero slots, so a Table 2 batch
/// of first-fit states has 22–45 distinct rows out of 180.
///
/// [`TransposedBatch::set`] reuses its buffers, so a batch holder that is
/// refilled with same-shaped batches stops allocating after the first.
#[derive(Debug, Clone, Default)]
pub struct TransposedBatch {
    /// The distinct rows of `xᵀ`, in order of first appearance.
    distinct: Matrix,
    /// For each input feature, the index of its row in `distinct`.
    row_of: Vec<usize>,
    /// A hash of each distinct row's bits, to skip most comparisons.
    hashes: Vec<u64>,
}

impl TransposedBatch {
    /// The transpose of `x`.
    pub fn of(x: &Matrix) -> Self {
        let mut t = Self::default();
        t.set(x);
        t
    }

    /// Makes this the transpose of `x` (`batch × in_dim`). Rows are equal
    /// when their bits are, so `0.0` and `-0.0` rows stay apart.
    pub fn set(&mut self, x: &Matrix) {
        let (batch, in_dim) = x.shape();
        let src = x.as_slice();
        self.distinct.resize(in_dim, batch);
        self.row_of.clear();
        self.hashes.clear();
        for i in 0..in_dim {
            let next = self.hashes.len();
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for (j, v) in self.distinct.row_mut(next).iter_mut().enumerate() {
                *v = src[j * in_dim + i];
                hash = (hash ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3);
            }
            let row = self.distinct.row(next);
            let bits_eq = |u: usize| {
                self.distinct.row(u).iter().zip(row).all(|(a, b)| a.to_bits() == b.to_bits())
            };
            match (0..next).find(|&u| self.hashes[u] == hash && bits_eq(u)) {
                Some(u) => self.row_of.push(u),
                None => {
                    self.hashes.push(hash);
                    self.row_of.push(next);
                }
            }
        }
        self.distinct.resize(self.hashes.len(), batch);
    }

    /// Input dimension (rows of `xᵀ`).
    pub fn in_dim(&self) -> usize {
        self.row_of.len()
    }

    /// Batch size (columns of `xᵀ`).
    pub fn batch(&self) -> usize {
        self.distinct.cols()
    }

    /// The distinct rows of `xᵀ`, in order of first appearance.
    pub fn distinct_rows(&self) -> &Matrix {
        &self.distinct
    }

    /// For each input feature, its row in [`Self::distinct_rows`].
    pub fn row_of(&self) -> &[usize] {
        &self.row_of
    }
}

/// A dense layer `y = x · W + b` with `W: in×out`, `b: out`.
///
/// The layer keeps no copy of its input: [`Linear::backward`] takes the
/// batch it was fed already transposed (a [`TransposedBatch`], as the
/// owning [`crate::Mlp`] or its caller holds it) and computes `dW = xᵀ ·
/// dy` on the dispatched GEMM ([`ops::matmul_into`], AVX2 where available,
/// bit-identical to the scalar reference), `db = Σ_rows dy`, and, when
/// asked for, `dx = dy · Wᵀ`. Gradients accumulate across calls until
/// [`Linear::zero_grad`].
///
/// The `_into` forwards and the backward reuse caller-owned output buffers
/// plus two private scratch matrices, so a layer cycled through same-shaped
/// batches stops allocating after the first pass. The allocating forward
/// is a wrapper over them — both forms produce bitwise-identical results.
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
            dw_scratch: Matrix::zeros(0, 0),
            wt_scratch: Matrix::zeros(0, 0),
        }
    }

    /// An `in_dim × out_dim` layer of zero weights and bias.
    pub(crate) fn zeros(in_dim: usize, out_dim: usize) -> Self {
        Self {
            w: Matrix::zeros(in_dim, out_dim),
            b: vec![0.0; out_dim],
            dw: Matrix::zeros(in_dim, out_dim),
            db: vec![0.0; out_dim],
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

    /// Backward pass for a batch `x` whose transpose `xt` the caller holds:
    /// accumulates `dw`/`db`, and writes `dx = dy · Wᵀ` into `dx` when one
    /// is given. The input layer of a network passes `None`: states are not
    /// learned, so nothing reads its input gradient. The per-call `xᵀ·dy`
    /// product runs on the dispatched GEMM over the distinct rows of `xᵀ`
    /// into a scratch matrix, and each row of `dw` then accumulates its
    /// feature's product row — folding the product directly into `dw`
    /// would change the addition order and thus the low bits.
    ///
    /// # Panics
    /// If `xt` or `dy` disagree with the layer's shape or with each other.
    pub fn backward(&mut self, xt: &TransposedBatch, dy: &Matrix, dx: Option<&mut Matrix>) {
        let Linear { w, dw, db, dw_scratch, wt_scratch, .. } = self;
        assert_eq!(xt.in_dim(), w.rows(), "backward input dim mismatch");
        assert_eq!(dy.rows(), xt.batch(), "backward batch size mismatch");
        assert_eq!(dy.cols(), w.cols(), "backward output dim mismatch");
        // dW += xᵀ · dy, one product row per distinct row of xᵀ
        ops::matmul_into(xt.distinct_rows(), dy, dw_scratch);
        for (i, &u) in xt.row_of().iter().enumerate() {
            ops::axpy(1.0, dw_scratch.row(u), dw.row_mut(i));
        }
        // db += column sums of dy
        for r in 0..dy.rows() {
            ops::axpy(1.0, dy.row(r), db);
        }
        // dx = dy · Wᵀ
        if let Some(dx) = dx {
            ops::matmul_transpose_b_into(dy, w, dx, wt_scratch);
        }
    }

    /// Clears accumulated gradients.
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
        let dy = Matrix::from_rows(&[&[1.0, 0.0, -1.0]]);
        let mut dx = Matrix::zeros(0, 0);
        l.backward(&TransposedBatch::of(&x), &dy, Some(&mut dx));
        // dW = xᵀ · dy
        assert_eq!(l.dw, Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[2.0, 0.0, -2.0]]));
        assert_eq!(l.db, vec![1.0, 0.0, -1.0]);
        // dx = dy · Wᵀ = [1*1 + 0*2 + (-1)*3, 1*4 + 0*5 + (-1)*6]
        assert_eq!(dx.as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn backward_uses_the_given_batch() {
        let mut l = fixed_layer();
        let x = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let dy = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[0.5, 2.0, 0.0]]);
        l.backward(&TransposedBatch::of(&x), &dy, None);
        // dW = xᵀ · dy over the 2-row batch.
        assert_eq!(l.dw, Matrix::from_rows(&[&[2.0, 4.0, -1.0], &[-0.75, 1.0, 1.0]]));
        assert_eq!(l.db, vec![1.5, 2.0, -1.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = fixed_layer();
        let xt = TransposedBatch::of(&Matrix::from_rows(&[&[1.0, 0.0]]));
        let dy = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        l.backward(&xt, &dy, None);
        l.backward(&xt, &dy, None);
        assert_eq!(l.db, vec![2.0, 2.0, 2.0]);
        l.zero_grad();
        assert_eq!(l.db, vec![0.0, 0.0, 0.0]);
        assert!(l.dw.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn backward_rejects_a_batch_of_another_size() {
        let mut l = fixed_layer();
        let xt = TransposedBatch::of(&Matrix::zeros(3, 2));
        l.backward(&xt, &Matrix::zeros(2, 3), None);
    }

    #[test]
    fn transposed_batch_keeps_each_distinct_row_once() {
        // Features 0 and 2 repeat across the batch, feature 3 repeats
        // feature 1 but for the sign of a zero.
        let x = Matrix::from_rows(&[&[-1.0, 0.0, -1.0, -0.0, 0.5], &[-1.0, 2.0, -1.0, 2.0, 0.5]]);
        let mut t = TransposedBatch::of(&x);
        assert_eq!((t.in_dim(), t.batch()), (5, 2));
        assert_eq!(t.row_of(), &[0, 1, 0, 2, 3]);
        let rows: [[f32; 2]; 4] = [[-1.0, -1.0], [0.0, 2.0], [-0.0, 2.0], [0.5, 0.5]];
        for (u, want) in rows.iter().enumerate() {
            let got = t.distinct_rows().row(u);
            assert!(got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()), "row {u}");
        }
        // Refilled with another shape, it describes only the new batch.
        t.set(&Matrix::from_rows(&[&[3.0], &[4.0], &[3.0]]));
        assert_eq!((t.in_dim(), t.batch()), (1, 3));
        assert_eq!(t.distinct_rows().as_slice(), &[3.0, 4.0, 3.0]);
        assert_eq!(t.row_of(), &[0]);
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
