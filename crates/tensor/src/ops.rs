//! Matrix/vector kernels: GEMM variants, element-wise ops, softmax,
//! reductions.
//!
//! GEMM loop order is `i-k-j` so the innermost loop walks contiguous memory
//! in both the output row and the `b` row, which auto-vectorizes well for
//! the small operand sizes used by the PFRL-DM networks.
//!
//! Every kernel comes in two forms: an allocating one (`matmul`) and an
//! `_into` one (`matmul_into`) that reuses a caller-owned output buffer.
//! The `_into` forms are the hot path; the allocating forms are thin
//! wrappers, so the two are bitwise identical by construction. The
//! accumulation order of each output element is pinned (sequential over the
//! inner dimension, in index order): float addition is not associative, so
//! any reordering would change results at the last bit and break the
//! cross-run determinism the telemetry fingerprint tests assert.
//!
//! The serving-critical kernels (`matvec`/`matmul` with optional fused
//! bias, `softmax`, `log_softmax`, `tanh`) additionally dispatch at runtime
//! to AVX2 implementations in [`crate::simd`] that are held **bitwise
//! identical** to the scalar reference implementations in [`reference`] —
//! the tolerance contract is zero ULP, pinned by the equivalence proptests
//! in `crates/tensor/tests/proptests.rs`. Set `PFRL_TENSOR_SIMD=0` to
//! force the scalar tier (results do not change, only speed).
//!
//! The GEMMs take an optional list of input rows: [`matmul_bias_rows_into`]
//! and [`matvec_bias_rows_into`] walk an ascending list of `w`'s rows and
//! read `x[p]` and `w[p]` by index, skipping the rest without copying a
//! compacted `w` or a gathered `x`. It is the same kernel body in both
//! tiers (the plain forms pass `0..k`), so per output element the sequence
//! is the plain one with the unlisted `p` left out. A network's input layer
//! runs on it over its fleet's live state columns, with the constant
//! contribution of the Eq. 1 `VOID` columns folded into its bias by
//! [`fold_bias_into`] — one scalar routine both tiers read, so the fold
//! cannot split them.
//!
//! The training weight gradient `dW = xᵀ · dy` has no kernel of its own:
//! `Linear` caches its input transposed, so `dW` is [`matmul_into`]`(xᵀ,
//! dy)` on the dispatched GEMM. Per output element that is the sequence
//! `dW[i][j] += x[p][i] · dy[p][j]` in ascending `p`, exact-zero `x[p][i]`
//! skipped — bit for bit the scalar `p-i-j` loop the proptests keep as its
//! oracle.

use crate::simd;
#[cfg(target_arch = "x86_64")]
use crate::simd::SimdTier;
use crate::Matrix;

/// Scalar reference implementations of the SIMD-dispatched kernels.
///
/// These are the ground truth the AVX2 tier is held bit-compatible to (the
/// same role the `Stepped` engine plays for the event calendar). They are
/// public so the equivalence proptests can drive them directly against the
/// dispatched entry points.
pub mod reference {
    use crate::simd;
    use crate::Matrix;

    /// `out = x · w (+ bias)`; `out` must be pre-sized to `w.cols()`.
    ///
    /// Accumulates `x[p] * w[p][j]` per output element sequentially over
    /// `p`, skipping exact-zero `x[p]` terms, then adds the bias last —
    /// the historical fused `matvec` + `axpy` sequence of
    /// `Linear::forward_row_into`.
    pub fn matvec_bias_into(x: &[f32], w: &Matrix, bias: Option<&[f32]>, out: &mut [f32]) {
        matvec_rows(x, 0..x.len(), w, bias, out);
    }

    /// [`matvec_bias_into`] over the input rows `rows` only (ascending):
    /// `out = Σ_{p ∈ rows} x[p] · w[p] (+ bias)`, the same per-element
    /// sequence with the other `p` left out.
    pub fn matvec_bias_rows_into(
        x: &[f32],
        rows: &[usize],
        w: &Matrix,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        matvec_rows(x, rows.iter().copied(), w, bias, out);
    }

    /// Batched `out = a · w (+ bias per row)`; `out` must be pre-sized to
    /// `a.rows() × w.cols()`. Row `i` runs exactly
    /// [`matvec_bias_into`] on `a.row(i)`.
    pub fn matmul_bias_into(a: &Matrix, w: &Matrix, bias: Option<&[f32]>, out: &mut Matrix) {
        for i in 0..a.rows() {
            matvec_rows(a.row(i), 0..a.cols(), w, bias, out.row_mut(i));
        }
    }

    /// Batched [`matvec_bias_rows_into`]: row `i` of `out` is that kernel
    /// on `a.row(i)`.
    pub fn matmul_bias_rows_into(
        a: &Matrix,
        rows: &[usize],
        w: &Matrix,
        bias: Option<&[f32]>,
        out: &mut Matrix,
    ) {
        for i in 0..a.rows() {
            matvec_rows(a.row(i), rows.iter().copied(), w, bias, out.row_mut(i));
        }
    }

    /// The one scalar GEMM body: `out = Σ_{p ∈ rows} x[p] · w[p] (+ bias)`,
    /// exact-zero `x[p]` skipped, bias added last.
    pub(super) fn matvec_rows(
        x: &[f32],
        rows: impl Iterator<Item = usize>,
        w: &Matrix,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        out.iter_mut().for_each(|v| *v = 0.0);
        for p in rows {
            let av = x[p];
            if av == 0.0 {
                continue;
            }
            for (o, &wv) in out.iter_mut().zip(w.row(p)) {
                *o += av * wv;
            }
        }
        if let Some(b) = bias {
            for (o, &bv) in out.iter_mut().zip(b) {
                *o += bv;
            }
        }
    }

    /// In-place tanh via the shared polynomial ([`simd::tanh`]).
    pub fn tanh_slice_inplace(x: &mut [f32]) {
        for v in x {
            *v = simd::tanh(*v);
        }
    }

    /// Numerically-stable in-place softmax (see
    /// [`super::softmax_inplace`] for the contract).
    pub fn softmax_inplace(x: &mut [f32]) {
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if !max.is_finite() {
            let u = 1.0 / x.len() as f32;
            x.iter_mut().for_each(|v| *v = u);
            return;
        }
        let mut sum = 0.0;
        for v in x.iter_mut() {
            *v = simd::exp_nonpos(*v - max);
            sum += *v;
        }
        let inv = 1.0 / sum;
        x.iter_mut().for_each(|v| *v *= inv);
    }

    /// Stable log-softmax; `out` must be pre-sized to `x.len()`.
    pub fn log_softmax(x: &[f32], out: &mut [f32]) {
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = x.iter().map(|v| simd::exp_nonpos(v - max)).sum::<f32>().ln();
        for (o, &v) in out.iter_mut().zip(x) {
            *o = v - max - log_sum;
        }
    }
}

/// `out = a · b` where `a` is `m×k` and `b` is `k×n`.
///
/// # Panics
/// On inner-dimension mismatch.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_into(a, b, &mut out);
    out
}

/// [`matmul`] into a reusable output buffer (`out` is reshaped to `m×n`).
///
/// Each `out[i][j]` accumulates `a[i][p] * b[p][j]` sequentially over `p`,
/// skipping exact-zero `a[i][p]` terms — identical to the historical
/// allocating kernel, so results are bitwise unchanged. Dispatches to the
/// register-blocked AVX2 GEMM when available (bit-identical; see
/// [`reference`]).
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    check_inner("matmul", a, b);
    let (m, n) = (a.rows(), b.cols());
    out.resize(m, n);
    dispatch_matmul(a, 0..a.cols(), b, None, out);
}

/// Fused `out = a · w` plus a per-row bias add — the historical
/// `Linear::forward_into` sequence (all `x·W` terms accumulate in inner
/// index order, then the bias is added last per element), so results are
/// bitwise identical to [`matmul`] + `add_row_bias`. `out` is reshaped to
/// `a.rows() × w.cols()`.
pub fn matmul_bias_into(a: &Matrix, w: &Matrix, bias: &[f32], out: &mut Matrix) {
    check_inner("matmul_bias", a, w);
    assert_eq!(bias.len(), w.cols(), "matmul_bias: bias length mismatch");
    out.resize(a.rows(), w.cols());
    dispatch_matmul(a, 0..a.cols(), w, Some(bias), out);
}

/// [`matmul_bias_into`] over the input columns `rows` of `a` (the rows of
/// `w`) only: `out[i] = Σ_{p ∈ rows} a[i][p] · w[p] + bias`. Per output
/// element this is the fused sequence with the other `p` left out — no
/// compacted copy of `w` or gathered copy of `a` is made, and the skipped
/// rows are never read. A network's first layer runs on it with its
/// folded bias ([`fold_bias_into`]).
///
/// # Panics
/// On a shape mismatch, or if `rows` is not strictly ascending below
/// `a.cols()`.
pub fn matmul_bias_rows_into(
    a: &Matrix,
    rows: &[usize],
    w: &Matrix,
    bias: &[f32],
    out: &mut Matrix,
) {
    check_inner("matmul_bias_rows", a, w);
    assert_eq!(bias.len(), w.cols(), "matmul_bias_rows: bias length mismatch");
    check_rows(rows, a.cols());
    out.resize(a.rows(), w.cols());
    dispatch_matmul(a, rows.iter().copied(), w, Some(bias), out);
}

fn check_inner(op: &str, a: &Matrix, w: &Matrix) {
    assert_eq!(
        a.cols(),
        w.rows(),
        "{op}: {}x{} · {}x{} inner dims differ",
        a.rows(),
        a.cols(),
        w.rows(),
        w.cols()
    );
}

/// Whether `rows` is a row list over `k` rows: strictly ascending, every
/// index below `k`.
pub fn is_row_list(rows: &[usize], k: usize) -> bool {
    rows.windows(2).all(|p| p[0] < p[1]) && rows.last().is_none_or(|&p| p < k)
}

/// Panics unless [`is_row_list`]: the dispatched kernels read `w[p]`
/// unchecked for every listed `p`.
fn check_rows(rows: &[usize], k: usize) {
    assert!(is_row_list(rows, k), "row list must be strictly ascending below {k}");
}

fn dispatch_matmul<R: Iterator<Item = usize> + Clone>(
    a: &Matrix,
    rows: R,
    w: &Matrix,
    bias: Option<&[f32]>,
    out: &mut Matrix,
) {
    #[cfg(target_arch = "x86_64")]
    if simd::tier() == SimdTier::Avx2 {
        // SAFETY: tier() verified AVX2 support at runtime; the callers
        // checked the shapes and that every row index is below a.cols().
        unsafe {
            simd::avx2::matmul_bias(
                a.as_slice(),
                a.rows(),
                a.cols(),
                rows,
                w.as_slice(),
                w.cols(),
                bias,
                out.as_mut_slice(),
            );
        }
        return;
    }
    for i in 0..a.rows() {
        reference::matvec_rows(a.row(i), rows.clone(), w, bias, out.row_mut(i));
    }
}

/// The first-layer bias a row list leaves over: `out[j] = b[j] −
/// Σ_{p ∈ folded} w[p][j]`, the sum running in ascending `p` from `0.0`.
///
/// If every input row outside a live list reads `-1` (the Eq. 1 `VOID`),
/// then `x · w + b = Σ_{p live} x[p] · w[p] + out`, so the GEMM need only
/// walk the live rows ([`matmul_bias_rows_into`]). This scalar routine is
/// the fold's single definition: both SIMD tiers read the bias it writes,
/// so the zero-ULP contract between them is untouched. With nothing
/// folded it writes `b` itself, so an unfolded layer keeps its exact
/// sequence. `out` is cleared and refilled to length `b.len()`; it keeps
/// its capacity, so a same-shaped refold allocates nothing.
///
/// # Panics
/// If `b.len() != w.cols()` or a folded row is out of range.
pub fn fold_bias_into(w: &Matrix, b: &[f32], folded: &[usize], out: &mut Vec<f32>) {
    assert_eq!(b.len(), w.cols(), "fold_bias: bias length mismatch");
    out.clear();
    if folded.is_empty() {
        out.extend_from_slice(b);
        return;
    }
    // Tiles of register accumulators, so `out` is not reloaded and stored
    // per folded row; each element still sums in ascending `p`.
    const TILE: usize = 16;
    let n = b.len();
    let full = n - n % TILE;
    for j0 in (0..full).step_by(TILE) {
        let acc = fold_tile::<TILE>(w, folded, j0);
        out.extend(b[j0..j0 + TILE].iter().zip(acc).map(|(&bv, a)| bv - a));
    }
    for (j, &bv) in b.iter().enumerate().skip(full) {
        out.push(bv - fold_tile::<1>(w, folded, j)[0]);
    }
}

/// `Σ_{p ∈ folded} w[p][j0..j0 + T]`, summed in ascending `p` from `0.0`.
fn fold_tile<const T: usize>(w: &Matrix, folded: &[usize], j0: usize) -> [f32; T] {
    let mut acc = [0.0f32; T];
    for &p in folded {
        let row: &[f32; T] = w.row(p)[j0..j0 + T].try_into().expect("a slice of T columns");
        for (a, &wv) in acc.iter_mut().zip(row) {
            *a += wv;
        }
    }
    acc
}

/// `out = a · bᵀ` where `a` is `m×k` and `b` is `n×k` (so `out` is `m×n`).
///
/// Preferred for attention scores (`Q·Kᵀ`) and the backward pass of a
/// linear layer (`dx = dy · Wᵀ`).
pub fn matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    let mut bt = Matrix::zeros(0, 0);
    matmul_transpose_b_into(a, b, &mut out, &mut bt);
    out
}

/// [`matmul_transpose_b`] into a reusable output buffer, with a
/// caller-owned scratch matrix for the transposed `b`.
///
/// Internally this materializes `bᵀ` in `bt_scratch` and runs the
/// vectorizable `i-k-j` loop over it, instead of one latency-bound scalar
/// dot product per output element (~2.8× faster at PPO shapes). Each
/// `out[i][j]` still accumulates `a[i][p] * b[j][p]` sequentially over `p`
/// with no terms skipped — the exact order of the historical row-dot
/// kernel — so results are bitwise unchanged.
pub fn matmul_transpose_b_into(a: &Matrix, b: &Matrix, out: &mut Matrix, bt_scratch: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transpose_b: a is {}x{}, b is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    transpose_into(b, bt_scratch);
    out.resize(m, n);
    out.fill_zero();
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (p, &av) in arow.iter().enumerate().take(k) {
            let btrow = bt_scratch.row(p);
            for j in 0..n {
                orow[j] += av * btrow[j];
            }
        }
    }
}

/// Writes `src`ᵀ into `dst` (reshaped to `cols × rows`).
pub fn transpose_into(src: &Matrix, dst: &mut Matrix) {
    let (r, c) = src.shape();
    dst.resize(c, r);
    let s = src.as_slice();
    for p in 0..c {
        let drow = dst.row_mut(p);
        for (j, d) in drow.iter_mut().enumerate() {
            *d = s[j * c + p];
        }
    }
}

/// `x · w` for a single row vector `x` (length `k`) and `w` of shape `k×n`.
///
/// Bitwise identical to [`matmul`] on a `1×k` matrix — same loop, same
/// zero-skip — without the `Matrix` wrapping. This is the per-decision
/// inference fast path.
pub fn matvec(x: &[f32], w: &Matrix) -> Vec<f32> {
    let mut out = Vec::new();
    matvec_into(x, w, &mut out);
    out
}

/// [`matvec`] into a reusable output vector (cleared and zero-filled to
/// length `n`; retains capacity across calls).
pub fn matvec_into(x: &[f32], w: &Matrix, out: &mut Vec<f32>) {
    check_len("matvec", x, w);
    out.clear();
    out.resize(w.cols(), 0.0);
    dispatch_matvec(x, 0..x.len(), w, None, out);
}

/// Fused `out = x · w + bias` for a single row vector — the historical
/// `Linear::forward_row_into` sequence (`matvec` accumulation, bias added
/// last per element), bitwise identical to [`matvec_into`] + `axpy`.
/// `out` is cleared and refilled to length `w.cols()`.
pub fn matvec_bias_into(x: &[f32], w: &Matrix, bias: &[f32], out: &mut Vec<f32>) {
    check_len("matvec_bias", x, w);
    assert_eq!(bias.len(), w.cols(), "matvec_bias: bias length mismatch");
    out.clear();
    out.resize(w.cols(), 0.0);
    dispatch_matvec(x, 0..x.len(), w, Some(bias), out);
}

/// Single-row [`matmul_bias_rows_into`]: `out = Σ_{p ∈ rows} x[p] · w[p]
/// + bias`, bitwise equal to that kernel on a `1×k` matrix.
///
/// # Panics
/// On a shape mismatch, or if `rows` is not strictly ascending below
/// `x.len()`.
pub fn matvec_bias_rows_into(
    x: &[f32],
    rows: &[usize],
    w: &Matrix,
    bias: &[f32],
    out: &mut Vec<f32>,
) {
    check_len("matvec_bias_rows", x, w);
    assert_eq!(bias.len(), w.cols(), "matvec_bias_rows: bias length mismatch");
    check_rows(rows, x.len());
    out.clear();
    out.resize(w.cols(), 0.0);
    dispatch_matvec(x, rows.iter().copied(), w, Some(bias), out);
}

fn check_len(op: &str, x: &[f32], w: &Matrix) {
    assert_eq!(
        x.len(),
        w.rows(),
        "{op}: x of length {} vs {}x{} matrix",
        x.len(),
        w.rows(),
        w.cols()
    );
}

fn dispatch_matvec<R: Iterator<Item = usize> + Clone>(
    x: &[f32],
    rows: R,
    w: &Matrix,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::tier() == SimdTier::Avx2 {
        // SAFETY: tier() verified AVX2 support at runtime; the callers
        // checked the shapes and that every row index is below x.len().
        unsafe { simd::avx2::matvec_bias(x, rows, w.as_slice(), w.cols(), bias, out) };
        return;
    }
    reference::matvec_rows(x, rows, w, bias, out);
}

/// In-place hyperbolic tangent over a slice, via the shared polynomial
/// kernel ([`crate::simd::tanh`]) — the workspace-wide definition of tanh,
/// bit-identical between the scalar and AVX2 tiers.
pub fn tanh_slice_inplace(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::tier() == SimdTier::Avx2 {
        // SAFETY: tier() verified AVX2 support at runtime.
        unsafe { simd::avx2::tanh_slice_inplace(x) };
        return;
    }
    reference::tanh_slice_inplace(x);
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// If lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` element-wise.
///
/// # Panics
/// If lengths differ.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `a += b` element-wise (shape-checked).
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "add_assign: shape mismatch");
    axpy(1.0, b.as_slice(), a.as_mut_slice());
}

/// `a *= s` element-wise.
pub fn scale(a: &mut Matrix, s: f32) {
    for v in a.as_mut_slice() {
        *v *= s;
    }
}

/// Adds row vector `bias` (length `cols`) to every row of `a`.
pub fn add_row_bias(a: &mut Matrix, bias: &[f32]) {
    assert_eq!(a.cols(), bias.len(), "add_row_bias: bias length mismatch");
    for r in 0..a.rows() {
        axpy(1.0, bias, a.row_mut(r));
    }
}

/// Numerically-stable in-place softmax over a single slice.
///
/// Subtracts the max before exponentiating; an all-`-inf` row becomes
/// uniform rather than NaN. Exponentials use the shared polynomial
/// ([`crate::simd::exp_nonpos`]), which maps masked `-inf` logits to an
/// exact `0.0` weight; the lane-order-sensitive sum stays a sequential
/// scalar loop in both tiers, so scalar and AVX2 results are bitwise
/// identical. Inputs are specified finite-or-`-inf` (NaN propagates but
/// its effect on the max reduction is tier-dependent).
pub fn softmax_inplace(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::tier() == SimdTier::Avx2 {
        // SAFETY: tier() verified AVX2 support at runtime.
        unsafe { simd::avx2::softmax_inplace(x) };
        return;
    }
    reference::softmax_inplace(x);
}

/// Applies [`softmax_inplace`] to every row of `a`.
pub fn softmax_rows(a: &mut Matrix) {
    for r in 0..a.rows() {
        softmax_inplace(a.row_mut(r));
    }
}

/// Stable log-softmax of a slice into a freshly allocated `Vec`.
pub fn log_softmax(x: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    log_softmax_into(x, &mut out);
    out
}

/// [`log_softmax`] into a reusable output vector (cleared and refilled;
/// retains capacity across calls). Same tier contract as
/// [`softmax_inplace`]: bitwise identical between scalar and AVX2.
pub fn log_softmax_into(x: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.resize(x.len(), 0.0);
    #[cfg(target_arch = "x86_64")]
    if simd::tier() == SimdTier::Avx2 {
        // SAFETY: tier() verified AVX2 support at runtime.
        unsafe { simd::avx2::log_softmax(x, out) };
        return;
    }
    reference::log_softmax(x, out);
}

/// Index of the maximum element (first on ties).
///
/// # Panics
/// On an empty slice.
#[inline]
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > x[best] {
            best = i;
        }
    }
    best
}

/// Arithmetic mean of a slice (0.0 for empty input).
pub fn mean(x: &[f32]) -> f32 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f32>() / x.len() as f32
    }
}

/// Population standard deviation of a slice (0.0 for len < 2).
pub fn std_dev(x: &[f32]) -> f32 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    (x.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / x.len() as f32).sqrt()
}

/// Rescales `x` so its L2 norm is at most `max_norm` (global-norm gradient
/// clipping). Returns the pre-clip norm.
pub fn clip_l2_norm(x: &mut [f32], max_norm: f32) -> f32 {
    let norm = x.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        x.iter_mut().for_each(|v| *v *= s);
    }
    norm
}

/// Cosine similarity between two equal-length vectors; 0.0 if either is a
/// zero vector.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn matmul_hand_example() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 3.0], &[0.0, 4.0, 5.5]]);
        assert_eq!(matmul(&a, &Matrix::identity(3)), a);
        assert_eq!(matmul(&Matrix::identity(2), &a), a);
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[1.0, 0.5, -1.0]]);
        // a (2x3) · bᵀ (3x2) = 2x2
        let via_kernel = matmul_transpose_b(&a, &b);
        let via_explicit = matmul(&a, &b.transposed());
        assert_eq!(via_kernel, via_explicit);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn into_kernels_reuse_buffers_across_shapes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 1.0], &[0.5, -1.0]]);
        let mut out = Matrix::zeros(7, 7); // wrong shape on purpose
        matmul_into(&a, &b, &mut out);
        assert_eq!(out, matmul(&a, &b));
        // Shrinking re-use must not leave stale values behind.
        let small = Matrix::identity(2);
        matmul_into(&small, &small, &mut out);
        assert_eq!(out, small);
        let mut bt = Matrix::zeros(0, 0);
        matmul_transpose_b_into(&a, &a, &mut out, &mut bt);
        assert_eq!(out, matmul_transpose_b(&a, &a));
    }

    #[test]
    fn matvec_matches_single_row_matmul_bitwise() {
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[-0.5, 0.25]]);
        let x = [0.1f32, 0.0, -2.0]; // includes an exact zero (skip path)
        let via_matmul = matmul(&Matrix::from_vec(1, 3, x.to_vec()), &w);
        let via_matvec = matvec(&x, &w);
        assert_eq!(via_matmul.as_slice(), via_matvec.as_slice());
        let mut buf = vec![9.0f32; 17];
        matvec_into(&x, &w, &mut buf);
        assert_eq!(buf, via_matvec);
    }

    #[test]
    fn transpose_into_matches_transposed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut t = Matrix::zeros(0, 0);
        transpose_into(&a, &mut t);
        assert_eq!(t, a.transposed());
    }

    #[test]
    fn log_softmax_into_matches_allocating() {
        let x = vec![0.5, -1.0, 2.0, 0.0];
        let mut out = vec![7.0; 9];
        log_softmax_into(&x, &mut out);
        assert_eq!(out, log_softmax(&x));
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let mut x = vec![1.0, 2.0, 3.0];
        let mut y = vec![101.0, 102.0, 103.0];
        softmax_inplace(&mut x);
        softmax_inplace(&mut y);
        assert_close(x.iter().sum::<f32>(), 1.0);
        for (a, b) in x.iter().zip(&y) {
            assert_close(*a, *b);
        }
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_handles_neg_infinity_mask() {
        let mut x = vec![f32::NEG_INFINITY, 0.0, f32::NEG_INFINITY];
        softmax_inplace(&mut x);
        assert_close(x[1], 1.0);
        assert_close(x[0], 0.0);
    }

    #[test]
    fn softmax_all_masked_degrades_to_uniform() {
        let mut x = vec![f32::NEG_INFINITY; 4];
        softmax_inplace(&mut x);
        for v in x {
            assert_close(v, 0.25);
        }
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = vec![0.5, -1.0, 2.0, 0.0];
        let ls = log_softmax(&x);
        let mut sm = x.clone();
        softmax_inplace(&mut sm);
        for (l, s) in ls.iter().zip(&sm) {
            assert_close(l.exp(), *s);
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    fn mean_std_hand_values() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(mean(&x), 5.0);
        assert_close(std_dev(&x), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn clip_l2_norm_scales_down_only() {
        let mut x = vec![3.0, 4.0]; // norm 5
        let pre = clip_l2_norm(&mut x, 1.0);
        assert_close(pre, 5.0);
        assert_close(x.iter().map(|v| v * v).sum::<f32>().sqrt(), 1.0);
        let mut y = vec![0.3, 0.4]; // norm 0.5, below cap
        clip_l2_norm(&mut y, 1.0);
        assert_close(y[0], 0.3);
    }

    #[test]
    fn cosine_similarity_bounds_and_zero_vector() {
        assert_close(cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]), 1.0);
        assert_close(cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]), -1.0);
        assert_close(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn add_row_bias_broadcasts() {
        let mut a = Matrix::zeros(3, 2);
        add_row_bias(&mut a, &[1.0, -1.0]);
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.5);
        add_assign(&mut a, &b);
        assert_eq!(a, Matrix::filled(2, 2, 3.5));
    }
}
