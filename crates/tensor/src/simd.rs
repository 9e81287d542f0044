//! Runtime-dispatched SIMD kernels (AVX2 `f32x8`), held **bit-compatible**
//! with the scalar reference path.
//!
//! # The tolerance contract: zero ULP
//!
//! Every dispatched kernel in [`crate::ops`] produces results that are
//! bitwise identical whether the scalar or the AVX2 tier runs. This is the
//! same discipline as the `_into` kernel migration and the
//! `TimeEngine::Stepped` reference engine: the fast path is never allowed
//! to drift from the reference, so runtime CPU detection can never change
//! a training run, a telemetry fingerprint, or a served decision.
//!
//! The freedom other BLAS-alikes take is deliberately *not* taken here:
//!
//! * **No FMA.** Fused multiply-add skips the intermediate rounding of the
//!   product and therefore changes low bits (measured on this workload).
//!   All kernels use separate `mul` + `add`, which round exactly like the
//!   scalar `a * b` then `acc + p` sequence.
//! * **No lane-parallel reductions.** Vectorization runs across *output
//!   columns* (independent accumulators), never across the contraction
//!   dimension, so each output element sees the identical sequence of
//!   additions in index order. Softmax sums likewise stay sequential
//!   scalar loops; only the `max` reduction is tree-shaped, which is safe
//!   because `max` is associative and commutative for the non-NaN inputs
//!   the kernels are specified over.
//! * **Shared transcendental polynomials.** `exp`/`tanh` are evaluated by
//!   the polynomial routines below ([`exp_nonpos`], [`tanh`]) whose scalar
//!   and vector forms execute the same IEEE operation sequence
//!   element-wise — libm's `expf`/`tanhf` cannot be vectorized
//!   bit-compatibly, so the polynomial *is* the reference definition for
//!   the whole workspace (training and serving share it, keeping
//!   trainer-vs-served bit-identity intact).
//!
//! * **One fold, computed in scalar.** The GEMMs can walk an ascending list
//!   of input rows (a network's live state columns); the bias a first
//!   layer adds in place of the other columns comes from the scalar
//!   [`crate::ops::fold_bias_into`], which both tiers read, so the fold
//!   adds nothing the tiers could round differently.
//!
//! The equivalence proptests in `crates/tensor/tests/proptests.rs` pin the
//! contract: dispatched kernels vs the scalar reference, exact bitwise, on
//! ragged (non-multiple-of-8) shapes, ragged live-row lists and dirty
//! reused buffers.
//!
//! # Tier selection
//!
//! [`tier`] picks the widest supported tier once per process. Setting
//! `PFRL_TENSOR_SIMD=0` (or `scalar`/`off`) forces the scalar reference —
//! useful for benchmarking the SIMD contribution and for bisecting, and
//! harmless for reproducibility because the tiers are bit-identical.

// The Cephes polynomial digits below are kept verbatim (they round to the
// same f32 bits as clippy's truncations; the published forms carry the
// provenance).
#![allow(clippy::excessive_precision)]

use std::sync::OnceLock;

/// Instruction-set tier the dispatched kernels run on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdTier {
    /// Portable scalar reference (always available; the ground truth).
    Scalar,
    /// AVX2 `f32x8` kernels (x86-64, runtime-detected).
    Avx2,
}

impl SimdTier {
    /// Short human-readable name (used in bench manifests).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

static TIER: OnceLock<SimdTier> = OnceLock::new();

/// The tier all dispatched kernels use for the lifetime of the process.
pub fn tier() -> SimdTier {
    *TIER.get_or_init(|| {
        if matches!(
            std::env::var("PFRL_TENSOR_SIMD").as_deref(),
            Ok("0") | Ok("scalar") | Ok("off")
        ) {
            return SimdTier::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return SimdTier::Avx2;
            }
        }
        SimdTier::Scalar
    })
}

// ---------------------------------------------------------------------------
// Shared transcendental polynomials (scalar forms = the reference).
// ---------------------------------------------------------------------------

const EXP_LOG2E: f32 = std::f32::consts::LOG2_E;
/// Cody–Waite split of ln(2): the high part is exactly representable, so
/// `x - n*LN2_HI` is exact for the `n` range in play.
const EXP_LN2_HI: f32 = 0.693_359_375;
const EXP_LN2_LO: f32 = -2.121_944_4e-4;
// Cephes `expf` minimax polynomial for e^r on r ∈ [-ln2/2, ln2/2] (~2 ulp).
const EXP_P5: f32 = 1.987_569_15e-4;
const EXP_P4: f32 = 1.398_199_950_7e-3;
const EXP_P3: f32 = 8.333_451_907_3e-3;
const EXP_P2: f32 = 4.166_579_589_4e-2;
const EXP_P1: f32 = 1.666_666_545_9e-1;
const EXP_P0: f32 = 5.000_000_120_1e-1;
/// Below this, e^x would need a subnormal scale (n < -126): flush to zero.
/// Also maps `-inf` to an exact `0.0`, which the action-masking softmax
/// relies on (masked `-inf` logits must get exactly zero weight).
const EXP_UNDERFLOW: f32 = -87.336_55;

/// Polynomial `e^x` for non-positive (or mildly positive, < ~80) `x`.
///
/// This is the reference definition of `exp` for every dispatched kernel
/// that exponentiates (softmax, log-softmax, tanh). `-inf` and anything
/// below [`EXP_UNDERFLOW`] flush to exactly `0.0`; NaN propagates.
/// Accuracy vs libm `expf` is ~2 ulp on the supported range.
#[inline]
pub fn exp_nonpos(x: f32) -> f32 {
    if x < EXP_UNDERFLOW {
        return 0.0;
    }
    // Argument reduction: x = n*ln2 + r with r ∈ [-ln2/2, ln2/2].
    // `floor(x·log2e + 0.5)` (not `round`) so the vector form can mirror it
    // exactly: _mm256_round_ps rounds half-to-even, floor does not.
    let nf = (x * EXP_LOG2E + 0.5).floor();
    let r = (x - nf * EXP_LN2_HI) - nf * EXP_LN2_LO;
    let mut p = EXP_P5;
    p = p * r + EXP_P4;
    p = p * r + EXP_P3;
    p = p * r + EXP_P2;
    p = p * r + EXP_P1;
    p = p * r + EXP_P0;
    let poly = ((p * r) * r + r) + 1.0;
    // 2^n by exponent-field construction; n ∈ [-126, ~80] here, so always
    // a normal float.
    let scale = f32::from_bits((((nf as i32) + 127) << 23) as u32);
    poly * scale
}

/// Polynomial `tanh(x)`, bit-identical between the scalar and AVX2 tiers.
///
/// Computed as `sign(x) · (1 - t)/(1 + t)` with `t = e^(-2|x|)` via
/// [`exp_nonpos`], so the exponential never overflows and saturation to
/// ±1.0 falls out of the underflow flush. This replaces libm `tanhf` as
/// the hidden-activation definition for the whole workspace (~1e-7
/// absolute difference from libm; training and serving both use it, so
/// trainer-vs-served equivalence is unaffected).
#[inline]
pub fn tanh(x: f32) -> f32 {
    let ax = f32::from_bits(x.to_bits() & 0x7fff_ffff);
    let t = exp_nonpos(-2.0 * ax);
    let r = (1.0 - t) / (1.0 + t);
    f32::from_bits(r.to_bits() | (x.to_bits() & 0x8000_0000))
}

// ---------------------------------------------------------------------------
// AVX2 tier.
// ---------------------------------------------------------------------------

/// AVX2 kernels. Every function here mirrors its scalar reference
/// op-for-op per output element (see the module docs for the contract).
///
/// # Safety
/// All functions require AVX2; callers must have checked
/// [`tier`]`() == SimdTier::Avx2` first.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{
        EXP_LN2_HI, EXP_LN2_LO, EXP_LOG2E, EXP_P0, EXP_P1, EXP_P2, EXP_P3, EXP_P4, EXP_P5,
        EXP_UNDERFLOW,
    };
    use core::arch::x86_64::*;

    /// Vector form of [`super::exp_nonpos`]: identical operation sequence
    /// per lane, including the floor-based reduction and underflow flush.
    #[target_feature(enable = "avx2")]
    unsafe fn exp_nonpos8(x: __m256) -> __m256 {
        let zf = _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(EXP_LOG2E)), _mm256_set1_ps(0.5));
        let nf = _mm256_floor_ps(zf);
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(nf, _mm256_set1_ps(EXP_LN2_HI))),
            _mm256_mul_ps(nf, _mm256_set1_ps(EXP_LN2_LO)),
        );
        let mut p = _mm256_set1_ps(EXP_P5);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_P4));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_P3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_P2));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_P1));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_P0));
        let poly = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, r), r), r),
            _mm256_set1_ps(1.0),
        );
        // 2^n via the exponent field (truncating cast is exact: nf is integral).
        let n_i = _mm256_cvttps_epi32(nf);
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            n_i,
            _mm256_set1_epi32(127),
        )));
        let res = _mm256_mul_ps(poly, scale);
        // Keep lanes where !(x < UNDERFLOW) — true for in-range x and NaN
        // (which must propagate), false for -inf and deep underflow.
        let keep = _mm256_cmp_ps::<_CMP_NLT_UQ>(x, _mm256_set1_ps(EXP_UNDERFLOW));
        _mm256_and_ps(res, keep)
    }

    /// Vector form of [`super::tanh`].
    #[target_feature(enable = "avx2")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let ax = _mm256_and_ps(x, absmask);
        let t = exp_nonpos8(_mm256_mul_ps(_mm256_set1_ps(-2.0), ax));
        let one = _mm256_set1_ps(1.0);
        let r = _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t));
        let sign = _mm256_andnot_ps(absmask, x);
        _mm256_or_ps(r, sign)
    }

    /// In-place tanh over a slice; the scalar tail uses [`super::tanh`],
    /// which is bit-identical to the vector lanes by construction.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn tanh_slice_inplace(x: &mut [f32]) {
        let n = x.len();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(x.as_mut_ptr().add(i), tanh8(v));
            i += 8;
        }
        for v in &mut x[i..] {
            *v = super::tanh(*v);
        }
    }

    /// Lane mask for a partial (`tail < 8`) column vector: lanes `< tail`
    /// have the sign bit set (loaded/stored by `vmaskmovps`), the rest are
    /// suppressed — masked lanes read as `+0.0` and are never written, so
    /// they cannot perturb live-lane bits.
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(tail: usize) -> __m256i {
        let lane = |t: usize| if t < tail { -1i32 } else { 0 };
        _mm256_setr_epi32(lane(0), lane(1), lane(2), lane(3), lane(4), lane(5), lane(6), lane(7))
    }

    /// One column tile (`V` vectors of 8 plus `tail` scalar columns) of a
    /// single-row product `out[col0..] = Σ_{p ∈ rows} x[p] · w[p][col0..]
    /// (+ bias)`.
    ///
    /// Accumulators live in registers for the whole contraction; each
    /// output column sees `acc += x[p] * w[p][j]` over `rows` in ascending
    /// `p` with the reference's exact-zero skip, then the bias added last —
    /// the same per-element sequence as the scalar reference, hence
    /// bit-identical. Rows outside `rows` are never read, from `x` or `w`.
    ///
    /// # Safety
    /// AVX2, and every `p` of `rows` below `x.len()` with
    /// `w.len() == x.len() * n` (the dispatching entry points check both).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn matvec_tile<const V: usize, R: Iterator<Item = usize>>(
        x: &[f32],
        rows: R,
        w: &[f32],
        n: usize,
        col0: usize,
        tail: usize,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        let mut acc = [_mm256_setzero_ps(); V];
        let mmask = tail_mask(tail);
        let mut tacc = _mm256_setzero_ps();
        for p in rows {
            let av = *x.get_unchecked(p);
            if av == 0.0 {
                continue;
            }
            let va = _mm256_set1_ps(av);
            let base = w.as_ptr().add(p * n + col0);
            for (v, a) in acc.iter_mut().enumerate() {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(va, _mm256_loadu_ps(base.add(8 * v))));
            }
            if tail != 0 {
                let wv = _mm256_maskload_ps(base.add(8 * V), mmask);
                tacc = _mm256_add_ps(tacc, _mm256_mul_ps(va, wv));
            }
        }
        for (v, a) in acc.iter().enumerate() {
            let mut r = *a;
            if let Some(b) = bias {
                r = _mm256_add_ps(r, _mm256_loadu_ps(b.as_ptr().add(col0 + 8 * v)));
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(col0 + 8 * v), r);
        }
        if tail != 0 {
            let mut r = tacc;
            if let Some(b) = bias {
                r = _mm256_add_ps(r, _mm256_maskload_ps(b.as_ptr().add(col0 + 8 * V), mmask));
            }
            _mm256_maskstore_ps(out.as_mut_ptr().add(col0 + 8 * V), mmask, r);
        }
    }

    /// Single-row product over all `n` columns, tiled 64 columns at a time
    /// (8 ymm accumulators — the whole hidden layer of the paper's network
    /// stays in registers across the contraction).
    ///
    /// # Safety
    /// As [`matvec_tile`], plus `out.len() == n` and `bias`, if any, of
    /// length `n`.
    #[target_feature(enable = "avx2")]
    unsafe fn matvec_bias_cols<R: Iterator<Item = usize> + Clone>(
        x: &[f32],
        rows: R,
        w: &[f32],
        n: usize,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        let mut col0 = 0;
        while col0 < n {
            let tc = (n - col0).min(64);
            let vecs = tc / 8;
            let tail = tc % 8;
            let r = rows.clone();
            match vecs {
                8 => matvec_tile::<8, R>(x, r, w, n, col0, 0, bias, out),
                7 => matvec_tile::<7, R>(x, r, w, n, col0, tail, bias, out),
                6 => matvec_tile::<6, R>(x, r, w, n, col0, tail, bias, out),
                5 => matvec_tile::<5, R>(x, r, w, n, col0, tail, bias, out),
                4 => matvec_tile::<4, R>(x, r, w, n, col0, tail, bias, out),
                3 => matvec_tile::<3, R>(x, r, w, n, col0, tail, bias, out),
                2 => matvec_tile::<2, R>(x, r, w, n, col0, tail, bias, out),
                1 => matvec_tile::<1, R>(x, r, w, n, col0, tail, bias, out),
                _ => matvec_tile::<0, R>(x, r, w, n, col0, tail, bias, out),
            }
            col0 += tc;
        }
    }

    /// `out = Σ_{p ∈ rows} x[p] · w[p] (+ bias)` for one row vector; `w` is
    /// `k×n` row-major with `k = x.len()`.
    ///
    /// # Safety
    /// As [`matvec_bias_cols`].
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn matvec_bias<R: Iterator<Item = usize> + Clone>(
        x: &[f32],
        rows: R,
        w: &[f32],
        n: usize,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), n);
        debug_assert_eq!(w.len(), x.len() * n);
        matvec_bias_cols(x, rows, w, n, bias, out);
    }

    /// Rows interleaved by [`matmul_narrow_rows`].
    const NARROW_ROWS: usize = 4;

    /// `NARROW_ROWS` batch rows of a product narrower than one vector
    /// (`n < 8`): `out[r] = a[r] · w (+ bias)`, with `a` holding the rows'
    /// `k` inputs back to back and `out` their `n` outputs.
    ///
    /// Each row keeps one accumulator and all rows share one masked load of
    /// `w[p]` per contraction step (`p` over `rows`, ascending), so the per-row add chains run side by
    /// side instead of one latency-bound chain at a time. The reference's
    /// exact-zero skip becomes a mask rather than a branch: a product whose
    /// input is `±0.0` is replaced by `+0.0` (`_CMP_NEQ_UQ` keeps NaN
    /// inputs, which the reference does not skip either). The accumulator
    /// starts at `+0.0` and, under round-to-nearest, a sum is `-0.0` only
    /// if both addends are, so it is never `-0.0`; adding `+0.0` therefore
    /// leaves its bits unchanged even where `0 · w[p]` would have been NaN
    /// (non-finite weights). Per output element this is the reference's
    /// sequence exactly: `acc += a[p] * w[p][j]` over the non-zero `a[p]`
    /// of `rows` in ascending `p`, then the bias.
    ///
    /// # Safety
    /// AVX2 must be available, and the lengths must match the shape:
    /// `a.len() == NARROW_ROWS * k`, `w.len() == k * n`,
    /// `out.len() == NARROW_ROWS * n`, every `p` of `rows` is below `k`,
    /// and `bias`, if any, holds `n` values; loads and stores are
    /// unchecked within those bounds.
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_narrow_rows<R: Iterator<Item = usize>>(
        a: &[f32],
        k: usize,
        rows: R,
        w: &[f32],
        n: usize,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        debug_assert!(n < 8);
        debug_assert_eq!(a.len(), NARROW_ROWS * k);
        debug_assert_eq!(out.len(), NARROW_ROWS * n);
        let mask = tail_mask(n);
        let zero = _mm256_setzero_ps();
        let mut acc = [zero; NARROW_ROWS];
        for p in rows {
            let wv = _mm256_maskload_ps(w.as_ptr().add(p * n), mask);
            for (r, acc) in acc.iter_mut().enumerate() {
                let va = _mm256_broadcast_ss(a.get_unchecked(r * k + p));
                let live = _mm256_cmp_ps::<_CMP_NEQ_UQ>(va, zero);
                *acc = _mm256_add_ps(*acc, _mm256_and_ps(_mm256_mul_ps(va, wv), live));
            }
        }
        for (r, &acc) in acc.iter().enumerate() {
            let mut res = acc;
            if let Some(b) = bias {
                res = _mm256_add_ps(res, _mm256_maskload_ps(b.as_ptr(), mask));
            }
            _mm256_maskstore_ps(out.as_mut_ptr().add(r * n), mask, res);
        }
    }

    /// Batched `out = a[:, rows] · w[rows, :] (+ bias per row)`; `a` is
    /// `m×k`, `w` is `k×n`, both row-major. With `rows = 0..k` this is the
    /// plain product; a shorter list skips the other input columns.
    ///
    /// The kernel is chosen by shape. Wide outputs (`n ≥ 8`, the hidden
    /// layer) run each row through the register-tiled single-row kernel in
    /// sequence: one row already fills the FP ports with independent
    /// column accumulators (separate `mul` + `add`, no FMA), so `a` streams
    /// row-major and `w` stays hot in L1 across rows (the paper-scale layer
    /// is 46 KB); blocking several rows over one `w` load was measured
    /// 1.7–2× slower there. Narrow outputs (`n < 8`: the actor and critic
    /// heads) are one serial add chain per row, bound by add latency, so
    /// groups of [`NARROW_ROWS`] rows interleave their chains
    /// ([`matmul_narrow_rows`]); leftover rows take the single-row path.
    /// Either way every output element sees the reference sequence, so a
    /// batched row is bit-identical to [`matvec_bias`] on that row.
    ///
    /// # Safety
    /// AVX2, matching lengths (`a.len() == m * k`, `w.len() == k * n`,
    /// `out.len() == m * n`, `bias` of length `n`), and every `p` of
    /// `rows` below `k`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn matmul_bias<R: Iterator<Item = usize> + Clone>(
        a: &[f32],
        m: usize,
        k: usize,
        rows: R,
        w: &[f32],
        n: usize,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(w.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        let mut i = 0;
        if (1..8).contains(&n) {
            while i + NARROW_ROWS <= m {
                let j = i + NARROW_ROWS;
                let (a, out) = (&a[i * k..j * k], &mut out[i * n..j * n]);
                matmul_narrow_rows(a, k, rows.clone(), w, n, bias, out);
                i = j;
            }
        }
        for i in i..m {
            let (x, out) = (&a[i * k..(i + 1) * k], &mut out[i * n..(i + 1) * n]);
            matvec_bias_cols(x, rows.clone(), w, n, bias, out);
        }
    }

    /// Max of a slice (tree-reduced). Equal in value to the scalar
    /// sequential fold for non-NaN inputs — `max` is associative and
    /// commutative — and only the value (never the sign of a zero max)
    /// can influence downstream bits.
    #[target_feature(enable = "avx2")]
    unsafe fn slice_max(x: &[f32]) -> f32 {
        let n = x.len();
        let mut m = f32::NEG_INFINITY;
        let mut i = 0;
        if n >= 8 {
            let mut vm = _mm256_loadu_ps(x.as_ptr());
            i = 8;
            while i + 8 <= n {
                vm = _mm256_max_ps(vm, _mm256_loadu_ps(x.as_ptr().add(i)));
                i += 8;
            }
            let lo = _mm256_castps256_ps128(vm);
            let hi = _mm256_extractf128_ps::<1>(vm);
            let m4 = _mm_max_ps(lo, hi);
            let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
            let m1 = _mm_max_ss(m2, _mm_shuffle_ps::<0b01>(m2, m2));
            m = _mm_cvtss_f32(m1);
        }
        for &v in &x[i..] {
            m = m.max(v);
        }
        m
    }

    /// Vector softmax: vectorized max and exp, sequential scalar sum and
    /// per-element scale — bit-identical to the scalar reference.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn softmax_inplace(x: &mut [f32]) {
        let n = x.len();
        let max = slice_max(x);
        if !max.is_finite() {
            let u = 1.0 / n as f32;
            x.iter_mut().for_each(|v| *v = u);
            return;
        }
        let vm = _mm256_set1_ps(max);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(x.as_mut_ptr().add(i), exp_nonpos8(_mm256_sub_ps(v, vm)));
            i += 8;
        }
        for v in &mut x[i..] {
            *v = super::exp_nonpos(*v - max);
        }
        let mut sum = 0.0f32;
        for &v in x.iter() {
            sum += v;
        }
        let inv = 1.0 / sum;
        let vi = _mm256_set1_ps(inv);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(x.as_mut_ptr().add(i), _mm256_mul_ps(v, vi));
            i += 8;
        }
        for v in &mut x[i..] {
            *v *= inv;
        }
    }

    /// Vector log-softmax into `out` (pre-sized to `x.len()`): `out` holds
    /// the exponentials while the sequential sum runs, then is overwritten
    /// with `x - max - ln(sum)`. Bit-identical to the scalar reference.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn log_softmax(x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), out.len());
        let n = x.len();
        let max = slice_max(x);
        let vm = _mm256_set1_ps(max);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), exp_nonpos8(_mm256_sub_ps(v, vm)));
            i += 8;
        }
        for (o, &v) in out[i..].iter_mut().zip(&x[i..]) {
            *o = super::exp_nonpos(v - max);
        }
        let mut sum = 0.0f32;
        for &v in out.iter() {
            sum += v;
        }
        let log_sum = sum.ln();
        let vl = _mm256_set1_ps(log_sum);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_sub_ps(_mm256_sub_ps(v, vm), vl));
            i += 8;
        }
        for (o, &v) in out[i..].iter_mut().zip(&x[i..]) {
            *o = v - max - log_sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_nonpos_tracks_libm_closely() {
        // Stay above EXP_UNDERFLOW: below it the kernel flushes to zero by
        // contract (libm still returns subnormals down to ~-103).
        for i in 0..9_700 {
            let x = -(i as f32) * 0.009; // 0 .. -87.3
            let got = exp_nonpos(x);
            let want = x.exp();
            assert!(
                (got - want).abs() <= 4.0 * f32::EPSILON * want.max(f32::MIN_POSITIVE),
                "exp({x}): {got} vs {want}"
            );
        }
        assert_eq!(exp_nonpos(0.0), 1.0);
        assert_eq!(exp_nonpos(-0.0), 1.0);
        assert_eq!(exp_nonpos(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp_nonpos(-200.0), 0.0);
        assert!(exp_nonpos(f32::NAN).is_nan());
    }

    #[test]
    fn tanh_tracks_libm_closely() {
        for i in -4000..4000 {
            let x = i as f32 * 0.005; // -20 .. 20
            let got = tanh(x);
            let want = x.tanh();
            assert!((got - want).abs() < 3e-7, "tanh({x}): {got} vs {want}");
        }
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert_eq!(tanh(20.0), 1.0);
        assert_eq!(tanh(-20.0), -1.0);
    }

    #[test]
    fn tier_is_stable_and_named() {
        let t = tier();
        assert_eq!(t, tier());
        assert!(!t.name().is_empty());
    }
}
