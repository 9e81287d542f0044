//! Multilayer perceptron with exact backpropagation.

use crate::{Activation, Linear, TransposedBatch};
use pfrl_tensor::{ops, Matrix};
use rand::Rng;

/// The input layer's fold: which input columns the network reads, and
/// the bias that stands in for the rest.
///
/// A caller whose inputs read `-1` in known columns (an Eq. 1 state's
/// `VOID` padding) declares the other, *live* columns with
/// [`Mlp::fold_inputs`]. Then `x · W + b = Σ_{p live} x[p] · W[p] + bias`
/// with `bias = b − Σ_{p folded} W[p]`, so the first-layer GEMM walks the
/// live rows of `W` only. `W` and `b` stay the model; the fold is derived
/// from them and recomputed by every writer of the parameters. An
/// undeclared network is the identity fold: every column live and
/// `bias == b` bit for bit.
#[derive(Debug, Clone)]
struct InputFold {
    /// Columns the input layer reads, strictly ascending.
    live: Vec<usize>,
    /// The complement of `live`, ascending: columns that always read `-1`.
    folded: Vec<usize>,
    /// `b − Σ_{p ∈ folded} W[p]` ([`ops::fold_bias_into`]).
    bias: Vec<f32>,
}

impl InputFold {
    /// The identity fold of `layer`; capacities are sized once, so no
    /// later declaration or refold allocates.
    fn identity(layer: &Linear) -> Self {
        let k = layer.in_dim();
        let bias = layer.b.clone();
        Self { live: (0..k).collect(), folded: Vec::with_capacity(k), bias }
    }

    /// Makes `live` (strictly ascending below `k`) the fold's column list
    /// and its complement the folded one, without recomputing `bias`;
    /// `false` when `live` already is the fold.
    ///
    /// # Panics
    /// If `live` is not strictly ascending below `k`.
    fn declare(&mut self, live: &[usize], k: usize) -> bool {
        if self.live == live {
            return false;
        }
        assert!(
            ops::is_row_list(live, k),
            "fold_inputs: live columns must be strictly ascending below {k}"
        );
        self.live.clear();
        self.live.extend_from_slice(live);
        self.folded.clear();
        let mut next = live.iter().peekable();
        for p in 0..k {
            if next.next_if_eq(&&p).is_none() {
                self.folded.push(p);
            }
        }
        true
    }

    /// Recomputes `bias` from the layer's current parameters.
    fn refold(&mut self, layer: &Linear) {
        ops::fold_bias_into(&layer.w, &layer.b, &self.folded, &mut self.bias);
    }

    /// Debug builds: panics unless every folded column of every row of
    /// `x` (rows of `k` values) reads `-1` — a network folded for one
    /// fleet and fed another's states would otherwise be silently wrong.
    fn debug_check(&self, x: &[f32], k: usize) {
        if cfg!(debug_assertions) && k > 0 {
            for row in x.chunks_exact(k) {
                for &p in &self.folded {
                    assert!(
                        row[p] == -1.0,
                        "input column {p} is folded as -1 but reads {}: \
                         the network is folded for another input layout",
                        row[p]
                    );
                }
            }
        }
    }
}

/// A feed-forward network: `Linear → act → … → Linear` (no activation on the
/// output layer, as required for both value heads and policy logits).
///
/// Training protocol: `forward_train` caches the hidden activations (and
/// their transposes, the next layer's `xᵀ`), then `backward` — given the
/// input batch transposed, which the caller holds once per batch —
/// accumulates parameter gradients, then an optimizer steps the layers in
/// place ([`crate::Adam::step_mlp`]).
///
/// The `_into` methods and `backward` take `&mut self` and route all
/// intermediate tensors through a private workspace (two ping-pong matrices
/// for batch activations/gradients, two row vectors for single-state
/// inference), so steady-state training and inference stop allocating after
/// the first same-shaped call. The classic `&self` methods stay as
/// allocating wrappers for cold paths; both produce bitwise-identical
/// results.
///
/// The input layer reads only the live columns declared by
/// [`Mlp::fold_inputs`] (all of them until then); a derived bias carries
/// the constant contribution of the others.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    fold: InputFold,
    /// Post-activation outputs of each hidden layer from the last
    /// `forward_train`, used by `backward`. Buffers are reused across
    /// calls (the `_into` kernels overwrite them in place).
    hidden_outputs: Vec<Matrix>,
    /// `hidden_outputs[i]ᵀ`: layer `i + 1`'s transposed input, the left
    /// operand of its `dW = xᵀ · dy`.
    hidden_t: Vec<TransposedBatch>,
    /// Ping-pong workspace matrices for `forward_into` activations and
    /// `backward` inter-layer gradients (never live at the same time).
    ws_a: Matrix,
    ws_b: Matrix,
    /// Row-vector workspace for `forward_one_into`.
    row_a: Vec<f32>,
    row_b: Vec<f32>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `&[538, 64, 9]` for the
    /// paper's single-hidden-layer scheduler networks.
    ///
    /// # Panics
    /// If fewer than two sizes are given.
    pub fn new(sizes: &[usize], activation: Activation, rng: &mut impl Rng) -> Self {
        assert!(sizes.len() >= 2, "Mlp needs at least input and output sizes");
        Self::with_layers(
            sizes.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect(),
            activation,
        )
    }

    /// Builds an MLP with the given layer sizes holding `params` (the
    /// [`Mlp::flat_params`] layout) — bitwise the network that
    /// [`Mlp::new`] followed by [`Mlp::set_flat_params`] gives, without
    /// drawing initial weights only to overwrite them.
    ///
    /// # Panics
    /// If fewer than two sizes are given, or `params` does not hold exactly
    /// the parameters of that shape.
    pub fn from_flat_params(sizes: &[usize], activation: Activation, params: &[f32]) -> Self {
        assert!(sizes.len() >= 2, "Mlp needs at least input and output sizes");
        let layers = sizes.windows(2).map(|w| Linear::zeros(w[0], w[1])).collect();
        let mut net = Self::with_layers(layers, activation);
        net.set_flat_params(params);
        net
    }

    /// Wraps built layers with the identity fold and empty workspaces.
    fn with_layers(layers: Vec<Linear>, activation: Activation) -> Self {
        Self {
            fold: InputFold::identity(&layers[0]),
            layers,
            activation,
            hidden_outputs: Vec::new(),
            hidden_t: Vec::new(),
            ws_a: Matrix::zeros(0, 0),
            ws_b: Matrix::zeros(0, 0),
            row_a: Vec::new(),
            row_b: Vec::new(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The hidden activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Layer sizes `[in, hidden…, out]`.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.layers.iter().map(Linear::in_dim).collect();
        s.push(self.out_dim());
        s
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Inference forward pass (no caching). Allocates; cold paths only —
    /// the hot path is [`Mlp::forward_into`].
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let last = self.layers.len() - 1;
        let mut h = Matrix::zeros(0, 0);
        input_layer_into(&self.layers[0], &self.fold, x, &mut h);
        for (i, layer) in self.layers.iter().enumerate() {
            if i > 0 {
                h = layer.forward(&h);
            }
            if i != last {
                self.activation.forward_inplace(&mut h);
            }
        }
        h
    }

    /// Inference forward pass into a reusable output buffer, routing
    /// intermediate activations through the internal workspace
    /// (allocation-free after warmup; bitwise identical to
    /// [`Mlp::forward`]).
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix) {
        let last = self.layers.len() - 1;
        let Mlp { layers, activation, fold, ws_a, ws_b, .. } = self;
        for (i, layer) in layers.iter().enumerate() {
            let dst = if i == last { &mut *out } else { &mut *ws_b };
            if i == 0 {
                input_layer_into(layer, fold, x, dst);
            } else {
                layer.forward_into(ws_a, dst);
            }
            if i != last {
                activation.forward_inplace(ws_b);
                std::mem::swap(ws_a, ws_b);
            }
        }
    }

    /// Convenience: forward pass on a single input vector (allocates).
    pub fn forward_one(&self, x: &[f32]) -> Vec<f32> {
        let m = Matrix::from_vec(1, x.len(), x.to_vec());
        self.forward(&m).into_vec()
    }

    /// Per-decision fast path: single-vector forward through the fused
    /// `matvec` + bias kernel into a reusable output vector, with no
    /// `Matrix` wrapping. Bitwise identical to [`Mlp::forward_one`].
    pub fn forward_one_into(&mut self, x: &[f32], out: &mut Vec<f32>) {
        let last = self.layers.len() - 1;
        let Mlp { layers, activation, fold, row_a, row_b, .. } = self;
        for (i, layer) in layers.iter().enumerate() {
            let dst = if i == last { &mut *out } else { &mut *row_b };
            if i == 0 {
                fold.debug_check(x, layer.in_dim());
                ops::matvec_bias_rows_into(x, &fold.live, &layer.w, &fold.bias, dst);
            } else {
                layer.forward_row_into(row_a, dst);
            }
            if i != last {
                activation.forward_slice_inplace(row_b);
                std::mem::swap(row_a, row_b);
            }
        }
    }

    /// Training forward pass: caches intermediate activations for `backward`.
    pub fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_train_into(x, &mut out);
        out
    }

    /// [`Mlp::forward_train`] into a reusable output buffer. The cached
    /// hidden activations and their transposes overwrite the buffers
    /// retained from the previous call instead of being freshly cloned.
    /// The input batch itself is not cached: [`Mlp::backward`] takes it.
    pub fn forward_train_into(&mut self, x: &Matrix, out: &mut Matrix) {
        let last = self.layers.len() - 1;
        self.hidden_outputs.resize_with(last, Matrix::default);
        self.hidden_t.resize_with(last, TransposedBatch::default);
        let Mlp { layers, activation, fold, hidden_outputs, hidden_t, .. } = self;
        for i in 0..layers.len() {
            let (prev, rest) = hidden_outputs.split_at_mut(i);
            let dst = if i == last { &mut *out } else { &mut rest[0] };
            if i == 0 {
                input_layer_into(&layers[0], fold, x, dst);
            } else {
                layers[i].forward_into(&prev[i - 1], dst);
            }
            if i != last {
                activation.forward_inplace(dst);
                hidden_t[i].set(dst);
            }
        }
    }

    /// Backward pass from the gradient of the loss w.r.t. the network output:
    /// accumulates parameter gradients into every layer. `x_t` is the
    /// transpose of the batch the last `forward_train` ran on; a caller that
    /// trains several epochs on one batch builds it once. Inter-layer
    /// gradients ping-pong through the internal workspace (which is free
    /// during the backward pass); the input layer skips its `dy · W₀ᵀ`
    /// product, because nothing reads the gradient w.r.t. the input batch.
    ///
    /// # Panics
    /// If no `forward_train` preceded it, or `x_t` does not have the shape
    /// `in_dim × batch`.
    pub fn backward(&mut self, x_t: &TransposedBatch, d_out: &Matrix) {
        let last = self.layers.len() - 1;
        assert_eq!(self.hidden_outputs.len(), last, "Mlp::backward called without forward_train");
        let Mlp { layers, activation, hidden_outputs, hidden_t, ws_a, ws_b, .. } = self;
        for i in (0..=last).rev() {
            if i != last {
                activation.backward_inplace(&hidden_outputs[i], ws_a);
            }
            let dy = if i == last { d_out } else { &*ws_a };
            let xt = if i == 0 { x_t } else { &hidden_t[i - 1] };
            layers[i].backward(xt, dy, (i > 0).then_some(&mut *ws_b));
            std::mem::swap(ws_a, ws_b);
        }
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grad(&mut self) {
        self.layers.iter_mut().for_each(Linear::zero_grad);
    }

    /// Flattens all parameters (layer by layer, `W` then `b`) into one vector.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.flat_params_into(&mut out);
        out
    }

    /// [`Mlp::flat_params`] into a reusable vector (cleared first; retains
    /// capacity across calls).
    pub fn flat_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for l in &self.layers {
            l.write_params(out);
        }
    }

    /// Loads parameters from a flat vector produced by [`Mlp::flat_params`]
    /// on an identically-shaped network.
    ///
    /// # Panics
    /// If the length does not exactly match [`Mlp::param_count`].
    pub fn set_flat_params(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "set_flat_params: expected {} scalars, got {}",
            self.param_count(),
            params.len()
        );
        debug_assert!(
            crate::params::validate_params(params).is_ok(),
            "set_flat_params: non-finite parameter — corruption at the source"
        );
        let mut rest = params;
        for l in &mut self.layers {
            rest = l.read_params(rest);
        }
        debug_assert!(rest.is_empty());
        self.refold();
    }

    /// Declares that the network's inputs read `-1` (the Eq. 1 `VOID`) in
    /// every column outside `live` (strictly ascending), so the input
    /// layer reads only the `live` columns and carries the rest in its
    /// folded bias `b − Σ_{p ∉ live} W[p]`. Callers keep passing
    /// full-width inputs. `W` and `b` are unchanged: parameters, gradients
    /// and [`Mlp::flat_params`] never see the fold, and the backward pass
    /// needs none (a folded column's `dW` row is `−Σ dy`, i.e. `−db`).
    ///
    /// Redeclaring the current fold is one slice compare; a new fold
    /// copies the list into buffers sized at construction and refolds the
    /// bias. Debug builds check every forward's inputs against the fold
    /// and panic on a folded column that does not read `-1`.
    ///
    /// # Panics
    /// If `live` is not strictly ascending below [`Mlp::in_dim`].
    pub fn fold_inputs(&mut self, live: &[usize]) {
        if self.fold.declare(live, self.layers[0].in_dim()) {
            self.refold();
        }
    }

    /// [`Mlp::fold_inputs`] and [`Mlp::set_flat_params`] in one, computing
    /// the folded bias once: reloading a network that served another fleet
    /// costs one refold, not two.
    ///
    /// # Panics
    /// As [`Mlp::fold_inputs`] and [`Mlp::set_flat_params`].
    pub fn set_flat_params_folded(&mut self, params: &[f32], live: &[usize]) {
        self.fold.declare(live, self.layers[0].in_dim());
        self.set_flat_params(params);
    }

    /// The input columns the input layer reads ([`Mlp::fold_inputs`]; all
    /// of them unless declared otherwise).
    pub fn live_inputs(&self) -> &[usize] {
        &self.fold.live
    }

    /// Exchanges the two networks' functions — layers (weights, with their
    /// gradients), activation and input fold — in O(1), while each keeps
    /// its own workspaces. A network whose buffers are sized for its
    /// caller's batches takes on the other's weights without copying them
    /// and without allocating on its next same-shaped forward.
    pub fn swap_weights(&mut self, other: &mut Mlp) {
        std::mem::swap(&mut self.layers, &mut other.layers);
        std::mem::swap(&mut self.activation, &mut other.activation);
        std::mem::swap(&mut self.fold, &mut other.fold);
    }

    /// Recomputes the folded input bias after a parameter write.
    pub(crate) fn refold(&mut self) {
        self.fold.refold(&self.layers[0]);
    }

    /// Flattens all accumulated gradients in the same order as
    /// [`Mlp::flat_params`].
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            l.write_grads(&mut out);
        }
        out
    }

    /// Direct access to the layers (used by tests and diagnostics).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable layers, for the optimizer's in-place step.
    pub(crate) fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }
}

/// The input layer's forward: `out = x[:, live] · W[live] + folded bias`.
fn input_layer_into(layer: &Linear, fold: &InputFold, x: &Matrix, out: &mut Matrix) {
    fold.debug_check(x.as_slice(), x.cols());
    ops::matmul_bias_rows_into(x, &fold.live, &layer.w, &fold.bias, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mlp(sizes: &[usize], seed: u64) -> Mlp {
        Mlp::new(sizes, Activation::Tanh, &mut SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn shapes_and_param_count() {
        let net = mlp(&[5, 8, 3], 1);
        assert_eq!(net.in_dim(), 5);
        assert_eq!(net.out_dim(), 3);
        assert_eq!(net.param_count(), 5 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.sizes(), vec![5, 8, 3]);
        let y = net.forward(&Matrix::zeros(4, 5));
        assert_eq!(y.shape(), (4, 3));
    }

    #[test]
    fn forward_one_matches_batch_forward() {
        let net = mlp(&[3, 6, 2], 2);
        let x = [0.5, -0.25, 1.0];
        let single = net.forward_one(&x);
        let batch = net.forward(&Matrix::from_vec(1, 3, x.to_vec()));
        assert_eq!(single, batch.into_vec());
    }

    #[test]
    fn forward_train_equals_forward() {
        let mut net = mlp(&[4, 7, 7, 2], 3);
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4], &[-1.0, 0.0, 1.0, 2.0]]);
        let a = net.forward(&x);
        let b = net.forward_train(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn param_roundtrip_preserves_outputs() {
        let net = mlp(&[6, 10, 4], 4);
        let mut other = mlp(&[6, 10, 4], 99);
        let x = Matrix::from_rows(&[&[0.1; 6]]);
        assert_ne!(net.forward(&x), other.forward(&x));
        other.set_flat_params(&net.flat_params());
        assert_eq!(net.forward(&x), other.forward(&x));
    }

    #[test]
    fn from_flat_params_equals_new_then_set() {
        let src = mlp(&[6, 10, 4], 4);
        let params = src.flat_params();
        let mut want = mlp(&[6, 10, 4], 99);
        want.set_flat_params(&params);
        let built = Mlp::from_flat_params(&[6, 10, 4], Activation::Tanh, &params);
        assert_eq!(built.flat_params(), params);
        assert_eq!(built.flat_grads(), want.flat_grads());
        assert_eq!(built.fold.bias, want.fold.bias);
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 1.0, -1.0, 0.5]]);
        assert_eq!(built.forward(&x), want.forward(&x));
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn from_flat_params_rejects_wrong_length() {
        Mlp::from_flat_params(&[2, 2], Activation::Tanh, &[0.0; 5]);
    }

    /// `swap_weights` moves each network's function, fold included, to
    /// the other and leaves each network's workspace where it was.
    #[test]
    fn swap_weights_exchanges_functions_not_workspaces() {
        let mut a = mlp(&[3, 5, 2], 1);
        let mut b = mlp(&[3, 5, 2], 2);
        b.fold_inputs(&[0, 2]);
        let x = Matrix::from_rows(&[&[0.5, -1.0, 0.25], &[1.0, -1.0, -0.5]]);
        let (fa, fb) = (a.forward(&x), b.forward(&x));
        let mut out = Matrix::zeros(0, 0);
        // Two forwards size both workspace matrices, which every forward
        // ping-pongs; compare them as a set.
        a.forward_into(&x, &mut out);
        a.forward_into(&x, &mut out);
        let ws = |n: &Mlp| {
            let mut p = [n.ws_a.as_slice().as_ptr(), n.ws_b.as_slice().as_ptr()];
            p.sort();
            p
        };
        let before = ws(&a);
        a.swap_weights(&mut b);
        assert_eq!(a.live_inputs(), &[0, 2]);
        assert_eq!(b.live_inputs(), &[0, 1, 2]);
        assert_eq!((a.forward(&x), b.forward(&x)), (fb, fa.clone()));
        a.forward_into(&x, &mut out);
        assert_eq!(ws(&a), before, "the workspace stays put");
        b.forward_into(&x, &mut out);
        assert_eq!(out, fa);
    }

    /// `x · W + b` with input column 1 folded as `-1`: the folded bias
    /// is `b − W[1]`, and the live columns carry the rest.
    #[test]
    fn fold_hand_example() {
        let mut net = mlp(&[3, 2], 0);
        assert_eq!(net.live_inputs(), &[0, 1, 2]);
        net.set_flat_params(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5, -0.5]);
        net.fold_inputs(&[0, 2]);
        assert_eq!(net.fold.bias, [0.5 - 3.0, -0.5 - 4.0]);
        // 2·[1, 2] + 0.5·[5, 6] + [−2.5, −4.5], equal to the unfolded
        // 2·[1, 2] − [3, 4] + 0.5·[5, 6] + [0.5, −0.5].
        let x = [2.0, -1.0, 0.5];
        assert_eq!(net.forward_one(&x), [2.0, 2.5]);
        // Every parameter writer refolds.
        net.set_flat_params(&[1.0, 2.0, 1.0, 1.0, 5.0, 6.0, 0.0, 0.0]);
        assert_eq!(net.fold.bias, [-1.0, -1.0]);
        assert_eq!(net.forward_one(&x), [3.5, 6.0]);
        let mut opt = crate::Adam::new(net.param_count(), 0.5);
        let batch = Matrix::from_rows(&[&x]);
        let out = net.forward_train(&batch);
        net.zero_grad();
        net.backward(&TransposedBatch::of(&batch), &out);
        opt.step_mlp(&mut net);
        let p = net.flat_params();
        assert_eq!(net.fold.bias, [p[6] - p[2], p[7] - p[3]]);
        // Redeclaring every column live restores the plain layer.
        net.fold_inputs(&[0, 1, 2]);
        assert_eq!(net.fold.bias, [p[6], p[7]]);
    }

    /// Loading a network folded for another fleet in one call equals
    /// refolding and then loading, bit for bit.
    #[test]
    fn set_flat_params_folded_equals_fold_then_load() {
        let params = mlp(&[4, 3, 2], 9).flat_params();
        let (mut one, mut two) = (mlp(&[4, 3, 2], 1), mlp(&[4, 3, 2], 1));
        for (old, new) in [(&[0, 1][..], &[1, 3][..]), (&[1, 3], &[1, 3]), (&[2], &[0, 1, 2, 3])] {
            one.fold_inputs(old);
            two.fold_inputs(old);
            one.set_flat_params_folded(&params, new);
            two.fold_inputs(new);
            two.set_flat_params(&params);
            assert_eq!(one.live_inputs(), new);
            assert_eq!((&one.fold.folded, &one.fold.bias), (&two.fold.folded, &two.fold.bias));
            assert_eq!(one.flat_params(), params);
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn fold_rejects_unsorted_columns() {
        mlp(&[3, 2], 0).fold_inputs(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn set_flat_params_rejects_wrong_length() {
        let mut net = mlp(&[2, 2], 0);
        net.set_flat_params(&[0.0; 3]);
    }

    /// The load-bearing test: analytic gradients vs central finite
    /// differences for a scalar loss `L = Σ out²/2` over a small batch.
    #[test]
    fn backward_matches_finite_differences() {
        let mut net = mlp(&[3, 5, 2], 7);
        let x = Matrix::from_rows(&[&[0.3, -0.6, 0.9], &[1.2, 0.4, -0.8]]);

        let loss = |net: &Mlp| -> f64 {
            let out = net.forward(&x);
            out.as_slice().iter().map(|&v| (v as f64) * (v as f64) / 2.0).sum()
        };

        // Analytic: dL/d_out = out.
        let out = net.forward_train(&x);
        net.zero_grad();
        net.backward(&TransposedBatch::of(&x), &out);
        let analytic = net.flat_grads();

        let base = net.flat_params();
        let eps = 1e-3f32;
        for idx in (0..base.len()).step_by(7) {
            let mut p = base.clone();
            p[idx] += eps;
            net.set_flat_params(&p);
            let plus = loss(&net);
            p[idx] -= 2.0 * eps;
            net.set_flat_params(&p);
            let minus = loss(&net);
            let fd = ((plus - minus) / (2.0 * eps as f64)) as f32;
            assert!(
                (analytic[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "param {idx}: analytic {} vs fd {}",
                analytic[idx],
                fd
            );
        }
    }

    #[test]
    fn adam_training_solves_xor() {
        let mut net = mlp(&[2, 16, 1], 21);
        let mut opt = crate::Adam::new(net.param_count(), 0.05);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let xt = TransposedBatch::of(&x);
        let targets = [0.0f32, 1.0, 1.0, 0.0]; // XOR
        let mse = |net: &Mlp| -> f32 {
            let out = net.forward(&x);
            (0..4).map(|i| (out[(i, 0)] - targets[i]).powi(2)).sum::<f32>() / 4.0
        };
        let before = mse(&net);
        for _ in 0..1000 {
            let out = net.forward_train(&x);
            let mut d = Matrix::zeros(4, 1);
            for i in 0..4 {
                d[(i, 0)] = 2.0 * (out[(i, 0)] - targets[i]) / 4.0;
            }
            net.zero_grad();
            net.backward(&xt, &d);
            opt.step_mlp(&mut net);
        }
        let after = mse(&net);
        assert!(after < 0.01 && after < before, "XOR mse {before} -> {after}");
    }
}
