//! A tiny neural-network stack sufficient for the PFRL-DM paper: multilayer
//! perceptrons with exact hand-derived backpropagation, the Adam optimizer,
//! parameter flattening for federated exchange, and scaled-dot-product
//! multi-head attention for the server-side aggregator.
//!
//! Everything is deterministic given a seed and verified against finite
//! differences in the test suite, which is what makes the federated
//! experiments bit-for-bit reproducible (the paper's PyTorch stack cannot
//! promise that across GPUs).
//!
//! # Example
//!
//! ```
//! use pfrl_nn::{Activation, Adam, Mlp, TransposedBatch};
//! use pfrl_tensor::Matrix;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // Fit y = 2x on a few points with a 1-hidden-layer tanh MLP.
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, &mut rng);
//! let mut opt = Adam::new(net.param_count(), 1e-2);
//! let x = Matrix::from_rows(&[&[0.0], &[0.25], &[0.5], &[0.75]]);
//! let xt = TransposedBatch::of(&x); // the backward pass takes the batch transposed
//! let y = [0.0f32, 0.5, 1.0, 1.5];
//! for _ in 0..500 {
//!     let out = net.forward_train(&x);
//!     let mut grad = Matrix::zeros(4, 1);
//!     for i in 0..4 {
//!         grad[(i, 0)] = 2.0 * (out[(i, 0)] - y[i]) / 4.0;
//!     }
//!     net.zero_grad();
//!     net.backward(&xt, &grad);
//!     opt.step_mlp(&mut net);
//! }
//! let pred = net.forward(&Matrix::from_rows(&[&[0.5]]));
//! assert!((pred[(0, 0)] - 1.0).abs() < 0.05);
//! ```

pub mod activation;
pub mod adam;
pub mod attention;
pub mod linear;
pub mod mlp;
pub mod params;

pub use activation::Activation;
pub use adam::{Adam, AdamState};
pub use attention::{
    multi_head_attention_weights, multi_head_attention_weights_into, scaled_dot_product_attention,
    AttentionScratch, MultiHeadConfig,
};
pub use linear::{Linear, TransposedBatch};
pub use mlp::Mlp;
pub use params::{
    apply_mixing_matrix_into, average_params, average_params_into, coordinate_median_into, l2_norm,
    norm_clipped_mean_into, trimmed_mean_into, validate_params, validate_params_in_band,
    weighted_combination, weighted_combination_into, ParamFault,
};
