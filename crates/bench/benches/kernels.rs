//! Criterion microbenchmarks of the tensor kernels behind the hot path:
//! every matmul variant (allocating vs `_into`), single-row matvec, fused
//! vs unfused linear forward at PPO shapes, the input layer on encoded
//! states, and the attention Q·Kᵀ score product. Shapes mirror the PPO
//! minibatch (`batch × 64 × 64`) and the per-decision row (`1 × state_dim`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pfrl_core::nn::{Activation, Linear, Mlp, TransposedBatch};
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::sim::{Action, CloudEnv, EnvConfig};
use pfrl_core::tensor::{ops, Matrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

fn bench_matmul_variants(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut group = c.benchmark_group("kernels/matmul");
    for &batch in &[32usize, 128, 512] {
        let a = random_matrix(batch, 64, &mut rng);
        let b = random_matrix(64, 64, &mut rng);

        group.bench_function(BenchmarkId::new("alloc", batch), |bench| {
            bench.iter(|| black_box(ops::matmul(black_box(&a), black_box(&b))));
        });
        group.bench_function(BenchmarkId::new("into", batch), |bench| {
            let mut out = Matrix::default();
            ops::matmul_into(&a, &b, &mut out);
            bench.iter(|| {
                ops::matmul_into(black_box(&a), black_box(&b), &mut out);
                black_box(out.as_slice()[0])
            });
        });

        // Weight gradient as `Linear` runs it (`dW = xᵀ · dy`, x and dy both
        // `batch × 64`): transpose the input, then the dispatched GEMM.
        group.bench_function(BenchmarkId::new("dw_into", batch), |bench| {
            let (mut xt, mut out) = (Matrix::default(), Matrix::default());
            bench.iter(|| {
                ops::transpose_into(black_box(&a), &mut xt);
                ops::matmul_into(&xt, black_box(&a), &mut out);
                black_box(out.as_slice()[0])
            });
        });

        // bᵀ-form: backward `dy · Wᵀ` and attention scores.
        let bt = b.transposed();
        group.bench_function(BenchmarkId::new("transpose_b_alloc", batch), |bench| {
            bench.iter(|| black_box(ops::matmul_transpose_b(black_box(&a), black_box(&bt))));
        });
        group.bench_function(BenchmarkId::new("transpose_b_into", batch), |bench| {
            let (mut out, mut scratch) = (Matrix::default(), Matrix::default());
            ops::matmul_transpose_b_into(&a, &bt, &mut out, &mut scratch);
            bench.iter(|| {
                ops::matmul_transpose_b_into(black_box(&a), black_box(&bt), &mut out, &mut scratch);
                black_box(out.as_slice()[0])
            });
        });
    }
    group.finish();
}

fn bench_matvec(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(11);
    let w = random_matrix(64, 64, &mut rng);
    let x: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect();

    c.bench_function("kernels/matvec/alloc", |b| {
        b.iter(|| black_box(ops::matvec(black_box(&x), black_box(&w))));
    });
    c.bench_function("kernels/matvec/into", |b| {
        let mut out = Vec::new();
        ops::matvec_into(&x, &w, &mut out);
        b.iter(|| {
            ops::matvec_into(black_box(&x), black_box(&w), &mut out);
            black_box(out[0])
        });
    });
}

fn bench_linear_fused(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(13);
    let layer = Linear::new(64, 64, &mut rng);
    let mut group = c.benchmark_group("kernels/linear_64x64");
    for &batch in &[32usize, 128, 512] {
        let x = random_matrix(batch, 64, &mut rng);

        // Unfused baseline: matmul then a second broadcast-add pass.
        group.bench_function(BenchmarkId::new("unfused", batch), |bench| {
            bench.iter(|| black_box(layer.forward(black_box(&x))));
        });
        // Fused: zero + accumulate + bias in one row pass into a workspace.
        group.bench_function(BenchmarkId::new("fused_into", batch), |bench| {
            let mut out = Matrix::default();
            layer.forward_into(&x, &mut out);
            bench.iter(|| {
                layer.forward_into(black_box(&x), &mut out);
                black_box(out.as_slice()[0])
            });
        });
    }
    group.finish();

    let x_row: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect();
    c.bench_function("kernels/linear_64x64/row_into", |b| {
        let mut out = Vec::new();
        layer.forward_row_into(&x_row, &mut out);
        b.iter(|| {
            layer.forward_row_into(black_box(&x_row), &mut out);
            black_box(out[0])
        });
    });
}

/// `rows` consecutive Eq. 1 states (`rows × 180`) from first-fit episodes
/// on the first Table 2 client: the input batches of a PPO update, with
/// their `-1` padding and idle-vCPU zeros, unlike the dense random
/// matrices above.
fn table2_states(rows: usize) -> Matrix {
    let setup = &table2_clients(400, 0)[0];
    let dim = TABLE2_DIMS.state_dim();
    let mut env = CloudEnv::new(TABLE2_DIMS, setup.vms.clone(), EnvConfig::default());
    let tasks = &setup.train_tasks[..50];
    let (mut data, mut state) = (Vec::with_capacity(rows * dim), Vec::new());
    env.reset(tasks.to_vec());
    while data.len() < rows * dim {
        env.observe_into(&mut state);
        data.extend_from_slice(&state);
        if env.step(env.first_fit_action().unwrap_or(Action::Wait)).done {
            env.reset(tasks.to_vec());
        }
    }
    Matrix::from_vec(rows, dim, data)
}

fn bench_input_layer_on_states(c: &mut Criterion) {
    // The input layer (180 → 64) as a PPO update runs it: the training
    // forward over the batch states, the weight-gradient GEMM `dW = xᵀ · dy`
    // over their full transpose, and the layer's backward, which runs that
    // GEMM over the transpose's distinct rows only.
    let mut rng = SmallRng::seed_from_u64(29);
    let layer = Linear::new(TABLE2_DIMS.state_dim(), 64, &mut rng);
    let mut group = c.benchmark_group("kernels/input_layer_table2");
    for &batch in &[32usize, 128] {
        let x = table2_states(batch);
        let (xt, xt_distinct) = (x.transposed(), TransposedBatch::of(&x));
        let dy = random_matrix(batch, 64, &mut rng);
        let frac = |v: f32| {
            let hits = x.as_slice().iter().filter(|&&e| e.to_bits() == v.to_bits()).count();
            100.0 * hits as f64 / x.len() as f64
        };
        println!(
            "# table2 states, batch {batch}: {:.0}% -1, {:.0}% 0, {} of {} xT rows distinct",
            frac(-1.0),
            frac(0.0),
            xt_distinct.distinct_rows().rows(),
            xt.rows()
        );

        group.bench_function(BenchmarkId::new("forward_into", batch), |bench| {
            let mut out = Matrix::default();
            bench.iter(|| {
                layer.forward_into(black_box(&x), &mut out);
                black_box(out.as_slice()[0])
            });
        });
        group.bench_function(BenchmarkId::new("dw_into", batch), |bench| {
            let mut out = Matrix::default();
            bench.iter(|| {
                ops::matmul_into(black_box(&xt), black_box(&dy), &mut out);
                black_box(out.as_slice()[0])
            });
        });
        group.bench_function(BenchmarkId::new("backward", batch), |bench| {
            let mut layer = layer.clone();
            bench.iter(|| {
                layer.backward(black_box(&xt_distinct), black_box(&dy), None);
                black_box(layer.dw.as_slice()[0])
            });
        });
    }
    group.finish();
}

fn bench_attention_scores(c: &mut Criterion) {
    // Q·Kᵀ at the attention-weight generator's working shape: one query row
    // per client and the shared key bank (clients × d_k).
    let mut rng = SmallRng::seed_from_u64(17);
    let q = random_matrix(16, 32, &mut rng);
    let k = random_matrix(16, 32, &mut rng);

    c.bench_function("kernels/attention_qkt/alloc", |b| {
        b.iter(|| black_box(ops::matmul_transpose_b(black_box(&q), black_box(&k))));
    });
    c.bench_function("kernels/attention_qkt/into", |b| {
        let (mut out, mut scratch) = (Matrix::default(), Matrix::default());
        ops::matmul_transpose_b_into(&q, &k, &mut out, &mut scratch);
        b.iter(|| {
            ops::matmul_transpose_b_into(black_box(&q), black_box(&k), &mut out, &mut scratch);
            black_box(out.as_slice()[0])
        });
    });
}

fn bench_attention_scale(c: &mut Criterion) {
    // The full multi-head attention weight generator at federation scale:
    // dense softmax over all K client tokens vs the top-k sparse path
    // (paper-default k = 8). Parameter length mirrors a small public
    // critic; the `_into` workspace form is used so the measurement is the
    // steady-state aggregation cost, not first-round allocation.
    use pfrl_core::nn::{multi_head_attention_weights_into, AttentionScratch, MultiHeadConfig};

    let mut rng = SmallRng::seed_from_u64(23);
    let mut group = c.benchmark_group("kernels/attention_scale");
    for &k in &[4usize, 64, 256] {
        let params: Vec<Vec<f32>> =
            (0..k).map(|_| (0..257).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        for (name, top_k) in [("dense", None), ("top8", Some(MultiHeadConfig::PAPER_TOP_K))] {
            let cfg = MultiHeadConfig { top_k, ..Default::default() };
            group.bench_function(BenchmarkId::new(name, k), |bench| {
                let mut ws = AttentionScratch::new();
                let mut out = Matrix::default();
                multi_head_attention_weights_into(&params, &cfg, false, &mut ws, &mut out);
                bench.iter(|| {
                    multi_head_attention_weights_into(
                        black_box(&params),
                        &cfg,
                        false,
                        &mut ws,
                        &mut out,
                    );
                    black_box(out.as_slice()[0])
                });
            });
        }
    }
    group.finish();
}

fn bench_mlp_one(c: &mut Criterion) {
    // The per-decision path: one forward through the PPO actor shape.
    let mut rng = SmallRng::seed_from_u64(19);
    let mut net = Mlp::new(&[39, 64, 64, 11], Activation::Tanh, &mut rng);
    let x: Vec<f32> = (0..39).map(|_| rng.gen_range(-1.0..1.0)).collect();

    c.bench_function("kernels/mlp_forward_one/alloc", |b| {
        b.iter(|| black_box(net.forward_one(black_box(&x))));
    });
    c.bench_function("kernels/mlp_forward_one/into", |b| {
        let mut out = Vec::new();
        net.forward_one_into(&x, &mut out);
        b.iter(|| {
            net.forward_one_into(black_box(&x), &mut out);
            black_box(out[0])
        });
    });
}

criterion_group!(
    benches,
    bench_matmul_variants,
    bench_matvec,
    bench_linear_fused,
    bench_input_layer_on_states,
    bench_attention_scores,
    bench_attention_scale,
    bench_mlp_one
);
criterion_main!(benches);
