//! Bit-identity of the *parallel* aggregation path at federation scale:
//! with `FedConfig::parallel` on, the PFRL-DM aggregator standardizes
//! tokens, runs the per-head attention, and applies the mixing matrix on
//! the rayon pool — and must produce exactly the float stream of the
//! sequential path at K=128, dense and top-k alike. This is the
//! aggregation-side counterpart of the training-side invariance proved by
//! `tests/scenario_determinism.rs`.

use pfrl_core::fed::{ClientSetup, FedConfig, PfrlDmRunner};
use pfrl_core::nn::params::apply_mixing_matrix_into;
use pfrl_core::nn::{multi_head_attention_weights_into, AttentionScratch, MultiHeadConfig};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::{EnvConfig, EnvDims, VmSpec};
use pfrl_core::tensor::Matrix;
use pfrl_core::workloads::DatasetId;

fn dims() -> EnvDims {
    EnvDims::new(2, 8, 64.0, 3)
}

fn runner(n: usize, parallel: bool, top_k: Option<usize>) -> PfrlDmRunner {
    let setups: Vec<ClientSetup> = (0..n)
        .map(|i| ClientSetup {
            name: format!("client{i}"),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: DatasetId::K8s.model().sample(8, 7000 + i as u64),
        })
        .collect();
    let fed = FedConfig {
        episodes: 2,
        comm_every: 1,
        participation_k: n,
        tasks_per_episode: Some(8),
        seed: 1234,
        parallel,
    };
    let att = MultiHeadConfig { top_k, ..Default::default() };
    PfrlDmRunner::with_attention(
        setups,
        dims(),
        EnvConfig::default(),
        PpoConfig::default(),
        fed,
        att,
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn k128_parallel_aggregation_is_bit_identical_to_sequential() {
    for top_k in [None, Some(MultiHeadConfig::PAPER_TOP_K)] {
        let mut seq = runner(128, false, top_k);
        let mut par = runner(128, true, top_k);
        for _ in 0..2 {
            seq.aggregate();
            par.aggregate();
        }
        assert_eq!(seq.weight_history().len(), par.weight_history().len());
        for (ws, wp) in seq.weight_history().iter().zip(par.weight_history()) {
            assert_eq!(ws.shape(), (128, 128));
            for r in 0..ws.rows() {
                assert_eq!(
                    bits(ws.row(r)),
                    bits(wp.row(r)),
                    "top_k={top_k:?}: mixing weights diverge at row {r}"
                );
            }
        }
        for (a, b) in seq.clients.iter().zip(&par.clients) {
            assert_eq!(
                bits(&a.agent.public_critic_params()),
                bits(&b.agent.public_critic_params()),
                "top_k={top_k:?}: personalized critics diverge for {}",
                a.name
            );
        }
    }
}

/// The kernels alone, at K=256 with an awkward (non-multiple-of-threads)
/// parameter length: parallel standardization, per-head scoring, and
/// parallel mixing all reproduce the sequential float stream bit for bit.
#[test]
fn kernel_level_parallel_paths_match_sequential_bitwise() {
    let k = 256;
    let p = 131;
    let params: Vec<Vec<f32>> =
        (0..k).map(|i| (0..p).map(|j| ((i * p + j) as f32 * 0.37).sin()).collect()).collect();
    let cfg = MultiHeadConfig { top_k: Some(9), ..Default::default() };

    let (mut ws_s, mut ws_p) = (AttentionScratch::new(), AttentionScratch::new());
    let (mut w_s, mut w_p) = (Matrix::default(), Matrix::default());
    multi_head_attention_weights_into(&params, &cfg, false, &mut ws_s, &mut w_s);
    multi_head_attention_weights_into(&params, &cfg, true, &mut ws_p, &mut w_p);
    for r in 0..k {
        assert_eq!(bits(w_s.row(r)), bits(w_p.row(r)), "attention scores diverge at row {r}");
    }

    let (mut out_s, mut out_p) = (Vec::new(), Vec::new());
    apply_mixing_matrix_into(&w_s, &params, false, &mut out_s);
    apply_mixing_matrix_into(&w_s, &params, true, &mut out_p);
    for (r, (a, b)) in out_s.iter().zip(&out_p).enumerate() {
        assert_eq!(bits(a), bits(b), "mixed parameters diverge at row {r}");
    }
}
