//! The input-layer fold on real Eq. 1 states: a network folded for a
//! fleet's live columns computes what the unfolded network computes, its
//! gradients need no fold, and feeding it another fleet's states is caught.

use pfrl_core::nn::{Activation, Mlp, TransposedBatch};
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::sim::{Action, CloudEnv, EnvConfig};
use pfrl_core::tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Up to `rows` first-fit states of each Table 2 client, with its env.
fn table2_states(rows: usize) -> Vec<(CloudEnv, Matrix)> {
    table2_clients(60, 7)
        .into_iter()
        .map(|setup| {
            let mut env = CloudEnv::new(TABLE2_DIMS, setup.vms, EnvConfig::default());
            env.reset(setup.train_tasks);
            let mut data = Vec::new();
            let mut state = Vec::new();
            while !env.is_done() && data.len() < rows * TABLE2_DIMS.state_dim() {
                env.observe_into(&mut state);
                data.extend_from_slice(&state);
                env.step(env.first_fit_action().unwrap_or(Action::Wait));
            }
            let n = data.len() / TABLE2_DIMS.state_dim();
            (env, Matrix::from_vec(n, TABLE2_DIMS.state_dim(), data))
        })
        .collect()
}

/// An actor-shaped network with every parameter, biases included, drawn
/// at random (a fresh network's zero biases would hide a wrong fold).
fn actor(seed: u64) -> Mlp {
    let dims = TABLE2_DIMS;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Mlp::new(&[dims.state_dim(), 64, dims.action_dim()], Activation::Tanh, &mut rng);
    let params: Vec<f32> = (0..net.param_count()).map(|_| rng.gen_range(-0.3..0.3)).collect();
    net.set_flat_params(&params);
    net
}

#[test]
fn folded_actor_matches_the_unfolded_layers_on_table2_states() {
    for (k, (env, states)) in table2_states(48).into_iter().enumerate() {
        let mut net = actor(k as u64);
        net.fold_inputs(env.live_columns());
        assert!(net.live_inputs().len() < states.cols(), "client {k} has void columns");
        let [input, head] = net.layers() else { panic!("one hidden layer") };
        let mut hidden = Matrix::zeros(0, 0);
        input.forward_into(&states, &mut hidden);
        Activation::Tanh.forward_inplace(&mut hidden);
        let mut want = Matrix::zeros(0, 0);
        head.forward_into(&hidden, &mut want);

        let mut got = Matrix::zeros(0, 0);
        net.forward_into(&states, &mut got);
        let mut row = Vec::new();
        for i in 0..states.rows() {
            net.forward_one_into(states.row(i), &mut row);
            assert_eq!(row.as_slice(), got.row(i), "client {k} row {i}: one-row vs batch");
            for (g, w) in got.row(i).iter().zip(want.row(i)) {
                assert!((g - w).abs() <= 1e-5, "client {k} row {i}: {g} vs unfolded {w}");
            }
        }
        assert_eq!(net.forward(&states), got, "client {k}: allocating forward");
        assert_eq!(net.forward_train(&states), got, "client {k}: training forward");
    }
}

#[test]
fn void_rows_of_the_input_gradient_equal_minus_db() {
    let mut rng = SmallRng::seed_from_u64(3);
    for (k, (env, states)) in table2_states(40).into_iter().enumerate() {
        let mut net = actor(10 + k as u64);
        net.fold_inputs(env.live_columns());
        let out = net.forward_train(&states);
        let d_out = Matrix::from_vec(
            out.rows(),
            out.cols(),
            (0..out.len()).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        net.zero_grad();
        net.backward(&TransposedBatch::of(&states), &d_out);
        let input = &net.layers()[0];
        let minus_db: Vec<u32> = input.db.iter().map(|v| (-v).to_bits()).collect();
        let live = net.live_inputs();
        let mut folded = 0;
        for p in (0..states.cols()).filter(|p| live.binary_search(p).is_err()) {
            let row: Vec<u32> = input.dw.row(p).iter().map(|v| v.to_bits()).collect();
            assert_eq!(row, minus_db, "client {k} void column {p}");
            folded += 1;
        }
        assert!(folded >= 48, "client {k}: {folded} void columns");
    }
}

/// A network folded for Client2-Alibaba2017 (3 VMs) reads Client1-Google
/// states (5 VMs), whose VM slots 4 and 5 are not void: debug builds stop
/// it instead of serving a silently wrong forward.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "folded for another input layout")]
fn a_fold_for_another_fleet_is_caught() {
    let clients = table2_states(4);
    let (google, alibaba) = (&clients[0], &clients[1]);
    assert_eq!((google.0.vm_specs().len(), alibaba.0.vm_specs().len()), (5, 3));
    let mut net = actor(1);
    net.fold_inputs(alibaba.0.live_columns());
    let mut logits = Vec::new();
    net.forward_one_into(google.1.row(0), &mut logits);
}
