//! The paper's motivating scenario (Sec. 1): several private clouds —
//! think banks that cannot share workload logs — collaboratively train
//! schedulers without exposing their data.
//!
//! Four heterogeneous clients (the paper's Table 2 environments) train
//! under PFRL-DM and under plain FedAvg; the example prints the mean
//! reward curve of both federations plus the attention weights of the
//! final round, showing who the aggregator considers similar to whom.
//!
//! Run with:
//! ```text
//! cargo run --release --example federated_bank_clouds
//! ```

use pfrl_dm::experiment::{run_federation, Algorithm};
use pfrl_dm::fed::{FedConfig, PfrlDmRunner};
use pfrl_dm::presets::{table2_clients, TABLE2_DIMS};
use pfrl_dm::rl::PpoConfig;
use pfrl_dm::sim::EnvConfig;

fn main() {
    let fed_cfg = FedConfig {
        episodes: 90,
        comm_every: 15,
        participation_k: 2, // K = N/2
        tasks_per_episode: Some(60),
        seed: 1,
        parallel: true,
    };

    println!("training 4 bank clouds (Table 2 presets), 90 episodes, comm every 15…\n");
    let mut results = Vec::new();
    for alg in [Algorithm::PfrlDm, Algorithm::FedAvg] {
        let setups = table2_clients(600, 0);
        let (curves, trained) = run_federation(
            alg,
            setups,
            TABLE2_DIMS,
            EnvConfig::default(),
            PpoConfig::default(),
            fed_cfg,
        );
        results.push((alg, curves, trained));
    }

    println!("{:<10} mean training reward (smoothed, window 10)", "episode");
    let c0 = results[0].1.smoothed_mean_curve(10);
    let c1 = results[1].1.smoothed_mean_curve(10);
    for e in (0..c0.len()).step_by(10) {
        println!("{e:<10} PFRL-DM {:>8.1}   FedAvg {:>8.1}", c0[e], c1[e]);
    }
    println!(
        "\nfinal-15 mean reward: PFRL-DM {:.1} vs FedAvg {:.1}",
        results[0].1.final_mean(15),
        results[1].1.final_mean(15)
    );

    // Inspect the last round's attention weights: who listened to whom
    // (algorithm-specific state, so reach past the uniform trait).
    if let Some(runner) = results[0].2.downcast_ref::<PfrlDmRunner>() {
        if let Some(w) = runner.weight_history().last() {
            let round = runner.weight_history().len();
            let participants = &runner.participant_history()[round - 1];
            println!("\nround {round} attention weights (participants {participants:?}):");
            for r in 0..w.rows() {
                let row: Vec<String> = (0..w.cols()).map(|c| format!("{:.3}", w[(r, c)])).collect();
                println!("  client {} -> [{}]", participants[r], row.join(", "));
            }
        }
    }
}
