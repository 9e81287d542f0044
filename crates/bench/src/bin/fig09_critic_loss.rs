//! Figure 9: the aggregated critic evaluates local trajectories worse than
//! the pre-aggregation local critics (Sec. 3.2).
//!
//! During a FedAvg run, the mean critic MSE on each client's own last
//! episode is probed immediately before and after every aggregation.

use pfrl_bench::{emit, start};
use pfrl_core::csv_row;
use pfrl_core::fed::FedAvgRunner;
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::EnvConfig;

fn main() {
    let scale = start("fig09_critic_loss", "Fig. 9: critic loss before/after aggregation");
    let fed_cfg = scale.fed_exploratory(4, 9);
    let mut runner = FedAvgRunner::new(
        table2_clients(scale.samples, 7),
        TABLE2_DIMS,
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg,
    );
    runner.train();

    let mut rows = vec![csv_row!["round", "loss_before_aggregation", "loss_after_aggregation"]];
    let mut worse = 0;
    for p in runner.loss_probes() {
        rows.push(csv_row![
            p.round,
            format!("{:.4}", p.loss_before),
            format!("{:.4}", p.loss_after)
        ]);
        if p.loss_after > p.loss_before {
            worse += 1;
        }
    }
    emit("fig09_critic_loss", &rows);
    eprintln!(
        "# aggregation worsened the critic in {worse}/{} rounds (paper: consistently worse)",
        runner.loss_probes().len()
    );
}
