//! The drift-adaptation probe and the drift gate: runs the non-stationary
//! evaluation sweep (all four algorithms, each through the identical seeded
//! composite scenario — rate shift + flash crowd + dataset swap + churn),
//! publishes the full report — per-seed time-to-recover, post-shift regret,
//! final and held-out rewards, their CIs, the random floor and the paired
//! tests — as `BENCH_drift_adaptation.json` at the repo root (plus the same
//! record as one history line, and the tables in
//! `results/drift/DRIFT_RESULTS.md`), and exits nonzero if any drift
//! invariant is violated.
//!
//! * `PFRL_SCALE=paper` switches to the heavy publication scale; the record
//!   becomes `BENCH_drift_adaptation_paper.json` and the tables go to
//!   `results/drift-paper/`.
//! * `PFRL_DRIFT_SEEDS=N` overrides the replication count (≥ 2).

use pfrl_bench::{publish_sweep, set_run_seed};
use pfrl_core::telemetry::RunManifest;
use pfrl_eval::{check_drift_invariants, run_drift, DriftConfig};

fn main() {
    let mut cfg = match std::env::var("PFRL_SCALE").as_deref() {
        Ok("paper") => DriftConfig::paper(),
        _ => DriftConfig::quick(),
    };
    if let Ok(n) = std::env::var("PFRL_DRIFT_SEEDS") {
        cfg.sweep.n_seeds = n.parse().expect("PFRL_DRIFT_SEEDS must be an integer");
    }
    cfg.validate();
    set_run_seed(cfg.sweep.root_seed);

    eprintln!(
        "# drift_probe — scale: {}, {} arms × {} seeds, shift at episode {} (set PFRL_SCALE=paper for full scale)",
        cfg.scale,
        cfg.arms.len(),
        cfg.sweep.n_seeds,
        cfg.shift_episode,
    );

    let t0 = std::time::Instant::now();
    let report = run_drift(&cfg);
    eprintln!("# drift sweep done in {:.1}s", t0.elapsed().as_secs_f64());

    let manifest =
        RunManifest::new("drift_probe").with_seed(cfg.sweep.root_seed).with_config_of(&cfg);
    publish_sweep(
        "BENCH_drift_adaptation.json",
        &manifest,
        report.to_value(),
        "results/drift/DRIFT_RESULTS.md",
        &report.to_markdown(),
        "DRIFT GATE",
        &check_drift_invariants(&report),
    )
}
