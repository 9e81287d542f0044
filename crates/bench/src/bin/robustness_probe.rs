//! The poisoning-resilience probe and gate: runs the Byzantine robustness
//! sweep (algorithm × defense × adversary fraction {0, 0.1, 0.3},
//! sign-flip coalitions on paired seeds), publishes the full report —
//! per-seed final and held-out rewards, their CIs, attack telemetry and the
//! random floor — as `BENCH_robustness.json` at the repo root (plus the
//! same record as one history line, and the table in
//! `results/robustness/ROBUSTNESS_RESULTS.md`), and exits nonzero if any
//! resilience invariant is violated. Under the 10% coalition the defended
//! PFRL-DM arm must stay inside its attack-free CI and beat blind random,
//! and with no adversaries the defense must cost nothing.
//!
//! * `PFRL_SCALE=paper` switches to the heavy publication scale; the record
//!   becomes `BENCH_robustness_paper.json` and the table goes to
//!   `results/robustness-paper/`.
//! * `PFRL_ROBUST_SEEDS=N` overrides the replication count (≥ 2).

use pfrl_bench::{publish_sweep, set_run_seed};
use pfrl_core::telemetry::RunManifest;
use pfrl_eval::{check_robustness_invariants, run_robustness, RobustnessConfig};

fn main() {
    let mut cfg = match std::env::var("PFRL_SCALE").as_deref() {
        Ok("paper") => RobustnessConfig::paper(),
        _ => RobustnessConfig::quick(),
    };
    if let Ok(n) = std::env::var("PFRL_ROBUST_SEEDS") {
        cfg.sweep.n_seeds = n.parse().expect("PFRL_ROBUST_SEEDS must be an integer");
    }
    cfg.validate();
    set_run_seed(cfg.sweep.root_seed);

    eprintln!(
        "# robustness_probe — scale: {}, {} arms × {} seeds, fractions {:?} (set PFRL_SCALE=paper for full scale)",
        cfg.scale,
        cfg.arms().len(),
        cfg.sweep.n_seeds,
        cfg.fractions,
    );

    let t0 = std::time::Instant::now();
    let report = run_robustness(&cfg);
    eprintln!("# robustness sweep done in {:.1}s", t0.elapsed().as_secs_f64());

    let manifest =
        RunManifest::new("robustness_probe").with_seed(cfg.sweep.root_seed).with_config_of(&cfg);
    publish_sweep(
        "BENCH_robustness.json",
        &manifest,
        report.to_value(),
        "results/robustness/ROBUSTNESS_RESULTS.md",
        &report.to_markdown(),
        "ROBUSTNESS GATE",
        &check_robustness_invariants(&report),
    )
}
