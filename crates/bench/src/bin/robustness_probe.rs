//! The poisoning-resilience probe: runs the Byzantine robustness sweep
//! (algorithm × defense × adversary fraction, sign-flip coalitions on
//! paired seeds), writes the full `ROBUSTNESS_RESULTS.json` / `.md`
//! evidence under the output directory, summarizes the headline arms into
//! `BENCH_robustness.json` at the repo root (plus the same record as one
//! history line), and exits nonzero if any resilience invariant is violated.
//!
//! * `PFRL_SCALE=paper` switches to the heavy publication scale.
//! * `PFRL_ROBUST_SEEDS=N` overrides the replication count (≥ 2).
//! * `PFRL_ROBUST_OUT=dir` redirects the evidence directory (default
//!   `results/robustness`).
//! * `PFRL_ROBUST_FRACTIONS=0,0.3` overrides the adversary-fraction axis
//!   (comma-separated; must include 0). When no fraction lies in
//!   (0, 0.25], the resilience gate auto-skips and only numerical-health
//!   and no-resilience-tax invariants apply — the CI smoke profile.

use pfrl_bench::{publish_record, set_run_seed};
use pfrl_core::telemetry::{Json, RunManifest};
use pfrl_eval::sweep::json::ci_value;
use pfrl_eval::{check_robustness_invariants, run_robustness, RobustnessConfig, RobustnessReport};
use std::path::PathBuf;

const OUT: &str = "BENCH_robustness.json";

/// The headline summary: one entry per arm with CIs and attack telemetry.
fn record_body(report: &RobustnessReport) -> Json {
    let arms = report.arms.iter().map(|a| {
        Json::obj([
            ("algorithm", a.arm.algorithm.name().into()),
            ("defense", a.arm.defense.label.into()),
            ("fraction", a.arm.fraction.into()),
            ("final_reward", ci_value(&a.final_ci)),
            ("test_reward", ci_value(&a.test_ci)),
            ("attacked_per_rep", a.attacked_per_rep.into()),
            ("screened_per_rep", a.screened_per_rep.into()),
            ("evicted_per_rep", a.evicted_per_rep.into()),
        ])
    });
    Json::obj([
        ("n_seeds", report.n_seeds.into()),
        ("gate_fraction", report.gate_fraction.into()),
        ("confidence", report.confidence.into()),
        ("random_reward", report.random_reward_mean().into()),
        ("arms", Json::arr(arms)),
    ])
}

fn main() {
    let mut cfg = match std::env::var("PFRL_SCALE").as_deref() {
        Ok("paper") => RobustnessConfig::paper(),
        _ => RobustnessConfig::quick(),
    };
    if let Ok(n) = std::env::var("PFRL_ROBUST_SEEDS") {
        cfg.sweep.n_seeds = n.parse().expect("PFRL_ROBUST_SEEDS must be an integer");
    }
    if let Ok(axis) = std::env::var("PFRL_ROBUST_FRACTIONS") {
        cfg.fractions = axis
            .split(',')
            .map(|s| {
                s.trim().parse().expect("PFRL_ROBUST_FRACTIONS must be comma-separated floats")
            })
            .collect();
    }
    cfg.validate();
    set_run_seed(cfg.sweep.root_seed);
    let out_dir = PathBuf::from(
        std::env::var("PFRL_ROBUST_OUT").unwrap_or_else(|_| "results/robustness".into()),
    );

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

    let (json, md) = report.write_to(&out_dir).expect("write ROBUSTNESS_RESULTS");
    eprintln!("# wrote {} and {}", json.display(), md.display());

    let manifest =
        RunManifest::new("robustness_probe").with_seed(cfg.sweep.root_seed).with_config_of(&cfg);
    if let Err(e) = publish_record(OUT, &manifest, record_body(&report)) {
        eprintln!("# error: could not write {OUT}: {e}");
        std::process::exit(1);
    }

    // Print the table to stderr for the CI log.
    eprint!("{}", report.to_markdown());

    let violations = check_robustness_invariants(&report);
    if violations.is_empty() {
        eprintln!("\n# ROBUSTNESS GATE PASS: all poisoning-resilience invariants hold");
    } else {
        eprintln!("\n# ROBUSTNESS GATE FAIL: {} violation(s)", violations.len());
        for v in &violations {
            eprintln!("#   - {v}");
        }
        std::process::exit(1);
    }
}
