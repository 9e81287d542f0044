//! The drift-adaptation probe and the drift gate: runs the non-stationary
//! evaluation sweep (all four algorithms, each through the identical seeded
//! composite scenario — rate shift + flash crowd + dataset swap + churn),
//! writes the full `DRIFT_RESULTS.json` / `.md` evidence under the output
//! directory, summarizes time-to-recover and post-shift regret into
//! `BENCH_drift_adaptation.json` at the repo root (plus the same record as
//! one history line), and exits nonzero if any drift invariant is violated.
//!
//! * `PFRL_SCALE=paper` switches to the heavy publication scale.
//! * `PFRL_DRIFT_SEEDS=N` overrides the replication count (≥ 2).
//! * `PFRL_DRIFT_OUT=dir` redirects the evidence directory (default
//!   `results/drift`).

use pfrl_bench::{publish_record, set_run_seed};
use pfrl_core::telemetry::{Json, RunManifest};
use pfrl_eval::sweep::json::ci_value;
use pfrl_eval::{check_drift_invariants, run_drift, DriftConfig, DriftReport};
use std::path::PathBuf;

const OUT: &str = "BENCH_drift_adaptation.json";

/// The headline summary: per-arm adaptation metrics with bootstrap CIs.
fn record_body(report: &DriftReport) -> Json {
    let arms = report.arms.iter().map(|a| {
        Json::obj([
            ("name", a.arm.name().into()),
            ("time_to_recover_ep", ci_value(&a.ttr_ci)),
            ("recovered_frac", a.recovered_frac.into()),
            ("post_shift_regret", ci_value(&a.regret_ci)),
            ("final_reward", ci_value(&a.final_reward_ci)),
            ("post_shift_test_reward", ci_value(&a.test_reward_ci)),
        ])
    });
    Json::obj([
        ("n_seeds", report.n_seeds.into()),
        ("shift_episode", report.shift_episode.into()),
        ("window", report.window.into()),
        ("confidence", report.confidence.into()),
        ("random_post_shift_reward", report.random_reward_mean().into()),
        ("arms", Json::arr(arms)),
    ])
}

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
    let out_dir =
        PathBuf::from(std::env::var("PFRL_DRIFT_OUT").unwrap_or_else(|_| "results/drift".into()));

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

    let (json, md) = report.write_to(&out_dir).expect("write DRIFT_RESULTS");
    eprintln!("# wrote {} and {}", json.display(), md.display());

    let manifest =
        RunManifest::new("drift_probe").with_seed(cfg.sweep.root_seed).with_config_of(&cfg);
    if let Err(e) = publish_record(OUT, &manifest, record_body(&report)) {
        eprintln!("# error: could not write {OUT}: {e}");
        std::process::exit(1);
    }

    // Print the tables to stderr for the CI log.
    eprint!("{}", report.to_markdown());

    let violations = check_drift_invariants(&report);
    if violations.is_empty() {
        eprintln!("\n# DRIFT GATE PASS: all adaptation invariants hold");
    } else {
        eprintln!("\n# DRIFT GATE FAIL: {} violation(s)", violations.len());
        for v in &violations {
            eprintln!("#   - {v}");
        }
        std::process::exit(1);
    }
}
