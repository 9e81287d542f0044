//! The drift-adaptation probe and the drift gate: runs the non-stationary
//! evaluation sweep (all four algorithms, each through the identical seeded
//! composite scenario — rate shift + flash crowd + dataset swap + churn),
//! writes the full `DRIFT_RESULTS.json` / `.md` evidence under the output
//! directory, summarizes time-to-recover and post-shift regret into
//! `BENCH_drift_adaptation.json` at the repo root (plus an append-only
//! history line), and exits nonzero if any drift invariant is violated.
//!
//! * `PFRL_SCALE=paper` switches to the heavy publication scale.
//! * `PFRL_DRIFT_SEEDS=N` overrides the replication count (≥ 2).
//! * `PFRL_DRIFT_OUT=dir` redirects the evidence directory (default
//!   `results/drift`).

use pfrl_bench::{append_history, git_commit, set_run_seed};
use pfrl_core::telemetry::RunManifest;
use pfrl_eval::sweep::json::{ci, jf};
use pfrl_eval::{check_drift_invariants, run_drift, DriftConfig, DriftReport};
use std::path::PathBuf;

const OUT: &str = "BENCH_drift_adaptation.json";
/// Append-only adaptation history: one JSON line per probe run, keyed by
/// the git commit so adaptation regressions can be bisected.
const HISTORY: &str = "BENCH_drift_adaptation.history.jsonl";

/// The headline summary: per-arm adaptation metrics with bootstrap CIs.
fn bench_json(report: &DriftReport, manifest: &RunManifest) -> String {
    let arms: Vec<String> = report
        .arms
        .iter()
        .map(|a| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"name\": \"{name}\",\n",
                    "      \"time_to_recover_ep\": {ttr},\n",
                    "      \"recovered_frac\": {rec},\n",
                    "      \"post_shift_regret\": {regret},\n",
                    "      \"final_reward\": {fin},\n",
                    "      \"post_shift_test_reward\": {test}\n",
                    "    }}"
                ),
                name = a.arm.name(),
                ttr = ci(&a.ttr_ci),
                rec = jf(a.recovered_frac),
                regret = ci(&a.regret_ci),
                fin = ci(&a.final_reward_ci),
                test = ci(&a.test_reward_ci),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"run\": \"drift_probe\",\n",
            "  \"scale\": \"{scale}\",\n",
            "  \"root_seed\": {seed},\n",
            "  \"n_seeds\": {n},\n",
            "  \"shift_episode\": {shift},\n",
            "  \"window\": {window},\n",
            "  \"confidence\": {conf},\n",
            "  \"ts_unix_s\": {ts},\n",
            "  \"git_commit\": \"{commit}\",\n",
            "  \"random_post_shift_reward\": {floor},\n",
            "  \"arms\": [\n{arms}\n  ]\n",
            "}}\n"
        ),
        scale = report.scale,
        seed = report.root_seed,
        n = report.n_seeds,
        shift = report.shift_episode,
        window = report.window,
        conf = report.confidence,
        ts = manifest.created_unix_s,
        commit = git_commit(),
        floor = jf(report.random_reward_mean()),
        arms = arms.join(",\n"),
    )
}

/// The compact history line of one probe run, appended to [`HISTORY`].
fn history_line(report: &DriftReport, manifest: &RunManifest) -> String {
    let arms: Vec<String> = report
        .arms
        .iter()
        .map(|a| {
            format!(
                concat!(
                    "{{\"name\": \"{}\", \"ttr\": {}, \"recovered_frac\": {}, ",
                    "\"regret\": {}, \"test_reward\": {}}}"
                ),
                a.arm.name(),
                jf(a.ttr_mean()),
                jf(a.recovered_frac),
                jf(a.regret_mean()),
                jf(a.test_reward_mean()),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"ts_unix_s\": {}, \"git_commit\": \"{}\", \"scale\": \"{}\", ",
            "\"root_seed\": {}, \"n_seeds\": {}, \"random_reward\": {}, \"arms\": [{}]}}\n"
        ),
        manifest.created_unix_s,
        git_commit(),
        report.scale,
        report.root_seed,
        report.n_seeds,
        jf(report.random_reward_mean()),
        arms.join(", "),
    )
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
    let bench = bench_json(&report, &manifest);
    match std::fs::write(OUT, &bench) {
        Ok(()) => eprintln!("# wrote {OUT}"),
        Err(e) => {
            eprintln!("# error: could not write {OUT}: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = manifest.write_next_to(OUT) {
        eprintln!("# warning: could not write manifest: {e}");
    }
    append_history(HISTORY, &history_line(&report, &manifest));

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
