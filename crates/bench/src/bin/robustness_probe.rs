//! The poisoning-resilience probe: runs the Byzantine robustness sweep
//! (algorithm × defense × adversary fraction, sign-flip coalitions on
//! paired seeds), writes the full `ROBUSTNESS_RESULTS.json` / `.md`
//! evidence under the output directory, summarizes the headline arms into
//! `BENCH_robustness.json` at the repo root (plus an append-only history
//! line), and exits nonzero if any resilience invariant is violated.
//!
//! * `PFRL_SCALE=paper` switches to the heavy publication scale.
//! * `PFRL_ROBUST_SEEDS=N` overrides the replication count (≥ 2).
//! * `PFRL_ROBUST_OUT=dir` redirects the evidence directory (default
//!   `results/robustness`).
//! * `PFRL_ROBUST_FRACTIONS=0,0.3` overrides the adversary-fraction axis
//!   (comma-separated; must include 0). When no fraction lies in
//!   (0, 0.25], the resilience gate auto-skips and only numerical-health
//!   and no-resilience-tax invariants apply — the CI smoke profile.

use pfrl_bench::{append_history, git_commit, set_run_seed};
use pfrl_core::telemetry::RunManifest;
use pfrl_eval::sweep::json::{ci, jf};
use pfrl_eval::{check_robustness_invariants, run_robustness, RobustnessConfig, RobustnessReport};
use std::path::PathBuf;

const OUT: &str = "BENCH_robustness.json";
/// Append-only resilience history: one JSON line per probe run, keyed by
/// the git commit so robustness regressions can be bisected.
const HISTORY: &str = "BENCH_robustness.history.jsonl";

/// The headline summary: one entry per arm with CIs and attack telemetry.
fn bench_json(report: &RobustnessReport, manifest: &RunManifest) -> String {
    let arms: Vec<String> = report
        .arms
        .iter()
        .map(|a| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"algorithm\": \"{algo}\",\n",
                    "      \"defense\": \"{defense}\",\n",
                    "      \"fraction\": {frac},\n",
                    "      \"final_reward\": {fin},\n",
                    "      \"test_reward\": {test},\n",
                    "      \"attacked_per_rep\": {att},\n",
                    "      \"screened_per_rep\": {scr},\n",
                    "      \"evicted_per_rep\": {evi}\n",
                    "    }}"
                ),
                algo = a.arm.algorithm.name(),
                defense = a.arm.defense.label,
                frac = jf(a.arm.fraction),
                fin = ci(&a.final_ci),
                test = ci(&a.test_ci),
                att = jf(a.attacked_per_rep),
                scr = jf(a.screened_per_rep),
                evi = jf(a.evicted_per_rep),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"run\": \"robustness_probe\",\n",
            "  \"scale\": \"{scale}\",\n",
            "  \"root_seed\": {seed},\n",
            "  \"n_seeds\": {n},\n",
            "  \"gate_fraction\": {gate},\n",
            "  \"confidence\": {conf},\n",
            "  \"ts_unix_s\": {ts},\n",
            "  \"git_commit\": \"{commit}\",\n",
            "  \"random_reward\": {floor},\n",
            "  \"arms\": [\n{arms}\n  ]\n",
            "}}\n"
        ),
        scale = report.scale,
        seed = report.root_seed,
        n = report.n_seeds,
        gate = report.gate_fraction.map_or("null".to_string(), jf),
        conf = report.confidence,
        ts = manifest.created_unix_s,
        commit = git_commit(),
        floor = jf(report.random_reward_mean()),
        arms = arms.join(",\n"),
    )
}

/// The compact history line of one probe run, appended to [`HISTORY`].
fn history_line(report: &RobustnessReport, manifest: &RunManifest) -> String {
    let arms: Vec<String> = report
        .arms
        .iter()
        .map(|a| {
            format!(
                concat!(
                    "{{\"algorithm\": \"{}\", \"defense\": \"{}\", \"fraction\": {}, ",
                    "\"final\": {}, \"test\": {}, \"screened\": {}}}"
                ),
                a.arm.algorithm.name(),
                a.arm.defense.label,
                jf(a.arm.fraction),
                jf(a.final_mean()),
                jf(a.test_mean()),
                jf(a.screened_per_rep),
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
