//! The CI learning-regression gate: runs the multi-seed evaluation matrix
//! at a fixed-seed quick scale, writes `RESULTS.json` / `RESULTS.md`, and
//! exits nonzero if any directional invariant is violated. The drift sweep
//! and its invariants run in `drift_probe`, not here.
//!
//! * `PFRL_SCALE=paper` switches to the heavy publication scale.
//! * `PFRL_EVAL_SEEDS=N` overrides the replication count (≥ 2).
//! * `PFRL_EVAL_OUT=dir` redirects the output directory (default
//!   `results/eval`).
//! * `PFRL_EVAL_TOPK=0` skips the top-k equivalence check (on by default:
//!   a 12-client cohort trained with dense vs top-8 sparse attention from
//!   identical seeds; the sparse arm's final reward must stay inside the
//!   dense arm's bootstrap CI).
//! * `PFRL_EVAL_ROBUST=0` skips the poisoning-resilience sweep (on by
//!   default: sign-flip coalitions vs the trimmed-mean defense; under a
//!   10% coalition the defended PFRL-DM arm must stay inside its
//!   attack-free CI and beat blind random, and with no adversaries the
//!   defense must cost nothing).
//!
//! The stepped-vs-event simulator equivalence is not checked here: it is a
//! bit-identity property, not a statistical one, and
//! `tests/event_equivalence.rs` sweeps every dataset and both environment
//! types in lockstep.

use pfrl_bench::set_run_seed;
use pfrl_core::experiment::federation_manifest;
use pfrl_core::sim::EnvConfig;
use pfrl_eval::sweep::PARTICIPATION_K;
use pfrl_eval::{
    check_invariants, check_robustness_invariants, check_topk_invariant, run_matrix,
    run_robustness, run_topk_check, EvalConfig, RobustnessConfig, TopkConfig,
};
use std::path::PathBuf;

fn main() {
    let mut cfg = match std::env::var("PFRL_SCALE").as_deref() {
        Ok("paper") => EvalConfig::paper(),
        _ => EvalConfig::quick(),
    };
    if let Ok(n) = std::env::var("PFRL_EVAL_SEEDS") {
        cfg.sweep.n_seeds = n.parse().expect("PFRL_EVAL_SEEDS must be an integer");
    }
    cfg.validate();
    set_run_seed(cfg.sweep.root_seed);
    let out_dir =
        PathBuf::from(std::env::var("PFRL_EVAL_OUT").unwrap_or_else(|_| "results/eval".into()));

    eprintln!(
        "# eval_gate — scale: {}, {} algorithms × {} families × {} seeds (set PFRL_SCALE=paper for full scale)",
        cfg.scale,
        cfg.algorithms.len(),
        cfg.families.len(),
        cfg.sweep.n_seeds
    );

    let t0 = std::time::Instant::now();
    let report = run_matrix(&cfg);
    eprintln!("# matrix done in {:.1}s", t0.elapsed().as_secs_f64());

    let (json, md) = report.write_to(&out_dir).expect("write RESULTS");
    // Provenance manifest next to the results (seed + full config hash).
    let manifest = federation_manifest(
        "eval_gate",
        pfrl_core::experiment::Algorithm::PfrlDm,
        cfg.families[0].dims(),
        &EnvConfig::default(),
        &pfrl_eval::sweep::ppo_cfg(),
        &cfg.schedule.fed_cfg(cfg.sweep.root_seed, PARTICIPATION_K),
    );
    if let Err(e) = manifest.write_next_to(&json) {
        eprintln!("# warning: could not write manifest: {e}");
    }
    eprintln!("# wrote {} and {}", json.display(), md.display());

    // Print the summary tables to stderr for the CI log.
    eprint!("{}", report.to_markdown());

    let mut violations = check_invariants(&report);

    // Top-k equivalence: the sparse attention path must not change what the
    // federation learns. Runs at the pinned-seed quick scale regardless of
    // PFRL_SCALE — the matrix's 2-client cohorts can never exercise the
    // mask, so this dedicated larger-cohort check is the only coverage.
    if std::env::var("PFRL_EVAL_TOPK").as_deref() != Ok("0") {
        let tcfg = TopkConfig::quick();
        let t2 = std::time::Instant::now();
        let topk = run_topk_check(&tcfg);
        match topk.dense_ci.as_ref() {
            Some(ci) => eprintln!(
                "# top-k check done in {:.1}s — dense [{:.2}, {:.2}], top-{} mean {:.2} at K={}",
                t2.elapsed().as_secs_f64(),
                ci.lo,
                ci.hi,
                topk.top_k,
                topk.topk_mean(),
                topk.n_clients
            ),
            None => eprintln!(
                "# top-k check done in {:.1}s — dense arm non-finite",
                t2.elapsed().as_secs_f64()
            ),
        }
        violations.extend(check_topk_invariant(&topk));
    }

    // Poisoning resilience: seeded sign-flip coalitions against the
    // robust-aggregation defense. Same scale/seed-count knobs as the
    // matrix.
    if std::env::var("PFRL_EVAL_ROBUST").as_deref() != Ok("0") {
        let mut rcfg = match cfg.scale {
            "paper" => RobustnessConfig::paper(),
            _ => RobustnessConfig::quick(),
        };
        if let Ok(n) = std::env::var("PFRL_EVAL_SEEDS") {
            rcfg.sweep.n_seeds = n.parse().expect("PFRL_EVAL_SEEDS must be an integer");
        }
        rcfg.validate();
        let t3 = std::time::Instant::now();
        let robust = run_robustness(&rcfg);
        eprintln!("# robustness sweep done in {:.1}s", t3.elapsed().as_secs_f64());
        match robust.write_to(&out_dir) {
            Ok((rj, rm)) => eprintln!("# wrote {} and {}", rj.display(), rm.display()),
            Err(e) => eprintln!("# warning: could not write ROBUSTNESS_RESULTS: {e}"),
        }
        eprint!("{}", robust.to_markdown());
        violations.extend(check_robustness_invariants(&robust));
    }

    if violations.is_empty() {
        eprintln!("\n# GATE PASS: all directional invariants hold");
    } else {
        eprintln!("\n# GATE FAIL: {} violation(s)", violations.len());
        for v in &violations {
            eprintln!("#   - {v}");
        }
        std::process::exit(1);
    }
}
