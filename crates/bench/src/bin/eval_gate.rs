//! The CI learning-regression gate: runs the multi-seed evaluation matrix
//! and the top-k equivalence check at a fixed-seed quick scale, publishes
//! both as one record, `BENCH_eval.json` at the repo root (plus the same
//! record as one history line, and the matrix tables in
//! `results/eval/RESULTS.md`), and exits nonzero if any directional
//! invariant is violated.
//!
//! * `PFRL_SCALE=paper` switches the matrix to the heavy publication scale;
//!   the record becomes `BENCH_eval_paper.json` and the tables go to
//!   `results/eval-paper/`.
//! * `PFRL_EVAL_SEEDS=N` overrides the matrix's replication count (≥ 2).
//!
//! The top-k check trains a 12-client cohort with dense vs top-8 sparse
//! attention from identical seeds; the sparse arm's final reward must stay
//! inside the dense arm's bootstrap CI. It runs at the pinned-seed quick
//! scale regardless of `PFRL_SCALE`: the matrix's 2-client cohorts can
//! never exercise the mask. The drift and poisoning-resilience sweeps are
//! their own gates (`drift_probe`, `robustness_probe`); the stepped-vs-event
//! simulator equivalence is a bit-identity property, checked in
//! `tests/event_equivalence.rs`.

use pfrl_bench::{publish_sweep, set_run_seed};
use pfrl_core::telemetry::{Json, RunManifest};
use pfrl_eval::{
    check_invariants, check_topk_invariant, run_matrix, run_topk_check, EvalConfig, TopkConfig,
};

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
    let tcfg = TopkConfig::quick();

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

    let t1 = std::time::Instant::now();
    let topk = run_topk_check(&tcfg);
    match topk.dense_ci.as_ref() {
        Some(ci) => eprintln!(
            "# top-k check done in {:.1}s — dense [{:.2}, {:.2}], top-{} mean {:.2} at K={}",
            t1.elapsed().as_secs_f64(),
            ci.lo,
            ci.hi,
            topk.top_k,
            topk.topk_mean(),
            topk.n_clients
        ),
        None => eprintln!(
            "# top-k check done in {:.1}s — dense arm non-finite",
            t1.elapsed().as_secs_f64()
        ),
    }

    let mut violations = check_invariants(&report);
    violations.extend(check_topk_invariant(&topk));
    let manifest = RunManifest::new("eval_gate")
        .with_seed(cfg.sweep.root_seed)
        .with_config_of(&cfg)
        .with_config_of(&tcfg);
    let body = Json::obj([("matrix", report.to_value()), ("topk", topk.to_value())]);
    publish_sweep(
        "BENCH_eval.json",
        &manifest,
        body,
        "results/eval/RESULTS.md",
        &report.to_markdown(),
        "GATE",
        &violations,
    )
}
