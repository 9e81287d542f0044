//! The top-k equivalence gate: sparse attention must not change what the
//! federation learns.
//!
//! The top-k sparse attention path (paper-default k = 8) is a *performance*
//! optimization of the PFRL-DM aggregator: per head, only the k largest
//! scores per client row survive the softmax. The evaluation matrix runs
//! 4-client federations with a participation cohort of 2, where any k ≥ 2
//! is trivially dense — so the matrix alone can never detect a top-k
//! learning regression. This module runs the one check that can: a cohort
//! strictly larger than k (so the mask actually drops scores), trained
//! dense and top-k from identical seeds, with the invariant that the top-k
//! arm's final-window reward stays inside the dense arm's bootstrap CI.
//!
//! Seeds are pinned at quick scale, so a violation is a deterministic
//! regression signal, not flakiness. The replications always fan out over
//! the rayon pool: each is a pure function of its seed, so the report does
//! not depend on the thread count and there is no serial mode to select.

use pfrl_core::fed::{FederatedRunner, PfrlDmRunner};
use pfrl_core::nn::MultiHeadConfig;
use pfrl_core::replicate::replication_seed;
use pfrl_core::sim::EnvConfig;
use pfrl_core::stats::{BootstrapCi, SeedStream};
use pfrl_core::telemetry::Json;

use crate::family::WorkloadFamily;
use crate::sweep::{self, ci_value, mean, two_vm_cohort, Schedule, Sweep};

/// One top-k equivalence run: cohort geometry, training schedule, and the
/// CI the dense arm is reduced to.
#[derive(Debug, Clone)]
pub struct TopkConfig {
    /// Seeds, resamples, and confidence of the dense arm's CI; replication
    /// seeds derive from `sweep.root_seed` through the labeled `topk-gate`
    /// stream.
    pub sweep: Sweep,
    /// Federation size; must exceed `top_k` or the sparse path is a no-op
    /// and the check is vacuous (enforced by [`TopkConfig::validate`]).
    pub n_clients: usize,
    /// The sparse cutoff under test (paper default: 8).
    pub top_k: usize,
    /// Training schedule of both arms.
    pub schedule: Schedule,
}

impl TopkConfig {
    /// The CI-gate scale: a 12-client cohort (so top-8 masks a third of
    /// every score row), 3 pinned seeds, a few seconds of release-mode
    /// wall-clock.
    pub fn quick() -> Self {
        Self {
            sweep: Sweep { n_seeds: 3, ..Sweep::quick() },
            n_clients: 12,
            top_k: MultiHeadConfig::PAPER_TOP_K,
            schedule: Schedule::cohort_quick(),
        }
    }

    /// Panics on configurations that cannot produce a meaningful check.
    pub fn validate(&self) {
        self.sweep.validate();
        self.schedule.validate();
        assert!(
            self.n_clients > self.top_k,
            "top-k check is vacuous: cohort {} <= top_k {} keeps every score",
            self.n_clients,
            self.top_k
        );
        assert!(self.top_k >= 1, "top_k must be >= 1");
    }
}

/// The reduced evidence of one top-k equivalence run.
#[derive(Debug, Clone)]
pub struct TopkReport {
    /// Cohort size the arms trained at.
    pub n_clients: usize,
    /// The sparse cutoff under test.
    pub top_k: usize,
    /// Final-window reward per replication, dense attention.
    pub dense_finals: Vec<f64>,
    /// Final-window reward per replication, top-k attention (same seeds).
    pub topk_finals: Vec<f64>,
    /// Bootstrap CI of the dense mean; `None` if any value is non-finite.
    pub dense_ci: Option<BootstrapCi>,
}

impl TopkReport {
    /// Sample mean of the top-k arm (NaN if empty).
    pub fn topk_mean(&self) -> f64 {
        mean(&self.topk_finals)
    }

    /// The check as a record value (`eval_gate` publishes it beside the
    /// matrix).
    pub fn to_value(&self) -> Json {
        Json::obj([
            ("n_clients", self.n_clients.into()),
            ("top_k", self.top_k.into()),
            ("dense_finals", Json::arr(self.dense_finals.iter().copied())),
            ("dense_ci", ci_value(&self.dense_ci)),
            ("topk_finals", Json::arr(self.topk_finals.iter().copied())),
            ("topk_mean", self.topk_mean().into()),
        ])
    }
}

/// Trains one arm (`top_k = None` is dense attention) of replication `rep`
/// to completion and reduces it to the final-window reward. Both arms of a
/// replication train on the identical cohort.
fn arm_final(cfg: &TopkConfig, top_k: Option<usize>, rep: usize) -> f64 {
    let root = SeedStream::new(cfg.sweep.root_seed).child("topk-gate").seed();
    let seed = replication_seed(root, rep);
    let schedule = &cfg.schedule;
    let pools = SeedStream::new(seed).child("topk-pool");
    let mut runner = PfrlDmRunner::with_attention(
        two_vm_cohort(cfg.n_clients, schedule.samples, pools),
        WorkloadFamily::Heterogeneous.dims(),
        EnvConfig::default(),
        sweep::ppo_cfg(),
        schedule.fed_cfg(seed, cfg.n_clients),
        MultiHeadConfig { top_k, ..Default::default() },
    );
    runner.train_to_completion().final_mean(schedule.final_window)
}

/// Runs both arms over the paired seeds. Deterministic in
/// `cfg.sweep.root_seed`.
pub fn run_topk_check(cfg: &TopkConfig) -> TopkReport {
    cfg.validate();
    let [dense_finals, topk_finals]: [Vec<f64>; 2] = cfg
        .sweep
        .run(true, &[None, Some(cfg.top_k)], |&top_k, rep| arm_final(cfg, top_k, rep))
        .try_into()
        .expect("two arms");
    let dense_ci =
        cfg.sweep.ci(SeedStream::new(cfg.sweep.root_seed).child("topk-bootstrap"), &dense_finals);
    TopkReport { n_clients: cfg.n_clients, top_k: cfg.top_k, dense_finals, topk_finals, dense_ci }
}

/// The gate invariant: the top-k arm's mean final reward lies inside the
/// dense arm's bootstrap CI (and everything is finite). Returns one
/// human-readable violation per failure, like [`crate::check_invariants`].
pub fn check_topk_invariant(report: &TopkReport) -> Vec<String> {
    let mut violations = Vec::new();
    if report.topk_finals.iter().any(|v| !v.is_finite()) {
        violations.push(format!(
            "non-finite: top-{} arm produced a non-finite final reward",
            report.top_k
        ));
        return violations;
    }
    let Some(ci) = &report.dense_ci else {
        violations
            .push("non-finite: dense attention arm produced a non-finite final reward".into());
        return violations;
    };
    let mean = report.topk_mean();
    if !(ci.lo..=ci.hi).contains(&mean) {
        violations.push(format!(
            "top-k regression: top-{} final reward {:.3} outside the dense CI [{:.3}, {:.3}] at K={}",
            report.top_k, mean, ci.lo, ci.hi, report.n_clients
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::read;
    use pfrl_core::stats::bootstrap_mean_ci;

    fn synthetic(dense: Vec<f64>, topk: Vec<f64>) -> TopkReport {
        let dense_ci =
            dense.iter().all(|v| v.is_finite()).then(|| bootstrap_mean_ci(&dense, 200, 0.95, 3));
        TopkReport { n_clients: 12, top_k: 8, dense_finals: dense, topk_finals: topk, dense_ci }
    }

    #[test]
    fn matching_arms_pass() {
        let r = synthetic(vec![10.0, 11.0, 12.0], vec![10.5, 11.0, 11.5]);
        assert!(check_topk_invariant(&r).is_empty());
    }

    #[test]
    fn collapsed_topk_arm_fails() {
        let r = synthetic(vec![10.0, 11.0, 12.0], vec![1.0, 1.5, 2.0]);
        let v = check_topk_invariant(&r);
        assert!(v.iter().any(|m| m.contains("top-k regression")), "{v:?}");
    }

    #[test]
    fn inflated_topk_arm_fails_too() {
        // Above the CI is just as much a semantics change as below it.
        let r = synthetic(vec![10.0, 11.0, 12.0], vec![30.0, 31.0, 32.0]);
        let v = check_topk_invariant(&r);
        assert!(v.iter().any(|m| m.contains("top-k regression")), "{v:?}");
    }

    #[test]
    fn non_finite_values_fail() {
        let r = synthetic(vec![10.0, 11.0, 12.0], vec![10.0, f64::NAN, 11.0]);
        assert!(check_topk_invariant(&r).iter().any(|m| m.contains("non-finite")));
        let r = synthetic(vec![10.0, f64::NAN, 12.0], vec![10.0, 11.0, 11.5]);
        assert!(check_topk_invariant(&r).iter().any(|m| m.contains("non-finite")));
    }

    #[test]
    fn value_holds_both_arms_bit_for_bit() {
        let r = synthetic(vec![10.0, 11.0, 12.0], vec![10.5, 1.0 / 3.0, f64::NEG_INFINITY]);
        let v = r.to_value();
        read::assert_f64s(read::get(&v, "dense_finals"), &r.dense_finals);
        read::assert_ci(read::get(&v, "dense_ci"), &r.dense_ci);
        read::assert_f64s(read::get(&v, "topk_finals"), &r.topk_finals);
        let text = read::published("eval_gate", Json::obj([("topk", v)]));
        assert!(text.contains(r#""-inf"], "topk_mean": "-inf"}"#), "{text}");
    }

    #[test]
    #[should_panic(expected = "vacuous")]
    fn cohort_not_exceeding_top_k_is_rejected() {
        let cfg = TopkConfig { n_clients: 8, top_k: 8, ..TopkConfig::quick() };
        cfg.validate();
    }

    #[test]
    fn quick_config_masks_a_nontrivial_fraction() {
        let q = TopkConfig::quick();
        q.validate();
        assert!(q.n_clients > q.top_k + 1, "cohort must make the mask bite");
        assert_eq!(q.top_k, MultiHeadConfig::PAPER_TOP_K);
    }

    /// A micro end-to-end run: tiny cohort and schedule, but the mask is
    /// still non-vacuous (5 clients, top-3). Checks structure and
    /// determinism, not learning quality.
    #[test]
    fn micro_run_is_deterministic_and_filled() {
        let cfg = TopkConfig {
            n_clients: 5,
            top_k: 3,
            sweep: Sweep { n_seeds: 2, resamples: 200, ..Sweep::quick() },
            schedule: Schedule {
                samples: 16,
                episodes: 2,
                comm_every: 1,
                tasks_per_episode: Some(6),
                final_window: 2,
            },
        };
        let a = run_topk_check(&cfg);
        let b = run_topk_check(&cfg);
        assert_eq!(a.dense_finals, b.dense_finals);
        assert_eq!(a.topk_finals, b.topk_finals);
        assert_eq!(a.dense_finals.len(), 2);
        assert_eq!(a.topk_finals.len(), 2);
        assert!(a.dense_finals.iter().chain(&a.topk_finals).all(|v| v.is_finite()));
        assert!(a.dense_ci.is_some());
    }
}
