//! `pfrl-eval` — the multi-seed statistical replication harness.
//!
//! Single-seed reward curves say almost nothing: the variance across seeds
//! dwarfs most algorithm gaps at small scale. Every sweep in this crate
//! trains `R` paired replications per arm, reduces each per-arm metric to a
//! bootstrap confidence interval, runs paired Wilcoxon signed-rank tests
//! (Holm-corrected jointly), and checks invariants a CI gate can fail on.
//! They all run on one harness, [`Sweep`] ([`sweep`]); each sweep is an arm
//! table, a per-replication function, and an invariant function:
//!
//! * [`matrix`] — algorithm × workload family, the paper's Sec. 5
//!   comparison ([`run_matrix`] + [`check_invariants`]: PFRL-DM's
//!   final-window reward is at least FedAvg's on the heterogeneous split,
//!   every trained algorithm beats blind random dispatch on held-out
//!   reward, and nothing is NaN/infinite);
//! * [`drift`] — every algorithm through the composite drift scenario;
//! * [`robustness`] — algorithm × defense × adversary fraction;
//! * [`topk`] — dense vs top-k sparse attention on a cohort wider than k.
//!
//! Every config holds one training [`Schedule`] beside its [`Sweep`]
//! budget, and every report serializes once, through its `to_value`: the
//! full evidence as one record body. Three binaries in `pfrl-bench` each
//! run one sweep at a fixed-seed quick scale, publish its record
//! (`BENCH_eval.json`, `BENCH_drift_adaptation.json`,
//! `BENCH_robustness.json`; `_paper` at paper scale) and exit nonzero on
//! any violation: `eval_gate` (the matrix and the top-k check),
//! `drift_probe` and `robustness_probe`. The stepped-vs-event
//! simulator equivalence is not a statistical question and is checked in
//! the workspace's `tests/event_equivalence.rs`, not here.
//!
//! # Pairing discipline
//!
//! Replication `r` of every arm uses the *same* derived seed, and each
//! replication's client setups and held-out test sets are a pure function
//! of that seed — so at fixed `r` all arms see identical task pools,
//! fleets, and test tasks. That is what makes the per-replication
//! differences paired and the Wilcoxon test valid.

pub mod drift;
pub mod family;
pub mod gate;
pub mod matrix;
pub mod report;
pub mod robustness;
pub mod sweep;
pub mod topk;

pub use drift::{check_drift_invariants, run_drift, DriftConfig, DriftReport};
pub use family::WorkloadFamily;
pub use gate::check_invariants;
pub use matrix::{run_matrix, Cell, EvalReport, Metric, PairedComparison, RandomBaseline};
pub use robustness::{
    check_robustness_invariants, run_robustness, Defense, RobustnessArm, RobustnessConfig,
    RobustnessReport,
};
pub use sweep::{Schedule, Sweep};
pub use topk::{check_topk_invariant, run_topk_check, TopkConfig, TopkReport};

use pfrl_core::experiment::Algorithm;

/// Everything one matrix run needs: which cells to fill, the statistical
/// budget, and the training schedule.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Seeds, resamples, and confidence. Every replication seed derives from `sweep.root_seed` through the labeled
    /// `family`/`replication` streams.
    pub sweep: Sweep,
    /// Algorithms down the rows (the gate needs at least PFRL-DM + FedAvg).
    pub algorithms: Vec<Algorithm>,
    /// Workload families across the columns.
    pub families: Vec<WorkloadFamily>,
    /// Training schedule; `samples` tasks per client are drawn before the
    /// 60/40 train/test split.
    pub schedule: Schedule,
    /// Fan replications over the rayon pool.
    pub parallel: bool,
    /// Scale label stamped into the report ("quick" / "paper").
    pub scale: &'static str,
}

impl EvalConfig {
    /// The deterministic CI-gate scale: 5 seeds, tiny clients, minutes of
    /// wall-clock in release mode.
    pub fn quick() -> Self {
        Self {
            sweep: Sweep::quick(),
            algorithms: Algorithm::ALL.to_vec(),
            families: WorkloadFamily::default_families(),
            schedule: Schedule::quick(),
            parallel: true,
            scale: "quick",
        }
    }

    /// The publication scale: more seeds, longer training, tighter
    /// intervals. Expect hours of CPU.
    pub fn paper() -> Self {
        Self { sweep: Sweep::paper(), schedule: Schedule::paper(), scale: "paper", ..Self::quick() }
    }

    /// Panics on configurations the matrix cannot run.
    pub fn validate(&self) {
        self.sweep.validate();
        self.schedule.validate();
        assert!(!self.algorithms.is_empty(), "no algorithms selected");
        assert!(!self.families.is_empty(), "no workload families selected");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_valid_and_gate_sized() {
        let q = EvalConfig::quick();
        q.validate();
        assert!(q.sweep.n_seeds >= 5, "the CI gate promises >= 5 seeds");
        assert_eq!(q.scale, "quick");
        assert_eq!(q.algorithms.len(), 4);
        assert_eq!(q.families.len(), 2);
    }

    #[test]
    fn paper_config_is_strictly_heavier() {
        let q = EvalConfig::quick();
        let p = EvalConfig::paper();
        p.validate();
        assert!(p.sweep.n_seeds > q.sweep.n_seeds);
        assert!(p.schedule.samples > q.schedule.samples);
        assert!(p.schedule.episodes > q.schedule.episodes);
        assert!(p.sweep.resamples > q.sweep.resamples);
        // Same root seed: paper runs extend, not replace, the quick seeds.
        assert_eq!(p.sweep.root_seed, q.sweep.root_seed);
    }

    #[test]
    #[should_panic(expected = "need >= 2 seeds")]
    fn single_seed_rejected() {
        let q = EvalConfig::quick();
        let cfg = EvalConfig { sweep: Sweep { n_seeds: 1, ..q.sweep }, ..q };
        cfg.validate();
    }
}
