//! The poisoning-resilience sweep: adversarial coalitions vs robust
//! aggregation, with a CI gate.
//!
//! The stationary matrix and the drift sweep both assume every client is
//! honest-but-faulty. This module measures what a *Byzantine* coalition
//! (seeded sign-flip uploads, see `pfrl_fed::attack`) does to each
//! algorithm, and whether the robust aggregation layer
//! (`pfrl_fed::robust`) actually buys resilience:
//!
//! * **arms** — algorithm × defense × adversary fraction, every arm
//!   trained from the same paired replication seeds (identical pools,
//!   fleets, and coalitions at fixed rep);
//! * **resilience gate** — under the smallest non-zero fraction ≤ 25%,
//!   the defended arm's final reward must stay inside its own attack-free
//!   bootstrap CI *and* its held-out reward must beat blind random;
//! * **no-resilience-tax gate** — with zero adversaries the defended arm
//!   must stay inside the undefended (plain-mean) arm's CI: the screens
//!   and trimmed mean may not change what an honest federation learns;
//! * **honest evidence** — the undefended arm's degradation under attack
//!   is *reported* (`ROBUSTNESS_RESULTS.md`, `BENCH_robustness.json`), never
//!   gated: whether a 30% coalition breaks a β = 0.2 trimmed mean is a
//!   breakdown-point fact, not a regression.
//!
//! Seeds are pinned, so a gate violation is a deterministic regression
//! signal, not flakiness.

use crate::family::WorkloadFamily;
use crate::sweep::{
    self, ci_value, held_out_vs_random, mean, sample_compressed, two_vm_cohort, Schedule, Sweep,
};
use pfrl_core::experiment::{run_federation_with_options, Algorithm, RunOptions};
use pfrl_core::fed::{AttackPlan, RobustConfig};
use pfrl_core::sim::{EnvConfig, VmSpec};
use pfrl_core::stats::{BootstrapCi, SeedStream};
use pfrl_core::telemetry::{InMemoryRecorder, Json, Telemetry};
use std::sync::Arc;

/// One named defense profile of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Defense {
    /// Stable display label ("mean", "trimmed_mean", …).
    pub label: &'static str,
    /// The server-side config installed on every runner of the arm.
    pub robust: RobustConfig,
}

impl Defense {
    /// The undefended baseline: plain mean, no screens — bit-identical to
    /// the pre-robustness aggregation path.
    pub fn undefended() -> Self {
        Self { label: "mean", robust: RobustConfig::default() }
    }

    /// The recommended defended profile ([`RobustConfig::defended`]).
    pub fn defended() -> Self {
        Self { label: "trimmed_mean", robust: RobustConfig::defended() }
    }
}

/// One cell of the sweep: who trains, how the server aggregates, and how
/// much of the federation is adversarial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessArm {
    /// The federation algorithm under attack.
    pub algorithm: Algorithm,
    /// The server-side defense profile.
    pub defense: Defense,
    /// Expected adversary fraction (per-client Bernoulli over the seeded
    /// coalition stream; 0.0 = attack-free).
    pub fraction: f64,
}

impl RobustnessArm {
    /// Stable display name, e.g. `PFRL-DM/trimmed_mean@f=0.10`.
    pub fn name(&self) -> String {
        format!("{}/{}@f={:.2}", self.algorithm.name(), self.defense.label, self.fraction)
    }

    /// An undefended arm under active attack exists only as breakdown
    /// evidence: it is *allowed* to collapse (including to NaN held-out
    /// reward when the poisoned policy places zero tasks), so the
    /// numerical-health gate does not apply to it.
    pub fn is_sacrificial(&self) -> bool {
        self.fraction > 0.0 && self.defense.label == "mean"
    }
}

impl std::fmt::Display for RobustnessArm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Scales and axes of one robustness sweep.
#[derive(Debug, Clone)]
pub struct RobustnessConfig {
    /// Seeds, resamples, and confidence; replication seeds derive from `sweep.root_seed` through the labeled
    /// `robust-replication` stream.
    pub sweep: Sweep,
    /// Algorithms under attack (the gate needs at least PFRL-DM).
    pub algorithms: Vec<Algorithm>,
    /// Defense profiles (the gates need the undefended mean plus at least
    /// one defended profile).
    pub defenses: Vec<Defense>,
    /// Adversary fractions swept (must include 0.0 for the clean CIs).
    pub fractions: Vec<f64>,
    /// Sign-flip scale λ of the attack model.
    pub lambda: f32,
    /// Federation size (full participation, so screens always see the
    /// whole cohort).
    pub n_clients: usize,
    /// Training schedule of every arm.
    pub schedule: Schedule,
    /// Fan replications over the rayon pool.
    pub parallel: bool,
    /// Scale label stamped into the report ("quick" / "paper").
    pub scale: &'static str,
}

impl RobustnessConfig {
    /// The CI-gate scale: 10 clients, 3 pinned seeds, the full
    /// {algorithm × defense × fraction} cross — a couple of minutes of
    /// release-mode wall-clock.
    pub fn quick() -> Self {
        Self {
            sweep: Sweep { n_seeds: 3, ..Sweep::quick() },
            algorithms: vec![Algorithm::PfrlDm, Algorithm::FedAvg],
            defenses: vec![Defense::undefended(), Defense::defended()],
            fractions: vec![0.0, 0.1, 0.3],
            lambda: 1.0,
            n_clients: 10,
            schedule: Schedule::cohort_quick(),
            parallel: true,
            scale: "quick",
        }
    }

    /// The publication scale: more seeds and longer training; expect tens
    /// of minutes of CPU.
    pub fn paper() -> Self {
        Self {
            sweep: Sweep { n_seeds: 5, ..Sweep::paper() },
            schedule: Schedule {
                samples: 120,
                episodes: 20,
                comm_every: 4,
                tasks_per_episode: Some(12),
                final_window: 6,
            },
            scale: "paper",
            ..Self::quick()
        }
    }

    /// Panics on configurations that cannot produce a meaningful sweep.
    pub fn validate(&self) {
        self.sweep.validate();
        self.schedule.validate();
        assert!(!self.algorithms.is_empty(), "no algorithms selected");
        assert!(!self.defenses.is_empty(), "no defenses selected");
        assert!(
            self.fractions.contains(&0.0),
            "fractions must include 0.0: the gates compare against the attack-free CIs"
        );
        assert!(
            self.fractions.iter().all(|f| (0.0..=1.0).contains(f)),
            "adversary fractions must lie in [0, 1]"
        );
        assert!(self.lambda.is_finite() && self.lambda > 0.0, "lambda must be positive");
        assert!(self.n_clients >= 4, "need >= 4 clients for the screens to engage");
        for d in &self.defenses {
            d.robust.validate();
        }
    }

    /// The smallest non-zero fraction within the defended profile's
    /// plausible breakdown margin — the one the resilience gate pins to.
    /// `None` when the sweep carries no such fraction (e.g. a
    /// smoke-scale `{0, 0.3}` sweep: a 30% coalition exceeds the β = 0.2
    /// trimmed mean's breakdown point, so gating there would demand the
    /// impossible).
    pub fn gate_fraction(&self) -> Option<f64> {
        self.fractions
            .iter()
            .copied()
            .filter(|&f| f > 0.0 && f <= 0.25)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// All arms of the sweep, in report order.
    pub fn arms(&self) -> Vec<RobustnessArm> {
        let mut arms = Vec::new();
        for &algorithm in &self.algorithms {
            for &defense in &self.defenses {
                for &fraction in &self.fractions {
                    arms.push(RobustnessArm { algorithm, defense, fraction });
                }
            }
        }
        arms
    }
}

/// The replication seed of the robustness sweep — its own labeled stream,
/// disjoint from the matrix/drift/top-k streams.
pub fn robustness_seed(root: u64, rep: usize) -> u64 {
    SeedStream::new(root).child("robust-replication").index(rep as u64).seed()
}

/// One arm's reduced evidence.
#[derive(Debug, Clone)]
pub struct RobustnessArmResult {
    /// The arm this row belongs to.
    pub arm: RobustnessArm,
    /// Final-window training reward per replication.
    pub finals: Vec<f64>,
    /// Held-out greedy-eval reward per replication (mean over clients).
    pub test_reward: Vec<f64>,
    /// Bootstrap CI of the final-window mean; `None` on non-finite data.
    pub final_ci: Option<BootstrapCi>,
    /// Bootstrap CI of the held-out mean; `None` on non-finite data.
    pub test_ci: Option<BootstrapCi>,
    /// Mean poisoned uploads per replication (`fed/attacked_uploads`).
    pub attacked_per_rep: f64,
    /// Mean screen rejections per replication (`fed/screened`).
    pub screened_per_rep: f64,
    /// Mean evictions per replication (`fed/evictions`).
    pub evicted_per_rep: f64,
}

impl RobustnessArmResult {
    /// Sample mean of the final-window rewards.
    pub fn final_mean(&self) -> f64 {
        mean(&self.finals)
    }

    /// Sample mean of the held-out rewards.
    pub fn test_mean(&self) -> f64 {
        mean(&self.test_reward)
    }
}

/// The full evidence of one robustness sweep.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// Scale label ("quick" / "paper").
    pub scale: String,
    /// Root seed of the sweep.
    pub root_seed: u64,
    /// Replications per arm.
    pub n_seeds: usize,
    /// Expected coalition size axis, as configured.
    pub fractions: Vec<f64>,
    /// The fraction the resilience gate pins to (`None` = gate skipped).
    pub gate_fraction: Option<f64>,
    /// CI confidence level.
    pub confidence: f64,
    /// One row per arm, in [`RobustnessConfig::arms`] order.
    pub arms: Vec<RobustnessArmResult>,
    /// Blind-random floor on the held-out traces, one value per
    /// replication (arm-independent: the traces are paired).
    pub random_reward: Vec<f64>,
    /// Any non-finite findings collected during the runs.
    pub nan_findings: Vec<String>,
}

impl RobustnessReport {
    /// Mean blind-random floor.
    pub fn random_reward_mean(&self) -> f64 {
        mean(&self.random_reward)
    }

    /// Looks up one arm's results.
    pub fn arm(
        &self,
        algorithm: Algorithm,
        defense: &str,
        fraction: f64,
    ) -> Option<&RobustnessArmResult> {
        self.arms.iter().find(|a| {
            a.arm.algorithm == algorithm
                && a.arm.defense.label == defense
                && a.arm.fraction == fraction
        })
    }
}

/// Everything one (arm, replication) run reduces to.
struct RepOutcome {
    final_reward: f64,
    test_reward: f64,
    random_reward: f64,
    attacked: u64,
    screened: u64,
    evicted: u64,
    findings: Vec<String>,
}

fn run_rep(cfg: &RobustnessConfig, arm: RobustnessArm, rep: usize) -> RepOutcome {
    let seed = robustness_seed(cfg.sweep.root_seed, rep);
    let stream = SeedStream::new(seed);
    // Every arm of a replication trains on the identical cohort while the
    // coalition poisons its uploads.
    let schedule = &cfg.schedule;
    let setups = two_vm_cohort(cfg.n_clients, schedule.samples, stream.child("robust-pool"));
    let fleets: Vec<Vec<VmSpec>> = setups.iter().map(|s| s.vms.clone()).collect();
    let dims = WorkloadFamily::Heterogeneous.dims();
    // The coalition stream is per-replication: different reps draw
    // different adversary subsets, so the CIs average over coalition
    // geometry as well as training noise.
    let attack = if arm.fraction > 0.0 {
        AttackPlan::new(stream.child("attack").seed()).with_sign_flip(arm.fraction, cfg.lambda)
    } else {
        AttackPlan::none()
    };
    let recorder = Arc::new(InMemoryRecorder::new());
    let (curves, mut trained) = run_federation_with_options(
        arm.algorithm,
        setups,
        dims,
        EnvConfig::default(),
        sweep::ppo_cfg(),
        schedule.fed_cfg(seed, cfg.n_clients),
        &RunOptions::with_attack(attack, arm.defense.robust),
        Telemetry::new(recorder.clone()),
    );

    let mut findings = Vec::new();
    if curves.per_client.iter().flatten().any(|v| !v.is_finite()) {
        findings.push(format!("{arm}: non-finite training reward in replication {rep}"));
    }

    // Held-out greedy eval on fresh seeded traces.
    let datasets = WorkloadFamily::Heterogeneous.datasets();
    let (test_reward, random_reward) = held_out_vs_random(
        &mut trained,
        dims,
        &fleets,
        |c| {
            let test_seed = stream.child("robust-test").index(c as u64).seed();
            sample_compressed(datasets[c % datasets.len()], schedule.n_test(), test_seed)
        },
        stream.child("robust-random"),
        |c| findings.push(format!("{arm}: client {c} placed zero held-out tasks in rep {rep}")),
    );

    let snap = recorder.snapshot();
    RepOutcome {
        final_reward: curves.final_mean(schedule.final_window),
        test_reward,
        random_reward,
        attacked: snap.counter("fed/attacked_uploads"),
        screened: snap.counter("fed/screened"),
        evicted: snap.counter("fed/evictions"),
        findings,
    }
}

/// Runs the full sweep. Deterministic in `cfg.sweep.root_seed` — thread
/// counts and `parallel` do not change a single bit of the output.
pub fn run_robustness(cfg: &RobustnessConfig) -> RobustnessReport {
    cfg.validate();
    let sweep = &cfg.sweep;
    let arm_table = cfg.arms();
    let outcomes = sweep.run(cfg.parallel, &arm_table, |&arm, rep| run_rep(cfg, arm, rep));
    let mut nan_findings = Vec::new();
    let mut arms = Vec::with_capacity(arm_table.len());
    for (&arm, reps) in arm_table.iter().zip(&outcomes) {
        // Sacrificial arms (undefended under attack) are expected to
        // collapse — their findings are breakdown evidence, not health
        // violations, and the table already shows the non-finite CI.
        if !arm.is_sacrificial() {
            nan_findings.extend(reps.iter().flat_map(|o| o.findings.iter().cloned()));
        }
        let finals: Vec<f64> = reps.iter().map(|o| o.final_reward).collect();
        let test_reward: Vec<f64> = reps.iter().map(|o| o.test_reward).collect();
        let ci_of = |metric: &str, values: &[f64]| {
            let stream = SeedStream::new(sweep.root_seed)
                .child("robust-bootstrap")
                .child(&arm.name())
                .child(metric);
            sweep.ci(stream, values)
        };
        let per_rep = |f: fn(&RepOutcome) -> u64| {
            reps.iter().map(|o| f(o) as f64).sum::<f64>() / reps.len().max(1) as f64
        };
        arms.push(RobustnessArmResult {
            final_ci: ci_of("final", &finals),
            test_ci: ci_of("test", &test_reward),
            arm,
            finals,
            test_reward,
            attacked_per_rep: per_rep(|o| o.attacked),
            screened_per_rep: per_rep(|o| o.screened),
            evicted_per_rep: per_rep(|o| o.evicted),
        });
    }
    RobustnessReport {
        scale: cfg.scale.to_string(),
        root_seed: sweep.root_seed,
        n_seeds: sweep.n_seeds,
        fractions: cfg.fractions.clone(),
        gate_fraction: cfg.gate_fraction(),
        confidence: sweep.confidence,
        arms,
        // Arm-independent: same replication seeds ⇒ same held-out traces ⇒
        // same blind-random floor for every arm.
        random_reward: outcomes[0].iter().map(|o| o.random_reward).collect(),
        nan_findings,
    }
}

/// The poisoning-resilience gate: invariants a CI run can fail on.
///
/// 1. **Numerical health** — no NaN/inf in any reduced value, CI, or the
///    random floor. Undefended arms under active attack are exempt: a
///    large sign-flip coalition can legitimately destroy the plain-mean
///    policy outright (zero held-out placements ⇒ NaN reward), and that
///    collapse *is* the evidence the defended arms are measured against.
/// 2. **Resilience** (only when [`RobustnessReport::gate_fraction`] is
///    set) — for every *defended* PFRL-DM arm at the gate fraction: its
///    final-window reward stays inside its own attack-free CI, and its
///    held-out reward beats the blind-random floor. The undefended mean
///    is deliberately not gated here — its degradation is the evidence
///    the defense is measured against, and is reported instead.
/// 3. **No resilience tax** — with zero adversaries, every defended arm's
///    final reward stays inside the undefended arm's CI for the same
///    algorithm: the defense may not change what an honest federation
///    learns.
pub fn check_robustness_invariants(report: &RobustnessReport) -> Vec<String> {
    let mut violations = Vec::new();
    for f in &report.nan_findings {
        violations.push(format!("non-finite: {f}"));
    }
    if !report.random_reward.iter().all(|v| v.is_finite()) {
        violations.push("non-finite: blind-random floor".to_string());
    }
    for a in &report.arms {
        if a.arm.is_sacrificial() {
            continue;
        }
        if !a.finals.iter().chain(&a.test_reward).all(|v| v.is_finite()) {
            violations.push(format!("non-finite: arm {} produced a non-finite reward", a.arm));
        }
    }
    if !violations.is_empty() {
        return violations;
    }
    let floor = report.random_reward_mean();

    // 2. Resilience at the gate fraction, defended arms of the paper's
    // algorithm only.
    if let Some(gate_f) = report.gate_fraction {
        for a in &report.arms {
            if a.arm.algorithm != Algorithm::PfrlDm
                || a.arm.defense.label == "mean"
                || a.arm.fraction != gate_f
            {
                continue;
            }
            let clean = report.arm(a.arm.algorithm, a.arm.defense.label, 0.0);
            match clean.and_then(|c| c.final_ci.as_ref()) {
                Some(ci) => {
                    let mean = a.final_mean();
                    if !(ci.lo..=ci.hi).contains(&mean) {
                        violations.push(format!(
                            "poisoning regression: {} final reward {:.3} outside its attack-free CI [{:.3}, {:.3}]",
                            a.arm, mean, ci.lo, ci.hi
                        ));
                    }
                }
                None => violations.push(format!(
                    "missing baseline: no attack-free CI for defended arm {}",
                    a.arm
                )),
            }
            if a.test_mean() <= floor {
                violations.push(format!(
                    "poisoning regression: {} held-out reward {:.2} does not beat blind random {:.2}",
                    a.arm,
                    a.test_mean(),
                    floor
                ));
            }
        }
    }

    // 3. No resilience tax at fraction 0.
    for a in &report.arms {
        if a.arm.defense.label == "mean" || a.arm.fraction != 0.0 {
            continue;
        }
        let undefended = report.arm(a.arm.algorithm, "mean", 0.0);
        match undefended.and_then(|u| u.final_ci.as_ref()) {
            Some(ci) => {
                let mean = a.final_mean();
                if !(ci.lo..=ci.hi).contains(&mean) {
                    violations.push(format!(
                        "resilience tax: attack-free {} final reward {:.3} outside the plain-mean CI [{:.3}, {:.3}]",
                        a.arm, mean, ci.lo, ci.hi
                    ));
                }
            }
            None => violations
                .push(format!("missing baseline: no plain-mean attack-free CI for {}", a.arm)),
        }
    }
    violations
}

impl RobustnessReport {
    /// The full report as a record body, published as
    /// `BENCH_robustness.json` by `robustness_probe`. The scale and root
    /// seed are the record header's (`scale`, `seed`).
    pub fn to_value(&self) -> Json {
        let arms = self.arms.iter().map(|a| {
            Json::obj([
                ("algorithm", a.arm.algorithm.name().into()),
                ("defense", a.arm.defense.label.into()),
                ("fraction", a.arm.fraction.into()),
                ("finals", Json::arr(a.finals.iter().copied())),
                ("final_ci", ci_value(&a.final_ci)),
                ("test_reward", Json::arr(a.test_reward.iter().copied())),
                ("test_ci", ci_value(&a.test_ci)),
                ("attacked_per_rep", a.attacked_per_rep.into()),
                ("screened_per_rep", a.screened_per_rep.into()),
                ("evicted_per_rep", a.evicted_per_rep.into()),
            ])
        });
        Json::obj([
            ("n_seeds", self.n_seeds.into()),
            ("fractions", Json::arr(self.fractions.iter().copied())),
            ("gate_fraction", self.gate_fraction.into()),
            ("confidence", self.confidence.into()),
            ("random_reward", Json::arr(self.random_reward.iter().copied())),
            ("random_reward_mean", self.random_reward_mean().into()),
            ("nan_findings", Json::arr(self.nan_findings.iter().cloned())),
            ("arms", Json::arr(arms)),
        ])
    }

    /// The human-readable summary table.
    pub fn to_markdown(&self) -> String {
        let mut md = String::new();
        md.push_str(&format!(
            "# Poisoning resilience ({}, {} seeds, sign-flip coalitions)\n\n",
            self.scale, self.n_seeds
        ));
        md.push_str("| Arm | f | Final reward (CI) | Held-out | Attacked/rep | Screened/rep | Evicted/rep |\n");
        md.push_str("|---|---|---|---|---|---|---|\n");
        for a in &self.arms {
            let ci = match &a.final_ci {
                Some(c) => format!("{:.2} [{:.2}, {:.2}]", c.mean, c.lo, c.hi),
                None => "non-finite".to_string(),
            };
            md.push_str(&format!(
                "| {}/{} | {:.2} | {} | {:.2} | {:.1} | {:.1} | {:.1} |\n",
                a.arm.algorithm.name(),
                a.arm.defense.label,
                a.arm.fraction,
                ci,
                a.test_mean(),
                a.attacked_per_rep,
                a.screened_per_rep,
                a.evicted_per_rep,
            ));
        }
        md.push_str(&format!(
            "| Blind random | — | — | {:.2} | — | — | — |\n",
            self.random_reward_mean()
        ));
        match self.gate_fraction {
            Some(f) => md.push_str(&format!(
                "\nResilience gate pinned to f = {f:.2}; larger fractions are reported as breakdown evidence only.\n"
            )),
            None => md.push_str(
                "\nNo swept fraction lies in (0, 0.25]: the resilience gate is skipped and only numerical-health and no-tax invariants apply.\n"
            ),
        }
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::read;
    use pfrl_core::stats::bootstrap_mean_ci;

    fn arm(algorithm: Algorithm, defense: Defense, fraction: f64) -> RobustnessArm {
        RobustnessArm { algorithm, defense, fraction }
    }

    fn row(a: RobustnessArm, finals: Vec<f64>, test: Vec<f64>) -> RobustnessArmResult {
        let final_ci =
            finals.iter().all(|v| v.is_finite()).then(|| bootstrap_mean_ci(&finals, 200, 0.95, 7));
        let test_ci =
            test.iter().all(|v| v.is_finite()).then(|| bootstrap_mean_ci(&test, 200, 0.95, 8));
        RobustnessArmResult {
            arm: a,
            finals,
            test_reward: test,
            final_ci,
            test_ci,
            attacked_per_rep: 0.0,
            screened_per_rep: 0.0,
            evicted_per_rep: 0.0,
        }
    }

    fn synthetic(defended_attacked: Vec<f64>, defended_clean: Vec<f64>) -> RobustnessReport {
        let d = Defense::defended();
        let m = Defense::undefended();
        let arms = vec![
            row(arm(Algorithm::PfrlDm, m, 0.0), vec![10.0, 11.0, 12.0], vec![50.0, 52.0, 54.0]),
            row(arm(Algorithm::PfrlDm, m, 0.1), vec![2.0, 2.5, 3.0], vec![10.0, 11.0, 12.0]),
            row(arm(Algorithm::PfrlDm, d, 0.0), defended_clean, vec![50.0, 51.0, 53.0]),
            row(arm(Algorithm::PfrlDm, d, 0.1), defended_attacked, vec![49.0, 50.0, 52.0]),
        ];
        RobustnessReport {
            scale: "unit".into(),
            root_seed: 1,
            n_seeds: 3,
            fractions: vec![0.0, 0.1],
            gate_fraction: Some(0.1),
            confidence: 0.95,
            arms,
            random_reward: vec![1.0, 1.2, 0.8],
            nan_findings: Vec::new(),
        }
    }

    #[test]
    fn resilient_defended_arm_passes_while_mean_degrades() {
        // The undefended arm collapsed under attack, the defended arm held:
        // exactly the intended evidence, zero violations.
        let r = synthetic(vec![10.5, 11.0, 11.5], vec![10.0, 11.0, 12.0]);
        assert_eq!(check_robustness_invariants(&r), Vec::<String>::new());
    }

    #[test]
    fn collapsed_defended_arm_fails_the_gate() {
        let r = synthetic(vec![1.0, 1.5, 2.0], vec![10.0, 11.0, 12.0]);
        let v = check_robustness_invariants(&r);
        assert!(v.iter().any(|m| m.contains("poisoning regression")), "{v:?}");
    }

    #[test]
    fn resilience_tax_fails_the_gate() {
        // Defended clean arm far below the plain-mean clean CI.
        let r = synthetic(vec![3.0, 3.2, 3.4], vec![3.0, 3.2, 3.4]);
        let v = check_robustness_invariants(&r);
        assert!(v.iter().any(|m| m.contains("resilience tax")), "{v:?}");
    }

    #[test]
    fn gate_skips_resilience_when_no_small_fraction_swept() {
        let mut r = synthetic(vec![1.0, 1.5, 2.0], vec![10.0, 11.0, 12.0]);
        // Same collapsed data, but the sweep carried no gateable fraction.
        r.gate_fraction = None;
        let v = check_robustness_invariants(&r);
        assert!(!v.iter().any(|m| m.contains("poisoning regression")), "{v:?}");
    }

    #[test]
    fn non_finite_rewards_fail() {
        let r = synthetic(vec![10.0, f64::NAN, 11.0], vec![10.0, 11.0, 12.0]);
        let v = check_robustness_invariants(&r);
        assert!(v.iter().any(|m| m.contains("non-finite")), "{v:?}");
    }

    #[test]
    fn sacrificial_collapse_is_not_a_violation() {
        // The undefended arm under attack may collapse to NaN held-out
        // reward (zero placements) without tripping the health gate.
        let mut r = synthetic(vec![10.5, 11.0, 11.5], vec![10.0, 11.0, 12.0]);
        let bad = r.arms.iter().position(|a| a.arm.is_sacrificial()).unwrap();
        r.arms[bad].test_reward = vec![f64::NAN, f64::NAN, f64::NAN];
        r.arms[bad].test_ci = None;
        assert_eq!(check_robustness_invariants(&r), Vec::<String>::new());
    }

    #[test]
    fn gate_fraction_selection() {
        let mut cfg = RobustnessConfig::quick();
        assert_eq!(cfg.gate_fraction(), Some(0.1));
        cfg.fractions = vec![0.0, 0.3];
        assert_eq!(cfg.gate_fraction(), None);
        cfg.fractions = vec![0.0, 0.25, 0.05];
        assert_eq!(cfg.gate_fraction(), Some(0.05));
    }

    #[test]
    fn quick_config_is_valid_and_crossed() {
        let cfg = RobustnessConfig::quick();
        cfg.validate();
        assert_eq!(
            cfg.arms().len(),
            cfg.algorithms.len() * cfg.defenses.len() * cfg.fractions.len()
        );
        assert!(cfg.algorithms.contains(&Algorithm::PfrlDm), "the gate needs PFRL-DM");
        assert!(cfg.defenses.iter().any(|d| d.label == "mean"), "the no-tax gate needs the mean");
    }

    #[test]
    #[should_panic(expected = "must include 0.0")]
    fn sweep_without_clean_baseline_rejected() {
        let cfg = RobustnessConfig { fractions: vec![0.1, 0.3], ..RobustnessConfig::quick() };
        cfg.validate();
    }

    /// A micro end-to-end sweep: tiny schedule, one algorithm, but the
    /// screens still engage (5 clients ≥ min_cohort). Checks structure and
    /// determinism, not learning quality.
    #[test]
    fn micro_sweep_is_deterministic_and_filled() {
        let cfg = RobustnessConfig {
            algorithms: vec![Algorithm::PfrlDm],
            fractions: vec![0.0, 0.2],
            n_clients: 5,
            sweep: Sweep { n_seeds: 2, resamples: 200, ..Sweep::quick() },
            schedule: Schedule {
                samples: 16,
                episodes: 2,
                comm_every: 1,
                tasks_per_episode: Some(6),
                final_window: 2,
            },
            parallel: false,
            ..RobustnessConfig::quick()
        };
        let a = run_robustness(&cfg);
        let b = run_robustness(&cfg);
        assert_eq!(a.arms.len(), 4);
        for (ra, rb) in a.arms.iter().zip(&b.arms) {
            assert_eq!(ra.finals, rb.finals, "{}", ra.arm);
            assert_eq!(ra.test_reward, rb.test_reward, "{}", ra.arm);
        }
        assert_eq!(a.random_reward, b.random_reward);
        // The attacked arms actually poisoned uploads.
        let attacked = a.arm(Algorithm::PfrlDm, "mean", 0.2).unwrap();
        assert!(attacked.attacked_per_rep > 0.0, "coalition never fired");
        let clean = a.arm(Algorithm::PfrlDm, "mean", 0.0).unwrap();
        assert_eq!(clean.attacked_per_rep, 0.0, "attack-free arm poisoned uploads");
        let md = a.to_markdown();
        assert!(md.contains("Blind random"));
    }

    #[test]
    fn report_value_holds_every_value_bit_for_bit() {
        let mut r = synthetic(vec![10.5, 11.0, 11.5], vec![10.0, 11.0, 12.0]);
        r.arms[1].attacked_per_rep = 1.0 / 3.0;
        let v = r.to_value();
        assert_eq!(read::num(read::get(&v, "gate_fraction")), 0.1);
        read::assert_f64s(read::get(&v, "fractions"), &r.fractions);
        read::assert_f64s(read::get(&v, "random_reward"), &r.random_reward);
        let arms = read::items(read::get(&v, "arms"));
        assert_eq!(arms.len(), r.arms.len());
        for (a, want) in arms.iter().zip(&r.arms) {
            assert_eq!(read::get(a, "defense"), &Json::from(want.arm.defense.label));
            read::assert_f64s(read::get(a, "finals"), &want.finals);
            read::assert_ci(read::get(a, "final_ci"), &want.final_ci);
            read::assert_f64s(read::get(a, "test_reward"), &want.test_reward);
            read::assert_ci(read::get(a, "test_ci"), &want.test_ci);
            let attacked = read::num(read::get(a, "attacked_per_rep"));
            assert_eq!(attacked.to_bits(), want.attacked_per_rep.to_bits());
        }
        read::published("robustness_probe", v);

        // A collapsed arm and a skipped gate stay parseable.
        r.arms[1].test_reward = vec![f64::NAN; 3];
        r.arms[1].test_ci = None;
        r.gate_fraction = None;
        r.nan_findings.push("PFRL-DM/\"mean\"/0.10: zero placed".into());
        let text = read::published("robustness_probe", r.to_value());
        assert!(
            text.contains(r#""test_reward": ["NaN", "NaN", "NaN"], "test_ci": null"#),
            "{text}"
        );
        assert!(text.contains(r#""gate_fraction": null"#), "{text}");
        assert!(text.contains(r#"["PFRL-DM/\"mean\"/0.10: zero placed"]"#), "{text}");
    }
}
