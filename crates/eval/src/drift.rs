//! Non-stationary evaluation: the algorithms under the canonical composite
//! drift scenario (rate shift + flash crowd + dataset swap + churn, see
//! [`ScenarioPlan::standard_drift`]), reduced to adaptation metrics.
//!
//! ROADMAP item 5's hypothesis is that *this* regime — not the stationary
//! matrix — is where personalization should separate: after an abrupt
//! workload shift, PFRL-DM's private critics can re-estimate local values
//! without waiting for a global consensus model to catch up. Every arm
//! trains through the identical seeded scenario (paired design: same
//! replication seed ⇒ identical pre-shift pools, drift traces, and churn
//! schedule for every arm), and each replication reduces to:
//!
//! * **time-to-recover** — episodes until the post-shift reward curve
//!   regains its pre-shift baseline window mean;
//! * **post-shift regret** — cumulative shortfall below that baseline;
//! * **final reward** — convergence level at the horizon;
//! * **post-shift held-out reward** — greedy evaluation on a fresh trace
//!   drawn from the *shifted* distribution, against a blind-random floor.

use crate::family::WorkloadFamily;
use crate::sweep::{
    self, ci_value, finite_mean, held_out_vs_random, paired_tests, pm, Schedule, Sweep,
    ARRIVAL_COMPRESSION, PARTICIPATION_K,
};
use pfrl_core::experiment::{run_federation_with_options, Algorithm, RunOptions};
use pfrl_core::scenario::{adaptation_metrics, mean_curve, ScenarioBinding, ScenarioPlan};
use pfrl_core::sim::{EnvConfig, VmSpec};
use pfrl_core::stats::{BootstrapCi, SeedStream};
use pfrl_core::telemetry::{Json, Telemetry};

/// Scales and arms of one drift sweep.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Seeds, resamples, confidence, and parallelism; replication seeds
    /// derive from `sweep.root_seed` through the labeled
    /// `drift-replication` stream.
    pub sweep: Sweep,
    /// Arms down the rows (the gate needs at least PFRL-DM + FedAvg).
    pub arms: Vec<Algorithm>,
    /// Training schedule; `samples` sizes the pre-scenario pools and
    /// `final_window` is the baseline / recovery smoothing window.
    pub schedule: Schedule,
    /// Episode at which the composite shift hits (strictly inside
    /// `0..episodes`, with room for the recovery window on both sides).
    pub shift_episode: usize,
    /// Fan replications over the rayon pool.
    pub parallel: bool,
    /// Scale label stamped into the report ("quick" / "paper").
    pub scale: &'static str,
}

impl DriftConfig {
    /// The deterministic CI-gate scale: minutes of wall-clock in release.
    pub fn quick() -> Self {
        Self {
            sweep: Sweep::quick(),
            arms: Algorithm::ALL.to_vec(),
            schedule: Schedule { final_window: 5, ..Schedule::quick() },
            shift_episode: 15,
            parallel: true,
            scale: "quick",
        }
    }

    /// The publication scale (nightly CI; expect hours of CPU).
    pub fn paper() -> Self {
        Self {
            sweep: Sweep::paper(),
            schedule: Schedule { final_window: 20, ..Schedule::paper() },
            shift_episode: 80,
            scale: "paper",
            ..Self::quick()
        }
    }

    /// Panics on configurations the sweep cannot run.
    pub fn validate(&self) {
        self.sweep.validate();
        self.schedule.validate();
        assert!(!self.arms.is_empty(), "no arms selected");
        let Schedule { final_window: window, episodes, .. } = self.schedule;
        assert!(
            self.shift_episode >= window && self.shift_episode + 1 < episodes,
            "shift episode {} leaves no room for baseline window {window} or recovery in {episodes} episodes",
            self.shift_episode,
        );
    }
}

/// Per-replication reduced values of one arm, with bootstrap CIs (absent
/// when any value is non-finite).
#[derive(Debug, Clone)]
pub struct DriftArmResult {
    /// Which arm.
    pub arm: Algorithm,
    /// Time-to-recover (episodes; horizon-censored when never recovered).
    pub ttr: Vec<f64>,
    /// Fraction of replications that actually re-reached baseline.
    pub recovered_frac: f64,
    /// Post-shift cumulative regret below the pre-shift baseline.
    pub regret: Vec<f64>,
    /// Mean training reward over the final window.
    pub final_reward: Vec<f64>,
    /// Mean held-out episode reward on the post-shift distribution.
    pub test_reward: Vec<f64>,
    /// Bootstrap CI per metric, same order as the vectors above.
    pub ttr_ci: Option<BootstrapCi>,
    /// CI of `regret`.
    pub regret_ci: Option<BootstrapCi>,
    /// CI of `final_reward`.
    pub final_reward_ci: Option<BootstrapCi>,
    /// CI of `test_reward`.
    pub test_reward_ci: Option<BootstrapCi>,
}

impl DriftArmResult {
    /// Mean time-to-recover over finite replications.
    pub fn ttr_mean(&self) -> f64 {
        finite_mean(&self.ttr)
    }

    /// Mean post-shift regret over finite replications.
    pub fn regret_mean(&self) -> f64 {
        finite_mean(&self.regret)
    }

    /// Mean post-shift held-out reward over finite replications.
    pub fn test_reward_mean(&self) -> f64 {
        finite_mean(&self.test_reward)
    }

    /// The four per-replication metrics, in report order.
    fn metrics(&self) -> [(&'static str, &[f64]); 4] {
        [
            ("ttr", &self.ttr),
            ("regret", &self.regret),
            ("final_reward", &self.final_reward),
            ("test_reward", &self.test_reward),
        ]
    }
}

/// One paired Wilcoxon test between two arms on one drift metric.
#[derive(Debug, Clone)]
pub struct DriftComparison {
    /// Metric identifier ("ttr", "regret", "final_reward", "test_reward").
    pub metric: &'static str,
    /// First arm (differences are `a − b`).
    pub a: String,
    /// Second arm.
    pub b: String,
    /// Mean of the paired differences.
    pub mean_diff: f64,
    /// Raw two-sided Wilcoxon p-value.
    pub p_raw: f64,
    /// Holm-adjusted p-value across every test in the report.
    pub p_holm: f64,
    /// Non-zero differences the test ranked.
    pub n_used: usize,
}

/// Everything one drift sweep produced.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Scale label ("quick" / "paper").
    pub scale: String,
    /// Root seed of the whole sweep.
    pub root_seed: u64,
    /// Replications per arm.
    pub n_seeds: usize,
    /// Episode the composite shift hits.
    pub shift_episode: usize,
    /// Baseline / recovery window length.
    pub window: usize,
    /// CI confidence level.
    pub confidence: f64,
    /// Per-arm reduced results, in arm order.
    pub arms: Vec<DriftArmResult>,
    /// Blind-random floor on the post-shift held-out traces, one value per
    /// replication (arm-independent: the traces are a pure function of the
    /// replication seed).
    pub random_reward: Vec<f64>,
    /// Paired tests: PFRL-DM vs every other arm.
    pub comparisons: Vec<DriftComparison>,
    /// Human-readable descriptions of every non-finite value found.
    pub nan_findings: Vec<String>,
}

impl DriftReport {
    /// Mean blind-random floor.
    pub fn random_reward_mean(&self) -> f64 {
        finite_mean(&self.random_reward)
    }

    /// Looks up one arm's results.
    pub fn arm(&self, algorithm: Algorithm) -> Option<&DriftArmResult> {
        self.arms.iter().find(|a| a.arm == algorithm)
    }
}

/// The replication seed of the drift sweep — its own labeled stream, so it
/// can never collide with the stationary matrix's `family`/`replication`
/// streams or any per-client stream.
pub fn drift_seed(root: u64, rep: usize) -> u64 {
    SeedStream::new(root).child("drift-replication").index(rep as u64).seed()
}

/// Everything one (arm, replication) training run reduces to.
struct RepOutcome {
    ttr: f64,
    recovered: bool,
    regret: f64,
    final_reward: f64,
    test_reward: f64,
    random_reward: f64,
    findings: Vec<String>,
}

/// The composite scenario of one replication. Shared by every arm at that
/// replication index — the pairing invariant.
fn rep_scenario(cfg: &DriftConfig, seed: u64, n_clients: usize) -> ScenarioPlan {
    ScenarioPlan::standard_drift(seed, cfg.shift_episode, cfg.schedule.comm_every, n_clients)
        .with_compression(ARRIVAL_COMPRESSION)
}

fn run_rep(cfg: &DriftConfig, arm: Algorithm, rep: usize) -> RepOutcome {
    let seed = drift_seed(cfg.sweep.root_seed, rep);
    let family = WorkloadFamily::Heterogeneous;
    let schedule = &cfg.schedule;
    let fr = family.replication(schedule.samples, seed);
    let datasets = family.datasets();
    let fleets: Vec<Vec<VmSpec>> = fr.setups.iter().map(|s| s.vms.clone()).collect();
    let plan = rep_scenario(cfg, seed, datasets.len());
    let binding = ScenarioBinding::new(plan.clone(), datasets.to_vec());

    let (curves, mut trained) = run_federation_with_options(
        arm,
        fr.setups,
        fr.dims,
        EnvConfig::default(),
        sweep::ppo_cfg(),
        schedule.fed_cfg(seed, PARTICIPATION_K),
        &RunOptions::with_scenario(binding),
        Telemetry::noop(),
    );

    let mut findings = Vec::new();
    if curves.per_client.iter().flatten().any(|v| !v.is_finite()) {
        findings.push(format!("{arm}: non-finite training reward in replication {rep}"));
    }
    let window = schedule.final_window;
    let adapt = adaptation_metrics(&mean_curve(&curves.per_client), cfg.shift_episode, window);

    // Post-shift held-out trace: episode index `episodes` is one past the
    // training horizon, so the stream is fresh, and the effective model
    // there carries every permanent shift.
    let (test_reward, random_reward) = held_out_vs_random(
        &mut trained,
        fr.dims,
        &fleets,
        |c| plan.episode_tasks(c, datasets[c], schedule.n_test(), schedule.episodes),
        SeedStream::new(seed).child("drift-random"),
        |c| findings.push(format!("{arm}: client {c} placed zero post-shift tasks in rep {rep}")),
    );

    RepOutcome {
        ttr: adapt.time_to_recover,
        recovered: adapt.recovered,
        regret: adapt.post_shift_regret,
        final_reward: curves.final_mean(window),
        test_reward,
        random_reward,
        findings,
    }
}

/// Runs the full drift sweep. Deterministic in `cfg.sweep.root_seed` —
/// thread counts and `parallel` do not change a single bit of the output.
pub fn run_drift(cfg: &DriftConfig) -> DriftReport {
    cfg.validate();
    let sweep = &cfg.sweep;
    let outcomes = sweep.run(cfg.parallel, &cfg.arms, |&arm, rep| run_rep(cfg, arm, rep));
    let mut nan_findings = Vec::new();
    let mut arms = Vec::with_capacity(cfg.arms.len());
    for (&arm, reps) in cfg.arms.iter().zip(&outcomes) {
        nan_findings.extend(reps.iter().flat_map(|o| o.findings.iter().cloned()));
        let column = |f: fn(&RepOutcome) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
        let ci_of = |metric: &str, values: &[f64]| {
            let stream = SeedStream::new(sweep.root_seed)
                .child("drift-bootstrap")
                .child(arm.name())
                .child(metric);
            sweep.ci(stream, values)
        };
        let (ttr, regret) = (column(|o| o.ttr), column(|o| o.regret));
        let (final_reward, test_reward) = (column(|o| o.final_reward), column(|o| o.test_reward));
        arms.push(DriftArmResult {
            ttr_ci: ci_of("ttr", &ttr),
            regret_ci: ci_of("regret", &regret),
            final_reward_ci: ci_of("final_reward", &final_reward),
            test_reward_ci: ci_of("test_reward", &test_reward),
            arm,
            recovered_frac: reps.iter().filter(|o| o.recovered).count() as f64 / reps.len() as f64,
            ttr,
            regret,
            final_reward,
            test_reward,
        });
    }
    // Arm-independent: same replication seeds ⇒ same held-out traces ⇒
    // same blind-random floor for every arm.
    let random_reward = outcomes[0].iter().map(|o| o.random_reward).collect();

    // Paired tests: PFRL-DM against every other arm (does personalization
    // separate under drift?).
    let pfrl = arms.iter().find(|r| r.arm == Algorithm::PfrlDm);
    let tests = paired_tests(pfrl.into_iter().flat_map(|ra| {
        arms.iter().filter(|rb| rb.arm != Algorithm::PfrlDm).flat_map(move |rb| {
            ra.metrics().into_iter().zip(rb.metrics()).map(move |((metric, a), (_, b))| {
                ((metric, ra.arm.name().to_string(), rb.arm.name().to_string()), a, b)
            })
        })
    }));
    let comparisons = tests
        .into_iter()
        .map(|t| {
            let (metric, a, b) = t.key;
            DriftComparison {
                metric,
                a,
                b,
                mean_diff: t.mean_diff,
                p_raw: t.p_raw,
                p_holm: t.p_holm,
                n_used: t.n_used,
            }
        })
        .collect();

    DriftReport {
        scale: cfg.scale.to_string(),
        root_seed: sweep.root_seed,
        n_seeds: sweep.n_seeds,
        shift_episode: cfg.shift_episode,
        window: cfg.schedule.final_window,
        confidence: sweep.confidence,
        arms,
        random_reward,
        comparisons,
        nan_findings,
    }
}

/// The drift gate: invariants a CI run can fail on.
///
/// 1. **Numerical health** — no NaN/inf in any reduced value, CI, or the
///    random floor.
/// 2. **Learning survived the shift** — every trained arm's mean held-out
///    reward on the *post-shift* distribution beats the blind-random floor
///    (an agent whose adaptation silently broke sinks to that floor).
pub fn check_drift_invariants(report: &DriftReport) -> Vec<String> {
    let mut violations = Vec::new();
    for f in &report.nan_findings {
        violations.push(format!("non-finite: {f}"));
    }
    if !report.random_reward.iter().all(|v| v.is_finite()) {
        violations.push("non-finite: blind-random floor".to_string());
    }
    let floor = report.random_reward_mean();
    for a in &report.arms {
        for (metric, values) in a.metrics() {
            if values.iter().any(|v| !v.is_finite()) && report.nan_findings.is_empty() {
                violations.push(format!("non-finite: {}/{metric} contains NaN", a.arm));
            }
        }
        if !matches!(a.test_reward_mean().partial_cmp(&floor), Some(std::cmp::Ordering::Greater)) {
            violations.push(format!(
                "adaptation regression: {} post-shift held-out reward {:.2} does not beat blind random {:.2}",
                a.arm,
                a.test_reward_mean(),
                floor
            ));
        }
    }
    violations
}

impl DriftReport {
    /// The full report as a record body, published as
    /// `BENCH_drift_adaptation.json` by `drift_probe`. The scale and root
    /// seed are the record header's (`scale`, `seed`).
    pub fn to_value(&self) -> Json {
        let arms = self.arms.iter().map(|a| {
            Json::obj([
                ("arm", a.arm.name().into()),
                ("time_to_recover", Json::arr(a.ttr.iter().copied())),
                ("ttr_ci", ci_value(&a.ttr_ci)),
                ("recovered_frac", a.recovered_frac.into()),
                ("post_shift_regret", Json::arr(a.regret.iter().copied())),
                ("regret_ci", ci_value(&a.regret_ci)),
                ("final_reward", Json::arr(a.final_reward.iter().copied())),
                ("final_reward_ci", ci_value(&a.final_reward_ci)),
                ("test_reward", Json::arr(a.test_reward.iter().copied())),
                ("test_reward_ci", ci_value(&a.test_reward_ci)),
            ])
        });
        let tests = self.comparisons.iter().map(|t| {
            Json::obj([
                ("metric", t.metric.into()),
                ("a", t.a.as_str().into()),
                ("b", t.b.as_str().into()),
                ("mean_diff", t.mean_diff.into()),
                ("p_raw", t.p_raw.into()),
                ("p_holm", t.p_holm.into()),
                ("n_used", t.n_used.into()),
            ])
        });
        Json::obj([
            ("n_seeds", self.n_seeds.into()),
            ("shift_episode", self.shift_episode.into()),
            ("window", self.window.into()),
            ("confidence", self.confidence.into()),
            ("arms", Json::arr(arms)),
            ("random_reward", Json::arr(self.random_reward.iter().copied())),
            ("random_reward_mean", self.random_reward_mean().into()),
            ("paired_tests", Json::arr(tests)),
            ("nan_findings", Json::arr(self.nan_findings.iter().cloned())),
        ])
    }

    /// The drift tables as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("# Non-stationary (drift) evaluation\n\n");
        out.push_str(&format!(
            "Scale `{}`, {} seeds per arm, composite shift at episode {}, window {}, root seed `{:#x}`.\n\n",
            self.scale, self.n_seeds, self.shift_episode, self.window, self.root_seed
        ));
        out.push_str(
            "Every arm trains through the identical seeded scenario (rate \
             shift + flash crowd + dataset swap + churn) at each replication \
             index; TTR is horizon-censored when the curve never regains its \
             pre-shift baseline.\n\n",
        );
        out.push_str(
            "| arm | time-to-recover (ep) | recovered | post-shift regret | final reward | post-shift held-out reward |\n",
        );
        out.push_str("|---|---|---|---|---|---|\n");
        for a in &self.arms {
            out.push_str(&format!(
                "| {} | {} | {:.0}% | {} | {} | {} |\n",
                a.arm.name(),
                pm(&a.ttr_ci),
                a.recovered_frac * 100.0,
                pm(&a.regret_ci),
                pm(&a.final_reward_ci),
                pm(&a.test_reward_ci),
            ));
        }
        out.push_str(&format!(
            "| Blind random | — | — | — | — | {:.2} |\n",
            self.random_reward_mean()
        ));
        if !self.comparisons.is_empty() {
            out.push_str("\n## Paired Wilcoxon tests\n\n");
            out.push_str("| metric | a | b | mean_diff (a − b) | p (raw) | p (Holm) |\n");
            out.push_str("|---|---|---|---|---|---|\n");
            for t in &self.comparisons {
                out.push_str(&format!(
                    "| {} | {} | {} | {:+.3} | {:.4} | {:.4} |\n",
                    t.metric, t.a, t.b, t.mean_diff, t.p_raw, t.p_holm
                ));
            }
        }
        if !self.nan_findings.is_empty() {
            out.push_str("\n## Non-finite findings\n\n");
            for f in &self.nan_findings {
                out.push_str(&format!("- {f}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::read;

    /// A two-seed micro-sweep over two arms — the full reduction path in
    /// seconds.
    fn micro_cfg() -> DriftConfig {
        DriftConfig {
            arms: vec![Algorithm::PfrlDm, Algorithm::FedAvg],
            sweep: Sweep { n_seeds: 2, resamples: 200, ..Sweep::quick() },
            schedule: Schedule {
                samples: 40,
                episodes: 6,
                comm_every: 1,
                tasks_per_episode: Some(6),
                final_window: 2,
            },
            shift_episode: 3,
            ..DriftConfig::quick()
        }
    }

    #[test]
    fn micro_drift_sweep_reduces_every_arm() {
        let report = run_drift(&micro_cfg());
        assert_eq!(report.arms.len(), 2);
        for a in &report.arms {
            assert_eq!(a.ttr.len(), 2, "{}", a.arm);
            assert!(a.ttr.iter().all(|v| v.is_finite() && *v >= 0.0));
            assert!(a.regret.iter().all(|v| v.is_finite() && *v >= 0.0));
            assert!(a.final_reward.iter().all(|v| v.is_finite()));
        }
        assert_eq!(report.random_reward.len(), 2);
        // PFRL-DM against FedAvg, one test per metric.
        assert_eq!(report.comparisons.len(), 4, "{:?}", report.comparisons);
        assert!(report.comparisons.iter().all(|t| t.a == "PFRL-DM" && t.b == "FedAvg"));
        assert!(report.arm(Algorithm::FedAvg).is_some());
        for t in &report.comparisons {
            assert!(t.p_holm >= t.p_raw);
        }
    }

    #[test]
    fn drift_sweep_is_deterministic_and_thread_invariant() {
        let cfg = micro_cfg();
        let a = run_drift(&cfg);
        let b = run_drift(&DriftConfig { parallel: false, ..cfg });
        for (x, y) in a.arms.iter().zip(&b.arms) {
            assert_eq!(x.ttr, y.ttr, "{}", x.arm);
            assert_eq!(x.regret, y.regret);
            assert_eq!(x.final_reward, y.final_reward);
            assert_eq!(x.test_reward, y.test_reward);
        }
        assert_eq!(a.random_reward, b.random_reward);
    }

    #[test]
    fn drift_report_serializes() {
        let mut report = run_drift(&micro_cfg());
        let v = report.to_value();
        let arms = read::items(read::get(&v, "arms"));
        assert_eq!(arms.len(), report.arms.len());
        for (a, want) in arms.iter().zip(&report.arms) {
            read::assert_f64s(read::get(a, "time_to_recover"), &want.ttr);
            read::assert_ci(read::get(a, "ttr_ci"), &want.ttr_ci);
            read::assert_f64s(read::get(a, "post_shift_regret"), &want.regret);
            read::assert_ci(read::get(a, "regret_ci"), &want.regret_ci);
            read::assert_f64s(read::get(a, "final_reward"), &want.final_reward);
            read::assert_ci(read::get(a, "final_reward_ci"), &want.final_reward_ci);
            read::assert_f64s(read::get(a, "test_reward"), &want.test_reward);
            read::assert_ci(read::get(a, "test_reward_ci"), &want.test_reward_ci);
        }
        read::assert_f64s(read::get(&v, "random_reward"), &report.random_reward);
        let tests = read::items(read::get(&v, "paired_tests"));
        assert_eq!(tests.len(), report.comparisons.len());
        for (t, want) in tests.iter().zip(&report.comparisons) {
            assert_eq!(read::num(read::get(t, "p_holm")).to_bits(), want.p_holm.to_bits());
        }
        read::published("drift_probe", v);
        let md = report.to_markdown();
        assert!(md.contains("time-to-recover"));
        assert!(md.contains("Blind random"));

        report.arms[0].ttr[1] = f64::INFINITY;
        report.arms[0].ttr_ci = None;
        let text = read::published("drift_probe", report.to_value());
        assert!(text.contains(r#", "inf"], "ttr_ci": null"#), "{text}");
    }

    #[test]
    fn gate_flags_floor_violations_and_nan() {
        let mut report = run_drift(&micro_cfg());
        // Force a floor violation.
        let floor = report.random_reward_mean();
        report.arms[0].test_reward = vec![floor - 100.0; 2];
        let v = check_drift_invariants(&report);
        assert!(v.iter().any(|m| m.contains("adaptation regression")), "{v:?}");
        // Force a NaN.
        report.arms[1].ttr[0] = f64::NAN;
        report.nan_findings.push("synthetic".into());
        let v = check_drift_invariants(&report);
        assert!(v.iter().any(|m| m.contains("non-finite")), "{v:?}");
    }

    #[test]
    fn quick_and_paper_configs_validate() {
        DriftConfig::quick().validate();
        let p = DriftConfig::paper();
        p.validate();
        assert!(p.schedule.episodes > DriftConfig::quick().schedule.episodes);
        assert_eq!(p.arms, Algorithm::ALL);
    }

    #[test]
    fn drift_seeds_are_labeled_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for rep in 0..32 {
            assert!(seen.insert(drift_seed(7, rep)), "collision at rep {rep}");
        }
    }
}
