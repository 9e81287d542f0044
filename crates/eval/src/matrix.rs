//! The replication matrix: every (algorithm, family) cell trained over `R`
//! seeds, reduced to per-metric bootstrap CIs and paired significance
//! tests.

use crate::family::WorkloadFamily;
use crate::sweep::{self, finite_mean, mean, paired_tests, PARTICIPATION_K};
use crate::EvalConfig;
use pfrl_core::experiment::{run_federation_with_options, Algorithm, RunOptions};
use pfrl_core::replicate::replication_seed;
use pfrl_core::sim::{
    run_blind_random, run_heuristic, CloudEnv, DagCloudEnv, EnvConfig, EpisodeMetrics,
    HeuristicPolicy, VmSpec,
};
use pfrl_core::stats::{BootstrapCi, SeedStream};
use pfrl_core::telemetry::Telemetry;
use pfrl_core::workloads::workflow::{DagTask, Workflow};
use pfrl_core::workloads::TaskSpec;

/// The four reduced metrics of the comparison tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Mean training reward over the final window (convergence level;
    /// higher is better).
    FinalReward,
    /// Mean episode reward of greedy evaluation on the held-out test sets
    /// (higher is better). This is the gate's "beats random dispatch"
    /// metric: the environment scores random dispatch with the identical
    /// reward function, and unlike response time it stays discriminative
    /// even when the fleets are underloaded and every placement is
    /// near-immediate.
    TestReward,
    /// Mean response time of greedy evaluation on the held-out test sets
    /// (steps; lower is better).
    MeanResponse,
    /// Mean load-balance measure on the held-out test sets (lower is
    /// better).
    LoadBalance,
}

impl Metric {
    /// All metrics, in table column order.
    pub const ALL: [Metric; 4] =
        [Metric::FinalReward, Metric::TestReward, Metric::MeanResponse, Metric::LoadBalance];

    /// Stable identifier used in JSON and seeds.
    pub fn name(self) -> &'static str {
        match self {
            Metric::FinalReward => "final_reward",
            Metric::TestReward => "test_reward",
            Metric::MeanResponse => "mean_response",
            Metric::LoadBalance => "load_balance",
        }
    }

    /// Whether smaller values win (response and load balance) or larger
    /// (rewards).
    pub fn lower_is_better(self) -> bool {
        !matches!(self, Metric::FinalReward | Metric::TestReward)
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One (algorithm, family, metric) cell: the per-replication values in
/// replication order, plus their bootstrap CI (absent when any value is
/// non-finite — the gate turns that into a violation rather than a panic).
#[derive(Debug, Clone)]
pub struct Cell {
    /// Row.
    pub algorithm: Algorithm,
    /// Column.
    pub family: WorkloadFamily,
    /// Which reduced measure.
    pub metric: Metric,
    /// One value per replication, in replication order.
    pub values: Vec<f64>,
    /// Bootstrap CI of the mean; `None` if the values contain NaN/inf.
    pub ci: Option<BootstrapCi>,
}

impl Cell {
    /// Sample mean over finite values (NaN if none are finite).
    pub fn mean(&self) -> f64 {
        finite_mean(&self.values)
    }
}

/// Random-dispatch reference per family: the same per-replication reduction
/// (mean over clients of the held-out episode metric) under *blind* random
/// dispatch — uniform over the entire action space, feasibility unchecked,
/// penalties and all. That is what an untrained policy's uniform logits do,
/// so it is the floor a learning regression sinks a trained agent toward.
/// (Feasibility-aware random is near reward-optimal on underloaded fleets —
/// no trained policy could be required to beat it, so it would make a
/// useless gate reference.)
#[derive(Debug, Clone)]
pub struct RandomBaseline {
    /// Which family these references belong to.
    pub family: WorkloadFamily,
    /// Mean episode reward per replication.
    pub reward: Vec<f64>,
    /// Mean response time per replication.
    pub response: Vec<f64>,
    /// Mean load balance per replication.
    pub load_balance: Vec<f64>,
}

impl RandomBaseline {
    /// Mean episode reward across replications.
    pub fn reward_mean(&self) -> f64 {
        mean(&self.reward)
    }

    /// Mean response time across replications.
    pub fn response_mean(&self) -> f64 {
        mean(&self.response)
    }
}

/// One paired Wilcoxon test: PFRL-DM against `baseline` on a
/// (family, metric) cell pair, with the Holm-adjusted p-value over the
/// whole family of tests in the report.
#[derive(Debug, Clone)]
pub struct PairedComparison {
    /// Column the pair was measured on.
    pub family: WorkloadFamily,
    /// Metric compared.
    pub metric: Metric,
    /// The non-PFRL-DM side of the pair.
    pub baseline: Algorithm,
    /// Mean of (PFRL-DM − baseline) over replications.
    pub mean_diff: f64,
    /// Raw two-sided Wilcoxon p-value.
    pub p_raw: f64,
    /// Holm–Bonferroni adjusted p-value (across all tests in the report).
    pub p_holm: f64,
    /// Non-zero differences the test actually ranked.
    pub n_used: usize,
}

/// Everything one matrix run produced; serialized by [`crate::report`].
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Scale label ("quick" / "paper").
    pub scale: String,
    /// Root seed the whole matrix derives from.
    pub root_seed: u64,
    /// Replications per cell.
    pub n_seeds: usize,
    /// CI confidence level.
    pub confidence: f64,
    /// Bootstrap resamples per CI.
    pub resamples: usize,
    /// All (algorithm, family, metric) cells.
    pub cells: Vec<Cell>,
    /// Random-dispatch references, one per family.
    pub random: Vec<RandomBaseline>,
    /// PFRL-DM vs baseline paired tests (empty if PFRL-DM not in the run).
    pub comparisons: Vec<PairedComparison>,
    /// Human-readable descriptions of every non-finite value found.
    pub nan_findings: Vec<String>,
}

impl EvalReport {
    /// Looks up one cell.
    pub fn cell(
        &self,
        algorithm: Algorithm,
        family: WorkloadFamily,
        metric: Metric,
    ) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.algorithm == algorithm && c.family == family && c.metric == metric)
    }

    /// The random-dispatch reference for `family`.
    pub fn random_for(&self, family: WorkloadFamily) -> Option<&RandomBaseline> {
        self.random.iter().find(|r| r.family == family)
    }

    /// Families present, in first-appearance order.
    pub fn families(&self) -> Vec<WorkloadFamily> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.family) {
                out.push(c.family);
            }
        }
        out
    }

    /// Algorithms present, in first-appearance order.
    pub fn algorithms(&self) -> Vec<Algorithm> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.algorithm) {
                out.push(c.algorithm);
            }
        }
        out
    }
}

/// Everything one (family, algorithm, replication) run reduces to: one
/// value per [`Metric::ALL`] entry, the blind-random floor's held-out
/// reward/response/load balance on the same test sets (first algorithm of
/// the run only), and any non-finite findings.
struct RepOutcome {
    values: [f64; 4],
    random: Option<[f64; 3]>,
    findings: Vec<String>,
}

/// Runs the full matrix and reduces it. Deterministic in
/// `cfg.sweep.root_seed` — thread counts, cell order, and `parallel` do not
/// change a single bit of the output.
pub fn run_matrix(cfg: &EvalConfig) -> EvalReport {
    cfg.validate();
    let sweep = &cfg.sweep;
    let arms: Vec<(WorkloadFamily, Algorithm)> =
        cfg.families.iter().flat_map(|&f| cfg.algorithms.iter().map(move |&a| (f, a))).collect();
    let outcomes =
        sweep.run(cfg.parallel, &arms, |&(family, alg), rep| run_rep(cfg, family, alg, rep));

    let mut cells = Vec::new();
    let mut random = Vec::new();
    let mut nan_findings = Vec::new();
    for &family in &cfg.families {
        let family_arms: Vec<_> =
            arms.iter().zip(&outcomes).filter(|((f, _), _)| *f == family).collect();
        // Algorithm-independent: same replication seeds ⇒ same test sets ⇒
        // same random floor for every algorithm of the family, so only the
        // first algorithm's replications run it.
        let floors: Vec<[f64; 3]> =
            family_arms[0].1.iter().map(|o| o.random.expect("first algorithm runs it")).collect();
        let floor = |i: usize| floors.iter().map(|f| f[i]).collect();
        random.push(RandomBaseline {
            family,
            reward: floor(0),
            response: floor(1),
            load_balance: floor(2),
        });
        for (_, reps) in &family_arms {
            nan_findings.extend(reps.iter().flat_map(|o| o.findings.iter().cloned()));
        }
        for ((_, alg), reps) in family_arms {
            for (mi, metric) in Metric::ALL.into_iter().enumerate() {
                let values: Vec<f64> = reps.iter().map(|o| o.values[mi]).collect();
                let stream = SeedStream::new(sweep.root_seed)
                    .child("bootstrap")
                    .child(family.name())
                    .child(alg.name())
                    .child(metric.name());
                let ci = sweep.ci(stream, &values);
                if ci.is_none() {
                    nan_findings.push(format!(
                        "{}/{family}/{metric}: non-finite replication value",
                        alg.name()
                    ));
                }
                cells.push(Cell { algorithm: *alg, family, metric, values, ci });
            }
        }
    }

    // Paired tests: PFRL-DM against every other algorithm in the run, per
    // (family, metric), Holm-adjusted jointly.
    let pairs = cells.iter().filter(|c| c.algorithm != Algorithm::PfrlDm).filter_map(|c| {
        let pfrl = cells.iter().find(|p| {
            p.algorithm == Algorithm::PfrlDm && p.family == c.family && p.metric == c.metric
        })?;
        Some(((c.family, c.metric, c.algorithm), &pfrl.values[..], &c.values[..]))
    });
    let comparisons = paired_tests(pairs)
        .into_iter()
        .map(|t| {
            let (family, metric, baseline) = t.key;
            PairedComparison {
                family,
                metric,
                baseline,
                mean_diff: t.mean_diff,
                p_raw: t.p_raw,
                p_holm: t.p_holm,
                n_used: t.n_used,
            }
        })
        .collect();

    EvalReport {
        scale: cfg.scale.to_string(),
        root_seed: sweep.root_seed,
        n_seeds: sweep.n_seeds,
        confidence: sweep.confidence,
        resamples: sweep.resamples,
        cells,
        random,
        comparisons,
        nan_findings,
    }
}

/// Wraps one flat task as a single-node workflow submitted at the task's
/// arrival — the same wrapping the DAG-mode clients apply to held-out
/// test tasks, so the random floor is measured on identical inputs.
fn singleton_workflow(t: &TaskSpec) -> Workflow {
    Workflow {
        tasks: vec![DagTask { spec: TaskSpec { id: 0, ..*t }, deps: vec![] }],
        submit: t.arrival,
    }
}

/// The seed of replication `rep` of `family`: the family's own labeled
/// branch of the root, so families never share replication seeds with each
/// other or with any per-client stream. Every algorithm at `rep` sees the
/// identical pools, fleets, and test sets — the pairing invariant.
fn family_seed(root: u64, family: WorkloadFamily, rep: usize) -> u64 {
    replication_seed(SeedStream::new(root).child("family").child(family.name()).seed(), rep)
}

/// Held-out reward, response time, and load balance of one episode.
fn held_out_metrics(m: &EpisodeMetrics) -> [f64; 3] {
    [m.total_reward, m.avg_response, m.avg_load_balance]
}

/// Trains replication `rep` of `alg` on `family` and reduces it into the
/// four metrics: final-window training reward, then greedy evaluation on
/// the held-out test sets, averaged over the clients that placed a task.
/// The random floor schedules every client's test set blind (uniform over
/// the full action space); it depends only on the family and replication,
/// so only the run's first algorithm computes it.
fn run_rep(cfg: &EvalConfig, family: WorkloadFamily, alg: Algorithm, rep: usize) -> RepOutcome {
    let seed = family_seed(cfg.sweep.root_seed, family, rep);
    let schedule = &cfg.schedule;
    let fr = family.replication(schedule.samples, seed);
    let fleets: Vec<Vec<VmSpec>> = fr.setups.iter().map(|s| s.vms.clone()).collect();
    // Workflow pools are drawn per episode through a seeded window sized to
    // keep episode work comparable to the flat families' task budget (a
    // fork–join workflow carries ~4 tasks per window unit).
    let options = RunOptions {
        workflows: fr.workflows,
        workflows_per_episode: schedule.tasks_per_episode.map(|t| (t / 4).max(1)),
        ..RunOptions::default()
    };
    let (curves, mut trained) = run_federation_with_options(
        alg,
        fr.setups,
        fr.dims,
        EnvConfig::default(),
        sweep::ppo_cfg(),
        schedule.fed_cfg(seed, PARTICIPATION_K),
        &options,
        Telemetry::noop(),
    );

    let mut findings = Vec::new();
    if curves.per_client.iter().flatten().any(|v| !v.is_finite()) {
        findings.push(format!(
            "{}/{family}: non-finite training reward in replication {rep}",
            alg.name()
        ));
    }
    let with_floor = alg == cfg.algorithms[0];
    let mut sums = [0.0; 3];
    let mut random = [0.0; 3];
    let mut counted = 0usize;
    for (k, test) in fr.test_sets.iter().enumerate() {
        if with_floor {
            let policy_seed = SeedStream::new(seed).child("random-dispatch").index(k as u64).seed();
            // The workflow family evaluates on DagCloudEnv (held-out tasks
            // wrapped as singleton workflows, exactly like the trained
            // clients' greedy eval), so its random floor must run there too.
            let r = if family == WorkloadFamily::Workflow {
                let mut env = DagCloudEnv::new(fr.dims, fleets[k].clone(), EnvConfig::default());
                env.reset(test.iter().map(singleton_workflow).collect());
                run_blind_random(&mut env, policy_seed)
            } else {
                let mut env = CloudEnv::new(fr.dims, fleets[k].clone(), EnvConfig::default());
                env.reset(test.clone());
                run_heuristic(&mut env, HeuristicPolicy::BlindRandom, policy_seed)
            };
            for (acc, v) in random.iter_mut().zip(held_out_metrics(&r)) {
                *acc += v;
            }
        }
        let m = trained.evaluate_client(k, test);
        if m.tasks_placed == 0 {
            findings.push(format!(
                "{}/{family}: client {k} placed zero test tasks in replication {rep}",
                alg.name()
            ));
            continue;
        }
        for (acc, v) in sums.iter_mut().zip(held_out_metrics(&m)) {
            *acc += v;
        }
        counted += 1;
    }
    let [reward, response, balance] =
        sums.map(|s| if counted > 0 { s / counted as f64 } else { f64::NAN });
    RepOutcome {
        values: [curves.final_mean(schedule.final_window), reward, response, balance],
        random: with_floor.then(|| random.map(|s| s / fr.test_sets.len() as f64)),
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schedule, Sweep};

    /// A two-seed micro-matrix over one family and two algorithms —
    /// exercises the full reduction path in a few seconds.
    fn micro_cfg() -> EvalConfig {
        EvalConfig {
            algorithms: vec![Algorithm::PfrlDm, Algorithm::FedAvg],
            families: vec![WorkloadFamily::Heterogeneous],
            sweep: Sweep { n_seeds: 2, resamples: 200, ..Sweep::quick() },
            schedule: Schedule {
                samples: 40,
                episodes: 2,
                comm_every: 1,
                tasks_per_episode: Some(6),
                final_window: 2,
            },
            ..EvalConfig::quick()
        }
    }

    #[test]
    fn micro_matrix_fills_every_cell() {
        // At 2 training episodes the policies are essentially untrained, so
        // a greedy eval legitimately may place zero tasks (recorded as a
        // finding, NaN value, and missing CI) — the test checks structural
        // consistency, not learning quality.
        let report = run_matrix(&micro_cfg());
        assert_eq!(report.cells.len(), 2 * Metric::ALL.len());
        for c in &report.cells {
            assert_eq!(c.values.len(), 2, "{}/{}/{}", c.algorithm, c.family, c.metric);
            match &c.ci {
                Some(ci) => {
                    assert!(c.values.iter().all(|v| v.is_finite()));
                    assert!(ci.lo <= ci.mean && ci.mean <= ci.hi);
                }
                None => assert!(
                    c.values.iter().any(|v| !v.is_finite()) && !report.nan_findings.is_empty()
                ),
            }
        }
        assert_eq!(report.random.len(), 1);
        assert_eq!(report.random[0].response.len(), 2);
        assert!(report.random[0].response_mean() >= 1.0);
        // Distinct replications must train on distinct seeds, or the paired
        // statistics would be comparing one run with itself.
        for alg in [Algorithm::PfrlDm, Algorithm::FedAvg] {
            let reward = report.cell(alg, WorkloadFamily::Heterogeneous, Metric::FinalReward);
            let values = &reward.expect("final-reward cell present").values;
            assert_ne!(values[0], values[1], "{alg}: replications trained identically");
        }
        // Training rewards are always finite, so the reward cells and their
        // paired test must be present regardless of eval-time placements.
        let reward_test = report
            .comparisons
            .iter()
            .find(|t| t.metric == Metric::FinalReward)
            .expect("final-reward comparison present");
        assert!(reward_test.p_raw > 0.0 && reward_test.p_raw <= 1.0);
        for t in &report.comparisons {
            assert!(t.p_holm >= t.p_raw);
        }
    }

    #[test]
    fn matrix_is_deterministic_in_the_root_seed() {
        let cfg = micro_cfg();
        let a = run_matrix(&cfg);
        let b = run_matrix(&cfg);
        let c = run_matrix(&EvalConfig { parallel: false, ..cfg });
        for ((x, y), z) in a.cells.iter().zip(&b.cells).zip(&c.cells) {
            assert_eq!(x.values, y.values);
            assert_eq!(x.values, z.values, "parallelism changed results");
        }
    }

    #[test]
    fn workflow_family_micro_matrix_runs() {
        let cfg = EvalConfig {
            algorithms: vec![Algorithm::FedAvg],
            families: vec![WorkloadFamily::Workflow],
            ..micro_cfg()
        };
        let report = run_matrix(&cfg);
        assert_eq!(report.cells.len(), Metric::ALL.len());
        // DAG-env training must produce finite curves, and the random floor
        // must actually schedule (it runs on DagCloudEnv for this family).
        let cell = report
            .cell(Algorithm::FedAvg, WorkloadFamily::Workflow, Metric::FinalReward)
            .expect("workflow cell present");
        assert!(cell.values.iter().all(|v| v.is_finite()));
        assert_eq!(report.random.len(), 1);
        assert!(report.random[0].response_mean() >= 1.0);
    }

    #[test]
    fn families_use_disjoint_replication_seeds() {
        for rep in 0..16 {
            assert_ne!(
                family_seed(1, WorkloadFamily::Heterogeneous, rep),
                family_seed(1, WorkloadFamily::Iso, rep)
            );
        }
    }
}
