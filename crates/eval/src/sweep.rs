//! The one harness every statistical sweep in this crate runs on.
//!
//! The paper's evaluation (Sec. 5, Table 4) is a single method: paired
//! multi-seed runs reduced to bootstrap CIs and Wilcoxon signed-rank tests.
//! [`Sweep`] carries that method's budget and the steps every sweep shares:
//!
//! * [`Schedule`] — the training schedule (pool size, episodes,
//!   aggregation period, episode size, final window) every sweep's config
//!   holds one of;
//! * [`Sweep::run`] — the arms × replications fan-out, parallel or serial,
//!   bit-identical either way;
//! * [`Sweep::ci`] — a bootstrap CI seeded by a labeled stream, `None` on
//!   non-finite data;
//! * [`paired_tests`] — paired Wilcoxon tests under one joint Holm
//!   adjustment;
//! * [`held_out_vs_random`] — greedy held-out reward against blind random
//!   dispatch on identical tasks;
//! * [`two_vm_cohort`] — a seeded heterogeneous cohort on small two-VM
//!   fleets;
//! * [`ci_value`] and [`pm`] — a CI as a record value and as a markdown
//!   table cell.
//!
//! A sweep is then three parts: an arm table, a per-replication function,
//! and an invariant function (see [`crate::matrix`], [`crate::drift`],
//! [`crate::robustness`], [`crate::topk`]). Nothing here knows which sweep
//! calls it. A replication must be a pure function of its arm and index —
//! that is what pairs the arms and makes `parallel` output-invariant.

use pfrl_core::experiment::TrainedFederation;
use pfrl_core::fed::{ClientSetup, FedConfig};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::{run_heuristic, CloudEnv, EnvConfig, EnvDims, HeuristicPolicy, VmSpec};
use pfrl_core::stats::{
    bootstrap_mean_ci, holm_adjust, wilcoxon_signed_rank, BootstrapCi, SeedStream,
};
use pfrl_core::telemetry::Json;
use pfrl_core::workloads::{DatasetId, TaskSpec};
use rayon::prelude::*;

use crate::family::WorkloadFamily;

/// The statistical budget of one sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sweep {
    /// Paired replications per arm (≥ 2).
    pub n_seeds: usize,
    /// Root seed; every replication and bootstrap seed derives from it
    /// through a labeled stream.
    pub root_seed: u64,
    /// Bootstrap resamples per confidence interval.
    pub resamples: usize,
    /// Two-sided CI confidence level (e.g. 0.95).
    pub confidence: f64,
}

impl Sweep {
    /// The deterministic CI-gate budget: 5 pinned seeds.
    pub fn quick() -> Self {
        Self { n_seeds: 5, root_seed: 0x5EED_2026, resamples: 2000, confidence: 0.95 }
    }

    /// The publication budget: more seeds, tighter intervals. The root seed
    /// is shared with [`Sweep::quick`], so paper runs extend the quick seeds.
    pub fn paper() -> Self {
        Self { n_seeds: 10, resamples: 10_000, ..Self::quick() }
    }

    /// Panics on a budget no paired statistic can be computed from.
    pub fn validate(&self) {
        assert!(self.n_seeds >= 2, "need >= 2 seeds for paired statistics");
        assert!(self.resamples >= 1, "resamples must be >= 1");
        assert!(
            self.confidence > 0.0 && self.confidence < 1.0,
            "confidence {} outside (0, 1)",
            self.confidence
        );
    }

    /// Runs `rep(arm, r)` for every arm and every replication
    /// `r in 0..n_seeds` and returns the outcomes as `[arm][rep]`, in input
    /// order. With `parallel` the whole arms × replications grid fans out
    /// over the rayon pool; the output is identical either way.
    pub fn run<A: Sync, T: Send>(
        &self,
        parallel: bool,
        arms: &[A],
        rep: impl Fn(&A, usize) -> T + Sync,
    ) -> Vec<Vec<T>> {
        let jobs: Vec<(usize, usize)> =
            (0..arms.len()).flat_map(|a| (0..self.n_seeds).map(move |r| (a, r))).collect();
        let run = |&(a, r): &(usize, usize)| rep(&arms[a], r);
        let flat: Vec<T> = if parallel {
            jobs.par_iter().map(run).collect()
        } else {
            jobs.iter().map(run).collect()
        };
        let mut flat = flat.into_iter();
        arms.iter().map(|_| flat.by_ref().take(self.n_seeds).collect()).collect()
    }

    /// Bootstrap CI of the mean of `values`, seeded by `stream`; `None` when
    /// any value is non-finite (the sweep's gate turns that into a
    /// violation rather than a panic).
    pub fn ci(&self, stream: SeedStream, values: &[f64]) -> Option<BootstrapCi> {
        values
            .iter()
            .all(|v| v.is_finite())
            .then(|| bootstrap_mean_ci(values, self.resamples, self.confidence, stream.seed()))
    }
}

/// Arrival-time compression of every sweep's task pools and held-out
/// traces: arrivals are divided by it, which densifies load so placement
/// decisions are visible (see [`WorkloadFamily::replication`]).
pub const ARRIVAL_COMPRESSION: u64 = 8;

/// Clients aggregated per round in the sweeps that sample their cohort
/// (the matrix and drift sweeps); the wide-cohort sweeps aggregate every
/// client.
pub const PARTICIPATION_K: usize = 2;

/// The training schedule of one sweep: what each replication's federation
/// trains on and for how long, and the window its curve is reduced over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Tasks sampled per client training pool.
    pub samples: usize,
    /// Training episodes per client.
    pub episodes: usize,
    /// Local episodes between aggregation rounds.
    pub comm_every: usize,
    /// Tasks per training episode (`None` = full pool).
    pub tasks_per_episode: Option<usize>,
    /// Final-window length (episodes) for the converged-reward reduction;
    /// the drift sweep's baseline / recovery window too.
    pub final_window: usize,
}

impl Schedule {
    /// The matrix and drift CI-gate schedule: minutes of release-mode
    /// wall-clock per sweep.
    pub fn quick() -> Self {
        Self {
            samples: 120,
            episodes: 30,
            comm_every: 5,
            tasks_per_episode: Some(12),
            final_window: 10,
        }
    }

    /// The matrix and drift publication schedule. Expect hours of CPU.
    pub fn paper() -> Self {
        Self {
            samples: 700,
            episodes: 160,
            comm_every: 20,
            tasks_per_episode: Some(50),
            final_window: 30,
        }
    }

    /// The short CI-gate schedule of the wide-cohort sweeps (robustness
    /// and top-k), whose 10–12 clients train every round.
    pub fn cohort_quick() -> Self {
        Self {
            samples: 40,
            episodes: 6,
            comm_every: 2,
            tasks_per_episode: Some(8),
            final_window: 3,
        }
    }

    /// The federation schedule of one replication. Replications own the
    /// rayon pool, so the federation itself runs serially.
    pub fn fed_cfg(&self, seed: u64, participation_k: usize) -> FedConfig {
        FedConfig {
            episodes: self.episodes,
            comm_every: self.comm_every,
            participation_k,
            tasks_per_episode: self.tasks_per_episode,
            seed,
            parallel: false,
        }
    }

    /// Held-out tasks per client: two training episodes' worth, and at
    /// least 24.
    pub fn n_test(&self) -> usize {
        self.tasks_per_episode.unwrap_or(40).max(12) * 2
    }

    /// Panics on a schedule no sweep can reduce.
    pub fn validate(&self) {
        assert!(self.final_window >= 1, "final_window must be >= 1");
    }
}

/// Agent hyperparameters every sweep trains with: paper defaults plus
/// invalid-action masking. With the paper's penalty mechanism (masking
/// off), an under-trained greedy policy can sink whole episodes into
/// infeasible placements, so a "beats random dispatch" invariant would
/// measure penalty-avoidance convergence rather than scheduling quality;
/// masking removes that failure mode at train *and* eval time and gives
/// the gates a robust directional signal at quick scale.
pub fn ppo_cfg() -> PpoConfig {
    PpoConfig { mask_invalid_actions: true, ..PpoConfig::default() }
}

/// Mean of `values` (NaN when empty; a non-finite value propagates).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean over the finite entries of `values` (NaN if none are finite).
pub fn finite_mean(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    mean(&finite)
}

/// One paired two-sided Wilcoxon test, keyed by whatever the sweep names
/// its pairs by.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedTest<K> {
    /// The sweep's name for this pair.
    pub key: K,
    /// Mean of `a` minus mean of `b`.
    pub mean_diff: f64,
    /// Raw two-sided p-value.
    pub p_raw: f64,
    /// Holm–Bonferroni adjusted p-value across every test in the list.
    pub p_holm: f64,
    /// Non-zero differences the test actually ranked.
    pub n_used: usize,
}

/// Tests every `(key, a, b)` pair and Holm-adjusts the p-values jointly,
/// in input order. A pair holding any non-finite value is skipped (the
/// sweep has already recorded it as a finding). An all-tied pair — every
/// difference exactly zero — carries no evidence either way: it reports
/// `p = 1` and `n_used = 0` instead of asking Wilcoxon to rank nothing.
pub fn paired_tests<'a, K>(
    pairs: impl IntoIterator<Item = (K, &'a [f64], &'a [f64])>,
) -> Vec<PairedTest<K>> {
    let mut tests: Vec<PairedTest<K>> = pairs
        .into_iter()
        .filter(|(_, a, b)| a.iter().chain(*b).all(|v| v.is_finite()))
        .map(|(key, a, b)| {
            let (p_raw, n_used) = if a.iter().zip(b).all(|(x, y)| x == y) {
                (1.0, 0)
            } else {
                let w = wilcoxon_signed_rank(a, b);
                (w.p_value, w.n_used)
            };
            PairedTest { key, mean_diff: mean(a) - mean(b), p_raw, p_holm: p_raw, n_used }
        })
        .collect();
    let adjusted = holm_adjust(&tests.iter().map(|t| t.p_raw).collect::<Vec<f64>>());
    for (t, p_holm) in tests.iter_mut().zip(adjusted) {
        t.p_holm = p_holm;
    }
    tests
}

/// Greedy held-out reward of every client of `trained` against blind
/// random dispatch on the identical tasks, each averaged over the clients
/// that placed at least one task; `(NaN, NaN)` when none did.
///
/// `tasks_for(c)` builds client `c`'s held-out tasks. Client `c`'s random
/// floor runs on a fresh [`CloudEnv`] over `fleets[c]`, seeded by
/// `random.index(c)`. A client whose greedy policy places nothing is
/// skipped — its random floor too — and reported through `zero_placed(c)`.
pub fn held_out_vs_random(
    trained: &mut TrainedFederation,
    dims: EnvDims,
    fleets: &[Vec<VmSpec>],
    tasks_for: impl Fn(usize) -> Vec<TaskSpec>,
    random: SeedStream,
    mut zero_placed: impl FnMut(usize),
) -> (f64, f64) {
    let mut reward_sum = 0.0;
    let mut random_sum = 0.0;
    let mut counted = 0usize;
    for (c, fleet) in fleets.iter().enumerate() {
        let tasks = tasks_for(c);
        let m = trained.evaluate_client(c, &tasks);
        if m.tasks_placed == 0 {
            zero_placed(c);
            continue;
        }
        let mut env = CloudEnv::new(dims, fleet.clone(), EnvConfig::default());
        env.reset(tasks);
        let rm =
            run_heuristic(&mut env, HeuristicPolicy::BlindRandom, random.index(c as u64).seed());
        reward_sum += m.total_reward;
        random_sum += rm.total_reward;
        counted += 1;
    }
    if counted > 0 {
        (reward_sum / counted as f64, random_sum / counted as f64)
    } else {
        (f64::NAN, f64::NAN)
    }
}

/// `n` tasks from `dataset`'s model under `seed`, arrivals divided by
/// [`ARRIVAL_COMPRESSION`] (same marginal task distribution, denser load).
pub fn sample_compressed(dataset: DatasetId, n: usize, seed: u64) -> Vec<TaskSpec> {
    let mut tasks = dataset.model().sample(n, seed);
    for t in &mut tasks {
        t.arrival /= ARRIVAL_COMPRESSION;
    }
    tasks
}

/// A seeded heterogeneous cohort of `n_clients`: client `k` draws `samples`
/// tasks from the `k mod 4`-th heterogeneous-family dataset through
/// `pools.index(k)`, arrivals divided by [`ARRIVAL_COMPRESSION`], and
/// schedules them on a small two-VM fleet. A pure function of its arguments, so every arm
/// of a replication trains on identical data.
pub fn two_vm_cohort(n_clients: usize, samples: usize, pools: SeedStream) -> Vec<ClientSetup> {
    let datasets = WorkloadFamily::Heterogeneous.datasets();
    (0..n_clients)
        .map(|k| {
            let dataset = datasets[k % datasets.len()];
            let seed = pools.index(k as u64).seed();
            ClientSetup {
                name: format!("Client{}-{}", k + 1, dataset.name()),
                vms: vec![VmSpec::new(16, 128.0), VmSpec::new(32, 256.0)],
                train_tasks: sample_compressed(dataset, samples, seed),
            }
        })
        .collect()
}

/// One CI as `mean ± half-width` for markdown tables (`NaN` when absent).
pub fn pm(ci: &Option<BootstrapCi>) -> String {
    match ci {
        Some(c) => format!("{:.2} ± {:.2}", c.mean, c.width() / 2.0),
        None => "NaN".to_string(),
    }
}

/// One CI as a record value: `{"mean", "lo", "hi"}`, or `null` when absent.
/// A non-finite bound renders as a string ([`Json::Num`]), so a record
/// stays parseable even when the gate is about to fail on it.
pub fn ci_value(c: &Option<BootstrapCi>) -> Json {
    c.as_ref().map_or(Json::Null, |c| {
        Json::obj([("mean", c.mean.into()), ("lo", c.lo.into()), ("hi", c.hi.into())])
    })
}

/// Reads a record value back, for the reports' serialization tests.
#[cfg(test)]
pub(crate) mod read {
    use pfrl_core::stats::BootstrapCi;
    use pfrl_core::telemetry::{Json, RunManifest};

    /// Field `key` of an object.
    pub fn get<'a>(v: &'a Json, key: &str) -> &'a Json {
        match v {
            Json::Obj(fields) => {
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
            }
            other => panic!("{key} of a non-object {other:?}"),
        }
    }

    /// The elements of an array.
    pub fn items(v: &Json) -> &[Json] {
        match v {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    /// The number `v` holds.
    pub fn num(v: &Json) -> f64 {
        match v {
            Json::Num(x) => *x,
            Json::Int(i) => *i as f64,
            other => panic!("not a number: {other:?}"),
        }
    }

    /// Panics unless `v` is an array of exactly `want`, bit for bit.
    pub fn assert_f64s(v: &Json, want: &[f64]) {
        let got: Vec<u64> = items(v).iter().map(|x| num(x).to_bits()).collect();
        let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }

    /// Panics unless `v` is `want`'s mean and bounds bit for bit, or `null`
    /// for an absent CI.
    pub fn assert_ci(v: &Json, want: &Option<BootstrapCi>) {
        match want {
            None => assert_eq!(v, &Json::Null),
            Some(c) => {
                let got = ["mean", "lo", "hi"].map(|k| num(get(v, k)).to_bits());
                assert_eq!(got, [c.mean.to_bits(), c.lo.to_bits(), c.hi.to_bits()]);
            }
        }
    }

    /// `body` headed into a bench record under `run`'s manifest (which
    /// panics on a repeated key), rendered on one line.
    pub fn published(run: &str, body: Json) -> String {
        RunManifest::new(run).with_seed(7).record("0000000", body).compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_validate_and_paper_extends_quick() {
        let (q, p) = (Sweep::quick(), Sweep::paper());
        q.validate();
        p.validate();
        assert!(p.n_seeds > q.n_seeds && p.resamples > q.resamples);
        assert_eq!(p.root_seed, q.root_seed);
    }

    #[test]
    #[should_panic(expected = "need >= 2 seeds")]
    fn single_seed_rejected() {
        Sweep { n_seeds: 1, ..Sweep::quick() }.validate();
    }

    #[test]
    fn schedule_builds_a_serial_fed_cfg_and_sizes_held_out_traces() {
        let s = Schedule::cohort_quick();
        s.validate();
        let fed = s.fed_cfg(7, 10);
        assert_eq!((fed.episodes, fed.comm_every, fed.participation_k), (6, 2, 10));
        assert_eq!((fed.tasks_per_episode, fed.seed, fed.parallel), (Some(8), 7, false));
        assert_eq!(s.n_test(), 24, "at least 24 held-out tasks");
        assert_eq!(Schedule::paper().n_test(), 100);
        assert_eq!(Schedule { tasks_per_episode: None, ..s }.n_test(), 80);
    }

    #[test]
    #[should_panic(expected = "final_window must be >= 1")]
    fn empty_final_window_rejected() {
        Schedule { final_window: 0, ..Schedule::quick() }.validate();
    }

    #[test]
    fn run_is_arm_major_and_parallel_invariant() {
        let arms = [10u64, 20, 30];
        let sweep = Sweep { n_seeds: 4, ..Sweep::quick() };
        let par = sweep.run(true, &arms, |&a, r| a + r as u64);
        let seq = sweep.run(false, &arms, |&a, r| a + r as u64);
        assert_eq!(par, vec![vec![10, 11, 12, 13], vec![20, 21, 22, 23], vec![30, 31, 32, 33]]);
        assert_eq!(par, seq);
    }

    #[test]
    fn ci_is_seeded_and_absent_on_non_finite_input() {
        let sweep = Sweep { resamples: 200, ..Sweep::quick() };
        let s = SeedStream::new(1).child("unit");
        let a = sweep.ci(s, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(Some(a), sweep.ci(s, &[1.0, 2.0, 3.0]));
        assert!(a.lo <= a.mean && a.mean <= a.hi);
        assert!(sweep.ci(s, &[1.0, f64::NAN]).is_none());
        assert!(sweep.ci(s, &[1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn all_tied_pairs_report_p_one_without_dividing_by_zero() {
        let a = [3.0, 1.5, -2.0, 7.25];
        let tests = paired_tests([("tied", &a[..], &a[..])]);
        assert_eq!(tests.len(), 1);
        let t = &tests[0];
        assert_eq!((t.mean_diff, t.p_raw, t.p_holm, t.n_used), (0.0, 1.0, 1.0, 0));
    }

    #[test]
    fn paired_tests_skip_non_finite_and_holm_adjust_jointly() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5];
        let nan = [1.0, f64::NAN, 3.0, 4.0, 5.0, 6.0];
        let tests = paired_tests([
            ("x", &a[..], &b[..]),
            ("skip", &nan[..], &b[..]),
            ("y", &b[..], &a[..]),
        ]);
        assert_eq!(tests.iter().map(|t| t.key).collect::<Vec<_>>(), ["x", "y"]);
        assert_eq!(tests[0].n_used, 6);
        assert!((tests[0].mean_diff - 2.25).abs() < 1e-12);
        assert_eq!(tests[0].p_raw, tests[1].p_raw, "mirror pairs share a two-sided p");
        let adjusted = holm_adjust(&[tests[0].p_raw, tests[1].p_raw]);
        assert_eq!([tests[0].p_holm, tests[1].p_holm], [adjusted[0], adjusted[1]]);
        assert!(tests.iter().all(|t| t.p_holm >= t.p_raw));
    }

    #[test]
    fn cohort_is_seeded_two_vm_and_compressed() {
        let pools = SeedStream::new(5).child("unit-pool");
        let a = two_vm_cohort(6, 10, pools);
        assert_eq!(a.len(), 6);
        let datasets = WorkloadFamily::Heterogeneous.datasets();
        for (k, s) in a.iter().enumerate() {
            assert_eq!(s.vms.len(), 2);
            let expect = sample_compressed(datasets[k % 4], 10, pools.index(k as u64).seed());
            assert_eq!(s.train_tasks, expect);
        }
        let uncompressed = datasets[0].model().sample(10, pools.index(0).seed());
        assert_eq!(uncompressed.len(), a[0].train_tasks.len());
        assert!(uncompressed
            .iter()
            .zip(&a[0].train_tasks)
            .all(|(u, c)| c.arrival == u.arrival / ARRIVAL_COMPRESSION));
    }

    /// The premise of the input-layer fold: over first-fit episodes on
    /// every preset fleet, a state column reads `VOID` exactly when it is
    /// outside the env's live columns.
    #[test]
    fn void_columns_are_exactly_the_folded_ones_on_every_preset_fleet() {
        use pfrl_core::presets::{table2_clients, table3_clients, TABLE2_DIMS, TABLE3_DIMS};
        use pfrl_core::sim::{state::VOID, Action};
        let pools = SeedStream::new(3).child("fold-premise");
        let cohorts = [
            (TABLE2_DIMS, table2_clients(40, 11)),
            (TABLE3_DIMS, table3_clients(40, 12)),
            (WorkloadFamily::Heterogeneous.dims(), two_vm_cohort(4, 40, pools)),
        ];
        for (dims, setups) in cohorts {
            for setup in setups {
                let mut env = CloudEnv::new(dims, setup.vms.clone(), EnvConfig::default());
                env.reset(setup.train_tasks.clone());
                let live = env.live_columns().to_vec();
                let mut state = Vec::new();
                let mut steps = 0;
                while !env.is_done() {
                    env.observe_into(&mut state);
                    for (p, &v) in state.iter().enumerate() {
                        let folded = live.binary_search(&p).is_err();
                        assert_eq!(v == VOID, folded, "{} column {p} reads {v}", setup.name);
                    }
                    env.step(env.first_fit_action().unwrap_or(Action::Wait));
                    steps += 1;
                }
                assert!(steps > 0, "{}: empty episode", setup.name);
            }
        }
    }

    #[test]
    fn ci_values_keep_every_bound_and_non_finite_parseable() {
        assert_eq!(ci_value(&None), Json::Null);
        let c =
            BootstrapCi { mean: 1.0, lo: 0.5, hi: f64::INFINITY, confidence: 0.95, resamples: 9 };
        assert_eq!(ci_value(&Some(c)).compact(), r#"{"mean": 1, "lo": 0.5, "hi": "inf"}"#);
        let c = BootstrapCi { mean: 0.1 + 0.2, lo: -1e-300, hi: 7.0, ..c };
        let Json::Obj(fields) = ci_value(&Some(c)) else { panic!("a CI is an object") };
        let bits: Vec<u64> = fields
            .iter()
            .map(|(_, v)| match v {
                Json::Num(x) => x.to_bits(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(bits, [c.mean.to_bits(), c.lo.to_bits(), c.hi.to_bits()]);
        assert_eq!(finite_mean(&[1.0, f64::NAN, 3.0]), 2.0);
        assert!(mean(&[1.0, f64::NAN]).is_nan() && mean(&[]).is_nan());
    }
}
