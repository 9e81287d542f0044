//! The serving workloads. Policies come from a short Table 2 training,
//! round-tripped through the snapshot wire format into a `PolicyStore`, and
//! are served by a one-shard `ShardedDecisionService` driven in a closed
//! loop from one thread: every session has exactly one request in flight,
//! and the next is submitted only after the wave that decided it returns.
//!
//! * `serve-fleet`: 64 sessions per client policy (256 in all), so every
//!   wave is a full-width plan GEMM over shared, cache-hot weights; nothing
//!   is written.
//! * `serve-swap`: one session per client policy, so every plan GEMM is one
//!   row, while a new policy version is published as soon as the previous
//!   ramp resolves; every fifth candidate carries a NaN and must roll back.

use crate::layers::{self, SimCase};
use crate::stats::{median, quantile, weighted_quantile};
use crate::{host, train, with_noise, Args, Gate, Report, Tamper, BEST_RATE};
use pfrl_core::fed::{ClientSetup, FedConfig, FederatedRunner, PfrlDmRunner, PolicySnapshot};
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::serve::{
    Decision, PolicyStore, RampHandle, RampStatus, Session, SessionId, ShardedDecisionService,
    ShardedServeConfig,
};
use pfrl_core::sim::{EnvConfig, VmSpec};
use pfrl_core::stats::seeding::derive_seed;
use pfrl_core::telemetry::{fnv1a, InMemoryRecorder, Telemetry};
use pfrl_core::workloads::TaskSpec;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the setup training. Every run serves the same trained policies,
/// so the served work differs between seeds only through the traffic the
/// seed draws: a four-round training yields policies of very different
/// quality from seed to seed.
const POLICY_SEED: u64 = 2025;
/// Training pool per client for the setup training.
const TRAIN_SAMPLES: usize = 400;
/// Task window of a setup-training episode.
const TRAIN_TASKS: usize = 20;
/// Setup-training rounds; candidates alternate between the policies
/// exported after `TRAIN_ROUNDS / 2` rounds and after all of them.
const TRAIN_ROUNDS: usize = 4;
/// Serving pool per client, cut into task windows of `WINDOW` tasks.
const SERVE_SAMPLES: usize = 6400;
const WINDOW: usize = 50;
const WINDOWS_PER_CLIENT: usize = 128;
/// Decision budget of a served episode. A briefly trained greedy policy can
/// repeat an infeasible placement forever; the environment then cuts the
/// episode here instead of after its default 200,000 decisions.
const MAX_DECISIONS: usize = 10 * WINDOW;
/// Wave width: 32 rows keeps a plan's state and logit matrices cache
/// resident next to its weights on one core.
const MAX_BATCH: usize = 32;
/// Served decisions per reported round, on both serving workloads.
const ROUND_DECISIONS: u64 = 16_384;
/// Decisions a candidate shadows before its ramp commits.
const SHADOW_TARGET: u64 = 32;
/// Every `POISON_EVERY`-th candidate carries a NaN weight.
const POISON_EVERY: usize = 5;
const SETUP_REPS: usize = 5;
/// Decisions of the sampled session replayed through a standalone `Session`.
const REPLAY_CAP: usize = 20_000;
/// Closed-loop passes of the serving tail that follows a traced training.
const PIPELINE_ITERATIONS: u64 = 4096;

struct Shape {
    sessions_per_client: usize,
    publish: bool,
    /// Leading episodes per session whose response time is averaged into
    /// `eval_response_steps` (256 episodes in all on both workloads).
    eval_episodes: usize,
}

fn shape(args: &Args) -> Shape {
    match (args.workload.as_str(), args.tiny) {
        ("serve-fleet", false) => {
            Shape { sessions_per_client: 64, publish: false, eval_episodes: 1 }
        }
        ("serve-fleet", true) => Shape { sessions_per_client: 8, publish: false, eval_episodes: 1 },
        (_, false) => Shape { sessions_per_client: 1, publish: true, eval_episodes: 64 },
        (_, true) => Shape { sessions_per_client: 1, publish: true, eval_episodes: 2 },
    }
}

/// Seeded contiguous windows of `n` tasks from `pool`, rebased to arrive
/// from step 0 (the same windowing the trainer applies to its episodes).
pub fn windows(pool: &[TaskSpec], n: usize, count: usize, seed: u64) -> Vec<Vec<TaskSpec>> {
    let n = n.min(pool.len());
    (0..count)
        .map(|i| {
            let start = (derive_seed(seed, i as u64) % (pool.len() - n + 1) as u64) as usize;
            let base = pool[start].arrival;
            pool[start..start + n]
                .iter()
                .enumerate()
                .map(|(id, t)| TaskSpec { id: id as u64, arrival: t.arrival - base, ..*t })
                .collect()
        })
        .collect()
}

pub fn tasks_hash(tasks: impl IntoIterator<Item = TaskSpec>) -> u64 {
    let mut bytes = Vec::new();
    for t in tasks {
        bytes.extend_from_slice(&t.arrival.to_le_bytes());
        bytes.extend_from_slice(&t.vcpus.to_le_bytes());
        bytes.extend_from_slice(&t.mem_gb.to_le_bytes());
        bytes.extend_from_slice(&t.duration.to_le_bytes());
    }
    fnv1a(&bytes)
}

struct Inputs {
    train: Vec<ClientSetup>,
    vms: Vec<Vec<VmSpec>>,
    windows: Vec<Vec<Vec<TaskSpec>>>,
    hash: u64,
}

fn generate(seed: u64, tiny: bool) -> Inputs {
    let samples = if tiny { 120 } else { TRAIN_SAMPLES };
    let train = table2_clients(samples, POLICY_SEED);
    let serve = table2_clients(if tiny { 200 } else { SERVE_SAMPLES }, derive_seed(seed, 0x5e7e));
    let windows: Vec<_> = serve
        .iter()
        .enumerate()
        .map(|(c, s)| {
            windows(&s.train_tasks, WINDOW, WINDOWS_PER_CLIENT, derive_seed(seed, c as u64))
        })
        .collect();
    let all = train.iter().flat_map(|s| s.train_tasks.iter().copied());
    let hash = tasks_hash(all.chain(windows.iter().flatten().flatten().copied()));
    let vms = serve.iter().map(|s| s.vms.clone()).collect();
    Inputs { train, vms, windows, hash }
}

/// Snapshots of a short Table 2 PFRL-DM training: after half the rounds
/// and at the end.
struct Trained {
    mid: Vec<PolicySnapshot>,
    fin: Vec<PolicySnapshot>,
}

fn train_cfg(seed: u64) -> FedConfig {
    FedConfig {
        episodes: TRAIN_ROUNDS,
        comm_every: 1,
        participation_k: 2,
        tasks_per_episode: Some(TRAIN_TASKS),
        seed,
        parallel: false,
    }
}

fn train_policies(inputs: &Inputs, telemetry: &Telemetry) -> Trained {
    let mut runner = PfrlDmRunner::new(
        inputs.train.clone(),
        TABLE2_DIMS,
        EnvConfig { max_decisions: MAX_DECISIONS, ..EnvConfig::default() },
        PpoConfig::default(),
        train_cfg(POLICY_SEED),
    )
    .with_telemetry(telemetry.clone());
    runner.train_rounds(TRAIN_ROUNDS / 2);
    let mid = runner.policy_snapshots();
    runner.train_rounds(TRAIN_ROUNDS - TRAIN_ROUNDS / 2);
    Trained { mid, fin: runner.policy_snapshots() }
}

/// Encodes the snapshots (`fed.snapshot_encode_ms`), loads them back
/// through the wire format and opens the fleet (`serve.load_ms`). The gate
/// requires every stored snapshot to re-encode to the exact bytes exported.
#[allow(clippy::too_many_arguments)]
fn export_and_open(
    snaps: &[PolicySnapshot],
    candidates: [&[PolicySnapshot]; 2],
    windows: Vec<Vec<Vec<TaskSpec>>>,
    sessions_per_client: usize,
    telemetry: Telemetry,
    tamper: Tamper,
    seed: u64,
    gate: &mut Gate,
) -> Option<(Fleet, f64, f64)> {
    let t = Instant::now();
    let exported: Vec<Vec<u8>> = snaps.iter().map(|s| s.to_bytes()).collect();
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut wire = exported.clone();
    if tamper == Tamper::SnapshotByte {
        let b = wire[0].len() - 3;
        wire[0][b] ^= 0x10;
    }
    let t = Instant::now();
    let store = PolicyStore::from_blobs(wire.iter().map(Vec::as_slice));
    let Ok(store) = store else {
        gate.check(false, || format!("snapshot store failed to load: {:?}", store.err()));
        return None;
    };
    let svc = ShardedDecisionService::new(
        store,
        ShardedServeConfig { shards: 1, queue_capacity: 4096, max_batch: MAX_BATCH },
    )
    .with_telemetry(telemetry);
    let fleet = Fleet::open(svc, windows, candidates, sessions_per_client, seed);
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let reencoded: Vec<Vec<u8>> = fleet.svc.store().iter().map(|s| s.to_bytes()).collect();
    gate.check(reencoded == exported, || "snapshot wire round trip is not byte-identical".into());
    Some((fleet, encode_ms, load_ms))
}

struct Ramp {
    handle: RampHandle,
    client: usize,
    poisoned: bool,
    published: Instant,
}

/// Accumulated measurements of one `Fleet::drive` call.
#[derive(Default)]
pub struct LoopStats {
    iterations: u64,
    decisions: u64,
    placed: u64,
    failed: u64,
    /// Per round of at least `ROUND_DECISIONS` decisions: wall ns,
    /// decisions, placements, and the p50 and p99 decision latency (ns).
    rounds: Vec<[f64; 5]>,
    busy_ns: f64,
    /// `(latency ns, decisions)` of each wave of the current round.
    waves_in_round: Vec<(f64, u64)>,
    submit_ns: f64,
    submitted: u64,
    waves: u64,
    wave_ns: f64,
    queue_wait_ns: f64,
    plans: u64,
    begin_ns: f64,
    begins: u64,
    publish_ns: f64,
    publishes: u64,
    commit_ns: f64,
    commits: u64,
    rollbacks: u64,
    shadowed: u64,
    ramp_rejected: u64,
    wrong_outcome: u64,
    retired_served: u64,
    misrouted: u64,
    nonfinite: u64,
    hash: u64,
    eval_sum: f64,
    eval_tasks: u64,
}

impl LoopStats {
    fn new() -> Self {
        Self { hash: 0xcbf2_9ce4_8422_2325, ..Self::default() }
    }

    /// Mean Eq. 23 response time over the sessions' leading episodes.
    pub fn response(&self) -> f64 {
        self.eval_sum / self.eval_tasks.max(1) as f64
    }

    fn mix(&mut self, d: &Decision) {
        for word in [d.action as u64, d.reward.to_bits() as u64, d.version, d.done as u64] {
            self.hash = (self.hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

enum Stop {
    /// Until `seconds` have passed and every session finished its leading
    /// evaluation episodes, at round boundaries.
    Time(f64),
    Iterations(u64),
    /// Until this many candidates have resolved.
    Resolved(u64),
}

/// A serving fleet: the service, its sessions (client-major, so each
/// client's sessions are adjacent in every wave) and the publish schedule.
pub struct Fleet {
    svc: ShardedDecisionService,
    ids: Vec<SessionId>,
    client_of: Vec<usize>,
    local_of: Vec<usize>,
    episodes: Vec<usize>,
    windows: Vec<Vec<Vec<TaskSpec>>>,
    out: Vec<(SessionId, Decision)>,
    publish: bool,
    eval_episodes: usize,
    /// Per client, the version every decision must now carry at least.
    min_version: Vec<u64>,
    /// `[client][set]` clean candidates and `[client]` poisoned ones.
    clean: Vec<[PolicySnapshot; 2]>,
    poisoned: Vec<PolicySnapshot>,
    base_version: u64,
    next_candidate: usize,
    ramp: Option<Ramp>,
    /// `(client, version)` of a committed ramp whose cutover no served
    /// decision has shown yet.
    cutover: Option<(usize, u64)>,
    tamper: Tamper,
    replay_session: usize,
    replay: Vec<Decision>,
}

impl Fleet {
    fn open(
        svc: ShardedDecisionService,
        windows: Vec<Vec<Vec<TaskSpec>>>,
        candidates: [&[PolicySnapshot]; 2],
        sessions_per_client: usize,
        seed: u64,
    ) -> Self {
        let clients: Vec<String> = svc.store().clients().iter().map(|c| c.to_string()).collect();
        let (mut ids, mut client_of, mut local_of) = (Vec::new(), Vec::new(), Vec::new());
        for (c, name) in clients.iter().enumerate() {
            for j in 0..sessions_per_client {
                let id = svc.open_session(name).expect("every stored client opens");
                svc.begin_episode(id, &windows[c][j % windows[c].len()]).expect("session is open");
                ids.push(id);
                client_of.push(c);
                local_of.push(j);
            }
        }
        let clean: Vec<[PolicySnapshot; 2]> = (0..clients.len())
            .map(|c| [candidates[0][c].clone(), candidates[1][c].clone()])
            .collect();
        let poisoned = clean
            .iter()
            .map(|[_, s]| {
                let mut p = s.clone();
                p.actor_params[0] = f32::NAN;
                p
            })
            .collect();
        let base_version = svc.store().iter().map(|s| s.version).max().unwrap_or(0);
        let n = ids.len();
        Self {
            svc,
            episodes: vec![0; n],
            min_version: vec![0; clients.len()],
            ids,
            client_of,
            local_of,
            windows,
            out: Vec::with_capacity(n),
            publish: false,
            eval_episodes: 0,
            clean,
            poisoned,
            base_version,
            next_candidate: 0,
            ramp: None,
            cutover: None,
            tamper: Tamper::None,
            replay_session: (seed % n as u64) as usize,
            replay: Vec::new(),
        }
    }

    /// One closed-loop pass: submit one request per session, drain waves
    /// until every request is decided, restart finished episodes, and
    /// advance the publish schedule.
    fn iterate(&mut self, st: &mut LoopStats) {
        let n = self.ids.len();
        let t0 = Instant::now();
        let admitted = self.svc.submit_many(&self.ids);
        let mut t_prev = Instant::now();
        st.submit_ns += (t_prev - t0).as_nanos() as f64;
        st.submitted += n as u64;
        st.failed += (n - admitted) as u64;
        self.out.clear();
        while self.out.len() < admitted {
            let before = self.out.len();
            self.svc.decide_wave_into(0, &mut self.out);
            let t = Instant::now();
            let got = self.out.len() - before;
            if got == 0 {
                st.failed += (admitted - before) as u64;
                break;
            }
            st.waves_in_round.push(((t - t0).as_nanos() as f64, got as u64));
            st.queue_wait_ns += (t_prev - t0).as_nanos() as f64 * got as f64;
            st.wave_ns += (t - t_prev).as_nanos() as f64;
            st.waves += 1;
            let switches = (before + 1..before + got)
                .filter(|&k| self.client_of[k] != self.client_of[k - 1])
                .count();
            st.plans += 1 + switches as u64;
            t_prev = t;
        }
        for k in 0..self.out.len() {
            let (id, d) = self.out[k];
            if id != self.ids[k] {
                st.misrouted += 1;
                continue;
            }
            st.mix(&d);
            st.decisions += 1;
            st.placed += d.placed as u64;
            let c = self.client_of[k];
            st.retired_served += (d.version < self.min_version[c]) as u64;
            if self.cutover.is_some_and(|(cc, v)| cc == c && d.version >= v) {
                self.cutover = None;
            }
            st.nonfinite += !d.reward.is_finite() as u64;
            if k == self.replay_session && self.replay.len() < REPLAY_CAP {
                self.replay.push(d);
            }
            if d.done {
                let e = self.episodes[k];
                if e < self.eval_episodes {
                    let m = self.svc.metrics(id).expect("session is open");
                    st.eval_sum += m.avg_response * m.tasks_placed as f64;
                    st.eval_tasks += m.tasks_placed as u64;
                }
                self.episodes[k] += 1;
                let w = &self.windows[c][(self.local_of[k] + e + 1) % self.windows[c].len()];
                let t = Instant::now();
                self.svc.begin_episode(id, w).expect("session is open");
                st.begin_ns += t.elapsed().as_nanos() as f64;
                st.begins += 1;
            }
        }
        if self.publish {
            self.ramp_step(st);
        }
        st.iterations += 1;
        st.busy_ns += t0.elapsed().as_nanos() as f64;
    }

    /// Resolves the active ramp, if it has finished, then publishes the
    /// next candidate with a higher version.
    ///
    /// After a commit the next publish waits until a served decision shows
    /// the cutover. A commit takes effect at the shard's next wave boundary,
    /// and a publish before that boundary replaces the shard's pending ramp
    /// without applying the commit, so the retired version would keep
    /// serving on that shard.
    fn ramp_step(&mut self, st: &mut LoopStats) {
        if let Some(r) = &self.ramp {
            match r.handle.status() {
                RampStatus::Shadow => return,
                RampStatus::Committed => {
                    st.commits += 1;
                    st.commit_ns += r.published.elapsed().as_nanos() as f64;
                    st.shadowed += r.handle.shadowed();
                    self.min_version[r.client] = r.handle.version();
                    self.cutover = Some((r.client, r.handle.version()));
                    st.wrong_outcome += r.poisoned as u64;
                }
                RampStatus::RolledBack => {
                    st.rollbacks += 1;
                    st.wrong_outcome += !r.poisoned as u64;
                }
            }
            self.ramp = None;
        }
        if self.cutover.is_some() {
            return;
        }
        let i = self.next_candidate;
        self.next_candidate += 1;
        let clients = self.clean.len();
        let client = i % clients;
        let poisoned = i % POISON_EVERY == POISON_EVERY - 1;
        let inject = i == 0 && self.tamper == Tamper::CleanCandidateNan;
        let cand = if poisoned || inject {
            &mut self.poisoned[client]
        } else {
            &mut self.clean[client][(i / clients) % 2]
        };
        cand.version = self.base_version + 1 + i as u64;
        let t = Instant::now();
        let published = self.svc.publish(cand, SHADOW_TARGET);
        st.publish_ns += t.elapsed().as_nanos() as f64;
        st.publishes += 1;
        match published {
            Ok(handle) => self.ramp = Some(Ramp { handle, client, poisoned, published: t }),
            Err(_) => st.ramp_rejected += 1,
        }
    }

    fn drive(&mut self, stop: Stop) -> LoopStats {
        let mut st = LoopStats::new();
        let start = Instant::now();
        let mut round_start = (start, 0, 0);
        loop {
            self.iterate(&mut st);
            let (t0, d0, p0) = round_start;
            if st.decisions - d0 >= ROUND_DECISIONS {
                let now = Instant::now();
                let ns = (now - t0).as_nanos() as f64;
                let p50 = weighted_quantile(&mut st.waves_in_round, 0.5);
                let p99 = weighted_quantile(&mut st.waves_in_round, 0.99);
                st.waves_in_round.clear();
                st.rounds.push([ns, (st.decisions - d0) as f64, (st.placed - p0) as f64, p50, p99]);
                round_start = (Instant::now(), st.decisions, st.placed);
                if let Stop::Time(seconds) = stop {
                    let evaluated = self.episodes.iter().all(|&e| e >= self.eval_episodes);
                    if evaluated && start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                }
            }
            match stop {
                Stop::Iterations(n) if st.iterations >= n => break,
                Stop::Resolved(n) if st.commits + st.rollbacks >= n => break,
                _ => {}
            }
        }
        st
    }

    /// Ledger balance, routing, version audit and ramp outcomes.
    fn check(&self, st: &LoopStats, expect_ramps: bool, gate: &mut Gate) {
        let l = self.svc.ledger();
        gate.check(l.admitted == l.decisions + l.stale + l.queued, || {
            format!("unbalanced ledger {l:?}")
        });
        gate.check(l.rejected == 0 && l.stale == 0, || format!("requests lost: {l:?}"));
        gate.check(st.misrouted == 0, || format!("{} decisions misrouted", st.misrouted));
        gate.check(st.nonfinite == 0, || format!("{} non-finite rewards", st.nonfinite));
        gate.check(st.retired_served == 0, || {
            format!("{} decisions served by a retired version", st.retired_served)
        });
        if expect_ramps {
            gate.check(st.commits >= 1, || "no ramp committed".into());
            gate.check(st.wrong_outcome == 0 && st.ramp_rejected == 0, || {
                format!(
                    "ramp outcomes wrong: {} of {} resolved ramps, {} rejected publishes",
                    st.wrong_outcome,
                    st.commits + st.rollbacks,
                    st.ramp_rejected
                )
            });
        }
    }

    /// Replays the sampled session through a standalone `Session` on the
    /// same snapshot and task windows; its decisions must be identical.
    fn check_replay(&self, gate: &mut Gate) {
        let k = self.replay_session;
        let c = self.client_of[k];
        let name = self.svc.store().clients()[c].to_string();
        let snap = self.svc.store().latest(&name).expect("client is stored");
        let mut session = Session::new(snap).expect("stored snapshot instantiates");
        let mut episode = 0;
        let begin = |s: &mut Session, e: usize| {
            s.begin_episode(&self.windows[c][(self.local_of[k] + e) % self.windows[c].len()])
        };
        begin(&mut session, 0);
        let mut mismatches = 0;
        for served in &self.replay {
            let d = session.decide();
            mismatches += (d != *served) as usize;
            if d.done {
                episode += 1;
                begin(&mut session, episode);
            }
        }
        gate.check(mismatches == 0 && !self.replay.is_empty(), || {
            format!(
                "sampled session: {mismatches} of {} decisions differ on replay",
                self.replay.len()
            )
        });
    }
}

/// Decision latency of the best-rate rounds: the p50 and p99 of each
/// round's submit-to-return latencies, at the rounds host contention
/// spared (their `1 − BEST_RATE` quantile), in microseconds.
fn best_latency(st: &LoopStats) -> (f64, f64) {
    let col = |i: usize| -> Vec<f64> { st.rounds.iter().map(|r| r[i]).collect() };
    let best = 1.0 - BEST_RATE;
    (quantile(&mut col(3), best) / 1e3, quantile(&mut col(4), best) / 1e3)
}

/// Decisions per second of the best-rate rounds.
fn best_rate(st: &LoopStats) -> f64 {
    quantile(&mut st.rounds.iter().map(|r| r[1] / r[0] * 1e9).collect::<Vec<_>>(), BEST_RATE)
}

/// End-to-end metrics of a serving loop.
fn put_serving_e2e(r: &mut Report, st: &LoopStats) {
    let decisions_per_s = best_rate(st);
    let (p50, tail) = best_latency(st);
    r.put("tasks_per_s", decisions_per_s * st.placed as f64 / st.decisions as f64);
    r.put("decisions_per_s", decisions_per_s);
    r.put("round_ms", ROUND_DECISIONS as f64 / decisions_per_s * 1e3);
    r.put("decision_p50_us", p50);
    r.put("decision_tail_us", tail);
    r.put("eval_response_steps", st.response());
    r.table.push(format!(
        "{} rounds of {ROUND_DECISIONS}+ decisions; latency p50/p99 within each round",
        st.rounds.len()
    ));
}

/// Serves `policies`, one session each over its `windows`, until `seconds`
/// have passed and every session finished `eval_episodes` episodes; the
/// returned loop's `response()` averages over those leading episodes.
/// Episodes are cut after ten decisions per task: a greedy policy that
/// repeats an infeasible placement would otherwise run for the default
/// budget of 200,000 decisions.
pub fn serve_policies(
    policies: &[PolicySnapshot],
    windows: Vec<Vec<Vec<TaskSpec>>>,
    eval_episodes: usize,
    seconds: f64,
    gate: &mut Gate,
) -> LoopStats {
    let window = windows.iter().flatten().map(Vec::len).max().unwrap_or(1);
    let capped: Vec<PolicySnapshot> = policies
        .iter()
        .map(|p| {
            let mut p = p.clone();
            p.env_cfg.max_decisions = 10 * window;
            p
        })
        .collect();
    let opened = export_and_open(
        &capped,
        [&capped, &capped],
        windows,
        1,
        Telemetry::noop(),
        Tamper::None,
        0,
        gate,
    );
    let Some((mut fleet, _, _)) = opened else { return LoopStats::new() };
    fleet.eval_episodes = eval_episodes;
    let st = fleet.drive(Stop::Time(seconds));
    fleet.check(&st, false, gate);
    st
}

/// Serving per-layer metrics: `st` is the traced loop, `ramps` the loop
/// whose publishes supply the ramp metrics (the same loop on `serve-swap`).
pub fn put_serving_layers(r: &mut Report, st: &LoopStats, ramps: &LoopStats, macs_per_row: u64) {
    let per_decision_us = st.busy_ns / st.decisions.max(1) as f64 / 1e3;
    let share = |us_per_decision: f64| Some(us_per_decision / per_decision_us);
    let wave_us = st.wave_ns / st.waves.max(1) as f64 / 1e3;
    let rows = st.decisions as f64 / st.waves.max(1) as f64;
    let queue_wait_us = st.queue_wait_ns / st.decisions.max(1) as f64 / 1e3;
    let submit_ns = st.submit_ns / st.submitted.max(1) as f64;
    let begin_us = st.begin_ns / st.begins.max(1) as f64 / 1e3;
    let rows_per_plan = st.decisions as f64 / st.plans.max(1) as f64;
    let publish_us = ramps.publish_ns / ramps.publishes.max(1) as f64 / 1e3;
    let commit_us = ramps.commit_ns / ramps.commits.max(1) as f64 / 1e3;
    r.put("serve.wave_us", wave_us);
    r.put("serve.queue_wait_us", queue_wait_us);
    r.put("serve.submit_ns", submit_ns);
    r.put("serve.begin_episode_us", begin_us);
    r.put("serve.rows_per_plan", rows_per_plan);
    r.put("serve.wave_macs", rows * macs_per_row as f64);
    r.put("serve.publish_us", publish_us);
    r.put("serve.ramp_commit_us", commit_us);
    r.put("serve.shadowed", ramps.shadowed as f64);
    r.put("serve.ramps_committed", ramps.commits as f64);
    r.put("serve.ramps_rolled_back", ramps.rollbacks as f64);
    r.put("serve.ramp_rejected", ramps.ramp_rejected as f64);
    let waves_per_decision = st.waves as f64 / st.decisions.max(1) as f64;
    let publishes_per_decision = st.publishes as f64 / st.decisions.max(1) as f64;
    let begins_per_decision = st.begins as f64 / st.decisions.max(1) as f64;
    r.table.extend([
        layers::row("served decision (loop)", per_decision_us, "us", Some(1.0), "per decision"),
        layers::row(
            "serve/decide_wave",
            wave_us,
            "us",
            share(wave_us * waves_per_decision),
            "per wave; share of a decision",
        ),
        layers::row("serve/submit_many", submit_ns, "ns", share(submit_ns / 1e3), "per request"),
        layers::row(
            "serve/begin_episode",
            begin_us,
            "us",
            share(begin_us * begins_per_decision),
            "per episode start",
        ),
        layers::row(
            "serve/publish",
            publish_us,
            "us",
            share(publish_us * publishes_per_decision),
            "per publish",
        ),
        layers::row(
            "serve/queue_wait",
            queue_wait_us,
            "us",
            None,
            "submit to wave start, per decision",
        ),
        layers::row("serve/ramp_commit", commit_us, "us", None, "publish to observed commit"),
        layers::row("serve/rows_per_plan", rows_per_plan, "rows", None, "plan GEMM height"),
        layers::row(
            "serve/wave_macs",
            rows * macs_per_row as f64,
            "MAC",
            None,
            "computed: rows x actor MACs",
        ),
        layers::row(
            "serve/ramps_committed",
            ramps.commits as f64,
            "count",
            None,
            "RampHandle::status",
        ),
        layers::row(
            "serve/ramps_rolled_back",
            ramps.rollbacks as f64,
            "count",
            None,
            "every poisoned candidate, no other",
        ),
        layers::row(
            "serve/shadowed",
            ramps.shadowed as f64,
            "count",
            None,
            "RampHandle::shadowed at commit",
        ),
    ]);
}

/// The serving tail of a traced training run: export the trained policies,
/// load them, and serve one session per policy with ramps for a fixed
/// number of passes.
pub fn pipeline_probe(
    r: &mut Report,
    snaps: &[PolicySnapshot],
    windows: Vec<Vec<Vec<TaskSpec>>>,
    seed: u64,
    gate: &mut Gate,
) {
    let recorder = Arc::new(InMemoryRecorder::new());
    let opened = export_and_open(
        snaps,
        [snaps, snaps],
        windows,
        1,
        Telemetry::new(recorder),
        Tamper::None,
        seed,
        gate,
    );
    let Some((mut fleet, encode_ms, load_ms)) = opened else { return };
    fleet.publish = true;
    let st = fleet.drive(Stop::Iterations(PIPELINE_ITERATIONS));
    fleet.check(&st, true, gate);
    r.put("fed.snapshot_encode_ms", encode_ms);
    r.put("serve.load_ms", load_ms);
    let l = fleet.svc.ledger();
    r.put("serve.rejected", l.rejected as f64);
    r.put("serve.stale", l.stale as f64);
    r.table.push("serving tail (exported policies, one session each, ramps on):".into());
    put_serving_layers(r, &st, &st, layers::fwd_macs(&snaps[0].sizes()));
}

pub fn run(args: &Args) -> Report {
    let shape = shape(args);
    let mut r = Report::default();
    let mut gate = Gate::default();
    let reps = if args.tiny || args.trace { 1 } else { SETUP_REPS };
    let (mut setup_s, mut gen_ms) = (Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let t0 = Instant::now();
        let inputs = generate(args.seed, args.tiny);
        gen_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let trained = train_policies(&inputs, &Telemetry::noop());
        let opened = export_and_open(
            &trained.fin,
            [&trained.mid, &trained.fin],
            inputs.windows.clone(),
            shape.sessions_per_client,
            Telemetry::noop(),
            args.tamper,
            args.seed,
            &mut gate,
        );
        let Some((mut fleet, _, _)) = opened else {
            r.gate = gate;
            return r;
        };
        fleet.tamper = args.tamper;
        fleet.eval_episodes = shape.eval_episodes;
        fleet.publish = shape.publish;
        fleet.drive(Stop::Iterations(1));
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((inputs, trained, fleet));
    }
    let (inputs, trained, mut fleet) = state.expect("at least one setup");
    r.input_hash = inputs.hash;

    let budget = if args.trace { 0.4 * args.seconds } else { args.seconds };
    let (st, noise) = with_noise(|| fleet.drive(Stop::Time(budget)));
    r.noise = noise;
    r.ops = st.submitted;
    r.failed_ops = st.failed;
    fleet.check(&st, shape.publish, &mut gate);
    if !shape.publish {
        fleet.check_replay(&mut gate);
    }
    let fin_bytes: Vec<Vec<u8>> = trained.fin.iter().map(|s| s.to_bytes()).collect();
    if !args.trace {
        put_serving_e2e(&mut r, &st);
        r.put("setup_s", median(&mut setup_s));
        r.put("rss_peak_mib", host::rss_peak_mib());
        r.gate = gate;
        return r;
    }

    // Traced run of the same seed: the setup training, export and load,
    // then exactly as many closed-loop passes as the untraced run made.
    let train_rec = Arc::new(InMemoryRecorder::new());
    let traced = train_policies(&inputs, &Telemetry::new(train_rec.clone()));
    let traced_bytes: Vec<Vec<u8>> = traced.fin.iter().map(|s| s.to_bytes()).collect();
    gate.check(traced_bytes == fin_bytes, || "traced and untraced training disagree".into());
    let serve_rec = Arc::new(InMemoryRecorder::new());
    let opened = export_and_open(
        &traced.fin,
        [&traced.mid, &traced.fin],
        inputs.windows.clone(),
        shape.sessions_per_client,
        Telemetry::new(serve_rec.clone()),
        Tamper::None,
        args.seed,
        &mut gate,
    );
    let Some((mut tfleet, encode_ms, load_ms)) = opened else {
        r.gate = gate;
        return r;
    };
    tfleet.eval_episodes = shape.eval_episodes;
    tfleet.publish = shape.publish;
    tfleet.drive(Stop::Iterations(1));
    let tst = tfleet.drive(Stop::Iterations(st.iterations));
    tfleet.check(&tst, shape.publish, &mut gate);
    gate.check(
        (tst.hash, tst.decisions, tst.eval_sum.to_bits())
            == (st.hash, st.decisions, st.eval_sum.to_bits()),
        || "traced and untraced serving disagree on decisions".into(),
    );
    let snap = serve_rec.snapshot();
    let ledger = tfleet.svc.ledger();
    gate.check(snap.counter("serve/decisions") == ledger.decisions, || {
        "serve/decisions counter disagrees with the ledger".into()
    });

    r.put("workloads.gen_ms", median(&mut gen_ms));
    r.put("fed.snapshot_encode_ms", encode_ms);
    r.put("serve.load_ms", load_ms);
    r.put("serve.rejected", ledger.rejected as f64);
    r.put("serve.stale", ledger.stale as f64);
    let overhead = best_rate(&st) / best_rate(&tst);
    r.put("telemetry.overhead", overhead - 1.0);
    r.table.push(format!(
        "workload {}: traced run of {} closed-loop passes, {} decisions; telemetry overhead {:+.1}%",
        args.workload,
        tst.iterations,
        tst.decisions,
        100.0 * (overhead - 1.0)
    ));
    let ramps = if shape.publish {
        None
    } else {
        // serve-fleet never publishes in its timed loop; a short publish
        // probe afterwards supplies the ramp metrics.
        tfleet.publish = true;
        Some(tfleet.drive(Stop::Resolved(POISON_EVERY as u64)))
    };
    if let Some(p) = &ramps {
        tfleet.check(p, true, &mut gate);
        r.table.push(format!(
            "ramp metrics from a {POISON_EVERY}-candidate publish probe after the traced loop"
        ));
    }
    let macs = layers::fwd_macs(&traced.fin[0].sizes());
    put_serving_layers(&mut r, &tst, ramps.as_ref().unwrap_or(&tst), macs);

    // The setup training, traced: the rl and fed layers.
    let train_snap = train_rec.snapshot();
    train::put_training_layers(
        &mut r,
        &train_snap,
        &train::FedShape::of(
            &train_cfg(POLICY_SEED),
            &PpoConfig::default(),
            TABLE2_DIMS,
            inputs.train.len(),
        ),
        TRAIN_ROUNDS as u64,
        "setup training",
        &mut gate,
    );

    let cases: Vec<SimCase> = inputs
        .windows
        .iter()
        .zip(&inputs.vms)
        .flat_map(|(ws, vms)| ws.iter().map(move |w| (vms.as_slice(), w.as_slice())))
        .collect();
    train::put_probe_layers(&mut r, TABLE2_DIMS, &cases, &traced.fin[0], &mut gate);
    r.gate = gate;
    r
}
