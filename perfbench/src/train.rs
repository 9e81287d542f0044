//! The training workload `train`: PFRL-DM with `FedConfig.parallel = false`
//! on the paper's Table 2 four-client federation, 50-task episode windows,
//! K = N/2 = 2, one local episode per round and the default PPO settings.
//! The dual-critic PPO update does almost all the work.
//!
//! Rounds are timed in cycles: each cycle trains a fresh federation on
//! inputs drawn from its own seed (derived from `--seed`) for a fixed number
//! of rounds. A run therefore averages over several training trajectories,
//! and its first `eval_cycles` cycles, which every run completes, fix the
//! work behind the reported ratios and the held-out evaluation exactly.
//! After the timed rounds, the policies of those cycles are exported and
//! served one session each on held-out task windows, which gives the Eq. 23
//! response time.

use crate::layers::{self, SimCase};
use crate::stats::{median, quantile};
use crate::{host, serve, with_noise, Args, Gate, Report, BEST_RATE};
use pfrl_core::fed::{ClientSetup, FedConfig, FederatedRunner, PfrlDmRunner, PolicySnapshot};
use pfrl_core::nn::MultiHeadConfig;
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::{EnvConfig, EnvDims};
use pfrl_core::stats::seeding::derive_seed;
use pfrl_core::telemetry::{
    fnv1a, FanoutRecorder, InMemoryRecorder, MetricsSnapshot, Recorder, Telemetry,
};
use pfrl_core::tensor::simd::{tier, SimdTier};
use pfrl_core::workloads::TaskSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SETUP_REPS: usize = 5;
/// Tasks per training episode and per held-out window.
const WINDOW: usize = 50;
/// Timed rollout decisions per latency sample block: enough that a p90 has
/// a hundred decisions beyond it.
const LATENCY_BLOCK: usize = 1000;
/// Serving phase after the timed rounds that evaluates the trained policies.
const EVAL_SECONDS: f64 = 0.5;

struct FedSpec {
    seed: u64,
    tiny: bool,
    dims: EnvDims,
    ppo: PpoConfig,
    /// Cycle 0's inputs (later cycles draw their own).
    setups: Vec<ClientSetup>,
    /// Held-out task windows per client.
    heldout: Vec<Vec<Vec<TaskSpec>>>,
    rounds_per_cycle: usize,
    /// Fewest timed rounds; the cycles they span are the `eval_cycles`.
    min_rounds: usize,
    hash: u64,
}

impl FedSpec {
    fn eval_cycles(&self) -> usize {
        self.min_rounds.div_ceil(self.rounds_per_cycle)
    }

    fn cycle_seed(&self, cycle: usize) -> u64 {
        derive_seed(self.seed, 0xc1c1e + cycle as u64)
    }

    fn fed(&self, cycle: usize) -> FedConfig {
        FedConfig {
            // Rounds are driven one by one; the episode budget never binds.
            episodes: 1 << 30,
            comm_every: 1,
            participation_k: 2,
            tasks_per_episode: Some(WINDOW),
            seed: self.cycle_seed(cycle),
            parallel: false,
        }
    }

    fn setups(&self, cycle: usize) -> Vec<ClientSetup> {
        table2_clients(if self.tiny { 150 } else { 700 }, self.cycle_seed(cycle))
    }

    /// Tasks one round's episodes schedule.
    fn tasks_per_round(&self) -> usize {
        self.setups.iter().map(|s| s.train_tasks.len().min(WINDOW)).sum()
    }
}

fn generate(args: &Args) -> FedSpec {
    let mut spec = FedSpec {
        seed: args.seed,
        tiny: args.tiny,
        dims: TABLE2_DIMS,
        ppo: PpoConfig::default(),
        setups: Vec::new(),
        heldout: Vec::new(),
        rounds_per_cycle: if args.tiny { 2 } else { 25 },
        min_rounds: if args.tiny { 2 } else { 100 },
        hash: 0,
    };
    spec.setups = spec.setups(0);
    // A second draw of the same four clients: same fleets and workload laws,
    // unseen tasks.
    let heldout_seed = derive_seed(args.seed, 0x4e1d);
    spec.heldout = table2_clients(if args.tiny { 100 } else { 400 }, heldout_seed)
        .iter()
        .enumerate()
        .map(|(c, s)| {
            serve::windows(&s.train_tasks, WINDOW, 6, derive_seed(heldout_seed, c as u64))
        })
        .collect();
    let tasks = spec.setups.iter().flat_map(|s| s.train_tasks.iter().copied());
    spec.hash = serve::tasks_hash(tasks.chain(spec.heldout.iter().flatten().flatten().copied()));
    spec
}

/// Attached to the client environments of the untraced run (agents and
/// runner stay on the noop handle). Keeps the simulator's decision and event
/// counters, and times each rollout decision as the interval between the
/// ends of consecutive steps of one episode (policy forward, sampling and
/// environment step); the first step of an episode, which follows the
/// previous episode's PPO update, is not timed.
#[derive(Default)]
struct SimCounts {
    decisions: AtomicU64,
    events: AtomicU64,
    steps: Mutex<StepClock>,
}

#[derive(Default)]
struct StepClock {
    last: Option<Instant>,
    intervals_ns: Vec<f64>,
}

impl Recorder for SimCounts {
    fn counter_add(&self, name: &str, delta: u64) {
        match name {
            "sim/decisions" => {
                self.decisions.fetch_add(delta, Ordering::Relaxed);
            }
            "sim/events" => {
                self.events.fetch_add(delta, Ordering::Relaxed);
            }
            "sim/episodes" => self.clock().last = None,
            _ => {}
        }
    }
    fn gauge_set(&self, _: &str, _: f64) {}
    fn observe(&self, name: &str, _: f64) {
        // The environment observes its queue depth once at the end of
        // every step.
        if name == "sim/queue_depth" {
            let now = Instant::now();
            let mut clock = self.clock();
            if let Some(last) = clock.last {
                clock.intervals_ns.push((now - last).as_nanos() as f64);
            }
            clock.last = Some(now);
        }
    }
    fn span_ns(&self, _: &str, _: u64) {}
}

impl SimCounts {
    fn read(&self) -> (u64, u64) {
        (self.decisions.load(Ordering::Relaxed), self.events.load(Ordering::Relaxed))
    }

    fn clock(&self) -> std::sync::MutexGuard<'_, StepClock> {
        self.steps.lock().expect("step clock lock poisoned")
    }

    /// p50 and p90 of the decisions timed since the last block, ns, once
    /// at least `LATENCY_BLOCK` are in (or any, when `last`).
    fn take_block(&self, last: bool) -> Option<(f64, f64)> {
        let mut clock = self.clock();
        let n = clock.intervals_ns.len();
        if n == 0 || (n < LATENCY_BLOCK && !last) {
            return None;
        }
        let out = (median(&mut clock.intervals_ns), quantile(&mut clock.intervals_ns, 0.9));
        clock.intervals_ns.clear();
        Some(out)
    }
}

/// Builds cycle `cycle`'s federation. Untraced: only the environments
/// count decisions. Traced: everything reports to `traced`.
fn build(
    spec: &FedSpec,
    cycle: usize,
    counts: &Arc<SimCounts>,
    traced: Option<&Telemetry>,
) -> PfrlDmRunner {
    let setups = if cycle == 0 { spec.setups.clone() } else { spec.setups(cycle) };
    let mut runner =
        PfrlDmRunner::new(setups, spec.dims, EnvConfig::default(), spec.ppo, spec.fed(cycle));
    runner.set_record_history(false);
    if let Some(t) = traced {
        return runner.with_telemetry(t.clone());
    }
    let envs = Telemetry::new(counts.clone());
    for c in &mut runner.clients {
        c.set_telemetry(envs.clone());
        c.agent.set_telemetry(Telemetry::noop());
    }
    runner
}

struct Cycles {
    round_ns: Vec<f64>,
    round_decisions: Vec<u64>,
    /// Per block of at least `LATENCY_BLOCK` timed rollout decisions, closed
    /// at round ends: p50 and p90 latency, ns.
    latency_blocks: Vec<(f64, f64)>,
    /// Per cycle: decisions, events, and the bits of the reward sum.
    per_cycle: Vec<(u64, u64, u64)>,
    /// Fingerprint of the full federation state after the first cycle.
    state_hash: u64,
    nonfinite: u64,
    /// Policies trained by the evaluation cycles, one client name per cycle.
    policies: Vec<PolicySnapshot>,
}

impl Cycles {
    /// Decisions per second of the best-rate rounds.
    fn best_rate(&self) -> f64 {
        let rates =
            self.round_ns.iter().zip(&self.round_decisions).map(|(ns, &d)| d as f64 / ns * 1e9);
        quantile(&mut rates.collect::<Vec<_>>(), BEST_RATE)
    }
}

enum Stop {
    /// Until the time has passed and at least this many rounds ran.
    Time(f64, usize),
    Cycles(usize),
}

fn finite_state(runner: &PfrlDmRunner) -> bool {
    runner.server_global().iter().all(|v| v.is_finite())
        && runner.clients.iter().all(|c| {
            let s = c.agent.snapshot();
            c.rewards.iter().all(|r| r.is_finite())
                && [&s.actor, &s.local_critic, &s.public_critic]
                    .iter()
                    .all(|p| p.iter().all(|v| v.is_finite()))
        })
}

fn run_cycles(
    spec: &FedSpec,
    counts: &Arc<SimCounts>,
    traced: Option<&Telemetry>,
    stop: Stop,
) -> Cycles {
    let start = Instant::now();
    let mut out = Cycles {
        round_ns: Vec::new(),
        round_decisions: Vec::new(),
        latency_blocks: Vec::new(),
        per_cycle: Vec::new(),
        state_hash: 0,
        nonfinite: 0,
        policies: Vec::new(),
    };
    loop {
        let cycle = out.per_cycle.len();
        let done = match stop {
            Stop::Cycles(n) => cycle >= n,
            Stop::Time(s, min_rounds) => {
                cycle > 0 && out.round_ns.len() >= min_rounds && start.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            if out.latency_blocks.is_empty() {
                out.latency_blocks.extend(counts.take_block(true));
            }
            return out;
        }
        let mut runner = build(spec, cycle, counts, traced);
        let (d0, e0) = counts.read();
        for _ in 0..spec.rounds_per_cycle {
            let d = counts.read().0;
            let t = Instant::now();
            runner.train_round();
            out.round_ns.push(t.elapsed().as_nanos() as f64);
            out.round_decisions.push(counts.read().0 - d);
            out.latency_blocks.extend(counts.take_block(false));
        }
        let (d1, e1) = counts.read();
        let rewards: f64 = runner.clients.iter().flat_map(|c| c.rewards.iter()).sum();
        out.nonfinite += !finite_state(&runner) as u64;
        if cycle == 0 {
            out.state_hash = fnv1a(&runner.checkpoint_bytes());
        }
        if cycle < spec.eval_cycles() {
            out.policies.extend(runner.policy_snapshots().into_iter().map(|mut s| {
                s.client = format!("cycle{cycle}/{}", s.client);
                s
            }));
        }
        out.per_cycle.push((d1 - d0, e1 - e0, rewards.to_bits()));
    }
}

/// Held-out windows for every policy of `policies`, in store order.
fn heldout_for(spec: &FedSpec, policies: usize) -> Vec<Vec<Vec<TaskSpec>>> {
    (0..policies).map(|i| spec.heldout[i % spec.heldout.len()].clone()).collect()
}

/// Shapes that fix a PFRL-DM round's computed operation counts and bytes.
pub struct FedShape {
    ppo: PpoConfig,
    dims: EnvDims,
    n: u64,
    k: u64,
    /// Public-critic parameters: the floats one upload carries.
    p: u64,
}

impl FedShape {
    pub fn of(fed: &FedConfig, ppo: &PpoConfig, dims: EnvDims, n: usize) -> Self {
        let p = layers::fwd_macs(&[dims.state_dim(), ppo.hidden, 1]) + ppo.hidden as u64 + 1;
        Self { ppo: *ppo, dims, n: n as u64, k: fed.participation_k as u64, p }
    }
}

/// The rl and fed layers of a traced PFRL-DM training of `rounds` rounds.
pub fn put_training_layers(
    r: &mut Report,
    snap: &MetricsSnapshot,
    shape: &FedShape,
    rounds: u64,
    label: &str,
    gate: &mut Gate,
) {
    let per_round = |path: &str| snap.span_total_ns(path) as f64 / 1e6 / rounds as f64;
    let round_ms = per_round("fed/round");
    let decisions = snap.counter("sim/decisions");
    let bytes_up = snap.counter("fed/bytes_up");
    let bytes_down = snap.counter("fed/bytes_down");
    // Every sampled client uploads once per round; non-participants
    // receive ψ_G, so every client downloads one critic per round.
    gate.check(bytes_up == rounds * shape.k * shape.p * 4, || {
        format!("fed/bytes_up {bytes_up} != computed {}", rounds * shape.k * shape.p * 4)
    });
    gate.check(bytes_down == rounds * shape.n * shape.p * 4, || {
        format!("fed/bytes_down {bytes_down} != computed {}", rounds * shape.n * shape.p * 4)
    });
    let accepted = bytes_up as f64 / (4 * shape.p * rounds) as f64;
    let att = MultiHeadConfig::default();
    let rl_update = per_round("rl/ppo_update");
    let rollout = per_round("sim/episode");
    let local = per_round("fed/round/local_train");
    let phases = ["upload", "attention", "aggregate", "broadcast"]
        .map(|p| per_round(&format!("fed/round/{p}")));
    let update_macs =
        layers::ppo_update_macs(&shape.ppo, shape.dims, decisions) as f64 / rounds as f64;
    let attention_macs =
        layers::attention_macs(att.heads, att.d_k, accepted.round() as u64, shape.p);
    let mix_macs = layers::mix_macs(accepted.round() as u64, shape.p);
    r.put("rl.update_ms", rl_update);
    r.put("rl.rollout_ms", rollout);
    r.put("rl.transitions", decisions as f64 / rounds as f64);
    r.put("rl.update_macs", update_macs);
    r.put("fed.local_train_ms", local);
    r.put("fed.upload_ms", phases[0]);
    r.put("fed.attention_ms", phases[1]);
    r.put("fed.aggregate_ms", phases[2]);
    r.put("fed.broadcast_ms", phases[3]);
    r.put("fed.bytes_up", bytes_up as f64 / rounds as f64);
    r.put("fed.bytes_down", bytes_down as f64 / rounds as f64);
    r.put("fed.attention_macs", attention_macs as f64);
    r.put("fed.mix_macs", mix_macs as f64);
    r.put("fed.uploads_accepted_ratio", accepted / shape.k as f64);
    let share = |ms: f64| Some(ms / round_ms);
    let fed_ms: f64 = phases.iter().sum();
    r.table.push(format!("{label}: {rounds} traced rounds, per round:"));
    r.table.extend([
        layers::row("fed/round", round_ms, "ms", Some(1.0), "span"),
        layers::row("fed/round/local_train", local, "ms", share(local), "span"),
        layers::row("  rl/ppo_update", rl_update, "ms", share(rl_update), "span"),
        layers::row("  sim/episode (rollout)", rollout, "ms", share(rollout), "span"),
        layers::row("fed/round/upload", phases[0], "ms", share(phases[0]), "span"),
        layers::row("fed/round/attention", phases[1], "ms", share(phases[1]), "span"),
        layers::row("fed/round/aggregate", phases[2], "ms", share(phases[2]), "span"),
        layers::row("fed/round/broadcast", phases[3], "ms", share(phases[3]), "span"),
        layers::row(
            "fed phases (sum)",
            fed_ms,
            "ms",
            share(fed_ms),
            "upload+attention+aggregate+broadcast",
        ),
        layers::row(
            "other (traced-only losses)",
            round_ms - local - fed_ms,
            "ms",
            share(round_ms - local - fed_ms),
            "round minus the above",
        ),
        layers::row(
            "rl/transitions",
            decisions as f64 / rounds as f64,
            "count",
            None,
            "counter sim/decisions",
        ),
        layers::row(
            "rl/update_macs",
            update_macs,
            "MAC",
            None,
            "computed: (3*epochs*actor + (6*critic_epochs+4)*critic) per row",
        ),
        layers::row(
            "fed/attention_macs",
            attention_macs as f64,
            "MAC",
            None,
            "computed: heads*(K*P*d_k + K*K*d_k)",
        ),
        layers::row("fed/mix_macs", mix_macs as f64, "MAC", None, "computed: K*K*P"),
        layers::row(
            "fed/bytes_up",
            bytes_up as f64 / rounds as f64,
            "B",
            None,
            "counter; equals computed K*P*4",
        ),
        layers::row(
            "fed/bytes_down",
            bytes_down as f64 / rounds as f64,
            "B",
            None,
            "counter; equals computed N*P*4",
        ),
    ]);
}

/// The sim, nn and tensor layers, timed directly on the workload's windows
/// and one of its policies.
pub fn put_probe_layers(
    r: &mut Report,
    dims: EnvDims,
    cases: &[SimCase],
    snap: &pfrl_core::fed::PolicySnapshot,
    gate: &mut Gate,
) {
    let sim = layers::sim_probe(dims, cases, &Telemetry::noop(), 200.0);
    let rec = Arc::new(InMemoryRecorder::new());
    let traced = layers::sim_probe(dims, cases, &Telemetry::new(rec.clone()), 0.0);
    let counted = rec.snapshot();
    gate.check(sim.fingerprint == traced.fingerprint, || {
        format!("sim: traced {:?} != untraced {:?}", traced.fingerprint, sim.fingerprint)
    });
    gate.check(
        (counted.counter("sim/decisions"), counted.counter("sim/events"))
            == (sim.fingerprint.0, sim.fingerprint.1),
        || "sim telemetry counters disagree with the probe".into(),
    );
    let states = layers::sample_states(dims, cases, 32);
    let (w32, w1) = layers::nn_probe(snap, &states, 100.0);
    let lanes = match tier() {
        SimdTier::Avx2 => 8.0,
        SimdTier::Scalar => 1.0,
    };
    r.put("sim.step_ns", sim.step_ns);
    r.put("sim.decisions_per_task", sim.decisions_per_task);
    r.put("sim.events_per_decision", sim.events_per_decision);
    r.put("nn.forward_row_ns_w32", w32);
    r.put("nn.forward_row_ns_w1", w1);
    r.put("tensor.simd_lanes", lanes);
    r.table.extend([
        layers::row("sim/step (first fit)", sim.step_ns, "ns", None, "per CloudEnv::step"),
        layers::row("sim/decisions_per_task", sim.decisions_per_task, "ratio", None, "counter"),
        layers::row("sim/events_per_decision", sim.events_per_decision, "ratio", None, "counter"),
        layers::row("nn/forward_into w32", w32, "ns", None, "per row, 32-row batch"),
        layers::row("nn/forward_into w1", w1, "ns", None, "per row, 1-row batch"),
        format!("tensor SIMD tier: {}", tier().name()),
    ]);
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let mut gate = Gate::default();
    let counts = Arc::new(SimCounts::default());
    let reps = if args.tiny || args.trace { 1 } else { SETUP_REPS };
    let (mut setup_s, mut gen_ms) = (Vec::new(), Vec::new());
    let mut spec = None;
    for _ in 0..reps {
        drop(spec.take());
        let t0 = Instant::now();
        let s = generate(args);
        gen_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        // Untimed warm-up round on a throwaway federation.
        build(&s, 0, &counts, None).train_round();
        setup_s.push(t0.elapsed().as_secs_f64());
        spec = Some(s);
    }
    let spec = spec.expect("at least one setup");
    r.input_hash = spec.hash;

    let stop = if args.trace {
        Stop::Time(0.4 * args.seconds, 0)
    } else {
        Stop::Time(args.seconds, spec.min_rounds)
    };
    let (run, noise) = with_noise(|| run_cycles(&spec, &counts, None, stop));
    r.noise = noise;
    r.ops = run.round_ns.len() as u64;
    r.failed_ops = run.nonfinite;
    gate.check(run.nonfinite == 0, || "non-finite rewards or parameters".into());

    if !args.trace {
        let eval = serve::serve_policies(
            &run.policies,
            heldout_for(&spec, run.policies.len()),
            spec.heldout[0].len(),
            if args.tiny { 0.0 } else { EVAL_SECONDS },
            &mut gate,
        );
        // Host contention only ever adds time: rates and latencies are
        // those of the best rounds. Work per round differs between cycles
        // (each trains its own inputs), so tasks and round time are scaled
        // from the decision rate by the evaluation cycles' fixed work.
        let decisions_per_s = run.best_rate();
        let eval_rounds = spec.eval_cycles() * spec.rounds_per_cycle;
        let decisions: u64 = run.round_decisions[..eval_rounds].iter().sum();
        let tasks = (eval_rounds * spec.tasks_per_round()) as f64;
        let best = |f: fn(&(f64, f64)) -> f64| -> f64 {
            quantile(&mut run.latency_blocks.iter().map(f).collect::<Vec<_>>(), 1.0 - BEST_RATE)
                / 1e3
        };
        r.put("tasks_per_s", decisions_per_s * tasks / decisions as f64);
        r.put("decisions_per_s", decisions_per_s);
        r.put("round_ms", decisions as f64 / eval_rounds as f64 / decisions_per_s * 1e3);
        r.put("decision_p50_us", best(|l| l.0));
        r.put("decision_tail_us", best(|l| l.1));
        r.put("eval_response_steps", eval.response());
        r.put("setup_s", median(&mut setup_s));
        r.put("rss_peak_mib", host::rss_peak_mib());
        r.table.push(format!("{} rounds in {} cycles", run.round_ns.len(), run.per_cycle.len()));
        r.gate = gate;
        return r;
    }

    // Traced run of the same seed, same number of cycles.
    let rec = Arc::new(InMemoryRecorder::new());
    let tcounts = Arc::new(SimCounts::default());
    let fanout: Vec<Arc<dyn Recorder>> = vec![rec.clone(), tcounts.clone()];
    let tel = Telemetry::new(Arc::new(FanoutRecorder::new(fanout)));
    let traced = run_cycles(&spec, &tcounts, Some(&tel), Stop::Cycles(run.per_cycle.len()));
    let bytes = |c: &Cycles| -> Vec<Vec<u8>> { c.policies.iter().map(|p| p.to_bytes()).collect() };
    gate.check(
        traced.per_cycle == run.per_cycle
            && traced.state_hash == run.state_hash
            && bytes(&traced) == bytes(&run),
        || "traced and untraced training disagree on decisions, events, rewards or state".into(),
    );
    let overhead = run.best_rate() / traced.best_rate() - 1.0;
    r.put("telemetry.overhead", overhead);
    r.put("workloads.gen_ms", median(&mut gen_ms));
    r.table.push(format!(
        "workload {}: telemetry overhead {:+.1}% over {} rounds",
        args.workload,
        100.0 * overhead,
        traced.round_ns.len()
    ));
    let shape = FedShape::of(&spec.fed(0), &spec.ppo, spec.dims, spec.setups.len());
    let rounds = traced.round_ns.len() as u64;
    put_training_layers(&mut r, &rec.snapshot(), &shape, rounds, "timed rounds", &mut gate);

    // The serving tail: the first four policies of the first cycle, one
    // session each, with ramps.
    let served = traced.policies.len().min(4);
    serve::pipeline_probe(
        &mut r,
        &traced.policies[..served],
        heldout_for(&spec, served),
        args.seed,
        &mut gate,
    );

    let mut cases: Vec<SimCase> = Vec::new();
    for (s, ws) in spec.setups.iter().zip(&spec.heldout) {
        cases.extend(ws.iter().map(|w| (s.vms.as_slice(), w.as_slice())));
    }
    put_probe_layers(&mut r, spec.dims, &cases, &traced.policies[0], &mut gate);
    r.gate = gate;
    r
}
