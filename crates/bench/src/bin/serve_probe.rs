//! Serving-latency probe: trains a short 4-client federation of each of
//! the four algorithms, exports every client's policy snapshot through the
//! wire format, loads them into a one-shard `pfrl-serve`
//! `ShardedDecisionService`, and drives a wave-batched decision load
//! against all sessions at once.
//!
//! Decision latency is the wall time of the `decide_wave_into` call that
//! served the decision, recorded once per decision the wave served (the
//! definition `perfbench` uses). Its p50/p99 and decision throughput land
//! in `BENCH_serve_latency.json` at the repo root, with an append-only
//! history in `BENCH_serve_latency.history.jsonl` — the same record
//! conventions as every probe (see `pfrl_bench::publish_record`).

use pfrl_bench::publish_record;
use pfrl_core::experiment::{federation_manifest, run_federation, Algorithm};
use pfrl_core::fed::FedConfig;
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::serve::{
    Decision, PolicyStore, SessionId, ShardedDecisionService, ShardedServeConfig,
};
use pfrl_core::sim::EnvConfig;
use pfrl_core::telemetry::{
    FanoutRecorder, InMemoryRecorder, Json, JsonlSink, LogHistogram, MetricsSnapshot, Recorder,
    Telemetry,
};
use pfrl_core::workloads::{DatasetId, TaskSpec};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const SEED: u64 = 23;
const OUT: &str = "BENCH_serve_latency.json";
/// Episodes served per session — enough decisions for stable quantiles.
const EPISODES_PER_SESSION: usize = 3;

/// Committed single-shard baseline the aggregate speedup gate divides by.
///
/// Provenance: the slowest per-algorithm single-shard row (MFPO,
/// 208627.6 decisions/sec) of `BENCH_serve_latency.json` as committed at
/// `9e0a25d` — the last commit whose serving path was sequential scalar.
/// Pinned as a constant rather than read from the file because this probe
/// regenerates the file: the freshly measured single-shard rows already
/// run the SIMD kernels, so dividing by them would fold the kernel speedup
/// out of the scale-out factor the gate protects.
const BASELINE_COMMITTED_DPS: f64 = 208_627.6;

/// The CI smoke gate: the sharded fleet must serve at least this multiple
/// of [`BASELINE_COMMITTED_DPS`].
const MIN_AGG_SPEEDUP: f64 = 5.0;

/// Aggregate measurement windows; the reported row is the best window,
/// which de-noises the shared-tenancy clock dips seen on small VMs.
const WINDOWS: usize = 3;

/// Sessions owned by each shard during the aggregate measurement. Matches
/// `max_batch`, so every wave runs one full-width batched GEMM per plan.
/// 32 measured best on a single core: a wider wave grows the per-plan
/// state/logit matrices past what stays cache-resident alongside the
/// weights.
const SESSIONS_PER_SHARD: usize = 32;

fn fed_cfg() -> FedConfig {
    FedConfig {
        episodes: 4,
        comm_every: 2,
        participation_k: 2,
        tasks_per_episode: Some(20),
        seed: SEED,
        parallel: true,
    }
}

struct ProbeResult {
    alg: Algorithm,
    sessions: usize,
    wall_s: f64,
    snap: MetricsSnapshot,
    /// Decision latency in microseconds (see the module docs).
    latency: LogHistogram,
}

/// Trains `alg`, round-trips every client's snapshot through bytes, and
/// serves `EPISODES_PER_SESSION` episodes per client through the wave
/// decision path of a one-shard service.
fn probe(alg: Algorithm, scale_samples: usize, tasks_per_episode: usize) -> ProbeResult {
    let (_, trained) = run_federation(
        alg,
        table2_clients(scale_samples, SEED),
        TABLE2_DIMS,
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg(),
    );
    // Export → serialize → load: the exact path a deployment would take.
    let blobs: Vec<Vec<u8>> = trained.policy_snapshots().iter().map(|s| s.to_bytes()).collect();
    let store = PolicyStore::from_blobs(blobs.iter().map(Vec::as_slice))
        .expect("trained snapshots load cleanly");
    let clients = trained.client_names();
    let pools = trained.client_task_pools();

    let slug = alg.name().to_lowercase().replace('-', "_");
    let memory = Arc::new(InMemoryRecorder::new());
    let mut sinks: Vec<Arc<dyn Recorder>> = vec![memory.clone()];
    match JsonlSink::for_run(&format!("serve_probe_{slug}")) {
        Ok(sink) => sinks.push(Arc::new(sink)),
        Err(e) => eprintln!("# warning: JSONL sink disabled: {e}"),
    }
    let telemetry = Telemetry::new(Arc::new(FanoutRecorder::new(sinks)));

    let cfg = ShardedServeConfig { shards: 1, ..ShardedServeConfig::default() };
    let svc = ShardedDecisionService::new(store, cfg).with_telemetry(telemetry.clone());
    let ids: Vec<SessionId> =
        clients.iter().map(|c| svc.open_session(c).expect("session per client")).collect();

    let mut latency = LogHistogram::new();
    let mut out = Vec::new();
    let t0 = Instant::now();
    for episode in 0..EPISODES_PER_SESSION {
        let mut open: Vec<bool> = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            let pool = &pools[k];
            let n = tasks_per_episode.min(pool.len());
            let start = (episode * n).min(pool.len() - n);
            svc.begin_episode(id, &pool[start..start + n]).expect("known session");
            open.push(true);
        }
        while open.iter().any(|&o| o) {
            for (k, &id) in ids.iter().enumerate() {
                if open[k] {
                    // The queue is sized far above 4 in-flight requests, so
                    // admission never rejects here; overload behavior has
                    // its own tests.
                    svc.submit(id).expect("queue has headroom");
                }
            }
            out.clear();
            let wave_t0 = Instant::now();
            svc.decide_wave_into(0, &mut out);
            let wave_us = wave_t0.elapsed().as_nanos() as f64 / 1e3;
            for (id, d) in &out {
                latency.record(wave_us);
                if d.done {
                    let k = ids.iter().position(|x| x == id).expect("served id is known");
                    open[k] = false;
                }
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    telemetry.flush();
    ProbeResult { alg, sessions: ids.len(), wall_s, snap: memory.snapshot(), latency }
}

struct AggregateResult {
    shards: usize,
    cpus: usize,
    sessions: usize,
    /// Decisions served during the best window.
    decisions: u64,
    /// Wall time of the best window.
    wall_s: f64,
    /// Best-window aggregate throughput.
    dps: f64,
    /// Per-window aggregate throughput, in measurement order.
    window_dps: Vec<f64>,
    speedup: f64,
    tier: &'static str,
}

/// One producer/drainer round on a shard: admit every session, drain the
/// wave(s), restart any episode that completed. Returns decisions served.
fn shard_round(
    svc: &ShardedDecisionService,
    shard: usize,
    ids: &[SessionId],
    tasks: &[TaskSpec],
    out: &mut Vec<(SessionId, Decision)>,
) -> u64 {
    svc.submit_many(ids);
    out.clear();
    svc.decide_wave_into(shard, out);
    loop {
        let n = out.len();
        svc.decide_wave_into(shard, out);
        if out.len() == n {
            break;
        }
    }
    for (id, d) in out.iter() {
        if d.done {
            svc.begin_episode(*id, tasks).expect("session stays open");
        }
    }
    out.len() as u64
}

/// The tentpole measurement: a shard fleet (one worker thread per shard,
/// sessions hashed to shards, waves batched into one GEMM per plan)
/// serving flat out, with the aggregate decision rate summed over shards.
/// Telemetry is noop — the per-algorithm rows above keep the latency
/// histogram; this row measures deployable aggregate capacity.
fn aggregate_probe(scale_samples: usize, rounds: usize) -> AggregateResult {
    let (_, trained) = run_federation(
        Algorithm::PfrlDm,
        table2_clients(scale_samples, SEED),
        TABLE2_DIMS,
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg(),
    );
    let store =
        PolicyStore::from_snapshots(trained.policy_snapshots()).expect("trained snapshots load");
    let client = trained.client_names()[0].clone();

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let shards = std::env::var("PFRL_SERVE_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&s| (1..=256).contains(&s))
        .unwrap_or(cpus);
    let svc = ShardedDecisionService::new(
        store,
        ShardedServeConfig {
            shards,
            queue_capacity: 4 * SESSIONS_PER_SHARD,
            max_batch: SESSIONS_PER_SHARD,
        },
    );

    // Sessions hash to shards; keep opening (and closing overflow) until
    // every shard owns exactly SESSIONS_PER_SHARD.
    let mut by_shard: Vec<Vec<SessionId>> = vec![Vec::new(); shards];
    while by_shard.iter().any(|v| v.len() < SESSIONS_PER_SHARD) {
        let id = svc.open_session(&client).expect("session opens");
        let owner = &mut by_shard[(id & 0xff) as usize];
        if owner.len() < SESSIONS_PER_SHARD {
            owner.push(id);
        } else {
            svc.close_session(id).expect("overflow session closes");
        }
    }
    let tasks = DatasetId::Google.model().sample(200, 7);
    for ids in &by_shard {
        for &id in ids {
            svc.begin_episode(id, &tasks).expect("episode begins");
        }
    }

    // One worker thread per shard; the main thread times each window
    // between barrier releases, so a window's wall clock covers its
    // slowest worker.
    let barrier = Barrier::new(shards + 1);
    let mut window_wall = [0f64; WINDOWS];
    let mut per_worker: Vec<[u64; WINDOWS]> = Vec::new();
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(shards);
        for (shard, ids) in by_shard.iter().enumerate() {
            let (svc, tasks, barrier) = (&svc, &tasks, &barrier);
            workers.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(ids.len());
                for _ in 0..50 {
                    shard_round(svc, shard, ids, tasks, &mut out);
                }
                let mut counts = [0u64; WINDOWS];
                for count in &mut counts {
                    barrier.wait();
                    for _ in 0..rounds {
                        *count += shard_round(svc, shard, ids, tasks, &mut out);
                    }
                    barrier.wait();
                }
                counts
            }));
        }
        for wall in &mut window_wall {
            barrier.wait();
            let t0 = Instant::now();
            barrier.wait();
            *wall = t0.elapsed().as_secs_f64();
        }
        for w in workers {
            per_worker.push(w.join().expect("shard worker panicked"));
        }
    });

    let window_decisions: Vec<u64> =
        (0..WINDOWS).map(|w| per_worker.iter().map(|c| c[w]).sum()).collect();
    let window_dps: Vec<f64> =
        window_decisions.iter().zip(&window_wall).map(|(&d, &t)| d as f64 / t.max(1e-9)).collect();
    let best = window_dps
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("at least one window");

    let ledger = svc.ledger();
    assert_eq!(
        ledger.admitted,
        ledger.decisions + ledger.stale + ledger.queued,
        "aggregate ledger out of balance"
    );

    let best_dps = window_dps[best];
    AggregateResult {
        shards,
        cpus,
        sessions: shards * SESSIONS_PER_SHARD,
        decisions: window_decisions[best],
        wall_s: window_wall[best],
        dps: best_dps,
        window_dps,
        speedup: best_dps / BASELINE_COMMITTED_DPS,
        tier: pfrl_core::tensor::simd::tier().name(),
    }
}

fn aggregate_json(a: &AggregateResult) -> Json {
    Json::obj([
        ("shards", a.shards.into()),
        ("worker_threads", a.shards.into()),
        ("cpus", a.cpus.into()),
        ("sessions", a.sessions.into()),
        ("simd_tier", a.tier.into()),
        ("measurement_windows", WINDOWS.into()),
        ("window_decisions_per_sec", Json::arr(a.window_dps.iter().copied())),
        ("decisions", a.decisions.into()),
        ("wall_s", a.wall_s.into()),
        ("decisions_per_sec", a.dps.into()),
        ("baseline_committed_dps", BASELINE_COMMITTED_DPS.into()),
        ("baseline_provenance", "slowest single-shard row (MFPO) at commit 9e0a25d".into()),
        ("speedup_vs_committed_single_shard", a.speedup.into()),
    ])
}

fn alg_json(r: &ProbeResult) -> Json {
    let decisions = r.snap.counter("serve/decisions");
    Json::obj([
        ("name", r.alg.name().into()),
        ("sessions", r.sessions.into()),
        ("decisions", decisions.into()),
        ("wall_s", r.wall_s.into()),
        ("decisions_per_sec", (decisions as f64 / r.wall_s.max(1e-9)).into()),
        ("p50_us", r.latency.p50().into()),
        ("p99_us", r.latency.p99().into()),
        ("admitted", r.snap.counter("serve/admitted").into()),
        ("rejected", r.snap.counter("serve/rejected").into()),
        ("stale", r.snap.counter("serve/stale").into()),
    ])
}

fn main() {
    let scale = pfrl_bench::start("serve_probe", "policy-serving latency probe");
    pfrl_bench::set_run_seed(SEED);
    // Training is scaffolding here — serving is what's measured — so the
    // pools are a fraction of the quick scale.
    let samples = (scale.samples / 4).max(100);
    let tasks_per_episode = (scale.samples / 8).max(25);

    let results: Vec<ProbeResult> =
        Algorithm::ALL.iter().map(|&alg| probe(alg, samples, tasks_per_episode)).collect();

    // Aggregate sharded measurement; longer windows at paper scale.
    let rounds = if scale.is_paper { 1200 } else { 400 };
    let aggregate = aggregate_probe(samples, rounds);
    eprintln!(
        "# aggregate: {} shards on {} cpus, {} sessions, tier {}: {:.0}/s best of {:?} ({:.2}x committed single-shard {:.1}/s)",
        aggregate.shards,
        aggregate.cpus,
        aggregate.sessions,
        aggregate.tier,
        aggregate.dps,
        aggregate.window_dps.iter().map(|d| d.round()).collect::<Vec<_>>(),
        aggregate.speedup,
        BASELINE_COMMITTED_DPS,
    );

    for r in &results {
        let decisions = r.snap.counter("serve/decisions");
        eprintln!(
            "# {}: {} decisions in {:.3}s ({:.0}/s), p50 {:.1}us p99 {:.1}us",
            r.alg.name(),
            decisions,
            r.wall_s,
            decisions as f64 / r.wall_s.max(1e-9),
            r.latency.p50(),
            r.latency.p99(),
        );
    }

    let manifest = federation_manifest(
        "serve_probe",
        Algorithm::PfrlDm,
        TABLE2_DIMS,
        &EnvConfig::default(),
        &PpoConfig::default(),
        &fed_cfg(),
    );
    let body = Json::obj([
        ("clients", 4u64.into()),
        ("episodes_per_session", EPISODES_PER_SESSION.into()),
        ("algorithms", Json::arr(results.iter().map(alg_json))),
        ("aggregate", aggregate_json(&aggregate)),
    ]);
    if let Err(e) = publish_record(OUT, &manifest, body) {
        eprintln!("# error: could not write {OUT}: {e}");
        std::process::exit(1);
    }

    if aggregate.speedup < MIN_AGG_SPEEDUP {
        eprintln!(
            "# GATE FAIL: aggregate speedup {:.2}x < required {:.2}x over committed single-shard baseline",
            aggregate.speedup, MIN_AGG_SPEEDUP
        );
        std::process::exit(1);
    }
    eprintln!(
        "# GATE PASS: aggregate speedup {:.2}x >= {:.2}x",
        aggregate.speedup, MIN_AGG_SPEEDUP
    );
}
