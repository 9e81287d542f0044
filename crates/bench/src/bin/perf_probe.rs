//! Telemetry-backed performance probe (replaces the old ad-hoc
//! `time_probe` example): runs a short 4-client federation of all four
//! algorithms with full telemetry enabled, streams the raw events to
//! `results/telemetry/perf_probe_<alg>.jsonl`, and summarizes throughput
//! into `BENCH_schedule_throughput.json` at the repo root.

use pfrl_bench::publish_record;
use pfrl_core::experiment::{federation_manifest, run_federation_with_telemetry, Algorithm};
use pfrl_core::fed::FedConfig;
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::EnvConfig;
use pfrl_core::telemetry::{
    FanoutRecorder, InMemoryRecorder, Json, JsonlSink, MetricsSnapshot, Recorder, Telemetry,
};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 17;
const OUT: &str = "BENCH_schedule_throughput.json";

fn fed_cfg() -> FedConfig {
    FedConfig {
        episodes: 8,
        comm_every: 2,
        participation_k: 2,
        tasks_per_episode: Some(20),
        seed: SEED,
        parallel: true,
    }
}

struct ProbeResult {
    alg: Algorithm,
    wall_s: f64,
    snap: MetricsSnapshot,
}

fn probe(alg: Algorithm, scale_samples: usize) -> ProbeResult {
    let slug = alg.name().to_lowercase().replace('-', "_");
    let memory = Arc::new(InMemoryRecorder::new());
    let mut sinks: Vec<Arc<dyn Recorder>> = vec![memory.clone()];
    match JsonlSink::for_run(&format!("perf_probe_{slug}")) {
        Ok(sink) => {
            eprintln!("# streaming events to {}", sink.path().display());
            sinks.push(Arc::new(sink));
        }
        Err(e) => eprintln!("# warning: JSONL sink disabled: {e}"),
    }
    let telemetry = Telemetry::new(Arc::new(FanoutRecorder::new(sinks)));

    let t0 = Instant::now();
    let (curves, _) = run_federation_with_telemetry(
        alg,
        table2_clients(scale_samples, SEED),
        TABLE2_DIMS,
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg(),
        telemetry.clone(),
    );
    let wall_s = t0.elapsed().as_secs_f64();
    telemetry.flush();
    assert_eq!(curves.clients(), 4, "{alg}: probe expects the Table 2 clients");
    ProbeResult { alg, wall_s, snap: memory.snapshot() }
}

fn alg_json(r: &ProbeResult) -> Json {
    let decisions = r.snap.counter("sim/decisions");
    let episodes = r.snap.counter("sim/episodes");
    let span_totals = |prefix: &str, names: &[&str]| {
        Json::obj(names.iter().map(|n| (*n, r.snap.span_total_ns(&format!("{prefix}/{n}")).into())))
    };
    Json::obj([
        ("name", r.alg.name().into()),
        ("wall_s", r.wall_s.into()),
        ("episodes", episodes.into()),
        ("episodes_per_sec", (episodes as f64 / r.wall_s.max(1e-9)).into()),
        ("decisions", decisions.into()),
        ("decisions_per_sec", (decisions as f64 / r.wall_s.max(1e-9)).into()),
        ("rounds", r.snap.counter("fed/rounds").into()),
        ("bytes_up", r.snap.counter("fed/bytes_up").into()),
        ("bytes_down", r.snap.counter("fed/bytes_down").into()),
        ("round_ns", r.snap.span_total_ns("fed/round").into()),
        (
            "phase_ns",
            span_totals(
                "fed/round",
                &["local_train", "upload", "attention", "aggregate", "broadcast"],
            ),
        ),
        (
            "rl_ns",
            span_totals(
                "rl",
                &[
                    "rollout",
                    "ppo_update",
                    "ppo_update/actor",
                    "ppo_update/critic",
                    "alpha_refresh",
                ],
            ),
        ),
    ])
}

fn main() {
    let scale = pfrl_bench::start("perf_probe", "telemetry throughput probe");
    pfrl_bench::set_run_seed(SEED);
    // A fraction of the quick scale: the probe is about exercising the
    // telemetry path end to end, not statistical power.
    let samples = (scale.samples / 4).max(100);

    let results: Vec<ProbeResult> = Algorithm::ALL.iter().map(|&alg| probe(alg, samples)).collect();

    for r in &results {
        eprintln!(
            "# {}: {:.2}s, {} decisions ({:.0}/s), {} rounds",
            r.alg.name(),
            r.wall_s,
            r.snap.counter("sim/decisions"),
            r.snap.counter("sim/decisions") as f64 / r.wall_s.max(1e-9),
            r.snap.counter("fed/rounds"),
        );
    }

    let manifest = federation_manifest(
        "perf_probe",
        Algorithm::PfrlDm,
        TABLE2_DIMS,
        &EnvConfig::default(),
        &PpoConfig::default(),
        &fed_cfg(),
    );
    let body = Json::obj([
        ("clients", 4u64.into()),
        ("episodes", fed_cfg().episodes.into()),
        ("algorithms", Json::arr(results.iter().map(alg_json))),
    ]);
    if let Err(e) = publish_record(OUT, &manifest, body) {
        eprintln!("# error: could not write {OUT}: {e}");
        std::process::exit(1);
    }
}
