//! Telemetry-backed performance probe (replaces the old ad-hoc
//! `time_probe` example): runs a short 4-client federation of all four
//! algorithms with full telemetry enabled, streams the raw events to
//! `results/telemetry/perf_probe_<alg>.jsonl`, and summarizes throughput
//! into `BENCH_schedule_throughput.json` at the repo root.

use pfrl_bench::{append_history, git_commit};
use pfrl_core::experiment::{federation_manifest, run_federation_with_telemetry, Algorithm};
use pfrl_core::fed::FedConfig;
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::EnvConfig;
use pfrl_core::telemetry::{
    FanoutRecorder, InMemoryRecorder, JsonlSink, MetricsSnapshot, Recorder, Telemetry,
};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 17;
const OUT: &str = "BENCH_schedule_throughput.json";
/// Append-only throughput history: one JSON line per probe run, keyed by
/// the git commit and the run-manifest config hash so regressions can be
/// attributed to either a code change or a config change.
const HISTORY: &str = "BENCH_schedule_throughput.history.jsonl";

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

fn alg_json(r: &ProbeResult) -> String {
    let decisions = r.snap.counter("sim/decisions");
    let episodes = r.snap.counter("sim/episodes");
    let phases = ["local_train", "upload", "attention", "aggregate", "broadcast"];
    let phase_ns: Vec<String> = phases
        .iter()
        .map(|p| format!("\"{p}\": {}", r.snap.span_total_ns(&format!("fed/round/{p}"))))
        .collect();
    let update_spans =
        ["rollout", "ppo_update", "ppo_update/actor", "ppo_update/critic", "alpha_refresh"];
    let update_ns: Vec<String> = update_spans
        .iter()
        .map(|p| format!("\"{p}\": {}", r.snap.span_total_ns(&format!("rl/{p}"))))
        .collect();
    format!(
        concat!(
            "    {{\n",
            "      \"name\": \"{name}\",\n",
            "      \"wall_s\": {wall_s:.3},\n",
            "      \"episodes\": {episodes},\n",
            "      \"episodes_per_sec\": {eps:.2},\n",
            "      \"decisions\": {decisions},\n",
            "      \"decisions_per_sec\": {dps:.1},\n",
            "      \"rounds\": {rounds},\n",
            "      \"bytes_up\": {bytes_up},\n",
            "      \"bytes_down\": {bytes_down},\n",
            "      \"round_ns\": {round_ns},\n",
            "      \"phase_ns\": {{{phase_ns}}},\n",
            "      \"rl_ns\": {{{update_ns}}}\n",
            "    }}"
        ),
        name = r.alg.name(),
        wall_s = r.wall_s,
        episodes = episodes,
        eps = episodes as f64 / r.wall_s.max(1e-9),
        decisions = decisions,
        dps = decisions as f64 / r.wall_s.max(1e-9),
        rounds = r.snap.counter("fed/rounds"),
        bytes_up = r.snap.counter("fed/bytes_up"),
        bytes_down = r.snap.counter("fed/bytes_down"),
        round_ns = r.snap.span_total_ns("fed/round"),
        phase_ns = phase_ns.join(", "),
        update_ns = update_ns.join(", "),
    )
}

/// The compact history line of one probe run, appended to [`HISTORY`].
fn history_line(results: &[ProbeResult], manifest: &pfrl_core::telemetry::RunManifest) -> String {
    let algs: Vec<String> = results
        .iter()
        .map(|r| {
            let decisions = r.snap.counter("sim/decisions");
            format!(
                concat!(
                    "{{\"name\": \"{}\", \"wall_s\": {:.3}, ",
                    "\"decisions_per_sec\": {:.1}, \"local_train_ns\": {}}}"
                ),
                r.alg.name(),
                r.wall_s,
                decisions as f64 / r.wall_s.max(1e-9),
                r.snap.span_total_ns("fed/round/local_train"),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"ts_unix_s\": {}, \"git_commit\": \"{}\", \"config_hash\": \"{:016x}\", ",
            "\"scale\": \"{}\", \"seed\": {}, \"algorithms\": [{}]}}\n"
        ),
        manifest.created_unix_s,
        git_commit(),
        manifest.config_hash,
        manifest.scale,
        SEED,
        algs.join(", "),
    )
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

    let algorithms: Vec<String> = results.iter().map(alg_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"run\": \"perf_probe\",\n",
            "  \"scale\": \"{scale}\",\n",
            "  \"clients\": 4,\n",
            "  \"episodes\": {episodes},\n",
            "  \"seed\": {seed},\n",
            "  \"algorithms\": [\n{algorithms}\n  ]\n",
            "}}\n"
        ),
        scale = if scale.is_paper { "paper" } else { "quick" },
        episodes = fed_cfg().episodes,
        seed = SEED,
        algorithms = algorithms.join(",\n"),
    );
    match std::fs::write(OUT, &json) {
        Ok(()) => eprintln!("# wrote {OUT}"),
        Err(e) => {
            eprintln!("# error: could not write {OUT}: {e}");
            std::process::exit(1);
        }
    }
    let manifest = federation_manifest(
        "perf_probe",
        Algorithm::PfrlDm,
        TABLE2_DIMS,
        &EnvConfig::default(),
        &PpoConfig::default(),
        &fed_cfg(),
    );
    if let Err(e) = manifest.write_next_to(OUT) {
        eprintln!("# warning: could not write manifest: {e}");
    }
    append_history(HISTORY, &history_line(&results, &manifest));
}
