//! Federation-scale benchmark (ISSUE 7 tentpole): sweeps the client count
//! K and measures how the PFRL-DM aggregation phase scales, dense vs
//! top-k sparse attention.
//!
//! For each K the probe builds a K-client federation (tiny task pools —
//! local training is *not* the subject), runs one untimed warm-up
//! aggregation to size the upload arena and attention scratch, then times
//! `rounds_per_point` steady-state aggregations. Per point it records the
//! mean per-round aggregation wall time, bytes on the wire (up/down, per
//! round), pooled arena capacity, and process peak RSS.
//!
//! * `PFRL_SCALE=quick` (default): K ∈ {4, 16, 64, 256}
//! * `PFRL_SCALE=paper` (nightly): adds K ∈ {512, 1024}
//! * `PFRL_MAX_K=<n>`: caps the sweep (CI smoke uses 64)
//!
//! Output: `BENCH_federation_scale.json`, whose record (headed by the run
//! manifest and git commit) is also appended as one line to
//! `BENCH_federation_scale.history.jsonl`. `peak_rss_kb` is `VmHWM`, reset to the current
//! RSS before each point by writing `5` to `/proc/self/clear_refs`, so it
//! is the process's peak RSS during that point rather than the running
//! maximum over every earlier point (memory the allocator kept from
//! earlier points still counts). Where the reset is unavailable `VmHWM`
//! stays process-wide and monotonic; points are swept in ascending-K order,
//! so the reading is then an upper bound for the K that produced it.

use pfrl_bench::publish_record;
use pfrl_core::experiment::{federation_manifest, Algorithm};
use pfrl_core::fed::{ClientSetup, FedConfig, PfrlDmRunner};
use pfrl_core::nn::MultiHeadConfig;
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::{EnvConfig, EnvDims, VmSpec};
use pfrl_core::telemetry::{InMemoryRecorder, Json, Telemetry};
use pfrl_core::workloads::DatasetId;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 99;
const OUT: &str = "BENCH_federation_scale.json";
const ROUNDS_PER_POINT: usize = 4;

fn dims() -> EnvDims {
    EnvDims::new(2, 8, 64.0, 3)
}

fn fed_cfg(n: usize) -> FedConfig {
    FedConfig {
        episodes: 2,
        comm_every: 1,
        participation_k: n,
        tasks_per_episode: Some(8),
        seed: SEED,
        parallel: true,
    }
}

/// Process peak RSS (`VmHWM`) in kB; 0 where `/proc` is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Resets the process `VmHWM` to the current RSS, so the next
/// [`peak_rss_kb`] covers only what runs from here on. Returns whether the
/// kernel accepted the reset.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

struct Point {
    k: usize,
    agg_wall_us_mean: f64,
    bytes_up_per_round: u64,
    bytes_down_per_round: u64,
    arena_bytes: u64,
    peak_rss_kb: u64,
}

fn probe_point(k: usize, top_k: Option<usize>) -> Point {
    let setups: Vec<ClientSetup> = (0..k)
        .map(|i| ClientSetup {
            name: format!("client{i}"),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: DatasetId::K8s.model().sample(8, SEED + i as u64),
        })
        .collect();
    let recorder = Arc::new(InMemoryRecorder::new());
    let att = MultiHeadConfig { top_k, ..Default::default() };
    let mut runner = PfrlDmRunner::with_attention(
        setups,
        dims(),
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg(k),
        att,
    )
    .with_telemetry(Telemetry::new(recorder.clone()));
    runner.set_record_history(false);

    // Warm-up: sizes the arena, attention scratch, and every workspace.
    runner.aggregate();
    let warm = recorder.snapshot();

    let t0 = Instant::now();
    for _ in 0..ROUNDS_PER_POINT {
        runner.aggregate();
    }
    let wall = t0.elapsed();
    let snap = recorder.snapshot();

    let per_round =
        |name: &str| (snap.counter(name) - warm.counter(name)) / ROUNDS_PER_POINT as u64;
    Point {
        k,
        agg_wall_us_mean: wall.as_secs_f64() * 1e6 / ROUNDS_PER_POINT as f64,
        bytes_up_per_round: per_round("fed/bytes_up"),
        bytes_down_per_round: per_round("fed/bytes_down"),
        arena_bytes: runner.arena_bytes(),
        peak_rss_kb: peak_rss_kb(),
    }
}

fn point_json(p: &Point) -> Json {
    Json::obj([
        ("k", p.k.into()),
        ("agg_wall_us_mean", p.agg_wall_us_mean.into()),
        ("bytes_up_per_round", p.bytes_up_per_round.into()),
        ("bytes_down_per_round", p.bytes_down_per_round.into()),
        ("arena_bytes", p.arena_bytes.into()),
        ("peak_rss_kb", p.peak_rss_kb.into()),
    ])
}

/// The record body: one entry per arm with its swept points, and a note on
/// how `peak_rss_kb` was measured (`rss_per_point`: every `VmHWM` reset
/// succeeded).
fn record_body(arms: &[(&str, Option<usize>, Vec<Point>)], rss_per_point: bool) -> Json {
    let note = if rss_per_point {
        "peak_rss_kb is VmHWM reset via /proc/self/clear_refs before each point: \
         the process peak RSS during that point"
    } else {
        "peak_rss_kb is VmHWM: process-wide, monotonic; \
         points are swept in ascending K, dense arm first"
    };
    let arms = arms.iter().map(|(name, top_k, points)| {
        Json::obj([
            ("name", (*name).into()),
            ("top_k", (*top_k).into()),
            ("points", Json::arr(points.iter().map(point_json))),
        ])
    });
    Json::obj([
        ("rounds_per_point", ROUNDS_PER_POINT.into()),
        ("note", note.into()),
        ("arms", Json::arr(arms)),
    ])
}

fn main() {
    let scale = pfrl_bench::start("federation_scale_probe", "aggregation scaling, dense vs top-k");
    pfrl_bench::set_run_seed(SEED);

    let mut ks: Vec<usize> = vec![4, 16, 64, 256];
    if scale.is_paper {
        ks.extend([512, 1024]);
    }
    if let Ok(cap) = std::env::var("PFRL_MAX_K") {
        let cap: usize = cap.parse().expect("PFRL_MAX_K must be an integer");
        ks.retain(|&k| k <= cap);
    }

    // Each point resets VmHWM first. Where the reset fails, ascending K
    // within each arm keeps the monotonic readings upper bounds; the dense
    // arm runs first and therefore owns the high-water mark at equal K.
    let mut rss_per_point = true;
    let arms: [(&str, Option<usize>); 2] =
        [("dense", None), ("top8", Some(MultiHeadConfig::PAPER_TOP_K))];
    let results: Vec<(&str, Option<usize>, Vec<Point>)> = arms
        .iter()
        .map(|&(name, top_k)| {
            let points: Vec<Point> = ks
                .iter()
                .map(|&k| {
                    rss_per_point &= reset_peak_rss();
                    let p = probe_point(k, top_k);
                    eprintln!(
                        "# {name} K={k}: {:.1} us/round agg, {} B up, arena {} B, rss {} kB",
                        p.agg_wall_us_mean, p.bytes_up_per_round, p.arena_bytes, p.peak_rss_kb
                    );
                    p
                })
                .collect();
            (name, top_k, points)
        })
        .collect();

    let manifest = federation_manifest(
        "federation_scale_probe",
        Algorithm::PfrlDm,
        dims(),
        &EnvConfig::default(),
        &PpoConfig::default(),
        &fed_cfg(*ks.last().unwrap_or(&4)),
    );
    if let Err(e) = publish_record(OUT, &manifest, record_body(&results, rss_per_point)) {
        eprintln!("# error: could not write {OUT}: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record body over fixed points: every field the probe reports,
    /// in order, for both arm shapes and both `peak_rss_kb` notes.
    #[test]
    fn record_body_over_fixed_points() {
        let point = |k: usize| Point {
            k,
            agg_wall_us_mean: 556.6,
            bytes_up_per_round: 28688,
            bytes_down_per_round: 28689,
            arena_bytes: 53248,
            peak_rss_kb: 4312,
        };
        let arms = [("dense", None, vec![point(4), point(16)]), ("top8", Some(8), vec![point(4)])];
        let p = |k: usize| {
            format!(
                "{{\"k\": {k}, \"agg_wall_us_mean\": 556.6, \"bytes_up_per_round\": 28688, \
                 \"bytes_down_per_round\": 28689, \"arena_bytes\": 53248, \"peak_rss_kb\": 4312}}"
            )
        };
        let want = format!(
            "{{\"rounds_per_point\": 4, \"note\": \"peak_rss_kb is VmHWM: process-wide, \
             monotonic; points are swept in ascending K, dense arm first\", \"arms\": [\
             {{\"name\": \"dense\", \"top_k\": null, \"points\": [{}, {}]}}, \
             {{\"name\": \"top8\", \"top_k\": 8, \"points\": [{}]}}]}}",
            p(4),
            p(16),
            p(4)
        );
        assert_eq!(record_body(&arms, false).compact(), want);
        let reset = record_body(&arms, true).compact();
        assert!(reset.contains(
            "VmHWM reset via /proc/self/clear_refs before each point: \
             the process peak RSS during that point"
        ));
    }

    #[test]
    fn peak_rss_reset_lets_vmhwm_fall() {
        if !reset_peak_rss() {
            return; // no clear_refs here: the probe reports the upper bound
        }
        let before = peak_rss_kb();
        {
            let mut block = vec![0u8; 64 << 20];
            for page in block.chunks_mut(4096) {
                page[0] = 1;
            }
            std::hint::black_box(&block);
        }
        let high = peak_rss_kb();
        assert!(high >= before + 48 * 1024, "64 MiB never became resident: {before} -> {high} kB");
        assert!(reset_peak_rss());
        let after = peak_rss_kb();
        assert!(
            after + 32 * 1024 < high,
            "VmHWM did not fall after the reset: {high} -> {after} kB"
        );
    }
}
