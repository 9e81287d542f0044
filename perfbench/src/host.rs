//! Host fingerprint and noise diagnostics: what a reader needs to tell a
//! code change from a noisy or different machine.

use std::hint::black_box;
use std::time::Instant;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    let direct = read(&format!(".git/{reference}"));
    if !direct.trim().is_empty() {
        return direct.trim().to_string();
    }
    read(".git/packed-refs")
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| if matches!(c, '"' | '\\') { vec!['\\', c] } else { vec![c] })
        .collect()
}

/// CPU model, core count, SIMD tier, compiler and commit, as one JSON object.
pub fn fingerprint_json() -> String {
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
        .map_or("unknown", str::trim);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {}, \"simd\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        json_str(cpu),
        nproc,
        pfrl_core::tensor::simd::tier().name(),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit()),
    )
}

/// Cumulative host counters sampled around the timed phase.
#[derive(Clone, Copy, Default)]
pub struct NoiseSample {
    /// Steal time of all CPUs, in clock ticks (`/proc/stat`).
    pub steal_ticks: u64,
    /// Time this process waited on a run queue, ns (`/proc/self/schedstat`).
    pub rq_wait_ns: u64,
}

pub fn noise_now() -> NoiseSample {
    let stat = read("/proc/stat");
    let steal_ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let rq_wait_ns = read("/proc/self/schedstat")
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    NoiseSample { steal_ticks, rq_wait_ns }
}

/// Wall time of a fixed integer loop in this file's own code: a change in
/// the program cannot move it, a slower or busier host does.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..black_box(4_000_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), MiB. Each benchmark run is
/// its own process running one workload, so the reading is per workload.
pub fn rss_peak_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()))
        .map_or(0.0, |kb| kb / 1024.0)
}
