//! Repository benchmark for the PFRL-DM workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|serve-fleet|serve-swap> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! One run measures one workload for `--seconds`, checks the program's
//! outputs (the correctness gate), and prints as its last stdout line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured with telemetry
//! off; with `--trace 1` they are the per-layer set from a traced run (an
//! `InMemoryRecorder` attached through the public `with_telemetry` hooks,
//! plus the benchmark's own timed regions around its calls into each
//! crate). Every run first prints a record line with the host fingerprint
//! and the noise seen during the timed phase; traced runs also print a
//! per-layer table. See `perfbench/README.md` for every metric's definition.

mod host;
mod layers;
mod serve;
mod stats;
mod train;

use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tasks_per_s", "1/s"),
    ("decisions_per_s", "1/s"),
    ("round_ms", "ms"),
    ("decision_p50_us", "us"),
    ("decision_tail_us", "us"),
    ("eval_response_steps", "steps"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rl.update_ms", "ms"),
    ("rl.rollout_ms", "ms"),
    ("rl.transitions", "count"),
    ("rl.update_macs", "MAC"),
    ("fed.local_train_ms", "ms"),
    ("fed.upload_ms", "ms"),
    ("fed.attention_ms", "ms"),
    ("fed.aggregate_ms", "ms"),
    ("fed.broadcast_ms", "ms"),
    ("fed.bytes_up", "B"),
    ("fed.bytes_down", "B"),
    ("fed.attention_macs", "MAC"),
    ("fed.mix_macs", "MAC"),
    ("fed.uploads_accepted_ratio", "ratio"),
    ("fed.snapshot_encode_ms", "ms"),
    ("sim.step_ns", "ns"),
    ("sim.decisions_per_task", "ratio"),
    ("sim.events_per_decision", "ratio"),
    ("nn.forward_row_ns_w32", "ns"),
    ("nn.forward_row_ns_w1", "ns"),
    ("tensor.simd_lanes", "lanes"),
    ("serve.load_ms", "ms"),
    ("serve.wave_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.submit_ns", "ns"),
    ("serve.begin_episode_us", "us"),
    ("serve.rows_per_plan", "rows"),
    ("serve.wave_macs", "MAC"),
    ("serve.rejected", "count"),
    ("serve.stale", "count"),
    ("serve.publish_us", "us"),
    ("serve.ramp_commit_us", "us"),
    ("serve.shadowed", "count"),
    ("serve.ramps_committed", "count"),
    ("serve.ramps_rolled_back", "count"),
    ("serve.ramp_rejected", "count"),
    ("workloads.gen_ms", "ms"),
    ("telemetry.overhead", "ratio"),
    ("host.steal_ticks", "ticks"),
    ("host.rq_wait_s", "s"),
    ("host.calib_ms_before", "ms"),
    ("host.calib_ms_after", "ms"),
];

/// Rates are reported at this quantile of the per-round rates, latencies at
/// its complement: on a shared host, contention only ever adds time, and
/// the fastest rounds are the ones it spared.
pub const BEST_RATE: f64 = 0.99;

pub const WORKLOADS: &[&str] = &["train", "serve-fleet", "serve-swap"];

/// A deliberate defect the self-test injects to prove the gate trips.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tamper {
    None,
    /// Flip one byte of an exported snapshot on its way to the store.
    SnapshotByte,
    /// Put a NaN into a candidate the publish schedule expects to commit.
    CleanCandidateNan,
}

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test scale: a few rounds and sessions instead of the full size.
    pub tiny: bool,
    pub tamper: Tamper,
}

/// Correctness checks of one run.
#[derive(Default)]
pub struct Gate {
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Everything one workload run produces.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    /// Timed operations attempted (rounds or decision requests) and those
    /// that failed (non-finite rounds, rejected or stale requests).
    pub ops: u64,
    pub failed_ops: u64,
    pub gate: Gate,
    /// Hash of the generated inputs (the self-test checks seeds move it).
    pub input_hash: u64,
    /// Per-layer table lines (traced runs).
    pub table: Vec<String>,
    /// Noise seen during the timed phase.
    pub noise: Noise,
}

#[derive(Default, Clone, Copy)]
pub struct Noise {
    pub steal_ticks: u64,
    pub rq_wait_s: f64,
    pub calib_ms_before: f64,
    pub calib_ms_after: f64,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Samples host noise around `timed`.
pub fn with_noise<T>(timed: impl FnOnce() -> T) -> (T, Noise) {
    let calib_ms_before = host::calib_ms();
    let before = host::noise_now();
    let out = timed();
    let after = host::noise_now();
    let calib_ms_after = host::calib_ms();
    let noise = Noise {
        steal_ticks: after.steal_ticks.saturating_sub(before.steal_ticks),
        rq_wait_s: after.rq_wait_ns.saturating_sub(before.rq_wait_ns) as f64 / 1e9,
        calib_ms_before,
        calib_ms_after,
    };
    (out, noise)
}

pub fn run(args: &Args) -> Report {
    let mut report = match args.workload.as_str() {
        "train" => train::run(args),
        "serve-fleet" | "serve-swap" => serve::run(args),
        other => unreachable!("workload {other} was validated by the parser"),
    };
    if args.trace {
        let n = report.noise;
        report.put("host.steal_ticks", n.steal_ticks as f64);
        report.put("host.rq_wait_s", n.rq_wait_s);
        report.put("host.calib_ms_before", n.calib_ms_before);
        report.put("host.calib_ms_after", n.calib_ms_after);
    }
    report
}

/// The result line, or an error naming the metric set mismatch (a bug in
/// this benchmark, never a property of the program under test).
fn result_json(args: &Args, r: &Report) -> Result<String, String> {
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut parts = Vec::new();
    for (name, unit) in declared {
        let values: Vec<f64> =
            r.metrics.iter().filter(|(n, _)| n == name).map(|&(_, v)| v).collect();
        match values.as_slice() {
            [v] if v.is_finite() => {
                parts.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            }
            [v] => return Err(format!("metric {name} is not finite: {v}")),
            _ => return Err(format!("metric {name} reported {} times", values.len())),
        }
    }
    if let Some((extra, _)) = r.metrics.iter().find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
    {
        return Err(format!("undeclared metric {extra}"));
    }
    let failed = r.failed_ops + r.gate.failures.len() as u64;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.gate.failures.is_empty(),
        r.ops + r.gate.checks,
        failed,
        parts.join(", ")
    ))
}

fn record_json(args: &Args, r: &Report) -> String {
    format!(
        concat!(
            "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"host\": {}, \"noise\": {{\"steal_ticks\": {}, \"rq_wait_s\": {}, ",
            "\"calib_ms_before\": {}, \"calib_ms_after\": {}}}, \"gate_checks\": {}, ",
            "\"gate_failures\": {}}}}}"
        ),
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host::fingerprint_json(),
        r.noise.steal_ticks,
        r.noise.rq_wait_s,
        r.noise.calib_ms_before,
        r.noise.calib_ms_after,
        r.gate.checks,
        r.gate.failures.len(),
    )
}

fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|a| a == "--self-test") {
        return Ok(None);
    }
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        tamper: Tamper::None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Some(args))
}

/// Runs every workload at a tiny size and checks the benchmark itself:
/// every declared metric appears with its unit in both modes, the gate
/// trips on a tampered snapshot byte and on a NaN in a clean candidate, and
/// another seed changes the generated inputs but not the metric set.
fn self_test() -> Vec<String> {
    let mut problems = Vec::new();
    let tiny = |workload: &str, seed, trace, tamper| Args {
        workload: workload.to_string(),
        seed,
        seconds: 0.2,
        trace,
        tiny: true,
        tamper,
    };
    for &w in WORKLOADS {
        let mut names = Vec::new();
        let mut hashes = Vec::new();
        for (seed, trace) in [(1, false), (1, true), (2, false)] {
            let args = tiny(w, seed, trace, Tamper::None);
            let r = run(&args);
            match result_json(&args, &r) {
                Ok(_) if r.gate.failures.is_empty() => {
                    eprintln!("# self-test {w} seed={seed} trace={}: ok", trace as u8);
                }
                Ok(_) => {
                    problems.push(format!("{w} seed {seed}: gate failed {:?}", r.gate.failures))
                }
                Err(e) => problems.push(format!("{w} seed {seed} trace {trace}: {e}")),
            }
            if !trace {
                let mut n: Vec<&str> = r.metrics.iter().map(|(n, _)| *n).collect();
                n.sort_unstable();
                names.push(n);
                hashes.push(r.input_hash);
            }
        }
        if names[0] != names[1] {
            problems.push(format!("{w}: metric set depends on the seed"));
        }
        if hashes[0] == hashes[1] {
            problems.push(format!("{w}: seeds 1 and 2 generated identical inputs"));
        }
    }
    for (w, tamper) in
        [("serve-fleet", Tamper::SnapshotByte), ("serve-swap", Tamper::CleanCandidateNan)]
    {
        let r = run(&tiny(w, 1, false, tamper));
        if r.gate.failures.is_empty() {
            problems.push(format!("{w}: gate did not trip on {tamper:?}"));
        } else {
            eprintln!("# self-test {w} {tamper:?}: gate tripped ({})", r.gate.failures.join("; "));
        }
    }
    problems
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            let problems = self_test();
            for p in &problems {
                eprintln!("# self-test FAILED: {p}");
            }
            return if problems.is_empty() {
                eprintln!("# self-test passed");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    println!("{}", record_json(&args, &report));
    for line in &report.table {
        println!("# {line}");
    }
    for f in &report.gate.failures {
        println!("# GATE FAILED: {f}");
    }
    match result_json(&args, &report) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        let problems = super::self_test();
        assert!(problems.is_empty(), "{problems:?}");
    }
}
