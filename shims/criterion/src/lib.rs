//! Offline drop-in subset of the `criterion` benchmarking API.
//!
//! Provides `Criterion`, `bench_function`, `benchmark_group` /
//! `bench_with_input`, `BenchmarkId`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros. Measurement is a simple
//! warmup-then-sample harness: each benchmark reports mean and median
//! ns/iter, and `BenchmarkGroup::finish` prints every entry's time relative
//! to the first entry in the group (used by the telemetry-overhead bench to
//! show the noop-vs-instrumented ratio).
//!
//! As upstream, `--test` on the bench binary's command line (`cargo bench
//! -- --test`) runs every benchmark closure once, untimed, so a bench that
//! would panic fails fast without paying for a measurement.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Sample {
    pub name: String,
    pub mean_ns: f64,
    pub median_ns: f64,
    pub iters: u64,
}

pub struct Criterion {
    warmup: Duration,
    measure: Duration,
    samples: usize,
    /// Run each closure once, untimed (`--test`).
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warmup: Duration::from_millis(60),
            measure: Duration::from_millis(240),
            samples: 20,
            test_mode: false,
        }
    }
}

impl Criterion {
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample = run_bench(name, self, &mut f);
        print_sample(&sample, self.test_mode);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.to_string(), results: Vec::new() }
    }

    /// Reads the bench binary's arguments. Of upstream's flags the shim
    /// honors only `--test`: run every closure once, with no timing.
    pub fn configure_from_args(mut self) -> Self {
        self.test_mode = std::env::args().skip(1).any(|a| a == "--test");
        self
    }

    pub fn sample_size(mut self, n: usize) -> Self {
        self.samples = n.max(2);
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measure = d;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warmup = d;
        self
    }

    pub fn final_summary(&self) {}
}

fn run_bench<F>(name: &str, config: &Criterion, f: &mut F) -> Sample
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        warmup: config.warmup,
        measure: config.measure,
        samples: config.samples,
        test_mode: config.test_mode,
        result: None,
    };
    f(&mut bencher);
    let (mean_ns, median_ns, iters) =
        bencher.result.expect("benchmark closure never called Bencher::iter");
    Sample { name: name.to_string(), mean_ns, median_ns, iters }
}

fn print_sample(s: &Sample, test_mode: bool) {
    if test_mode {
        println!("test: {} ... ok", s.name);
        return;
    }
    println!(
        "bench: {:<52} {:>12.1} ns/iter (median {:>12.1}, {} iters)",
        s.name, s.mean_ns, s.median_ns, s.iters
    );
}

pub struct Bencher {
    warmup: Duration,
    measure: Duration,
    samples: usize,
    test_mode: bool,
    result: Option<(f64, f64, u64)>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            self.result = Some((0.0, 0.0, 1));
            return;
        }
        // Warmup: run until the warmup budget elapses, estimating ns/iter.
        let wstart = Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            black_box(f());
            warm_iters += 1;
            if wstart.elapsed() >= self.warmup {
                break;
            }
        }
        let est_ns = (wstart.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);

        // Measure: split the budget into `samples` batches and time each.
        let total_iters = ((self.measure.as_nanos() as f64 / est_ns).ceil() as u64)
            .clamp(self.samples as u64, 5_000_000);
        let batch = (total_iters / self.samples as u64).max(1);
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        let mut measured: u64 = 0;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            per_iter.push(start.elapsed().as_nanos() as f64 / batch as f64);
            measured += batch;
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let median = per_iter[per_iter.len() / 2];
        self.result = Some((mean, median, measured));
    }
}

/// Identifier for parameterised benchmarks: `BenchmarkId::new("case", param)`.
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { full: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { full: parameter.to_string() }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.full)
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    results: Vec<Sample>,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let sample = run_bench(&full, self.criterion, &mut f);
        print_sample(&sample, self.criterion.test_mode);
        self.results.push(sample);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        let sample = run_bench(&full, self.criterion, &mut |b| f(b, input));
        print_sample(&sample, self.criterion.test_mode);
        self.results.push(sample);
        self
    }

    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.measure = d;
        self
    }

    /// Prints every entry relative to the group's first entry — the
    /// comparison view (e.g. instrumented vs. baseline overhead).
    pub fn finish(self) {
        if self.results.len() < 2 || self.criterion.test_mode {
            return;
        }
        let base = &self.results[0];
        println!("group `{}` relative to `{}`:", self.name, base.name);
        for s in &self.results {
            let ratio = s.mean_ns / base.mean_ns;
            println!("  {:<50} x{:.4} ({:+.2}%)", s.name, ratio, (ratio - 1.0) * 100.0);
        }
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_reports_positive_time() {
        let mut c = Criterion {
            warmup: Duration::from_millis(2),
            measure: Duration::from_millis(5),
            samples: 5,
            test_mode: false,
        };
        let s = run_bench("smoke", &c, &mut |b: &mut Bencher| {
            b.iter(|| black_box(3u64).wrapping_mul(7))
        });
        assert!(s.mean_ns > 0.0);
        assert!(s.iters >= 5);
        c.bench_function("smoke2", |b| b.iter(|| black_box(1u32) + 1));
    }

    #[test]
    fn group_runs_and_finishes() {
        let mut c = Criterion {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(2),
            samples: 3,
            test_mode: false,
        };
        let mut g = c.benchmark_group("g");
        g.bench_function("a", |b| b.iter(|| black_box(2u64) * 2));
        g.bench_with_input(BenchmarkId::new("b", 10), &10u64, |b, &n| b.iter(|| black_box(n) + 1));
        g.finish();
    }

    #[test]
    fn test_mode_runs_each_closure_once_untimed() {
        let mut c = Criterion { test_mode: true, ..Criterion::default() };
        let mut calls = 0u32;
        let s = run_bench("once", &c, &mut |b: &mut Bencher| b.iter(|| calls += 1));
        assert_eq!((calls, s.iters), (1, 1));
        let mut g = c.benchmark_group("g");
        g.bench_function("a", |b| b.iter(|| black_box(2u64) * 2));
        g.bench_function("b", |b| b.iter(|| black_box(3u64) * 2));
        g.finish();
    }
}
