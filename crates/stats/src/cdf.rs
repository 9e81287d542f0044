//! Empirical cumulative distribution functions (used for the Fig. 5
//! execution-time CDFs and elsewhere in the workload analysis).

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds the CDF from a sample (copied and sorted).
    ///
    /// # Panics
    /// If the sample is empty or contains NaN.
    pub fn new(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "EmpiricalCdf: empty sample");
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF sample"));
        Self { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty samples).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `F(x) = P(X ≤ x)`, a step function in `[0, 1]`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of elements ≤ x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile: smallest sample value `v` with `F(v) ≥ q`.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if q == 0.0 {
            return self.sorted[0];
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// Evenly-spaced `(x, F(x))` points for plotting, `n ≥ 2` of them.
    pub fn plot_points(&self, n: usize) -> Vec<(f64, f64)> {
        let n = n.max(2);
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_function_values() {
        let cdf = EmpiricalCdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.5), 0.5);
        assert_eq!(cdf.eval(4.0), 1.0);
        assert_eq!(cdf.eval(100.0), 1.0);
    }

    #[test]
    fn handles_duplicates() {
        let cdf = EmpiricalCdf::new(&[2.0, 2.0, 2.0, 5.0]);
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(1.9), 0.0);
    }

    #[test]
    fn quantile_inverts_eval() {
        let cdf = EmpiricalCdf::new(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(0.2), 10.0);
        assert_eq!(cdf.quantile(0.5), 30.0);
        assert_eq!(cdf.quantile(1.0), 50.0);
    }

    #[test]
    fn monotone_nondecreasing() {
        let cdf = EmpiricalCdf::new(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let pts = cdf.plot_points(50);
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be non-decreasing");
        }
        assert_eq!(pts.len(), 50);
        assert!((pts[49].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_panics() {
        let _ = EmpiricalCdf::new(&[]);
    }
}
