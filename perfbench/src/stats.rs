//! Order statistics over measured samples.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `samples`; sorts in
/// place. Matches Python's `statistics.quantiles(..., method="inclusive")`.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Quantile of `(value, weight)` pairs: the smallest value whose
/// cumulative weight reaches `q` of the total. Sorts in place.
pub fn weighted_quantile(samples: &mut [(f64, u64)], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = samples.iter().map(|s| s.1).sum();
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for &(v, w) in samples.iter() {
        seen += w;
        if seen >= target {
            return v;
        }
    }
    samples[samples.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn weighted_quantile_counts_weights() {
        let mut v = vec![(3.0, 1), (1.0, 8), (2.0, 1)];
        assert_eq!(weighted_quantile(&mut v, 0.5), 1.0);
        assert_eq!(weighted_quantile(&mut v, 0.85), 2.0);
        assert_eq!(weighted_quantile(&mut v, 0.99), 3.0);
    }
}
