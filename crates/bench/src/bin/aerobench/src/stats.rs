//! Order statistics over one run's samples.

/// Tail quantiles, highest first; a run reports the highest one that
/// still has at least [`MIN_BEYOND`] samples beyond it.
const TAIL_QUANTILES: [f64; 3] = [0.99, 0.9, 0.5];

/// Samples a reported percentile needs strictly above it.
const MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` (NaN-free by construction: they are
/// durations and sizes).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of sorted samples (mean of the two middle ones for an even
/// count, so it keeps every digit the samples carry).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        f64::midpoint(sorted[n / 2 - 1], sorted[n / 2])
    }
}

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest of [`TAIL_QUANTILES`] with at least [`MIN_BEYOND`]
/// samples beyond its nearest-rank position, as `(quantile, value)`.
/// `None` when even the median has too few samples above it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_QUANTILES.iter().find_map(|&q| {
        let i = rank(n.max(1), q);
        (n > MIN_BEYOND && n - 1 - i >= MIN_BEYOND).then(|| (q, sorted[i]))
    })
}

/// Count, min, median and max of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let s = sorted(values);
        Some(Summary { count: s.len(), min: s[0], median: median(&s), max: s[s.len() - 1] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_reports_only_percentiles_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1100 samples: p99 sits at rank 1089 with 11 beyond.
        assert_eq!(tail(&ramp(1100)), Some((0.99, 1089.0)));
        // 1000 samples leave only 10 beyond p99 (rank 990): still enough.
        assert_eq!(tail(&ramp(1000)), Some((0.99, 990.0)));
        // 999 samples leave 9 beyond p99, so the run falls back to p90.
        assert_eq!(tail(&ramp(999)), Some((0.9, 900.0)));
        // 20 samples: only the median has ten above it.
        assert_eq!(tail(&ramp(20)), Some((0.5, 10.0)));
        // 12 samples support no percentile at all.
        assert_eq!(tail(&ramp(12)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_and_summary_keep_all_digits() {
        assert_eq!(median(&[1.0, 2.0, 4.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.5]), 2.5);
        let s = Summary::of(&[3.25, 1.5, 2.0]).unwrap();
        assert_eq!((s.count, s.min, s.median, s.max), (3, 1.5, 2.0, 3.25));
        assert_eq!(Summary::of(&[]), None);
    }
}
