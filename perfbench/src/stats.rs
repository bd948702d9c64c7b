//! Order statistics for latencies and repeated measurements.

/// Samples a nearest-rank percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The smallest sample count for which the `q` quantile leaves
/// [`TAIL_SAMPLES`] samples beyond it.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= TAIL_SAMPLES)
        .expect("some n suffices")
}

/// The nearest-rank `q` quantile of `sorted`, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if samples_beyond(sorted.len(), q) < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank(sorted.len(), q)])
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples_to_leave_ten_beyond() {
        assert_eq!(min_samples_for(0.99), 1_000);
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(min_samples_for(0.5), 20);
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let sorted: Vec<u64> = (1..=2_000).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(1_000));
        assert_eq!(percentile(&sorted, 0.99), Some(1_980));
        assert_eq!(percentile(&sorted[..999], 0.99), None);
        assert_eq!(percentile(&sorted[..1_000], 0.99), Some(990));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
