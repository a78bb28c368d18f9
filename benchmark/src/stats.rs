//! Order statistics over timing samples.

/// The tail percentiles the benchmark may report, lowest first.
const LADDER: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// Sorted copy of `samples` (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of **sorted** samples; 0 for
/// an empty slice, so a layer that did no work reports 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Work completed per second over a whole series: `units` per sample times
/// the number of samples, over the time they took together. Uses every
/// sample, so it is steadier than a rate taken from the median alone.
pub fn rate(units: f64, samples: &[f64]) -> f64 {
    units * samples.len() as f64 / samples.iter().sum::<f64>()
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it — the tail a sample of this size can support. `None`
/// below 100 samples, where even p90 would rest on fewer than ten.
pub fn supported_tail(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method) — the spread measure the benchmark's bounds are judged by.
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(samples);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// `median (q1..q3, n=…)` for the human-readable summary.
pub fn describe(samples: &[f64]) -> String {
    match quartiles(samples) {
        Some([q1, q2, q3]) => format!("{q2:.6} (q1 {q1:.6}, q3 {q3:.6}, n={})", samples.len()),
        None => format!("{:.6} (n={})", median(samples), samples.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn rate_is_total_work_over_total_time() {
        assert_eq!(rate(100.0, &[1.0, 3.0]), 50.0);
        assert_eq!(rate(64.0, &[0.5]), 128.0);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
