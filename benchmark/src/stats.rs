//! Order statistics. Timings are reported as a median with quartiles,
//! never as a best-of.

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the driver's method), so a
/// spread printed here is the spread the driver sees.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med
}

/// Nearest-rank percentile of unsorted samples, `q` in `0..=1`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Ops per second of one closed-loop thread from its op latencies:
/// consecutive ops are grouped into at most ten chunks, each chunk gives
/// ops ÷ busy seconds, and the median chunk is reported. A scheduling
/// stall lands in one chunk and does not move the median, where it
/// would move a mean over the whole phase.
pub fn chunked_rate(latencies_ns: &[u64]) -> f64 {
    assert!(!latencies_ns.is_empty(), "no samples");
    let per_chunk = latencies_ns.len().div_ceil(10);
    let rates: Vec<f64> = latencies_ns
        .chunks(per_chunk)
        .map(|c| c.len() as f64 / (c.iter().sum::<u64>().max(1) as f64 * 1e-9))
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) and a two-point sample
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn chunked_rate_ignores_one_stall() {
        let mut lat = vec![1_000_000u64; 100];
        assert!((chunked_rate(&lat) - 1000.0).abs() < 1e-6);
        lat[42] = 500_000_000;
        assert!((chunked_rate(&lat) - 1000.0).abs() < 1e-6);
        assert!((chunked_rate(&[2_000_000]) - 500.0).abs() < 1e-6);
    }
}
