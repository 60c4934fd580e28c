//! Order statistics the report is built from.

/// Sorted copy of `values` (all finite by construction: durations and
/// counts).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method) — the same rule the acceptance pipeline applies to the ten
/// runs per workload, so a spread printed here can be compared with
/// one computed there.  Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The `p`-th percentile (0–100) by the nearest-rank rule; 0 for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 that still
/// has at least ten of `n` samples beyond it — the tail a sample of
/// that size can support.  `None` below twenty samples, where not even
/// the median qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per-mille integers: 100 × (1 − 0.9) is not 10 in floating point.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// `a / b`, or 0 when there was nothing to divide by (a counter that
/// never moved must print as a number, not as NaN).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median over `parts` contiguous chunks of `ops` of chunk-bytes over
/// chunk-seconds, in MB/s (MB = 10⁶ bytes).  A stall that hits one
/// chunk moves one sample, not the figure.
pub fn chunked_goodput(ops: &[(u64, f64)], parts: usize) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    let size = ops.len().div_ceil(parts.max(1));
    let rates: Vec<f64> = ops
        .chunks(size)
        .map(|chunk| {
            let bytes: u64 = chunk.iter().map(|(b, _)| b).sum();
            let secs: f64 = chunk.iter().map(|(_, s)| s).sum();
            ratio(bytes as f64 / 1e6, secs)
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn chunked_goodput_shrugs_off_one_stall() {
        // 40 ops of 1 MB in 10 ms each, one of them stalled for 1 s.
        let mut ops = vec![(1_000_000u64, 0.010); 40];
        ops[7].1 = 1.0;
        let g = chunked_goodput(&ops, 20);
        assert!((g - 100.0).abs() < 1e-9, "median chunk is clean: {g}");
        assert_eq!(chunked_goodput(&[], 20), 0.0);
    }
}
