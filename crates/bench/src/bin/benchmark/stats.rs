//! Order statistics: the tail-percentile rule, medians and quartiles.

/// The percentile a run of `n` samples reports as its tail: 99, or the
/// highest percentile that still has at least ten samples beyond it
/// when the run is too short for p99 (never below the median).
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 20 {
        return 50.0;
    }
    (100.0 * (n - 10) as f64 / n as f64).floor().min(99.0)
}

/// Nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and tail of a latency sample, in the sample's unit.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(v.len());
    Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        tail: percentile(&v, tail_pct),
        tail_pct,
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so a spread computed here reads
/// the same as one computed with that function.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        for n in [21usize, 40, 110, 999, 1000, 5000] {
            let p = tail_percentile(n);
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&sorted, p);
            let beyond = sorted.iter().filter(|&&x| x > at).count();
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
            // The next whole percentile up would leave fewer than ten.
            if p < 99.0 {
                let next = percentile(&sorted, p + 1.0);
                assert!(sorted.iter().filter(|&&x| x > next).count() < 10, "n={n}");
            }
        }
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(12), 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
