//! Exact order statistics over the raw samples the benchmark keeps.
//!
//! Nothing here reads an ns-obs histogram: those snap to ×2 bucket edges,
//! which is how `BENCH_stream.json` came to report p99s of exactly 4.096 ms.

/// Median, quartiles and sample count of one timing series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `k/4` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads printed here are the
/// ones the acceptance check computes.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// `None` for an empty series.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    Some(Summary {
        n,
        median,
        q1: quartile(&s, 1),
        q3: quartile(&s, 3),
    })
}

pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.median)
}

/// Nearest-rank percentile `p` in `(0, 1)`: an observed value, never an
/// interpolation. `None` unless at least ten samples lie beyond it, so a
/// p99 is only printed from a thousand samples or more.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// Interquartile range as a share of the median: the spread the acceptance
/// check compares with a metric's bound.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let s = summarize(samples)?;
    (s.median != 0.0).then(|| (s.q3 - s.q1) / s.median.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (3, 1.0, 2.0, 3.0));
        // Two points extrapolate, as Python does: quantiles([1, 5], n=4) == [0, 3, 6].
        let s = summarize(&[1.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.0, 3.0, 6.0));
        assert_eq!(summarize(&[]), None);
        assert_eq!(summarize(&[7.0]).unwrap().q3, 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v[..99], 0.9), None);
        let big: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&v), Some(1.0));
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }
}
