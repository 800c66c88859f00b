//! Scalar statistics over slices: moments, quantiles, robust estimators.
//!
//! These are the primitives behind both the feature-extraction catalog and
//! the preprocessing pipeline (trimmed standardization, Pearson pruning).

/// Arithmetic mean (0 for empty input).
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Population variance (divides by `n`); 0 for fewer than one element.
pub fn variance(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Sample variance (divides by `n-1`); 0 for fewer than two elements.
pub fn sample_variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Minimum (`+inf` for empty, so callers can fold safely).
pub fn min(x: &[f64]) -> f64 {
    x.iter().cloned().fold(f64::INFINITY, f64::min)
}

/// Maximum (`-inf` for empty).
pub fn max(x: &[f64]) -> f64 {
    x.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of the data (NaNs excluded by
/// the caller). Returns 0 for empty input.
pub fn quantile(x: &[f64], q: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    quantile_sorted(&v, q)
}

/// Quantile of pre-sorted data.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    // `floor` and `ceil` of a `pos` in `[0, len − 1]` (or NaN, read as rank
    // 0 by both) without their libm calls: a cast truncates, which is the
    // floor here, and the ceiling is one rank up exactly when `pos` is not
    // whole.
    let lo = pos as usize;
    let hi = if pos > lo as f64 { lo + 1 } else { lo };
    if lo == hi {
        sorted[lo]
    } else {
        let t = pos - lo as f64;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    }
}

/// Median.
pub fn median(x: &[f64]) -> f64 {
    quantile(x, 0.5)
}

/// Interquartile range (Q3 − Q1).
pub fn iqr(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25)
}

/// Fisher skewness (0 when std ≈ 0).
pub fn skewness(x: &[f64]) -> f64 {
    let (m, s) = (mean(x), std_dev(x));
    if s < 1e-15 || x.is_empty() {
        return 0.0;
    }
    x.iter().map(|v| ((v - m) / s).powi(3)).sum::<f64>() / x.len() as f64
}

/// Excess kurtosis (0 when std ≈ 0).
pub fn kurtosis(x: &[f64]) -> f64 {
    let (m, s) = (mean(x), std_dev(x));
    if s < 1e-15 || x.is_empty() {
        return 0.0;
    }
    x.iter().map(|v| ((v - m) / s).powi(4)).sum::<f64>() / x.len() as f64 - 3.0
}

/// Median absolute deviation from the median.
pub fn mad(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let med = median(x);
    let dev: Vec<f64> = x.iter().map(|v| (v - med).abs()).collect();
    median(&dev)
}

/// Root mean square.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Pearson correlation coefficient between two equally-long series.
/// Returns 0 when either series is constant (the paper's r ≥ 0.99 pruning
/// then never merges a constant metric with a varying one; exact-constant
/// pairs are handled separately by the caller).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson requires equal lengths");
    if x.len() < 2 {
        return 0.0;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx < 1e-24 || syy < 1e-24 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Mean and population std computed after dropping the lowest and highest
/// `trim` fraction of values (the paper's §3.2 standardization excludes the
/// top and bottom 5% extreme outliers; `trim = 0.05`).
///
/// Falls back to untrimmed moments when trimming would leave < 2 points.
pub fn trimmed_mean_std(x: &[f64], trim: f64) -> (f64, f64) {
    if x.is_empty() {
        return (0.0, 0.0);
    }
    let mut v: Vec<f64> = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let kept = trimmed_sorted(&v, trim);
    (mean(kept), std_dev(kept))
}

/// The values [`trimmed_mean_std`] keeps of `sorted`, its input sorted
/// ascending: all but the lowest and highest `⌊len · trim⌋`, or all of
/// them when that would leave fewer than 2.
pub fn trimmed_sorted(sorted: &[f64], trim: f64) -> &[f64] {
    // A cast is the floor for every value this product can take (it
    // saturates below 0, as `floor` then the cast would).
    let k = ((sorted.len() as f64) * trim) as usize;
    if sorted.len() > 2 * k + 1 {
        &sorted[k..sorted.len() - k]
    } else {
        sorted
    }
}

/// Mean Absolute Change (paper Eq. 6): `MAC = mean(|x[t+1] - x[t]|)`.
/// Returns 0 for series shorter than 2.
pub fn mean_abs_change(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    x.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (x.len() - 1) as f64
}

/// Autocorrelation at the given lag (biased estimator; 0 for degenerate input).
pub fn autocorrelation(x: &[f64], lag: usize) -> f64 {
    if x.len() <= lag || x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    let var: f64 = x.iter().map(|v| (v - m) * (v - m)).sum();
    autocorrelation_with(x, lag, m, var)
}

/// [`autocorrelation`] with the mean and the raw centered square sum
/// `Σ(x−m)²` precomputed (bit-identical given values from the same
/// expressions).
pub fn autocorrelation_with(x: &[f64], lag: usize, m: f64, centered_sq: f64) -> f64 {
    if x.len() <= lag || x.len() < 2 {
        return 0.0;
    }
    if centered_sq < 1e-24 {
        return 0.0;
    }
    let cov: f64 = (0..x.len() - lag)
        .map(|i| (x[i] - m) * (x[i + lag] - m))
        .sum();
    cov / centered_sq
}

/// Shannon entropy of a fixed-bin histogram of the data (natural log).
/// Degenerate (constant or empty) input yields 0.
pub fn histogram_entropy(x: &[f64], bins: usize) -> f64 {
    if x.len() < 2 || bins == 0 {
        return 0.0;
    }
    let lo = min(x);
    let hi = max(x);
    if !(hi - lo).is_finite() || hi - lo < 1e-24 {
        return 0.0;
    }
    let mut counts = vec![0usize; bins];
    for &v in x {
        let mut b = ((v - lo) / (hi - lo) * bins as f64) as usize;
        if b >= bins {
            b = bins - 1;
        }
        counts[b] += 1;
    }
    histogram_entropy_from_counts(&counts, x.len())
}

/// The entropy accumulation of [`histogram_entropy`] over precomputed bin
/// counts. Callers own the degenerate-range guards the standalone function
/// applies before counting.
pub fn histogram_entropy_from_counts(counts: &[usize], n: usize) -> f64 {
    let n = n as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

/// Simple linear regression slope of `x` against index 0..n.
pub fn slope(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let xm = mean(x);
    let tm = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut den = 0.0;
    for (t, &v) in x.iter().enumerate() {
        let dt = t as f64 - tm;
        num += dt * (v - xm);
        den += dt * dt;
    }
    if den < 1e-24 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_known_data() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&x), 5.0);
        assert_eq!(variance(&x), 4.0);
        assert_eq!(std_dev(&x), 2.0);
        assert!((sample_variance(&x) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_and_median() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&x), 2.5);
        assert_eq!(quantile(&x, 0.0), 1.0);
        assert_eq!(quantile(&x, 1.0), 4.0);
        assert_eq!(quantile(&x, 0.25), 1.75);
        assert_eq!(iqr(&x), 1.5);
    }

    #[test]
    fn skew_kurt_symmetric_is_zero() {
        let x = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&x).abs() < 1e-12);
        // Excess kurtosis of this flat 5-point set is negative (platykurtic).
        assert!(kurtosis(&x) < 0.0);
        // Constant input degenerates to 0, not NaN.
        assert_eq!(skewness(&[3.0; 10]), 0.0);
        assert_eq!(kurtosis(&[3.0; 10]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_constant() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0; 4]), 0.0);
    }

    #[test]
    fn trimmed_moments_resist_outliers() {
        let mut x = vec![10.0; 100];
        x[0] = -1e9;
        x[99] = 1e9;
        let (m, s) = trimmed_mean_std(&x, 0.05);
        assert!((m - 10.0).abs() < 1e-9);
        assert!(s.abs() < 1e-9);
        // Untrimmed would explode.
        assert!(std_dev(&x) > 1e7);
    }

    #[test]
    fn mac_of_alternating_series() {
        let x = [0.0, 1.0, 0.0, 1.0, 0.0];
        assert_eq!(mean_abs_change(&x), 1.0);
        assert_eq!(mean_abs_change(&[5.0]), 0.0);
    }

    #[test]
    fn autocorr_of_periodic_signal() {
        let x: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&x, 2) > 0.9);
        assert!(autocorrelation(&x, 1) < -0.9);
        assert_eq!(autocorrelation(&[1.0, 1.0], 1), 0.0); // constant
    }

    #[test]
    fn entropy_bounds() {
        let uniform: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let e = histogram_entropy(&uniform, 10);
        assert!((e - (10.0f64).ln()).abs() < 0.05);
        assert_eq!(histogram_entropy(&[1.0; 50], 10), 0.0);
    }

    #[test]
    fn slope_of_line() {
        let x: Vec<f64> = (0..10).map(|i| 3.0 * i as f64 + 1.0).collect();
        assert!((slope(&x) - 3.0).abs() < 1e-12);
        assert_eq!(slope(&[7.0]), 0.0);
    }

    #[test]
    fn mad_is_robust() {
        let x = [1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0];
        assert_eq!(mad(&x), 1.0);
    }

    #[test]
    fn with_variants_are_bit_identical() {
        // The `_with` / `_sorted` forms exist so feature extraction can share
        // aggregates across kinds; their contract is exact equality.
        let series: Vec<Vec<f64>> = vec![
            vec![],
            vec![3.25],
            vec![0.0, -0.0],
            vec![7.0; 9],
            (0..97)
                .map(|i| ((i as f64) * 0.61).sin() * 3.0 + 0.02 * i as f64)
                .collect(),
        ];
        for x in &series {
            let m = mean(x);
            let csq: f64 = x.iter().map(|v| (v - m) * (v - m)).sum();
            let b = |v: f64| v.to_bits();
            for lag in [1usize, 2, 5] {
                assert_eq!(
                    b(autocorrelation(x, lag)),
                    b(autocorrelation_with(x, lag, m, csq))
                );
            }
            let mut sorted = x.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let (tm, ts) = trimmed_mean_std(x, 0.05);
            let kept = trimmed_sorted(&sorted, 0.05);
            assert_eq!((b(tm), b(ts)), (b(mean(kept)), b(std_dev(kept))));
        }
    }
}
