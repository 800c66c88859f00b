//! Statistical-domain feature primitives not already provided by
//! [`ns_linalg::stats`].

use ns_linalg::stats;

/// Fraction of samples strictly above the mean.
pub fn count_above_mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let m = stats::mean(x);
    x.iter().filter(|&&v| v > m).count() as f64 / x.len() as f64
}

/// Fraction of samples strictly below the mean.
pub fn count_below_mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let m = stats::mean(x);
    x.iter().filter(|&&v| v < m).count() as f64 / x.len() as f64
}

/// Mean absolute deviation from the mean.
pub fn mean_abs_deviation(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let m = stats::mean(x);
    x.iter().map(|v| (v - m).abs()).sum::<f64>() / x.len() as f64
}

/// Absolute energy: `Σ x²`.
pub fn abs_energy(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// Coefficient of variation `σ/μ`; 0 when the mean is (near) zero.
pub fn coefficient_of_variation(x: &[f64]) -> f64 {
    coefficient_of_variation_with(stats::mean(x), stats::std_dev(x))
}

/// [`coefficient_of_variation`] from precomputed moments (bit-identical:
/// the standalone form only touches the std after the mean guard, so the
/// value is a pure function of `(m, s)`).
pub fn coefficient_of_variation_with(m: f64, s: f64) -> f64 {
    if m.abs() < 1e-15 {
        return 0.0;
    }
    s / m.abs()
}

/// Fraction of samples landing in histogram bin `i` of `k` equal-width
/// bins between min and max. Constant series put all mass in bin 0.
pub fn hist_bin_fraction(x: &[f64], i: usize, k: usize) -> f64 {
    if x.is_empty() || k == 0 || i >= k {
        return 0.0;
    }
    let lo = stats::min(x);
    let hi = stats::max(x);
    if hi - lo < 1e-24 {
        return if i == 0 { 1.0 } else { 0.0 };
    }
    let mut count = 0usize;
    for &v in x {
        let mut b = ((v - lo) / (hi - lo) * k as f64) as usize;
        if b >= k {
            b = k - 1;
        }
        if b == i {
            count += 1;
        }
    }
    count as f64 / x.len() as f64
}

/// The bin-`i` fraction of [`hist_bin_fraction`] from precomputed counts.
/// Only valid when the standalone function would take the counting path
/// (non-empty data, finite range ≥ 1e-24); callers keep the degenerate
/// fallbacks.
pub fn hist_bin_fraction_from_counts(counts: &[usize], i: usize, n: usize) -> f64 {
    if n == 0 || i >= counts.len() {
        return 0.0;
    }
    counts[i] as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn above_below_mean_partition() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(count_above_mean(&x), 0.5);
        assert_eq!(count_below_mean(&x), 0.5);
        // Values equal to the mean count in neither.
        let y = [1.0, 2.0, 3.0];
        assert!((count_above_mean(&y) + count_below_mean(&y) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mad_energy_cv() {
        let x = [1.0, 3.0];
        assert_eq!(mean_abs_deviation(&x), 1.0);
        assert_eq!(abs_energy(&x), 10.0);
        assert!((coefficient_of_variation(&x) - 0.5).abs() < 1e-12);
        assert_eq!(coefficient_of_variation(&[-1.0, 1.0]), 0.0); // zero mean
    }

    #[test]
    fn histogram_fractions_partition() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s: f64 = (0..10).map(|i| hist_bin_fraction(&x, i, 10)).sum();
        assert!((s - 1.0).abs() < 1e-12);
        // Uniform data → each bin ≈ 0.1.
        assert!((hist_bin_fraction(&x, 4, 10) - 0.1).abs() < 0.02);
        // Constant series.
        assert_eq!(hist_bin_fraction(&[7.0; 5], 0, 10), 1.0);
        assert_eq!(hist_bin_fraction(&[7.0; 5], 3, 10), 0.0);
    }
}
