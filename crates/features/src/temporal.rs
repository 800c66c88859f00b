//! Temporal-domain feature primitives: differences, strikes, turning
//! points, peaks, complexity estimators.

use ns_linalg::stats;

/// First differences `x[t+1] - x[t]` (empty for len < 2).
pub fn diffs(x: &[f64]) -> Vec<f64> {
    x.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Rate of sign changes of the signal around zero, normalised by length.
pub fn zero_crossing_rate(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let crossings = x
        .windows(2)
        .filter(|w| (w[0] >= 0.0) != (w[1] >= 0.0))
        .count();
    crossings as f64 / (x.len() - 1) as f64
}

/// Rate of crossings of the series mean: windows whose two samples fall
/// on different sides of it (`x[t] − m ≥ 0` or not).
pub fn mean_crossing_rate(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = stats::mean(x);
    let crossings = x
        .windows(2)
        .filter(|w| ((w[0] - m) >= 0.0) != ((w[1] - m) >= 0.0))
        .count();
    crossings as f64 / (x.len() - 1) as f64
}

/// Number of positive turning points (local maxima in the diff sign).
pub fn positive_turning_points(x: &[f64]) -> f64 {
    turning_points(x, true)
}

/// Number of negative turning points (local minima).
pub fn negative_turning_points(x: &[f64]) -> f64 {
    turning_points(x, false)
}

fn turning_points(x: &[f64], positive: bool) -> f64 {
    if x.len() < 3 {
        return 0.0;
    }
    let mut count = 0usize;
    for w in x.windows(3) {
        let up_then_down = w[1] > w[0] && w[1] > w[2];
        let down_then_up = w[1] < w[0] && w[1] < w[2];
        if (positive && up_then_down) || (!positive && down_then_up) {
            count += 1;
        }
    }
    count as f64
}

/// Count of strict local maxima that exceed both neighbours by `min_delta`.
pub fn peak_count(x: &[f64], min_delta: f64) -> f64 {
    if x.len() < 3 {
        return 0.0;
    }
    x.windows(3)
        .filter(|w| w[1] - w[0] > min_delta && w[1] - w[2] > min_delta)
        .count() as f64
}

/// Trapezoidal area under the curve with unit spacing.
pub fn trapz(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    x.windows(2).map(|w| 0.5 * (w[0] + w[1])).sum()
}

/// [`trapz`] over `|x|` without materialising the rectified series:
/// `Σ 0.5·(|x[t]| + |x[t+1]|)`, term-for-term what `trapz` sees on the
/// copied `|x|` array, so bit-identical.
pub fn trapz_abs(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    x.windows(2).map(|w| 0.5 * (w[0].abs() + w[1].abs())).sum()
}

/// Temporal centroid: energy-weighted mean sample index, normalised to
/// `[0, 1]`. Returns 0.5 for zero-energy signals.
pub fn temporal_centroid(x: &[f64]) -> f64 {
    let total: f64 = x.iter().map(|v| v * v).sum();
    if x.len() < 2 || total < 1e-24 {
        return 0.5;
    }
    let weighted: f64 = x.iter().enumerate().map(|(i, v)| i as f64 * v * v).sum();
    weighted / (total * (x.len() - 1) as f64)
}

/// Longest run of consecutive samples strictly above the mean, as a
/// fraction of the series length.
pub fn longest_strike_above_mean(x: &[f64]) -> f64 {
    longest_strike(x, stats::mean(x), true)
}

/// Longest run of consecutive samples strictly below the mean.
pub fn longest_strike_below_mean(x: &[f64]) -> f64 {
    longest_strike(x, stats::mean(x), false)
}

fn longest_strike(x: &[f64], m: f64, above: bool) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut best = 0usize;
    let mut run = 0usize;
    for &v in x {
        let hit = if above { v > m } else { v < m };
        if hit {
            run += 1;
            best = best.max(run);
        } else {
            run = 0;
        }
    }
    best as f64 / x.len() as f64
}

/// Relative index (0..1) of the first occurrence of the maximum.
pub fn first_location_of_max(x: &[f64]) -> f64 {
    relative_location(x, true, true)
}

/// Relative index of the first occurrence of the minimum.
pub fn first_location_of_min(x: &[f64]) -> f64 {
    relative_location(x, false, true)
}

/// Relative index of the last occurrence of the maximum.
pub fn last_location_of_max(x: &[f64]) -> f64 {
    relative_location(x, true, false)
}

/// Relative index of the last occurrence of the minimum.
pub fn last_location_of_min(x: &[f64]) -> f64 {
    relative_location(x, false, false)
}

/// Relative index (0..1) of the first/last sample equal to the fold-based
/// extremum of [`stats::min`]/[`stats::max`]; 0 when absent (an all-NaN
/// series).
fn relative_location(x: &[f64], maximum: bool, first: bool) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let target = if maximum {
        stats::max(x)
    } else {
        stats::min(x)
    };
    let pos = if first {
        x.iter().position(|&v| v == target)
    } else {
        x.iter().rposition(|&v| v == target)
    };
    match pos {
        Some(i) => i as f64 / x.len() as f64,
        None => 0.0,
    }
}

/// Time-reversal asymmetry statistic at the given lag
/// (`mean(x[t+2l]² x[t+l] − x[t+l] x[t]²)`); 0 for short series.
pub fn time_reversal_asymmetry(x: &[f64], lag: usize) -> f64 {
    if x.len() <= 2 * lag || lag == 0 {
        return 0.0;
    }
    let n = x.len() - 2 * lag;
    (0..n)
        .map(|t| x[t + 2 * lag] * x[t + 2 * lag] * x[t + lag] - x[t + lag] * x[t] * x[t])
        .sum::<f64>()
        / n as f64
}

/// C3 nonlinearity measure: `mean(x[t+2l] * x[t+l] * x[t])`.
pub fn c3(x: &[f64], lag: usize) -> f64 {
    if x.len() <= 2 * lag || lag == 0 {
        return 0.0;
    }
    let n = x.len() - 2 * lag;
    (0..n)
        .map(|t| x[t + 2 * lag] * x[t + lag] * x[t])
        .sum::<f64>()
        / n as f64
}

/// CID complexity estimate: `sqrt(sum(diff²))`. Higher for more complex
/// (wigglier) series.
pub fn cid_ce(x: &[f64]) -> f64 {
    diffs(x).iter().map(|d| d * d).sum::<f64>().sqrt()
}

/// Fraction of samples farther than `r` population standard deviations
/// from the mean.
pub fn ratio_beyond_r_sigma(x: &[f64], r: f64) -> f64 {
    ratio_beyond_r_sigma_with(x, r, stats::mean(x), stats::std_dev(x))
}

/// [`ratio_beyond_r_sigma`] with the moments precomputed (bit-identical).
pub fn ratio_beyond_r_sigma_with(x: &[f64], r: f64, m: f64, s: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    if s < 1e-15 {
        return 0.0;
    }
    x.iter().filter(|&&v| (v - m).abs() > r * s).count() as f64 / x.len() as f64
}

/// Energy of the `i`-th of `k` equal chunks as a fraction of total energy.
pub fn energy_ratio_chunk(x: &[f64], i: usize, k: usize) -> f64 {
    energy_ratio_chunk_with(x, i, k, x.iter().map(|v| v * v).sum())
}

/// [`energy_ratio_chunk`] with the total energy `Σx²` precomputed
/// (bit-identical).
pub fn energy_ratio_chunk_with(x: &[f64], i: usize, k: usize, total: f64) -> f64 {
    if x.is_empty() || k == 0 || i >= k {
        return 0.0;
    }
    if total < 1e-24 {
        return 0.0;
    }
    let chunk = x.len().div_ceil(k);
    let start = (i * chunk).min(x.len());
    let end = ((i + 1) * chunk).min(x.len());
    x[start..end].iter().map(|v| v * v).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffs_basic() {
        assert_eq!(diffs(&[1.0, 4.0, 2.0]), vec![3.0, -2.0]);
        assert!(diffs(&[1.0]).is_empty());
    }

    #[test]
    fn zero_crossings_of_alternating() {
        let x = [1.0, -1.0, 1.0, -1.0, 1.0];
        assert_eq!(zero_crossing_rate(&x), 1.0);
        assert_eq!(zero_crossing_rate(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn turning_points_of_zigzag() {
        let x = [0.0, 1.0, 0.0, 1.0, 0.0];
        assert_eq!(positive_turning_points(&x), 2.0);
        assert_eq!(negative_turning_points(&x), 1.0);
    }

    #[test]
    fn peaks_respect_min_delta() {
        let x = [0.0, 0.05, 0.0, 5.0, 0.0];
        assert_eq!(peak_count(&x, 0.1), 1.0);
        assert_eq!(peak_count(&x, 0.0), 2.0);
    }

    #[test]
    fn trapz_of_line() {
        // y = x over [0, 4]: area 8.
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(trapz(&x), 8.0);
    }

    #[test]
    fn centroid_shifts_with_energy() {
        let early = [10.0, 10.0, 0.0, 0.0, 0.0, 0.0];
        let late = [0.0, 0.0, 0.0, 0.0, 10.0, 10.0];
        assert!(temporal_centroid(&early) < 0.3);
        assert!(temporal_centroid(&late) > 0.7);
        assert_eq!(temporal_centroid(&[0.0; 8]), 0.5);
    }

    #[test]
    fn strikes() {
        let x = [0.0, 10.0, 10.0, 10.0, 0.0, 0.0];
        // mean = 5; above-run = 3 (indices 1..=3), below-run = 2 (indices 4..=5).
        assert_eq!(longest_strike_above_mean(&x), 0.5);
        assert_eq!(longest_strike_below_mean(&x), 2.0 / 6.0);
    }

    #[test]
    fn locations_of_extrema() {
        let x = [0.0, 9.0, 1.0, 9.0, -3.0];
        assert_eq!(first_location_of_max(&x), 0.2);
        assert_eq!(last_location_of_max(&x), 0.6);
        assert_eq!(first_location_of_min(&x), 0.8);
    }

    #[test]
    fn trend_statistics_zero_for_symmetric_noise() {
        // A symmetric triangle wave has near-zero time-reversal asymmetry.
        let x: Vec<f64> = (0..100).map(|i| ((i % 10) as f64 - 5.0).abs()).collect();
        assert!(time_reversal_asymmetry(&x, 1).abs() < 2.0);
        assert_eq!(time_reversal_asymmetry(&[1.0, 2.0], 1), 0.0);
        assert_eq!(c3(&[1.0, 2.0], 1), 0.0);
    }

    #[test]
    fn cid_monotone_in_wiggliness() {
        let smooth: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let rough: Vec<f64> = (0..50)
            .map(|i| if i % 2 == 0 { 0.0 } else { 2.0 })
            .collect();
        assert!(cid_ce(&rough) > cid_ce(&smooth));
    }

    #[test]
    fn sigma_ratios() {
        let mut x = vec![0.0; 100];
        x[0] = 100.0;
        assert!(ratio_beyond_r_sigma(&x, 3.0) > 0.0);
        assert_eq!(ratio_beyond_r_sigma(&[1.0; 10], 1.0), 0.0);
    }

    #[test]
    fn chunk_energies_sum_to_one() {
        let x: Vec<f64> = (1..=37).map(|i| i as f64).collect();
        let s: f64 = (0..8).map(|i| energy_ratio_chunk(&x, i, 8)).sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(energy_ratio_chunk(&x, 9, 8), 0.0);
    }
}
