//! Spectral-domain feature primitives, evaluated over a one-sided power
//! spectrum `(freqs, power)` as produced by [`crate::fft::power_spectrum`].

/// Spectral centroid: power-weighted mean frequency (0 for empty spectra).
pub fn centroid(freqs: &[f64], power: &[f64]) -> f64 {
    let total: f64 = power.iter().sum();
    if total < 1e-24 {
        return 0.0;
    }
    freqs.iter().zip(power).map(|(f, p)| f * p).sum::<f64>() / total
}

/// Spectral spread: power-weighted standard deviation around the centroid.
pub fn spread(freqs: &[f64], power: &[f64]) -> f64 {
    let total: f64 = power.iter().sum();
    if total < 1e-24 {
        return 0.0;
    }
    let c = centroid(freqs, power);
    (freqs
        .iter()
        .zip(power)
        .map(|(f, p)| (f - c) * (f - c) * p)
        .sum::<f64>()
        / total)
        .sqrt()
}

/// Spectral skewness (third standardized moment of the spectrum).
pub fn skewness(freqs: &[f64], power: &[f64]) -> f64 {
    let s = spread(freqs, power);
    let total: f64 = power.iter().sum();
    if s < 1e-15 || total < 1e-24 {
        return 0.0;
    }
    let c = centroid(freqs, power);
    freqs
        .iter()
        .zip(power)
        .map(|(f, p)| ((f - c) / s).powi(3) * p)
        .sum::<f64>()
        / total
}

/// Spectral kurtosis (fourth standardized moment; not excess).
pub fn kurtosis(freqs: &[f64], power: &[f64]) -> f64 {
    let s = spread(freqs, power);
    let total: f64 = power.iter().sum();
    if s < 1e-15 || total < 1e-24 {
        return 0.0;
    }
    let c = centroid(freqs, power);
    freqs
        .iter()
        .zip(power)
        .map(|(f, p)| ((f - c) / s).powi(4) * p)
        .sum::<f64>()
        / total
}

/// Shannon entropy of the normalised power distribution.
pub fn entropy(power: &[f64]) -> f64 {
    let total: f64 = power.iter().sum();
    if total < 1e-24 {
        return 0.0;
    }
    power
        .iter()
        .filter(|&&p| p > 1e-24)
        .map(|&p| {
            let q = p / total;
            -q * q.ln()
        })
        .sum()
}

/// Least-squares slope of power against frequency.
pub fn slope(freqs: &[f64], power: &[f64]) -> f64 {
    let n = freqs.len();
    if n < 2 {
        return 0.0;
    }
    let fm: f64 = freqs.iter().sum::<f64>() / n as f64;
    let pm: f64 = power.iter().sum::<f64>() / n as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for (f, p) in freqs.iter().zip(power) {
        num += (f - fm) * (p - pm);
        den += (f - fm) * (f - fm);
    }
    if den < 1e-24 {
        0.0
    } else {
        num / den
    }
}

/// Spectral decrease: average of `(P[k] − P[0]) / k`, normalised by the
/// total power above DC. Negative for low-frequency-dominated spectra.
pub fn decrease(power: &[f64]) -> f64 {
    if power.len() < 2 {
        return 0.0;
    }
    let tail: f64 = power[1..].iter().sum();
    if tail < 1e-24 {
        return 0.0;
    }
    power[1..]
        .iter()
        .enumerate()
        .map(|(k, &p)| (p - power[0]) / (k + 1) as f64)
        .sum::<f64>()
        / tail
}

/// Frequency below which `fraction` of total power lies.
pub fn rolloff(freqs: &[f64], power: &[f64], fraction: f64) -> f64 {
    let total: f64 = power.iter().sum();
    if total < 1e-24 || freqs.is_empty() {
        return 0.0;
    }
    let target = total * fraction.clamp(0.0, 1.0);
    let mut acc = 0.0;
    for (f, p) in freqs.iter().zip(power) {
        acc += p;
        if acc >= target {
            return *f;
        }
    }
    *freqs.last().unwrap()
}

/// [`rolloff`] over the running sums `cumulative[i] = p[0] + … + p[i]`,
/// accumulated from `+0.0` in bin order as [`rolloff`] accumulates them,
/// and the total power `Σp` (bit-identical): several fractions share one
/// accumulation.
pub fn rolloff_cumulative(freqs: &[f64], cumulative: &[f64], fraction: f64, total: f64) -> f64 {
    if total < 1e-24 || freqs.is_empty() {
        return 0.0;
    }
    let target = total * fraction.clamp(0.0, 1.0);
    cumulative
        .iter()
        .position(|&acc| acc >= target)
        .map_or(*freqs.last().unwrap(), |i| freqs[i])
}

/// Median frequency: 50% power rolloff.
pub fn median_frequency(freqs: &[f64], power: &[f64]) -> f64 {
    rolloff(freqs, power, 0.5)
}

/// Fundamental frequency estimate: the lowest non-DC local spectral peak
/// that reaches at least 10% of the global maximum; falls back to the
/// global argmax frequency.
pub fn fundamental_frequency(freqs: &[f64], power: &[f64]) -> f64 {
    fundamental_frequency_with(freqs, power, power.iter().cloned().fold(0.0_f64, f64::max))
}

/// [`fundamental_frequency`] with the global maximum `max_p` — the fold of
/// `power` from `0.0` with `f64::max` — precomputed (bit-identical).
pub fn fundamental_frequency_with(freqs: &[f64], power: &[f64], max_p: f64) -> f64 {
    if power.len() < 3 || max_p < 1e-24 {
        return 0.0;
    }
    for k in 1..power.len() - 1 {
        if power[k] > power[k - 1] && power[k] >= power[k + 1] && power[k] >= 0.1 * max_p {
            return freqs[k];
        }
    }
    let arg = power
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0);
    freqs[arg]
}

/// Width of the frequency interval `[rolloff(2.5%), rolloff(97.5%)]`
/// containing 95% of the power.
pub fn power_bandwidth(freqs: &[f64], power: &[f64]) -> f64 {
    (rolloff(freqs, power, 0.975) - rolloff(freqs, power, 0.025)).max(0.0)
}

/// Number of positive turning points in the power spectrum (spectral
/// complexity proxy).
pub fn positive_turning_points(power: &[f64]) -> f64 {
    if power.len() < 3 {
        return 0.0;
    }
    power
        .windows(3)
        .filter(|w| w[1] > w[0] && w[1] > w[2])
        .count() as f64
}

/// Fraction of total power falling in band `i` of `k` equal-width bands.
pub fn band_energy(power: &[f64], i: usize, k: usize) -> f64 {
    band_energy_with(power, i, k, power.iter().sum())
}

/// [`band_energy`] with the total power precomputed (bit-identical).
pub fn band_energy_with(power: &[f64], i: usize, k: usize, total: f64) -> f64 {
    if power.is_empty() || k == 0 || i >= k {
        return 0.0;
    }
    if total < 1e-24 {
        return 0.0;
    }
    let band = power.len().div_ceil(k);
    let start = (i * band).min(power.len());
    let end = ((i + 1) * band).min(power.len());
    power[start..end].iter().sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::power_spectrum;
    use std::f64::consts::PI;

    fn tone(n: usize, cycles: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * cycles * i as f64 / n as f64).sin())
            .collect()
    }

    #[test]
    fn centroid_tracks_tone_frequency() {
        let (f, p) = power_spectrum(&tone(256, 32.0), 1.0);
        assert!((centroid(&f, &p) - 0.125).abs() < 0.01);
        assert!(spread(&f, &p) < 0.02);
    }

    #[test]
    fn entropy_orders_pure_vs_noise() {
        let (_, pure) = power_spectrum(&tone(256, 16.0), 1.0);
        let noise: Vec<f64> = (0..256)
            .map(|i| ((i * 7919 + 13) % 101) as f64 / 50.0 - 1.0)
            .collect();
        let (_, noisy) = power_spectrum(&noise, 1.0);
        assert!(entropy(&pure) < entropy(&noisy));
    }

    #[test]
    fn rolloff_monotone_in_fraction() {
        let noise: Vec<f64> = (0..512)
            .map(|i| ((i * 2654435761_usize) % 997) as f64 / 500.0 - 1.0)
            .collect();
        let (f, p) = power_spectrum(&noise, 1.0);
        let r50 = rolloff(&f, &p, 0.5);
        let r85 = rolloff(&f, &p, 0.85);
        let r95 = rolloff(&f, &p, 0.95);
        assert!(r50 <= r85 && r85 <= r95);
        assert_eq!(median_frequency(&f, &p), r50);
    }

    #[test]
    fn fundamental_of_harmonic_signal_is_lowest_peak() {
        let n = 512;
        // f0 plus a stronger 3rd harmonic: fundamental must still win.
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * PI * 8.0 * t).sin() + 1.5 * (2.0 * PI * 24.0 * t).sin()
            })
            .collect();
        let (f, p) = power_spectrum(&x, 1.0);
        let f0 = fundamental_frequency(&f, &p);
        assert!((f0 - 8.0 / n as f64).abs() < 2.0 / n as f64, "got {f0}");
    }

    #[test]
    fn bandwidth_wider_for_noise() {
        let (f1, p1) = power_spectrum(&tone(256, 16.0), 1.0);
        let noise: Vec<f64> = (0..256).map(|i| ((i * 31 + 7) % 17) as f64 - 8.0).collect();
        let (f2, p2) = power_spectrum(&noise, 1.0);
        assert!(power_bandwidth(&f1, &p1) < power_bandwidth(&f2, &p2));
    }

    #[test]
    fn band_energies_partition() {
        let noise: Vec<f64> = (0..256)
            .map(|i| ((i * 131 + 3) % 23) as f64 - 11.0)
            .collect();
        let (_, p) = power_spectrum(&noise, 1.0);
        let s: f64 = (0..10).map(|i| band_energy(&p, i, 10)).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_spectra_are_finite() {
        let z = vec![0.0; 16];
        let f: Vec<f64> = (0..16).map(|i| i as f64).collect();
        for v in [
            centroid(&f, &z),
            spread(&f, &z),
            skewness(&f, &z),
            kurtosis(&f, &z),
            entropy(&z),
            slope(&f, &z),
            decrease(&z),
            rolloff(&f, &z, 0.85),
            fundamental_frequency(&f, &z),
            power_bandwidth(&f, &z),
        ] {
            assert!(v.is_finite());
        }
    }
}
