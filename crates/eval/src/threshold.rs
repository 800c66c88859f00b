//! Dynamic k-sigma thresholding over anomaly scores (paper §3.5): a
//! sliding window along the time axis estimates the local score
//! distribution; a point is anomalous when its score exceeds
//! `mean + k·sigma` of the window. Operators conventionally use 3-sigma.

use serde::{Deserialize, Serialize};

/// Configuration for the sliding k-sigma detector.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct KSigmaConfig {
    /// Window length in points (paper Fig. 6(f): 15–45 minutes).
    pub window: usize,
    /// Sigma multiplier (3.0 in practice).
    pub k: f64,
}

impl Default for KSigmaConfig {
    fn default() -> Self {
        Self { window: 40, k: 3.0 }
    }
}

/// Absolute sigma floor, preventing zero-variance windows from flagging
/// everything.
const MIN_SIGMA: f64 = 1e-6;

/// Scale-free sigma floor: sigma is never below `REL_FLOOR` times the
/// absolute value of the window's median score, so near-perfect
/// reconstruction stretches (tiny variance) don't flag every ripple
/// regardless of the method's score scale.
const REL_FLOOR: f64 = 0.3;

/// The robust sigma of a reference window from its median and MAD, with
/// both floors applied — the one rule of the batch and streaming
/// detectors.
#[inline]
pub(crate) fn robust_sigma(median: f64, mad: f64) -> f64 {
    (1.4826 * mad).max(MIN_SIGMA).max(REL_FLOOR * median.abs())
}

/// Apply the detector: `out[t]` is true when `scores[t]` exceeds the
/// robust upper k-sigma bound of the trailing reference window —
/// `median + k · 1.4826 · MAD`, the outlier-resistant analogue of
/// mean + k·σ. Never flags before at least 3 points of context exist.
///
/// Flagged points are kept out of the reference window (a long anomaly
/// must not teach the detector to accept itself) — but only up to a run
/// of `3 · window` consecutive flags. Past that the detector
/// re-baselines: a level change that persists for several windows is the
/// new normal, and without the cap one drift would flag everything after
/// it forever.
pub fn ksigma_detect(scores: &[f64], cfg: &KSigmaConfig) -> Vec<bool> {
    let n = scores.len();
    let mut out = vec![false; n];
    if n == 0 {
        return out;
    }
    let w = cfg.window.max(1);
    let exclusion_cap = 3 * w;
    let mut window: std::collections::VecDeque<f64> =
        std::collections::VecDeque::with_capacity(w + 1);
    let mut flagged_run = 0usize;
    let mut sorted: Vec<f64> = Vec::with_capacity(w);
    for t in 0..n {
        if window.len() >= 3 {
            sorted.clear();
            sorted.extend(window.iter().copied());
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = percentile_sorted(&sorted, 0.5);
            let mad = {
                let mut dev: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
                dev.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                percentile_sorted(&dev, 0.5)
            };
            let sigma = robust_sigma(median, mad);
            if scores[t] > median + cfg.k * sigma {
                out[t] = true;
            }
        }
        if out[t] {
            flagged_run += 1;
        } else {
            flagged_run = 0;
        }
        if !out[t] || flagged_run > exclusion_cap {
            window.push_back(scores[t]);
            if window.len() > w {
                window.pop_front();
            }
        }
    }
    out
}

/// Linear-interpolated quantile of an ascending slice (0 when empty) —
/// the one median/MAD arithmetic of the batch and streaming detectors.
#[inline]
pub(crate) fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Centered moving-average smoothing of a score series. Real anomalies
/// span many sampling points; single-point reconstruction spikes are
/// noise, and a small smoothing window suppresses them before
/// thresholding without delaying sustained events.
pub fn smooth_scores(scores: &[f64], window: usize) -> Vec<f64> {
    let n = scores.len();
    let w = window.max(1);
    if n == 0 || w == 1 {
        return scores.to_vec();
    }
    let half = w / 2;
    let mut out = Vec::with_capacity(n);
    for t in 0..n {
        let lo = t.saturating_sub(half);
        let hi = (t + half + 1).min(n);
        out.push(scores[lo..hi].iter().sum::<f64>() / (hi - lo) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default 3-sigma config at a given reference window.
    fn window(window: usize) -> KSigmaConfig {
        KSigmaConfig {
            window,
            ..Default::default()
        }
    }

    #[test]
    fn flat_scores_never_flag() {
        let scores = vec![1.0; 200];
        let det = ksigma_detect(&scores, &window(40));
        assert!(det.iter().all(|&d| !d));
    }

    #[test]
    fn spike_is_flagged() {
        let mut scores: Vec<f64> = (0..200).map(|i| ((i * 31) % 7) as f64 * 0.01).collect();
        scores[150] = 5.0;
        let det = ksigma_detect(&scores, &window(40));
        assert!(det[150], "obvious spike missed");
        assert!(
            det[..150].iter().filter(|&&d| d).count() <= 2,
            "too many false alarms"
        );
    }

    #[test]
    fn sustained_anomaly_stays_flagged() {
        // Because anomalous points don't pollute the window, a long level
        // shift keeps firing.
        let mut scores = vec![0.1; 300];
        for s in scores[200..].iter_mut() {
            *s = 3.0;
        }
        // Mild jitter so sigma isn't the floor.
        for (i, s) in scores.iter_mut().enumerate() {
            *s += ((i * 17) % 5) as f64 * 0.01;
        }
        let det = ksigma_detect(&scores, &window(50));
        let flagged_after = det[200..].iter().filter(|&&d| d).count();
        assert!(flagged_after > 90, "only {flagged_after}/100 flagged");
    }

    #[test]
    fn higher_k_is_stricter() {
        let mut scores: Vec<f64> = (0..300).map(|i| ((i * 13) % 11) as f64 * 0.05).collect();
        scores[250] = 1.2;
        let loose = ksigma_detect(&scores, &KSigmaConfig { window: 50, k: 1.0 });
        let strict = ksigma_detect(&scores, &KSigmaConfig { window: 50, k: 4.0 });
        let nl = loose.iter().filter(|&&d| d).count();
        let ns = strict.iter().filter(|&&d| d).count();
        assert!(nl >= ns, "loose {nl} < strict {ns}");
    }

    #[test]
    fn early_points_never_flag_without_context() {
        let scores = [9.0, 0.0, 9.0];
        let det = ksigma_detect(&scores, &window(10));
        assert!(!det[0] && !det[1] && !det[2]);
    }

    #[test]
    fn empty_input() {
        assert!(ksigma_detect(&[], &window(10)).is_empty());
    }
}
