//! Assisted labeling: the built-in detectors the tool runs to pre-suggest
//! anomalous intervals, which operators then confirm or discard
//! ("to alleviate the workload, we integrate multiple anomaly detection
//! methods to aid in labeling").

use crate::store::Interval;
use ns_eval::threshold::{ksigma_detect, KSigmaConfig};
use ns_linalg::matrix::Matrix;
use ns_linalg::stats;

/// A suggested anomaly with a confidence in `[0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Suggestion {
    pub interval: Interval,
    pub confidence: f64,
    /// Which detector produced it.
    pub source: &'static str,
}

/// Convert a boolean flag series to merged intervals, dropping runs
/// shorter than `min_len`.
pub fn flags_to_intervals(flags: &[bool], min_len: usize) -> Vec<(usize, usize)> {
    ns_eval::metrics::runs(flags)
        .filter(|run| run.len() >= min_len.max(1))
        .map(|run| (run.start, run.end))
        .collect()
}

/// Suggest anomalies over an MTS by running a k-sigma detector per metric
/// and voting: a point is suggested when at least `min_votes` metrics
/// flag it. Confidence = mean vote fraction over the interval.
pub fn suggest_ksigma(
    data: &Matrix,
    cfg: &KSigmaConfig,
    min_votes: usize,
    min_len: usize,
) -> Vec<Suggestion> {
    let (rows, cols) = data.shape();
    if rows == 0 || cols == 0 {
        return Vec::new();
    }
    let mut votes = vec![0usize; rows];
    for c in 0..cols {
        let col = data.col(c);
        // The per-metric score is deviation from the running context —
        // use the absolute series directly (standardized inputs assumed).
        let flags = ksigma_detect(&col.iter().map(|v| v.abs()).collect::<Vec<_>>(), cfg);
        for (v, f) in votes.iter_mut().zip(flags) {
            if f {
                *v += 1;
            }
        }
    }
    let flagged: Vec<bool> = votes.iter().map(|&v| v >= min_votes.max(1)).collect();
    flags_to_intervals(&flagged, min_len)
        .into_iter()
        .map(|(s, e)| {
            let conf = votes[s..e]
                .iter()
                .map(|&v| v as f64 / cols as f64)
                .sum::<f64>()
                / (e - s) as f64;
            Suggestion {
                interval: Interval::new(s, e, "ksigma"),
                confidence: conf.min(1.0),
                source: "ksigma",
            }
        })
        .collect()
}

/// Suggest level shifts: split the series into halves around each
/// candidate point using a rolling median comparison; flags sustained
/// mean shifts larger than `threshold` (in robust sigma units).
pub fn suggest_level_shift(data: &Matrix, window: usize, threshold: f64) -> Vec<Suggestion> {
    let rows = data.rows();
    if rows < 2 * window {
        return Vec::new();
    }
    let mut flagged = vec![false; rows];
    for c in 0..data.cols() {
        let col = data.col(c);
        // Robust noise scale from first differences — the raw series'
        // spread includes the level shift we are looking for.
        let diffs: Vec<f64> = col.windows(2).map(|w| w[1] - w[0]).collect();
        let sigma = (stats::mad(&diffs) * 1.4826).max(1e-6);
        for t in window..rows - window {
            let before = stats::median(&col[t - window..t]);
            let after = stats::median(&col[t..t + window]);
            if (after - before).abs() > threshold * sigma {
                flagged[t] = true;
            }
        }
    }
    flags_to_intervals(&flagged, 2)
        .into_iter()
        .map(|(s, e)| Suggestion {
            interval: Interval::new(s, e, "level_shift"),
            confidence: 0.5,
            source: "level_shift",
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_to_intervals_merges_runs() {
        let flags = [false, true, true, false, true, false, true, true, true];
        assert_eq!(flags_to_intervals(&flags, 1), vec![(1, 3), (4, 5), (6, 9)]);
        assert_eq!(flags_to_intervals(&flags, 2), vec![(1, 3), (6, 9)]);
        assert!(flags_to_intervals(&[], 1).is_empty());
    }

    #[test]
    fn ksigma_suggests_injected_burst() {
        let data = Matrix::from_fn(300, 3, |t, m| {
            let base = ((t as f64) * 0.1 + m as f64).sin() * 0.1;
            if (200..215).contains(&t) {
                base + 5.0
            } else {
                base
            }
        });
        let sugg = suggest_ksigma(&data, &KSigmaConfig::default(), 2, 2);
        assert!(!sugg.is_empty(), "no suggestions produced");
        let hit = sugg
            .iter()
            .any(|s| s.interval.start >= 195 && s.interval.start <= 205);
        assert!(hit, "suggestions {sugg:?} missed the burst");
        assert!(sugg
            .iter()
            .all(|s| s.confidence > 0.0 && s.confidence <= 1.0));
    }

    #[test]
    fn quiet_data_produces_no_suggestions() {
        let data = Matrix::from_fn(200, 2, |t, _| ((t % 7) as f64) * 0.01);
        let sugg = suggest_ksigma(&data, &KSigmaConfig::default(), 1, 2);
        assert!(sugg.len() <= 1, "noisy over-suggestion: {sugg:?}");
    }

    #[test]
    fn level_shift_detector_fires_on_step() {
        let data = Matrix::from_fn(
            200,
            1,
            |t, _| if t < 100 { 0.0 } else { 2.0 } + ((t % 5) as f64) * 0.01,
        );
        let sugg = suggest_level_shift(&data, 20, 4.0);
        assert!(!sugg.is_empty());
        assert!(sugg.iter().any(|s| (80..120).contains(&s.interval.start)));
    }
}
