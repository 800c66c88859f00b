//! Shared plumbing for baseline detectors: the `Detector` trait and
//! window utilities (windows tile a span by `ns_nn::window_starts`, the
//! shared models' tiling). Baselines consume *preprocessed* node matrices (the
//! same cleaning/reduction/standardization NodeSentry uses), so the
//! comparison isolates the detection strategy itself.

use ns_linalg::matrix::Matrix;

/// A baseline anomaly detector over per-node preprocessed MTS.
pub trait Detector {
    /// Display name (Table 4 row label).
    fn name(&self) -> &'static str;

    /// Train on all nodes' `[0, split)` spans.
    fn fit(&mut self, nodes: &[Matrix], split: usize);

    /// Per-timestep anomaly scores for one node's `[split, rows)` span.
    fn score_node(&self, node_idx: usize, data: &Matrix, split: usize) -> Vec<f64>;
}

/// Summary features of one window: per-metric `[mean, std, min, max]`
/// (the per-window representation Prodigy-style detectors consume).
pub fn window_summary(win: &Matrix) -> Vec<f64> {
    let m = win.cols();
    let mut out = Vec::with_capacity(4 * m);
    for c in 0..m {
        let col = win.col(c);
        out.push(ns_linalg::stats::mean(&col));
        out.push(ns_linalg::stats::std_dev(&col));
        out.push(ns_linalg::stats::min(&col));
        out.push(ns_linalg::stats::max(&col));
    }
    out
}

/// Spread per-window scores back to per-timestep scores over `len`
/// points (overlaps keep the max).
pub fn spread_window_scores(
    len: usize,
    window: usize,
    starts: &[usize],
    scores: &[f64],
) -> Vec<f64> {
    let w = window.min(len).max(1);
    let mut out = vec![0.0f64; len];
    for (&s, &v) in starts.iter().zip(scores) {
        for slot in out[s..(s + w).min(len)].iter_mut() {
            *slot = slot.max(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_nn::window_starts;

    #[test]
    fn summary_has_four_per_metric() {
        let win = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]);
        let s = window_summary(&win);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0], 2.0); // mean of col 0
        assert_eq!(s[2], 1.0); // min
        assert_eq!(s[3], 3.0); // max
        assert_eq!(s[5], 0.0); // std of constant col 1
    }

    #[test]
    fn spreading_covers_all_points() {
        let starts = window_starts(10, 4);
        let spread = spread_window_scores(10, 4, &starts, &[1.0, 2.0, 3.0]);
        assert_eq!(spread.len(), 10);
        assert!(spread.iter().all(|&v| v > 0.0));
        // Overlap region takes the max.
        assert_eq!(spread[7], 3.0);
    }
}
