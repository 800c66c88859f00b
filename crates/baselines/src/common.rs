//! Shared plumbing for baseline detectors: the `Detector` trait, the one
//! thinning rule for capped training sets ([`thin`]), and window
//! utilities. A window-level baseline tiles a span with
//! `ns_nn::windows(len, window, window)` — the shared models' tiling rule
//! at their scoring stride — and spreads per-window scores back over
//! those same ranges. Baselines consume *preprocessed* node matrices (the
//! same cleaning/reduction/standardization NodeSentry uses), so the
//! comparison isolates the detection strategy itself.

use ns_linalg::matrix::Matrix;
use std::ops::Range;

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

/// Keep at most about `cap` of `items`, evenly spaced: beyond the cap,
/// every `len / cap + 1`-th item from the first.
pub fn thin<T>(items: Vec<T>, cap: usize) -> Vec<T> {
    if items.len() <= cap {
        return items;
    }
    let step = items.len() / cap + 1;
    items.into_iter().step_by(step).collect()
}

/// Spread per-window scores back to per-timestep scores over `len`
/// points (overlaps keep the max).
pub fn spread_window_scores(len: usize, windows: &[Range<usize>], scores: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0f64; len];
    for (w, &v) in windows.iter().zip(scores) {
        for slot in out[w.clone()].iter_mut() {
            *slot = slot.max(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_nn::windows;

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
        let spread = spread_window_scores(10, &windows(10, 4, 4), &[1.0, 2.0, 3.0]);
        assert_eq!(spread.len(), 10);
        assert!(spread.iter().all(|&v| v > 0.0));
        // Overlap region takes the max.
        assert_eq!(spread[7], 3.0);
    }

    #[test]
    fn thinning_keeps_every_step_th_item_beyond_the_cap() {
        assert_eq!(thin((0..5).collect::<Vec<_>>(), 5), vec![0, 1, 2, 3, 4]);
        assert_eq!(thin((0..10).collect::<Vec<_>>(), 4), vec![0, 3, 6, 9]);
        assert_eq!(thin((0..9).collect::<Vec<_>>(), 3), vec![0, 4, 8]);
    }
}
