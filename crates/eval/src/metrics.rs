//! Point-wise anomaly detection metrics with the paper's adjustment
//! protocol (§4.1.4):
//!
//! 1. *Segment adjustment*: if the method fires anywhere inside a
//!    continuous ground-truth anomaly interval, the whole interval counts
//!    as detected.
//! 2. *Boundary exclusion*: points within one minute of a pattern
//!    transition are excluded from scoring.
//! 3. *Per-node averaging*: Precision/Recall/AUC are averaged across
//!    nodes; F1 is computed from the averaged P and R.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Confusion counts over included points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
    pub tn: usize,
}

impl Confusion {
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    pub fn f1(&self) -> f64 {
        f1_from(self.precision(), self.recall())
    }
}

/// F1 from precision and recall (0 when both are 0).
pub fn f1_from(p: f64, r: f64) -> f64 {
    if p + r <= 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

/// Each maximal run of `true` in `flags`, in order, as a half-open range.
pub fn runs(flags: &[bool]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let start = i + flags[i..].iter().position(|&f| f)?;
        let len = flags[start..].iter().take_while(|&&f| f).count();
        i = start + len;
        Some(start..i)
    })
}

/// Apply the segment adjustment: any predicted positive inside a
/// continuous true-anomaly run marks the entire run as predicted.
pub fn point_adjust(pred: &[bool], truth: &[bool]) -> Vec<bool> {
    assert_eq!(pred.len(), truth.len());
    let mut adjusted = pred.to_vec();
    for run in runs(truth) {
        if pred[run.clone()].iter().any(|&p| p) {
            adjusted[run].fill(true);
        }
    }
    adjusted
}

/// Confusion counts after adjustment, honouring an optional inclusion
/// mask (`false` = excluded from scoring).
pub fn adjusted_confusion(pred: &[bool], truth: &[bool], include: Option<&[bool]>) -> Confusion {
    let adjusted = point_adjust(pred, truth);
    let mut c = Confusion::default();
    for (i, (&p, &t)) in adjusted.iter().zip(truth).enumerate() {
        if let Some(mask) = include {
            if !mask[i] {
                continue;
            }
        }
        match (p, t) {
            (true, true) => c.tp += 1,
            (true, false) => c.fp += 1,
            (false, true) => c.fn_ += 1,
            (false, false) => c.tn += 1,
        }
    }
    c
}

/// Inclusion mask that excludes the half-open step intervals in
/// `intervals` (clamped to `len`). Used by the fault-injection
/// experiments to score detection quality outside the injected fault
/// windows, where verdicts are still expected to be trustworthy.
pub fn interval_mask(len: usize, intervals: &[(usize, usize)]) -> Vec<bool> {
    let mut mask = vec![true; len];
    for &(lo, hi) in intervals {
        for slot in mask[lo.min(len)..hi.min(len)].iter_mut() {
            *slot = false;
        }
    }
    mask
}

/// Inclusion mask that excludes `radius` points on each side of every
/// pattern-transition step (the paper's 1-minute boundary exclusion).
pub fn transition_mask(len: usize, transitions: &[usize], radius: usize) -> Vec<bool> {
    let mut mask = vec![true; len];
    for &t in transitions {
        let lo = t.saturating_sub(radius);
        let hi = (t + radius).min(len);
        for slot in mask[lo..hi].iter_mut() {
            *slot = false;
        }
    }
    mask
}

/// ROC-AUC of scores against binary labels, with the same segment
/// adjustment applied at every threshold via rank statistics over
/// adjusted labels. For efficiency we compute the standard
/// Mann-Whitney-U AUC over (score, label) pairs after *score
/// propagation*: every point of an anomalous run is assigned the run's
/// maximum score first (the AUC analogue of point adjustment).
pub fn roc_auc_adjusted(scores: &[f64], truth: &[bool], include: Option<&[bool]>) -> f64 {
    assert_eq!(scores.len(), truth.len());
    // Propagate run-max scores across each anomaly run.
    let mut adj_scores = scores.to_vec();
    for run in runs(truth) {
        let maxv = scores[run.clone()]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        adj_scores[run].fill(maxv);
    }
    // Mann–Whitney U with tie handling (average ranks).
    let mut pairs: Vec<(f64, bool)> = adj_scores
        .iter()
        .zip(truth)
        .enumerate()
        .filter(|(i, _)| include.map(|m| m[*i]).unwrap_or(true))
        .map(|(_, (&s, &t))| (s, t))
        .collect();
    let pos = pairs.iter().filter(|(_, t)| *t).count();
    let neg = pairs.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    // Average ranks over ties.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == pairs[i].0 {
            j += 1;
        }
        let avg_rank = (i + j + 1) as f64 / 2.0; // 1-based average rank
        for p in pairs[i..j].iter() {
            if p.1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j;
    }
    let u = rank_sum_pos - (pos * (pos + 1)) as f64 / 2.0;
    u / (pos as f64 * neg as f64)
}

/// Per-node evaluation outcome.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct NodeScores {
    pub precision: f64,
    pub recall: f64,
    pub auc: f64,
}

/// Aggregate per-node scores the paper's way: average P, R, AUC across
/// nodes; F1 from the averaged P and R.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct AggregateScores {
    pub precision: f64,
    pub recall: f64,
    pub auc: f64,
    pub f1: f64,
}

pub fn aggregate(nodes: &[NodeScores]) -> AggregateScores {
    if nodes.is_empty() {
        return AggregateScores::default();
    }
    let n = nodes.len() as f64;
    let p = nodes.iter().map(|s| s.precision).sum::<f64>() / n;
    let r = nodes.iter().map(|s| s.recall).sum::<f64>() / n;
    let auc = nodes.iter().map(|s| s.auc).sum::<f64>() / n;
    AggregateScores {
        precision: p,
        recall: r,
        auc,
        f1: f1_from(p, r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_adjust_expands_partial_hits() {
        let truth = [false, true, true, true, false, true];
        let pred = [false, false, true, false, false, false];
        let adj = point_adjust(&pred, &truth);
        assert_eq!(adj, vec![false, true, true, true, false, false]);
    }

    #[test]
    fn point_adjust_leaves_false_positives() {
        let truth = [false, false, true];
        let pred = [true, false, true];
        let adj = point_adjust(&pred, &truth);
        assert_eq!(adj, vec![true, false, true]);
    }

    #[test]
    fn confusion_and_f1() {
        let truth = [true, true, false, false];
        let pred = [true, false, true, false];
        // After adjustment, pred hits the run [0,2) → both true.
        let c = adjusted_confusion(&pred, &truth, None);
        assert_eq!(
            c,
            Confusion {
                tp: 2,
                fp: 1,
                fn_: 0,
                tn: 1
            }
        );
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.recall(), 1.0);
        assert!((c.f1() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mask_excludes_boundary_points() {
        let mask = transition_mask(10, &[5], 2);
        assert_eq!(
            mask,
            vec![true, true, true, false, false, false, false, true, true, true]
        );
        // Masked points don't count.
        let truth = [false; 10];
        let mut pred = [false; 10];
        pred[4] = true; // masked false positive
        let c = adjusted_confusion(&pred, &truth, Some(&mask));
        assert_eq!(c.fp, 0);
    }

    #[test]
    fn auc_perfect_and_random() {
        let truth = [false, false, false, true, true];
        let perfect = [0.1, 0.2, 0.3, 0.9, 0.8];
        assert!((roc_auc_adjusted(&perfect, &truth, None) - 1.0).abs() < 1e-12);
        let inverted = [0.9, 0.8, 0.7, 0.1, 0.2];
        assert!(roc_auc_adjusted(&inverted, &truth, None) < 0.1);
        let constant = [0.5; 5];
        assert!((roc_auc_adjusted(&constant, &truth, None) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_degenerate_labels() {
        assert_eq!(roc_auc_adjusted(&[0.1, 0.2], &[false, false], None), 0.5);
        assert_eq!(roc_auc_adjusted(&[0.1, 0.2], &[true, true], None), 0.5);
    }

    #[test]
    fn auc_propagates_run_max() {
        // Run [2,4): only index 3 scores high. Propagation lifts index 2
        // too, making separation perfect.
        let truth = [false, false, true, true, false];
        let scores = [0.1, 0.2, 0.0, 0.9, 0.15];
        assert!((roc_auc_adjusted(&scores, &truth, None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_matches_paper_protocol() {
        let nodes = [
            NodeScores {
                precision: 1.0,
                recall: 0.5,
                auc: 0.9,
            },
            NodeScores {
                precision: 0.5,
                recall: 1.0,
                auc: 0.7,
            },
        ];
        let agg = aggregate(&nodes);
        assert!((agg.precision - 0.75).abs() < 1e-12);
        assert!((agg.recall - 0.75).abs() < 1e-12);
        assert!((agg.auc - 0.8).abs() < 1e-12);
        // F1 of the averages, not average of F1s.
        assert!((agg.f1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_aggregate_is_zero() {
        let agg = aggregate(&[]);
        assert_eq!(agg.f1, 0.0);
    }
}
