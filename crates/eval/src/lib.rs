//! `ns-eval` — the evaluation protocol of the paper (§4.1.4), packaged:
//!
//! * [`metrics`] — point-adjusted Precision/Recall/F1 with segment
//!   adjustment and transition-boundary exclusion, rank-based ROC-AUC
//!   with run-max score propagation, and the per-node averaging scheme
//!   (F1 computed from averaged P and R).
//! * [`threshold`] — the sliding-window k-sigma dynamic threshold of
//!   §3.5 (3-sigma by default, window swept by Fig. 6(f)).
//! * [`streaming`] — incremental, bit-exact replays of the smoothing and
//!   k-sigma detectors for one-point-at-a-time deployment (`ns-stream`).
//! * [`timing`] — the paper's duration formatting for the Table 4 cost
//!   columns (callers time with `std::time::Instant`).

pub mod metrics;
pub mod streaming;
pub mod threshold;
pub mod timing;

pub use metrics::{
    adjusted_confusion, aggregate, f1_from, point_adjust, roc_auc_adjusted, transition_mask,
    AggregateScores, Confusion, NodeScores,
};
pub use streaming::{StreamingKSigma, StreamingSmoother};
pub use threshold::{ksigma_detect, smooth_scores, KSigmaConfig};
pub use timing::format_duration;
