//! `nodesentry-core` — the paper's primary contribution.
//!
//! NodeSentry is an unsupervised anomaly-detection framework for compute
//! nodes of large-scale HPC systems (SC '25). The pipeline:
//!
//! * [`preprocess`] — §3.2's four steps: missing-value interpolation,
//!   semantic aggregation + Pearson pruning (≈10× reduction),
//!   outlier-trimmed ±5-clipped standardization, and job-transition
//!   segmentation.
//! * [`coarse`] — §3.3's coarse-grained clustering: variable-length
//!   segments become fixed-width 134-feature-per-metric vectors,
//!   clustered by HAC under Euclidean distance with the silhouette
//!   coefficient selecting the cluster count automatically.
//! * [`sharing`] — §3.4's fine-grained model sharing: a Transformer
//!   whose dense FFN is replaced by a sparse top-k MoE layer, trained on
//!   the K segments nearest each centroid with segment-aware positional
//!   encoding and a MAC-weighted WMSE loss.
//! * [`detector`] — §3.5's online phase: post-transition pattern
//!   matching against the centroid library, reconstruction-error anomaly
//!   scores, sliding-window k-sigma thresholds, incremental fine-tuning
//!   for matched new patterns and cluster spawning for unmatched ones —
//!   plus the C1–C5 ablation variants of §4.4.
//!
//! [`fit_preprocessor`] is the one preprocessing fit: the detector's, and
//! through `ns-bench`'s harness the baselines'. The online sample type,
//! `Tick`, lives in `ns-wire` beside the codec that frames it; this crate
//! takes only FNV-1a's step from there, for [`NodeSentry::fingerprint`].

pub mod coarse;
pub mod detector;
pub mod preprocess;
pub mod sharing;

pub use coarse::{ClusterModel, CoarseConfig};
pub use detector::{
    fit_preprocessor, NodeInput, NodeSentry, NodeSentryConfig, NodeSource, ProbeMatch, Variant,
};
pub use preprocess::{Preprocessor, Segment, Standardizer};
pub use sharing::{SharedModel, SharingConfig};
