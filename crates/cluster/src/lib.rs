//! `ns-cluster` — clustering substrate for NodeSentry.
//!
//! The paper's coarse-grained stage needs Hierarchical Agglomerative
//! Clustering with automatic cluster-count selection via the silhouette
//! coefficient (§3.3); the baselines need Gaussian mixtures (ISC'20); the
//! Challenge-1 cost argument needs DTW; utilities need k-means. This
//! crate provides all of them, implemented from scratch over `ns-linalg`:
//!
//! * [`hac`] — NN-chain HAC with single/complete/average/Ward linkage and
//!   dendrogram cuts,
//! * [`silhouette`] — silhouette scoring and [`silhouette::select_k`],
//! * [`kmeans`] — k-means++,
//! * [`gmm`] — EM-fitted (Bayesian-optional) Gaussian mixtures with
//!   Mahalanobis scoring,
//! * [`dtw`] — (banded) dynamic time warping, uni- and multivariate.

pub mod dtw;
pub mod gmm;
pub mod hac;
pub mod kmeans;
pub mod silhouette;

pub use hac::{linkage, linkage_from_distance, Dendrogram, Linkage, Merge};
pub use silhouette::{select_k, silhouette_score, KSelection};
