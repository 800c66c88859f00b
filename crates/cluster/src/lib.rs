//! `ns-cluster` — clustering substrate for NodeSentry.
//!
//! The paper's coarse-grained stage needs Hierarchical Agglomerative
//! Clustering with automatic cluster-count selection via the silhouette
//! coefficient (§3.3); the baselines need Gaussian mixtures (ISC'20); the
//! Challenge-1 cost argument needs DTW; the mixture's means are seeded by
//! k-means. This crate provides all of them, implemented from scratch over
//! `ns-linalg`:
//!
//! * [`hac`] — NN-chain HAC with single/complete/average/Ward linkage and
//!   dendrogram cuts,
//! * [`silhouette`] — silhouette scoring and [`silhouette::select_k`],
//! * [`kmeans`] — k-means++, the mixture's mean seeding,
//! * [`gmm`] — EM-fitted (Bayesian-optional) Gaussian mixtures with
//!   diagonal covariances and Mahalanobis scoring,
//! * [`dtw`] — (banded) dynamic time warping, uni- and multivariate.

pub mod dtw;
pub mod gmm;
pub mod hac;
pub mod kmeans;
pub mod silhouette;

pub use hac::{linkage, linkage_from_distance, Dendrogram, Linkage, Merge};
pub use silhouette::{select_k, silhouette_score, KSelection};

/// The mean of each of `k` clusters' members, `labels[i]` naming row
/// `i`'s cluster: members summed in row order, then divided by the
/// member count. A cluster without members sits at the origin.
/// ([`kmeans`] keeps its own update: an empty cluster there keeps its
/// previous position.)
pub fn centroids(rows: &[Vec<f64>], labels: &[usize], k: usize) -> Vec<Vec<f64>> {
    let dim = rows.first().map_or(0, Vec::len);
    let mut centroids = vec![vec![0.0; dim]; k];
    let mut counts = vec![0usize; k];
    for (row, &l) in rows.iter().zip(labels) {
        counts[l] += 1;
        for (c, v) in centroids[l].iter_mut().zip(row) {
            *c += v;
        }
    }
    for (cen, &cnt) in centroids.iter_mut().zip(&counts) {
        for v in cen.iter_mut() {
            *v /= cnt.max(1) as f64;
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    #[test]
    fn centroids_average_members_and_leave_empty_clusters_at_the_origin() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 6.0], vec![5.0, -1.0]];
        let c = super::centroids(&rows, &[0, 0, 2], 3);
        assert_eq!(c, vec![vec![2.0, 4.0], vec![0.0, 0.0], vec![5.0, -1.0]]);
        assert!(super::centroids(&[], &[], 2).iter().all(Vec::is_empty));
    }
}
