//! Cluster adjustment: the operator-facing loop that inspects automatic
//! clustering results, reassigns members, and keeps centroids current —
//! the `cluster_result.txt` / `cluster_adjust.txt` workflow of the
//! paper's tool.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Cluster assignments plus feature-space centroids, supporting manual
/// reassignment with automatic centroid updates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterAdjustment {
    /// Per-item feature vectors.
    features: Vec<Vec<f64>>,
    /// Raw algorithmic labels (never mutated after construction).
    original: Vec<usize>,
    /// Operator-adjusted labels.
    adjusted: Vec<usize>,
    centroids: Vec<Vec<f64>>,
}

impl ClusterAdjustment {
    /// Build from algorithmic output.
    pub fn new(features: Vec<Vec<f64>>, labels: Vec<usize>) -> Self {
        assert_eq!(features.len(), labels.len());
        let mut s = Self {
            original: labels.clone(),
            adjusted: labels,
            centroids: Vec::new(),
            features,
        };
        s.recompute_centroids();
        s
    }

    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    pub fn len(&self) -> usize {
        self.adjusted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.adjusted.is_empty()
    }

    pub fn labels(&self) -> &[usize] {
        &self.adjusted
    }

    pub fn original_labels(&self) -> &[usize] {
        &self.original
    }

    pub fn centroid(&self, c: usize) -> &[f64] {
        &self.centroids[c]
    }

    /// Items whose operator label differs from the algorithmic one.
    pub fn overrides(&self) -> Vec<usize> {
        self.original
            .iter()
            .zip(&self.adjusted)
            .enumerate()
            .filter(|(_, (o, a))| o != a)
            .map(|(i, _)| i)
            .collect()
    }

    /// Move one item to a target cluster (creating it if `target ==
    /// k()`), updating centroids.
    pub fn reassign(&mut self, item: usize, target: usize) {
        assert!(item < self.adjusted.len(), "item out of range");
        assert!(target <= self.k(), "target cluster out of range");
        self.adjusted[item] = target;
        self.recompute_centroids();
    }

    /// Recompute all centroids from current assignments.
    pub fn recompute_centroids(&mut self) {
        let k = self.adjusted.iter().max().map_or(0, |m| m + 1);
        self.centroids = ns_cluster::centroids(&self.features, &self.adjusted, k);
    }

    /// Silhouette of the adjusted clustering (diagnostic shown to the
    /// operator after each adjustment).
    pub fn silhouette(&self) -> f64 {
        if self.features.len() < 3 {
            return 0.0;
        }
        let dist = ns_linalg::distance::CondensedDistance::compute(self.features.len(), |i, j| {
            ns_linalg::vecops::euclidean(&self.features[i], &self.features[j])
        });
        ns_cluster::silhouette_score(&dist, &self.adjusted)
    }

    /// Export `item cluster` rows (the `cluster_adjust.txt` format);
    /// `original` selects the raw algorithmic labels instead.
    pub fn export(&self, original: bool) -> String {
        let labels = if original {
            &self.original
        } else {
            &self.adjusted
        };
        let mut s = String::new();
        for (i, l) in labels.iter().enumerate() {
            let _ = writeln!(s, "{i} {l}");
        }
        s
    }

    /// Parse an exported label file back into an assignment vector.
    pub fn parse_labels(text: &str) -> Result<Vec<usize>, String> {
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let idx: usize = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: missing index"))?
                .parse()
                .map_err(|e| format!("line {lineno}: {e}"))?;
            let label: usize = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: missing label"))?
                .parse()
                .map_err(|e| format!("line {lineno}: {e}"))?;
            if idx != out.len() {
                return Err(format!("line {lineno}: indices must be dense and ordered"));
            }
            out.push(label);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterAdjustment {
        let features = vec![
            vec![0.0, 0.0],
            vec![0.2, 0.0],
            vec![10.0, 10.0],
            vec![10.2, 9.8],
        ];
        ClusterAdjustment::new(features, vec![0, 0, 1, 1])
    }

    #[test]
    fn centroids_track_assignments() {
        let adj = sample();
        assert_eq!(adj.k(), 2);
        assert!((adj.centroid(0)[0] - 0.1).abs() < 1e-12);
        assert!((adj.centroid(1)[1] - 9.9).abs() < 1e-12);
    }

    #[test]
    fn reassignment_updates_centroids_and_overrides() {
        let mut adj = sample();
        adj.reassign(1, 1);
        assert_eq!(adj.labels(), &[0, 1, 1, 1]);
        assert_eq!(adj.overrides(), vec![1]);
        // Cluster 0 centroid now equals item 0 exactly.
        assert_eq!(adj.centroid(0), &[0.0, 0.0]);
        // Original labels preserved.
        assert_eq!(adj.original_labels(), &[0, 0, 1, 1]);
    }

    #[test]
    fn creating_a_new_cluster() {
        let mut adj = sample();
        adj.reassign(3, 2);
        assert_eq!(adj.k(), 3);
        assert_eq!(adj.centroid(2), &[10.2, 9.8]);
    }

    #[test]
    fn silhouette_degrades_with_bad_adjustment() {
        let mut adj = sample();
        let before = adj.silhouette();
        adj.reassign(0, 1); // mix the blobs
        let after = adj.silhouette();
        assert!(after < before, "before {before} after {after}");
    }

    #[test]
    fn export_parse_roundtrip() {
        let mut adj = sample();
        adj.reassign(2, 0);
        let text = adj.export(false);
        let parsed = ClusterAdjustment::parse_labels(&text).unwrap();
        assert_eq!(parsed, adj.labels());
        assert!(ClusterAdjustment::parse_labels("0 0\n2 1\n").is_err()); // gap
        assert!(ClusterAdjustment::parse_labels("0 x\n").is_err());
    }
}
