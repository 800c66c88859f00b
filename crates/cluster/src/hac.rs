//! Hierarchical Agglomerative Clustering via the nearest-neighbour-chain
//! algorithm with Lance–Williams distance updates.
//!
//! This is the paper's coarse-grained clustering engine (§3.3): segments
//! represented as fixed-width feature vectors are clustered bottom-up under
//! Euclidean distance. NN-chain runs in `O(n²)` time and memory over a
//! condensed distance matrix, which is what makes week-scale segment
//! populations tractable where DTW-based clustering is not (§2.1).

use ns_linalg::{distance::CondensedDistance, vecops};
use serde::{Deserialize, Serialize};

/// Linkage criterion for merging clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Unweighted average pairwise distance (UPGMA).
    Average,
    /// Ward's minimum-variance criterion (input must be Euclidean).
    Ward,
}

/// One merge step: clusters rooted at items `a` and `b` joined at `height`,
/// producing a cluster of `size` items.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Merge {
    pub a: usize,
    pub b: usize,
    pub height: f64,
    pub size: usize,
}

/// The full merge history over `n` items (n−1 merges, sorted by height).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of original items.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Merge steps sorted ascending by height.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Flat cluster labels for exactly `k` clusters (1 ≤ k ≤ n). Labels are
    /// relabelled to `0..k` in order of first appearance.
    pub fn cut_k(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n.max(1), "k must be in 1..=n");
        let mut uf = UnionFind::new(self.n);
        for m in self.merges.iter().take(self.n.saturating_sub(k)) {
            uf.union(m.a, m.b);
        }
        uf.labels()
    }
}

/// Minimal union-find with path halving.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb] = ra;
        }
    }

    /// Compact labels `0..k` in order of first appearance.
    fn labels(&mut self) -> Vec<usize> {
        let n = self.parent.len();
        let mut map = vec![usize::MAX; n];
        let mut next = 0;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let r = self.find(i);
            if map[r] == usize::MAX {
                map[r] = next;
                next += 1;
            }
            out.push(map[r]);
        }
        out
    }
}

/// Run HAC over a precomputed condensed distance matrix.
///
/// For [`Linkage::Ward`] the input distances must be Euclidean.
pub fn linkage_from_distance(dist: &CondensedDistance, linkage: Linkage) -> Dendrogram {
    let n = dist.len();
    if n == 0 {
        return Dendrogram {
            n,
            merges: Vec::new(),
        };
    }
    // Working square distance matrix indexed by representative slot.
    // O(n²) memory like the condensed input, but mutable with O(1) access.
    let mut d = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let v = dist.get(i, j);
            d[i * n + j] = v;
            d[j * n + i] = v;
        }
    }
    let mut size = vec![1usize; n];
    let mut active = vec![true; n];
    let mut merges: Vec<Merge> = Vec::with_capacity(n.saturating_sub(1));
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    let nearest = |d: &[f64], active: &[bool], a: usize| -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n {
            if j == a || !active[j] {
                continue;
            }
            let dj = d[a * n + j];
            match best {
                Some((bj, bd)) if dj > bd || (dj == bd && j > bj) => {}
                _ => best = Some((j, dj)),
            }
        }
        best.map(|(j, _)| j)
    };

    while merges.len() + 1 < n {
        if chain.is_empty() {
            let start = (0..n)
                .find(|&i| active[i])
                .expect("active cluster must exist");
            chain.push(start);
        }
        loop {
            let a = *chain.last().unwrap();
            let b = nearest(&d, &active, a).expect("at least two active clusters");
            if chain.len() >= 2 && chain[chain.len() - 2] == b {
                // Reciprocal nearest neighbours: merge a and b.
                chain.pop();
                chain.pop();
                let (i, j) = if a < b { (a, b) } else { (b, a) };
                let dij = d[i * n + j];
                let (ni, nj) = (size[i] as f64, size[j] as f64);
                // Lance–Williams update of distances from the merged
                // cluster (stored in slot i) to every other active cluster.
                for k in 0..n {
                    if !active[k] || k == i || k == j {
                        continue;
                    }
                    let dik = d[i * n + k];
                    let djk = d[j * n + k];
                    let nk = size[k] as f64;
                    let new = match linkage {
                        Linkage::Single => dik.min(djk),
                        Linkage::Complete => dik.max(djk),
                        Linkage::Average => (ni * dik + nj * djk) / (ni + nj),
                        Linkage::Ward => {
                            let t = ni + nj + nk;
                            (((ni + nk) * dik * dik + (nj + nk) * djk * djk - nk * dij * dij) / t)
                                .max(0.0)
                                .sqrt()
                        }
                    };
                    d[i * n + k] = new;
                    d[k * n + i] = new;
                }
                active[j] = false;
                size[i] += size[j];
                merges.push(Merge {
                    a: i,
                    b: j,
                    height: dij,
                    size: size[i],
                });
                break;
            }
            chain.push(b);
        }
    }
    // NN-chain emits merges in chain order; sort by height for dendrogram
    // semantics (ties keep emission order, which is deterministic).
    merges.sort_by(|x, y| {
        x.height
            .partial_cmp(&y.height)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Dendrogram { n, merges }
}

/// Run HAC over row-vector data under Euclidean distance.
pub fn linkage(data: &[Vec<f64>], linkage_kind: Linkage) -> Dendrogram {
    let n = data.len();
    let dist = CondensedDistance::compute(n, |i, j| vecops::euclidean(&data[i], &data[j]));
    linkage_from_distance(&dist, linkage_kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 0.0), (5.0, 9.0)] {
            for k in 0..5 {
                let dx = (k as f64) * 0.1;
                pts.push(vec![cx + dx, cy - dx]);
            }
        }
        pts
    }

    #[test]
    fn recovers_three_well_separated_blobs() {
        for lk in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let dend = linkage(&three_blobs(), lk);
            let labels = dend.cut_k(3);
            // Each blob of 5 shares a label and the blobs differ.
            for blob in 0..3 {
                let l0 = labels[blob * 5];
                for i in 1..5 {
                    assert_eq!(labels[blob * 5 + i], l0, "{lk:?}");
                }
            }
            assert_ne!(labels[0], labels[5]);
            assert_ne!(labels[5], labels[10]);
            assert_ne!(labels[0], labels[10]);
        }
    }

    #[test]
    fn merge_heights_monotone_for_reducible_linkages() {
        let data: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![((i * 37) % 17) as f64, ((i * 11) % 23) as f64])
            .collect();
        for lk in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let dend = linkage(&data, lk);
            let merges = dend.merges();
            assert_eq!(merges.len(), 39);
            for w in merges.windows(2) {
                assert!(w[0].height <= w[1].height + 1e-12, "{lk:?} not monotone");
            }
            // Final merge contains everything.
            assert_eq!(merges.last().unwrap().size, 40);
        }
    }

    #[test]
    fn cut_k_extremes() {
        let data = three_blobs();
        let dend = linkage(&data, Linkage::Average);
        let all_one = dend.cut_k(1);
        assert!(all_one.iter().all(|&l| l == 0));
        let singletons = dend.cut_k(data.len());
        let mut sorted = singletons.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), data.len());
    }

    #[test]
    fn cut_k_produces_exactly_k_labels() {
        let data = three_blobs();
        let dend = linkage(&data, Linkage::Ward);
        for k in 1..=data.len() {
            let labels = dend.cut_k(k);
            let mut uniq = labels.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), k, "k={k}");
            assert_eq!(*uniq.iter().max().unwrap(), k - 1, "labels must be compact");
        }
    }

    #[test]
    fn single_linkage_chain_effect() {
        // A chain of near points plus one far point: single linkage keeps
        // the chain together at k=2 while complete may split it.
        let mut data: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 1.0, 0.0]).collect();
        data.push(vec![100.0, 0.0]);
        let labels = linkage(&data, Linkage::Single).cut_k(2);
        let chain_label = labels[0];
        assert!(labels[..10].iter().all(|&l| l == chain_label));
        assert_ne!(labels[10], chain_label);
    }

    #[test]
    fn handles_tiny_inputs() {
        assert!(linkage(&[], Linkage::Ward).cut_k(1).is_empty());
        let one = linkage(&[vec![1.0]], Linkage::Ward);
        assert_eq!(one.cut_k(1), vec![0]);
        let two = linkage(&[vec![0.0], vec![1.0]], Linkage::Average);
        assert_eq!(two.cut_k(2), vec![0, 1]);
        assert_eq!(two.cut_k(1), vec![0, 0]);
        assert!((two.merges()[0].height - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_points_merge_at_zero() {
        let data = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![5.0, 5.0]];
        let dend = linkage(&data, Linkage::Complete);
        assert_eq!(dend.merges()[0].height, 0.0);
        let labels = dend.cut_k(2);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[2]);
    }
}
