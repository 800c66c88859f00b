//! Coarse-grained clustering (paper §3.3): variable-length segments →
//! fixed-width feature vectors (TSFEL-style catalog) → HAC under
//! Euclidean distance → silhouette-selected cluster count → centroid
//! library for online pattern matching.

use crate::preprocess::Segment;
use ns_cluster::{linkage_from_distance, select_k, Linkage};
use ns_features::FeatureCatalog;
use ns_linalg::distance::CondensedDistance;
use ns_linalg::matrix::Matrix;
use ns_linalg::{stats, vecops};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration for the coarse stage.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoarseConfig {
    /// Feature catalog applied per metric (default: the 134-feature set).
    pub catalog: FeatureCatalog,
    pub linkage: Linkage,
    /// Upper bound of the silhouette sweep.
    pub k_max: usize,
    /// Fall back to one cluster below this silhouette.
    pub min_silhouette: f64,
    /// Sample rate handed to spectral features.
    pub sample_rate: f64,
    /// Override the silhouette selection with a fixed k (Fig. 6(b)).
    pub force_k: Option<usize>,
    /// Online matching probe length in steps (§3.5: ~1 hour of
    /// post-transition data). The matching library is built from the
    /// first `probe_len` steps of each training segment so probe and
    /// library features are length-comparable. `None` = full segments.
    pub probe_len: Option<usize>,
}

impl Default for CoarseConfig {
    fn default() -> Self {
        Self {
            catalog: FeatureCatalog::standard(),
            linkage: Linkage::Ward,
            k_max: 12,
            min_silhouette: 0.05,
            sample_rate: 1.0 / 30.0,
            force_k: None,
            probe_len: None,
        }
    }
}

/// The fitted cluster library: feature-space scaler, centroids, and the
/// matching threshold used online to decide "known pattern vs new".
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterModel {
    pub feat_mean: Vec<f64>,
    pub feat_std: Vec<f64>,
    /// Cluster centroids in standardized (full-segment) feature space.
    pub centroids: Vec<Vec<f64>>,
    /// Training-segment labels (aligned with the fit input order).
    pub labels: Vec<usize>,
    /// Distances of each training segment to its centroid.
    pub member_distances: Vec<f64>,
    /// Silhouette at the chosen k (0 when k = 1 or forced).
    pub silhouette: f64,
    /// Probe-space scaler + centroids: the online matching library is
    /// built from the first `probe_len` steps of each training segment so
    /// that short post-transition probes are length-comparable (§3.5).
    pub probe_feat_mean: Vec<f64>,
    pub probe_feat_std: Vec<f64>,
    /// One contiguous `k × dim` row-major matrix (row `c` = centroid `c`)
    /// so the online nearest-centroid scan walks a single allocation
    /// instead of chasing per-row heap pointers.
    pub probe_centroids: Matrix,
    /// Matching radius in probe space: beyond this is "unmatched pattern".
    pub match_radius: f64,
}

impl ClusterModel {
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Standardize a raw full-segment feature vector.
    pub fn standardize(&self, feat: &[f64]) -> Vec<f64> {
        feat.iter()
            .zip(self.feat_mean.iter().zip(&self.feat_std))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }

    /// Standardize a raw probe feature vector.
    pub fn standardize_probe(&self, feat: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.standardize_probe_into(feat, &mut out);
        out
    }

    /// Allocation-free [`ClusterModel::standardize_probe`]: writes the
    /// standardized vector into `out`, reusing its capacity. Steady-state
    /// streaming callers pass the same scratch every call and never touch
    /// the heap.
    pub fn standardize_probe_into(&self, feat: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            feat.iter()
                .zip(self.probe_feat_mean.iter().zip(&self.probe_feat_std))
                .map(|(&v, (&m, &s))| (v - m) / s),
        );
    }

    /// Nearest probe-space centroid and its distance (online matching).
    pub fn match_pattern(&self, raw_probe_feat: &[f64]) -> (usize, f64) {
        let mut scratch = Vec::new();
        self.match_pattern_into(raw_probe_feat, &mut scratch)
    }

    /// Allocation-free [`ClusterModel::match_pattern`]: standardizes into
    /// `scratch` and scans the contiguous centroid matrix with the
    /// early-abandon [`ns_linalg::distance::nearest_row`] kernel, which is
    /// bit-identical to the full per-centroid `euclidean` scan (argmin,
    /// ties and returned distance included).
    pub fn match_pattern_into(
        &self,
        raw_probe_feat: &[f64],
        scratch: &mut Vec<f64>,
    ) -> (usize, f64) {
        self.standardize_probe_into(raw_probe_feat, scratch);
        ns_linalg::distance::nearest_row(&self.probe_centroids, scratch)
    }

    /// Whether a distance constitutes a match (within the library radius).
    pub fn is_match(&self, distance: f64) -> bool {
        distance <= self.match_radius
    }

    /// Indices of the `k` member segments closest to centroid `c`
    /// (data-augmentation selection of §3.4).
    pub fn nearest_members(&self, c: usize, k: usize) -> Vec<usize> {
        let members = self.members_by_distance(c);
        members.into_iter().take(k).collect()
    }

    /// `k` member segments of cluster `c` stratified across the
    /// distance-to-centroid distribution (closest always included).
    /// Centroid-only selection under-covers large clusters: test
    /// segments are drawn from the whole spread, so the shared model
    /// must see the edges too.
    pub fn spread_members(&self, c: usize, k: usize) -> Vec<usize> {
        let members = self.members_by_distance(c);
        let n = members.len();
        if n <= k || k == 0 {
            return members;
        }
        (0..k)
            .map(|j| members[j * (n - 1) / (k - 1).max(1)])
            .collect()
    }

    fn members_by_distance(&self, c: usize) -> Vec<usize> {
        let mut members: Vec<(usize, f64)> = self
            .labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(i, _)| (i, self.member_distances[i]))
            .collect();
        members.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        members.into_iter().map(|(i, _)| i).collect()
    }

    /// Add a brand-new cluster centered at the given *raw probe* feature
    /// vector (online new-pattern path, §3.5). Returns the new cluster
    /// id. The full-segment centroid is seeded at the probe position so
    /// both libraries stay aligned.
    pub fn add_cluster(&mut self, raw_probe_feat: &[f64]) -> usize {
        let z = self.standardize_probe(raw_probe_feat);
        self.probe_centroids.push_row(&z);
        self.centroids.push(z);
        self.centroids.len() - 1
    }

    /// Shift a probe centroid toward a newly matched raw probe feature
    /// vector (incremental centroid refinement with learning rate
    /// `alpha`).
    pub fn refine_centroid(&mut self, cluster: usize, raw_probe_feat: &[f64], alpha: f64) {
        let z = self.standardize_probe(raw_probe_feat);
        let cen = self.probe_centroids.row_mut(cluster);
        for (c, v) in cen.iter_mut().zip(z) {
            *c += alpha * (v - *c);
        }
    }
}

/// Extract the fixed-width feature vector of one segment.
pub fn segment_features(cfg: &CoarseConfig, seg: &Matrix) -> Vec<f64> {
    cfg.catalog.extract_mts(seg, cfg.sample_rate)
}

/// Fit the coarse clustering over training segments.
///
/// Returns the cluster model plus the per-segment feature matrix (reused
/// by the fine-grained stage for nearest-member selection).
pub fn fit(cfg: &CoarseConfig, segments: &[Segment]) -> (ClusterModel, Vec<Vec<f64>>) {
    assert!(!segments.is_empty(), "cannot cluster zero segments");
    // 1. Features (parallel over segments). The span wraps the parallel
    // region from the calling thread, so it nests under `fit/coarse`.
    let feat_span = ns_obs::trace::span("features");
    let feats: Vec<Vec<f64>> = segments
        .par_iter()
        .map(|s| segment_features(cfg, &s.data))
        .collect();
    drop(feat_span);
    let dim = feats[0].len();
    // 2. Feature standardization across the segment population.
    let mut feat_mean = vec![0.0; dim];
    let mut feat_std = vec![0.0; dim];
    for j in 0..dim {
        let col: Vec<f64> = feats.iter().map(|f| f[j]).collect();
        let (m, s) = (stats::mean(&col), stats::std_dev(&col));
        feat_mean[j] = m;
        feat_std[j] = if s < 1e-12 { 1.0 } else { s };
    }
    let zfeats: Vec<Vec<f64>> = feats
        .iter()
        .map(|f| {
            f.iter()
                .zip(feat_mean.iter().zip(&feat_std))
                .map(|(&v, (&m, &s))| (v - m) / s)
                .collect()
        })
        .collect();
    // 3. HAC + silhouette-selected k.
    let linkage_span = ns_obs::trace::span("linkage");
    let n = zfeats.len();
    let dist = CondensedDistance::compute(n, |i, j| vecops::euclidean(&zfeats[i], &zfeats[j]));
    let dendrogram = linkage_from_distance(&dist, cfg.linkage);
    let (labels, silhouette) = match cfg.force_k {
        Some(k) => {
            let k = k.clamp(1, n);
            let labels = dendrogram.cut_k(k);
            let s = if k >= 2 {
                ns_cluster::silhouette_score(&dist, &labels)
            } else {
                0.0
            };
            (labels, s)
        }
        None => {
            let sel = select_k(&dist, &dendrogram, cfg.k_max, cfg.min_silhouette);
            (sel.labels, sel.score)
        }
    };
    // 4. Centroids + member distances + matching radius.
    let k = labels.iter().max().map(|m| m + 1).unwrap_or(1);
    let mut centroids = vec![vec![0.0; dim]; k];
    let mut counts = vec![0usize; k];
    for (f, &l) in zfeats.iter().zip(&labels) {
        counts[l] += 1;
        for (c, v) in centroids[l].iter_mut().zip(f) {
            *c += v;
        }
    }
    for (cen, &cnt) in centroids.iter_mut().zip(&counts) {
        for v in cen.iter_mut() {
            *v /= cnt.max(1) as f64;
        }
    }
    let member_distances: Vec<f64> = zfeats
        .iter()
        .zip(&labels)
        .map(|(f, &l)| vecops::euclidean(f, &centroids[l]))
        .collect();
    drop(linkage_span);

    // 5. Probe-space matching library: features of the first `probe_len`
    // steps of each segment, standardized and averaged per cluster.
    let probe_span = ns_obs::trace::span("probe_library");
    let probe_feats: Vec<Vec<f64>> = match cfg.probe_len {
        Some(p) => segments
            .par_iter()
            .map(|s| {
                let take = p.clamp(1, s.data.rows());
                segment_features(cfg, &s.data.slice_rows(0, take))
            })
            .collect(),
        None => feats.clone(),
    };
    let mut probe_feat_mean = vec![0.0; dim];
    let mut probe_feat_std = vec![0.0; dim];
    for j in 0..dim {
        let col: Vec<f64> = probe_feats.iter().map(|f| f[j]).collect();
        let (m, s) = (stats::mean(&col), stats::std_dev(&col));
        probe_feat_mean[j] = m;
        probe_feat_std[j] = if s < 1e-12 { 1.0 } else { s };
    }
    let probe_z: Vec<Vec<f64>> = probe_feats
        .iter()
        .map(|f| {
            f.iter()
                .zip(probe_feat_mean.iter().zip(&probe_feat_std))
                .map(|(&v, (&m, &s))| (v - m) / s)
                .collect()
        })
        .collect();
    let mut probe_centroids = vec![vec![0.0; dim]; k];
    {
        let mut pcounts = vec![0usize; k];
        for (f, &l) in probe_z.iter().zip(&labels) {
            pcounts[l] += 1;
            for (c, v) in probe_centroids[l].iter_mut().zip(f) {
                *c += v;
            }
        }
        for (cen, &cnt) in probe_centroids.iter_mut().zip(&pcounts) {
            for v in cen.iter_mut() {
                *v /= cnt.max(1) as f64;
            }
        }
    }
    // Contiguous row-major centroid library for the online matcher.
    let probe_centroids = Matrix::from_rows(&probe_centroids);
    // Matching radius: generous envelope of probe-space member distances.
    let radius = {
        let mut d: Vec<f64> = probe_z
            .iter()
            .zip(&labels)
            .map(|(f, &l)| vecops::euclidean(f, probe_centroids.row(l)))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let p95 = stats::quantile_sorted(&d, 0.95);
        (p95 * 2.0).max(1e-3)
    };
    drop(probe_span);
    let model = ClusterModel {
        feat_mean,
        feat_std,
        centroids,
        labels,
        member_distances,
        silhouette,
        probe_feat_mean,
        probe_feat_std,
        probe_centroids,
        match_radius: radius,
    };
    (model, feats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Segment;

    /// Segments of two obviously different shapes.
    fn two_family_segments() -> Vec<Segment> {
        let mut segs = Vec::new();
        for i in 0..6 {
            // Family A: smooth sine, varying length.
            let t = 60 + i * 7;
            let data = Matrix::from_fn(t, 3, |r, c| {
                ((r as f64) * 0.2 + c as f64).sin() + 0.01 * i as f64
            });
            segs.push(Segment {
                node: 0,
                start: 0,
                end: t,
                data,
            });
        }
        for i in 0..6 {
            // Family B: high-frequency sawtooth with trend.
            let t = 50 + i * 9;
            let data = Matrix::from_fn(t, 3, |r, c| {
                ((r % 4) as f64) * 1.5 - 2.0 + 0.03 * r as f64 + c as f64 * 0.2 + 0.01 * i as f64
            });
            segs.push(Segment {
                node: 1,
                start: 0,
                end: t,
                data,
            });
        }
        segs
    }

    fn fast_cfg() -> CoarseConfig {
        CoarseConfig {
            catalog: FeatureCatalog::compact(),
            ..Default::default()
        }
    }

    #[test]
    fn separates_two_pattern_families_despite_length_variation() {
        let segs = two_family_segments();
        let (model, feats) = fit(&fast_cfg(), &segs);
        assert_eq!(model.k(), 2, "silhouette sweep: {:?}", model.silhouette);
        assert!(model.silhouette > 0.3);
        // All of family A shares a label; same for B; labels differ.
        let a = model.labels[0];
        assert!(model.labels[..6].iter().all(|&l| l == a));
        assert!(model.labels[6..].iter().all(|&l| l != a));
        assert_eq!(feats.len(), 12);
        assert_eq!(feats[0].len(), FeatureCatalog::compact().len() * 3);
    }

    #[test]
    fn matching_sends_new_segments_to_their_family() {
        let segs = two_family_segments();
        let cfg = fast_cfg();
        let (model, _) = fit(&cfg, &segs);
        // A fresh family-A-like segment.
        let probe = Matrix::from_fn(77, 3, |r, c| ((r as f64) * 0.2 + c as f64).sin());
        let f = segment_features(&cfg, &probe);
        let (cluster, dist) = model.match_pattern(&f);
        assert_eq!(cluster, model.labels[0]);
        assert!(
            model.is_match(dist),
            "distance {dist} vs radius {}",
            model.match_radius
        );
    }

    #[test]
    fn alien_pattern_is_unmatched() {
        let segs = two_family_segments();
        let cfg = fast_cfg();
        let (model, _) = fit(&cfg, &segs);
        // A wild constant-spike pattern unlike either family.
        let probe = Matrix::from_fn(60, 3, |r, _| if r % 10 == 0 { 500.0 } else { -300.0 });
        let f = segment_features(&cfg, &probe);
        let (_, dist) = model.match_pattern(&f);
        assert!(!model.is_match(dist), "alien matched at distance {dist}");
    }

    #[test]
    fn force_k_overrides_selection() {
        let segs = two_family_segments();
        let cfg = CoarseConfig {
            force_k: Some(4),
            ..fast_cfg()
        };
        let (model, _) = fit(&cfg, &segs);
        assert_eq!(model.k(), 4);
    }

    #[test]
    fn nearest_members_returns_closest_first() {
        let segs = two_family_segments();
        let (model, _) = fit(&fast_cfg(), &segs);
        let members = model.nearest_members(model.labels[0], 3);
        assert_eq!(members.len(), 3);
        for w in members.windows(2) {
            assert!(model.member_distances[w[0]] <= model.member_distances[w[1]]);
        }
        // All returned members belong to the requested cluster.
        assert!(members.iter().all(|&i| model.labels[i] == model.labels[0]));
    }

    #[test]
    fn add_and_refine_cluster() {
        let segs = two_family_segments();
        let cfg = fast_cfg();
        let (mut model, _) = fit(&cfg, &segs);
        let probe = Matrix::from_fn(60, 3, |r, _| if r % 10 == 0 { 500.0 } else { -300.0 });
        let f = segment_features(&cfg, &probe);
        let k0 = model.k();
        let new_id = model.add_cluster(&f);
        assert_eq!(new_id, k0);
        let (c, d) = model.match_pattern(&f);
        assert_eq!(c, new_id);
        assert!(d < 1e-9, "own centroid distance {d}");
        // Refining toward a different vector moves the probe centroid.
        let before = model.probe_centroids.row(new_id).to_vec();
        let other = segment_features(&cfg, &segs[0].data);
        model.refine_centroid(new_id, &other, 0.5);
        assert_ne!(&before[..], model.probe_centroids.row(new_id));
    }

    #[test]
    fn single_segment_degenerates_to_one_cluster() {
        let seg = vec![Segment {
            node: 0,
            start: 0,
            end: 30,
            data: Matrix::from_fn(30, 2, |r, _| r as f64),
        }];
        let (model, _) = fit(&fast_cfg(), &seg);
        assert_eq!(model.k(), 1);
        assert_eq!(model.labels, vec![0]);
    }
}
