//! Coarse-grained clustering (paper §3.3): variable-length segments →
//! fixed-width feature vectors (TSFEL-style catalog) → HAC under
//! Euclidean distance → silhouette-selected cluster count → centroid
//! library for online pattern matching.
//!
//! Two feature spaces take part in a fit. HAC groups the whole segments'
//! features; that space lives only inside [`fit`]. The library it leaves
//! behind is built in *probe* space — the features of each segment's
//! first `probe_len` steps — because that is all the online phase sees
//! of a new job before it must pick a model (§3.5).

use crate::preprocess::Segment;
use ns_cluster::{linkage_from_distance, select_k, Linkage};
use ns_features::FeatureCatalog;
use ns_linalg::distance::CondensedDistance;
use ns_linalg::matrix::Matrix;
use ns_linalg::{stats, vecops};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Sample rate, in Hz, handed to the spectral features: every dataset
/// profile samples its telemetry every 30 s.
pub const SAMPLE_RATE_HZ: f64 = 1.0 / 30.0;

/// HAC linkage over the full-segment features.
const LINKAGE: Linkage = Linkage::Ward;

/// The silhouette sweep falls back to one cluster below this score.
const MIN_SILHOUETTE: f64 = 0.05;

/// Configuration for the coarse stage.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoarseConfig {
    /// Feature catalog applied per metric (default: the 134-feature set).
    pub catalog: FeatureCatalog,
    /// Upper bound of the silhouette sweep.
    pub k_max: usize,
    /// Override the silhouette selection with a fixed k (Fig. 6(b)).
    pub force_k: Option<usize>,
}

impl Default for CoarseConfig {
    fn default() -> Self {
        Self {
            catalog: FeatureCatalog::standard(),
            k_max: 12,
            force_k: None,
        }
    }
}

/// The fitted cluster library, in probe space only: the probe scaler,
/// one centroid per cluster, and the matching radius used online to
/// decide "known pattern vs new". The full-segment space HAC grouped in
/// is not kept — nothing online reads it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterModel {
    /// Training-segment labels (aligned with the fit input order).
    pub labels: Vec<usize>,
    /// Distances of each training segment to its centroid in the
    /// full-segment space.
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
        self.probe_centroids.rows()
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
    /// `scratch` while scanning the contiguous centroid matrix several rows
    /// at a time ([`ns_linalg::distance::nearest_row_standardized`]), which
    /// is bit-identical to standardizing and then running the full
    /// per-centroid `euclidean` scan (argmin, ties and returned distance
    /// included).
    pub fn match_pattern_into(
        &self,
        raw_probe_feat: &[f64],
        scratch: &mut Vec<f64>,
    ) -> (usize, f64) {
        ns_linalg::distance::nearest_row_standardized(
            &self.probe_centroids,
            raw_probe_feat,
            &self.probe_feat_mean,
            &self.probe_feat_std,
            scratch,
        )
    }

    /// Whether a distance constitutes a match (within the library radius).
    pub fn is_match(&self, distance: f64) -> bool {
        distance <= self.match_radius
    }

    /// `k` member segments of cluster `c` stratified across the
    /// distance-to-centroid distribution (closest always included; the
    /// data-augmentation selection of §3.4). Centroid-only selection
    /// under-covers large clusters: test segments are drawn from the
    /// whole spread, so the shared model must see the edges too.
    pub fn spread_members(&self, c: usize, k: usize) -> Vec<usize> {
        let mut members: Vec<(usize, f64)> = self
            .labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(i, _)| (i, self.member_distances[i]))
            .collect();
        members.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let members: Vec<usize> = members.into_iter().map(|(i, _)| i).collect();
        let n = members.len();
        if n <= k || k == 0 {
            return members;
        }
        (0..k)
            .map(|j| members[j * (n - 1) / (k - 1).max(1)])
            .collect()
    }

    /// Add a brand-new cluster centered at the given *raw probe* feature
    /// vector (online new-pattern path, §3.5). Returns the new cluster
    /// id.
    pub fn add_cluster(&mut self, raw_probe_feat: &[f64]) -> usize {
        let z = self.standardize_probe(raw_probe_feat);
        self.probe_centroids.push_row(&z);
        self.k() - 1
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
    cfg.catalog.extract_mts(seg, SAMPLE_RATE_HZ)
}

/// One feature space of the library (§3.3): the per-column z-score
/// scaler fitted over the training segments, and their standardized
/// feature rows.
struct Space {
    mean: Vec<f64>,
    std: Vec<f64>,
    z: Vec<Vec<f64>>,
}

impl Space {
    /// Fit the scaler (a column whose std is below 1e-12 is scaled by 1)
    /// and standardize every row with it.
    fn fit(feats: &[Vec<f64>]) -> Self {
        let dim = feats[0].len();
        let mut mean = vec![0.0; dim];
        let mut std = vec![0.0; dim];
        for j in 0..dim {
            let col: Vec<f64> = feats.iter().map(|f| f[j]).collect();
            let s = stats::std_dev(&col);
            mean[j] = stats::mean(&col);
            std[j] = if s < 1e-12 { 1.0 } else { s };
        }
        let z = feats
            .iter()
            .map(|f| {
                f.iter()
                    .zip(mean.iter().zip(&std))
                    .map(|(&v, (&m, &s))| (v - m) / s)
                    .collect()
            })
            .collect();
        Space { mean, std, z }
    }

    /// Each of the `k` clusters' centroid and each row's distance to its
    /// own cluster's centroid.
    fn group(&self, labels: &[usize], k: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let centroids = ns_cluster::centroids(&self.z, labels, k);
        let distances = self
            .z
            .iter()
            .zip(labels)
            .map(|(f, &l)| vecops::euclidean(f, &centroids[l]))
            .collect();
        (centroids, distances)
    }
}

/// Fit the coarse clustering over training segments.
///
/// The online matching library is built from the first `probe_len` steps
/// of each segment (all of a shorter one), so that it is
/// length-comparable with the post-transition probes it is matched
/// against (§3.5; the detector passes its `match_period`).
///
/// `random_groups: Some(seed)` is the C2 ablation (§4.4): HAC still picks
/// k, the silhouette and the matching radius, but the segments are dealt
/// to k groups by a seeded shuffle, and the centroids and member
/// distances are those of the random groups.
pub fn fit(
    cfg: &CoarseConfig,
    segments: &[Segment],
    probe_len: usize,
    random_groups: Option<u64>,
) -> ClusterModel {
    assert!(!segments.is_empty(), "cannot cluster zero segments");
    // 1. Features (parallel over segments), standardized across the
    // segment population. The span wraps the parallel region from the
    // calling thread, so it nests under `fit/coarse`.
    let feat_span = ns_obs::trace::span("features");
    let feats: Vec<Vec<f64>> = segments
        .par_iter()
        .map(|s| segment_features(cfg, &s.data))
        .collect();
    drop(feat_span);
    let full = Space::fit(&feats);
    // 2. HAC + silhouette-selected k.
    let linkage_span = ns_obs::trace::span("linkage");
    let zfeats = &full.z;
    let n = zfeats.len();
    let dist = CondensedDistance::compute(n, |i, j| vecops::euclidean(&zfeats[i], &zfeats[j]));
    let dendrogram = linkage_from_distance(&dist, LINKAGE);
    let (hac_labels, silhouette) = match cfg.force_k {
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
            let sel = select_k(&dist, &dendrogram, cfg.k_max, MIN_SILHOUETTE);
            (sel.labels, sel.score)
        }
    };
    // 3. Member distances, under HAC's grouping or C2's random one (a
    // shuffled deck, so every group keeps members).
    let k = hac_labels.iter().max().map_or(1, |m| m + 1);
    let random_labels = random_groups.map(|seed| {
        let mut labels: Vec<usize> = (0..n).map(|i| i % k).collect();
        labels.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0xC2));
        labels
    });
    let labels = random_labels.as_ref().unwrap_or(&hac_labels);
    let (_, member_distances) = full.group(labels, k);
    drop(linkage_span);

    // 4. Probe-space matching library: features of the first `probe_len`
    // steps of each segment, standardized and averaged per cluster.
    let probe_span = ns_obs::trace::span("probe_library");
    let probe_feats: Vec<Vec<f64>> = segments
        .par_iter()
        .map(|s| {
            let take = probe_len.clamp(1, s.data.rows());
            segment_features(cfg, &s.data.slice_rows(0, take))
        })
        .collect();
    let probe = Space::fit(&probe_feats);
    // Matching radius: generous envelope of probe-space member distances
    // under HAC's grouping.
    let (mut probe_centroids, mut d) = probe.group(&hac_labels, k);
    d.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let match_radius = (stats::quantile_sorted(&d, 0.95) * 2.0).max(1e-3);
    if let Some(labels) = &random_labels {
        probe_centroids = probe.group(labels, k).0;
    }
    drop(probe_span);
    ClusterModel {
        labels: random_labels.unwrap_or(hac_labels),
        member_distances,
        silhouette,
        probe_feat_mean: probe.mean,
        probe_feat_std: probe.std,
        // Contiguous row-major centroid library for the online matcher.
        probe_centroids: Matrix::from_rows(&probe_centroids),
        match_radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Segment;

    /// A probe length past every segment's: the matching library is built
    /// from whole segments.
    const WHOLE: usize = usize::MAX;

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
        let model = fit(&fast_cfg(), &segs, WHOLE, None);
        assert_eq!(model.k(), 2, "silhouette sweep: {:?}", model.silhouette);
        assert!(model.silhouette > 0.3);
        // All of family A shares a label; same for B; labels differ.
        let a = model.labels[0];
        assert!(model.labels[..6].iter().all(|&l| l == a));
        assert!(model.labels[6..].iter().all(|&l| l != a));
        assert_eq!(model.labels.len(), 12);
        assert_eq!(
            model.probe_feat_mean.len(),
            FeatureCatalog::compact().len() * 3
        );
    }

    /// The library keeps probe space only: the labels, member distances
    /// and silhouette the fit reports, and what online matching reads.
    #[test]
    fn cluster_model_json_keys_are_pinned() {
        let model = fit(&fast_cfg(), &two_family_segments(), WHOLE, None);
        let keys: Vec<String> = match model.to_value() {
            serde::Value::Object(fields) => fields.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(
            keys,
            [
                "labels",
                "member_distances",
                "silhouette",
                "probe_feat_mean",
                "probe_feat_std",
                "probe_centroids",
                "match_radius"
            ]
        );
    }

    #[test]
    fn matching_sends_new_segments_to_their_family() {
        let segs = two_family_segments();
        let cfg = fast_cfg();
        let model = fit(&cfg, &segs, WHOLE, None);
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
        let model = fit(&cfg, &segs, WHOLE, None);
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
        let model = fit(&cfg, &segs, WHOLE, None);
        assert_eq!(model.k(), 4);
    }

    #[test]
    fn add_and_refine_cluster() {
        let segs = two_family_segments();
        let cfg = fast_cfg();
        let mut model = fit(&cfg, &segs, WHOLE, None);
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
        let model = fit(&fast_cfg(), &seg, WHOLE, None);
        assert_eq!(model.k(), 1);
        assert_eq!(model.labels, vec![0]);
    }
}
