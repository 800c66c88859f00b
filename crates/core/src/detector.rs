//! The NodeSentry detector: offline training (preprocess → coarse
//! clustering → per-cluster shared models) and online detection (pattern
//! matching → reconstruction scoring → dynamic k-sigma thresholding),
//! plus the incremental-update path and the C1–C5 ablation variants.

use crate::coarse::{self, ClusterModel, CoarseConfig};
use crate::preprocess::{segment_at_transitions, segment_equal_length, Preprocessor, Segment};
use crate::sharing::{train_cluster_model, SharedModel, SharingConfig};
use ns_eval::threshold::{ksigma_detect, smooth_scores, KSigmaConfig};
use ns_linalg::matrix::Matrix;
use serde::{Deserialize, Serialize, Sink};

/// Ablation variants (paper §4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// The full NodeSentry pipeline.
    Full,
    /// C1: no coarse clustering — one model for everything.
    C1SingleModel,
    /// C2: random segment groups instead of clusters (same model count).
    C2RandomGroups,
    /// C3: equal-length chopping instead of job-based segmentation.
    C3EqualLength,
    /// C4: no between-segment differentiation in the positional encoding.
    C4NoSegmentPe,
    /// C5: dense FFN instead of the sparse MoE layer.
    C5DenseFfn,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::Full => "NodeSentry",
            Variant::C1SingleModel => "C1",
            Variant::C2RandomGroups => "C2",
            Variant::C3EqualLength => "C3",
            Variant::C4NoSegmentPe => "C4",
            Variant::C5DenseFfn => "C5",
        }
    }
}

/// Full configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeSentryConfig {
    pub coarse: CoarseConfig,
    pub sharing: SharingConfig,
    pub variant: Variant,
    /// Minimum segment length kept by job-based segmentation.
    pub min_segment_len: usize,
    /// Post-transition steps used for online pattern matching (the
    /// "period" of Fig. 6(e); 1 hour at 30 s sampling = 120 steps).
    pub match_period: usize,
    /// Dynamic threshold configuration (window = Fig. 6(f)).
    pub threshold: KSigmaConfig,
    /// Moving-average smoothing (points) applied to scores before the
    /// threshold; real anomalies persist across sampling points.
    pub smooth_window: usize,
    pub seed: u64,
}

impl Default for NodeSentryConfig {
    fn default() -> Self {
        Self {
            coarse: CoarseConfig::default(),
            sharing: SharingConfig::default(),
            variant: Variant::Full,
            min_segment_len: 8,
            match_period: 120,
            threshold: KSigmaConfig::default(),
            smooth_window: 5,
            seed: 17,
        }
    }
}

impl NodeSentryConfig {
    /// Apply a variant's modifications to the base config.
    pub fn with_variant(mut self, v: Variant) -> Self {
        self.variant = v;
        match v {
            Variant::Full => {}
            Variant::C1SingleModel => self.coarse.force_k = Some(1),
            Variant::C2RandomGroups => {}
            Variant::C3EqualLength => {}
            Variant::C4NoSegmentPe => self.sharing.segment_aware_pe = false,
            Variant::C5DenseFfn => self.sharing.dense_ffn = true,
        }
        self
    }

    /// The operating point (§3.5): a node's test-span scores smoothed over
    /// `smooth_window` points, then flagged by the sliding k-sigma
    /// `threshold`. Returns `(smoothed, flags)`. Every batch verdict —
    /// [`NodeSentry::detect_node`], the experiment harness, for
    /// NodeSentry and the baselines alike — is decided here.
    pub fn flag_scores(&self, scores: &[f64]) -> (Vec<f64>, Vec<bool>) {
        let smoothed = smooth_scores(scores, self.smooth_window);
        let flags = ksigma_detect(&smoothed, &self.threshold);
        (smoothed, flags)
    }
}

/// Per-node training input: the raw metric matrix over the full horizon
/// and the job transition steps (from the scheduler's sacct records).
pub struct NodeInput {
    pub raw: Matrix,
    pub transitions: Vec<usize>,
}

/// Streaming access to per-node raw telemetry. Wide clusters cannot hold
/// every node's raw matrix in memory at once (D1: 3,014 metrics per
/// node), so training pulls nodes through this interface one at a time.
pub trait NodeSource {
    fn n_nodes(&self) -> usize;
    /// Raw `T × M` matrix for one node over the full horizon.
    fn raw(&self, node: usize) -> Matrix;
    /// Job-transition steps for one node.
    fn transitions(&self, node: usize) -> Vec<usize>;
}

impl NodeSource for [NodeInput] {
    fn n_nodes(&self) -> usize {
        self.len()
    }

    fn raw(&self, node: usize) -> Matrix {
        self[node].raw.clone()
    }

    fn transitions(&self, node: usize) -> Vec<usize> {
        self[node].transitions.clone()
    }
}

/// How many nodes — the first ones — the preprocessor statistics are
/// fitted on (bounds memory on wide clusters; see [`fit_preprocessor`]).
pub const FIT_SAMPLE_NODES: usize = 4;

/// The preprocessing every method is compared on (§3.2; the baselines of
/// §4 consume its output too): statistics fitted on the training rows
/// `[0, split)` of the first [`FIT_SAMPLE_NODES`] nodes (all of them when
/// there are fewer), stacked, with Pearson pruning at 0.99 and 5 % outlier
/// trimming.
pub fn fit_preprocessor<S: NodeSource + ?Sized>(
    nodes: &S,
    groups: &[usize],
    split: usize,
) -> Preprocessor {
    let sample: Vec<Matrix> = (0..FIT_SAMPLE_NODES.min(nodes.n_nodes()))
        .map(|i| {
            let raw = nodes.raw(i);
            raw.slice_rows(0, split.min(raw.rows()))
        })
        .collect();
    let stacked = Matrix::vstack(&sample.iter().collect::<Vec<_>>());
    drop(sample);
    Preprocessor::fit(&stacked, groups, 0.99, 0.05)
}

/// Outcome of matching one segment's probe against the cluster library
/// ([`NodeSentry::match_probe`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ProbeMatch {
    /// Nearest library cluster.
    pub cluster: usize,
    /// Probe-space distance to that cluster's centroid — how close the
    /// match was ([`ClusterModel::is_match`] holds it to the radius).
    pub distance: f64,
    /// The probe's raw feature vector, which an incremental update
    /// refines or extends the library with.
    pub features: Vec<f64>,
}

/// The trained detector.
#[derive(Serialize, Deserialize)]
pub struct NodeSentry {
    pub cfg: NodeSentryConfig,
    pub preprocessor: Preprocessor,
    pub cluster_model: ClusterModel,
    pub shared_models: Vec<SharedModel>,
    /// Training segments retained for diagnostics / incremental updates.
    pub train_segments: Vec<Segment>,
}

impl NodeSentry {
    /// Offline training phase (§3.1): fit preprocessing on the training
    /// split, segment every node, cluster the segments, and train one
    /// shared model per cluster.
    ///
    /// `groups` are the semantic group ids per raw metric; `split` is the
    /// first test step (training uses `[0, split)`).
    pub fn fit(cfg: NodeSentryConfig, nodes: &[NodeInput], groups: &[usize], split: usize) -> Self {
        Self::fit_from_source(cfg, nodes, groups, split)
    }

    /// Streaming variant of [`NodeSentry::fit`]: raw node matrices are
    /// pulled one at a time, preprocessed, reduced to segments and
    /// dropped — the full raw tensor never exists in memory. Per-node
    /// preprocessing runs in parallel; segment order (and therefore the
    /// trained model) is independent of the thread count.
    pub fn fit_from_source<S: NodeSource + ?Sized + Sync>(
        cfg: NodeSentryConfig,
        nodes: &S,
        groups: &[usize],
        split: usize,
    ) -> Self {
        assert!(nodes.n_nodes() > 0, "need at least one node");
        ns_obs::span!("fit");
        // 1. Preprocessing statistics from a sample of nodes.
        let pre_span = ns_obs::trace::span("preprocess");
        let preprocessor = fit_preprocessor(nodes, groups, split);
        drop(pre_span);

        // 2. Preprocess + segment each node's training split, in
        // parallel across nodes. The per-node results are collected in
        // node order, so the flattened segment list — and everything
        // downstream of it — is identical at any thread count.
        let seg_span = ns_obs::trace::span("segment");
        let per_node: Vec<Vec<Segment>> = {
            use rayon::prelude::*;
            (0..nodes.n_nodes())
                .into_par_iter()
                .map(|node_id| {
                    let raw = nodes.raw(node_id);
                    let upto = split.min(raw.rows());
                    let train_raw = raw.slice_rows(0, upto);
                    drop(raw);
                    let processed = preprocessor.transform(&train_raw);
                    match cfg.variant {
                        Variant::C3EqualLength => {
                            segment_equal_length(node_id, &processed, cfg.sharing.window * 4)
                        }
                        _ => {
                            let transitions: Vec<usize> = nodes
                                .transitions(node_id)
                                .into_iter()
                                .filter(|&t| t < upto)
                                .collect();
                            segment_at_transitions(
                                node_id,
                                &processed,
                                &transitions,
                                cfg.min_segment_len,
                            )
                        }
                    }
                })
                .collect()
        };
        let train_segments: Vec<Segment> = per_node.into_iter().flatten().collect();
        assert!(!train_segments.is_empty(), "no usable training segments");
        drop(seg_span);

        // 3. Coarse clustering.
        let coarse_span = ns_obs::trace::span("coarse");
        let random_groups = (cfg.variant == Variant::C2RandomGroups).then_some(cfg.seed);
        let cluster_model = coarse::fit(
            &cfg.coarse,
            &train_segments,
            cfg.match_period,
            random_groups,
        );
        drop(coarse_span);

        // 4. One shared model per cluster (§3.4).
        let fine_span = ns_obs::trace::span("fine");
        // Clusters train concurrently: each owns its seeds, so the models
        // are the serial loop's bit for bit, collected in cluster order.
        // Within one cluster a batch is a dozen windows and every batch
        // ends in a serial merge + clip + Adam step, which left the other
        // workers idle a sixth of the fit; a worker that runs out of
        // clusters joins the others' window batches instead.
        let shared_models: Vec<SharedModel> = {
            use rayon::prelude::*;
            (0..cluster_model.k())
                .into_par_iter()
                .map(|c| train_cluster_model(&cfg.sharing, c, &cluster_model, &train_segments))
                .collect()
        };
        drop(fine_span);

        NodeSentry {
            cfg,
            preprocessor,
            cluster_model,
            shared_models,
            train_segments,
        }
    }

    /// Number of clusters / shared models.
    pub fn n_clusters(&self) -> usize {
        self.shared_models.len()
    }

    /// Online scoring of one node over `[split, horizon)` (§3.5): the
    /// node's test span is segmented at its transitions; each segment's
    /// first `match_period` steps are feature-matched against the cluster
    /// library and the winning shared model scores the whole segment.
    ///
    /// Returns `(scores, matched_cluster_per_segment)` where scores align
    /// with steps `split..raw.rows()`.
    pub fn score_node(
        &self,
        raw: &Matrix,
        transitions: &[usize],
        split: usize,
    ) -> (Vec<f64>, Vec<(usize, usize, usize)>) {
        let horizon = raw.rows();
        if split >= horizon {
            return (Vec::new(), Vec::new());
        }
        ns_obs::span!("score");
        let processed = {
            ns_obs::span!("preprocess");
            self.preprocessor.transform(raw)
        };
        let test = processed.slice_rows(split, horizon);
        let local_transitions: Vec<usize> = transitions
            .iter()
            .filter(|&&t| t > split && t < horizon)
            .map(|&t| t - split)
            .collect();
        let segs = segment_at_transitions(0, &test, &local_transitions, 1);
        let mut scores = vec![0.0f64; horizon - split];
        let mut matches = Vec::with_capacity(segs.len());
        let mut scratch = Vec::new();
        for seg in &segs {
            let cluster = {
                ns_obs::span!("match");
                let probe = seg.data.slice_rows(0, self.probe_len(seg.len()));
                self.match_probe(&probe, &mut scratch).cluster
            };
            let model_span = ns_obs::trace::span("model");
            let mut seg_scores =
                self.shared_models[self.model_index(cluster)].score_series(&seg.data);
            self.normalize_segment(&mut seg_scores);
            scores[seg.start..seg.end].copy_from_slice(&seg_scores);
            drop(model_span);
            matches.push((seg.start + split, seg.end + split, cluster));
        }
        (scores, matches)
    }

    /// Rows at the head of a `seg_len`-row segment that form its probe:
    /// the `match_period` steps after the job transition, or the whole
    /// segment when it is shorter (§3.5).
    pub fn probe_len(&self, seg_len: usize) -> usize {
        self.cfg.match_period.clamp(1, seg_len)
    }

    /// Pattern-match a segment from its probe — its first
    /// [`probe_len`](Self::probe_len) preprocessed rows — against the
    /// cluster library. `scratch` is the standardization buffer; a warm
    /// one keeps the scan off the heap.
    pub fn match_probe(&self, probe: &Matrix, scratch: &mut Vec<f64>) -> ProbeMatch {
        let features = coarse::segment_features(&self.cfg.coarse, probe);
        let (cluster, distance) = self.cluster_model.match_pattern_into(&features, scratch);
        ProbeMatch {
            cluster,
            distance,
            features,
        }
    }

    /// Index of the shared model that scores segments matched to
    /// `cluster`: its own, or the last one for a library cluster that has
    /// no model.
    pub fn model_index(&self, cluster: usize) -> usize {
        cluster.min(self.shared_models.len().saturating_sub(1))
    }

    /// Per-segment baseline normalization of a whole segment's scores: the
    /// probe period defines the segment's own "normal" reconstruction
    /// level (its median), so segments whose pattern generalizes less well
    /// don't drown genuinely anomalous stretches elsewhere. The floor of 1
    /// keeps well-reconstructed segments on the calibrated scale.
    pub fn normalize_segment(&self, scores: &mut [f64]) {
        let mut head = scores[..self.probe_len(scores.len())].to_vec();
        head.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let baseline = ns_linalg::stats::quantile_sorted(&head, 0.5).max(1.0);
        for v in scores.iter_mut() {
            *v /= baseline;
        }
    }

    /// Full online detection: scores at the config's operating point
    /// ([`NodeSentryConfig::flag_scores`]).
    pub fn detect_node(&self, raw: &Matrix, transitions: &[usize], split: usize) -> Vec<bool> {
        let (scores, _) = self.score_node(raw, transitions, split);
        self.cfg.flag_scores(&scores).1
    }

    /// Incremental update with a new (already preprocessed) segment
    /// (§3.5): matched patterns fine-tune the existing shared model and
    /// nudge its centroid; unmatched patterns spawn a new cluster and a
    /// freshly trained model.
    ///
    /// Returns `(cluster_id, was_new)`.
    pub fn incremental_update(
        &mut self,
        segment: &Matrix,
        fine_tune_epochs: usize,
    ) -> (usize, bool) {
        let probe = segment.slice_rows(0, self.probe_len(segment.rows()));
        let matched = self.match_probe(&probe, &mut Vec::new());
        let (cluster, feat) = (matched.cluster, matched.features);
        if self.cluster_model.is_match(matched.distance) {
            self.cluster_model.refine_centroid(cluster, &feat, 0.1);
            let refs = [segment];
            self.shared_models[cluster].fit_windows(&refs, fine_tune_epochs);
            (cluster, false)
        } else {
            let new_id = self.cluster_model.add_cluster(&feat);
            let refs = [segment];
            let mut cfg = self.cfg.sharing.clone();
            cfg.seed ^= (new_id as u64) << 12;
            self.shared_models.push(SharedModel::train(&cfg, &refs));
            (new_id, true)
        }
    }

    /// Preprocess a raw slice (public for examples / deployment loops).
    pub fn preprocess(&self, raw: &Matrix) -> Matrix {
        self.preprocessor.transform(raw)
    }

    /// Serialise the full trained detector (preprocessing statistics,
    /// cluster library, every shared model's weights) to JSON — the
    /// artifact's `model_dir` role. `include_segments: false` drops the
    /// retained training segments, which deployment does not need.
    pub fn to_json(&self, include_segments: bool) -> serde_json::Result<String> {
        if include_segments {
            serde_json::to_string(self)
        } else {
            let slim = NodeSentry {
                cfg: self.cfg.clone(),
                preprocessor: self.preprocessor.clone(),
                cluster_model: self.cluster_model.clone(),
                shared_models: Vec::new(),
                train_segments: Vec::new(),
            };
            // Serialise the models by reference to avoid cloning every
            // ParamStore.
            #[derive(serde::Serialize)]
            struct OnDisk<'a> {
                detector: &'a NodeSentry,
                models: &'a [SharedModel],
            }
            serde_json::to_string(&OnDisk {
                detector: &slim,
                models: &self.shared_models,
            })
        }
    }

    /// A stable 64-bit digest of the deployed model: configuration,
    /// preprocessing statistics, cluster library, and every shared
    /// model's weights — everything [`NodeSentry::to_json`]`(false)`
    /// writes (training segments excluded — deployment state does not
    /// depend on them). Engine snapshots embed this so a restore against
    /// a different model is rejected instead of silently producing
    /// non-equivalent verdicts.
    ///
    /// FNV-1a 64 over the events of each component's [`Serialize`] walk,
    /// hashed as they are emitted: a tag byte per value, floats by
    /// `f64::to_bits`, integers as little-endian bytes, length-prefixed
    /// strings and keys, array and object counts (the tagging of the
    /// engine snapshot codec, minus its packed float arrays: the hasher
    /// leaves `Sink::f64s` at its default, so a `Vec<f64>` is hashed
    /// value by value as it always was). Being derived from `Serialize`,
    /// a field added to any component is hashed without this function changing,
    /// and a field added to `NodeSentry` itself fails to compile here
    /// until it is placed. Floats are hashed by bit pattern, so `-0.0` and
    /// `+0.0` differ and one flipped mantissa bit changes the digest.
    ///
    /// Costs one pass over the weights and allocates nothing for them.
    /// Always a recompute from content, never cached here: the fields are
    /// `pub` and [`NodeSentry::incremental_update`] rewrites weights and
    /// centroids in place, so a digest stored in the model could go stale
    /// and a restore would then accept a snapshot taken against a
    /// different model. (The streaming engine memoises it per `Arc`
    /// allocation instead, where no `&mut` can reach the hashed value.)
    pub fn fingerprint(&self) -> u64 {
        let NodeSentry {
            cfg,
            preprocessor,
            cluster_model,
            shared_models,
            train_segments: _,
        } = self;
        let mut h = Fnv1a::new();
        cfg.emit(&mut h);
        preprocessor.emit(&mut h);
        cluster_model.emit(&mut h);
        h.bytes(&(shared_models.len() as u64).to_le_bytes());
        for model in shared_models {
            model.emit(&mut h);
        }
        h.0
    }

    /// Restore a detector saved by [`NodeSentry::to_json`].
    pub fn from_json(json: &str) -> serde_json::Result<NodeSentry> {
        // Try the slim envelope first, then the full layout.
        #[derive(serde::Deserialize)]
        struct OnDisk {
            detector: NodeSentry,
            models: Vec<SharedModel>,
        }
        if let Ok(d) = serde_json::from_str::<OnDisk>(json) {
            return Ok(NodeSentry {
                shared_models: d.models,
                ..d.detector
            });
        }
        serde_json::from_str(json)
    }
}

/// Streaming FNV-1a 64 (`ns_wire`'s chain, step by step) over the
/// tagged encoding of the events a [`Serialize`] walk emits — what
/// [`NodeSentry::fingerprint`] hashes instead of JSON text. Tags: 0 Null,
/// 1 Bool, 2 I64, 3 U64, 4 F64 (raw IEEE bits), 5 Str, 6 Array, 7 Object;
/// lengths and counts are u64 LE; keys are length-prefixed, untagged.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(ns_wire::FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0 = ns_wire::fnv1a64_from(self.0, bytes);
    }

    fn tagged(&mut self, tag: u8, word: u64) {
        self.bytes(&[tag]);
        self.bytes(&word.to_le_bytes());
    }
}

impl Sink for Fnv1a {
    fn null(&mut self) {
        self.bytes(&[0]);
    }
    fn bool(&mut self, v: bool) {
        self.bytes(&[1, v as u8]);
    }
    fn i64(&mut self, v: i64) {
        self.tagged(2, v as u64);
    }
    fn u64(&mut self, v: u64) {
        self.tagged(3, v);
    }
    fn f64(&mut self, v: f64) {
        self.tagged(4, v.to_bits());
    }
    fn str(&mut self, v: &str) {
        self.bytes(&[5]);
        self.key(v);
    }
    fn array(&mut self, len: usize) {
        self.tagged(6, len as u64);
    }
    fn object(&mut self, len: usize) {
        self.tagged(7, len as u64);
    }
    fn key(&mut self, k: &str) {
        self.bytes(&(k.len() as u64).to_le_bytes());
        self.bytes(k.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_features::FeatureCatalog;

    /// A tiny two-pattern synthetic cluster: nodes alternate between a
    /// smooth job and a sawtooth job; raw metrics are 3 correlated copies
    /// of 2 latent signals.
    fn synthetic_nodes(horizon: usize) -> (Vec<NodeInput>, Vec<usize>, usize) {
        let split = horizon * 6 / 10;
        let seg_len = 60usize;
        let nodes: Vec<NodeInput> = (0..3)
            .map(|node| {
                let raw = Matrix::from_fn(horizon, 6, |t, m| {
                    let seg = t / seg_len;
                    let latent = if (seg + node).is_multiple_of(2) {
                        ((t % seg_len) as f64 * 0.2).sin()
                    } else {
                        ((t % 7) as f64) * 0.4 - 1.0
                    };
                    let latent2 = if (seg + node).is_multiple_of(2) {
                        0.2
                    } else {
                        0.9
                    };
                    let base = if m < 3 { latent } else { latent2 };
                    base * (1.0 + m as f64 * 0.05) + m as f64 * 0.01
                });
                let transitions: Vec<usize> = (1..horizon / seg_len).map(|k| k * seg_len).collect();
                NodeInput { raw, transitions }
            })
            .collect();
        let groups = vec![0, 0, 0, 1, 1, 1];
        (nodes, groups, split)
    }

    fn quick_cfg() -> NodeSentryConfig {
        NodeSentryConfig {
            coarse: CoarseConfig {
                catalog: FeatureCatalog::compact(),
                k_max: 6,
                ..Default::default()
            },
            sharing: SharingConfig {
                window: 12,
                stride: 12,
                d_model: 12,
                n_heads: 2,
                n_layers: 1,
                hidden: 24,
                n_experts: 2,
                epochs: 8,
                lr: 3e-3,
                batch: 16,
                k_nearest: 4,
                ..Default::default()
            },
            match_period: 20,
            threshold: KSigmaConfig { window: 30, k: 3.0 },
            min_segment_len: 8,
            ..Default::default()
        }
    }

    fn keys(v: &serde::Value) -> Vec<&str> {
        match v {
            serde::Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    /// Every settable value of the configuration, nested configs
    /// included: 25 knobs that a caller varies, or a seed.
    #[test]
    fn config_json_keys_are_pinned() {
        let cfg = NodeSentryConfig::default().to_value();
        assert_eq!(
            keys(&cfg),
            [
                "coarse",
                "sharing",
                "variant",
                "min_segment_len",
                "match_period",
                "threshold",
                "smooth_window",
                "seed"
            ]
        );
        let field = |name: &str| cfg.get(name).expect(name);
        assert_eq!(keys(field("coarse")), ["catalog", "k_max", "force_k"]);
        assert_eq!(
            keys(field("sharing")),
            [
                "window",
                "stride",
                "d_model",
                "n_heads",
                "n_layers",
                "hidden",
                "n_experts",
                "top_k",
                "dense_ffn",
                "segment_aware_pe",
                "epochs",
                "lr",
                "batch",
                "k_nearest",
                "seed"
            ]
        );
        assert_eq!(keys(field("threshold")), ["window", "k"]);
    }

    #[test]
    fn fit_discovers_the_two_patterns() {
        let (nodes, groups, split) = synthetic_nodes(600);
        let ns = NodeSentry::fit(quick_cfg(), &nodes, &groups, split);
        assert_eq!(
            ns.n_clusters(),
            2,
            "silhouette={}",
            ns.cluster_model.silhouette
        );
        assert!(ns.preprocessor.out_dim() >= 1);
        assert!(!ns.train_segments.is_empty());
    }

    /// The fitted model carries exactly the caller's configuration: the
    /// probe length reaches the cluster library as an argument, not by
    /// rewriting the config.
    #[test]
    fn fit_from_source_keeps_the_callers_config() {
        let (nodes, groups, split) = synthetic_nodes(600);
        let want = serde_json::to_string(&quick_cfg()).unwrap();
        let ns = NodeSentry::fit_from_source(quick_cfg(), nodes.as_slice(), &groups, split);
        assert_eq!(serde_json::to_string(&ns.cfg).unwrap(), want);
    }

    #[test]
    fn detection_flags_injected_level_shift() {
        let (mut nodes, groups, split) = synthetic_nodes(600);
        let ns = NodeSentry::fit(quick_cfg(), &nodes, &groups, split);
        // Inject an anomaly into node 0's test span.
        let (a_start, a_end) = (split + 80, split + 110);
        for t in a_start..a_end {
            for m in 0..6 {
                nodes[0].raw[(t, m)] += 4.0;
            }
        }
        let (scores, matches) = ns.score_node(&nodes[0].raw, &nodes[0].transitions, split);
        assert_eq!(scores.len(), 600 - split);
        assert!(!matches.is_empty());
        let anom_mean: f64 =
            scores[a_start - split..a_end - split].iter().sum::<f64>() / (a_end - a_start) as f64;
        let norm_mean: f64 =
            scores[..a_start - split].iter().sum::<f64>() / (a_start - split) as f64;
        assert!(
            anom_mean > 3.0 * norm_mean,
            "anomaly {anom_mean} vs normal {norm_mean}"
        );
        let pred = ns.detect_node(&nodes[0].raw, &nodes[0].transitions, split);
        let hits = pred[a_start - split..a_end - split]
            .iter()
            .filter(|&&b| b)
            .count();
        assert!(hits > 0, "threshold missed the anomaly entirely");
    }

    #[test]
    fn variants_produce_expected_structure() {
        let (nodes, groups, split) = synthetic_nodes(600);
        let c1 = NodeSentry::fit(
            quick_cfg().with_variant(Variant::C1SingleModel),
            &nodes,
            &groups,
            split,
        );
        assert_eq!(c1.n_clusters(), 1);
        let c5 = NodeSentry::fit(
            quick_cfg().with_variant(Variant::C5DenseFfn),
            &nodes,
            &groups,
            split,
        );
        assert!(c5.shared_models[0].cfg.dense_ffn);
        let c4 = NodeSentry::fit(
            quick_cfg().with_variant(Variant::C4NoSegmentPe),
            &nodes,
            &groups,
            split,
        );
        assert!(!c4.shared_models[0].cfg.segment_aware_pe);
        let c3 = NodeSentry::fit(
            quick_cfg().with_variant(Variant::C3EqualLength),
            &nodes,
            &groups,
            split,
        );
        // Equal-length chopping: all training segments share one length.
        let lens: std::collections::BTreeSet<usize> =
            c3.train_segments.iter().map(|s| s.len()).collect();
        assert!(lens.len() <= 2, "C3 lengths {lens:?}");
    }

    #[test]
    fn c2_randomization_keeps_k_but_scrambles_labels() {
        let (nodes, groups, split) = synthetic_nodes(600);
        let full = NodeSentry::fit(quick_cfg(), &nodes, &groups, split);
        let c2 = NodeSentry::fit(
            quick_cfg().with_variant(Variant::C2RandomGroups),
            &nodes,
            &groups,
            split,
        );
        assert_eq!(full.n_clusters(), c2.n_clusters());
        assert_ne!(full.cluster_model.labels, c2.cluster_model.labels);
        // Every group stays populated.
        for c in 0..c2.n_clusters() {
            assert!(c2.cluster_model.labels.contains(&c));
        }
    }

    /// The cluster library's JSON, Full and C2, pinned by FNV-1a: the
    /// scaler, centroids, labels, member distances, silhouette and radius
    /// must not move a bit when the library's arithmetic is reorganised.
    /// Each pin equals the digest of the library's JSON from before the
    /// full-segment scaler and centroids were dropped, with their three
    /// keys cut out: dropping them moved no kept value.
    #[test]
    fn cluster_model_json_digest_is_pinned() {
        let (nodes, groups, split) = synthetic_nodes(600);
        for (variant, want) in [
            (Variant::Full, 0xf5a8_03e8_cf12_f2e5),
            (Variant::C2RandomGroups, 0x61d7_744d_8003_3d18),
        ] {
            let ns = NodeSentry::fit(quick_cfg().with_variant(variant), &nodes, &groups, split);
            let json = serde_json::to_string(&ns.cluster_model).unwrap();
            let mut h = Fnv1a::new();
            h.bytes(json.as_bytes());
            assert_eq!(h.0, want, "{variant:?}: {:016x}", h.0);
        }
    }

    #[test]
    fn incremental_update_matched_and_new() {
        let (nodes, groups, split) = synthetic_nodes(600);
        let mut ns = NodeSentry::fit(quick_cfg(), &nodes, &groups, split);
        let k0 = ns.n_clusters();
        // A segment resembling training data → matched, no new cluster.
        let known = ns.train_segments[0].data.clone();
        let (_, was_new) = ns.incremental_update(&known, 2);
        assert!(!was_new);
        assert_eq!(ns.n_clusters(), k0);
        // A wild new pattern → new cluster and model.
        let alien = Matrix::from_fn(60, ns.preprocessor.out_dim(), |t, _| {
            if t % 5 == 0 {
                5.0
            } else {
                -5.0
            }
        });
        let (cid, was_new) = ns.incremental_update(&alien, 2);
        assert!(was_new);
        assert_eq!(cid, k0);
        assert_eq!(ns.n_clusters(), k0 + 1);
    }

    #[test]
    fn save_load_roundtrip_preserves_behaviour() {
        let (nodes, groups, split) = synthetic_nodes(600);
        let ns = NodeSentry::fit(quick_cfg(), &nodes, &groups, split);
        let (scores_before, _) = ns.score_node(&nodes[0].raw, &nodes[0].transitions, split);
        // Slim save (no training segments) must restore identically for
        // scoring purposes.
        let json = ns.to_json(false).unwrap();
        let restored = NodeSentry::from_json(&json).unwrap();
        assert_eq!(restored.n_clusters(), ns.n_clusters());
        assert!(restored.train_segments.is_empty());
        let (scores_after, _) = restored.score_node(&nodes[0].raw, &nodes[0].transitions, split);
        assert_eq!(scores_before.len(), scores_after.len());
        for (a, b) in scores_before.iter().zip(&scores_after) {
            assert!((a - b).abs() < 1e-9, "scores diverged after reload");
        }
        // Full save retains segments.
        let json_full = ns.to_json(true).unwrap();
        let restored_full = NodeSentry::from_json(&json_full).unwrap();
        assert_eq!(restored_full.train_segments.len(), ns.train_segments.len());
    }

    #[test]
    fn online_segment_step_is_pinned() {
        let (nodes, groups, split) = synthetic_nodes(600);
        let ns = NodeSentry::fit(quick_cfg(), &nodes, &groups, split);
        // Probe length: the period, or the whole of a shorter segment.
        assert_eq!(ns.cfg.match_period, 20);
        let lens = [1, 7, 20, 21, 500].map(|len| ns.probe_len(len));
        assert_eq!(lens, [1, 7, 20, 20, 20]);
        // The match is the library's own, distance included, over the
        // probe's features — at every probe length and on a used scratch.
        let seg = &ns.train_segments[0].data;
        let mut scratch = vec![f64::NAN; 3];
        for len in [1, 7, 20] {
            let probe = seg.slice_rows(0, len);
            let m = ns.match_probe(&probe, &mut scratch);
            let feat = coarse::segment_features(&ns.cfg.coarse, &probe);
            let (cluster, distance) = ns.cluster_model.match_pattern(&feat);
            assert_eq!(
                (m.cluster, m.distance.to_bits()),
                (cluster, distance.to_bits())
            );
            let bits = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&m.features), bits(&feat), "probe of {len} rows");
        }
        // A library cluster without a model of its own takes the last.
        assert_eq!(ns.model_index(0), 0);
        assert_eq!(ns.model_index(usize::MAX), ns.n_clusters() - 1);
        // Normalization: divide by the probe's median, floored at 1.
        let mut short = vec![4.0, 2.0, 6.0];
        ns.normalize_segment(&mut short);
        assert_eq!(short, [1.0, 0.5, 1.5]);
        let mut quiet = vec![0.5, 0.25, 0.75];
        ns.normalize_segment(&mut quiet);
        assert_eq!(quiet, [0.5, 0.25, 0.75], "baseline floored at 1.0");
        let mut one = vec![3.0];
        ns.normalize_segment(&mut one);
        assert_eq!(one, [1.0]);
        // Past the period only the probe head sets the baseline.
        let mut long = [vec![2.0; 20], vec![100.0; 30]].concat();
        ns.normalize_segment(&mut long);
        assert_eq!(
            (long[0], long[19], long[20], long[49]),
            (1.0, 1.0, 50.0, 50.0)
        );
    }

    #[test]
    fn scoring_empty_test_window() {
        let (nodes, groups, split) = synthetic_nodes(600);
        let ns = NodeSentry::fit(quick_cfg(), &nodes, &groups, split);
        let (scores, matches) = ns.score_node(&nodes[0].raw, &nodes[0].transitions, 600);
        assert!(scores.is_empty());
        assert!(matches.is_empty());
    }
}
