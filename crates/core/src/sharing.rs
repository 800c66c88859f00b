//! Fine-grained model sharing (paper §3.4): one Transformer+MoE
//! reconstruction model per coarse cluster, trained on the K segments
//! nearest the centroid, with segment-aware positional encoding and a
//! MAC-weighted WMSE loss.

use crate::preprocess::Segment;
use ns_linalg::matrix::Matrix;
use ns_linalg::stats;
use ns_nn::layers::sinusoidal_pe_divisors;
use ns_nn::{
    sinusoidal_pe_at, windows, Adam, BlockKind, GradStore, Graph, ParamStore,
    ReconstructionTransformer, Session, Tape, Tier, TransformerConfig, WindowSpec,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Offset stride separating segments in the segment-aware positional
/// encoding: windows from segment rank `r` are encoded at positions
/// `r · SEGMENT_PE_STRIDE + relative_in_segment_position`.
pub const SEGMENT_PE_STRIDE: usize = 997;

/// Positions within a segment are encoded *relative* to the segment
/// length, spanning `0..REL_PE_SCALE`: sub-pattern phases scale with job
/// duration, so a phase boundary at 45% of a job lands on the same
/// encoding regardless of how long the job ran.
pub const REL_PE_SCALE: f64 = 512.0;

/// Denoising augmentation: std of the Gaussian noise added to training
/// inputs (targets stay clean). Makes the model tolerant of benign
/// per-job intensity jitter without dulling real anomalies.
const NOISE_AUG: f64 = 0.08;

/// Hyperparameters of the shared model (defaults follow the paper's
/// artifact description: window 20, batch 50, 3 layers / 3 heads /
/// 3 experts with top-1 gating; epochs are scaled down for CPU training).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SharingConfig {
    pub window: usize,
    pub stride: usize,
    pub d_model: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    pub hidden: usize,
    pub n_experts: usize,
    pub top_k: usize,
    /// Ablation C5: replace the sparse MoE with a dense FFN.
    pub dense_ffn: bool,
    /// Ablation C4 (off): drop the between-segment PE differentiation.
    pub segment_aware_pe: bool,
    pub epochs: usize,
    pub lr: f64,
    pub batch: usize,
    /// K segments nearest the centroid used for training (§3.4).
    pub k_nearest: usize,
    pub seed: u64,
}

impl Default for SharingConfig {
    fn default() -> Self {
        Self {
            window: 20,
            stride: 10,
            d_model: 36,
            n_heads: 3,
            n_layers: 3,
            hidden: 72,
            n_experts: 3,
            top_k: 1,
            dense_ffn: false,
            segment_aware_pe: true,
            epochs: 28,
            lr: 2e-3,
            batch: 50,
            k_nearest: 10,
            seed: 1,
        }
    }
}

/// One cluster's shared reconstruction model.
#[derive(Serialize, Deserialize)]
pub struct SharedModel {
    pub params: ParamStore,
    pub model: ReconstructionTransformer,
    /// WMSE weights per metric (Eq. 5), derived from per-cluster MAC
    /// (Eq. 6): stable metrics weigh more, so deviations on them score
    /// higher.
    pub weights: Vec<f64>,
    pub cfg: SharingConfig,
    /// Mean training loss per epoch.
    pub loss_history: Vec<f64>,
    /// Mean / std of per-point raw scores over the training segments,
    /// used to express online scores in calibrated units so different
    /// clusters' models are directly comparable on one node's timeline.
    pub score_mean: f64,
    pub score_std: f64,
}

/// Compute WMSE weights from Mean Absolute Change over the cluster's
/// training data: `w_i ∝ 1 / (MAC_i + ε)`, normalised to mean 1.
pub fn mac_weights(segments: &[&Matrix]) -> Vec<f64> {
    assert!(!segments.is_empty());
    let m = segments[0].cols();
    let mut mac = vec![0.0f64; m];
    for (j, slot) in mac.iter_mut().enumerate() {
        let mut acc = 0.0;
        let mut cnt = 0usize;
        for seg in segments {
            let col = seg.col(j);
            acc += stats::mean_abs_change(&col) * (col.len().saturating_sub(1)) as f64;
            cnt += col.len().saturating_sub(1);
        }
        *slot = if cnt > 0 { acc / cnt as f64 } else { 0.0 };
    }
    let mut w: Vec<f64> = mac.iter().map(|&v| 1.0 / (v + 0.05)).collect();
    let mean = stats::mean(&w);
    if mean > 1e-12 {
        for v in w.iter_mut() {
            *v /= mean;
        }
    }
    w
}

/// The one position rule: row `r` of a `t`-row series sits at `base`
/// plus its segment-relative position, spanning `base..base +
/// REL_PE_SCALE`. Scoring passes `base = 0.0`, which adds nothing to the
/// bits (`0.0 + x == x` for every `x ≥ +0.0`); training passes the
/// segment's [`segment_base`]. (Pre-dividing the scale would not be
/// bit-identical to `r * SCALE / t`.)
fn rel_position(t: usize, base: f64) -> impl Fn(usize) -> f64 + Sync {
    move |r| base + r as f64 * REL_PE_SCALE / t as f64
}

/// Base position of a training segment at offset rank `rank`: `rank ·
/// SEGMENT_PE_STRIDE` with the segment-aware encoding, 0 without.
/// Training re-randomizes the ranks every epoch so the model can tell
/// segments apart *within* an epoch yet stays invariant to the base
/// offset — which is what lets a fresh online segment (scored at base 0)
/// reconstruct as well as the training data.
fn segment_base(cfg: &SharingConfig, rank: usize) -> f64 {
    if cfg.segment_aware_pe {
        (rank * SEGMENT_PE_STRIDE) as f64
    } else {
        0.0
    }
}

/// Fold one window's per-row errors into its rows of a series' scores:
/// rows covered twice (the end-aligned tail window overlaps its
/// predecessor) keep the max error.
fn merge_max(rows: &mut [f64], errs: &[f64]) {
    for (slot, &v) in rows.iter_mut().zip(errs) {
        *slot = slot.max(v);
    }
}

impl SharedModel {
    /// Train a shared model for one cluster from its selected segments.
    pub fn train(cfg: &SharingConfig, segments: &[&Matrix]) -> SharedModel {
        assert!(
            !segments.is_empty(),
            "shared model needs at least one segment"
        );
        let input_dim = segments[0].cols();
        let weights = mac_weights(segments);
        let mut params = ParamStore::new(cfg.seed);
        let model = ReconstructionTransformer::new(
            &mut params,
            TransformerConfig {
                input_dim,
                d_model: cfg.d_model,
                n_heads: cfg.n_heads,
                n_layers: cfg.n_layers,
                hidden: cfg.hidden,
                block: if cfg.dense_ffn {
                    BlockKind::Dense
                } else {
                    BlockKind::Moe {
                        n_experts: cfg.n_experts,
                        top_k: cfg.top_k,
                    }
                },
                aux_weight: 0.01,
            },
        );
        let mut shared = SharedModel {
            params,
            model,
            weights,
            cfg: cfg.clone(),
            loss_history: Vec::new(),
            score_mean: 0.0,
            score_std: 1.0,
        };
        shared.fit_windows(segments, cfg.epochs);
        shared.calibrate(segments);
        shared
    }

    /// Recompute the score calibration from reference segments: the
    /// model's raw per-point errors on its own training data define the
    /// "normal" score distribution.
    pub fn calibrate(&mut self, segments: &[&Matrix]) {
        let all = self.score_stacked_raw::<f64>(segments).concat();
        if all.len() < 4 {
            return;
        }
        let (m, s) = stats::trimmed_mean_std(&all, 0.02);
        self.score_mean = m;
        self.score_std = s.max(1e-6);
    }

    /// (Re-)train on the given segments for `epochs` epochs. Also the
    /// incremental fine-tuning path of §3.5.
    ///
    /// Segments under 4 rows are skipped; the rest are tiled at
    /// `cfg.stride`. Each task reads its window in place: it fills the
    /// noised input, the clean target and the positional encoding into
    /// its recycled tape, as a scoring session does.
    pub fn fit_windows(&mut self, segments: &[&Matrix], epochs: usize) {
        let cfg = self.cfg.clone();
        let divisors = sinusoidal_pe_divisors(cfg.d_model);
        let weights = &self.weights;
        let mut opt = Adam::new(cfg.lr);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xF17);
        let mut ranks: Vec<usize> = (0..segments.len()).collect();
        // A task builds into a spare tape — the ones scoring uses too —
        // and checks a gradient store out per window: the fit settles at
        // one tape per worker and one store per window of a batch, and
        // stops allocating.
        let spare: Mutex<Vec<GradStore>> = Mutex::default();
        let mut grads = self.params.zero_grads();
        for _epoch in 0..epochs {
            // Fresh segment-offset assignment every epoch (see
            // `segment_base` for why).
            ranks.shuffle(&mut rng);
            let pos_fns: Vec<_> = segments
                .iter()
                .zip(&ranks)
                .map(|(seg, &rank)| rel_position(seg.rows(), segment_base(&cfg, rank)))
                .collect();
            let specs: Vec<WindowSpec> = segments
                .iter()
                .zip(&pos_fns)
                .filter(|(seg, _)| seg.rows() >= 4)
                .flat_map(|(&data, pos_of)| {
                    let tiles = windows(data.rows(), cfg.window, cfg.stride).into_iter();
                    tiles.map(move |w| WindowSpec {
                        data,
                        start: w.start,
                        end: w.end,
                        pos_of,
                        weights,
                    })
                })
                .collect();
            if specs.is_empty() {
                return;
            }
            let mut order: Vec<usize> = (0..specs.len()).collect();
            order.shuffle(&mut rng);
            let epoch_key: u64 = rng.gen();
            let mut epoch_loss = 0.0;
            let mut seen = 0usize;
            for chunk in order.chunks(cfg.batch.max(1)) {
                // Data-parallel gradient accumulation: one graph per
                // window on a rayon worker, gradients merged.
                let results: Vec<(f64, GradStore)> = chunk
                    .par_iter()
                    .map(|&wi| {
                        let win = &specs[wi];
                        let wgrads = spare.lock().expect("no task panicked").pop();
                        let mut wgrads = wgrads.unwrap_or_else(|| self.params.zero_grads());
                        let mut g = Graph::recycle(&self.params, Tape::take_spare());
                        let (rows, m) = (win.end - win.start, win.data.cols());
                        // Denoising: perturbed input, clean target.
                        let x = g.input_fill(rows, m, |x| {
                            x.copy_from_slice(win.values());
                            let mut nrng = ChaCha8Rng::seed_from_u64(
                                epoch_key ^ ((wi as u64) << 24) ^ cfg.seed,
                            );
                            for v in x.iter_mut() {
                                *v += NOISE_AUG * gaussian(&mut nrng);
                            }
                        });
                        let target = g.input_fill(rows, m, |t| t.copy_from_slice(win.values()));
                        let pe = g.input_fill(rows, cfg.d_model, |pe| win.fill_pe(&divisors, pe));
                        let wn = g.input_fill(1, m, |w| w.copy_from_slice(win.weights));
                        let loss = self.model.loss(&mut g, x, target, pe, wn);
                        g.backward_into(loss, &mut wgrads);
                        let l = g.scalar(loss);
                        g.into_tape().park();
                        (l, wgrads)
                    })
                    .collect();
                // Merged on this thread in window order, whichever
                // worker produced which.
                seen += results.len();
                let scale = 1.0 / results.len().max(1) as f64;
                grads.zero();
                for (l, g) in &results {
                    epoch_loss += l;
                    grads.merge(g);
                }
                let stores = results.into_iter().map(|(_, g)| g);
                spare.lock().expect("no task panicked").extend(stores);
                grads.scale(scale);
                grads.clip_global_norm(5.0);
                opt.step(&mut self.params, &grads);
            }
            self.loss_history.push(epoch_loss / seen.max(1) as f64);
        }
    }

    /// Calibrated per-timestep anomaly scores: raw weighted
    /// reconstruction error, centered and scaled by the model's own
    /// training-error distribution (z-units, clamped at 0 below).
    ///
    /// The one-series case of [`SharedModel::score_series_batch`]: same
    /// tiling, same session loop, same bits.
    pub fn score_series(&self, data: &Matrix) -> Vec<f64> {
        self.score_series_batch(&[data])
            .pop()
            .expect("one series in, one out")
    }

    /// Reference for [`SharedModel::score_series`]: the same scores
    /// through a fresh [`Graph`] per window, no session. The equivalence
    /// tests hold `score_series` and `score_series_batch` to it bit for
    /// bit.
    pub fn score_series_taped(&self, data: &Matrix) -> Vec<f64> {
        let t = data.rows();
        let mut scores = vec![0.0f64; t];
        let partial: Vec<(usize, Vec<f64>)> = windows(t, self.cfg.window, self.cfg.window)
            .into_par_iter()
            .map(|std::ops::Range { start: s, end: e }| {
                let win = data.slice_rows(s, e);
                let mut g = Graph::new(&self.params);
                let x = g.input(win.clone());
                let positions: Vec<f64> =
                    (s..e).map(|r| r as f64 * REL_PE_SCALE / t as f64).collect();
                let pe = g.input(sinusoidal_pe_at(&positions, self.cfg.d_model));
                let recon = self.model.reconstruct(&mut g, x, pe);
                let rv = g.value(recon);
                let per_row: Vec<f64> = (0..win.rows())
                    .map(|r| {
                        win.row(r)
                            .iter()
                            .zip(rv.row(r))
                            .zip(&self.weights)
                            .map(|((a, b), w)| w * (a - b) * (a - b))
                            .sum::<f64>()
                            / win.cols().max(1) as f64
                    })
                    .collect();
                (s, per_row)
            })
            .collect();
        for (s, per_row) in partial {
            merge_max(&mut scores[s..s + per_row.len()], &per_row);
        }
        self.calibrate_scores(&mut scores);
        scores
    }

    /// Calibrated scores for many series, scored on the calling thread
    /// (`score_stacked_raw`) and calibrated per series.
    ///
    /// Bit-identical per series to [`SharedModel::score_series`], which
    /// is this function on a one-series list: windows are scored
    /// independently of each other
    /// (`crates/nn/tests/infer_batch_equivalence.rs`).
    pub fn score_series_batch(&self, series: &[&Matrix]) -> Vec<Vec<f64>> {
        self.score_stacked::<f64>(series)
    }

    /// f32-tier [`SharedModel::score_series_batch`]: same session loop,
    /// merge and f64 calibration arithmetic on the widened errors; only
    /// the forward pass runs in f32 (an [`ns_nn::InferenceSessionF32`]
    /// over the store's own f32 copy of the weights). Its reference
    /// is the f64 tier, compared statistically, not bitwise.
    pub fn score_series_batch_f32(&self, series: &[&Matrix]) -> Vec<Vec<f64>> {
        self.score_stacked::<f32>(series)
    }

    /// Raw (uncalibrated) scores of every series, on the calling thread:
    /// one spare [`Session`] at the precision tier `T` forwards every
    /// window of every series in input order, each window's per-row
    /// errors are max-merged into its series, and the session is parked
    /// once. The kernels run one band (`with_thread_parallelism_cap(Some(1),
    /// …)`): parallelism lives above the segment — engine jobs, harness
    /// nodes, fit clusters and segments (DESIGN §10).
    fn score_stacked_raw<T: Tier>(&self, series: &[&Matrix]) -> Vec<Vec<f64>> {
        let window = self.cfg.window;
        rayon::with_thread_parallelism_cap(Some(1), || {
            let mut sess = Session::<T>::take_spare();
            let out = series
                .iter()
                .map(|data| {
                    // The PE position scale depends on the series' own length.
                    let pos_of = rel_position(data.rows(), 0.0);
                    let mut scores = vec![0.0f64; data.rows()];
                    for w in windows(data.rows(), window, window) {
                        let errs = sess.score_window(
                            &self.params,
                            &self.model,
                            data,
                            w.start,
                            w.end,
                            &pos_of,
                            &self.weights,
                        );
                        merge_max(&mut scores[w], errs);
                    }
                    scores
                })
                .collect();
            sess.park();
            out
        })
    }

    /// Both tiers' `score_series_batch`: [`SharedModel::score_stacked_raw`],
    /// calibrated.
    fn score_stacked<T: Tier>(&self, series: &[&Matrix]) -> Vec<Vec<f64>> {
        let mut out = self.score_stacked_raw::<T>(series);
        for sc in &mut out {
            self.calibrate_scores(sc);
        }
        out
    }

    /// Raw errors → z-units of the model's own training-error
    /// distribution, clamped at 0 below.
    fn calibrate_scores(&self, scores: &mut [f64]) {
        for v in scores.iter_mut() {
            *v = ((*v - self.score_mean) / self.score_std).max(0.0);
        }
    }

    /// Final training loss (None before training).
    pub fn final_loss(&self) -> Option<f64> {
        self.loss_history.last().copied()
    }
}

/// Select training segments for a cluster and train its shared model.
pub fn train_cluster_model(
    cfg: &SharingConfig,
    cluster: usize,
    model: &crate::coarse::ClusterModel,
    segments: &[Segment],
) -> SharedModel {
    ns_obs::span!("train_cluster_model");
    // Selection size scales with cluster population (up to 2K) and is
    // stratified over the distance distribution so large clusters'
    // spread is represented, not just their cores.
    let population = model.labels.iter().filter(|&&l| l == cluster).count();
    let k = cfg.k_nearest.max((2 * cfg.k_nearest).min(population));
    let member_idx = model.spread_members(cluster, k);
    let chosen: Vec<&Matrix> = if member_idx.is_empty() {
        segments.iter().map(|s| &s.data).collect()
    } else {
        member_idx.iter().map(|&i| &segments[i].data).collect()
    };
    let mut c = cfg.clone();
    c.seed = cfg.seed ^ ((cluster as u64) << 8);
    let mut shared = SharedModel::train(&c, &chosen);
    // Calibrate on *all* cluster members (capped), not just the K the
    // model was trained on — the training set's memorized error
    // distribution understates the generalization error on fresh
    // segments of the same pattern.
    let all_members: Vec<&Matrix> = segments
        .iter()
        .enumerate()
        .filter(|(i, _)| model.labels.get(*i) == Some(&cluster))
        .take(40)
        .map(|(_, s)| &s.data)
        .collect();
    if all_members.len() > chosen.len() {
        shared.calibrate(&all_members);
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_segment(t: usize, m: usize, freq: f64) -> Matrix {
        Matrix::from_fn(t, m, |r, c| ((r as f64) * freq + c as f64 * 0.5).sin())
    }

    fn quick_cfg() -> SharingConfig {
        SharingConfig {
            window: 12,
            stride: 12,
            d_model: 12,
            n_heads: 2,
            n_layers: 1,
            hidden: 24,
            n_experts: 2,
            epochs: 12,
            lr: 3e-3,
            batch: 16,
            ..Default::default()
        }
    }

    #[test]
    fn mac_weights_prefer_stable_metrics() {
        // Metric 0 constant-ish, metric 1 wildly changing.
        let seg = Matrix::from_fn(50, 2, |r, c| {
            if c == 0 {
                1.0
            } else {
                if r % 2 == 0 {
                    3.0
                } else {
                    -3.0
                }
            }
        });
        let w = mac_weights(&[&seg]);
        assert!(w[0] > w[1], "stable metric should weigh more: {w:?}");
        assert!((stats::mean(&w) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn training_reduces_loss() {
        let segs = [pattern_segment(48, 3, 0.3), pattern_segment(60, 3, 0.3)];
        let refs: Vec<&Matrix> = segs.iter().collect();
        let shared = SharedModel::train(&quick_cfg(), &refs);
        let hist = &shared.loss_history;
        assert!(hist.len() >= 2);
        assert!(
            hist.last().unwrap() < &(hist[0] * 0.8),
            "loss did not drop: {hist:?}"
        );
    }

    #[test]
    fn scores_low_on_trained_pattern_high_on_anomaly() {
        let segs = [pattern_segment(48, 3, 0.3), pattern_segment(60, 3, 0.3)];
        let refs: Vec<&Matrix> = segs.iter().collect();
        let mut cfg = quick_cfg();
        cfg.epochs = 25;
        let shared = SharedModel::train(&cfg, &refs);
        let normal = pattern_segment(36, 3, 0.3);
        let normal_scores = shared.score_series(&normal);
        let anomalous = normal.map(|v| v + 3.0);
        let anom_scores = shared.score_series(&anomalous);
        let nm: f64 = normal_scores.iter().sum::<f64>() / normal_scores.len() as f64;
        let am: f64 = anom_scores.iter().sum::<f64>() / anom_scores.len() as f64;
        assert!(am > nm * 3.0, "normal {nm} vs anomalous {am}");
    }

    #[test]
    fn score_series_covers_every_timestep() {
        let segs = [pattern_segment(40, 2, 0.5)];
        let refs: Vec<&Matrix> = segs.iter().collect();
        let mut cfg = quick_cfg();
        cfg.epochs = 2;
        let shared = SharedModel::train(&cfg, &refs);
        for t in [1usize, 5, 12, 13, 29, 40] {
            let series = pattern_segment(t, 2, 0.5);
            let scores = shared.score_series(&series);
            assert_eq!(scores.len(), t, "length {t}");
            assert!(scores.iter().all(|v| v.is_finite()));
        }
        assert!(shared.score_series(&Matrix::zeros(0, 2)).is_empty());
    }

    #[test]
    fn segment_aware_pe_changes_offsets() {
        // With segment-aware PE, windows of segment rank 1 are shifted by
        // the stride; without it every segment starts at position 0, as a
        // scored segment does.
        let first_row = |segment_aware_pe: bool, rank: usize| {
            let cfg = SharingConfig {
                segment_aware_pe,
                ..Default::default()
            };
            rel_position(24, segment_base(&cfg, rank))(0)
        };
        assert_eq!(first_row(true, 0), 0.0);
        assert_eq!(first_row(true, 1), SEGMENT_PE_STRIDE as f64);
        assert_eq!(first_row(false, 0), 0.0);
        assert_eq!(first_row(false, 1), 0.0);
    }

    #[test]
    fn serving_schedules_bit_identical_to_taped() {
        let segs = [pattern_segment(48, 3, 0.3), pattern_segment(60, 3, 0.3)];
        let refs: Vec<&Matrix> = segs.iter().collect();
        let mut cfg = quick_cfg();
        cfg.epochs = 3;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dense in [false, true] {
            cfg.dense_ffn = dense;
            let shared = SharedModel::train(&cfg, &refs);
            // Mixed burst: exact-tile, ragged-tail, shorter-than-window
            // and empty series, scored one by one and stacked into one
            // batched forward.
            let series: Vec<Matrix> = [40usize, 5, 12, 29, 0, 17]
                .iter()
                .enumerate()
                .map(|(i, &t)| pattern_segment(t, 3, 0.45 + i as f64 * 0.07))
                .collect();
            let srefs: Vec<&Matrix> = series.iter().collect();
            let batched = shared.score_series_batch(&srefs);
            assert_eq!(batched.len(), series.len());
            for (i, s) in series.iter().enumerate() {
                let taped = bits(&shared.score_series_taped(s));
                let ctx = format!("dense={dense} series {i} (t={})", s.rows());
                assert_eq!(bits(&shared.score_series(s)), taped, "{ctx}");
                assert_eq!(bits(&shared.score_series(s)), taped, "warm pool {ctx}");
                assert_eq!(bits(&batched[i]), taped, "batched {ctx}");
            }
        }
    }

    /// The trained weights of two small fits — MoE, so with the auxiliary
    /// loss, and dense — pinned by FNV-1a over their bits: the training
    /// step (noised input, clean target, WMSE plus the weighted auxiliary
    /// loss) cannot change without this failing.
    #[test]
    fn trained_weights_are_pinned() {
        let segs = [pattern_segment(48, 3, 0.3), pattern_segment(60, 3, 0.3)];
        let refs: Vec<&Matrix> = segs.iter().collect();
        let mut cfg = quick_cfg();
        cfg.epochs = 3;
        let mut h = ns_wire::FNV_OFFSET;
        for dense in [false, true] {
            cfg.dense_ffn = dense;
            let shared = SharedModel::train(&cfg, &refs);
            for id in 0..shared.params.len() {
                for v in shared.params.get(id).as_slice() {
                    h = ns_wire::fnv1a64_from(h, &v.to_bits().to_le_bytes());
                }
            }
        }
        assert_eq!(format!("{h:016x}"), "efc0ddd41b2cb800");
    }

    #[test]
    fn f32_batched_scores_track_f64() {
        let segs = [pattern_segment(48, 3, 0.3), pattern_segment(60, 3, 0.3)];
        let refs: Vec<&Matrix> = segs.iter().collect();
        let mut cfg = quick_cfg();
        cfg.epochs = 3;
        let shared = SharedModel::train(&cfg, &refs);
        let series: Vec<Matrix> = [40usize, 5, 12, 29, 0, 17]
            .iter()
            .enumerate()
            .map(|(i, &t)| pattern_segment(t, 3, 0.45 + i as f64 * 0.07))
            .collect();
        let srefs: Vec<&Matrix> = series.iter().collect();
        let f32_scores = shared.score_series_batch_f32(&srefs);
        let f64_scores = shared.score_series_batch(&srefs);
        for (i, (lo, hi)) in f32_scores.iter().zip(&f64_scores).enumerate() {
            assert_eq!(lo.len(), hi.len(), "series {i}");
            // Across tiers the agreement is statistical: calibrated
            // scores are O(1) z-units, so compare absolutely.
            for (a, b) in lo.iter().zip(hi) {
                assert!(
                    (a - b).abs() < 1e-2,
                    "f32 tier drifted from f64: {a} vs {b} (series {i})"
                );
            }
        }
    }

    /// Two models trained alike share every step count while their
    /// weights differ. Each store owns its f32 copy, so alternating
    /// between them on one thread — through one and the same spare tape
    /// — still serves each its own weights.
    #[test]
    fn f32_copy_is_per_model_for_equally_trained_models() {
        let mut cfg = quick_cfg();
        cfg.epochs = 3;
        let train = |freq: f64| {
            let segs = [pattern_segment(48, 3, freq), pattern_segment(60, 3, freq)];
            SharedModel::train(&cfg, &segs.iter().collect::<Vec<_>>())
        };
        let (a, b) = (train(0.3), train(0.9));
        assert_eq!(a.loss_history.len(), b.loss_history.len());
        assert_ne!(a.params.get(0), b.params.get(0), "models must differ");
        let series = pattern_segment(40, 3, 0.5);
        let bits = |m: &SharedModel| {
            let scores = m.score_series_batch_f32(&[&series]).remove(0);
            scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        // Training is deterministic: a second fit is the same model with
        // a cold f32 copy, so its first score builds one afresh.
        let (want_a, want_b) = (bits(&train(0.3)), bits(&train(0.9)));
        assert_ne!(want_a, want_b);
        rayon::with_thread_parallelism_cap(Some(1), || {
            for round in 0..3 {
                assert_eq!(bits(&a), want_a, "model a, round {round}");
                assert_eq!(bits(&b), want_b, "model b, round {round}");
            }
        });
    }

    #[test]
    fn fine_tuning_adapts_to_new_pattern() {
        let segs = [pattern_segment(48, 2, 0.3)];
        let refs: Vec<&Matrix> = segs.iter().collect();
        let mut cfg = quick_cfg();
        cfg.epochs = 15;
        let mut shared = SharedModel::train(&cfg, &refs);
        let new_pattern = pattern_segment(48, 2, 1.1);
        let before: f64 = shared.score_series(&new_pattern).iter().sum();
        let new_refs = [&new_pattern];
        shared.fit_windows(&new_refs, 15);
        let after: f64 = shared.score_series(&new_pattern).iter().sum();
        assert!(
            after < before,
            "fine-tune did not adapt: {before} → {after}"
        );
    }

    #[test]
    fn short_segments_are_skipped_not_crashed() {
        let tiny = Matrix::from_fn(2, 2, |r, _| r as f64);
        let ok = pattern_segment(30, 2, 0.2);
        let refs: Vec<&Matrix> = vec![&tiny, &ok];
        let mut cfg = quick_cfg();
        cfg.epochs = 1;
        let shared = SharedModel::train(&cfg, &refs);
        assert!(shared.final_loss().is_some());
    }
}
