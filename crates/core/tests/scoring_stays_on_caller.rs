//! A segment's online step runs on the thread that asks for it: batch
//! scoring through a shared model and a probe's feature extraction
//! publish no pool job, even with the pool two threads wide. Parallelism
//! lives above the segment — engine jobs, harness nodes, fit clusters
//! and segments — so inside one these calls forward and extract back to
//! back.
//!
//! One `#[test]` in its own binary: the pool's job counter is
//! process-wide, and no other test may publish jobs while it is read.

use nodesentry_core::coarse::{self, CoarseConfig};
use nodesentry_core::{SharedModel, SharingConfig};
use ns_linalg::matrix::Matrix;

fn pattern(t: usize, m: usize, phase: f64) -> Matrix {
    Matrix::from_fn(t, m, |r, c| (r as f64 * 0.3 + c as f64 * 0.5 + phase).sin())
}

/// `f`'s result and the pool jobs published while it ran.
fn published<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = rayon::pool_stats().jobs_submitted;
    let out = f();
    (out, rayon::pool_stats().jobs_submitted - before)
}

#[test]
fn batch_scoring_and_probe_features_publish_no_pool_job() {
    let cfg = SharingConfig {
        window: 12,
        stride: 12,
        d_model: 12,
        n_heads: 2,
        n_layers: 1,
        hidden: 24,
        n_experts: 2,
        epochs: 2,
        batch: 16,
        ..Default::default()
    };
    let train = [pattern(48, 3, 0.0), pattern(60, 3, 0.4)];
    let model = SharedModel::train(&cfg, &train.iter().collect::<Vec<_>>());
    rayon::set_thread_count_override(Some(2));

    // Several windows each: exact tiles, a ragged tail and a long series.
    let burst: Vec<Matrix> = [48usize, 29, 130]
        .iter()
        .enumerate()
        .map(|(i, &t)| pattern(t, 3, 0.2 + i as f64 * 0.7))
        .collect();
    let series: Vec<&Matrix> = burst.iter().collect();
    let (scores, jobs) = published(|| model.score_series_batch(&series));
    assert_eq!(jobs, 0, "f64 batch scoring published pool jobs");
    let (_, jobs) = published(|| model.score_series_batch_f32(&series));
    assert_eq!(jobs, 0, "f32 batch scoring published pool jobs");

    let coarse_cfg = CoarseConfig::default();
    let probe = pattern(42, 4, 1.1);
    let (feats, jobs) = published(|| coarse::segment_features(&coarse_cfg, &probe));
    assert_eq!(jobs, 0, "probe feature extraction published pool jobs");
    assert_eq!(feats.len(), 4 * coarse_cfg.catalog.len());

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (i, (got, data)) in scores.iter().zip(&series).enumerate() {
        let want = model.score_series_taped(data);
        assert_eq!(bits(got), bits(&want), "series {i} (t={})", data.rows());
    }
    rayon::set_thread_count_override(None);
}
