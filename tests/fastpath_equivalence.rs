//! The inference fast path's contract: serving through the tape-free
//! [`InferenceSession`] changes *nothing* about what a shared model
//! computes. Both serving schedules — `score_series` (one series, windows
//! in parallel) and `score_series_batch` (many series, one stacked
//! forward) — are held bit-identical (`f64::to_bits`) to
//! `score_series_taped`, the same scores through the autodiff tape that
//! training uses, over every shared model of a fitted fixture × every
//! test-span segment of its dataset.
//!
//! [`InferenceSession`]: nodesentry::nn::InferenceSession

mod common;

use common::{quick_cfg, Setup};
use nodesentry::core::preprocess::segment_at_transitions;
use nodesentry::linalg::matrix::Matrix;
use nodesentry::telemetry::DatasetProfile;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn serving_schedules_bit_identical_to_taped_reference() {
    let mut cfg = quick_cfg();
    cfg.sharing.epochs = 4;
    let setup = Setup::fit(&DatasetProfile::tiny(), cfg);
    let (ds, model) = (&setup.ds, &setup.model);

    // The test-span segments exactly as `score_node` cuts them.
    let mut segments: Vec<Matrix> = Vec::new();
    for input in &setup.inputs {
        let test = model
            .preprocess(&input.raw)
            .slice_rows(ds.split, ds.horizon());
        let cuts: Vec<usize> = input
            .transitions
            .iter()
            .filter(|&&t| t > ds.split && t < ds.horizon())
            .map(|&t| t - ds.split)
            .collect();
        segments.extend(
            segment_at_transitions(0, &test, &cuts, 1)
                .into_iter()
                .map(|s| s.data),
        );
    }
    assert!(segments.len() > ds.n_nodes(), "fixture has no transitions");
    let refs: Vec<&Matrix> = segments.iter().collect();

    for (c, shared) in model.shared_models.iter().enumerate() {
        let batched = shared.score_series_batch(&refs);
        assert_eq!(batched.len(), segments.len());
        for (i, seg) in segments.iter().enumerate() {
            let taped = bits(&shared.score_series_taped(seg));
            assert_eq!(taped.len(), seg.rows());
            let ctx = format!("model {c}, segment {i} ({} rows)", seg.rows());
            assert_eq!(
                bits(&shared.score_series(seg)),
                taped,
                "score_series: {ctx}"
            );
            assert_eq!(bits(&batched[i]), taped, "score_series_batch: {ctx}");
        }
    }
}
