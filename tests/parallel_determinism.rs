//! Parallel preprocessing in `fit_from_source` must be deterministic:
//! the same seed produces bit-identical models and scores whether the
//! thread pool has one thread or many.
//!
//! The pool caches `RAYON_NUM_THREADS` at first use, so the width is
//! varied through [`rayon::set_thread_count_override`] — the explicit
//! in-process hook the pool exposes for exactly this test. The override
//! is process-global, so every test here takes [`width_lock`] around it.
//!
//! Scoring gets its own case: `SharedModel::score_series_batch` forwards
//! every window on the calling thread with its kernels capped to one
//! band, so neither the pool width nor a caller's cap may reach a score
//! bit, in either precision tier.

mod common;

use common::{inputs, quick_cfg};
use nodesentry::core::{NodeInput, NodeSentry, SharedModel, SharingConfig};
use nodesentry::linalg::matrix::Matrix;
use nodesentry::telemetry::{Dataset, DatasetProfile};
use std::sync::{Mutex, MutexGuard};

fn width_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fit_and_score(ds: &Dataset, inputs: &[NodeInput]) -> (String, Vec<Vec<u64>>) {
    let groups = ds.catalog.group_ids();
    let model = NodeSentry::fit(quick_cfg(), inputs, &groups, ds.split);
    let scores: Vec<Vec<u64>> = inputs
        .iter()
        .map(|input| {
            let (s, _) = model.score_node(&input.raw, &input.transitions, ds.split);
            s.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    // The serialized model captures every trained weight; comparing the
    // JSON compares the entire model bit for bit.
    (model.to_json(true).expect("serialize"), scores)
}

#[test]
fn fit_is_bitwise_identical_across_thread_counts() {
    let _g = width_lock();
    let ds = DatasetProfile::tiny().generate();
    let inputs = inputs(&ds);

    rayon::set_thread_count_override(Some(1));
    let (model_serial, scores_serial) = fit_and_score(&ds, &inputs);

    rayon::set_thread_count_override(None);
    let (model_parallel, scores_parallel) = fit_and_score(&ds, &inputs);

    rayon::set_thread_count_override(Some(3));
    let (model_three, scores_three) = fit_and_score(&ds, &inputs);
    rayon::set_thread_count_override(None);

    assert_eq!(
        model_serial, model_parallel,
        "model differs between 1 thread and default"
    );
    assert_eq!(
        model_serial, model_three,
        "model differs between 1 and 3 threads"
    );
    assert_eq!(
        scores_serial, scores_parallel,
        "scores differ between 1 thread and default"
    );
    assert_eq!(
        scores_serial, scores_three,
        "scores differ between 1 and 3 threads"
    );
}

/// All three serving entry points over one burst, as bit patterns:
/// `score_series` per series, then the f64 and f32 batched calls.
fn score_burst(model: &SharedModel, series: &[&Matrix]) -> Vec<Vec<Vec<u64>>> {
    let bits = |rows: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
        rows.iter()
            .map(|s| s.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    vec![
        bits(series.iter().map(|s| model.score_series(s)).collect()),
        bits(model.score_series_batch(series)),
        bits(model.score_series_batch_f32(series)),
    ]
}

#[test]
fn scoring_schedule_is_bitwise_identical_across_widths_and_caps() {
    let _g = width_lock();
    let pattern = |t: usize, phase: f64| {
        Matrix::from_fn(t, 3, |r, c| (r as f64 * 0.3 + c as f64 * 0.5 + phase).sin())
    };
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
    let train = [pattern(48, 0.0), pattern(60, 0.4)];
    rayon::set_thread_count_override(Some(1));
    let model = SharedModel::train(&cfg, &train.iter().collect::<Vec<_>>());

    // Exact-tile, ragged-tail, shorter-than-window and empty series, plus
    // two of well over a hundred windows each.
    let burst: Vec<Matrix> = [48usize, 29, 5, 0, 1500, 1501, 17]
        .iter()
        .enumerate()
        .map(|(i, &t)| pattern(t, 0.2 + i as f64 * 0.7))
        .collect();
    let series: Vec<&Matrix> = burst.iter().collect();

    let want = score_burst(&model, &series);
    assert_eq!(want[0], want[1], "score_series vs score_series_batch");
    assert_ne!(want[1], want[2], "the f32 tier must be its own arithmetic");
    for (tier, scores) in want.iter().enumerate() {
        for (s, m) in scores.iter().zip(&series) {
            assert_eq!(s.len(), m.rows(), "tier {tier}: one score per row");
        }
    }

    const WIDTHS: [usize; 4] = [1, 2, 3, 8];
    for width in WIDTHS {
        rayon::set_thread_count_override(Some(width));
        for round in ["cold", "warm"] {
            assert_eq!(
                score_burst(&model, &series),
                want,
                "width {width}, {round} pools"
            );
        }
    }
    // A capped caller (an engine scoring job) scores the same way.
    rayon::set_thread_count_override(Some(8));
    let capped = rayon::with_thread_parallelism_cap(Some(1), || score_burst(&model, &series));
    assert_eq!(capped, want, "caller capped at 1 under a width-8 pool");
    rayon::set_thread_count_override(None);
}
