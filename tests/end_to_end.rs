//! End-to-end integration: simulator → NodeSentry training → online
//! detection → evaluation protocol, at a deliberately small scale so the
//! test runs in a debug build.

mod common;

use common::{quick_cfg, Setup};
use nodesentry::core::{NodeSentry, NodeSentryConfig};
use nodesentry::eval::metrics::{adjusted_confusion, roc_auc_adjusted};
use nodesentry::telemetry::DatasetProfile;
use std::sync::{Arc, OnceLock};

/// [`quick_cfg`] with a larger model: more clusters, two layers, longer
/// training and more neighbours.
fn e2e_cfg() -> NodeSentryConfig {
    let mut cfg = quick_cfg();
    cfg.coarse.k_max = 8;
    cfg.sharing.n_layers = 2;
    cfg.sharing.epochs = 14;
    cfg.sharing.k_nearest = 6;
    cfg
}

/// [`e2e_cfg`] fitted on `tiny`.
fn tiny() -> &'static Setup {
    static TINY: OnceLock<Setup> = OnceLock::new();
    TINY.get_or_init(|| Setup::fit(&DatasetProfile::tiny(), e2e_cfg()))
}

#[test]
fn full_pipeline_detects_better_than_chance() {
    // A bit larger than `tiny`: contextual anomalies need a few examples
    // of each pattern in the library before detection is meaningful.
    let mut profile = DatasetProfile::tiny();
    profile.schedule.n_nodes = 6;
    profile.schedule.horizon = 1600;
    profile.events_per_node = 2.5;
    let setup = Setup::fit(&profile, e2e_cfg());
    let (ds, model) = (&setup.ds, &setup.model);

    assert!(model.n_clusters() >= 2, "multiple patterns should emerge");
    assert!(model.preprocessor.out_dim() >= 10);
    assert!(
        model.preprocessor.out_dim() * 3 < ds.catalog.len(),
        "reduction must shrink the metric space substantially: {} of {}",
        model.preprocessor.out_dim(),
        ds.catalog.len()
    );

    // Score every node; AUC averaged over anomalous nodes must beat 0.5.
    let mut aucs = Vec::new();
    for (n, input) in setup.inputs.iter().enumerate() {
        let truth = ds.labels(n);
        if !truth[ds.split..].iter().any(|&b| b) {
            continue;
        }
        let (scores, matches) = model.score_node(&input.raw, &input.transitions, ds.split);
        assert_eq!(scores.len(), ds.horizon() - ds.split);
        assert!(!matches.is_empty());
        assert!(scores.iter().all(|v| v.is_finite() && *v >= 0.0));
        aucs.push(roc_auc_adjusted(&scores, &truth[ds.split..], None));
    }
    assert!(!aucs.is_empty(), "test data must contain anomalies");
    let mean_auc = aucs.iter().sum::<f64>() / aucs.len() as f64;
    // The tiny profile's contextual anomalies are hard at this reduced
    // model scale; the bar is "clearly better than chance", the paper's
    // numbers are the bench harness's job.
    assert!(
        mean_auc > 0.55,
        "mean AUC {mean_auc} barely better than chance"
    );
}

#[test]
fn detection_protocol_produces_consistent_confusion() {
    let setup = tiny();
    let (ds, model) = (&setup.ds, &setup.model);
    for (n, input) in setup.inputs.iter().enumerate() {
        let pred = model.detect_node(&input.raw, &input.transitions, ds.split);
        let truth = ds.labels(n);
        let c = adjusted_confusion(&pred, &truth[ds.split..], None);
        let total = c.tp + c.fp + c.fn_ + c.tn;
        assert_eq!(
            total,
            ds.horizon() - ds.split,
            "confusion must cover the test window"
        );
    }
}

#[test]
fn ablation_variants_run_end_to_end() {
    use nodesentry::core::Variant;
    let setup = tiny();
    let (ds, inputs) = (&setup.ds, &setup.inputs);
    let groups = ds.catalog.group_ids();
    for v in [
        Variant::C1SingleModel,
        Variant::C3EqualLength,
        Variant::C5DenseFfn,
    ] {
        let model = NodeSentry::fit(e2e_cfg().with_variant(v), inputs, &groups, ds.split);
        let (scores, _) = model.score_node(&inputs[0].raw, &inputs[0].transitions, ds.split);
        assert!(scores.iter().all(|s| s.is_finite()), "{v:?} produced NaNs");
    }
}

#[test]
fn incremental_pipeline_extends_cluster_library() {
    let mut setup = Setup::fit(&DatasetProfile::tiny(), e2e_cfg());
    let model = Arc::get_mut(&mut setup.model).expect("sole owner of a fresh fit");
    let k0 = model.n_clusters();
    // A segment the library has seen must match without a new cluster.
    let known = model.train_segments[0].data.clone();
    let (_, was_new) = model.incremental_update(&known, 1);
    assert!(!was_new);
    assert_eq!(model.n_clusters(), k0);
    // A wildly alien pattern must spawn a new cluster + model.
    let alien = nodesentry::linalg::Matrix::from_fn(60, model.preprocessor.out_dim(), |t, _| {
        if t % 4 == 0 {
            5.0
        } else {
            -5.0
        }
    });
    let (_, was_new) = model.incremental_update(&alien, 1);
    assert!(was_new);
    assert_eq!(model.n_clusters(), k0 + 1);
}
