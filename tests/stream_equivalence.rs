//! The streaming engine's contract: feeding a trained detector one tick
//! at a time through `ns-stream` produces *exactly* the scores and
//! verdicts of batch scoring — `f64::to_bits` equality, not tolerance —
//! on seeded datasets with missing values, across multiple shards.

mod common;

use common::{quick_cfg, setup, Setup};
use nodesentry::eval::{ksigma_detect, smooth_scores};
use nodesentry::stream::{Engine, EngineConfig};
use nodesentry::telemetry::DatasetProfile;
use std::sync::Arc;

/// Replay the setup's clean feed one step per `ingest`: each batch
/// carries every node's sample for one step, so shards interleave the
/// way a real collector would. Hold the verdicts to the batch oracle
/// bit for bit.
fn assert_equivalence(setup: &Setup, n_shards: usize) {
    let ds = &setup.ds;
    let horizon = ds.horizon();
    let oracles = setup.oracles();

    // Streaming run (smoothing off = raw ksigma_detect path).
    let mut cfg = EngineConfig::new(ds.split);
    cfg.n_shards = n_shards;
    let engine = Engine::new(Arc::clone(&setup.model), cfg);
    for batch in setup.clean.chunks(ds.n_nodes()) {
        engine.ingest(batch.to_vec()).expect("stream shard alive");
    }
    let report = engine.finish();

    assert_eq!(
        report.verdicts.len(),
        ds.n_nodes() * (horizon - ds.split),
        "one verdict per node per test step"
    );
    assert_eq!(report.stats.n_points as usize, report.verdicts.len());
    assert!(report.stats.n_matches > 0);
    // A clean ordered feed must not trip any hardening path.
    assert!(
        report.faults.is_clean(),
        "clean feed tripped fault counters: {:?}",
        report.faults
    );
    assert!(report
        .verdicts
        .iter()
        .all(|v| v.kind == nodesentry::stream::VerdictKind::Ok));

    for v in &report.verdicts {
        let k = v.step - ds.split;
        let oracle = &oracles[v.node];
        let (bs, bf, bc) = (oracle.scores[k], oracle.flags[k], oracle.clusters[k]);
        assert_eq!(
            v.score.to_bits(),
            bs.to_bits(),
            "node {} step {}: stream {} vs batch {}",
            v.node,
            v.step,
            v.score,
            bs
        );
        assert_eq!(
            v.anomalous, bf,
            "flag diverged at node {} step {}",
            v.node, v.step
        );
        assert_eq!(
            v.cluster, bc,
            "cluster diverged at node {} step {}",
            v.node, v.step
        );
    }
    assert_eq!(
        Arc::strong_count(&setup.model),
        1,
        "engine released the model"
    );
}

#[test]
fn streaming_matches_batch_on_tiny_dataset() {
    let setup = setup();
    assert_equivalence(setup, 3);

    // Smoothed path: engine with the config's smoothing window must
    // reproduce `detect_node` flag for flag.
    let (ds, shared) = (&setup.ds, &setup.model);
    let mut cfg = EngineConfig::new(ds.split);
    cfg.n_shards = 2;
    cfg.smooth_window = shared.cfg.smooth_window;
    let engine = Engine::new(Arc::clone(shared), cfg);
    for batch in setup.clean.chunks(ds.n_nodes()) {
        engine.ingest(batch.to_vec()).expect("stream shard alive");
    }
    let report = engine.finish();
    for (node, input) in setup.inputs.iter().enumerate() {
        let batch_pred = shared.detect_node(&input.raw, &input.transitions, ds.split);
        let stream_pred: Vec<bool> = report
            .verdicts
            .iter()
            .filter(|v| v.node == node)
            .map(|v| v.anomalous)
            .collect();
        assert_eq!(
            batch_pred, stream_pred,
            "smoothed flags diverged for node {node}"
        );
        // Scores stay the raw normalized ones even when flags are
        // smoothed — the smoothing only feeds the threshold.
        let (batch_scores, _) = shared.score_node(&input.raw, &input.transitions, ds.split);
        let smoothed = smooth_scores(&batch_scores, shared.cfg.smooth_window);
        assert_eq!(ksigma_detect(&smoothed, &shared.cfg.threshold), stream_pred);
    }
}

#[test]
fn streaming_matches_batch_on_reseeded_noisier_dataset() {
    // A second, independently seeded dataset with 10× the missing rate,
    // so NaN runs regularly span segment boundaries and the streaming
    // watermark is exercised hard.
    let mut profile = DatasetProfile::tiny();
    profile.name = "tiny-reseeded".into();
    profile.seed = 5150;
    profile.missing_rate = 0.02;
    profile.schedule.n_nodes = 5;
    assert_equivalence(&Setup::fit(&profile, quick_cfg()), 4);
}
