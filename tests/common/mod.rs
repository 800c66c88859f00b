//! The one fixture of the workspace's differential suites: the suite
//! model config, a fitted [`Setup`] (dataset, model, the dataset's clean
//! feed from [`Dataset::ticks`], and the batch oracle), the cached `tiny`
//! setup, and the replay helpers every suite holds against an
//! uninterrupted run. Suites include it with `mod common;`.
#![allow(dead_code, unused_imports)]

pub mod envelope;
pub use envelope::tagged;

use nodesentry::core::{CoarseConfig, NodeInput, NodeSentry, NodeSentryConfig, SharingConfig};
use nodesentry::eval::ksigma_detect;
use nodesentry::features::FeatureCatalog;
use nodesentry::stream::{Engine, EngineConfig, EngineReport, Tick, Verdict};
use nodesentry::telemetry::{Dataset, DatasetProfile};
use std::sync::{Arc, OnceLock};

pub const CHUNK: usize = 256;
pub const REORDER_BOUND: usize = 16;
pub const BLACKOUT_GAP: usize = 48;

/// The suites' model: small enough to fit in a debug build.
pub fn quick_cfg() -> NodeSentryConfig {
    NodeSentryConfig {
        coarse: CoarseConfig {
            catalog: FeatureCatalog::compact(),
            k_max: 6,
            ..Default::default()
        },
        sharing: SharingConfig {
            window: 12,
            stride: 6,
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            hidden: 32,
            n_experts: 2,
            epochs: 6,
            lr: 3e-3,
            batch: 16,
            k_nearest: 4,
            ..Default::default()
        },
        match_period: 40,
        min_segment_len: 8,
        ..Default::default()
    }
}

pub struct Setup {
    pub ds: Dataset,
    /// What the model was fitted on: every node's raw matrix and
    /// transitions.
    pub inputs: Vec<NodeInput>,
    pub model: Arc<NodeSentry>,
    /// The dataset's clean feed, [`Dataset::ticks`].
    pub clean: Vec<Tick>,
    /// Raw column count of the preprocessor input (for fault-plan specs).
    pub n_cols: usize,
    /// Raw columns feeding kept cumulative counter groups.
    pub counter_cols: Vec<usize>,
    oracles: OnceLock<Vec<Oracle>>,
}

/// The batch reference for one node: `score_node` over its whole raw
/// matrix, indexed by `step - split`.
pub struct Oracle {
    pub scores: Vec<f64>,
    /// Unsmoothed k-sigma flags of `scores`.
    pub flags: Vec<bool>,
    /// The cluster of the segment holding each step.
    pub clusters: Vec<usize>,
    /// Segment spans `[start, end)` in global steps.
    pub segments: Vec<(usize, usize)>,
}

/// Every node's raw matrix and transitions, as [`NodeSentry::fit`] takes
/// them.
pub fn inputs(ds: &Dataset) -> Vec<NodeInput> {
    (0..ds.n_nodes())
        .map(|n| NodeInput {
            raw: ds.raw_node(n),
            transitions: ds.transitions(n),
        })
        .collect()
}

impl Setup {
    /// Generate `profile`'s dataset and fit `cfg` on every node of it.
    pub fn fit(profile: &DatasetProfile, cfg: NodeSentryConfig) -> Setup {
        let ds = profile.generate();
        let inputs = inputs(&ds);
        let model = NodeSentry::fit(cfg, &inputs, &ds.catalog.group_ids(), ds.split);
        let pp = &model.preprocessor;
        let n_cols = pp.groups.len();
        let counter_cols: Vec<usize> = (0..n_cols)
            .filter(|&c| pp.counters[pp.groups[c]] && pp.kept.contains(&pp.groups[c]))
            .collect();
        Setup {
            clean: ds.ticks(),
            ds,
            inputs,
            model: Arc::new(model),
            n_cols,
            counter_cols,
            oracles: OnceLock::new(),
        }
    }

    /// Every node's batch reference, computed on first use.
    pub fn oracles(&self) -> &[Oracle] {
        self.oracles.get_or_init(|| {
            let split = self.ds.split;
            self.inputs
                .iter()
                .map(|input| {
                    let (scores, matches) =
                        self.model.score_node(&input.raw, &input.transitions, split);
                    assert!(!matches.is_empty());
                    let mut clusters = vec![usize::MAX; scores.len()];
                    for &(start, end, cluster) in &matches {
                        for slot in clusters[start - split..end - split].iter_mut() {
                            *slot = cluster;
                        }
                    }
                    assert!(
                        clusters.iter().all(|&c| c != usize::MAX),
                        "segments must cover the span"
                    );
                    Oracle {
                        flags: ksigma_detect(&scores, &self.model.cfg.threshold),
                        segments: matches.iter().map(|&(s, e, _)| (s, e)).collect(),
                        scores,
                        clusters,
                    }
                })
                .collect()
        })
    }
}

static SETUP: OnceLock<Setup> = OnceLock::new();

/// [`quick_cfg`] fitted on the `tiny` profile, once per test binary.
pub fn setup() -> &'static Setup {
    SETUP.get_or_init(|| {
        let setup = Setup::fit(&DatasetProfile::tiny(), quick_cfg());
        assert!(
            !setup.counter_cols.is_empty(),
            "tiny catalog must keep at least one counter group"
        );
        setup
    })
}

pub fn engine_cfg(setup: &Setup, shards: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(setup.ds.split);
    cfg.n_shards = shards;
    cfg.smooth_window = 1;
    cfg.reorder_bound = REORDER_BOUND;
    cfg.blackout_gap = BLACKOUT_GAP;
    cfg
}

/// One uninterrupted run — the reference every lifecycle variant must
/// reproduce bit for bit.
pub fn run_uninterrupted(setup: &Setup, stream: &[Tick], cfg: EngineConfig) -> EngineReport {
    let engine = Engine::new(Arc::clone(&setup.model), cfg);
    for chunk in stream.chunks(CHUNK) {
        engine.ingest(chunk.to_vec()).expect("stream shard alive");
    }
    engine.finish()
}

/// Everything a checkpoint-at-`cut` lifecycle produced, reassembled.
pub struct CutRun {
    /// Prefix verdicts (drained by the checkpoint) + tail verdicts,
    /// re-sorted by `(node, step)` — directly comparable to an
    /// uninterrupted [`EngineReport::verdicts`].
    pub verdicts: Vec<Verdict>,
    /// The snapshot's wire bytes, for byte-stability checks.
    pub bytes: Vec<u8>,
    /// Report of the engine that replayed the tail.
    pub tail_report: EngineReport,
}

/// Ingest `stream[..cut]`, checkpoint, kill the first engine, restore a
/// second one from the snapshot *bytes* with `post_cfg`, replay
/// `stream[cut..]`, and stitch the verdict sets back together.
pub fn run_with_restore(
    setup: &Setup,
    stream: &[Tick],
    cut: usize,
    pre_cfg: EngineConfig,
    post_cfg: EngineConfig,
) -> CutRun {
    let engine = Engine::new(Arc::clone(&setup.model), pre_cfg);
    for chunk in stream[..cut].chunks(CHUNK) {
        engine.ingest(chunk.to_vec()).expect("prefix shard alive");
    }
    let ckpt = engine.checkpoint().expect("checkpoint");
    // The first engine dies here *without* finish(): anything it would
    // have emitted past the cut must be reproduced by the restored one.
    drop(engine);
    let restored =
        Engine::restore_bytes(Arc::clone(&setup.model), post_cfg, &ckpt.bytes).expect("restore");
    for chunk in stream[cut..].chunks(CHUNK) {
        restored.ingest(chunk.to_vec()).expect("tail shard alive");
    }
    let tail_report = restored.finish();
    let mut verdicts = ckpt.verdicts;
    verdicts.extend(tail_report.verdicts.iter().cloned());
    verdicts.sort_by_key(|v| (v.node, v.step));
    CutRun {
        verdicts,
        bytes: ckpt.bytes,
        tail_report,
    }
}

/// Bit-level verdict equality: node, step, score bits, flag, cluster,
/// and kind must all agree, element by element.
pub fn assert_verdicts_identical(got: &[Verdict], want: &[Verdict], tag: &str) {
    assert_eq!(
        got.len(),
        want.len(),
        "{tag}: verdict count {} vs {}",
        got.len(),
        want.len()
    );
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            (g.node, g.step),
            (w.node, w.step),
            "{tag}: verdict identity diverged"
        );
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "{tag}: score bits diverged at node {} step {}: {} vs {}",
            g.node,
            g.step,
            g.score,
            w.score
        );
        assert_eq!(
            g.anomalous, w.anomalous,
            "{tag}: flag diverged at node {} step {}",
            g.node, g.step
        );
        assert_eq!(
            g.cluster, w.cluster,
            "{tag}: cluster diverged at node {} step {}",
            g.node, g.step
        );
        assert_eq!(
            g.kind, w.kind,
            "{tag}: kind diverged at node {} step {}",
            g.node, g.step
        );
    }
}
