//! Shared harness for the elastic-lifecycle differential suites
//! (`checkpoint_equivalence.rs`, `reshard_equivalence.rs`,
//! `proptest_snapshot.rs`): one tiny dataset, one fitted model, one
//! step-major clean tick stream, and the checkpoint/restore replay
//! helpers that every suite holds against an uninterrupted run.
#![allow(dead_code, unused_imports)]

pub mod envelope;
pub use envelope::tagged;

use nodesentry::core::{CoarseConfig, NodeInput, NodeSentry, NodeSentryConfig, SharingConfig};
use nodesentry::features::FeatureCatalog;
use nodesentry::stream::{Engine, EngineConfig, EngineReport, Tick, Verdict};
use nodesentry::telemetry::{Dataset, DatasetProfile};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

pub const CHUNK: usize = 256;
pub const REORDER_BOUND: usize = 16;
pub const BLACKOUT_GAP: usize = 48;

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
    pub model: Arc<NodeSentry>,
    /// Step-major clean feed: every node's tick for step 0, then step 1, …
    pub clean: Vec<Tick>,
    /// Raw column count of the preprocessor input (for fault-plan specs).
    pub n_cols: usize,
    /// Raw columns feeding kept cumulative counter groups.
    pub counter_cols: Vec<usize>,
}

static SETUP: OnceLock<Setup> = OnceLock::new();

pub fn setup() -> &'static Setup {
    SETUP.get_or_init(|| {
        let ds = DatasetProfile::tiny().generate();
        let groups = ds.catalog.group_ids();
        let inputs: Vec<NodeInput> = (0..ds.n_nodes())
            .map(|n| NodeInput {
                raw: ds.raw_node(n),
                transitions: ds
                    .schedule
                    .node_timeline(n)
                    .iter()
                    .map(|s| s.start)
                    .filter(|&s| s > 0)
                    .collect(),
            })
            .collect();
        let model = NodeSentry::fit(quick_cfg(), &inputs, &groups, ds.split);
        let pp = &model.preprocessor;
        let n_cols = pp.groups.len();
        let counter_cols: Vec<usize> = (0..n_cols)
            .filter(|&c| pp.counters[pp.groups[c]] && pp.kept.contains(&pp.groups[c]))
            .collect();
        let transition_sets: Vec<HashSet<usize>> = inputs
            .iter()
            .map(|i| i.transitions.iter().copied().collect())
            .collect();
        let mut clean = Vec::new();
        for step in 0..ds.horizon() {
            for (node, input) in inputs.iter().enumerate() {
                clean.push(Tick {
                    node,
                    step,
                    values: input.raw.row(step).to_vec(),
                    transition: transition_sets[node].contains(&step),
                });
            }
        }
        Setup {
            ds,
            model: Arc::new(model),
            clean,
            n_cols,
            counter_cols,
        }
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
