//! `ns-stream` — sharded streaming deployment of a trained
//! [`NodeSentry`] detector, hardened against malformed feeds.
//!
//! The batch API ([`NodeSentry::score_node`]) scores a node from its full
//! raw matrix after the fact. A monitoring deployment instead sees one
//! telemetry sample per node per sampling step — a [`Tick`], defined in
//! `ns-wire` beside the codec that frames it — and must emit verdicts as
//! the data arrives. This crate provides that path without changing the
//! answer: every stage of the batch pipeline is replayed incrementally —
//!
//! * [`StreamingPreprocessor`] applies a fitted [`Preprocessor`] one raw
//!   row at a
//!   time. Linear NaN interpolation is anti-causal (a gap is filled once
//!   the next observation arrives), so rows are emitted behind a
//!   per-column resolution watermark and back-filled exactly as the batch
//!   code would. Each emitted [`PreRow`] also carries fault annotations:
//!   whether the input row was entirely NaN, and whether a kept
//!   cumulative counter went backwards (a collector restart).
//! * [`NodeState`] assembles preprocessed test rows into job segments at
//!   transition ticks, pattern-matches each segment's probe head against
//!   the cluster library once `match_period` rows exist, scores the
//!   segment through the matched shared model once it has closed (the
//!   positional encoding spans the whole segment, so scores finalize
//!   there), applies the per-segment baseline normalization, and feeds a
//!   node-level [`StreamingSmoother`] → [`StreamingKSigma`] chain. Ready
//!   probes and closed segments queue on the node until they are handed
//!   out as *scoring jobs*.
//! * [`Engine`] shards nodes across a worker pool over bounded channels
//!   (ingest blocks when a shard falls behind — backpressure, not
//!   unbounded buffering). After every tick batch a shard hands each
//!   ready probe and closed segment to the thread pool as one job and
//!   goes back to its queue; finished jobs are applied at the next batch
//!   boundary in per-node order, and every synchronous path (checkpoint,
//!   flush, blackout reset, quarantine) first drains them. The engine
//!   returns every [`Verdict`] plus deployment cost statistics and
//!   [`FaultCounters`].
//!
//! # Fault model & degraded mode
//!
//! A production feed violates the clean contract (per node: one tick per
//! step, in order, no gaps) in well-known ways. [`NodeState::offer`]
//! survives all of them instead of asserting:
//!
//! * **Late & duplicate ticks** (`step < next`, or already buffered) are
//!   rejected and counted — at-least-once transport heals to
//!   exactly-once.
//! * **Out-of-order ticks** (`step > next`) wait in a bounded reorder
//!   buffer and are ingested once the gap closes; a reorder displaced by
//!   at most `reorder_bound` is healed bit-exactly.
//! * **Dropped ticks**: when the buffer spans more than `reorder_bound`
//!   steps, the oldest missing step is synthesized as an all-NaN row (the
//!   preprocessor interpolates it like any lost sample). Synthesized
//!   steps never receive a verdict, and their segment is marked
//!   [`VerdictKind::Degraded`].
//! * **Blackout + rejoin**: a gap of at least `blackout_gap` steps resets
//!   the node — the old state is flushed (degraded), preprocessing,
//!   smoothing and thresholding restart, and the node resyncs at the
//!   rejoin step. The first segment after rejoin is degraded; afterwards
//!   scores realign with the batch oracle at the next job transition.
//! * **NaN bursts** and **counter resets** are detected from the data
//!   (all-NaN input rows; kept counter groups decreasing) and degrade the
//!   enclosing segment.
//! * **Stuck sensors** are detected by exact-repeat run length: when at
//!   least a quarter of the watched (non-counter) columns repeat their
//!   value for 8 consecutive delivered ticks, the run's rows
//!   are marked faulty and degrade their segment.
//! * **Worker panics** (e.g. the [`EngineConfig::panic_at`] chaos hook)
//!   are caught per tick; the offending node is quarantined and its
//!   subsequent ticks dropped, while every other node keeps streaming.
//!
//! On a clean feed none of these paths fire and the engine remains
//! bit-identical to batch scoring (`tests/stream_equivalence.rs`); the
//! differential fault-tolerance suite (`tests/fault_tolerance.rs`) proves
//! the degraded-mode contract per fault class against
//! `ns-telemetry::faults`.
//!
//! # Observability
//!
//! The engine publishes live metrics into the global `ns-obs` registry
//! (see [`metrics`] for the full name table): per-shard queue-depth and
//! reorder-buffer gauges, ingest/match/score latency histograms, verdict
//! counters by kind, and a live per-class bridge of [`FaultCounters`] —
//! the same numbers as the end-of-run [`EngineReport`], but moving while
//! the stream runs. [`Engine::serve_metrics`] exposes everything over a
//! Prometheus `/metrics` endpoint. All of it is disabled by default and
//! observes only timings and counts, never pipeline data, so enabling it
//! cannot change a verdict bit (`tests/obs_equivalence.rs`).
//!
//! [`NodeSentry`]: nodesentry_core::NodeSentry
//! [`NodeSentry::score_node`]: nodesentry_core::NodeSentry::score_node
//! [`Preprocessor`]: nodesentry_core::Preprocessor
//! [`StreamingSmoother`]: ns_eval::streaming::StreamingSmoother
//! [`StreamingKSigma`]: ns_eval::streaming::StreamingKSigma

mod engine;
pub mod ingest;
pub mod metrics;
mod node;
mod preprocess;
mod shard;
pub mod snapshot;
pub mod status;

use crate::snapshot::SnapshotError;
use serde::{Deserialize, Serialize};

pub use engine::{Engine, EngineCheckpoint, EngineConfig, EngineReport};
pub use node::NodeState;
/// Re-exported from [`ns_wire`]: the engine's scoring tier is announced
/// on Hello frames and validated at snapshot restore, so one type serves
/// config, wire and snapshot layers.
pub use ns_wire::ScoringPrecision;
/// Re-exported from [`ns_wire`], which frames it: the one sample type of
/// the in-process, simulated and over-the-wire feeds.
pub use ns_wire::Tick;
pub use preprocess::{PreRow, StreamingPreprocessor};

/// How trustworthy a verdict is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictKind {
    /// The full clean pipeline produced this verdict; it is bit-identical
    /// to what batch scoring of the same data would emit.
    Ok,
    /// A stream fault touched this verdict's segment (synthesized rows,
    /// NaN bursts, counter resets, stuck sensors, or a blackout resync):
    /// the score is a best effort, not the batch answer.
    Degraded,
}

/// One detection outcome for one node at one step of the test span.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    pub node: usize,
    /// Global step index (`>= split`).
    pub step: usize,
    /// Normalized anomaly score — identical to the batch
    /// [`NodeSentry::score_node`](nodesentry_core::NodeSentry::score_node)
    /// value at this step when `kind` is
    /// [`VerdictKind::Ok`].
    pub score: f64,
    /// Dynamic-threshold decision on the smoothed score.
    pub anomalous: bool,
    /// Cluster whose shared model scored this step's segment.
    pub cluster: usize,
    /// Whether stream faults degraded this verdict.
    pub kind: VerdictKind,
    /// Scoring tier that produced `score` ([`EngineConfig::scoring_precision`]).
    pub precision: ScoringPrecision,
}

/// Typed failures of the streaming engine. Injected stream faults are
/// *not* errors — they are absorbed and counted in [`FaultCounters`];
/// these are the conditions that make the engine itself unusable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A shard's worker is gone and its queue rejects ticks.
    ShardClosed { shard: usize },
    /// The model has no shared experts to score segments with.
    NoSharedModels,
    /// The OS refused to spawn a worker thread.
    SpawnFailed(String),
    /// Snapshot bytes were unusable at restore (or incompatible with the
    /// model/config they were restored against).
    Snapshot(SnapshotError),
    /// A shard died between acknowledging a checkpoint request and
    /// replying with its state.
    CheckpointIncomplete { got: usize, want: usize },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ShardClosed { shard } => {
                write!(f, "stream shard {shard} is closed")
            }
            EngineError::NoSharedModels => {
                write!(f, "model has no shared experts; nothing can score segments")
            }
            EngineError::SpawnFailed(e) => write!(f, "failed to spawn stream worker: {e}"),
            EngineError::Snapshot(e) => write!(f, "snapshot: {e}"),
            EngineError::CheckpointIncomplete { got, want } => {
                write!(f, "checkpoint incomplete: {got} of {want} shards replied")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> Self {
        EngineError::Snapshot(e)
    }
}

/// Counters for every fault class the engine absorbed, surfaced in
/// [`EngineReport`]. All zeros on a clean feed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Ticks rejected because their step was already consumed
    /// (duplicates delivered after their original, or stragglers that
    /// arrived after their step was synthesized).
    pub late_ticks: u64,
    /// Ticks rejected because an identical step was already waiting in
    /// the reorder buffer.
    pub duplicate_ticks: u64,
    /// Ticks that arrived ahead of their step and were buffered.
    pub reordered_ticks: u64,
    /// All-NaN rows synthesized for steps that never arrived.
    pub synthesized_rows: u64,
    /// Delivered rows whose every value was NaN (collector up, payload
    /// lost).
    pub nan_rows: u64,
    /// Rows where a kept cumulative counter went backwards.
    pub counter_resets: u64,
    /// Rows confirmed inside a stuck-sensor run.
    pub stuck_rows: u64,
    /// Blackout resets (gap of at least `blackout_gap` steps).
    pub blackouts: u64,
    /// Ticks whose payload width didn't match the model.
    pub malformed_ticks: u64,
    /// Nodes quarantined after a worker panic in their state.
    pub quarantined_nodes: u64,
    /// Ticks dropped because their node was quarantined.
    pub quarantine_dropped: u64,
    /// Verdicts withheld for synthesized (never-delivered) steps.
    pub suppressed_verdicts: u64,
    /// Verdicts emitted with [`VerdictKind::Degraded`].
    pub degraded_verdicts: u64,
    /// Whole workers lost to a panic outside the per-tick guard.
    pub worker_crashes: u64,
}

impl FaultCounters {
    pub fn merge(&mut self, other: &FaultCounters) {
        self.late_ticks += other.late_ticks;
        self.duplicate_ticks += other.duplicate_ticks;
        self.reordered_ticks += other.reordered_ticks;
        self.synthesized_rows += other.synthesized_rows;
        self.nan_rows += other.nan_rows;
        self.counter_resets += other.counter_resets;
        self.stuck_rows += other.stuck_rows;
        self.blackouts += other.blackouts;
        self.malformed_ticks += other.malformed_ticks;
        self.quarantined_nodes += other.quarantined_nodes;
        self.quarantine_dropped += other.quarantine_dropped;
        self.suppressed_verdicts += other.suppressed_verdicts;
        self.degraded_verdicts += other.degraded_verdicts;
        self.worker_crashes += other.worker_crashes;
    }

    /// Every counter as a `(class, value)` pair, in declaration order.
    /// The class names double as the `class` label values of the live
    /// `ns_stream_faults_total` metric (see [`metrics`]).
    pub fn as_pairs(&self) -> [(&'static str, u64); 14] {
        [
            ("late_ticks", self.late_ticks),
            ("duplicate_ticks", self.duplicate_ticks),
            ("reordered_ticks", self.reordered_ticks),
            ("synthesized_rows", self.synthesized_rows),
            ("nan_rows", self.nan_rows),
            ("counter_resets", self.counter_resets),
            ("stuck_rows", self.stuck_rows),
            ("blackouts", self.blackouts),
            ("malformed_ticks", self.malformed_ticks),
            ("quarantined_nodes", self.quarantined_nodes),
            ("quarantine_dropped", self.quarantine_dropped),
            ("suppressed_verdicts", self.suppressed_verdicts),
            ("degraded_verdicts", self.degraded_verdicts),
            ("worker_crashes", self.worker_crashes),
        ]
    }

    /// Total ticks rejected without reaching the pipeline.
    pub fn rejected(&self) -> u64 {
        self.late_ticks + self.duplicate_ticks + self.malformed_ticks + self.quarantine_dropped
    }

    /// True when no fault path fired at all (clean feed).
    pub fn is_clean(&self) -> bool {
        *self == FaultCounters::default()
    }
}

/// Deployment-cost counters accumulated by one node (merged per shard).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Raw ticks ingested.
    pub n_ticks: u64,
    /// Pattern-matching cycles performed.
    pub n_matches: u64,
    /// Seconds spent in probe feature extraction + library matching.
    pub match_seconds: f64,
    /// Seconds spent in model scoring + thresholding.
    pub score_seconds: f64,
    /// Test-span points given a verdict.
    pub n_points: u64,
}

impl StreamStats {
    pub fn merge(&mut self, other: &StreamStats) {
        self.n_ticks += other.n_ticks;
        self.n_matches += other.n_matches;
        self.match_seconds += other.match_seconds;
        self.score_seconds += other.score_seconds;
        self.n_points += other.n_points;
    }

    /// Seconds per pattern-matching cycle (the paper's §5.1 match cost, 5.11 s).
    pub fn match_s_per_cycle(&self) -> f64 {
        self.match_seconds / (self.n_matches.max(1) as f64)
    }

    /// Milliseconds of scoring compute per detected point.
    pub fn point_latency_ms(&self) -> f64 {
        self.score_seconds * 1e3 / (self.n_points.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_counters_merge_and_report_clean() {
        let mut a = FaultCounters {
            late_ticks: 2,
            blackouts: 1,
            ..Default::default()
        };
        let b = FaultCounters {
            late_ticks: 3,
            degraded_verdicts: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.late_ticks, 5);
        assert_eq!(a.blackouts, 1);
        assert_eq!(a.degraded_verdicts, 7);
        assert!(!a.is_clean());
        assert!(FaultCounters::default().is_clean());
        assert_eq!(a.rejected(), 5);
    }
}
