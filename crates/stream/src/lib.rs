//! `ns-stream` — sharded streaming deployment of a trained
//! [`NodeSentry`] detector, hardened against malformed feeds.
//!
//! The batch API ([`NodeSentry::score_node`]) scores a node from its full
//! raw matrix after the fact. A monitoring deployment instead sees one
//! telemetry sample per node per sampling step and must emit verdicts as
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
//!   probes and closed segments queue on the node; a *scoring phase*
//!   works the queue off.
//! * [`Engine`] shards nodes across a worker pool over bounded channels
//!   (ingest blocks when a shard falls behind — backpressure, not
//!   unbounded buffering), runs one scoring phase per shard after every
//!   tick batch — everything ready across the shard's nodes goes through
//!   one `score_series_batch` call per shared model, fanned over the
//!   shard's share of the thread pool — and returns every
//!   [`Verdict`] plus deployment cost statistics and [`FaultCounters`].
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
//!   value for `stuck_run` consecutive delivered ticks, the run's rows
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

pub mod ingest;
pub mod metrics;
pub mod snapshot;
pub mod status;

use crate::metrics::{ingest_seconds, node_metrics, snapshot_metrics, ShardMetrics};
use crate::snapshot::{EngineSnapshot, JobSnap, NodeSnap, PendingSnap, PreSnap, SnapshotError};
use nodesentry_core::coarse;
use nodesentry_core::{NodeSentry, Preprocessor};
use ns_eval::streaming::{StreamingKSigma, StreamingSmoother};
use ns_linalg::matrix::Matrix;
use ns_obs::events::{self, EventKind};
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

pub use nodesentry_core::Tick;
/// Re-exported from [`ns_wire`]: the engine's scoring tier is announced
/// on Hello frames and validated at snapshot restore, so one type serves
/// config, wire and snapshot layers.
pub use ns_wire::ScoringPrecision;

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
    /// [`NodeSentry::score_node`] value at this step when `kind` is
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

// ---------------------------------------------------------------------
// Streaming preprocessing
// ---------------------------------------------------------------------

/// One finalized preprocessed row plus fault annotations derived from the
/// raw data that produced it.
#[derive(Clone, Debug)]
pub struct PreRow {
    /// Aggregated, rate-converted, pruned, standardized values — the
    /// exact batch [`Preprocessor::transform`] row.
    pub values: Vec<f64>,
    /// The raw input row was entirely NaN (lost payload or synthesized
    /// placeholder); its values here are interpolation artifacts.
    pub all_nan: bool,
    /// A kept cumulative counter decreased at this row — the collecting
    /// daemon restarted, so the rate sample is a large negative spike.
    pub counter_reset: bool,
}

/// Streaming replay of [`Preprocessor::transform`].
///
/// Raw rows go in one at a time; preprocessed rows come out behind a
/// resolution watermark: a row is emitted once every column's value is
/// final, i.e. once each column has a later (or equal) observation that
/// pins down the batch code's linear gap interpolation. [`flush`]
/// finalizes the tail, where the batch code extends the last observation
/// forward (and zeroes never-observed columns).
///
/// Memory is bounded by the longest missing-value run, not the stream
/// length.
///
/// [`flush`]: StreamingPreprocessor::flush
pub struct StreamingPreprocessor {
    groups: Vec<usize>,
    group_counts: Vec<usize>,
    counters: Vec<bool>,
    kept: Vec<usize>,
    /// Kept aggregated counter groups — the only ones whose resets can
    /// perturb the output and therefore the only ones watched.
    reset_watch: Vec<usize>,
    mean: Vec<f64>,
    std: Vec<f64>,
    clip: f64,
    /// Raw rows not yet fully resolved; front is row `base`.
    buf: VecDeque<Vec<f64>>,
    /// Whether each buffered raw row arrived entirely NaN.
    nan_flags: VecDeque<bool>,
    base: usize,
    n_pushed: usize,
    /// Rows `[0, resolved)` have been emitted.
    resolved: usize,
    /// Per raw column: index of the latest observed (non-NaN) row.
    last_obs: Vec<Option<usize>>,
    /// Per raw column: value at `last_obs` (for gap and tail filling).
    last_val: Vec<f64>,
    /// Per aggregated counter column: previous cumulative value.
    rate_prev: Vec<f64>,
    any_row: bool,
}

impl StreamingPreprocessor {
    pub fn new(pre: &Preprocessor) -> Self {
        let n_groups = pre.counters.len();
        let mut group_counts = vec![0usize; n_groups];
        for &g in &pre.groups {
            group_counts[g] += 1;
        }
        let reset_watch = pre
            .kept
            .iter()
            .copied()
            .filter(|&g| pre.counters[g])
            .collect();
        StreamingPreprocessor {
            groups: pre.groups.clone(),
            group_counts,
            counters: pre.counters.clone(),
            kept: pre.kept.clone(),
            reset_watch,
            mean: pre.standardizer.mean.clone(),
            std: pre.standardizer.std.clone(),
            clip: pre.standardizer.clip,
            buf: VecDeque::new(),
            nan_flags: VecDeque::new(),
            base: 0,
            n_pushed: 0,
            resolved: 0,
            last_obs: vec![None; pre.groups.len()],
            last_val: vec![0.0; pre.groups.len()],
            rate_prev: vec![0.0; n_groups],
            any_row: false,
        }
    }

    /// Raw row width this preprocessor expects.
    pub fn width(&self) -> usize {
        self.groups.len()
    }

    /// Ingest one raw row; returns the preprocessed rows that became
    /// final (in row order), possibly none during a missing-value run.
    pub fn push(&mut self, raw_row: &[f64]) -> Vec<PreRow> {
        // Width is guarded upstream: the engine counts wrong-width ticks
        // as malformed before they reach any node state.
        assert_eq!(raw_row.len(), self.groups.len(), "raw row width");
        let r = self.n_pushed;
        self.buf.push_back(raw_row.to_vec());
        self.nan_flags.push_back(raw_row.iter().all(|v| v.is_nan()));
        self.n_pushed += 1;
        for (c, &v) in raw_row.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            match self.last_obs[c] {
                Some(p) => {
                    if r > p + 1 {
                        // Batch `interpolate_missing` gap fill, verbatim.
                        let a = self.last_val[c];
                        let b = v;
                        let gap = (r - p) as f64;
                        for k in p + 1..r {
                            let t = (k - p) as f64 / gap;
                            self.buf[k - self.base][c] = a + (b - a) * t;
                        }
                    }
                }
                None => {
                    // Head fill: leading NaNs take the first observation.
                    for k in 0..r {
                        self.buf[k - self.base][c] = v;
                    }
                }
            }
            self.last_obs[c] = Some(r);
            self.last_val[c] = v;
        }
        self.drain_watermark()
    }

    /// End of stream: tail-fill every column (never-observed columns
    /// become zero, like the batch code) and emit the remaining rows.
    pub fn flush(&mut self) -> Vec<PreRow> {
        for (c, lo) in self.last_obs.iter().enumerate() {
            let (from, fill) = match lo {
                Some(l) => (l + 1, self.last_val[c]),
                None => (0, 0.0),
            };
            for k in from.max(self.base)..self.n_pushed {
                self.buf[k - self.base][c] = fill;
            }
        }
        let mut out = Vec::new();
        while self.resolved < self.n_pushed {
            out.push(self.emit_front());
        }
        out
    }

    /// Capture the mutable replay state (the fitted configuration lives
    /// in the model and is not duplicated here).
    pub fn state(&self) -> PreSnap {
        PreSnap {
            buf: self.buf.iter().cloned().collect(),
            nan_flags: self.nan_flags.iter().copied().collect(),
            base: self.base,
            n_pushed: self.n_pushed,
            resolved: self.resolved,
            last_obs: self.last_obs.clone(),
            last_val: self.last_val.clone(),
            rate_prev: self.rate_prev.clone(),
            any_row: self.any_row,
        }
    }

    /// Rebuild from a fitted [`Preprocessor`] plus captured state;
    /// continues bit-identically to the original instance. Refuses
    /// state whose shape disagrees with the preprocessor (a snapshot
    /// from a different model) and state whose row cursors disagree
    /// with each other, which the next [`push`](Self::push) would
    /// otherwise meet as an out-of-range buffer index.
    pub fn restore(pre: &Preprocessor, s: PreSnap) -> Result<Self, SnapshotError> {
        let mut sp = StreamingPreprocessor::new(pre);
        let width = sp.groups.len();
        if s.last_obs.len() != width
            || s.last_val.len() != width
            || s.rate_prev.len() != sp.group_counts.len()
            || s.buf.len() != s.nan_flags.len()
            || s.buf.iter().any(|row| row.len() != width)
        {
            return Err(SnapshotError::Decode(
                "preprocessor state shape mismatch".into(),
            ));
        }
        // `buf` is rows `[base, n_pushed)`, rows before `base` are the
        // emitted ones, and gap filling writes back to the row after a
        // column's last observation — which must still be buffered.
        let cursors_agree = s.resolved == s.base
            && s.base.checked_add(s.buf.len()) == Some(s.n_pushed)
            && s.last_obs.iter().all(|lo| match *lo {
                Some(l) => l < s.n_pushed && l + 1 >= s.base,
                None => s.base == 0,
            });
        if !cursors_agree {
            return Err(SnapshotError::Decode(
                "preprocessor state cursors disagree".into(),
            ));
        }
        sp.buf = s.buf.into();
        sp.nan_flags = s.nan_flags.into();
        sp.base = s.base;
        sp.n_pushed = s.n_pushed;
        sp.resolved = s.resolved;
        sp.last_obs = s.last_obs;
        sp.last_val = s.last_val;
        sp.rate_prev = s.rate_prev;
        sp.any_row = s.any_row;
        Ok(sp)
    }

    /// Emit rows up to the minimum per-column resolution point.
    fn drain_watermark(&mut self) -> Vec<PreRow> {
        let watermark = self
            .last_obs
            .iter()
            .map(|lo| lo.map(|l| l + 1).unwrap_or(0))
            .min()
            .unwrap_or(0);
        let mut out = Vec::new();
        while self.resolved < watermark {
            out.push(self.emit_front());
        }
        out
    }

    /// Pop the front (fully resolved) raw row and run aggregation → rate
    /// conversion → pruning gather → standardization on it, matching the
    /// batch arithmetic operation for operation.
    fn emit_front(&mut self) -> PreRow {
        // Invariant: callers only reach here while `resolved < n_pushed`,
        // so the front row (and its NaN flag) is always buffered.
        let raw = self.buf.pop_front().expect("resolved row buffered");
        let all_nan = self.nan_flags.pop_front().unwrap_or(false);
        self.base += 1;
        self.resolved += 1;
        // Aggregation: accumulate in raw-column order, then divide — the
        // exact loop structure of `aggregate_groups`.
        let mut agg = vec![0.0f64; self.group_counts.len()];
        for (j, &g) in self.groups.iter().enumerate() {
            agg[g] += raw[j];
        }
        for (g, v) in agg.iter_mut().enumerate() {
            if self.group_counts[g] > 0 {
                *v /= self.group_counts[g] as f64;
            }
        }
        // Counter-reset watch: a kept cumulative group moving backwards
        // means the collecting daemon lost its history. Clean counters
        // are non-decreasing even through interpolation (linear fills
        // between observations) and tail clamping (constant), so an
        // epsilon-guarded decrease is a true reset, not rounding.
        let mut counter_reset = false;
        if self.any_row {
            for &g in &self.reset_watch {
                let prev = self.rate_prev[g];
                let eps = 1e-9 * prev.abs().max(1.0);
                if agg[g] < prev - eps {
                    counter_reset = true;
                    break;
                }
            }
        }
        // Rate conversion: first row becomes 0, later rows the difference.
        for (g, v) in agg.iter_mut().enumerate() {
            if !self.counters[g] {
                continue;
            }
            let cur = *v;
            *v = if self.any_row {
                cur - self.rate_prev[g]
            } else {
                0.0
            };
            self.rate_prev[g] = cur;
        }
        self.any_row = true;
        // Pruning gather + trimmed z-score with clipping.
        let values = self
            .kept
            .iter()
            .enumerate()
            .map(|(j, &c)| ((agg[c] - self.mean[j]) / self.std[j]).clamp(-self.clip, self.clip))
            .collect();
        PreRow {
            values,
            all_nan,
            counter_reset,
        }
    }
}

// ---------------------------------------------------------------------
// Per-node incremental detection state
// ---------------------------------------------------------------------

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

/// Provenance of one preprocessed row, tracked from tick ingestion
/// through segment close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RowKind {
    /// Delivered normally, no fault detected.
    Clean,
    /// Fabricated by the engine for a step that never arrived.
    Synthesized,
    /// Delivered but fault-tainted (all-NaN, counter reset, stuck run).
    Faulty,
}

impl RowKind {
    /// Snapshot ordinal (pinned: part of the on-disk format).
    fn to_ordinal(self) -> u8 {
        match self {
            RowKind::Clean => 0,
            RowKind::Synthesized => 1,
            RowKind::Faulty => 2,
        }
    }

    fn from_ordinal(b: u8) -> Result<Self, SnapshotError> {
        match b {
            0 => Ok(RowKind::Clean),
            1 => Ok(RowKind::Synthesized),
            2 => Ok(RowKind::Faulty),
            other => Err(SnapshotError::Decode(format!("bad row kind {other}"))),
        }
    }
}

fn kinds_to_ordinals(kinds: &[RowKind]) -> Vec<u8> {
    kinds.iter().map(|k| k.to_ordinal()).collect()
}

fn kinds_from_ordinals(bytes: &[u8]) -> Result<Vec<RowKind>, SnapshotError> {
    bytes.iter().map(|&b| RowKind::from_ordinal(b)).collect()
}

/// A score waiting for its (lagged) smoothed threshold decision.
struct PendingScore {
    step: usize,
    score: f64,
    cluster: usize,
    /// Synthesized step: feed the chain for alignment, emit nothing.
    suppress: bool,
    degraded: bool,
}

/// A closed segment waiting for a scoring phase. Rows, provenance and
/// the degraded flag are frozen at close time, so when the phase runs
/// cannot change any verdict bit.
struct SegmentJob {
    /// Global step of the segment's first row.
    start: usize,
    /// The segment's preprocessed rows (ownership moved out of the open
    /// segment — later retro-taints cannot reach a closed segment).
    rows: Vec<Vec<f64>>,
    /// Provenance per row, parallel to `rows`.
    kinds: Vec<RowKind>,
    /// Cluster from the probe match, if it was resolved before the cut.
    matched: Option<usize>,
    /// Degraded flag evaluated at close time (resync or tainted rows).
    degraded: bool,
}

/// Incremental detection state for a single node.
///
/// Drives the full online pipeline of [`NodeSentry::score_node`] +
/// smoothing + k-sigma from one tick at a time. Scores for a segment are
/// emitted after the segment closes (next job transition or flush): the
/// shared model's positional encoding is relative to the whole segment,
/// so earlier emission would change the answer.
///
/// Unlike the clean-contract version, [`offer`](NodeState::offer)
/// tolerates arbitrary arrival order: late and duplicate ticks are
/// rejected, early ticks wait in a bounded reorder buffer, persistent
/// gaps are synthesized as lost samples, and long gaps trigger a full
/// blackout resync. See the crate docs for the fault model.
pub struct NodeState {
    model: Arc<NodeSentry>,
    node: usize,
    split: usize,
    /// Next step to ingest; everything below it is consumed.
    next_step: usize,
    pre: StreamingPreprocessor,
    /// Global index of the next preprocessed row to come out of `pre`.
    next_row: usize,
    /// Raw stream width (for synthesizing lost rows).
    width: usize,
    /// Pending job-transition cuts (global steps > split), in order.
    cuts: VecDeque<usize>,
    /// Current segment's preprocessed rows (test span only).
    seg_rows: Vec<Vec<f64>>,
    /// Provenance of each current-segment row, parallel to `seg_rows`.
    seg_row_kinds: Vec<RowKind>,
    seg_start: usize,
    /// Probe match for the current segment, once resolved.
    matched: Option<usize>,
    /// Closed segments awaiting the next scoring phase (FIFO).
    jobs: VecDeque<SegmentJob>,
    /// The open segment reached `match_period` rows; its probe match is
    /// deferred to the next scoring phase.
    probe_pending: bool,
    /// Scratch for `match_pattern_into` — the warm streaming match path
    /// allocates nothing (`crates/core/tests/match_zero_alloc.rs`).
    z_scratch: Vec<f64>,
    /// Scoring tier every verdict from this node is tagged with.
    precision: ScoringPrecision,
    smoother: StreamingSmoother,
    detector: StreamingKSigma,
    /// Scores awaiting their (lagged) smoothed verdict.
    pending: VecDeque<PendingScore>,
    /// Early ticks waiting for their gap to close, keyed by step.
    ahead: BTreeMap<usize, Tick>,
    reorder_bound: usize,
    blackout_gap: usize,
    stuck_run: usize,
    smooth_window: usize,
    /// Provenance of rows pushed into `pre` but not yet absorbed; front
    /// corresponds to global row `next_row`.
    row_kinds: VecDeque<RowKind>,
    /// The segment being assembled spans a blackout resync; its scores
    /// cannot match the batch oracle's segmentation.
    resync_degraded: bool,
    /// Stuck-sensor watch: last delivered value and exact-repeat run
    /// length per raw column (non-counter columns only — idle counters
    /// legitimately repeat).
    prev_raw: Vec<f64>,
    runs: Vec<u32>,
    stuck_watch: Vec<bool>,
    n_watch: usize,
    pub stats: StreamStats,
    pub faults: FaultCounters,
}

impl NodeState {
    pub fn new(model: Arc<NodeSentry>, node: usize, cfg: &EngineConfig) -> Self {
        let pre = StreamingPreprocessor::new(&model.preprocessor);
        let detector = StreamingKSigma::new(model.cfg.threshold);
        let width = pre.width();
        let stuck_watch: Vec<bool> = model
            .preprocessor
            .groups
            .iter()
            .map(|&g| !model.preprocessor.counters[g])
            .collect();
        let n_watch = stuck_watch.iter().filter(|&&w| w).count();
        NodeState {
            model,
            node,
            split: cfg.split,
            next_step: 0,
            pre,
            next_row: 0,
            width,
            cuts: VecDeque::new(),
            seg_rows: Vec::new(),
            seg_row_kinds: Vec::new(),
            seg_start: 0,
            matched: None,
            jobs: VecDeque::new(),
            probe_pending: false,
            z_scratch: Vec::new(),
            precision: cfg.scoring_precision,
            smoother: StreamingSmoother::new(cfg.smooth_window),
            detector,
            pending: VecDeque::new(),
            ahead: BTreeMap::new(),
            reorder_bound: cfg.reorder_bound.max(1),
            blackout_gap: cfg.blackout_gap.max(2),
            stuck_run: cfg.stuck_run.max(2),
            smooth_window: cfg.smooth_window,
            row_kinds: VecDeque::new(),
            resync_degraded: false,
            prev_raw: vec![f64::NAN; width],
            runs: vec![0; width],
            stuck_watch,
            n_watch,
            stats: StreamStats::default(),
            faults: FaultCounters::default(),
        }
    }

    /// Offer one tick in arbitrary arrival order. A segment the tick
    /// closes is queued, not scored: its verdicts come out of the shard's
    /// next scoring phase (inside an [`Engine`]) or of
    /// [`NodeState::flush`] (driven inline), so the only verdicts
    /// returned here are those a blackout reset flushes. Never panics on
    /// malformed sequencing: out-of-contract ticks are buffered,
    /// rejected, or synthesized around, and counted in
    /// [`NodeState::faults`].
    pub fn offer(&mut self, tick: &Tick) -> Vec<Verdict> {
        debug_assert_eq!(tick.node, self.node, "tick routed to wrong node state");
        self.stats.n_ticks += 1;
        if tick.step < self.next_step {
            // Already consumed (duplicate after original, or a straggler
            // whose step was synthesized past).
            self.faults.late_ticks += 1;
            return Vec::new();
        }
        if tick.step > self.next_step {
            match self.ahead.entry(tick.step) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(tick.clone());
                    self.faults.reordered_ticks += 1;
                }
                std::collections::btree_map::Entry::Occupied(_) => {
                    self.faults.duplicate_ticks += 1;
                    return Vec::new();
                }
            }
            return self.settle();
        }
        self.ingest_now(tick);
        self.settle()
    }

    /// Drain the reorder buffer as far as policy allows: contiguous ticks
    /// ingest immediately, a gap of `blackout_gap` resets the node, and a
    /// buffer spanning more than `reorder_bound` steps forces the oldest
    /// missing step to be synthesized (the straggler is declared lost).
    fn settle(&mut self) -> Vec<Verdict> {
        let mut out = Vec::new();
        loop {
            while let Some(t) = self.ahead.remove(&self.next_step) {
                self.ingest_now(&t);
            }
            let Some((&front, _)) = self.ahead.first_key_value() else {
                break;
            };
            if front - self.next_step >= self.blackout_gap {
                out.extend(self.blackout_reset(front));
                continue;
            }
            // Invariant: the map is non-empty, so a last key exists.
            let span = match self.ahead.last_key_value() {
                Some((&last, _)) => last - self.next_step,
                None => break,
            };
            if span > self.reorder_bound {
                self.ingest_missing();
            } else {
                break; // wait for the straggler
            }
        }
        out
    }

    /// Ingest the tick for exactly `next_step`.
    fn ingest_now(&mut self, tick: &Tick) {
        let kind = self.observe_raw(tick.step, &tick.values);
        self.next_step += 1;
        // Batch segmentation keeps transitions strictly inside the test
        // span: `t > split && t < horizon`.
        if tick.transition && tick.step > self.split {
            self.cuts.push_back(tick.step);
        }
        self.row_kinds.push_back(kind);
        let rows = self.pre.push(&tick.values);
        self.absorb_rows(rows);
    }

    /// Declare `next_step` lost and synthesize an all-NaN row for it; the
    /// preprocessor interpolates it like any missing sample. The step
    /// never receives a verdict.
    fn ingest_missing(&mut self) {
        self.faults.synthesized_rows += 1;
        self.next_step += 1;
        self.row_kinds.push_back(RowKind::Synthesized);
        let nan_row = vec![f64::NAN; self.width];
        let rows = self.pre.push(&nan_row);
        self.absorb_rows(rows);
    }

    /// Update the stuck-sensor watch with a delivered raw row and return
    /// the row's provenance.
    fn observe_raw(&mut self, step: usize, values: &[f64]) -> RowKind {
        let mut stuck_cols = 0usize;
        for (c, &v) in values.iter().enumerate() {
            if !self.stuck_watch[c] {
                continue;
            }
            if v.is_nan() {
                self.runs[c] = 0;
                continue;
            }
            if !self.prev_raw[c].is_nan() && v == self.prev_raw[c] {
                self.runs[c] += 1;
            } else {
                self.runs[c] = 0;
            }
            self.prev_raw[c] = v;
            if self.runs[c] >= self.stuck_run as u32 {
                stuck_cols += 1;
            }
        }
        // Continuous gauge signals essentially never repeat bit-exactly;
        // a quarter of them frozen for `stuck_run` ticks is a collector
        // fault, not chance.
        if self.n_watch > 0 && stuck_cols * 4 >= self.n_watch {
            self.faults.stuck_rows += 1;
            // The run began `stuck_run` rows back; taint those too.
            for k in step.saturating_sub(self.stuck_run)..step {
                self.mark_row_faulty(k);
            }
            return RowKind::Faulty;
        }
        RowKind::Clean
    }

    /// Retroactively taint a row discovered to be faulty after ingestion
    /// (stuck-run confirmation lags the run start). Best effort: rows
    /// whose segment already closed have emitted their verdicts.
    fn mark_row_faulty(&mut self, row: usize) {
        if row >= self.next_row {
            let i = row - self.next_row;
            if i < self.row_kinds.len() && self.row_kinds[i] == RowKind::Clean {
                self.row_kinds[i] = RowKind::Faulty;
            }
            return;
        }
        if !self.seg_rows.is_empty() && row >= self.seg_start {
            let i = row - self.seg_start;
            if i < self.seg_row_kinds.len() && self.seg_row_kinds[i] == RowKind::Clean {
                self.seg_row_kinds[i] = RowKind::Faulty;
            }
        }
    }

    /// The node went dark for at least `blackout_gap` steps: flush the
    /// stale state (degraded), then restart preprocessing, smoothing and
    /// thresholding at the rejoin step. No state leaks across the reset —
    /// the next segment is scored from scratch.
    fn blackout_reset(&mut self, resync_at: usize) -> Vec<Verdict> {
        self.faults.blackouts += 1;
        events::record(
            EventKind::Blackout,
            "",
            -1,
            self.node as i64,
            resync_at.saturating_sub(self.next_step) as u64,
            self.next_step as u64,
        );
        let out = self.flush_tail(true);
        self.pre = StreamingPreprocessor::new(&self.model.preprocessor);
        self.smoother = StreamingSmoother::new(self.smooth_window);
        self.detector = StreamingKSigma::new(self.model.cfg.threshold);
        self.cuts.clear();
        self.seg_rows.clear();
        self.seg_row_kinds.clear();
        self.row_kinds.clear();
        self.pending.clear();
        self.matched = None;
        self.jobs.clear();
        self.probe_pending = false;
        self.next_step = resync_at;
        self.next_row = resync_at;
        self.resync_degraded = true;
        self.runs.iter_mut().for_each(|r| *r = 0);
        self.prev_raw.iter_mut().for_each(|p| *p = f64::NAN);
        events::record(
            EventKind::Resync,
            "",
            -1,
            self.node as i64,
            resync_at as u64,
            self.faults.blackouts,
        );
        out
    }

    /// End of stream: resolve every remaining gap (stragglers will never
    /// arrive), flush the preprocessing tail, close the last segment, and
    /// drain the smoothing lag.
    pub fn flush(&mut self) -> Vec<Verdict> {
        let mut out = Vec::new();
        while let Some((&front, _)) = self.ahead.first_key_value() {
            if front - self.next_step >= self.blackout_gap {
                out.extend(self.blackout_reset(front));
            } else {
                while self.next_step < front {
                    self.ingest_missing();
                }
            }
            while let Some(t) = self.ahead.remove(&self.next_step) {
                self.ingest_now(&t);
            }
        }
        out.extend(self.flush_tail(false));
        out
    }

    /// Flush preprocessing + segment + smoothing lag. With `degrade`,
    /// every verdict emitted here is marked [`VerdictKind::Degraded`]
    /// (used mid-stream at blackout resets, where the tail clamp differs
    /// from what batch interpolation across the gap would produce).
    fn flush_tail(&mut self, degrade: bool) -> Vec<Verdict> {
        // Jobs queued before this flush are segments that closed before
        // it; drain them first so the degrade marking below cannot touch
        // their verdicts. (Verdicts their scores release during the
        // flush — the smoothing-lag tail — land in `out` below and are
        // marked.)
        let mut pre = self.drain_jobs();
        let rows = self.pre.flush();
        self.absorb_rows(rows);
        if !self.seg_rows.is_empty() {
            let job = self.take_open_segment();
            self.jobs.push_back(job);
        }
        let mut out = self.drain_jobs();
        let t0 = Instant::now();
        for sv in self.smoother.flush() {
            let flagged = self.detector.push(sv);
            if let Some(v) = self.emit_verdict(flagged) {
                out.push(v);
            }
        }
        self.stats.score_seconds += t0.elapsed().as_secs_f64();
        debug_assert!(self.pending.is_empty(), "scores left without verdicts");
        if degrade {
            for v in out.iter_mut() {
                if v.kind == VerdictKind::Ok {
                    v.kind = VerdictKind::Degraded;
                    self.faults.degraded_verdicts += 1;
                }
            }
        }
        pre.extend(out);
        pre
    }

    fn absorb_rows(&mut self, rows: Vec<PreRow>) {
        for prerow in rows {
            let r = self.next_row;
            self.next_row += 1;
            // Invariant: exactly one kind was queued per row pushed into
            // `pre`, so the front always exists.
            let mut kind = self.row_kinds.pop_front().unwrap_or(RowKind::Clean);
            if prerow.all_nan && kind == RowKind::Clean {
                self.faults.nan_rows += 1;
                kind = RowKind::Faulty;
            }
            if prerow.counter_reset {
                self.faults.counter_resets += 1;
                if kind == RowKind::Clean {
                    kind = RowKind::Faulty;
                }
            }
            if r < self.split {
                continue; // training span: context only
            }
            if self.cuts.front() == Some(&r) {
                self.cuts.pop_front();
                if !self.seg_rows.is_empty() {
                    // Freeze the segment now (rows, kinds, degraded flag);
                    // the next scoring phase scores it.
                    let job = self.take_open_segment();
                    self.jobs.push_back(job);
                }
            }
            if self.seg_rows.is_empty() {
                self.seg_start = r;
            }
            self.seg_rows.push(prerow.values);
            self.seg_row_kinds.push(kind);
            // Early pattern matching: the probe is the segment's first
            // `match_period` rows, available long before the segment
            // closes. This is the deployment's per-transition match cycle;
            // the next scoring phase resolves it over the frozen probe
            // rows.
            if self.matched.is_none() && self.seg_rows.len() == self.model.cfg.match_period {
                self.probe_pending = true;
            }
        }
    }

    /// Freeze the open segment into a [`SegmentJob`]: rows, provenance
    /// and the degraded flag are evaluated here, at close time, so a job
    /// scored later yields the same verdict bits.
    fn take_open_segment(&mut self) -> SegmentJob {
        let rows = std::mem::take(&mut self.seg_rows);
        let kinds = std::mem::take(&mut self.seg_row_kinds);
        // Any tainted row poisons the whole segment: scoring is
        // segment-local (positional encoding + baseline), so no verdict
        // in it can claim batch equivalence.
        let degraded = self.resync_degraded || kinds.iter().any(|&k| k != RowKind::Clean);
        self.resync_degraded = false;
        self.probe_pending = false;
        SegmentJob {
            start: self.seg_start,
            rows,
            kinds,
            matched: self.matched.take(),
            degraded,
        }
    }

    /// Push one scored segment through the smoothing → k-sigma chain;
    /// returns finalized verdicts. `cost_share` is this segment's share
    /// of scoring wall time (the batch's elapsed, split by rows).
    fn apply_scored(
        &mut self,
        job: SegmentJob,
        cluster: usize,
        scores: Vec<f64>,
        cost_share: f64,
    ) -> Vec<Verdict> {
        let mut out = Vec::new();
        for (k, score) in scores.into_iter().enumerate() {
            let suppress = job.kinds[k] == RowKind::Synthesized;
            self.pending.push_back(PendingScore {
                step: job.start + k,
                score,
                cluster,
                suppress,
                degraded: job.degraded,
            });
            for sv in self.smoother.push(score) {
                let flagged = self.detector.push(sv);
                if let Some(v) = self.emit_verdict(flagged) {
                    out.push(v);
                }
            }
        }
        let n_rows = job.rows.len();
        self.stats.score_seconds += cost_share;
        let nm = node_metrics();
        nm.score_seconds.observe(cost_share);
        if n_rows > 0 {
            nm.point_seconds
                .observe_n(cost_share / n_rows as f64, n_rows as u64);
        }
        out
    }

    /// Probe matches waiting for the scoring phase: queued jobs that
    /// closed before reaching `match_period` rows, plus the open
    /// segment's pending probe.
    fn pending_probe_count(&self) -> u64 {
        self.probe_pending as u64 + self.jobs.iter().filter(|j| j.matched.is_none()).count() as u64
    }

    /// Deferred work for the shard's scoring phase to pick up?
    fn has_deferred_work(&self) -> bool {
        !self.jobs.is_empty() || self.probe_pending
    }

    /// Resolve every deferred probe match: the open segment's pending
    /// probe and any queued job that closed unmatched. Matching reads
    /// only frozen row values, so the cluster does not depend on when
    /// this runs.
    fn resolve_probes(&mut self) {
        if self.probe_pending {
            self.probe_pending = false;
            if !self.seg_rows.is_empty() {
                let plen = self.model.cfg.match_period.clamp(1, self.seg_rows.len());
                self.matched = Some(match_probe_rows(
                    &self.model,
                    &mut self.z_scratch,
                    &mut self.stats,
                    &self.seg_rows,
                    plen,
                ));
            }
        }
        let period = self.model.cfg.match_period;
        for job in self.jobs.iter_mut() {
            if job.matched.is_none() && !job.rows.is_empty() {
                job.matched = Some(match_probe_rows(
                    &self.model,
                    &mut self.z_scratch,
                    &mut self.stats,
                    &job.rows,
                    period.clamp(1, job.rows.len()),
                ));
            }
        }
    }

    /// Single-node drain (flush/blackout/quarantine paths): resolve
    /// probes, score every queued job — still batched per shared model —
    /// and apply in FIFO order.
    fn drain_jobs(&mut self) -> Vec<Verdict> {
        if self.jobs.is_empty() && !self.probe_pending {
            return Vec::new();
        }
        self.resolve_probes();
        let jobs: Vec<SegmentJob> = std::mem::take(&mut self.jobs).into();
        let mut out = Vec::new();
        for (job, cluster, scores, share) in score_resolved_jobs(&self.model, jobs, self.precision)
        {
            out.extend(self.apply_scored(job, cluster, scores, share));
        }
        out
    }

    fn emit_verdict(&mut self, anomalous: bool) -> Option<Verdict> {
        // Invariant: every score entering the smoother pushed a pending
        // entry first, so one is always waiting here.
        let p = self.pending.pop_front()?;
        if p.suppress {
            self.faults.suppressed_verdicts += 1;
            return None;
        }
        self.stats.n_points += 1;
        let kind = if p.degraded {
            self.faults.degraded_verdicts += 1;
            VerdictKind::Degraded
        } else {
            VerdictKind::Ok
        };
        Some(Verdict {
            node: self.node,
            step: p.step,
            score: p.score,
            anomalous,
            cluster: p.cluster,
            kind,
            precision: self.precision,
        })
    }

    /// Capture every field that can influence a future verdict bit.
    /// Configuration-derived fields (widths, watch masks, bounds) are
    /// rebuilt from the model and [`EngineConfig`] at restore.
    fn snapshot(&self) -> NodeSnap {
        NodeSnap {
            node: self.node,
            next_step: self.next_step,
            next_row: self.next_row,
            pre: self.pre.state(),
            cuts: self.cuts.iter().copied().collect(),
            seg_start: self.seg_start,
            seg_rows: self.seg_rows.clone(),
            seg_row_kinds: kinds_to_ordinals(&self.seg_row_kinds),
            matched: self.matched,
            jobs: self
                .jobs
                .iter()
                .map(|j| JobSnap {
                    start: j.start,
                    rows: j.rows.clone(),
                    kinds: kinds_to_ordinals(&j.kinds),
                    matched: j.matched,
                    degraded: j.degraded,
                })
                .collect(),
            probe_pending: self.probe_pending,
            smoother: self.smoother.snapshot(),
            detector: self.detector.snapshot(),
            pending: self
                .pending
                .iter()
                .map(|p| PendingSnap {
                    step: p.step,
                    score: p.score,
                    cluster: p.cluster,
                    suppress: p.suppress,
                    degraded: p.degraded,
                })
                .collect(),
            ahead: self.ahead.values().cloned().collect(),
            row_kinds: self.row_kinds.iter().map(|k| k.to_ordinal()).collect(),
            resync_degraded: self.resync_degraded,
            prev_raw: self.prev_raw.clone(),
            runs: self.runs.clone(),
            stats: self.stats,
            faults: self.faults,
        }
    }

    /// Rebuild a node from its snapshot, taking over its buffers; the
    /// restored state continues bit-identically to the original.
    /// Shape-validated against the model so a mismatched snapshot errors
    /// instead of panicking later.
    fn restore(
        model: Arc<NodeSentry>,
        cfg: &EngineConfig,
        s: NodeSnap,
    ) -> Result<Self, SnapshotError> {
        let mut st = NodeState::new(model, s.node, cfg);
        if s.prev_raw.len() != st.width || s.runs.len() != st.width {
            return Err(SnapshotError::Decode(
                "stuck-watch state width mismatch".into(),
            ));
        }
        if s.seg_row_kinds.len() != s.seg_rows.len() || s.row_kinds.len() < s.pre.buf.len() {
            return Err(SnapshotError::Decode(
                "row provenance out of sync with rows".into(),
            ));
        }
        st.next_step = s.next_step;
        st.next_row = s.next_row;
        st.pre = StreamingPreprocessor::restore(&st.model.preprocessor, s.pre)?;
        st.cuts = s.cuts.into();
        st.seg_start = s.seg_start;
        st.seg_rows = s.seg_rows;
        st.seg_row_kinds = kinds_from_ordinals(&s.seg_row_kinds)?;
        st.matched = s.matched;
        st.jobs = s
            .jobs
            .into_iter()
            .map(|j| -> Result<SegmentJob, SnapshotError> {
                let kinds = kinds_from_ordinals(&j.kinds)?;
                if kinds.len() != j.rows.len() {
                    return Err(SnapshotError::Decode(
                        "job provenance out of sync with rows".into(),
                    ));
                }
                Ok(SegmentJob {
                    start: j.start,
                    rows: j.rows,
                    kinds,
                    matched: j.matched,
                    degraded: j.degraded,
                })
            })
            .collect::<Result<VecDeque<_>, _>>()?;
        st.probe_pending = s.probe_pending;
        st.smoother = StreamingSmoother::restore(cfg.smooth_window, &s.smoother);
        st.detector = StreamingKSigma::restore(st.model.cfg.threshold, &s.detector);
        st.pending = s
            .pending
            .iter()
            .map(|p| PendingScore {
                step: p.step,
                score: p.score,
                cluster: p.cluster,
                suppress: p.suppress,
                degraded: p.degraded,
            })
            .collect();
        st.ahead = s.ahead.into_iter().map(|t| (t.step, t)).collect();
        st.row_kinds = kinds_from_ordinals(&s.row_kinds)?.into();
        st.resync_degraded = s.resync_degraded;
        st.prev_raw = s.prev_raw;
        st.runs = s.runs;
        st.stats = s.stats;
        st.faults = s.faults;
        Ok(st)
    }
}

// ---------------------------------------------------------------------
// Sharded engine
// ---------------------------------------------------------------------

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// First test step; steps before it are preprocessing context.
    pub split: usize,
    /// Worker shards; nodes are routed by `node % n_shards`.
    pub n_shards: usize,
    /// Bounded per-shard queue depth (tick batches). Ingest blocks when a
    /// shard is this far behind — backpressure instead of unbounded RAM.
    pub queue_depth: usize,
    /// Smoothing window fed to the k-sigma detector.
    ///
    /// Use `1` to disable smoothing (equivalent to running batch
    /// `ksigma_detect` on raw scores), or the model's own
    /// `cfg.smooth_window` to reproduce [`NodeSentry::detect_node`]
    /// exactly.
    pub smooth_window: usize,
    /// Maximum step span the per-node reorder buffer absorbs before the
    /// oldest missing step is declared lost and synthesized.
    pub reorder_bound: usize,
    /// Gap length (in steps) treated as a node blackout: the node's state
    /// is flushed and resynced at the rejoin step instead of synthesizing
    /// the whole gap.
    pub blackout_gap: usize,
    /// Exact-repeat run length that confirms a stuck sensor.
    pub stuck_run: usize,
    /// Scoring tier (bit-critical). [`ScoringPrecision::F64`] (default)
    /// keeps streaming verdicts bit-identical to batch scoring.
    /// [`ScoringPrecision::F32`] routes segment scoring through a
    /// prebaked f32 twin of the model — faster, with an accuracy delta
    /// measured by the deployment bench rather than pinned. Probe
    /// matching is f64 in both tiers, so the matched cluster never
    /// depends on the tier. Every [`Verdict`] is tagged with the tier
    /// that produced it, snapshots refuse to restore across tiers, and
    /// wire clients can announce the tier they expect on Hello.
    pub scoring_precision: ScoringPrecision,
    /// Chaos hook: the worker panics while ingesting this `(node, step)`
    /// tick, exercising the catch_unwind + quarantine path. Testing only.
    pub panic_at: Option<(usize, usize)>,
}

impl EngineConfig {
    pub fn new(split: usize) -> Self {
        EngineConfig {
            split,
            n_shards: 2,
            queue_depth: 64,
            smooth_window: 1,
            reorder_bound: 32,
            blackout_gap: 240,
            stuck_run: 8,
            scoring_precision: ScoringPrecision::F64,
            panic_at: None,
        }
    }
}

/// Everything a finished engine run produced.
pub struct EngineReport {
    /// All verdicts, sorted by `(node, step)`.
    pub verdicts: Vec<Verdict>,
    /// Merged deployment-cost counters across shards (carried residuals
    /// from restored snapshots included).
    pub stats: StreamStats,
    /// Merged fault counters across shards (all zeros on a clean feed).
    pub faults: FaultCounters,
    /// Wall-clock seconds from engine start to finish.
    pub wall_seconds: f64,
    /// Effective worker shard count the engine actually ran with (after
    /// the `max(1)` clamp) — report this, not the requested config.
    pub n_shards: usize,
    /// Per-shard cost counters in shard order — the load-balance view
    /// (`per_shard[i].n_ticks` is shard `i`'s tick share).
    pub per_shard: Vec<StreamStats>,
}

/// Everything one shard hands back for a checkpoint.
struct ShardCheckpoint {
    nodes: Vec<NodeSnap>,
    quarantined: Vec<usize>,
    /// Verdicts finalized before the cut, drained from the worker.
    verdicts: Vec<Verdict>,
    /// Residual counters of states no longer in the map (quarantined).
    stats: StreamStats,
    faults: FaultCounters,
}

/// What flows down a shard's queue: tick batches, interleaved with
/// checkpoint barriers. The channel is FIFO, so a checkpoint cuts at a
/// well-defined batch boundary — every batch ingested before
/// [`Engine::checkpoint`] is reflected in the snapshot, everything after
/// belongs to the tail.
enum ShardMsg {
    Batch(Vec<Tick>),
    Checkpoint(mpsc::Sender<ShardCheckpoint>),
}

/// One engine checkpoint: the serialized state plus the verdicts the cut
/// finalized.
pub struct EngineCheckpoint {
    /// The captured state that [`bytes`](Self::bytes) encodes. It never
    /// went through a decoder — it is the capture itself, which is why
    /// [`Engine::restore`] can take it as it is.
    pub snapshot: EngineSnapshot,
    /// The snapshot's wire encoding ([`EngineSnapshot::to_bytes`]),
    /// produced here so callers persist exactly what was measured.
    pub bytes: Vec<u8>,
    /// Verdicts finalized before the cut, sorted by `(node, step)`.
    /// They are *drained*: a later [`Engine::finish`] returns only
    /// post-checkpoint verdicts, so prefix + tail is exactly the
    /// uninterrupted verdict set.
    pub verdicts: Vec<Verdict>,
}

/// Sharded concurrent streaming engine over a trained [`NodeSentry`].
///
/// ```ignore
/// let mut engine = Engine::new(Arc::new(model), EngineConfig::new(split));
/// for batch in tick_batches {
///     engine.ingest(batch)?;
/// }
/// let report = engine.finish();
/// ```
pub struct Engine {
    senders: Vec<mpsc::SyncSender<ShardMsg>>,
    #[allow(clippy::type_complexity)]
    workers: Vec<std::thread::JoinHandle<(Vec<Verdict>, StreamStats, FaultCounters)>>,
    n_shards: usize,
    cfg: EngineConfig,
    model_fingerprint: u64,
    /// Residuals inherited from a restored snapshot: counters of nodes
    /// that were already dead (quarantined/flushed) at checkpoint time.
    /// Merged into [`Engine::finish`] and re-carried by later
    /// checkpoints.
    carried_stats: StreamStats,
    carried_faults: FaultCounters,
    started: Instant,
    /// Per-shard in-flight batch gauges (incremented on send, decremented
    /// by the worker on receive); no-ops while ns-obs is disabled.
    queue_gauges: Vec<ns_obs::metrics::Gauge>,
    ingest_hist: ns_obs::metrics::Histogram,
}

impl Engine {
    /// Build the engine or panic on an unusable model / spawn failure.
    /// Prefer [`Engine::try_new`] where the caller can recover.
    pub fn new(model: Arc<NodeSentry>, cfg: EngineConfig) -> Self {
        Self::try_new(model, cfg).expect("engine construction")
    }

    pub fn try_new(model: Arc<NodeSentry>, cfg: EngineConfig) -> Result<Self, EngineError> {
        let model_fingerprint = model.fingerprint();
        Self::spawn(
            model,
            model_fingerprint,
            cfg,
            Vec::new(),
            StreamStats::default(),
            FaultCounters::default(),
        )
    }

    /// Spawn the worker pool, seeding shard `i` with `init[i]` (restored
    /// node states + quarantined ids) when provided. `model_fingerprint`
    /// is the caller's one digest of `model` for this engine: computed by
    /// [`Engine::try_new`], or by [`Engine::restore`] where it has just
    /// been checked against the snapshot's.
    fn spawn(
        model: Arc<NodeSentry>,
        model_fingerprint: u64,
        cfg: EngineConfig,
        mut init: Vec<(FxHashMap<usize, NodeState>, FxHashSet<usize>)>,
        carried_stats: StreamStats,
        carried_faults: FaultCounters,
    ) -> Result<Self, EngineError> {
        if model.shared_models.is_empty() {
            return Err(EngineError::NoSharedModels);
        }
        let n_shards = cfg.n_shards.max(1);
        init.resize_with(n_shards, Default::default);
        status::on_engine_spawn(model_fingerprint, n_shards, &cfg);
        metrics::install_pool_stats();
        // Oversubscription clamp: every shard worker fans its scoring
        // tasks out at `rayon::current_num_threads()` width, so an
        // unclamped engine would put `n_shards × width` runnable threads
        // on `cores` hardware threads. Cap each worker's width to its
        // fair share (at 1 its tasks run back to back on the worker).
        // Results are unaffected — every parallel combinator is bitwise
        // deterministic in the width — only scheduling changes.
        let kernel_cap = {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            let width = rayon::current_num_threads();
            let cap = (cores / n_shards).max(1);
            if n_shards.saturating_mul(width) > cores && cap < width {
                events::record(
                    EventKind::PoolClamp,
                    "kernel_width",
                    -1,
                    -1,
                    width as u64,
                    cap as u64,
                );
                Some(cap)
            } else {
                None
            }
        };
        let mut senders = Vec::with_capacity(n_shards);
        let mut workers = Vec::with_capacity(n_shards);
        let mut queue_gauges = Vec::with_capacity(n_shards);
        for (shard, (states, quarantined)) in init.drain(..).enumerate() {
            let (tx, rx) = mpsc::sync_channel::<ShardMsg>(cfg.queue_depth.max(1));
            let model = Arc::clone(&model);
            // Registration is idempotent: this resolves to the same
            // underlying gauge the worker's `ShardMetrics` decrements.
            queue_gauges.push(ns_obs::metrics::global().gauge(
                metrics::QUEUE_DEPTH,
                "Tick batches waiting in a shard's bounded queue.",
                &[("shard", &shard.to_string())],
            ));
            let handle = std::thread::Builder::new()
                .name(format!("ns-stream-{shard}"))
                .spawn(move || {
                    // Thread-local and scoped: caps every parallel
                    // dispatch this worker makes (its scoring fan-out
                    // included) without touching other shards or the
                    // caller, and is restored even if the loop unwinds.
                    rayon::with_thread_parallelism_cap(kernel_cap, || {
                        worker_loop(shard, rx, model, cfg, states, quarantined)
                    })
                })
                .map_err(|e| EngineError::SpawnFailed(e.to_string()))?;
            senders.push(tx);
            workers.push(handle);
        }
        Ok(Engine {
            senders,
            workers,
            n_shards,
            cfg,
            model_fingerprint,
            carried_stats,
            carried_faults,
            started: Instant::now(),
            queue_gauges,
            ingest_hist: ingest_seconds(),
        })
    }

    /// Rebuild an engine from a snapshot; replaying the remaining ticks
    /// produces verdicts bit-identical to the uninterrupted run. The
    /// snapshot must come from the same trained model (fingerprint) and
    /// agree on the bit-critical config fields (`split`,
    /// `smooth_window`); `cfg.n_shards` is free — node states are
    /// re-routed by `node % n_shards`, which is how live resharding and
    /// shard rebalancing work. The node states take over their buffers
    /// from one clone of `snap`; [`Engine::restore_bytes`] hands over the
    /// decoded ones and copies nothing.
    pub fn restore(
        model: Arc<NodeSentry>,
        cfg: EngineConfig,
        snap: &EngineSnapshot,
    ) -> Result<Self, EngineError> {
        Self::restore_noted(Self::restore_since(
            Instant::now(),
            model,
            cfg,
            snap.clone(),
        ))
    }

    /// [`Engine::restore`] straight from wire bytes.
    pub fn restore_bytes(
        model: Arc<NodeSentry>,
        cfg: EngineConfig,
        bytes: &[u8],
    ) -> Result<Self, EngineError> {
        let t0 = Instant::now();
        Self::restore_noted(
            EngineSnapshot::from_bytes(bytes)
                .map_err(EngineError::from)
                .and_then(|snap| Self::restore_since(t0, model, cfg, snap)),
        )
    }

    /// A refused restore — undecodable bytes, another model, another
    /// config — leaves what a failed checkpoint leaves: a `"failed"`
    /// event, a `/statusz` count and, while armed, an incident.
    fn restore_noted(res: Result<Self, EngineError>) -> Result<Self, EngineError> {
        if let Err(e) = &res {
            status::engine_status()
                .restore_failures
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            events::record(EventKind::Restore, "failed", -1, -1, 0, 0);
            if ns_obs::incident::is_armed() {
                ns_obs::incident::capture(
                    "restore_failure",
                    &format!("engine restore failed: {e}"),
                );
            }
        }
        res
    }

    /// [`Engine::restore`] of an owned snapshot, with the
    /// `ns_stream_restore_seconds` clock started by the caller, so a
    /// restore from bytes is timed from before its decode. Observes the
    /// histogram exactly once per successful restore.
    fn restore_since(
        t0: Instant,
        model: Arc<NodeSentry>,
        cfg: EngineConfig,
        snap: EngineSnapshot,
    ) -> Result<Self, EngineError> {
        // The engine's one digest: recomputed from the model's content,
        // checked here before any state is built, then handed to `spawn`.
        let fp = model.fingerprint();
        if snap.model_fingerprint != fp {
            return Err(SnapshotError::ModelMismatch {
                snapshot: snap.model_fingerprint,
                model: fp,
            }
            .into());
        }
        if snap.split != cfg.split {
            return Err(SnapshotError::ConfigMismatch {
                field: "split",
                snapshot: snap.split as u64,
                config: cfg.split as u64,
            }
            .into());
        }
        if snap.smooth_window != cfg.smooth_window {
            return Err(SnapshotError::ConfigMismatch {
                field: "smooth_window",
                snapshot: snap.smooth_window as u64,
                config: cfg.smooth_window as u64,
            }
            .into());
        }
        if snap.scoring_precision != cfg.scoring_precision {
            // The tiers produce different score bits: resuming a run
            // across them would splice two incompatible score streams.
            return Err(SnapshotError::ConfigMismatch {
                field: "scoring_precision",
                snapshot: snap.scoring_precision.to_ordinal() as u64,
                config: cfg.scoring_precision.to_ordinal() as u64,
            }
            .into());
        }
        let n_shards = cfg.n_shards.max(1);
        let n_nodes = snap.nodes.len();
        let mut init: Vec<(FxHashMap<usize, NodeState>, FxHashSet<usize>)> = Vec::new();
        init.resize_with(n_shards, Default::default);
        for ns in snap.nodes {
            let node = ns.node;
            let state = NodeState::restore(Arc::clone(&model), &cfg, ns)?;
            init[node % n_shards].0.insert(node, state);
        }
        for &q in &snap.quarantined {
            init[q % n_shards].1.insert(q);
        }
        let engine = Self::spawn(
            model,
            fp,
            cfg,
            init,
            snap.carried_stats,
            snap.carried_faults,
        )?;
        snapshot_metrics()
            .restore_seconds
            .observe(t0.elapsed().as_secs_f64());
        status::engine_status()
            .restores
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        events::record(
            EventKind::Restore,
            "",
            -1,
            -1,
            n_nodes as u64,
            n_shards as u64,
        );
        if snap.n_shards != n_shards {
            events::record(
                EventKind::Reshard,
                "",
                -1,
                -1,
                snap.n_shards as u64,
                n_shards as u64,
            );
        }
        Ok(engine)
    }

    /// Consistent checkpoint at the current batch boundary.
    ///
    /// A barrier message rides each shard's FIFO queue behind every
    /// batch ingested so far, so the snapshot reflects exactly those
    /// batches. Verdicts finalized before the cut are drained into the
    /// returned [`EngineCheckpoint`] — the engine keeps running, and a
    /// later [`finish`](Engine::finish) (or next checkpoint) yields only
    /// what came after, making prefix + tail equal the uninterrupted
    /// verdict set.
    pub fn checkpoint(&self) -> Result<EngineCheckpoint, EngineError> {
        let res = self.checkpoint_inner();
        match &res {
            Ok(ck) => {
                status::note_checkpoint(true, ck.bytes.len());
                events::record(
                    EventKind::Checkpoint,
                    "ok",
                    -1,
                    -1,
                    ck.bytes.len() as u64,
                    ck.snapshot.nodes.len() as u64,
                );
            }
            Err(e) => {
                status::note_checkpoint(false, 0);
                events::record(EventKind::Checkpoint, "failed", -1, -1, 0, 0);
                if ns_obs::incident::is_armed() {
                    ns_obs::incident::capture(
                        "checkpoint_failure",
                        &format!("engine checkpoint failed: {e}"),
                    );
                }
            }
        }
        res
    }

    fn checkpoint_inner(&self) -> Result<EngineCheckpoint, EngineError> {
        let t0 = Instant::now();
        let (tx, rx) = mpsc::channel::<ShardCheckpoint>();
        for (shard, sender) in self.senders.iter().enumerate() {
            sender
                .send(ShardMsg::Checkpoint(tx.clone()))
                .map_err(|_| EngineError::ShardClosed { shard })?;
        }
        drop(tx);
        let parts: Vec<ShardCheckpoint> = rx.iter().collect();
        if parts.len() != self.n_shards {
            return Err(EngineError::CheckpointIncomplete {
                got: parts.len(),
                want: self.n_shards,
            });
        }
        let mut nodes = Vec::new();
        let mut quarantined = Vec::new();
        let mut verdicts = Vec::new();
        let mut carried_stats = self.carried_stats;
        let mut carried_faults = self.carried_faults;
        for part in parts {
            nodes.extend(part.nodes);
            quarantined.extend(part.quarantined);
            verdicts.extend(part.verdicts);
            carried_stats.merge(&part.stats);
            carried_faults.merge(&part.faults);
        }
        nodes.sort_by_key(|n| n.node);
        quarantined.sort_unstable();
        verdicts.sort_by_key(|v| (v.node, v.step));
        let snapshot = EngineSnapshot {
            model_fingerprint: self.model_fingerprint,
            split: self.cfg.split,
            smooth_window: self.cfg.smooth_window,
            scoring_precision: self.cfg.scoring_precision,
            n_shards: self.n_shards,
            nodes,
            quarantined,
            carried_stats,
            carried_faults,
        };
        let bytes = snapshot.to_bytes();
        let sm = snapshot_metrics();
        sm.snapshot_bytes.observe(bytes.len() as f64);
        sm.checkpoint_seconds.observe(t0.elapsed().as_secs_f64());
        Ok(EngineCheckpoint {
            snapshot,
            bytes,
            verdicts,
        })
    }

    /// Route a batch of ticks to their shards. Blocks when a shard's
    /// queue is full; errors if a shard has shut down.
    pub fn ingest(&self, batch: Vec<Tick>) -> Result<(), EngineError> {
        let t0 = Instant::now();
        let mut per_shard: Vec<Vec<Tick>> = vec![Vec::new(); self.n_shards];
        for tick in batch {
            per_shard[tick.node % self.n_shards].push(tick);
        }
        for (shard, ticks) in per_shard.into_iter().enumerate() {
            if !ticks.is_empty() {
                self.send_to(shard, ticks)?;
            }
        }
        self.ingest_hist.observe(t0.elapsed().as_secs_f64());
        Ok(())
    }

    /// The scoring tier this engine runs ([`EngineConfig::scoring_precision`]);
    /// the ingest server checks announced Hello precisions against it.
    pub fn scoring_precision(&self) -> ScoringPrecision {
        self.cfg.scoring_precision
    }

    /// Send one batch to a shard, keeping its queue-depth gauge honest:
    /// incremented before the (possibly blocking) send so the gauge counts
    /// in-flight batches and never goes negative, rolled back on failure.
    fn send_to(&self, shard: usize, ticks: Vec<Tick>) -> Result<(), EngineError> {
        self.queue_gauges[shard].add(1);
        self.senders[shard]
            .send(ShardMsg::Batch(ticks))
            .map_err(|_| {
                self.queue_gauges[shard].sub(1);
                EngineError::ShardClosed { shard }
            })
    }

    /// Serve the process-global ns-obs registry — every live engine
    /// metric (see [`metrics`]) plus anything else the process registered
    /// — as a Prometheus `/metrics` endpoint on `addr` (e.g.
    /// `"127.0.0.1:9184"`). Call [`ns_obs::enable_all`] first or every
    /// series reads zero. The server runs on its own thread until the
    /// returned handle is dropped or shut down.
    pub fn serve_metrics(addr: &str) -> std::io::Result<ns_obs::exporter::MetricsServer> {
        ns_obs::exporter::serve(addr)
    }

    /// Close the stream: flush every node, join the workers, and return
    /// all verdicts plus cost statistics. A worker lost to a panic is
    /// recorded in [`FaultCounters::worker_crashes`] instead of
    /// propagating.
    pub fn finish(self) -> EngineReport {
        drop(self.senders);
        let mut verdicts = Vec::new();
        let mut stats = self.carried_stats;
        let mut faults = self.carried_faults;
        let mut per_shard = Vec::with_capacity(self.workers.len());
        for handle in self.workers {
            match handle.join() {
                Ok((v, s, f)) => {
                    verdicts.extend(v);
                    stats.merge(&s);
                    faults.merge(&f);
                    per_shard.push(s);
                }
                Err(_) => {
                    faults.worker_crashes += 1;
                    per_shard.push(StreamStats::default());
                }
            }
        }
        verdicts.sort_by_key(|v| (v.node, v.step));
        EngineReport {
            verdicts,
            stats,
            faults,
            wall_seconds: self.started.elapsed().as_secs_f64(),
            n_shards: self.n_shards,
            per_shard,
        }
    }
}

/// One probe feature-extraction + library-match cycle over `rows`'
/// leading `probe_len` rows. Free function over disjoint [`NodeState`]
/// fields so it can run against the open segment or a queued job's rows
/// without aliasing `self`. Uses the scratch-based matcher: warm calls
/// allocate nothing past feature extraction.
fn match_probe_rows(
    model: &NodeSentry,
    z_scratch: &mut Vec<f64>,
    stats: &mut StreamStats,
    rows: &[Vec<f64>],
    probe_len: usize,
) -> usize {
    let t0 = Instant::now();
    let probe = Matrix::from_rows(&rows[..probe_len.min(rows.len())]);
    let feat = coarse::segment_features(&model.cfg.coarse, &probe);
    let (cluster, _dist) = model.cluster_model.match_pattern_into(&feat, z_scratch);
    let elapsed = t0.elapsed().as_secs_f64();
    stats.match_seconds += elapsed;
    stats.n_matches += 1;
    node_metrics().match_seconds.observe(elapsed);
    cluster
}

/// Per-segment baseline normalization (batch `score_node`): divide by
/// the probe head's median, clamped to at least 1.
fn normalize_segment_scores(scores: &mut [f64], probe_len: usize) {
    let baseline = {
        let mut head: Vec<f64> = scores[..probe_len].to_vec();
        head.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        ns_linalg::stats::quantile_sorted(&head, 0.5).max(1.0)
    };
    for v in scores.iter_mut() {
        *v /= baseline;
    }
}

/// Score a FIFO run of probe-resolved jobs: group them by (clamped)
/// matched cluster, score each group with one `score_series_batch` call
/// on its shared model (row-capped batched forwards fanned over this
/// thread's pool width; bit-identical per series to `score_series`),
/// normalize each job against its own probe baseline, and return
/// `(job, cluster, scores, cost share)` in the original order. The
/// cost share is the group's scoring wall time split by rows: a forward
/// costs per row, so a short segment batched beside a long one is
/// charged for its own rows, not for half the group.
fn score_resolved_jobs(
    model: &NodeSentry,
    jobs: Vec<SegmentJob>,
    precision: ScoringPrecision,
) -> Vec<(SegmentJob, usize, Vec<f64>, f64)> {
    let n_models = model.shared_models.len();
    let mut groups: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for (i, job) in jobs.iter().enumerate() {
        // Invariant: `resolve_probes` ran first, so `matched` is set for
        // every non-empty job (and empty jobs are never queued).
        let clamped = job.matched.unwrap_or(0).min(n_models.saturating_sub(1));
        groups.entry(clamped).or_default().push(i);
    }
    let mut scored: Vec<Option<(Vec<f64>, f64)>> = (0..jobs.len()).map(|_| None).collect();
    let mut group_ids: Vec<usize> = groups.keys().copied().collect();
    group_ids.sort_unstable();
    let nm = node_metrics();
    for g in group_ids {
        let idxs = &groups[&g];
        let t0 = Instant::now();
        let mats: Vec<Matrix> = idxs
            .iter()
            .map(|&i| Matrix::from_rows(&jobs[i].rows))
            .collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let many = match precision {
            ScoringPrecision::F64 => model.shared_models[g].score_series_batch(&refs),
            ScoringPrecision::F32 => model.shared_models[g].score_series_batch_f32(&refs),
        };
        let rows: usize = refs.iter().map(|m| m.rows()).sum();
        let per_row = t0.elapsed().as_secs_f64() / rows.max(1) as f64;
        nm.batch_segments.observe(idxs.len() as f64);
        for (&i, mut scores) in idxs.iter().zip(many) {
            let probe_len = model.cfg.match_period.clamp(1, jobs[i].rows.len());
            normalize_segment_scores(&mut scores, probe_len);
            let share = per_row * scores.len() as f64;
            scored[i] = Some((scores, share));
        }
    }
    jobs.into_iter()
        .zip(scored)
        .map(|(job, s)| {
            let cluster = job.matched.unwrap_or(0);
            let (scores, share) = s.unwrap_or_default();
            (job, cluster, scores, share)
        })
        .collect()
}

/// Cross-node batched scoring phase: after a tick batch lands, collect
/// every deferred probe and queued segment across the shard's nodes,
/// resolve the probes, score all segments through per-cluster batched
/// forwards, and fan the verdicts back out per node. Nodes are visited
/// in ascending id and each node's jobs in FIFO order, so every node's
/// smoother/detector chain sees its segments in stream order.
fn scoring_phase(
    states: &mut FxHashMap<usize, NodeState>,
    verdicts: &mut Vec<Verdict>,
    precision: ScoringPrecision,
) {
    let mut nodes: Vec<usize> = states
        .iter()
        .filter(|(_, s)| s.has_deferred_work())
        .map(|(&n, _)| n)
        .collect();
    if nodes.is_empty() {
        return;
    }
    nodes.sort_unstable();
    let mut owners: Vec<usize> = Vec::new();
    let mut jobs: Vec<SegmentJob> = Vec::new();
    let mut n_probes = 0u64;
    let mut model = None;
    for &n in &nodes {
        // Invariant: ids came out of the map above.
        let Some(state) = states.get_mut(&n) else {
            continue;
        };
        n_probes += state.pending_probe_count();
        state.resolve_probes();
        for job in std::mem::take(&mut state.jobs) {
            owners.push(n);
            jobs.push(job);
        }
        model.get_or_insert_with(|| Arc::clone(&state.model));
    }
    if n_probes > 0 {
        node_metrics().batch_probes.observe(n_probes as f64);
    }
    let Some(model) = model else {
        return;
    };
    if jobs.is_empty() {
        return;
    }
    for (owner, (job, cluster, scores, share)) in owners
        .into_iter()
        .zip(score_resolved_jobs(&model, jobs, precision))
    {
        let Some(state) = states.get_mut(&owner) else {
            continue;
        };
        let vs = state.apply_scored(job, cluster, scores, share);
        meter_verdicts(&vs);
        verdicts.extend(vs);
    }
}

/// Count newly emitted verdicts into the live by-kind counters, append
/// them to the event journal, and feed the Degraded-spike trigger. Each
/// concern is gated on its own flag, so e.g. the journal works with
/// metrics off; with everything off this is three relaxed loads.
fn meter_verdicts(vs: &[Verdict]) {
    if vs.is_empty() {
        return;
    }
    let metrics_on = ns_obs::metrics::is_enabled();
    let events_on = events::is_enabled();
    let armed = ns_obs::incident::is_armed();
    if !metrics_on && !events_on && !armed {
        return;
    }
    let ok = vs.iter().filter(|v| v.kind == VerdictKind::Ok).count() as u64;
    if metrics_on {
        let nm = node_metrics();
        nm.verdicts_ok.add(ok);
        nm.verdicts_degraded.add(vs.len() as u64 - ok);
    }
    if events_on {
        for v in vs {
            let label = match v.kind {
                VerdictKind::Ok => "ok",
                _ => "degraded",
            };
            events::record(
                EventKind::Verdict,
                label,
                -1,
                v.node as i64,
                v.step as u64,
                v.score.to_bits(),
            );
        }
    }
    if armed {
        status::note_verdicts(ok, vs.len() as u64 - ok);
    }
}

fn worker_loop(
    shard: usize,
    rx: mpsc::Receiver<ShardMsg>,
    model: Arc<NodeSentry>,
    cfg: EngineConfig,
    mut states: FxHashMap<usize, NodeState>,
    mut quarantined: FxHashSet<usize>,
) -> (Vec<Verdict>, StreamStats, FaultCounters) {
    let width = model.preprocessor.groups.len();
    let m = ShardMetrics::new(shard);
    let mut verdicts = Vec::new();
    let mut stats = StreamStats::default();
    let mut faults = FaultCounters::default();
    // Cumulative fault snapshot already bridged into the live counters.
    // Restored states start with their historical faults already counted
    // (bridged before the checkpoint), so baseline on them instead of
    // re-announcing old faults to the live registry.
    let mut published = FaultCounters::default();
    for state in states.values() {
        published.merge(&state.faults);
    }
    while let Ok(msg) = rx.recv() {
        let batch = match msg {
            ShardMsg::Batch(batch) => batch,
            ShardMsg::Checkpoint(reply) => {
                let mut node_ids: Vec<usize> = states.keys().copied().collect();
                node_ids.sort_unstable();
                let part = ShardCheckpoint {
                    nodes: node_ids
                        .iter()
                        .filter_map(|n| states.get(n))
                        .map(NodeState::snapshot)
                        .collect(),
                    quarantined: quarantined.iter().copied().collect(),
                    verdicts: std::mem::take(&mut verdicts),
                    stats,
                    faults,
                };
                // A vanished checkpoint caller is its problem, not the
                // stream's: keep serving ticks.
                let _ = reply.send(part);
                continue;
            }
        };
        m.queue_depth.sub(1);
        m.ticks_total.add(batch.len() as u64);
        for tick in batch {
            if quarantined.contains(&tick.node) {
                faults.quarantine_dropped += 1;
                continue;
            }
            if tick.values.len() != width {
                faults.malformed_ticks += 1;
                continue;
            }
            let state = states
                .entry(tick.node)
                .or_insert_with(|| NodeState::new(Arc::clone(&model), tick.node, &cfg));
            let chaos = cfg.panic_at == Some((tick.node, tick.step));
            // A panic in one node's pipeline must not take down the
            // shard: quarantine the node and keep serving the others.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if chaos {
                    panic!(
                        "injected chaos panic at node {} step {}",
                        tick.node, tick.step
                    );
                }
                state.offer(&tick)
            }));
            match outcome {
                Ok(vs) => {
                    meter_verdicts(&vs);
                    verdicts.extend(vs);
                }
                Err(_) => {
                    if let Some(mut dead) = states.remove(&tick.node) {
                        // Jobs queued before the panic tick are complete
                        // segments; emit them so where the batch boundary
                        // fell doesn't change the surviving verdict set.
                        // (Guarded: the state crossed a panic.)
                        if let Ok(vs) = catch_unwind(AssertUnwindSafe(|| dead.drain_jobs())) {
                            meter_verdicts(&vs);
                            verdicts.extend(vs);
                        }
                        stats.merge(&dead.stats);
                        faults.merge(&dead.faults);
                    }
                    quarantined.insert(tick.node);
                    faults.quarantined_nodes += 1;
                    events::record(
                        EventKind::Quarantine,
                        "",
                        shard as i64,
                        tick.node as i64,
                        tick.step as u64,
                        quarantined.len() as u64,
                    );
                    if ns_obs::incident::is_armed() {
                        ns_obs::incident::capture(
                            "quarantine",
                            &format!(
                                "node {} quarantined after a panic at step {} (shard {shard})",
                                tick.node, tick.step
                            ),
                        );
                    }
                }
            }
        }
        scoring_phase(&mut states, &mut verdicts, cfg.scoring_precision);
        publish_shard_metrics(&m, &states, &faults, &mut published);
    }
    // Channel closed: flush in node order so shard output is
    // deterministic.
    let mut nodes: Vec<usize> = states.keys().copied().collect();
    nodes.sort_unstable();
    for n in nodes {
        let Some(state) = states.get_mut(&n) else {
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| state.flush())) {
            Ok(vs) => {
                meter_verdicts(&vs);
                verdicts.extend(vs);
            }
            Err(_) => faults.quarantined_nodes += 1,
        }
        stats.merge(&state.stats);
        faults.merge(&state.faults);
    }
    // `faults` now holds every per-node counter merged in; one last
    // bridge pass (against an empty state map — their faults are already
    // in `faults`) brings the live view up to the final report.
    states.clear();
    publish_shard_metrics(&m, &states, &faults, &mut published);
    (verdicts, stats, faults)
}

/// Refresh the shard's live gauges and bridge fault-counter deltas into
/// the `ns_stream_faults_total` counters (and, per advancing class, the
/// event journal). A no-op (without touching any node state) while both
/// metrics and events are disabled.
fn publish_shard_metrics(
    m: &ShardMetrics,
    states: &FxHashMap<usize, NodeState>,
    shard_faults: &FaultCounters,
    published: &mut FaultCounters,
) {
    if !ns_obs::metrics::is_enabled() && !events::is_enabled() {
        return;
    }
    let mut occupancy = 0i64;
    let mut cur = *shard_faults;
    for state in states.values() {
        occupancy += state.ahead.len() as i64;
        cur.merge(&state.faults);
    }
    m.reorder_occupancy.set(occupancy);
    m.faults.publish(published, &cur);
    *published = cur;
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodesentry_core::preprocess::Preprocessor;

    /// Deterministic pseudo-random raw matrix with NaN holes.
    fn raw_with_holes(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Matrix::from_fn(rows, cols, |r, c| {
            let u = next() as f64 / u64::MAX as f64;
            if u < 0.04 {
                f64::NAN
            } else {
                ((r as f64 * 0.13 + c as f64).sin() + u * 0.3) * (1.0 + c as f64 * 0.2)
            }
        })
    }

    fn stream_rows(pp: &Preprocessor, raw: &Matrix) -> (Vec<Vec<f64>>, Vec<PreRow>) {
        let mut sp = StreamingPreprocessor::new(pp);
        let mut pre_rows: Vec<PreRow> = Vec::new();
        for r in 0..raw.rows() {
            pre_rows.extend(sp.push(raw.row(r)));
        }
        pre_rows.extend(sp.flush());
        let values = pre_rows.iter().map(|p| p.values.clone()).collect();
        (values, pre_rows)
    }

    fn assert_rows_match(rows: &[Vec<f64>], batch: &Matrix, tag: &str) {
        assert_eq!(rows.len(), batch.rows(), "{tag}");
        for (r, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    batch[(r, c)].to_bits(),
                    "{tag} row {r} col {c}: {v} vs {}",
                    batch[(r, c)]
                );
            }
        }
    }

    #[test]
    fn streaming_preprocessor_matches_batch_bitwise() {
        for seed in [3u64, 17, 99] {
            let raw = raw_with_holes(160, 6, seed);
            let groups = vec![0usize, 0, 1, 1, 2, 2];
            // Fit on the clean prefix so NaNs in the tail exercise the
            // streaming watermark rather than the fit path.
            let pp = Preprocessor::fit(&raw.slice_rows(0, 100), &groups, 0.995, 0.05);
            let batch = pp.transform(&raw);
            let (rows, _) = stream_rows(&pp, &raw);
            assert_rows_match(&rows, &batch, &format!("seed {seed}"));
        }
    }

    #[test]
    fn streaming_preprocessor_handles_all_nan_column() {
        let mut raw = raw_with_holes(60, 4, 5);
        for r in 0..60 {
            raw[(r, 2)] = f64::NAN;
        }
        let groups = vec![0usize, 1, 2, 3];
        let pp = Preprocessor::fit(&raw.slice_rows(0, 40), &groups, 0.995, 0.05);
        let batch = pp.transform(&raw);
        let (rows, _) = stream_rows(&pp, &raw);
        assert_rows_match(&rows, &batch, "all-nan column");
    }

    #[test]
    fn watermark_defers_rows_across_nan_runs() {
        let groups = vec![0usize, 1];
        let fit = Matrix::from_fn(50, 2, |r, c| (r + c) as f64 * 0.1);
        let pp = Preprocessor::fit(&fit, &groups, 0.9999, 0.05);
        let mut sp = StreamingPreprocessor::new(&pp);
        assert_eq!(sp.push(&[1.0, 1.0]).len(), 1);
        // NaN opens a gap: nothing can be emitted until it closes.
        assert_eq!(sp.push(&[f64::NAN, 2.0]).len(), 0);
        assert_eq!(sp.push(&[f64::NAN, 3.0]).len(), 0);
        // Observation closes the gap: all three deferred rows finalize.
        assert_eq!(sp.push(&[4.0, 4.0]).len(), 3);
        assert_eq!(sp.flush().len(), 0);
    }

    #[test]
    fn empty_stream_flush_is_empty() {
        let groups = vec![0usize, 1];
        let fit = Matrix::from_fn(50, 2, |r, c| (r + c) as f64 * 0.1);
        let pp = Preprocessor::fit(&fit, &groups, 0.9999, 0.05);
        let mut sp = StreamingPreprocessor::new(&pp);
        assert!(sp.flush().is_empty(), "no rows pushed, none emitted");
        // Flushing twice is also fine.
        assert!(sp.flush().is_empty());
        assert_eq!(sp.width(), 2);
    }

    #[test]
    fn restore_rejects_state_whose_cursors_disagree() {
        let groups = vec![0usize, 1];
        let fit = Matrix::from_fn(50, 2, |r, c| (r + c) as f64 * 0.1);
        let pp = Preprocessor::fit(&fit, &groups, 0.9999, 0.05);
        let mut sp = StreamingPreprocessor::new(&pp);
        sp.push(&[1.0, 1.0]);
        sp.push(&[f64::NAN, 2.0]);
        sp.push(&[f64::NAN, 3.0]);
        // A live state (an open gap, two rows buffered) restores and
        // carries on exactly like the original.
        let good = sp.state();
        assert_eq!((good.base, good.n_pushed, good.buf.len()), (1, 3, 2));
        let mut back = StreamingPreprocessor::restore(&pp, good.clone()).expect("consistent state");
        assert_eq!(back.push(&[4.0, 4.0]).len(), sp.push(&[4.0, 4.0]).len());

        let rejected = |what: &str, bend: &dyn Fn(&mut PreSnap)| {
            let mut bad = good.clone();
            bend(&mut bad);
            match StreamingPreprocessor::restore(&pp, bad) {
                Err(SnapshotError::Decode(_)) => {}
                Err(other) => panic!("{what}: wrong error {other:?}"),
                // The panic this check exists to prevent: the next push
                // closing column 0's gap would index `buf[k - base]`
                // below the buffer.
                Ok(_) => panic!("{what}: restored"),
            }
        };
        // The issue's case: everything emitted, nothing buffered, yet a
        // column's last observation lies rows behind.
        rejected("stale last_obs behind an empty buffer", &|s| {
            s.base = 5;
            s.resolved = 5;
            s.n_pushed = 5;
            s.buf.clear();
            s.nan_flags.clear();
            s.last_obs[0] = Some(1);
        });
        rejected("resolved != base", &|s| s.resolved += 1);
        rejected("buffer shorter than base..n_pushed", &|s| s.n_pushed += 1);
        rejected("last_obs at or past n_pushed", &|s| s.last_obs[1] = Some(3));
        rejected("never-observed column with rows emitted", &|s| {
            s.last_obs[0] = None
        });
    }

    #[test]
    fn all_nan_tail_resolved_by_flush_matches_batch() {
        let mut raw = raw_with_holes(80, 4, 11);
        // The last 7 rows lose every value: only flush's tail clamp can
        // resolve them.
        for r in 73..80 {
            for c in 0..4 {
                raw[(r, c)] = f64::NAN;
            }
        }
        let groups = vec![0usize, 0, 1, 1];
        let pp = Preprocessor::fit(&raw.slice_rows(0, 60), &groups, 0.995, 0.05);
        let batch = pp.transform(&raw);
        let mut sp = StreamingPreprocessor::new(&pp);
        let mut pre_rows: Vec<PreRow> = Vec::new();
        for r in 0..raw.rows() {
            pre_rows.extend(sp.push(raw.row(r)));
        }
        assert!(
            pre_rows.len() <= 73,
            "tail rows must wait for flush, got {}",
            pre_rows.len()
        );
        pre_rows.extend(sp.flush());
        let rows: Vec<Vec<f64>> = pre_rows.iter().map(|p| p.values.clone()).collect();
        assert_rows_match(&rows, &batch, "nan tail");
        // The all-NaN rows are annotated as such.
        for p in &pre_rows[73..] {
            assert!(p.all_nan, "tail rows arrived entirely NaN");
        }
        assert!(!pre_rows[0].all_nan);
    }

    #[test]
    fn counter_reset_column_pinned_against_batch() {
        // Column 0 is a cumulative counter (steady ramp), column 1 a
        // noisy gauge. The fit prefix is clean; the full series resets
        // the counter at row 90.
        let mut raw = Matrix::from_fn(140, 2, |r, c| {
            if c == 0 {
                r as f64 * 2.5
            } else {
                (r as f64 * 0.37).sin() * 3.0
            }
        });
        let groups = vec![0usize, 1];
        let pp = Preprocessor::fit(&raw.slice_rows(0, 80), &groups, 0.9999, 0.05);
        assert!(
            pp.counters[0],
            "ramp column must be detected as a counter (fit contract)"
        );
        assert!(pp.kept.contains(&0), "counter group survived pruning");
        for r in 90..140 {
            raw[(r, 0)] -= 90.0 * 2.5; // daemon restart: history lost
        }
        let batch = pp.transform(&raw);
        let (rows, pre_rows) = stream_rows(&pp, &raw);
        // The negative-rate row is still the exact batch value...
        assert_rows_match(&rows, &batch, "counter reset");
        // ...but the streaming path annotates it.
        let flagged: Vec<usize> = pre_rows
            .iter()
            .enumerate()
            .filter(|(_, p)| p.counter_reset)
            .map(|(r, _)| r)
            .collect();
        assert_eq!(flagged, vec![90], "exactly the reset row is flagged");
    }

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
