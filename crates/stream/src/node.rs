//! Per-node incremental detection state: reorder buffer, streaming
//! preprocessing, segment assembly, the scoring jobs a node hands out
//! (probe match, shared-model pass, baseline normalization) and applies
//! back in its own order, and the smoothing → k-sigma chain (see the
//! crate docs for the fault model).

use crate::metrics::node_metrics;
use crate::preprocess::{PreRow, StreamingPreprocessor};
use crate::snapshot::{JobSnap, NodeSnap, PendingSnap, SnapshotError};
use crate::{
    EngineConfig, FaultCounters, ScoringPrecision, StreamStats, Tick, Verdict, VerdictKind,
};
use nodesentry_core::NodeSentry;
use ns_eval::streaming::{StreamingKSigma, StreamingSmoother};
use ns_linalg::matrix::Matrix;
use ns_obs::events::{self, EventKind};
use rayon::{Task, TaskRef};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Exact-repeat run length, in delivered ticks, that confirms a stuck
/// sensor.
const STUCK_RUN: usize = 8;

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

fn kinds_from_ordinals(bytes: &[u8]) -> Result<Vec<RowKind>, SnapshotError> {
    bytes.iter().map(|&b| RowKind::from_ordinal(b)).collect()
}

/// One job segment of a node's test span: the open one still taking
/// rows, or a closed one waiting for its scoring job. Closing moves the
/// segment out of the node, so its rows, provenance and degraded flag
/// are frozen there — later retro-taints cannot reach it, and when or
/// where its job runs cannot change any verdict bit.
#[derive(Default)]
struct Segment {
    /// Global step of the segment's first row.
    start: usize,
    /// The segment's preprocessed rows.
    rows: Vec<Vec<f64>>,
    /// Provenance per row, parallel to `rows`.
    kinds: Vec<RowKind>,
    /// Cluster from the probe match, once resolved.
    matched: Option<usize>,
    /// Evaluated at close time (resync or tainted rows); false while open.
    degraded: bool,
}

impl Segment {
    fn snapshot(&self) -> JobSnap {
        JobSnap {
            start: self.start,
            rows: self.rows.clone(),
            kinds: self.kinds.iter().map(|k| k.to_ordinal()).collect(),
            matched: self.matched,
            degraded: self.degraded,
        }
    }

    /// Take over a snapshotted segment's buffers. Its rows are about to
    /// be stacked into matrices of the model's preprocessed `width` by a
    /// scoring job whose panic would take the shard down, so their shape
    /// is settled here; only the open segment may be empty.
    fn restore(s: JobSnap, width: usize, open: bool) -> Result<Self, SnapshotError> {
        let fault = if s.kinds.len() != s.rows.len() {
            "segment provenance out of sync with rows"
        } else if s.rows.iter().any(|row| row.len() != width) {
            "segment row width differs from the model's"
        } else if s.rows.is_empty() && !open {
            "queued segment has no rows"
        } else {
            return Ok(Segment {
                start: s.start,
                rows: s.rows,
                kinds: kinds_from_ordinals(&s.kinds)?,
                matched: s.matched,
                degraded: s.degraded,
            });
        };
        Err(SnapshotError::Decode(fault.into()))
    }
}

/// A probe match one job ran.
#[derive(Clone, Copy)]
struct Matched {
    cluster: usize,
    seconds: f64,
}

/// What one segment job hands back: the segment (its rows dropped), its
/// normalized scores, the probe match it ran if it closed unmatched, and
/// the seconds its shared-model pass took — the segment's cost share.
struct Scored {
    seg: Segment,
    scores: Vec<f64>,
    matched: Option<Matched>,
    seconds: f64,
}

/// Jobs handed out by one submission (see [`NodeState::submit`]).
#[derive(Default)]
pub(crate) struct Handout {
    /// One handle per job, in the order handed out.
    pub(crate) tasks: Vec<TaskRef>,
    pub(crate) segments: u64,
    pub(crate) probes: u64,
}

impl Handout {
    /// One observation per submission of the batch histograms: how many
    /// segments and probe matches it handed out together.
    pub(crate) fn observe(&self) {
        let nm = node_metrics();
        if self.segments > 0 {
            nm.batch_segments.observe(self.segments as f64);
        }
        if self.probes > 0 {
            nm.batch_probes.observe(self.probes as f64);
        }
    }
}

thread_local! {
    /// Standardization scratch of the probe matches this thread runs; a
    /// warm one keeps the library scan off the heap
    /// (`crates/core/tests/match_zero_alloc.rs`).
    static MATCH_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// One probe feature-extraction + library-match cycle over the first
/// [`NodeSentry::probe_len`] of `rows`. Matching reads only frozen row
/// values, so the cluster does not depend on when or where this runs.
fn match_probe(model: &NodeSentry, rows: &[Vec<f64>]) -> Matched {
    let t0 = Instant::now();
    let probe = Matrix::from_rows(&rows[..model.probe_len(rows.len())]);
    let cluster = MATCH_SCRATCH.with(|z| model.match_probe(&probe, &mut z.borrow_mut()).cluster);
    Matched {
        cluster,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// One closed segment's online step: its probe match if it closed
/// unmatched, one `score_series_batch` pass of its shared model over it
/// alone (bit-identical per series to any grouping), and the baseline
/// normalization.
fn score_segment(model: &NodeSentry, precision: ScoringPrecision, mut seg: Segment) -> Scored {
    let matched = seg.matched.is_none().then(|| match_probe(model, &seg.rows));
    if let Some(m) = matched {
        seg.matched = Some(m.cluster);
    }
    // Invariant: set just above if it was not (empty segments are never
    // queued).
    let cluster = seg.matched.unwrap_or(0);
    let t0 = Instant::now();
    let series = Matrix::from_rows(&std::mem::take(&mut seg.rows));
    let shared = &model.shared_models[model.model_index(cluster)];
    let mut scores = match precision {
        ScoringPrecision::F64 => shared.score_series_batch(&[&series]),
        ScoringPrecision::F32 => shared.score_series_batch_f32(&[&series]),
    }
    .pop()
    .unwrap_or_default();
    model.normalize_segment(&mut scores);
    Scored {
        seg,
        scores,
        matched,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Hand `job` to the pool; it runs at kernel width 1 wherever it runs,
/// since its parallelism is running beside ingestion and the other jobs.
fn spawn<R: Send + 'static>(job: impl FnOnce() -> R + Send + 'static) -> Task<R> {
    rayon::submit(move || rayon::with_thread_parallelism_cap(Some(1), job))
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
    /// The engine's configuration, with the reorder bound and blackout
    /// gap clamped to their minimums.
    cfg: EngineConfig,
    /// Next step to ingest; everything below it is consumed.
    next_step: usize,
    pre: StreamingPreprocessor,
    /// Global index of the next preprocessed row to come out of `pre`.
    next_row: usize,
    /// Raw stream width (for synthesizing lost rows).
    width: usize,
    /// Pending job-transition cuts (global steps > split), in order.
    cuts: VecDeque<usize>,
    /// The segment being assembled (test span only).
    open: Segment,
    /// Closed segments not yet handed out as scoring jobs (FIFO).
    jobs: VecDeque<Segment>,
    /// The open segment reached `match_period` rows; its probe match is
    /// not yet handed out.
    probe_pending: bool,
    /// The open segment's probe match, handed out and not yet applied.
    probe: Option<Task<Matched>>,
    /// Segment jobs handed out and not yet applied, in close order: the
    /// order they go through the smoothing → k-sigma chain.
    running: VecDeque<Task<Scored>>,
    smoother: StreamingSmoother,
    detector: StreamingKSigma,
    /// Scores awaiting their (lagged) smoothed verdict; `suppress` marks
    /// a synthesized step: it feeds the chain for alignment, emits nothing.
    pending: VecDeque<PendingSnap>,
    /// Early ticks waiting for their gap to close, keyed by step.
    pub(crate) ahead: BTreeMap<usize, Tick>,
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
    /// All ones for a watched column, zero otherwise.
    stuck_watch: Vec<u32>,
    n_watch: usize,
    pub stats: StreamStats,
    pub faults: FaultCounters,
}

impl NodeState {
    pub fn new(model: Arc<NodeSentry>, node: usize, cfg: &EngineConfig) -> Self {
        let cfg = EngineConfig {
            reorder_bound: cfg.reorder_bound.max(1),
            blackout_gap: cfg.blackout_gap.max(2),
            ..*cfg
        };
        let pre = StreamingPreprocessor::new(&model.preprocessor);
        let detector = StreamingKSigma::new(model.cfg.threshold);
        let width = pre.width();
        let stuck_watch: Vec<u32> = model
            .preprocessor
            .groups
            .iter()
            .map(|&g| {
                if model.preprocessor.counters[g] {
                    0
                } else {
                    u32::MAX
                }
            })
            .collect();
        let n_watch = stuck_watch.iter().filter(|&&m| m != 0).count();
        NodeState {
            model,
            node,
            cfg,
            next_step: 0,
            pre,
            next_row: 0,
            width,
            cuts: VecDeque::new(),
            open: Segment::default(),
            jobs: VecDeque::new(),
            probe_pending: false,
            probe: None,
            running: VecDeque::new(),
            smoother: StreamingSmoother::new(cfg.smooth_window),
            detector,
            pending: VecDeque::new(),
            ahead: BTreeMap::new(),
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
    /// closes is queued, not scored: its verdicts come out of the scoring
    /// job the shard hands it to (inside an [`Engine`](crate::Engine)) or
    /// of [`NodeState::flush`] (driven inline), so the only verdicts
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
            return self.settle(self.cfg.reorder_bound);
        }
        self.ingest_now(tick);
        self.settle(self.cfg.reorder_bound)
    }

    /// Drain the reorder buffer as far as policy allows: contiguous ticks
    /// ingest immediately, a gap of `blackout_gap` resets the node, and a
    /// buffer spanning more than `reorder_bound` steps forces the oldest
    /// missing step to be synthesized (the straggler is declared lost).
    /// A bound of 0 empties the buffer.
    fn settle(&mut self, reorder_bound: usize) -> Vec<Verdict> {
        let mut out = Vec::new();
        loop {
            while let Some(t) = self.ahead.remove(&self.next_step) {
                self.ingest_now(&t);
            }
            let Some((&front, _)) = self.ahead.first_key_value() else {
                break;
            };
            if front - self.next_step >= self.cfg.blackout_gap {
                out.extend(self.blackout_reset(front));
                continue;
            }
            // Invariant: the map is non-empty, so a last key exists.
            let span = match self.ahead.last_key_value() {
                Some((&last, _)) => last - self.next_step,
                None => break,
            };
            if span > reorder_bound {
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
        if tick.transition && tick.step > self.cfg.split {
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
        // One pass of selects, no branch per column. A watched column's
        // run grows on an exact repeat and restarts otherwise (a NaN
        // equals nothing); a NaN leaves the last delivered value in place.
        // The all-ones mask of a watched column lets the updates through;
        // an unwatched column keeps its state and counts no run.
        let mut stuck_cols = 0u32;
        let cols = values.iter().zip(&self.stuck_watch);
        for ((&v, &m), (prev, run)) in cols.zip(self.prev_raw.iter_mut().zip(&mut self.runs)) {
            let next = run.wrapping_add(1) & 0u32.wrapping_sub((v == *prev) as u32) & m;
            *run = next | (*run & !m);
            *prev = if (m != 0) & !v.is_nan() { v } else { *prev };
            stuck_cols += (next >= STUCK_RUN as u32) as u32;
        }
        // Continuous gauge signals essentially never repeat bit-exactly;
        // a quarter of them frozen for `STUCK_RUN` ticks is a collector
        // fault, not chance.
        if self.n_watch > 0 && stuck_cols as usize * 4 >= self.n_watch {
            self.faults.stuck_rows += 1;
            // The run began `STUCK_RUN` rows back; taint those too.
            for k in step.saturating_sub(STUCK_RUN)..step {
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
        if !self.open.rows.is_empty() && row >= self.open.start {
            let i = row - self.open.start;
            if i < self.open.kinds.len() && self.open.kinds[i] == RowKind::Clean {
                self.open.kinds[i] = RowKind::Faulty;
            }
        }
    }

    /// The node went dark for at least `blackout_gap` steps: flush the
    /// stale state (degraded), then start over as a fresh node at the
    /// rejoin step. Only the reorder buffer, the counters, the cursors
    /// and the resync mark carry over, so no other state leaks across the
    /// reset — the next segment is scored from scratch.
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
        let fresh = NodeState::new(Arc::clone(&self.model), self.node, &self.cfg);
        let old = std::mem::replace(self, fresh);
        self.ahead = old.ahead;
        self.stats = old.stats;
        self.faults = old.faults;
        self.next_step = resync_at;
        self.next_row = resync_at;
        self.resync_degraded = true;
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
        let mut handout = Handout::default();
        let mut out = self.end_of_stream(&mut handout);
        handout.observe();
        out.extend(self.finish_tail(false));
        out
    }

    /// The first half of [`NodeState::flush`]: resolve every remaining
    /// gap, close the last segment and hand its job out into `handout`.
    /// The shard runs it over all its nodes before finishing any, so the
    /// last segments are scored side by side.
    pub(crate) fn end_of_stream(&mut self, handout: &mut Handout) -> Vec<Verdict> {
        let out = self.settle(0);
        self.close_tail();
        self.submit(handout);
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
        // flush — the smoothing-lag tail — land in `finish_tail`'s and
        // are marked.)
        let mut pre = self.drain_jobs();
        self.close_tail();
        pre.extend(self.finish_tail(degrade));
        pre
    }

    /// Flush the preprocessing tail into the open segment and close it.
    fn close_tail(&mut self) {
        let rows = self.pre.flush();
        self.absorb_rows(rows);
        self.close_open_segment();
    }

    /// Drain every job, then the smoothing lag, marking the verdicts
    /// released here with `degrade` (see [`NodeState::flush_tail`]).
    pub(crate) fn finish_tail(&mut self, degrade: bool) -> Vec<Verdict> {
        let mut out = self.drain_jobs();
        let t0 = Instant::now();
        let tail = self.smoother.flush();
        self.threshold(tail, &mut out);
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
        out
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
            if r < self.cfg.split {
                continue; // training span: context only
            }
            if self.cuts.front() == Some(&r) {
                self.cuts.pop_front();
                self.close_open_segment();
            }
            if self.open.rows.is_empty() {
                self.open.start = r;
            }
            self.open.rows.push(prerow.values);
            self.open.kinds.push(kind);
            // Early pattern matching: the probe is the segment's first
            // `match_period` rows, available long before the segment
            // closes. This is the deployment's per-transition match cycle;
            // the node's next submission hands it out as a job over a copy
            // of the frozen probe rows.
            if self.open.matched.is_none() && self.open.rows.len() == self.model.cfg.match_period {
                self.probe_pending = true;
            }
        }
    }

    /// Close the open segment, if it has rows, and queue it for the
    /// node's next submission. A probe match already handed out for it is
    /// waited for first, so the segment leaves with its cluster. The
    /// degraded flag is evaluated here, at close time, so a segment scored
    /// later yields the same verdict bits.
    fn close_open_segment(&mut self) {
        if self.open.rows.is_empty() {
            return;
        }
        self.apply_probe();
        let mut seg = std::mem::take(&mut self.open);
        // Any tainted row poisons the whole segment: scoring is
        // segment-local (positional encoding + baseline), so no verdict
        // in it can claim batch equivalence.
        seg.degraded = self.resync_degraded || seg.kinds.iter().any(|&k| k != RowKind::Clean);
        self.resync_degraded = false;
        self.probe_pending = false;
        self.jobs.push_back(seg);
    }

    /// Push one scored segment through the smoothing → k-sigma chain;
    /// returns finalized verdicts. The job's own elapsed time is the
    /// segment's cost share.
    fn apply_scored(&mut self, done: Scored) -> Vec<Verdict> {
        let Scored {
            seg,
            scores,
            matched,
            seconds,
        } = done;
        if let Some(m) = matched {
            self.note_match(m);
        }
        // Invariant: the job set it before scoring.
        let cluster = seg.matched.unwrap_or(0);
        let n_rows = scores.len();
        let mut out = Vec::new();
        for (k, score) in scores.into_iter().enumerate() {
            let suppress = seg.kinds[k] == RowKind::Synthesized;
            self.pending.push_back(PendingSnap {
                step: seg.start + k,
                score,
                cluster,
                suppress,
                degraded: seg.degraded,
            });
            let smoothed = self.smoother.push(score);
            self.threshold(smoothed, &mut out);
        }
        self.stats.score_seconds += seconds;
        let nm = node_metrics();
        nm.score_seconds.observe(seconds);
        if n_rows > 0 {
            nm.point_seconds
                .observe_n(seconds / n_rows as f64, n_rows as u64);
        }
        out
    }

    fn note_match(&mut self, m: Matched) {
        self.stats.match_seconds += m.seconds;
        self.stats.n_matches += 1;
        node_metrics().match_seconds.observe(m.seconds);
    }

    /// Work not yet handed out as jobs?
    pub(crate) fn has_deferred_work(&self) -> bool {
        !self.jobs.is_empty() || self.probe_pending
    }

    /// Hand out every deferred job into `handout`: the open segment's
    /// pending probe match, over a copy of its probe rows, and each queued
    /// segment, moved out of the node (one that closed unmatched runs its
    /// own probe match).
    pub(crate) fn submit(&mut self, handout: &mut Handout) {
        if std::mem::take(&mut self.probe_pending) {
            let model = Arc::clone(&self.model);
            let rows = self.open.rows[..self.model.probe_len(self.open.rows.len())].to_vec();
            let task = spawn(move || match_probe(&model, &rows));
            handout.tasks.push(task.handle());
            handout.probes += 1;
            self.probe = Some(task);
        }
        let precision = self.cfg.scoring_precision;
        for seg in std::mem::take(&mut self.jobs) {
            handout.probes += seg.matched.is_none() as u64;
            handout.segments += 1;
            let model = Arc::clone(&self.model);
            let task = spawn(move || score_segment(&model, precision, seg));
            handout.tasks.push(task.handle());
            self.running.push_back(task);
        }
    }

    /// Jobs handed out and not yet applied.
    pub(crate) fn in_flight(&self) -> usize {
        self.probe.is_some() as usize + self.running.len()
    }

    /// Apply every finished job whose predecessors are applied: the
    /// probe's cluster, and segment jobs from the front while they are
    /// done. Returns how many jobs are still in flight.
    pub(crate) fn apply_finished(&mut self, out: &mut Vec<Verdict>) -> usize {
        if self.probe.as_ref().is_some_and(Task::is_finished) {
            self.apply_probe();
        }
        while self.running.front().is_some_and(Task::is_finished) {
            if let Some(task) = self.running.pop_front() {
                out.extend(self.apply_scored(task.join()));
            }
        }
        self.in_flight()
    }

    /// The handed-out probe's cluster onto the open segment, waiting for
    /// the job (running it here if nobody has started it).
    fn apply_probe(&mut self) {
        if let Some(task) = self.probe.take() {
            let m = task.join();
            self.open.matched = Some(m.cluster);
            self.note_match(m);
        }
    }

    /// The barrier every synchronous path takes (flush, blackout reset,
    /// quarantine, checkpoint): hand out whatever is deferred, then wait
    /// for each job in flight in order — running any nobody has started
    /// here — and apply it.
    pub(crate) fn drain_jobs(&mut self) -> Vec<Verdict> {
        let mut handout = Handout::default();
        self.submit(&mut handout);
        handout.observe();
        // Oldest first, run here every job nobody has started — beside
        // whichever worker takes the others — then wait for the rest.
        if let Some(task) = &self.probe {
            task.run_here();
        }
        for task in &self.running {
            task.run_here();
        }
        self.apply_probe();
        let mut out = Vec::new();
        while let Some(task) = self.running.pop_front() {
            out.extend(self.apply_scored(task.join()));
        }
        out
    }

    /// Feed smoothed scores through the k-sigma detector; each decision
    /// releases the oldest pending score as a verdict.
    fn threshold(&mut self, smoothed: Vec<f64>, out: &mut Vec<Verdict>) {
        for sv in smoothed {
            let flagged = self.detector.push(sv);
            out.extend(self.emit_verdict(flagged));
        }
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
            precision: self.cfg.scoring_precision,
        })
    }

    /// Capture every field that can influence a future verdict bit.
    /// Configuration-derived fields (widths, watch masks, bounds) are
    /// rebuilt from the model and [`EngineConfig`] at restore. Jobs in
    /// flight are not state: the caller drains them first.
    pub(crate) fn snapshot(&self) -> NodeSnap {
        debug_assert_eq!(self.in_flight(), 0, "snapshot with jobs in flight");
        let open = self.open.snapshot();
        NodeSnap {
            node: self.node,
            next_step: self.next_step,
            next_row: self.next_row,
            pre: self.pre.state(),
            cuts: self.cuts.iter().copied().collect(),
            seg_start: open.start,
            seg_rows: open.rows,
            seg_row_kinds: open.kinds,
            matched: open.matched,
            jobs: self.jobs.iter().map(Segment::snapshot).collect(),
            probe_pending: self.probe_pending,
            smoother: self.smoother.snapshot(),
            detector: self.detector.snapshot(),
            pending: self.pending.iter().cloned().collect(),
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
    pub(crate) fn restore(
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
        if s.row_kinds.len() < s.pre.buf.len() {
            return Err(SnapshotError::Decode(
                "row provenance out of sync with rows".into(),
            ));
        }
        st.next_step = s.next_step;
        st.next_row = s.next_row;
        st.pre.resume(s.pre)?;
        st.cuts = s.cuts.into();
        let seg_width = st.model.preprocessor.out_dim();
        let open = JobSnap {
            start: s.seg_start,
            rows: s.seg_rows,
            kinds: s.seg_row_kinds,
            matched: s.matched,
            degraded: false,
        };
        st.open = Segment::restore(open, seg_width, true)?;
        st.jobs = s
            .jobs
            .into_iter()
            .map(|j| Segment::restore(j, seg_width, false))
            .collect::<Result<_, _>>()?;
        st.probe_pending = s.probe_pending;
        st.smoother = StreamingSmoother::restore(cfg.smooth_window, &s.smoother);
        st.detector = StreamingKSigma::restore(st.model.cfg.threshold, &s.detector);
        st.pending = s.pending.into();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{cfg, model};
    use ns_telemetry::DatasetProfile;

    /// A blackout reset leaves the node exactly as `NodeState::new` builds
    /// it, apart from what it carries over: the reorder buffer, the
    /// counters, the rejoin cursors and the resync mark.
    #[test]
    fn blackout_reset_is_a_fresh_node_plus_what_it_carries() {
        let model = model();
        let cfg = EngineConfig {
            smooth_window: model.cfg.smooth_window,
            ..cfg()
        };
        let feed: Vec<Tick> = DatasetProfile::tiny()
            .generate()
            .ticks()
            .into_iter()
            .filter(|t| t.node == 0)
            .collect();
        // Into the test span: rows in flight, an open segment, a pending
        // probe, scores in the smoothing lag, and one early tick waiting
        // in the reorder buffer when the reset comes.
        let upto = cfg.split + model.cfg.match_period + 20;
        let mut node = NodeState::new(Arc::clone(&model), 0, &cfg);
        for tick in &feed[..upto] {
            node.offer(tick);
        }
        let rejoin = upto + 3;
        node.offer(&feed[rejoin]);
        assert_eq!(node.ahead.len(), 1);
        node.blackout_reset(rejoin);
        assert_eq!(node.faults.blackouts, 1);
        assert!(node.stats.n_points > 0);

        let mut want = NodeState::new(model, 0, &cfg);
        want.ahead = node.ahead.clone();
        want.stats = node.stats;
        want.faults = node.faults;
        want.next_step = rejoin;
        want.next_row = rejoin;
        want.resync_degraded = true;
        // Debug text compares the NaN-filled stuck watch as equal.
        assert_eq!(
            format!("{:?}", node.snapshot()),
            format!("{:?}", want.snapshot())
        );
    }

    /// Keeps every pool worker busy until dropped, so jobs handed out
    /// meanwhile stay unstarted until this thread runs them.
    struct HoldWorkers {
        gate: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
        blockers: Vec<rayon::Task<()>>,
    }

    impl HoldWorkers {
        fn new() -> Self {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
            let started = Arc::new(AtomicUsize::new(0));
            // More blockers than workers can exist: a worker spawned
            // later claims a queued blocker before any job behind it.
            let n = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
            let blockers = (0..n)
                .map(|_| {
                    let (gate, started) = (Arc::clone(&gate), Arc::clone(&started));
                    rayon::submit(move || {
                        started.fetch_add(1, Ordering::SeqCst);
                        let (open, cv) = &*gate;
                        let mut open = open.lock().unwrap();
                        while !*open {
                            open = cv.wait(open).unwrap();
                        }
                    })
                })
                .collect();
            while started.load(Ordering::SeqCst) < rayon::pool_stats().workers.min(n) {
                std::thread::yield_now();
            }
            HoldWorkers { gate, blockers }
        }
    }

    impl Drop for HoldWorkers {
        fn drop(&mut self) {
            *self.gate.0.lock().unwrap() = true;
            self.gate.1.notify_all();
            // Blockers nobody claimed are dropped unrun.
            self.blockers.clear();
        }
    }

    /// Segment jobs that finish in reverse order are applied in the
    /// node's own: a finished job waits for its predecessors, and the
    /// verdict sequence equals in-order application.
    #[test]
    fn jobs_finished_in_reverse_apply_in_node_order() {
        let model = model();
        let cfg = EngineConfig {
            smooth_window: model.cfg.smooth_window,
            ..cfg()
        };
        let feed: Vec<Tick> = DatasetProfile::tiny()
            .generate()
            .ticks()
            .into_iter()
            .filter(|t| t.node == 0)
            .collect();
        let offered = || {
            let mut node = NodeState::new(Arc::clone(&model), 0, &cfg);
            for tick in &feed {
                assert!(node.offer(tick).is_empty());
            }
            node
        };
        // In order, each job run where it is handed out.
        let mut node = offered();
        let want = rayon::with_thread_parallelism_cap(Some(1), || node.flush());

        let prev = rayon::thread_count_override();
        rayon::set_thread_count_override(Some(2));
        let mut node = offered();
        let hold = HoldWorkers::new();
        let mut handout = Handout::default();
        let mut got = node.end_of_stream(&mut handout);
        rayon::set_thread_count_override(prev);
        assert!(got.is_empty());
        assert!(handout.segments >= 3, "{} segments", handout.segments);
        let tasks = &handout.tasks;
        assert!(tasks.iter().all(|t| !t.is_finished()), "held jobs ran");
        // Every job but the first finishes, last first: none applies.
        for task in tasks[1..].iter().rev() {
            assert!(task.run_here());
            assert_eq!(node.apply_finished(&mut got), tasks.len());
        }
        assert!(got.is_empty());
        // The first one finishes: all of them apply, in order.
        assert!(tasks[0].run_here());
        assert_eq!(node.apply_finished(&mut got), 0);
        drop(hold);
        got.extend(node.finish_tail(false));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.step, g.score.to_bits(), g.anomalous, g.cluster, g.kind),
                (w.step, w.score.to_bits(), w.anomalous, w.cluster, w.kind)
            );
        }
    }
}
