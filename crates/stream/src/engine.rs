//! The sharded engine: configuration, worker-pool lifecycle, tick
//! routing with backpressure, and consistent checkpoint / restore.

use crate::metrics::{ingest_seconds, snapshot_metrics, ShardMetrics};
use crate::node::NodeState;
use crate::shard::{worker_loop, ShardCheckpoint, ShardMsg, ShardOutput};
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::{status, EngineError, FaultCounters, ScoringPrecision, StreamStats, Tick, Verdict};
use nodesentry_core::NodeSentry;
use ns_obs::events::{self, EventKind};
use rustc_hash::{FxHashMap, FxHashSet};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, Weak};
use std::time::Instant;

/// Bounded per-shard queue depth (tick batches). Ingest blocks when a
/// shard is this far behind — backpressure instead of unbounded RAM.
const SHARD_QUEUE_DEPTH: usize = 64;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// First test step; steps before it are preprocessing context.
    pub split: usize,
    /// Worker shards; nodes are routed by `node % n_shards`.
    pub n_shards: usize,
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
    /// Scoring tier (bit-critical). [`ScoringPrecision::F64`] (default)
    /// keeps streaming verdicts bit-identical to batch scoring.
    /// [`ScoringPrecision::F32`] runs segment scoring through the same
    /// forward tape at f32 over each model's own f32 copy of its weights —
    /// faster, with an accuracy delta measured by the deployment bench
    /// rather than pinned. Probe matching is f64 in both tiers, so the
    /// matched cluster never depends on the tier. Every [`Verdict`] is
    /// tagged with the tier that produced it, snapshots refuse to
    /// restore across tiers, and wire clients can announce the tier they
    /// expect on Hello.
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
            smooth_window: 1,
            reorder_bound: 32,
            blackout_gap: 240,
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
///
/// Dropping an engine instead of finishing it abandons the run: each
/// shard stops after its current batch without scoring its nodes' open
/// segments, and `drop` returns once every shard thread has exited.
pub struct Engine {
    senders: Vec<mpsc::SyncSender<ShardMsg>>,
    workers: Vec<std::thread::JoinHandle<ShardOutput>>,
    /// Set by `Drop`: the shards discard what is still queued and skip
    /// the end-of-stream flush.
    abandon: Arc<AtomicBool>,
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
        let model_fingerprint = model_fingerprint(&model);
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
    /// is the caller's one digest of `model` for this engine: taken by
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
        // Oversubscription clamp: a shard worker capped to width 1 runs
        // each scoring job inline through `rayon::submit` instead of
        // publishing it to the pool, and the same cap sizes its jobs in
        // flight (`Jobs::bound`). Uncapped, `n_shards` workers would keep
        // `n_shards × width` threads busy on `cores` hardware threads, so
        // each worker gets its fair share. Results are unaffected — jobs
        // apply in per-node order whatever the width — only scheduling
        // changes.
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
        let abandon = Arc::new(AtomicBool::new(false));
        let mut senders = Vec::with_capacity(n_shards);
        let mut workers = Vec::with_capacity(n_shards);
        let mut queue_gauges = Vec::with_capacity(n_shards);
        for (shard, (states, quarantined)) in init.drain(..).enumerate() {
            let (tx, rx) = mpsc::sync_channel::<ShardMsg>(SHARD_QUEUE_DEPTH);
            let model = Arc::clone(&model);
            let abandon = Arc::clone(&abandon);
            // Registration is idempotent: this resolves to the same
            // underlying gauge the worker's `ShardMetrics` decrements.
            queue_gauges.push(ShardMetrics::new(shard).queue_depth);
            let handle = std::thread::Builder::new()
                .name(format!("ns-stream-{shard}"))
                .spawn(move || {
                    // Thread-local and scoped: caps every parallel
                    // dispatch this worker makes (its scoring jobs
                    // included) without touching other shards or the
                    // caller, and is restored even if the loop unwinds.
                    rayon::with_thread_parallelism_cap(kernel_cap, || {
                        worker_loop(shard, rx, &abandon, model, cfg, states, quarantined)
                    })
                })
                .map_err(|e| EngineError::SpawnFailed(e.to_string()))?;
            senders.push(tx);
            workers.push(handle);
        }
        Ok(Engine {
            senders,
            workers,
            abandon,
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
    /// shard rebalancing work. `snap` is checked where it lies, and the
    /// node states take over their buffers from one clone of it only once
    /// it is accepted; [`Engine::restore_bytes`] hands over the decoded
    /// ones and copies nothing.
    pub fn restore(
        model: Arc<NodeSentry>,
        cfg: EngineConfig,
        snap: &EngineSnapshot,
    ) -> Result<Self, EngineError> {
        Self::restore_noted(Self::restore_since(
            Instant::now(),
            model,
            cfg,
            Cow::Borrowed(snap),
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
                .and_then(|snap| Self::restore_since(t0, model, cfg, Cow::Owned(snap))),
        )
    }

    /// A refused restore — undecodable bytes, another model, another
    /// config — leaves what a failed checkpoint leaves.
    pub(crate) fn restore_noted(res: Result<Self, EngineError>) -> Result<Self, EngineError> {
        if let Err(e) = &res {
            status::engine_status()
                .restore_failures
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            note_failure(EventKind::Restore, "restore_failure", e);
        }
        res
    }

    /// [`Engine::restore`], with the `ns_stream_restore_seconds` clock
    /// started by the caller, so a restore from bytes is timed from
    /// before its decode. A borrowed snapshot is cloned only once it has
    /// passed the checks. Observes the histogram exactly once per
    /// successful restore.
    fn restore_since(
        t0: Instant,
        model: Arc<NodeSentry>,
        cfg: EngineConfig,
        snap: Cow<'_, EngineSnapshot>,
    ) -> Result<Self, EngineError> {
        // The engine's one digest, checked here before any state is built
        // (or anything copied), then handed to `spawn`.
        let fp = model_fingerprint(&model);
        if snap.model_fingerprint != fp {
            return Err(SnapshotError::ModelMismatch {
                snapshot: snap.model_fingerprint,
                model: fp,
            }
            .into());
        }
        // The bit-critical fields. (The tiers produce different score
        // bits: resuming a run across them would splice two incompatible
        // score streams.)
        let tier = |p: ScoringPrecision| p.to_ordinal() as usize;
        for (field, snapshot, config) in [
            ("split", snap.split, cfg.split),
            ("smooth_window", snap.smooth_window, cfg.smooth_window),
            (
                "scoring_precision",
                tier(snap.scoring_precision),
                tier(cfg.scoring_precision),
            ),
        ] {
            if snapshot != config {
                return Err(SnapshotError::ConfigMismatch {
                    field,
                    snapshot: snapshot as u64,
                    config: config as u64,
                }
                .into());
            }
        }
        let snap = snap.into_owned();
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
                note_failure(EventKind::Checkpoint, "checkpoint_failure", e);
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
    /// metric (see [`metrics`](crate::metrics)) plus anything else the
    /// process registered — as a Prometheus `/metrics` endpoint on `addr` (e.g.
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
    pub fn finish(mut self) -> EngineReport {
        self.senders.clear();
        let mut verdicts = Vec::new();
        let mut stats = self.carried_stats;
        let mut faults = self.carried_faults;
        for handle in std::mem::take(&mut self.workers) {
            match handle.join() {
                Ok((v, s, f)) => {
                    verdicts.extend(v);
                    stats.merge(&s);
                    faults.merge(&f);
                }
                Err(_) => faults.worker_crashes += 1,
            }
        }
        verdicts.sort_by_key(|v| (v.node, v.step));
        EngineReport {
            verdicts,
            stats,
            faults,
            wall_seconds: self.started.elapsed().as_secs_f64(),
            n_shards: self.n_shards,
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.abandon.store(true, Ordering::SeqCst);
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// [`NodeSentry::fingerprint`] of `model`, computed once per model
/// allocation: a process-wide memo holds a `(Weak, digest)` entry per live
/// model an engine was built or restored with. Dead entries are pruned on
/// every call, so it needs no size bound; the hashing runs outside the
/// lock.
///
/// A hit cannot be stale. `NodeSentry` is not `Clone`, so `Arc::make_mut`
/// does not apply; while the entry's `Weak` exists `Arc::get_mut` returns
/// `None`, so safe code gets no `&mut` to the hashed value; taking the
/// value out (`Arc::into_inner`, `Arc::try_unwrap`) ends its life in the
/// allocation, and the entry reads dead; and the `Weak` keeps the
/// allocation, so no other model is placed at its address while the entry
/// exists. A hit names exactly the bytes that were hashed — given that
/// nothing the digest covers is interior-mutable (a store's lazily built
/// f32 weight copy serializes as `null` and is not covered).
fn model_fingerprint(model: &Arc<NodeSentry>) -> u64 {
    type Memo = Vec<(Weak<NodeSentry>, u64)>;
    static MEMO: Mutex<Memo> = Mutex::new(Vec::new());
    // Every update leaves the memo valid, so a poisoned lock is too.
    let memo = || MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    let lookup = |memo: &mut Memo| {
        memo.retain(|(weak, _)| weak.strong_count() > 0);
        memo.iter()
            .find(|(weak, _)| std::ptr::eq(weak.as_ptr(), Arc::as_ptr(model)))
            .map(|&(_, fp)| fp)
    };
    if let Some(fp) = lookup(&mut memo()) {
        return fp;
    }
    let weak = Arc::downgrade(model);
    let fp = model.fingerprint();
    #[cfg(test)]
    tests::DIGESTS.with(|n| n.set(n.get() + 1));
    let mut memo = memo();
    if lookup(&mut memo).is_none() {
        memo.push((weak, fp));
    }
    fp
}

/// What a failed checkpoint or restore leaves besides its `/statusz`
/// count: a `"failed"` event and, while armed, an incident.
fn note_failure(kind: EventKind, trigger: &'static str, e: &EngineError) {
    events::record(kind, "failed", -1, -1, 0, 0);
    if ns_obs::incident::is_armed() {
        let what = trigger.trim_end_matches("_failure");
        ns_obs::incident::capture(trigger, &format!("engine {what} failed: {e}"));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nodesentry_core::{CoarseConfig, NodeInput, NodeSentryConfig, SharingConfig};
    use ns_features::FeatureCatalog;
    use ns_linalg::matrix::Matrix;
    use ns_telemetry::DatasetProfile;
    use std::cell::Cell;
    use std::sync::OnceLock;

    thread_local! {
        /// Content digests [`model_fingerprint`] computed on this thread.
        pub(super) static DIGESTS: Cell<usize> = const { Cell::new(0) };
    }

    /// Content digests computed while `f` ran.
    fn digests_in(f: impl FnOnce()) -> usize {
        let before = DIGESTS.with(Cell::get);
        f();
        DIGESTS.with(Cell::get) - before
    }

    struct Fixture {
        /// A small fitted model's file: each `from_json` of it is a new
        /// model, equal to every other.
        json: String,
        split: usize,
        /// Preprocessed rows of one node, for `incremental_update`.
        segment: Matrix,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let ds = DatasetProfile::tiny().generate();
            let inputs: Vec<NodeInput> = (0..ds.n_nodes())
                .map(|n| NodeInput {
                    raw: ds.raw_node(n),
                    transitions: Vec::new(),
                })
                .collect();
            let cfg = NodeSentryConfig {
                coarse: CoarseConfig {
                    catalog: FeatureCatalog::compact(),
                    k_max: 4,
                    ..Default::default()
                },
                sharing: SharingConfig {
                    window: 12,
                    stride: 12,
                    d_model: 8,
                    n_heads: 2,
                    n_layers: 1,
                    hidden: 16,
                    n_experts: 2,
                    epochs: 1,
                    batch: 16,
                    k_nearest: 2,
                    ..Default::default()
                },
                match_period: 40,
                min_segment_len: 8,
                ..Default::default()
            };
            let model = NodeSentry::fit(cfg, &inputs, &ds.catalog.group_ids(), ds.split);
            Fixture {
                json: model.to_json(false).expect("serialize"),
                split: ds.split,
                segment: model.preprocess(&inputs[0].raw).slice_rows(0, 60),
            }
        })
    }

    pub(crate) fn model() -> Arc<NodeSentry> {
        Arc::new(NodeSentry::from_json(&fixture().json).expect("model file"))
    }

    pub(crate) fn cfg() -> EngineConfig {
        let mut cfg = EngineConfig::new(fixture().split);
        cfg.n_shards = 1;
        cfg
    }

    /// The bytes of a new engine's checkpoint over `model`, with the engine
    /// joined: the caller holds the only strong reference again.
    fn checkpoint(model: &Arc<NodeSentry>) -> Vec<u8> {
        let engine = Engine::new(Arc::clone(model), cfg());
        let bytes = engine.checkpoint().expect("checkpoint").bytes;
        engine.finish();
        bytes
    }

    fn restore(model: &Arc<NodeSentry>, bytes: &[u8]) -> Result<(), EngineError> {
        Engine::restore_bytes(Arc::clone(model), cfg(), bytes).map(|engine| {
            engine.finish();
        })
    }

    /// `model` taken out of its allocation, changed by `change`, and put
    /// back in a new one, which must refuse `bytes`, the checkpoint of the
    /// old value: the memo answers for an allocation, never for a value.
    fn refuses_after(
        model: Arc<NodeSentry>,
        bytes: &[u8],
        change: impl FnOnce(&mut NodeSentry),
    ) -> Arc<NodeSentry> {
        let taken_with = model.fingerprint();
        let mut value = Arc::into_inner(model).expect("the engines are joined");
        change(&mut value);
        let changed = Arc::new(value);
        match restore(&changed, bytes) {
            Err(EngineError::Snapshot(SnapshotError::ModelMismatch { snapshot, model })) => {
                assert_eq!(snapshot, taken_with);
                assert_eq!(model, changed.fingerprint());
                assert_ne!(model, taken_with);
            }
            other => panic!("a changed model restored the old checkpoint: {other:?}"),
        }
        changed
    }

    #[test]
    fn memo_hashes_one_allocation_once_across_new_and_restores() {
        let model = model();
        let computed = digests_in(|| {
            let bytes = checkpoint(&model);
            restore(&model, &bytes).expect("restore");
            restore(&model, &bytes).expect("restore again");
        });
        assert_eq!(computed, 1);
    }

    #[test]
    fn memo_hashes_equal_models_once_per_allocation() {
        let (a, b) = (model(), model());
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal models");
        let computed = digests_in(|| {
            let bytes = checkpoint(&a);
            restore(&b, &bytes).expect("an equal model restores");
            restore(&a, &bytes).expect("restore");
            checkpoint(&b);
        });
        assert_eq!(computed, 2);
    }

    #[test]
    fn memo_entry_denies_get_mut_on_the_hashed_model() {
        let mut model = model();
        checkpoint(&model);
        assert_eq!(Arc::strong_count(&model), 1, "the engine is joined");
        assert!(Arc::get_mut(&mut model).is_none());
    }

    #[test]
    fn memo_does_not_outlive_a_model_taken_out_of_its_allocation() {
        let model = model();
        let bytes = checkpoint(&model);
        let model = refuses_after(model, &bytes, |m| {
            let params = &mut m.shared_models.last_mut().expect("a model").params;
            let last = params.len() - 1;
            let w = params
                .get_mut(last)
                .as_mut_slice()
                .last_mut()
                .expect("a weight");
            *w = f64::from_bits(w.to_bits() ^ 1);
        });
        let bytes = checkpoint(&model);
        refuses_after(model, &bytes, |m| {
            m.incremental_update(&fixture().segment, 1);
        });
    }
}
