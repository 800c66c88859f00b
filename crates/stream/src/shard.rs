//! One shard of the engine: the worker thread's receive loop, the
//! scoring jobs it hands out beside ingestion and applies back in
//! per-node order, and the live metering of what it emits.
//!
//! After every tick batch the shard hands each node's deferred work —
//! a closed segment, or the open segment's probe — to the thread pool as
//! one job and goes back to its queue without waiting; at the next batch
//! boundary it applies every finished job whose predecessors on the same
//! node are applied. A shard whose width is 1 runs each job where it
//! hands it out, so its jobs are applied at the boundary that made them.
//! Otherwise the shard thread runs the oldest job nobody has started
//! whenever its queue is empty or [`JOBS_PER_CORE`] jobs per core of its
//! width are in flight, so no core idles while a job waits. Every path
//! that reads a node's scoring chain synchronously — a checkpoint, the
//! end-of-stream flush, a blackout reset, a quarantine — first drains
//! that node's jobs ([`NodeState::drain_jobs`]).

use crate::metrics::{node_metrics, ShardMetrics};
use crate::node::{Handout, NodeState};
use crate::snapshot::NodeSnap;
use crate::{status, EngineConfig, FaultCounters, StreamStats, Tick, Verdict, VerdictKind};
use nodesentry_core::NodeSentry;
use ns_obs::events::{self, EventKind};
use rayon::TaskRef;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;

/// Scoring jobs in flight per core of the shard's width before the shard
/// stops taking ticks and runs them itself. The bound also caps the rows
/// and scores that jobs in flight hold.
const JOBS_PER_CORE: usize = 2;

/// Everything one shard hands back for a checkpoint.
pub(crate) struct ShardCheckpoint {
    pub(crate) nodes: Vec<NodeSnap>,
    pub(crate) quarantined: Vec<usize>,
    /// Verdicts finalized before the cut, drained from the worker.
    pub(crate) verdicts: Vec<Verdict>,
    /// Residual counters of states no longer in the map (quarantined).
    pub(crate) stats: StreamStats,
    pub(crate) faults: FaultCounters,
}

/// What a worker returns when its queue closes: its verdicts and the
/// merged counters of its nodes.
pub(crate) type ShardOutput = (Vec<Verdict>, StreamStats, FaultCounters);

/// What flows down a shard's queue: tick batches, interleaved with
/// checkpoint barriers. The channel is FIFO, so a checkpoint cuts at a
/// well-defined batch boundary — every batch ingested before
/// [`Engine::checkpoint`](crate::Engine::checkpoint) is reflected in the
/// snapshot, everything after belongs to the tail.
pub(crate) enum ShardMsg {
    Batch(Vec<Tick>),
    Checkpoint(mpsc::Sender<ShardCheckpoint>),
}

/// The shard's scoring jobs in flight.
struct Jobs {
    /// Nodes holding a job that is handed out and not yet applied.
    busy: BTreeSet<usize>,
    /// Every job handed out, oldest first, until it finishes: where the
    /// shard thread finds the oldest job nobody has started.
    order: VecDeque<TaskRef>,
    /// Jobs in flight at which the shard runs them itself.
    bound: usize,
}

impl Jobs {
    fn new() -> Self {
        Jobs {
            busy: BTreeSet::new(),
            order: VecDeque::new(),
            bound: JOBS_PER_CORE * rayon::current_num_threads(),
        }
    }

    /// Take over one submission's handles.
    fn track(&mut self, handout: Handout) {
        handout.observe();
        let unfinished = handout.tasks.into_iter().filter(|t| !t.is_finished());
        self.order.extend(unfinished);
    }

    /// The batch boundary: hand out every node's deferred work as one
    /// submission, apply what has finished, and run jobs here until fewer
    /// than the bound are in flight.
    fn submit(&mut self, states: &mut FxHashMap<usize, NodeState>, verdicts: &mut Vec<Verdict>) {
        let mut handout = Handout::default();
        for (&node, state) in states.iter_mut() {
            if state.has_deferred_work() {
                state.submit(&mut handout);
                self.busy.insert(node);
            }
        }
        self.track(handout);
        while self.apply(states, verdicts) >= self.bound {
            if !self.run_oldest() {
                // Every job in flight is running elsewhere: wait for the
                // oldest.
                let Some(task) = self.order.front() else {
                    break;
                };
                task.wait();
            }
        }
    }

    /// Apply, node by node, every finished job whose predecessors on its
    /// node are applied. Returns how many jobs are still in flight.
    fn apply(
        &mut self,
        states: &mut FxHashMap<usize, NodeState>,
        verdicts: &mut Vec<Verdict>,
    ) -> usize {
        let mut in_flight = 0;
        self.busy.retain(|node| {
            let Some(state) = states.get_mut(node) else {
                return false;
            };
            let mut vs = Vec::new();
            let left = state.apply_finished(&mut vs);
            meter_verdicts(&vs);
            verdicts.extend(vs);
            in_flight += left;
            left > 0
        });
        in_flight
    }

    /// Run the oldest job nobody has started on this thread; false if
    /// there is none.
    fn run_oldest(&mut self) -> bool {
        self.order.retain(|t| !t.is_finished());
        self.order.iter().any(|t| t.run_here())
    }

    /// Wait for every job in flight, running here, oldest first, each one
    /// nobody has started, and apply them all.
    fn drain(&mut self, states: &mut FxHashMap<usize, NodeState>, verdicts: &mut Vec<Verdict>) {
        while self.run_oldest() {}
        for node in std::mem::take(&mut self.busy) {
            if let Some(state) = states.get_mut(&node) {
                let vs = state.drain_jobs();
                meter_verdicts(&vs);
                verdicts.extend(vs);
            }
        }
        self.order.clear();
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

pub(crate) fn worker_loop(
    shard: usize,
    rx: mpsc::Receiver<ShardMsg>,
    abandon: &AtomicBool,
    model: Arc<NodeSentry>,
    cfg: EngineConfig,
    mut states: FxHashMap<usize, NodeState>,
    mut quarantined: FxHashSet<usize>,
) -> ShardOutput {
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
    let mut jobs = Jobs::new();
    loop {
        let msg = match rx.try_recv() {
            Ok(msg) => msg,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                // Nothing to ingest: run a job rather than idle.
                if jobs.run_oldest() {
                    jobs.apply(&mut states, &mut verdicts);
                    continue;
                }
                match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                }
            }
        };
        let batch = match msg {
            ShardMsg::Batch(batch) => batch,
            ShardMsg::Checkpoint(reply) => {
                // The cut captures every job's verdicts and state.
                jobs.drain(&mut states, &mut verdicts);
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
        // A dropped engine's queued batches are discarded.
        if abandon.load(Ordering::SeqCst) {
            continue;
        }
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
        jobs.submit(&mut states, &mut verdicts);
        publish_shard_metrics(&m, &states, &faults, &mut published);
    }
    // Nobody can receive what an abandoned engine would flush. (Dropping
    // the states drops their unstarted jobs unrun.)
    if abandon.load(Ordering::SeqCst) {
        return (verdicts, stats, faults);
    }
    // Channel closed: close every node's last segment and hand all of
    // them out before finishing any, then finish in node order so shard
    // output is deterministic.
    let mut nodes: Vec<usize> = states.keys().copied().collect();
    nodes.sort_unstable();
    let mut handout = Handout::default();
    let mut failed = FxHashSet::default();
    for &n in &nodes {
        let Some(state) = states.get_mut(&n) else {
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| state.end_of_stream(&mut handout))) {
            Ok(vs) => {
                meter_verdicts(&vs);
                verdicts.extend(vs);
            }
            Err(_) => {
                faults.quarantined_nodes += 1;
                failed.insert(n);
            }
        }
    }
    jobs.track(handout);
    while jobs.run_oldest() {}
    for n in nodes {
        let Some(state) = states.get_mut(&n) else {
            continue;
        };
        if !failed.contains(&n) {
            match catch_unwind(AssertUnwindSafe(|| state.finish_tail(false))) {
                Ok(vs) => {
                    meter_verdicts(&vs);
                    verdicts.extend(vs);
                }
                Err(_) => faults.quarantined_nodes += 1,
            }
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
