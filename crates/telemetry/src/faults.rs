//! Seeded fault injection for tick streams — the delivery-layer analogue
//! of [`crate::anomaly`].
//!
//! [`crate::anomaly`] corrupts the *signals* a node emits; this module
//! corrupts the *transport* that carries them to the detector: dropped
//! ticks, duplicated and out-of-order delivery, NaN bursts, stuck-at-
//! last-value sensors, counter resets, clock skew, and whole-node
//! blackouts with rejoin. Every perturbation is planned up front from a
//! seed ([`FaultPlan`]), applied deterministically ([`FaultInjector`]),
//! and recorded as ground truth, so the differential fault-tolerance
//! suite (`tests/fault_tolerance.rs`) can compare the hardened streaming
//! engine against the clean batch oracle *outside* the faulted windows
//! and check degraded-mode annotations *inside* them.
//!
//! The injector is purely a stream transformer: `Vec<Tick>` in,
//! `Vec<Tick>` out, plus the set of `(node, step)` labels that were never
//! delivered at all. It knows nothing about the detector. Its input is a
//! dataset's clean feed, [`Dataset::ticks`](crate::Dataset::ticks).

use ns_wire::Tick;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashSet;

/// The fault taxonomy. Each class models a failure mode observed in
/// production HPC telemetry collection (see DESIGN.md §"Fault model").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Ticks inside the window are omitted with probability `magnitude`.
    Drop,
    /// Ticks inside the window are re-delivered a few positions later
    /// with probability `magnitude` (at-least-once transport).
    Duplicate,
    /// Delivery order inside the window is locally shuffled; no tick is
    /// displaced by more than `magnitude` positions.
    Reorder,
    /// Every value of every tick in the window is NaN (collector up,
    /// payload lost).
    NanBurst,
    /// The columns in `cols` repeat their last pre-window value for the
    /// whole window (frozen sensor / stale cache).
    StuckSensor,
    /// The cumulative columns in `cols` lose their accumulated history for
    /// the window (collector restart): values in `[start, end)` are
    /// rebased to zero, so the first in-window rate goes negative and the
    /// recovery rate at `end` spikes back up.
    CounterReset,
    /// Ticks inside the window are stamped `magnitude` steps late
    /// (`step += skew`), so some labels never arrive and others arrive
    /// twice.
    ClockSkew,
    /// The node goes dark for the whole window, then rejoins.
    Blackout,
}

/// All fault classes, for sweeps.
pub const ALL_FAULTS: [FaultKind; 8] = [
    FaultKind::Drop,
    FaultKind::Duplicate,
    FaultKind::Reorder,
    FaultKind::NanBurst,
    FaultKind::StuckSensor,
    FaultKind::CounterReset,
    FaultKind::ClockSkew,
    FaultKind::Blackout,
];

/// One planned fault: a class applied to one node over `[start, end)`.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    pub node: usize,
    pub kind: FaultKind,
    /// First affected step.
    pub start: usize,
    /// One past the last affected step.
    pub end: usize,
    /// Class-specific knob: drop/duplicate probability, reorder
    /// displacement bound, or clock-skew distance in steps.
    pub magnitude: f64,
    /// Raw columns targeted by `StuckSensor` / `CounterReset` (ignored by
    /// the other classes).
    pub cols: Vec<usize>,
}

impl FaultEvent {
    /// The step labels whose *content or presence* this event may
    /// corrupt, before any detector-side widening. `Duplicate` and
    /// `Reorder` return an empty range: a bounded reorder buffer heals
    /// them completely, so no label is dirty.
    pub fn dirty_range(&self) -> (usize, usize) {
        match self.kind {
            FaultKind::Duplicate | FaultKind::Reorder => (self.start, self.start),
            // The skewed relabeling corrupts delivery up to `skew` steps
            // past the window end (those labels arrive twice).
            FaultKind::ClockSkew => (self.start, self.end + self.magnitude as usize),
            // The rebased window corrupts every rate inside it, plus the
            // re-jump rate at `end` when the true level returns.
            FaultKind::CounterReset => (self.start, self.end + 1),
            _ => (self.start, self.end),
        }
    }
}

/// A deterministic schedule of fault events plus the seed that resolves
/// their per-tick coin flips.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
    pub seed: u64,
}

/// Knobs for [`FaultPlan::random`].
#[derive(Clone, Debug)]
pub struct FaultPlanSpec {
    pub seed: u64,
    /// Steps where fault windows may start: `[lo, hi)`.
    pub window: (usize, usize),
    /// Fault classes to draw from.
    pub kinds: Vec<FaultKind>,
    /// Expected fraction of `window` steps covered by fault events, per
    /// node.
    pub rate: f64,
    /// Event length range `[min, max]` in steps.
    pub event_len: (usize, usize),
    /// Raw stream width (for choosing `StuckSensor` columns).
    pub n_cols: usize,
    /// Raw columns that hold cumulative counters (`CounterReset`
    /// targets); when empty, `CounterReset` is skipped.
    pub counter_cols: Vec<usize>,
}

impl FaultPlan {
    /// A plan holding exactly one event (per-class differential tests).
    pub fn single(event: FaultEvent, seed: u64) -> Self {
        FaultPlan {
            events: vec![event],
            seed,
        }
    }

    /// Draw a random plan: every node gets enough events of the given
    /// classes to cover roughly `rate` of the window.
    pub fn random(spec: &FaultPlanSpec, n_nodes: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0xFA_07);
        let (lo, hi) = spec.window;
        let span = hi.saturating_sub(lo);
        let mut events = Vec::new();
        if span == 0 || spec.kinds.is_empty() {
            return FaultPlan {
                events,
                seed: spec.seed,
            };
        }
        let (min_len, max_len) = spec.event_len;
        let mean_len = ((min_len + max_len) / 2).max(1);
        let per_node = ((spec.rate * span as f64 / mean_len as f64).round() as usize).max(1);
        for node in 0..n_nodes {
            for _ in 0..per_node {
                let kind = spec.kinds[rng.gen_range(0..spec.kinds.len())];
                let len = rng.gen_range(min_len..=max_len).min(span);
                let start = lo + rng.gen_range(0..(span - len + 1).max(1));
                let magnitude = match kind {
                    FaultKind::Drop | FaultKind::Duplicate => rng.gen_range(0.3f64..1.0),
                    FaultKind::Reorder => rng.gen_range(2u32..6) as f64,
                    FaultKind::ClockSkew => rng.gen_range(2u32..8) as f64,
                    _ => 1.0,
                };
                let cols = match kind {
                    FaultKind::StuckSensor => {
                        // Freeze a contiguous half of the columns — broad
                        // enough for run-length detection to confirm.
                        let take = (spec.n_cols / 2).max(1).min(spec.n_cols);
                        let first = rng.gen_range(0..(spec.n_cols - take + 1).max(1));
                        (first..first + take).collect()
                    }
                    FaultKind::CounterReset => spec.counter_cols.clone(),
                    _ => Vec::new(),
                };
                if kind == FaultKind::CounterReset && cols.is_empty() {
                    continue;
                }
                events.push(FaultEvent {
                    node,
                    kind,
                    start,
                    end: start + len,
                    magnitude,
                    cols,
                });
            }
        }
        events.sort_by_key(|e| (e.node, e.start));
        FaultPlan {
            events,
            seed: spec.seed,
        }
    }

    /// Union of [`FaultEvent::dirty_range`]s for one node, merged and
    /// sorted.
    pub fn dirty_windows(&self, node: usize) -> Vec<(usize, usize)> {
        let mut ws: Vec<(usize, usize)> = self
            .events
            .iter()
            .filter(|e| e.node == node)
            .map(|e| e.dirty_range())
            .filter(|&(s, e)| e > s)
            .collect();
        ws.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::new();
        for (s, e) in ws {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        merged
    }
}

/// Result of applying a plan to a clean stream.
pub struct FaultOutcome {
    /// The perturbed stream, in delivery order.
    pub stream: Vec<Tick>,
    /// `(node, step)` labels that were never delivered at all (dropped,
    /// blacked out, or erased by clock skew). The hardened engine must
    /// not emit a verdict for any of them.
    pub dropped: FxHashSet<(usize, usize)>,
}

/// Applies a [`FaultPlan`] to a clean tick stream.
///
/// The clean stream must carry, per node, exactly one tick per step from
/// 0 to that node's horizon — the contract
/// [`Dataset::ticks`](crate::Dataset::ticks) satisfies. Value faults mutate payloads in place; delivery
/// faults then drop, duplicate, displace, or relabel ticks. The output
/// preserves global step-major interleaving except where a fault says
/// otherwise.
pub struct FaultInjector {
    plan: FaultPlan,
}

/// Delivery-order sub-slot: duplicates land after every native tick of
/// the same position.
const SLOT: u64 = 4;

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn apply(&self, clean: &[Tick]) -> FaultOutcome {
        let n_nodes = clean.iter().map(|t| t.node + 1).max().unwrap_or(0);
        // Per-node timelines indexed by step.
        let mut timelines: Vec<Vec<Tick>> = vec![Vec::new(); n_nodes];
        for t in clean {
            timelines[t.node].push(t.clone());
        }
        for (node, tl) in timelines.iter_mut().enumerate() {
            tl.sort_by_key(|t| t.step);
            for (i, t) in tl.iter().enumerate() {
                assert_eq!(
                    t.step, i,
                    "node {node}: clean stream must be a gapless 0-based step grid"
                );
            }
        }

        let mut rng = ChaCha8Rng::seed_from_u64(self.plan.seed ^ 0x001C_C7E4);
        // Deliveries as (sort key, tiebreak, tick). Key = position * SLOT
        // so duplicates and jitter have sub-step room.
        let mut deliveries: Vec<(u64, u64, Tick)> = Vec::new();
        let mut seq = 0u64;

        for (node, tl) in timelines.iter_mut().enumerate() {
            let horizon = tl.len();
            // --- value faults (mutate payloads in place) -------------
            for ev in self.plan.events.iter().filter(|e| e.node == node) {
                let (start, end) = (ev.start.min(horizon), ev.end.min(horizon));
                match ev.kind {
                    FaultKind::NanBurst => {
                        for t in &mut tl[start..end] {
                            for v in &mut t.values {
                                *v = f64::NAN;
                            }
                        }
                    }
                    FaultKind::StuckSensor => {
                        if start == 0 {
                            continue;
                        }
                        let frozen: Vec<f64> =
                            ev.cols.iter().map(|&c| tl[start - 1].values[c]).collect();
                        for t in &mut tl[start..end] {
                            for (&c, &fv) in ev.cols.iter().zip(&frozen) {
                                t.values[c] = fv;
                            }
                        }
                    }
                    FaultKind::CounterReset => {
                        if start >= end {
                            continue;
                        }
                        let base: Vec<f64> = ev.cols.iter().map(|&c| tl[start].values[c]).collect();
                        // Transient rebase: the collector restart loses the
                        // accumulated level for the window, then the primary
                        // source recovers and reports the true cumulative
                        // value again — a downward step into the window and
                        // an upward re-jump out of it. (Keeping the fault
                        // transient also keeps the post-window stream
                        // bit-identical to the clean one, which the
                        // differential harness depends on: rebasing is not
                        // shift-invariant under fp interpolation/averaging.)
                        for t in &mut tl[start..end] {
                            for (&c, &b) in ev.cols.iter().zip(&base) {
                                if !t.values[c].is_nan() && b.is_finite() {
                                    t.values[c] -= b;
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            // --- delivery faults -------------------------------------
            // Per-step flags: dropped / duplicated / jitter / relabel.
            let mut keep = vec![true; horizon];
            let mut dup_lag = vec![0usize; horizon];
            let mut jitter = vec![0u64; horizon];
            let mut relabel: Vec<Option<usize>> = vec![None; horizon];
            for ev in self.plan.events.iter().filter(|e| e.node == node) {
                let (start, end) = (ev.start.min(horizon), ev.end.min(horizon));
                match ev.kind {
                    FaultKind::Drop => {
                        for flag in &mut keep[start..end] {
                            if rng.gen_range(0.0f64..1.0) < ev.magnitude {
                                *flag = false;
                            }
                        }
                    }
                    FaultKind::Blackout => {
                        for flag in &mut keep[start..end] {
                            *flag = false;
                        }
                    }
                    FaultKind::Duplicate => {
                        for lag in &mut dup_lag[start..end] {
                            if rng.gen_range(0.0f64..1.0) < ev.magnitude {
                                *lag = rng.gen_range(1usize..4);
                            }
                        }
                    }
                    FaultKind::Reorder => {
                        let depth = (ev.magnitude as u64).max(1);
                        // Bounded displacement: with per-tick forward
                        // jitter in [0, depth], a stable sort moves no
                        // tick more than `depth` positions.
                        let mut idx: Vec<usize> = (start..end).collect();
                        idx.shuffle(&mut rng);
                        for s in idx {
                            jitter[s] = rng.gen_range(0..=depth);
                        }
                    }
                    FaultKind::ClockSkew => {
                        let skew = (ev.magnitude as usize).max(1);
                        for (s, slot) in relabel.iter_mut().enumerate().take(end).skip(start) {
                            *slot = Some(s + skew);
                        }
                    }
                    _ => {}
                }
            }
            for (s, tick) in tl.iter().enumerate() {
                if !keep[s] {
                    continue;
                }
                let mut t = tick.clone();
                if let Some(label) = relabel[s] {
                    // A tick stamped past the end of the capture window is
                    // simply lost — the injector never delivers a label the
                    // clean grid doesn't have, so downstream consumers can
                    // size per-step buffers by the horizon.
                    if label >= horizon {
                        continue;
                    }
                    t.step = label;
                }
                let key = (s as u64 + jitter[s]) * SLOT;
                if dup_lag[s] > 0 {
                    let dup_key = (s + dup_lag[s]) as u64 * SLOT + 1;
                    deliveries.push((dup_key, seq, t.clone()));
                    seq += 1;
                }
                deliveries.push((key, seq, t));
                seq += 1;
            }
        }

        deliveries.sort_by_key(|&(key, seq, _)| (key, seq));
        let delivered: FxHashSet<(usize, usize)> = deliveries
            .iter()
            .map(|(_, _, t)| (t.node, t.step))
            .collect();
        let dropped: FxHashSet<(usize, usize)> = timelines
            .iter()
            .enumerate()
            .flat_map(|(node, tl)| (0..tl.len()).map(move |s| (node, s)))
            .filter(|label| !delivered.contains(label))
            .collect();
        FaultOutcome {
            stream: deliveries.into_iter().map(|(_, _, t)| t).collect(),
            dropped,
        }
    }
}

// ---------------------------------------------------------------------
// Socket-level faults
// ---------------------------------------------------------------------

/// A seeded schedule of *transport* faults for the wire client
/// ([`crate::client::IngestClient`]): where [`FaultPlan`] corrupts tick
/// content and delivery order, this layer corrupts the TCP session
/// carrying the frames — partial writes, stalls, torn frames,
/// disconnect/reconnect cycles, duplicate connections.
///
/// All of these are *verdict-neutral* by construction: partial writes and
/// stalls only stress the server's frame reassembly; torn frames and
/// duplicate connections re-send data the engine already consumed (it
/// rejects the copy as a duplicate); disconnects sync with a ping before
/// closing so nothing in flight is lost. `tests/wire_equivalence.rs`
/// holds the engine to bit-identical verdicts under the full plan.
#[derive(Clone, Debug)]
pub struct SocketFaultPlan {
    pub seed: u64,
    /// Probability a frame's bytes are written in several small chunks.
    pub partial_write_rate: f64,
    /// Probability the client stalls before writing a frame.
    pub stall_rate: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Sync and cleanly reconnect every N frames (0 = never).
    pub disconnect_every: usize,
    /// Probability a frame is torn: after a sync, write a strict prefix,
    /// drop the connection, reconnect, and re-send the whole frame.
    pub torn_frame_rate: f64,
    /// Probability an already-ingested tick frame is re-sent on a
    /// short-lived second connection (at-least-once redelivery).
    pub duplicate_conn_rate: f64,
}

impl SocketFaultPlan {
    /// No socket faults at all.
    pub fn none() -> Self {
        SocketFaultPlan {
            seed: 0,
            partial_write_rate: 0.0,
            stall_rate: 0.0,
            stall_ms: 0,
            disconnect_every: 0,
            torn_frame_rate: 0.0,
            duplicate_conn_rate: 0.0,
        }
    }

    /// Every fault class at once, rates tuned so a few-hundred-frame
    /// session hits each one several times without dominating wall time.
    pub fn chaos(seed: u64) -> Self {
        SocketFaultPlan {
            seed,
            partial_write_rate: 0.05,
            stall_rate: 0.01,
            stall_ms: 2,
            disconnect_every: 97,
            torn_frame_rate: 0.01,
            duplicate_conn_rate: 0.01,
        }
    }

    pub fn is_none(&self) -> bool {
        self.partial_write_rate == 0.0
            && self.stall_rate == 0.0
            && self.disconnect_every == 0
            && self.torn_frame_rate == 0.0
            && self.duplicate_conn_rate == 0.0
    }
}

/// What the client should do to the frame it is about to send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketFaultAction {
    /// Write the frame normally.
    Clean,
    /// Write the frame in this many separate chunks.
    PartialWrite { chunks: usize },
    /// Sleep this long, then write normally.
    Stall { ms: u64 },
    /// Sync, close cleanly, reconnect, then write.
    Disconnect,
    /// Sync, write a strict prefix, drop the connection, reconnect, and
    /// re-send the whole frame.
    TornResend,
    /// Write normally, sync, then re-send the same frame on a fresh
    /// second connection.
    DuplicateConn,
}

/// Counts of each socket fault actually exercised, for reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SocketFaultCounters {
    pub partial_writes: u64,
    pub stalls: u64,
    pub disconnects: u64,
    pub torn_resends: u64,
    pub duplicate_conns: u64,
}

impl SocketFaultCounters {
    pub fn total(&self) -> u64 {
        self.partial_writes
            + self.stalls
            + self.disconnects
            + self.torn_resends
            + self.duplicate_conns
    }
}

/// Draws one [`SocketFaultAction`] per outgoing frame, deterministically
/// from the plan's seed.
pub struct SocketFaultInjector {
    plan: SocketFaultPlan,
    rng: ChaCha8Rng,
    frames: usize,
}

impl SocketFaultInjector {
    pub fn new(plan: SocketFaultPlan) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(plan.seed ^ 0x0050_CCE7);
        SocketFaultInjector {
            plan,
            rng,
            frames: 0,
        }
    }

    /// Decide the fate of the next outgoing frame. At most one fault per
    /// frame; the scheduled disconnect takes priority so its cadence
    /// stays exact.
    pub fn next_action(&mut self) -> SocketFaultAction {
        self.frames += 1;
        let p = &self.plan;
        if p.disconnect_every > 0 && self.frames.is_multiple_of(p.disconnect_every) {
            return SocketFaultAction::Disconnect;
        }
        let roll: f64 = self.rng.gen();
        let mut edge = p.torn_frame_rate;
        if roll < edge {
            return SocketFaultAction::TornResend;
        }
        edge += p.duplicate_conn_rate;
        if roll < edge {
            return SocketFaultAction::DuplicateConn;
        }
        edge += p.partial_write_rate;
        if roll < edge {
            return SocketFaultAction::PartialWrite {
                chunks: self.rng.gen_range(2usize..5),
            };
        }
        edge += p.stall_rate;
        if roll < edge {
            return SocketFaultAction::Stall { ms: p.stall_ms };
        }
        SocketFaultAction::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_stream(n_nodes: usize, horizon: usize) -> Vec<Tick> {
        let mut out = Vec::new();
        for step in 0..horizon {
            for node in 0..n_nodes {
                out.push(Tick {
                    node,
                    step,
                    values: vec![step as f64, (node * 1000 + step) as f64],
                    transition: false,
                });
            }
        }
        out
    }

    fn event(kind: FaultKind, node: usize, start: usize, end: usize, mag: f64) -> FaultEvent {
        FaultEvent {
            node,
            kind,
            start,
            end,
            magnitude: mag,
            cols: vec![0],
        }
    }

    #[test]
    fn blackout_drops_exactly_the_window() {
        let clean = clean_stream(2, 50);
        let plan = FaultPlan::single(event(FaultKind::Blackout, 1, 10, 20, 1.0), 1);
        let out = FaultInjector::new(plan).apply(&clean);
        assert_eq!(out.dropped.len(), 10);
        for s in 10..20 {
            assert!(out.dropped.contains(&(1, s)));
        }
        // Node 0 untouched and in order.
        let n0: Vec<usize> = out
            .stream
            .iter()
            .filter(|t| t.node == 0)
            .map(|t| t.step)
            .collect();
        assert_eq!(n0, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn reorder_is_bounded_and_lossless() {
        let clean = clean_stream(1, 80);
        let plan = FaultPlan::single(event(FaultKind::Reorder, 0, 20, 60, 4.0), 9);
        let out = FaultInjector::new(plan).apply(&clean);
        assert!(out.dropped.is_empty());
        let steps: Vec<usize> = out.stream.iter().map(|t| t.step).collect();
        assert_eq!(steps.len(), 80);
        let mut displaced = 0usize;
        for (pos, &s) in steps.iter().enumerate() {
            assert!(pos.abs_diff(s) <= 4, "tick {s} displaced to {pos}");
            displaced += (pos != s) as usize;
        }
        assert!(displaced > 0, "seeded reorder should move something");
    }

    #[test]
    fn duplicates_arrive_after_their_original() {
        let clean = clean_stream(1, 40);
        let plan = FaultPlan::single(event(FaultKind::Duplicate, 0, 5, 30, 1.0), 3);
        let out = FaultInjector::new(plan).apply(&clean);
        assert!(out.dropped.is_empty());
        assert!(out.stream.len() > 40);
        let mut first_seen = std::collections::HashMap::new();
        for (pos, t) in out.stream.iter().enumerate() {
            let prev = first_seen.insert(t.step, pos);
            if let Some(p) = prev {
                assert!(pos > p, "duplicate of {} delivered before original", t.step);
            }
        }
    }

    #[test]
    fn clock_skew_erases_and_doubles_labels() {
        let clean = clean_stream(1, 60);
        let plan = FaultPlan::single(event(FaultKind::ClockSkew, 0, 20, 30, 5.0), 4);
        let out = FaultInjector::new(plan).apply(&clean);
        // Labels [20, 25) vanish; [30, 35) arrive twice.
        for s in 20..25 {
            assert!(out.dropped.contains(&(0, s)), "label {s} should be erased");
        }
        for s in 30..35 {
            let n = out.stream.iter().filter(|t| t.step == s).count();
            assert_eq!(n, 2, "label {s} should arrive twice");
        }
        assert_eq!((20, 35), plan_dirty(&FaultKind::ClockSkew));
    }

    fn plan_dirty(kind: &FaultKind) -> (usize, usize) {
        event(*kind, 0, 20, 30, 5.0).dirty_range()
    }

    #[test]
    fn counter_reset_rebases_window_then_recovers() {
        let clean = clean_stream(1, 30);
        let plan = FaultPlan::single(event(FaultKind::CounterReset, 0, 10, 20, 1.0), 2);
        let out = FaultInjector::new(plan).apply(&clean);
        for t in &out.stream {
            let expect = if (10..20).contains(&t.step) {
                t.step as f64 - 10.0
            } else {
                t.step as f64
            };
            assert_eq!(t.values[0], expect, "step {}", t.step);
            assert_eq!(t.values[1], (t.step) as f64, "col 1 untouched");
        }
        // The rates go wrong in [10, 21): every rebased sample plus the
        // re-jump when the true level returns.
        assert_eq!(
            (10, 21),
            event(FaultKind::CounterReset, 0, 10, 20, 1.0).dirty_range()
        );
    }

    #[test]
    fn stuck_sensor_freezes_only_target_columns() {
        let clean = clean_stream(1, 30);
        let plan = FaultPlan::single(event(FaultKind::StuckSensor, 0, 12, 22, 1.0), 2);
        let out = FaultInjector::new(plan).apply(&clean);
        for t in &out.stream {
            if (12..22).contains(&t.step) {
                assert_eq!(t.values[0], 11.0);
            } else {
                assert_eq!(t.values[0], t.step as f64);
            }
        }
    }

    #[test]
    fn random_plan_is_deterministic_and_in_window() {
        let spec = FaultPlanSpec {
            seed: 77,
            window: (100, 400),
            kinds: ALL_FAULTS.to_vec(),
            rate: 0.2,
            event_len: (10, 30),
            n_cols: 8,
            counter_cols: vec![2, 5],
        };
        let a = FaultPlan::random(&spec, 3);
        let b = FaultPlan::random(&spec, 3);
        assert_eq!(a.events.len(), b.events.len());
        assert!(!a.events.is_empty());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.kind, y.kind);
            assert_eq!((x.start, x.end), (y.start, y.end));
            assert!(x.start >= 100 && x.end <= 430);
        }
    }

    #[test]
    fn dirty_windows_merge_overlaps() {
        let plan = FaultPlan {
            events: vec![
                event(FaultKind::NanBurst, 0, 10, 20, 1.0),
                event(FaultKind::Drop, 0, 15, 25, 1.0),
                event(FaultKind::Reorder, 0, 30, 40, 3.0),
                event(FaultKind::Blackout, 0, 50, 60, 1.0),
            ],
            seed: 0,
        };
        assert_eq!(plan.dirty_windows(0), vec![(10, 25), (50, 60)]);
        assert!(plan.dirty_windows(1).is_empty());
    }

    #[test]
    fn socket_fault_schedule_is_deterministic_and_hits_every_class() {
        let draw = |seed| {
            let mut inj = SocketFaultInjector::new(SocketFaultPlan::chaos(seed));
            (0..2000).map(|_| inj.next_action()).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11), "same seed, same schedule");
        assert_ne!(a, draw(12), "different seed diverges");
        // The chaos plan exercises every class within a few thousand frames.
        assert!(a.contains(&SocketFaultAction::Disconnect));
        assert!(a.contains(&SocketFaultAction::TornResend));
        assert!(a.contains(&SocketFaultAction::DuplicateConn));
        assert!(a
            .iter()
            .any(|x| matches!(x, SocketFaultAction::PartialWrite { .. })));
        assert!(a
            .iter()
            .any(|x| matches!(x, SocketFaultAction::Stall { .. })));
        // Scheduled disconnect cadence is exact.
        assert_eq!(a[96], SocketFaultAction::Disconnect);
        // No-fault plan is all-clean.
        let mut none = SocketFaultInjector::new(SocketFaultPlan::none());
        assert!((0..100).all(|_| none.next_action() == SocketFaultAction::Clean));
    }
}
