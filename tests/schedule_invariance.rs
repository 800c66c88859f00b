//! The deferred scoring schedule must be invisible in the output. The
//! engine never scores a segment where it closes: at every tick batch
//! boundary the shard hands each closed segment and each ready probe to
//! the thread pool as a scoring job, and applies finished jobs at a later
//! boundary in per-node order; every synchronous path (checkpoint,
//! end-of-stream flush, blackout reset, quarantine) first waits at a
//! barrier for the node's jobs. *When* a job runs and is applied — how
//! the feed is chunked into `ingest` calls, how nodes are spread over
//! shards — must not move one verdict bit (`f64::to_bits` on scores; equality on node,
//! step, flag, cluster and kind; equal point and match-cycle counts), on
//! clean feeds and under fault-injection plans (drops, reorders, NaN
//! bursts, blackouts, chaos panics). On the clean and single-fault feeds
//! the engine is also held to a per-node inline
//! `NodeState::offer`/`flush` replay: no shards, no scoring job in flight
//! between batches, every job run where it is handed out.
//!
//! The engine's *correctness* reference is `NodeSentry::score_node`
//! (`stream_equivalence.rs`, `fault_tolerance.rs`); this suite only pins
//! that scheduling is not an input.

mod common;

use common::{setup, Setup, BLACKOUT_GAP, REORDER_BOUND};
use nodesentry::stream::{Engine, EngineConfig, EngineReport, NodeState, Tick, Verdict};
use nodesentry::telemetry::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
use std::collections::BTreeMap;
use std::sync::Arc;

const SHARDS: [usize; 3] = [1, 2, 4];

fn cfg_of(setup: &Setup, shards: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(setup.ds.split);
    cfg.n_shards = shards;
    cfg.reorder_bound = REORDER_BOUND;
    cfg.blackout_gap = BLACKOUT_GAP;
    cfg
}

fn run(setup: &Setup, stream: &[Tick], cfg: EngineConfig, chunk: usize) -> EngineReport {
    let engine = Engine::new(Arc::clone(&setup.model), cfg);
    for batch in stream.chunks(chunk) {
        engine.ingest(batch.to_vec()).expect("stream shard alive");
    }
    engine.finish()
}

/// What one replay produced: sorted verdicts plus the point and
/// match-cycle counters.
struct Outcome {
    verdicts: Vec<Verdict>,
    n_points: u64,
    n_matches: u64,
}

impl From<EngineReport> for Outcome {
    fn from(r: EngineReport) -> Self {
        Outcome {
            verdicts: r.verdicts,
            n_points: r.stats.n_points,
            n_matches: r.stats.n_matches,
        }
    }
}

/// Per-node inline replay: one `NodeState` per node, offered its ticks
/// in stream order and flushed at the end. Every closed segment waits in
/// the node's own queue until `flush`, so no scoring job is in flight
/// mid-stream.
fn run_inline(setup: &Setup, stream: &[Tick]) -> Outcome {
    let cfg = cfg_of(setup, 1);
    let mut states: BTreeMap<usize, NodeState> = BTreeMap::new();
    let mut verdicts = Vec::new();
    for tick in stream {
        let state = states
            .entry(tick.node)
            .or_insert_with(|| NodeState::new(Arc::clone(&setup.model), tick.node, &cfg));
        verdicts.extend(state.offer(tick));
    }
    let (mut n_points, mut n_matches) = (0, 0);
    for state in states.values_mut() {
        verdicts.extend(state.flush());
        n_points += state.stats.n_points;
        n_matches += state.stats.n_matches;
    }
    verdicts.sort_by_key(|v| (v.node, v.step));
    Outcome {
        verdicts,
        n_points,
        n_matches,
    }
}

/// Bitwise comparison of two replays of the same feed.
fn assert_same_outcome(got: &Outcome, want: &Outcome, tag: &str) {
    assert_eq!(
        got.verdicts.len(),
        want.verdicts.len(),
        "{tag}: verdict counts diverged"
    );
    for (g, w) in got.verdicts.iter().zip(&want.verdicts) {
        assert_eq!((g.node, g.step), (w.node, w.step), "{tag}: stream order");
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "{tag}: node {} step {}: {} vs {}",
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
    assert_eq!(got.n_points, want.n_points, "{tag}: point counts");
    assert_eq!(got.n_matches, want.n_matches, "{tag}: match cycle counts");
}

/// Replay `stream` at every shard count × every chunking in `chunks` and
/// hold all of them bit-identical to the first; with `inline`, hold that
/// one to the per-node inline replay too.
fn check_stream(
    stream: &[Tick],
    chunks: &[usize],
    panic_at: Option<(usize, usize)>,
    inline: bool,
    tag: &str,
) {
    let setup = setup();
    let mut reference: Option<Outcome> = None;
    for shards in SHARDS {
        for &chunk in chunks {
            let mut cfg = cfg_of(setup, shards);
            cfg.panic_at = panic_at;
            let got = Outcome::from(run(setup, stream, cfg, chunk));
            match &reference {
                Some(want) => assert_same_outcome(&got, want, &format!("{tag}/s{shards}/c{chunk}")),
                None => {
                    assert!(!got.verdicts.is_empty(), "{tag}: no verdicts");
                    reference = Some(got);
                }
            }
        }
    }
    if inline {
        let want = reference.expect("at least one engine replay");
        assert_same_outcome(&run_inline(setup, stream), &want, &format!("{tag}/inline"));
    }
}

/// Every chunking the suite replays: one tick per `ingest`, one
/// monitoring cycle per `ingest` (the cross-node burst case), a size
/// that splits steps across batches, and one that bundles many steps.
fn all_chunkings() -> [usize; 4] {
    [1, setup().ds.n_nodes(), 7, 256]
}

#[test]
fn clean_feed_step_major_batches() {
    let setup = setup();
    // One batch per step: every node's segment-close and probe-ready
    // events of a cycle are handed out as jobs at the same boundary.
    check_stream(
        &setup.clean,
        &[setup.ds.n_nodes()],
        None,
        true,
        "clean/step-major",
    );
}

#[test]
fn clean_feed_arbitrary_chunking() {
    // Chunk sizes that split steps across batches and bundle several
    // steps per batch: arrival framing decides only when scoring jobs
    // are handed out and applied, never what they compute.
    check_stream(&setup().clean, &all_chunkings(), None, true, "clean");
}

#[test]
fn fault_plans_stay_bit_identical() {
    let setup = setup();
    let cases: Vec<(&str, FaultEvent)> = vec![
        (
            "drop",
            FaultEvent {
                node: 0,
                kind: FaultKind::Drop,
                start: 420,
                end: 450,
                magnitude: 0.6,
                cols: Vec::new(),
            },
        ),
        (
            "reorder",
            FaultEvent {
                node: 2,
                kind: FaultKind::Reorder,
                start: 380,
                end: 560,
                magnitude: 4.0,
                cols: Vec::new(),
            },
        ),
        (
            "nan-burst",
            FaultEvent {
                node: 3,
                kind: FaultKind::NanBurst,
                start: 430,
                end: 445,
                magnitude: 1.0,
                cols: Vec::new(),
            },
        ),
        (
            "blackout",
            FaultEvent {
                node: 1,
                kind: FaultKind::Blackout,
                start: 420,
                end: 500,
                magnitude: 1.0,
                cols: Vec::new(),
            },
        ),
    ];
    for (tag, event) in cases {
        let outcome = FaultInjector::new(FaultPlan::single(event, 0xD1FF)).apply(&setup.clean);
        check_stream(
            &outcome.stream,
            &all_chunkings(),
            None,
            true,
            &format!("fault/{tag}"),
        );
    }
}

#[test]
fn multi_event_plan_stays_bit_identical() {
    // Several fault classes live in one plan, hitting different nodes:
    // degraded, suppressed and clean segments are in flight as scoring
    // jobs at the same boundaries.
    let setup = setup();
    let mk = |node, kind, start, end, magnitude| FaultEvent {
        node,
        kind,
        start,
        end,
        magnitude,
        cols: Vec::new(),
    };
    let plan = FaultPlan {
        events: vec![
            mk(0, FaultKind::Drop, 410, 435, 0.5),
            mk(2, FaultKind::Reorder, 390, 520, 3.0),
            mk(3, FaultKind::NanBurst, 460, 475, 1.0),
        ],
        seed: 0xBEEF,
    };
    let outcome = FaultInjector::new(plan).apply(&setup.clean);
    check_stream(
        &outcome.stream,
        &all_chunkings(),
        None,
        false,
        "fault/multi",
    );
}

#[test]
fn chaos_panic_quarantine_preserves_equivalence() {
    // A worker panic quarantines the node mid-stream; the surviving
    // verdict set (including segments queued before the panic tick)
    // must not depend on where the batch boundaries fell.
    let setup = setup();
    let step = setup.ds.split + (setup.ds.horizon() - setup.ds.split) / 2;
    check_stream(
        &setup.clean,
        &all_chunkings(),
        Some((1, step)),
        false,
        "chaos",
    );
}
