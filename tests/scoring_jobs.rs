//! Scoring jobs run beside ingestion: a shard hands each closed segment
//! (or open segment's probe) to the thread pool and goes back to its
//! queue, and every path that reads a node's scoring chain synchronously
//! — a checkpoint cut, a reshard restore, a blackout reset, a chaos-panic
//! quarantine, `finish` — first drains that node's jobs. This suite
//! drives each of those barriers while jobs of the same node are still
//! in flight, and holds the result bit-equal (verdicts, fault counters,
//! match counts) to the per-node inline `NodeState::offer`/`flush`
//! replay of the same feed.
//!
//! The barriers are reached with jobs in flight by handing the engine
//! everything before the barrier as one batch: every segment that batch
//! closes goes out at one boundary, the shard runs the oldest ones until
//! only a few per core are left, and the barrier comes next. Feeds of a
//! single node make those few all the same node's. Every case runs at 1
//! and 2 shards and at pool widths 1 and 2. Width 1 is the inline arm: a
//! job runs where it is handed out. So is a shard whose fair share of the
//! cores is one (2 shards on a 2-core machine).

mod common;

use common::{assert_verdicts_identical, engine_cfg, setup, Setup, BLACKOUT_GAP};
use nodesentry::stream::{Engine, EngineConfig, FaultCounters, NodeState, Tick, Verdict};
use nodesentry::telemetry::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

const SHARDS: [usize; 2] = [1, 2];
const WIDTHS: [usize; 2] = [1, 2];

/// The pool width is process-global: the cases of this binary take
/// turns.
fn width_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` at every shard count × pool width, with the width restored
/// even if `f` panics.
fn for_each_layout(mut f: impl FnMut(EngineConfig, &str)) {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            rayon::set_thread_count_override(None);
        }
    }
    let _turn = width_lock();
    let _reset = Reset;
    let s = setup();
    for width in WIDTHS {
        rayon::set_thread_count_override(Some(width));
        for shards in SHARDS {
            f(engine_cfg(s, shards), &format!("w{width}/s{shards}"));
        }
    }
}

/// What one replay produced.
struct Outcome {
    verdicts: Vec<Verdict>,
    faults: FaultCounters,
    n_matches: u64,
}

/// The reference: one `NodeState` per node, offered its ticks in stream
/// order and flushed at the end.
fn run_inline(s: &Setup, stream: &[Tick]) -> Outcome {
    let cfg = engine_cfg(s, 1);
    let mut states: BTreeMap<usize, NodeState> = BTreeMap::new();
    let mut verdicts = Vec::new();
    for tick in stream {
        let state = states
            .entry(tick.node)
            .or_insert_with(|| NodeState::new(Arc::clone(&s.model), tick.node, &cfg));
        verdicts.extend(state.offer(tick));
    }
    let mut faults = FaultCounters::default();
    let mut n_matches = 0;
    for state in states.values_mut() {
        verdicts.extend(state.flush());
        faults.merge(&state.faults);
        n_matches += state.stats.n_matches;
    }
    verdicts.sort_by_key(|v| (v.node, v.step));
    Outcome {
        verdicts,
        faults,
        n_matches,
    }
}

fn assert_same(got: &Outcome, want: &Outcome, tag: &str) {
    assert!(!want.verdicts.is_empty(), "{tag}: no verdicts");
    assert_verdicts_identical(&got.verdicts, &want.verdicts, tag);
    assert_eq!(got.faults, want.faults, "{tag}: fault counters");
    assert_eq!(got.n_matches, want.n_matches, "{tag}: match counts");
}

/// Ingest each of `batches` as one `ingest` call, optionally cut with a
/// checkpoint and a restore at `post_shards` before batch `cut`, and
/// finish. Verdicts drained by the checkpoint are stitched back in.
fn run_batches(
    s: &Setup,
    cfg: EngineConfig,
    batches: &[&[Tick]],
    cut: Option<(usize, usize)>,
) -> Outcome {
    let mut engine = Engine::new(Arc::clone(&s.model), cfg);
    let mut verdicts = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        if let Some((at, post_shards)) = cut {
            if at == i {
                let ckpt = engine.checkpoint().expect("checkpoint");
                verdicts.extend(ckpt.verdicts);
                drop(engine);
                let post = EngineConfig {
                    n_shards: post_shards,
                    ..cfg
                };
                engine = Engine::restore_bytes(Arc::clone(&s.model), post, &ckpt.bytes)
                    .expect("restore");
            }
        }
        engine.ingest(batch.to_vec()).expect("stream shard alive");
    }
    let report = engine.finish();
    verdicts.extend(report.verdicts);
    verdicts.sort_by_key(|v| (v.node, v.step));
    Outcome {
        verdicts,
        faults: report.faults,
        n_matches: report.stats.n_matches,
    }
}

/// Node `node`'s ticks alone.
fn one_node(stream: &[Tick], node: usize) -> Vec<Tick> {
    stream.iter().filter(|t| t.node == node).cloned().collect()
}

/// Index of the first tick at or past `step`.
fn at_step(stream: &[Tick], step: usize) -> usize {
    stream.partition_point(|t| t.step < step)
}

/// The last transition of `node` past the first test-span segment with
/// a blackout gap still fitting after it, if it has one.
fn late_transition(s: &Setup, node: usize) -> Option<usize> {
    let split = s.ds.split;
    s.ds.transitions(node)
        .into_iter()
        .filter(|&t| t > split + 10 && t + BLACKOUT_GAP + 20 < s.ds.horizon())
        .last()
}

/// The nodes that have such a transition, with it.
fn late_transitions(s: &Setup) -> Vec<(usize, usize)> {
    let out: Vec<(usize, usize)> = (0..s.ds.n_nodes())
        .filter_map(|node| Some((node, late_transition(s, node)?)))
        .collect();
    assert!(!out.is_empty(), "no node transitions late in the test span");
    out
}

/// Every feed the cases replay — the whole clean feed, and each node's
/// ticks alone — with its inline reference.
fn feeds(s: &Setup) -> Vec<(String, Vec<Tick>, Outcome)> {
    let mut out = vec![("all".to_string(), s.clean.clone())];
    for node in 0..s.ds.n_nodes() {
        out.push((format!("node{node}"), one_node(&s.clean, node)));
    }
    out.into_iter()
        .map(|(name, feed)| {
            let want = run_inline(s, &feed);
            (name, feed, want)
        })
        .collect()
}

#[test]
fn finish_with_jobs_in_flight() {
    let s = setup();
    let refs = feeds(s);
    for_each_layout(|cfg, layout| {
        for (name, feed, want) in &refs {
            // The whole feed in one batch: every segment but the last goes
            // out at one boundary, and the channel closes right after.
            let got = run_batches(s, cfg, &[feed], None);
            assert_same(&got, want, &format!("finish/{name}/{layout}"));
        }
    });
}

#[test]
fn checkpoint_cut_with_jobs_in_flight() {
    let s = setup();
    let refs = feeds(s);
    for_each_layout(|cfg, layout| {
        for (name, feed, want) in &refs {
            let cut = at_step(feed, (s.ds.split + s.ds.horizon()) / 2);
            let (head, tail) = feed.split_at(cut);
            let got = run_batches(s, cfg, &[head, tail], Some((1, cfg.n_shards)));
            assert_same(&got, want, &format!("checkpoint/{name}/{layout}"));
        }
    });
}

#[test]
fn reshard_restore_with_jobs_in_flight() {
    let s = setup();
    let want = run_inline(s, &s.clean);
    for_each_layout(|cfg, layout| {
        let cut = at_step(&s.clean, (s.ds.split + s.ds.horizon()) / 2);
        let (head, tail) = s.clean.split_at(cut);
        // 1 → 2 shards and 2 → 1: every odd node changes shards.
        let post = 3 - cfg.n_shards;
        let got = run_batches(s, cfg, &[head, tail], Some((1, post)));
        assert_same(&got, &want, &format!("reshard/{layout}->s{post}"));
    });
}

#[test]
fn blackout_reset_with_jobs_in_flight() {
    let s = setup();
    let cases: Vec<_> = late_transitions(s)
        .into_iter()
        .map(|(node, t)| {
            // The node goes dark one step after a transition: the segment
            // that transition closed goes out at the boundary before the
            // gap, and the rejoin tick resets the node in the next batch.
            let event = FaultEvent {
                node,
                kind: FaultKind::Blackout,
                start: t + 1,
                end: t + 1 + BLACKOUT_GAP + 10,
                magnitude: 1.0,
                cols: Vec::new(),
            };
            let faulted = FaultInjector::new(FaultPlan::single(event, 0x0B1A)).apply(&s.clean);
            let feed = one_node(&faulted.stream, node);
            let want = run_inline(s, &feed);
            assert_eq!(want.faults.blackouts, 1, "node {node}: the gap resets it");
            (node, t, feed, want)
        })
        .collect();
    for_each_layout(|cfg, layout| {
        for (node, t, feed, want) in &cases {
            let (head, tail) = feed.split_at(at_step(feed, t + 1));
            let got = run_batches(s, cfg, &[head, tail], None);
            assert_same(&got, want, &format!("blackout/node{node}/{layout}"));
        }
    });
}

#[test]
fn chaos_panic_quarantine_with_jobs_in_flight() {
    let s = setup();
    for (node, t) in late_transitions(s) {
        // The panic tick opens the second batch, right behind the
        // boundary that handed out the node's earlier segments.
        let panic_step = t + 2;
        let feed = &s.clean;
        let (head, tail) = feed.split_at(at_step(feed, panic_step));
        // The reference: the quarantined node keeps the verdicts of the
        // segments that closed before the panic tick — a prefix of its
        // inline verdicts — and every other node is untouched.
        let full = run_inline(s, feed);
        let (mine, others): (Vec<Verdict>, Vec<Verdict>) =
            full.verdicts.iter().cloned().partition(|v| v.node == node);
        let mut reference: Option<(Vec<Verdict>, FaultCounters, u64)> = None;
        for_each_layout(|mut cfg, layout| {
            cfg.panic_at = Some((node, panic_step));
            let got = run_batches(s, cfg, &[head, tail], None);
            let tag = format!("chaos/node{node}/{layout}");
            assert_eq!(got.faults.quarantined_nodes, 1, "{tag}: quarantined");
            let (dead, live): (Vec<Verdict>, Vec<Verdict>) =
                got.verdicts.iter().cloned().partition(|v| v.node == node);
            assert_verdicts_identical(&live, &others, &format!("{tag}: other nodes"));
            assert!(
                !dead.is_empty() && dead.len() < mine.len(),
                "{tag}: {} of the node's {} verdicts kept",
                dead.len(),
                mine.len()
            );
            assert_verdicts_identical(
                &dead,
                &mine[..dead.len()],
                &format!("{tag}: quarantined node"),
            );
            match &reference {
                Some((verdicts, faults, n_matches)) => {
                    assert_verdicts_identical(&got.verdicts, verdicts, &tag);
                    assert_eq!(&got.faults, faults, "{tag}: fault counters");
                    assert_eq!(got.n_matches, *n_matches, "{tag}: match counts");
                }
                None => reference = Some((got.verdicts, got.faults, got.n_matches)),
            }
        });
    }
}
