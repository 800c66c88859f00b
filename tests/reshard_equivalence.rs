//! Live resharding conformance: a snapshot taken at N shards restored at
//! M shards (2→4 scale-out, 4→2 scale-in, and collapse to 1) re-routes
//! every node state by `node % M` and must keep the stitched verdict set
//! bit-identical to an engine that never resharded — on clean and
//! faulted feeds. Node join (a node first appears after the cut) and
//! node leave (a node stops before the cut) must behave exactly as in an
//! uninterrupted run over the same feed: no dropped, duplicated, or
//! invented verdicts.

mod common;

use common::{
    assert_verdicts_identical, engine_cfg, run_uninterrupted, run_with_restore, setup, Setup,
    BLACKOUT_GAP, CHUNK,
};
use nodesentry::stream::snapshot::EngineSnapshot;
use nodesentry::stream::{Engine, Tick};
use nodesentry::telemetry::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
use std::sync::Arc;

/// (pre-cut shards, post-cut shards): scale-out, scale-in, collapse,
/// and expand-from-one.
const RESHARDS: [(usize, usize); 4] = [(2, 4), (4, 2), (4, 1), (1, 4)];

fn mid_cut(s: &Setup) -> usize {
    (s.ds.split + (s.ds.horizon() - s.ds.split) / 2) * s.ds.n_nodes()
}

#[test]
fn clean_feed_survives_every_reshard_bit_identically() {
    let s = setup();
    let cut = mid_cut(s);
    // One single-shard reference serves every pair: shard count is
    // already proven verdict-neutral for uninterrupted runs.
    let reference = run_uninterrupted(s, &s.clean, engine_cfg(s, 1));
    for (pre, post) in RESHARDS {
        let run = run_with_restore(s, &s.clean, cut, engine_cfg(s, pre), engine_cfg(s, post));
        assert_verdicts_identical(
            &run.verdicts,
            &reference.verdicts,
            &format!("reshard {pre}->{post}"),
        );
        let snap = EngineSnapshot::from_bytes(&run.bytes).expect("decode");
        assert_eq!(snap.n_shards, pre, "snapshot records the pre-cut layout");
        assert_eq!(
            run.tail_report.n_shards, post,
            "tail report records the effective post-cut layout"
        );
    }
}

#[test]
fn faulted_feed_survives_resharding_across_the_cut() {
    let s = setup();
    // Faults straddle the cut on nodes that change shards in every
    // reshard pair: a reorder window and a drop burst in flight at the
    // moment of the cut, plus a blackout whose gap spans it.
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                node: 1,
                kind: FaultKind::Reorder,
                start: 400,
                end: 520,
                magnitude: 4.0,
                cols: Vec::new(),
            },
            FaultEvent {
                node: 2,
                kind: FaultKind::Drop,
                start: 430,
                end: 470,
                magnitude: 0.6,
                cols: Vec::new(),
            },
            FaultEvent {
                node: 3,
                kind: FaultKind::Blackout,
                start: 420,
                end: 490,
                magnitude: 1.0,
                cols: Vec::new(),
            },
        ],
        seed: 0x5EED,
    };
    let outcome = FaultInjector::new(plan).apply(&s.clean);
    let cut = outcome.stream.len() / 2;
    let reference = run_uninterrupted(s, &outcome.stream, engine_cfg(s, 1));
    for (pre, post) in RESHARDS {
        let run = run_with_restore(
            s,
            &outcome.stream,
            cut,
            engine_cfg(s, pre),
            engine_cfg(s, post),
        );
        assert_verdicts_identical(
            &run.verdicts,
            &reference.verdicts,
            &format!("faulted reshard {pre}->{post}"),
        );
    }
}

#[test]
fn node_join_after_the_cut_matches_uninterrupted() {
    let s = setup();
    let joiner = 3usize;
    let join_step = s.ds.split + BLACKOUT_GAP + 40;
    // The joining node has no ticks before `join_step`; everyone else
    // streams normally. The reference is an uninterrupted run over the
    // *same* feed — the lifecycle (checkpoint before the join, restore
    // with more shards, then the node appears) must be invisible.
    let feed: Vec<Tick> = s
        .clean
        .iter()
        .filter(|t| t.node != joiner || t.step >= join_step)
        .cloned()
        .collect();
    let cut = feed
        .iter()
        .position(|t| t.step >= join_step - 8)
        .expect("cut before the join");
    let reference = run_uninterrupted(s, &feed, engine_cfg(s, 2));
    let run = run_with_restore(s, &feed, cut, engine_cfg(s, 2), engine_cfg(s, 4));
    assert_verdicts_identical(&run.verdicts, &reference.verdicts, "node join");
    // The snapshot knows nothing of the joiner…
    let snap = EngineSnapshot::from_bytes(&run.bytes).expect("decode");
    assert!(
        snap.nodes.iter().all(|n| n.node != joiner),
        "joiner must not be in the pre-join snapshot"
    );
    // …yet it still gets verdicts after joining.
    assert!(
        run.verdicts
            .iter()
            .any(|v| v.node == joiner && v.step >= join_step),
        "joined node never produced a verdict"
    );
}

#[test]
fn node_leave_before_the_cut_matches_uninterrupted() {
    let s = setup();
    let leaver = 0usize;
    let leave_step = s.ds.split + 60;
    let feed: Vec<Tick> = s
        .clean
        .iter()
        .filter(|t| t.node != leaver || t.step < leave_step)
        .cloned()
        .collect();
    // Cut well after the departure: the leaver's final state rides the
    // snapshot into a *smaller* shard layout and must neither resurrect
    // nor lose verdicts.
    let cut = feed
        .iter()
        .position(|t| t.step >= leave_step + 100)
        .expect("cut after the leave");
    let reference = run_uninterrupted(s, &feed, engine_cfg(s, 4));
    let run = run_with_restore(s, &feed, cut, engine_cfg(s, 4), engine_cfg(s, 2));
    assert_verdicts_identical(&run.verdicts, &reference.verdicts, "node leave");
    assert!(
        run.verdicts
            .iter()
            .all(|v| v.node != leaver || v.step < leave_step),
        "departed node produced post-departure verdicts"
    );
}

#[test]
fn back_to_back_reshards_compose() {
    // 2 → 4 → 1 across two cuts, with no finish() in between: each
    // restore re-routes every node state again, and the three verdict
    // slices stitched together must still be bit-exact.
    let s = setup();
    let third = s.clean.len() / 3;
    let reference = run_uninterrupted(s, &s.clean, engine_cfg(s, 2));

    let a = Engine::new(Arc::clone(&s.model), engine_cfg(s, 2));
    for chunk in s.clean[..third].chunks(CHUNK) {
        a.ingest(chunk.to_vec()).expect("leg A alive");
    }
    let ckpt_a = a.checkpoint().expect("checkpoint A");
    drop(a);

    let b = Engine::restore_bytes(Arc::clone(&s.model), engine_cfg(s, 4), &ckpt_a.bytes)
        .expect("restore B");
    for chunk in s.clean[third..2 * third].chunks(CHUNK) {
        b.ingest(chunk.to_vec()).expect("leg B alive");
    }
    let ckpt_b = b.checkpoint().expect("checkpoint B");
    drop(b);

    let c = Engine::restore_bytes(Arc::clone(&s.model), engine_cfg(s, 1), &ckpt_b.bytes)
        .expect("restore C");
    for chunk in s.clean[2 * third..].chunks(CHUNK) {
        c.ingest(chunk.to_vec()).expect("leg C alive");
    }
    let tail = c.finish();

    let mut verdicts = ckpt_a.verdicts;
    verdicts.extend(ckpt_b.verdicts);
    verdicts.extend(tail.verdicts.iter().cloned());
    verdicts.sort_by_key(|v| (v.node, v.step));
    assert_verdicts_identical(&verdicts, &reference.verdicts, "2->4->1 chain");
    assert_eq!(tail.n_shards, 1);
}
