//! Differential checkpoint/restore conformance: an engine checkpointed
//! at step T, torn down, restored from the snapshot *bytes*, and fed the
//! remaining ticks must produce — prefix verdicts + tail verdicts —
//! exactly the verdict set of an engine that never stopped, bit for bit
//! (`score.to_bits()`), at 1, 2, and 4 shards, on clean and faulted
//! feeds. The snapshot itself must be byte-stable across a
//! restore→checkpoint round trip, and restore must reject the wrong
//! model or bit-critical config with typed errors instead of silently
//! diverging.

mod common;

use common::{
    assert_verdicts_identical, engine_cfg, run_uninterrupted, run_with_restore, setup, CHUNK,
};
use nodesentry::core::NodeSentry;
use nodesentry::stream::snapshot::{EngineSnapshot, SnapshotError};
use nodesentry::stream::{Engine, EngineError};
use nodesentry::telemetry::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
use std::sync::Arc;

const SHARDS: [usize; 3] = [1, 2, 4];

/// A cut strictly inside the test span: past the split, far from the end.
fn mid_cut(setup: &common::Setup) -> usize {
    let ticks_per_step = setup.ds.n_nodes();
    (setup.ds.split + (setup.ds.horizon() - setup.ds.split) / 2) * ticks_per_step
}

#[test]
fn clean_feed_checkpoint_restore_is_bit_identical() {
    let s = setup();
    let cut = mid_cut(s);
    for shards in SHARDS {
        let reference = run_uninterrupted(s, &s.clean, engine_cfg(s, shards));
        let run = run_with_restore(
            s,
            &s.clean,
            cut,
            engine_cfg(s, shards),
            engine_cfg(s, shards),
        );
        assert_verdicts_identical(
            &run.verdicts,
            &reference.verdicts,
            &format!("clean/s{shards}"),
        );
        assert!(
            run.tail_report.faults.is_clean(),
            "clean tail tripped fault counters: {:?}",
            run.tail_report.faults
        );
    }
}

#[test]
fn checkpoint_cut_position_never_leaks_or_drops_verdicts() {
    let s = setup();
    let ticks_per_step = s.ds.n_nodes();
    let reference = run_uninterrupted(s, &s.clean, engine_cfg(s, 2));
    // Early (pre-split context only), mid-span, and nearly-done cuts; the
    // late cut is deliberately not chunk-aligned.
    let cuts = [
        (s.ds.split / 2) * ticks_per_step,
        mid_cut(s),
        (s.ds.horizon() - 3) * ticks_per_step + 1,
    ];
    for cut in cuts {
        let run = run_with_restore(s, &s.clean, cut, engine_cfg(s, 2), engine_cfg(s, 2));
        assert_verdicts_identical(&run.verdicts, &reference.verdicts, &format!("cut@{cut}"));
    }
}

#[test]
fn faulted_feed_checkpoint_restore_is_bit_identical() {
    let s = setup();
    // Every fault class the injector offers lands somewhere in the span,
    // straddling the cut: drops and a stuck sensor before it, NaNs,
    // skew, and a blackout after.
    let mut events = vec![
        FaultEvent {
            node: 0,
            kind: FaultKind::Drop,
            start: 420,
            end: 450,
            magnitude: 0.6,
            cols: Vec::new(),
        },
        FaultEvent {
            node: 1,
            kind: FaultKind::Duplicate,
            start: 400,
            end: 460,
            magnitude: 0.5,
            cols: Vec::new(),
        },
        FaultEvent {
            node: 2,
            kind: FaultKind::Reorder,
            start: 380,
            end: 430,
            magnitude: 4.0,
            cols: Vec::new(),
        },
        FaultEvent {
            node: 3,
            kind: FaultKind::NanBurst,
            start: 520,
            end: 535,
            magnitude: 1.0,
            cols: Vec::new(),
        },
        FaultEvent {
            node: 0,
            kind: FaultKind::StuckSensor,
            start: 500,
            end: 540,
            magnitude: 1.0,
            cols: Vec::new(),
        },
        FaultEvent {
            node: 1,
            kind: FaultKind::ClockSkew,
            start: 500,
            end: 530,
            magnitude: 6.0,
            cols: Vec::new(),
        },
        FaultEvent {
            node: 2,
            kind: FaultKind::Blackout,
            start: 460,
            end: 520,
            magnitude: 1.0,
            cols: Vec::new(),
        },
    ];
    events[4].cols = (0..s.model.preprocessor.groups.len()).collect();
    let plan = FaultPlan {
        events,
        seed: 0xC4EC,
    };
    let outcome = FaultInjector::new(plan).apply(&s.clean);
    let cut = outcome.stream.len() / 2;
    for shards in SHARDS {
        let reference = run_uninterrupted(s, &outcome.stream, engine_cfg(s, shards));
        let run = run_with_restore(
            s,
            &outcome.stream,
            cut,
            engine_cfg(s, shards),
            engine_cfg(s, shards),
        );
        assert_verdicts_identical(
            &run.verdicts,
            &reference.verdicts,
            &format!("faulted/s{shards}"),
        );
    }
}

#[test]
fn restored_fault_counters_resume_from_the_snapshot() {
    let s = setup();
    // Drop fault entirely inside the prefix: its counters live in the
    // snapshot and must survive into the restored engine's final report.
    let plan = FaultPlan::single(
        FaultEvent {
            node: 0,
            kind: FaultKind::Drop,
            start: 420,
            end: 450,
            magnitude: 0.6,
            cols: Vec::new(),
        },
        0xD201,
    );
    let outcome = FaultInjector::new(plan).apply(&s.clean);
    let reference = run_uninterrupted(s, &outcome.stream, engine_cfg(s, 2));
    let cut = (470 * s.ds.n_nodes()).min(outcome.stream.len());
    let run = run_with_restore(s, &outcome.stream, cut, engine_cfg(s, 2), engine_cfg(s, 2));
    assert_verdicts_identical(&run.verdicts, &reference.verdicts, "prefix-fault");
    assert_eq!(
        run.tail_report.faults.synthesized_rows, reference.faults.synthesized_rows,
        "synthesized-row count must carry across the restore"
    );
    assert!(run.tail_report.faults.synthesized_rows > 0);
}

#[test]
fn snapshot_is_byte_stable_across_restore_checkpoint() {
    let s = setup();
    let cut = mid_cut(s);
    let engine = Engine::new(Arc::clone(&s.model), engine_cfg(s, 2));
    for chunk in s.clean[..cut].chunks(CHUNK) {
        engine.ingest(chunk.to_vec()).expect("shard alive");
    }
    let first = engine.checkpoint().expect("first checkpoint");
    // Idle engine: a second checkpoint sees the same state and has no new
    // verdicts to drain.
    let again = engine.checkpoint().expect("second checkpoint");
    assert_eq!(first.bytes, again.bytes, "idle re-checkpoint changed bytes");
    assert!(
        again.verdicts.is_empty(),
        "the first checkpoint already drained all {} verdicts",
        again.verdicts.len()
    );
    drop(engine);
    // Restore → immediate checkpoint reproduces the exact wire encoding.
    let restored = Engine::restore_bytes(Arc::clone(&s.model), engine_cfg(s, 2), &first.bytes)
        .expect("restore");
    let rt = restored.checkpoint().expect("restored checkpoint");
    assert_eq!(
        first.bytes, rt.bytes,
        "restore→checkpoint is not byte-stable"
    );
    assert!(rt.verdicts.is_empty());
    drop(restored);
    // And decode→re-encode reproduces the wire bytes (NaN-bearing state
    // defeats derived equality, so the round trip is held at the byte
    // level, which is strictly stronger).
    let snap = EngineSnapshot::from_bytes(&first.bytes).expect("decode");
    assert_eq!(snap.to_bytes(), first.bytes);
}

#[test]
fn restore_rejects_wrong_model_and_config_with_typed_errors() {
    let s = setup();
    let cut = mid_cut(s);
    let engine = Engine::new(Arc::clone(&s.model), engine_cfg(s, 2));
    for chunk in s.clean[..cut].chunks(CHUNK) {
        engine.ingest(chunk.to_vec()).expect("shard alive");
    }
    let ckpt = engine.checkpoint().expect("checkpoint");
    drop(engine);

    let mut wrong_model = ckpt.snapshot.clone();
    wrong_model.model_fingerprint ^= 1;
    match Engine::restore(Arc::clone(&s.model), engine_cfg(s, 2), &wrong_model).map(|_| ()) {
        Err(EngineError::Snapshot(SnapshotError::ModelMismatch { snapshot, model })) => {
            assert_eq!(snapshot, wrong_model.model_fingerprint);
            assert_eq!(model, s.model.fingerprint());
        }
        other => panic!("wrong model accepted: {other:?}"),
    }

    let mut bad_split = engine_cfg(s, 2);
    bad_split.split += 1;
    match Engine::restore(Arc::clone(&s.model), bad_split, &ckpt.snapshot).map(|_| ()) {
        Err(EngineError::Snapshot(SnapshotError::ConfigMismatch { field, .. })) => {
            assert_eq!(field, "split")
        }
        other => panic!("wrong split accepted: {other:?}"),
    }

    let mut bad_smooth = engine_cfg(s, 2);
    bad_smooth.smooth_window = 5;
    match Engine::restore(Arc::clone(&s.model), bad_smooth, &ckpt.snapshot).map(|_| ()) {
        Err(EngineError::Snapshot(SnapshotError::ConfigMismatch { field, .. })) => {
            assert_eq!(field, "smooth_window")
        }
        other => panic!("wrong smooth_window accepted: {other:?}"),
    }

    // The untampered snapshot still restores fine afterwards.
    let ok = Engine::restore(Arc::clone(&s.model), engine_cfg(s, 2), &ckpt.snapshot);
    assert!(ok.is_ok(), "clean restore failed: {:?}", ok.err());
}

#[test]
fn checkpoint_then_continue_equals_uninterrupted() {
    // The engine that *takes* the checkpoint keeps running: its own
    // post-cut verdicts joined with the drained prefix must also equal
    // the uninterrupted set (the cut is observation, not interference).
    let s = setup();
    let cut = mid_cut(s);
    let reference = run_uninterrupted(s, &s.clean, engine_cfg(s, 2));
    let engine = Engine::new(Arc::clone(&s.model), engine_cfg(s, 2));
    for chunk in s.clean[..cut].chunks(CHUNK) {
        engine.ingest(chunk.to_vec()).expect("shard alive");
    }
    let ckpt = engine.checkpoint().expect("checkpoint");
    for chunk in s.clean[cut..].chunks(CHUNK) {
        engine.ingest(chunk.to_vec()).expect("shard alive");
    }
    let report = engine.finish();
    let mut verdicts = ckpt.verdicts;
    verdicts.extend(report.verdicts.iter().cloned());
    verdicts.sort_by_key(|v| (v.node, v.step));
    assert_verdicts_identical(&verdicts, &reference.verdicts, "observe-and-continue");
}

// ---------------------------------------------------------------------
// Model fingerprint contract: what the digest a snapshot embeds covers
// ---------------------------------------------------------------------

/// An independent copy of the fixture's model (through the slim JSON
/// envelope, which the digest survives — `tests/serde_roundtrip.rs`),
/// with `tweak` applied.
fn model_with(s: &common::Setup, tweak: impl FnOnce(&mut NodeSentry)) -> NodeSentry {
    let json = s.model.to_json(false).expect("serialize");
    let mut model = NodeSentry::from_json(&json).expect("deserialize");
    tweak(&mut model);
    model
}

/// The last scalar of the last parameter of the last shared model — the
/// far end of everything the digest walks. `ParamStore::get_mut` bumps
/// the store's (serialized, hence hashed) mutation stamp, so weight cases
/// compare against a copy that was *touched* the same way and differ from
/// it in the weight alone.
fn last_weight(model: &mut NodeSentry) -> &mut f64 {
    let params = &mut model
        .shared_models
        .last_mut()
        .expect("a shared model")
        .params;
    let last = params.len() - 1;
    params
        .get_mut(last)
        .as_mut_slice()
        .last_mut()
        .expect("a non-empty parameter")
}

fn flip_low_bit(x: &mut f64) {
    *x = f64::from_bits(x.to_bits() ^ 1);
}

#[test]
fn fingerprint_changes_with_every_covered_component() {
    let s = setup();
    let base = s.model.fingerprint();
    assert_eq!(model_with(s, |_| {}).fingerprint(), base);

    let touched = model_with(s, |m| {
        last_weight(m);
    })
    .fingerprint();
    let flipped = model_with(s, |m| flip_low_bit(last_weight(m))).fingerprint();
    assert_ne!(flipped, touched, "lowest mantissa bit of the last weight");

    let pos_zero = model_with(s, |m| *last_weight(m) = 0.0).fingerprint();
    let neg_zero = model_with(s, |m| *last_weight(m) = -0.0).fingerprint();
    assert_ne!(pos_zero, neg_zero, "sign of a zero weight");

    type Tweak = fn(&mut NodeSentry);
    let cases: [(&str, Tweak); 4] = [
        ("a preprocessing statistic", |m| {
            flip_low_bit(&mut m.preprocessor.standardizer.mean[0])
        }),
        ("a centroid entry", |m| {
            flip_low_bit(&mut m.cluster_model.probe_centroids.as_mut_slice()[0])
        }),
        ("cfg.match_period", |m| m.cfg.match_period += 1),
        ("a dropped shared model", |m| {
            m.shared_models.pop();
        }),
    ];
    for (what, tweak) in cases {
        assert_ne!(model_with(s, tweak).fingerprint(), base, "{what}");
    }
}

/// The model-side twin of the tampered-snapshot case above: a *real*
/// checkpoint restored against a model that differs from the
/// checkpointed one by one mantissa bit of one weight.
#[test]
fn fingerprint_restore_rejects_one_flipped_weight_bit() {
    let s = setup();
    let taken_with = Arc::new(model_with(s, |m| {
        last_weight(m);
    }));
    let one_bit_off = Arc::new(model_with(s, |m| flip_low_bit(last_weight(m))));

    let engine = Engine::new(Arc::clone(&taken_with), engine_cfg(s, 2));
    for chunk in s.clean[..mid_cut(s)].chunks(CHUNK) {
        engine.ingest(chunk.to_vec()).expect("shard alive");
    }
    let ckpt = engine.checkpoint().expect("checkpoint");
    drop(engine);

    match Engine::restore_bytes(Arc::clone(&one_bit_off), engine_cfg(s, 2), &ckpt.bytes).map(|_| ())
    {
        Err(EngineError::Snapshot(SnapshotError::ModelMismatch { snapshot, model })) => {
            assert_eq!(snapshot, taken_with.fingerprint());
            assert_eq!(model, one_bit_off.fingerprint());
        }
        other => panic!("one-bit-different model accepted: {other:?}"),
    }
    let ok = Engine::restore_bytes(taken_with, engine_cfg(s, 2), &ckpt.bytes);
    assert!(ok.is_ok(), "same-model restore failed: {:?}", ok.err());
}

#[test]
fn fingerprint_value_is_fnv_of_the_tagged_component_trees() {
    // The digest is hashed from the components' `Serialize` events as
    // they are emitted; its *value* is pinned here against the preimage
    // spelled out from their `to_value()` trees — cfg, preprocessor,
    // cluster library, model count (bare u64 LE), then each shared model,
    // in the tagged encoding — so a snapshot taken by an earlier build
    // (which hashed those trees) still names this model.
    use serde::Serialize;
    let s = setup();
    let model = &*s.model;
    let mut preimage = Vec::new();
    common::tagged(&model.cfg.to_value(), &mut preimage);
    common::tagged(&model.preprocessor.to_value(), &mut preimage);
    common::tagged(&model.cluster_model.to_value(), &mut preimage);
    preimage.extend_from_slice(&(model.shared_models.len() as u64).to_le_bytes());
    for shared in &model.shared_models {
        common::tagged(&shared.to_value(), &mut preimage);
    }
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    for &b in &preimage {
        fnv = (fnv ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    assert!(!model.shared_models.is_empty() && preimage.len() > 10_000);
    assert_eq!(model.fingerprint(), fnv);
}
