//! Property-based elastic lifecycle: for *arbitrary* seeded fault
//! plans, an arbitrary checkpoint cut, and arbitrary pre/post shard
//! counts, checkpoint → kill → restore-from-bytes → replay-tail must be
//! indistinguishable — bit for bit — from the engine that never
//! stopped, and the snapshot itself must survive a restore→checkpoint
//! round trip byte-identically. The streamed encoder's bytes must also
//! equal those of the test-side v3 tree codec for the same snapshot.

mod common;

use common::{assert_verdicts_identical, engine_cfg, run_uninterrupted, setup, CHUNK};
use nodesentry::stream::snapshot::EngineSnapshot;
use nodesentry::stream::Engine;
use nodesentry::telemetry::{FaultInjector, FaultPlan, FaultPlanSpec, ALL_FAULTS};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_cut_and_reshard_replay_bit_identically(
        seed in any::<u64>(),
        rate_pct in 2usize..12,
        pre_shards in 1usize..5,
        post_shards in 1usize..5,
        cut_pct in 5usize..95,
        chunk in 32usize..400,
    ) {
        let s = setup();
        let spec = FaultPlanSpec {
            seed,
            window: (1, s.ds.horizon()),
            kinds: ALL_FAULTS.to_vec(),
            rate: rate_pct as f64 / 100.0,
            event_len: (2, 30),
            n_cols: s.n_cols,
            counter_cols: s.counter_cols.clone(),
        };
        let plan = FaultPlan::random(&spec, s.ds.n_nodes());
        let outcome = FaultInjector::new(plan).apply(&s.clean);

        let reference = run_uninterrupted(s, &outcome.stream, engine_cfg(s, pre_shards));

        let cut = outcome.stream.len() * cut_pct / 100;
        let engine = Engine::new(Arc::clone(&s.model), engine_cfg(s, pre_shards));
        for batch in outcome.stream[..cut].chunks(chunk) {
            engine.ingest(batch.to_vec()).expect("prefix shard alive");
        }
        let ckpt = engine.checkpoint().expect("checkpoint");
        drop(engine);

        // Encode → decode → encode is byte-stable.
        let decoded = EngineSnapshot::from_bytes(&ckpt.bytes).expect("decode");
        prop_assert_eq!(decoded.to_bytes(), ckpt.bytes.clone(), "re-encode changed bytes");

        let restored = Engine::restore_bytes(
            Arc::clone(&s.model),
            engine_cfg(s, post_shards),
            &ckpt.bytes,
        )
        .expect("restore");
        // A freshly restored engine checkpoints back to the identical
        // state. The only field allowed to move is `n_shards`, which
        // records the layout of the engine that *took* the checkpoint;
        // with an unchanged layout the bytes themselves must match.
        let echo = restored.checkpoint().expect("echo checkpoint");
        prop_assert!(echo.verdicts.is_empty(), "restored engine invented verdicts");
        if pre_shards == post_shards {
            prop_assert_eq!(&echo.bytes, &ckpt.bytes, "restore→checkpoint not byte-stable");
        } else {
            let mut echo_snap = EngineSnapshot::from_bytes(&echo.bytes).expect("echo decode");
            prop_assert_eq!(echo_snap.n_shards, post_shards);
            echo_snap.n_shards = decoded.n_shards;
            // Byte-level comparison: derived equality is NaN-hostile.
            prop_assert_eq!(echo_snap.to_bytes(), ckpt.bytes.clone(), "restored state drifted");
        }

        for batch in outcome.stream[cut..].chunks(chunk) {
            restored.ingest(batch.to_vec()).expect("tail shard alive");
        }
        let tail = restored.finish();
        prop_assert_eq!(tail.n_shards, post_shards, "effective shard count misreported");

        let mut verdicts = ckpt.verdicts;
        verdicts.extend(tail.verdicts.iter().cloned());
        verdicts.sort_by_key(|v| (v.node, v.step));
        assert_verdicts_identical(
            &verdicts,
            &reference.verdicts,
            &format!(
                "seed={seed:#x} rate={rate_pct}% cut={cut_pct}% {pre_shards}->{post_shards}"
            ),
        );
    }

    #[test]
    fn clean_feed_random_cut_keeps_every_chunk_size_honest(
        cut_pct in 5usize..95,
        shards in 1usize..5,
    ) {
        let s = setup();
        let reference = run_uninterrupted(s, &s.clean, engine_cfg(s, shards));
        let cut = s.clean.len() * cut_pct / 100;
        let engine = Engine::new(Arc::clone(&s.model), engine_cfg(s, shards));
        for batch in s.clean[..cut].chunks(CHUNK) {
            engine.ingest(batch.to_vec()).expect("prefix shard alive");
        }
        let ckpt = engine.checkpoint().expect("checkpoint");
        drop(engine);
        let restored =
            Engine::restore_bytes(Arc::clone(&s.model), engine_cfg(s, shards), &ckpt.bytes)
                .expect("restore");
        for batch in s.clean[cut..].chunks(CHUNK) {
            restored.ingest(batch.to_vec()).expect("tail shard alive");
        }
        let tail = restored.finish();
        prop_assert!(tail.faults.is_clean(), "clean tail tripped counters: {:?}", tail.faults);
        let mut verdicts = ckpt.verdicts;
        verdicts.extend(tail.verdicts.iter().cloned());
        verdicts.sort_by_key(|v| (v.node, v.step));
        assert_verdicts_identical(
            &verdicts,
            &reference.verdicts,
            &format!("clean cut={cut_pct}% s={shards}"),
        );
    }
}

// ---------------------------------------------------------------------
// Differential: the streamed bytes are the tree codec's bytes
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // `to_bytes` never builds a `Value`; the bytes it streams must still
    // be exactly what a tree codec would write — the snapshot's
    // `to_value()` tree in the tagged encoding with every `Vec<f64>` of
    // the schema packed under tag 8, sealed in the v3 envelope (block
    // digests folded into the trailer), all spelled out test-side in
    // `common/envelope.rs` — on both tiers, with the
    // `scoring_precision` key omitted on F64 (the pinned key set) and
    // present on F32.
    #[test]
    fn streamed_bytes_equal_the_tree_codec_bytes(
        seed in any::<u64>(),
        rate_pct in 2usize..12,
        shards in 1usize..5,
        cut_pct in 5usize..95,
        chunk in 32usize..400,
        f32_tier in any::<bool>(),
    ) {
        use common::envelope::v3_bytes;
        use nodesentry::stream::snapshot::{decode, encode, SNAPSHOT_VERSION};
        use nodesentry::stream::ScoringPrecision;
        use serde::{Deserialize, Serialize};

        let s = setup();
        let spec = FaultPlanSpec {
            seed,
            window: (1, s.ds.horizon()),
            kinds: ALL_FAULTS.to_vec(),
            rate: rate_pct as f64 / 100.0,
            event_len: (2, 30),
            n_cols: s.n_cols,
            counter_cols: s.counter_cols.clone(),
        };
        let plan = FaultPlan::random(&spec, s.ds.n_nodes());
        let outcome = FaultInjector::new(plan).apply(&s.clean);
        let mut cfg = engine_cfg(s, shards);
        if f32_tier {
            cfg.scoring_precision = ScoringPrecision::F32;
        }
        let cut = outcome.stream.len() * cut_pct / 100;
        let engine = Engine::new(Arc::clone(&s.model), cfg);
        for batch in outcome.stream[..cut].chunks(chunk) {
            engine.ingest(batch.to_vec()).expect("prefix shard alive");
        }
        let ckpt = engine.checkpoint().expect("checkpoint");
        drop(engine);

        let tree = ckpt.snapshot.to_value();
        prop_assert_eq!(tree.get("scoring_precision").is_some(), f32_tier);

        // Oracle 1: the tree codec, spelled out test-side.
        prop_assert_eq!(SNAPSHOT_VERSION, 3);
        prop_assert!(ckpt.bytes == v3_bytes(&tree), "streamed bytes differ from the tree codec's");

        // Oracle 2: the tree through the production byte sink. A tree
        // does not know its float vectors from its other arrays, so it
        // writes them unpacked — more bytes, the same snapshot.
        let unpacked = encode(&tree);
        prop_assert!(unpacked.len() > ckpt.bytes.len());
        let via_sink: EngineSnapshot = decode(&unpacked).expect("decode unpacked");
        prop_assert!(via_sink.to_bytes() == ckpt.bytes, "tree and typed walk emit different events");

        // And back: bytes → tree → typed equals bytes → typed (compared
        // by re-encoding; snapshots carry NaN).
        let via_tree = EngineSnapshot::from_value(&tree).expect("from_value");
        prop_assert!(via_tree.to_bytes() == ckpt.bytes, "from_value(to_value) drifted");
        let direct = EngineSnapshot::from_bytes(&ckpt.bytes).expect("decode");
        prop_assert_eq!(direct.scoring_precision, cfg.scoring_precision);
        prop_assert!(direct.to_bytes() == ckpt.bytes, "from_bytes(to_bytes) drifted");
    }
}
