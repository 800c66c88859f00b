//! Contract of the opt-in f32 scoring tier
//! (`EngineConfig::scoring_precision`), in four parts:
//!
//! * **f64 invisibility** — with the tier left at its `F64` default the
//!   new plumbing must change nothing: verdicts stay bit-identical to a
//!   default-config oracle at 1/2/4 shards, on clean and fault-injected
//!   feeds, and every verdict carries the `F64` tag.
//! * **f32 fidelity floor** — on a seeded D2′-shaped feed the f32 tier
//!   must agree with the f64 oracle on at least [`AGREEMENT_FLOOR`] of
//!   verdict flags (the tier trades bit-stability for bandwidth, not
//!   detection quality), and the flags must be shard-count invariant
//!   *within* the tier.
//! * **kernel fidelity** — property test: `InferenceSessionF32::forward`
//!   tracks the f64 forward within a per-layer relative tolerance for
//!   arbitrary window contents.
//! * **mismatch rejection** — restoring a checkpoint under a different
//!   tier and announcing a mismatched tier over the wire both fail with
//!   typed errors, never a panic, and matching announcements succeed.

mod common;

use common::{
    assert_verdicts_identical, quick_cfg, run_uninterrupted, setup, Setup, BLACKOUT_GAP,
    REORDER_BOUND,
};
use nodesentry::nn::{
    BlockKind, InferenceSession, InferenceSessionF32, ParamStore, ReconstructionTransformer,
    TransformerConfig,
};
use nodesentry::stream::snapshot::SnapshotError;
use nodesentry::stream::{Engine, EngineConfig, EngineError, ScoringPrecision};
use nodesentry::telemetry::{
    DatasetProfile, FaultEvent, FaultInjector, FaultKind, FaultPlan, IngestClient,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const SHARDS: [usize; 3] = [1, 2, 4];

/// Minimum fraction of verdict flags on which the f32 tier must agree
/// with the f64 oracle on the seeded D2′-shaped feed. Measured ~1.0
/// (the tiers disagree only when a score lands within float noise of
/// the k-sigma threshold); pinned with headroom so the floor trips on
/// real fidelity loss, not on a single borderline point.
const AGREEMENT_FLOOR: f64 = 0.995;

static D2: OnceLock<Setup> = OnceLock::new();

/// D2′-shaped feed at test scale: the real schedule/catalog shape and
/// seed, trimmed to a quarter day so the fit stays test-sized.
fn d2() -> &'static Setup {
    D2.get_or_init(|| {
        let mut profile = DatasetProfile::d2_prime();
        profile.schedule.horizon = 720;
        profile.events_per_node = 2.0;
        Setup::fit(&profile, quick_cfg())
    })
}

fn cfg_of(setup: &Setup, shards: usize, precision: ScoringPrecision) -> EngineConfig {
    let mut cfg = EngineConfig::new(setup.ds.split);
    cfg.n_shards = shards;
    cfg.reorder_bound = REORDER_BOUND;
    cfg.blackout_gap = BLACKOUT_GAP;
    cfg.scoring_precision = precision;
    cfg
}

// ---------------------------------------------------------------------
// 1. The F64 default is the old engine, bit for bit
// ---------------------------------------------------------------------

#[test]
fn f64_tier_is_bit_identical_to_default_config() {
    let setup = setup();
    // Oracle: a config that never mentions the tier at all.
    let mut oracle_cfg = EngineConfig::new(setup.ds.split);
    oracle_cfg.n_shards = 1;
    oracle_cfg.reorder_bound = 16;
    oracle_cfg.blackout_gap = 48;
    let oracle = run_uninterrupted(setup, &setup.clean, oracle_cfg);
    assert!(
        oracle
            .verdicts
            .iter()
            .all(|v| v.precision == ScoringPrecision::F64),
        "default-config verdicts must carry the F64 tag"
    );
    for shards in SHARDS {
        let got = run_uninterrupted(
            setup,
            &setup.clean,
            cfg_of(setup, shards, ScoringPrecision::F64),
        );
        assert_verdicts_identical(&got.verdicts, &oracle.verdicts, &format!("clean/s{shards}"));
    }
}

#[test]
fn f64_tier_is_bit_identical_under_faults() {
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
        seed: 0xF1F0,
    };
    let outcome = FaultInjector::new(plan).apply(&setup.clean);
    let oracle = run_uninterrupted(
        setup,
        &outcome.stream,
        cfg_of(setup, 1, ScoringPrecision::F64),
    );
    for shards in SHARDS {
        let got = run_uninterrupted(
            setup,
            &outcome.stream,
            cfg_of(setup, shards, ScoringPrecision::F64),
        );
        assert_verdicts_identical(&got.verdicts, &oracle.verdicts, &format!("fault/s{shards}"));
    }
}

// ---------------------------------------------------------------------
// 2. The f32 tier keeps its fidelity floor
// ---------------------------------------------------------------------

#[test]
fn f32_tier_agreement_meets_pinned_floor() {
    let setup = d2();
    let oracle = run_uninterrupted(setup, &setup.clean, cfg_of(setup, 2, ScoringPrecision::F64));
    let f32_run = run_uninterrupted(setup, &setup.clean, cfg_of(setup, 2, ScoringPrecision::F32));
    assert_eq!(
        f32_run.verdicts.len(),
        oracle.verdicts.len(),
        "the tier must not change verdict cadence"
    );
    assert!(
        f32_run
            .verdicts
            .iter()
            .all(|v| v.precision == ScoringPrecision::F32),
        "f32-tier verdicts must carry the F32 tag"
    );
    let mut agree = 0usize;
    for (a, b) in f32_run.verdicts.iter().zip(&oracle.verdicts) {
        assert_eq!(
            (a.node, a.step),
            (b.node, b.step),
            "verdict streams misaligned"
        );
        assert_eq!(
            a.cluster, b.cluster,
            "probe matching is f64 in both tiers: node {} step {} matched a different cluster",
            a.node, a.step
        );
        agree += (a.anomalous == b.anomalous) as usize;
    }
    let agreement = agree as f64 / oracle.verdicts.len().max(1) as f64;
    assert!(
        agreement >= AGREEMENT_FLOOR,
        "f32 tier agreed on {agreement:.4} of {} verdicts (floor {AGREEMENT_FLOOR})",
        oracle.verdicts.len()
    );
}

#[test]
fn f32_tier_is_shard_invariant_within_itself() {
    // The tier may differ from f64, but it must be deterministic: the
    // same f32 feed at any shard count yields the same bits.
    let setup = setup();
    let oracle = run_uninterrupted(setup, &setup.clean, cfg_of(setup, 1, ScoringPrecision::F32));
    assert!(
        oracle
            .verdicts
            .iter()
            .all(|v| v.precision == ScoringPrecision::F32),
        "f32-tier verdicts must carry the F32 tag"
    );
    for shards in SHARDS {
        let got = run_uninterrupted(
            setup,
            &setup.clean,
            cfg_of(setup, shards, ScoringPrecision::F32),
        );
        assert_verdicts_identical(&got.verdicts, &oracle.verdicts, &format!("f32/s{shards}"));
    }
}

// ---------------------------------------------------------------------
// 3. The f32 forward tracks the f64 forward
// ---------------------------------------------------------------------

/// Relative tolerance per encoder layer: each layer's matmuls, softmax
/// and layernorm accumulate rounding of order f32 epsilon times the
/// reduction width; 5e-4 per layer (plus one for the embed/output
/// projections) is orders of magnitude above that but far below any
/// real fidelity break.
fn layer_tolerance(model: &ReconstructionTransformer) -> f64 {
    (model.cfg.n_layers as f64 + 1.0) * 5e-4
}

fn small_model(n_layers: usize) -> (ParamStore, ReconstructionTransformer) {
    let mut params = ParamStore::new(17);
    let model = ReconstructionTransformer::new(
        &mut params,
        TransformerConfig {
            input_dim: 6,
            d_model: 8,
            n_heads: 2,
            n_layers,
            hidden: 16,
            // Dense block: top-k MoE routing is a discrete choice that
            // can legitimately flip between precisions on a gate tie;
            // the continuous-path tolerance contract is what this
            // property pins.
            block: BlockKind::Dense,
            aux_weight: 0.01,
        },
    );
    (params, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f32_forward_matches_f64_within_layer_tolerance(
        seed_vals in prop::collection::vec(-3.0f64..3.0, 6 * 10),
        pe_vals in prop::collection::vec(-1.0f64..1.0, 8 * 10),
        n_layers in 1usize..3,
    ) {
        let (params, model) = small_model(n_layers);
        let t = 10;
        let x = nodesentry::linalg::Matrix::from_fn(t, 6, |r, c| seed_vals[r * 6 + c]);
        let pe = nodesentry::linalg::Matrix::from_fn(t, 8, |r, c| pe_vals[r * 8 + c]);
        let mut s64 = InferenceSession::new();
        let mut s32 = InferenceSessionF32::new();
        let want = s64.forward(&params, &model, &x, &pe).clone();
        let got = s32.forward(&params, &model, &x, &pe);
        let tol = layer_tolerance(&model);
        for r in 0..t {
            for (c, (&g, &w)) in got.row(r).iter().zip(want.row(r)).enumerate() {
                let rel = (g as f64 - w).abs() / (1.0 + w.abs());
                prop_assert!(
                    rel <= tol,
                    "row {r} col {c}: f32 {g} vs f64 {w} (rel {rel:.2e} > tol {tol:.2e})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4. Mismatches are refused with typed errors, never panics
// ---------------------------------------------------------------------

#[test]
fn restore_refuses_precision_mismatch_with_typed_error() {
    let setup = setup();
    for (ckpt_tier, restore_tier) in [
        (ScoringPrecision::F64, ScoringPrecision::F32),
        (ScoringPrecision::F32, ScoringPrecision::F64),
    ] {
        let cfg = cfg_of(setup, 2, ckpt_tier);
        let engine = Engine::new(Arc::clone(&setup.model), cfg);
        let cut = setup.clean.len() / 2;
        engine
            .ingest(setup.clean[..cut].to_vec())
            .expect("stream shard alive");
        let ckpt = engine.checkpoint().expect("checkpoint");
        drop(engine);

        let res = Engine::restore_bytes(
            Arc::clone(&setup.model),
            cfg_of(setup, 2, restore_tier),
            &ckpt.bytes,
        );
        match res.err().expect("mismatched tier must be refused") {
            EngineError::Snapshot(SnapshotError::ConfigMismatch {
                field,
                snapshot,
                config,
            }) => {
                assert_eq!(field, "scoring_precision");
                assert_eq!(snapshot, ckpt_tier.to_ordinal() as u64);
                assert_eq!(config, restore_tier.to_ordinal() as u64);
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }

        // The same bytes under the matching tier restore and finish.
        let restored = Engine::restore_bytes(
            Arc::clone(&setup.model),
            cfg_of(setup, 2, ckpt_tier),
            &ckpt.bytes,
        )
        .expect("matching tier restores");
        restored
            .ingest(setup.clean[cut..].to_vec())
            .expect("restored shard alive");
        let tail = restored.finish();
        assert!(
            tail.verdicts.iter().all(|v| v.precision == ckpt_tier),
            "restored verdicts must carry the checkpoint's tier"
        );
    }
}

#[test]
fn wire_hello_refuses_precision_mismatch_with_typed_error() {
    let setup = setup();
    for engine_tier in [ScoringPrecision::F64, ScoringPrecision::F32] {
        let engine = Engine::new(Arc::clone(&setup.model), cfg_of(setup, 1, engine_tier));
        let server = engine.serve_ingest("127.0.0.1:0").expect("bind ingest");
        let addr = server.local_addr();

        // A matching announcement is accepted and the session proceeds.
        let mut ok_client = IngestClient::connect(addr).expect("connect");
        ok_client
            .announce_precision(engine_tier)
            .expect("matching tier accepted");

        // A mismatched announcement is refused with a typed error, and
        // the refusal does not take the server (or other sessions) down.
        let wrong = match engine_tier {
            ScoringPrecision::F64 => ScoringPrecision::F32,
            ScoringPrecision::F32 => ScoringPrecision::F64,
        };
        let mut bad_client = IngestClient::connect(addr).expect("connect");
        let err = bad_client
            .announce_precision(wrong)
            .expect_err("mismatched tier must be refused");
        let msg = err.to_string();
        assert!(
            msg.contains("rejected") && msg.contains("precision"),
            "refusal should be the typed REJECTED error, got: {msg}"
        );
        assert!(
            ok_client.ping().is_ok(),
            "an accepted session must survive another client's refusal"
        );
        drop(ok_client);
        server.shutdown();
    }
}
