//! Snapshot wire-format round trips, no neural training required:
//! the binary `Value` codec and the `NSSN` envelope must reproduce every
//! snapshot — exotic float bits included — exactly, and a
//! [`StreamingPreprocessor`] rebuilt from its [`PreSnap`] must continue
//! the stream bit-identically to one that never stopped.

use nodesentry_core::preprocess::Preprocessor;
use ns_eval::streaming::{KSigmaState, SmootherState};
use ns_linalg::Matrix;
use ns_stream::snapshot::{
    EngineSnapshot, JobSnap, NodeSnap, PendingSnap, PreSnap, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use ns_stream::{FaultCounters, StreamStats, StreamingPreprocessor, Tick};

/// Deterministic pseudo-random raw matrix with NaN holes (same splitmix
/// idiom as the in-crate unit tests).
fn raw_with_holes(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    Matrix::from_fn(rows, cols, |r, c| {
        let u = next() as f64 / u64::MAX as f64;
        if u < 0.05 {
            f64::NAN
        } else {
            ((r as f64 * 0.13 + c as f64).sin() + u * 0.3) * (1.0 + c as f64 * 0.2)
        }
    })
}

/// A hand-built snapshot exercising every field shape the format can
/// carry: exotic float bits, empty and non-empty vectors, `None`/`Some`,
/// and multi-node payloads.
fn synthetic_snapshot() -> EngineSnapshot {
    let weird = f64::from_bits(0x7FF8_0000_0000_0001); // NaN with payload
    let pre = PreSnap {
        buf: vec![vec![1.5, weird, -0.0], vec![f64::INFINITY, 2.0, 3.0]],
        nan_flags: vec![true, false],
        base: 7,
        n_pushed: 9,
        resolved: 2,
        last_obs: vec![Some(3), None, Some(0)],
        last_val: vec![0.25, -1.0, f64::NEG_INFINITY],
        rate_prev: vec![5e-324, 0.0],
        any_row: true,
    };
    let node = NodeSnap {
        node: 3,
        next_step: 41,
        next_row: 17,
        pre: pre.clone(),
        cuts: vec![12, 24, 36],
        seg_start: 36,
        seg_rows: vec![vec![0.1, 0.2, 0.3]],
        seg_row_kinds: vec![1],
        matched: Some(2),
        jobs: vec![JobSnap {
            start: 24,
            rows: vec![vec![-0.5, 0.5, weird]],
            kinds: vec![0],
            matched: None,
            degraded: true,
        }],
        probe_pending: true,
        smoother: SmootherState {
            buf: vec![0.75, -0.0],
            n_pushed: 40,
            next_out: 38,
        },
        detector: KSigmaState {
            window: vec![0.1, 0.2, 0.9],
            flagged_run: 1,
        },
        pending: vec![PendingSnap {
            step: 40,
            score: weird,
            cluster: 1,
            suppress: false,
            degraded: true,
        }],
        ahead: vec![Tick {
            node: 3,
            step: 43,
            values: vec![1.0, f64::NAN],
            transition: true,
        }],
        row_kinds: vec![0, 1, 2],
        resync_degraded: true,
        prev_raw: vec![weird, 1.0, -0.0],
        runs: vec![0, 4, 1],
        stats: StreamStats::default(),
        faults: FaultCounters {
            synthesized_rows: 5,
            ..Default::default()
        },
    };
    let mut empty = node.clone();
    empty.node = 0;
    empty.pre.buf.clear();
    empty.pre.nan_flags.clear();
    empty.jobs.clear();
    empty.pending.clear();
    empty.ahead.clear();
    empty.matched = None;
    EngineSnapshot {
        model_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        split: 360,
        smooth_window: 1,
        scoring_precision: ns_stream::ScoringPrecision::F64,
        n_shards: 4,
        nodes: vec![empty, node],
        quarantined: vec![1, 7],
        carried_stats: StreamStats::default(),
        carried_faults: FaultCounters {
            quarantine_dropped: 3,
            ..Default::default()
        },
    }
}

#[test]
fn engine_snapshot_roundtrips_bit_exactly() {
    let snap = synthetic_snapshot();
    let bytes = snap.to_bytes();
    let back = EngineSnapshot::from_bytes(&bytes).expect("decode");
    // NaN-bearing fields defeat derived equality, so the round trip is
    // checked at the wire level: the format has exactly one canonical
    // encoding per snapshot, and re-encoding the decoded copy must
    // reproduce it bit for bit.
    assert_eq!(back.to_bytes(), bytes);
    // Spot-check decoded structure on the NaN-free fields.
    assert_eq!(back.model_fingerprint, snap.model_fingerprint);
    assert_eq!(back.n_shards, snap.n_shards);
    assert_eq!(back.quarantined, snap.quarantined);
    assert_eq!(back.nodes.len(), snap.nodes.len());
    assert_eq!(back.nodes[1].row_kinds, snap.nodes[1].row_kinds);
    assert_eq!(
        back.carried_faults.quarantine_dropped,
        snap.carried_faults.quarantine_dropped
    );
}

#[test]
fn envelope_layout_is_pinned() {
    let snap = synthetic_snapshot();
    let bytes = snap.to_bytes();
    assert_eq!(&bytes[..4], &SNAPSHOT_MAGIC, "magic leads the envelope");
    assert_eq!(
        u16::from_le_bytes([bytes[4], bytes[5]]),
        SNAPSHOT_VERSION,
        "version follows the magic"
    );
    let payload_len = u64::from_le_bytes(bytes[6..14].try_into().unwrap()) as usize;
    assert_eq!(
        bytes.len(),
        4 + 2 + 8 + payload_len + 8,
        "magic + version + length + payload + checksum, nothing else"
    );
    // Trailing garbage is rejected, not ignored.
    let mut extra = bytes.clone();
    extra.push(0);
    assert!(EngineSnapshot::from_bytes(&extra).is_err());
}

#[test]
fn float_bit_patterns_survive_the_wire() {
    let mut snap = synthetic_snapshot();
    let specials = [
        f64::NAN.to_bits(),
        0x7FF8_0000_0000_0001, // NaN, nonzero payload
        0xFFF8_0000_0000_0000, // negative NaN
        (-0.0f64).to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        5e-324f64.to_bits(), // smallest subnormal
        f64::MAX.to_bits(),
    ];
    snap.nodes[1].prev_raw = specials.iter().map(|&b| f64::from_bits(b)).collect();
    let back = EngineSnapshot::from_bytes(&snap.to_bytes()).expect("decode");
    let got: Vec<u64> = back.nodes[1].prev_raw.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, specials, "f64 bits must survive exactly");
}

#[test]
fn preprocessor_restored_mid_stream_continues_bit_identically() {
    for seed in [3u64, 29, 121] {
        let raw = raw_with_holes(200, 6, seed);
        let groups = vec![0usize, 0, 1, 1, 2, 2];
        let pp = Preprocessor::fit(&raw.slice_rows(0, 120), &groups, 0.995, 0.05);

        // Reference: one uninterrupted pass.
        let mut whole = StreamingPreprocessor::new(&pp);
        let mut want = Vec::new();
        for r in 0..raw.rows() {
            want.extend(whole.push(raw.row(r)));
        }
        want.extend(whole.flush());

        // Cut at 130 — inside the NaN-deferred region often enough to
        // exercise a non-empty watermark buffer.
        let mut first = StreamingPreprocessor::new(&pp);
        let mut got = Vec::new();
        for r in 0..130 {
            got.extend(first.push(raw.row(r)));
        }
        let state = first.state();
        drop(first);
        let mut second = StreamingPreprocessor::restore(&pp, state.clone()).expect("restore");
        // The restored copy reports the same state it was built from.
        // (Compared via Debug: derived PartialEq is NaN-hostile, and the
        // buffered rows legitimately hold NaN holes.)
        assert_eq!(
            format!("{:?}", second.state()),
            format!("{state:?}"),
            "state→restore→state is lossless"
        );
        for r in 130..raw.rows() {
            got.extend(second.push(raw.row(r)));
        }
        got.extend(second.flush());

        assert_eq!(got.len(), want.len(), "seed {seed}: row count diverged");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                w.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "seed {seed}: row {i} values diverged"
            );
            assert_eq!(g.all_nan, w.all_nan, "seed {seed}: row {i} all_nan");
            assert_eq!(
                g.counter_reset, w.counter_reset,
                "seed {seed}: row {i} counter_reset"
            );
        }
    }
}

#[test]
fn preprocessor_restore_rejects_mismatched_shapes() {
    let raw = raw_with_holes(80, 4, 9);
    let groups = vec![0usize, 0, 1, 1];
    let pp = Preprocessor::fit(&raw.slice_rows(0, 60), &groups, 0.995, 0.05);
    let mut sp = StreamingPreprocessor::new(&pp);
    for r in 0..40 {
        sp.push(raw.row(r));
    }
    let good = sp.state();
    assert!(StreamingPreprocessor::restore(&pp, good.clone()).is_ok());

    let mut narrow = good.clone();
    narrow.last_val.pop();
    assert!(
        StreamingPreprocessor::restore(&pp, narrow).is_err(),
        "dropped last_val entry must be rejected"
    );

    let mut ragged = good.clone();
    if let Some(row) = ragged.buf.first_mut() {
        row.push(0.0);
        assert!(
            StreamingPreprocessor::restore(&pp, ragged).is_err(),
            "ragged buffered row must be rejected"
        );
    }

    let mut unflagged = good.clone();
    unflagged.nan_flags.push(false);
    assert!(
        StreamingPreprocessor::restore(&pp, unflagged).is_err(),
        "buf/nan_flags length mismatch must be rejected"
    );
}
