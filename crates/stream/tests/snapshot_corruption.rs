//! Hostile-bytes conformance for the snapshot wire format: every
//! truncation, every single-bit flip, and every crafted header must come
//! back as a typed [`SnapshotError`] — never a panic, never a silent
//! success. Restores are total functions over arbitrary bytes.

use ns_eval::streaming::{KSigmaState, SmootherState};
use ns_stream::snapshot::{
    EngineSnapshot, NodeSnap, PreSnap, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use ns_stream::{FaultCounters, StreamStats};
use ns_wire::fnv1a64;

/// Small but structurally complete snapshot: one node with live buffers,
/// one quarantined id, nonzero residual counters.
fn sample() -> EngineSnapshot {
    let node = NodeSnap {
        node: 2,
        next_step: 11,
        next_row: 5,
        pre: PreSnap {
            buf: vec![vec![1.0, f64::NAN]],
            nan_flags: vec![false],
            base: 4,
            n_pushed: 6,
            resolved: 1,
            last_obs: vec![Some(1), None],
            last_val: vec![0.5, -0.5],
            rate_prev: vec![2.0],
            any_row: true,
        },
        cuts: vec![6],
        seg_start: 6,
        seg_rows: vec![vec![0.25, 0.75]],
        seg_row_kinds: vec![0],
        matched: Some(1),
        jobs: Vec::new(),
        probe_pending: false,
        smoother: SmootherState {
            buf: vec![0.1],
            n_pushed: 10,
            next_out: 9,
        },
        detector: KSigmaState {
            window: vec![0.1, 0.4],
            flagged_run: 0,
        },
        pending: Vec::new(),
        ahead: Vec::new(),
        row_kinds: vec![0, 1],
        resync_degraded: false,
        prev_raw: vec![1.0, 2.0],
        runs: vec![3, 0],
        stats: StreamStats::default(),
        faults: FaultCounters::default(),
    };
    EngineSnapshot {
        model_fingerprint: 0x1234_5678_9ABC_DEF0,
        split: 100,
        smooth_window: 1,
        scoring_precision: ns_stream::ScoringPrecision::F64,
        n_shards: 2,
        nodes: vec![node],
        quarantined: vec![5],
        carried_stats: StreamStats::default(),
        carried_faults: FaultCounters::default(),
    }
}

/// Re-seal a tampered envelope: recompute the trailing checksum so only
/// the *intended* corruption is visible to the decoder.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&sum);
    bytes
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = sample().to_bytes();
    for len in 0..bytes.len() {
        let res = EngineSnapshot::from_bytes(&bytes[..len]);
        assert!(
            res.is_err(),
            "truncation to {len}/{} bytes decoded successfully",
            bytes.len()
        );
    }
    // The empty slice reports what it is.
    match EngineSnapshot::from_bytes(&[]) {
        Err(SnapshotError::Truncated { .. }) => {}
        other => panic!("empty input: {other:?}"),
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    let bytes = sample().to_bytes();
    for pos in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            let res = EngineSnapshot::from_bytes(&bad);
            assert!(
                res.is_err(),
                "bit {bit} of byte {pos}/{} flipped undetected",
                bytes.len()
            );
        }
    }
}

#[test]
fn wrong_magic_is_bad_magic() {
    let mut bytes = sample().to_bytes();
    bytes[..4].copy_from_slice(b"XSSN");
    match EngineSnapshot::from_bytes(&bytes) {
        Err(SnapshotError::BadMagic) => {}
        other => panic!("wrong magic: {other:?}"),
    }
}

#[test]
fn future_version_with_valid_checksum_is_unsupported_version() {
    // A well-formed envelope from "the future": version 99, checksum
    // re-sealed. The decoder must identify the version gap, not cry
    // corruption.
    let mut bytes = sample().to_bytes();
    bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
    match EngineSnapshot::from_bytes(&reseal(bytes)) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("future version: {other:?}"),
    }
}

#[test]
fn corrupted_version_without_reseal_is_checksum_mismatch() {
    // Same tamper, checksum left stale: indistinguishable from bit rot,
    // and reported as such.
    let mut bytes = sample().to_bytes();
    bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
    match EngineSnapshot::from_bytes(&bytes) {
        Err(SnapshotError::ChecksumMismatch) => {}
        other => panic!("stale checksum: {other:?}"),
    }
}

#[test]
fn resealed_garbage_payload_is_a_decode_error() {
    // Valid envelope, hostile payload: the value decoder must fail
    // typed, not panic or over-allocate.
    let payload = [6u8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]; // Array, u64::MAX items
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&[0u8; 8]);
    match EngineSnapshot::from_bytes(&reseal(bytes)) {
        Err(SnapshotError::Truncated { .. }) | Err(SnapshotError::Decode(_)) => {}
        other => panic!("hostile payload: {other:?}"),
    }
}

#[test]
fn well_typed_but_wrong_shaped_payload_is_a_decode_error() {
    // A checksum-valid snapshot whose payload decodes as a Value but not
    // as an EngineSnapshot (wrong field types).
    let inner = sample();
    let mut bytes = inner.to_bytes();
    // Splice the payload down to a single Null (tag 0).
    let mut crafted = Vec::new();
    crafted.extend_from_slice(&bytes[..4]);
    crafted.extend_from_slice(&bytes[4..6]);
    crafted.extend_from_slice(&1u64.to_le_bytes());
    crafted.push(0); // Value::Null
    crafted.extend_from_slice(&[0u8; 8]);
    bytes = reseal(crafted);
    match EngineSnapshot::from_bytes(&bytes) {
        Err(SnapshotError::Decode(msg)) => {
            assert!(!msg.is_empty(), "decode error carries a message");
        }
        other => panic!("null payload: {other:?}"),
    }
}

#[test]
fn errors_render_and_compare() {
    // The error type is part of the public API: Display is human-usable
    // and variants are comparable for exhaustive matching in callers.
    let errs = [
        SnapshotError::Truncated {
            expected: 10,
            have: 3,
        },
        SnapshotError::BadMagic,
        SnapshotError::ChecksumMismatch,
        SnapshotError::UnsupportedVersion {
            found: 7,
            supported: SNAPSHOT_VERSION,
        },
        SnapshotError::Decode("field `split`".into()),
        SnapshotError::ModelMismatch {
            snapshot: 1,
            model: 2,
        },
        SnapshotError::ConfigMismatch {
            field: "split",
            snapshot: 3,
            config: 4,
        },
    ];
    for e in &errs {
        assert!(!format!("{e}").is_empty());
        assert_eq!(e, &e.clone());
    }
    let boxed: Box<dyn std::error::Error> = Box::new(SnapshotError::BadMagic);
    assert!(boxed.to_string().contains("magic"));
}
