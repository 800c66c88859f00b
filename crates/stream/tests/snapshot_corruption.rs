//! Hostile-bytes conformance for the snapshot wire format: every
//! truncation, every single-bit flip, and every crafted header must come
//! back as a typed [`SnapshotError`] — never a panic, never a silent
//! success. Restores are total functions over arbitrary bytes.

use ns_eval::streaming::{KSigmaState, SmootherState};
use ns_stream::snapshot::{
    decode, encode, EngineSnapshot, NodeSnap, PreSnap, SnapshotError, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
use ns_stream::{FaultCounters, StreamStats};
use ns_wire::fnv1a64;
use serde::{Deserialize, Serialize, Value};

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

// ---------------------------------------------------------------------
// Differential: the streaming decoder against the two-pass tree decoder
// ---------------------------------------------------------------------

/// The decoder this codec replaced, kept as the oracle: read the payload
/// into a `Value` tree (every structural check), then type it.
fn via_tree(bytes: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
    let tree: Value = decode(bytes)?;
    EngineSnapshot::from_value(&tree).map_err(|e| SnapshotError::Decode(e.to_string()))
}

/// `from_bytes` must agree with the oracle: the same snapshot (compared
/// by re-encoding — snapshots carry NaN) or the same error variant, and
/// structural errors — raised by shared code — in full.
fn assert_agrees(bytes: &[u8], what: &str) -> Result<EngineSnapshot, SnapshotError> {
    let direct = EngineSnapshot::from_bytes(bytes);
    match (&direct, &via_tree(bytes)) {
        (Ok(a), Ok(b)) => assert!(
            a.to_bytes() == b.to_bytes(),
            "{what}: decoded state differs"
        ),
        (Err(SnapshotError::Decode(_)), Err(SnapshotError::Decode(_))) => {}
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
        (a, b) => panic!("{what}: direct {a:?} vs tree {b:?}"),
    }
    direct
}

/// The payload decoder as it was before it streamed, verbatim: build the
/// whole tree (tags, counts bounded by the bytes left, depth ≤ 64, UTF-8),
/// refuse trailing bytes, then type it. Independent of the byte source.
fn old_payload_decode(b: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
    fn take<'a>(b: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = *pos + n;
        if end > b.len() {
            return Err(SnapshotError::Truncated {
                expected: end,
                have: b.len(),
            });
        }
        let s = &b[*pos..end];
        *pos = end;
        Ok(s)
    }
    fn take_u64(b: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(take(b, pos, 8)?.try_into().unwrap()))
    }
    fn take_count(b: &[u8], pos: &mut usize, min_item: usize) -> Result<usize, SnapshotError> {
        let n = take_u64(b, pos)?;
        let cap = (b.len() - *pos) / min_item;
        if n > cap as u64 {
            return Err(SnapshotError::Decode(format!(
                "declared count {n} exceeds remaining capacity {cap}"
            )));
        }
        Ok(n as usize)
    }
    fn text(b: &[u8], pos: &mut usize) -> Result<String, SnapshotError> {
        let len = take_count(b, pos, 1)?;
        String::from_utf8(take(b, pos, len)?.to_vec())
            .map_err(|_| SnapshotError::Decode("invalid UTF-8".into()))
    }
    fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, SnapshotError> {
        if depth > 64 {
            return Err(SnapshotError::Decode("nesting too deep".into()));
        }
        Ok(match take(b, pos, 1)?[0] {
            0 => Value::Null,
            1 => match take(b, pos, 1)?[0] {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                other => return Err(SnapshotError::Decode(format!("bad bool byte {other}"))),
            },
            2 => Value::I64(take_u64(b, pos)? as i64),
            3 => Value::U64(take_u64(b, pos)?),
            4 => Value::F64(f64::from_bits(take_u64(b, pos)?)),
            5 => Value::Str(text(b, pos)?),
            6 => {
                let n = take_count(b, pos, 1)?;
                let items = (0..n).map(|_| value(b, pos, depth + 1));
                Value::Array(items.collect::<Result<_, _>>()?)
            }
            7 => {
                let n = take_count(b, pos, 9)?;
                let pairs = (0..n).map(|_| Ok((text(b, pos)?, value(b, pos, depth + 1)?)));
                Value::Object(pairs.collect::<Result<_, SnapshotError>>()?)
            }
            other => return Err(SnapshotError::Decode(format!("unknown value tag {other}"))),
        })
    }
    let mut pos = 0;
    let tree = value(b, &mut pos, 0)?;
    if pos != b.len() {
        return Err(SnapshotError::Decode(format!(
            "{} trailing payload bytes",
            b.len() - pos
        )));
    }
    EngineSnapshot::from_value(&tree).map_err(|e| SnapshotError::Decode(format!("{TYPE_ERROR}{e}")))
}

/// Marks the oracle's typing failures apart from its structural ones.
const TYPE_ERROR: &str = "type error: ";

/// Seal `payload` and hold `from_bytes` to both oracles.
fn assert_payload_agrees(payload: &[u8], what: &str) -> Result<EngineSnapshot, SnapshotError> {
    let direct = assert_agrees(&envelope(payload), what);
    match (&direct, &old_payload_decode(payload)) {
        (Ok(a), Ok(b)) => assert!(a.to_bytes() == b.to_bytes(), "{what}: state differs (old)"),
        // Structural messages are the old ones word for word; a type
        // error (marked by the oracle) may be worded differently.
        (Err(SnapshotError::Decode(a)), Err(SnapshotError::Decode(b))) => {
            match b.strip_prefix(TYPE_ERROR) {
                Some(_) => assert!(
                    a.contains("field `") || a.contains("expected"),
                    "{what}: {a} vs {b}"
                ),
                None => assert_eq!(a, b, "{what} (old)"),
            }
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what} (old)"),
        (a, b) => panic!("{what}: direct {a:?} vs old decoder {b:?}"),
    }
    direct
}

/// A sealed envelope around arbitrary payload bytes.
fn envelope(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&[0u8; 8]);
    reseal(bytes)
}

fn payload_of(bytes: &[u8]) -> &[u8] {
    &bytes[14..bytes.len() - 8]
}

/// The F32-tier twin of `sample()`, with a deferred job and a pending
/// score so every snapshot struct appears in the payload.
fn rich_sample() -> EngineSnapshot {
    let mut snap = sample();
    snap.scoring_precision = ns_stream::ScoringPrecision::F32;
    let node = &mut snap.nodes[0];
    node.jobs.push(ns_stream::snapshot::JobSnap {
        start: 3,
        rows: vec![vec![0.5, -0.0], vec![f64::INFINITY, 2.0]],
        kinds: vec![0, 2],
        matched: None,
        degraded: true,
    });
    node.pending.push(ns_stream::snapshot::PendingSnap {
        step: 9,
        score: 0.75,
        cluster: 1,
        suppress: false,
        degraded: false,
    });
    snap
}

#[test]
fn streaming_decode_agrees_with_tree_decode_on_hostile_payloads() {
    for (name, snap) in [("f64", sample()), ("f32", rich_sample())] {
        let good = snap.to_bytes();
        let payload = payload_of(&good).to_vec();
        assert!(assert_agrees(&good, name).is_ok());

        // Envelope truncations (checksum stale) and payload truncations
        // (length fixed, re-sealed: the damage is inside the payload).
        for len in 0..good.len() {
            assert!(assert_agrees(&good[..len], &format!("{name}: cut to {len}")).is_err());
        }
        for len in 0..payload.len() {
            let res =
                assert_payload_agrees(&payload[..len], &format!("{name}: payload cut to {len}"));
            assert!(res.is_err(), "{name}: payload cut to {len} decoded");
        }

        // Every single-bit flip of the payload, re-sealed. Most change a
        // value and decode fine; the rest must fail the same way.
        let mut flipped_ok = 0usize;
        for pos in 0..payload.len() {
            for bit in 0..8u8 {
                let mut bad = payload.clone();
                bad[pos] ^= 1 << bit;
                let what = format!("{name}: payload bit {bit} of byte {pos}");
                flipped_ok += assert_payload_agrees(&bad, &what).is_ok() as usize;
            }
        }
        assert!(flipped_ok > 0 && flipped_ok < payload.len() * 8);

        // Splices: a window of the payload copied over, inserted at, or
        // deleted from another offset (seeded LCG; lengths 1..=24).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        for case in 0..6000 {
            let len = 1 + next(24);
            let from = next(payload.len() - len);
            let at = next(payload.len() - len);
            let window = payload[from..from + len].to_vec();
            let mut bad = payload.clone();
            match case % 3 {
                0 => bad[at..at + len].copy_from_slice(&window),
                1 => drop(bad.splice(at..at, window)),
                _ => drop(bad.drain(at..at + len)),
            }
            assert_payload_agrees(&bad, &format!("{name}: splice {case}")).ok();
        }
    }
}

// ---------------------------------------------------------------------
// Key semantics: what the streaming reader does with the keys it meets
// ---------------------------------------------------------------------

fn pairs(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Object(pairs) => pairs,
        other => panic!("expected object, got {other:?}"),
    }
}

fn at<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let found = pairs(v).iter_mut().find(|(k, _)| k == key);
    &mut found.unwrap_or_else(|| panic!("no key {key}")).1
}

fn node0(v: &mut Value) -> &mut Value {
    match at(v, "nodes") {
        Value::Array(nodes) => &mut nodes[0],
        other => panic!("expected array, got {other:?}"),
    }
}

fn remove(v: &mut Value, key: &str) {
    let pairs = pairs(v);
    let before = pairs.len();
    pairs.retain(|(k, _)| k != key);
    assert_eq!(pairs.len() + 1, before, "exactly one `{key}`");
}

/// Every object of the tree, depth first, with its pairs reversed.
fn reverse_keys(v: &mut Value) {
    match v {
        Value::Array(items) => items.iter_mut().for_each(reverse_keys),
        Value::Object(pairs) => {
            pairs.reverse();
            pairs.iter_mut().for_each(|(_, v)| reverse_keys(v));
        }
        _ => {}
    }
}

#[test]
fn key_semantics_match_the_tree_reader() {
    let base = rich_sample();
    let canonical = base.to_bytes();
    // Decode an edited tree both ways; `Ok` carries the canonical bytes
    // of what came out.
    let decode_edited = |what: &str, edit: &dyn Fn(&mut Value)| -> Result<EngineSnapshot, String> {
        let mut tree = base.to_value();
        edit(&mut tree);
        match assert_payload_agrees(payload_of(&encode(&tree)), what) {
            Ok(snap) => Ok(snap),
            Err(SnapshotError::Decode(msg)) => Err(msg),
            Err(other) => panic!("{what}: {other:?}"),
        }
    };
    let same = |what: &str, edit: &dyn Fn(&mut Value)| {
        let snap = decode_edited(what, edit).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(snap.to_bytes() == canonical, "{what}: state changed");
    };
    let refused = |what: &str, needle: &str, edit: &dyn Fn(&mut Value)| {
        let msg = decode_edited(what, edit)
            .err()
            .unwrap_or_else(|| panic!("{what}: decoded"));
        assert!(msg.contains(needle), "{what}: `{msg}` lacks `{needle}`");
    };
    let nested_unknown = || {
        Value::Object(vec![
            (
                "deep".into(),
                Value::Array(vec![Value::Null, Value::F64(f64::NAN)]),
            ),
            ("text".into(), Value::Str("héllo".into())),
        ])
    };

    // Order is free: every object reversed, at every level.
    same("reordered", &reverse_keys);

    // Unknown keys are skipped wherever they appear…
    same("unknown keys", &|t| {
        pairs(t).insert(0, ("from_the_future".into(), nested_unknown()));
        pairs(node0(t)).push(("also_new".into(), nested_unknown()));
        pairs(at(node0(t), "pre")).insert(3, ("x".into(), Value::Bool(true)));
    });
    // …but fully validated: an unknown tag inside one fails the decode.
    let mut tree = base.to_value();
    pairs(&mut tree).push(("from_the_future".into(), Value::Str("??".into())));
    let mut payload = payload_of(&encode(&tree)).to_vec();
    let tag_at = payload.len() - (1 + 8 + 2);
    assert_eq!(payload[tag_at], 5, "the unknown key's value tag");
    payload[tag_at] = 9;
    match assert_payload_agrees(&payload, "unknown key, bad tag") {
        Err(SnapshotError::Decode(msg)) => assert!(msg.contains("unknown value tag 9"), "{msg}"),
        other => panic!("unknown key, bad tag: {other:?}"),
    }

    // The first occurrence of a key wins; later ones are never typed.
    same("duplicate after", &|t| {
        pairs(t).push(("split".into(), Value::U64(999)));
        pairs(t).push(("nodes".into(), Value::Str("not even an array".into())));
        pairs(node0(t)).push(("matched".into(), Value::Bool(false)));
    });
    let first = decode_edited("duplicate before", &|t| {
        pairs(t).insert(0, ("split".into(), Value::U64(999)));
    });
    assert_eq!(first.expect("duplicate before").split, 999);
    refused("duplicate before, wrong type", "field `split`", &|t| {
        pairs(t).insert(0, ("split".into(), Value::Str("x".into())));
    });

    // A missing key reads as `Null` would.
    let snap = decode_edited("missing keys", &|t| {
        remove(t, "scoring_precision"); // a pre-tier snapshot: F64
        remove(node0(t), "matched"); // Option → None
        remove(at(t, "carried_stats"), "match_seconds"); // f64 → NaN
    });
    let snap = snap.expect("missing keys");
    assert_eq!(snap.scoring_precision, ns_stream::ScoringPrecision::F64);
    assert_eq!(snap.nodes[0].matched, None);
    assert!(snap.carried_stats.match_seconds.is_nan());
    assert_eq!(snap.split, base.split);
    refused("missing integer", "missing field `split`", &|t| {
        remove(t, "split")
    });
    refused("missing vec", "missing field `nodes`", &|t| {
        remove(t, "nodes")
    });
    refused("missing struct", "missing field `pre`", &|t| {
        remove(node0(t), "pre")
    });

    // Integers coerce leniently from any number that holds one.
    same("coerced integers", &|t| {
        *at(t, "split") = Value::I64(100);
        *at(t, "smooth_window") = Value::F64(1.0);
        *at(node0(t), "next_step") = Value::F64(11.0);
        *at(at(node0(t), "smoother"), "n_pushed") = Value::I64(10);
    });
    refused("fractional integer", "field `split`", &|t| {
        *at(t, "split") = Value::F64(100.5)
    });
    refused("negative unsigned", "field `split`", &|t| {
        *at(t, "split") = Value::I64(-1)
    });
    refused("out of range", "field `runs`", &|t| {
        *at(node0(t), "runs") = Value::Array(vec![Value::U64(u64::MAX)]);
    });
    // An explicit `Null` is the missing key's twin.
    refused("null integer", "field `split`", &|t| {
        *at(t, "split") = Value::Null
    });
    let snap = decode_edited("null precision", &|t| {
        *at(t, "scoring_precision") = Value::Null
    });
    assert_eq!(
        snap.expect("null precision").scoring_precision,
        ns_stream::ScoringPrecision::F64
    );
}
