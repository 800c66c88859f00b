//! Hostile-bytes conformance for the snapshot wire format: every
//! truncation, every single-bit flip, and every crafted header must come
//! back as a typed [`SnapshotError`] — never a panic, never a silent
//! success. Restores are total functions over arbitrary bytes.
//!
//! Covered: the streaming decoder against the tree decoder kept as its
//! oracle over truncated, bit-flipped and spliced payloads; the
//! key-semantics table (duplicate, unknown, reordered, missing); a flip in
//! any digest block or in the fold, and swapped blocks; a packed count
//! past the remaining bytes; ragged and empty payloads; other versions
//! refused.

#[path = "../../../tests/common/envelope.rs"]
mod envelope;

use envelope::{reseal, seal, tagged, DIGEST_BLOCK};
use ns_eval::streaming::{KSigmaState, SmootherState};
use ns_stream::snapshot::{
    decode, encode, EngineSnapshot, NodeSnap, PreSnap, SnapshotError, SNAPSHOT_VERSION,
};
use ns_stream::{FaultCounters, StreamStats};
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
fn unknown_version_with_valid_checksum_is_unsupported_version() {
    // A well-formed envelope from the previous version (sealed the way
    // its builds sealed it), from "the future" — the next version, a far
    // one — or from before the first (sealed the way this version is).
    // The decoder must identify the version gap, not cry corruption, and
    // say what it can read.
    for unknown in [2u16, 4, 99, 0, u16::MAX] {
        let mut bytes = sample().to_bytes();
        bytes[4..6].copy_from_slice(&unknown.to_le_bytes());
        match EngineSnapshot::from_bytes(&reseal(bytes)) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (unknown, 3));
            }
            other => panic!("relabelled {unknown}: {other:?}"),
        }
    }
    // Version 1 sealed itself with one plain chain over header and
    // payload: that, and only that, is a well-formed version-1 envelope.
    let plain_chain = |version: u16| {
        let mut bytes = sample().to_bytes();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = envelope::fnv1a64(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&sum);
        EngineSnapshot::from_bytes(&bytes)
    };
    assert_eq!(
        plain_chain(1),
        Err(SnapshotError::UnsupportedVersion {
            found: 1,
            supported: 3
        })
    );
    assert_eq!(plain_chain(3), Err(SnapshotError::ChecksumMismatch));
}

#[test]
fn corrupted_version_without_reseal_is_checksum_mismatch() {
    // Same tamper, checksum left stale: indistinguishable from bit rot,
    // and reported as such — version 1, sealed another way, included.
    for relabel in [99u16, 1] {
        let mut bytes = sample().to_bytes();
        bytes[4..6].copy_from_slice(&relabel.to_le_bytes());
        match EngineSnapshot::from_bytes(&bytes) {
            Err(SnapshotError::ChecksumMismatch) => {}
            other => panic!("relabelled {relabel}, stale checksum: {other:?}"),
        }
    }
}

#[test]
fn a_payload_that_packs_no_floats_reads_as_the_same_snapshot() {
    // Packing is the writer's choice per array, not the reader's rule: a
    // tree spells every float out (a tag each) and is the same snapshot.
    let snap = sample();
    let mut unpacked = Vec::new();
    tagged(&snap.to_value(), &mut unpacked);
    let read = EngineSnapshot::from_bytes(&seal(3, &unpacked)).expect("unpacked v3");
    assert!(read.to_bytes() == snap.to_bytes());
}

#[test]
fn resealed_garbage_payload_is_a_decode_error() {
    // Valid envelope, hostile payload: the value decoder must fail
    // typed, not panic or over-allocate.
    for tag in [6u8, 7, 8] {
        // Array / Object / packed floats, u64::MAX items.
        let payload = [tag, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF];
        match EngineSnapshot::from_bytes(&seal(3, &payload)) {
            Err(SnapshotError::Truncated { .. }) | Err(SnapshotError::Decode(_)) => {}
            other => panic!("hostile count under tag {tag}: {other:?}"),
        }
    }
}

#[test]
fn well_typed_but_wrong_shaped_payload_is_a_decode_error() {
    // A checksum-valid snapshot whose payload decodes as a Value but not
    // as an EngineSnapshot (wrong field types): a single Null (tag 0).
    match EngineSnapshot::from_bytes(&seal(3, &[0])) {
        Err(SnapshotError::Decode(msg)) => {
            assert!(!msg.is_empty(), "decode error carries a message");
        }
        other => panic!("null payload: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The block digest and the packed float arrays
// ---------------------------------------------------------------------

/// `sample()` with enough (wide) open-segment rows for a payload of
/// `blocks` digest blocks, the last one ragged.
fn sample_of_blocks(blocks: usize) -> EngineSnapshot {
    const WIDTH: usize = 500;
    let mut snap = sample();
    // A row is its packed floats and its provenance ordinal.
    let rows = ((blocks - 1) * DIGEST_BLOCK + DIGEST_BLOCK / 2) / ((9 + 8 * WIDTH) + 9);
    let node = &mut snap.nodes[0];
    node.seg_rows = (0..rows)
        .map(|r| (0..WIDTH).map(|c| (r * WIDTH + c) as f64 * 0.37).collect())
        .collect();
    node.seg_row_kinds = vec![0; rows];
    let payload = snap.to_bytes().len() - 22;
    assert_eq!(payload.div_ceil(DIGEST_BLOCK), blocks);
    assert_ne!(payload % DIGEST_BLOCK, 0, "ragged last block");
    snap
}

#[test]
fn a_flip_in_any_block_or_in_the_fold_is_a_checksum_mismatch() {
    let bytes = sample_of_blocks(6).to_bytes();
    let trailer = bytes.len() - 8;
    // Every bit within a few bytes of each block edge (header and trailer
    // — the fold of the block digests — included), and one bit of every
    // 61st byte in between: flipping every bit of a six-block snapshot
    // would hash 4 GB.
    let edges = (0..=6).map(|b| (14 + b * DIGEST_BLOCK).min(trailer));
    let near_edges = edges.flat_map(|e| e.saturating_sub(4)..(e + 12).min(bytes.len()));
    let strided = (0..bytes.len()).step_by(61);
    let mut flipped = 0usize;
    for pos in near_edges
        .flat_map(|p| (0..8).map(move |bit| (p, bit)))
        .chain(strided.map(|p| (p, p % 8)))
    {
        let mut bad = bytes.clone();
        bad[pos.0] ^= 1 << pos.1;
        let want = match pos.0 {
            0..=3 => SnapshotError::BadMagic,
            // The payload length: longer than the bytes, or shorter.
            6..=13 => match EngineSnapshot::from_bytes(&bad) {
                Err(e @ SnapshotError::Truncated { .. }) | Err(e @ SnapshotError::Decode(_)) => e,
                other => panic!("length bit {pos:?}: {other:?}"),
            },
            _ => SnapshotError::ChecksumMismatch,
        };
        assert_eq!(EngineSnapshot::from_bytes(&bad), Err(want), "bit {pos:?}");
        flipped += 1;
    }
    assert!(flipped > 5_000);
    // Whole blocks changing places keep every block digest and change
    // their order in the fold.
    let mut swapped = bytes.clone();
    let (a, b) = (14, 14 + 2 * DIGEST_BLOCK);
    for i in 0..DIGEST_BLOCK {
        swapped.swap(a + i, b + i);
    }
    assert_eq!(
        EngineSnapshot::from_bytes(&swapped),
        Err(SnapshotError::ChecksumMismatch)
    );
    // Every truncation of a multi-block snapshot is typed.
    for len in (0..bytes.len()).step_by(7).chain(trailer - 9..bytes.len()) {
        match EngineSnapshot::from_bytes(&bytes[..len]) {
            Err(SnapshotError::Truncated { expected, have }) => {
                // Short of a header, the envelope's minimum; past it,
                // what the header declares.
                let want = if len < 22 { 22 } else { bytes.len() };
                assert_eq!((expected, have), (want, len));
            }
            other => panic!("cut to {len}: {other:?}"),
        }
    }
}

#[test]
fn ragged_exact_and_empty_payloads_round_trip() {
    // Payloads of every length around the block size, arbitrary content:
    // one long string, so the payload's own structure is out of the way.
    for len in [
        0,
        1,
        DIGEST_BLOCK - 1,
        DIGEST_BLOCK,
        DIGEST_BLOCK + 1,
        4 * DIGEST_BLOCK,
        5 * DIGEST_BLOCK + 17,
    ] {
        let text: String = (0..len).map(|i| (b'a' + (i % 23) as u8) as char).collect();
        let bytes = encode(&text);
        assert_eq!(
            bytes,
            seal(3, &bytes[14..bytes.len() - 8]),
            "{len}: the digest's definition"
        );
        assert_eq!(
            decode::<String>(&bytes).as_deref(),
            Ok(text.as_str()),
            "{len}"
        );
    }
    // No payload at all: a sealed envelope, and nothing to decode in it.
    let empty = seal(3, &[]);
    assert_eq!(empty.len(), 22);
    match decode::<Value>(&empty) {
        Err(SnapshotError::Truncated {
            expected: 1,
            have: 0,
        }) => {}
        other => panic!("empty payload: {other:?}"),
    }
    // A multi-block snapshot survives the trip.
    let snap = sample_of_blocks(3);
    let bytes = snap.to_bytes();
    let back = EngineSnapshot::from_bytes(&bytes).expect("decode");
    assert!(back.to_bytes() == bytes);
}

#[test]
fn packed_count_beyond_the_remaining_bytes_is_refused_before_allocating() {
    // `prev_raw` claims one value more than the bytes behind it hold,
    // then as many as a u64 can say. The count is checked against what is
    // left of the payload — a reader never sizes a buffer from it.
    let good = sample().to_bytes();
    let payload = &good[14..good.len() - 8];
    let key = b"prev_raw";
    let at = payload
        .windows(key.len())
        .position(|w| w == key)
        .expect("key")
        + key.len();
    assert_eq!(payload[at], 8, "a packed array follows its key");
    let left = payload.len() - (at + 9);
    for claim in [left as u64 / 8 + 1, u64::MAX] {
        let mut bad = payload.to_vec();
        bad[at + 1..at + 9].copy_from_slice(&claim.to_le_bytes());
        let want = format!(
            "declared count {claim} exceeds remaining capacity {}",
            left / 8
        );
        assert_eq!(
            EngineSnapshot::from_bytes(&seal(3, &bad)),
            Err(SnapshotError::Decode(want))
        );
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
    assert_eq!(
        errs[3].to_string(),
        "snapshot version 7 unsupported (this build reads version 3)"
    );
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
/// What version 2 added is the one packed arm: tag 8, a count, that many
/// raw floats — an array of `F64` to the tree.
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
            8 => {
                let n = take_count(b, pos, 8)?;
                let floats = (0..n).map(|_| Ok(Value::F64(f64::from_bits(take_u64(b, pos)?))));
                Value::Array(floats.collect::<Result<_, SnapshotError>>()?)
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
    let direct = assert_agrees(&seal(3, payload), what);
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
    // A tree as the format lays it out (float vectors packed).
    let payload_for = |tree: &Value| {
        let mut payload = Vec::new();
        envelope::tagged_v2(tree, &mut payload);
        payload
    };
    // Decode an edited tree both ways; `Ok` carries the canonical bytes
    // of what came out.
    let decode_edited = |what: &str, edit: &dyn Fn(&mut Value)| -> Result<EngineSnapshot, String> {
        let mut tree = base.to_value();
        edit(&mut tree);
        match assert_payload_agrees(&payload_for(&tree), what) {
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
    let mut payload = payload_for(&tree);
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
        // (Packed: one value to skip.)
        pairs(node0(t)).push(("prev_raw".into(), Value::Array(vec![Value::F64(9.0)])));
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
