//! Test-side writer of the `NSSN` snapshot envelope, spelled out from the
//! format's definition. It shares no code with the library (only
//! `serde::Value`), so it is the oracle for what the library writes.
//! Included by the workspace suites through `tests/common` and by
//! `crates/stream/tests/snapshot_corruption.rs` directly.
#![allow(dead_code)]

use serde::Value;

/// FNV-1a 64, one byte per step.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn word(tag: u8, w: u64, out: &mut Vec<u8>) {
    out.push(tag);
    out.extend_from_slice(&w.to_le_bytes());
}

fn text(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A tree in the tagged encoding with nothing packed: the model
/// fingerprint's preimage, and a snapshot payload that spells every float
/// out. Tags: 0 Null, 1 Bool, 2 I64, 3 U64, 4 F64 by bit pattern, 5 Str,
/// 6 Array, 7 Object; lengths and counts are u64 LE; keys are
/// length-prefixed, untagged.
pub fn tagged(v: &Value, out: &mut Vec<u8>) {
    tagged_under(v, None, out)
}

/// The payload of an `EngineSnapshot` tree under versions 2 and 3:
/// [`tagged`], except that every `Vec<f64>` of the schema is tag 8, a
/// count, and the raw values. A tree cannot tell an empty `Vec<f64>` from
/// any other empty array, so the schema's float vectors are named here,
/// as (the key their struct sits under, field).
pub fn tagged_v2(v: &Value, out: &mut Vec<u8>) {
    tagged_under(v, Some(("", "")), out)
}

/// `(owner, field)` is a `Vec<f64>`.
fn is_f64_vec(owner: &str, field: &str) -> bool {
    matches!(
        (owner, field),
        ("pre", "last_val")
            | ("pre", "rate_prev")
            | ("smoother", "buf")
            | ("detector", "window")
            | ("ahead", "values")
            | ("nodes", "prev_raw")
    )
}

/// `(owner, field)` is a `Vec<Vec<f64>>`.
fn is_f64_rows(owner: &str, field: &str) -> bool {
    matches!(
        (owner, field),
        ("pre", "buf") | ("nodes", "seg_rows") | ("jobs", "rows")
    )
}

fn packed(row: &Value, out: &mut Vec<u8>) {
    let Value::Array(items) = row else {
        panic!("expected a float vector, got {row:?}");
    };
    word(8, items.len() as u64, out);
    for item in items {
        let Value::F64(f) = item else {
            panic!("expected a float, got {item:?}");
        };
        out.extend_from_slice(&f.to_bits().to_le_bytes());
    }
}

/// `at` is `None` when nothing packs, else where `v` sits: the key of the
/// struct that owns it and its own key (array elements inherit both).
fn tagged_under(v: &Value, at: Option<(&str, &str)>, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => out.extend_from_slice(&[1, *b as u8]),
        Value::I64(i) => word(2, *i as u64, out),
        Value::U64(u) => word(3, *u, out),
        Value::F64(f) => word(4, f.to_bits(), out),
        Value::Str(s) => {
            out.push(5);
            text(s, out);
        }
        Value::Array(_) if at.is_some_and(|(owner, key)| is_f64_vec(owner, key)) => packed(v, out),
        Value::Array(items) => {
            word(6, items.len() as u64, out);
            let rows = at.is_some_and(|(owner, key)| is_f64_rows(owner, key));
            for item in items {
                if rows {
                    packed(item, out);
                } else {
                    tagged_under(item, at, out);
                }
            }
        }
        Value::Object(pairs) => {
            word(7, pairs.len() as u64, out);
            for (k, val) in pairs {
                text(k, out);
                tagged_under(val, at.map(|(_, key)| (key, k.as_str())), out);
            }
        }
    }
}

/// Payload bytes under each block digest of a version-2 or -3 envelope.
pub const DIGEST_BLOCK: usize = 64 << 10;

/// A version-3 block digest: from the FNV-1a offset basis, one step per
/// little-endian `u64` word, `h = rotl((h ^ w) * 0x9E3779B97F4A7C15, 31)`,
/// a ragged tail of 1–7 bytes zero-padded to one more word.
pub fn word_chain(block: &[u8]) -> u64 {
    block.chunks(8).fold(0xcbf2_9ce4_8422_2325, |h, piece| {
        let mut word = [0u8; 8];
        word[..piece.len()].copy_from_slice(piece);
        (h ^ u64::from_le_bytes(word))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
    })
}

/// The trailer of an envelope whose header (magic, version, payload
/// length) and payload are given: one FNV-1a chain over header ‖ the
/// digest of each [`DIGEST_BLOCK`] of the payload ‖ the payload's length.
/// A block's digest is [`fnv1a64`] under version 2 and [`word_chain`]
/// under every other version the header may name.
pub fn digest(header: &[u8], payload: &[u8]) -> u64 {
    let version = u16::from_le_bytes([header[4], header[5]]);
    let block_digest = if version == 2 { fnv1a64 } else { word_chain };
    let mut preimage = header.to_vec();
    for block in payload.chunks(DIGEST_BLOCK) {
        preimage.extend_from_slice(&block_digest(block).to_le_bytes());
    }
    preimage.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    fnv1a64(&preimage)
}

/// A sealed envelope of `version` around arbitrary payload bytes.
pub fn seal(version: u16, payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"NSSN".to_vec();
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = digest(&bytes, payload);
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Re-seal a tampered envelope under the version its header now names, so
/// only the *intended* corruption is visible to the decoder.
pub fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let sum = digest(&bytes[..14], &bytes[14..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&sum);
    bytes
}

/// What this build writes for the snapshot whose `to_value()` tree is
/// `tree`: the version-2 payload (versions 2 and 3 lay it out alike)
/// sealed as version 3.
pub fn v3_bytes(tree: &Value) -> Vec<u8> {
    let mut payload = Vec::new();
    tagged_v2(tree, &mut payload);
    seal(3, &payload)
}

/// What version-2 builds wrote for the same snapshot.
pub fn v2_bytes(tree: &Value) -> Vec<u8> {
    let mut payload = Vec::new();
    tagged_v2(tree, &mut payload);
    seal(2, &payload)
}
