//! Versioned binary snapshots of the streaming engine's per-node state.
//!
//! A checkpoint must capture *everything* that influences a future
//! verdict bit: preprocessor replay state (unresolved raw rows behind
//! the interpolation watermark, per-column observation trackers, rate
//! baselines), reorder buffers, segment assembly (open segment rows and
//! provenance, pending cuts, deferred jobs and probes), the smoothing →
//! k-sigma chain, scores awaiting their lagged threshold decision, the
//! stuck-sensor watch, and the per-node fault/cost counters. The
//! differential suites (`tests/checkpoint_equivalence.rs`,
//! `tests/reshard_equivalence.rs`) prove the capture is complete:
//! checkpoint → restore → replay-tail produces verdicts bit-identical
//! to the uninterrupted run, across shard-count changes.
//!
//! # Wire format
//!
//! The snapshot body is the [`serde`] `Value` tree of
//! [`EngineSnapshot`], encoded with a tagged binary codec (not JSON:
//! JSON cannot carry NaN payloads or `-0.0`, and restored state must be
//! bit-exact). The envelope is
//!
//! ```text
//! magic "NSSN" (4) | version u16 LE | payload_len u64 LE | payload | fnv1a64 u64 LE
//! ```
//!
//! with the FNV-1a 64 checksum taken over everything before it. Decoding
//! is total: truncated, bit-flipped, or wrong-version bytes return a
//! typed [`SnapshotError`], never panic
//! (`crates/stream/tests/snapshot_corruption.rs`), and the on-disk
//! layout of version 1 is pinned by a golden fixture in
//! `tests/serde_roundtrip.rs`.

use crate::{FaultCounters, ScoringPrecision, StreamStats};
use nodesentry_core::Tick;
use ns_eval::streaming::{KSigmaState, SmootherState};
use ns_wire::fnv1a64;
use serde::{Deserialize, Serialize, Value};

/// Leading magic of every snapshot: `NSSN` ("NodeSentry SNapshot").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"NSSN";
/// Current on-disk format version.
pub const SNAPSHOT_VERSION: u16 = 1;
/// Nesting the decoder will follow before declaring the bytes hostile.
/// Real snapshots nest ~6 deep; corruption that survives the checksum
/// cannot blow the stack.
const MAX_DEPTH: usize = 64;

/// Typed decode/validation failures. Stream faults are absorbed by the
/// engine; these mean the snapshot bytes themselves are unusable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the envelope (or its declared payload) needs.
    Truncated { expected: usize, have: usize },
    /// The leading magic is not `NSSN`.
    BadMagic,
    /// The checksum over the envelope does not match its trailer.
    ChecksumMismatch,
    /// Intact envelope, but a format version this build cannot read.
    UnsupportedVersion { found: u16, supported: u16 },
    /// The payload failed to decode as an [`EngineSnapshot`].
    Decode(String),
    /// The snapshot was taken against a different trained model.
    ModelMismatch { snapshot: u64, model: u64 },
    /// A bit-critical engine-config field differs from the snapshot's.
    ConfigMismatch {
        field: &'static str,
        snapshot: u64,
        config: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { expected, have } => {
                write!(f, "snapshot truncated: need {expected} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            SnapshotError::Decode(e) => write!(f, "snapshot payload malformed: {e}"),
            SnapshotError::ModelMismatch { snapshot, model } => write!(
                f,
                "snapshot taken against model {snapshot:#018x}, restoring with {model:#018x}"
            ),
            SnapshotError::ConfigMismatch {
                field,
                snapshot,
                config,
            } => write!(
                f,
                "engine config `{field}` = {config} differs from snapshot's {snapshot}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Mutable state of a [`StreamingPreprocessor`](crate::StreamingPreprocessor);
/// the fitted configuration (groups, pruning, standardizer) is
/// reconstructed from the model at restore.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PreSnap {
    /// Raw rows not yet fully resolved; first is row `base`.
    pub buf: Vec<Vec<f64>>,
    pub nan_flags: Vec<bool>,
    pub base: usize,
    pub n_pushed: usize,
    pub resolved: usize,
    /// Per raw column: latest observed (non-NaN) row.
    pub last_obs: Vec<Option<usize>>,
    pub last_val: Vec<f64>,
    pub rate_prev: Vec<f64>,
    pub any_row: bool,
}

/// A deferred segment awaiting the batched scoring phase.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSnap {
    pub start: usize,
    pub rows: Vec<Vec<f64>>,
    /// Row provenance ordinals (0 clean, 1 synthesized, 2 faulty).
    pub kinds: Vec<u8>,
    pub matched: Option<usize>,
    pub degraded: bool,
}

/// A score waiting for its lagged smoothed threshold decision.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PendingSnap {
    pub step: usize,
    pub score: f64,
    pub cluster: usize,
    pub suppress: bool,
    pub degraded: bool,
}

/// Complete streaming state of one node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeSnap {
    pub node: usize,
    pub next_step: usize,
    pub next_row: usize,
    pub pre: PreSnap,
    pub cuts: Vec<usize>,
    pub seg_start: usize,
    pub seg_rows: Vec<Vec<f64>>,
    /// Provenance ordinals parallel to `seg_rows`.
    pub seg_row_kinds: Vec<u8>,
    pub matched: Option<usize>,
    pub jobs: Vec<JobSnap>,
    pub probe_pending: bool,
    pub smoother: SmootherState,
    pub detector: KSigmaState,
    pub pending: Vec<PendingSnap>,
    /// Reorder buffer, ascending by step.
    pub ahead: Vec<Tick>,
    /// Provenance ordinals of rows pushed but not yet absorbed.
    pub row_kinds: Vec<u8>,
    pub resync_degraded: bool,
    pub prev_raw: Vec<f64>,
    pub runs: Vec<u32>,
    pub stats: StreamStats,
    pub faults: FaultCounters,
}

/// Everything [`Engine::checkpoint`](crate::Engine::checkpoint) captures.
///
/// Nodes are sorted by id and quarantined ids ascending, so encoding the
/// same engine state twice yields identical bytes (checkpoint →
/// restore → checkpoint is byte-stable; `tests/proptest_snapshot.rs`).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Fingerprint of the trained model this state belongs to
    /// ([`NodeSentry::fingerprint`](nodesentry_core::NodeSentry::fingerprint),
    /// a digest of the model's content that the checkpointing engine
    /// computed once, at construction); restore recomputes it from the
    /// model it is given and refuses any other with
    /// [`SnapshotError::ModelMismatch`].
    pub model_fingerprint: u64,
    /// First test step of the checkpointed engine (bit-critical).
    pub split: usize,
    /// Smoothing window of the checkpointed engine (bit-critical).
    pub smooth_window: usize,
    /// Scoring tier of the checkpointed engine (bit-critical: the tiers
    /// produce different score bits, so a restore must match it).
    pub scoring_precision: ScoringPrecision,
    /// Shard count at checkpoint time — informational only; restore may
    /// pick any shard count (that is how live resharding works).
    pub n_shards: usize,
    /// Per-node state, ascending by node id.
    pub nodes: Vec<NodeSnap>,
    /// Quarantined node ids, ascending.
    pub quarantined: Vec<usize>,
    /// Cost counters no longer attributable to a live node (quarantined
    /// or flushed states), carried at engine level across restores.
    pub carried_stats: StreamStats,
    /// Fault counters no longer attributable to a live node.
    pub carried_faults: FaultCounters,
}

// Hand-written so the default tier stays byte-compatible with the pinned
// version-1 layout: `scoring_precision` is emitted only when it is not
// `F64`, and a missing key decodes as `F64` (every pre-tier snapshot was
// f64 by construction). The golden fixture in `tests/serde_roundtrip.rs`
// holds this closed.
impl Serialize for EngineSnapshot {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            (
                "model_fingerprint".to_string(),
                self.model_fingerprint.to_value(),
            ),
            ("split".to_string(), self.split.to_value()),
            ("smooth_window".to_string(), self.smooth_window.to_value()),
            ("n_shards".to_string(), self.n_shards.to_value()),
            ("nodes".to_string(), self.nodes.to_value()),
            ("quarantined".to_string(), self.quarantined.to_value()),
            ("carried_stats".to_string(), self.carried_stats.to_value()),
            ("carried_faults".to_string(), self.carried_faults.to_value()),
        ];
        if self.scoring_precision != ScoringPrecision::F64 {
            pairs.push((
                "scoring_precision".to_string(),
                self.scoring_precision.to_value(),
            ));
        }
        Value::Object(pairs)
    }
}

impl Deserialize for EngineSnapshot {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(EngineSnapshot {
            model_fingerprint: serde::field(v, "model_fingerprint")?,
            split: serde::field(v, "split")?,
            smooth_window: serde::field(v, "smooth_window")?,
            // Missing key → `field` falls back to `from_value(Null)`,
            // which is `F64` (the only tier that ever omits the key).
            scoring_precision: serde::field(v, "scoring_precision")?,
            n_shards: serde::field(v, "n_shards")?,
            nodes: serde::field(v, "nodes")?,
            quarantined: serde::field(v, "quarantined")?,
            carried_stats: serde::field(v, "carried_stats")?,
            carried_faults: serde::field(v, "carried_faults")?,
        })
    }
}

impl EngineSnapshot {
    /// Encode into the versioned, checksummed envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_value(&self.to_value(), &mut payload);
        let mut out = Vec::with_capacity(payload.len() + 22);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode and validate an envelope. Total: malformed input of any
    /// kind returns a typed error, never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        const HEADER: usize = 4 + 2 + 8;
        if bytes.len() < HEADER + 8 {
            return Err(SnapshotError::Truncated {
                expected: HEADER + 8,
                have: bytes.len(),
            });
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        let declared = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
        let total = (HEADER as u64)
            .checked_add(declared)
            .and_then(|n| n.checked_add(8))
            .filter(|&n| n <= usize::MAX as u64)
            .ok_or(SnapshotError::Truncated {
                expected: usize::MAX,
                have: bytes.len(),
            })? as usize;
        if bytes.len() < total {
            return Err(SnapshotError::Truncated {
                expected: total,
                have: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(SnapshotError::Decode(format!(
                "{} trailing bytes after the envelope",
                bytes.len() - total
            )));
        }
        let body = &bytes[..total - 8];
        let stored = u64::from_le_bytes(bytes[total - 8..total].try_into().expect("8 bytes"));
        if fnv1a64(body) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        // Version gate after the checksum: a valid future-version
        // snapshot reports `UnsupportedVersion`, a corrupted version
        // field reports the corruption.
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let payload = &body[HEADER..];
        let mut pos = 0usize;
        let value = decode_value(payload, &mut pos, 0)?;
        if pos != payload.len() {
            return Err(SnapshotError::Decode(format!(
                "{} trailing payload bytes",
                payload.len() - pos
            )));
        }
        EngineSnapshot::from_value(&value).map_err(|e| SnapshotError::Decode(e.to_string()))
    }
}

// ---------------------------------------------------------------------
// Tagged binary codec for the serde `Value` tree
// ---------------------------------------------------------------------
//
// Tags: 0 Null, 1 Bool, 2 I64, 3 U64, 4 F64 (raw IEEE bits — the whole
// reason this codec exists instead of JSON), 5 Str, 6 Array, 7 Object.
// Lengths and counts are u64 LE. Every count is bounds-checked against
// the remaining bytes before allocating, so hostile lengths cannot OOM.
// `NodeSentry::fingerprint` hashes the model's trees with this same
// tagging (and the FNV-1a 64 constants of the envelope checksum), but
// shares no code with it: changing one does not change the other.

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::I64(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::U64(u) => {
            out.push(3);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::F64(f) => {
            out.push(4);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(5);
            encode_str(s, out);
        }
        Value::Array(items) => {
            out.push(6);
            out.extend_from_slice(&(items.len() as u64).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(pairs) => {
            out.push(7);
            out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
            for (k, val) in pairs {
                encode_str(k, out);
                encode_value(val, out);
            }
        }
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take<'a>(b: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], SnapshotError> {
    let end = pos.checked_add(n).ok_or(SnapshotError::Truncated {
        expected: usize::MAX,
        have: b.len(),
    })?;
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
    Ok(u64::from_le_bytes(
        take(b, pos, 8)?.try_into().expect("8 bytes"),
    ))
}

/// Read a declared count, refusing any that the remaining bytes cannot
/// possibly satisfy (each encoded item takes at least `min_item` bytes).
fn take_count(b: &[u8], pos: &mut usize, min_item: usize) -> Result<usize, SnapshotError> {
    let n = take_u64(b, pos)?;
    let cap = (b.len() - *pos) / min_item.max(1);
    if n > cap as u64 {
        return Err(SnapshotError::Decode(format!(
            "declared count {n} exceeds remaining capacity {cap}"
        )));
    }
    Ok(n as usize)
}

fn decode_str(b: &[u8], pos: &mut usize) -> Result<String, SnapshotError> {
    let len = take_count(b, pos, 1)?;
    let raw = take(b, pos, len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| SnapshotError::Decode("invalid UTF-8".into()))
}

fn decode_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, SnapshotError> {
    if depth > MAX_DEPTH {
        return Err(SnapshotError::Decode("nesting too deep".into()));
    }
    let tag = take(b, pos, 1)?[0];
    match tag {
        0 => Ok(Value::Null),
        1 => match take(b, pos, 1)?[0] {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(SnapshotError::Decode(format!("bad bool byte {other}"))),
        },
        2 => Ok(Value::I64(i64::from_le_bytes(
            take(b, pos, 8)?.try_into().expect("8 bytes"),
        ))),
        3 => Ok(Value::U64(take_u64(b, pos)?)),
        4 => Ok(Value::F64(f64::from_bits(take_u64(b, pos)?))),
        5 => Ok(Value::Str(decode_str(b, pos)?)),
        6 => {
            let n = take_count(b, pos, 1)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(b, pos, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        7 => {
            // A pair is at least a key length (8) plus a value tag (1).
            let n = take_count(b, pos, 9)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let k = decode_str(b, pos)?;
                let v = decode_value(b, pos, depth + 1)?;
                pairs.push((k, v));
            }
            Ok(Value::Object(pairs))
        }
        other => Err(SnapshotError::Decode(format!("unknown value tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        let mut pos = 0;
        let back = decode_value(&buf, &mut pos, 0).expect("decode");
        assert_eq!(pos, buf.len(), "codec consumed every byte");
        back
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        let v = Value::Object(vec![
            ("null".into(), Value::Null),
            ("t".into(), Value::Bool(true)),
            ("f".into(), Value::Bool(false)),
            ("i".into(), Value::I64(-42)),
            ("u".into(), Value::U64(u64::MAX)),
            ("s".into(), Value::Str("héllo".into())),
            ("a".into(), Value::Array(vec![Value::F64(1.5), Value::Null])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn codec_preserves_exotic_float_bits() {
        // JSON would turn all of these into null or lose the payload;
        // the binary codec must not.
        for bits in [
            f64::NAN.to_bits(),
            f64::NAN.to_bits() ^ 0xDEAD, // NaN with a payload
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::MIN_POSITIVE.to_bits() >> 1, // subnormal
        ] {
            let v = Value::F64(f64::from_bits(bits));
            let mut buf = Vec::new();
            encode_value(&v, &mut buf);
            let mut pos = 0;
            match decode_value(&buf, &mut pos, 0).unwrap() {
                Value::F64(f) => assert_eq!(f.to_bits(), bits),
                other => panic!("expected F64, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocating() {
        // Array claiming u64::MAX elements with no bytes behind it.
        let mut buf = vec![6u8];
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut pos = 0;
        assert!(matches!(
            decode_value(&buf, &mut pos, 0),
            Err(SnapshotError::Decode(_))
        ));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        // 1000 nested single-element arrays.
        let mut buf = Vec::new();
        for _ in 0..1000 {
            buf.push(6u8);
            buf.extend_from_slice(&1u64.to_le_bytes());
        }
        buf.push(0u8); // innermost Null
        let mut pos = 0;
        assert!(matches!(
            decode_value(&buf, &mut pos, 0),
            Err(SnapshotError::Decode(_))
        ));
    }
}
