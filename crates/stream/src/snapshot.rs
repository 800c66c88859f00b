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
//! The snapshot body is [`EngineSnapshot`]'s [`serde`] event stream in a
//! tagged binary codec (not JSON: JSON cannot carry NaN payloads or
//! `-0.0`, and restored state must be bit-exact), streamed in both
//! directions: `to_bytes` emits the typed state straight into the output
//! and `from_bytes` reads it straight from the input — no intermediate
//! tree, keys matched as borrowed `&str` (`tests/snapshot_alloc.rs`).
//! The envelope is
//!
//! ```text
//! magic "NSSN" (4) | version u16 LE | payload_len u64 LE | payload | digest u64 LE
//! ```
//!
//! and the digest is verified before any payload byte is trusted. This
//! build writes and reads **version 3**:
//!
//! * *Digest.* The payload is cut into 64 KiB blocks; each block's digest
//!   is a 64-bit chain over its little-endian `u64` words,
//!   `h = rotl((h ^ w)·0x9E3779B97F4A7C15, 31)` from the FNV-1a offset
//!   basis, a ragged tail of 1–7 bytes zero-padded to one more word; the
//!   block digests are folded by FNV-1a as header ‖ block digests ‖
//!   payload length ([`word64_blocks`]). Every
//!   step is a bijection in its word, so any single-bit flip changes the
//!   trailer. Blocks are independent, so four advance per pass, and from
//!   512 KiB of payload runs of them hash on every core of the pool.
//! * *Packed rows.* A `Vec<f64>` is tag 8, a count and the raw values —
//!   one bounds check and one copy each way; open-segment rows are ≈ 99 %
//!   of a snapshot's bytes.
//! * *Sections.* The payload bytes are version 2's. What changed is who
//!   writes them: [`EngineSnapshot::to_bytes`] sizes each node's section
//!   with a counting walk, allocates the envelope zeroed and untouched,
//!   and from 512 KiB of payload writes runs of node sections on every
//!   core of the pool, straight into their disjoint slices — so the
//!   output's first-touch page faults are taken on every core — each run
//!   hashing the blocks it has just written. The bytes are those of the
//!   serial [`encode`].
//!
//! Every other version is refused with `UnsupportedVersion` when its
//! envelope is intact — under the version-3 digest, or under the one its
//! own builds sealed it with (version 1: one plain FNV-1a chain; version
//! 2: one byte-wise FNV-1a chain per block, [`fnv1a64_blocks`]) — and
//! with `ChecksumMismatch` when it is not, so an old or future file is
//! told apart from a damaged one.
//!
//! Decoding is total: truncated, bit-flipped, or wrong-version bytes
//! return a typed [`SnapshotError`], never panic — the error the two-pass
//! tree decoder this codec replaced would have given, which
//! `crates/stream/tests/snapshot_corruption.rs` keeps as its oracle — and
//! the layout is pinned by the golden fixture in `tests/serde_roundtrip.rs`.

use crate::{FaultCounters, ScoringPrecision, StreamStats};
use ns_eval::streaming::{KSigmaState, SmootherState};
use ns_wire::{
    fnv1a64, fnv1a64_blocks, fold_block_digests, word64_block_digests, word64_blocks, Tick,
    PAR_MIN_BYTES,
};
use rayon::prelude::*;
use serde::{Deserialize, Event, Serialize, Sink, Source};

/// Leading magic of every snapshot: `NSSN` ("NodeSentry SNapshot").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"NSSN";
/// The on-disk format version this build writes, and the only one it
/// reads.
pub const SNAPSHOT_VERSION: u16 = 3;
/// Payload bytes under each block digest of the envelope.
const DIGEST_BLOCK: usize = 64 << 10;
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
    /// Intact envelope, but a format version this build cannot read
    /// (`supported` is the one it can).
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
                    "snapshot version {found} unsupported (this build reads version {supported})"
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

/// A closed segment not yet handed out as a scoring job.
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
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub struct EngineSnapshot {
    /// Fingerprint of the trained model this state belongs to
    /// ([`NodeSentry::fingerprint`](nodesentry_core::NodeSentry::fingerprint),
    /// a digest of the model's content that the checkpointing engine took
    /// at construction); restore takes it of the model it is given —
    /// hashed once per model allocation, however many engines share it —
    /// and refuses any other with [`SnapshotError::ModelMismatch`].
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

// `Serialize` is hand-written so the default tier keeps its pinned key
// set: `scoring_precision` is emitted only when it is not `F64`. The
// derived reader needs no such care: a missing key reads as `Null`
// would, which for `ScoringPrecision` is `F64` (every pre-tier snapshot
// was f64 by construction). The golden fixture in
// `tests/serde_roundtrip.rs` holds this closed.
impl Serialize for EngineSnapshot {
    fn emit<S: Sink>(&self, sink: &mut S) {
        self.emit_head(sink);
        for node in &self.nodes {
            node.emit(sink);
        }
        self.emit_tail(sink);
    }
}

impl EngineSnapshot {
    /// Encode into the versioned, checksummed envelope: the bytes of
    /// [`encode`], with node sections written on every core of the pool
    /// from 512 KiB of payload on.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_sections(self)
    }

    /// Decode and validate an envelope. Total: malformed input of any
    /// kind returns a typed error, never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        decode(bytes)
    }

    /// The events before the node sections: the object, the fields
    /// before `nodes`, its key and its array head.
    fn emit_head<S: Sink>(&self, sink: &mut S) {
        let tiered = self.scoring_precision != ScoringPrecision::F64;
        sink.object(8 + tiered as usize);
        serde::emit_field(sink, "model_fingerprint", &self.model_fingerprint);
        serde::emit_field(sink, "split", &self.split);
        serde::emit_field(sink, "smooth_window", &self.smooth_window);
        serde::emit_field(sink, "n_shards", &self.n_shards);
        sink.key("nodes");
        sink.array(self.nodes.len());
    }

    /// The events after the node sections.
    fn emit_tail<S: Sink>(&self, sink: &mut S) {
        serde::emit_field(sink, "quarantined", &self.quarantined);
        serde::emit_field(sink, "carried_stats", &self.carried_stats);
        serde::emit_field(sink, "carried_faults", &self.carried_faults);
        if self.scoring_precision != ScoringPrecision::F64 {
            serde::emit_field(sink, "scoring_precision", &self.scoring_precision);
        }
    }
}

/// Bytes before the payload: magic, version, payload length.
const HEADER: usize = 4 + 2 + 8;

/// Bytes the events `emit` pushes take in the payload.
fn emitted_len(emit: impl FnOnce(&mut ByteSink<'_, usize>)) -> usize {
    let mut len = 0;
    emit(&mut ByteSink(&mut len));
    len
}

/// An envelope for `payload_len` payload bytes with its header written
/// and every other byte zero. A large zeroed allocation is fresh mapped
/// memory that nothing has touched, so its pages are faulted in by
/// whichever thread writes them first.
fn envelope(payload_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; HEADER + payload_len + 8];
    advise_huge_pages(&mut out);
    out[..4].copy_from_slice(&SNAPSHOT_MAGIC);
    out[4..6].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out[6..HEADER].copy_from_slice(&(payload_len as u64).to_le_bytes());
    out
}

/// Ask the kernel to back every whole 2 MiB-aligned stretch of `buf` with
/// transparent huge pages, so that a fresh output takes one first-touch
/// fault per 2 MiB instead of one per 4 KiB. Measured on a 2-vCPU box
/// (THP in `madvise` mode) for a 44.7 MiB output: 39.5 → 22.1 ms on one
/// thread, 26.3 → 13.0 ms on two. Advice only: the bytes and the
/// allocation are unchanged, and a kernel without huge pages ignores it.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn advise_huge_pages(buf: &mut [u8]) {
    const HUGE_PAGE: usize = 2 << 20;
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    let addr = buf.as_mut_ptr() as usize;
    let start = addr.next_multiple_of(HUGE_PAGE);
    let end = (addr + buf.len()) / HUGE_PAGE * HUGE_PAGE;
    if end > start {
        // SAFETY: `start..end` lies inside `buf`, which is borrowed
        // mutably here; MADV_HUGEPAGE changes how its pages are backed,
        // never what they hold, and a refusal (the return value) changes
        // nothing.
        unsafe { madvise(start as *mut std::ffi::c_void, end - start, MADV_HUGEPAGE) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge_pages(_buf: &mut [u8]) {}

/// Write the trailer of `out`, whose payload's block digests are
/// `digests`.
fn seal(out: &mut [u8], digests: &[u64]) {
    let (body, trailer) = out.split_at_mut(out.len() - 8);
    let sum = fold_block_digests(&body[..HEADER], digests, body.len() - HEADER);
    trailer.copy_from_slice(&sum.to_le_bytes());
}

/// [`EngineSnapshot::to_bytes`] over any payload type, on this thread:
/// the value's events stream straight into the envelope, which a first,
/// counting walk has sized — one allocation, however large the state.
/// (A `serde::Value` encodes with its arrays unpacked; both spellings
/// read back alike.)
pub fn encode<T: Serialize>(value: &T) -> Vec<u8> {
    let payload_len = emitted_len(|sink| value.emit(sink));
    let mut out = envelope(payload_len);
    let mut rest = &mut out[HEADER..HEADER + payload_len];
    value.emit(&mut ByteSink(&mut rest));
    assert!(rest.is_empty(), "both walks emit alike");
    let mut digests = vec![0u64; payload_len.div_ceil(DIGEST_BLOCK)];
    word64_block_digests(
        &out[HEADER..HEADER + payload_len],
        DIGEST_BLOCK,
        &mut digests,
    );
    seal(&mut out, &digests);
    out
}

/// One participant's share of a sectioned encode: consecutive node
/// sections, and the payload blocks that lie wholly inside its bytes.
struct Run<'a> {
    nodes: &'a [NodeSnap],
    /// Section length of each of `nodes`.
    lens: &'a [usize],
    /// Payload offset of `bytes`.
    start: usize,
    /// The run's payload bytes: the first run's begin with the
    /// snapshot's head, the last run's end with its tail.
    bytes: &'a mut [u8],
    /// Index of the first block the run hashes.
    first_block: usize,
    /// Digests of the blocks the run hashes.
    digests: &'a mut [u64],
}

impl Run<'_> {
    /// Write the run's events, hashing each group of four of its blocks
    /// as soon as it is written (while it is still in cache), the rest at
    /// the end.
    fn write(self, snap: &EngineSnapshot, payload_len: usize) {
        let Run {
            nodes,
            lens,
            start,
            bytes,
            first_block,
            digests,
        } = self;
        let tail = start + bytes.len() == payload_len;
        let (mut pos, mut hashed) = (0, 0);
        let mut put = |len: usize, emit: &dyn Fn(&mut ByteSink<'_, &mut [u8]>)| {
            let mut rest = &mut bytes[pos..pos + len];
            emit(&mut ByteSink(&mut rest));
            assert!(rest.is_empty(), "both walks emit alike");
            pos += len;
            let written = ((start + pos) / DIGEST_BLOCK).saturating_sub(first_block);
            let ready = written.min(digests.len()) / 4 * 4;
            if ready > hashed {
                let from = (first_block + hashed) * DIGEST_BLOCK - start;
                let to = (first_block + ready) * DIGEST_BLOCK - start;
                word64_block_digests(&bytes[from..to], DIGEST_BLOCK, &mut digests[hashed..ready]);
                hashed = ready;
            }
        };
        if start == 0 {
            put(emitted_len(|s| snap.emit_head(s)), &|s| snap.emit_head(s));
        }
        for (node, &len) in nodes.iter().zip(lens) {
            put(len, &|s| node.emit(s));
        }
        if tail {
            put(emitted_len(|s| snap.emit_tail(s)), &|s| snap.emit_tail(s));
        }
        if hashed < digests.len() {
            let from = (first_block + hashed) * DIGEST_BLOCK - start;
            let to = ((first_block + digests.len()) * DIGEST_BLOCK).min(payload_len) - start;
            word64_block_digests(&bytes[from..to], DIGEST_BLOCK, &mut digests[hashed..]);
        }
    }
}

/// [`EngineSnapshot::to_bytes`]: the bytes of [`encode`], with the node
/// sections as the unit of parallel work. One counting walk per node
/// sizes its section; from [`PAR_MIN_BYTES`] of payload the sections are
/// dealt into one run of about equal bytes per pool participant (below
/// it, one run on this thread), each run writes straight into its slice
/// of the zeroed output and hashes the blocks wholly inside it, and the
/// blocks that straddle two runs are hashed here once all are written.
fn encode_sections(snap: &EngineSnapshot) -> Vec<u8> {
    let head = emitted_len(|s| snap.emit_head(s));
    let lens: Vec<usize> = snap
        .nodes
        .iter()
        .map(|node| emitted_len(|s| node.emit(s)))
        .collect();
    let sections: usize = lens.iter().sum();
    let payload_len = head + sections + emitted_len(|s| snap.emit_tail(s));
    let mut out = envelope(payload_len);
    let width = if payload_len < PAR_MIN_BYTES {
        1
    } else {
        rayon::current_num_threads().clamp(1, snap.nodes.len().max(1))
    };
    let mut digests = vec![0u64; payload_len.div_ceil(DIGEST_BLOCK)];
    let blocks = digests.len();

    // Deal the nodes: run `r` ends with the first node whose section ends
    // at or past `r + 1` of `width` equal shares of the sections, the last
    // run with the tail. A run hashes the blocks that lie wholly inside
    // its bytes (the payload's ragged last block is the last run's), and
    // `gaps` keeps the blocks that straddle two runs.
    let mut runs = Vec::with_capacity(width);
    let mut gaps = Vec::with_capacity(width);
    let mut bytes = &mut out[HEADER..HEADER + payload_len];
    let mut free = &mut digests[..];
    let (mut start, mut node, mut block, mut written) = (0usize, 0, 0, 0);
    while runs.len() < width {
        let last = runs.len() + 1 == width;
        let share = sections * (runs.len() + 1) / width;
        let mut end = node;
        while end < lens.len() && (last || written < share) {
            written += lens[end];
            end += 1;
        }
        let stop = if last { payload_len } else { head + written };
        let first_block = start.div_ceil(DIGEST_BLOCK);
        let last_block = if last {
            blocks
        } else {
            (stop / DIGEST_BLOCK).max(first_block)
        };
        let (mine, rest) = std::mem::take(&mut bytes).split_at_mut(stop - start);
        let (_, rest_digests) = std::mem::take(&mut free).split_at_mut(first_block - block);
        let (own, rest_digests) = rest_digests.split_at_mut(last_block - first_block);
        if first_block > block {
            gaps.push(block..first_block);
        }
        runs.push(Run {
            nodes: &snap.nodes[node..end],
            lens: &lens[node..end],
            start,
            bytes: mine,
            first_block,
            digests: own,
        });
        (bytes, free) = (rest, rest_digests);
        (start, node, block) = (stop, end, last_block);
    }
    runs.into_par_iter()
        .for_each(|run| run.write(snap, payload_len));

    let payload = &out[HEADER..HEADER + payload_len];
    for gap in gaps {
        let bytes = &payload[gap.start * DIGEST_BLOCK..(gap.end * DIGEST_BLOCK).min(payload_len)];
        word64_block_digests(bytes, DIGEST_BLOCK, &mut digests[gap]);
    }
    seal(&mut out, &digests);
    out
}

/// [`EngineSnapshot::from_bytes`] over any payload type, read straight
/// from the bytes.
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, SnapshotError> {
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
    let (header, payload) = body.split_at(HEADER);
    // Versions 1 and 2 sealed their envelopes with byte chains of their
    // own; the rules are kept so that an intact old file is refused as
    // what it is.
    let sum = match version {
        1 => fnv1a64(body),
        2 => fnv1a64_blocks(header, payload, DIGEST_BLOCK),
        _ => word64_blocks(header, payload, DIGEST_BLOCK),
    };
    if sum != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    // Version gate after the checksum: an intact snapshot of another
    // version reports `UnsupportedVersion`, a corrupted version field
    // reports the corruption.
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let mut src = ByteSource::new(payload);
    let read = T::read(&mut src);
    if read.is_err() || src.pos != payload.len() {
        // Failure path only: a structural walk of the whole payload speaks
        // first — damage anywhere in it, trailing bytes included, outranks
        // a well-formed value of the wrong type — so the error does not
        // depend on how far the typed read got.
        src = ByteSource::new(payload);
        let _ = src.skip();
        if let Some(fault) = src.fault {
            return Err(fault);
        }
        if src.pos != payload.len() {
            let extra = payload.len() - src.pos;
            return Err(SnapshotError::Decode(format!(
                "{extra} trailing payload bytes"
            )));
        }
    }
    read.map_err(|e| SnapshotError::Decode(e.to_string()))
}

// ---------------------------------------------------------------------
// Tagged binary codec: a serde sink and source over the payload bytes
// ---------------------------------------------------------------------
//
// Tags: 0 Null, 1 Bool, 2 I64, 3 U64, 4 F64 (raw IEEE bits — the whole
// reason this codec exists instead of JSON), 5 Str, 6 Array, 7 Object,
// 8 F64s (a count, then that many raw f64 — a `Vec<f64>`).
// Lengths and counts are u64 LE; keys are length-prefixed, untagged.
// Every count is bounds-checked against the remaining bytes before a
// reader may allocate for it, so hostile lengths cannot OOM.
// `NodeSentry::fingerprint` hashes the model's events with tags 0–7 (and
// the FNV-1a 64 constants of the envelope checksum), but shares no code
// with this codec: changing one does not change the other.

/// Where a [`ByteSink`] puts its bytes: the output, or — for the walk
/// that sizes it — a count of them.
trait Out {
    fn put(&mut self, bytes: &[u8]);
    fn put_f64s(&mut self, vs: &[f64]);
}

/// The bytes not yet written of a slice the counting walk has sized.
impl Out for &mut [u8] {
    fn put(&mut self, bytes: &[u8]) {
        let (head, rest) = std::mem::take(self).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        *self = rest;
    }
    fn put_f64s(&mut self, vs: &[f64]) {
        let (head, rest) = std::mem::take(self).split_at_mut(8 * vs.len());
        for (word, v) in head.chunks_exact_mut(8).zip(vs) {
            word.copy_from_slice(&v.to_le_bytes());
        }
        *self = rest;
    }
}

impl Out for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
    fn put_f64s(&mut self, vs: &[f64]) {
        *self += 8 * vs.len();
    }
}

struct ByteSink<'a, O>(&'a mut O);

impl<O: Out> ByteSink<'_, O> {
    fn tagged(&mut self, tag: u8, word: u64) {
        let mut bytes = [tag; 9];
        bytes[1..].copy_from_slice(&word.to_le_bytes());
        self.0.put(&bytes);
    }
}

impl<O: Out> Sink for ByteSink<'_, O> {
    fn null(&mut self) {
        self.0.put(&[0]);
    }
    fn bool(&mut self, v: bool) {
        self.0.put(&[1, v as u8]);
    }
    fn i64(&mut self, v: i64) {
        self.tagged(2, v as u64);
    }
    fn u64(&mut self, v: u64) {
        self.tagged(3, v);
    }
    fn f64(&mut self, v: f64) {
        self.tagged(4, v.to_bits());
    }
    fn str(&mut self, v: &str) {
        self.0.put(&[5]);
        self.key(v);
    }
    fn array(&mut self, len: usize) {
        self.tagged(6, len as u64);
    }
    fn object(&mut self, len: usize) {
        self.tagged(7, len as u64);
    }
    fn key(&mut self, k: &str) {
        self.0.put(&(k.len() as u64).to_le_bytes());
        self.0.put(k.as_bytes());
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.tagged(8, vs.len() as u64);
        self.0.put_f64s(vs);
    }
}

struct ByteSource<'de> {
    b: &'de [u8],
    pos: usize,
    /// Values (or pairs) still unread in each container entered.
    open: [usize; MAX_DEPTH],
    depth: usize,
    /// The first failure, typed (the trait carries only its message).
    fault: Option<SnapshotError>,
}

impl<'de> ByteSource<'de> {
    fn new(b: &'de [u8]) -> Self {
        ByteSource {
            b,
            pos: 0,
            open: [0; MAX_DEPTH],
            depth: 0,
            fault: None,
        }
    }

    #[cold]
    fn fail<T>(&mut self, fault: SnapshotError) -> Result<T, serde::Error> {
        let untyped = serde::Error::msg(fault.to_string());
        self.fault.get_or_insert(fault);
        Err(untyped)
    }

    fn take(&mut self, n: usize) -> Result<&'de [u8], serde::Error> {
        let rest = &self.b[self.pos..];
        if n > rest.len() {
            return self.fail(SnapshotError::Truncated {
                expected: self.pos.saturating_add(n),
                have: self.b.len(),
            });
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn take_u64(&mut self) -> Result<u64, serde::Error> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a declared count, refusing any that the remaining bytes cannot
    /// possibly satisfy (each encoded item takes at least `min_item` bytes).
    fn take_count(&mut self, min_item: usize) -> Result<usize, serde::Error> {
        let n = self.take_u64()?;
        let cap = (self.b.len() - self.pos) / min_item;
        if n > cap as u64 {
            return self.fail(SnapshotError::Decode(format!(
                "declared count {n} exceeds remaining capacity {cap}"
            )));
        }
        Ok(n as usize)
    }

    /// A length-prefixed string, borrowed from the payload.
    fn take_str(&mut self) -> Result<&'de str, serde::Error> {
        let len = self.take_count(1)?;
        std::str::from_utf8(self.take(len)?)
            .or_else(|_| self.fail(SnapshotError::Decode("invalid UTF-8".into())))
    }

    /// Leave every container that has been read to its end.
    fn settle(&mut self) {
        while self.depth > 0 && self.open[self.depth - 1] == 0 {
            self.depth -= 1;
        }
    }
}

impl<'de> Source<'de> for ByteSource<'de> {
    /// Inlined into each typed reader so the `Event` never travels
    /// through memory: measured 45 → 19 ms on the typed read of a 28 MB
    /// payload (3.1 M scalars).
    #[inline(always)]
    fn next(&mut self) -> Result<Event<'de>, serde::Error> {
        self.settle();
        let tag = self.take(1)?[0];
        if self.depth > 0 {
            self.open[self.depth - 1] -= 1;
        }
        Ok(match tag {
            0 => Event::Null,
            1 => match self.take(1)?[0] {
                0 => Event::Bool(false),
                1 => Event::Bool(true),
                other => return self.fail(SnapshotError::Decode(format!("bad bool byte {other}"))),
            },
            2 => Event::I64(self.take_u64()? as i64),
            3 => Event::U64(self.take_u64()?),
            4 => Event::F64(f64::from_bits(self.take_u64()?)),
            5 => Event::Str(self.take_str()?),
            6 | 7 => {
                // An element is at least a tag (1); a pair at least a key
                // length (8) plus a value tag (1).
                let len = self.take_count(if tag == 6 { 1 } else { 9 })?;
                if len > 0 {
                    // Corruption that survives the checksum cannot blow
                    // the stack of a recursive reader.
                    if self.depth == MAX_DEPTH {
                        return self.fail(SnapshotError::Decode("nesting too deep".into()));
                    }
                    self.open[self.depth] = len;
                    self.depth += 1;
                }
                if tag == 6 {
                    Event::Array(len)
                } else {
                    Event::Object(len)
                }
            }
            8 => {
                let count = self.take_count(8)?;
                Event::F64s(self.take(8 * count)?)
            }
            other => return self.fail(SnapshotError::Decode(format!("unknown value tag {other}"))),
        })
    }

    fn key(&mut self) -> Result<&'de str, serde::Error> {
        self.settle();
        self.take_str()
    }

    fn take_null(&mut self) -> Result<bool, serde::Error> {
        let null = self.b.get(self.pos) == Some(&0);
        if null {
            self.next()?;
        }
        Ok(null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// The payload bytes of `v` (a tree never packs; a typed `Vec<f64>` does).
    fn encoded<T: Serialize>(v: &T) -> Vec<u8> {
        let mut buf = vec![0; emitted_len(|sink| v.emit(sink))];
        v.emit(&mut ByteSink(&mut &mut buf[..]));
        buf
    }

    /// The structural walk of `decode`'s failure path, typed.
    fn walk(buf: &[u8]) -> Result<(), SnapshotError> {
        let mut src = ByteSource::new(buf);
        match (src.skip(), src.fault) {
            (Ok(()), None) => Ok(()),
            (Err(_), Some(fault)) => Err(fault),
            (walked, fault) => panic!("{walked:?} with typed fault {fault:?}"),
        }
    }

    fn roundtrip(v: &Value) -> Value {
        roundtrip_bytes(&encoded(v))
    }

    fn roundtrip_bytes(buf: &[u8]) -> Value {
        let mut src = ByteSource::new(buf);
        let back = Value::read(&mut src).expect("decode");
        assert_eq!(src.pos, buf.len(), "codec consumed every byte");
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
            match roundtrip(&Value::F64(f64::from_bits(bits))) {
                Value::F64(f) => assert_eq!(f.to_bits(), bits),
                other => panic!("expected F64, got {other:?}"),
            }
        }
    }

    #[test]
    fn f64_vectors_pack_under_tag_8_and_read_back_by_bits() {
        let rows = vec![
            vec![
                1.5,
                -0.0,
                f64::from_bits(f64::NAN.to_bits() ^ 0xDEAD),
                5e-324,
            ],
            Vec::new(),
            vec![f64::NEG_INFINITY],
        ];
        let buf = encoded(&rows);
        // Array(3) | F64s(4) + 4 words | F64s(0) | F64s(1) + 1 word.
        assert_eq!(buf.len(), 9 + (9 + 32) + 9 + (9 + 8));
        assert_eq!((buf[0], buf[9], buf[9 + 41], buf[9 + 50]), (6, 8, 8, 8));
        let mut sized = 0usize;
        rows.emit(&mut ByteSink(&mut sized));
        assert_eq!(sized, buf.len(), "the counting walk sizes the output");
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            let row_bits = |r: &Vec<f64>| r.iter().map(|v| v.to_bits()).collect();
            rows.iter().map(row_bits).collect()
        };
        let mut src = ByteSource::new(&buf);
        let back = Vec::<Vec<f64>>::read(&mut src).expect("decode");
        assert_eq!((src.pos, bits(&back)), (buf.len(), bits(&rows)));
        // The same rows written unpacked (a tree does) read back alike…
        let unpacked = encoded(&rows.to_value());
        assert_eq!(unpacked.len(), 9 + (9 + 36) + 9 + (9 + 9));
        let back = Vec::<Vec<f64>>::read(&mut ByteSource::new(&unpacked)).expect("decode");
        assert_eq!(bits(&back), bits(&rows));
        // …a packed array is one value to the structural walk, and a tree
        // read of it is the array it stands for.
        assert_eq!(walk(&buf), Ok(()));
        assert_eq!(encoded(&roundtrip_bytes(&buf)), unpacked);
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocating() {
        // A packed array claiming one more value than the bytes behind it.
        let mut buf = vec![8u8];
        buf.extend_from_slice(&3u64.to_le_bytes());
        buf.extend_from_slice(&[0; 23]);
        assert_eq!(
            walk(&buf),
            Err(SnapshotError::Decode(
                "declared count 3 exceeds remaining capacity 2".into()
            ))
        );
        assert!(Vec::<f64>::read(&mut ByteSource::new(&buf)).is_err());
        buf[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(walk(&buf), Err(SnapshotError::Decode(_))));
        // Array claiming u64::MAX elements with no bytes behind it.
        let mut buf = vec![6u8];
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(walk(&buf), Err(SnapshotError::Decode(_))));
        assert!(Value::read(&mut ByteSource::new(&buf)).is_err());
    }

    /// `levels` nested single-element arrays around a `Null`.
    fn nested(levels: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        for _ in 0..levels {
            buf.push(6u8);
            buf.extend_from_slice(&1u64.to_le_bytes());
        }
        buf.push(0u8);
        buf
    }

    #[test]
    fn deep_nesting_is_bounded() {
        assert!(matches!(walk(&nested(1000)), Err(SnapshotError::Decode(_))));
        assert!(Value::read(&mut ByteSource::new(&nested(1000))).is_err());
        // The bound is exact: a value may sit `MAX_DEPTH` containers deep,
        // typed read and structural walk alike.
        assert_eq!(walk(&nested(MAX_DEPTH)), Ok(()));
        assert!(Value::read(&mut ByteSource::new(&nested(MAX_DEPTH))).is_ok());
        assert!(walk(&nested(MAX_DEPTH + 1)).is_err());
        assert!(Value::read(&mut ByteSource::new(&nested(MAX_DEPTH + 1))).is_err());
    }

    #[test]
    fn containers_close_themselves_at_any_depth() {
        // Siblings after a nested container are read at the right level:
        // the depth ledger must pop exhausted containers before the next
        // key or value, or `MAX_DEPTH` would trip on wide, shallow data.
        let wide = Value::Array(
            (0..4 * MAX_DEPTH)
                .map(|i| {
                    Value::Object(vec![
                        ("a".into(), Value::Array(vec![Value::U64(i as u64)])),
                        ("b".into(), Value::Array(Vec::new())),
                        ("c".into(), Value::Null),
                    ])
                })
                .collect(),
        );
        assert_eq!(roundtrip(&wide), wide);
        assert_eq!(walk(&encoded(&wide)), Ok(()));
    }
}
