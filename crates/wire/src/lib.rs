//! `ns-wire` — the length-prefixed, versioned binary tick/verdict
//! protocol that carries telemetry from collectors to the streaming
//! engine over a socket.
//!
//! The batch and in-process streaming APIs assume the caller and the
//! engine share an address space. A monitoring deployment does not: the
//! collector daemons run on thousands of physical nodes and ship samples
//! over TCP. This crate defines the transport unit — one [`Frame`] — and
//! nothing else: no sockets are opened here, so the codec is testable
//! byte by byte and both sides (the ingest server in `ns-stream`, the
//! client in `ns-telemetry`) share one grammar. [`Tick`], the sample a
//! frame carries, is defined here too, so the simulator, the client and the
//! engine agree on it while this crate depends on nothing but `serde` and
//! `rayon`.
//!
//! # Frame layout (version 1)
//!
//! ```text
//! magic "NSWP" (4) | version u16 LE | kind u8 | payload_len u32 LE | payload | fnv1a64 u64 LE
//! ```
//!
//! The FNV-1a 64 checksum is taken over everything before it (header +
//! payload), mirroring the `NSSN` snapshot envelope. Floats travel as
//! raw IEEE-754 bits, so NaN payloads and `-0.0` survive the wire
//! byte-exactly — the over-the-wire differential suite compares verdict
//! scores with `to_bits`, not `==`.
//!
//! # Totality
//!
//! [`decode_frame`] never panics on hostile bytes: every malformed input
//! maps to a typed [`WireError`] (`crates/stream/tests/wire_corruption.rs`
//! drives every truncation length and every single-bit flip through it).
//! The check order is deliberate: magic → length sanity (so a hostile
//! length cannot force a huge allocation or an unbounded read) →
//! checksum → version gate → kind gate → payload decode. A corrupted
//! version byte therefore reports the corruption ([`WireError::Corrupt`]),
//! while an intact frame from a newer protocol reports
//! [`WireError::UnsupportedVersion`]. The order is built from three
//! steps — *extent* (header checks), *checksum*, *checked decode* — that
//! [`decode_frame`] runs on one frame and [`FrameAssembler`] on up to
//! four at a time, finishing them in stream order.
//!
//! # Reassembly
//!
//! TCP is a byte stream: one `read` may return half a frame or three and
//! a half. [`FrameAssembler`] decodes the whole frames of each read where
//! they lie, buffers only the incomplete tail, and yields frames in
//! order; `tests/proptest_wire.rs` proves reassembly is invariant under
//! random split points.
//!
//! # Four frames per checksum pass
//!
//! One FNV-1a chain advances a byte per multiply latency (≈ 700 MiB/s),
//! which made the checksum the largest cost of a 4.5 KB tick frame. The
//! format cannot change, but frames are independent: the encoder
//! ([`encode_ticks_into`]) and the assembler hash four of them in one
//! interleaved loop, each digest equal to [`fnv1a64`] of its frame.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Leading magic of every frame: `NSWP` ("NodeSentry Wire Protocol").
pub const WIRE_MAGIC: [u8; 4] = *b"NSWP";
/// Current wire protocol version.
pub const WIRE_VERSION: u16 = 1;
/// Frame header: magic (4) + version (2) + kind (1) + payload len (4).
pub const HEADER_LEN: usize = 11;
/// Trailing checksum width.
pub const TRAILER_LEN: usize = 8;
/// Hard ceiling on a frame's payload. A tick for a 1,000-column catalog
/// is ~8 KiB; anything near this bound is hostile, not telemetry, and is
/// rejected before any allocation or blocking read sized from it.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 20;

/// One telemetry sample for one node — the unit every online consumer of
/// NodeSentry speaks: the engine in `ns-stream` ingests them, the fault
/// layer in `ns-telemetry::faults` perturbs sequences of them, and
/// [`Frame::Tick`] carries one over a socket.
///
/// A *clean* feed delivers, per node, exactly one tick per step starting
/// at 0 with no gaps, duplicates, or reordering. A *real* feed does not:
/// collectors drop samples, deliver late and twice, reset counters, skew
/// clocks, and black out whole nodes. The streaming engine is hardened
/// against all of those (see `ns-stream`); the fault model is documented
/// in DESIGN.md §"Fault model & degraded mode".
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tick {
    pub node: usize,
    /// Global step index over the monitoring horizon.
    pub step: usize,
    /// Raw metric values (may contain NaN for lost samples).
    pub values: Vec<f64>,
    /// Whether a job transition occurs at this step (from the scheduler).
    pub transition: bool,
}

/// Typed failures of the wire layer. Decoding is total: hostile bytes
/// land here, never in a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does. Over a socket this is a
    /// torn frame (peer died mid-write); in an assembler it just means
    /// "wait for more bytes".
    Truncated { expected: usize, have: usize },
    /// The leading 4 bytes are not `NSWP` — not a frame boundary.
    BadMagic,
    /// Header or payload bytes do not match the trailing checksum.
    Corrupt,
    /// Checksum-intact frame from a protocol version this build cannot
    /// read.
    UnsupportedVersion { found: u16, supported: u16 },
    /// Checksum-intact frame whose kind byte names no known frame.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    Oversized { declared: u64, max: u64 },
    /// Structurally invalid payload (bad counts, bad enum ordinals,
    /// trailing bytes).
    Decode(String),
    /// Socket-level failure wrapped for callers that mix I/O and
    /// protocol errors in one result.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { expected, have } => {
                write!(f, "frame truncated: need {expected} bytes, have {have}")
            }
            WireError::BadMagic => write!(f, "not a wire frame: bad magic"),
            WireError::Corrupt => write!(f, "frame checksum mismatch"),
            WireError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "wire version {found} unsupported (this build speaks {supported})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized { declared, max } => {
                write!(f, "declared payload {declared} exceeds the {max}-byte cap")
            }
            WireError::Decode(e) => write!(f, "frame payload malformed: {e}"),
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

impl WireError {
    /// Stable class label for metrics (`ns_wire_errors_total{class=...}`).
    pub fn class(&self) -> &'static str {
        match self {
            WireError::Truncated { .. } => "truncated",
            WireError::BadMagic => "bad_magic",
            WireError::Corrupt => "corrupt",
            WireError::UnsupportedVersion { .. } => "unsupported_version",
            WireError::UnknownKind(_) => "unknown_kind",
            WireError::Oversized { .. } => "oversized",
            WireError::Decode(_) => "decode",
            WireError::Io(_) => "io",
        }
    }
}

/// What a connection is for, declared by its opening [`Frame::Hello`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Sends ticks; may request finalization with [`Frame::Finish`].
    Ingest,
    /// Receives the verdict stream once the run finalizes.
    Verdicts,
}

impl Role {
    fn to_ordinal(self) -> u8 {
        match self {
            Role::Ingest => 0,
            Role::Verdicts => 1,
        }
    }

    fn from_ordinal(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(Role::Ingest),
            1 => Ok(Role::Verdicts),
            other => Err(WireError::Decode(format!("bad role ordinal {other}"))),
        }
    }
}

/// Scoring precision tier of the engine behind a connection. Defined
/// here (and re-exported by `ns-stream` as its `EngineConfig` field) so
/// wire clients can announce the tier they expect without an engine
/// dependency. Scores travel the wire as f64 bits under both tiers —
/// the tier changes engine arithmetic, never the wire format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScoringPrecision {
    /// Full-precision scoring; streaming verdicts are bit-identical to
    /// batch scoring. The default everywhere.
    #[default]
    F64,
    /// Opt-in f32 scoring pipeline (f32 weight copies, f32 kernels);
    /// faster, with a measured — not pinned — accuracy delta vs f64.
    F32,
}

impl ScoringPrecision {
    /// Wire/snapshot ordinal (pinned: part of the on-wire format).
    pub fn to_ordinal(self) -> u8 {
        match self {
            ScoringPrecision::F64 => 0,
            ScoringPrecision::F32 => 1,
        }
    }

    pub fn from_ordinal(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(ScoringPrecision::F64),
            1 => Ok(ScoringPrecision::F32),
            other => Err(WireError::Decode(format!("bad precision ordinal {other}"))),
        }
    }

    /// Stable label for JSON reports and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            ScoringPrecision::F64 => "f64",
            ScoringPrecision::F32 => "f32",
        }
    }
}

impl serde::Serialize for ScoringPrecision {
    fn emit<S: serde::Sink>(&self, sink: &mut S) {
        sink.str(match self {
            ScoringPrecision::F64 => "F64",
            ScoringPrecision::F32 => "F32",
        })
    }
}

impl serde::Deserialize for ScoringPrecision {
    fn read<'de, S: serde::Source<'de>>(src: &mut S) -> Result<Self, serde::Error> {
        match src.next()? {
            // Absent fields decode from Null: snapshots written before
            // the tier existed are F64 by construction.
            serde::Event::Null | serde::Event::Str("F64") => Ok(ScoringPrecision::F64),
            serde::Event::Str("F32") => Ok(ScoringPrecision::F32),
            other => Err(serde::Error::msg(format!(
                "expected scoring precision, got {other:?}"
            ))),
        }
    }
}

/// One detection outcome on the wire. Mirrors `ns_stream::Verdict` field
/// for field, with the score as raw IEEE bits so equality over the wire
/// is bit equality. (Defined here rather than borrowed from `ns-stream`
/// so the client side needs no dependency on the engine.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerdictMsg {
    pub node: u64,
    pub step: u64,
    /// `f64::to_bits` of the normalized anomaly score.
    pub score_bits: u64,
    pub anomalous: bool,
    pub cluster: u64,
    /// True when the engine marked the verdict `Degraded`.
    pub degraded: bool,
}

impl VerdictMsg {
    pub fn score(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }
}

/// End-of-stream summary closing a verdict stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReportMsg {
    pub n_verdicts: u64,
    pub n_degraded: u64,
    /// Raw ticks the engine ingested (post socket, pre fault rejection).
    pub n_ticks: u64,
    /// Effective shard count the engine ran with.
    pub n_shards: u64,
}

/// Error codes carried by [`Frame::Error`] (server → client).
pub mod error_code {
    /// The frame was understood but arrived in a state that forbids it
    /// (e.g. a tick after the run finalized).
    pub const REJECTED: u8 = 1;
    /// The connection's bytes stopped parsing; the server is closing it.
    pub const PROTOCOL: u8 = 2;
    /// The engine itself failed (shard down, ingestion error).
    pub const ENGINE: u8 = 3;
}

/// The transport unit. Kind ordinals are pinned — part of the on-wire
/// format, asserted by the golden fixture in `tests/serde_roundtrip.rs`.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Connection preamble declaring intent. Optional for ingest
    /// connections (a bare tick implies `Role::Ingest`), required to
    /// subscribe to verdicts. `precision` optionally announces the
    /// scoring tier the client expects; the server rejects a mismatch
    /// with a typed [`Frame::Error`] instead of silently serving scores
    /// from a different pipeline. `None` encodes exactly the version-1
    /// nine-byte payload, so old clients and the pinned golden fixtures
    /// are untouched.
    Hello {
        role: Role,
        client_id: u64,
        precision: Option<ScoringPrecision>,
    },
    /// One telemetry sample (client → server).
    Tick(Tick),
    /// Finalize the run: flush every node and stream verdicts back.
    Finish,
    /// One detection outcome (server → client).
    Verdict(VerdictMsg),
    /// End-of-stream summary (server → client, after the last verdict).
    Report(ReportMsg),
    /// Typed server-side failure notification, sent best-effort before
    /// the server closes a misbehaving or unlucky connection.
    Error { code: u8, msg: String },
    /// Liveness / end-to-end latency probe. The server replies
    /// [`Frame::Pong`] with the same token once every frame received
    /// before the ping has been ingested.
    Ping { token: u64 },
    /// Reply to [`Frame::Ping`].
    Pong { token: u64 },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0,
            Frame::Tick(_) => KIND_TICK,
            Frame::Finish => 2,
            Frame::Verdict(_) => 3,
            Frame::Report(_) => 4,
            Frame::Error { .. } => 5,
            Frame::Ping { .. } => 6,
            Frame::Pong { .. } => 7,
        }
    }

    /// Stable kind label for metrics (`ns_wire_frames_total{kind=...}`).
    pub fn kind_label(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Tick(_) => "tick",
            Frame::Finish => "finish",
            Frame::Verdict(_) => "verdict",
            Frame::Report(_) => "report",
            Frame::Error { .. } => "error",
            Frame::Ping { .. } => "ping",
            Frame::Pong { .. } => "pong",
        }
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn encode_payload(f: &Frame, out: &mut Vec<u8>) {
    match f {
        Frame::Hello {
            role,
            client_id,
            precision,
        } => {
            out.push(role.to_ordinal());
            out.extend_from_slice(&client_id.to_le_bytes());
            if let Some(p) = precision {
                out.push(p.to_ordinal());
            }
        }
        Frame::Tick(t) => encode_tick_payload(t, out),
        Frame::Finish => {}
        Frame::Verdict(v) => {
            out.extend_from_slice(&v.node.to_le_bytes());
            out.extend_from_slice(&v.step.to_le_bytes());
            out.extend_from_slice(&v.score_bits.to_le_bytes());
            out.push(v.anomalous as u8);
            out.extend_from_slice(&v.cluster.to_le_bytes());
            out.push(v.degraded as u8);
        }
        Frame::Report(r) => {
            out.extend_from_slice(&r.n_verdicts.to_le_bytes());
            out.extend_from_slice(&r.n_degraded.to_le_bytes());
            out.extend_from_slice(&r.n_ticks.to_le_bytes());
            out.extend_from_slice(&r.n_shards.to_le_bytes());
        }
        Frame::Error { code, msg } => {
            out.push(*code);
            out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
            out.extend_from_slice(msg.as_bytes());
        }
        Frame::Ping { token } | Frame::Pong { token } => {
            out.extend_from_slice(&token.to_le_bytes());
        }
    }
}

/// Kind ordinal of [`Frame::Tick`].
const KIND_TICK: u8 = 1;
/// Tick payload before its values: node, step, transition, count.
const TICK_FIXED_LEN: usize = 8 + 8 + 1 + 4;

/// Exact encoded size of `tick`'s frame, envelope included — what the
/// encoder reserves, and what a sender budgets its write buffer with.
pub fn tick_frame_len(tick: &Tick) -> usize {
    HEADER_LEN + TICK_FIXED_LEN + 8 * tick.values.len() + TRAILER_LEN
}

fn encode_tick_payload(t: &Tick, out: &mut Vec<u8>) {
    out.extend_from_slice(&(t.node as u64).to_le_bytes());
    out.extend_from_slice(&(t.step as u64).to_le_bytes());
    out.push(t.transition as u8);
    out.extend_from_slice(&(t.values.len() as u32).to_le_bytes());
    // One pass over a pre-sized region: on a little-endian target this
    // compiles to a block copy, not a `Vec` growth check per value.
    let at = out.len();
    out.resize(at + 8 * t.values.len(), 0);
    for (dst, v) in out[at..].chunks_exact_mut(8).zip(&t.values) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Append one frame's header, its payload from `payload`, and eight
/// trailer bytes left for [`seal_frames`] to fill.
fn append_unsealed(kind: u8, out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&0u32.to_le_bytes());
    payload(out);
    let payload_len = (out.len() - start - HEADER_LEN) as u32;
    debug_assert!(payload_len <= MAX_PAYLOAD_LEN, "frame exceeds payload cap");
    out[start + 7..start + HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    out.extend_from_slice(&[0u8; TRAILER_LEN]);
}

/// Write the checksum of every frame in `out[from..]` (laid down by
/// [`append_unsealed`], so the length fields are this crate's own) into
/// its trailer, [`LANES`] frames per hashing pass.
fn seal_frames(out: &mut [u8], from: usize) {
    let mut pos = from;
    while pos < out.len() {
        // Body extents of the next frames; empty past the last one.
        let mut bodies = [(pos, pos); LANES];
        for body in &mut bodies {
            if pos < out.len() {
                let declared = out[pos + 7..pos + HEADER_LEN].try_into().expect("4 bytes");
                let end = pos + HEADER_LEN + u32::from_le_bytes(declared) as usize;
                *body = (pos, end);
                pos = end + TRAILER_LEN;
            }
        }
        let sums = fnv1a64_lanes(bodies.map(|(start, end)| &out[start..end]));
        for ((start, end), sum) in bodies.into_iter().zip(sums) {
            if end > start {
                out[end..end + TRAILER_LEN].copy_from_slice(&sum.to_le_bytes());
            }
        }
    }
}

/// Append one frame's complete wire envelope to `out`.
pub fn encode_frame_into(f: &Frame, out: &mut Vec<u8>) {
    let from = out.len();
    out.reserve(match f {
        Frame::Tick(t) => tick_frame_len(t),
        _ => 64,
    });
    append_unsealed(f.kind(), out, |out| encode_payload(f, out));
    seal_frames(out, from);
}

/// Append one [`Frame::Tick`] envelope per borrowed tick to `out` — the
/// same bytes as [`encode_frame`] on each, without cloning a tick into
/// a `Frame`, with one exact reservation, and with the checksums taken
/// four frames at a time.
pub fn encode_ticks_into(ticks: &[Tick], out: &mut Vec<u8>) {
    let from = out.len();
    out.reserve(ticks.iter().map(tick_frame_len).sum());
    for t in ticks {
        append_unsealed(KIND_TICK, out, |out| encode_tick_payload(t, out));
    }
    seal_frames(out, from);
}

/// Encode one frame into its complete wire envelope.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(f, &mut out);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn take<'a>(b: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], WireError> {
    let end = pos
        .checked_add(n)
        .ok_or_else(|| WireError::Decode("payload cursor overflow".into()))?;
    if end > b.len() {
        return Err(WireError::Decode(format!(
            "payload ends at {} of {} needed",
            b.len(),
            end
        )));
    }
    let s = &b[*pos..end];
    *pos = end;
    Ok(s)
}

fn take_u64(b: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    Ok(u64::from_le_bytes(
        take(b, pos, 8)?.try_into().expect("8 bytes"),
    ))
}

fn take_u32(b: &[u8], pos: &mut usize) -> Result<u32, WireError> {
    Ok(u32::from_le_bytes(
        take(b, pos, 4)?.try_into().expect("4 bytes"),
    ))
}

fn take_u8(b: &[u8], pos: &mut usize) -> Result<u8, WireError> {
    Ok(take(b, pos, 1)?[0])
}

fn take_bool(b: &[u8], pos: &mut usize) -> Result<bool, WireError> {
    match take_u8(b, pos)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(WireError::Decode(format!("bad bool byte {other}"))),
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut pos = 0usize;
    let frame = match kind {
        0 => {
            let role = Role::from_ordinal(take_u8(payload, &mut pos)?)?;
            let client_id = take_u64(payload, &mut pos)?;
            // Optional trailing precision byte: absent in version-1
            // nine-byte payloads, one ordinal when announced. Anything
            // past it still lands in the trailing-bytes check below.
            let precision = if pos < payload.len() {
                Some(ScoringPrecision::from_ordinal(take_u8(payload, &mut pos)?)?)
            } else {
                None
            };
            Frame::Hello {
                role,
                client_id,
                precision,
            }
        }
        KIND_TICK => {
            let node = take_u64(payload, &mut pos)? as usize;
            let step = take_u64(payload, &mut pos)? as usize;
            let transition = take_bool(payload, &mut pos)?;
            let n = take_u32(payload, &mut pos)? as usize;
            // Bounds-check the count against the bytes actually present
            // so a hostile count cannot force a giant allocation.
            if n > (payload.len() - pos) / 8 {
                return Err(WireError::Decode(format!(
                    "tick declares {n} values but only {} payload bytes remain",
                    payload.len() - pos
                )));
            }
            // The value bytes once, then one conversion pass into one
            // exactly-sized allocation.
            let values = take(payload, &mut pos, 8 * n)?
                .chunks_exact(8)
                .map(|raw| f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 bytes"))))
                .collect();
            Frame::Tick(Tick {
                node,
                step,
                values,
                transition,
            })
        }
        2 => Frame::Finish,
        3 => Frame::Verdict(VerdictMsg {
            node: take_u64(payload, &mut pos)?,
            step: take_u64(payload, &mut pos)?,
            score_bits: take_u64(payload, &mut pos)?,
            anomalous: take_bool(payload, &mut pos)?,
            cluster: take_u64(payload, &mut pos)?,
            degraded: take_bool(payload, &mut pos)?,
        }),
        4 => Frame::Report(ReportMsg {
            n_verdicts: take_u64(payload, &mut pos)?,
            n_degraded: take_u64(payload, &mut pos)?,
            n_ticks: take_u64(payload, &mut pos)?,
            n_shards: take_u64(payload, &mut pos)?,
        }),
        5 => {
            let code = take_u8(payload, &mut pos)?;
            let len = take_u32(payload, &mut pos)? as usize;
            let raw = take(payload, &mut pos, len)?;
            let msg = String::from_utf8(raw.to_vec())
                .map_err(|_| WireError::Decode("error message is not UTF-8".into()))?;
            Frame::Error { code, msg }
        }
        6 => Frame::Ping {
            token: take_u64(payload, &mut pos)?,
        },
        7 => Frame::Pong {
            token: take_u64(payload, &mut pos)?,
        },
        other => return Err(WireError::UnknownKind(other)),
    };
    if pos != payload.len() {
        return Err(WireError::Decode(format!(
            "{} trailing payload bytes",
            payload.len() - pos
        )));
    }
    Ok(frame)
}

/// Total length of the frame whose header `header` starts with (at
/// least [`HEADER_LEN`] bytes). The one place the magic is compared and
/// the length cap enforced — before anything is sized from the length,
/// so a flipped high bit cannot make a reader allocate or wait for
/// gigabytes.
fn declared_frame_len(header: &[u8]) -> Result<usize, WireError> {
    if header[..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let declared = u32::from_le_bytes(header[7..HEADER_LEN].try_into().expect("4 bytes"));
    if declared > MAX_PAYLOAD_LEN {
        return Err(WireError::Oversized {
            declared: declared as u64,
            max: MAX_PAYLOAD_LEN as u64,
        });
    }
    Ok(HEADER_LEN + declared as usize + TRAILER_LEN)
}

/// Step 1 of decoding, *extent*: how many bytes the first frame in
/// `buf` occupies, from its header alone. [`WireError::Truncated`]
/// means "the bytes so far are a valid prefix — feed me more".
fn frame_extent(buf: &[u8]) -> Result<usize, WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            expected: HEADER_LEN,
            have: buf.len(),
        });
    }
    let total = declared_frame_len(buf)?;
    if buf.len() < total {
        return Err(WireError::Truncated {
            expected: total,
            have: buf.len(),
        });
    }
    Ok(total)
}

/// The checksummed part of a whole frame: everything before its trailer
/// (and nothing of the empty slice that stands for "no frame").
fn frame_body(frame: &[u8]) -> &[u8] {
    &frame[..frame.len().saturating_sub(TRAILER_LEN)]
}

/// Step 3, *checked decode*: `frame` is exactly one frame by
/// [`frame_extent`] and `sum` the FNV-1a 64 of its [`frame_body`]
/// (step 2, left to the caller so several frames can share one hashing
/// pass). Version gate after the checksum, like the NSSN envelope: an
/// intact future-version frame reports `UnsupportedVersion`; a
/// corrupted version field reports `Corrupt`.
fn decode_checked(frame: &[u8], sum: u64) -> Result<Frame, WireError> {
    let body = frame_body(frame);
    let stored = frame[body.len()..].try_into().expect("8 bytes");
    if sum != u64::from_le_bytes(stored) {
        return Err(WireError::Corrupt);
    }
    let version = u16::from_le_bytes([body[4], body[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: WIRE_VERSION,
        });
    }
    decode_payload(body[6], &body[HEADER_LEN..])
}

/// Decode the first frame in `buf`. Returns the frame and the number of
/// bytes it occupied. Total: every malformed prefix yields a typed
/// [`WireError`]; [`WireError::Truncated`] specifically means "the bytes
/// so far are a valid prefix — feed me more".
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    let total = frame_extent(buf)?;
    let frame = &buf[..total];
    Ok((decode_checked(frame, fnv1a64(frame_body(frame)))?, total))
}

/// FNV-1a 64 offset basis: the state of a chain over no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Continue an FNV-1a 64 chain at state `h` over `bytes` — the one
/// byte-wise step every digest here is built from, and the step the model
/// fingerprint (`NodeSentry::fingerprint`) streams its tagged walk through.
#[inline]
pub fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64 over a byte slice — the checksum of this protocol's frames
/// (the `NSSN` snapshot envelope cuts its payload into blocks and hashes
/// them a word at a time: [`word64_blocks`]; only its retired version 1
/// used this chain, and its retired version 2 one per block).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// Frames hashed per pass. One FNV-1a chain is a dependent xor (1 cycle)
/// and multiply (3) per byte while the multiplier accepts one operation
/// a cycle, so four independent chains are what fills it; a fifth would
/// only queue.
const LANES: usize = 4;

/// [`fnv1a64`] of each lane, all chains advanced in one loop. The lanes
/// must be independent byte strings: whole frames, which a cycle or a
/// socket read holds several of, or the fixed-size blocks a digest is
/// *defined* over ([`fnv1a64_blocks`], the retired version-2 snapshot
/// envelope).
/// One long string under one plain [`fnv1a64`] — a frame, a version-1
/// snapshot — is a single chain and cannot be split.
///
/// Ragged lengths run in lock-step to the shortest lane and finish
/// their tails serially. An empty lane (a final group short of
/// [`LANES`] frames) would make that shortest length zero, so it reads
/// along with a non-empty lane instead and keeps the offset basis, the
/// digest of no bytes.
fn fnv1a64_lanes(lanes: [&[u8]; LANES]) -> [u64; LANES] {
    let shortest = lanes
        .iter()
        .filter(|lane| !lane.is_empty())
        .min_by_key(|lane| lane.len())
        .copied()
        .unwrap_or_default();
    let step = shortest.len();
    let [a, b, c, d] = lanes.map(|lane| {
        if lane.is_empty() {
            shortest
        } else {
            &lane[..step]
        }
    });
    let mut h = [FNV_OFFSET; LANES];
    for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
        h[0] = (h[0] ^ *a as u64).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ *b as u64).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ *c as u64).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ *d as u64).wrapping_mul(FNV_PRIME);
    }
    for (h, lane) in h.iter_mut().zip(lanes) {
        *h = if lane.is_empty() {
            FNV_OFFSET
        } else {
            fnv1a64_from(*h, &lane[step..])
        };
    }
    h
}

/// Body bytes from which [`word64_blocks`] hashes on the pool, and from
/// which the snapshot encoder writes its node sections there. Measured
/// on the 2-vCPU bench box for the byte chain this digest replaced, at
/// 64 KiB blocks: two runs read 1.75× of one at 512 KiB and 1.47–1.86×
/// from 640 KiB to 20 MiB; just past two groups (513 KiB) one run holds
/// nearly all the work and it reads 0.99×.
pub const PAR_MIN_BYTES: usize = 1 << 19;

/// FNV-1a 64 over `head ‖ d₀ ‖ d₁ ‖ … ‖ body_len`, digests and length as
/// u64 LE: the fold every block digest of an `NSSN` snapshot envelope
/// ends in, whichever chain made the `dᵢ`.
pub fn fold_block_digests(head: &[u8], digests: &[u64], body_len: usize) -> u64 {
    let h = digests
        .iter()
        .fold(fnv1a64(head), |h, d| fnv1a64_from(h, &d.to_le_bytes()));
    fnv1a64_from(h, &(body_len as u64).to_le_bytes())
}

/// The version-2 snapshot checksum: [`fold_block_digests`] of the
/// [`fnv1a64`] of each `block`-byte piece of `body` (the last one ragged,
/// none for an empty body), four blocks per pass on this thread. Kept so
/// that an intact version-2 file is told apart from a damaged one.
pub fn fnv1a64_blocks(head: &[u8], body: &[u8], block: usize) -> u64 {
    assert!(block > 0, "zero-sized digest blocks");
    let mut digests = Vec::with_capacity(body.len().div_ceil(block));
    for group in body.chunks(block.saturating_mul(LANES)) {
        let mut blocks = group.chunks(block);
        let lanes = std::array::from_fn(|_| blocks.next().unwrap_or_default());
        digests.extend_from_slice(&fnv1a64_lanes(lanes)[..group.len().div_ceil(block)]);
    }
    fold_block_digests(head, &digests, body.len())
}

/// Odd, so `h ↦ h·P` is a bijection on `u64`.
const WORD_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the word chain: a bijection in `w` for a fixed state and
/// in the state for a fixed `w`, so a change confined to one word always
/// changes the chain's end. The multiply carries a flipped bit only
/// upward; the rotate brings the top bits back down, so two bit-63 flips
/// in successive words do not cancel as they would under a bare
/// `(h ^ w)·P`.
#[inline(always)]
fn word_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(WORD_PRIME).rotate_left(31)
}

/// The word chain from state `h` over `bytes`: one [`word_step`] per
/// little-endian `u64`, then — when `bytes.len()` is not a multiple of
/// eight — one more over the 1–7 trailing bytes zero-padded to a word.
/// (The padding is unambiguous where it is used: the envelope folds the
/// body length in, which fixes every block's length.)
fn word_chain(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = word_step(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = word_step(h, u64::from_le_bytes(last));
    }
    h
}

/// [`word_chain`] from [`FNV_OFFSET`] of each lane, the chains advanced
/// in lock-step over the words every lane has, each lane's rest alone.
/// A word step is a dependent xor, multiply and rotate (≈ 5 cycles), so
/// four independent chains keep the multiplier busy.
fn word_chain_lanes(lanes: [&[u8]; LANES]) -> [u64; LANES] {
    let words = lanes.iter().map(|lane| lane.len() / 8).min().unwrap_or(0);
    let [a, b, c, d] = lanes.map(|lane| lane[..8 * words].chunks_exact(8));
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    let mut h = [FNV_OFFSET; LANES];
    for (((a, b), c), d) in a.zip(b).zip(c).zip(d) {
        h[0] = word_step(h[0], word(a));
        h[1] = word_step(h[1], word(b));
        h[2] = word_step(h[2], word(c));
        h[3] = word_step(h[3], word(d));
    }
    std::array::from_fn(|k| word_chain(h[k], &lanes[k][8 * words..]))
}

/// The version-3 block digests of `body` into `digests` (one per
/// `block`-byte piece, the last one ragged): from [`FNV_OFFSET`], one
/// step `h = rotl((h ^ w)·0x9E3779B97F4A7C15, 31)` per little-endian
/// word `w` of the block, a 1–7-byte tail zero-padded to one more word;
/// four blocks per pass on this thread. A run of
/// whole blocks cut from a longer body gets the digests those blocks
/// have there, which is what lets a writer hash the blocks it has just
/// written.
pub fn word64_block_digests(body: &[u8], block: usize, digests: &mut [u64]) {
    assert!(block > 0, "zero-sized digest blocks");
    assert_eq!(
        digests.len(),
        body.len().div_ceil(block),
        "one digest a block"
    );
    for (group, digests) in body
        .chunks(block.saturating_mul(LANES))
        .zip(digests.chunks_mut(LANES))
    {
        let mut blocks = group.chunks(block);
        let lanes = std::array::from_fn(|_| blocks.next().unwrap_or_default());
        digests.copy_from_slice(&word_chain_lanes(lanes)[..digests.len()]);
    }
}

/// The version-3 snapshot checksum: [`fold_block_digests`] of the
/// [`word64_block_digests`] of `body`. Eight bytes a step instead of
/// one, and blocks independent, so four advance per pass.
///
/// From [`PAR_MIN_BYTES`] of body on, the groups of four blocks are dealt
/// to the pool in one contiguous run per participant (below it, one run
/// on this thread — the same loop); the digests land in block order and
/// are folded here, so the split decides only who hashes a block, never
/// the value.
pub fn word64_blocks(head: &[u8], body: &[u8], block: usize) -> u64 {
    assert!(block > 0, "zero-sized digest blocks");
    let group_len = block.saturating_mul(LANES);
    let width = if body.len() < PAR_MIN_BYTES {
        1
    } else {
        rayon::current_num_threads()
    };
    let run_groups = body.len().div_ceil(group_len).div_ceil(width).max(1);
    let run_len = run_groups.saturating_mul(group_len);
    let mut digests = vec![0u64; body.len().div_ceil(block)];
    digests
        .par_chunks_mut(run_groups * LANES)
        .enumerate()
        .for_each(|(run, digests)| {
            let start = run * run_len;
            let end = start.saturating_add(run_len).min(body.len());
            word64_block_digests(&body[start..end], block, digests);
        });
    fold_block_digests(head, &digests, body.len())
}

// ---------------------------------------------------------------------
// Stream reassembly
// ---------------------------------------------------------------------

/// Reassembles whole frames from arbitrary byte-stream splits.
///
/// Feed it whatever each socket read returned; it yields every frame
/// that completed and buffers the rest. A hard protocol error (bad
/// magic, checksum, hostile length) is returned as `Err` and the
/// assembler should be discarded with its connection — a byte stream
/// that has lost framing cannot be resynchronized safely.
#[derive(Default)]
pub struct FrameAssembler {
    /// The one frame the reads so far left incomplete; complete frames
    /// are decoded from the caller's slice where they lie.
    buf: Vec<u8>,
}

impl FrameAssembler {
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Bytes held that do not yet form a complete frame. Non-zero at
    /// connection close means the peer died mid-frame (a torn frame).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Append bytes and pop every now-complete frame, in order. On a
    /// hard error nothing is returned; [`push_into`](Self::push_into)
    /// keeps the frames that preceded it.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
        let mut out = Vec::new();
        self.push_into(bytes, &mut out)?;
        Ok(out)
    }

    /// Append bytes and push every now-complete frame onto `out`, in
    /// order. On a hard error `out` still gains the valid frames that
    /// preceded the bad one in the stream: they were checksummed and
    /// whole, and which socket read they shared with the damage is an
    /// accident of segmentation.
    pub fn push_into(&mut self, bytes: &[u8], out: &mut Vec<Frame>) -> Result<(), WireError> {
        let walked = self.walk(bytes, out);
        if walked.is_err() {
            self.buf.clear();
        }
        walked
    }

    fn walk(&mut self, mut input: &[u8], out: &mut Vec<Frame>) -> Result<(), WireError> {
        if !self.buf.is_empty() && !self.fill_pending(&mut input)? {
            return Ok(());
        }
        // `buf` now holds nothing or exactly one whole frame, which
        // rides in the first group beside the frames still in `input`.
        loop {
            // Extent: gather up to LANES whole frames by header alone.
            let mut frames: [&[u8]; LANES] = [&[]; LANES];
            let mut n = 0;
            if !self.buf.is_empty() {
                frames[0] = &self.buf;
                n = 1;
            }
            let mut stop = None;
            while n < LANES {
                match frame_extent(input) {
                    Ok(total) => {
                        (frames[n], input) = input.split_at(total);
                        n += 1;
                    }
                    Err(e) => {
                        stop = Some(e);
                        break;
                    }
                }
            }
            // Checksum: one pass over the gathered bodies. Hashing ahead
            // of an earlier frame's verdict is safe — a digest has no
            // effect until it is compared.
            let sums = fnv1a64_lanes(frames.map(frame_body));
            // Checked decode, in stream order: the first bad frame
            // decides the error, whatever follows it in the group, and a
            // header-level `stop` reports only after the frames before it.
            for (frame, sum) in frames[..n].iter().zip(sums) {
                out.push(decode_checked(frame, sum)?);
            }
            self.buf.clear();
            match stop {
                None => {}
                Some(WireError::Truncated { .. }) => {
                    self.buf.extend_from_slice(input);
                    return Ok(());
                }
                Some(e) => return Err(e),
            }
        }
    }

    /// Top the pending partial frame up from the front of `input`,
    /// taking only the bytes it still needs — its header first, which
    /// says how many those are. True once the frame is whole.
    fn fill_pending(&mut self, input: &mut &[u8]) -> Result<bool, WireError> {
        let mut take_up_to = |buf: &mut Vec<u8>, len: usize| {
            let (head, rest) = input.split_at(len.saturating_sub(buf.len()).min(input.len()));
            buf.extend_from_slice(head);
            *input = rest;
            buf.len() >= len
        };
        if !take_up_to(&mut self.buf, HEADER_LEN) {
            return Ok(false);
        }
        let total = declared_frame_len(&self.buf)?;
        Ok(take_up_to(&mut self.buf, total))
    }
}

// ---------------------------------------------------------------------
// Blocking I/O helpers
// ---------------------------------------------------------------------

/// Read exactly one frame from a blocking reader. `Ok(None)` on clean
/// EOF at a frame boundary; EOF mid-frame reports the torn frame as
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut have = 0usize;
    while have < HEADER_LEN {
        let n = r.read(&mut header[have..])?;
        if n == 0 {
            if have == 0 {
                return Ok(None);
            }
            return Err(WireError::Truncated {
                expected: HEADER_LEN,
                have,
            });
        }
        have += n;
    }
    // Validate the header before allocating or reading a payload sized
    // from it; the rest of the frame then lands beside it in one buffer.
    let total = declared_frame_len(&header)?;
    let mut whole = vec![0u8; total];
    whole[..HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut whole[HEADER_LEN..]).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated {
                expected: total,
                have: HEADER_LEN,
            }
        } else {
            WireError::from(e)
        }
    })?;
    decode_frame(&whole).map(|(f, _)| Some(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                role: Role::Verdicts,
                client_id: 0xDEAD_BEEF,
                precision: None,
            },
            Frame::Hello {
                role: Role::Ingest,
                client_id: 7,
                precision: Some(ScoringPrecision::F32),
            },
            Frame::Tick(Tick {
                node: 7,
                step: 42,
                values: vec![1.5, f64::NAN, -0.0, f64::INFINITY],
                transition: true,
            }),
            Frame::Finish,
            Frame::Verdict(VerdictMsg {
                node: 7,
                step: 42,
                score_bits: (-0.0f64).to_bits(),
                anomalous: true,
                cluster: 3,
                degraded: false,
            }),
            Frame::Report(ReportMsg {
                n_verdicts: 100,
                n_degraded: 3,
                n_ticks: 480,
                n_shards: 4,
            }),
            Frame::Error {
                code: error_code::PROTOCOL,
                msg: "bad bytes".into(),
            },
            Frame::Ping { token: 99 },
            Frame::Pong { token: 99 },
        ]
    }

    /// Bit-aware frame equality (NaN != NaN under PartialEq).
    fn assert_frames_eq(a: &Frame, b: &Frame) {
        match (a, b) {
            (Frame::Tick(x), Frame::Tick(y)) => {
                assert_eq!(
                    (x.node, x.step, x.transition),
                    (y.node, y.step, y.transition)
                );
                assert_eq!(x.values.len(), y.values.len());
                for (u, v) in x.values.iter().zip(&y.values) {
                    assert_eq!(u.to_bits(), v.to_bits());
                }
            }
            _ => assert_eq!(a, b),
        }
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        for f in all_frames() {
            let bytes = encode_frame(&f);
            let (back, n) = decode_frame(&bytes).expect("decode");
            assert_eq!(n, bytes.len(), "whole buffer consumed");
            assert_frames_eq(&f, &back);
            // Byte-stable: re-encoding the decoded frame is a fixed point.
            assert_eq!(encode_frame(&back), bytes);
        }
    }

    #[test]
    fn hello_without_precision_keeps_v1_payload_length() {
        // The optional precision byte must not disturb old peers: a
        // `None` Hello encodes the original 9-byte payload, `Some` adds
        // exactly one ordinal byte.
        let bare = encode_frame(&Frame::Hello {
            role: Role::Ingest,
            client_id: 42,
            precision: None,
        });
        assert_eq!(bare.len(), HEADER_LEN + 9 + TRAILER_LEN);
        let tiered = encode_frame(&Frame::Hello {
            role: Role::Ingest,
            client_id: 42,
            precision: Some(ScoringPrecision::F64),
        });
        assert_eq!(tiered.len(), bare.len() + 1);
        let (back, _) = decode_frame(&tiered).expect("decode");
        assert_eq!(
            back,
            Frame::Hello {
                role: Role::Ingest,
                client_id: 42,
                precision: Some(ScoringPrecision::F64),
            }
        );
    }

    #[test]
    fn bad_precision_ordinal_is_typed() {
        let mut bytes = encode_frame(&Frame::Hello {
            role: Role::Ingest,
            client_id: 1,
            precision: Some(ScoringPrecision::F32),
        });
        let n = bytes.len();
        bytes[n - TRAILER_LEN - 1] = 9; // hostile ordinal
        let body_len = n - TRAILER_LEN;
        let sum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(WireError::Decode(_))));
    }

    #[test]
    fn precision_serde_value_roundtrip_and_null_default() {
        use serde::{Deserialize, Serialize, Value};
        for p in [ScoringPrecision::F64, ScoringPrecision::F32] {
            let v = p.to_value();
            assert_eq!(ScoringPrecision::from_value(&v).expect("roundtrip"), p);
        }
        // Pre-tier snapshots have no precision field; Null decodes F64.
        assert_eq!(
            ScoringPrecision::from_value(&Value::Null).expect("null"),
            ScoringPrecision::F64
        );
        assert!(ScoringPrecision::from_value(&Value::Str("f99".into())).is_err());
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = encode_frame(&all_frames()[1]);
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn single_bit_flips_never_panic_and_always_err() {
        let bytes = encode_frame(&all_frames()[1]);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                // A typed error is the contract; any Ok is a bug.
                if let Ok((frame, _)) = decode_frame(&bad) {
                    panic!("flip at byte {byte} bit {bit} decoded as {frame:?}");
                }
            }
        }
    }

    #[test]
    fn future_version_is_gated_after_checksum() {
        let mut bytes = encode_frame(&Frame::Finish);
        bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
        // Reseal so the checksum is valid for the new version bytes.
        let body_len = bytes.len() - TRAILER_LEN;
        let sum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::UnsupportedVersion {
                found: 7,
                supported: WIRE_VERSION
            })
        );
    }

    #[test]
    fn oversized_length_rejected_before_reading() {
        let mut bytes = encode_frame(&Frame::Finish);
        bytes[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn hostile_tick_count_rejected_without_allocation() {
        // A tick frame claiming u32::MAX values with an empty body.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&2u64.to_le_bytes());
        payload.push(0);
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(WireError::Decode(_))));
    }

    #[test]
    fn assembler_handles_arbitrary_splits() {
        let frames = all_frames();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        // 1-byte drip feed: worst-case splitting.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &wire {
            got.extend(asm.push(&[b]).expect("clean stream"));
        }
        assert_eq!(asm.pending_bytes(), 0);
        assert_eq!(got.len(), frames.len());
        for (a, b) in frames.iter().zip(&got) {
            assert_frames_eq(a, b);
        }
    }

    #[test]
    fn assembler_reports_corruption_and_clears() {
        let mut bytes = encode_frame(&Frame::Finish);
        let n = bytes.len();
        bytes[n - 1] ^= 0x40; // trailer flip
        let mut asm = FrameAssembler::new();
        assert!(asm.push(&bytes).is_err());
        assert_eq!(asm.pending_bytes(), 0, "poisoned buffer dropped");
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_torn() {
        let bytes = encode_frame(&Frame::Ping { token: 5 });
        let mut whole: &[u8] = &bytes;
        assert!(matches!(
            read_frame(&mut whole).expect("one frame"),
            Some(Frame::Ping { token: 5 })
        ));
        assert!(read_frame(&mut whole).expect("eof").is_none());
        let mut torn: &[u8] = &bytes[..bytes.len() - 3];
        assert!(matches!(
            read_frame(&mut torn),
            Err(WireError::Truncated { .. })
        ));
    }

    fn tick(node: usize, step: usize, n_values: usize) -> Tick {
        Tick {
            node,
            step,
            values: (0..n_values)
                .map(|i| (node * 31 + step + i) as f64 * 0.5)
                .collect(),
            transition: step == 0,
        }
    }

    /// A checksum-valid frame claiming protocol version 9.
    fn future_version_frame() -> Vec<u8> {
        let mut bytes = encode_frame(&Frame::Finish);
        bytes[4..6].copy_from_slice(&9u16.to_le_bytes());
        let body_len = bytes.len() - TRAILER_LEN;
        let sum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    fn flip_payload_bit(mut frame: Vec<u8>) -> Vec<u8> {
        frame[HEADER_LEN + 3] ^= 0x10;
        frame
    }

    #[test]
    fn many_ticks_encode_to_the_concatenated_single_frames() {
        // Ragged widths and a count that is no multiple of the lane
        // count: every group shape of the batched seal.
        for n in 0..=9 {
            let ticks: Vec<Tick> = (0..n).map(|i| tick(i, 7 * i, (i * 5) % 13)).collect();
            let want: Vec<u8> = ticks
                .iter()
                .flat_map(|t| encode_frame(&Frame::Tick(t.clone())))
                .collect();
            // Appends after what is already there, leaving it alone.
            let mut got = b"prefix".to_vec();
            encode_ticks_into(&ticks, &mut got);
            assert_eq!(&got[..6], b"prefix");
            assert_eq!(&got[6..], &want[..], "{n} ticks");
            assert_eq!(
                want.len(),
                ticks.iter().map(tick_frame_len).sum::<usize>(),
                "tick_frame_len is exact"
            );
        }
        let mut appended = Vec::new();
        for f in all_frames() {
            encode_frame_into(&f, &mut appended);
        }
        let want: Vec<u8> = all_frames().iter().flat_map(encode_frame).collect();
        assert_eq!(appended, want);
    }

    #[test]
    fn push_into_keeps_the_valid_prefix_of_a_damaged_chunk() {
        let (a, b) = (tick(1, 10, 6), tick(2, 10, 6));
        let mut chunk = Vec::new();
        encode_ticks_into(&[a.clone(), b.clone()], &mut chunk);
        chunk.extend(flip_payload_bit(encode_frame(&Frame::Tick(tick(3, 10, 6)))));
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        assert_eq!(asm.push_into(&chunk, &mut out), Err(WireError::Corrupt));
        assert_eq!(out, vec![Frame::Tick(a), Frame::Tick(b)]);
        assert_eq!(asm.pending_bytes(), 0, "poisoned buffer dropped");
        // `push` keeps its all-or-nothing contract on the same bytes.
        assert_eq!(
            FrameAssembler::new().push(&chunk).unwrap_err(),
            WireError::Corrupt
        );
    }

    #[test]
    fn error_order_is_stream_order_under_batched_verification() {
        let good = || encode_frame(&Frame::Tick(tick(4, 2, 5)));
        let corrupt = || flip_payload_bit(good());
        let mut bad_magic = good();
        bad_magic[0] = b'X';
        let mut oversized = good();
        oversized[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        let cases: [(&str, Vec<Vec<u8>>, WireError, usize); 4] = [
            (
                "corrupt before bad magic",
                vec![good(), corrupt(), bad_magic.clone()],
                WireError::Corrupt,
                1,
            ),
            (
                "bad magic after two frames",
                vec![good(), good(), bad_magic],
                WireError::BadMagic,
                2,
            ),
            (
                "oversized header after one frame",
                vec![good(), oversized],
                WireError::Oversized {
                    declared: u32::MAX as u64,
                    max: MAX_PAYLOAD_LEN as u64,
                },
                1,
            ),
            (
                "valid future version behind a corrupt frame",
                vec![corrupt(), future_version_frame()],
                WireError::Corrupt,
                0,
            ),
        ];
        for (what, frames, want, n_before) in cases {
            let chunk = frames.concat();
            // In one call, and with a frame torn across two calls so the
            // pending frame rides in the batch too.
            for split in [0, HEADER_LEN + 2] {
                let mut asm = FrameAssembler::new();
                let mut out = Vec::new();
                let got = asm
                    .push_into(&chunk[..split], &mut out)
                    .and_then(|()| asm.push_into(&chunk[split..], &mut out));
                assert_eq!(got, Err(want.clone()), "{what} (split {split})");
                assert_eq!(out.len(), n_before, "{what} (split {split})");
            }
        }
    }

    #[test]
    fn assembler_copies_only_the_incomplete_tail() {
        let ticks: Vec<Tick> = (0..6).map(|i| tick(i, 3, 8)).collect();
        let mut stream = Vec::new();
        encode_ticks_into(&ticks, &mut stream);
        let frame_len = tick_frame_len(&ticks[0]);
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        // Two and a bit frames: only the bit is held.
        asm.push_into(&stream[..2 * frame_len + 5], &mut out)
            .expect("clean");
        assert_eq!((out.len(), asm.pending_bytes()), (2, 5));
        // Still short of a header, then short of the frame: the pending
        // frame takes what arrives and nothing is emitted.
        asm.push_into(&stream[2 * frame_len + 5..2 * frame_len + 9], &mut out)
            .expect("clean");
        asm.push_into(&stream[2 * frame_len + 9..3 * frame_len - 1], &mut out)
            .expect("clean");
        assert_eq!((out.len(), asm.pending_bytes()), (2, frame_len - 1));
        // Its last byte plus three whole frames in one call.
        asm.push_into(&stream[3 * frame_len - 1..], &mut out)
            .expect("clean");
        assert_eq!((out.len(), asm.pending_bytes()), (6, 0));
        let want: Vec<Frame> = ticks.into_iter().map(Frame::Tick).collect();
        assert_eq!(out, want);
    }

    mod lanes {
        use super::super::{
            fnv1a64, fnv1a64_blocks, fnv1a64_lanes, word64_blocks, LANES, PAR_MIN_BYTES,
        };
        use proptest::prelude::*;
        use std::sync::Mutex;

        /// `len` bytes of a xorshift stream.
        fn bytes(seed: u64, len: usize) -> Vec<u8> {
            let mut x = seed | 1;
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect()
        }

        /// A block digest's definition: `block_digest` of each block, the
        /// digests and the body length folded by one plain chain.
        fn folded(head: &[u8], body: &[u8], block: usize, digest: fn(&[u8]) -> u64) -> u64 {
            let mut preimage = head.to_vec();
            for piece in body.chunks(block) {
                preimage.extend_from_slice(&digest(piece).to_le_bytes());
            }
            preimage.extend_from_slice(&(body.len() as u64).to_le_bytes());
            fnv1a64(&preimage)
        }

        /// The version-3 block chain, spelled out: from the FNV offset
        /// basis, per little-endian word (a ragged tail zero-padded to
        /// one), `h = rotl((h ^ w) * 0x9E3779B97F4A7C15, 31)`.
        fn word_chain_by_definition(block: &[u8]) -> u64 {
            block.chunks(8).fold(0xcbf2_9ce4_8422_2325, |h, piece| {
                let mut word = [0u8; 8];
                word[..piece.len()].copy_from_slice(piece);
                (h ^ u64::from_le_bytes(word))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(31)
            })
        }

        /// `word64_blocks` at pool widths 1, 2 and 4. The width is
        /// process-wide, so the tests that set it take turns.
        fn at_every_width(head: &[u8], body: &[u8], block: usize) -> [u64; 3] {
            static WIDTH: Mutex<()> = Mutex::new(());
            let _turn = WIDTH.lock().unwrap_or_else(|e| e.into_inner());
            let digests = [1, 2, 4].map(|width| {
                rayon::set_thread_count_override(Some(width));
                word64_blocks(head, body, block)
            });
            rayon::set_thread_count_override(None);
            digests
        }

        #[test]
        fn block_digest_fans_out_at_the_snapshot_block() {
            // 64 KiB blocks: ragged words and blocks at every scale,
            // either side of the pool gate, a ragged last group, and
            // several groups past the gate.
            let block = 64 << 10;
            let body = bytes(0x5EED, PAR_MIN_BYTES + 6 * LANES * block + 777);
            for len in [
                0,
                1,
                7,
                8,
                9,
                block - 1,
                block,
                block + 1,
                5 * block + 3,
                PAR_MIN_BYTES - 1,
                PAR_MIN_BYTES,
                PAR_MIN_BYTES + 1,
                PAR_MIN_BYTES + 2 * block + 9,
                body.len() - 777,
                body.len(),
            ] {
                let want = folded(b"NSSN", &body[..len], block, word_chain_by_definition);
                assert_eq!(
                    at_every_width(b"NSSN", &body[..len], block),
                    [want; 3],
                    "{len} bytes"
                );
            }
        }

        #[test]
        fn version_2_block_digest_is_one_byte_chain_per_block() {
            let block = 64 << 10;
            let body = bytes(0xB10C, 6 * block + 5);
            for len in [0, 1, block - 1, block, block + 1, 4 * block, body.len()] {
                assert_eq!(
                    fnv1a64_blocks(b"NSSN", &body[..len], block),
                    folded(b"NSSN", &body[..len], block, fnv1a64),
                    "{len} bytes"
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Ragged lanes, empty lanes in any position, and every
            // choice of which lane is the shortest.
            #[test]
            fn four_lane_checksum_equals_fnv1a64_per_lane(
                data in prop::collection::vec(
                    prop::collection::vec(0u8..=255u8, 0..48),
                    LANES,
                ),
                emptied in prop::collection::vec(any::<bool>(), LANES),
                shortest in 0usize..LANES,
                cut in 0usize..48,
            ) {
                let mut data = data;
                for (lane, empty) in data.iter_mut().zip(&emptied) {
                    if *empty {
                        lane.clear();
                    }
                }
                let cut = cut.min(data[shortest].len());
                data[shortest].truncate(cut);
                let lanes: [&[u8]; LANES] = std::array::from_fn(|k| data[k].as_slice());
                let got = fnv1a64_lanes(lanes);
                for (k, lane) in lanes.iter().enumerate() {
                    prop_assert_eq!(got[k], fnv1a64(lane), "lane {} of {:?}", k, lanes);
                }
            }

            // The block digest against its definition, one word chain
            // per block, at pool widths 1, 2 and 4: ragged words and last
            // blocks, bodies shorter than a block, groups short of four blocks,
            // the empty body — and bodies from two groups below the pool
            // gate to at least six past it, where groups go out in runs.
            #[test]
            fn block_digest_equals_its_byte_serial_definition(
                head in prop::collection::vec(0u8..=255u8, 0..20),
                short in 0usize..400,
                past_gate in 0usize..8 * LANES * 70,
                near_gate in any::<bool>(),
                seed in any::<u64>(),
                block in 1usize..70,
            ) {
                let len = if near_gate {
                    PAR_MIN_BYTES - 2 * LANES * block + past_gate
                } else {
                    short
                };
                let body = bytes(seed, len);
                let want = folded(&head, &body, block, word_chain_by_definition);
                prop_assert_eq!(at_every_width(&head, &body, block), [want; 3]);
            }
        }
    }
}
