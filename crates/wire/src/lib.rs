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
//! client in `ns-telemetry`) share one grammar.
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
//! [`WireError::UnsupportedVersion`].
//!
//! # Reassembly
//!
//! TCP is a byte stream: one `read` may return half a frame or three and
//! a half. [`FrameAssembler`] buffers arbitrary splits and yields whole
//! frames in order; `tests/proptest_wire.rs` proves reassembly is
//! invariant under random split points.

use nodesentry_core::Tick;

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
    /// Opt-in f32 scoring pipeline (prebaked f32 weights, f32 kernels);
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
            Frame::Tick(_) => 1,
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
        Frame::Tick(t) => {
            out.extend_from_slice(&(t.node as u64).to_le_bytes());
            out.extend_from_slice(&(t.step as u64).to_le_bytes());
            out.push(t.transition as u8);
            out.extend_from_slice(&(t.values.len() as u32).to_le_bytes());
            for v in &t.values {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
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

/// Encode one frame into its complete wire envelope.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(f.kind());
    let len_at = out.len();
    out.extend_from_slice(&0u32.to_le_bytes());
    encode_payload(f, &mut out);
    let payload_len = (out.len() - HEADER_LEN) as u32;
    debug_assert!(payload_len <= MAX_PAYLOAD_LEN, "frame exceeds payload cap");
    out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn take<'a>(b: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], WireError> {
    let end = pos
        .checked_add(n)
        .ok_or(WireError::Decode("payload cursor overflow".into()))?;
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
        1 => {
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
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(f64::from_bits(take_u64(payload, &mut pos)?));
            }
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

/// Decode the first frame in `buf`. Returns the frame and the number of
/// bytes it occupied. Total: every malformed prefix yields a typed
/// [`WireError`]; [`WireError::Truncated`] specifically means "the bytes
/// so far are a valid prefix — feed me more".
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            expected: HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf[..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    let kind = buf[6];
    let declared = u32::from_le_bytes(buf[7..11].try_into().expect("4 bytes"));
    // Length sanity before anything sized from it: a flipped high bit in
    // the length field must not make the reader wait for gigabytes.
    if declared > MAX_PAYLOAD_LEN {
        return Err(WireError::Oversized {
            declared: declared as u64,
            max: MAX_PAYLOAD_LEN as u64,
        });
    }
    let total = HEADER_LEN + declared as usize + TRAILER_LEN;
    if buf.len() < total {
        return Err(WireError::Truncated {
            expected: total,
            have: buf.len(),
        });
    }
    let body = &buf[..total - TRAILER_LEN];
    let stored = u64::from_le_bytes(buf[total - TRAILER_LEN..total].try_into().expect("8 bytes"));
    if fnv1a64(body) != stored {
        return Err(WireError::Corrupt);
    }
    // Version gate after the checksum, like the NSSN envelope: an intact
    // future-version frame reports `UnsupportedVersion`; a corrupted
    // version field reports `Corrupt`.
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: WIRE_VERSION,
        });
    }
    let frame = decode_payload(kind, &body[HEADER_LEN..])?;
    Ok((frame, total))
}

/// FNV-1a 64 over a byte slice — the checksum of this protocol's frames
/// and of the `NSSN` snapshot envelope (which calls this function), and
/// the same constants as the model fingerprint
/// (`NodeSentry::fingerprint` keeps a streaming copy: `nodesentry-core`
/// does not depend on this crate).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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

    /// Append bytes and pop every now-complete frame, in order.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        let mut consumed = 0usize;
        loop {
            match decode_frame(&self.buf[consumed..]) {
                Ok((frame, n)) => {
                    out.push(frame);
                    consumed += n;
                }
                Err(WireError::Truncated { .. }) => break,
                Err(e) => {
                    self.buf.clear();
                    return Err(e);
                }
            }
        }
        self.buf.drain(..consumed);
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Blocking I/O helpers
// ---------------------------------------------------------------------

/// Write one frame to a blocking writer.
pub fn write_frame(w: &mut impl std::io::Write, f: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(f))?;
    Ok(())
}

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
    // Validate the prefix before reading a payload sized from it.
    match decode_frame(&header) {
        Err(WireError::Truncated { expected, .. }) => {
            let mut rest = vec![0u8; expected - HEADER_LEN];
            r.read_exact(&mut rest).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    WireError::Truncated {
                        expected,
                        have: HEADER_LEN,
                    }
                } else {
                    WireError::from(e)
                }
            })?;
            let mut whole = header.to_vec();
            whole.extend_from_slice(&rest);
            decode_frame(&whole).map(|(f, _)| Some(f))
        }
        // An 11-byte frame cannot exist (the trailer alone is 8 more),
        // so a non-truncated result here is always a header-level error.
        Err(e) => Err(e),
        Ok(_) => unreachable!("a frame is at least HEADER_LEN + TRAILER_LEN bytes"),
    }
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
}
