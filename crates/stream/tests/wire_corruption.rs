//! Hostile-bytes conformance for the wire layer, two levels deep:
//!
//! 1. **Codec totality** — every truncation length and every single-bit
//!    flip of a framed tick decodes to a typed [`WireError`], never a
//!    panic and never a silently-accepted wrong frame; future-version
//!    and hostile-length frames map to their dedicated errors.
//! 2. **Server resilience** — a live `Engine::serve_ingest` endpoint
//!    fed the same hostile bytes answers with a typed [`Frame::Error`]
//!    and closes *that connection only*: the engine keeps every tick it
//!    already consumed, keeps accepting new connections, and finalizes
//!    a correct run afterwards. Receiving the error frame before EOF is
//!    the proof the connection died cleanly rather than by panic.

use nodesentry_core::{CoarseConfig, NodeInput, NodeSentry, NodeSentryConfig, SharingConfig};
use ns_features::FeatureCatalog;
use ns_stream::{Engine, EngineConfig, Tick};
use ns_telemetry::{DatasetProfile, IngestClient};
use ns_wire::{
    decode_frame, encode_frame, error_code, fnv1a64, read_frame, Frame, WireError, HEADER_LEN,
    MAX_PAYLOAD_LEN, TRAILER_LEN, WIRE_VERSION,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

fn framed_tick() -> Vec<u8> {
    encode_frame(&Frame::Tick(Tick {
        node: 11,
        step: 387,
        values: vec![1.5, f64::NAN, -0.0, 6.25e-3, f64::INFINITY, -41.0],
        transition: true,
    }))
}

// ---------------------------------------------------------------------
// 1. Codec totality
// ---------------------------------------------------------------------

#[test]
fn every_truncation_length_is_a_typed_truncated_error() {
    let bytes = framed_tick();
    for cut in 0..bytes.len() {
        match decode_frame(&bytes[..cut]) {
            Err(WireError::Truncated { expected, have }) => {
                assert_eq!(have, cut);
                assert!(expected > cut, "cut {cut}: expected {expected}");
            }
            other => panic!("truncation at {cut} must be Truncated, got {other:?}"),
        }
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_error_never_a_frame() {
    let bytes = framed_tick();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[byte] ^= 1 << bit;
            let err = match decode_frame(&bad) {
                Err(e) => e,
                Ok((f, _)) => panic!("flip {byte}.{bit} silently accepted as {f:?}"),
            };
            // The error class must make sense for where the flip landed.
            match byte {
                0..=3 => assert_eq!(err, WireError::BadMagic, "flip {byte}.{bit}"),
                7..=10 => assert!(
                    matches!(
                        err,
                        WireError::Corrupt
                            | WireError::Oversized { .. }
                            | WireError::Truncated { .. }
                    ),
                    "length-field flip {byte}.{bit} gave {err:?}"
                ),
                // Version, kind, payload, or trailer flips all fail the
                // checksum (the version gate sits behind it).
                _ => assert_eq!(err, WireError::Corrupt, "flip {byte}.{bit} gave {err:?}"),
            }
        }
    }
}

#[test]
fn future_version_frame_is_gated_not_corrupt() {
    let mut bytes = framed_tick();
    bytes[4..6].copy_from_slice(&9u16.to_le_bytes());
    let body = bytes.len() - TRAILER_LEN;
    let sum = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(
        decode_frame(&bytes).unwrap_err(),
        WireError::UnsupportedVersion {
            found: 9,
            supported: WIRE_VERSION
        }
    );
}

#[test]
fn oversized_length_is_rejected_before_any_read_or_alloc() {
    let mut bytes = framed_tick();
    bytes[7..11].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
    match decode_frame(&bytes).unwrap_err() {
        WireError::Oversized { declared, max } => {
            assert_eq!(declared, (MAX_PAYLOAD_LEN + 1) as u64);
            assert_eq!(max, MAX_PAYLOAD_LEN as u64);
        }
        other => panic!("got {other:?}"),
    }
    // Only the 11-byte header is needed to reject it.
    assert!(matches!(
        decode_frame(&bytes[..HEADER_LEN]).unwrap_err(),
        WireError::Oversized { .. }
    ));
}

// ---------------------------------------------------------------------
// 2. Server resilience
// ---------------------------------------------------------------------

fn tiny_model_and_split() -> &'static (Arc<NodeSentry>, usize, Vec<Tick>) {
    static CELL: OnceLock<(Arc<NodeSentry>, usize, Vec<Tick>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let ds = DatasetProfile::tiny().generate();
        let groups = ds.catalog.group_ids();
        let inputs: Vec<NodeInput> = (0..ds.n_nodes())
            .map(|n| NodeInput {
                raw: ds.raw_node(n),
                transitions: ds.transitions(n),
            })
            .collect();
        let cfg = NodeSentryConfig {
            coarse: CoarseConfig {
                catalog: FeatureCatalog::compact(),
                k_max: 6,
                ..Default::default()
            },
            sharing: SharingConfig {
                window: 12,
                stride: 6,
                d_model: 16,
                n_heads: 2,
                n_layers: 1,
                hidden: 32,
                n_experts: 2,
                epochs: 6,
                lr: 3e-3,
                batch: 16,
                k_nearest: 4,
                ..Default::default()
            },
            match_period: 40,
            min_segment_len: 8,
            ..Default::default()
        };
        let model = NodeSentry::fit(cfg, &inputs, &groups, ds.split);
        // The clean feed, sent with every transition flag cleared.
        let mut ticks = ds.ticks();
        for tick in &mut ticks {
            tick.transition = false;
        }
        (Arc::new(model), ds.split, ticks)
    })
}

/// Send raw bytes on a fresh connection and expect a typed error frame
/// followed by a clean close (EOF), which distinguishes a graceful
/// connection teardown from a panicking server thread.
fn expect_error_then_close(addr: std::net::SocketAddr, hostile: &[u8], what: &str) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(hostile).expect("write hostile bytes");
    conn.flush().unwrap();
    match read_frame(&mut conn).unwrap_or_else(|e| panic!("{what}: reading reply: {e}")) {
        Some(Frame::Error { code, msg }) => {
            assert_eq!(code, error_code::PROTOCOL, "{what}: code ({msg})");
            assert!(!msg.is_empty(), "{what}: empty error message");
        }
        other => panic!("{what}: wanted Error frame, got {other:?}"),
    }
    assert!(
        matches!(read_frame(&mut conn), Ok(None)),
        "{what}: connection must close cleanly after the error"
    );
}

#[test]
fn hostile_connections_never_take_the_server_down() {
    let (model, split, ticks) = tiny_model_and_split();
    let mut cfg = EngineConfig::new(*split);
    cfg.n_shards = 2;
    cfg.smooth_window = 1;
    let engine = Engine::new(Arc::clone(model), cfg);
    let server = engine.serve_ingest("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // A well-behaved client gets half the stream in first.
    let half = ticks.len() / 2;
    let mut client = IngestClient::connect(addr).expect("connect");
    client.send_cycle(&ticks[..half]).expect("first half");
    client.ping().expect("sync");

    // Wave of hostile connections, one per failure mode.
    let mut flipped = framed_tick();
    flipped[HEADER_LEN + 3] ^= 0x10;
    expect_error_then_close(addr, &flipped, "bit flip");

    let mut future = framed_tick();
    future[4..6].copy_from_slice(&9u16.to_le_bytes());
    let body = future.len() - TRAILER_LEN;
    let sum = fnv1a64(&future[..body]);
    future[body..].copy_from_slice(&sum.to_le_bytes());
    expect_error_then_close(addr, &future, "future version");

    let mut oversized = framed_tick();
    oversized[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
    expect_error_then_close(addr, &oversized, "oversized length");

    expect_error_then_close(addr, b"GET /metrics HTTP/1.1\r\n\r\n", "not a frame at all");

    // Corruption *after* valid traffic on the same connection: the
    // valid prefix is fully consumed (pong proves it), then the corrupt
    // frame kills the connection with a typed error.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(&encode_frame(&Frame::Ping { token: 7 }))
        .expect("write ping");
    match read_frame(&mut conn).expect("pong arrives") {
        Some(Frame::Pong { token }) => assert_eq!(token, 7),
        other => panic!("wanted the pong first, got {other:?}"),
    }
    conn.write_all(&flipped).expect("write corrupt frame");
    match read_frame(&mut conn).expect("then the error") {
        Some(Frame::Error { code, .. }) => assert_eq!(code, error_code::PROTOCOL),
        other => panic!("wanted Error after corruption, got {other:?}"),
    }

    // A torn frame: half a tick frame, then the peer vanishes.
    let torn = framed_tick();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(&torn[..torn.len() / 2]).expect("write half");
    drop(conn);

    // The server survived all of it: the original client still works
    // and the run finalizes with every delivered verdict accounted for.
    client.send_cycle(&ticks[half..]).expect("second half");
    let (verdicts, report) = client.finish().expect("finish");
    assert_eq!(verdicts.len(), report.n_verdicts as usize);
    assert!(
        !verdicts.is_empty(),
        "the engine must have scored the clean stream"
    );
    // Hostile ticks never reached the engine: tick count is exactly the
    // clean client's (the flipped/torn tick frames were all rejected or
    // incomplete).
    assert_eq!(report.n_ticks, ticks.len() as u64);
    let run = server.shutdown().expect("finished run retained");
    assert_eq!(run.report.verdicts.len(), verdicts.len());
}

#[test]
fn ticks_after_finalize_are_rejected_with_a_typed_error() {
    let (model, split, ticks) = tiny_model_and_split();
    let mut cfg = EngineConfig::new(*split);
    cfg.n_shards = 1;
    cfg.smooth_window = 1;
    let engine = Engine::new(Arc::clone(model), cfg);
    let server = engine.serve_ingest("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut client = IngestClient::connect(addr).expect("connect");
    client.send_cycle(&ticks[..200]).expect("send");
    client.finish().expect("finish");

    // A straggler connection trying to ingest after the run is over.
    let mut late = TcpStream::connect(addr).expect("connect");
    late.write_all(&framed_tick()).expect("write tick");
    late.flush().unwrap();
    match read_frame(&mut late).expect("reply") {
        Some(Frame::Error { code, msg }) => {
            assert_eq!(code, error_code::REJECTED);
            assert!(msg.contains("finalized"), "{msg}");
        }
        other => panic!("wanted REJECTED error, got {other:?}"),
    }
    server.shutdown();
}
