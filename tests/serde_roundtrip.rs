//! Model persistence: a trained detector serialized with
//! `NodeSentry::to_json` and restored with `from_json` must score
//! identically — both the slim deployment envelope (no training
//! segments) and the full layout.

mod common;

use common::{quick_cfg, setup};
use nodesentry::core::NodeSentry;

#[test]
fn fit_serialize_deserialize_scores_identically() {
    let setup = setup();
    let (ds, model) = (&setup.ds, &setup.model);

    for include_segments in [false, true] {
        let json = model.to_json(include_segments).expect("serialize");
        let restored = NodeSentry::from_json(&json).expect("deserialize");
        assert_eq!(restored.n_clusters(), model.n_clusters());
        // The model digest is a function of the deployed content only:
        // both envelopes restore it, with or without training segments.
        assert_eq!(restored.fingerprint(), model.fingerprint());
        assert_eq!(
            restored.preprocessor.out_dim(),
            model.preprocessor.out_dim()
        );
        if include_segments {
            assert_eq!(restored.train_segments.len(), model.train_segments.len());
        } else {
            assert!(restored.train_segments.is_empty());
        }
        // Identical scoring, bit for bit, on every node.
        for input in &setup.inputs {
            let (before, matches_before) =
                model.score_node(&input.raw, &input.transitions, ds.split);
            let (after, matches_after) =
                restored.score_node(&input.raw, &input.transitions, ds.split);
            assert_eq!(matches_before, matches_after);
            assert_eq!(before.len(), after.len());
            for (a, b) in before.iter().zip(&after) {
                assert_eq!(a.to_bits(), b.to_bits(), "score changed across round-trip");
            }
        }
        // A second round-trip is a fixed point of serialization.
        let json2 = restored.to_json(include_segments).expect("re-serialize");
        assert_eq!(json, json2, "serialization not stable across a round-trip");
    }

    // Dropping the retained training segments leaves the digest alone, and
    // a second fit from the same inputs and seed reproduces it.
    let groups = ds.catalog.group_ids();
    let mut again = NodeSentry::fit(quick_cfg(), &setup.inputs, &groups, ds.split);
    assert!(!again.train_segments.is_empty());
    assert_eq!(again.fingerprint(), model.fingerprint());
    again.train_segments.clear();
    assert_eq!(again.fingerprint(), model.fingerprint());
}

// ---------------------------------------------------------------------
// Snapshot wire format: value round trips and the pinned golden files
// (v3: written and read; v1 and v2: refused as what they are)
// ---------------------------------------------------------------------

mod snapshot_format {
    use nodesentry::eval::streaming::{KSigmaState, SmootherState};
    use nodesentry::stream::snapshot::{
        EngineSnapshot, JobSnap, NodeSnap, PendingSnap, PreSnap, SnapshotError, SNAPSHOT_VERSION,
    };
    use nodesentry::stream::{FaultCounters, StreamStats, Tick};

    /// The golden snapshot: deterministic, hand-built, touching every
    /// field the format carries — including float bit patterns (negative
    /// zero, infinities, a subnormal) that a text codec would mangle.
    /// Regenerating a fixture (`NS_REGEN_FIXTURES=1` writes the newest
    /// version's only) is a conscious format change and must come with a
    /// `SNAPSHOT_VERSION` bump.
    fn golden() -> EngineSnapshot {
        let pre = PreSnap {
            buf: vec![vec![1.5, -0.0, 0.25], vec![f64::INFINITY, -2.0, 5e-324]],
            nan_flags: vec![true, false],
            base: 41,
            n_pushed: 43,
            resolved: 41,
            last_obs: vec![Some(42), None, Some(40)],
            last_val: vec![0.125, -1.0, f64::NEG_INFINITY],
            rate_prev: vec![3.5, 0.0],
            any_row: true,
        };
        let full = NodeSnap {
            node: 5,
            next_step: 43,
            next_row: 19,
            pre,
            cuts: vec![12, 24, 36],
            seg_start: 36,
            seg_rows: vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]],
            seg_row_kinds: vec![0, 1],
            matched: Some(2),
            jobs: vec![JobSnap {
                start: 24,
                rows: vec![vec![-0.5, 0.5, 1.5]],
                kinds: vec![2],
                matched: None,
                degraded: true,
            }],
            probe_pending: true,
            smoother: SmootherState {
                buf: vec![0.75, -0.25],
                n_pushed: 40,
                next_out: 38,
            },
            detector: KSigmaState {
                window: vec![0.1, 0.2, 0.9, 0.15],
                flagged_run: 2,
            },
            pending: vec![PendingSnap {
                step: 42,
                score: 0.875,
                cluster: 1,
                suppress: false,
                degraded: true,
            }],
            ahead: vec![Tick {
                node: 5,
                step: 45,
                values: vec![1.0, -0.0, 2.5],
                transition: true,
            }],
            row_kinds: vec![0, 1, 2, 0],
            resync_degraded: true,
            prev_raw: vec![9.75, -3.5, 0.0],
            runs: vec![0, 4, 1],
            stats: StreamStats {
                n_ticks: 43,
                ..Default::default()
            },
            faults: FaultCounters {
                synthesized_rows: 2,
                late_ticks: 1,
                ..Default::default()
            },
        };
        let mut minimal = full.clone();
        minimal.node = 0;
        minimal.pre.buf.clear();
        minimal.pre.nan_flags.clear();
        minimal.jobs.clear();
        minimal.pending.clear();
        minimal.ahead.clear();
        minimal.matched = None;
        EngineSnapshot {
            model_fingerprint: 0x0123_4567_89AB_CDEF,
            split: 360,
            smooth_window: 1,
            // F64 is omitted from the encoding, so the golden fixtures'
            // pinned bytes stay valid with the field present.
            scoring_precision: nodesentry::stream::ScoringPrecision::F64,
            n_shards: 4,
            nodes: vec![minimal, full],
            quarantined: vec![2, 9],
            carried_stats: StreamStats {
                n_ticks: 17,
                ..Default::default()
            },
            carried_faults: FaultCounters {
                quarantine_dropped: 4,
                ..Default::default()
            },
        }
    }

    const FIXTURE_V1: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_snapshot_v1.bin"
    );
    const FIXTURE_V2: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_snapshot_v2.bin"
    );
    const FIXTURE_V3: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_snapshot_v3.bin"
    );

    /// Every snapshot type survives the self-describing `Value` layer —
    /// the same layer the binary codec serializes — losslessly.
    #[test]
    fn snapshot_types_roundtrip_through_serde_values() {
        use serde::{Deserialize, Serialize};

        let snap = golden();
        let v = snap.to_value();
        let back = EngineSnapshot::from_value(&v).expect("EngineSnapshot");
        assert_eq!(back, snap);

        let node = &snap.nodes[1];
        assert_eq!(
            &NodeSnap::from_value(&node.to_value()).expect("NodeSnap"),
            node
        );
        assert_eq!(
            PreSnap::from_value(&node.pre.to_value()).expect("PreSnap"),
            node.pre
        );
        assert_eq!(
            JobSnap::from_value(&node.jobs[0].to_value()).expect("JobSnap"),
            node.jobs[0]
        );
        assert_eq!(
            PendingSnap::from_value(&node.pending[0].to_value()).expect("PendingSnap"),
            node.pending[0]
        );
        // Type confusion fails typed, not silently.
        assert!(PreSnap::from_value(&node.jobs[0].to_value()).is_err());
    }

    /// The checked-in version-1 fixture is what the first format's builds
    /// persisted, sealed with that version's plain checksum chain. This
    /// build reads version 3 alone and must say so: an intact old file is
    /// an unsupported version, not a damaged one.
    #[test]
    fn version_1_fixture_is_refused_as_unsupported_version() {
        let v1 = std::fs::read(FIXTURE_V1).expect("v1 fixture is checked in");
        assert_eq!(u16::from_le_bytes([v1[4], v1[5]]), 1);
        let refusal = EngineSnapshot::from_bytes(&v1).expect_err("v1 is not read");
        assert_eq!(
            refusal,
            SnapshotError::UnsupportedVersion {
                found: 1,
                supported: 3
            }
        );
        assert_eq!(
            refusal.to_string(),
            "snapshot version 1 unsupported (this build reads version 3)"
        );
        // One flipped payload bit and it is damage again.
        let mut rotten = v1;
        rotten[40] ^= 1;
        assert_eq!(
            EngineSnapshot::from_bytes(&rotten),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    /// The checked-in version-2 fixture is what version-2 builds persisted
    /// for the golden snapshot, sealed with one byte-wise FNV-1a chain per
    /// block. Its payload is byte for byte version 3's — only the digest
    /// changed — and it is refused as the version it is.
    #[test]
    fn version_2_fixture_is_refused_as_unsupported_version() {
        use serde::Serialize;
        let v2 = std::fs::read(FIXTURE_V2).expect("v2 fixture is checked in");
        assert_eq!(u16::from_le_bytes([v2[4], v2[5]]), 2);
        let tree = golden().to_value();
        assert_eq!(v2, super::common::envelope::v2_bytes(&tree));
        let v3 = golden().to_bytes();
        assert_eq!(
            v2[14..v2.len() - 8],
            v3[14..v3.len() - 8],
            "versions 2 and 3 lay the payload out alike"
        );
        assert_ne!(v2[v2.len() - 8..], v3[v3.len() - 8..]);
        let refusal = EngineSnapshot::from_bytes(&v2).expect_err("v2 is not read");
        assert_eq!(
            refusal,
            SnapshotError::UnsupportedVersion {
                found: 2,
                supported: 3
            }
        );
        assert_eq!(
            refusal.to_string(),
            "snapshot version 2 unsupported (this build reads version 3)"
        );
        let mut rotten = v2;
        rotten[40] ^= 1;
        assert_eq!(
            EngineSnapshot::from_bytes(&rotten),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    /// The version-3 fixture pins the current on-disk format: if this
    /// test fails, the wire encoding changed, which breaks every snapshot
    /// already persisted by a deployment. Bump `SNAPSHOT_VERSION`, add a
    /// v4 fixture beside this one, and only then regenerate with
    /// `NS_REGEN_FIXTURES=1 cargo test --test serde_roundtrip`.
    #[test]
    fn golden_fixture_pins_the_v3_wire_format() {
        let bytes = golden().to_bytes();
        if std::env::var_os("NS_REGEN_FIXTURES").is_some() {
            std::fs::write(FIXTURE_V3, &bytes).expect("write fixture");
            eprintln!("regenerated {FIXTURE_V3} ({} bytes)", bytes.len());
        }
        let pinned = std::fs::read(FIXTURE_V3)
            .expect("fixture missing — run with NS_REGEN_FIXTURES=1 once to create it");
        assert_eq!(
            SNAPSHOT_VERSION, 3,
            "version bumped: add a new fixture instead of editing v3's"
        );
        assert_eq!(
            bytes, pinned,
            "snapshot wire encoding drifted from the checked-in v3 fixture"
        );
        // They are what the format's definition, spelled out test-side,
        // makes of the golden tree, and they decode to the golden value.
        use serde::Serialize;
        assert_eq!(
            pinned,
            super::common::envelope::v3_bytes(&golden().to_value())
        );
        let decoded = EngineSnapshot::from_bytes(&pinned).expect("decode fixture");
        assert_eq!(decoded, golden());
    }

    /// `to_bytes` writes node sections on the pool from 512 KiB of
    /// payload, one run of about equal bytes per participant. Its bytes
    /// are the serial `encode`'s and the test-side tree codec's for no
    /// node, one node and many, either side of that gate, for runs that
    /// hold no node (one section larger than the others together) and for
    /// fewer nodes than participants — at pool widths 1, 2 and 4.
    #[test]
    fn sectioned_bytes_equal_the_serial_and_tree_codecs() {
        use nodesentry::stream::snapshot::{decode, encode};
        use serde::Serialize;

        // The golden node with `rows` open-segment rows of `width` values.
        let node = |id: usize, rows: usize, width: usize| {
            let mut n = golden().nodes[1].clone();
            n.node = id;
            n.seg_rows = (0..rows)
                .map(|r| {
                    (0..width)
                        .map(|c| (id * 7 + r * 3 + c) as f64 * 0.5)
                        .collect()
                })
                .collect();
            n.seg_row_kinds = vec![0; rows];
            n
        };
        let with = |nodes: Vec<NodeSnap>| EngineSnapshot { nodes, ..golden() };
        let gate = 512 << 10;
        let cases = [
            ("no node", with(Vec::new())),
            ("one node", with(vec![node(0, 3, 5)])),
            (
                "many below",
                with((0..40).map(|i| node(i, 2 + i % 5, 9)).collect()),
            ),
            (
                "many above",
                with((0..48).map(|i| node(i, 20 + i % 13, 64 + i % 3)).collect()),
            ),
            ("one above", with(vec![node(0, 1100, 64)])),
            (
                "three above",
                with((0..3).map(|i| node(i, 400 + i, 64)).collect()),
            ),
            (
                "one giant",
                with(
                    (0..9)
                        .map(|i| node(i, if i == 2 { 1500 } else { 3 }, 64))
                        .collect(),
                ),
            ),
        ];
        for (what, snap) in &cases {
            let serial = encode(snap);
            let payload = serial.len() - 22;
            assert_eq!(
                payload >= gate,
                what.contains("above") || *what == "one giant",
                "{what}"
            );
            assert!(
                serial == super::common::envelope::v3_bytes(&snap.to_value()),
                "{what}"
            );
            for width in [1, 2, 4] {
                rayon::set_thread_count_override(Some(width));
                let bytes = snap.to_bytes();
                rayon::set_thread_count_override(None);
                assert!(bytes == serial, "{what} at width {width}");
            }
            let back: EngineSnapshot = decode(&serial).expect("decode");
            assert_eq!(&back, snap, "{what}");
        }
    }
}

// ---------------------------------------------------------------------
// Network wire format: the pinned v1 golden frame stream
// ---------------------------------------------------------------------

mod wire_format {
    use nodesentry::stream::Tick;
    use nodesentry::wire::{
        decode_frame, encode_frame, error_code, FrameAssembler, ReportMsg, Role, VerdictMsg,
        WIRE_VERSION,
    };
    use nodesentry::wire::{Frame, HEADER_LEN, WIRE_MAGIC};

    /// The golden conversation: one frame of every kind, with field
    /// values chosen to cover the encoding's corners — float bit
    /// patterns a text codec would mangle (NaN payload, ±inf, -0.0, a
    /// subnormal), an empty tick, max-u64 scalars, and a non-ASCII
    /// error message. Regenerating the fixture (`NS_REGEN_FIXTURES=1`)
    /// is a conscious protocol change and must come with a
    /// `WIRE_VERSION` bump plus a decoder for v1.
    fn golden() -> Vec<Frame> {
        vec![
            Frame::Hello {
                role: Role::Ingest,
                client_id: 7,
                precision: None,
            },
            Frame::Hello {
                role: Role::Verdicts,
                client_id: u64::MAX,
                precision: None,
            },
            Frame::Tick(Tick {
                node: 3,
                step: 411,
                values: vec![
                    1.5,
                    f64::NAN,
                    f64::from_bits(0x7FF8_0000_DEAD_BEEF), // NaN payload
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    5e-324, // smallest subnormal
                    -273.15,
                ],
                transition: true,
            }),
            Frame::Tick(Tick {
                node: 0,
                step: 0,
                values: vec![],
                transition: false,
            }),
            Frame::Ping { token: 0xC0FF_EE00 },
            Frame::Pong { token: 0xC0FF_EE00 },
            Frame::Verdict(VerdictMsg {
                node: 3,
                step: 411,
                score_bits: (-0.0f64).to_bits(),
                anomalous: true,
                cluster: 2,
                degraded: false,
            }),
            Frame::Finish,
            Frame::Report(ReportMsg {
                n_verdicts: 96,
                n_degraded: 4,
                n_ticks: 1_152,
                n_shards: 4,
            }),
            Frame::Error {
                code: error_code::REJECTED,
                msg: "run déjà finalized".to_string(),
            },
        ]
    }

    const FIXTURE: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/wire_frame_v1.bin"
    );

    /// The checked-in fixture pins the network frame encoding: if this
    /// test fails, a new server can no longer speak to an old client
    /// (or vice versa). Bump `WIRE_VERSION`, keep the v1 decoder, and
    /// only then regenerate with
    /// `NS_REGEN_FIXTURES=1 cargo test --test serde_roundtrip`.
    #[test]
    fn golden_fixture_pins_the_v1_frame_encoding() {
        let stream: Vec<u8> = golden().iter().flat_map(encode_frame).collect();
        if std::env::var_os("NS_REGEN_FIXTURES").is_some() {
            std::fs::write(FIXTURE, &stream).expect("write fixture");
            eprintln!("regenerated {FIXTURE} ({} bytes)", stream.len());
        }
        let pinned = std::fs::read(FIXTURE)
            .expect("fixture missing — run with NS_REGEN_FIXTURES=1 once to create it");
        assert_eq!(
            WIRE_VERSION, 1,
            "version bumped: add a migration path and a new fixture instead of editing v1's"
        );
        assert_eq!(
            stream, pinned,
            "network frame encoding drifted from the checked-in v1 fixture"
        );

        // The pinned bytes still decode to the golden conversation.
        // NaN fields make `Frame: PartialEq` useless here, so compare
        // the canonical re-encoding (byte equality implies bit-level
        // field equality — the codec is injective on bits).
        let decoded = FrameAssembler::new()
            .push(&pinned)
            .expect("decode fixture stream");
        let want = golden();
        assert_eq!(decoded.len(), want.len());
        for (have, want) in decoded.iter().zip(&want) {
            assert_eq!(
                encode_frame(have),
                encode_frame(want),
                "frame {} decoded differently",
                want.kind_label()
            );
        }
        // Spot-check the exotic float bits survive by value too.
        match &decoded[2] {
            Frame::Tick(t) => {
                assert_eq!(t.values[2].to_bits(), 0x7FF8_0000_DEAD_BEEF);
                assert_eq!(t.values[3].to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("fixture frame 2 should be the exotic tick, got {other:?}"),
        }

        // Structural invariants of the pinned bytes themselves: every
        // frame leads with the magic and the pinned version.
        let (first, consumed) = decode_frame(&pinned).expect("first frame");
        assert!(matches!(first, Frame::Hello { .. }));
        assert_eq!(&pinned[..4], WIRE_MAGIC);
        assert_eq!(
            u16::from_le_bytes([pinned[4], pinned[5]]),
            WIRE_VERSION,
            "pinned version bytes"
        );
        assert!(consumed >= HEADER_LEN);
    }
}
