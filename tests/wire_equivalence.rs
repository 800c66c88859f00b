//! Over-the-wire differential conformance: verdicts produced by an
//! engine fed through the TCP ingest server must be `to_bits`-identical
//! to the same engine fed in-process — at 1, 2, and 4 shards, on a
//! clean feed, on a feed carrying all 8 stream fault classes, under the
//! full socket-fault chaos plan (partial writes, stalls, torn frames
//! with resend, duplicate connections, scheduled reconnects), and
//! across a mid-stream client disconnect/reconnect.
//!
//! The transport must be a bit-invisible layer: everything it can do to
//! the byte stream either reassembles to the same tick sequence or is
//! rejected by the engine's existing duplicate/late hardening. Only the
//! fault *counters* may differ between the two runs — never a verdict.

mod common;

use common::{engine_cfg, run_uninterrupted, setup, Setup, CHUNK};
use nodesentry::stream::{Engine, EngineConfig, EngineReport, Tick, VerdictKind};
use nodesentry::telemetry::{
    subscribe_verdicts, FaultEvent, FaultInjector, FaultKind, FaultPlan, IngestClient,
    SocketFaultPlan,
};
use nodesentry::wire::{ReportMsg, VerdictMsg};
use std::sync::Arc;

const SHARDS: [usize; 3] = [1, 2, 4];

/// The over-the-wire run: serve the engine on an ephemeral localhost
/// port, drive it with a (possibly fault-injecting) client, finalize
/// over the socket, and return what came back over the wire.
fn run_over_wire(
    setup: &Setup,
    stream: &[Tick],
    cfg: EngineConfig,
    plan: SocketFaultPlan,
) -> (Vec<VerdictMsg>, ReportMsg, IngestStats) {
    let engine = Engine::new(Arc::clone(&setup.model), cfg);
    let server = engine.serve_ingest("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.local_addr();
    let mut client = IngestClient::with_faults(addr, plan).expect("connect");
    for chunk in stream.chunks(CHUNK) {
        client.send_cycle(chunk).expect("send");
    }
    let counters = client.fault_counters;
    let (verdicts, report) = client.finish().expect("finish over wire");
    let run = server.shutdown().expect("server saw the finish");
    (
        verdicts,
        report,
        IngestStats {
            socket_faults: counters,
            server_verdicts: run.report.verdicts.len(),
        },
    )
}

struct IngestStats {
    socket_faults: nodesentry::telemetry::SocketFaultCounters,
    server_verdicts: usize,
}

/// Bit-level equality between the in-process report and the wire run.
fn assert_bit_identical(
    baseline: &EngineReport,
    wire: &[VerdictMsg],
    report: &ReportMsg,
    tag: &str,
) {
    assert_eq!(
        baseline.verdicts.len(),
        wire.len(),
        "{tag}: verdict count diverged"
    );
    for (v, m) in baseline.verdicts.iter().zip(wire) {
        let loc = format!("{tag}: node {} step {}", v.node, v.step);
        assert_eq!(v.node as u64, m.node, "{loc}: node");
        assert_eq!(v.step as u64, m.step, "{loc}: step");
        assert_eq!(
            v.score.to_bits(),
            m.score_bits,
            "{loc}: score {} vs {}",
            v.score,
            m.score()
        );
        assert_eq!(v.anomalous, m.anomalous, "{loc}: flag");
        assert_eq!(v.cluster as u64, m.cluster, "{loc}: cluster");
        assert_eq!(
            matches!(v.kind, VerdictKind::Degraded),
            m.degraded,
            "{loc}: kind"
        );
    }
    assert_eq!(
        report.n_verdicts as usize,
        wire.len(),
        "{tag}: report count"
    );
    assert_eq!(
        report.n_degraded as usize,
        wire.iter().filter(|m| m.degraded).count(),
        "{tag}: report degraded count"
    );
}

#[test]
fn clean_feed_is_bit_identical_across_shards() {
    let setup = setup();
    for shards in SHARDS {
        let baseline = run_uninterrupted(setup, &setup.clean, engine_cfg(setup, shards));
        let (wire, report, stats) = run_over_wire(
            setup,
            &setup.clean,
            engine_cfg(setup, shards),
            SocketFaultPlan::none(),
        );
        assert_bit_identical(&baseline, &wire, &report, &format!("clean/s{shards}"));
        assert_eq!(stats.server_verdicts, wire.len());
        assert_eq!(report.n_shards as usize, baseline.n_shards);
        assert_eq!(report.n_ticks, setup.clean.len() as u64);
    }
}

/// The all-classes fault plan from the fault-tolerance suite: every
/// stream fault the engine hardens against, on one feed.
fn all_fault_stream(setup: &Setup) -> Vec<Tick> {
    let ev = |kind, node, start, end, mag| FaultEvent {
        node,
        kind,
        start,
        end,
        magnitude: mag,
        cols: Vec::new(),
    };
    let mut events = vec![
        ev(FaultKind::Drop, 0, 420, 450, 0.6),
        ev(FaultKind::Duplicate, 1, 400, 460, 0.5),
        ev(FaultKind::Reorder, 2, 380, 430, 4.0),
        ev(FaultKind::NanBurst, 3, 520, 535, 1.0),
        ev(FaultKind::StuckSensor, 0, 500, 540, 1.0),
        ev(FaultKind::CounterReset, 1, 510, 540, 1.0),
        ev(FaultKind::ClockSkew, 1, 470, 500, 6.0),
        ev(FaultKind::Blackout, 2, 460, 520, 1.0),
    ];
    events[4].cols = (0..setup.model.preprocessor.groups.len()).collect();
    events[5].cols = setup.counter_cols.clone();
    let plan = FaultPlan {
        events,
        seed: 0xA11,
    };
    FaultInjector::new(plan).apply(&setup.clean).stream
}

#[test]
fn all_fault_classes_with_socket_chaos_stay_bit_identical() {
    let setup = setup();
    let faulted = all_fault_stream(setup);
    for shards in SHARDS {
        let baseline = run_uninterrupted(setup, &faulted, engine_cfg(setup, shards));
        let (wire, report, stats) = run_over_wire(
            setup,
            &faulted,
            engine_cfg(setup, shards),
            SocketFaultPlan::chaos(0xC4A0 + shards as u64),
        );
        assert_bit_identical(&baseline, &wire, &report, &format!("faults/s{shards}"));
        // The chaos plan must have actually exercised the socket faults
        // it promises — otherwise this test proves nothing.
        let sf = stats.socket_faults;
        assert!(sf.partial_writes > 0, "s{shards}: no partial writes");
        assert!(sf.disconnects > 0, "s{shards}: no reconnect cycles");
        assert!(sf.torn_resends > 0, "s{shards}: no torn frames");
        assert!(
            sf.duplicate_conns > 0,
            "s{shards}: no duplicate connections"
        );
    }
}

#[test]
fn mid_stream_disconnect_and_reconnect_is_bit_identical() {
    let setup = setup();
    let cfg = engine_cfg(setup, 2);
    let baseline = run_uninterrupted(setup, &setup.clean, cfg);

    // Same client object reconnecting mid-stream (sync, drop, redial).
    let engine = Engine::new(Arc::clone(&setup.model), cfg);
    let server = engine.serve_ingest("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let half = setup.clean.len() / 2;
    let mut client = IngestClient::connect(addr).expect("connect");
    client.send_cycle(&setup.clean[..half]).expect("first half");
    client.reconnect().expect("mid-stream reconnect");
    client
        .send_cycle(&setup.clean[half..])
        .expect("second half");
    let (wire, report) = client.finish().expect("finish");
    server.shutdown();
    assert_bit_identical(&baseline, &wire, &report, "reconnect/same-client");

    // A different client finishing the stream the first one started.
    let engine = Engine::new(Arc::clone(&setup.model), cfg);
    let server = engine.serve_ingest("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut first = IngestClient::connect(addr).expect("connect A");
    first.send_cycle(&setup.clean[..half]).expect("A half");
    // Sync before abandoning the connection so nothing is in flight.
    first.ping().expect("A sync");
    drop(first);
    let mut second = IngestClient::connect(addr).expect("connect B");
    second.send_cycle(&setup.clean[half..]).expect("B half");
    let (wire, report) = second.finish().expect("B finish");
    server.shutdown();
    assert_bit_identical(&baseline, &wire, &report, "reconnect/two-clients");
}

#[test]
fn verdict_subscribers_get_the_same_stream() {
    let setup = setup();
    let cfg = engine_cfg(setup, 2);
    let baseline = run_uninterrupted(setup, &setup.clean, cfg);
    let engine = Engine::new(Arc::clone(&setup.model), cfg);
    let server = engine.serve_ingest("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Early subscriber: connects before the run finalizes and blocks.
    let early = std::thread::spawn(move || subscribe_verdicts(addr).expect("early subscriber"));

    let mut client = IngestClient::connect(addr).expect("connect");
    client.send_cycle(&setup.clean).expect("send");
    let (finisher, report) = client.finish().expect("finish");
    assert_bit_identical(&baseline, &finisher, &report, "subscribe/finisher");

    let (early_verdicts, early_report) = early.join().expect("early thread");
    assert_bit_identical(&baseline, &early_verdicts, &early_report, "subscribe/early");

    // Late subscriber: the finished run is retained until shutdown.
    let (late_verdicts, late_report) = subscribe_verdicts(addr).expect("late subscriber");
    assert_bit_identical(&baseline, &late_verdicts, &late_report, "subscribe/late");
    server.shutdown();
}
