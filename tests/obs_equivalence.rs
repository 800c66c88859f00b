//! The observability layer's contract: enabling ns-obs tracing + metrics
//! changes *nothing* about what the engine computes. Verdicts with
//! observability on are bit-identical (`f64::to_bits`) to verdicts with
//! it off, at 1, 2, and 4 shards — while the live registry demonstrably
//! moves. A second test scrapes the `/metrics` endpoint over a real
//! socket and parses every exposed family.
//!
//! Both tests mutate process-global ns-obs state (enabled flags, the
//! registry), so they serialize on a shared lock; the trained model is a
//! shared fixture because training dominates the runtime.

mod common;

use common::{quick_cfg, Setup};
use nodesentry::obs;
use nodesentry::stream::{metrics as sm, Engine, EngineConfig, FaultCounters, Verdict};
use nodesentry::telemetry::DatasetProfile;
use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// [`quick_cfg`] trained for four epochs on `tiny`.
fn fixture() -> &'static Setup {
    static CELL: OnceLock<Setup> = OnceLock::new();
    CELL.get_or_init(|| {
        // Train with observability off so the fixture is the plain
        // baseline; each test toggles the flags around its own runs.
        obs::disable_all();
        let mut cfg = quick_cfg();
        cfg.sharing.epochs = 4;
        Setup::fit(&DatasetProfile::tiny(), cfg)
    })
}

fn run_stream(fx: &Setup, n_shards: usize) -> Vec<Verdict> {
    run_stream_with(fx, n_shards, None)
}

fn run_stream_with(fx: &Setup, n_shards: usize, panic_at: Option<(usize, usize)>) -> Vec<Verdict> {
    let mut cfg = EngineConfig::new(fx.ds.split);
    cfg.n_shards = n_shards;
    cfg.panic_at = panic_at;
    let engine = Engine::new(Arc::clone(&fx.model), cfg);
    for batch in fx.clean.chunks(fx.ds.n_nodes()) {
        engine.ingest(batch.to_vec()).expect("stream shard alive");
    }
    engine.finish().verdicts
}

#[test]
fn verdicts_bit_identical_with_observability_on_and_off() {
    let _l = test_lock();
    let fx = fixture();
    for n_shards in [1usize, 2, 4] {
        obs::disable_all();
        obs::trace::reset();
        obs::metrics::global().reset();
        let off = run_stream(fx, n_shards);

        // Disabled means no-op: nothing may have landed in either store.
        assert!(
            obs::trace::all_stats().is_empty(),
            "spans recorded while disabled"
        );
        assert!(
            obs::metrics::global()
                .histogram_quantile(sm::POINT_SECONDS, &[], 0.5)
                .is_none(),
            "histogram observed while disabled"
        );

        obs::enable_all();
        let on = run_stream(fx, n_shards);
        obs::disable_all();

        assert!(!off.is_empty());
        assert_eq!(off.len(), on.len(), "{n_shards} shards: verdict count");
        for (a, b) in off.iter().zip(&on) {
            assert_eq!((a.node, a.step), (b.node, b.step), "{n_shards} shards");
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{n_shards} shards: node {} step {}: off {} vs on {}",
                a.node,
                a.step,
                a.score,
                b.score
            );
            assert_eq!(a.anomalous, b.anomalous);
            assert_eq!(a.cluster, b.cluster);
            assert_eq!(a.kind, b.kind);
        }

        // ...and the enabled run actually measured something.
        let reg = obs::metrics::global();
        assert!(
            reg.histogram_quantile(sm::POINT_SECONDS, &[], 0.5)
                .is_some(),
            "{n_shards} shards: point latency histogram stayed empty"
        );
        assert!(
            reg.histogram_quantile(sm::INGEST_SECONDS, &[], 0.5)
                .is_some(),
            "{n_shards} shards: ingest histogram stayed empty"
        );
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to exporter");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

#[test]
fn metrics_endpoint_serves_every_family_over_a_socket() {
    let _l = test_lock();
    let fx = fixture();
    obs::metrics::global().reset();
    obs::enable_all();
    let verdicts = run_stream(fx, 2);
    obs::disable_all();
    assert!(!verdicts.is_empty());

    let server = Engine::serve_metrics("127.0.0.1:0").expect("bind ephemeral port");
    let resp = http_get(server.local_addr(), "/metrics");
    server.shutdown();

    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
    let body = resp.split_once("\r\n\r\n").expect("header/body split").1;

    // Parse the exposition format: every family must announce # HELP and
    // # TYPE, every sample must belong to the family announced above it
    // and carry a parseable value.
    let mut families: BTreeMap<String, usize> = BTreeMap::new();
    let mut helped: HashSet<String> = HashSet::new();
    let mut current: Option<String> = None;
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP name");
            helped.insert(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name");
            let kind = it.next().expect("TYPE kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown type in {line:?}"
            );
            assert!(helped.contains(name), "# TYPE before # HELP for {name}");
            families.insert(name.to_string(), 0);
            current = Some(name.to_string());
        } else {
            let fam = current.as_ref().expect("sample line before any # TYPE");
            let name_end = line.find(['{', ' ']).expect("sample name boundary");
            assert!(
                line[..name_end].starts_with(fam.as_str()),
                "sample {line:?} outside family {fam}"
            );
            let value = line.rsplit(' ').next().expect("sample value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
            *families.get_mut(fam).expect("family registered") += 1;
        }
    }

    for name in [
        sm::QUEUE_DEPTH,
        sm::REORDER_OCCUPANCY,
        sm::INGEST_SECONDS,
        sm::MATCH_SECONDS,
        sm::SCORE_SECONDS,
        sm::POINT_SECONDS,
        sm::TICKS_TOTAL,
        sm::VERDICTS_TOTAL,
        sm::FAULTS_TOTAL,
    ] {
        let samples = families.get(name).copied();
        assert!(
            samples.is_some_and(|n| n > 0),
            "family {name} missing or empty: {samples:?}\n{body}"
        );
    }

    // Both shards of the run expose their queue-depth series, drained
    // back to zero after finish().
    for shard in 0..2 {
        let series = format!("ns_stream_shard_queue_depth{{shard=\"{shard}\"}} 0");
        assert!(body.contains(&series), "missing/nonzero {series}\n{body}");
    }
    // Every fault class is bridged as a labeled series — all zero on
    // this clean feed.
    for (class, _) in FaultCounters::default().as_pairs() {
        let series = format!("ns_stream_faults_total{{class=\"{class}\"}} 0");
        assert!(body.contains(&series), "missing/nonzero {series}\n{body}");
    }
}

/// The flight recorder's contract, held on a feed that actually goes
/// wrong: with the event journal on and incident triggers armed, a
/// `panic_at` chaos run (worker panic → node quarantine → incident
/// capture) still produces verdicts bit-identical to the fully-disabled
/// run at 1, 2, and 4 shards — and the quarantine incident it fires is
/// complete, field by field.
#[test]
fn recorder_and_triggers_hold_bit_identity_on_a_faulted_feed() {
    let _l = test_lock();
    let fx = fixture();
    let panic_node = 1usize;
    let panic_step = fx.ds.split + 3;
    let fingerprint = format!("{:016x}", fx.model.fingerprint());

    for n_shards in [1usize, 2, 4] {
        obs::disable_all();
        obs::trace::reset();
        obs::metrics::global().reset();
        obs::events::reset();
        obs::incident::reset();

        let off = run_stream_with(fx, n_shards, Some((panic_node, panic_step)));
        assert_eq!(
            obs::events::stats().recorded,
            0,
            "journal appended while disabled"
        );
        assert_eq!(
            obs::incident::stats().captured,
            0,
            "incident captured while disarmed"
        );

        obs::enable_all();
        obs::incident::set_armed(true);
        obs::incident::set_min_interval(std::time::Duration::ZERO);
        // One completed span so the incident's span_report has a real row.
        drop(obs::trace::span("equivalence_probe"));
        let on = run_stream_with(fx, n_shards, Some((panic_node, panic_step)));
        obs::disable_all();
        obs::incident::set_min_interval(obs::incident::DEFAULT_MIN_INTERVAL);

        assert!(!off.is_empty());
        assert_eq!(off.len(), on.len(), "{n_shards} shards: verdict count");
        for (a, b) in off.iter().zip(&on) {
            assert_eq!((a.node, a.step), (b.node, b.step), "{n_shards} shards");
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{n_shards} shards: node {} step {} diverged with recorder on",
                a.node,
                a.step
            );
            assert_eq!(a.anomalous, b.anomalous);
            assert_eq!(a.cluster, b.cluster);
            assert_eq!(a.kind, b.kind);
        }
        // The quarantined node stops producing verdicts at the panic
        // step in *both* runs — the fault actually happened.
        assert!(
            !off.iter()
                .any(|v| v.node == panic_node && v.step > panic_step),
            "{n_shards} shards: quarantine never took effect"
        );

        // The enabled run journaled the whole story...
        let js = obs::events::stats();
        assert!(js.recorded > 0, "{n_shards} shards: journal stayed empty");
        let recent = obs::events::recent(js.len);
        assert!(
            recent
                .iter()
                .any(|e| e.kind == obs::EventKind::Quarantine && e.node == panic_node as i64),
            "{n_shards} shards: no quarantine event in the journal"
        );
        assert!(
            recent.iter().any(|e| e.kind == obs::EventKind::Verdict),
            "{n_shards} shards: no verdict events in the journal"
        );

        // ...and captured exactly the incident the satellite demands,
        // validated field by field.
        let incidents = obs::incident::incidents();
        let inc = incidents
            .iter()
            .find(|i| i.trigger == "quarantine")
            .unwrap_or_else(|| {
                panic!("{n_shards} shards: no quarantine incident in {incidents:?}")
            });
        assert!(
            inc.reason.contains(&format!("node {panic_node}")),
            "reason omits the node: {:?}",
            inc.reason
        );
        assert!(
            inc.reason.contains(&format!("step {panic_step}")),
            "reason omits the step: {:?}",
            inc.reason
        );
        assert!(inc.t_ns > 0, "monotonic timestamp missing");
        assert!(inc.unix_ms > 0, "wall-clock timestamp missing");
        assert!(
            !inc.events.is_empty() && inc.events.len() <= obs::incident::MAX_EVENTS_PER_INCIDENT,
            "snapshot holds {} events",
            inc.events.len()
        );
        assert!(
            inc.events
                .iter()
                .any(|e| e.kind == obs::EventKind::Quarantine),
            "snapshot misses the quarantine event itself"
        );
        assert!(
            inc.metrics_delta
                .iter()
                .any(|m| m.name.starts_with("ns_stream_")),
            "no engine metric moved in the delta: {:?}",
            inc.metrics_delta
        );
        assert!(
            inc.span_report.contains("equivalence_probe"),
            "span report misses the completed span: {:?}",
            inc.span_report
        );
        assert!(
            inc.context.contains(&fingerprint),
            "context misses the model fingerprint {fingerprint}: {:?}",
            inc.context
        );
        assert!(
            inc.context.contains("\"scoring_precision\":\"f64\""),
            "context misses the bit-critical scoring tier: {:?}",
            inc.context
        );
        let line = inc.to_json();
        assert!(
            line.contains("\"trigger\":\"quarantine\"") && line.contains("\"events\":["),
            "JSONL dump incomplete: {line}"
        );
    }
}

/// Scrape every operational route over a real socket against live
/// engine state: health/readiness, the composed `/statusz` (including
/// the engine's own section), the journal tail, the incident dump, and
/// the failure paths (404, bad query, malformed request, wrong method).
#[test]
fn operational_routes_serve_live_state_over_a_socket() {
    let _l = test_lock();
    let fx = fixture();
    obs::metrics::global().reset();
    obs::events::reset();
    obs::incident::reset();
    obs::enable_all();
    obs::incident::set_armed(true);
    obs::incident::set_min_interval(std::time::Duration::ZERO);
    let verdicts = run_stream_with(fx, 2, Some((0, fx.ds.split + 2)));
    obs::disable_all();
    obs::incident::set_min_interval(obs::incident::DEFAULT_MIN_INTERVAL);
    assert!(!verdicts.is_empty());

    let server = Engine::serve_metrics("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();

    let healthz = http_get(addr, "/healthz");
    assert!(healthz.starts_with("HTTP/1.1 200 OK"), "{healthz}");
    assert!(healthz.ends_with("ok\n"), "{healthz}");

    let readyz = http_get(addr, "/readyz");
    assert!(readyz.starts_with("HTTP/1.1 200 OK"), "{readyz}");
    assert!(readyz.ends_with("ready\n"), "{readyz}");

    let statusz = http_get(addr, "/statusz");
    assert!(statusz.starts_with("HTTP/1.1 200 OK"), "{statusz}");
    assert!(statusz.contains("application/json"), "{statusz}");
    let fingerprint = format!("{:016x}", fx.model.fingerprint());
    let fp_needle = format!("\"model_fingerprint\":\"{fingerprint}\"");
    for needle in [
        "\"uptime_s\":",
        "\"ready\":true",
        "\"events\":",
        "\"incidents\":",
        "\"stream\":{",
        "\"shard_queue_depths\":[",
        "\"verdicts\":{",
        fp_needle.as_str(),
    ] {
        assert!(
            statusz.contains(needle),
            "statusz misses {needle}: {statusz}"
        );
    }

    let events = http_get(addr, "/debug/events?n=5");
    assert!(events.starts_with("HTTP/1.1 200 OK"), "{events}");
    assert!(
        events.contains("\"events\":[") && events.contains("\"kind\":"),
        "{events}"
    );

    let bad_n = http_get(addr, "/debug/events?n=bogus");
    assert!(bad_n.starts_with("HTTP/1.1 400"), "{bad_n}");
    let bad_param = http_get(addr, "/debug/events?m=10");
    assert!(bad_param.starts_with("HTTP/1.1 400"), "{bad_param}");

    let incidents = http_get(addr, "/debug/incidents");
    assert!(incidents.starts_with("HTTP/1.1 200 OK"), "{incidents}");
    assert!(incidents.contains("application/x-ndjson"), "{incidents}");
    assert!(
        incidents.contains("\"trigger\":\"quarantine\""),
        "captured incident missing from dump: {incidents}"
    );
    assert!(
        incidents.contains("\"scoring_precision\":\"f64\""),
        "incident context misses the scoring tier: {incidents}"
    );
    assert!(
        incidents.contains("\"meta\":\"ns-obs-incidents\""),
        "dump meta line missing: {incidents}"
    );

    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    // Wrong method and an outright malformed request line.
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(s, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read");
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");

    let mut s = TcpStream::connect(addr).expect("connect");
    write!(s, "garbage\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    server.shutdown();
}
