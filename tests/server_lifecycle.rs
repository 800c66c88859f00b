//! Both listening surfaces — the ingest server (`Engine::serve_ingest`)
//! and the ops exporter (`ns_obs::exporter::serve`) — reclaim every
//! connection thread, so a long-running process does not grow with the
//! number of connections it has served, and both stop promptly with
//! clients still connected.
//!
//! An exited thread that was never joined or detached keeps its stack
//! and guard page mapped, so the probe is the line count of
//! `/proc/self/maps`. The first connections grow the process for other
//! reasons (glibc's per-thread malloc arenas, its stack cache), so the
//! count is taken after a warm-up.
#![cfg(target_os = "linux")]

mod common;

use common::{engine_cfg, setup};
use nodesentry::obs::{self, exporter};
use nodesentry::stream::Engine;
use nodesentry::telemetry::{http_get, subscribe_verdicts, IngestClient};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const WARM_UP: usize = 100;
const PROBED: usize = 500;
/// Mappings the probed connections may add: an unreclaimed thread adds
/// two (stack and guard), so a leak reads about `2 × PROBED`.
const MAPS_SLACK: usize = 100;

/// The two tests measure the whole process, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("/proc/self/maps")
        .lines()
        .count()
}

/// Mappings added by `PROBED` connections made after `WARM_UP` others,
/// each made and closed by `connect_once`.
fn mappings_added(connect_once: impl Fn()) -> usize {
    (0..WARM_UP).for_each(|_| connect_once());
    // Let the last warm-up thread exit before the baseline is read.
    std::thread::sleep(Duration::from_millis(300));
    let before = mappings();
    (0..PROBED).for_each(|_| connect_once());
    std::thread::sleep(Duration::from_millis(300));
    mappings().saturating_sub(before)
}

#[test]
fn connection_threads_are_reclaimed_on_both_surfaces() {
    let fx = setup();
    let _turn = serial();

    let server = Engine::new(Arc::clone(&fx.model), engine_cfg(fx, 1))
        .serve_ingest("127.0.0.1:0")
        .expect("bind ingest");
    let addr = server.local_addr();
    // A round trip per connection: its thread has served it before the
    // client hangs up.
    let ingest = mappings_added(|| {
        let mut client = IngestClient::connect(addr).expect("connect ingest");
        client.ping().expect("pong");
    });
    assert!(server.shutdown().is_none(), "nobody finished the run");

    let metrics = exporter::serve("127.0.0.1:0").expect("bind exporter");
    let addr = metrics.local_addr();
    let exported = mappings_added(|| {
        http_get(addr, "/healthz").expect("healthz");
    });
    metrics.shutdown();

    println!("mappings added by {PROBED} connections: ingest {ingest}, exporter {exported}");
    assert!(
        ingest < MAPS_SLACK,
        "{PROBED} ingest connections added {ingest} mappings"
    );
    assert!(
        exported < MAPS_SLACK,
        "{PROBED} exporter connections added {exported} mappings"
    );
}

/// Wait until the process-global registry renders `line`.
fn await_metric(line: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !obs::metrics::global().render().lines().any(|l| l == line) {
        assert!(
            Instant::now() < deadline,
            "the server never reported `{line}`"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Stopping joins every connection thread, so it waits for each handler:
/// an idle ingest connection and a verdict subscriber must notice the
/// stop flag and return.
#[test]
fn shutdown_is_prompt_with_idle_clients_connected() {
    let fx = setup();
    let _turn = serial();
    obs::metrics::set_enabled(true);
    let server = Engine::new(Arc::clone(&fx.model), engine_cfg(fx, 1))
        .serve_ingest("127.0.0.1:0")
        .expect("bind ingest");
    let addr: SocketAddr = server.local_addr();
    let _idle = TcpStream::connect(addr).expect("idle connection");
    let subscriber = std::thread::spawn(move || subscribe_verdicts(addr));
    // Both handlers are running, and the subscriber's waits for a run
    // nobody will finish.
    await_metric("ns_wire_active_connections 2");
    await_metric("ns_wire_connections_total{role=\"verdicts\"} 1");

    let t0 = Instant::now();
    assert!(server.shutdown().is_none());
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "shutdown waited {took:?} on connected clients"
    );
    let verdicts = subscriber.join().expect("subscriber thread");
    assert!(
        verdicts.is_err(),
        "a subscriber to an unfinished run gets no report"
    );
}
