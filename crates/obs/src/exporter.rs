//! Operational HTTP surface over `std::net::TcpListener`.
//!
//! One [`AcceptLoop`] hands each connection to a short-lived thread
//! scoped to the loop, with a hard per-connection deadline, so a stalled
//! (slow-loris) client can never delay other scrapes, and stopping the
//! loop joins every thread it started. The ingest server
//! (`ns_stream::Engine::serve_ingest`) runs on the same loop. No HTTP
//! library: the request line is parsed just far enough to route.
//!
//! | Route               | Serves                                              |
//! |---------------------|-----------------------------------------------------|
//! | `/metrics` (or `/`) | Prometheus text exposition of the global registry   |
//! | `/healthz`          | liveness — `200 ok` while the process runs          |
//! | `/readyz`           | readiness — `503` until [`status::set_ready`]       |
//! | `/statusz`          | [`status::render`] JSON (uptime, shards, sections)  |
//! | `/debug/events?n=`  | newest `n` journal records as JSON (default 256)    |
//! | `/debug/incidents`  | flight-recorder dumps as JSONL                      |
//!
//! Unknown paths get 404, non-GET methods 405, and an unparseable
//! request line 400 — all exercised by `tests/obs_equivalence.rs`.

use crate::{events, incident, metrics, status};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard wall-clock budget for one connection (read + respond). A client
/// that has not produced a full request head by then gets 400 and the
/// socket back.
const CONN_DEADLINE: Duration = Duration::from_secs(2);
/// Read timeout per slice — the deadline is enforced across slices.
const READ_SLICE: Duration = Duration::from_millis(100);
/// Default and maximum event counts for `/debug/events`.
const EVENTS_DEFAULT_N: usize = 256;
const EVENTS_MAX_N: usize = 65_536;

const CT_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
const CT_TEXT: &str = "text/plain; charset=utf-8";
const CT_JSON: &str = "application/json";
const CT_JSONL: &str = "application/x-ndjson";

/// One TCP accept loop with a thread per connection — the exporter's and
/// the ingest server's (`ns_stream::Engine::serve_ingest`). The accept
/// thread runs a [`std::thread::scope`], and every accepted connection is
/// served on a named thread scoped to it, so the loop cannot end before
/// each connection thread has been joined: a thread that finished is
/// reclaimed by the scope at once, and none outlives the handle.
///
/// A connection that arrives after stop is dropped unserved, and so is
/// one whose thread fails to spawn. A connection thread that panics does
/// not stop the loop; the scope re-raises its panic on the accept thread
/// when it ends, and [`shutdown`](AcceptLoop::shutdown) ignores it.
///
/// **Contract:** once the stop flag is set, a handler returns within a
/// bounded time, or stopping waits for it. The exporter's connections
/// end within their 2 s deadline; the ingest server's poll the flag every
/// 100 ms, in their reads and in the verdict-subscriber wait.
pub struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// The exporter's handle is its accept loop. Dropping it (or calling
/// [`shutdown`](AcceptLoop::shutdown)) stops the loop and joins every
/// serving thread.
pub type MetricsServer = AcceptLoop;

impl AcceptLoop {
    /// Accept on `listener` from a thread named `accept_name`, serving
    /// each connection with `handler` on a thread named `conn_name`.
    /// `stop` is the loop's flag: handlers read it to notice a stop.
    pub fn spawn<H>(
        listener: TcpListener,
        accept_name: &str,
        conn_name: &'static str,
        stop: Arc<AtomicBool>,
        handler: H,
    ) -> std::io::Result<AcceptLoop>
    where
        H: Fn(TcpStream) + Send + Sync + 'static,
    {
        let addr = listener.local_addr()?;
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(accept_name.into())
            .spawn(move || {
                let handler = &handler;
                std::thread::scope(|scope| {
                    for conn in listener.incoming() {
                        if flag.load(Ordering::SeqCst) {
                            break;
                        }
                        match conn {
                            // A slow client burns its own thread, not the
                            // accept loop. The handle is not kept: the
                            // scope joins the thread.
                            Ok(stream) => {
                                let _ = std::thread::Builder::new()
                                    .name(conn_name.into())
                                    .spawn_scoped(scope, move || handler(stream));
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                            Err(_) => break,
                        }
                    }
                })
            })?;
        Ok(AcceptLoop {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — with port 0 requested, the actual ephemeral
    /// port chosen by the OS.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, then join the accept thread and, through its
    /// scope, every connection thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        let _ = handle.join();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:9464"`, or port `0` for an ephemeral
/// port in tests) and serve the operational surface on background
/// threads. Also pins the [`status::process_epoch`] so `/statusz`
/// uptime counts from first serve at the latest.
pub fn serve(addr: &str) -> std::io::Result<MetricsServer> {
    status::process_epoch();
    AcceptLoop::spawn(
        TcpListener::bind(addr)?,
        "ns-obs-http",
        "ns-obs-http-conn",
        Arc::default(),
        |stream| {
            let _ = handle_conn(stream);
        },
    )
}

/// Route a request line's target to `(status, content-type, body)`.
/// Factored out of the socket handling so tests can hit it directly.
pub(crate) fn route(target: &str) -> (u16, &'static str, String) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" | "/" => {
            // Fold the thread pool's scheduling counters into the
            // registry so every scrape sees them fresh.
            crate::poolstats::sync();
            (200, CT_PROM, metrics::global().render())
        }
        "/healthz" => (200, CT_TEXT, "ok\n".to_string()),
        "/readyz" => {
            if status::is_ready() {
                (200, CT_TEXT, "ready\n".to_string())
            } else {
                (503, CT_TEXT, "not ready\n".to_string())
            }
        }
        "/statusz" => (200, CT_JSON, status::render()),
        "/debug/events" => match parse_events_n(query) {
            Some(n) => (200, CT_JSON, events::render_json(n)),
            None => (
                400,
                CT_TEXT,
                "bad query: expected n=<positive integer>\n".to_string(),
            ),
        },
        "/debug/incidents" => (200, CT_JSONL, incident::render_jsonl()),
        _ => (
            404,
            CT_TEXT,
            "not found; try /metrics /healthz /readyz /statusz /debug/events /debug/incidents\n"
                .to_string(),
        ),
    }
}

fn parse_events_n(query: Option<&str>) -> Option<usize> {
    let Some(query) = query else {
        return Some(EVENTS_DEFAULT_N);
    };
    let mut n = EVENTS_DEFAULT_N;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("n", v)) => n = v.parse::<usize>().ok().filter(|&n| n > 0)?,
            // Unknown parameters are rejected rather than ignored: a
            // typoed `m=10` silently serving 256 events is a debugging
            // trap.
            _ => return None,
        }
    }
    Some(n.min(EVENTS_MAX_N))
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "200 OK",
        400 => "400 Bad Request",
        404 => "404 Not Found",
        405 => "405 Method Not Allowed",
        503 => "503 Service Unavailable",
        _ => "500 Internal Server Error",
    }
}

fn handle_conn(mut stream: TcpStream) -> std::io::Result<()> {
    let deadline = Instant::now() + CONN_DEADLINE;
    stream.set_read_timeout(Some(READ_SLICE))?;
    stream.set_write_timeout(Some(READ_SLICE))?;
    // Read at most one request head; anything beyond 4 KiB is not a
    // scrape we care about.
    let mut buf = [0u8; 4096];
    let mut used = 0usize;
    let mut complete = false;
    while used < buf.len() && Instant::now() < deadline {
        match stream.read(&mut buf[used..]) {
            Ok(0) => break,
            Ok(n) => {
                used += n;
                if buf[..used].windows(4).any(|w| w == b"\r\n\r\n") {
                    complete = true;
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    if used == 0 {
        // Connected and closed without a byte (the shutdown knock).
        return Ok(());
    }
    let head = String::from_utf8_lossy(&buf[..used]);
    let mut tokens = head.lines().next().unwrap_or("").split_whitespace();
    let (code, ctype, body) = match (tokens.next(), tokens.next(), complete) {
        (Some("GET"), Some(target), true) => route(target),
        (Some("GET") | None, _, _) | (_, None, _) => (
            400,
            CT_TEXT,
            "malformed request: expected `GET <path> HTTP/1.1`\n".to_string(),
        ),
        (Some(_), Some(_), _) => (405, CT_TEXT, "method not allowed; use GET\n".to_string()),
    };
    let resp = format!(
        "HTTP/1.1 {}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        status_text(code),
        body.len(),
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_404s_elsewhere() {
        let _l = crate::test_lock();
        metrics::set_enabled(true);
        metrics::global()
            .counter("exporter_test_total", "Exporter smoke counter.", &[])
            .add(5);
        metrics::set_enabled(false);
        let server = serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.local_addr();
        let ok = get(addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.contains("exporter_test_total 5"), "{ok}");
        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        server.shutdown();
        // Port released: connecting now fails or yields no response.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(100)).is_err());
    }

    /// The body of a response, parsed as one JSON value per line.
    fn json_lines(resp: &str) -> Vec<serde_json::Value> {
        let (_, body) = resp.split_once("\r\n\r\n").expect("a response head");
        body.lines()
            .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("{e}: {l}")))
            .collect()
    }

    #[test]
    fn operational_routes_respond() {
        let _l = crate::test_lock();
        let server = serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.local_addr();
        assert!(get(addr, "/healthz").contains("ok"));
        status::set_ready(false);
        assert!(get(addr, "/readyz").starts_with("HTTP/1.1 503"));
        status::set_ready(true);
        assert!(get(addr, "/readyz").starts_with("HTTP/1.1 200"));
        let statusz = get(addr, "/statusz");
        assert!(statusz.contains("application/json"), "{statusz}");
        let [doc] = &json_lines(&statusz)[..] else {
            panic!("one status document: {statusz}");
        };
        for key in ["uptime_s", "ready", "events", "incidents", "pool"] {
            assert!(doc.get(key).is_some(), "statusz misses {key}: {statusz}");
        }
        let events = get(addr, "/debug/events?n=3");
        assert!(events.starts_with("HTTP/1.1 200"), "{events}");
        let [doc] = &json_lines(&events)[..] else {
            panic!("one events document: {events}");
        };
        assert!(matches!(
            doc.get("events"),
            Some(serde_json::Value::Array(_))
        ));
        assert!(get(addr, "/debug/events?n=zero").starts_with("HTTP/1.1 400"));
        assert!(get(addr, "/debug/events?n=0").starts_with("HTTP/1.1 400"));
        assert!(get(addr, "/debug/events?bogus=1").starts_with("HTTP/1.1 400"));
        let incidents = get(addr, "/debug/incidents");
        assert!(incidents.contains("x-ndjson"), "{incidents}");
        let meta = json_lines(&incidents).pop().expect("a meta line");
        assert_eq!(
            meta.get("meta").and_then(|m| m.as_str()),
            Some("ns-obs-incidents")
        );
        server.shutdown();
    }

    #[test]
    fn rejects_malformed_and_non_get() {
        let _l = crate::test_lock();
        let server = serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.local_addr();
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GARBAGE\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
        server.shutdown();
    }

    /// Regression: a slow-loris client (connects, trickles a partial
    /// request, never finishes) must not delay other scrapes. The old
    /// inline accept loop serialized behind it; now it burns its own
    /// worker thread's deadline.
    #[test]
    fn stalled_client_does_not_block_scrapes() {
        let _l = crate::test_lock();
        let server = serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.local_addr();
        let mut loris = TcpStream::connect(addr).unwrap();
        write!(loris, "GET /met").unwrap(); // incomplete head, held open
        let t0 = Instant::now();
        let ok = get(addr, "/metrics");
        let elapsed = t0.elapsed();
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(
            elapsed < Duration::from_millis(500),
            "scrape stalled behind slow-loris: {elapsed:?}"
        );
        // The loris eventually gets a 400 once its deadline expires —
        // the worker thread is reclaimed, not leaked.
        loris
            .set_read_timeout(Some(CONN_DEADLINE + Duration::from_secs(2)))
            .unwrap();
        let mut out = String::new();
        let _ = loris.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "loris response: {out:?}");
        server.shutdown();
    }
}
