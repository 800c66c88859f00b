//! Network-facing ingestion: a std-only TCP server that feeds a running
//! [`Engine`] with [`ns_wire`] frames.
//!
//! # Shape
//!
//! [`Engine::serve_ingest`] consumes the engine and binds a listener. It
//! runs on the exporter's [`AcceptLoop`]: each accepted connection gets
//! its own thread, scoped to the loop so that shutdown joins it, reading
//! frames through a [`FrameAssembler`]:
//!
//! * **Ingest connections** (the default) send [`Frame::Tick`]s,
//!   optionally probe liveness with [`Frame::Ping`], and may finalize the
//!   run with [`Frame::Finish`] — the server then flushes every node and
//!   streams the full verdict set plus a [`Frame::Report`] back on the
//!   same connection.
//! * **Verdict connections** (opened with `Hello { role: Verdicts }`)
//!   block until some ingest connection finalizes, then receive the same
//!   verdict stream. Late subscribers get it too: the finished run is
//!   retained until [`IngestServer::shutdown`].
//!
//! # Backpressure
//!
//! Deliberately socket-level and free: a connection thread does not read
//! its next chunk until [`Engine::ingest`] has accepted the previous one,
//! and `ingest` blocks when a shard's bounded queue is full. The kernel
//! socket buffer then fills and the *client's* `write` blocks — the
//! engine's queue bound propagates to the sender with no extra protocol.
//!
//! # Failure semantics
//!
//! Hostile or damaged bytes never panic and never take the server down:
//! a frame that fails to decode closes *that connection* (best-effort
//! [`Frame::Error`] first), EOF mid-frame is counted as a torn frame,
//! and the engine's own fault hardening (duplicate/late rejection,
//! bounded reorder, blackout resync) absorbs whatever a reconnecting or
//! duplicated client re-sends — `tests/wire_equivalence.rs` proves
//! verdicts stay bit-identical to in-process scoring through all of it.

use crate::metrics::wire_metrics;
use crate::{status, Engine, EngineReport, Verdict, VerdictKind};
use ns_obs::events::{self, EventKind};
use ns_obs::exporter::AcceptLoop;
use ns_wire::{error_code, Frame, FrameAssembler, ReportMsg, Role, Tick, VerdictMsg, WireError};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// Monotonic connection ids for journal attribution (the `node` slot of
/// wire events carries the connection id).
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(0);

/// Poll granularity for blocking socket reads and the verdict-subscriber
/// wait: how quickly a connection thread notices a server shutdown.
const POLL: Duration = Duration::from_millis(100);

/// A finalized over-the-wire run, retained so late verdict subscribers
/// (and [`IngestServer::shutdown`]) can still read it; each subscriber's
/// frames are rendered from it as they are written.
pub struct FinishedRun {
    /// Exactly what [`Engine::finish`] returned.
    pub report: EngineReport,
}

fn verdict_msg(v: &Verdict) -> VerdictMsg {
    VerdictMsg {
        node: v.node as u64,
        step: v.step as u64,
        score_bits: v.score.to_bits(),
        anomalous: v.anomalous,
        cluster: v.cluster as u64,
        degraded: matches!(v.kind, VerdictKind::Degraded),
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    /// `Some` while the run is live; taken by the first `Finish`.
    engine: RwLock<Option<Engine>>,
    /// Set once the run finalizes; guarded by `done_cond`.
    done: Mutex<Option<Arc<FinishedRun>>>,
    done_cond: Condvar,
    /// The accept loop's stop flag.
    stop: Arc<AtomicBool>,
}

impl Shared {
    /// Finalize the run (idempotent). The caller that actually takes the
    /// engine pays for `finish`; everyone else waits on the condvar.
    fn finalize(&self) -> Option<Arc<FinishedRun>> {
        let taken = {
            let mut guard = self.engine.write().expect("engine lock");
            guard.take()
        };
        if let Some(engine) = taken {
            let run = Arc::new(FinishedRun {
                report: engine.finish(),
            });
            let mut done = self.done.lock().expect("done lock");
            *done = Some(Arc::clone(&run));
            self.done_cond.notify_all();
            Some(run)
        } else {
            self.wait_finished()
        }
    }

    /// Block until the run finalizes or the server stops.
    fn wait_finished(&self) -> Option<Arc<FinishedRun>> {
        let mut done = self.done.lock().expect("done lock");
        loop {
            if let Some(run) = done.as_ref() {
                return Some(Arc::clone(run));
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            let (next, _timeout) = self
                .done_cond
                .wait_timeout(done, POLL)
                .expect("done cond wait");
            done = next;
        }
    }
}

/// Handle to a running ingest server: its accept loop, whose scope holds
/// every live connection thread, and the state they share.
/// [`shutdown`](IngestServer::shutdown) (or drop) stops and joins them
/// all.
pub struct IngestServer {
    /// Declared first, so a dropped server stops its connections before
    /// the engine goes.
    accept: AcceptLoop,
    shared: Arc<Shared>,
}

impl IngestServer {
    /// The bound address — with port 0 requested, the ephemeral port the
    /// OS picked.
    pub fn local_addr(&self) -> SocketAddr {
        self.accept.local_addr()
    }

    /// Stop accepting, join every connection thread, and return the
    /// finished run if any client finalized it. An engine still live at
    /// shutdown is dropped without scoring its open segments (the caller
    /// chose not to finish).
    pub fn shutdown(self) -> Option<Arc<FinishedRun>> {
        self.accept.shutdown();
        drop(self.shared.engine.write().expect("engine lock").take());
        self.shared.done.lock().expect("done lock").clone()
    }
}

impl Engine {
    /// Consume the engine and serve it over TCP on `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port). See the [module
    /// docs](crate::ingest) for the connection protocol, backpressure
    /// and failure semantics.
    pub fn serve_ingest(self, addr: &str) -> std::io::Result<IngestServer> {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            engine: RwLock::new(Some(self)),
            done: Mutex::new(None),
            done_cond: Condvar::new(),
            stop: Arc::clone(&stop),
        });
        let conn_shared = Arc::clone(&shared);
        let accept = AcceptLoop::spawn(
            TcpListener::bind(addr)?,
            "ns-wire-ingest",
            "ns-wire-conn",
            stop,
            move |stream| handle_conn(stream, &conn_shared),
        )?;
        Ok(IngestServer { accept, shared })
    }
}

/// Why a connection loop ended — drives the close-out action.
enum ConnExit {
    /// Peer closed (EOF) or the server is stopping; nothing to send.
    Closed,
    /// This connection asked to finalize; stream verdicts back to it.
    Finished,
    /// This connection subscribed to the verdict stream.
    Subscribed,
    /// Protocol violation or engine failure: best-effort error frame,
    /// then close. The server itself keeps running.
    Fail { code: u8, msg: String },
}

fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    let wm = wire_metrics();
    wm.connections_ingest.inc();
    let _active = wm.active_connections.hold();
    let conn_id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed) as i64;
    events::record(EventKind::ConnOpen, "", -1, conn_id, 0, 0);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);

    let exit = conn_loop(&mut stream, shared, conn_id);
    let exit_label = match &exit {
        ConnExit::Closed => "closed",
        ConnExit::Finished => "finished",
        ConnExit::Subscribed => "subscribed",
        ConnExit::Fail { .. } => "fail",
    };
    match exit {
        ConnExit::Closed => {}
        ConnExit::Finished | ConnExit::Subscribed => {
            if matches!(exit, ConnExit::Subscribed) {
                // Counted as ingest on accept; reclassify.
                wm.connections_verdicts.inc();
            }
            if let Some(run) = match exit {
                ConnExit::Finished => shared.finalize(),
                _ => shared.wait_finished(),
            } {
                let _ = stream_verdicts(&mut stream, &run);
            }
        }
        ConnExit::Fail { code, msg } => {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&ns_wire::encode_frame(&Frame::Error { code, msg }));
            wm.tx_bytes.add(bytes.len() as u64);
            let _ = stream.write_all(&bytes);
        }
    }
    let _ = stream.flush();
    events::record(EventKind::ConnClose, exit_label, -1, conn_id, 0, 0);
}

/// Read frames until the connection resolves into a [`ConnExit`].
fn conn_loop(stream: &mut TcpStream, shared: &Shared, conn_id: i64) -> ConnExit {
    let wm = wire_metrics();
    let mut asm = FrameAssembler::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut frames: Vec<Frame> = Vec::new();
    let mut batch: Vec<Tick> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return ConnExit::Closed;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                if asm.pending_bytes() > 0 {
                    // Peer died mid-frame; the partial frame is dropped.
                    wm.torn_frames.inc();
                }
                if let Err(e) = flush_batch(shared, &mut batch) {
                    return e;
                }
                return ConnExit::Closed;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(_) => return ConnExit::Closed,
        };
        wm.rx_bytes.add(n as u64);
        // Whole frames are decoded where the read left them. On a hard
        // error `frames` still holds the valid ones that preceded it in
        // the stream; they are handled like any others before the
        // connection is failed.
        let pushed = asm.push_into(&buf[..n], &mut frames);
        for frame in frames.drain(..) {
            match frame {
                Frame::Tick(t) => {
                    wm.frames_tick.inc();
                    batch.push(t);
                }
                Frame::Hello {
                    role, precision, ..
                } => {
                    wm.frames("hello").inc();
                    // A client that announces a scoring tier must match
                    // the engine's: verdicts from mismatched tiers are
                    // not comparable bit-for-bit, so the session is
                    // refused up front rather than producing a silently
                    // wrong stream. Clients that announce nothing (v1
                    // peers) are accepted — they take whatever tier the
                    // engine runs.
                    if let Some(announced) = precision {
                        let engine_tier = shared
                            .engine
                            .read()
                            .expect("engine lock")
                            .as_ref()
                            .map(|e| e.scoring_precision());
                        if let Some(tier) = engine_tier {
                            if tier != announced {
                                return ConnExit::Fail {
                                    code: error_code::REJECTED,
                                    msg: format!(
                                        "scoring precision mismatch: client announced {}, engine runs {}",
                                        announced.as_str(),
                                        tier.as_str()
                                    ),
                                };
                            }
                        }
                    }
                    if matches!(role, Role::Verdicts) {
                        if let Err(e) = flush_batch(shared, &mut batch) {
                            return e;
                        }
                        events::record(EventKind::SubscriberJoin, "", -1, conn_id, 0, 0);
                        return ConnExit::Subscribed;
                    }
                }
                Frame::Ping { token } => {
                    wm.frames("ping").inc();
                    // Flush first: a Pong promises every frame received
                    // before the Ping has reached the engine, which is
                    // what makes it both an end-to-end latency probe and
                    // a safe pre-disconnect sync point.
                    if let Err(e) = flush_batch(shared, &mut batch) {
                        return e;
                    }
                    let bytes = ns_wire::encode_frame(&Frame::Pong { token });
                    wm.tx_bytes.add(bytes.len() as u64);
                    if stream.write_all(&bytes).is_err() {
                        return ConnExit::Closed;
                    }
                }
                Frame::Finish => {
                    wm.frames("finish").inc();
                    if let Err(e) = flush_batch(shared, &mut batch) {
                        return e;
                    }
                    return ConnExit::Finished;
                }
                other => {
                    // Server-to-client frames arriving at the server are
                    // a protocol violation, not a transport fault.
                    wm.frames(other.kind_label()).inc();
                    wm.errors("decode").inc();
                    events::record(
                        EventKind::ProtocolError,
                        other.kind_label(),
                        -1,
                        conn_id,
                        0,
                        0,
                    );
                    status::note_wire_error();
                    return ConnExit::Fail {
                        code: error_code::REJECTED,
                        msg: format!("unexpected {} frame from client", other.kind_label()),
                    };
                }
            }
        }
        // One `ingest` per socket read keeps the engine's bounded queues
        // as the only backpressure mechanism: no read happens while the
        // previous chunk is still waiting for queue space.
        if let Err(e) = flush_batch(shared, &mut batch) {
            return e;
        }
        if let Err(err) = pushed {
            wm.errors(err.class()).inc();
            events::record(EventKind::ProtocolError, err.class(), -1, conn_id, 0, 0);
            status::note_wire_error();
            return ConnExit::Fail {
                code: error_code::PROTOCOL,
                msg: err.to_string(),
            };
        }
    }
}

/// Hand the accumulated ticks to the engine (blocking on backpressure).
fn flush_batch(shared: &Shared, batch: &mut Vec<Tick>) -> Result<(), ConnExit> {
    if batch.is_empty() {
        return Ok(());
    }
    let wm = wire_metrics();
    wm.batch_ticks.observe(batch.len() as f64);
    let ticks = std::mem::take(batch);
    let guard = shared.engine.read().expect("engine lock");
    match guard.as_ref() {
        Some(engine) => engine.ingest(ticks).map_err(|e| {
            wm.errors("io").inc();
            ConnExit::Fail {
                code: error_code::ENGINE,
                msg: e.to_string(),
            }
        }),
        None => Err(ConnExit::Fail {
            code: error_code::REJECTED,
            msg: "run already finalized; ticks rejected".into(),
        }),
    }
}

/// Write the whole verdict stream plus the closing report, coalesced
/// into bounded chunks so one syscall carries many small frames.
fn stream_verdicts(stream: &mut TcpStream, run: &FinishedRun) -> Result<(), WireError> {
    let wm = wire_metrics();
    let verdict_counter = wm.frames("verdict");
    let report = &run.report;
    let mut chunk: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut n_degraded = 0;
    for v in &report.verdicts {
        let msg = verdict_msg(v);
        n_degraded += msg.degraded as u64;
        ns_wire::encode_frame_into(&Frame::Verdict(msg), &mut chunk);
        verdict_counter.inc();
        if chunk.len() >= 48 * 1024 {
            wm.tx_bytes.add(chunk.len() as u64);
            stream.write_all(&chunk)?;
            chunk.clear();
        }
    }
    let summary = ReportMsg {
        n_verdicts: report.verdicts.len() as u64,
        n_degraded,
        n_ticks: report.stats.n_ticks,
        n_shards: report.n_shards as u64,
    };
    ns_wire::encode_frame_into(&Frame::Report(summary), &mut chunk);
    wm.frames("report").inc();
    wm.tx_bytes.add(chunk.len() as u64);
    stream.write_all(&chunk)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Protocol-level behavior that needs no trained model: the server
    // side of `Shared` without an engine is exercised in the integration
    // suites (`tests/wire_equivalence.rs`, `crates/stream/tests/
    // wire_corruption.rs`); here we only pin the pure helpers.

    #[test]
    fn verdict_msg_preserves_score_bits() {
        let v = Verdict {
            node: 3,
            step: 97,
            score: f64::from_bits(0x7ff8_0000_dead_beef), // NaN payload
            anomalous: true,
            cluster: 2,
            kind: VerdictKind::Degraded,
            precision: crate::ScoringPrecision::F64,
        };
        let m = verdict_msg(&v);
        assert_eq!(m.score_bits, 0x7ff8_0000_dead_beef);
        assert!(m.degraded && m.anomalous);
        assert_eq!((m.node, m.step, m.cluster), (3, 97, 2));
    }
}
