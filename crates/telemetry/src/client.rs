//! Thin blocking wire client: drives a remote `Engine::serve_ingest`
//! endpoint with [`ns_wire`] frames.
//!
//! This is the collector side of the deployment story — what runs on (or
//! next to) each monitored node, feeding samples to the central
//! detector. It stays deliberately dumb: one blocking TCP stream, one
//! write per cycle, no retry queue. Backpressure is the kernel's — when
//! the server stops reading (its engine queues are full), `send_cycle`
//! blocks in `write`.
//!
//! The client doubles as the socket-fault rig: constructed
//! [`with_faults`](IngestClient::with_faults), it perturbs its own
//! transport per a seeded [`SocketFaultPlan`] — partial writes, stalls,
//! clean disconnect/reconnect cycles, torn frames with resend, duplicate
//! connections — while keeping the delivered tick sequence equivalent,
//! so the differential suite can prove the server+engine absorb all of
//! it without changing a verdict bit.

use crate::faults::{SocketFaultAction, SocketFaultCounters, SocketFaultInjector, SocketFaultPlan};
use ns_wire::{
    encode_frame, encode_ticks_into, error_code, tick_frame_len, Frame, FrameAssembler, ReportMsg,
    Role, ScoringPrecision, Tick, VerdictMsg, WireError,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long [`IngestClient::finish`] and verdict subscriptions wait for
/// the server before giving up. Finalizing scores every open segment, so
/// this is generous; it exists to fail tests instead of hanging them.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(600);

/// Encoded bytes past which a run of clean ticks is written out before
/// the cycle ends: room for a whole 16-node × 564-metric cycle (71 KiB)
/// in one `write`, while a caller handing over thousands of ticks at
/// once pins this much, not the whole batch.
const FLUSH_BOUND: usize = 256 * 1024;

/// Blocking wire client for one ingest connection.
pub struct IngestClient {
    addr: SocketAddr,
    stream: TcpStream,
    asm: FrameAssembler,
    /// Frames decoded but not yet consumed (e.g. a current pong arriving
    /// in the same read chunk as a stale one).
    pending: VecDeque<Frame>,
    faults: Option<SocketFaultInjector>,
    /// Which socket faults this session actually exercised.
    pub fault_counters: SocketFaultCounters,
    /// Encoded tick frames on their way to the socket; reused by every
    /// write.
    out: Vec<u8>,
    /// Last tick frame confirmed ingested (via ping) — the bytes a
    /// duplicate connection re-sends. Empty until a tick was synced.
    last_synced_tick: Vec<u8>,
    /// Most recent tick frame sent but not yet covered by a ping; empty
    /// when there is none.
    last_sent_tick: Vec<u8>,
    next_token: u64,
}

/// The first address `addr` resolves to.
fn resolve(addr: impl ToSocketAddrs) -> Result<SocketAddr, WireError> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| WireError::Io("address resolved to nothing".into()))
}

fn connect(addr: &SocketAddr) -> Result<TcpStream, WireError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    Ok(stream)
}

impl IngestClient {
    /// Connect to a serving engine, e.g. `"127.0.0.1:9500"`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::with_faults(addr, SocketFaultPlan::none())
    }

    /// Connect with a seeded socket-fault schedule perturbing every
    /// outgoing frame (see [`SocketFaultPlan`]).
    pub fn with_faults(addr: impl ToSocketAddrs, plan: SocketFaultPlan) -> Result<Self, WireError> {
        let addr = resolve(addr)?;
        let stream = connect(&addr)?;
        let faults = if plan.is_none() {
            None
        } else {
            Some(SocketFaultInjector::new(plan))
        };
        Ok(IngestClient {
            addr,
            stream,
            asm: FrameAssembler::new(),
            pending: VecDeque::new(),
            faults,
            fault_counters: SocketFaultCounters::default(),
            out: Vec::new(),
            last_synced_tick: Vec::new(),
            last_sent_tick: Vec::new(),
            next_token: 1,
        })
    }

    /// Sync in-flight frames, close cleanly, and open a fresh
    /// connection. Safe mid-stream: the ping guarantees everything sent
    /// so far is already in the engine before the socket drops.
    pub fn reconnect(&mut self) -> Result<(), WireError> {
        self.ping()?;
        self.reopen()
    }

    /// Replace the stream with a fresh connection, dropping whatever the
    /// old one had decoded.
    fn reopen(&mut self) -> Result<(), WireError> {
        self.stream = connect(&self.addr)?;
        self.asm = FrameAssembler::new();
        self.pending.clear();
        Ok(())
    }

    /// Send one tick, applying the next scheduled socket fault (if any).
    pub fn send_tick(&mut self, tick: &Tick) -> Result<(), WireError> {
        self.send_cycle(std::slice::from_ref(tick))
    }

    /// Send one replay cycle (or any batch). Every tick draws its
    /// scheduled socket fault in order; a run of clean ticks is encoded
    /// into one buffer and leaves in one `write` (or several, for a
    /// batch past the 256 KiB flush bound), while a faulted tick first
    /// lets the run before it out and then has its own frame perturbed.
    /// Nothing stays buffered when this returns.
    pub fn send_cycle(&mut self, ticks: &[Tick]) -> Result<(), WireError> {
        // First tick of the clean run not yet written, and that run's
        // encoded size so far.
        let mut start = 0;
        let mut run_bytes = 0;
        for (i, tick) in ticks.iter().enumerate() {
            let action = match self.faults.as_mut() {
                Some(inj) => inj.next_action(),
                None => SocketFaultAction::Clean,
            };
            if action == SocketFaultAction::Clean {
                run_bytes += tick_frame_len(tick);
                if run_bytes < FLUSH_BOUND {
                    continue;
                }
                self.write_ticks(&ticks[start..=i])?;
            } else {
                self.write_ticks(&ticks[start..i])?;
                self.send_faulted(tick, action)?;
            }
            start = i + 1;
            run_bytes = 0;
        }
        self.write_ticks(&ticks[start..])
    }

    /// Encode `ticks` into the reused buffer, write it once, and keep a
    /// copy of the last frame for a later duplicate connection.
    fn write_ticks(&mut self, ticks: &[Tick]) -> Result<(), WireError> {
        let Some(last) = ticks.last() else {
            return Ok(());
        };
        self.out.clear();
        encode_ticks_into(ticks, &mut self.out);
        self.stream.write_all(&self.out)?;
        self.last_sent_tick.clear();
        self.last_sent_tick
            .extend_from_slice(&self.out[self.out.len() - tick_frame_len(last)..]);
        Ok(())
    }

    /// Deliver one tick's frame through a non-clean socket fault.
    fn send_faulted(&mut self, tick: &Tick, action: SocketFaultAction) -> Result<(), WireError> {
        let mut bytes = std::mem::take(&mut self.out);
        bytes.clear();
        encode_ticks_into(std::slice::from_ref(tick), &mut bytes);
        match action {
            SocketFaultAction::Clean => unreachable!("clean ticks leave through write_ticks"),
            SocketFaultAction::PartialWrite { chunks } => {
                self.fault_counters.partial_writes += 1;
                let step = bytes.len().div_ceil(chunks.max(1));
                for chunk in bytes.chunks(step.max(1)) {
                    self.stream.write_all(chunk)?;
                    self.stream.flush()?;
                    // A beat between chunks so the server's read sees a
                    // genuinely split frame, not one coalesced buffer.
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            SocketFaultAction::Stall { ms } => {
                self.fault_counters.stalls += 1;
                std::thread::sleep(Duration::from_millis(ms));
                self.stream.write_all(&bytes)?;
            }
            SocketFaultAction::Disconnect => {
                self.fault_counters.disconnects += 1;
                self.reconnect()?;
                self.stream.write_all(&bytes)?;
            }
            SocketFaultAction::TornResend => {
                self.fault_counters.torn_resends += 1;
                // Sync so the abort can't take committed frames with it,
                // tear this frame mid-write, then resend it whole on a
                // fresh connection — at-least-once, server-side the torn
                // prefix is dropped and counted.
                self.ping()?;
                let cut = (bytes.len() / 2).max(1);
                self.stream.write_all(&bytes[..cut])?;
                self.stream.flush()?;
                self.reopen()?;
                self.stream.write_all(&bytes)?;
            }
            SocketFaultAction::DuplicateConn => {
                self.fault_counters.duplicate_conns += 1;
                self.stream.write_all(&bytes)?;
                // Redeliver an already-consumed tick on a second
                // connection: the ping proves the engine consumed it, so
                // the copy must be rejected as a duplicate.
                self.ping()?;
                if !self.last_synced_tick.is_empty() {
                    let mut second = connect(&self.addr)?;
                    second.write_all(&self.last_synced_tick)?;
                    second.flush()?;
                }
            }
        }
        self.last_sent_tick.clear();
        self.last_sent_tick.extend_from_slice(&bytes);
        self.out = bytes;
        Ok(())
    }

    /// Announce the scoring tier this client's consumers expect and
    /// confirm the engine runs it. The server refuses a mismatched
    /// session with a typed `Error` frame; the trailing ping makes that
    /// refusal synchronous instead of surfacing on some later read.
    /// Clients that never announce are accepted under any tier.
    pub fn announce_precision(&mut self, precision: ScoringPrecision) -> Result<(), WireError> {
        self.stream.write_all(&encode_frame(&Frame::Hello {
            role: Role::Ingest,
            client_id: 0,
            precision: Some(precision),
        }))?;
        self.stream.flush()?;
        self.ping().map(|_| ())
    }

    /// Round-trip a ping. The pong confirms every frame sent before it
    /// has been ingested, so the returned duration is a true end-to-end
    /// (client → engine → client) latency sample.
    pub fn ping(&mut self) -> Result<Duration, WireError> {
        let token = self.next_token;
        self.next_token += 1;
        let t0 = Instant::now();
        self.stream
            .write_all(&encode_frame(&Frame::Ping { token }))?;
        self.stream.flush()?;
        loop {
            match self.read_frame_deadline(t0)? {
                Frame::Pong { token: got } if got == token => break,
                Frame::Pong { .. } => continue, // stale token from a prior ping
                Frame::Error { code, msg } => {
                    return Err(server_error(code, msg));
                }
                other => {
                    return Err(WireError::Decode(format!(
                        "unexpected {} frame while waiting for pong",
                        other.kind_label()
                    )))
                }
            }
        }
        let rtt = t0.elapsed();
        if !self.last_sent_tick.is_empty() {
            std::mem::swap(&mut self.last_synced_tick, &mut self.last_sent_tick);
            self.last_sent_tick.clear();
        }
        Ok(rtt)
    }

    /// Finalize the run: the server flushes every node, then streams the
    /// complete verdict set and a closing report back on this connection.
    pub fn finish(mut self) -> Result<(Vec<VerdictMsg>, ReportMsg), WireError> {
        self.stream.write_all(&encode_frame(&Frame::Finish))?;
        self.stream.flush()?;
        let initial: Vec<Frame> = self.pending.drain(..).collect();
        collect_verdicts(&mut self.stream, &mut self.asm, initial)
    }

    /// Pop the next whole frame, polling until [`RESPONSE_DEADLINE`].
    fn read_frame_deadline(&mut self, t0: Instant) -> Result<Frame, WireError> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(f) = self.pending.pop_front() {
                return Ok(f);
            }
            if t0.elapsed() > RESPONSE_DEADLINE {
                return Err(WireError::Io("server response deadline exceeded".into()));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(WireError::Io("server closed the connection".into()));
                }
                Ok(n) => self.pending.extend(self.asm.push(&buf[..n])?),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

fn server_error(code: u8, msg: String) -> WireError {
    let label = match code {
        error_code::REJECTED => "rejected",
        error_code::PROTOCOL => "protocol",
        error_code::ENGINE => "engine",
        _ => "unknown",
    };
    WireError::Io(format!("server error ({label}): {msg}"))
}

/// Minimal blocking HTTP/1.1 GET against the ns-obs exporter — enough
/// for ops tooling and examples to poll `/statusz`, `/metrics`, or the
/// debug routes without an HTTP client dependency. Returns the response
/// **body**; any non-2xx status is an error carrying the status line.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<String> {
    use std::io::{Error, ErrorKind::InvalidData};
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: ns\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| Error::new(InvalidData, "response without header/body split"))?;
    let status = head.lines().next().unwrap_or_default();
    let code: u16 = status
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    if !(200..300).contains(&code) {
        return Err(Error::new(InvalidData, format!("GET {path}: {status}")));
    }
    Ok(body.to_string())
}

/// Subscribe to the verdict stream on its own connection: blocks until
/// some ingest client finalizes the run, then returns the whole verdict
/// set plus the closing report. Late subscribers (after the run already
/// finished) get the same retained stream.
pub fn subscribe_verdicts(
    addr: impl ToSocketAddrs,
) -> Result<(Vec<VerdictMsg>, ReportMsg), WireError> {
    let mut stream = connect(&resolve(addr)?)?;
    stream.write_all(&encode_frame(&Frame::Hello {
        role: Role::Verdicts,
        client_id: 0,
        precision: None,
    }))?;
    stream.flush()?;
    let mut asm = FrameAssembler::new();
    collect_verdicts(&mut stream, &mut asm, Vec::new())
}

/// Drain a verdict stream until its closing [`Frame::Report`],
/// processing any already-decoded `initial` frames first.
fn collect_verdicts(
    stream: &mut TcpStream,
    asm: &mut FrameAssembler,
    initial: Vec<Frame>,
) -> Result<(Vec<VerdictMsg>, ReportMsg), WireError> {
    let t0 = Instant::now();
    let mut verdicts = Vec::new();
    let mut frames = initial;
    let mut buf = [0u8; 64 * 1024];
    loop {
        if let Some(report) = take_verdicts(frames.drain(..), &mut verdicts)? {
            return Ok((verdicts, report));
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(WireError::Io(
                    "connection closed before the report frame".into(),
                ))
            }
            Ok(n) => frames = asm.push(&buf[..n])?,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if t0.elapsed() > RESPONSE_DEADLINE {
                    return Err(WireError::Io("server response deadline exceeded".into()));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Append the verdicts among `frames` to `verdicts`, returning the
/// closing report once it arrives.
fn take_verdicts(
    frames: impl Iterator<Item = Frame>,
    verdicts: &mut Vec<VerdictMsg>,
) -> Result<Option<ReportMsg>, WireError> {
    for frame in frames {
        match frame {
            Frame::Verdict(v) => verdicts.push(v),
            Frame::Report(r) => return Ok(Some(r)),
            Frame::Pong { .. } => continue, // stale ping crossing finish
            Frame::Error { code, msg } => return Err(server_error(code, msg)),
            other => {
                return Err(WireError::Decode(format!(
                    "unexpected {} frame in verdict stream",
                    other.kind_label()
                )))
            }
        }
    }
    Ok(None)
}
