//! What `IngestClient` actually puts on the socket, and what the ingest
//! server does with a read that holds good frames before a bad one.
//!
//! `wire_equivalence.rs` proves the *verdict* side of the client (a run
//! over the wire scores bit-identically under every socket fault). This
//! suite pins the *byte* side: a clean cycle reaches a raw listener as
//! exactly the concatenation of its single-frame encodings, however the
//! client batches its writes, and a seeded chaos plan still exercises
//! every fault class while delivering every tick. On the server side,
//! valid frames that share a read with a corrupt one are still ingested.

mod common;

use nodesentry::stream::{Engine, Tick};
use nodesentry::telemetry::{IngestClient, SocketFaultPlan};
use nodesentry::wire::{
    encode_frame, error_code, read_frame, tick_frame_len, Frame, FrameAssembler,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

fn tick(node: usize, step: usize, n_values: usize) -> Tick {
    Tick {
        node,
        step,
        values: (0..n_values)
            .map(|i| (step * 131 + node * 17 + i) as f64 * 0.25)
            .collect(),
        transition: step.is_multiple_of(50),
    }
}

fn cycle(step: usize, n_nodes: usize, n_values: usize) -> Vec<Tick> {
    (0..n_nodes)
        .map(|node| tick(node, step, n_values))
        .collect()
}

/// Everything one connection to a bare listener sends until it closes.
fn received_by_raw_listener(send: impl FnOnce(SocketAddr)) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let reader = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut bytes = Vec::new();
        conn.read_to_end(&mut bytes).expect("read to EOF");
        bytes
    });
    send(addr);
    reader.join().expect("reader thread")
}

#[test]
fn clean_cycles_arrive_as_the_concatenated_single_frames() {
    // A real-sized cycle (one write), a batch several times the
    // client's flush bound (several writes), and single ticks.
    let real = cycle(0, 16, 564);
    let big = cycle(1, 200, 564);
    assert!(big.iter().map(tick_frame_len).sum::<usize>() > 3 * 256 * 1024);
    let lone = tick(3, 2, 5);
    let got = received_by_raw_listener(|addr| {
        let mut client = IngestClient::connect(addr).expect("connect");
        client.send_cycle(&real).expect("send cycle");
        client.send_cycle(&[]).expect("an empty cycle is nothing");
        client.send_cycle(&big).expect("send big batch");
        client.send_tick(&lone).expect("send tick");
    });
    let want: Vec<u8> = real
        .iter()
        .chain(&big)
        .chain([&lone])
        .flat_map(|t| encode_frame(&Frame::Tick(t.clone())))
        .collect();
    assert_eq!(got.len(), want.len());
    assert!(got == want, "bytes on the wire differ from encode_frame");
}

/// Stand-in for the ingest server that needs no model: answers pings,
/// and returns the ticks each connection delivered, in accept order.
struct FakeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<Vec<Vec<Tick>>>,
}

impl FakeServer {
    fn start() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let conn = conn.expect("accept");
                conns.push(std::thread::spawn(move || serve_conn(conn)));
            }
            conns
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect()
        });
        FakeServer { addr, stop, accept }
    }

    /// Stop accepting and collect every connection's ticks. All clients
    /// must be dropped first: a connection ends at its EOF.
    fn finish(self) -> Vec<Vec<Tick>> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.accept.join().expect("accept thread")
    }
}

fn serve_conn(mut conn: TcpStream) -> Vec<Tick> {
    let mut asm = FrameAssembler::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut frames = Vec::new();
    let mut ticks = Vec::new();
    loop {
        let n = conn.read(&mut buf).expect("read");
        if n == 0 {
            return ticks; // a torn half frame is simply never completed
        }
        asm.push_into(&buf[..n], &mut frames)
            .expect("the client only sends valid frames");
        for frame in frames.drain(..) {
            match frame {
                Frame::Tick(t) => ticks.push(t),
                Frame::Ping { token } => conn
                    .write_all(&encode_frame(&Frame::Pong { token }))
                    .expect("pong"),
                other => panic!("unexpected {} frame", other.kind_label()),
            }
        }
    }
}

#[test]
fn chaos_plan_fires_every_fault_class_and_delivers_every_tick() {
    let cycles: Vec<Vec<Tick>> = (0..120).map(|step| cycle(step, 16, 12)).collect();
    let server = FakeServer::start();
    let mut client =
        IngestClient::with_faults(server.addr, SocketFaultPlan::chaos(0xC11E)).expect("connect");
    for c in &cycles {
        client.send_cycle(c).expect("send");
    }
    client.ping().expect("final sync");
    let sf = client.fault_counters;
    drop(client);
    assert!(
        sf.partial_writes > 0
            && sf.stalls > 0
            && sf.disconnects > 0
            && sf.torn_resends > 0
            && sf.duplicate_conns > 0,
        "a fault class never fired: {sf:?}"
    );

    // Connections in accept order carry the stream in send order (every
    // switch is preceded by a sync); the only extras are the duplicate
    // connections' copies of ticks already delivered.
    let mut delivered: Vec<Tick> = Vec::new();
    let mut copies = 0;
    for t in server.finish().into_iter().flatten() {
        if delivered
            .iter()
            .any(|d| (d.node, d.step) == (t.node, t.step))
        {
            copies += 1;
        } else {
            delivered.push(t);
        }
    }
    assert_eq!(
        copies, sf.duplicate_conns,
        "one copy per duplicate connection"
    );
    let sent: Vec<Tick> = cycles.into_iter().flatten().collect();
    assert!(
        delivered == sent,
        "delivered ticks differ from the ticks sent"
    );
}

#[test]
fn valid_frames_sharing_a_read_with_a_corrupt_one_are_ingested() {
    let s = common::setup();
    let engine = Engine::new(Arc::clone(&s.model), common::engine_cfg(s, 2));
    let server = engine.serve_ingest("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Two good ticks and a bit-flipped third in one write: on loopback
    // they reach the server in one read.
    let mut bytes = Vec::new();
    for t in &s.clean[..2] {
        bytes.extend(encode_frame(&Frame::Tick(t.clone())));
    }
    let mut flipped = encode_frame(&Frame::Tick(s.clean[2].clone()));
    flipped[20] ^= 0x10;
    bytes.extend(flipped);
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(&bytes).expect("write");
    match read_frame(&mut conn).expect("reply") {
        Some(Frame::Error { code, .. }) => assert_eq!(code, error_code::PROTOCOL),
        other => panic!("wanted a typed error for the corrupt frame, got {other:?}"),
    }
    assert!(
        matches!(read_frame(&mut conn), Ok(None)),
        "then a clean close"
    );

    // The error frame was written after the prefix went to the engine.
    let client = IngestClient::connect(addr).expect("connect");
    let (_, report) = client.finish().expect("finish");
    assert_eq!(report.n_ticks, 2, "the two valid ticks were ingested");
    server.shutdown();
}
