//! Proof that the wire path allocates per frame, never per value: a
//! counting global allocator observes the client's send of a warm
//! 16-tick cycle (nothing: one reused buffer) and the assembler's
//! `push_into` of a read holding *k* whole tick frames (*k* value
//! vectors plus at most the tail copy — nothing per value, no frame
//! copied to be decoded).
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! swap cannot perturb any other test (`tests/snapshot_alloc.rs` is the
//! pattern).

use nodesentry::stream::Tick;
use nodesentry::telemetry::IngestClient;
use nodesentry::wire::{encode_ticks_into, tick_frame_len, Frame, FrameAssembler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;
use std::net::TcpListener;

thread_local! {
    // Per thread: the draining peer allocates on its own thread; only
    // the calling thread's count is the code under test.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: delegates verbatim to `System`; only adds a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// `f`'s result and the allocations the calling thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const N_VALUES: usize = 564;

fn cycle(step: usize) -> Vec<Tick> {
    (0..16)
        .map(|node| Tick {
            node,
            step,
            values: (0..N_VALUES).map(|i| (step + node * i) as f64).collect(),
            transition: false,
        })
        .collect()
}

#[test]
fn warm_cycle_send_allocates_nothing() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let drain = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut sink = Vec::new();
        conn.read_to_end(&mut sink).expect("drain");
        sink.len()
    });
    let mut client = IngestClient::connect(addr).expect("connect");
    let cycles: Vec<Vec<Tick>> = (0..4).map(cycle).collect();
    client.send_cycle(&cycles[0]).expect("cold send");
    for c in &cycles[1..] {
        let ((), allocs) = counted(|| client.send_cycle(c).expect("warm send"));
        assert_eq!(allocs, 0, "a warm 16-tick cycle must reuse the buffer");
    }
    drop(client);
    let frame_len = tick_frame_len(&cycles[0][0]);
    assert_eq!(drain.join().expect("drain thread"), 4 * 16 * frame_len);
}

#[test]
fn reassembly_allocates_once_per_frame() {
    let ticks = cycle(7);
    let frame_len = tick_frame_len(&ticks[0]);
    let mut stream = Vec::new();
    encode_ticks_into(&ticks, &mut stream);
    let mut asm = FrameAssembler::new();
    let mut out: Vec<Frame> = Vec::with_capacity(ticks.len());

    // Whole frames only: the values of each, nothing else.
    let k = 9;
    let (pushed, allocs) = counted(|| asm.push_into(&stream[..k * frame_len], &mut out));
    pushed.expect("clean stream");
    assert_eq!((out.len(), asm.pending_bytes()), (k, 0));
    assert_eq!(allocs, k, "{k} frames of {N_VALUES} values");

    // A torn frame costs the copy of its pieces (the assembler's buffer
    // growing to one frame), not a copy of the read.
    let cut = (k + 1) * frame_len + 100;
    let (pushed, allocs) = counted(|| asm.push_into(&stream[k * frame_len..cut], &mut out));
    pushed.expect("clean stream");
    assert_eq!((out.len(), asm.pending_bytes()), (k + 1, 100));
    assert!(
        (1..=2).contains(&allocs),
        "one frame and its tail: {allocs}"
    );
    let (pushed, allocs) = counted(|| asm.push_into(&stream[cut..], &mut out));
    pushed.expect("clean stream");
    assert_eq!((out.len(), asm.pending_bytes()), (16, 0));
    let rest = 16 - (k + 1);
    assert!(
        (rest..=rest + 1).contains(&allocs),
        "{rest} frames, the first completed in the assembler's buffer: {allocs}"
    );
}
