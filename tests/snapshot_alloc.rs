//! Proof that the snapshot codec streams: a counting global allocator
//! observes `EngineSnapshot::to_bytes` / `from_bytes` on a 32-node engine
//! checkpoint. Encoding allocates exactly once — its output, sized by a
//! counting walk before a byte is written — and decoding only once per
//! `Vec`/`String` it returns, plus a small constant: nothing per scalar,
//! and none of what building a `serde::Value` of the state costs on top
//! (a second buffer per array, a `String` per key). Restoring from bytes
//! then *moves* the decoded buffers into the node states: no row is
//! allocated a second time.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! swap cannot perturb any other test (`crates/core/tests/match_zero_alloc.rs`
//! is the pattern).

#[path = "snapshot_common/mod.rs"]
mod common;

use common::{engine_cfg, setup, CHUNK};
use nodesentry::stream::snapshot::EngineSnapshot;
use nodesentry::stream::{Engine, Tick};
use nodesentry::telemetry::{DatasetProfile, ScheduleConfig};
use serde::{Serialize, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Per thread: the engine's workers and the harness allocate on their
    // own threads; only the calling thread's count is the codec's.
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

/// (heap buffers a typed decode of `v` must own, scalars in `v`): every
/// non-empty array becomes one `Vec`, every string value one `String`.
fn census(v: &Value) -> (usize, usize) {
    match v {
        Value::Array(items) => items.iter().map(census).fold(
            (!items.is_empty() as usize, 0),
            |(bufs, scalars), (b, s)| (bufs + b, scalars + s),
        ),
        Value::Object(pairs) => pairs
            .iter()
            .map(|(_, v)| census(v))
            .fold((0, 0), |(bufs, scalars), (b, s)| (bufs + b, scalars + s)),
        Value::Str(_) => (1, 1),
        _ => (0, 1),
    }
}

#[test]
fn codec_allocates_per_buffer_never_per_scalar() {
    let s = setup();
    // The fixture's model over a 32-node fleet with the same metric
    // catalog, cut mid test span so buffers, jobs and pendings are live.
    let tiny = DatasetProfile::tiny();
    let fleet = DatasetProfile {
        schedule: ScheduleConfig {
            n_nodes: 32,
            ..tiny.schedule.clone()
        },
        ..tiny
    }
    .generate();
    let raws: Vec<_> = (0..fleet.n_nodes()).map(|n| fleet.raw_node(n)).collect();
    let cut = fleet.split + (fleet.horizon() - fleet.split) / 2;
    let feed: Vec<Tick> = (0..cut)
        .flat_map(|step| {
            raws.iter().enumerate().map(move |(node, raw)| Tick {
                node,
                step,
                values: raw.row(step).to_vec(),
                transition: false,
            })
        })
        .collect();
    let engine = Engine::new(Arc::clone(&s.model), engine_cfg(s, 2));
    for chunk in feed.chunks(CHUNK) {
        engine.ingest(chunk.to_vec()).expect("shard alive");
    }
    let ckpt = engine.checkpoint().expect("checkpoint");
    drop(engine);
    assert_eq!(ckpt.snapshot.nodes.len(), 32);

    let (buffers, scalars) = census(&ckpt.snapshot.to_value());
    assert!(
        scalars > 50 * buffers && scalars > 100_000,
        "fixture too small to tell per-scalar from per-buffer: {scalars} scalars, {buffers} buffers"
    );

    let (bytes, encode_allocs) = counted(|| ckpt.snapshot.to_bytes());
    assert!(bytes == ckpt.bytes);
    assert_eq!(
        encode_allocs,
        1,
        "to_bytes allocates its exactly-sized output and nothing else ({} bytes)",
        bytes.len()
    );
    assert_eq!(bytes.capacity(), bytes.len(), "reserved to the byte");

    let (decoded, decode_allocs) = counted(|| EngineSnapshot::from_bytes(&bytes));
    let decoded = decoded.expect("decode");
    assert!(
        (buffers / 2..=buffers + 8).contains(&decode_allocs),
        "from_bytes made {decode_allocs} allocations for {buffers} buffers and {scalars} scalars"
    );
    assert!(decoded.to_bytes() == bytes);

    // The by-value restore: what `restore_bytes` allocates beyond its
    // decode is per node (a fresh `NodeState`, a few dozen small buffers
    // each, and the shard threads) — never per row. Cloning the rows
    // (open-segment, deferred-job and preprocessor rows: most of the
    // buffers, nearly all of the bytes) would alone cost `rows` more.
    let rows: usize = decoded
        .nodes
        .iter()
        .map(|n| {
            let in_jobs: usize = n.jobs.iter().map(|j| j.rows.len()).sum();
            n.seg_rows.len() + in_jobs + n.pre.buf.len()
        })
        .sum();
    assert!(
        rows > buffers / 2,
        "rows are most of the buffers: {rows} of {buffers}"
    );
    let (restored, restore_allocs) =
        counted(|| Engine::restore_bytes(Arc::clone(&s.model), engine_cfg(s, 2), &bytes));
    let restored = restored.expect("restore");
    let rebuild_allocs = restore_allocs - decode_allocs;
    assert!(
        rebuild_allocs < 64 * 32 && rebuild_allocs < rows / 2,
        "rebuilding 32 nodes made {rebuild_allocs} allocations with {rows} rows to hand over"
    );
    // Handed over, not lost: the restored engine checkpoints the same bytes.
    assert!(restored.checkpoint().expect("echo").bytes == bytes);
}
