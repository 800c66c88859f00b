//! Proof that the snapshot codec streams: a counting global allocator
//! observes `EngineSnapshot::to_bytes` / `from_bytes` on 32- and 64-node
//! engine checkpoints. Encoding allocates its output exactly once — sized
//! by a counting walk before a byte is written — plus the block digest's
//! bookkeeping (its digests and, above the pool gate, the pool's job),
//! which is the same for both fleets and small; decoding allocates once
//! per `Vec`/`String` it returns plus that same constant and a few more:
//! nothing per scalar, and none of what building a `serde::Value` of the
//! state costs on top (a second buffer per array, a `String` per key).
//! Restoring from bytes then *moves* the decoded buffers into the node
//! states: no row is allocated a second time. And a restore refused for
//! its model copies nothing first.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! swap cannot perturb any other test (`crates/core/tests/match_zero_alloc.rs`
//! is the pattern).

mod common;

use common::{engine_cfg, setup, Setup, CHUNK};
use nodesentry::core::NodeSentry;
use nodesentry::stream::snapshot::{EngineSnapshot, SnapshotError};
use nodesentry::stream::{Engine, EngineCheckpoint, EngineError};
use nodesentry::telemetry::{DatasetProfile, ScheduleConfig};
use serde::{Serialize, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Per thread: the engine's workers, the pool's workers and the
    // harness allocate on their own threads; only the calling thread's
    // count is the codec's.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Allocations of at least [`LARGE`] bytes.
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LARGE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count_one(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    if LARGE.try_with(Cell::get).is_ok_and(|large| size >= large) {
        let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

struct Counting;

// SAFETY: delegates verbatim to `System`; only adds a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// `f`'s result and the allocations the calling thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, all, _) = counted_large(usize::MAX, f);
    (out, all)
}

/// [`counted`], and how many of those allocations were of at least
/// `large` bytes.
fn counted_large<T>(large: usize, f: impl FnOnce() -> T) -> (T, usize, usize) {
    LARGE.with(|l| l.set(large));
    let before = (ALLOCS.with(Cell::get), LARGE_ALLOCS.with(Cell::get));
    let out = f();
    let after = (ALLOCS.with(Cell::get), LARGE_ALLOCS.with(Cell::get));
    LARGE.with(|l| l.set(usize::MAX));
    (out, after.0 - before.0, after.1 - before.1)
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

/// The fixture's model over an `n_nodes` fleet with the same metric
/// catalog, checkpointed mid test span so buffers, jobs and pendings are
/// live.
fn fleet_checkpoint(s: &Setup, n_nodes: usize) -> EngineCheckpoint {
    let tiny = DatasetProfile::tiny();
    let fleet = DatasetProfile {
        schedule: ScheduleConfig {
            n_nodes,
            ..tiny.schedule.clone()
        },
        ..tiny
    }
    .generate();
    let cut = fleet.split + (fleet.horizon() - fleet.split) / 2;
    let mut feed = fleet.ticks();
    feed.truncate(cut * fleet.n_nodes());
    for tick in &mut feed {
        tick.transition = false;
    }
    let engine = Engine::new(Arc::clone(&s.model), engine_cfg(s, 2));
    for chunk in feed.chunks(CHUNK) {
        engine.ingest(chunk.to_vec()).expect("shard alive");
    }
    let ckpt = engine.checkpoint().expect("checkpoint");
    drop(engine);
    assert_eq!(ckpt.snapshot.nodes.len(), n_nodes);
    ckpt
}

#[test]
fn codec_allocates_per_buffer_never_per_scalar() {
    let s = setup();
    let fleets = [32, 64].map(|n| fleet_checkpoint(s, n));
    let census = fleets
        .each_ref()
        .map(|ckpt| census(&ckpt.snapshot.to_value()));
    for (buffers, scalars) in census {
        assert!(
            scalars > 50 * buffers && scalars > 100_000,
            "fixture too small to tell per-scalar from per-buffer: {scalars} scalars, {buffers} buffers"
        );
    }

    // At pool widths 1, 2 and 4, both fleets above the digest's pool gate:
    // encoding makes one allocation as large as the payload — the output —
    // and a bookkeeping count that does not grow with the fleet (measured:
    // 3, 9 and 11), which decoding adds to its one per buffer.
    for width in [1, 2, 4] {
        rayon::set_thread_count_override(Some(width));
        // The pool spawns the workers a width needs on first use; that
        // is once per process, not per call.
        fleets[0].snapshot.to_bytes();
        let mut bookkeeping = Vec::new();
        for (ckpt, (buffers, scalars)) in fleets.iter().zip(census) {
            let nodes = ckpt.snapshot.nodes.len();
            // The envelope is a 14-byte header, the payload, an 8-byte digest.
            let payload = ckpt.bytes.len() - 22;
            let (bytes, encode_allocs, large) = counted_large(payload, || ckpt.snapshot.to_bytes());
            assert!(bytes == ckpt.bytes);
            assert!(
                bytes.len() > 1 << 20,
                "{nodes} nodes: {} bytes",
                bytes.len()
            );
            assert_eq!(bytes.capacity(), bytes.len(), "reserved to the byte");
            assert_eq!(
                large, 1,
                "{nodes} nodes at width {width}: to_bytes allocates its exactly-sized output once"
            );
            let extra = encode_allocs - 1;
            assert!(
                extra <= 16,
                "{nodes} nodes at width {width}: {extra} bookkeeping allocations"
            );
            bookkeeping.push(extra);

            let (decoded, decode_allocs) = counted(|| EngineSnapshot::from_bytes(&bytes));
            let decoded = decoded.expect("decode");
            assert!(
                (buffers / 2..=buffers + 8 + extra).contains(&decode_allocs),
                "{nodes} nodes at width {width}: from_bytes made {decode_allocs} allocations for \
                 {buffers} buffers and {scalars} scalars"
            );
            assert!(decoded.to_bytes() == bytes);
        }
        assert_eq!(
            bookkeeping[0], bookkeeping[1],
            "width {width}: the codec's bookkeeping grew with the fleet"
        );
    }
    rayon::set_thread_count_override(None);

    // The by-value restore: what `restore_bytes` allocates beyond its
    // decode is per node (a fresh `NodeState`, a few dozen small buffers
    // each, and the shard threads) — never per row. Cloning the rows
    // (open-segment, deferred-job and preprocessor rows: most of the
    // buffers, nearly all of the bytes) would alone cost `rows` more.
    let (ckpt, (buffers, _)) = (&fleets[0], census[0]);
    let bytes = &ckpt.bytes;
    let (decoded, decode_allocs) = counted(|| EngineSnapshot::from_bytes(bytes));
    let decoded = decoded.expect("decode");
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
        counted(|| Engine::restore_bytes(Arc::clone(&s.model), engine_cfg(s, 2), bytes));
    let restored = restored.expect("restore");
    let rebuild_allocs = restore_allocs - decode_allocs;
    assert!(
        rebuild_allocs < 64 * 32 && rebuild_allocs < rows / 2,
        "rebuilding 32 nodes made {rebuild_allocs} allocations with {rows} rows to hand over"
    );
    // Handed over, not lost: the restored engine checkpoints the same bytes.
    assert!(restored.checkpoint().expect("echo").bytes == *bytes);
}

#[test]
fn restore_refused_for_its_model_copies_nothing() {
    let s = setup();
    let ckpt = fleet_checkpoint(s, 32);
    // The checkpointed model but for the lowest bit of its last weight.
    let json = s.model.to_json(false).expect("serialize");
    let mut other = NodeSentry::from_json(&json).expect("deserialize");
    let params = &mut other.shared_models.last_mut().expect("a model").params;
    let last = params.len() - 1;
    let w = params
        .get_mut(last)
        .as_mut_slice()
        .last_mut()
        .expect("a weight");
    *w = f64::from_bits(w.to_bits() ^ 1);
    let other = Arc::new(other);

    let (refused, allocs) =
        counted(|| Engine::restore(Arc::clone(&other), engine_cfg(s, 2), &ckpt.snapshot));
    match refused.map(|_| ()) {
        Err(EngineError::Snapshot(SnapshotError::ModelMismatch { snapshot, model })) => {
            assert_eq!(snapshot, s.model.fingerprint());
            assert_eq!(model, other.fingerprint());
        }
        other => panic!("one-weight-different model accepted: {other:?}"),
    }
    assert!(
        allocs < 64,
        "a refused restore of {} nodes made {allocs} allocations",
        ckpt.snapshot.nodes.len()
    );
}
