//! Fine training's steady state, counted: after its first epoch has grown
//! a recycled tape and the per-window gradient stores, an epoch
//! of `SharedModel::fit_windows` allocates a handful of times per window
//! (the epoch's window list, data slices and positional-encoding tables)
//! and **not** per tape node — a cold pass over the same windows allocates
//! hundreds of times each.
//!
//! `fit_windows` keeps its gradient stores for one call, so a steady epoch
//! is read as the difference between a three-epoch and a one-epoch call;
//! the tape goes back to the process's spares, so the cold pass is the
//! first fit of all. The pool is capped to this thread: the count is per
//! thread, and a second worker joining in a later epoch would grow a
//! second tape then.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! swap cannot perturb any other test.

use nodesentry_core::{SharedModel, SharingConfig};
use ns_linalg::matrix::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread: the harness's own bookkeeping runs on other threads.
    // Const-initialised and without a destructor, so touching it never
    // allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator can be called while a thread's locals are
    // being torn down; those calls are outside any measured region.
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

/// Allocations made by the calling thread while `f` runs.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn steady_epoch_allocates_per_window_not_per_node() {
    let cfg = SharingConfig {
        window: 12,
        stride: 6,
        d_model: 12,
        n_heads: 2,
        n_layers: 2,
        hidden: 24,
        epochs: 1,
        batch: 8,
        ..Default::default()
    };
    let segments: Vec<Matrix> = (0..3)
        .map(|s| {
            Matrix::from_fn(40 + 7 * s, 5, |r, c| {
                ((r as f64) * 0.3 + c as f64 * 0.5 + s as f64).sin()
            })
        })
        .collect();
    let refs: Vec<&Matrix> = segments.iter().collect();
    // Tiled at stride 6 with an end-aligned tail: 6 + 7 + 8 windows.
    let windows = 21;

    rayon::with_thread_parallelism_cap(Some(1), || {
        let mut shared = None;
        let cold = allocations(|| shared = Some(SharedModel::train(&cfg, &refs)));
        let mut shared = shared.expect("trained");
        let one = allocations(|| shared.fit_windows(&refs, 1));
        let three = allocations(|| shared.fit_windows(&refs, 3));
        let steady = (three - one) / 2;
        // Growing a tape (it stays among the spares for later fits and
        // for scoring) and a batch of stores is already hundreds of
        // allocations; a steady epoch is a few per window.
        assert!(cold > 40 * windows, "first epoch: {cold}");
        assert!(
            steady <= 8 * windows,
            "a steady epoch allocated {steady} times for {windows} windows"
        );
    });
}
