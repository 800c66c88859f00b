//! Proof of the recycled tape's steady state: a counting global allocator
//! watches forward + backward of a training window through a tape that has
//! seen that window before and must see **zero** allocations — node
//! values, gradients, index lists, the MoE routing lists, the attention
//! head list and the gradient store are all reused. The first pass grows
//! every buffer (and the routing lists once more if a later window routes
//! more tokens to an expert than any before); a fresh `Graph::new` pass
//! over the same window makes hundreds of allocations, which the test
//! also records so the zero is not vacuous.
//!
//! (The whole-epoch count of `SharedModel::fit_windows` is checked where
//! that function lives: `crates/core/tests/train_epoch_alloc.rs`.)
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! swap cannot perturb any other test.

use ns_linalg::matrix::Matrix;
use ns_nn::{
    sinusoidal_pe, BlockKind, Graph, ParamStore, ReconstructionTransformer, Tape, TransformerConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: delegates verbatim to `System`; only adds a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_recycled_tape_trains_a_window_without_allocating() {
    // Every product stays below the matmul work gate, so nothing is
    // handed to the pool — rayon's job bookkeeping would allocate outside
    // the code under test.
    let (t, input_dim, d_model) = (16, 6, 12);
    for block in [
        BlockKind::Dense,
        BlockKind::Moe {
            n_experts: 3,
            top_k: 1,
        },
    ] {
        let mut params = ParamStore::new(7);
        let model = ReconstructionTransformer::new(
            &mut params,
            TransformerConfig {
                input_dim,
                d_model,
                n_heads: 3,
                n_layers: 2,
                hidden: 24,
                block,
                aux_weight: 0.01,
            },
        );
        let window = Matrix::from_fn(t, input_dim, |r, c| ((r * 3 + c) as f64 * 0.37).sin());
        let pe = sinusoidal_pe(t, d_model, 0);
        let weights = Matrix::filled(1, input_dim, 1.0);

        let mut tape = Some(Tape::default());
        let mut grads = params.zero_grads();
        let mut pass = |tape: &mut Option<Tape>| {
            let mut g = Graph::recycle(&params, tape.take().expect("tape parked"));
            let x = g.input_from(&window);
            let p = g.input_from(&pe);
            let w = g.input_from(&weights);
            let loss = model.loss(&mut g, x, x, p, w);
            g.backward_into(loss, &mut grads);
            *tape = Some(g.into_tape());
        };
        let cold = allocations(|| pass(&mut tape));
        assert!(cold > 100, "{block:?}: a cold tape must grow ({cold})");
        for round in 2..=4 {
            let warm = allocations(|| pass(&mut tape));
            assert_eq!(
                warm, 0,
                "{block:?}: pass {round} through a warm tape allocated {warm} times"
            );
        }
    }
}
