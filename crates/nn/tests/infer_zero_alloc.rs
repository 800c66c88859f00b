//! Proof of the fast path's zero-allocation claim: a counting global
//! allocator observes a warm [`Session`] of either precision tier scoring
//! windows and must see **zero** allocations during the steady-state
//! forward. (That a warm `f32` forward also leaves its weight bake alone
//! while the store's version stands still is checked where the bake is
//! visible: `mutation_reaches_next_forward` in `infer.rs`'s unit tests.)
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! swap cannot perturb any other test.

use ns_linalg::matrix::Matrix;
use ns_nn::{
    sinusoidal_pe_at, BlockKind, ParamStore, ReconstructionTransformer, Session, Tier,
    TransformerConfig,
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
fn warm_session_forward_allocates_nothing() {
    warm_forward_allocates_nothing::<f64>("f64");
    warm_forward_allocates_nothing::<f32>("f32");
}

fn warm_forward_allocates_nothing<T: Tier>(tier: &str) {
    // Rows stay below the matmul kernels' parallel threshold (32) so the
    // forward runs on this thread — rayon task spawning would allocate
    // outside the code under test.
    let t = 16;
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
                input_dim: 4,
                d_model: 8,
                n_heads: 2,
                n_layers: 2,
                hidden: 16,
                block,
                aux_weight: 0.01,
            },
        );
        let x = Matrix::from_fn(t, 4, |r, c| ((r as f64 * 0.4 + c as f64) * 0.7).sin());
        let positions: Vec<f64> = (0..t).map(|r| r as f64 * 512.0 / t as f64).collect();
        let pe = sinusoidal_pe_at(&positions, 8);
        let weights = vec![1.0; 4];

        let mut sess = Session::<T>::new();
        // Warm-up: first calls size the scratch (and bake, at `f32`).
        sess.forward(&params, &model, &x, &pe);
        sess.score_window(&params, &model, &x, 0, t, |r| r as f64, &weights);

        let n = allocations(|| {
            for _ in 0..8 {
                sess.forward(&params, &model, &x, &pe);
                sess.score_window(&params, &model, &x, 0, t, |r| r as f64, &weights);
            }
        });
        assert_eq!(
            n, 0,
            "warm steady-state {tier} forward must not allocate ({block:?})"
        );
    }
}
