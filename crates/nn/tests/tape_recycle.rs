//! The training tape's contract: a [`Graph`] built into a recycled
//! [`Tape`] computes exactly what a fresh `Graph::new` computes — loss
//! and every parameter gradient bit for bit — whatever the tape held
//! before. The window sequence is chosen to move everything position
//! recycling could trip on: MoE routing changes between windows (an
//! expert that emitted nodes in one window emits none in the next, so
//! every later node lands in a slot that held a different op), the row
//! count changes (a short final window), and the windows are replayed in
//! several orders through the same tape.

use ns_linalg::matrix::Matrix;
use ns_linalg::Mat;
use ns_nn::{
    sinusoidal_pe, BlockKind, GradStore, Graph, NodeId, ParamStore, ReconstructionTransformer,
    Tape, Tier, TransformerConfig,
};

const INPUT_DIM: usize = 5;
const D_MODEL: usize = 12;

fn model(block: BlockKind, seed: u64) -> (ParamStore, ReconstructionTransformer) {
    let mut params = ParamStore::new(seed);
    let model = ReconstructionTransformer::new(
        &mut params,
        TransformerConfig {
            input_dim: INPUT_DIM,
            d_model: D_MODEL,
            n_heads: 3,
            n_layers: 2,
            hidden: 24,
            block,
            aux_weight: 0.01,
        },
    );
    (params, model)
}

/// `(data, positional encoding)` per window. The flat window — identical
/// rows, zero encoding — sends every token to one expert, leaving the
/// other two empty in every layer; the wavy ones spread tokens out; the
/// last is a short final window (`w = min(window, t)`).
fn windows() -> Vec<(Matrix, Matrix)> {
    let wavy = |t: usize, phase: f64| {
        Matrix::from_fn(t, INPUT_DIM, |r, c| {
            ((r as f64 * 1.3 + c as f64 * 0.7 + phase) * 0.9).sin() * (1.0 + c as f64)
        })
    };
    vec![
        (wavy(20, 0.0), sinusoidal_pe(20, D_MODEL, 0)),
        (
            Matrix::filled(20, INPUT_DIM, 0.4),
            Matrix::zeros(20, D_MODEL),
        ),
        (wavy(20, 2.5), sinusoidal_pe(20, D_MODEL, 997)),
        (wavy(7, 1.0), sinusoidal_pe(7, D_MODEL, 13)),
    ]
}

/// Build one window's training loss on `g`; returns the loss node.
fn build(
    g: &mut Graph<'_>,
    model: &ReconstructionTransformer,
    (data, pe): &(Matrix, Matrix),
) -> NodeId {
    let x = g.input_from(data);
    let p = g.input_from(pe);
    let w = g.input_fill(1, INPUT_DIM, |w| w.fill(1.0));
    model.loss(g, x, x, p, w)
}

fn assert_same_grads(got: &GradStore, want: &GradStore, what: &str) {
    assert_eq!(got.len(), want.len());
    for id in 0..got.len() {
        let (g, w) = (got.get(id), want.get(id));
        assert_eq!(g.shape(), w.shape(), "{what}: param {id}");
        for (a, b) in g.as_slice().iter().zip(w.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: param {id}");
        }
    }
}

fn recycled_equals_fresh(block: BlockKind, expect_routing_change: bool) {
    let (params, model) = model(block, 41);
    let windows = windows();
    // Reference: a fresh graph per window.
    let fresh: Vec<(NodeId, f64, GradStore)> = windows
        .iter()
        .map(|win| {
            let mut g = Graph::new(&params);
            let loss = build(&mut g, &model, win);
            (loss, g.scalar(loss), g.backward(loss))
        })
        .collect();
    if expect_routing_change {
        // The loss node's id is the node count: same-shaped windows whose
        // counts differ took different routes through the experts.
        assert_ne!(fresh[0].0, fresh[1].0, "routing must change the tape");
    } else {
        assert_eq!(fresh[0].0, fresh[1].0);
    }
    assert!(
        fresh.iter().any(|(_, l, _)| *l != fresh[0].1),
        "windows must differ"
    );

    // One tape and one gradient store through every order.
    let mut tape = Tape::default();
    let mut grads = params.zero_grads();
    let orders: [&[usize]; 4] = [
        &[0, 1, 2, 3],
        &[3, 2, 1, 0],
        &[1, 3, 0, 0, 2, 1],
        &[2, 2, 3, 1],
    ];
    for order in orders {
        for &wi in order {
            let mut g = Graph::recycle(&params, tape);
            let loss = build(&mut g, &model, &windows[wi]);
            let (want_loss_id, want_loss, want_grads) = &fresh[wi];
            assert_eq!(loss, *want_loss_id, "window {wi}: node count");
            assert_eq!(
                g.scalar(loss).to_bits(),
                want_loss.to_bits(),
                "window {wi} in {order:?}: loss"
            );
            g.backward_into(loss, &mut grads);
            assert_same_grads(&grads, want_grads, &format!("window {wi} in {order:?}"));
            tape = g.into_tape();
        }
    }
}

#[test]
fn recycled_tape_equals_fresh_graph_with_moe_routing_changes() {
    recycled_equals_fresh(
        BlockKind::Moe {
            n_experts: 3,
            top_k: 1,
        },
        true,
    );
}

#[test]
fn recycled_tape_equals_fresh_graph_with_dense_ffn() {
    recycled_equals_fresh(BlockKind::Dense, false);
}

/// The allocating entry points still work on a recycled tape, and a
/// second `backward` over the same graph starts from a clean slate.
#[test]
fn backward_twice_and_fresh_store_agree_with_backward_into() {
    let (params, model) = model(BlockKind::Dense, 5);
    let win = &windows()[0];
    let mut g = Graph::new(&params);
    let loss = build(&mut g, &model, win);
    let first = g.backward(loss);
    let second = g.backward(loss);
    assert_same_grads(&second, &first, "second sweep");
    let mut g = Graph::recycle(&params, g.into_tape());
    let loss = build(&mut g, &model, win);
    assert_same_grads(&g.backward(loss), &first, "recycled, fresh store");
}

/// Serving rides the same contract with the backward pass left out, at
/// either scalar: the reconstruction a recycled tape computes is the one
/// a fresh graph computes, whatever the tape held before — routing and
/// row count changing between windows, in any order.
fn recycled_forward_equals_fresh<T: Tier>() {
    let (params, model) = model(
        BlockKind::Moe {
            n_experts: 3,
            top_k: 1,
        },
        41,
    );
    let windows = windows();
    let run = |tape: Tape<T>, (data, pe): &(Matrix, Matrix)| {
        let round = |m: &Matrix| {
            let mut out = Mat::<T>::default();
            out.copy_from_f64(m);
            out
        };
        let mut g = Graph::at_tier(&params, tape);
        let (x, p) = (g.input_from(&round(data)), g.input_from(&round(pe)));
        let recon = model.reconstruct(&mut g, x, p);
        // Widening is injective, so these are the value's own bits.
        let out: Vec<u64> = g
            .value(recon)
            .as_slice()
            .iter()
            .map(|v| v.to_f64().to_bits())
            .collect();
        (recon, out, g.into_tape())
    };
    let fresh: Vec<(NodeId, Vec<u64>)> = windows
        .iter()
        .map(|win| {
            let (recon, out, _) = run(Tape::default(), win);
            (recon, out)
        })
        .collect();
    assert_ne!(fresh[0].0, fresh[1].0, "routing must change the tape");

    let mut tape = Tape::default();
    let orders: [&[usize]; 3] = [&[0, 1, 2, 3], &[3, 2, 1, 0], &[1, 3, 0, 0, 2, 1]];
    for order in orders {
        for &wi in order {
            let (recon, out, back) = run(tape, &windows[wi]);
            assert_eq!(recon, fresh[wi].0, "window {wi}: node count");
            assert_eq!(out, fresh[wi].1, "window {wi} in {order:?}: value");
            tape = back;
        }
    }
}

#[test]
fn recycled_forward_only_tape_equals_fresh_graph_at_both_scalars() {
    recycled_forward_equals_fresh::<f64>();
    recycled_forward_equals_fresh::<f32>();
}
