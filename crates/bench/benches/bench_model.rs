//! Transformer+MoE training-step and served-forward cost, MoE vs dense
//! FFN — including the paper's "< 2 ms per point" online-latency claim —
//! and the two paths the pipeline runs at nsbench's model size:
//! `train_window`, forward + backward of one 20×141 window through a
//! fresh graph and through a recycled tape (what
//! `SharedModel::fit_windows` runs), `fit_epoch_nsbench`, one whole
//! `fit_windows` epoch over a cluster's worth of segments, and
//! `infer_nsbench`, one served forward (`Session::forward`) of a 20- and a
//! 7-row window at both tiers — the per-forward node floor as a tracked
//! number.

use criterion::{criterion_group, criterion_main, Criterion};
use nodesentry_core::{SharedModel, SharingConfig};
use ns_linalg::matrix::Matrix;
use ns_nn::{
    sinusoidal_pe, Adam, BlockKind, Graph, ParamStore, ReconstructionTransformer, Session, Tape,
    Tier, TransformerConfig,
};

fn make_model(block: BlockKind) -> (ParamStore, ReconstructionTransformer) {
    let mut params = ParamStore::new(7);
    let model = ReconstructionTransformer::new(
        &mut params,
        TransformerConfig {
            input_dim: 30,
            d_model: 24,
            n_heads: 3,
            n_layers: 3,
            hidden: 48,
            block,
            aux_weight: 0.01,
        },
    );
    (params, model)
}

fn bench_model(c: &mut Criterion) {
    let window = Matrix::from_fn(20, 30, |r, m| ((r * 3 + m) as f64 * 0.1).sin());
    let pe = sinusoidal_pe(20, 24, 0);
    let w = Matrix::filled(1, 30, 1.0);

    let mut group = c.benchmark_group("model");
    group.sample_size(20);

    for (label, block) in [
        (
            "moe3_top1",
            BlockKind::Moe {
                n_experts: 3,
                top_k: 1,
            },
        ),
        ("dense_ffn", BlockKind::Dense),
    ] {
        let (mut params, model) = make_model(block);
        let mut opt = Adam::new(1e-3);
        group.bench_function(format!("train_step_{label}"), |b| {
            b.iter(|| {
                let grads = {
                    let mut g = Graph::new(&params);
                    let x = g.input(window.clone());
                    let p = g.input(pe.clone());
                    let wn = g.input(w.clone());
                    let l = model.loss(&mut g, x, x, p, wn);
                    g.backward(l)
                };
                opt.step(&mut params, &grads);
            })
        });
        // The paper's "< 2 ms per point" envelope, and MoE vs dense at
        // inference: one served forward of the same window.
        let (params, model) = make_model(block);
        let mut sess = Session::<f64>::new();
        group.bench_function(format!("infer_window20_{label}"), |b| {
            b.iter(|| sess.forward(&params, &model, &window, &pe).as_slice()[0])
        });
    }
    let (params, model) = nsbench_model();
    train_window(&mut group, &params, &model);
    fit_epoch_nsbench(&mut group);
    infer_nsbench::<f64>(&mut group, &params, &model, "f64");
    infer_nsbench::<f32>(&mut group, &params, &model, "f32");
    group.finish();
}

/// The model nsbench's fit trains and its replays serve: 141 metrics,
/// `SharingConfig::default()`'s 36/3/3/72 with 3 experts, top-1.
fn nsbench_model() -> (ParamStore, ReconstructionTransformer) {
    let mut params = ParamStore::new(7);
    let model = ReconstructionTransformer::new(
        &mut params,
        TransformerConfig {
            input_dim: 141,
            d_model: 36,
            n_heads: 3,
            n_layers: 3,
            hidden: 72,
            block: BlockKind::Moe {
                n_experts: 3,
                top_k: 1,
            },
            aux_weight: 0.01,
        },
    );
    (params, model)
}

fn nsbench_window(rows: usize) -> (Matrix, Matrix) {
    let window = Matrix::from_fn(rows, 141, |r, m| ((r * 3 + m) as f64 * 0.1).sin());
    (window, sinusoidal_pe(rows, 36, 0))
}

/// One served forward through a warm session: a full window and the
/// short one a ragged segment tail leaves, where the fixed per-node cost
/// weighs most.
fn infer_nsbench<T: Tier>(
    group: &mut criterion::BenchmarkGroup,
    params: &ParamStore,
    model: &ReconstructionTransformer,
    tier: &str,
) {
    for rows in [20, 7] {
        let (window, pe) = nsbench_window(rows);
        let mut sess = Session::<T>::new();
        group.bench_function(format!("infer_nsbench{rows}_{tier}"), |b| {
            b.iter(|| sess.forward(params, model, &window, &pe).as_slice()[0])
        });
    }
}

/// One fine-training window pass: the same loss and gradients either
/// way, the recycled tape without the per-window heap traffic.
fn train_window(
    group: &mut criterion::BenchmarkGroup,
    params: &ParamStore,
    model: &ReconstructionTransformer,
) {
    let (window, pe) = nsbench_window(20);
    let w = Matrix::filled(1, 141, 1.0);
    group.bench_function("train_window_fresh_graph", |b| {
        b.iter(|| {
            let mut g = Graph::new(params);
            let x = g.input(window.clone());
            let p = g.input(pe.clone());
            let wn = g.input(w.clone());
            let l = model.loss(&mut g, x, x, p, wn);
            g.backward(l)
        })
    });
    let mut tape = Tape::default();
    let mut grads = params.zero_grads();
    group.bench_function("train_window_recycled_tape", |b| {
        b.iter(|| {
            let mut g = Graph::recycle(params, std::mem::take(&mut tape));
            let x = g.input_from(&window);
            let p = g.input_from(&pe);
            let wn = g.input_from(&w);
            let l = model.loss(&mut g, x, x, p, wn);
            g.backward_into(l, &mut grads);
            tape = g.into_tape();
        })
    });
}

/// One `SharedModel::fit_windows` epoch at nsbench's model shape
/// (`SharingConfig::default()`, 141 metrics) over `k_nearest` segments of
/// 24–42 rows, 27 windows at the default window and stride: what the fit
/// does per cluster and epoch, with the batch fanned over the pool.
fn fit_epoch_nsbench(group: &mut criterion::BenchmarkGroup) {
    let cfg = SharingConfig {
        epochs: 1,
        ..Default::default()
    };
    let segments: Vec<Matrix> = (0..cfg.k_nearest)
        .map(|s| Matrix::from_fn(24 + 2 * s, 141, |r, m| ((r * 3 + m + s) as f64 * 0.1).sin()))
        .collect();
    let refs: Vec<&Matrix> = segments.iter().collect();
    let mut shared = SharedModel::train(&cfg, &refs);
    group.bench_function("fit_epoch_nsbench", |b| {
        b.iter(|| shared.fit_windows(&refs, 1))
    });
}

criterion_group!(benches, bench_model);
criterion_main!(benches);
