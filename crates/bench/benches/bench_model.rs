//! Transformer+MoE training-step and inference cost — including the
//! paper's "< 2 ms per point" online-latency claim, the MoE vs
//! dense-FFN step cost comparison, and `train_window`: forward + backward
//! of one 20×141 window at nsbench's model size, through a fresh graph
//! and through a recycled tape (what `SharedModel::fit_windows` runs).

use criterion::{criterion_group, criterion_main, Criterion};
use ns_linalg::matrix::Matrix;
use ns_nn::{
    sinusoidal_pe, Adam, BlockKind, Graph, ParamStore, ReconstructionTransformer, Tape,
    TransformerConfig,
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
                    let l = model.loss(&mut g, x, p, wn);
                    g.backward(l)
                };
                opt.step(&mut params, &grads);
            })
        });
        let (params, model) = make_model(block);
        group.bench_function(format!("infer_window20_{label}"), |b| {
            b.iter(|| {
                let mut g = Graph::new(&params);
                let x = g.input(window.clone());
                let p = g.input(pe.clone());
                let (recon, _) = model.forward(&mut g, x, p);
                g.value(recon).clone()
            })
        });
    }
    train_window(&mut group);
    group.finish();
}

/// One fine-training window pass at the size nsbench's fit trains
/// (141 metrics, `SharingConfig::default()`'s 36/3/3/72 with 3 experts):
/// the same loss and gradients either way, the recycled tape without the
/// per-window heap traffic.
fn train_window(group: &mut criterion::BenchmarkGroup) {
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
    let window = Matrix::from_fn(20, 141, |r, m| ((r * 3 + m) as f64 * 0.1).sin());
    let pe = sinusoidal_pe(20, 36, 0);
    let w = Matrix::filled(1, 141, 1.0);
    group.bench_function("train_window_fresh_graph", |b| {
        b.iter(|| {
            let mut g = Graph::new(&params);
            let x = g.input(window.clone());
            let p = g.input(pe.clone());
            let wn = g.input(w.clone());
            let l = model.loss(&mut g, x, p, wn);
            g.backward(l)
        })
    });
    let mut tape = Tape::default();
    let mut grads = params.zero_grads();
    group.bench_function("train_window_recycled_tape", |b| {
        b.iter(|| {
            let mut g = Graph::recycle(&params, std::mem::take(&mut tape));
            let x = g.input_from(&window);
            let p = g.input_from(&pe);
            let wn = g.input_from(&w);
            let l = model.loss(&mut g, x, p, wn);
            g.backward_into(l, &mut grads);
            tape = g.into_tape();
        })
    });
}

criterion_group!(benches, bench_model);
criterion_main!(benches);
