//! End-to-end detection-path micro-costs: k-sigma thresholding, point
//! adjustment, AUC, the preprocessing pipeline, and the per-tick path at
//! `nsbench`'s shape.
//!
//! The per-tick section streams one node of a D2'-shaped dataset
//! (`CatalogSpec::small()`: 564 raw metrics, 1,440 steps, D2''s missing
//! rate of 0.001, so about one NaN every two rows) through a model fitted
//! on it, and times per tick:
//!
//! * `scan_floor`: copy the raw row and count its NaNs — the least any
//!   per-tick path does;
//! * `preprocess_push`: `StreamingPreprocessor::push`, plus the tail flush;
//! * `node_offer`: `NodeState::offer`, the whole per-tick half of a node
//!   (stuck-sensor watch, preprocessing, segment assembly; closed
//!   segments queue as scoring jobs that are never handed out here);
//!
//! and `ksigma_push` per point of a 10k-point score series. Each is the
//! best of seven samples, printed and written to `BENCH_detect.json`. No
//! throughput floor is asserted: the same box drifts by a third between
//! hours, so compare two commits back to back. Under `cargo test` every
//! closure runs once and nothing is timed or written.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nodesentry_core::preprocess::{interpolate_missing, Preprocessor};
use nodesentry_core::{CoarseConfig, NodeInput, NodeSentry, NodeSentryConfig, SharingConfig};
use ns_bench::{best_ns, write_bench_json};
use ns_eval::metrics::{adjusted_confusion, roc_auc_adjusted};
use ns_eval::streaming::StreamingKSigma;
use ns_eval::threshold::{ksigma_detect, KSigmaConfig};
use ns_features::FeatureCatalog;
use ns_linalg::matrix::Matrix;
use ns_stream::{EngineConfig, NodeState, StreamingPreprocessor, Tick};
use ns_telemetry::{DatasetProfile, ScheduleConfig};
use serde_json::json;
use std::sync::Arc;

fn bench_detect(c: &mut Criterion) {
    let scores: Vec<f64> = (0..10_000)
        .map(|i| ((i * 37) % 101) as f64 * 0.01)
        .collect();
    let truth: Vec<bool> = (0..10_000).map(|i| (4000..4100).contains(&i)).collect();
    let cfg = KSigmaConfig::default();

    let mut group = c.benchmark_group("detect");
    group.sample_size(30);
    group.bench_function("ksigma_10k", |b| b.iter(|| ksigma_detect(&scores, &cfg)));
    let pred = ksigma_detect(&scores, &cfg);
    group.bench_function("point_adjust_confusion_10k", |b| {
        b.iter(|| adjusted_confusion(&pred, &truth, None))
    });
    group.bench_function("roc_auc_10k", |b| {
        b.iter(|| roc_auc_adjusted(&scores, &truth, None))
    });

    // Preprocessing micro-costs.
    let raw = Matrix::from_fn(2000, 120, |r, m| {
        if (r * 131 + m * 17) % 997 == 0 {
            f64::NAN
        } else {
            ((r + m * 3) as f64 * 0.01).sin()
        }
    });
    group.bench_function("interpolate_2000x120", |b| {
        b.iter(|| {
            let mut m = raw.clone();
            interpolate_missing(&mut m);
            m
        })
    });
    let groups: Vec<usize> = (0..120).map(|i| i / 4).collect();
    let pp = Preprocessor::fit(&raw, &groups, 0.99, 0.05);
    group.bench_function("preprocess_transform_2000x120", |b| {
        b.iter(|| pp.transform(&raw))
    });
    group.finish();
    per_tick(c.timed(), &scores);
}

/// A D2'-shaped dataset at `nsbench`'s replay size and a model fitted on
/// it; only the preprocessor's shape matters here, so the coarse and
/// fine stages are as small as they go.
fn nsbench_shaped() -> (ns_telemetry::Dataset, Arc<NodeSentry>) {
    let d2 = DatasetProfile::d2_prime();
    let ds = DatasetProfile {
        schedule: ScheduleConfig {
            n_nodes: 4,
            horizon: 1440,
            ..d2.schedule
        },
        ..d2
    }
    .generate();
    let inputs: Vec<NodeInput> = (0..ds.n_nodes())
        .map(|n| NodeInput {
            raw: ds.raw_node(n),
            transitions: ds.transitions(n),
        })
        .collect();
    let cfg = NodeSentryConfig {
        coarse: CoarseConfig {
            catalog: FeatureCatalog::compact(),
            k_max: 4,
            ..Default::default()
        },
        sharing: SharingConfig {
            window: 12,
            stride: 12,
            d_model: 8,
            n_heads: 2,
            n_layers: 1,
            hidden: 16,
            n_experts: 2,
            epochs: 1,
            batch: 16,
            k_nearest: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let model = NodeSentry::fit(cfg, &inputs, &ds.catalog.group_ids(), ds.split);
    (ds, Arc::new(model))
}

/// The per-tick section: one node's timeline per sample, ns per tick.
fn per_tick(timed: bool, scores: &[f64]) {
    let (ds, model) = nsbench_shaped();
    let pre = &model.preprocessor;
    let raw = ds.raw_node(0);
    let ticks: Vec<Tick> = ds.ticks().into_iter().filter(|t| t.node == 0).collect();
    let (steps, width) = raw.shape();
    let iters = if timed { 5 } else { 1 };
    let per_tick = |ns: f64| ns / steps as f64;

    let mut copy = vec![0.0; width];
    let mut nans = 0usize;
    let scan_floor = per_tick(best_ns(iters, || {
        nans = 0;
        for r in 0..steps {
            copy.copy_from_slice(raw.row(r));
            nans += copy.iter().filter(|v| v.is_nan()).count();
        }
        black_box(&copy);
    }));
    let push = per_tick(best_ns(iters, || {
        let mut sp = StreamingPreprocessor::new(pre);
        for r in 0..steps {
            black_box(sp.push(raw.row(r)));
        }
        black_box(sp.flush());
    }));
    let engine_cfg = EngineConfig::new(ds.split);
    let offer = per_tick(best_ns(iters, || {
        let mut node = NodeState::new(Arc::clone(&model), 0, &engine_cfg);
        for tick in &ticks {
            black_box(node.offer(tick));
        }
    }));
    let ksigma = best_ns(iters, || {
        let mut detector = StreamingKSigma::new(KSigmaConfig::default());
        for &s in scores {
            black_box(detector.push(s));
        }
    }) / scores.len() as f64;
    if !timed {
        return;
    }
    let counters = pre.counters.iter().filter(|&&c| c).count();
    println!(
        "tick: {width} raw metrics, {} groups, {} kept, {counters} counters, {:.2} NaN per row",
        pre.counters.len(),
        pre.kept.len(),
        nans as f64 / steps as f64,
    );
    for (name, ns) in [
        ("scan_floor", scan_floor),
        ("preprocess_push", push),
        ("node_offer", offer),
    ] {
        println!("tick: {name:<40} {ns:>10.1} ns/tick (best of 7)");
    }
    println!(
        "tick: {:<40} {ksigma:>10.1} ns/point (best of 7)",
        "ksigma_push"
    );
    write_bench_json(
        "detect",
        &json!({
            "shape": json!({
                "raw_metrics": width,
                "groups": pre.counters.len(),
                "kept": pre.kept.len(),
                "counters": counters,
                "steps": steps,
                "nan_per_row": nans as f64 / steps as f64,
            }),
            "ns_per_tick": json!({
                "scan_floor": scan_floor,
                "preprocess_push": push,
                "node_offer": offer,
            }),
            "ksigma_push_ns_per_point": ksigma,
        }),
    );
}

criterion_group!(benches, bench_detect);
criterion_main!(benches);
