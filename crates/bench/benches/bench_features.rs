//! Feature-extraction throughput: the 134-feature catalog per series and
//! per MTS segment (the coarse stage's dominant cost), and the online
//! match at the shapes `nsbench` feeds it.
//!
//! The criterion group times the catalog over long series. The probe
//! section times what one online match costs on `nsbench`'s model, at
//! its two probe lengths — 42 rows (`churn_short`'s median probe) and
//! 120 (`match_period`) — over 141 metrics:
//!
//! * `column/{42,120}`: one column through `extract_into`, single thread,
//!   the mean over the probe's 141 columns;
//! * `extract_mts/{42,120}x141`: the whole probe, columns over the pool;
//! * `match_pattern_into/8x18894`: standardise and scan an 8-centroid
//!   library at that probe's feature width.
//!
//! Each probe row is the best of seven samples, so a noisy neighbour
//! inflates fewer of them than a mean would. Under `cargo test` every
//! closure runs once and nothing is timed.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nodesentry_core::coarse::ClusterModel;
use ns_features::{FeatureCatalog, FeatureScratch};
use ns_linalg::matrix::Matrix;
use ns_linalg::stats;
use std::time::Instant;

/// The coarse stage's sample rate (one row per 30 s).
const SAMPLE_RATE: f64 = 1.0 / 30.0;
/// Metrics per probe in `nsbench`'s model (feature width 141 × 134).
const METRICS: usize = 141;
/// Centroids in `nsbench`'s fitted library.
const CLUSTERS: usize = 8;

fn bench_features(c: &mut Criterion) {
    let catalog = FeatureCatalog::standard();
    let compact = FeatureCatalog::compact();
    let mut group = c.benchmark_group("features");
    group.sample_size(20);
    for len in [240usize, 1024] {
        let series: Vec<f64> = (0..len)
            .map(|i| (i as f64 * 0.13).sin() * 2.0 + 0.4)
            .collect();
        group.bench_with_input(BenchmarkId::new("standard_134", len), &series, |b, s| {
            b.iter(|| catalog.extract(s, SAMPLE_RATE))
        });
        group.bench_with_input(BenchmarkId::new("compact_21", len), &series, |b, s| {
            b.iter(|| compact.extract(s, SAMPLE_RATE))
        });
    }
    let segment = Matrix::from_fn(240, 30, |r, c2| ((r * (c2 + 1)) as f64 * 0.05).sin());
    group.bench_function("mts_240x30_standard", |b| {
        b.iter(|| catalog.extract_mts(&segment, SAMPLE_RATE))
    });
    group.finish();
    probe_shapes(timed());
}

/// Whether this is a `cargo bench` run (the stand-in criterion's rule).
fn timed() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Best of seven samples of `iters` calls, in ns per call.
fn best_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A deterministic value in [-0.5, 0.5) per `(a, b)`.
fn noise(a: usize, b: usize) -> f64 {
    let mut z = (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (b as u64).wrapping_add(0xD1B5);
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 29)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// A `rows × 141` probe shaped like preprocessed telemetry: periodic,
/// flat, stepped, ramping, spiky and quantised metrics side by side.
/// `family` shifts every metric's level and period, so probes of one
/// family sit near each other in feature space.
fn probe(rows: usize, family: usize, draw: usize) -> Matrix {
    Matrix::from_fn(rows, METRICS, |r, c| {
        let jitter = 0.1 * noise(r * METRICS + c, family * 7919 + draw);
        let f = family as f64;
        jitter
            + match c % 6 {
                0 => 2.0 * ((0.05 + 0.01 * f) * (c + 1) as f64 * r as f64 + c as f64).sin(),
                1 => 0.1 * c as f64 - 0.3 * f,
                2 if r > rows / (2 + family % 3) => 1.5,
                2 => -0.5,
                3 => (0.01 + 0.005 * f) * r as f64,
                4 if (r + c) % (11 + family) == 0 => 4.0,
                4 => 0.0,
                _ => ((r * 7 + c + family) % 5) as f64,
            }
    })
}

/// An 8-centroid library at the 42-row probe's feature width, built the
/// way the coarse stage builds one: standardise the features of four
/// probes per family across all of them and average per family.
fn library(catalog: &FeatureCatalog, rows: usize) -> ClusterModel {
    let feats: Vec<Vec<f64>> = (0..CLUSTERS * 4)
        .map(|i| catalog.extract_mts(&probe(rows, i % CLUSTERS, i), SAMPLE_RATE))
        .collect();
    let dim = feats[0].len();
    let (mut mean, mut std) = (vec![0.0; dim], vec![0.0; dim]);
    for j in 0..dim {
        let col: Vec<f64> = feats.iter().map(|f| f[j]).collect();
        mean[j] = stats::mean(&col);
        let s = stats::std_dev(&col);
        std[j] = if s < 1e-12 { 1.0 } else { s };
    }
    let mut centroids = vec![vec![0.0; dim]; CLUSTERS];
    for (i, f) in feats.iter().enumerate() {
        for (j, (cen, v)) in centroids[i % CLUSTERS].iter_mut().zip(f).enumerate() {
            *cen += (v - mean[j]) / std[j] / 4.0;
        }
    }
    ClusterModel {
        feat_mean: mean.clone(),
        feat_std: std.clone(),
        labels: (0..feats.len()).map(|i| i % CLUSTERS).collect(),
        member_distances: vec![0.0; feats.len()],
        silhouette: 0.0,
        probe_feat_mean: mean,
        probe_feat_std: std,
        probe_centroids: Matrix::from_rows(&centroids),
        centroids,
        match_radius: f64::INFINITY,
    }
}

/// The probe section: one line per shape, best of seven.
fn probe_shapes(timed: bool) {
    let catalog = FeatureCatalog::standard();
    let report = |name: &str, ns: f64| {
        if timed {
            println!("probe: {name:<40} {:>10.2} µs/iter (best of 7)", ns / 1e3);
        }
    };
    let scale = |n: usize| if timed { n } else { 1 };
    let mut scratch = FeatureScratch::new();
    let mut out = vec![0.0; catalog.len()];
    for rows in [42usize, 120] {
        let seg = probe(rows, 3, 0);
        let cols: Vec<Vec<f64>> = (0..METRICS).map(|c| seg.col(c)).collect();
        let ns = best_ns(scale(20), || {
            for col in &cols {
                catalog.extract_into(col, SAMPLE_RATE, &mut scratch, &mut out);
                black_box(&out);
            }
        });
        report(&format!("column/{rows}"), ns / METRICS as f64);
        let ns = best_ns(scale(20), || {
            black_box(catalog.extract_mts(&seg, SAMPLE_RATE));
        });
        report(&format!("extract_mts/{rows}x{METRICS}"), ns);
    }
    let model = library(&catalog, 42);
    let query = catalog.extract_mts(&probe(42, 5, 99), SAMPLE_RATE);
    let mut z = Vec::new();
    let ns = best_ns(scale(200), || {
        black_box(model.match_pattern_into(&query, &mut z));
    });
    report(
        &format!("match_pattern_into/{CLUSTERS}x{}", query.len()),
        ns,
    );
}

criterion_group!(benches, bench_features);
criterion_main!(benches);
