//! Kernel throughput: the codegen regression gate.
//!
//! `ns_linalg::kernels` promises things the type system cannot see: the
//! small kernels inline into their callers and compile to vector code (no
//! bounds checks, elementwise kernels vectorised), and the `gemm` tile
//! keeps its accumulators in registers at the CPU's vector width. All of
//! it only shows up as *throughput*, so this bench measures every kernel
//! and — under `cargo bench` — asserts three floors:
//!
//! * an **absolute** floor (catastrophe canary): orders of magnitude
//!   below healthy codegen, so it only trips when a kernel has fallen
//!   off a cliff (per-element bounds checks, lost inlining, debug-mode
//!   arithmetic);
//! * a **relative** floor (bandwidth canary) on what the f32 scoring tier
//!   actually runs: `Mat<f32>::matmul_into` at the model's 128×36×72 shape
//!   must stay ≥ 1.5× its f64 instantiation. Both are the same generic
//!   source, so losing the ratio means the f32 tile stopped vectorising
//!   at double lane count and the tier no longer buys what it costs;
//! * a **width** floor, only where the CPU reports AVX2: the dispatched
//!   `gemm` must be ≥ 1.3× `gemm_baseline` at 20×36×36. Losing it means
//!   the `#[target_feature]` instantiation stopped using the wider
//!   registers (or the dispatch stopped reaching it);
//! * a **digest** floor: the snapshot envelope's version-3 block digest
//!   (a word chain, eight bytes a step) must hash a 32 MiB body on one
//!   thread ≥ 3× as fast as the version-2 one (a byte chain). Losing it
//!   means the word loop stopped compiling to four independent chains.
//!
//! There is no kernel-vs-naive parity floor: `dot`, `axpy` and
//! `squared_distance` *are* the rolled loops (the 4-blocked bodies read
//! 0.97–1.00× of them and were deleted), so the comparison would time a
//! loop against itself.
//!
//! The floors are deliberately loose (shared CI runners throttle), and
//! they only run in timed mode: under `cargo test` the closures execute
//! once for coverage and no timing is asserted. A manual pass at the end
//! writes `BENCH_kernels.json` with GFLOP/s per kernel — and GMAC/s of
//! `gemm` per model shape × operand form × width, both snapshot digests'
//! GB/s, and `to_bytes` / `from_bytes` of a synthetic 128-node snapshot
//! (≈ 30 MiB) at pool widths 1 and 2 — for the README perf table and CI
//! artifacts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ns_bench::write_bench_json;
use ns_linalg::kernels::{self, Form, Product};
use ns_linalg::matrix::{Mat, Matrix};
use ns_linalg::Scalar;
use ns_stream::snapshot::{EngineSnapshot, NodeSnap, PreSnap};
use serde_json::json;
use std::time::Instant;

const N: usize = 4096;

fn series(seed: usize) -> Vec<f64> {
    (0..N)
        .map(|i| ((i * 31 + seed * 17) as f64 * 0.123).sin() * 2.0)
        .collect()
}

fn series_f32(seed: usize) -> Vec<f32> {
    series(seed).into_iter().map(|v| v as f32).collect()
}

fn to_f32(m: &Matrix) -> Mat<f32> {
    let mut out = Mat::default();
    out.copy_from_f64(m);
    out
}

fn median_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[2]
}

/// Every dense product of one training window of the paper's model:
/// embed, the square projections, the decoder, expert in and out,
/// per-head scores and context, and the weight-gradient products of the
/// backward pass.
const MODEL_SHAPES: [(usize, usize, usize); 11] = [
    (20, 141, 36),
    (20, 36, 36),
    (20, 36, 141),
    (20, 36, 72),
    (20, 72, 36),
    (20, 12, 20),
    (20, 20, 12),
    (141, 20, 36),
    (36, 20, 36),
    (72, 20, 36),
    (36, 20, 72),
];

fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// GMAC/s of one `m×k×n` product per operand form (NN, NT, TN), as
/// `[baseline width, dispatched]`. The operands hold the same values in
/// every form's storage order, so the three compute the same product.
fn gemm_gmacs<T: Scalar>((m, k, n): (usize, usize, usize), iters: usize) -> [[f64; 2]; 3] {
    let fill = |len: usize, seed: usize| -> Vec<T> {
        (0..len)
            .map(|i| T::from_f64(((i * 31 + seed * 17) as f64 * 0.123).sin()))
            .collect()
    };
    let (a, b) = (fill(m * k, 1), fill(k * n, 2));
    let mut c = vec![T::ZERO; m * n];
    [Form::NN, Form::NT, Form::TN].map(|form| {
        let p = Product {
            form,
            dims: (m, k, n),
            a: &a,
            b: &b,
        };
        let base = median_ns(iters, || kernels::gemm_baseline(black_box(p), 0..m, &mut c));
        let wide = median_ns(iters, || kernels::gemm(black_box(p), 0..m, &mut c));
        [base, wide].map(|ns| (m * k * n) as f64 / ns)
    })
}

/// `len` bytes of a xorshift stream.
fn noise(len: usize) -> Vec<u8> {
    let mut x = 0x5EED_u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// A snapshot of 128 nodes shaped like `elastic_128`'s: per node an open
/// segment of `rows` rows of 141 model features and a preprocessor
/// holding three raw rows of 564 metrics (≈ 30 MiB at 200 rows).
fn synthetic_snapshot(rows: usize) -> EngineSnapshot {
    let values = |seed: usize, n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 31 + seed * 17) as f64 * 0.123).sin())
            .collect()
    };
    let node = |id: usize| NodeSnap {
        node: id,
        next_step: 4_000,
        next_row: 3_900,
        pre: PreSnap {
            buf: (0..3).map(|r| values(id * 3 + r, 564)).collect(),
            nan_flags: vec![false; 3],
            base: 3_897,
            n_pushed: 3_900,
            resolved: 3_897,
            last_obs: vec![Some(3_899); 564],
            last_val: values(id, 564),
            rate_prev: values(id + 1, 564),
            any_row: true,
        },
        cuts: vec![3_000, 3_600],
        seg_start: 3_900 - rows,
        seg_rows: (0..rows).map(|r| values(id * rows + r, 141)).collect(),
        seg_row_kinds: vec![0; rows],
        matched: Some(id % 8),
        jobs: Vec::new(),
        probe_pending: false,
        smoother: ns_eval::streaming::SmootherState {
            buf: values(id, 4),
            n_pushed: 3_900,
            next_out: 3_897,
        },
        detector: ns_eval::streaming::KSigmaState {
            window: values(id + 2, 120),
            flagged_run: 0,
        },
        pending: Vec::new(),
        ahead: Vec::new(),
        row_kinds: Vec::new(),
        resync_degraded: false,
        prev_raw: values(id + 3, 564),
        runs: vec![0; 564],
        stats: Default::default(),
        faults: Default::default(),
    };
    EngineSnapshot {
        model_fingerprint: 0x0123_4567_89AB_CDEF,
        split: 360,
        smooth_window: 1,
        scoring_precision: ns_stream::ScoringPrecision::F64,
        n_shards: 1,
        nodes: (0..128).map(node).collect(),
        quarantined: Vec::new(),
        carried_stats: Default::default(),
        carried_faults: Default::default(),
    }
}

/// The snapshot rows: both block digests over a 32 MiB body on one
/// thread (GB/s), and `to_bytes` / `from_bytes` of the synthetic
/// snapshot at pool widths 1 and 2 (ms, median of five samples of one
/// call; the bytes are checked equal at both widths first). Untimed, the snapshot is small
/// and every closure runs for coverage.
fn snapshot_rows(timed: bool) -> serde_json::Value {
    const BLOCK: usize = 64 << 10;
    let body = noise(if timed { 32 << 20 } else { 1 << 20 });
    let iters = if timed { 4 } else { 1 };
    let gbps = |ns: f64| body.len() as f64 / ns;
    let [v2, v3] = rayon::with_thread_parallelism_cap(Some(1), || {
        [
            median_ns(iters, || {
                black_box(ns_wire::fnv1a64_blocks(b"NSSN", black_box(&body), BLOCK));
            }),
            median_ns(iters, || {
                black_box(ns_wire::word64_blocks(b"NSSN", black_box(&body), BLOCK));
            }),
        ]
        .map(gbps)
    });
    let snap = synthetic_snapshot(if timed { 200 } else { 4 });
    let bytes = snap.to_bytes();
    let codec = [1, 2].map(|width| {
        rayon::set_thread_count_override(Some(width));
        assert!(snap.to_bytes() == bytes, "the same bytes at every width");
        let encode = median_ns(1, || {
            black_box(snap.to_bytes());
        });
        let decode = median_ns(1, || {
            black_box(EngineSnapshot::from_bytes(black_box(&bytes)).expect("decode"));
        });
        rayon::set_thread_count_override(None);
        (width, encode * 1e-6, decode * 1e-6)
    });
    let mib = bytes.len() as f64 / (1 << 20) as f64;
    println!(
        "snapshot digest GB/s over {} MiB, one thread: v2 {v2:.2} -> v3 {v3:.2} ({:.2}x)",
        body.len() >> 20,
        v3 / v2
    );
    for (width, encode, decode) in codec {
        println!(
            "snapshot {mib:.1} MiB, 128 nodes, pool width {width}: to_bytes {encode:.2} ms, \
             from_bytes {decode:.2} ms"
        );
    }
    if timed {
        // Digest canary (see the header): ≈ 4.5× here, DRAM-bound on the
        // word side; 3× absorbs runner noise.
        assert!(
            v3 >= 3.0 * v2,
            "v3 block digest lost its word loop: {:.2}x v2 (want >=3x)",
            v3 / v2
        );
    }
    json!({
        "digest_gbps_one_thread": json!({"v2": v2, "v3": v3}),
        "digest_v3_vs_v2": v3 / v2,
        "codec_mib": mib,
        "codec_ms": codec
            .iter()
            .map(|(width, encode, decode)| {
                json!({"width": width, "to_bytes_ms": encode, "from_bytes_ms": decode})
            })
            .collect::<Vec<_>>(),
    })
}

fn bench_kernels(c: &mut Criterion) {
    let a = series(1);
    let b = series(2);
    let mut y = series(3);

    let mut g = c.benchmark_group("kernels");
    g.sample_size(20);
    g.bench_function("dot_4096", |bench| {
        bench.iter(|| black_box(kernels::dot(black_box(&a), black_box(&b))))
    });
    g.bench_function("axpy_4096", |bench| {
        bench.iter(|| kernels::axpy(black_box(&mut y), 1.000001, black_box(&b)))
    });
    g.bench_function("squared_distance_4096", |bench| {
        bench.iter(|| black_box(kernels::squared_distance(black_box(&a), black_box(&b))))
    });
    let m1 = Matrix::from_fn(64, 64, |r, c| ((r * 64 + c) as f64 * 0.01).sin());
    let m2 = Matrix::from_fn(64, 64, |r, c| ((r * 64 + c) as f64 * 0.02).cos());
    let mut out = Matrix::zeros(64, 64);
    g.bench_function("matmul_into_64", |bench| {
        bench.iter(|| m1.matmul_into(black_box(&m2), &mut out))
    });

    // The same generic kernels at f32 — the precision-tiered scoring path.
    let b32 = series_f32(2);
    let mut y32 = series_f32(3);
    g.bench_function("axpy_f32_4096", |bench| {
        bench.iter(|| kernels::axpy(black_box(&mut y32), 1.000001, black_box(&b32)))
    });
    let m1_32 = to_f32(&m1);
    let m2_32 = to_f32(&m2);
    let mut out32 = Mat::<f32>::zeros(64, 64);
    g.bench_function("matmul_f32_into_64", |bench| {
        bench.iter(|| m1_32.matmul_into(black_box(&m2_32), &mut out32))
    });
}

fn throughput_report_and_assertions(timed: bool, snapshot: serde_json::Value) {
    let a = series(4);
    let b = series(5);
    let mut y = series(6);
    let iters = if timed { 2000 } else { 1 };

    let dot_ns = median_ns(iters, || {
        black_box(kernels::dot(black_box(&a), black_box(&b)));
    });
    let axpy_ns = median_ns(iters, || {
        kernels::axpy(black_box(&mut y), 1.000001, black_box(&b));
    });
    let sqd_ns = median_ns(iters, || {
        black_box(kernels::squared_distance(black_box(&a), black_box(&b)));
    });

    // 2 flops per element for dot/axpy, 3 for squared distance.
    let gflops = |flops_per_elem: f64, ns: f64| (N as f64 * flops_per_elem) / ns;
    let dot_gflops = gflops(2.0, dot_ns);
    let axpy_gflops = gflops(2.0, axpy_ns);
    let sqd_gflops = gflops(3.0, sqd_ns);

    let k = 36;
    let m1 = Matrix::from_fn(128, k, |r, c| ((r * k + c) as f64 * 0.01).sin());
    let m2 = Matrix::from_fn(k, 72, |r, c| ((r * 72 + c) as f64 * 0.02).cos());
    let mut out = Matrix::zeros(128, 72);
    let mm_iters = if timed { 500 } else { 1 };
    let mm_ns = median_ns(mm_iters, || m1.matmul_into(black_box(&m2), &mut out));
    let mm_gflops = (2.0 * 128.0 * k as f64 * 72.0) / mm_ns;

    // f32 instantiations: same element counts, so the f64/f32 ns ratio is
    // a direct bandwidth-parity read (half the bytes per lane should buy
    // roughly double the elements per cycle once autovectorized).
    let b32 = series_f32(5);
    let mut y32 = series_f32(6);
    let axpy32_ns = median_ns(iters, || {
        kernels::axpy(black_box(&mut y32), 1.000001, black_box(&b32));
    });
    let axpy32_gflops = gflops(2.0, axpy32_ns);
    let m1_32 = to_f32(&m1);
    let m2_32 = to_f32(&m2);
    let mut out32 = Mat::<f32>::zeros(128, 72);
    let mm32_ns = median_ns(mm_iters, || {
        m1_32.matmul_into(black_box(&m2_32), &mut out32)
    });
    let mm32_gflops = (2.0 * 128.0 * k as f64 * 72.0) / mm32_ns;

    // `gemm` at every product shape of the paper's model (20-row window,
    // 141 metrics, d_model 36, hidden 72, 3 heads), each operand form, at
    // the baseline width and as dispatched on this CPU.
    let avx2 = avx2_detected();
    let gemm_iters = if timed { 2000 } else { 1 };
    let gemm_rows: Vec<_> = MODEL_SHAPES
        .iter()
        .map(|&dims| (dims, gemm_gmacs::<f64>(dims, gemm_iters)))
        .collect();
    let [base, wide] = gemm_gmacs::<f64>((20, 36, 36), gemm_iters)[0];
    let width_ratio = wide / base;
    let f32_ratio_gemm = gemm_gmacs::<f32>((20, 36, 36), gemm_iters)[0][1] / wide;
    let gemm_json = serde_json::Value::Object(
        gemm_rows
            .iter()
            .map(|((m, k, n), [nn, nt, tn])| {
                let widths =
                    |[base, wide]: &[f64; 2]| json!({"baseline": base, "dispatched": wide});
                (
                    format!("{m}x{k}x{n}"),
                    json!({"nn": widths(nn), "nt": widths(nt), "tn": widths(tn)}),
                )
            })
            .collect(),
    );

    write_bench_json(
        "kernels",
        &json!({
            "n": N,
            "avx2_detected": avx2,
            "gemm_gmacs_f64": gemm_json,
            "gemm_dispatched_vs_baseline_20x36x36": width_ratio,
            "gemm_f32_vs_f64_20x36x36": f32_ratio_gemm,
            "gflops": json!({
                "dot": dot_gflops,
                "axpy": axpy_gflops,
                "squared_distance": sqd_gflops,
                "matmul_128x36x72": mm_gflops,
            }),
            "f32": json!({
                "axpy": axpy32_gflops,
                "matmul_128x36x72": mm32_gflops,
            }),
            "f32_vs_f64": json!({
                "axpy": axpy_ns / axpy32_ns,
                "matmul_128x36x72": mm_ns / mm32_ns,
            }),
            "snapshot": snapshot,
        }),
    );
    println!(
        "dot {dot_gflops:.2} GF/s | axpy {axpy_gflops:.2} GF/s | sqdist {sqd_gflops:.2} GF/s | \
         matmul {mm_gflops:.2} GF/s"
    );
    println!(
        "f32: axpy {axpy32_gflops:.2} GF/s ({:.2}x f64) | matmul {mm32_gflops:.2} GF/s ({:.2}x)",
        axpy_ns / axpy32_ns,
        mm_ns / mm32_ns,
    );

    println!(
        "gemm f64 GMAC/s, baseline -> dispatched (avx2 detected: {avx2}); \
         dispatched/baseline at 20x36x36 {width_ratio:.2}x, f32/f64 {f32_ratio_gemm:.2}x"
    );
    for ((m, k, n), [nn, nt, tn]) in &gemm_rows {
        println!(
            "  {:>10}  NN {:5.2} -> {:5.2}  NT {:5.2} -> {:5.2}  TN {:5.2} -> {:5.2}",
            format!("{m}x{k}x{n}"),
            nn[0],
            nn[1],
            nt[0],
            nt[1],
            tn[0],
            tn[1]
        );
    }

    if timed {
        // Width canary (see the header): 1.7× on record; without AVX2 both
        // sides are the same instantiation and there is nothing to assert.
        assert!(
            !avx2 || width_ratio >= 1.3,
            "dispatched gemm lost its width: {width_ratio:.2}x baseline (want >=1.3x)"
        );
        // Catastrophe canaries: healthy codegen lands 1–10 GFLOP/s on
        // any x86-64/aarch64 of the last decade; 0.05 only trips on a
        // cliff (debug arithmetic, per-element bounds checks).
        for (name, got) in [
            ("dot", dot_gflops),
            ("axpy", axpy_gflops),
            ("sqdist", sqd_gflops),
            ("matmul", mm_gflops),
            ("axpy f32", axpy32_gflops),
            ("matmul f32", mm32_gflops),
        ] {
            assert!(got > 0.05, "{name} throughput cliff: {got} GF/s");
        }
        // Bandwidth canary on what the f32 tier runs (see the header):
        // 1.9× on record at this shape; 1.5× absorbs runner noise.
        assert!(
            mm_ns / mm32_ns >= 1.5,
            "f32 matmul_into lost bandwidth parity: {:.2}x f64 (want >=1.5x)",
            mm_ns / mm32_ns
        );
    }
}

fn benches_then_report(c: &mut Criterion) {
    bench_kernels(c);
    // One band per matmul, as in scoring (`SharedModel::score_series_batch`
    // caps its thread to width 1): the report times kernels, not the pool's
    // dispatch, which on a 2-core runner costs a 25 µs f32 product more
    // than half of what the wider lanes save.
    let timed = c.timed();
    // The codec rows set the pool width themselves, so they run uncapped.
    let snapshot = snapshot_rows(timed);
    rayon::with_thread_parallelism_cap(Some(1), || {
        throughput_report_and_assertions(timed, snapshot)
    });
}

criterion_group!(benches, benches_then_report);
criterion_main!(benches);
