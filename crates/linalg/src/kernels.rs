//! Autovectorization-contract micro-kernels.
//!
//! Every hot inner loop in the workspace — the blocked matmul, the
//! pre-transposed dot matmul, the probe matcher's early-abandon distance
//! scan, and the slice helpers in [`crate::vecops`] — bottoms out in one
//! of the functions below. Centralising them buys two things:
//!
//! 1. **One place to hold the codegen line.** Each kernel is written in
//!    the shape LLVM reliably autovectorises for f64 (4-wide blocks via
//!    `chunks_exact`, no bounds checks in the loop body after the split)
//!    and is `#[inline]` so it fuses into callers instead of paying a
//!    call per band. `bench_kernels` (ns-bench) asserts the resulting
//!    throughput so a regression in either property fails CI.
//! 2. **One place to state the bit-exactness contract.** Reduction
//!    kernels (`dot`, `dot4`, `squared_distance*`) accumulate in strict
//!    ascending element order into a *single* chain per output — blocking
//!    only unrolls the loads and multiplies, never reassociates the adds
//!    — so each is bit-identical to its naive rolled form. Elementwise
//!    kernels (`axpy`, `axpy4`) have no reduction at all and vectorise
//!    freely. That is what lets the matmuls, the matcher, and the
//!    parallel combinators above them promise bitwise determinism.
//!
//! The 4-wide block is deliberate: it matches one AVX2 f64 vector (or
//! two NEON lanes), and for the serial-chain reductions it still lets
//! LLVM vectorise the subtraction/multiplication half of the loop while
//! the adds retire in order.

/// `y[j] += a * x[j]` — the axpy row update of the blocked matmul.
///
/// Elementwise, so no loop shape can change results: each `y[j]` sees
/// exactly one fused `+= a * x[j]`. The plain zip loop is the shape
/// LLVM vectorises best here — a manually 4-blocked variant measured
/// ~2× *slower* on the bench container (the indexed chunk stores defeat
/// the widest vector lowering), and `bench_kernels`' blocked-vs-naive
/// parity floor now holds by construction.
#[inline]
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// Fused four-row axpy: `y[j] += a0·x0[j] + a1·x1[j] + a2·x2[j] + a3·x3[j]`,
/// with the four adds into each `y[j]` applied in ascending row order.
///
/// This is the k-unrolled inner body of the dense matmul: each output
/// element is loaded and stored once per four multiply-adds, and because
/// the per-element add order is exactly `a0, a1, a2, a3` it is
/// bit-identical to four sequential [`axpy`] calls.
#[inline]
pub fn axpy4(y: &mut [f64], a: [f64; 4], x0: &[f64], x1: &[f64], x2: &[f64], x3: &[f64]) {
    debug_assert!(y.len() <= x0.len() && y.len() <= x1.len());
    debug_assert!(y.len() <= x2.len() && y.len() <= x3.len());
    for ((((yv, &v0), &v1), &v2), &v3) in y.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        let mut t = *yv;
        t += a[0] * v0;
        t += a[1] * v1;
        t += a[2] * v2;
        t += a[3] * v3;
        *yv = t;
    }
}

/// Strict ascending-order dot product — bit-identical to
/// `a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>()`.
///
/// The adds form a single serial chain (the bit-exactness contract), so
/// the win here is unrolled loads/multiplies and no bounds checks, not
/// a reassociated reduction. Seeds the chain with `-0.0`, the same
/// additive identity `Sum<f64>` folds from — the seed is observable in
/// signed zeros (`-0.0 + -0.0` is `-0.0` but `0.0 + -0.0` is `0.0`).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    dot_from(-0.0, a, b)
}

/// [`dot`] with an explicit accumulator seed.
///
/// Exists because the workspace has two dot conventions that must each
/// stay bit-stable: the slice helpers fold from `Sum`'s `-0.0`, while
/// the matmul kernels accumulate from `+0.0` (the value `Matrix::zeros`
/// initialises outputs to).
#[inline]
pub fn dot_from(seed: f64, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a4, atail) = a[..n].split_at(n - n % 4);
    let (b4, btail) = b[..n].split_at(n - n % 4);
    let mut s = seed;
    for (ac, bc) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        s += ac[0] * bc[0];
        s += ac[1] * bc[1];
        s += ac[2] * bc[2];
        s += ac[3] * bc[3];
    }
    for (av, bv) in atail.iter().zip(btail) {
        s += av * bv;
    }
    s
}

/// Four interleaved dot products of one row against four columns:
/// `(dot(a, b0), dot(a, b1), dot(a, b2), dot(a, b3))`.
///
/// Each accumulator keeps its own strict ascending-k serial chain —
/// bit-identical to four `dot_from(0.0, …)` calls (matmul convention:
/// chains start from the `+0.0` that `Matrix::zeros` writes) — while
/// the four independent chains hide FP-add latency. This is the inner
/// body of [`crate::matrix::Matrix::matmul_pre_t_into`].
#[inline]
pub fn dot4(a: &[f64], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) -> (f64, f64, f64, f64) {
    debug_assert!(a.len() <= b0.len() && a.len() <= b1.len());
    debug_assert!(a.len() <= b2.len() && a.len() <= b3.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (kk, &av) in a.iter().enumerate() {
        s0 += av * b0[kk];
        s1 += av * b1[kk];
        s2 += av * b2[kk];
        s3 += av * b3[kk];
    }
    (s0, s1, s2, s3)
}

/// Strict ascending-order squared Euclidean distance — bit-identical to
/// `a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()`,
/// including `Sum`'s `-0.0` seed (squares are never `-0.0`, so the seed
/// is only observable on empty input).
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a4, atail) = a[..n].split_at(n - n % 4);
    let (b4, btail) = b[..n].split_at(n - n % 4);
    let mut s = -0.0f64;
    for (ac, bc) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        let d0 = ac[0] - bc[0];
        let d1 = ac[1] - bc[1];
        let d2 = ac[2] - bc[2];
        let d3 = ac[3] - bc[3];
        s += d0 * d0;
        s += d1 * d1;
        s += d2 * d2;
        s += d3 * d3;
    }
    for (av, bv) in atail.iter().zip(btail) {
        let d = av - bv;
        s += d * d;
    }
    s
}

/// Early-abandon squared distance for the probe matcher: accumulates
/// `(a[i] - b[i])²` in strict ascending order, checking the running sum
/// against `bound` once per 8 elements. Returns the partial sum at the
/// point of abandonment (some value `≥ bound`) or the exact full
/// [`squared_distance`] when the row survives every check.
///
/// Why abandonment cannot change a strict-`<` argmin over these sums is
/// argued at the call site ([`crate::distance::nearest_row`]); the
/// contract this kernel owns is narrower: the accumulation order is
/// exactly the matcher's historical `+0.0`-seeded scan (squares are
/// never `-0.0`, so it matches [`squared_distance`] on every non-empty
/// row), a surviving row's sum is bit-identical to the full scan, and a
/// NaN sum (which compares false against any bound) always runs to
/// completion.
#[inline]
pub fn squared_distance_bounded(a: &[f64], b: &[f64], bound: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0f64;
    let mut achunks = a.chunks_exact(8);
    let mut bchunks = b.chunks_exact(8);
    for (ac, bc) in (&mut achunks).zip(&mut bchunks) {
        for (av, bv) in ac.iter().zip(bc) {
            let d = av - bv;
            s += d * d;
        }
        if s >= bound {
            return s;
        }
    }
    for (av, bv) in achunks.remainder().iter().zip(bchunks.remainder()) {
        let d = av - bv;
        s += d * d;
    }
    s
}

// ---------------------------------------------------------------------------
// f32 twins — the precision-tiered scoring path.
//
// Two association contracts live here, chosen per call site:
//
// * The **matmul kernels** (`axpy_f32`, `axpy4_f32`, `dot_from_f32`,
//   `dot4_f32`) keep the f64 layer's strict ascending-k serial chains,
//   because `MatrixF32` pins `matmul_into` bit-identical to the rolled
//   triple loop and `matmul_pre_t_into` bit-identical to `matmul_into`
//   — the same elegance argument as f64, and elementwise/interleaved
//   chains vectorise fine without reassociation.
// * The **reduction kernel** `dot_f32` uses a *fixed 8-lane
//   association*: lane `j` accumulates elements `i` with `i % 8 == j`
//   over `chunks_exact(8)`, lanes reduce in one pinned tree, the `< 8`
//   tail folds serially after. A single serial chain is
//   FP-add-latency-bound — f32 runs it no faster than f64, which
//   forfeits exactly the bandwidth win the tier exists for — while
//   eight independent chains fill an AVX2 f32 vector and let f32
//   retire ~2× the elements per cycle (`bench_kernels` floors the
//   ratio at ≥1.5×). The lane structure is compiled in, never derived
//   from width or thread count, so the f32 pipeline stays bitwise
//   deterministic; it is simply a *different* pinned order than the
//   rolled form, which is fine because the f32 tier is new — there is
//   no historical f32 bit-stream to preserve, and nothing here is
//   bit-pinned against the f64 tier (that delta is measured in
//   `exp_deployment`, not asserted).
// ---------------------------------------------------------------------------

/// f32 twin of [`axpy`]: `y[j] += a * x[j]`. Elementwise — the zip loop
/// shape is bit-free and vectorises widest (see [`axpy`]).
#[inline]
pub fn axpy_f32(y: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// f32 twin of [`axpy4`]: fused four-row axpy with the per-element adds
/// applied in ascending row order — bit-identical to four sequential
/// [`axpy_f32`] calls.
#[inline]
pub fn axpy4_f32(y: &mut [f32], a: [f32; 4], x0: &[f32], x1: &[f32], x2: &[f32], x3: &[f32]) {
    debug_assert!(y.len() <= x0.len() && y.len() <= x1.len());
    debug_assert!(y.len() <= x2.len() && y.len() <= x3.len());
    for ((((yv, &v0), &v1), &v2), &v3) in y.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        let mut t = *yv;
        t += a[0] * v0;
        t += a[1] * v1;
        t += a[2] * v2;
        t += a[3] * v3;
        *yv = t;
    }
}

/// f32 dot product in the fixed 8-lane association (see the module
/// section comment): lane `j` owns elements `i % 8 == j`, lanes seed
/// `-0.0` (so an all-`-0.0` product stream still folds to `-0.0`, like
/// `Sum`), reduce in the pinned tree
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, and the `< 8` tail folds
/// serially after. Deterministic, but deliberately *not* the rolled
/// `Iterator::sum` order — eight independent chains are what let f32
/// beat the latency-bound f64 serial chain.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a8, atail) = a[..n].split_at(n - n % 8);
    let (b8, btail) = b[..n].split_at(n - n % 8);
    let mut l = [-0.0f32; 8];
    for (ac, bc) in a8.chunks_exact(8).zip(b8.chunks_exact(8)) {
        for j in 0..8 {
            l[j] += ac[j] * bc[j];
        }
    }
    let mut s = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
    for (av, bv) in atail.iter().zip(btail) {
        s += av * bv;
    }
    s
}

/// f32 twin of [`dot_from`]: strict ascending-order serial-chain dot
/// with an explicit accumulator seed. This is the **matmul-convention**
/// kernel (`+0.0` chains), kept serial so
/// [`crate::matrix_f32::MatrixF32::matmul_pre_t_into`] stays
/// bit-identical to the blocked axpy matmul; the lane-split fast dot is
/// [`dot_f32`].
#[inline]
pub fn dot_from_f32(seed: f32, a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a4, atail) = a[..n].split_at(n - n % 4);
    let (b4, btail) = b[..n].split_at(n - n % 4);
    let mut s = seed;
    for (ac, bc) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        s += ac[0] * bc[0];
        s += ac[1] * bc[1];
        s += ac[2] * bc[2];
        s += ac[3] * bc[3];
    }
    for (av, bv) in atail.iter().zip(btail) {
        s += av * bv;
    }
    s
}

/// f32 twin of [`dot4`]: four interleaved dots of one row against four
/// columns, each chain seeded `+0.0` (matmul convention) — bit-identical
/// to four `dot_from_f32(0.0, …)` calls.
#[inline]
pub fn dot4_f32(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> (f32, f32, f32, f32) {
    debug_assert!(a.len() <= b0.len() && a.len() <= b1.len());
    debug_assert!(a.len() <= b2.len() && a.len() <= b3.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (kk, &av) in a.iter().enumerate() {
        s0 += av * b0[kk];
        s1 += av * b1[kk];
        s2 += av * b2[kk];
        s3 += av * b3[kk];
    }
    (s0, s1, s2, s3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(seed: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 + seed * 11) as f64 * 0.173).sin() * 3.0)
            .collect()
    }

    /// Widths spanning remainder sizes 0..=3 around the 4-block and the
    /// matcher's 8-block.
    const WIDTHS: [usize; 9] = [0, 1, 3, 4, 7, 8, 11, 16, 129];

    #[test]
    fn dot_bit_identical_to_rolled() {
        for n in WIDTHS {
            let a = series(1, n);
            let b = series(2, n);
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot(&a, &b).to_bits(), naive.to_bits(), "n={n}");
        }
    }

    #[test]
    fn dot4_bit_identical_to_four_dots() {
        for n in WIDTHS {
            let a = series(0, n);
            let cols: Vec<Vec<f64>> = (1..=4).map(|s| series(s, n)).collect();
            let (s0, s1, s2, s3) = dot4(&a, &cols[0], &cols[1], &cols[2], &cols[3]);
            for (got, col) in [s0, s1, s2, s3].iter().zip(&cols) {
                assert_eq!(got.to_bits(), dot_from(0.0, &a, col).to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn dot_seed_matches_sum_on_signed_zeros() {
        // Every product is -0.0: `Sum` folds -0.0 + -0.0 + … = -0.0,
        // while a +0.0 seed would flip the result to +0.0.
        let a = vec![0.0; 5];
        let b = vec![-1.0; 5];
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(naive.to_bits(), (-0.0f64).to_bits());
        assert_eq!(dot(&a, &b).to_bits(), naive.to_bits());
        assert_eq!(dot_from(0.0, &a, &b).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn axpy_bit_identical_to_rolled() {
        for n in WIDTHS {
            let x = series(3, n);
            let mut y = series(4, n);
            let mut want = y.clone();
            for (w, xv) in want.iter_mut().zip(&x) {
                *w += 0.37 * xv;
            }
            axpy(&mut y, 0.37, &x);
            for (got, want) in y.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn axpy4_bit_identical_to_sequential_axpys() {
        for n in WIDTHS {
            let rows: Vec<Vec<f64>> = (0..4).map(|s| series(s + 5, n)).collect();
            let coeffs = [0.31, -1.7, 0.009, 2.5];
            let mut y = series(9, n);
            let mut want = y.clone();
            for (a, x) in coeffs.iter().zip(&rows) {
                axpy(&mut want, *a, x);
            }
            axpy4(&mut y, coeffs, &rows[0], &rows[1], &rows[2], &rows[3]);
            for (got, want) in y.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn squared_distance_bit_identical_to_rolled() {
        for n in WIDTHS {
            let a = series(6, n);
            let b = series(7, n);
            let naive: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| {
                    let d = x - y;
                    d * d
                })
                .sum();
            assert_eq!(squared_distance(&a, &b).to_bits(), naive.to_bits(), "n={n}");
        }
    }

    #[test]
    fn bounded_distance_exact_when_surviving() {
        for n in WIDTHS {
            if n == 0 {
                // The seeds are the one place the conventions split:
                // bounded keeps the matcher's historical +0.0, the full
                // kernel keeps `Sum`'s -0.0.
                let z = squared_distance_bounded(&[], &[], f64::INFINITY);
                assert_eq!(z.to_bits(), 0.0f64.to_bits());
                assert_eq!(squared_distance(&[], &[]).to_bits(), (-0.0f64).to_bits());
                continue;
            }
            let a = series(8, n);
            let b = series(9, n);
            let full = squared_distance(&a, &b);
            let got = squared_distance_bounded(&a, &b, f64::INFINITY);
            assert_eq!(got.to_bits(), full.to_bits(), "n={n}");
        }
    }

    #[test]
    fn bounded_distance_abandons_at_or_over_bound() {
        let a = vec![10.0; 64];
        let b = vec![0.0; 64];
        let s = squared_distance_bounded(&a, &b, 150.0);
        // Abandoned: the partial sum must already disqualify the row …
        assert!(s >= 150.0);
        // … after the first 8-block (8 × 100), not the full row.
        assert_eq!(s, 800.0);
    }

    #[test]
    fn bounded_distance_runs_nan_rows_to_completion() {
        let mut a = vec![0.0; 16];
        a[0] = f64::NAN;
        let b = vec![1.0; 16];
        let s = squared_distance_bounded(&a, &b, 0.5);
        assert!(s.is_nan());
    }

    fn series32(seed: usize, n: usize) -> Vec<f32> {
        series(seed, n).into_iter().map(|v| v as f32).collect()
    }

    /// Rolled reference for the fixed 8-lane association the f32
    /// reduction kernels pin: lane `j` folds elements `i % 8 == j`,
    /// lanes reduce in the `((0+1)+(2+3))+((4+5)+(6+7))` tree, the
    /// `< 8` tail folds serially. `seed` seeds every lane (`-0.0` for
    /// the `Sum`-flavoured kernels, `+0.0` for the matcher's bounded
    /// scan).
    fn lane8_reduce(seed: f32, n: usize, term: impl Fn(usize) -> f32) -> f32 {
        let full = n - n % 8;
        let mut l = [seed; 8];
        for i in 0..full {
            l[i % 8] += term(i);
        }
        let mut s = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        for i in full..n {
            s += term(i);
        }
        s
    }

    #[test]
    fn f32_dot_bit_identical_to_lane8_reference() {
        for n in WIDTHS {
            let a = series32(1, n);
            let b = series32(2, n);
            let want = lane8_reduce(-0.0, n, |i| a[i] * b[i]);
            assert_eq!(dot_f32(&a, &b).to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn f32_dot4_bit_identical_to_four_dots() {
        for n in WIDTHS {
            let a = series32(0, n);
            let cols: Vec<Vec<f32>> = (1..=4).map(|s| series32(s, n)).collect();
            let (s0, s1, s2, s3) = dot4_f32(&a, &cols[0], &cols[1], &cols[2], &cols[3]);
            for (got, col) in [s0, s1, s2, s3].iter().zip(&cols) {
                assert_eq!(got.to_bits(), dot_from_f32(0.0, &a, col).to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn f32_dot_seed_matches_sum_on_signed_zeros() {
        let a = vec![0.0f32; 5];
        let b = vec![-1.0f32; 5];
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(naive.to_bits(), (-0.0f32).to_bits());
        assert_eq!(dot_f32(&a, &b).to_bits(), naive.to_bits());
        assert_eq!(dot_from_f32(0.0, &a, &b).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn f32_axpy_bit_identical_to_rolled() {
        for n in WIDTHS {
            let x = series32(3, n);
            let mut y = series32(4, n);
            let mut want = y.clone();
            for (w, xv) in want.iter_mut().zip(&x) {
                *w += 0.37 * xv;
            }
            axpy_f32(&mut y, 0.37, &x);
            for (got, want) in y.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn f32_axpy4_bit_identical_to_sequential_axpys() {
        for n in WIDTHS {
            let rows: Vec<Vec<f32>> = (0..4).map(|s| series32(s + 5, n)).collect();
            let coeffs = [0.31f32, -1.7, 0.009, 2.5];
            let mut y = series32(9, n);
            let mut want = y.clone();
            for (a, x) in coeffs.iter().zip(&rows) {
                axpy_f32(&mut want, *a, x);
            }
            axpy4_f32(&mut y, coeffs, &rows[0], &rows[1], &rows[2], &rows[3]);
            for (got, want) in y.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            }
        }
    }
}
