//! Autovectorization-contract micro-kernels.
//!
//! Every hot inner loop in the workspace — the blocked matmul, the
//! pre-transposed dot matmul, the probe matcher's early-abandon distance
//! scan, and the slice helpers in [`crate::vecops`] — bottoms out in one
//! of the functions below. Centralising them buys two things:
//!
//! 1. **One place to hold the codegen line.** Each kernel is written in
//!    the shape LLVM reliably autovectorises (plain zips, no bounds checks
//!    in the loop body) and is `#[inline]` so it fuses into callers
//!    instead of paying a call per band. `bench_kernels` (ns-bench)
//!    asserts the resulting throughput so a regression in either property
//!    fails CI.
//! 2. **One place to state the bit-exactness contract.** Reduction
//!    kernels (`dot`, `dot4`, `squared_distance*`) accumulate in strict
//!    ascending element order into a *single* chain per output, never
//!    reassociating the adds. Elementwise kernels (`axpy`, `axpy4`) have
//!    no reduction at all and vectorise freely. That is what lets the
//!    matmuls, the matcher, and the parallel combinators above them
//!    promise bitwise determinism.
//!
//! The matmul kernels (`axpy`, `axpy4`, `dot_from`, `dot4`, and `dot`
//! over `dot_from`) are generic over [`Scalar`]: the `f64` and `f32`
//! instantiations run the same operations in the same order, so each
//! tier is deterministic within itself; no bit relationship *between*
//! the tiers is promised. The distance kernels serve only the f64 probe
//! matcher.

use crate::scalar::Scalar;

/// `y[j] += a * x[j]` — the axpy row update of the blocked matmul.
///
/// Elementwise, so no loop shape can change results: each `y[j]` sees
/// exactly one fused `+= a * x[j]`. The plain zip loop is the shape
/// LLVM vectorises best here — a manually 4-blocked variant measured
/// ~2× *slower* on the bench container (the indexed chunk stores defeat
/// the widest vector lowering).
#[inline]
pub fn axpy<T: Scalar>(y: &mut [T], a: T, x: &[T]) {
    debug_assert_eq!(y.len(), x.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
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
pub fn axpy4<T: Scalar>(y: &mut [T], a: [T; 4], x0: &[T], x1: &[T], x2: &[T], x3: &[T]) {
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

/// Strict ascending-order dot product —
/// `a.iter().zip(b).map(|(x, y)| x * y).sum()`, including the `-0.0`
/// seed `Sum` folds from (observable in signed zeros).
#[inline]
pub fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    dot_from(T::NEG_ZERO, a, b)
}

/// [`dot`] with an explicit accumulator seed.
///
/// Exists because the workspace has two dot conventions that must each
/// stay bit-stable: the slice helpers fold from `Sum`'s `-0.0`, while
/// the matmul kernels accumulate from `+0.0` (the value `Mat::zeros`
/// initialises outputs to).
///
/// The adds form one serial chain (the bit-exactness contract), so the
/// rolled fold is the whole kernel: a 4-blocked body that unrolled only
/// the loads and multiplies measured 0.97–1.00× of this one and was
/// dropped.
#[inline]
pub fn dot_from<T: Scalar>(seed: T, a: &[T], b: &[T]) -> T {
    a.iter().zip(b).fold(seed, |s, (&x, &y)| s + x * y)
}

/// Four interleaved dot products of one row against four columns:
/// `(dot(a, b0), dot(a, b1), dot(a, b2), dot(a, b3))`.
///
/// Each accumulator keeps its own strict ascending-k serial chain —
/// bit-identical to four `dot_from(0.0, …)` calls (matmul convention:
/// chains start from the `+0.0` that `Mat::zeros` writes) — while
/// the four independent chains hide FP-add latency. This is the inner
/// body of [`crate::matrix::Mat::matmul_pre_t_into`].
#[inline]
pub fn dot4<T: Scalar>(a: &[T], b0: &[T], b1: &[T], b2: &[T], b3: &[T]) -> (T, T, T, T) {
    debug_assert!(a.len() <= b0.len() && a.len() <= b1.len());
    debug_assert!(a.len() <= b2.len() && a.len() <= b3.len());
    let (mut s0, mut s1, mut s2, mut s3) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
    for (kk, &av) in a.iter().enumerate() {
        s0 += av * b0[kk];
        s1 += av * b1[kk];
        s2 += av * b2[kk];
        s3 += av * b3[kk];
    }
    (s0, s1, s2, s3)
}

/// Strict ascending-order squared Euclidean distance, seeded with
/// `Sum`'s `-0.0` (squares are never `-0.0`, so the seed is only
/// observable on empty input). One serial add chain, so the rolled form
/// is the kernel (see [`dot_from`]).
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn series<T: Scalar>(seed: usize, n: usize) -> Vec<T> {
        (0..n)
            .map(|i| T::from_f64(((i * 37 + seed * 11) as f64 * 0.173).sin() * 3.0))
            .collect()
    }

    /// Bit pattern of either scalar (widening `f32` is injective, signed
    /// zeros included), so one generic body pins both instantiations.
    fn bits<T: Scalar>(v: T) -> u64 {
        v.to_f64().to_bits()
    }

    /// Widths spanning remainder sizes 0..=3 around the matmul's 4-way
    /// unroll and the matcher's 8-block.
    const WIDTHS: [usize; 9] = [0, 1, 3, 4, 7, 8, 11, 16, 129];

    /// Run one generic kernel check at both scalars.
    macro_rules! both_scalars {
        ($($name:ident => $body:ident;)*) => {$(
            #[test]
            fn $name() {
                $body::<f64>();
                $body::<f32>();
            }
        )*};
    }

    both_scalars! {
        dot_bit_identical_to_rolled => dot_rolled;
        dot4_bit_identical_to_four_dots => dot4_four_dots;
        dot_seed_matches_sum_on_signed_zeros => dot_seed;
        axpy_bit_identical_to_rolled => axpy_rolled;
        axpy4_bit_identical_to_sequential_axpys => axpy4_sequential;
    }

    fn dot_rolled<T: Scalar>() {
        for n in WIDTHS {
            let a = series::<T>(1, n);
            let b = series::<T>(2, n);
            let naive: T = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            assert_eq!(bits(dot(&a, &b)), bits(naive), "n={n}");
        }
    }

    fn dot4_four_dots<T: Scalar>() {
        for n in WIDTHS {
            let a = series::<T>(0, n);
            let cols: Vec<Vec<T>> = (1..=4).map(|s| series(s, n)).collect();
            let (s0, s1, s2, s3) = dot4(&a, &cols[0], &cols[1], &cols[2], &cols[3]);
            for (got, col) in [s0, s1, s2, s3].into_iter().zip(&cols) {
                assert_eq!(bits(got), bits(dot_from(T::ZERO, &a, col)), "n={n}");
            }
        }
    }

    fn dot_seed<T: Scalar>() {
        // Every product is -0.0: `Sum` folds -0.0 + -0.0 + … = -0.0,
        // while a +0.0 seed would flip the result to +0.0.
        let a = vec![T::ZERO; 5];
        let b = vec![T::ZERO - T::ONE; 5];
        let naive: T = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        assert_eq!(bits(naive), (-0.0f64).to_bits());
        assert_eq!(bits(dot(&a, &b)), bits(naive));
        assert_eq!(bits(dot_from(T::ZERO, &a, &b)), 0.0f64.to_bits());
    }

    fn axpy_rolled<T: Scalar>() {
        let k = T::from_f64(0.37);
        for n in WIDTHS {
            let x = series::<T>(3, n);
            let mut y = series::<T>(4, n);
            let mut want = y.clone();
            for (w, &xv) in want.iter_mut().zip(&x) {
                *w += k * xv;
            }
            axpy(&mut y, k, &x);
            for (&got, &want) in y.iter().zip(&want) {
                assert_eq!(bits(got), bits(want), "n={n}");
            }
        }
    }

    fn axpy4_sequential<T: Scalar>() {
        for n in WIDTHS {
            let rows: Vec<Vec<T>> = (0..4).map(|s| series(s + 5, n)).collect();
            let coeffs = [0.31, -1.7, 0.009, 2.5].map(T::from_f64);
            let mut y = series::<T>(9, n);
            let mut want = y.clone();
            for (&a, x) in coeffs.iter().zip(&rows) {
                axpy(&mut want, a, x);
            }
            axpy4(&mut y, coeffs, &rows[0], &rows[1], &rows[2], &rows[3]);
            for (&got, &want) in y.iter().zip(&want) {
                assert_eq!(bits(got), bits(want), "n={n}");
            }
        }
    }

    #[test]
    fn squared_distance_bit_identical_to_rolled() {
        for n in WIDTHS {
            let a = series::<f64>(6, n);
            let b = series::<f64>(7, n);
            let mut naive = -0.0f64;
            for (x, y) in a.iter().zip(&b) {
                naive += (x - y) * (x - y);
            }
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
            let a = series::<f64>(8, n);
            let b = series::<f64>(9, n);
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
}
