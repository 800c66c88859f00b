//! The workspace's hot inner loops, each written once.
//!
//! Every dense matmul — [`Mat::matmul`](crate::matrix::Mat::matmul), its
//! `_into` and transposed-operand forms, and through them the training
//! tape's forward and backward and the inference session — bottoms out in
//! [`gemm`]; dot products, squared distances and `axpy` over slices are
//! the small kernels below it. Centralising them buys two things:
//!
//! 1. **One place to hold the codegen line.** [`gemm`] is a
//!    register-blocked microkernel: a four-row tile of accumulators,
//!    one cache line wide, stays in vector registers across
//!    the whole reduction, so an output element is stored once per product
//!    instead of once per few multiply-adds. The tile body is plain safe
//!    Rust over fixed-size arrays — the shape LLVM turns into broadcast,
//!    vector multiply, vector add — and is compiled twice: at the build's
//!    baseline width and, on x86-64, under `#[target_feature(enable =
//!    "avx2")]`, picked per call by `is_x86_feature_detected!`. The small
//!    kernels are rolled zips, `#[inline]` so they fuse into callers.
//!    `bench_kernels` (ns-bench) asserts the resulting throughput so a
//!    regression in either property fails CI.
//! 2. **One place to state the bit-exactness contract.** Every reduction
//!    ([`gemm`]'s per-element k-sum, `dot`, `squared_distance`)
//!    accumulates in strict ascending element order into a *single* chain
//!    per output, never reassociating the adds, and Rust never contracts
//!    `a * b + c` into a fused multiply-add — so the tile shape, the
//!    operand form, the vector width, banding and thread count are all
//!    invisible in the result bits. Elementwise kernels (`axpy`) have no
//!    reduction at all and vectorise freely. That is what lets the
//!    matmuls and the parallel combinators above them promise bitwise
//!    determinism.
//!
//! [`gemm`], `axpy`, `dot_from` and `dot` are generic over [`Scalar`]: the
//! `f64` and `f32` instantiations run the same operations in the same
//! order, so each tier is deterministic within itself; no bit
//! relationship *between* the tiers is promised. The distance kernel is
//! f64 only.

use crate::scalar::Scalar;
use std::ops::Range;

/// Which operand of a product is stored transposed. Storage is row-major
/// in every form; the product is always the logical `m×k · k×n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// `A·B`: `a` is `m × k`, `b` is `k × n`.
    NN,
    /// `A·Bᵀ`: `a` is `m × k`, `b` is `n × k` — every output element is a
    /// dot product of two stored rows.
    NT,
    /// `Aᵀ·B`: `a` is `k × m`, `b` is `k × n` — every reduction step is an
    /// outer product of two stored rows.
    TN,
}

/// One product `op(A)·op(B)`: the logical `dims = (m, k, n)` and the two
/// operands, stored as `form` says.
#[derive(Clone, Copy)]
pub struct Product<'a, T> {
    pub form: Form,
    pub dims: (usize, usize, usize),
    pub a: &'a [T],
    pub b: &'a [T],
}

/// One operand as the tile loop reads it: `data` row-major with row
/// length `ld`.
#[derive(Clone, Copy)]
struct Operand<'a, T> {
    data: &'a [T],
    ld: usize,
}

/// Reader of `W` adjacent lanes of one operand, starting at lane `off`,
/// per reduction step. `ALONG`: the operand's rows run along the
/// reduction (`A` of NN/NT, `B` of NT), so lane `w` is row `off + w` read
/// at column `kk` — `W` scalar loads. Otherwise its rows run across the
/// tile (`B` of NN/TN, `A` of TN) and the lanes are `W` adjacent elements
/// of row `kk` — one vector load.
#[inline(always)]
fn lanes<'a, T: Scalar, const W: usize, const ALONG: bool>(
    x: Operand<'a, T>,
    off: usize,
    k: usize,
) -> impl Fn(usize) -> [T; W] + 'a {
    let empty = &x.data[..0];
    let rows: [&[T]; W] = std::array::from_fn(|w| {
        if ALONG {
            &x.data[(off + w) * x.ld..(off + w) * x.ld + k]
        } else {
            empty
        }
    });
    // Restating the lengths is what lets the `kk < k` loop below read
    // `rows[w][kk]` without a bounds check per lane per step.
    assert!(!ALONG || rows.iter().all(|r| r.len() == k));
    let across = if ALONG { empty } else { &x.data[off..] };
    move |kk| {
        if ALONG {
            std::array::from_fn(|w| rows[w][kk])
        } else {
            *across[kk * x.ld..]
                .first_chunk::<W>()
                .expect("tile lies inside the operand")
        }
    }
}

/// The microkernel: an `MR × NR` tile of `C` at `(i0, j0)`, each element
/// one chain seeded `+0.0` and advanced in ascending `kk`, held in
/// registers for the whole reduction and stored once. `c` starts at row
/// `i0` of the output.
#[inline(always)]
fn tile<T: Scalar, const MR: usize, const NR: usize, const AA: bool, const BA: bool>(
    k: usize,
    (a, i0): (Operand<'_, T>, usize),
    (b, j0): (Operand<'_, T>, usize),
    c: &mut [T],
    n: usize,
) {
    let a_at = lanes::<T, MR, AA>(a, i0, k);
    let b_at = lanes::<T, NR, BA>(b, j0, k);
    let mut acc = [[T::ZERO; NR]; MR];
    for kk in 0..k {
        let (av, bv) = (a_at(kk), b_at(kk));
        for (row, &ai) in acc.iter_mut().zip(&av) {
            for (s, &bj) in row.iter_mut().zip(&bv) {
                *s += ai * bj;
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        c[i * n + j0..i * n + j0 + NR].copy_from_slice(row);
    }
}

/// All tiles of output rows `rows`: full `4 × NR` tiles, then the ragged
/// edges as narrower instantiations of the same [`tile`] body. Four rows
/// by one cache line of columns is 8 AVX2 accumulator registers plus the
/// operand vectors and broadcasts — the most that stays clear of spills
/// at both widths (6 rows measured 0.9–1.0× of 4 at AVX2 and spills at
/// the baseline; 4 columns of `f64` measured 0.75× at AVX2).
#[inline(always)]
fn tiles<T: Scalar, const NR: usize, const AA: bool, const BA: bool>(
    p: Product<'_, T>,
    rows: Range<usize>,
    c: &mut [T],
) {
    let (m, k, n) = p.dims;
    let a = Operand {
        data: p.a,
        ld: if AA { k } else { m },
    };
    let b = Operand {
        data: p.b,
        ld: if BA { k } else { n },
    };
    let mut i = rows.start;
    macro_rules! band {
        ($h:literal: $($w:literal)*) => {
            while rows.end - i >= $h {
                let c = &mut c[(i - rows.start) * n..];
                let mut j = 0;
                $(while $w <= NR && n - j >= $w {
                    tile::<T, $h, $w, AA, BA>(k, (a, i), (b, j), c, n);
                    j += $w;
                })*
                i += $h;
            }
        };
    }
    band!(4: 16 8 4 2 1);
    band!(2: 16 8 4 2 1);
    band!(1: 16 8 4 2 1);
}

/// [`tiles`] at the scalar's tile width and the product's operand form.
#[inline(always)]
fn forms<T: Scalar>(p: Product<'_, T>, rows: Range<usize>, c: &mut [T]) {
    // One cache line of columns. An array length cannot be computed from
    // `T` inside a generic function, hence the branch; it folds away in
    // each instantiation.
    macro_rules! at_width {
        ($nr:literal) => {
            match p.form {
                Form::NN => tiles::<T, $nr, true, false>(p, rows, c),
                Form::NT => tiles::<T, $nr, true, true>(p, rows, c),
                Form::TN => tiles::<T, $nr, false, false>(p, rows, c),
            }
        };
    }
    if std::mem::size_of::<T>() == 4 {
        at_width!(16)
    } else {
        at_width!(8)
    }
}

/// [`forms`] compiled with AVX2 enabled: the same operations in the same
/// order as the baseline build's copy, four `f64` (eight `f32`) lanes per
/// instruction instead of two (four). No FMA is enabled and Rust never
/// contracts `a * b + c`, so the two widths agree bit for bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn forms_avx2<T: Scalar>(p: Product<'_, T>, rows: Range<usize>, c: &mut [T]) {
    forms(p, rows, c)
}

/// Rows `rows` of the `m × n` product `p` written into `c` (`rows.len() ×
/// n`, row-major, every element overwritten). Each output element is
/// `((+0.0 + a₀b₀) + a₁b₁) + …` in ascending `k` — the definitional
/// triple loop's bits, whatever the form, the row range or the CPU.
///
/// This is the one dispatch point: the tile loop runs at the widest vector
/// width the CPU reports, else at the build's baseline.
///
/// # Panics
/// Panics if a slice length disagrees with `p.dims`, `p.form` and `rows`.
pub fn gemm<T: Scalar>(p: Product<'_, T>, rows: Range<usize>, c: &mut [T]) {
    if !checked(p, &rows, c) {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `forms_avx2` is safe Rust whose only requirement is the
        // one its `#[target_feature]` adds — that the CPU executing it
        // supports AVX2 — and this branch is taken only when the runtime
        // check says it does.
        return unsafe { forms_avx2(p, rows, c) };
    }
    forms(p, rows, c)
}

/// [`gemm`] at the build's baseline vector width — what every non-x86-64
/// target and every x86-64 CPU without AVX2 runs. Public so
/// `bench_kernels` can put a number on what the width dispatch buys.
pub fn gemm_baseline<T: Scalar>(p: Product<'_, T>, rows: Range<usize>, c: &mut [T]) {
    if checked(p, &rows, c) {
        forms(p, rows, c)
    }
}

/// Validate a [`gemm`] call. `false` when there is nothing to reduce
/// (`k == 0`): `c` is then already the product, all `+0.0`.
fn checked<T: Scalar>(p: Product<'_, T>, rows: &Range<usize>, c: &mut [T]) -> bool {
    let (m, k, n) = p.dims;
    assert!(
        p.a.len() == m * k && p.b.len() == k * n,
        "gemm operand size"
    );
    assert!(
        rows.start <= rows.end && rows.end <= m && c.len() == rows.len() * n,
        "gemm output rows"
    );
    if k == 0 {
        c.fill(T::ZERO);
    }
    k > 0
}

/// `y[j] += a * x[j]`.
///
/// Elementwise, so no loop shape can change results: each `y[j]` sees
/// exactly one `+= a * x[j]`. The plain zip loop is the shape LLVM
/// vectorises best here — a manually 4-blocked variant measured ~2×
/// *slower* on the bench container (the indexed chunk stores defeat the
/// widest vector lowering).
#[inline]
pub fn axpy<T: Scalar>(y: &mut [T], a: T, x: &[T]) {
    debug_assert_eq!(y.len(), x.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
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
/// [`gemm`]'s chains accumulate from `+0.0`.
///
/// The adds form one serial chain (the bit-exactness contract), so the
/// rolled fold is the whole kernel: a 4-blocked body that unrolled only
/// the loads and multiplies measured 0.97–1.00× of this one and was
/// dropped.
#[inline]
pub fn dot_from<T: Scalar>(seed: T, a: &[T], b: &[T]) -> T {
    a.iter().zip(b).fold(seed, |s, (&x, &y)| s + x * y)
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

/// Each form of [`gemm`] (NN / NT / TN) equals the definitional triple
/// loop (`+0.0` seed, ascending k) over ragged-tile shapes at both scalars,
/// with NaN, signed-zero and subnormal entries; the transposed forms equal
/// NN on the materialised transpose; where the CPU has AVX2 that
/// instantiation equals the baseline one; and any row range equals those
/// rows of the whole product.
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

    /// Widths spanning remainder sizes around an 8-element block.
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
        dot_seed_matches_sum_on_signed_zeros => dot_seed;
        axpy_bit_identical_to_rolled => axpy_rolled;
        gemm_forms_bit_identical_to_the_triple_loop => gemm_vs_triple_loop;
        gemm_transposed_forms_equal_nn_on_the_materialised_transpose => gemm_forms_agree;
        gemm_avx2_bit_identical_to_baseline => gemm_widths_agree;
        gemm_row_range_equals_those_rows_of_the_whole => gemm_row_ranges;
    }

    fn dot_rolled<T: Scalar>() {
        for n in WIDTHS {
            let a = series::<T>(1, n);
            let b = series::<T>(2, n);
            let naive: T = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            assert_eq!(bits(dot(&a, &b)), bits(naive), "n={n}");
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

    // ---- gemm: the contract every dense matmul in the workspace rests on ----

    /// Same value: same bits, or both NaN. IEEE 754 leaves which operand's
    /// payload a NaN result carries to the operand order, which LLVM may
    /// commute per compilation, so payloads are outside the contract.
    fn same<T: Scalar>(x: T, y: T) -> bool {
        bits(x) == bits(y) || (x.to_f64().is_nan() && y.to_f64().is_nan())
    }

    fn assert_same<T: Scalar>(got: &[T], want: &[T], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(same(g, w), "{what}: element {i} is {g}, want {w}");
        }
    }

    /// `len` operand values: mostly ordinary, with NaN, infinities, both
    /// zeros and subnormals mixed in when `special`.
    fn operand<T: Scalar>(seed: usize, len: usize, special: bool) -> Vec<T> {
        let odd = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -(f32::MIN_POSITIVE as f64) / 8.0,
            1e-300,
        ];
        let mut v = series::<T>(seed, len);
        if special {
            for (i, x) in v.iter_mut().enumerate() {
                let pick = i * 7 + seed * 3;
                if pick.is_multiple_of(5) {
                    *x = T::from_f64(odd[(pick / 5) % odd.len()]);
                }
            }
        }
        v
    }

    fn transposed<T: Scalar>(x: &[T], rows: usize, cols: usize) -> Vec<T> {
        let mut t = vec![T::ZERO; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    /// The definition: every element its own chain, `+0.0` seed, ascending
    /// `k`, operands read where `form` stores them.
    fn triple_loop<T: Scalar>(
        form: Form,
        (m, k, n): (usize, usize, usize),
        a: &[T],
        b: &[T],
    ) -> Vec<T> {
        let mut c = vec![T::ZERO; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = T::ZERO;
                for kk in 0..k {
                    let av = if form == Form::TN {
                        a[kk * m + i]
                    } else {
                        a[i * k + kk]
                    };
                    let bv = if form == Form::NT {
                        b[j * k + kk]
                    } else {
                        b[kk * n + j]
                    };
                    s += av * bv;
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    /// Every ragged remainder of the 4-row, 8/16-column tile, plus `k` of
    /// 0, 1 and past 64.
    fn shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        let ms = [0, 1, 2, 3, 4, 5, 6, 7, 9, 22];
        let ns = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 31, 33, 50];
        let ks = [0, 1, 3, 65];
        ms.into_iter().flat_map(move |m| {
            ns.into_iter()
                .flat_map(move |n| ks.into_iter().map(move |k| (m, k, n)))
        })
    }

    const FORMS: [Form; 3] = [Form::NN, Form::NT, Form::TN];

    fn whole<T: Scalar>(form: Form, dims: (usize, usize, usize), a: &[T], b: &[T]) -> Vec<T> {
        let mut c = vec![T::from_f64(7.0); dims.0 * dims.2];
        gemm(Product { form, dims, a, b }, 0..dims.0, &mut c);
        c
    }

    fn gemm_vs_triple_loop<T: Scalar>() {
        for (case, dims) in shapes().enumerate() {
            let (m, k, n) = dims;
            for form in FORMS {
                let a = operand::<T>(case, m * k, case % 2 == 1);
                let b = operand::<T>(case + 1, k * n, case % 3 == 1);
                let want = triple_loop(form, dims, &a, &b);
                assert_same(
                    &whole(form, dims, &a, &b),
                    &want,
                    &format!("{form:?} {dims:?}"),
                );
                let mut base = vec![T::ONE; m * n];
                let p = Product {
                    form,
                    dims,
                    a: &a,
                    b: &b,
                };
                gemm_baseline(p, 0..m, &mut base);
                assert_same(&base, &want, &format!("baseline {form:?} {dims:?}"));
            }
        }
    }

    /// The two identities the tape's backward relies on: `A·Bᵀ` with `B`
    /// as stored equals `A·(Bᵀ)` materialised, and `Aᵀ·B` likewise.
    fn gemm_forms_agree<T: Scalar>() {
        for (case, dims) in shapes().enumerate() {
            let (m, k, n) = dims;
            let a = operand::<T>(case + 2, m * k, case % 2 == 0);
            let b = operand::<T>(case + 3, k * n, false);
            let nn = whole(Form::NN, dims, &a, &b);
            let nt = whole(Form::NT, dims, &a, &transposed(&b, k, n));
            assert_same(&nt, &nn, &format!("NT {dims:?}"));
            let tn = whole(Form::TN, dims, &transposed(&a, m, k), &b);
            assert_same(&tn, &nn, &format!("TN {dims:?}"));
        }
    }

    /// Calls both crate-private instantiations directly: nothing outside
    /// the crate can select a width.
    fn gemm_widths_agree<T: Scalar>() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            for (case, dims) in shapes().enumerate().filter(|(_, d)| d.1 > 0) {
                let (m, k, n) = dims;
                for form in FORMS {
                    let a = operand::<T>(case + 4, m * k, case % 2 == 1);
                    let b = operand::<T>(case + 5, k * n, case % 3 == 0);
                    let mut narrow = vec![T::ZERO; m * n];
                    let p = Product {
                        form,
                        dims,
                        a: &a,
                        b: &b,
                    };
                    forms(p, 0..m, &mut narrow);
                    let mut wide = vec![T::ONE; m * n];
                    // SAFETY: the CPU was just checked for AVX2.
                    unsafe { forms_avx2(p, 0..m, &mut wide) };
                    assert_same(&wide, &narrow, &format!("{form:?} {dims:?}"));
                }
            }
        }
    }

    /// What lets the pool band a product: any row range is those rows of
    /// the whole, whatever tile rows the range cuts through.
    fn gemm_row_ranges<T: Scalar>() {
        let dims = (11, 9, 19);
        let (m, k, n) = dims;
        for form in FORMS {
            let a = operand::<T>(8, m * k, false);
            let b = operand::<T>(9, k * n, false);
            let all = whole(form, dims, &a, &b);
            for rows in [0..0, 0..3, 3..11, 5..6, 2..9] {
                let mut part = vec![T::ZERO; rows.len() * n];
                let p = Product {
                    form,
                    dims,
                    a: &a,
                    b: &b,
                };
                gemm(p, rows.clone(), &mut part);
                assert_same(
                    &part,
                    &all[rows.start * n..rows.end * n],
                    &format!("{form:?} {rows:?}"),
                );
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
}
