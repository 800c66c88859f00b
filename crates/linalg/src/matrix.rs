//! Row-major dense matrix with a register-blocked, rayon-banded matmul.
//!
//! [`Mat<T>`] is written once over [`Scalar`]; [`Matrix`] — `Mat<f64>` —
//! is what the whole workspace computes in, and `Mat<f32>` is the scratch
//! and weight type of the reduced-precision scoring tier. Every reduction
//! accumulates in strict ascending order through [`crate::kernels`], so
//! each instantiation is bitwise independent of thread count and banding.

use crate::kernels::{self, Form, Product};
use crate::scalar::Scalar;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut, Range};

/// Row-major dense matrix of `T`.
///
/// Invariant: `data.len() == rows * cols`.
#[derive(Clone, PartialEq)]
pub struct Mat<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// The workspace's matrix: row-major dense `f64`.
pub type Matrix = Mat<f64>;

impl<T> Default for Mat<T> {
    /// An empty `0 × 0` matrix — a placeholder for scratch buffers that
    /// are reshaped in place (see [`Mat::resize`]) before first use.
    fn default() -> Self {
        Mat {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

/// Multiply-adds (`m·k·n`) below which a product stays on the calling
/// thread — the measured crossover on the 2-core bench container, where a
/// pool dispatch costs 10–25 µs: two bands read 0.2–0.5× of one thread at
/// 26k–330k, 1.1× at 1.05M and 1.4–1.7× from 2M up. Every product of the
/// paper's model (≤ 102k, weight gradients included) stays serial; the
/// baselines' full-batch layers (2M and up) band.
const PAR_MIN_WORK: usize = 1 << 20;

impl<T: Scalar> Mat<T> {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Create a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build from an element function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Self { rows, cols, data }
    }

    /// Build from row slices; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Append one row at the bottom, growing the matrix in place.
    ///
    /// An empty (`0 × 0`) matrix adopts the row's length as its column
    /// count; afterwards every pushed row must match `cols()`.
    pub fn push_row(&mut self, row: &[T]) {
        if self.rows == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "pushed row must match column count");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// A `1 × n` row vector.
    pub fn row_vector(v: &[T]) -> Self {
        Self {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` out into a `Vec`.
    pub fn col(&self, c: usize) -> Vec<T> {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat<T> {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out[(c, r)] = v;
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(T) -> T + Sync) -> Mat<T> {
        let mut out = Mat::default();
        out.assign_map(self, f);
        out
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(T) -> T) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise binary zip into a new matrix. Shapes must match.
    pub fn zip(&self, other: &Mat<T>, f: impl Fn(T, T) -> T) -> Mat<T> {
        let mut out = Mat::default();
        out.assign_zip(self, other, f);
        out
    }

    /// `self = f(src)` elementwise, reshaped in place — [`Mat::map`] into
    /// a reused buffer. `assign_map(src, |x| x)` is the reusing copy.
    pub fn assign_map(&mut self, src: &Mat<T>, f: impl Fn(T) -> T) {
        self.set_shape(src.rows, src.cols);
        for (o, &x) in self.data.iter_mut().zip(&src.data) {
            *o = f(x);
        }
    }

    /// `self = f(a, b)` elementwise, reshaped in place — [`Mat::zip`] into
    /// a reused buffer. Shapes must match.
    pub fn assign_zip(&mut self, a: &Mat<T>, b: &Mat<T>, f: impl Fn(T, T) -> T) {
        assert_eq!(a.shape(), b.shape(), "shape mismatch in zip");
        self.set_shape(a.rows, a.cols);
        for ((o, &x), &y) in self.data.iter_mut().zip(&a.data).zip(&b.data) {
            *o = f(x, y);
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Mat<T>) -> Mat<T> {
        self.zip(other, |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Mat<T>) -> Mat<T> {
        self.zip(other, |a, b| a - b)
    }

    /// Scalar multiple.
    pub fn scale(&self, k: T) -> Mat<T> {
        self.map(|x| x * k)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Mat<T>) {
        assert_eq!(self.shape(), other.shape());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += k * other` (axpy).
    pub fn axpy(&mut self, k: T, other: &Mat<T>) {
        assert_eq!(self.shape(), other.shape());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// In-place bias broadcast: `self[r] += row` (`1 × cols`) for every row.
    pub fn add_row_broadcast_inplace(&mut self, row: &Mat<T>) {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(&row.data) {
                *a += b;
            }
        }
    }

    /// Reshape in place to `rows × cols`, resetting every element to zero.
    /// Reuses the existing allocation whenever the capacity suffices, so
    /// scratch matrices cycled through shapes no larger than their first
    /// use never touch the heap again.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Refill from an `f64` matrix in place, rounding each element to `T`
    /// and reusing the allocation — how weights enter the `f32` tier: once
    /// per store mutation, never per forward.
    pub fn copy_from_f64(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend(src.data.iter().map(|&v| T::from_f64(v)));
    }

    /// Reshape in place to `rows × cols` **without** resetting elements:
    /// whatever the buffer held stays, only newly grown tail elements are
    /// zero. For outputs about to be overwritten in full, where
    /// [`Mat::resize`]'s fill would be a wasted pass.
    pub fn set_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Matrix product `self × other`: [`kernels::gemm`]'s register-blocked
    /// tiles, over pool row bands when the product is large.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Mat<T>) -> Mat<T> {
        let mut out = Mat::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// `self × other` into a caller-provided matrix (reshaped in place).
    /// Bit-identical to [`Mat::matmul`]; the allocation-free variant for
    /// scratch-buffer reuse.
    pub fn matmul_into(&self, other: &Mat<T>, out: &mut Mat<T>) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}×{} by {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.gemm(Form::NN, self, other, (self.rows, self.cols, other.cols));
    }

    /// `self × bt.transpose()` into a caller-provided matrix, with the
    /// right operand supplied **already transposed** (`bt` is `n × k` for
    /// an `m × k` left operand). Every output element is the dot product
    /// of two stored rows, summed over ascending `k`, so the result is
    /// bit-identical to `self.matmul(&bt.transpose())` with no transpose
    /// materialised and zero allocations.
    pub fn matmul_pre_t_into(&self, bt: &Mat<T>, out: &mut Mat<T>) {
        assert_eq!(
            self.cols, bt.cols,
            "matmul_pre_t dimension mismatch: {}×{} by ({}×{})ᵀ",
            self.rows, self.cols, bt.rows, bt.cols
        );
        out.gemm(Form::NT, self, bt, (self.rows, self.cols, bt.rows));
    }

    /// `self.transpose() × other` into a caller-provided matrix, with the
    /// left operand supplied **untransposed** (`self` is `k × m`).
    /// Bit-identical to `self.transpose().matmul(other)` — the
    /// weight-gradient product `aᵀ·g` of a matmul's backward — with no
    /// transpose materialised and zero allocations.
    pub fn matmul_lhs_t_into(&self, other: &Mat<T>, out: &mut Mat<T>) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_lhs_t dimension mismatch: ({}×{})ᵀ by {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.gemm(Form::TN, self, other, (self.cols, self.rows, other.cols));
    }

    /// `self = op(a)·op(b)`, reshaped in place; `dims` is the logical
    /// `(m, k, n)`, already checked against the operands by the caller.
    fn gemm(&mut self, form: Form, a: &Mat<T>, b: &Mat<T>, dims: (usize, usize, usize)) {
        self.set_shape(dims.0, dims.2);
        let (a, b) = (&a.data[..], &b.data[..]);
        self.banded(dims.1, |rows, band| {
            kernels::gemm(Product { form, dims, a, b }, rows, band)
        });
    }

    /// Run `kernel(rows, band)` over every row of `self`, `band` being
    /// those rows' storage: one call on this thread when the product is
    /// small (`k` is its reduction length) or the pool is one thread wide,
    /// else one call per pool row band. Kernels compute each row
    /// independently of the banding, so the split is invisible in the
    /// result.
    fn banded(&mut self, k: usize, kernel: impl Fn(Range<usize>, &mut [T]) + Sync) {
        let (m, n) = (self.rows, self.cols);
        if self.data.is_empty() {
            return;
        }
        let threads = rayon::current_num_threads().max(1);
        if threads == 1 || m * k * n < PAR_MIN_WORK {
            return kernel(0..m, &mut self.data);
        }
        // Whole tiles per band, so only the last band has ragged rows.
        let band = (m / threads).max(8).next_multiple_of(4);
        self.data
            .par_chunks_mut(band * n)
            .enumerate()
            .for_each(|(bi, chunk)| {
                kernel(bi * band..bi * band + chunk.len() / n, chunk);
            });
    }

    /// Extract rows `[start, end)` into a new matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Mat<T> {
        assert!(start <= end && end <= self.rows, "row slice out of bounds");
        let data = self.data[start * self.cols..end * self.cols].to_vec();
        Mat {
            rows: end - start,
            cols: self.cols,
            data,
        }
    }

    /// Gather the given rows (with repetition allowed) into a new matrix.
    pub fn gather_rows(&self, idx: &[usize]) -> Mat<T> {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &i in idx {
            data.extend_from_slice(self.row(i));
        }
        Mat {
            rows: idx.len(),
            cols: self.cols,
            data,
        }
    }

    /// Vertically stack matrices (all must share the column count).
    pub fn vstack(parts: &[&Mat<T>]) -> Mat<T> {
        if parts.is_empty() {
            return Mat::zeros(0, 0);
        }
        let cols = parts[0].cols;
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Mat { rows, cols, data }
    }
}

/// Reductions and statistics — `f64` only: nothing in the reduced-precision
/// tier calls them.
impl Mat<f64> {
    /// Frobenius inner product `⟨self, other⟩`.
    pub fn dot(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum absolute element (0 for empty).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }
}

/// `{"rows", "cols", "data"}` in that order — the model JSON and
/// fingerprint preimage layout. Written by hand because the vendored derive
/// takes no type parameters, and because reading must check the shape.
impl Serialize for Mat<f64> {
    fn emit<S: serde::Sink>(&self, sink: &mut S) {
        sink.object(3);
        serde::emit_field(sink, "rows", &self.rows);
        serde::emit_field(sink, "cols", &self.cols);
        serde::emit_field(sink, "data", &self.data);
    }
}

/// Rejects a shape that does not match the data length (or overflows):
/// model files come from outside the program, and every accessor slices
/// `data` by `rows`/`cols` unchecked.
impl Deserialize for Mat<f64> {
    fn read<'de, S: serde::Source<'de>>(src: &mut S) -> Result<Self, serde::Error> {
        let m: Self = serde::read_struct!(src, Mat { rows, cols, data })?;
        if m.rows.checked_mul(m.cols) != Some(m.data.len()) {
            return Err(serde::Error::msg(format!(
                "matrix shape {}×{} does not match its {} values",
                m.rows,
                m.cols,
                m.data.len()
            )));
        }
        Ok(m)
    }
}

impl<T> Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}×{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            for (c, v) in self.row(r).iter().take(8).enumerate() {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn push_row_grows_and_matches_from_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let mut m = Matrix::zeros(0, 0);
        for r in &rows {
            m.push_row(r);
        }
        assert_eq!(m, Matrix::from_rows(&rows));
        m.push_row(&[7.0, 8.0]);
        assert_eq!(m.shape(), (4, 2));
        assert_eq!(m.row(3), &[7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "pushed row must match column count")]
    fn push_row_rejects_width_mismatch() {
        let mut m = Matrix::zeros(1, 3);
        m.push_row(&[1.0, 2.0]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_fn(5, 5, |r, c| (r * 5 + c) as f64);
        let i = Matrix::identity(5);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = Matrix::from_fn(7, 3, |r, c| (r as f64) - 0.5 * c as f64);
        let b = Matrix::from_fn(3, 9, |r, c| (c as f64) * 0.25 + r as f64);
        let got = a.matmul(&b);
        let want = naive_matmul(&a, &b);
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_matches_naive_large_parallel_path() {
        // Exceeds PAR_MIN_WORK, so the banded path runs on a multi-thread pool.
        let a = Matrix::from_fn(157, 80, |r, c| ((r * 31 + c * 17) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(80, 93, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.5);
        const { assert!(157 * 80 * 93 >= PAR_MIN_WORK) };
        let got = a.matmul(&b);
        let want = naive_matmul(&a, &b);
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn matmul_zero_dims() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        assert_eq!(a.matmul(&b).shape(), (0, 4));
        let c = Matrix::zeros(3, 0);
        let d = Matrix::zeros(0, 2);
        assert_eq!(c.matmul(&d).shape(), (3, 2));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(4, 6, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 3)], a[(3, 2)]);
    }

    #[test]
    fn broadcast_add_row() {
        let mut a = Matrix::filled(3, 2, 1.0);
        a.add_row_broadcast_inplace(&Matrix::row_vector(&[10.0, 20.0]));
        assert_eq!(a[(0, 0)], 11.0);
        assert_eq!(a[(2, 1)], 21.0);
    }

    #[test]
    fn stack_and_slice() {
        let a = Matrix::filled(2, 3, 1.0);
        let b = Matrix::filled(1, 3, 2.0);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v[(2, 0)], 2.0);
        let s = v.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s[(1, 2)], 2.0);
    }

    #[test]
    fn gather_rows_with_repetition() {
        let a = Matrix::from_fn(4, 2, |r, _| r as f64);
        let g = a.gather_rows(&[3, 0, 3]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g[(0, 0)], 3.0);
        assert_eq!(g[(1, 0)], 0.0);
        assert_eq!(g[(2, 1)], 3.0);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max_abs(), 4.0);
    }

    /// Shapes spanning the sequential and parallel-band paths, with
    /// zero-laden left operands (signed-zero products).
    fn kernel_cases<T: Scalar>() -> Vec<(Mat<T>, Mat<T>)> {
        let zeroy = |r: usize, c: usize| {
            let v = ((r * 31 + c * 17) % 13) as f64 - 6.0;
            if (r + c).is_multiple_of(3) {
                T::ZERO
            } else {
                T::from_f64(v * 0.37)
            }
        };
        vec![
            (
                Mat::from_fn(7, 3, zeroy),
                Mat::from_fn(3, 9, |r, c| T::from_f64((c as f64) * 0.25 + r as f64)),
            ),
            (
                Mat::from_fn(1, 1, |_, _| T::ZERO),
                Mat::from_fn(1, 1, |_, _| T::from_f64(3.5)),
            ),
            (
                Mat::from_fn(97, 70, zeroy),
                Mat::from_fn(70, 83, |r, c| {
                    T::from_f64(((r * 7 + c * 3) % 11) as f64 * 0.5 - 2.0)
                }),
            ),
        ]
    }

    fn assert_same_bits<T: Scalar>(got: &Mat<T>, want: &Mat<T>) {
        assert_eq!(got.shape(), want.shape());
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(x.to_f64().to_bits(), y.to_f64().to_bits());
        }
    }

    /// Run one generic matmul check at both scalars.
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
        matmul_into_bit_identical_to_rolled_loop => into_vs_rolled;
        matmul_into_bit_identical_and_reuses_buffer => into_vs_matmul;
        matmul_pre_t_into_bit_identical_to_transposed_matmul => pre_t_vs_matmul;
    }

    /// The blocked kernel keeps each output's k-sum in strict ascending
    /// order, so it must match the rolled triple loop to the bit.
    fn into_vs_rolled<T: Scalar>() {
        let mut out = Mat::zeros(0, 0);
        for (a, b) in kernel_cases::<T>() {
            let mut want = Mat::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for j in 0..b.cols() {
                    let mut s = T::ZERO;
                    for k in 0..a.cols() {
                        s += a[(i, k)] * b[(k, j)];
                    }
                    want[(i, j)] = s;
                }
            }
            a.matmul_into(&b, &mut out);
            assert_same_bits(&out, &want);
        }
    }

    fn into_vs_matmul<T: Scalar>() {
        let mut out = Mat::zeros(0, 0);
        for (a, b) in kernel_cases::<T>() {
            a.matmul_into(&b, &mut out);
            assert_same_bits(&out, &a.matmul(&b));
        }
    }

    fn pre_t_vs_matmul<T: Scalar>() {
        let mut out = Mat::zeros(0, 0);
        for (a, b) in kernel_cases::<T>() {
            a.matmul_pre_t_into(&b.transpose(), &mut out);
            assert_same_bits(&out, &a.matmul(&b));
        }
    }

    /// Banding is a schedule, not arithmetic: every form above the work
    /// gate equals its one-thread run.
    #[test]
    fn banded_products_bit_identical_to_one_thread() {
        let (a, b) = kernel_cases::<f64>().pop().unwrap();
        let (a, b) = (Mat::vstack(&[&a, &a, &a, &a]), b);
        assert!(a.rows() * a.cols() * b.cols() >= PAR_MIN_WORK);
        let (at, bt) = (a.transpose(), b.transpose());
        let all = || {
            let mut out = [(); 3].map(|_| Mat::default());
            a.matmul_into(&b, &mut out[0]);
            a.matmul_pre_t_into(&bt, &mut out[1]);
            at.matmul_lhs_t_into(&b, &mut out[2]);
            out
        };
        let serial = rayon::with_thread_parallelism_cap(Some(1), all);
        let prior = rayon::thread_count_override();
        rayon::set_thread_count_override(Some(3));
        let banded = all();
        rayon::set_thread_count_override(prior);
        for (got, want) in banded.iter().zip(&serial) {
            assert_same_bits(got, want);
            assert_same_bits(got, &serial[0]);
        }
    }

    #[test]
    fn copy_from_f64_rounds_each_element_and_reuses_the_buffer() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64 * 0.1);
        let mut f = Mat::<f32>::zeros(5, 5);
        let ptr = f.as_slice().as_ptr();
        f.copy_from_f64(&m);
        assert_eq!(f.shape(), (4, 3));
        assert_eq!(f[(2, 1)], (7.0f64 * 0.1) as f32);
        assert_eq!(f.as_slice().as_ptr(), ptr, "refill must not reallocate");
        let mut same = Matrix::default();
        same.copy_from_f64(&m);
        assert_eq!(same, m);
    }

    #[test]
    fn serialized_tree_is_rows_cols_data_in_that_order() {
        use serde::Value;
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, -0.5]);
        let want = Value::Object(vec![
            ("rows".into(), Value::U64(2)),
            ("cols".into(), Value::U64(3)),
            (
                "data".into(),
                Value::Array([1.0, 2.0, 3.0, 4.0, 5.0, -0.5].map(Value::F64).to_vec()),
            ),
        ]);
        assert_eq!(m.to_value(), want);
        assert_eq!(Matrix::from_value(&want).unwrap(), m);
    }

    #[test]
    fn deserialize_rejects_a_shape_that_does_not_match_the_data() {
        use serde::Value;
        let tree = |rows: u64, cols: u64, len: usize| {
            Value::Object(vec![
                ("rows".into(), Value::U64(rows)),
                ("cols".into(), Value::U64(cols)),
                ("data".into(), Value::Array(vec![Value::F64(1.0); len])),
            ])
        };
        assert!(Matrix::from_value(&tree(2, 3, 6)).is_ok());
        assert!(Matrix::from_value(&tree(0, 0, 0)).is_ok());
        for (rows, cols, len, what) in [
            (2, 3, 5, "short data"),
            (2, 3, 7, "long data"),
            (0, 3, 1, "data without rows"),
            (u64::MAX, 2, 0, "overflowing product"),
            (1 << 63, 2, 0, "product wrapping to zero"),
        ] {
            let err = Matrix::from_value(&tree(rows, cols, len));
            assert!(err.is_err(), "{what} must be refused, got {err:?}");
        }
    }

    #[test]
    fn resize_reuses_capacity_and_zeroes() {
        let mut m = Matrix::filled(4, 4, 7.0);
        let ptr = m.as_slice().as_ptr();
        m.resize(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.as_slice().as_ptr(), ptr, "shrinking must not reallocate");
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_assign(&b);
        assert_eq!(a[(0, 0)], 3.0);
        a.axpy(0.5, &b);
        assert_eq!(a[(1, 1)], 4.0);
    }
}
