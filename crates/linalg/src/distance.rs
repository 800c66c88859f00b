//! Condensed pairwise-distance storage.
//!
//! HAC over `n` items needs all `n(n-1)/2` pairwise distances. Storing the
//! full square matrix doubles memory for no benefit, so this mirrors SciPy's
//! condensed form: a flat upper-triangle buffer with O(1) `(i, j)` indexing.
//! Distances are stored as `f32` — clustering decisions never need more than
//! single precision, and at a few thousand segments this halves a buffer
//! that is the dominant allocation of the coarse-clustering stage.

use crate::matrix::Matrix;
use rayon::prelude::*;

/// Index and Euclidean distance of the row of `rows` nearest to `query`,
/// with monotone early-abandon pruning.
///
/// Bit-identical to the reference scan
///
/// ```text
/// let mut best = (0, f64::INFINITY);
/// for (c, row) in rows { let d = vecops::euclidean(query, row);
///     if d < best.1 { best = (c, d); } }
/// ```
///
/// Why pruning cannot change the answer:
/// - The comparison runs in *squared* space. `sqrt` is strictly monotone
///   and injective on `[0, ∞]`, so `d_i < d_j ⟺ d_i² < d_j²` — the strict
///   `<` argmin (ties keep the earlier index) is the same in either space.
/// - Partial sums of squares are nondecreasing, so once a candidate's
///   running sum reaches the current best it can never win a strict `<`
///   and may be abandoned without being selected — exactly the outcome
///   the full scan would reach.
/// - A NaN sum compares false both against the prune bound and against
///   the best, so NaN rows are skipped just as `d < best` skips them.
/// - The winning row is always accumulated to completion in ascending
///   element order — the exact order of [`crate::vecops::euclidean_sq`] —
///   so `best_sq.sqrt()` reproduces `vecops::euclidean` to the bit.
///
/// An empty matrix returns `(0, f64::INFINITY)`.
pub fn nearest_row(rows: &Matrix, query: &[f64]) -> (usize, f64) {
    let mut best_idx = 0usize;
    let mut best_sq = f64::INFINITY;
    if rows.rows() > 0 {
        assert_eq!(
            query.len(),
            rows.cols(),
            "query length must match row width"
        );
    }
    for c in 0..rows.rows() {
        // The bounded kernel checks the running sum against the current
        // best once per 8 elements and abandons once it can no longer
        // win; a surviving row's sum is bit-identical to the full scan
        // (see `kernels::squared_distance_bounded`).
        let s = crate::kernels::squared_distance_bounded(query, rows.row(c), best_sq);
        if s < best_sq {
            best_idx = c;
            best_sq = s;
        }
    }
    (best_idx, best_sq.sqrt())
}

/// Condensed upper-triangular pairwise distance matrix over `n` items.
#[derive(Clone, Debug)]
pub struct CondensedDistance {
    n: usize,
    data: Vec<f32>,
}

impl CondensedDistance {
    /// Build from a per-pair distance function, computed in parallel row
    /// bands. `dist(i, j)` is only ever called with `i < j`.
    pub fn compute<F>(n: usize, dist: F) -> Self
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        if n < 2 {
            return Self {
                n,
                data: Vec::new(),
            };
        }
        let mut data = vec![0.0f32; n * (n - 1) / 2];
        // Parallelise over i: row i owns the contiguous range of pairs
        // (i, i+1..n) in condensed order.
        let offsets: Vec<usize> = (0..n).map(|i| Self::row_offset(n, i)).collect();
        let mut bands: Vec<(usize, &mut [f32])> = Vec::with_capacity(n);
        {
            let mut rest: &mut [f32] = &mut data;
            for i in 0..n {
                let len = n - i - 1;
                let (band, tail) = rest.split_at_mut(len);
                bands.push((i, band));
                rest = tail;
            }
            debug_assert!(rest.is_empty());
        }
        let _ = &offsets; // offsets are implied by the split order
        bands.into_par_iter().for_each(|(i, band)| {
            for (k, slot) in band.iter_mut().enumerate() {
                let j = i + 1 + k;
                *slot = dist(i, j) as f32;
            }
        });
        Self { n, data }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn row_offset(n: usize, i: usize) -> usize {
        // Start of row i's pairs in condensed order:
        // sum_{r<i} (n-r-1) = i*n - i(i-1)/2 - i; written as (i*i - i)/2
        // to avoid usize underflow at i = 0.
        i * n - (i * i - i) / 2 - i
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i != j && i < self.n && j < self.n);
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        Self::row_offset(self.n, a) + (b - a - 1)
    }

    /// Distance between items `i` and `j` (`i != j`).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.index(i, j)] as f64
    }

    /// Overwrite the stored distance between `i` and `j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let idx = self.index(i, j);
        self.data[idx] = v as f32;
    }

    /// Flat condensed buffer (SciPy `pdist` order).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_matches_manual_enumeration() {
        let n = 6;
        // dist(i,j) = 10*i + j encodes the pair uniquely.
        let d = CondensedDistance::compute(n, |i, j| (10 * i + j) as f64);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                assert_eq!(d.get(i, j), (10 * a + b) as f64, "pair ({i},{j})");
            }
        }
        assert_eq!(d.as_slice().len(), n * (n - 1) / 2);
    }

    #[test]
    fn symmetric_access_and_set() {
        let mut d = CondensedDistance::compute(4, |_, _| 1.0);
        d.set(2, 0, 7.0);
        assert_eq!(d.get(0, 2), 7.0);
        assert_eq!(d.get(2, 0), 7.0);
    }

    #[test]
    fn single_pair() {
        let d = CondensedDistance::compute(2, |_, _| 3.5);
        assert_eq!(d.get(0, 1), 3.5);
        assert_eq!(d.len(), 2);
    }

    /// The scan `nearest_row` must reproduce to the bit.
    fn reference_nearest(rows: &Matrix, query: &[f64]) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for c in 0..rows.rows() {
            let d = crate::vecops::euclidean(query, rows.row(c));
            if d < best.1 {
                best = (c, d);
            }
        }
        best
    }

    fn assert_matches_reference(rows: &Matrix, query: &[f64]) {
        let (ri, rd) = reference_nearest(rows, query);
        let (i, d) = nearest_row(rows, query);
        assert_eq!(i, ri, "argmin index");
        assert_eq!(d.to_bits(), rd.to_bits(), "distance bits");
    }

    #[test]
    fn nearest_row_matches_reference_scan() {
        // Widths spanning <8, exactly 8, and >8 exercise both the chunked
        // prune loop and the remainder path.
        for width in [1, 3, 8, 11, 19, 64] {
            let rows = Matrix::from_fn(13, width, |r, c| {
                ((r * 31 + c * 7) as f64 * 0.37).sin() * 3.0
            });
            for qseed in 0..8 {
                let query: Vec<f64> = (0..width)
                    .map(|c| ((qseed * 17 + c * 5) as f64 * 0.23).cos() * 3.0)
                    .collect();
                assert_matches_reference(&rows, &query);
            }
        }
    }

    #[test]
    fn nearest_row_ties_keep_first_index() {
        // Rows 1 and 3 are identical: the strict-< argmin keeps index 1.
        let rows = Matrix::from_rows(&[
            vec![9.0, 9.0],
            vec![1.0, 2.0],
            vec![5.0, 5.0],
            vec![1.0, 2.0],
        ]);
        let (i, d) = nearest_row(&rows, &[1.0, 2.0]);
        assert_eq!(i, 1);
        assert_eq!(d, 0.0);
        assert_matches_reference(&rows, &[1.0, 2.0]);
    }

    #[test]
    fn nearest_row_skips_nan_rows_like_the_scan() {
        let rows = Matrix::from_rows(&[
            vec![f64::NAN; 10],
            vec![2.0; 10],
            vec![f64::NAN; 10],
            vec![1.5; 10],
        ]);
        let q = vec![1.0; 10];
        assert_matches_reference(&rows, &q);
        assert_eq!(nearest_row(&rows, &q).0, 3);

        let all_nan = Matrix::from_rows(&[vec![f64::NAN; 4], vec![f64::NAN; 4]]);
        let (i, d) = nearest_row(&all_nan, &[0.0; 4]);
        assert_eq!((i, d.to_bits()), (0, f64::INFINITY.to_bits()));
    }

    #[test]
    fn nearest_row_empty_matrix_is_infinite() {
        let empty = Matrix::zeros(0, 0);
        let (i, d) = nearest_row(&empty, &[]);
        assert_eq!(i, 0);
        assert!(d.is_infinite());
    }

    #[test]
    fn nearest_row_prunes_distant_candidates_without_changing_result() {
        // One near row among many far ones: every far row after the near
        // one abandons early, and the result still matches the full scan.
        let mut raw = vec![vec![100.0; 32]; 40];
        raw[7] = vec![0.5; 32];
        let rows = Matrix::from_rows(&raw);
        let q = vec![0.0; 32];
        assert_matches_reference(&rows, &q);
        assert_eq!(nearest_row(&rows, &q).0, 7);
    }
}
