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
/// An empty matrix returns `(0, f64::INFINITY)`. This is the definition
/// the online matcher, [`nearest_row_standardized`], is held to.
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

/// Rows whose running sums one pass of [`nearest_row_standardized`] keeps
/// in flight: independent add chains the core overlaps, where a single
/// row's ascending sum is one chain that waits on every add. Eight covers
/// a fitted library in one pass: `nsbench`'s has 8 centroids, and its
/// probes sit almost equally far from all of them (runner-up over nearest
/// distance 1.006 at the median), so pruning rarely fires and a smaller
/// group would mostly just add passes.
const LANES: usize = 8;

/// [`nearest_row`] of the standardised query `z[j] = (raw[j] − mean[j]) /
/// std[j]`, with `z` written into the caller's buffer (its length is that
/// of the shortest input, as a zip of the three would give). Same index,
/// same distance bits, and the same `z`, as standardising and then
/// calling [`nearest_row`], in fewer cycles:
///
/// - Rows are scanned eight at a time, each row's running sum still
///   accumulated in strict ascending element order from `+0.0` — the
///   order [`nearest_row`] sums in — so every row that completes holds the
///   same sum, and the selection after each group visits rows in index
///   order with the same strict `<`.
/// - The first group computes `z` as it goes (it is never pruned: there
///   is no bound yet). A later group is abandoned once every row in it
///   has a partial sum at or above the best sum found by earlier groups,
///   checked once per 8 elements: a partial sum never decreases, so none
///   of them can win a strict `<` against that bound, or against the
///   smaller one it may have become. A NaN sum compares false, so a group
///   with a NaN row always completes, and the NaN row is never selected.
/// - A short last group repeats its last row in the spare lanes; their
///   sums are never selected.
///
/// A library of no rows returns `(0, f64::INFINITY)`.
pub fn nearest_row_standardized(
    rows: &Matrix,
    raw: &[f64],
    mean: &[f64],
    std: &[f64],
    z: &mut Vec<f64>,
) -> (usize, f64) {
    let dim = raw.len().min(mean.len()).min(std.len());
    let (raw, mean, std) = (&raw[..dim], &mean[..dim], &std[..dim]);
    z.clear();
    let k = rows.rows();
    if k == 0 {
        z.extend((0..dim).map(|j| (raw[j] - mean[j]) / std[j]));
        return (0, f64::INFINITY);
    }
    assert_eq!(dim, rows.cols(), "query length must match row width");
    let lanes = |start: usize| -> [&[f64]; LANES] {
        std::array::from_fn(|r| rows.row((start + r).min(k - 1)))
    };
    let mut best = (0usize, f64::INFINITY);
    // The strict-`<` argmin over a group's real rows, in index order.
    let select = |best: &mut (usize, f64), start: usize, sums: &[f64; LANES]| {
        for (r, &s) in sums.iter().enumerate().take(k - start) {
            if s < best.1 {
                *best = (start + r, s);
            }
        }
    };

    let first = lanes(0);
    let mut sums = [0.0f64; LANES];
    for j in 0..dim {
        let q = (raw[j] - mean[j]) / std[j];
        z.push(q);
        for (s, row) in sums.iter_mut().zip(&first) {
            let d = q - row[j];
            *s += d * d;
        }
    }
    select(&mut best, 0, &sums);

    for start in (LANES..k).step_by(LANES) {
        let group = lanes(start);
        let bound = best.1;
        let mut sums = [0.0f64; LANES];
        let mut abandoned = false;
        for (block, zb) in z.chunks(8).enumerate() {
            let off = block * 8;
            for (i, &q) in zb.iter().enumerate() {
                for (s, row) in sums.iter_mut().zip(&group) {
                    let d = q - row[off + i];
                    *s += d * d;
                }
            }
            if sums.iter().all(|&s| s >= bound) {
                abandoned = true;
                break;
            }
        }
        if !abandoned {
            select(&mut best, start, &sums);
        }
    }
    (best.0, best.1.sqrt())
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

    /// A library of `k` rows of `width` with the corners the scan must
    /// keep: whole-NaN rows, a NaN in one element, rows repeated exactly
    /// (ties), rows next to the probe (so later groups are abandoned), and
    /// a probe whose standardisation divides by zero.
    fn scan_case(seed: u64, k: usize, width: usize) -> (Matrix, [Vec<f64>; 3]) {
        let mut state = seed;
        let mut unit = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let raw: Vec<f64> = (0..width).map(|_| unit() * 20.0 - 10.0).collect();
        let mean: Vec<f64> = (0..width).map(|_| unit() * 10.0 - 5.0).collect();
        let zero_std = unit() < 0.05;
        let std: Vec<f64> = (0..width)
            .map(|j| {
                if zero_std && j == 0 {
                    0.0
                } else {
                    0.5 + unit()
                }
            })
            .collect();
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(k);
        for r in 0..k {
            let mut row: Vec<f64> = (0..width).map(|_| unit() * 4.0 - 2.0).collect();
            match (unit() * 8.0) as usize {
                0 => row.fill(f64::NAN),
                1 if width > 0 => row[(unit() * width as f64) as usize] = f64::NAN,
                2 | 3 if r > 0 => row = rows[(unit() * r as f64) as usize].clone(),
                4 => {
                    for (j, c) in row.iter_mut().enumerate() {
                        *c = (raw[j] - mean[j]) / std[j] + 0.01 * *c;
                    }
                }
                _ => {}
            }
            rows.push(row);
        }
        let rows = if k == 0 {
            Matrix::zeros(0, width)
        } else {
            Matrix::from_rows(&rows)
        };
        (rows, [raw, mean, std])
    }

    use proptest::prelude::*;

    // The interleaved, standardising scan returns `nearest_row`'s index
    // and distance bits, and leaves the standardised query in its buffer,
    // at library sizes below, at and above one pass of lanes.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn interleaved_scan_matches_nearest_row(seed in any::<u64>(), pick in 0usize..5, width in 0usize..41) {
            let k = [0, 1, 3, 8, 13][pick];
            let (rows, [raw, mean, std]) = scan_case(seed, k, width);
            let want_z: Vec<f64> = raw
                .iter()
                .zip(mean.iter().zip(&std))
                .map(|(&v, (&m, &s))| (v - m) / s)
                .collect();
            let (wi, wd) = nearest_row(&rows, &want_z);
            let mut z = vec![7.0; 3];
            let (i, d) = nearest_row_standardized(&rows, &raw, &mean, &std, &mut z);
            prop_assert_eq!((i, d.to_bits()), (wi, wd.to_bits()), "k={} width={}", k, width);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&z), bits(&want_z));
        }
    }
}
