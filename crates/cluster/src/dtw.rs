//! Dynamic Time Warping with an optional Sakoe-Chiba band.
//!
//! The paper's Challenge 1 argues DTW-based clustering of variable-length
//! segments is computationally infeasible at HPC scale ("clustering a
//! week's worth of data would take 3.8 months"). We implement DTW both as
//! the shape-based comparator for that cost experiment (`exp_dtw_cost`)
//! and as a general utility.

/// Banded two-row DP shared by every public entry point.
///
/// `cost(i, j)` is the squared pointwise cost of aligning `a[i]` with
/// `b[j]` (0-based); `w` is the already-widened Sakoe-Chiba radius
/// (`usize::MAX` = unconstrained); `cutoff_sq` is the squared abandon
/// threshold (`f64::INFINITY` = never abandon). Returns the accumulated
/// squared cost of the best path, or `f64::INFINITY` once the cutoff
/// proves the final distance cannot come in below the caller's bound.
fn dtw_accumulate(
    n: usize,
    m: usize,
    w: usize,
    cutoff_sq: f64,
    cost: impl Fn(usize, usize) -> f64,
) -> f64 {
    let inf = f64::INFINITY;
    let mut prev = vec![inf; m + 1];
    let mut curr = vec![inf; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        let lo = if w == usize::MAX {
            1
        } else {
            i.saturating_sub(w).max(1)
        };
        let hi = if w == usize::MAX { m } else { (i + w).min(m) };
        // Both band edges are nondecreasing in `i`, and row `i+1` reads
        // this row (as `prev`) only at positions `[lo'-1, hi']` with
        // `lo' >= lo` and `hi' <= hi + 1`. Clearing just
        // `[lo-1, min(hi+1, m)]` therefore leaves no stale cell reachable
        // — the previous full-row `fill` cleared O(m) cells per row even
        // for a narrow band. (`hi+1` is required: a plain `[lo-1, hi]`
        // clear would leave a two-rows-old value where the next row's
        // band grows by one.)
        curr[lo - 1..=(hi + 1).min(m)].fill(inf);
        let mut row_min = inf;
        for j in lo..=hi {
            let c = cost(i - 1, j - 1);
            let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
            let v = c + best;
            curr[j] = v;
            row_min = row_min.min(v);
        }
        // Early abandon: costs are non-negative and every cell of each
        // later row is bounded below by the minimum of the current row,
        // so once that minimum reaches the cutoff no path can finish
        // under it.
        if row_min >= cutoff_sq {
            return inf;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// DTW distance between two univariate series under squared pointwise
/// cost, returned as the square root of the accumulated cost (a proper
/// curve distance scale).
///
/// `band` limits the warping window (Sakoe-Chiba radius); `None` is the
/// unconstrained O(len_a · len_b) recurrence.
pub fn dtw_distance(a: &[f64], b: &[f64], band: Option<usize>) -> f64 {
    dtw_distance_cutoff(a, b, band, None)
}

/// [`dtw_distance`] with an early-abandon `cutoff`: whenever the true
/// distance is below `cutoff` the exact value is returned; otherwise the
/// result is either the exact value or `f64::INFINITY`, and the DP may
/// stop as soon as a whole row proves the bound unreachable. Useful for
/// nearest-neighbour style scans that only care about distances under a
/// running best.
pub fn dtw_distance_cutoff(a: &[f64], b: &[f64], band: Option<usize>, cutoff: Option<f64>) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return if n == m { 0.0 } else { f64::INFINITY };
    }
    // The band must be at least |n-m| wide to admit any path.
    let w = band.map(|r| r.max(n.abs_diff(m))).unwrap_or(usize::MAX);
    let cutoff_sq = cutoff
        .map(|c| c.max(0.0) * c.max(0.0))
        .unwrap_or(f64::INFINITY);
    dtw_accumulate(n, m, w, cutoff_sq, |i, j| {
        let d = a[i] - b[j];
        d * d
    })
    .sqrt()
}

/// Multivariate DTW: pointwise cost is the squared Euclidean distance
/// between row vectors. `a` and `b` are `T × M` row-major sequences with
/// equal width.
pub fn dtw_distance_mts(a: &[Vec<f64>], b: &[Vec<f64>], band: Option<usize>) -> f64 {
    dtw_distance_mts_cutoff(a, b, band, None)
}

/// [`dtw_distance_mts`] with the same early-abandon `cutoff` contract as
/// [`dtw_distance_cutoff`].
pub fn dtw_distance_mts_cutoff(
    a: &[Vec<f64>],
    b: &[Vec<f64>],
    band: Option<usize>,
    cutoff: Option<f64>,
) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return if n == m { 0.0 } else { f64::INFINITY };
    }
    let w = band.map(|r| r.max(n.abs_diff(m))).unwrap_or(usize::MAX);
    let cutoff_sq = cutoff
        .map(|c| c.max(0.0) * c.max(0.0))
        .unwrap_or(f64::INFINITY);
    dtw_accumulate(n, m, w, cutoff_sq, |i, j| {
        ns_linalg::kernels::squared_distance(&a[i], &b[j])
    })
    .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_series_distance_zero() {
        let x = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw_distance(&x, &x, None), 0.0);
        assert_eq!(dtw_distance(&x, &x, Some(1)), 0.0);
    }

    #[test]
    fn shifted_series_cheaper_than_euclidean() {
        // A pulse and the same pulse shifted by 2: DTW warps it away.
        let a = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let b = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        let dtw = dtw_distance(&a, &b, None);
        let euc: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(dtw < euc, "dtw {dtw} vs euclid {euc}");
    }

    #[test]
    fn different_lengths_are_comparable() {
        let a = [0.0, 1.0, 2.0, 3.0, 4.0];
        let b = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
        let d = dtw_distance(&a, &b, None);
        assert!(d.is_finite());
        assert!(d < 2.0, "warped ramp-to-ramp distance should be small: {d}");
    }

    #[test]
    fn band_never_below_unconstrained() {
        let a: Vec<f64> = (0..30).map(|i| ((i as f64) * 0.4).sin()).collect();
        let b: Vec<f64> = (0..30).map(|i| ((i as f64) * 0.4 + 1.0).sin()).collect();
        let full = dtw_distance(&a, &b, None);
        let banded = dtw_distance(&a, &b, Some(3));
        assert!(banded >= full - 1e-12);
        // Wide band converges to unconstrained.
        let wide = dtw_distance(&a, &b, Some(30));
        assert!((wide - full).abs() < 1e-12);
    }

    #[test]
    fn band_admits_length_mismatch() {
        let a = [1.0; 10];
        let b = [1.0; 20];
        // Radius 1 < |10-20| but the implementation widens it.
        assert_eq!(dtw_distance(&a, &b, Some(1)), 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(dtw_distance(&[], &[], None), 0.0);
        assert_eq!(dtw_distance(&[1.0], &[], None), f64::INFINITY);
    }

    #[test]
    fn mts_matches_univariate_on_width_one() {
        let a = [0.0, 1.0, 2.0, 1.0];
        let b = [0.0, 2.0, 2.0, 0.0];
        let av: Vec<Vec<f64>> = a.iter().map(|&v| vec![v]).collect();
        let bv: Vec<Vec<f64>> = b.iter().map(|&v| vec![v]).collect();
        assert!((dtw_distance(&a, &b, None) - dtw_distance_mts(&av, &bv, None)).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let a = [3.0, 1.0, 4.0, 1.0, 5.0];
        let b = [2.0, 7.0, 1.0];
        assert!((dtw_distance(&a, &b, None) - dtw_distance(&b, &a, None)).abs() < 1e-12);
    }

    /// Reference recurrence with the original full-row `fill`, used to pin
    /// the touched-range clear against the old behaviour bit for bit.
    fn reference_banded(a: &[f64], b: &[f64], band: Option<usize>) -> f64 {
        let (n, m) = (a.len(), b.len());
        if n == 0 || m == 0 {
            return if n == m { 0.0 } else { f64::INFINITY };
        }
        let w = band.map(|r| r.max(n.abs_diff(m))).unwrap_or(usize::MAX);
        let inf = f64::INFINITY;
        let mut prev = vec![inf; m + 1];
        let mut curr = vec![inf; m + 1];
        prev[0] = 0.0;
        for i in 1..=n {
            curr.fill(inf);
            let lo = if w == usize::MAX {
                1
            } else {
                i.saturating_sub(w).max(1)
            };
            let hi = if w == usize::MAX { m } else { (i + w).min(m) };
            for j in lo..=hi {
                let d = a[i - 1] - b[j - 1];
                let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
                curr[j] = d * d + best;
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[m].sqrt()
    }

    fn series(seed: u64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64 * 0.31 + seed as f64 * 1.7).sin() * 2.0) + (i % 5) as f64 * 0.1)
            .collect()
    }

    #[test]
    fn touched_range_clear_matches_full_fill_reference() {
        for (la, lb) in [(17usize, 17usize), (12, 25), (25, 12), (1, 9), (30, 30)] {
            let a = series(1, la);
            let b = series(9, lb);
            for band in [None, Some(0), Some(1), Some(2), Some(5), Some(40)] {
                let got = dtw_distance(&a, &b, band);
                let want = reference_banded(&a, &b, band);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "len ({la},{lb}) band {band:?}"
                );
            }
        }
    }

    #[test]
    fn cutoff_is_exact_where_admissible() {
        let a = series(3, 24);
        let b = series(7, 20);
        for band in [None, Some(3), Some(8)] {
            let plain = dtw_distance(&a, &b, band);
            // Any cutoff strictly above the true distance must not change
            // the answer, to the bit.
            for slack in [1e-9, 0.5, 100.0] {
                let got = dtw_distance_cutoff(&a, &b, band, Some(plain + slack));
                assert_eq!(got.to_bits(), plain.to_bits(), "band {band:?} +{slack}");
            }
        }
    }

    #[test]
    fn cutoff_abandons_hopeless_pairs() {
        // Every pointwise cost is 100, so row 1's minimum already proves
        // the distance cannot come in under 0.5.
        let a = [10.0; 16];
        let b = [0.0; 16];
        assert_eq!(
            dtw_distance_cutoff(&a, &b, Some(4), Some(0.5)),
            f64::INFINITY
        );
        // Without a cutoff the distance is finite and large.
        assert!(dtw_distance(&a, &b, Some(4)).is_finite());
    }

    #[test]
    fn mts_cutoff_mirrors_univariate_contract() {
        let a = series(2, 18);
        let b = series(5, 22);
        let av: Vec<Vec<f64>> = a.iter().map(|&v| vec![v]).collect();
        let bv: Vec<Vec<f64>> = b.iter().map(|&v| vec![v]).collect();
        let plain = dtw_distance_mts(&av, &bv, Some(6));
        let got = dtw_distance_mts_cutoff(&av, &bv, Some(6), Some(plain + 1.0));
        assert_eq!(got.to_bits(), plain.to_bits());
        let far_a = vec![vec![10.0, 10.0]; 12];
        let far_b = vec![vec![0.0, 0.0]; 12];
        assert_eq!(
            dtw_distance_mts_cutoff(&far_a, &far_b, Some(2), Some(1.0)),
            f64::INFINITY
        );
    }

    #[test]
    fn banded_equals_unconstrained_when_band_covers_everything() {
        let a = series(4, 21);
        let b = series(8, 27);
        let full = dtw_distance(&a, &b, None);
        let covered = dtw_distance(&a, &b, Some(27));
        assert_eq!(covered.to_bits(), full.to_bits());
    }
}
