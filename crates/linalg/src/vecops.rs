//! Slice-level vector helpers shared across the workspace.

/// Dot product of two equally-long slices (the 4-blocked kernel; same
/// strict ascending accumulation order as the naive fold).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::dot(a, b)
}

/// Euclidean distance between two equally-long slices.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    euclidean_sq(a, b).sqrt()
}

/// Squared Euclidean distance (the 4-blocked kernel; same strict
/// ascending accumulation order as the naive fold).
#[inline]
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::squared_distance(a, b)
}

/// `out[i] = a[i] + k * b[i]`, in place on `a` (the 4-blocked kernel;
/// elementwise, so blocking cannot change results).
#[inline]
pub fn axpy(a: &mut [f64], k: f64, b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::axpy(a, k, b)
}

/// Scale a slice in place.
#[inline]
pub fn scale(a: &mut [f64], k: f64) {
    for x in a.iter_mut() {
        *x *= k;
    }
}

/// Numerically-stable softmax of a slice.
pub fn softmax(x: &[f64]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = x.iter().map(|&v| (v - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

/// Indices of the `k` largest values, ordered descending by value.
/// Ties resolve to the lower index first (deterministic).
pub fn top_k_indices(x: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| {
        x[b].partial_cmp(&x[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k.min(x.len()));
    idx
}

/// Index of the maximum value (first occurrence); `None` for empty input.
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the minimum value (first occurrence); `None` for empty input.
pub fn argmin(x: &[f64]) -> Option<usize> {
    argmax(&x.iter().map(|v| -v).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_agree_on_simple_triangle() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(euclidean(&a, &b), 5.0);
        assert_eq!(euclidean_sq(&a, &b), 25.0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability with huge inputs.
        let q = softmax(&[1e6, 1e6 + 1.0]);
        assert!(q.iter().all(|v| v.is_finite()));
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_and_argmax() {
        let x = [0.1, 5.0, 3.0, 5.0];
        assert_eq!(top_k_indices(&x, 2), vec![1, 3]);
        assert_eq!(argmax(&x), Some(1));
        assert_eq!(argmin(&x), Some(0));
        assert_eq!(argmax(&[]), None);
        assert_eq!(top_k_indices(&x, 10).len(), 4);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = vec![1.0, 2.0];
        axpy(&mut a, 2.0, &[1.0, 1.0]);
        assert_eq!(a, vec![3.0, 4.0]);
        scale(&mut a, 0.5);
        assert_eq!(a, vec![1.5, 2.0]);
    }
}
