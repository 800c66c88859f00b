//! Slice-level vector helpers shared across the workspace.

/// Euclidean distance between two equally-long slices.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    crate::kernels::squared_distance(a, b).sqrt()
}

/// Scale a slice in place.
#[inline]
pub fn scale(a: &mut [f64], k: f64) {
    for x in a.iter_mut() {
        *x *= k;
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_agree_on_simple_triangle() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(euclidean(&a, &b), 5.0);
    }

    #[test]
    fn top_k_and_argmax() {
        let x = [0.1, 5.0, 3.0, 5.0];
        assert_eq!(top_k_indices(&x, 2), vec![1, 3]);
        assert_eq!(argmax(&x), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(top_k_indices(&x, 10).len(), 4);
    }

    #[test]
    fn scale_in_place() {
        let mut a = vec![3.0, 4.0];
        scale(&mut a, 0.5);
        assert_eq!(a, vec![1.5, 2.0]);
    }
}
