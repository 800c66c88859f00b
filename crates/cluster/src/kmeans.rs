//! k-means with k-means++ initialisation. Its one caller is
//! [`crate::gmm`], which seeds the mixture's means with it.

use ns_linalg::kernels;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Result of a k-means run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    pub centroids: Vec<Vec<f64>>,
    pub labels: Vec<usize>,
    /// Final within-cluster sum of squares.
    pub inertia: f64,
    /// Iterations until convergence (or the cap).
    pub iterations: usize,
}

/// k-means++ seeding followed by Lloyd iterations.
///
/// Deterministic for a given `seed`. `k` is clamped to the number of
/// points; empty input yields an empty result.
pub fn kmeans(data: &[Vec<f64>], k: usize, max_iter: usize, seed: u64) -> KMeansResult {
    let n = data.len();
    if n == 0 || k == 0 {
        return KMeansResult {
            centroids: Vec::new(),
            labels: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        };
    }
    let k = k.min(n);
    let dim = data[0].len();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // --- k-means++ seeding ---
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(data[rng.gen_range(0..n)].clone());
    let mut d2: Vec<f64> = data
        .iter()
        .map(|p| kernels::squared_distance(p, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 1e-24 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centroids.push(data[next].clone());
        for (i, p) in data.iter().enumerate() {
            let nd = kernels::squared_distance(p, centroids.last().unwrap());
            if nd < d2[i] {
                d2[i] = nd;
            }
        }
    }

    // --- Lloyd iterations ---
    let mut labels = vec![0usize; n];
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        let mut changed = false;
        for (i, p) in data.iter().enumerate() {
            let mut best = 0usize;
            let mut bd = f64::INFINITY;
            for (c, cen) in centroids.iter().enumerate() {
                let d = kernels::squared_distance(p, cen);
                if d < bd {
                    bd = d;
                    best = c;
                }
            }
            if labels[i] != best {
                labels[i] = best;
                changed = true;
            }
        }
        // Recompute centroids; empty clusters keep their previous position.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &l) in data.iter().zip(&labels) {
            counts[l] += 1;
            kernels::axpy(&mut sums[l], 1.0, p);
        }
        for (c, (s, &cnt)) in sums.into_iter().zip(&counts).enumerate() {
            if cnt > 0 {
                centroids[c] = s.into_iter().map(|v| v / cnt as f64).collect();
            }
        }
        if !changed && it > 0 {
            break;
        }
    }
    let inertia = data
        .iter()
        .zip(&labels)
        .map(|(p, &l)| kernels::squared_distance(p, &centroids[l]))
        .sum();
    KMeansResult {
        centroids,
        labels,
        inertia,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (20.0, 20.0)] {
            for i in 0..8 {
                v.push(vec![cx + (i % 3) as f64 * 0.1, cy + (i / 3) as f64 * 0.1]);
            }
        }
        v
    }

    #[test]
    fn separates_two_blobs() {
        let data = blobs();
        let res = kmeans(&data, 2, 100, 7);
        assert_eq!(res.labels.len(), 16);
        let l0 = res.labels[0];
        assert!(res.labels[..8].iter().all(|&l| l == l0));
        assert!(res.labels[8..].iter().all(|&l| l != l0));
        assert!(res.inertia < 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = blobs();
        let a = kmeans(&data, 2, 50, 42);
        let b = kmeans(&data, 2, 50, 42);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn k_clamped_to_n() {
        let data = vec![vec![0.0], vec![1.0]];
        let res = kmeans(&data, 10, 10, 1);
        assert_eq!(res.centroids.len(), 2);
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn empty_input() {
        let res = kmeans(&[], 3, 10, 1);
        assert!(res.labels.is_empty());
        assert!(res.centroids.is_empty());
    }

    #[test]
    fn identical_points_zero_inertia() {
        let data = vec![vec![2.0, 2.0]; 9];
        let res = kmeans(&data, 3, 20, 5);
        assert!(res.inertia < 1e-20);
    }
}
