//! Gaussian mixtures with diagonal covariances, fit by EM, with a
//! Bayesian-flavoured variant (Dirichlet weight prior, so components can
//! be effectively pruned) and Mahalanobis scoring — the machinery behind
//! the ISC'20 baseline, which characterises HPC performance variation
//! with BGMM clustering and flags points by Mahalanobis distance to their
//! closest component.

use ns_linalg::{kernels, vecops};

/// One fitted Gaussian component.
#[derive(Clone, Debug)]
pub struct Component {
    pub weight: f64,
    pub mean: Vec<f64>,
    /// Diagonal variances.
    pub var: Vec<f64>,
    log_det: f64,
}

/// A fitted Gaussian mixture.
#[derive(Clone, Debug)]
pub struct GaussianMixture {
    pub components: Vec<Component>,
    /// Final mean log-likelihood per sample.
    pub log_likelihood: f64,
    pub iterations: usize,
}

/// Fit configuration.
#[derive(Clone, Debug)]
pub struct GmmConfig {
    pub n_components: usize,
    pub max_iter: usize,
    /// Dirichlet concentration prior on weights; > 0 makes this the
    /// "Bayesian" GMM of the ISC'20 baseline (small components shrink).
    pub weight_prior: f64,
    pub seed: u64,
}

impl Default for GmmConfig {
    fn default() -> Self {
        Self {
            n_components: 4,
            max_iter: 100,
            weight_prior: 0.0,
            seed: 0,
        }
    }
}

/// EM stops once the mean log-likelihood moves by less than this.
const TOL: f64 = 1e-5;
/// Variance floor.
const REG: f64 = 1e-6;
const LOG_2PI: f64 = 1.8378770664093453; // ln(2π)

impl Component {
    fn log_pdf(&self, x: &[f64]) -> f64 {
        let d = x.len() as f64;
        let mut q = 0.0;
        for ((&xi, &mi), &vi) in x.iter().zip(&self.mean).zip(&self.var) {
            let dx = xi - mi;
            q += dx * dx / vi;
        }
        -0.5 * (d * LOG_2PI + self.log_det + q)
    }

    /// Squared Mahalanobis distance to this component.
    pub fn mahalanobis_sq(&self, x: &[f64]) -> f64 {
        x.iter()
            .zip(&self.mean)
            .zip(&self.var)
            .map(|((&xi, &mi), &vi)| {
                let dx = xi - mi;
                dx * dx / vi
            })
            .sum()
    }
}

impl GaussianMixture {
    /// Fit by EM with k-means++-style mean seeding.
    pub fn fit(data: &[Vec<f64>], cfg: &GmmConfig) -> Self {
        let n = data.len();
        assert!(n > 0, "GMM requires at least one sample");
        let dim = data[0].len();
        let k = cfg.n_components.min(n).max(1);

        // Seed means via k-means (few iterations) for stable EM starts.
        let km = crate::kmeans::kmeans(data, k, 10, cfg.seed);
        let global_var: Vec<f64> = (0..dim)
            .map(|j| {
                let col: Vec<f64> = data.iter().map(|p| p[j]).collect();
                ns_linalg::stats::variance(&col).max(REG)
            })
            .collect();
        let mut components: Vec<Component> = km
            .centroids
            .iter()
            .map(|c| Component {
                weight: 1.0 / k as f64,
                mean: c.clone(),
                var: global_var.clone(),
                log_det: global_var.iter().map(|v| v.ln()).sum(),
            })
            .collect();

        let mut prev_ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut resp = vec![0.0f64; n * k];
        for it in 0..cfg.max_iter {
            iterations = it + 1;
            // E step.
            let mut ll_sum = 0.0;
            for (i, x) in data.iter().enumerate() {
                let logs: Vec<f64> = components
                    .iter()
                    .map(|c| c.weight.max(1e-300).ln() + c.log_pdf(x))
                    .collect();
                let m = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut denom = 0.0;
                for &l in &logs {
                    denom += (l - m).exp();
                }
                let log_norm = m + denom.ln();
                ll_sum += log_norm;
                for (c, &l) in logs.iter().enumerate() {
                    resp[i * k + c] = (l - log_norm).exp();
                }
            }
            let ll = ll_sum / n as f64;

            // M step.
            for c in 0..k {
                let nk: f64 = (0..n).map(|i| resp[i * k + c]).sum();
                let nk_safe = nk.max(1e-12);
                // Dirichlet prior on weights (simple MAP update).
                components[c].weight =
                    (nk + cfg.weight_prior) / (n as f64 + cfg.weight_prior * k as f64);
                let mut mean = vec![0.0; dim];
                for (i, x) in data.iter().enumerate() {
                    kernels::axpy(&mut mean, resp[i * k + c], x);
                }
                vecops::scale(&mut mean, 1.0 / nk_safe);
                components[c].mean = mean;
                let mut var = vec![0.0; dim];
                for (i, x) in data.iter().enumerate() {
                    let r = resp[i * k + c];
                    for (j, slot) in var.iter_mut().enumerate() {
                        let dx = x[j] - components[c].mean[j];
                        *slot += r * dx * dx;
                    }
                }
                for v in var.iter_mut() {
                    *v = (*v / nk_safe).max(REG);
                }
                components[c].log_det = var.iter().map(|v| v.ln()).sum();
                components[c].var = var;
            }
            // Renormalise weights (prior update can drift slightly).
            let wsum: f64 = components.iter().map(|c| c.weight).sum();
            for c in components.iter_mut() {
                c.weight /= wsum;
            }

            if (ll - prev_ll).abs() < TOL && it > 2 {
                prev_ll = ll;
                break;
            }
            prev_ll = ll;
        }

        GaussianMixture {
            components,
            log_likelihood: prev_ll,
            iterations,
        }
    }

    /// Minimum Mahalanobis distance from the point to any component —
    /// the ISC'20 anomaly score.
    pub fn min_mahalanobis(&self, x: &[f64]) -> f64 {
        self.components
            .iter()
            .map(|c| c.mahalanobis_sq(x).sqrt())
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gaussians() -> Vec<Vec<f64>> {
        // Deterministic pseudo-noise around two means.
        let mut data = Vec::new();
        for i in 0..60 {
            let e1 = ((i * 37 % 11) as f64 - 5.0) / 20.0;
            let e2 = ((i * 53 % 13) as f64 - 6.0) / 20.0;
            if i % 2 == 0 {
                data.push(vec![0.0 + e1, 0.0 + e2]);
            } else {
                data.push(vec![8.0 + e1, 8.0 + e2]);
            }
        }
        data
    }

    #[test]
    fn recovers_two_modes_diagonal() {
        let data = two_gaussians();
        let gmm = GaussianMixture::fit(
            &data,
            &GmmConfig {
                n_components: 2,
                ..Default::default()
            },
        );
        let mut means: Vec<f64> = gmm.components.iter().map(|c| c.mean[0]).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(means[0].abs() < 1.0, "means {means:?}");
        assert!((means[1] - 8.0).abs() < 1.0);
        assert!((gmm.components.iter().map(|c| c.weight).sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mahalanobis_is_zero_at_the_mean_and_one_a_standard_deviation_out() {
        let data = two_gaussians();
        let gmm = GaussianMixture::fit(
            &data,
            &GmmConfig {
                n_components: 2,
                ..Default::default()
            },
        );
        for c in &gmm.components {
            assert_eq!(c.mahalanobis_sq(&c.mean), 0.0);
            for j in 0..c.mean.len() {
                let mut x = c.mean.clone();
                x[j] += c.var[j].sqrt();
                let d = c.mahalanobis_sq(&x);
                assert!((d - 1.0).abs() < 1e-12, "axis {j}: {d}");
            }
        }
    }

    #[test]
    fn outliers_score_high_mahalanobis() {
        let data = two_gaussians();
        let gmm = GaussianMixture::fit(
            &data,
            &GmmConfig {
                n_components: 2,
                ..Default::default()
            },
        );
        let inlier = gmm.min_mahalanobis(&[0.0, 0.0]);
        let outlier = gmm.min_mahalanobis(&[40.0, -30.0]);
        assert!(
            outlier > 10.0 * inlier.max(0.1),
            "in={inlier} out={outlier}"
        );
    }

    #[test]
    fn weight_prior_shrinks_spurious_components() {
        let data = two_gaussians();
        let plain = GaussianMixture::fit(
            &data,
            &GmmConfig {
                n_components: 6,
                seed: 3,
                ..Default::default()
            },
        );
        let bayes = GaussianMixture::fit(
            &data,
            &GmmConfig {
                n_components: 6,
                weight_prior: 20.0,
                seed: 3,
                ..Default::default()
            },
        );
        let min_plain = plain
            .components
            .iter()
            .map(|c| c.weight)
            .fold(f64::INFINITY, f64::min);
        let min_bayes = bayes
            .components
            .iter()
            .map(|c| c.weight)
            .fold(f64::INFINITY, f64::min);
        // The prior pulls small weights toward uniform, away from zero.
        assert!(min_bayes >= min_plain - 1e-9);
    }

    #[test]
    fn likelihood_is_finite_and_improves() {
        let data = two_gaussians();
        let g1 = GaussianMixture::fit(
            &data,
            &GmmConfig {
                n_components: 1,
                ..Default::default()
            },
        );
        let g2 = GaussianMixture::fit(
            &data,
            &GmmConfig {
                n_components: 2,
                ..Default::default()
            },
        );
        assert!(g1.log_likelihood.is_finite());
        assert!(
            g2.log_likelihood > g1.log_likelihood,
            "more components must fit better"
        );
    }
}
