//! Gaussian mixture models fit by EM, with a Bayesian-flavoured variant
//! (Dirichlet weight prior, so components can be effectively pruned) and
//! Mahalanobis scoring — the machinery behind the ISC'20 baseline, which
//! characterises HPC performance variation with BGMM clustering and flags
//! points by Mahalanobis distance to their closest component.

use ns_linalg::{decomp, kernels, matrix::Matrix, vecops};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Covariance structure of the mixture components.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Covariance {
    /// Diagonal covariances — robust at high dimension / few samples.
    Diagonal,
    /// Full covariances with a ridge for invertibility.
    Full,
}

/// One fitted Gaussian component.
#[derive(Clone, Debug)]
pub struct Component {
    pub weight: f64,
    pub mean: Vec<f64>,
    /// Diagonal variances (always kept; Full additionally stores `cov`).
    pub var: Vec<f64>,
    /// Full covariance (only for [`Covariance::Full`]).
    pub cov: Option<Matrix>,
    /// Cached inverse covariance for Mahalanobis scoring.
    inv_cov: Option<Matrix>,
    log_det: f64,
}

/// A fitted Gaussian mixture.
#[derive(Clone, Debug)]
pub struct GaussianMixture {
    pub components: Vec<Component>,
    pub covariance: Covariance,
    /// Final mean log-likelihood per sample.
    pub log_likelihood: f64,
    pub iterations: usize,
}

/// Fit configuration.
#[derive(Clone, Debug)]
pub struct GmmConfig {
    pub n_components: usize,
    pub covariance: Covariance,
    pub max_iter: usize,
    pub tol: f64,
    /// Variance floor / ridge added to covariances.
    pub reg: f64,
    /// Dirichlet concentration prior on weights; > 0 makes this the
    /// "Bayesian" GMM of the ISC'20 baseline (small components shrink).
    pub weight_prior: f64,
    pub seed: u64,
}

impl Default for GmmConfig {
    fn default() -> Self {
        Self {
            n_components: 4,
            covariance: Covariance::Diagonal,
            max_iter: 100,
            tol: 1e-5,
            reg: 1e-6,
            weight_prior: 0.0,
            seed: 0,
        }
    }
}

const LOG_2PI: f64 = 1.8378770664093453; // ln(2π)

impl Component {
    fn log_pdf(&self, x: &[f64], covariance: Covariance) -> f64 {
        let d = x.len() as f64;
        match covariance {
            Covariance::Diagonal => {
                let mut q = 0.0;
                for ((&xi, &mi), &vi) in x.iter().zip(&self.mean).zip(&self.var) {
                    let dx = xi - mi;
                    q += dx * dx / vi;
                }
                -0.5 * (d * LOG_2PI + self.log_det + q)
            }
            Covariance::Full => {
                let q = self.mahalanobis_sq(x, covariance);
                -0.5 * (d * LOG_2PI + self.log_det + q)
            }
        }
    }

    /// Squared Mahalanobis distance to this component.
    pub fn mahalanobis_sq(&self, x: &[f64], covariance: Covariance) -> f64 {
        match covariance {
            Covariance::Diagonal => x
                .iter()
                .zip(&self.mean)
                .zip(&self.var)
                .map(|((&xi, &mi), &vi)| {
                    let dx = xi - mi;
                    dx * dx / vi
                })
                .sum(),
            Covariance::Full => match self.inv_cov.as_ref() {
                Some(inv) => {
                    let d: Vec<f64> = x.iter().zip(&self.mean).map(|(a, b)| a - b).collect();
                    let dv = Matrix::col_vector(&d);
                    let tmp = inv.matmul(&dv);
                    d.iter().zip(tmp.as_slice()).map(|(a, b)| a * b).sum()
                }
                // Before the first M step, components only carry diagonal
                // seed variances: fall back to the diagonal form.
                None => self.mahalanobis_sq(x, Covariance::Diagonal),
            },
        }
    }
}

impl GaussianMixture {
    /// Fit by EM with k-means++-style mean seeding.
    pub fn fit(data: &[Vec<f64>], cfg: &GmmConfig) -> Self {
        let n = data.len();
        assert!(n > 0, "GMM requires at least one sample");
        let dim = data[0].len();
        let k = cfg.n_components.min(n).max(1);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let _ = &mut rng;

        // Seed means via k-means (few iterations) for stable EM starts.
        let km = crate::kmeans::kmeans(data, k, 10, cfg.seed);
        let global_var: Vec<f64> = (0..dim)
            .map(|j| {
                let col: Vec<f64> = data.iter().map(|p| p[j]).collect();
                ns_linalg::stats::variance(&col).max(cfg.reg)
            })
            .collect();
        let mut components: Vec<Component> = km
            .centroids
            .iter()
            .map(|c| Component {
                weight: 1.0 / k as f64,
                mean: c.clone(),
                var: global_var.clone(),
                cov: None,
                inv_cov: None,
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
                    .map(|c| c.weight.max(1e-300).ln() + c.log_pdf(x, cfg.covariance))
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
                match cfg.covariance {
                    Covariance::Diagonal => {
                        let mut var = vec![0.0; dim];
                        for (i, x) in data.iter().enumerate() {
                            let r = resp[i * k + c];
                            for (j, slot) in var.iter_mut().enumerate() {
                                let dx = x[j] - components[c].mean[j];
                                *slot += r * dx * dx;
                            }
                        }
                        for v in var.iter_mut() {
                            *v = (*v / nk_safe).max(cfg.reg);
                        }
                        components[c].log_det = var.iter().map(|v| v.ln()).sum();
                        components[c].var = var;
                    }
                    Covariance::Full => {
                        let mut cov = Matrix::zeros(dim, dim);
                        for (i, x) in data.iter().enumerate() {
                            let r = resp[i * k + c];
                            for a in 0..dim {
                                let da = x[a] - components[c].mean[a];
                                for b in 0..dim {
                                    let db = x[b] - components[c].mean[b];
                                    cov[(a, b)] += r * da * db;
                                }
                            }
                        }
                        for a in 0..dim {
                            for b in 0..dim {
                                cov[(a, b)] /= nk_safe;
                            }
                            cov[(a, a)] += cfg.reg;
                        }
                        let inv = decomp::inverse(&cov).unwrap_or_else(|_| {
                            // Degenerate: fall back to the diagonal inverse.
                            let mut m = Matrix::zeros(dim, dim);
                            for a in 0..dim {
                                m[(a, a)] = 1.0 / cov[(a, a)].max(cfg.reg);
                            }
                            m
                        });
                        let ld = decomp::log_det(&cov).unwrap_or_else(|_| {
                            (0..dim).map(|a| cov[(a, a)].max(cfg.reg).ln()).sum()
                        });
                        components[c].var = (0..dim).map(|a| cov[(a, a)]).collect();
                        components[c].cov = Some(cov);
                        components[c].inv_cov = Some(inv);
                        components[c].log_det = ld;
                    }
                }
            }
            // Renormalise weights (prior update can drift slightly).
            let wsum: f64 = components.iter().map(|c| c.weight).sum();
            for c in components.iter_mut() {
                c.weight /= wsum;
            }

            if (ll - prev_ll).abs() < cfg.tol && it > 2 {
                prev_ll = ll;
                break;
            }
            prev_ll = ll;
        }

        GaussianMixture {
            components,
            covariance: cfg.covariance,
            log_likelihood: prev_ll,
            iterations,
        }
    }

    /// Minimum Mahalanobis distance from the point to any component —
    /// the ISC'20 anomaly score.
    pub fn min_mahalanobis(&self, x: &[f64]) -> f64 {
        self.components
            .iter()
            .map(|c| c.mahalanobis_sq(x, self.covariance).sqrt())
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
    fn full_covariance_fits_correlated_data() {
        // Strongly correlated 2-D Gaussian.
        let data: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                let t = ((i * 29) % 17) as f64 - 8.0;
                let n = ((i * 31) % 7) as f64 / 10.0;
                vec![t, t + n]
            })
            .collect();
        let gmm = GaussianMixture::fit(
            &data,
            &GmmConfig {
                n_components: 1,
                covariance: Covariance::Full,
                ..Default::default()
            },
        );
        let cov = gmm.components[0].cov.as_ref().unwrap();
        // Off-diagonal should be close to the diagonal (corr ≈ 1).
        assert!(cov[(0, 1)] > 0.8 * cov[(0, 0)]);
        // Mahalanobis of the mean is ~0.
        let m = gmm.components[0].mean.clone();
        assert!(gmm.components[0].mahalanobis_sq(&m, Covariance::Full) < 1e-9);
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
