//! ISC'20 (Ozer et al.): characterising HPC performance variation with a
//! Bayesian Gaussian Mixture Model and flagging anomalies by Mahalanobis
//! distance to the nearest component. Cheapest to train (no deep model),
//! weakest at modelling MTS dynamics — matching its Table 4 position.

use crate::common::{thin, Detector};
use ns_cluster::gmm::{GaussianMixture, GmmConfig};
use ns_linalg::matrix::Matrix;

/// Configuration.
#[derive(Clone, Debug)]
pub struct Isc20Config {
    pub max_iter: usize,
    /// Training rows subsampled to this cap across all nodes.
    pub max_rows: usize,
    pub seed: u64,
}

impl Default for Isc20Config {
    fn default() -> Self {
        Self {
            max_iter: 60,
            max_rows: 4000,
            seed: 13,
        }
    }
}

/// Mixture components fitted.
const N_COMPONENTS: usize = 6;
/// Dirichlet weight prior (the "Bayesian" in BGMM).
const WEIGHT_PRIOR: f64 = 5.0;

/// The fitted detector.
pub struct Isc20 {
    cfg: Isc20Config,
    model: Option<GaussianMixture>,
}

impl Isc20 {
    pub fn new(cfg: Isc20Config) -> Self {
        Self { cfg, model: None }
    }
}

impl Default for Isc20 {
    fn default() -> Self {
        Self::new(Isc20Config::default())
    }
}

impl Detector for Isc20 {
    fn name(&self) -> &'static str {
        "ISC 20"
    }

    fn fit(&mut self, nodes: &[Matrix], split: usize) {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for node in nodes {
            let upto = split.min(node.rows());
            for r in 0..upto {
                rows.push(node.row(r).to_vec());
            }
        }
        assert!(!rows.is_empty(), "no training rows");
        let rows = thin(rows, self.cfg.max_rows);
        let gmm = GaussianMixture::fit(
            &rows,
            &GmmConfig {
                n_components: N_COMPONENTS,
                max_iter: self.cfg.max_iter,
                weight_prior: WEIGHT_PRIOR,
                seed: self.cfg.seed,
            },
        );
        self.model = Some(gmm);
    }

    fn score_node(&self, _node_idx: usize, data: &Matrix, split: usize) -> Vec<f64> {
        let gmm = self.model.as_ref().expect("fit before score");
        let test = data.slice_rows(split.min(data.rows()), data.rows());
        (0..test.rows())
            .map(|r| gmm.min_mahalanobis(test.row(r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mahalanobis_flags_off_manifold_points() {
        let mut node = Matrix::from_fn(400, 3, |t, m| {
            ((t as f64) * 0.15 + m as f64).sin() * 0.5 + m as f64 * 0.1
        });
        for t in 330..350 {
            node[(t, 0)] += 6.0;
        }
        let nodes = vec![node];
        let mut det = Isc20::default();
        det.fit(&nodes, 250);
        let scores = det.score_node(0, &nodes[0], 250);
        assert_eq!(scores.len(), 150);
        let anom: f64 = scores[80..100].iter().sum::<f64>() / 20.0;
        let norm: f64 = scores[..80].iter().sum::<f64>() / 80.0;
        assert!(anom > 2.0 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    fn training_is_fast_relative_to_data() {
        // Structural check: fitting must subsample to the configured cap.
        let nodes: Vec<Matrix> = (0..4)
            .map(|n| Matrix::from_fn(3000, 2, |t, _| ((t * (n + 1)) as f64 * 0.01).sin()))
            .collect();
        let mut det = Isc20::new(Isc20Config {
            max_rows: 500,
            max_iter: 10,
            ..Default::default()
        });
        det.fit(&nodes, 2500);
        assert!(det.model.is_some());
    }
}
