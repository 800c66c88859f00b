//! Prodigy (Aksar et al., SC '23): unsupervised anomaly detection via a
//! variational autoencoder over per-window feature summaries. One global
//! model shared by all nodes; no job awareness — which is exactly why it
//! struggles with HPC sub-pattern diversity (paper §6).

use crate::common::{spread_window_scores, thin, window_summary, Detector};
use ns_linalg::matrix::Matrix;
use ns_nn::vae::{standard_normal, Vae};
use ns_nn::{windows, Adam, Graph, ParamStore};

/// Configuration.
#[derive(Clone, Debug)]
pub struct ProdigyConfig {
    pub epochs: usize,
    pub seed: u64,
}

impl Default for ProdigyConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            seed: 3,
        }
    }
}

/// Rows per window summary.
const WINDOW: usize = 20;
const HIDDEN: usize = 48;
const LATENT: usize = 8;
const LR: f64 = 2e-3;
/// Weight of the KL term in the VAE loss.
const BETA: f64 = 1e-3;
/// Cap on training windows (subsampled uniformly beyond this).
const MAX_TRAIN_WINDOWS: usize = 1500;

/// The fitted detector.
pub struct Prodigy {
    cfg: ProdigyConfig,
    state: Option<(ParamStore, Vae)>,
}

impl Prodigy {
    pub fn new(cfg: ProdigyConfig) -> Self {
        Self { cfg, state: None }
    }
}

impl Default for Prodigy {
    fn default() -> Self {
        Self::new(ProdigyConfig::default())
    }
}

impl Detector for Prodigy {
    fn name(&self) -> &'static str {
        "Prodigy"
    }

    fn fit(&mut self, nodes: &[Matrix], split: usize) {
        // Collect per-window summaries across all nodes' training spans.
        let mut feats: Vec<Vec<f64>> = Vec::new();
        for node in nodes {
            let upto = split.min(node.rows());
            let train = node.slice_rows(0, upto);
            for w in windows(train.rows(), WINDOW, WINDOW) {
                feats.push(window_summary(&train.slice_rows(w.start, w.end)));
            }
        }
        assert!(!feats.is_empty(), "no training windows");
        let feats = thin(feats, MAX_TRAIN_WINDOWS);
        let dim = feats[0].len();
        let data = Matrix::from_rows(&feats);
        let mut params = ParamStore::new(self.cfg.seed);
        let vae = Vae::new(&mut params, "prodigy", dim, HIDDEN, LATENT);
        let mut opt = Adam::new(LR);
        for epoch in 0..self.cfg.epochs {
            let eps = standard_normal(data.rows(), LATENT, self.cfg.seed ^ epoch as u64);
            let grads = {
                let mut g = Graph::new(&params);
                let x = g.input(data.clone());
                let l = vae.loss(&mut g, x, &eps, BETA);
                g.backward(l)
            };
            opt.step(&mut params, &grads);
        }
        self.state = Some((params, vae));
    }

    fn score_node(&self, _node_idx: usize, data: &Matrix, split: usize) -> Vec<f64> {
        let (params, vae) = self.state.as_ref().expect("fit before score");
        let test = data.slice_rows(split.min(data.rows()), data.rows());
        let len = test.rows();
        if len == 0 {
            return Vec::new();
        }
        let wins = windows(len, WINDOW, WINDOW);
        let feats: Vec<Vec<f64>> = wins
            .iter()
            .map(|w| window_summary(&test.slice_rows(w.start, w.end)))
            .collect();
        let fm = Matrix::from_rows(&feats);
        let errs = vae.reconstruction_errors(params, &fm);
        spread_window_scores(len, &wins, &errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_with_anomaly() -> (Vec<Matrix>, usize, usize, usize) {
        let horizon = 400;
        let split = 240;
        let (a0, a1) = (320, 360);
        let node = Matrix::from_fn(horizon, 4, |t, m| {
            let base = ((t as f64) * 0.25 + m as f64).sin();
            if (a0..a1).contains(&t) {
                base + 4.0
            } else {
                base
            }
        });
        (vec![node], split, a0, a1)
    }

    #[test]
    fn prodigy_scores_anomaly_above_normal() {
        let (nodes, split, a0, a1) = node_with_anomaly();
        let mut det = Prodigy::new(ProdigyConfig {
            epochs: 80,
            ..Default::default()
        });
        det.fit(&nodes, split);
        let scores = det.score_node(0, &nodes[0], split);
        assert_eq!(scores.len(), nodes[0].rows() - split);
        let anom: f64 = scores[a0 - split..a1 - split].iter().sum::<f64>() / (a1 - a0) as f64;
        let norm: f64 = scores[..a0 - split].iter().sum::<f64>() / (a0 - split) as f64;
        assert!(anom > 2.0 * norm, "anom {anom} vs norm {norm}");
    }

    #[test]
    #[should_panic(expected = "fit before score")]
    fn scoring_unfitted_panics() {
        let det = Prodigy::default();
        let m = Matrix::zeros(10, 2);
        det.score_node(0, &m, 0);
    }
}
