//! RUAD (Molan et al., FGCS '23): unsupervised per-node anomaly
//! detection with LSTM models capturing temporal dependencies. Training
//! one deep model per node is its defining cost — the paper's Table 4
//! shows it as the slowest offline method.

use crate::common::{spread_window_scores, thin, Detector};
use ns_linalg::matrix::Matrix;
use ns_nn::lstm::LstmAutoencoder;
use ns_nn::{windows, Adam, Graph, ParamStore};
use rayon::prelude::*;

/// Configuration.
#[derive(Clone, Debug)]
pub struct RuadConfig {
    pub epochs: usize,
    /// Cap on training windows per node.
    pub max_windows_per_node: usize,
    pub seed: u64,
}

impl Default for RuadConfig {
    fn default() -> Self {
        Self {
            epochs: 6,
            max_windows_per_node: 120,
            seed: 5,
        }
    }
}

/// Rows per LSTM window.
const WINDOW: usize = 16;
/// LSTM hidden width.
const HIDDEN: usize = 24;
const LR: f64 = 4e-3;

/// Per-node LSTM autoencoders.
pub struct Ruad {
    cfg: RuadConfig,
    models: Vec<(ParamStore, LstmAutoencoder)>,
}

impl Ruad {
    pub fn new(cfg: RuadConfig) -> Self {
        Self {
            cfg,
            models: Vec::new(),
        }
    }
}

impl Default for Ruad {
    fn default() -> Self {
        Self::new(RuadConfig::default())
    }
}

impl Detector for Ruad {
    fn name(&self) -> &'static str {
        "RUAD"
    }

    fn fit(&mut self, nodes: &[Matrix], split: usize) {
        let cfg = self.cfg.clone();
        // One model per node — the scaling burden the paper criticises.
        self.models = nodes
            .par_iter()
            .enumerate()
            .map(|(idx, node)| {
                let upto = split.min(node.rows());
                let train = node.slice_rows(0, upto);
                let dim = train.cols();
                let mut params = ParamStore::new(cfg.seed ^ (idx as u64) << 8);
                let ae = LstmAutoencoder::new(&mut params, "ruad", dim, HIDDEN);
                let wins = thin(
                    windows(train.rows(), WINDOW, WINDOW),
                    cfg.max_windows_per_node,
                );
                let mut opt = Adam::new(LR);
                for _epoch in 0..cfg.epochs {
                    for w in &wins {
                        let win = train.slice_rows(w.start, w.end);
                        if win.rows() < 2 {
                            continue;
                        }
                        let grads = {
                            let mut g = Graph::new(&params);
                            let l = ae.loss(&mut g, &win);
                            g.backward(l)
                        };
                        opt.step(&mut params, &grads);
                    }
                }
                (params, ae)
            })
            .collect();
    }

    fn score_node(&self, node_idx: usize, data: &Matrix, split: usize) -> Vec<f64> {
        let (params, ae) = self.models.get(node_idx).expect("fit before score");
        let test = data.slice_rows(split.min(data.rows()), data.rows());
        let len = test.rows();
        if len == 0 {
            return Vec::new();
        }
        let wins = windows(len, WINDOW, WINDOW);
        let errs: Vec<f64> = wins
            .par_iter()
            .map(|w| {
                let win = test.slice_rows(w.start, w.end);
                let mut g = Graph::new(params);
                let recon = ae.reconstruct(&mut g, &win);
                let rv = g.value(recon);
                let mut err = 0.0;
                for r in 0..win.rows() {
                    for (a, b) in win.row(r).iter().zip(rv.row(r)) {
                        err += (a - b) * (a - b);
                    }
                }
                err / win.len() as f64
            })
            .collect();
        spread_window_scores(len, &wins, &errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_models_are_trained() {
        let nodes: Vec<Matrix> = (0..2)
            .map(|n| Matrix::from_fn(120, 3, |t, m| ((t + n * 7) as f64 * 0.3 + m as f64).sin()))
            .collect();
        let mut det = Ruad::new(RuadConfig {
            epochs: 2,
            ..Default::default()
        });
        det.fit(&nodes, 80);
        assert_eq!(det.models.len(), 2);
        let scores = det.score_node(1, &nodes[1], 80);
        assert_eq!(scores.len(), 40);
        assert!(scores.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn level_shift_scores_higher_than_baseline() {
        let mut node = Matrix::from_fn(200, 2, |t, m| ((t as f64) * 0.4 + m as f64).sin() * 0.5);
        for t in 160..190 {
            for m in 0..2 {
                node[(t, m)] += 3.0;
            }
        }
        let nodes = vec![node];
        let mut det = Ruad::new(RuadConfig {
            epochs: 4,
            ..Default::default()
        });
        det.fit(&nodes, 120);
        let scores = det.score_node(0, &nodes[0], 120);
        let anom: f64 = scores[40..70].iter().sum::<f64>() / 30.0;
        let norm: f64 = scores[..40].iter().sum::<f64>() / 40.0;
        assert!(anom > norm, "anom {anom} vs norm {norm}");
    }
}
