//! ExaMon / Borghesi et al. (TPDS '21): per-node dense autoencoders on
//! instantaneous metric vectors. We implement the unsupervised
//! reconstruction component (the paper's comparison protocol, §4.1.2,
//! selects exactly this part).

use crate::common::{thin, Detector};
use ns_linalg::matrix::Matrix;
use ns_nn::{Adam, Graph, Linear, ParamStore};
use rayon::prelude::*;

/// Configuration.
#[derive(Clone, Debug)]
pub struct ExamonConfig {
    pub epochs: usize,
    pub seed: u64,
}

impl Default for ExamonConfig {
    fn default() -> Self {
        Self {
            epochs: 120,
            seed: 11,
        }
    }
}

const HIDDEN: usize = 32;
const BOTTLENECK: usize = 8;
const LR: f64 = 3e-3;
/// Training rows per node are subsampled to this cap.
const MAX_ROWS_PER_NODE: usize = 1200;

struct NodeAe {
    params: ParamStore,
    enc1: Linear,
    enc2: Linear,
    dec1: Linear,
    dec2: Linear,
}

impl NodeAe {
    fn reconstruct(&self, data: &Matrix) -> Matrix {
        let mut g = Graph::new(&self.params);
        let x = g.input(data.clone());
        let h1 = self.enc1.forward(&mut g, x);
        let a1 = g.relu(h1);
        let z = self.enc2.forward(&mut g, a1);
        let h2 = self.dec1.forward(&mut g, z);
        let a2 = g.relu(h2);
        let out = self.dec2.forward(&mut g, a2);
        g.value(out).clone()
    }
}

/// Per-node dense autoencoders.
pub struct Examon {
    cfg: ExamonConfig,
    models: Vec<NodeAe>,
}

impl Examon {
    pub fn new(cfg: ExamonConfig) -> Self {
        Self {
            cfg,
            models: Vec::new(),
        }
    }
}

impl Default for Examon {
    fn default() -> Self {
        Self::new(ExamonConfig::default())
    }
}

impl Detector for Examon {
    fn name(&self) -> &'static str {
        "ExaMon"
    }

    fn fit(&mut self, nodes: &[Matrix], split: usize) {
        let cfg = self.cfg.clone();
        self.models = nodes
            .par_iter()
            .enumerate()
            .map(|(idx, node)| {
                let upto = split.min(node.rows());
                let train = node.gather_rows(&thin((0..upto).collect(), MAX_ROWS_PER_NODE));
                let dim = train.cols();
                let mut params = ParamStore::new(cfg.seed ^ (idx as u64) << 4);
                let enc1 = Linear::new(&mut params, "e1", dim, HIDDEN);
                let enc2 = Linear::new(&mut params, "e2", HIDDEN, BOTTLENECK);
                let dec1 = Linear::new(&mut params, "d1", BOTTLENECK, HIDDEN);
                let dec2 = Linear::new(&mut params, "d2", HIDDEN, dim);
                let mut opt = Adam::new(LR);
                for _ in 0..cfg.epochs {
                    let grads = {
                        let mut g = Graph::new(&params);
                        let x = g.input(train.clone());
                        let h1 = enc1.forward(&mut g, x);
                        let a1 = g.relu(h1);
                        let z = enc2.forward(&mut g, a1);
                        let h2 = dec1.forward(&mut g, z);
                        let a2 = g.relu(h2);
                        let out = dec2.forward(&mut g, a2);
                        let l = g.mse(out, x);
                        g.backward(l)
                    };
                    opt.step(&mut params, &grads);
                }
                NodeAe {
                    params,
                    enc1,
                    enc2,
                    dec1,
                    dec2,
                }
            })
            .collect();
    }

    fn score_node(&self, node_idx: usize, data: &Matrix, split: usize) -> Vec<f64> {
        let model = self.models.get(node_idx).expect("fit before score");
        let test = data.slice_rows(split.min(data.rows()), data.rows());
        if test.rows() == 0 {
            return Vec::new();
        }
        let recon = model.reconstruct(&test);
        (0..test.rows())
            .map(|r| {
                test.row(r)
                    .iter()
                    .zip(recon.row(r))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    / test.cols().max(1) as f64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointwise_scores_spike_on_outliers() {
        let mut node = Matrix::from_fn(300, 3, |t, m| ((t as f64) * 0.2 + m as f64).sin());
        node[(250, 0)] = 8.0;
        node[(250, 1)] = -8.0;
        let nodes = vec![node];
        let mut det = Examon::default();
        det.fit(&nodes, 200);
        let scores = det.score_node(0, &nodes[0], 200);
        assert_eq!(scores.len(), 100);
        let spike = scores[50];
        let typical: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!(spike > 5.0 * typical, "spike {spike} vs typical {typical}");
    }

    #[test]
    fn one_model_per_node() {
        let nodes: Vec<Matrix> = (0..3)
            .map(|n| Matrix::from_fn(100, 2, |t, _| (t + n) as f64 * 0.01))
            .collect();
        let mut det = Examon::new(ExamonConfig {
            epochs: 5,
            ..Default::default()
        });
        det.fit(&nodes, 60);
        assert_eq!(det.models.len(), 3);
    }
}
