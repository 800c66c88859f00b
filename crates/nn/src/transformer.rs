//! Transformer encoder with a sparse-MoE (or dense-FFN) position-wise
//! block — the model-sharing backbone of the paper (§3.4, Fig. 3).
//!
//! The input MTS is tokenised (one token per timestamp, a vector of metric
//! values), passed through positional encoding, `n_layers` of
//! {self-attention → add&norm → MoE/FFN → add&norm}, and a linear decoder
//! reconstructs the original tokens. Reconstruction error is the anomaly
//! score.

use crate::layers::{FeedForward, LayerNorm, Linear, MultiHeadAttention};
use crate::moe::MoeLayer;
use crate::params::ParamStore;
use crate::tape::{Graph, NodeId, Tier};
use serde::{Deserialize, Serialize};

/// Position-wise block type: the paper's MoE, or the dense FFN used by the
/// C5 ablation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum BlockKind {
    /// Sparse MoE with `n_experts` experts and `top_k` routing.
    Moe { n_experts: usize, top_k: usize },
    /// Dense feed-forward (ablation C5).
    Dense,
}

/// One encoder layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EncoderLayer {
    pub attn: MultiHeadAttention,
    pub norm1: LayerNorm,
    pub norm2: LayerNorm,
    pub moe: Option<MoeLayer>,
    pub ffn: Option<FeedForward>,
}

impl EncoderLayer {
    pub fn new(
        params: &mut ParamStore,
        name: &str,
        d_model: usize,
        n_heads: usize,
        hidden: usize,
        kind: &BlockKind,
    ) -> Self {
        let attn = MultiHeadAttention::new(params, &format!("{name}.attn"), d_model, n_heads);
        let norm1 = LayerNorm::new(params, &format!("{name}.norm1"), d_model);
        let norm2 = LayerNorm::new(params, &format!("{name}.norm2"), d_model);
        let (moe, ffn) = match kind {
            BlockKind::Moe { n_experts, top_k } => (
                Some(MoeLayer::new(
                    params,
                    &format!("{name}.moe"),
                    d_model,
                    hidden,
                    *n_experts,
                    *top_k,
                )),
                None,
            ),
            BlockKind::Dense => (
                None,
                Some(FeedForward::new(
                    params,
                    &format!("{name}.ffn"),
                    d_model,
                    hidden,
                )),
            ),
        };
        Self {
            attn,
            norm1,
            norm2,
            moe,
            ffn,
        }
    }

    /// Forward; returns `(output, gate_probs_node_if_moe)`.
    pub fn forward<T: Tier>(&self, g: &mut Graph<'_, T>, x: NodeId) -> (NodeId, Option<NodeId>) {
        // Post-norm residual blocks (as in the original Transformer).
        let a = self.attn.forward(g, x);
        let res1 = g.add(x, a);
        let n1 = self.norm1.forward(g, res1);
        let (block_out, gate_probs) = match (&self.moe, &self.ffn) {
            (Some(moe), _) => {
                let out = moe.forward(g, n1);
                (out.out, Some(out.gate_probs))
            }
            (None, Some(ffn)) => (ffn.forward(g, n1), None),
            _ => unreachable!("layer has either moe or ffn"),
        };
        let res2 = g.add(n1, block_out);
        let n2 = self.norm2.forward(g, res2);
        (n2, gate_probs)
    }
}

/// Hyperparameters for the reconstruction transformer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Input token width (number of metrics).
    pub input_dim: usize,
    pub d_model: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    /// FFN / expert hidden width.
    pub hidden: usize,
    pub block: BlockKind,
    /// Weight on the MoE load-balancing auxiliary loss.
    pub aux_weight: f64,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        // Artifact description: 3 encoder layers, 3 heads, 3 experts,
        // top-1 gating.
        Self {
            input_dim: 16,
            d_model: 24,
            n_heads: 3,
            n_layers: 3,
            hidden: 48,
            block: BlockKind::Moe {
                n_experts: 3,
                top_k: 1,
            },
            aux_weight: 0.01,
        }
    }
}

/// Reconstruction transformer: embed → +PE → encoder stack → linear
/// decoder back to the input width.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReconstructionTransformer {
    pub cfg: TransformerConfig,
    pub embed: Linear,
    pub layers: Vec<EncoderLayer>,
    pub decoder: Linear,
}

impl ReconstructionTransformer {
    pub fn new(params: &mut ParamStore, cfg: TransformerConfig) -> Self {
        let embed = Linear::new(params, "embed", cfg.input_dim, cfg.d_model);
        let layers = (0..cfg.n_layers)
            .map(|l| {
                EncoderLayer::new(
                    params,
                    &format!("enc{l}"),
                    cfg.d_model,
                    cfg.n_heads,
                    cfg.hidden,
                    &cfg.block,
                )
            })
            .collect();
        let decoder = Linear::new(params, "decoder", cfg.d_model, cfg.input_dim);
        Self {
            cfg,
            embed,
            layers,
            decoder,
        }
    }

    /// Reconstruct a `T × input_dim` window given its positional
    /// encoding table (`T × d_model`) — the model, at either tier; what
    /// scoring runs. `after_moe` sees each MoE layer and its gate
    /// probabilities once the layer is built.
    fn encode<T: Tier>(
        &self,
        g: &mut Graph<'_, T>,
        x: NodeId,
        pos_encoding: NodeId,
        mut after_moe: impl FnMut(&mut Graph<'_, T>, &MoeLayer, NodeId),
    ) -> NodeId {
        let e = self.embed.forward(g, x);
        let mut h = g.add(e, pos_encoding);
        for layer in &self.layers {
            let (out, gate_probs) = layer.forward(g, h);
            h = out;
            if let (Some(moe), Some(p)) = (&layer.moe, gate_probs) {
                after_moe(g, moe, p);
            }
        }
        self.decoder.forward(g, h)
    }

    /// The reconstruction alone, at either tier — what scoring runs.
    pub fn reconstruct<T: Tier>(
        &self,
        g: &mut Graph<'_, T>,
        x: NodeId,
        pos_encoding: NodeId,
    ) -> NodeId {
        self.encode(g, x, pos_encoding, |_, _, _| {})
    }

    /// [`ReconstructionTransformer::reconstruct`] plus what a training
    /// loss needs beside it: returns `(reconstruction, summed_aux_loss)`.
    pub fn forward(
        &self,
        g: &mut Graph<'_>,
        x: NodeId,
        pos_encoding: NodeId,
    ) -> (NodeId, Option<NodeId>) {
        let mut aux_total: Option<NodeId> = None;
        let recon = self.encode(g, x, pos_encoding, |g, moe, gate_probs| {
            let a = moe.aux_loss(g, gate_probs);
            aux_total = Some(match aux_total {
                Some(acc) => g.add(acc, a),
                None => a,
            });
        });
        (recon, aux_total)
    }

    /// Training loss for one window: WMSE (Eq. 5) of the reconstruction of
    /// `x` against `target` — `x` itself, or the clean window when `x` is
    /// a noised copy of it — plus the weighted MoE auxiliary loss.
    pub fn loss(
        &self,
        g: &mut Graph<'_>,
        x: NodeId,
        target: NodeId,
        pos_encoding: NodeId,
        weights: NodeId,
    ) -> NodeId {
        let (recon, aux) = self.forward(g, x, pos_encoding);
        let wmse = g.wmse(recon, target, weights);
        match aux {
            Some(a) if self.cfg.aux_weight > 0.0 => {
                let wa = g.scale(a, self.cfg.aux_weight);
                g.add(wmse, wa)
            }
            _ => wmse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::sinusoidal_pe;
    use crate::optim::Adam;
    use ns_linalg::matrix::Matrix;

    fn window(t: usize, m: usize, phase: f64) -> Matrix {
        Matrix::from_fn(t, m, |r, c| {
            ((r as f64 * 0.4 + c as f64 + phase) * 0.7).sin()
        })
    }

    fn small_cfg(block: BlockKind) -> TransformerConfig {
        TransformerConfig {
            input_dim: 4,
            d_model: 8,
            n_heads: 2,
            n_layers: 2,
            hidden: 16,
            block,
            aux_weight: 0.01,
        }
    }

    #[test]
    fn forward_shapes() {
        for block in [
            BlockKind::Moe {
                n_experts: 3,
                top_k: 1,
            },
            BlockKind::Dense,
        ] {
            let mut params = ParamStore::new(1);
            let model = ReconstructionTransformer::new(&mut params, small_cfg(block));
            let mut g = Graph::new(&params);
            let x = g.input(window(10, 4, 0.0));
            let pe = g.input(sinusoidal_pe(10, 8, 0));
            let (recon, aux) = model.forward(&mut g, x, pe);
            assert_eq!(g.value(recon).shape(), (10, 4));
            match model.cfg.block {
                BlockKind::Moe { .. } => assert!(aux.is_some()),
                BlockKind::Dense => assert!(aux.is_none()),
            }
        }
    }

    #[test]
    fn moe_transformer_learns_reconstruction() {
        let mut params = ParamStore::new(42);
        let model = ReconstructionTransformer::new(
            &mut params,
            small_cfg(BlockKind::Moe {
                n_experts: 2,
                top_k: 1,
            }),
        );
        let data = window(12, 4, 0.0);
        let w = Matrix::filled(1, 4, 1.0);
        let pe = sinusoidal_pe(12, 8, 0);
        let mut opt = Adam::new(3e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let (loss, grads) = {
                let mut g = Graph::new(&params);
                let x = g.input(data.clone());
                let p = g.input(pe.clone());
                let wn = g.input(w.clone());
                let l = model.loss(&mut g, x, x, p, wn);
                (g.scalar(l), g.backward(l))
            };
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
            opt.step(&mut params, &grads);
        }
        assert!(
            last < first.unwrap() * 0.2,
            "MoE transformer failed to learn: {first:?} → {last}"
        );
    }

    #[test]
    fn dense_variant_also_learns() {
        let mut params = ParamStore::new(43);
        let model = ReconstructionTransformer::new(&mut params, small_cfg(BlockKind::Dense));
        let data = window(12, 4, 1.0);
        let w = Matrix::filled(1, 4, 1.0);
        let pe = sinusoidal_pe(12, 8, 0);
        let mut opt = Adam::new(3e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let (loss, grads) = {
                let mut g = Graph::new(&params);
                let x = g.input(data.clone());
                let p = g.input(pe.clone());
                let wn = g.input(w.clone());
                let l = model.loss(&mut g, x, x, p, wn);
                (g.scalar(l), g.backward(l))
            };
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
            opt.step(&mut params, &grads);
        }
        assert!(
            last < first.unwrap() * 0.2,
            "dense transformer: {first:?} → {last}"
        );
    }

    #[test]
    fn reconstruction_error_separates_unseen_pattern() {
        // Train on one pattern; a very different pattern must reconstruct
        // worse. This is the anomaly-score mechanism end-to-end.
        let mut params = ParamStore::new(44);
        let model = ReconstructionTransformer::new(
            &mut params,
            small_cfg(BlockKind::Moe {
                n_experts: 2,
                top_k: 1,
            }),
        );
        let train = window(12, 4, 0.0);
        let w = Matrix::filled(1, 4, 1.0);
        let pe = sinusoidal_pe(12, 8, 0);
        let mut opt = Adam::new(3e-3);
        for _ in 0..200 {
            let grads = {
                let mut g = Graph::new(&params);
                let x = g.input(train.clone());
                let p = g.input(pe.clone());
                let wn = g.input(w.clone());
                let l = model.loss(&mut g, x, x, p, wn);
                g.backward(l)
            };
            opt.step(&mut params, &grads);
        }
        let err_of = |data: &Matrix| {
            let mut g = Graph::new(&params);
            let x = g.input(data.clone());
            let p = g.input(pe.clone());
            let (recon, _) = model.forward(&mut g, x, p);
            let l = g.mse(recon, x);
            g.scalar(l)
        };
        let seen = err_of(&train);
        // Anomalous pattern: large constant offset (a "memory exhaustion"
        // style level shift).
        let anomalous = train.map(|v| v + 4.0);
        let unseen = err_of(&anomalous);
        assert!(unseen > seen * 5.0, "seen {seen} vs unseen {unseen}");
    }

    #[test]
    fn param_count_is_reported() {
        let mut params = ParamStore::new(7);
        let _model = ReconstructionTransformer::new(
            &mut params,
            small_cfg(BlockKind::Moe {
                n_experts: 3,
                top_k: 1,
            }),
        );
        // Structure sanity: embed + 2 layers × (4 attn linears ×2 + 2 norms ×2
        // + 3 experts ×4 + gate) + decoder.
        assert!(params.num_scalars() > 1000);
        assert!(params.len() > 30);
    }
}
