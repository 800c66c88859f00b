//! Reusable layers: Linear, LayerNorm, position-wise FeedForward,
//! multi-head self-attention, and sinusoidal positional encodings
//! (including the paper's segment-aware variant, built in
//! `nodesentry-core` on top of [`sinusoidal_pe`]).

use crate::params::{ParamId, ParamStore};
use crate::tape::{Graph, NodeId, Tier};
use ns_linalg::matrix::Matrix;
use ns_linalg::Scalar;
use serde::{Deserialize, Serialize};

/// Fully-connected layer `y = x W + b`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    pub fn new(params: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Self {
        let w = params.xavier(format!("{name}.w"), in_dim, out_dim);
        let b = params.zeros(format!("{name}.b"), 1, out_dim);
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Forward over a `n × in_dim` node.
    pub fn forward<T: Tier>(&self, g: &mut Graph<'_, T>, x: NodeId) -> NodeId {
        g.linear(x, self.w, self.b)
    }
}

/// Layer normalisation with learnable gain and shift.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LayerNorm {
    pub gamma: ParamId,
    pub beta: ParamId,
}

impl LayerNorm {
    pub fn new(params: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = params.constant(format!("{name}.gamma"), 1, dim, 1.0);
        let beta = params.zeros(format!("{name}.beta"), 1, dim);
        Self { gamma, beta }
    }

    pub fn forward<T: Tier>(&self, g: &mut Graph<'_, T>, x: NodeId) -> NodeId {
        g.layer_norm(x, self.gamma, self.beta)
    }
}

/// Position-wise feed-forward network `relu(x W1 + b1) W2 + b2` — a
/// Transformer FFN block, and the expert network inside the MoE layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeedForward {
    pub lin1: Linear,
    pub lin2: Linear,
}

impl FeedForward {
    pub fn new(params: &mut ParamStore, name: &str, dim: usize, hidden: usize) -> Self {
        Self {
            lin1: Linear::new(params, &format!("{name}.ff1"), dim, hidden),
            lin2: Linear::new(params, &format!("{name}.ff2"), hidden, dim),
        }
    }

    pub fn forward<T: Tier>(&self, g: &mut Graph<'_, T>, x: NodeId) -> NodeId {
        let h = self.lin1.forward(g, x);
        let a = g.relu(h);
        self.lin2.forward(g, a)
    }
}

/// Multi-head self-attention over a `T × d_model` sequence.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub n_heads: usize,
    pub d_model: usize,
}

impl MultiHeadAttention {
    pub fn new(params: &mut ParamStore, name: &str, d_model: usize, n_heads: usize) -> Self {
        assert!(
            d_model.is_multiple_of(n_heads),
            "d_model must divide by n_heads"
        );
        Self {
            wq: Linear::new(params, &format!("{name}.wq"), d_model, d_model),
            wk: Linear::new(params, &format!("{name}.wk"), d_model, d_model),
            wv: Linear::new(params, &format!("{name}.wv"), d_model, d_model),
            wo: Linear::new(params, &format!("{name}.wo"), d_model, d_model),
            n_heads,
            d_model,
        }
    }

    /// Full (non-causal) self-attention: every token attends to every
    /// token — appropriate for reconstruction models.
    pub fn forward<T: Tier>(&self, g: &mut Graph<'_, T>, x: NodeId) -> NodeId {
        let q = self.wq.forward(g, x);
        let k = self.wk.forward(g, x);
        let v = self.wv.forward(g, x);
        let dh = self.d_model / self.n_heads;
        let scale = 1.0 / (dh as f64).sqrt();
        let mut heads = std::mem::take(&mut g.tape.ids);
        heads.clear();
        for h in 0..self.n_heads {
            let lo = h * dh;
            let hi = lo + dh;
            let qh = g.slice_cols(q, lo, hi);
            let kh = g.slice_cols(k, lo, hi);
            let vh = g.slice_cols(v, lo, hi);
            let scores = g.matmul_nt(qh, kh);
            let scaled = g.scale(scores, scale);
            let attn = g.softmax_rows(scaled);
            heads.push(g.matmul(attn, vh));
        }
        let cat = g.concat_cols(&heads);
        g.tape.ids = heads;
        self.wo.forward(g, cat)
    }
}

/// Standard sinusoidal positional encoding table (`len × d_model`).
///
/// `offset` shifts the position index — the hook the paper's segment-aware
/// encoding uses to distinguish positions *across* different segments
/// stitched into one training sequence (§3.4).
pub fn sinusoidal_pe(len: usize, d_model: usize, offset: usize) -> Matrix {
    let positions: Vec<f64> = (0..len).map(|p| (p + offset) as f64).collect();
    sinusoidal_pe_at(&positions, d_model)
}

/// Sinusoidal positional encoding evaluated at arbitrary (possibly
/// fractional) positions — used for the *relative* segment-aware
/// encoding, where a row's position index is its fraction of the
/// segment length rather than its absolute step.
pub fn sinusoidal_pe_at(positions: &[f64], d_model: usize) -> Matrix {
    let divisors = sinusoidal_pe_divisors(d_model);
    let mut pe = Matrix::zeros(positions.len(), d_model);
    for (r, &p) in positions.iter().enumerate() {
        sinusoidal_pe_row(p, &divisors, pe.row_mut(r));
    }
    pe
}

/// The encoding's per-column divisors `10000^(2⌊i/2⌋ / d_model)`: they
/// depend on the column alone, so a table pays the `powf` once per column,
/// not once per element.
pub fn sinusoidal_pe_divisors(d_model: usize) -> Vec<f64> {
    (0..d_model)
        .map(|i| (10000.0_f64).powf((2 * (i / 2)) as f64 / d_model as f64))
        .collect()
}

/// One row of the encoding at (fractional) position `p`: `sin(p / div)` on
/// even columns, `cos(p / div)` on odd ones, computed in `f64` and rounded
/// to `T` once. The single source of every table — [`sinusoidal_pe_at`]
/// and the scoring session's — so they agree bit for bit.
pub fn sinusoidal_pe_row<T: Scalar>(p: f64, divisors: &[f64], row: &mut [T]) {
    for (i, (slot, &div)) in row.iter_mut().zip(divisors).enumerate() {
        *slot = T::from_f64(if i.is_multiple_of(2) {
            (p / div).sin()
        } else {
            (p / div).cos()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::optim::Adam;

    #[test]
    fn linear_shapes_and_bias() {
        let mut params = ParamStore::new(1);
        let lin = Linear::new(&mut params, "l", 4, 2);
        // Zero weights → output equals bias.
        params.get_mut(lin.w).map_inplace(|_| 0.0);
        params
            .get_mut(lin.b)
            .row_mut(0)
            .copy_from_slice(&[7.0, -3.0]);
        let mut g = Graph::new(&params);
        let x = g.input(Matrix::filled(5, 4, 1.0));
        let y = lin.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (5, 2));
        assert_eq!(g.value(y)[(4, 0)], 7.0);
        assert_eq!(g.value(y)[(0, 1)], -3.0);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut params = ParamStore::new(2);
        let ln = LayerNorm::new(&mut params, "ln", 8);
        let mut g = Graph::new(&params);
        let x = g.input(Matrix::from_fn(3, 8, |r, c| {
            (r * 8 + c) as f64 * 3.0 + 100.0
        }));
        let y = ln.forward(&mut g, x);
        for r in 0..3 {
            let row = g.value(y).row(r);
            let mean: f64 = row.iter().sum::<f64>() / 8.0;
            let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 8.0;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn attention_output_shape_preserved() {
        let mut params = ParamStore::new(3);
        let mha = MultiHeadAttention::new(&mut params, "attn", 12, 3);
        let mut g = Graph::new(&params);
        let x = g.input(Matrix::from_fn(7, 12, |r, c| ((r + c) as f64 * 0.1).sin()));
        let y = mha.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (7, 12));
        assert!(g.value(y).as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn attention_gradcheck_small() {
        // Drive the attention entirely from a learnable input embedding to
        // verify gradients flow through softmax/matmul/slice/concat.
        check_gradients(31, &[(3, 4)], |g, ps| {
            let mut params_local = ParamStore::new(99);
            let mha = MultiHeadAttention::new(&mut params_local, "a", 4, 2);
            // Bind the layer's params as constants in this graph (we check
            // only the input gradient here).
            let x = g.param(ps[0]);
            let wq = g.input(params_local.get(mha.wq.w).clone());
            let q = g.matmul(x, wq);
            let scores = g.matmul_nt(q, q);
            let sm = g.softmax_rows(scores);
            let out = g.matmul(sm, x);
            let sq = g.mul(out, out);
            g.mean_all(sq)
        });
    }

    #[test]
    fn ffn_trains_to_fit_simple_function() {
        // Regression sanity: FFN should fit y = relu-ish mapping quickly.
        let mut params = ParamStore::new(5);
        let ff = FeedForward::new(&mut params, "ff", 2, 16);
        let inputs = Matrix::from_fn(8, 2, |r, c| ((r * 2 + c) as f64 / 8.0) - 0.5);
        let targets = Matrix::from_fn(8, 2, |r, c| {
            let v = ((r * 2 + c) as f64 / 8.0) - 0.5;
            v * v
        });
        let mut opt = Adam::new(0.01);
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            let (loss, grads) = {
                let mut g = Graph::new(&params);
                let x = g.input(inputs.clone());
                let t = g.input(targets.clone());
                let y = ff.forward(&mut g, x);
                let l = g.mse(y, t);
                (g.scalar(l), g.backward(l))
            };
            opt.step(&mut params, &grads);
            last = loss;
        }
        assert!(last < 1e-3, "ffn failed to fit: {last}");
    }

    #[test]
    fn positional_encoding_properties() {
        let pe = sinusoidal_pe(50, 16, 0);
        assert_eq!(pe.shape(), (50, 16));
        // Position 0: sin(0)=0 on even dims, cos(0)=1 on odd dims.
        for i in 0..16 {
            let want = if i % 2 == 0 { 0.0 } else { 1.0 };
            assert!((pe[(0, i)] - want).abs() < 1e-12);
        }
        // All entries bounded.
        assert!(pe.as_slice().iter().all(|v| v.abs() <= 1.0));
        // Offset shifts rows: pe(offset=5) row0 == pe(0) row5.
        let shifted = sinusoidal_pe(10, 16, 5);
        for i in 0..16 {
            assert!((shifted[(0, i)] - pe[(5, i)]).abs() < 1e-12);
        }
    }

    #[test]
    fn distinct_positions_have_distinct_encodings() {
        let pe = sinusoidal_pe(100, 32, 0);
        for a in (0..100).step_by(17) {
            for b in (a + 1..100).step_by(13) {
                let d: f64 = pe
                    .row(a)
                    .iter()
                    .zip(pe.row(b))
                    .map(|(x, y)| (x - y).abs())
                    .sum();
                assert!(d > 1e-6, "positions {a} and {b} collide");
            }
        }
    }
}
