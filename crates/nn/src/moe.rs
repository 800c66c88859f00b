//! Sparse Mixture-of-Experts layer with top-k gating (paper §3.4, Eq. 3–4).
//!
//! The MoE layer replaces the dense FFN of a Transformer block: a gating
//! network routes each token to the `top_k` experts with the highest gate
//! values, and the layer output is the gate-weighted sum of those experts'
//! outputs. Gradients flow into the router through the selected gate
//! probabilities (standard sparse-MoE training), so "the routing variable
//! W_r is updated according to the experts' losses".

use crate::layers::FeedForward;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Graph, NodeId, Tier};
use ns_linalg::{Mat, Scalar};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The result of one MoE forward pass.
pub struct MoeOutput {
    /// Layer output, same shape as the input.
    pub out: NodeId,
    /// Full gate probability matrix (`T × n_experts`) — Eq. 3; what
    /// [`MoeLayer::aux_loss`] is built from when a loss is wanted.
    pub gate_probs: NodeId,
}

/// The (non-differentiable) routing decision of Eq. 4: `assign[e]`
/// becomes the ascending token rows whose `top_k` largest gate values
/// include expert `e`. Both vectors are reused scratch; the taped layer
/// and the inference session route through this one function.
pub fn route<T: Scalar>(
    probs: &Mat<T>,
    top_k: usize,
    order: &mut Vec<usize>,
    assign: &mut Vec<Vec<usize>>,
) {
    if assign.len() < probs.cols() {
        assign.resize_with(probs.cols(), Vec::new);
    }
    for a in assign.iter_mut() {
        a.clear();
    }
    for t in 0..probs.rows() {
        top_k_into(probs.row(t), top_k, order);
        for &e in order.iter() {
            assign[e].push(t);
        }
    }
}

/// Allocation-free replica of `ns_linalg::vecops::top_k_indices`: fill
/// `order` with the indices of `x` sorted descending by value, ties to
/// the lower index, truncated to `k`. The comparator is total (NaN
/// compares Equal, then falls to the index), so this insertion sort
/// produces the same permutation as the library's stable sort.
pub(crate) fn top_k_into<T: Scalar>(x: &[T], k: usize, order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..x.len());
    let cmp = |a: usize, b: usize| {
        x[b].partial_cmp(&x[a])
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    };
    for i in 1..order.len() {
        let mut j = i;
        while j > 0 && cmp(order[j - 1], order[j]) == Ordering::Greater {
            order.swap(j - 1, j);
            j -= 1;
        }
    }
    order.truncate(k.min(x.len()));
}

/// Sparse top-k MoE layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MoeLayer {
    pub experts: Vec<FeedForward>,
    /// Router weights `W_r` (`d_model × n_experts`).
    pub gate: ParamId,
    pub top_k: usize,
    pub d_model: usize,
}

impl MoeLayer {
    pub fn new(
        params: &mut ParamStore,
        name: &str,
        d_model: usize,
        hidden: usize,
        n_experts: usize,
        top_k: usize,
    ) -> Self {
        assert!(n_experts >= 1, "need at least one expert");
        let experts = (0..n_experts)
            .map(|e| FeedForward::new(params, &format!("{name}.expert{e}"), d_model, hidden))
            .collect();
        let gate = params.xavier(format!("{name}.gate"), d_model, n_experts);
        Self {
            experts,
            gate,
            top_k: top_k.clamp(1, n_experts),
            d_model,
        }
    }

    pub fn n_experts(&self) -> usize {
        self.experts.len()
    }

    /// Forward over a `T × d_model` token matrix.
    pub fn forward<T: Tier>(&self, g: &mut Graph<'_, T>, x: NodeId) -> MoeOutput {
        let tokens = g.value(x).rows();
        // h(x) = x · W_r ; p = softmax(h)   (Eq. 3)
        let wr = g.param(self.gate);
        let h = g.matmul(x, wr);
        let p = g.softmax_rows(h);

        // Routing uses the tape's recycled scratch, handed back below.
        let mut order = std::mem::take(&mut g.tape.ids);
        let mut assign = std::mem::take(&mut g.tape.route);
        route(g.value(p), self.top_k, &mut order, &mut assign);

        // y = Σ_{i ∈ topk} p_i(x) · E_i(x)   (Eq. 4). An expert that
        // received no token emits no nodes.
        let mut total: Option<NodeId> = None;
        for (e, expert) in self.experts.iter().enumerate() {
            let idx = &assign[e];
            if idx.is_empty() {
                continue;
            }
            let xe = g.gather_rows(x, idx);
            let ye = expert.forward(g, xe);
            let gate_col = g.select_col(p, idx, e);
            let weighted = g.mul_col_broadcast(ye, gate_col);
            let full = g.scatter_rows(weighted, idx, tokens);
            total = Some(match total {
                Some(acc) => g.add(acc, full),
                None => full,
            });
        }
        g.tape.ids = order;
        g.tape.route = assign;
        MoeOutput {
            out: total.unwrap_or_else(|| g.scale(x, 0.0)),
            gate_probs: p,
        }
    }

    /// Switch-Transformer load-balance loss of one forward (scalar node):
    /// `N · Σ_e f_e · P_e`, where `f_e` is the (constant) fraction of
    /// tokens whose top-1 choice is `e` and `P_e` the mean gate
    /// probability of `e`. Training builds it; scoring never does.
    pub fn aux_loss(&self, g: &mut Graph<'_>, gate_probs: NodeId) -> NodeId {
        let n_exp = self.experts.len();
        let tokens = g.value(gate_probs).rows();
        let mut tally = std::mem::take(&mut g.tape.ids);
        tally.clear();
        tally.resize(n_exp, 0);
        for t in 0..tokens {
            if let Some(best) = ns_linalg::vecops::argmax(g.value(gate_probs).row(t)) {
                tally[best] += 1;
            }
        }
        let f_row = g.input_fill(1, n_exp, |f| {
            // One `+= 1/T` per token, as the tally was always summed.
            for (fe, &hits) in f.iter_mut().zip(&tally) {
                for _ in 0..hits {
                    *fe += 1.0 / tokens.max(1) as f64;
                }
            }
        });
        g.tape.ids = tally;
        let p_mean = g.col_means(gate_probs);
        let prod = g.mul(p_mean, f_row);
        let s = g.sum_all(prod);
        g.scale(s, n_exp as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use ns_linalg::matrix::Matrix;

    fn layer(n_experts: usize, top_k: usize, seed: u64) -> (ParamStore, MoeLayer) {
        let mut params = ParamStore::new(seed);
        let moe = MoeLayer::new(&mut params, "moe", 8, 16, n_experts, top_k);
        (params, moe)
    }

    fn top_k_matches_library<T: Scalar>() {
        let cases: Vec<Vec<f64>> = vec![
            vec![0.2, 0.5, 0.3],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![-0.5, 0.0, 0.0, -0.5, 2.0],
            vec![3.0],
            vec![],
        ];
        let mut order = Vec::new();
        for x in cases {
            let xt: Vec<T> = x.iter().map(|&v| T::from_f64(v)).collect();
            for k in 0..=x.len() + 1 {
                top_k_into(&xt, k, &mut order);
                assert_eq!(
                    order,
                    ns_linalg::vecops::top_k_indices(&x, k),
                    "x={x:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn top_k_into_matches_library() {
        top_k_matches_library::<f64>();
        top_k_matches_library::<f32>();
    }

    #[test]
    fn gate_probabilities_normalized() {
        let (params, moe) = layer(4, 1, 7);
        let mut g = Graph::new(&params);
        let x = g.input(Matrix::from_fn(10, 8, |r, c| {
            ((r * 3 + c) as f64 * 0.21).sin()
        }));
        let out = moe.forward(&mut g, x);
        let probs = g.value(out.gate_probs);
        assert_eq!(probs.shape(), (10, 4));
        for r in 0..10 {
            let s: f64 = probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-10, "row {r} sums to {s}");
            assert!(probs.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn every_token_assigned_to_exactly_top_k_experts() {
        for top_k in 1..=3 {
            let (params, moe) = layer(3, top_k, 11);
            let mut g = Graph::new(&params);
            let x = g.input(Matrix::from_fn(20, 8, |r, c| {
                ((r + 2 * c) as f64 * 0.37).cos()
            }));
            let out = moe.forward(&mut g, x);
            let (mut order, mut assignments) = (Vec::new(), Vec::new());
            route(g.value(out.gate_probs), top_k, &mut order, &mut assignments);
            let total: usize = assignments.iter().map(|a| a.len()).sum();
            assert_eq!(total, 20 * top_k, "top_k={top_k}");
            // No expert sees the same token twice.
            for a in &assignments {
                let mut s = a.clone();
                s.sort_unstable();
                s.dedup();
                assert_eq!(s.len(), a.len());
            }
        }
    }

    #[test]
    fn output_shape_matches_input_and_is_finite() {
        let (params, moe) = layer(3, 1, 13);
        let mut g = Graph::new(&params);
        let x = g.input(Matrix::from_fn(6, 8, |r, c| (r as f64 - c as f64) * 0.1));
        let out = moe.forward(&mut g, x);
        assert_eq!(g.value(out.out).shape(), (6, 8));
        assert!(g.value(out.out).as_slice().iter().all(|v| v.is_finite()));
        let aux = moe.aux_loss(&mut g, out.gate_probs);
        assert!(g.scalar(aux).is_finite());
    }

    #[test]
    fn single_expert_equals_plain_ffn_times_gate_one() {
        // With one expert the gate softmax is identically 1, so the MoE
        // output must equal the expert FFN applied to all tokens.
        let (params, moe) = layer(1, 1, 17);
        let mut g = Graph::new(&params);
        let xm = Matrix::from_fn(5, 8, |r, c| ((r * c) as f64 * 0.05).sin());
        let x = g.input(xm.clone());
        let out = moe.forward(&mut g, x);
        let x2 = g.input(xm);
        let plain = moe.experts[0].forward(&mut g, x2);
        let a = g.value(out.out).clone();
        let b = g.value(plain).clone();
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn gradients_flow_into_router_and_experts() {
        let (params, moe) = layer(3, 1, 19);
        let mut g = Graph::new(&params);
        let x = g.input(Matrix::from_fn(12, 8, |r, c| {
            ((r * 5 + c * 3) as f64 * 0.13).sin()
        }));
        let out = moe.forward(&mut g, x);
        let target = g.input(Matrix::zeros(12, 8));
        let l = g.mse(out.out, target);
        let grads = g.backward(l);
        // Router gradient must be nonzero (flows through selected gates).
        assert!(
            grads.get(moe.gate).max_abs() > 0.0,
            "router got no gradient"
        );
        // At least one expert's weights get gradient.
        let any_expert = moe
            .experts
            .iter()
            .any(|e| grads.get(e.lin1.w).max_abs() > 0.0);
        assert!(any_expert, "no expert received gradient");
    }

    #[test]
    fn moe_reconstruction_training_converges() {
        // Train a 2-expert MoE to reconstruct two distinct token families;
        // loss must drop by a large factor.
        let (mut params, moe) = layer(2, 1, 23);
        let data = Matrix::from_fn(16, 8, |r, c| {
            if r % 2 == 0 {
                ((c as f64) * 0.7).sin()
            } else {
                -((c as f64) * 0.4).cos()
            }
        });
        let mut opt = Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let (loss, grads) = {
                let mut g = Graph::new(&params);
                let x = g.input(data.clone());
                let out = moe.forward(&mut g, x);
                let t = g.input(data.clone());
                let l = g.mse(out.out, t);
                (g.scalar(l), g.backward(l))
            };
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
            opt.step(&mut params, &grads);
        }
        assert!(last < first.unwrap() * 0.1, "loss {first:?} → {last}");
    }

    #[test]
    fn aux_loss_favors_balanced_routing() {
        // Uniform gate probabilities minimise the Switch aux loss at 1.0;
        // collapsed routing pushes it toward n_experts.
        let (params, moe) = layer(4, 1, 29);
        let mut g = Graph::new(&params);
        let x = g.input(Matrix::from_fn(40, 8, |r, c| {
            ((r * 7 + c) as f64 * 0.11).sin()
        }));
        let out = moe.forward(&mut g, x);
        let aux = moe.aux_loss(&mut g, out.gate_probs);
        let aux = g.scalar(aux);
        assert!(
            aux >= 1.0 - 1e-6,
            "aux {aux} must be ≥ 1 (balanced optimum)"
        );
        assert!(aux <= 4.0 + 1e-6);
    }
}
