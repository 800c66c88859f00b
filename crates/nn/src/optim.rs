//! The optimizer every trainer uses: Adam.

use crate::params::{GradStore, ParamStore};
use ns_linalg::matrix::Matrix;

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Standard betas (0.9, 0.999), eps 1e-8.
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Apply one update step.
    pub fn step(&mut self, params: &mut ParamStore, grads: &GradStore) {
        if self.m.is_empty() {
            let zeros = |params: &ParamStore| -> Vec<Matrix> {
                (0..params.len())
                    .map(|i| {
                        let (r, c) = params.get(i).shape();
                        Matrix::zeros(r, c)
                    })
                    .collect()
            };
            self.m = zeros(params);
            self.v = zeros(params);
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads.get(i);
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mv, vv), gv) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice())
                .zip(g.as_slice())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
            }
            let p = params.get_mut(i);
            for ((pv, mv), vv) in p
                .as_mut_slice()
                .iter_mut()
                .zip(m.as_slice())
                .zip(v.as_slice())
            {
                let mhat = mv / bc1;
                let vhat = vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Graph;

    /// Minimise mean((w - target)²) and confirm convergence.
    fn quadratic_descent(optim: &mut dyn FnMut(&mut ParamStore, &GradStore)) -> f64 {
        let mut params = ParamStore::new(9);
        let w = params.add("w", Matrix::filled(2, 2, 5.0));
        let target = Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 2.0]]);
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            let (loss, grads) = {
                let mut g = Graph::new(&params);
                let wn = g.param(w);
                let t = g.input(target.clone());
                let l = g.mse(wn, t);
                let loss = g.scalar(l);
                (loss, g.backward(l))
            };
            optim(&mut params, &grads);
            last = loss;
        }
        last
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let final_loss = quadratic_descent(&mut |p, g| opt.step(p, g));
        assert!(final_loss < 1e-6, "final loss {final_loss}");
    }

    #[test]
    fn adam_handles_sparse_scale_differences() {
        // One coordinate has a 1000× larger gradient scale; Adam should
        // still pull both to the optimum.
        let mut params = ParamStore::new(10);
        let w = params.add("w", Matrix::from_rows(&[vec![3.0, 3.0]]));
        let scales = Matrix::from_rows(&[vec![1000.0, 1.0]]);
        let mut opt = Adam::new(0.05);
        for _ in 0..2000 {
            let grads = {
                let mut g = Graph::new(&params);
                let wn = g.param(w);
                let s = g.input(scales.clone());
                let scaled = g.mul(wn, s);
                let sq = g.mul(scaled, scaled);
                let l = g.mean_all(sq);
                g.backward(l)
            };
            opt.step(&mut params, &grads);
        }
        assert!(params.get(w)[(0, 0)].abs() < 1e-2);
        assert!(params.get(w)[(0, 1)].abs() < 1e-2);
    }
}
