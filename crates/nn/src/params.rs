//! Parameter storage shared across forward passes.
//!
//! Training loops build a [`crate::tape::Graph`] per example, so the
//! learnable state lives here: a flat arena of named matrices, plus an
//! aligned [`GradStore`] that accumulates gradients across a (possibly
//! rayon-parallel) batch before an optimizer step.

use ns_linalg::matrix::Matrix;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Index of a parameter inside a [`ParamStore`].
pub type ParamId = usize;

/// Named, ordered collection of learnable matrices.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
    rng: u64,
    /// Mutation stamp, bumped by every [`ParamStore::get_mut`] — i.e. on
    /// every optimizer step. Lets callers that derive state from the
    /// parameters (caches, checkpointers) detect updates cheaply. The
    /// `f32` tier's weight bake is such a caller (see [`crate::tape::Tier`]); the `f64`
    /// tier reads the store live and never looks at it. It counts
    /// mutations of *this* store: two stores stepped equally often share
    /// it, so it identifies nothing across stores.
    version: u64,
}

impl ParamStore {
    /// Create an empty store; `seed` drives all weight initialisation.
    pub fn new(seed: u64) -> Self {
        Self {
            values: Vec::new(),
            names: Vec::new(),
            rng: seed,
            version: 0,
        }
    }

    fn next_rng(&mut self) -> ChaCha8Rng {
        // Derive a fresh stream per parameter so insertion order, not
        // global call count, determines each init.
        let seed = self.rng;
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Register a parameter with explicit initial value.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.values.push(value);
        self.names.push(name.into());
        self.values.len() - 1
    }

    /// Xavier/Glorot-uniform initialised `rows × cols` parameter.
    pub fn xavier(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        let mut rng = self.next_rng();
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..limit));
        self.add(name, m)
    }

    /// Zero-initialised parameter (biases).
    pub fn zeros(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        self.add(name, Matrix::zeros(rows, cols))
    }

    /// Constant-initialised parameter (LayerNorm gains start at 1).
    pub fn constant(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        v: f64,
    ) -> ParamId {
        self.add(name, Matrix::filled(rows, cols, v))
    }

    /// Number of parameters (matrices).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|m| m.len()).sum()
    }

    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.values[id]
    }

    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.version = self.version.wrapping_add(1);
        &mut self.values[id]
    }

    /// Current mutation stamp (see the `version` field). Changes whenever
    /// any parameter is borrowed mutably.
    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id]
    }

    /// Fresh zeroed gradient store aligned with this parameter set.
    pub fn zero_grads(&self) -> GradStore {
        GradStore {
            grads: self
                .values
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
        }
    }
}

/// Gradients aligned index-for-index with a [`ParamStore`].
#[derive(Clone, Debug)]
pub struct GradStore {
    grads: Vec<Matrix>,
}

impl GradStore {
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.grads[id]
    }

    /// Reset every gradient to `+0.0`, keeping the buffers — a reused
    /// store starts a backward sweep exactly as a fresh one does.
    pub fn zero(&mut self) {
        for g in self.grads.iter_mut() {
            g.as_mut_slice().fill(0.0);
        }
    }

    /// Accumulate a gradient contribution for one parameter.
    pub fn accumulate(&mut self, id: ParamId, g: &Matrix) {
        self.grads[id].add_assign(g);
    }

    /// Merge another grad store (batch-parallel reduction).
    pub fn merge(&mut self, other: &GradStore) {
        assert_eq!(self.grads.len(), other.grads.len());
        for (a, b) in self.grads.iter_mut().zip(&other.grads) {
            a.add_assign(b);
        }
    }

    /// Scale every gradient (e.g. 1/batch averaging).
    pub fn scale(&mut self, k: f64) {
        for g in self.grads.iter_mut() {
            g.map_inplace(|v| v * k);
        }
    }

    /// Global L2 norm across all gradients.
    pub fn global_norm(&self) -> f64 {
        self.grads
            .iter()
            .map(|g| g.as_slice().iter().map(|v| v * v).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }

    /// Clip by global norm: rescale if the norm exceeds `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f64) {
        let n = self.global_norm();
        if n > max_norm && n > 0.0 {
            self.scale(max_norm / n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_bumps_on_mutable_access_only() {
        let mut p = ParamStore::new(1);
        let w = p.xavier("w", 2, 2);
        let v0 = p.version();
        let _ = p.get(w);
        assert_eq!(p.version(), v0, "read-only access must not bump");
        p.get_mut(w).map_inplace(|x| x + 1.0);
        assert_ne!(p.version(), v0, "get_mut must bump the stamp");
    }

    #[test]
    fn registration_and_lookup() {
        let mut p = ParamStore::new(1);
        let w = p.xavier("w", 4, 3);
        let b = p.zeros("b", 1, 3);
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 15);
        assert_eq!(p.name(w), "w");
        assert_eq!(p.get(b).shape(), (1, 3));
        assert!(p.get(b).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn xavier_bounds_and_determinism() {
        let mut p1 = ParamStore::new(42);
        let w1 = p1.xavier("w", 10, 10);
        let mut p2 = ParamStore::new(42);
        let w2 = p2.xavier("w", 10, 10);
        assert_eq!(p1.get(w1), p2.get(w2), "same seed must reproduce");
        let limit = (6.0 / 20.0f64).sqrt();
        assert!(p1.get(w1).as_slice().iter().all(|v| v.abs() <= limit));
        // Different seeds differ.
        let mut p3 = ParamStore::new(43);
        let w3 = p3.xavier("w", 10, 10);
        assert_ne!(p1.get(w1), p3.get(w3));
    }

    #[test]
    fn grad_accumulate_merge_clip() {
        let mut p = ParamStore::new(0);
        let w = p.add("w", Matrix::filled(2, 2, 1.0));
        let mut g1 = p.zero_grads();
        g1.accumulate(w, &Matrix::filled(2, 2, 3.0));
        let mut g2 = p.zero_grads();
        g2.accumulate(w, &Matrix::filled(2, 2, 1.0));
        g1.merge(&g2);
        assert_eq!(g1.get(w)[(0, 0)], 4.0);
        g1.scale(0.5);
        assert_eq!(g1.get(w)[(1, 1)], 2.0);
        let norm = g1.global_norm();
        assert!((norm - 4.0).abs() < 1e-12);
        g1.clip_global_norm(1.0);
        assert!((g1.global_norm() - 1.0).abs() < 1e-12);
    }
}
