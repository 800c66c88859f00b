//! Parameter storage shared across forward passes.
//!
//! Training loops build a [`crate::tape::Graph`] per example, so the
//! learnable state lives here: a flat arena of named matrices, plus an
//! aligned [`GradStore`] that accumulates gradients across a (possibly
//! rayon-parallel) batch before an optimizer step. The store also owns
//! the `f32` scoring tier's copy of its weights (see [`ParamStore`]).

use ns_linalg::matrix::{Mat, Matrix};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Index of a parameter inside a [`ParamStore`].
pub type ParamId = usize;

/// Named, ordered collection of learnable matrices.
///
/// It also owns the `f32` tier's copy of those matrices: built on the
/// first `f32` read, once however many threads read at once, and dropped
/// by every mutation ([`ParamStore::get_mut`], [`ParamStore::add`]), so it
/// always matches the values it was rounded from and needs no key.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
    rng: u64,
    f32_weights: F32Weights,
}

/// The lazily built `f32` copy of a store's values.
#[derive(Debug, Default)]
struct F32Weights {
    copy: OnceLock<Vec<Mat<f32>>>,
    /// How many times this store has built its copy.
    #[cfg(test)]
    builds: std::sync::atomic::AtomicUsize,
}

/// A clone starts cold: its first `f32` read builds its own copy.
impl Clone for F32Weights {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Serialized as `Null`: the copy is a pure cache, rebuilt on demand.
impl serde::Serialize for F32Weights {
    fn emit<S: serde::Sink>(&self, sink: &mut S) {
        sink.null()
    }
}

/// Deserializes from anything (including a missing field) to a cold
/// copy — the first `f32` read rebuilds it.
impl serde::Deserialize for F32Weights {
    fn read<'de, S: serde::Source<'de>>(src: &mut S) -> Result<Self, serde::Error> {
        src.skip()?;
        Ok(Self::default())
    }
}

impl ParamStore {
    /// Create an empty store; `seed` drives all weight initialisation.
    pub fn new(seed: u64) -> Self {
        Self {
            values: Vec::new(),
            names: Vec::new(),
            rng: seed,
            f32_weights: F32Weights::default(),
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
        self.f32_weights.copy.take();
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
        self.f32_weights.copy.take();
        &mut self.values[id]
    }

    /// Every parameter, indexed by [`ParamId`].
    pub(crate) fn values(&self) -> &[Matrix] {
        &self.values
    }

    /// Every parameter rounded to `f32`, indexed by [`ParamId`]: the
    /// store's own copy, built on first use.
    pub(crate) fn values_f32(&self) -> &[Mat<f32>] {
        self.f32_weights.copy.get_or_init(|| {
            #[cfg(test)]
            self.f32_weights
                .builds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.values
                .iter()
                .map(|m| {
                    let mut w = Mat::default();
                    w.copy_from_f64(m);
                    w
                })
                .collect()
        })
    }

    /// White box for tests: parameter `id` of the built `f32` copy, if
    /// there is one, borrowed without dropping it.
    #[cfg(test)]
    pub(crate) fn f32_copy_mut(&mut self, id: ParamId) -> Option<&mut Mat<f32>> {
        self.f32_weights.copy.get_mut().map(|copy| &mut copy[id])
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

    use crate::infer::Session;
    use crate::layers::sinusoidal_pe;
    use crate::tape::Tier;
    use crate::transformer::{BlockKind, ReconstructionTransformer, TransformerConfig};
    use rayon::prelude::*;
    use std::sync::atomic::Ordering;

    fn model(seed: u64) -> (ParamStore, ReconstructionTransformer) {
        let mut params = ParamStore::new(seed);
        let cfg = TransformerConfig {
            input_dim: 3,
            d_model: 8,
            n_heads: 2,
            n_layers: 1,
            hidden: 16,
            block: BlockKind::Moe {
                n_experts: 2,
                top_k: 1,
            },
            aux_weight: 0.01,
        };
        let model = ReconstructionTransformer::new(&mut params, cfg);
        (params, model)
    }

    fn builds(p: &ParamStore) -> usize {
        p.f32_weights.builds.load(Ordering::Relaxed)
    }

    /// The store's `f32` forward of a fixed window, as bits.
    fn f32_bits(params: &ParamStore, model: &ReconstructionTransformer) -> Vec<u32> {
        let x = Matrix::from_fn(7, 3, |r, c| ((r * 3 + c) as f64 * 0.37).sin());
        let pe = sinusoidal_pe(7, 8, 0);
        let mut sess = Session::<f32>::new();
        let out = sess.forward(params, model, &x, &pe);
        out.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn f32_copy_is_built_once_and_kept_across_reads() {
        let (p, model) = model(3);
        assert_eq!(builds(&p), 0, "a new store starts cold");
        let first = f32_bits(&p, &model);
        let at = f32::weights(&p).as_ptr();
        let _ = p.get(0);
        assert_eq!(f32_bits(&p, &model), first);
        assert_eq!(
            f32::weights(&p).as_ptr(),
            at,
            "one allocation serves every forward"
        );
        assert_eq!(builds(&p), 1);
        assert_eq!(f32::weights(&p).len(), p.len());
        for (id, w) in f32::weights(&p).iter().enumerate() {
            let want: Vec<f32> = p.get(id).as_slice().iter().map(|&v| v as f32).collect();
            assert_eq!(w.as_slice(), &want[..], "param {id}");
        }
    }

    #[test]
    fn f32_copy_is_rebuilt_after_get_mut_and_add() {
        let (mut p, model) = model(4);
        let before = f32_bits(&p, &model);
        p.get_mut(model.decoder.w).map_inplace(|v| v + 0.25);
        assert!(p.f32_weights.copy.get().is_none(), "get_mut drops the copy");
        let after = f32_bits(&p, &model);
        assert_ne!(after, before, "the mutation reaches the next f32 forward");
        assert_eq!(builds(&p), 2);
        let mut fresh = p.clone();
        assert_eq!(
            f32_bits(&fresh, &model),
            after,
            "a cold clone rebuilds the same copy"
        );
        let id = fresh.zeros("extra", 1, 2);
        assert!(fresh.f32_weights.copy.get().is_none(), "add drops the copy");
        assert_eq!(f32::weights(&fresh).len(), id + 1);
        assert_eq!(f32::weights(&fresh)[id].shape(), (1, 2));
        assert_eq!(builds(&fresh), 2);
    }

    #[test]
    fn json_round_trip_carries_no_copy_and_scores_bit_equal_at_f32() {
        let (p, model) = model(5);
        let want = f32_bits(&p, &model);
        let json = serde_json::to_string(&p).expect("store serializes");
        assert!(
            json.contains(r#""f32_weights":null"#),
            "the copy is not written"
        );
        let back: ParamStore = serde_json::from_str(&json).expect("store deserializes");
        assert!(
            back.f32_weights.copy.get().is_none(),
            "a loaded store starts cold"
        );
        assert_eq!(f32_bits(&back, &model), want);
        assert_eq!(builds(&back), 1);
    }

    #[test]
    fn cold_store_scored_from_several_pool_threads_bakes_once() {
        let (p, model) = model(6);
        let data = Matrix::from_fn(40, 3, |r, c| ((r + 5 * c) as f64 * 0.21).cos());
        rayon::set_thread_count_override(Some(4));
        let tasks: Vec<(usize, Vec<u64>)> = (0..16usize)
            .into_par_iter()
            .map(|i| {
                let mut sess = Session::<f32>::take_spare();
                let (start, end) = (i * 2, i * 2 + 8);
                let errs = sess
                    .score_window(&p, &model, &data, start, end, |r| r as f64, &[1.0; 3])
                    .iter()
                    .map(|e| e.to_bits())
                    .collect();
                sess.park();
                (f32::weights(&p).as_ptr() as usize, errs)
            })
            .collect();
        rayon::set_thread_count_override(None);
        assert_eq!(builds(&p), 1, "the copy was built once");
        assert!(tasks.iter().all(|(at, _)| *at == tasks[0].0));
        for (i, (_, errs)) in tasks.iter().enumerate() {
            let mut sess = Session::<f32>::new();
            let (start, end) = (i * 2, i * 2 + 8);
            let want: Vec<u64> = sess
                .score_window(&p, &model, &data, start, end, |r| r as f64, &[1.0; 3])
                .iter()
                .map(|e| e.to_bits())
                .collect();
            assert_eq!(*errs, want, "task {i}");
        }
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
