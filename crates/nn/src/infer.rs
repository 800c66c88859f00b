//! Tape-free inference fast path.
//!
//! Training needs the autodiff tape; serving does not. An
//! [`InferenceSession`] executes the [`ReconstructionTransformer`] forward
//! pass with **no tape**: every intermediate lives in a preallocated
//! scratch [`Matrix`] that is reshaped in place per call, so steady-state
//! scoring performs **zero heap allocations** per window (proved by the
//! counting-allocator test in `tests/infer_zero_alloc.rs`).
//!
//! There is one forward body per session type, and it is the batched
//! one: `B` windows stacked row-major, every linear layer one matmul over
//! all rows, attention and the MoE scatter per window
//! ([`InferenceSession::forward_batch`]). A single window is the `B = 1`
//! case of the same code, not a second path.
//!
//! Linear layers multiply the [`ParamStore`] weights *in their stored
//! orientation* through the blocked-axpy [`Matrix::matmul_into`] kernel —
//! the same kernel the tape uses, so bit-identity is by construction, and
//! the axpy form vectorises across output columns. A prepacked-transpose
//! design (row-dot over `Wᵀ`, [`Matrix::matmul_pre_t_into`]) was built and
//! benchmarked first, but under the no-reassociation constraint each dot
//! is a serial FP-add dependency chain and measured ~30% slower than the
//! axpy kernel even with 4-way interleaving; the dot kernel is kept only
//! where its operand is *naturally* pre-transposed — attention scores
//! `qₕ·kₕᵀ` — where it replaces the tape's per-head `transpose(kₕ)`
//! materialisation. Reading weights live also means a session can never
//! be stale: `incremental_update` fine-tuning is visible on the very next
//! forward, with no cache-invalidation protocol
//! (cf. [`ParamStore::version`]).
//!
//! # Bit-exactness
//!
//! The fast path is bit-identical to the taped forward (verified by
//! `tests/infer_equivalence.rs` over random shapes, seeds and block
//! kinds). The argument:
//!
//! * Linears run the tape's own matmul-then-bias-broadcast kernels on the
//!   same operands.
//! * Attention scores `qₕ·kₕᵀ` use the row-dot kernel with `kₕ` as the
//!   pre-transposed operand; it sums each output element over `k` in the
//!   same ascending order as the axpy kernel, so it is bit-identical to
//!   `matmul(qₕ, transpose(kₕ))` without materialising the transpose.
//! * Elementwise ops (softmax, layer norm, ReLU, residual adds, scaling,
//!   bias broadcast) reuse the tape's exact expressions and loop orders.
//! * MoE routing replicates `top_k_indices` tie-breaking exactly
//!   (descending value, ties to the lower index), runs experts on the
//!   same gathered token subsets in the same ascending-expert order, and
//!   accumulates through the same full-size scatter-then-add sequence.

use crate::layers::Linear;
use crate::params::ParamStore;
use crate::transformer::{EncoderLayer, ReconstructionTransformer};
use ns_linalg::matrix::Matrix;
use ns_linalg::matrix_f32::MatrixF32;
use std::cmp::Ordering;
use std::sync::Mutex;

/// One window of a batched scoring call
/// ([`InferenceSession::score_windows_batch`]): rows `[start, end)` of
/// `data`, positions from `pos_of` (a per-window closure, because the
/// position scale depends on the owning series' length and pre-dividing
/// it would not be bit-identical), and per-metric error weights. Every
/// field is a shared borrow and `pos_of` is `Sync`, so a slice of specs
/// can be split across pool threads, each part scored by its own session.
pub struct WindowSpec<'a> {
    pub data: &'a Matrix,
    pub start: usize,
    pub end: usize,
    pub pos_of: &'a (dyn Fn(usize) -> f64 + Sync + 'a),
    pub weights: &'a [f64],
}

/// Reusable tape-free forward-pass executor for one
/// [`ReconstructionTransformer`].
///
/// A session is cheap to create but expensive to warm (first call per
/// shape allocates its scratch); keep one per worker thread — e.g. via a
/// [`SessionPool`] — and reuse it across windows.
#[derive(Default)]
pub struct InferenceSession {
    // Scratch buffers, reshaped in place per call.
    x: Matrix,
    pe: Matrix,
    h: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    qh: Matrix,
    kh: Matrix,
    vh: Matrix,
    scores: Matrix,
    head: Matrix,
    cat: Matrix,
    attn: Matrix,
    res1: Matrix,
    n1: Matrix,
    gate: Matrix,
    xe: Matrix,
    hid: Matrix,
    ye: Matrix,
    full: Matrix,
    block: Matrix,
    res2: Matrix,
    out: Matrix,
    err: Vec<f64>,
    assign: Vec<Vec<usize>>,
    order: Vec<usize>,
    /// Row offsets of each window inside the stacked batch scratch
    /// (`boffsets[b]..boffsets[b+1]` are window `b`'s rows).
    boffsets: Vec<usize>,
    /// Per-window MoE accumulator-initialised flags for the batched block.
    binit: Vec<bool>,
    /// Per-dimension divisors of the sinusoidal encoding — they depend
    /// only on `(i, d_model)`, so the `powf` runs once per session, not
    /// once per element.
    pe_div: Vec<f64>,
}

impl InferenceSession {
    pub fn new() -> Self {
        Self::default()
    }

    /// Tape-free forward of a `T × input_dim` window with a precomputed
    /// positional-encoding table — the `B = 1` case of
    /// [`InferenceSession::forward_batch`]. Returns the reconstruction,
    /// borrowed from the session's scratch (valid until the next call).
    pub fn forward(
        &mut self,
        params: &ParamStore,
        model: &ReconstructionTransformer,
        x: &Matrix,
        pe: &Matrix,
    ) -> &Matrix {
        self.forward_batch(params, model, &[(x, pe)]).0
    }

    /// Score one window of a longer series — the `B = 1` case of
    /// [`InferenceSession::score_windows_batch`]: fills the input scratch
    /// from `data[start..end)`, builds the positional encoding from
    /// `pos_of` (bit-identical to `sinusoidal_pe_at`), runs the forward,
    /// and returns per-row weighted reconstruction errors — the exact
    /// arithmetic of the taped `SharedModel::score_series_taped`. The
    /// slice is borrowed from the session's scratch.
    #[allow(clippy::too_many_arguments)]
    pub fn score_window(
        &mut self,
        params: &ParamStore,
        model: &ReconstructionTransformer,
        data: &Matrix,
        start: usize,
        end: usize,
        pos_of: impl Fn(usize) -> f64 + Sync,
        weights: &[f64],
    ) -> &[f64] {
        let spec = WindowSpec {
            data,
            start,
            end,
            pos_of: &pos_of,
            weights,
        };
        self.score_windows_batch(params, model, &[spec])
    }

    /// Batched forward of `B` windows stacked row-major into one scratch
    /// batch: every linear layer runs as **one** `matmul_into` over all
    /// `Σ T_b` rows, while attention and the MoE scatter replicate the
    /// single-window tape per window over its row range. Returns the
    /// stacked reconstruction plus the `B + 1` row offsets delimiting each
    /// window (both borrowed from the session's scratch).
    ///
    /// Output rows are `to_bits`-identical to `B` independent
    /// [`InferenceSession::forward`] calls: the blocked-axpy kernel
    /// accumulates each output row independently over ascending `k`, so
    /// vstacking rows changes nothing per row; the remaining ops are
    /// row-wise or explicitly per-window (see DESIGN §10).
    ///
    /// All windows must share the model's input width; `T_b` may differ
    /// per window. An empty slice yields an empty reconstruction.
    pub fn forward_batch(
        &mut self,
        params: &ParamStore,
        model: &ReconstructionTransformer,
        windows: &[(&Matrix, &Matrix)],
    ) -> (&Matrix, &[usize]) {
        let m = windows.first().map(|(x, _)| x.cols()).unwrap_or(0);
        let d_model = model.cfg.d_model;
        self.boffsets.clear();
        self.boffsets.push(0);
        let mut total = 0usize;
        for (x, pe) in windows {
            assert_eq!(x.cols(), m, "all windows must share input width");
            assert_eq!(pe.rows(), x.rows(), "pe must have one row per input row");
            assert_eq!(pe.cols(), d_model, "pe width must equal d_model");
            total += x.rows();
            self.boffsets.push(total);
        }
        if windows.is_empty() {
            self.out.resize(0, 0);
            return (&self.out, &self.boffsets);
        }
        self.x.resize(total, m);
        self.pe.resize(total, d_model);
        for (b, (x, pe)) in windows.iter().enumerate() {
            let r0 = self.boffsets[b];
            for r in 0..x.rows() {
                self.x.row_mut(r0 + r).copy_from_slice(x.row(r));
                self.pe.row_mut(r0 + r).copy_from_slice(pe.row(r));
            }
        }
        self.forward_scratch(params, model);
        (&self.out, &self.boffsets)
    }

    /// Score many windows through **one** batched forward: stacks every
    /// window of `specs`, runs [`forward_batch`]'s pipeline once, and
    /// returns the concatenated per-row weighted reconstruction errors
    /// (window `b`'s errors are the `specs[b].end - specs[b].start` slots
    /// after those of windows `0..b`). Each window's error slice is
    /// bit-identical to scoring that window alone — windows are
    /// arithmetically independent, so the grouping is unobservable in the
    /// output.
    ///
    /// The session's scratch grows to the stack and never shrinks, and a
    /// stack far past the L2 capacity loses to several smaller ones, so
    /// the caller bounds what it passes: `SharedModel::score_specs` owns
    /// the row cap and splits a burst into capped tasks, one call each.
    ///
    /// [`forward_batch`]: InferenceSession::forward_batch
    pub fn score_windows_batch(
        &mut self,
        params: &ParamStore,
        model: &ReconstructionTransformer,
        specs: &[WindowSpec<'_>],
    ) -> &[f64] {
        self.err.clear();
        self.boffsets.clear();
        self.boffsets.push(0);
        if specs.is_empty() {
            return &self.err;
        }
        let d_model = model.cfg.d_model;
        if self.pe_div.len() != d_model {
            self.pe_div.clear();
            self.pe_div.extend(
                (0..d_model).map(|i| (10000.0_f64).powf((2 * (i / 2)) as f64 / d_model as f64)),
            );
        }
        let m = specs[0].data.cols();
        let mut total = 0usize;
        for s in specs {
            assert_eq!(s.data.cols(), m, "all windows must share input width");
            total += s.end - s.start;
            self.boffsets.push(total);
        }
        self.x.resize(total, m);
        self.pe.resize(total, d_model);
        for (b, s) in specs.iter().enumerate() {
            let r0 = self.boffsets[b];
            for r in 0..s.end - s.start {
                self.x
                    .row_mut(r0 + r)
                    .copy_from_slice(s.data.row(s.start + r));
                let p = (s.pos_of)(s.start + r);
                // Same expression as `sinusoidal_pe_value` with the divisor
                // hoisted — bit-identical to `sinusoidal_pe_at`.
                for (i, (slot, &div)) in self
                    .pe
                    .row_mut(r0 + r)
                    .iter_mut()
                    .zip(&self.pe_div)
                    .enumerate()
                {
                    *slot = if i % 2 == 0 {
                        (p / div).sin()
                    } else {
                        (p / div).cos()
                    };
                }
            }
        }
        self.forward_scratch(params, model);
        for (b, s) in specs.iter().enumerate() {
            let r0 = self.boffsets[b];
            for r in 0..s.end - s.start {
                let e = self
                    .x
                    .row(r0 + r)
                    .iter()
                    .zip(self.out.row(r0 + r))
                    .zip(s.weights)
                    .map(|((a, o), w)| w * (a - o) * (a - o))
                    .sum::<f64>()
                    / m.max(1) as f64;
                self.err.push(e);
            }
        }
        &self.err
    }

    /// The forward pass proper, reading the stacked `self.x` / `self.pe`
    /// and `self.boffsets`, leaving the stacked reconstruction in
    /// `self.out`. Every linear layer is one kernel call over all rows;
    /// only the cross-row ops (attention, MoE accumulation) iterate
    /// windows.
    fn forward_scratch(&mut self, params: &ParamStore, model: &ReconstructionTransformer) {
        linear_into(&self.x, params, &model.embed, &mut self.h);
        self.h.add_assign(&self.pe);
        for layer in &model.layers {
            self.encoder_layer(params, layer);
        }
        linear_into(&self.h, params, &model.decoder, &mut self.out);
    }

    /// One encoder layer over the stacked `self.h` carrier (post-norm
    /// residual blocks, exactly as `EncoderLayer::forward` per window):
    /// the q/k/v/wo/FFN linears and the norm/residual ops are row-wise
    /// (batched whole), and attention runs per `(window, head)` over that
    /// window's row range so no window ever attends across another.
    fn encoder_layer(&mut self, params: &ParamStore, layer: &EncoderLayer) {
        let total = self.h.rows();
        let mha = &layer.attn;
        let d_model = mha.d_model;
        let dh = d_model / mha.n_heads;
        let scale = 1.0 / (dh as f64).sqrt();
        linear_into(&self.h, params, &mha.wq, &mut self.q);
        linear_into(&self.h, params, &mha.wk, &mut self.k);
        linear_into(&self.h, params, &mha.wv, &mut self.v);
        self.cat.resize(total, d_model);
        for b in 0..self.boffsets.len() - 1 {
            let (r0, r1) = (self.boffsets[b], self.boffsets[b + 1]);
            for hd in 0..mha.n_heads {
                let lo = hd * dh;
                let hi = lo + dh;
                slice_block_into(&self.q, r0, r1, lo, hi, &mut self.qh);
                slice_block_into(&self.k, r0, r1, lo, hi, &mut self.kh);
                slice_block_into(&self.v, r0, r1, lo, hi, &mut self.vh);
                self.qh.matmul_pre_t_into(&self.kh, &mut self.scores);
                self.scores.map_inplace(|x| x * scale);
                softmax_rows_inplace(&mut self.scores);
                self.scores.matmul_into(&self.vh, &mut self.head);
                for r in r0..r1 {
                    self.cat.row_mut(r)[lo..hi].copy_from_slice(self.head.row(r - r0));
                }
            }
        }
        linear_into(&self.cat, params, &mha.wo, &mut self.attn);
        add_into(&self.h, &self.attn, &mut self.res1);
        layer_norm_into(
            &self.res1,
            params.get(layer.norm1.gamma),
            params.get(layer.norm1.beta),
            &mut self.n1,
        );
        match (&layer.moe, &layer.ffn) {
            (Some(moe), _) => self.moe_block(params, moe),
            (None, Some(ffn)) => {
                linear_into(&self.n1, params, &ffn.lin1, &mut self.hid);
                self.hid.map_inplace(|x| x.max(0.0));
                linear_into(&self.hid, params, &ffn.lin2, &mut self.block);
            }
            _ => unreachable!("layer has either moe or ffn"),
        }
        add_into(&self.n1, &self.block, &mut self.res2);
        layer_norm_into(
            &self.res2,
            params.get(layer.norm2.gamma),
            params.get(layer.norm2.beta),
            &mut self.h,
        );
    }

    /// Sparse-MoE block over the stacked `self.n1` into `self.block`,
    /// replicating `MoeLayer::forward` per window (inference skips only
    /// the aux loss, which the scoring path never reads).
    ///
    /// Gating and routing are per token (batched whole, with
    /// `top_k_indices`' exact tie-breaking); each expert runs **once**
    /// over its tokens gathered across every window (row-wise, so
    /// per-token results match a per-window run); but the
    /// scatter-then-accumulate into `self.block` replicates the tape **per
    /// window**: within each window's row range, the first expert holding
    /// any of its tokens *copies* its zero-padded scatter and later
    /// experts *add* theirs (including the adds over untouched zero rows),
    /// in ascending expert order. The distinction matters for signed
    /// zeros: `-0.0` copied stays `-0.0`, while `0.0 + -0.0` is `+0.0` —
    /// and which experts are nonempty differs per window, so a whole-batch
    /// copy-then-add would not be bit-safe.
    fn moe_block(&mut self, params: &ParamStore, moe: &crate::moe::MoeLayer) {
        let total = self.n1.rows();
        let d = self.n1.cols();
        let n_exp = moe.experts.len();
        let nb = self.boffsets.len() - 1;
        self.n1.matmul_into(params.get(moe.gate), &mut self.gate);
        softmax_rows_inplace(&mut self.gate);
        if self.assign.len() < n_exp {
            self.assign.resize_with(n_exp, Vec::new);
        }
        for a in &mut self.assign[..n_exp] {
            a.clear();
        }
        for tok in 0..total {
            let row = self.gate.row(tok);
            top_k_into(row, moe.top_k, &mut self.order);
            for &e in &self.order {
                self.assign[e].push(tok);
            }
        }
        self.block.resize(total, d);
        self.binit.clear();
        self.binit.resize(nb, false);
        for (e, expert) in moe.experts.iter().enumerate() {
            if self.assign[e].is_empty() {
                continue;
            }
            // xe = gather(n1, idx) across all windows, ascending rows.
            let idx = &self.assign[e];
            self.xe.resize(idx.len(), d);
            for (r, &tok) in idx.iter().enumerate() {
                self.xe.row_mut(r).copy_from_slice(self.n1.row(tok));
            }
            linear_into(&self.xe, params, &expert.lin1, &mut self.hid);
            self.hid.map_inplace(|x| x.max(0.0));
            linear_into(&self.hid, params, &expert.lin2, &mut self.ye);
            let idx = &self.assign[e];
            for (r, &tok) in idx.iter().enumerate() {
                let w = self.gate[(tok, e)];
                for x in self.ye.row_mut(r).iter_mut() {
                    *x *= w;
                }
            }
            // Walk the ascending token list grouped by window and apply
            // the tape's scatter / copy-or-add within each row range.
            let mut w = 0usize;
            let mut r = 0usize;
            while r < idx.len() {
                while self.boffsets[w + 1] <= idx[r] {
                    w += 1;
                }
                let (r0, r1) = (self.boffsets[w], self.boffsets[w + 1]);
                self.full.resize(r1 - r0, d);
                let mut rr = r;
                while rr < idx.len() && idx[rr] < r1 {
                    self.full
                        .row_mut(idx[rr] - r0)
                        .copy_from_slice(self.ye.row(rr));
                    rr += 1;
                }
                if self.binit[w] {
                    for i in 0..r1 - r0 {
                        for (o, &v) in self.block.row_mut(r0 + i).iter_mut().zip(self.full.row(i)) {
                            *o += v;
                        }
                    }
                } else {
                    for i in 0..r1 - r0 {
                        self.block.row_mut(r0 + i).copy_from_slice(self.full.row(i));
                    }
                    self.binit[w] = true;
                }
                r = rr;
            }
        }
        for (w, done) in self.binit.iter().enumerate() {
            if *done {
                continue;
            }
            // No expert holds any token of this window: tape falls back
            // to x · 0.0 over its rows.
            for i in self.boffsets[w]..self.boffsets[w + 1] {
                for (o, &v) in self.block.row_mut(i).iter_mut().zip(self.n1.row(i)) {
                    *o = v * 0.0;
                }
            }
        }
    }
}

/// `out = x · W + b`, reading the weight and bias live from the store.
/// Matches the taped `Linear::forward` (matmul, then bias broadcast)
/// bit-for-bit — it *is* the same matmul kernel on the same operands.
fn linear_into(x: &Matrix, params: &ParamStore, lin: &Linear, out: &mut Matrix) {
    x.matmul_into(params.get(lin.w), out);
    out.add_row_broadcast_inplace(params.get(lin.b));
}

/// Copy the `[r0, r1) × [lo, hi)` block of `src` into `out` (reshaped in
/// place): one head's columns restricted to one window's row range.
fn slice_block_into(src: &Matrix, r0: usize, r1: usize, lo: usize, hi: usize, out: &mut Matrix) {
    out.resize(r1 - r0, hi - lo);
    for r in r0..r1 {
        out.row_mut(r - r0).copy_from_slice(&src.row(r)[lo..hi]);
    }
}

/// `out = a + b` elementwise (reshaped in place).
fn add_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    debug_assert_eq!(a.shape(), b.shape());
    out.resize(a.rows(), a.cols());
    for ((o, &x), &y) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = x + y;
    }
}

/// Numerically-stable row softmax in place — the tape's exact loops.
fn softmax_rows_inplace(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut s = 0.0;
        for x in row.iter_mut() {
            *x = (*x - mx).exp();
            s += *x;
        }
        for x in row.iter_mut() {
            *x /= s;
        }
    }
}

/// Row-wise LayerNorm into `out` — the tape's exact arithmetic
/// (`eps = 1e-5`, biased variance).
fn layer_norm_into(src: &Matrix, gamma: &Matrix, beta: &Matrix, out: &mut Matrix) {
    let eps = 1e-5;
    out.resize(src.rows(), src.cols());
    for r in 0..src.rows() {
        let row = src.row(r);
        let d = row.len() as f64;
        let mean = row.iter().sum::<f64>() / d;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / d;
        let inv = 1.0 / (var + eps).sqrt();
        for (i, (o, v)) in out.row_mut(r).iter_mut().zip(row).enumerate() {
            *o = gamma.as_slice()[i] * (*v - mean) * inv + beta.as_slice()[i];
        }
    }
}

/// Allocation-free replica of `ns_linalg::vecops::top_k_indices`: fill
/// `order` with the indices of `x` sorted descending by value, ties to
/// the lower index, truncated to `k`. The comparator is total (NaN
/// compares Equal, then falls to the index), so this insertion sort
/// produces the same permutation as the library's stable sort.
fn top_k_into(x: &[f64], k: usize, order: &mut Vec<usize>) {
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

/// f32 twin of [`InferenceSession`] — the opt-in precision-tiered
/// scoring path.
///
/// The structure mirrors the f64 session exactly (same scratch set, same
/// loop orders, same MoE copy-vs-add discipline), with two deliberate
/// differences:
///
/// * **Weights are prebaked.** The f64 session reads [`ParamStore`]
///   weights live; down-converting per forward would dominate the win,
///   so this session converts every store matrix to [`MatrixF32`] once
///   and caches the copies keyed by [`ParamStore::version`] — any
///   mutation (`incremental_update`, refit hot-swap) invalidates the
///   bake and the next forward re-converts.
/// * **Arithmetic runs in f32.** Inputs and positional encodings are
///   down-converted at scratch-fill time (the PE trigonometry itself
///   runs in f64 and rounds once — it is computed per window anyway and
///   accuracy is free). Per-row reconstruction errors are accumulated in
///   f32 and widened to f64 on return so calibration and verdict logic
///   upstream stay in one domain.
///
/// The f32 pipeline is internally deterministic (strict ascending-order
/// reductions through the f32 kernels, thread-count independent), but no
/// bit relationship to the f64 tier is promised — the accuracy delta is
/// measured by `exp_deployment`, and `tests/precision_equivalence.rs`
/// pins a per-layer relative tolerance against the f64 forward.
#[derive(Default)]
pub struct InferenceSessionF32 {
    /// Prebaked f32 copies of every store matrix, indexed by `ParamId`.
    weights: Vec<MatrixF32>,
    /// Store version the bake was taken at; `None` before first use.
    baked_version: Option<u64>,
    x: MatrixF32,
    pe: MatrixF32,
    h: MatrixF32,
    q: MatrixF32,
    k: MatrixF32,
    v: MatrixF32,
    qh: MatrixF32,
    kh: MatrixF32,
    vh: MatrixF32,
    scores: MatrixF32,
    head: MatrixF32,
    cat: MatrixF32,
    attn: MatrixF32,
    res1: MatrixF32,
    n1: MatrixF32,
    gate: MatrixF32,
    xe: MatrixF32,
    hid: MatrixF32,
    ye: MatrixF32,
    full: MatrixF32,
    block: MatrixF32,
    res2: MatrixF32,
    out: MatrixF32,
    err: Vec<f64>,
    assign: Vec<Vec<usize>>,
    order: Vec<usize>,
    boffsets: Vec<usize>,
    binit: Vec<bool>,
    pe_div: Vec<f64>,
}

impl InferenceSessionF32 {
    pub fn new() -> Self {
        Self::default()
    }

    /// Refresh the prebaked f32 weight copies if the store has mutated
    /// (or was never baked). Reuses allocations on re-bake.
    fn bake(&mut self, params: &ParamStore) {
        if self.baked_version == Some(params.version()) && self.weights.len() == params.len() {
            return;
        }
        for id in 0..params.len() {
            if id < self.weights.len() {
                self.weights[id].copy_from_matrix(params.get(id));
            } else {
                self.weights.push(MatrixF32::from_matrix(params.get(id)));
            }
        }
        self.weights.truncate(params.len());
        self.baked_version = Some(params.version());
    }

    /// f32 forward of a `T × input_dim` window with a precomputed
    /// positional-encoding table (both down-converted at fill) — the
    /// `B = 1` case of [`InferenceSessionF32::forward_batch`]. Returns the
    /// reconstruction, borrowed from the session's scratch.
    pub fn forward(
        &mut self,
        params: &ParamStore,
        model: &ReconstructionTransformer,
        x: &Matrix,
        pe: &Matrix,
    ) -> &MatrixF32 {
        self.forward_batch(params, model, &[(x, pe)]).0
    }

    /// f32 twin of [`InferenceSession::forward_batch`]: stacked batched
    /// forward, one f32 matmul per linear layer across all windows.
    pub fn forward_batch(
        &mut self,
        params: &ParamStore,
        model: &ReconstructionTransformer,
        windows: &[(&Matrix, &Matrix)],
    ) -> (&MatrixF32, &[usize]) {
        self.bake(params);
        let m = windows.first().map(|(x, _)| x.cols()).unwrap_or(0);
        let d_model = model.cfg.d_model;
        self.boffsets.clear();
        self.boffsets.push(0);
        let mut total = 0usize;
        for (x, pe) in windows {
            assert_eq!(x.cols(), m, "all windows must share input width");
            assert_eq!(pe.rows(), x.rows(), "pe must have one row per input row");
            assert_eq!(pe.cols(), d_model, "pe width must equal d_model");
            total += x.rows();
            self.boffsets.push(total);
        }
        if windows.is_empty() {
            self.out.resize(0, 0);
            return (&self.out, &self.boffsets);
        }
        self.x.resize(total, m);
        self.pe.resize(total, d_model);
        for (b, (x, pe)) in windows.iter().enumerate() {
            let r0 = self.boffsets[b];
            for r in 0..x.rows() {
                for (slot, &v) in self.x.row_mut(r0 + r).iter_mut().zip(x.row(r)) {
                    *slot = v as f32;
                }
                for (slot, &v) in self.pe.row_mut(r0 + r).iter_mut().zip(pe.row(r)) {
                    *slot = v as f32;
                }
            }
        }
        self.forward_scratch(model);
        (&self.out, &self.boffsets)
    }

    /// f32 twin of [`InferenceSession::score_windows_batch`]: one stacked
    /// forward over all of `specs`, errors in f32 widened to f64.
    pub fn score_windows_batch(
        &mut self,
        params: &ParamStore,
        model: &ReconstructionTransformer,
        specs: &[WindowSpec<'_>],
    ) -> &[f64] {
        self.bake(params);
        self.err.clear();
        self.boffsets.clear();
        self.boffsets.push(0);
        if specs.is_empty() {
            return &self.err;
        }
        let d_model = model.cfg.d_model;
        if self.pe_div.len() != d_model {
            self.pe_div.clear();
            self.pe_div.extend(
                (0..d_model).map(|i| (10000.0_f64).powf((2 * (i / 2)) as f64 / d_model as f64)),
            );
        }
        let m = specs[0].data.cols();
        let mut total = 0usize;
        for s in specs {
            assert_eq!(s.data.cols(), m, "all windows must share input width");
            total += s.end - s.start;
            self.boffsets.push(total);
        }
        self.x.resize(total, m);
        self.pe.resize(total, d_model);
        for (b, s) in specs.iter().enumerate() {
            let r0 = self.boffsets[b];
            for r in 0..s.end - s.start {
                for (slot, &v) in self
                    .x
                    .row_mut(r0 + r)
                    .iter_mut()
                    .zip(s.data.row(s.start + r))
                {
                    *slot = v as f32;
                }
                let p = (s.pos_of)(s.start + r);
                for (i, (slot, &div)) in self
                    .pe
                    .row_mut(r0 + r)
                    .iter_mut()
                    .zip(&self.pe_div)
                    .enumerate()
                {
                    *slot = if i % 2 == 0 {
                        (p / div).sin() as f32
                    } else {
                        (p / div).cos() as f32
                    };
                }
            }
        }
        self.forward_scratch(model);
        for (b, s) in specs.iter().enumerate() {
            let r0 = self.boffsets[b];
            for r in 0..s.end - s.start {
                let e = self
                    .x
                    .row(r0 + r)
                    .iter()
                    .zip(self.out.row(r0 + r))
                    .zip(s.weights)
                    .map(|((a, o), w)| (*w as f32) * (a - o) * (a - o))
                    .sum::<f32>()
                    / m.max(1) as f32;
                self.err.push(e as f64);
            }
        }
        &self.err
    }

    /// The f32 forward pass proper over the stacked `self.x` / `self.pe`
    /// and the prebaked `self.weights`, leaving the stacked reconstruction
    /// in `self.out`.
    fn forward_scratch(&mut self, model: &ReconstructionTransformer) {
        linear_into_f32(&self.x, &self.weights, &model.embed, &mut self.h);
        self.h.add_assign(&self.pe);
        for layer in &model.layers {
            self.encoder_layer(layer);
        }
        linear_into_f32(&self.h, &self.weights, &model.decoder, &mut self.out);
    }

    /// One encoder layer over the stacked carrier — batched linears,
    /// per-(window, head) attention, as in the f64 session.
    fn encoder_layer(&mut self, layer: &EncoderLayer) {
        let total = self.h.rows();
        let mha = &layer.attn;
        let d_model = mha.d_model;
        let dh = d_model / mha.n_heads;
        let scale = (1.0 / (dh as f64).sqrt()) as f32;
        linear_into_f32(&self.h, &self.weights, &mha.wq, &mut self.q);
        linear_into_f32(&self.h, &self.weights, &mha.wk, &mut self.k);
        linear_into_f32(&self.h, &self.weights, &mha.wv, &mut self.v);
        self.cat.resize(total, d_model);
        for b in 0..self.boffsets.len() - 1 {
            let (r0, r1) = (self.boffsets[b], self.boffsets[b + 1]);
            for hd in 0..mha.n_heads {
                let lo = hd * dh;
                let hi = lo + dh;
                slice_block_into_f32(&self.q, r0, r1, lo, hi, &mut self.qh);
                slice_block_into_f32(&self.k, r0, r1, lo, hi, &mut self.kh);
                slice_block_into_f32(&self.v, r0, r1, lo, hi, &mut self.vh);
                self.qh.matmul_pre_t_into(&self.kh, &mut self.scores);
                self.scores.map_inplace(|x| x * scale);
                softmax_rows_inplace_f32(&mut self.scores);
                self.scores.matmul_into(&self.vh, &mut self.head);
                for r in r0..r1 {
                    self.cat.row_mut(r)[lo..hi].copy_from_slice(self.head.row(r - r0));
                }
            }
        }
        linear_into_f32(&self.cat, &self.weights, &mha.wo, &mut self.attn);
        add_into_f32(&self.h, &self.attn, &mut self.res1);
        layer_norm_into_f32(
            &self.res1,
            &self.weights[layer.norm1.gamma],
            &self.weights[layer.norm1.beta],
            &mut self.n1,
        );
        match (&layer.moe, &layer.ffn) {
            (Some(moe), _) => self.moe_block(moe),
            (None, Some(ffn)) => {
                linear_into_f32(&self.n1, &self.weights, &ffn.lin1, &mut self.hid);
                self.hid.map_inplace(|x| x.max(0.0));
                linear_into_f32(&self.hid, &self.weights, &ffn.lin2, &mut self.block);
            }
            _ => unreachable!("layer has either moe or ffn"),
        }
        add_into_f32(&self.n1, &self.block, &mut self.res2);
        layer_norm_into_f32(
            &self.res2,
            &self.weights[layer.norm2.gamma],
            &self.weights[layer.norm2.beta],
            &mut self.h,
        );
    }

    /// Sparse-MoE block over the stacked `self.n1` — same routing
    /// tie-breaking and per-window copy-or-add scatter as the f64
    /// session's signed-zero-safe sequence, with gate probabilities
    /// computed in f32.
    fn moe_block(&mut self, moe: &crate::moe::MoeLayer) {
        let total = self.n1.rows();
        let d = self.n1.cols();
        let n_exp = moe.experts.len();
        let nb = self.boffsets.len() - 1;
        self.n1.matmul_into(&self.weights[moe.gate], &mut self.gate);
        softmax_rows_inplace_f32(&mut self.gate);
        if self.assign.len() < n_exp {
            self.assign.resize_with(n_exp, Vec::new);
        }
        for a in &mut self.assign[..n_exp] {
            a.clear();
        }
        for tok in 0..total {
            let row = self.gate.row(tok);
            top_k_into_f32(row, moe.top_k, &mut self.order);
            for &e in &self.order {
                self.assign[e].push(tok);
            }
        }
        self.block.resize(total, d);
        self.binit.clear();
        self.binit.resize(nb, false);
        for (e, expert) in moe.experts.iter().enumerate() {
            if self.assign[e].is_empty() {
                continue;
            }
            let idx = &self.assign[e];
            self.xe.resize(idx.len(), d);
            for (r, &tok) in idx.iter().enumerate() {
                self.xe.row_mut(r).copy_from_slice(self.n1.row(tok));
            }
            linear_into_f32(&self.xe, &self.weights, &expert.lin1, &mut self.hid);
            self.hid.map_inplace(|x| x.max(0.0));
            linear_into_f32(&self.hid, &self.weights, &expert.lin2, &mut self.ye);
            let idx = &self.assign[e];
            for (r, &tok) in idx.iter().enumerate() {
                let w = self.gate[(tok, e)];
                for x in self.ye.row_mut(r).iter_mut() {
                    *x *= w;
                }
            }
            let mut w = 0usize;
            let mut r = 0usize;
            while r < idx.len() {
                while self.boffsets[w + 1] <= idx[r] {
                    w += 1;
                }
                let (r0, r1) = (self.boffsets[w], self.boffsets[w + 1]);
                self.full.resize(r1 - r0, d);
                let mut rr = r;
                while rr < idx.len() && idx[rr] < r1 {
                    self.full
                        .row_mut(idx[rr] - r0)
                        .copy_from_slice(self.ye.row(rr));
                    rr += 1;
                }
                if self.binit[w] {
                    for i in 0..r1 - r0 {
                        for (o, &v) in self.block.row_mut(r0 + i).iter_mut().zip(self.full.row(i)) {
                            *o += v;
                        }
                    }
                } else {
                    for i in 0..r1 - r0 {
                        self.block.row_mut(r0 + i).copy_from_slice(self.full.row(i));
                    }
                    self.binit[w] = true;
                }
                r = rr;
            }
        }
        for (w, done) in self.binit.iter().enumerate() {
            if *done {
                continue;
            }
            for i in self.boffsets[w]..self.boffsets[w + 1] {
                for (o, &v) in self.block.row_mut(i).iter_mut().zip(self.n1.row(i)) {
                    *o = v * 0.0;
                }
            }
        }
    }
}

/// `out = x · W + b` over the prebaked f32 weight copies.
fn linear_into_f32(x: &MatrixF32, weights: &[MatrixF32], lin: &Linear, out: &mut MatrixF32) {
    x.matmul_into(&weights[lin.w], out);
    out.add_row_broadcast_inplace(&weights[lin.b]);
}

/// f32 twin of [`slice_block_into`].
fn slice_block_into_f32(
    src: &MatrixF32,
    r0: usize,
    r1: usize,
    lo: usize,
    hi: usize,
    out: &mut MatrixF32,
) {
    out.resize(r1 - r0, hi - lo);
    for r in r0..r1 {
        out.row_mut(r - r0).copy_from_slice(&src.row(r)[lo..hi]);
    }
}

/// f32 twin of [`add_into`].
fn add_into_f32(a: &MatrixF32, b: &MatrixF32, out: &mut MatrixF32) {
    debug_assert_eq!(a.shape(), b.shape());
    out.resize(a.rows(), a.cols());
    for ((o, &x), &y) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = x + y;
    }
}

/// f32 twin of [`softmax_rows_inplace`].
fn softmax_rows_inplace_f32(m: &mut MatrixF32) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut s = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - mx).exp();
            s += *x;
        }
        for x in row.iter_mut() {
            *x /= s;
        }
    }
}

/// f32 twin of [`layer_norm_into`] (`eps = 1e-5`, biased variance).
fn layer_norm_into_f32(src: &MatrixF32, gamma: &MatrixF32, beta: &MatrixF32, out: &mut MatrixF32) {
    let eps = 1e-5f32;
    out.resize(src.rows(), src.cols());
    for r in 0..src.rows() {
        let row = src.row(r);
        let d = row.len() as f32;
        let mean = row.iter().sum::<f32>() / d;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d;
        let inv = 1.0 / (var + eps).sqrt();
        for (i, (o, v)) in out.row_mut(r).iter_mut().zip(row).enumerate() {
            *o = gamma.as_slice()[i] * (*v - mean) * inv + beta.as_slice()[i];
        }
    }
}

/// f32 twin of [`top_k_into`]: same total comparator (descending value,
/// NaN Equal, ties to the lower index), same insertion sort.
fn top_k_into_f32(x: &[f32], k: usize, order: &mut Vec<usize>) {
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

/// Thread-safe pool of [`InferenceSession`]s for scoring call sites that
/// fan tasks out over rayon workers: a task pops a warm session (or
/// starts a cold one), runs one forward and pushes it back, so the pool
/// settles at one session per thread that ever scored at the same time
/// — the pool's width plus its callers — each with scratch for the
/// largest stack it has seen (the caller bounds that; see
/// [`InferenceSession::score_windows_batch`]).
#[derive(Default)]
pub struct SessionPool {
    pool: Mutex<Vec<InferenceSession>>,
}

/// Upper bound on pooled sessions — more than any sane rayon pool width;
/// beyond it released sessions are simply dropped.
const POOL_CAP: usize = 64;

impl SessionPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pop a warm session, or create a cold one if the pool is empty.
    pub fn acquire(&self) -> InferenceSession {
        self.pool
            .lock()
            .map(|mut p| p.pop())
            .unwrap_or(None)
            .unwrap_or_default()
    }

    /// Return a session for reuse.
    pub fn release(&self, session: InferenceSession) {
        if let Ok(mut p) = self.pool.lock() {
            if p.len() < POOL_CAP {
                p.push(session);
            }
        }
    }

    /// Sessions currently parked in the pool.
    pub fn warm(&self) -> usize {
        self.pool.lock().map(|p| p.len()).unwrap_or(0)
    }
}

/// Serialized as `Null`: warm sessions are pure caches, rebuilt on demand.
impl serde::Serialize for SessionPool {
    fn emit<S: serde::Sink>(&self, sink: &mut S) {
        sink.null()
    }
}

/// Deserializes from anything (including a missing field) to an empty
/// pool — sessions re-warm their scratch lazily on first use.
impl serde::Deserialize for SessionPool {
    fn read<'de, S: serde::Source<'de>>(src: &mut S) -> Result<Self, serde::Error> {
        src.skip()?;
        Ok(Self::default())
    }
}

/// Cloning a model must not share (or copy) live scratch: a clone starts
/// with a cold, empty pool.
impl Clone for SessionPool {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SessionPool({} warm)", self.warm())
    }
}

/// Thread-safe pool of [`InferenceSessionF32`]s — the f32 tier's twin of
/// [`SessionPool`]. Pooled sessions keep their prebaked weight copies
/// warm across windows; the version check in
/// [`InferenceSessionF32::forward`] makes a stale bake self-heal, so
/// pooling never serves stale weights.
#[derive(Default)]
pub struct SessionPoolF32 {
    pool: Mutex<Vec<InferenceSessionF32>>,
}

impl SessionPoolF32 {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pop a warm session, or create a cold one if the pool is empty.
    pub fn acquire(&self) -> InferenceSessionF32 {
        self.pool
            .lock()
            .map(|mut p| p.pop())
            .unwrap_or(None)
            .unwrap_or_default()
    }

    /// Return a session for reuse.
    pub fn release(&self, session: InferenceSessionF32) {
        if let Ok(mut p) = self.pool.lock() {
            if p.len() < POOL_CAP {
                p.push(session);
            }
        }
    }

    /// Sessions currently parked in the pool.
    pub fn warm(&self) -> usize {
        self.pool.lock().map(|p| p.len()).unwrap_or(0)
    }
}

/// Serialized as `Null`: warm sessions are pure caches, rebuilt on demand.
impl serde::Serialize for SessionPoolF32 {
    fn emit<S: serde::Sink>(&self, sink: &mut S) {
        sink.null()
    }
}

/// Deserializes from anything (including a missing field) to an empty
/// pool — sessions re-bake their weights lazily on first use.
impl serde::Deserialize for SessionPoolF32 {
    fn read<'de, S: serde::Source<'de>>(src: &mut S) -> Result<Self, serde::Error> {
        src.skip()?;
        Ok(Self::default())
    }
}

/// Cloning a model must not share (or copy) live scratch: a clone starts
/// with a cold, empty pool.
impl Clone for SessionPoolF32 {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for SessionPoolF32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SessionPoolF32({} warm)", self.warm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::sinusoidal_pe;
    use crate::tape::Graph;
    use crate::transformer::{BlockKind, TransformerConfig};
    use ns_linalg::vecops::top_k_indices;

    fn cfg(block: BlockKind) -> TransformerConfig {
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

    fn window(t: usize, m: usize, phase: f64) -> Matrix {
        Matrix::from_fn(t, m, |r, c| {
            ((r as f64 * 0.4 + c as f64 + phase) * 0.7).sin()
        })
    }

    #[test]
    fn top_k_into_matches_library() {
        let cases: Vec<Vec<f64>> = vec![
            vec![0.2, 0.5, 0.3],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![-0.5, 0.0, 0.0, -0.5, 2.0],
            vec![3.0],
            vec![],
        ];
        let mut order = Vec::new();
        for x in cases {
            for k in 0..=x.len() + 1 {
                top_k_into(&x, k, &mut order);
                assert_eq!(order, top_k_indices(&x, k), "x={x:?} k={k}");
            }
        }
    }

    #[test]
    fn forward_bit_identical_to_tape_dense_and_moe() {
        for (seed, block) in [
            (1u64, BlockKind::Dense),
            (
                2,
                BlockKind::Moe {
                    n_experts: 3,
                    top_k: 1,
                },
            ),
            (
                3,
                BlockKind::Moe {
                    n_experts: 2,
                    top_k: 2,
                },
            ),
        ] {
            let mut params = ParamStore::new(seed);
            let model = ReconstructionTransformer::new(&mut params, cfg(block));
            let x = window(10, 4, seed as f64);
            let pe = sinusoidal_pe(10, 8, 0);
            let taped = {
                let mut g = Graph::new(&params);
                let xn = g.input(x.clone());
                let pn = g.input(pe.clone());
                let (recon, _) = model.forward(&mut g, xn, pn);
                g.value(recon).clone()
            };
            let mut sess = InferenceSession::new();
            for _ in 0..2 {
                // Twice: cold then warm scratch must agree.
                let fast = sess.forward(&params, &model, &x, &pe);
                assert_eq!(fast.shape(), taped.shape());
                for (a, b) in fast.as_slice().iter().zip(taped.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn f32_forward_tracks_f64_within_tolerance() {
        for (seed, block) in [
            (1u64, BlockKind::Dense),
            (
                2,
                BlockKind::Moe {
                    n_experts: 3,
                    top_k: 1,
                },
            ),
        ] {
            let mut params = ParamStore::new(seed);
            let model = ReconstructionTransformer::new(&mut params, cfg(block));
            let x = window(10, 4, seed as f64);
            let pe = sinusoidal_pe(10, 8, 0);
            let mut s64 = InferenceSession::new();
            let want = s64.forward(&params, &model, &x, &pe).clone();
            let mut s32 = InferenceSessionF32::new();
            let got = s32.forward(&params, &model, &x, &pe);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                let rel = (*a as f64 - b).abs() / b.abs().max(1.0);
                assert!(rel < 1e-3, "f32 forward drifted: {a} vs {b} (seed {seed})");
            }
        }
    }

    #[test]
    fn f32_batch_bit_identical_to_f32_per_window() {
        // The f32 tier has its own internal determinism contract: a
        // batched forward must reproduce per-window f32 forwards exactly,
        // the same invariant the f64 tier pins across its two paths.
        let mut params = ParamStore::new(4);
        let model = ReconstructionTransformer::new(
            &mut params,
            cfg(BlockKind::Moe {
                n_experts: 3,
                top_k: 2,
            }),
        );
        let windows: Vec<(Matrix, Matrix)> = (0..3)
            .map(|i| {
                let t = 6 + i;
                (window(t, 4, i as f64), sinusoidal_pe(t, 8, 0))
            })
            .collect();
        let refs: Vec<(&Matrix, &Matrix)> = windows.iter().map(|(x, p)| (x, p)).collect();
        let mut batch = InferenceSessionF32::new();
        let (stacked, offs) = batch.forward_batch(&params, &model, &refs);
        let stacked = stacked.clone();
        let offs = offs.to_vec();
        let mut single = InferenceSessionF32::new();
        for (b, (x, pe)) in windows.iter().enumerate() {
            let want = single.forward(&params, &model, x, pe);
            for r in 0..x.rows() {
                for (g, w) in stacked.row(offs[b] + r).iter().zip(want.row(r)) {
                    assert_eq!(g.to_bits(), w.to_bits(), "window {b} row {r}");
                }
            }
        }
    }

    #[test]
    fn f32_bake_invalidated_by_param_mutation() {
        let mut params = ParamStore::new(9);
        let model = ReconstructionTransformer::new(&mut params, cfg(BlockKind::Dense));
        let x = window(6, 4, 0.0);
        let pe = sinusoidal_pe(6, 8, 0);
        let mut sess = InferenceSessionF32::new();
        let before = sess.forward(&params, &model, &x, &pe).clone();
        params.get_mut(model.decoder.w).map_inplace(|v| v + 0.25);
        let after = sess.forward(&params, &model, &x, &pe).clone();
        assert_ne!(before, after, "f32 session served a stale weight bake");
    }

    #[test]
    fn param_mutation_visible_on_next_forward() {
        let mut params = ParamStore::new(9);
        let model = ReconstructionTransformer::new(&mut params, cfg(BlockKind::Dense));
        let x = window(6, 4, 0.0);
        let pe = sinusoidal_pe(6, 8, 0);
        let mut sess = InferenceSession::new();
        let before = sess.forward(&params, &model, &x, &pe).clone();
        // Nudge one weight through the only mutation path.
        params.get_mut(model.decoder.w).map_inplace(|v| v + 0.25);
        let after = sess.forward(&params, &model, &x, &pe).clone();
        assert_ne!(before, after, "session ignored a param mutation");
        let taped = {
            let mut g = Graph::new(&params);
            let xn = g.input(x.clone());
            let pn = g.input(pe.clone());
            let (recon, _) = model.forward(&mut g, xn, pn);
            g.value(recon).clone()
        };
        assert_eq!(after, taped);
    }
}
