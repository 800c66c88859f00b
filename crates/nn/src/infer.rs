//! Tape-free inference fast path.
//!
//! Training needs the autodiff tape; serving does not. A [`Session`]
//! executes the [`ReconstructionTransformer`] forward pass with **no
//! tape**: every intermediate lives in a preallocated scratch [`Mat`] that
//! is reshaped in place per call, so steady-state scoring performs **zero
//! heap allocations** per window (proved at both tiers by the
//! counting-allocator test in `tests/infer_zero_alloc.rs`).
//!
//! There is one forward body, and it is the batched one: `B` windows
//! stacked row-major, every linear layer one matmul over all rows,
//! attention and the MoE scatter per window ([`Session::forward_batch`]).
//! A single window is the `B = 1` case of the same code, not a second
//! path — and the two precision tiers are the same code at two scalars:
//! [`InferenceSession`] is `Session<f64>`, the bit-pinned default, and
//! [`InferenceSessionF32`] is `Session<f32>`, the opt-in tier that halves
//! memory traffic and doubles SIMD lane width. What differs per tier is
//! data, not control flow: inputs and positional encodings are rounded to
//! `T` as they are stacked, errors are summed in `T` and widened on the
//! way out, and [`Tier`] says where the weights come from.
//!
//! Linear layers multiply the [`ParamStore`] weights *in their stored
//! orientation* through [`Mat::matmul_into`] — the register-blocked
//! `gemm` the tape uses, so bit-identity is by construction, and nothing
//! is prepacked. The transposed-operand form ([`Mat::matmul_pre_t_into`])
//! serves where an operand is *naturally* transposed — attention scores
//! `qₕ·kₕᵀ` — where it replaces the tape's per-head `transpose(kₕ)`
//! //! materialisation. The `f64` tier reads the weights live, so it can never
//! be stale: `incremental_update` fine-tuning is visible on the very next
//! forward, with no cache-invalidation protocol. The `f32` tier cannot —
//! down-converting per forward would cost more than the tier saves — so it
//! keeps rounded copies keyed by [`ParamStore::version`] and re-bakes on
//! the first forward after any mutation.
//!
//! # Bit-exactness
//!
//! The `f64` fast path is bit-identical to the taped forward (verified by
//! `tests/infer_equivalence.rs` over random shapes, seeds and block
//! kinds). The argument:
//!
//! * Linears run the tape's own matmul-then-bias-broadcast kernels on the
//!   same operands.
//! * Attention scores `qₕ·kₕᵀ` use `gemm`'s `A·Bᵀ` form with `kₕ` as
//!   stored; every form sums each output element over ascending `k`, so
//!   it is bit-identical to `matmul(qₕ, transpose(kₕ))` without
//!   materialising the transpose.
//! * Elementwise ops (softmax, layer norm, ReLU, residual adds, scaling,
//!   bias broadcast) reuse the tape's exact expressions and loop orders.
//! * MoE routing replicates `top_k_indices` tie-breaking exactly
//!   (descending value, ties to the lower index), runs experts on the
//!   same gathered token subsets in the same ascending-expert order, and
//!   accumulates through the same full-size scatter-then-add sequence.
//!
//! The `f32` tier has no tape to match. It is deterministic within itself
//! (the same ascending-order reductions, thread-count independent, batched
//! ≡ per-window to the bit), but no bit relationship to the `f64` tier is
//! promised: `tests/precision_equivalence.rs` pins a per-layer relative
//! tolerance and a verdict-agreement floor instead.

use crate::layers::{LayerNorm, Linear};
use crate::params::{ParamId, ParamStore};
use crate::transformer::{EncoderLayer, ReconstructionTransformer};
use ns_linalg::matrix::{Mat, Matrix};
use ns_linalg::Scalar;
use std::sync::Mutex;

/// One window of a batched scoring call
/// ([`Session::score_windows_batch`]): rows `[start, end)` of
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

/// Where a precision tier's forward reads its weights — the one piece of
/// code that differs per tier. Implemented for `f64` and `f32` and, since
/// [`Scalar`] is sealed, for nothing else.
pub trait Tier: Scalar {
    /// Bring the session's own weight copies (`baked`, taken at store
    /// version `version`) up to date with `params`.
    fn bake(baked: &mut Vec<Mat<Self>>, version: &mut Option<u64>, params: &ParamStore);

    /// Parameter `id` as this tier multiplies by it.
    fn weight<'a>(params: &'a ParamStore, baked: &'a [Mat<Self>], id: ParamId) -> &'a Mat<Self>;
}

/// Borrows the store's matrices live: no copy, nothing to invalidate.
impl Tier for f64 {
    fn bake(_: &mut Vec<Matrix>, _: &mut Option<u64>, _: &ParamStore) {}

    fn weight<'a>(params: &'a ParamStore, _: &'a [Matrix], id: ParamId) -> &'a Matrix {
        params.get(id)
    }
}

/// Rounds every store matrix to `f32` once per [`ParamStore::version`]:
/// any mutation (`incremental_update`, refit hot-swap) invalidates the bake
/// and the next forward re-converts, reusing the allocations.
impl Tier for f32 {
    fn bake(baked: &mut Vec<Mat<f32>>, version: &mut Option<u64>, params: &ParamStore) {
        if *version == Some(params.version()) && baked.len() == params.len() {
            return;
        }
        baked.resize_with(params.len(), Mat::default);
        for (id, w) in baked.iter_mut().enumerate() {
            w.copy_from_f64(params.get(id));
        }
        *version = Some(params.version());
    }

    fn weight<'a>(_: &'a ParamStore, baked: &'a [Mat<f32>], id: ParamId) -> &'a Mat<f32> {
        &baked[id]
    }
}

/// Reusable tape-free forward-pass executor for one
/// [`ReconstructionTransformer`], at scalar `T`.
///
/// A session is cheap to create but expensive to warm (first call per
/// shape allocates its scratch, and the `f32` tier bakes its weights);
/// keep one per worker thread — e.g. via a [`SessionPool`] — and reuse it
/// across windows.
#[derive(Default)]
pub struct Session<T: Tier> {
    /// The tier's own weight copies, indexed by `ParamId` (see [`Tier`]):
    /// always empty for `f64`.
    baked: Vec<Mat<T>>,
    /// Store version `baked` was taken at; `None` before first use.
    baked_version: Option<u64>,
    // Scratch buffers, reshaped in place per call.
    x: Mat<T>,
    pe: Mat<T>,
    h: Mat<T>,
    q: Mat<T>,
    k: Mat<T>,
    v: Mat<T>,
    qh: Mat<T>,
    kh: Mat<T>,
    vh: Mat<T>,
    scores: Mat<T>,
    head: Mat<T>,
    cat: Mat<T>,
    attn: Mat<T>,
    res1: Mat<T>,
    n1: Mat<T>,
    gate: Mat<T>,
    xe: Mat<T>,
    hid: Mat<T>,
    ye: Mat<T>,
    full: Mat<T>,
    block: Mat<T>,
    res2: Mat<T>,
    out: Mat<T>,
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

impl<T: Tier> Session<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Tape-free forward of a `rows × input_dim` window with a precomputed
    /// positional-encoding table — the `B = 1` case of
    /// [`Session::forward_batch`]. Returns the reconstruction, borrowed
    /// from the session's scratch (valid until the next call).
    pub fn forward(
        &mut self,
        params: &ParamStore,
        model: &ReconstructionTransformer,
        x: &Matrix,
        pe: &Matrix,
    ) -> &Mat<T> {
        self.forward_batch(params, model, &[(x, pe)]).0
    }

    /// Score one window of a longer series — the `B = 1` case of
    /// [`Session::score_windows_batch`]: fills the input scratch
    /// from `data[start..end)`, builds the positional encoding from
    /// `pos_of` (bit-identical to `sinusoidal_pe_at`), runs the forward,
    /// and returns per-row weighted reconstruction errors — at `f64` the
    /// exact arithmetic of the taped `SharedModel::score_series_taped`.
    /// The slice is borrowed from the session's scratch.
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
    /// [`Session::forward`] calls: the matmul kernel
    /// accumulates each output element independently over ascending `k`, so
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
    ) -> (&Mat<T>, &[usize]) {
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
                fill(self.x.row_mut(r0 + r), x.row(r));
                fill(self.pe.row_mut(r0 + r), pe.row(r));
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
    /// [`forward_batch`]: Session::forward_batch
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
            assert_eq!(s.weights.len(), m, "one error weight per input column");
            total += s.end - s.start;
            self.boffsets.push(total);
        }
        self.x.resize(total, m);
        self.pe.resize(total, d_model);
        for (b, s) in specs.iter().enumerate() {
            let r0 = self.boffsets[b];
            for r in 0..s.end - s.start {
                fill(self.x.row_mut(r0 + r), s.data.row(s.start + r));
                let p = (s.pos_of)(s.start + r);
                // Same expression as `sinusoidal_pe_value` with the divisor
                // hoisted — bit-identical to `sinusoidal_pe_at`. The
                // trigonometry runs in f64 at either tier and rounds once.
                for (i, (slot, &div)) in self
                    .pe
                    .row_mut(r0 + r)
                    .iter_mut()
                    .zip(&self.pe_div)
                    .enumerate()
                {
                    *slot = T::from_f64(if i % 2 == 0 {
                        (p / div).sin()
                    } else {
                        (p / div).cos()
                    });
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
                    .map(|((&a, &o), &w)| T::from_f64(w) * (a - o) * (a - o))
                    .sum::<T>()
                    / T::from_f64(m.max(1) as f64);
                self.err.push(e.to_f64());
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
        T::bake(&mut self.baked, &mut self.baked_version, params);
        linear_into(&self.x, params, &self.baked, &model.embed, &mut self.h);
        self.h.add_assign(&self.pe);
        for layer in &model.layers {
            self.encoder_layer(params, layer);
        }
        linear_into(&self.h, params, &self.baked, &model.decoder, &mut self.out);
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
        let scale = T::from_f64(1.0 / (dh as f64).sqrt());
        linear_into(&self.h, params, &self.baked, &mha.wq, &mut self.q);
        linear_into(&self.h, params, &self.baked, &mha.wk, &mut self.k);
        linear_into(&self.h, params, &self.baked, &mha.wv, &mut self.v);
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
        linear_into(&self.cat, params, &self.baked, &mha.wo, &mut self.attn);
        add_into(&self.h, &self.attn, &mut self.res1);
        layer_norm_into(&self.res1, params, &self.baked, &layer.norm1, &mut self.n1);
        match (&layer.moe, &layer.ffn) {
            (Some(moe), _) => self.moe_block(params, moe),
            (None, Some(ffn)) => {
                linear_into(&self.n1, params, &self.baked, &ffn.lin1, &mut self.hid);
                self.hid.map_inplace(|x| x.max(T::ZERO));
                linear_into(&self.hid, params, &self.baked, &ffn.lin2, &mut self.block);
            }
            _ => unreachable!("layer has either moe or ffn"),
        }
        add_into(&self.n1, &self.block, &mut self.res2);
        layer_norm_into(&self.res2, params, &self.baked, &layer.norm2, &mut self.h);
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
        let nb = self.boffsets.len() - 1;
        self.n1
            .matmul_into(T::weight(params, &self.baked, moe.gate), &mut self.gate);
        softmax_rows_inplace(&mut self.gate);
        crate::moe::route(&self.gate, moe.top_k, &mut self.order, &mut self.assign);
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
            linear_into(&self.xe, params, &self.baked, &expert.lin1, &mut self.hid);
            self.hid.map_inplace(|x| x.max(T::ZERO));
            linear_into(&self.hid, params, &self.baked, &expert.lin2, &mut self.ye);
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
                    *o = v * T::ZERO;
                }
            }
        }
    }
}

/// Stack one input row: round `src` to the session's scalar (a plain copy
/// at `f64`).
fn fill<T: Scalar>(dst: &mut [T], src: &[f64]) {
    for (slot, &v) in dst.iter_mut().zip(src) {
        *slot = T::from_f64(v);
    }
}

/// `out = x · W + b` over the tier's weights. At `f64` it matches the
/// taped `Linear::forward` (matmul, then bias broadcast) bit-for-bit — it
/// *is* the same matmul kernel on the same operands.
fn linear_into<T: Tier>(
    x: &Mat<T>,
    params: &ParamStore,
    baked: &[Mat<T>],
    lin: &Linear,
    out: &mut Mat<T>,
) {
    x.matmul_into(T::weight(params, baked, lin.w), out);
    out.add_row_broadcast_inplace(T::weight(params, baked, lin.b));
}

/// Copy the `[r0, r1) × [lo, hi)` block of `src` into `out` (reshaped in
/// place): one head's columns restricted to one window's row range.
fn slice_block_into<T: Scalar>(
    src: &Mat<T>,
    r0: usize,
    r1: usize,
    lo: usize,
    hi: usize,
    out: &mut Mat<T>,
) {
    out.resize(r1 - r0, hi - lo);
    for r in r0..r1 {
        out.row_mut(r - r0).copy_from_slice(&src.row(r)[lo..hi]);
    }
}

/// `out = a + b` elementwise (reshaped in place).
fn add_into<T: Scalar>(a: &Mat<T>, b: &Mat<T>, out: &mut Mat<T>) {
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
fn softmax_rows_inplace<T: Scalar>(m: &mut Mat<T>) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let mx = row.iter().cloned().fold(T::NEG_INFINITY, T::max);
        let mut s = T::ZERO;
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
fn layer_norm_into<T: Tier>(
    src: &Mat<T>,
    params: &ParamStore,
    baked: &[Mat<T>],
    norm: &LayerNorm,
    out: &mut Mat<T>,
) {
    let gamma = T::weight(params, baked, norm.gamma).as_slice();
    let beta = T::weight(params, baked, norm.beta).as_slice();
    let eps = T::from_f64(1e-5);
    out.resize(src.rows(), src.cols());
    for r in 0..src.rows() {
        let row = src.row(r);
        let d = T::from_f64(row.len() as f64);
        let mean = row.iter().sum::<T>() / d;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<T>() / d;
        let inv = T::ONE / (var + eps).sqrt();
        for (i, (o, &v)) in out.row_mut(r).iter_mut().zip(row).enumerate() {
            *o = gamma[i] * (v - mean) * inv + beta[i];
        }
    }
}

/// The default scoring tier's session: `f64`, bit-identical to the tape.
pub type InferenceSession = Session<f64>;

/// The opt-in reduced-precision tier's session: the same forward at `f32`.
pub type InferenceSessionF32 = Session<f32>;

/// Thread-safe pool of [`Session`]s of one tier for scoring call sites
/// that fan tasks out over rayon workers: a task pops a warm session (or
/// starts a cold one), runs one forward and pushes it back, so the pool
/// settles at one session per thread that ever scored at the same time
/// — the pool's width plus its callers — each with scratch for the
/// largest stack it has seen (the caller bounds that; see
/// [`Session::score_windows_batch`]). Pooled `f32` sessions keep their
/// baked weights warm across windows; the version check on every forward
/// makes a stale bake self-heal, so pooling never serves stale weights.
#[derive(Default)]
pub struct SessionPool<T: Tier = f64> {
    pool: Mutex<Vec<Session<T>>>,
}

/// The `f32` tier's [`SessionPool`].
pub type SessionPoolF32 = SessionPool<f32>;

/// Upper bound on pooled sessions — more than any sane rayon pool width;
/// beyond it released sessions are simply dropped.
const POOL_CAP: usize = 64;

impl<T: Tier> SessionPool<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pop a warm session, or create a cold one if the pool is empty.
    pub fn acquire(&self) -> Session<T> {
        self.pool
            .lock()
            .map(|mut p| p.pop())
            .unwrap_or(None)
            .unwrap_or_default()
    }

    /// Return a session for reuse.
    pub fn release(&self, session: Session<T>) {
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
impl<T: Tier> serde::Serialize for SessionPool<T> {
    fn emit<S: serde::Sink>(&self, sink: &mut S) {
        sink.null()
    }
}

/// Deserializes from anything (including a missing field) to an empty
/// pool — sessions re-warm their scratch (and re-bake) lazily on first use.
impl<T: Tier> serde::Deserialize for SessionPool<T> {
    fn read<'de, S: serde::Source<'de>>(src: &mut S) -> Result<Self, serde::Error> {
        src.skip()?;
        Ok(Self::default())
    }
}

/// Cloning a model must not share (or copy) live scratch: a clone starts
/// with a cold, empty pool.
impl<T: Tier> Clone for SessionPool<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T: Tier> std::fmt::Debug for SessionPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SessionPool({} warm)", self.warm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::sinusoidal_pe;
    use crate::tape::Graph;
    use crate::transformer::{BlockKind, TransformerConfig};

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
    #[should_panic(expected = "one error weight per input column")]
    fn score_windows_batch_refuses_a_short_weights_vector() {
        // `zip` would silently truncate the sum while still dividing by
        // the full input width.
        let mut params = ParamStore::new(5);
        let model = ReconstructionTransformer::new(&mut params, cfg(BlockKind::Dense));
        let x = window(6, 4, 0.0);
        InferenceSession::new().score_window(&params, &model, &x, 0, 6, |r| r as f64, &[1.0; 3]);
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

    /// One body for both tiers: a mutation through the store's only
    /// mutable path reaches the very next forward — `f64` reads the store
    /// live, `f32` re-bakes on the version bump — and what it then serves
    /// is what a cold session computes. Returns the fixture and that
    /// post-mutation output.
    fn mutation_reaches_next_forward<T: Tier>() -> (
        ParamStore,
        ReconstructionTransformer,
        Matrix,
        Matrix,
        Mat<T>,
    ) {
        let mut params = ParamStore::new(9);
        let model = ReconstructionTransformer::new(&mut params, cfg(BlockKind::Dense));
        let x = window(6, 4, 0.0);
        let pe = sinusoidal_pe(6, 8, 0);
        let mut sess = Session::<T>::new();
        let before = sess.forward(&params, &model, &x, &pe).clone();
        // White box, `f32` only (`baked` stays empty at `f64`): against an
        // unchanged store version a warm forward serves the bake it has,
        // so a tampered copy stays tampered.
        if let Some(w) = sess.baked.get_mut(model.decoder.w) {
            w.map_inplace(|v| v + T::ONE);
            let served = sess.forward(&params, &model, &x, &pe);
            assert_ne!(*served, before, "re-baked against an unchanged store");
        }
        // Nudge one weight through the only mutation path.
        params.get_mut(model.decoder.w).map_inplace(|v| v + 0.25);
        let after = sess.forward(&params, &model, &x, &pe).clone();
        assert_ne!(before, after, "session ignored a param mutation");
        let cold = Session::<T>::new()
            .forward(&params, &model, &x, &pe)
            .clone();
        assert_eq!(after, cold, "stale weights survived the mutation");
        (params, model, x, pe, after)
    }

    #[test]
    fn f32_bake_invalidated_by_param_mutation() {
        mutation_reaches_next_forward::<f32>();
    }

    #[test]
    fn param_mutation_visible_on_next_forward() {
        let (params, model, x, pe, after) = mutation_reaches_next_forward::<f64>();
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
