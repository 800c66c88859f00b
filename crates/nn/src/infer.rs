//! Scoring sessions: the model's forward at either precision tier, with
//! no steady-state heap traffic.
//!
//! There is one description of the model —
//! [`ReconstructionTransformer::reconstruct`], written over the tape's
//! ops — and a [`Session`] runs it the way training does, into a recycled
//! [`Tape`], one window per forward. So a change to a layer changes
//! serving at both tiers with no second edit, and "served ≡ taped" is the
//! tape's own "recycled ≡ fresh graph" contract. [`InferenceSession`] is
//! `Session<f64>`, the bit-pinned default; [`InferenceSessionF32`] the
//! opt-in tier that halves memory traffic.
//!
//! A session owns only what is per tier and per call: the rounding of
//! inputs and positional encodings to `T` on entry, and the
//! weighted-error reduction — summed in `T`, widened on exit. It owns no
//! weights: `f64` reads the store live and `f32` reads the store's own
//! copy ([`Tier::weights`]), which the store drops on every mutation, so
//! one model's weights can never reach another's forward. Nor does it own
//! its storage for long: the tape holds no model state, so a scoring task
//! builds its session around one of the process's spare tapes
//! ([`Session::take_spare`]) and parks it after, and warm tapes number one
//! per concurrent task and tier however many models are served.

use crate::layers::{sinusoidal_pe_divisors, sinusoidal_pe_row};
use crate::params::ParamStore;
use crate::tape::{Graph, NodeId, Tape, Tier};
use crate::transformer::ReconstructionTransformer;
use ns_linalg::matrix::{Mat, Matrix};
use ns_linalg::Scalar;
use std::ops::Range;

/// One window of a series: rows `[start, end)` of `data`, positions from
/// `pos_of` (a per-series closure, because the position scale depends on
/// the owning series' length and pre-dividing it would not be
/// bit-identical), and per-metric error weights. Scoring hands a slice of
/// specs to [`Session::score_windows_batch`], fine training fills one
/// training example from each. Every field is a shared borrow and
/// `pos_of` is `Sync`, so a slice of specs can be split across pool
/// threads.
pub struct WindowSpec<'a> {
    pub data: &'a Matrix,
    pub start: usize,
    pub end: usize,
    pub pos_of: &'a (dyn Fn(usize) -> f64 + Sync + 'a),
    pub weights: &'a [f64],
}

impl WindowSpec<'_> {
    /// The window's rows of `data`, row-major.
    pub fn values(&self) -> &[f64] {
        let m = self.data.cols();
        &self.data.as_slice()[self.start * m..self.end * m]
    }

    /// Write the window's positional encoding into `buf`, one row of
    /// `divisors.len()` columns per window row at `pos_of(row)` —
    /// bit-identical to `sinusoidal_pe_at` over the same positions. The
    /// trigonometry runs in f64 at either tier and rounds once.
    pub fn fill_pe<T: Scalar>(&self, divisors: &[f64], buf: &mut [T]) {
        for (r, row) in (self.start..self.end).zip(buf.chunks_exact_mut(divisors.len())) {
            sinusoidal_pe_row((self.pos_of)(r), divisors, row);
        }
    }
}

/// The windows that tile a `len`-row series: ranges of `min(window, len)`
/// rows (at least 1) starting every `stride.max(1)` rows, plus a final
/// range aligned to the series end when the steps leave a ragged tail.
/// Empty for an empty series. The one tiling rule: scoring and the
/// window-level baselines pass `stride = window`, fine training its
/// configured stride.
pub fn windows(len: usize, window: usize, stride: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let w = window.min(len).max(1);
    let mut out: Vec<Range<usize>> = (0..=len - w)
        .step_by(stride.max(1))
        .map(|s| s..s + w)
        .collect();
    if out.last().is_some_and(|r| r.end < len) {
        out.push(len - w..len);
    }
    out
}

/// Reusable forward-pass executor for [`ReconstructionTransformer`]s, at
/// scalar `T`: a [`Tape`] and the calls that score into it.
///
/// A session holds no model state — every call reads the weights of the
/// store it is given ([`Tier::weights`]) — so one session serves any
/// model. It is cheap to create but expensive to warm (the first forward
/// of each shape grows the tape): a scoring task builds one around a
/// spare tape ([`Session::take_spare`]) and parks it after
/// ([`Session::park`]).
#[derive(Default)]
pub struct Session<T: Tier> {
    /// The storage forwards build into; results are borrowed from it. Its
    /// scoring scratch holds the error buffer and the
    /// [`sinusoidal_pe_divisors`] of the last model width scored.
    tape: Tape<T>,
}

/// One forward of `model` into `tape`: `fill_x` / `fill_pe` write the
/// `rows × cols` window and its `rows × d_model` encoding, already rounded
/// to `T`. Returns the input and reconstruction nodes.
fn reconstruct<T: Tier>(
    tape: &mut Tape<T>,
    params: &ParamStore,
    model: &ReconstructionTransformer,
    (rows, cols): (usize, usize),
    fill_x: impl FnOnce(&mut [T]),
    fill_pe: impl FnOnce(&mut [T]),
) -> (NodeId, NodeId) {
    let mut g = Graph::at_tier(params, std::mem::take(tape));
    let x = g.input_fill(rows, cols, fill_x);
    let pe = g.input_fill(rows, model.cfg.d_model, fill_pe);
    let recon = model.reconstruct(&mut g, x, pe);
    *tape = g.into_tape();
    (x, recon)
}

/// Round `src` to the session's scalar (a plain copy at `f64`).
fn round_into<T: Tier>(dst: &mut [T], src: &[f64]) {
    for (slot, &v) in dst.iter_mut().zip(src) {
        *slot = T::from_f64(v);
    }
}

impl<T: Tier> Session<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// A session around one of the process's spare tapes
    /// ([`Tape::take_spare`]).
    pub fn take_spare() -> Self {
        Self {
            tape: Tape::take_spare(),
        }
    }

    /// Hand the session's tape back to the spares ([`Tape::park`]).
    pub fn park(self) {
        self.tape.park();
    }

    /// Forward of a `rows × input_dim` window with a precomputed
    /// positional-encoding table. Returns the reconstruction, borrowed
    /// from the session's tape (valid until the next call).
    pub fn forward(
        &mut self,
        params: &ParamStore,
        model: &ReconstructionTransformer,
        x: &Matrix,
        pe: &Matrix,
    ) -> &Mat<T> {
        assert_eq!(pe.rows(), x.rows(), "pe must have one row per input row");
        assert_eq!(pe.cols(), model.cfg.d_model, "pe width must equal d_model");
        let (_, recon) = reconstruct(
            &mut self.tape,
            params,
            model,
            x.shape(),
            |buf| round_into(buf, x.as_slice()),
            |buf| round_into(buf, pe.as_slice()),
        );
        self.tape.value(recon)
    }

    /// Score one window of a longer series — the one-window case of
    /// [`Session::score_windows_batch`].
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

    /// Score `specs`, one forward per window: each fills the input from
    /// its rows of `data` and its positional encoding
    /// ([`WindowSpec::fill_pe`]), reconstructs, and appends its per-row
    /// weighted reconstruction errors — at `f64` the exact arithmetic of
    /// the taped `SharedModel::score_series_taped`. Window `b`'s errors
    /// are the `specs[b].end - specs[b].start` slots after those of
    /// windows `0..b`; the slice is borrowed from the session.
    ///
    /// Windows are arithmetically independent, so how a caller groups
    /// them into calls is unobservable in the output.
    pub fn score_windows_batch(
        &mut self,
        params: &ParamStore,
        model: &ReconstructionTransformer,
        specs: &[WindowSpec<'_>],
    ) -> &[f64] {
        let d_model = model.cfg.d_model;
        if self.tape.pe_divisors.len() != d_model {
            self.tape.pe_divisors = sinusoidal_pe_divisors(d_model);
        }
        // Both ride in the tape, which every forward lends to a graph.
        let divisors = std::mem::take(&mut self.tape.pe_divisors);
        let mut err = std::mem::take(&mut self.tape.err);
        err.clear();
        for s in specs {
            let m = s.data.cols();
            assert_eq!(s.weights.len(), m, "one error weight per input column");
            let (x, recon) = reconstruct(
                &mut self.tape,
                params,
                model,
                (s.end - s.start, m),
                |buf| round_into(buf, s.values()),
                |buf| s.fill_pe(&divisors, buf),
            );
            let (x, out) = (self.tape.value(x), self.tape.value(recon));
            for r in 0..s.end - s.start {
                let e = x
                    .row(r)
                    .iter()
                    .zip(out.row(r))
                    .zip(s.weights)
                    .map(|((&a, &o), &w)| T::from_f64(w) * (a - o) * (a - o))
                    .sum::<T>()
                    / T::from_f64(m.max(1) as f64);
                err.push(e.to_f64());
            }
        }
        self.tape.pe_divisors = divisors;
        self.tape.err = err;
        &self.tape.err
    }
}

/// The default scoring tier's session: `f64`, bit-identical to the tape.
pub type InferenceSession = Session<f64>;

/// The opt-in reduced-precision tier's session: the same forward at `f32`.
pub type InferenceSessionF32 = Session<f32>;

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

    /// The training tiling `windows` replaced, copied: steps of `stride`
    /// from row 0, each `min(window, len)` rows, the last aligned to the
    /// end.
    fn training_loop(len: usize, window: usize, stride: usize) -> Vec<Range<usize>> {
        let w = window.min(len);
        let (mut out, mut s) = (Vec::new(), 0);
        loop {
            let e = (s + w).min(len);
            out.push(e - w..e);
            if e == len {
                break;
            }
            s += stride.max(1);
        }
        out
    }

    /// The scoring tiling `windows` replaced, copied: `window_starts`
    /// and the end rule its callers wrote.
    fn scoring_tiling(len: usize, window: usize) -> Vec<Range<usize>> {
        if len == 0 {
            return Vec::new();
        }
        let w = window.min(len).max(1);
        let mut starts: Vec<usize> = (0..=len - w).step_by(w).collect();
        if starts.last().is_some_and(|&s| s + w < len) {
            starts.push(len - w);
        }
        starts.into_iter().map(|s| s..(s + w).min(len)).collect()
    }

    #[test]
    fn windows_equal_the_tilings_they_replace() {
        for window in 1..=40 {
            for len in 0..=300 {
                let want = scoring_tiling(len, window);
                assert_eq!(
                    windows(len, window, window),
                    want,
                    "(len, window) {:?}",
                    (len, window)
                );
                for stride in 1..=50 {
                    let at = (len, window, stride);
                    let got = windows(len, window, stride);
                    if len == 0 {
                        assert!(got.is_empty(), "{at:?}");
                        continue;
                    }
                    assert_eq!(got, training_loop(len, window, stride), "{at:?}");
                    assert!(got.iter().all(|r| r.len() == window.min(len)), "{at:?}");
                    assert!(got.windows(2).all(|p| p[0].start < p[1].start), "{at:?}");
                    assert_eq!((got[0].start, got[got.len() - 1].end), (0, len), "{at:?}");
                    // No row is skipped unless the steps outrun the window.
                    if stride <= window {
                        assert!(got.windows(2).all(|p| p[1].start <= p[0].end), "{at:?}");
                    }
                }
            }
        }
        assert_eq!(windows(10, 4, 4), [0..4, 4..8, 6..10]);
        assert_eq!(windows(3, 4, 4), vec![0..3]);
    }

    fn window(t: usize, m: usize, phase: f64) -> Matrix {
        Matrix::from_fn(t, m, |r, c| {
            ((r as f64 * 0.4 + c as f64 + phase) * 0.7).sin()
        })
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

    /// The `f32` tier's bits, which no other suite pins (they hold it to
    /// a tolerance and a verdict-agreement floor): reconstructions and
    /// scores of a fixed model over window lengths and block kinds, folded
    /// FNV-style. Recorded at the commit before serving moved onto the
    /// tape; a change here is a change to what the tier serves.
    #[test]
    fn f32_forward_digest_is_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bits: u64| h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
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
            let mut sess = InferenceSessionF32::new();
            for t in [10usize, 3, 17] {
                let x = window(t, 4, seed as f64);
                let pe = sinusoidal_pe(t, 8, 0);
                for v in sess.forward(&params, &model, &x, &pe).as_slice() {
                    fold(v.to_bits() as u64);
                }
                let pos = |r: usize| r as f64 * 512.0 / t as f64;
                let w = [1.0, 0.5, 2.0, 0.25];
                for e in sess.score_window(&params, &model, &x, 0, t, pos, &w) {
                    fold(e.to_bits());
                }
            }
        }
        assert_eq!(h, 0xb3c7_81e8_a948_b745, "f32 tier moved: {h:#018x}");
    }

    /// One body for both tiers: a mutation through the store's only
    /// mutable path reaches the very next forward — `f64` reads the store
    /// live, `f32` rebuilds the store's copy after the mutation dropped it
    /// — and what it then serves is what a cold session over a cold store
    /// computes. Returns the fixture and that post-mutation output.
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
        // White box, `f32` only (`f64` has no copy): an unmutated store
        // serves the copy it has, so a tampered copy stays tampered.
        if let Some(w) = params.f32_copy_mut(model.decoder.w) {
            w.map_inplace(|v| v + 1.0);
            let served = sess.forward(&params, &model, &x, &pe);
            assert_ne!(*served, before, "rebuilt against an unmutated store");
        }
        // Nudge one weight through the only mutation path.
        params.get_mut(model.decoder.w).map_inplace(|v| v + 0.25);
        let after = sess.forward(&params, &model, &x, &pe).clone();
        assert_ne!(before, after, "session ignored a param mutation");
        // Cold on both sides: a new session over a clone, which starts
        // without the store's copy.
        let cold = Session::<T>::new()
            .forward(&params.clone(), &model, &x, &pe)
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
