//! Reverse-mode automatic differentiation over 2-D matrices.
//!
//! A [`Graph`] is a define-by-run tape: every operation appends a node
//! whose parents were created earlier, so a single reverse sweep over the
//! arena is a valid topological-order backpropagation. Training loops
//! build one graph per example (sequences are `T × d` matrices), run
//! [`Graph::backward`], and merge the resulting [`GradStore`]s across a
//! batch — which is how the workspace gets rayon data-parallel training
//! without any shared mutable state.
//!
//! A graph computes at a scalar `T` ([`Tier`]): `f64`, the default and the
//! only one with a backward pass, or `f32`, forward only. The layers are
//! written once over `Graph<'_, T>`, so training, the `f64` scoring tier
//! and the `f32` one all run the same description of the model
//! ([`crate::infer::Session`] is a forward into a recycled tape).
//!
//! The storage behind a graph is a [`Tape`], and it outlives the graph:
//! [`Graph::into_tape`] hands it back and [`Graph::recycle`] builds the
//! next example into it. Buffers are recycled **by position** — node *i*
//! of the next graph computes into node *i*'s value, gradient and index
//! buffers through the `_into` kernels, growing one only when a shape
//! outgrows it — so a training loop reaches a steady state with no heap
//! traffic. Nothing is recorded or replayed: the node sequence is
//! data-dependent (an MoE expert that received no token emits no nodes),
//! and a slot that held a different op last time is just a buffer of the
//! wrong size once.

use crate::params::{GradStore, ParamId, ParamStore};
use ns_linalg::matrix::{Mat, Matrix};
use ns_linalg::Scalar;
use std::sync::{Mutex, PoisonError};

/// What differs per precision tier: where a graph's parameter leaves read
/// their weights, and where the tier's spare tapes wait. Implemented for
/// `f64` and `f32` and, since [`Scalar`] is sealed, for nothing else.
pub trait Tier: Scalar {
    /// Every parameter of `params` as this tier multiplies by it, indexed
    /// by [`ParamId`].
    fn weights(params: &ParamStore) -> &[Mat<Self>];

    /// The process's warm tapes of this tier that no task is building
    /// into (see [`Tape::take_spare`]).
    fn spare_tapes() -> &'static Mutex<Vec<Tape<Self>>>;
}

/// The store's matrices themselves: no copy, nothing to invalidate.
impl Tier for f64 {
    fn weights(params: &ParamStore) -> &[Matrix] {
        params.values()
    }

    fn spare_tapes() -> &'static Mutex<Vec<Tape>> {
        static SPARE: Mutex<Vec<Tape>> = Mutex::new(Vec::new());
        &SPARE
    }
}

/// The store's own `f32` copy, rounded once per mutation of the store
/// (`incremental_update`, refit hot-swap) on the first read after it.
impl Tier for f32 {
    fn weights(params: &ParamStore) -> &[Mat<f32>] {
        params.values_f32()
    }

    fn spare_tapes() -> &'static Mutex<Vec<Tape<f32>>> {
        static SPARE: Mutex<Vec<Tape<f32>>> = Mutex::new(Vec::new());
        &SPARE
    }
}

/// Handle to a node in the tape.
pub type NodeId = usize;

/// Tape operation. Parents are always lower `NodeId`s; index lists
/// (gather/scatter rows, selected elements, concatenated parts) live in
/// the node's recycled `idx` slot, which is what keeps `Op` `Copy`.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Constant input (no gradient tracked beyond the tape).
    Input,
    /// Learnable parameter leaf; its value is read from [`Tier::weights`].
    Param(ParamId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    /// Elementwise product.
    Mul(NodeId, NodeId),
    Scale(NodeId, f64),
    MatMul(NodeId, NodeId),
    /// `a · bᵀ`, with `b` read as stored.
    MatMulNT(NodeId, NodeId),
    /// `x · W + b` over the parameters `w` (`in × out`) and `b` (`1 × out`).
    Linear {
        x: NodeId,
        w: ParamId,
        b: ParamId,
    },
    Relu(NodeId),
    Tanh(NodeId),
    Sigmoid(NodeId),
    Exp(NodeId),
    /// Row-wise softmax.
    SoftmaxRows(NodeId),
    /// Row-wise LayerNorm with the learnable gain/shift parameters
    /// `gamma`, `beta` (`1 × d` each).
    LayerNorm {
        x: NodeId,
        gamma: ParamId,
        beta: ParamId,
        eps: f64,
    },
    /// `a ⊙ row` with `row` broadcast over all rows.
    MulRowBroadcast(NodeId, NodeId),
    /// `a ⊙ col` with `col` (`n × 1`) broadcast over all columns.
    MulColBroadcast(NodeId, NodeId),
    /// Rows `idx` of the parent.
    GatherRows(NodeId),
    /// Rows of the parent placed at `idx` within a taller zero matrix.
    ScatterRows(NodeId),
    /// The parent's elements at flat offsets `idx`, as a column vector.
    SelectElems(NodeId),
    SliceCols(NodeId, usize),
    /// Nodes `idx` side by side.
    ConcatCols,
    SumAll(NodeId),
    MeanAll(NodeId),
    /// Column means → `1 × cols` row vector.
    ColMeans(NodeId),
}

/// A graph's storage at scalar `T`, detached from any parameter store so
/// it can be parked between examples (see the module docs).
/// `Tape::default()` is an empty one; every slot vector only ever grows.
/// It holds no model state, so one tape serves any model of any shape.
#[derive(Default)]
pub struct Tape<T = f64> {
    /// The live graph: one entry per node of the current example.
    ops: Vec<Op>,
    /// Per-position slots, at least `ops.len()` of each.
    values: Vec<Mat<T>>,
    idx: Vec<Vec<usize>>,
    /// Gradient slots and whether the last backward sweep reached each —
    /// grown by the sweep, so a forward-only tape never has any.
    grads: Vec<Mat<T>>,
    seen: Vec<bool>,
    /// Backward scratch: a non-first gradient contribution, and the two
    /// parameter gradients of a Linear or LayerNorm node.
    tmp: [Mat<T>; 3],
    /// Scratch the layers borrow so their own bookkeeping recycles too:
    /// a list of node ids or sort order, and per-expert token lists.
    pub(crate) ids: Vec<usize>,
    pub(crate) route: Vec<Vec<usize>>,
    /// Scratch a scoring [`crate::infer::Session`] keeps with its tape,
    /// so a session built around a spare tape starts warm: the
    /// positional-encoding divisors of the last model width it scored,
    /// and the per-row errors of its last call.
    pub(crate) pe_divisors: Vec<f64>,
    pub(crate) err: Vec<f64>,
}

/// Upper bound on spare tapes — more than any sane pool width; beyond it
/// a returned tape is simply dropped.
const SPARE_CAP: usize = 64;

impl<T: Tier> Tape<T> {
    /// A warm tape for one task — a scoring session's windows, a training
    /// window — or an empty one if every warm tape is in use. Tapes hold
    /// no model state and outlive the threads that grew them, so the
    /// process settles at one per task that ever ran at the same time,
    /// whatever models and engines came and went. The most recently
    /// returned tape is handed out first: a thread running task after
    /// task keeps getting the one still in its cache.
    pub fn take_spare() -> Self {
        let mut spare = T::spare_tapes()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        spare.pop().unwrap_or_default()
    }

    /// Hand the tape back for the next [`Tape::take_spare`].
    pub fn park(self) {
        let mut spare = T::spare_tapes()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if spare.len() < SPARE_CAP {
            spare.push(self);
        }
    }

    /// Value of non-parameter node `id` of the last graph built here.
    pub(crate) fn value(&self, id: NodeId) -> &Mat<T> {
        &self.values[id]
    }
}

/// Read access to the values of already-built nodes.
struct Vals<'a, T> {
    weights: &'a [Mat<T>],
    ops: &'a [Op],
    values: &'a [Mat<T>],
}

impl<'a, T: Tier> Vals<'a, T> {
    fn get(&self, id: NodeId) -> &'a Mat<T> {
        match self.ops[id] {
            Op::Param(pid) => self.weight(pid),
            _ => &self.values[id],
        }
    }

    fn weight(&self, pid: ParamId) -> &'a Mat<T> {
        &self.weights[pid]
    }
}

/// Where a backward step delivers gradient contributions to parents.
struct Sink<'a> {
    grads: &'a mut [Matrix],
    seen: &'a mut [bool],
    tmp: &'a mut Matrix,
}

impl Sink<'_> {
    /// Deliver one contribution to node `p`: `write` overwrites the
    /// buffer it is given. The first contribution lands in `p`'s gradient
    /// as is; each later one is computed whole, then added — the order and
    /// association gradients have always been summed in.
    fn put(&mut self, p: NodeId, write: impl FnOnce(&mut Matrix)) {
        if self.seen[p] {
            write(self.tmp);
            self.grads[p].add_assign(self.tmp);
        } else {
            write(&mut self.grads[p]);
            self.seen[p] = true;
        }
    }
}

/// `out = src`, reusing `out`'s buffer.
fn copy_into<T: Tier>(out: &mut Mat<T>, src: &Mat<T>) {
    out.assign_map(src, |x| x);
}

/// `out` = per-column sums of the `rows × cols` values `elem(r, c)`,
/// accumulated from `+0.0` over ascending `r` — `Matrix::col_sums`.
fn col_sums_into<T: Tier>(
    out: &mut Mat<T>,
    rows: usize,
    cols: usize,
    elem: impl Fn(usize, usize) -> T,
) {
    out.resize(1, cols);
    for r in 0..rows {
        for (c, acc) in out.as_mut_slice().iter_mut().enumerate() {
            *acc += elem(r, c);
        }
    }
}

/// `out` = `like`'s shape, every element `x`.
fn fill_like(out: &mut Matrix, like: &Matrix, x: f64) {
    out.set_shape(like.rows(), like.cols());
    out.as_mut_slice().fill(x);
}

/// Row `r` of `out` ← row `idx[r]` of `src`.
fn gather_into<T: Tier>(out: &mut Mat<T>, src: &Mat<T>, idx: &[usize]) {
    out.set_shape(idx.len(), src.cols());
    for (r, &i) in idx.iter().enumerate() {
        out.row_mut(r).copy_from_slice(src.row(i));
    }
}

/// An autodiff tape bound to a [`ParamStore`], computing at scalar `T`:
/// `f64` (the default, and the only one with a backward pass) over the
/// store's live weights, or `f32` over the store's copy of them (see
/// [`Tier`]).
pub struct Graph<'p, T: Tier = f64> {
    params: &'p ParamStore,
    /// [`Tier::weights`] of `params`, resolved once.
    weights: &'p [Mat<T>],
    pub(crate) tape: Tape<T>,
}

impl<'p> Graph<'p> {
    pub fn new(params: &'p ParamStore) -> Self {
        Self::recycle(params, Tape::default())
    }

    /// An empty graph that builds into `tape`'s buffers (see the module
    /// docs). Results are bit-identical to a [`Graph::new`] graph's.
    pub fn recycle(params: &'p ParamStore, tape: Tape) -> Self {
        Self::at_tier(params, tape)
    }
}

impl<'p, T: Tier> Graph<'p, T> {
    /// [`Graph::recycle`] at any tier: parameter leaves read
    /// [`Tier::weights`] of `params`.
    pub fn at_tier(params: &'p ParamStore, mut tape: Tape<T>) -> Self {
        tape.ops.clear();
        Self {
            params,
            weights: T::weights(params),
            tape,
        }
    }

    /// Give the storage back for the next [`Graph::recycle`].
    pub fn into_tape(self) -> Tape<T> {
        self.tape
    }

    /// Append a node: `compute` reads earlier nodes and overwrites the
    /// slot's value buffer; `idx` becomes the node's index list.
    fn emit(
        &mut self,
        op: Op,
        idx: impl IntoIterator<Item = usize>,
        compute: impl FnOnce(&Vals<'_, T>, &[usize], &mut Mat<T>),
    ) -> NodeId {
        let t = &mut self.tape;
        let id = t.ops.len();
        t.ops.push(op);
        if t.values.len() == id {
            t.values.push(Mat::default());
            t.idx.push(Vec::new());
        }
        t.idx[id].clear();
        t.idx[id].extend(idx);
        let (built, slot) = t.values.split_at_mut(id);
        let vals = Vals {
            weights: self.weights,
            ops: &t.ops,
            values: built,
        };
        compute(&vals, &t.idx[id], &mut slot[0]);
        id
    }

    /// [`Graph::emit`] for the ops without an index list.
    fn node(&mut self, op: Op, compute: impl FnOnce(&Vals<'_, T>, &mut Mat<T>)) -> NodeId {
        self.emit(op, [], |v, _, out| compute(v, out))
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Mat<T> {
        let t = &self.tape;
        Vals {
            weights: self.weights,
            ops: &t.ops,
            values: &t.values,
        }
        .get(id)
    }

    /// Constant input leaf.
    pub fn input(&mut self, m: Mat<T>) -> NodeId {
        self.node(Op::Input, |_, out| *out = m)
    }

    /// Constant input leaf written in place: `fill` receives the slot's
    /// zeroed `rows × cols` buffer. The allocation-free [`Graph::input`].
    pub fn input_fill(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut [T])) -> NodeId {
        self.node(Op::Input, |_, out| {
            out.resize(rows, cols);
            fill(out.as_mut_slice());
        })
    }

    /// Constant input leaf holding a copy of `m`, in the slot's buffer.
    pub fn input_from(&mut self, m: &Mat<T>) -> NodeId {
        self.node(Op::Input, |_, out| copy_into(out, m))
    }

    /// Parameter leaf: reads the tier's weight in place, no copy.
    pub fn param(&mut self, id: ParamId) -> NodeId {
        self.node(Op::Param(id), |_, _| {})
    }

    /// Elementwise `f(a, b)`.
    fn zip(&mut self, op: Op, (a, b): (NodeId, NodeId), f: impl Fn(T, T) -> T) -> NodeId {
        self.node(op, |v, out| out.assign_zip(v.get(a), v.get(b), f))
    }

    /// Elementwise `f(a)`.
    fn map(&mut self, op: Op, a: NodeId, f: impl Fn(T) -> T) -> NodeId {
        self.node(op, |v, out| out.assign_map(v.get(a), f))
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip(Op::Add(a, b), (a, b), |x, y| x + y)
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip(Op::Sub(a, b), (a, b), |x, y| x - y)
    }

    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip(Op::Mul(a, b), (a, b), |x, y| x * y)
    }

    /// `a · k`, with `k` rounded to `T` once.
    pub fn scale(&mut self, a: NodeId, k: f64) -> NodeId {
        let kt = T::from_f64(k);
        self.map(Op::Scale(a, k), a, |x| x * kt)
    }

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.node(Op::MatMul(a, b), |v, out| {
            v.get(a).matmul_into(v.get(b), out)
        })
    }

    /// `a · bᵀ` without materialising the transpose — attention's
    /// `qₕ · kₕᵀ`. Every output element sums over ascending `k`, as
    /// `matmul(a, transpose(b))` would.
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.node(Op::MatMulNT(a, b), |v, out| {
            v.get(a).matmul_pre_t_into(v.get(b), out)
        })
    }

    /// Fully-connected layer `x · W + b` in one node: the matmul, then the
    /// bias broadcast over its rows in place.
    pub fn linear(&mut self, x: NodeId, w: ParamId, b: ParamId) -> NodeId {
        self.node(Op::Linear { x, w, b }, |v, out| {
            v.get(x).matmul_into(v.weight(w), out);
            out.add_row_broadcast_inplace(v.weight(b));
        })
    }

    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.map(Op::Relu(a), a, |x| x.max(T::ZERO))
    }

    pub fn exp(&mut self, a: NodeId) -> NodeId {
        self.map(Op::Exp(a), a, T::exp)
    }

    /// Numerically-stable row-wise softmax.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        self.node(Op::SoftmaxRows(a), |v, out| {
            let src = v.get(a);
            out.set_shape(src.rows(), src.cols());
            for r in 0..src.rows() {
                let (row, out) = (src.row(r), out.row_mut(r));
                let m = row.iter().cloned().fold(T::NEG_INFINITY, T::max);
                let mut s = T::ZERO;
                for (o, &x) in out.iter_mut().zip(row) {
                    *o = (x - m).exp();
                    s += *o;
                }
                for o in out.iter_mut() {
                    *o /= s;
                }
            }
        })
    }

    /// Row-wise LayerNorm: `γ ⊙ (x − μ)/σ + β` with the parameters `γ, β`
    /// of shape `1 × d`.
    pub fn layer_norm(&mut self, x: NodeId, gamma: ParamId, beta: ParamId) -> NodeId {
        let eps = 1e-5;
        let op = Op::LayerNorm {
            x,
            gamma,
            beta,
            eps,
        };
        self.node(op, |v, out| {
            let (src, g, b) = (v.get(x), v.weight(gamma), v.weight(beta));
            assert_eq!(g.shape(), (1, src.cols()), "gamma must be 1×d");
            assert_eq!(b.shape(), (1, src.cols()), "beta must be 1×d");
            let (g, b, eps) = (g.as_slice(), b.as_slice(), T::from_f64(eps));
            out.set_shape(src.rows(), src.cols());
            for r in 0..src.rows() {
                let row = src.row(r);
                let d = T::from_f64(row.len() as f64);
                let mean = row.iter().sum::<T>() / d;
                let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<T>() / d;
                let inv = T::ONE / (var + eps).sqrt();
                for (i, (o, &v)) in out.row_mut(r).iter_mut().zip(row).enumerate() {
                    *o = g[i] * (v - mean) * inv + b[i];
                }
            }
        })
    }

    pub fn mul_row_broadcast(&mut self, a: NodeId, row: NodeId) -> NodeId {
        self.node(Op::MulRowBroadcast(a, row), |v, out| {
            let (av, rv) = (v.get(a), v.get(row));
            assert_eq!(rv.rows(), 1);
            assert_eq!(rv.cols(), av.cols());
            copy_into(out, av);
            for r in 0..out.rows() {
                for (x, &w) in out.row_mut(r).iter_mut().zip(rv.as_slice()) {
                    *x *= w;
                }
            }
        })
    }

    pub fn mul_col_broadcast(&mut self, a: NodeId, col: NodeId) -> NodeId {
        self.node(Op::MulColBroadcast(a, col), |v, out| {
            let (av, cv) = (v.get(a), v.get(col));
            assert_eq!(cv.cols(), 1);
            assert_eq!(cv.rows(), av.rows());
            out.set_shape(av.rows(), av.cols());
            for (r, &w) in cv.as_slice().iter().enumerate() {
                for (o, &x) in out.row_mut(r).iter_mut().zip(av.row(r)) {
                    *o = x * w;
                }
            }
        })
    }

    pub fn gather_rows(&mut self, a: NodeId, idx: &[usize]) -> NodeId {
        self.emit(Op::GatherRows(a), idx.iter().copied(), |v, idx, out| {
            gather_into(out, v.get(a), idx)
        })
    }

    /// Inverse of gather: place `src`'s rows at positions `idx` in a
    /// zero-filled `rows × cols` matrix. `idx` must be unique positions.
    pub fn scatter_rows(&mut self, src: NodeId, idx: &[usize], rows: usize) -> NodeId {
        self.emit(Op::ScatterRows(src), idx.iter().copied(), |v, idx, out| {
            let sv = v.get(src);
            assert_eq!(sv.rows(), idx.len());
            out.resize(rows, sv.cols());
            for (r, &target) in idx.iter().enumerate() {
                out.row_mut(target).copy_from_slice(sv.row(r));
            }
        })
    }

    /// Pick `a[(r, col)]` for each listed row into a `len × 1` column
    /// vector.
    pub fn select_col(&mut self, a: NodeId, rows: &[usize], col: usize) -> NodeId {
        let (n, cols) = self.value(a).shape();
        let flat = rows.iter().map(|&r| {
            assert!(r < n && col < cols, "element ({r},{col}) out of bounds");
            r * cols + col
        });
        self.emit(Op::SelectElems(a), flat, |v, idx, out| {
            out.set_shape(idx.len(), 1);
            for (o, &at) in out.as_mut_slice().iter_mut().zip(idx) {
                *o = v.get(a).as_slice()[at];
            }
        })
    }

    pub fn slice_cols(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        self.node(Op::SliceCols(a, start), |v, out| {
            let av = v.get(a);
            assert!(start <= end && end <= av.cols());
            out.set_shape(av.rows(), end - start);
            for r in 0..av.rows() {
                out.row_mut(r).copy_from_slice(&av.row(r)[start..end]);
            }
        })
    }

    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        self.emit(Op::ConcatCols, parts.iter().copied(), |v, parts, out| {
            let rows = v.get(parts[0]).rows();
            out.set_shape(rows, parts.iter().map(|&p| v.get(p).cols()).sum());
            let mut off = 0;
            for &p in parts {
                let pv = v.get(p);
                assert_eq!(pv.rows(), rows, "hstack row mismatch");
                for r in 0..rows {
                    out.row_mut(r)[off..off + pv.cols()].copy_from_slice(pv.row(r));
                }
                off += pv.cols();
            }
        })
    }

    /// Sum of all elements as a `1 × 1` matrix.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        self.node(Op::SumAll(a), |v, out| {
            out.set_shape(1, 1);
            out.as_mut_slice()[0] = v.get(a).as_slice().iter().sum();
        })
    }

    /// Column means as a `1 × cols` row vector.
    pub fn col_means(&mut self, a: NodeId) -> NodeId {
        self.node(Op::ColMeans(a), |v, out| {
            let av = v.get(a);
            col_sums_into(out, av.rows(), av.cols(), |r, c| av[(r, c)]);
            if av.rows() > 0 {
                let n = T::from_f64(av.rows() as f64);
                out.map_inplace(|x| x / n);
            }
        })
    }
}

/// What only the training scalar has: the activations [`ns_linalg::Scalar`]
/// does not carry, the losses, and the backward pass.
impl Graph<'_> {
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.map(Op::Tanh(a), a, f64::tanh)
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.map(Op::Sigmoid(a), a, |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Mean of all elements as a `1 × 1` matrix.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        self.node(Op::MeanAll(a), |v, out| {
            out.set_shape(1, 1);
            out.as_mut_slice()[0] = v.get(a).mean();
        })
    }

    // ---------------------------------------------------------------
    // Composite conveniences
    // ---------------------------------------------------------------

    /// Mean squared error between two same-shape nodes (scalar node).
    pub fn mse(&mut self, pred: NodeId, target: NodeId) -> NodeId {
        let d = self.sub(pred, target);
        let sq = self.mul(d, d);
        self.mean_all(sq)
    }

    /// Weighted MSE (paper Eq. 5): per-metric weights `w` (`1 × M` input
    /// node) applied to squared errors before averaging.
    pub fn wmse(&mut self, pred: NodeId, target: NodeId, weights: NodeId) -> NodeId {
        let d = self.sub(pred, target);
        let sq = self.mul(d, d);
        let w = self.mul_row_broadcast(sq, weights);
        self.mean_all(w)
    }

    /// Scalar value of a `1 × 1` node.
    pub fn scalar(&self, id: NodeId) -> f64 {
        let v = self.value(id);
        assert_eq!(v.shape(), (1, 1), "scalar() requires a 1×1 node");
        v.as_slice()[0]
    }

    // ---------------------------------------------------------------
    // Backward
    // ---------------------------------------------------------------

    /// Backpropagate from a scalar (`1 × 1`) loss node; returns gradients
    /// for every parameter reachable from it.
    pub fn backward(&mut self, loss: NodeId) -> GradStore {
        let mut grads = self.params.zero_grads();
        self.backward_into(loss, &mut grads);
        grads
    }

    /// [`Graph::backward`] into a reused store (aligned with this graph's
    /// parameters): zeroed, then filled. Bit-identical to a fresh one.
    pub fn backward_into(&mut self, loss: NodeId, grads: &mut GradStore) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        assert_eq!(grads.len(), self.params.len(), "grad store alignment");
        grads.zero();
        let t = &mut self.tape;
        let v = Vals {
            weights: self.weights,
            ops: &t.ops,
            values: &t.values,
        };
        let [tmp, gw, gb] = &mut t.tmp;
        if t.grads.len() < t.values.len() {
            t.grads.resize_with(t.values.len(), Matrix::default);
        }
        t.seen.clear();
        t.seen.resize(t.values.len(), false);
        t.seen[loss] = true;
        t.grads[loss].set_shape(1, 1);
        t.grads[loss].as_mut_slice()[0] = 1.0;

        for id in (0..=loss).rev() {
            if !t.seen[id] {
                continue;
            }
            let (parents, rest) = t.grads.split_at_mut(id);
            let gout = &rest[0];
            let mut to = Sink {
                grads: parents,
                seen: &mut t.seen[..id],
                tmp: &mut *tmp,
            };
            let idx = &t.idx[id];
            let pass = |g: &mut Matrix| copy_into(g, gout);
            match t.ops[id] {
                Op::Input => {}
                Op::Param(pid) => grads.accumulate(pid, gout),
                Op::Add(a, b) => {
                    to.put(a, pass);
                    to.put(b, pass);
                }
                Op::Sub(a, b) => {
                    to.put(a, pass);
                    to.put(b, |g| g.assign_map(gout, |x| -x));
                }
                Op::Mul(a, b) => {
                    to.put(a, |g| g.assign_zip(gout, v.get(b), |x, y| x * y));
                    to.put(b, |g| g.assign_zip(gout, v.get(a), |x, y| x * y));
                }
                Op::Scale(a, k) => to.put(a, |g| g.assign_map(gout, |x| x * k)),
                // ga = gout·bᵀ and gb = aᵀ·gout, read off the stored
                // operands: no transpose is materialised.
                Op::MatMul(a, b) => {
                    to.put(a, |g| gout.matmul_pre_t_into(v.get(b), g));
                    to.put(b, |g| v.get(a).matmul_lhs_t_into(gout, g));
                }
                // ga = gout·b and gb = goutᵀ·a: the sums `MatMul`'s rule
                // would run through a materialised transpose.
                Op::MatMulNT(a, b) => {
                    to.put(a, |g| gout.matmul_into(v.get(b), g));
                    to.put(b, |g| gout.matmul_lhs_t_into(v.get(a), g));
                }
                Op::Linear { x, w, b } => {
                    to.put(x, |g| gout.matmul_pre_t_into(v.weight(w), g));
                    col_sums_into(gb, gout.rows(), gout.cols(), |r, c| gout[(r, c)]);
                    grads.accumulate(b, gb);
                    v.get(x).matmul_lhs_t_into(gout, gw);
                    grads.accumulate(w, gw);
                }
                Op::Relu(a) => to.put(a, |g| {
                    g.assign_zip(gout, v.get(a), |g, x| if x > 0.0 { g } else { 0.0 })
                }),
                Op::Tanh(a) => to.put(a, |g| {
                    g.assign_zip(gout, v.get(id), |g, y| g * (1.0 - y * y))
                }),
                Op::Sigmoid(a) => to.put(a, |g| {
                    g.assign_zip(gout, v.get(id), |g, y| g * y * (1.0 - y))
                }),
                Op::Exp(a) => to.put(a, |g| g.assign_zip(gout, v.get(id), |g, y| g * y)),
                Op::SoftmaxRows(a) => to.put(a, |g| {
                    let y = v.get(id);
                    pass(g);
                    for r in 0..g.rows() {
                        let yr = y.row(r);
                        let gr = g.row_mut(r);
                        let dot: f64 = gr.iter().zip(yr).map(|(gy, yy)| gy * yy).sum();
                        for (gv, &yv) in gr.iter_mut().zip(yr) {
                            *gv = yv * (*gv - dot);
                        }
                    }
                }),
                Op::LayerNorm {
                    x,
                    gamma,
                    beta,
                    eps,
                } => {
                    let xv = v.get(x);
                    let gv = v.weight(gamma).as_slice();
                    let (rows, d) = xv.shape();
                    let df = d as f64;
                    gw.resize(1, d);
                    gb.resize(1, d);
                    to.put(x, |gx| {
                        gx.set_shape(rows, d);
                        for r in 0..rows {
                            let row = xv.row(r);
                            let mean = row.iter().sum::<f64>() / df;
                            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / df;
                            let inv = 1.0 / (var + eps).sqrt();
                            let xhat = |i: usize| (row[i] - mean) * inv;
                            let dy = gout.row(r);
                            let dxhat = |i: usize| dy[i] * gv[i];
                            // Parameter grads.
                            let rows = gw.as_mut_slice().iter_mut().zip(gb.as_mut_slice());
                            for (i, (gg, gb)) in rows.enumerate() {
                                *gg += dy[i] * xhat(i);
                                *gb += dy[i];
                            }
                            // Input grad.
                            let sum_dxhat: f64 = (0..d).map(dxhat).sum();
                            let sum_dxhat_xhat: f64 = (0..d).map(|i| dxhat(i) * xhat(i)).sum();
                            for (i, out) in gx.row_mut(r).iter_mut().enumerate() {
                                *out = inv / df
                                    * (df * dxhat(i) - sum_dxhat - xhat(i) * sum_dxhat_xhat);
                            }
                        }
                    });
                    grads.accumulate(gamma, gw);
                    grads.accumulate(beta, gb);
                }
                Op::MulRowBroadcast(a, row) => {
                    to.put(a, |g| {
                        pass(g);
                        for r in 0..g.rows() {
                            for (x, w) in g.row_mut(r).iter_mut().zip(v.get(row).as_slice()) {
                                *x *= w;
                            }
                        }
                    });
                    let av = v.get(a);
                    to.put(row, |g| {
                        col_sums_into(g, gout.rows(), gout.cols(), |r, c| {
                            gout[(r, c)] * av[(r, c)]
                        })
                    });
                }
                Op::MulColBroadcast(a, col) => {
                    to.put(a, |g| {
                        pass(g);
                        for (r, &w) in v.get(col).as_slice().iter().enumerate() {
                            for x in g.row_mut(r).iter_mut() {
                                *x *= w;
                            }
                        }
                    });
                    let av = v.get(a);
                    to.put(col, |g| {
                        g.set_shape(gout.rows(), 1);
                        for (r, o) in g.as_mut_slice().iter_mut().enumerate() {
                            *o = gout.row(r).iter().zip(av.row(r)).map(|(g, x)| g * x).sum();
                        }
                    });
                }
                Op::GatherRows(a) => to.put(a, |g| {
                    g.resize(v.get(a).rows(), gout.cols());
                    for (r, &src) in idx.iter().enumerate() {
                        for (slot, &v) in g.row_mut(src).iter_mut().zip(gout.row(r)) {
                            *slot += v;
                        }
                    }
                }),
                Op::ScatterRows(src) => to.put(src, |g| gather_into(g, gout, idx)),
                Op::SelectElems(a) => to.put(a, |g| {
                    let (rows, cols) = v.get(a).shape();
                    g.resize(rows, cols);
                    for (&at, &v) in idx.iter().zip(gout.as_slice()) {
                        g.as_mut_slice()[at] += v;
                    }
                }),
                Op::SliceCols(a, start) => to.put(a, |g| {
                    let (rows, cols) = v.get(a).shape();
                    g.resize(rows, cols);
                    for r in 0..rows {
                        g.row_mut(r)[start..start + gout.cols()].copy_from_slice(gout.row(r));
                    }
                }),
                Op::ConcatCols => {
                    let mut off = 0;
                    for &p in idx {
                        let w = v.get(p).cols();
                        to.put(p, |g| {
                            g.set_shape(gout.rows(), w);
                            for r in 0..gout.rows() {
                                g.row_mut(r).copy_from_slice(&gout.row(r)[off..off + w]);
                            }
                        });
                        off += w;
                    }
                }
                Op::SumAll(a) => to.put(a, |g| fill_like(g, v.get(a), gout.as_slice()[0])),
                Op::MeanAll(a) => to.put(a, |g| {
                    let n = v.get(a).len().max(1) as f64;
                    fill_like(g, v.get(a), gout.as_slice()[0] / n)
                }),
                Op::ColMeans(a) => to.put(a, |g| {
                    let (r, c) = v.get(a).shape();
                    g.set_shape(r, c);
                    for rr in 0..r {
                        for (slot, &v) in g.row_mut(rr).iter_mut().zip(gout.as_slice()) {
                            *slot = v / r as f64;
                        }
                    }
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;

    #[test]
    fn scalar_chain_gradient() {
        // f(w) = mean((w * 3)²) over a 2×2 param.
        let mut params = ParamStore::new(1);
        let w = params.add("w", Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]));
        let mut g = Graph::new(&params);
        let wn = g.param(w);
        let s = g.scale(wn, 3.0);
        let sq = g.mul(s, s);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        // d/dw mean(9w²) = 18w/4.
        for (gv, wv) in grads.get(w).as_slice().iter().zip(params.get(w).as_slice()) {
            assert!((gv - 18.0 * wv / 4.0).abs() < 1e-10);
        }
    }

    #[test]
    fn matmul_gradcheck() {
        check_gradients(3, &[(2, 3), (3, 4)], |g, ps| {
            let a = g.param(ps[0]);
            let b = g.param(ps[1]);
            let c = g.matmul(a, b);
            let sq = g.mul(c, c);
            g.mean_all(sq)
        });
    }

    #[test]
    fn elementwise_ops_gradcheck() {
        check_gradients(5, &[(3, 3), (3, 3)], |g, ps| {
            let a = g.param(ps[0]);
            let b = g.param(ps[1]);
            let t = g.tanh(a);
            let s = g.sigmoid(b);
            let m = g.mul(t, s);
            let e = g.exp(m);
            let r = g.relu(e);
            g.mean_all(r)
        });
    }

    #[test]
    fn softmax_gradcheck() {
        check_gradients(7, &[(4, 5)], |g, ps| {
            let a = g.param(ps[0]);
            let sm = g.softmax_rows(a);
            // Asymmetric functional so gradients are nontrivial.
            let sq = g.mul(sm, sm);
            let s = g.sum_all(sq);
            g.scale(s, 0.5)
        });
    }

    #[test]
    fn layernorm_gradcheck() {
        check_gradients(11, &[(4, 6), (1, 6), (1, 6)], |g, ps| {
            let x = g.param(ps[0]);
            let y = g.layer_norm(x, ps[1], ps[2]);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn broadcast_ops_gradcheck() {
        check_gradients(13, &[(4, 3), (1, 3), (4, 1)], |g, ps| {
            let a = g.param(ps[0]);
            let row = g.param(ps[1]);
            let col = g.param(ps[2]);
            let y = g.mul_row_broadcast(a, row);
            let z = g.mul_col_broadcast(y, col);
            let sq = g.mul(z, z);
            g.mean_all(sq)
        });
    }

    #[test]
    fn gather_scatter_select_gradcheck() {
        check_gradients(17, &[(5, 3)], |g, ps| {
            let a = g.param(ps[0]);
            let gathered = g.gather_rows(a, &[4, 0, 2]);
            let scattered = g.scatter_rows(gathered, &[1, 3, 0], 5);
            let picked = g.select_col(scattered, &[0, 1, 3, 1], 2);
            let sq = g.mul(picked, picked);
            g.sum_all(sq)
        });
    }

    #[test]
    fn slice_concat_gradcheck() {
        check_gradients(19, &[(3, 6)], |g, ps| {
            let a = g.param(ps[0]);
            let left = g.slice_cols(a, 0, 3);
            let right = g.slice_cols(a, 3, 6);
            let prod = g.mul(left, right);
            let cat = g.concat_cols(&[prod, left]);
            let sq = g.mul(cat, cat);
            g.mean_all(sq)
        });
    }

    #[test]
    fn reductions_and_losses_gradcheck() {
        check_gradients(23, &[(4, 4), (1, 4)], |g, ps| {
            let a = g.param(ps[0]);
            let w = g.param(ps[1]);
            let target = g.input(Matrix::filled(4, 4, 0.3));
            let l1 = g.wmse(a, target, w);
            let cm = g.col_means(a);
            let cm2 = g.mul(cm, cm);
            let l2 = g.sum_all(cm2);
            let tot = g.add(l1, l2);
            g.scale(tot, 1.0)
        });
    }

    #[test]
    fn matmul_nt_gradcheck() {
        check_gradients(29, &[(3, 5), (4, 5)], |g, ps| {
            let a = g.param(ps[0]);
            let b = g.param(ps[1]);
            let ab = g.matmul_nt(a, b);
            let aa = g.matmul_nt(a, a);
            let sq = g.mul(ab, ab);
            let l = g.mean_all(sq);
            let s = g.sum_all(aa);
            g.add(l, s)
        });
    }

    #[test]
    fn linear_gradcheck() {
        check_gradients(37, &[(4, 3), (3, 5), (1, 5), (5, 2), (1, 2)], |g, ps| {
            let x = g.param(ps[0]);
            let h = g.linear(x, ps[1], ps[2]);
            let a = g.relu(h);
            let y = g.linear(a, ps[3], ps[4]);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn gradient_accumulates_over_shared_subexpression() {
        // y = w + w → dy/dw = 2.
        let mut params = ParamStore::new(2);
        let w = params.add("w", Matrix::filled(2, 2, 1.5));
        let mut g = Graph::new(&params);
        let wn = g.param(w);
        let y = g.add(wn, wn);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert!(grads
            .get(w)
            .as_slice()
            .iter()
            .all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn unreachable_nodes_get_no_grad() {
        let mut params = ParamStore::new(3);
        let w = params.add("w", Matrix::filled(1, 1, 1.0));
        let u = params.add("u", Matrix::filled(1, 1, 1.0));
        let mut g = Graph::new(&params);
        let wn = g.param(w);
        let _un = g.param(u); // unused
        let loss = g.sum_all(wn);
        let grads = g.backward(loss);
        assert_eq!(grads.get(w).as_slice()[0], 1.0);
        assert_eq!(grads.get(u).as_slice()[0], 0.0);
    }

    #[test]
    fn mse_value_is_correct() {
        let params = ParamStore::new(4);
        let mut g = Graph::new(&params);
        let a = g.input(Matrix::from_rows(&[vec![1.0, 2.0]]));
        let b = g.input(Matrix::from_rows(&[vec![0.0, 4.0]]));
        let l = g.mse(a, b);
        assert!((g.scalar(l) - 2.5).abs() < 1e-12); // (1 + 4)/2
    }
}
