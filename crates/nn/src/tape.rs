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
use ns_linalg::matrix::Matrix;

/// Handle to a node in the tape.
pub type NodeId = usize;

/// Tape operation. Parents are always lower `NodeId`s; index lists
/// (gather/scatter rows, selected elements, concatenated parts) live in
/// the node's recycled `idx` slot, which is what keeps `Op` `Copy`.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Constant input (no gradient tracked beyond the tape).
    Input,
    /// Learnable parameter leaf; its value is read from the store.
    Param(ParamId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    /// Elementwise product.
    Mul(NodeId, NodeId),
    Scale(NodeId, f64),
    MatMul(NodeId, NodeId),
    Transpose(NodeId),
    Relu(NodeId),
    Tanh(NodeId),
    Sigmoid(NodeId),
    Exp(NodeId),
    /// Row-wise softmax.
    SoftmaxRows(NodeId),
    /// Row-wise LayerNorm with learnable gain/shift (`1 × d` each).
    LayerNorm {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f64,
    },
    /// `a + row` with `row` broadcast over all rows of `a`.
    AddRowBroadcast(NodeId, NodeId),
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

/// A graph's storage, detached from any parameter store so it can be
/// parked between examples (see the module docs). `Tape::default()` is an
/// empty one; every slot vector only ever grows.
#[derive(Default)]
pub struct Tape {
    /// The live graph: one entry per node of the current example.
    ops: Vec<Op>,
    /// Per-position slots, at least `ops.len()` of each.
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
    /// Whether `grads[i]` was reached by the last backward sweep.
    seen: Vec<bool>,
    idx: Vec<Vec<usize>>,
    /// Backward scratch: a non-first gradient contribution, and
    /// LayerNorm's two parameter-gradient rows.
    tmp: [Matrix; 3],
    /// Scratch the layers borrow so their own bookkeeping recycles too:
    /// a list of node ids or sort order, and per-expert token lists.
    pub(crate) ids: Vec<usize>,
    pub(crate) route: Vec<Vec<usize>>,
}

/// Read access to the values of already-built nodes.
struct Vals<'a> {
    params: &'a ParamStore,
    ops: &'a [Op],
    values: &'a [Matrix],
}

impl<'a> Vals<'a> {
    fn get(&self, id: NodeId) -> &'a Matrix {
        match self.ops[id] {
            Op::Param(pid) => self.params.get(pid),
            _ => &self.values[id],
        }
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
fn copy_into(out: &mut Matrix, src: &Matrix) {
    out.assign_map(src, |x| x);
}

/// `out` = per-column sums of the `rows × cols` values `elem(r, c)`,
/// accumulated from `+0.0` over ascending `r` — `Matrix::col_sums`.
fn col_sums_into(out: &mut Matrix, rows: usize, cols: usize, elem: impl Fn(usize, usize) -> f64) {
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
fn gather_into(out: &mut Matrix, src: &Matrix, idx: &[usize]) {
    out.set_shape(idx.len(), src.cols());
    for (r, &i) in idx.iter().enumerate() {
        out.row_mut(r).copy_from_slice(src.row(i));
    }
}

/// An autodiff tape bound to a [`ParamStore`].
pub struct Graph<'p> {
    params: &'p ParamStore,
    pub(crate) tape: Tape,
}

impl<'p> Graph<'p> {
    pub fn new(params: &'p ParamStore) -> Self {
        Self::recycle(params, Tape::default())
    }

    /// An empty graph that builds into `tape`'s buffers (see the module
    /// docs). Results are bit-identical to a [`Graph::new`] graph's.
    pub fn recycle(params: &'p ParamStore, mut tape: Tape) -> Self {
        tape.ops.clear();
        Self { params, tape }
    }

    /// Give the storage back for the next [`Graph::recycle`].
    pub fn into_tape(self) -> Tape {
        self.tape
    }

    /// Append a node: `compute` reads earlier nodes and overwrites the
    /// slot's value buffer; `idx` becomes the node's index list.
    fn emit(
        &mut self,
        op: Op,
        idx: impl IntoIterator<Item = usize>,
        compute: impl FnOnce(&Vals<'_>, &[usize], &mut Matrix),
    ) -> NodeId {
        let t = &mut self.tape;
        let id = t.ops.len();
        t.ops.push(op);
        if t.values.len() == id {
            t.values.push(Matrix::default());
            t.grads.push(Matrix::default());
            t.seen.push(false);
            t.idx.push(Vec::new());
        }
        t.idx[id].clear();
        t.idx[id].extend(idx);
        let (built, slot) = t.values.split_at_mut(id);
        let vals = Vals {
            params: self.params,
            ops: &t.ops,
            values: built,
        };
        compute(&vals, &t.idx[id], &mut slot[0]);
        id
    }

    /// [`Graph::emit`] for the ops without an index list.
    fn node(&mut self, op: Op, compute: impl FnOnce(&Vals<'_>, &mut Matrix)) -> NodeId {
        self.emit(op, [], |v, _, out| compute(v, out))
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        let t = &self.tape;
        Vals {
            params: self.params,
            ops: &t.ops,
            values: &t.values,
        }
        .get(id)
    }

    /// Gradient of a node after [`Graph::backward`] (None if unreached).
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.tape.seen[id].then(|| &self.tape.grads[id])
    }

    /// Constant input leaf.
    pub fn input(&mut self, m: Matrix) -> NodeId {
        self.node(Op::Input, |_, out| *out = m)
    }

    /// Constant input leaf written in place: `fill` receives the slot's
    /// zeroed `rows × cols` buffer. The allocation-free [`Graph::input`].
    pub fn input_fill(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut [f64]),
    ) -> NodeId {
        self.node(Op::Input, |_, out| {
            out.resize(rows, cols);
            fill(out.as_mut_slice());
        })
    }

    /// Constant input leaf holding a copy of `m`, in the slot's buffer.
    pub fn input_from(&mut self, m: &Matrix) -> NodeId {
        self.node(Op::Input, |_, out| copy_into(out, m))
    }

    /// Parameter leaf: reads the store's matrix in place, no copy.
    pub fn param(&mut self, id: ParamId) -> NodeId {
        self.node(Op::Param(id), |_, _| {})
    }

    /// Elementwise `f(a, b)`.
    fn zip(&mut self, op: Op, (a, b): (NodeId, NodeId), f: impl Fn(f64, f64) -> f64) -> NodeId {
        self.node(op, |v, out| out.assign_zip(v.get(a), v.get(b), f))
    }

    /// Elementwise `f(a)`.
    fn map(&mut self, op: Op, a: NodeId, f: impl Fn(f64) -> f64) -> NodeId {
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

    pub fn scale(&mut self, a: NodeId, k: f64) -> NodeId {
        self.map(Op::Scale(a, k), a, |x| x * k)
    }

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.node(Op::MatMul(a, b), |v, out| {
            v.get(a).matmul_into(v.get(b), out)
        })
    }

    /// Matmul whose left operand is structurally sparse (e.g. post-ReLU
    /// activations): the forward uses the zero-skipping kernel, which is
    /// bit-identical to the dense one for finite inputs. The backward pass
    /// is the ordinary matmul rule.
    pub fn matmul_sparse_lhs(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.node(Op::MatMul(a, b), |v, out| {
            v.get(a).matmul_sparse_lhs_into(v.get(b), out)
        })
    }

    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        self.node(Op::Transpose(a), |v, out| v.get(a).transpose_into(out))
    }

    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.map(Op::Relu(a), a, |x| x.max(0.0))
    }

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.map(Op::Tanh(a), a, f64::tanh)
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.map(Op::Sigmoid(a), a, |x| 1.0 / (1.0 + (-x).exp()))
    }

    pub fn exp(&mut self, a: NodeId) -> NodeId {
        self.map(Op::Exp(a), a, f64::exp)
    }

    /// Numerically-stable row-wise softmax.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        self.node(Op::SoftmaxRows(a), |v, out| {
            copy_into(out, v.get(a));
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut s = 0.0;
                for x in row.iter_mut() {
                    *x = (*x - m).exp();
                    s += *x;
                }
                for x in row.iter_mut() {
                    *x /= s;
                }
            }
        })
    }

    /// Row-wise LayerNorm: `γ ⊙ (x − μ)/σ + β` with `γ, β` of shape `1 × d`.
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId) -> NodeId {
        let eps = 1e-5;
        let op = Op::LayerNorm {
            x,
            gamma,
            beta,
            eps,
        };
        self.node(op, |v, out| {
            let (src, g, b) = (v.get(x), v.get(gamma), v.get(beta));
            assert_eq!(g.shape(), (1, src.cols()), "gamma must be 1×d");
            assert_eq!(b.shape(), (1, src.cols()), "beta must be 1×d");
            copy_into(out, src);
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                let d = row.len() as f64;
                let mean = row.iter().sum::<f64>() / d;
                let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / d;
                let inv = 1.0 / (var + eps).sqrt();
                for (i, v) in row.iter_mut().enumerate() {
                    *v = g.as_slice()[i] * (*v - mean) * inv + b.as_slice()[i];
                }
            }
        })
    }

    pub fn add_row_broadcast(&mut self, a: NodeId, row: NodeId) -> NodeId {
        self.node(Op::AddRowBroadcast(a, row), |v, out| {
            copy_into(out, v.get(a));
            out.add_row_broadcast_inplace(v.get(row));
        })
    }

    pub fn mul_row_broadcast(&mut self, a: NodeId, row: NodeId) -> NodeId {
        self.node(Op::MulRowBroadcast(a, row), |v, out| {
            let (av, rv) = (v.get(a), v.get(row));
            assert_eq!(rv.rows(), 1);
            assert_eq!(rv.cols(), av.cols());
            copy_into(out, av);
            for r in 0..out.rows() {
                for (x, w) in out.row_mut(r).iter_mut().zip(rv.as_slice()) {
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
            copy_into(out, av);
            for (r, &w) in cv.as_slice().iter().enumerate() {
                for x in out.row_mut(r).iter_mut() {
                    *x *= w;
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

    /// Pick `a[(r, c)]` for each pair into an `len × 1` column vector.
    pub fn select_elems(&mut self, a: NodeId, pairs: &[(usize, usize)]) -> NodeId {
        self.select(a, pairs.iter().copied())
    }

    /// Pick `a[(r, col)]` for each listed row: [`Graph::select_elems`]
    /// down one column, without building the pair list.
    pub fn select_col(&mut self, a: NodeId, rows: &[usize], col: usize) -> NodeId {
        self.select(a, rows.iter().map(|&r| (r, col)))
    }

    fn select(&mut self, a: NodeId, pairs: impl Iterator<Item = (usize, usize)>) -> NodeId {
        let (rows, cols) = self.value(a).shape();
        let flat = pairs.map(|(r, c)| {
            assert!(r < rows && c < cols, "element ({r},{c}) out of bounds");
            r * cols + c
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
            out.as_mut_slice()[0] = v.get(a).sum();
        })
    }

    /// Mean of all elements as a `1 × 1` matrix.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        self.node(Op::MeanAll(a), |v, out| {
            out.set_shape(1, 1);
            out.as_mut_slice()[0] = v.get(a).mean();
        })
    }

    /// Column means as a `1 × cols` row vector.
    pub fn col_means(&mut self, a: NodeId) -> NodeId {
        self.node(Op::ColMeans(a), |v, out| {
            let av = v.get(a);
            col_sums_into(out, av.rows(), av.cols(), |r, c| av[(r, c)]);
            if av.rows() > 0 {
                out.map_inplace(|x| x / av.rows() as f64);
            }
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
            params: self.params,
            ops: &t.ops,
            values: &t.values,
        };
        let [tmp, ggamma, gbeta] = &mut t.tmp;
        t.seen.fill(false);
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
                Op::Transpose(a) => to.put(a, |g| gout.transpose_into(g)),
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
                    let gv = v.get(gamma).as_slice();
                    let (rows, d) = xv.shape();
                    let df = d as f64;
                    ggamma.resize(1, d);
                    gbeta.resize(1, d);
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
                            let rows = ggamma.as_mut_slice().iter_mut().zip(gbeta.as_mut_slice());
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
                    to.put(gamma, |g| copy_into(g, ggamma));
                    to.put(beta, |g| copy_into(g, gbeta));
                }
                Op::AddRowBroadcast(a, row) => {
                    to.put(a, pass);
                    to.put(row, |g| {
                        col_sums_into(g, gout.rows(), gout.cols(), |r, c| gout[(r, c)])
                    });
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
            let gamma = g.param(ps[1]);
            let beta = g.param(ps[2]);
            let y = g.layer_norm(x, gamma, beta);
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
            let x = g.add_row_broadcast(a, row);
            let y = g.mul_row_broadcast(x, row);
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
            let picked = g.select_elems(scattered, &[(0, 0), (1, 2), (3, 1)]);
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
    fn transpose_gradcheck() {
        check_gradients(29, &[(3, 5)], |g, ps| {
            let a = g.param(ps[0]);
            let at = g.transpose(a);
            let prod = g.matmul(a, at);
            let sq = g.mul(prod, prod);
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
