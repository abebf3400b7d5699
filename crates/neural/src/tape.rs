//! Reverse-mode automatic differentiation over [`Matrix`] operations.
//!
//! A [`Tape`] records every forward operation; [`Tape::backward`] walks the
//! record in reverse and accumulates gradients. Model parameters live in a
//! [`ParamStore`]; each training step copies the needed parameters onto the
//! tape with [`Tape::param`], and after backward the per-parameter gradients
//! are collected with [`Tape::param_grads`].
//!
//! A training loop keeps one tape and calls [`Tape::reset`] between steps.
//! Every value and gradient buffer comes from the tape's arena and goes back
//! to it at the reset, so once the first step has sized the arena a loop
//! over same-shaped steps allocates nothing. Backward moves a
//! node's gradient on to its inputs where it can, adds in place where it
//! cannot, and runs the large products through the exact training kernels
//! of [`crate::kernel`] (two-thread row splits and a k-outer `aᵀ·B`), so
//! every gradient has the bits of the plain single-thread products.

use crate::avec::AVec;
use crate::kernel;
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::OnceLock;

/// Handle to a value recorded on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// Handle to a parameter stored in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Storage for trainable parameters plus Adam moment estimates.
#[derive(Clone, Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    pub(crate) m: Vec<Matrix>,
    pub(crate) v: Vec<Matrix>,
    // Lazily materialized transposes, consumed by the inference fast path
    // (`Matrix::matmul_transposed_into` wants weight columns contiguous).
    // Invalidated in O(1) whenever `value_mut` hands out mutable access.
    transposed: Vec<OnceLock<Matrix>>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with its initial value.
    pub fn alloc(&mut self, init: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.m.push(Matrix::zeros(init.rows(), init.cols()));
        self.v.push(Matrix::zeros(init.rows(), init.cols()));
        self.transposed.push(OnceLock::new());
        self.values.push(init);
        id
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Transpose of a parameter's current value, cached after first use.
    pub fn value_t(&self, id: ParamId) -> &Matrix {
        self.transposed[id.0].get_or_init(|| self.values[id.0].transpose())
    }

    /// Mutable value. Drops the cached transpose.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.transposed[id.0] = OnceLock::new();
        &mut self.values[id.0]
    }

    /// A parameter's value and its Adam moments `(value, m, v)`, borrowed
    /// together for one optimizer update. Drops the cached transpose once.
    pub(crate) fn adam_slots(&mut self, id: ParamId) -> (&mut Matrix, &mut Matrix, &mut Matrix) {
        self.transposed[id.0] = OnceLock::new();
        (&mut self.values[id.0], &mut self.m[id.0], &mut self.v[id.0])
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|m| m.data().len()).sum()
    }
}

enum Op {
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    // Backward needs only alpha; beta vanishes under differentiation.
    Affine(Var, f32),
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    SoftmaxRows(Var),
    ConcatCols(Var, Var),
    ConcatRows(Var, Var),
    // The index list is `Tape::gather[start..end]`.
    GatherRows(Var, usize, usize),
    RepeatRow(Var),
    Transpose(Var),
    MeanRows(Var),
    AddRowBroadcast(Var, Var),
    SpMM(Rc<SparseMatrix>, Var),
}

struct Node {
    op: Op,
    value: Matrix,
}

/// The autograd tape. A training loop keeps one and calls [`Tape::reset`]
/// between steps (see the module docs).
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    param_vars: Vec<(ParamId, Var)>,
    // One slot per node after `backward`; only leaves keep theirs.
    grads: Vec<Option<Matrix>>,
    // Filled by `param_grads`.
    param_grads: Vec<(ParamId, Matrix)>,
    // The index lists of the `GatherRows` ops, back to back.
    gather: Vec<usize>,
    // CSR transposes of the `SpMM` operands, built at their first backward
    // and kept across resets while the caller holds the operand: the
    // adjacency is fixed for a training run.
    transposes: Vec<(Rc<SparseMatrix>, SparseMatrix)>,
    // Every value and gradient buffer comes from, and returns to, here.
    arena: Arena,
}

/// The tape's buffer pool, keyed by exact length. A learner's tape holds
/// thousands of small buffers of varied shapes, where a best-fit search
/// (as in [`crate::scratch::Scratch`]) over the pool would cost more than it
/// saves; the shapes of one step recur in the next, so exact lengths find
/// their buffers.
///
/// Each length also keeps the fewest buffers that sat idle in its list at
/// any point of the current step. Those buffers served nothing the whole
/// step, and [`Arena::trim`] frees them at the reset. So a loop whose
/// shapes vary from step to step holds about one step's buffers, as a
/// fresh tape per step would, instead of every shape it has ever seen.
#[derive(Default)]
struct Arena {
    free: BTreeMap<usize, Pool>,
    fresh: u64,
}

#[derive(Default)]
struct Pool {
    bufs: Vec<AVec>,
    // Fewest idle buffers since the last trim.
    idle_low: usize,
}

impl Arena {
    /// A `rows × cols` matrix whose contents are unspecified (stale values
    /// of an earlier use); for results that overwrite every element.
    fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let n = rows * cols;
        let pool = self.free.entry(n).or_default();
        let buf = match pool.bufs.pop() {
            Some(buf) => buf,
            None => {
                self.fresh += 1;
                AVec::zeroed(n)
            }
        };
        pool.idle_low = pool.idle_low.min(pool.bufs.len());
        Matrix::from_avec(rows, cols, buf)
    }

    /// A zero-filled `rows × cols` matrix, for results that accumulate.
    fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.take(rows, cols);
        m.data_mut().fill(0.0);
        m
    }

    fn give(&mut self, m: Matrix) {
        let buf = m.into_avec();
        self.free.entry(buf.len()).or_default().bufs.push(buf);
    }

    /// Frees the buffers that stayed idle since the last trim and starts
    /// the next step's count.
    fn trim(&mut self) {
        self.free.retain(|_, pool| {
            pool.bufs.truncate(pool.bufs.len() - pool.idle_low);
            pool.idle_low = pool.bufs.len();
            !pool.bufs.is_empty()
        });
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every recorded node and gradient and gives their buffers
    /// back to the tape's arena, ready for the next step; buffers the
    /// arena held idle through the whole step are freed. Transposes of
    /// sparse operands are kept while the caller still holds the operand.
    pub fn reset(&mut self) {
        self.release_grads();
        for node in self.nodes.drain(..) {
            self.arena.give(node.value);
        }
        self.arena.trim();
        self.param_vars.clear();
        self.gather.clear();
        // The nodes' handles are gone, so a count of one is the tape's own.
        self.transposes.retain(|(sp, _)| Rc::strong_count(sp) > 1);
    }

    fn release_grads(&mut self) {
        for g in self.grads.drain(..).flatten() {
            self.arena.give(g);
        }
        for (_, g) in self.param_grads.drain(..) {
            self.arena.give(g);
        }
    }

    /// Number of buffers the tape's arena has had to allocate. A loop over
    /// same-shaped steps stops raising it after the first step.
    pub fn arena_allocs(&self) -> u64 {
        self.arena.fresh
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        debug_assert!(value.is_finite(), "non-finite value produced on tape");
        let v = Var(self.nodes.len());
        self.nodes.push(Node { op, value });
        v
    }

    /// Records a constant (gradient is tracked but not collected). Its
    /// buffer joins the tape's arena at the next reset.
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.push(Op::Leaf, m)
    }

    /// Copies a parameter's current value onto the tape, remembering the
    /// association so [`Tape::param_grads`] can report its gradient.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let value = copy_of(&mut self.arena, store.value(id));
        let v = self.push(Op::Leaf, value);
        self.param_vars.push((id, v));
        v
    }

    /// The value recorded for `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// An elementwise map of `a` into an arena buffer.
    fn map(&mut self, a: Var, op: Op, f: impl Fn(f32) -> f32) -> Var {
        let x = &self.nodes[a.0].value;
        let mut out = self.arena.take(x.rows(), x.cols());
        for (o, &xi) in out.data_mut().iter_mut().zip(x.data()) {
            *o = f(xi);
        }
        self.push(op, out)
    }

    /// An elementwise combination of same-shaped `a` and `b`.
    fn zip(&mut self, a: Var, b: Var, op: Op, what: &str, f: impl Fn(f32, f32) -> f32) -> Var {
        let (x, y) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(x.shape(), y.shape(), "{what} shape mismatch");
        let mut out = self.arena.take(x.rows(), x.cols());
        for ((o, &xi), &yi) in out.data_mut().iter_mut().zip(x.data()).zip(y.data()) {
            *o = f(xi, yi);
        }
        self.push(op, out)
    }

    // ------------------------------------------------------------------
    // Operators
    // ------------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (x, y) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let mut out = self.arena.take(x.rows(), y.cols());
        let split = kernel::split_training(x.rows() * x.cols() * y.cols());
        kernel::matmul_into_with(kernel::active(), x, y, &mut out, split);
        self.push(Op::MatMul(a, b), out)
    }

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, Op::Add(a, b), "add", |x, y| x + y)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, Op::Sub(a, b), "add", |x, y| x - y)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, Op::Mul(a, b), "hadamard", |x, y| x * y)
    }

    /// `alpha * a + beta` elementwise.
    pub fn affine(&mut self, a: Var, alpha: f32, beta: f32) -> Var {
        self.map(a, Op::Affine(a, alpha), |x| alpha * x + beta)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.map(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.map(a, Op::Tanh(a), f32::tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.map(a, Op::Sigmoid(a), |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Row-wise softmax (numerically stabilized).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let mut out = self.arena.take(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row = x.row(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, &xi) in out.row_mut(r).iter_mut().zip(row) {
                *o = (xi - max).exp();
                sum += *o;
            }
            for o in out.row_mut(r) {
                *o /= sum;
            }
        }
        self.push(Op::SoftmaxRows(a), out)
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (x, y) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(x.rows(), y.rows(), "concat_cols row mismatch");
        let mut out = self.arena.take(x.rows(), x.cols() + y.cols());
        for r in 0..x.rows() {
            let (left, right) = out.row_mut(r).split_at_mut(x.cols());
            left.copy_from_slice(x.row(r));
            right.copy_from_slice(y.row(r));
        }
        self.push(Op::ConcatCols(a, b), out)
    }

    /// Vertical concatenation: stacks `b` below `a`.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (x, y) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(x.cols(), y.cols(), "concat_rows col mismatch");
        let mut out = self.arena.take(x.rows() + y.rows(), x.cols());
        let (top, bottom) = out.data_mut().split_at_mut(x.data().len());
        top.copy_from_slice(x.data());
        bottom.copy_from_slice(y.data());
        self.push(Op::ConcatRows(a, b), out)
    }

    /// Stacks the selected rows of `a` (repetition allowed).
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let x = &self.nodes[a.0].value;
        let mut out = self.arena.take(indices.len(), x.cols());
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < x.rows(),
                "gather index {idx} out of {} rows",
                x.rows()
            );
            out.row_mut(i).copy_from_slice(x.row(idx));
        }
        let start = self.gather.len();
        self.gather.extend_from_slice(indices);
        self.push(Op::GatherRows(a, start, self.gather.len()), out)
    }

    /// Repeats a 1×d row `n` times producing n×d.
    pub fn repeat_row(&mut self, a: Var, n: usize) -> Var {
        let x = &self.nodes[a.0].value;
        assert_eq!(x.rows(), 1, "repeat_row expects a row vector");
        let mut out = self.arena.take(n, x.cols());
        for r in 0..n {
            out.row_mut(r).copy_from_slice(x.row(0));
        }
        self.push(Op::RepeatRow(a), out)
    }

    /// Transposed copy.
    pub fn transpose(&mut self, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let mut out = self.arena.take(x.cols(), x.rows());
        x.transpose_into(&mut out);
        self.push(Op::Transpose(a), out)
    }

    /// Mean over rows: n×d → 1×d.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let n = x.rows().max(1);
        let mut out = self.arena.zeros(1, x.cols());
        for r in 0..x.rows() {
            for (o, &xi) in out.row_mut(0).iter_mut().zip(x.row(r)) {
                *o += xi;
            }
        }
        let s = 1.0 / n as f32;
        for o in out.data_mut() {
            *o *= s;
        }
        self.push(Op::MeanRows(a), out)
    }

    /// Adds a 1×d row vector `b` to every row of the n×d matrix `a`
    /// (bias broadcast).
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (x, bias) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), x.cols(), "bias width mismatch");
        let mut out = copy_of(&mut self.arena, x);
        for r in 0..out.rows() {
            for (o, &bi) in out.row_mut(r).iter_mut().zip(bias.row(0)) {
                *o += bi;
            }
        }
        self.push(Op::AddRowBroadcast(a, b), out)
    }

    /// Sparse × dense product `sp × a`. The sparse matrix is a fixed
    /// structure (graph adjacency); only `a` receives gradients.
    pub fn spmm(&mut self, sp: &Rc<SparseMatrix>, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let mut out = self.arena.take(sp.rows(), x.cols());
        sp.matmul_dense_into(x, &mut out, kernel::split_training(sp.nnz() * x.cols()));
        self.push(Op::SpMM(Rc::clone(sp), a), out)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Back-propagates `seed_grad` (the gradient of some scalar loss with
    /// respect to `seed`'s value) through the recorded graph. Afterwards
    /// [`Tape::grad`] reads the gradient of every leaf that influenced the
    /// seed; gradients of inner nodes are consumed on the way.
    ///
    /// A node's gradient moves into its input's slot when that slot is
    /// empty and is added in place when it is not, and every contribution
    /// reaches a slot in the same order, through the same kernels' op
    /// sequences, as the plain `a.transpose().matmul(g)`-style rules would
    /// send it. The results are therefore bit-identical to them.
    pub fn backward(&mut self, seed: Var, seed_grad: &Matrix) {
        assert_eq!(
            seed_grad.shape(),
            self.value(seed).shape(),
            "seed gradient shape mismatch"
        );
        self.release_grads();
        let Tape {
            nodes,
            grads,
            gather,
            transposes,
            arena,
            ..
        } = self;
        grads.resize_with(nodes.len(), || None);
        grads[seed.0] = Some(copy_of(arena, seed_grad));
        let kern = kernel::active();

        for (i, node) in nodes.iter().enumerate().rev() {
            let Some(mut g) = grads[i].take() else {
                continue;
            };
            match &node.op {
                // Leaf gradients stay for `grad` / `param_grads`.
                Op::Leaf => grads[i] = Some(g),
                Op::MatMul(a, b) => {
                    let (x, y) = (&nodes[a.0].value, &nodes[b.0].value);
                    let split = kernel::split_training(x.rows() * x.cols() * y.cols());
                    // ga = g·yᵀ, through a transposed copy of y (a weight
                    // matrix, small next to g).
                    let mut yt = arena.take(y.cols(), y.rows());
                    y.transpose_into(&mut yt);
                    let mut ga = arena.take(x.rows(), x.cols());
                    kernel::matmul_into_with(kern, &g, &yt, &mut ga, split);
                    arena.give(yt);
                    // gb = xᵀ·g without materializing xᵀ.
                    let mut gb = arena.take(y.rows(), y.cols());
                    kernel::matmul_at_b_into(kern, x, &g, &mut gb, split);
                    arena.give(g);
                    accumulate(grads, arena, *a, ga);
                    accumulate(grads, arena, *b, gb);
                }
                Op::Add(a, b) => {
                    accumulate_copy(grads, arena, *a, &g);
                    accumulate(grads, arena, *b, g);
                }
                Op::Sub(a, b) => {
                    accumulate_copy(grads, arena, *a, &g);
                    for gi in g.data_mut() {
                        *gi = -*gi;
                    }
                    accumulate(grads, arena, *b, g);
                }
                Op::Mul(a, b) => {
                    let (x, y) = (&nodes[a.0].value, &nodes[b.0].value);
                    let mut ga = arena.take(g.rows(), g.cols());
                    for ((o, &gi), &yi) in ga.data_mut().iter_mut().zip(g.data()).zip(y.data()) {
                        *o = gi * yi;
                    }
                    for (gi, &xi) in g.data_mut().iter_mut().zip(x.data()) {
                        *gi *= xi;
                    }
                    accumulate(grads, arena, *a, ga);
                    accumulate(grads, arena, *b, g);
                }
                Op::Affine(a, alpha) => {
                    for gi in g.data_mut() {
                        *gi *= *alpha;
                    }
                    accumulate(grads, arena, *a, g);
                }
                Op::Relu(a) => {
                    let x = &nodes[a.0].value;
                    // A select rather than a branch: the signs of `x` are
                    // unpredictable, and the select vectorizes.
                    for (gi, &xi) in g.data_mut().iter_mut().zip(x.data()) {
                        *gi = if xi <= 0.0 { 0.0 } else { *gi };
                    }
                    accumulate(grads, arena, *a, g);
                }
                Op::Tanh(a) => {
                    for (gi, &yi) in g.data_mut().iter_mut().zip(node.value.data()) {
                        *gi *= 1.0 - yi * yi;
                    }
                    accumulate(grads, arena, *a, g);
                }
                Op::Sigmoid(a) => {
                    for (gi, &yi) in g.data_mut().iter_mut().zip(node.value.data()) {
                        *gi *= yi * (1.0 - yi);
                    }
                    accumulate(grads, arena, *a, g);
                }
                Op::SoftmaxRows(a) => {
                    let y = &node.value;
                    for r in 0..y.rows() {
                        let dot: f32 = g.row(r).iter().zip(y.row(r)).map(|(gi, yi)| gi * yi).sum();
                        for (gi, &yi) in g.row_mut(r).iter_mut().zip(y.row(r)) {
                            *gi = yi * (*gi - dot);
                        }
                    }
                    accumulate(grads, arena, *a, g);
                }
                Op::ConcatCols(a, b) => {
                    let ca = nodes[a.0].value.cols();
                    let rows = g.rows();
                    let mut ga = arena.take(rows, ca);
                    let mut gb = arena.take(rows, g.cols() - ca);
                    for r in 0..rows {
                        let (left, right) = g.row(r).split_at(ca);
                        ga.row_mut(r).copy_from_slice(left);
                        gb.row_mut(r).copy_from_slice(right);
                    }
                    arena.give(g);
                    accumulate(grads, arena, *a, ga);
                    accumulate(grads, arena, *b, gb);
                }
                Op::ConcatRows(a, b) => {
                    let ra = nodes[a.0].value.rows();
                    let cols = g.cols();
                    let (top, bottom) = g.data().split_at(ra * cols);
                    let mut ga = arena.take(ra, cols);
                    let mut gb = arena.take(g.rows() - ra, cols);
                    ga.data_mut().copy_from_slice(top);
                    gb.data_mut().copy_from_slice(bottom);
                    arena.give(g);
                    accumulate(grads, arena, *a, ga);
                    accumulate(grads, arena, *b, gb);
                }
                Op::GatherRows(a, start, end) => {
                    let src = &nodes[a.0].value;
                    let mut ga = arena.zeros(src.rows(), src.cols());
                    for (i, &idx) in gather[*start..*end].iter().enumerate() {
                        for (o, &gi) in ga.row_mut(idx).iter_mut().zip(g.row(i)) {
                            *o += gi;
                        }
                    }
                    arena.give(g);
                    accumulate(grads, arena, *a, ga);
                }
                Op::RepeatRow(a) => {
                    let ga = sum_rows(arena, &g);
                    arena.give(g);
                    accumulate(grads, arena, *a, ga);
                }
                Op::Transpose(a) => {
                    let mut ga = arena.take(g.cols(), g.rows());
                    g.transpose_into(&mut ga);
                    arena.give(g);
                    accumulate(grads, arena, *a, ga);
                }
                Op::MeanRows(a) => {
                    let x = &nodes[a.0].value;
                    let n = x.rows().max(1) as f32;
                    let mut ga = arena.take(x.rows(), x.cols());
                    for r in 0..x.rows() {
                        for (o, &gi) in ga.row_mut(r).iter_mut().zip(g.row(0)) {
                            *o = gi / n;
                        }
                    }
                    arena.give(g);
                    accumulate(grads, arena, *a, ga);
                }
                Op::SpMM(sp, a) => {
                    let t = match transposes.iter().position(|(s, _)| Rc::ptr_eq(s, sp)) {
                        Some(t) => t,
                        None => {
                            transposes.push((Rc::clone(sp), sp.transpose()));
                            transposes.len() - 1
                        }
                    };
                    let sp_t = &transposes[t].1;
                    let mut ga = arena.take(sp_t.rows(), g.cols());
                    let split = kernel::split_training(sp_t.nnz() * g.cols());
                    sp_t.matmul_dense_into(&g, &mut ga, split);
                    arena.give(g);
                    accumulate(grads, arena, *a, ga);
                }
                Op::AddRowBroadcast(a, b) => {
                    let gb = sum_rows(arena, &g);
                    accumulate(grads, arena, *a, g);
                    accumulate(grads, arena, *b, gb);
                }
            }
        }
    }

    /// Gradient of leaf `v` (a constant or parameter) from the last
    /// [`Tape::backward`], when `v` influenced the seed. Parameter
    /// gradients move out in [`Tape::param_grads`].
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(Option::as_ref)
    }

    /// Per-parameter gradients of the last [`Tape::backward`], summed in
    /// placement order when a parameter was placed on the tape more than
    /// once. Parameters that did not influence the seed are omitted. The
    /// gradients move out of their leaves, and their buffers go back to
    /// the arena at the next backward or reset.
    pub fn param_grads(&mut self) -> &mut [(ParamId, Matrix)] {
        for (_, g) in self.param_grads.drain(..) {
            self.arena.give(g);
        }
        for &(pid, var) in &self.param_vars {
            let Some(g) = self.grads.get_mut(var.0).and_then(Option::take) else {
                continue;
            };
            if let Some(entry) = self.param_grads.iter_mut().find(|(id, _)| *id == pid) {
                entry.1.add_assign(&g);
                self.arena.give(g);
            } else {
                self.param_grads.push((pid, g));
            }
        }
        &mut self.param_grads
    }
}

/// An arena copy of `m`.
fn copy_of(arena: &mut Arena, m: &Matrix) -> Matrix {
    let mut out = arena.take(m.rows(), m.cols());
    out.data_mut().copy_from_slice(m.data());
    out
}

/// Column sums of `g` as a 1×cols arena matrix, rows added in order.
fn sum_rows(arena: &mut Arena, g: &Matrix) -> Matrix {
    let mut out = arena.zeros(1, g.cols());
    for r in 0..g.rows() {
        for (o, &gi) in out.row_mut(0).iter_mut().zip(g.row(r)) {
            *o += gi;
        }
    }
    out
}

/// Adds the contribution `g` to `v`'s gradient slot: `g` becomes the slot
/// when it is empty, else it is added in place and its buffer returned.
fn accumulate(grads: &mut [Option<Matrix>], arena: &mut Arena, v: Var, g: Matrix) {
    match &mut grads[v.0] {
        Some(existing) => {
            existing.add_assign(&g);
            arena.give(g);
        }
        slot @ None => *slot = Some(g),
    }
}

/// [`accumulate`] for a contribution the caller still needs.
fn accumulate_copy(grads: &mut [Option<Matrix>], arena: &mut Arena, v: Var, g: &Matrix) {
    match &mut grads[v.0] {
        Some(existing) => existing.add_assign(g),
        slot @ None => *slot = Some(copy_of(arena, g)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_ones(tape: &Tape, v: Var) -> Matrix {
        let (r, c) = tape.value(v).shape();
        Matrix::full(r, c, 1.0)
    }

    #[test]
    fn value_t_caches_and_invalidates() {
        let mut store = ParamStore::new();
        let id = store.alloc(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        assert_eq!(store.value_t(id), &store.value(id).transpose());
        // Mutation through value_mut must drop the cached transpose.
        store.value_mut(id).data_mut()[0] = 42.0;
        assert_eq!(store.value_t(id)[(0, 0)], 42.0);
        // Cloned stores keep working (OnceLock clones by value).
        let cloned = store.clone();
        assert_eq!(cloned.value_t(id), store.value_t(id));
    }

    #[test]
    fn matmul_gradients() {
        // f = sum(A @ B); dA = ones @ B^T, dB = A^T @ ones
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = t.constant(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = t.matmul(a, b);
        t.backward(c, &seed_ones(&t, c));
        assert_eq!(t.grad(a).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(t.grad(b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn chain_through_activation() {
        // f = sum(relu(x)); negative entries get zero grad.
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(1, 4, vec![-1.0, 0.5, -0.2, 2.0]));
        let y = t.relu(x);
        t.backward(y, &seed_ones(&t, y));
        assert_eq!(t.grad(x).unwrap().data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_grad_sums_to_zero() {
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let y = t.softmax_rows(x);
        for r in 0..2 {
            let s: f32 = t.value(y).row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Seed with an arbitrary gradient; softmax grad rows must sum to ~0.
        let seed = Matrix::from_vec(2, 3, vec![0.3, -0.1, 0.7, 1.0, 0.0, -0.5]);
        t.backward(y, &seed);
        let gx = t.grad(x).unwrap();
        for r in 0..2 {
            let s: f32 = gx.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} grad sum {s}");
        }
    }

    #[test]
    fn gather_rows_scatter_adds() {
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(3, 2, vec![1.0; 6]));
        let y = t.gather_rows(x, &[0, 2, 0]);
        t.backward(y, &seed_ones(&t, y));
        // Row 0 gathered twice, row 1 never, row 2 once.
        assert_eq!(t.grad(x).unwrap().data(), &[2.0, 2.0, 0.0, 0.0, 1.0, 1.0]);
    }

    /// Forward values of the row and column ops, on a fresh tape and
    /// again on a reset one whose arena hands out stale buffers.
    #[test]
    fn gather_and_concat() {
        let mut t = Tape::new();
        for fill in [99.0, 0.0] {
            // Leaves buffers of every output length below in the arena.
            for (r, c) in [(3, 2), (3, 3), (6, 2)] {
                t.constant(Matrix::full(r, c, fill));
            }
            t.reset();
            let a = t.constant(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
            let g = t.gather_rows(a, &[2, 0, 2]);
            assert_eq!(t.value(g).data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
            let b = t.constant(Matrix::from_vec(3, 1, vec![9.0, 8.0, 7.0]));
            let cc = t.concat_cols(a, b);
            assert_eq!(t.value(cc).shape(), (3, 3));
            assert_eq!(t.value(cc).row(1), &[3.0, 4.0, 8.0]);
            assert_eq!(
                t.value(cc).data(),
                &[1.0, 2.0, 9.0, 3.0, 4.0, 8.0, 5.0, 6.0, 7.0]
            );
            let cr = t.concat_rows(a, g);
            assert_eq!(t.value(cr).shape(), (6, 2));
            assert_eq!(
                t.value(cr).data(),
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 5.0, 6.0, 1.0, 2.0, 5.0, 6.0]
            );
        }
    }

    #[test]
    fn elementwise_ops() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let b = t.constant(Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]));
        let sum = t.add(a, b);
        let diff = t.sub(a, b);
        let prod = t.mul(a, b);
        let aff = t.affine(a, 2.0, 0.5);
        assert_eq!(t.value(sum).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.value(diff).data(), &[-3.0, -3.0, -3.0]);
        assert_eq!(t.value(prod).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(t.value(aff).data(), &[2.5, 4.5, 6.5]);
    }

    #[test]
    fn reset_frees_buffers_a_whole_step_left_idle() {
        let step = |t: &mut Tape, n: usize| {
            t.reset();
            let x = t.constant(Matrix::full(n, 3, 0.5));
            let y = t.tanh(x);
            t.backward(y, &Matrix::full(n, 3, 1.0));
        };
        let mut t = Tape::new();
        step(&mut t, 4);
        step(&mut t, 2);
        let allocs = t.arena_allocs();
        // The 4×3 buffers sat idle through the first 2×3 step.
        step(&mut t, 2);
        assert!(!t.arena.free.contains_key(&12));
        assert_eq!(t.arena_allocs(), allocs, "a repeated step allocated");
    }

    #[test]
    fn shared_param_grads_accumulate() {
        let mut store = ParamStore::new();
        let w = store.alloc(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let mut t = Tape::new();
        let w1 = t.param(&store, w);
        let w2 = t.param(&store, w);
        let y = t.add(w1, w2); // y = 2w
        t.backward(y, &seed_ones(&t, y));
        let pg = t.param_grads();
        assert_eq!(pg.len(), 1);
        assert_eq!(pg[0].1.data(), &[2.0, 2.0]);
    }

    #[test]
    fn broadcast_and_mean_grads() {
        let mut t = Tape::new();
        let x = t.constant(Matrix::zeros(3, 2));
        let b = t.constant(Matrix::from_vec(1, 2, vec![1.0, -1.0]));
        let y = t.add_row_broadcast(x, b);
        let m = t.mean_rows(y);
        t.backward(m, &seed_ones(&t, m));
        // d(mean)/dx = 1/3 everywhere; bias grad sums over rows = 1.
        for &v in t.grad(x).unwrap().data() {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
        assert_eq!(t.grad(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn spmm_gradient_is_transpose_product() {
        use crate::sparse::SparseMatrix;
        let sp = Rc::new(SparseMatrix::from_rows(
            2,
            3,
            &[vec![(0, 2.0), (2, 1.0)], vec![(1, 3.0)]],
        ));
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(3, 2, vec![1.0; 6]));
        let y = t.spmm(&sp, x);
        assert_eq!(t.value(y).shape(), (2, 2));
        t.backward(y, &Matrix::full(2, 2, 1.0));
        let gx = t.grad(x).unwrap();
        let expected = sp.transpose_matmul_dense(&Matrix::full(2, 2, 1.0));
        assert_eq!(gx, &expected);
    }

    /// Central-difference gradient check over a composite network touching
    /// most operators.
    #[test]
    fn numerical_gradcheck_composite() {
        let build = |wdata: &[f32]| -> f32 {
            let mut t = Tape::new();
            let w = t.constant(Matrix::from_vec(2, 3, wdata.to_vec()));
            let x = t.constant(Matrix::from_vec(2, 2, vec![0.3, -0.7, 1.2, 0.5]));
            let h = t.matmul(x, w); // 2x3
            let h = t.tanh(h);
            let s = t.softmax_rows(h);
            let q = t.sigmoid(s);
            let m = t.mean_rows(q); // 1x3
            let tt = t.transpose(m); // 3x1
            let val: f32 = t.value(tt).data().iter().sum();
            val
        };
        let w0: Vec<f32> = vec![0.1, -0.2, 0.4, 0.8, -0.5, 0.3];

        // Analytic gradient.
        let mut t = Tape::new();
        let w = t.constant(Matrix::from_vec(2, 3, w0.clone()));
        let x = t.constant(Matrix::from_vec(2, 2, vec![0.3, -0.7, 1.2, 0.5]));
        let h = t.matmul(x, w);
        let h = t.tanh(h);
        let s = t.softmax_rows(h);
        let q = t.sigmoid(s);
        let m = t.mean_rows(q);
        let tt = t.transpose(m);
        t.backward(tt, &Matrix::full(3, 1, 1.0));
        let analytic = t.grad(w).unwrap().clone();

        // Numerical gradient.
        let h_step = 1e-3f32;
        for i in 0..w0.len() {
            let mut wp = w0.clone();
            wp[i] += h_step;
            let mut wm = w0.clone();
            wm[i] -= h_step;
            let num = (build(&wp) - build(&wm)) / (2.0 * h_step);
            let ana = analytic.data()[i];
            assert!(
                (num - ana).abs() < 2e-2_f32.max(0.05 * num.abs()),
                "grad[{i}] numeric {num} analytic {ana}"
            );
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(r: usize, c: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0..10.0f32, r * c)
            .prop_map(move |v| Matrix::from_vec(r, c, v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Gathering the top and bottom rows and stacking them again
        /// rebuilds the matrix.
        #[test]
        fn gather_reassembles(a in mat(4, 3)) {
            let mut t = Tape::new();
            let av = t.constant(a.clone());
            let top = t.gather_rows(av, &[0, 1]);
            let bottom = t.gather_rows(av, &[2, 3]);
            let whole = t.concat_rows(top, bottom);
            prop_assert_eq!(t.value(whole), &a);
        }

        /// Scaling commutes with matmul: (s·A)·B = s·(A·B).
        #[test]
        fn scale_commutes(a in mat(2, 3), b in mat(3, 2), s in -4.0..4.0f32) {
            let mut t = Tape::new();
            let (av, bv) = (t.constant(a), t.constant(b));
            let sa = t.affine(av, s, 0.0);
            let left = t.matmul(sa, bv);
            let ab = t.matmul(av, bv);
            let right = t.affine(ab, s, 0.0);
            for (x, y) in t.value(left).data().iter().zip(t.value(right).data()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// For f = sum(x ∘ y) the gradients are exactly the other operand.
        #[test]
        fn mul_grad_is_other_operand(
            xs in proptest::collection::vec(-3.0..3.0f32, 6),
            ys in proptest::collection::vec(-3.0..3.0f32, 6),
        ) {
            let mut t = Tape::new();
            let x = t.constant(Matrix::from_vec(2, 3, xs.clone()));
            let y = t.constant(Matrix::from_vec(2, 3, ys.clone()));
            let z = t.mul(x, y);
            t.backward(z, &Matrix::full(2, 3, 1.0));
            prop_assert_eq!(t.grad(x).unwrap().data(), &ys[..]);
            prop_assert_eq!(t.grad(y).unwrap().data(), &xs[..]);
        }

        /// Linear layer gradcheck: f = sum(tanh(x @ w)).
        #[test]
        fn linear_tanh_gradcheck(
            ws in proptest::collection::vec(-1.0..1.0f32, 4),
            xs in proptest::collection::vec(-1.0..1.0f32, 4),
        ) {
            let f = |wd: &[f32]| -> f32 {
                let mut t = Tape::new();
                let w = t.constant(Matrix::from_vec(2, 2, wd.to_vec()));
                let x = t.constant(Matrix::from_vec(2, 2, xs.clone()));
                let y = t.matmul(x, w);
                let y = t.tanh(y);
                t.value(y).sum()
            };
            let mut t = Tape::new();
            let w = t.constant(Matrix::from_vec(2, 2, ws.clone()));
            let x = t.constant(Matrix::from_vec(2, 2, xs.clone()));
            let y = t.matmul(x, w);
            let y = t.tanh(y);
            t.backward(y, &Matrix::full(2, 2, 1.0));
            let analytic = t.grad(w).unwrap().clone();
            let h = 1e-2f32;
            for i in 0..4 {
                let mut wp = ws.clone(); wp[i] += h;
                let mut wm = ws.clone(); wm[i] -= h;
                let num = (f(&wp) - f(&wm)) / (2.0 * h);
                let ana = analytic.data()[i];
                prop_assert!((num - ana).abs() < 0.05 + 0.05 * num.abs(),
                    "grad[{}] num {} ana {}", i, num, ana);
            }
        }
    }
}
