//! Reusable network layers built on the autograd tape.

use crate::init;
use crate::kernel::{self, Kernel};
use crate::matrix::Matrix;
use crate::scratch::Scratch;
use crate::tape::{ParamId, ParamStore, Tape, Var};
use rand::Rng;

/// Activation applied between MLP layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// Scalar evaluation; the exact expressions the tape-free [`Mlp::infer`]
    /// path uses, so fused kernels stay bit-identical to it.
    #[inline]
    pub fn eval(self, v: f32) -> f32 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Tanh => v.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Activation::Identity => v,
        }
    }
}

/// A fully connected layer `y = x W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Allocates a layer with Xavier-initialized weights and zero bias.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let w = store.alloc(init::xavier_uniform(in_dim, out_dim, rng));
        let b = Some(store.alloc(init::zeros(1, out_dim)));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Allocates a bias-free layer.
    pub fn new_no_bias(
        store: &mut ParamStore,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.alloc(init::xavier_uniform(in_dim, out_dim, rng));
        Linear {
            w,
            b: None,
            in_dim,
            out_dim,
        }
    }

    /// Forward pass; `x` is n×in_dim, the result n×out_dim.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        debug_assert_eq!(tape.value(x).cols(), self.in_dim, "Linear input width");
        let w = tape.param(store, self.w);
        let h = tape.matmul(x, w);
        match self.b {
            Some(b) => {
                let b = tape.param(store, b);
                tape.add_row_broadcast(h, b)
            }
            None => h,
        }
    }

    /// Tape-free forward pass for inference hot paths.
    pub fn infer(&self, store: &ParamStore, x: &crate::Matrix) -> crate::Matrix {
        let mut h = x.matmul(store.value(self.w));
        if let Some(b) = self.b {
            let bias = store.value(b);
            for r in 0..h.rows() {
                for (o, &bi) in h.row_mut(r).iter_mut().zip(bias.row(0)) {
                    *o += bi;
                }
            }
        }
        h
    }

    /// Fused affine+activation forward into a caller-owned matrix: the
    /// allocation-free fast path. Runs the i-k-j kernel (the inner loop
    /// vectorizes across output columns, which the dot-product-form
    /// transposed kernel cannot), then applies bias and activation in one
    /// pass over each output row. Bit-identical to `infer` followed by an
    /// elementwise activation map.
    ///
    /// The matmul and the bias add dispatch to the SIMD kernel selected by
    /// [`crate::kernel::active`]; the activation always stays per-element
    /// libm, so every path shares one rounding story: each output element
    /// sees matmul adds, one bias add, then one activation — bit-identical
    /// across kernels (the scalar path additionally fuses bias+activation
    /// into a single sweep, which changes no bits, only traffic).
    pub fn infer_into(&self, store: &ParamStore, x: &Matrix, out: &mut Matrix, act: Activation) {
        debug_assert_eq!(x.cols(), self.in_dim, "Linear input width");
        let k = kernel::active();
        kernel::matmul_into_with(k, x, store.value(self.w), out, false);
        match self.b {
            Some(b) => {
                let bias = store.value(b);
                let brow = bias.row(0);
                if k == Kernel::Scalar {
                    for r in 0..out.rows() {
                        for (o, &bi) in out.row_mut(r).iter_mut().zip(brow) {
                            *o = act.eval(*o + bi);
                        }
                    }
                } else {
                    kernel::add_bias_rows_with(k, out, brow);
                    if act != Activation::Identity {
                        for v in out.data_mut() {
                            *v = act.eval(*v);
                        }
                    }
                }
            }
            None => {
                if act != Activation::Identity {
                    for v in out.data_mut() {
                        *v = act.eval(*v);
                    }
                }
            }
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// A multilayer perceptron with a fixed hidden activation and identity
/// output (losses consume raw logits).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[256, 128, 1]`
    /// produces two layers 256→128→1.
    pub fn new(
        store: &mut ParamStore,
        dims: &[usize],
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(store, w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Forward pass; the activation is applied after every layer except the
    /// last.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, store, h);
            if i != last {
                h = self.activation.apply(tape, h);
            }
        }
        h
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_dim())
    }

    /// Tape-free forward pass for inference hot paths.
    pub fn infer(&self, store: &ParamStore, x: &crate::Matrix) -> crate::Matrix {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.infer(store, &h);
            if i != last {
                h = match self.activation {
                    Activation::Relu => h.map(|v| v.max(0.0)),
                    Activation::Tanh => h.map(f32::tanh),
                    Activation::Sigmoid => h.map(|v| 1.0 / (1.0 + (-v).exp())),
                    Activation::Identity => h,
                };
            }
        }
        h
    }

    /// Allocation-free forward through the fused kernels: every
    /// intermediate comes from (and the result's buffer should be returned
    /// to) the scratch arena. Bit-identical to [`Mlp::infer`].
    pub fn infer_with(&self, store: &ParamStore, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        let n = x.rows();
        let last = self.layers.len() - 1;
        let mut cur: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i == last {
                Activation::Identity
            } else {
                self.activation
            };
            let mut out = scratch.take(n, layer.out_dim());
            layer.infer_into(store, cur.as_ref().unwrap_or(x), &mut out, act);
            if let Some(prev) = cur.take() {
                scratch.give(prev);
            }
            cur = Some(out);
        }
        // A zero-layer MLP is the identity; `new` never builds one, but
        // degrade rather than panic if it ever happens.
        cur.unwrap_or_else(|| x.clone())
    }
}

/// Additive attention in the paper's Eq. 6 / Eq. 9 form:
///
/// ```text
/// score_j = w_v · tanh(W_q q ⊕ W_k k_j)
/// out     = Σ_j softmax(score)_j · v_j
/// ```
///
/// The query is a single 1×d vector; keys and values are n×d matrices
/// (values default to the keys, as in the paper where the attention
/// summarizes raw point embeddings).
#[derive(Clone, Debug)]
pub struct AdditiveAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
}

impl AdditiveAttention {
    /// Allocates attention parameters for embedding width `dim` with an
    /// internal projection width `proj`.
    pub fn new(store: &mut ParamStore, dim: usize, proj: usize, rng: &mut impl Rng) -> Self {
        AdditiveAttention {
            wq: Linear::new_no_bias(store, dim, proj, rng),
            wk: Linear::new_no_bias(store, dim, proj, rng),
            wv: Linear::new_no_bias(store, 2 * proj, 1, rng),
        }
    }

    /// Computes the attended context `1×d` and returns `(context, weights)`
    /// where weights is the n×1 softmax distribution over keys.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        query: Var,
        keys: Var,
        values: Var,
    ) -> (Var, Var) {
        let n = tape.value(keys).rows();
        debug_assert_eq!(tape.value(query).rows(), 1, "query must be a row vector");
        let q = self.wq.forward(tape, store, query); // 1×p
        let q_rep = tape.repeat_row(q, n); // n×p
        let k = self.wk.forward(tape, store, keys); // n×p
        let qk = tape.concat_cols(q_rep, k); // n×2p
        let act = tape.tanh(qk);
        let scores = self.wv.forward(tape, store, act); // n×1
        // Softmax over the n scores: transpose to 1×n, row-softmax, back.
        let st = tape.transpose(scores); // 1×n
        let sm = tape.softmax_rows(st); // 1×n
        let context = tape.matmul(sm, values); // 1×d
        let weights = tape.transpose(sm); // n×1
        (context, weights)
    }

    /// Tape-free forward pass: returns the attended context row.
    pub fn infer(
        &self,
        store: &ParamStore,
        query: &crate::Matrix,
        keys: &crate::Matrix,
        values: &crate::Matrix,
    ) -> crate::Matrix {
        let projected = self.project_keys(store, keys);
        self.infer_projected(store, query, &projected, values)
    }

    /// Precomputes `keys × W_k` so that many queries against the same key
    /// set (one trajectory scored for hundreds of roads) skip the dominant
    /// matmul. Pair with [`Self::infer_projected`].
    pub fn project_keys(&self, store: &ParamStore, keys: &crate::Matrix) -> crate::Matrix {
        self.wk.infer(store, keys)
    }

    /// Tape-free forward with pre-projected keys from
    /// [`Self::project_keys`].
    pub fn infer_projected(
        &self,
        store: &ParamStore,
        query: &crate::Matrix,
        projected_keys: &crate::Matrix,
        values: &crate::Matrix,
    ) -> crate::Matrix {
        let n = projected_keys.rows();
        let q = self.wq.infer(store, query); // 1×p
        let k = projected_keys; // n×p
        // concat([q; q; ...], k) then tanh then wv.
        let mut qk = crate::Matrix::zeros(n, q.cols() + k.cols());
        for r in 0..n {
            qk.row_mut(r)[..q.cols()].copy_from_slice(q.row(0));
            qk.row_mut(r)[q.cols()..].copy_from_slice(k.row(r));
        }
        let act = qk.map(f32::tanh);
        let scores = self.wv.infer(store, &act); // n×1
        // Softmax over the n scores.
        let max = scores
            .data()
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        let mut weights: Vec<f32> = scores.data().iter().map(|&s| (s - max).exp()).collect();
        let sum: f32 = weights.iter().sum();
        for w in &mut weights {
            *w /= sum;
        }
        let mut ctx = crate::Matrix::zeros(1, values.cols());
        for (r, &w) in weights.iter().enumerate() {
            for (o, &v) in ctx.row_mut(0).iter_mut().zip(values.row(r)) {
                *o += w * v;
            }
        }
        ctx
    }

    /// Internal projection width `p`.
    pub fn proj_dim(&self) -> usize {
        self.wq.out_dim()
    }

    /// Allocation-free [`Self::project_keys`]: `out` must be
    /// `keys.rows() × proj_dim`.
    pub fn project_keys_into(&self, store: &ParamStore, keys: &Matrix, out: &mut Matrix) {
        self.wk.infer_into(store, keys, out, Activation::Identity);
    }

    /// Projects a whole stack of queries (`n × d`) through `W_q` at once
    /// into `out` (`n × proj_dim`). Row `i` is bit-identical to projecting
    /// query `i` alone, so callers can batch every query of a trajectory
    /// up front and feed single rows to [`Self::attend_projected`].
    pub fn project_queries_into(&self, store: &ParamStore, queries: &Matrix, out: &mut Matrix) {
        self.wq.infer_into(store, queries, out, Activation::Identity);
    }

    /// Allocation-free attention with a pre-projected query row (from
    /// [`Self::project_queries_into`]) and pre-projected keys. Writes the
    /// attended context into `ctx_out` (length `values.cols()`).
    /// Bit-identical to [`Self::infer_projected`].
    pub fn attend_projected(
        &self,
        store: &ParamStore,
        q_proj: &[f32],
        projected_keys: &Matrix,
        values: &Matrix,
        scratch: &mut Scratch,
        ctx_out: &mut [f32],
    ) {
        let n = projected_keys.rows();
        let p = q_proj.len();
        debug_assert_eq!(p, self.proj_dim(), "projected query width");
        debug_assert_eq!(ctx_out.len(), values.cols(), "context width");
        let mut qk = scratch.take(n, p + projected_keys.cols());
        for r in 0..n {
            let row = qk.row_mut(r);
            row[..p].copy_from_slice(q_proj);
            row[p..].copy_from_slice(projected_keys.row(r));
        }
        for v in qk.data_mut() {
            *v = v.tanh();
        }
        let mut scores = scratch.take(n, 1);
        self.wv.infer_into(store, &qk, &mut scores, Activation::Identity);
        softmax_context(&mut scores, values, ctx_out);
        scratch.give(qk);
        scratch.give(scores);
    }

    /// Allocation-free attention from **memoized tanh halves**: `tanh_q` is
    /// `tanh(W_q q)` for one query row and `tanh_keys` holds `tanh(W_k k_j)`
    /// row per key. tanh is elementwise, so
    /// `tanh([Wq·q ⊕ Wk·k]) = [tanh(Wq·q) ⊕ tanh(Wk·k)]` — assembling the
    /// activation matrix from the two cached halves is bit-identical to
    /// [`Self::infer_projected`] / [`Self::attend_projected`] while
    /// replacing the `n·2p` tanh evaluations *per query* with `p` per query
    /// plus `n·p` once per key set. This is what makes per-trajectory
    /// attention cheap: the key half is tanh'd once for hundreds of queries.
    pub fn attend_tanh(
        &self,
        store: &ParamStore,
        tanh_q: &[f32],
        tanh_keys: &Matrix,
        values: &Matrix,
        scratch: &mut Scratch,
        ctx_out: &mut [f32],
    ) {
        let n = tanh_keys.rows();
        let p = tanh_q.len();
        debug_assert_eq!(p, self.proj_dim(), "projected query width");
        debug_assert_eq!(ctx_out.len(), values.cols(), "context width");
        let mut qk = scratch.take(n, p + tanh_keys.cols());
        for r in 0..n {
            let row = qk.row_mut(r);
            row[..p].copy_from_slice(tanh_q);
            row[p..].copy_from_slice(tanh_keys.row(r));
        }
        let mut scores = scratch.take(n, 1);
        self.wv.infer_into(store, &qk, &mut scores, Activation::Identity);
        softmax_context(&mut scores, values, ctx_out);
        scratch.give(qk);
        scratch.give(scores);
    }

    /// [`Self::attend_tanh`] with the key half stored **transposed**:
    /// `tanh_keys_t` is `p×n` — column `j` holds `tanh(W_k k_j)`. Callers
    /// transpose the memoized key half once per trajectory
    /// ([`Matrix::transpose_into`]) and reuse it for every query.
    ///
    /// The restructuring skips the per-query `n×2p` assembly of the
    /// concatenated activation matrix entirely: the score row is computed
    /// directly as the shared query prefix dot product plus the
    /// transposed-key accumulation (see
    /// [`crate::kernel::attend_scores_with`]), which keeps each score's
    /// per-element add sequence identical to [`Self::attend_tanh`] —
    /// bit-identical output, half the multiply-adds, and a `j`-contiguous
    /// inner loop the SIMD kernels can vectorize.
    pub fn attend_tanh_t(
        &self,
        store: &ParamStore,
        tanh_q: &[f32],
        tanh_keys_t: &Matrix,
        values: &Matrix,
        scratch: &mut Scratch,
        ctx_out: &mut [f32],
    ) {
        let n = tanh_keys_t.cols();
        let p = tanh_q.len();
        debug_assert_eq!(p, self.proj_dim(), "projected query width");
        debug_assert_eq!(tanh_keys_t.rows(), p, "transposed key half height");
        debug_assert_eq!(ctx_out.len(), values.cols(), "context width");
        let w = store.value(self.wv.w); // (2p)×1 score weights
        debug_assert_eq!(w.rows(), 2 * p, "score weight height");
        let mut scores = scratch.take(n, 1);
        kernel::attend_scores_with(
            kernel::active(),
            tanh_q,
            w.data(),
            tanh_keys_t,
            scores.data_mut(),
        );
        softmax_context(&mut scores, values, ctx_out);
        scratch.give(scores);
    }
}

/// Shared attention tail: in-place softmax over the `n×1` score column
/// (same op order as the allocating path — max, exp, sum, divide), then the
/// weighted sum of value rows into `ctx_out` (dispatched to the active
/// SIMD kernel; each context element accumulates one rounded multiply-add
/// per value row in ascending row order on every path).
fn softmax_context(scores: &mut Matrix, values: &Matrix, ctx_out: &mut [f32]) {
    let max = scores
        .data()
        .iter()
        .cloned()
        .fold(f32::NEG_INFINITY, f32::max);
    for s in scores.data_mut() {
        *s = (*s - max).exp();
    }
    let sum: f32 = scores.data().iter().sum();
    for s in scores.data_mut() {
        *s /= sum;
    }
    let k = kernel::active();
    if k == Kernel::Scalar {
        ctx_out.fill(0.0);
        for (r, &w) in scores.data().iter().enumerate() {
            for (o, &v) in ctx_out.iter_mut().zip(values.row(r)) {
                *o += w * v;
            }
        }
    } else {
        kernel::weighted_sum_rows_with(k, scores.data(), values, ctx_out);
    }
}

/// A gated recurrent unit cell; the recurrent backbone of the DMM/DeepMM
/// seq2seq baselines.
#[derive(Clone, Debug)]
pub struct GruCell {
    wxz: Linear,
    whz: Linear,
    wxr: Linear,
    whr: Linear,
    wxh: Linear,
    whh: Linear,
    hidden: usize,
}

impl GruCell {
    /// Allocates a cell mapping `input`-wide inputs to `hidden`-wide state.
    pub fn new(store: &mut ParamStore, input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        GruCell {
            wxz: Linear::new(store, input, hidden, rng),
            whz: Linear::new_no_bias(store, hidden, hidden, rng),
            wxr: Linear::new(store, input, hidden, rng),
            whr: Linear::new_no_bias(store, hidden, hidden, rng),
            wxh: Linear::new(store, input, hidden, rng),
            whh: Linear::new_no_bias(store, hidden, hidden, rng),
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// One step: consumes input `x` (1×input) and state `h` (1×hidden),
    /// returns the next state.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, h: Var) -> Var {
        let z = {
            let a = self.wxz.forward(tape, store, x);
            let b = self.whz.forward(tape, store, h);
            let s = tape.add(a, b);
            tape.sigmoid(s)
        };
        let r = {
            let a = self.wxr.forward(tape, store, x);
            let b = self.whr.forward(tape, store, h);
            let s = tape.add(a, b);
            tape.sigmoid(s)
        };
        let h_tilde = {
            let a = self.wxh.forward(tape, store, x);
            let rh = tape.mul(r, h);
            let b = self.whh.forward(tape, store, rh);
            let s = tape.add(a, b);
            tape.tanh(s)
        };
        // h' = (1 - z) ∘ h + z ∘ h~
        let one_minus_z = tape.affine(z, -1.0, 1.0);
        let keep = tape.mul(one_minus_z, h);
        let update = tape.mul(z, h_tilde);
        tape.add(keep, update)
    }
}

/// A trainable embedding table: one d-wide row per entity.
#[derive(Clone, Debug)]
pub struct Embedding {
    table: ParamId,
    num: usize,
    dim: usize,
}

impl Embedding {
    /// Allocates `num` embeddings of width `dim`.
    pub fn new(store: &mut ParamStore, num: usize, dim: usize, rng: &mut impl Rng) -> Self {
        let table = store.alloc(init::xavier_uniform(num, dim, rng));
        Embedding { table, num, dim }
    }

    /// Looks up rows for `indices` (n×dim output).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, indices: &[usize]) -> Var {
        let t = tape.param(store, self.table);
        tape.gather_rows(t, indices)
    }

    /// The whole table as a tape var (for full-graph encoders).
    pub fn full(&self, tape: &mut Tape, store: &ParamStore) -> Var {
        tape.param(store, self.table)
    }

    /// Number of rows.
    pub fn num_embeddings(&self) -> usize {
        self.num
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut store, 4, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(5, 4));
        let y = l.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 3));
    }

    #[test]
    fn mlp_forward_and_backward() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut store, &[4, 8, 2], Activation::Relu, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(3, 4, 0.5));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (3, 2));
        tape.backward(y, &Matrix::full(3, 2, 1.0));
        let pg = tape.param_grads();
        // 2 layers × (w + b) = 4 parameter tensors with gradients.
        assert_eq!(pg.len(), 4);
        assert!(pg.iter().all(|(_, m)| m.is_finite()));
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let att = AdditiveAttention::new(&mut store, 6, 6, &mut rng);
        let mut tape = Tape::new();
        let q = tape.constant(Matrix::full(1, 6, 0.3));
        let keys = tape.constant(Matrix::from_vec(
            4,
            6,
            (0..24).map(|i| (i as f32 * 0.37).sin()).collect(),
        ));
        let (ctx, w) = att.forward(&mut tape, &store, q, keys, keys);
        assert_eq!(tape.value(ctx).shape(), (1, 6));
        assert_eq!(tape.value(w).shape(), (4, 1));
        let sum: f32 = tape.value(w).data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(tape.value(w).data().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn attention_attends_to_similar_key() {
        // With identical query/key projections initialized randomly, a key
        // identical to the query should not receive *less* weight than a
        // wildly different one after a gradient step pushing toward it.
        // Here we only check the mechanism: changing keys changes weights.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let att = AdditiveAttention::new(&mut store, 4, 4, &mut rng);
        let mut tape = Tape::new();
        let q = tape.constant(Matrix::full(1, 4, 1.0));
        let keys1 = tape.constant(Matrix::from_vec(2, 4, vec![1.0; 8]));
        let (_, w1) = att.forward(&mut tape, &store, q, keys1, keys1);
        // Equal keys ⇒ exactly uniform weights.
        let w = tape.value(w1);
        assert!((w.data()[0] - 0.5).abs() < 1e-6);
        assert!((w.data()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gru_state_stays_bounded() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let cell = GruCell::new(&mut store, 3, 5, &mut rng);
        let mut tape = Tape::new();
        let mut h = tape.constant(Matrix::zeros(1, 5));
        for i in 0..20 {
            let x = tape.constant(Matrix::full(1, 3, (i as f32).sin() * 3.0));
            h = cell.step(&mut tape, &store, x, h);
        }
        // GRU state is a convex combination of tanh outputs: |h| <= 1.
        assert!(tape.value(h).data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn infer_matches_tape_forward() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(&mut store, &[5, 7, 2], Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(3, 5, (0..15).map(|i| (i as f32 * 0.31).sin()).collect());
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y_tape = mlp.forward(&mut tape, &store, xv);
        let y_infer = mlp.infer(&store, &x);
        for (a, b) in tape.value(y_tape).data().iter().zip(y_infer.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn attention_infer_matches_tape_forward() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(10);
        let att = AdditiveAttention::new(&mut store, 6, 6, &mut rng);
        let q = Matrix::from_vec(1, 6, (0..6).map(|i| (i as f32 * 0.7).cos()).collect());
        let keys = Matrix::from_vec(5, 6, (0..30).map(|i| (i as f32 * 0.13).sin()).collect());
        let mut tape = Tape::new();
        let qv = tape.constant(q.clone());
        let kv = tape.constant(keys.clone());
        let (ctx_tape, _) = att.forward(&mut tape, &store, qv, kv, kv);
        let ctx_infer = att.infer(&store, &q, &keys, &keys);
        for (a, b) in tape.value(ctx_tape).data().iter().zip(ctx_infer.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn fused_mlp_is_bitwise_identical_to_infer() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            let mlp = Mlp::new(&mut store, &[5, 9, 3], act, &mut rng);
            let x = Matrix::from_vec(4, 5, (0..20).map(|i| (i as f32 * 0.23).sin()).collect());
            let reference = mlp.infer(&store, &x);
            let mut scratch = Scratch::new();
            for _ in 0..2 {
                // Second round runs with a warm (dirty) scratch arena.
                let fused = mlp.infer_with(&store, &x, &mut scratch);
                for (a, b) in reference.data().iter().zip(fused.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "fused MLP diverged ({act:?})");
                }
                scratch.give(fused);
            }
        }
    }

    #[test]
    fn attend_projected_is_bitwise_identical_to_infer_projected() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(12);
        let att = AdditiveAttention::new(&mut store, 6, 5, &mut rng);
        let keys = Matrix::from_vec(7, 6, (0..42).map(|i| (i as f32 * 0.17).cos()).collect());
        let queries = Matrix::from_vec(3, 6, (0..18).map(|i| (i as f32 * 0.41).sin()).collect());

        let projected = att.project_keys(&store, &keys);
        let mut projected_fast = Matrix::zeros(7, att.proj_dim());
        att.project_keys_into(&store, &keys, &mut projected_fast);
        for (a, b) in projected.data().iter().zip(projected_fast.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "key projection diverged");
        }

        let mut q_proj = Matrix::zeros(3, att.proj_dim());
        att.project_queries_into(&store, &queries, &mut q_proj);
        let mut scratch = Scratch::new();
        let mut ctx = vec![0.0f32; keys.cols()];
        for qi in 0..queries.rows() {
            let query = Matrix::row_vector(queries.row(qi).to_vec());
            let reference = att.infer_projected(&store, &query, &projected, &keys);
            att.attend_projected(&store, q_proj.row(qi), &projected_fast, &keys, &mut scratch, &mut ctx);
            for (a, b) in reference.data().iter().zip(&ctx) {
                assert_eq!(a.to_bits(), b.to_bits(), "attention context diverged");
            }
        }
    }

    #[test]
    fn attend_tanh_is_bitwise_identical_to_infer_projected() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(12);
        let att = AdditiveAttention::new(&mut store, 6, 5, &mut rng);
        let keys = Matrix::from_vec(7, 6, (0..42).map(|i| (i as f32 * 0.17).cos()).collect());
        let queries = Matrix::from_vec(3, 6, (0..18).map(|i| (i as f32 * 0.41).sin()).collect());

        let projected = att.project_keys(&store, &keys);
        let mut tanh_keys = Matrix::zeros(7, att.proj_dim());
        att.project_keys_into(&store, &keys, &mut tanh_keys);
        for v in tanh_keys.data_mut() {
            *v = v.tanh();
        }
        let mut tanh_q = Matrix::zeros(3, att.proj_dim());
        att.project_queries_into(&store, &queries, &mut tanh_q);
        for v in tanh_q.data_mut() {
            *v = v.tanh();
        }

        let mut scratch = Scratch::new();
        let mut ctx = vec![0.0f32; keys.cols()];
        for qi in 0..queries.rows() {
            let query = Matrix::row_vector(queries.row(qi).to_vec());
            let reference = att.infer_projected(&store, &query, &projected, &keys);
            att.attend_tanh(&store, tanh_q.row(qi), &tanh_keys, &keys, &mut scratch, &mut ctx);
            for (a, b) in reference.data().iter().zip(&ctx) {
                assert_eq!(a.to_bits(), b.to_bits(), "memoized-tanh attention diverged");
            }
        }
    }

    /// `attend_tanh_t` (transposed keys, restructured score loop) must be
    /// bit-identical to `attend_tanh` — and therefore to
    /// `infer_projected` — under every kernel this machine supports.
    #[test]
    fn attend_tanh_t_is_bitwise_identical_to_attend_tanh() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(12);
        let att = AdditiveAttention::new(&mut store, 6, 5, &mut rng);
        let keys = Matrix::from_vec(7, 6, (0..42).map(|i| (i as f32 * 0.17).cos()).collect());
        let queries = Matrix::from_vec(3, 6, (0..18).map(|i| (i as f32 * 0.41).sin()).collect());

        let mut tanh_keys = Matrix::zeros(7, att.proj_dim());
        att.project_keys_into(&store, &keys, &mut tanh_keys);
        for v in tanh_keys.data_mut() {
            *v = v.tanh();
        }
        let tanh_keys_t = tanh_keys.transpose();
        let mut tanh_q = Matrix::zeros(3, att.proj_dim());
        att.project_queries_into(&store, &queries, &mut tanh_q);
        for v in tanh_q.data_mut() {
            *v = v.tanh();
        }

        let mut scratch = Scratch::new();
        let mut ctx = vec![0.0f32; keys.cols()];
        let mut ctx_t = vec![0.0f32; keys.cols()];
        for k in kernel::supported_kernels() {
            let _guard = kernel::force_scope(k);
            for qi in 0..queries.rows() {
                att.attend_tanh(&store, tanh_q.row(qi), &tanh_keys, &keys, &mut scratch, &mut ctx);
                att.attend_tanh_t(
                    &store,
                    tanh_q.row(qi),
                    &tanh_keys_t,
                    &keys,
                    &mut scratch,
                    &mut ctx_t,
                );
                for (a, b) in ctx.iter().zip(&ctx_t) {
                    assert_eq!(a.to_bits(), b.to_bits(), "attend_tanh_t diverged under {k:?}");
                }
            }
        }
    }

    #[test]
    fn embedding_lookup_and_grad_flow() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let emb = Embedding::new(&mut store, 10, 4, &mut rng);
        let mut tape = Tape::new();
        let rows = emb.forward(&mut tape, &store, &[3, 3, 7]);
        assert_eq!(tape.value(rows).shape(), (3, 4));
        assert_eq!(tape.value(rows).row(0), tape.value(rows).row(1));
        tape.backward(rows, &Matrix::full(3, 4, 1.0));
        let pg = tape.param_grads();
        assert_eq!(pg.len(), 1);
        let gm = &pg[0].1;
        // Row 3 used twice, row 7 once, others zero.
        assert_eq!(gm.row(3), &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(gm.row(7), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(gm.row(0), &[0.0, 0.0, 0.0, 0.0]);
    }
}
