//! The computation tape: define-by-run forward ops and reverse-mode backward.
//!
//! The tape owns a shape-keyed buffer pool so that steady-state training
//! performs **zero heap allocations**: call [`Tape::reset`] between steps
//! instead of building a fresh tape, and every forward value, gradient
//! buffer, and backward temporary is recycled from the previous step. The
//! pooled path computes exactly the same floating-point operations in the
//! same order as a freshly constructed tape — results are bit-identical
//! (`crates/bench/tests/alloc_zero.rs` asserts the allocation count,
//! the autograd test suite asserts the bit-identity).

use crate::store::{GradSet, ParamId, VarStore};
use std::collections::HashMap;
use std::time::Instant;
use targad_linalg::{
    dense_backward_bias_into, dense_backward_data_into, dense_backward_weights_into,
    matmul_bias_act_rows_into, stable_sigmoid, EpiAct, Matrix,
};

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// Guard used by [`Op::Ln`] and [`Op::Recip`] so gradients stay finite when
/// an activation touches zero.
const EPS: f64 = 1e-12;

#[derive(Clone, Copy)]
enum Op {
    /// Constant leaf (mini-batch inputs, pseudo-label matrices, weights).
    Input,
    /// Trainable leaf; gradients flush into the [`VarStore`].
    Param(ParamId),
    MatMul(Var, Var),
    /// Fused dense layer `act(x·W + b)` recorded as one node: forward runs
    /// the fused GEMM bias+activation epilogue, backward fuses the
    /// activation-derivative product into the gradient GEMMs' read path —
    /// both bit-identical to the unfused
    /// `MatMul → AddRowBroadcast → activation` triplet.
    Dense(Var, Var, Var, EpiAct),
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    /// `(n x c) + (1 x c)` broadcast: the bias add of a linear layer.
    AddRowBroadcast(Var, Var),
    /// `(n x c) * (n x 1)` broadcast: per-instance loss weights (Eq. 6).
    MulColBroadcast(Var, Var),
    Scale(Var, f64),
    /// The shift itself is applied at record time and has zero derivative,
    /// so only the operand is stored.
    AddScalar(Var),
    Relu(Var),
    LeakyRelu(Var, f64),
    Sigmoid(Var),
    Tanh(Var),
    Exp(Var),
    /// `ln(max(x, EPS))` — guarded to keep log-loss gradients finite.
    Ln(Var),
    Abs(Var),
    Square(Var),
    Sqrt(Var),
    /// `1 / max(x, EPS)` — the inverse-reconstruction-error penalty (Eq. 1).
    Recip(Var),
    Neg(Var),
    Transpose(Var),
    /// Sum of all entries, producing a `1 x 1` matrix.
    SumAll(Var),
    /// Mean of all entries, producing a `1 x 1` matrix.
    MeanAll(Var),
    /// Sum of all entries divided by an explicit count, producing a
    /// `1 x 1` matrix — the shard-local slice of a global mean.
    SumDiv(Var, f64),
    /// Row sums, producing an `n x 1` column vector.
    RowSum(Var),
    SoftmaxRows(Var),
    LogSoftmaxRows(Var),
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Shape-keyed free list of recycled matrices.
///
/// Buffers come back dirty: every consumer must fully overwrite what it
/// takes (all `Matrix::*_into` kernels do).
#[derive(Default)]
struct Pool {
    free: HashMap<(usize, usize), Vec<Matrix>>,
}

impl Pool {
    /// A `rows x cols` buffer with arbitrary contents — recycled when one of
    /// that shape is free, freshly allocated otherwise (warm-up only).
    fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        match self.free.get_mut(&(rows, cols)).and_then(Vec::pop) {
            Some(m) => {
                targad_obs::metrics::TAPE_POOL_HITS.inc();
                m
            }
            None => {
                targad_obs::metrics::TAPE_POOL_MISSES.inc();
                Matrix::zeros(rows, cols)
            }
        }
    }

    /// Returns a buffer to the free list for its shape.
    fn put(&mut self, m: Matrix) {
        self.free.entry(m.shape()).or_default().push(m);
    }
}

/// A reusable computation graph. Build the forward pass, call
/// [`Tape::backward`] once, then either drop the tape or — in a training
/// loop — call [`Tape::reset`] and record the next step into the same
/// storage. After one warm-up step every buffer the step needs lives in the
/// tape's pool, so subsequent steps allocate nothing.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Matrix>>,
    /// Per-node needs-gradient mask, recomputed by each backward sweep
    /// (capacity retained across steps, so steady state stays
    /// allocation-free). `needs[i]` is `true` when node `i`'s gradient can
    /// reach a `Param` leaf; branches where it cannot are skipped entirely.
    needs: Vec<bool>,
    pool: Pool,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the recorded graph, recycling every node value (and any
    /// leftover gradient buffer) into the pool. Call between training steps:
    /// the next forward pass reuses the freed buffers instead of allocating.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.put(node.value);
        }
        for g in self.grads.drain(..).flatten() {
            self.pool.put(g);
        }
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        debug_assert!(value.all_finite(), "non-finite value produced by a tape op");
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// A pooled buffer shaped like the value of `v`.
    fn take_like(&mut self, v: Var) -> Matrix {
        let (r, c) = self.nodes[v.0].value.shape();
        self.pool.take(r, c)
    }

    /// Registers a constant (non-trainable) leaf, taking ownership.
    ///
    /// The buffer joins the pool on [`Tape::reset`]. In steady-state loops
    /// prefer [`Tape::input_from`] / [`Tape::input_rows_from`], which copy
    /// into pooled storage instead of allocating per step.
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Input)
    }

    /// Registers a constant leaf as a pooled copy of `src`.
    pub fn input_from(&mut self, src: &Matrix) -> Var {
        let mut value = self.pool.take(src.rows(), src.cols());
        value.copy_from(src);
        self.push(value, Op::Input)
    }

    /// Registers a constant leaf holding the listed rows of `src` (the
    /// pooled equivalent of `input(src.take_rows(rows))` — the mini-batch
    /// gather of every epoch loop).
    pub fn input_rows_from(&mut self, src: &Matrix, rows: &[usize]) -> Var {
        let mut value = self.pool.take(rows.len(), src.cols());
        src.take_rows_into(rows, &mut value);
        self.push(value, Op::Input)
    }

    /// Registers a constant leaf holding the contiguous rows `lo..hi` of
    /// `src` (the pooled shard gather of data-parallel training over a
    /// pre-built batch matrix).
    pub fn input_row_slice_from(&mut self, src: &Matrix, lo: usize, hi: usize) -> Var {
        assert!(
            lo <= hi && hi <= src.rows(),
            "input_row_slice_from: bad row range {lo}..{hi} for {} rows",
            src.rows()
        );
        let cols = src.cols();
        let mut value = self.pool.take(hi - lo, cols);
        value
            .as_mut_slice()
            .copy_from_slice(&src.as_slice()[lo * cols..hi * cols]);
        self.push(value, Op::Input)
    }

    /// Registers a constant `idx.len() x 1` leaf with entries
    /// `values[idx[i]]` — the pooled equivalent of
    /// `input(Matrix::col_vector(&gathered))` for per-instance loss
    /// weights gathered by batch index (Eq. 6).
    pub fn input_gather_col(&mut self, values: &[f64], idx: &[usize]) -> Var {
        let mut value = self.pool.take(idx.len(), 1);
        for (slot, &i) in value.as_mut_slice().iter_mut().zip(idx) {
            *slot = values[i];
        }
        self.push(value, Op::Input)
    }

    /// Registers a trainable parameter from `store` as a leaf.
    pub fn param(&mut self, store: &VarStore, id: ParamId) -> Var {
        let src = store.value(id);
        let mut value = self.pool.take(src.rows(), src.cols());
        value.copy_from(src);
        self.push(value, Op::Param(id))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = (self.nodes[a.0].value.rows(), self.nodes[b.0].value.cols());
        let mut out = self.pool.take(r, c);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::MatMul(a, b))
    }

    /// Fused dense layer `act(x·W + b)` as a single tape node.
    ///
    /// Forward runs the fused-epilogue GEMM
    /// ([`matmul_bias_act_rows_into`], the inference-engine kernel), and
    /// backward fuses the activation-derivative product `dZ = dA ⊙
    /// act'(Z)` into the gradient GEMMs instead of materializing it —
    /// values and gradients are bit-identical to the unfused `matmul` →
    /// `add_row_broadcast` → activation sequence (the retained reference
    /// arm). `w` must be a `d_in x n` node, `b` a `1 x n` node; either may
    /// be a parameter or a frozen input.
    pub fn dense(&mut self, x: Var, w: Var, b: Var, act: EpiAct) -> Var {
        let (rows, d_in) = self.nodes[x.0].value.shape();
        let n = self.nodes[w.0].value.cols();
        let mut out = self.pool.take(rows, n);
        matmul_bias_act_rows_into(
            self.nodes[x.0].value.as_slice(),
            d_in,
            &self.nodes[w.0].value,
            self.nodes[b.0].value.as_slice(),
            act,
            out.as_mut_slice(),
        );
        self.push(out, Op::Dense(x, w, b, act))
    }

    /// Elementwise sum of two same-shape matrices.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.take_like(a);
        self.nodes[a.0]
            .value
            .zip_map_into(&self.nodes[b.0].value, |x, y| x + y, &mut out);
        self.push(out, Op::Add(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.take_like(a);
        self.nodes[a.0]
            .value
            .zip_map_into(&self.nodes[b.0].value, |x, y| x - y, &mut out);
        self.push(out, Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.take_like(a);
        self.nodes[a.0]
            .value
            .zip_map_into(&self.nodes[b.0].value, |x, y| x * y, &mut out);
        self.push(out, Op::MulElem(a, b))
    }

    /// Adds a `1 x c` row vector to every row of an `n x c` matrix.
    pub fn add_row_broadcast(&mut self, a: Var, row: Var) -> Var {
        let mut out = self.take_like(a);
        self.nodes[a.0]
            .value
            .add_row_broadcast_into(&self.nodes[row.0].value, &mut out);
        self.push(out, Op::AddRowBroadcast(a, row))
    }

    /// Multiplies each row of an `n x c` matrix by the matching entry of an
    /// `n x 1` column vector.
    pub fn mul_col_broadcast(&mut self, a: Var, col: Var) -> Var {
        let mut out = self.take_like(a);
        self.nodes[a.0]
            .value
            .mul_col_broadcast_into(&self.nodes[col.0].value, &mut out);
        self.push(out, Op::MulColBroadcast(a, col))
    }

    /// Multiplication by a scalar constant.
    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        self.unary(a, Op::Scale(a, s), move |x| x * s)
    }

    /// Addition of a scalar constant.
    pub fn add_scalar(&mut self, a: Var, s: f64) -> Var {
        self.unary(a, Op::AddScalar(a), move |x| x + s)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f64) -> Var {
        self.unary(a, Op::LeakyRelu(a, alpha), move |x| {
            if x > 0.0 {
                x
            } else {
                alpha * x
            }
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary(a, Op::Sigmoid(a), stable_sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(a, Op::Tanh(a), f64::tanh)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        self.unary(a, Op::Exp(a), f64::exp)
    }

    /// Elementwise `ln(max(x, 1e-12))` (guarded natural log).
    pub fn ln(&mut self, a: Var) -> Var {
        self.unary(a, Op::Ln(a), |x| x.max(EPS).ln())
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        self.unary(a, Op::Abs(a), f64::abs)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        self.unary(a, Op::Square(a), |x| x * x)
    }

    /// Elementwise square root (input must be non-negative).
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.unary(a, Op::Sqrt(a), f64::sqrt)
    }

    /// Elementwise `1 / max(x, 1e-12)` (guarded reciprocal).
    pub fn recip(&mut self, a: Var) -> Var {
        self.unary(a, Op::Recip(a), |x| 1.0 / x.max(EPS))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.unary(a, Op::Neg(a), |x| -x)
    }

    /// Records a unary elementwise op into a pooled output buffer.
    fn unary(&mut self, a: Var, op: Op, f: impl Fn(f64) -> f64) -> Var {
        let mut out = self.take_like(a);
        self.nodes[a.0].value.map_into(f, &mut out);
        self.push(out, op)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut out = self.pool.take(c, r);
        self.nodes[a.0].value.transpose_into(&mut out);
        self.push(out, Op::Transpose(a))
    }

    /// Sum of all entries as a `1 x 1` matrix.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let mut out = self.pool.take(1, 1);
        out.as_mut_slice()[0] = self.nodes[a.0].value.sum();
        self.push(out, Op::SumAll(a))
    }

    /// Mean of all entries as a `1 x 1` matrix.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let mut out = self.pool.take(1, 1);
        out.as_mut_slice()[0] = self.nodes[a.0].value.mean();
        self.push(out, Op::MeanAll(a))
    }

    /// Sum of all entries divided by the explicit count `denom`, as
    /// `1 x 1`.
    ///
    /// This is the shard-local slice of a global mean: adding
    /// `sum_div(shard, n)` over all shards of a batch of `n` elements
    /// equals the batch mean, and on a single shard covering the whole
    /// batch both the forward value and the backward fill (`g / denom`)
    /// are bit-identical to [`Tape::mean_all`].
    pub fn sum_div(&mut self, a: Var, denom: f64) -> Var {
        let mut out = self.pool.take(1, 1);
        out.as_mut_slice()[0] = self.nodes[a.0].value.sum() / denom;
        self.push(out, Op::SumDiv(a, denom))
    }

    /// Row sums as an `n x 1` column vector.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let mut out = self.pool.take(self.nodes[a.0].value.rows(), 1);
        self.nodes[a.0].value.row_sums_into(&mut out);
        self.push(out, Op::RowSum(a))
    }

    /// Numerically stable row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let mut out = self.take_like(a);
        out.copy_from(&self.nodes[a.0].value);
        out.softmax_rows_inplace();
        self.push(out, Op::SoftmaxRows(a))
    }

    /// Numerically stable row-wise log-softmax.
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        let mut out = self.take_like(a);
        out.copy_from(&self.nodes[a.0].value);
        out.log_softmax_rows_inplace();
        self.push(out, Op::LogSoftmaxRows(a))
    }

    // ---- composite convenience ops -------------------------------------

    /// Mean squared error between two same-shape matrices, as `1 x 1`.
    pub fn mse(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let sq = self.square(d);
        self.mean_all(sq)
    }

    /// Per-row squared Euclidean norms: `n x 1`.
    pub fn row_sq_norm(&mut self, a: Var) -> Var {
        let sq = self.square(a);
        self.row_sum(sq)
    }

    /// `a + b * s` — fused scale-and-add used when composing loss terms.
    pub fn add_scaled(&mut self, a: Var, b: Var, s: f64) -> Var {
        let sb = self.scale(b, s);
        self.add(a, sb)
    }

    /// Reverse-mode sweep from `loss` (must be `1 x 1`), flushing parameter
    /// gradients into `store`.
    ///
    /// Gradients **accumulate** in the store; call [`VarStore::zero_grads`]
    /// between optimizer steps. Every gradient buffer and temporary comes
    /// from (and returns to) the tape's pool, so after the warm-up step the
    /// sweep is allocation-free.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 x 1` matrix.
    pub fn backward(&mut self, loss: Var, store: &mut VarStore) {
        self.backward_sink(loss, &mut GradSink::Store(store));
    }

    /// [`Tape::backward`], but flushing parameter gradients into a
    /// detached [`GradSet`] instead of the store.
    ///
    /// This is the per-shard backward of data-parallel training: each
    /// shard sweeps into its own set (the same floating-point operations
    /// in the same order as [`Tape::backward`]), and the caller reduces
    /// the sets into the store in fixed shard order afterwards. `grads`
    /// must have been [`GradSet::reset`] against the store the graph's
    /// [`Tape::param`] leaves came from.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 x 1` matrix.
    pub fn backward_into(&mut self, loss: Var, grads: &mut GradSet) {
        self.backward_sink(loss, &mut GradSink::Set(grads));
    }

    fn backward_sink(&mut self, loss: Var, sink: &mut GradSink) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward: loss must be a 1x1 matrix"
        );
        let Tape {
            nodes,
            grads,
            needs,
            pool,
        } = self;
        for g in grads.drain(..).flatten() {
            pool.put(g);
        }
        grads.resize_with(nodes.len(), || None);

        // Needs-gradient reachability: a node's gradient matters only if it
        // can flow into a `Param` leaf. Nothing in the crate exposes
        // non-param gradients, so the sweep skips every branch that only
        // feeds constant `Input` leaves (the first layer's `dX`,
        // label-matrix gradients, …); the gradients it does compute run the
        // same kernels in the same order as a full sweep. Operands always
        // precede their consumers on the tape, so one forward pass
        // suffices.
        needs.clear();
        for node in nodes.iter() {
            let nd = match node.op {
                Op::Input => false,
                Op::Param(_) => true,
                Op::MatMul(a, b)
                | Op::Add(a, b)
                | Op::Sub(a, b)
                | Op::MulElem(a, b)
                | Op::AddRowBroadcast(a, b)
                | Op::MulColBroadcast(a, b) => needs[a.0] || needs[b.0],
                Op::Dense(x, w, b, _) => needs[x.0] || needs[w.0] || needs[b.0],
                Op::Scale(a, _)
                | Op::AddScalar(a)
                | Op::Relu(a)
                | Op::LeakyRelu(a, _)
                | Op::Sigmoid(a)
                | Op::Tanh(a)
                | Op::Exp(a)
                | Op::Ln(a)
                | Op::Abs(a)
                | Op::Square(a)
                | Op::Sqrt(a)
                | Op::Recip(a)
                | Op::Neg(a)
                | Op::Transpose(a)
                | Op::SumAll(a)
                | Op::MeanAll(a)
                | Op::SumDiv(a, _)
                | Op::RowSum(a)
                | Op::SoftmaxRows(a)
                | Op::LogSoftmaxRows(a) => needs[a.0],
            };
            needs.push(nd);
        }

        if needs[loss.0] {
            let mut seed = pool.take(1, 1);
            seed.fill(1.0);
            grads[loss.0] = Some(seed);
        }

        // When telemetry is hot, bucket per-node time into the GEMM /
        // elementwise sub-phases of `step.backward` (one clock read pair
        // per node, two `record_ns` calls per sweep). Disabled: no clock
        // reads at all.
        let timing = targad_obs::enabled();
        let mut gemm_ns: u64 = 0;
        let mut elem_ns: u64 = 0;

        for i in (0..nodes.len()).rev() {
            let mut g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            let node_start = timing.then(Instant::now);
            let is_gemm = matches!(nodes[i].op, Op::MatMul(..) | Op::Dense(..));
            match nodes[i].op {
                Op::Input => pool.put(g),
                Op::Param(id) => {
                    sink.accumulate(id, &g);
                    pool.put(g);
                }
                Op::MatMul(a, b) => {
                    let va = &nodes[a.0].value;
                    let vb = &nodes[b.0].value;
                    if needs[a.0] {
                        let mut da = pool.take(va.rows(), va.cols());
                        g.matmul_nt_into(vb, &mut da);
                        accumulate(grads, pool, a.0, da);
                    }
                    if needs[b.0] {
                        let mut db = pool.take(vb.rows(), vb.cols());
                        va.matmul_tn_into(&g, &mut db);
                        accumulate(grads, pool, b.0, db);
                    }
                    pool.put(g);
                }
                Op::Dense(x, w, b, act) => {
                    // Same accumulation order as the unfused triplet:
                    // bias (the AddRowBroadcast arm), then data, then
                    // weights (the MatMul arm's `a` before `b`). `dZ` is
                    // never materialized — each kernel computes it on its
                    // read path from `g` and the stored output.
                    let vy = &nodes[i].value;
                    let vx = &nodes[x.0].value;
                    let vw = &nodes[w.0].value;
                    if needs[b.0] {
                        let mut db = pool.take(1, g.cols());
                        dense_backward_bias_into(&g, vy, act, &mut db);
                        accumulate(grads, pool, b.0, db);
                    }
                    if needs[x.0] {
                        let mut dx = pool.take(vx.rows(), vx.cols());
                        dense_backward_data_into(&g, vy, act, vw, &mut dx);
                        accumulate(grads, pool, x.0, dx);
                    }
                    if needs[w.0] {
                        let mut dw = pool.take(vw.rows(), vw.cols());
                        dense_backward_weights_into(vx, &g, vy, act, &mut dw);
                        accumulate(grads, pool, w.0, dw);
                    }
                    pool.put(g);
                }
                Op::Add(a, b) => {
                    if needs[a.0] && needs[b.0] {
                        let mut da = pool.take(g.rows(), g.cols());
                        da.copy_from(&g);
                        accumulate(grads, pool, a.0, da);
                        accumulate(grads, pool, b.0, g);
                    } else if needs[a.0] {
                        accumulate(grads, pool, a.0, g);
                    } else {
                        accumulate(grads, pool, b.0, g);
                    }
                }
                Op::Sub(a, b) => {
                    if needs[a.0] && needs[b.0] {
                        let mut da = pool.take(g.rows(), g.cols());
                        da.copy_from(&g);
                        accumulate(grads, pool, a.0, da);
                        g.map_inplace(|x| -x);
                        accumulate(grads, pool, b.0, g);
                    } else if needs[a.0] {
                        accumulate(grads, pool, a.0, g);
                    } else {
                        g.map_inplace(|x| -x);
                        accumulate(grads, pool, b.0, g);
                    }
                }
                Op::MulElem(a, b) => {
                    if needs[a.0] && needs[b.0] {
                        let mut da = pool.take(g.rows(), g.cols());
                        g.zip_map_into(&nodes[b.0].value, |gv, y| gv * y, &mut da);
                        g.zip_map_inplace(&nodes[a.0].value, |gv, x| gv * x);
                        accumulate(grads, pool, a.0, da);
                        accumulate(grads, pool, b.0, g);
                    } else if needs[a.0] {
                        g.zip_map_inplace(&nodes[b.0].value, |gv, y| gv * y);
                        accumulate(grads, pool, a.0, g);
                    } else {
                        g.zip_map_inplace(&nodes[a.0].value, |gv, x| gv * x);
                        accumulate(grads, pool, b.0, g);
                    }
                }
                Op::AddRowBroadcast(a, row) => {
                    if needs[row.0] {
                        let mut drow = pool.take(1, g.cols());
                        g.col_sums_into(&mut drow);
                        accumulate(grads, pool, row.0, drow);
                    }
                    if needs[a.0] {
                        accumulate(grads, pool, a.0, g);
                    } else {
                        pool.put(g);
                    }
                }
                Op::MulColBroadcast(a, col) => {
                    if needs[col.0] {
                        let mut gx = pool.take(g.rows(), g.cols());
                        g.zip_map_into(&nodes[a.0].value, |gv, x| gv * x, &mut gx);
                        let mut dcol = pool.take(g.rows(), 1);
                        gx.row_sums_into(&mut dcol);
                        pool.put(gx);
                        if needs[a.0] {
                            g.mul_col_broadcast_inplace(&nodes[col.0].value);
                            accumulate(grads, pool, a.0, g);
                        } else {
                            pool.put(g);
                        }
                        accumulate(grads, pool, col.0, dcol);
                    } else {
                        g.mul_col_broadcast_inplace(&nodes[col.0].value);
                        accumulate(grads, pool, a.0, g);
                    }
                }
                Op::Scale(a, s) => {
                    g.map_inplace(|x| x * s);
                    accumulate(grads, pool, a.0, g);
                }
                Op::AddScalar(a) => accumulate(grads, pool, a.0, g),
                Op::Relu(a) => {
                    g.zip_map_inplace(&nodes[a.0].value, |gv, x| if x > 0.0 { gv } else { 0.0 });
                    accumulate(grads, pool, a.0, g);
                }
                Op::LeakyRelu(a, alpha) => {
                    g.zip_map_inplace(
                        &nodes[a.0].value,
                        |gv, x| if x > 0.0 { gv } else { alpha * gv },
                    );
                    accumulate(grads, pool, a.0, g);
                }
                Op::Sigmoid(a) => {
                    g.zip_map_inplace(&nodes[i].value, |gv, y| gv * (y * (1.0 - y)));
                    accumulate(grads, pool, a.0, g);
                }
                Op::Tanh(a) => {
                    g.zip_map_inplace(&nodes[i].value, |gv, y| gv * (1.0 - y * y));
                    accumulate(grads, pool, a.0, g);
                }
                Op::Exp(a) => {
                    g.zip_map_inplace(&nodes[i].value, |gv, y| gv * y);
                    accumulate(grads, pool, a.0, g);
                }
                Op::Ln(a) => {
                    g.zip_map_inplace(&nodes[a.0].value, |gv, x| gv * (1.0 / x.max(EPS)));
                    accumulate(grads, pool, a.0, g);
                }
                Op::Abs(a) => {
                    g.zip_map_inplace(&nodes[a.0].value, |gv, x| {
                        gv * if x > 0.0 {
                            1.0
                        } else if x < 0.0 {
                            -1.0
                        } else {
                            0.0
                        }
                    });
                    accumulate(grads, pool, a.0, g);
                }
                Op::Square(a) => {
                    g.zip_map_inplace(&nodes[a.0].value, |gv, x| gv * (2.0 * x));
                    accumulate(grads, pool, a.0, g);
                }
                Op::Sqrt(a) => {
                    g.zip_map_inplace(&nodes[i].value, |gv, y| gv * (0.5 / y.max(EPS)));
                    accumulate(grads, pool, a.0, g);
                }
                Op::Recip(a) => {
                    // d(1/x)/dx = -1/x^2 = -y^2 on the guarded domain.
                    g.zip_map_inplace(&nodes[i].value, |gv, y| gv * (-y * y));
                    accumulate(grads, pool, a.0, g);
                }
                Op::Neg(a) => {
                    g.map_inplace(|x| -x);
                    accumulate(grads, pool, a.0, g);
                }
                Op::Transpose(a) => {
                    let mut da = pool.take(g.cols(), g.rows());
                    g.transpose_into(&mut da);
                    pool.put(g);
                    accumulate(grads, pool, a.0, da);
                }
                Op::SumAll(a) => {
                    let (r, c) = nodes[a.0].value.shape();
                    let mut da = pool.take(r, c);
                    da.fill(g[(0, 0)]);
                    pool.put(g);
                    accumulate(grads, pool, a.0, da);
                }
                Op::MeanAll(a) => {
                    let (r, c) = nodes[a.0].value.shape();
                    let n = (r * c) as f64;
                    let mut da = pool.take(r, c);
                    da.fill(g[(0, 0)] / n);
                    pool.put(g);
                    accumulate(grads, pool, a.0, da);
                }
                Op::SumDiv(a, denom) => {
                    let (r, c) = nodes[a.0].value.shape();
                    let mut da = pool.take(r, c);
                    da.fill(g[(0, 0)] / denom);
                    pool.put(g);
                    accumulate(grads, pool, a.0, da);
                }
                Op::RowSum(a) => {
                    // Each row of da is the row's scalar gradient, broadcast.
                    let (r, c) = nodes[a.0].value.shape();
                    let mut da = pool.take(r, c);
                    for (row, &gv) in da.as_mut_slice().chunks_mut(c.max(1)).zip(g.as_slice()) {
                        row.fill(gv);
                    }
                    pool.put(g);
                    accumulate(grads, pool, a.0, da);
                }
                Op::SoftmaxRows(a) => {
                    // dx = y ⊙ (g − rowsum(g ⊙ y)).
                    let y = &nodes[i].value;
                    let mut dx = pool.take(g.rows(), g.cols());
                    g.zip_map_into(y, |gv, yv| gv * yv, &mut dx);
                    let mut dot = pool.take(g.rows(), 1);
                    dx.row_sums_into(&mut dot);
                    let cols = g.cols().max(1);
                    for ((dx_row, g_row), (y_row, &d)) in dx
                        .as_mut_slice()
                        .chunks_mut(cols)
                        .zip(g.as_slice().chunks(cols))
                        .zip(y.as_slice().chunks(cols).zip(dot.as_slice()))
                    {
                        for ((o, &gv), &yv) in dx_row.iter_mut().zip(g_row).zip(y_row) {
                            *o = (gv - d) * yv;
                        }
                    }
                    pool.put(g);
                    pool.put(dot);
                    accumulate(grads, pool, a.0, dx);
                }
                Op::LogSoftmaxRows(a) => {
                    // dx = g − softmax(x) ⊙ rowsum(g) broadcast.
                    let mut soft = pool.take(g.rows(), g.cols());
                    soft.copy_from(&nodes[a.0].value);
                    soft.softmax_rows_inplace();
                    let mut rs = pool.take(g.rows(), 1);
                    g.row_sums_into(&mut rs);
                    let cols = g.cols().max(1);
                    for ((g_row, s_row), &r) in g
                        .as_mut_slice()
                        .chunks_mut(cols)
                        .zip(soft.as_slice().chunks(cols))
                        .zip(rs.as_slice())
                    {
                        for (o, &s) in g_row.iter_mut().zip(s_row) {
                            *o -= s * r;
                        }
                    }
                    pool.put(soft);
                    pool.put(rs);
                    accumulate(grads, pool, a.0, g);
                }
            }
            if let Some(start) = node_start {
                let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if is_gemm {
                    gemm_ns += ns;
                } else {
                    elem_ns += ns;
                }
            }
        }
        if timing {
            targad_obs::profile::PHASE_STEP_BACKWARD_GEMM.record_ns(gemm_ns);
            targad_obs::profile::PHASE_STEP_BACKWARD_ELEM.record_ns(elem_ns);
        }
    }
}

/// Where a backward sweep flushes parameter gradients: straight into the
/// store ([`Tape::backward`]) or into a detached per-shard set
/// ([`Tape::backward_into`]).
enum GradSink<'a> {
    Store(&'a mut VarStore),
    Set(&'a mut GradSet),
}

impl GradSink<'_> {
    fn accumulate(&mut self, id: ParamId, delta: &Matrix) {
        match self {
            GradSink::Store(store) => store.accumulate_grad(id, delta),
            GradSink::Set(set) => set.accumulate(id, delta),
        }
    }
}

/// Adds `delta` into the gradient slot for node `idx`, recycling `delta`
/// when the slot already holds a buffer.
fn accumulate(grads: &mut [Option<Matrix>], pool: &mut Pool, idx: usize, delta: Matrix) {
    match &mut grads[idx] {
        Some(existing) => {
            existing.add_scaled_inplace(&delta, 1.0);
            pool.put(delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(values: &[Matrix]) -> (VarStore, Vec<ParamId>) {
        let mut vs = VarStore::new();
        let ids = values.iter().map(|m| vs.add(m.clone())).collect();
        (vs, ids)
    }

    #[test]
    fn forward_values_compose() {
        let mut t = Tape::new();
        let a = t.input(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.input(Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c)[(0, 0)], 11.0);
        let d = t.scale(c, 2.0);
        let e = t.add_scalar(d, 1.0);
        assert_eq!(t.value(e)[(0, 0)], 23.0);
    }

    #[test]
    fn backward_linear_chain() {
        // loss = mean((x*w - y)^2); check dL/dw analytically.
        let (mut vs, ids) = store_with(&[Matrix::from_vec(1, 1, vec![3.0])]);
        let mut t = Tape::new();
        let x = t.input(Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let y = t.input(Matrix::from_vec(2, 1, vec![2.0, 4.5]));
        let w = t.param(&vs, ids[0]);
        let pred = t.matmul(x, w);
        let loss = t.mse(pred, y);
        // residuals: (3-2)=1, (6-4.5)=1.5 -> loss = (1 + 2.25)/2
        assert!((t.value(loss)[(0, 0)] - 1.625).abs() < 1e-12);
        t.backward(loss, &mut vs);
        // dL/dw = mean over i of 2*(x_i*w - y_i)*x_i = (2*1*1 + 2*1.5*2)/2 = 4
        assert!((vs.grad(ids[0])[(0, 0)] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn backward_accumulates_for_shared_nodes() {
        // loss = sum(w + w) -> dL/dw = 2 per element.
        let (mut vs, ids) = store_with(&[Matrix::from_vec(1, 2, vec![1.0, -1.0])]);
        let mut t = Tape::new();
        let w = t.param(&vs, ids[0]);
        let s = t.add(w, w);
        let loss = t.sum_all(s);
        t.backward(loss, &mut vs);
        assert_eq!(vs.grad(ids[0]).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be a 1x1")]
    fn backward_rejects_non_scalar_loss() {
        let mut vs = VarStore::new();
        let mut t = Tape::new();
        let a = t.input(Matrix::zeros(2, 2));
        t.backward(a, &mut vs);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        let mut t = Tape::new();
        let a = t.input(Matrix::from_vec(1, 2, vec![1000.0, -1000.0]));
        let s = t.sigmoid(a);
        assert_eq!(t.value(s)[(0, 0)], 1.0);
        assert_eq!(t.value(s)[(0, 1)], 0.0);
    }

    #[test]
    fn softmax_rows_forward_matches_linalg() {
        let m = Matrix::from_vec(2, 3, vec![0.0, 1.0, 2.0, -1.0, 0.5, 0.25]);
        let mut t = Tape::new();
        let a = t.input(m.clone());
        let s = t.softmax_rows(a);
        assert_eq!(t.value(s), &m.softmax_rows());
    }

    #[test]
    fn weighted_ce_against_hand_computed() {
        // A 2-instance, 2-class weighted CE:
        //   L = (1/2) Σ_i w_i Σ_j −y_ij log p_ij
        let logits = Matrix::from_vec(2, 2, vec![0.0, 0.0, 2.0, 0.0]);
        let targets = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let weights = Matrix::col_vector(&[1.0, 2.0]);
        let mut t = Tape::new();
        let z = t.input(logits);
        let y = t.input(targets);
        let wv = t.input(weights);
        let logp = t.log_softmax_rows(z);
        let prod = t.mul(y, logp);
        let per_row = t.row_sum(prod);
        let weighted = t.mul(per_row, wv);
        let sum = t.sum_all(weighted);
        let loss = t.scale(sum, -0.5);
        // row0: log p = log 0.5 -> contributes -log 0.5 * 1
        // row1: p_1 = e^0/(e^2+e^0); -log p_1 = log(1+e^2) * 2
        let expected = 0.5 * (-(0.5f64.ln()) + 2.0 * (1.0 + 2.0f64.exp()).ln());
        assert!((t.value(loss)[(0, 0)] - expected).abs() < 1e-10);
    }

    #[test]
    fn input_from_variants_match_input() {
        let data = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f64 * 0.5);
        let mut t = Tape::new();
        let a = t.input(data.clone());
        let b = t.input_from(&data);
        assert_eq!(t.value(a), t.value(b));
        let rows = [4, 0, 2];
        let c = t.input_rows_from(&data, &rows);
        assert_eq!(t.value(c), &data.take_rows(&rows));
    }

    /// One gradient-descent step on `loss = mean((x*w + b - y)^2)` built on
    /// `tape`; returns (loss, grad_w, grad_b) for bit-level comparison.
    fn lsq_step(tape: &mut Tape, vs: &mut VarStore, ids: &[ParamId]) -> (f64, Matrix, Matrix) {
        vs.zero_grads();
        let x = tape.input(Matrix::from_fn(8, 3, |r, c| {
            ((r * 3 + c) % 7) as f64 * 0.25 - 0.5
        }));
        let y = tape.input(Matrix::from_fn(8, 2, |r, c| {
            ((r * 2 + c) % 5) as f64 * 0.3 - 0.4
        }));
        let w = tape.param(vs, ids[0]);
        let b = tape.param(vs, ids[1]);
        let xw = tape.matmul(x, w);
        let pred = tape.add_row_broadcast(xw, b);
        let sm = tape.softmax_rows(pred);
        let loss = tape.mse(sm, y);
        tape.backward(loss, vs);
        (
            tape.value(loss)[(0, 0)],
            vs.grad(ids[0]).clone(),
            vs.grad(ids[1]).clone(),
        )
    }

    #[test]
    fn reset_tape_is_bit_identical_to_fresh_tape() {
        let params = [
            Matrix::from_fn(3, 2, |r, c| (r as f64 - c as f64) * 0.21),
            Matrix::from_fn(1, 2, |_, c| c as f64 * 0.11 - 0.05),
        ];
        let (mut vs_fresh, ids_fresh) = store_with(&params);
        let (mut vs_pooled, ids_pooled) = store_with(&params);

        let mut pooled = Tape::new();
        for step in 0..5 {
            let mut fresh = Tape::new();
            let a = lsq_step(&mut fresh, &mut vs_fresh, &ids_fresh);
            pooled.reset();
            let b = lsq_step(&mut pooled, &mut vs_pooled, &ids_pooled);
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "loss at step {step}");
            assert_eq!(a.1, b.1, "grad_w at step {step}");
            assert_eq!(a.2, b.2, "grad_b at step {step}");
            // Apply identical updates so later steps see identical params.
            for (&idf, &idp) in ids_fresh.iter().zip(&ids_pooled) {
                let gf = vs_fresh.grad(idf).clone();
                vs_fresh.value_mut(idf).add_scaled_inplace(&gf, -0.1);
                let gp = vs_pooled.grad(idp).clone();
                vs_pooled.value_mut(idp).add_scaled_inplace(&gp, -0.1);
            }
        }
    }

    #[test]
    fn sum_div_over_the_whole_matrix_is_bit_identical_to_mean_all() {
        let data = Matrix::from_fn(7, 3, |r, c| ((r * 3 + c) as f64).sin());
        let (mut vs_a, ids_a) = store_with(std::slice::from_ref(&data));
        let (mut vs_b, ids_b) = store_with(std::slice::from_ref(&data));

        let mut ta = Tape::new();
        let wa = ta.param(&vs_a, ids_a[0]);
        let sq_a = ta.square(wa);
        let la = ta.mean_all(sq_a);
        ta.backward(la, &mut vs_a);

        let mut tb = Tape::new();
        let wb = tb.param(&vs_b, ids_b[0]);
        let sq_b = tb.square(wb);
        let lb = tb.sum_div(sq_b, (7 * 3) as f64);
        tb.backward(lb, &mut vs_b);

        assert_eq!(
            ta.value(la)[(0, 0)].to_bits(),
            tb.value(lb)[(0, 0)].to_bits()
        );
        assert_eq!(vs_a.grad(ids_a[0]), vs_b.grad(ids_b[0]));
    }

    #[test]
    fn sum_div_shards_reduce_to_the_whole_batch_gradient() {
        // mean over 10 rows == sum of two sum_div(…, 10) shard partials;
        // gradients agree to fp-roundoff (exactly, for the fill pattern).
        let data = Matrix::from_fn(10, 2, |r, c| (r * 2 + c) as f64 * 0.25 - 1.0);
        let (mut vs, ids) = store_with(&[Matrix::from_vec(2, 1, vec![0.7, -0.3])]);

        let mut t = Tape::new();
        let w = t.param(&vs, ids[0]);
        let x = t.input_from(&data);
        let p = t.matmul(x, w);
        let sq = t.square(p);
        let loss = t.mean_all(sq);
        t.backward(loss, &mut vs);
        let whole = vs.grad(ids[0]).clone();
        let whole_loss = t.value(loss)[(0, 0)];

        vs.zero_grads();
        let mut partials = 0.0;
        for (lo, hi) in [(0usize, 6usize), (6, 10)] {
            let mut ts = Tape::new();
            let w = ts.param(&vs, ids[0]);
            let x = ts.input_row_slice_from(&data, lo, hi);
            let p = ts.matmul(x, w);
            let sq = ts.square(p);
            let part = ts.sum_div(sq, 10.0);
            partials += ts.value(part)[(0, 0)];
            ts.backward(part, &mut vs);
        }
        assert!((whole_loss - partials).abs() < 1e-12);
        let sharded = vs.grad(ids[0]);
        for (a, b) in whole.as_slice().iter().zip(sharded.as_slice()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn backward_into_matches_backward_bit_for_bit() {
        let params = [
            Matrix::from_fn(3, 2, |r, c| (r as f64 - c as f64) * 0.21),
            Matrix::from_fn(1, 2, |_, c| c as f64 * 0.11 - 0.05),
        ];
        let (mut vs_direct, ids_direct) = store_with(&params);
        let (mut vs_set, ids_set) = store_with(&params);

        let mut t = Tape::new();
        let (_, gw, gb) = lsq_step(&mut t, &mut vs_direct, &ids_direct);

        let mut t2 = Tape::new();
        vs_set.zero_grads();
        let x = t2.input(Matrix::from_fn(8, 3, |r, c| {
            ((r * 3 + c) % 7) as f64 * 0.25 - 0.5
        }));
        let y = t2.input(Matrix::from_fn(8, 2, |r, c| {
            ((r * 2 + c) % 5) as f64 * 0.3 - 0.4
        }));
        let w = t2.param(&vs_set, ids_set[0]);
        let b = t2.param(&vs_set, ids_set[1]);
        let xw = t2.matmul(x, w);
        let pred = t2.add_row_broadcast(xw, b);
        let sm = t2.softmax_rows(pred);
        let loss = t2.mse(sm, y);
        let mut set = GradSet::new();
        set.reset(&vs_set);
        t2.backward_into(loss, &mut set);
        assert_eq!(set.grad(ids_set[0]), &gw);
        assert_eq!(set.grad(ids_set[1]), &gb);
        set.flush_into(&mut vs_set);
        assert_eq!(vs_set.grad(ids_set[0]), &gw);
        assert_eq!(vs_set.grad(ids_set[1]), &gb);
    }

    #[test]
    fn pooled_input_variants_gather_correctly() {
        let data = Matrix::from_fn(6, 4, |r, c| (r * 4 + c) as f64);
        let mut t = Tape::new();
        let slice = t.input_row_slice_from(&data, 2, 5);
        assert_eq!(t.value(slice), &data.take_rows(&[2, 3, 4]));
        let weights = [0.5, 1.5, 2.5, 3.5];
        let col = t.input_gather_col(&weights, &[3, 0, 2]);
        assert_eq!(t.value(col), &Matrix::col_vector(&[3.5, 0.5, 2.5]));
    }

    #[test]
    #[should_panic(expected = "bad row range")]
    fn input_row_slice_rejects_out_of_bounds() {
        let data = Matrix::zeros(3, 2);
        let mut t = Tape::new();
        t.input_row_slice_from(&data, 1, 4);
    }

    #[test]
    fn reset_recycles_buffers() {
        let mut t = Tape::new();
        for _ in 0..3 {
            t.reset();
            let a = t.input(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
            let b = t.square(a);
            let loss = t.mean_all(b);
            let mut vs = VarStore::new();
            t.backward(loss, &mut vs);
            assert_eq!(t.len(), 3);
        }
    }
}
