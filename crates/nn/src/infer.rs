//! The zero-allocation batched inference engine.
//!
//! Every scoring path in the workspace — TargAD's Eq. 9 target scores, the
//! per-epoch probe scoring behind the convergence figures, the Eq. 2
//! reconstruction-error ranking, and all MLP-backed baseline `score()`
//! implementations — is a *frozen* forward pass: matrices of weights that no
//! longer change, applied to a batch of rows. [`ScoreEngine`] runs that pass
//! with three properties a plain per-layer forward (`Mlp::eval`) lacks:
//!
//! 1. **Fused epilogues** — each dense layer is one call to
//!    `targad_linalg::matmul_bias_act_rows_into`, which applies the bias add
//!    and elementwise activation in the GEMM's write-back instead of as two
//!    further full-matrix passes.
//! 2. **Pooled ping-pong scratch** — layer outputs alternate between two
//!    per-worker scratch buffers that are kept at capacity across batches
//!    (the same discipline as the pooled `Tape`), so steady-state scoring
//!    performs zero heap allocations.
//! 3. **Deterministic row-block streaming** — input rows are partitioned
//!    into fixed [`INFER_BLOCK_ROWS`]-row blocks that never depend on the
//!    worker count, and each block is computed in full by exactly one
//!    worker. Every output score depends only on its own input row, so the
//!    result is bit-identical at any `TARGAD_THREADS`, and memory stays
//!    O(block), not O(n).
//!
//! `Mlp::eval` runs the same fused kernel over the whole batch, and block
//! streaming only re-partitions independent per-row chains, so the two are
//! bit-identical. Neither is the test oracle: `targad-bench`'s
//! `engine_identity` suite checks the engine and `Mlp::eval` against a
//! test-side naive triple loop `act(x·W + b)` read from the public
//! parameter views, bit for bit, at workers {1, 2, 7}.

use std::sync::Mutex;

use targad_autograd::VarStore;
use targad_linalg::f32kernel::matmul_bias_act_f32_into;
use targad_linalg::{matmul_bias_act_rows_into, EpiAct, Matrix, PackedF32};
use targad_obs::metrics::{
    SCORE_BATCHES, SCORE_BLOCKS, SCORE_ENGINE_POOL_BYTES, SCORE_F32_BATCHES, SCORE_ROWS,
};
use targad_obs::profile::{span, PHASE_INFER};
use targad_runtime::Runtime;

use crate::layers::Mlp;

/// Rows per streamed block. Fixed — never derived from the worker count —
/// so the block partition (and therefore every accumulation chain grouping)
/// is invariant under `TARGAD_THREADS`. 256 rows keeps a block's widest
/// layer activation within L2 for every architecture in the reproduction
/// while still amortizing the per-block dispatch.
pub const INFER_BLOCK_ROWS: usize = 256;

/// A frozen forward pass: MLPs applied in sequence, each with its own
/// parameter store. A single network is `&[(&mlp, &store)]`; an autoencoder
/// chains `[(&encoder, store), (&decoder, store)]`.
pub type ModelStack<'a> = &'a [(&'a Mlp, &'a VarStore)];

/// Arithmetic precision of an inference pass.
///
/// [`EnginePrecision::F64`] is the bit-exact default every scorer uses;
/// [`EnginePrecision::F32`] is the opt-in SIMD serving path whose
/// ranking fidelity (AUC-PR, verdict agreement) is tolerance-tested against
/// the oracle. Training is always f64 — this knob only selects how a
/// *fitted* model is evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EnginePrecision {
    /// Double precision, bit-exact (default).
    #[default]
    F64,
    /// Single precision through the `targad-linalg` f32 micro-kernels.
    F32,
}

impl EnginePrecision {
    /// Stable wire/JSON name: `f64` or `f32`.
    pub fn name(self) -> &'static str {
        match self {
            EnginePrecision::F64 => "f64",
            EnginePrecision::F32 => "f32",
        }
    }

    /// Parses a wire/CLI name, case-insensitively.
    pub fn parse(name: &str) -> Option<EnginePrecision> {
        match name.to_ascii_lowercase().as_str() {
            "f64" | "double" => Some(EnginePrecision::F64),
            "f32" | "single" => Some(EnginePrecision::F32),
            _ => None,
        }
    }
}

/// One dense layer of an [`F32Plan`]: pre-packed f32 weights, cast bias,
/// and the fused epilogue activation.
struct F32Layer {
    weights: PackedF32,
    bias: Vec<f32>,
    act: EpiAct,
    d_out: usize,
}

/// A fitted model cast to the f32 kernel layout *once*: every layer's f64
/// weight matrix becomes a [`PackedF32`] panel set (the micro-kernel's
/// native streaming order) and its bias a contiguous f32 vector.
///
/// Build one per fitted model — at registry insert / hot-swap in
/// `targad-serve`, or lazily on first f32 scoring call — and reuse it for
/// every batch; the cast+pack cost is paid exactly once.
pub struct F32Plan {
    layers: Vec<F32Layer>,
    d_in: usize,
    d_out: usize,
}

impl F32Plan {
    /// Casts and packs the frozen forward pass of `stack`.
    pub fn from_stack(stack: ModelStack<'_>) -> Self {
        assert!(!stack.is_empty(), "F32Plan: empty model stack");
        let d_in = stack[0].0.in_dim();
        let mut layers = Vec::new();
        let mut cur_dim = d_in;
        for &(mlp, store) in stack {
            assert_eq!(mlp.in_dim(), cur_dim, "F32Plan: stack dim chain");
            for (i, layer) in mlp.layers().iter().enumerate() {
                let (wid, bid) = layer.params();
                let weights = PackedF32::from_matrix(store.value(wid));
                let bias: Vec<f32> = store
                    .value(bid)
                    .as_slice()
                    .iter()
                    .map(|&b| b as f32)
                    .collect();
                layers.push(F32Layer {
                    weights,
                    bias,
                    act: mlp.act(i).epi(),
                    d_out: layer.out_dim(),
                });
                cur_dim = layer.out_dim();
            }
        }
        Self {
            layers,
            d_in,
            d_out: cur_dim,
        }
    }

    /// Input dimensionality of the planned pass.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output dimensionality of the planned pass.
    pub fn d_out(&self) -> usize {
        self.d_out
    }

    /// Bytes held by the packed weights and cast biases.
    pub fn bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.bytes() + l.bias.capacity() * std::mem::size_of::<f32>())
            .sum()
    }
}

/// Per-worker ping-pong scratch: layer `l` reads one buffer and writes the
/// other. Both are kept at high-water capacity across batches.
#[derive(Default)]
struct Scratch {
    a: Vec<f64>,
    b: Vec<f64>,
}

/// Per-worker f32 scratch: the cast input block plus the ping-pong layer
/// buffers of the reduced-precision path. Kept at high-water capacity
/// across batches, exactly like [`Scratch`].
#[derive(Default)]
struct ScratchF32 {
    x: Vec<f32>,
    a: Vec<f32>,
    b: Vec<f32>,
}

/// The pre-planned, pooled inference pipeline. See the module docs.
///
/// One engine amortizes its scratch across every batch it runs; scoring
/// paths hold one per fitted model (via [`EngineCell`]) so repeated scoring
/// — per-epoch probe traces, suite-table regeneration — stops allocating
/// after the first batch.
#[derive(Default)]
pub struct ScoreEngine {
    /// One scratch pair per worker slot (index = worker id).
    scratch: Vec<Scratch>,
    /// One f32 scratch triple per worker slot, grown only by the
    /// reduced-precision path.
    scratch_f32: Vec<ScratchF32>,
    /// One result buffer per row block (index = block id), shared by both
    /// precisions (finish closures always emit `f64`).
    results: Vec<Vec<f64>>,
}

impl ScoreEngine {
    /// A fresh engine with an empty buffer pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the frozen forward pass of `stack` over `x` and reduces each
    /// final-layer row to one score with `finish(global_row, row)`, writing
    /// `out[r] = finish(r, final_layer_row_r)`.
    ///
    /// `finish` must be a pure per-row function; scores are then
    /// bit-identical at any worker count.
    pub fn score_into<F>(
        &mut self,
        stack: ModelStack<'_>,
        x: &Matrix,
        rt: &Runtime,
        finish: F,
        out: &mut [f64],
    ) where
        F: Fn(usize, &[f64]) -> f64 + Sync,
    {
        assert_eq!(out.len(), x.rows(), "score_into: out length mismatch");
        self.run_blocks(stack, x, rt, |start, d_last, fin, result| {
            let rb = fin.len() / d_last.max(1);
            result.resize(rb, 0.0);
            for (r, (slot, row)) in result.iter_mut().zip(fin.chunks_exact(d_last)).enumerate() {
                *slot = finish(start + r, row);
            }
        });
        // Ascending-block gather: deterministic and cheap (one copy).
        let nblocks = x.rows().div_ceil(INFER_BLOCK_ROWS);
        for (block, chunk) in self.results[..nblocks]
            .iter()
            .zip(out.chunks_mut(INFER_BLOCK_ROWS))
        {
            chunk.copy_from_slice(block);
        }
    }

    /// [`ScoreEngine::score_into`] into a fresh `Vec` (the allocation is the
    /// caller's result, not engine scratch).
    pub fn score<F>(
        &mut self,
        stack: ModelStack<'_>,
        x: &Matrix,
        rt: &Runtime,
        finish: F,
    ) -> Vec<f64>
    where
        F: Fn(usize, &[f64]) -> f64 + Sync,
    {
        let mut out = vec![0.0; x.rows()];
        self.score_into(stack, x, rt, finish, &mut out);
        out
    }

    /// Like [`ScoreEngine::score_into`], but each row reduces to a *pair*
    /// of values: `out[r] = finish(r, final_layer_row_r)`.
    ///
    /// This is the verdict entry point: a serving response needs both the
    /// scalar score and the (numerically encoded) decision class, and
    /// producing them in one fused pass avoids a second forward. Pairs are
    /// stored interleaved in the same pooled `f64` block buffers the
    /// scalar path uses, so steady-state batches stay allocation-free.
    ///
    /// `finish` must be a pure per-row function; results are then
    /// bit-identical at any worker count.
    pub fn score_pairs_into<F>(
        &mut self,
        stack: ModelStack<'_>,
        x: &Matrix,
        rt: &Runtime,
        finish: F,
        out: &mut [(f64, f64)],
    ) where
        F: Fn(usize, &[f64]) -> (f64, f64) + Sync,
    {
        assert_eq!(out.len(), x.rows(), "score_pairs_into: out length mismatch");
        self.run_blocks(stack, x, rt, |start, d_last, fin, result| {
            let rb = fin.len() / d_last.max(1);
            result.resize(2 * rb, 0.0);
            for (r, row) in fin.chunks_exact(d_last).enumerate() {
                let (a, b) = finish(start + r, row);
                result[2 * r] = a;
                result[2 * r + 1] = b;
            }
        });
        let nblocks = x.rows().div_ceil(INFER_BLOCK_ROWS);
        for (block, chunk) in self.results[..nblocks]
            .iter()
            .zip(out.chunks_mut(INFER_BLOCK_ROWS))
        {
            for (slot, pair) in chunk.iter_mut().zip(block.chunks_exact(2)) {
                *slot = (pair[0], pair[1]);
            }
        }
    }

    /// [`ScoreEngine::score_pairs_into`] into a fresh `Vec`.
    pub fn score_pairs<F>(
        &mut self,
        stack: ModelStack<'_>,
        x: &Matrix,
        rt: &Runtime,
        finish: F,
    ) -> Vec<(f64, f64)>
    where
        F: Fn(usize, &[f64]) -> (f64, f64) + Sync,
    {
        let mut out = vec![(0.0, 0.0); x.rows()];
        self.score_pairs_into(stack, x, rt, finish, &mut out);
        out
    }

    /// Runs the frozen forward pass of `stack` over `x` and writes the
    /// final-layer activations into `out` (shape `x.rows() x d_out`).
    /// The embedding counterpart of [`ScoreEngine::score_into`] for paths
    /// that need the full output matrix (REPEN embeddings, FEAWAD's
    /// representation assembly).
    pub fn forward_into(
        &mut self,
        stack: ModelStack<'_>,
        x: &Matrix,
        rt: &Runtime,
        out: &mut Matrix,
    ) {
        let d_last = stack
            .last()
            .map(|(mlp, _)| mlp.out_dim())
            .expect("forward_into: empty stack");
        assert_eq!(
            out.shape(),
            (x.rows(), d_last),
            "forward_into: out shape mismatch"
        );
        self.run_blocks(stack, x, rt, |_start, _d, fin, result| {
            result.resize(fin.len(), 0.0);
            result.copy_from_slice(fin);
        });
        let nblocks = x.rows().div_ceil(INFER_BLOCK_ROWS);
        for (block, chunk) in self.results[..nblocks]
            .iter()
            .zip(out.as_mut_slice().chunks_mut(INFER_BLOCK_ROWS * d_last))
        {
            chunk.copy_from_slice(block);
        }
    }

    /// The streaming core: partitions `x` into fixed row blocks, runs the
    /// fused layer pipeline per block on the runtime pool (one block per
    /// worker at a time, contiguous block ranges per worker), and hands each
    /// block's final activations to `emit(start_row, d_last, rows, result)`.
    fn run_blocks<E>(&mut self, stack: ModelStack<'_>, x: &Matrix, rt: &Runtime, emit: E)
    where
        E: Fn(usize, usize, &[f64], &mut Vec<f64>) + Sync,
    {
        let _guard = span(&PHASE_INFER);
        let rows = x.rows();
        let d_in = x.cols();
        assert!(!stack.is_empty(), "ScoreEngine: empty model stack");
        assert_eq!(stack[0].0.in_dim(), d_in, "ScoreEngine: input dim mismatch");
        SCORE_BATCHES.inc();
        SCORE_ROWS.add(rows as u64);
        if rows == 0 {
            return;
        }

        let nblocks = rows.div_ceil(INFER_BLOCK_ROWS);
        SCORE_BLOCKS.add(nblocks as u64);
        let workers = rt.threads().min(nblocks).max(1);
        // Grow-only pools: `resize_with` would drop warm buffers on shrink.
        if self.results.len() < nblocks {
            self.results.resize_with(nblocks, Vec::new);
        }
        if self.scratch.len() < workers {
            self.scratch.resize_with(workers, Scratch::default);
        }

        let xs = x.as_slice();
        rt.par_shards(
            &mut self.results[..nblocks],
            &mut self.scratch[..workers],
            |s, result, scr| {
                let start = s * INFER_BLOCK_ROWS;
                let rb = (rows - start).min(INFER_BLOCK_ROWS);
                let mut cur_dim = d_in;
                // `true` when the *next* layer writes into `scr.a`.
                let mut dst_is_a = true;
                let mut first = true;
                for &(mlp, store) in stack {
                    debug_assert_eq!(mlp.in_dim(), cur_dim, "ScoreEngine: stack dim chain");
                    for (i, layer) in mlp.layers().iter().enumerate() {
                        let (wid, bid) = layer.params();
                        let w = store.value(wid);
                        let bias = store.value(bid).as_slice();
                        let act = mlp.act(i).epi();
                        let d_out = layer.out_dim();
                        let (src, dst) = if first {
                            let rows_in = &xs[start * cur_dim..(start + rb) * cur_dim];
                            (rows_in, &mut scr.a)
                        } else if dst_is_a {
                            (&scr.b[..rb * cur_dim], &mut scr.a)
                        } else {
                            (&scr.a[..rb * cur_dim], &mut scr.b)
                        };
                        dst.resize(rb * d_out, 0.0);
                        matmul_bias_act_rows_into(src, cur_dim, w, bias, act, &mut dst[..]);
                        first = false;
                        dst_is_a = !dst_is_a;
                        cur_dim = d_out;
                    }
                }
                let fin = if dst_is_a {
                    &scr.b[..rb * cur_dim]
                } else {
                    &scr.a[..rb * cur_dim]
                };
                emit(start, cur_dim, fin, result);
            },
        );

        SCORE_ENGINE_POOL_BYTES.set(self.pool_bytes() as u64);
    }

    /// [`ScoreEngine::score_into`] on the reduced-precision path: each input
    /// block is cast to f32 once, streamed through `plan`'s pre-packed
    /// layers via the `targad-linalg` f32 micro-kernels, and reduced per row
    /// by `finish(global_row, f32_row) -> f64`.
    ///
    /// Worker-count invariance holds exactly as for the f64 path: the block
    /// partition is fixed, each row's chains are independent, and the f32
    /// kernels are bit-identical across their dispatch paths — so scores
    /// are bit-identical at any `TARGAD_THREADS` *given* the process's
    /// dispatch decision, and across SIMD/scalar hosts too.
    pub fn score_f32_into<F>(
        &mut self,
        plan: &F32Plan,
        x: &Matrix,
        rt: &Runtime,
        finish: F,
        out: &mut [f64],
    ) where
        F: Fn(usize, &[f32]) -> f64 + Sync,
    {
        assert_eq!(out.len(), x.rows(), "score_f32_into: out length mismatch");
        self.run_blocks_f32(plan, x, rt, |start, d_last, fin, result| {
            let rb = fin.len() / d_last.max(1);
            result.resize(rb, 0.0);
            for (r, (slot, row)) in result.iter_mut().zip(fin.chunks_exact(d_last)).enumerate() {
                *slot = finish(start + r, row);
            }
        });
        let nblocks = x.rows().div_ceil(INFER_BLOCK_ROWS);
        for (block, chunk) in self.results[..nblocks]
            .iter()
            .zip(out.chunks_mut(INFER_BLOCK_ROWS))
        {
            chunk.copy_from_slice(block);
        }
    }

    /// [`ScoreEngine::score_f32_into`] into a fresh `Vec`.
    pub fn score_f32<F>(&mut self, plan: &F32Plan, x: &Matrix, rt: &Runtime, finish: F) -> Vec<f64>
    where
        F: Fn(usize, &[f32]) -> f64 + Sync,
    {
        let mut out = vec![0.0; x.rows()];
        self.score_f32_into(plan, x, rt, finish, &mut out);
        out
    }

    /// [`ScoreEngine::score_pairs_into`] on the reduced-precision path —
    /// the f32 verdict entry point for `targad-serve`.
    pub fn score_pairs_f32_into<F>(
        &mut self,
        plan: &F32Plan,
        x: &Matrix,
        rt: &Runtime,
        finish: F,
        out: &mut [(f64, f64)],
    ) where
        F: Fn(usize, &[f32]) -> (f64, f64) + Sync,
    {
        assert_eq!(
            out.len(),
            x.rows(),
            "score_pairs_f32_into: out length mismatch"
        );
        self.run_blocks_f32(plan, x, rt, |start, d_last, fin, result| {
            let rb = fin.len() / d_last.max(1);
            result.resize(2 * rb, 0.0);
            for (r, row) in fin.chunks_exact(d_last).enumerate() {
                let (a, b) = finish(start + r, row);
                result[2 * r] = a;
                result[2 * r + 1] = b;
            }
        });
        let nblocks = x.rows().div_ceil(INFER_BLOCK_ROWS);
        for (block, chunk) in self.results[..nblocks]
            .iter()
            .zip(out.chunks_mut(INFER_BLOCK_ROWS))
        {
            for (slot, pair) in chunk.iter_mut().zip(block.chunks_exact(2)) {
                *slot = (pair[0], pair[1]);
            }
        }
    }

    /// [`ScoreEngine::score_pairs_f32_into`] into a fresh `Vec`.
    pub fn score_pairs_f32<F>(
        &mut self,
        plan: &F32Plan,
        x: &Matrix,
        rt: &Runtime,
        finish: F,
    ) -> Vec<(f64, f64)>
    where
        F: Fn(usize, &[f32]) -> (f64, f64) + Sync,
    {
        let mut out = vec![(0.0, 0.0); x.rows()];
        self.score_pairs_f32_into(plan, x, rt, finish, &mut out);
        out
    }

    /// The f32 twin of [`ScoreEngine::run_blocks`]: the same fixed-block
    /// streaming over the runtime pool, but each worker casts its block to
    /// f32 once and runs the pre-packed fused f32 kernels layer by layer.
    fn run_blocks_f32<E>(&mut self, plan: &F32Plan, x: &Matrix, rt: &Runtime, emit: E)
    where
        E: Fn(usize, usize, &[f32], &mut Vec<f64>) + Sync,
    {
        let _guard = span(&PHASE_INFER);
        let rows = x.rows();
        let d_in = x.cols();
        assert_eq!(plan.d_in(), d_in, "ScoreEngine: f32 plan dim mismatch");
        SCORE_BATCHES.inc();
        SCORE_F32_BATCHES.inc();
        SCORE_ROWS.add(rows as u64);
        if rows == 0 {
            return;
        }

        let nblocks = rows.div_ceil(INFER_BLOCK_ROWS);
        SCORE_BLOCKS.add(nblocks as u64);
        let workers = rt.threads().min(nblocks).max(1);
        if self.results.len() < nblocks {
            self.results.resize_with(nblocks, Vec::new);
        }
        if self.scratch_f32.len() < workers {
            self.scratch_f32.resize_with(workers, ScratchF32::default);
        }

        let xs = x.as_slice();
        rt.par_shards(
            &mut self.results[..nblocks],
            &mut self.scratch_f32[..workers],
            |s, result, scr| {
                let start = s * INFER_BLOCK_ROWS;
                let rb = (rows - start).min(INFER_BLOCK_ROWS);
                // One cast per block: the f64 input rows narrow to f32 here
                // and never again.
                scr.x.resize(rb * d_in, 0.0);
                for (dst, &src) in scr.x.iter_mut().zip(&xs[start * d_in..(start + rb) * d_in]) {
                    *dst = src as f32;
                }
                let mut cur_dim = d_in;
                let mut dst_is_a = true;
                let mut first = true;
                for layer in &plan.layers {
                    let (src, dst) = if first {
                        (&scr.x[..rb * cur_dim], &mut scr.a)
                    } else if dst_is_a {
                        (&scr.b[..rb * cur_dim], &mut scr.a)
                    } else {
                        (&scr.a[..rb * cur_dim], &mut scr.b)
                    };
                    dst.resize(rb * layer.d_out, 0.0);
                    matmul_bias_act_f32_into(
                        src,
                        cur_dim,
                        &layer.weights,
                        &layer.bias,
                        layer.act,
                        &mut dst[..],
                    );
                    first = false;
                    dst_is_a = !dst_is_a;
                    cur_dim = layer.d_out;
                }
                let fin = if dst_is_a {
                    &scr.b[..rb * cur_dim]
                } else {
                    &scr.a[..rb * cur_dim]
                };
                emit(start, cur_dim, fin, result);
            },
        );

        SCORE_ENGINE_POOL_BYTES.set(self.pool_bytes() as u64);
    }

    /// Bytes of scratch capacity currently held by the engine's pool —
    /// every pool: the f64 ping-pong scratch, the f32 cast-input and
    /// ping-pong scratch, and the per-block result buffers.
    pub fn pool_bytes(&self) -> usize {
        let scratch: usize = self
            .scratch
            .iter()
            .map(|s| s.a.capacity() + s.b.capacity())
            .sum();
        let results: usize = self.results.iter().map(Vec::capacity).sum();
        let f32_scratch: usize = self
            .scratch_f32
            .iter()
            .map(|s| s.x.capacity() + s.a.capacity() + s.b.capacity())
            .sum();
        (scratch + results) * std::mem::size_of::<f64>() + f32_scratch * std::mem::size_of::<f32>()
    }
}

/// A [`ScoreEngine`] behind a `Mutex`, embeddable in fitted models whose
/// `score(&self, ..)` takes a shared reference. The scratch pool is pure
/// cache, so `Clone` hands back a *fresh* empty cell (cloned models re-warm
/// independently) and equality/serialization concerns never arise.
#[derive(Default)]
pub struct EngineCell(Mutex<ScoreEngine>);

impl EngineCell {
    /// A cell holding a fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with exclusive access to the engine.
    pub fn with<R>(&self, f: impl FnOnce(&mut ScoreEngine) -> R) -> R {
        let mut guard = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }
}

impl Clone for EngineCell {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EngineCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCell").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Mlp};
    use targad_linalg::rng as lrng;

    fn model(seed: u64, dims: &[usize], out_act: Activation) -> (VarStore, Mlp) {
        let mut rng = lrng::seeded(seed);
        let mut vs = VarStore::new();
        let mlp = Mlp::new(&mut vs, &mut rng, dims, Activation::Relu, out_act);
        (vs, mlp)
    }

    #[test]
    fn engine_is_worker_count_invariant() {
        let (vs, mlp) = model(21, &[5, 32, 1], Activation::None);
        let mut rng = lrng::seeded(22);
        let x = lrng::normal_matrix(&mut rng, 2 * INFER_BLOCK_ROWS + 3, 5, 0.0, 1.0);
        let mut engine = ScoreEngine::new();
        let base = engine.score(&[(&mlp, &vs)], &x, &Runtime::new(1), |_, row| row[0]);
        for threads in [2, 3, 7, 16] {
            let got = engine.score(&[(&mlp, &vs)], &x, &Runtime::new(threads), |_, row| row[0]);
            assert_eq!(got, base, "threads={threads}");
        }
    }

    #[test]
    fn engine_handles_empty_input() {
        let (vs, mlp) = model(31, &[4, 8, 2], Activation::Tanh);
        let x = Matrix::zeros(0, 4);
        let mut engine = ScoreEngine::new();
        let scores = engine.score(&[(&mlp, &vs)], &x, &Runtime::serial(), |_, row| row[0]);
        assert!(scores.is_empty());
    }

    #[test]
    fn engine_pool_is_reused_across_batches() {
        let (vs, mlp) = model(41, &[8, 64, 1], Activation::Sigmoid);
        let mut rng = lrng::seeded(42);
        let x = lrng::normal_matrix(&mut rng, 700, 8, 0.0, 1.0);
        let rt = Runtime::new(2);
        let mut engine = ScoreEngine::new();
        let first = engine.score(&[(&mlp, &vs)], &x, &rt, |_, row| row[0]);
        let warm = engine.pool_bytes();
        assert!(warm > 0);
        let second = engine.score(&[(&mlp, &vs)], &x, &rt, |_, row| row[0]);
        assert_eq!(first, second);
        assert_eq!(engine.pool_bytes(), warm, "pool must not grow when warm");
    }

    /// The f32 path's own reference: the per-layer plain-loop f32 kernel
    /// applied to the whole batch at once (no block streaming, no packing).
    fn forward_f32_reference(vs: &VarStore, mlp: &Mlp, x: &Matrix) -> Vec<f32> {
        let mut cur: Vec<f32> = x.as_slice().iter().map(|&v| v as f32).collect();
        let mut cur_dim = mlp.in_dim();
        for (i, layer) in mlp.layers().iter().enumerate() {
            let (wid, bid) = layer.params();
            let w: Vec<f32> = vs.value(wid).as_slice().iter().map(|&v| v as f32).collect();
            let bias: Vec<f32> = vs.value(bid).as_slice().iter().map(|&v| v as f32).collect();
            let d_out = layer.out_dim();
            let mut next = vec![0.0f32; x.rows() * d_out];
            targad_linalg::f32kernel::reference::matmul_bias_act_f32(
                &cur,
                cur_dim,
                &w,
                d_out,
                &bias,
                mlp.act(i).epi(),
                &mut next,
            );
            cur = next;
            cur_dim = d_out;
        }
        cur
    }

    #[test]
    fn f32_engine_matches_plain_f32_reference_exactly() {
        let (vs, mlp) = model(51, &[9, 24, 16, 3], Activation::Sigmoid);
        let mut rng = lrng::seeded(52);
        let x = lrng::normal_matrix(&mut rng, 2 * INFER_BLOCK_ROWS + 19, 9, 0.0, 2.0);
        let want: Vec<f64> = forward_f32_reference(&vs, &mlp, &x)
            .chunks_exact(3)
            .map(|row| f64::from(row[0]) - f64::from(row[2]))
            .collect();
        let plan = F32Plan::from_stack(&[(&mlp, &vs)]);
        assert_eq!((plan.d_in(), plan.d_out()), (9, 3));
        assert!(plan.bytes() > 0);
        let mut engine = ScoreEngine::new();
        for threads in [1, 2, 7] {
            let got = engine.score_f32(&plan, &x, &Runtime::new(threads), |_, row| {
                f64::from(row[0]) - f64::from(row[2])
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn f32_engine_is_worker_count_invariant() {
        let (vs, mlp) = model(61, &[5, 32, 4], Activation::None);
        let mut rng = lrng::seeded(62);
        let x = lrng::normal_matrix(&mut rng, 3 * INFER_BLOCK_ROWS + 7, 5, 0.0, 1.0);
        let plan = F32Plan::from_stack(&[(&mlp, &vs)]);
        let mut engine = ScoreEngine::new();
        let base = engine.score_pairs_f32(&plan, &x, &Runtime::new(1), |_, row| {
            (f64::from(row[0]), f64::from(row[3]))
        });
        for threads in [2, 7, 16] {
            let got = engine.score_pairs_f32(&plan, &x, &Runtime::new(threads), |_, row| {
                (f64::from(row[0]), f64::from(row[3]))
            });
            assert_eq!(got, base, "threads={threads}");
        }
    }

    #[test]
    fn f32_engine_handles_empty_input() {
        let (vs, mlp) = model(71, &[4, 8, 2], Activation::Tanh);
        let plan = F32Plan::from_stack(&[(&mlp, &vs)]);
        let mut engine = ScoreEngine::new();
        let scores = engine.score_f32(&plan, &Matrix::zeros(0, 4), &Runtime::serial(), |_, row| {
            f64::from(row[0])
        });
        assert!(scores.is_empty());
    }

    #[test]
    fn precision_names_round_trip() {
        assert_eq!(EnginePrecision::default(), EnginePrecision::F64);
        for p in [EnginePrecision::F64, EnginePrecision::F32] {
            assert_eq!(EnginePrecision::parse(p.name()), Some(p));
        }
        assert_eq!(EnginePrecision::parse("single"), Some(EnginePrecision::F32));
        assert_eq!(EnginePrecision::parse("bf16"), None);
    }
}
