//! Packing-free register-tiled small-GEMM kernels.
//!
//! Training shapes (128-row shards times small layer widths) are too small
//! for the blocked kernel, whose panel packing costs more than it saves
//! there — but the scalar naive loops leave all the instruction-level
//! parallelism on the table: the `nn`/`tn` loops re-load and re-store
//! every out element once per `k` step, and the `nt` loop is a single
//! serial dependency chain per element. The kernels
//! here keep an `SMR x SNR` register tile of accumulators live across the
//! whole contraction instead, with **zero packing**: operands are read
//! in-place through strides.
//!
//! Determinism contract: every out element is one accumulation chain over
//! its contraction index in ascending order using plain `acc += a * b`
//! (never `mul_add` — the f64 naive and blocked kernels round each
//! multiply, so fusing would change results). Chains are therefore
//! bit-identical to both the naive loops and the blocked driver; the only
//! permitted deviation is the sign of an exact zero (the naive `nt` loop's
//! final `0.0 + acc` can normalize `-0.0` to `0.0`), which `f64::eq`
//! treats as equal — the same caveat the retained reference kernels carry.
//!
//! All kernels are generic over [`SrcRead`], the element-read abstraction
//! that lets the backward pass fuse the activation-derivative product
//! `dZ = dA ⊙ act'(Z)` into the GEMM read path ([`DactSrc`]): each `dZ`
//! element is computed on the fly from the stored gradient and layer
//! output, never materialized, and because the multiply happens *before*
//! accumulation the floating-point op sequence of the chain is unchanged.

use crate::matrix::EpiAct;

/// Register tile height (out rows held in registers per tile).
pub(crate) const SMR: usize = 4;
/// Register tile width (out columns held in registers per tile).
/// `SMR * SNR = 32` accumulators, matching the blocked micro-kernel.
pub(crate) const SNR: usize = 8;

/// Reads one operand element by flat index. Implemented by plain slices
/// and by [`DactSrc`], the fused activation-derivative read path.
pub(crate) trait SrcRead: Copy {
    fn at(&self, idx: usize) -> f64;

    /// Reads `dst.len()` contiguous elements starting at flat index
    /// `start` — the bulk form the packers use on stride-1 runs. Must
    /// produce exactly `at(start + i)` per element; implementations
    /// specialize it to branch-free vectorizable loops.
    #[inline(always)]
    fn read_run(&self, start: usize, dst: &mut [f64]) {
        for (i, d) in dst.iter_mut().enumerate() {
            *d = self.at(start + i);
        }
    }
}

impl SrcRead for &[f64] {
    #[inline(always)]
    fn at(&self, idx: usize) -> f64 {
        self[idx]
    }

    #[inline(always)]
    fn read_run(&self, start: usize, dst: &mut [f64]) {
        dst.copy_from_slice(&self[start..start + dst.len()]);
    }
}

/// The fused backward read path: element `i` is
/// `act.grad_from_output(g[i], y[i])` — the activation-derivative product
/// `dZ = dA ⊙ act'(Z)` computed per read, with the derivative taken from
/// the layer *output* `y` (exact for every [`EpiAct`]; see
/// [`EpiAct::grad_from_output`]). Recomputing an element on a second read
/// yields the identical value, so tiling order cannot affect results.
#[derive(Clone, Copy)]
pub(crate) struct DactSrc<'a> {
    pub g: &'a [f64],
    pub y: &'a [f64],
    pub act: EpiAct,
}

impl SrcRead for DactSrc<'_> {
    #[inline(always)]
    fn at(&self, idx: usize) -> f64 {
        self.act.grad_from_output(self.g[idx], self.y[idx])
    }

    /// Bulk read with the activation match hoisted out of the element
    /// loop: each arm is the literal [`EpiAct::grad_from_output`] formula
    /// over pre-sliced runs (no per-element bounds checks), so values are
    /// bit-identical to the scalar path while vectorizing cleanly.
    #[inline]
    fn read_run(&self, start: usize, dst: &mut [f64]) {
        let end = start + dst.len();
        let g = &self.g[start..end];
        let y = &self.y[start..end];
        match self.act {
            EpiAct::None => dst.copy_from_slice(g),
            EpiAct::Relu => {
                for ((d, &gv), &yv) in dst.iter_mut().zip(g).zip(y) {
                    *d = if yv > 0.0 { gv } else { 0.0 };
                }
            }
            EpiAct::LeakyRelu => {
                for ((d, &gv), &yv) in dst.iter_mut().zip(g).zip(y) {
                    *d = if yv > 0.0 { gv } else { 0.01 * gv };
                }
            }
            EpiAct::Sigmoid => {
                for ((d, &gv), &yv) in dst.iter_mut().zip(g).zip(y) {
                    *d = gv * (yv * (1.0 - yv));
                }
            }
            EpiAct::Tanh => {
                for ((d, &gv), &yv) in dst.iter_mut().zip(g).zip(y) {
                    *d = gv * (1.0 - yv * yv);
                }
            }
        }
    }
}

/// Applies the fused `(bias, act)` epilogue to one finished out segment,
/// or copies the raw accumulator values when no epilogue is set.
#[inline(always)]
fn store_row(dst: &mut [f64], acc: &[f64], j0: usize, epi: Option<(&[f64], EpiAct)>) {
    match epi {
        Some((bias, act)) => {
            for ((o, &v), &bj) in dst.iter_mut().zip(acc).zip(&bias[j0..j0 + acc.len()]) {
                *o = act.apply(v + bj);
            }
        }
        None => dst.copy_from_slice(acc),
    }
}

// ---------------------------------------------------------------------------
// nn: out[r][j] += Σ_k a(r, k) · b(k, j)

/// One full `SMR x SNR` tile of the `nn` kernel. Accumulators initialize
/// from `out` (callers pre-zero it) and run the whole `k` range, so each
/// element's chain is complete when the tile stores — which is what lets
/// the `epi` epilogue fire here.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn nn_tile<A: SrcRead>(
    a: A,
    a_stride: usize,
    k_dim: usize,
    b: &[f64],
    n: usize,
    r0: usize,
    j0: usize,
    epi: Option<(&[f64], EpiAct)>,
    out: &mut [f64],
) {
    let mut acc = [[0.0f64; SNR]; SMR];
    for (m, acc_row) in acc.iter_mut().enumerate() {
        let o = (r0 + m) * n + j0;
        acc_row.copy_from_slice(&out[o..o + SNR]);
    }
    for k in 0..k_dim {
        let brow: &[f64; SNR] = b[k * n + j0..k * n + j0 + SNR]
            .try_into()
            .expect("SNR b row");
        for (m, acc_row) in acc.iter_mut().enumerate() {
            let av = a.at((r0 + m) * a_stride + k);
            for (o, &bv) in acc_row.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    for (m, acc_row) in acc.iter().enumerate() {
        let o = (r0 + m) * n + j0;
        store_row(&mut out[o..o + SNR], acc_row, j0, epi);
    }
}

/// Edge tile of the `nn` kernel (`mb < SMR` rows and/or `jb < SNR`
/// columns): the scalar i-k-j loop restricted to the edge range — the
/// identical ascending-`k` chains, just without register blocking.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn nn_edge<A: SrcRead>(
    a: A,
    a_stride: usize,
    k_dim: usize,
    b: &[f64],
    n: usize,
    r0: usize,
    mb: usize,
    j0: usize,
    jb: usize,
    epi: Option<(&[f64], EpiAct)>,
    out: &mut [f64],
) {
    for m in 0..mb {
        let r = r0 + m;
        let a_row = r * a_stride;
        let dst = &mut out[r * n + j0..r * n + j0 + jb];
        for k in 0..k_dim {
            let av = a.at(a_row + k);
            for (o, &bv) in dst.iter_mut().zip(&b[k * n + j0..k * n + j0 + jb]) {
                *o += av * bv;
            }
        }
        if let Some((bias, act)) = epi {
            for (o, &bj) in dst.iter_mut().zip(&bias[j0..j0 + jb]) {
                *o = act.apply(*o + bj);
            }
        }
    }
}

/// The register-tiled `nn` small kernel: `out[r][j] += Σ_k a(r,k)·b(k,j)`
/// with element `(r, k)` of A at `r*a_stride + k` and a row-major
/// B. `out` holds `rows` full rows of `n`, pre-zeroed by the caller (or
/// holding partial sums to accumulate onto). `epi` fuses the dense-layer
/// bias+activation epilogue at tile write-back, exactly as the blocked
/// driver does.
pub(crate) fn gemm_nn_small<A: SrcRead>(
    a: A,
    a_stride: usize,
    k_dim: usize,
    b: &[f64],
    n: usize,
    epi: Option<(&[f64], EpiAct)>,
    out: &mut [f64],
) {
    let rows = out.len() / n;
    let mut r0 = 0;
    while r0 + SMR <= rows {
        let mut j0 = 0;
        while j0 + SNR <= n {
            nn_tile(a, a_stride, k_dim, b, n, r0, j0, epi, out);
            j0 += SNR;
        }
        if j0 < n {
            nn_edge(a, a_stride, k_dim, b, n, r0, SMR, j0, n - j0, epi, out);
        }
        r0 += SMR;
    }
    if r0 < rows {
        nn_edge(a, a_stride, k_dim, b, n, r0, rows - r0, 0, n, epi, out);
    }
}

/// The scalar `nn` fallback for outputs smaller than one register tile:
/// the exact i-k-j loop of the original naive kernel, generic over the
/// A read path and with the optional fused epilogue applied per finished
/// out row.
pub(crate) fn gemm_nn_scalar<A: SrcRead>(
    a: A,
    a_stride: usize,
    k_dim: usize,
    b: &[f64],
    n: usize,
    epi: Option<(&[f64], EpiAct)>,
    out: &mut [f64],
) {
    for (r, out_row) in out.chunks_mut(n).enumerate() {
        let a_row = r * a_stride;
        for k in 0..k_dim {
            let av = a.at(a_row + k);
            for (o, &bv) in out_row.iter_mut().zip(&b[k * n..(k + 1) * n]) {
                *o += av * bv;
            }
        }
        if let Some((bias, act)) = epi {
            for (o, &bj) in out_row.iter_mut().zip(bias) {
                *o = act.apply(*o + bj);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// nt: out[r][j] += Σ_k a(r, k) · b(j, k)

/// Contraction-chunk length of the `nt` kernel's A-row buffer: `SMR` rows
/// of `SKC` values are 8 KiB of stack, read in bulk once per
/// (row-tile, chunk) instead of once per *column* tile — without it a
/// [`DactSrc`] A would recompute every activation-derivative element
/// `n / SNR` times.
const SKC: usize = 256;

/// One `SMR x SNR` tile of the `nt` kernel over a single `kb`-long
/// contraction chunk, reading A from the pre-filled row buffer (`SKC`
/// values per row). Accumulators round-trip through `out` between chunks;
/// an f64 add is the same value whether the partial lives in a register
/// or memory, so the per-element chain is identical to one unchunked
/// ascending-`k` pass.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn nt_tile_chunk(
    abuf: &[f64; SMR * SKC],
    kb: usize,
    b: &[f64],
    b_stride: usize,
    k0: usize,
    n: usize,
    r0: usize,
    j0: usize,
    out: &mut [f64],
) {
    let mut acc = [[0.0f64; SNR]; SMR];
    for (m, acc_row) in acc.iter_mut().enumerate() {
        let o = (r0 + m) * n + j0;
        acc_row.copy_from_slice(&out[o..o + SNR]);
    }
    for k in 0..kb {
        let mut bv = [0.0f64; SNR];
        for (c, v) in bv.iter_mut().enumerate() {
            *v = b[(j0 + c) * b_stride + k0 + k];
        }
        for (m, acc_row) in acc.iter_mut().enumerate() {
            let av = abuf[m * SKC + k];
            for (o, &bw) in acc_row.iter_mut().zip(&bv) {
                *o += av * bw;
            }
        }
    }
    for (m, acc_row) in acc.iter().enumerate() {
        let o = (r0 + m) * n + j0;
        out[o..o + SNR].copy_from_slice(acc_row);
    }
}

/// Variable-size edge counterpart of [`nt_tile_chunk`] (`mb <= SMR` rows
/// and/or `jb <= SNR` columns): the same register accumulators over one
/// contraction chunk with A from the row buffer, restricted to a prefix of
/// the tile. Every edge shares the row buffer, so a fused [`DactSrc`] A is
/// still computed exactly once per (row, chunk) no matter how narrow the
/// layer is.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn nt_block_chunk(
    abuf: &[f64; SMR * SKC],
    kb: usize,
    b: &[f64],
    b_stride: usize,
    k0: usize,
    n: usize,
    r0: usize,
    mb: usize,
    j0: usize,
    jb: usize,
    out: &mut [f64],
) {
    let mut acc = [[0.0f64; SNR]; SMR];
    for (m, acc_row) in acc.iter_mut().take(mb).enumerate() {
        let o = (r0 + m) * n + j0;
        acc_row[..jb].copy_from_slice(&out[o..o + jb]);
    }
    for k in 0..kb {
        let mut bv = [0.0f64; SNR];
        for (c, v) in bv.iter_mut().take(jb).enumerate() {
            *v = b[(j0 + c) * b_stride + k0 + k];
        }
        for (m, acc_row) in acc.iter_mut().take(mb).enumerate() {
            let av = abuf[m * SKC + k];
            for (o, &bw) in acc_row[..jb].iter_mut().zip(&bv[..jb]) {
                *o += av * bw;
            }
        }
    }
    for (m, acc_row) in acc.iter().take(mb).enumerate() {
        let o = (r0 + m) * n + j0;
        out[o..o + jb].copy_from_slice(&acc_row[..jb]);
    }
}

/// The register-tiled `nt` small kernel: `out[r][j] += Σ_k a(r,k)·b(j,k)`
/// with element `(j, k)` of B at `j*b_stride + k` and `n` out columns (=
/// B rows). This is the backward data-gradient shape `dX = dZ · Wᵀ`; pass
/// a [`DactSrc`] as `a` to fuse the activation-derivative product into
/// the read path.
pub(crate) fn gemm_nt_small<A: SrcRead>(
    a: A,
    a_stride: usize,
    k_dim: usize,
    b: &[f64],
    b_stride: usize,
    n: usize,
    out: &mut [f64],
) {
    let rows = out.len() / n;
    let mut abuf = [0.0f64; SMR * SKC];
    let mut r0 = 0;
    while r0 < rows {
        let mb = (rows - r0).min(SMR);
        // Contraction chunks: fill the A row buffer once (bulk `read_run`
        // per row — the one place a fused [`DactSrc`] A computes each
        // element), then sweep every column tile over it. Chunks advance
        // in ascending `k`, so each out element still accumulates one
        // ascending chain (partials parked in `out` between chunks).
        let mut k0 = 0;
        while k0 < k_dim {
            let kb = (k_dim - k0).min(SKC);
            for m in 0..mb {
                let src = (r0 + m) * a_stride + k0;
                a.read_run(src, &mut abuf[m * SKC..m * SKC + kb]);
            }
            let mut j0 = 0;
            if mb == SMR {
                while j0 + SNR <= n {
                    nt_tile_chunk(&abuf, kb, b, b_stride, k0, n, r0, j0, out);
                    j0 += SNR;
                }
            } else {
                while j0 + SNR <= n {
                    nt_block_chunk(&abuf, kb, b, b_stride, k0, n, r0, mb, j0, SNR, out);
                    j0 += SNR;
                }
            }
            if j0 < n {
                nt_block_chunk(&abuf, kb, b, b_stride, k0, n, r0, mb, j0, n - j0, out);
            }
            k0 += kb;
        }
        r0 += mb;
    }
}

/// The scalar `nt` fallback: the exact dot-product loop of the original
/// naive kernel (local chain from `0.0`, then one add onto `out`), generic
/// over the A read path.
pub(crate) fn gemm_nt_scalar<A: SrcRead>(
    a: A,
    a_stride: usize,
    k_dim: usize,
    b: &[f64],
    b_stride: usize,
    n: usize,
    out: &mut [f64],
) {
    for (r, out_row) in out.chunks_mut(n).enumerate() {
        let a_row = r * a_stride;
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = j * b_stride;
            let mut acc = 0.0;
            for k in 0..k_dim {
                acc += a.at(a_row + k) * b[b_row + k];
            }
            *o += acc;
        }
    }
}

// ---------------------------------------------------------------------------
// tn: out[k][j] += Σ_r a(r, k) · b(r, j)

/// Contraction-chunk length (in `r`) of the `tn` kernel's B column-block
/// buffer: `TN_RC` rows of `SNR` values are 16 KiB of stack, read in bulk
/// once per (column block, chunk) instead of once per *out-row* block —
/// without it a [`DactSrc`] B would recompute every activation-derivative
/// element `out_rows / SMR` times.
const TN_RC: usize = 256;

/// One full `SMR x SNR` tile of the `tn` kernel over a single `rb`-long
/// contraction chunk, reading B from the pre-filled column-block buffer.
/// Fixed-width arrays keep the inner loops fully unrolled; accumulators
/// round-trip through `out` between chunks (an f64 add is the same value
/// whether the partial lives in a register or memory, so the per-element
/// chain is identical to one unchunked ascending-`r` pass).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_tile_chunk(
    a: &[f64],
    a_stride: usize,
    bbuf: &[f64; TN_RC * SNR],
    rb: usize,
    r0: usize,
    n: usize,
    kk0: usize,
    j0: usize,
    out: &mut [f64],
) {
    let mut acc = [[0.0f64; SNR]; SMR];
    for (m, acc_row) in acc.iter_mut().enumerate() {
        let o = (kk0 + m) * n + j0;
        acc_row.copy_from_slice(&out[o..o + SNR]);
    }
    for r in 0..rb {
        let a_off = (r0 + r) * a_stride + kk0;
        let mut bv = [0.0f64; SNR];
        bv.copy_from_slice(&bbuf[r * SNR..(r + 1) * SNR]);
        for (m, acc_row) in acc.iter_mut().enumerate() {
            let av = a[a_off + m];
            for (o, &bw) in acc_row.iter_mut().zip(&bv) {
                *o += av * bw;
            }
        }
    }
    for (m, acc_row) in acc.iter().enumerate() {
        let o = (kk0 + m) * n + j0;
        out[o..o + SNR].copy_from_slice(acc_row);
    }
}

/// Variable-size edge counterpart of [`tn_tile_chunk`] (`mb <= SMR` out
/// rows and/or `jb <= SNR` columns): the same register accumulators over
/// one chunk, restricted to a prefix of the tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_block_chunk(
    a: &[f64],
    a_stride: usize,
    bbuf: &[f64; TN_RC * SNR],
    rb: usize,
    r0: usize,
    n: usize,
    kk0: usize,
    mb: usize,
    j0: usize,
    jb: usize,
    out: &mut [f64],
) {
    let mut acc = [[0.0f64; SNR]; SMR];
    for (m, acc_row) in acc.iter_mut().take(mb).enumerate() {
        let o = (kk0 + m) * n + j0;
        acc_row[..jb].copy_from_slice(&out[o..o + jb]);
    }
    for r in 0..rb {
        let a_off = (r0 + r) * a_stride + kk0;
        let bv = &bbuf[r * SNR..r * SNR + jb];
        for (m, acc_row) in acc.iter_mut().take(mb).enumerate() {
            let av = a[a_off + m];
            for (o, &bw) in acc_row[..jb].iter_mut().zip(bv) {
                *o += av * bw;
            }
        }
    }
    for (m, acc_row) in acc.iter().take(mb).enumerate() {
        let o = (kk0 + m) * n + j0;
        out[o..o + jb].copy_from_slice(&acc_row[..jb]);
    }
}

/// The register-tiled `tn` small kernel: `out[k][j] += Σ_r a(r, k)·b(r, j)`
/// over a row-major `a_rows x a_stride` A read column-wise.
/// This is the backward weight-gradient shape `dW = Xᵀ · dZ`; pass a
/// [`DactSrc`] as `b` to fuse the activation-derivative product into the
/// read path — each element is computed exactly once (bulk `read_run`
/// into the column-block buffer), then swept across every out-row block.
/// Chunks advance in ascending `r`, so each out element still accumulates
/// one ascending chain (partials parked in `out` between chunks).
pub(crate) fn gemm_tn_small<B: SrcRead>(
    a: &[f64],
    a_stride: usize,
    a_rows: usize,
    b: B,
    n: usize,
    out: &mut [f64],
) {
    let out_rows = out.len() / n;
    let mut bbuf = [0.0f64; TN_RC * SNR];
    let mut j0 = 0;
    while j0 < n {
        let jb = (n - j0).min(SNR);
        let full_width = jb == SNR;
        let mut r0 = 0;
        while r0 < a_rows {
            let rb = (a_rows - r0).min(TN_RC);
            for r in 0..rb {
                b.read_run((r0 + r) * n + j0, &mut bbuf[r * SNR..r * SNR + jb]);
            }
            let mut kk0 = 0;
            if full_width {
                while kk0 + SMR <= out_rows {
                    tn_tile_chunk(a, a_stride, &bbuf, rb, r0, n, kk0, j0, out);
                    kk0 += SMR;
                }
            } else {
                while kk0 + SMR <= out_rows {
                    tn_block_chunk(a, a_stride, &bbuf, rb, r0, n, kk0, SMR, j0, jb, out);
                    kk0 += SMR;
                }
            }
            if kk0 < out_rows {
                let mb = out_rows - kk0;
                tn_block_chunk(a, a_stride, &bbuf, rb, r0, n, kk0, mb, j0, jb, out);
            }
            r0 += rb;
        }
        j0 += jb;
    }
}

/// The scalar `tn` fallback: the exact kk-outer, `r`-ascending loop of the
/// original naive kernel, generic over the B read path.
pub(crate) fn gemm_tn_scalar<B: SrcRead>(
    a: &[f64],
    a_stride: usize,
    a_rows: usize,
    b: B,
    n: usize,
    out: &mut [f64],
) {
    for (k, out_row) in out.chunks_mut(n).enumerate() {
        for r in 0..a_rows {
            let av = a[r * a_stride + k];
            let b_off = r * n;
            for (c, o) in out_row.iter_mut().enumerate() {
                *o += av * b.at(b_off + c);
            }
        }
    }
}
