//! Single-precision inference micro-kernels with runtime SIMD dispatch.
//!
//! The f64 GEMM in [`crate::matrix`] is the *oracle*: training and every
//! reference scoring path stay double-precision and bit-exact. This module
//! is the opt-in serving fast path: an `act(x · w + bias)` kernel over `f32`
//! operands, built from
//!
//! - **pre-packed weight panels** ([`PackedF32`]): the weight matrix is the
//!   reused operand of every inference batch, so it is cast from the fitted
//!   f64 parameters *once* and laid out as zero-padded `KC x NR` panels in
//!   exactly the order the micro-kernel streams them — per-batch packing
//!   cost drops to zero;
//! - an **8x8 register micro-tile**: 8 output rows x one 8-lane f32 vector
//!   of output columns, accumulated over the contraction dimension with
//!   fused multiply-add;
//! - **runtime dispatch** ([`kernel_path`]): a once-initialized table picks
//!   the AVX2+FMA micro-kernel when the CPU reports both features (and
//!   `TARGAD_SIMD` does not override to `off`), else a portable scalar
//!   micro-kernel.
//!
//! # SIMD/scalar exactness contract
//!
//! The scalar micro-kernel is the *semantic reference* for the SIMD one,
//! and the two are **bit-identical**, which the property tests assert
//! exactly. The argument:
//!
//! 1. Both kernels compute each output element as one accumulation chain
//!    `acc = fma(a_k, b_k, acc)` over ascending `k`. The scalar path uses
//!    [`f32::mul_add`] — the same correctly-rounded fused operation as the
//!    vector `vfmadd` instruction, lane for lane.
//! 2. Partial sums spill to `out` between `KC` blocks and reload; an f32
//!    store/load round-trip is exact, so blocking does not perturb chains.
//! 3. Zero-padded panel lanes (`j >= jb`) feed only register lanes that are
//!    never stored; ragged *row* tiles (`mb <` [`MR`]) run the scalar
//!    micro-kernel under both dispatch paths.
//! 4. The bias+activation epilogue is one shared scalar function
//!    ([`EpiAct::apply_f32`]) applied to each element's final accumulated
//!    value on the last `k`-block only.
//!
//! # Safety of the `unsafe` intrinsic block
//!
//! The AVX2 micro-kernel is an `unsafe fn` solely because of
//! `#[target_feature]`: it is only reachable through [`kernel_path`], which
//! returns [`KernelPath::Avx2Fma`] strictly after
//! `is_x86_feature_detected!` confirms both `avx2` and `fma` at runtime
//! (and never on non-x86_64 builds, where the variant is uninhabited by
//! construction — the detection arm is compiled out). All pointer
//! arithmetic inside stays within the caller-checked `x`/panel/accumulator
//! bounds; DESIGN.md §14 carries the full argument.

use std::sync::OnceLock;

use crate::matrix::{EpiAct, Matrix};

/// Register tile height: output rows held in registers per micro-kernel
/// call.
pub const MR: usize = 8;
/// Register tile width: one 256-bit vector of 8 f32 output columns. The
/// AVX2 micro-kernel holds `MR` row accumulators of one vector each — 8 of
/// the 16 ymm registers — leaving room for the broadcast `a` operand and
/// the streamed `b` panel vector.
pub const NR: usize = 8;
/// Contraction-dimension block: one packed panel spans `KC x NR` f32
/// (8 KiB), L1-resident while the row tiles stream over it.
pub const KC: usize = 256;

/// CPU features relevant to the f32 kernel dispatch, as detected at
/// runtime. Recorded in bench JSON and the obs metrics snapshot so numbers
/// from different hosts are comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 256-bit integer/float vector extension (implies AVX).
    pub avx2: bool,
    /// Fused multiply-add (FMA3).
    pub fma: bool,
}

/// Detects the dispatch-relevant CPU features. Pure detection — the
/// `TARGAD_SIMD` override affects [`kernel_path`], not this report.
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            avx2: false,
            fma: false,
        }
    }
}

/// The micro-kernel a [`matmul_bias_act_f32_into`] call will execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// `std::arch` AVX2+FMA 8x8 micro-tile.
    Avx2Fma,
    /// Portable scalar micro-kernel (`f32::mul_add` chains) — the semantic
    /// reference for the SIMD path and the fallback everywhere else.
    Scalar,
}

impl KernelPath {
    /// Stable wire/JSON name: `avx2_fma` or `scalar`.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Avx2Fma => "avx2_fma",
            KernelPath::Scalar => "scalar",
        }
    }
}

/// `true` when `TARGAD_SIMD` requests the scalar path (`off`, `0`,
/// `false`, or `scalar`, case-insensitively). Unset or any other value
/// means auto-detect.
fn simd_forced_off() -> bool {
    std::env::var("TARGAD_SIMD").is_ok_and(|v| {
        matches!(
            v.to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "scalar"
        )
    })
}

/// The once-initialized dispatch decision: AVX2+FMA when the CPU has both
/// and `TARGAD_SIMD` does not force the scalar path. Resolved on first use
/// and cached for the process lifetime (feature bits cannot change under a
/// running process, and a stable answer keeps every batch on one path).
pub fn kernel_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        let f = cpu_features();
        if f.avx2 && f.fma && !simd_forced_off() {
            KernelPath::Avx2Fma
        } else {
            KernelPath::Scalar
        }
    })
}

/// The weight operand of the f32 kernel: cast from f64 once and pre-packed
/// into zero-padded `KC x NR` panels, `kk`-major with `NR` consecutive
/// column values per step — the exact streaming order of the micro-kernel's
/// inner loop.
///
/// Packing at build time (instead of per GEMM call, as the f64 training
/// kernels must) is what makes the f32 path cheap for serving: weights are
/// reused by every batch, inputs are not.
#[derive(Clone, Debug)]
pub struct PackedF32 {
    /// Contraction dimension (input features of the layer).
    k: usize,
    /// Output columns.
    n: usize,
    /// Panels, indexed `[k_block][j_panel][kk * NR + j]`, each `KC * NR`
    /// long and zero-padded past `kb`/`jb`.
    panels: Vec<f32>,
}

impl PackedF32 {
    /// Casts and packs a `k x n` f64 weight matrix.
    pub fn from_matrix(w: &Matrix) -> Self {
        Self::pack(w.rows(), w.cols(), |kk, j| w[(kk, j)] as f32)
    }

    /// Packs a row-major `k x n` f32 slice (tests and synthetic weights).
    pub fn from_rows(data: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(data.len(), k * n, "PackedF32::from_rows: length mismatch");
        Self::pack(k, n, |kk, j| data[kk * n + j])
    }

    fn pack(k: usize, n: usize, at: impl Fn(usize, usize) -> f32) -> Self {
        let nkb = k.div_ceil(KC).max(1);
        let npanels = n.div_ceil(NR);
        let mut panels = vec![0.0f32; nkb * npanels * KC * NR];
        for kb_idx in 0..nkb {
            let k0 = kb_idx * KC;
            let kb = KC.min(k.saturating_sub(k0));
            for jp in 0..npanels {
                let j0 = jp * NR;
                let jb = NR.min(n - j0);
                let base = (kb_idx * npanels + jp) * KC * NR;
                let panel = &mut panels[base..base + KC * NR];
                for kk in 0..kb {
                    for j in 0..jb {
                        panel[kk * NR + j] = at(k0 + kk, j0 + j);
                    }
                }
            }
        }
        Self { k, n, panels }
    }

    /// Contraction dimension (layer input width).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns (layer output width).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed panels (for pool accounting).
    pub fn bytes(&self) -> usize {
        self.panels.capacity() * std::mem::size_of::<f32>()
    }

    /// The `(k_block, j_panel)` panel, `KC * NR` long.
    #[inline]
    fn panel(&self, kb_idx: usize, jp: usize) -> &[f32] {
        let npanels = self.n.div_ceil(NR);
        let base = (kb_idx * npanels + jp) * KC * NR;
        &self.panels[base..base + KC * NR]
    }
}

/// Fused f32 layer kernel: `out = act(x · w + bias)` for the row block
/// `x` (row-major, whole `d_in`-wide rows), dispatching to the micro-kernel
/// chosen by [`kernel_path`]. `out.len()` must be a multiple of `w.n()`;
/// the row count is inferred from it, mirroring
/// [`crate::matmul_bias_act_rows_into`].
pub fn matmul_bias_act_f32_into(
    x: &[f32],
    d_in: usize,
    w: &PackedF32,
    bias: &[f32],
    act: EpiAct,
    out: &mut [f32],
) {
    matmul_bias_act_f32_with(kernel_path(), x, d_in, w, bias, act, out);
}

/// [`matmul_bias_act_f32_into`] on an explicitly chosen micro-kernel. This
/// is the test/bench entry point: the SIMD-vs-scalar equality suite runs
/// both paths in one process, which the cached auto dispatch cannot.
///
/// Requesting [`KernelPath::Avx2Fma`] on a CPU without both features
/// panics rather than executing illegal instructions.
pub fn matmul_bias_act_f32_with(
    path: KernelPath,
    x: &[f32],
    d_in: usize,
    w: &PackedF32,
    bias: &[f32],
    act: EpiAct,
    out: &mut [f32],
) {
    let (k, n) = (w.k(), w.n());
    assert_eq!(d_in, k, "matmul_bias_act_f32: inner mismatch");
    assert_eq!(bias.len(), n, "matmul_bias_act_f32: bias mismatch");
    if n == 0 || out.is_empty() {
        return;
    }
    assert_eq!(out.len() % n, 0, "matmul_bias_act_f32: out not whole rows");
    let rows = out.len() / n;
    assert_eq!(x.len(), rows * d_in, "matmul_bias_act_f32: x/out mismatch");
    if k == 0 {
        // Empty contraction: every accumulation chain is empty, so the
        // result is the epilogue applied to the bias alone.
        for out_row in out.chunks_mut(n) {
            for (slot, &bj) in out_row.iter_mut().zip(bias) {
                *slot = act.apply_f32(bj);
            }
        }
        return;
    }

    // Host capability gauges ride every dispatch: `is_x86_feature_detected!`
    // caches its CPUID result, so this is an atomic load per feature, and a
    // metrics snapshot taken any time after the first f32 batch identifies
    // the host and the active dispatch decision.
    let features = cpu_features();
    targad_obs::metrics::CPU_AVX2.set(u64::from(features.avx2));
    targad_obs::metrics::CPU_FMA.set(u64::from(features.fma));
    targad_obs::metrics::CPU_F32_KERNEL_SIMD.set(u64::from(kernel_path() == KernelPath::Avx2Fma));
    let simd = match path {
        KernelPath::Avx2Fma => {
            assert!(
                features.avx2 && features.fma,
                "KernelPath::Avx2Fma requested without avx2+fma support"
            );
            targad_obs::metrics::GEMM_F32_SIMD_DISPATCHES.inc();
            true
        }
        KernelPath::Scalar => {
            targad_obs::metrics::GEMM_F32_SCALAR_DISPATCHES.inc();
            false
        }
    };

    let npanels = n.div_ceil(NR);
    let mut k0 = 0;
    let mut kb_idx = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        let last = k0 + kb == k;
        for jp in 0..npanels {
            let j0 = jp * NR;
            let jb = NR.min(n - j0);
            let panel = w.panel(kb_idx, jp);
            let mut i0 = 0;
            while i0 < rows {
                let mb = MR.min(rows - i0);
                let mut acc = [[0.0f32; NR]; MR];
                // Reload the spilled partial sums of earlier k-blocks; an
                // f32 store/load round-trip is exact.
                if k0 > 0 {
                    for (m, acc_row) in acc.iter_mut().enumerate().take(mb) {
                        let row = (i0 + m) * n + j0;
                        acc_row[..jb].copy_from_slice(&out[row..row + jb]);
                    }
                }
                if simd && mb == MR {
                    // SAFETY: `simd` implies runtime-verified avx2+fma (the
                    // dispatch above asserted the detection), and the
                    // pointer ranges are in bounds: rows `i0..i0+MR` of `x`
                    // at columns `k0..k0+kb`, and `kb * NR <= KC * NR`
                    // panel values.
                    #[cfg(target_arch = "x86_64")]
                    unsafe {
                        micro_avx2(x.as_ptr().add(i0 * d_in + k0), d_in, panel, kb, &mut acc);
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    unreachable!("Avx2Fma path on non-x86_64");
                } else {
                    micro_scalar(x, i0 * d_in + k0, d_in, panel, kb, mb, &mut acc);
                }
                for (m, acc_row) in acc.iter().enumerate().take(mb) {
                    let row = (i0 + m) * n + j0;
                    let dst = &mut out[row..row + jb];
                    if last {
                        // Epilogue on the final k-block only: each element's
                        // accumulation chain is complete here.
                        for (j, slot) in dst.iter_mut().enumerate() {
                            *slot = act.apply_f32(acc_row[j] + bias[j0 + j]);
                        }
                    } else {
                        dst.copy_from_slice(&acc_row[..jb]);
                    }
                }
                i0 += MR;
            }
        }
        k0 += kb;
        kb_idx += 1;
    }
}

/// Portable scalar micro-kernel: the exact per-element chains of the SIMD
/// tile. `f32::mul_add` is the correctly-rounded fused operation — the same
/// arithmetic as one `vfmadd` lane — so lane `j` of SIMD row accumulator
/// `m` and `acc[m][j]` here run bit-identical chains.
#[inline]
fn micro_scalar(
    x: &[f32],
    base: usize,
    x_stride: usize,
    panel: &[f32],
    kb: usize,
    mb: usize,
    acc: &mut [[f32; NR]; MR],
) {
    for kk in 0..kb {
        let b: &[f32; NR] = panel[kk * NR..(kk + 1) * NR].try_into().expect("NR panel");
        for (m, acc_row) in acc.iter_mut().enumerate().take(mb) {
            let a = x[base + m * x_stride + kk];
            for (slot, &bv) in acc_row.iter_mut().zip(b) {
                *slot = a.mul_add(bv, *slot);
            }
        }
    }
}

/// The AVX2+FMA 8x8 micro-tile: 8 row accumulators of one 8-lane f32
/// vector each; per `kk` step, one panel vector load and 8
/// broadcast-`a` + `vfmadd` updates.
///
/// # Safety
/// Caller must have runtime-verified `avx2` and `fma`, and guarantee
/// `x .. x + (MR-1)*x_stride + kb` and `kb * NR` panel values in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_avx2(
    x: *const f32,
    x_stride: usize,
    panel: &[f32],
    kb: usize,
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    debug_assert!(panel.len() >= kb * NR);
    let mut r: [__m256; MR] = std::array::from_fn(|m| _mm256_loadu_ps(acc[m].as_ptr()));
    let p = panel.as_ptr();
    for kk in 0..kb {
        let b = _mm256_loadu_ps(p.add(kk * NR));
        for (m, rm) in r.iter_mut().enumerate() {
            let a = _mm256_set1_ps(*x.add(m * x_stride + kk));
            *rm = _mm256_fmadd_ps(a, b, *rm);
        }
    }
    for (m, rm) in r.iter().enumerate() {
        _mm256_storeu_ps(acc[m].as_mut_ptr(), *rm);
    }
}

/// Pre-blocking f32 kernels, the plain-loop baseline the packed/tiled
/// implementations are property-tested against (the f32 analogue of the
/// f64 kernels' test-only reference in `matrix.rs`).
pub mod reference {
    use super::EpiAct;

    /// `out = act(x · w + bias)` with `w` a dense row-major `d_in x n`
    /// slice: one `f32::mul_add` chain per element over ascending `k`, then
    /// the shared scalar epilogue — the exact chains of the packed kernels
    /// (spilling partials through f32 memory between k-blocks is exact).
    pub fn matmul_bias_act_f32(
        x: &[f32],
        d_in: usize,
        w: &[f32],
        n: usize,
        bias: &[f32],
        act: EpiAct,
        out: &mut [f32],
    ) {
        assert_eq!(w.len(), d_in * n, "reference f32: weight shape mismatch");
        assert_eq!(bias.len(), n, "reference f32: bias mismatch");
        if n == 0 || out.is_empty() {
            return;
        }
        let rows = out.len() / n;
        assert_eq!(x.len(), rows * d_in, "reference f32: x/out mismatch");
        for (r, out_row) in out.chunks_mut(n).enumerate() {
            let a_row = &x[r * d_in..(r + 1) * d_in];
            for (j, slot) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (kk, &a) in a_row.iter().enumerate() {
                    acc = a.mul_add(w[kk * n + j], acc);
                }
                *slot = act.apply_f32(acc + bias[j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips_the_weight_layout() {
        let k = KC + 3; // straddles two k-blocks
        let n = NR + 5; // ragged second panel
        let w: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32 - 6.0).collect();
        let packed = PackedF32::from_rows(&w, k, n);
        assert_eq!((packed.k(), packed.n()), (k, n));
        for kb_idx in 0..k.div_ceil(KC) {
            for jp in 0..n.div_ceil(NR) {
                let panel = packed.panel(kb_idx, jp);
                for kk in 0..KC {
                    for j in 0..NR {
                        let (gk, gj) = (kb_idx * KC + kk, jp * NR + j);
                        let want = if gk < k && gj < n {
                            w[gk * n + gj]
                        } else {
                            0.0
                        };
                        assert_eq!(panel[kk * NR + j], want, "({gk},{gj})");
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_path_is_stable_and_matches_features() {
        let first = kernel_path();
        assert_eq!(kernel_path(), first, "dispatch must be cached");
        let f = cpu_features();
        if !(f.avx2 && f.fma) {
            assert_eq!(first, KernelPath::Scalar);
        }
        assert!(matches!(first.name(), "avx2_fma" | "scalar"));
    }

    #[test]
    fn degenerate_shapes_are_no_ops() {
        let w = PackedF32::from_rows(&[], 0, 0);
        let mut out: Vec<f32> = Vec::new();
        matmul_bias_act_f32_into(&[], 0, &w, &[], EpiAct::Relu, &mut out);
        let w = PackedF32::from_rows(&[1.0, 2.0], 1, 2);
        matmul_bias_act_f32_into(&[], 1, &w, &[0.0, 0.0], EpiAct::None, &mut out);
        assert!(out.is_empty());
    }
}
