//! Dense linear algebra substrate for the TargAD reproduction.
//!
//! The paper's models (autoencoders, MLP classifiers, GAN baselines) are all
//! small, tabular-data networks; a single dense row-major `f64` matrix type
//! with the handful of kernels backpropagation needs is the entire linear
//! algebra surface required. This crate provides:
//!
//! - [`Matrix`]: a row-major dense matrix with matmul variants tuned for
//!   backprop (`matmul`, [`Matrix::matmul_tn`], [`Matrix::matmul_nt`]),
//!   broadcasting helpers, reductions, and stable softmax kernels;
//! - [`par`]: runtime-parallel `_rt` kernel variants that are bit-identical
//!   to their serial counterparts at any worker count (see `targad-runtime`);
//! - [`rng`]: seeded random initialization (uniform, Xavier/Glorot,
//!   Box–Muller Gaussians) so every experiment is reproducible;
//! - [`stats`]: scalar statistics (mean/std/quantiles) shared by the
//!   clustering, metric, and experiment crates.
//!
//! Training and every reference path are `f64`: dataset sizes in the paper
//! are ≤ a few hundred thousand rows, so numerical robustness is worth more
//! than the memory. The one exception is [`f32kernel`], the opt-in
//! single-precision *inference* fast path (AVX2+FMA micro-tiles behind a
//! runtime dispatch), whose ranking fidelity is tolerance-tested against
//! the f64 oracle rather than required to be bit-exact.

pub mod f32kernel;
pub mod matrix;
pub mod par;
pub mod rng;
pub mod shared;
mod smallgemm;
pub mod stats;

pub use f32kernel::{
    cpu_features, kernel_path, matmul_bias_act_f32_into, CpuFeatures, KernelPath, PackedF32,
};
pub use matrix::{
    dense_backward_bias_into, dense_backward_data_into, dense_backward_weights_into,
    matmul_bias_act_rows_into, stable_sigmoid, stable_sigmoid_f32, EpiAct, Matrix,
};
pub use shared::{F64Buffer, SharedBuffer};
