//! Tape-based reverse-mode automatic differentiation over dense matrices.
//!
//! The TargAD paper trains several small networks with *custom* losses —
//! the DeepSAD-modified autoencoder loss (Eq. 1), the three-term classifier
//! loss `L_CE + λ₁·L_OE + λ₂·L_RE` (Eq. 8) with per-instance weights, the
//! deviation loss of DevNet, GAN losses for PIA-WAL / Dual-MGAN, and so on.
//! Rather than hand-deriving each gradient, this crate provides a small
//! reverse-mode autodiff engine:
//!
//! - a [`Tape`] records operations as they execute (define-by-run, one tape
//!   per mini-batch);
//! - [`Var`] handles index nodes on the tape;
//! - [`VarStore`] owns trainable parameters and their accumulated gradients,
//!   decoupled from any single tape so optimizers (in `targad-nn`) can step
//!   them;
//! - [`check::gradient_check`] verifies analytic gradients against central
//!   finite differences — used extensively in tests, including property
//!   tests over random graphs.
//!
//! The op vocabulary is deliberately small: exactly what dense tabular MLPs,
//! autoencoders, and the paper's losses need.

pub mod check;
pub mod store;
pub mod tape;

pub use store::{GradSet, ParamId, VarStore};
pub use tape::{Tape, Var};
