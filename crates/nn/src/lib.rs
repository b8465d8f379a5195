//! Minimal neural-network toolkit for the TargAD reproduction.
//!
//! Provides exactly the model zoo the paper and its baselines need:
//! fully-connected [`Mlp`]s (the classifier `f`, DevNet/PReNet scorers, GAN
//! generators/discriminators) and [`AutoEncoder`]s (candidate selection,
//! DeepSAD pretraining, FEAWAD), together with [`Adam`]/[`Sgd`] optimizers
//! and shuffled mini-batch iteration.
//!
//! Two forward paths exist per module:
//! - `forward` builds a graph on a [`targad_autograd::Tape`] for training;
//! - `eval` computes values directly on [`targad_linalg::Matrix`] for
//!   inference (scoring shouldn't pay tape overhead).

pub mod ae;
pub mod batch;
pub mod dp;
pub mod infer;
pub mod layers;
pub mod optim;

pub use ae::AutoEncoder;
pub use batch::shuffled_batches;
pub use dp::{shard_count, shard_range, Parts, ShardedStep, MAX_PARTS, SHARD_ROWS};
pub use infer::{EngineCell, EnginePrecision, F32Plan, ModelStack, ScoreEngine, INFER_BLOCK_ROWS};
pub use layers::{Activation, Linear, Mlp};
pub use optim::{Adam, Optimizer, Sgd};
