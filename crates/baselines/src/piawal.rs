//! PIA-WAL (Zong et al., DASFAA 2022) — peripheral instance augmentation
//! with weighted adversarial learning.
//!
//! A generator learns to produce *peripheral* normal instances (points near
//! the boundary of the normal manifold, which vanilla detectors under-fit)
//! while the discriminator is trained with three signals: real unlabeled
//! data (label 1), generated data (label 0), and the labeled anomalies
//! (label 0) guiding the adversarial process away from anomalous regions.
//! The anomaly score is `1 − D(x)`.
//!
//! Simplification vs the original: the peripheral emphasis is a regularizer
//! pulling generated samples toward the discriminator's decision boundary
//! (`(D(G(z)) − 0.5)²`) instead of the full instance-weighting scheme.

use targad_autograd::{Tape, Var, VarStore};
use targad_linalg::{rng as lrng, stable_sigmoid, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{shuffled_batches, Activation, Adam, EngineCell, Mlp, Optimizer, ShardedStep};
use targad_runtime::Runtime;

use crate::common::latent_noise;
use crate::{Detector, TargAdError, TrainView};

/// PIA-WAL with compact defaults.
pub struct PiaWal {
    /// Latent dimensionality of the generator.
    pub latent_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Adam learning rate (both networks).
    pub lr: f64,
    /// Weight on the labeled-anomaly discriminator term.
    pub anomaly_weight: f64,
    /// Weight of the peripheral (boundary-seeking) generator term.
    pub peripheral_weight: f64,
    runtime: Runtime,
    fitted: Option<Fitted>,
    /// Pooled inference engine shared by every scoring call (and every
    /// per-epoch probe trace) of this detector.
    engine: EngineCell,
}

struct Fitted {
    d_store: VarStore,
    disc: Mlp,
}

impl Default for PiaWal {
    fn default() -> Self {
        Self {
            latent_dim: 8,
            epochs: 30,
            batch: 64,
            lr: 1e-3,
            anomaly_weight: 1.0,
            peripheral_weight: 0.5,
            runtime: Runtime::from_env(),
            fitted: None,
            engine: EngineCell::new(),
        }
    }
}

impl PiaWal {
    /// Replaces the execution runtime. Training shards deterministically,
    /// so the fitted model is bit-identical at any worker count.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }
}

/// Shard partial of `−mean ln σ(logit)`: sums the shard's rows and divides
/// by the full batch size `n`, so shard partials add up to the batch mean.
fn bce_toward_one_partial(tape: &mut Tape, logit: Var, n: usize) -> Var {
    let p = tape.sigmoid(logit);
    let lp = tape.ln(p);
    let s = tape.sum_div(lp, n as f64);
    tape.scale(s, -1.0)
}

/// `−mean ln (1 − σ(logit))` — BCE toward label 0, over the whole set.
fn bce_toward_zero(tape: &mut Tape, logit: Var) -> Var {
    let p = tape.sigmoid(logit);
    let q = tape.neg(p);
    let q = tape.add_scalar(q, 1.0);
    let lq = tape.ln(q);
    let m = tape.mean_all(lq);
    tape.scale(m, -1.0)
}

/// Shard partial of `−mean ln (1 − σ(logit))` with full-batch denominator.
fn bce_toward_zero_partial(tape: &mut Tape, logit: Var, n: usize) -> Var {
    let p = tape.sigmoid(logit);
    let q = tape.neg(p);
    let q = tape.add_scalar(q, 1.0);
    let lq = tape.ln(q);
    let s = tape.sum_div(lq, n as f64);
    tape.scale(s, -1.0)
}

impl Detector for PiaWal {
    fn name(&self) -> &'static str {
        "PIA-WAL"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        let xu = &train.unlabeled;
        let xl = &train.labeled;
        let d = train.dims();
        let mut rng = lrng::seeded(seed);

        let mut g_store = VarStore::new();
        let gen = Mlp::new(
            &mut g_store,
            &mut rng,
            &[self.latent_dim, 32, d],
            Activation::Relu,
            Activation::Sigmoid,
        );
        let mut d_store = VarStore::new();
        let disc = Mlp::new(
            &mut d_store,
            &mut rng,
            &[d, 64, 1],
            Activation::LeakyRelu,
            Activation::None,
        );
        let mut g_opt = Adam::new(self.lr);
        let mut d_opt = Adam::new(self.lr);

        let rt = self.runtime;
        let anomaly_weight = self.anomaly_weight;
        let peripheral_weight = self.peripheral_weight;
        let mut step = ShardedStep::new();
        let (gen_ref, disc_ref) = (&gen, &disc);
        for epoch in 0..self.epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch in shuffled_batches(&mut rng, xu.rows(), self.batch) {
                // ---- Discriminator step --------------------------------
                // RNG draws happen before dispatch; shards slice the
                // prebuilt fake batch by row range.
                let n = batch.len();
                let fake = gen.eval(&g_store, &latent_noise(n, self.latent_dim, &mut rng));
                d_store.zero_grads();
                let fake_ref = &fake;
                let d_loss = step.accumulate(&rt, &mut d_store, n, |tape, store, range| {
                    let real = tape.input_rows_from(xu, &batch[range.clone()]);
                    let real_logit = disc_ref.forward(tape, store, real);
                    let loss_real = bce_toward_one_partial(tape, real_logit, n);
                    let fake_v = tape.input_row_slice_from(fake_ref, range.start, range.end);
                    let fake_logit = disc_ref.forward(tape, store, fake_v);
                    let loss_fake = bce_toward_zero_partial(tape, fake_logit, n);
                    let d_loss = tape.add(loss_real, loss_fake);
                    // Weighted adversarial guidance from the whole labeled
                    // pool: built once, on shard 0.
                    if xl.rows() > 0 && range.start == 0 {
                        let anoms = tape.input_from(xl);
                        let a_logit = disc_ref.forward(tape, store, anoms);
                        let loss_anom = bce_toward_zero(tape, a_logit);
                        tape.add_scaled(d_loss, loss_anom, anomaly_weight)
                    } else {
                        d_loss
                    }
                });
                clip_grad_norm(&mut d_store, 5.0);
                d_opt.step(&mut d_store);

                // ---- Generator step ------------------------------------
                let noise = latent_noise(n, self.latent_dim, &mut rng);
                g_store.zero_grads();
                let (noise_ref, d_store_ref) = (&noise, &d_store);
                step.accumulate(&rt, &mut g_store, n, |tape, store, range| {
                    let z = tape.input_row_slice_from(noise_ref, range.start, range.end);
                    let gen_out = gen_ref.forward(tape, store, z);
                    // Frozen pass: the generator step must not touch (nor
                    // mis-route gradients into) the discriminator's store.
                    let g_logit = disc_ref.forward_frozen(tape, d_store_ref, gen_out);
                    let fool = bce_toward_one_partial(tape, g_logit, n);
                    // Peripheral emphasis: hold generated instances near the
                    // decision boundary D ≈ 0.5.
                    let p = tape.sigmoid(g_logit);
                    let centered = tape.add_scalar(p, -0.5);
                    let sq = tape.square(centered);
                    let boundary = tape.sum_div(sq, n as f64);
                    tape.add_scaled(fool, boundary, peripheral_weight)
                });
                clip_grad_norm(&mut g_store, 5.0);
                g_opt.step(&mut g_store);
                epoch_loss += d_loss;
                batches += 1;
            }
            crate::common::observe_epoch("piawal", epoch, epoch_loss / batches.max(1) as f64);
        }

        self.fitted = Some(Fitted { d_store, disc });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Vec<f64> {
        let f = self.fitted.as_ref().expect("PIA-WAL: score before fit");
        self.engine.with(|e| {
            e.score(&[(&f.disc, &f.d_store)], x, &self.runtime, |_, row| {
                1.0 - stable_sigmoid(row[0])
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_engine_matches_reference;
    use targad_data::GeneratorSpec;
    use targad_metrics::auroc;

    /// The whole-batch scorer the engine-backed `Detector::score` is
    /// checked against: `Mlp::eval` over all rows at once, then the per-row
    /// finish.
    fn score_reference(model: &PiaWal, x: &Matrix) -> Vec<f64> {
        let f = model.fitted.as_ref().expect("PIA-WAL: score before fit");
        let logits = f.disc.eval(&f.d_store, x);
        (0..logits.rows())
            .map(|r| 1.0 - stable_sigmoid(logits[(r, 0)]))
            .collect()
    }

    #[test]
    fn engine_scores_match_the_whole_batch_reference() {
        assert_engine_matches_reference(
            |rt| {
                let mut m = PiaWal::default().with_runtime(rt);
                m.epochs = 3;
                m
            },
            score_reference,
        );
    }

    #[test]
    fn discriminator_score_separates_anomalies() {
        let bundle = GeneratorSpec::quick_demo().generate(81);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = PiaWal::default();
        model.fit(&view, 1).unwrap();
        let scores = model.score(&bundle.test.features);
        let roc = auroc(&scores, &bundle.test.anomaly_labels());
        assert!(roc > 0.7, "anomaly AUROC {roc}");
    }

    #[test]
    fn scores_lie_in_unit_interval() {
        let bundle = GeneratorSpec::quick_demo().generate(82);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = PiaWal {
            epochs: 5,
            ..PiaWal::default()
        };
        model.fit(&view, 2).unwrap();
        assert!(model
            .score(&bundle.test.features)
            .iter()
            .all(|&s| (0.0..=1.0).contains(&s)));
    }
}
