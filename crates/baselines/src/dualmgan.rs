//! Dual-MGAN (Li et al., TKDD 2022) — dual multiple GANs for
//! semi-supervised outlier detection with few identified anomalies.
//!
//! Two sub-GAN roles are reproduced:
//!
//! 1. an **augmentation GAN** learns the distribution of the identified
//!    anomalies (plus the most-anomalous unlabeled instances, standing in
//!    for the original's active-learning queries) and synthesizes extra
//!    anomalies;
//! 2. a **normality GAN** models the unlabeled (mostly normal) data and
//!    its discriminator supplies a normality signal.
//!
//! The final detector is a binary classifier trained on unlabeled-vs-
//! (labeled ∪ generated) instances; its anomaly probability, averaged with
//! the normality discriminator's complement, is the score.
//!
//! Simplification vs the original: the active-learning loop is replaced by
//! a one-shot top-uncertainty selection via isolation scores.

use targad_autograd::{Tape, Var, VarStore};
use targad_linalg::{rng as lrng, stable_sigmoid, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{shuffled_batches, Activation, Adam, EngineCell, Mlp, Optimizer, ShardedStep};
use targad_runtime::Runtime;

use crate::common::{largest_indices, latent_noise};
use crate::iforest::IForest;
use crate::{Detector, TargAdError, TrainView};

/// Dual-MGAN with compact defaults.
pub struct DualMgan {
    /// Latent dimensionality of both generators.
    pub latent_dim: usize,
    /// GAN training epochs.
    pub gan_epochs: usize,
    /// Final classifier epochs.
    pub clf_epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Synthetic anomalies generated per labeled anomaly.
    pub augment_factor: usize,
    runtime: Runtime,
    fitted: Option<Fitted>,
    /// Pooled inference engine shared by every scoring call (and every
    /// per-epoch probe trace) of this detector.
    engine: EngineCell,
}

struct Fitted {
    clf_store: VarStore,
    clf: Mlp,
    dn_store: VarStore,
    disc_n: Mlp,
}

impl Default for DualMgan {
    fn default() -> Self {
        Self {
            latent_dim: 8,
            gan_epochs: 10,
            clf_epochs: 30,
            batch: 64,
            lr: 1e-3,
            augment_factor: 3,
            runtime: Runtime::from_env(),
            fitted: None,
            engine: EngineCell::new(),
        }
    }
}

impl DualMgan {
    /// Replaces the execution runtime. Training shards deterministically,
    /// so the fitted model is bit-identical at any worker count.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }
}

/// Shard-partial BCE toward 1 (or 0): `−Σ ln target / n`, where `n` is the
/// full batch size so shard partials sum to the serial mean.
fn bce_partial(tape: &mut Tape, logit: Var, toward_one: bool, n: usize) -> Var {
    let p = tape.sigmoid(logit);
    let target = if toward_one {
        p
    } else {
        let q = tape.neg(p);
        tape.add_scalar(q, 1.0)
    };
    let lp = tape.ln(target);
    let s = tape.sum_div(lp, n as f64);
    tape.scale(s, -1.0)
}

/// Trains one GAN on `real`, returning `(generator store, generator,
/// discriminator store, discriminator)`.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn train_gan(
    label: &'static str,
    real: &Matrix,
    latent_dim: usize,
    epochs: usize,
    batch: usize,
    lr: f64,
    seed: u64,
    rt: &Runtime,
) -> (VarStore, Mlp, VarStore, Mlp) {
    let mut rng = lrng::seeded(seed);
    let d = real.cols();
    let mut g_store = VarStore::new();
    let gen = Mlp::new(
        &mut g_store,
        &mut rng,
        &[latent_dim, 32, d],
        Activation::Relu,
        Activation::Sigmoid,
    );
    let mut d_store = VarStore::new();
    let disc = Mlp::new(
        &mut d_store,
        &mut rng,
        &[d, 32, 1],
        Activation::LeakyRelu,
        Activation::None,
    );
    let mut g_opt = Adam::new(lr);
    let mut d_opt = Adam::new(lr);

    let mut step = ShardedStep::new();
    let (gen_ref, disc_ref) = (&gen, &disc);
    for epoch in 0..epochs {
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for b in shuffled_batches(&mut rng, real.rows(), batch) {
            // All RNG draws happen before dispatch: the fake batch and the
            // generator's latent noise are prebuilt matrices that shards
            // slice by row range.
            let n = b.len();
            let fake = gen.eval(&g_store, &latent_noise(n, latent_dim, &mut rng));
            d_store.zero_grads();
            let fake_ref = &fake;
            let d_loss = step.accumulate(rt, &mut d_store, n, |tape, store, range| {
                let real_v = tape.input_rows_from(real, &b[range.clone()]);
                let rl = disc_ref.forward(tape, store, real_v);
                let l_real = bce_partial(tape, rl, true, n);
                let fake_v = tape.input_row_slice_from(fake_ref, range.start, range.end);
                let fl = disc_ref.forward(tape, store, fake_v);
                let l_fake = bce_partial(tape, fl, false, n);
                tape.add(l_real, l_fake)
            });
            clip_grad_norm(&mut d_store, 5.0);
            d_opt.step(&mut d_store);

            let noise = latent_noise(n, latent_dim, &mut rng);
            g_store.zero_grads();
            let (noise_ref, d_store_ref) = (&noise, &d_store);
            step.accumulate(rt, &mut g_store, n, |tape, store, range| {
                let z = tape.input_row_slice_from(noise_ref, range.start, range.end);
                let out = gen_ref.forward(tape, store, z);
                // Frozen discriminator pass — gradients stop at the
                // generator.
                let gl = disc_ref.forward_frozen(tape, d_store_ref, out);
                bce_partial(tape, gl, true, n)
            });
            clip_grad_norm(&mut g_store, 5.0);
            g_opt.step(&mut g_store);
            epoch_loss += d_loss;
            batches += 1;
        }
        crate::common::observe_epoch(label, epoch, epoch_loss / batches.max(1) as f64);
    }
    (g_store, gen, d_store, disc)
}

impl Detector for DualMgan {
    fn name(&self) -> &'static str {
        "Dual-MGAN"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        let xu = &train.unlabeled;
        let xl = &train.labeled;
        let mut rng = lrng::seeded(seed);

        // Active-learning substitute: augment the anomaly pool with the
        // top-scored unlabeled instances.
        let mut forest = IForest::default();
        forest.fit(train, seed ^ 0xD0A1)?;
        let iso = forest.score(xu);
        let extra = largest_indices(&iso, (xl.rows() / 2).max(2));
        let anomaly_pool = if xl.rows() > 0 {
            xl.vstack(&xu.take_rows(&extra))
        } else {
            xu.take_rows(&extra)
        };

        // Sub-GAN A: anomaly augmentation.
        let (ga_store, gen_a, _, _) = train_gan(
            "dualmgan.gan_a",
            &anomaly_pool,
            self.latent_dim,
            self.gan_epochs,
            self.batch.min(anomaly_pool.rows().max(2)),
            self.lr,
            seed ^ 0xA,
            &self.runtime,
        );
        let n_synth = anomaly_pool.rows() * self.augment_factor;
        let synth = gen_a.eval(&ga_store, &latent_noise(n_synth, self.latent_dim, &mut rng));

        // Sub-GAN N: normality modeling (its discriminator is reused at
        // scoring time).
        let (_, _, dn_store, disc_n) = train_gan(
            "dualmgan.gan_n",
            xu,
            self.latent_dim,
            self.gan_epochs,
            self.batch,
            self.lr,
            seed ^ 0xB,
            &self.runtime,
        );

        // Final binary classifier on unlabeled (0) vs anomalies+synthetic
        // (1). Synthetic positives carry a reduced weight: an under-trained
        // generator emits samples near the data centre, and trusting them
        // fully inverts the classifier.
        let positives = anomaly_pool.vstack(&synth);
        let features = xu.vstack(&positives);
        let mut labels = vec![0.0; xu.rows()];
        labels.extend(std::iter::repeat_n(1.0, positives.rows()));
        let y = Matrix::col_vector(&labels);
        let mut weights = vec![1.0; xu.rows() + anomaly_pool.rows()];
        weights.extend(std::iter::repeat_n(0.25, synth.rows()));
        let w = Matrix::col_vector(&weights);

        let mut clf_store = VarStore::new();
        let clf = Mlp::new(
            &mut clf_store,
            &mut rng,
            &[train.dims(), 64, 1],
            Activation::Relu,
            Activation::None,
        );
        let mut opt = Adam::new(self.lr);
        let rt = self.runtime;
        let mut step = ShardedStep::new();
        for epoch in 0..self.clf_epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for b in shuffled_batches(&mut rng, features.rows(), self.batch) {
                clf_store.zero_grads();
                let n = b.len();
                let clf = &clf;
                let (features, y, w) = (&features, &y, &w);
                let loss = step.accumulate(&rt, &mut clf_store, n, |tape, store, range| {
                    let rows = &b[range];
                    let xb = tape.input_rows_from(features, rows);
                    let yb = tape.input_rows_from(y, rows);
                    let wb = tape.input_rows_from(w, rows);
                    let logit = clf.forward(tape, store, xb);
                    let p = tape.sigmoid(logit);
                    let lp = tape.ln(p);
                    let t1 = tape.mul(yb, lp);
                    let q = tape.neg(p);
                    let q = tape.add_scalar(q, 1.0);
                    let lq = tape.ln(q);
                    let ny = tape.neg(yb);
                    let ny = tape.add_scalar(ny, 1.0);
                    let t2 = tape.mul(ny, lq);
                    let s = tape.add(t1, t2);
                    let weighted = tape.mul(s, wb);
                    let total = tape.sum_div(weighted, n as f64);
                    tape.scale(total, -1.0)
                });
                epoch_loss += loss;
                batches += 1;
                clip_grad_norm(&mut clf_store, 5.0);
                opt.step(&mut clf_store);
            }
            crate::common::observe_epoch("dualmgan.clf", epoch, epoch_loss / batches.max(1) as f64);
        }

        self.fitted = Some(Fitted {
            clf_store,
            clf,
            dn_store,
            disc_n,
        });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Vec<f64> {
        let f = self.fitted.as_ref().expect("Dual-MGAN: score before fit");
        let rt = &self.runtime;
        let (p_anom, p_normal) = self.engine.with(|e| {
            (
                e.score(&[(&f.clf, &f.clf_store)], x, rt, |_, r| {
                    stable_sigmoid(r[0])
                }),
                e.score(&[(&f.disc_n, &f.dn_store)], x, rt, |_, r| {
                    stable_sigmoid(r[0])
                }),
            )
        });
        // Ensemble of the two sub-detectors; the normality GAN's
        // discriminator is the weaker signal (a converged GAN
        // discriminator is not a density estimate) so it enters with a
        // small weight.
        p_anom
            .iter()
            .zip(&p_normal)
            .map(|(&a, &n)| 0.8 * a + 0.2 * (1.0 - n))
            .collect()
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
    fn score_reference(model: &DualMgan, x: &Matrix) -> Vec<f64> {
        let f = model.fitted.as_ref().expect("Dual-MGAN: score before fit");
        let clf_logits = f.clf.eval(&f.clf_store, x);
        let dn_logits = f.disc_n.eval(&f.dn_store, x);
        (0..x.rows())
            .map(|r| {
                let p_anom = stable_sigmoid(clf_logits[(r, 0)]);
                let p_normal = stable_sigmoid(dn_logits[(r, 0)]);
                0.8 * p_anom + 0.2 * (1.0 - p_normal)
            })
            .collect()
    }

    #[test]
    fn engine_scores_match_the_whole_batch_reference() {
        assert_engine_matches_reference(
            |rt| {
                let mut m = DualMgan::default().with_runtime(rt);
                m.gan_epochs = 2;
                m.clf_epochs = 3;
                m
            },
            score_reference,
        );
    }

    #[test]
    fn dual_gan_detects_anomalies() {
        let bundle = GeneratorSpec::quick_demo().generate(91);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = DualMgan::default();
        model.fit(&view, 1).unwrap();
        let scores = model.score(&bundle.test.features);
        let roc = auroc(&scores, &bundle.test.anomaly_labels());
        assert!(roc > 0.6, "anomaly AUROC {roc}");
    }

    #[test]
    fn scores_in_unit_interval() {
        let bundle = GeneratorSpec::quick_demo().generate(92);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = DualMgan {
            gan_epochs: 3,
            clf_epochs: 5,
            ..DualMgan::default()
        };
        model.fit(&view, 2).unwrap();
        assert!(model
            .score(&bundle.test.features)
            .iter()
            .all(|&s| (0.0..=1.0).contains(&s)));
    }
}
