//! DeepSAD (Ruff et al., ICLR 2020) — deep semi-supervised one-class
//! classification.
//!
//! An encoder is pretrained as part of an autoencoder, the hypersphere
//! center `c` is fixed to the mean embedding of the unlabeled data, and the
//! encoder is fine-tuned to pull unlabeled points toward `c` while pushing
//! labeled anomalies away via the inverse-distance penalty
//! `(‖z − c‖²)⁻¹`. The anomaly score is `‖z − c‖²`.
//!
//! Simplification vs the original: pretraining epochs are merged into the
//! same budget and no weight-decay schedule is used.

use targad_autograd::VarStore;
use targad_linalg::{rng as lrng, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{shuffled_batches, Adam, AutoEncoder, EngineCell, Mlp, Optimizer, ShardedStep};
use targad_runtime::Runtime;

use crate::common::{mean_row, observe_epoch};
use crate::{Detector, TargAdError, TrainView};

/// DeepSAD with the defaults used in the reproduction.
pub struct DeepSad {
    /// Autoencoder pretraining epochs.
    pub pretrain_epochs: usize,
    /// Fine-tuning epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Mini-batch size.
    pub batch: usize,
    /// Weight `η` on the labeled-anomaly inverse-distance term.
    pub eta: f64,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    runtime: Runtime,
    fitted: Option<Fitted>,
    /// Pooled inference engine shared by every scoring call (and every
    /// per-epoch probe trace) of this detector.
    engine: EngineCell,
}

struct Fitted {
    store: VarStore,
    encoder: Mlp,
    center: Vec<f64>,
}

impl Default for DeepSad {
    fn default() -> Self {
        Self {
            pretrain_epochs: 10,
            epochs: 20,
            lr: 1e-3,
            batch: 128,
            eta: 1.0,
            embed_dim: 16,
            runtime: Runtime::from_env(),
            fitted: None,
            engine: EngineCell::new(),
        }
    }
}

impl DeepSad {
    /// Replaces the execution runtime. Training shards deterministically,
    /// so the fitted model is bit-identical at any worker count.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    fn sq_dists_to_center(&self, x: &Matrix) -> Vec<f64> {
        let f = self.fitted.as_ref().expect("DeepSAD: score before fit");
        let center = &f.center;
        self.engine.with(|e| {
            e.score(&[(&f.encoder, &f.store)], x, &self.runtime, |_, z| {
                z.iter().zip(center).map(|(&a, &b)| (a - b) * (a - b)).sum()
            })
        })
    }
}

impl Detector for DeepSad {
    fn name(&self) -> &'static str {
        "DeepSAD"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        self.fit_traced(train, seed, &Matrix::zeros(0, train.dims()), &mut |_, _| {})
    }

    fn score(&self, x: &Matrix) -> Vec<f64> {
        self.sq_dists_to_center(x)
    }

    fn fit_traced(
        &mut self,
        train: &TrainView,
        seed: u64,
        probe: &Matrix,
        trace: &mut dyn FnMut(usize, Vec<f64>),
    ) -> Result<(), TargAdError> {
        let xu = &train.unlabeled;
        let xl = &train.labeled;
        let mut rng = lrng::seeded(seed);
        let mut store = VarStore::new();
        let d = train.dims();
        let hidden = (d / 2).max(self.embed_dim).max(2);
        let dims = [d, hidden, self.embed_dim.min(hidden)];
        let ae = AutoEncoder::new(&mut store, &mut rng, &dims);
        let mut opt = Adam::new(self.lr);

        // Stage 1: reconstruction pretraining, sharded deterministically
        // across the runtime's workers.
        let rt = self.runtime;
        let mut step = ShardedStep::new();
        for _ in 0..self.pretrain_epochs {
            for batch in shuffled_batches(&mut rng, xu.rows(), self.batch) {
                store.zero_grads();
                let n = batch.len();
                step.accumulate(&rt, &mut store, n, |tape, store, range| {
                    let xb = tape.input_rows_from(xu, &batch[range]);
                    let err = ae.recon_error_rows(tape, store, xb);
                    tape.sum_div(err, n as f64)
                });
                clip_grad_norm(&mut store, 5.0);
                opt.step(&mut store);
            }
        }

        // Fix the center from the pretrained embeddings.
        let center = mean_row(&ae.encoder().eval(&store, xu));
        let center_row = Matrix::row_vector(&center);
        let encoder = ae.encoder().clone();

        // Stage 2: one-class fine-tuning with labeled anomalies.
        let mut opt2 = Adam::new(self.lr);
        let neg_center = -&center_row;
        let use_push = xl.rows() > 0 && self.eta > 0.0;
        let eta = self.eta;
        for epoch in 0..self.epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch in shuffled_batches(&mut rng, xu.rows(), self.batch) {
                store.zero_grads();
                let n = batch.len();
                let encoder = &encoder;
                let neg_center = &neg_center;
                let loss = step.accumulate(&rt, &mut store, n, |tape, store, range| {
                    let neg_c = tape.input_from(neg_center);
                    let xb = tape.input_rows_from(xu, &batch[range.clone()]);
                    let z = encoder.forward(tape, store, xb);
                    let centered = tape.add_row_broadcast(z, neg_c);
                    let dist = tape.row_sq_norm(centered);
                    let pull = tape.sum_div(dist, n as f64);
                    // Whole-set push-away term: built once, on shard 0.
                    if use_push && range.start == 0 {
                        let xlv = tape.input_from(xl);
                        let zl = encoder.forward(tape, store, xlv);
                        let cl = tape.add_row_broadcast(zl, neg_c);
                        let dl = tape.row_sq_norm(cl);
                        let inv = tape.recip(dl);
                        let push = tape.mean_all(inv);
                        tape.add_scaled(pull, push, eta)
                    } else {
                        pull
                    }
                });
                epoch_loss += loss;
                batches += 1;
                clip_grad_norm(&mut store, 5.0);
                opt2.step(&mut store);
            }
            observe_epoch("deepsad", epoch, epoch_loss / batches.max(1) as f64);
            if probe.rows() > 0 {
                let snapshot = Fitted {
                    store: store.clone(),
                    encoder: encoder.clone(),
                    center: center.clone(),
                };
                let prev = self.fitted.replace(snapshot);
                trace(epoch, self.sq_dists_to_center(probe));
                if epoch + 1 < self.epochs {
                    self.fitted = prev;
                }
            }
        }

        self.fitted = Some(Fitted {
            store,
            encoder,
            center,
        });
        Ok(())
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
    fn score_reference(model: &DeepSad, x: &Matrix) -> Vec<f64> {
        let f = model.fitted.as_ref().expect("DeepSAD: score before fit");
        let z = f.encoder.eval(&f.store, x);
        (0..z.rows()).map(|r| z.row_sq_dist(r, &f.center)).collect()
    }

    #[test]
    fn engine_scores_match_the_whole_batch_reference() {
        assert_engine_matches_reference(
            |rt| {
                let mut m = DeepSad::default().with_runtime(rt);
                m.pretrain_epochs = 2;
                m.epochs = 3;
                m
            },
            score_reference,
        );
    }

    #[test]
    fn separates_anomalies_from_normals() {
        let bundle = GeneratorSpec::quick_demo().generate(17);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = DeepSad::default();
        model.fit(&view, 3).unwrap();
        let scores = model.score(&bundle.test.features);
        let roc = auroc(&scores, &bundle.test.anomaly_labels());
        assert!(roc > 0.8, "anomaly AUROC {roc}");
    }

    #[test]
    fn labeled_anomalies_score_high() {
        let bundle = GeneratorSpec::quick_demo().generate(18);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = DeepSad::default();
        model.fit(&view, 4).unwrap();
        let anomaly_scores = model.score(&view.labeled);
        let normal_scores = model.score(&view.unlabeled);
        let mean_a = anomaly_scores.iter().sum::<f64>() / anomaly_scores.len() as f64;
        let mean_u = normal_scores.iter().sum::<f64>() / normal_scores.len() as f64;
        assert!(mean_a > mean_u, "labeled {mean_a} vs unlabeled {mean_u}");
    }

    #[test]
    fn traced_fit_reports_each_epoch() {
        let bundle = GeneratorSpec::quick_demo().generate(19);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = DeepSad {
            epochs: 5,
            pretrain_epochs: 2,
            ..DeepSad::default()
        };
        let mut epochs_seen = Vec::new();
        model
            .fit_traced(&view, 5, &bundle.test.features, &mut |e, scores| {
                assert_eq!(scores.len(), bundle.test.len());
                epochs_seen.push(e);
            })
            .unwrap();
        assert_eq!(epochs_seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "score before fit")]
    fn scoring_unfitted_panics() {
        let model = DeepSad::default();
        let _ = model.score(&Matrix::ones(1, 4));
    }
}
