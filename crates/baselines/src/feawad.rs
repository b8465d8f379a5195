//! FEAWAD (Zhou et al., TNNLS 2021) — feature encoding with autoencoders
//! for weakly supervised anomaly detection.
//!
//! Stage 1 pretrains an autoencoder on the unlabeled data. Stage 2 feeds a
//! scoring network the composite representation
//! `[z, e/‖e‖, ‖e‖]` — bottleneck code, normalized reconstruction residual,
//! and residual norm — and trains it with a deviation-style weakly
//! supervised loss (`|s|` for unlabeled, hinge `max(0, a − s)` for labeled
//! anomalies).
//!
//! Simplification vs the original: the paper alternates/joins the AE and
//! scorer training; we use a clean two-stage schedule, which the authors
//! report performs comparably.

use rand::RngExt;
use targad_autograd::VarStore;
use targad_linalg::{rng as lrng, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{
    shuffled_batches, Activation, Adam, AutoEncoder, EngineCell, Mlp, Optimizer, ShardedStep,
};
use targad_runtime::Runtime;

use crate::{Detector, TargAdError, TrainView};

/// FEAWAD with the defaults used in the reproduction.
pub struct Feawad {
    /// AE pretraining epochs.
    pub pretrain_epochs: usize,
    /// Scorer training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Batch size.
    pub batch: usize,
    /// Deviation margin for labeled anomalies.
    pub margin: f64,
    runtime: Runtime,
    fitted: Option<Fitted>,
    /// Pooled inference engine shared by every scoring call (and every
    /// per-epoch probe trace) of this detector.
    engine: EngineCell,
}

struct Fitted {
    ae_store: VarStore,
    ae: AutoEncoder,
    scorer_store: VarStore,
    scorer: Mlp,
}

impl Default for Feawad {
    fn default() -> Self {
        Self {
            pretrain_epochs: 10,
            epochs: 20,
            lr: 1e-3,
            batch: 128,
            margin: 5.0,
            runtime: Runtime::from_env(),
            fitted: None,
            engine: EngineCell::new(),
        }
    }
}

impl Feawad {
    /// Replaces the execution runtime. Training shards deterministically,
    /// so the fitted model is bit-identical at any worker count.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }
}

/// `[z, e/‖e‖, ‖e‖]` composite representation, with the encoder and
/// decoder run through the pooled inference engine. Bit-identical to the
/// whole-batch `encode_eval`/`reconstruct_eval` forward (unit-tested): the
/// engine reproduces the exact chains, and feeding that `z` straight into
/// the decoder matches `reconstruct_eval` (which recomputes the same `z`).
fn representation_rt(
    ae: &AutoEncoder,
    store: &VarStore,
    engine: &EngineCell,
    x: &Matrix,
    rt: &Runtime,
) -> Matrix {
    let mut z = Matrix::zeros(x.rows(), ae.encoder().out_dim());
    let mut xhat = Matrix::zeros(x.rows(), ae.decoder().out_dim());
    engine.with(|e| {
        e.forward_into(&[(ae.encoder(), store)], x, rt, &mut z);
        e.forward_into(&[(ae.decoder(), store)], &z, rt, &mut xhat);
    });
    assemble_representation(&z, &xhat, x)
}

/// Stacks `[z, e/‖e‖, ‖e‖]` rows from the bottleneck codes and
/// reconstructions.
fn assemble_representation(z: &Matrix, xhat: &Matrix, x: &Matrix) -> Matrix {
    let resid = xhat - x;
    let mut rows = Vec::with_capacity(x.rows());
    for r in 0..x.rows() {
        let e = resid.row(r);
        let norm = e.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut row = Vec::with_capacity(z.cols() + e.len() + 1);
        row.extend_from_slice(z.row(r));
        if norm > 1e-12 {
            row.extend(e.iter().map(|v| v / norm));
        } else {
            row.extend(std::iter::repeat_n(0.0, e.len()));
        }
        row.push(norm);
        rows.push(row);
    }
    Matrix::from_rows(&rows)
}

impl Detector for Feawad {
    fn name(&self) -> &'static str {
        "FEAWAD"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        self.fit_traced(train, seed, &Matrix::zeros(0, train.dims()), &mut |_, _| {})
    }

    fn score(&self, x: &Matrix) -> Vec<f64> {
        let f = self.fitted.as_ref().expect("FEAWAD: score before fit");
        let rep = representation_rt(&f.ae, &f.ae_store, &self.engine, x, &self.runtime);
        self.engine.with(|e| {
            e.score(
                &[(&f.scorer, &f.scorer_store)],
                &rep,
                &self.runtime,
                |_, s| s[0],
            )
        })
    }

    fn fit_traced(
        &mut self,
        train: &TrainView,
        seed: u64,
        probe: &Matrix,
        trace: &mut dyn FnMut(usize, Vec<f64>),
    ) -> Result<(), TargAdError> {
        let mut rng = lrng::seeded(seed);
        let xu = &train.unlabeled;
        let xl = &train.labeled;
        let d = train.dims();

        // Stage 1: autoencoder pretraining.
        let mut ae_store = VarStore::new();
        let dims = [d, (d / 2).max(2), (d / 4).max(2)];
        let ae = AutoEncoder::new(&mut ae_store, &mut rng, &dims);
        let mut ae_opt = Adam::new(self.lr);
        let rt = self.runtime;
        let mut step = ShardedStep::new();
        for _ in 0..self.pretrain_epochs {
            for batch in shuffled_batches(&mut rng, xu.rows(), self.batch) {
                ae_store.zero_grads();
                let n = batch.len();
                let ae = &ae;
                step.accumulate(&rt, &mut ae_store, n, |tape, store, range| {
                    let xb = tape.input_rows_from(xu, &batch[range]);
                    let err = ae.recon_error_rows(tape, store, xb);
                    tape.sum_div(err, n as f64)
                });
                clip_grad_norm(&mut ae_store, 5.0);
                ae_opt.step(&mut ae_store);
            }
        }

        // Stage 2: deviation-style scorer over composite representations.
        let rep_u = representation_rt(&ae, &ae_store, &self.engine, xu, &rt);
        let rep_l = if xl.rows() > 0 {
            representation_rt(&ae, &ae_store, &self.engine, xl, &rt)
        } else {
            Matrix::zeros(0, rep_u.cols())
        };
        let mut scorer_store = VarStore::new();
        let scorer = Mlp::new(
            &mut scorer_store,
            &mut rng,
            &[rep_u.cols(), 64, 1],
            Activation::Relu,
            Activation::None,
        );
        let mut opt = Adam::new(self.lr);
        let half = (self.batch / 2).max(1);

        let margin = self.margin;
        for epoch in 0..self.epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for u_batch in shuffled_batches(&mut rng, rep_u.rows(), half) {
                scorer_store.zero_grads();
                let n = u_batch.len();
                // Oversampled labeled indices are drawn before dispatch so
                // the RNG stream never depends on shard execution order.
                let idx: Vec<usize> = if rep_l.rows() > 0 {
                    (0..half)
                        .map(|_| rng.random_range(0..rep_l.rows()))
                        .collect()
                } else {
                    Vec::new()
                };
                let scorer = &scorer;
                let (rep_u, rep_l) = (&rep_u, &rep_l);
                let loss = step.accumulate(&rt, &mut scorer_store, n, |tape, store, range| {
                    let xb = tape.input_rows_from(rep_u, &u_batch[range.clone()]);
                    let s_u = scorer.forward(tape, store, xb);
                    let abs_u = tape.abs(s_u);
                    let term_u = tape.sum_div(abs_u, n as f64);
                    // Labeled hinge term: built once, on shard 0.
                    if !idx.is_empty() && range.start == 0 {
                        let xa = tape.input_rows_from(rep_l, &idx);
                        let s_a = scorer.forward(tape, store, xa);
                        let neg = tape.scale(s_a, -1.0);
                        let hinge = tape.add_scalar(neg, margin);
                        let hinge = tape.relu(hinge);
                        let term_a = tape.mean_all(hinge);
                        tape.add(term_u, term_a)
                    } else {
                        term_u
                    }
                });
                epoch_loss += loss;
                batches += 1;
                clip_grad_norm(&mut scorer_store, 5.0);
                opt.step(&mut scorer_store);
            }
            crate::common::observe_epoch("feawad", epoch, epoch_loss / batches.max(1) as f64);
            if probe.rows() > 0 {
                let snapshot = Fitted {
                    ae_store: ae_store.clone(),
                    ae: ae.clone(),
                    scorer_store: scorer_store.clone(),
                    scorer: scorer.clone(),
                };
                let prev = self.fitted.replace(snapshot);
                trace(epoch, self.score(probe));
                if epoch + 1 < self.epochs {
                    self.fitted = prev;
                }
            }
        }

        self.fitted = Some(Fitted {
            ae_store,
            ae,
            scorer_store,
            scorer,
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

    /// `[z, e/‖e‖, ‖e‖]` on the whole-batch forward.
    fn representation(ae: &AutoEncoder, store: &VarStore, x: &Matrix) -> Matrix {
        let z = ae.encode_eval(store, x);
        let xhat = ae.reconstruct_eval(store, x);
        assemble_representation(&z, &xhat, x)
    }

    /// The whole-batch scorer the engine-backed `Detector::score` is
    /// checked against: `Mlp::eval` over all rows at once, then the per-row
    /// finish.
    fn score_reference(model: &Feawad, x: &Matrix) -> Vec<f64> {
        let f = model.fitted.as_ref().expect("FEAWAD: score before fit");
        let rep = representation(&f.ae, &f.ae_store, x);
        let s = f.scorer.eval(&f.scorer_store, &rep);
        (0..s.rows()).map(|r| s[(r, 0)]).collect()
    }

    #[test]
    fn engine_scores_match_the_whole_batch_reference() {
        assert_engine_matches_reference(
            |rt| {
                let mut m = Feawad::default().with_runtime(rt);
                m.pretrain_epochs = 2;
                m.epochs = 3;
                m
            },
            score_reference,
        );
    }

    #[test]
    fn composite_representation_shape() {
        let bundle = GeneratorSpec::quick_demo().generate(33);
        let view = TrainView::from_dataset(&bundle.train);
        let mut rng = lrng::seeded(1);
        let mut store = VarStore::new();
        let ae = AutoEncoder::new(&mut store, &mut rng, &[12, 6, 3]);
        let rep = representation(&ae, &store, &view.unlabeled);
        // z (3) + residual direction (12) + norm (1)
        assert_eq!(rep.cols(), 16);
        assert_eq!(rep.rows(), view.unlabeled.rows());
    }

    #[test]
    fn detects_anomalies() {
        let bundle = GeneratorSpec::quick_demo().generate(7);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = Feawad::default();
        model.fit(&view, 2).unwrap();
        let scores = model.score(&bundle.test.features);
        let roc = auroc(&scores, &bundle.test.anomaly_labels());
        assert!(roc > 0.8, "anomaly AUROC {roc}");
    }

    #[test]
    fn labeled_anomalies_score_near_margin() {
        let bundle = GeneratorSpec::quick_demo().generate(35);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = Feawad::default();
        model.fit(&view, 2).unwrap();
        let mean_a = model.score(&view.labeled).iter().sum::<f64>() / view.labeled.rows() as f64;
        let mean_u =
            model.score(&view.unlabeled).iter().sum::<f64>() / view.unlabeled.rows() as f64;
        assert!(
            mean_a > mean_u + 1.0,
            "labeled {mean_a} vs unlabeled {mean_u}"
        );
    }
}
