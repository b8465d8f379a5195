//! DevNet (Pang, Shen & van den Hengel, KDD 2019) — end-to-end deviation
//! learning of anomaly scores.
//!
//! A scoring network `φ(x)` is trained so that unlabeled data matches a
//! Gaussian score prior while labeled anomalies deviate by at least `a`
//! standard deviations:
//!
//! ```text
//! dev(x) = (φ(x) − μ_R) / σ_R          (μ_R, σ_R from 5000 N(0,1) draws)
//! L = (1 − y)·|dev(x)| + y·max(0, a − dev(x))
//! ```
//!
//! with `a = 5`, exactly as in the original.

use targad_autograd::VarStore;
use targad_linalg::{rng as lrng, stats, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{shuffled_batches, Activation, Adam, EngineCell, Mlp, Optimizer, ShardedStep};
use targad_runtime::Runtime;

use crate::{Detector, TargAdError, TrainView};

/// DevNet with the original hyper-parameters.
pub struct DevNet {
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Batch size (split half unlabeled / half labeled-oversampled).
    pub batch: usize,
    /// Deviation margin `a`.
    pub margin: f64,
    /// Hidden layer sizes of the scorer.
    pub hidden: Vec<usize>,
    runtime: Runtime,
    fitted: Option<Fitted>,
    /// Pooled inference engine shared by every scoring call (and every
    /// per-epoch probe trace) of this detector.
    engine: EngineCell,
}

struct Fitted {
    store: VarStore,
    scorer: Mlp,
    mu: f64,
    sigma: f64,
}

impl Default for DevNet {
    fn default() -> Self {
        Self {
            epochs: 25,
            lr: 1e-3,
            batch: 128,
            margin: 5.0,
            hidden: vec![64, 32],
            runtime: Runtime::from_env(),
            fitted: None,
            engine: EngineCell::new(),
        }
    }
}

impl DevNet {
    /// Replaces the execution runtime. Training shards deterministically,
    /// so the fitted model is bit-identical at any worker count.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    fn deviations(&self, x: &Matrix) -> Vec<f64> {
        let f = self.fitted.as_ref().expect("DevNet: score before fit");
        let (mu, sigma) = (f.mu, f.sigma);
        self.engine.with(|e| {
            e.score(&[(&f.scorer, &f.store)], x, &self.runtime, move |_, row| {
                (row[0] - mu) / sigma
            })
        })
    }
}

impl Detector for DevNet {
    fn name(&self) -> &'static str {
        "DevNet"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        self.fit_traced(train, seed, &Matrix::zeros(0, train.dims()), &mut |_, _| {})
    }

    fn score(&self, x: &Matrix) -> Vec<f64> {
        self.deviations(x)
    }

    fn fit_traced(
        &mut self,
        train: &TrainView,
        seed: u64,
        probe: &Matrix,
        trace: &mut dyn FnMut(usize, Vec<f64>),
    ) -> Result<(), TargAdError> {
        let mut rng = lrng::seeded(seed);

        // Gaussian reference scores.
        let draws: Vec<f64> = (0..5000).map(|_| lrng::standard_normal(&mut rng)).collect();
        let mu = stats::mean(&draws);
        let sigma = stats::std_dev(&draws).max(1e-6);

        let mut store = VarStore::new();
        let mut dims = vec![train.dims()];
        dims.extend_from_slice(&self.hidden);
        dims.push(1);
        let scorer = Mlp::new(
            &mut store,
            &mut rng,
            &dims,
            Activation::Relu,
            Activation::None,
        );
        let mut opt = Adam::new(self.lr);

        let xu = &train.unlabeled;
        let xl = &train.labeled;
        let half = (self.batch / 2).max(1);

        let rt = self.runtime;
        let margin = self.margin;
        let mut step = ShardedStep::new();
        for epoch in 0..self.epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for u_batch in shuffled_batches(&mut rng, xu.rows(), half) {
                store.zero_grads();
                let n = u_batch.len();
                // Oversampled labeled indices are drawn before dispatch so
                // the RNG stream never depends on shard execution order.
                let idx: Vec<usize> = if xl.rows() > 0 {
                    (0..half).map(|_| rng.random_range(0..xl.rows())).collect()
                } else {
                    Vec::new()
                };
                let scorer = &scorer;
                let loss = step.accumulate(&rt, &mut store, n, |tape, store, range| {
                    // Unlabeled term: |dev| → 0.
                    let xb = tape.input_rows_from(xu, &u_batch[range.clone()]);
                    let phi_u = scorer.forward(tape, store, xb);
                    let dev_u = tape.add_scalar(phi_u, -mu);
                    let dev_u = tape.scale(dev_u, 1.0 / sigma);
                    let abs_u = tape.abs(dev_u);
                    let term_u = tape.sum_div(abs_u, n as f64);

                    // Labeled term: hinge pushing dev ≥ margin (labeled
                    // anomalies oversampled to half the batch). Built once,
                    // on shard 0.
                    if !idx.is_empty() && range.start == 0 {
                        let xa = tape.input_rows_from(xl, &idx);
                        let phi_a = scorer.forward(tape, store, xa);
                        let dev_a = tape.add_scalar(phi_a, -mu);
                        let dev_a = tape.scale(dev_a, -1.0 / sigma);
                        let hinge = tape.add_scalar(dev_a, margin);
                        let hinge = tape.relu(hinge);
                        let term_a = tape.mean_all(hinge);
                        tape.add(term_u, term_a)
                    } else {
                        term_u
                    }
                });
                epoch_loss += loss;
                batches += 1;
                clip_grad_norm(&mut store, 5.0);
                opt.step(&mut store);
            }
            crate::common::observe_epoch("devnet", epoch, epoch_loss / batches.max(1) as f64);
            if probe.rows() > 0 {
                let snapshot = Fitted {
                    store: store.clone(),
                    scorer: scorer.clone(),
                    mu,
                    sigma,
                };
                let prev = self.fitted.replace(snapshot);
                trace(epoch, self.deviations(probe));
                if epoch + 1 < self.epochs {
                    self.fitted = prev;
                }
            }
        }

        self.fitted = Some(Fitted {
            store,
            scorer,
            mu,
            sigma,
        });
        Ok(())
    }
}

use rand::RngExt;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_engine_matches_reference;
    use targad_data::GeneratorSpec;
    use targad_metrics::auroc;

    /// The whole-batch scorer the engine-backed `Detector::score` is
    /// checked against: `Mlp::eval` over all rows at once, then the per-row
    /// finish.
    fn score_reference(model: &DevNet, x: &Matrix) -> Vec<f64> {
        let f = model.fitted.as_ref().expect("DevNet: score before fit");
        let phi = f.scorer.eval(&f.store, x);
        (0..phi.rows())
            .map(|r| (phi[(r, 0)] - f.mu) / f.sigma)
            .collect()
    }

    #[test]
    fn engine_scores_match_the_whole_batch_reference() {
        assert_engine_matches_reference(
            |rt| {
                let mut m = DevNet::default().with_runtime(rt);
                m.epochs = 3;
                m
            },
            score_reference,
        );
    }

    #[test]
    fn labeled_guidance_separates_anomalies() {
        let bundle = GeneratorSpec::quick_demo().generate(23);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = DevNet::default();
        model.fit(&view, 1).unwrap();
        let scores = model.score(&bundle.test.features);
        // DevNet generalizes from the labeled *target* anomalies, so its
        // target ranking is strong while non-target anomalies drag the
        // all-anomaly ranking down — the Table II phenomenon.
        let troc = auroc(&scores, &bundle.test.target_labels());
        assert!(troc > 0.85, "target AUROC {troc}");
        let roc = auroc(&scores, &bundle.test.anomaly_labels());
        assert!(roc > 0.65, "anomaly AUROC {roc}");
    }

    #[test]
    fn anomaly_deviations_exceed_unlabeled() {
        let bundle = GeneratorSpec::quick_demo().generate(24);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = DevNet {
            epochs: 15,
            ..DevNet::default()
        };
        model.fit(&view, 0).unwrap();
        let dev_a = stats_mean(&model.score(&view.labeled));
        let dev_u = stats_mean(&model.score(&view.unlabeled));
        assert!(
            dev_a > dev_u + 1.0,
            "labeled dev {dev_a} vs unlabeled {dev_u}"
        );
    }

    fn stats_mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn traced_fit_counts_epochs() {
        let bundle = GeneratorSpec::quick_demo().generate(25);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = DevNet {
            epochs: 4,
            ..DevNet::default()
        };
        let mut count = 0;
        model
            .fit_traced(&view, 3, &bundle.test.features, &mut |_, _| count += 1)
            .unwrap();
        assert_eq!(count, 4);
    }
}
