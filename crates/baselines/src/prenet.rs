//! PReNet (Pang et al., KDD 2023) — deep weakly-supervised anomaly
//! detection via pairwise relation prediction.
//!
//! Instance pairs get ordinal relation labels — `(anomaly, anomaly) → 8`,
//! `(anomaly, unlabeled) → 4`, `(unlabeled, unlabeled) → 0` — and a network
//! `φ([x₁; x₂])` regresses them. At inference, `x` is paired with random
//! labeled anomalies and random unlabeled instances; the mean predicted
//! relation is the anomaly score.

use rand::rngs::StdRng;
use rand::RngExt;
use targad_autograd::VarStore;
use targad_linalg::{rng as lrng, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{Activation, Adam, EngineCell, Mlp, Optimizer, ShardedStep};
use targad_runtime::Runtime;

use crate::{Detector, TargAdError, TrainView};

/// PReNet with the original relation labels (8 / 4 / 0).
pub struct PreNet {
    /// Training steps (each step draws a fresh pair batch).
    pub steps: usize,
    /// Pairs per step.
    pub batch_pairs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Hidden layers of the relation network.
    pub hidden: Vec<usize>,
    /// Anomaly/unlabeled pairs sampled per instance at scoring time.
    pub score_pairs: usize,
    runtime: Runtime,
    fitted: Option<Fitted>,
    /// Pooled inference engine shared by every scoring call (and every
    /// per-epoch probe trace) of this detector.
    engine: EngineCell,
}

struct Fitted {
    store: VarStore,
    net: Mlp,
    labeled: Matrix,
    unlabeled_sample: Matrix,
}

impl Default for PreNet {
    fn default() -> Self {
        Self {
            steps: 400,
            batch_pairs: 96,
            lr: 1e-3,
            hidden: vec![64, 32],
            score_pairs: 16,
            runtime: Runtime::from_env(),
            fitted: None,
            engine: EngineCell::new(),
        }
    }
}

impl PreNet {
    /// Replaces the execution runtime. Training shards deterministically,
    /// so the fitted model is bit-identical at any worker count.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }
}

fn concat_rows(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut row = Vec::with_capacity(a.len() + b.len());
    row.extend_from_slice(a);
    row.extend_from_slice(b);
    row
}

impl PreNet {
    fn pair_batch(&self, xl: &Matrix, xu: &Matrix, rng: &mut StdRng) -> (Matrix, Matrix) {
        let mut rows = Vec::with_capacity(self.batch_pairs);
        let mut ys = Vec::with_capacity(self.batch_pairs);
        let has_labeled = xl.rows() > 0;
        for _ in 0..self.batch_pairs {
            let kind = if has_labeled {
                rng.random_range(0..3)
            } else {
                2
            };
            match kind {
                0 => {
                    // (anomaly, anomaly) → 8
                    let a = rng.random_range(0..xl.rows());
                    let b = rng.random_range(0..xl.rows());
                    rows.push(concat_rows(xl.row(a), xl.row(b)));
                    ys.push(8.0);
                }
                1 => {
                    // (anomaly, unlabeled) → 4
                    let a = rng.random_range(0..xl.rows());
                    let u = rng.random_range(0..xu.rows());
                    rows.push(concat_rows(xl.row(a), xu.row(u)));
                    ys.push(4.0);
                }
                _ => {
                    // (unlabeled, unlabeled) → 0
                    let u1 = rng.random_range(0..xu.rows());
                    let u2 = rng.random_range(0..xu.rows());
                    rows.push(concat_rows(xu.row(u1), xu.row(u2)));
                    ys.push(0.0);
                }
            }
        }
        (Matrix::from_rows(&rows), Matrix::col_vector(&ys))
    }
}

impl Detector for PreNet {
    fn name(&self) -> &'static str {
        "PReNet"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        let mut rng = lrng::seeded(seed);
        let mut store = VarStore::new();
        let mut dims = vec![train.dims() * 2];
        dims.extend_from_slice(&self.hidden);
        dims.push(1);
        let net = Mlp::new(
            &mut store,
            &mut rng,
            &dims,
            Activation::Relu,
            Activation::None,
        );
        let mut opt = Adam::new(self.lr);

        let rt = self.runtime;
        let mut step = ShardedStep::new();
        for train_step in 0..self.steps {
            // The pair batch is drawn up front; shards slice it by row
            // range, so the RNG stream never depends on worker count.
            let (pairs, ys) = self.pair_batch(&train.labeled, &train.unlabeled, &mut rng);
            store.zero_grads();
            let n = pairs.rows();
            let net = &net;
            let (pairs, ys) = (&pairs, &ys);
            let loss = step.accumulate(&rt, &mut store, n, |tape, store, range| {
                let xb = tape.input_row_slice_from(pairs, range.start, range.end);
                let yv = tape.input_row_slice_from(ys, range.start, range.end);
                let pred = net.forward(tape, store, xb);
                // MSE partial with the full-batch denominator (1 output
                // column, so elements == rows).
                let diff = tape.sub(pred, yv);
                let sq = tape.square(diff);
                tape.sum_div(sq, n as f64)
            });
            clip_grad_norm(&mut store, 5.0);
            opt.step(&mut store);
            crate::common::observe_epoch("prenet", train_step, loss);
        }

        // Freeze the scoring reference sets.
        let sample = (0..self.score_pairs.min(train.unlabeled.rows()))
            .map(|_| rng.random_range(0..train.unlabeled.rows()))
            .collect::<Vec<_>>();
        self.fitted = Some(Fitted {
            store,
            net,
            labeled: train.labeled.clone(),
            unlabeled_sample: train.unlabeled.take_rows(&sample),
        });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Vec<f64> {
        let f = self.fitted.as_ref().expect("PReNet: score before fit");
        let n_a = f.labeled.rows().min(self.score_pairs);
        let n_u = f.unlabeled_sample.rows();
        (0..x.rows())
            .map(|i| {
                let row = x.row(i);
                let mut pairs = Vec::with_capacity(n_a + n_u);
                for a in 0..n_a {
                    pairs.push(concat_rows(f.labeled.row(a), row));
                }
                for u in 0..n_u {
                    pairs.push(concat_rows(f.unlabeled_sample.row(u), row));
                }
                if pairs.is_empty() {
                    return 0.0;
                }
                let pair_m = Matrix::from_rows(&pairs);
                let preds = self.engine.with(|e| {
                    e.score(&[(&f.net, &f.store)], &pair_m, &self.runtime, |_, row| {
                        row[0]
                    })
                });
                preds.iter().sum::<f64>() / preds.len() as f64
            })
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
    fn score_reference(model: &PreNet, x: &Matrix) -> Vec<f64> {
        let f = model.fitted.as_ref().expect("PReNet: score before fit");
        let n_a = f.labeled.rows().min(model.score_pairs);
        let n_u = f.unlabeled_sample.rows();
        (0..x.rows())
            .map(|i| {
                let row = x.row(i);
                let mut pairs = Vec::with_capacity(n_a + n_u);
                for a in 0..n_a {
                    pairs.push(concat_rows(f.labeled.row(a), row));
                }
                for u in 0..n_u {
                    pairs.push(concat_rows(f.unlabeled_sample.row(u), row));
                }
                if pairs.is_empty() {
                    return 0.0;
                }
                let preds = f.net.eval(&f.store, &Matrix::from_rows(&pairs));
                preds.mean()
            })
            .collect()
    }

    #[test]
    fn engine_scores_match_the_whole_batch_reference() {
        assert_engine_matches_reference(
            |rt| {
                let mut m = PreNet::default().with_runtime(rt);
                m.steps = 30;
                m
            },
            score_reference,
        );
    }

    #[test]
    fn relation_scores_rank_anomalies() {
        let bundle = GeneratorSpec::quick_demo().generate(27);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = PreNet::default();
        model.fit(&view, 1).unwrap();
        let scores = model.score(&bundle.test.features);
        let roc = auroc(&scores, &bundle.test.anomaly_labels());
        assert!(roc > 0.75, "anomaly AUROC {roc}");
    }

    #[test]
    fn pair_labels_are_learned() {
        // After training, an (anomaly, anomaly) pair should predict a larger
        // relation value than an (unlabeled, unlabeled) pair.
        let bundle = GeneratorSpec::quick_demo().generate(28);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = PreNet::default();
        model.fit(&view, 2).unwrap();
        let f = model.fitted.as_ref().unwrap();
        let aa = Matrix::from_rows(&[concat_rows(view.labeled.row(0), view.labeled.row(1))]);
        let uu = Matrix::from_rows(&[concat_rows(view.unlabeled.row(0), view.unlabeled.row(1))]);
        let p_aa = f.net.eval(&f.store, &aa)[(0, 0)];
        let p_uu = f.net.eval(&f.store, &uu)[(0, 0)];
        assert!(p_aa > p_uu + 2.0, "aa {p_aa} vs uu {p_uu}");
    }

    #[test]
    fn deterministic_given_seed() {
        let bundle = GeneratorSpec::quick_demo().generate(29);
        let view = TrainView::from_dataset(&bundle.train);
        let mut a = PreNet {
            steps: 50,
            ..PreNet::default()
        };
        let mut b = PreNet {
            steps: 50,
            ..PreNet::default()
        };
        a.fit(&view, 9).unwrap();
        b.fit(&view, 9).unwrap();
        assert_eq!(
            a.score(&bundle.test.features),
            b.score(&bundle.test.features)
        );
    }
}
