//! ADOA (Zhang et al., WWW 2018) — anomaly detection with partially
//! observed anomalies.
//!
//! The observed (labeled) anomalies are clustered; each unlabeled instance
//! receives a combined score `θ(x) = λ·iso(x) + (1−λ)·sim(x)` from an
//! isolation score and its similarity to the nearest anomaly-cluster
//! center. High-θ instances become *reliable anomalies*, low-θ instances
//! *reliable normals*, each carrying a confidence weight, and a weighted
//! binary classifier is trained on them.
//!
//! Simplification vs the original: the final model is a weighted-BCE MLP
//! rather than a tree ensemble.

use targad_autograd::VarStore;
use targad_cluster::{KMeans, KMeansConfig};
use targad_linalg::{rng as lrng, stable_sigmoid, stats, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{shuffled_batches, Activation, Adam, EngineCell, Mlp, Optimizer, ShardedStep};
use targad_runtime::Runtime;

use crate::common::{observe_epoch, sq_dist};
use crate::iforest::IForest;
use crate::{Detector, TargAdError, TrainView};

/// ADOA with the defaults used in the reproduction.
pub struct Adoa {
    /// Number of anomaly clusters.
    pub anomaly_clusters: usize,
    /// Mixing factor λ between isolation and similarity scores.
    pub lambda: f64,
    /// Fraction of unlabeled data taken as reliable anomalies.
    pub anomaly_frac: f64,
    /// Fraction taken as reliable normals.
    pub normal_frac: f64,
    /// Classifier epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Batch size.
    pub batch: usize,
    runtime: Runtime,
    fitted: Option<Fitted>,
    /// Pooled inference engine shared by every scoring call (and every
    /// per-epoch probe trace) of this detector.
    engine: EngineCell,
}

struct Fitted {
    store: VarStore,
    clf: Mlp,
}

impl Default for Adoa {
    fn default() -> Self {
        Self {
            anomaly_clusters: 3,
            lambda: 0.5,
            anomaly_frac: 0.05,
            normal_frac: 0.40,
            epochs: 60,
            lr: 2e-3,
            batch: 64,
            runtime: Runtime::from_env(),
            fitted: None,
            engine: EngineCell::new(),
        }
    }
}

impl Adoa {
    /// Replaces the execution runtime. Training shards deterministically,
    /// so the fitted model is bit-identical at any worker count.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }
}

impl Detector for Adoa {
    fn name(&self) -> &'static str {
        "ADOA"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        let xu = &train.unlabeled;
        let xl = &train.labeled;
        let mut rng = lrng::seeded(seed);

        // Isolation scores over the unlabeled pool.
        let mut forest = IForest::default();
        forest.fit(train, seed ^ 0xAD0A)?;
        let iso = normalize(&forest.score(xu));

        // Cluster the observed anomalies; similarity = Gaussian kernel on
        // the distance to the nearest anomaly centroid.
        let sim = if xl.rows() > 0 {
            let k = self.anomaly_clusters.min(xl.rows());
            let km = KMeans::fit(xl, KMeansConfig::new(k), seed ^ 0x51D);
            let dists: Vec<f64> = (0..xu.rows())
                .map(|i| {
                    (0..km.k())
                        .map(|c| sq_dist(xu.row(i), km.centroids().row(c)))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let bandwidth = stats::mean(&dists).max(1e-9);
            dists.iter().map(|&d| (-d / bandwidth).exp()).collect()
        } else {
            vec![0.0; xu.rows()]
        };

        // Combined score θ and reliable-set selection.
        let theta: Vec<f64> = iso
            .iter()
            .zip(&sim)
            .map(|(&i, &s)| self.lambda * i + (1.0 - self.lambda) * s)
            .collect();
        let n_anom =
            ((xu.rows() as f64 * self.anomaly_frac).round() as usize).clamp(1, xu.rows() / 2);
        let n_norm =
            ((xu.rows() as f64 * self.normal_frac).round() as usize).clamp(1, xu.rows() / 2);
        let mut order: Vec<usize> = (0..xu.rows()).collect();
        order.sort_by(|&a, &b| theta[b].partial_cmp(&theta[a]).expect("NaN θ"));
        let reliable_anoms = &order[..n_anom];
        let reliable_norms = &order[order.len() - n_norm..];

        // Weighted training set: labeled anomalies (weight 1), reliable
        // anomalies (weight θ), reliable normals (weight 1 − θ).
        let mut features = xl.clone();
        let mut labels = vec![1.0; xl.rows()];
        let mut weights = vec![1.0; xl.rows()];
        if xl.rows() == 0 {
            features = Matrix::zeros(0, xu.cols());
        }
        for &i in reliable_anoms {
            features = features.vstack(&xu.take_rows(&[i]));
            labels.push(1.0);
            weights.push(theta[i]);
        }
        for &i in reliable_norms {
            features = features.vstack(&xu.take_rows(&[i]));
            labels.push(0.0);
            weights.push(1.0 - theta[i]);
        }

        // Weighted-BCE MLP.
        let mut store = VarStore::new();
        let clf = Mlp::new(
            &mut store,
            &mut rng,
            &[train.dims(), 64, 1],
            Activation::Relu,
            Activation::None,
        );
        let mut opt = Adam::new(self.lr);
        let y = Matrix::col_vector(&labels);
        let w = Matrix::col_vector(&weights);
        let rt = self.runtime;
        let mut step = ShardedStep::new();
        for epoch in 0..self.epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch in shuffled_batches(&mut rng, features.rows(), self.batch) {
                store.zero_grads();
                let n = batch.len();
                let clf = &clf;
                let (features, y, w) = (&features, &y, &w);
                let loss = step.accumulate(&rt, &mut store, n, |tape, store, range| {
                    let rows = &batch[range];
                    let xb = tape.input_rows_from(features, rows);
                    let yb = tape.input_rows_from(y, rows);
                    let wb = tape.input_rows_from(w, rows);
                    let logit = clf.forward(tape, store, xb);
                    let p = tape.sigmoid(logit);
                    // weighted BCE: −w·(y ln p + (1−y) ln(1−p))
                    let lp = tape.ln(p);
                    let term1 = tape.mul(yb, lp);
                    let one_minus_p = tape.neg(p);
                    let one_minus_p = tape.add_scalar(one_minus_p, 1.0);
                    let lq = tape.ln(one_minus_p);
                    let one_minus_y = tape.neg(yb);
                    let one_minus_y = tape.add_scalar(one_minus_y, 1.0);
                    let term2 = tape.mul(one_minus_y, lq);
                    let sum_terms = tape.add(term1, term2);
                    let weighted = tape.mul(sum_terms, wb);
                    let total = tape.sum_div(weighted, n as f64);
                    tape.scale(total, -1.0)
                });
                epoch_loss += loss;
                batches += 1;
                clip_grad_norm(&mut store, 5.0);
                opt.step(&mut store);
            }
            observe_epoch("adoa", epoch, epoch_loss / batches.max(1) as f64);
        }

        self.fitted = Some(Fitted { store, clf });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Vec<f64> {
        let f = self.fitted.as_ref().expect("ADOA: score before fit");
        self.engine.with(|e| {
            e.score(&[(&f.clf, &f.store)], x, &self.runtime, |_, row| {
                stable_sigmoid(row[0])
            })
        })
    }
}

fn normalize(v: &[f64]) -> Vec<f64> {
    let lo = stats::min(v);
    let hi = stats::max(v);
    v.iter().map(|&x| stats::min_max_scale(x, lo, hi)).collect()
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
    fn score_reference(model: &Adoa, x: &Matrix) -> Vec<f64> {
        let f = model.fitted.as_ref().expect("ADOA: score before fit");
        let logits = f.clf.eval(&f.store, x);
        (0..logits.rows())
            .map(|r| stable_sigmoid(logits[(r, 0)]))
            .collect()
    }

    #[test]
    fn engine_scores_match_the_whole_batch_reference() {
        assert_engine_matches_reference(
            |rt| {
                let mut m = Adoa::default().with_runtime(rt);
                m.epochs = 3;
                m
            },
            score_reference,
        );
    }

    #[test]
    fn detects_anomalies_with_partial_labels() {
        let bundle = GeneratorSpec::quick_demo().generate(51);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = Adoa::default();
        model.fit(&view, 1).unwrap();
        let scores = model.score(&bundle.test.features);
        // The anomaly-cluster similarity term biases ADOA toward the
        // labeled (target) anomaly pattern; target ranking is the strong
        // signal, all-anomaly ranking is weaker.
        let troc = auroc(&scores, &bundle.test.target_labels());
        assert!(troc > 0.7, "target AUROC {troc}");
        let roc = auroc(&scores, &bundle.test.anomaly_labels());
        assert!(roc > 0.5, "anomaly AUROC {roc}");
    }

    #[test]
    fn scores_are_probabilities() {
        let bundle = GeneratorSpec::quick_demo().generate(52);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = Adoa {
            epochs: 5,
            ..Adoa::default()
        };
        model.fit(&view, 2).unwrap();
        assert!(model
            .score(&bundle.test.features)
            .iter()
            .all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn works_without_labeled_anomalies() {
        let bundle = GeneratorSpec::quick_demo().generate(53);
        let mut train = bundle.train.clone();
        train.labeled.iter_mut().for_each(|l| *l = false);
        let view = TrainView::from_dataset(&train);
        assert_eq!(view.labeled.rows(), 0);
        let mut model = Adoa {
            epochs: 5,
            ..Adoa::default()
        };
        model.fit(&view, 3).unwrap();
        let scores = model.score(&bundle.test.features);
        assert_eq!(scores.len(), bundle.test.len());
    }
}
