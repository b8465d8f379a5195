//! PUMAD (Ju et al., Information Sciences 2020) — PU metric learning for
//! anomaly detection.
//!
//! An embedding network is trained so that *reliable normals* (filtered
//! from the unlabeled pool) collapse around a prototype while labeled
//! anomalies are pushed at least `margin` away; the anomaly score is the
//! embedding distance to the prototype.
//!
//! Simplification vs the original: the distance-hashing filter that
//! identifies reliable negatives is replaced by an embedding-space quantile
//! filter refreshed every epoch, which plays the same role (discarding
//! likely-anomalous unlabeled points from the "normal" side of the metric
//! loss).

use targad_autograd::VarStore;
use targad_linalg::{rng as lrng, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{shuffled_batches, Activation, Adam, EngineCell, Mlp, Optimizer, ShardedStep};
use targad_runtime::Runtime;

use crate::common::{mean_row, smallest_indices};
use crate::{Detector, TargAdError, TrainView};

/// PUMAD with the defaults used in the reproduction.
pub struct Pumad {
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Batch size.
    pub batch: usize,
    /// Margin pushing labeled anomalies from the prototype.
    pub margin: f64,
    /// Fraction of unlabeled data kept as reliable normals each epoch.
    pub reliable_frac: f64,
    runtime: Runtime,
    fitted: Option<Fitted>,
    /// Pooled inference engine shared by every scoring call (and every
    /// per-epoch probe trace) of this detector.
    engine: EngineCell,
}

struct Fitted {
    store: VarStore,
    embed: Mlp,
    prototype: Vec<f64>,
}

impl Default for Pumad {
    fn default() -> Self {
        Self {
            embed_dim: 16,
            epochs: 30,
            lr: 1e-3,
            batch: 128,
            margin: 2.0,
            reliable_frac: 0.7,
            runtime: Runtime::from_env(),
            fitted: None,
            engine: EngineCell::new(),
        }
    }
}

impl Pumad {
    /// Replaces the execution runtime. Training shards deterministically,
    /// so the fitted model is bit-identical at any worker count.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }
}

impl Detector for Pumad {
    fn name(&self) -> &'static str {
        "PUMAD"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        let xu = &train.unlabeled;
        let xl = &train.labeled;
        let mut rng = lrng::seeded(seed);
        let mut store = VarStore::new();
        let embed = Mlp::new(
            &mut store,
            &mut rng,
            &[train.dims(), 64, self.embed_dim],
            Activation::Relu,
            Activation::None,
        );
        let mut opt = Adam::new(self.lr);

        let n_reliable =
            ((xu.rows() as f64 * self.reliable_frac).round() as usize).clamp(1, xu.rows());
        let mut prototype = mean_row(&embed.eval(&store, xu));

        let rt = self.runtime;
        let margin = self.margin;
        let mut step = ShardedStep::new();
        for epoch in 0..self.epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            // Hashing-substitute filter: keep the unlabeled rows closest to
            // the current prototype as reliable normals.
            let z = embed.eval(&store, xu);
            let dists: Vec<f64> = (0..z.rows())
                .map(|r| z.row_sq_dist(r, &prototype))
                .collect();
            let reliable = smallest_indices(&dists, n_reliable);

            let neg_proto_row = -&Matrix::row_vector(&prototype);
            for batch in shuffled_batches(&mut rng, reliable.len(), self.batch) {
                let rows: Vec<usize> = batch.iter().map(|&b| reliable[b]).collect();
                store.zero_grads();
                let n = rows.len();
                let embed = &embed;
                let neg_proto_row = &neg_proto_row;
                let loss = step.accumulate(&rt, &mut store, n, |tape, store, range| {
                    let neg_proto = tape.input_from(neg_proto_row);
                    let xb = tape.input_rows_from(xu, &rows[range.clone()]);
                    let zb = embed.forward(tape, store, xb);
                    let centered = tape.add_row_broadcast(zb, neg_proto);
                    let dist = tape.row_sq_norm(centered);
                    let pull = tape.sum_div(dist, n as f64);
                    // Whole-set push term over the labeled pool: built
                    // once, on shard 0.
                    if xl.rows() > 0 && range.start == 0 {
                        let xa = tape.input_from(xl);
                        let za = embed.forward(tape, store, xa);
                        let ca = tape.add_row_broadcast(za, neg_proto);
                        let da = tape.row_sq_norm(ca);
                        // hinge: max(0, margin − d)
                        let neg_da = tape.scale(da, -1.0);
                        let hinge = tape.add_scalar(neg_da, margin);
                        let hinge = tape.relu(hinge);
                        let push = tape.mean_all(hinge);
                        tape.add(pull, push)
                    } else {
                        pull
                    }
                });
                epoch_loss += loss;
                batches += 1;
                clip_grad_norm(&mut store, 5.0);
                opt.step(&mut store);
            }
            crate::common::observe_epoch("pumad", epoch, epoch_loss / batches.max(1) as f64);

            // Refresh the prototype from the reliable set.
            let z_rel = embed.eval(&store, &xu.take_rows(&reliable));
            prototype = mean_row(&z_rel);
        }

        self.fitted = Some(Fitted {
            store,
            embed,
            prototype,
        });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Vec<f64> {
        let f = self.fitted.as_ref().expect("PUMAD: score before fit");
        let proto = &f.prototype;
        self.engine.with(|e| {
            e.score(&[(&f.embed, &f.store)], x, &self.runtime, |_, z| {
                z.iter().zip(proto).map(|(&a, &b)| (a - b) * (a - b)).sum()
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
    fn score_reference(model: &Pumad, x: &Matrix) -> Vec<f64> {
        let f = model.fitted.as_ref().expect("PUMAD: score before fit");
        let z = f.embed.eval(&f.store, x);
        (0..z.rows())
            .map(|r| z.row_sq_dist(r, &f.prototype))
            .collect()
    }

    #[test]
    fn engine_scores_match_the_whole_batch_reference() {
        assert_engine_matches_reference(
            |rt| {
                let mut m = Pumad::default().with_runtime(rt);
                m.epochs = 3;
                m
            },
            score_reference,
        );
    }

    #[test]
    fn metric_learning_detects_anomalies() {
        let bundle = GeneratorSpec::quick_demo().generate(7);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = Pumad::default();
        model.fit(&view, 1).unwrap();
        let scores = model.score(&bundle.test.features);
        let roc = auroc(&scores, &bundle.test.anomaly_labels());
        assert!(roc > 0.6, "anomaly AUROC {roc}");
        // The labeled guidance should make *target* anomalies rank well.
        let troc = auroc(&scores, &bundle.test.target_labels());
        assert!(troc > 0.6, "target AUROC {troc}");
    }

    #[test]
    fn labeled_anomalies_are_pushed_past_reliable_normals() {
        let bundle = GeneratorSpec::quick_demo().generate(62);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = Pumad::default();
        model.fit(&view, 2).unwrap();
        let d_anom = model.score(&view.labeled);
        let d_norm = model.score(&view.unlabeled);
        let mean_a = d_anom.iter().sum::<f64>() / d_anom.len() as f64;
        let mean_n = d_norm.iter().sum::<f64>() / d_norm.len() as f64;
        assert!(
            mean_a > mean_n,
            "anomaly dist {mean_a} vs unlabeled {mean_n}"
        );
    }
}
