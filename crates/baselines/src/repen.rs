//! REPEN (Pang et al., KDD 2018) — learning low-dimensional
//! representations tailored for random-distance-based outlier detection
//! (an instantiation of the RAMODO framework).
//!
//! A LeSiNN-style ensemble seeds initial outlierness; the top-scored
//! instances form an outlier candidate pool and the bottom-scored an inlier
//! pool. A linear embedding is trained with a triplet ranking loss
//! `max(0, margin + d(anchor, inlier) − d(anchor, outlier))`, and the final
//! score is the LeSiNN ensemble distance recomputed in the learned space.
//!
//! Simplification vs the original: the candidate pools are seeded by
//! LeSiNN only (the original supports several seed detectors).

use rand::rngs::StdRng;
use rand::RngExt;
use targad_autograd::VarStore;
use targad_linalg::{rng as lrng, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{Activation, Adam, EngineCell, Mlp, Optimizer, ShardedStep};
use targad_runtime::Runtime;

use crate::common::{largest_indices, lesinn_scores, smallest_indices};
use crate::{Detector, TargAdError, TrainView};

/// REPEN with the defaults used in the reproduction.
pub struct Repen {
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Triplet training steps.
    pub steps: usize,
    /// Triplets per step.
    pub batch_triplets: usize,
    /// Hinge margin.
    pub margin: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Fraction of instances used as outlier candidates.
    pub candidate_frac: f64,
    /// LeSiNN ensemble members / subsample size.
    pub ensembles: usize,
    /// LeSiNN subsample size.
    pub psi: usize,
    runtime: Runtime,
    fitted: Option<Fitted>,
    /// Pooled inference engine shared by every scoring call (and every
    /// per-epoch probe trace) of this detector.
    engine: EngineCell,
}

struct Fitted {
    store: VarStore,
    embed: Mlp,
    reference: Matrix,
}

impl Default for Repen {
    fn default() -> Self {
        Self {
            embed_dim: 20,
            steps: 300,
            batch_triplets: 64,
            margin: 1.0,
            lr: 1e-3,
            candidate_frac: 0.05,
            ensembles: 20,
            psi: 16,
            runtime: Runtime::from_env(),
            fitted: None,
            engine: EngineCell::new(),
        }
    }
}

impl Repen {
    /// Replaces the execution runtime. Training shards deterministically,
    /// so the fitted model is bit-identical at any worker count.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }
}

impl Detector for Repen {
    fn name(&self) -> &'static str {
        "REPEN"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        let xu = &train.unlabeled;
        let mut rng = lrng::seeded(seed);

        // Seed outlierness and build candidate pools.
        let init = lesinn_scores(xu, xu, self.ensembles, self.psi, &mut rng);
        let n_out =
            ((xu.rows() as f64 * self.candidate_frac).round() as usize).clamp(2, xu.rows() / 2);
        let outliers = largest_indices(&init, n_out);
        let inliers = smallest_indices(&init, xu.rows() - n_out);

        let mut store = VarStore::new();
        let embed = Mlp::new(
            &mut store,
            &mut rng,
            &[train.dims(), self.embed_dim],
            Activation::None,
            Activation::Relu,
        );
        let mut opt = Adam::new(self.lr);

        let rt = self.runtime;
        let margin = self.margin;
        let mut step = ShardedStep::new();
        for train_step in 0..self.steps {
            // Triplets are sampled up front; shards slice all three
            // matrices by the same row range.
            let (anchors, positives, negatives) =
                self.triplet_batch(xu, &inliers, &outliers, &mut rng);
            store.zero_grads();
            let nt = anchors.rows();
            let embed = &embed;
            let (anchors, positives, negatives) = (&anchors, &positives, &negatives);
            let loss = step.accumulate(&rt, &mut store, nt, |tape, store, range| {
                let a = tape.input_row_slice_from(anchors, range.start, range.end);
                let p = tape.input_row_slice_from(positives, range.start, range.end);
                let n = tape.input_row_slice_from(negatives, range.start, range.end);
                let za = embed.forward(tape, store, a);
                let zp = embed.forward(tape, store, p);
                let zn = embed.forward(tape, store, n);
                let dp = tape.sub(za, zp);
                let dp = tape.row_sq_norm(dp);
                let dn = tape.sub(za, zn);
                let dn = tape.row_sq_norm(dn);
                let diff = tape.sub(dp, dn);
                let shifted = tape.add_scalar(diff, margin);
                let hinge = tape.relu(shifted);
                tape.sum_div(hinge, nt as f64)
            });
            clip_grad_norm(&mut store, 5.0);
            opt.step(&mut store);
            crate::common::observe_epoch("repen", train_step, loss);
        }

        self.fitted = Some(Fitted {
            store,
            embed,
            reference: xu.clone(),
        });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Vec<f64> {
        let f = self.fitted.as_ref().expect("REPEN: score before fit");
        let d = f.embed.out_dim();
        let mut zx = Matrix::zeros(x.rows(), d);
        let mut zref = Matrix::zeros(f.reference.rows(), d);
        self.engine.with(|e| {
            e.forward_into(&[(&f.embed, &f.store)], x, &self.runtime, &mut zx);
            e.forward_into(
                &[(&f.embed, &f.store)],
                &f.reference,
                &self.runtime,
                &mut zref,
            );
        });
        // Deterministic scoring RNG: the ensemble is part of the model.
        let mut rng = lrng::seeded(0x5EED_5EED);
        lesinn_scores(&zx, &zref, self.ensembles, self.psi, &mut rng)
    }
}

impl Repen {
    fn triplet_batch(
        &self,
        xu: &Matrix,
        inliers: &[usize],
        outliers: &[usize],
        rng: &mut StdRng,
    ) -> (Matrix, Matrix, Matrix) {
        let pick = |pool: &[usize], rng: &mut StdRng| pool[rng.random_range(0..pool.len())];
        let mut a = Vec::with_capacity(self.batch_triplets);
        let mut p = Vec::with_capacity(self.batch_triplets);
        let mut n = Vec::with_capacity(self.batch_triplets);
        for _ in 0..self.batch_triplets {
            a.push(pick(inliers, rng));
            p.push(pick(inliers, rng));
            n.push(pick(outliers, rng));
        }
        (xu.take_rows(&a), xu.take_rows(&p), xu.take_rows(&n))
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
    fn score_reference(model: &Repen, x: &Matrix) -> Vec<f64> {
        let f = model.fitted.as_ref().expect("REPEN: score before fit");
        let zx = f.embed.eval(&f.store, x);
        let zref = f.embed.eval(&f.store, &f.reference);
        let mut rng = lrng::seeded(0x5EED_5EED);
        lesinn_scores(&zx, &zref, model.ensembles, model.psi, &mut rng)
    }

    #[test]
    fn engine_scores_match_the_whole_batch_reference() {
        assert_engine_matches_reference(
            |rt| {
                let mut m = Repen::default().with_runtime(rt);
                m.steps = 30;
                m
            },
            score_reference,
        );
    }

    #[test]
    fn unsupervised_detection_beats_chance() {
        let bundle = GeneratorSpec::quick_demo().generate(41);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = Repen::default();
        model.fit(&view, 1).unwrap();
        let scores = model.score(&bundle.test.features);
        let roc = auroc(&scores, &bundle.test.anomaly_labels());
        assert!(roc > 0.7, "anomaly AUROC {roc}");
    }

    #[test]
    fn embedding_separates_candidate_pools() {
        let bundle = GeneratorSpec::quick_demo().generate(42);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = Repen {
            steps: 150,
            ..Repen::default()
        };
        model.fit(&view, 2).unwrap();
        // Anomalous test rows should, on average, sit farther from the
        // embedded reference set than normal rows.
        let scores = model.score(&bundle.test.features);
        let labels = bundle.test.anomaly_labels();
        let mean = |flag: bool| {
            let v: Vec<f64> = scores
                .iter()
                .zip(&labels)
                .filter(|(_, &l)| l == flag)
                .map(|(&s, _)| s)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(true) > mean(false));
    }
}
