//! DPLAN (Pang et al., KDD 2021) — deep reinforcement learning from
//! partially labeled anomaly data.
//!
//! A DQN agent observes one instance at a time and chooses between
//! `a₀ = "normal"` and `a₁ = "anomaly"`. The extrinsic reward comes from
//! the labeled anomalies (`+1` for flagging one, `−1` for missing one);
//! unlabeled instances provide an intrinsic, unsupervised reward from an
//! isolation-forest score so the agent can extend the learned anomaly
//! patterns to unseen anomalies. Standard DQN machinery: ε-greedy
//! exploration with decay, a replay buffer, and a periodically synced
//! target network. The anomaly score is `Q(x, a₁)`.
//!
//! Simplification vs the original: the environment's next-observation
//! sampler is uniform over the pools rather than distance-biased toward
//! the current observation.

use rand::rngs::StdRng;
use rand::RngExt;
use targad_autograd::VarStore;
use targad_linalg::{rng as lrng, stats, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{Activation, Adam, EngineCell, Mlp, Optimizer, ShardedStep};
use targad_runtime::Runtime;

use crate::iforest::IForest;
use crate::{Detector, TargAdError, TrainView};

/// DPLAN with compact defaults.
pub struct Dplan {
    /// Total environment steps.
    pub steps: usize,
    /// Replay buffer capacity.
    pub buffer_capacity: usize,
    /// DQN minibatch size.
    pub batch: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// Target-network sync interval (steps).
    pub sync_every: usize,
    /// Initial exploration rate (linearly decayed to 0.05).
    pub epsilon_start: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Probability of sampling the next observation from the labeled pool.
    pub labeled_sample_prob: f64,
    runtime: Runtime,
    fitted: Option<Fitted>,
    /// Pooled inference engine shared by every scoring call (and every
    /// per-epoch probe trace) of this detector.
    engine: EngineCell,
}

struct Fitted {
    store: VarStore,
    qnet: Mlp,
}

struct Transition {
    state: Vec<f64>,
    action: usize,
    reward: f64,
    next_state: Vec<f64>,
}

impl Default for Dplan {
    fn default() -> Self {
        Self {
            steps: 1500,
            buffer_capacity: 2000,
            batch: 64,
            gamma: 0.9,
            sync_every: 100,
            epsilon_start: 1.0,
            lr: 1e-3,
            labeled_sample_prob: 0.5,
            runtime: Runtime::from_env(),
            fitted: None,
            engine: EngineCell::new(),
        }
    }
}

impl Dplan {
    /// Replaces the execution runtime. Training shards deterministically,
    /// so the fitted model is bit-identical at any worker count.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }
}

impl Detector for Dplan {
    fn name(&self) -> &'static str {
        "DPLAN"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        let xu = &train.unlabeled;
        let xl = &train.labeled;
        let mut rng = lrng::seeded(seed);

        // Intrinsic reward: normalized isolation scores for unlabeled data.
        let mut forest = IForest::default();
        forest.fit(train, seed ^ 0xD91A)?;
        let iso_raw = forest.score(xu);
        let (lo, hi) = (stats::min(&iso_raw), stats::max(&iso_raw));
        let iso: Vec<f64> = iso_raw
            .iter()
            .map(|&v| stats::min_max_scale(v, lo, hi))
            .collect();

        let mut store = VarStore::new();
        let qnet = Mlp::new(
            &mut store,
            &mut rng,
            &[train.dims(), 64, 2],
            Activation::Relu,
            Activation::None,
        );
        let mut target_store = store.clone();
        let mut opt = Adam::new(self.lr);
        let mut buffer: Vec<Transition> = Vec::with_capacity(self.buffer_capacity);
        let mut buffer_pos = 0usize;

        // (is_labeled, index) observation sampler.
        let sample_obs = |rng: &mut StdRng, prob_labeled: f64| -> (bool, usize) {
            if xl.rows() > 0 && rng.random::<f64>() < prob_labeled {
                (true, rng.random_range(0..xl.rows()))
            } else {
                (false, rng.random_range(0..xu.rows()))
            }
        };

        let (mut cur_labeled, mut cur_idx) = sample_obs(&mut rng, self.labeled_sample_prob);
        let rt = self.runtime;
        let mut sharded = ShardedStep::new();
        for step in 0..self.steps {
            let epsilon =
                (self.epsilon_start * (1.0 - step as f64 / (self.steps as f64 * 0.8))).max(0.05);
            let state: Vec<f64> = if cur_labeled {
                xl.row(cur_idx).to_vec()
            } else {
                xu.row(cur_idx).to_vec()
            };

            let action = if rng.random::<f64>() < epsilon {
                rng.random_range(0..2)
            } else {
                let q = qnet.eval(&store, &Matrix::row_vector(&state));
                q.argmax_row(0)
            };

            // Reward: extrinsic from labels, intrinsic from iForest.
            let reward = if cur_labeled {
                if action == 1 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                let intrinsic = iso[cur_idx];
                if action == 1 {
                    intrinsic - 0.5
                } else {
                    0.5 - intrinsic
                }
            };

            let (next_labeled, next_idx) = sample_obs(&mut rng, self.labeled_sample_prob);
            let next_state: Vec<f64> = if next_labeled {
                xl.row(next_idx).to_vec()
            } else {
                xu.row(next_idx).to_vec()
            };

            let t = Transition {
                state,
                action,
                reward,
                next_state: next_state.clone(),
            };
            if buffer.len() < self.buffer_capacity {
                buffer.push(t);
            } else {
                buffer[buffer_pos] = t;
                buffer_pos = (buffer_pos + 1) % self.buffer_capacity;
            }
            cur_labeled = next_labeled;
            cur_idx = next_idx;

            // Learn from a replay minibatch.
            if buffer.len() >= self.batch {
                let idx: Vec<usize> = (0..self.batch)
                    .map(|_| rng.random_range(0..buffer.len()))
                    .collect();
                let states = Matrix::from_rows(
                    &idx.iter()
                        .map(|&i| buffer[i].state.clone())
                        .collect::<Vec<_>>(),
                );
                let next_states = Matrix::from_rows(
                    &idx.iter()
                        .map(|&i| buffer[i].next_state.clone())
                        .collect::<Vec<_>>(),
                );
                // Bellman targets from the frozen network.
                let q_next = qnet.eval(&target_store, &next_states);
                let q_now = qnet.eval(&store, &states);
                let mut target = q_now.clone();
                for (row, &i) in idx.iter().enumerate() {
                    let max_next = q_next.max_row(row);
                    target[(row, buffer[i].action)] = buffer[i].reward + self.gamma * max_next;
                }

                store.zero_grads();
                let n = idx.len();
                let qnet = &qnet;
                let (states, target) = (&states, &target);
                let td_loss = sharded.accumulate(&rt, &mut store, n, |tape, store, range| {
                    let sb = tape.input_row_slice_from(states, range.start, range.end);
                    let tb = tape.input_row_slice_from(target, range.start, range.end);
                    let q = qnet.forward(tape, store, sb);
                    // MSE partial over the full batch: the serial `mse`
                    // averages over rows*cols (2 Q-values per row).
                    let diff = tape.sub(q, tb);
                    let sq = tape.square(diff);
                    tape.sum_div(sq, (n * 2) as f64)
                });
                clip_grad_norm(&mut store, 5.0);
                opt.step(&mut store);
                // DPLAN has no epoch notion; report the TD loss once per
                // target-network sync instead.
                if (step + 1) % self.sync_every == 0 {
                    crate::common::observe_epoch("dplan", step + 1, td_loss);
                }
            }

            if (step + 1) % self.sync_every == 0 {
                target_store = store.clone();
            }
        }

        self.fitted = Some(Fitted { store, qnet });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Vec<f64> {
        let f = self.fitted.as_ref().expect("DPLAN: score before fit");
        self.engine
            .with(|e| e.score(&[(&f.qnet, &f.store)], x, &self.runtime, |_, q| q[1] - q[0]))
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
    fn score_reference(model: &Dplan, x: &Matrix) -> Vec<f64> {
        let f = model.fitted.as_ref().expect("DPLAN: score before fit");
        let q = f.qnet.eval(&f.store, x);
        (0..q.rows()).map(|r| q[(r, 1)] - q[(r, 0)]).collect()
    }

    #[test]
    fn engine_scores_match_the_whole_batch_reference() {
        assert_engine_matches_reference(
            |rt| {
                let mut m = Dplan::default().with_runtime(rt);
                m.steps = 40;
                m
            },
            score_reference,
        );
    }

    #[test]
    fn agent_learns_to_flag_anomalies() {
        let bundle = GeneratorSpec::quick_demo().generate(71);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = Dplan::default();
        model.fit(&view, 1).unwrap();
        let scores = model.score(&bundle.test.features);
        let roc = auroc(&scores, &bundle.test.anomaly_labels());
        assert!(roc > 0.7, "anomaly AUROC {roc}");
    }

    #[test]
    fn labeled_anomalies_get_positive_advantage() {
        let bundle = GeneratorSpec::quick_demo().generate(72);
        let view = TrainView::from_dataset(&bundle.train);
        let mut model = Dplan::default();
        model.fit(&view, 2).unwrap();
        let adv = model.score(&view.labeled);
        let mean_adv = adv.iter().sum::<f64>() / adv.len() as f64;
        assert!(mean_adv > 0.0, "mean advantage {mean_adv}");
    }
}
