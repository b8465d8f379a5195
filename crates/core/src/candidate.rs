//! Candidate selection (§III-B1, Lines 1–7 of Algorithm 1).
//!
//! The unlabeled data `D_U` is clustered with k-means; each cluster trains
//! its own autoencoder with the DeepSAD-modified loss
//!
//! ```text
//! L_AE_i = mean_{x ∈ D_Ui} ‖x − φ_D(φ_E(x))‖²
//!        + η · mean_{x ∈ D_L} (‖x − φ_D(φ_E(x))‖²)⁻¹           (Eq. 1)
//! ```
//!
//! so labeled target anomalies are pushed toward *high* reconstruction
//! error. All unlabeled instances are then ranked by reconstruction error
//! (Eq. 2); the top `α%` become the non-target anomaly candidate set
//! `D_U^A`, the rest the normal candidate set `D_U^N`.

use targad_autograd::VarStore;
use targad_cluster::{choose_k_elbow, KMeans, KMeansConfig};
use targad_linalg::{rng as lrng, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{shuffled_batches, Adam, AutoEncoder, EngineCell, Optimizer, ShardedStep};
use targad_runtime::Runtime;

use crate::config::TargAdConfig;

/// Maximum rows used when running the elbow method (k-means over the full
/// unlabeled set once per candidate k would dominate runtime at paper
/// scale; inertia curves stabilize long before this subsample size).
const ELBOW_SUBSAMPLE: usize = 2_000;

/// One trained per-cluster autoencoder with its parameters.
pub struct ClusterAutoEncoder {
    store: VarStore,
    ae: AutoEncoder,
    /// Pooled inference engine for the frozen Eq. 2 forward pass.
    engine: EngineCell,
    /// Mean Eq. 1 loss per epoch (diagnostics).
    pub loss_history: Vec<f64>,
}

impl ClusterAutoEncoder {
    /// Squared reconstruction errors (Eq. 2) for each row of `x`, through
    /// the pooled `ScoreEngine` on `rt`: the encoder–decoder chain runs as
    /// one fused block-streamed pipeline and each reconstruction row
    /// reduces to its squared error in place. Bit-identical at any worker
    /// count to `(reconstruct_eval(x) − x).row_sq_norms()` (unit-tested):
    /// the engine reproduces the exact reconstruction chains, and the
    /// per-row finish accumulates `(x̂_j − x_j)²` in the same ascending-`j`
    /// order (each `d_j` round-trips through an f64 exactly).
    pub fn recon_errors_rt(&self, x: &Matrix, rt: &Runtime) -> Vec<f64> {
        let stack = [
            (self.ae.encoder(), &self.store),
            (self.ae.decoder(), &self.store),
        ];
        self.engine.with(|e| {
            e.score(&stack, x, rt, |r, xhat| {
                x.row(r)
                    .iter()
                    .zip(xhat)
                    .map(|(&xv, &hv)| {
                        let d = hv - xv;
                        d * d
                    })
                    .sum()
            })
        })
    }

    /// The underlying autoencoder.
    pub fn autoencoder(&self) -> &AutoEncoder {
        &self.ae
    }
}

/// Output of candidate selection over the unlabeled view `D_U`.
pub struct CandidateSelection {
    /// Number of clusters `k` actually used.
    pub k: usize,
    /// Cluster index per unlabeled row.
    pub cluster_of: Vec<usize>,
    /// Reconstruction error (Eq. 2) per unlabeled row.
    pub recon_errors: Vec<f64>,
    /// Rows (indices into the unlabeled view) selected as non-target
    /// anomaly candidates `D_U^A`.
    pub anomaly_candidates: Vec<usize>,
    /// Rows selected as normal candidates `D_U^N`.
    pub normal_candidates: Vec<usize>,
    /// The per-cluster autoencoders (kept for scoring/diagnostics).
    pub autoencoders: Vec<ClusterAutoEncoder>,
}

impl CandidateSelection {
    /// Runs candidate selection on the unlabeled features `xu` using the
    /// labeled target anomalies `xl`, on [`Runtime::from_env`].
    pub fn run(xu: &Matrix, xl: &Matrix, config: &TargAdConfig, seed: u64) -> Self {
        Self::run_rt(xu, xl, config, seed, &Runtime::from_env())
    }

    /// [`CandidateSelection::run`] on an explicit [`Runtime`]: autoencoder
    /// training steps shard across `rt`'s workers, bit-identical to serial
    /// execution at any worker count.
    pub fn run_rt(
        xu: &Matrix,
        xl: &Matrix,
        config: &TargAdConfig,
        seed: u64,
        rt: &Runtime,
    ) -> Self {
        let _select_span = targad_obs::span(&targad_obs::profile::PHASE_SELECT);
        let (k, km) = {
            let _kmeans_span = targad_obs::span(&targad_obs::profile::PHASE_SELECT_KMEANS);
            let k = match config.k {
                Some(k) => k.min(xu.rows()),
                None => {
                    let (lo, hi) = config.elbow_range;
                    let sub = elbow_subsample(xu, seed);
                    let hi = hi.min(sub.rows());
                    let (k, _) = choose_k_elbow(&sub, lo.min(hi), hi, seed);
                    k
                }
            };
            (k, KMeans::fit(xu, KMeansConfig::new(k), seed ^ 0xC1D2))
        };
        let cluster_of = km.assignments().to_vec();
        let members = km.cluster_members();

        // Train one AE per cluster — in parallel, as in the paper.
        let _ae_span = targad_obs::span(&targad_obs::profile::PHASE_SELECT_AE);
        let mut autoencoders: Vec<Option<ClusterAutoEncoder>> = (0..k).map(|_| None).collect();
        let jobs: Vec<(usize, Matrix)> = members
            .iter()
            .enumerate()
            .map(|(c, m)| (c, xu.take_rows(m)))
            .collect();
        if config.parallel_aes && k > 1 {
            let results = std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .map(|(c, data)| {
                        let c = *c;
                        scope.spawn(move || {
                            (
                                c,
                                train_cluster_ae(
                                    data,
                                    xl,
                                    config,
                                    seed ^ ((c as u64 + 1) * 0x9E3779B9),
                                    rt,
                                ),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("AE thread panicked"))
                    .collect::<Vec<_>>()
            });
            for (c, ae) in results {
                autoencoders[c] = Some(ae);
            }
        } else {
            for (c, data) in &jobs {
                autoencoders[*c] = Some(train_cluster_ae(
                    data,
                    xl,
                    config,
                    seed ^ ((*c as u64 + 1) * 0x9E3779B9),
                    rt,
                ));
            }
        }
        let autoencoders: Vec<ClusterAutoEncoder> = autoencoders
            .into_iter()
            .map(|a| a.expect("every cluster trained"))
            .collect();

        drop(_ae_span);

        // Reconstruction errors per unlabeled row, via that row's cluster AE.
        let _rank_span = targad_obs::span(&targad_obs::profile::PHASE_SELECT_RANK);
        let mut recon_errors = vec![0.0; xu.rows()];
        for (c, member_rows) in members.iter().enumerate() {
            if member_rows.is_empty() {
                continue;
            }
            let errs = autoencoders[c].recon_errors_rt(&xu.take_rows(member_rows), rt);
            for (&row, err) in member_rows.iter().zip(errs) {
                recon_errors[row] = err;
            }
        }

        // Rank descending; top α% are non-target anomaly candidates.
        let mut order: Vec<usize> = (0..xu.rows()).collect();
        order.sort_by(|&a, &b| {
            recon_errors[b]
                .partial_cmp(&recon_errors[a])
                .expect("NaN reconstruction error")
        });
        let n_anom = ((config.alpha * xu.rows() as f64).round() as usize).clamp(1, xu.rows() - 1);
        let anomaly_candidates: Vec<usize> = order[..n_anom].to_vec();
        let normal_candidates: Vec<usize> = order[n_anom..].to_vec();

        Self {
            k,
            cluster_of,
            recon_errors,
            anomaly_candidates,
            normal_candidates,
            autoencoders,
        }
    }
}

fn elbow_subsample(xu: &Matrix, seed: u64) -> Matrix {
    if xu.rows() <= ELBOW_SUBSAMPLE {
        xu.clone()
    } else {
        let mut rng = lrng::seeded(seed ^ 0xE1B0);
        let idx = lrng::sample_indices(&mut rng, xu.rows(), ELBOW_SUBSAMPLE);
        xu.take_rows(&idx)
    }
}

/// Trains the autoencoder of one cluster with the Eq. 1 loss.
///
/// Each mini-batch shards across `rt`'s workers with a fixed partition and
/// fixed-order gradient reduction, so the trained parameters are
/// bit-identical at any worker count. The labeled push-away term (the
/// whole of `D_L`) is a whole-set term: it is built exactly once per step,
/// on the shard whose range starts at row 0.
fn train_cluster_ae(
    data: &Matrix,
    xl: &Matrix,
    config: &TargAdConfig,
    seed: u64,
    rt: &Runtime,
) -> ClusterAutoEncoder {
    let mut rng = lrng::seeded(seed);
    let mut store = VarStore::new();
    let dims = config.ae_dims(data.cols());
    let ae = AutoEncoder::new(&mut store, &mut rng, &dims);
    let mut opt = Adam::new(config.ae_lr);
    let use_labeled = config.eta > 0.0 && xl.rows() > 0;
    let eta = config.eta;
    let mut loss_history = Vec::with_capacity(config.ae_epochs);
    let mut step = ShardedStep::new();

    for _ in 0..config.ae_epochs {
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for batch in shuffled_batches(&mut rng, data.rows(), config.ae_batch) {
            store.zero_grads();
            let n_total = batch.len();
            let loss = step.accumulate(rt, &mut store, n_total, |tape, store, range| {
                let xb = tape.input_rows_from(data, &batch[range.clone()]);
                let err = ae.recon_error_rows(tape, store, xb);
                let term_u = tape.sum_div(err, n_total as f64);
                if use_labeled && range.start == 0 {
                    // Whole D_L each step — it is tiny by construction
                    // (§IV-A: 0.16%–0.48% of the training data).
                    let xl_v = tape.input_from(xl);
                    let err_l = ae.recon_error_rows(tape, store, xl_v);
                    let inv = tape.recip(err_l);
                    let term_l = tape.mean_all(inv);
                    tape.add_scaled(term_u, term_l, eta)
                } else {
                    term_u
                }
            });
            epoch_loss += loss;
            batches += 1;
            clip_grad_norm(&mut store, config.grad_clip);
            opt.step(&mut store);
        }
        loss_history.push(if batches > 0 {
            epoch_loss / batches as f64
        } else {
            0.0
        });
    }

    ClusterAutoEncoder {
        store,
        ae,
        engine: EngineCell::new(),
        loss_history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use targad_data::GeneratorSpec;

    fn small_config() -> TargAdConfig {
        let mut c = TargAdConfig::fast();
        c.ae_epochs = 10;
        c
    }

    #[test]
    fn partitions_unlabeled_data_completely() {
        let bundle = GeneratorSpec::quick_demo().generate(3);
        let (xu, _) = bundle.train.unlabeled_view();
        let (xl, _) = bundle.train.labeled_view();
        let sel = CandidateSelection::run(&xu, &xl, &small_config(), 1);

        let mut all: Vec<usize> = sel
            .anomaly_candidates
            .iter()
            .chain(&sel.normal_candidates)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..xu.rows()).collect::<Vec<_>>());
        assert_eq!(sel.cluster_of.len(), xu.rows());
        assert_eq!(sel.recon_errors.len(), xu.rows());
        assert_eq!(sel.autoencoders.len(), sel.k);
    }

    #[test]
    fn candidate_count_matches_alpha() {
        let bundle = GeneratorSpec::quick_demo().generate(4);
        let (xu, _) = bundle.train.unlabeled_view();
        let (xl, _) = bundle.train.labeled_view();
        let mut config = small_config();
        config.alpha = 0.10;
        let sel = CandidateSelection::run(&xu, &xl, &config, 2);
        let expected = (0.10 * xu.rows() as f64).round() as usize;
        assert_eq!(sel.anomaly_candidates.len(), expected);
    }

    #[test]
    fn candidates_have_the_largest_errors() {
        let bundle = GeneratorSpec::quick_demo().generate(5);
        let (xu, _) = bundle.train.unlabeled_view();
        let (xl, _) = bundle.train.labeled_view();
        let sel = CandidateSelection::run(&xu, &xl, &small_config(), 3);
        let min_candidate = sel
            .anomaly_candidates
            .iter()
            .map(|&i| sel.recon_errors[i])
            .fold(f64::INFINITY, f64::min);
        let max_normal = sel
            .normal_candidates
            .iter()
            .map(|&i| sel.recon_errors[i])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(min_candidate >= max_normal);
    }

    #[test]
    fn selection_enriches_anomalies() {
        // The candidate set must hold a far higher anomaly fraction than the
        // unlabeled pool at large — the property the detection phase relies
        // on.
        let bundle = GeneratorSpec::quick_demo().generate(6);
        let (xu, u_idx) = bundle.train.unlabeled_view();
        let (xl, _) = bundle.train.labeled_view();
        let sel = CandidateSelection::run(&xu, &xl, &small_config(), 4);

        let is_anom = |view_row: usize| bundle.train.truth[u_idx[view_row]].is_anomaly();
        let cand_frac = sel
            .anomaly_candidates
            .iter()
            .filter(|&&i| is_anom(i))
            .count() as f64
            / sel.anomaly_candidates.len() as f64;
        let base_frac = (0..xu.rows()).filter(|&i| is_anom(i)).count() as f64 / xu.rows() as f64;
        assert!(
            cand_frac > 2.0 * base_frac,
            "candidates {cand_frac:.3} vs base rate {base_frac:.3}"
        );
    }

    #[test]
    fn serial_and_parallel_training_agree() {
        let bundle = GeneratorSpec::quick_demo().generate(7);
        let (xu, _) = bundle.train.unlabeled_view();
        let (xl, _) = bundle.train.labeled_view();
        let mut config = small_config();
        config.parallel_aes = false;
        let serial = CandidateSelection::run(&xu, &xl, &config, 5);
        config.parallel_aes = true;
        let parallel = CandidateSelection::run(&xu, &xl, &config, 5);
        // Same seeds per cluster → identical errors regardless of threading.
        assert_eq!(serial.recon_errors, parallel.recon_errors);
        assert_eq!(serial.anomaly_candidates, parallel.anomaly_candidates);
    }

    #[test]
    fn engine_recon_errors_match_the_materialized_difference() {
        let bundle = GeneratorSpec::quick_demo().generate(9);
        let (xu, _) = bundle.train.unlabeled_view();
        let (xl, _) = bundle.train.labeled_view();
        let sel = CandidateSelection::run(&xu, &xl, &small_config(), 7);
        // Several engine row blocks, the last one ragged.
        let mut rng = lrng::seeded(10);
        let x = lrng::uniform_matrix(
            &mut rng,
            2 * targad_nn::INFER_BLOCK_ROWS + 37,
            xu.cols(),
            0.0,
            1.0,
        );
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for cae in &sel.autoencoders {
            let want = (&cae.ae.reconstruct_eval(&cae.store, &x) - &x).row_sq_norms();
            for workers in [1, 2, 7] {
                let got = cae.recon_errors_rt(&x, &Runtime::new(workers));
                assert_eq!(bits(&got), bits(&want), "workers = {workers}");
            }
        }
    }

    #[test]
    fn elbow_path_runs_when_k_unset() {
        let bundle = GeneratorSpec::quick_demo().generate(8);
        let (xu, _) = bundle.train.unlabeled_view();
        let (xl, _) = bundle.train.labeled_view();
        let mut config = small_config();
        config.k = None;
        config.elbow_range = (1, 4);
        let sel = CandidateSelection::run(&xu, &xl, &config, 6);
        assert!((1..=4).contains(&sel.k));
    }
}
