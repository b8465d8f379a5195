//! The determinism contract of the parallel runtime, checked end to end:
//! every parallel code path must produce bit-identical results at any
//! worker count. Worker counts {1, 2, 7} cover the serial path, an even
//! split, and a ragged split with more workers than some inputs have rows.

use targad_baselines::{DeepSad, IForest, TrainView};
use targad_bench::{harness_config, run_suite_rt};
use targad_core::{Detector, Runtime, TargAd, TargAdConfig};
use targad_data::GeneratorSpec;

const WORKERS: [usize; 3] = [1, 2, 7];

/// An iForest built and scored in parallel matches the serial build
/// bit for bit (per-tree RNG streams are derived from the fit seed, not
/// from the partition).
#[test]
fn iforest_is_worker_count_invariant() {
    let bundle = GeneratorSpec::quick_demo().generate(17);
    let view = TrainView::from_dataset(&bundle.train);
    let serial = {
        let mut f = IForest::new(50, 64).with_runtime(Runtime::serial());
        f.fit(&view, 5).unwrap();
        f.score(&bundle.test.features)
    };
    for workers in WORKERS {
        let mut f = IForest::new(50, 64).with_runtime(Runtime::new(workers));
        f.fit(&view, 5).unwrap();
        assert_eq!(
            f.score(&bundle.test.features),
            serial,
            "workers = {workers}"
        );
    }
}

/// TargAD scoring through the runtime-parallel forward pass is
/// bit-identical at any worker count.
#[test]
fn targad_scores_are_worker_count_invariant() {
    let bundle = GeneratorSpec::quick_demo().generate(23);
    let mut cfg = TargAdConfig::fast();
    cfg.ae_epochs = 3;
    cfg.clf_epochs = 4;
    let serial = {
        let mut model = TargAd::try_new(cfg.clone())
            .expect("valid config")
            .with_runtime(Runtime::serial());
        model.fit(&bundle.train, 9).expect("fit");
        model.try_score_dataset(&bundle.test).expect("fitted")
    };
    for workers in WORKERS {
        let mut model = TargAd::try_new(cfg.clone())
            .expect("valid config")
            .with_runtime(Runtime::new(workers));
        model.fit(&bundle.train, 9).expect("fit");
        let scores = model.try_score_dataset(&bundle.test).expect("fitted");
        assert_eq!(scores, serial, "workers = {workers}");
    }
}

/// The pooled-tape training path produces bit-identical per-epoch losses
/// (AE and classifier) at every worker count: buffer recycling replays the
/// same floating-point operations in the same order regardless of how
/// scoring work is partitioned.
#[test]
fn pooled_tape_training_losses_are_worker_count_invariant() {
    let bundle = GeneratorSpec::quick_demo().generate(41);
    let mut cfg = TargAdConfig::fast();
    cfg.ae_epochs = 3;
    cfg.clf_epochs = 4;
    let serial = {
        let mut model = TargAd::try_new(cfg.clone())
            .expect("valid config")
            .with_runtime(Runtime::serial());
        model.fit(&bundle.train, 13).expect("fit");
        model.history().clone()
    };
    assert!(!serial.clf_loss.is_empty());
    for workers in WORKERS {
        let mut model = TargAd::try_new(cfg.clone())
            .expect("valid config")
            .with_runtime(Runtime::new(workers));
        model.fit(&bundle.train, 13).expect("fit");
        let history = model.history();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&history.clf_loss),
            bits(&serial.clf_loss),
            "clf losses diverged at workers = {workers}"
        );
        assert_eq!(
            bits(&history.ae_loss),
            bits(&serial.ae_loss),
            "AE losses diverged at workers = {workers}"
        );
    }
}

/// The trained classifier itself — not just its loss trace — is
/// bit-identical at every worker count: each step's shard gradients land in
/// disjoint buffers and are reduced in fixed shard order before the single
/// optimizer apply, so the whole parameter trajectory is worker-count-free.
#[test]
fn targad_trained_weights_are_worker_count_invariant() {
    let bundle = GeneratorSpec::quick_demo().generate(47);
    let mut cfg = TargAdConfig::fast();
    cfg.ae_epochs = 2;
    cfg.clf_epochs = 3;
    let serial = {
        let mut model = TargAd::try_new(cfg.clone())
            .expect("valid config")
            .with_runtime(Runtime::serial());
        model.fit(&bundle.train, 29).expect("fit");
        model.classifier().expect("fitted").parameter_matrices()
    };
    assert!(!serial.is_empty());
    for workers in WORKERS {
        let mut model = TargAd::try_new(cfg.clone())
            .expect("valid config")
            .with_runtime(Runtime::new(workers));
        model.fit(&bundle.train, 29).expect("fit");
        let params = model.classifier().expect("fitted").parameter_matrices();
        assert_eq!(params.len(), serial.len());
        for (i, (p, s)) in params.iter().zip(&serial).enumerate() {
            let bits = |m: &targad_linalg::Matrix| {
                m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(
                bits(p),
                bits(s),
                "parameter {i} diverged at workers = {workers}"
            );
        }
    }
}

/// A sharded baseline trains to the same model at every worker count —
/// DeepSAD stands in for the eleven converted epoch loops.
#[test]
fn deepsad_fit_is_worker_count_invariant() {
    let bundle = GeneratorSpec::quick_demo().generate(53);
    let view = TrainView::from_dataset(&bundle.train);
    let build = || {
        let mut m = DeepSad::default();
        m.pretrain_epochs = 3;
        m.epochs = 4;
        m
    };
    let serial = {
        let mut m = build().with_runtime(Runtime::serial());
        m.fit(&view, 19).unwrap();
        m.score(&bundle.test.features)
    };
    for workers in WORKERS {
        let mut m = build().with_runtime(Runtime::new(workers));
        m.fit(&view, 19).unwrap();
        let scores = m.score(&bundle.test.features);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scores), bits(&serial), "workers = {workers}");
    }
}

/// The full Table II grid is independent of the suite runtime (and hence
/// of `TARGAD_THREADS`): every `(model, seed)` cell depends only on the
/// model and the seed.
#[test]
fn run_suite_is_worker_count_invariant() {
    let mut spec = GeneratorSpec::quick_demo();
    spec.train_unlabeled = 150;
    spec.test_counts.normal = 60;
    let bundle = spec.generate(31);
    let mut cfg = harness_config(spec.normal_groups);
    cfg.ae_epochs = 2;
    cfg.clf_epochs = 3;
    let seeds = [1u64];

    let serial = run_suite_rt(&bundle, &cfg, &seeds, Runtime::serial());
    for workers in [2usize, 7] {
        let par = run_suite_rt(&bundle, &cfg, &seeds, Runtime::new(workers));
        assert_eq!(par.len(), serial.len());
        for (p, s) in par.iter().zip(&serial) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.auprc.mean.to_bits(), s.auprc.mean.to_bits(), "{}", p.name);
            assert_eq!(p.auroc.mean.to_bits(), s.auroc.mean.to_bits(), "{}", p.name);
        }
    }
}
