//! Integration tests of the §III-C three-way identification across the
//! core, data, and metrics crates, through the verdict-first API.

use targad::metrics::ConfusionMatrix;
use targad::prelude::*;

fn fitted() -> (TargAd, DatasetBundle) {
    let bundle = GeneratorSpec::quick_demo().generate(7);
    let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
    model.fit(&bundle.train, 7).expect("fit succeeds");
    model
        .calibrate_thresholds(&bundle.val.features, &bundle.val.three_way_labels())
        .expect("calibration succeeds");
    (model, bundle)
}

#[test]
fn calibrated_thresholds_generalize_from_val_to_test() {
    let (model, bundle) = fitted();
    for strategy in OodStrategy::all() {
        let verdicts = model
            .try_verdict_matrix(&bundle.test.features, strategy)
            .expect("calibrated");
        let pred = verdicts.three_way_codes();
        let cm = ConfusionMatrix::from_predictions(&bundle.test.three_way_labels(), &pred, 3);
        assert!(
            cm.accuracy() > 0.6,
            "{}: accuracy {:.3} too low",
            strategy.name(),
            cm.accuracy()
        );
        // The normal class must be solid — it dominates the stream.
        assert!(
            cm.class_report(0).recall > 0.8,
            "{}: normal recall",
            strategy.name()
        );
    }
}

#[test]
fn three_way_predictions_partition_the_stream() {
    let (model, bundle) = fitted();
    let verdicts = model
        .try_verdict_matrix(&bundle.test.features, OodStrategy::Msp)
        .expect("calibrated");
    assert_eq!(verdicts.len(), bundle.test.len());
    let pred = verdicts.three_way_codes();
    let counts: Vec<usize> = (0..3)
        .map(|c| pred.iter().filter(|&&p| p == c).count())
        .collect();
    assert_eq!(counts.iter().sum::<usize>(), bundle.test.len());
    // All three routes should be used on a mixed stream.
    assert!(counts[0] > 0 && counts[1] > 0, "{counts:?}");
}

#[test]
fn verdicts_without_calibration_fail_with_a_typed_error() {
    let bundle = GeneratorSpec::quick_demo().generate(7);
    let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
    model.fit(&bundle.train, 7).expect("fit succeeds");
    let err = model
        .try_verdict_matrix(&bundle.test.features, OodStrategy::Msp)
        .expect_err("no thresholds calibrated");
    assert!(
        err.to_string().contains("calibrate_thresholds"),
        "error should point at the fix: {err}"
    );
}

#[test]
fn ood_scores_separate_target_from_non_target_anomalies() {
    // The OOD target-likeness score is only ever consulted *after* the
    // §III-C normality gate (rows whose normal-probability mass is low),
    // so measure separation exactly there — raw logit peakedness (ED) is
    // meaningless for rows the gate already routed to "normal".
    let (model, bundle) = fitted();
    let clf = model.classifier().unwrap();
    let logits = clf.logits(&bundle.test.features);
    let probs = logits.softmax_rows();
    let three = bundle.test.three_way_labels();
    let gated: Vec<usize> = (0..bundle.test.len())
        .filter(|&i| !clf.is_normal_row(probs.row(i)))
        .collect();
    // The strategies are alternatives (Table IV compares them; the paper
    // finds ED best). Require that at least one of them separates target
    // from non-target anomalies among the gated rows, and that all of them
    // produce finite scores.
    let mut any_separates = false;
    for strategy in OodStrategy::all() {
        let scores_of = |code: usize| -> Vec<f64> {
            gated
                .iter()
                .filter(|&&i| three[i] == code)
                .map(|&i| strategy.target_score(logits.row(i), clf.m()))
                .collect()
        };
        let targets = scores_of(1);
        let non_targets = scores_of(2);
        assert!(!targets.is_empty(), "no target anomalies passed the gate");
        assert!(targets.iter().chain(&non_targets).all(|s| s.is_finite()));
        if non_targets.is_empty() {
            // All non-targets were absorbed by the normality gate on this
            // seed; the OOD split has nothing left to separate.
            any_separates = true;
            continue;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        if mean(&targets) > mean(&non_targets) {
            any_separates = true;
        }
    }
    assert!(
        any_separates,
        "no OOD strategy separates target from non-target anomalies"
    );
}
