//! Direct tests of the paper's equations on hand-crafted classifiers.
//!
//! The snapshot format lets us build a [`targad_core::Classifier`] with
//! *chosen* weights, so Eq. 9, the §III-C normality rule, and the OOD
//! target-likeness scores can be verified against hand-computed values
//! rather than through end-to-end training.

use targad_core::{snapshot, OodStrategy, Runtime};
use targad_linalg::Matrix;

/// Builds a linear classifier `z = x·W + b` with `m = 2`, `k = 2` whose
/// weight matrix is the identity: logits equal the 4-dim input.
fn identity_classifier() -> targad_core::Classifier {
    let mut text = String::from("targad-classifier v1\nm 2\nk 2\ndims 4 4\nmatrix 4 4\n");
    for r in 0..4 {
        let row: Vec<String> = (0..4)
            .map(|c| if r == c { "1.0".into() } else { "0.0".into() })
            .collect();
        text.push_str(&row.join(" "));
        text.push('\n');
    }
    text.push_str("matrix 1 4\n0.0 0.0 0.0 0.0\n");
    snapshot::from_string(&text).expect("valid snapshot")
}

#[test]
fn eq9_target_score_is_max_over_first_m_probabilities() {
    let clf = identity_classifier();
    // logits = input; softmax of [2, 0, 0, 0] puts most mass on dim 0.
    let x = Matrix::from_rows(&[vec![2.0, 0.0, 0.0, 0.0], vec![0.0, 0.0, 3.0, 0.0]]);
    let scores = clf.target_scores_rt(&x, &Runtime::serial());

    // Hand-computed softmax values.
    let s0: f64 = {
        let e: Vec<f64> = [2.0, 0.0, 0.0, 0.0].iter().map(|v: &f64| v.exp()).collect();
        let z: f64 = e.iter().sum();
        (e[0] / z).max(e[1] / z)
    };
    assert!((scores[0] - s0).abs() < 1e-12);
    // Row 1 concentrates on a normal dim: target score = max of two small
    // equal probabilities.
    let s1: f64 = {
        let e: Vec<f64> = [0.0, 0.0, 3.0, 0.0].iter().map(|v: &f64| v.exp()).collect();
        let z: f64 = e.iter().sum();
        e[0] / z
    };
    assert!((scores[1] - s1).abs() < 1e-12);
    assert!(scores[0] > scores[1]);
}

#[test]
fn normality_rule_threshold_is_k_over_m_plus_k() {
    let clf = identity_classifier();
    // With m = k = 2 the rule is: normal iff Σ_{j>m} p_j > 1/2.
    assert!(clf.is_normal_row(&[0.2, 0.2, 0.3, 0.3])); // mass 0.6 > 0.5
    assert!(!clf.is_normal_row(&[0.3, 0.3, 0.2, 0.2])); // mass 0.4
    assert!(!clf.is_normal_row(&[0.25, 0.25, 0.25, 0.25])); // exactly 0.5 → anomalous
}

#[test]
fn ood_scores_match_hand_computation() {
    let m = 2;
    let logits: [f64; 4] = [3.0, 1.0, 0.0, 0.0];

    // MSP: max softmax over the target block, softmax over all dims.
    let e: Vec<f64> = logits.iter().map(|v| v.exp()).collect();
    let z: f64 = e.iter().sum();
    let msp = OodStrategy::Msp.target_score(&logits, m);
    assert!((msp - e[0] / z).abs() < 1e-12);

    // ES: logsumexp over the target block.
    let es = OodStrategy::EnergyScore.target_score(&logits, m);
    assert!((es - (3f64.exp() + 1f64.exp()).ln()).abs() < 1e-12);

    // ED: logsumexp − mean over the target block.
    let ed = OodStrategy::EnergyDiscrepancy.target_score(&logits, m);
    assert!((ed - ((3f64.exp() + 1f64.exp()).ln() - 2.0)).abs() < 1e-12);
}

#[test]
fn snapshot_rejects_tampered_architecture() {
    let clf = identity_classifier();
    let good = snapshot::to_string(&clf);
    // Declare a different hidden width than the stored matrices.
    let tampered = good.replace("dims 4 4", "dims 4 9 4");
    assert!(snapshot::from_string(&tampered).is_err());
}

#[test]
fn classifier_accessors_are_consistent() {
    let clf = identity_classifier();
    assert_eq!(clf.m(), 2);
    assert_eq!(clf.k(), 2);
    assert_eq!(clf.input_dim(), 4);
    assert_eq!(clf.layer_dims(), vec![4, 4]);
    let params = clf.parameter_matrices();
    assert_eq!(params.len(), 2);
    assert_eq!(params[0], Matrix::eye(4));
    assert_eq!(params[1], Matrix::zeros(1, 4));
}
