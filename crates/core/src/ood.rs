//! Out-of-distribution strategies for three-way identification (§III-C,
//! Table IV).
//!
//! TargAD first separates normal instances via the probability-mass rule
//! `Σ_{j>m} p_j > k/(m+k)`; the remaining (anomalous) instances are split
//! into target vs non-target anomalies by thresholding an OOD score
//! computed from the *target block* of the logits `z_{1..m}`:
//!
//! - **MSP** (maximum softmax probability, Hendrycks & Gimpel): target
//!   anomalies receive a confident target-class prediction, non-targets a
//!   near-uniform one.
//! - **ES** (energy score, Liu et al.): the (negated) free energy
//!   `logsumexp(z_{1..m})` is larger for in-distribution (target) logits.
//! - **ED** (energy discrepancy): adaptation of SAFE-Student's
//!   teacher/student energy-discrepancy idea to the single-classifier
//!   setting — `logsumexp(z_{1..m}) − mean(z_{1..m})`, which keeps the
//!   energy's nature while reflecting the whole logit distribution: exactly
//!   `ln m` for uniform logits and larger the more peaked the block is.

use targad_linalg::Matrix;
use targad_metrics::ConfusionMatrix;

use crate::model::Classifier;
use crate::verdict::VerdictClass;

/// The three OOD strategies of Table IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OodStrategy {
    /// Maximum softmax probability.
    Msp,
    /// Energy score.
    EnergyScore,
    /// Energy discrepancy.
    EnergyDiscrepancy,
}

impl OodStrategy {
    /// All strategies in Table IV order.
    pub fn all() -> [OodStrategy; 3] {
        [
            OodStrategy::Msp,
            OodStrategy::EnergyScore,
            OodStrategy::EnergyDiscrepancy,
        ]
    }

    /// Name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            OodStrategy::Msp => "MSP",
            OodStrategy::EnergyScore => "ES",
            OodStrategy::EnergyDiscrepancy => "ED",
        }
    }

    /// Position in [`OodStrategy::all`] (Table IV order) — the index used
    /// by [`crate::verdict::ThresholdCache`].
    pub fn index(self) -> usize {
        match self {
            OodStrategy::Msp => 0,
            OodStrategy::EnergyScore => 1,
            OodStrategy::EnergyDiscrepancy => 2,
        }
    }

    /// Parses a wire/CLI name, case-insensitively: `msp`, `es` /
    /// `energy_score`, `ed` / `energy_discrepancy`.
    pub fn parse(name: &str) -> Option<OodStrategy> {
        match name.to_ascii_lowercase().as_str() {
            "msp" => Some(OodStrategy::Msp),
            "es" | "energy_score" => Some(OodStrategy::EnergyScore),
            "ed" | "energy_discrepancy" => Some(OodStrategy::EnergyDiscrepancy),
            _ => None,
        }
    }

    /// "Target-likeness" score of one logit row; larger means more likely a
    /// *target* (in-distribution) anomaly rather than a non-target one.
    pub fn target_score(self, logits: &[f64], m: usize) -> f64 {
        let block = &logits[..m];
        match self {
            OodStrategy::Msp => {
                // Softmax over the full output, max over the target block —
                // consistent with Eq. 9.
                let max_all = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let denom: f64 = logits.iter().map(|&z| (z - max_all).exp()).sum();
                block
                    .iter()
                    .map(|&z| (z - max_all).exp() / denom)
                    .fold(f64::NEG_INFINITY, f64::max)
            }
            OodStrategy::EnergyScore => logsumexp(block),
            OodStrategy::EnergyDiscrepancy => {
                let mean = block.iter().sum::<f64>() / m as f64;
                logsumexp(block) - mean
            }
        }
    }
}

fn logsumexp(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    max + values.iter().map(|&v| (v - max).exp()).sum::<f64>().ln()
}

impl OodStrategy {
    /// Single-precision twin of [`OodStrategy::target_score`], used by the
    /// f32 serving path: same formulas, same accumulation order, evaluated
    /// on the f32 logits the reduced-precision engine produced. The
    /// resulting score is compared against the f64-calibrated `tau` after
    /// widening, so calibration stays precision-independent.
    pub fn target_score_f32(self, logits: &[f32], m: usize) -> f32 {
        let block = &logits[..m];
        match self {
            OodStrategy::Msp => {
                let max_all = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let denom: f32 = logits.iter().map(|&z| (z - max_all).exp()).sum();
                block
                    .iter()
                    .map(|&z| (z - max_all).exp() / denom)
                    .fold(f32::NEG_INFINITY, f32::max)
            }
            OodStrategy::EnergyScore => logsumexp_f32(block),
            OodStrategy::EnergyDiscrepancy => {
                let mean = block.iter().sum::<f32>() / m as f32;
                logsumexp_f32(block) - mean
            }
        }
    }
}

fn logsumexp_f32(values: &[f32]) -> f32 {
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    max + values.iter().map(|&v| (v - max).exp()).sum::<f32>().ln()
}

/// One row's §III-C verdict from its logits: the Eq. 9 score and the
/// three-way class under `strategy` at threshold `tau`.
///
/// This is the single decision kernel shared by the reference path
/// ([`Classifier::verdicts`](crate::model::Classifier::verdicts)) and the
/// fused engine path
/// ([`Classifier::verdicts_rt`](crate::model::Classifier::verdicts_rt)).
/// It reproduces the exact accumulation chains of the historical
/// `softmax_rows` + `is_normal_row` + `target_scores` sequence — max over
/// the row, exponentials in ascending column order, each probability a
/// single division by the shared row sum — so both paths are bit-identical
/// to the Table IV reference.
#[inline]
pub(crate) fn verdict_of_row(
    z: &[f64],
    m: usize,
    k: usize,
    strategy: OodStrategy,
    tau: f64,
) -> (f64, VerdictClass) {
    let mx = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for &v in z {
        sum += (v - mx).exp();
    }
    // Second pass recomputes each exponential instead of storing it: exp is
    // deterministic, and this keeps the kernel allocation-free so the
    // engine's per-row finish stays zero-alloc.
    let mut best = f64::NEG_INFINITY;
    let mut normal_mass = 0.0;
    for (j, &v) in z.iter().enumerate() {
        let p = (v - mx).exp() / sum;
        if j < m {
            best = best.max(p);
        } else {
            normal_mass += p;
        }
    }
    let class = if normal_mass > k as f64 / (m + k) as f64 {
        VerdictClass::Normal
    } else if strategy.target_score(z, m) >= tau {
        VerdictClass::Target
    } else {
        VerdictClass::NonTarget
    };
    (best, class)
}

/// Single-precision twin of [`verdict_of_row`] for the f32 serving path:
/// the same normality gate, Eq. 9 score, and OOD thresholding evaluated on
/// the f32 logits, with the score widened to `f64` at the end and the
/// comparison against the (f64-calibrated) `tau` done in `f64`.
///
/// This is *not* bit-identical to the f64 kernel — the f32 path's contract
/// is ranking fidelity (AUC-PR delta and three-way verdict agreement vs the
/// oracle), asserted by the tolerance harness in `targad-bench`.
#[inline]
pub(crate) fn verdict_of_row_f32(
    z: &[f32],
    m: usize,
    k: usize,
    strategy: OodStrategy,
    tau: f64,
) -> (f64, VerdictClass) {
    let mx = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &v in z {
        sum += (v - mx).exp();
    }
    let mut best = f32::NEG_INFINITY;
    let mut normal_mass = 0.0f32;
    for (j, &v) in z.iter().enumerate() {
        let p = (v - mx).exp() / sum;
        if j < m {
            best = best.max(p);
        } else {
            normal_mass += p;
        }
    }
    let class = if f64::from(normal_mass) > k as f64 / (m + k) as f64 {
        VerdictClass::Normal
    } else if f64::from(strategy.target_score_f32(z, m)) >= tau {
        VerdictClass::Target
    } else {
        VerdictClass::NonTarget
    };
    (f64::from(best), class)
}

/// Calibrates the target/non-target threshold on validation data by
/// maximizing macro-F1 over a grid of candidate thresholds drawn from the
/// validation scores of predicted-anomalous rows.
///
/// Returns the chosen threshold (0.0 if validation has no anomalous
/// predictions — any tau then yields the same all-normal labeling).
///
/// One forward pass total: the §III-C normality gate and the per-row OOD
/// scores are computed once, and each candidate threshold only re-labels
/// the gated rows (the historical implementation re-ran the full forward
/// pass per candidate).
pub fn calibrate_tau(
    clf: &Classifier,
    val_x: &Matrix,
    val_truth3: &[usize],
    strategy: OodStrategy,
) -> f64 {
    assert_eq!(
        val_x.rows(),
        val_truth3.len(),
        "calibrate_tau: length mismatch"
    );
    let logits = clf.logits(val_x);
    let probs = logits.softmax_rows();
    let anomalous: Vec<usize> = (0..val_x.rows())
        .filter(|&r| !clf.is_normal_row(probs.row(r)))
        .collect();
    if anomalous.is_empty() {
        return 0.0;
    }
    let target_scores: Vec<f64> = anomalous
        .iter()
        .map(|&r| strategy.target_score(logits.row(r), clf.m()))
        .collect();
    let mut scores = target_scores.clone();
    scores.sort_by(|a, b| a.partial_cmp(b).expect("NaN OOD score"));
    scores.dedup();

    let mut best_tau = scores[0];
    let mut best_f1 = f64::NEG_INFINITY;
    // Midpoints between consecutive distinct scores, plus the extremes.
    let mut candidates = vec![scores[0] - 1e-9];
    candidates.extend(scores.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    candidates.push(scores[scores.len() - 1] + 1e-9);

    // Ungated rows are "normal" under every candidate; only the gated rows
    // flip between target and non-target as tau sweeps.
    let mut pred = vec![0usize; val_x.rows()];
    for tau in candidates {
        for (&r, &s) in anomalous.iter().zip(&target_scores) {
            pred[r] = if s >= tau { 1 } else { 2 };
        }
        let cm = ConfusionMatrix::from_predictions(val_truth3, &pred, 3);
        let f1 = cm.macro_avg().f1;
        if f1 > best_f1 {
            best_f1 = f1;
            best_tau = tau;
        }
    }
    best_tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TargAd, TargAdConfig};
    use targad_data::GeneratorSpec;

    #[test]
    fn strategy_names_and_order() {
        let names: Vec<&str> = OodStrategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["MSP", "ES", "ED"]);
    }

    #[test]
    fn msp_is_a_probability() {
        let logits = [2.0, -1.0, 0.5, 0.0];
        let s = OodStrategy::Msp.target_score(&logits, 2);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn energy_discrepancy_is_ln_m_for_uniform_logits() {
        for m in 2..6 {
            let logits = vec![0.7; m + 3];
            let s = OodStrategy::EnergyDiscrepancy.target_score(&logits, m);
            assert!((s - (m as f64).ln()).abs() < 1e-12, "m={m}: {s}");
        }
    }

    #[test]
    fn peaked_logits_score_higher_than_uniform() {
        let uniform = [0.0, 0.0, 0.0, 0.0, 0.0];
        let peaked = [6.0, 0.0, 0.0, 0.0, 0.0];
        for strategy in OodStrategy::all() {
            let u = strategy.target_score(&uniform, 3);
            let p = strategy.target_score(&peaked, 3);
            assert!(p > u, "{}: peaked {p} <= uniform {u}", strategy.name());
        }
    }

    #[test]
    fn energy_score_is_shift_sensitive_but_ed_is_not() {
        let logits = [1.0, 2.0, 0.0];
        let shifted = [4.0, 5.0, 3.0];
        let es = OodStrategy::EnergyScore;
        assert!(es.target_score(&shifted, 3) > es.target_score(&logits, 3));
        let ed = OodStrategy::EnergyDiscrepancy;
        assert!(
            (ed.target_score(&shifted, 3) - ed.target_score(&logits, 3)).abs() < 1e-12,
            "ED should be shift-invariant"
        );
    }

    #[test]
    fn strategy_parse_round_trips_names() {
        assert_eq!(OodStrategy::parse("msp"), Some(OodStrategy::Msp));
        assert_eq!(OodStrategy::parse("ES"), Some(OodStrategy::EnergyScore));
        assert_eq!(
            OodStrategy::parse("energy_discrepancy"),
            Some(OodStrategy::EnergyDiscrepancy)
        );
        assert_eq!(OodStrategy::parse("nope"), None);
        for (i, s) in OodStrategy::all().into_iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn three_way_classification_end_to_end() {
        let bundle = GeneratorSpec::quick_demo().generate(31);
        let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
        model.fit(&bundle.train, 31).expect("fit");
        let clf = model.classifier().unwrap();

        for strategy in OodStrategy::all() {
            let tau = calibrate_tau(
                clf,
                &bundle.val.features,
                &bundle.val.three_way_labels(),
                strategy,
            );
            let pred = clf
                .verdicts(&bundle.test.features, strategy, tau)
                .three_way_codes();
            assert_eq!(pred.len(), bundle.test.len());
            assert!(pred.iter().all(|&p| p <= 2));
            let cm = ConfusionMatrix::from_predictions(&bundle.test.three_way_labels(), &pred, 3);
            // Normal recall must be solid; target identification well above
            // chance.
            let normal = cm.class_report(0);
            assert!(
                normal.recall > 0.7,
                "{}: normal recall {}",
                strategy.name(),
                normal.recall
            );
            assert!(
                cm.accuracy() > 0.6,
                "{}: accuracy {}",
                strategy.name(),
                cm.accuracy()
            );
        }
    }
}
