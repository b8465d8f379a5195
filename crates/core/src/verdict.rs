//! The verdict-first scoring surface.
//!
//! The paper's deliverable is not the Eq. 9 scalar — it is the *decision*
//! that scalar supports: §III-C routes every instance to one of three
//! outcomes (normal, target anomaly, non-target anomaly). This module makes
//! that decision a first-class value: [`Verdict`] is one row's structured
//! result, [`ScoreOutput`] the batch container every verdict-producing
//! entry point returns, [`Calibration`] the validated thresholds a
//! [`crate::Detector`] scores against, and [`ThresholdCache`] the
//! per-strategy thresholds cached on a fitted model so serving does zero
//! calibration work per request.

use targad_metrics::ConfusionMatrix;

use crate::ood::OodStrategy;

/// The three-way §III-C decision for one instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerdictClass {
    /// Probability mass concentrates on the `k` normal groups.
    Normal,
    /// Anomalous, and the OOD target-likeness score clears the threshold:
    /// one of the `m` anomaly classes of primary interest.
    Target,
    /// Anomalous, but not of a class the operator cares about.
    NonTarget,
}

impl VerdictClass {
    /// All classes, in the paper's 0/1/2 code order.
    pub fn all() -> [VerdictClass; 3] {
        [
            VerdictClass::Normal,
            VerdictClass::Target,
            VerdictClass::NonTarget,
        ]
    }

    /// The paper's integer code: 0 normal, 1 target, 2 non-target.
    pub fn code(self) -> usize {
        match self {
            VerdictClass::Normal => 0,
            VerdictClass::Target => 1,
            VerdictClass::NonTarget => 2,
        }
    }

    /// Inverse of [`VerdictClass::code`].
    pub fn from_code(code: usize) -> Option<VerdictClass> {
        match code {
            0 => Some(VerdictClass::Normal),
            1 => Some(VerdictClass::Target),
            2 => Some(VerdictClass::NonTarget),
            _ => None,
        }
    }

    /// Stable wire name (`normal` / `target` / `non_target`).
    pub fn name(self) -> &'static str {
        match self {
            VerdictClass::Normal => "normal",
            VerdictClass::Target => "target",
            VerdictClass::NonTarget => "non_target",
        }
    }
}

/// Tally of three-way verdicts across a batch: one counter per
/// [`VerdictClass`]. The serve layer's access log and per-tenant metrics
/// aggregate with this instead of materializing per-row objects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Rows decided [`VerdictClass::Normal`].
    pub normal: u64,
    /// Rows decided [`VerdictClass::Target`].
    pub target: u64,
    /// Rows decided [`VerdictClass::NonTarget`].
    pub non_target: u64,
}

impl VerdictCounts {
    /// Counts one verdict.
    #[inline]
    pub fn add(&mut self, class: VerdictClass) {
        match class {
            VerdictClass::Normal => self.normal += 1,
            VerdictClass::Target => self.target += 1,
            VerdictClass::NonTarget => self.non_target += 1,
        }
    }

    /// Tallies an iterator of verdicts.
    pub fn tally(classes: impl IntoIterator<Item = VerdictClass>) -> Self {
        let mut counts = Self::default();
        for class in classes {
            counts.add(class);
        }
        counts
    }

    /// The count for `class`.
    pub fn get(&self, class: VerdictClass) -> u64 {
        match class {
            VerdictClass::Normal => self.normal,
            VerdictClass::Target => self.target,
            VerdictClass::NonTarget => self.non_target,
        }
    }

    /// Total rows tallied.
    pub fn total(&self) -> u64 {
        self.normal + self.target + self.non_target
    }
}

/// One row's full structured scoring result: the Eq. 9 score *and* the
/// three-way §III-C verdict, with the strategy and threshold that produced
/// it (a score is only interpretable relative to its decision rule).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// Target-anomaly score `S^tar` (Eq. 9).
    pub score: f64,
    /// The three-way decision.
    pub class: VerdictClass,
    /// OOD strategy that split target from non-target anomalies.
    pub ood_strategy: OodStrategy,
    /// Decision threshold the class was produced under (the strategy's
    /// calibrated `tau` for three-way detectors, the scalar score
    /// threshold for two-way ones).
    pub threshold: f64,
}

/// Batch of verdicts from one scoring call, stored struct-of-arrays so the
/// hot serving path never materializes per-row objects.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoreOutput {
    scores: Vec<f64>,
    classes: Vec<VerdictClass>,
    strategy: OodStrategy,
    threshold: f64,
}

impl ScoreOutput {
    /// Assembles a batch result.
    ///
    /// # Panics
    /// Panics when `scores` and `classes` lengths differ.
    pub fn new(
        scores: Vec<f64>,
        classes: Vec<VerdictClass>,
        strategy: OodStrategy,
        threshold: f64,
    ) -> Self {
        assert_eq!(
            scores.len(),
            classes.len(),
            "ScoreOutput: scores/classes length mismatch"
        );
        Self {
            scores,
            classes,
            strategy,
            threshold,
        }
    }

    /// Number of rows scored.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` when no rows were scored.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Eq. 9 scores, one per row.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Three-way classes, one per row.
    pub fn classes(&self) -> &[VerdictClass] {
        &self.classes
    }

    /// The OOD strategy every row was decided under.
    pub fn strategy(&self) -> OodStrategy {
        self.strategy
    }

    /// The decision threshold every row was decided under.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Row `i` as a [`Verdict`].
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn verdict(&self, i: usize) -> Verdict {
        Verdict {
            score: self.scores[i],
            class: self.classes[i],
            ood_strategy: self.strategy,
            threshold: self.threshold,
        }
    }

    /// Iterates rows as [`Verdict`]s.
    pub fn iter(&self) -> impl Iterator<Item = Verdict> + '_ {
        (0..self.len()).map(|i| self.verdict(i))
    }

    /// The paper's 0/1/2 codes, for confusion-matrix interop.
    pub fn three_way_codes(&self) -> Vec<usize> {
        self.classes.iter().map(|c| c.code()).collect()
    }

    /// Consumes the batch, keeping only the Eq. 9 scores (ranking-metric
    /// interop).
    pub fn into_scores(self) -> Vec<f64> {
        self.scores
    }
}

/// Calibrated decision thresholds for one [`crate::Detector`], produced by
/// [`crate::Detector::calibrate`] and consumed by
/// [`crate::Detector::try_verdicts`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// OOD strategy the thresholds were calibrated for.
    pub strategy: OodStrategy,
    /// Target/non-target OOD threshold (three-way detectors).
    pub tau: f64,
    /// Scalar anomaly-score threshold (two-way detectors, which cannot
    /// tell non-target anomalies apart from target ones).
    pub score_threshold: f64,
}

/// Per-strategy calibrated `tau` thresholds cached on a fitted model, so
/// the serving path does zero calibration work per request. Persisted by
/// the v2 snapshot format ([`crate::snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThresholdCache {
    taus: [Option<f64>; 3],
}

impl ThresholdCache {
    /// A cache with every strategy's threshold present.
    pub fn complete(msp: f64, es: f64, ed: f64) -> Self {
        Self {
            taus: [Some(msp), Some(es), Some(ed)],
        }
    }

    /// The calibrated threshold for `strategy`, if cached.
    pub fn get(&self, strategy: OodStrategy) -> Option<f64> {
        self.taus[strategy.index()]
    }

    /// Caches `tau` for `strategy`.
    pub fn set(&mut self, strategy: OodStrategy, tau: f64) {
        self.taus[strategy.index()] = Some(tau);
    }

    /// `true` when no strategy has been calibrated.
    pub fn is_empty(&self) -> bool {
        self.taus.iter().all(Option::is_none)
    }

    /// `true` when every strategy has a cached threshold.
    pub fn is_complete(&self) -> bool {
        self.taus.iter().all(Option::is_some)
    }
}

/// Calibrates a scalar anomaly-score threshold on validation data by
/// maximizing the two-way (target vs rest) macro-F1 over candidate
/// thresholds drawn from the validation scores — the scalar counterpart of
/// `ood::ValidationPass::tau`, used by the default [`crate::Detector`] verdict
/// path.
///
/// Returns `0.5` when `scores` is empty or degenerate (all equal).
pub fn calibrate_score_threshold(scores: &[f64], truth3: &[usize]) -> f64 {
    assert_eq!(
        scores.len(),
        truth3.len(),
        "calibrate_score_threshold: length mismatch"
    );
    let mut sorted: Vec<f64> = scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN score"));
    sorted.dedup();
    if sorted.len() < 2 {
        return 0.5;
    }
    let truth2: Vec<usize> = truth3.iter().map(|&t| usize::from(t == 1)).collect();
    let mut candidates = vec![sorted[0] - 1e-9];
    candidates.extend(sorted.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    candidates.push(sorted[sorted.len() - 1] + 1e-9);

    let mut best_t = candidates[0];
    let mut best_f1 = f64::NEG_INFINITY;
    let mut pred = vec![0usize; scores.len()];
    for t in candidates {
        for (p, &s) in pred.iter_mut().zip(scores) {
            *p = usize::from(s >= t);
        }
        let cm = ConfusionMatrix::from_predictions(&truth2, &pred, 2);
        let f1 = cm.macro_avg().f1;
        if f1 > best_f1 {
            best_f1 = f1;
            best_t = t;
        }
    }
    best_t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_codes_round_trip() {
        for class in VerdictClass::all() {
            assert_eq!(VerdictClass::from_code(class.code()), Some(class));
        }
        assert_eq!(VerdictClass::from_code(3), None);
        assert_eq!(VerdictClass::NonTarget.name(), "non_target");
    }

    #[test]
    fn verdict_counts_tally_by_class() {
        let counts = VerdictCounts::tally([
            VerdictClass::Normal,
            VerdictClass::Target,
            VerdictClass::Normal,
            VerdictClass::NonTarget,
        ]);
        assert_eq!(counts.normal, 2);
        assert_eq!(counts.target, 1);
        assert_eq!(counts.non_target, 1);
        assert_eq!(counts.total(), 4);
        for class in VerdictClass::all() {
            assert!(counts.get(class) >= 1);
        }
        let mut more = counts;
        more.add(VerdictClass::Target);
        assert_eq!(more.get(VerdictClass::Target), 2);
        assert_eq!(VerdictCounts::default().total(), 0);
    }

    #[test]
    fn score_output_exposes_rows_and_codes() {
        let out = ScoreOutput::new(
            vec![0.9, 0.1, 0.4],
            vec![
                VerdictClass::Target,
                VerdictClass::Normal,
                VerdictClass::NonTarget,
            ],
            OodStrategy::EnergyScore,
            1.5,
        );
        assert_eq!(out.len(), 3);
        assert!(!out.is_empty());
        assert_eq!(out.three_way_codes(), vec![1, 0, 2]);
        let v = out.verdict(0);
        assert_eq!(v.score, 0.9);
        assert_eq!(v.class, VerdictClass::Target);
        assert_eq!(v.ood_strategy, OodStrategy::EnergyScore);
        assert_eq!(v.threshold, 1.5);
        assert_eq!(out.iter().count(), 3);
        assert_eq!(out.into_scores(), vec![0.9, 0.1, 0.4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn score_output_rejects_mismatched_lengths() {
        let _ = ScoreOutput::new(vec![0.1], Vec::new(), OodStrategy::Msp, 0.0);
    }

    #[test]
    fn threshold_cache_tracks_per_strategy_taus() {
        let mut cache = ThresholdCache::default();
        assert!(cache.is_empty());
        assert!(!cache.is_complete());
        cache.set(OodStrategy::EnergyDiscrepancy, 0.7);
        assert_eq!(cache.get(OodStrategy::EnergyDiscrepancy), Some(0.7));
        assert_eq!(cache.get(OodStrategy::Msp), None);
        assert!(!cache.is_empty());
        let full = ThresholdCache::complete(0.1, 0.2, 0.3);
        assert!(full.is_complete());
        assert_eq!(full.get(OodStrategy::EnergyScore), Some(0.2));
    }

    #[test]
    fn scalar_threshold_separates_a_separable_stream() {
        // Targets score high, everything else low: the calibrated
        // threshold must fall in the gap.
        let scores = [0.9, 0.95, 0.85, 0.2, 0.1, 0.15, 0.25];
        let truth3 = [1, 1, 1, 0, 0, 2, 2];
        let t = calibrate_score_threshold(&scores, &truth3);
        assert!(t > 0.25 && t < 0.85, "threshold {t}");
    }

    #[test]
    fn scalar_threshold_degenerate_inputs_fall_back() {
        assert_eq!(calibrate_score_threshold(&[], &[]), 0.5);
        assert_eq!(calibrate_score_threshold(&[0.3, 0.3], &[1, 0]), 0.5);
    }
}
