//! Error type for TargAD training and inference.

use std::fmt;

use targad_linalg::Matrix;

/// Failures surfaced by [`crate::TargAd`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargAdError {
    /// A hyper-parameter failed validation (see
    /// [`crate::TargAdConfig::try_validate`]).
    InvalidConfig {
        /// The offending field, e.g. `"alpha"`.
        field: &'static str,
        /// Human-readable constraint violation.
        reason: String,
    },
    /// `fit` requires at least one labeled target anomaly.
    NoLabeledAnomalies,
    /// Too little unlabeled data to run candidate selection.
    TooFewUnlabeled {
        /// Rows available.
        have: usize,
        /// Rows required.
        need: usize,
    },
    /// Inference was requested before a successful `fit`.
    NotFitted,
    /// A verdict was requested under a strategy whose decision threshold
    /// has not been calibrated (see [`crate::TargAd::calibrate_thresholds`]).
    NotCalibrated {
        /// The uncalibrated strategy.
        strategy: crate::OodStrategy,
    },
    /// A feature is NaN or infinite. From `TargAd::fit`, `row` is the row
    /// of the dataset; from `TargAd::fit_view`, it counts the rows of
    /// [`crate::TrainView::labeled`] first, then those of
    /// [`crate::TrainView::unlabeled`]. From threshold calibration, it is
    /// the row of the validation matrix.
    NonFinite {
        /// Row of the offending cell.
        row: usize,
        /// Column of the offending cell.
        col: usize,
    },
    /// Threshold calibration got a different number of three-way labels
    /// than validation rows.
    LabelCountMismatch {
        /// Validation rows.
        rows: usize,
        /// Three-way labels supplied.
        labels: usize,
    },
    /// Feature dimensionality differs from the fitted model's.
    DimMismatch {
        /// Dimensionality the model was trained with.
        expected: usize,
        /// Dimensionality of the offending input.
        got: usize,
    },
}

impl fmt::Display for TargAdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargAdError::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration: `{field}` {reason}")
            }
            TargAdError::NoLabeledAnomalies => {
                write!(
                    f,
                    "training set contains no labeled target anomalies (D_L is empty)"
                )
            }
            TargAdError::TooFewUnlabeled { have, need } => {
                write!(
                    f,
                    "too few unlabeled instances: have {have}, need at least {need}"
                )
            }
            TargAdError::NotFitted => write!(f, "model is not fitted; call fit() first"),
            TargAdError::NotCalibrated { strategy } => {
                write!(
                    f,
                    "no calibrated threshold for OOD strategy {}; call calibrate_thresholds() first",
                    strategy.name()
                )
            }
            TargAdError::NonFinite { row, col } => {
                write!(f, "feature at row {row}, column {col} is not finite")
            }
            TargAdError::LabelCountMismatch { rows, labels } => {
                write!(
                    f,
                    "label count mismatch: {rows} validation rows but {labels} three-way labels"
                )
            }
            TargAdError::DimMismatch { expected, got } => {
                write!(
                    f,
                    "feature dimensionality mismatch: model expects {expected}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for TargAdError {}

/// `(row, col)` of the first NaN or infinite cell of `x`, in row-major
/// order — the cell a [`TargAdError::NonFinite`] names.
pub(crate) fn first_non_finite(x: &Matrix) -> Option<(usize, usize)> {
    let i = x.as_slice().iter().position(|v| !v.is_finite())?;
    Some((i / x.cols(), i % x.cols()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let bad = TargAdError::InvalidConfig {
            field: "alpha",
            reason: "must be in (0, 1), got 2".into(),
        };
        assert!(bad.to_string().contains("alpha"));
        assert!(TargAdError::NoLabeledAnomalies.to_string().contains("D_L"));
        assert!(TargAdError::TooFewUnlabeled { have: 3, need: 10 }
            .to_string()
            .contains("3"));
        assert!(TargAdError::NotFitted.to_string().contains("fit"));
        assert!(TargAdError::NonFinite { row: 5, col: 2 }
            .to_string()
            .contains("row 5, column 2"));
        assert!(TargAdError::LabelCountMismatch { rows: 9, labels: 8 }
            .to_string()
            .contains("9 validation rows but 8"));
        assert!(TargAdError::DimMismatch {
            expected: 4,
            got: 7
        }
        .to_string()
        .contains("7"));
    }
}
