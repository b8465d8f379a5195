//! TargAD hyper-parameters.

use crate::error::TargAdError;

/// Full hyper-parameter set for [`crate::TargAd`].
///
/// [`TargAdConfig::paper`] mirrors §IV-C of the paper;
/// [`TargAdConfig::fast`] shrinks the networks and epochs for tests,
/// examples, and quick experiments. The `use_*` flags drive the ablations
/// of Table III and the extension ablations listed in DESIGN.md §6.
#[derive(Clone, Debug)]
pub struct TargAdConfig {
    /// Number of k-means clusters `k`; `None` selects via the elbow method
    /// over [`TargAdConfig::elbow_range`] (the paper's procedure).
    pub k: Option<usize>,
    /// Candidate `k` range for the elbow method.
    pub elbow_range: (usize, usize),
    /// Candidate-selection threshold `α` (fraction, paper default 0.05):
    /// the top `α` of unlabeled data by reconstruction error becomes
    /// `D_U^A`.
    pub alpha: f64,
    /// Trade-off `η` of the inverse-reconstruction penalty in Eq. 1.
    pub eta: f64,
    /// Trade-off `λ₁` on `L_OE` in Eq. 8.
    pub lambda1: f64,
    /// Trade-off `λ₂` on `L_RE` in Eq. 8.
    pub lambda2: f64,
    /// Autoencoder hidden sizes as fractions of the input dimensionality,
    /// e.g. `[0.5, 0.25]` gives encoder `D → D/2 → D/4`.
    pub ae_hidden_fracs: Vec<f64>,
    /// Classifier hidden layer sizes (absolute).
    pub clf_hidden: Vec<usize>,
    /// Autoencoder training epochs (paper: 30).
    pub ae_epochs: usize,
    /// Classifier training epochs (paper: 30).
    pub clf_epochs: usize,
    /// Autoencoder Adam learning rate (paper: 1e-4).
    pub ae_lr: f64,
    /// Classifier Adam learning rate (paper: 1e-5).
    pub clf_lr: f64,
    /// Autoencoder batch size (paper: 256).
    pub ae_batch: usize,
    /// Classifier batch size (paper: 128).
    pub clf_batch: usize,
    /// Gradient-norm clip applied during both training phases; the inverse
    /// reconstruction penalty of Eq. 1 can produce extreme gradients when a
    /// labeled anomaly is momentarily well-reconstructed.
    pub grad_clip: f64,
    /// Include `L_OE` (Table III ablation `TargAD₋O` sets this false).
    pub use_oe: bool,
    /// Include `L_RE` (Table III ablation `TargAD₋R` sets this false).
    pub use_re: bool,
    /// Update candidate weights each epoch via Eq. 4 (false freezes the
    /// Eq. 5 initialization — the DESIGN.md §6 weight ablation).
    pub update_weights: bool,
    /// Use the vanilla outlier-exposure pseudo-label `1/(m+k)` everywhere
    /// instead of the paper's `(1/m, …, 1/m, 0, …, 0)` (pseudo-label
    /// ablation).
    pub vanilla_oe_labels: bool,
    /// Train the per-cluster autoencoders on parallel threads (the paper
    /// trains them in parallel).
    pub parallel_aes: bool,
    /// Train the classifier with plain SGD instead of Adam (optimizer
    /// ablation; the paper uses Adam everywhere).
    pub clf_sgd: bool,
}

impl TargAdConfig {
    /// The configuration of §IV-C of the paper.
    pub fn paper() -> Self {
        Self {
            k: None,
            elbow_range: (1, 8),
            alpha: 0.05,
            eta: 1.0,
            lambda1: 0.1,
            lambda2: 1.0,
            ae_hidden_fracs: vec![0.5, 0.25],
            clf_hidden: vec![64, 32],
            ae_epochs: 30,
            clf_epochs: 30,
            ae_lr: 1e-4,
            clf_lr: 1e-5,
            ae_batch: 256,
            clf_batch: 128,
            grad_clip: 5.0,
            use_oe: true,
            use_re: true,
            update_weights: true,
            vanilla_oe_labels: false,
            parallel_aes: true,
            clf_sgd: false,
        }
    }

    /// The default used by the experiment harness: identical to
    /// [`TargAdConfig::paper`] except for learning rates adapted to the
    /// synthetic benchmarks (the paper tuned its rates on the real
    /// datasets; our substitutes are smaller, so slightly larger rates
    /// reach the same converged regime within the same 30 epochs).
    pub fn default_tuned() -> Self {
        Self {
            ae_lr: 1e-3,
            clf_lr: 1e-3,
            ..Self::paper()
        }
    }

    /// A small/fast configuration for tests and examples.
    pub fn fast() -> Self {
        Self {
            k: Some(2),
            ae_hidden_fracs: vec![0.5],
            clf_hidden: vec![64, 32],
            ae_epochs: 15,
            clf_epochs: 30,
            ae_lr: 2e-3,
            clf_lr: 5e-3,
            ae_batch: 128,
            clf_batch: 128,
            ..Self::paper()
        }
    }

    /// A builder pre-filled with [`TargAdConfig::default_tuned`], whose
    /// [`TargAdConfigBuilder::build`] validates every field and returns a
    /// typed [`TargAdError::InvalidConfig`] instead of panicking.
    ///
    /// ```
    /// use targad_core::TargAdConfig;
    /// let config = TargAdConfig::builder().alpha(0.05).lambda1(0.1).build().unwrap();
    /// assert_eq!(config.alpha, 0.05);
    /// assert!(TargAdConfig::builder().alpha(2.0).build().is_err());
    /// ```
    pub fn builder() -> TargAdConfigBuilder {
        TargAdConfigBuilder {
            config: Self::default_tuned(),
        }
    }

    /// Validates internal consistency, returning the first violated
    /// constraint as a typed [`TargAdError::InvalidConfig`].
    pub fn try_validate(&self) -> Result<(), TargAdError> {
        fn bad(field: &'static str, reason: String) -> Result<(), TargAdError> {
            Err(TargAdError::InvalidConfig { field, reason })
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return bad("alpha", format!("must be in (0, 1), got {}", self.alpha));
        }
        if self.eta.is_nan() || self.eta < 0.0 {
            return bad("eta", format!("must be non-negative, got {}", self.eta));
        }
        if self.lambda1.is_nan() || self.lambda1 < 0.0 {
            return bad(
                "lambda1",
                format!("must be non-negative, got {}", self.lambda1),
            );
        }
        if self.lambda2.is_nan() || self.lambda2 < 0.0 {
            return bad(
                "lambda2",
                format!("must be non-negative, got {}", self.lambda2),
            );
        }
        if self.ae_lr.is_nan() || self.ae_lr <= 0.0 {
            return bad("ae_lr", format!("must be positive, got {}", self.ae_lr));
        }
        if self.clf_lr.is_nan() || self.clf_lr <= 0.0 {
            return bad("clf_lr", format!("must be positive, got {}", self.clf_lr));
        }
        if self.ae_batch == 0 {
            return bad("ae_batch", "must be positive".into());
        }
        if self.clf_batch == 0 {
            return bad("clf_batch", "must be positive".into());
        }
        if self.ae_epochs == 0 {
            return bad("ae_epochs", "must be positive".into());
        }
        if self.clf_epochs == 0 {
            return bad("clf_epochs", "must be positive".into());
        }
        if self.k == Some(0) {
            return bad("k", "must be positive when fixed".into());
        }
        let (lo, hi) = self.elbow_range;
        if lo < 1 || lo > hi {
            return bad("elbow_range", format!("invalid range ({lo}, {hi})"));
        }
        if !self.ae_hidden_fracs.iter().all(|&f| f > 0.0 && f <= 1.0) {
            return bad(
                "ae_hidden_fracs",
                format!(
                    "fractions must be in (0, 1], got {:?}",
                    self.ae_hidden_fracs
                ),
            );
        }
        Ok(())
    }

    /// Concrete autoencoder layer dims for input dimensionality `d`.
    pub fn ae_dims(&self, d: usize) -> Vec<usize> {
        let mut dims = vec![d];
        for &f in &self.ae_hidden_fracs {
            let next = ((d as f64 * f).round() as usize).max(2);
            // Keep the network a strict bottleneck.
            let prev = *dims.last().expect("nonempty");
            dims.push(next.min(prev.saturating_sub(1).max(2)));
        }
        dims
    }
}

impl Default for TargAdConfig {
    fn default() -> Self {
        Self::default_tuned()
    }
}

/// Validating builder for [`TargAdConfig`], started via
/// [`TargAdConfig::builder`].
///
/// Setters accept any value; all constraints are checked once in
/// [`TargAdConfigBuilder::build`], which returns
/// [`TargAdError::InvalidConfig`] naming the offending field.
#[derive(Clone, Debug)]
pub struct TargAdConfigBuilder {
    config: TargAdConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),+ $(,)?) => {$(
        $(#[$doc])*
        pub fn $field(mut self, value: $ty) -> Self {
            self.config.$field = value;
            self
        }
    )+};
}

impl TargAdConfigBuilder {
    builder_setters! {
        /// Fixed cluster count `k` (`None` = elbow method).
        k: Option<usize>,
        /// Candidate `k` range for the elbow method.
        elbow_range: (usize, usize),
        /// Candidate-selection threshold `α` in `(0, 1)`.
        alpha: f64,
        /// Trade-off `η` of the inverse-reconstruction penalty (Eq. 1).
        eta: f64,
        /// Trade-off `λ₁` on `L_OE` (Eq. 8).
        lambda1: f64,
        /// Trade-off `λ₂` on `L_RE` (Eq. 8).
        lambda2: f64,
        /// Autoencoder hidden sizes as fractions of the input dim.
        ae_hidden_fracs: Vec<f64>,
        /// Classifier hidden layer sizes (absolute).
        clf_hidden: Vec<usize>,
        /// Autoencoder training epochs.
        ae_epochs: usize,
        /// Classifier training epochs.
        clf_epochs: usize,
        /// Autoencoder Adam learning rate.
        ae_lr: f64,
        /// Classifier Adam learning rate.
        clf_lr: f64,
        /// Autoencoder batch size.
        ae_batch: usize,
        /// Classifier batch size.
        clf_batch: usize,
        /// Gradient-norm clip for both training phases.
        grad_clip: f64,
        /// Include `L_OE` (ablation `TargAD₋O` sets this false).
        use_oe: bool,
        /// Include `L_RE` (ablation `TargAD₋R` sets this false).
        use_re: bool,
        /// Update candidate weights each epoch via Eq. 4.
        update_weights: bool,
        /// Use the vanilla outlier-exposure pseudo-label `1/(m+k)`.
        vanilla_oe_labels: bool,
        /// Train per-cluster autoencoders on parallel threads.
        parallel_aes: bool,
        /// Train the classifier with SGD instead of Adam.
        clf_sgd: bool,
    }

    /// Starts from an existing configuration instead of the defaults.
    pub fn from_config(config: TargAdConfig) -> Self {
        Self { config }
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// [`TargAdError::InvalidConfig`] naming the first field that violates
    /// its constraint.
    pub fn build(self) -> Result<TargAdConfig, TargAdError> {
        self.config.try_validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4c() {
        let c = TargAdConfig::paper();
        assert_eq!(c.alpha, 0.05);
        assert_eq!(c.eta, 1.0);
        assert_eq!(c.lambda1, 0.1);
        assert_eq!(c.lambda2, 1.0);
        assert_eq!(c.ae_lr, 1e-4);
        assert_eq!(c.clf_lr, 1e-5);
        assert_eq!(c.ae_batch, 256);
        assert_eq!(c.clf_batch, 128);
        assert_eq!(c.ae_epochs, 30);
        assert_eq!(c.clf_epochs, 30);
        assert!(c.use_oe && c.use_re && c.update_weights);
        c.try_validate().unwrap();
    }

    #[test]
    fn ae_dims_form_a_bottleneck() {
        let c = TargAdConfig::paper();
        assert_eq!(c.ae_dims(196), vec![196, 98, 49]);
        let dims = c.ae_dims(8);
        assert!(
            dims.windows(2).all(|w| w[1] < w[0] || w[1] == 2),
            "{dims:?}"
        );
        // Tiny inputs never collapse below 2.
        assert!(c.ae_dims(3).iter().all(|&d| d >= 2));
    }

    #[test]
    fn try_validate_rejects_bad_alpha_with_typed_error() {
        let mut c = TargAdConfig::paper();
        c.alpha = 0.0;
        assert!(matches!(
            c.try_validate(),
            Err(TargAdError::InvalidConfig { field: "alpha", .. })
        ));
    }

    #[test]
    fn fast_config_is_valid() {
        TargAdConfig::fast().try_validate().unwrap();
        TargAdConfig::default().try_validate().unwrap();
    }

    #[test]
    fn builder_sets_fields_and_validates() {
        let c = TargAdConfig::builder()
            .alpha(0.1)
            .eta(2.0)
            .lambda1(0.5)
            .k(Some(3))
            .clf_sgd(true)
            .build()
            .unwrap();
        assert_eq!(c.alpha, 0.1);
        assert_eq!(c.eta, 2.0);
        assert_eq!(c.lambda1, 0.5);
        assert_eq!(c.k, Some(3));
        assert!(c.clf_sgd);
    }

    #[test]
    fn builder_surfaces_each_constraint_as_a_typed_error() {
        let field_of = |r: Result<TargAdConfig, TargAdError>| match r {
            Err(TargAdError::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        assert_eq!(
            field_of(TargAdConfig::builder().alpha(1.0).build()),
            "alpha"
        );
        assert_eq!(field_of(TargAdConfig::builder().eta(-0.1).build()), "eta");
        assert_eq!(
            field_of(TargAdConfig::builder().lambda1(-1.0).build()),
            "lambda1"
        );
        assert_eq!(
            field_of(TargAdConfig::builder().lambda2(-1.0).build()),
            "lambda2"
        );
        assert_eq!(
            field_of(TargAdConfig::builder().ae_lr(0.0).build()),
            "ae_lr"
        );
        assert_eq!(
            field_of(TargAdConfig::builder().clf_lr(-1.0).build()),
            "clf_lr"
        );
        assert_eq!(
            field_of(TargAdConfig::builder().ae_batch(0).build()),
            "ae_batch"
        );
        assert_eq!(
            field_of(TargAdConfig::builder().clf_batch(0).build()),
            "clf_batch"
        );
        assert_eq!(
            field_of(TargAdConfig::builder().ae_epochs(0).build()),
            "ae_epochs"
        );
        assert_eq!(
            field_of(TargAdConfig::builder().clf_epochs(0).build()),
            "clf_epochs"
        );
        assert_eq!(field_of(TargAdConfig::builder().k(Some(0)).build()), "k");
        assert_eq!(
            field_of(TargAdConfig::builder().elbow_range((3, 2)).build()),
            "elbow_range"
        );
        assert_eq!(
            field_of(TargAdConfig::builder().ae_hidden_fracs(vec![1.5]).build()),
            "ae_hidden_fracs"
        );
    }

    #[test]
    fn builder_from_config_preserves_the_seed_configuration() {
        let c = TargAdConfigBuilder::from_config(TargAdConfig::fast())
            .clf_epochs(7)
            .build()
            .unwrap();
        assert_eq!(c.k, Some(2));
        assert_eq!(c.clf_epochs, 7);
    }
}
