//! The TargAD detection component (§III-B2/B3, Lines 8–17 of Algorithm 1)
//! and the public model API.

use targad_autograd::{Tape, Var, VarStore};
use targad_data::Dataset;
use targad_linalg::{rng as lrng, stats, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{
    shuffled_batches, Activation, Adam, EngineCell, EnginePrecision, F32Plan, Mlp, Optimizer,
    Parts, Sgd, ShardedStep,
};
use targad_obs::{
    AeEpochEvent, EpochEvent, FitEndEvent, FitStartEvent, LossDecomposition, NullObserver,
    SelectionEvent, TrainObserver, WeightSummary,
};
use targad_runtime::Runtime;

use crate::candidate::CandidateSelection;
use crate::config::TargAdConfig;
use crate::detector::{Detector, TrainView};
use crate::error::TargAdError;
use crate::ood::{calibrate_tau, verdict_of_row, verdict_of_row_f32, OodStrategy};
use crate::verdict::{Calibration, ScoreOutput, ThresholdCache, VerdictClass};

/// Index of the `L_CE` partial in a step's [`Parts`] array.
const PART_CE: usize = 0;
/// Index of the (unscaled) `L_OE` partial.
const PART_OE: usize = 1;
/// Index of the (unscaled) `L_RE` partial.
const PART_RE: usize = 2;

/// The trained `m + k`-way classifier `f`.
///
/// The first `m` output dimensions correspond to the target anomaly
/// classes, the last `k` to the hidden normal groups discovered by k-means.
pub struct Classifier {
    store: VarStore,
    mlp: Mlp,
    m: usize,
    k: usize,
    /// Pooled inference engine for the batched scoring paths. Held on the
    /// classifier so repeated scoring — per-epoch probe traces, suite-table
    /// regeneration — reuses one warm buffer pool across calls.
    engine: EngineCell,
    /// Lazily built f32 cast of the fitted weights (packed for the SIMD
    /// micro-kernels). Built at most once per classifier instance — eagerly
    /// via [`Classifier::warm_f32`] (the serve registry does this at
    /// insert/hot-swap) or on the first f32 scoring call.
    f32_plan: std::sync::OnceLock<F32Plan>,
}

impl Clone for Classifier {
    /// Clones the network; the clone gets its own fresh (cold) engine
    /// pool and unbuilt f32 plan, since pooled scratch and cast weights
    /// are per-instance derived state, not part of the model.
    fn clone(&self) -> Self {
        Self {
            store: self.store.clone(),
            mlp: self.mlp.clone(),
            m: self.m,
            k: self.k,
            engine: EngineCell::new(),
            f32_plan: std::sync::OnceLock::new(),
        }
    }
}

impl Classifier {
    /// Number of target anomaly classes `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of normal groups `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    /// Raw logits, one row per instance.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        self.mlp.eval(&self.store, x)
    }

    /// [`Classifier::logits`] executed on `rt`: the batched forward pass
    /// parallelizes over rows, bit-identical to the serial path at any
    /// worker count.
    pub fn logits_rt(&self, x: &Matrix, rt: &Runtime) -> Matrix {
        self.mlp.eval_rt(&self.store, x, rt)
    }

    /// Softmax probabilities over the `m + k` outputs.
    pub fn probabilities(&self, x: &Matrix) -> Matrix {
        let mut p = self.logits(x);
        p.softmax_rows_inplace();
        p
    }

    /// [`Classifier::probabilities`] executed on `rt`.
    pub fn probabilities_rt(&self, x: &Matrix, rt: &Runtime) -> Matrix {
        let mut p = self.logits_rt(x, rt);
        p.softmax_rows_inplace();
        p
    }

    /// Target-anomaly scores (Eq. 9) via the reference (unfused) forward
    /// pass: `S^tar(x) = max_{j ≤ m} p_j(x)`. Kept as the implementation
    /// the engine-backed [`Classifier::target_scores_rt`] is exact-equality
    /// tested against.
    pub fn target_scores(&self, x: &Matrix) -> Vec<f64> {
        self.target_scores_from(self.probabilities(x))
    }

    /// [`Classifier::target_scores`] through the pooled `ScoreEngine` on
    /// `rt`: fused layer pipeline, zero steady-state allocations, and a
    /// per-row softmax-max finish. Bit-identical to the serial reference at
    /// any worker count: the engine reproduces the exact logit chains, and
    /// `max_j e_j / S` equals `max_j (e_j / S)` bitwise because dividing by
    /// the shared positive row sum is monotone and the winning element's
    /// quotient is the same division either way.
    pub fn target_scores_rt(&self, x: &Matrix, rt: &Runtime) -> Vec<f64> {
        let m = self.m;
        // The reference row chain: max over all logits, exponentials (and
        // their sum) accumulated in ascending column order, then the best
        // target-class exponential normalized once.
        let finish = move |_r: usize, z: &[f64]| {
            let mx = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            let mut best = f64::NEG_INFINITY;
            for (j, &v) in z.iter().enumerate() {
                let e = (v - mx).exp();
                sum += e;
                if j < m {
                    best = best.max(e);
                }
            }
            best / sum
        };
        self.engine
            .with(|e| e.score(&[(&self.mlp, &self.store)], x, rt, finish))
    }

    /// The fitted weights cast and packed for the f32 micro-kernels, built
    /// on first use and cached for this classifier instance.
    fn f32_plan(&self) -> &F32Plan {
        self.f32_plan
            .get_or_init(|| F32Plan::from_stack(&[(&self.mlp, &self.store)]))
    }

    /// Eagerly builds the f32 cast plan (a no-op when already built). The
    /// serve registry calls this at model insert and hot-swap so the first
    /// f32-precision batch after a swap does not pay the cast+pack cost.
    pub fn warm_f32(&self) {
        self.f32_plan();
    }

    /// [`Classifier::target_scores_rt`] under an explicit engine
    /// precision. [`EnginePrecision::F64`] is the bit-exact oracle;
    /// [`EnginePrecision::F32`] runs the SIMD micro-kernel path with the
    /// same per-row softmax-max finish evaluated in f32 and widened at the
    /// end — ranking fidelity vs the oracle is tolerance-tested in
    /// `targad-bench`.
    pub fn target_scores_rt_prec(
        &self,
        x: &Matrix,
        rt: &Runtime,
        precision: EnginePrecision,
    ) -> Vec<f64> {
        match precision {
            EnginePrecision::F64 => self.target_scores_rt(x, rt),
            EnginePrecision::F32 => {
                let m = self.m;
                let finish = move |_r: usize, z: &[f32]| {
                    let mx = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0f32;
                    let mut best = f32::NEG_INFINITY;
                    for (j, &v) in z.iter().enumerate() {
                        let e = (v - mx).exp();
                        sum += e;
                        if j < m {
                            best = best.max(e);
                        }
                    }
                    f64::from(best / sum)
                };
                let plan = self.f32_plan();
                self.engine.with(|e| e.score_f32(plan, x, rt, finish))
            }
        }
    }

    /// Eq. 9 scores *and* three-way §III-C classes for each row of `x`,
    /// via the reference (unfused) forward pass. This is the Table IV
    /// decision path; [`Classifier::verdicts_rt`] is the engine-backed
    /// variant that is exact-equality tested against it.
    pub fn verdicts(&self, x: &Matrix, strategy: OodStrategy, tau: f64) -> ScoreOutput {
        let logits = self.logits(x);
        let mut scores = Vec::with_capacity(logits.rows());
        let mut classes = Vec::with_capacity(logits.rows());
        for r in 0..logits.rows() {
            let (s, c) = verdict_of_row(logits.row(r), self.m, self.k, strategy, tau);
            scores.push(s);
            classes.push(c);
        }
        ScoreOutput::new(scores, classes, strategy, tau)
    }

    /// [`Classifier::verdicts`] through the pooled `ScoreEngine` on `rt`:
    /// one fused forward pass produces both the Eq. 9 score and the
    /// three-way class per row. Bit-identical to the reference at any
    /// worker count — the engine reproduces the exact logit chains and the
    /// per-row decision kernel is shared verbatim with the reference path.
    pub fn verdicts_rt(
        &self,
        x: &Matrix,
        rt: &Runtime,
        strategy: OodStrategy,
        tau: f64,
    ) -> ScoreOutput {
        let pairs = self.verdicts_rt_with(x, rt, |_| (strategy, tau));
        let mut scores = Vec::with_capacity(pairs.len());
        let mut classes = Vec::with_capacity(pairs.len());
        for (s, c) in pairs {
            scores.push(s);
            classes.push(c);
        }
        ScoreOutput::new(scores, classes, strategy, tau)
    }

    /// Engine-backed verdicts with a *per-row* decision rule: row `r` is
    /// decided under `select(r) = (strategy, tau)`. This is the serving
    /// micro-batcher's entry point — one coalesced batch can carry
    /// requests that each selected a different OOD strategy, and grouping
    /// them would forfeit the fused-batch advantage the batcher exists to
    /// amortize.
    ///
    /// Per-row results are independent of batch composition (the forward
    /// pass is row-wise and the decision kernel is per-row), so a row
    /// scored in any coalesced batch is bit-identical to the same row
    /// scored alone.
    pub fn verdicts_rt_with<F>(
        &self,
        x: &Matrix,
        rt: &Runtime,
        select: F,
    ) -> Vec<(f64, VerdictClass)>
    where
        F: Fn(usize) -> (OodStrategy, f64) + Sync,
    {
        let m = self.m;
        let k = self.k;
        let finish = move |r: usize, z: &[f64]| {
            let (strategy, tau) = select(r);
            let (score, class) = verdict_of_row(z, m, k, strategy, tau);
            // The class rides the engine's second f64 slot; codes 0/1/2 are
            // exactly representable, so the round-trip is lossless.
            (score, class.code() as f64)
        };
        self.engine
            .with(|e| e.score_pairs(&[(&self.mlp, &self.store)], x, rt, finish))
            .into_iter()
            .map(|(s, c)| {
                let class = VerdictClass::from_code(c as usize).expect("engine class code");
                (s, class)
            })
            .collect()
    }

    /// [`Classifier::verdicts_rt_with`] under an explicit engine precision
    /// — the serving batcher's entry point once a `ServeConfig` opts into
    /// f32 scoring. The f32 arm runs the packed SIMD forward pass and the
    /// single-precision twin of the §III-C decision kernel; thresholds stay
    /// the f64-calibrated ones (scores widen before the comparison).
    pub fn verdicts_rt_with_prec<F>(
        &self,
        x: &Matrix,
        rt: &Runtime,
        precision: EnginePrecision,
        select: F,
    ) -> Vec<(f64, VerdictClass)>
    where
        F: Fn(usize) -> (OodStrategy, f64) + Sync,
    {
        match precision {
            EnginePrecision::F64 => self.verdicts_rt_with(x, rt, select),
            EnginePrecision::F32 => {
                let m = self.m;
                let k = self.k;
                let finish = move |r: usize, z: &[f32]| {
                    let (strategy, tau) = select(r);
                    let (score, class) = verdict_of_row_f32(z, m, k, strategy, tau);
                    (score, class.code() as f64)
                };
                let plan = self.f32_plan();
                self.engine
                    .with(|e| e.score_pairs_f32(plan, x, rt, finish))
                    .into_iter()
                    .map(|(s, c)| {
                        let class = VerdictClass::from_code(c as usize).expect("engine class code");
                        (s, class)
                    })
                    .collect()
            }
        }
    }

    fn target_scores_from(&self, p: Matrix) -> Vec<f64> {
        (0..p.rows())
            .map(|r| {
                p.row(r)[..self.m]
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }

    /// §III-C normality rule: an instance is normal iff the probability
    /// mass on the last `k` dimensions exceeds `k / (m + k)`.
    pub fn is_normal_row(&self, prob_row: &[f64]) -> bool {
        let mass: f64 = prob_row[self.m..].iter().sum();
        mass > self.k as f64 / (self.m + self.k) as f64
    }

    /// The `[in, h1, …, m + k]` layer dimensions (for persistence).
    pub fn layer_dims(&self) -> Vec<usize> {
        self.mlp.dims()
    }

    /// All parameter matrices in layer order: `w1, b1, w2, b2, …`.
    pub fn parameter_matrices(&self) -> Vec<Matrix> {
        let mut out = Vec::with_capacity(2 * self.mlp.num_layers());
        for layer in self.mlp.layers() {
            let (w, b) = layer.params();
            out.push(self.store.value(w).clone());
            out.push(self.store.value(b).clone());
        }
        out
    }

    /// Builds a classifier directly over fitted parameter matrices in
    /// layer order `w1, b1, w2, b2, …` — the model-store load path.
    ///
    /// Unlike rebuilding an initialized skeleton and overwriting its
    /// weights, this never allocates parameter storage that is immediately
    /// thrown away, and the given matrices are registered as-is: matrices
    /// borrowing an `mmap`ed
    /// snapshot (see `targad_linalg::Matrix::from_shared`) stay borrowed,
    /// so the rebuilt classifier scores with zero weight-byte copies.
    pub fn from_parameters(matrices: Vec<Matrix>, m: usize, k: usize) -> Result<Self, String> {
        if matrices.is_empty() || matrices.len() % 2 != 0 {
            return Err(format!(
                "expected a non-empty even number of matrices (w, b per layer), got {}",
                matrices.len()
            ));
        }
        let out_dim = matrices[matrices.len() - 1].cols();
        if m + k != out_dim {
            return Err(format!(
                "m + k = {} does not match the network's {out_dim} outputs",
                m + k
            ));
        }
        let mut pairs: Vec<(Matrix, Matrix)> = Vec::with_capacity(matrices.len() / 2);
        let mut it = matrices.into_iter();
        while let (Some(w), Some(b)) = (it.next(), it.next()) {
            if b.rows() != 1 || b.cols() != w.cols() {
                return Err(format!(
                    "layer {}: bias shape {:?} does not match weights {:?}",
                    pairs.len(),
                    b.shape(),
                    w.shape()
                ));
            }
            if let Some((prev_w, _)) = pairs.last() {
                let prev_out = prev_w.cols();
                if w.rows() != prev_out {
                    return Err(format!(
                        "layer {}: input dim {} does not chain from previous output {prev_out}",
                        pairs.len(),
                        w.rows()
                    ));
                }
            }
            pairs.push((w, b));
        }
        let mut store = VarStore::new();
        let mlp = Mlp::from_params(&mut store, pairs, Activation::Relu, Activation::None);
        Ok(Self {
            store,
            mlp,
            m,
            k,
            engine: EngineCell::new(),
            f32_plan: std::sync::OnceLock::new(),
        })
    }

    /// Heap bytes exclusively owned by the parameter matrices: the f64
    /// element storage for owned weights, `0` contribution from matrices
    /// borrowing a shared buffer (their bytes are accounted by the
    /// mapping's owner). The residency cost the serve LRU charges per
    /// tenant, together with [`Classifier::f32_plan_bytes`].
    pub fn parameter_bytes(&self) -> usize {
        self.mlp
            .layers()
            .iter()
            .flat_map(|l| {
                let (w, b) = l.params();
                [self.store.value(w), self.store.value(b)]
            })
            .map(Matrix::owned_bytes)
            .sum()
    }

    /// Bytes held by the cached f32 cast plan (`0` until built).
    pub fn f32_plan_bytes(&self) -> usize {
        self.f32_plan.get().map_or(0, F32Plan::bytes)
    }

    /// Whether any parameter matrix borrows shared (e.g. `mmap`ed)
    /// storage rather than owning its elements.
    pub fn has_borrowed_parameters(&self) -> bool {
        self.mlp.layers().iter().any(|l| {
            let (w, b) = l.params();
            self.store.value(w).is_borrowed() || self.store.value(b).is_borrowed()
        })
    }
}

// The per-epoch summary structs now live in `targad-obs` (they are event
// payloads); re-exported here so existing `targad_core` paths keep
// resolving.
pub use targad_obs::{CandidateComposition, WeightMeans};

/// Telemetry captured during [`TargAd::fit`], sufficient to regenerate
/// Fig. 3(a) and Fig. 5 of the paper.
///
/// `TrainHistory` is itself a [`TrainObserver`]: every fit drives one
/// internally (that is how [`TargAd::history`] is populated), and tests
/// or tools can attach their own instance to any observed fit.
#[derive(Clone, Debug, Default)]
pub struct TrainHistory {
    /// Mean total classifier loss per epoch (Fig. 3a).
    pub clf_loss: Vec<f64>,
    /// Mean candidate weight per true instance type per epoch (Fig. 5a).
    pub weight_means: Vec<WeightMeans>,
    /// `(three_way_truth, weight)` per candidate at the final epoch
    /// (Fig. 5b's density plot data). Codes: 0 normal / 1 target /
    /// 2 non-target.
    pub final_weights: Vec<(usize, f64)>,
    /// Ground-truth composition of `D_U^A`.
    pub candidate_composition: CandidateComposition,
    /// Mean per-epoch autoencoder losses, averaged over clusters.
    pub ae_loss: Vec<f64>,
}

impl TrainObserver for TrainHistory {
    fn on_selection(&mut self, e: &SelectionEvent<'_>) {
        self.candidate_composition = e.composition.unwrap_or_default();
    }

    fn on_ae_epoch(&mut self, e: &AeEpochEvent) {
        self.ae_loss.push(e.mean_loss);
    }

    fn on_epoch(&mut self, e: &EpochEvent<'_>) {
        self.clf_loss.push(e.loss.total);
        self.weight_means.push(e.weight_means);
    }

    fn on_fit_end(&mut self, e: &FitEndEvent<'_>) {
        if let Some(codes) = e.truth_codes {
            self.final_weights = codes
                .iter()
                .copied()
                .zip(e.final_weights.iter().copied())
                .collect();
        }
    }
}

/// The TargAD model. See the crate docs for the algorithm outline.
pub struct TargAd {
    config: TargAdConfig,
    runtime: Runtime,
    classifier: Option<Classifier>,
    selection: Option<CandidateSelection>,
    history: TrainHistory,
    /// Per-strategy §III-C thresholds calibrated on the fitted classifier
    /// (see [`TargAd::calibrate_thresholds`]); cleared by every fit.
    thresholds: ThresholdCache,
}

impl TargAd {
    /// Creates an unfitted model after validating the configuration.
    ///
    /// Inference runs on [`Runtime::from_env`] (the `TARGAD_THREADS`
    /// environment variable, falling back to the machine's parallelism);
    /// override with [`TargAd::with_runtime`]. The thread count never
    /// affects results — scoring is bit-identical at any worker count.
    ///
    /// # Errors
    /// [`TargAdError::InvalidConfig`] naming the first invalid field (see
    /// [`TargAdConfig::try_validate`]).
    pub fn try_new(config: TargAdConfig) -> Result<Self, TargAdError> {
        config.try_validate()?;
        Ok(Self {
            config,
            runtime: Runtime::from_env(),
            classifier: None,
            selection: None,
            history: TrainHistory::default(),
            thresholds: ThresholdCache::default(),
        })
    }

    /// Replaces the execution runtime used for inference.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// The execution runtime used for inference.
    pub fn runtime(&self) -> Runtime {
        self.runtime
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &TargAdConfig {
        &self.config
    }

    /// Runs Algorithm 1 on `train`.
    ///
    /// # Errors
    /// [`TargAdError::NoLabeledAnomalies`] if `D_L` is empty,
    /// [`TargAdError::TooFewUnlabeled`] if `D_U` is smaller than the number
    /// of requested clusters, and [`TargAdError::NonFinite`] naming the
    /// first NaN or infinite feature by its row in `train` (labeled rows are
    /// scanned before unlabeled ones). All are checked before any training
    /// work starts.
    pub fn fit(&mut self, train: &Dataset, seed: u64) -> Result<(), TargAdError> {
        self.fit_observed(train, seed, &mut NullObserver)
    }

    /// Like [`TargAd::fit`], streaming structured telemetry into
    /// `observer` (see [`TrainObserver`]): typed per-epoch events carrying
    /// the `L_CE`/`L_OE`/`L_RE` loss decomposition, OE-weight summaries
    /// (Eqs. 4–5), candidate churn, and gradient-clip activations.
    ///
    /// Telemetry is strictly read-only: the fitted model is bit-identical
    /// with any observer attached, including none.
    ///
    /// # Errors
    /// Same contract as [`TargAd::fit`].
    pub fn fit_observed(
        &mut self,
        train: &Dataset,
        seed: u64,
        observer: &mut dyn TrainObserver,
    ) -> Result<(), TargAdError> {
        match self.fit_view_observed(&TrainView::from_dataset(train), seed, observer) {
            // Map the view's labeled-then-unlabeled row back to `train`.
            Err(TargAdError::NonFinite { row, col }) => {
                let labeled = train.labeled_indices();
                let row = match labeled.get(row) {
                    Some(&i) => i,
                    None => train.unlabeled_indices()[row - labeled.len()],
                };
                Err(TargAdError::NonFinite { row, col })
            }
            result => result,
        }
    }

    /// Runs Algorithm 1 on a [`TrainView`] — the [`Detector`] entry point.
    ///
    /// Telemetry that needs ground truth ([`TrainHistory::final_weights`],
    /// [`TrainHistory::candidate_composition`], per-type
    /// [`TrainHistory::weight_means`]) is recorded only when
    /// [`TrainView::unlabeled_truth`] is present; the fitted model itself
    /// never depends on truth.
    ///
    /// # Errors
    /// Same contract as [`TargAd::fit`], except that a
    /// [`TargAdError::NonFinite`] row counts the rows of
    /// [`TrainView::labeled`] first, then those of [`TrainView::unlabeled`].
    pub fn fit_view(&mut self, view: &TrainView, seed: u64) -> Result<(), TargAdError> {
        self.fit_view_observed(view, seed, &mut NullObserver)
    }

    /// [`TargAd::fit_view`] streaming telemetry into `observer` — the
    /// [`TrainView`] variant of [`TargAd::fit_observed`].
    ///
    /// # Errors
    /// Same contract as [`TargAd::fit_view`].
    pub fn fit_view_observed(
        &mut self,
        view: &TrainView,
        seed: u64,
        observer: &mut dyn TrainObserver,
    ) -> Result<(), TargAdError> {
        self.fit_inner(view, seed, observer, &mut |_, _| {})
    }

    /// The one fit implementation behind every public entry point: runs
    /// Algorithm 1, drives `observer` (plus the model's own
    /// [`TrainHistory`]) with typed events, and calls `monitor` after each
    /// classifier epoch.
    fn fit_inner(
        &mut self,
        view: &TrainView,
        seed: u64,
        observer: &mut dyn TrainObserver,
        monitor: &mut dyn FnMut(usize, &Classifier),
    ) -> Result<(), TargAdError> {
        let xl = &view.labeled;
        let labeled_classes = &view.labeled_classes;
        if xl.rows() == 0 {
            return Err(TargAdError::NoLabeledAnomalies);
        }
        let xu = &view.unlabeled;
        let need = self.config.k.unwrap_or(self.config.elbow_range.1).max(10);
        if xu.rows() < need {
            return Err(TargAdError::TooFewUnlabeled {
                have: xu.rows(),
                need,
            });
        }
        // One scan of every training cell: a NaN or infinity would
        // otherwise surface deep inside candidate selection as a panic.
        let first_non_finite = |x: &Matrix| {
            let i = x.as_slice().iter().position(|v| !v.is_finite())?;
            Some((i / x.cols(), i % x.cols()))
        };
        if let Some((row, col)) =
            first_non_finite(xl).or_else(|| first_non_finite(xu).map(|(r, c)| (xl.rows() + r, c)))
        {
            return Err(TargAdError::NonFinite { row, col });
        }

        let m = labeled_classes.iter().copied().max().map_or(1, |c| c + 1);

        let fit_clock = std::time::Instant::now();
        let _fit_span = targad_obs::span(&targad_obs::profile::PHASE_FIT);
        let mut history = TrainHistory::default();
        {
            let e = FitStartEvent {
                model: "TargAD",
                n_labeled: xl.rows(),
                n_unlabeled: xu.rows(),
                dims: view.dims(),
                m,
                epochs: self.config.clf_epochs,
                threads: self.runtime.threads(),
                lambda1: self.config.lambda1,
                lambda2: self.config.lambda2,
            };
            history.on_fit_start(&e);
            observer.on_fit_start(&e);
        }

        // ---- Candidate selection (Lines 1–7) ----------------------------
        let selection = CandidateSelection::run_rt(xu, xl, &self.config, seed, &self.runtime);
        let k = selection.k;

        if !selection.autoencoders.is_empty() {
            let epochs = selection.autoencoders[0].loss_history.len();
            for e in 0..epochs {
                let mean_loss = stats::mean(
                    &selection
                        .autoencoders
                        .iter()
                        .map(|ae| ae.loss_history[e])
                        .collect::<Vec<_>>(),
                );
                let ev = AeEpochEvent {
                    epoch: e,
                    mean_loss,
                };
                history.on_ae_epoch(&ev);
                observer.on_ae_epoch(&ev);
            }
        }

        // ---- Detection data assembly ------------------------------------
        let xn = xu.take_rows(&selection.normal_candidates);
        let xa = xu.take_rows(&selection.anomaly_candidates);

        // Pseudo-labels (§III-B2). Targets: one-hot in the first m dims.
        let yl = one_hot_rows(labeled_classes, 0, m + k);
        // Normal candidates: one-hot at m + cluster index.
        let normal_clusters: Vec<usize> = selection
            .normal_candidates
            .iter()
            .map(|&i| m + selection.cluster_of[i])
            .collect();
        let yn = one_hot_rows(&normal_clusters, 0, m + k);
        // Non-target candidates: (1/m, …, 1/m, 0, …, 0) — or the vanilla OE
        // uniform 1/(m+k) under the pseudo-label ablation.
        let yo_row: Vec<f64> = if self.config.vanilla_oe_labels {
            vec![1.0 / (m + k) as f64; m + k]
        } else {
            let mut row = vec![0.0; m + k];
            for v in row.iter_mut().take(m) {
                *v = 1.0 / m as f64;
            }
            row
        };
        let ya = Matrix::from_rows(&vec![yo_row; xa.rows().max(1)])
            .take_rows(&(0..xa.rows()).collect::<Vec<_>>());

        // Candidate ground truth (telemetry only; absent without truth).
        let cand_truth: Option<Vec<usize>> = view.unlabeled_truth.as_ref().map(|truth| {
            selection
                .anomaly_candidates
                .iter()
                .map(|&i| truth[i].three_way())
                .collect()
        });
        let composition = cand_truth.as_ref().map(|codes| {
            let mut comp = CandidateComposition::default();
            for &t in codes {
                match t {
                    0 => comp.normal += 1,
                    1 => comp.target += 1,
                    _ => comp.non_target += 1,
                }
            }
            comp
        });
        {
            let clusters = cluster_recon_stats(&selection.cluster_of, &selection.recon_errors, k);
            let threshold = selection
                .anomaly_candidates
                .iter()
                .map(|&i| selection.recon_errors[i])
                .fold(f64::NAN, f64::min);
            let e = SelectionEvent {
                k,
                n_anomaly: selection.anomaly_candidates.len(),
                n_normal: selection.normal_candidates.len(),
                threshold,
                clusters: &clusters,
                composition,
            };
            history.on_selection(&e);
            observer.on_selection(&e);
        }

        // Initial weights from reconstruction errors (Eq. 5).
        let cand_errors: Vec<f64> = selection
            .anomaly_candidates
            .iter()
            .map(|&i| selection.recon_errors[i])
            .collect();
        let mut weights = normalize_inverted(&cand_errors);

        // ---- Classifier training (Lines 8–16) ---------------------------
        let mut rng = lrng::seeded(seed ^ 0xCAFE);
        let mut store = VarStore::new();
        let mut dims = vec![view.dims()];
        dims.extend_from_slice(&self.config.clf_hidden);
        dims.push(m + k);
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            &dims,
            Activation::Relu,
            Activation::None,
        );
        let mut clf = Classifier {
            store,
            mlp,
            m,
            k,
            engine: EngineCell::new(),
            f32_plan: std::sync::OnceLock::new(),
        };
        let mut opt: Box<dyn Optimizer> = if self.config.clf_sgd {
            Box::new(Sgd::with_momentum(self.config.clf_lr, 0.9))
        } else {
            Box::new(Adam::new(self.config.clf_lr))
        };

        let bs = self.config.clf_batch;
        // One sharded-step driver for the whole fit: its per-worker tape
        // pools and per-shard gradient buffers are allocated on the first
        // step and reused by every later one.
        let mut sharded = ShardedStep::new();
        // §III-C normality verdict per candidate at the previous epoch's
        // weight update — flips between epochs measure how unsettled the
        // candidate split still is (telemetry only).
        let mut prev_verdicts: Option<Vec<bool>> = None;
        let _clf_span = targad_obs::span(&targad_obs::profile::PHASE_CLF);
        for epoch in 0..self.config.clf_epochs {
            let _epoch_span = targad_obs::span(&targad_obs::profile::PHASE_CLF_EPOCH);
            let mut eps_used: Option<Vec<f64>> = None;
            let mut candidate_flips: Option<usize> = None;
            if epoch > 0 && self.config.update_weights && !weights.is_empty() {
                // Eq. 4: weight from the max predicted probability.
                let p = clf.probabilities(&xa);
                let eps: Vec<f64> = (0..p.rows()).map(|r| p.max_row(r)).collect();
                weights = normalize_inverted(&eps);
                // Candidate churn, from the same probabilities Eq. 4
                // already computed (no extra forward pass).
                let verdicts: Vec<bool> =
                    (0..p.rows()).map(|r| clf.is_normal_row(p.row(r))).collect();
                candidate_flips = prev_verdicts
                    .as_ref()
                    .map(|prev| prev.iter().zip(&verdicts).filter(|(a, b)| a != b).count());
                prev_verdicts = Some(verdicts);
                eps_used = Some(eps);
            }
            let weight_means = match &cand_truth {
                Some(codes) => weight_means_of(codes, &weights),
                None => WeightMeans {
                    normal: f64::NAN,
                    target: f64::NAN,
                    non_target: f64::NAN,
                },
            };

            let n_batches = shuffled_batches(&mut rng, xn.rows(), bs);
            let steps = n_batches.len().max(1);
            let a_chunk = xa.rows().div_ceil(steps).max(1);
            let a_perm = lrng::permutation(&mut rng, xa.rows());
            let l_perm = lrng::permutation(&mut rng, xl.rows());
            let l_chunk = xl.rows().clamp(1, 256);

            let mut epoch_loss = 0.0;
            let mut epoch_parts = Parts::default();
            let mut clip_activations = 0usize;
            for (step, n_batch) in n_batches.iter().enumerate() {
                let a_batch: Vec<usize> = a_perm
                    .iter()
                    .copied()
                    .skip(step * a_chunk % xa.rows().max(1))
                    .take(a_chunk.min(xa.rows()))
                    .collect();
                let l_start = (step * l_chunk) % xl.rows();
                let l_batch: Vec<usize> = (0..l_chunk)
                    .map(|i| l_perm[(l_start + i) % xl.rows()])
                    .collect();

                let stats = self.train_step(
                    &mut sharded,
                    &mut clf,
                    opt.as_mut(),
                    xl,
                    &yl,
                    &l_batch,
                    &xn,
                    &yn,
                    n_batch,
                    &xa,
                    &ya,
                    &weights,
                    &a_batch,
                );
                epoch_loss += stats.loss;
                for (acc, p) in epoch_parts.iter_mut().zip(stats.parts) {
                    *acc += p;
                }
                clip_activations += usize::from(stats.clipped);
            }
            {
                let steps_f = steps as f64;
                let e = EpochEvent {
                    epoch,
                    steps,
                    loss: LossDecomposition {
                        ce: epoch_parts[PART_CE] / steps_f,
                        oe: epoch_parts[PART_OE] / steps_f,
                        re: epoch_parts[PART_RE] / steps_f,
                        lambda1: self.config.lambda1,
                        lambda2: self.config.lambda2,
                        total: epoch_loss / steps_f,
                    },
                    oe_weights: WeightSummary::from_weights(&weights),
                    weights: &weights,
                    eps: eps_used.as_deref(),
                    weight_means,
                    candidate_flips,
                    clip_activations,
                    grad_clip: self.config.grad_clip,
                };
                history.on_epoch(&e);
                observer.on_epoch(&e);
            }
            targad_obs::metrics::TRAIN_EPOCHS.inc();
            monitor(epoch, &clf);
        }

        {
            let e = FitEndEvent {
                epochs: self.config.clf_epochs,
                final_weights: &weights,
                truth_codes: cand_truth.as_deref(),
                wall_ns: u64::try_from(fit_clock.elapsed().as_nanos()).unwrap_or(u64::MAX),
            };
            history.on_fit_end(&e);
            observer.on_fit_end(&e);
        }

        self.classifier = Some(clf);
        self.selection = Some(selection);
        self.history = history;
        // Thresholds calibrated against a previous fit's classifier are
        // meaningless for this one.
        self.thresholds = ThresholdCache::default();
        Ok(())
    }

    /// One optimizer step over the three pseudo-labeled batches; returns
    /// the scalar loss, its CE/OE/RE decomposition, and whether the
    /// gradient clip engaged.
    ///
    /// Each set's batch is split into fixed worker-count-independent shards
    /// ([`targad_nn::SHARD_ROWS`] rows each); shard gradients accumulate in
    /// disjoint buffers and reduce into the store in ascending shard order,
    /// so the step — and hence the whole fit — is bit-identical at any
    /// `TARGAD_THREADS`. The decomposition partials are *values of nodes
    /// the forward graph builds anyway* (recorded via
    /// [`ShardedStep::accumulate_parts`]), so collecting them adds no tape
    /// nodes and cannot perturb gradients or the total loss.
    #[allow(clippy::too_many_arguments)]
    fn train_step(
        &self,
        step: &mut ShardedStep,
        clf: &mut Classifier,
        opt: &mut dyn Optimizer,
        xl: &Matrix,
        yl: &Matrix,
        l_batch: &[usize],
        xn: &Matrix,
        yn: &Matrix,
        n_batch: &[usize],
        xa: &Matrix,
        ya: &Matrix,
        weights: &[f64],
        a_batch: &[usize],
    ) -> StepStats {
        let rt = &self.runtime;
        let store = &mut clf.store;
        let mlp = &clf.mlp;
        store.zero_grads();

        let use_re = self.config.use_re;
        let lambda2 = self.config.lambda2;
        let w_l = xl.rows() as f64 / (xl.rows() + xn.rows()) as f64;

        // L_CE over D_L (Eq. 3) plus D_L's share of L_RE (Eq. 7). Sign
        // convention for L_RE: we minimize the *entropy* H(p) = −Σ p log p
        // so the regularizer boosts prediction confidence, which is the
        // behaviour the paper describes for this term (its Eq. 7 prints
        // Σ p log p; minimizing that literal expression would maximize
        // entropy instead).
        let (mut loss, mut parts) =
            step.accumulate_parts(rt, store, l_batch.len(), |tape, store, range, parts| {
                let rows = &l_batch[range];
                let xb = tape.input_rows_from(xl, rows);
                let z = mlp.forward(tape, store, xb);
                let ce = ce_partial(tape, z, yl, rows, l_batch.len());
                parts[PART_CE] += tape.value(ce)[(0, 0)];
                if use_re {
                    let ent = entropy_partial(tape, z, l_batch.len());
                    parts[PART_RE] += w_l * tape.value(ent)[(0, 0)];
                    tape.add_scaled(ce, ent, lambda2 * w_l)
                } else {
                    ce
                }
            });

        // L_CE and L_RE over D_U^N.
        let (l2, p2) =
            step.accumulate_parts(rt, store, n_batch.len(), |tape, store, range, parts| {
                let rows = &n_batch[range];
                let xb = tape.input_rows_from(xn, rows);
                let z = mlp.forward(tape, store, xb);
                let ce = ce_partial(tape, z, yn, rows, n_batch.len());
                parts[PART_CE] += tape.value(ce)[(0, 0)];
                if use_re {
                    let ent = entropy_partial(tape, z, n_batch.len());
                    parts[PART_RE] += (1.0 - w_l) * tape.value(ent)[(0, 0)];
                    tape.add_scaled(ce, ent, lambda2 * (1.0 - w_l))
                } else {
                    ce
                }
            });
        loss += l2;
        for (acc, p) in parts.iter_mut().zip(p2) {
            *acc += p;
        }

        // L_OE over D_U^A (Eq. 6) with the per-instance Eq. 4/5 weights.
        if self.config.use_oe && !a_batch.is_empty() {
            let lambda1 = self.config.lambda1;
            let (l3, p3) =
                step.accumulate_parts(rt, store, a_batch.len(), |tape, store, range, parts| {
                    let rows = &a_batch[range];
                    let xb = tape.input_rows_from(xa, rows);
                    let z = mlp.forward(tape, store, xb);
                    let oe = weighted_ce_partial(tape, z, ya, rows, weights, a_batch.len());
                    parts[PART_OE] += tape.value(oe)[(0, 0)];
                    tape.scale(oe, lambda1)
                });
            loss += l3;
            for (acc, p) in parts.iter_mut().zip(p3) {
                *acc += p;
            }
        }

        let _apply_span = targad_obs::span(&targad_obs::profile::PHASE_STEP_APPLY);
        let norm = clip_grad_norm(store, self.config.grad_clip);
        opt.step(store);
        StepStats {
            loss,
            parts,
            clipped: norm > self.config.grad_clip,
        }
    }

    /// The fitted classifier.
    ///
    /// # Errors
    /// [`TargAdError::NotFitted`] before a successful [`TargAd::fit`].
    pub fn classifier(&self) -> Result<&Classifier, TargAdError> {
        self.classifier.as_ref().ok_or(TargAdError::NotFitted)
    }

    /// The candidate-selection output of the last fit.
    ///
    /// # Errors
    /// [`TargAdError::NotFitted`] before a successful [`TargAd::fit`].
    pub fn selection(&self) -> Result<&CandidateSelection, TargAdError> {
        self.selection.as_ref().ok_or(TargAdError::NotFitted)
    }

    /// Training telemetry of the last fit.
    pub fn history(&self) -> &TrainHistory {
        &self.history
    }

    /// Target-anomaly scores (Eq. 9) for each row of `x`.
    ///
    /// The forward pass runs on this model's [`Runtime`]; results are
    /// bit-identical at any worker count.
    ///
    /// # Errors
    /// [`TargAdError::NotFitted`] / [`TargAdError::DimMismatch`].
    pub fn try_score_matrix(&self, x: &Matrix) -> Result<Vec<f64>, TargAdError> {
        let clf = self.checked_classifier(x)?;
        Ok(clf.target_scores_rt(x, &self.runtime))
    }

    /// Convenience: scores a whole [`Dataset`].
    ///
    /// # Errors
    /// Same contract as [`TargAd::try_score_matrix`].
    pub fn try_score_dataset(&self, dataset: &Dataset) -> Result<Vec<f64>, TargAdError> {
        self.try_score_matrix(&dataset.features)
    }

    /// The fitted classifier after a dimensionality check against `x`.
    fn checked_classifier(&self, x: &Matrix) -> Result<&Classifier, TargAdError> {
        let clf = self.classifier()?;
        if x.cols() != clf.input_dim() {
            return Err(TargAdError::DimMismatch {
                expected: clf.input_dim(),
                got: x.cols(),
            });
        }
        Ok(clf)
    }

    /// Calibrates and caches the §III-C `tau` for **all three** OOD
    /// strategies on validation data with three-way truth (0 normal /
    /// 1 target / 2 non-target), so later verdict calls do zero
    /// calibration work — the fix the serving path depends on. Returns the
    /// resulting cache (also retrievable via [`TargAd::thresholds`]).
    ///
    /// # Errors
    /// [`TargAdError::NotFitted`] / [`TargAdError::DimMismatch`].
    pub fn calibrate_thresholds(
        &mut self,
        val_x: &Matrix,
        val_truth3: &[usize],
    ) -> Result<ThresholdCache, TargAdError> {
        let clf = self.checked_classifier(val_x)?;
        let mut cache = ThresholdCache::default();
        for strategy in OodStrategy::all() {
            cache.set(strategy, calibrate_tau(clf, val_x, val_truth3, strategy));
        }
        self.thresholds = cache;
        Ok(cache)
    }

    /// The calibrated per-strategy threshold cache (empty until
    /// [`TargAd::calibrate_thresholds`] or [`TargAd::set_thresholds`]).
    pub fn thresholds(&self) -> &ThresholdCache {
        &self.thresholds
    }

    /// Installs externally produced thresholds (e.g. restored from a v2
    /// snapshot alongside the classifier).
    pub fn set_thresholds(&mut self, thresholds: ThresholdCache) {
        self.thresholds = thresholds;
    }

    /// Verdict-first scoring: Eq. 9 score plus the three-way §III-C class
    /// for each row of `x`, under `strategy`'s cached threshold. Runs one
    /// fused engine pass on this model's [`Runtime`]; bit-identical to the
    /// Table IV reference path at any worker count.
    ///
    /// # Errors
    /// [`TargAdError::NotFitted`] / [`TargAdError::DimMismatch`] /
    /// [`TargAdError::NotCalibrated`] when `strategy` has no cached
    /// threshold (call [`TargAd::calibrate_thresholds`] first).
    pub fn try_verdict_matrix(
        &self,
        x: &Matrix,
        strategy: OodStrategy,
    ) -> Result<ScoreOutput, TargAdError> {
        let clf = self.checked_classifier(x)?;
        let tau = self
            .thresholds
            .get(strategy)
            .ok_or(TargAdError::NotCalibrated { strategy })?;
        Ok(clf.verdicts_rt(x, &self.runtime, strategy, tau))
    }

    /// Convenience: verdicts for a whole [`Dataset`].
    ///
    /// # Errors
    /// Same contract as [`TargAd::try_verdict_matrix`].
    pub fn try_verdict_dataset(
        &self,
        dataset: &Dataset,
        strategy: OodStrategy,
    ) -> Result<ScoreOutput, TargAdError> {
        self.try_verdict_matrix(&dataset.features, strategy)
    }
}

impl Detector for TargAd {
    fn name(&self) -> &'static str {
        "TargAD"
    }

    fn fit(&mut self, train: &TrainView, seed: u64) -> Result<(), TargAdError> {
        self.fit_view(train, seed)
    }

    /// # Panics
    /// Panics when called before a successful fit (the [`Detector::score`]
    /// contract); [`TargAd::try_score_matrix`] is the fallible variant.
    fn score(&self, x: &Matrix) -> Vec<f64> {
        self.try_score_matrix(x)
            .expect("TargAd: score before successful fit")
    }

    fn try_score(&self, x: &Matrix) -> Result<Vec<f64>, TargAdError> {
        self.try_score_matrix(x)
    }

    /// TargAD calibrates both thresholds: the §III-C `tau` splitting
    /// target from non-target anomalies (the default trait impl has no
    /// OOD head and reuses the scalar threshold) plus the scalar score
    /// threshold for two-way interop.
    fn calibrate(
        &self,
        val_x: &Matrix,
        val_truth3: &[usize],
        strategy: OodStrategy,
    ) -> Result<Calibration, TargAdError> {
        let clf = self.checked_classifier(val_x)?;
        let tau = calibrate_tau(clf, val_x, val_truth3, strategy);
        let scores = self.try_score_matrix(val_x)?;
        let score_threshold = crate::verdict::calibrate_score_threshold(&scores, val_truth3);
        Ok(Calibration {
            strategy,
            tau,
            score_threshold,
        })
    }

    /// The full three-way §III-C verdict (the default trait impl can only
    /// do two-way), via one fused engine pass.
    fn try_verdicts(
        &self,
        x: &Matrix,
        calibration: &Calibration,
    ) -> Result<ScoreOutput, TargAdError> {
        let clf = self.checked_classifier(x)?;
        Ok(clf.verdicts_rt(x, &self.runtime, calibration.strategy, calibration.tau))
    }

    fn fit_traced(
        &mut self,
        train: &TrainView,
        seed: u64,
        probe: &Matrix,
        trace: &mut dyn FnMut(usize, Vec<f64>),
    ) -> Result<(), TargAdError> {
        let runtime = self.runtime;
        self.fit_inner(train, seed, &mut NullObserver, &mut |epoch, clf| {
            trace(epoch, clf.target_scores_rt(probe, &runtime));
        })
    }
}

/// Builds a one-hot matrix with ones at `offset + code[i]`.
fn one_hot_rows(codes: &[usize], offset: usize, width: usize) -> Matrix {
    let mut m = Matrix::zeros(codes.len(), width);
    for (r, &c) in codes.iter().enumerate() {
        m[(r, offset + c)] = 1.0;
    }
    m
}

/// `(max − v) / (max − min)` normalization shared by Eq. 4 and Eq. 5
/// (all-ones when the values are degenerate).
fn normalize_inverted(values: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let max = stats::max(values);
    let min = stats::min(values);
    if max - min <= f64::EPSILON {
        return vec![1.0; values.len()];
    }
    values.iter().map(|&v| (max - v) / (max - min)).collect()
}

fn weight_means_of(truth: &[usize], weights: &[f64]) -> WeightMeans {
    let mean_of = |code: usize| -> f64 {
        let vals: Vec<f64> = truth
            .iter()
            .zip(weights)
            .filter(|(&t, _)| t == code)
            .map(|(_, &w)| w)
            .collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            stats::mean(&vals)
        }
    };
    WeightMeans {
        normal: mean_of(0),
        target: mean_of(1),
        non_target: mean_of(2),
    }
}

/// One optimizer step's telemetry: total loss, CE/OE/RE partials, and
/// whether gradient clipping engaged.
struct StepStats {
    loss: f64,
    parts: Parts,
    clipped: bool,
}

/// Reconstruction-error quantiles (`[min, q25, median, q75, max]`) per
/// cluster, for the selection telemetry event.
fn cluster_recon_stats(
    cluster_of: &[usize],
    recon_errors: &[f64],
    k: usize,
) -> Vec<targad_obs::ClusterReconStats> {
    (0..k)
        .map(|c| {
            let mut errs: Vec<f64> = cluster_of
                .iter()
                .zip(recon_errors)
                .filter(|(&cl, _)| cl == c)
                .map(|(_, &e)| e)
                .collect();
            errs.sort_by(|a, b| a.partial_cmp(b).expect("NaN recon error"));
            let q = |frac: f64| -> f64 {
                if errs.is_empty() {
                    return f64::NAN;
                }
                errs[((frac * (errs.len() - 1) as f64).round() as usize).min(errs.len() - 1)]
            };
            targad_obs::ClusterReconStats {
                cluster: c,
                size: errs.len(),
                quantiles: [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)],
            }
        })
        .collect()
}

/// Shard partial of `−(1/n_total) Σ_rows Σ_j y_j log p_j` from logits `z`
/// and the listed rows of a constant target matrix. Partials over a shard
/// partition of a batch sum to the batch's cross-entropy mean.
fn ce_partial(tape: &mut Tape, z: Var, targets: &Matrix, rows: &[usize], n_total: usize) -> Var {
    let n = n_total.max(1) as f64;
    let y = tape.input_rows_from(targets, rows);
    let lp = tape.log_softmax_rows(z);
    let prod = tape.mul(y, lp);
    let total = tape.sum_all(prod);
    tape.scale(total, -1.0 / n)
}

/// Weighted variant of [`ce_partial`] (Eq. 6): row `i` of the shard is
/// weighted by `weights[rows[i]]`, gathered straight into a pooled tape
/// input (no per-step `Vec` of weights).
fn weighted_ce_partial(
    tape: &mut Tape,
    z: Var,
    targets: &Matrix,
    rows: &[usize],
    weights: &[f64],
    n_total: usize,
) -> Var {
    let n = n_total.max(1) as f64;
    let y = tape.input_rows_from(targets, rows);
    let w = tape.input_gather_col(weights, rows);
    let lp = tape.log_softmax_rows(z);
    let prod = tape.mul(y, lp);
    let per_row = tape.row_sum(prod);
    let weighted = tape.mul_col_broadcast(per_row, w);
    let total = tape.sum_all(weighted);
    tape.scale(total, -1.0 / n)
}

/// Shard partial of the mean entropy `H(p) = −Σ p log p` of the softmax of
/// logits `z`: the shard's entropy sum divided by the full batch size.
fn entropy_partial(tape: &mut Tape, z: Var, n_total: usize) -> Var {
    let p = tape.softmax_rows(z);
    let lp = tape.log_softmax_rows(z);
    let prod = tape.mul(p, lp);
    let rows = tape.row_sum(prod);
    let sum = tape.sum_div(rows, n_total.max(1) as f64);
    tape.scale(sum, -1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use targad_data::GeneratorSpec;
    use targad_metrics::{auroc, average_precision};

    fn fitted_model(seed: u64) -> (TargAd, targad_data::DatasetBundle) {
        let bundle = GeneratorSpec::quick_demo().generate(seed);
        let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
        model.fit(&bundle.train, seed).expect("fit succeeds");
        (model, bundle)
    }

    #[test]
    fn fit_rejects_empty_labeled_set() {
        let bundle = GeneratorSpec::quick_demo().generate(1);
        let mut unlabeled = bundle.train.clone();
        unlabeled.labeled.iter_mut().for_each(|l| *l = false);
        let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
        assert_eq!(
            model.fit(&unlabeled, 1),
            Err(TargAdError::NoLabeledAnomalies)
        );
    }

    /// A NaN or infinite training cell, labeled or unlabeled, is reported
    /// as a typed error before any training work.
    #[test]
    fn fit_rejects_non_finite_features() {
        let bundle = GeneratorSpec::quick_demo().generate(29);
        let labeled = bundle.train.labeled_indices();
        let unlabeled = bundle.train.unlabeled_indices();
        // (dataset row, row of the same cell in the training view, where
        // labeled rows come first).
        let cases = [(labeled[3], 3), (unlabeled[17], labeled.len() + 17)];
        for (row, view_row) in cases {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut poisoned = bundle.train.clone();
                poisoned.features[(row, 4)] = bad;
                let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
                assert_eq!(
                    model.fit(&poisoned, 29),
                    Err(TargAdError::NonFinite { row, col: 4 }),
                    "{bad} at dataset row {row}"
                );
                assert_eq!(
                    model.fit_view(&TrainView::from_dataset(&poisoned), 29),
                    Err(TargAdError::NonFinite {
                        row: view_row,
                        col: 4
                    }),
                    "{bad} at view row {view_row}"
                );
                assert_eq!(model.classifier().err(), Some(TargAdError::NotFitted));
            }
        }
    }

    #[test]
    fn unfitted_model_errors() {
        let model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
        assert_eq!(model.classifier().err(), Some(TargAdError::NotFitted));
        assert_eq!(
            model.try_score_matrix(&Matrix::ones(1, 12)).err(),
            Some(TargAdError::NotFitted)
        );
    }

    #[test]
    fn dim_mismatch_detected() {
        let (model, _) = fitted_model(2);
        assert!(matches!(
            model.try_score_matrix(&Matrix::ones(1, 5)),
            Err(TargAdError::DimMismatch {
                expected: 12,
                got: 5
            })
        ));
    }

    #[test]
    fn detects_target_anomalies_well_above_chance() {
        let (model, bundle) = fitted_model(3);
        let scores = model.try_score_dataset(&bundle.test).unwrap();
        let labels = bundle.test.target_labels();
        let prevalence = labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64;
        let ap = average_precision(&scores, &labels);
        let roc = auroc(&scores, &labels);
        assert!(ap > 3.0 * prevalence, "AP {ap} vs prevalence {prevalence}");
        assert!(roc > 0.8, "AUROC {roc}");
    }

    #[test]
    fn scores_are_valid_probabilities() {
        let (model, bundle) = fitted_model(4);
        let scores = model.try_score_dataset(&bundle.test).unwrap();
        assert!(scores
            .iter()
            .all(|&s| (0.0..=1.0).contains(&s) && s.is_finite()));
    }

    #[test]
    fn probabilities_rows_sum_to_one() {
        let (model, bundle) = fitted_model(5);
        let clf = model.classifier().unwrap();
        let p = clf.probabilities(&bundle.test.features);
        assert_eq!(p.cols(), clf.m() + clf.k());
        for r in 0..p.rows().min(50) {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn history_records_all_epochs() {
        let (model, _) = fitted_model(6);
        let h = model.history();
        let epochs = model.config().clf_epochs;
        assert_eq!(h.clf_loss.len(), epochs);
        assert_eq!(h.weight_means.len(), epochs);
        assert!(!h.final_weights.is_empty());
        assert!(!h.ae_loss.is_empty());
        let comp = h.candidate_composition;
        assert_eq!(
            comp.normal + comp.target + comp.non_target,
            model.selection().unwrap().anomaly_candidates.len()
        );
    }

    #[test]
    fn loss_decreases_during_training() {
        let (model, _) = fitted_model(7);
        let loss = &model.history().clf_loss;
        let early = loss[..3].iter().sum::<f64>() / 3.0;
        let late = loss[loss.len() - 3..].iter().sum::<f64>() / 3.0;
        assert!(
            late < early,
            "loss did not decrease: early {early}, late {late}"
        );
    }

    #[test]
    fn weights_stay_in_unit_interval() {
        let (model, _) = fitted_model(8);
        assert!(model
            .history()
            .final_weights
            .iter()
            .all(|&(_, w)| (0.0..=1.0).contains(&w)));
    }

    #[test]
    fn non_targets_gain_weight_over_training() {
        // Fig. 5a's headline effect: by the final epochs the mean weight of
        // true non-target anomalies exceeds the mean weight of normal
        // instances hiding among the candidates.
        let (model, _) = fitted_model(9);
        let last = model.history().weight_means.last().unwrap();
        if !last.non_target.is_nan() && !last.normal.is_nan() {
            assert!(
                last.non_target > last.normal,
                "non-target {} vs normal {}",
                last.non_target,
                last.normal
            );
        }
    }

    /// `Detector::fit_traced` reports probe scores after every classifier
    /// epoch, and the last report is the fitted model's score.
    #[test]
    fn fit_traced_reports_every_epoch() {
        let bundle = GeneratorSpec::quick_demo().generate(10);
        let view = TrainView::from_dataset(&bundle.train);
        let probe = &bundle.test.features;
        let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
        let mut calls = Vec::new();
        let mut last = Vec::new();
        model
            .fit_traced(&view, 10, probe, &mut |epoch, scores| {
                assert_eq!(scores.len(), probe.rows());
                calls.push(epoch);
                last = scores;
            })
            .expect("fit");
        assert_eq!(calls, (0..model.config().clf_epochs).collect::<Vec<_>>());
        assert_eq!(last, model.try_score_matrix(probe).expect("fitted"));
    }

    /// The observer API delivers one epoch event per configured epoch with
    /// the same loss trace the history records, and a final-weights event.
    #[test]
    fn observer_receives_full_event_stream() {
        let bundle = GeneratorSpec::quick_demo().generate(13);
        let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
        let mut rec = targad_obs::events::Recorder::new();
        model
            .fit_observed(&bundle.train, 13, &mut rec)
            .expect("fit");
        let epochs = model.config().clf_epochs;
        assert!(rec.fit_start.is_some());
        assert!(rec.selection.is_some());
        assert_eq!(rec.epochs.len(), epochs);
        let history_loss: Vec<f64> = model.history().clf_loss.clone();
        let event_loss: Vec<f64> = rec.epochs.iter().map(|e| e.loss.total).collect();
        assert_eq!(history_loss, event_loss);
        assert!(!rec.final_weights.is_empty());
        assert!(!rec.clusters.is_empty());
        assert!(rec.epochs.iter().all(|e| e.steps > 0));
    }

    #[test]
    fn fit_is_deterministic_given_seed() {
        let bundle = GeneratorSpec::quick_demo().generate(11);
        let mut a = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
        a.fit(&bundle.train, 42).unwrap();
        let mut b = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
        b.fit(&bundle.train, 42).unwrap();
        assert_eq!(
            a.try_score_dataset(&bundle.test).unwrap(),
            b.try_score_dataset(&bundle.test).unwrap()
        );
    }

    #[test]
    fn ablation_flags_change_the_model() {
        let bundle = GeneratorSpec::quick_demo().generate(12);
        let mut full = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
        full.fit(&bundle.train, 1).unwrap();
        let mut cfg = TargAdConfig::fast();
        cfg.use_oe = false;
        cfg.use_re = false;
        let mut ablated = TargAd::try_new(cfg).expect("valid config");
        ablated.fit(&bundle.train, 1).unwrap();
        assert_ne!(
            full.try_score_dataset(&bundle.test).unwrap(),
            ablated.try_score_dataset(&bundle.test).unwrap()
        );
    }
}
