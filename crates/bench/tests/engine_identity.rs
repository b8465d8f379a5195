//! Exact-equality contract for the f64 forward pass: the pooled
//! [`targad_nn::ScoreEngine`], `Mlp::eval`, and TargAD's Eq. 9 scores and
//! §III-C verdicts must all be **bit-identical** to one naive oracle, a
//! triple loop `act(x·W + b)` over `(W, b, act)` layers read from the
//! public parameter views. Worker counts {1, 2, 7} cover the serial inline
//! path, an even split, and a ragged split with more workers than row
//! blocks; CI additionally runs the whole binary under `TARGAD_THREADS` ∈
//! {1, 2, 7} so the `Runtime::from_env` construction path is exercised too.
//!
//! The ten MLP-backed baselines check their engine-backed `score` against
//! their whole-batch `Mlp::eval` scorers in their own unit tests.

use rand::RngExt;
use targad_autograd::VarStore;
use targad_core::{Classifier, OodStrategy, Runtime, TargAd, TargAdConfig, VerdictClass};
use targad_data::{DatasetBundle, GeneratorSpec};
use targad_linalg::{rng as lrng, EpiAct, Matrix};
use targad_nn::{Activation, Mlp, ScoreEngine, INFER_BLOCK_ROWS};

const WORKERS: [usize; 3] = [1, 2, 7];

const ACTIVATIONS: [Activation; 5] = [
    Activation::None,
    Activation::Relu,
    Activation::LeakyRelu,
    Activation::Sigmoid,
    Activation::Tanh,
];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One dense layer as the oracle reads it: `W` (`d_in x d_out`), the
/// `1 x d_out` bias row, and the activation applied after the bias.
type Layer = (Matrix, Matrix, EpiAct);

/// The naive oracle: per layer, each output element is one chain
/// `0.0 + x_0·w_0j + x_1·w_1j + …` in ascending `k`, then `+ b_j`, then the
/// activation — no blocking, no tiling, no fusion, no worker split.
fn oracle_forward(layers: &[Layer], x: &Matrix) -> Matrix {
    let mut h = x.clone();
    for (w, b, act) in layers {
        assert_eq!(h.cols(), w.rows(), "oracle: layer shapes do not chain");
        let mut out = Matrix::zeros(h.rows(), w.cols());
        for r in 0..h.rows() {
            for j in 0..w.cols() {
                let mut acc = 0.0;
                for k in 0..w.rows() {
                    acc += h[(r, k)] * w[(k, j)];
                }
                out[(r, j)] = act.apply(acc + b[(0, j)]);
            }
        }
        h = out;
    }
    h
}

/// An MLP's layers, through `Mlp::layers` / `Mlp::act`.
fn mlp_layers(mlp: &Mlp, store: &VarStore) -> Vec<Layer> {
    mlp.layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let (w, b) = layer.params();
            (
                store.value(w).clone(),
                store.value(b).clone(),
                mlp.act(i).epi(),
            )
        })
        .collect()
}

/// The classifier's layers, through `Classifier::parameter_matrices`
/// (`w1, b1, w2, b2, …`): ReLU hidden layers and identity logits.
fn classifier_layers(clf: &Classifier) -> Vec<Layer> {
    let params = clf.parameter_matrices();
    let last = params.len() / 2 - 1;
    params
        .chunks_exact(2)
        .enumerate()
        .map(|(i, wb)| {
            let act = if i == last {
                EpiAct::None
            } else {
                EpiAct::Relu
            };
            (wb[0].clone(), wb[1].clone(), act)
        })
        .collect()
}

/// The oracle's Eq. 9 score and §III-C class for one logit row: a
/// max-shifted softmax with exponentials summed in ascending column order,
/// the best target-class probability, and the normality gate over the last
/// `k` probabilities.
fn oracle_verdict(
    z: &[f64],
    m: usize,
    k: usize,
    strategy: OodStrategy,
    tau: f64,
) -> (f64, VerdictClass) {
    let mx = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let e: Vec<f64> = z.iter().map(|&v| (v - mx).exp()).collect();
    let mut sum = 0.0;
    for &ej in &e {
        sum += ej;
    }
    let p: Vec<f64> = e.iter().map(|&ej| ej / sum).collect();
    let score = p[..m].iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut normal_mass = 0.0;
    for &pj in &p[m..] {
        normal_mass += pj;
    }
    let class = if normal_mass > k as f64 / (m + k) as f64 {
        VerdictClass::Normal
    } else if strategy.target_score(z, m) >= tau {
        VerdictClass::Target
    } else {
        VerdictClass::NonTarget
    };
    (score, class)
}

/// Checks the engine's `score` and `score_pairs` and the whole-batch
/// `Mlp::eval` chain of `stack` against the oracle, bit for bit, at every
/// worker count.
fn assert_stack_matches_oracle(stack: &[(&Mlp, &VarStore)], x: &Matrix, what: &str) {
    let layers: Vec<Layer> = stack
        .iter()
        .flat_map(|&(mlp, store)| mlp_layers(mlp, store))
        .collect();
    let want = oracle_forward(&layers, x);
    let d = want.cols();

    let mut eval = x.clone();
    for &(mlp, store) in stack {
        eval = mlp.eval(store, &eval);
    }
    assert_eq!(bits(eval.as_slice()), bits(want.as_slice()), "{what}: eval");

    // Reduce each row to its first and last outputs so every column's
    // chain is exercised through both finishes.
    let first: Vec<f64> = (0..want.rows()).map(|r| want[(r, 0)]).collect();
    let last: Vec<f64> = (0..want.rows()).map(|r| want[(r, d - 1)]).collect();
    let mut engine = ScoreEngine::new();
    for workers in WORKERS {
        let rt = Runtime::new(workers);
        let scores = engine.score(stack, x, &rt, |_, row| row[0]);
        assert_eq!(
            bits(&scores),
            bits(&first),
            "{what}: score, workers = {workers}"
        );
        let pairs = engine.score_pairs(stack, x, &rt, |_, row| (row[0], row[d - 1]));
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        assert_eq!(
            bits(&a),
            bits(&first),
            "{what}: pairs.0, workers = {workers}"
        );
        assert_eq!(
            bits(&b),
            bits(&last),
            "{what}: pairs.1, workers = {workers}"
        );
    }
}

/// Row counts around the engine's block size: empty, one row, one short of
/// a block, exactly one block, one past it, and several blocks with a
/// ragged tail.
const ROW_COUNTS: [usize; 6] = [
    0,
    1,
    INFER_BLOCK_ROWS - 1,
    INFER_BLOCK_ROWS,
    INFER_BLOCK_ROWS + 1,
    1000,
];

/// Layer widths: width 1, widths around the 8-wide register tile, and
/// widths large enough for 256-row blocks to take the packed blocked GEMM.
const WIDTHS: [usize; 10] = [1, 2, 3, 7, 8, 9, 16, 17, 40, 64];

/// An MLP over random weights and non-zero random biases (a freshly
/// initialized `Mlp` has zero biases, which would leave the bias add
/// untested).
fn random_mlp(
    rng: &mut rand::rngs::StdRng,
    dims: &[usize],
    hidden: Activation,
    out: Activation,
) -> (VarStore, Mlp) {
    let params: Vec<(Matrix, Matrix)> = dims
        .windows(2)
        .map(|d| {
            let scale = 1.0 / (d[0] as f64).sqrt();
            (
                lrng::normal_matrix(rng, d[0], d[1], 0.0, scale),
                lrng::normal_matrix(rng, 1, d[1], 0.0, 0.5),
            )
        })
        .collect();
    let mut store = VarStore::new();
    let mlp = Mlp::from_params(&mut store, params, hidden, out);
    (store, mlp)
}

/// Random 1–4 layer MLPs under every (hidden, output) activation pair,
/// at every row count of [`ROW_COUNTS`].
#[test]
fn random_stacks_match_the_oracle() {
    let mut rng = lrng::seeded(0xE1D);
    for (case, (&hidden, &out)) in ACTIVATIONS
        .iter()
        .flat_map(|h| ACTIVATIONS.iter().map(move |o| (h, o)))
        .enumerate()
    {
        let n_layers = 1 + case % 4;
        let dims: Vec<usize> = (0..=n_layers)
            .map(|_| WIDTHS[rng.random_range(0..WIDTHS.len())])
            .collect();
        let (store, mlp) = random_mlp(&mut rng, &dims, hidden, out);
        for rows in ROW_COUNTS {
            let x = lrng::normal_matrix(&mut rng, rows, dims[0], 0.0, 2.0);
            let what = format!("{dims:?} {hidden:?}/{out:?}, {rows} rows");
            assert_stack_matches_oracle(&[(&mlp, &store)], &x, &what);
        }
    }
}

/// A two-stage encoder → decoder stack (two MLPs, two stores) runs as one
/// engine pipeline and must equal the oracle over the concatenated layers.
#[test]
fn encoder_decoder_stack_matches_the_oracle() {
    let mut rng = lrng::seeded(12);
    let (enc_store, enc) = random_mlp(&mut rng, &[6, 40, 4], Activation::Relu, Activation::None);
    let (dec_store, dec) = random_mlp(&mut rng, &[4, 40, 6], Activation::Relu, Activation::Sigmoid);
    for rows in ROW_COUNTS {
        let x = lrng::normal_matrix(&mut rng, rows, 6, 0.0, 1.0);
        let stack = [(&enc, &enc_store), (&dec, &dec_store)];
        assert_stack_matches_oracle(&stack, &x, &format!("encoder→decoder, {rows} rows"));
    }
}

/// A fitted TargAD model with thresholds calibrated for all strategies.
fn fitted_targad() -> (TargAd, DatasetBundle) {
    let bundle = GeneratorSpec::quick_demo().generate(7);
    let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
    model.fit(&bundle.train, 7).expect("fit succeeds");
    model
        .calibrate_thresholds(&bundle.val.features, &bundle.val.three_way_labels())
        .expect("calibration succeeds");
    (model, bundle)
}

/// TargAD's Eq. 9 scores: `target_scores_rt` at every worker count, the
/// public `try_score_matrix` on the model's own runtime, and the
/// whole-batch `logits` all equal the oracle bit for bit.
#[test]
fn targad_scores_match_the_oracle() {
    let (model, bundle) = fitted_targad();
    let clf = model.classifier().expect("fitted");
    let x = &bundle.test.features;
    let logits = oracle_forward(&classifier_layers(clf), x);
    assert_eq!(bits(clf.logits(x).as_slice()), bits(logits.as_slice()));
    let want: Vec<f64> = (0..logits.rows())
        .map(|r| oracle_verdict(logits.row(r), clf.m(), clf.k(), OodStrategy::Msp, 0.0).0)
        .collect();
    for workers in WORKERS {
        let got = clf.target_scores_rt(x, &Runtime::new(workers));
        assert_eq!(bits(&got), bits(&want), "workers = {workers}");
    }
    let public = model.try_score_matrix(x).expect("fitted");
    assert_eq!(bits(&public), bits(&want), "try_score_matrix");
}

/// The fused verdict path (scores and three-way classes in one engine
/// pass) equals the oracle under every strategy's calibrated threshold, at
/// every worker count and through `try_verdict_matrix`; its scores are the
/// same Eq. 9 scalars `try_score_matrix` serves.
#[test]
fn targad_verdicts_match_the_oracle_bitwise() {
    let (model, bundle) = fitted_targad();
    let clf = model.classifier().expect("fitted");
    let x = &bundle.test.features;
    let logits = oracle_forward(&classifier_layers(clf), x);
    let scalars = model.try_score_matrix(x).expect("fitted");
    for strategy in OodStrategy::all() {
        let tau = model.thresholds().get(strategy).expect("calibrated");
        let want: Vec<(f64, VerdictClass)> = (0..logits.rows())
            .map(|r| oracle_verdict(logits.row(r), clf.m(), clf.k(), strategy, tau))
            .collect();
        let mut outputs = vec![(
            "try_verdict_matrix".to_string(),
            model.try_verdict_matrix(x, strategy).expect("calibrated"),
        )];
        for workers in WORKERS {
            outputs.push((
                format!("workers = {workers}"),
                clf.verdicts_rt(x, &Runtime::new(workers), strategy, tau),
            ));
        }
        for (path, got) in &outputs {
            assert_eq!(got.len(), want.len());
            for (i, &(score, class)) in want.iter().enumerate() {
                let v = got.verdict(i);
                assert_eq!(
                    v.score.to_bits(),
                    score.to_bits(),
                    "{} {path} row {i}: score",
                    strategy.name()
                );
                assert_eq!(v.class, class, "{} {path} row {i}: class", strategy.name());
                assert_eq!(
                    v.score.to_bits(),
                    scalars[i].to_bits(),
                    "{} {path} row {i}: verdict vs scalar score",
                    strategy.name()
                );
            }
        }
    }
}
