//! The fused dense training path vs test-local reference oracles: bit
//! identity end to end.
//!
//! `Mlp::forward` records one fused `Dense` tape node per layer. That node
//! replays the exact floating-point chains of the unfused matmul /
//! row-broadcast / activation triplet, forward and backward, so a model
//! trained through it must match one trained through the triplet — built
//! here from `Linear::params` and the tape's primitive ops — on every
//! parameter bit and every per-step loss bit. Likewise, the backward sweep
//! skips gradients that can only reach input leaves; registering the input
//! (and, for the classifier's loss graph, the labels and loss weights) as a
//! trainable parameter forces those branches to be computed, and the
//! weight and bias gradients must not change by a bit. Run in CI at
//! `TARGAD_THREADS` ∈ {1, 2, 7} alongside the engine-identity legs.

use targad_autograd::{Tape, Var, VarStore};
use targad_core::{Runtime, TargAd, TargAdConfig};
use targad_data::GeneratorSpec;
use targad_linalg::{rng as lrng, Matrix};
use targad_nn::{Activation, Adam, Mlp, Optimizer};

/// Every activation pairing the model zoo uses.
const ACT_PAIRS: [(Activation, Activation); 4] = [
    (Activation::Relu, Activation::None),
    (Activation::Tanh, Activation::Sigmoid),
    (Activation::LeakyRelu, Activation::Tanh),
    (Activation::Sigmoid, Activation::None),
];

/// Which forward a training run records.
#[derive(Clone, Copy, Debug)]
enum Forward {
    /// The shipped path: `Mlp::forward` / `Mlp::forward_frozen`.
    Fused,
    /// The test-local oracle: [`triplet_forward`].
    Triplet,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn weight_bits(mlp: &Mlp, store: &VarStore) -> Vec<Vec<u64>> {
    mlp.layers()
        .iter()
        .flat_map(|l| {
            let (w, b) = l.params();
            [
                bits(store.value(w).as_slice()),
                bits(store.value(b).as_slice()),
            ]
        })
        .collect()
}

/// `act` as its own tape node.
fn activation_node(tape: &mut Tape, v: Var, act: Activation) -> Var {
    match act {
        Activation::None => v,
        Activation::Relu => tape.relu(v),
        Activation::LeakyRelu => tape.leaky_relu(v, 0.01),
        Activation::Sigmoid => tape.sigmoid(v),
        Activation::Tanh => tape.tanh(v),
    }
}

/// The unfused reference forward: each layer as a matmul, a row-broadcast
/// bias add and an activation node. `frozen` records the parameters as
/// constant inputs, like `Mlp::forward_frozen`.
fn triplet_forward(mlp: &Mlp, tape: &mut Tape, store: &VarStore, x: Var, frozen: bool) -> Var {
    let mut h = x;
    for (i, layer) in mlp.layers().iter().enumerate() {
        let (w, b) = layer.params();
        let (w, b) = if frozen {
            (
                tape.input_from(store.value(w)),
                tape.input_from(store.value(b)),
            )
        } else {
            (tape.param(store, w), tape.param(store, b))
        };
        let z = tape.matmul(h, w);
        let z = tape.add_row_broadcast(z, b);
        h = activation_node(tape, z, mlp.act(i));
    }
    h
}

fn forward(mlp: &Mlp, arm: Forward, tape: &mut Tape, store: &VarStore, x: Var) -> Var {
    match arm {
        Forward::Fused => mlp.forward(tape, store, x),
        Forward::Triplet => triplet_forward(mlp, tape, store, x, false),
    }
}

/// A seeded regression problem and a `[5, 7, 3]` MLP to fit it.
fn problem(hidden_act: Activation, out_act: Activation) -> (Matrix, Matrix, VarStore, Mlp) {
    let mut rng = lrng::seeded(97);
    let x = lrng::normal_matrix(&mut rng, 24, 5, 0.0, 1.0);
    let true_w = lrng::normal_matrix(&mut rng, 5, 3, 0.0, 1.0);
    let y = x.matmul(&true_w).map(|v| v.tanh());
    let mut store = VarStore::new();
    let mlp = Mlp::new(&mut store, &mut rng, &[5, 7, 3], hidden_act, out_act);
    (x, y, store, mlp)
}

/// Trains the problem's MLP for `steps` Adam steps through `arm` and
/// returns the bit patterns of every fitted parameter plus the per-step
/// losses.
fn train_mlp(
    arm: Forward,
    hidden_act: Activation,
    out_act: Activation,
    steps: usize,
) -> (Vec<Vec<u64>>, Vec<u64>) {
    let (x, y, mut store, mlp) = problem(hidden_act, out_act);
    let mut opt = Adam::new(1e-2);
    let mut tape = Tape::new();
    let mut losses = Vec::with_capacity(steps);
    for _ in 0..steps {
        store.zero_grads();
        tape.reset();
        let xv = tape.input_from(&x);
        let yv = tape.input_from(&y);
        let pred = forward(&mlp, arm, &mut tape, &store, xv);
        let loss = tape.mse(pred, yv);
        losses.push(tape.value(loss)[(0, 0)].to_bits());
        tape.backward(loss, &mut store);
        opt.step(&mut store);
    }
    (weight_bits(&mlp, &store), losses)
}

/// Fused and triplet training agree on every parameter bit and every
/// per-step loss bit, for every activation pairing.
#[test]
fn mlp_training_matches_the_triplet_oracle() {
    for (hidden, out) in ACT_PAIRS {
        let (w_ref, l_ref) = train_mlp(Forward::Triplet, hidden, out, 40);
        let (w_fused, l_fused) = train_mlp(Forward::Fused, hidden, out, 40);
        assert_eq!(l_fused, l_ref, "losses diverged for {hidden:?}/{out:?}");
        assert_eq!(w_fused, w_ref, "weights diverged for {hidden:?}/{out:?}");
    }
}

/// Skipping the dead input-gradient branch changes how much work backward
/// does, never what it computes: at every step of a 40-step fit, the
/// parameter gradients equal those of a sweep in which the input is a
/// trainable parameter, so its gradient branch is live.
#[test]
fn pruned_backward_matches_the_full_sweep() {
    for arm in [Forward::Fused, Forward::Triplet] {
        for (hidden, out) in ACT_PAIRS {
            let (x, y, mut store, mlp) = problem(hidden, out);
            // Same parameters, plus the input as a trainable leaf.
            let mut full = store.clone();
            let x_id = full.add(x.clone());
            let mut opt = Adam::new(1e-2);
            let mut tape = Tape::new();
            for step in 0..40 {
                store.zero_grads();
                tape.reset();
                let xv = tape.input_from(&x);
                let yv = tape.input_from(&y);
                let pred = forward(&mlp, arm, &mut tape, &store, xv);
                let loss = tape.mse(pred, yv);
                tape.backward(loss, &mut store);

                full.zero_grads();
                tape.reset();
                let xv = tape.param(&full, x_id);
                let yv = tape.input_from(&y);
                let pred = forward(&mlp, arm, &mut tape, &full, xv);
                let loss = tape.mse(pred, yv);
                tape.backward(loss, &mut full);

                assert!(
                    full.grad(x_id).as_slice().iter().any(|&g| g != 0.0),
                    "the full sweep must compute the input gradient"
                );
                for id in store.ids() {
                    assert_eq!(
                        bits(store.grad(id).as_slice()),
                        bits(full.grad(id).as_slice()),
                        "{arm:?} {hidden:?}/{out:?} step {step}"
                    );
                }
                opt.step(&mut store);
                for id in store.ids() {
                    full.value_mut(id).clone_from(store.value(id));
                }
            }
        }
    }
}

/// The classifier's loss graph (Eqs. 6–7, as in `targad_core`): a
/// row-weighted cross-entropy against one-hot labels and the mean softmax
/// entropy of the same logits. `labels_first` picks the operand order of the
/// label product, so both one-operand branches of `mul` are exercised.
fn classifier_loss(tape: &mut Tape, z: Var, y: Var, w: Var, n: usize, labels_first: bool) -> Var {
    let lp = tape.log_softmax_rows(z);
    let prod = if labels_first {
        tape.mul(y, lp)
    } else {
        tape.mul(lp, y)
    };
    let per_row = tape.row_sum(prod);
    let weighted = tape.mul_col_broadcast(per_row, w);
    let total = tape.sum_all(weighted);
    let ce = tape.scale(total, -1.0 / n as f64);

    let p = tape.softmax_rows(z);
    let lp = tape.log_softmax_rows(z);
    let plogp = tape.mul(p, lp);
    let rows = tape.row_sum(plogp);
    let sum = tape.sum_div(rows, n as f64);
    let entropy = tape.scale(sum, -1.0);
    tape.add(ce, entropy)
}

/// The pruned sweep through the classifier's loss graph: with the inputs,
/// the one-hot labels and the loss weights as constant leaves, the pruned
/// label-product, weight-broadcast, row-sum and softmax branches give the
/// same parameter gradients, bit for bit, as a sweep in which all three
/// are trainable parameters.
#[test]
fn pruned_backward_matches_the_full_sweep_on_the_classifier_loss() {
    const N: usize = 24;
    for labels_first in [true, false] {
        let mut rng = lrng::seeded(211);
        let x = lrng::normal_matrix(&mut rng, N, 5, 0.0, 1.0);
        let mut y = Matrix::zeros(N, 3);
        for i in 0..N {
            y[(i, i % 3)] = 1.0;
        }
        let w = lrng::normal_matrix(&mut rng, N, 1, 0.0, 1.0).map(|v| 0.5 + v.abs());
        let mut store = VarStore::new();
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            &[5, 7, 3],
            Activation::LeakyRelu,
            Activation::None,
        );
        let mut full = store.clone();
        let leaves = [
            full.add(x.clone()),
            full.add(y.clone()),
            full.add(w.clone()),
        ];
        let mut opt = Adam::new(1e-2);
        let mut tape = Tape::new();
        for step in 0..40 {
            store.zero_grads();
            tape.reset();
            let xv = tape.input_from(&x);
            let yv = tape.input_from(&y);
            let wv = tape.input_from(&w);
            let z = mlp.forward(&mut tape, &store, xv);
            let loss = classifier_loss(&mut tape, z, yv, wv, N, labels_first);
            tape.backward(loss, &mut store);

            full.zero_grads();
            tape.reset();
            let [xv, yv, wv] = leaves.map(|id| tape.param(&full, id));
            let z = mlp.forward(&mut tape, &full, xv);
            let loss = classifier_loss(&mut tape, z, yv, wv, N, labels_first);
            tape.backward(loss, &mut full);

            for id in leaves {
                assert!(
                    full.grad(id).as_slice().iter().any(|&g| g != 0.0),
                    "the full sweep must compute every leaf gradient"
                );
            }
            for id in store.ids() {
                assert_eq!(
                    bits(store.grad(id).as_slice()),
                    bits(full.grad(id).as_slice()),
                    "labels_first = {labels_first}, step {step}"
                );
            }
            opt.step(&mut store);
            for id in store.ids() {
                full.value_mut(id).clone_from(store.value(id));
            }
        }
    }
}

/// Gradients through a *frozen* module (the GAN generator-step pattern:
/// trainable generator, frozen discriminator in the loss) are also
/// bit-identical between the fused path and the triplet oracle.
#[test]
fn frozen_forward_gradients_match_the_triplet_oracle() {
    let run = |arm: Forward| -> Vec<Vec<u64>> {
        let mut rng = lrng::seeded(131);
        let mut gen_store = VarStore::new();
        let gen = Mlp::new(
            &mut gen_store,
            &mut rng,
            &[4, 6, 5],
            Activation::LeakyRelu,
            Activation::Tanh,
        );
        let mut disc_store = VarStore::new();
        let disc = Mlp::new(
            &mut disc_store,
            &mut rng,
            &[5, 6, 1],
            Activation::LeakyRelu,
            Activation::Sigmoid,
        );
        let z = lrng::normal_matrix(&mut rng, 16, 4, 0.0, 1.0);
        let target = Matrix::ones(16, 1);

        gen_store.zero_grads();
        let mut tape = Tape::new();
        let zv = tape.input_from(&z);
        let tv = tape.input_from(&target);
        let fake = forward(&gen, arm, &mut tape, &gen_store, zv);
        let verdict = match arm {
            Forward::Fused => disc.forward_frozen(&mut tape, &disc_store, fake),
            Forward::Triplet => triplet_forward(&disc, &mut tape, &disc_store, fake, true),
        };
        let loss = tape.mse(verdict, tv);
        tape.backward(loss, &mut gen_store);
        gen_store
            .ids()
            .map(|id| bits(gen_store.grad(id).as_slice()))
            .collect()
    };
    assert_eq!(run(Forward::Fused), run(Forward::Triplet));
}

/// Whole-pipeline determinism: a full `TargAd::fit` (AE selection +
/// sharded classifier training) yields bit-identical fitted classifier
/// weights and per-epoch loss histories at 1, 2 and 7 workers.
#[test]
fn targad_fit_is_identical_across_worker_counts() {
    type Fit = (Vec<Vec<u64>>, Vec<u64>, Vec<u64>);
    let fit = |workers: usize| -> Fit {
        let bundle = GeneratorSpec::quick_demo().generate(29);
        let mut cfg = TargAdConfig::fast();
        cfg.ae_epochs = 3;
        cfg.clf_epochs = 4;
        let mut model = TargAd::try_new(cfg)
            .expect("valid config")
            .with_runtime(Runtime::new(workers));
        model.fit(&bundle.train, 11).expect("fit");
        let weights = model
            .classifier()
            .expect("fitted")
            .parameter_matrices()
            .iter()
            .map(|m| bits(m.as_slice()))
            .collect();
        let h = model.history();
        (weights, bits(&h.clf_loss), bits(&h.ae_loss))
    };

    let serial = fit(1);
    assert!(!serial.1.is_empty());
    for workers in [2usize, 7] {
        assert_eq!(fit(workers), serial, "workers = {workers}");
    }
}
