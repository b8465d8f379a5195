//! Fully-connected layers and multi-layer perceptrons.

use rand::Rng;
use targad_autograd::{ParamId, Tape, Var, VarStore};
use targad_linalg::{matmul_bias_act_rows_into, rng as lrng, EpiAct, Matrix};

/// Activation functions used across the reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no activation).
    None,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.01 (used by GAN baselines).
    LeakyRelu,
    /// Logistic sigmoid (decoder outputs into `[0, 1]`, GAN discriminators).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// The scalar epilogue form of this activation — the single definition
    /// the fused GEMM write-back and backward read path in `targad-linalg`
    /// share, for training and inference alike.
    pub fn epi(self) -> EpiAct {
        match self {
            Activation::None => EpiAct::None,
            Activation::Relu => EpiAct::Relu,
            Activation::LeakyRelu => EpiAct::LeakyRelu,
            Activation::Sigmoid => EpiAct::Sigmoid,
            Activation::Tanh => EpiAct::Tanh,
        }
    }
}

/// A dense layer `y = x·W + b` with Xavier-initialized weights.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new `in_dim -> out_dim` layer in `store`.
    pub fn new(store: &mut VarStore, rng: &mut impl Rng, in_dim: usize, out_dim: usize) -> Self {
        let w = store.add(lrng::xavier_uniform(rng, in_dim, out_dim));
        let b = store.add(Matrix::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Registers a layer whose parameters *are* the given matrices —
    /// the snapshot-load path. Unlike [`Linear::new`] no initialized
    /// weights or gradient accumulators are allocated (the parameters
    /// are registered frozen), so `w` and `b` may borrow a shared
    /// buffer (an `mmap`ed model snapshot) and stay borrowed, with
    /// zero weight-sized allocations. The resulting layer is
    /// inference-only: driving a backward pass over it panics.
    ///
    /// # Panics
    /// Panics unless `b` is a `1 x out_dim` row matching `w`'s columns.
    pub fn from_params(store: &mut VarStore, w: Matrix, b: Matrix) -> Self {
        let (in_dim, out_dim) = w.shape();
        assert_eq!(
            b.shape(),
            (1, out_dim),
            "Linear::from_params: bias shape {:?} does not match weights {:?}",
            b.shape(),
            w.shape()
        );
        Self {
            w: store.add_frozen(w),
            b: store.add_frozen(b),
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter handles `(weights, bias)`.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
    }

    /// Training-path forward `act(x·W + b)` as one fused `Dense` tape node:
    /// the GEMM applies bias and `act` at write-back, and the backward
    /// sweep folds the activation derivative into the gradient GEMMs' read
    /// paths.
    pub fn forward(&self, tape: &mut Tape, store: &VarStore, x: Var, act: Activation) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.dense(x, w, b, act.epi())
    }

    /// [`Linear::forward`] treating this layer's parameters as
    /// *constants* (pooled copies recorded as input leaves): gradients flow
    /// through to `x` but never into `store`. Required when a module from
    /// another [`VarStore`] participates in a loss (e.g. a GAN generator
    /// step backpropagating through a frozen discriminator) —
    /// [`Linear::forward`]'s parameter nodes are only valid for the store
    /// later passed to `Tape::backward`.
    pub fn forward_frozen(
        &self,
        tape: &mut Tape,
        store: &VarStore,
        x: Var,
        act: Activation,
    ) -> Var {
        let w = tape.input_from(store.value(self.w));
        let b = tape.input_from(store.value(self.b));
        tape.dense(x, w, b, act.epi())
    }
}

/// A multi-layer perceptron: `dims = [in, h1, …, out]` with `hidden_act`
/// between layers and `out_act` after the last.
///
/// This single type covers the paper's classifier `f`, the encoders and
/// decoders of every autoencoder, DevNet/PReNet scoring networks, and the
/// generators/discriminators of the GAN baselines.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    out_act: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer dimensions.
    ///
    /// # Panics
    /// Panics if `dims` has fewer than two entries.
    pub fn new(
        store: &mut VarStore,
        rng: &mut impl Rng,
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "Mlp::new: need at least [in, out] dims, got {dims:?}"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(store, rng, w[0], w[1]))
            .collect();
        Self {
            layers,
            hidden_act,
            out_act,
        }
    }

    /// Builds an MLP directly over `(weights, bias)` pairs, one per layer
    /// in forward order — the snapshot-load path (see
    /// [`Linear::from_params`]; the matrices may borrow an `mmap`ed
    /// snapshot and are registered without copying).
    ///
    /// # Panics
    /// Panics if `params` is empty or consecutive layer shapes don't chain
    /// (layer `i`'s `out_dim` must equal layer `i+1`'s `in_dim`).
    pub fn from_params(
        store: &mut VarStore,
        params: impl IntoIterator<Item = (Matrix, Matrix)>,
        hidden_act: Activation,
        out_act: Activation,
    ) -> Self {
        let layers: Vec<Linear> = params
            .into_iter()
            .map(|(w, b)| Linear::from_params(store, w, b))
            .collect();
        assert!(
            !layers.is_empty(),
            "Mlp::from_params: need at least one layer"
        );
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "Mlp::from_params: layer shapes do not chain"
            );
        }
        Self {
            layers,
            hidden_act,
            out_act,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The layer stack, in forward order.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The activation applied after layer `i` (`out_act` on the last layer,
    /// `hidden_act` otherwise) — the rule every forward path shares.
    pub fn act(&self, i: usize) -> Activation {
        if i + 1 == self.layers.len() {
            self.out_act
        } else {
            self.hidden_act
        }
    }

    /// The `[in, h1, …, out]` dimension vector this MLP was built with.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.in_dim()];
        dims.extend(self.layers.iter().map(Linear::out_dim));
        dims
    }

    /// Training-path forward on the tape: one fused `Dense` node per
    /// layer+activation pair (see [`Linear::forward`]).
    pub fn forward(&self, tape: &mut Tape, store: &VarStore, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, store, h, self.act(i));
        }
        h
    }

    /// Inference-path forward on plain matrices: one fused
    /// `act(h·W + b)` GEMM per layer ([`matmul_bias_act_rows_into`]), the
    /// kernel the tape's `Dense` op and the pooled `ScoreEngine` also run,
    /// so all three produce the same bits.
    pub fn eval(&self, store: &VarStore, x: &Matrix) -> Matrix {
        let mut h: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let src = h.as_ref().unwrap_or(x);
            let (w, b) = layer.params();
            let mut out = Matrix::zeros(src.rows(), layer.out_dim());
            matmul_bias_act_rows_into(
                src.as_slice(),
                src.cols(),
                store.value(w),
                store.value(b).as_slice(),
                self.act(i).epi(),
                out.as_mut_slice(),
            );
            h = Some(out);
        }
        h.expect("Mlp has at least one layer")
    }

    /// Tape forward with frozen parameters — see
    /// [`Linear::forward_frozen`].
    pub fn forward_frozen(&self, tape: &mut Tape, store: &VarStore, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward_frozen(tape, store, h, self.act(i));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use targad_autograd::check::gradient_check;

    #[test]
    fn linear_shapes_and_determinism() {
        let mut rng = lrng::seeded(1);
        let mut vs = VarStore::new();
        let layer = Linear::new(&mut vs, &mut rng, 4, 3);
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 3);
        let (w, b) = layer.params();
        assert_eq!(vs.value(w).shape(), (4, 3));
        assert_eq!(vs.value(b).shape(), (1, 3));

        // Same seed → same init.
        let mut rng2 = lrng::seeded(1);
        let mut vs2 = VarStore::new();
        let layer2 = Linear::new(&mut vs2, &mut rng2, 4, 3);
        let (w2, b2) = layer2.params();
        assert_eq!(vs2.value(w2), vs.value(w));
        assert_eq!(vs2.value(b2), vs.value(b));
    }

    #[test]
    fn mlp_forward_and_eval_agree() {
        let mut rng = lrng::seeded(2);
        let mut vs = VarStore::new();
        let mlp = Mlp::new(
            &mut vs,
            &mut rng,
            &[3, 5, 2],
            Activation::Relu,
            Activation::Sigmoid,
        );
        let x = lrng::normal_matrix(&mut rng, 4, 3, 0.0, 1.0);

        let via_eval = mlp.eval(&vs, &x);
        let mut tape = Tape::new();
        let xv = tape.input(x);
        let out = mlp.forward(&mut tape, &vs, xv);
        let via_tape = tape.value(out);
        assert_eq!(via_tape.shape(), (4, 2));
        // Both run the fused dense kernel, so they agree bit for bit.
        assert_eq!(via_tape, &via_eval);
    }

    #[test]
    fn mlp_gradients_check_out() {
        let mut rng = lrng::seeded(3);
        let mut vs = VarStore::new();
        let mlp = Mlp::new(
            &mut vs,
            &mut rng,
            &[3, 4, 2],
            Activation::Tanh,
            Activation::None,
        );
        let x = lrng::normal_matrix(&mut rng, 5, 3, 0.0, 1.0);
        let y = lrng::normal_matrix(&mut rng, 5, 2, 0.0, 1.0);
        let report = gradient_check(
            &mut vs,
            |t, vs| {
                let xv = t.input(x.clone());
                let yv = t.input(y.clone());
                let out = mlp.forward(t, vs, xv);
                t.mse(out, yv)
            },
            1e-5,
        );
        assert!(report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn sigmoid_output_is_bounded() {
        let mut rng = lrng::seeded(4);
        let mut vs = VarStore::new();
        let mlp = Mlp::new(
            &mut vs,
            &mut rng,
            &[2, 3, 1],
            Activation::Relu,
            Activation::Sigmoid,
        );
        let x = lrng::normal_matrix(&mut rng, 50, 2, 0.0, 10.0);
        let y = mlp.eval(&vs, &x);
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn from_params_reproduces_trained_network() {
        let mut rng = lrng::seeded(6);
        let mut vs = VarStore::new();
        let mlp = Mlp::new(
            &mut vs,
            &mut rng,
            &[3, 5, 2],
            Activation::Relu,
            Activation::Sigmoid,
        );
        let params: Vec<(Matrix, Matrix)> = mlp
            .layers()
            .iter()
            .map(|l| {
                let (w, b) = l.params();
                (vs.value(w).clone(), vs.value(b).clone())
            })
            .collect();

        let mut vs2 = VarStore::new();
        let rebuilt = Mlp::from_params(&mut vs2, params, Activation::Relu, Activation::Sigmoid);
        assert_eq!(rebuilt.dims(), mlp.dims());
        let x = lrng::normal_matrix(&mut rng, 4, 3, 0.0, 1.0);
        assert_eq!(rebuilt.eval(&vs2, &x), mlp.eval(&vs, &x));
    }

    #[test]
    #[should_panic(expected = "do not chain")]
    fn from_params_rejects_mismatched_shapes() {
        let mut vs = VarStore::new();
        let _ = Mlp::from_params(
            &mut vs,
            vec![
                (Matrix::zeros(3, 4), Matrix::zeros(1, 4)),
                (Matrix::zeros(5, 2), Matrix::zeros(1, 2)),
            ],
            Activation::Relu,
            Activation::None,
        );
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn mlp_rejects_single_dim() {
        let mut rng = lrng::seeded(5);
        let mut vs = VarStore::new();
        let _ = Mlp::new(&mut vs, &mut rng, &[3], Activation::Relu, Activation::None);
    }
}
