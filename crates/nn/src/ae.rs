//! Bottleneck autoencoders.
//!
//! The paper uses "bottleneck networks consisting of two structurally
//! symmetrical multi-layer perceptron networks" (§III-B4): an encoder
//! `D → … → d` and a mirrored decoder `d → … → D`. Candidate selection
//! trains one per k-means cluster with the modified loss of Eq. 1; DeepSAD
//! and FEAWAD reuse the same component.

use rand::Rng;
use targad_autograd::{Tape, Var, VarStore};
use targad_linalg::Matrix;

use crate::layers::{Activation, Mlp};

/// A symmetric bottleneck autoencoder.
#[derive(Clone, Debug)]
pub struct AutoEncoder {
    encoder: Mlp,
    decoder: Mlp,
}

impl AutoEncoder {
    /// Builds an autoencoder with encoder dims `[input, hidden…, bottleneck]`
    /// and a mirrored decoder.
    ///
    /// The decoder output activation is `Sigmoid`, matching the paper's
    /// min-max-normalized `[0, 1]` inputs.
    ///
    /// # Panics
    /// Panics if `dims` has fewer than two entries.
    pub fn new(store: &mut VarStore, rng: &mut impl Rng, dims: &[usize]) -> Self {
        Self::with_activation(store, rng, dims, Activation::Relu)
    }

    /// Like [`AutoEncoder::new`] but with an explicit hidden activation
    /// (smooth activations make gradient-checking tests exact).
    pub fn with_activation(
        store: &mut VarStore,
        rng: &mut impl Rng,
        dims: &[usize],
        hidden_act: Activation,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "AutoEncoder::new: need [input, …, bottleneck], got {dims:?}"
        );
        let mut mirrored: Vec<usize> = dims.to_vec();
        mirrored.reverse();
        let encoder = Mlp::new(store, rng, dims, hidden_act, Activation::None);
        let decoder = Mlp::new(store, rng, &mirrored, hidden_act, Activation::Sigmoid);
        Self { encoder, decoder }
    }

    /// Input dimensionality `D`.
    pub fn input_dim(&self) -> usize {
        self.encoder.in_dim()
    }

    /// Bottleneck dimensionality `d`.
    pub fn bottleneck_dim(&self) -> usize {
        self.encoder.out_dim()
    }

    /// The encoder network.
    pub fn encoder(&self) -> &Mlp {
        &self.encoder
    }

    /// The decoder network.
    pub fn decoder(&self) -> &Mlp {
        &self.decoder
    }

    /// Training-path encoding.
    pub fn encode(&self, tape: &mut Tape, store: &VarStore, x: Var) -> Var {
        self.encoder.forward(tape, store, x)
    }

    /// Training-path reconstruction `φ_D(φ_E(x))`.
    pub fn reconstruct(&self, tape: &mut Tape, store: &VarStore, x: Var) -> Var {
        let z = self.encode(tape, store, x);
        self.decoder.forward(tape, store, z)
    }

    /// Training-path per-row squared reconstruction errors (`n x 1`),
    /// i.e. `‖x − φ_D(φ_E(x))‖²` of Eq. 2 as a differentiable node.
    pub fn recon_error_rows(&self, tape: &mut Tape, store: &VarStore, x: Var) -> Var {
        let xhat = self.reconstruct(tape, store, x);
        let d = tape.sub(x, xhat);
        tape.row_sq_norm(d)
    }

    /// Inference-path latent codes.
    pub fn encode_eval(&self, store: &VarStore, x: &Matrix) -> Matrix {
        self.encoder.eval(store, x)
    }

    /// Inference-path reconstructions.
    pub fn reconstruct_eval(&self, store: &VarStore, x: &Matrix) -> Matrix {
        self.decoder.eval(store, &self.encoder.eval(store, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use targad_autograd::check::gradient_check;
    use targad_linalg::rng as lrng;

    /// Per-row squared reconstruction errors (Eq. 2) on the plain forward.
    fn recon_errors(ae: &AutoEncoder, vs: &VarStore, x: &Matrix) -> Vec<f64> {
        (&ae.reconstruct_eval(vs, x) - x).row_sq_norms()
    }

    #[test]
    fn shapes_are_symmetric() {
        let mut rng = lrng::seeded(1);
        let mut vs = VarStore::new();
        let ae = AutoEncoder::new(&mut vs, &mut rng, &[10, 6, 3]);
        assert_eq!(ae.input_dim(), 10);
        assert_eq!(ae.bottleneck_dim(), 3);
        let x = lrng::uniform_matrix(&mut rng, 4, 10, 0.0, 1.0);
        assert_eq!(ae.encode_eval(&vs, &x).shape(), (4, 3));
        assert_eq!(ae.reconstruct_eval(&vs, &x).shape(), (4, 10));
        assert_eq!(recon_errors(&ae, &vs, &x).len(), 4);
    }

    #[test]
    fn reconstruction_errors_are_nonnegative() {
        let mut rng = lrng::seeded(2);
        let mut vs = VarStore::new();
        let ae = AutoEncoder::new(&mut vs, &mut rng, &[5, 3]);
        let x = lrng::uniform_matrix(&mut rng, 10, 5, 0.0, 1.0);
        assert!(recon_errors(&ae, &vs, &x).iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn gradient_check_modified_loss_shape() {
        // Eq. 1 shape: mean recon error on unlabeled + η · mean of inverse
        // recon error on labeled anomalies.
        let mut rng = lrng::seeded(3);
        let mut vs = VarStore::new();
        let ae = AutoEncoder::with_activation(&mut vs, &mut rng, &[4, 3, 2], Activation::Tanh);
        let xu = lrng::uniform_matrix(&mut rng, 5, 4, 0.1, 0.9);
        let xl = lrng::uniform_matrix(&mut rng, 2, 4, 0.1, 0.9);
        let report = gradient_check(
            &mut vs,
            |t, vs| {
                let xu_v = t.input(xu.clone());
                let xl_v = t.input(xl.clone());
                let err_u = ae.recon_error_rows(t, vs, xu_v);
                let term_u = t.mean_all(err_u);
                let err_l = ae.recon_error_rows(t, vs, xl_v);
                let inv = t.recip(err_l);
                let term_l = t.mean_all(inv);
                t.add_scaled(term_u, term_l, 1.0)
            },
            1e-5,
        );
        assert!(report.passes(1e-3), "{report:?}");
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let mut rng = lrng::seeded(4);
        let mut vs = VarStore::new();
        let ae = AutoEncoder::new(&mut vs, &mut rng, &[6, 4, 2]);
        // Rank-1-ish data: easy to compress through a 2-dim bottleneck.
        let base = lrng::uniform_matrix(&mut rng, 1, 6, 0.2, 0.8);
        let x = Matrix::from_fn(40, 6, |r, c| {
            (base[(0, c)] + 0.01 * (r as f64 % 5.0)).min(1.0)
        });

        let before: f64 = recon_errors(&ae, &vs, &x).iter().sum();
        let mut opt = Adam::new(1e-2);
        let mut t = Tape::new();
        for _ in 0..200 {
            vs.zero_grads();
            t.reset();
            let xv = t.input_from(&x);
            let err = ae.recon_error_rows(&mut t, &vs, xv);
            let loss = t.mean_all(err);
            t.backward(loss, &mut vs);
            opt.step(&mut vs);
        }
        let after: f64 = recon_errors(&ae, &vs, &x).iter().sum();
        assert!(after < before * 0.2, "before {before}, after {after}");
    }
}
