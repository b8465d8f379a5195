//! Proof of the zero-allocation training contract: after one warm-up step,
//! a pooled-tape optimizer step — forward, backward, gradient clip, Adam
//! update — performs **zero** heap allocations. The whole file is a single
//! test because `#[global_allocator]` is per-binary and the counter must
//! not see another test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use targad_autograd::{Tape, VarStore};
use targad_linalg::{rng as lrng, Matrix};
use targad_nn::optim::clip_grad_norm;
use targad_nn::{Activation, Adam, AutoEncoder, Mlp, Optimizer};

/// Counts allocation events (alloc + realloc) while the gate is open;
/// frees are untracked since only acquisition breaks the contract.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `step` under the allocation counter and returns the event count.
fn count_allocs(mut step: impl FnMut()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    step();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_training_steps_allocate_nothing() {
    // ---- Autoencoder step (the Eq. 1 per-cluster training loop) --------
    let mut rng = lrng::seeded(7);
    let x = lrng::uniform_matrix(&mut rng, 64, 16, 0.0, 1.0);
    let batch: Vec<usize> = (0..32).collect();
    let mut vs = VarStore::new();
    let ae = AutoEncoder::new(&mut vs, &mut rng, &[16, 8, 4]);
    let mut opt = Adam::new(1e-3);
    let mut tape = Tape::new();
    let mut ae_step = || {
        vs.zero_grads();
        tape.reset();
        let xv = tape.input_rows_from(&x, &batch);
        let err = ae.recon_error_rows(&mut tape, &vs, xv);
        let loss = tape.mean_all(err);
        tape.backward(loss, &mut vs);
        clip_grad_norm(&mut vs, 5.0);
        opt.step(&mut vs);
    };
    // Warm-up: populate the tape pool, Adam moments, and gradient buffers.
    for _ in 0..3 {
        ae_step();
    }
    for i in 0..5 {
        let n = count_allocs(&mut ae_step);
        assert_eq!(n, 0, "AE step {i} performed {n} heap allocations");
    }

    // ---- Classifier step (the Eqs. 3–8 loss shape) ---------------------
    let mut rng = lrng::seeded(9);
    let x = lrng::normal_matrix(&mut rng, 48, 12, 0.0, 1.0);
    let y = Matrix::from_fn(48, 4, |r, c| f64::from(r % 4 == c));
    let batch: Vec<usize> = (0..24).collect();
    let mut vs = VarStore::new();
    let mlp = Mlp::new(
        &mut vs,
        &mut rng,
        &[12, 10, 4],
        Activation::Relu,
        Activation::None,
    );
    let mut opt = Adam::new(1e-3);
    let mut tape = Tape::new();
    let mut clf_step = || {
        vs.zero_grads();
        tape.reset();
        let xv = tape.input_rows_from(&x, &batch);
        let yv = tape.input_rows_from(&y, &batch);
        let z = mlp.forward(&mut tape, &vs, xv);
        let lp = tape.log_softmax_rows(z);
        let prod = tape.mul(yv, lp);
        let total = tape.sum_all(prod);
        let loss = tape.scale(total, -1.0 / batch.len() as f64);
        tape.backward(loss, &mut vs);
        clip_grad_norm(&mut vs, 5.0);
        opt.step(&mut vs);
    };
    for _ in 0..3 {
        clf_step();
    }
    for i in 0..5 {
        let n = count_allocs(&mut clf_step);
        assert_eq!(n, 0, "classifier step {i} performed {n} heap allocations");
    }

    // ---- Telemetry cold and hot ------------------------------------------
    // The backward sub-phase timers (one `Instant` pair per node, two
    // `record_ns` per sweep) must not allocate either.
    for telemetry in [false, true] {
        targad_obs::set_enabled(telemetry);
        clf_step();
        for i in 0..5 {
            let n = count_allocs(&mut clf_step);
            assert_eq!(
                n, 0,
                "step {i} (telemetry={telemetry}) performed {n} allocations"
            );
        }
        targad_obs::set_enabled(false);
    }
}
