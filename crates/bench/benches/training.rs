//! Training-path micro-benchmarks: one pooled-tape optimizer step for the
//! per-cluster autoencoder (Eq. 1) and the m+k classifier (Eqs. 3–8) at
//! three matrix sizes, plus the classifier's dominant GEMM sequence
//! (forward `x·w`, backward `x^T·g` and `g·w^T` at 1024×256×256) on the
//! blocked kernels, plus the Table II shape sweep timing one training step
//! (fused backward, tiled small GEMMs, dead-gradient pruning) per shape.
//! Writes `results/bench_training.json` with absolute times
//! (`clf_gemm_ms_1024x256x256`, `step_ms_table2_*`) and the GEMM dispatch
//! mix.
//!
//! Set `TARGAD_BENCH_QUICK=1` for a seconds-long smoke run (CI uses this to
//! catch kernel regressions without paying full measurement budgets).

use criterion::Criterion;
use std::hint::black_box;
use std::time::{Duration, Instant};
use targad_autograd::{Tape, VarStore};
use targad_core::{Runtime, TargAd, TargAdConfig};
use targad_data::GeneratorSpec;
use targad_linalg::{rng as lrng, Matrix};
use targad_nn::{Activation, Adam, AutoEncoder, Mlp, Optimizer};

fn quick_mode() -> bool {
    std::env::var("TARGAD_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Applies the session's sampling budget to a group: tiny in quick mode,
/// enough samples for stable means otherwise.
fn tune<'a, 'b>(
    group: &'a mut criterion::BenchmarkGroup<'b>,
) -> &'a mut criterion::BenchmarkGroup<'b> {
    if quick_mode() {
        group
            .sample_size(2)
            .measurement_time(Duration::from_millis(25))
    } else {
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(1))
    }
}

/// One pooled-tape autoencoder step (Eq. 1 without the labeled term):
/// forward reconstruction, mean squared-error loss, backward, Adam update.
fn bench_ae_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_ae_step");
    tune(&mut group);
    for (batch, d) in [(128usize, 32usize), (256, 64), (512, 128)] {
        let mut rng = lrng::seeded(11);
        let x = lrng::uniform_matrix(&mut rng, batch, d, 0.0, 1.0);
        let mut vs = VarStore::new();
        let ae = AutoEncoder::new(&mut vs, &mut rng, &[d, d / 2, d / 4]);
        let mut opt = Adam::new(1e-3);
        let mut tape = Tape::new();
        group.bench_function(format!("{batch}x{d}"), |b| {
            b.iter(|| {
                vs.zero_grads();
                tape.reset();
                let xv = tape.input_from(&x);
                let err = ae.recon_error_rows(&mut tape, &vs, xv);
                let loss = tape.mean_all(err);
                tape.backward(loss, &mut vs);
                opt.step(&mut vs);
                black_box(tape.value(loss)[(0, 0)])
            });
        });
    }
    group.finish();
}

/// The classifier-step shape sweep (batch, input, hidden): the
/// `1024x256x256` entry is the acceptance-criteria size.
const CLF_SHAPES: [(usize, usize, usize); 3] = [(256, 64, 64), (512, 128, 128), (1024, 256, 256)];

/// One pooled-tape classifier step: MLP forward (one `Dense` node per
/// layer), cross-entropy against one-hot pseudo-labels, backward, Adam
/// update.
fn bench_clf_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_clf_step");
    tune(&mut group);
    for (batch, d, hidden) in CLF_SHAPES {
        let classes = 8usize;
        let mut rng = lrng::seeded(13);
        let x = lrng::normal_matrix(&mut rng, batch, d, 0.0, 1.0);
        let y = Matrix::from_fn(batch, classes, |r, c| f64::from(r % classes == c));
        let mut vs = VarStore::new();
        let mlp = Mlp::new(
            &mut vs,
            &mut rng,
            &[d, hidden, classes],
            Activation::Relu,
            Activation::None,
        );
        let mut opt = Adam::new(1e-3);
        let mut tape = Tape::new();
        group.bench_function(format!("{batch}x{d}x{hidden}"), |b| {
            b.iter(|| {
                vs.zero_grads();
                tape.reset();
                let xv = tape.input_from(&x);
                let yv = tape.input_from(&y);
                let z = mlp.forward(&mut tape, &vs, xv);
                let lp = tape.log_softmax_rows(z);
                let prod = tape.mul(yv, lp);
                let total = tape.sum_all(prod);
                let loss = tape.scale(total, -1.0 / batch as f64);
                tape.backward(loss, &mut vs);
                opt.step(&mut vs);
                black_box(tape.value(loss)[(0, 0)])
            });
        });
    }
    group.finish();
}

/// The Table II dataset dimensionalities: quick-demo (12), KDD (32),
/// NSL-KDD (41), SQB (182), UNSW-NB15 (196). Training shapes follow the
/// paper's setup — 128-row shards through the `[d, 64, 32, classes]`
/// classifier and the `[d, d/2, d/4]` per-cluster autoencoder.
const TABLE2_DIMS: [usize; 5] = [12, 32, 41, 182, 196];

/// One pooled classifier-step arm of the Table II sweep.
struct ClfArm {
    x: Matrix,
    y: Matrix,
    vs: VarStore,
    mlp: Mlp,
    opt: Adam,
    tape: Tape,
}

impl ClfArm {
    fn new(batch: usize, d: usize) -> Self {
        Self::with_arch(batch, &[d, 64, 32, 8])
    }

    /// `dims` is the full layer-width ladder `[d, hidden…, classes]`.
    fn with_arch(batch: usize, dims: &[usize]) -> Self {
        let (d, classes) = (dims[0], *dims.last().expect("non-empty arch"));
        let mut rng = lrng::seeded(13);
        let x = lrng::normal_matrix(&mut rng, batch, d, 0.0, 1.0);
        let y = Matrix::from_fn(batch, classes, |r, c| f64::from(r % classes == c));
        let mut vs = VarStore::new();
        let mlp = Mlp::new(&mut vs, &mut rng, dims, Activation::Relu, Activation::None);
        Self {
            x,
            y,
            vs,
            mlp,
            opt: Adam::new(1e-3),
            tape: Tape::new(),
        }
    }

    fn step(&mut self) {
        let batch = self.x.rows();
        self.vs.zero_grads();
        self.tape.reset();
        let xv = self.tape.input_from(&self.x);
        let yv = self.tape.input_from(&self.y);
        let z = self.mlp.forward(&mut self.tape, &self.vs, xv);
        let lp = self.tape.log_softmax_rows(z);
        let prod = self.tape.mul(yv, lp);
        let total = self.tape.sum_all(prod);
        let loss = self.tape.scale(total, -1.0 / batch as f64);
        self.tape.backward(loss, &mut self.vs);
        self.opt.step(&mut self.vs);
        black_box(self.tape.value(loss)[(0, 0)]);
    }
}

/// One pooled autoencoder-step arm of the Table II sweep.
struct AeArm {
    x: Matrix,
    vs: VarStore,
    ae: AutoEncoder,
    opt: Adam,
    tape: Tape,
}

impl AeArm {
    fn new(batch: usize, d: usize) -> Self {
        let mut rng = lrng::seeded(11);
        let x = lrng::uniform_matrix(&mut rng, batch, d, 0.0, 1.0);
        let mut vs = VarStore::new();
        let ae = AutoEncoder::new(&mut vs, &mut rng, &[d, d / 2, d / 4]);
        Self {
            x,
            vs,
            ae,
            opt: Adam::new(1e-3),
            tape: Tape::new(),
        }
    }

    fn step(&mut self) {
        self.vs.zero_grads();
        self.tape.reset();
        let xv = self.tape.input_from(&self.x);
        let err = self.ae.recon_error_rows(&mut self.tape, &self.vs, xv);
        let loss = self.tape.mean_all(err);
        self.tape.backward(loss, &mut self.vs);
        self.opt.step(&mut self.vs);
        black_box(self.tape.value(loss)[(0, 0)]);
    }
}

/// Per-step wall time of the classifier and AE steps on the Table II
/// shape sweep, in milliseconds. Each step's time is the *minimum*
/// per-step mean over several rounds: contention only ever inflates a
/// round, so the minimum is the least-noisy estimate of the true step
/// cost.
fn measure_table2_sweep() -> Vec<(String, f64)> {
    let (warmup, iters, rounds) = if quick_mode() { (2, 5, 1) } else { (20, 60, 5) };
    let mut sweep = Vec::new();
    for d in TABLE2_DIMS {
        let batch = 128usize;
        let mut clf = ClfArm::new(batch, d);
        let mut ae = AeArm::new(batch, d);
        let steps: [(&str, &mut dyn FnMut()); 2] =
            [("clf", &mut || clf.step()), ("ae", &mut || ae.step())];
        for (kind, step) in steps {
            for _ in 0..warmup {
                step();
            }
            let mut best_ns = u64::MAX;
            for _ in 0..rounds {
                let t0 = Instant::now();
                for _ in 0..iters {
                    step();
                }
                best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
            }
            let ms = best_ns as f64 / 1e6 / iters as f64;
            println!("table2 {kind} {batch}x{d}: {ms:.4} ms/step");
            sweep.push((format!("{kind}_{batch}x{d}"), ms));
        }
    }
    sweep
}

/// The GEMM dispatch mix of fused training steps over the whole shape
/// sweep, counted with telemetry hot: scalar-naive vs register-tiled
/// small vs blocked. Before the small-GEMM fast path ~98% of training
/// dispatches fell to the scalar loops; the tiled path must absorb them —
/// the naive share is asserted below 10%.
fn measure_dispatch_mix() -> (u64, u64, u64) {
    use targad_obs::metrics::{
        GEMM_KERNEL_DISPATCHES, GEMM_NAIVE_DISPATCHES, GEMM_SMALL_DISPATCHES,
    };
    GEMM_NAIVE_DISPATCHES.reset();
    GEMM_SMALL_DISPATCHES.reset();
    GEMM_KERNEL_DISPATCHES.reset();
    targad_obs::set_enabled(true);
    for (batch, d, hidden) in CLF_SHAPES {
        let classes = 8usize;
        let mut rng = lrng::seeded(13);
        let x = lrng::normal_matrix(&mut rng, batch, d, 0.0, 1.0);
        let y = Matrix::from_fn(batch, classes, |r, c| f64::from(r % classes == c));
        let mut vs = VarStore::new();
        let mlp = Mlp::new(
            &mut vs,
            &mut rng,
            &[d, hidden, classes],
            Activation::Relu,
            Activation::None,
        );
        let mut opt = Adam::new(1e-3);
        let mut tape = Tape::new();
        for _ in 0..3 {
            vs.zero_grads();
            tape.reset();
            let xv = tape.input_from(&x);
            let yv = tape.input_from(&y);
            let z = mlp.forward(&mut tape, &vs, xv);
            let lp = tape.log_softmax_rows(z);
            let prod = tape.mul(yv, lp);
            let total = tape.sum_all(prod);
            let loss = tape.scale(total, -1.0 / batch as f64);
            tape.backward(loss, &mut vs);
            opt.step(&mut vs);
            black_box(tape.value(loss)[(0, 0)]);
        }
    }
    // The Table II shard shapes — the workload whose dispatches used to be
    // ~98% scalar-naive.
    for d in TABLE2_DIMS {
        let mut clf = ClfArm::new(128, d);
        let mut ae = AeArm::new(128, d);
        for _ in 0..3 {
            clf.step();
            ae.step();
        }
    }
    targad_obs::set_enabled(false);
    let (naive, small, blocked) = (
        GEMM_NAIVE_DISPATCHES.get(),
        GEMM_SMALL_DISPATCHES.get(),
        GEMM_KERNEL_DISPATCHES.get(),
    );
    let total = naive + small + blocked;
    assert!(total > 0, "dispatch mix: no GEMM dispatches counted");
    let naive_share = naive as f64 / total as f64;
    assert!(
        naive_share < 0.10,
        "naive-path share of training GEMM dispatches is {:.1}% ({naive}/{total}); \
         the small-GEMM fast path must keep it below 10%",
        naive_share * 100.0
    );
    (naive, small, blocked)
}

/// The classifier step's dominant GEMM sequence at 1024×256×256 — forward
/// `x·w` plus the two backward products `x^T·g` and `g·w^T`.
fn bench_clf_gemm(c: &mut Criterion) {
    let mut rng = lrng::seeded(17);
    let x = lrng::normal_matrix(&mut rng, 1024, 256, 0.0, 1.0);
    let w = lrng::normal_matrix(&mut rng, 256, 256, 0.0, 0.1);
    let g = lrng::normal_matrix(&mut rng, 1024, 256, 0.0, 1.0);
    let mut group = c.benchmark_group("clf_gemm_1024x256x256");
    tune(&mut group);
    group.bench_function("blocked", |b| {
        b.iter(|| {
            let fwd = x.matmul(&w);
            let dw = x.matmul_tn(&g);
            let dx = g.matmul_nt(&w);
            black_box((fwd, dw, dx))
        });
    });
    group.finish();
}

/// End-to-end `TargAd::fit` — candidate selection, per-cluster AE
/// pretraining, and the sharded classifier loop — at 1, 2, and 4 workers.
/// Every configuration trains the *same* model (losses and weights are
/// bit-identical by the determinism contract); only wall-clock may differ.
fn bench_fit_dp(c: &mut Criterion) {
    let bundle = GeneratorSpec::quick_demo().generate(29);
    let mut cfg = TargAdConfig::fast();
    cfg.ae_epochs = 2;
    cfg.clf_epochs = 3;
    let mut group = c.benchmark_group("fit_dp");
    tune(&mut group);
    for workers in [1usize, 2, 4] {
        group.bench_function(format!("workers{workers}"), |b| {
            b.iter(|| {
                let mut model = TargAd::try_new(cfg.clone())
                    .expect("valid config")
                    .with_runtime(Runtime::new(workers));
                model.fit(&bundle.train, 7).expect("fit");
                black_box(model.history().clf_loss.len())
            });
        });
    }
    group.finish();
}

/// Writes `results/bench_dp.json`: the `fit_dp` shard-scaling sweep, the
/// measured 2- and 4-worker fit speedups over the 1-worker baseline, and
/// `host_parallelism` so readers can tell a kernel regression from a
/// hardware limit — on a host with fewer cores than workers the extra
/// workers are clamped and the honest speedup is ≈ 1.0.
fn write_dp_json(results: &[(String, f64)]) {
    let mean_of = |name: &str| {
        results
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, m)| m)
            .unwrap_or(0.0)
    };
    let w1 = mean_of("fit_dp/workers1");
    let w2 = mean_of("fit_dp/workers2");
    let w4 = mean_of("fit_dp/workers4");
    let ratio = |base: f64, par: f64| if par > 0.0 { base / par } else { 0.0 };
    let host = std::thread::available_parallelism().map_or(1, usize::from);

    let mut out = String::from("{\n  \"benchmarks\": [\n");
    let dp: Vec<&(String, f64)> = results
        .iter()
        .filter(|(n, _)| n.starts_with("fit_dp/"))
        .collect();
    for (i, (name, mean)) in dp.iter().enumerate() {
        let comma = if i + 1 < dp.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"mean_seconds\": {mean:e} }}{comma}\n"
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"host_parallelism\": {host},\n  \"speedup_fit_2workers\": {:.2},\n  \"speedup_fit_4workers\": {:.2}\n}}\n",
        ratio(w1, w2),
        ratio(w1, w4),
    ));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_dp.json");
    std::fs::create_dir_all(path.parent().expect("parent")).expect("create results dir");
    std::fs::write(&path, out).expect("write bench_dp.json");
    println!(
        "\nwrote {} (host parallelism {host}, 4-worker fit speedup {:.2}x)",
        path.display(),
        ratio(w1, w4)
    );
}

/// Writes `results/bench_training.json`: every benchmark mean, the GEMM
/// sequence's absolute time, the Table II per-step times, and the training
/// GEMM dispatch mix (naive share must be < 10%, asserted before this
/// runs).
fn write_json(results: &[(String, f64)], dispatch: (u64, u64, u64), sweep: &[(String, f64)]) {
    let mean_of = |name: &str| {
        results
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, m)| m)
            .unwrap_or(0.0)
    };
    let gemm_ms = mean_of("clf_gemm_1024x256x256/blocked") * 1e3;

    let (naive, small, blk) = dispatch;
    let total_dispatch = (naive + small + blk).max(1);
    let naive_share = naive as f64 / total_dispatch as f64;

    let mut out = String::from("{\n  \"benchmarks\": [\n");
    let own: Vec<&(String, f64)> = results
        .iter()
        .filter(|(n, _)| !n.starts_with("fit_dp/"))
        .collect();
    for (i, (name, mean)) in own.iter().enumerate() {
        let comma = if i + 1 < own.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"mean_seconds\": {mean:e} }}{comma}\n"
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"clf_gemm_ms_1024x256x256\": {gemm_ms:.3},\n"
    ));
    for (label, ms) in sweep {
        out.push_str(&format!("  \"step_ms_table2_{label}\": {ms:.4},\n"));
    }
    out.push_str(&format!(
        "  \"gemm_dispatches_naive\": {naive},\n  \
         \"gemm_dispatches_small\": {small},\n  \
         \"gemm_dispatches_blocked\": {blk},\n  \
         \"gemm_dispatch_naive_share\": {naive_share:.4}\n}}\n"
    ));
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_training.json");
    std::fs::create_dir_all(path.parent().expect("parent")).expect("create results dir");
    std::fs::write(&path, out).expect("write bench_training.json");
    println!(
        "\nwrote {} (gemm sequence {gemm_ms:.2} ms, naive dispatch share {:.1}%)",
        path.display(),
        naive_share * 100.0
    );
}

fn main() {
    // The step sweep runs first, on a cold box: the criterion groups
    // below sustain load long enough to heat shared hosts and skew
    // whatever measures after them.
    let sweep = measure_table2_sweep();
    let mut criterion = Criterion::default();
    bench_ae_step(&mut criterion);
    bench_clf_step(&mut criterion);
    bench_clf_gemm(&mut criterion);
    bench_fit_dp(&mut criterion);
    let dispatch = measure_dispatch_mix();
    write_json(criterion.results(), dispatch, &sweep);
    write_dp_json(criterion.results());
}
