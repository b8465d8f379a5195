//! Scoring-path micro-benchmarks: the pooled [`ScoreEngine`] (fused
//! bias+activation epilogues, ping-pong scratch, row-block streaming) on a
//! TargAD-shaped classifier, at 1k and 100k rows and 1 and 4 workers, in
//! f64 and through the f32 SIMD engine (`F32Plan` over the `targad-linalg`
//! micro-kernels). Writes `results/bench_inference.json` with absolute
//! rows/s per configuration; `speedup_f32_over_f64_100k_1worker` is the
//! acceptance metric for the f32 kernels (must reach ≥ 2.0 on an AVX2+FMA
//! host). The JSON also records the host's core count, CPU features and
//! which kernel path dispatched, so a recorded number can never be misread
//! against the wrong hardware.
//!
//! Set `TARGAD_BENCH_QUICK=1` for a seconds-long smoke run (CI uses this
//! to catch scoring-path regressions without paying full budgets).

use criterion::Criterion;
use std::hint::black_box;
use std::time::Duration;
use targad_autograd::VarStore;
use targad_core::Runtime;
use targad_linalg::f32kernel;
use targad_linalg::rng as lrng;
use targad_nn::{Activation, F32Plan, Mlp, ScoreEngine};

/// Target classes `m` of the benchmark classifier (out of `m + k = 6`).
const M: usize = 3;

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

/// The Eq. 9 finish on one logit row: softmax (max-shifted, ascending
/// accumulation) and the best target-class probability.
fn target_score_row(z: &[f64]) -> f64 {
    let mx = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    let mut best = f64::NEG_INFINITY;
    for (j, &v) in z.iter().enumerate() {
        let e = (v - mx).exp();
        sum += e;
        if j < M {
            best = best.max(e);
        }
    }
    best / sum
}

/// The same finish in f32 arithmetic (the serving path widens only the
/// final ratio), so the f32 sweep measures an all-f32 pipeline.
fn target_score_row_f32(z: &[f32]) -> f64 {
    let mx = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    let mut best = f32::NEG_INFINITY;
    for (j, &v) in z.iter().enumerate() {
        let e = (v - mx).exp();
        sum += e;
        if j < M {
            best = best.max(e);
        }
    }
    f64::from(best) / f64::from(sum)
}

/// The engine on the TargAD classifier shape (`d=16 → 64 → 64 → m+k=6`):
/// the `100k×(m+k)` scoring case plus a small-batch case where per-call
/// overhead dominates.
fn bench_scoring(c: &mut Criterion) {
    let mut rng = lrng::seeded(31);
    let mut vs = VarStore::new();
    let mlp = Mlp::new(
        &mut vs,
        &mut rng,
        &[16, 64, 64, 2 * M],
        Activation::Relu,
        Activation::None,
    );
    for rows in [1_000usize, 100_000] {
        let x = lrng::normal_matrix(&mut rng, rows, 16, 0.0, 1.0);
        let label = if rows == 1_000 { "1k" } else { "100k" };
        let mut group = c.benchmark_group(format!("score_{label}"));
        tune(&mut group);
        for workers in [1usize, 4] {
            let rt = Runtime::new(workers);
            // Engine: fused epilogues, pooled scratch, zero steady-state
            // allocations (`out` and the engine pools are reused).
            let mut engine = ScoreEngine::new();
            let mut out = vec![0.0; rows];
            group.bench_function(format!("engine/workers{workers}"), |b| {
                b.iter(|| {
                    engine.score_into(
                        &[(&mlp, &vs)],
                        &x,
                        &rt,
                        |_, z| target_score_row(z),
                        &mut out,
                    );
                    black_box(out[rows - 1])
                });
            });
            // f32 engine: the same fused pipeline through the SIMD
            // micro-kernels, weights cast + panel-packed once up front.
            let plan = F32Plan::from_stack(&[(&mlp, &vs)]);
            let mut engine_f32 = ScoreEngine::new();
            let mut out_f32 = vec![0.0; rows];
            group.bench_function(format!("engine_f32/workers{workers}"), |b| {
                b.iter(|| {
                    engine_f32.score_f32_into(
                        &plan,
                        &x,
                        &rt,
                        |_, z| target_score_row_f32(z),
                        &mut out_f32,
                    );
                    black_box(out_f32[rows - 1])
                });
            });
        }
        group.finish();
    }
}

/// Writes `results/bench_inference.json`: every benchmark mean, rows/sec
/// for each configuration, and the f32-over-f64 engine speedups.
fn write_json(results: &[(String, f64)]) {
    let mean_of = |name: &str| {
        results
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, m)| m)
            .unwrap_or(0.0)
    };
    let rows_of = |name: &str| {
        if name.starts_with("score_1k") {
            1_000.0
        } else {
            100_000.0
        }
    };
    let ratio = |f64_engine: f64, f32_engine: f64| {
        if f32_engine > 0.0 {
            f64_engine / f32_engine
        } else {
            0.0
        }
    };

    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, (name, mean)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let rps = if *mean > 0.0 {
            rows_of(name) / mean
        } else {
            0.0
        };
        out.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"mean_seconds\": {mean:e}, \"rows_per_sec\": {rps:.0} }}{comma}\n"
        ));
    }
    let f32_1k_1 = ratio(
        mean_of("score_1k/engine/workers1"),
        mean_of("score_1k/engine_f32/workers1"),
    );
    let f32_100k_1 = ratio(
        mean_of("score_100k/engine/workers1"),
        mean_of("score_100k/engine_f32/workers1"),
    );
    let f32_100k_4 = ratio(
        mean_of("score_100k/engine/workers4"),
        mean_of("score_100k/engine_f32/workers4"),
    );
    let f64_100k_1 =
        rows_of("score_100k") / mean_of("score_100k/engine/workers1").max(f64::MIN_POSITIVE);
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let features = f32kernel::cpu_features();
    out.push_str(&format!(
        "  ],\n  \"host_parallelism\": {host},\n  \"cpu_features\": {{ \"avx2\": {}, \"fma\": {} }},\n  \"f32_kernel_path\": \"{}\",\n  \"speedup_f32_over_f64_1k_1worker\": {f32_1k_1:.2},\n  \"speedup_f32_over_f64_100k_1worker\": {f32_100k_1:.2},\n  \"speedup_f32_over_f64_100k_4workers\": {f32_100k_4:.2}\n}}\n",
        features.avx2,
        features.fma,
        f32kernel::kernel_path().name(),
    ));
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_inference.json");
    std::fs::create_dir_all(path.parent().expect("parent")).expect("create results dir");
    std::fs::write(&path, out).expect("write bench_inference.json");
    println!(
        "\nwrote {} (100k single-worker: f64 engine {f64_100k_1:.0} rows/s, f32 {f32_100k_1:.2}x over f64 on the {} path)",
        path.display(),
        f32kernel::kernel_path().name(),
    );
}

/// Sanity outside the timing loop: the engine and the whole-batch
/// `Mlp::eval` produce bit-identical scores on the benchmark model (the
/// real contract, against a naive oracle, lives in
/// `tests/engine_identity.rs`; this guards the bench itself).
fn check_identity() {
    let mut rng = lrng::seeded(31);
    let mut vs = VarStore::new();
    let mlp = Mlp::new(
        &mut vs,
        &mut rng,
        &[16, 64, 64, 2 * M],
        Activation::Relu,
        Activation::None,
    );
    let x = lrng::normal_matrix(&mut rng, 777, 16, 0.0, 1.0);
    let rt = Runtime::new(4);
    let z = mlp.eval(&vs, &x);
    let reference: Vec<f64> = (0..z.rows()).map(|r| target_score_row(z.row(r))).collect();
    let mut engine = ScoreEngine::new();
    let engine_scores = engine.score(&[(&mlp, &vs)], &x, &rt, |_, row| target_score_row(row));
    assert_eq!(
        engine_scores
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "bench model: engine diverged from Mlp::eval"
    );
    // The f32 sweep must benchmark a *correct* pipeline: every f32 score
    // within f32 rounding of the f64 oracle (bit-exactness vs the scalar
    // f32 reference is pinned in `targad-linalg`'s property tests).
    let plan = F32Plan::from_stack(&[(&mlp, &vs)]);
    let f32_scores = engine.score_f32(&plan, &x, &rt, |_, row| target_score_row_f32(row));
    for (r, (&f32_score, &oracle)) in f32_scores.iter().zip(&reference).enumerate() {
        assert!(
            (f32_score - oracle).abs() < 1e-3,
            "bench model row {r}: f32 score {f32_score} drifted from f64 oracle {oracle}"
        );
    }
}

fn main() {
    check_identity();
    let mut criterion = Criterion::default();
    bench_scoring(&mut criterion);
    write_json(criterion.results());
}
