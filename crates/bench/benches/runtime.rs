//! Serial vs parallel timings for every runtime-accelerated path: iForest
//! build/score, TargAD scoring, and the full `run_suite` grid. Besides the
//! usual console report, this bench writes `results/bench_runtime.json` at
//! the workspace root with the host's core count, so speedups can be
//! tracked across machines (on a single-core host the parallel rows
//! simply confirm the overhead is bounded — results are bit-identical
//! either way, which `tests/determinism.rs` asserts).

use criterion::Criterion;
use std::hint::black_box;
use std::time::Duration;
use targad_baselines::{Detector, IForest, TrainView};
use targad_bench::{harness_config, run_suite_rt};
use targad_core::{Runtime, TargAd, TargAdConfig};
use targad_data::GeneratorSpec;
use targad_linalg::rng as lrng;

/// The worker counts compared: always serial, plus the environment's
/// parallel runtime (falling back to two workers on a single-core host so
/// the parallel path is still exercised).
fn parallel_runtime() -> Runtime {
    let env = Runtime::from_env();
    if env.threads() > 1 {
        env
    } else {
        Runtime::new(2)
    }
}

fn bench_iforest(c: &mut Criterion) {
    let mut rng = lrng::seeded(2);
    let data = lrng::uniform_matrix(&mut rng, 2_048, 16, 0.0, 1.0);
    let view = TrainView::from_matrices(targad_linalg::Matrix::zeros(0, 16), data.clone());
    let rt = parallel_runtime();
    let mut group = c.benchmark_group("runtime_iforest_2048x16");
    for (label, runtime) in [("serial", Runtime::serial()), ("parallel", rt)] {
        let label = if label == "serial" {
            "serial".to_string()
        } else {
            format!("threads{}", runtime.threads())
        };
        group.bench_function(format!("fit/{label}"), |bench| {
            bench.iter(|| {
                let mut forest = IForest::new(50, 128).with_runtime(runtime);
                forest.fit(&view, 3).expect("fit");
                black_box(forest)
            });
        });
        let mut forest = IForest::new(50, 128).with_runtime(runtime);
        forest.fit(&view, 3).expect("fit");
        group.bench_function(format!("score/{label}"), |bench| {
            bench.iter(|| black_box(forest.score(&data)));
        });
    }
    group.finish();
}

fn bench_targad_score(c: &mut Criterion) {
    let bundle = GeneratorSpec::quick_demo().generate(5);
    let mut cfg = TargAdConfig::fast();
    cfg.ae_epochs = 2;
    cfg.clf_epochs = 3;
    let rt = parallel_runtime();
    let mut group = c.benchmark_group("runtime_targad_score");
    for (label, runtime) in [
        ("serial".to_string(), Runtime::serial()),
        (format!("threads{}", rt.threads()), rt),
    ] {
        let mut model = TargAd::try_new(cfg.clone())
            .expect("valid config")
            .with_runtime(runtime);
        model.fit(&bundle.train, 7).expect("fit");
        group.bench_function(label, |bench| {
            bench.iter(|| black_box(model.try_score_dataset(&bundle.test).expect("fitted")));
        });
    }
    group.finish();
}

fn bench_suite(c: &mut Criterion) {
    let mut spec = GeneratorSpec::quick_demo();
    spec.train_unlabeled = 150;
    let bundle = spec.generate(9);
    let mut cfg = harness_config(spec.normal_groups);
    cfg.ae_epochs = 1;
    cfg.clf_epochs = 2;
    let seeds = [1u64];
    let rt = parallel_runtime();
    let mut group = c.benchmark_group("runtime_suite_12models_1seed");
    group
        .sample_size(2)
        .measurement_time(Duration::from_millis(50));
    for (label, runtime) in [
        ("serial".to_string(), Runtime::serial()),
        (format!("threads{}", rt.threads()), rt),
    ] {
        group.bench_function(label, |bench| {
            bench.iter(|| black_box(run_suite_rt(&bundle, &cfg, &seeds, runtime)));
        });
    }
    group.finish();
}

/// Writes the collected means as JSON next to the other `results/` files
/// (the workspace root, resolved from this crate's manifest directory).
fn write_json(results: &[(String, f64)]) {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, (name, mean)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"mean_seconds\": {mean:e} }}{comma}\n"
        ));
    }
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    out.push_str(&format!("  ],\n  \"host_parallelism\": {host}\n}}\n"));
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_runtime.json");
    std::fs::create_dir_all(path.parent().expect("parent")).expect("create results dir");
    std::fs::write(&path, out).expect("write bench_runtime.json");
    println!("\nwrote {}", path.display());
}

fn main() {
    let mut criterion = Criterion::default();
    bench_iforest(&mut criterion);
    bench_targad_score(&mut criterion);
    bench_suite(&mut criterion);
    write_json(criterion.results());
}
