//! Model-store benchmark: cold-load latency of the three snapshot read
//! paths, then a 64-tenant closed-loop serve phase with LRU churn.
//!
//! Phase 1 — **cold load**. A Table-II-sized classifier (256 → 1024 →
//! 1024 → 6, ~10 MB of f64 weights) is written once as a v2 text
//! snapshot and once as a v3 binary snapshot, then loaded repeatedly
//! through each path: v2 text parse, v3 buffered read, and v3 zero-copy
//! `mmap`. All three must score bit-identically, the `mmap` path must
//! borrow every weight byte (`parameter_bytes() == 0`), and in the full
//! run the `mmap` load must be ≥ 20× faster than the text parse.
//!
//! Phase 2 — **multi-tenant serving**. 64 tenant snapshots on disk, a
//! byte budget with room for ~10 resident engines, and eight closed-loop
//! clients scoring through `MicroBatcher::submit_for` with rotating
//! tenant keys. Nearly every request faults a tenant in from the store
//! and evicts another — the LRU steady state. Acceptance: the resident
//! byte gauge never exceeds the budget (observed after every reply) and
//! zero requests are lost.
//!
//! Writes `results/bench_store.json`. Set `TARGAD_BENCH_QUICK=1` for a
//! seconds-long smoke run (CI) that skips the 20× bar but keeps every
//! invariant check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use targad_core::{
    snapshot as text_snapshot, Classifier, EnginePrecision, OodStrategy, Runtime, ThresholdCache,
};
use targad_linalg::rng as lrng;
use targad_obs::metrics;
use targad_serve::{MicroBatcher, ModelRegistry, ModelSnapshot, ServeConfig};
use targad_store::LoadMode;

fn quick_mode() -> bool {
    std::env::var("TARGAD_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A deterministic synthetic classifier of the given architecture — the
/// cold-load cost depends only on the weight payload, not on training.
fn synthetic(dims: &[usize], m: usize, seed: u64) -> Classifier {
    let mut rng = lrng::seeded(seed);
    let mut matrices = Vec::new();
    for pair in dims.windows(2) {
        matrices.push(lrng::normal_matrix(&mut rng, pair[0], pair[1], 0.0, 0.5));
        matrices.push(lrng::normal_matrix(&mut rng, 1, pair[1], 0.0, 0.1));
    }
    let k = dims.last().unwrap() - m;
    Classifier::from_parameters(matrices, m, k).expect("consistent synthetic shapes")
}

fn median_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1_000.0
}

struct ColdLoad {
    weight_bytes: usize,
    v2_bytes: u64,
    v3_bytes: u64,
    text_us: f64,
    buffered_us: f64,
    mmap_us: f64,
}

/// Times the three cold-load paths on one model, checking bit-identity
/// and the zero-copy property along the way.
fn cold_load_phase(dir: &std::path::Path, iters: usize) -> ColdLoad {
    let dims: &[usize] = if quick_mode() {
        &[16, 32, 6]
    } else {
        &[256, 1024, 1024, 6]
    };
    let clf = synthetic(dims, 3, 41);
    let cache = ThresholdCache::complete(0.125, -3.5, 1.0625e-3);
    let weight_bytes: usize = dims.windows(2).map(|p| (p[0] + 1) * p[1] * 8).sum();

    let v2_path = dir.join("cold.snapshot.txt");
    let v3_path = dir.join("cold.tgsnp");
    std::fs::write(
        &v2_path,
        text_snapshot::to_string_with_thresholds(&clf, &cache),
    )
    .expect("write v2 text snapshot");
    targad_store::save(&clf, &cache, EnginePrecision::F64, &v3_path).expect("write v3 snapshot");
    let v2_bytes = std::fs::metadata(&v2_path).expect("v2 metadata").len();
    let v3_bytes = std::fs::metadata(&v3_path).expect("v3 metadata").len();

    let probe = lrng::normal_matrix(&mut lrng::seeded(5), 8, dims[0], 0.0, 1.0);
    let reference = clf.target_scores_rt(&probe, &Runtime::serial());

    let (mut text_ns, mut buffered_ns, mut mmap_ns) = (Vec::new(), Vec::new(), Vec::new());
    for iter in 0..=iters {
        let t0 = Instant::now();
        let text = std::fs::read_to_string(&v2_path).expect("read v2");
        let (text_clf, text_thresholds) =
            text_snapshot::from_string_with_thresholds(&text).expect("parse v2");
        let t_text = t0.elapsed();

        let t0 = Instant::now();
        let buffered = targad_store::load_with(&v3_path, LoadMode::Buffered).expect("buffered");
        let t_buffered = t0.elapsed();

        let t0 = Instant::now();
        let mapped = targad_store::load_with(&v3_path, LoadMode::Mmap).expect("mmap");
        let t_mmap = t0.elapsed();

        if iter == 0 {
            // Warm-up iteration doubles as the correctness check: all
            // three paths must reproduce the in-memory model bit for bit,
            // and the mmap path must not have copied a single weight.
            assert_eq!(text_thresholds, cache);
            assert_eq!(buffered.thresholds, cache);
            assert_eq!(mapped.thresholds, cache);
            assert_eq!(
                text_clf.target_scores_rt(&probe, &Runtime::serial()),
                reference
            );
            assert_eq!(
                buffered
                    .classifier
                    .target_scores_rt(&probe, &Runtime::serial()),
                reference
            );
            assert_eq!(
                mapped
                    .classifier
                    .target_scores_rt(&probe, &Runtime::serial()),
                reference
            );
            assert!(mapped.classifier.has_borrowed_parameters());
            assert_eq!(
                mapped.classifier.parameter_bytes(),
                0,
                "mmap load must borrow every weight byte"
            );
            continue;
        }
        text_ns.push(t_text.as_nanos() as u64);
        buffered_ns.push(t_buffered.as_nanos() as u64);
        mmap_ns.push(t_mmap.as_nanos() as u64);
    }

    ColdLoad {
        weight_bytes,
        v2_bytes,
        v3_bytes,
        text_us: median_us(text_ns),
        buffered_us: median_us(buffered_ns),
        mmap_us: median_us(mmap_ns),
    }
}

struct ServePhase {
    tenants: usize,
    clients: usize,
    budget_bytes: u64,
    unit_bytes: u64,
    rows: u64,
    lost: u64,
    max_resident: u64,
    evictions: u64,
    elapsed: Duration,
}

/// The 64-tenant closed loop: rotating tenant keys against a budget that
/// keeps ~10 engines resident, so the LRU churns on nearly every request.
fn serve_phase(dir: &std::path::Path) -> ServePhase {
    let (tenants, clients, iters) = if quick_mode() {
        (8, 4, 40)
    } else {
        (64, 8, 400)
    };
    let dims: &[usize] = &[32, 64, 6];
    let cache = ThresholdCache::complete(0.25, -2.5, 2.0e-3);
    for t in 0..tenants {
        let clf = synthetic(dims, 3, 1000 + t as u64);
        targad_store::save(
            &clf,
            &cache,
            EnginePrecision::F64,
            dir.join(format!("t{t}.tgsnp")),
        )
        .expect("write tenant snapshot");
    }
    let default_snap = ModelSnapshot::new(synthetic(dims, 3, 7), cache, "bench-default");
    let unit = default_snap.resident_cost();
    // Room for the default plus ~9 tenants (quick: ~3 of 8), so faulting
    // the full rotation in forces steady LRU churn either way.
    let resident_units = if quick_mode() { 4 } else { 10 };
    let budget = unit * resident_units + unit / 2;

    let config = ServeConfig::builder()
        .max_batch(32)
        .model_budget_bytes(budget)
        .store_dir(Some(dir.to_path_buf()))
        .build()
        .expect("valid config");
    let registry = Arc::new(
        ModelRegistry::with_options(
            default_snap,
            EnginePrecision::F64,
            budget,
            Some(dir.to_path_buf()),
        )
        .expect("default fits the budget"),
    );
    let batcher = Arc::new(MicroBatcher::start(
        &config,
        Arc::clone(&registry),
        Runtime::new(2),
    ));

    let x = lrng::normal_matrix(&mut lrng::seeded(9), 4, dims[0], 0.0, 1.0);
    let evictions_before = metrics::STORE_EVICTIONS.get();
    let max_resident = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let batcher = Arc::clone(&batcher);
            let registry = Arc::clone(&registry);
            let max_resident = Arc::clone(&max_resident);
            let x = x.clone();
            std::thread::spawn(move || {
                let (mut rows, mut lost) = (0u64, 0u64);
                for i in 0..iters {
                    let tenant = format!("t{}", (c * 31 + i * 7) % tenants);
                    let mut data = Vec::with_capacity(2 * x.cols());
                    data.extend_from_slice(x.row(i % 2));
                    data.extend_from_slice(x.row(i % 2 + 2));
                    match batcher.submit_for(Some(&tenant), data, 2, x.cols(), OodStrategy::Msp) {
                        Ok(scored) if scored.len() == 2 => rows += 2,
                        _ => lost += 2,
                    }
                    let resident = registry.resident_bytes();
                    max_resident.fetch_max(resident, Ordering::Relaxed);
                    assert!(
                        resident <= budget,
                        "resident bytes {resident} exceeded the budget {budget}"
                    );
                }
                (rows, lost)
            })
        })
        .collect();
    let (mut rows, mut lost) = (0u64, 0u64);
    for handle in handles {
        let (r, l) = handle.join().expect("client thread");
        rows += r;
        lost += l;
    }
    let elapsed = started.elapsed();
    batcher.shutdown();
    assert_eq!(batcher.depth(), 0, "queue must drain on shutdown");

    ServePhase {
        tenants,
        clients,
        budget_bytes: budget,
        unit_bytes: unit,
        rows,
        lost,
        max_resident: max_resident.load(Ordering::Relaxed),
        evictions: metrics::STORE_EVICTIONS.get() - evictions_before,
        elapsed,
    }
}

fn main() {
    // The eviction/load counters reported below sit behind the runtime
    // telemetry gate.
    targad_obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("targad-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let iters = if quick_mode() { 3 } else { 15 };
    let cold = cold_load_phase(&dir, iters);
    let mmap_vs_text = cold.text_us / cold.mmap_us;
    let buffered_vs_text = cold.text_us / cold.buffered_us;
    println!(
        "cold load  : {:>7.1} KB weights | text {:>9.1}us, buffered {:>8.1}us, mmap {:>8.1}us",
        cold.weight_bytes as f64 / 1024.0,
        cold.text_us,
        cold.buffered_us,
        cold.mmap_us
    );
    println!("speedup    : mmap {mmap_vs_text:.1}x over text parse (acceptance: >= 20x), buffered {buffered_vs_text:.1}x");

    let serve = serve_phase(&dir);
    println!(
        "serve churn: {} tenants, {} clients, {:>6} rows in {:>6.1}ms, {} evictions, \
         resident max {} <= budget {}, lost {}",
        serve.tenants,
        serve.clients,
        serve.rows,
        serve.elapsed.as_secs_f64() * 1e3,
        serve.evictions,
        serve.max_resident,
        serve.budget_bytes,
        serve.lost
    );

    let mode = if quick_mode() { "quick" } else { "full" };
    let json = format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"mmap_supported\": {},\n  \
         \"cold_load\": {{\n    \"weight_bytes\": {},\n    \"v2_text_bytes\": {},\n    \
         \"v3_binary_bytes\": {},\n    \"text_parse_us\": {:.1},\n    \
         \"binary_buffered_us\": {:.1},\n    \"mmap_us\": {:.1},\n    \
         \"speedup_mmap_vs_text\": {:.1},\n    \"speedup_buffered_vs_text\": {:.1},\n    \
         \"mmap_copied_weight_bytes\": 0\n  }},\n  \
         \"serve_phase\": {{\n    \"tenants\": {},\n    \"clients\": {},\n    \
         \"budget_bytes\": {},\n    \"engine_unit_bytes\": {},\n    \"rows\": {},\n    \
         \"lost_requests\": {},\n    \"max_resident_bytes\": {},\n    \
         \"evictions\": {},\n    \"elapsed_ms\": {:.1},\n    \"rows_per_sec\": {:.1}\n  }}\n}}\n",
        targad_store::mmap_supported(),
        cold.weight_bytes,
        cold.v2_bytes,
        cold.v3_bytes,
        cold.text_us,
        cold.buffered_us,
        cold.mmap_us,
        mmap_vs_text,
        buffered_vs_text,
        serve.tenants,
        serve.clients,
        serve.budget_bytes,
        serve.unit_bytes,
        serve.rows,
        serve.lost,
        serve.max_resident,
        serve.evictions,
        serve.elapsed.as_secs_f64() * 1e3,
        serve.rows as f64 / serve.elapsed.as_secs_f64(),
    );
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_store.json");
    std::fs::write(&path, json).expect("write bench_store.json");
    println!("wrote {}", path.display());

    assert_eq!(serve.lost, 0, "the LRU churn phase lost requests");
    assert!(serve.max_resident <= serve.budget_bytes);
    // Quick (CI smoke) mode runs a toy model where fixed syscall overhead
    // dominates; the full run enforces the acceptance bar.
    if !quick_mode() {
        assert!(
            mmap_vs_text >= 20.0,
            "mmap cold load only {mmap_vs_text:.1}x faster than text parse (acceptance: >= 20x)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
