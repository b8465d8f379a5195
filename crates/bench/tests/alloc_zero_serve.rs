//! Zero-overhead contract for **serve observability**: every telemetry
//! primitive the `/score` hot path touches — ungated counters and
//! histograms, labeled per-tenant families, the score sketch, request
//! trace spans, Prometheus rendering into a warm buffer — performs zero
//! heap allocations in steady state, gate up or down. And the gate must
//! be invisible to the math: the same rows scored through a
//! [`targad_serve::MicroBatcher`] with tracing off and on produce
//! bit-identical scores. A separate binary because `#[global_allocator]`
//! is per-binary, and `harness = false` because the libtest harness keeps
//! a main thread alive whose occasional allocations would trip the
//! process-global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use targad_core::{OodStrategy, Runtime, TargAd, TargAdConfig};
use targad_data::GeneratorSpec;
use targad_obs::{labeled, metrics, sketch, RequestTrace, ServePhase};
use targad_serve::{MicroBatcher, ModelRegistry, ModelSnapshot, ServeConfig};

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

/// One pass over every obs primitive the serve request path exercises.
/// `trace` is threaded in so the gate state sampled at `begin()` applies.
fn obs_hot_pass(label: labeled::LabelId, trace: &mut RequestTrace) {
    metrics::SERVE_REQUESTS.inc_always();
    metrics::SERVE_ROWS.add_always(8);
    metrics::SERVE_QUEUE_DEPTH.set_always(3);
    metrics::SERVE_QUEUE_WAIT_NS.record_always(12_345);
    metrics::SERVE_REQUEST_NS.record_always(1_234_567);
    metrics::SERVE_BATCH_FILL.record_always(8);
    labeled::TENANT_REQUESTS.inc(label);
    labeled::TENANT_ROWS.add(label, 8);
    labeled::TENANT_REQUEST_ROWS.record(label, 8);
    labeled::TENANT_REQUEST_NS.record(label, 1_234_567);
    sketch::SERVE_SCORES.record(0.7314);
    sketch::TENANT_SCORES.record(label, 0.7314);
    trace.add(ServePhase::QueueWait, 1_000);
    {
        let _span = trace.span(ServePhase::Serialize);
    }
}

/// Fits a small calibrated snapshot plus held-out rows, mirroring the
/// serve test fixture.
fn fitted_snapshot(seed: u64) -> (ModelSnapshot, targad_linalg::Matrix) {
    let bundle = GeneratorSpec::quick_demo().generate(seed);
    let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
    model.fit(&bundle.train, seed).expect("fit");
    let thresholds = model
        .calibrate_thresholds(&bundle.val.features, &bundle.val.three_way_labels())
        .expect("calibrate");
    let snapshot = ModelSnapshot::new(
        model.classifier().unwrap().clone(),
        thresholds,
        "alloc-zero-serve",
    );
    (snapshot, bundle.test.features)
}

fn main() {
    // ---- Obs primitives allocate nothing, gate down then up ------------
    // The label is interned ONCE up front (interning leaks a Box by
    // design); steady-state requests only ever touch interned labels.
    let label = labeled::tenants().intern("alloc-zero-tenant");
    for enabled in [false, true] {
        targad_obs::set_enabled(enabled);
        let mut trace = RequestTrace::begin();
        assert_eq!(trace.is_active(), enabled);
        obs_hot_pass(label, &mut trace); // warm-up under this gate state
        for i in 0..5 {
            let n = count_allocs(|| {
                let mut trace = RequestTrace::begin();
                obs_hot_pass(label, &mut trace);
            });
            assert_eq!(
                n, 0,
                "obs pass {i} (enabled={enabled}) performed {n} heap allocations"
            );
        }
        if enabled {
            assert!(
                trace.phase_ns(ServePhase::QueueWait) == 1_000 && trace.total_ns() >= 1_000,
                "enabled trace recorded nothing"
            );
        } else {
            assert_eq!(trace.total_ns(), 0, "disabled trace must stay inert");
        }
    }
    targad_obs::set_enabled(false);
    assert!(
        metrics::SERVE_REQUESTS.get() >= 12 && sketch::SERVE_SCORES.count() >= 12,
        "ungated serve metrics must move regardless of the gate"
    );

    // ---- Prometheus exposition renders into a warm buffer alloc-free ---
    // The /metrics handler reuses one String across scrapes; after the
    // first render grows it, subsequent renders must not allocate.
    let mut buf = String::new();
    targad_obs::prom::render_into(&mut buf);
    assert!(buf.contains("targad_serve_requests_total"));
    let warm_cap = buf.capacity();
    for i in 0..3 {
        let n = count_allocs(|| targad_obs::prom::render_into(&mut buf));
        assert_eq!(n, 0, "warm /metrics render {i} allocated {n} times");
    }
    assert_eq!(buf.capacity(), warm_cap, "warm renders must reuse capacity");

    // ---- Tracing on vs off is bit-identical through the batcher --------
    let (snapshot, x) = fitted_snapshot(51);
    let dims = x.cols();
    let rows = 32.min(x.rows());
    let flat: Vec<f64> = (0..rows).flat_map(|r| x.row(r).to_vec()).collect();
    let config = ServeConfig::builder()
        .max_batch(16)
        .build()
        .expect("valid config");
    let registry = Arc::new(ModelRegistry::new(snapshot));
    let batcher = MicroBatcher::start(&config, registry, Runtime::new(2));

    let score_bits = |batcher: &MicroBatcher| -> Vec<(u64, targad_core::VerdictClass)> {
        batcher
            .submit(flat.clone(), rows, dims, OodStrategy::Msp)
            .expect("submit")
            .iter()
            .map(|s| (s.score.to_bits(), s.class))
            .collect()
    };
    targad_obs::set_enabled(false);
    let off = score_bits(&batcher);
    targad_obs::set_enabled(true);
    let on = score_bits(&batcher);
    targad_obs::set_enabled(false);
    let off_again = score_bits(&batcher);
    assert_eq!(off, on, "tracing on changed the scored results");
    assert_eq!(off, off_again, "toggling the gate left residue in scores");
    batcher.shutdown();

    println!("alloc_zero_serve: obs hot path performed 0 allocations; gate is bit-invisible");
}
