//! Registry hot-swap under concurrent scoring: no request is lost, no
//! reader ever observes a torn (snapshot, generation) pair, and the
//! generation each scorer observes is monotonically non-decreasing.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use targad_core::OodStrategy;
use targad_runtime::Runtime;
use targad_serve::{MicroBatcher, ModelRegistry, ServeConfig};

#[test]
fn hot_swap_under_concurrent_scoring_loses_nothing() {
    let (snap_a, x) = common::fitted_snapshot(17, "model-a");
    let (snap_b, _) = common::fitted_snapshot(99, "model-b");
    let tau_a = common::tau_of(&snap_a, OodStrategy::Msp);
    let tau_b = common::tau_of(&snap_b, OodStrategy::Msp);
    // The torn-read check below identifies the model by its threshold, so
    // the two snapshots must disagree on it.
    assert_ne!(tau_a.to_bits(), tau_b.to_bits(), "fixture taus must differ");

    let config = ServeConfig::builder()
        .max_batch(32)
        .queue_depth(4096)
        .build()
        .expect("valid config");
    let registry = Arc::new(ModelRegistry::new(snap_a.clone()));
    let batcher = Arc::new(MicroBatcher::start(
        &config,
        Arc::clone(&registry),
        Runtime::new(2),
    ));

    // Swaps alternate b, a, b, a, … so odd generations serve model a and
    // even generations serve model b — each reply's threshold must match
    // the model its generation names, or the (snapshot, generation) pair
    // was torn.
    let expected_tau = move |generation: u64| if generation % 2 == 1 { tau_a } else { tau_b };

    let stop = Arc::new(AtomicBool::new(false));
    let dims = x.cols();
    let scorers: Vec<_> = (0..4)
        .map(|t| {
            let batcher = Arc::clone(&batcher);
            let stop = Arc::clone(&stop);
            let x = x.clone();
            std::thread::spawn(move || {
                let mut scored = 0u64;
                let mut last_generation = 0u64;
                let mut i = t;
                while !stop.load(Ordering::Acquire) {
                    let lo = i % (x.rows() - 3);
                    let data = common::flatten_rows(&x, lo, lo + 3);
                    let rows = batcher
                        .submit(data, 3, dims, OodStrategy::Msp)
                        .expect("scoring during hot-swap must not fail");
                    assert_eq!(rows.len(), 3);
                    for row in &rows {
                        assert!(
                            row.generation >= last_generation,
                            "generation went backwards: {} after {last_generation}",
                            row.generation
                        );
                        last_generation = row.generation;
                        assert_eq!(
                            row.threshold.to_bits(),
                            expected_tau(row.generation).to_bits(),
                            "torn read: generation {} answered with the other model's tau",
                            row.generation
                        );
                        assert!(row.score.is_finite());
                    }
                    scored += 3;
                    i += 1;
                }
                scored
            })
        })
        .collect();

    const SWAPS: u64 = 24;
    for s in 0..SWAPS {
        let next = if s % 2 == 0 {
            snap_b.clone()
        } else {
            snap_a.clone()
        };
        let generation = registry.swap(next);
        assert_eq!(generation, s + 2, "generations are strictly sequential");
        std::thread::sleep(Duration::from_millis(2));
    }

    stop.store(true, Ordering::Release);
    let total: u64 = scorers.into_iter().map(|h| h.join().expect("scorer")).sum();
    assert!(total > 0, "scorers made progress during the swap storm");
    assert_eq!(registry.generation(), SWAPS + 1);

    // Shutdown drains cleanly with nothing queued left behind.
    batcher.shutdown();
    assert_eq!(batcher.depth(), 0);
    let stats = batcher.stats();
    assert_eq!(stats.rows, total, "every submitted row was scored");
}
