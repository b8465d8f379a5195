//! Micro-batch determinism: a row scored through the batcher — alone, in
//! one big batch, or coalesced with other callers' rows — is bit-identical
//! to the reference (unfused) verdict path, at every thread count.

mod common;

use std::sync::{Arc, Barrier};

use targad_core::OodStrategy;
use targad_obs::{metrics, RequestTrace, ServePhase};
use targad_runtime::Runtime;
use targad_serve::{MicroBatcher, ModelRegistry, ScoredRow, ServeConfig};

const ROWS: usize = 48;

fn reference_verdicts(
    snapshot: &targad_serve::ModelSnapshot,
    x: &targad_linalg::Matrix,
) -> Vec<(f64, targad_core::VerdictClass)> {
    let tau = common::tau_of(snapshot, OodStrategy::Msp);
    let out = snapshot
        .classifier
        .verdicts_rt(x, &Runtime::serial(), OodStrategy::Msp, tau);
    (0..out.len())
        .map(|i| {
            let v = out.verdict(i);
            (v.score, v.class)
        })
        .collect()
}

#[test]
fn batched_singles_and_coalesced_scores_are_bit_identical() {
    let _stats = common::stats_lock();
    let (snapshot, x_full) = common::fitted_snapshot(23, "determinism");
    let dims = x_full.cols();
    let x = targad_linalg::Matrix::from_vec(ROWS, dims, common::flatten_rows(&x_full, 0, ROWS));
    let reference = reference_verdicts(&snapshot, &x);

    for threads in [1usize, 2, 7] {
        let runtime = Runtime::new(threads);
        let registry = Arc::new(ModelRegistry::new(snapshot.clone()));

        // One submission carrying all rows.
        let config = ServeConfig::builder()
            .max_batch(64)
            .build()
            .expect("valid config");
        let batcher = MicroBatcher::start(&config, Arc::clone(&registry), runtime);
        let batch = batcher
            .submit(
                common::flatten_rows(&x, 0, ROWS),
                ROWS,
                dims,
                OodStrategy::Msp,
            )
            .expect("batch submit");

        // The same rows submitted one at a time.
        let singles: Vec<ScoredRow> = (0..ROWS)
            .map(|r| {
                batcher
                    .submit(x.row(r).to_vec(), 1, dims, OodStrategy::Msp)
                    .expect("single submit")[0]
            })
            .collect();

        for (r, ((b, s), (ref_score, ref_class))) in
            batch.iter().zip(&singles).zip(&reference).enumerate()
        {
            assert_eq!(
                b.score.to_bits(),
                ref_score.to_bits(),
                "threads={threads} row={r}: batched score differs from reference"
            );
            assert_eq!(
                s.score.to_bits(),
                ref_score.to_bits(),
                "threads={threads} row={r}: single score differs from reference"
            );
            assert_eq!(
                b.class, *ref_class,
                "threads={threads} row={r}: batched class"
            );
            assert_eq!(
                s.class, *ref_class,
                "threads={threads} row={r}: single class"
            );
        }
    }
}

#[test]
fn concurrent_callers_coalesce_without_changing_results() {
    let _stats = common::stats_lock();
    let (snapshot, x_full) = common::fitted_snapshot(23, "coalesce");
    let dims = x_full.cols();
    let x = targad_linalg::Matrix::from_vec(ROWS, dims, common::flatten_rows(&x_full, 0, ROWS));
    let reference = reference_verdicts(&snapshot, &x);

    // The batcher never waits for traffic, so coalescing is forced with a
    // backlog: one large submission occupies the worker while the callers
    // queue up behind it, and the next drain takes all of them at once.
    const BUSY_ROWS: usize = 200_000;
    let registry = Arc::new(ModelRegistry::new(snapshot.clone()));
    let config = ServeConfig::builder()
        .max_batch(ROWS)
        .queue_depth(BUSY_ROWS + ROWS)
        .build()
        .expect("valid config");
    let batcher = Arc::new(MicroBatcher::start(&config, registry, Runtime::new(2)));
    let before = batcher.stats();
    // Submissions handed to the worker's channel so far.
    let requests_before = metrics::SERVE_REQUESTS.get();
    let sent = || metrics::SERVE_REQUESTS.get() - requests_before;

    let busy = {
        let batcher = Arc::clone(&batcher);
        let data: Vec<f64> = (0..BUSY_ROWS)
            .flat_map(|r| x_full.row(r % x_full.rows()).to_vec())
            .collect();
        std::thread::spawn(move || {
            batcher
                .submit(data, BUSY_ROWS, dims, OodStrategy::Msp)
                .expect("busy submit")
                .len()
        })
    };
    // The busy job is in the channel ahead of every caller.
    while sent() < 1 {
        std::thread::yield_now();
    }

    const CALLERS: usize = 8;
    let per_caller = ROWS / CALLERS;
    let barrier = Arc::new(Barrier::new(CALLERS));
    let handles: Vec<_> = (0..CALLERS)
        .map(|c| {
            let batcher = Arc::clone(&batcher);
            let barrier = Arc::clone(&barrier);
            let x = x.clone();
            std::thread::spawn(move || {
                let lo = c * per_caller;
                barrier.wait();
                let rows = batcher
                    .submit(
                        common::flatten_rows(&x, lo, lo + per_caller),
                        per_caller,
                        dims,
                        OodStrategy::Msp,
                    )
                    .expect("coalesced submit");
                (lo, rows)
            })
        })
        .collect();
    // Every caller is queued while the busy batch still holds the worker:
    // its rows leave the depth only once its pass is done, so reading the
    // depth after the last send proves the worker has not drained yet.
    while sent() < 1 + CALLERS as u64 || batcher.depth() < BUSY_ROWS + ROWS {
        assert!(
            !busy.is_finished(),
            "the busy batch finished before all callers queued"
        );
        std::thread::yield_now();
    }
    assert_eq!(busy.join().expect("busy thread"), BUSY_ROWS);

    for handle in handles {
        let (lo, rows) = handle.join().expect("caller thread");
        for (offset, row) in rows.iter().enumerate() {
            let (ref_score, ref_class) = reference[lo + offset];
            assert_eq!(
                row.score.to_bits(),
                ref_score.to_bits(),
                "row {}: coalesced score differs from reference",
                lo + offset
            );
            assert_eq!(row.class, ref_class, "row {}: coalesced class", lo + offset);
        }
    }

    let stats = batcher.stats();
    assert_eq!(stats.rows - before.rows, (BUSY_ROWS + ROWS) as u64);
    assert_eq!(
        stats.batches - before.batches,
        2,
        "the queued callers should run as one batch behind the busy one"
    );
    // The busy batch alone lifts the high-water mark above `per_caller`, so
    // this holds regardless; the `batches` and `rows` deltas above are what
    // prove the eight callers shared one batch of ROWS rows.
    assert!(
        stats.max_fill > per_caller as u64,
        "expected coalescing across callers, max fill was {}",
        stats.max_fill
    );
}

#[test]
fn an_idle_batcher_does_not_linger() {
    let _stats = common::stats_lock();
    let (snapshot, x) = common::fitted_snapshot(23, "idle");
    let dims = x.cols();
    let registry = Arc::new(ModelRegistry::new(snapshot));
    let config = ServeConfig::builder().build().expect("valid config");
    let batcher = MicroBatcher::start(&config, registry, Runtime::new(2));

    // Sequential one-row requests never find a peer in the queue, so each
    // must execute as soon as the worker picks it up.
    targad_obs::set_enabled(true);
    let mut waits: Vec<u64> = (0..50)
        .map(|r| {
            let outcome = batcher
                .submit_traced(
                    None,
                    x.row(r).to_vec(),
                    1,
                    dims,
                    OodStrategy::Msp,
                    RequestTrace::begin(),
                )
                .expect("single submit");
            assert!(outcome.trace.is_active());
            outcome.trace.phase_ns(ServePhase::QueueWait)
        })
        .collect();
    targad_obs::set_enabled(false);
    waits.sort_unstable();
    let median = waits[waits.len() / 2];
    assert!(
        median < 200_000,
        "median queue wait {median} ns on an idle batcher"
    );
}
