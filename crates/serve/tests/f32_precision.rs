//! The f32 serving path end to end: a batcher over an
//! [`EnginePrecision::F32`] registry must reproduce the classifier's own
//! f32 verdict path bit-for-bit (coalescing never changes results in
//! either precision), stay decision-compatible with the f64 oracle on
//! held-out rows, and surface the precision over HTTP.

mod common;

use std::sync::Arc;

use targad_core::OodStrategy;
use targad_runtime::Runtime;
use targad_serve::{Client, EnginePrecision, MicroBatcher, ModelRegistry, ServeConfig, Server};

const ROWS: usize = 48;

#[test]
fn f32_batches_match_the_classifier_f32_path_bit_for_bit() {
    let _stats = common::stats_lock();
    let (snapshot, x_full) = common::fitted_snapshot(29, "f32-determinism");
    let dims = x_full.cols();
    let x = targad_linalg::Matrix::from_vec(ROWS, dims, common::flatten_rows(&x_full, 0, ROWS));
    let tau = common::tau_of(&snapshot, OodStrategy::Msp);
    let runtime = Runtime::new(2);
    let reference =
        snapshot
            .classifier
            .verdicts_rt_with_prec(&x, &runtime, EnginePrecision::F32, |_| {
                (OodStrategy::Msp, tau)
            });
    let oracle =
        snapshot
            .classifier
            .verdicts_rt_with_prec(&x, &runtime, EnginePrecision::F64, |_| {
                (OodStrategy::Msp, tau)
            });

    let registry = Arc::new(ModelRegistry::with_precision(
        snapshot.clone(),
        EnginePrecision::F32,
    ));
    assert_eq!(registry.precision(), EnginePrecision::F32);
    let config = ServeConfig::builder()
        .max_batch(64)
        .precision(EnginePrecision::F32)
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
    let singles: Vec<_> = (0..ROWS)
        .map(|r| {
            batcher
                .submit(x.row(r).to_vec(), 1, dims, OodStrategy::Msp)
                .expect("single submit")[0]
        })
        .collect();

    let mut agree = 0usize;
    for (r, ((b, s), (ref_score, ref_class))) in
        batch.iter().zip(&singles).zip(&reference).enumerate()
    {
        assert_eq!(
            b.score.to_bits(),
            ref_score.to_bits(),
            "row {r}: batched f32 score differs from the classifier f32 path"
        );
        assert_eq!(
            s.score.to_bits(),
            ref_score.to_bits(),
            "row {r}: single-row f32 score differs from the classifier f32 path"
        );
        assert_eq!(b.class, *ref_class, "row {r}: batched f32 class");
        assert_eq!(s.class, *ref_class, "row {r}: single f32 class");
        // Decision compatibility with the f64 oracle: scores within f32
        // rounding of the oracle, classes overwhelmingly identical.
        let (o_score, o_class) = oracle[r];
        assert!(
            (b.score - o_score).abs() < 1e-3,
            "row {r}: f32 score {} drifted from the f64 oracle {o_score}",
            b.score
        );
        agree += usize::from(b.class == o_class);
    }
    assert!(
        agree >= ROWS - 1,
        "f32/f64 verdict agreement collapsed: {agree}/{ROWS}"
    );
}

#[test]
fn f32_server_reports_its_precision_and_swaps_warm() {
    let _stats = common::stats_lock();
    let (snapshot, x) = common::fitted_snapshot(31, "f32-server");
    let config = ServeConfig::builder()
        .precision(EnginePrecision::F32)
        .build()
        .expect("valid config");
    let handle = Server::start(config, snapshot.clone(), Runtime::new(2)).expect("start server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let model = client.request("GET", "/model", "").expect("GET /model");
    assert_eq!(model.status, 200);
    assert!(
        model.text().contains("\"precision\": \"f32\""),
        "/model must name the scoring precision: {}",
        model.text()
    );

    let row: Vec<String> = x.row(0).iter().map(|v| format!("{v:?}")).collect();
    let body = format!("{{\"rows\": [[{}]]}}", row.join(", "));
    let scored = client
        .request("POST", "/score", &body)
        .expect("POST /score");
    assert_eq!(scored.status, 200, "{}", scored.text());
    assert!(
        scored.text().contains("\"precision\": \"f32\""),
        "/score must name the scoring precision: {}",
        scored.text()
    );

    // A hot-swap on an f32 registry warms the incoming snapshot's plan and
    // keeps serving; the swapped-in model scores the same row fine.
    let (snapshot2, _) = common::fitted_snapshot(32, "f32-gen2");
    let generation = handle.registry().swap(snapshot2);
    assert_eq!(generation, 2);
    let scored2 = client
        .request("POST", "/score", &body)
        .expect("POST /score after swap");
    assert_eq!(scored2.status, 200, "{}", scored2.text());
    assert!(scored2.text().contains("\"model_generation\": 2"));
    assert_eq!(
        handle.batcher().stats().rows,
        2,
        "both requests scored through the batcher"
    );
}
