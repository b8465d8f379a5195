//! Train-once / score-forever deployment: persist the trained classifier
//! plus its calibrated thresholds to disk, then serve it from a real
//! scoring service — micro-batched HTTP, three-way verdicts, hot-swap.
//!
//! The paper's SQB deployment scores ~150k merchants per day against a
//! model trained offline; this example shows that full round trip.
//!
//! Run with: `cargo run --release --example deploy_and_score`

use targad::core::snapshot;
use targad::prelude::*;
use targad::serve::{Client, Json};

fn main() {
    // ---- offline training job ------------------------------------------
    let bundle = GeneratorSpec::quick_demo().generate(99);
    let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
    model.fit(&bundle.train, 99).expect("training succeeds");
    model
        .calibrate_thresholds(&bundle.val.features, &bundle.val.three_way_labels())
        .expect("calibration succeeds");
    let clf = model.classifier().expect("fitted");

    let path = std::env::temp_dir().join("targad_deployed_model.snapshot");
    snapshot::save_with_thresholds(clf, model.thresholds(), &path).expect("persist model");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "trained model persisted to {} ({bytes} bytes, dims {:?}, m={} k={}, \
         thresholds calibrated for all OOD strategies)",
        path.display(),
        clf.layer_dims(),
        clf.m(),
        clf.k()
    );

    // ---- scoring service (separate process in real life) ----------------
    let (restored, thresholds) = snapshot::load_with_thresholds(&path).expect("reload model");
    assert_eq!(
        restored.target_scores_rt(&bundle.test.features, &Runtime::serial()),
        clf.target_scores_rt(&bundle.test.features, &Runtime::serial()),
        "snapshot must preserve scores bit-exactly"
    );
    let config = ServeConfig::builder()
        .port(0) // ephemeral port for the example; fix one in production
        .build()
        .expect("valid serve config");
    let mut server = Server::start(
        config,
        ModelSnapshot::new(restored, thresholds, "quick-demo-v1"),
        Runtime::new(2),
    )
    .expect("server boots");
    println!("serving on http://{}", server.addr());

    // Stream the day's instances through the service, a few at a time —
    // concurrent requests would coalesce into shared micro-batches.
    let x = &bundle.test.features;
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut counts = [0usize; 3];
    for chunk in (0..x.rows()).collect::<Vec<_>>().chunks(50) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|&r| {
                let cells: Vec<String> = x.row(r).iter().map(|v| format!("{v:?}")).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let body = format!(
            "{{\"rows\": [{}], \"ood_strategy\": \"ed\"}}",
            rows.join(",")
        );
        let resp = client.request("POST", "/score", &body).expect("score");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let doc = Json::parse(&resp.text()).expect("verdict json");
        for v in doc
            .get("verdicts")
            .and_then(Json::as_arr)
            .expect("verdicts")
        {
            let class = v.get("class").and_then(Json::as_str).expect("class");
            let idx = VerdictClass::all()
                .iter()
                .position(|c| c.name() == class)
                .expect("known class");
            counts[idx] += 1;
        }
    }
    println!(
        "verdicts over {} streamed instances (ED strategy): \
         {} normal, {} target -> analyst queue, {} non-target",
        x.rows(),
        counts[0],
        counts[1],
        counts[2]
    );

    // Nightly retrain lands: hot-swap the served model without dropping
    // in-flight work.
    let body = format!(
        "{{\"path\": \"{}\", \"tag\": \"quick-demo-v2\"}}",
        targad::serve::json::escape(&path.display().to_string())
    );
    let resp = client.request("POST", "/admin/swap", &body).expect("swap");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let generation = Json::parse(&resp.text())
        .expect("swap json")
        .get("generation")
        .and_then(Json::as_f64)
        .expect("generation");
    println!("hot-swapped to generation {generation} with zero dropped requests");

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
