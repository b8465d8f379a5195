//! End-to-end serve observability: per-tenant Prometheus series on
//! `/metrics`, the JSON mirror on `/metrics.json`, monotone request IDs in
//! `/score` responses, and a structured JSONL access log carrying verdict
//! counts and per-phase trace timings.

mod common;

use targad_core::EnginePrecision;
use targad_runtime::Runtime;
use targad_serve::{Client, Json, ServeConfig, Server};

fn score_body(x: &targad_linalg::Matrix, n: usize, tenant: Option<&str>) -> String {
    let rows: Vec<String> = (0..n)
        .map(|r| {
            let cells: Vec<String> = x.row(r).iter().map(|v| format!("{v:?}")).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    match tenant {
        Some(t) => format!("{{\"rows\": [{}], \"tenant\": \"{t}\"}}", rows.join(", ")),
        None => format!("{{\"rows\": [{}]}}", rows.join(", ")),
    }
}

/// A scratch directory unique to this test run.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("targad-obs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn metrics_access_log_and_request_ids_cover_both_tenants() {
    let _stats = common::stats_lock();
    let (default_snap, x) = common::fitted_snapshot(41, "obs-default");
    let (tenant_snap, _) = common::fitted_snapshot(43, "obs-acme");
    let dir = scratch_dir("e2e");
    targad_store::save(
        &tenant_snap.classifier,
        &tenant_snap.thresholds,
        EnginePrecision::F64,
        dir.join("acme.tgsnp"),
    )
    .expect("write tenant snapshot");
    let log_path = dir.join("access.jsonl");

    let config = ServeConfig::builder()
        .max_batch(16)
        .store_dir(Some(dir.clone()))
        .access_log(Some(log_path.clone()))
        .build()
        .expect("valid config");
    let mut handle = Server::start(config, default_snap, Runtime::new(2)).expect("boot");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Tracing on, so access-log phase timings are real nanoseconds.
    targad_obs::set_enabled(true);

    // Score the default tenant and the faulted-in "acme" tenant; request
    // IDs in the response bodies must be present and strictly increasing.
    let mut last_id = 0u64;
    for round in 0..3 {
        for tenant in [None, Some("acme")] {
            let resp = client
                .request("POST", "/score", &score_body(&x, 2 + round, tenant))
                .expect("score");
            assert_eq!(resp.status, 200, "{}", resp.text());
            let doc = Json::parse(&resp.text()).expect("score body is JSON");
            let id = doc
                .get("request_id")
                .and_then(Json::as_f64)
                .expect("response carries request_id") as u64;
            assert!(
                id > last_id,
                "request IDs must be monotone: got {id} after {last_id}"
            );
            last_id = id;
        }
    }
    // One failing request: wrong dimensionality, logged with status 400.
    let bad = client
        .request("POST", "/score", "{\"rows\": [[1.0, 2.0]]}")
        .expect("bad score");
    assert_eq!(bad.status, 400, "{}", bad.text());

    // /metrics is Prometheus text 0.0.4 with per-tenant series for every
    // tenant that scored traffic.
    let prom = client.request("GET", "/metrics", "").expect("GET /metrics");
    assert_eq!(prom.status, 200);
    let ctype = prom
        .headers
        .iter()
        .find(|(k, _)| k == "content-type")
        .map(|(_, v)| v.as_str())
        .unwrap_or("");
    assert!(
        ctype.starts_with("text/plain; version=0.0.4"),
        "Prometheus content type, got {ctype:?}"
    );
    let text = prom.text();
    for needle in [
        "# TYPE targad_serve_requests_total counter",
        "targad_serve_tenant_requests_total{tenant=\"default\"}",
        "targad_serve_tenant_requests_total{tenant=\"acme\"}",
        "targad_serve_tenant_rows_total{tenant=\"acme\"}",
        "targad_serve_queue_wait_ns_bucket{le=",
    ] {
        assert!(
            text.contains(needle),
            "/metrics missing {needle:?}:\n{text}"
        );
    }
    // Every exposition line is a comment or `name{labels}? value`.
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
    }

    // The JSON mirror still parses.
    let json = client
        .request("GET", "/metrics.json", "")
        .expect("GET /metrics.json");
    assert_eq!(json.status, 200);
    Json::parse(&json.text()).expect("/metrics.json is valid JSON");

    // Unknown routes and methods keep their HTTP semantics.
    assert_eq!(client.request("POST", "/metrics", "").unwrap().status, 404);
    assert_eq!(client.request("PUT", "/score", "{}").unwrap().status, 405);

    targad_obs::set_enabled(false);
    handle.shutdown();

    // The access log is one JSON document per line with the stable schema:
    // request id, tenant, verdict counts, per-phase nanos, wall time.
    let log = std::fs::read_to_string(&log_path).expect("read access log");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 7, "6 scores + 1 rejected request:\n{log}");
    let mut acme_rows = 0u64;
    for line in &lines {
        let doc = Json::parse(line).expect("access-log line is JSON");
        for key in [
            "request_id",
            "rows",
            "status",
            "queue_wait_ns",
            "coalesce_ns",
            "engine_ns",
            "serialize_ns",
            "request_ns",
        ] {
            assert!(
                doc.get(key).and_then(Json::as_f64).is_some(),
                "access-log line missing numeric {key:?}: {line}"
            );
        }
        let tenant = doc
            .get("tenant")
            .and_then(Json::as_str)
            .expect("line names its tenant");
        let verdicts = doc.get("verdicts").expect("verdict counts");
        let total: f64 = ["normal", "target", "non_target"]
            .iter()
            .map(|k| verdicts.get(k).and_then(Json::as_f64).unwrap())
            .sum();
        let status = doc.get("status").and_then(Json::as_f64).unwrap() as u16;
        let rows = doc.get("rows").and_then(Json::as_f64).unwrap() as u64;
        if status == 200 {
            assert_eq!(total as u64, rows, "verdict counts tally the rows: {line}");
            assert!(
                doc.get("engine_ns").and_then(Json::as_f64).unwrap() > 0.0,
                "traced request has engine time: {line}"
            );
            if tenant == "acme" {
                acme_rows += rows;
            }
        } else {
            assert_eq!(status, 400, "the one failure is the bad-dims request");
            assert_eq!(total, 0.0, "failed requests score nothing");
        }
    }
    assert_eq!(acme_rows, 2 + 3 + 4, "acme's rows all reached the log");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_gate_admits_local_scrapes() {
    let _stats = common::stats_lock();
    let (snapshot, x) = common::fitted_snapshot(47, "obs-loopback");
    let config = ServeConfig::builder()
        .metrics_loopback_only(true)
        .build()
        .expect("valid config");
    let mut handle = Server::start(config, snapshot, Runtime::new(2)).expect("boot");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The test client connects over 127.0.0.1, so the loopback-only gate
    // must admit it on both exposition routes — and /score needs no auth.
    let resp = client
        .request("POST", "/score", &score_body(&x, 1, None))
        .expect("score");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(client.request("GET", "/metrics", "").unwrap().status, 200);
    assert_eq!(
        client.request("GET", "/metrics.json", "").unwrap().status,
        200
    );
    handle.shutdown();
}
