//! Full-stack serving test: boot the server on an ephemeral port, score
//! over real HTTP, hot-swap via the admin route, and shut down cleanly.

mod common;

use std::time::Duration;

use targad_core::{snapshot as core_snapshot, OodStrategy};
use targad_runtime::Runtime;
use targad_serve::{Client, Json, ServeConfig, Server};

fn score_body(x: &targad_linalg::Matrix, lo: usize, hi: usize, strategy: Option<&str>) -> String {
    let rows: Vec<String> = (lo..hi)
        .map(|r| {
            let cells: Vec<String> = x.row(r).iter().map(|v| format!("{v:?}")).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    match strategy {
        Some(s) => format!(
            "{{\"rows\": [{}], \"ood_strategy\": \"{s}\"}}",
            rows.join(", ")
        ),
        None => format!("{{\"rows\": [{}]}}", rows.join(", ")),
    }
}

#[test]
fn serves_verdicts_swaps_models_and_shuts_down() {
    let (snap_a, x) = common::fitted_snapshot(31, "model-a");
    let (snap_b, _) = common::fitted_snapshot(77, "model-b");
    let tau_a = common::tau_of(&snap_a, OodStrategy::Msp);

    let config = ServeConfig::builder()
        .port(0)
        .max_batch(32)
        .build()
        .expect("valid config");
    let mut handle = Server::start(config, snap_a.clone(), Runtime::new(2)).expect("server boots");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Liveness and generation.
    let resp = client.request("GET", "/healthz", "").expect("healthz");
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.text()).expect("healthz json");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(doc.get("generation").and_then(Json::as_f64), Some(1.0));

    // Scores over HTTP are bit-identical to the in-process reference path
    // (f64s round-trip exactly through the {:?} wire format).
    let reference = snap_a.classifier.verdicts(&x, OodStrategy::Msp, tau_a);
    let resp = client
        .request("POST", "/score", &score_body(&x, 0, 5, Some("msp")))
        .expect("score");
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let doc = Json::parse(&resp.text()).expect("score json");
    assert_eq!(
        doc.get("model_generation").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(doc.get("count").and_then(Json::as_f64), Some(5.0));
    let verdicts = doc
        .get("verdicts")
        .and_then(Json::as_arr)
        .expect("verdicts");
    assert_eq!(verdicts.len(), 5);
    for (r, v) in verdicts.iter().enumerate() {
        let want = reference.verdict(r);
        assert_eq!(
            v.get("score").and_then(Json::as_f64),
            Some(want.score),
            "row {r} score"
        );
        assert_eq!(
            v.get("class").and_then(Json::as_str),
            Some(want.class.name()),
            "row {r} class"
        );
        assert_eq!(v.get("ood_strategy").and_then(Json::as_str), Some("msp"));
        assert_eq!(v.get("threshold").and_then(Json::as_f64), Some(tau_a));
    }

    // Omitted strategy falls back to the configured default (msp).
    let resp = client
        .request("POST", "/score", &score_body(&x, 0, 1, None))
        .expect("default strategy");
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.text()).expect("json");
    let v = &doc
        .get("verdicts")
        .and_then(Json::as_arr)
        .expect("verdicts")[0];
    assert_eq!(v.get("ood_strategy").and_then(Json::as_str), Some("msp"));

    // Every OOD strategy is selectable per request.
    for wire in ["es", "ed", "energy_score", "ENERGY_DISCREPANCY"] {
        let resp = client
            .request("POST", "/score", &score_body(&x, 0, 1, Some(wire)))
            .expect("strategy select");
        assert_eq!(resp.status, 200, "strategy {wire}: {}", resp.text());
    }

    // Model card.
    let resp = client.request("GET", "/model", "").expect("model");
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.text()).expect("model json");
    assert_eq!(doc.get("tag").and_then(Json::as_str), Some("model-a"));
    assert_eq!(
        doc.get("thresholds")
            .and_then(|t| t.get("msp"))
            .and_then(Json::as_f64),
        Some(tau_a)
    );

    // Prometheus exposition: text format with the serve series present.
    let resp = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(resp.status, 200);
    let prom = resp.text();
    assert!(
        prom.contains("# TYPE targad_serve_requests_total counter"),
        "missing serve request counter: {prom}"
    );
    assert!(
        prom.contains("targad_serve_tenant_requests_total{tenant=\"default\"}"),
        "missing per-tenant series: {prom}"
    );
    // The JSON snapshot moved to /metrics.json.
    let resp = client
        .request("GET", "/metrics.json", "")
        .expect("metrics.json");
    assert_eq!(resp.status, 200);
    Json::parse(&resp.text()).expect("metrics json");

    // Client errors are 400s with an error body; unknown routes 404; bad
    // methods 405.
    let bad_cases = [
        ("POST", "/score", "{not json"),
        ("POST", "/score", "{\"rows\": []}"),
        ("POST", "/score", "{\"rows\": [[1.0], [1.0, 2.0]]}"),
        (
            "POST",
            "/score",
            "{\"rows\": [[1.0]], \"ood_strategy\": \"nope\"}",
        ),
        ("POST", "/score", "{\"rows\": [[\"x\"]]}"),
        ("POST", "/admin/swap", "{\"path\": \"/does/not/exist\"}"),
    ];
    for (method, path, body) in bad_cases {
        let resp = client.request(method, path, body).expect("bad request");
        assert_eq!(resp.status, 400, "{method} {path} {body}: {}", resp.text());
        assert!(Json::parse(&resp.text())
            .expect("error json")
            .get("error")
            .is_some());
    }
    // A dimension mismatch is a 400 too (model error, not server error).
    let wide = format!("{{\"rows\": [[{}]]}}", vec!["1.0"; x.cols() + 3].join(", "));
    let resp = client
        .request("POST", "/score", &wide)
        .expect("dim mismatch");
    assert_eq!(resp.status, 400, "{}", resp.text());

    let resp = client.request("GET", "/nope", "").expect("404");
    assert_eq!(resp.status, 404);
    let resp = client.request("DELETE", "/score", "").expect("405");
    assert_eq!(resp.status, 405);

    // Hot-swap over HTTP from a v2 snapshot file.
    let path = std::env::temp_dir().join(format!("targad-swap-{}.snapshot", std::process::id()));
    core_snapshot::save_with_thresholds(&snap_b.classifier, &snap_b.thresholds, &path)
        .expect("write snapshot");
    let body = format!(
        "{{\"path\": \"{}\", \"tag\": \"model-b\"}}",
        targad_serve::json::escape(&path.display().to_string())
    );
    let resp = client.request("POST", "/admin/swap", &body).expect("swap");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let doc = Json::parse(&resp.text()).expect("swap json");
    assert_eq!(doc.get("generation").and_then(Json::as_f64), Some(2.0));
    std::fs::remove_file(&path).ok();

    // The swapped model serves immediately, stamped with its generation.
    let resp = client
        .request("POST", "/score", &score_body(&x, 0, 2, Some("msp")))
        .expect("score after swap");
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.text()).expect("json");
    assert_eq!(
        doc.get("model_generation").and_then(Json::as_f64),
        Some(2.0)
    );

    // Clean shutdown: joins the accept loop, every connection, and the
    // batcher worker.
    handle.shutdown();
}

/// A request split across packets with a long intra-request gap must still
/// parse: short poll timeouts only apply between requests, so a slow peer
/// (TCP retransmit, cross-packet body) is not torn mid-parse.
#[test]
fn slow_clients_are_not_torn_mid_request() {
    use std::io::{Read as _, Write as _};

    let (snap, x) = common::fitted_snapshot(13, "slow-model");
    let config = ServeConfig::builder().build().expect("valid config");
    let mut handle = Server::start(config, snap, Runtime::new(1)).expect("server boots");

    let body = score_body(&x, 0, 2, Some("msp"));
    let request = format!(
        "POST /score HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Drip the request in three chunks with gaps far beyond the 20 ms
    // idle-poll interval, cutting mid-request-line and mid-body.
    let bytes = request.as_bytes();
    let cuts = [8, bytes.len() - body.len() / 2];
    let mut sent = 0;
    for cut in cuts {
        stream.write_all(&bytes[sent..cut]).expect("write chunk");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(120));
        sent = cut;
    }
    stream.write_all(&bytes[sent..]).expect("write tail");
    stream.flush().expect("flush");

    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "slow request got: {response}"
    );
    assert!(response.contains("\"verdicts\""), "body: {response}");
    handle.shutdown();
}

/// A deeply nested JSON body (~100 KB of `[`) must come back as a 400,
/// not overflow the connection thread's stack and abort the daemon.
#[test]
fn nesting_bomb_gets_a_400_and_the_server_survives() {
    let (snap, x) = common::fitted_snapshot(23, "bomb-model");
    let config = ServeConfig::builder().build().expect("valid config");
    let mut handle = Server::start(config, snap, Runtime::new(1)).expect("server boots");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let bomb = format!("{{\"rows\": {}}}", "[".repeat(100_000));
    let resp = client
        .request("POST", "/score", &bomb)
        .expect("bomb response");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("nesting"), "{}", resp.text());

    // The process is still serving: a fresh connection scores normally.
    let mut probe = Client::connect(handle.addr()).expect("reconnect");
    let resp = probe
        .request("POST", "/score", &score_body(&x, 0, 1, None))
        .expect("score after bomb");
    assert_eq!(resp.status, 200, "{}", resp.text());
    handle.shutdown();
}

/// With an admin token configured, `/admin/*` requires the matching
/// `x-admin-token` header; score and health routes stay open.
#[test]
fn admin_routes_require_the_configured_token() {
    let (snap, x) = common::fitted_snapshot(19, "auth-model");
    let config = ServeConfig::builder()
        .admin_token(Some("s3cret".into()))
        .build()
        .expect("valid config");
    let mut handle = Server::start(config, snap, Runtime::new(1)).expect("server boots");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // No token → 403, and the body does not leak the path probe result.
    let resp = client
        .request("POST", "/admin/swap", "{\"path\": \"/etc/hostname\"}")
        .expect("swap without token");
    assert_eq!(resp.status, 403, "{}", resp.text());

    // Wrong token → 403.
    client.set_admin_token(Some("wrong".into()));
    let resp = client
        .request("POST", "/admin/swap", "{\"path\": \"/etc/hostname\"}")
        .expect("swap with wrong token");
    assert_eq!(resp.status, 403, "{}", resp.text());

    // Right token → the request reaches the handler (400: not a snapshot),
    // and the error body does not echo the client-supplied path.
    client.set_admin_token(Some("s3cret".into()));
    let resp = client
        .request("POST", "/admin/swap", "{\"path\": \"/etc/hostname\"}")
        .expect("swap with token");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        !resp.text().contains("/etc/hostname"),
        "error echoes the probed path: {}",
        resp.text()
    );

    // Non-admin routes are unaffected by the token setting.
    client.set_admin_token(None);
    let resp = client.request("GET", "/healthz", "").expect("healthz");
    assert_eq!(resp.status, 200);
    let resp = client
        .request("POST", "/score", &score_body(&x, 0, 1, None))
        .expect("score");
    assert_eq!(resp.status, 200, "{}", resp.text());
    handle.shutdown();
}
