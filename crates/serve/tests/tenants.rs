//! Multi-tenant serving end to end: tenant-keyed `/score` routing with
//! `store_dir` fault-in, the admin load/evict/list routes, the hard LRU
//! budget invariant, and eviction under in-flight traffic.

mod common;

use std::sync::Arc;
use std::time::Duration;

use targad_core::{EnginePrecision, OodStrategy};
use targad_runtime::Runtime;
use targad_serve::{Client, Json, MicroBatcher, ModelRegistry, ServeConfig, Server};

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

/// A scratch directory of `<tenant>.tgsnp` v3 snapshots.
fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("targad-tenants-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create store dir");
    dir
}

#[test]
fn tenants_fault_in_score_and_evict_over_http() {
    let (default_snap, x) = common::fitted_snapshot(31, "default-model");
    let (tenant_snap, _) = common::fitted_snapshot(77, "tenant-model");
    let dir = store_dir("e2e");
    targad_store::save(
        &tenant_snap.classifier,
        &tenant_snap.thresholds,
        EnginePrecision::F64,
        dir.join("acme.tgsnp"),
    )
    .expect("write tenant snapshot");

    let config = ServeConfig::builder()
        .max_batch(16)
        .store_dir(Some(dir.clone()))
        .build()
        .expect("valid config");
    let mut handle = Server::start(config, default_snap.clone(), Runtime::new(2)).expect("boot");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Default-tenant scoring is unchanged; the response names the tenant.
    let resp = client
        .request("POST", "/score", &score_body(&x, 2, None))
        .expect("default score");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let doc = Json::parse(&resp.text()).expect("json");
    assert_eq!(doc.get("tenant").and_then(Json::as_str), Some("default"));

    // A named tenant faults in from the store_dir on first use and scores
    // bit-identically to the in-process reference on its own model.
    let tau = common::tau_of(&tenant_snap, OodStrategy::Msp);
    let reference =
        tenant_snap
            .classifier
            .verdicts_rt(&x, &Runtime::serial(), OodStrategy::Msp, tau);
    let resp = client
        .request("POST", "/score", &score_body(&x, 3, Some("acme")))
        .expect("tenant score");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let doc = Json::parse(&resp.text()).expect("json");
    assert_eq!(doc.get("tenant").and_then(Json::as_str), Some("acme"));
    let verdicts = doc
        .get("verdicts")
        .and_then(Json::as_arr)
        .expect("verdicts");
    for (r, v) in verdicts.iter().enumerate() {
        assert_eq!(
            v.get("score").and_then(Json::as_f64),
            Some(reference.verdict(r).score),
            "row {r}: tenant must score on its own model"
        );
    }

    // Unknown tenant → 404; traversal-shaped names → 400.
    let resp = client
        .request("POST", "/score", &score_body(&x, 1, Some("ghost")))
        .expect("unknown tenant");
    assert_eq!(resp.status, 404, "{}", resp.text());
    let resp = client
        .request("POST", "/score", &score_body(&x, 1, Some("..%2Fetc")))
        .expect("bad tenant name");
    assert_eq!(resp.status, 400, "{}", resp.text());

    // The admin listing shows the faulted-in tenant beside the default.
    let resp = client.request("GET", "/admin/tenants", "").expect("list");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let doc = Json::parse(&resp.text()).expect("json");
    let tenants = doc.get("tenants").and_then(Json::as_arr).expect("tenants");
    let names: Vec<&str> = tenants
        .iter()
        .filter_map(|t| t.get("tenant").and_then(Json::as_str))
        .collect();
    assert_eq!(names, vec!["default", "acme"]);

    // /admin/load replaces the tenant's model explicitly.
    let resp = client
        .request(
            "POST",
            "/admin/load",
            &format!(
                "{{\"tenant\": \"acme\", \"path\": \"{}\", \"tag\": \"acme-v2\"}}",
                targad_obs::json::escape(&dir.join("acme.tgsnp").display().to_string())
            ),
        )
        .expect("admin load");
    assert_eq!(resp.status, 200, "{}", resp.text());

    // Evict, then the next score faults it back in.
    let resp = client
        .request("POST", "/admin/evict", "{\"tenant\": \"acme\"}")
        .expect("evict");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let resp = client
        .request("POST", "/admin/evict", "{\"tenant\": \"acme\"}")
        .expect("evict again");
    assert_eq!(resp.status, 404, "already evicted: {}", resp.text());
    let resp = client
        .request("POST", "/admin/evict", "{\"tenant\": \"default\"}")
        .expect("evict default");
    assert_eq!(resp.status, 400, "default is pinned: {}", resp.text());
    let resp = client
        .request("POST", "/score", &score_body(&x, 1, Some("acme")))
        .expect("refault");
    assert_eq!(resp.status, 200, "{}", resp.text());

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lru_budget_holds_under_churn_and_never_tears_in_flight_batches() {
    let (default_snap, x) = common::fitted_snapshot(13, "default-model");
    let dir = store_dir("churn");
    const TENANTS: usize = 8;
    for t in 0..TENANTS {
        let (snap, _) = common::fitted_snapshot(100 + t as u64, "churn-model");
        targad_store::save(
            &snap.classifier,
            &snap.thresholds,
            EnginePrecision::F64,
            dir.join(format!("t{t}.tgsnp")),
        )
        .expect("write tenant snapshot");
    }
    let unit = default_snap.resident_cost();
    // Room for the default plus about three tenants: faulting all eight
    // in forces steady LRU churn.
    let budget = unit * 4 + unit / 2;

    let config = ServeConfig::builder()
        .max_batch(32)
        .model_budget_bytes(budget)
        .store_dir(Some(dir.clone()))
        .build()
        .expect("valid config");
    let registry = Arc::new(
        ModelRegistry::with_options(
            default_snap,
            EnginePrecision::F64,
            budget,
            Some(dir.clone()),
        )
        .expect("default fits"),
    );
    let batcher = Arc::new(MicroBatcher::start(
        &config,
        Arc::clone(&registry),
        Runtime::new(2),
    ));

    let dims = x.cols();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let batcher = Arc::clone(&batcher);
            let registry = Arc::clone(&registry);
            let x = x.clone();
            std::thread::spawn(move || {
                let mut scored = 0u64;
                for i in 0..60 {
                    let tenant = format!("t{}", (w * 17 + i * 5) % TENANTS);
                    let rows = batcher
                        .submit_for(
                            Some(&tenant),
                            common::flatten_rows(&x, 0, 2),
                            2,
                            dims,
                            OodStrategy::Msp,
                        )
                        .expect("tenant scoring under churn must not fail");
                    assert_eq!(rows.len(), 2);
                    assert!(rows.iter().all(|r| r.score.is_finite()));
                    scored += 2;
                    // The hard invariant, observed mid-churn.
                    assert!(
                        registry.resident_bytes() <= budget,
                        "resident bytes exceeded the budget"
                    );
                }
                scored
            })
        })
        .collect();

    // Concurrent admin churn: keep evicting a rotating tenant while the
    // scorers run. In-flight batches own their snapshot Arc, so this can
    // never tear them.
    let evictor = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            for i in 0..120 {
                registry.evict_tenant(&format!("t{}", i % TENANTS));
                std::thread::sleep(Duration::from_micros(300));
            }
        })
    };

    let total: u64 = workers.into_iter().map(|h| h.join().expect("worker")).sum();
    evictor.join().expect("evictor");
    assert_eq!(total, 4 * 60 * 2, "zero lost requests");
    assert!(registry.resident_bytes() <= budget);
    assert!(
        registry.tenants().len() <= TENANTS + 1,
        "listing stays bounded"
    );

    batcher.shutdown();
    assert_eq!(batcher.depth(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
