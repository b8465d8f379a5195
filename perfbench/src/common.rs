//! Pieces the workloads share: the host record, seeded models and request
//! bodies, and the one-connection HTTP helpers.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

use rand::Rng;
use targad_core::{Classifier, Runtime, ThresholdCache};
use targad_linalg::{f32kernel, rng as lrng, Matrix};
use targad_serve::{Client, Json};

use crate::{Args, Report};

/// Workers of every `Runtime` the benchmark builds (fit, engine, server):
/// the host this benchmark was sized on has 2 cores.
pub const WORKERS: usize = 2;

/// Client threads of the load generators, one connection each.
pub const CLIENTS: usize = 2;

/// The benchmark's runtime.
pub fn runtime() -> Runtime {
    Runtime::new(WORKERS)
}

/// Records the host and protocol with the result, so numbers taken on a
/// different machine or thread count cannot pass for each other.
pub fn host_protocol(report: &mut Report, args: &Args) {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = f32kernel::cpu_features();
    report.protocol("workload", &args.workload);
    report.protocol("seed", args.seed);
    report.protocol("seconds", args.seconds.as_secs_f64());
    report.protocol("trace", u8::from(args.trace));
    report.protocol("cores", cores);
    report.protocol("avx2", cpu.avx2);
    report.protocol("fma", cpu.fma);
    report.protocol("f32_kernel", f32kernel::kernel_path().name());
    report.protocol("runtime_workers", WORKERS);
    report.protocol(
        "TARGAD_THREADS",
        std::env::var("TARGAD_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    report.protocol("obs_enabled", targad_obs::enabled());
}

/// A deterministic classifier with the given layer widths (Xavier weights,
/// small biases). Serving cost depends on the shape, not on training.
pub fn seeded_classifier(dims: &[usize], m: usize, seed: u64) -> Classifier {
    let mut rng = lrng::seeded(seed);
    let mut matrices = Vec::new();
    for pair in dims.windows(2) {
        matrices.push(lrng::xavier_uniform(&mut rng, pair[0], pair[1]));
        matrices.push(lrng::normal_matrix(&mut rng, 1, pair[1], 0.0, 0.1));
    }
    let k = dims[dims.len() - 1] - m;
    Classifier::from_parameters(matrices, m, k).expect("consistent seeded shapes")
}

/// Thresholds for seeded classifiers (no validation data to calibrate on).
pub fn seeded_thresholds() -> ThresholdCache {
    ThresholdCache::complete(0.5, -2.0, 1.0e-3)
}

/// One pre-built `/score` request (default tenant).
pub struct Body {
    pub json: String,
    /// The rows it carries, for checking the response.
    pub rows: Matrix,
}

impl Body {
    /// The same request addressed to `tenant`.
    pub fn for_tenant(&self, tenant: &str) -> String {
        format!("{{\"tenant\": \"{tenant}\", {}", &self.json[1..])
    }
}

/// A `/score` body for `idx` rows of `x`. Cells print in Rust's
/// shortest round-trip form, so the server parses back the exact f64s.
pub fn score_body(x: &Matrix, idx: &[usize]) -> Body {
    let mut json = String::with_capacity(idx.len() * x.cols() * 20 + 64);
    json.push_str("{\"rows\": [");
    for (i, &r) in idx.iter().enumerate() {
        json.push_str(if i == 0 { "[" } else { ", [" });
        for (j, v) in x.row(r).iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            write!(json, "{v:?}").expect("write to String");
        }
        json.push(']');
    }
    json.push_str("], \"ood_strategy\": \"msp\"}");
    Body {
        json,
        rows: x.take_rows(idx),
    }
}

/// A seeded pool of `n` request bodies over the rows of `x`: nine in
/// ten carry one row and the rest 2–16 rows. The size mix is fixed and
/// only its order and the rows drawn are seeded, so every seed offers the
/// same work per request.
pub fn body_pool(x: &Matrix, n: usize, seed: u64) -> Vec<Body> {
    let mut rng = lrng::seeded(seed);
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| if i % 10 == 9 { 2 + (i / 10) % 15 } else { 1 })
        .collect();
    lrng::shuffle(&mut rng, &mut sizes);
    sizes
        .into_iter()
        .map(|rows| {
            let idx: Vec<usize> = (0..rows).map(|_| rng.random_range(0..x.rows())).collect();
            score_body(x, &idx)
        })
        .collect()
}

/// A `/score` reply as the client saw it.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Sends one request; an I/O error reads as status 0.
pub fn send(client: &mut Client, method: &str, path: &str, body: &str) -> Reply {
    match client.request(method, path, body) {
        Ok(r) => Reply {
            status: r.status,
            body: String::from_utf8_lossy(&r.body).into_owned(),
        },
        Err(e) => Reply {
            status: 0,
            body: e.to_string(),
        },
    }
}

/// Connects one client, retrying briefly while the listener comes up.
pub fn connect(addr: SocketAddr) -> Client {
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match Client::connect(addr) {
            Ok(c) => return c,
            Err(e) if Instant::now() > deadline => panic!("cannot connect to {addr}: {e}"),
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
}

/// Scores and tenant of a `/score` response body.
pub fn parse_scores(body: &str) -> Option<(Vec<f64>, String)> {
    let doc = Json::parse(body).ok()?;
    let tenant = doc.get("tenant")?.as_str()?.to_string();
    let scores = doc
        .get("verdicts")?
        .as_arr()?
        .iter()
        .map(|v| v.get("score").and_then(Json::as_f64))
        .collect::<Option<Vec<f64>>>()?;
    Some((scores, tenant))
}

/// Seconds since `t` as f64.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
