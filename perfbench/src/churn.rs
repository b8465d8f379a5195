//! `tenant_churn`: a closed loop over [`CLIENTS`] connections against an
//! f32 server whose `store_dir` holds [`TENANTS`] v3 snapshots of about
//! 1 MB each, under a byte budget with room for about [`RESIDENT`] of
//! them. Each `/score` names a tenant drawn from a seeded Zipf law; every
//! [`ADMIN_EVERY`]-th request of a client is an `/admin/load` that
//! replaces a resident tenant or, one time in four, the default tenant.
//!
//! The time goes to the serve front end (HTTP, JSON, the batcher) and to
//! the store path: misses fault tenants in through `targad_store::load`
//! (map → validate → checksum), the registry admits and evicts, and every
//! admit pays the f32 weight cast; the admin loads are writes running
//! beside the reads.
//!
//! Every [`CHECK_EVERY`]-th reply of a client is checked against the
//! tenant's model scored in process, so wrong weights served under the
//! right name fail the run.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::Rng;
use targad_core::{Classifier, EnginePrecision, OodStrategy};
use targad_data::Preset;
use targad_linalg::rng as lrng;
use targad_serve::{Client, Json, ModelSnapshot, ServeConfig, Server, ServerHandle};
use targad_store::format;

use crate::common::{
    body_pool, connect, parse_scores, runtime, secs, seeded_classifier, seeded_thresholds, send,
    Body, CLIENTS,
};
use crate::stats::{median, windowed, MetricsSnapshot, Summary, Within};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Tenant layer widths: (182+1)·512 + (512+1)·64 + (64+1)·7 weights, about
/// 1 MB of f64 per snapshot.
const DIMS: [usize; 4] = [182, 512, 64, 7];
/// Target classes of every tenant model.
const M: usize = 2;
/// Tenant snapshots in the store directory.
const TENANTS: usize = 48;
/// Tenants the byte budget holds besides the pinned default.
const RESIDENT: u64 = 8;
/// Zipf exponent of the tenant draw; with [`RESIDENT`] of [`TENANTS`]
/// resident it puts the hit ratio between 0.3 and 0.7.
const ZIPF_S: f64 = 1.0;
/// A client's every `ADMIN_EVERY`-th request is an `/admin/load`.
const ADMIN_EVERY: usize = 50;
/// Distinct pre-built request bodies.
const POOL: usize = 400;
/// Seconds per window of the windowed `/score` tail.
const TAIL_WINDOW_S: f64 = 2.0;
/// Set-ups per run; `setup_s` reports their median. A set-up takes about
/// 0.1 s and its time varies with the host's file-system and scheduling
/// noise, so a run takes many.
const SETUP_REPS: usize = 15;
/// Store loads timed per snapshot file in the traced run.
const LOAD_PROBES: usize = 22;
/// A client's every `CHECK_EVERY`-th `/score` reply (and in-process
/// submit) has its scores checked against the tenant's model.
const CHECK_EVERY: u64 = 8;

fn tenant_name(t: usize) -> String {
    format!("t{t}")
}

/// The model behind tenant `t`, built in process from the same seed as its
/// snapshot file (never read back from the store).
fn tenant_model(seed: u64, t: usize) -> Classifier {
    seeded_classifier(&DIMS, M, seed ^ (0x7E00 + t as u64))
}

/// A checked reply: the tenant index, the pooled body index, and the
/// scores the reply carried (`None` when it did not parse).
type Sample = (usize, usize, Option<Vec<f64>>);

/// Checks sampled scores against the serving path's f32 verdicts of each
/// tenant's model, computed in process on the same rows: they must match
/// bit for bit (the f32 engine's rows do not depend on what they are
/// batched with). Returns how many samples differ.
fn wrong_scores(s: &Setup, seed: u64, samples: &[Sample]) -> u64 {
    let rt = runtime();
    let tau = seeded_thresholds()
        .get(OodStrategy::Msp)
        .expect("complete thresholds");
    let mut models: HashMap<usize, Classifier> = HashMap::new();
    let mut expected: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    let mut wrong = 0;
    for (tenant, body, scores) in samples {
        let want = expected.entry((*tenant, *body)).or_insert_with(|| {
            let clf = models
                .entry(*tenant)
                .or_insert_with(|| tenant_model(seed, *tenant));
            clf.verdicts_rt_with_prec(&s.bodies[*body].rows, &rt, EnginePrecision::F32, |_| {
                (OodStrategy::Msp, tau)
            })
            .iter()
            .map(|v| v.0.to_bits())
            .collect()
        });
        let same = scores.as_ref().is_some_and(|got| {
            got.len() == want.len() && got.iter().zip(want.iter()).all(|(g, w)| g.to_bits() == *w)
        });
        wrong += u64::from(!same);
    }
    wrong
}

/// A booted churn server and its traffic.
struct Setup {
    server: ServerHandle,
    /// One persistent connection per client thread.
    clients: Mutex<Vec<Client>>,
    dir: PathBuf,
    /// Request rows; each request names its tenant on the way out.
    bodies: Vec<Body>,
    budget: u64,
    zipf_cdf: Vec<f64>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Only succeeds once the last run's directory is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Cumulative Zipf(`s`) weights over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

fn draw(cdf: &[f64], rng: &mut impl Rng) -> usize {
    let u: f64 = rng.random();
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// The run's scratch directory inside the working directory (the
/// checkout), removed when the set-up is dropped.
fn scratch_dir(rep: usize) -> PathBuf {
    Path::new(".perfbench_run").join(format!("tenant_churn-{}-{rep}", std::process::id()))
}

fn set_up(seed: u64, rep: usize, tr: &mut Tracer) -> Setup {
    let rows = tr.time("data.generate", |_| {
        Preset::Sqb.spec(0.01).generate(seed).test.features
    });
    let dir = scratch_dir(rep);
    let thresholds = seeded_thresholds();
    let default = tr.time("store.write", |_| {
        std::fs::create_dir_all(&dir).expect("create the store directory");
        for t in 0..TENANTS {
            targad_store::save(
                &tenant_model(seed, t),
                &thresholds,
                EnginePrecision::F32,
                dir.join(format!("{}.tgsnp", tenant_name(t))),
            )
            .expect("write a tenant snapshot");
        }
        let clf = seeded_classifier(&DIMS, M, seed ^ 0xDEF);
        targad_store::save(
            &clf,
            &thresholds,
            EnginePrecision::F32,
            dir.join("default-model.tgsnp"),
        )
        .expect("write the default snapshot");
        clf
    });
    let bodies = body_pool(&rows, POOL, seed ^ 0xC0DE);
    let snapshot = ModelSnapshot::new(default, thresholds, "default");
    snapshot.classifier.warm_f32();
    let unit = snapshot.resident_cost();
    let budget = unit * (RESIDENT + 1) + unit / 2;
    let config = ServeConfig::builder()
        .precision(EnginePrecision::F32)
        .model_budget_bytes(budget)
        .store_dir(Some(dir.clone()))
        .build()
        .expect("valid churn config");
    let server = tr.time("serve.boot", |_| {
        Server::start(config, snapshot, runtime()).expect("server boots")
    });
    let clients = tr.time("serve.warm", |_| {
        let mut clients: Vec<Client> = (0..CLIENTS).map(|_| connect(server.addr())).collect();
        for (t, b) in bodies.iter().take(RESIDENT as usize).enumerate() {
            let body = b.for_tenant(&tenant_name(t));
            let reply = send(&mut clients[t % CLIENTS], "POST", "/score", &body);
            assert_eq!(reply.status, 200, "warm-up request");
        }
        clients
    });
    Setup {
        server,
        clients: Mutex::new(clients),
        dir,
        bodies,
        budget,
        zipf_cdf: zipf_cdf(TENANTS, ZIPF_S),
    }
}

/// What the closed loop saw.
#[derive(Default)]
struct Loop {
    requests: u64,
    ok: u64,
    failed: u64,
    rows: u64,
    /// `(start offset s, latency ms)` per `/score`.
    score_ms: Vec<(f64, f64)>,
    admin_ms: Vec<f64>,
    admin_failed: u64,
    wrong_tenant: u64,
    /// Every [`CHECK_EVERY`]-th successful `/score` reply's scores.
    samples: Vec<Sample>,
    over_budget: u64,
    max_resident: u64,
    elapsed_s: f64,
    spans: Vec<(&'static str, Instant, Instant)>,
}

/// Runs the closed loop for `duration`.
fn closed_loop(s: &Setup, duration: Duration, seed: u64, keep_spans: bool) -> Loop {
    let registry = s.server.registry();
    let mut clients = s.clients.lock().expect("client pool lock");
    let start = Instant::now();
    let deadline = start + duration;
    let parts: Vec<Loop> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut rng = lrng::seeded(seed ^ ((c as u64 + 1) << 40));
                scope.spawn(move || {
                    let mut l = Loop::default();
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        i += 1;
                        if i.is_multiple_of(ADMIN_EVERY) {
                            let body = admin_body(s, registry, i / ADMIN_EVERY, &mut rng);
                            let t = Instant::now();
                            let reply = send(client, "POST", "/admin/load", &body);
                            let done = Instant::now();
                            l.admin_ms.push((done - t).as_secs_f64() * 1e3);
                            l.admin_failed += u64::from(reply.status != 200);
                            if keep_spans {
                                l.spans.push(("client.admin_load", t, done));
                            }
                        } else {
                            let ti = draw(&s.zipf_cdf, &mut rng);
                            let tenant = tenant_name(ti);
                            let bi = rng.random_range(0..POOL);
                            let b = &s.bodies[bi];
                            let body = b.for_tenant(&tenant);
                            let t = Instant::now();
                            let reply = send(client, "POST", "/score", &body);
                            let done = Instant::now();
                            l.requests += 1;
                            let right_tenant =
                                reply.body.contains(&format!("\"tenant\": \"{tenant}\""));
                            if reply.status == 200 && right_tenant {
                                if l.ok.is_multiple_of(CHECK_EVERY) {
                                    let scores = parse_scores(&reply.body).map(|p| p.0);
                                    l.samples.push((ti, bi, scores));
                                }
                                l.ok += 1;
                                l.rows += b.rows.rows() as u64;
                                l.score_ms.push((
                                    (t - start).as_secs_f64(),
                                    (done - t).as_secs_f64() * 1e3,
                                ));
                            } else {
                                l.failed += 1;
                                l.wrong_tenant += u64::from(reply.status == 200);
                                l.score_ms.push(((t - start).as_secs_f64(), f64::INFINITY));
                            }
                            if keep_spans {
                                l.spans.push(("client.score", t, done));
                            }
                        }
                        let resident = registry.resident_bytes();
                        l.max_resident = l.max_resident.max(resident);
                        l.over_budget += u64::from(resident > s.budget);
                    }
                    l
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut total = Loop {
        elapsed_s: secs(start),
        ..Loop::default()
    };
    for p in parts {
        total.requests += p.requests;
        total.ok += p.ok;
        total.failed += p.failed;
        total.rows += p.rows;
        total.score_ms.extend(p.score_ms);
        total.admin_ms.extend(p.admin_ms);
        total.admin_failed += p.admin_failed;
        total.wrong_tenant += p.wrong_tenant;
        total.samples.extend(p.samples);
        total.over_budget += p.over_budget;
        total.max_resident = total.max_resident.max(p.max_resident);
        total.spans.extend(p.spans);
    }
    total
}

/// An `/admin/load` body: re-install a resident tenant from its own
/// snapshot, or (every fourth load) hot-swap the default tenant.
fn admin_body(
    s: &Setup,
    registry: &targad_serve::ModelRegistry,
    n: usize,
    rng: &mut impl Rng,
) -> String {
    let (tenant, file) = if n.is_multiple_of(4) {
        ("default".to_string(), "default-model".to_string())
    } else {
        let resident: Vec<String> = registry
            .tenants()
            .into_iter()
            .map(|t| t.tenant)
            .filter(|name| name != "default")
            .collect();
        let name = if resident.is_empty() {
            tenant_name(0)
        } else {
            resident[rng.random_range(0..resident.len())].clone()
        };
        (name.clone(), name)
    };
    let path = s.dir.join(format!("{file}.tgsnp"));
    format!(
        "{{\"tenant\": \"{tenant}\", \"path\": \"{}\"}}",
        path.display()
    )
}

/// Counts the loop's operations and checks its invariants and sampled
/// scores.
fn account(name: &str, l: &Loop, s: &Setup, seed: u64, tr: &mut Tracer, rep: &mut Report) {
    let wrong = tr.time("gate.reply_scores", |_| wrong_scores(s, seed, &l.samples));
    rep.attempted += l.requests + l.admin_ms.len() as u64;
    rep.failed += l.failed + l.admin_failed + wrong;
    rep.gate(
        "f32_scores_match_model",
        wrong == 0 && !l.samples.is_empty(),
        format!(
            "{name}: {} sampled replies, {wrong} differ from the tenant's model in process",
            l.samples.len()
        ),
    );
    rep.gate(
        "resident_within_budget",
        l.over_budget == 0,
        format!(
            "{name}: max resident {} of budget {} bytes, {} replies over",
            l.max_resident, s.budget, l.over_budget
        ),
    );
    rep.gate(
        "tenant_matches_request",
        l.wrong_tenant == 0,
        format!("{name}: {} replies named another tenant", l.wrong_tenant),
    );
    rep.gate(
        "no_request_lost",
        l.failed == 0 && l.admin_failed == 0,
        format!(
            "{name}: {} of {} scores and {} of {} admin loads failed",
            l.failed,
            l.requests,
            l.admin_failed,
            l.admin_ms.len()
        ),
    );
}

pub fn run(args: &Args, tr: &mut Tracer, rep: &mut Report) {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for i in 0..SETUP_REPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(args.seed, i, tr));
        setup_s.push(secs(t));
    }
    let s = setup.expect("set up");
    rep.protocol("setup_reps", SETUP_REPS);
    rep.protocol("clients", CLIENTS);
    rep.protocol("tenants", TENANTS);
    rep.protocol("budget_bytes", s.budget);
    rep.protocol("zipf_s", ZIPF_S);
    rep.protocol("admin_every", ADMIN_EVERY);
    rep.show(
        "setup_s",
        median(&setup_s),
        "s",
        format!("median of {SETUP_REPS} set-ups"),
    );
    rep.e2e("setup_s", median(&setup_s));

    if tr.on() {
        traced(args, &s, tr, rep);
        return;
    }
    let before = MetricsSnapshot::take();
    let l = tr.time("churn", |_| closed_loop(&s, args.seconds, args.seed, false));
    let after = MetricsSnapshot::take();
    account("churn", &l, &s, args.seed, tr, rep);
    let hits = after.value("store.cache_hits") - before.value("store.cache_hits");
    let misses = after.value("store.cache_misses") - before.value("store.cache_misses");
    let n = l.score_ms.len();
    let windows = (args.seconds.as_secs_f64() / TAIL_WINDOW_S).max(1.0) as usize;
    let (p50, p50_label) = windowed(&l.score_ms, l.elapsed_s, windows, Within::P50);
    let (tail, tail_label) = windowed(&l.score_ms, l.elapsed_s, windows, Within::Tail);
    let admin = Summary::of(&l.admin_ms).expect("admin loads sent");
    let rows_per_s = l.rows as f64 / l.elapsed_s;
    rep.protocol("requests", l.requests);
    rep.show(
        "rows_per_s",
        rows_per_s,
        "rows/s",
        format!("{} rows in {:.2} s", l.rows, l.elapsed_s),
    );
    rep.show("p50_ms", p50, "ms", format!("/score {p50_label}, n={n}"));
    let whole: Vec<f64> = l.score_ms.iter().map(|x| x.1).collect();
    rep.show(
        "p50_ms_whole_run",
        median(&whole),
        "ms",
        format!("/score p50 over the whole run, n={n}"),
    );
    rep.show("p99_ms", tail, "ms", format!("/score {tail_label}, n={n}"));
    rep.show(
        "admin_load_ms_p50",
        admin.p50,
        "ms",
        format!("/admin/load, n={}", admin.n),
    );
    rep.show(
        "hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        format!("{hits} hits, {misses} misses"),
    );
    rep.e2e("p50_ms", p50);
    rep.e2e("aux_p50_ms", admin.p50);
    rep.e2e("ops_per_s", rows_per_s);
}

/// The traced run: the loop traced between two untraced halves (the
/// comparison gives the overhead; a steady drift of the host's speed
/// cancels out), then in-process probes of the store's load path,
/// `Json::parse` and `MicroBatcher::submit_for`.
fn traced(args: &Args, s: &Setup, tr: &mut Tracer, rep: &mut Report) {
    let part = args.seconds.mul_f64(0.35);
    let before = untraced_loop(s, part / 2, args.seed, tr, rep);

    let m0 = MetricsSnapshot::take();
    let stats0 = s.server.batcher().stats();
    let traced = tr.time("churn", |tr| {
        let l = closed_loop(s, part, args.seed, true);
        tr.absorb(&l.spans);
        l
    });
    let m1 = MetricsSnapshot::take();
    let stats1 = s.server.batcher().stats();
    account("traced", &traced, s, args.seed, tr, rep);
    let after = untraced_loop(s, part / 2, args.seed, tr, rep);
    let plain_rows_per_s = (before.rows + after.rows) as f64 / (before.elapsed_s + after.elapsed_s);
    let overhead = plain_rows_per_s / (traced.rows as f64 / traced.elapsed_s) - 1.0;

    let delta = |n: &str| m1.value(n).saturating_sub(m0.value(n)) as f64;
    let (hits, misses) = (delta("store.cache_hits"), delta("store.cache_misses"));
    let wait = m1
        .hist("serve.queue_wait_ns")
        .since(&m0.hist("serve.queue_wait_ns"));
    let admit = m1.hist("store.admit_ns").since(&m0.hist("store.admit_ns"));
    let hist = |n: &str| m1.hist(n).since(&m0.hist(n));
    let request_us = hist("serve.request_ns").mean() / 1e3;
    let round_trips: Vec<f64> = traced.score_ms.iter().map(|x| x.1).collect();
    let round_trip_us = round_trips.iter().sum::<f64>() / round_trips.len() as f64 * 1e3;

    // The front end alone: parse every pooled request in-process.
    let parse_us: Vec<f64> = tr.time("json.parse", |_| {
        s.bodies
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let body = b.for_tenant(&tenant_name(i % TENANTS));
                let t = Instant::now();
                let doc = Json::parse(&body);
                let us = secs(t) * 1e6;
                assert!(doc.is_ok(), "generated body parses");
                us
            })
            .collect()
    });
    // Queueing, fault-in and engine without HTTP.
    let submit_us = tr.time("batcher.submit", |_| {
        submit_probe(s, args.seconds.mul_f64(0.15), args.seed, rep)
    });

    // The store's load path in-process, on the same snapshot files.
    let files: Vec<PathBuf> = (0..TENANTS)
        .map(|t| s.dir.join(format!("{}.tgsnp", tenant_name(t))))
        .collect();
    let mut load_us = Vec::new();
    let mut warm_us = Vec::new();
    let (mut validate_us, mut checksum_us) = (Vec::new(), Vec::new());
    tr.time("store.probe", |tr| {
        for round in 0..LOAD_PROBES {
            for f in &files {
                let t = Instant::now();
                let model = tr.time("store.load", |_| targad_store::load(f));
                load_us.push(secs(t) * 1e6);
                rep.attempted += 1;
                match model {
                    Ok(m) if round == 0 => {
                        let t = Instant::now();
                        tr.time("engine.warm_f32", |_| m.classifier.warm_f32());
                        warm_us.push(secs(t) * 1e6);
                    }
                    Ok(_) => {}
                    Err(_) => rep.failed += 1,
                }
            }
        }
        for f in &files {
            let bytes = std::fs::read(f).expect("read a snapshot");
            let words: Vec<f64> = bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            let t = Instant::now();
            let ok = tr.time("store.validate", |_| format::validate(&words).is_ok());
            validate_us.push(secs(t) * 1e6);
            let t = Instant::now();
            std::hint::black_box(tr.time("store.checksum", |_| format::checksum64(&words)));
            checksum_us.push(secs(t) * 1e6);
            rep.attempted += 1;
            rep.failed += u64::from(!ok);
        }
    });
    let load = Summary::of(&load_us).expect("loads ran");
    rep.layer("store.load_us_p50", load.p50);
    rep.layer("store.load_us_p99", load.tail);
    rep.layer("store.validate_us", median(&validate_us));
    rep.layer("store.checksum_us", median(&checksum_us));
    rep.layer("registry.hit_ratio", hits / (hits + misses).max(1.0));
    rep.layer("registry.evictions", delta("store.evictions"));
    rep.layer(
        "registry.resident_max_over_budget",
        traced.max_resident as f64 / s.budget as f64,
    );
    rep.layer("registry.admit_us", admit.mean() / 1e3);
    rep.layer("engine.f32_warm_us", median(&warm_us));
    rep.layer("admin.load_ms_p50", median(&traced.admin_ms));
    rep.layer("batcher.queue_wait_us_p99", wait.quantile(0.99) / 1e3);
    rep.layer("batcher.queue_wait_us_mean", wait.mean() / 1e3);
    rep.layer("batcher.batch_fill_mean", hist("serve.batch_fill").mean());
    rep.layer(
        "batcher.batches",
        stats1.batches.saturating_sub(stats0.batches) as f64,
    );
    rep.layer(
        "batcher.service_us_mean",
        hist("serve.batch_service_ns").mean() / 1e3,
    );
    rep.layer("server.request_us_mean", request_us);
    rep.layer("net.overhead_us_mean", round_trip_us - request_us);
    rep.layer("json.parse_us", median(&parse_us));
    rep.layer("batcher.submit_us", submit_us);
    let all = [&before, &traced, &after];
    rep.layer(
        "client.sent",
        all.iter().map(|l| l.requests).sum::<u64>() as f64,
    );
    rep.layer("client.ok", all.iter().map(|l| l.ok).sum::<u64>() as f64);
    rep.layer(
        "client.failed",
        all.iter().map(|l| l.failed).sum::<u64>() as f64,
    );
    rep.layer("obs.trace_overhead_pct", overhead * 100.0);
}

/// One untraced stretch of the loop, with tracing and telemetry off, kept
/// visible as a top-level `overhead.untraced_churn` span.
fn untraced_loop(
    s: &Setup,
    duration: Duration,
    seed: u64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Loop {
    tr.set_on(false);
    targad_obs::set_enabled(false);
    let t = Instant::now();
    let l = closed_loop(s, duration, seed, false);
    tr.set_on(true);
    targad_obs::set_enabled(true);
    tr.record("overhead.untraced_churn", t, Instant::now());
    account("untraced", &l, s, seed, tr, rep);
    l
}

/// `MicroBatcher::submit_for` from [`CLIENTS`] threads in a closed loop on
/// the same Zipf tenant draw, without HTTP; median µs per submit.
fn submit_probe(s: &Setup, duration: Duration, seed: u64, rep: &mut Report) -> f64 {
    let batcher = s.server.batcher();
    let deadline = Instant::now() + duration;
    let mut all: Vec<(f64, bool)> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut rng = lrng::seeded(seed ^ ((c as u64 + 1) << 48));
                scope.spawn(move || {
                    let (mut out, mut samples) = (Vec::new(), Vec::new());
                    while Instant::now() < deadline {
                        let ti = draw(&s.zipf_cdf, &mut rng);
                        let tenant = tenant_name(ti);
                        let bi = rng.random_range(0..POOL);
                        let rows = &s.bodies[bi].rows;
                        let data = rows.as_slice().to_vec();
                        let t = Instant::now();
                        let scored = batcher.submit_for(
                            Some(&tenant),
                            data,
                            rows.rows(),
                            rows.cols(),
                            OodStrategy::Msp,
                        );
                        let us = secs(t) * 1e6;
                        let good = scored.as_ref().is_ok_and(|r| r.len() == rows.rows());
                        if good && (out.len() as u64).is_multiple_of(CHECK_EVERY) {
                            let scores = scored.ok().map(|r| r.iter().map(|v| v.score).collect());
                            samples.push((ti, bi, scores));
                        }
                        out.push((us, good));
                    }
                    (out, samples)
                })
            })
            .collect();
        for h in handles {
            let (out, checked) = h.join().expect("submit thread");
            all.extend(out);
            samples.extend(checked);
        }
    });
    let bad = all.iter().filter(|x| !x.1).count() as u64;
    let wrong = wrong_scores(s, seed, &samples);
    rep.attempted += all.len() as u64;
    rep.failed += bad + wrong;
    rep.gate(
        "submit_ok",
        bad == 0 && wrong == 0,
        format!(
            "{} in-process submits, {bad} failed, {wrong} of {} sampled differ from the model",
            all.len(),
            samples.len()
        ),
    );
    median(&all.iter().map(|x| x.0).collect::<Vec<_>>())
}
