//! The HTTP front end: routing, request/response bodies, and lifecycle.
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/score` | POST | Score rows (optionally for a named `tenant`); one full verdict per row |
//! | `/admin/swap` | POST | Hot-swap the default model from a v3 binary or v2 text snapshot |
//! | `/admin/load` | POST | Admit (or replace) a named tenant's model from a snapshot file |
//! | `/admin/evict` | POST | Evict a named tenant from the resident LRU |
//! | `/admin/tenants` | GET | Resident tenants, their bytes, and the budget |
//! | `/model` | GET | Default model's tag, generation, shape, thresholds |
//! | `/healthz` | GET | Liveness plus current generation |
//! | `/metrics` | GET | Prometheus text exposition (per-tenant series included) |
//! | `/metrics.json` | GET | The `targad-obs` metrics snapshot as JSON |
//!
//! The server is thread-per-connection with keep-alive (no async runtime —
//! the repo builds offline), a nonblocking accept loop polled against the
//! shutdown flag, and per-connection read timeouts so shutdown never hangs
//! on an idle peer. [`ServerHandle::shutdown`] stops accepting, joins every
//! connection, then drains the batcher — queued requests are answered, not
//! dropped.
//!
//! Every `/score` request gets a process-unique request id (echoed in the
//! response as `request_id`), and — when
//! [`ServeConfig::access_log`](crate::ServeConfig) is set — one JSONL
//! access-log line carrying the id, tenant, row and verdict counts,
//! per-phase nanoseconds from the request trace, and the HTTP status. The
//! exposition endpoints are unauthenticated read-only; set
//! [`ServeConfig::metrics_loopback_only`](crate::ServeConfig) to restrict
//! them to loopback peers. `/metrics` renders into a per-server reused
//! buffer, so steady-state scrapes allocate nothing.

use std::fs::File;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use targad_core::{
    snapshot as core_snapshot, EnginePrecision, OodStrategy, TargAdError, VerdictCounts,
};
use targad_obs::{labeled, metrics, RequestTrace, ServePhase};
use targad_runtime::Runtime;

use crate::batcher::MicroBatcher;
use crate::config::{ServeConfig, ServeError};
use crate::http::{read_request, write_response, Request};
use crate::json::Json;
use crate::registry::{ModelRegistry, ModelSnapshot, DEFAULT_TENANT};
use targad_obs::json::escape;

/// How often blocked I/O paths re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Read timeout once a request's first byte has arrived. Short poll
/// timeouts apply only *between* requests (where a timeout cannot lose
/// data); mid-request a slow peer — a TCP retransmit, a request split
/// across packets — gets this long, and a timeout then closes the
/// connection rather than re-entering the parser mid-stream with the
/// partial read discarded. Shutdown may wait up to this long for a
/// connection that is mid-request.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Stable wire name of a strategy (`msp` / `es` / `ed`), the inverse of
/// [`OodStrategy::parse`].
pub(crate) fn wire_name(strategy: OodStrategy) -> &'static str {
    match strategy {
        OodStrategy::Msp => "msp",
        OodStrategy::EnergyScore => "es",
        OodStrategy::EnergyDiscrepancy => "ed",
    }
}

/// The serve-layer entry point. See [`Server::start`].
pub struct Server;

impl Server {
    /// Validates `config`, binds the listener, installs `snapshot` as
    /// generation 1, and starts the batcher worker plus the accept loop.
    /// Returns a handle owning the whole lifecycle.
    ///
    /// # Errors
    /// [`ServeError::InvalidConfig`] or [`ServeError::Io`] (bind failure).
    pub fn start(
        config: ServeConfig,
        snapshot: ModelSnapshot,
        runtime: Runtime,
    ) -> Result<ServerHandle, ServeError> {
        config.try_validate()?;
        let access_log = match &config.access_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        let listener = TcpListener::bind((config.host.as_str(), config.port as u16))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let registry = Arc::new(ModelRegistry::with_options(
            snapshot,
            config.precision,
            config.model_budget_bytes,
            config.store_dir.clone(),
        )?);
        let batcher = Arc::new(MicroBatcher::start(&config, Arc::clone(&registry), runtime));
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let ctx = Arc::new(Context {
            registry: Arc::clone(&registry),
            batcher: Arc::clone(&batcher),
            shutdown: Arc::clone(&shutdown),
            default_strategy: config.default_strategy,
            precision: config.precision,
            admin_token: config.admin_token.clone(),
            access_log,
            metrics_loopback_only: config.metrics_loopback_only,
            request_seq: AtomicU64::new(0),
            prom_buf: Mutex::new(String::new()),
        });
        let accept_ctx = Arc::clone(&ctx);
        let accept_connections = Arc::clone(&connections);
        let accept = std::thread::Builder::new()
            .name("targad-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_ctx, accept_connections))
            .map_err(|e| ServeError::Io(e.to_string()))?;

        Ok(ServerHandle {
            addr,
            registry,
            batcher,
            shutdown,
            accept: Some(accept),
            connections,
        })
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<ModelRegistry>,
    batcher: Arc<MicroBatcher>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (reads the ephemeral port when `port = 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model registry, for in-process hot-swap and inspection.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The batcher, for stats and in-process scoring.
    pub fn batcher(&self) -> &Arc<MicroBatcher> {
        &self.batcher
    }

    /// Stops accepting connections, joins every connection thread, and
    /// drains the batcher. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles: Vec<_> = self
            .connections
            .lock()
            .expect("connections lock poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.batcher.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything a connection handler needs.
struct Context {
    registry: Arc<ModelRegistry>,
    batcher: Arc<MicroBatcher>,
    shutdown: Arc<AtomicBool>,
    default_strategy: OodStrategy,
    precision: EnginePrecision,
    admin_token: Option<String>,
    /// Opened in append mode at start; one JSONL line per `/score`.
    access_log: Option<Mutex<File>>,
    /// Restrict `/metrics` and `/metrics.json` to loopback peers.
    metrics_loopback_only: bool,
    /// Process-unique `/score` request ids (1-based).
    request_seq: AtomicU64,
    /// Reused Prometheus render buffer: after the first scrape grows it,
    /// steady-state `/metrics` responses allocate nothing.
    prom_buf: Mutex<String>,
}

impl Context {
    /// Appends one line to the access log (no-op when not configured).
    /// Log I/O failures are swallowed: observability must never fail a
    /// scoring request.
    fn log_access(&self, line: &str) {
        if let Some(log) = &self.access_log {
            let mut file = log.lock().unwrap_or_else(|e| e.into_inner());
            let _ = file.write_all(line.as_bytes());
            let _ = file.write_all(b"\n");
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    ctx: Arc<Context>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_ctx = Arc::clone(&ctx);
                let mut connections = connections.lock().expect("connections lock poisoned");
                // Reap finished connection threads so a long-lived server
                // with many short-lived connections does not grow this
                // list (and the final shutdown join) without bound.
                connections.retain(|handle| !handle.is_finished());
                if let Ok(handle) = std::thread::Builder::new()
                    .name("targad-serve-conn".into())
                    .spawn(move || connection_loop(stream, conn_ctx))
                {
                    connections.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if ctx.shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => {
                if ctx.shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

fn connection_loop(stream: TcpStream, ctx: Arc<Context>) {
    if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let peer_is_loopback = stream
        .peer_addr()
        .map(|a| a.ip().is_loopback())
        .unwrap_or(false);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // `writer` and the BufReader's inner stream share one socket, so
    // set_read_timeout through either applies to both.
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        if ctx.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Between requests: poll for the next request's first byte in
        // short bounded reads so an idle keep-alive peer cannot outlive
        // shutdown. fill_buf only peeks — nothing is consumed — so a
        // timeout here cannot discard request bytes.
        if writer.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            return;
        }
        match reader.fill_buf() {
            // Peer closed an idle connection.
            Ok([]) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll; loop re-checks the shutdown flag.
                continue;
            }
            Err(_) => return,
        }
        // A request has started: give the peer the full request window.
        if writer.set_read_timeout(Some(REQUEST_READ_TIMEOUT)).is_err() {
            return;
        }
        match read_request(&mut reader) {
            Ok(Some(request)) => {
                let keep_alive = !request.wants_close();
                let wrote = if request.method == "GET" && request.path == "/metrics" {
                    serve_prometheus(&mut writer, &ctx, peer_is_loopback, keep_alive)
                } else {
                    let (status, body) = route(&request, &ctx, peer_is_loopback);
                    write_response(
                        &mut writer,
                        status,
                        body.as_bytes(),
                        "application/json",
                        keep_alive,
                    )
                };
                if wrote.is_err() || !keep_alive {
                    return;
                }
            }
            Ok(None) => return,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Mid-request stall past the window: the stream position
                // is undefined (partial reads were discarded), so close
                // instead of parsing leftovers as a fresh request.
                return;
            }
            Err(_) => {
                let _ = write_response(
                    &mut writer,
                    400,
                    error_body("malformed request").as_bytes(),
                    "application/json",
                    false,
                );
                return;
            }
        }
    }
}

fn error_body(message: &str) -> String {
    format!("{{\"error\": \"{}\"}}", escape(message))
}

/// `GET /metrics` — Prometheus text exposition, written straight from the
/// server's reused render buffer (no per-scrape body allocation once the
/// buffer has grown to steady-state size).
fn serve_prometheus(
    writer: &mut TcpStream,
    ctx: &Context,
    peer_is_loopback: bool,
    keep_alive: bool,
) -> std::io::Result<()> {
    if ctx.metrics_loopback_only && !peer_is_loopback {
        return write_response(
            writer,
            403,
            error_body("metrics are restricted to loopback peers").as_bytes(),
            "application/json",
            keep_alive,
        );
    }
    let mut buf = ctx.prom_buf.lock().unwrap_or_else(|e| e.into_inner());
    targad_obs::prom::render_into(&mut buf);
    write_response(
        writer,
        200,
        buf.as_bytes(),
        "text/plain; version=0.0.4; charset=utf-8",
        keep_alive,
    )
}

/// Whether `request` may hit admin routes: the configured token must match
/// (compared in constant time), or — when no token is configured — the
/// peer must be loopback, so a default deployment never exposes
/// filesystem-touching routes beyond the host.
fn authorize_admin(request: &Request, ctx: &Context, peer_is_loopback: bool) -> bool {
    match &ctx.admin_token {
        Some(token) => {
            let presented = request.header("x-admin-token").unwrap_or("").as_bytes();
            let expected = token.as_bytes();
            presented.len() == expected.len()
                && presented
                    .iter()
                    .zip(expected)
                    .fold(0u8, |acc, (a, b)| acc | (a ^ b))
                    == 0
        }
        None => peer_is_loopback,
    }
}

fn route(request: &Request, ctx: &Context, peer_is_loopback: bool) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (
            200,
            format!(
                "{{\"status\": \"ok\", \"generation\": {}}}",
                ctx.registry.generation()
            ),
        ),
        ("GET", "/metrics.json") if ctx.metrics_loopback_only && !peer_is_loopback => {
            (403, error_body("metrics are restricted to loopback peers"))
        }
        ("GET", "/metrics.json") => (200, targad_obs::metrics::snapshot_json()),
        ("GET", "/model") => (200, model_body(ctx)),
        ("POST", "/score") => score_route(request, ctx),
        ("POST", "/admin/swap" | "/admin/load" | "/admin/evict") | ("GET", "/admin/tenants")
            if !authorize_admin(request, ctx, peer_is_loopback) =>
        {
            (403, error_body(&ServeError::Unauthorized.to_string()))
        }
        ("POST", "/admin/swap") => match handle_swap(request, ctx) {
            Ok(body) => (200, body),
            Err(e) => (status_of(&e), error_body(&e.to_string())),
        },
        ("POST", "/admin/load") => match handle_load(request, ctx) {
            Ok(body) => (200, body),
            Err(e) => (status_of(&e), error_body(&e.to_string())),
        },
        ("POST", "/admin/evict") => match handle_evict(request, ctx) {
            Ok(body) => (200, body),
            Err(e) => (status_of(&e), error_body(&e.to_string())),
        },
        ("GET", "/admin/tenants") => (200, tenants_body(ctx)),
        ("GET" | "POST", _) => (404, error_body("no such route")),
        _ => (405, error_body("method not allowed")),
    }
}

fn status_of(e: &ServeError) -> u16 {
    match e {
        ServeError::Overloaded | ServeError::ShuttingDown => 503,
        ServeError::BadRequest(_) | ServeError::Model(_) => 400,
        ServeError::Unauthorized => 403,
        ServeError::UnknownTenant(_) => 404,
        ServeError::BudgetExceeded { .. } => 507,
        ServeError::InvalidConfig { .. } | ServeError::Io(_) => 500,
    }
}

fn model_body(ctx: &Context) -> String {
    let (snapshot, generation) = ctx.registry.current();
    let clf = &snapshot.classifier;
    let taus: Vec<String> = OodStrategy::all()
        .into_iter()
        .map(|s| {
            let value = snapshot
                .thresholds
                .get(s)
                .map_or("null".into(), |t| format!("{t:?}"));
            format!("\"{}\": {value}", wire_name(s))
        })
        .collect();
    format!(
        "{{\"tag\": \"{}\", \"generation\": {generation}, \"m\": {}, \"k\": {}, \"input_dim\": {}, \"precision\": \"{}\", \"thresholds\": {{{}}}}}",
        escape(&snapshot.tag),
        clf.m(),
        clf.k(),
        clf.input_dim(),
        ctx.precision.name(),
        taus.join(", ")
    )
}

/// What the access log needs from one `/score` request, filled in as the
/// handler learns it (`"-"` tenant = the request failed before tenant
/// parsing).
struct ScoreLogInfo {
    tenant: String,
    label: Option<targad_obs::LabelId>,
    rows: usize,
    counts: VerdictCounts,
    trace: RequestTrace,
}

/// `POST /score` with request-id assignment, latency accounting, and the
/// JSONL access-log line.
fn score_route(request: &Request, ctx: &Context) -> (u16, String) {
    let started = Instant::now();
    let request_id = ctx.request_seq.fetch_add(1, Ordering::AcqRel) + 1;
    let mut info = ScoreLogInfo {
        tenant: "-".into(),
        label: None,
        rows: 0,
        counts: VerdictCounts::default(),
        trace: RequestTrace::disabled(),
    };
    let (status, body) = match handle_score(request, ctx, request_id, &mut info) {
        Ok(body) => (200, body),
        Err(e) => (status_of(&e), error_body(&e.to_string())),
    };
    let request_ns = elapsed_ns(started);
    metrics::SERVE_REQUEST_NS.record_always(request_ns);
    if status == 200 {
        if let Some(label) = info.label {
            labeled::TENANT_REQUEST_NS.record(label, request_ns);
        }
    }
    if ctx.access_log.is_some() {
        let phases: Vec<String> = ServePhase::ALL
            .iter()
            .map(|&p| format!("\"{}\": {}", p.name(), info.trace.phase_ns(p)))
            .collect();
        ctx.log_access(&format!(
            "{{\"request_id\": {request_id}, \"tenant\": \"{}\", \"rows\": {}, \"status\": {status}, \"verdicts\": {{\"normal\": {}, \"target\": {}, \"non_target\": {}}}, {}, \"request_ns\": {request_ns}}}",
            escape(&info.tenant),
            info.rows,
            info.counts.normal,
            info.counts.target,
            info.counts.non_target,
            phases.join(", ")
        ));
    }
    (status, body)
}

/// `POST /score` — body `{"rows": [[f64; D]; N], "ood_strategy": "msp"?,
/// "tenant": "…"?}`. An omitted tenant scores on the pinned default model.
fn handle_score(
    request: &Request,
    ctx: &Context,
    request_id: u64,
    info: &mut ScoreLogInfo,
) -> Result<String, ServeError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ServeError::BadRequest("body is not utf-8".into()))?;
    let doc = Json::parse(text).map_err(ServeError::BadRequest)?;
    let tenant = match doc.get("tenant") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| ServeError::BadRequest("tenant must be a string".into()))?,
        ),
    };
    info.tenant.clear();
    info.tenant.push_str(tenant.unwrap_or(DEFAULT_TENANT));
    let strategy = match doc.get("ood_strategy") {
        None | Some(Json::Null) => ctx.default_strategy,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| ServeError::BadRequest("ood_strategy must be a string".into()))?;
            OodStrategy::parse(name)
                .ok_or_else(|| ServeError::BadRequest(format!("unknown ood_strategy `{name}`")))?
        }
    };
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::BadRequest("missing `rows` array".into()))?;
    if rows.is_empty() {
        return Err(ServeError::BadRequest("`rows` is empty".into()));
    }
    let mut dims = 0;
    let mut data = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .as_arr()
            .ok_or_else(|| ServeError::BadRequest(format!("row {i} is not an array")))?;
        if i == 0 {
            dims = cells.len();
            data.reserve(rows.len() * dims);
        } else if cells.len() != dims {
            return Err(ServeError::BadRequest(format!(
                "row {i} has {} values, row 0 has {dims}",
                cells.len()
            )));
        }
        for (j, cell) in cells.iter().enumerate() {
            let v = cell
                .as_f64()
                .ok_or_else(|| ServeError::BadRequest(format!("row {i}[{j}] is not a number")))?;
            if !v.is_finite() {
                return Err(ServeError::BadRequest(format!(
                    "row {i}[{j}] is not finite"
                )));
            }
            data.push(v);
        }
    }
    if dims == 0 {
        return Err(ServeError::BadRequest("rows have zero columns".into()));
    }
    info.rows = rows.len();

    let outcome = ctx.batcher.submit_traced(
        tenant,
        data,
        rows.len(),
        dims,
        strategy,
        RequestTrace::begin(),
    )?;
    info.label = Some(outcome.tenant);
    info.counts = VerdictCounts::tally(outcome.rows.iter().map(|s| s.class));
    let scored = &outcome.rows;
    let mut trace = outcome.trace;
    let body = {
        let _serialize = trace.span(ServePhase::Serialize);
        let generation = scored.first().map_or(0, |s| s.generation);
        let verdicts: Vec<String> = scored
            .iter()
            .map(|s| {
                format!(
                    "{{\"score\": {:?}, \"class\": \"{}\", \"ood_strategy\": \"{}\", \"threshold\": {:?}}}",
                    s.score,
                    s.class.name(),
                    wire_name(s.strategy),
                    s.threshold
                )
            })
            .collect();
        format!(
            "{{\"request_id\": {request_id}, \"tenant\": \"{}\", \"model_generation\": {generation}, \"count\": {}, \"precision\": \"{}\", \"verdicts\": [{}]}}",
            escape(tenant.unwrap_or(DEFAULT_TENANT)),
            scored.len(),
            ctx.precision.name(),
            verdicts.join(", ")
        )
    };
    info.trace = trace;
    Ok(body)
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Loads a snapshot file for an admin route: binary v3 (`targad-store`)
/// first, then the retained v2 text format. The path is client-supplied,
/// so neither it nor the raw load errors are echoed back — the routes
/// cannot be used to probe the server's filesystem.
fn load_snapshot_file(path: &str, tag: &str, ctx: &Context) -> Result<ModelSnapshot, ServeError> {
    let (classifier, thresholds) = match targad_store::load(path) {
        Ok(model) => (model.classifier, model.thresholds),
        Err(_) => core_snapshot::load_with_thresholds(path).map_err(|_| {
            ServeError::BadRequest(
                "cannot load snapshot (unreadable, or neither a v3 nor a v2 snapshot)".into(),
            )
        })?,
    };
    if thresholds.is_empty() {
        // A model with no calibrated thresholds can answer nothing; reject
        // the install instead of serving NotCalibrated on every request.
        return Err(ServeError::Model(TargAdError::NotCalibrated {
            strategy: ctx.default_strategy,
        }));
    }
    Ok(ModelSnapshot::new(classifier, thresholds, tag))
}

/// `POST /admin/swap` — body `{"path": "<snapshot file>", "tag": "…"?}`.
/// Accepts binary v3 and v2 text snapshots.
fn handle_swap(request: &Request, ctx: &Context) -> Result<String, ServeError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ServeError::BadRequest("body is not utf-8".into()))?;
    let doc = Json::parse(text).map_err(ServeError::BadRequest)?;
    let path = doc
        .get("path")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing `path`".into()))?;
    let tag = doc
        .get("tag")
        .and_then(Json::as_str)
        .unwrap_or(path)
        .to_string();
    let snapshot = load_snapshot_file(path, &tag, ctx)?;
    let generation = ctx.registry.try_swap(snapshot)?;
    Ok(format!(
        "{{\"generation\": {generation}, \"tag\": \"{}\"}}",
        escape(&tag)
    ))
}

/// `POST /admin/load` — body `{"tenant": "…", "path": "<snapshot file>",
/// "tag": "…"?}`. Admits (or replaces) the tenant's model under the LRU
/// byte budget; loading tenant `default` is a hot-swap.
fn handle_load(request: &Request, ctx: &Context) -> Result<String, ServeError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ServeError::BadRequest("body is not utf-8".into()))?;
    let doc = Json::parse(text).map_err(ServeError::BadRequest)?;
    let tenant = doc
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing `tenant`".into()))?;
    let path = doc
        .get("path")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing `path`".into()))?;
    let tag = doc
        .get("tag")
        .and_then(Json::as_str)
        .unwrap_or(tenant)
        .to_string();
    let snapshot = load_snapshot_file(path, &tag, ctx)?;
    let bytes = snapshot.resident_cost();
    let generation = ctx.registry.load_tenant(tenant, snapshot)?;
    Ok(format!(
        "{{\"tenant\": \"{}\", \"generation\": {generation}, \"bytes\": {bytes}, \"resident_bytes\": {}}}",
        escape(tenant),
        ctx.registry.resident_bytes()
    ))
}

/// `POST /admin/evict` — body `{"tenant": "…"}`. The default tenant is
/// pinned and cannot be evicted.
fn handle_evict(request: &Request, ctx: &Context) -> Result<String, ServeError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ServeError::BadRequest("body is not utf-8".into()))?;
    let doc = Json::parse(text).map_err(ServeError::BadRequest)?;
    let tenant = doc
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing `tenant`".into()))?;
    if tenant == DEFAULT_TENANT {
        return Err(ServeError::BadRequest(
            "the default tenant is pinned and cannot be evicted".into(),
        ));
    }
    if !ctx.registry.evict_tenant(tenant) {
        return Err(ServeError::UnknownTenant(tenant.to_string()));
    }
    Ok(format!(
        "{{\"tenant\": \"{}\", \"evicted\": true, \"resident_bytes\": {}}}",
        escape(tenant),
        ctx.registry.resident_bytes()
    ))
}

/// `GET /admin/tenants` — the resident LRU's contents and budget.
fn tenants_body(ctx: &Context) -> String {
    let rows: Vec<String> = ctx
        .registry
        .tenants()
        .into_iter()
        .map(|t| {
            format!(
                "{{\"tenant\": \"{}\", \"tag\": \"{}\", \"generation\": {}, \"bytes\": {}}}",
                escape(&t.tenant),
                escape(&t.tag),
                t.generation,
                t.bytes
            )
        })
        .collect();
    format!(
        "{{\"budget_bytes\": {}, \"resident_bytes\": {}, \"tenants\": [{}]}}",
        ctx.registry.budget_bytes(),
        ctx.registry.resident_bytes(),
        rows.join(", ")
    )
}

/// Blocking HTTP client for one connection — tests, the CI smoke job, and
/// the bench closed-loop driver reuse it (keep-alive across calls).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    host: String,
    admin_token: Option<String>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    /// Propagates connect errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            host: addr.to_string(),
            admin_token: None,
        })
    }

    /// Sends `token` as `x-admin-token` on every subsequent request
    /// (required for `/admin/*` routes when the server has one
    /// configured).
    pub fn set_admin_token(&mut self, token: Option<String>) {
        self.admin_token = token;
    }

    /// Sends one request and reads the response.
    ///
    /// # Errors
    /// Propagates stream errors and malformed response framing.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<crate::http::Response> {
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(token) = &self.admin_token {
            headers.push(("x-admin-token", token));
        }
        crate::http::write_request(
            &mut self.writer,
            method,
            path,
            &self.host,
            &headers,
            body.as_bytes(),
        )?;
        self.writer.flush()?;
        crate::http::read_response(&mut self.reader)
    }
}
