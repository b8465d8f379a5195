//! The dynamic micro-batcher.
//!
//! Concurrent callers each submit a handful of rows; a single worker
//! thread coalesces whatever is queued into fused `ScoreEngine` passes
//! (`targad-nn`). The policy is natural batching, with no linger: the
//! worker blocks for the first job, drains every job already queued
//! behind it until [`ServeConfig::max_batch`](crate::ServeConfig) rows are
//! collected, and executes at once. An idle server therefore scores a
//! lone request at single-request latency, while under load the backlog
//! that builds up during one pass becomes the next batch, amortizing the
//! batched-inference advantage across callers exactly when it pays.
//!
//! Every submission resolves its tenant to a concrete
//! `(Arc<ModelSnapshot>, generation)` pair *on the request thread*, so a
//! queued job owns the model it will score on: a hot-swap or an LRU
//! eviction between enqueue and execution can drop the registry's
//! reference but never tear the job. The worker groups coalesced jobs by
//! that pair and runs one fused pass per distinct model — rows of
//! different tenants batch independently but ride the same drain.
//!
//! The queue is bounded by row count: submissions that would exceed
//! [`ServeConfig::queue_depth`](crate::ServeConfig) are rejected
//! immediately with [`ServeError::Overloaded`] (backpressure beats
//! unbounded latency).
//!
//! Coalescing never changes results: the engine's forward pass and the
//! verdict kernel are strictly per-row, so a row scored in any coalesced
//! batch is bit-identical to the same row scored alone — the
//! `micro_batching.rs` integration tests pin this down.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use targad_core::{EnginePrecision, OodStrategy, TargAdError, VerdictClass};
use targad_linalg::Matrix;
use targad_obs::{labeled, metrics, sketch, LabelId, RequestTrace, ServePhase};
use targad_runtime::Runtime;

use crate::config::{ServeConfig, ServeError};
use crate::registry::{ModelRegistry, ModelSnapshot, DEFAULT_TENANT};

/// One row's serve-path result: the full verdict plus the registry
/// generation of the model that produced it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredRow {
    /// Eq. 9 target-anomaly score.
    pub score: f64,
    /// Three-way §III-C class.
    pub class: VerdictClass,
    /// OOD strategy the request selected.
    pub strategy: OodStrategy,
    /// Calibrated threshold the decision used.
    pub threshold: f64,
    /// Registry generation of the scoring model.
    pub generation: u64,
}

/// Aggregate batcher counters since this batcher started.
///
/// Backed by the **ungated** `serve.*` metrics in `targad-obs` — the same
/// numbers `/metrics` exports — as deltas against baselines captured at
/// [`MicroBatcher::start`], so the stats, the exposition endpoints, and
/// the bench can never drift apart. `max_fill` is the one exception: a
/// high-water mark has no meaningful delta, so it stays instance-scoped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Micro-batches executed (one per distinct model per drain).
    pub batches: u64,
    /// Rows scored.
    pub rows: u64,
    /// Largest batch fill achieved by *this* batcher instance.
    pub max_fill: u64,
}

/// One request's scored rows plus the trace it accumulated end to end.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitOutcome {
    /// One [`ScoredRow`] per submitted row, in order.
    pub rows: Vec<ScoredRow>,
    /// Phase timings (inert unless telemetry was enabled at submit).
    pub trace: RequestTrace,
    /// The interned per-tenant label the request was accounted under.
    pub tenant: LabelId,
}

struct Job {
    /// Row-major `n x dims` features.
    data: Vec<f64>,
    n: usize,
    strategy: OodStrategy,
    /// Calibrated threshold, resolved against `snapshot` at submit time.
    tau: f64,
    /// The model this job scores on, pinned at submit time.
    snapshot: Arc<ModelSnapshot>,
    generation: u64,
    enqueued: Instant,
    /// Interned tenant label for per-tenant accounting (`Copy` — the hot
    /// path never touches the tenant string again).
    tenant: LabelId,
    /// Request trace; phases recorded by the worker ride back with the
    /// reply.
    trace: RequestTrace,
    reply: Sender<Result<(Vec<ScoredRow>, RequestTrace), ServeError>>,
}

struct Shared {
    /// Rows currently queued (the backpressure bound).
    depth: AtomicUsize,
    /// Instance-scoped high-water batch fill (see [`BatcherStats`]).
    max_fill: AtomicU64,
    /// Monotonic nanos (since `started`) of the previous submit, for the
    /// `serve.arrival_gap_ns` histogram; 0 = no submit yet.
    last_arrival_ns: AtomicU64,
}

/// The coalescing scorer. One instance drives one worker thread; clones of
/// the submission side are handed to every connection handler.
pub struct MicroBatcher {
    tx: Mutex<Option<Sender<Job>>>,
    shared: Arc<Shared>,
    registry: Arc<ModelRegistry>,
    queue_depth: usize,
    worker: Mutex<Option<JoinHandle<()>>>,
    /// Monotonic origin for arrival-gap timestamps.
    started: Instant,
    /// Global-counter baselines captured at start; [`MicroBatcher::stats`]
    /// reports deltas against these.
    base_batches: u64,
    base_rows: u64,
}

impl MicroBatcher {
    /// Starts the worker thread scoring against `registry` on `runtime`.
    pub fn start(config: &ServeConfig, registry: Arc<ModelRegistry>, runtime: Runtime) -> Self {
        let (tx, rx) = channel::<Job>();
        let shared = Arc::new(Shared {
            depth: AtomicUsize::new(0),
            max_fill: AtomicU64::new(0),
            last_arrival_ns: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        let precision = registry.precision();
        let max_batch = config.max_batch;
        let worker = std::thread::Builder::new()
            .name("targad-serve-batcher".into())
            .spawn(move || {
                worker_loop(rx, worker_shared, runtime, precision, max_batch);
            })
            .expect("spawn batcher worker");
        // Pre-intern the default tenant so the very first request's label
        // resolution is already a lock-free lookup.
        labeled::tenants().intern(DEFAULT_TENANT);
        Self {
            tx: Mutex::new(Some(tx)),
            shared,
            registry,
            queue_depth: config.queue_depth,
            worker: Mutex::new(Some(worker)),
            started: Instant::now(),
            base_batches: metrics::SERVE_BATCHES.get(),
            base_rows: metrics::SERVE_ROWS.get(),
        }
    }

    /// Scores `n` rows for the default tenant
    /// ([`MicroBatcher::submit_for`] with no tenant).
    ///
    /// # Errors
    /// As [`MicroBatcher::submit_for`].
    pub fn submit(
        &self,
        data: Vec<f64>,
        n: usize,
        dims: usize,
        strategy: OodStrategy,
    ) -> Result<Vec<ScoredRow>, ServeError> {
        self.submit_for(None, data, n, dims, strategy)
    }

    /// Scores `n` rows (row-major `data`, `dims` columns each) for
    /// `tenant` under `strategy`, blocking until the coalesced batch
    /// containing them has executed. The tenant resolves to its model on
    /// *this* thread — faulting it in from the snapshot directory if
    /// needed — and the job owns that model until it is answered.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] under backpressure,
    /// [`ServeError::ShuttingDown`] after [`MicroBatcher::shutdown`],
    /// tenant-resolution errors ([`ServeError::UnknownTenant`],
    /// [`ServeError::BudgetExceeded`], [`ServeError::BadRequest`]), and
    /// [`ServeError::Model`] for per-request model errors (dimension
    /// mismatch, uncalibrated strategy).
    pub fn submit_for(
        &self,
        tenant: Option<&str>,
        data: Vec<f64>,
        n: usize,
        dims: usize,
        strategy: OodStrategy,
    ) -> Result<Vec<ScoredRow>, ServeError> {
        self.submit_traced(tenant, data, n, dims, strategy, RequestTrace::begin())
            .map(|outcome| outcome.rows)
    }

    /// [`MicroBatcher::submit_for`] with an explicit request trace: the
    /// trace rides the job through the queue, the coalescing worker, and
    /// the engine pass, and comes back with the per-phase nanoseconds
    /// filled in (when it was active). This is the serve front end's entry
    /// point; per-tenant request/row counters, the arrival-gap and
    /// rows-per-request histograms, and the score-distribution sketches
    /// are all recorded here.
    ///
    /// # Errors
    /// As [`MicroBatcher::submit_for`].
    pub fn submit_traced(
        &self,
        tenant: Option<&str>,
        data: Vec<f64>,
        n: usize,
        dims: usize,
        strategy: OodStrategy,
        trace: RequestTrace,
    ) -> Result<SubmitOutcome, ServeError> {
        assert_eq!(data.len(), n * dims, "submit: data length mismatch");
        if n == 0 {
            return Ok(SubmitOutcome {
                rows: Vec::new(),
                trace,
                tenant: labeled::tenants().intern(DEFAULT_TENANT),
            });
        }
        let (snapshot, generation) = self.registry.resolve(tenant)?;
        // Intern only after a successful resolve, so unknown or invalid
        // tenant names can never consume one of the 64 label slots.
        let label = labeled::tenants().intern(tenant.unwrap_or(DEFAULT_TENANT));
        let expected = snapshot.classifier.input_dim();
        if dims != expected {
            labeled::TENANT_ERRORS.inc(label);
            return Err(TargAdError::DimMismatch {
                expected,
                got: dims,
            }
            .into());
        }
        let Some(tau) = snapshot.thresholds.get(strategy) else {
            labeled::TENANT_ERRORS.inc(label);
            return Err(TargAdError::NotCalibrated { strategy }.into());
        };
        self.record_arrival(n);
        // Optimistically claim queue room; undo on rejection. The bound is
        // approximate under races by at most one in-flight submission per
        // caller thread, which is exactly the slack a bounded queue needs.
        let claimed = self.shared.depth.fetch_add(n, Ordering::AcqRel) + n;
        if claimed > self.queue_depth {
            self.shared.depth.fetch_sub(n, Ordering::AcqRel);
            metrics::SERVE_REJECTED.inc_always();
            labeled::TENANT_ERRORS.inc(label);
            return Err(ServeError::Overloaded);
        }
        metrics::SERVE_QUEUE_DEPTH.set_always(claimed as u64);
        let (reply_tx, reply_rx) = channel();
        let job = Job {
            data,
            n,
            strategy,
            tau,
            snapshot,
            generation,
            enqueued: Instant::now(),
            tenant: label,
            trace,
            reply: reply_tx,
        };
        let sent = match self.tx.lock().expect("batcher lock poisoned").as_ref() {
            Some(tx) => tx.send(job).is_ok(),
            None => false,
        };
        if !sent {
            self.shared.depth.fetch_sub(n, Ordering::AcqRel);
            labeled::TENANT_ERRORS.inc(label);
            return Err(ServeError::ShuttingDown);
        }
        metrics::SERVE_REQUESTS.inc_always();
        labeled::TENANT_REQUESTS.inc(label);
        labeled::TENANT_ROWS.add(label, n as u64);
        labeled::TENANT_REQUEST_ROWS.record(label, n as u64);
        match reply_rx
            .recv()
            .unwrap_or(Err(ServeError::Io("batcher worker died".into())))
        {
            Ok((rows, trace)) => Ok(SubmitOutcome {
                rows,
                trace,
                tenant: label,
            }),
            Err(e) => {
                labeled::TENANT_ERRORS.inc(label);
                Err(e)
            }
        }
    }

    /// Records the gap since the previous submit and this request's row
    /// count into the workload-profile histograms.
    fn record_arrival(&self, n: usize) {
        let now_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let prev = self.shared.last_arrival_ns.swap(now_ns, Ordering::AcqRel);
        if prev != 0 && now_ns > prev {
            metrics::SERVE_ARRIVAL_GAP_NS.record_always(now_ns - prev);
        }
        metrics::SERVE_REQUEST_ROWS.record_always(n as u64);
    }

    /// Rows currently queued.
    pub fn depth(&self) -> usize {
        self.shared.depth.load(Ordering::Acquire)
    }

    /// Aggregate counters since this batcher started (see
    /// [`BatcherStats`]).
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            batches: metrics::SERVE_BATCHES
                .get()
                .saturating_sub(self.base_batches),
            rows: metrics::SERVE_ROWS.get().saturating_sub(self.base_rows),
            max_fill: self.shared.max_fill.load(Ordering::Acquire),
        }
    }

    /// Stops accepting work, drains every queued job (no request is ever
    /// dropped), and joins the worker.
    pub fn shutdown(&self) {
        drop(self.tx.lock().expect("batcher lock poisoned").take());
        if let Some(worker) = self.worker.lock().expect("batcher lock poisoned").take() {
            let _ = worker.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    rx: Receiver<Job>,
    shared: Arc<Shared>,
    runtime: Runtime,
    precision: EnginePrecision,
    max_batch: usize,
) {
    loop {
        // Block for the batch's first job; a disconnect here means every
        // sender is gone and the queue is fully drained.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        let mut jobs = vec![first];
        let mut rows = jobs[0].n;
        // Coalesce whatever queued up while the previous batch executed,
        // then execute at once: waiting for stragglers would only add
        // latency, since the next pass picks up anything that arrives
        // meanwhile. Jobs are never split, so a multi-row job may
        // overshoot max_batch; the policy bounds when we *stop adding*,
        // not the final fill.
        while rows < max_batch {
            match rx.try_recv() {
                Ok(job) => {
                    rows += job.n;
                    jobs.push(job);
                }
                Err(_) => break,
            }
        }
        // One fused pass per distinct (model, generation) in the drain:
        // multi-tenant traffic batches per model, and a job enqueued just
        // before a hot-swap still scores on the snapshot it resolved.
        let mut groups: Vec<Vec<Job>> = Vec::new();
        for job in jobs {
            match groups.iter_mut().find(|g| {
                Arc::ptr_eq(&g[0].snapshot, &job.snapshot) && g[0].generation == job.generation
            }) {
                Some(group) => group.push(job),
                None => groups.push(vec![job]),
            }
        }
        for group in groups {
            execute_group(group, &shared, &runtime, precision);
        }
    }
}

/// Scores one coalesced same-model batch and distributes per-job replies.
fn execute_group(
    mut jobs: Vec<Job>,
    shared: &Shared,
    runtime: &Runtime,
    precision: EnginePrecision,
) {
    let started = Instant::now();
    let snapshot: Arc<ModelSnapshot> = Arc::clone(&jobs[0].snapshot);
    let generation = jobs[0].generation;
    let clf = &snapshot.classifier;
    let dims = clf.input_dim();

    let batch_rows: usize = jobs.iter().map(|job| job.n).sum();
    let mut data = Vec::with_capacity(batch_rows * dims);
    let mut row_params = Vec::with_capacity(batch_rows);
    for job in &mut jobs {
        let wait_ns = elapsed_ns(job.enqueued);
        metrics::SERVE_QUEUE_WAIT_NS.record_always(wait_ns);
        job.trace.add(ServePhase::QueueWait, wait_ns);
        data.extend_from_slice(&job.data);
        row_params.extend(std::iter::repeat_n((job.strategy, job.tau), job.n));
    }
    // Batch-level phase wall times: every job in the group shares the
    // pass, so each trace gets the whole coalesce/engine duration.
    let coalesce_ns = elapsed_ns(started);
    let x = Matrix::from_vec(batch_rows, dims, data);
    // Precision is a property of the registry (weights were cast/packed at
    // admit or swap time under F32), so every batch against a snapshot
    // scores at the precision that snapshot was prepared for.
    let engine_started = Instant::now();
    let pairs = clf.verdicts_rt_with_prec(&x, runtime, precision, |r| row_params[r]);
    let engine_ns = elapsed_ns(engine_started);

    // Stats land before replies go out, so a caller that observes its
    // result (and anything joining on it) also observes the counters.
    shared
        .max_fill
        .fetch_max(batch_rows as u64, Ordering::AcqRel);
    metrics::SERVE_BATCHES.inc_always();
    metrics::SERVE_ROWS.add_always(batch_rows as u64);
    metrics::SERVE_BATCH_FILL.record_always(batch_rows as u64);

    let mut offset = 0;
    for job in jobs {
        let scored: Vec<ScoredRow> = pairs[offset..offset + job.n]
            .iter()
            .map(|&(score, class)| ScoredRow {
                score,
                class,
                strategy: job.strategy,
                threshold: job.tau,
                generation,
            })
            .collect();
        offset += job.n;
        for row in &scored {
            sketch::SERVE_SCORES.record(row.score);
            sketch::TENANT_SCORES.record(job.tenant, row.score);
        }
        let mut trace = job.trace;
        trace.add(ServePhase::Coalesce, coalesce_ns);
        trace.add(ServePhase::Engine, engine_ns);
        finish_job(shared, &job, Ok((scored, trace)));
    }
    metrics::SERVE_BATCH_SERVICE_NS.record_always(elapsed_ns(started));
}

/// Sends a job's reply and releases its queue-depth claim.
fn finish_job(
    shared: &Shared,
    job: &Job,
    result: Result<(Vec<ScoredRow>, RequestTrace), ServeError>,
) {
    let depth = shared.depth.fetch_sub(job.n, Ordering::AcqRel) - job.n;
    metrics::SERVE_QUEUE_DEPTH.set_always(depth as u64);
    // A caller that gave up (dropped its receiver) is not an error.
    let _ = job.reply.send(result);
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
