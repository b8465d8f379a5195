//! **targad-serve** — the online scoring service.
//!
//! Turns the batch-oriented TargAD harness into the long-running system the
//! paper's SQB deployment sketch implies: a daemon that scores instances as
//! they arrive and answers with the *decision* (§III-C three-way verdict),
//! not just the Eq. 9 scalar. Three pieces:
//!
//! - [`ModelRegistry`] ([`registry`]): a multi-tenant store of fitted
//!   models behind generation-counted `Arc` handles, fronted by a
//!   byte-budgeted LRU — a pinned default tenant keeps the original
//!   atomic hot-swap contract (in-flight batches finish on the snapshot
//!   they started with), while named tenants are admitted under a
//!   resident-byte budget and faulted in from a directory of binary v3
//!   snapshots (`targad-store`) on first use.
//! - [`MicroBatcher`] ([`batcher`]): a bounded queue plus a worker that
//!   coalesces concurrent score requests into fused
//!   `ScoreEngine` passes: it drains whatever is queued (up to
//!   `max_batch` rows) and executes at once, never lingering, so the
//!   backlog under load amortizes the batched-inference advantage across
//!   independent callers. Tenants
//!   resolve to their model at submit time, so an LRU eviction never
//!   tears an in-flight batch. Queue depth,
//!   batch fill, and wait times feed the `targad-obs` registry.
//! - [`Server`] ([`server`]): a dependency-free HTTP/1.1 front end (the
//!   repo builds offline — no async runtime) exposing `/score`,
//!   `/admin/swap`, `/admin/load`, `/admin/evict`, `/admin/tenants`,
//!   `/model`, `/healthz`, `/metrics` (Prometheus text, with per-tenant
//!   series), and `/metrics.json`.
//!
//! The serve path is fully observable: every request gets a process-unique
//! id and a [`targad_obs::RequestTrace`] whose `queue_wait → coalesce →
//! engine → serialize` phase timings ride the job through the batcher;
//! per-tenant counters, latency/batch-size histograms, and score-
//! distribution sketches ([`targad_obs::sketch`]) are recorded ungated as
//! serving truth; and an opt-in JSONL access log
//! ([`ServeConfig::access_log`]) captures one structured line per request.
//! [`profile`] distills the telemetry into a replayable workload profile.
//!
//! Every `/score` response row carries a full [`targad_core::Verdict`]:
//! score, three-way class, the per-request-selected
//! [`targad_core::OodStrategy`], and the calibrated threshold the decision
//! used — thresholds are cached on the model snapshot at swap time
//! ([`ModelSnapshot`]), so the request path does zero calibration work.

pub mod batcher;
pub mod config;
pub mod http;
pub mod json;
pub mod profile;
pub mod registry;
pub mod server;

pub use batcher::{BatcherStats, MicroBatcher, ScoredRow, SubmitOutcome};
pub use config::{ServeConfig, ServeConfigBuilder, ServeError};
pub use json::Json;
pub use profile::WorkloadProfile;
pub use registry::{valid_tenant_name, ModelRegistry, ModelSnapshot, TenantInfo, DEFAULT_TENANT};
pub use server::{Client, Server, ServerHandle};
pub use targad_core::EnginePrecision;
