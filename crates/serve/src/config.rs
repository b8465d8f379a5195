//! Server configuration and error type.

use std::fmt;
use std::path::PathBuf;

use targad_core::{EnginePrecision, OodStrategy, TargAdError};

/// Configuration of one [`crate::Server`] instance.
///
/// Built via [`ServeConfig::builder`], the idiomatic twin of
/// [`targad_core::TargAdConfig::builder`]: setters accept anything, and
/// [`ServeConfigBuilder::build`] validates every constraint into a typed
/// [`ServeError::InvalidConfig`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Interface to bind (default `127.0.0.1`).
    pub host: String,
    /// TCP port to bind; `0` asks the OS for an ephemeral port (the
    /// default — tests and benches read the bound port off the handle).
    pub port: u32,
    /// Maximum rows coalesced into one micro-batch (default 64). The
    /// batcher never lingers for traffic: it executes as soon as it has
    /// drained the requests already queued, up to this many rows, so the
    /// bound only bites under a backlog.
    pub max_batch: usize,
    /// Maximum rows queued ahead of the batcher before new requests are
    /// rejected with backpressure (default 1024).
    pub queue_depth: usize,
    /// OOD strategy used when a request does not select one
    /// (default [`OodStrategy::Msp`]).
    pub default_strategy: OodStrategy,
    /// Numeric precision of the scoring path (default
    /// [`EnginePrecision::F64`]). `F32` scores through the SIMD
    /// micro-kernels of `targad-linalg` — roughly twice the throughput —
    /// while training, calibration, and the `/admin/swap` load path stay
    /// in f64; the registry casts weights once per installed snapshot.
    pub precision: EnginePrecision,
    /// Shared secret for `/admin/*` routes, presented by clients in an
    /// `x-admin-token` header. When `None` (the default), admin routes only
    /// answer loopback peers; set a token to administer a server bound to a
    /// non-loopback interface.
    pub admin_token: Option<String>,
    /// Byte budget for resident models across all tenants, enforced by the
    /// registry's LRU: admitting a tenant model evicts least-recently-used
    /// tenants until resident bytes fit. `0` (the default) disables the
    /// budget. The pinned default model always counts against — and must
    /// fit — a non-zero budget.
    pub model_budget_bytes: u64,
    /// Directory of binary v3 snapshots (`<tenant>.tgsnp`, written by
    /// `targad-store`) from which unknown tenants named on `/score` are
    /// faulted in on first use. `None` (the default) disables fault-in:
    /// tenants then exist only via `/admin/load`.
    pub store_dir: Option<PathBuf>,
    /// Structured JSONL access log: one line per `/score` request (request
    /// id, tenant, rows, verdict counts, per-phase nanoseconds, status),
    /// appended to this path. `None` (the default) disables access
    /// logging.
    pub access_log: Option<PathBuf>,
    /// When `true`, `GET /metrics` and `GET /metrics.json` only answer
    /// loopback peers (the same fallback rule `/admin/*` uses without a
    /// token). Default `false`: the exposition endpoints are
    /// unauthenticated read-only and a scraper usually is not local.
    pub metrics_loopback_only: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            host: "127.0.0.1".into(),
            port: 0,
            max_batch: 64,
            queue_depth: 1024,
            default_strategy: OodStrategy::Msp,
            precision: EnginePrecision::F64,
            admin_token: None,
            model_budget_bytes: 0,
            store_dir: None,
            access_log: None,
            metrics_loopback_only: false,
        }
    }
}

impl ServeConfig {
    /// A builder pre-filled with the defaults.
    ///
    /// ```
    /// use targad_serve::ServeConfig;
    /// let config = ServeConfig::builder().max_batch(32).build().unwrap();
    /// assert_eq!(config.max_batch, 32);
    /// assert!(ServeConfig::builder().max_batch(0).build().is_err());
    /// ```
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: Self::default(),
        }
    }

    /// Validates internal consistency, returning the first violated
    /// constraint as a typed [`ServeError::InvalidConfig`].
    pub fn try_validate(&self) -> Result<(), ServeError> {
        fn bad(field: &'static str, reason: String) -> Result<(), ServeError> {
            Err(ServeError::InvalidConfig { field, reason })
        }
        if self.host.is_empty() {
            return bad("host", "must not be empty".into());
        }
        if self.port > u32::from(u16::MAX) {
            return bad(
                "port",
                format!("must be at most {}, got {}", u16::MAX, self.port),
            );
        }
        if self.max_batch == 0 {
            return bad("max_batch", "must be positive".into());
        }
        if self.queue_depth < self.max_batch {
            return bad(
                "queue_depth",
                format!(
                    "must be at least max_batch ({}), got {}",
                    self.max_batch, self.queue_depth
                ),
            );
        }
        if self.admin_token.as_deref() == Some("") {
            return bad("admin_token", "must not be empty when set".into());
        }
        if self.store_dir.as_deref() == Some(std::path::Path::new("")) {
            return bad("store_dir", "must not be empty when set".into());
        }
        if self.access_log.as_deref() == Some(std::path::Path::new("")) {
            return bad("access_log", "must not be empty when set".into());
        }
        Ok(())
    }
}

/// Validating builder for [`ServeConfig`], started via
/// [`ServeConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),+ $(,)?) => {$(
        $(#[$doc])*
        pub fn $field(mut self, value: $ty) -> Self {
            self.config.$field = value;
            self
        }
    )+};
}

impl ServeConfigBuilder {
    builder_setters! {
        /// Interface to bind.
        host: String,
        /// TCP port to bind (`0` = ephemeral).
        port: u32,
        /// Maximum rows coalesced into one micro-batch.
        max_batch: usize,
        /// Maximum queued rows before backpressure rejection.
        queue_depth: usize,
        /// OOD strategy when a request does not select one.
        default_strategy: OodStrategy,
        /// Numeric precision of the scoring path (f64 oracle or f32 SIMD).
        precision: EnginePrecision,
        /// Shared secret for `/admin/*` routes (`None` = loopback only).
        admin_token: Option<String>,
        /// Resident-model byte budget across tenants (`0` = unlimited).
        model_budget_bytes: u64,
        /// Directory of `<tenant>.tgsnp` v3 snapshots for tenant fault-in.
        store_dir: Option<PathBuf>,
        /// JSONL access-log path (`None` = no access log).
        access_log: Option<PathBuf>,
        /// Restrict the `/metrics` endpoints to loopback peers.
        metrics_loopback_only: bool,
    }

    /// Starts from an existing configuration instead of the defaults.
    pub fn from_config(config: ServeConfig) -> Self {
        Self { config }
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// [`ServeError::InvalidConfig`] naming the first field that violates
    /// its constraint.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        self.config.try_validate()?;
        Ok(self.config)
    }
}

/// Failures surfaced by the serve layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A configuration field failed validation (see
    /// [`ServeConfig::try_validate`]).
    InvalidConfig {
        /// The offending field, e.g. `"max_batch"`.
        field: &'static str,
        /// Human-readable constraint violation.
        reason: String,
    },
    /// The bounded request queue is at capacity (backpressure): the caller
    /// should retry later. Maps to HTTP 503.
    Overloaded,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// A malformed request (bad JSON, wrong shapes, unknown strategy).
    /// Maps to HTTP 400.
    BadRequest(String),
    /// An admin route hit without valid credentials: the `x-admin-token`
    /// header did not match the configured token, or no token is
    /// configured and the peer is not loopback. Maps to HTTP 403.
    Unauthorized,
    /// A model-layer error (dimension mismatch, uncalibrated strategy, …).
    Model(TargAdError),
    /// The named tenant is neither resident nor present in the snapshot
    /// directory. Maps to HTTP 404.
    UnknownTenant(String),
    /// Admitting a model would exceed the resident-byte budget even after
    /// evicting every unpinned tenant. Maps to HTTP 507.
    BudgetExceeded {
        /// Bytes the rejected model needs resident.
        needed: u64,
        /// The configured budget.
        budget: u64,
    },
    /// An I/O failure, by message (kept `Eq`-comparable).
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig { field, reason } => {
                write!(f, "invalid serve configuration: `{field}` {reason}")
            }
            ServeError::Overloaded => write!(f, "request queue full; retry later"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Unauthorized => {
                write!(f, "admin routes require a valid x-admin-token")
            }
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::UnknownTenant(name) => {
                write!(f, "unknown tenant `{name}`")
            }
            ServeError::BudgetExceeded { needed, budget } => write!(
                f,
                "model needs {needed} resident bytes but the budget is {budget}"
            ),
            ServeError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TargAdError> for ServeError {
    fn from(e: TargAdError) -> Self {
        ServeError::Model(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        ServeConfig::default().try_validate().unwrap();
        let c = ServeConfig::builder().build().unwrap();
        assert_eq!(c.max_batch, 64);
        assert_eq!(c.queue_depth, 1024);
        assert_eq!(c.default_strategy, OodStrategy::Msp);
        assert_eq!(c.precision, EnginePrecision::F64);
    }

    #[test]
    fn builder_sets_fields() {
        let c = ServeConfig::builder()
            .port(8080)
            .max_batch(16)
            .queue_depth(64)
            .default_strategy(OodStrategy::EnergyScore)
            .precision(EnginePrecision::F32)
            .build()
            .unwrap();
        assert_eq!(c.port, 8080);
        assert_eq!(c.max_batch, 16);
        assert_eq!(c.queue_depth, 64);
        assert_eq!(c.default_strategy, OodStrategy::EnergyScore);
        assert_eq!(c.precision, EnginePrecision::F32);
    }

    #[test]
    fn builder_surfaces_each_constraint_as_a_typed_error() {
        let field_of = |r: Result<ServeConfig, ServeError>| match r {
            Err(ServeError::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        assert_eq!(
            field_of(ServeConfig::builder().host(String::new()).build()),
            "host"
        );
        assert_eq!(
            field_of(ServeConfig::builder().port(70_000).build()),
            "port"
        );
        assert_eq!(
            field_of(ServeConfig::builder().max_batch(0).build()),
            "max_batch"
        );
        assert_eq!(
            field_of(ServeConfig::builder().queue_depth(1).build()),
            "queue_depth"
        );
        assert_eq!(
            field_of(
                ServeConfig::builder()
                    .admin_token(Some(String::new()))
                    .build()
            ),
            "admin_token"
        );
        assert_eq!(
            field_of(
                ServeConfig::builder()
                    .access_log(Some(PathBuf::new()))
                    .build()
            ),
            "access_log"
        );
    }

    #[test]
    fn errors_display_their_context() {
        let e = ServeError::InvalidConfig {
            field: "max_batch",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("max_batch"));
        assert!(ServeError::Overloaded.to_string().contains("queue"));
        assert!(ServeError::BadRequest("no rows".into())
            .to_string()
            .contains("no rows"));
        let m: ServeError = TargAdError::NotFitted.into();
        assert!(m.to_string().contains("fit"));
    }
}
