//! Structured telemetry for the TargAD stack: metrics, events, profiling.
//!
//! Three layers, all read-only with respect to training state so enabling
//! them never changes a loss or a fitted weight:
//!
//! 1. **Metrics** ([`metrics`]) — a fixed registry of lock-free atomic
//!    counters, gauges, and fixed-bucket histograms covering the hot paths
//!    of the whole workspace (`gemm.kernel_dispatches`, `pool.jobs`,
//!    `tape.pool_hits`, `shards.reduced`, …). Increments are a relaxed
//!    atomic load plus (when enabled) a relaxed add: allocation-free
//!    always, and compiled to true no-ops without the `telemetry` feature.
//! 2. **Training events** ([`events`]) — the [`TrainObserver`] trait and
//!    its typed per-epoch events: loss decomposition `L_CE`/`L_OE`/`L_RE`
//!    vs. total, OE-weight drift summaries (Eqs. 4–5), candidate churn,
//!    gradient-clip activations, reconstruction-error quantiles per
//!    cluster autoencoder. Observers receive borrowed views; what they
//!    copy is up to them.
//! 3. **Phase profiling** ([`profile`]) — scoped span timers aggregated
//!    into a deterministic dot-path phase tree (`fit.select.ae`,
//!    `step.backward`, …), with a human-readable renderer and JSON export.
//! 4. **Serve observability** ([`labeled`], [`sketch`], [`trace`],
//!    [`prom`]) — per-tenant labeled metric families and score
//!    distribution sketches (ungated serving truth), request-scoped
//!    trace spans (gated, bit-identical when off), and Prometheus text
//!    exposition over the whole registry.
//!
//! [`sink::JsonlSink`] serializes the event stream to JSON Lines;
//! [`hub`] is a process-global sink used by the baseline epoch loops.
//!
//! # Enabling telemetry
//!
//! The runtime gate defaults to **off**; flip it with [`set_enabled`] or
//! the `TARGAD_OBS` environment variable (any non-empty value other than
//! `0`). With the gate off the per-call cost is one relaxed atomic load;
//! the counting-allocator tests in `crates/bench/tests/` prove that the
//! instrumented training paths still perform zero steady-state heap
//! allocations with the gate off *and* on.
//!
//! [`TrainObserver`]: events::TrainObserver

pub mod events;
pub mod json;
pub mod labeled;
pub mod metrics;
pub mod profile;
pub mod prom;
pub mod sink;
pub mod sketch;
pub mod trace;

pub use events::{
    AeEpochEvent, CandidateComposition, ClusterReconStats, EpochEvent, EpochRecord, FitEndEvent,
    FitStartEvent, LossDecomposition, NullObserver, Recorder, SelectionEvent, Tee, TrainObserver,
    WarningEvent, WeightMeans, WeightSummary,
};
pub use labeled::{LabelId, LabelSet, MAX_LABELS};
pub use profile::span;
pub use sink::hub;
pub use sketch::{ScoreSketch, SketchSnapshot};
pub use trace::{RequestTrace, ServePhase, TraceSpan};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Environment variable consulted on first use: telemetry starts enabled
/// when set to a non-empty value other than `0`.
pub const OBS_ENV: &str = "TARGAD_OBS";

/// 0 = not yet initialized, 1 = disabled, 2 = enabled.
static GATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is currently enabled.
///
/// This is the single hot-path gate: a relaxed atomic load. The first call
/// initializes the gate from [`OBS_ENV`]. Without the `telemetry` feature
/// this is a compile-time `false`.
#[inline]
pub fn enabled() -> bool {
    #[cfg(not(feature = "telemetry"))]
    {
        false
    }
    #[cfg(feature = "telemetry")]
    {
        match GATE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => init_gate_from_env(),
        }
    }
}

#[cfg(feature = "telemetry")]
#[cold]
fn init_gate_from_env() -> bool {
    let on = std::env::var(OBS_ENV).is_ok_and(|v| !v.is_empty() && v != "0");
    set_enabled(on);
    on
}

/// Turns telemetry collection on or off at runtime (overrides [`OBS_ENV`]).
pub fn set_enabled(on: bool) {
    GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// A recorded warning (see [`warn`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Warning {
    /// Stable machine-readable code, e.g. `runtime.threads_invalid`.
    pub code: &'static str,
    /// Human-readable context.
    pub message: String,
}

/// Warnings are rare by construction (misconfiguration paths only), so a
/// small bound keeps the buffer from growing without dropping anything in
/// practice.
const MAX_WARNINGS: usize = 64;

static WARNINGS: Mutex<Vec<Warning>> = Mutex::new(Vec::new());

/// Records a warning event: increments `obs.warnings`, buffers the warning
/// for [`take_warnings`], and prints it to stderr. Unlike metrics this is
/// **not** gated on [`enabled`] — warnings flag misconfiguration and must
/// surface even with telemetry off.
pub fn warn(code: &'static str, message: impl Into<String>) {
    let message = message.into();
    metrics::OBS_WARNINGS.force_inc();
    eprintln!("targad-obs warning [{code}]: {message}");
    let mut buf = WARNINGS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if buf.len() < MAX_WARNINGS {
        buf.push(Warning { code, message });
    }
}

/// Drains and returns all buffered warnings.
pub fn take_warnings() -> Vec<Warning> {
    std::mem::take(
        &mut WARNINGS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

/// Serializes tests that toggle the process-global gate or registries.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "telemetry")]
    fn gate_toggles() {
        let _g = test_guard();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn warnings_buffer_and_drain() {
        warn("test.code", "something odd");
        let drained = take_warnings();
        assert!(drained.iter().any(|w| w.code == "test.code"));
        // Second drain of the same warning is empty (modulo other tests).
        assert!(take_warnings().iter().all(|w| w.code != "test.code"));
    }
}
