//! `targad-perfbench`: one command that runs a seeded TargAD workload
//! through the public APIs of `targad-data`, `targad-core`, `targad-serve`
//! and `targad-store`, checks the outputs, and prints every metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload daily_sqb --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Run it from the repository root: it reads the metric lists from
//! `BENCHMARK.json` there and refuses to run without them. The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from a traced run) with `--trace 1`. Every line before it is
//! for people: the host and protocol, every workload metric by name and
//! unit, the correctness gates, and (traced) the span profile.
//! `perfbench/README.md` documents the workloads and the metric map.

mod churn;
mod common;
mod daily;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use targad_serve::Json;

use crate::trace::Tracer;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: targad-perfbench --workload <daily_sqb|tenant_churn> \
                     --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut opts: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
        opts.insert(name.to_string(), value);
    }
    let take = |name: &str| {
        opts.get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be in [1, 600]".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let args = Args {
        workload: take("workload")?,
        seed: take("seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_string())?,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    };
    if let Some(unknown) = opts
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{unknown}"));
    }
    Ok(args)
}

/// One correctness gate's outcome.
struct Gate {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// Everything a workload measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (fits, passes, requests, admin loads, …).
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a wrong answer.
    pub failed: u64,
    gates: Vec<Gate>,
    /// Workload metrics by their own names, printed for people.
    shown: Vec<(String, f64, &'static str, String)>,
    /// Host and protocol facts, printed as one JSON line.
    protocol: Vec<(&'static str, String)>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a correctness gate; a failed gate fails the run.
    pub fn gate(&mut self, name: &'static str, ok: bool, detail: String) {
        self.gates.push(Gate { name, ok, detail });
    }

    /// A workload metric printed by name and unit, with how it was taken.
    pub fn show(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.shown
            .push((name.to_string(), value, unit, note.into()));
    }

    /// One host/protocol fact.
    pub fn protocol(&mut self, key: &'static str, value: impl ToString) {
        self.protocol.push((key, value.to_string()));
    }

    /// An end-to-end metric (untraced run).
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    /// A per-layer metric (traced run).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// A metric declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
}

/// The `end_to_end` and `per_layer` lists of `BENCHMARK.json`, the single
/// source of truth for what a run emits.
fn declared_metrics() -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("a `{key}` entry has no `{f}`"))
                };
                Ok(Declared {
                    name: field("name")?,
                    unit: field("unit")?,
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// Resident-set high-water mark of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Formats a metric value with every digit (shortest round-trip form).
fn num(v: f64) -> String {
    format!("{v:?}")
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (end_to_end, per_layer) = match declared_metrics() {
        Ok(lists) => lists,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "daily_sqb" => daily::run,
        "tenant_churn" => churn::run,
        other => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Gated counters (GEMM dispatch, tape pool, worker pool) only count
    // while telemetry is on, so the traced run turns it on and the
    // untraced run pins it off whatever TARGAD_OBS says.
    targad_obs::set_enabled(args.trace);
    let mut tracer = Tracer::new(args.trace, origin);
    let mut report = Report::default();
    common::host_protocol(&mut report, &args);
    run(&args, &mut tracer, &mut report);
    let wall_end = Instant::now();

    // A workload that runs checks after its measurement reads the
    // high-water mark itself first.
    report.e2e.entry("peak_rss_mb").or_insert_with(peak_rss_mb);
    if args.trace {
        report.layer(
            "trace.unattributed_share",
            tracer.unattributed_share(wall_end),
        );
    }
    report.protocol("wall_s", num((wall_end - origin).as_secs_f64()));

    let protocol: Vec<String> = report
        .protocol
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", targad_serve::json::escape(v)))
        .collect();
    println!("protocol {{{}}}", protocol.join(", "));
    for (name, value, unit, note) in &report.shown {
        println!("metric {name:<28} {:>16} {unit:<8} {note}", num(*value));
    }
    if report.attempted > 0 {
        println!(
            "metric {:<28} {:>16} {:<8} {} failed of {} attempted",
            "failed_share",
            num(report.failed as f64 / report.attempted as f64),
            "ratio",
            report.failed,
            report.attempted
        );
    }
    if args.trace {
        for (name, (calls, total, own)) in tracer.profile() {
            println!(
                "span   {name:<28} calls {calls:>7} total_s {:>12.6} self_s {:>12.6}",
                total as f64 * 1e-9,
                own as f64 * 1e-9
            );
        }
    }

    // Emit exactly the declared metrics of this mode.
    let (declared, emitted) = if args.trace {
        (&per_layer, std::mem::take(&mut report.layers))
    } else {
        (&end_to_end, std::mem::take(&mut report.e2e))
    };
    let mut metrics = Vec::new();
    for d in declared {
        let value = match emitted.get(d.name.as_str()) {
            Some(&v) => v,
            // A layer this workload bypasses did no work: it reads 0.
            None if args.trace => 0.0,
            None => {
                report.gate(
                    "metric_emitted",
                    false,
                    format!("`{}` not measured", d.name),
                );
                continue;
            }
        };
        let finite_positive = value.is_finite() && (args.trace || value > 0.0);
        if !finite_positive {
            report.gate("metric_valid", false, format!("`{}` = {value}", d.name));
            continue;
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            num(value),
            d.unit
        ));
    }
    for name in emitted.keys() {
        if !declared.iter().any(|d| d.name == *name) {
            report.gate(
                "metric_declared",
                false,
                format!("`{name}` is not in BENCHMARK.json"),
            );
        }
    }

    let mut correct = true;
    for g in &report.gates {
        println!(
            "gate   {:<28} {} {}",
            g.name,
            if g.ok { "ok  " } else { "FAIL" },
            g.detail
        );
        correct &= g.ok;
    }
    correct &= report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
