//! Workload-profile recorder: distill serve telemetry into a replayable
//! traffic description.
//!
//! A [`WorkloadProfile`] is everything a load generator needs to
//! approximate the traffic a server actually saw — captured from the
//! ungated `serve.*` metrics and per-tenant families in `targad-obs`, not
//! from any extra bookkeeping on the request path:
//!
//! - the **rows-per-request** distribution (`serve.request_rows`),
//! - the **inter-arrival gap** distribution (`serve.arrival_gap_ns`),
//! - the realized **batch-fill** distribution (`serve.batch_fill`,
//!   recorded for fidelity checks — a replay reproduces offered load, and
//!   the batcher re-derives fills),
//! - the **tenant mix** (per-tenant request counts), and
//! - the **row dimensionality** the model was scoring.
//!
//! Profiles serialize to a small JSON document checked in under
//! `results/profiles/`; `bench_serve` captures one from its live phase and
//! replays it (ROADMAP item 2: profile-driven workload generation).
//! Sampling uses inverse-CDF over the power-of-4 histogram buckets with
//! each bucket's low edge as the representative value, so a replay never
//! offers *more* rows than the live run did at the same request count.

use std::path::Path;

use targad_obs::metrics::{self, HISTOGRAM_BUCKETS};
use targad_obs::{labeled, LabelId};

use crate::config::ServeError;
use crate::json::Json;

/// One captured power-of-4 histogram: bucket `i` counted values in
/// `[4^i, 4^(i+1))` (bucket 0 additionally holds zero; the last bucket is
/// open-ended).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistProfile {
    /// Per-bucket observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistProfile {
    fn capture(h: &metrics::Histogram) -> Self {
        Self {
            buckets: h.buckets(),
            count: h.count(),
            max: h.max(),
        }
    }

    /// Low edge of bucket `i`, clamped to at least 1 (the sampling
    /// representative).
    fn bucket_low(i: usize) -> u64 {
        if i == 0 {
            1
        } else {
            1u64 << (2 * i)
        }
    }

    /// Inverse-CDF sample for a uniform `u` in `[0, 1)`: walks the bucket
    /// counts and returns the selected bucket's representative value.
    /// Returns `fallback` when the histogram is empty.
    pub fn sample(&self, u: f64, fallback: u64) -> u64 {
        if self.count == 0 {
            return fallback;
        }
        let target = (u.clamp(0.0, 1.0) * self.count as f64) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if target < seen {
                return Self::bucket_low(i).min(self.max.max(1));
            }
        }
        Self::bucket_low(HISTOGRAM_BUCKETS - 1).min(self.max.max(1))
    }

    fn to_json(&self) -> String {
        let buckets: Vec<String> = self.buckets.iter().map(u64::to_string).collect();
        format!(
            "{{\"buckets\": [{}], \"count\": {}, \"max\": {}}}",
            buckets.join(", "),
            self.count,
            self.max
        )
    }

    fn parse(doc: &Json, what: &str) -> Result<Self, ServeError> {
        let bad = |msg: String| ServeError::BadRequest(msg);
        let arr = doc
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad(format!("profile: {what}.buckets missing")))?;
        if arr.len() != HISTOGRAM_BUCKETS {
            return Err(bad(format!(
                "profile: {what}.buckets has {} entries, expected {HISTOGRAM_BUCKETS}",
                arr.len()
            )));
        }
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, v) in arr.iter().enumerate() {
            buckets[i] = v
                .as_f64()
                .ok_or_else(|| bad(format!("profile: {what}.buckets[{i}] not a number")))?
                as u64;
        }
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| bad(format!("profile: {what}.{name} missing")))
        };
        Ok(Self {
            buckets,
            count: field("count")?,
            max: field("max")?,
        })
    }
}

/// A tenant's share of the captured traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantShare {
    /// Tenant name (`_other` aggregates past-cap tenants).
    pub tenant: String,
    /// Requests this tenant submitted during the capture window.
    pub requests: u64,
}

/// A captured serve workload: enough to regenerate statistically similar
/// traffic (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadProfile {
    /// Profile name (`serve_default` for the bench's standard capture).
    pub name: String,
    /// Columns per row the captured traffic carried.
    pub dims: usize,
    /// Total requests in the capture window.
    pub requests: u64,
    /// Total rows in the capture window.
    pub rows: u64,
    /// Per-tenant request counts, descending.
    pub tenants: Vec<TenantShare>,
    /// Rows-per-request distribution.
    pub request_rows: HistProfile,
    /// Inter-arrival gap distribution (nanoseconds).
    pub arrival_gap_ns: HistProfile,
    /// Realized batch-fill distribution (for fidelity comparison).
    pub batch_fill: HistProfile,
}

impl WorkloadProfile {
    /// Captures the current process-wide serve telemetry as a profile.
    /// Call it at the end of a serving window; pair with
    /// [`targad_obs::metrics::reset_all`] beforehand to scope the window.
    pub fn capture(name: impl Into<String>, dims: usize) -> Self {
        let mut tenants: Vec<TenantShare> = labeled::tenants()
            .iter()
            .map(|(id, tenant)| TenantShare {
                tenant: tenant.to_string(),
                requests: labeled::TENANT_REQUESTS.get(id),
            })
            .filter(|t| t.requests > 0)
            .collect();
        let overflow = labeled::TENANT_REQUESTS.get(LabelId::OVERFLOW);
        if overflow > 0 {
            tenants.push(TenantShare {
                tenant: "_other".into(),
                requests: overflow,
            });
        }
        tenants.sort_by(|a, b| b.requests.cmp(&a.requests).then(a.tenant.cmp(&b.tenant)));
        Self {
            name: name.into(),
            dims,
            requests: metrics::SERVE_REQUESTS.get(),
            rows: metrics::SERVE_ROWS.get(),
            tenants,
            request_rows: HistProfile::capture(&metrics::SERVE_REQUEST_ROWS),
            arrival_gap_ns: HistProfile::capture(&metrics::SERVE_ARRIVAL_GAP_NS),
            batch_fill: HistProfile::capture(&metrics::SERVE_BATCH_FILL),
        }
    }

    /// Mean rows per request over the capture window (1.0 when empty).
    pub fn mean_rows_per_request(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.rows as f64 / self.requests as f64
        }
    }

    /// Samples a rows-per-request value for a uniform `u` in `[0, 1)`.
    pub fn sample_request_rows(&self, u: f64) -> u64 {
        self.request_rows.sample(u, 1).max(1)
    }

    /// Samples a tenant name for a uniform `u` in `[0, 1)` proportionally
    /// to the captured mix (`None` = no named tenants captured: use the
    /// default).
    pub fn sample_tenant(&self, u: f64) -> Option<&str> {
        let total: u64 = self.tenants.iter().map(|t| t.requests).sum();
        if total == 0 {
            return None;
        }
        let target = (u.clamp(0.0, 1.0) * total as f64) as u64;
        let mut seen = 0u64;
        for t in &self.tenants {
            seen += t.requests;
            if target < seen {
                return Some(&t.tenant);
            }
        }
        self.tenants.last().map(|t| t.tenant.as_str())
    }

    /// Serializes the profile as pretty-stable JSON (the checked-in
    /// `results/profiles/*.json` format).
    pub fn to_json(&self) -> String {
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{{\"tenant\": \"{}\", \"requests\": {}}}",
                    targad_obs::json::escape(&t.tenant),
                    t.requests
                )
            })
            .collect();
        format!(
            "{{\n  \"name\": \"{}\",\n  \"dims\": {},\n  \"requests\": {},\n  \"rows\": {},\n  \
             \"mean_rows_per_request\": {:.3},\n  \"tenants\": [{}],\n  \
             \"request_rows\": {},\n  \"arrival_gap_ns\": {},\n  \"batch_fill\": {}\n}}\n",
            targad_obs::json::escape(&self.name),
            self.dims,
            self.requests,
            self.rows,
            self.mean_rows_per_request(),
            tenants.join(", "),
            self.request_rows.to_json(),
            self.arrival_gap_ns.to_json(),
            self.batch_fill.to_json()
        )
    }

    /// Parses a profile from its JSON serialization.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] describing the first malformed field.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        let doc = Json::parse(text).map_err(ServeError::BadRequest)?;
        let bad = |msg: &str| ServeError::BadRequest(format!("profile: {msg}"));
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("name missing"))?
            .to_string();
        let num = |field: &'static str| {
            doc.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| ServeError::BadRequest(format!("profile: {field} missing")))
        };
        let tenants = doc
            .get("tenants")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("tenants missing"))?
            .iter()
            .map(|t| {
                let tenant = t
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("tenant name missing"))?
                    .to_string();
                let requests =
                    t.get("requests")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad("tenant requests missing"))? as u64;
                Ok(TenantShare { tenant, requests })
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        Ok(Self {
            name,
            dims: num("dims")? as usize,
            requests: num("requests")? as u64,
            rows: num("rows")? as u64,
            tenants,
            request_rows: HistProfile::parse(
                doc.get("request_rows")
                    .ok_or_else(|| bad("request_rows missing"))?,
                "request_rows",
            )?,
            arrival_gap_ns: HistProfile::parse(
                doc.get("arrival_gap_ns")
                    .ok_or_else(|| bad("arrival_gap_ns missing"))?,
                "arrival_gap_ns",
            )?,
            batch_fill: HistProfile::parse(
                doc.get("batch_fill")
                    .ok_or_else(|| bad("batch_fill missing"))?,
                "batch_fill",
            )?,
        })
    }

    /// Writes the profile to `path` (creating parent directories).
    ///
    /// # Errors
    /// [`ServeError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())?;
        Ok(())
    }

    /// Loads a profile from `path`.
    ///
    /// # Errors
    /// [`ServeError::Io`] on read failures, [`ServeError::BadRequest`] on
    /// malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ServeError> {
        Self::parse(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> WorkloadProfile {
        let mut request_rows = HistProfile::default();
        request_rows.buckets[0] = 90; // 1-3 rows
        request_rows.buckets[1] = 10; // 4-15 rows
        request_rows.count = 100;
        request_rows.max = 8;
        let mut arrival_gap_ns = HistProfile::default();
        arrival_gap_ns.buckets[9] = 100; // ~262us-1ms gaps
        arrival_gap_ns.count = 100;
        arrival_gap_ns.max = 900_000;
        WorkloadProfile {
            name: "test".into(),
            dims: 16,
            requests: 100,
            rows: 170,
            tenants: vec![
                TenantShare {
                    tenant: "default".into(),
                    requests: 75,
                },
                TenantShare {
                    tenant: "acme".into(),
                    requests: 25,
                },
            ],
            request_rows,
            arrival_gap_ns,
            batch_fill: HistProfile::default(),
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let p = synthetic();
        let parsed = WorkloadProfile::parse(&p.to_json()).expect("parse");
        assert_eq!(parsed, p);
    }

    #[test]
    fn sampling_follows_the_captured_distribution() {
        let p = synthetic();
        // 90% of the mass is in bucket 0 (representative 1), 10% in
        // bucket 1 (representative 4, clamped to max 8 -> 4).
        let n = 10_000;
        let small = (0..n)
            .map(|i| p.sample_request_rows(i as f64 / n as f64))
            .filter(|&r| r == 1)
            .count();
        assert!(
            (small as f64 / n as f64 - 0.9).abs() < 0.02,
            "bucket-0 share {small}/{n}"
        );
        // Tenant mix: 75/25.
        let default_share = (0..n)
            .map(|i| p.sample_tenant(i as f64 / n as f64))
            .filter(|t| *t == Some("default"))
            .count();
        assert!(
            (default_share as f64 / n as f64 - 0.75).abs() < 0.02,
            "default share {default_share}/{n}"
        );
        // Empty histogram falls back.
        assert_eq!(p.batch_fill.sample(0.5, 7), 7);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(WorkloadProfile::parse("{}").is_err());
        assert!(WorkloadProfile::parse("not json").is_err());
        let truncated = synthetic().to_json().replace("\"rows\": 170,", "");
        assert!(WorkloadProfile::parse(&truncated).is_err());
    }

    #[test]
    fn save_load_round_trips_via_disk() {
        let p = synthetic();
        let dir = std::env::temp_dir().join(format!("targad-profile-{}", std::process::id()));
        let path = dir.join("nested/test.json");
        p.save(&path).expect("save");
        let loaded = WorkloadProfile::load(&path).expect("load");
        assert_eq!(loaded, p);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
