//! Sample statistics: medians, supported tail percentiles, and the
//! power-of-4 histograms `targad-obs` exports.

use targad_serve::Json;

/// Tail percentiles considered, highest first. The benchmark reports the
/// highest one that leaves at least [`TAIL_BEYOND`] samples above it, and
/// never above p99, so a metric named for a tail keeps its meaning as the
/// sample count grows.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: f64 = 10.0;

/// The nearest-rank `q`-quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// A latency (or any timing) sample reduced to median plus the highest
/// supported tail percentile.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile used (e.g. 0.99).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail_q = TAIL_LADDER
            .into_iter()
            .find(|q| (1.0 - q) * n as f64 >= TAIL_BEYOND - 1e-9)
            .unwrap_or(0.5);
        Some(Summary {
            n,
            p50: quantile_sorted(&v, 0.5),
            tail_q,
            tail: quantile_sorted(&v, tail_q),
        })
    }

    /// `p99`-style label of the tail percentile.
    pub fn tail_label(&self) -> String {
        format!("p{}", (self.tail_q * 100.0).round())
    }
}

/// Quantile taken across windows by [`windowed`]: the median. Bursts of
/// interference on a shared host that stall a minority of windows do not
/// move it; a slowdown, the program's own or the host's, that hits most
/// windows does.
const ACROSS_WINDOWS_Q: f64 = 0.5;

/// Which statistic [`windowed`] takes inside each window.
#[derive(Clone, Copy)]
pub enum Within {
    P50,
    Tail,
}

/// A timed series cut into `windows` equal spans of `span_s` seconds (by
/// each sample's time `at_s`, the first tuple field). Takes the median or
/// the supported tail inside each window, then the median of those values
/// across windows. Returns the value and a label such as
/// `p99 (median of 9 windows)`.
pub fn windowed(
    samples: &[(f64, f64)],
    span_s: f64,
    windows: usize,
    within: Within,
) -> (f64, String) {
    let windows = windows.max(1);
    let mut cut = vec![Vec::new(); windows];
    for &(at_s, v) in samples {
        let w = (at_s / span_s * windows as f64).max(0.0) as usize;
        cut[w.min(windows - 1)].push(v);
    }
    let stats: Vec<Summary> = cut.iter().filter_map(|w| Summary::of(w)).collect();
    let mut values: Vec<f64> = stats
        .iter()
        .map(|t| match within {
            Within::P50 => t.p50,
            Within::Tail => t.tail,
        })
        .collect();
    if values.is_empty() {
        return (f64::NAN, String::new());
    }
    values.sort_by(f64::total_cmp);
    let label = match within {
        Within::P50 => "p50".to_string(),
        Within::Tail => stats[0].tail_label(),
    };
    (
        quantile_sorted(&values, ACROSS_WINDOWS_Q),
        format!("{label} (median of {} windows)", values.len()),
    )
}

/// One `targad-obs` histogram read out of a metrics snapshot: 16
/// power-of-4 buckets (`[4^i, 4^(i+1))`, the first starting at 0, the last
/// unbounded) plus count, sum and max.
#[derive(Clone, Debug, Default)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: Vec<u64>,
}

impl Hist {
    fn from_json(v: &Json) -> Hist {
        let num = |key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Hist {
            count: num("count"),
            sum: num("sum"),
            max: num("max"),
            buckets: v
                .get("buckets")
                .and_then(Json::as_arr)
                .map(|b| b.iter().map(|x| x.as_f64().unwrap_or(0.0) as u64).collect())
                .unwrap_or_default(),
        }
    }

    /// Samples recorded since `before` was taken (`max` stays the
    /// all-time maximum: a high-water mark has no delta).
    pub fn since(&self, before: &Hist) -> Hist {
        Hist {
            count: self.count.saturating_sub(before.count),
            sum: self.sum.saturating_sub(before.sum),
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, b)| b.saturating_sub(before.buckets.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile, interpolated geometrically inside its power-of-4
    /// bucket and capped at the recorded maximum. Resolution is therefore
    /// coarse (a bucket spans 4x); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut below = 0.0;
        for (i, &b) in self.buckets.iter().enumerate() {
            let b = b as f64;
            if b > 0.0 && below + b >= rank {
                let lo = if i == 0 { 1.0 } else { 4f64.powi(i as i32) };
                let hi = (lo * 4.0).min((self.max as f64).max(lo));
                let frac = ((rank - below) / b).clamp(0.0, 1.0);
                return lo * (hi / lo).powf(frac);
            }
            below += b;
        }
        self.max as f64
    }
}

/// A parsed `targad_obs::metrics::snapshot_json` (or `GET /metrics.json`)
/// document.
pub struct MetricsSnapshot(Json);

impl MetricsSnapshot {
    /// The in-process registry, through `targad_obs::metrics::snapshot_json`.
    pub fn take() -> MetricsSnapshot {
        MetricsSnapshot::parse(&targad_obs::metrics::snapshot_json())
            .expect("targad-obs renders valid JSON")
    }

    /// Parses a snapshot document.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        Json::parse(text).map(MetricsSnapshot)
    }

    /// A counter or gauge (0 when absent).
    pub fn value(&self, name: &str) -> u64 {
        self.0.get(name).and_then(Json::as_f64).unwrap_or(0.0) as u64
    }

    /// A histogram (empty when absent).
    pub fn hist(&self, name: &str) -> Hist {
        self.0.get(name).map(Hist::from_json).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.tail_q, 0.99);
        let s = Summary::of(&values[..100]).unwrap();
        assert_eq!(s.tail_q, 0.90);
        assert_eq!(s.p50, 51.0);
    }

    #[test]
    fn windowed_drops_a_minority_of_stalled_windows_only() {
        // Five windows of 100 samples; `stalled` of them are slow.
        let run = |stalled: usize| {
            let samples: Vec<(f64, f64)> = (0..500)
                .map(|i| {
                    let slow = i / 100 < stalled;
                    (
                        i as f64 / 100.0,
                        if slow { 50.0 } else { 1.0 + (i % 7) as f64 },
                    )
                })
                .collect();
            windowed(&samples, 5.0, 5, Within::P50)
        };
        let (p50, label) = run(2);
        assert_eq!(p50, 4.0);
        assert_eq!(label, "p50 (median of 5 windows)");
        assert_eq!(run(3).0, 50.0);
        let samples: Vec<(f64, f64)> = (0..500)
            .map(|i| (i as f64 / 100.0, 1.0 + (i % 7) as f64))
            .collect();
        assert_eq!(windowed(&samples, 5.0, 5, Within::Tail).0, 7.0);
    }

    #[test]
    fn histogram_quantile_stays_in_bucket() {
        let mut buckets = vec![0; 16];
        buckets[5] = 10; // [1024, 4096)
        let h = Hist {
            count: 10,
            sum: 20_000,
            max: 3_000,
            buckets,
        };
        let q = h.quantile(0.5);
        assert!((1024.0..=3000.0).contains(&q), "{q}");
        assert_eq!(h.mean(), 2000.0);
    }
}
