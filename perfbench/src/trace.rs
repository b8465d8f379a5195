//! The benchmark's own spans: recorded around each call into a layer's
//! public function, kept in memory, and summarized when the run ends.
//!
//! Nothing here reaches into the crates under test. With tracing off a
//! [`Tracer`] reads no clock and stores nothing, so the untraced run pays
//! only for an `if`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span in the same
/// [`Tracer`]; top-level spans have none.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder anchored at the run's start instant.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording between top-level spans (the traced run
    /// interleaves untraced rounds to measure tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Nanoseconds since the run's origin.
    pub fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as span `name`, nested under whatever span is open.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns_at(Instant::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns_at(Instant::now());
        out
    }

    /// Records an already-measured interval as a child of the open span
    /// (events observed after the fact, or spans gathered on client
    /// threads).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                parent: self.open.last().copied(),
                start_ns: self.ns_at(start),
                end_ns: self.ns_at(end),
            };
            self.spans.push(span);
        }
    }

    /// Appends spans gathered elsewhere (e.g. a client thread's buffer) as
    /// children of the open span.
    pub fn absorb(&mut self, spans: &[(&'static str, Instant, Instant)]) {
        for &(name, start, end) in spans {
            self.record(name, start, end);
        }
    }

    /// Share of `[0, wall_end)` not covered by any top-level span.
    pub fn unattributed_share(&self, wall_end: Instant) -> f64 {
        let wall = self.ns_at(wall_end).max(1);
        let mut top: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns.min(wall)))
            .collect();
        top.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (start, end) in top {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        1.0 - covered as f64 / wall as f64
    }

    /// Per span name: call count, total time and self time (total minus
    /// the part covered by direct children), in name order.
    pub fn profile(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns().saturating_sub(child_ns[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.time("x", |_| 3), 3);
        assert!(t.profile().is_empty());
    }

    #[test]
    fn coverage_counts_overlaps_once() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let at = |ms| origin + Duration::from_millis(ms);
        t.record("a", at(0), at(40));
        t.record("b", at(20), at(60));
        t.record("c", at(80), at(100));
        let share = t.unattributed_share(at(100));
        assert!((share - 0.2).abs() < 1e-9, "{share}");
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.time("outer", |t| {
            t.time("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let p = t.profile();
        assert!(p["outer"].2 < p["outer"].1);
        assert_eq!(p["inner"].0, 1);
    }
}
