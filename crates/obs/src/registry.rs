//! The metric registry and its deterministic snapshot/JSON export.

use crate::metrics::{Counter, Gauge, Histogram, Span, Stability};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One registered metric.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    handle: Handle,
    stability: Stability,
}

#[derive(Debug, Default)]
struct Inner {
    /// Keyed by full metric name (labels rendered into the key), so
    /// iteration — and therefore snapshot and JSON order — is
    /// lexicographic regardless of registration order.
    metrics: Mutex<BTreeMap<String, Entry>>,
}

/// A thread-safe metric registry. `Clone` is a cheap handle to the same
/// underlying state, letting instrumented components share one registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

/// One bucket of a histogram snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSnapshot {
    /// Inclusive upper bound; `None` is the overflow (`+inf`) bucket.
    pub le: Option<f64>,
    /// Observations that fell in this bucket (non-cumulative).
    pub count: u64,
}

/// The value part of one metric snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram totals and buckets.
    Histogram {
        /// Total observations.
        count: u64,
        /// Fixed-point sum of observed values.
        sum: f64,
        /// Per-bucket counts, overflow last.
        buckets: Vec<BucketSnapshot>,
    },
}

/// One metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Full metric name, labels included.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// Stability class.
    pub stability: Stability,
    /// The value.
    pub value: SnapshotValue,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders `name{k="v",…}` with labels sorted by key — the canonical
    /// identity of a labeled metric.
    pub fn key(name: &str, labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return name.to_string();
        }
        let mut sorted = labels.to_vec();
        sorted.sort();
        let mut out = String::with_capacity(name.len() + 16 * sorted.len());
        out.push_str(name);
        out.push('{');
        for (i, (k, v)) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
        out
    }

    fn register(&self, key: &str, stability: Stability, make: impl FnOnce() -> Handle) -> Handle {
        let mut metrics = self.inner.metrics.lock().expect("obs registry poisoned");
        let entry = metrics.entry(key.to_string()).or_insert_with(|| Entry {
            handle: make(),
            stability,
        });
        entry.handle.clone()
    }

    /// Gets or creates a stable counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, Stability::Stable, || {
            Handle::Counter(Counter::default())
        }) {
            Handle::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Labeled variant of [`Registry::counter`].
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&Self::key(name, labels))
    }

    /// Gets or creates a stable gauge. One logical writer per name keeps
    /// it deterministic.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_stability(name, Stability::Stable)
    }

    /// Labeled variant of [`Registry::gauge`].
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauge(&Self::key(name, labels))
    }

    /// Gets or creates a wall-clock gauge, excluded from stable snapshots.
    pub fn timing_gauge(&self, name: &str) -> Gauge {
        self.gauge_stability(name, Stability::Timing)
    }

    fn gauge_stability(&self, name: &str, stability: Stability) -> Gauge {
        match self.register(name, stability, || Handle::Gauge(Gauge::default())) {
            Handle::Gauge(g) => g,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Gets or creates a stable histogram with the given bucket bounds.
    /// The bounds of the first registration win.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_stability(name, bounds, Stability::Stable)
    }

    /// Gets or creates a wall-clock histogram (e.g. write latencies),
    /// excluded from stable snapshots.
    pub fn timing_histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_stability(name, bounds, Stability::Timing)
    }

    fn histogram_stability(&self, name: &str, bounds: &[f64], stability: Stability) -> Histogram {
        match self.register(name, stability, || {
            Handle::Histogram(Histogram::new(bounds))
        }) {
            Handle::Histogram(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Starts a monotonic span; elapsed seconds land in the timing gauge
    /// `name` when the returned [`Span`] drops.
    pub fn timer(&self, name: &str) -> Span {
        Span::new(self.timing_gauge(name))
    }

    /// Snapshots every metric (optionally excluding the timing class), in
    /// lexicographic name order.
    pub fn snapshot(&self, include_timing: bool) -> Vec<MetricSnapshot> {
        let metrics = self.inner.metrics.lock().expect("obs registry poisoned");
        metrics
            .iter()
            .filter(|(_, e)| include_timing || e.stability == Stability::Stable)
            .map(|(name, e)| MetricSnapshot {
                name: name.clone(),
                kind: e.handle.kind(),
                stability: e.stability,
                value: match &e.handle {
                    Handle::Counter(c) => SnapshotValue::Counter(c.get()),
                    Handle::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Handle::Histogram(h) => SnapshotValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: (0..=h.bounds().len())
                            .map(|i| BucketSnapshot {
                                le: h.bounds().get(i).copied(),
                                count: h.bucket_count(i),
                            })
                            .collect(),
                    },
                },
            })
            .collect()
    }

    /// Full JSON export, timings included — the `cityod --metrics` format.
    pub fn to_json(&self, include_timing: bool) -> String {
        snapshot_to_json(&self.snapshot(include_timing), include_timing)
    }

    /// Byte-stable JSON export: stable metrics only, deterministic order
    /// and formatting. Two runs of the same computation — at any thread
    /// count — produce identical bytes.
    pub fn to_json_stable(&self) -> String {
        self.to_json(false)
    }
}

/// Serialises a snapshot as a small, self-describing JSON document; one
/// metric per line so golden-file diffs are readable.
fn snapshot_to_json(metrics: &[MetricSnapshot], include_timing: bool) -> String {
    let mut out = String::with_capacity(64 + metrics.len() * 80);
    out.push_str("{\n  \"format_version\": 1,\n  \"stable_only\": ");
    out.push_str(if include_timing { "false" } else { "true" });
    out.push_str(",\n  \"metrics\": [");
    for (i, m) in metrics.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        write_json_string(&mut out, &m.name);
        out.push_str(", \"kind\": \"");
        out.push_str(m.kind);
        out.push_str("\", \"timing\": ");
        out.push_str(match m.stability {
            Stability::Timing => "true",
            Stability::Stable => "false",
        });
        match &m.value {
            SnapshotValue::Counter(v) => {
                out.push_str(", \"value\": ");
                out.push_str(&v.to_string());
            }
            SnapshotValue::Gauge(v) => {
                out.push_str(", \"value\": ");
                write_json_f64(&mut out, *v);
            }
            SnapshotValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                out.push_str(", \"count\": ");
                out.push_str(&count.to_string());
                out.push_str(", \"sum\": ");
                write_json_f64(&mut out, *sum);
                out.push_str(", \"buckets\": [");
                for (bi, b) in buckets.iter().enumerate() {
                    if bi > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("{\"le\": ");
                    match b.le {
                        Some(bound) => write_json_f64(&mut out, bound),
                        None => out.push_str("\"+inf\""),
                    }
                    out.push_str(", \"count\": ");
                    out.push_str(&b.count.to_string());
                    out.push('}');
                }
                out.push(']');
            }
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes an f64 as a JSON number: Rust's shortest round-trip `Display`
/// (deterministic for identical bits); non-finite values become `null`.
fn write_json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = v.to_string();
    out.push_str(&s);
    // `Display` prints integral floats without a fraction ("3"); keep the
    // token unambiguously a float so readers round-trip the type.
    if !s.contains('.') && !s.contains('e') {
        out.push_str(".0");
    }
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_sorts_labels() {
        assert_eq!(Registry::key("m", &[]), "m");
        assert_eq!(
            Registry::key("m", &[("z", "1"), ("a", "2")]),
            "m{a=\"2\",z=\"1\"}"
        );
    }

    #[test]
    fn handles_share_state_across_lookups() {
        let r = Registry::new();
        r.counter("c").inc();
        r.counter("c").inc();
        assert_eq!(r.counter("c").get(), 2);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m").inc();
        r.gauge("m");
    }

    #[test]
    fn snapshot_is_sorted_regardless_of_registration_order() {
        let r = Registry::new();
        r.counter("zzz").inc();
        r.gauge("aaa").set(1.0);
        r.counter("mmm").inc();
        let names: Vec<String> = r.snapshot(true).into_iter().map(|m| m.name).collect();
        assert_eq!(names, ["aaa", "mmm", "zzz"]);
    }

    #[test]
    fn stable_snapshot_excludes_timings() {
        let r = Registry::new();
        r.counter("events_total").inc();
        r.timing_gauge("elapsed_seconds").set(1.23);
        {
            let _s = r.timer("span_seconds");
        }
        let stable = r.snapshot(false);
        assert_eq!(stable.len(), 1);
        assert_eq!(stable[0].name, "events_total");
        assert_eq!(r.snapshot(true).len(), 3);
    }

    #[test]
    fn json_is_reproducible_and_escapes() {
        let r = Registry::new();
        r.counter_with("c", &[("m", "a\"b")]).add(2);
        r.gauge("g").set(1.5);
        r.histogram("h", &[1.0, 2.0]).observe(1.5);
        let a = r.to_json_stable();
        let b = r.to_json_stable();
        assert_eq!(a, b);
        assert!(a.contains("\\\""), "label quote must be escaped: {a}");
        assert!(a.contains("\"value\": 1.5"));
        assert!(a.contains("\"le\": 2.0"));
        assert!(a.contains("{\"le\": \"+inf\", \"count\": 0}"));
    }

    #[test]
    fn json_floats_always_carry_a_fraction() {
        let mut s = String::new();
        write_json_f64(&mut s, 3.0);
        assert_eq!(s, "3.0");
        let mut s = String::new();
        write_json_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
        let mut s = String::new();
        write_json_f64(&mut s, 0.25);
        assert_eq!(s, "0.25");
    }

    #[test]
    fn concurrent_writers_sum_deterministically() {
        let r = Registry::new();
        let c = r.counter("par_total");
        let h = r.histogram("par_hist", &[10.0, 100.0]);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe((t * 1000 + i) as f64 * 0.001);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        // Fixed-point accumulation: every observation rounds to an exact
        // micro-unit integer, so the total is order-independent.
        assert_eq!(h.sum(), 7998.0);
    }
}
