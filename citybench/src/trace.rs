//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. Parents are passed explicitly, so spans opened on
//! worker threads attach to the op that fanned them out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id to parent its own children.
    pub fn span<R>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record_between(
        &self,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.record(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list lock is never held across a panic")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock is never held across a panic")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-layer self time, in ms, summed over the subtree under `root`
/// (the root's own self time included under its name).
pub fn layer_self_ms(spans: &[Span], root: u64) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let mut in_tree = std::collections::BTreeSet::from([root]);
    // Spans are sorted by start, and a child never starts before its
    // parent, so one pass collects the whole subtree.
    for s in spans {
        if s.parent.is_some_and(|p| in_tree.contains(&p)) {
            in_tree.insert(s.id);
        }
    }
    let mut by_name = BTreeMap::new();
    for s in spans.iter().filter(|s| in_tree.contains(&s.id)) {
        *by_name.entry(s.name.clone()).or_insert(0.0) += selfs[&s.id] as f64 / 1e6;
    }
    by_name
}

/// Share of `root`'s duration covered by its child spans, given every
/// span's self time from [`self_times`].
pub fn coverage(root: &Span, selfs: &BTreeMap<u64, u64>) -> f64 {
    1.0 - selfs[&root.id] as f64 / root.dur_ns().max(1) as f64
}

/// Prints one workload's per-layer self-time table to stderr.
pub fn print_table(title: &str, layers: &BTreeMap<String, f64>, op_ms: f64, overhead_ms: f64) {
    eprintln!("== {title}: per-layer self time, op {op_ms:.3} ms");
    let mut rows: Vec<_> = layers.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, ms) in rows {
        eprintln!(
            "   {name:<28} {ms:>12.3} ms {:>7.1}%",
            100.0 * ms / op_ms.max(1e-12)
        );
    }
    eprintln!("   {:<28} {overhead_ms:>12.3} ms", "tracing overhead");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100); child [10,60) holds a grandchild [20,30).
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(2), 20, 30),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 40);
        assert_eq!(st[&3], 10);
        let layers = layer_self_ms(&spans, 1);
        assert_eq!(layers.values().sum::<f64>() * 1e6, 100.0);
    }

    #[test]
    fn self_time_handles_adjacent_and_overlapping_children() {
        // Adjacent [0,40) [40,70); overlapping parallel children [60,90)
        // and [65,95) clipped at the parent's end (90).
        let spans = vec![
            span(1, None, 0, 90),
            span(2, Some(1), 0, 40),
            span(3, Some(1), 40, 70),
            span(4, Some(1), 60, 90),
            span(5, Some(1), 65, 95),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 0);
        assert_eq!(coverage(&spans[0], &st), 1.0);
        // A gap between adjacent children stays the parent's.
        let gap = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 40),
            span(3, Some(1), 50, 100),
        ];
        let st = self_times(&gap);
        assert_eq!(st[&1], 10);
        assert!((coverage(&gap[0], &st) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn layer_self_ms_stays_inside_the_subtree() {
        let spans = vec![
            span(1, None, 0, 10),
            span(2, Some(1), 0, 5),
            span(3, None, 20, 30),
            span(4, Some(3), 20, 25),
        ];
        let layers = layer_self_ms(&spans, 1);
        assert_eq!(layers.keys().cloned().collect::<Vec<_>>(), ["s1", "s2"]);
    }
}
