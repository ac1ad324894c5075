//! Rule M — metrics contract.
//!
//! Every `obs` registration site is cross-checked against the naming and
//! stability conventions the metrics-golden CI job relies on:
//!
//! * counters must end in `_total` (kind `counter-name`);
//! * timing instruments (`timer`, `timing_histogram`) must
//!   end in `_seconds`; `timing_gauge` may also end in `_per_sec` for
//!   rate gauges (kind `timing-name`);
//! * literal label slices passed to `*_with` must already be in sorted
//!   key order — `Registry::key` sorts at runtime, but sorted source is
//!   what keeps the golden files reviewable (kind `label-order`);
//! * Stable-class registrations (`counter*`, `gauge*`, `histogram*`)
//!   must not be fed from wall-clock sources in the same statement —
//!   Timing values vary run-to-run and would break byte-stable snapshots
//!   (kind `stable-from-timing`).
//!
//! Metric names are resolved from string literals, `format!("…")` bodies
//! (the suffix check sees through `{placeholders}`), same-crate `const
//! NAME: &str` items via the workspace index, and `Registry::key(…)` /
//! `Self::key(…)` wrappers. Unresolvable first arguments are skipped —
//! the pass never guesses.

use super::{Finding, Rule};
use crate::lexer::{tok, TokKind, Token};
use crate::source::SourceFile;
use crate::symbols::WorkspaceIndex;

/// Registration methods and their contract class.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Counter,
    Timing,
    /// Gauges/histograms: stable-class, but no name-suffix contract.
    OtherStable,
}

fn classify_method(name: &str) -> Option<(Class, bool)> {
    // (class, takes_labels)
    match name {
        "counter" => Some((Class::Counter, false)),
        "counter_with" => Some((Class::Counter, true)),
        "gauge" | "histogram" => Some((Class::OtherStable, false)),
        "gauge_with" => Some((Class::OtherStable, true)),
        "timer" | "timing_gauge" | "timing_histogram" => Some((Class::Timing, false)),
        _ => None,
    }
}

/// Identifiers that mark a wall-clock (Timing) data source.
const TIMING_SOURCES: [&str; 7] = [
    "Instant",
    "SystemTime",
    "elapsed",
    "as_secs_f64",
    "as_millis",
    "as_micros",
    "as_nanos",
];

/// Runs the metrics-contract pass over one library file.
pub fn metrics_pass(file: &SourceFile, idx: &WorkspaceIndex) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.masked(i) {
            continue;
        }
        let t = tok(toks, i);
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some((class, takes_labels)) = classify_method(&t.text) else {
            continue;
        };
        // Must be a method call: `.counter(…)` — skips the definitions in
        // the obs registry itself (`fn counter(` has `fn` before it).
        let is_method = i.checked_sub(1).is_some_and(|p| tok(toks, p).is_punct('.'));
        if !is_method || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let method: String = t.text.clone();
        let line = t.line;
        if let Some(name) = resolve_name(file, idx, toks, i + 2) {
            check_name(file, &method, class, &name, line, &mut out);
        }
        if takes_labels {
            check_labels(file, toks, i + 2, line, &mut out);
        }
        if class != Class::Timing {
            check_stable_source(file, toks, i, line, &mut out);
        }
    }
    out
}

/// Suffix contract per class.
fn check_name(
    file: &SourceFile,
    method: &str,
    class: Class,
    name: &str,
    line: u32,
    out: &mut Vec<Finding>,
) {
    match class {
        Class::Counter if !name.ends_with("_total") => out.push(Finding::new(
            file,
            Rule::Metrics,
            "counter-name",
            line,
            format!(
                "counter `{name}` must end in `_total` (obs naming contract; the \
                 metrics-golden job keys on it)"
            ),
        )),
        Class::Timing => {
            let ok = name.ends_with("_seconds")
                || (method == "timing_gauge" && name.ends_with("_per_sec"));
            if !ok {
                out.push(Finding::new(
                    file,
                    Rule::Metrics,
                    "timing-name",
                    line,
                    format!(
                        "timing metric `{name}` must end in `_seconds` (or `_per_sec` \
                         for a `timing_gauge` rate): unit-suffixed names keep dashboards \
                         self-describing"
                    ),
                ));
            }
        }
        _ => {}
    }
}

/// Resolves the metric name starting at the token index of the first
/// argument. Returns `None` when the name is not statically known.
fn resolve_name(
    file: &SourceFile,
    idx: &WorkspaceIndex,
    toks: &[Token],
    mut j: usize,
) -> Option<String> {
    // Strip leading `&`s (`&format!`, `&Registry::key(…)`).
    while toks.get(j).is_some_and(|t| t.is_punct('&')) {
        j += 1;
    }
    let t = toks.get(j)?;
    if t.kind == TokKind::Str {
        return t.str_content().map(str::to_string);
    }
    if t.kind != TokKind::Ident {
        return None;
    }
    // `format!("…", …)`
    if t.is_ident("format") && toks.get(j + 1).is_some_and(|n| n.is_punct('!')) {
        let lit = toks.get(j + 3)?;
        return lit.str_content().map(str::to_string);
    }
    // `Registry::key(inner, …)` / `Self::key(…)` / `obs::Registry::key(…)`
    // — recurse into the inner name argument.
    let mut k = j;
    while toks.get(k)?.kind == TokKind::Ident
        && toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
        && toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
    {
        k += 3;
    }
    let last = toks.get(k)?;
    if last.is_ident("key") && toks.get(k + 1).is_some_and(|n| n.is_punct('(')) && k > j {
        return resolve_name(file, idx, toks, k + 2);
    }
    // A bare or path-qualified constant: resolve the final segment in the
    // same crate's string-const index.
    if last.kind == TokKind::Ident
        && toks
            .get(k + 1)
            .is_some_and(|n| n.is_punct(',') || n.is_punct(')'))
    {
        return idx
            .const_value(&file.crate_name, &last.text)
            .map(str::to_string);
    }
    None
}

/// Checks a literal `&[("k", v), …]` second argument for sorted,
/// duplicate-free label keys. Non-literal label args are skipped.
fn check_labels(
    file: &SourceFile,
    toks: &[Token],
    args_start: usize,
    line: u32,
    out: &mut Vec<Finding>,
) {
    // Find the comma ending the first argument (depth-aware).
    let mut depth = 0i32;
    let mut j = args_start;
    loop {
        let Some(t) = toks.get(j) else { return };
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                return; // single-argument call
            }
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            j += 1;
            break;
        }
        j += 1;
    }
    while toks.get(j).is_some_and(|t| t.is_punct('&')) {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('[')) {
        return;
    }
    // Collect the first string literal inside each `( … )` tuple.
    let mut keys: Vec<String> = Vec::new();
    let mut d = 0i32;
    let mut in_tuple = false;
    j += 1;
    while let Some(t) = toks.get(j) {
        if t.is_punct('(') {
            d += 1;
            in_tuple = d == 1;
        } else if t.is_punct(')') {
            d -= 1;
        } else if t.is_punct(']') && d == 0 {
            break;
        } else if in_tuple && t.kind == TokKind::Str {
            if let Some(k) = t.str_content() {
                keys.push(k.to_string());
            }
            in_tuple = false;
        }
        j += 1;
    }
    for w in keys.windows(2) {
        let (a, b) = (
            w.first().cloned().unwrap_or_default(),
            w.get(1).cloned().unwrap_or_default(),
        );
        if a >= b {
            out.push(Finding::new(
                file,
                Rule::Metrics,
                "label-order",
                line,
                format!(
                    "label keys must be sorted and unique in source (`\"{}\"` before \
                     `\"{}\"`): `Registry::key` sorts at runtime, but sorted literals \
                     keep golden snapshots diffable",
                    b, a
                ),
            ));
            break;
        }
    }
}

/// Flags a Stable-class registration whose statement touches a timing
/// source (`Instant`, `elapsed`, `as_secs_f64`, …).
fn check_stable_source(
    file: &SourceFile,
    toks: &[Token],
    method_ix: usize,
    line: u32,
    out: &mut Vec<Finding>,
) {
    let end = statement_end(toks, method_ix);
    for t in toks.get(method_ix..end).unwrap_or(&[]) {
        if t.kind == TokKind::Ident && TIMING_SOURCES.contains(&t.text.as_str()) {
            out.push(Finding::new(
                file,
                Rule::Metrics,
                "stable-from-timing",
                line,
                format!(
                    "Stable-class metric fed from wall-clock source `{}`: timing values \
                     vary run-to-run and break byte-stable snapshots — use a `timing_*` \
                     instrument instead",
                    t.text
                ),
            ));
            return;
        }
    }
}

/// Token index just past the `;` ending the statement containing
/// `method_ix` (bracket-aware, bounded by an unmatched `}`).
fn statement_end(toks: &[Token], method_ix: usize) -> usize {
    let mut depth = 0i32;
    let mut j = method_ix;
    while j < toks.len() {
        let t = tok(toks, j);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return j + 1;
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};
    use crate::symbols::WorkspaceIndex;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::new("f.rs", "simulator", FileKind::Lib, src);
        let files = vec![f];
        let idx = WorkspaceIndex::build(&files);
        metrics_pass(&files[0], &idx)
    }

    #[test]
    fn bad_counter_suffix_is_flagged() {
        let f = run("fn f(reg: &obs::Registry) { reg.counter(\"sim_runs\").inc(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "counter-name");
    }

    #[test]
    fn good_counter_is_clean() {
        assert!(
            run("fn f(reg: &obs::Registry) { reg.counter(\"sim_runs_total\").inc(); }").is_empty()
        );
    }

    #[test]
    fn const_names_resolve_across_the_crate() {
        let src = "\
pub const RUNS: &str = \"sim_runs\";
fn f(reg: &obs::Registry) { reg.counter(RUNS).inc(); }
";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("sim_runs"));
    }

    #[test]
    fn format_suffix_sees_through_placeholders() {
        assert!(run(
            "fn f(reg: &obs::Registry, tag: &str) { reg.counter(&format!(\"t_{tag}_total\")).inc(); }"
        )
        .is_empty());
        let f = run(
            "fn f(reg: &obs::Registry, tag: &str) { reg.counter(&format!(\"t_{tag}_count\")).inc(); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "counter-name");
    }

    #[test]
    fn registry_key_wrapper_resolves_inner_name() {
        let f = run(
            "fn f(reg: &obs::Registry) { reg.histogram(&obs::Registry::key(\"h\", &[(\"a\", \"1\")])).observe(1.0); }",
        );
        // histogram has no suffix contract; the inner name resolves but is fine.
        assert!(f.is_empty());
        let f = run(
            "fn f(reg: &obs::Registry) { reg.counter(&obs::Registry::key(\"h\", &[(\"a\", \"1\")])).inc(); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "counter-name");
    }

    #[test]
    fn timing_names_require_seconds() {
        let f = run("fn f(reg: &obs::Registry) { reg.timing_histogram(\"lat_ms\"); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "timing-name");
        assert!(
            run("fn f(reg: &obs::Registry) { reg.timing_histogram(\"lat_seconds\"); }").is_empty()
        );
        // `_per_sec` is allowed for rate gauges only.
        assert!(
            run("fn f(reg: &obs::Registry) { reg.timing_gauge(\"steps_per_sec\"); }").is_empty()
        );
        let f = run("fn f(reg: &obs::Registry) { reg.timer(\"steps_per_sec\"); }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn unsorted_labels_are_flagged() {
        let f = run(
            "fn f(reg: &obs::Registry) { reg.counter_with(\"x_total\", &[(\"b\", \"1\"), (\"a\", \"2\")]).inc(); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "label-order");
        assert!(run(
            "fn f(reg: &obs::Registry) { reg.counter_with(\"x_total\", &[(\"a\", \"1\"), (\"b\", \"2\")]).inc(); }"
        )
        .is_empty());
    }

    #[test]
    fn duplicate_labels_are_flagged() {
        let f = run(
            "fn f(reg: &obs::Registry) { reg.counter_with(\"x_total\", &[(\"a\", \"1\"), (\"a\", \"2\")]).inc(); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "label-order");
    }

    #[test]
    fn stable_metric_fed_from_elapsed_is_flagged() {
        let f = run(
            "fn f(reg: &obs::Registry, t: std::time::Instant) { reg.gauge(\"x\").set(t.elapsed().as_secs_f64()); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "stable-from-timing");
    }

    #[test]
    fn timing_metric_fed_from_elapsed_is_fine() {
        assert!(run(
            "fn f(reg: &obs::Registry, t: std::time::Instant) { reg.timing_gauge(\"x_seconds\").set(t.elapsed().as_secs_f64()); }"
        )
        .is_empty());
    }

    #[test]
    fn unresolvable_names_are_skipped() {
        assert!(
            run("fn f(reg: &obs::Registry, name: &str) { reg.counter(name).inc(); }").is_empty()
        );
    }

    #[test]
    fn test_code_is_exempt() {
        assert!(run(
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { obs::global().counter(\"x\").inc(); }\n}"
        )
        .is_empty());
    }
}
