//! Check results: hard errors, budgeted debt, and rendering (human and
//! JSON — the JSON encoder is hand-rolled to keep the crate
//! zero-dependency).

use crate::baseline::{Baseline, KINDS};
use crate::rules::{Finding, Rule};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One over-budget `(crate, kind)` bucket.
#[derive(Debug, Clone)]
pub struct BudgetViolation {
    /// Crate whose debt grew.
    pub crate_name: String,
    /// Panic-kind bucket (`unwrap`, `expect`, `panic`, `indexing`).
    pub kind: String,
    /// Observed count.
    pub count: u64,
    /// Budgeted count from `baseline.toml`.
    pub budget: u64,
}

/// Outcome of one `check` run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed D/S/U findings — always errors.
    pub errors: Vec<Finding>,
    /// All unsuppressed P findings (the debt inventory).
    pub debt: Vec<Finding>,
    /// Observed P counts per `(crate, kind)`.
    pub counts: BTreeMap<(String, String), u64>,
    /// Buckets whose count exceeds the baseline budget.
    pub over_budget: Vec<BudgetViolation>,
    /// Buckets whose count dropped below budget (ratchet can tighten).
    pub slack: Vec<BudgetViolation>,
}

impl Report {
    /// Builds the report from raw findings and the baseline.
    pub fn build(findings: Vec<Finding>, baseline: &Baseline) -> Self {
        let mut r = Report::default();
        for f in findings {
            if f.rule == Rule::Panic {
                *r.counts
                    .entry((f.crate_name.clone(), f.kind.to_string()))
                    .or_insert(0) += 1;
                r.debt.push(f);
            } else {
                r.errors.push(f);
            }
        }
        // Compare counts to budgets over the union of crates seen in
        // either place, so a stale baseline entry still surfaces slack.
        let mut crates: Vec<String> = r.counts.keys().map(|(c, _)| c.clone()).collect();
        crates.extend(baseline.budgets.keys().cloned());
        crates.sort();
        crates.dedup();
        for crate_name in crates {
            for kind in KINDS {
                let count = r
                    .counts
                    .get(&(crate_name.clone(), kind.to_string()))
                    .copied()
                    .unwrap_or(0);
                let budget = baseline.budget(&crate_name, kind);
                let v = BudgetViolation {
                    crate_name: crate_name.clone(),
                    kind: kind.to_string(),
                    count,
                    budget,
                };
                if count > budget {
                    r.over_budget.push(v);
                } else if count < budget {
                    r.slack.push(v);
                }
            }
        }
        r
    }

    /// True when the check passes.
    pub fn ok(&self) -> bool {
        self.errors.is_empty() && self.over_budget.is_empty()
    }

    /// Process exit code for the CLI.
    pub fn exit_code(&self) -> i32 {
        if self.ok() {
            0
        } else {
            1
        }
    }

    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in &self.errors {
            let _ = writeln!(
                s,
                "error[{}/{}]: {}:{}: {}\n    {}",
                f.rule.code(),
                f.kind,
                f.file,
                f.line,
                f.message,
                f.snippet
            );
        }
        for v in &self.over_budget {
            let _ = writeln!(
                s,
                "error[P/ratchet]: crate `{}` has {} `{}` finding(s), budget is {} — \
                 new panic-debt is not allowed (see baseline.toml)",
                v.crate_name, v.count, v.kind, v.budget
            );
            for f in self
                .debt
                .iter()
                .filter(|f| f.crate_name == v.crate_name && f.kind == v.kind)
            {
                let _ = writeln!(s, "    {}:{}: {}", f.file, f.line, f.snippet);
            }
        }
        for v in &self.slack {
            let _ = writeln!(
                s,
                "note: crate `{}` `{}` debt is {} but budget is {} — run with \
                 --update-baseline to ratchet down",
                v.crate_name, v.kind, v.count, v.budget
            );
        }
        let debt_total: u64 = self.counts.values().sum();
        let _ = writeln!(
            s,
            "cityod-lint: {} error(s), {} over-budget bucket(s), {} budgeted debt finding(s)",
            self.errors.len(),
            self.over_budget.len(),
            debt_total
        );
        let _ = writeln!(
            s,
            "cityod-lint: {}",
            if self.ok() { "PASS" } else { "FAIL" }
        );
        s
    }

    /// Machine-readable rendering, following the `obs::to_json_stable`
    /// conventions: byte-stable output for identical inputs, keys in
    /// alphabetical order at every level, one entry per line. CI uploads
    /// this as the `cityod-lint.json` artifact.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        let mut first = true;
        for f in self.errors.iter().chain(self.debt.iter()) {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "\n    {{\"crate\": \"{}\", \"file\": \"{}\", \"kind\": \"{}\", \"line\": {}, \
                 \"message\": \"{}\", \"rule\": \"{}\", \"snippet\": \"{}\"}}",
                json_escape(&f.crate_name),
                json_escape(&f.file),
                json_escape(f.kind),
                f.line,
                json_escape(&f.message),
                f.rule.code(),
                json_escape(&f.snippet)
            );
        }
        s.push_str("\n  ],\n  \"format_version\": 1,\n  \"ok\": ");
        s.push_str(if self.ok() { "true" } else { "false" });
        s.push_str(",\n  \"over_budget\": [");
        first = true;
        for v in &self.over_budget {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "\n    {{\"budget\": {}, \"count\": {}, \"crate\": \"{}\", \"kind\": \"{}\"}}",
                v.budget,
                v.count,
                json_escape(&v.crate_name),
                json_escape(&v.kind)
            );
        }
        s.push_str("\n  ],\n  \"rule_counts\": {");
        let mut rules: Vec<Rule> = Rule::all().to_vec();
        rules.sort_by_key(|r| r.code());
        first = true;
        for r in rules {
            if !first {
                s.push(',');
            }
            first = false;
            let n = self
                .errors
                .iter()
                .chain(self.debt.iter())
                .filter(|f| f.rule == r)
                .count();
            let _ = write!(s, "\n    \"{}\": {}", r.code(), n);
        }
        let debt_total: u64 = self.counts.values().sum();
        let _ = write!(
            s,
            "\n  }},\n  \"summary\": {{\"debt\": {}, \"errors\": {}, \"over_budget\": {}}}\n}}\n",
            debt_total,
            self.errors.len(),
            self.over_budget.len()
        );
        s
    }
}

/// Minimal JSON string escaping.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn finding(rule: Rule, kind: &'static str, crate_name: &str) -> Finding {
        let f = SourceFile::new("f.rs", crate_name, FileKind::Lib, "x\n");
        Finding::new(&f, rule, kind, 1, "msg".to_string())
    }

    #[test]
    fn dsu_findings_are_errors() {
        let r = Report::build(
            vec![finding(Rule::Determinism, "hashmap", "simulator")],
            &Baseline::default(),
        );
        assert!(!r.ok());
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn panic_findings_ratchet_against_budget() {
        let base = Baseline::parse("[roadnet]\nunwrap = 1\n").unwrap();
        let one = Report::build(vec![finding(Rule::Panic, "unwrap", "roadnet")], &base);
        assert!(one.ok(), "within budget");
        let two = Report::build(
            vec![
                finding(Rule::Panic, "unwrap", "roadnet"),
                finding(Rule::Panic, "unwrap", "roadnet"),
            ],
            &base,
        );
        assert!(!two.ok(), "over budget");
        assert_eq!(two.over_budget.len(), 1);
        assert_eq!(two.over_budget[0].count, 2);
    }

    #[test]
    fn slack_is_reported_not_fatal() {
        let base = Baseline::parse("[roadnet]\nunwrap = 5\n").unwrap();
        let r = Report::build(vec![finding(Rule::Panic, "unwrap", "roadnet")], &base);
        assert!(r.ok());
        assert_eq!(r.slack.len(), 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = Report::build(
            vec![finding(Rule::Shape, "shape-mismatch", "neural")],
            &Baseline::default(),
        );
        let j = r.render_json();
        assert!(j.contains("\"ok\": false"));
        assert!(j.contains("\"rule\": \"S\""));
        assert!(json_escape("a\"b\\c\nd") == "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_is_byte_stable_with_alphabetical_keys() {
        let r = Report::build(
            vec![
                finding(Rule::Shape, "shape-mismatch", "neural"),
                finding(Rule::Metrics, "counter-name", "serve"),
            ],
            &Baseline::default(),
        );
        let a = r.render_json();
        let b = r.render_json();
        assert_eq!(a, b, "identical inputs must render byte-identically");
        assert!(a.contains("\"format_version\": 1"));
        // Keys inside a finding object are alphabetical.
        let pos = |k: &str| a.find(k).unwrap_or_else(|| panic!("missing {k}"));
        assert!(pos("\"crate\"") < pos("\"file\""));
        assert!(pos("\"file\"") < pos("\"kind\""));
        assert!(pos("\"kind\"") < pos("\"line\""));
        assert!(pos("\"line\"") < pos("\"message\""));
        // Per-rule counts are present for all eight rules, sorted by code.
        assert!(a.contains("\"A\": 0"));
        assert!(a.contains("\"M\": 1"));
        assert!(a.contains("\"S\": 1"));
        assert!(pos("\"A\":") < pos("\"C\":"));
        assert!(pos("\"C\":") < pos("\"D\":"));
        assert!(pos("\"U\":") < pos("\"X\":"));
    }
}
