//! The rule passes.
//!
//! Each pass walks a [`SourceFile`] token stream and emits [`Finding`]s.
//! Suppression (`// lint: allow(<rule>) — reason`) and the panic-debt
//! ratchet are applied by the driver in [`crate::run`], not here, so the
//! passes stay pure and trivially testable.

mod alloc;
mod concurrency;
mod dead_api;
mod determinism;
mod metrics_contract;
mod panic;
mod shape;
mod unsafety;

pub use alloc::alloc_pass;
pub use concurrency::concurrency_pass;
pub use dead_api::dead_api_pass;
pub use determinism::determinism_pass;
pub use metrics_contract::metrics_pass;
pub use panic::panic_pass;
pub use shape::shape_pass;
pub use unsafety::unsafe_pass;

use crate::source::SourceFile;

/// The eight rules, named as in the CLI (`--rule D|P|S|U|C|M|A|X`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D — determinism: no unordered-map iteration sources, wall-clock or
    /// environment reads on the stable-output path.
    Determinism,
    /// P — panic-safety: no unwrap/expect/panic!/unreachable! or bare
    /// slice indexing in non-test library code of the hot crates.
    Panic,
    /// S — shape soundness: layer-stack in/out dimensions must chain.
    Shape,
    /// U — unsafe audit: every `unsafe` needs a `// SAFETY:` comment.
    UnsafeAudit,
    /// C — concurrency discipline: no `static mut`, no guard held across
    /// another locking call, no write-under-read, no unjoined spawns.
    Concurrency,
    /// M — metrics contract: `_total`/`_seconds` suffixes, sorted label
    /// keys, Stable metrics never fed from Timing sources.
    Metrics,
    /// A — hot-path allocation: no heap allocation in functions reachable
    /// from the `Workspace` step path or a `// lint: hot` root.
    Alloc,
    /// X — dead API: no `pub fn` in `crates/*/src` that only tests name.
    DeadApi,
}

impl Rule {
    /// One-letter CLI code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Determinism => "D",
            Rule::Panic => "P",
            Rule::Shape => "S",
            Rule::UnsafeAudit => "U",
            Rule::Concurrency => "C",
            Rule::Metrics => "M",
            Rule::Alloc => "A",
            Rule::DeadApi => "X",
        }
    }

    /// Human name, also used in allow annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::Panic => "panic",
            Rule::Shape => "shape",
            Rule::UnsafeAudit => "unsafe",
            Rule::Concurrency => "concurrency",
            Rule::Metrics => "metrics",
            Rule::Alloc => "alloc",
            Rule::DeadApi => "dead_api",
        }
    }

    /// Parses a CLI code or allow-annotation name.
    pub fn from_name(s: &str) -> Option<Rule> {
        match s {
            "D" | "determinism" => Some(Rule::Determinism),
            "P" | "panic" => Some(Rule::Panic),
            "S" | "shape" => Some(Rule::Shape),
            "U" | "unsafe" => Some(Rule::UnsafeAudit),
            "C" | "concurrency" => Some(Rule::Concurrency),
            "M" | "metrics" => Some(Rule::Metrics),
            "A" | "alloc" => Some(Rule::Alloc),
            "X" | "dead_api" => Some(Rule::DeadApi),
            _ => None,
        }
    }

    /// All rules, in report order.
    pub fn all() -> [Rule; 8] {
        [
            Rule::Determinism,
            Rule::Panic,
            Rule::Shape,
            Rule::UnsafeAudit,
            Rule::Concurrency,
            Rule::Metrics,
            Rule::Alloc,
            Rule::DeadApi,
        ]
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired.
    pub rule: Rule,
    /// Machine-readable sub-kind (`unwrap`, `hashmap`, `shape-mismatch`, …).
    /// Panic-rule kinds are the ratchet-budget keys in `baseline.toml`.
    pub kind: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// Crate the file belongs to.
    pub crate_name: String,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line.
    pub snippet: String,
    /// Explanation and suggested fix.
    pub message: String,
}

impl Finding {
    /// Builds a finding, pulling the snippet out of `file`.
    pub fn new(
        file: &SourceFile,
        rule: Rule,
        kind: &'static str,
        line: u32,
        message: String,
    ) -> Self {
        Self {
            rule,
            kind,
            file: file.path.clone(),
            crate_name: file.crate_name.clone(),
            line,
            snippet: file.snippet(line),
            message,
        }
    }
}
