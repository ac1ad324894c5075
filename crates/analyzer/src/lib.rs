//! cityod-lint — static analysis for the city-od workspace.
//!
//! A zero-dependency linter enforcing the properties the OVS reproduction
//! stakes its credibility on (see DESIGN.md §9):
//!
//! * **D — determinism**: no `HashMap`/`HashSet`, wall-clock, environment
//!   or thread-identity reads in stable-output crates, and no libm
//!   `.exp()`/`.tanh()` calls in the model crates (`neural`, `ovs-core`);
//! * **P — panic-safety**: `unwrap`/`expect`/panicking macros/bare slice
//!   indexing in hot-crate library code are budgeted by a committed
//!   ratchet baseline and can only decrease;
//! * **S — shape soundness**: `Sequential`/`SeqSequential` layer stacks
//!   must chain their declared in/out dimensions;
//! * **U — unsafe audit**: every `unsafe` requires a `// SAFETY:` comment;
//! * **C — concurrency discipline**: no `static mut`, no lock guard held
//!   across a call into another locking function, no `RwLock` write
//!   under a live read guard, no spawned thread without a join;
//! * **M — metrics contract**: counters end `_total`, timing instruments
//!   end `_seconds` (`_per_sec` for rate gauges), label keys sorted,
//!   Stable metrics never fed from wall-clock sources;
//! * **A — hot-path allocation**: no heap allocation in functions
//!   reachable from the `Workspace` step path or a `// lint: hot` root;
//! * **X — dead API**: no `pub fn` in `crates/*/src` whose name no
//!   non-test code (any crate, the examples or `citybench/src`) uses.
//!
//! Rules C/M/A/X are *cross-file*: the driver first builds a
//! [`symbols::WorkspaceIndex`] (fn/impl symbol table, per-crate string
//! consts, and an intra-crate name-based call graph) over every analysed
//! file, then runs the passes with that index in hand (DESIGN.md §14).
//!
//! Run with `cargo run -p analyzer -- check [--json] [--rule D|P|S|U|C|M|A|X]
//! [--baseline <path>] [--update-baseline]`.

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod walk;

use baseline::Baseline;
use report::Report;
use rules::{
    alloc_pass, concurrency_pass, dead_api_pass, determinism_pass, metrics_pass, panic_pass,
    shape_pass, unsafe_pass, Finding, Rule,
};
use source::{FileKind, SourceFile};
use std::path::{Path, PathBuf};
use symbols::WorkspaceIndex;

/// Crates on the stable-output path: rule D (determinism) and rule C
/// (concurrency) apply to their non-test library code, and rule P
/// (panic-safety) ratchets them.
pub const PROTECTED_CRATES: [&str; 11] = [
    "simulator",
    "roadnet",
    "neural",
    "ovs-core",
    "checkpoint",
    "obs",
    "fault",
    "serve",
    "stream",
    "datagen",
    "analyzer",
];

/// Crates under the panic-debt ratchet (rule P) but not (yet) on the
/// stable-output path: tooling whose debt we burn down without claiming
/// determinism. A crate graduates into [`PROTECTED_CRATES`] when its
/// baseline budget reaches zero and rule D holds — as `analyzer` did
/// once its lexer grew sentinel accessors and its debt hit zero.
pub const RATCHETED_EXTRAS: [&str; 1] = ["bench"];

/// True when rule P's ratchet applies to this crate.
pub fn is_ratcheted(crate_name: &str) -> bool {
    PROTECTED_CRATES.contains(&crate_name) || RATCHETED_EXTRAS.contains(&crate_name)
}

/// Options for one check run.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Restrict to one rule (`None` = all).
    pub rule: Option<Rule>,
    /// Baseline path override.
    pub baseline: Option<PathBuf>,
    /// Rewrite the baseline to the observed counts after checking.
    pub update_baseline: bool,
}

/// Checks a set of analysed files as one workspace: phase 1 builds the
/// [`WorkspaceIndex`] (symbol table + call graph) over *all* files,
/// phase 2 runs every applicable rule pass per file with the index in
/// hand, then applies allow-comment suppression. This is the single
/// entry the CLI driver, the fixture tests and the self-lint test go
/// through.
pub fn check_files(files: &[SourceFile], only: Option<Rule>) -> Vec<Finding> {
    let idx = WorkspaceIndex::build(files);
    let want = |r: Rule| only.is_none() || only == Some(r);
    let mut findings = Vec::new();
    for (ix, file) in files.iter().enumerate() {
        if file.kind == FileKind::External {
            continue;
        }
        let protected = PROTECTED_CRATES.contains(&file.crate_name.as_str());
        let lib = file.kind == FileKind::Lib;
        let mut local = Vec::new();
        if want(Rule::Determinism) && protected && lib {
            local.extend(determinism_pass(file));
        }
        if want(Rule::Panic) && is_ratcheted(&file.crate_name) && lib {
            local.extend(panic_pass(file));
        }
        if want(Rule::Shape) {
            local.extend(shape_pass(file));
        }
        if want(Rule::UnsafeAudit) {
            local.extend(unsafe_pass(file));
        }
        if want(Rule::Concurrency) && protected && lib {
            local.extend(concurrency_pass(file, ix, &idx));
        }
        if want(Rule::Metrics) && lib {
            local.extend(metrics_pass(file, &idx));
        }
        if want(Rule::Alloc) && lib {
            local.extend(alloc_pass(file, ix, &idx));
        }
        if want(Rule::DeadApi) && lib {
            local.extend(dead_api_pass(file, ix, &idx));
        }
        local.retain(|f| !file.is_allowed(f.rule, f.line));
        findings.append(&mut local);
    }
    findings
}

/// Analyses a whole workspace tree and builds the report.
pub fn check_workspace(root: &Path, opts: &CheckOptions) -> Result<Report, String> {
    let items = walk::discover(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    if items.is_empty() {
        return Err(format!("no .rs files found under {}", root.display()));
    }
    let mut files = Vec::with_capacity(items.len());
    for item in &items {
        let src =
            std::fs::read_to_string(&item.abs).map_err(|e| format!("reading {}: {e}", item.rel))?;
        files.push(SourceFile::new(
            &item.rel,
            &item.crate_name,
            item.kind,
            &src,
        ));
    }
    let mut findings = check_files(&files, opts.rule);
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    let baseline_path = baseline_path(root, opts);
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            Baseline::parse(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?
        }
        Err(_) => Baseline::default(),
    };
    let rep = Report::build(findings, &baseline);

    if opts.update_baseline {
        let next = Baseline::from_counts(&rep.counts);
        std::fs::write(&baseline_path, next.to_toml())
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
    }
    Ok(rep)
}

/// Resolves the baseline path: explicit flag, else `analyzer/baseline.toml`
/// under the root when present (the ISSUE-documented location), else the
/// crate-local `crates/analyzer/baseline.toml`.
pub fn baseline_path(root: &Path, opts: &CheckOptions) -> PathBuf {
    if let Some(p) = &opts.baseline {
        return p.clone();
    }
    let issue_loc = root.join("analyzer/baseline.toml");
    if issue_loc.exists() {
        return issue_loc;
    }
    root.join("crates/analyzer/baseline.toml")
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
