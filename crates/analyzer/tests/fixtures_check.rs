//! Fixture-driven self-tests: every rule catches its seeded `bad/`
//! fixture, stays silent on the corresponding `ok/` fixture, and the
//! ratchet fails the build when debt rises above the committed baseline.

use analyzer::rules::Rule;
use analyzer::source::{FileKind, SourceFile};
use analyzer::{check_file, check_workspace, CheckOptions};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Loads a fixture as non-test library code of the protected `simulator`
/// crate, so every rule pass applies.
fn load(rel: &str) -> SourceFile {
    let path = fixture_dir().join(rel);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    SourceFile::new(rel, "simulator", FileKind::Lib, &src)
}

fn kinds(findings: &[analyzer::rules::Finding]) -> Vec<&str> {
    let mut k: Vec<&str> = findings.iter().map(|f| f.kind).collect();
    k.sort_unstable();
    k.dedup();
    k
}

// ---- ok/ fixtures stay silent -------------------------------------------

#[test]
fn ok_fixtures_produce_no_findings() {
    for rel in [
        "ok/concurrency.rs",
        "ok/conv_seq.rs",
        "ok/determinism_allowed.rs",
        "ok/hot_alloc.rs",
        "ok/metrics.rs",
        "ok/panic_test_only.rs",
        "ok/shape_chain.rs",
        "ok/unsafe_safety.rs",
    ] {
        let f = load(rel);
        let findings = check_file(&f, None);
        assert!(
            findings.is_empty(),
            "{rel} should be clean, got: {:?}",
            findings
                .iter()
                .map(|f| format!("{}:{} {}", f.file, f.line, f.kind))
                .collect::<Vec<_>>()
        );
    }
}

// ---- bad/ fixtures are caught, one per rule ------------------------------

#[test]
fn bad_determinism_is_caught_and_reasonless_allow_does_not_suppress() {
    let f = load("bad/determinism.rs");
    let findings = check_file(&f, Some(Rule::Determinism));
    assert_eq!(kinds(&findings), vec!["env-read", "hashmap"]);
    // The `// lint: allow(determinism)` with no reason sits directly above
    // the env::var call — it must not have suppressed the finding.
    assert!(findings.iter().any(|f| f.kind == "env-read"));
    // Findings carry real line numbers pointing at the violation.
    let hm = findings.iter().find(|f| f.kind == "hashmap").unwrap();
    assert!(f.snippet(hm.line).contains("HashMap"));
}

#[test]
fn bad_panic_catches_every_kind() {
    let f = load("bad/panic.rs");
    let findings = check_file(&f, Some(Rule::Panic));
    assert_eq!(
        kinds(&findings),
        vec!["expect", "indexing", "panic", "unwrap"]
    );
}

#[test]
fn bad_shape_mismatch_is_caught() {
    let f = load("bad/shape.rs");
    let findings = check_file(&f, Some(Rule::Shape));
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].kind, "shape-mismatch");
    assert!(findings[0]
        .message
        .contains("panic at the first forward pass"));
}

#[test]
fn bad_conv_seq_catches_even_kernel_and_underflow() {
    let f = load("bad/conv_seq.rs");
    let findings = check_file(&f, Some(Rule::Shape));
    assert_eq!(
        kinds(&findings),
        vec!["conv-even-kernel", "conv-seq-underflow"]
    );
    let under = findings
        .iter()
        .find(|f| f.kind == "conv-seq-underflow")
        .unwrap();
    // Flagged at the layer whose kernel no longer fits, with the chained
    // remaining length in the message.
    assert!(f.snippet(under.line).contains("7"));
    assert!(under.message.contains("only `3` steps"));
}

#[test]
fn bad_unsafe_without_safety_comment_is_caught() {
    let f = load("bad/unsafety.rs");
    let findings = check_file(&f, Some(Rule::UnsafeAudit));
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, Rule::UnsafeAudit);
}

#[test]
fn bad_concurrency_catches_every_kind() {
    let f = load("bad/concurrency.rs");
    let findings = check_file(&f, Some(Rule::Concurrency));
    assert_eq!(
        kinds(&findings),
        vec![
            "guard-across-lock",
            "spawn-no-join",
            "static-mut",
            "write-in-read"
        ]
    );
}

#[test]
fn bad_metrics_catches_every_kind() {
    let f = load("bad/metrics.rs");
    let findings = check_file(&f, Some(Rule::Metrics));
    assert_eq!(
        kinds(&findings),
        vec![
            "counter-name",
            "label-order",
            "stable-from-timing",
            "timing-name"
        ]
    );
}

#[test]
fn bad_hot_alloc_is_caught_through_both_roots() {
    let f = load("bad/hot_alloc.rs");
    let findings = check_file(&f, Some(Rule::Alloc));
    assert_eq!(kinds(&findings), vec!["hot-alloc"]);
    // One through the Workspace-signature root (`step` -> `scratch`), one
    // direct, one through the `// lint: hot` annotation root.
    assert_eq!(findings.len(), 3);
    assert!(findings.iter().any(|f| f.message.contains("vec!")));
    assert!(findings.iter().any(|f| f.message.contains(".clone()")));
    assert!(findings.iter().any(|f| f.message.contains("format!")));
}

// ---- self-lint and hot-set reachability over the real workspace ----------

fn repo_root() -> PathBuf {
    analyzer::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

/// The analyzer holds itself to the protected-crate bar: zero errors and
/// zero panic-debt in its own sources (the promotion into
/// `PROTECTED_CRATES` rests on this staying true).
#[test]
fn analyzer_crate_self_lints_at_zero_debt() {
    let rep =
        analyzer::check_workspace(&repo_root(), &CheckOptions::default()).expect("self-check runs");
    let ours: Vec<String> = rep
        .errors
        .iter()
        .chain(rep.debt.iter())
        .filter(|f| f.file.contains("crates/analyzer/"))
        .map(|f| format!("{}:{} {}/{}", f.file, f.line, f.rule.code(), f.kind))
        .collect();
    assert!(ours.is_empty(), "analyzer self-lint findings: {ours:#?}");
}

/// Rule A's hot set provably covers the functions the counting-allocator
/// test (`neural/tests/zero_alloc.rs`) exercises: everything its step
/// helpers call must be reachable from the Workspace step path, or the
/// lint would go blind exactly where the invariant is enforced. The layer
/// entry points are checked by qualified name, one per impl: name
/// matching alone would pass as long as any single layer was hot.
#[test]
fn hot_set_covers_the_neural_step_path() {
    let src_root = repo_root().join("crates/neural/src");
    let mut files = Vec::new();
    let mut stack = vec![src_root.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("neural sources readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(&src_root)
                    .expect("under src root")
                    .display()
                    .to_string();
                let src = std::fs::read_to_string(&path).expect("neural source reads");
                files.push(SourceFile::new(&rel, "neural", FileKind::Lib, &src));
            }
        }
    }
    assert!(!files.is_empty(), "no neural sources found");
    let idx = analyzer::symbols::WorkspaceIndex::build(&files);
    let hot = idx.hot_set("neural");
    for layer in [
        "Dense",
        "Activation",
        "SeqActivation",
        "Sequential",
        "SeqSequential",
        "TimeDistributed",
        "Lstm",
        "Conv1d",
        "Gru",
        "Dropout",
        "Softmax",
    ] {
        for method in ["forward_ws", "backward_ws"] {
            let qual = format!("{layer}::{method}");
            assert!(
                hot.contains(&qual),
                "`{qual}` missing from hot set: {hot:#?}"
            );
        }
    }
    // The rest of the call surface of `flat_step` / `seq_step`.
    for needed in [
        "mse_into",
        "mse_seq_into",
        "begin_step",
        "apply",
        "visit_params",
        "zero_grad",
        "take",
        "give",
        "take3",
        "give3",
    ] {
        let covered = hot
            .iter()
            .any(|q| q == needed || q.ends_with(&format!("::{needed}")));
        assert!(covered, "`{needed}` missing from hot set: {hot:#?}");
    }
}

// ---- ratchet semantics over a real workspace tree ------------------------

#[test]
fn ratchet_fails_above_baseline_and_passes_at_baseline() {
    let root = fixture_dir().join("ws_ratchet");

    let tight = CheckOptions {
        baseline: Some(root.join("baseline_tight.toml")),
        ..Default::default()
    };
    let rep = check_workspace(&root, &tight).expect("check runs");
    assert_eq!(rep.exit_code(), 1, "2 unwraps over a budget of 1 must fail");
    assert_eq!(rep.over_budget.len(), 1);
    assert_eq!(rep.over_budget[0].count, 2);
    assert_eq!(rep.over_budget[0].budget, 1);

    let exact = CheckOptions {
        baseline: Some(root.join("baseline_exact.toml")),
        ..Default::default()
    };
    let rep = check_workspace(&root, &exact).expect("check runs");
    assert_eq!(
        rep.exit_code(),
        0,
        "2 unwraps within a budget of 2 must pass"
    );
    assert!(rep.over_budget.is_empty());
}

#[test]
fn missing_baseline_means_zero_budget() {
    let root = fixture_dir().join("ws_ratchet");
    let rep = check_workspace(&root, &CheckOptions::default()).expect("check runs");
    assert_eq!(
        rep.exit_code(),
        1,
        "no baseline file = zero budget everywhere"
    );
}

// ---- CLI end-to-end: exit codes and file:line output ---------------------

#[test]
fn cli_exits_nonzero_with_file_line_on_seeded_violations() {
    let root = fixture_dir().join("ws_bad");
    let out = Command::new(env!("CARGO_BIN_EXE_analyzer"))
        .args(["check", "--root"])
        .arg(&root)
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("error[D/hashmap]"),
        "determinism error: {text}"
    );
    assert!(text.contains("error[U/"), "unsafe error: {text}");
    assert!(
        text.contains("error[S/shape-mismatch]"),
        "shape error: {text}"
    );
    assert!(text.contains("error[P/ratchet]"), "ratchet error: {text}");
    assert!(
        text.contains("crates/simulator/src/lib.rs:"),
        "file:line locations: {text}"
    );
    assert!(text.contains("FAIL"));
}

#[test]
fn cli_json_is_parseable_and_marks_failure() {
    let root = fixture_dir().join("ws_bad");
    let out = Command::new(env!("CARGO_BIN_EXE_analyzer"))
        .args(["check", "--json", "--root"])
        .arg(&root)
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"ok\": false"));
    assert!(text.contains("\"rule\": \"D\""));
    assert!(text.contains("\"line\": "));
}

#[test]
fn cli_single_rule_filter_narrows_findings() {
    let root = fixture_dir().join("ws_bad");
    let out = Command::new(env!("CARGO_BIN_EXE_analyzer"))
        .args(["check", "--rule", "S", "--root"])
        .arg(&root)
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[S/shape-mismatch]"));
    assert!(!text.contains("error[D/"), "rule filter leaked D: {text}");
    assert!(!text.contains("error[P/"), "rule filter leaked P: {text}");
}

#[test]
fn cli_bad_usage_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_analyzer"))
        .args(["check", "--rule", "Z"])
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(2));
}
