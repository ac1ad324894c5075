//! Fixture-driven self-tests: every rule catches its seeded `bad/`
//! fixture, stays silent on the corresponding `ok/` fixture, and the
//! ratchet fails the build when debt rises above the committed baseline.

use analyzer::rules::Rule;
use analyzer::source::{FileKind, SourceFile};
use analyzer::{check_files, check_workspace, CheckOptions};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Loads a fixture as non-test library code of the protected `simulator`
/// crate, so every rule pass applies.
fn load(rel: &str) -> SourceFile {
    load_in(rel, "simulator")
}

/// Loads a fixture as non-test library code of `crate_name`.
fn load_in(rel: &str, crate_name: &str) -> SourceFile {
    let path = fixture_dir().join(rel);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    SourceFile::new(rel, crate_name, FileKind::Lib, &src)
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
        let findings = check_files(std::slice::from_ref(&f), None);
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
    let findings = check_files(std::slice::from_ref(&f), Some(Rule::Determinism));
    assert_eq!(kinds(&findings), vec!["env-read", "hashmap"]);
    // The `// lint: allow(determinism)` with no reason sits directly above
    // the env::var call — it must not have suppressed the finding.
    assert!(findings.iter().any(|f| f.kind == "env-read"));
    // Findings carry real line numbers pointing at the violation.
    let hm = findings.iter().find(|f| f.kind == "hashmap").unwrap();
    assert!(f.snippet(hm.line).contains("HashMap"));
}

#[test]
fn bad_libm_is_caught_in_model_crates_and_reasonless_allow_does_not_suppress() {
    for krate in ["neural", "ovs-core"] {
        let f = load_in("bad/libm.rs", krate);
        let findings = check_files(std::slice::from_ref(&f), Some(Rule::Determinism));
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(kinds(&findings), vec!["libm"], "{krate}");
        assert_eq!(lines.len(), 2, "{krate}: both the sigmoid and the tanh");
        assert!(f.snippet(lines[0]).contains(".exp()"));
        assert!(f.snippet(lines[1]).contains(".tanh()"));
    }
    // Outside the model crates the same calls are not rule D's business.
    let f = load("bad/libm.rs");
    assert!(check_files(std::slice::from_ref(&f), Some(Rule::Determinism)).is_empty());
}

#[test]
fn ok_libm_with_a_reasoned_allow_is_silent_in_model_crates() {
    let f = load_in("ok/libm_allowed.rs", "neural");
    let findings = check_files(std::slice::from_ref(&f), None);
    assert!(
        findings.is_empty(),
        "{:?}",
        findings
            .iter()
            .map(|f| (f.line, f.kind))
            .collect::<Vec<_>>()
    );
}

#[test]
fn bad_panic_catches_every_kind() {
    let f = load("bad/panic.rs");
    let findings = check_files(std::slice::from_ref(&f), Some(Rule::Panic));
    assert_eq!(
        kinds(&findings),
        vec!["expect", "indexing", "panic", "unwrap"]
    );
}

#[test]
fn bad_shape_mismatch_is_caught() {
    let f = load("bad/shape.rs");
    let findings = check_files(std::slice::from_ref(&f), Some(Rule::Shape));
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].kind, "shape-mismatch");
    assert!(findings[0]
        .message
        .contains("panic at the first forward pass"));
}

#[test]
fn bad_conv_seq_catches_even_kernel() {
    let f = load("bad/conv_seq.rs");
    let findings = check_files(std::slice::from_ref(&f), Some(Rule::Shape));
    assert_eq!(kinds(&findings), vec!["conv-even-kernel"]);
    // Flagged at the constructor whose kernel is even.
    assert!(f.snippet(findings[0].line).contains("Conv1d::new(1, 1, 4"));
}

#[test]
fn bad_unsafe_without_safety_comment_is_caught() {
    let f = load("bad/unsafety.rs");
    let findings = check_files(std::slice::from_ref(&f), Some(Rule::UnsafeAudit));
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, Rule::UnsafeAudit);
}

#[test]
fn bad_concurrency_catches_every_kind() {
    let f = load("bad/concurrency.rs");
    let findings = check_files(std::slice::from_ref(&f), Some(Rule::Concurrency));
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
    let findings = check_files(std::slice::from_ref(&f), Some(Rule::Metrics));
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
    let findings = check_files(std::slice::from_ref(&f), Some(Rule::Alloc));
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

/// The qualified names rule A marks hot in `crates/<krate>/src`, indexed
/// as that crate alone (the hot closure stays within a crate).
fn hot_set_of(krate: &str) -> Vec<String> {
    let src_root = repo_root().join("crates").join(krate).join("src");
    let mut files = Vec::new();
    let mut stack = vec![src_root.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("sources readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(&src_root)
                    .expect("under src root")
                    .display()
                    .to_string();
                let src = std::fs::read_to_string(&path).expect("source reads");
                files.push(SourceFile::new(&rel, krate, FileKind::Lib, &src));
            }
        }
    }
    assert!(!files.is_empty(), "no {krate} sources found");
    let idx = analyzer::symbols::WorkspaceIndex::build(&files);
    (idx.fns.iter().enumerate())
        .filter(|(id, f)| f.crate_name == krate && idx.is_hot(*id))
        .map(|(_, f)| f.qual.clone())
        .collect()
}

/// Rule A's hot set provably covers the functions the counting-allocator
/// test (`neural/tests/zero_alloc.rs`) exercises: everything its step
/// helpers call must be reachable from the Workspace step path, or the
/// lint would go blind exactly where the invariant is enforced. The layer
/// entry points are checked by qualified name, one per impl: name
/// matching alone would pass as long as any single layer was hot.
#[test]
fn hot_set_covers_the_neural_step_path() {
    let hot = hot_set_of("neural");
    let hot: Vec<&str> = hot.iter().map(String::as_str).collect();
    for layer in [
        "Dense",
        "Activation",
        "SeqActivation",
        "Sequential",
        "SeqSequential",
        "TimeDistributed",
        "Lstm",
        "Conv1d",
    ] {
        for method in ["forward_ws", "backward_ws"] {
            let qual = format!("{layer}::{method}");
            assert!(
                hot.contains(&qual.as_str()),
                "`{qual}` missing from hot set: {hot:#?}"
            );
        }
    }
    // The rest of the call surface of `flat_step` / `seq_step`.
    for needed in [
        "mse_into",
        "mse_seq_into",
        "Adam::step",
        "visit_params",
        "zero_grad",
        "take",
        "give",
        "take3",
        "give3",
    ] {
        let covered = hot
            .iter()
            .any(|q| *q == needed || q.ends_with(&format!("::{needed}")));
        assert!(covered, "`{needed}` missing from hot set: {hot:#?}");
    }
}

/// The same for the OVS stage steps `ovs-core/tests/zero_alloc.rs`
/// counts: each module's one forward/backward pair, the full generative
/// pass, and the two losses the fit writes in place.
#[test]
fn hot_set_covers_the_ovs_stage_step_path() {
    let hot = hot_set_of("ovs-core");
    for module in ["TodGeneration", "TodVolumeMapping", "VolumeSpeedMapping"] {
        for method in ["forward_ws", "backward_ws"] {
            let qual = format!("{module}::{method}");
            assert!(
                hot.contains(&qual),
                "`{qual}` missing from hot set: {hot:#?}"
            );
        }
    }
    assert!(
        hot.iter().any(|q| q == "OvsModel::forward_full"),
        "{hot:#?}"
    );
    let neural = hot_set_of("neural");
    for loss in ["huber_into", "mse_into"] {
        assert!(
            neural.iter().any(|q| q == loss),
            "`{loss}` missing: {neural:#?}"
        );
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

// ---- rule X over a multi-crate workspace tree ----------------------------

/// The `file: name` of every rule-X finding over `ws_dead_api/`.
fn dead_api_findings() -> Vec<String> {
    let opts = CheckOptions {
        rule: Some(Rule::DeadApi),
        ..Default::default()
    };
    let rep = check_workspace(&fixture_dir().join("ws_dead_api"), &opts).expect("check runs");
    rep.errors
        .iter()
        .map(|f| format!("{}: {}", f.file, f.message.split('`').nth(1).unwrap_or("")))
        .collect()
}

fn flagged(name: &str) -> bool {
    let suffix = format!(": {name}");
    dead_api_findings().iter().any(|f| f.ends_with(&suffix))
}

#[test]
fn dead_api_flags_a_fn_only_tests_use() {
    assert!(flagged("only_tested"), "{:#?}", dead_api_findings());
}

#[test]
fn dead_api_counts_uses_in_other_crates_examples_and_citybench() {
    for name in ["used_by_beta", "used_by_bench", "used_by_example"] {
        assert!(!flagged(name), "{name}: {:#?}", dead_api_findings());
    }
    // citybench is read for its uses only: its own dead items stay quiet.
    let findings = dead_api_findings();
    assert!(
        findings.iter().all(|f| !f.starts_with("citybench/")),
        "{findings:#?}"
    );
}

#[test]
fn dead_api_respects_an_annotation_with_a_reason() {
    assert!(!flagged("annotated"), "{:#?}", dead_api_findings());
}

#[test]
fn dead_api_skips_trait_impl_methods_and_pub_crate_items() {
    for name in ["crate_visible", "Unit::speak"] {
        assert!(!flagged(name), "{name}: {:#?}", dead_api_findings());
    }
}

#[test]
fn dead_api_does_not_count_a_name_in_a_doc_comment_as_a_use() {
    assert!(flagged("only_in_docs"), "{:#?}", dead_api_findings());
    assert_eq!(
        dead_api_findings(),
        [
            "crates/alpha/src/lib.rs: only_tested",
            "crates/alpha/src/lib.rs: only_in_docs",
            "crates/alpha/src/lib.rs: Strided::stride"
        ],
        "exactly the three unused items are flagged"
    );
}

#[test]
fn dead_api_does_not_count_a_field_or_binding_of_the_same_name_as_a_use() {
    assert!(flagged("Strided::stride"), "{:#?}", dead_api_findings());
    for name in ["Strided::with_stride", "Strided::steps"] {
        assert!(!flagged(name), "{name}: {:#?}", dead_api_findings());
    }
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
    assert!(text.contains("error[X/dead-api]"), "dead-API error: {text}");
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
