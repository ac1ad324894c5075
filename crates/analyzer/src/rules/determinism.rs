//! Rule D — determinism.
//!
//! The OVS pipeline's golden-file and resume-equivalence guarantees
//! require that every byte of stable output is a pure function of config
//! and seed. On the stable-output path this pass denies:
//!
//! * `HashMap` / `HashSet` — iteration order is randomised per process
//!   (SipHash keys), so *any* use is one refactor away from leaking
//!   nondeterministic order into output. Use `BTreeMap` / `BTreeSet`.
//! * `SystemTime` / `Instant` — wall-clock reads.
//! * `std::env::var` / `env::vars` — environment reads.
//! * `thread::current` and `ThreadId` — thread-identity reads.
//! * `.exp()` / `.tanh()` method calls in `neural` and `ovs-core` — the
//!   host libm's bits differ between platforms, so model activations go
//!   through the repo-owned `neural::activation`, which makes no such
//!   call itself.
//!
//! Legitimate uses (timing-tagged metrics, provenance timestamps, thread
//! pool sizing) carry `// lint: allow(determinism) — reason`.

use super::{Finding, Rule};
use crate::source::SourceFile;

/// Runs the determinism pass over a file that is on the stable-output
/// path. Test regions are skipped: test-only nondeterminism cannot leak
/// into shipped output.
pub fn determinism_pass(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if file.masked(i) {
            continue;
        }
        let (kind, what, instead): (&'static str, &str, &str) = if t.is_ident("HashMap") {
            (
                "hashmap",
                "HashMap",
                "BTreeMap (deterministic iteration order)",
            )
        } else if t.is_ident("HashSet") {
            (
                "hashset",
                "HashSet",
                "BTreeSet (deterministic iteration order)",
            )
        } else if t.is_ident("SystemTime") {
            (
                "wall-clock",
                "SystemTime",
                "data derived from config or seed",
            )
        } else if t.is_ident("Instant") {
            (
                "wall-clock",
                "Instant",
                "tick counters derived from the simulation clock",
            )
        } else if t.is_ident("ThreadId") {
            ("thread-id", "ThreadId", "explicit worker indices")
        } else if is_path_call(file, i, "env", &["var", "var_os", "vars"]) {
            (
                "env-read",
                "env::var",
                "explicit configuration plumbed through SimConfig",
            )
        } else if is_path_call(file, i, "thread", &["current"]) {
            ("thread-id", "thread::current", "explicit worker indices")
        } else if let Some(f) = libm_method_call(file, i) {
            (
                "libm",
                f,
                "the repo-owned `neural::activation` functions (host libm bits vary)",
            )
        } else {
            continue;
        };
        out.push(Finding::new(
            file,
            Rule::Determinism,
            kind,
            t.line,
            format!(
                "`{what}` on the stable-output path ({}): prefer {instead}, or justify with \
                 `// lint: allow(determinism) — reason`",
                file.crate_name
            ),
        ));
    }
    out
}

/// Crates whose model arithmetic must not call the host libm.
const MODEL_CRATES: [&str; 2] = ["neural", "ovs-core"];

/// `Some(".exp()")` / `Some(".tanh()")` when token `i` is the `.` of such
/// a method call in a model crate.
fn libm_method_call(file: &SourceFile, i: usize) -> Option<&'static str> {
    if !MODEL_CRATES.contains(&file.crate_name.as_str()) {
        return None;
    }
    let t = |k| crate::lexer::tok(&file.tokens, i + k);
    if !t(0).is_punct('.') || !t(2).is_punct('(') {
        return None;
    }
    if t(1).is_ident("exp") {
        Some(".exp()")
    } else if t(1).is_ident("tanh") {
        Some(".tanh()")
    } else {
        None
    }
}

/// True when token `i` is `base` followed by `:: member` with `member`
/// in `members` (matches both `std::env::var(..)` and `env::var(..)`).
fn is_path_call(file: &SourceFile, i: usize, base: &str, members: &[&str]) -> bool {
    let t = crate::lexer::tok(&file.tokens, i);
    if !t.is_ident(base) {
        return false;
    }
    let c1 = file.tokens.get(i + 1);
    let c2 = file.tokens.get(i + 2);
    let m = file.tokens.get(i + 3);
    matches!((c1, c2), (Some(a), Some(b)) if a.is_punct(':') && b.is_punct(':'))
        && matches!(m, Some(t) if members.iter().any(|mm| t.is_ident(mm)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn run(src: &str) -> Vec<Finding> {
        determinism_pass(&SourceFile::new("f.rs", "simulator", FileKind::Lib, src))
    }

    #[test]
    fn flags_hashmap_and_wall_clock() {
        let f = run("use std::collections::HashMap;\nlet t = std::time::Instant::now();");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].kind, "hashmap");
        assert_eq!(f[1].kind, "wall-clock");
    }

    #[test]
    fn flags_env_reads_but_not_env_ident_alone() {
        assert_eq!(run("let v = std::env::var(\"X\");").len(), 1);
        assert_eq!(run("let env = 3; let w = env + 1;").len(), 0);
    }

    #[test]
    fn test_code_is_exempt() {
        let f = run("#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n}");
        assert!(f.is_empty());
    }

    #[test]
    fn flags_libm_activations_only_in_model_crates() {
        let src = "let y = (-x).exp() + x.tanh();\nlet z = x.ln() + exp(x) + m.exp;";
        for krate in ["neural", "ovs-core"] {
            let f = determinism_pass(&SourceFile::new("f.rs", krate, FileKind::Lib, src));
            assert_eq!(f.len(), 2, "{krate}");
            assert!(f.iter().all(|f| f.kind == "libm" && f.line == 1));
        }
        assert!(run(src).is_empty());
    }

    #[test]
    fn btree_is_fine() {
        assert!(run("use std::collections::{BTreeMap, BTreeSet};").is_empty());
    }
}
