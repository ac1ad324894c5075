//! Rule A — hot-path allocation.
//!
//! PR 8 made the training step allocation-free and locked it in with a
//! counting-allocator test (`neural/tests/zero_alloc.rs`). That test
//! only catches a regression after it lands; this pass makes the
//! invariant reviewable at lint time. Functions *reachable from the
//! `Workspace` step path* — any fn whose signature mentions `Workspace`,
//! any `impl Workspace` method, or anything annotated `// lint: hot`,
//! plus everything they (transitively, same-crate) call — must not
//! contain heap-allocating constructs:
//!
//! `Vec::new` / `Vec::with_capacity` / `vec![…]`, `Box::new`,
//! `String::new` / `String::from` / `format!`, `.to_vec()`,
//! `.to_string()`, `.to_owned()`, `.clone()` and `.collect()`
//! (kind `hot-alloc`).
//!
//! The reachability set is the caller→callee closure from
//! [`WorkspaceIndex::is_hot`]; name conflation across `impl` blocks is
//! deliberate — it is what makes `dyn Layer` dispatch visible to a
//! token-level analysis. Warm-up-only allocations (pool refills on a
//! miss) are real but intentional: suppress them with
//! `// lint: allow(alloc) — reason`.

use super::{Finding, Rule};
use crate::lexer::{tok, TokKind, Token};
use crate::source::SourceFile;
use crate::symbols::WorkspaceIndex;

/// `Type::method` pairs that allocate.
const PATH_ALLOCS: [(&str, &str); 5] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
];

/// `.method(` / `.method::<…>(` calls that allocate.
const METHOD_ALLOCS: [&str; 5] = ["to_vec", "to_string", "to_owned", "clone", "collect"];

/// Macros that allocate.
const MACRO_ALLOCS: [&str; 2] = ["vec", "format"];

/// Runs the hot-path allocation pass over one library file.
pub fn alloc_pass(file: &SourceFile, file_ix: usize, idx: &WorkspaceIndex) -> Vec<Finding> {
    let mut out = Vec::new();
    for (id, f) in idx.fns_in_file(file_ix) {
        if f.is_test || !idx.is_hot(id) {
            continue;
        }
        scan_body(file, &f.qual, f.body.0, f.body.1, &mut out);
    }
    out
}

fn scan_body(
    file: &SourceFile,
    qual: &str,
    body_open: usize,
    body_close: usize,
    out: &mut Vec<Finding>,
) {
    let toks = &file.tokens;
    for i in (body_open + 1)..body_close {
        if file.masked(i) {
            continue;
        }
        let t = tok(toks, i);
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some(construct) = alloc_construct(toks, i, t) {
            out.push(Finding::new(
                file,
                Rule::Alloc,
                "hot-alloc",
                t.line,
                format!(
                    "`{construct}` allocates inside `{qual}`, which is reachable from \
                     the Workspace step path: reuse a workspace buffer (`take`/`give`) \
                     or hoist the allocation out of the step loop"
                ),
            ));
        }
    }
}

/// If the identifier at `i` is an allocating construct, its display name.
fn alloc_construct(toks: &[Token], i: usize, t: &Token) -> Option<String> {
    // `Type::method(` — require the *pair* so `Matrix::new` stays clean.
    for (ty, m) in PATH_ALLOCS {
        if t.is_ident(ty)
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident(m))
        {
            return Some(format!("{ty}::{m}"));
        }
    }
    // `vec![…]` / `format!(…)`.
    for m in MACRO_ALLOCS {
        if t.is_ident(m) && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            return Some(format!("{m}!"));
        }
    }
    // `.to_vec(` / `.clone(` / `.collect(` / `.collect::<…>(`.
    let dotted = i.checked_sub(1).is_some_and(|p| tok(toks, p).is_punct('.'));
    if dotted {
        for m in METHOD_ALLOCS {
            if t.is_ident(m) {
                let next = toks.get(i + 1);
                let called = next.is_some_and(|n| n.is_punct('(') || n.is_punct(':'));
                if called {
                    return Some(format!(".{m}()"));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};
    use crate::symbols::WorkspaceIndex;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::new("f.rs", "neural", FileKind::Lib, src);
        let files = vec![f];
        let idx = WorkspaceIndex::build(&files);
        alloc_pass(&files[0], 0, &idx)
    }

    #[test]
    fn allocation_in_workspace_fn_is_flagged() {
        let src = "\
use crate::workspace::Workspace;
fn step(ws: &mut Workspace) -> Vec<f64> {
    let v = Vec::new();
    v
}
";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "hot-alloc");
        assert!(f[0].message.contains("Vec::new"));
    }

    #[test]
    fn allocation_reached_through_a_call_is_flagged() {
        let src = "\
use crate::workspace::Workspace;
fn helper(n: usize) -> Vec<f64> {
    vec![0.0; n]
}
fn step(ws: &mut Workspace, n: usize) -> Vec<f64> {
    helper(n)
}
";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("vec!"));
        assert!(f[0].message.contains("helper"));
    }

    #[test]
    fn lint_hot_annotation_roots_the_set() {
        let src = "\
// lint: hot — called from the step loop via dyn dispatch
fn apply(x: &mut [f64]) {
    let s = format!(\"{}\", x.len());
    let _ = s;
}
";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("format!"));
    }

    #[test]
    fn cold_functions_may_allocate() {
        let src = "\
fn build(n: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(n);
    v.extend((0..n).map(|_| 0.0));
    v.clone()
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn clone_and_collect_on_hot_path_are_flagged() {
        let src = "\
use crate::workspace::Workspace;
fn step(ws: &mut Workspace, xs: &[f64]) -> f64 {
    let ys = xs.to_vec();
    let zs: Vec<f64> = ys.iter().map(|v| v * 2.0).collect();
    let s = zs.clone();
    s.iter().sum()
}
";
        let mut kinds: Vec<String> = run(src)
            .into_iter()
            .map(|f| f.message.split('`').nth(1).unwrap_or_default().to_string())
            .collect();
        kinds.sort();
        assert_eq!(kinds, [".clone()", ".collect()", ".to_vec()"]);
    }

    #[test]
    fn non_allocating_paths_named_new_are_clean() {
        let src = "\
use crate::workspace::Workspace;
fn step(ws: &mut Workspace) -> f64 {
    let m = Matrix::new(3, 3);
    m.sum()
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_functions_are_exempt() {
        let src = "\
use crate::workspace::Workspace;
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let mut ws = super::Workspace::new();
        let v: Vec<f64> = Vec::new();
        let _ = (v, &mut ws);
    }
}
";
        assert!(run(src).is_empty());
    }
}
