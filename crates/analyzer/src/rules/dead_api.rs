//! Rule X — dead public API.
//!
//! A `pub fn` in `crates/*/src` that no non-test code names is an API
//! only tests reach: its tests pin behaviour nothing runs, and it grows
//! the surface every refactor must carry. The pass reads the use set of
//! the [`WorkspaceIndex`]: every identifier named in non-test code of
//! every crate, the root package, the examples and the benchmark harness
//! (`citybench/src`, read only for its uses). Names in comments and doc
//! links do not count, and neither do fields and `let` bindings that share
//! a function's name: `self.stride` and `stride: 2` are not calls of a
//! `stride()` method. Trait-impl methods and `pub(crate)` items are not
//! plain `pub` and are skipped.
//!
//! Items public on purpose (gradient checkers, invariant checkers,
//! fault-injection hooks) carry `// lint: allow(dead_api) — reason`.

use super::{Finding, Rule};
use crate::source::SourceFile;
use crate::symbols::WorkspaceIndex;

/// Flags the unused plain-`pub` functions of `files[file_ix]`.
pub fn dead_api_pass(file: &SourceFile, file_ix: usize, idx: &WorkspaceIndex) -> Vec<Finding> {
    if !file.path.starts_with("crates/") {
        return Vec::new();
    }
    idx.fns_in_file(file_ix)
        .filter(|(_, f)| f.public && !f.is_test && !idx.is_used(&f.name))
        .map(|(_, f)| {
            Finding::new(
                file,
                Rule::DeadApi,
                "dead-api",
                f.line,
                format!(
                    "`{}` is `pub` but no non-test code names it; delete it, or mark it \
                     `// lint: allow(dead_api) — reason` if it is public on purpose",
                    f.qual
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn run(files: &[(&str, FileKind, &str)]) -> Vec<String> {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(path, kind, src)| SourceFile::new(path, "a", *kind, src))
            .collect();
        let idx = WorkspaceIndex::build(&files);
        (0..files.len())
            .flat_map(|ix| dead_api_pass(&files[ix], ix, &idx))
            .map(|f| f.message.split('`').nth(1).unwrap_or_default().to_string())
            .collect()
    }

    #[test]
    fn a_use_declaration_alone_is_not_a_use() {
        let found = run(&[
            (
                "crates/a/src/lib.rs",
                FileKind::Lib,
                "pub use m::gone;\npub fn gone() {}\n",
            ),
            (
                "src/main.rs",
                FileKind::Lib,
                "use a::gone as kept;\nfn main() { kept() }\n",
            ),
        ]);
        assert!(
            found.is_empty(),
            "an aliased import names the item: {found:?}"
        );
        let found = run(&[(
            "crates/a/src/lib.rs",
            FileKind::Lib,
            "pub use m::gone;\npub fn gone() {}\n",
        )]);
        assert_eq!(found, ["gone"]);
    }

    #[test]
    fn qualifiers_keep_a_fn_public_and_files_outside_crates_are_not_reported() {
        let found = run(&[
            (
                "crates/a/src/lib.rs",
                FileKind::Lib,
                "pub const unsafe fn raw() {}\n",
            ),
            ("src/lib.rs", FileKind::Lib, "pub fn root_only() {}\n"),
        ]);
        assert_eq!(found, ["raw"]);
    }

    /// `crates/a`'s `pub fn len` and the caller `src`, linted together.
    fn len_flagged(src: &str) -> bool {
        let lib = "pub struct S { len: usize }\nimpl S { pub fn len(&self) -> usize { 0 } }\n";
        run(&[
            ("crates/a/src/lib.rs", FileKind::Lib, lib),
            ("src/main.rs", FileKind::Lib, src),
        ]) == ["S::len"]
    }

    #[test]
    fn a_field_read_or_key_named_like_a_fn_is_not_a_use() {
        assert!(len_flagged(
            "fn main() { let s = S { len: 1 }; f(s.len) }\n"
        ));
        assert!(len_flagged("struct T { len: u8 }\nfn main() {}\n"));
        // The end of a range is no field read.
        assert!(!len_flagged("fn main() { for _ in 0..len {} }\n"));
    }

    #[test]
    fn a_parameter_or_let_binding_named_like_a_fn_is_not_a_use() {
        assert!(len_flagged("fn f(len: usize) -> usize { len * 2 }\n"));
        assert!(len_flagged(
            "fn f() { let mut len = 0; len += 1; g(len) }\n"
        ));
        // The binding is local to its fn: a bare read elsewhere counts.
        assert!(!len_flagged("fn f(len: usize) {}\nfn g() { h(len) }\n"));
    }

    #[test]
    fn a_method_call_or_path_still_counts_as_a_use() {
        assert!(!len_flagged("fn main() { s.len(); }\n"));
        assert!(!len_flagged("fn main() { let f = S::len; }\n"));
        assert!(!len_flagged("fn f(len: usize) { s.len() + len }\n"));
    }
}
