//! Rule X — dead public API.
//!
//! A `pub fn` in `crates/*/src` that no non-test code names is an API
//! only tests reach: its tests pin behaviour nothing runs, and it grows
//! the surface every refactor must carry. The pass reads the use set of
//! the [`WorkspaceIndex`]: every identifier named in non-test code of
//! every crate, the root package, the examples and the benchmark harness
//! (`citybench/src`, read only for its uses). Names in comments and doc
//! links do not count. Trait-impl methods and `pub(crate)` items are not
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
}
