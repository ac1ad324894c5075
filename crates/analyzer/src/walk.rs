//! Workspace discovery: which `.rs` files exist, which crate owns them,
//! and whether they are library or test-like code.

use crate::source::FileKind;
use std::path::{Path, PathBuf};

/// One file scheduled for analysis.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Owning crate (directory name under `crates/`, or the root package).
    pub crate_name: String,
    /// Library vs test-like location.
    pub kind: FileKind,
}

/// Name used for files belonging to the workspace root package.
pub const ROOT_CRATE: &str = "city-od";

/// Directory subtrees never analysed: build output, vendored stand-ins
/// (external code, not ours to lint) and the analyzer's own deliberately
/// violating test fixtures.
const SKIP: [&str; 3] = ["target", "vendor", "crates/analyzer/tests/fixtures"];

/// Finds every analysable `.rs` file under `root`.
pub fn discover(root: &Path) -> std::io::Result<Vec<WorkItem>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        // Sorted traversal keeps output and JSON byte-stable across
        // platforms and runs.
        entries.sort();
        for path in entries {
            let rel = relpath(root, &path);
            if SKIP.iter().any(|s| rel == *s) || rel.starts_with('.') {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                if let Some((crate_name, kind)) = classify(&rel) {
                    out.push(WorkItem {
                        abs: path,
                        rel,
                        crate_name,
                        kind,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

/// Workspace-relative `/`-separated path.
fn relpath(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Maps a relative path to `(crate, kind)`; `None` for files outside any
/// analysable tree (e.g. stray scripts).
fn classify(rel: &str) -> Option<(String, FileKind)> {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", c, "src", ..] => Some((c.to_string(), FileKind::Lib)),
        ["crates", c, "tests" | "examples" | "benches", ..] => {
            Some((c.to_string(), FileKind::TestLike))
        }
        ["src", ..] => Some((ROOT_CRATE.to_string(), FileKind::Lib)),
        ["tests" | "examples" | "benches", ..] => {
            Some((ROOT_CRATE.to_string(), FileKind::TestLike))
        }
        ["citybench", "src", ..] => Some(("citybench".to_string(), FileKind::External)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(
            classify("crates/simulator/src/engine.rs"),
            Some(("simulator".into(), FileKind::Lib))
        );
        assert_eq!(
            classify("crates/neural/tests/gradcheck.rs"),
            Some(("neural".into(), FileKind::TestLike))
        );
        assert_eq!(
            classify("src/bin/cityod.rs"),
            Some((ROOT_CRATE.into(), FileKind::Lib))
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            Some((ROOT_CRATE.into(), FileKind::TestLike))
        );
        assert_eq!(
            classify("citybench/src/main.rs"),
            Some(("citybench".into(), FileKind::External))
        );
        assert_eq!(classify("citybench/build.rs"), None);
        assert_eq!(classify("build.rs"), None);
    }
}
