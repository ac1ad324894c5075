//! Workspace symbol table and intra-crate call-graph approximation.
//!
//! The cross-file passes (rules C, M and A) need more than a per-file
//! token stream: they must know which functions exist, what they call,
//! which ones acquire locks, and which ones sit on the hot training
//! path. This module builds that view syntactically from the lexed
//! token streams — no type information, no name resolution beyond
//! "same crate, same identifier", which is deliberately conservative:
//!
//! * **Function index** — every `fn` item with a body, attributed to its
//!   crate, file and (when inside an `impl Type` block) its type.
//! * **String-constant index** — `const NAME: &str = "…";` items, so a
//!   metric registered as `reg.counter(m::RUNS)` resolves to the literal
//!   name declared in a sibling file of the same crate.
//! * **Call edges** — `ident(` inside a body is an edge to every same-
//!   crate function with that name. Method calls conflate across types;
//!   for the properties linted here (lock acquisition, heap allocation)
//!   over-approximation is the safe direction, and it is also what makes
//!   `dyn Layer` dispatch visible without type analysis.
//! * **Locking closure** — a function is *locking* when its body calls
//!   `.lock()` / `.read()` / `.write()` with no arguments (the std
//!   `Mutex`/`RwLock` acquisition shapes) or calls a same-crate locking
//!   function. Rule C flags guards held across calls into these.
//! * **Hot closure** — a function is *hot* when it mentions
//!   [`Workspace`] in its signature, is a method of `Workspace` itself,
//!   carries a `// lint: hot` annotation, or is called (same crate) by a
//!   hot function. A `// lint: cold` annotation is the inverse barrier:
//!   the closure never marks such a function nor propagates through it —
//!   used for legacy allocating APIs (`Matrix::map`) and for warmup-only
//!   constructors (per-shape layer state). Rule A flags heap-
//!   allocating constructs inside hot functions, making the zero-alloc
//!   invariant reviewable statically.
//!
//! [`Workspace`]: https://docs.rs/ (neural::workspace::Workspace)

use crate::lexer::{tok, TokKind, Token};
use crate::source::{is_keyword, FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// `flags[id]` for the per-fn bit vectors, tolerating an out-of-range id.
fn flag(flags: &[bool], id: usize) -> bool {
    flags.get(id).copied().unwrap_or(false)
}

/// One `fn` item with a body.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare function name.
    pub name: String,
    /// `Type::name` inside an `impl Type` block, else the bare name.
    pub qual: String,
    /// Index of the owning file in the [`WorkspaceIndex`] file list.
    pub file_ix: usize,
    /// Owning crate.
    pub crate_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[fn, {)` of the signature in the owning file.
    pub sig: (usize, usize),
    /// Token range `[{, }]` of the body in the owning file (inclusive).
    pub body: (usize, usize),
    /// True inside `#[cfg(test)]` / `#[test]` regions or test-like files.
    pub is_test: bool,
    /// Carries a `// lint: hot` annotation.
    pub hot_annotated: bool,
    /// Carries a `// lint: cold` annotation — a barrier the hot closure
    /// never enters (legacy allocating APIs, warmup-only constructors).
    pub cold_annotated: bool,
    /// Signature mentions `Workspace`, or the fn is an `impl Workspace`
    /// method — the hot-path roots.
    pub workspace_root: bool,
    /// Body acquires a std lock directly (`.lock()`/`.read()`/`.write()`
    /// with empty argument lists).
    pub locks_directly: bool,
    /// Names this body calls (`ident(` and `.ident(`), deduplicated.
    pub calls: BTreeSet<String>,
}

/// A `const NAME: &str = "value";` item.
#[derive(Debug, Clone)]
pub struct StrConst {
    /// Constant name.
    pub name: String,
    /// The literal value.
    pub value: String,
}

/// Cross-file facts for one whole `check` run.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Every function with a body, in file order.
    pub fns: Vec<FnInfo>,
    /// `(crate, fn name) -> fn ids` — the call-graph edge target set.
    by_name: BTreeMap<(String, String), Vec<usize>>,
    /// `(crate, const name) -> literal value`.
    consts: BTreeMap<(String, String), String>,
    /// Per-fn: acquires a lock directly or transitively (same crate).
    locking: Vec<bool>,
    /// Per-fn: on the hot path (workspace root, annotated, or reachable
    /// from one within its crate).
    hot: Vec<bool>,
}

impl WorkspaceIndex {
    /// Builds the index over every analysed file.
    pub fn build(files: &[SourceFile]) -> Self {
        let mut idx = WorkspaceIndex::default();
        for (file_ix, file) in files.iter().enumerate() {
            scan_file(file, file_ix, &mut idx);
        }
        for (id, f) in idx.fns.iter().enumerate() {
            idx.by_name
                .entry((f.crate_name.clone(), f.name.clone()))
                .or_default()
                .push(id);
        }
        idx.locking = idx.closure(|f| f.locks_directly, Direction::CalleeToCaller);
        idx.hot = idx.closure(
            |f| !f.is_test && !f.cold_annotated && (f.workspace_root || f.hot_annotated),
            Direction::CallerToCallee,
        );
        idx
    }

    /// The functions of `files[file_ix]`, in declaration order.
    pub fn fns_in_file(&self, file_ix: usize) -> impl Iterator<Item = (usize, &FnInfo)> {
        self.fns
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.file_ix == file_ix)
    }

    /// Resolves a constant by trailing path segment within `crate_name`.
    pub fn const_value(&self, crate_name: &str, name: &str) -> Option<&str> {
        self.consts
            .get(&(crate_name.to_string(), name.to_string()))
            .map(String::as_str)
    }

    /// True when the call edge (see [`call_edge`]) can reach a locking
    /// function in `crate_name`.
    pub fn is_locking_call(&self, crate_name: &str, edge: &str) -> bool {
        self.edge_targets(crate_name, edge)
            .iter()
            .any(|&id| flag(&self.locking, id))
    }

    /// True when fn `id` is on the hot path.
    pub fn is_hot(&self, id: usize) -> bool {
        flag(&self.hot, id)
    }

    /// True when fn `id` acquires locks directly or transitively.
    pub fn is_locking(&self, id: usize) -> bool {
        flag(&self.locking, id)
    }

    /// The hot-path function set of one crate, as `Type::name` qualified
    /// names — what the reachability regression test asserts against.
    pub fn hot_set(&self, crate_name: &str) -> BTreeSet<String> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(id, f)| f.crate_name == crate_name && flag(&self.hot, *id))
            .map(|(_, f)| f.qual.clone())
            .collect()
    }

    /// Monotone fixed point of `seed` propagated along same-crate call
    /// edges in the given direction.
    fn closure(&self, seed: impl Fn(&FnInfo) -> bool, dir: Direction) -> Vec<bool> {
        let mut marked: Vec<bool> = self.fns.iter().map(&seed).collect();
        loop {
            let mut changed = false;
            for (id, f) in self.fns.iter().enumerate() {
                match dir {
                    // Locking: a caller of a marked callee becomes marked.
                    Direction::CalleeToCaller if !flag(&marked, id) => {
                        let calls_marked = f.calls.iter().any(|callee| {
                            self.edge_targets(&f.crate_name, callee)
                                .iter()
                                .any(|&t| flag(&marked, t))
                        });
                        if calls_marked {
                            if let Some(m) = marked.get_mut(id) {
                                *m = true;
                                changed = true;
                            }
                        }
                    }
                    // Hot: the callees of a marked caller become marked.
                    Direction::CallerToCallee if flag(&marked, id) => {
                        for callee in &f.calls {
                            for t in self.edge_targets(&f.crate_name, callee) {
                                // `cold` fns are barriers: reachability
                                // stops at (and never propagates through)
                                // a documented legacy allocating API or
                                // warmup-only constructor.
                                let barrier = self
                                    .fns
                                    .get(t)
                                    .is_none_or(|g| g.is_test || g.cold_annotated);
                                if !flag(&marked, t) && !barrier {
                                    if let Some(m) = marked.get_mut(t) {
                                        *m = true;
                                        changed = true;
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            if !changed {
                return marked;
            }
        }
    }

    /// Resolves a call edge to candidate same-crate functions.
    ///
    /// * `.name` (method call) — every fn named `name`: receiver types
    ///   are unknown at token level, and this conflation is exactly what
    ///   makes `dyn Layer` dispatch visible;
    /// * `Qual::name` (path call) — only fns whose qualified name
    ///   matches, so `Adam::new` does not drag in every other `new`;
    /// * `name` (bare call) — free functions only.
    fn edge_targets(&self, crate_name: &str, edge: &str) -> Vec<usize> {
        let (name, filter): (&str, Option<&str>) = if let Some(m) = edge.strip_prefix('.') {
            (m, None)
        } else if let Some((_, m)) = edge.rsplit_once("::") {
            (m, Some(edge))
        } else {
            (edge, Some(edge))
        };
        let Some(ids) = self
            .by_name
            .get(&(crate_name.to_string(), name.to_string()))
        else {
            return Vec::new();
        };
        ids.iter()
            .copied()
            .filter(|&id| filter.is_none_or(|q| self.fns.get(id).is_some_and(|f| f.qual == q)))
            .collect()
    }
}

/// Classifies the call at token `i` (an identifier) into a call-graph
/// edge: `.name` for method calls, `Qual::name` for path calls (last
/// path segment qualifies), bare `name` for free-fn calls. `None` when
/// the token is not a call site.
pub fn call_edge(toks: &[Token], i: usize) -> Option<String> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident || is_keyword(&t.text) {
        return None;
    }
    if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    let prev = i.checked_sub(1).map(|p| tok(toks, p));
    if prev.is_some_and(|p| p.is_ident("fn")) {
        return None; // a definition, not a call
    }
    if prev.is_some_and(|p| p.is_punct('.')) {
        return Some(format!(".{}", t.text));
    }
    if i >= 3 && tok(toks, i - 1).is_punct(':') && tok(toks, i - 2).is_punct(':') {
        let q = tok(toks, i - 3);
        if q.kind == TokKind::Ident {
            return Some(format!("{}::{}", q.text, t.text));
        }
        return None; // `::<…>::call` shapes we don't resolve
    }
    Some(t.text.clone())
}

#[derive(Debug, Clone, Copy)]
enum Direction {
    /// Propagate from callee to caller (transitive "calls into").
    CalleeToCaller,
    /// Propagate from caller to callee (reachability).
    CallerToCallee,
}

/// Scans one file for `impl` context, `fn` items and string constants.
fn scan_file(file: &SourceFile, file_ix: usize, idx: &mut WorkspaceIndex) {
    let toks = &file.tokens;
    // Stack of `(brace_depth_when_opened, type_name)` for impl blocks.
    let mut impls: Vec<(i32, String)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = tok(toks, i);
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            if let Some(&(d, _)) = impls.last() {
                if depth < d {
                    impls.pop();
                }
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((type_name, open_ix)) = impl_type_name(toks, i) {
                impls.push((depth + 1, type_name));
                depth += 1;
                i = open_ix + 1;
                continue;
            }
        }
        // `trait T { … }` qualifies its default methods just like an
        // impl block: the trait name is the first ident after `trait`.
        if t.is_ident("trait") {
            if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                let mut j = i + 2;
                while j < toks.len() && !tok(toks, j).is_punct('{') && !tok(toks, j).is_punct(';') {
                    j += 1;
                }
                if toks.get(j).is_some_and(|b| b.is_punct('{')) {
                    impls.push((depth + 1, name.text.clone()));
                    depth += 1;
                    i = j + 1;
                    continue;
                }
            }
        }
        if t.is_ident("const") {
            if let Some((c, next)) = scan_const(toks, i) {
                idx.consts
                    .insert((file.crate_name.clone(), c.name.clone()), c.value);
                i = next;
                continue;
            }
        }
        if t.is_ident("fn") {
            if let Some(mut f) = scan_fn(file, toks, i) {
                f.file_ix = file_ix;
                if let Some((_, ty)) = impls.last() {
                    f.qual = format!("{ty}::{}", f.name);
                    if ty == "Workspace" {
                        f.workspace_root = true;
                    }
                    // `Self::helper(…)` edges resolve against the impl type.
                    let selfs: Vec<String> = f
                        .calls
                        .iter()
                        .filter(|c| c.starts_with("Self::"))
                        .cloned()
                        .collect();
                    for s in selfs {
                        f.calls.remove(&s);
                        if let Some(rest) = s.strip_prefix("Self::") {
                            f.calls.insert(format!("{ty}::{rest}"));
                        }
                    }
                }
                // The body braces were consumed by the fn scan; resume
                // after it without disturbing `depth`.
                let next = f.body.1 + 1;
                idx.fns.push(f);
                i = next;
                continue;
            }
        }
        i += 1;
    }
}

/// For an `impl` at token `i`, the implemented type name and the index
/// of the opening `{`. Handles `impl Type`, `impl<T> Type<T>`,
/// `impl Trait for Type` and trait paths; gives up (returns `None`) on
/// shapes it does not understand, which merely loses impl attribution.
fn impl_type_name(toks: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    // Skip generic parameter list.
    j = skip_angles(toks, j);
    // Collect path segments until `for`, `{` or `where`.
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < toks.len() {
        let t = tok(toks, j);
        if t.is_punct('{') {
            let name = if saw_for { after_for } else { last_ident };
            return name.map(|n| (n, j));
        }
        if t.is_ident("for") {
            saw_for = true;
            j += 1;
            continue;
        }
        if t.is_ident("where") {
            // Skip the clause up to the opening brace.
            while j < toks.len() && !tok(toks, j).is_punct('{') {
                j += 1;
            }
            continue;
        }
        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            if saw_for {
                after_for = Some(t.text.clone());
            } else {
                last_ident = Some(t.text.clone());
            }
            j = skip_angles(toks, j + 1);
            continue;
        }
        j += 1;
    }
    None
}

/// Skips a balanced `<…>` group starting at `j`, if present.
fn skip_angles(toks: &[Token], j: usize) -> usize {
    if !toks.get(j).is_some_and(|t| t.is_punct('<')) {
        return j;
    }
    let mut depth = 0i32;
    let mut k = j;
    while k < toks.len() {
        if tok(toks, k).is_punct('<') {
            depth += 1;
        } else if tok(toks, k).is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        } else if tok(toks, k).is_punct('{') || tok(toks, k).is_punct(';') {
            // Not a generic list after all (comparison operator).
            return j;
        }
        k += 1;
    }
    j
}

/// Scans a `const NAME: … str … = "value";` item at token `i`. Returns
/// the constant and the index past the terminating `;`.
fn scan_const(toks: &[Token], i: usize) -> Option<(StrConst, usize)> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident || is_keyword(&name_tok.text) {
        return None; // `const fn`, `const {`, associated const generics…
    }
    if !toks.get(i + 2)?.is_punct(':') {
        return None;
    }
    let mut j = i + 3;
    let mut saw_str_type = false;
    while j < toks.len() && !tok(toks, j).is_punct('=') {
        if tok(toks, j).is_punct(';') || tok(toks, j).is_punct('{') {
            return None;
        }
        if tok(toks, j).is_ident("str") {
            saw_str_type = true;
        }
        j += 1;
    }
    let value_tok = toks.get(j + 1)?;
    let value = value_tok.str_content()?;
    if !saw_str_type || !toks.get(j + 2)?.is_punct(';') {
        return None;
    }
    Some((
        StrConst {
            name: name_tok.text.clone(),
            value: value.to_string(),
        },
        j + 3,
    ))
}

/// Scans the `fn` item starting at token `i`; `None` for body-less trait
/// method declarations.
fn scan_fn(file: &SourceFile, toks: &[Token], i: usize) -> Option<FnInfo> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // Signature: up to the first `{` or `;` at bracket depth zero.
    let mut j = i + 2;
    let mut depth = 0i32;
    let body_open = loop {
        let t = toks.get(j)?;
        if depth == 0 && t.is_punct(';') {
            return None; // declaration without a body
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            break j;
        }
        j += 1;
    };
    // Body: match the braces.
    let mut k = body_open + 1;
    let mut bdepth = 1i32;
    while k < toks.len() && bdepth > 0 {
        if tok(toks, k).is_punct('{') {
            bdepth += 1;
        } else if tok(toks, k).is_punct('}') {
            bdepth -= 1;
        }
        k += 1;
    }
    let body_close = k - 1;

    let workspace_root = toks
        .get(i..body_open)
        .unwrap_or(&[])
        .iter()
        .any(|t| t.is_ident("Workspace"));
    let mut calls = BTreeSet::new();
    let mut locks_directly = false;
    for c in body_open..body_close {
        let t = tok(toks, c);
        if t.kind != TokKind::Ident || is_keyword(&t.text) {
            continue;
        }
        if let Some(edge) = call_edge(toks, c) {
            let prev = c.checked_sub(1).map(|p| tok(toks, p));
            calls.insert(edge);
            if prev.is_some_and(|p| p.is_punct('.'))
                && matches!(t.text.as_str(), "lock" | "read" | "write")
                && toks.get(c + 2).is_some_and(|n| n.is_punct(')'))
            {
                locks_directly = true;
            }
        }
    }

    let line = tok(toks, i).line;
    let annotated = |word: &str| {
        file.comments.iter().any(|c| {
            c.line + 2 >= line
                && c.line <= line
                && c.text
                    .split_once("lint:")
                    .map(|(_, rest)| rest.trim_start().starts_with(word))
                    .unwrap_or(false)
        })
    };
    let hot_annotated = annotated("hot");
    let cold_annotated = annotated("cold");

    Some(FnInfo {
        name: name_tok.text.clone(),
        qual: name_tok.text.clone(),
        file_ix: 0,
        crate_name: file.crate_name.clone(),
        line,
        sig: (i, body_open),
        body: (body_open, body_close),
        is_test: file.kind == FileKind::TestLike || file.in_test.get(i).copied().unwrap_or(false),
        hot_annotated,
        cold_annotated,
        workspace_root,
        locks_directly,
        calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn index(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, WorkspaceIndex) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(path, src)| SourceFile::new(path, "x", FileKind::Lib, src))
            .collect();
        let idx = WorkspaceIndex::build(&files);
        (files, idx)
    }

    fn fn_by_name<'a>(idx: &'a WorkspaceIndex, name: &str) -> (usize, &'a FnInfo) {
        idx.fns
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not indexed"))
    }

    #[test]
    fn fns_and_impl_methods_are_indexed() {
        let (_, idx) = index(&[(
            "a.rs",
            "struct S;\nimpl S {\n    fn method(&self) -> u32 { helper() }\n}\nfn helper() -> u32 { 1 }\n",
        )]);
        assert_eq!(idx.fns.len(), 2);
        let (_, m) = fn_by_name(&idx, "method");
        assert_eq!(m.qual, "S::method");
        assert!(m.calls.contains("helper"));
        let (_, h) = fn_by_name(&idx, "helper");
        assert_eq!(h.qual, "helper");
    }

    #[test]
    fn trait_decls_without_bodies_are_skipped() {
        let (_, idx) = index(&[(
            "a.rs",
            "trait T {\n    fn decl(&self) -> u32;\n    fn with_default(&self) -> u32 { 2 }\n}\n",
        )]);
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "with_default");
        assert_eq!(idx.fns[0].qual, "T::with_default");
    }

    #[test]
    fn consts_resolve_across_files_within_a_crate() {
        let (_, idx) = index(&[
            ("m.rs", "pub const RUNS: &str = \"sim_runs_total\";\n"),
            ("e.rs", "fn f() {}\n"),
        ]);
        assert_eq!(idx.const_value("x", "RUNS"), Some("sim_runs_total"));
        assert_eq!(idx.const_value("x", "OTHER"), None);
        assert_eq!(idx.const_value("y", "RUNS"), None);
    }

    #[test]
    fn locking_propagates_to_callers() {
        let (_, idx) = index(&[(
            "a.rs",
            "fn low(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n\
             fn mid(m: &std::sync::Mutex<u32>) -> u32 { low(m) }\n\
             fn free() -> u32 { 3 }\n",
        )]);
        let (low, _) = fn_by_name(&idx, "low");
        let (mid, _) = fn_by_name(&idx, "mid");
        let (free, _) = fn_by_name(&idx, "free");
        assert!(idx.is_locking(low));
        assert!(idx.is_locking(mid), "locking must propagate to callers");
        assert!(!idx.is_locking(free));
        assert!(idx.is_locking_call("x", "mid"));
        assert!(!idx.is_locking_call("x", "free"));
    }

    #[test]
    fn io_read_with_arguments_is_not_lock_acquisition() {
        let (_, idx) = index(&[(
            "a.rs",
            "fn io(r: &mut impl std::io::Read, buf: &mut [u8]) { let _ = r.read(buf); }\n",
        )]);
        let (io, _) = fn_by_name(&idx, "io");
        assert!(!idx.is_locking(io));
    }

    #[test]
    fn hot_propagates_from_workspace_roots_and_annotations() {
        let (_, idx) = index(&[(
            "a.rs",
            "fn forward_ws(ws: &mut Workspace) { kernel() }\n\
             fn kernel() { deep() }\n\
             fn deep() {}\n\
             // lint: hot — annotated root\n\
             fn annotated() { deep2() }\n\
             fn deep2() {}\n\
             fn cold() {}\n",
        )]);
        for name in ["forward_ws", "kernel", "deep", "annotated", "deep2"] {
            let (id, _) = fn_by_name(&idx, name);
            assert!(idx.is_hot(id), "{name} must be hot");
        }
        let (cold, _) = fn_by_name(&idx, "cold");
        assert!(!idx.is_hot(cold));
        let hot = idx.hot_set("x");
        assert!(hot.contains("forward_ws") && hot.contains("deep2"));
    }

    #[test]
    fn cold_annotation_is_a_propagation_barrier() {
        let (_, idx) = index(&[(
            "a.rs",
            "// lint: cold — compat shim, allocating path by design\n\
             fn forward_ws(ws: &mut Workspace) { legacy() }\n\
             fn legacy() { helper() }\n\
             fn helper() {}\n",
        )]);
        for name in ["forward_ws", "legacy", "helper"] {
            let (id, _) = fn_by_name(&idx, name);
            assert!(!idx.is_hot(id), "{name} must stay cold behind the barrier");
        }
    }

    #[test]
    fn cold_callee_stops_propagation_but_siblings_stay_hot() {
        let (_, idx) = index(&[(
            "a.rs",
            "fn step(ws: &mut Workspace) { init(); kernel(); }\n\
             // lint: cold — warmup-only constructor\n\
             fn init() { build() }\n\
             fn build() {}\n\
             fn kernel() {}\n",
        )]);
        let (k, _) = fn_by_name(&idx, "kernel");
        assert!(idx.is_hot(k));
        for name in ["init", "build"] {
            let (id, _) = fn_by_name(&idx, name);
            assert!(!idx.is_hot(id), "{name} must stay cold");
        }
    }

    #[test]
    fn workspace_impl_methods_are_roots() {
        let (_, idx) = index(&[(
            "w.rs",
            "pub struct Workspace;\nimpl Workspace {\n    fn take_buf(&mut self, n: usize) {}\n}\n",
        )]);
        let (id, f) = fn_by_name(&idx, "take_buf");
        assert_eq!(f.qual, "Workspace::take_buf");
        assert!(idx.is_hot(id));
    }

    #[test]
    fn test_fns_are_not_hot_roots() {
        let (_, idx) = index(&[(
            "a.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(ws: &mut Workspace) { helper(); }\n}\nfn helper() {}\n",
        )]);
        let (id, f) = fn_by_name(&idx, "t");
        assert!(f.is_test);
        assert!(!idx.is_hot(id));
        let (h, _) = fn_by_name(&idx, "helper");
        assert!(!idx.is_hot(h), "test callers must not mark lib fns hot");
    }
}
