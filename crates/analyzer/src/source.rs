//! Per-file analysis context: lexed tokens, test-region mask, allow
//! annotations and crate attribution.

use crate::lexer::{lex, tok, Comment, Lexed, TokKind, Token};
use crate::rules::Rule;

/// Where a file sits relative to the library/test split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<c>/src/**` or the root `src/**` — library code.
    Lib,
    /// `tests/`, `examples/`, `benches/` — never on the stable path.
    TestLike,
    /// The benchmark harness (`citybench/src/**`), outside the workspace:
    /// read only for the uses it makes of the public API, never linted.
    External,
}

/// An `// lint: allow(<rule>) — reason` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the annotation is on.
    pub line: u32,
    /// Rule being suppressed.
    pub rule: Rule,
    /// Whether a non-empty justification follows the rule name.
    pub has_reason: bool,
}

/// One source file, lexed and classified, ready for the rule passes.
pub struct SourceFile {
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// Owning crate name (e.g. `simulator`), or the root package name.
    pub crate_name: String,
    /// Library vs test-like location.
    pub kind: FileKind,
    /// Token stream (comments and literal bodies stripped).
    pub tokens: Vec<Token>,
    /// Per-token flag: true when the token is inside a `#[cfg(test)]`
    /// item or a `#[test]` function.
    pub in_test: Vec<bool>,
    /// Comment side channel.
    pub comments: Vec<Comment>,
    /// Allow annotations parsed from the comments.
    pub allows: Vec<Allow>,
    /// Raw source lines, for snippets.
    pub lines: Vec<String>,
}

impl SourceFile {
    /// Lexes and classifies one file.
    pub fn new(path: &str, crate_name: &str, kind: FileKind, src: &str) -> Self {
        let Lexed { tokens, comments } = lex(src);
        let in_test = test_mask(&tokens);
        let allows = parse_allows(&comments);
        Self {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            tokens,
            in_test,
            comments,
            allows,
            lines: src.lines().map(str::to_string).collect(),
        }
    }

    /// True when token `i` is inside a test region (see [`test_mask`]).
    pub fn masked(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// The trimmed source text of a 1-based line, for finding snippets.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// True when a finding of `rule` at `line` is suppressed by an allow
    /// annotation on the same line or up to two lines above it.
    pub fn is_allowed(&self, rule: Rule, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.has_reason && a.line <= line && line <= a.line + 2)
    }

    /// True when some comment within `above..=line` contains `needle`
    /// (used for `SAFETY:` lookup).
    pub fn comment_near(&self, line: u32, above: u32, needle: &str) -> bool {
        let lo = line.saturating_sub(above);
        self.comments
            .iter()
            .any(|c| c.line >= lo && c.line <= line && c.text.contains(needle))
    }
}

/// Computes the per-token test mask: tokens covered by a `#[cfg(test)]`
/// item (typically `mod tests { … }`) or a `#[test]` function.
///
/// The walk is syntactic: after a matching attribute (and any further
/// attributes), the next item extends either to the first `;` at bracket
/// depth zero or through the matching `}` of the first `{` opened.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = match_test_attr(tokens, i) {
            let end = item_end(tokens, after_attr);
            for m in mask.iter_mut().take(end).skip(i) {
                *m = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

/// If the tokens at `i` start a `#[cfg(test)]` / `#[test]` attribute
/// (possibly followed by more attributes), returns the index just past
/// the final attribute.
fn match_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    let mut j = attr_body(tokens, i)?;
    // j points at the first token inside `#[ … ]`.
    let is_test = if tokens.get(j)?.is_ident("test") {
        true
    } else if tokens.get(j)?.is_ident("cfg")
        && tokens.get(j + 1)?.is_punct('(')
        && tokens.get(j + 2)?.is_ident("test")
        && matches!(tokens.get(j + 3), Some(t) if t.is_punct(')') || t.is_punct(','))
    {
        // `#[cfg(test)]` or `#[cfg(test, …)]` — but not `#[cfg(not(test))]`.
        true
    } else {
        false
    };
    if !is_test {
        return None;
    }
    // Skip past this attribute's closing `]`, then any further attributes.
    let mut depth = 0i32;
    while j < tokens.len() {
        if tok(tokens, j).is_punct('[') {
            depth += 1;
        } else if tok(tokens, j).is_punct(']') {
            if depth == 0 {
                j += 1;
                break;
            }
            depth -= 1;
        }
        j += 1;
    }
    while let Some(next) = attr_body(tokens, j) {
        // Another attribute: skip it whole.
        let mut k = next;
        let mut d = 0i32;
        while k < tokens.len() {
            if tok(tokens, k).is_punct('[') {
                d += 1;
            } else if tok(tokens, k).is_punct(']') {
                if d == 0 {
                    k += 1;
                    break;
                }
                d -= 1;
            }
            k += 1;
        }
        j = k;
    }
    Some(j)
}

/// If tokens at `i` start `#[`, returns the index of the first token of
/// the attribute body.
fn attr_body(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.is_punct('#') && tokens.get(i + 1)?.is_punct('[') {
        Some(i + 2)
    } else {
        None
    }
}

/// Returns the token index just past the item starting at `i`: through
/// the matching `}` of its first top-level `{`, or past the first `;`
/// seen before any brace.
fn item_end(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut paren = 0i32;
    while j < tokens.len() {
        let t = tok(tokens, j);
        if t.is_punct(';') && paren == 0 {
            return j + 1;
        }
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct('{') {
            // Body found: skip to its matching close brace.
            let mut depth = 1i32;
            j += 1;
            while j < tokens.len() && depth > 0 {
                if tok(tokens, j).is_punct('{') {
                    depth += 1;
                } else if tok(tokens, j).is_punct('}') {
                    depth -= 1;
                }
                j += 1;
            }
            return j;
        }
        j += 1;
    }
    j
}

/// Parses `lint: allow(<rule>) <reason>` annotations out of comments.
fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let Some((_, after_marker)) = c.text.split_once("lint:") else {
            continue;
        };
        let Some(body) = after_marker.trim_start().strip_prefix("allow(") else {
            continue;
        };
        let Some((rule_name, after_close)) = body.split_once(')') else {
            continue;
        };
        let Some(rule) = Rule::from_name(rule_name.trim()) else {
            continue;
        };
        let reason = after_close.trim_matches(|ch: char| !ch.is_alphanumeric());
        out.push(Allow {
            line: c.line,
            rule,
            has_reason: !reason.trim().is_empty(),
        });
    }
    out
}

/// True when `text` is a Rust keyword — used to tell `arr[i]` indexing
/// apart from constructs like `let [a, b] = …` or `return [x];`.
pub fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "self"
            | "Self"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "true"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "async"
            | "await"
            | "yield"
    )
}

/// True when the token can syntactically *end* an expression, meaning a
/// following `[` is an index operation.
pub fn ends_expression(t: &Token) -> bool {
    match t.kind {
        TokKind::Ident => !is_keyword(&t.text),
        TokKind::Punct => t.is_punct(')') || t.is_punct(']'),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::new("x.rs", "x", FileKind::Lib, src)
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let f =
            sf("fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn tail() {}");
        let unwrap_idx = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.in_test[unwrap_idx]);
        let lib_idx = f.tokens.iter().position(|t| t.is_ident("lib")).unwrap();
        let tail_idx = f.tokens.iter().position(|t| t.is_ident("tail")).unwrap();
        assert!(!f.in_test[lib_idx]);
        assert!(
            !f.in_test[tail_idx],
            "mask must end at the mod's close brace"
        );
    }

    #[test]
    fn test_attr_fn_is_masked() {
        let f = sf("#[test]\nfn t() { x.unwrap(); }\nfn lib() {}");
        let unwrap_idx = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.in_test[unwrap_idx]);
        let lib_idx = f.tokens.iter().position(|t| t.is_ident("lib")).unwrap();
        assert!(!f.in_test[lib_idx]);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let f = sf("#[cfg(not(test))]\nfn lib() { x.unwrap(); }");
        assert!(f.in_test.iter().all(|&m| !m));
    }

    #[test]
    fn allow_annotations_parse() {
        let f = sf("// lint: allow(determinism) — wall clock feeds Timing metrics only\nlet t = Instant::now();");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, Rule::Determinism);
        assert!(f.allows[0].has_reason);
        assert!(f.is_allowed(Rule::Determinism, 2));
        assert!(!f.is_allowed(Rule::Panic, 2));
    }

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let f = sf("// lint: allow(panic)\nx.unwrap();");
        assert_eq!(f.allows.len(), 1);
        assert!(!f.allows[0].has_reason);
        assert!(!f.is_allowed(Rule::Panic, 2));
    }
}
