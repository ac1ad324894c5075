//! Rule S — NN shape soundness.
//!
//! The `neural` layer stacks only discover dimension mismatches when the
//! first batch hits `Matrix::matmul` and panics. This pass finds every
//! `Sequential::new(vec![..])` / `SeqSequential::new(vec![..])`
//! construction and statically chains the declared layer signatures:
//!
//! | constructor                    | in → out            |
//! |--------------------------------|---------------------|
//! | `Dense::new(i, o, rng)`        | `i → o`             |
//! | `Conv1d::new(ci, co, k, rng)`  | `ci → co` (channels)|
//! | `Lstm::new(i, h, rng)`         | `i → h`             |
//! | `Activation` / `SeqActivation` | preserving          |
//! | `TimeDistributed::new(inner)`  | inner's signature   |
//!
//! Dimensions are compared as normalised token text, so symbolic sizes
//! (`h`, `cfg.tod_hidden`) chain exactly like literals. An element the
//! pass cannot attribute a signature to (helper call, complex match with
//! divergent arms) resets the chain instead of guessing — no false
//! positives from code the lexer cannot see through.
//!
//! Every layer keeps the sequence length (`Conv1d` is same-padded), so
//! only channels chain. One constructor-level check needs no stack: a
//! numeric even kernel in `Conv1d::new` is `conv-even-kernel`, since the
//! same-padding constructor asserts an odd kernel.
//!
//! Unlike D and P this pass also covers tests and examples: a shape bug
//! in a test is still a runtime panic somebody has to debug.

use super::{Finding, Rule};
use crate::lexer::tok;
use crate::source::SourceFile;

/// Layer constructors with an `(input, output)` dimension signature, and
/// the argument positions holding those dimensions.
const PARAM_LAYERS: &[(&str, usize, usize)] = &[("Dense", 0, 1), ("Conv1d", 0, 1), ("Lstm", 0, 1)];

/// Shape-preserving layers: output dims equal input dims.
const PRESERVING: &[&str] = &["Activation", "SeqActivation", "TimeDistributed"];

/// What the pass knows about one stack element.
#[derive(Debug, PartialEq)]
enum Sig {
    /// Declared `(input, output)` dims as normalised text, and the line.
    Param(String, String, u32),
    /// Shape-preserving.
    Preserving,
    /// Unknown — breaks the chain.
    Unknown,
}

/// Runs the shape pass over any file.
pub fn shape_pass(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    check_conv_constructors(file, &mut out);
    let mut i = 0usize;
    while i < toks.len() {
        // Match `Sequential :: new ( vec ! [` (or SeqSequential).
        let is_stack = (tok(toks, i).is_ident("Sequential")
            || tok(toks, i).is_ident("SeqSequential"))
            && matches!(toks.get(i + 1), Some(t) if t.is_punct(':'))
            && matches!(toks.get(i + 2), Some(t) if t.is_punct(':'))
            && matches!(toks.get(i + 3), Some(t) if t.is_ident("new"))
            && matches!(toks.get(i + 4), Some(t) if t.is_punct('('))
            && matches!(toks.get(i + 5), Some(t) if t.is_ident("vec"))
            && matches!(toks.get(i + 6), Some(t) if t.is_punct('!'))
            && matches!(toks.get(i + 7), Some(t) if t.is_punct('['));
        if !is_stack {
            i += 1;
            continue;
        }
        let body_start = i + 8;
        let body_end = matching_close(toks, body_start, '[', ']');
        check_stack(file, body_start, body_end, &mut out);
        i = body_end;
    }
    out
}

/// Index just past the closing bracket matching the one *before* `start`.
fn matching_close(toks: &[crate::lexer::Token], start: usize, open: char, close: char) -> usize {
    let mut depth = 1i32;
    let mut j = start;
    while j < toks.len() && depth > 0 {
        if tok(toks, j).is_punct(open) {
            depth += 1;
        } else if tok(toks, j).is_punct(close) {
            depth -= 1;
        }
        j += 1;
    }
    j
}

/// Flags a numeric even kernel in same-padded `Conv1d::new`, which
/// panics at construction regardless of stack context.
fn check_conv_constructors(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut j = 0usize;
    while j < toks.len() {
        let Some((args_start, args_end)) = match_conv_ctor(toks, j) else {
            j += 1;
            continue;
        };
        let args = split_args(toks, args_start, args_end.saturating_sub(1));
        let kernel = args
            .get(2)
            .and_then(|&(s, e)| parse_num(&normalize(toks, s, e)));
        if let Some(k) = kernel.filter(|k| k % 2 == 0) {
            out.push(Finding::new(
                file,
                Rule::Shape,
                "conv-even-kernel",
                tok(toks, j).line,
                format!(
                    "`Conv1d::new` same padding asserts an odd kernel; \
                     kernel `{k}` panics at construction — use an odd size"
                ),
            ));
        }
        j = args_end;
    }
}

/// If the tokens at `j` start `Conv1d :: new (`, returns the argument
/// range.
fn match_conv_ctor(toks: &[crate::lexer::Token], j: usize) -> Option<(usize, usize)> {
    if !toks.get(j)?.is_ident("Conv1d")
        || !toks.get(j + 1)?.is_punct(':')
        || !toks.get(j + 2)?.is_punct(':')
        || !toks.get(j + 3)?.is_ident("new")
        || !toks.get(j + 4)?.is_punct('(')
    {
        return None;
    }
    let args_start = j + 5;
    Some((args_start, matching_close(toks, args_start, '(', ')')))
}

/// Splits `toks[start..end]` (exclusive of the closing bracket) at
/// top-level commas and chains element signatures.
fn check_stack(file: &SourceFile, start: usize, end: usize, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let body_end = end.saturating_sub(1).max(start); // drop the `]`
    let mut elements: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0i32;
    let mut elem_start = start;
    for (j, t) in toks.iter().enumerate().take(body_end).skip(start) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            if j > elem_start {
                elements.push((elem_start, j));
            }
            elem_start = j + 1;
        }
    }
    if body_end > elem_start {
        elements.push((elem_start, body_end));
    }

    let mut prev_out: Option<(String, u32)> = None;
    for &(s, e) in &elements {
        match element_sig(toks, s, e) {
            Sig::Param(inp, outp, line) => {
                if let Some((po, prev_line)) = &prev_out {
                    if *po != inp {
                        let literal = is_numeric(po) && is_numeric(&inp);
                        out.push(Finding::new(
                            file,
                            Rule::Shape,
                            "shape-mismatch",
                            line,
                            format!(
                                "layer expects input dim `{inp}` but the layer on line \
                                 {prev_line} produces `{po}`{}",
                                if literal {
                                    " — this will panic at the first forward pass"
                                } else {
                                    " (symbolic dims compared textually; if provably equal, \
                                     annotate `// lint: allow(shape) — reason`)"
                                }
                            ),
                        ));
                    }
                }
                prev_out = Some((outp, line));
            }
            Sig::Preserving => {}
            Sig::Unknown => prev_out = None,
        }
    }
}

/// Extracts the signature of one stack element.
///
/// Scans the element for parameterised layer constructors
/// (`Dense :: new ( a , b , … )`); if every occurrence agrees on one
/// `(in, out)` pair that is the signature (this resolves both
/// `Box::new(Dense::new(..))` and match expressions whose arms build
/// equivalent layers). With none, the element is preserving when it
/// mentions a preserving layer, otherwise unknown.
fn element_sig(toks: &[crate::lexer::Token], s: usize, e: usize) -> Sig {
    let mut sigs: Vec<(String, String, u32)> = Vec::new();
    let mut preserving_seen = false;
    let mut j = s;
    while j < e {
        let t = tok(toks, j);
        if PRESERVING.iter().any(|p| t.is_ident(p)) {
            preserving_seen = true;
        }
        if let Some(&(_, in_pos, out_pos)) = PARAM_LAYERS.iter().find(|(n, ..)| t.is_ident(n)) {
            // Expect `:: new (` then the argument list.
            if matches!(toks.get(j + 1), Some(t) if t.is_punct(':'))
                && matches!(toks.get(j + 2), Some(t) if t.is_punct(':'))
                && matches!(toks.get(j + 3), Some(t) if t.is_ident("new"))
                && matches!(toks.get(j + 4), Some(t) if t.is_punct('('))
            {
                let args_start = j + 5;
                let args_end = matching_close(toks, args_start, '(', ')');
                let args = split_args(toks, args_start, args_end.saturating_sub(1));
                if let (Some(a), Some(b)) = (args.get(in_pos), args.get(out_pos)) {
                    sigs.push((
                        normalize(toks, a.0, a.1),
                        normalize(toks, b.0, b.1),
                        tok(toks, j).line,
                    ));
                }
                j = args_end;
                continue;
            }
        }
        j += 1;
    }
    match sigs.len() {
        0 if preserving_seen => Sig::Preserving,
        0 => Sig::Unknown,
        _ => {
            let Some((i0, o0, line)) = sigs.first().cloned() else {
                return Sig::Unknown;
            };
            if sigs.iter().all(|(a, b, _)| *a == i0 && *b == o0) {
                Sig::Param(i0, o0, line)
            } else {
                Sig::Unknown
            }
        }
    }
}

/// Splits an argument list `toks[s..e]` at top-level commas into
/// `(start, end)` ranges.
fn split_args(toks: &[crate::lexer::Token], s: usize, e: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = s;
    for (j, t) in toks.iter().enumerate().take(e).skip(s) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            out.push((start, j));
            start = j + 1;
        }
    }
    if e > start {
        out.push((start, e));
    }
    out
}

/// Joins the token texts of a dimension expression into a canonical
/// comparison key (`cfg . tod_hidden` → `cfg.tod_hidden`).
fn normalize(toks: &[crate::lexer::Token], s: usize, e: usize) -> String {
    let mut out = String::new();
    for t in toks.get(s..e).unwrap_or(&[]) {
        out.push_str(&t.text);
    }
    out
}

/// True when a normalised dim is a pure numeric literal.
fn is_numeric(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_digit() || c == '_')
}

/// Parses a normalised numeric literal (`1_000` → 1000); `None` for
/// symbolic expressions.
fn parse_num(s: &str) -> Option<u64> {
    if is_numeric(s) {
        s.replace('_', "").parse().ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn run(src: &str) -> Vec<Finding> {
        shape_pass(&SourceFile::new("f.rs", "neural", FileKind::Lib, src))
    }

    #[test]
    fn consistent_chain_is_clean() {
        let src = "let net = Sequential::new(vec![
            Box::new(Dense::new(m, hidden, &mut rng)),
            Box::new(Activation::new(ActKind::Relu)),
            Box::new(Dense::new(hidden, n, &mut rng)),
        ]);";
        assert!(run(src).is_empty());
    }

    #[test]
    fn literal_mismatch_is_flagged() {
        let src = "let net = Sequential::new(vec![
            Box::new(Dense::new(4, 8, &mut rng)),
            Box::new(Dense::new(16, 2, &mut rng)),
        ]);";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "shape-mismatch");
        assert!(f[0].message.contains("panic at the first forward pass"));
    }

    #[test]
    fn symbolic_mismatch_is_flagged() {
        let src = "let net = SeqSequential::new(vec![
            Box::new(Lstm::new(m, hidden, &mut rng)),
            Box::new(TimeDistributed::new(Dense::new(other, n, &mut rng))),
        ]);";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn preserving_layers_pass_dims_through() {
        let src = "let net = SeqSequential::new(vec![
            Box::new(Conv1d::new(1, c, 3, &mut rng)),
            Box::new(SeqActivation::new(ActKind::Relu)),
            Box::new(SeqActivation::new(ActKind::Tanh)),
            Box::new(Conv1d::new(c, 1, 3, &mut rng)),
        ]);";
        assert!(run(src).is_empty());
    }

    #[test]
    fn match_arms_with_agreeing_sigs_chain() {
        let src = "let net = SeqSequential::new(vec![
            match kind { K::A => Box::new(Lstm::new(input, h, rng)), K::B => Box::new(TimeDistributed::new(Dense::new(input, h, rng))) },
            Box::new(TimeDistributed::new(Dense::new(h, 1, rng))),
        ]);";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unknown_element_resets_chain() {
        let src = "let net = SeqSequential::new(vec![
            rnn(1, rng),
            Box::new(TimeDistributed::new(Dense::new(h, 1, rng))),
        ]);";
        assert!(run(src).is_empty());
    }

    #[test]
    fn convs_and_recurrent_layers_chain_channels() {
        let clean = "let net = SeqSequential::new(vec![
            Box::new(Conv1d::new(1, c, 3, &mut rng)),
            Box::new(Lstm::new(c, h, &mut rng)),
            Box::new(Conv1d::new(h, 1, 5, &mut rng)),
        ]);";
        assert!(run(clean).is_empty());
        let broken = "let net = SeqSequential::new(vec![
            Box::new(Conv1d::new(1, 4, 3, &mut rng)),
            Box::new(Lstm::new(8, h, &mut rng)),
        ]);";
        let f = run(broken);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "shape-mismatch");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn even_kernel_in_same_padded_conv_is_flagged() {
        let src = "let c = Conv1d::new(1, 4, 4, &mut rng);";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "conv-even-kernel");
        assert!(f[0].message.contains("odd kernel"));
    }

    #[test]
    fn odd_and_symbolic_kernels_are_not_even_kernel_findings() {
        assert!(run("let c = Conv1d::new(1, 4, 3, &mut rng);").is_empty());
        assert!(run("let c = Conv1d::new(1, 4, k, &mut rng);").is_empty());
    }
}
