//! Rule S — NN shape soundness.
//!
//! The `neural` layer stacks only discover dimension mismatches when the
//! first batch hits `Matrix::matmul` and panics. This pass finds every
//! `Sequential::new(vec![..])` / `SeqSequential::new(vec![..])`
//! construction and statically chains the declared layer signatures:
//!
//! | constructor                          | in → out            |
//! |--------------------------------------|---------------------|
//! | `Dense::new(i, o, rng)`              | `i → o`             |
//! | `Conv1d::new(ci, co, k, rng)`        | `ci → co` (channels)|
//! | `Conv1d::strided(ci, co, k, s, rng)` | `ci → co` (channels)|
//! | `Lstm::new(i, h, rng)`               | `i → h`             |
//! | `Activation` / `SeqActivation`       | preserving          |
//! | `TimeDistributed::new(inner)`        | inner's signature   |
//!
//! Dimensions are compared as normalised token text, so symbolic sizes
//! (`h`, `cfg.tod_hidden`) chain exactly like literals. An element the
//! pass cannot attribute a signature to (helper call, complex match with
//! divergent arms) resets the chain instead of guessing — no false
//! positives from code the lexer cannot see through.
//!
//! Beyond channels, the pass chains *sequence length* through a stack
//! annotated `// lint: seq_len(N)` (same line as the stack constructor
//! or up to two lines above). Same-padded `Conv1d::new` and the
//! recurrent layers preserve length; `Conv1d::strided(ci, co, k, s, rng)`
//! maps `L → (L - k)/s + 1`, and a numeric kernel that no longer fits
//! the remaining length is flagged `conv-seq-underflow` — the forward
//! pass would panic. Two constructor-level checks need no annotation:
//! a numeric even kernel in `Conv1d::new` (`conv-even-kernel`, the
//! same-padding constructor asserts odd) and a numeric zero stride in
//! `Conv1d::strided` (`conv-zero-stride`).
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

/// How one stack element transforms the sequence (time) dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SeqEffect {
    /// Length in = length out (same-padded conv, recurrent layers, …).
    Preserve,
    /// Valid strided convolution: `L → (L - k)/s + 1`. `None` components
    /// are symbolic — they end length tracking without a finding.
    Conv { k: Option<u64>, stride: Option<u64> },
}

/// What the pass knows about one stack element.
#[derive(Debug, PartialEq)]
enum Sig {
    /// Declared `(input, output)` dims as normalised text, the line, and
    /// the element's effect on sequence length.
    Param(String, String, u32, SeqEffect),
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
        let seq_len = declared_seq_len(file, tok(toks, i).line);
        check_stack(file, body_start, body_end, seq_len, &mut out);
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

/// Parses a `// lint: seq_len(N)` annotation on the stack's line or up
/// to two lines above it: the declared input sequence length.
fn declared_seq_len(file: &SourceFile, stack_line: u32) -> Option<u64> {
    file.comments.iter().find_map(|c| {
        if c.line > stack_line || c.line + 2 < stack_line {
            return None;
        }
        let (_, after) = c.text.split_once("lint:")?;
        let body = after.trim_start().strip_prefix("seq_len(")?;
        let (num, _) = body.split_once(')')?;
        parse_num(num.trim())
    })
}

/// Flags constructor arguments that panic regardless of stack context:
/// an even kernel in same-padded `Conv1d::new`, a zero stride in
/// `Conv1d::strided`.
fn check_conv_constructors(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut j = 0usize;
    while j < toks.len() {
        let Some((ctor, args_start, args_end)) = match_conv_ctor(toks, j) else {
            j += 1;
            continue;
        };
        let line = tok(toks, j).line;
        let args = split_args(toks, args_start, args_end.saturating_sub(1));
        let arg_num = |pos: usize| {
            args.get(pos)
                .and_then(|&(s, e)| parse_num(&normalize(toks, s, e)))
        };
        match ctor {
            "new" => {
                if let Some(k) = arg_num(2) {
                    if k % 2 == 0 {
                        out.push(Finding::new(
                            file,
                            Rule::Shape,
                            "conv-even-kernel",
                            line,
                            format!(
                                "`Conv1d::new` same padding asserts an odd kernel; \
                                 kernel `{k}` panics at construction — use an odd \
                                 size or `Conv1d::strided` for valid padding"
                            ),
                        ));
                    }
                }
            }
            _ => {
                if arg_num(3) == Some(0) {
                    out.push(Finding::new(
                        file,
                        Rule::Shape,
                        "conv-zero-stride",
                        line,
                        "`Conv1d::strided` asserts a positive stride; stride `0` \
                         panics at construction"
                            .to_string(),
                    ));
                }
            }
        }
        j = args_end;
    }
}

/// If the tokens at `j` start `Conv1d :: new (` or `Conv1d :: strided (`,
/// returns the constructor name and the argument range.
fn match_conv_ctor(toks: &[crate::lexer::Token], j: usize) -> Option<(&'static str, usize, usize)> {
    if !toks.get(j)?.is_ident("Conv1d")
        || !toks.get(j + 1)?.is_punct(':')
        || !toks.get(j + 2)?.is_punct(':')
        || !toks.get(j + 4)?.is_punct('(')
    {
        return None;
    }
    let ctor = if toks.get(j + 3)?.is_ident("new") {
        "new"
    } else if toks.get(j + 3)?.is_ident("strided") {
        "strided"
    } else {
        return None;
    };
    let args_start = j + 5;
    Some((ctor, args_start, matching_close(toks, args_start, '(', ')')))
}

/// Splits `toks[start..end]` (exclusive of the closing bracket) at
/// top-level commas and chains element signatures.
fn check_stack(
    file: &SourceFile,
    start: usize,
    end: usize,
    declared_len: Option<u64>,
    out: &mut Vec<Finding>,
) {
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
    let mut seq_len = declared_len;
    for &(s, e) in &elements {
        match element_sig(toks, s, e) {
            Sig::Param(inp, outp, line, seq) => {
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
                seq_len = chain_seq(file, seq, seq_len, line, out);
            }
            Sig::Preserving => {}
            Sig::Unknown => {
                prev_out = None;
                seq_len = None;
            }
        }
    }
}

/// Applies one element's [`SeqEffect`] to the tracked sequence length,
/// flagging a strided convolution whose kernel no longer fits.
fn chain_seq(
    file: &SourceFile,
    seq: SeqEffect,
    len: Option<u64>,
    line: u32,
    out: &mut Vec<Finding>,
) -> Option<u64> {
    match seq {
        SeqEffect::Preserve => len,
        SeqEffect::Conv { k, stride } => {
            let l = len?;
            let k = k?;
            if l < k {
                out.push(Finding::new(
                    file,
                    Rule::Shape,
                    "conv-seq-underflow",
                    line,
                    format!(
                        "strided Conv1d kernel `{k}` no longer fits the sequence: \
                         only `{l}` steps remain at this depth (chained from \
                         `lint: seq_len(..)`) — the forward pass will panic"
                    ),
                ));
                return None;
            }
            match stride {
                Some(s) if s > 0 => Some((l - k) / s + 1),
                _ => None,
            }
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
    let mut sigs: Vec<(String, String, u32, SeqEffect)> = Vec::new();
    let mut preserving_seen = false;
    let mut j = s;
    while j < e {
        let t = tok(toks, j);
        if PRESERVING.iter().any(|p| t.is_ident(p)) {
            preserving_seen = true;
        }
        // The strided constructor carries a sequence-length effect; the
        // `Conv1d :: new` form falls through to the generic match below.
        if let Some(("strided", args_start, args_end)) = match_conv_ctor(toks, j) {
            let args = split_args(toks, args_start, args_end.saturating_sub(1));
            if let (Some(a), Some(b)) = (args.first(), args.get(1)) {
                let num = |pos: usize| {
                    args.get(pos)
                        .and_then(|&(as_, ae)| parse_num(&normalize(toks, as_, ae)))
                };
                sigs.push((
                    normalize(toks, a.0, a.1),
                    normalize(toks, b.0, b.1),
                    tok(toks, j).line,
                    SeqEffect::Conv {
                        k: num(2),
                        stride: num(3),
                    },
                ));
            }
            j = args_end;
            continue;
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
                        SeqEffect::Preserve,
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
            let Some((i0, o0, line, seq0)) = sigs.first().cloned() else {
                return Sig::Unknown;
            };
            if sigs
                .iter()
                .all(|(a, b, _, sq)| *a == i0 && *b == o0 && *sq == seq0)
            {
                Sig::Param(i0, o0, line, seq0)
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
    fn even_kernel_in_same_padded_conv_is_flagged() {
        let src = "let c = Conv1d::new(1, 4, 4, &mut rng);";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "conv-even-kernel");
        assert!(f[0].message.contains("odd kernel"));
    }

    #[test]
    fn odd_symbolic_and_strided_kernels_are_not_even_kernel_findings() {
        assert!(run("let c = Conv1d::new(1, 4, 3, &mut rng);").is_empty());
        assert!(run("let c = Conv1d::new(1, 4, k, &mut rng);").is_empty());
        // strided convs take any kernel parity
        assert!(run("let c = Conv1d::strided(1, 4, 4, 2, &mut rng);").is_empty());
    }

    #[test]
    fn zero_stride_is_flagged() {
        let f = run("let c = Conv1d::strided(1, 4, 3, 0, &mut rng);");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "conv-zero-stride");
    }

    #[test]
    fn annotated_stack_chains_sequence_length() {
        // 12 -> (12-3)/2+1 = 5 -> (5-5)/1+1 = 1: fits exactly.
        let src = "// lint: seq_len(12)
        let net = SeqSequential::new(vec![
            Box::new(Conv1d::strided(1, 4, 3, 2, &mut rng)),
            Box::new(SeqActivation::new(ActKind::Relu)),
            Box::new(Conv1d::strided(4, 1, 5, 1, &mut rng)),
        ]);";
        assert!(run(src).is_empty());
    }

    #[test]
    fn sequence_underflow_is_flagged_at_the_guilty_layer() {
        // 8 -> (8-3)/2+1 = 3, then a kernel of 5 cannot fit 3 steps.
        let src = "// lint: seq_len(8)
        let net = SeqSequential::new(vec![
            Box::new(Conv1d::strided(1, 4, 3, 2, &mut rng)),
            Box::new(Conv1d::strided(4, 1, 5, 1, &mut rng)),
        ]);";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "conv-seq-underflow");
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("only `3` steps"));
    }

    #[test]
    fn same_padded_convs_and_recurrent_layers_preserve_length() {
        let src = "// lint: seq_len(5)
        let net = SeqSequential::new(vec![
            Box::new(Conv1d::new(1, c, 3, &mut rng)),
            Box::new(Lstm::new(c, h, &mut rng)),
            Box::new(Conv1d::strided(h, 1, 5, 1, &mut rng)),
        ]);";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unannotated_stack_tracks_no_length() {
        let src = "let net = SeqSequential::new(vec![
            Box::new(Conv1d::strided(1, 4, 9, 2, &mut rng)),
            Box::new(Conv1d::strided(4, 1, 9, 2, &mut rng)),
        ]);";
        assert!(run(src).is_empty());
    }

    #[test]
    fn symbolic_kernel_ends_length_tracking_without_findings() {
        let src = "// lint: seq_len(4)
        let net = SeqSequential::new(vec![
            Box::new(Conv1d::strided(1, 4, k, 1, &mut rng)),
            Box::new(Conv1d::strided(4, 1, 9, 1, &mut rng)),
        ]);";
        assert!(run(src).is_empty());
    }
}
