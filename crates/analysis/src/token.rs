//! A hand-rolled Rust tokenizer and lightweight item walker.
//!
//! The source-level lint passes used to be line-regex scans, which meant
//! any pattern mentioned inside a comment, a string literal, or a doc
//! example produced a false positive. This module replaces that core with
//! a real lexer: [`tokenize`] splits source text into spans classified as
//! code, comment, or literal, and every pass matches against *code*
//! tokens only.
//!
//! The tokenizer is deliberately total and loss-free:
//!
//! - every byte of the input is covered by exactly one token (spans are
//!   contiguous, non-overlapping, and concatenate back to the input —
//!   property-tested over arbitrary ASCII source);
//! - malformed input never panics — an unterminated literal simply
//!   extends to end of file, and bytes that fit no rule become
//!   [`TokenKind::Unknown`].
//!
//! On top of the token stream, [`functions`] walks `fn` items (including
//! nested ones) recording the name, the parameter names, the return-type
//! span, and the brace-matched body span — enough structure for the
//! per-function analyses (lock-order extraction, worker-panic scanning)
//! without a full parser.

use std::collections::BTreeSet;

/// Classification of one source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// …` to end of line (doc comments included).
    LineComment,
    /// `/* … */`, nesting-aware (doc comments included).
    BlockComment,
    /// An identifier or keyword.
    Ident,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// A string literal: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#`.
    Str,
    /// A char or byte-char literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A numeric literal (integer or float, suffixes included).
    Num,
    /// A single punctuation byte (`{`, `.`, `;`, …).
    Punct,
    /// A run of non-ASCII bytes (kept whole so spans stay on UTF-8
    /// boundaries).
    Unknown,
}

/// One lexed span: `src[start..end]`, starting on 1-based `line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What the span is.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
}

impl Token {
    /// The token's text.
    #[must_use]
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// `true` for tokens the analyses should look at (not whitespace,
    /// not comments).
    #[must_use]
    pub fn is_code(&self) -> bool {
        !matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src` into a complete, non-overlapping token cover.
#[must_use]
pub fn tokenize(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0usize;
    let mut line = 1u32;
    while pos < bytes.len() {
        let start = pos;
        let kind = scan_one(bytes, &mut pos);
        debug_assert!(pos > start, "scanner must always make progress");
        tokens.push(Token { kind, start, end: pos, line });
        line += u32::try_from(bytes[start..pos].iter().filter(|&&b| b == b'\n').count())
            .unwrap_or(u32::MAX);
    }
    tokens
}

/// Consumes one token starting at `*pos`, advancing it; returns the kind.
#[allow(clippy::too_many_lines)]
fn scan_one(bytes: &[u8], pos: &mut usize) -> TokenKind {
    let b = bytes[*pos];
    // Whitespace run.
    if b.is_ascii_whitespace() {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
        return TokenKind::Whitespace;
    }
    // Comments.
    if b == b'/' && bytes.get(*pos + 1) == Some(&b'/') {
        while *pos < bytes.len() && bytes[*pos] != b'\n' {
            *pos += 1;
        }
        return TokenKind::LineComment;
    }
    if b == b'/' && bytes.get(*pos + 1) == Some(&b'*') {
        *pos += 2;
        let mut depth = 1usize;
        while *pos < bytes.len() && depth > 0 {
            if bytes[*pos] == b'/' && bytes.get(*pos + 1) == Some(&b'*') {
                depth += 1;
                *pos += 2;
            } else if bytes[*pos] == b'*' && bytes.get(*pos + 1) == Some(&b'/') {
                depth -= 1;
                *pos += 2;
            } else {
                *pos += 1;
            }
        }
        return TokenKind::BlockComment;
    }
    // Raw / byte string prefixes: r", r#", b", br", br#", b'.
    if b == b'r' || b == b'b' {
        let mut probe = *pos + 1;
        let raw = if b == b'b' && bytes.get(probe) == Some(&b'r') {
            probe += 1;
            true
        } else {
            b == b'r'
        };
        if raw {
            let hash_start = probe;
            while bytes.get(probe) == Some(&b'#') {
                probe += 1;
            }
            if bytes.get(probe) == Some(&b'"') {
                let hashes = probe - hash_start;
                *pos = probe + 1;
                scan_raw_string_tail(bytes, pos, hashes);
                return TokenKind::Str;
            }
        } else if b == b'b' {
            if bytes.get(probe) == Some(&b'"') {
                *pos = probe + 1;
                scan_string_tail(bytes, pos, b'"');
                return TokenKind::Str;
            }
            if bytes.get(probe) == Some(&b'\'') {
                *pos = probe + 1;
                scan_string_tail(bytes, pos, b'\'');
                return TokenKind::Char;
            }
        }
        // Fall through: plain identifier starting with r/b.
    }
    // Identifiers and keywords.
    if is_ident_start(b) {
        while *pos < bytes.len() && is_ident_continue(bytes[*pos]) {
            *pos += 1;
        }
        return TokenKind::Ident;
    }
    // Plain string literal.
    if b == b'"' {
        *pos += 1;
        scan_string_tail(bytes, pos, b'"');
        return TokenKind::Str;
    }
    // Quote: lifetime or char literal.
    if b == b'\'' {
        let next = bytes.get(*pos + 1).copied();
        match next {
            Some(b'\\') => {
                *pos += 2; // consume quote and backslash
                if *pos < bytes.len() {
                    *pos += 1; // the escaped byte
                }
                scan_string_tail(bytes, pos, b'\'');
                return TokenKind::Char;
            }
            Some(n) if is_ident_start(n) => {
                let mut probe = *pos + 1;
                while probe < bytes.len() && is_ident_continue(bytes[probe]) {
                    probe += 1;
                }
                if bytes.get(probe) == Some(&b'\'') {
                    // 'a' / 'word' — a char literal (or close enough).
                    *pos = probe + 1;
                    return TokenKind::Char;
                }
                // 'a without a closing quote: a lifetime.
                *pos = probe;
                return TokenKind::Lifetime;
            }
            Some(n) if n != b'\'' && bytes.get(*pos + 2) == Some(&b'\'') => {
                // '3', '+', ' ' — a one-byte char literal.
                *pos += 3;
                return TokenKind::Char;
            }
            _ => {
                *pos += 1;
                return TokenKind::Punct;
            }
        }
    }
    // Numbers (with `_`, type suffixes, one `.`, and an exponent sign).
    if b.is_ascii_digit() {
        let num_start = *pos;
        let mut seen_dot = false;
        *pos += 1;
        while *pos < bytes.len() {
            let c = bytes[*pos];
            if is_ident_continue(c) {
                *pos += 1;
            } else if c == b'.'
                && !seen_dot
                && bytes.get(*pos + 1).copied().is_some_and(|d| d.is_ascii_digit())
            {
                seen_dot = true;
                *pos += 1;
            } else if (c == b'+' || c == b'-')
                && matches!(bytes[*pos - 1], b'e' | b'E')
                && !bytes[num_start..*pos].starts_with(b"0x")
                && bytes.get(*pos + 1).copied().is_some_and(|d| d.is_ascii_digit())
            {
                *pos += 1;
            } else {
                break;
            }
        }
        return TokenKind::Num;
    }
    // Non-ASCII: group the whole run so slices stay on char boundaries.
    if !b.is_ascii() {
        while *pos < bytes.len() && !bytes[*pos].is_ascii() {
            *pos += 1;
        }
        return TokenKind::Unknown;
    }
    // Everything else is one punctuation byte.
    *pos += 1;
    TokenKind::Punct
}

/// Consumes the rest of an escape-aware literal up to the `close` byte
/// (or end of input).
fn scan_string_tail(bytes: &[u8], pos: &mut usize, close: u8) {
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'\\' => *pos = (*pos + 2).min(bytes.len()),
            c if c == close => {
                *pos += 1;
                return;
            }
            _ => *pos += 1,
        }
    }
}

/// Consumes the rest of a raw string up to `"` followed by `hashes` `#`s
/// (or end of input).
fn scan_raw_string_tail(bytes: &[u8], pos: &mut usize, hashes: usize) {
    while *pos < bytes.len() {
        if bytes[*pos] == b'"'
            && bytes[*pos + 1..].iter().take_while(|&&b| b == b'#').count() >= hashes
        {
            *pos += 1 + hashes;
            return;
        }
        *pos += 1;
    }
}

/// The indices of code tokens (identifiers, literals, punctuation) in
/// `tokens` — comments and whitespace dropped.
#[must_use]
pub fn code_indices(tokens: &[Token]) -> Vec<usize> {
    tokens.iter().enumerate().filter(|(_, t)| t.is_code()).map(|(i, _)| i).collect()
}

/// One `fn` item found by [`functions`]. All ranges are indices into the
/// token slice the walker ran over.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Token index of the `fn` keyword itself (lets analyses skip a
    /// nested item's span when scanning its parent's body).
    pub start: usize,
    /// The function's name.
    pub name: String,
    /// Parameter names in order (`self` counts; patterns contribute
    /// their first identifier).
    pub params: Vec<String>,
    /// Token range of the return type and any `where` clause (between
    /// the parameter list and the body).
    pub ret: (usize, usize),
    /// Token range of the body, including both braces. Empty for
    /// bodyless trait-method declarations.
    pub body: (usize, usize),
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// Walks `tokens` for `fn` items, including nested functions. A partial
/// item at end of input is dropped.
#[must_use]
pub fn functions(src: &str, tokens: &[Token]) -> Vec<FnItem> {
    let code = code_indices(tokens);
    let mut out = Vec::new();
    let mut c = 0usize; // index into `code`
    while c < code.len() {
        if tokens[code[c]].text(src) != "fn" || tokens[code[c]].kind != TokenKind::Ident {
            c += 1;
            continue;
        }
        let fn_line = tokens[code[c]].line;
        let Some(&name_ti) = code.get(c + 1) else { break };
        if tokens[name_ti].kind != TokenKind::Ident {
            c += 1;
            continue;
        }
        let name = tokens[name_ti].text(src).to_string();
        let mut k = c + 2;
        // Skip generic parameters, tolerating `->` inside bounds.
        if code.get(k).is_some_and(|&ti| tokens[ti].text(src) == "<") {
            let mut depth = 0i32;
            while let Some(&ti) = code.get(k) {
                match tokens[ti].text(src) {
                    "<" => depth += 1,
                    ">" if code.get(k.wrapping_sub(1)).is_some_and(|&p| {
                        tokens[p].text(src) == "-" && tokens[p].end == tokens[ti].start
                    }) => {}
                    ">" => depth -= 1,
                    _ => {}
                }
                k += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        // Parameter list.
        if code.get(k).is_none_or(|&ti| tokens[ti].text(src) != "(") {
            c += 1;
            continue;
        }
        let mut params = Vec::new();
        let mut depth = 0i32;
        let mut segment_named = false;
        while let Some(&ti) = code.get(k) {
            match tokens[ti].text(src) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "," if depth == 1 => segment_named = false,
                t if depth == 1
                    && !segment_named
                    && tokens[ti].kind == TokenKind::Ident
                    && t != "mut" =>
                {
                    params.push(t.to_string());
                    segment_named = true;
                }
                _ => {}
            }
            k += 1;
            if depth == 0 {
                break;
            }
        }
        // Return type / where clause: up to the body `{` or a `;`.
        // All recorded ranges are token indices (not code indices).
        let ret_start = code.get(k).map_or(tokens.len(), |&ti| ti);
        let mut ret_end = ret_start;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut body = (0usize, 0usize);
        while let Some(&ti) = code.get(k) {
            match tokens[ti].text(src) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                ";" if paren == 0 && bracket == 0 => {
                    ret_end = ti;
                    break;
                }
                "{" if paren == 0 && bracket == 0 => {
                    // Body: brace-match from here.
                    ret_end = ti;
                    let mut braces = 0i32;
                    while let Some(&bi) = code.get(k) {
                        match tokens[bi].text(src) {
                            "{" => braces += 1,
                            "}" => braces -= 1,
                            _ => {}
                        }
                        k += 1;
                        if braces == 0 {
                            body = (ti, bi + 1);
                            break;
                        }
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        out.push(FnItem {
            start: code[c],
            name,
            params,
            ret: (ret_start, ret_end),
            body,
            line: fn_line,
        });
        // Continue from just after the header so nested fns are found.
        c += 2;
    }
    out
}

/// Truncation point for in-file unit tests: the number of leading tokens
/// before the first `#[cfg(test)]` marker (everything after is
/// deliberately allowed to use patterns the lints forbid).
#[must_use]
pub fn test_boundary(src: &str, tokens: &[Token]) -> usize {
    let code = code_indices(tokens);
    for w in code.windows(7) {
        let texts: Vec<&str> = w.iter().map(|&i| tokens[i].text(src)).collect();
        if texts == ["#", "[", "cfg", "(", "test", ")", "]"] {
            return w[0];
        }
    }
    tokens.len()
}

/// Lines carrying a `lint: <key>(<non-empty reason>)` allowlist
/// annotation inside a comment. A finding on line `L` is suppressed when
/// the annotation sits on `L` itself or on `L - 1`.
#[must_use]
pub fn annotation_lines(src: &str, tokens: &[Token], key: &str) -> BTreeSet<u32> {
    let needle = format!("lint: {key}(");
    let mut lines = BTreeSet::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(src);
        if let Some(at) = text.find(&needle) {
            let rest = &text[at + needle.len()..];
            if rest.find(')').is_some_and(|close| !rest[..close].trim().is_empty()) {
                lines.insert(t.line);
            }
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src).iter().map(|t| (t.kind, t.text(src).to_string())).collect()
    }

    fn assert_covers(src: &str) {
        let toks = tokenize(src);
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos, "gap/overlap at {pos} in {src:?}");
            assert!(t.end > t.start, "empty token in {src:?}");
            pos = t.end;
        }
        assert_eq!(pos, src.len(), "tail not covered in {src:?}");
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let src = "let x = \"matmul_slab()\"; // matmul_slab()\n/* .lock() */ y.lock()";
        assert_covers(src);
        let toks = tokenize(src);
        let idents: Vec<String> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(src).to_string())
            .collect();
        assert!(idents.contains(&"lock".to_string()));
        // The backend-kernel name appears only inside literal/comment
        // spans, never as an identifier the lints would match.
        assert!(!idents.iter().any(|t| t.contains("matmul_slab")));
    }

    #[test]
    fn raw_strings_and_nesting() {
        for src in [
            "r#\"a \" b\"# x",
            "br##\"//not a comment\"## y",
            "/* outer /* inner */ still */ z",
            "b\"bytes\\\"\" w",
        ] {
            assert_covers(src);
            let last = kinds(src).last().cloned().unwrap();
            assert_eq!(last.0, TokenKind::Ident, "{src}");
        }
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let b = b'q'; }";
        assert_covers(src);
        let toks = tokenize(src);
        let lifetimes: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokenKind::Lifetime).map(|t| t.text(src)).collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        let chars: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokenKind::Char).map(|t| t.text(src)).collect();
        assert_eq!(chars, ["'x'", "'\\n'", "b'q'"]);
    }

    #[test]
    fn numbers_including_exponents() {
        let src = "let e = 1e-6; let h = 0xFF_u8; let r = 1..2; let f = 3.25f32;";
        assert_covers(src);
        let nums: Vec<String> =
            kinds(src).into_iter().filter(|(k, _)| *k == TokenKind::Num).map(|(_, t)| t).collect();
        assert_eq!(nums, ["1e-6", "0xFF_u8", "1", "2", "3.25f32"]);
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        for src in ["\"open", "r#\"open", "'", "/* open", "b\"open\\"] {
            assert_covers(src);
        }
    }

    #[test]
    fn fn_walker_finds_items_params_and_bodies() {
        let src = "impl Foo {\n    fn method(&self, mut n: usize) -> Result<u32, E> { n + 1 }\n}\n\
                   fn free<F: Fn() -> u32>(cb: F) { fn nested() {} cb(); }\n";
        let toks = tokenize(src);
        let fns = functions(src, &toks);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["method", "free", "nested"]);
        assert_eq!(fns[0].params, ["self", "n"]);
        assert_eq!(fns[1].params, ["cb"]);
        // The body range brace-matches.
        let body = &fns[0].body;
        assert_eq!(toks[body.0].text(src), "{");
        assert_eq!(toks[body.1 - 1].text(src), "}");
    }

    #[test]
    fn test_boundary_truncates_at_cfg_test() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n";
        let toks = tokenize(src);
        let b = test_boundary(src, &toks);
        assert!(toks[..b].iter().all(|t| t.text(src) != "unwrap"));
        let clean = "fn real() {}\n";
        let toks = tokenize(clean);
        assert_eq!(test_boundary(clean, &toks), toks.len());
    }

    #[test]
    fn annotations_require_a_reason() {
        let src = "a(); // lint: relaxed-ok(monotonic counter)\nb(); // lint: relaxed-ok()\n";
        let toks = tokenize(src);
        let lines = annotation_lines(src, &toks, "relaxed-ok");
        assert!(lines.contains(&1));
        assert!(!lines.contains(&2), "empty reason must not allowlist");
    }
}
