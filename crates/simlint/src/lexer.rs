//! A lightweight Rust scanner: just enough lexing for line-oriented
//! static analysis.
//!
//! The scanner turns a source file into a stream of [`Token`]s with
//! comments, string literals and char literals stripped, so rules that
//! pattern-match identifier sequences (`HashMap`, `rm . freeze (`) never
//! trip over prose in doc comments or diagnostics text. Two properties
//! matter for the rule engine:
//!
//! * every token carries its 1-based line and column, so findings point
//!   at the exact source location;
//! * tokens inside `#[cfg(test)]`-gated items (and `#[test]` functions)
//!   are flagged `in_test`, because the determinism rules apply to
//!   simulation code, not to its tests.
//!
//! This is intentionally *not* a full Rust lexer — no token trees, no
//! keyword table, no spans into the original text. It handles the lexical
//! constructs that would otherwise cause false positives: nested block
//! comments, raw strings (`r#"…"#`), byte strings, char literals vs.
//! lifetimes, and `::` path separators (merged into one token so path
//! patterns stay readable).

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `fn`, `pub`, …).
    Ident,
    /// A single punctuation character, or the merged `::` separator.
    Punct,
    /// A number or char literal. Numbers retain their text; chars stay
    /// empty.
    Literal,
    /// A string literal. The text is the *content* between the quotes
    /// (escape sequences verbatim), kept apart from [`TokKind::Ident`] so
    /// the identifier rules never match on string tokens.
    Str,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (byte offset within the line).
    pub col: u32,
    /// Token text (`""` for char literals; string content for [`TokKind::Str`]).
    pub text: String,
    /// Token class.
    pub kind: TokKind,
    /// Whether the token sits inside test-gated code.
    pub in_test: bool,
}

/// A captured `simlint::` line comment — the raw material for inline
/// suppression directives. Only comments whose trimmed body starts with
/// `simlint::` are recorded; everything else stays stripped as before.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the `//`.
    pub line: u32,
    /// 1-based column of the `//`.
    pub col: u32,
    /// Comment body after `//`, trimmed.
    pub text: String,
    /// Whether code tokens precede the comment on its own line (a
    /// trailing directive targets its own line; a standalone one targets
    /// the next code line).
    pub trailing: bool,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s` (single char or `::`).
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Lexes `source` into tokens and marks test-gated regions.
pub fn lex(source: &str) -> Vec<Token> {
    lex_with_comments(source).0
}

/// Like [`lex`], but also returns the `simlint::` line comments the
/// suppression layer parses into directives.
pub fn lex_with_comments(source: &str) -> (Vec<Token>, Vec<Comment>) {
    let mut comments = Vec::new();
    let mut tokens = scan(source, &mut comments);
    mark_test_regions(&mut tokens);
    (tokens, comments)
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Raw character scan: comments and literal bodies are consumed, code
/// tokens are emitted, `simlint::` line comments are recorded.
fn scan(source: &str, comments: &mut Vec<Comment>) -> Vec<Token> {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens: Vec<Token> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    // Advances the cursor over `n` chars, tracking line/column.
    macro_rules! bump {
        ($n:expr) => {
            for _ in 0..$n {
                if i < chars.len() {
                    if chars[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        // Whitespace.
        if c.is_whitespace() {
            bump!(1);
            continue;
        }

        // Line comments (//, ///, //!) — skip to end of line, but keep
        // `simlint::` directive comments for the suppression layer. A doc
        // comment's body starts with `/` or `!`, so quoting the grammar in
        // docs never registers as a directive.
        if c == '/' && next == Some('/') {
            let (tok_line, tok_col) = (line, col);
            let mut body = String::new();
            bump!(2);
            while i < chars.len() && chars[i] != '\n' {
                body.push(chars[i]);
                bump!(1);
            }
            let body = body.trim();
            if body.starts_with("simlint::") {
                comments.push(Comment {
                    line: tok_line,
                    col: tok_col,
                    text: body.to_string(),
                    trailing: tokens.last().is_some_and(|t| t.line == tok_line),
                });
            }
            continue;
        }

        // Block comments, nesting included.
        if c == '/' && next == Some('*') {
            bump!(2);
            let mut depth = 1usize;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!(2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!(2);
                } else {
                    bump!(1);
                }
            }
            continue;
        }

        // Raw / byte string prefixes: r"…", r#"…"#, b"…", br#"…"#.
        if (c == 'r' || c == 'b') && raw_string_lookahead(&chars, i) {
            let (tok_line, tok_col) = (line, col);
            // Consume the prefix letters.
            while i < chars.len() && (chars[i] == 'r' || chars[i] == 'b') {
                bump!(1);
            }
            if chars.get(i) == Some(&'#') || chars.get(i) == Some(&'"') {
                let mut hashes = 0usize;
                while chars.get(i) == Some(&'#') {
                    hashes += 1;
                    bump!(1);
                }
                bump!(1); // opening quote
                let mut content = String::new();
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut ok = true;
                        for h in 0..hashes {
                            if chars.get(i + 1 + h) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            bump!(1 + hashes);
                            break 'raw;
                        }
                    }
                    content.push(chars[i]);
                    bump!(1);
                }
                tokens.push(Token {
                    line: tok_line,
                    col: tok_col,
                    text: content,
                    kind: TokKind::Str,
                    in_test: false,
                });
                continue;
            }
            // Not actually a raw string (e.g. identifier starting with r/b
            // followed by something else) — fall through to ident handling
            // from the already-bumped position.
            let mut text = String::from(if c == 'r' { "r" } else { "b" });
            while i < chars.len() && is_ident_continue(chars[i]) {
                text.push(chars[i]);
                bump!(1);
            }
            tokens.push(Token {
                line: tok_line,
                col: tok_col,
                text,
                kind: TokKind::Ident,
                in_test: false,
            });
            continue;
        }

        // Byte char literal b'x'.
        if c == 'b' && next == Some('\'') {
            let (tok_line, tok_col) = (line, col);
            bump!(2);
            consume_char_literal_body(&chars, &mut i, &mut line, &mut col);
            tokens.push(Token {
                line: tok_line,
                col: tok_col,
                text: String::new(),
                kind: TokKind::Literal,
                in_test: false,
            });
            continue;
        }

        // Ordinary string literal. Content is retained (escape sequences
        // verbatim) so constant rng-stream labels are comparable.
        if c == '"' {
            let (tok_line, tok_col) = (line, col);
            let mut content = String::new();
            bump!(1);
            while i < chars.len() {
                if chars[i] == '\\' {
                    content.push(chars[i]);
                    if let Some(&esc) = chars.get(i + 1) {
                        content.push(esc);
                    }
                    bump!(2);
                } else if chars[i] == '"' {
                    bump!(1);
                    break;
                } else {
                    content.push(chars[i]);
                    bump!(1);
                }
            }
            tokens.push(Token {
                line: tok_line,
                col: tok_col,
                text: content,
                kind: TokKind::Str,
                in_test: false,
            });
            continue;
        }

        // Char literal vs. lifetime.
        if c == '\'' {
            let is_char_lit = match next {
                Some('\\') => true,
                Some(n) if is_ident_start(n) => chars.get(i + 2) == Some(&'\''),
                Some(_) => true, // '(' etc. can only be a char literal
                None => false,
            };
            if is_char_lit {
                let (tok_line, tok_col) = (line, col);
                bump!(1);
                consume_char_literal_body(&chars, &mut i, &mut line, &mut col);
                tokens.push(Token {
                    line: tok_line,
                    col: tok_col,
                    text: String::new(),
                    kind: TokKind::Literal,
                    in_test: false,
                });
            } else {
                // Lifetime: skip the quote and the label.
                bump!(1);
                while i < chars.len() && is_ident_continue(chars[i]) {
                    bump!(1);
                }
            }
            continue;
        }

        // Identifiers and keywords (incl. r#raw idents, handled above).
        if is_ident_start(c) {
            let (tok_line, tok_col) = (line, col);
            let mut text = String::new();
            while i < chars.len() && is_ident_continue(chars[i]) {
                text.push(chars[i]);
                bump!(1);
            }
            tokens.push(Token {
                line: tok_line,
                col: tok_col,
                text,
                kind: TokKind::Ident,
                in_test: false,
            });
            continue;
        }

        // Numbers: `1.5e-3` hangs together; `0..10` must not swallow the
        // range dots.
        if c.is_ascii_digit() {
            let (tok_line, tok_col) = (line, col);
            let mut text = String::new();
            while i < chars.len() {
                let d = chars[i];
                if is_ident_continue(d) {
                    let was_exp = d == 'e' || d == 'E';
                    text.push(d);
                    bump!(1);
                    if was_exp
                        && (chars.get(i) == Some(&'+') || chars.get(i) == Some(&'-'))
                        && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())
                    {
                        text.push(chars[i]);
                        bump!(1);
                    }
                } else if d == '.' && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                    text.push(d);
                    bump!(1);
                } else {
                    break;
                }
            }
            tokens.push(Token {
                line: tok_line,
                col: tok_col,
                text,
                kind: TokKind::Literal,
                in_test: false,
            });
            continue;
        }

        // `::` merged into a single token for readable path patterns.
        if c == ':' && next == Some(':') {
            tokens.push(Token {
                line,
                col,
                text: "::".into(),
                kind: TokKind::Punct,
                in_test: false,
            });
            bump!(2);
            continue;
        }

        // Everything else: single-char punctuation.
        tokens.push(Token {
            line,
            col,
            text: c.to_string(),
            kind: TokKind::Punct,
            in_test: false,
        });
        bump!(1);
    }
    tokens
}

/// Whether position `i` (at an `r`/`b`) starts a raw or byte string.
fn raw_string_lookahead(chars: &[char], i: usize) -> bool {
    let mut j = i;
    while chars.get(j) == Some(&'r') || chars.get(j) == Some(&'b') {
        j += 1;
        if j - i > 2 {
            return false;
        }
    }
    match chars.get(j) {
        Some('"') => true,
        Some('#') => {
            let mut k = j;
            while chars.get(k) == Some(&'#') {
                k += 1;
            }
            chars.get(k) == Some(&'"')
        }
        _ => false,
    }
}

/// Consumes the body of a char literal after the opening quote.
fn consume_char_literal_body(chars: &[char], i: &mut usize, line: &mut u32, col: &mut u32) {
    let bump = |i: &mut usize, line: &mut u32, col: &mut u32| {
        if *i < chars.len() {
            if chars[*i] == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            *i += 1;
        }
    };
    while *i < chars.len() {
        if chars[*i] == '\\' {
            bump(i, line, col);
            bump(i, line, col);
        } else if chars[*i] == '\'' {
            bump(i, line, col);
            break;
        } else {
            bump(i, line, col);
        }
    }
}

/// Marks tokens belonging to `#[cfg(test)]`-gated items and `#[test]`
/// functions as `in_test`.
///
/// The pass walks the token stream once: on a test-flavoured attribute it
/// arms a pending flag; the next item (everything up to the matching `}`
/// of its body, or up to `;` for bodiless items) is then marked. Nested
/// attributes between the gate and the item (`#[derive]`, `#[allow]`)
/// keep the flag armed.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut i = 0usize;
    let mut pending_test = false;
    while i < tokens.len() {
        if tokens[i].is_punct("#") {
            // Attribute: `#` `[` … `]` or `#` `!` `[` … `]`.
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].is_punct("!") {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct("[") {
                let start = j + 1;
                let mut depth = 1usize;
                let mut k = start;
                while k < tokens.len() && depth > 0 {
                    if tokens[k].is_punct("[") {
                        depth += 1;
                    } else if tokens[k].is_punct("]") {
                        depth -= 1;
                    }
                    k += 1;
                }
                if attr_is_test(&tokens[start..k.saturating_sub(1)]) {
                    pending_test = true;
                }
                i = k;
                continue;
            }
        }
        if pending_test && tokens[i].kind == TokKind::Ident {
            // The gated item: scan to its body `{` (or terminating `;`)
            // and mark through the matching close.
            let item_start = i;
            let mut j = i;
            let mut depth = 0isize;
            let mut end = tokens.len();
            while j < tokens.len() {
                if tokens[j].is_punct("{") {
                    depth += 1;
                } else if tokens[j].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                } else if tokens[j].is_punct(";") && depth == 0 {
                    end = j + 1;
                    break;
                } else if tokens[j].is_punct("#") && depth == 0 && j > item_start {
                    // A sibling attribute before any body: stay pending,
                    // restart attr handling from here.
                    break;
                }
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct("#") && depth == 0 {
                i = j;
                continue;
            }
            for t in tokens[item_start..end].iter_mut() {
                t.in_test = true;
            }
            pending_test = false;
            i = end;
            continue;
        }
        i += 1;
    }
}

/// Whether an attribute's token body gates test code: `test`,
/// `cfg(test)`, or a path ending in `::test` — but not `cfg(not(test))`.
fn attr_is_test(body: &[Token]) -> bool {
    if body.is_empty() {
        return false;
    }
    // `#[test]` / `#[tokio::test]`: last path segment is `test` and the
    // attribute is just a path.
    if body
        .iter()
        .all(|t| t.kind == TokKind::Ident || t.is_punct("::"))
        && body.last().is_some_and(|t| t.is_ident("test"))
    {
        return true;
    }
    // `#[cfg(test)]` and `#[cfg(all(test, …))]`: `test` appears directly
    // inside a `cfg(..)` with no `not(` wrapper in front of it.
    if body.first().is_some_and(|t| t.is_ident("cfg")) {
        let mut not_depth: Vec<usize> = Vec::new();
        let mut depth = 0usize;
        let mut prev_ident: Option<&str> = None;
        for t in body {
            if t.is_punct("(") {
                depth += 1;
                if prev_ident == Some("not") {
                    not_depth.push(depth);
                }
            } else if t.is_punct(")") {
                if not_depth.last() == Some(&depth) {
                    not_depth.pop();
                }
                depth = depth.saturating_sub(1);
            } else if t.is_ident("test") && not_depth.is_empty() {
                return true;
            }
            prev_ident = if t.kind == TokKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            };
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(tokens: &[Token]) -> Vec<(&str, bool)> {
        tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text.as_str(), t.in_test))
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let toks = lex("let x = \"HashMap\"; // HashMap\n/* HashMap */ let y = 1;");
        assert!(!idents(&toks).iter().any(|(t, _)| *t == "HashMap"));
        assert!(idents(&toks).iter().any(|(t, _)| *t == "y"));
    }

    #[test]
    fn raw_strings_and_chars_are_stripped() {
        let toks =
            lex("let s = r#\"HashMap \"quoted\" text\"#; let c = 'H'; let l: &'a str = \"\";");
        assert!(!idents(&toks).iter().any(|(t, _)| *t == "HashMap"));
        // The lifetime label is skipped entirely, not mistaken for a char.
        assert!(!idents(&toks).iter().any(|(t, _)| *t == "a"));
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}";
        let toks = lex(src);
        let ids = idents(&toks);
        assert!(ids.contains(&("live", false)));
        assert!(ids.contains(&("helper", true)));
        assert!(ids.contains(&("after", false)));
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let toks = lex("#[cfg(not(test))]\nfn live() { let m = 1; }");
        assert!(idents(&toks).contains(&("live", false)));
    }

    #[test]
    fn test_fn_attribute_is_marked() {
        let toks = lex("#[test]\nfn check() { body(); }\nfn live() {}");
        let ids = idents(&toks);
        assert!(ids.contains(&("body", true)));
        assert!(ids.contains(&("live", false)));
    }

    #[test]
    fn intervening_attributes_keep_the_gate_armed() {
        let toks = lex("#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn inner() {} }");
        assert!(idents(&toks).contains(&("inner", true)));
    }

    #[test]
    fn path_separator_is_merged() {
        let toks = lex("std::time::Instant::now()");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["std", "::", "time", "::", "Instant", "::", "now", "(", ")"]
        );
    }

    #[test]
    fn numbers_do_not_swallow_range_dots() {
        let toks = lex("for i in 0..10 { x(1.5e-3); }");
        assert!(toks.iter().any(|t| t.is_punct(".")));
        assert!(idents(&toks).iter().any(|(t, _)| *t == "x"));
        // The float literal is one token with its text intact.
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text == "1.5e-3"));
    }

    #[test]
    fn string_content_is_retained_but_not_an_ident() {
        let toks = lex("named(seed, \"task/alpha\"); let r = r#\"raw/label\"#;");
        let strs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["task/alpha", "raw/label"]);
        assert!(!idents(&toks).iter().any(|(t, _)| t.contains("task")));
    }

    #[test]
    fn simlint_directive_comments_are_captured() {
        let src = "\
fn f() {\n    // simlint::allow(D3/task-state): replay harness rewinds\n    let x = 1; // simlint::allow(D1/hash-collections): scratch only\n    // an ordinary comment mentioning simlint stays stripped\n}";
        let (_, comments) = lex_with_comments(src);
        assert_eq!(comments.len(), 2);
        assert!(!comments[0].trailing);
        assert_eq!(comments[0].line, 2);
        assert!(comments[0].text.starts_with("simlint::allow(D3"));
        assert!(comments[1].trailing);
        assert_eq!(comments[1].line, 3);
    }

    #[test]
    fn doc_comments_quoting_the_grammar_are_not_directives() {
        let (_, comments) = lex_with_comments(
            "/// use `// simlint::allow(<rule>): <reason>` to suppress\nfn f() {}",
        );
        assert!(comments.is_empty());
    }
}
