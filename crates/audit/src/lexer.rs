//! A real Rust token lexer for the audit pass.
//!
//! PR 2's `scrub.rs` was a per-line state machine good enough for blanking
//! strings and comments, but it could not see *structure*: it reset string
//! state at end of line (plain Rust strings may span lines), it could not
//! tell which brace closes a module, and the scanner built on it exempted
//! everything from the first `#[cfg(test)]` to end of file — unsound for
//! live code that follows a test module. This module replaces it with a
//! character-accurate lexer producing three aligned views of a source file:
//!
//! * [`LexedFile::tokens`] — the token stream (identifiers, lifetimes,
//!   literals, punctuation with `::` fused), each carrying its 1-based line.
//!   Comments are dropped; string/char/number literal *content* is not
//!   tokenized (a literal is one opaque token), so rule patterns spelled in
//!   message strings can never look like code.
//! * [`LexedFile::code_lines`] — layout-preserving "code only" text per
//!   input line (comments removed, literal interiors blanked): the view the
//!   lexer's own suites assert blanking on (the rules read tokens).
//! * [`LexedFile::test_lines`] — per-line flag: the line lies inside the
//!   span of an item carrying `#[cfg(test)]` (or follows a file-level
//!   `#![cfg(test)]`). Spans are brace-tracked to the matching close, so the
//!   exemption covers exactly the test module body — not the file tail.
//!
//! Handled literal forms: strings with escapes (multi-line), raw strings
//! `r"…"`/`r#"…"#` with any hash depth, byte strings `b"…"`/`br#"…"#`, char
//! and byte-char literals (`'x'`, `'\u{1F600}'`, `b'\n'`), raw identifiers
//! `r#match`, and the char-literal vs. lifetime ambiguity (`'a'` vs `'a`).
//! Block comments nest to arbitrary depth and span lines.

/// Kind of one lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, prefix stripped).
    Ident,
    /// A lifetime (`'a`, `'static`); `text` excludes the quote.
    Lifetime,
    /// Any literal: string/char/byte/number. Content is opaque (`text`
    /// empty); the token only marks that a literal occupied this position.
    Literal,
    /// Punctuation; `text` is the character, or the fused `"::"`.
    Punct,
}

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Identifier text / lifetime name / punctuation string; empty for
    /// literals.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// The lexer's output: tokens plus the per-line views.
#[derive(Clone, Debug, Default)]
pub struct LexedFile {
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Code-only text per input line (aligned with the input's lines).
    pub code_lines: Vec<String>,
    /// Whether each line lies inside a `#[cfg(test)]` item span.
    pub test_lines: Vec<bool>,
    /// Whether each line lies inside a `#[cfg(feature = …)]` item span
    /// (code requiring a non-default feature). The call graph excludes it:
    /// the rules audit the default-feature hot path, and
    /// `debug-invariants`-style diagnostics are compiled out of it.
    pub gated_lines: Vec<bool>,
}

impl LexedFile {
    /// Whether 0-based line index `idx` is exempt test code.
    pub fn is_test_line(&self, idx: usize) -> bool {
        self.test_lines.get(idx).copied().unwrap_or(false)
    }

    /// Whether 0-based line index `idx` requires a non-default feature.
    pub fn is_gated_line(&self, idx: usize) -> bool {
        self.gated_lines.get(idx).copied().unwrap_or(false)
    }
}

/// Lexes `source` into tokens and per-line views.
pub fn lex(source: &str) -> LexedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut lx = Lexer::new(&chars);
    lx.run();
    // A trailing newline opens an empty line buffer; drop it so the views
    // align with `source.lines()`.
    if source.ends_with('\n') && lx.lines.last().is_some_and(|l| l.is_empty()) {
        lx.lines.pop();
    }
    let n_lines = lx.lines.len().max(1);
    let mut file = LexedFile {
        tokens: lx.tokens,
        code_lines: if lx.lines.is_empty() { vec![String::new()] } else { lx.lines },
        test_lines: vec![false; n_lines],
        gated_lines: vec![false; n_lines],
    };
    mark_attr_spans(&file.tokens, "test", &mut file.test_lines);
    mark_attr_spans(&file.tokens, "feature", &mut file.gated_lines);
    file
}

struct Lexer<'a> {
    b: &'a [char],
    i: usize,
    line: usize,
    tokens: Vec<Token>,
    lines: Vec<String>,
}

impl<'a> Lexer<'a> {
    fn new(b: &'a [char]) -> Self {
        Self { b, i: 0, line: 1, tokens: Vec::new(), lines: vec![String::new()] }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.b.get(self.i + ahead).copied()
    }

    /// Consumes one character as *code*: it appears in the code line view.
    fn bump_code(&mut self) -> char {
        let c = self.b[self.i];
        self.i += 1;
        if c == '\n' {
            self.newline();
        } else {
            self.lines.last_mut().expect("line buffer").push(c);
        }
        c
    }

    /// Consumes one character as *blank* (literal interior): position kept,
    /// content replaced by a space in the line view.
    fn bump_blank(&mut self) {
        let c = self.b[self.i];
        self.i += 1;
        if c == '\n' {
            self.newline();
        } else {
            self.lines.last_mut().expect("line buffer").push(' ');
        }
    }

    /// Consumes one character silently (comments): nothing in the line view.
    fn bump_drop(&mut self) {
        let c = self.b[self.i];
        self.i += 1;
        if c == '\n' {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.line += 1;
        self.lines.push(String::new());
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize) {
        self.tokens.push(Token { kind, text, line });
    }

    fn run(&mut self) {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                'r' | 'b' | 'c' if self.raw_string_hashes().is_some() => {
                    let hashes = self.raw_string_hashes().expect("checked");
                    self.raw_string_literal(hashes);
                }
                'b' | 'c' if self.peek(1) == Some('"') && !self.prev_is_word() => {
                    self.bump_code(); // the b/c prefix
                    self.string_literal();
                }
                'b' if self.peek(1) == Some('\'') && !self.prev_is_word() => {
                    self.bump_code(); // the b prefix
                    self.char_or_lifetime();
                }
                'r' if self.peek(1) == Some('#')
                    && self.peek(2).is_some_and(is_ident_start)
                    && !self.prev_is_word() =>
                {
                    // Raw identifier r#match.
                    let line = self.line;
                    self.bump_code();
                    self.bump_code();
                    let text = self.ident_text();
                    self.push(TokenKind::Ident, text, line);
                }
                '\'' => self.char_or_lifetime(),
                ':' if self.peek(1) == Some(':') => {
                    let line = self.line;
                    self.bump_code();
                    self.bump_code();
                    self.push(TokenKind::Punct, "::".into(), line);
                }
                _ if is_ident_start(c) => {
                    let line = self.line;
                    let text = self.ident_text();
                    self.push(TokenKind::Ident, text, line);
                }
                _ if c.is_ascii_digit() => {
                    // Number literal: consume the alphanumeric/underscore run
                    // (covers hex/bin/suffixes; `1.0` lexes as two literals
                    // around a '.' — adequate for the audit's purposes).
                    let line = self.line;
                    while self.peek(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
                        self.bump_code();
                    }
                    self.push(TokenKind::Literal, String::new(), line);
                }
                _ if c.is_whitespace() => {
                    self.bump_code();
                }
                _ => {
                    let line = self.line;
                    self.bump_code();
                    self.push(TokenKind::Punct, c.to_string(), line);
                }
            }
        }
    }

    fn prev_is_word(&self) -> bool {
        self.i > 0 && {
            let p = self.b[self.i - 1];
            p.is_alphanumeric() || p == '_'
        }
    }

    fn ident_text(&mut self) -> String {
        let start = self.i;
        while self.peek(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
            self.bump_code();
        }
        self.b[start..self.i].iter().collect()
    }

    fn line_comment(&mut self) {
        while self.i < self.b.len() && self.b[self.i] != '\n' {
            self.bump_drop();
        }
    }

    fn block_comment(&mut self) {
        self.bump_drop(); // '/'
        self.bump_drop(); // '*'
        let mut depth = 1u32;
        while self.i < self.b.len() && depth > 0 {
            if self.b[self.i] == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump_drop();
                self.bump_drop();
            } else if self.b[self.i] == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump_drop();
                self.bump_drop();
            } else {
                self.bump_drop();
            }
        }
    }

    /// `"…"` with escapes; may span lines (unlike the old scrubber, which
    /// reset at EOL and mis-lexed multi-line strings).
    fn string_literal(&mut self) {
        let line = self.line;
        self.bump_code(); // opening quote
        while self.i < self.b.len() {
            match self.b[self.i] {
                '\\' => {
                    self.bump_blank();
                    if self.i < self.b.len() {
                        self.bump_blank(); // the escaped char (covers \" \\)
                    }
                }
                '"' => {
                    self.bump_code(); // closing quote
                    break;
                }
                _ => self.bump_blank(),
            }
        }
        self.push(TokenKind::Literal, String::new(), line);
    }

    /// If position `i` starts a raw (byte/C) string — `r"`, `r#"`, `br##"`,
    /// `cr"` … — returns the number of `#`s.
    fn raw_string_hashes(&self) -> Option<u32> {
        if self.prev_is_word() {
            return None;
        }
        let mut j = 0;
        if matches!(self.peek(0), Some('b') | Some('c')) {
            j += 1;
        }
        if self.peek(j) != Some('r') {
            return None;
        }
        j += 1;
        let mut hashes = 0u32;
        while self.peek(j) == Some('#') {
            hashes += 1;
            j += 1;
        }
        (self.peek(j) == Some('"')).then_some(hashes)
    }

    fn raw_string_literal(&mut self, hashes: u32) {
        let line = self.line;
        // Consume prefix (b, r, #s) and opening quote as code.
        while self.peek(0) != Some('"') {
            self.bump_code();
        }
        self.bump_code(); // opening quote
        while self.i < self.b.len() {
            if self.b[self.i] == '"' && (0..hashes as usize).all(|k| self.peek(1 + k) == Some('#'))
            {
                self.bump_code(); // closing quote
                for _ in 0..hashes {
                    self.bump_code();
                }
                break;
            }
            self.bump_blank();
        }
        self.push(TokenKind::Literal, String::new(), line);
    }

    /// `'x'`, `'\n'`, `'\u{…}'` are char literals; `'a`, `'static` are
    /// lifetimes. An unmatched `'` must never open string-like state.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        if self.peek(1) == Some('\\') {
            // Escaped char literal: blank to the closing quote.
            self.bump_blank(); // opening '
            self.bump_blank(); // backslash
            if self.i < self.b.len() {
                self.bump_blank(); // escaped char
            }
            while self.i < self.b.len() && self.b[self.i] != '\'' {
                self.bump_blank(); // \u{…} payload
            }
            if self.i < self.b.len() {
                self.bump_blank(); // closing '
            }
            self.push(TokenKind::Literal, String::new(), line);
        } else if self.peek(2) == Some('\'') && self.peek(1) != Some('\'') {
            self.bump_blank(); // opening '
            self.bump_blank(); // the char
            self.bump_blank(); // closing '
            self.push(TokenKind::Literal, String::new(), line);
        } else if self.peek(1).is_some_and(is_ident_start) {
            self.bump_code(); // the quote
            let text = self.ident_text();
            self.push(TokenKind::Lifetime, text, line);
        } else {
            self.bump_code();
            self.push(TokenKind::Punct, "'".into(), line);
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

// --- #[cfg(…)] span tracking ----------------------------------------------

/// Marks the lines covered by items whose `#[cfg(…)]` predicate requires
/// `marker` (`test` for test spans, `feature` for feature-gated spans).
///
/// An outer attribute `#[cfg(…)]` with the marker ident at even `not(…)`
/// depth — so `#[cfg(not(test))]` stays live — covers the item that
/// follows: subsequent attributes are skipped, then the span runs to the
/// matching `}` of the item's first brace (brace-tracked, so only the
/// module/fn/impl body is covered — code after a test module is scanned
/// again), or to the `;` of a braceless item (including cfg-gated
/// *statements* such as a gated call). A file-level `#![cfg(test)]` covers
/// the rest of the file.
fn mark_attr_spans(tokens: &[Token], marker: &str, out_lines: &mut [bool]) {
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct("#") {
            i += 1;
            continue;
        }
        let inner = tokens.get(i + 1).is_some_and(|t| t.is_punct("!"));
        let open = i + if inner { 2 } else { 1 };
        if !tokens.get(open).is_some_and(|t| t.is_punct("[")) {
            i += 1;
            continue;
        }
        let Some(close) = matching(tokens, open, "[", "]") else {
            i += 1;
            continue;
        };
        if !attr_requires(&tokens[open + 1..close], marker) {
            i = close + 1;
            continue;
        }
        let start_line = tokens[i].line;
        if inner {
            // `#![cfg(test)]`: the whole enclosing scope — for the audit's
            // file-granular view, the rest of the file.
            for flag in out_lines[start_line.saturating_sub(1)..].iter_mut() {
                *flag = true;
            }
            return;
        }
        // Skip any further attributes between the cfg and the item.
        let mut j = close + 1;
        while tokens.get(j).is_some_and(|t| t.is_punct("#"))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct("["))
        {
            match matching(tokens, j + 1, "[", "]") {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        // The item span: to the matching `}` of its first brace, or to `;`.
        let mut end_line = tokens.get(j).map_or(start_line, |t| t.line);
        let mut k = j;
        while let Some(t) = tokens.get(k) {
            if t.is_punct(";") {
                end_line = t.line;
                break;
            }
            if t.is_punct("{") {
                match matching(tokens, k, "{", "}") {
                    Some(c) => end_line = tokens[c].line,
                    None => end_line = tokens.last().map_or(end_line, |t| t.line),
                }
                break;
            }
            end_line = t.line;
            k += 1;
        }
        let hi = end_line.min(out_lines.len());
        for flag in out_lines[start_line.saturating_sub(1)..hi].iter_mut() {
            *flag = true;
        }
        i = j;
    }
}

/// Index of the token matching the opener at `open` (which must be `open_p`),
/// honoring nesting.
pub(crate) fn matching(
    tokens: &[Token],
    open: usize,
    open_p: &str,
    close_p: &str,
) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_p) {
            depth += 1;
        } else if t.is_punct(close_p) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Whether the attribute tokens (between `[` and `]`) are a `cfg(…)` whose
/// predicate requires `marker` to hold: the marker ident appears at even
/// `not(…)` depth (so `#[cfg(not(test))]` does not count as test code).
fn attr_requires(attr: &[Token], marker: &str) -> bool {
    if !attr.first().is_some_and(|t| t.is_ident("cfg")) {
        return false;
    }
    let mut not_stack: Vec<usize> = Vec::new(); // paren depths of open not(…)
    let mut depth = 0usize;
    let mut k = 1;
    while k < attr.len() {
        let t = &attr[k];
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth = depth.saturating_sub(1);
            while not_stack.last().is_some_and(|&d| d > depth) {
                not_stack.pop();
            }
        } else if t.is_ident("not") && attr.get(k + 1).is_some_and(|t| t.is_punct("(")) {
            not_stack.push(depth + 1);
        } else if t.is_ident(marker) && not_stack.len().is_multiple_of(2) {
            return true;
        }
        k += 1;
    }
    false
}

// --- suppression markers ---------------------------------------------------

/// Rule ids named by an `audit:allow(<rules>)` marker on this *raw* line.
///
/// Syntax: `// audit:allow(rule-a, rule-b) -- why this is fine`. The marker
/// is looked up on the raw (unlexed) line because it lives in a comment.
pub fn suppressed_rules(raw_line: &str) -> Vec<String> {
    let Some(at) = raw_line.find("audit:allow(") else {
        return Vec::new();
    };
    let rest = &raw_line[at + "audit:allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Vec::new();
    };
    rest[..close].split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect()
}

/// Lock name named by an `audit:lock(<name>)` marker on this *raw* line.
///
/// The concurrency rules (A9/A11) infer a lock's identity from the
/// receiver ident at the acquisition site (`shared.deques.lock()` → lock
/// `deques`). When that inference is wrong — typically an indexed element
/// lock (`deques[i].lock()`) that must not share a node with the list lock
/// — the site carries `// audit:lock(<name>)` to name the lock explicitly.
/// Looked up on the raw line because the marker lives in a comment.
pub fn lock_name_override(raw_line: &str) -> Option<String> {
    let at = raw_line.find("audit:lock(")?;
    let rest = &raw_line[at + "audit:lock(".len()..];
    let close = rest.find(')')?;
    let name = rest[..close].trim();
    (!name.is_empty()).then(|| name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(src: &str) -> Vec<String> {
        lex(src).code_lines
    }

    #[test]
    fn line_comments_are_dropped() {
        let out = code("let x = 1; // Instant::now\n/// doc .iter()\ncode();\n");
        assert_eq!(out[0], "let x = 1; ");
        assert_eq!(out[1], "");
        assert_eq!(out[2], "code();");
    }

    #[test]
    fn nested_block_comments_span_lines() {
        let out = code("a(); /* one /* two\nstill comment */ still */ b();\nc();\n");
        assert_eq!(out[0], "a(); ");
        assert_eq!(out[1], " b();");
        assert_eq!(out[2], "c();");
    }

    #[test]
    fn strings_are_blanked_not_removed() {
        let out = code("let s = \"thread_rng and .iter()\"; f(s);\n");
        assert!(!out[0].contains("thread_rng"));
        assert!(!out[0].contains(".iter()"));
        assert!(out[0].contains("f(s);"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let out = code("let s = \"a \\\" Instant::now\"; g();\n");
        assert!(!out[0].contains("Instant::now"));
        assert!(out[0].contains("g();"));
    }

    #[test]
    fn multi_line_strings_stay_blanked() {
        // The old scrubber reset string state at EOL; the lexer must not.
        let out = code("let s = \"first\nthread_rng()\nlast\"; h();\n");
        assert!(!out[1].contains("thread_rng"), "{:?}", out[1]);
        assert!(out[2].contains("h();"));
    }

    #[test]
    fn raw_and_byte_strings_are_blanked() {
        let out = code("let s = r#\"has \"quotes\" and thread_rng\"#; h();\n");
        assert!(!out[0].contains("thread_rng"), "{:?}", out[0]);
        assert!(out[0].contains("h();"));
        let out = code("let b = b\"thread_rng\"; let rb = br##\"x \"# thread_rng\"##; i();\n");
        assert!(!out[0].contains("thread_rng"), "{:?}", out[0]);
        assert!(out[0].contains("i();"));
    }

    #[test]
    fn c_strings_are_blanked_not_leaked() {
        // Plain c-string: content blanked, no spurious `c` ident.
        let f = lex("let cs = c\"lit thread_rng\"; m();\n");
        assert!(!f.code_lines[0].contains("thread_rng"), "{:?}", f.code_lines[0]);
        assert!(f.code_lines[0].contains("m();"));
        assert!(!f.tokens.iter().any(|t| t.is_ident("c")), "no phantom `c` ident");
        // Raw c-string: the inner quote must not end the literal early
        // (before the fix, `thread_rng` leaked out as a live ident — a
        // false nondet-taint source).
        let f = lex("let cr = cr#\"raw \" thread_rng\"#; n();\n");
        assert!(!f.code_lines[0].contains("thread_rng"), "{:?}", f.code_lines[0]);
        assert!(f.code_lines[0].contains("n();"));
        assert!(!f.tokens.iter().any(|t| t.is_ident("thread_rng")));
    }

    #[test]
    fn amp_lifetime_vs_char_disambiguation() {
        // `&'static` and `&'_` are lifetimes; `&'a'` and `x & 'y'` are
        // references to / conjunctions with char literals.
        let f = lex("fn f(x: &'static str, y: &'_ u8) { g(x, y); }\n");
        let lifetimes: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["static", "_"]);
        let f = lex("let c = &'a'; let p = x & 'y'; h();\n");
        assert!(f.tokens.iter().all(|t| t.kind != TokenKind::Lifetime));
        assert_eq!(f.tokens.iter().filter(|t| t.kind == TokenKind::Literal).count(), 2);
        assert!(f.code_lines[0].contains("h();"));
    }

    #[test]
    fn char_literals_blank_but_lifetimes_survive() {
        let out = code("fn f<'a>(x: &'a str) -> char { '\"' }\n");
        assert!(out[0].contains("&'a str"));
        let out = code("let c = 'x'; let q = '\\''; let u = '\\u{1F600}'; i();\n");
        assert!(out[0].contains("i();"));
    }

    #[test]
    fn tokens_carry_lines_and_kinds() {
        let f = lex("fn foo() {\n    bar::baz(1);\n}\n");
        let idents: Vec<(&str, usize)> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(idents, vec![("fn", 1), ("foo", 1), ("bar", 2), ("baz", 2)]);
        assert!(f.tokens.iter().any(|t| t.is_punct("::") && t.line == 2));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let f = lex("let r#match = 1; r#match.count();\n");
        assert_eq!(f.tokens.iter().filter(|t| t.is_ident("match")).count(), 2);
    }

    #[test]
    fn test_module_span_is_bounded() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() {}\n\
                   }\n\
                   fn also_live() {}\n";
        let f = lex(src);
        assert_eq!(f.test_lines, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_not_test_is_live() {
        let f = lex("#[cfg(not(test))]\nfn live() {}\n");
        assert!(f.test_lines.iter().all(|&t| !t));
        let f = lex("#[cfg(all(test, feature = \"x\"))]\nmod t {\n}\n");
        assert_eq!(f.test_lines, vec![true, true, true]);
        let f = lex("#[cfg(not(all(test)))]\nfn live() {}\n");
        assert!(f.test_lines.iter().all(|&t| !t));
    }

    #[test]
    fn cfg_test_on_braceless_item_ends_at_semicolon() {
        let f = lex("#[cfg(test)]\nuse std::time::Instant;\nfn live() {}\n");
        assert_eq!(f.test_lines, vec![true, true, false]);
    }

    #[test]
    fn attrs_between_cfg_and_item_are_covered() {
        let f = lex("#[cfg(test)]\n#[allow(dead_code)]\nmod t {\n    fn x() {}\n}\nfn live() {}\n");
        assert_eq!(f.test_lines, vec![true, true, true, true, true, false]);
    }

    #[test]
    fn inner_cfg_test_exempts_rest_of_file() {
        let f = lex("#![cfg(test)]\nfn a() {}\nfn b() {}\n");
        assert!(f.test_lines.iter().all(|&t| t));
    }

    #[test]
    fn suppression_parsing() {
        assert_eq!(
            suppressed_rules("let t = x; // audit:allow(wall-clock) -- display only"),
            vec!["wall-clock"]
        );
        assert_eq!(
            suppressed_rules("// audit:allow(hash-iter, unwrap-budget) -- reason"),
            vec!["hash-iter", "unwrap-budget"]
        );
        assert!(suppressed_rules("plain code line").is_empty());
        assert!(suppressed_rules("// audit:allow( unclosed").is_empty());
    }

    #[test]
    fn lock_name_override_parsing() {
        assert_eq!(
            lock_name_override("deques[i].lock(); // audit:lock(deque) -- element lock"),
            Some("deque".to_string())
        );
        assert_eq!(lock_name_override("plain code line"), None);
        assert_eq!(lock_name_override("// audit:lock( unclosed"), None);
        assert_eq!(lock_name_override("// audit:lock()"), None);
    }
}
