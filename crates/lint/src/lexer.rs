//! A hand-rolled token-level Rust lexer.
//!
//! The build environment is offline, so `dles-lint` cannot use `syn` or
//! `proc-macro2`; instead this module tokenizes Rust source directly. It
//! understands exactly as much of the language as the cross-checks need
//! to tell code from strings and comments:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * string literals: plain (`"…"` with escapes), raw (`r"…"`,
//!   `r#"…"#`, any number of hashes), byte (`b"…"`, `br#"…"#`);
//! * char literals vs. lifetimes (`'a'` vs. `'a`), including escapes;
//! * raw identifiers (`r#match`);
//! * identifiers, numbers, and single-character punctuation.
//!
//! Every token carries its 1-based source line so a finding can name it.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#match` → `match`).
    Ident,
    /// String literal of any flavor; `text` is the *inner* content.
    Str,
    /// Char or byte-char literal; `text` is the inner content.
    Char,
    /// Lifetime (`'a`); `text` is the name without the quote.
    Lifetime,
    /// Numeric literal (integer or float, any base, with suffix).
    Number,
    /// One punctuation character (`.`, `:`, `(`, …).
    Punct,
    /// `//…` comment; `text` is the content after the slashes.
    LineComment,
    /// `/*…*/` comment (nesting resolved); `text` is the inner content.
    BlockComment,
}

/// One lexed token with its 1-based starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    /// Is this token the identifier `word`?
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == word
    }

    /// Is this token the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

/// Tokenize `src`. The lexer never fails: malformed input (e.g. an
/// unterminated string) produces a best-effort token stream that simply
/// ends at EOF, which is the right behavior for a scanner that must not
/// crash on the code it reads.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            src,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn run(mut self) -> Vec<Token> {
        let _ = self.src;
        let mut out = Vec::new();
        // A shebang (`#!/usr/bin/env …`) is not Rust syntax: skip the
        // whole first line. `#![inner_attribute]` must NOT be skipped.
        if self.peek(0) == Some('#') && self.peek(1) == Some('!') && self.peek(2) != Some('[') {
            while let Some(c) = self.peek(0) {
                if c == '\n' {
                    break;
                }
                self.bump();
            }
        }
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => out.push(self.line_comment(line)),
                '/' if self.peek(1) == Some('*') => out.push(self.block_comment(line)),
                '"' => out.push(self.plain_string(line)),
                '\'' => out.push(self.char_or_lifetime(line)),
                c if c.is_ascii_digit() => out.push(self.number(line)),
                c if c == '_' || c.is_alphabetic() => {
                    if let Some(tok) = self.maybe_prefixed_literal(line) {
                        out.push(tok);
                    } else {
                        out.push(self.ident(line));
                    }
                }
                _ => {
                    self.bump();
                    out.push(Token {
                        kind: TokenKind::Punct,
                        text: c.to_string(),
                        line,
                    });
                }
            }
        }
        out
    }

    fn line_comment(&mut self, line: u32) -> Token {
        self.bump();
        self.bump(); // "//"
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        Token {
            kind: TokenKind::LineComment,
            text,
            line,
        }
    }

    fn block_comment(&mut self, line: u32) -> Token {
        self.bump();
        self.bump(); // "/*"
        let mut text = String::new();
        let mut depth = 1usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
                text.push_str("*/");
            } else {
                text.push(c);
                self.bump();
            }
        }
        Token {
            kind: TokenKind::BlockComment,
            text,
            line,
        }
    }

    /// A `"…"` string with `\` escapes.
    fn plain_string(&mut self, line: u32) -> Token {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    text.push(c);
                    self.bump();
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                '"' => {
                    self.bump();
                    break;
                }
                _ => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        Token {
            kind: TokenKind::Str,
            text,
            line,
        }
    }

    /// `r"…"` / `r#"…"#` with any number of hashes (already past the `r`).
    fn raw_string(&mut self, line: u32) -> Token {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'outer: while let Some(c) = self.peek(0) {
            if c == '"' {
                // A quote closes only when followed by `hashes` hashes.
                for k in 0..hashes {
                    if self.peek(1 + k) != Some('#') {
                        text.push(c);
                        self.bump();
                        continue 'outer;
                    }
                }
                self.bump();
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
            self.bump();
        }
        Token {
            kind: TokenKind::Str,
            text,
            line,
        }
    }

    /// Disambiguate `'a'` (char), `'\n'` (escaped char) and `'a` (lifetime).
    fn char_or_lifetime(&mut self, line: u32) -> Token {
        self.bump(); // opening quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: the char after `\` is always part
                // of the literal (even `\'`), then scan to the close.
                let mut text = String::from("\\");
                self.bump();
                if let Some(e) = self.bump() {
                    text.push(e);
                }
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                    text.push(c);
                }
                Token {
                    kind: TokenKind::Char,
                    text,
                    line,
                }
            }
            Some(c) if c == '_' || c.is_alphanumeric() => {
                if self.peek(1) == Some('\'') {
                    // 'a' — a char literal.
                    self.bump();
                    self.bump();
                    Token {
                        kind: TokenKind::Char,
                        text: c.to_string(),
                        line,
                    }
                } else {
                    // 'a — a lifetime: consume the identifier tail.
                    let mut text = String::new();
                    while let Some(c) = self.peek(0) {
                        if c == '_' || c.is_alphanumeric() {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Token {
                        kind: TokenKind::Lifetime,
                        text,
                        line,
                    }
                }
            }
            Some(other) => {
                // Punctuation char literal like '(' or ' '.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                Token {
                    kind: TokenKind::Char,
                    text: other.to_string(),
                    line,
                }
            }
            None => Token {
                kind: TokenKind::Char,
                text: String::new(),
                line,
            },
        }
    }

    fn number(&mut self, line: u32) -> Token {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` continues the number; `0..10` does not.
                text.push(c);
                self.bump();
            } else if (c == '+' || c == '-')
                && text.ends_with(['e', 'E'])
                && !text.starts_with("0x")
                && !text.starts_with("0X")
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                // Signed float exponent: `1.5e-3` is one literal. The hex
                // guard keeps `0xE-1` as subtraction.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        Token {
            kind: TokenKind::Number,
            text,
            line,
        }
    }

    /// Handle `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'` and raw
    /// identifiers `r#name`; returns `None` when the upcoming token is a
    /// plain identifier that happens to start with `r` or `b`.
    fn maybe_prefixed_literal(&mut self, line: u32) -> Option<Token> {
        let c = self.peek(0)?;
        match c {
            'r' => match self.peek(1) {
                Some('"') => {
                    self.bump();
                    Some(self.raw_string(line))
                }
                Some('#') => {
                    // r#"…"# raw string or r#ident raw identifier.
                    let mut k = 1;
                    while self.peek(k) == Some('#') {
                        k += 1;
                    }
                    if self.peek(k) == Some('"') {
                        self.bump();
                        Some(self.raw_string(line))
                    } else {
                        // Raw identifier: skip `r#` and lex the name.
                        self.bump();
                        self.bump();
                        Some(self.ident(line))
                    }
                }
                _ => None,
            },
            'b' => match (self.peek(1), self.peek(2)) {
                (Some('"'), _) => {
                    self.bump();
                    Some(self.plain_string(line))
                }
                (Some('\''), _) => {
                    self.bump();
                    Some(self.char_or_lifetime(line))
                }
                (Some('r'), Some('"')) | (Some('r'), Some('#')) => {
                    self.bump();
                    self.bump();
                    Some(self.raw_string(line))
                }
                _ => None,
            },
            _ => None,
        }
    }

    fn ident(&mut self, line: u32) -> Token {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        Token {
            kind: TokenKind::Ident,
            text,
            line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = lex("fn main() { x.y(); }");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["fn", "main", "x", "y"]);
    }

    #[test]
    fn string_contents_are_not_idents() {
        let toks = lex(r#"let s = "HashMap Instant thread_rng";"#);
        assert!(!toks.iter().any(|t| t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "Instant" || t.text == "thread_rng")));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text.contains("HashMap")));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let toks = kinds(r#"let s = "a\"b"; x"#);
        assert!(toks.contains(&(TokenKind::Str, "a\\\"b".to_owned())));
        assert!(toks.contains(&(TokenKind::Ident, "x".to_owned())));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"quote " inside"#; y"###);
        assert!(toks.contains(&(TokenKind::Str, "quote \" inside".to_owned())));
        assert!(toks.contains(&(TokenKind::Ident, "y".to_owned())));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = kinds(r##"let a = b"abc"; let c = br#"d"e"#;"##);
        assert!(toks.contains(&(TokenKind::Str, "abc".to_owned())));
        assert!(toks.contains(&(TokenKind::Str, "d\"e".to_owned())));
    }

    #[test]
    fn raw_identifier_is_an_ident() {
        let toks = kinds("let r#match = 1;");
        assert!(toks.contains(&(TokenKind::Ident, "match".to_owned())));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still comment */ code");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert!(toks[0].1.contains("inner"));
        assert_eq!(toks[1], (TokenKind::Ident, "code".to_owned()));
    }

    #[test]
    fn line_comment_captures_text_and_stops_at_newline() {
        let toks = lex("x // counters.incr(\"k\") — prose\ny");
        assert_eq!(toks[1].kind, TokenKind::LineComment);
        assert!(toks[1].text.contains("counters.incr(\"k\") — prose"));
        assert_eq!(toks[2].text, "y");
        assert_eq!(toks[2].line, 2);
    }

    #[test]
    fn comment_inside_string_is_string() {
        let toks = kinds(r#"let s = "// not a comment"; z"#);
        assert!(toks.contains(&(TokenKind::Str, "// not a comment".to_owned())));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::LineComment));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = kinds("let c = 'a'; fn f<'a>(x: &'a str) { let n = '\\n'; let q = '\\''; }");
        let chars: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(chars, vec!["a", "\\n", "\\'"]);
        let lifetimes = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
    }

    #[test]
    fn byte_char_literal() {
        let toks = kinds("let c = b'x'; w");
        assert!(toks.contains(&(TokenKind::Char, "x".to_owned())));
        assert!(toks.contains(&(TokenKind::Ident, "w".to_owned())));
    }

    #[test]
    fn numbers_including_ranges_and_floats() {
        let toks = kinds("for i in 0..10 { let x = 1.5e3; let h = 0xFF_u8; }");
        assert!(toks.contains(&(TokenKind::Number, "0".to_owned())));
        assert!(toks.contains(&(TokenKind::Number, "10".to_owned())));
        assert!(toks.contains(&(TokenKind::Number, "0xFF_u8".to_owned())));
        // 1.5e3: the mantissa stays one token.
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Number && t.starts_with("1.5")));
    }

    #[test]
    fn line_numbers_are_tracked_through_multiline_tokens() {
        let src = "a\n/* one\ntwo */\nb \"x\ny\" c";
        let toks = lex(src);
        let a = toks.iter().find(|t| t.is_ident("a")).unwrap();
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        let c = toks.iter().find(|t| t.is_ident("c")).unwrap();
        assert_eq!(a.line, 1);
        assert_eq!(b.line, 4);
        assert_eq!(c.line, 5);
    }

    #[test]
    fn unterminated_string_does_not_hang() {
        let toks = lex("let s = \"never closed");
        assert_eq!(toks.last().unwrap().kind, TokenKind::Str);
    }

    #[test]
    fn shebang_line_is_skipped() {
        let toks = lex("#!/usr/bin/env run-cargo-script\nfn main() {}\n");
        assert_eq!(toks[0].text, "fn");
        assert_eq!(toks[0].line, 2);
    }

    #[test]
    fn inner_attribute_is_not_a_shebang() {
        let toks = lex("#![forbid(unsafe_code)]\nfn main() {}\n");
        assert!(toks[0].is_punct('#'));
        assert!(toks[1].is_punct('!'));
        assert!(toks.iter().any(|t| t.is_ident("forbid")));
    }

    #[test]
    fn signed_exponents_stay_one_token() {
        let toks = kinds("let a = 1.5e-3; let b = 2.5e+6; let c = 7E-2;");
        assert!(toks.contains(&(TokenKind::Number, "1.5e-3".to_owned())));
        assert!(toks.contains(&(TokenKind::Number, "2.5e+6".to_owned())));
        assert!(toks.contains(&(TokenKind::Number, "7E-2".to_owned())));
    }

    #[test]
    fn hex_e_is_not_an_exponent() {
        // `0xE-1` is subtraction on the hex literal 0xE, not an exponent.
        let toks = kinds("let x = 0xE-1;");
        assert!(toks.contains(&(TokenKind::Number, "0xE".to_owned())));
        assert!(toks.contains(&(TokenKind::Number, "1".to_owned())));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Punct && t == "-"));
    }

    #[test]
    fn float_suffix_stays_one_token() {
        let toks = kinds("let x = 1.0f64; let y = 3f32;");
        assert!(toks.contains(&(TokenKind::Number, "1.0f64".to_owned())));
        assert!(toks.contains(&(TokenKind::Number, "3f32".to_owned())));
    }

    #[test]
    fn ident_starting_with_r_or_b_is_plain() {
        let toks = kinds("let radius = 1; let bytes = 2; rb(br);");
        assert!(toks.contains(&(TokenKind::Ident, "radius".to_owned())));
        assert!(toks.contains(&(TokenKind::Ident, "bytes".to_owned())));
        assert!(toks.contains(&(TokenKind::Ident, "rb".to_owned())));
        assert!(toks.contains(&(TokenKind::Ident, "br".to_owned())));
    }

    #[test]
    fn inner_line_doc_is_one_comment_token() {
        let toks = lex("//! crate docs mentioning HashMap and Instant\nfn f() {}\n");
        assert_eq!(toks[0].kind, TokenKind::LineComment);
        assert!(toks[0].text.contains("HashMap"));
        // Nothing from the doc text leaks out as an identifier.
        assert!(!toks
            .iter()
            .any(|t| t.is_ident("HashMap") || t.is_ident("Instant")));
        assert!(toks.iter().any(|t| t.is_ident("f")));
    }

    #[test]
    fn inner_block_doc_is_one_comment_token() {
        let toks = lex("/*!\nSystemTime and thread_rng as prose.\n*/\nfn g() {}\n");
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert!(toks[0].text.contains("SystemTime"));
        assert!(!toks
            .iter()
            .any(|t| t.is_ident("SystemTime") || t.is_ident("thread_rng")));
        // The fn after the block lands on the right line for findings.
        let f = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 4);
    }

    #[test]
    fn code_fence_in_doc_comment_stays_comment_text() {
        // A fenced example spelling out a real violation must never
        // produce Ident tokens — each `///` line is one comment token.
        let src = "/// ```ignore\n/// let t = Instant::now();\n/// let m = HashMap::new();\n/// ```\nfn h() {}\n";
        let toks = lex(src);
        let comments: Vec<&Token> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::LineComment)
            .collect();
        assert_eq!(comments.len(), 4);
        assert!(comments[1].text.contains("Instant::now()"));
        assert!(!toks
            .iter()
            .any(|t| t.is_ident("Instant") || t.is_ident("HashMap")));
    }
}
