//! A small but honest Rust lexer.
//!
//! The awk/grep lints this crate replaces were comment-blind and
//! string-blind: `".unwrap("` inside a string literal tripped them, and a
//! `panic!` inside a block comment did too. This lexer implements the full
//! token surface those rules need to be exact about:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * string, byte-string, char and byte-char literals with escapes;
//! * raw strings (`r"…"`, `r#"…"#`, `br##"…"##`) with any hash depth;
//! * lifetimes (`'a`, `'static`) vs. char literals (`'a'`, `'\n'`);
//! * raw identifiers (`r#match`);
//! * numbers, including tuple-field chains (`x.0.unwrap()` still lexes
//!   `unwrap` as its own identifier token).
//!
//! Tokens carry 1-based line/column positions so diagnostics are
//! clickable. The lexer never fails: unknown bytes become one-character
//! punctuation tokens, and unterminated literals run to end of file.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `unsafe`, `fn`, `r#match`).
    Ident,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    CharLit,
    /// String or byte-string literal, escaped form (`"…"`, `b"…"`).
    StrLit,
    /// Raw (byte-)string literal (`r"…"`, `br##"…"##`).
    RawStrLit,
    /// Numeric literal (including suffix: `1_000u32`, `2.5e-3f64`).
    NumLit,
    /// A `//` comment, up to but excluding the newline.
    LineComment,
    /// A `/* … */` comment, nesting respected.
    BlockComment,
    /// One punctuation character (`.`, `(`, `{`, `!`, …).
    Punct(char),
}

/// One lexed token with its source text and position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// The exact source text (comments include their delimiters).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// End line of the token (same as `line` except for multi-line
    /// comments and raw strings).
    pub fn end_line(&self) -> u32 {
        self.line + self.text.matches('\n').count() as u32
    }

    /// Whether this token is a comment.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xc0 != 0x80 {
            // Count characters, not bytes: UTF-8 continuation bytes do not
            // advance the column.
            self.col += 1;
        }
        Some(b)
    }

    fn starts_ident(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
    }

    fn continues_ident(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
    }

    /// Consumes an escaped literal body up to an unescaped `close`.
    fn eat_escaped_until(&mut self, close: u8) {
        while let Some(b) = self.bump() {
            if b == b'\\' {
                self.bump();
            } else if b == close {
                break;
            }
        }
    }

    /// At `r`/`br` with `hashes` hashes already counted: consumes the raw
    /// string body through `"` + `hashes` hashes.
    fn eat_raw_string(&mut self, hashes: usize) {
        // Opening quote.
        self.bump();
        loop {
            match self.bump() {
                None => return,
                Some(b'"') => {
                    let mut seen = 0;
                    while seen < hashes && self.peek(0) == Some(b'#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        return;
                    }
                }
                Some(_) => {}
            }
        }
    }

    fn eat_number(&mut self) {
        // Integer part (covers 0x/0b/0o digits and `_` separators; hex
        // letters are alphanumeric).
        while self.peek(0).is_some_and(Self::continues_ident) {
            self.bump();
        }
        // Fractional part only when `.` is followed by a digit — `0..10`
        // and `x.0.unwrap()` must not swallow the dot.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
            while self.peek(0).is_some_and(Self::continues_ident) {
                self.bump();
            }
        }
        // Signed exponent (`1e-3`): the `-`/`+` is part of the number only
        // right after `e`/`E` with digits following.
        if self.src[..self.pos].last().is_some_and(|b| matches!(b, b'e' | b'E'))
            && self.peek(0).is_some_and(|b| matches!(b, b'+' | b'-'))
            && self.peek(1).is_some_and(|b| b.is_ascii_digit())
        {
            self.bump();
            while self.peek(0).is_some_and(Self::continues_ident) {
                self.bump();
            }
        }
    }

    fn next_token(&mut self) -> Option<Token> {
        // Skip whitespace.
        while self.peek(0).is_some_and(|b| b.is_ascii_whitespace()) {
            self.bump();
        }
        let b = self.peek(0)?;
        let (start, line, col) = (self.pos, self.line, self.col);
        let kind = match b {
            b'/' if self.peek(1) == Some(b'/') => {
                while self.peek(0).is_some_and(|c| c != b'\n') {
                    self.bump();
                }
                TokenKind::LineComment
            }
            b'/' if self.peek(1) == Some(b'*') => {
                self.bump();
                self.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match self.bump() {
                        None => break,
                        Some(b'/') if self.peek(0) == Some(b'*') => {
                            self.bump();
                            depth += 1;
                        }
                        Some(b'*') if self.peek(0) == Some(b'/') => {
                            self.bump();
                            depth -= 1;
                        }
                        Some(_) => {}
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => {
                self.bump();
                self.eat_escaped_until(b'"');
                TokenKind::StrLit
            }
            b'r' | b'b' if self.raw_string_ahead() => {
                // r"…" / r#"…"# / b"…" / br##"…"## / rb is invalid but lexed
                // leniently as a raw string would be harmless.
                if b == b'b' && self.peek(1) == Some(b'"') {
                    self.bump(); // b
                    self.bump(); // "
                    self.eat_escaped_until(b'"');
                    TokenKind::StrLit
                } else {
                    self.bump(); // r or b
                    if self.peek(0) == Some(b'r') {
                        self.bump();
                    }
                    let mut hashes = 0usize;
                    while self.peek(0) == Some(b'#') {
                        self.bump();
                        hashes += 1;
                    }
                    self.eat_raw_string(hashes);
                    TokenKind::RawStrLit
                }
            }
            b'b' if self.peek(1) == Some(b'\'') => {
                self.bump(); // b
                self.bump(); // '
                self.eat_escaped_until(b'\'');
                TokenKind::CharLit
            }
            b'\'' => {
                // Lifetime vs char literal. `'a'` / `'\n'` are chars;
                // `'a`, `'static` (no closing quote) are lifetimes.
                self.bump(); // '
                if self.peek(0) == Some(b'\\') {
                    self.eat_escaped_until(b'\'');
                    TokenKind::CharLit
                } else if self.peek(0).is_some_and(Self::starts_ident)
                    && self.peek(1) != Some(b'\'')
                {
                    while self.peek(0).is_some_and(Self::continues_ident) {
                        self.bump();
                    }
                    // A closing quote after the "ident" means this was a
                    // multi-byte char literal ('é'), not a lifetime.
                    if self.peek(0) == Some(b'\'') {
                        self.bump();
                        TokenKind::CharLit
                    } else {
                        TokenKind::Lifetime
                    }
                } else {
                    self.eat_escaped_until(b'\'');
                    TokenKind::CharLit
                }
            }
            b'r' if self.peek(1) == Some(b'#') && self.peek(2).is_some_and(Self::starts_ident) => {
                // Raw identifier r#match.
                self.bump();
                self.bump();
                while self.peek(0).is_some_and(Self::continues_ident) {
                    self.bump();
                }
                TokenKind::Ident
            }
            b if Self::starts_ident(b) => {
                while self.peek(0).is_some_and(Self::continues_ident) {
                    self.bump();
                }
                TokenKind::Ident
            }
            b if b.is_ascii_digit() => {
                self.eat_number();
                TokenKind::NumLit
            }
            other => {
                self.bump();
                TokenKind::Punct(other as char)
            }
        };
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        Some(Token { kind, text, line, col })
    }

    /// Is a raw/byte string opener at the cursor? (`r"`, `r#…#"`, `b"`,
    /// `br"`, `br#…#"`.)
    fn raw_string_ahead(&self) -> bool {
        let mut i = 1; // past the leading r or b
        if self.peek(0) == Some(b'b') && self.peek(1) == Some(b'r') {
            i = 2;
        } else if self.peek(0) == Some(b'b') {
            return self.peek(1) == Some(b'"');
        }
        while self.peek(i) == Some(b'#') {
            i += 1;
        }
        // `r#ident` falls through here (no quote after the hashes) and is
        // lexed as a raw identifier instead.
        self.peek(i) == Some(b'"')
    }
}

/// Lexes a whole source file into tokens (whitespace dropped, comments
/// kept).
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer { src: src.as_bytes(), pos: 0, line: 1, col: 1 };
    let mut out = Vec::new();
    while let Some(t) = lx.next_token() {
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn unwrap_inside_string_is_one_literal() {
        let toks = kinds(r#"let s = ".unwrap(";"#);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::StrLit && t == "\".unwrap(\""));
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn panic_inside_block_comment_is_comment() {
        let toks = kinds("/* panic!(\"x\") /* nested panic! */ still comment */ fn f() {}");
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert!(toks[0].1.contains("nested panic!"));
        assert_eq!(toks[1], (TokenKind::Ident, "fn".into()));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"panic!(".unwrap(")"#; let t = r"x";"###);
        let raws: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::RawStrLit).collect();
        assert_eq!(raws.len(), 2);
        assert!(raws[0].1.contains("panic!"));
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn byte_raw_string_and_byte_char() {
        let toks = kinds(r##"let a = br#"Instant"#; let b = b"x"; let c = b'\'';"##);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::RawStrLit && t.contains("Instant")));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::StrLit && t == "b\"x\""));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::CharLit && t == "b'\\''"));
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "Instant"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str, c: char) { let y = 'z'; let nl = '\\n'; }");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).count(), 2);
        let chars: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::CharLit).map(|(_, t)| t).collect();
        assert_eq!(chars, ["'z'", "'\\n'"]);
    }

    #[test]
    fn tuple_field_unwrap_still_lexes_unwrap_ident() {
        let toks = kinds("let v = x.0.unwrap();");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::NumLit && t == "0"));
    }

    #[test]
    fn numbers_with_ranges_exponents_suffixes() {
        let toks = kinds("let a = 0..10; let b = 1e-3f64; let c = 1_000usize; let d = 2.5;");
        let nums: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::NumLit).map(|(_, t)| t.as_str()).collect();
        assert_eq!(nums, ["0", "10", "1e-3f64", "1_000usize", "2.5"]);
    }

    #[test]
    fn raw_identifier_is_ident() {
        let toks = kinds("let r#match = 1;");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "r#match"));
    }

    #[test]
    fn positions_are_one_based_and_multiline() {
        let toks = lex("fn a() {}\n  let x = 1;");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        let let_tok = toks.iter().find(|t| t.text == "let").unwrap();
        assert_eq!((let_tok.line, let_tok.col), (2, 3));
    }

    #[test]
    fn multiline_block_comment_end_line() {
        let toks = lex("/* a\nb\nc */ fn f() {}");
        assert_eq!(toks[0].end_line(), 3);
        let f = toks.iter().find(|t| t.text == "fn").unwrap();
        assert_eq!(f.line, 3);
    }
}
