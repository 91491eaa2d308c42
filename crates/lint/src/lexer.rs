//! A hand-rolled Rust lexer, just deep enough for static analysis.
//!
//! The container is offline, so `slc-lint` cannot lean on `syn` or
//! `proc-macro2`; instead this module tokenises Rust source by hand. It
//! handles everything that would otherwise corrupt a naive scan:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments,
//! * string literals with escapes, byte strings, and raw strings with an
//!   arbitrary `#` guard count (`r"…"`, `r#"…"#`, `br##"…"##`),
//! * the lifetime-vs-char-literal ambiguity (`'a` vs `'a'` vs `'\n'`),
//! * numeric literals including hex, underscores, suffixes and floats
//!   (without swallowing `..` range dots).
//!
//! Comments are lexed into a side channel ([`Lexed::comments`]) rather
//! than the main token stream, so item scanning stays simple while the
//! waiver check still sees every comment with its line.

/// What a token is, coarsely. The scanner works on identifier text and
/// single-character punctuation; literal *values* are kept only where a
/// check needs them (string contents for the wire-format freeze).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, `r#type`).
    Ident(String),
    /// A lifetime such as `'a` (the text excludes the quote).
    Lifetime(String),
    /// Character or byte-character literal (`'x'`, `b'\n'`).
    CharLit,
    /// String literal of any flavour; the cooked value is best-effort
    /// (escapes resolved for plain strings, verbatim for raw strings).
    StrLit(String),
    /// Numeric literal, verbatim text (`0x1f`, `1_000u64`, `2.5`).
    Num(String),
    /// Single punctuation character (`{`, `!`, `:`, …).
    Punct(char),
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

/// One comment with its starting line. `text` excludes the `//` / `/*`
/// markers for line comments but keeps interior text verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub text: String,
    /// First line of the comment.
    pub line: u32,
    /// Last line (block comments can span several).
    pub end_line: u32,
    /// True when nothing but whitespace precedes the comment on its line
    /// (a "standalone" comment, eligible to annotate the line below).
    pub own_line: bool,
}

/// Lexer output: the token stream plus the comment side channel.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

impl Token {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Tokenises `src`. Unterminated constructs (a corrupt file) end the
/// current token at EOF rather than panicking — the lint must never
/// crash on the code it audits.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Tracks whether anything other than whitespace has appeared on the
    // current line, to classify standalone comments.
    let mut line_has_code = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line,
                    end_line: line,
                    own_line: !line_has_code,
                });
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let own = !line_has_code;
                let text_start = i + 2;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text_end = if depth == 0 { i - 2 } else { i };
                out.comments.push(Comment {
                    text: src[text_start..text_end.max(text_start)].to_string(),
                    line: start_line,
                    end_line: line,
                    own_line: own,
                });
                line_has_code = true;
            }
            '\'' => {
                line_has_code = true;
                // Lifetime vs char literal: `'ident` not followed by a
                // closing quote is a lifetime (or loop label).
                let mut j = i + 1;
                if j < bytes.len() && (bytes[j].is_ascii_alphabetic() || bytes[j] == b'_') {
                    let id_start = j;
                    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    if bytes.get(j) != Some(&b'\'') {
                        out.tokens.push(Token {
                            kind: TokenKind::Lifetime(src[id_start..j].to_string()),
                            line,
                        });
                        i = j;
                        continue;
                    }
                }
                // Char literal: skip escapes until the closing quote.
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'\'' => {
                            i += 1;
                            break;
                        }
                        b'\n' => break, // corrupt literal; resync at newline
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token { kind: TokenKind::CharLit, line });
            }
            '"' => {
                line_has_code = true;
                let (value, next, nl) = cooked_string(src, i + 1);
                out.tokens.push(Token { kind: TokenKind::StrLit(value), line });
                line += nl;
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                line_has_code = true;
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                // Raw strings / byte strings: the prefix is lexically an
                // identifier glued to the quote.
                if matches!(word, "r" | "b" | "br" | "rb" | "c" | "cr") {
                    if let Some((tok, next, nl)) = string_after_prefix(src, word, i) {
                        out.tokens.push(Token { kind: tok, line });
                        line += nl;
                        i = next;
                        continue;
                    }
                }
                // Raw identifier `r#ident`.
                if word == "r"
                    && bytes.get(i) == Some(&b'#')
                    && bytes.get(i + 1).is_some_and(|&b| b.is_ascii_alphabetic() || b == b'_')
                {
                    let start = i + 1;
                    i += 1;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    out.tokens
                        .push(Token { kind: TokenKind::Ident(src[start..i].to_string()), line });
                    continue;
                }
                out.tokens.push(Token { kind: TokenKind::Ident(word.to_string()), line });
            }
            c if c.is_ascii_digit() => {
                line_has_code = true;
                let start = i;
                i += 1;
                let mut seen_dot = false;
                while i < bytes.len() {
                    let b = bytes[i];
                    if b.is_ascii_alphanumeric() || b == b'_' {
                        // Exponent sign: `1e-5` / `2E+3`.
                        if (b == b'e' || b == b'E')
                            && !src[start..i].starts_with("0x")
                            && matches!(bytes.get(i + 1), Some(b'+') | Some(b'-'))
                            && bytes.get(i + 2).is_some_and(|d| d.is_ascii_digit())
                        {
                            i += 2;
                        }
                        i += 1;
                    } else if b == b'.'
                        && !seen_dot
                        && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                    {
                        // A dot only joins the number when a digit follows,
                        // so `0..10` stays a range, not a float.
                        seen_dot = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token { kind: TokenKind::Num(src[start..i].to_string()), line });
            }
            c => {
                line_has_code = true;
                out.tokens.push(Token { kind: TokenKind::Punct(c), line });
                i += c.len_utf8();
            }
        }
    }
    out
}

/// Lexes a plain (cooked) string body starting just past the opening
/// quote. Returns `(value, index past closing quote, newlines crossed)`.
fn cooked_string(src: &str, mut i: usize) -> (String, usize, u32) {
    let bytes = src.as_bytes();
    let mut value = String::new();
    let mut nl = 0u32;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                if let Some(&esc) = bytes.get(i + 1) {
                    match esc {
                        b'n' => value.push('\n'),
                        b't' => value.push('\t'),
                        b'r' => value.push('\r'),
                        b'0' => value.push('\0'),
                        b'\\' => value.push('\\'),
                        b'"' => value.push('"'),
                        b'\'' => value.push('\''),
                        b'\n' => nl += 1, // line-continuation escape
                        // \x.. and \u{..}: keep verbatim; no check needs
                        // the exact code point.
                        _ => {
                            value.push('\\');
                            value.push(esc as char);
                        }
                    }
                    i += 2;
                } else {
                    i += 1;
                }
            }
            b'"' => return (value, i + 1, nl),
            b'\n' => {
                nl += 1;
                value.push('\n');
                i += 1;
            }
            b => {
                value.push(b as char);
                i += 1;
            }
        }
    }
    (value, i, nl)
}

/// After an identifier-like prefix (`r`, `b`, `br`, …), tries to lex the
/// rest of a string literal starting at `i`. Returns the token, the index
/// past its end, and newlines crossed — or `None` when no string follows
/// (then the prefix was an ordinary identifier).
fn string_after_prefix(src: &str, prefix: &str, i: usize) -> Option<(TokenKind, usize, u32)> {
    let bytes = src.as_bytes();
    let raw = prefix.contains('r');
    if raw {
        // Count `#` guards, then require a quote.
        let mut j = i;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
        let guards = j - i;
        if bytes.get(j) != Some(&b'"') {
            return None;
        }
        j += 1;
        let body_start = j;
        let closer: Vec<u8> =
            std::iter::once(b'"').chain(std::iter::repeat_n(b'#', guards)).collect();
        let mut nl = 0u32;
        while j < bytes.len() {
            if bytes[j] == b'\n' {
                nl += 1;
            }
            if bytes[j] == b'"' && bytes[j..].starts_with(&closer) {
                let value = src[body_start..j].to_string();
                return Some((TokenKind::StrLit(value), j + closer.len(), nl));
            }
            j += 1;
        }
        Some((TokenKind::StrLit(src[body_start..j].to_string()), j, nl))
    } else if bytes.get(i) == Some(&b'"') {
        let (value, next, nl) = cooked_string(src, i + 1);
        Some((TokenKind::StrLit(value), next, nl))
    } else if prefix == "b" && bytes.get(i) == Some(&b'\'') {
        // Byte-char literal b'x'.
        let mut j = i + 1;
        while j < bytes.len() {
            match bytes[j] {
                b'\\' => j += 2,
                b'\'' => return Some((TokenKind::CharLit, j + 1, 0)),
                b'\n' => break,
                _ => j += 1,
            }
        }
        Some((TokenKind::CharLit, j, 0))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes =
            l.tokens.iter().filter(|t| matches!(t.kind, TokenKind::Lifetime(_))).count();
        let chars = l.tokens.iter().filter(|t| t.kind == TokenKind::CharLit).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn escaped_char_literals() {
        let l = lex(r"let a = '\''; let b = '\n'; let c = b'\\';");
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokenKind::CharLit).count(), 3);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* outer /* inner */ still comment */ b");
        assert_eq!(idents("a /* outer /* inner */ still comment */ b"), ["a", "b"]);
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
    }

    #[test]
    fn raw_strings_with_guards() {
        let l = lex(r####"let s = r#"has "quotes" and // no comment"#;"####);
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::StrLit(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, [r#"has "quotes" and // no comment"#]);
        assert!(l.comments.is_empty(), "comment marker inside raw string must not lex");
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let l = lex(r##"let m = *b"SLC1"; let r = br#"raw"#;"##);
        let strs = l.tokens.iter().filter(|t| matches!(t.kind, TokenKind::StrLit(_))).count();
        assert_eq!(strs, 2);
    }

    #[test]
    fn string_escapes_cook() {
        let l = lex(r#"let s = "a\"b\n";"#);
        match &l.tokens.iter().find(|t| matches!(t.kind, TokenKind::StrLit(_))).unwrap().kind {
            TokenKind::StrLit(s) => assert_eq!(s, "a\"b\n"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let l = lex("for i in 0..10 { let f = 2.5e-3f64; let h = 0xff_u32; }");
        let nums: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Num(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, ["0", "10", "2.5e-3f64", "0xff_u32"]);
    }

    #[test]
    fn comment_lines_and_ownership() {
        let src = "let x = 1; // trailing\n// standalone\nlet y = 2;\n";
        let l = lex(src);
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert!(!l.comments[0].own_line);
        assert_eq!(l.comments[1].line, 2);
        assert!(l.comments[1].own_line);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#type = 1;"), ["let", "type"]);
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        lex("let s = \"unterminated");
        lex("/* never closed");
        lex("let c = 'x");
        lex("let r = r#\"no close");
    }
}
