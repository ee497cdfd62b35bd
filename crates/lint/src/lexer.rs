//! A small hand-rolled Rust lexer.
//!
//! The linter's rules are token-level — "an `unwrap` ident called as a
//! method", "an `unsafe` keyword without an adjacent `SAFETY:` comment" —
//! so the lexer's one job is to split source text into tokens *without*
//! being fooled by the places those words can appear as inert text: string
//! literals (including raw strings with any number of `#`s and byte/C
//! strings), char and byte literals, lifetimes, line comments, and nested
//! block comments. It does not parse: structure (brace matching, attribute
//! grouping, test-region tracking) is layered on top in [`crate::analysis`].
//!
//! Fidelity notes, deliberately modest:
//!
//! * Keywords are not distinguished from identifiers — rules match on
//!   token text.
//! * Multi-character punctuation (`::`, `=>`, `..=`) is emitted as single
//!   characters; rules match the sequence.
//! * Numeric literals are lexed loosely (enough to never leak into
//!   neighbouring tokens).

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (raw identifiers keep their `r#` prefix).
    Ident,
    /// A lifetime such as `'a` (not a char literal).
    Lifetime,
    /// Any string-like literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`,
    /// `c"…"`, `cr#"…"#`.
    Str,
    /// A char or byte literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A numeric literal (integer or float, any base, with suffix).
    Number,
    /// A `// …` comment (text includes the slashes, excludes the newline).
    LineComment,
    /// A `/* … */` comment, possibly nested and multi-line.
    BlockComment,
    /// A single punctuation character.
    Punct,
}

/// One lexed token: a kind plus its byte span and 1-based start line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The lexeme class.
    pub kind: TokenKind,
    /// Byte offset of the token's first byte.
    pub start: usize,
    /// Byte offset one past the token's last byte.
    pub end: usize,
    /// 1-based line number of the token's first byte.
    pub line: u32,
}

impl Token {
    /// The token's text, sliced out of the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// The 1-based line the token *ends* on (differs from `line` only for
    /// multi-line block comments and strings).
    pub fn end_line(&self, src: &str) -> u32 {
        self.line + self.text(src).bytes().filter(|&b| b == b'\n').count() as u32
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking newlines.
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Consumes an identifier run starting at the current position.
    fn ident_run(&mut self) {
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
    }

    /// Consumes a `"…"` body (opening quote already consumed), honouring
    /// `\\` and `\"` escapes. Unterminated strings run to EOF (the rules
    /// only care that no later text is misread as code).
    fn escaped_string_body(&mut self) {
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Consumes a raw-string body: the caller consumed the prefix through
    /// the opening quote; `hashes` is the number of `#`s that must follow a
    /// `"` to terminate it.
    fn raw_string_body(&mut self, hashes: usize) {
        while let Some(b) = self.peek(0) {
            if b == b'"' {
                let mut matched = 0;
                while matched < hashes && self.peek(1 + matched) == Some(b'#') {
                    matched += 1;
                }
                if matched == hashes {
                    self.bump_n(1 + hashes);
                    return;
                }
            }
            self.bump();
        }
    }

    /// Consumes a char/byte-literal body (opening quote already consumed).
    fn char_body(&mut self) {
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.bump_n(2),
                b'\'' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Consumes a (loose) numeric literal starting on a digit.
    fn number(&mut self) {
        let mut prev = 0u8;
        while let Some(b) = self.peek(0) {
            let take = if b.is_ascii_alphanumeric() || b == b'_' {
                true
            } else if b == b'.' {
                // A dot continues the number only when a digit follows
                // (`1.5` yes, `1..5` and `x.0.abs()` handled elsewhere).
                self.peek(1).is_some_and(|n| n.is_ascii_digit())
            } else {
                // An exponent sign: `1e-3`, `2E+7`.
                (b == b'+' || b == b'-') && (prev == b'e' || prev == b'E')
            };
            if !take {
                break;
            }
            prev = b;
            self.bump();
        }
    }
}

/// Lexes `src` into tokens. Whitespace is dropped; comments are kept (the
/// rules need them for `SAFETY:` and `LINT-ALLOW` detection). The lexer
/// never fails: malformed trailing input degrades to `Punct` tokens.
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut tokens = Vec::new();
    while let Some(b) = lx.peek(0) {
        // Whitespace.
        if b.is_ascii_whitespace() {
            lx.bump();
            continue;
        }
        let start = lx.pos;
        let line = lx.line;
        let kind = match b {
            b'/' if lx.peek(1) == Some(b'/') => {
                while lx.peek(0).is_some_and(|b| b != b'\n') {
                    lx.bump();
                }
                TokenKind::LineComment
            }
            b'/' if lx.peek(1) == Some(b'*') => {
                lx.bump_n(2);
                let mut depth = 1usize;
                while depth > 0 {
                    match (lx.peek(0), lx.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            lx.bump_n(2);
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            lx.bump_n(2);
                        }
                        (Some(_), _) => lx.bump(),
                        (None, _) => break,
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => {
                lx.bump();
                lx.escaped_string_body();
                TokenKind::Str
            }
            b'\'' => {
                lx.bump();
                // Lifetime vs char literal: `'ident` not followed by a
                // closing quote is a lifetime; everything else is a char.
                if lx.peek(0).is_some_and(is_ident_start) && lx.peek(0) != Some(b'_') {
                    let probe = lx.pos;
                    let mut ahead = 0;
                    while lx
                        .src
                        .get(probe + ahead)
                        .copied()
                        .is_some_and(is_ident_continue)
                    {
                        ahead += 1;
                    }
                    if lx.src.get(probe + ahead) == Some(&b'\'') {
                        lx.bump_n(ahead + 1);
                        TokenKind::Char
                    } else {
                        lx.bump_n(ahead);
                        TokenKind::Lifetime
                    }
                } else {
                    lx.char_body();
                    TokenKind::Char
                }
            }
            b if b.is_ascii_digit() => {
                lx.number();
                TokenKind::Number
            }
            b if is_ident_start(b) => {
                // Check for literal prefixes before lexing a plain ident:
                // r"…", r#"…"#, r#ident, b"…", b'…', br#"…"#, c"…", cr#"…"#.
                let mut run = 0usize;
                while lx.peek(run).is_some_and(is_ident_continue) {
                    run += 1;
                }
                let word = &lx.src[lx.pos..lx.pos + run];
                let after = lx.peek(run);
                match (word, after) {
                    (b"r" | b"br" | b"cr", Some(b'#')) => {
                        let mut hashes = 0usize;
                        while lx.peek(run + hashes) == Some(b'#') {
                            hashes += 1;
                        }
                        if lx.peek(run + hashes) == Some(b'"') {
                            lx.bump_n(run + hashes + 1);
                            lx.raw_string_body(hashes);
                            TokenKind::Str
                        } else if word == b"r" && hashes == 1 {
                            // Raw identifier `r#ident`.
                            lx.bump_n(2);
                            lx.ident_run();
                            TokenKind::Ident
                        } else {
                            lx.bump_n(run);
                            TokenKind::Ident
                        }
                    }
                    (b"r" | b"b" | b"br" | b"c" | b"cr", Some(b'"')) => {
                        lx.bump_n(run + 1);
                        if word == b"r" || word == b"br" || word == b"cr" {
                            lx.raw_string_body(0);
                        } else {
                            lx.escaped_string_body();
                        }
                        TokenKind::Str
                    }
                    (b"b", Some(b'\'')) => {
                        lx.bump_n(run + 1);
                        lx.char_body();
                        TokenKind::Char
                    }
                    _ => {
                        lx.bump_n(run);
                        TokenKind::Ident
                    }
                }
            }
            _ => {
                // One punctuation character (consume a whole UTF-8 scalar
                // so multi-byte garbage cannot desync the byte walk).
                let len = src[lx.pos..].chars().next().map_or(1, char::len_utf8);
                lx.bump_n(len);
                TokenKind::Punct
            }
        };
        tokens.push(Token {
            kind,
            start,
            end: lx.pos,
            line,
        });
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds_and_text(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        assert_eq!(
            kinds_and_text("let x = foo.unwrap();"),
            vec![
                (TokenKind::Ident, "let".into()),
                (TokenKind::Ident, "x".into()),
                (TokenKind::Punct, "=".into()),
                (TokenKind::Ident, "foo".into()),
                (TokenKind::Punct, ".".into()),
                (TokenKind::Ident, "unwrap".into()),
                (TokenKind::Punct, "(".into()),
                (TokenKind::Punct, ")".into()),
                (TokenKind::Punct, ";".into()),
            ]
        );
        assert_eq!(
            kinds_and_text("1_000u64 0xff 1.5e-3 1..5"),
            vec![
                (TokenKind::Number, "1_000u64".into()),
                (TokenKind::Number, "0xff".into()),
                (TokenKind::Number, "1.5e-3".into()),
                (TokenKind::Number, "1".into()),
                (TokenKind::Punct, ".".into()),
                (TokenKind::Punct, ".".into()),
                (TokenKind::Number, "5".into()),
            ]
        );
    }

    #[test]
    fn strings_hide_their_content() {
        // The word `unwrap` inside string literals of every flavour must
        // not produce an Ident token.
        let sources = [
            r#"let s = "call unwrap() here";"#,
            r##"let s = r"raw unwrap()";"##,
            r###"let s = r#"raw " quoted unwrap()"#;"###,
            r###"let s = r##"nested "# unwrap()"##;"###,
            r#"let s = b"bytes unwrap()";"#,
            r###"let s = br#"raw bytes unwrap()"#;"###,
            r#"let s = "escaped \" unwrap()";"#,
            r#"let s = c"c-string unwrap()";"#,
        ];
        for src in sources {
            let idents: Vec<_> = lex(src)
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text(src).to_string())
                .collect();
            assert_eq!(idents, vec!["let", "s"], "leaked from `{src}`");
            assert_eq!(
                lex(src).iter().filter(|t| t.kind == TokenKind::Str).count(),
                1,
                "string not lexed as one token in `{src}`"
            );
        }
    }

    #[test]
    fn comments_hide_their_content_and_nest() {
        let src = "/* outer /* unwrap() */ still comment */ code /* two */";
        let toks = kinds_and_text(src);
        assert_eq!(
            toks,
            vec![
                (
                    TokenKind::BlockComment,
                    "/* outer /* unwrap() */ still comment */".into()
                ),
                (TokenKind::Ident, "code".into()),
                (TokenKind::BlockComment, "/* two */".into()),
            ]
        );
        let src = "x // trailing unwrap()\ny";
        let toks = kinds_and_text(src);
        assert_eq!(
            toks[1],
            (TokenKind::LineComment, "// trailing unwrap()".into())
        );
        assert_eq!(toks[2], (TokenKind::Ident, "y".into()));
    }

    #[test]
    fn char_byte_and_lifetime_disambiguation() {
        assert_eq!(
            kinds_and_text(r"'a' b'x' '\n' '\'' 'static &'a str"),
            vec![
                (TokenKind::Char, "'a'".into()),
                (TokenKind::Char, "b'x'".into()),
                (TokenKind::Char, r"'\n'".into()),
                (TokenKind::Char, r"'\''".into()),
                (TokenKind::Lifetime, "'static".into()),
                (TokenKind::Punct, "&".into()),
                (TokenKind::Lifetime, "'a".into()),
                (TokenKind::Ident, "str".into()),
            ]
        );
        // A char literal containing a quote-adjacent word: `'"'` then text.
        assert_eq!(
            kinds_and_text(r#"'"' x"#),
            vec![
                (TokenKind::Char, "'\"'".into()),
                (TokenKind::Ident, "x".into()),
            ]
        );
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        assert_eq!(
            kinds_and_text("r#type r#fn plain"),
            vec![
                (TokenKind::Ident, "r#type".into()),
                (TokenKind::Ident, "r#fn".into()),
                (TokenKind::Ident, "plain".into()),
            ]
        );
    }

    #[test]
    fn line_numbers_and_end_lines() {
        let src = "a\nb\n/* c\nd */ e\n\"s1\ns2\" f";
        let toks = lex(src);
        let by_text: Vec<(String, u32, u32)> = toks
            .iter()
            .map(|t| (t.text(src).to_string(), t.line, t.end_line(src)))
            .collect();
        assert_eq!(by_text[0], ("a".into(), 1, 1));
        assert_eq!(by_text[1], ("b".into(), 2, 2));
        assert_eq!(by_text[2], ("/* c\nd */".into(), 3, 4));
        assert_eq!(by_text[3], ("e".into(), 4, 4));
        assert_eq!(by_text[4], ("\"s1\ns2\"".into(), 5, 6));
        assert_eq!(by_text[5], ("f".into(), 6, 6));
    }

    #[test]
    fn numeric_literals_lex_as_single_tokens() {
        let src = "4 1_000 0xff 2.5 SNAPSHOT_VERSION 9u64";
        let toks: Vec<(TokenKind, &str)> = lex(src).iter().map(|t| (t.kind, t.text(src))).collect();
        assert_eq!(
            toks,
            vec![
                (TokenKind::Number, "4"),
                (TokenKind::Number, "1_000"),
                (TokenKind::Number, "0xff"),
                (TokenKind::Number, "2.5"),
                (TokenKind::Ident, "SNAPSHOT_VERSION"),
                (TokenKind::Number, "9u64"),
            ]
        );
    }

    #[test]
    fn unterminated_tails_do_not_loop() {
        for src in ["\"open", "r#\"open", "/* open", "'", "b'"] {
            let toks = lex(src);
            assert!(!toks.is_empty(), "no tokens for `{src}`");
        }
    }
}
