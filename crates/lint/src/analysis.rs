//! Per-file analysis shared by every rule.
//!
//! A [`SourceFile`] wraps the raw text plus its token stream and two derived
//! layers the rules consume:
//!
//! * a **test mask** — which tokens live in `#[cfg(test)]` / `#[test]` code
//!   (or in a file under a `tests/` directory), so rules can restrict
//!   themselves to production code;
//! * the **allow list** — parsed `// LINT-ALLOW(rule): reason` escape
//!   hatches, which the check driver uses to suppress findings and which
//!   must themselves be well-formed and actually used.

use crate::lexer::{lex, Token, TokenKind};

/// A parsed `// LINT-ALLOW(rule): reason` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule name inside the parentheses.
    pub rule: String,
    /// 1-based line of the comment. The allow suppresses findings of
    /// `rule` on this line and the next one (so it can sit above the
    /// offending expression or trail it on the same line).
    pub line: u32,
    /// The free-text justification after the colon.
    pub reason: String,
}

/// A `LINT-ALLOW` marker that could not be parsed (missing rule name or
/// missing reason). Reported as a finding so typos don't silently
/// disable nothing.
#[derive(Debug, Clone)]
pub struct MalformedAllow {
    /// 1-based line of the comment.
    pub line: u32,
    /// Why it failed to parse.
    pub problem: String,
}

/// One workspace source file, lexed and annotated.
pub struct SourceFile {
    /// Path relative to the workspace root (always with `/` separators).
    pub rel_path: String,
    /// The raw source text.
    pub text: String,
    /// All tokens, including comments.
    pub tokens: Vec<Token>,
    /// `test_mask[i]` is true when `tokens[i]` is in test-only code.
    pub test_mask: Vec<bool>,
    /// Parsed `LINT-ALLOW` escape hatches.
    pub allows: Vec<Allow>,
    /// Unparseable `LINT-ALLOW` markers.
    pub malformed_allows: Vec<MalformedAllow>,
}

impl SourceFile {
    /// Lexes and annotates one file.
    pub fn new(rel_path: String, text: String) -> Self {
        let tokens = lex(&text);
        let test_mask = compute_test_mask(&rel_path, &text, &tokens);
        let (allows, malformed_allows) = parse_allows(&text, &tokens);
        SourceFile {
            rel_path,
            text,
            tokens,
            test_mask,
            allows,
            malformed_allows,
        }
    }

    /// Token text, for matching.
    pub fn text_of(&self, tok: &Token) -> &str {
        tok.text(&self.text)
    }

    /// Indices of significant (non-comment) tokens, in order.
    pub fn significant(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tokens.len()).filter(|&i| {
            !matches!(
                self.tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
    }

    /// The previous significant token before index `i`, if any.
    pub fn prev_significant(&self, i: usize) -> Option<&Token> {
        self.tokens[..i]
            .iter()
            .rev()
            .find(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
    }

    /// The next significant token after index `i`, if any.
    pub fn next_significant(&self, i: usize) -> Option<&Token> {
        self.tokens[i + 1..]
            .iter()
            .find(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
    }

    /// True when `tokens[i]` is an `Ident` with exactly this text.
    pub fn is_ident(&self, i: usize, text: &str) -> bool {
        self.tokens[i].kind == TokenKind::Ident && self.text_of(&self.tokens[i]) == text
    }
}

/// Marks tokens that belong to test-only code.
///
/// Two sources of testness:
/// * the whole file, when its relative path has a `tests` component
///   (integration tests, fixture dirs);
/// * any item annotated `#[test]` or `#[cfg(test)]` — detected as an
///   attribute whose token run contains both `cfg` and `test`, or is
///   exactly `[test]`. The mask covers the attribute itself, any stacked
///   attributes after it, and the following item through its matching
///   closing brace (or trailing semicolon for brace-less items).
fn compute_test_mask(rel_path: &str, text: &str, tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    if rel_path.split('/').any(|c| c == "tests") {
        mask.iter_mut().for_each(|m| *m = true);
        return mask;
    }
    let significant: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(
                tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let text_of = |i: usize| tokens[i].text(text);

    // Scans one attribute starting at significant position `s` (which must
    // point at `#`). Returns (next significant position after the
    // attribute, whether it is a test attribute).
    let scan_attr = |s: usize| -> (usize, bool) {
        let mut p = s + 1; // past `#`
        if significant.get(p).is_some_and(|&i| text_of(i) == "!") {
            p += 1; // inner attribute `#![…]`
        }
        let Some(&open) = significant.get(p) else {
            return (p, false);
        };
        if text_of(open) != "[" {
            return (p, false);
        }
        let mut depth = 0usize;
        let mut has_cfg = false;
        let mut has_test = false;
        let mut count = 0usize;
        while p < significant.len() {
            let i = significant[p];
            match text_of(i) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return (p + 1, has_test && (has_cfg || count == 1));
                    }
                }
                "cfg" if tokens[i].kind == TokenKind::Ident => has_cfg = true,
                "test" if tokens[i].kind == TokenKind::Ident => {
                    has_test = true;
                    count += 1;
                }
                other => {
                    if tokens[i].kind == TokenKind::Ident && other != "test" {
                        count += 2; // anything besides a bare `test` disqualifies the `#[test]` form
                    }
                }
            }
            p += 1;
        }
        (p, false)
    };

    let mut s = 0usize;
    while s < significant.len() {
        if text_of(significant[s]) != "#" {
            s += 1;
            continue;
        }
        let attr_start = s;
        let (mut p, mut is_test) = scan_attr(s);
        // Stacked attributes: keep scanning while the next token is `#`.
        while p < significant.len() && text_of(significant[p]) == "#" {
            let (np, t) = scan_attr(p);
            is_test |= t;
            p = np;
        }
        if !is_test {
            s = p.max(s + 1);
            continue;
        }
        // Mask from the first attribute through the annotated item: to the
        // matching `}` of the first `{`, or to the first `;` seen before
        // any `{` (e.g. `#[cfg(test)] use …;`).
        let mut depth = 0usize;
        let mut end = p;
        let mut entered = false;
        while end < significant.len() {
            match text_of(significant[end]) {
                "{" => {
                    depth += 1;
                    entered = true;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    if entered && depth == 0 {
                        break;
                    }
                }
                ";" if !entered => break,
                _ => {}
            }
            end += 1;
        }
        let span_start = tokens[significant[attr_start]].start;
        let span_end = if end < significant.len() {
            tokens[significant[end]].end
        } else {
            text.len()
        };
        for (ti, tok) in tokens.iter().enumerate() {
            if tok.start >= span_start && tok.end <= span_end {
                mask[ti] = true;
            }
        }
        s = (end + 1).max(s + 1);
    }
    mask
}

/// Extracts `LINT-ALLOW(rule): reason` markers from comment tokens.
///
/// Only plain comments count: doc comments (`///`, `//!`, `/**`, `/*!`)
/// are rendered prose — the linter's own documentation *describes* the
/// escape hatch without enacting it. A marker in any other spelling is
/// malformed.
fn parse_allows(text: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<MalformedAllow>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for tok in tokens {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let body = tok.text(text);
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| body.starts_with(p))
            && !body.starts_with("/**/")
        {
            continue;
        }
        let Some(at) = body.find("LINT-ALLOW") else {
            continue;
        };
        let marker = &body[at..];
        let marker = marker.strip_suffix("*/").unwrap_or(marker).trim_end();
        match canonical_allow(marker) {
            Ok((rule, reason)) => allows.push(Allow {
                rule: rule.to_string(),
                line: tok.line,
                reason: reason.to_string(),
            }),
            Err(problem) => malformed.push(MalformedAllow {
                line: tok.line,
                problem: format!(
                    "{problem}; the only accepted spelling is `LINT-ALLOW(rule): reason`"
                ),
            }),
        }
    }
    (allows, malformed)
}

/// Splits a marker spelled exactly `LINT-ALLOW(rule): reason` into its rule
/// and reason, or says what deviates.
fn canonical_allow(marker: &str) -> Result<(&str, &str), String> {
    let rest = &marker["LINT-ALLOW".len()..];
    let Some(inner) = rest.strip_prefix('(') else {
        return Err("`(rule)` must follow LINT-ALLOW directly".into());
    };
    let Some((rule, after)) = inner.split_once(')') else {
        return Err("unclosed `(rule)` in LINT-ALLOW".into());
    };
    if rule.is_empty()
        || !rule
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    {
        return Err(format!("bad rule name `{rule}` in LINT-ALLOW"));
    }
    match after.strip_prefix(": ") {
        Some(reason) if !reason.is_empty() && !reason.starts_with(char::is_whitespace) => {
            Ok((rule, reason))
        }
        _ => Err(format!("LINT-ALLOW({rule}) lacks a `: reason`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(rel.to_string(), src.to_string())
    }

    fn unmasked_idents(f: &SourceFile) -> Vec<String> {
        f.tokens
            .iter()
            .zip(&f.test_mask)
            .filter(|(t, &m)| !m && t.kind == TokenKind::Ident)
            .map(|(t, _)| t.text(&f.text).to_string())
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let f = file(
            "crates/x/src/lib.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\nfn after() {}\n",
        );
        let idents = unmasked_idents(&f);
        assert!(idents.contains(&"prod".to_string()));
        assert!(idents.contains(&"after".to_string()));
        assert!(!idents.contains(&"unwrap".to_string()));
        assert!(!idents.contains(&"helper".to_string()));
    }

    #[test]
    fn test_attr_masks_single_fn() {
        let f = file(
            "crates/x/src/lib.rs",
            "#[test]\nfn t() { a.unwrap(); }\nfn prod() { b(); }\n",
        );
        let idents = unmasked_idents(&f);
        assert!(!idents.contains(&"unwrap".to_string()));
        assert!(idents.contains(&"prod".to_string()));
    }

    #[test]
    fn stacked_attrs_and_cfg_attr_forms() {
        let f = file(
            "crates/x/src/lib.rs",
            "#[cfg(test)]\n#[derive(Debug)]\nstruct T { x: u8 }\n\n#[derive(Clone)]\n#[cfg(all(test, feature = \"x\"))]\nfn t() { y.unwrap(); }\nfn keep() {}\n",
        );
        let idents = unmasked_idents(&f);
        assert!(!idents.contains(&"unwrap".to_string()));
        assert!(idents.contains(&"keep".to_string()));
    }

    #[test]
    fn non_test_attrs_do_not_mask() {
        let f = file(
            "crates/x/src/lib.rs",
            "#[derive(Debug)]\nstruct S;\n#[cfg(feature = \"testing\")]\nfn gated() { z.unwrap(); }\n",
        );
        // `feature = "testing"` has cfg but no bare `test` ident — the
        // string literal "testing" is not an Ident token.
        let idents = unmasked_idents(&f);
        assert!(idents.contains(&"unwrap".to_string()));
    }

    #[test]
    fn tests_dir_masks_whole_file() {
        let f = file("crates/x/tests/it.rs", "fn t() { a.unwrap(); }\n");
        assert!(f.test_mask.iter().all(|&m| m));
    }

    #[test]
    fn semicolon_item_after_test_attr() {
        let f = file(
            "crates/x/src/lib.rs",
            "#[cfg(test)]\nuse std::collections::HashMap;\nfn prod() { q(); }\n",
        );
        let idents = unmasked_idents(&f);
        assert!(!idents.contains(&"HashMap".to_string()));
        assert!(idents.contains(&"prod".to_string()));
    }

    #[test]
    fn allows_parse_and_malformed_are_caught() {
        let src = "\
// LINT-ALLOW(panic-freedom): guarded by len check above
fn a() {}
// LINT-ALLOW(panic-freedom) missing colon
// LINT-ALLOW: no rule
/* LINT-ALLOW(unsafe-audit): block comment form */
// LINT-ALLOW(bad rule!): spaces
// LINT-ALLOW (panic-freedom): space before the parenthesis
// LINT-ALLOW( panic-freedom ): padded rule name
// LINT-ALLOW(panic-freedom) : space before the colon
// LINT-ALLOW(panic-freedom):no space after the colon
// LINT-ALLOW(panic-freedom):
";
        let f = file("crates/x/src/lib.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "panic-freedom");
        assert_eq!(f.allows[0].line, 1);
        assert_eq!(f.allows[0].reason, "guarded by len check above");
        assert_eq!(f.allows[1].rule, "unsafe-audit");
        assert_eq!(f.allows[1].reason, "block comment form");
        let lines: Vec<u32> = f.malformed_allows.iter().map(|m| m.line).collect();
        assert_eq!(lines, [3, 4, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn doc_comments_do_not_enact_allows() {
        let src = "\
//! The `LINT-ALLOW(panic-freedom): reason` escape hatch.
/// Write LINT-ALLOW(unsafe-audit): like this.
/** LINT-ALLOW broken prose */
fn a() {}
";
        let f = file("crates/x/src/lib.rs", src);
        assert!(f.allows.is_empty());
        assert!(f.malformed_allows.is_empty());
    }

    #[test]
    fn lint_allow_in_string_is_ignored() {
        let f = file(
            "crates/x/src/lib.rs",
            "let s = \"LINT-ALLOW(panic-freedom): not a comment\";\n",
        );
        assert!(f.allows.is_empty());
        assert!(f.malformed_allows.is_empty());
    }
}
