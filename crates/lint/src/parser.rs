//! A lightweight item/block parse layer on top of the lexer.
//!
//! The original rules were token-window scanners; the concurrency rules
//! need *structure*: which block a token lives in, where a statement
//! ends, which `fn` a call site belongs to. This module builds exactly
//! that and no more — a brace tree with item kinds plus a flat list of
//! `fn` definitions with body spans — still with zero dependencies and
//! zero allocation beyond the two vectors.
//!
//! Everything here speaks **token indices** into `SourceFile::tokens`
//! (comments included), matching the rest of the crate.

use crate::analysis::SourceFile;
use crate::lexer::TokenKind;

/// What kind of item (or expression) opened a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// The body of a `fn`.
    FnBody,
    /// A `struct`/`enum`/`union` body.
    TypeBody,
    /// An `impl` block.
    Impl,
    /// A `mod` block.
    Mod,
    /// A `trait` block.
    Trait,
    /// A `match` expression's arm list.
    Match,
    /// Anything else: plain blocks, control flow, struct literals.
    Other,
}

/// One `{ … }` region of the file.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Token index of the opening `{`.
    pub open: usize,
    /// Token index of the matching `}` (the last token when unbalanced).
    pub close: usize,
    /// Index of the enclosing block in [`FileAst::blocks`], if any.
    pub parent: Option<usize>,
    /// What introduced the block.
    pub kind: BlockKind,
}

/// One `fn` definition with a body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Index of the body block in [`FileAst::blocks`].
    pub body: usize,
}

/// The parsed shape of one file: a brace tree plus its `fn` definitions.
pub struct FileAst {
    /// All blocks, in opening order (so parents precede children).
    pub blocks: Vec<Block>,
    /// All `fn` definitions that have bodies, in source order.
    pub fns: Vec<FnDef>,
}

impl FileAst {
    /// Parses `file` into a brace tree. Never fails: unbalanced input
    /// degrades to blocks closed at end-of-file.
    pub fn build(file: &SourceFile) -> FileAst {
        let sig: Vec<usize> = file.significant().collect();
        let mut blocks: Vec<Block> = Vec::new();
        let mut fns: Vec<FnDef> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        // A pending item keyword arms the next `{` at bracket depth 0.
        type PendingItem = (BlockKind, Option<(String, usize, u32)>);
        let mut pending: Option<PendingItem> = None;
        let mut bracket_depth = 0usize; // `(` and `[` nesting since the pending item

        let mut p = 0usize;
        while p < sig.len() {
            let i = sig[p];
            let tok = &file.tokens[i];
            let text = file.text_of(tok);
            match (tok.kind, text) {
                (TokenKind::Ident, "fn") => {
                    // `fn name` — anything else (e.g. a field named `fn`?)
                    // cannot occur; a missing name just leaves no pending.
                    if let Some(&j) = sig.get(p + 1) {
                        if file.tokens[j].kind == TokenKind::Ident {
                            pending = Some((
                                BlockKind::FnBody,
                                Some((file.text_of(&file.tokens[j]).to_string(), i, tok.line)),
                            ));
                            bracket_depth = 0;
                        }
                    }
                }
                (TokenKind::Ident, "struct" | "enum" | "union") => {
                    pending = Some((BlockKind::TypeBody, None));
                    bracket_depth = 0;
                }
                // `impl Trait` in a signature (argument or return position)
                // is a type, not an item: it must not displace the pending
                // fn body.
                (TokenKind::Ident, "impl") if !matches!(pending, Some((BlockKind::FnBody, _))) => {
                    pending = Some((BlockKind::Impl, None));
                    bracket_depth = 0;
                }
                (TokenKind::Ident, "mod") => {
                    pending = Some((BlockKind::Mod, None));
                    bracket_depth = 0;
                }
                (TokenKind::Ident, "trait") => {
                    pending = Some((BlockKind::Trait, None));
                    bracket_depth = 0;
                }
                (TokenKind::Ident, "match") => {
                    pending = Some((BlockKind::Match, None));
                    bracket_depth = 0;
                }
                (TokenKind::Punct, "(" | "[") => bracket_depth += 1,
                (TokenKind::Punct, ")" | "]") => bracket_depth = bracket_depth.saturating_sub(1),
                (TokenKind::Punct, ";") if bracket_depth == 0 => {
                    // `fn f(…);` trait declaration, `struct S;`, etc.
                    pending = None;
                }
                (TokenKind::Punct, "{") => {
                    let kind = match pending.take() {
                        Some((k, f)) if bracket_depth == 0 => {
                            if let Some((name, fn_tok, line)) = f {
                                fns.push(FnDef {
                                    name,
                                    fn_tok,
                                    line,
                                    body: blocks.len(),
                                });
                            }
                            k
                        }
                        other => {
                            pending = other; // `{` inside brackets: keep waiting
                            BlockKind::Other
                        }
                    };
                    blocks.push(Block {
                        open: i,
                        close: file.tokens.len().saturating_sub(1),
                        parent: stack.last().copied(),
                        kind,
                    });
                    stack.push(blocks.len() - 1);
                }
                (TokenKind::Punct, "}") => {
                    if let Some(b) = stack.pop() {
                        blocks[b].close = i;
                    }
                }
                _ => {}
            }
            p += 1;
        }
        FileAst { blocks, fns }
    }

    /// The innermost block containing token index `tok` (strictly between
    /// its braces), if any.
    pub fn innermost_block(&self, tok: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (bi, b) in self.blocks.iter().enumerate() {
            if b.open < tok && tok < b.close && best.is_none_or(|p| self.blocks[p].open < b.open) {
                best = Some(bi);
            }
        }
        best
    }

    /// The `fn` whose body contains token index `tok`, if any (the
    /// innermost one, so closures inside fns still resolve to the fn).
    pub fn fn_containing(&self, tok: usize) -> Option<&FnDef> {
        let mut best: Option<&FnDef> = None;
        for f in &self.fns {
            let b = &self.blocks[f.body];
            if b.open <= tok
                && tok <= b.close
                && best.is_none_or(|p| self.blocks[p.body].open < b.open)
            {
                best = Some(f);
            }
        }
        best
    }

    /// Byte span of a fn's body (including the braces).
    pub fn body_span(&self, file: &SourceFile, f: &FnDef) -> (usize, usize) {
        let b = &self.blocks[f.body];
        (file.tokens[b.open].start, file.tokens[b.close].end)
    }
}

/// Finds the end of the statement containing significant-position `pos`
/// (an index into `sig`): the position of the `;` that closes it at the
/// same brace depth, or of the `}` that closes the enclosing block.
/// Brace pairs opened inside the statement (match bodies, closures) are
/// skipped whole.
pub fn statement_end(file: &SourceFile, sig: &[usize], pos: usize) -> usize {
    let mut depth = 0usize;
    let mut p = pos;
    while p < sig.len() {
        match file.text_of(&file.tokens[sig[p]]) {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    return p;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return p,
            _ => {}
        }
        p += 1;
    }
    sig.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("x.rs".into(), src.into())
    }

    #[test]
    fn brace_tree_nests_and_kinds_attach() {
        let src = "\
mod m {
    struct S { x: u8 }
    impl S {
        fn get(&self) -> u8 {
            match self.x { 0 => 1, n => n }
        }
    }
}
";
        let f = file(src);
        let ast = FileAst::build(&f);
        let kinds: Vec<BlockKind> = ast.blocks.iter().map(|b| b.kind).collect();
        assert_eq!(
            kinds,
            vec![
                BlockKind::Mod,
                BlockKind::TypeBody,
                BlockKind::Impl,
                BlockKind::FnBody,
                BlockKind::Match,
            ]
        );
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "get");
        // The match block's parent chain walks up to the mod.
        let m = ast.blocks.len() - 1;
        assert_eq!(ast.blocks[m].parent, Some(3));
        assert_eq!(ast.blocks[3].parent, Some(2));
        assert_eq!(ast.blocks[0].parent, None);
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let src = "trait T { fn a(&self); fn b(&self) -> u8 { 2 } }";
        let f = file(src);
        let ast = FileAst::build(&f);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "b");
        assert_eq!(ast.blocks[ast.fns[0].body].kind, BlockKind::FnBody);
    }

    #[test]
    fn array_types_in_signatures_do_not_end_the_pending_fn() {
        let src = "fn f(x: [u8; 3]) -> u8 { x[0] }";
        let f = file(src);
        let ast = FileAst::build(&f);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "f");
    }

    #[test]
    fn impl_trait_in_a_signature_keeps_the_fn() {
        let src = "fn a(x: impl Read) -> u8 { 1 }\nfn b() -> impl Fn() { || () }\nimpl S { fn c(&self) {} }";
        let f = file(src);
        let ast = FileAst::build(&f);
        let names: Vec<&str> = ast.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        let kinds: Vec<BlockKind> = ast.blocks.iter().map(|b| b.kind).collect();
        assert_eq!(
            kinds,
            [
                BlockKind::FnBody,
                BlockKind::FnBody,
                BlockKind::Impl,
                BlockKind::FnBody
            ]
        );
    }

    #[test]
    fn innermost_block_and_fn_containing_resolve() {
        let src = "fn outer() { let c = || { inner_marker(); }; }";
        let f = file(src);
        let ast = FileAst::build(&f);
        let marker = (0..f.tokens.len())
            .find(|&i| f.is_ident(i, "inner_marker"))
            .unwrap();
        let b = ast.innermost_block(marker).unwrap();
        assert_eq!(ast.blocks[b].kind, BlockKind::Other); // the closure body
        assert_eq!(ast.fn_containing(marker).unwrap().name, "outer");
    }

    #[test]
    fn statement_end_skips_inner_braces() {
        let src = "fn f() { let g = match x { A => { y(); 1 } }; tail(); }";
        let f = file(src);
        let sig: Vec<usize> = f.significant().collect();
        let let_pos = sig.iter().position(|&i| f.is_ident(i, "let")).unwrap();
        let end = statement_end(&f, &sig, let_pos);
        assert_eq!(f.text_of(&f.tokens[sig[end]]), ";");
        // The `;` found is the one after the match, not inside an arm.
        let tail = sig.iter().position(|&i| f.is_ident(i, "tail")).unwrap();
        assert!(end < tail);
        assert!(sig[end] > sig[let_pos]);
    }
}
