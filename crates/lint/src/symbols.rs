//! A cross-file symbol table for the concurrency rules.
//!
//! For every production `fn` in the workspace it records which **blocking
//! primitives** the body calls directly (`write_all`, `sync_data`,
//! `accept`, …), which **locks** it acquires (named by the receiver of
//! `.lock()`), and which other functions it calls. A fixpoint then
//! propagates both facts through the call graph so a rule can ask "does
//! calling `append_deferred` block?" and get back the chain
//! `append_deferred → append → write_all`.
//!
//! Resolution is deliberately conservative: a call site resolves only
//! when exactly **one** production `fn` in the workspace has that name.
//! Ambiguous names (`new`, `len`, `run`) stay unresolved rather than
//! guessing — the table exists to catch real guard-across-I/O hazards,
//! not to win a soundness contest against `dyn Trait`.

use crate::analysis::SourceFile;
use crate::lexer::TokenKind;
use crate::parser::FileAst;
use crate::Workspace;
use std::collections::HashMap;

/// Method names treated as blocking I/O (or scheduling) primitives when
/// called as `.name(…)`. `sleep` additionally matches as a bare/path call
/// (`thread::sleep`). Deliberately absent: `recv` (the event loop's
/// channel hand-off is its own design decision) and the `write!`/
/// `writeln!` macros (formatting into a `String` is not I/O; macro calls
/// never match the `.name(` shape anyway).
pub const BLOCKING_PRIMITIVES: [&str; 18] = [
    "write",
    "write_all",
    "write_at",
    "write_all_at",
    "flush",
    "sync_all",
    "sync_data",
    "read",
    "read_exact",
    "read_at",
    "read_exact_at",
    "read_line",
    "read_until",
    "read_to_end",
    "read_to_string",
    "accept",
    "connect",
    "sleep",
];

/// True when `name` is one of the blocking primitives.
pub fn is_blocking_primitive(name: &str) -> bool {
    BLOCKING_PRIMITIVES.contains(&name)
}

/// One production function known to the table.
pub struct FnFacts {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Blocking primitives the body calls directly.
    pub primitives: Vec<String>,
    /// Locks the body acquires directly (receiver names of `.lock()`).
    pub locks: Vec<String>,
    /// Names of functions the body calls (method and bare calls alike).
    pub calls: Vec<String>,
}

/// How a function ends up blocking: the call chain from it down to the
/// primitive, e.g. `["append", "write_all"]` for a fn that calls
/// `append` which calls `.write_all()`.
pub type BlockingChain = Vec<String>;

/// One lock a function acquires, directly (`via` empty) or through the
/// chain of calls in `via`.
#[derive(Clone)]
pub struct AcquiredLock {
    /// The lock's receiver name (`engine`, `oplog`, …).
    pub lock: String,
    /// Call chain leading to the acquisition; empty for direct `.lock()`.
    pub via: Vec<String>,
}

/// The workspace-wide table.
pub struct SymbolTable {
    /// Facts for every production fn, in discovery order.
    pub fns: Vec<FnFacts>,
    /// `name → fn index`, only for names with exactly one production defn.
    unique: HashMap<String, usize>,
    /// Transitive blocking chains, keyed by fn index.
    blocking: HashMap<usize, BlockingChain>,
    /// Transitive lock acquisitions, keyed by fn index.
    acquires: HashMap<usize, Vec<AcquiredLock>>,
}

impl SymbolTable {
    /// Builds the table over every production fn in the workspace.
    pub fn build(ws: &Workspace) -> SymbolTable {
        let mut fns = Vec::new();
        for file in &ws.files {
            let ast = FileAst::build(file);
            for def in &ast.fns {
                if file.test_mask.get(def.fn_tok).copied().unwrap_or(false) {
                    continue;
                }
                let (start, end) = ast.body_span(file, def);
                fns.push(collect_facts(file, &def.name, def.line, start, end));
            }
        }

        let mut counts: HashMap<&str, usize> = HashMap::new();
        for f in &fns {
            *counts.entry(f.name.as_str()).or_default() += 1;
        }
        let unique: HashMap<String, usize> = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| counts[f.name.as_str()] == 1)
            .map(|(i, f)| (f.name.clone(), i))
            .collect();

        // Seed with direct facts, then propagate through uniquely-resolved
        // calls until nothing changes.
        let mut blocking: HashMap<usize, BlockingChain> = HashMap::new();
        let mut acquires: HashMap<usize, Vec<AcquiredLock>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            if let Some(p) = f.primitives.first() {
                blocking.insert(i, vec![p.clone()]);
            }
            if !f.locks.is_empty() {
                acquires.insert(
                    i,
                    f.locks
                        .iter()
                        .map(|l| AcquiredLock {
                            lock: l.clone(),
                            via: Vec::new(),
                        })
                        .collect(),
                );
            }
        }
        loop {
            let mut changed = false;
            for (i, f) in fns.iter().enumerate() {
                for callee in &f.calls {
                    let Some(&j) = unique.get(callee) else {
                        continue;
                    };
                    if j == i {
                        continue; // direct recursion adds nothing
                    }
                    if !blocking.contains_key(&i) {
                        if let Some(sub) = blocking.get(&j).cloned() {
                            let mut chain = vec![callee.clone()];
                            chain.extend(sub);
                            blocking.insert(i, chain);
                            changed = true;
                        }
                    }
                    if let Some(subs) = acquires.get(&j).cloned() {
                        let mine = acquires.entry(i).or_default();
                        for sub in subs {
                            if mine.iter().any(|a| a.lock == sub.lock) {
                                continue;
                            }
                            let mut via = vec![callee.clone()];
                            via.extend(sub.via);
                            mine.push(AcquiredLock {
                                lock: sub.lock,
                                via,
                            });
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        SymbolTable {
            fns,
            unique,
            blocking,
            acquires,
        }
    }

    /// The blocking chain for a call to `callee`, when `callee` names
    /// exactly one production fn and that fn (transitively) blocks.
    pub fn blocking_chain(&self, callee: &str) -> Option<&BlockingChain> {
        self.unique.get(callee).and_then(|i| self.blocking.get(i))
    }

    /// The locks a call to `callee` (transitively) acquires; empty when
    /// the name is ambiguous, unknown, or lock-free.
    pub fn acquired_locks(&self, callee: &str) -> &[AcquiredLock] {
        self.unique
            .get(callee)
            .and_then(|i| self.acquires.get(i))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// The receiver name of a `.lock()` call: the last identifier before the
/// dot (`self.registered.lock()` → `registered`). `None` when the
/// receiver is not a simple field/binding chain.
pub fn lock_receiver(file: &SourceFile, sig: &[usize], lock_pos: usize) -> Option<String> {
    // sig[lock_pos] is the `lock` ident; sig[lock_pos - 1] must be `.`.
    let recv = sig.get(lock_pos.checked_sub(2)?)?;
    let tok = &file.tokens[*recv];
    if tok.kind == TokenKind::Ident {
        let name = file.text_of(tok);
        if name != "self" {
            return Some(name.to_string());
        }
    }
    None
}

/// Scans one fn body for direct facts.
fn collect_facts(file: &SourceFile, name: &str, line: u32, start: usize, end: usize) -> FnFacts {
    let sig: Vec<usize> = file
        .significant()
        .filter(|&i| file.tokens[i].start >= start && file.tokens[i].end <= end)
        .collect();
    let mut primitives = Vec::new();
    let mut locks = Vec::new();
    let mut calls = Vec::new();
    for p in 0..sig.len() {
        let i = sig[p];
        let tok = &file.tokens[i];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = file.text_of(tok);
        let next_is = |s: &str| {
            sig.get(p + 1)
                .is_some_and(|&j| file.text_of(&file.tokens[j]) == s)
        };
        let prev_is_dot = p > 0 && file.text_of(&file.tokens[sig[p - 1]]) == ".";
        if !next_is("(") {
            continue;
        }
        if text == "lock" && prev_is_dot {
            if let Some(recv) = lock_receiver(file, &sig, p) {
                if !locks.contains(&recv) {
                    locks.push(recv);
                }
            }
            continue;
        }
        let is_primitive = is_blocking_primitive(text) && (prev_is_dot || text == "sleep");
        if is_primitive {
            if !primitives.contains(&text.to_string()) {
                primitives.push(text.to_string());
            }
            continue;
        }
        if !calls.contains(&text.to_string()) {
            calls.push(text.to_string());
        }
    }
    FnFacts {
        file: file.rel_path.clone(),
        name: name.to_string(),
        line,
        primitives,
        locks,
        calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SourceFile;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(rel, src)| SourceFile::new(rel.to_string(), src.to_string()))
                .collect(),
        }
    }

    #[test]
    fn blocking_propagates_through_unique_calls() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn low(f: &mut std::fs::File) { f.sync_data().ok(); }\n\
                 fn mid() { low(&mut f()); }\n\
                 fn top() { mid(); }\n",
            ),
            ("crates/b/src/lib.rs", "fn pure() -> u8 { 1 }\n"),
        ]);
        let st = SymbolTable::build(&w);
        assert_eq!(st.blocking_chain("low"), Some(&vec!["sync_data".into()]));
        assert_eq!(
            st.blocking_chain("top"),
            Some(&vec!["mid".into(), "low".into(), "sync_data".into()])
        );
        assert_eq!(st.blocking_chain("pure"), None);
        assert_eq!(st.blocking_chain("no_such_fn"), None);
    }

    #[test]
    fn ambiguous_names_do_not_resolve() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl A { fn go(&self) { x.sync_all(); } }\n\
             impl B { fn go(&self) {} }\n\
             fn caller() { thing.go(); }\n",
        )]);
        let st = SymbolTable::build(&w);
        assert_eq!(st.blocking_chain("go"), None);
        assert_eq!(st.blocking_chain("caller"), None);
    }

    #[test]
    fn lock_acquisitions_propagate_with_chains() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn inner(m: &std::sync::Mutex<u8>) { let g = oplog.lock(); g; }\n\
             fn outer() { inner(&m); }\n",
        )]);
        let st = SymbolTable::build(&w);
        let direct = st.acquired_locks("inner");
        assert_eq!(direct.len(), 1);
        assert_eq!(direct[0].lock, "oplog");
        assert!(direct[0].via.is_empty());
        let transitive = st.acquired_locks("outer");
        assert_eq!(transitive.len(), 1);
        assert_eq!(transitive[0].lock, "oplog");
        assert_eq!(transitive[0].via, vec!["inner".to_string()]);
    }

    #[test]
    fn test_code_contributes_no_fns() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "#[cfg(test)]\nmod tests { fn helper() { f.sync_all(); } }\n",
        )]);
        let st = SymbolTable::build(&w);
        assert!(st.fns.is_empty());
        assert_eq!(st.blocking_chain("helper"), None);
    }
}
