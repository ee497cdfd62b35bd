//! Rule `panic-freedom`: no panicking calls in serving hot paths.
//!
//! The serving hot paths — the event loop, op log, replication, tenancy,
//! the engine/server dispatch layers, the network shim, and the coverage
//! lattice probed on every request — must not
//! contain `unwrap()`, `expect()`, `panic!`, `todo!`, or `unimplemented!`
//! outside test code. A panic there takes down live connections (or the
//! whole process), so fallibility must surface as typed errors. Guarded
//! cases where the invariant is locally provable use
//! `// LINT-ALLOW(panic-freedom): reason`.

use crate::analysis::SourceFile;
use crate::lexer::TokenKind;
use crate::rules::Finding;
use crate::Workspace;

/// This rule's name.
pub const RULE: &str = "panic-freedom";

/// Hot-path files (workspace-relative). A path under `HOT_DIRS` is also
/// hot.
const HOT_FILES: [&str; 7] = [
    "crates/service/src/event.rs",
    "crates/service/src/oplog.rs",
    "crates/service/src/replica.rs",
    "crates/service/src/tenant.rs",
    "crates/service/src/engine.rs",
    "crates/service/src/server.rs",
    "crates/index/src/lattice.rs",
];
const HOT_DIRS: [&str; 1] = ["crates/service/src/net/"];

/// Method calls banned in hot paths.
const BANNED_METHODS: [&str; 2] = ["unwrap", "expect"];
/// Macros banned in hot paths.
const BANNED_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];

/// True when this file is part of a serving hot path.
pub fn is_hot_path(rel_path: &str) -> bool {
    HOT_FILES.contains(&rel_path) || HOT_DIRS.iter().any(|d| rel_path.starts_with(d))
}

/// Runs the rule over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in ws.files.iter().filter(|f| is_hot_path(&f.rel_path)) {
        check_file(file, &mut findings);
    }
    findings
}

fn check_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    for i in file.significant() {
        if file.test_mask[i] || file.tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let text = file.text_of(&file.tokens[i]);
        let line = file.tokens[i].line;
        if BANNED_METHODS.contains(&text) {
            // Only a *call* counts: `.unwrap(` / `.expect(`. Bare idents
            // (a field named `expect`, `unwrap_or_else`) are fine —
            // `unwrap_or_else` is a distinct token, so no prefix issues.
            let is_method = file
                .prev_significant(i)
                .is_some_and(|p| file.text_of(p) == ".");
            let is_call = file
                .next_significant(i)
                .is_some_and(|n| file.text_of(n) == "(");
            if is_method && is_call {
                findings.push(Finding {
                    rule: RULE,
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "`.{text}()` in serving hot path (propagate the error instead)"
                    ),
                });
            }
        } else if BANNED_MACROS.contains(&text) {
            let is_macro = file
                .next_significant(i)
                .is_some_and(|n| file.text_of(n) == "!");
            // `panic` as a path segment (`std::panic::catch_unwind`) or
            // ident is fine; only the macro invocation is banned.
            if is_macro {
                findings.push(Finding {
                    rule: RULE,
                    file: file.rel_path.clone(),
                    line,
                    message: format!("`{text}!` in serving hot path"),
                });
            }
        }
    }
}
