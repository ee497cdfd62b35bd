//! The conformance rules.
//!
//! Each rule is a function from the loaded [`crate::Workspace`] to a list
//! of raw [`Finding`]s. Rules do not know about `LINT-ALLOW` — the check
//! driver in [`crate::check_workspace`] applies suppression centrally so
//! every rule gets the escape hatch (and its accounting) for free.

pub mod lock_blocking;
pub mod lock_order;
pub mod locks;
pub mod panic_free;
pub mod unsafe_audit;

/// One rule violation, pointing at a file and line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule produced it (kebab-case, e.g. `panic-freedom`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 when the finding is about a whole file or a
    /// missing artifact rather than a specific line).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Rule names, in reporting order. `lint-allow` is the internal rule that
/// covers the escape-hatch mechanism itself (malformed or unused allows)
/// and must stay last.
pub const RULE_NAMES: [&str; 5] = [
    panic_free::RULE,
    unsafe_audit::RULE,
    lock_blocking::RULE,
    lock_order::RULE,
    "lint-allow",
];
