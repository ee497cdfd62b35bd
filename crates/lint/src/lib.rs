//! `mithra-lint`: the in-tree conformance linter.
//!
//! Clippy and rustc enforce language-level hygiene; this crate enforces
//! the *project* invariants that only a static pass over the source can
//! check (and, per the offline-build policy, that no off-the-shelf tool
//! could be added for):
//!
//! * `panic-freedom` — serving hot paths must not contain panicking calls;
//! * `unsafe-audit` — every `unsafe` carries an adjacent `// SAFETY:`.
//!
//! Facts the compiler already knows — the protocol's error codes and ops,
//! the op-log and snapshot versions — are kept in step with the README by
//! ordinary tests over compile-time tables, not by this crate.
//!
//! The rules work on a token stream from a small hand-rolled lexer
//! ([`lexer`]) — enough Rust to never mistake string/comment content for
//! code, and no more. Findings can be
//! suppressed with a `// LINT-ALLOW(rule): reason` comment on the
//! offending line or the line above; allows are counted in the report,
//! and a malformed or unused allow is itself a finding (rule
//! `lint-allow`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod lexer;
pub mod rules;

use analysis::SourceFile;
use rules::Finding;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The loaded workspace: every first-party `.rs` file.
pub struct Workspace {
    /// All discovered source files, sorted by relative path.
    pub files: Vec<SourceFile>,
}

/// Top-level directories scanned for Rust sources. `vendor/` is included:
/// the shims are first-party code and subject to the unsafe audit.
const SCAN_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "vendor"];

impl Workspace {
    /// Loads all sources under `root`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut paths = Vec::new();
        for dir in SCAN_DIRS {
            let top = root.join(dir);
            if top.is_dir() {
                collect_rs_files(&top, &mut paths)?;
            }
        }
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for abs in paths {
            let rel = abs
                .strip_prefix(root)
                .unwrap_or(&abs)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&abs)?;
            files.push(SourceFile::new(rel, text));
        }
        Ok(Workspace { files })
    }
}

/// Recursively collects `.rs` files, skipping build output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Per-rule totals for the report.
#[derive(Debug, Clone)]
pub struct RuleSummary {
    /// Rule name.
    pub rule: &'static str,
    /// Unsuppressed findings.
    pub findings: usize,
    /// Findings suppressed by a `LINT-ALLOW`.
    pub allows: usize,
}

/// The result of a full workspace check.
pub struct Report {
    /// How many source files were scanned.
    pub files_scanned: usize,
    /// All unsuppressed findings, in rule order.
    pub findings: Vec<Finding>,
    /// Per-rule totals, in [`rules::RULE_NAMES`] order.
    pub rules: Vec<RuleSummary>,
}

impl Report {
    /// True when no findings survived suppression.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A rule's entry point.
pub type RuleFn = fn(&Workspace) -> Vec<Finding>;

/// The runnable rules, in [`rules::RULE_NAMES`] order (the trailing
/// `lint-allow` entry is the driver's own audit, not a rule function).
pub const RULES: [(&str, RuleFn); 2] = [
    (rules::panic_free::RULE, rules::panic_free::run),
    (rules::unsafe_audit::RULE, rules::unsafe_audit::run),
];

/// Loads the workspace at `root` and runs every rule, applying
/// `LINT-ALLOW` suppression centrally.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let ws = Workspace::load(root)?;
    Ok(check_loaded(&ws))
}

/// Runs every rule over an already-loaded workspace.
pub fn check_loaded(ws: &Workspace) -> Report {
    check_loaded_filtered(ws, None)
}

/// Runs the rules over an already-loaded workspace, optionally restricted
/// to a single rule by name.
///
/// When filtering, the `lint-allow` audit narrows with it: malformed and
/// unknown-rule allows are reported only for the full run (or when
/// `lint-allow` itself is selected), and the unused-allow check covers
/// only allows naming the selected rule — an allow for a rule that did
/// not run cannot be judged unused.
pub fn check_loaded_filtered(ws: &Workspace, only: Option<&str>) -> Report {
    let raw: Vec<(usize, Finding)> = RULES
        .iter()
        .enumerate()
        .filter(|(_, (name, _))| only.is_none_or(|o| o == *name))
        .flat_map(|(ri, (_, run))| run(ws).into_iter().map(move |f| (ri, f)))
        .collect();

    // Suppression: an allow for the finding's rule on the finding's line,
    // or on the line directly above, silences it. Track which allows
    // fired so unused ones can be reported.
    let mut used: Vec<Vec<bool>> = ws
        .files
        .iter()
        .map(|f| vec![false; f.allows.len()])
        .collect();
    let mut summaries: Vec<RuleSummary> = rules::RULE_NAMES
        .iter()
        .map(|&rule| RuleSummary {
            rule,
            findings: 0,
            allows: 0,
        })
        .collect();
    let mut findings = Vec::new();
    for (ri, finding) in raw {
        let suppressed = finding.line > 0
            && ws.files.iter().enumerate().any(|(fi, file)| {
                file.rel_path == finding.file
                    && file.allows.iter().enumerate().any(|(ai, allow)| {
                        let hit = allow.rule == finding.rule
                            && (allow.line == finding.line || allow.line + 1 == finding.line);
                        if hit {
                            used[fi][ai] = true;
                        }
                        hit
                    })
            });
        if suppressed {
            summaries[ri].allows += 1;
        } else {
            summaries[ri].findings += 1;
            findings.push(finding);
        }
    }

    // The escape hatch itself is audited: malformed allows and allows that
    // suppressed nothing are findings under the internal `lint-allow` rule.
    let audit_mechanism = only.is_none_or(|o| o == "lint-allow");
    let allow_rule_idx = summaries.len() - 1;
    for (fi, file) in ws.files.iter().enumerate() {
        if audit_mechanism {
            for bad in &file.malformed_allows {
                summaries[allow_rule_idx].findings += 1;
                findings.push(Finding {
                    rule: "lint-allow",
                    file: file.rel_path.clone(),
                    line: bad.line,
                    message: format!("malformed LINT-ALLOW: {}", bad.problem),
                });
            }
        }
        for (ai, allow) in file.allows.iter().enumerate() {
            if !rules::RULE_NAMES.contains(&allow.rule.as_str()) {
                if audit_mechanism {
                    summaries[allow_rule_idx].findings += 1;
                    findings.push(Finding {
                        rule: "lint-allow",
                        file: file.rel_path.clone(),
                        line: allow.line,
                        message: format!("LINT-ALLOW names unknown rule `{}`", allow.rule),
                    });
                }
            } else if !used[fi][ai] && only.is_none_or(|o| o == allow.rule && o != "lint-allow") {
                summaries[allow_rule_idx].findings += 1;
                findings.push(Finding {
                    rule: "lint-allow",
                    file: file.rel_path.clone(),
                    line: allow.line,
                    message: format!(
                        "unused LINT-ALLOW({}) — nothing to suppress here, remove it",
                        allow.rule
                    ),
                });
            }
        }
    }

    Report {
        files_scanned: ws.files.len(),
        findings,
        rules: summaries,
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny\t"), "x\\ny\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
