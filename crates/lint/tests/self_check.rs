//! The linter's own acceptance gate: the real workspace must be clean.
//!
//! CI runs `mithra-lint check` as a required job; this test enforces the
//! same invariant from inside `cargo test`, so a violation merged without
//! CI (or a rule regression that stops findings from surfacing) still
//! fails the suite.

use mithra_lint::check_workspace;
use std::path::Path;

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    let report = check_workspace(root).expect("load workspace");
    assert!(
        report.files_scanned > 50,
        "workspace discovery looks broken: only {} files",
        report.files_scanned
    );
    assert!(
        report.clean(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  [{}] {}:{} {}", f.rule, f.file, f.line, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn real_workspace_rules_all_ran() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = check_workspace(root).expect("load workspace");
    // Every rule must appear in the summary — a rule silently dropped
    // from the driver would otherwise pass unnoticed.
    let names: Vec<&str> = report.rules.iter().map(|r| r.rule).collect();
    for expected in mithra_lint::rules::RULE_NAMES {
        assert!(
            names.contains(&expected),
            "rule `{expected}` missing from summary"
        );
    }
}

#[test]
fn real_workspace_lock_allows_are_counted() {
    // The service deliberately holds the oplog lock across its own
    // appends (that lock is what serializes the log) — each such site
    // carries a counted allow marker, so the guard-scope analysis must
    // both see the blocking call and see it suppressed. Zero allows
    // would mean the rule went blind, not that the code got cleaner.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = check_workspace(root).expect("load workspace");
    let row = report
        .rules
        .iter()
        .find(|r| r.rule == "lock-across-blocking")
        .expect("lock-across-blocking summary row");
    assert_eq!(row.findings, 0);
    assert!(
        row.allows >= 1,
        "expected counted lock-across-blocking allows, got {}",
        row.allows
    );
}
