//! CLI for the in-tree conformance linter.
//!
//! ```text
//! mithra-lint check [--root PATH] [--rule NAME] [--format human|ndjson]
//! ```
//!
//! `check` findings stream to stdout as NDJSON (one object per finding,
//! then one `{"summary":…}` line), matching the service's wire idiom so
//! CI and scripts can parse them the same way. A human per-rule summary
//! goes to stderr. `--format ndjson` keeps stdout machine-only (no stderr
//! table); `--format human` prints only the table, on stdout. `--rule`
//! restricts the run to one rule. Exit code: 0 clean, 1 findings, 2
//! usage/IO error.

use mithra_lint::rules::RULE_NAMES;
use mithra_lint::{check_loaded_filtered, json_escape, Report, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mithra-lint check [--root PATH] [--rule NAME] [--format human|ndjson]";

#[derive(PartialEq)]
enum Format {
    Both,
    Human,
    Ndjson,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command != "check" {
        eprintln!("unknown command `{command}`\n{USAGE}");
        return ExitCode::from(2);
    }
    let mut root = PathBuf::from(".");
    let mut rule: Option<String> = None;
    let mut format = Format::Both;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--rule" => match args.next() {
                Some(name) => {
                    if !RULE_NAMES.contains(&name.as_str()) {
                        eprintln!(
                            "unknown rule `{name}`; rules are: {}",
                            RULE_NAMES.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                    rule = Some(name);
                }
                None => {
                    eprintln!("--rule requires a rule name\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("ndjson") => format = Format::Ndjson,
                Some(other) => {
                    eprintln!("unknown format `{other}` (human|ndjson)\n{USAGE}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--format requires human|ndjson\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "mithra-lint: failed to load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    let report = check_loaded_filtered(&ws, rule.as_deref());
    if format != Format::Human {
        print_ndjson(&report);
    }
    if format != Format::Ndjson {
        print_human_summary(&report, format == Format::Human);
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One NDJSON object per finding, then the summary object.
fn print_ndjson(report: &Report) {
    for f in &report.findings {
        println!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        );
    }
    let rules: Vec<String> = report
        .rules
        .iter()
        .map(|r| {
            format!(
                "{{\"rule\":\"{}\",\"findings\":{},\"allows\":{}}}",
                json_escape(r.rule),
                r.findings,
                r.allows
            )
        })
        .collect();
    println!(
        "{{\"summary\":{{\"files_scanned\":{},\"total_findings\":{},\"rules\":[{}]}}}}",
        report.files_scanned,
        report.findings.len(),
        rules.join(",")
    );
}

/// Per-rule table for humans reading CI logs. Goes to stderr in the
/// default combined mode (stdout is the NDJSON stream), to stdout when
/// the human format was requested alone.
fn print_human_summary(report: &Report, to_stdout: bool) {
    let emit = |line: String| {
        if to_stdout {
            println!("{line}");
        } else {
            eprintln!("{line}");
        }
    };
    emit(format!(
        "mithra-lint: scanned {} files",
        report.files_scanned
    ));
    for r in &report.rules {
        emit(format!(
            "  {:<20} {:>3} finding{}  {:>3} allow{}",
            r.rule,
            r.findings,
            if r.findings == 1 { " " } else { "s" },
            r.allows,
            if r.allows == 1 { " " } else { "s" },
        ));
    }
    if report.clean() {
        emit("mithra-lint: clean".to_string());
    } else {
        emit(format!("mithra-lint: {} finding(s)", report.findings.len()));
    }
}
