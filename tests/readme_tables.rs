//! The README's protocol and lint-rule tables against the compiler's own
//! tables: every key-anchored table must list exactly what the code defines
//! (no missing rows, no stale rows), and every version the README quotes
//! must be the current constant.

use std::collections::BTreeSet;

use mithra::prelude::*;
use mithra::service::oplog::{
    LogEntry, LoggedOp, OpLog, SyncPolicy, OPLOG_VERSION, REPLICATE_BATCH_LIMIT,
};
use mithra::service::protocol::{ErrorCode, Json, OPS};
use mithra::service::snapshot::SNAPSHOT_VERSION;
use mithra::service::{handle_line, ServeOptions};

fn readme() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("read README.md")
}

/// The rows of the README table whose header row is `header`, as
/// `(key, row)` pairs: the first column with backticks stripped, and the
/// whole row.
fn table_rows(readme: &str, header: &str) -> Vec<(String, String)> {
    let rows: Vec<(String, String)> = readme
        .lines()
        .map(str::trim)
        .skip_while(|line| !line.starts_with(header))
        .skip(2) // the header and its `| --- |` rule
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| {
            let key = row.split('|').nth(1)?.trim().trim_matches('`');
            Some((key.to_string(), row.to_string()))
        })
        .collect();
    assert!(!rows.is_empty(), "README has no `{header}` table");
    rows
}

fn table_keys(readme: &str, header: &str) -> Vec<String> {
    table_rows(readme, header)
        .into_iter()
        .map(|(key, _)| key)
        .collect()
}

/// The top-level keys of a JSON object.
fn keys(doc: &Json) -> BTreeSet<String> {
    match doc {
        Json::Object(fields) => fields.iter().map(|(key, _)| key.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn error_code_table_lists_exactly_the_codes() {
    let codes: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.as_str()).collect();
    assert_eq!(table_keys(&readme(), "| Code | Meaning |"), codes);
}

#[test]
fn rule_table_lists_exactly_the_lint_rules() {
    assert_eq!(
        table_keys(&readme(), "| Rule | Invariant |"),
        mithra_lint::rules::RULE_NAMES
    );
}

#[test]
fn op_table_lists_exactly_the_ops() {
    assert_eq!(table_keys(&readme(), "| Op | Request fields |"), OPS);
}

/// One entry of each kind the op log writes.
fn sample_entries() -> [LogEntry; 3] {
    let rows = vec![vec!["f".to_string(), "black".to_string()]];
    [
        LoggedOp::Insert { rows: rows.clone() },
        LoggedOp::Delete { rows },
        LoggedOp::Grow {
            attribute: "race".into(),
            value: "asian".into(),
        },
    ]
    .map(|op| LogEntry { seq: 7, op })
}

#[test]
fn oplog_entry_table_lists_exactly_the_written_fields() {
    let mut written = BTreeSet::new();
    for entry in sample_entries() {
        let line = entry.to_line();
        assert_eq!(LogEntry::parse(&line), Ok(entry), "{line}");
        written.extend(keys(&Json::parse(&line).unwrap()));
    }
    let documented: BTreeSet<String> = table_keys(&readme(), "| Entry field | Meaning |")
        .into_iter()
        .collect();
    assert_eq!(documented, written);
}

#[test]
fn oplog_readme_examples_parse_and_quote_the_current_version() {
    let readme = readme();
    let examples: Vec<&str> = readme
        .lines()
        .filter(|line| line.starts_with("{\"v\":"))
        .collect();
    assert!(!examples.is_empty(), "README shows no op-log entry lines");
    for line in examples {
        let entry = LogEntry::parse(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        assert_eq!(
            entry.to_line(),
            line,
            "README example is not in writer form"
        );
    }
    let (_, version_row) = table_rows(&readme, "| Entry field | Meaning |")
        .into_iter()
        .find(|(key, _)| key == "v")
        .expect("an entry-field row for `v`");
    assert!(
        version_row.contains(&format!("(currently {OPLOG_VERSION})")),
        "{version_row}"
    );
}

/// A leader with one logged insert, answering `request`.
fn leader_answer(request: &str) -> Json {
    let path = std::env::temp_dir().join(format!(
        "mithra-readme-{}-{:?}.oplog",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_file(&path).ok();
    let log = OpLog::open(&path, SyncPolicy::Off).unwrap();
    let options =
        ServeOptions::new().with_oplog(Some(std::sync::Arc::new(std::sync::Mutex::new(log))));
    let schema = Schema::new(vec![
        Attribute::with_values("sex", ["m", "f"]).unwrap(),
        Attribute::with_values("race", ["white", "black"]).unwrap(),
    ])
    .unwrap();
    let dataset = Dataset::from_rows(schema, &[vec![0, 0]]).unwrap();
    let mut engine = CoverageEngine::new(dataset, Threshold::Count(1)).unwrap();
    handle_line(
        &mut engine,
        &options,
        r#"{"op":"insert","row":["f","black"]}"#,
    );
    let answer = handle_line(&mut engine, &options, request);
    std::fs::remove_file(&path).ok();

    let doc = Json::parse(&answer).unwrap();
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "{answer}"
    );
    doc
}

#[test]
fn replicate_table_lists_exactly_the_answer_fields() {
    let doc = leader_answer(r#"{"op":"replicate","from":0}"#);
    let envelope = ["ok", "id", "code", "error"];
    let fields: BTreeSet<String> = keys(&doc)
        .into_iter()
        .filter(|key| !envelope.contains(&key.as_str()))
        .collect();
    let documented: BTreeSet<String> = table_keys(&readme(), "| Replicate field | Meaning |")
        .into_iter()
        .collect();
    assert_eq!(documented, fields, "{doc:?}");
}

#[test]
fn leader_replication_table_lists_exactly_the_stats_fields() {
    let doc = leader_answer(r#"{"op":"stats"}"#);
    let section = doc.get("replication").expect("a replication section");
    assert_eq!(section.get("retained").and_then(Json::as_u64), Some(1));
    assert!(section
        .get("retained_bytes")
        .and_then(Json::as_u64)
        .is_some_and(|bytes| bytes > 0));
    let documented: BTreeSet<String> =
        table_keys(&readme(), "| Leader replication field | Meaning |")
            .into_iter()
            .collect();
    assert_eq!(documented, keys(section), "{section:?}");
}

#[test]
fn replicate_op_row_states_the_page_cap_and_cursor_origin() {
    let (_, row) = table_rows(&readme(), "| Op | Request fields |")
        .into_iter()
        .find(|(key, _)| key == "replicate")
        .expect("an op row for `replicate`");
    assert!(row.contains(&format!("≤{REPLICATE_BATCH_LIMIT}")), "{row}");
    assert!(row.contains("0 = beginning"), "{row}");
}

#[test]
fn snapshot_section_quotes_the_current_version() {
    let marker = format!("`\"version\"` (currently {SNAPSHOT_VERSION})");
    assert!(readme().contains(&marker), "README lacks {marker}");
}
