//! Fixture tests: each rule must fire exactly where a seeded violation
//! sits, and stay quiet on a conforming workspace.
//!
//! Every test materializes a miniature workspace under a temp directory —
//! a conforming hot-path file plus whatever the test seeds — and asserts
//! the resulting findings.

use mithra_lint::{check_workspace, Report};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A miniature workspace on disk, deleted on drop.
struct Fixture {
    root: PathBuf,
}

static COUNTER: AtomicUsize = AtomicUsize::new(0);

impl Fixture {
    fn new() -> Fixture {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("mithra-lint-fixture-{}-{n}", std::process::id()));
        fs::create_dir_all(&root).expect("create fixture root");
        Fixture { root }
    }

    /// Writes `content` at `rel` (creating parent dirs) and returns self
    /// for chaining.
    fn file(self, rel: &str, content: &str) -> Self {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("rel has a parent")).expect("create parent");
        fs::write(path, content).expect("write fixture file");
        self
    }

    fn check(&self) -> Report {
        check_workspace(&self.root).expect("check fixture workspace")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// A hot-path file with no violations.
const EVENT_OK: &str = r#"
pub fn tick(input: Option<u8>) -> u8 {
    input.unwrap_or(0)
}
"#;

fn conforming() -> Fixture {
    Fixture::new().file("crates/service/src/event.rs", EVENT_OK)
}

fn rule_findings<'r>(report: &'r Report, rule: &str) -> Vec<&'r mithra_lint::rules::Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn conforming_fixture_is_clean() {
    let report = conforming().check();
    assert!(report.clean(), "expected clean, got: {:?}", report.findings);
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn panic_freedom_fires_on_each_banned_form() {
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
pub fn tick(input: Option<u8>) -> u8 {
    let a = input.unwrap();
    let b = input.expect("present");
    if a + b > 9 { panic!("overflow"); }
    if a == 1 { todo!() }
    if b == 2 { unimplemented!() }
    a
}
"#,
    );
    let report = fixture.check();
    let findings = rule_findings(&report, "panic-freedom");
    assert_eq!(findings.len(), 5, "{:?}", report.findings);
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![3, 4, 5, 6, 7]
    );
    assert!(findings
        .iter()
        .all(|f| f.file == "crates/service/src/event.rs"));
}

#[test]
fn panic_freedom_skips_strings_comments_and_tests() {
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
pub fn tick() -> &'static str {
    // a comment may say unwrap() freely
    /* so may a block comment: expect("x") */
    let s = r"raw string with unwrap() inside";
    let t = "escaped \" unwrap() too";
    let _ = (s, t);
    "panic!(no)"
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Option<u8> = Some(1);
        v.unwrap();
    }
}
"#,
    );
    let report = fixture.check();
    assert!(report.clean(), "{:?}", report.findings);
}

#[test]
fn panic_freedom_ignores_cold_paths() {
    // The same unwrap in a non-hot-path file is not a finding.
    let fixture = conforming().file(
        "crates/core/src/solver.rs",
        "pub fn go(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );
    let report = fixture.check();
    assert!(report.clean(), "{:?}", report.findings);
}

#[test]
fn lint_allow_suppresses_and_is_counted() {
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
pub fn tick(input: Option<u8>) -> u8 {
    // LINT-ALLOW(panic-freedom): fixture-justified
    input.unwrap()
}
pub fn tock(input: Option<u8>) -> u8 {
    input.expect("same line") // LINT-ALLOW(panic-freedom): trailing form
}
"#,
    );
    let report = fixture.check();
    assert!(report.clean(), "{:?}", report.findings);
    let summary = report
        .rules
        .iter()
        .find(|r| r.rule == "panic-freedom")
        .expect("summary row");
    assert_eq!(summary.allows, 2);
    assert_eq!(summary.findings, 0);
}

#[test]
fn unused_and_malformed_allows_are_findings() {
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
// LINT-ALLOW(panic-freedom): nothing here needs it
pub fn tick() -> u8 { 0 }
// LINT-ALLOW(panic-freedom) missing the colon
pub fn tock() -> u8 { 1 }
// LINT-ALLOW(no-such-rule): unknown rule name
pub fn tuck() -> u8 { 2 }
"#,
    );
    let report = fixture.check();
    let findings = rule_findings(&report, "lint-allow");
    assert_eq!(findings.len(), 3, "{:?}", report.findings);
    assert!(findings.iter().any(|f| f.message.contains("unused")));
    assert!(findings.iter().any(|f| f.message.contains("malformed")));
    assert!(findings.iter().any(|f| f.message.contains("unknown rule")));
}

/// Only the canonical spelling suppresses: markers in spellings that used
/// to be respelled mechanically (a space before the parenthesis, no space
/// after the colon) are malformed, and the findings they meant to silence
/// stand.
#[test]
fn non_canonical_allow_spellings_are_malformed_and_suppress_nothing() {
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
pub fn tick(input: Option<u8>) -> u8 {
    // LINT-ALLOW (panic-freedom): space before the parenthesis
    input.unwrap()
}
pub fn tock(input: Option<u8>) -> u8 {
    input.expect("x") // LINT-ALLOW(panic-freedom):no space after the colon
}
"#,
    );
    let report = fixture.check();
    let malformed = rule_findings(&report, "lint-allow");
    let lines: Vec<u32> = malformed.iter().map(|f| f.line).collect();
    assert_eq!(lines, [3, 7], "{:?}", report.findings);
    assert!(malformed
        .iter()
        .all(|f| f.message.contains("`LINT-ALLOW(rule): reason`")));
    let unsuppressed: Vec<u32> = rule_findings(&report, "panic-freedom")
        .iter()
        .map(|f| f.line)
        .collect();
    assert_eq!(unsuppressed, [4, 7]);
}

#[test]
fn unsafe_audit_requires_adjacent_safety() {
    let fixture = conforming().file(
        "crates/service/src/net/mod.rs",
        r#"
pub fn good(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid (fixture).
    unsafe { *p }
}
pub fn bad(p: *const u8) -> u8 {
    unsafe { *p }
}
pub fn stale(p: *const u8) -> u8 {
    // SAFETY: too far away — a statement intervenes.
    let _x = 1;
    unsafe { *p }
}
"#,
    );
    let report = fixture.check();
    let findings = rule_findings(&report, "unsafe-audit");
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![7, 12],
        "{:?}",
        report.findings
    );
}

#[test]
fn unsafe_audit_accepts_multiline_safety_runs() {
    let fixture = conforming().file(
        "crates/service/src/net/mod.rs",
        r#"
pub fn good(p: *const u8) -> u8 {
    // SAFETY: the marker sits on the first line of a run
    // whose later lines elaborate on the invariant.
    unsafe { *p }
}
"#,
    );
    let report = fixture.check();
    assert!(report.clean(), "{:?}", report.findings);
}

#[test]
fn cli_exits_zero_on_clean_and_one_on_violations() {
    use std::process::Command;
    let clean = conforming();
    let out = Command::new(env!("CARGO_BIN_EXE_mithra-lint"))
        .args(["check", "--root"])
        .arg(&clean.root)
        .output()
        .expect("run mithra-lint");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"summary\""), "{stdout}");
    assert!(stdout.contains("\"files_scanned\":1"), "{stdout}");

    let dirty = conforming().file(
        "crates/service/src/event.rs",
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_mithra-lint"))
        .args(["check", "--root"])
        .arg(&dirty.root)
        .output()
        .expect("run mithra-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().expect("a finding line");
    assert!(first.starts_with("{\"rule\":\"panic-freedom\""), "{first}");
    assert!(first.contains("\"line\":1"), "{first}");

    let out = Command::new(env!("CARGO_BIN_EXE_mithra-lint"))
        .arg("frobnicate")
        .output()
        .expect("run mithra-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

// ---- multi-pass fixtures: concurrency rules ----

/// A hot-path file where a mutex guard is live across an fsync: the
/// canonical `lock-across-blocking` violation.
const LOCK_ACROSS_FSYNC: &str = r#"
use std::sync::Mutex;
pub struct Shared { state: Mutex<u8> }
pub fn tick(shared: &Shared, file: &mut std::fs::File) {
    let guard = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    let _ = file.sync_all();
    let _ = *guard;
}
"#;

#[test]
fn lock_blocking_fires_on_guard_across_fsync() {
    let fixture = conforming().file("crates/service/src/event.rs", LOCK_ACROSS_FSYNC);
    let report = fixture.check();
    let findings = rule_findings(&report, "lock-across-blocking");
    assert_eq!(findings.len(), 1, "{:?}", report.findings);
    assert_eq!(findings[0].line, 6);
    assert!(findings[0]
        .message
        .contains("guard `guard` of lock `state`"));
    assert!(findings[0].message.contains("`.sync_all()`"));
}

/// Positioned reads and writes (`FileExt::read_exact_at` and friends) are
/// file I/O like any other: a page read under the op-log guard blocks it.
#[test]
fn lock_blocking_fires_on_positioned_io() {
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
use std::os::unix::fs::FileExt;
use std::sync::Mutex;
pub struct Shared { oplog: Mutex<std::fs::File> }
pub fn page(shared: &Shared, buf: &mut [u8]) {
    let log = shared.oplog.lock().unwrap_or_else(|e| e.into_inner());
    let _ = log.read_exact_at(buf, 0);
    let _ = log.write_all_at(buf, 0);
}
"#,
    );
    let report = fixture.check();
    let findings = rule_findings(&report, "lock-across-blocking");
    assert_eq!(findings.len(), 2, "{:?}", report.findings);
    assert_eq!([findings[0].line, findings[1].line], [7, 8]);
    assert!(findings[0].message.contains("`.read_exact_at()`"));
    assert!(findings[1].message.contains("`.write_all_at()`"));
}

#[test]
fn lock_blocking_fires_transitively_via_the_symbol_table() {
    // The blocking call is one hop away: the guard scope calls a
    // workspace fn whose body fsyncs.
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
use std::sync::Mutex;
pub struct Shared { state: Mutex<u8> }
fn persist(file: &mut std::fs::File) {
    let _ = file.sync_all();
}
pub fn tick(shared: &Shared, file: &mut std::fs::File) {
    let guard = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    persist(file);
    let _ = *guard;
}
"#,
    );
    let report = fixture.check();
    let findings = rule_findings(&report, "lock-across-blocking");
    assert_eq!(findings.len(), 1, "{:?}", report.findings);
    assert!(findings[0].message.contains("`persist()`"));
    assert!(findings[0].message.contains("blocks via"));
}

/// `impl Trait` in a signature does not hide a fn from the symbol table:
/// a guard held across a call into a fn that takes an `impl Trait`
/// parameter and fsyncs is flagged, from a holder with such a parameter
/// too.
#[test]
fn lock_blocking_sees_fns_with_impl_trait_parameters() {
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
use std::sync::Mutex;
pub struct Shared { state: Mutex<u8> }
fn persist(file: &mut std::fs::File, note: impl Fn() -> u8) -> u8 {
    let _ = file.sync_all();
    note()
}
pub fn tick(shared: &Shared, file: &mut std::fs::File, next: impl FnOnce() -> u8) -> u8 {
    let guard = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    let n = persist(file, || 1);
    *guard + n + next()
}
"#,
    );
    let report = fixture.check();
    let findings = rule_findings(&report, "lock-across-blocking");
    assert_eq!(findings.len(), 1, "{:?}", report.findings);
    assert_eq!(findings[0].line, 10);
    assert!(findings[0].message.contains("`persist()`"));
}

#[test]
fn lock_blocking_fires_inside_the_engine_wrapper() {
    // `with_engine_contained(…)`'s argument span is an implicit live
    // `engine`-lock scope.
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
pub fn apply(file: &mut std::fs::File) -> u8 {
    with_engine_contained(|engine| {
        let _ = file.sync_all();
        engine
    })
}
"#,
    );
    let report = fixture.check();
    let findings = rule_findings(&report, "lock-across-blocking");
    assert_eq!(findings.len(), 1, "{:?}", report.findings);
    assert!(findings[0].message.contains("with_engine_contained"));
}

#[test]
fn lock_blocking_quiet_after_early_drop_and_in_cold_files() {
    // `drop(guard)` ends the live range before the fsync.
    let dropped = conforming().file(
        "crates/service/src/event.rs",
        r#"
use std::sync::Mutex;
pub struct Shared { state: Mutex<u8> }
pub fn tick(shared: &Shared, file: &mut std::fs::File) -> u8 {
    let guard = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    let value = *guard;
    drop(guard);
    let _ = file.sync_all();
    value
}
"#,
    );
    let report = dropped.check();
    assert!(report.clean(), "{:?}", report.findings);

    // The same guard-across-fsync shape in a non-hot-path file is fine.
    let cold = conforming().file("crates/core/src/persist.rs", LOCK_ACROSS_FSYNC);
    let report = cold.check();
    assert!(report.clean(), "{:?}", report.findings);
}

#[test]
fn lock_blocking_allow_suppresses_and_is_counted() {
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
use std::sync::Mutex;
pub struct Shared { state: Mutex<u8> }
pub fn tick(shared: &Shared, file: &mut std::fs::File) {
    let guard = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    // LINT-ALLOW(lock-across-blocking): fixture-justified
    let _ = file.sync_all();
    let _ = *guard;
}
"#,
    );
    let report = fixture.check();
    assert!(report.clean(), "{:?}", report.findings);
    let summary = report
        .rules
        .iter()
        .find(|r| r.rule == "lock-across-blocking")
        .expect("summary row");
    assert_eq!(summary.allows, 1);
}

#[test]
fn lock_order_fires_on_cycle_and_self_edge() {
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
use std::sync::Mutex;
pub struct Shared { alpha: Mutex<u8>, beta: Mutex<u8> }
pub fn forward(shared: &Shared) {
    let a = shared.alpha.lock().unwrap_or_else(|e| e.into_inner());
    let b = shared.beta.lock().unwrap_or_else(|e| e.into_inner());
    let _ = (*a, *b);
}
pub fn backward(shared: &Shared) {
    let b = shared.beta.lock().unwrap_or_else(|e| e.into_inner());
    let a = shared.alpha.lock().unwrap_or_else(|e| e.into_inner());
    let _ = (*a, *b);
}
pub fn reenter(shared: &Shared) {
    let a = shared.alpha.lock().unwrap_or_else(|e| e.into_inner());
    let again = shared.alpha.lock().unwrap_or_else(|e| e.into_inner());
    let _ = (*a, *again);
}
"#,
    );
    let report = fixture.check();
    let findings = rule_findings(&report, "lock-order");
    assert_eq!(findings.len(), 2, "{:?}", report.findings);
    assert!(findings
        .iter()
        .any(|f| f.message.contains("self-deadlock") && f.message.contains("`alpha`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("cycle") && f.message.contains("alpha → beta → alpha")));
}

#[test]
fn lock_order_quiet_on_consistent_order() {
    let fixture = conforming().file(
        "crates/service/src/event.rs",
        r#"
use std::sync::Mutex;
pub struct Shared { alpha: Mutex<u8>, beta: Mutex<u8> }
pub fn first(shared: &Shared) {
    let a = shared.alpha.lock().unwrap_or_else(|e| e.into_inner());
    let b = shared.beta.lock().unwrap_or_else(|e| e.into_inner());
    let _ = (*a, *b);
}
pub fn second(shared: &Shared) {
    let a = shared.alpha.lock().unwrap_or_else(|e| e.into_inner());
    let b = shared.beta.lock().unwrap_or_else(|e| e.into_inner());
    let _ = (*a, *b);
}
"#,
    );
    let report = fixture.check();
    assert!(report.clean(), "{:?}", report.findings);
}

// ---- CLI: --rule and --format ----

#[test]
fn cli_rule_filter_restricts_the_run() {
    use std::process::Command;
    let dirty = conforming().file(
        "crates/service/src/event.rs",
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );
    // The violated rule still fails…
    let out = Command::new(env!("CARGO_BIN_EXE_mithra-lint"))
        .args(["check", "--rule", "panic-freedom", "--root"])
        .arg(&dirty.root)
        .output()
        .expect("run filtered check");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout
        .lines()
        .next()
        .expect("a finding")
        .contains("panic-freedom"));

    // …while filtering to an unrelated rule exits clean on the same tree.
    let out = Command::new(env!("CARGO_BIN_EXE_mithra-lint"))
        .args(["check", "--rule", "lock-order", "--root"])
        .arg(&dirty.root)
        .output()
        .expect("run filtered check");
    assert!(out.status.success(), "{out:?}");

    // An unknown rule is a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_mithra-lint"))
        .args(["check", "--rule", "no-such-rule", "--root"])
        .arg(&dirty.root)
        .output()
        .expect("run filtered check");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown rule"));
}

#[test]
fn cli_format_selects_the_stream() {
    use std::process::Command;
    let clean = conforming();
    // ndjson: machine stream only, nothing on stderr.
    let out = Command::new(env!("CARGO_BIN_EXE_mithra-lint"))
        .args(["check", "--format", "ndjson", "--root"])
        .arg(&clean.root)
        .output()
        .expect("run ndjson check");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"summary\""));
    assert!(out.stderr.is_empty(), "{out:?}");

    // human: the table alone, on stdout, no JSON anywhere.
    let out = Command::new(env!("CARGO_BIN_EXE_mithra-lint"))
        .args(["check", "--format", "human", "--root"])
        .arg(&clean.root)
        .output()
        .expect("run human check");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mithra-lint: clean"), "{stdout}");
    assert!(!stdout.contains("\"summary\""), "{stdout}");
    assert!(out.stderr.is_empty(), "{out:?}");

    // Exit-code semantics are unchanged by the format flag.
    let dirty = conforming().file(
        "crates/service/src/event.rs",
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_mithra-lint"))
        .args(["check", "--format", "human", "--root"])
        .arg(&dirty.root)
        .output()
        .expect("run human check on dirty tree");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}
