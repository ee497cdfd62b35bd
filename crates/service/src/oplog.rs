//! The durable append-only op log.
//!
//! Every mutating operation the server applies (insert, delete, grow) is
//! recorded as one NDJSON line carrying a format version and a dense
//! sequence number:
//!
//! ```text
//! {"v":1,"seq":12,"op":"insert","rows":[["f","black"]]}
//! {"v":1,"seq":13,"op":"delete","rows":[["m","white"]]}
//! {"v":1,"seq":14,"op":"grow","attr":"race","value":"hispanic"}
//! ```
//!
//! Rows are stored as the *raw string values* the client sent, never as
//! dictionary codes: replay runs through the ordinary encode path, so a
//! replayed log is deterministic against any engine built from the same
//! snapshot — including dictionary growth, because grow operations are
//! logged in order with everything else.
//!
//! Recovery contract: the log is written append-only with each entry
//! flushed before the request is acknowledged, and the final line of a
//! crashed process may be torn (partially written). [`OpLog::open`] and
//! [`read_entries_from`] stop cleanly at the last *complete* entry; `open`
//! additionally truncates a torn tail so subsequent appends start on a
//! fresh line. A torn or corrupt line in the *middle* of the log (complete
//! entries follow it) is refused — that is disk corruption, not a crash.
//!
//! Versioning policy mirrors snapshots: every entry carries `"v"`; this
//! build writes [`OPLOG_VERSION`] and refuses entries from a *newer*
//! version (old software must not half-understand a new format). Within a
//! version, unknown fields are ignored, so additive evolution is possible
//! without a bump.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::protocol::{write_json_string, Json};

/// The entry format version this build writes. Entries with a larger `"v"`
/// are refused on read.
pub const OPLOG_VERSION: u64 = 1;

/// The largest number of entries a single `replicate` response carries;
/// followers page through the log with repeated requests.
pub const REPLICATE_BATCH_LIMIT: usize = 512;

/// When to `fsync` the log (`--oplog-sync`).
///
/// * `Always` — fsync after every entry before the request is acknowledged;
///   an acknowledged write survives power loss.
/// * `Batch` — write+flush per entry, fsync once per serving segment (an
///   event-loop tick, a stdin read, a `handle_line` call); an acknowledged
///   write survives process death but a power cut can lose the last
///   segment's worth.
/// * `Off` — never fsync explicitly; the OS decides. Fastest, weakest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync every appended entry.
    Always,
    /// fsync once per serving segment (the default).
    #[default]
    Batch,
    /// Never fsync explicitly.
    Off,
}

impl SyncPolicy {
    /// Parses the `--oplog-sync` flag value.
    pub fn parse(text: &str) -> Option<SyncPolicy> {
        match text {
            "always" => Some(SyncPolicy::Always),
            "batch" => Some(SyncPolicy::Batch),
            "off" => Some(SyncPolicy::Off),
            _ => None,
        }
    }

    /// The flag spelling of the policy.
    pub fn as_str(self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Batch => "batch",
            SyncPolicy::Off => "off",
        }
    }
}

/// One logical mutation, with values kept raw (pre-dictionary) so replay
/// goes through the ordinary encode path.
#[derive(Debug, Clone, PartialEq)]
pub enum LoggedOp {
    /// Rows ingested by one `insert` request.
    Insert {
        /// Outer = rows, inner = per-attribute raw values.
        rows: Vec<Vec<String>>,
    },
    /// Rows removed by one `delete` request.
    Delete {
        /// Outer = rows, inner = per-attribute raw values.
        rows: Vec<Vec<String>>,
    },
    /// One dictionary growth (`grow` op, or `--grow-schema` auto-growth is
    /// implied by the raw values of logged inserts instead).
    Grow {
        /// The attribute name as the client sent it.
        attribute: String,
        /// The new value's name.
        value: String,
    },
}

/// A sequenced log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// The dense, monotonically increasing sequence number (first entry
    /// ever written is 1).
    pub seq: u64,
    /// The recorded mutation.
    pub op: LoggedOp,
}

fn write_rows(out: &mut String, rows: &[Vec<String>]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, value) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_json_string(out, value);
        }
        out.push(']');
    }
    out.push(']');
}

impl LogEntry {
    /// Serializes the entry as its wire/disk line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = format!("{{\"v\":{OPLOG_VERSION},\"seq\":{}", self.seq);
        match &self.op {
            LoggedOp::Insert { rows } => {
                out.push_str(",\"op\":\"insert\",\"rows\":");
                write_rows(&mut out, rows);
            }
            LoggedOp::Delete { rows } => {
                out.push_str(",\"op\":\"delete\",\"rows\":");
                write_rows(&mut out, rows);
            }
            LoggedOp::Grow { attribute, value } => {
                out.push_str(",\"op\":\"grow\",\"attr\":");
                write_json_string(&mut out, attribute);
                out.push_str(",\"value\":");
                write_json_string(&mut out, value);
            }
        }
        out.push('}');
        out
    }

    /// Parses one complete log line. Errors are strings because callers
    /// decide whether a failure is a tolerated torn tail or corruption.
    pub fn parse(line: &str) -> Result<LogEntry, String> {
        LogEntry::from_json(&Json::parse(line)?)
    }

    /// Decodes an already-parsed entry object (a `replicate` response
    /// embeds entries inside its own JSON document).
    pub fn from_json(doc: &Json) -> Result<LogEntry, String> {
        let version = doc
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("entry missing integer field `v`")?;
        if version > OPLOG_VERSION {
            return Err(format!(
                "entry version {version} is newer than this build supports ({OPLOG_VERSION})"
            ));
        }
        let seq = doc
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or("entry missing integer field `seq`")?;
        if seq == 0 {
            return Err("entry seq must be positive".into());
        }
        let rows_of = |doc: &Json| -> Result<Vec<Vec<String>>, String> {
            doc.get("rows")
                .and_then(Json::as_array)
                .ok_or("entry missing array field `rows`")?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or_else(|| "row must be an array".to_string())?
                        .iter()
                        .map(|v| {
                            v.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "row values must be strings".to_string())
                        })
                        .collect()
                })
                .collect()
        };
        let op = match doc.get("op").and_then(Json::as_str) {
            Some("insert") => LoggedOp::Insert {
                rows: rows_of(doc)?,
            },
            Some("delete") => LoggedOp::Delete {
                rows: rows_of(doc)?,
            },
            Some("grow") => LoggedOp::Grow {
                attribute: doc
                    .get("attr")
                    .and_then(Json::as_str)
                    .ok_or("grow entry missing string field `attr`")?
                    .to_string(),
                value: doc
                    .get("value")
                    .and_then(Json::as_str)
                    .ok_or("grow entry missing string field `value`")?
                    .to_string(),
            },
            other => return Err(format!("unknown entry op {other:?}")),
        };
        Ok(LogEntry { seq, op })
    }
}

/// Result of scanning a log file: the complete entries plus the byte
/// offset just past the last complete line (a torn tail starts there).
struct Scan {
    entries: Vec<LogEntry>,
    complete_bytes: u64,
}

/// Scans NDJSON log text, stopping cleanly at the last complete entry. A
/// final line that is unterminated or fails to parse is tolerated (crash
/// tear); a bad line *followed by complete entries* is corruption.
fn scan_log(text: &str) -> io::Result<Scan> {
    let mut entries: Vec<LogEntry> = Vec::new();
    let mut complete_bytes = 0u64;
    let mut torn: Option<String> = None;
    let mut offset = 0usize;
    for piece in text.split_inclusive('\n') {
        let start = offset;
        offset += piece.len();
        let terminated = piece.ends_with('\n');
        let line = piece.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            if terminated {
                complete_bytes = offset as u64;
            }
            continue;
        }
        if torn.is_some() {
            // Entries after a bad line: the tear was not at the tail.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "op log corrupt at byte {start}: {}",
                    torn.take().unwrap_or_default()
                ),
            ));
        }
        match LogEntry::parse(line) {
            Ok(entry) if !terminated => {
                // A fully parseable final line without its newline: the
                // newline write itself tore. Treat it as incomplete.
                let _ = entry;
                torn = Some("final line missing newline".into());
            }
            Ok(entry) => {
                if let Some(last) = entries.last() {
                    if entry.seq != last.seq + 1 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "op log seq jumps from {} to {} at byte {start}",
                                last.seq, entry.seq
                            ),
                        ));
                    }
                }
                entries.push(entry);
                complete_bytes = offset as u64;
            }
            Err(e) if !terminated => torn = Some(e),
            Err(e) => torn = Some(format!("{e} (line is newline-terminated)")),
        }
    }
    // A trailing `torn` here is the tolerated crash tear — but a *newer
    // version* entry must refuse, terminated or not: it is not a tear.
    if let Some(reason) = &torn {
        if reason.contains("newer than this build") {
            return Err(io::Error::new(io::ErrorKind::InvalidData, reason.clone()));
        }
    }
    Ok(Scan {
        entries,
        complete_bytes,
    })
}

/// Reads the complete entries of a log file with `seq >= from_seq`,
/// tolerating a torn final line. Used by followers tailing a shared file
/// and by recovery replay.
pub fn read_entries_from(path: &Path, from_seq: u64) -> io::Result<Vec<LogEntry>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut scan = scan_log(&text)?;
    scan.entries.retain(|e| e.seq >= from_seq);
    Ok(scan.entries)
}

/// Logs whose appends fail on purpose, with the first failing call: a
/// fault seam for tests, keyed by path so parallel tests stay apart.
#[cfg(test)]
static FAILING_APPENDS: std::sync::Mutex<Vec<(PathBuf, u64)>> = std::sync::Mutex::new(Vec::new());

/// The writable append-only op log a leader owns.
///
/// All complete entries since the last snapshot-anchored truncation are
/// kept in memory (they are also what `replicate` serves), so the resident
/// size is bounded by how often the operator snapshots.
#[derive(Debug)]
pub struct OpLog {
    path: PathBuf,
    file: File,
    sync: SyncPolicy,
    dirty: bool,
    entries: Vec<LogEntry>,
    next_seq: u64,
    appends: u64,
    fsyncs: u64,
}

impl OpLog {
    /// Opens (or creates) the log at `path`, scanning existing entries and
    /// truncating a torn final line so appends start clean.
    pub fn open(path: &Path, sync: SyncPolicy) -> io::Result<OpLog> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        let scan = scan_log(&text)?;
        if scan.complete_bytes < text.len() as u64 {
            file.set_len(scan.complete_bytes)?;
        }
        file.seek(SeekFrom::Start(scan.complete_bytes))?;
        let next_seq = scan.entries.last().map_or(1, |e| e.seq + 1);
        Ok(OpLog {
            path: path.to_path_buf(),
            file,
            sync,
            dirty: false,
            entries: scan.entries,
            next_seq,
            appends: 0,
            fsyncs: 0,
        })
    }

    /// Opens a log whose sequence numbering continues after a snapshot
    /// anchor: an *empty or absent* file starts at `anchor + 1` instead of
    /// 1 (a non-empty file's own numbering wins — it must already be
    /// contiguous with the anchor, which [`OpLog::first_seq`] lets callers
    /// verify).
    pub fn open_anchored(path: &Path, sync: SyncPolicy, anchor: u64) -> io::Result<OpLog> {
        let mut log = OpLog::open(path, sync)?;
        if log.entries.is_empty() && log.next_seq <= anchor {
            log.next_seq = anchor + 1;
        }
        Ok(log)
    }

    /// Appends one mutation, returning its sequence number. The entry is
    /// written and flushed before returning; under [`SyncPolicy::Always`]
    /// it is also fsynced.
    pub fn append(&mut self, op: LoggedOp) -> io::Result<u64> {
        #[cfg(test)]
        if self.injected_failure() {
            return Err(io::Error::other("injected append failure"));
        }
        let entry = LogEntry {
            seq: self.next_seq,
            op,
        };
        let mut line = entry.to_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.appends += 1;
        match self.sync {
            SyncPolicy::Always => {
                self.file.sync_data()?;
                self.fsyncs += 1;
            }
            SyncPolicy::Batch => self.dirty = true,
            SyncPolicy::Off => {}
        }
        self.next_seq += 1;
        self.entries.push(entry);
        Ok(self.next_seq - 1)
    }

    /// Makes every append to this log from the `k`-th call on (counting
    /// from 1) fail before writing a byte (tests only).
    #[cfg(test)]
    pub(crate) fn fail_appends_from(&self, k: u64) {
        let mut faults = FAILING_APPENDS.lock().unwrap();
        faults.retain(|(path, _)| path != &self.path);
        faults.push((self.path.clone(), k));
    }

    /// Whether the fault set by [`OpLog::fail_appends_from`] fails this
    /// append: only failed calls follow the first failing one, so the
    /// successful count stays at `k - 1` from then on.
    #[cfg(test)]
    fn injected_failure(&self) -> bool {
        FAILING_APPENDS
            .lock()
            .unwrap()
            .iter()
            .any(|(path, k)| path == &self.path && self.appends + 1 >= *k)
    }

    /// Fsyncs pending appends if the policy is [`SyncPolicy::Batch`] and
    /// anything was written since the last sync. The serving pipeline calls
    /// this once per segment.
    pub fn sync_batch(&mut self) -> io::Result<()> {
        if self.dirty && self.sync == SyncPolicy::Batch {
            self.file.sync_data()?;
            self.fsyncs += 1;
            self.dirty = false;
        }
        Ok(())
    }

    /// The sequence number of the last appended entry (0 if none ever).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The sequence number of the oldest *retained* entry; equals
    /// `last_seq() + 1` when the log holds no entries (all truncated).
    pub fn first_seq(&self) -> u64 {
        self.entries.first().map_or(self.next_seq, |e| e.seq)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log retains no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total appends since open (for stats).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Total explicit fsyncs since open (for stats).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The configured sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Retained entries with `seq >= from`, capped at `max`. `Err` carries
    /// the oldest available seq when `from` predates the retained window
    /// (the follower must restart from a fresh snapshot).
    pub fn entries_from(&self, from: u64, max: usize) -> Result<&[LogEntry], u64> {
        let first = self.first_seq();
        if from < first {
            return Err(first);
        }
        let skip = (from - first) as usize;
        let upper = self.entries.len().min(skip.saturating_add(max));
        Ok(&self.entries[skip.min(self.entries.len())..upper])
    }

    /// Drops every entry with `seq <= through` (a snapshot at that anchor
    /// makes them redundant), rewriting the file atomically via tmp+rename
    /// and reopening the append handle.
    pub fn truncate_through(&mut self, through: u64) -> io::Result<()> {
        if self.entries.first().is_none_or(|e| e.seq > through) {
            return Ok(());
        }
        let keep = self.entries.iter().position(|e| e.seq > through);
        let retained: Vec<LogEntry> = match keep {
            Some(i) => self.entries.split_off(i),
            None => Vec::new(),
        };
        self.entries = retained;
        let mut tmp_name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "oplog".into());
        tmp_name.push_str(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        {
            let mut out = File::create(&tmp)?;
            let mut text = String::new();
            for entry in &self.entries {
                text.push_str(&entry.to_line());
                text.push('\n');
            }
            out.write_all(text.as_bytes())?;
            out.sync_data()?;
        }
        fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "mithra-oplog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_file(&p);
        p
    }

    fn sample_ops() -> Vec<LoggedOp> {
        vec![
            LoggedOp::Insert {
                rows: vec![vec!["f".into(), "black".into()]],
            },
            LoggedOp::Delete {
                rows: vec![
                    vec!["m".into(), "white".into()],
                    vec!["f".into(), "black".into()],
                ],
            },
            LoggedOp::Grow {
                attribute: "race".into(),
                value: "va\"l".into(),
            },
        ]
    }

    #[test]
    fn entries_round_trip_through_lines() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let entry = LogEntry {
                seq: i as u64 + 1,
                op,
            };
            let line = entry.to_line();
            assert_eq!(LogEntry::parse(&line).unwrap(), entry, "line `{line}`");
        }
    }

    #[test]
    fn append_reopen_replay() {
        let path = temp_path("reopen");
        let mut log = OpLog::open(&path, SyncPolicy::Off).unwrap();
        for op in sample_ops() {
            log.append(op).unwrap();
        }
        assert_eq!(log.last_seq(), 3);
        drop(log);
        let log = OpLog::open(&path, SyncPolicy::Off).unwrap();
        assert_eq!(log.last_seq(), 3);
        assert_eq!(log.first_seq(), 1);
        assert_eq!(log.len(), 3);
        let tail = read_entries_from(&path, 2).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_cleanly() {
        let path = temp_path("torn");
        let mut log = OpLog::open(&path, SyncPolicy::Always).unwrap();
        for op in sample_ops() {
            log.append(op).unwrap();
        }
        drop(log);
        // Simulate a crash mid-append: append half an entry, no newline.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"v\":1,\"seq\":4,\"op\":\"insert\",\"rows\":[[\"f\"");
        fs::write(&path, &text).unwrap();
        assert_eq!(read_entries_from(&path, 1).unwrap().len(), 3);
        let mut log = OpLog::open(&path, SyncPolicy::Off).unwrap();
        assert_eq!(log.last_seq(), 3);
        // The tear was truncated, so the next append lands on its own line.
        log.append(LoggedOp::Grow {
            attribute: "a".into(),
            value: "b".into(),
        })
        .unwrap();
        drop(log);
        let entries = read_entries_from(&path, 1).unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[3].seq, 4);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn complete_final_line_missing_newline_is_also_a_tear() {
        let path = temp_path("no-newline");
        fs::write(
            &path,
            "{\"v\":1,\"seq\":1,\"op\":\"grow\",\"attr\":\"a\",\"value\":\"b\"}\n{\"v\":1,\"seq\":2,\"op\":\"grow\",\"attr\":\"a\",\"value\":\"c\"}",
        )
        .unwrap();
        let entries = read_entries_from(&path, 1).unwrap();
        assert_eq!(entries.len(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corruption_before_the_tail_is_refused() {
        let path = temp_path("corrupt");
        fs::write(
            &path,
            "garbage line\n{\"v\":1,\"seq\":1,\"op\":\"grow\",\"attr\":\"a\",\"value\":\"b\"}\n",
        )
        .unwrap();
        let err = read_entries_from(&path, 1).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        assert!(OpLog::open(&path, SyncPolicy::Off).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn newer_version_entries_are_refused() {
        let path = temp_path("newer");
        fs::write(
            &path,
            format!(
                "{{\"v\":{},\"seq\":1,\"op\":\"grow\",\"attr\":\"a\",\"value\":\"b\"}}\n",
                OPLOG_VERSION + 1
            ),
        )
        .unwrap();
        let err = read_entries_from(&path, 1).unwrap_err();
        assert!(err.to_string().contains("newer"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn seq_gaps_are_refused() {
        let path = temp_path("gap");
        fs::write(
            &path,
            "{\"v\":1,\"seq\":1,\"op\":\"grow\",\"attr\":\"a\",\"value\":\"b\"}\n{\"v\":1,\"seq\":3,\"op\":\"grow\",\"attr\":\"a\",\"value\":\"c\"}\n",
        )
        .unwrap();
        assert!(read_entries_from(&path, 1).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncate_through_keeps_the_tail_and_numbering() {
        let path = temp_path("truncate");
        let mut log = OpLog::open(&path, SyncPolicy::Batch).unwrap();
        for op in sample_ops() {
            log.append(op).unwrap();
        }
        log.sync_batch().unwrap();
        log.truncate_through(2).unwrap();
        assert_eq!(log.first_seq(), 3);
        assert_eq!(log.last_seq(), 3);
        assert_eq!(log.len(), 1);
        // Appends continue the numbering after truncation.
        let seq = log
            .append(LoggedOp::Grow {
                attribute: "a".into(),
                value: "z".into(),
            })
            .unwrap();
        assert_eq!(seq, 4);
        drop(log);
        let log = OpLog::open(&path, SyncPolicy::Batch).unwrap();
        assert_eq!(log.first_seq(), 3);
        assert_eq!(log.last_seq(), 4);
        // Truncating everything leaves an empty log that still numbers on.
        let mut log = log;
        log.truncate_through(100).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.first_seq(), 5);
        assert_eq!(log.append(sample_ops().remove(0)).unwrap(), 5);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn open_anchored_continues_after_a_snapshot() {
        let path = temp_path("anchored");
        let mut log = OpLog::open_anchored(&path, SyncPolicy::Off, 41).unwrap();
        assert_eq!(log.last_seq(), 41);
        assert_eq!(log.append(sample_ops().remove(0)).unwrap(), 42);
        drop(log);
        // A non-empty file keeps its own numbering.
        let log = OpLog::open_anchored(&path, SyncPolicy::Off, 7).unwrap();
        assert_eq!(log.first_seq(), 42);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn entries_from_pages_and_detects_truncated_history() {
        let path = temp_path("pages");
        let mut log = OpLog::open(&path, SyncPolicy::Off).unwrap();
        for i in 0..10u32 {
            log.append(LoggedOp::Grow {
                attribute: "a".into(),
                value: format!("v{i}"),
            })
            .unwrap();
        }
        let page = log.entries_from(4, 3).unwrap();
        assert_eq!(
            page.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert_eq!(log.entries_from(11, 3).unwrap().len(), 0);
        log.truncate_through(5).unwrap();
        assert_eq!(log.entries_from(3, 10), Err(6));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn sync_policy_parses() {
        assert_eq!(SyncPolicy::parse("always"), Some(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("batch"), Some(SyncPolicy::Batch));
        assert_eq!(SyncPolicy::parse("off"), Some(SyncPolicy::Off));
        assert_eq!(SyncPolicy::parse("sometimes"), None);
        assert_eq!(SyncPolicy::Always.as_str(), "always");
    }
}
