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
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
///   event-loop tick, a stdin read, a `handle_line` call). Every response
///   waits for its segment's fsync, and a failed fsync revokes the
///   segment's successes, so an acknowledged write survives power loss; a
///   power cut loses only writes that were never acknowledged.
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

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Streams a log's lines and applies the recovery rules to them: a final
/// line that is unterminated or fails to decode is tolerated (crash tear),
/// a bad line *followed by complete entries* is corruption, seqs must be
/// dense, and an entry from a newer format version is refused even as the
/// tail. Each line is decoded on its own, so a tear inside a multi-byte
/// UTF-8 value is a tear like any other.
struct Scanner<R> {
    reader: R,
    /// Byte offset of the next unread line.
    offset: u64,
    /// Byte offset just past the last complete line (a torn tail starts
    /// there).
    complete: u64,
    /// The seq the next entry must carry, once one entry has been seen.
    expect: Option<u64>,
    /// The start offset of the last non-blank line and why it was not a
    /// complete entry.
    torn: Option<(u64, String)>,
    line: Vec<u8>,
}

impl<R: BufRead> Scanner<R> {
    /// Scans `reader`, which is positioned at byte `offset` of the file.
    fn new(reader: R, offset: u64, expect: Option<u64>) -> Self {
        Scanner {
            reader,
            offset,
            complete: offset,
            expect,
            torn: None,
            line: Vec::new(),
        }
    }

    /// The next complete entry and the offset its line starts at; `None`
    /// at the end of the log's complete entries.
    fn next_entry(&mut self) -> io::Result<Option<(u64, LogEntry)>> {
        loop {
            self.line.clear();
            let read = self.reader.read_until(b'\n', &mut self.line)?;
            if read == 0 {
                return match self.torn.take() {
                    // A newer-version entry is not a tear, terminated or not.
                    Some((_, reason)) if reason.contains("newer than this build") => {
                        Err(invalid(reason))
                    }
                    torn => {
                        self.torn = torn;
                        Ok(None)
                    }
                };
            }
            let start = self.offset;
            self.offset += read as u64;
            let terminated = self.line.ends_with(b"\n");
            let mut body = self.line.as_slice();
            while let [rest @ .., b'\n' | b'\r'] = body {
                body = rest;
            }
            if body.is_empty() {
                if terminated && self.torn.is_none() {
                    self.complete = self.offset;
                }
                continue;
            }
            if let Some((at, reason)) = self.torn.take() {
                // Entries after a bad line: the tear was not at the tail.
                return Err(invalid(format!("op log corrupt at byte {at}: {reason}")));
            }
            let parsed = std::str::from_utf8(body)
                .map_err(|e| format!("line is not valid UTF-8 ({e})"))
                .and_then(LogEntry::parse);
            match parsed {
                // A fully parseable final line without its newline: the
                // newline write itself tore. Treat it as incomplete.
                Ok(_) if !terminated => {
                    self.torn = Some((start, "final line missing newline".into()));
                }
                Ok(entry) => {
                    if let Some(expect) = self.expect.filter(|&seq| seq != entry.seq) {
                        return Err(invalid(format!(
                            "op log seq jumps from {} to {} at byte {start}",
                            expect - 1,
                            entry.seq
                        )));
                    }
                    self.expect = Some(entry.seq + 1);
                    self.complete = self.offset;
                    return Ok(Some((start, entry)));
                }
                Err(e) if !terminated => self.torn = Some((start, e)),
                Err(e) => self.torn = Some((start, format!("{e} (line is newline-terminated)"))),
            }
        }
    }
}

/// Where a file follower's next read of a log resumes: just past the last
/// entry it read, in the file (inode) it read it from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileCursor {
    inode: u64,
    offset: u64,
    /// The seq expected at `offset`.
    seq: u64,
}

/// Scans `file` from byte `start` for at most `max` entries with
/// `seq >= from_seq`, returning them and the cursor past the last entry
/// scanned.
fn scan_file(
    file: &File,
    inode: u64,
    start: u64,
    expect: Option<u64>,
    from_seq: u64,
    max: usize,
) -> io::Result<(Vec<LogEntry>, FileCursor)> {
    let mut reader = BufReader::new(file);
    reader.seek(SeekFrom::Start(start))?;
    let mut scanner = Scanner::new(reader, start, expect);
    let mut entries = Vec::new();
    let mut cursor = FileCursor {
        inode,
        offset: start,
        seq: from_seq,
    };
    while entries.len() < max {
        let Some((_, entry)) = scanner.next_entry()? else {
            break;
        };
        cursor.offset = scanner.complete;
        cursor.seq = entry.seq + 1;
        if entry.seq >= from_seq {
            entries.push(entry);
        }
    }
    Ok((entries, cursor))
}

/// Reads the complete entries of a log file with `seq >= from_seq`,
/// tolerating a torn final line. Used by recovery replay and tests.
pub fn read_entries_from(path: &Path, from_seq: u64) -> io::Result<Vec<LogEntry>> {
    read_entries_resuming(path, from_seq, usize::MAX, None).map(|(entries, _)| entries)
}

/// Reads at most `max` complete entries with `seq >= from_seq` from the log
/// at `path`, and returns them with the cursor past them. A cursor from an
/// earlier call resumes the scan at its offset when it still describes the
/// file: the same inode, not shrunk, and the entry at the offset carries
/// `from_seq`. Otherwise (the leader truncated or replaced the log) the
/// whole file is scanned again. A missing file reads as empty.
pub(crate) fn read_entries_resuming(
    path: &Path,
    from_seq: u64,
    max: usize,
    cursor: Option<FileCursor>,
) -> io::Result<(Vec<LogEntry>, Option<FileCursor>)> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), None)),
        Err(e) => return Err(e),
    };
    let meta = file.metadata()?;
    let inode = meta.ino();
    if let Some(cursor) =
        cursor.filter(|c| c.inode == inode && c.seq == from_seq && c.offset <= meta.len())
    {
        if let Ok((entries, next)) =
            scan_file(&file, inode, cursor.offset, Some(from_seq), from_seq, max)
        {
            return Ok((entries, Some(next)));
        }
    }
    let (entries, next) = scan_file(&file, inode, 0, None, from_seq, max)?;
    Ok((entries, Some(next)))
}

/// Fsyncs the directory holding `path`, making a rename into it durable.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// The step of an op log that a test makes fail on purpose.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Every append from the `k`-th call on (counting from 1).
    AppendsFrom(u64),
    /// Every batch fsync from the `k`-th one on (counting from 1).
    SyncsFrom(u64),
    /// The rewrite of every truncation, after the tail is copied and
    /// before the rename.
    Truncations,
}

/// The writable append-only op log a leader owns.
///
/// The file is the only copy of the retained entries (those since the
/// last snapshot-anchored truncation). In memory the log keeps one byte
/// offset per retained entry, 8 bytes each, so `replicate` pages and
/// truncation read the entries back from the file.
#[derive(Debug)]
pub struct OpLog {
    path: PathBuf,
    /// The handle appends write through and pages read from; truncation
    /// replaces it, and a [`LogPage`] taken earlier keeps the old one.
    file: Arc<File>,
    sync: SyncPolicy,
    dirty: bool,
    /// The start offset of each retained entry's line, in seq order.
    offsets: Vec<u64>,
    /// The seq of the first retained entry; the next seq to append when
    /// none is retained.
    first_seq: u64,
    /// The offset just past the last complete line.
    end: u64,
    appends: u64,
    fsyncs: u64,
    /// The step a test made fail on purpose.
    #[cfg(test)]
    fault: Option<Fault>,
}

/// A run of retained entries located from the in-memory offsets, not yet
/// read: the file handle and byte range of their lines.
#[derive(Debug)]
pub struct LogPage {
    file: Arc<File>,
    start: u64,
    end: u64,
    first_seq: u64,
    len: usize,
}

impl LogPage {
    /// Number of entries on the page.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the page holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page's lines exactly as [`LogEntry::to_line`] wrote them, each
    /// ending in a newline, read with one positioned read.
    pub fn read_lines(&self) -> io::Result<String> {
        let mut buf = vec![0; (self.end - self.start) as usize];
        self.file.read_exact_at(&mut buf, self.start)?;
        String::from_utf8(buf).map_err(|e| invalid(format!("op log page: {e}")))
    }

    /// The page's entries, parsed.
    pub fn entries(&self) -> io::Result<Vec<LogEntry>> {
        let text = self.read_lines()?;
        let mut entries = Vec::with_capacity(self.len);
        for line in text.lines().filter(|line| !line.is_empty()) {
            let entry = LogEntry::parse(line).map_err(invalid)?;
            let seq = self.first_seq + entries.len() as u64;
            if entry.seq != seq {
                return Err(invalid(format!(
                    "op log page expected seq {seq}, found {}",
                    entry.seq
                )));
            }
            entries.push(entry);
        }
        if entries.len() != self.len {
            return Err(invalid(format!(
                "op log page holds {} entries, expected {}",
                entries.len(),
                self.len
            )));
        }
        Ok(entries)
    }
}

impl OpLog {
    /// Opens (or creates) the log at `path`, scanning existing entries and
    /// truncating a torn final line so appends start clean.
    pub fn open(path: &Path, sync: SyncPolicy) -> io::Result<OpLog> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut offsets = Vec::new();
        let mut first_seq = 1;
        let mut scanner = Scanner::new(BufReader::new(&file), 0, None);
        while let Some((start, entry)) = scanner.next_entry()? {
            if offsets.is_empty() {
                first_seq = entry.seq;
            }
            offsets.push(start);
        }
        let end = scanner.complete;
        if scanner.offset > end {
            file.set_len(end)?;
        }
        Ok(OpLog {
            path: path.to_path_buf(),
            file: Arc::new(file),
            sync,
            dirty: false,
            offsets,
            first_seq,
            end,
            appends: 0,
            fsyncs: 0,
            #[cfg(test)]
            fault: None,
        })
    }

    /// Opens a log whose sequence numbering continues after a snapshot
    /// anchor: an *empty or absent* file starts at `anchor + 1` instead of
    /// 1 (a non-empty file's own numbering wins — it must already be
    /// contiguous with the anchor, which [`OpLog::first_seq`] lets callers
    /// verify).
    pub fn open_anchored(path: &Path, sync: SyncPolicy, anchor: u64) -> io::Result<OpLog> {
        let mut log = OpLog::open(path, sync)?;
        if log.offsets.is_empty() && log.first_seq <= anchor {
            log.first_seq = anchor + 1;
        }
        Ok(log)
    }

    /// Appends one mutation, returning its sequence number. The entry is
    /// written at the end of the last complete line before returning;
    /// under [`SyncPolicy::Always`] it is also fsynced.
    pub fn append(&mut self, op: LoggedOp) -> io::Result<u64> {
        #[cfg(test)]
        if matches!(self.fault, Some(Fault::AppendsFrom(k)) if self.appends + 1 >= k) {
            return Err(io::Error::other("injected append failure"));
        }
        let seq = self.last_seq() + 1;
        let mut line = LogEntry { seq, op }.to_line();
        line.push('\n');
        self.file.write_all_at(line.as_bytes(), self.end)?;
        self.appends += 1;
        match self.sync {
            SyncPolicy::Always => {
                self.file.sync_data()?;
                self.fsyncs += 1;
            }
            SyncPolicy::Batch => self.dirty = true,
            SyncPolicy::Off => {}
        }
        self.offsets.push(self.end);
        self.end += line.len() as u64;
        Ok(seq)
    }

    /// Makes every append to this log from the `k`-th call on (counting
    /// from 1) fail before writing a byte (tests only). Only failed calls
    /// follow the first failing one, so the successful count stays at
    /// `k - 1` from then on.
    #[cfg(test)]
    pub(crate) fn fail_appends_from(&mut self, k: u64) {
        self.fault = Some(Fault::AppendsFrom(k));
    }

    /// Makes every batch fsync of this log from the `k`-th one on
    /// (counting from 1) fail, leaving the appends it would have covered
    /// written but not durable (tests only).
    #[cfg(test)]
    pub(crate) fn fail_syncs_from(&mut self, k: u64) {
        self.fault = Some(Fault::SyncsFrom(k));
    }

    /// Makes every truncation of this log fail after copying the retained
    /// tail and before renaming it into place (tests only).
    #[cfg(test)]
    pub(crate) fn fail_truncations(&mut self) {
        self.fault = Some(Fault::Truncations);
    }

    /// Fsyncs pending appends if the policy is [`SyncPolicy::Batch`] and
    /// anything was written since the last sync. The serving pipeline calls
    /// this once per segment.
    pub fn sync_batch(&mut self) -> io::Result<()> {
        if self.dirty && self.sync == SyncPolicy::Batch {
            #[cfg(test)]
            if matches!(self.fault, Some(Fault::SyncsFrom(k)) if self.fsyncs + 1 >= k) {
                return Err(io::Error::other("injected fsync failure"));
            }
            self.file.sync_data()?;
            self.fsyncs += 1;
            self.dirty = false;
        }
        Ok(())
    }

    /// The sequence number of the last appended entry (0 if none ever).
    pub fn last_seq(&self) -> u64 {
        self.first_seq + self.offsets.len() as u64 - 1
    }

    /// The sequence number of the oldest *retained* entry; equals
    /// `last_seq() + 1` when the log holds no entries (all truncated).
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the log retains no entries.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Bytes of complete lines in the file: the retained entries on disk.
    pub fn retained_bytes(&self) -> u64 {
        self.end
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

    /// Locates the retained entries with `seq >= from`, capped at `max`,
    /// without reading them: [`LogPage::read_lines`] does. `Err` carries the oldest available seq when `from`
    /// predates the retained window (the follower must restart from a
    /// fresh snapshot).
    pub fn entries_from(&self, from: u64, max: usize) -> Result<LogPage, u64> {
        if from < self.first_seq {
            return Err(self.first_seq);
        }
        let count = self.offsets.len();
        let skip = usize::try_from(from - self.first_seq).map_or(count, |skip| skip.min(count));
        let upper = count.min(skip.saturating_add(max));
        let at = |i: usize| self.offsets.get(i).copied().unwrap_or(self.end);
        Ok(LogPage {
            file: Arc::clone(&self.file),
            start: at(skip),
            end: at(upper),
            first_seq: self.first_seq + skip as u64,
            len: upper - skip,
        })
    }

    /// Drops every entry with `seq <= through` (a snapshot at that anchor
    /// makes them redundant). The retained tail is copied from the file
    /// into `<path>.tmp`, fsynced, renamed over the log, and the directory
    /// is fsynced. If the copy fails, nothing changes; once the rename has
    /// landed, the log follows the renamed file even if the directory
    /// fsync then fails, because appends must reach the file the path
    /// names.
    pub fn truncate_through(&mut self, through: u64) -> io::Result<()> {
        if self.offsets.is_empty() || self.first_seq > through {
            return Ok(());
        }
        let dropped = usize::try_from(through + 1 - self.first_seq)
            .map_or(self.offsets.len(), |n| n.min(self.offsets.len()));
        let from_byte = self.offsets.get(dropped).copied().unwrap_or(self.end);
        let mut tmp_name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "oplog".into());
        tmp_name.push_str(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut source = &*self.file;
        source.seek(SeekFrom::Start(from_byte))?;
        io::copy(&mut source.take(self.end - from_byte), &mut &file)?;
        file.sync_data()?;
        #[cfg(test)]
        if self.fault == Some(Fault::Truncations) {
            return Err(io::Error::other("injected truncation failure"));
        }
        fs::rename(&tmp, &self.path)?;
        self.file = Arc::new(file);
        self.offsets.drain(..dropped);
        for offset in &mut self.offsets {
            *offset -= from_byte;
        }
        self.first_seq += dropped as u64;
        self.end -= from_byte;
        self.dirty = false;
        sync_parent_dir(&self.path)
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
            page.entries()
                .unwrap()
                .iter()
                .map(|e| e.seq)
                .collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert_eq!(log.entries_from(11, 3).unwrap().len(), 0);
        log.truncate_through(5).unwrap();
        assert_eq!(log.entries_from(3, 10).unwrap_err(), 6);
        let _ = fs::remove_file(&path);
    }

    fn grow(value: &str) -> LoggedOp {
        LoggedOp::Grow {
            attribute: "a".into(),
            value: value.into(),
        }
    }

    #[test]
    fn torn_tail_inside_a_multibyte_value_is_a_tear() {
        let path = temp_path("utf8-tear");
        let mut log = OpLog::open(&path, SyncPolicy::Off).unwrap();
        log.append(grow("é")).unwrap();
        log.append(grow("ü")).unwrap();
        drop(log);
        let complete = fs::read(&path).unwrap();
        // The crash cut the third entry after the first byte of `é`.
        let mut bytes = complete.clone();
        let line = LogEntry {
            seq: 3,
            op: grow("é"),
        }
        .to_line();
        let cut = line.find('é').unwrap() + 1;
        bytes.extend_from_slice(&line.as_bytes()[..cut]);
        fs::write(&path, &bytes).unwrap();

        let entries = read_entries_from(&path, 1).unwrap();
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 2]);
        let mut log = OpLog::open(&path, SyncPolicy::Off).unwrap();
        assert_eq!(log.last_seq(), 2);
        assert_eq!(fs::read(&path).unwrap(), complete, "the tear is truncated");
        assert_eq!(log.append(grow("é")).unwrap(), 3);
        drop(log);
        assert_eq!(read_entries_from(&path, 3).unwrap()[0].op, grow("é"));
        let _ = fs::remove_file(&path);
    }

    /// A failed append can leave a prefix of its line past the last
    /// complete one; appends write at the end of the last complete line,
    /// so the next one overwrites it and the log stays openable.
    #[test]
    fn torn_append_bytes_are_overwritten_by_the_next_append() {
        let path = temp_path("short-write");
        let mut log = OpLog::open(&path, SyncPolicy::Off).unwrap();
        log.append(grow("a")).unwrap();
        let torn = LogEntry {
            seq: 2,
            op: grow(&"x".repeat(200)),
        }
        .to_line();
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .write_all_at(&torn.as_bytes()[..150], log.retained_bytes())
            .unwrap();
        assert_eq!(log.append(grow("b")).unwrap(), 2);
        assert_eq!(log.append(grow("c")).unwrap(), 3);
        drop(log);
        let log = OpLog::open(&path, SyncPolicy::Off).unwrap();
        assert_eq!(log.last_seq(), 3);
        let entries = log.entries_from(1, 10).unwrap().entries().unwrap();
        assert_eq!(entries[1].op, grow("b"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn invalid_utf8_before_the_tail_is_corruption() {
        let path = temp_path("utf8-corrupt");
        let mut bytes =
            b"{\"v\":1,\"seq\":1,\"op\":\"grow\",\"attr\":\"a\",\"value\":\"\xc3\"}\n".to_vec();
        bytes.extend_from_slice(
            b"{\"v\":1,\"seq\":2,\"op\":\"grow\",\"attr\":\"a\",\"value\":\"b\"}\n",
        );
        fs::write(&path, &bytes).unwrap();
        let err = read_entries_from(&path, 1).unwrap_err();
        assert!(err.to_string().contains("corrupt at byte 0"), "{err}");
        assert!(err.to_string().contains("UTF-8"), "{err}");
        assert!(OpLog::open(&path, SyncPolicy::Off).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn failed_truncation_changes_nothing() {
        let path = temp_path("failed-truncation");
        let mut log = OpLog::open(&path, SyncPolicy::Batch).unwrap();
        for i in 0..5 {
            log.append(grow(&format!("v{i}"))).unwrap();
        }
        let before = log.entries_from(1, 10).unwrap().read_lines().unwrap();
        log.fail_truncations();
        let err = log.truncate_through(3).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(log.first_seq(), 1);
        assert_eq!(log.len(), 5);
        assert_eq!(
            log.entries_from(1, 10).unwrap().read_lines().unwrap(),
            before
        );
        assert_eq!(
            log.entries_from(4, 10).unwrap().entries().unwrap()[0].seq,
            4
        );
        assert_eq!(log.append(grow("v5")).unwrap(), 6);
        log.sync_batch().unwrap();
        drop(log);
        let entries = read_entries_from(&path, 1).unwrap();
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5, 6]
        );
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let _ = fs::remove_file(tmp);
        let _ = fs::remove_file(&path);
    }

    /// Pages of `max` entries through the cursor path, from seq `from`.
    fn read_resuming(
        path: &Path,
        mut from: u64,
        max: usize,
        cursor: &mut Option<FileCursor>,
    ) -> Vec<LogEntry> {
        let mut all = Vec::new();
        loop {
            let (page, next) = read_entries_resuming(path, from, max, *cursor).unwrap();
            *cursor = next;
            let Some(last) = page.last() else {
                return all;
            };
            from = last.seq + 1;
            all.extend(page);
        }
    }

    #[test]
    fn resumed_reads_match_a_full_scan_across_truncation() {
        let path = temp_path("cursor");
        let mut log = OpLog::open(&path, SyncPolicy::Off).unwrap();
        for i in 0..10 {
            log.append(grow(&format!("v{i}"))).unwrap();
        }
        let mut cursor = None;
        assert_eq!(
            read_resuming(&path, 1, 3, &mut cursor),
            read_entries_from(&path, 1).unwrap()
        );
        // Caught up: nothing new, and the cursor stays put.
        let caught_up = cursor;
        assert_eq!(read_resuming(&path, 11, 3, &mut cursor), []);
        assert_eq!(cursor, caught_up);

        // The cursor really resumes: damage to bytes it already passed,
        // which a full scan refuses, is not read again.
        for i in 10..14 {
            log.append(grow(&format!("v{i}"))).unwrap();
        }
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .write_all_at(b"X", 0)
            .unwrap();
        assert!(read_entries_from(&path, 11).is_err());
        let tail = read_resuming(&path, 11, 3, &mut cursor);
        assert_eq!(
            tail.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [11, 12, 13, 14]
        );
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .write_all_at(b"{", 0)
            .unwrap();

        // A truncation replaces the file: the cursor falls back to a full
        // scan and still reads the same entries.
        log.truncate_through(12).unwrap();
        for i in 14..17 {
            log.append(grow(&format!("v{i}"))).unwrap();
        }
        assert_eq!(
            read_resuming(&path, 15, 2, &mut cursor),
            read_entries_from(&path, 15).unwrap()
        );
        // A cursor for a different seq falls back too.
        let mut stale = caught_up;
        assert_eq!(
            read_resuming(&path, 13, 2, &mut stale),
            read_entries_from(&path, 13).unwrap()
        );
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
