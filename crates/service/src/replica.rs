//! Follower replication: tail a leader's op log and apply it through the
//! ordinary engine path.
//!
//! A follower (`mithra serve --follow <addr|path>`) bootstraps its engine
//! exactly like a leader (CSV audit or snapshot restore), then runs
//! [`run_follower`] on a background thread while the regular front end
//! serves read-only traffic. Two transports share one loop:
//!
//! * **TCP** (`--follow host:port`) — the follower sends `replicate`
//!   requests to the leader and pages through the returned entry batches;
//! * **shared file** (`--follow path`) — the follower reads the leader's
//!   log file directly, a page at a time from just past the last entry it
//!   applied, tolerating a torn final line exactly like recovery does.
//!
//! Replay is deterministic because entries store *raw* values and are
//! applied through the same encode path the leader used, in the same
//! order, against the same starting state — the `service_properties`
//! proptests pin this equivalence. Any apply failure therefore means the
//! follower was started from the wrong base state (or the log is corrupt),
//! and the loop stops with an error instead of serving divergent answers.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use coverage_index::CoverageBackend;

use crate::engine::CoverageEngine;
use crate::oplog::{read_entries_resuming, FileCursor, LogEntry, LoggedOp, REPLICATE_BATCH_LIMIT};
use crate::protocol::{Json, ServeError};
use crate::server::{encode_row, encode_rows_growing, with_engine_contained};

/// How long a follower waits for the leader's `replicate` response before
/// treating the connection as dead.
const REPLICATE_TIMEOUT: Duration = Duration::from_secs(30);

/// Shared replication progress, surfaced by the `stats` op as the
/// `"replication"` section on a follower.
#[derive(Debug)]
pub struct ReplicationStatus {
    source: String,
    applied_seq: AtomicU64,
    leader_seq: AtomicU64,
    entries_applied: AtomicU64,
    rounds: AtomicU64,
    errors: AtomicU64,
}

impl ReplicationStatus {
    /// Fresh progress for a follower tailing `source` (display form),
    /// starting from `applied_seq` (the snapshot anchor it booted from).
    pub fn new(source: impl Into<String>, applied_seq: u64) -> Self {
        ReplicationStatus {
            source: source.into(),
            applied_seq: AtomicU64::new(applied_seq),
            leader_seq: AtomicU64::new(applied_seq),
            entries_applied: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// The leader address or log path being tailed, for display.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The last log seq applied to the local engine.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Acquire)
    }

    /// The leader's last known seq (from the most recent fetch).
    pub fn leader_seq(&self) -> u64 {
        self.leader_seq.load(Ordering::Acquire)
    }

    /// How far behind the leader this follower is, in entries.
    pub fn lag(&self) -> u64 {
        self.leader_seq().saturating_sub(self.applied_seq())
    }

    /// Total entries applied since this follower started.
    pub fn entries_applied(&self) -> u64 {
        self.entries_applied.load(Ordering::Relaxed)
    }

    /// Total fetch rounds (including empty ones).
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Transient fetch errors survived (reconnects, bad responses).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn record_applied(&self, seq: u64) {
        self.applied_seq.store(seq, Ordering::Release);
        self.entries_applied.fetch_add(1, Ordering::Relaxed);
    }
}

/// Where a follower reads the leader's log from (`--follow <addr|path>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaSource {
    /// A leader's TCP address; entries arrive via the `replicate` op.
    Tcp(String),
    /// The leader's log file on shared storage, read a page at a time.
    File(PathBuf),
}

impl ReplicaSource {
    /// Classifies a `--follow` argument: an existing path is a file;
    /// otherwise `host:port` shapes (a numeric final `:` segment) are TCP
    /// and everything else is treated as a not-yet-created log path.
    pub fn parse(spec: &str) -> ReplicaSource {
        if !Path::new(spec).exists() {
            if let Some((host, port)) = spec.rsplit_once(':') {
                if !host.is_empty() && !port.is_empty() && port.bytes().all(|b| b.is_ascii_digit())
                {
                    return ReplicaSource::Tcp(spec.to_string());
                }
            }
        }
        ReplicaSource::File(PathBuf::from(spec))
    }

    /// Display form (what [`ReplicationStatus::source`] reports).
    pub fn describe(&self) -> String {
        match self {
            ReplicaSource::Tcp(addr) => format!("tcp://{addr}"),
            ReplicaSource::File(path) => format!("file://{}", path.display()),
        }
    }
}

/// Applies one logged op through the ordinary engine path. Inserts always
/// use the growing encode (a leader only logs ops it accepted, so any
/// growth a logged insert implies was legitimate — replaying it via the
/// strict path would reject the very rows that grew the dictionary).
pub fn apply_entry<B: CoverageBackend>(
    engine: &mut CoverageEngine<B>,
    op: &LoggedOp,
) -> Result<(), ServeError> {
    match op {
        LoggedOp::Insert { rows } => {
            let coded = encode_rows_growing(engine, rows)?;
            engine
                .insert_batch(&coded)
                .map_err(ServeError::from_service)
        }
        LoggedOp::Delete { rows } => {
            let coded: Vec<Vec<u8>> = rows
                .iter()
                .map(|r| encode_row(engine.dataset().schema(), r))
                .collect::<Result<_, _>>()?;
            engine
                .remove_batch(&coded)
                .map_err(ServeError::from_service)
        }
        LoggedOp::Grow { attribute, value } => {
            let index = engine
                .dataset()
                .schema()
                .index_of(attribute)
                .map_err(ServeError::from_data)?;
            engine
                .grow_value(index, value)
                .map(|_| ())
                .map_err(ServeError::from_service)
        }
    }
}

/// Replays log entries with `seq > anchor` into an engine (leader startup
/// recovery and in-process catch-up both use this). Returns the last seq
/// applied (= `anchor` if the tail is empty).
pub fn replay_entries<B: CoverageBackend>(
    engine: &mut CoverageEngine<B>,
    entries: &[LogEntry],
    anchor: u64,
) -> Result<u64, String> {
    let mut applied = anchor;
    for entry in entries {
        if entry.seq <= applied {
            continue;
        }
        if entry.seq != applied + 1 {
            return Err(format!(
                "op log jumps from seq {applied} to {}; the snapshot predates the retained log",
                entry.seq
            ));
        }
        apply_entry(engine, &entry.op)
            .map_err(|e| format!("replaying op log seq {}: {}", entry.seq, e.message))?;
        applied = entry.seq;
    }
    Ok(applied)
}

/// One fetched page of the leader's log.
struct Batch {
    entries: Vec<LogEntry>,
    /// The leader's last seq, when the transport reports it (TCP does).
    leader_seq: Option<u64>,
}

enum FetchError {
    /// Retry after a pause (connection refused, mid-restart, bad line).
    Transient(String),
    /// Stop the follower (leader refused, corrupt log, version skew).
    Fatal(String),
}

/// Reads the next page of a shared log file, resuming at `cursor` (just
/// past the last entry read) instead of re-reading the whole file.
fn fetch_file(
    path: &Path,
    from: u64,
    cursor: &mut Option<FileCursor>,
) -> Result<Batch, FetchError> {
    match read_entries_resuming(path, from, REPLICATE_BATCH_LIMIT, *cursor) {
        Ok((entries, next)) => {
            *cursor = next;
            let leader_seq = entries.last().map(|e| e.seq);
            Ok(Batch {
                entries,
                leader_seq,
            })
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(FetchError::Fatal(format!(
            "leader log {} unreadable: {e}",
            path.display()
        ))),
        Err(e) => Err(FetchError::Transient(e.to_string())),
    }
}

/// A persistent `replicate` conversation with the leader.
struct TcpFetcher {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpFetcher {
    fn connect(addr: &str) -> io::Result<TcpFetcher> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(REPLICATE_TIMEOUT))?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(TcpFetcher { reader, writer })
    }
}

fn fetch_tcp(conn: &mut Option<TcpFetcher>, addr: &str, from: u64) -> Result<Batch, FetchError> {
    let transient = |e: io::Error| FetchError::Transient(e.to_string());
    if conn.is_none() {
        *conn = Some(TcpFetcher::connect(addr).map_err(transient)?);
    }
    let Some(fetcher) = conn.as_mut() else {
        return Err(FetchError::Transient(
            "replication connection missing".into(),
        ));
    };
    writeln!(fetcher.writer, "{{\"op\":\"replicate\",\"from\":{from}}}").map_err(transient)?;
    let mut line = String::new();
    if fetcher.reader.read_line(&mut line).map_err(transient)? == 0 {
        return Err(FetchError::Transient("leader closed the connection".into()));
    }
    let doc = Json::parse(line.trim())
        .map_err(|e| FetchError::Transient(format!("bad replicate response: {e}")))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let message = doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("replicate rejected");
        return Err(FetchError::Fatal(format!(
            "leader rejected replicate: {message}"
        )));
    }
    let leader_seq = doc.get("last_seq").and_then(Json::as_u64);
    let items = doc
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| FetchError::Transient("replicate response missing entries".into()))?;
    let entries = items
        .iter()
        .map(LogEntry::from_json)
        .collect::<Result<Vec<LogEntry>, String>>()
        .map_err(|e| FetchError::Fatal(format!("undecodable replicate entry: {e}")))?;
    Ok(Batch {
        entries,
        leader_seq,
    })
}

/// Tails the leader's log and applies every entry to the shared engine,
/// updating `status` as it goes. Runs until `stop` is set (clean `Ok`) or
/// a fatal condition is hit: the leader refuses replication, the log is
/// corrupt, or — the serious one — an entry fails to apply, which means
/// this follower's base state diverged from the leader's and read-only
/// answers can no longer be trusted.
///
/// Transient fetch failures (leader restarting, connection drops) are
/// counted in [`ReplicationStatus::errors`] and retried after `poll`;
/// catch-up pages are fetched back-to-back without sleeping.
pub fn run_follower<B: CoverageBackend>(
    engine: Arc<Mutex<CoverageEngine<B>>>,
    source: ReplicaSource,
    status: Arc<ReplicationStatus>,
    poll: Duration,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    let mut conn: Option<TcpFetcher> = None;
    let mut cursor: Option<FileCursor> = None;
    let mut was_failing = false;
    while !stop.load(Ordering::Relaxed) {
        let from = status.applied_seq() + 1;
        let fetched = match &source {
            ReplicaSource::File(path) => fetch_file(path, from, &mut cursor),
            ReplicaSource::Tcp(addr) => fetch_tcp(&mut conn, addr, from),
        };
        status.rounds.fetch_add(1, Ordering::Relaxed);
        let batch = match fetched {
            Ok(batch) => batch,
            Err(FetchError::Fatal(message)) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, message));
            }
            Err(FetchError::Transient(message)) => {
                status.errors.fetch_add(1, Ordering::Relaxed);
                // Announce the outage once, not every poll interval.
                if !was_failing {
                    was_failing = true;
                    eprintln!(
                        "follower: replication from {} interrupted: {message} (retrying)",
                        status.source()
                    );
                }
                conn = None;
                std::thread::sleep(poll);
                continue;
            }
        };
        was_failing = false;
        if let Some(leader) = batch.leader_seq {
            status.leader_seq.store(leader, Ordering::Release);
        }
        if batch.entries.is_empty() {
            std::thread::sleep(poll);
            continue;
        }
        for entry in &batch.entries {
            if entry.seq <= status.applied_seq() {
                continue; // already applied (overlapping file re-read)
            }
            if entry.seq != status.applied_seq() + 1 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "leader log jumps from seq {} to {}; restart this follower from a \
                         fresh snapshot",
                        status.applied_seq(),
                        entry.seq
                    ),
                ));
            }
            with_engine_contained(&engine, Err, |engine| apply_entry(engine, &entry.op)).map_err(
                |e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "applying replicated seq {} failed ({}); this follower's base \
                             state diverged from the leader",
                            entry.seq, e.message
                        ),
                    )
                },
            )?;
            status.record_applied(entry.seq);
        }
        // More might be waiting (we page REPLICATE_BATCH_LIMIT at a time):
        // loop again immediately while catching up.
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplog::{read_entries_from, OpLog, SyncPolicy};
    use coverage_core::Threshold;
    use coverage_data::{Attribute, Dataset, Schema};

    fn engine() -> CoverageEngine {
        let schema = Schema::new(vec![
            Attribute::with_values("sex", ["m", "f"]).unwrap(),
            Attribute::with_values("race", ["white", "black", "asian"]).unwrap(),
        ])
        .unwrap();
        let ds =
            Dataset::from_rows(schema, &[vec![0, 0], vec![0, 1], vec![1, 0], vec![0, 0]]).unwrap();
        CoverageEngine::new(ds, Threshold::Count(1)).unwrap()
    }

    #[test]
    fn source_classification() {
        assert_eq!(
            ReplicaSource::parse("127.0.0.1:7400"),
            ReplicaSource::Tcp("127.0.0.1:7400".into())
        );
        assert_eq!(
            ReplicaSource::parse("leader.internal:7400"),
            ReplicaSource::Tcp("leader.internal:7400".into())
        );
        assert_eq!(
            ReplicaSource::parse("/tmp/leader.oplog"),
            ReplicaSource::File(PathBuf::from("/tmp/leader.oplog"))
        );
        // A relative name with no port shape is a (future) file path.
        assert_eq!(
            ReplicaSource::parse("leader.oplog"),
            ReplicaSource::File(PathBuf::from("leader.oplog"))
        );
        // An existing file wins even if its name looks like host:port.
        let dir = std::env::temp_dir().join(format!("mithra-replica-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tricky = dir.join("host:7400");
        std::fs::write(&tricky, "").unwrap();
        assert_eq!(
            ReplicaSource::parse(tricky.to_str().unwrap()),
            ReplicaSource::File(tricky.clone())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_matches_direct_application() {
        let mut live = engine();
        let mut log_path = std::env::temp_dir();
        log_path.push(format!(
            "mithra-replica-replay-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&log_path);
        let mut log = OpLog::open(&log_path, SyncPolicy::Off).unwrap();
        let ops = vec![
            LoggedOp::Insert {
                rows: vec![vec!["f".into(), "black".into()]],
            },
            LoggedOp::Grow {
                attribute: "race".into(),
                value: "hispanic".into(),
            },
            LoggedOp::Insert {
                rows: vec![vec!["m".into(), "hispanic".into()]],
            },
            LoggedOp::Delete {
                rows: vec![vec!["m".into(), "white".into()]],
            },
        ];
        for op in &ops {
            apply_entry(&mut live, op).unwrap();
            log.append(op.clone()).unwrap();
        }
        drop(log);
        let mut replayed = engine();
        let entries = read_entries_from(&log_path, 1).unwrap();
        assert_eq!(replay_entries(&mut replayed, &entries, 0).unwrap(), 4);
        assert_eq!(replayed.dataset().len(), live.dataset().len());
        assert_eq!(replayed.mups(), live.mups());
        assert_eq!(
            replayed.dataset().schema().cardinalities(),
            live.dataset().schema().cardinalities()
        );
        let _ = std::fs::remove_file(&log_path);
    }

    #[test]
    fn replay_refuses_a_gap() {
        let mut target = engine();
        let entries = vec![LogEntry {
            seq: 5,
            op: LoggedOp::Grow {
                attribute: "race".into(),
                value: "hispanic".into(),
            },
        }];
        // Anchor 0 but the log starts at 5: the snapshot predates retention.
        let err = replay_entries(&mut target, &entries, 0).unwrap_err();
        assert!(err.contains("jumps"), "{err}");
        // Anchor 4 lines up and replays.
        assert_eq!(replay_entries(&mut target, &entries, 4).unwrap(), 5);
        // Already-applied entries are skipped idempotently.
        assert_eq!(replay_entries(&mut target, &entries, 5).unwrap(), 5);
    }

    #[test]
    fn grow_replay_through_logged_insert_growth_is_deterministic() {
        // Leader in --grow-schema mode: the growth is implied by the raw
        // values of the logged insert, and replay must re-grow identically.
        let mut leader = engine();
        let op = LoggedOp::Insert {
            rows: vec![vec!["nonbinary".into(), "asian".into()]],
        };
        apply_entry(&mut leader, &op).unwrap();
        assert_eq!(leader.dataset().schema().cardinalities(), vec![3, 3]);
        let mut follower = engine();
        apply_entry(&mut follower, &op).unwrap();
        assert_eq!(follower.mups(), leader.mups());
        assert_eq!(
            follower.dataset().schema().cardinalities(),
            leader.dataset().schema().cardinalities()
        );
    }

    #[test]
    fn status_tracks_lag() {
        let status = ReplicationStatus::new("tcp://127.0.0.1:1", 10);
        assert_eq!(status.applied_seq(), 10);
        assert_eq!(status.lag(), 0);
        status.leader_seq.store(15, Ordering::Release);
        assert_eq!(status.lag(), 5);
        status.record_applied(11);
        assert_eq!(status.lag(), 4);
        assert_eq!(status.entries_applied(), 1);
    }
}
