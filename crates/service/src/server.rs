//! Request dispatch and the serving entry points: [`handle_line`] (one
//! request in, one response out), [`serve_lines`] (stdin/stdout), and
//! [`serve`] (TCP: the readiness-driven event loop in `crate::event`).
//!
//! All three run one request pipeline, the segment step in `crate::event`,
//! which funnels every request into [`dispatch`] and every accepted
//! mutation into one op-log discipline: appended in apply order, synced
//! once per segment. The pipeline borrows the engine and the op log
//! exclusively (`&mut`); the entry points that receive them shared lock
//! each once, on entry, and hold it until they return. Dispatch never
//! panics on malformed input — every request line yields exactly one
//! response line carrying the request's `id` (when it sent one). Over TCP
//! each segment runs panic-*contained*: a request that panics answers an
//! `internal` error response (after rebuilding the engine's derived state)
//! instead of killing the front end.

use std::io::{self, BufRead, Write};
use std::net::TcpListener;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use coverage_core::pattern::Pattern;
use coverage_data::Schema;
use coverage_index::CoverageBackend;

use crate::engine::CoverageEngine;
use crate::event::{
    frame_work, request_work, serve_segment, FrameDecoder, OpWork, PendingKind, READ_CHUNK_BYTES,
};
use crate::metrics::{OpClass, ServeMetrics};
use crate::oplog::{LoggedOp, OpLog, REPLICATE_BATCH_LIMIT};
use crate::protocol::{ok_head, write_json_string, ErrorCode, Request, RequestId, ServeError};
use crate::replica::{PageFeed, ReplicationStatus};
use crate::snapshot::save_snapshot_anchored;
use crate::tenant::DatasetCounters;

/// Default bound on engine-bound requests admitted per event-loop tick;
/// further requests are read on a later tick.
pub const DEFAULT_MAX_PENDING: usize = 1024;

/// Configuration for every serving front end, built fluently:
///
/// ```
/// use coverage_service::ServeOptions;
/// let options = ServeOptions::new()
///     .with_grow_schema(true)
///     .with_max_pending(64);
/// assert!(options.grow_schema());
/// ```
#[derive(Debug, Clone)]
pub struct ServeOptions {
    snapshot_path: Option<PathBuf>,
    grow_schema: bool,
    max_pending: usize,
    oplog: Option<Arc<Mutex<OpLog>>>,
    read_only: bool,
    replication: Option<Arc<ReplicationStatus>>,
    datasets: Option<Arc<Vec<Arc<DatasetCounters>>>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            snapshot_path: None,
            grow_schema: false,
            max_pending: DEFAULT_MAX_PENDING,
            oplog: None,
            read_only: false,
            replication: None,
            datasets: None,
        }
    }
}

impl ServeOptions {
    /// Options with every knob at its default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the path backing the `snapshot`/`restore` ops; without one they
    /// answer a `no_snapshot` error.
    pub fn with_snapshot_path(mut self, path: Option<PathBuf>) -> Self {
        self.snapshot_path = path;
        self
    }

    /// Auto-register unknown value strings on `insert` as new dictionary
    /// values (`mithra serve --grow-schema`) instead of rejecting the row.
    /// The explicit `grow` op works regardless of this flag.
    pub fn with_grow_schema(mut self, grow_schema: bool) -> Self {
        self.grow_schema = grow_schema;
        self
    }

    /// Bounds how many engine-bound requests the event loop admits per
    /// tick (`--max-pending`); the rest stay unread until a later tick.
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self
    }

    /// Attaches a durable op log (`mithra serve --oplog PATH`): every
    /// mutating op that the engine accepts is appended before its success
    /// response is sent, and the `replicate` op serves the retained tail.
    ///
    /// The shared `Arc<Mutex<…>>` handle is kept only for `benchmark/`,
    /// which reads the log after its server stops. [`serve`],
    /// [`serve_lines`] and [`handle_line`] lock it once, on entry, and hold
    /// the lock until they return; a [`crate::TenantSpec`] owns its log.
    pub fn with_oplog(mut self, oplog: Option<Arc<Mutex<OpLog>>>) -> Self {
        self.oplog = oplog;
        self
    }

    /// Marks this server read-only, as a follower is
    /// ([`crate::serve_follower`] sets it): `insert`/`delete`/`grow`/
    /// `restore` answer a `read_only` error.
    pub fn with_read_only(mut self, read_only: bool) -> Self {
        self.read_only = read_only;
        self
    }

    /// Attaches follower replication progress, surfaced by the `stats` op
    /// as the `"replication"` section.
    pub fn with_replication(mut self, replication: Option<Arc<ReplicationStatus>>) -> Self {
        self.replication = replication;
        self
    }

    /// Attaches the multi-dataset counter directory, surfaced by the
    /// `stats` op as `io.datasets` (set up by [`crate::serve_tenants`]).
    pub fn with_dataset_directory(
        mut self,
        datasets: Option<Arc<Vec<Arc<DatasetCounters>>>>,
    ) -> Self {
        self.datasets = datasets;
        self
    }

    /// The configured snapshot path, if any.
    pub fn snapshot_path(&self) -> Option<&Path> {
        self.snapshot_path.as_deref()
    }

    /// Whether inserts grow dictionaries on unknown values.
    pub fn grow_schema(&self) -> bool {
        self.grow_schema
    }

    /// Admission-control bound for the event front end.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Whether mutations are rejected with a `read_only` error.
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// Follower replication progress, if this server is a follower.
    pub fn replication(&self) -> Option<&Arc<ReplicationStatus>> {
        self.replication.as_ref()
    }

    /// The multi-dataset counter directory, if this server hosts several.
    pub fn dataset_directory(&self) -> Option<&Arc<Vec<Arc<DatasetCounters>>>> {
        self.datasets.as_ref()
    }

    /// Whether a shared op log is attached through [`Self::with_oplog`].
    pub(crate) fn has_shared_oplog(&self) -> bool {
        self.oplog.is_some()
    }

    /// Locks the shared op log, if one is attached: the one lock an entry
    /// point takes, held for the whole call.
    fn lock_oplog(&self) -> Option<MutexGuard<'_, OpLog>> {
        self.oplog.as_ref().map(|log| lock_once(log))
    }
}

/// Takes the one lock a shared-handle entry point holds. A lock poisoned
/// by a panic that escaped an earlier call is taken anyway: an op log only
/// advances its state after a complete write, and a served engine only
/// panics inside a contained segment, which rebuilds it.
fn lock_once<T>(shared: &Mutex<T>) -> MutexGuard<'_, T> {
    shared
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The op-log position a snapshot taken *now* must anchor to: the last
/// appended seq on a leader, the last applied seq on a follower, 0 on a
/// standalone server (anchor 0 = "replay the whole log"). A follower
/// applies pages on the thread that serves the snapshot, so the engine
/// holds exactly the entries through the anchor.
pub(crate) fn snapshot_anchor(options: &ServeOptions, oplog: Option<&OpLog>) -> u64 {
    match (oplog, options.replication()) {
        (Some(log), _) => log.last_seq(),
        (None, Some(replication)) => replication.applied_seq(),
        (None, None) => 0,
    }
}

/// The `internal` error a mutation answers when the engine applied it but
/// the op-log append failed.
pub(crate) fn append_failed_error(e: impl std::fmt::Display) -> ServeError {
    ServeError::new(
        ErrorCode::Internal,
        format!("op applied but appending to the op log failed: {e}"),
    )
}

/// The `internal` error a mutation answers when its append was skipped
/// because an earlier append in the same batch failed: appending it anyway
/// would leave a hole in the log, and follower replay of a log with holes
/// can diverge from the leader (e.g. a logged delete of rows whose insert
/// fell in the hole).
pub(crate) fn append_skipped_error(cause: &str) -> ServeError {
    ServeError::new(
        ErrorCode::Internal,
        format!("op applied but not logged: an earlier op-log append failed: {cause}"),
    )
}

/// The `internal` error a mutation answers when the engine applied it and
/// it was appended, but the fsync closing its segment failed: the entry is
/// on disk only as far as the kernel's cache is.
pub(crate) fn sync_failed_error(e: impl std::fmt::Display) -> ServeError {
    ServeError::new(
        ErrorCode::Internal,
        format!("op applied and logged, but the op-log fsync failed: {e}"),
    )
}

/// Stages one accepted mutation for the op log (no-op without one); the
/// segment step appends it before the next op runs, and revokes the
/// success response if the append fails.
fn stage_mutation(
    oplog: Option<&OpLog>,
    staged: &mut Option<LoggedOp>,
    op: impl FnOnce() -> LoggedOp,
) {
    if oplog.is_some() {
        *staged = Some(op());
    }
}

/// Flushes a `batch`-policy op log to disk (no-op without one, or under
/// `always`/`off`). Called once per segment: per tenant per event-loop
/// tick, per stdin read, per [`handle_line`] call.
pub(crate) fn sync_oplog_batch(oplog: Option<&mut OpLog>) -> io::Result<()> {
    oplog.map_or(Ok(()), OpLog::sync_batch)
}

/// The `unknown_dataset` error a single-dataset server answers when a
/// request carries `"dataset"` routing.
pub(crate) fn unknown_dataset_error(name: &str) -> ServeError {
    ServeError::new(
        ErrorCode::UnknownDataset,
        format!(
            "unknown dataset `{name}`: this server hosts a single unnamed dataset \
             (multi-dataset routing needs `mithra serve --datasets …`)"
        ),
    )
}

/// Encodes one protocol row (raw value names) into schema codes.
pub(crate) fn encode_row(schema: &Schema, raw: &[String]) -> Result<Vec<u8>, ServeError> {
    if raw.len() != schema.arity() {
        return Err(ServeError::new(
            ErrorCode::ArityMismatch,
            format!(
                "row has {} values, schema has {} attributes",
                raw.len(),
                schema.arity()
            ),
        ));
    }
    raw.iter()
        .enumerate()
        .map(|(i, v)| {
            schema
                .attribute(i)
                .code_of(v)
                .map_err(ServeError::from_data)
        })
        .collect()
}

/// Encodes protocol rows with **dictionary growth**: a value that resolves
/// against neither the dictionary nor the numeric fallback registers itself
/// as a new value on its attribute (the `--grow-schema` mode).
///
/// The whole batch is dry-run against a clone of the schema first — every
/// encoding and every growth is validated before the engine is touched —
/// so a rejected batch (bad arity, a dictionary at the cardinality
/// ceiling) registers nothing: insert stays atomic even while it grows
/// dictionaries.
pub(crate) fn encode_rows_growing<B: CoverageBackend>(
    engine: &mut CoverageEngine<B>,
    rows: &[Vec<String>],
) -> Result<Vec<Vec<u8>>, ServeError> {
    let mut schema = engine.dataset().schema().clone();
    let arity = schema.arity();
    for raw in rows {
        if raw.len() != arity {
            return Err(ServeError::new(
                ErrorCode::ArityMismatch,
                format!(
                    "row has {} values, schema has {arity} attributes",
                    raw.len()
                ),
            ));
        }
    }
    let mut growths: Vec<(usize, String)> = Vec::new();
    let mut coded = Vec::with_capacity(rows.len());
    for raw in rows {
        let mut row = Vec::with_capacity(arity);
        for (i, v) in raw.iter().enumerate() {
            let code = match schema.attribute(i).code_of(v) {
                Ok(code) => code,
                Err(_) => {
                    let code = schema.add_value(i, v).map_err(ServeError::from_data)?;
                    growths.push((i, v.clone()));
                    code
                }
            };
            row.push(code);
        }
        coded.push(row);
    }
    // Replay the validated growths on the engine: the clone started from
    // the engine's schema and accepted these exact operations in this exact
    // order, so the codes line up and none of them can fail.
    for (attribute, value) in growths {
        engine
            .grow_value(attribute, value)
            .map_err(ServeError::from_service)?;
    }
    Ok(coded)
}

/// Human-readable form of a pattern's deterministic elements, e.g.
/// `sex=f, race=black` (the CLI's decode format); `(anything)` for the root.
fn decode_pattern(schema: &Schema, pattern: &Pattern) -> String {
    let parts: Vec<String> = (0..schema.arity())
        .filter_map(|i| {
            pattern.get(i).map(|v| {
                format!(
                    "{}={}",
                    schema.attribute(i).name(),
                    schema.attribute(i).value_name(v)
                )
            })
        })
        .collect();
    if parts.is_empty() {
        "(anything)".into()
    } else {
        parts.join(", ")
    }
}

/// The success response for an `insert` of `inserted` rows leaving the
/// dataset at `rows` total. Shared by [`dispatch`] and the coalesced
/// path so a batch answers byte-for-byte like sequential requests.
pub(crate) fn insert_response(id: Option<&RequestId>, inserted: usize, rows: usize) -> String {
    let mut out = String::with_capacity(64);
    ok_head(&mut out, id);
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(",\"op\":\"insert\",\"inserted\":{inserted},\"rows\":{rows}}}"),
    );
    out
}

/// The success response for a `delete` of `deleted` rows leaving the
/// dataset at `rows` total. Shared by [`dispatch`] and the coalesced
/// path so a batch answers byte-for-byte like sequential requests.
pub(crate) fn delete_response(id: Option<&RequestId>, deleted: usize, rows: usize) -> String {
    let mut out = String::with_capacity(64);
    ok_head(&mut out, id);
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(",\"op\":\"delete\",\"deleted\":{deleted},\"rows\":{rows}}}"),
    );
    out
}

/// The `line_too_long` error answered for an oversized request line.
pub(crate) fn line_too_long_error() -> ServeError {
    ServeError::new(
        ErrorCode::LineTooLong,
        format!("request line exceeds {MAX_LINE_BYTES} bytes"),
    )
}

/// The metrics class a request's latency is recorded under.
pub(crate) fn op_class(request: &Request) -> OpClass {
    match request {
        Request::Insert { .. } => OpClass::Insert,
        Request::Delete { .. } => OpClass::Delete,
        _ => OpClass::Other,
    }
}

/// Executes one validated request against the engine, returning the full
/// response line (with `id` echoed) or a typed error. An accepted mutation
/// lands in `staged` for the caller to append — see [`stage_mutation`].
pub(crate) fn dispatch<B: CoverageBackend>(
    engine: &mut CoverageEngine<B>,
    oplog: Option<&mut OpLog>,
    options: &ServeOptions,
    id: Option<&RequestId>,
    request: Request,
    metrics: Option<&ServeMetrics>,
    staged: &mut Option<LoggedOp>,
) -> Result<String, ServeError> {
    let no_snapshot = || {
        ServeError::new(
            ErrorCode::NoSnapshot,
            "no snapshot path configured (start with `mithra serve … --snapshot PATH`)",
        )
    };
    if options.read_only
        && matches!(
            request,
            Request::Insert { .. }
                | Request::Delete { .. }
                | Request::Grow { .. }
                | Request::Restore
        )
    {
        return Err(ServeError::new(
            ErrorCode::ReadOnly,
            "this server is a read-only follower; send mutations to the leader",
        ));
    }
    let mut out = String::with_capacity(128);
    ok_head(&mut out, id);
    match request {
        Request::Insert { rows } => {
            let coded: Vec<Vec<u8>> = if options.grow_schema {
                encode_rows_growing(engine, &rows)?
            } else {
                rows.iter()
                    .map(|r| encode_row(engine.dataset().schema(), r))
                    .collect::<Result<_, _>>()?
            };
            engine
                .insert_batch(&coded)
                .map_err(ServeError::from_service)?;
            stage_mutation(oplog.as_deref(), staged, || LoggedOp::Insert { rows });
            return Ok(insert_response(id, coded.len(), engine.dataset().len()));
        }
        Request::Delete { rows } => {
            let coded: Vec<Vec<u8>> = rows
                .iter()
                .map(|r| encode_row(engine.dataset().schema(), r))
                .collect::<Result<_, _>>()?;
            engine
                .remove_batch(&coded)
                .map_err(ServeError::from_service)?;
            stage_mutation(oplog.as_deref(), staged, || LoggedOp::Delete { rows });
            return Ok(delete_response(id, coded.len(), engine.dataset().len()));
        }
        Request::Grow { attribute, value } => {
            let index = engine
                .dataset()
                .schema()
                .index_of(&attribute)
                .map_err(ServeError::from_data)?;
            let code = engine
                .grow_value(index, &value)
                .map_err(ServeError::from_service)?;
            stage_mutation(oplog.as_deref(), staged, || LoggedOp::Grow {
                attribute: attribute.clone(),
                value: value.clone(),
            });
            out.push_str(",\"op\":\"grow\",\"attribute\":");
            write_json_string(&mut out, &attribute);
            out.push_str(",\"value\":");
            write_json_string(&mut out, &value);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"code\":{code},\"cardinality\":{},\"mups\":{}}}",
                    engine.dataset().schema().cardinality(index),
                    engine.mups().len()
                ),
            );
        }
        Request::Snapshot => {
            let path = options.snapshot_path().ok_or_else(no_snapshot)?;
            // The snapshot anchors the op-log position it captured; on a
            // leader the log is then truncated through that anchor —
            // recovery restores the snapshot and replays only the tail.
            let anchor = snapshot_anchor(options, oplog.as_deref());
            save_snapshot_anchored(engine, path, anchor).map_err(ServeError::from_service)?;
            if let Some(log) = oplog {
                log.truncate_through(anchor).map_err(|e| {
                    ServeError::new(
                        ErrorCode::Internal,
                        format!("snapshot saved but truncating the op log failed: {e}"),
                    )
                })?;
            }
            out.push_str(",\"op\":\"snapshot\",\"path\":");
            write_json_string(&mut out, &path.display().to_string());
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"rows\":{},\"mups\":{},\"oplog_seq\":{anchor}}}",
                    engine.dataset().len(),
                    engine.mups().len()
                ),
            );
        }
        Request::Restore => {
            let path = options.snapshot_path().ok_or_else(no_snapshot)?;
            if oplog.is_some() {
                return Err(ServeError::new(
                    ErrorCode::BadRequest,
                    "restore is not supported while an op log is enabled (it would desync \
                     followers); restart the server to recover from the snapshot + log",
                ));
            }
            let restored =
                crate::snapshot::load_snapshot(path).map_err(ServeError::from_service)?;
            // The op restores *data*, not deployment config: clients
            // mid-conversation have been quoting τ from the serving config; a snapshot
            // carrying a different threshold must be an explicit restart,
            // not a silent semantic change.
            if restored.threshold() != engine.threshold() {
                return Err(ServeError::new(
                    ErrorCode::ThresholdMismatch,
                    format!(
                        "snapshot threshold {:?} differs from the serving threshold {:?}; \
                         restart the server to change thresholds",
                        restored.threshold(),
                        engine.threshold()
                    ),
                ));
            }
            *engine = restored;
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"op\":\"restore\",\"rows\":{},\"tau\":{},\"mups\":{}}}",
                    engine.dataset().len(),
                    engine.tau(),
                    engine.mups().len()
                ),
            );
        }
        Request::Mups { limit } => {
            let total = engine.mups().len();
            let shown = limit.unwrap_or(total).min(total);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"op\":\"mups\",\"count\":{},\"tau\":{},\"mups\":[",
                    total,
                    engine.tau()
                ),
            );
            for (i, mup) in engine.mups().iter().take(shown).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, &mup.to_string());
            }
            out.push_str("],\"decoded\":[");
            let schema = engine.dataset().schema();
            for (i, mup) in engine.mups().iter().take(shown).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, &decode_pattern(schema, mup));
            }
            out.push_str("]}");
        }
        Request::Coverage { pattern } => {
            let p = Pattern::parse(&pattern)
                .map_err(|e| ServeError::new(ErrorCode::BadPattern, e.to_string()))?;
            // A structurally-valid pattern that doesn't fit the schema
            // (wrong arity, out-of-range code) is still a *pattern*
            // problem on this op, not a generic bad request.
            let coverage = engine.coverage(p.codes()).map_err(|e| match e {
                crate::ServiceError::BadRequest(msg) => ServeError::new(ErrorCode::BadPattern, msg),
                other => ServeError::from_service(other),
            })?;
            let covered = coverage >= engine.tau();
            out.push_str(",\"op\":\"coverage\",\"pattern\":");
            write_json_string(&mut out, &pattern);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"coverage\":{coverage},\"covered\":{covered},\"tau\":{}}}",
                    engine.tau()
                ),
            );
        }
        Request::Enhance { lambda } => {
            let (plan, copies) = engine.enhance(lambda).map_err(ServeError::from_service)?;
            let schema = engine.dataset().schema();
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"op\":\"enhance\",\"lambda\":{lambda},\"targets\":{},\"collect\":[",
                    plan.input_size()
                ),
            );
            for (i, (combo, n)) in plan.combinations.iter().zip(&copies).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"values\":[");
                for (j, &v) in combo.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    write_json_string(&mut out, &schema.attribute(j).value_name(v));
                }
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("],\"copies\":{n}}}"));
            }
            out.push_str("]}");
        }
        Request::Replicate { from_seq } => {
            let Some(log) = oplog else {
                return Err(ServeError::new(
                    ErrorCode::BadRequest,
                    "this server has no op log to replicate from (start the leader with \
                     `mithra serve … --oplog PATH`)",
                ));
            };
            // Seqs start at 1; `from:0` means "from the beginning".
            let from = from_seq.max(1);
            let last_seq = log.last_seq();
            let page = log
                .entries_from(from, REPLICATE_BATCH_LIMIT)
                .map_err(|oldest| {
                    ServeError::new(
                        ErrorCode::BadRequest,
                        format!(
                            "seq {from} predates the retained op log (oldest retained is \
                         {oldest}); restart the follower from a fresh snapshot"
                        ),
                    )
                })?;
            let lines = page.read_lines().map_err(|e| {
                ServeError::new(
                    ErrorCode::Internal,
                    format!("reading the op log failed: {e}"),
                )
            })?;
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"op\":\"replicate\",\"from\":{from},\"last_seq\":{last_seq},\"count\":{},\
                     \"entries\":[",
                    page.len(),
                ),
            );
            // The lines are the bytes `LogEntry::to_line` wrote: splice
            // them in verbatim.
            for (i, line) in lines.lines().filter(|l| !l.is_empty()).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(line);
            }
            let next = from + page.len() as u64;
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("],\"next\":{next}}}"));
        }
        Request::Stats => {
            let report = engine.report();
            let stats = engine.stats();
            let (cache_len, cache_cap, hits, misses, invalidated) = engine.cache_stats();
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    concat!(
                        ",\"op\":\"stats\",\"rows\":{},\"attributes\":{},",
                        "\"tau\":{},\"mups\":{},\"max_covered_level\":{},",
                        "\"inserts\":{},\"batches\":{},\"deletes\":{},\"delete_batches\":{},",
                        "\"mups_retired\":{},\"mups_discovered\":{},\"full_recomputes\":{},",
                        "\"cache\":{{\"len\":{},\"capacity\":{},\"hits\":{},\"misses\":{},",
                        "\"invalidated\":{}}},\"dictionaries\":["
                    ),
                    engine.dataset().len(),
                    engine.dataset().arity(),
                    engine.tau(),
                    report.mup_count(),
                    report.maximum_covered_level(),
                    stats.inserts,
                    stats.batches,
                    stats.deletes,
                    stats.delete_batches,
                    stats.mups_retired,
                    stats.mups_discovered,
                    stats.full_recomputes,
                    cache_len,
                    cache_cap,
                    hits,
                    misses,
                    invalidated,
                ),
            );
            // Per-attribute dictionary sizes plus how much of each is growth
            // since load — the signal that the served schema has drifted
            // from the CSV's.
            let schema = engine.dataset().schema();
            for (i, (attr, grown)) in schema
                .attributes()
                .iter()
                .zip(engine.dictionary_growth())
                .enumerate()
            {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                write_json_string(&mut out, attr.name());
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!(
                        ",\"cardinality\":{},\"grown\":{grown}}}",
                        attr.cardinality()
                    ),
                );
            }
            out.push(']');
            // Backend memory: index bytes and bytes/row, plus the
            // intersection-kernel code path the host runs.
            let memory = engine.oracle().memory_stats();
            let rows = engine.dataset().len();
            let bytes_per_row = if rows == 0 {
                0.0
            } else {
                memory.bytes as f64 / rows as f64
            };
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    concat!(
                        ",\"backend\":{{\"name\":\"{}\",\"bytes\":{},",
                        "\"bytes_per_row\":{:.3},\"kernels\":"
                    ),
                    engine.oracle().backend_name(),
                    memory.bytes,
                    bytes_per_row,
                ),
            );
            write_json_string(&mut out, coverage_index::kernel_features());
            out.push('}');
            // The TCP front end appends its I/O counters + latency
            // histograms; stdin and `handle_line` have none to report.
            if let Some(metrics) = metrics {
                out.push_str(",\"io\":");
                metrics.write_json_fields(&mut out);
                if let Some(datasets) = options.dataset_directory() {
                    out.push_str(",\"datasets\":[");
                    for (i, counters) in datasets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"name\":");
                        write_json_string(&mut out, counters.name());
                        let _ = std::fmt::Write::write_fmt(
                            &mut out,
                            format_args!(",\"requests\":{}}}", counters.requests()),
                        );
                    }
                    out.push(']');
                }
                out.push('}');
            }
            write_replication_section(options, oplog.as_deref(), &mut out);
            out.push('}');
        }
    }
    Ok(out)
}

/// Appends the `stats` response's `"replication"` section: op-log position
/// and durability counters on a leader, applied/leader seqs and lag on a
/// follower. Standalone servers (neither) emit nothing.
fn write_replication_section(options: &ServeOptions, oplog: Option<&OpLog>, out: &mut String) {
    use std::fmt::Write as _;
    if let Some(log) = oplog {
        let _ = write!(
            out,
            ",\"replication\":{{\"role\":\"leader\",\"last_seq\":{},\"retained\":{},\
             \"retained_bytes\":{},\"appends\":{},\"fsyncs\":{},\"sync\":\"{}\"}}",
            log.last_seq(),
            log.len(),
            log.retained_bytes(),
            log.appends(),
            log.fsyncs(),
            log.sync_policy().as_str(),
        );
    } else if let Some(status) = options.replication() {
        let applied = status.applied_seq();
        let leader = status.leader_seq();
        out.push_str(",\"replication\":{\"role\":\"follower\",\"source\":");
        write_json_string(out, status.source());
        let _ = write!(
            out,
            ",\"applied_seq\":{applied},\"leader_seq\":{leader},\"lag\":{},\
             \"entries_applied\":{},\"rounds\":{},\"errors\":{}}}",
            leader.saturating_sub(applied),
            status.entries_applied(),
            status.rounds(),
            status.errors(),
        );
    }
}

/// Handles one request line under the given [`ServeOptions`], returning
/// exactly one response line (without the trailing newline). Never panics
/// on malformed input. The request is a one-request segment of the serving
/// pipeline, op-log append and sync included, so the stdin and TCP front
/// ends answer identically to it (TCP `stats` adds an `"io"` section).
///
/// The signature is kept only for `benchmark/`: the op log comes shared
/// inside `options`, and is locked once for the call.
pub fn handle_line<B: CoverageBackend>(
    engine: &mut CoverageEngine<B>,
    options: &ServeOptions,
    line: &str,
) -> String {
    let mut oplog = options.lock_oplog();
    match request_work(line, &[None]) {
        PendingKind::Ready(response) => response,
        PendingKind::Op {
            tenant,
            id,
            request,
        } => {
            let mut slots = [None];
            let op = OpWork {
                slot: 0,
                tenant,
                id,
                request,
            };
            serve_segment(
                engine,
                oplog.as_deref_mut(),
                options,
                None,
                [op],
                &mut slots,
            );
            let [response] = slots;
            response.unwrap_or_default()
        }
    }
}

/// Upper bound on one request line. Longer lines answer an error response
/// and are discarded up to the next newline — without this cap a single
/// newline-free stream would buffer unboundedly and OOM the whole server.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Serves newline-delimited requests from `input` to `output` until EOF
/// (the `mithra serve` stdin/stdout mode) under the given [`ServeOptions`].
/// Blank lines are skipped. Each read of `input` is one segment of the
/// serving pipeline: its complete lines are served together (consecutive
/// inserts or deletes coalesce into one engine batch), the op log is synced
/// once, and then the read's responses are written and flushed.
///
/// The signature is kept only for `benchmark/`: the op log comes shared
/// inside `options`, and is locked once, until EOF.
pub fn serve_lines<B: CoverageBackend>(
    engine: &mut CoverageEngine<B>,
    options: &ServeOptions,
    mut input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    let mut oplog = options.lock_oplog();
    let mut decoder = FrameDecoder::default();
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let read = chunk.len();
        let mut slots: Vec<Option<String>> = Vec::new();
        let mut ops = Vec::new();
        let mut queue = |frame| match frame_work(frame, &[None]) {
            Some(PendingKind::Op {
                tenant,
                id,
                request,
            }) => {
                ops.push(OpWork {
                    slot: slots.len(),
                    tenant,
                    id,
                    request,
                });
                slots.push(None);
            }
            Some(PendingKind::Ready(response)) => slots.push(Some(response)),
            None => {}
        };
        // Decode piece by piece, as the event loop does: the decoder's
        // buffer stays within one line plus one piece, however much one
        // read returned.
        for piece in chunk.chunks(READ_CHUNK_BYTES) {
            decoder.push(piece);
            while let Some(frame) = decoder.next_frame() {
                queue(frame);
            }
        }
        input.consume(read);
        // EOF: an unterminated last line is served too.
        if read == 0 {
            if let Some(frame) = decoder.finish() {
                queue(frame);
            }
        }
        serve_segment(engine, oplog.as_deref_mut(), options, None, ops, &mut slots);
        for response in slots.iter().flatten() {
            writeln!(output, "{response}")?;
        }
        output.flush()?;
        if read == 0 {
            return Ok(());
        }
    }
}

/// How long a TCP connection may sit idle between requests before the
/// event loop closes it, shedding a dead client's buffers and descriptor.
pub const IDLE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(300);

/// Runs `action` against the engine with panics **contained**: a panic
/// inside `action` unwinds no further than this call, which rebuilds the
/// engine's oracle, MUPs and cache from its dataset
/// ([`CoverageEngine::rebuild`]; the panic may have torn a mid-update
/// invariant) and answers `on_failure` with an `internal` error. The
/// failure stays scoped to one segment instead of taking the front end
/// down.
///
/// Generic over the result so the event loop can run a whole segment under
/// one containment scope: `on_failure` turns the failure into whatever
/// `action` would have produced.
pub(crate) fn with_engine_contained<B: CoverageBackend, T>(
    engine: &mut CoverageEngine<B>,
    on_failure: impl FnOnce(ServeError) -> T,
    action: impl FnOnce(&mut CoverageEngine<B>) -> T,
) -> T {
    match std::panic::catch_unwind(AssertUnwindSafe(|| action(&mut *engine))) {
        Ok(result) => result,
        Err(_) => on_failure(ServeError::new(
            ErrorCode::Internal,
            match engine.rebuild() {
                Ok(()) => "internal error: request handler panicked; engine rebuilt".into(),
                Err(e) => format!("engine rebuild after panic failed: {e}"),
            },
        )),
    }
}

/// Serves the protocol over TCP until the listener or poller fails, on the
/// readiness-driven event loop (see `crate::event`).
///
/// The signature is kept only for `benchmark/`, which takes the engine
/// back after the server stops (the CLI's single-dataset leader and the
/// load generator hand over a handle no one else holds). The engine, and
/// the op log attached through [`ServeOptions::with_oplog`], are locked
/// once, on entry, and stay locked until this returns: reading either
/// while the server runs blocks until it stops.
pub fn serve<B: CoverageBackend>(
    engine: Arc<Mutex<CoverageEngine<B>>>,
    options: ServeOptions,
    listener: TcpListener,
) -> io::Result<()> {
    let mut engine = lock_once(&engine);
    let mut oplog = options.lock_oplog();
    let tenant = crate::event::EventTenant {
        name: None,
        engine: &mut engine,
        oplog: oplog.as_deref_mut(),
        options: ServeOptions {
            oplog: None,
            ..options.clone()
        },
        counters: None,
    };
    crate::event::serve_event_tenants(vec![tenant], None, listener)
}

/// Serves a read-only follower over TCP: the engine answers reads while
/// the event loop applies the pages a [`crate::run_follower`] fetcher
/// sends through `pages`, between ticks. `stats` reports the replication
/// progress the channel carries, and mutations answer `read_only`.
/// Returns `Err` when a page fails to apply, since this replica's state
/// then diverged from its leader's, or when the listener or poller fails.
pub fn serve_follower<B: CoverageBackend>(
    mut engine: CoverageEngine<B>,
    pages: PageFeed,
    options: ServeOptions,
    listener: TcpListener,
) -> io::Result<()> {
    let options = options
        .with_read_only(true)
        .with_replication(Some(Arc::clone(pages.status())));
    let tenant = crate::event::EventTenant {
        name: None,
        engine: &mut engine,
        oplog: None,
        options,
        counters: None,
    };
    crate::event::serve_event_tenants(vec![tenant], Some(pages), listener)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{error_response, Json};
    use coverage_core::Threshold;
    use coverage_data::{Attribute, Dataset};
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::thread;

    /// A dictionary-carrying dataset: sex ∈ {m,f}, race ∈ {white,black,asian}.
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

    fn plain(engine: &mut CoverageEngine, line: &str) -> String {
        handle_line(engine, &ServeOptions::default(), line)
    }

    fn ok<B: CoverageBackend>(engine: &mut CoverageEngine<B>, line: &str) -> Json {
        let response = handle_line(engine, &ServeOptions::default(), line);
        let doc = Json::parse(&response).expect("response is valid JSON");
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "request `{line}` failed: {response}"
        );
        doc
    }

    #[test]
    fn insert_by_value_name_and_by_code() {
        let mut engine = engine();
        // MUPs at start: f|black (11), X|asian (X2) per τ=1.
        let doc = ok(&mut engine, r#"{"op":"insert","row":["f","black"]}"#);
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(5));
        // Numeric codes also work ("1" = f, "2" = asian).
        let doc = ok(
            &mut engine,
            r#"{"op":"insert","rows":[["1","2"],["m","asian"]]}"#,
        );
        assert_eq!(doc.get("inserted").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn responses_echo_request_ids() {
        let mut engine = engine();
        let response = plain(&mut engine, r#"{"op":"insert","id":7,"row":["f","black"]}"#);
        assert_eq!(
            response,
            "{\"ok\":true,\"id\":7,\"op\":\"insert\",\"inserted\":1,\"rows\":5}"
        );
        let response = plain(&mut engine, r#"{"id":"q-1","op":"mups","limit":0}"#);
        assert!(
            response.starts_with("{\"ok\":true,\"id\":\"q-1\","),
            "{response}"
        );
        // Errors echo the id too, with a machine code.
        let response = plain(&mut engine, r#"{"op":"coverage","id":3,"pattern":"9X"}"#);
        assert!(
            response.starts_with("{\"ok\":false,\"id\":3,\"code\":\""),
            "{response}"
        );
        // Legacy id-less requests answer exactly as before (no id field).
        let response = plain(&mut engine, r#"{"op":"mups","limit":0}"#);
        assert!(!response.contains("\"id\""), "{response}");
    }

    /// The responses to real requests that answer `code` (one per path that
    /// reaches it), served under the options its failure needs; `scratch`
    /// holds the files a case writes. The match has no wildcard arm, so a
    /// new code does not compile until it has a case here.
    fn produce(code: ErrorCode, scratch: &std::path::Path) -> Vec<String> {
        let mut engine = engine();
        let default = ServeOptions::default;
        let snapshot_at = |path| ServeOptions::new().with_snapshot_path(Some(path));
        let insert = r#"{"op":"insert","row":["f","white"]}"#;
        let (options, lines) = match code {
            ErrorCode::Parse => (default(), vec!["nonsense"]),
            ErrorCode::LineTooLong => {
                let line = format!("{}\n", "x".repeat(MAX_LINE_BYTES + 1));
                let mut output = Vec::new();
                serve_lines(&mut engine, &default(), line.as_bytes(), &mut output).unwrap();
                return vec![String::from_utf8(output).unwrap()];
            }
            ErrorCode::UnknownOp => (default(), vec![r#"{"op":"frobnicate"}"#]),
            ErrorCode::BadRequest => (default(), vec![r#"{"op":"enhance","lambda":9}"#]),
            ErrorCode::ArityMismatch => (default(), vec![r#"{"op":"insert","row":["f"]}"#]),
            ErrorCode::UnknownValue => {
                (default(), vec![r#"{"op":"insert","row":["f","martian"]}"#])
            }
            ErrorCode::UnknownAttribute => (
                default(),
                vec![r#"{"op":"grow","attr":"height","value":"tall"}"#],
            ),
            ErrorCode::DuplicateValue => (
                default(),
                vec![r#"{"op":"grow","attr":"race","value":"white"}"#],
            ),
            // `=Y` fails `Pattern::parse`; `XXX` parses but does not fit the
            // two-attribute schema.
            ErrorCode::BadPattern => (
                default(),
                vec![
                    r#"{"op":"coverage","pattern":"=Y"}"#,
                    r#"{"op":"coverage","pattern":"XXX"}"#,
                ],
            ),
            ErrorCode::RowNotFound => (
                default(),
                vec![r#"{"op":"delete","rows":[["f","white"],["f","white"]]}"#],
            ),
            ErrorCode::NoSnapshot => (default(), vec![r#"{"op":"snapshot"}"#]),
            ErrorCode::SnapshotIo => (
                snapshot_at(scratch.join("no-such-dir").join("engine.snapshot")),
                vec![r#"{"op":"snapshot"}"#],
            ),
            ErrorCode::ThresholdMismatch => {
                let path = scratch.join("tau2.snapshot");
                let dataset = engine.dataset().clone();
                let tau2 = CoverageEngine::new(dataset, Threshold::Count(2)).unwrap();
                crate::snapshot::save_snapshot(&tau2, &path).unwrap();
                (snapshot_at(path), vec![r#"{"op":"restore"}"#])
            }
            ErrorCode::ReadOnly => (ServeOptions::new().with_read_only(true), vec![insert]),
            ErrorCode::UnknownDataset => (default(), vec![r#"{"op":"stats","dataset":"hr"}"#]),
            ErrorCode::Internal => {
                let log = OpLog::open(&scratch.join("failing.oplog"), crate::SyncPolicy::Batch);
                let mut log = log.unwrap();
                log.fail_appends_from(1);
                let log = Some(Arc::new(Mutex::new(log)));
                (ServeOptions::new().with_oplog(log), vec![insert])
            }
        };
        lines
            .into_iter()
            .map(|line| handle_line(&mut engine, &options, line))
            .collect()
    }

    #[test]
    fn every_error_code_is_produced_by_a_real_request() {
        let scratch =
            std::env::temp_dir().join(format!("mithra-error-codes-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        for code in ErrorCode::ALL {
            for response in produce(code, &scratch) {
                let doc = Json::parse(response.trim_end()).expect("error response is valid JSON");
                assert_eq!(
                    doc.get("ok").and_then(Json::as_bool),
                    Some(false),
                    "{response}"
                );
                assert_eq!(
                    doc.get("code").and_then(Json::as_str),
                    Some(code.as_str()),
                    "{response}"
                );
            }
        }
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn mups_lists_and_limits() {
        let mut engine = engine();
        let doc = ok(&mut engine, r#"{"op":"mups"}"#);
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("mups").unwrap().as_array().unwrap().len(), 2);
        let doc = ok(&mut engine, r#"{"op":"mups","limit":1}"#);
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("mups").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn mups_decode_to_value_names() {
        let mut engine = engine();
        let doc = ok(&mut engine, r#"{"op":"mups"}"#);
        let decoded: Vec<&str> = doc
            .get("decoded")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(decoded, vec!["sex=f, race=black", "race=asian"]);
    }

    #[test]
    fn coverage_roundtrip() {
        let mut engine = engine();
        let doc = ok(&mut engine, r#"{"op":"coverage","pattern":"0X"}"#);
        assert_eq!(doc.get("coverage").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("covered").and_then(Json::as_bool), Some(true));
        let doc = ok(&mut engine, r#"{"op":"coverage","pattern":"12"}"#);
        assert_eq!(doc.get("coverage").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("covered").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn enhance_decodes_value_names() {
        let mut engine = engine();
        let doc = ok(&mut engine, r#"{"op":"enhance","lambda":2}"#);
        let collect = doc.get("collect").unwrap().as_array().unwrap();
        assert!(!collect.is_empty());
        for item in collect {
            let values = item.get("values").unwrap().as_array().unwrap();
            assert_eq!(values.len(), 2);
            assert!(item.get("copies").and_then(Json::as_u64).is_some());
        }
    }

    #[test]
    fn stats_reports_counters() {
        let mut engine = engine();
        let _ = ok(&mut engine, r#"{"op":"insert","row":["f","black"]}"#);
        let doc = ok(&mut engine, r#"{"op":"stats"}"#);
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(5));
        assert_eq!(doc.get("attributes").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("inserts").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("deletes").and_then(Json::as_u64), Some(0));
        assert!(doc.get("cache").unwrap().get("capacity").is_some());
        assert!(
            doc.get("cache").unwrap().get("invalidated").is_some(),
            "invalidation churn must be visible to operators"
        );
        // `handle_line` and stdin have no I/O metrics; the section appears
        // only over TCP.
        assert!(doc.get("io").is_none());
        let backend = doc.get("backend").expect("stats must report backend");
        assert_eq!(backend.get("name").and_then(Json::as_str), Some("dense"));
        assert!(backend.get("bytes").and_then(Json::as_u64).unwrap() > 0);
        assert!(backend.get("bytes_per_row").is_some());
        assert!(backend.get("kernels").and_then(Json::as_str).is_some());
    }

    #[test]
    fn stats_report_the_oracles_memory_with_its_lattice() {
        let ds = coverage_data::generators::airbnb_like(500, 4, 3).unwrap();
        let mut engine = CoverageEngine::new(ds, Threshold::Count(1)).unwrap();
        assert!(engine.oracle().has_lattice());
        let expected = coverage_index::CoverageProvider::memory_stats(engine.oracle()).bytes;
        assert!(expected > engine.oracle().memory_bytes(), "lattice counted");
        let doc = ok(&mut engine, r#"{"op":"stats"}"#);
        let backend = doc.get("backend").unwrap();
        assert_eq!(backend.get("bytes").and_then(Json::as_u64), Some(expected));
        let per_row = backend.get("bytes_per_row").and_then(Json::as_f64).unwrap();
        assert!(
            (per_row - expected as f64 / 500.0).abs() < 1e-3,
            "{per_row}"
        );
    }

    #[test]
    fn stats_io_section_appears_with_metrics() {
        let mut engine = engine();
        let metrics = ServeMetrics::default();
        metrics.record(OpClass::Insert, 1_000);
        let response = dispatch(
            &mut engine,
            None,
            &ServeOptions::default(),
            None,
            Request::Stats,
            Some(&metrics),
            &mut None,
        )
        .unwrap();
        let doc = Json::parse(&response).unwrap();
        let io = doc.get("io").expect("io section present");
        assert_eq!(io.get("requests").and_then(Json::as_u64), Some(1));
        assert!(io.get("latency_ns").unwrap().get("insert").is_some());
    }

    #[test]
    fn grow_op_registers_a_value_and_mints_its_mup() {
        let mut engine = engine();
        let doc = ok(
            &mut engine,
            r#"{"op":"grow","attr":"race","value":"hispanic"}"#,
        );
        assert_eq!(doc.get("code").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("cardinality").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("attribute").and_then(Json::as_str), Some("race"));
        // The zero-coverage level-1 pattern joined the frontier…
        let doc = ok(&mut engine, r#"{"op":"coverage","pattern":"X3"}"#);
        assert_eq!(doc.get("coverage").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("covered").and_then(Json::as_bool), Some(false));
        // …and inserting the value by name retires it.
        let doc = ok(&mut engine, r#"{"op":"insert","row":["m","hispanic"]}"#);
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(5));
        let doc = ok(&mut engine, r#"{"op":"coverage","pattern":"X3"}"#);
        assert_eq!(doc.get("covered").and_then(Json::as_bool), Some(true));
        // Unknown attributes and duplicate values answer errors.
        for line in [
            r#"{"op":"grow","attr":"height","value":"tall"}"#,
            r#"{"op":"grow","attr":"race","value":"hispanic"}"#,
        ] {
            let response = plain(&mut engine, line);
            assert!(response.contains("\"ok\":false"), "{response}");
        }
    }

    #[test]
    fn grow_schema_mode_auto_registers_unknown_values() {
        let mut engine = engine();
        let options = ServeOptions::new().with_grow_schema(true);
        // Without the flag the unseen value is rejected (the original bug's
        // guard behavior, still the default)…
        let strict = plain(&mut engine, r#"{"op":"insert","row":["f","hispanic"]}"#);
        assert!(strict.contains("\"ok\":false"), "{strict}");
        // …with it, the insert grows the dictionary and lands the row.
        let response = handle_line(
            &mut engine,
            &options,
            r#"{"op":"insert","rows":[["f","hispanic"],["nonbinary","hispanic"]]}"#,
        );
        let doc = Json::parse(&response).unwrap();
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        assert_eq!(doc.get("inserted").and_then(Json::as_u64), Some(2));
        let schema_cards = engine.dataset().schema().cardinalities();
        assert_eq!(schema_cards, vec![3, 4], "both dictionaries grew");
        assert_eq!(engine.dictionary_growth(), &[1, 1]);
        assert_eq!(engine.coverage(&[2, 3]).unwrap(), 1);
        // Arity is validated before any growth: a malformed batch with a
        // fresh value must not register it.
        let response = handle_line(
            &mut engine,
            &options,
            r#"{"op":"insert","rows":[["f","martian","extra"]]}"#,
        );
        assert!(response.contains("\"ok\":false"), "{response}");
        assert_eq!(engine.dataset().schema().cardinalities(), vec![3, 4]);
    }

    #[test]
    fn grow_schema_batches_are_atomic_under_growth_failure() {
        use coverage_data::MAX_CARDINALITY;
        // An attribute one value short of the ceiling: the first row's new
        // value fits, the second's does not — the whole batch must be
        // rejected with nothing registered and no MUP minted.
        let schema = Schema::new(vec![coverage_data::Attribute::new(
            "big",
            MAX_CARDINALITY - 1,
        )
        .unwrap()])
        .unwrap();
        let ds = Dataset::from_rows(schema, &[vec![0]]).unwrap();
        let mut engine = CoverageEngine::new(ds, Threshold::Count(1)).unwrap();
        let options = ServeOptions::new().with_grow_schema(true);
        let mups_before = engine.mups().len();
        let response = handle_line(
            &mut engine,
            &options,
            r#"{"op":"insert","rows":[["newA"],["newB"]]}"#,
        );
        assert!(response.contains("\"ok\":false"), "{response}");
        assert_eq!(
            engine.dataset().schema().cardinality(0) as usize,
            MAX_CARDINALITY - 1,
            "failed batch must not grow the dictionary"
        );
        assert_eq!(engine.dictionary_growth(), &[0]);
        assert_eq!(engine.mups().len(), mups_before);
        assert_eq!(engine.dataset().len(), 1);
        // A batch that fits entirely still grows and inserts.
        let response = handle_line(
            &mut engine,
            &options,
            r#"{"op":"insert","rows":[["newA"],["newA"]]}"#,
        );
        assert!(response.contains("\"ok\":true"), "{response}");
        assert_eq!(engine.dictionary_growth(), &[1]);
        assert_eq!(engine.dataset().len(), 3);
    }

    #[test]
    fn stats_report_per_attribute_dictionaries() {
        let mut engine = engine();
        let _ = ok(&mut engine, r#"{"op":"grow","attr":"sex","value":"x"}"#);
        let doc = ok(&mut engine, r#"{"op":"stats"}"#);
        let dicts = doc
            .get("dictionaries")
            .expect("stats must report dictionaries")
            .as_array()
            .unwrap();
        assert_eq!(dicts.len(), 2);
        assert_eq!(dicts[0].get("name").and_then(Json::as_str), Some("sex"));
        assert_eq!(dicts[0].get("cardinality").and_then(Json::as_u64), Some(3));
        assert_eq!(dicts[0].get("grown").and_then(Json::as_u64), Some(1));
        assert_eq!(dicts[1].get("name").and_then(Json::as_str), Some("race"));
        assert_eq!(dicts[1].get("cardinality").and_then(Json::as_u64), Some(3));
        assert_eq!(dicts[1].get("grown").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn delete_op_removes_rows_and_reports() {
        let mut engine = engine();
        let doc = ok(&mut engine, r#"{"op":"delete","row":["m","white"]}"#);
        assert_eq!(doc.get("deleted").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(3));
        // Numeric codes work, as for insert.
        let doc = ok(
            &mut engine,
            r#"{"op":"delete","rows":[["0","1"],["0","0"]]}"#,
        );
        assert_eq!(doc.get("deleted").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(1));
        // Deleting more copies than exist is rejected atomically.
        let response = plain(
            &mut engine,
            r#"{"op":"delete","rows":[["f","white"],["f","white"]]}"#,
        );
        assert!(response.contains("\"ok\":false"), "{response}");
        assert!(response.contains("only 1 present"), "{response}");
        assert!(
            response.contains("\"code\":\"row_not_found\""),
            "{response}"
        );
        let doc = ok(&mut engine, r#"{"op":"stats"}"#);
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("deletes").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("delete_batches").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn insert_then_delete_round_trips_the_mup_set() {
        let mut engine = engine();
        let before = ok(&mut engine, r#"{"op":"mups"}"#);
        let _ = ok(&mut engine, r#"{"op":"insert","row":["f","black"]}"#);
        let _ = ok(&mut engine, r#"{"op":"delete","row":["f","black"]}"#);
        let after = ok(&mut engine, r#"{"op":"mups"}"#);
        assert_eq!(
            before.get("mups").unwrap().as_array().unwrap(),
            after.get("mups").unwrap().as_array().unwrap()
        );
    }

    #[test]
    fn snapshot_and_restore_round_trip_through_the_protocol() {
        let dir = std::env::temp_dir().join(format!("mithra-serve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snapshot");
        let options = ServeOptions::new().with_snapshot_path(Some(path.clone()));
        let mut engine = engine();
        let _ = handle_line(
            &mut engine,
            &options,
            r#"{"op":"insert","row":["f","black"]}"#,
        );
        let mups_line = handle_line(&mut engine, &options, r#"{"op":"mups"}"#);
        let doc = Json::parse(&handle_line(&mut engine, &options, r#"{"op":"snapshot"}"#)).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(5));

        // Wreck the live state, then restore: responses must match exactly.
        let _ = handle_line(
            &mut engine,
            &options,
            r#"{"op":"insert","rows":[["m","asian"],["m","asian"]]}"#,
        );
        let doc = Json::parse(&handle_line(&mut engine, &options, r#"{"op":"restore"}"#)).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(5));
        assert_eq!(
            handle_line(&mut engine, &options, r#"{"op":"mups"}"#),
            mups_line,
            "restored engine must serve identical mups responses"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_rejects_a_threshold_change_mid_flight() {
        let dir =
            std::env::temp_dir().join(format!("mithra-restore-threshold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snapshot");
        // Snapshot taken at τ=2…
        let ds = engine().dataset().clone();
        let tau2 = CoverageEngine::new(ds.clone(), Threshold::Count(2)).unwrap();
        crate::snapshot::save_snapshot(&tau2, &path).unwrap();
        // …must not restore into a server resolving τ=1: clients have been
        // quoting coverage verdicts against the serving threshold.
        let mut serving = CoverageEngine::new(ds, Threshold::Count(1)).unwrap();
        let options = ServeOptions::new().with_snapshot_path(Some(path.clone()));
        let response = handle_line(&mut serving, &options, r#"{"op":"restore"}"#);
        let doc = Json::parse(&response).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("code").and_then(Json::as_str),
            Some("threshold_mismatch"),
            "{response}"
        );
        assert_eq!(serving.tau(), 1, "serving engine must be untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_accepts_a_snapshot_recorded_with_a_shard_layout() {
        // A snapshot written by a build that served three compressed row
        // shards restores through the protocol like any other: the layout
        // and backend it records are ignored.
        let dir =
            std::env::temp_dir().join(format!("mithra-restore-shards-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snapshot");
        let original = engine();
        let text = crate::snapshot::snapshot_string(&original)
            .unwrap()
            .replace("\"backend\":\"dense\"", "\"backend\":\"compressed\"")
            .replace("\"shards\":1,", "\"shards\":3,");
        assert!(text.contains("\"shards\":3,") && text.contains("\"compressed\""));
        std::fs::write(&path, text).unwrap();
        let mut serving = engine();
        let _ = ok(&mut serving, r#"{"op":"insert","row":["f","black"]}"#);
        let options = ServeOptions::new().with_snapshot_path(Some(path.clone()));
        let response = handle_line(&mut serving, &options, r#"{"op":"restore"}"#);
        assert!(response.contains("\"ok\":true"), "{response}");
        assert_eq!(serving.dataset().len(), original.dataset().len());
        assert_eq!(serving.mups(), original.mups());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_ops_without_a_path_answer_errors() {
        let mut engine = engine();
        for line in [r#"{"op":"snapshot"}"#, r#"{"op":"restore"}"#] {
            let response = plain(&mut engine, line);
            assert!(response.contains("\"ok\":false"), "{response}");
            assert!(response.contains("no snapshot path"), "{response}");
            assert!(response.contains("\"code\":\"no_snapshot\""), "{response}");
        }
    }

    #[test]
    fn panicking_handler_answers_an_error_and_spares_the_mutex() {
        let mut engine = engine();
        // A handler that panics inside a segment must yield an error
        // response and a rebuilt engine, not unwind through the front end.
        let response = with_engine_contained(
            &mut engine,
            |error| error_response(None, &error),
            |_| -> String { panic!("handler bug") },
        );
        assert!(response.contains("\"ok\":false"), "{response}");
        assert!(response.contains("panicked"), "{response}");
        assert!(response.contains("\"code\":\"internal\""), "{response}");
        assert_eq!(engine.stats().full_recomputes, 1, "the engine was rebuilt");
        // And the engine still answers real requests afterwards.
        let response = plain(&mut engine, r#"{"op":"stats"}"#);
        assert!(response.contains("\"ok\":true"), "{response}");
    }

    /// Panics in `coverage` once [`TRIPPED`] is armed, then disarms: a
    /// backend bug that a request reaches mid-segment.
    #[derive(Debug, Clone)]
    struct Tripwire(coverage_index::CoverageOracle);

    static TRIPPED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    impl coverage_index::CoverageProvider for Tripwire {
        fn arity(&self) -> usize {
            self.0.arity()
        }
        fn cardinalities(&self) -> &[u8] {
            self.0.cardinalities()
        }
        fn total(&self) -> u64 {
            self.0.total()
        }
        fn coverage(&self, codes: &[u8]) -> u64 {
            if TRIPPED.swap(false, std::sync::atomic::Ordering::SeqCst) {
                panic!("tripwire");
            }
            self.0.coverage(codes)
        }
        fn add_row(&mut self, row: &[u8]) {
            self.0.add_row(row);
        }
        fn remove_row(&mut self, row: &[u8]) -> bool {
            self.0.remove_row(row)
        }
        fn grow_value(&mut self, attribute: usize) -> u8 {
            self.0.grow_value(attribute)
        }
        fn for_each_combination(&self, visit: &mut dyn FnMut(&[u8], u64)) {
            self.0.for_each_combination(visit)
        }
    }

    impl CoverageBackend for Tripwire {
        fn build(dataset: &Dataset, shards: usize) -> Self {
            Tripwire(coverage_index::CoverageOracle::build(dataset, shards))
        }
    }

    #[test]
    fn connection_after_handler_panic_still_gets_an_answer() {
        // The availability property end-to-end: a request whose handler
        // panics inside the event loop answers `internal`, and the loop
        // keeps answering that connection and the next one.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().unwrap();
        let dataset = engine().dataset().clone();
        let tripwire =
            CoverageEngine::<Tripwire>::with_config(dataset, Threshold::Count(1), 1, 0).unwrap();
        let shared = Arc::new(Mutex::new(tripwire));
        thread::spawn(move || {
            let _ = serve(shared, ServeOptions::new(), listener);
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut ask = |line: &str| {
            writeln!(stream, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            response
        };
        TRIPPED.store(true, std::sync::atomic::Ordering::SeqCst);
        let response = ask(r#"{"op":"coverage","pattern":"12"}"#);
        assert!(response.contains("\"code\":\"internal\""), "{response}");
        assert!(response.contains("engine rebuilt"), "{response}");
        assert!(ask(r#"{"op":"stats"}"#).contains("\"full_recomputes\":1"));
        for _ in 0..2 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            writeln!(stream, "{{\"op\":\"stats\"}}").unwrap();
            stream.flush().unwrap();
            let mut reader = BufReader::new(stream);
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            assert!(
                response.contains("\"ok\":true"),
                "post-panic connection must be served: {response}"
            );
        }
    }

    #[test]
    fn bad_requests_get_error_responses() {
        let mut engine = engine();
        for line in [
            "nonsense",
            r#"{"op":"insert","row":["f"]}"#, // wrong arity
            r#"{"op":"insert","row":["f","martian"]}"#, // unknown value
            r#"{"op":"coverage","pattern":"XXX"}"#, // wrong arity
            r#"{"op":"coverage","pattern":"9X"}"#, // out-of-range code
            r#"{"op":"enhance","lambda":9}"#,
        ] {
            let response = plain(&mut engine, line);
            let doc = Json::parse(&response).expect("error response is valid JSON");
            assert_eq!(
                doc.get("ok").and_then(Json::as_bool),
                Some(false),
                "`{line}` should fail: {response}"
            );
            assert!(doc.get("error").and_then(Json::as_str).is_some());
            assert!(
                doc.get("code").and_then(Json::as_str).is_some(),
                "every failure carries a machine code: {response}"
            );
        }
        // The engine stays usable after every rejected request.
        let _ = ok(&mut engine, r#"{"op":"stats"}"#);
    }

    #[test]
    fn oversized_and_hostile_lines_get_error_responses_and_resync() {
        let mut engine = engine();
        // 2 MiB of 'a' with no structure, then a valid request on the next
        // line: the big line answers an error, the session keeps going.
        let mut script = vec![b'a'; 2 * MAX_LINE_BYTES];
        script.push(b'\n');
        script.extend_from_slice(b"{\"op\":\"stats\"}\n");
        // And a nesting bomb, which must be rejected by the parser's depth
        // cap rather than blowing the stack.
        script.extend_from_slice("[".repeat(100_000).as_bytes());
        script.push(b'\n');
        let mut output = Vec::new();
        serve_lines(
            &mut engine,
            &ServeOptions::default(),
            script.as_slice(),
            &mut output,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"ok\":false") && lines[0].contains("exceeds"));
        assert!(lines[0].contains("\"code\":\"line_too_long\""));
        assert!(lines[1].contains("\"ok\":true"));
        assert!(lines[2].contains("\"ok\":false") && lines[2].contains("nesting"));
    }

    #[test]
    fn unterminated_final_line_is_served() {
        let mut engine = engine();
        let mut output = Vec::new();
        serve_lines(
            &mut engine,
            &ServeOptions::default(),
            &b"{\"op\":\"stats\"}"[..],
            &mut output,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("\"ok\":true"), "{text}");
    }

    #[test]
    fn serve_lines_end_to_end() {
        let mut engine = engine();
        let script = concat!(
            "{\"op\":\"stats\"}\n",
            "\n", // blank lines are skipped
            "{\"op\":\"insert\",\"row\":[\"f\",\"black\"]}\n",
            "{\"op\":\"mups\"}\n",
        );
        let mut output = Vec::new();
        serve_lines(
            &mut engine,
            &ServeOptions::default(),
            script.as_bytes(),
            &mut output,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one response per request: {text}");
        for line in lines {
            assert_eq!(
                Json::parse(line).unwrap().get("ok").and_then(Json::as_bool),
                Some(true)
            );
        }
    }
}
