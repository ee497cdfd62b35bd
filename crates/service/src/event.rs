//! The request pipeline's segment step, and the TCP front end that runs it
//! on one thread: a readiness poller and non-blocking I/O on every
//! connection.
//!
//! ## One pipeline
//!
//! Every request reaches the engine and the op log through one step,
//! [`serve_segment`]: [`process_ops`] serves a *segment* of parsed requests
//! against one engine (coalescing consecutive inserts and deletes into
//! single engine batches) and appends each accepted mutation right after
//! the engine applied it, a failed append revoking every later one; one
//! batch fsync closes the segment, and a failed fsync revokes every
//! mutation the segment appended. The event loop runs a segment per tenant
//! per tick, `serve_lines` one per stdin read and `handle_line` one per
//! request.
//!
//! ## One owner per tenant
//!
//! The loop's thread is the only one that touches a tenant's engine and op
//! log: it borrows both exclusively (`&mut`) for as long as it runs, so no
//! request, append, fsync or follower apply ever waits on a lock or
//! interleaves with another. A follower's fetcher thread only fetches: it
//! hands each page of the leader's log to the loop through a bounded
//! channel (`crate::replica`), and the loop applies the page between ticks
//! and records its progress in the same step — a `snapshot` therefore
//! anchors at exactly the entries its engine holds.
//!
//! ## Why an event loop
//!
//! The engine's delta path makes a *batch* of inserts far cheaper than the
//! same inserts applied one by one (one frontier walk instead of N). The
//! event loop forms batches across clients: every poll tick it drains
//! frames from **all** readable connections into one pending queue, then
//! serves the whole tick as one segment per tenant — coalescing runs
//! of consecutive `insert` requests, *across connections*, into single
//! [`CoverageEngine::insert_batch`] calls and fanning the responses back
//! per request. Under concurrent insert load the engine sees a few large
//! batches per tick instead of hundreds of tiny ones.
//!
//! ## Ordering and equivalence
//!
//! Responses are staged back in decode order, so each connection sees its
//! requests answered strictly in the order it sent them. Coalesced inserts
//! report the dataset length *as of their position in the queue*
//! (`len_before + cumulative inserted`), so response bytes are identical to
//! sequential execution — the integration tests assert that TCP, stdin and
//! `handle_line` answer byte-for-byte alike.
//!
//! ## Overload behavior
//!
//! Three mechanisms bound resource use, in order of engagement:
//!
//! * **per-tick read cap** — a connection gets at most
//!   [`PER_TICK_READ_BYTES`] of its stream decoded per tick, so one
//!   firehose client cannot starve the rest;
//! * **admission budget** — at most `options.max_pending()` engine-bound
//!   requests are admitted per tick. Once the budget is spent the loop
//!   stops decoding: complete frames stay in their connection's decoder and
//!   further bytes stay in the socket, so a burst is *deferred* to later
//!   ticks, never answered with an error. Connections left holding input
//!   are carried to the next tick, which polls without blocking and serves
//!   them first (the poller cannot report bytes already in a decoder);
//! * **write backpressure** — a connection whose response backlog exceeds
//!   [`MAX_WRITE_BACKLOG`] stops being *read* (its poller interest drops
//!   to write-only, and it is not carried) until the peer drains what it
//!   already owes.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coverage_index::CoverageBackend;

use crate::engine::CoverageEngine;
use crate::metrics::{OpClass, ServeMetrics};
use crate::net::{Interest, Poller};
use crate::oplog::{LoggedOp, OpLog};
use crate::protocol::{error_response, parse_request, Envelope, Request, RequestId, ServeError};
use crate::replica::PageFeed;
use crate::server::{
    append_failed_error, append_skipped_error, delete_response, dispatch, encode_row,
    insert_response, line_too_long_error, op_class, sync_failed_error, sync_oplog_batch,
    with_engine_contained, ServeOptions, IDLE_TIMEOUT, MAX_LINE_BYTES,
};
use crate::tenant::{resolve_tenant, DatasetCounters};

/// Poller token reserved for the listener (connection tokens encode a slab
/// index in their low 32 bits, bounded far below this).
const LISTENER: u64 = u64::MAX;

/// Poller token reserved for a follower's page-channel wake socket.
const FOLLOWER_WAKE: u64 = u64::MAX - 1;

/// Hard cap on simultaneously open connections; beyond it new accepts are
/// closed immediately (fd exhaustion otherwise takes the listener down).
const MAX_CONNECTIONS: usize = 16_384;

/// Bytes handed to a [`FrameDecoder`] at a time.
pub(crate) const READ_CHUNK_BYTES: usize = 8 * 1024;

/// Most bytes decoded from one connection in one tick.
const PER_TICK_READ_BYTES: usize = 256 * 1024;

/// Response backlog above which a connection stops being read.
const MAX_WRITE_BACKLOG: usize = 1 << 20;

/// How often idle connections are swept.
const SWEEP_INTERVAL: Duration = Duration::from_secs(30);

/// An incremental NDJSON frame decoder over a byte stream (a connection or
/// stdin).
///
/// Bytes arrive in arbitrary fragments; frames are complete lines. A line
/// that grows past [`MAX_LINE_BYTES`] without a newline flips the decoder
/// into discard mode: the oversized tail is dropped as it streams in
/// (bounded memory) and the eventual newline yields one [`Frame::TooLong`]
/// so the client still gets its error response and the stream stays in
/// sync.
#[derive(Debug, Default)]
pub(crate) struct FrameDecoder {
    buf: Vec<u8>,
    discarding: bool,
}

/// One decoded frame.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A complete request line (newline stripped, lossy UTF-8).
    Line(String),
    /// A line that exceeded [`MAX_LINE_BYTES`] (content discarded).
    TooLong,
}

impl FrameDecoder {
    /// Feeds freshly-read bytes into the decoder.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.discarding {
            // Keep only bytes from the newline onward (if one arrived).
            match bytes.iter().position(|&b| b == b'\n') {
                Some(pos) => self.buf.extend_from_slice(&bytes[pos..]),
                None => return,
            }
        } else {
            self.buf.extend_from_slice(bytes);
        }
        if !self.discarding && self.buf.len() > MAX_LINE_BYTES && !self.buf.contains(&b'\n') {
            self.buf.clear();
            self.discarding = true;
        }
    }

    /// Pops the next complete frame, if one is buffered.
    pub(crate) fn next_frame(&mut self) -> Option<Frame> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
        line.pop(); // the newline
        if self.discarding {
            self.discarding = false;
            return Some(Frame::TooLong);
        }
        if line.len() > MAX_LINE_BYTES {
            return Some(Frame::TooLong);
        }
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(Frame::Line(String::from_utf8_lossy(&line).into_owned()))
    }

    /// Flushes the final unterminated frame at EOF: an unterminated last
    /// line is served like any other.
    pub(crate) fn finish(&mut self) -> Option<Frame> {
        if self.discarding {
            self.discarding = false;
            self.buf.clear();
            return Some(Frame::TooLong);
        }
        if self.buf.is_empty() {
            return None;
        }
        let mut line = std::mem::take(&mut self.buf);
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(Frame::Line(String::from_utf8_lossy(&line).into_owned()))
    }

    /// Whether any undecoded bytes remain buffered.
    fn is_empty(&self) -> bool {
        self.buf.is_empty() && !self.discarding
    }

    /// Whether a complete frame is buffered (one [`FrameDecoder::next_frame`]
    /// would yield).
    fn has_frame(&self) -> bool {
        self.buf.contains(&b'\n')
    }
}

/// Per-connection state in the slab.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Staged response bytes awaiting the socket.
    out: Vec<u8>,
    /// How much of `out` has been written.
    out_pos: usize,
    /// Generation stamped into this connection's token: a response routed
    /// by a stale token (its connection died and the slab slot was reused)
    /// fails the generation check and is discarded instead of being
    /// delivered to the wrong client.
    gen: u32,
    interest: Interest,
    eof: bool,
    dead: bool,
    /// Whether the connection's token sits in the current tick's read order
    /// or in the carry list for the next tick (so it is read once a tick).
    scheduled: bool,
    last_active: Instant,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether the decoder still holds a frame to serve: a complete line,
    /// or after EOF an unterminated last one.
    fn holds_frame(&self) -> bool {
        self.decoder.has_frame() || (self.eof && !self.decoder.is_empty())
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.eof && self.backlog() < MAX_WRITE_BACKLOG,
            writable: self.backlog() > 0,
        }
    }
}

fn token_of(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & u64::from(u32::MAX)) as usize, (token >> 32) as u32)
}

/// One hosted dataset as the event loop sees it: name for routing, the
/// engine and op log it borrows exclusively for the loop's lifetime,
/// per-tenant options (snapshot path, growth mode), and the per-dataset
/// request counter (multi-dataset mode only).
pub(crate) struct EventTenant<'a, B: CoverageBackend> {
    /// Routing name; `None` for the single unnamed dataset of a plain
    /// `serve` call (any `"dataset"` routing then answers an error).
    pub name: Option<String>,
    /// The engine serving this dataset.
    pub engine: &'a mut CoverageEngine<B>,
    /// This dataset's op log, if it is a durable leader.
    pub oplog: Option<&'a mut OpLog>,
    /// This dataset's serving options.
    pub options: ServeOptions,
    /// Per-dataset request counter (set up by `serve_tenants`).
    pub counters: Option<Arc<DatasetCounters>>,
}

/// One queued unit of work for the drain phase.
struct PendingItem {
    token: u64,
    op: OpClass,
    start: Instant,
    kind: PendingKind,
}

/// What one request line asks of the pipeline.
pub(crate) enum PendingKind {
    /// A parsed request that needs the engine of tenant `tenant`.
    Op {
        tenant: usize,
        id: Option<RequestId>,
        request: Request,
    },
    /// A response already in final form (parse error, oversized line,
    /// unknown dataset) — flows through the queue so per-connection
    /// response order matches request order.
    Ready(String),
}

/// An engine-bound request, tagged with its slot in the segment's response
/// slots and the tenant it routes to.
pub(crate) struct OpWork {
    pub(crate) slot: usize,
    pub(crate) tenant: usize,
    pub(crate) id: Option<RequestId>,
    pub(crate) request: Request,
}

/// Parses one request line and routes it among the hosted tenant `names`
/// (`[None]` for a single unnamed dataset): an engine op, or the finished
/// error response.
pub(crate) fn request_work(line: &str, names: &[Option<String>]) -> PendingKind {
    match parse_request(line) {
        Err(failure) => PendingKind::Ready(error_response(failure.id.as_ref(), &failure.error)),
        Ok(Envelope {
            id,
            dataset,
            request,
        }) => match resolve_tenant(names, dataset.as_deref()) {
            Err(error) => PendingKind::Ready(error_response(id.as_ref(), &error)),
            Ok(tenant) => PendingKind::Op {
                tenant,
                id,
                request,
            },
        },
    }
}

/// Turns one decoded frame into pipeline work; `None` for a blank line,
/// which answers nothing.
pub(crate) fn frame_work(frame: Frame, names: &[Option<String>]) -> Option<PendingKind> {
    match frame {
        Frame::TooLong => Some(PendingKind::Ready(error_response(
            None,
            &line_too_long_error(),
        ))),
        Frame::Line(line) if line.trim().is_empty() => None,
        Frame::Line(line) => Some(request_work(&line, names)),
    }
}

/// Serves one connection's input for this tick: decodes buffered frames
/// into the pending queue until the tick's admission budget is spent,
/// reading more bytes from the socket only once the decoder holds no
/// complete frame. Frames past the budget stay in the decoder, and unread
/// bytes in the socket, for a later tick. Returns `false` if the connection
/// errored and must be torn down.
fn read_ready(
    conn: &mut Conn,
    token: u64,
    names: &[Option<String>],
    max_pending: usize,
    admitted: &mut usize,
    pending: &mut Vec<PendingItem>,
) -> bool {
    let mut chunk = [0u8; READ_CHUNK_BYTES];
    let mut read_total = 0usize;
    loop {
        while *admitted < max_pending {
            let Some(frame) = conn.decoder.next_frame() else {
                break;
            };
            queue_frame(frame, token, names, admitted, pending);
        }
        if *admitted >= max_pending || conn.eof || read_total >= PER_TICK_READ_BYTES {
            break;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => conn.eof = true,
            Ok(n) => {
                read_total += n;
                conn.decoder.push(&chunk[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    // With budget left every complete frame was drained above, so what
    // remains at EOF is the unterminated last line.
    if conn.eof && *admitted < max_pending {
        if let Some(frame) = conn.decoder.finish() {
            queue_frame(frame, token, names, admitted, pending);
        }
    }
    true
}

/// Queues one decoded frame, counting an engine-bound request against the
/// tick's admission budget.
fn queue_frame(
    frame: Frame,
    token: u64,
    names: &[Option<String>],
    admitted: &mut usize,
    pending: &mut Vec<PendingItem>,
) {
    let start = Instant::now();
    let Some(kind) = frame_work(frame, names) else {
        return;
    };
    let op = match &kind {
        PendingKind::Op { request, .. } => {
            *admitted += 1;
            op_class(request)
        }
        PendingKind::Ready(_) => OpClass::Other,
    };
    pending.push(PendingItem {
        token,
        op,
        start,
        kind,
    });
}

/// The op-log side of one segment. Each accepted mutation is appended as
/// soon as the engine applied it, so the log holds the segment's
/// mutations in apply order. The first failed append revokes that op's
/// success and every later mutation's: their engine effects stand, but
/// none of them reached the log, so the log stays a true prefix of the
/// acknowledged mutation sequence — appending past a hole would let
/// follower replay diverge from the leader (a logged delete of rows whose
/// insert fell in the hole, for example). Appends land before any success
/// response is sent, so a crash in between loses only ops no client saw
/// acknowledged. This is the only serving-path caller of
/// [`crate::OpLog::append`].
struct SegmentLog<'a> {
    log: Option<&'a mut OpLog>,
    /// Why an earlier append of this segment failed.
    failed: Option<String>,
    /// The slots and ids of the mutations this segment appended: the
    /// segment's closing fsync covers them.
    appended: Vec<(usize, Option<RequestId>)>,
}

impl SegmentLog<'_> {
    /// Logs one accepted mutation whose success response sits in
    /// `slots[slot]`, replacing that response with an `internal` error if
    /// it could not be logged. No-op without an op log.
    fn append(
        &mut self,
        slots: &mut [Option<String>],
        slot: usize,
        id: Option<RequestId>,
        op: impl FnOnce() -> LoggedOp,
    ) {
        let Some(log) = self.log.as_deref_mut() else {
            return;
        };
        let error = match &self.failed {
            Some(cause) => append_skipped_error(cause),
            None => match log.append(op()) {
                Ok(_) => {
                    self.appended.push((slot, id));
                    return;
                }
                Err(e) => {
                    let cause = e.to_string();
                    let error = append_failed_error(&cause);
                    self.failed = Some(cause);
                    error
                }
            },
        };
        slots[slot] = Some(error_response(id.as_ref(), &error));
    }
}

/// Bumps the `stats.io` batching counters for one engine batch of `class`
/// that served `served` requests. No-op without metrics (stdin,
/// `handle_line`), for `Other` requests, and for an empty batch.
fn count_batch(metrics: Option<&ServeMetrics>, class: OpClass, served: u64) {
    let Some(metrics) = metrics else {
        return;
    };
    let (requests, batches, coalesced) = match class {
        OpClass::Insert => (
            &metrics.insert_requests,
            &metrics.insert_engine_batches,
            &metrics.coalesced_inserts,
        ),
        OpClass::Delete => (
            &metrics.delete_requests,
            &metrics.delete_engine_batches,
            &metrics.coalesced_deletes,
        ),
        OpClass::Other => return,
    };
    if served == 0 {
        return;
    }
    ServeMetrics::add(requests, served);
    ServeMetrics::add(batches, 1);
    if served > 1 {
        ServeMetrics::add(coalesced, served);
    }
}

/// Runs one uncoalesced request into its slot, logging an accepted
/// mutation and counting a successful insert or delete as its own engine
/// batch.
fn dispatch_counted<B: CoverageBackend>(
    engine: &mut CoverageEngine<B>,
    log: &mut SegmentLog<'_>,
    options: &ServeOptions,
    metrics: Option<&ServeMetrics>,
    op: OpWork,
    slots: &mut [Option<String>],
) {
    let OpWork {
        slot, id, request, ..
    } = op;
    let class = op_class(&request);
    let mut staged = None;
    let oplog = log.log.as_deref_mut();
    match dispatch(
        engine,
        oplog,
        options,
        id.as_ref(),
        request,
        metrics,
        &mut staged,
    ) {
        Ok(response) => {
            count_batch(metrics, class, 1);
            slots[slot] = Some(response);
            if let Some(op) = staged {
                log.append(slots, slot, id, || op);
            }
        }
        Err(error) => slots[slot] = Some(error_response(id.as_ref(), &error)),
    }
}

/// A coalesced-run entry: `(slot, id, raw rows, coded rows)` for requests
/// that encoded, or the finished error response for ones that did not.
/// The raw rows ride along so the op log records what the client sent.
type RunEntry = Result<(usize, Option<RequestId>, Vec<Vec<String>>, Vec<Vec<u8>>), (usize, String)>;

/// Encodes every request of a run up front; per-request encoding failures
/// answer their own error and take no part in the combined batch.
fn encode_run<B: CoverageBackend>(
    engine: &CoverageEngine<B>,
    run: &mut Vec<OpWork>,
) -> Vec<RunEntry> {
    let schema = engine.dataset().schema();
    run.drain(..)
        .map(|op| {
            let OpWork {
                slot, id, request, ..
            } = op;
            let rows = match request {
                Request::Insert { rows } | Request::Delete { rows } => rows,
                _ => unreachable!("coalesced runs hold only inserts or deletes"),
            };
            match rows
                .iter()
                .map(|r| encode_row(schema, r))
                .collect::<Result<Vec<Vec<u8>>, ServeError>>()
            {
                Ok(coded) => Ok((slot, id, rows, coded)),
                Err(e) => Err((slot, error_response(id.as_ref(), &e))),
            }
        })
        .collect()
}

/// Applies one engine batch of a coalescible `class` (insert or delete).
fn apply_batch<B: CoverageBackend>(
    engine: &mut CoverageEngine<B>,
    class: OpClass,
    rows: &[Vec<u8>],
) -> crate::Result<()> {
    match class {
        OpClass::Insert => engine.insert_batch(rows),
        OpClass::Delete => engine.remove_batch(rows),
        OpClass::Other => unreachable!("coalesced runs hold only inserts or deletes"),
    }
}

/// The success response of one request of a coalesced run of `class` that
/// moved `n` rows and left the dataset at `rows` total.
fn run_response(class: OpClass, id: Option<&RequestId>, n: usize, rows: usize) -> String {
    if class == OpClass::Insert {
        insert_response(id, n, rows)
    } else {
        delete_response(id, n, rows)
    }
}

/// The op-log entry of one request of a coalesced run of `class`.
fn run_logged_op(class: OpClass, rows: Vec<Vec<String>>) -> LoggedOp {
    if class == OpClass::Insert {
        LoggedOp::Insert { rows }
    } else {
        LoggedOp::Delete { rows }
    }
}

/// Serves a run of consecutive requests of one coalescible `class` (insert
/// or delete), writing each response into its slot. A run of several is one
/// engine batch whose per-request responses are rebuilt byte-identically to
/// sequential execution (`rows` moves as each request's rows land); the op
/// log gets one entry per request, same order.
#[allow(clippy::too_many_arguments)]
fn flush_run<B: CoverageBackend>(
    engine: &mut CoverageEngine<B>,
    log: &mut SegmentLog<'_>,
    options: &ServeOptions,
    metrics: Option<&ServeMetrics>,
    class: OpClass,
    run: &mut Vec<OpWork>,
    slots: &mut [Option<String>],
) {
    if run.len() <= 1 {
        if let Some(op) = run.pop() {
            dispatch_counted(engine, log, options, metrics, op, slots);
        }
        return;
    }
    let entries = encode_run(engine, run);
    let combined: Vec<Vec<u8>> = entries
        .iter()
        .filter_map(|e| e.as_ref().ok())
        .flat_map(|(_, _, _, coded)| coded.iter().cloned())
        .collect();
    let served = entries.iter().filter(|e| e.is_ok()).count();
    let mut rows = engine.dataset().len();
    if apply_batch(engine, class, &combined).is_ok() {
        for entry in entries {
            match entry {
                Ok((slot, id, raw, coded)) => {
                    rows = if class == OpClass::Insert {
                        rows + coded.len()
                    } else {
                        rows - coded.len()
                    };
                    slots[slot] = Some(run_response(class, id.as_ref(), coded.len(), rows));
                    log.append(slots, slot, id, || run_logged_op(class, raw));
                }
                Err((slot, response)) => slots[slot] = Some(response),
            }
        }
        count_batch(metrics, class, served as u64);
        return;
    }
    // The combined batch was rejected atomically — for deletes a *real*
    // path: two requests each deleting the last copy of the same row fail
    // combined (multiplicity check), but sequentially the first succeeds
    // and the second answers `row_not_found`. Replay per request so every
    // response matches sequential execution exactly.
    for entry in entries {
        match entry {
            Ok((slot, id, raw, coded)) => match apply_batch(engine, class, &coded) {
                Ok(()) => {
                    count_batch(metrics, class, 1);
                    let rows = engine.dataset().len();
                    slots[slot] = Some(run_response(class, id.as_ref(), coded.len(), rows));
                    log.append(slots, slot, id, || run_logged_op(class, raw));
                }
                Err(e) => {
                    slots[slot] = Some(error_response(id.as_ref(), &ServeError::from_service(e)));
                }
            },
            Err((slot, response)) => slots[slot] = Some(response),
        }
    }
}

/// The engine step of one segment: serves every op against `engine`,
/// writing each response into `slots[op.slot]` and appending each accepted
/// mutation to `oplog` right after the engine applied it (see
/// [`SegmentLog`]). Consecutive runs of inserts are coalesced (when
/// dictionary growth is off — growth encoding mutates the schema mid-run,
/// so growth mode serves inserts individually) and so are runs of deletes
/// (always: deletes never grow the schema). A mid-segment `snapshot`
/// therefore anchors past every mutation before it. Returns the slots and
/// ids of the mutations appended, which the segment's fsync covers.
pub(crate) fn process_ops<B: CoverageBackend, I: IntoIterator<Item = OpWork>>(
    engine: &mut CoverageEngine<B>,
    oplog: Option<&mut OpLog>,
    options: &ServeOptions,
    metrics: Option<&ServeMetrics>,
    ops: I,
    slots: &mut [Option<String>],
) -> Vec<(usize, Option<RequestId>)> {
    let mut log = SegmentLog {
        log: oplog,
        failed: None,
        appended: Vec::new(),
    };
    let mut run: Vec<OpWork> = Vec::new();
    // The class of the open run; `Other` while none is open.
    let mut run_class = OpClass::Other;
    for op in ops {
        let class = match &op.request {
            Request::Insert { .. } if !options.grow_schema() => OpClass::Insert,
            Request::Delete { .. } => OpClass::Delete,
            _ => OpClass::Other,
        };
        if class != run_class {
            let flushed = std::mem::replace(&mut run_class, class);
            flush_run(engine, &mut log, options, metrics, flushed, &mut run, slots);
        }
        if class == OpClass::Other {
            dispatch_counted(engine, &mut log, options, metrics, op, slots);
        } else {
            run.push(op);
        }
    }
    flush_run(
        engine, &mut log, options, metrics, run_class, &mut run, slots,
    );
    log.appended
}

/// Serves one segment — per tenant per event-loop tick, per stdin read,
/// per `handle_line` call: the engine step, then one batch fsync, so every
/// response in `slots` is final before the caller writes it. If the fsync
/// fails, every mutation the segment appended answers `internal`: it is
/// applied and logged, but not durable.
pub(crate) fn serve_segment<B: CoverageBackend, I: IntoIterator<Item = OpWork>>(
    engine: &mut CoverageEngine<B>,
    mut oplog: Option<&mut OpLog>,
    options: &ServeOptions,
    metrics: Option<&ServeMetrics>,
    ops: I,
    slots: &mut [Option<String>],
) {
    let appended = process_ops(engine, oplog.as_deref_mut(), options, metrics, ops, slots);
    if let Err(e) = sync_oplog_batch(oplog) {
        let error = sync_failed_error(e);
        for (slot, id) in appended {
            slots[slot] = Some(error_response(id.as_ref(), &error));
        }
    }
}

/// Flushes as much of `conn.out` as the socket will take. Returns `false`
/// on a connection error.
fn flush(conn: &mut Conn) -> bool {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    true
}

/// The event loop proper, hosting one or more datasets; the loop's thread
/// is the only one that touches their engines and op logs. Shared
/// machinery — poller, connection slab, admission budget (`max_pending`
/// read from tenant 0), I/O metrics — is per-process; each tick's
/// engine-bound ops are split by tenant and each tenant's ops are served
/// as one segment (so cross-connection coalescing still happens within a
/// tenant, each tenant's log is fsynced once per tick, and tenants can't
/// corrupt each other: panic containment rebuilds only the tenant that
/// panicked).
///
/// With `follow`, tenant 0 is a follower: the pages its fetcher sends are
/// applied between ticks, each entry's progress recorded in the same step,
/// and a page that fails to apply ends the loop with `Err`.
pub(crate) fn serve_event_tenants<B: CoverageBackend>(
    mut tenants: Vec<EventTenant<'_, B>>,
    mut follow: Option<PageFeed>,
    listener: TcpListener,
) -> io::Result<()> {
    if tenants.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no datasets to serve",
        ));
    }
    let names: Vec<Option<String>> = tenants.iter().map(|t| t.name.clone()).collect();
    let max_pending = tenants[0].options.max_pending();
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
    if let Some(feed) = &follow {
        poller.register(feed.wake_fd(), FOLLOWER_WAKE, Interest::READ)?;
    }
    // Whether the follower's channel may hold pages the last tick left.
    let mut pages_waiting = true;

    let metrics = ServeMetrics::default();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u32 = 0;
    let mut live = 0usize;

    let mut events = Vec::new();
    let mut pending: Vec<PendingItem> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    // Tokens of connections left holding input when a tick's admission
    // budget ran out, in the order the next tick reads them.
    let mut carry: Vec<u64> = Vec::new();
    let mut order: Vec<u64> = Vec::new();
    let mut accept_failures = 0u32;
    let mut last_sweep = Instant::now();

    loop {
        let busy = !carry.is_empty() || (pages_waiting && follow.is_some());
        poller.wait(&mut events, if busy { 0 } else { 1000 })?;
        if let Some(feed) = follow.as_mut() {
            if events.iter().any(|event| event.token == FOLLOWER_WAKE) && !feed.clear_wake() {
                // The fetcher is gone: nothing will wake this socket again.
                let _ = poller.deregister(feed.wake_fd());
            }
            pages_waiting = feed.apply_ready(tenants[0].engine)?;
        }
        let now = Instant::now();
        // This tick's read order: carried connections first, then the
        // ones the poller reports readable.
        order.clear();
        order.append(&mut carry);

        for event in &events {
            if event.token == FOLLOWER_WAKE {
                continue;
            }
            if event.token == LISTENER {
                // Drain the accept queue; level-triggering re-reports any
                // leftovers next tick.
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            accept_failures = 0;
                            if live >= MAX_CONNECTIONS || stream.set_nonblocking(true).is_err() {
                                drop(stream); // shed
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            next_gen = next_gen.wrapping_add(1);
                            let idx = free.pop().unwrap_or_else(|| {
                                conns.push(None);
                                conns.len() - 1
                            });
                            let token = token_of(idx, next_gen);
                            if poller
                                .register(stream.as_raw_fd(), token, Interest::READ)
                                .is_err()
                            {
                                free.push(idx);
                                continue;
                            }
                            ServeMetrics::add(&metrics.connections, 1);
                            live += 1;
                            conns[idx] = Some(Conn {
                                stream,
                                decoder: FrameDecoder::default(),
                                out: Vec::new(),
                                out_pos: 0,
                                gen: next_gen,
                                interest: Interest::READ,
                                eof: false,
                                dead: false,
                                scheduled: false,
                                last_active: now,
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            // Transient accept failures (ECONNABORTED,
                            // EMFILE) recur fast; a listener that stays
                            // broken must surface, not zombify.
                            accept_failures += 1;
                            if accept_failures >= 100 {
                                return Err(e);
                            }
                            break;
                        }
                    }
                }
                continue;
            }
            let (idx, gen) = split_token(event.token);
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != gen || conn.dead {
                continue;
            }
            conn.last_active = now;
            if event.writable && !flush(conn) {
                conn.dead = true;
            }
            if event.readable && !conn.scheduled {
                conn.scheduled = true;
                order.push(event.token);
            }
            touched.push(idx);
        }

        // Read in order until the admission budget is spent; connections
        // not reached go to the front of the next tick's order, ahead of
        // the one the budget cut off (carried when finalized below).
        let mut admitted = 0usize;
        for (k, &token) in order.iter().enumerate() {
            if admitted >= max_pending {
                carry.extend_from_slice(&order[k..]);
                break;
            }
            let (idx, gen) = split_token(token);
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != gen {
                continue;
            }
            conn.scheduled = false;
            if conn.dead || conn.backlog() >= MAX_WRITE_BACKLOG {
                continue;
            }
            conn.last_active = now;
            if !read_ready(
                conn,
                token,
                &names,
                max_pending,
                &mut admitted,
                &mut pending,
            ) {
                conn.dead = true;
            }
            touched.push(idx);
        }

        if !pending.is_empty() {
            // Split the tick's queue: preformed responses fill their slots
            // now; engine-bound ops run as one segment per tenant, each
            // under one panic-containment scope.
            let mut slots: Vec<Option<String>> = Vec::with_capacity(pending.len());
            let mut ops: Vec<OpWork> = Vec::new();
            for (slot, item) in pending.iter_mut().enumerate() {
                match &mut item.kind {
                    PendingKind::Ready(response) => slots.push(Some(std::mem::take(response))),
                    PendingKind::Op {
                        tenant,
                        id,
                        request,
                    } => {
                        // Move the op out; the queue keeps token/op/start
                        // for routing and latency accounting.
                        ops.push(OpWork {
                            slot,
                            tenant: *tenant,
                            id: id.take(),
                            request: std::mem::replace(request, Request::Stats),
                        });
                        slots.push(None);
                    }
                }
            }
            // Serve each tenant's ops as one segment. If a segment panics,
            // every op of it answers an internal error (that tenant's
            // engine was rebuilt); other tenants' segments and
            // already-formed responses stay intact.
            let mut segments: Vec<Vec<OpWork>> = tenants.iter().map(|_| Vec::new()).collect();
            for op in ops {
                segments[op.tenant].push(op);
            }
            for (tenant, segment) in tenants.iter_mut().zip(segments) {
                if segment.is_empty() {
                    continue;
                }
                if let Some(counters) = &tenant.counters {
                    counters.add_requests(segment.len() as u64);
                }
                let failure_meta: Vec<(usize, Option<RequestId>)> =
                    segment.iter().map(|op| (op.slot, op.id.clone())).collect();
                let oplog = tenant.oplog.as_deref_mut();
                let served = with_engine_contained(tenant.engine, Err, |engine| {
                    let metrics = Some(&metrics);
                    serve_segment(engine, oplog, &tenant.options, metrics, segment, &mut slots);
                    Ok(())
                });
                if let Err(error) = served {
                    for (slot, id) in failure_meta {
                        slots[slot] = Some(error_response(id.as_ref(), &error));
                    }
                }
            }
            // Stage responses in decode order so each connection sees its
            // own requests answered strictly in the order it sent them.
            for (slot, item) in pending.iter().enumerate() {
                let Some(response) = slots[slot].take() else {
                    continue;
                };
                metrics.record(item.op, item.start.elapsed().as_nanos() as u64);
                let (idx, gen) = split_token(item.token);
                // A connection that died mid-tick (or was already replaced
                // in the slab) simply drops its responses — the engine
                // effects stand.
                let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                if conn.gen != gen || conn.dead {
                    continue;
                }
                conn.out.extend_from_slice(response.as_bytes());
                conn.out.push(b'\n');
                conn.last_active = now;
                touched.push(idx);
            }
            pending.clear();
        }

        // Finalize every connection the tick touched: push bytes, close
        // finished/broken ones, reconcile poller interest for the rest.
        touched.sort_unstable();
        touched.dedup();
        for idx in touched.drain(..) {
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if !conn.dead && conn.backlog() > 0 && !flush(conn) {
                conn.dead = true;
            }
            let finished = conn.eof && conn.backlog() == 0 && conn.decoder.is_empty();
            if conn.dead || finished {
                if let Some(conn) = conns[idx].take() {
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                }
                free.push(idx);
                live -= 1;
                continue;
            }
            // Frames already in the decoder are invisible to the poller:
            // carry the connection so the next tick serves them, unless
            // its backlog pauses it (a later flush touches it again).
            if !conn.scheduled && conn.backlog() < MAX_WRITE_BACKLOG && conn.holds_frame() {
                conn.scheduled = true;
                carry.push(token_of(idx, conn.gen));
            }
            let desired = conn.desired_interest();
            if desired != conn.interest {
                let token = token_of(idx, conn.gen);
                if poller
                    .reregister(conn.stream.as_raw_fd(), token, desired)
                    .is_ok()
                {
                    conn.interest = desired;
                } else {
                    conn.dead = true;
                }
            }
        }

        if now.duration_since(last_sweep) >= SWEEP_INTERVAL {
            last_sweep = now;
            for (idx, slot) in conns.iter_mut().enumerate() {
                let idle = slot
                    .as_ref()
                    .is_some_and(|conn| now.duration_since(conn.last_active) > IDLE_TIMEOUT);
                if idle {
                    if let Some(conn) = slot.take() {
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                    }
                    free.push(idx);
                    live -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::Threshold;
    use coverage_data::{Attribute, Dataset, Schema};
    use std::io::{BufRead, BufReader};
    use std::sync::Mutex;

    fn decode_all(decoder: &mut FrameDecoder) -> Vec<Frame> {
        let mut frames = Vec::new();
        while let Some(frame) = decoder.next_frame() {
            frames.push(frame);
        }
        frames
    }

    #[test]
    fn decoder_reassembles_fragmented_frames() {
        let mut d = FrameDecoder::default();
        d.push(b"{\"op\":");
        assert!(decode_all(&mut d).is_empty());
        d.push(b"\"stats\"}\r\n{\"op\":\"mups\"}\n{\"op\":");
        assert_eq!(
            decode_all(&mut d),
            vec![
                Frame::Line("{\"op\":\"stats\"}".into()),
                Frame::Line("{\"op\":\"mups\"}".into()),
            ]
        );
        assert!(!d.is_empty());
        d.push(b"\"x\"}\n");
        assert_eq!(
            decode_all(&mut d),
            vec![Frame::Line("{\"op\":\"x\"}".into())]
        );
        assert!(d.is_empty());
    }

    #[test]
    fn decoder_handles_byte_at_a_time_delivery() {
        let mut d = FrameDecoder::default();
        let mut frames = Vec::new();
        for &b in b"a\nbb\n\ncc" {
            d.push(&[b]);
            frames.extend(decode_all(&mut d));
        }
        if let Some(f) = d.finish() {
            frames.push(f);
        }
        assert_eq!(
            frames,
            vec![
                Frame::Line("a".into()),
                Frame::Line("bb".into()),
                Frame::Line("".into()), // blank; dropped later by queue_frame
                Frame::Line("cc".into()),
            ]
        );
    }

    #[test]
    fn decoder_discards_oversized_lines_in_bounded_memory_and_resyncs() {
        let mut d = FrameDecoder::default();
        // Stream 3 MiB of garbage in chunks with no newline: the buffer
        // must stay bounded (discard mode), then the newline yields
        // TooLong and the next line decodes normally.
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..48 {
            d.push(&chunk);
            assert!(
                d.buf.len() <= MAX_LINE_BYTES + chunk.len(),
                "unbounded buffer"
            );
        }
        assert!(d.discarding);
        d.push(b"tail\n{\"op\":\"stats\"}\n");
        assert_eq!(
            decode_all(&mut d),
            vec![Frame::TooLong, Frame::Line("{\"op\":\"stats\"}".into())]
        );
        // EOF while discarding still reports the oversized line.
        let mut d = FrameDecoder::default();
        d.push(&vec![b'y'; MAX_LINE_BYTES + 1]);
        assert_eq!(d.finish(), Some(Frame::TooLong));
        assert!(d.is_empty());
    }

    fn test_engine() -> CoverageEngine {
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
    fn event_front_end_serves_a_pipelined_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let engine = Arc::new(Mutex::new(test_engine()));
        std::thread::spawn(move || {
            let _ = crate::serve(engine, ServeOptions::default(), listener);
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Pipeline several requests in one write, ids out of order.
        stream
            .write_all(
                b"{\"op\":\"insert\",\"id\":1,\"row\":[\"f\",\"black\"]}\n\
                  {\"op\":\"insert\",\"id\":2,\"row\":[\"m\",\"asian\"]}\n\
                  {\"op\":\"mups\",\"id\":\"last\"}\n\
                  {\"op\":\"stats\"}\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        for _ in 0..4 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim().to_string());
        }
        assert_eq!(
            lines[0],
            "{\"ok\":true,\"id\":1,\"op\":\"insert\",\"inserted\":1,\"rows\":5}"
        );
        assert_eq!(
            lines[1],
            "{\"ok\":true,\"id\":2,\"op\":\"insert\",\"inserted\":1,\"rows\":6}"
        );
        assert!(
            lines[2].starts_with("{\"ok\":true,\"id\":\"last\","),
            "{}",
            lines[2]
        );
        // Both inserts landed (whether or not they shared a tick).
        let stats = crate::protocol::Json::parse(&lines[3]).unwrap();
        assert_eq!(
            stats.get("rows").and_then(crate::protocol::Json::as_u64),
            Some(6)
        );
    }

    /// Three pipelined inserts in one segment; the op log below fails from
    /// the second append on.
    const FAILING_BURST: &str = concat!(
        "{\"op\":\"insert\",\"id\":1,\"row\":[\"f\",\"black\"]}\n",
        "{\"op\":\"insert\",\"id\":2,\"row\":[\"m\",\"asian\"]}\n",
        "{\"op\":\"insert\",\"id\":3,\"row\":[\"f\",\"white\"]}\n",
    );

    /// What [`FAILING_BURST`] answers: the first insert is logged, the
    /// second's append fails, and the third is revoked rather than appended
    /// past the hole.
    const FAILING_BURST_RESPONSES: [&str; 3] = [
        r#"{"ok":true,"id":1,"op":"insert","inserted":1,"rows":5}"#,
        r#"{"ok":false,"id":2,"code":"internal","error":"op applied but appending to the op log failed: injected append failure"}"#,
        r#"{"ok":false,"id":3,"code":"internal","error":"op applied but not logged: an earlier op-log append failed: injected append failure"}"#,
    ];

    /// A fresh op log at a per-test path.
    fn fresh_log(tag: &str) -> (std::path::PathBuf, crate::OpLog) {
        let path =
            std::env::temp_dir().join(format!("mithra-event-{tag}-{}.oplog", std::process::id()));
        std::fs::remove_file(&path).ok();
        (
            path.clone(),
            OpLog::open(&path, crate::SyncPolicy::Batch).unwrap(),
        )
    }

    /// A fresh op log whose appends fail from the second call on.
    fn failing_log(tag: &str) -> (std::path::PathBuf, Arc<Mutex<crate::OpLog>>) {
        let (path, mut log) = fresh_log(tag);
        log.fail_appends_from(2);
        (path, Arc::new(Mutex::new(log)))
    }

    /// The log file holds the first insert only: no entry past the hole.
    fn assert_logged_first_insert_only(path: &std::path::Path) {
        let entries = crate::oplog::read_entries_from(path, 1).unwrap();
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert_eq!(
            entries[0].op,
            LoggedOp::Insert {
                rows: vec![vec!["f".into(), "black".into()]]
            }
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_append_revokes_the_rest_of_an_event_loop_segment() {
        let (path, log) = failing_log("revoke-tcp");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Connect and write before the loop runs: the whole burst is
        // buffered by the time the connection is first read, so the three
        // inserts form one segment.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(FAILING_BURST.as_bytes()).unwrap();
        let engine = Arc::new(Mutex::new(test_engine()));
        let options = ServeOptions::default().with_oplog(Some(log));
        std::thread::spawn(move || {
            let _ = crate::serve(engine, options, listener);
        });
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut read_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        };
        let lines: Vec<String> = (0..3).map(|_| read_line()).collect();
        assert_eq!(lines, FAILING_BURST_RESPONSES);
        // The engine applied all three; only the log stops at the hole.
        stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let stats = crate::protocol::Json::parse(&read_line()).unwrap();
        assert_eq!(
            stats.get("rows").and_then(crate::protocol::Json::as_u64),
            Some(7)
        );
        assert_logged_first_insert_only(&path);
    }

    #[test]
    fn failed_append_revokes_the_rest_of_a_stdin_read() {
        let (path, log) = failing_log("revoke-stdin");
        let options = ServeOptions::default().with_oplog(Some(Arc::clone(&log)));
        let mut engine = test_engine();
        let mut output = Vec::new();
        // A byte slice is one read, so the burst is one segment.
        crate::serve_lines(&mut engine, &options, FAILING_BURST.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text.lines().collect::<Vec<_>>(), FAILING_BURST_RESPONSES);
        assert_eq!(engine.dataset().len(), 7);
        assert_eq!(log.lock().unwrap().last_seq(), 1);
        assert_logged_first_insert_only(&path);
    }

    #[test]
    fn failed_append_fails_each_later_handle_line_call() {
        let (path, log) = failing_log("revoke-handle-line");
        let options = ServeOptions::default().with_oplog(Some(Arc::clone(&log)));
        let mut engine = test_engine();
        let responses: Vec<String> = FAILING_BURST
            .lines()
            .map(|line| crate::handle_line(&mut engine, &options, line))
            .collect();
        // Each call is a segment of its own, so the third insert has no
        // earlier failure to be revoked behind: it reports its own failed
        // append, and is not appended past the hole either.
        assert_eq!(responses[..2], FAILING_BURST_RESPONSES[..2]);
        assert_eq!(
            responses[2],
            FAILING_BURST_RESPONSES[1].replace("\"id\":2", "\"id\":3")
        );
        assert_eq!(engine.dataset().len(), 7);
        assert_eq!(log.lock().unwrap().last_seq(), 1);
        assert_logged_first_insert_only(&path);
    }

    /// What [`FAILING_BURST`] answers when every append lands but the
    /// fsync closing the segment fails: each insert is applied and logged,
    /// and none of them is acknowledged as durable.
    fn sync_failed_responses() -> Vec<String> {
        (1..=3)
            .map(|id| {
                format!(
                    r#"{{"ok":false,"id":{id},"code":"internal","error":"op applied and logged, but the op-log fsync failed: injected fsync failure"}}"#
                )
            })
            .collect()
    }

    #[test]
    fn failed_fsync_revokes_every_success_of_its_segment() {
        let (path, mut log) = fresh_log("sync-stdin");
        log.fail_syncs_from(2);
        let mut engine = test_engine();
        // The first segment's fsync succeeds and its insert answers `ok`.
        let first = r#"{"op":"insert","id":0,"row":["m","white"]}"#;
        let options = ServeOptions::default();
        let mut slots = [None];
        let op = match request_work(first, &[None]) {
            PendingKind::Op {
                tenant,
                id,
                request,
            } => OpWork {
                slot: 0,
                tenant,
                id,
                request,
            },
            PendingKind::Ready(response) => panic!("{response}"),
        };
        serve_segment(
            &mut engine,
            Some(&mut log),
            &options,
            None,
            [op],
            &mut slots,
        );
        assert!(slots[0].as_deref().unwrap().starts_with(r#"{"ok":true"#));
        // The second segment's fsync fails: all three of its inserts are
        // in the log, and each answers `internal`; a read stays `ok`.
        let script = format!("{FAILING_BURST}{{\"op\":\"stats\"}}\n");
        let shared = Arc::new(Mutex::new(log));
        let options = options.with_oplog(Some(Arc::clone(&shared)));
        let mut output = Vec::new();
        crate::serve_lines(&mut engine, &options, script.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[..3], sync_failed_responses());
        assert!(lines[3].starts_with(r#"{"ok":true"#), "{}", lines[3]);
        assert_eq!(engine.dataset().len(), 8);
        assert_eq!(shared.lock().unwrap().last_seq(), 4);
        assert_eq!(crate::oplog::read_entries_from(&path, 1).unwrap().len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_fsync_revokes_the_successes_of_an_event_loop_segment() {
        let (path, mut log) = fresh_log("sync-tcp");
        log.fail_syncs_from(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(FAILING_BURST.as_bytes()).unwrap();
        let engine = Arc::new(Mutex::new(test_engine()));
        let options = ServeOptions::default().with_oplog(Some(Arc::new(Mutex::new(log))));
        std::thread::spawn(move || {
            let _ = crate::serve(engine, options, listener);
        });
        let mut reader = BufReader::new(stream);
        let lines: Vec<String> = (0..3)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line.trim_end().to_string()
            })
            .collect();
        assert_eq!(lines, sync_failed_responses());
        assert_eq!(crate::oplog::read_entries_from(&path, 1).unwrap().len(), 3);
        std::fs::remove_file(&path).ok();
    }

    /// One row over six ten-valued attributes: 54 level-1 MUPs, so each
    /// `mups` answer is about a kilobyte.
    fn wide_engine() -> CoverageEngine {
        let attributes = (0..6)
            .map(|i| Attribute::new(format!("a{i}"), 10).unwrap())
            .collect();
        let ds = Dataset::from_rows(Schema::new(attributes).unwrap(), &[vec![0; 6]]).unwrap();
        CoverageEngine::new(ds, Threshold::Count(1)).unwrap()
    }

    /// `io.requests` as another connection's `stats` reports it.
    fn served_requests(stream: &mut TcpStream, reader: &mut impl BufRead) -> u64 {
        stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let doc = crate::protocol::Json::parse(line.trim_end()).unwrap();
        doc.get("io")
            .and_then(|io| io.get("requests"))
            .and_then(crate::protocol::Json::as_u64)
            .unwrap()
    }

    /// Connection A pipelines `mups` requests and never reads. Once A owes
    /// more than [`MAX_WRITE_BACKLOG`] of responses the loop stops reading
    /// A, so A's kernel buffers fill and its writes are refused, while
    /// connection B is still answered. Once A reads what it is owed, the
    /// rest of its requests are served.
    #[test]
    fn write_backlog_cap_pauses_reading_until_the_client_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let engine = Arc::new(Mutex::new(wide_engine()));
        std::thread::spawn(move || {
            let _ = crate::serve(engine, ServeOptions::default(), listener);
        });
        // Padded to about the size of its answer, so buffered request bytes
        // and owed response bytes stay of one order.
        let request = format!("{{\"op\":\"mups\",\"pad\":\"{}\"}}\n", "x".repeat(1024));
        let burst = request.repeat(64);
        let mut a = TcpStream::connect(addr).unwrap();
        a.set_nonblocking(true).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        b.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut b_reader = BufReader::new(b.try_clone().unwrap());

        let mut sent = 0usize;
        let mut write_a = |sent: &mut usize| match a.write(&burst.as_bytes()[*sent % burst.len()..])
        {
            Ok(n) => {
                *sent += n;
                true
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
            Err(e) => panic!("write to A failed: {e}"),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            while Instant::now() < deadline && write_a(&mut sent) {}
            // A is refused: paused by the cap only if the loop stays idle
            // (B's own `stats` is the one request served in between) and A
            // is still refused afterwards.
            let before = served_requests(&mut b, &mut b_reader);
            std::thread::sleep(Duration::from_millis(100));
            let after = served_requests(&mut b, &mut b_reader);
            if after == before + 1 && !write_a(&mut sent) {
                assert!(
                    after < (sent / request.len()) as u64,
                    "A's buffered requests must still be unserved"
                );
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the loop kept reading a connection that never reads"
            );
        }

        // A drains: every request it sent is answered, in order, and the
        // request it sends after the pause is served too.
        a.set_nonblocking(false).unwrap();
        a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = {
            let mut reader = BufReader::new(a.try_clone().unwrap());
            std::thread::spawn(move || {
                let mut answered = 0usize;
                let mut line = String::new();
                loop {
                    line.clear();
                    assert!(reader.read_line(&mut line).unwrap() > 0, "A was closed");
                    answered += 1;
                    if line.contains("\"id\":\"end\"") {
                        return answered;
                    }
                    assert!(line.starts_with("{\"ok\":true,\"op\":\"mups\""), "{line}");
                }
            })
        };
        let partial = sent % request.len();
        if partial > 0 {
            a.write_all(&request.as_bytes()[partial..]).unwrap();
            sent += request.len() - partial;
        }
        a.write_all(b"{\"op\":\"stats\",\"id\":\"end\"}\n").unwrap();
        assert_eq!(reader.join().unwrap(), sent / request.len() + 1);
    }
}
