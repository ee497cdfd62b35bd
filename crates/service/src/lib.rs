//! # coverage-service
//!
//! The serving layer that turns the ICDE 2019 reproduction from an offline
//! batch job into a long-lived system: a [`CoverageEngine`] owns a mutable
//! dataset + coverage backend and maintains the MUP set **incrementally** as
//! tuples stream in, and a newline-delimited JSON protocol exposes it over
//! stdin/stdout or TCP (`mithra serve`).
//!
//! The engine is generic over [`coverage_index::CoverageBackend`]: the
//! default is the single-shard [`coverage_index::CoverageOracle`], while
//! `mithra serve --shards N` runs a [`ShardedCoverageEngine`] whose
//! [`coverage_index::ShardedOracle`] ingests batches and answers wide
//! probes with one thread per row shard.
//!
//! Modules:
//!
//! * [`engine`] — the incremental engine (insert/remove plus batch forms,
//!   value-dictionary growth, cached coverage queries, enhancement
//!   planning, rate-threshold re-resolution);
//! * [`delta`] — how a batch of inserts or deletes moves the MUP frontier
//!   (inserts retire covered MUPs and walk the region below them; deletes
//!   walk the deleted tuple's match sublattice and retire dominated MUPs);
//! * [`cache`] — the bounded LRU pattern-coverage memo, invalidated only
//!   for patterns matching the delta;
//! * [`snapshot`] — versioned on-disk engine state, so a restarted server
//!   resumes without a full re-audit; since v4 a snapshot carries the op-log
//!   sequence number it captured (`oplog_seq`), anchoring tail replay;
//! * [`oplog`] — the append-only durability log (`--oplog`): every applied
//!   mutation becomes one NDJSON entry with a dense sequence number, so
//!   recovery is snapshot + tail replay and followers can stream the tail;
//! * [`replica`] — read-only followers (`mithra serve --follow`): a
//!   background thread polls the leader's `replicate` op (or tails a shared
//!   log file) and applies entries through the ordinary engine path;
//! * [`tenant`] — multi-dataset tenancy (`mithra serve --datasets`): N
//!   engines behind one event loop, routed by the optional `"dataset"`
//!   request field;
//! * [`protocol`] — hand-rolled NDJSON request parsing and response
//!   serialization (no external dependencies), including the request
//!   envelope (optional client `id`, echoed back) and the stable
//!   machine-readable error-code table;
//! * [`server`] — the [`server::ServeOptions`] builder, the request
//!   dispatcher, and the three entry points: [`handle_line`] (one request
//!   in, one response out), [`serve_lines`] (stdin/stdout), and [`serve`]
//!   (TCP);
//! * `event` (internal) — the request pipeline every entry point runs
//!   (one segment step: coalesce, dispatch, stage op-log appends, append,
//!   sync), and the TCP front end: a readiness-driven event loop (epoll on
//!   Linux, portable fallback elsewhere) that multiplexes every connection
//!   on one thread, reassembles fragmented NDJSON frames incrementally,
//!   coalesces concurrent inserts into single engine batches, and defers
//!   reading further requests to a later tick once a tick has admitted
//!   `--max-pending` of them;
//! * [`net`] — the in-tree poll shim over `std::net` the event loop runs
//!   on (hand-declared epoll FFI; no external dependencies);
//! * [`metrics`] — allocation-free log-bucketed latency histograms and
//!   serving counters, surfaced through the `stats` op's `"io"` section.
//!
//! ## Quickstart
//!
//! ```
//! use coverage_core::Threshold;
//! use coverage_data::{Dataset, Schema};
//! use coverage_service::CoverageEngine;
//!
//! // Example 1 of the paper: the lone MUP is 1XX…
//! let dataset = Dataset::from_rows(
//!     Schema::binary(3)?,
//!     &[vec![0, 1, 0], vec![0, 0, 1], vec![0, 0, 0], vec![0, 1, 1], vec![0, 0, 1]],
//! )?;
//! let mut engine = CoverageEngine::new(dataset, Threshold::Count(1))?;
//! assert_eq!(engine.mups().len(), 1);
//!
//! // …until a matching tuple arrives, which retires it incrementally.
//! engine.insert(&[1, 0, 1])?;
//! assert_eq!(
//!     engine.mups().iter().map(|m| m.to_string()).collect::<Vec<_>>(),
//!     ["11X", "1X0"]
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cache;
pub mod delta;
pub mod engine;
mod event;
pub mod metrics;
pub mod net;
pub mod oplog;
pub mod protocol;
pub mod replica;
pub mod server;
pub mod snapshot;
pub mod tenant;

pub use cache::CoverageCache;
pub use delta::DeltaOutcome;
pub use engine::{CoverageEngine, EngineStats, DEFAULT_CACHE_CAPACITY};

/// The multi-core serving engine behind `mithra serve --shards N`: a
/// [`CoverageEngine`] over a row-sharded oracle.
pub type ShardedCoverageEngine = CoverageEngine<coverage_index::ShardedOracle>;

/// The compressed serving engine behind `mithra serve --backend compressed`:
/// a [`CoverageEngine`] over row shards of Roaring-style
/// [`coverage_index::CompressedOracle`] posting lists.
pub type CompressedCoverageEngine =
    CoverageEngine<coverage_index::ShardedOracle<coverage_index::CompressedOracle>>;
pub use metrics::ServeMetrics;
pub use oplog::{LogEntry, LoggedOp, OpLog, SyncPolicy, OPLOG_VERSION};
pub use replica::{apply_entry, replay_entries, run_follower, ReplicaSource, ReplicationStatus};
pub use server::{handle_line, serve, serve_lines, ServeOptions, DEFAULT_MAX_PENDING};
pub use snapshot::{
    load_snapshot, load_snapshot_anchored, load_snapshot_with_layout, save_snapshot,
    save_snapshot_anchored, snapshot_backend, SNAPSHOT_VERSION,
};
pub use tenant::{serve_tenants, DatasetCounters, TenantSpec};

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServiceError {
    /// The request was structurally valid but semantically rejected
    /// (arity mismatch, unknown value, out-of-range λ, …).
    BadRequest(String),
    /// A delete names more copies of a row than the dataset holds.
    RowNotFound(String),
    /// A snapshot could not be written, read, or understood.
    Snapshot(String),
    /// An underlying algorithm error (threshold resolution, enhancement).
    Core(coverage_core::CoverageError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(msg) => write!(f, "{msg}"),
            ServiceError::RowNotFound(msg) => write!(f, "{msg}"),
            ServiceError::Snapshot(msg) => write!(f, "snapshot: {msg}"),
            ServiceError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::BadRequest(_)
            | ServiceError::RowNotFound(_)
            | ServiceError::Snapshot(_) => None,
            ServiceError::Core(e) => Some(e),
        }
    }
}

impl From<coverage_core::CoverageError> for ServiceError {
    fn from(e: coverage_core::CoverageError) -> Self {
        ServiceError::Core(e)
    }
}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, ServiceError>;
