//! Multi-dataset tenancy: one process, one event loop, N independent
//! engines (`mithra serve --datasets <spec>`).
//!
//! Every request may carry an optional `"dataset"` field naming the engine
//! it targets; requests without one route to the **default** dataset
//! (tenant 0), so every existing client keeps working byte-for-byte.
//! Tenants share the event loop thread, the per-tick admission-control
//! budget, and the I/O metrics; each has its own [`crate::CoverageEngine`]
//! and [`crate::oplog::OpLog`], both owned by the loop while it runs, and
//! its own snapshot path (carried in its own [`ServeOptions`]).
//! Per-dataset request counters surface in the `stats` op as
//! `io.datasets`.
//!
//! Tenancy rides the TCP front end only — stdin and `handle_line` serve a
//! single unnamed dataset and answer `unknown_dataset` to any `"dataset"`
//! routing.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use coverage_index::CoverageBackend;

use crate::engine::CoverageEngine;
use crate::event::{serve_event_tenants, EventTenant};
use crate::oplog::OpLog;
use crate::protocol::{ErrorCode, ServeError};
use crate::server::ServeOptions;

/// Per-dataset serving counters, surfaced as `stats.io.datasets`.
#[derive(Debug)]
pub struct DatasetCounters {
    name: String,
    requests: AtomicU64,
}

impl DatasetCounters {
    /// Fresh counters for the dataset named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        DatasetCounters {
            name: name.into(),
            requests: AtomicU64::new(0),
        }
    }

    /// The dataset's routing name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Requests routed to this dataset (engine-bound ones; malformed
    /// requests are not attributed).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    pub(crate) fn add_requests(&self, n: u64) {
        self.requests.fetch_add(n, Ordering::Relaxed);
    }
}

/// One hosted dataset: its routing name, the engine and op log the event
/// loop takes over, and per-tenant options (snapshot path, growth mode —
/// the shared knobs like the `max_pending` admission budget are read from
/// tenant 0).
pub struct TenantSpec<B: CoverageBackend> {
    /// The `"dataset"` request field that routes here. Tenant 0's name is
    /// also implied by requests with no `"dataset"` field at all.
    pub name: String,
    /// The engine serving this dataset.
    pub engine: CoverageEngine<B>,
    /// This dataset's op log, if it is a durable leader.
    pub oplog: Option<OpLog>,
    /// This dataset's serving options (its own snapshot path). A shared
    /// op log attached with [`ServeOptions::with_oplog`] is refused: the
    /// log goes in [`Self::oplog`].
    pub options: ServeOptions,
}

impl<B: CoverageBackend> TenantSpec<B> {
    /// Bundles a named engine, its op log and its options into a tenant.
    pub fn new(
        name: impl Into<String>,
        engine: CoverageEngine<B>,
        oplog: Option<OpLog>,
        options: ServeOptions,
    ) -> Self {
        TenantSpec {
            name: name.into(),
            engine,
            oplog,
            options,
        }
    }
}

/// Resolves a request's optional `"dataset"` field against the hosted
/// tenant names (`None` = the single unnamed dataset of a non-tenant
/// server). Absent routing always lands on tenant 0.
pub(crate) fn resolve_tenant(
    names: &[Option<String>],
    requested: Option<&str>,
) -> Result<usize, ServeError> {
    let Some(name) = requested else {
        return Ok(0);
    };
    if let Some(index) = names.iter().position(|n| n.as_deref() == Some(name)) {
        return Ok(index);
    }
    if names.len() == 1 && names[0].is_none() {
        return Err(crate::server::unknown_dataset_error(name));
    }
    let hosted: Vec<&str> = names
        .iter()
        .map(|n| n.as_deref().unwrap_or("default"))
        .collect();
    Err(ServeError::new(
        ErrorCode::UnknownDataset,
        format!("unknown dataset `{name}` (hosting: {})", hosted.join(", ")),
    ))
}

/// Serves several datasets from one event loop until the listener fails.
/// Requires at least one tenant and unique names; tenant 0 is the default
/// dataset that un-routed requests land on.
pub fn serve_tenants<B: CoverageBackend>(
    mut tenants: Vec<TenantSpec<B>>,
    listener: TcpListener,
) -> io::Result<()> {
    if let Some(t) = tenants.iter().find(|t| t.options.has_shared_oplog()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "dataset `{}`: pass its op log in `TenantSpec::oplog`, not `ServeOptions`",
                t.name
            ),
        ));
    }
    for (i, a) in tenants.iter().enumerate() {
        for b in &tenants[i + 1..] {
            if a.name == b.name {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate dataset name `{}`", a.name),
                ));
            }
        }
    }
    let directory: Arc<Vec<Arc<DatasetCounters>>> = Arc::new(
        tenants
            .iter()
            .map(|t| Arc::new(DatasetCounters::new(t.name.clone())))
            .collect(),
    );
    let event_tenants: Vec<EventTenant<'_, B>> = tenants
        .iter_mut()
        .zip(directory.iter())
        .map(|(t, counters)| EventTenant {
            name: Some(t.name.clone()),
            engine: &mut t.engine,
            oplog: t.oplog.as_mut(),
            options: t
                .options
                .clone()
                .with_dataset_directory(Some(Arc::clone(&directory))),
            counters: Some(Arc::clone(counters)),
        })
        .collect();
    serve_event_tenants(event_tenants, None, listener)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[Option<&str>]) -> Vec<Option<String>> {
        list.iter().map(|n| n.map(str::to_string)).collect()
    }

    #[test]
    fn absent_routing_lands_on_the_default_tenant() {
        assert_eq!(resolve_tenant(&names(&[None]), None), Ok(0));
        assert_eq!(
            resolve_tenant(&names(&[Some("default"), Some("hr")]), None),
            Ok(0)
        );
    }

    #[test]
    fn named_routing_resolves_or_rejects() {
        let hosted = names(&[Some("default"), Some("hr")]);
        assert_eq!(resolve_tenant(&hosted, Some("hr")), Ok(1));
        assert_eq!(resolve_tenant(&hosted, Some("default")), Ok(0));
        let err = resolve_tenant(&hosted, Some("sales")).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownDataset);
        assert!(
            err.message.contains("hosting: default, hr"),
            "{}",
            err.message
        );
    }

    #[test]
    fn single_unnamed_servers_reject_all_routing() {
        let err = resolve_tenant(&names(&[None]), Some("default")).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownDataset);
        assert!(err.message.contains("--datasets"), "{}", err.message);
    }
}
