//! `mithra` — command-line coverage auditing for CSV datasets.
//!
//! ```text
//! mithra audit        <file.csv> --attrs sex,race,age --tau 30 [--max-level L]
//! mithra enhance      <file.csv> --attrs sex,race,age --tau 30 --lambda 2
//! mithra serve        <file.csv> --attrs sex,race,age --tau 30 [--listen ADDR] [--snapshot PATH] [--backend dense|compressed]
//! mithra loadgen      [--connections N] [--secs S] …
//! mithra bench-report [--quick]
//! ```
//!
//! `audit` prints the coverage report (MUPs per level, maximum covered
//! level, decoded patterns); `enhance` additionally plans the minimum data
//! collection that fixes every uncovered pattern at level λ; `serve` keeps
//! the dataset live behind an incremental coverage engine and answers
//! newline-delimited JSON requests on stdin/stdout (or TCP with
//! `--listen`). The serving engine shards its coverage index over
//! `--shards N` row partitions (default: one per available core, capped so
//! every shard starts with a few thousand rows) for multi-core ingest and
//! wide probes. With
//! `--snapshot PATH` the served state persists across restarts: an existing
//! snapshot is restored without a re-audit. `--backend compressed` swaps the
//! dense per-value bit vectors for Roaring-style compressed posting lists —
//! same answers, a fraction of the memory on sparse/high-cardinality data.

use std::io::Write;
use std::process::ExitCode;

use mithra::data::io::read_csv_auto_path;
use mithra::prelude::*;

/// `println!` that exits quietly when stdout is a closed pipe (e.g.
/// `mithra audit … | head`) instead of panicking with a backtrace.
macro_rules! out {
    ($($arg:tt)*) => {
        if let Err(e) = writeln!(std::io::stdout(), $($arg)*) {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                std::process::exit(0);
            }
            return Err(format!("cannot write to stdout: {e}"));
        }
    };
}

/// Which coverage-index representation `serve` runs on. Both give
/// bit-identical answers; they trade memory for per-probe constant factors
/// (see `coverage_index::CompressedOracle`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// One dense bitmap per (attribute, value), plus the coverage lattice
    /// when the schema fits its budget — fastest point probes.
    Dense,
    /// Roaring-style compressed posting lists — a fraction of the memory
    /// on sparse or high-cardinality data.
    Compressed,
}

#[derive(Debug)]
struct Args {
    command: String,
    file: String,
    attrs: Vec<String>,
    tau: Threshold,
    lambda: usize,
    max_level: Option<usize>,
    limit: usize,
    listen: Option<String>,
    snapshot: Option<std::path::PathBuf>,
    /// `None` = default (machine parallelism for fresh starts, the
    /// snapshot's recorded layout on restore).
    shards: Option<usize>,
    /// Auto-register unknown value strings on insert (dictionary growth).
    grow_schema: bool,
    /// Event-loop admission budget: engine-bound requests admitted per tick;
    /// further requests wait, unread, for a later tick.
    max_pending: usize,
    /// Append-only durability log: every applied mutation is recorded here,
    /// and recovery is snapshot + tail replay.
    oplog: Option<std::path::PathBuf>,
    /// Fsync policy for the op log.
    oplog_sync: coverage_service::SyncPolicy,
    /// Run as a read-only follower tailing this leader (`host:port` for the
    /// `replicate` protocol op, or a path to the leader's log file).
    follow: Option<String>,
    /// Extra named datasets to host next to the default one:
    /// `(name, csv path)` pairs from `--datasets name=file.csv,…`.
    datasets: Vec<(String, String)>,
    /// `None` = default (the backend an existing snapshot was taken under,
    /// dense for fresh starts).
    backend: Option<Backend>,
}

fn usage() -> String {
    "usage:\n  mithra audit        <file.csv> --attrs a,b,c --tau N|--rate F [--max-level L] [--limit K]\n  mithra enhance      <file.csv> --attrs a,b,c --tau N|--rate F --lambda L\n  mithra serve        <file.csv> --attrs a,b,c --tau N|--rate F [--listen ADDR] [--max-pending N] [--shards N] [--backend dense|compressed] [--snapshot PATH] [--grow-schema]\n                      [--oplog PATH] [--oplog-sync always|batch|off] [--follow ADDR|PATH] [--datasets name=file.csv,…]\n  mithra loadgen      [--connections N] [--secs S] [--mix I,C] [--deletes PCT] …\n  mithra bench-report [--quick]"
        .to_string()
}

/// Formats a flag-value error with the usage text attached, so every
/// malformed invocation tells the user how to fix it.
fn flag_error(flag: &str, detail: impl std::fmt::Display) -> String {
    format!("{flag}: {detail}\n{}", usage())
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = argv.next().ok_or_else(usage)?;
    if !matches!(command.as_str(), "audit" | "enhance" | "serve") {
        return Err(usage());
    }
    let file = argv.next().ok_or_else(usage)?;
    let mut attrs = Vec::new();
    let mut tau = None;
    let mut lambda = None;
    let mut max_level = None;
    let mut limit = None;
    let mut listen = None;
    let mut snapshot = None;
    let mut shards = None;
    let mut grow_schema = false;
    let mut max_pending = None;
    let mut oplog = None;
    let mut oplog_sync = None;
    let mut follow = None;
    let mut datasets: Vec<(String, String)> = Vec::new();
    let mut backend = None;
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| flag_error(&flag, "missing value"))
        };
        match flag.as_str() {
            "--attrs" => {
                attrs = value()?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--tau" => {
                let count: u64 = value()?.parse().map_err(|e| flag_error("--tau", e))?;
                if count == 0 {
                    return Err(flag_error("--tau", "threshold must be at least 1"));
                }
                tau = Some(Threshold::Count(count));
            }
            "--rate" => {
                let rate: f64 = value()?.parse().map_err(|e| flag_error("--rate", e))?;
                if !rate.is_finite() || rate <= 0.0 || rate > 1.0 {
                    return Err(flag_error(
                        "--rate",
                        format!("rate must be a fraction in (0, 1], got `{rate}`"),
                    ));
                }
                tau = Some(Threshold::Fraction(rate));
            }
            "--lambda" => {
                let level: usize = value()?.parse().map_err(|e| flag_error("--lambda", e))?;
                if level == 0 {
                    return Err(flag_error("--lambda", "level must be at least 1"));
                }
                lambda = Some(level);
            }
            "--max-level" => {
                let level: usize = value()?.parse().map_err(|e| flag_error("--max-level", e))?;
                if level == 0 {
                    // Level 0 would silently explore nothing and report the
                    // dataset as fully covered.
                    return Err(flag_error("--max-level", "level must be at least 1"));
                }
                max_level = Some(level);
            }
            "--limit" => limit = Some(value()?.parse().map_err(|e| flag_error("--limit", e))?),
            "--listen" => listen = Some(value()?),
            "--snapshot" => snapshot = Some(std::path::PathBuf::from(value()?)),
            "--shards" => {
                let count: usize = value()?.parse().map_err(|e| flag_error("--shards", e))?;
                if count == 0 {
                    return Err(flag_error("--shards", "need at least one shard"));
                }
                shards = Some(count);
            }
            "--grow-schema" => grow_schema = true,
            "--backend" => {
                backend = Some(match value()?.as_str() {
                    "dense" => Backend::Dense,
                    "compressed" => Backend::Compressed,
                    other => {
                        return Err(flag_error(
                            "--backend",
                            format!("unknown backend `{other}` (expected dense or compressed)"),
                        ));
                    }
                })
            }
            "--max-pending" => {
                let bound: usize = value()?
                    .parse()
                    .map_err(|e| flag_error("--max-pending", e))?;
                if bound == 0 {
                    return Err(flag_error("--max-pending", "need at least one slot"));
                }
                max_pending = Some(bound);
            }
            "--oplog" => oplog = Some(std::path::PathBuf::from(value()?)),
            "--oplog-sync" => {
                let text = value()?;
                oplog_sync = Some(coverage_service::SyncPolicy::parse(&text).ok_or_else(|| {
                    flag_error(
                        "--oplog-sync",
                        format!("unknown policy `{text}` (expected always, batch, or off)"),
                    )
                })?);
            }
            "--follow" => follow = Some(value()?),
            "--datasets" => {
                for part in value()?.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    let Some((name, file)) = part.split_once('=') else {
                        return Err(flag_error(
                            "--datasets",
                            format!("`{part}` is not `name=file.csv`"),
                        ));
                    };
                    let (name, file) = (name.trim(), file.trim());
                    if name.is_empty() || file.is_empty() {
                        return Err(flag_error(
                            "--datasets",
                            format!("`{part}` is not `name=file.csv`"),
                        ));
                    }
                    if name == "default" {
                        return Err(flag_error(
                            "--datasets",
                            "`default` names the positional <file.csv>; pick another name",
                        ));
                    }
                    if datasets.iter().any(|(n, _)| n == name) {
                        return Err(flag_error(
                            "--datasets",
                            format!("dataset `{name}` given twice"),
                        ));
                    }
                    datasets.push((name.to_string(), file.to_string()));
                }
                if datasets.is_empty() {
                    return Err(flag_error("--datasets", "needs at least one name=file.csv"));
                }
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if attrs.is_empty() {
        return Err(format!("--attrs is required\n{}", usage()));
    }
    if command != "audit" && max_level.is_some() {
        // A level-bounded search can miss deep MUPs, which would make the
        // enhancement plan (or the served MUP set) silently incomplete.
        return Err(flag_error("--max-level", "only supported with `audit`"));
    }
    if command != "serve"
        && (listen.is_some()
            || snapshot.is_some()
            || shards.is_some()
            || max_pending.is_some()
            || oplog.is_some()
            || oplog_sync.is_some()
            || follow.is_some()
            || !datasets.is_empty()
            || grow_schema
            || backend.is_some())
    {
        let flag = if listen.is_some() {
            "--listen"
        } else if shards.is_some() {
            "--shards"
        } else if backend.is_some() {
            "--backend"
        } else if max_pending.is_some() {
            "--max-pending"
        } else if oplog.is_some() {
            "--oplog"
        } else if oplog_sync.is_some() {
            "--oplog-sync"
        } else if follow.is_some() {
            "--follow"
        } else if !datasets.is_empty() {
            "--datasets"
        } else if grow_schema {
            "--grow-schema"
        } else {
            "--snapshot"
        };
        return Err(flag_error(flag, "only supported with `serve`"));
    }
    if oplog_sync.is_some() && oplog.is_none() {
        return Err(flag_error("--oplog-sync", "requires --oplog"));
    }
    if follow.is_some() {
        // A follower's mutations come from the leader's log, so its own
        // durability/growth/tenancy knobs are contradictions, and the
        // replication thread needs a shared (TCP-mode) engine.
        for (set, flag) in [
            (oplog.is_some(), "--oplog"),
            (!datasets.is_empty(), "--datasets"),
            (grow_schema, "--grow-schema"),
        ] {
            if set {
                return Err(flag_error(flag, "cannot be combined with --follow"));
            }
        }
        if listen.is_none() {
            return Err(flag_error("--follow", "requires --listen"));
        }
    }
    if !datasets.is_empty() && listen.is_none() {
        return Err(flag_error("--datasets", "requires --listen"));
    }
    if command == "serve" && listen.is_none() && max_pending.is_some() {
        // stdin/stdout mode admits every request; silently ignoring the
        // bound would hide a forgotten --listen.
        return Err(flag_error("--max-pending", "requires --listen"));
    }
    if command == "serve" && (lambda.is_some() || limit.is_some()) {
        // λ comes per-request over the protocol (`{"op":"enhance",...}`);
        // silently ignoring these would hide a typo'd invocation.
        let flag = if lambda.is_some() {
            "--lambda"
        } else {
            "--limit"
        };
        return Err(flag_error(flag, "not supported with `serve`"));
    }
    Ok(Args {
        command,
        file,
        attrs,
        tau: tau.ok_or_else(|| format!("--tau or --rate is required\n{}", usage()))?,
        lambda: lambda.unwrap_or(2),
        max_level,
        limit: limit.unwrap_or(20),
        listen,
        snapshot,
        shards,
        grow_schema,
        max_pending: max_pending.unwrap_or(coverage_service::DEFAULT_MAX_PENDING),
        oplog,
        oplog_sync: oplog_sync.unwrap_or_default(),
        follow,
        datasets,
        backend,
    })
}

fn decode(pattern: &Pattern, ds: &Dataset) -> String {
    let parts: Vec<String> = (0..ds.arity())
        .filter_map(|i| {
            pattern.get(i).map(|v| {
                format!(
                    "{}={}",
                    ds.schema().attribute(i).name(),
                    ds.schema().attribute(i).value_name(v)
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

/// Below this many rows per shard, the per-probe overhead of walking extra
/// shards outweighs any ingest parallelism, so the default layout stops
/// splitting (an explicit `--shards` is always honored as given).
const MIN_ROWS_PER_SHARD: usize = 4096;

/// Row-shard count when `--shards` is not given: one shard per available
/// core, capped so every shard starts with at least [`MIN_ROWS_PER_SHARD`]
/// rows — a 100-row dataset on a 64-core host serves from one shard, not
/// 64 near-empty ones.
fn default_shards(rows: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    cores.min(rows / MIN_ROWS_PER_SHARD).max(1)
}

/// Picks the serving backend: an explicit `--backend` always wins; without
/// one, an existing snapshot keeps the backend it was taken under (the same
/// stickiness `--shards` has for shard layout), and fresh starts are dense.
fn resolve_backend(args: &Args) -> Result<Backend, String> {
    if let Some(backend) = args.backend {
        return Ok(backend);
    }
    if let Some(path) = args.snapshot.as_deref() {
        if path.exists() {
            let family = mithra::service::snapshot_backend(path).map_err(|e| e.to_string())?;
            return Ok(match family {
                "compressed" => Backend::Compressed,
                _ => Backend::Dense,
            });
        }
    }
    Ok(Backend::Dense)
}

/// Builds one serving engine — sharded over `--shards N` row partitions of
/// the chosen per-shard backend `O` — restored from `snapshot` when that
/// file exists (no re-audit — the whole point of snapshots), freshly
/// audited from the CSV at `file` otherwise.
/// On restore the snapshot's recorded shard layout wins unless `--shards`
/// was given explicitly, in which case the backend is re-laid-out (cheap:
/// the MUP set stays valid). Also returns the op-log anchor: the log seq
/// the restored snapshot captured (0 for fresh audits and pre-v4
/// snapshots), i.e. where tail replay starts.
fn serve_engine<O: mithra::index::CoverageBackend>(
    args: &Args,
    file: &str,
    snapshot: Option<&std::path::Path>,
) -> Result<
    (
        mithra::service::CoverageEngine<mithra::index::ShardedOracle<O>>,
        u64,
    ),
    String,
> {
    if let Some(path) = snapshot {
        if path.exists() {
            // An explicit --shards overrides the snapshot's recorded layout
            // *at load time*, so the index is built exactly once.
            let (engine, anchor) = mithra::service::load_snapshot_anchored::<
                mithra::index::ShardedOracle<O>,
            >(path, args.shards)
            .map_err(|e| e.to_string())?;
            if engine.threshold() != args.tau {
                return Err(format!(
                    "snapshot {} was taken under a different threshold ({:?}, CLI asked {:?}); \
                     pass the matching --tau/--rate or delete the snapshot to re-audit",
                    path.display(),
                    engine.threshold(),
                    args.tau
                ));
            }
            // The CSV is not read on restore, so --attrs is the only clue to
            // which dataset the operator *meant* to serve — refuse a snapshot
            // over different attributes rather than silently serving it.
            let schema = engine.dataset().schema();
            let names: Vec<&str> = (0..schema.arity())
                .map(|i| schema.attribute(i).name())
                .collect();
            if names != args.attrs.iter().map(String::as_str).collect::<Vec<_>>() {
                return Err(format!(
                    "snapshot {} covers attributes [{}] but the CLI asked for [{}]; \
                     pass the matching --attrs or delete the snapshot to re-audit",
                    path.display(),
                    names.join(","),
                    args.attrs.join(",")
                ));
            }
            eprintln!("restored engine from snapshot {}", path.display());
            return Ok((engine, anchor));
        }
    }
    let attr_refs: Vec<&str> = args.attrs.iter().map(String::as_str).collect();
    let ds = read_csv_auto_path(file, &attr_refs, None).map_err(|e| format!("{file}: {e}"))?;
    let shards = args.shards.unwrap_or_else(|| default_shards(ds.len()));
    let engine = mithra::service::CoverageEngine::<mithra::index::ShardedOracle<O>>::with_shards(
        ds, args.tau, shards,
    )
    .map_err(|e| e.to_string())?;
    Ok((engine, 0))
}

/// Opens (or creates) the leader's op log and replays any tail past the
/// snapshot anchor into the engine, completing crash recovery: rows
/// acknowledged after the last snapshot come back from the log.
fn recover_oplog<O: mithra::index::CoverageBackend>(
    engine: &mut mithra::service::CoverageEngine<mithra::index::ShardedOracle<O>>,
    path: &std::path::Path,
    sync: coverage_service::SyncPolicy,
    anchor: u64,
) -> Result<std::sync::Arc<std::sync::Mutex<coverage_service::OpLog>>, String> {
    use std::sync::{Arc, Mutex};
    let log = coverage_service::OpLog::open_anchored(path, sync, anchor)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    // Replay a page at a time, so recovery holds at most one page of
    // parsed entries however long the tail is.
    let mut applied = anchor;
    let mut replayed = 0;
    loop {
        let page = log
            .entries_from(applied + 1, coverage_service::oplog::REPLICATE_BATCH_LIMIT)
            .map_err(|oldest| {
                format!(
                    "op log {} retains entries only from seq {oldest}, but the snapshot was \
                     anchored at seq {anchor}; the intervening entries are gone — restore a newer \
                     snapshot or delete both to re-audit from the CSV",
                    path.display()
                )
            })?;
        if page.is_empty() {
            break;
        }
        let entries = page
            .entries()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        replayed += entries.len();
        applied = mithra::service::replay_entries(engine, &entries, applied)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if replayed > 0 {
        eprintln!(
            "replayed {replayed} op-log entries (seq {}..={applied}) from {}",
            anchor + 1,
            path.display()
        );
    }
    Ok(Arc::new(Mutex::new(log)))
}

/// Appends `.name` to a base path: with `--datasets`, each named dataset
/// derives its snapshot/op-log path from the base flags (`state.snapshot`
/// → `state.snapshot.hr`); the default dataset uses the base itself.
fn dataset_path(base: &std::path::Path, name: &str) -> std::path::PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(".");
    os.push(name);
    std::path::PathBuf::from(os)
}

/// Binds the `--listen` address and reports the resolved local address.
fn bind_listener(addr: &str) -> Result<(std::net::TcpListener, String), String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    Ok((listener, local))
}

/// Maps the serve loop's exit into the CLI's result: a client hanging up
/// (e.g. `| head`) is a normal way to stop.
fn served(result: std::io::Result<()>) -> Result<(), String> {
    match result {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("serve: {e}")),
    }
}

/// `serve`: keep the dataset live behind an incremental engine and answer
/// NDJSON requests on stdin/stdout, or on TCP when `--listen` is given.
/// Diagnostics go to stderr — stdout carries protocol lines only.
///
/// The backend decision happens exactly once, here: every serving flavor
/// (leader, follower, multi-dataset) below is generic over the per-shard
/// oracle and gets monomorphized for both representations.
fn serve(args: &Args) -> Result<(), String> {
    match resolve_backend(args)? {
        Backend::Dense => serve_with::<CoverageOracle>(args),
        Backend::Compressed => serve_with::<CompressedOracle>(args),
    }
}

/// The serve flow for one concrete per-shard backend `O`.
fn serve_with<O: CoverageBackend>(args: &Args) -> Result<(), String> {
    if !args.datasets.is_empty() {
        return serve_datasets::<O>(args);
    }
    if args.follow.is_some() {
        return serve_follower::<O>(args);
    }
    let (mut engine, anchor) = serve_engine::<O>(args, &args.file, args.snapshot.as_deref())?;
    let oplog = match args.oplog.as_deref() {
        Some(path) => Some(recover_oplog(&mut engine, path, args.oplog_sync, anchor)?),
        None => None,
    };
    eprintln!(
        "mithra serve: {} rows, {} attributes, τ = {}, {} MUP(s), {} shard(s), {} backend",
        engine.dataset().len(),
        engine.dataset().arity(),
        engine.tau(),
        engine.mups().len(),
        engine.shards(),
        engine.oracle().backend_name()
    );
    if let Some(log) = &oplog {
        let log = log.lock().unwrap();
        eprintln!(
            "op log {} at seq {} ({} sync)",
            log.path().display(),
            log.last_seq(),
            log.sync_policy().as_str()
        );
    }
    let options = mithra::service::ServeOptions::new()
        .with_snapshot_path(args.snapshot.clone())
        .with_grow_schema(args.grow_schema)
        .with_max_pending(args.max_pending)
        .with_oplog(oplog);
    match &args.listen {
        Some(addr) => {
            let (listener, local) = bind_listener(addr)?;
            eprintln!(
                "listening on {local} (event loop, max {} pending requests/tick)",
                args.max_pending
            );
            let shared = std::sync::Arc::new(std::sync::Mutex::new(engine));
            served(mithra::service::serve(shared, options, listener))
        }
        None => {
            let stdin = std::io::stdin();
            served(mithra::service::serve_lines(
                &mut engine,
                &options,
                stdin.lock(),
                std::io::stdout(),
            ))
        }
    }
}

/// How often a follower polls its leader for new log entries.
const FOLLOW_POLL: std::time::Duration = std::time::Duration::from_millis(200);

/// `serve --follow`: bootstrap the engine (snapshot or CSV), start the
/// replication thread tailing the leader, and serve read-only requests.
fn serve_follower<O: CoverageBackend>(args: &Args) -> Result<(), String> {
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    let spec = args.follow.as_deref().expect("checked by caller");
    let (engine, anchor) = serve_engine::<O>(args, &args.file, args.snapshot.as_deref())?;
    let source = mithra::service::ReplicaSource::parse(spec);
    let status = Arc::new(mithra::service::ReplicationStatus::new(
        source.describe(),
        anchor,
    ));
    eprintln!(
        "mithra serve: read-only follower of {}, {} rows, {} MUP(s), tailing from seq {}",
        status.source(),
        engine.dataset().len(),
        engine.mups().len(),
        anchor + 1
    );
    let engine = Arc::new(Mutex::new(engine));
    let stop = Arc::new(AtomicBool::new(false));
    {
        let engine = Arc::clone(&engine);
        let status = Arc::clone(&status);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            if let Err(e) = mithra::service::run_follower(engine, source, status, FOLLOW_POLL, stop)
            {
                // A fatal replication error means this replica's answers
                // can no longer be trusted; serving on would be worse than
                // dying visibly.
                eprintln!("follower: fatal: {e}");
                std::process::exit(1);
            }
        });
    }
    let options = mithra::service::ServeOptions::new()
        .with_snapshot_path(args.snapshot.clone())
        .with_max_pending(args.max_pending)
        .with_read_only(true)
        .with_replication(Some(status));
    let addr = args.listen.as_deref().expect("checked in parse_args");
    let (listener, local) = bind_listener(addr)?;
    eprintln!("listening on {local} (read-only)");
    served(mithra::service::serve(engine, options, listener))
}

/// `serve --datasets`: host the positional CSV as the `default` dataset
/// plus every `name=file.csv` tenant behind one event loop.
fn serve_datasets<O: CoverageBackend>(args: &Args) -> Result<(), String> {
    use std::sync::{Arc, Mutex};

    let mut specs: Vec<(
        String,
        String,
        Option<std::path::PathBuf>,
        Option<std::path::PathBuf>,
    )> = vec![(
        "default".into(),
        args.file.clone(),
        args.snapshot.clone(),
        args.oplog.clone(),
    )];
    for (name, file) in &args.datasets {
        specs.push((
            name.clone(),
            file.clone(),
            args.snapshot.as_deref().map(|p| dataset_path(p, name)),
            args.oplog.as_deref().map(|p| dataset_path(p, name)),
        ));
    }
    let mut tenants = Vec::with_capacity(specs.len());
    for (name, file, snapshot, oplog_path) in specs {
        let (mut engine, anchor) = serve_engine::<O>(args, &file, snapshot.as_deref())?;
        let oplog = match oplog_path.as_deref() {
            Some(path) => Some(recover_oplog(&mut engine, path, args.oplog_sync, anchor)?),
            None => None,
        };
        eprintln!(
            "dataset `{name}`: {} rows, {} attributes, τ = {}, {} MUP(s), {} shard(s)",
            engine.dataset().len(),
            engine.dataset().arity(),
            engine.tau(),
            engine.mups().len(),
            engine.shards()
        );
        let options = mithra::service::ServeOptions::new()
            .with_snapshot_path(snapshot)
            .with_grow_schema(args.grow_schema)
            .with_max_pending(args.max_pending)
            .with_oplog(oplog);
        tenants.push(mithra::service::TenantSpec::new(
            name,
            Arc::new(Mutex::new(engine)),
            options,
        ));
    }
    let addr = args.listen.as_deref().expect("checked in parse_args");
    let (listener, local) = bind_listener(addr)?;
    eprintln!(
        "listening on {local} (event loop, {} datasets, max {} pending requests/tick)",
        tenants.len(),
        args.max_pending
    );
    served(mithra::service::serve_tenants(tenants, listener))
}

fn run(args: Args) -> Result<(), String> {
    if args.command == "serve" {
        // `serve` loads its own data: the CSV, or a snapshot if one exists.
        return serve(&args);
    }
    let attr_refs: Vec<&str> = args.attrs.iter().map(String::as_str).collect();
    let ds = read_csv_auto_path(&args.file, &attr_refs, None)
        .map_err(|e| format!("{}: {e}", args.file))?;
    if args.command == "enhance" && args.lambda > ds.arity() {
        return Err(format!(
            "--lambda {} exceeds the number of attributes ({})",
            args.lambda,
            ds.arity()
        ));
    }
    let algorithm = match args.max_level {
        Some(l) => DeepDiver::with_max_level(l),
        None => DeepDiver::default(),
    };
    let report =
        CoverageReport::audit_with(&algorithm, &ds, args.tau).map_err(|e| e.to_string())?;

    out!(
        "{}: {} rows, {} attributes, τ = {}",
        args.file,
        ds.len(),
        ds.arity(),
        report.tau
    );
    out!(
        "maximal uncovered patterns: {}   maximum covered level: {}/{}",
        report.mup_count(),
        report.maximum_covered_level(),
        report.arity
    );
    for (level, &count) in report.level_histogram.iter().enumerate() {
        if count > 0 {
            out!("  level {level}: {count}");
        }
    }
    out!("\nmost general MUPs (first {}):", args.limit);
    for mup in report.mups.iter().take(args.limit) {
        out!("  {mup}  {}", decode(mup, &ds));
    }

    if args.command == "enhance" {
        let plan = CoverageEnhancer::default()
            .plan_for_level(
                &GreedyHittingSet,
                &report.mups,
                &ds.schema().cardinalities(),
                args.lambda,
            )
            .map_err(|e| e.to_string())?;
        out!(
            "\nenhancement for λ = {}: {} uncovered pattern(s) to hit, collect {} profile(s):",
            args.lambda,
            plan.input_size(),
            plan.output_size()
        );
        let oracle = CoverageReport::oracle_for(&ds);
        let copies = plan.required_copies(&oracle, report.tau);
        for ((combo, general), n) in plan.combinations.iter().zip(&plan.generalized).zip(&copies) {
            let human: Vec<String> = combo
                .iter()
                .enumerate()
                .map(|(i, &v)| ds.schema().attribute(i).value_name(v))
                .collect();
            out!(
                "  ({})  × {n} tuples   — any tuple matching {general} counts",
                human.join(", ")
            );
        }
    }
    Ok(())
}

/// `mithra loadgen`: run the bench crate's load generator against an
/// in-process server and print the JSON report.
fn run_loadgen(argv: impl Iterator<Item = String>) -> ExitCode {
    let config = match coverage_bench::loadgen::parse_args(argv) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let exec = || -> Result<(), String> {
        let report = coverage_bench::loadgen::run(&config)?;
        out!("{}", report.to_json());
        Ok(())
    };
    match exec() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Tolerated ops/s drop when comparing a fresh bench report against a
/// committed one (`bench-report --against FILE`): quick CI runs on shared
/// hosts are noisy, so only a drop past this fraction fails the job.
const BENCH_REGRESSION_TOLERANCE: f64 = 0.20;

/// `mithra bench-report`: measure the op-log durability overhead, follower
/// catch-up replay, and the dense-vs-compressed backend comparison under
/// an identical mixed workload, print the committed `BENCH_10.json`
/// document, and — with `--against FILE` — fail on a throughput
/// regression beyond the tolerance.
fn run_bench_report(mut argv: impl Iterator<Item = String>) -> ExitCode {
    const USAGE: &str = "usage: mithra bench-report [--quick] [--against FILE]";
    let mut quick = false;
    let mut against: Option<String> = None;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--against" => match argv.next() {
                Some(path) => against = Some(path),
                None => {
                    eprintln!("--against: missing value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let exec = || -> Result<(), String> {
        let report = coverage_bench::loadgen::bench_report(quick)?;
        out!("{report}");
        if let Some(path) = against {
            let committed =
                std::fs::read_to_string(&path).map_err(|e| format!("--against {path}: {e}"))?;
            let lines = coverage_bench::loadgen::compare_reports(
                &report,
                &committed,
                BENCH_REGRESSION_TOLERANCE,
            )?;
            for line in lines {
                eprintln!("against {path}: {line}");
            }
        }
        Ok(())
    };
    match exec() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    // The benchmarking subcommands take no CSV/attrs and parse their own
    // flags; route them before the audit/enhance/serve parser.
    match argv.peek().map(String::as_str) {
        Some("loadgen") => return run_loadgen(argv.skip(1)),
        Some("bench-report") => return run_bench_report(argv.skip(1)),
        _ => {}
    }
    match parse_args(argv) {
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn valid_audit_invocation_parses() {
        let args = parse(&[
            "audit",
            "data.csv",
            "--attrs",
            "sex, race",
            "--tau",
            "30",
            "--max-level",
            "3",
            "--limit",
            "5",
        ])
        .unwrap();
        assert_eq!(args.command, "audit");
        assert_eq!(args.attrs, ["sex", "race"]);
        assert!(matches!(args.tau, Threshold::Count(30)));
        assert_eq!(args.max_level, Some(3));
        assert_eq!(args.limit, 5);
    }

    #[test]
    fn rate_threshold_parses() {
        let args = parse(&["enhance", "d.csv", "--attrs", "a", "--rate", "0.01"]).unwrap();
        assert!(matches!(args.tau, Threshold::Fraction(f) if (f - 0.01).abs() < 1e-12));
    }

    #[test]
    fn unknown_command_and_missing_args_show_usage() {
        for argv in [&["frobnicate"][..], &[][..], &["audit"][..]] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains("usage:"), "no usage in: {err}");
        }
    }

    #[test]
    fn malformed_tau_is_a_usage_error_not_a_panic() {
        for bad in ["abc", "-3", "1.5", "", "999999999999999999999"] {
            let err = parse(&["audit", "d.csv", "--attrs", "a", "--tau", bad]).unwrap_err();
            assert!(err.starts_with("--tau:"), "unexpected: {err}");
            assert!(err.contains("usage:"), "no usage in: {err}");
        }
    }

    #[test]
    fn malformed_or_out_of_domain_rate_is_a_usage_error() {
        for bad in ["xyz", "", "NaN", "inf", "-0.5", "0", "1.5"] {
            let err = parse(&["audit", "d.csv", "--attrs", "a", "--rate", bad]).unwrap_err();
            assert!(err.starts_with("--rate:"), "unexpected for `{bad}`: {err}");
            assert!(err.contains("usage:"), "no usage in: {err}");
        }
    }

    #[test]
    fn zero_tau_lambda_and_max_level_are_rejected() {
        assert!(parse(&["audit", "d.csv", "--attrs", "a", "--tau", "0"]).is_err());
        assert!(
            parse(&["enhance", "d.csv", "--attrs", "a", "--tau", "1", "--lambda", "0"]).is_err()
        );
        assert!(parse(&[
            "audit",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--max-level",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn missing_flag_value_is_reported() {
        let err = parse(&["audit", "d.csv", "--attrs", "a", "--tau"]).unwrap_err();
        assert!(err.contains("missing value"), "unexpected: {err}");
    }

    #[test]
    fn empty_attrs_are_rejected() {
        for argv in [
            &["audit", "d.csv", "--tau", "1"][..],
            &["audit", "d.csv", "--attrs", ",,", "--tau", "1"][..],
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains("--attrs"), "unexpected: {err}");
        }
    }

    #[test]
    fn max_level_is_rejected_for_enhance() {
        // A level-bounded search could miss deep MUPs and yield a silently
        // incomplete enhancement plan.
        let err = parse(&[
            "enhance",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--max-level",
            "2",
        ])
        .unwrap_err();
        assert!(
            err.contains("only supported with `audit`"),
            "unexpected: {err}"
        );
        assert!(parse(&[
            "audit",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--max-level",
            "2"
        ])
        .is_ok());
    }

    #[test]
    fn threshold_is_required() {
        let err = parse(&["audit", "d.csv", "--attrs", "a"]).unwrap_err();
        assert!(err.contains("--tau or --rate"), "unexpected: {err}");
    }

    #[test]
    fn valid_serve_invocation_parses() {
        let args = parse(&[
            "serve",
            "data.csv",
            "--attrs",
            "sex,race",
            "--tau",
            "5",
            "--listen",
            "127.0.0.1:7878",
        ])
        .unwrap();
        assert_eq!(args.command, "serve");
        assert_eq!(args.listen.as_deref(), Some("127.0.0.1:7878"));
        // stdin/stdout mode needs no --listen.
        let args = parse(&["serve", "data.csv", "--attrs", "a", "--rate", "0.01"]).unwrap();
        assert!(args.listen.is_none());
        assert_eq!(args.shards, None, "default layout is decided at build time");
    }

    #[test]
    fn max_pending_flag_parses_and_is_tcp_serve_only() {
        let args = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--listen",
            ":0",
            "--max-pending",
            "64",
        ])
        .unwrap();
        assert_eq!(args.max_pending, 64);
        let args = parse(&[
            "serve", "d.csv", "--attrs", "a", "--tau", "1", "--listen", ":0",
        ])
        .unwrap();
        assert_eq!(args.max_pending, coverage_service::DEFAULT_MAX_PENDING);
        // `--io` and `--threads` are unknown flags, with or without a
        // listener.
        for flags in [&["--io", "event"][..], &["--threads", "2"][..]] {
            for listen in [&[][..], &["--listen", ":0"][..]] {
                let mut argv = vec!["serve", "d.csv", "--attrs", "a", "--tau", "1"];
                argv.extend(listen);
                argv.extend(flags);
                let err = parse(&argv).unwrap_err();
                assert!(
                    err.contains(&format!("unknown flag `{}`", flags[0])),
                    "{err}"
                );
            }
        }
        // A zero bound is a usage error.
        let err = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--listen",
            ":0",
            "--max-pending",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("at least one slot"), "{err}");
        // The bound needs TCP mode…
        let err = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--max-pending",
            "8",
        ])
        .unwrap_err();
        assert!(err.contains("requires --listen"), "{err}");
        // …and the serve command.
        let err = parse(&[
            "audit",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--max-pending",
            "8",
        ])
        .unwrap_err();
        assert!(err.contains("only supported with `serve`"), "{err}");
    }

    #[test]
    fn default_shard_count_scales_with_dataset_size() {
        // Tiny datasets must not be sliced into near-empty per-core shards.
        assert_eq!(default_shards(0), 1);
        assert_eq!(default_shards(100), 1);
        assert_eq!(default_shards(MIN_ROWS_PER_SHARD - 1), 1);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(default_shards(MIN_ROWS_PER_SHARD * 2), cores.min(2));
        assert_eq!(default_shards(usize::MAX), cores);
    }

    #[test]
    fn shards_flag_parses_and_is_serve_only() {
        let args = parse(&[
            "serve", "d.csv", "--attrs", "a", "--tau", "1", "--shards", "4",
        ])
        .unwrap();
        assert_eq!(args.shards, Some(4));
        let err = parse(&[
            "serve", "d.csv", "--attrs", "a", "--tau", "1", "--shards", "0",
        ])
        .unwrap_err();
        assert!(err.contains("at least one shard"), "{err}");
        let err = parse(&[
            "audit", "d.csv", "--attrs", "a", "--tau", "1", "--shards", "2",
        ])
        .unwrap_err();
        assert!(err.contains("only supported with `serve`"), "{err}");
        let err = parse(&["serve", "d.csv", "--attrs", "a", "--tau", "1", "--shards"]).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
    }

    #[test]
    fn backend_flag_parses_and_is_serve_only() {
        let args = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--backend",
            "compressed",
        ])
        .unwrap();
        assert_eq!(args.backend, Some(Backend::Compressed));
        let args = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--backend",
            "dense",
        ])
        .unwrap();
        assert_eq!(args.backend, Some(Backend::Dense));
        let args = parse(&["serve", "d.csv", "--attrs", "a", "--tau", "1"]).unwrap();
        assert_eq!(args.backend, None, "default is decided at build time");
        let err = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--backend",
            "roaring",
        ])
        .unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        let err = parse(&[
            "audit",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--backend",
            "dense",
        ])
        .unwrap_err();
        assert!(err.contains("only supported with `serve`"), "{err}");
    }

    #[test]
    fn backend_resolution_prefers_flag_then_snapshot_then_dense() {
        use mithra::service::{save_snapshot, CompressedCoverageEngine};

        let dir = std::env::temp_dir().join(format!("mithra-cli-backend-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("engine.snapshot");
        let ds = Dataset::from_rows(Schema::binary(2).unwrap(), &[vec![0, 1], vec![1, 0]]).unwrap();
        let engine = CompressedCoverageEngine::with_shards(ds, Threshold::Count(1), 1).unwrap();
        save_snapshot(&engine, &snap).unwrap();

        let args = |backend, snapshot: Option<&std::path::Path>| Args {
            command: "serve".into(),
            file: "d.csv".into(),
            attrs: vec!["a".into(), "b".into()],
            tau: Threshold::Count(1),
            lambda: 2,
            max_level: None,
            limit: 20,
            listen: None,
            snapshot: snapshot.map(std::path::Path::to_path_buf),
            shards: None,
            grow_schema: false,
            max_pending: coverage_service::DEFAULT_MAX_PENDING,
            oplog: None,
            oplog_sync: coverage_service::SyncPolicy::default(),
            follow: None,
            datasets: Vec::new(),
            backend,
        };
        // No flag, no snapshot → dense.
        assert_eq!(resolve_backend(&args(None, None)).unwrap(), Backend::Dense);
        // A restart without the flag keeps the snapshot's backend…
        assert_eq!(
            resolve_backend(&args(None, Some(&snap))).unwrap(),
            Backend::Compressed
        );
        // …but an explicit flag always wins (snapshots are backend-agnostic,
        // so restoring a compressed snapshot into a dense engine is fine).
        assert_eq!(
            resolve_backend(&args(Some(Backend::Dense), Some(&snap))).unwrap(),
            Backend::Dense
        );
        // A missing snapshot file is a fresh start, not an error.
        assert_eq!(
            resolve_backend(&args(None, Some(&dir.join("missing")))).unwrap(),
            Backend::Dense
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grow_schema_flag_parses_and_is_serve_only() {
        let args = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--grow-schema",
        ])
        .unwrap();
        assert!(args.grow_schema);
        let args = parse(&["serve", "d.csv", "--attrs", "a", "--tau", "1"]).unwrap();
        assert!(!args.grow_schema, "growth is opt-in");
        for cmd in ["audit", "enhance"] {
            let mut argv = vec![cmd, "d.csv", "--attrs", "a", "--tau", "1"];
            if cmd == "enhance" {
                argv.extend(["--lambda", "1"]);
            }
            argv.push("--grow-schema");
            let err = parse(&argv).unwrap_err();
            assert!(err.contains("only supported with `serve`"), "{err}");
        }
    }

    #[test]
    fn snapshot_flag_parses_and_is_serve_only() {
        let args = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--snapshot",
            "state.snapshot",
        ])
        .unwrap();
        assert_eq!(
            args.snapshot.as_deref(),
            Some(std::path::Path::new("state.snapshot"))
        );
        // Works in stdio mode (no --listen) and TCP mode alike; audit/enhance
        // reject it.
        for cmd in ["audit", "enhance"] {
            let mut argv = vec![cmd, "d.csv", "--attrs", "a", "--tau", "1"];
            if cmd == "enhance" {
                argv.extend(["--lambda", "1"]);
            }
            argv.extend(["--snapshot", "s"]);
            let err = parse(&argv).unwrap_err();
            assert!(err.contains("only supported with `serve`"), "{err}");
        }
        let err =
            parse(&["serve", "d.csv", "--attrs", "a", "--tau", "1", "--snapshot"]).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
    }

    #[test]
    fn serve_engine_refuses_mismatched_snapshots() {
        use mithra::service::{save_snapshot, CoverageEngine};

        let dir = std::env::temp_dir().join(format!("mithra-cli-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("people.csv");
        std::fs::write(&csv, "sex,race\nm,white\nf,black\n").unwrap();
        let snap = dir.join("engine.snapshot");
        let schema = Schema::new(vec![
            Attribute::with_values("sex", ["m", "f"]).unwrap(),
            Attribute::with_values("race", ["white", "black"]).unwrap(),
        ])
        .unwrap();
        let ds = Dataset::from_rows(schema, &[vec![0, 0], vec![1, 1]]).unwrap();
        let engine = CoverageEngine::new(ds, Threshold::Count(1)).unwrap();
        save_snapshot(&engine, &snap).unwrap();

        let args = |attrs: &[&str], tau: Threshold| Args {
            command: "serve".into(),
            file: csv.to_string_lossy().into_owned(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            tau,
            lambda: 2,
            max_level: None,
            limit: 20,
            listen: None,
            snapshot: Some(snap.clone()),
            shards: None,
            grow_schema: false,
            max_pending: coverage_service::DEFAULT_MAX_PENDING,
            oplog: None,
            oplog_sync: coverage_service::SyncPolicy::default(),
            follow: None,
            datasets: Vec::new(),
            backend: None,
        };
        let build = |args: &Args| {
            serve_engine::<CoverageOracle>(args, &args.file, args.snapshot.as_deref())
        };
        // Matching threshold + attrs restores (with the snapshot's anchor).
        let (restored, anchor) = build(&args(&["sex", "race"], Threshold::Count(1))).unwrap();
        assert_eq!(restored.dataset().len(), 2);
        assert_eq!(anchor, 0);
        // A different threshold is refused…
        let err = build(&args(&["sex", "race"], Threshold::Count(2))).unwrap_err();
        assert!(err.contains("different threshold"), "{err}");
        // …and so are different attributes (the CSV is never read on
        // restore, so this is the only guard against serving the wrong data).
        let err = build(&args(&["sex", "age"], Threshold::Count(1))).unwrap_err();
        assert!(err.contains("covers attributes"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A restart replays a tail longer than two `replicate` pages a page at
    /// a time and recovers the state of a node that never restarted.
    #[test]
    fn restart_replays_a_multi_page_tail_to_the_live_state() {
        use mithra::service::{handle_line, ServeOptions};

        let dir = std::env::temp_dir().join(format!("mithra-cli-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("people.csv");
        std::fs::write(&csv, "sex,race\nm,white\nf,black\nm,asian\n").unwrap();
        let log_path = dir.join("ops.log");
        std::fs::remove_file(&log_path).ok();
        let file = csv.to_string_lossy().into_owned();
        let args = parse(&[
            "serve",
            &file,
            "--attrs",
            "sex,race",
            "--tau",
            "40",
            "--oplog",
            &log_path.to_string_lossy(),
        ])
        .unwrap();
        let sync = coverage_service::SyncPolicy::Off;
        let (mut live, anchor) = serve_engine::<CoverageOracle>(&args, &file, None).unwrap();
        let log = recover_oplog(&mut live, &log_path, sync, anchor).unwrap();
        let options = ServeOptions::new().with_oplog(Some(log));
        let rows = [
            ["m", "white"],
            ["f", "black"],
            ["m", "asian"],
            ["f", "white"],
        ];
        let entries = 2 * coverage_service::oplog::REPLICATE_BATCH_LIMIT + 76;
        for i in 0..entries {
            let [sex, race] = rows[i % rows.len()];
            let op = if i % 5 == 4 { "delete" } else { "insert" };
            let request = format!(r#"{{"op":"{op}","row":["{sex}","{race}"]}}"#);
            let answer = handle_line(&mut live, &options, &request);
            assert!(answer.contains(r#""ok":true"#), "{answer}");
        }
        drop(options);

        let (mut restarted, anchor) = serve_engine::<CoverageOracle>(&args, &file, None).unwrap();
        let log = recover_oplog(&mut restarted, &log_path, sync, anchor).unwrap();
        assert_eq!(log.lock().unwrap().last_seq(), entries as u64);
        assert_eq!(restarted.dataset().len(), live.dataset().len());
        assert_eq!(restarted.mups(), live.mups());
        assert!(!live.mups().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oplog_flags_parse_and_are_validated() {
        let args = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--oplog",
            "ops.log",
            "--oplog-sync",
            "always",
        ])
        .unwrap();
        assert_eq!(args.oplog.as_deref(), Some(std::path::Path::new("ops.log")));
        assert_eq!(args.oplog_sync, coverage_service::SyncPolicy::Always);
        // Default policy is batch; --oplog-sync alone is a usage error.
        let args = parse(&[
            "serve", "d.csv", "--attrs", "a", "--tau", "1", "--oplog", "ops.log",
        ])
        .unwrap();
        assert_eq!(args.oplog_sync, coverage_service::SyncPolicy::Batch);
        let err = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--oplog-sync",
            "batch",
        ])
        .unwrap_err();
        assert!(err.contains("requires --oplog"), "{err}");
        let err = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--oplog",
            "o",
            "--oplog-sync",
            "fsync",
        ])
        .unwrap_err();
        assert!(err.contains("unknown policy"), "{err}");
        let err = parse(&[
            "audit", "d.csv", "--attrs", "a", "--tau", "1", "--oplog", "o",
        ])
        .unwrap_err();
        assert!(err.contains("only supported with `serve`"), "{err}");
    }

    #[test]
    fn follow_flag_parses_and_rejects_leader_knobs() {
        let args = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--listen",
            ":0",
            "--follow",
            "127.0.0.1:7878",
        ])
        .unwrap();
        assert_eq!(args.follow.as_deref(), Some("127.0.0.1:7878"));
        // A follower replays the leader's log; its own durability/growth/
        // tenancy flags are contradictions.
        for extra in [
            &["--oplog", "o"][..],
            &["--datasets", "hr=hr.csv"][..],
            &["--grow-schema"][..],
        ] {
            let mut argv = vec![
                "serve", "d.csv", "--attrs", "a", "--tau", "1", "--listen", ":0", "--follow", ":1",
            ];
            argv.extend(extra);
            let err = parse(&argv).unwrap_err();
            assert!(err.contains("cannot be combined with --follow"), "{err}");
        }
        let err = parse(&[
            "serve", "d.csv", "--attrs", "a", "--tau", "1", "--follow", ":1",
        ])
        .unwrap_err();
        assert!(err.contains("requires --listen"), "{err}");
    }

    #[test]
    fn datasets_spec_parses_and_is_validated() {
        let args = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--listen",
            ":0",
            "--datasets",
            "hr=hr.csv, sales=sales.csv",
        ])
        .unwrap();
        assert_eq!(
            args.datasets,
            [
                ("hr".to_string(), "hr.csv".to_string()),
                ("sales".to_string(), "sales.csv".to_string()),
            ]
        );
        let base = ["serve", "d.csv", "--attrs", "a", "--tau", "1"];
        for (spec, expect) in [
            ("hr.csv", "not `name=file.csv`"),
            ("=hr.csv", "not `name=file.csv`"),
            ("hr=", "not `name=file.csv`"),
            ("default=d2.csv", "positional"),
            ("hr=a.csv,hr=b.csv", "given twice"),
            (",", "at least one"),
        ] {
            let mut argv = base.to_vec();
            argv.extend(["--listen", ":0", "--datasets", spec]);
            let err = parse(&argv).unwrap_err();
            assert!(err.contains(expect), "spec `{spec}`: {err}");
        }
        // Tenancy needs the TCP event front end.
        let mut argv = base.to_vec();
        argv.extend(["--datasets", "hr=hr.csv"]);
        let err = parse(&argv).unwrap_err();
        assert!(err.contains("requires --listen"), "{err}");
    }

    #[test]
    fn serve_flag_domains_are_enforced() {
        // --listen and --shards are serve-only; --max-level is audit-only.
        let err = parse(&[
            "audit", "d.csv", "--attrs", "a", "--tau", "1", "--listen", ":0",
        ])
        .unwrap_err();
        assert!(err.contains("only supported with `serve`"), "{err}");
        let err = parse(&[
            "enhance", "d.csv", "--attrs", "a", "--tau", "1", "--shards", "2",
        ])
        .unwrap_err();
        assert!(err.contains("only supported with `serve`"), "{err}");
        let err = parse(&[
            "serve",
            "d.csv",
            "--attrs",
            "a",
            "--tau",
            "1",
            "--max-level",
            "2",
        ])
        .unwrap_err();
        assert!(err.contains("only supported with `audit`"), "{err}");
        // λ and limit are per-request in the protocol, not serve CLI flags.
        for flag in ["--lambda", "--limit"] {
            let err =
                parse(&["serve", "d.csv", "--attrs", "a", "--tau", "1", flag, "2"]).unwrap_err();
            assert!(err.contains("not supported with `serve`"), "{err}");
        }
    }
}
