//! TCP load generator for the `mithra serve` event-loop front end.
//!
//! Spawns an in-process server (so one command measures a full stack with
//! zero setup), drives it with N concurrent pipelined connections over a
//! configurable op mix for a fixed wall-clock window, and reports
//! throughput, latency percentiles, and the server's own `stats.io`
//! counters — the batching counters are how cross-connection insert
//! coalescing is observed from the outside.
//!
//! Exposed as `mithra loadgen` / `mithra bench-report` and as the
//! standalone `loadgen` binary in this crate.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use coverage_core::Threshold;
use coverage_data::generators::airbnb_like;
use coverage_service::protocol::Json;
use coverage_service::{serve, CoverageEngine, OpLog, ServeOptions, SyncPolicy};

/// What one loadgen run does.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Wall-clock run length in seconds.
    pub secs: f64,
    /// Requests each connection keeps in flight (batched writes).
    pub pipeline: usize,
    /// Admission bound of the server's event loop.
    pub max_pending: usize,
    /// Rows in the synthetic (AirBnB-like) starting dataset.
    pub rows: usize,
    /// Attributes in the synthetic dataset.
    pub attributes: usize,
    /// Op mix, in percent: `(insert, coverage)`; the remainder is `mups`.
    pub mix: (u32, u32),
    /// Percent of requests that delete a row the client inserted earlier
    /// (carved out before the `mix` shares; exercises delete coalescing).
    pub deletes: u32,
    /// Run the in-process server with an op log at this sync policy (the
    /// replicated-write overhead knob for `BENCH_7`).
    pub oplog: Option<SyncPolicy>,
    /// RNG seed (per-client streams derive from it).
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            connections: 64,
            secs: 2.0,
            pipeline: 16,
            max_pending: coverage_service::DEFAULT_MAX_PENDING,
            rows: 2_000,
            attributes: 6,
            mix: (80, 15),
            deletes: 0,
            oplog: None,
            seed: 2019,
        }
    }
}

/// What one loadgen run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Concurrent client connections requested.
    pub connections: usize,
    /// Wall-clock seconds actually spent in the measurement window.
    pub elapsed_secs: f64,
    /// Responses received (any outcome).
    pub requests: u64,
    /// `{"ok":false}` responses.
    pub errors: u64,
    /// Times a client had to reconnect (dropped connections).
    pub reconnects: u64,
    /// Responses per second over the window.
    pub ops_per_sec: f64,
    /// Client-observed latency percentiles, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Server-side `stats.io.insert_requests` after the run.
    pub insert_requests: u64,
    /// Server-side `stats.io.insert_engine_batches` after the run.
    pub insert_engine_batches: u64,
    /// Server-side `stats.io.coalesced_inserts` after the run.
    pub coalesced_inserts: u64,
    /// Server-side `stats.io.delete_requests` after the run.
    pub delete_requests: u64,
    /// Server-side `stats.io.delete_engine_batches` after the run.
    pub delete_engine_batches: u64,
    /// Server-side `stats.io.coalesced_deletes` after the run.
    pub coalesced_deletes: u64,
}

impl LoadgenReport {
    /// The report as one JSON object (stable field order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"connections\":{},\"elapsed_secs\":{:.3},\
             \"requests\":{},\"errors\":{},\"reconnects\":{},\
             \"ops_per_sec\":{:.1},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\
             \"insert_requests\":{},\"insert_engine_batches\":{},\
             \"coalesced_inserts\":{},\"delete_requests\":{},\
             \"delete_engine_batches\":{},\"coalesced_deletes\":{}}}",
            self.connections,
            self.elapsed_secs,
            self.requests,
            self.errors,
            self.reconnects,
            self.ops_per_sec,
            self.p50_ns,
            self.p95_ns,
            self.p99_ns,
            self.insert_requests,
            self.insert_engine_batches,
            self.coalesced_inserts,
            self.delete_requests,
            self.delete_engine_batches,
            self.coalesced_deletes,
        )
    }
}

/// Splitmix-style PRNG: one u64 of state, good enough to pick ops and row
/// values without dragging a generator dependency into the hot loop.
struct Mix64(u64);

impl Mix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

struct ClientStats {
    latencies_ns: Vec<u64>,
    requests: u64,
    errors: u64,
    reconnects: u64,
}

/// Most rows a client remembers for later deletion; a bounded ring so a
/// long run with few deletes doesn't grow without limit.
const DELETE_POOL: usize = 1024;

/// Removes and returns a uniformly random element (order not preserved).
fn pop_random(rng: &mut Mix64, pool: &mut Vec<String>) -> Option<String> {
    if pool.is_empty() {
        return None;
    }
    let slot = rng.below(pool.len() as u64) as usize;
    Some(pool.swap_remove(slot))
}

/// Builds one random row literal (`"0","1",…`) and returns it.
fn gen_row(rng: &mut Mix64, attributes: usize) -> String {
    let mut row = String::with_capacity(attributes * 4);
    for i in 0..attributes {
        if i > 0 {
            row.push(',');
        }
        row.push('"');
        row.push(if rng.below(2) == 0 { '0' } else { '1' });
        row.push('"');
    }
    row
}

fn gen_request(
    rng: &mut Mix64,
    attributes: usize,
    mix: (u32, u32),
    deletes: u32,
    inserted: &mut Vec<String>,
) -> String {
    let roll = rng.below(100) as u32;
    if roll < deletes {
        // Delete a row this client inserted earlier (its copy is still in
        // the dataset: per-connection ordering guarantees the insert landed
        // first, and each remembered row is deleted at most once). With
        // nothing banked yet, fall through to an insert.
        if let Some(row) = pop_random(rng, inserted) {
            return format!("{{\"op\":\"delete\",\"row\":[{row}]}}");
        }
    }
    if roll < deletes + mix.0 {
        let row = gen_row(rng, attributes);
        if deletes > 0 {
            if inserted.len() < DELETE_POOL {
                inserted.push(row.clone());
            } else {
                let slot = rng.below(DELETE_POOL as u64) as usize;
                inserted[slot] = row.clone();
            }
        }
        format!("{{\"op\":\"insert\",\"row\":[{row}]}}")
    } else if roll < deletes + mix.0 + mix.1 {
        let mut pattern = String::with_capacity(attributes);
        for _ in 0..attributes {
            pattern.push(match rng.below(4) {
                0 => '0',
                1 => '1',
                _ => 'X', // bias toward general patterns (cheap + cacheable)
            });
        }
        format!("{{\"op\":\"coverage\",\"pattern\":\"{pattern}\"}}")
    } else {
        "{\"op\":\"mups\",\"limit\":3}".to_string()
    }
}

/// One client: keeps `pipeline` requests in flight against `addr` until
/// the deadline, reconnecting (with a tiny backoff) when the server drops
/// the connection.
fn client_loop(
    addr: std::net::SocketAddr,
    config: &LoadgenConfig,
    deadline: Instant,
    seed: u64,
) -> ClientStats {
    let mut rng = Mix64(seed);
    let mut stats = ClientStats {
        latencies_ns: Vec::new(),
        requests: 0,
        errors: 0,
        reconnects: 0,
    };
    let mut first_attempt = true;
    let mut inserted: Vec<String> = Vec::new();
    'reconnect: while Instant::now() < deadline {
        if !first_attempt {
            stats.reconnects += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        first_attempt = false;
        let Ok(stream) = TcpStream::connect(addr) else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let mut reader = BufReader::new(read_half);
        let mut write_half = stream;
        let mut batch = String::new();
        let mut line = String::new();
        while Instant::now() < deadline {
            batch.clear();
            for _ in 0..config.pipeline {
                batch.push_str(&gen_request(
                    &mut rng,
                    config.attributes,
                    config.mix,
                    config.deletes,
                    &mut inserted,
                ));
                batch.push('\n');
            }
            let sent_at = Instant::now();
            if write_half.write_all(batch.as_bytes()).is_err() {
                continue 'reconnect;
            }
            for _ in 0..config.pipeline {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => continue 'reconnect,
                    Ok(_) => {}
                }
                stats.requests += 1;
                stats.latencies_ns.push(sent_at.elapsed().as_nanos() as u64);
                if line.starts_with("{\"ok\":false") {
                    stats.errors += 1;
                }
            }
        }
        break;
    }
    stats
}

fn scrape_io_counter(io: &Json, key: &str) -> u64 {
    io.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Asks the server for `stats` and returns the parsed `"io"` section.
/// Retries briefly: right after the measurement window the front end may
/// still be serving the departing clients.
fn scrape_stats(addr: std::net::SocketAddr) -> Option<Json> {
    for _ in 0..50 {
        let attempt = (|| -> std::io::Result<String> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(5)))?;
            let mut writer = stream.try_clone()?;
            writer.write_all(b"{\"op\":\"stats\"}\n")?;
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line)?;
            Ok(line)
        })();
        if let Ok(line) = attempt {
            if let Ok(doc) = Json::parse(line.trim()) {
                if doc.get("ok").and_then(Json::as_bool) == Some(true) {
                    return doc.get("io").cloned();
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    None
}

/// Runs one loadgen measurement: in-process server, `config.connections`
/// pipelined clients, `config.secs` of wall clock.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let dataset = airbnb_like(config.rows, config.attributes, config.seed)
        .map_err(|e| format!("synthetic dataset: {e}"))?;
    let engine =
        CoverageEngine::new(dataset, Threshold::Count(5)).map_err(|e| format!("engine: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // With an op log requested, the server appends every mutation to a
    // scratch file for the duration of the run (the durability overhead is
    // the thing being measured; the contents are discarded afterwards).
    let oplog_path = config.oplog.map(|_| {
        std::env::temp_dir().join(format!(
            "mithra-loadgen-{}-{}.oplog",
            std::process::id(),
            addr.port()
        ))
    });
    let oplog = match (&oplog_path, config.oplog) {
        (Some(path), Some(sync)) => {
            let _ = std::fs::remove_file(path);
            Some(Arc::new(Mutex::new(
                OpLog::open(path, sync).map_err(|e| format!("op log {}: {e}", path.display()))?,
            )))
        }
        _ => None,
    };
    let options = ServeOptions::new()
        .with_max_pending(config.max_pending)
        .with_oplog(oplog);
    let shared = Arc::new(Mutex::new(engine));
    let server = Arc::clone(&shared);
    // The server thread runs until process exit (the listener has no
    // shutdown channel); a loadgen process is short-lived by design.
    std::thread::spawn(move || {
        let _ = serve(server, options, listener);
    });
    // Wait until the server answers before starting the clock.
    if scrape_stats(addr).is_none() {
        return Err("server did not come up".into());
    }

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(config.secs);
    let mut handles = Vec::with_capacity(config.connections);
    for i in 0..config.connections {
        let config = config.clone();
        let seed = config.seed ^ (0xC0FFEE + i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        handles.push(std::thread::spawn(move || {
            client_loop(addr, &config, deadline, seed)
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    let (mut requests, mut errors, mut reconnects) = (0u64, 0u64, 0u64);
    for handle in handles {
        let stats = handle.join().map_err(|_| "client thread panicked")?;
        latencies.extend(stats.latencies_ns);
        requests += stats.requests;
        errors += stats.errors;
        reconnects += stats.reconnects;
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    let io_stats = scrape_stats(addr);
    let counter = |key: &str| io_stats.as_ref().map_or(0, |io| scrape_io_counter(io, key));
    if let Some(path) = &oplog_path {
        // The server thread keeps its handle; unlinking the scratch file is
        // safe (and reclaims the space on process exit at the latest).
        let _ = std::fs::remove_file(path);
    }
    Ok(LoadgenReport {
        connections: config.connections,
        elapsed_secs: elapsed,
        requests,
        errors,
        reconnects,
        ops_per_sec: if elapsed > 0.0 {
            requests as f64 / elapsed
        } else {
            0.0
        },
        p50_ns: pct(0.50),
        p95_ns: pct(0.95),
        p99_ns: pct(0.99),
        insert_requests: counter("insert_requests"),
        insert_engine_batches: counter("insert_engine_batches"),
        coalesced_inserts: counter("coalesced_inserts"),
        delete_requests: counter("delete_requests"),
        delete_engine_batches: counter("delete_engine_batches"),
        coalesced_deletes: counter("coalesced_deletes"),
    })
}

/// Parses `mithra loadgen` / standalone `loadgen` flags into a config.
pub fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<LoadgenConfig, String> {
    const USAGE: &str = "usage: mithra loadgen [--connections N] \
         [--secs S] [--pipeline N] [--max-pending N] [--rows N] \
         [--attrs-n N] [--mix INSERT,COVERAGE] [--deletes PCT] \
         [--oplog-sync always|batch|off] [--seed N]";
    let mut config = LoadgenConfig::default();
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag}: missing value\n{USAGE}"))
        };
        let parse_usize = |flag: &str, v: String| -> Result<usize, String> {
            let n: usize = v.parse().map_err(|e| format!("{flag}: {e}\n{USAGE}"))?;
            if n == 0 {
                return Err(format!("{flag}: must be at least 1\n{USAGE}"));
            }
            Ok(n)
        };
        match flag.as_str() {
            "--connections" => config.connections = parse_usize(&flag, value()?)?,
            "--secs" => {
                let secs: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--secs: {e}\n{USAGE}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--secs: must be a positive duration\n{USAGE}"));
                }
                config.secs = secs;
            }
            "--pipeline" => config.pipeline = parse_usize(&flag, value()?)?,
            "--max-pending" => config.max_pending = parse_usize(&flag, value()?)?,
            "--rows" => config.rows = parse_usize(&flag, value()?)?,
            "--attrs-n" => config.attributes = parse_usize(&flag, value()?)?,
            "--mix" => {
                let v = value()?;
                let parts: Vec<u32> = v
                    .split(',')
                    .map(|p| p.trim().parse::<u32>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--mix: {e}\n{USAGE}"))?;
                if parts.len() != 2 || parts[0] + parts[1] > 100 {
                    return Err(format!(
                        "--mix: expected INSERT,COVERAGE percentages summing to ≤ 100\n{USAGE}"
                    ));
                }
                config.mix = (parts[0], parts[1]);
            }
            "--deletes" => {
                let pct: u32 = value()?
                    .parse()
                    .map_err(|e| format!("--deletes: {e}\n{USAGE}"))?;
                if pct > 100 {
                    return Err(format!("--deletes: must be a percentage ≤ 100\n{USAGE}"));
                }
                config.deletes = pct;
            }
            "--oplog-sync" => {
                let v = value()?;
                config.oplog = Some(SyncPolicy::parse(&v).ok_or_else(|| {
                    format!("--oplog-sync: unknown policy `{v}` (always, batch, or off)\n{USAGE}")
                })?);
            }
            "--seed" => {
                config.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{USAGE}"))?
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if config.deletes + config.mix.0 + config.mix.1 > 100 {
        return Err(format!(
            "--deletes + --mix shares exceed 100 percent\n{USAGE}"
        ));
    }
    Ok(config)
}

/// Measures follower catch-up: write `entries` single-row insert entries
/// to a scratch op log, then time a cold engine reading and replaying the
/// whole tail — exactly what a follower (or a restarted leader) does.
/// Returns `(elapsed_secs, ops_per_sec)`.
fn follower_catchup(entries: usize, attributes: usize, seed: u64) -> Result<(f64, f64), String> {
    use coverage_service::LoggedOp;
    let path = std::env::temp_dir().join(format!(
        "mithra-catchup-{}-{seed}.oplog",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut log = OpLog::open(&path, SyncPolicy::Off)
        .map_err(|e| format!("op log {}: {e}", path.display()))?;
    let mut rng = Mix64(seed);
    for _ in 0..entries {
        let row: Vec<String> = (0..attributes)
            .map(|_| if rng.below(2) == 0 { "0" } else { "1" }.to_string())
            .collect();
        log.append(LoggedOp::Insert { rows: vec![row] })
            .map_err(|e| format!("append: {e}"))?;
    }
    drop(log);
    let dataset =
        airbnb_like(2_000, attributes, seed).map_err(|e| format!("synthetic dataset: {e}"))?;
    let mut engine =
        CoverageEngine::new(dataset, Threshold::Count(5)).map_err(|e| format!("engine: {e}"))?;
    let started = Instant::now();
    let tail = coverage_service::oplog::read_entries_from(&path, 1)
        .map_err(|e| format!("read op log: {e}"))?;
    let applied = coverage_service::replay_entries(&mut engine, &tail, 0)
        .map_err(|e| format!("replay: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    if applied != entries as u64 {
        return Err(format!("replayed {applied} of {entries} entries"));
    }
    Ok((
        secs,
        if secs > 0.0 {
            entries as f64 / secs
        } else {
            0.0
        },
    ))
}

/// Runs the in-tree conformance linter over this workspace and renders
/// its per-rule summary as the report's `"lint"` section, so the
/// committed benchmark document records the lint trajectory (findings
/// and counted allows per rule) alongside the throughput figures.
///
/// The workspace root is the current directory when it looks like the
/// repo (CI and `cargo run` both start there); otherwise it is derived
/// from this crate's manifest path — a compile-time constant, valid only
/// while the binary still runs inside (a copy of) its build tree. When
/// neither location holds the source, the section degrades to `null`
/// instead of failing the whole report: an installed binary run outside
/// the repo can still measure throughput, which needs no source access.
fn lint_section() -> Result<String, String> {
    let cwd = std::path::PathBuf::from(".");
    let baked = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = if cwd.join("crates/lint").is_dir() {
        cwd
    } else if baked.join("crates/lint").is_dir() {
        baked
    } else {
        return Ok("null".to_string());
    };
    let report = mithra_lint::check_workspace(&root).map_err(|e| format!("lint: {e}"))?;
    let rules = report
        .rules
        .iter()
        .map(|r| {
            format!(
                "{{\"rule\": \"{}\", \"findings\": {}, \"allows\": {}}}",
                mithra_lint::json_escape(r.rule),
                r.findings,
                r.allows
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    Ok(format!(
        "{{\"files_scanned\": {}, \"total_findings\": {}, \"rules\": [\n    {}\n  ]}}",
        report.files_scanned,
        report.findings.len(),
        rules
    ))
}

/// `mithra bench-report`: measure the durability cost of the op log under
/// an identical mixed insert/delete workload (event front end, with and
/// without `--oplog`) plus follower catch-up replay throughput and the
/// conformance-lint summary, and emit the committed benchmark document (`BENCH_10.json`
/// shape).
pub fn bench_report(quick: bool) -> Result<String, String> {
    let base = LoadgenConfig {
        connections: if quick { 16 } else { 64 },
        secs: if quick { 1.0 } else { 3.0 },
        mix: (60, 15),
        deletes: 20,
        ..LoadgenConfig::default()
    };
    let no_oplog = run(&base)?;
    let with_oplog = run(&LoadgenConfig {
        oplog: Some(SyncPolicy::Batch),
        ..base.clone()
    })?;
    let catchup_entries = if quick { 10_000 } else { 50_000 };
    let (catchup_secs, catchup_ops) =
        follower_catchup(catchup_entries, base.attributes, base.seed)?;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let overhead_pct = if no_oplog.ops_per_sec > 0.0 {
        100.0 * (1.0 - with_oplog.ops_per_sec / no_oplog.ops_per_sec)
    } else {
        0.0
    };
    let lint = lint_section()?;
    Ok(format!(
        "{{\n  \"bench\": \"BENCH_10\",\n  \"description\": \"op-log durability overhead \
         (leader with vs without --oplog, batch fsync), follower catch-up replay, and \
         the conformance-lint summary\",\n  \
         \"n\": {},\n  \"attributes\": {},\n  \"connections\": {},\n  \"secs\": {},\n  \
         \"mix_insert_coverage\": [{}, {}],\n  \"deletes_pct\": {},\n  \"host_cores\": {},\n  \
         \"no_oplog\": {},\n  \"oplog_batch\": {},\n  \"oplog_overhead_pct\": {:.1},\n  \
         \"catchup\": {{\"entries\": {}, \"secs\": {:.3}, \"ops_per_sec\": {:.1}}},\n  \
         \"speedups\": {{\"insert_delta_vs_recompute\": 40.0, \
         \"delete_delta_vs_recompute\": 25.0, \
         \"note\": \"floors re-asserted by the incremental_vs_batch and delete_vs_batch \
         benches when run\"}},\n  \
         \"lint\": {}\n}}",
        base.rows,
        base.attributes,
        base.connections,
        base.secs,
        base.mix.0,
        base.mix.1,
        base.deletes,
        cores,
        no_oplog.to_json(),
        with_oplog.to_json(),
        overhead_pct,
        catchup_entries,
        catchup_secs,
        catchup_ops,
        lint,
    ))
}

/// The throughput fields `compare_reports` gates on, as
/// `(section, field)` paths into the report document.
const GATED_THROUGHPUT: [(&str, &str); 3] = [
    ("no_oplog", "ops_per_sec"),
    ("oplog_batch", "ops_per_sec"),
    ("catchup", "ops_per_sec"),
];

/// Compares a fresh bench-report document against a committed baseline:
/// every gated throughput figure must be at least `1 - tolerance` of the
/// committed number. Returns one human-readable line per comparison, or an
/// error naming the first regression. Probe latencies and memory figures
/// are deliberately not gated — quick runs are too noisy for them.
pub fn compare_reports(
    current: &str,
    committed: &str,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let current = Json::parse(current).map_err(|e| format!("current report: {e}"))?;
    let committed = Json::parse(committed).map_err(|e| format!("committed report: {e}"))?;
    let field = |doc: &Json, section: &str, key: &str, which: &str| -> Result<f64, String> {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{which} report has no {section}.{key}"))
    };
    let mut lines = Vec::new();
    for (section, key) in GATED_THROUGHPUT {
        let now = field(&current, section, key, "current")?;
        let then = field(&committed, section, key, "committed")?;
        let delta_pct = if then > 0.0 {
            100.0 * (now / then - 1.0)
        } else {
            0.0
        };
        lines.push(format!(
            "{section}.{key}: {now:.1} vs committed {then:.1} ({delta_pct:+.1}%)"
        ));
        if now < then * (1.0 - tolerance) {
            return Err(format!(
                "throughput regression: {section}.{key} fell from {then:.1} to {now:.1} \
                 ({delta_pct:.1}%, tolerance -{:.0}%)",
                tolerance * 100.0
            ));
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_into_a_config() {
        let config = parse_args(
            [
                "--connections",
                "8",
                "--secs",
                "0.5",
                "--mix",
                "50,25",
                "--max-pending",
                "3",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(config.connections, 8);
        assert!((config.secs - 0.5).abs() < 1e-9);
        assert_eq!(config.mix, (50, 25));
        assert_eq!(config.max_pending, 3);
    }

    #[test]
    fn bad_flags_are_rejected_with_usage() {
        for argv in [
            &["--io", "event"][..],
            &["--workers", "2"][..],
            &["--connections", "0"][..],
            &["--secs", "-1"][..],
            &["--mix", "90,20"][..],
            &["--deletes", "101"][..],
            &["--deletes", "20", "--mix", "70,15"][..],
            &["--oplog-sync", "fsync"][..],
            &["--frobnicate"][..],
        ] {
            let err = parse_args(argv.iter().map(|s| s.to_string())).unwrap_err();
            assert!(err.contains("usage:"), "{err}");
        }
    }

    #[test]
    fn delete_and_oplog_flags_parse() {
        let config = parse_args(
            ["--deletes", "20", "--mix", "60,15", "--oplog-sync", "batch"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(config.deletes, 20);
        assert_eq!(config.oplog, Some(SyncPolicy::Batch));
    }

    #[test]
    fn delete_share_generates_deletes_of_previously_inserted_rows() {
        let mut rng = Mix64(7);
        let mut inserted = Vec::new();
        let mut saw_delete = false;
        let mut saw_insert = false;
        for _ in 0..200 {
            let line = gen_request(&mut rng, 4, (50, 10), 30, &mut inserted);
            if line.contains("\"op\":\"delete\"") {
                saw_delete = true;
            }
            if line.contains("\"op\":\"insert\"") {
                saw_insert = true;
            }
        }
        assert!(saw_insert && saw_delete, "mixed stream expected");
        // With no banked inserts yet, a delete roll falls back to insert.
        let mut empty = Vec::new();
        let line = gen_request(&mut Mix64(0), 4, (0, 0), 100, &mut empty);
        assert!(line.contains("\"op\":\"insert\""), "{line}");
    }

    #[test]
    fn a_short_run_with_deletes_and_oplog_reaches_the_engine() {
        let config = LoadgenConfig {
            connections: 4,
            secs: 0.4,
            pipeline: 8,
            rows: 200,
            mix: (60, 10),
            deletes: 25,
            oplog: Some(SyncPolicy::Off),
            ..LoadgenConfig::default()
        };
        let report = run(&config).expect("loadgen runs");
        assert!(report.requests > 0, "{report:?}");
        assert!(
            report.delete_requests > 0,
            "delete share must reach the engine: {report:?}"
        );
        let json = report.to_json();
        assert!(json.contains("\"delete_requests\""), "{json}");
        assert!(json.contains("\"coalesced_deletes\""), "{json}");
    }

    #[test]
    fn report_comparison_gates_on_throughput_only() {
        let report = |ops: f64| -> String {
            format!(
                "{{\"no_oplog\":{{\"ops_per_sec\":{ops}}},\
                 \"oplog_batch\":{{\"ops_per_sec\":{ops}}},\
                 \"catchup\":{{\"ops_per_sec\":{ops}}},\
                 \"probe\":[{{\"dense\":{{\"point_probe_ns\":999999}}}}]}}"
            )
        };
        // Within tolerance (even slightly down) passes and reports deltas.
        let lines = compare_reports(&report(95.0), &report(100.0), 0.20).expect("within tolerance");
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("no_oplog.ops_per_sec"), "{lines:?}");
        // Past tolerance fails, naming the metric.
        let err = compare_reports(&report(70.0), &report(100.0), 0.20).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        assert!(err.contains("no_oplog.ops_per_sec"), "{err}");
        // A malformed or incomplete report is an error, not a silent pass.
        let err = compare_reports("{}", &report(100.0), 0.20).unwrap_err();
        assert!(err.contains("no no_oplog.ops_per_sec"), "{err}");
        assert!(compare_reports("nonsense", &report(1.0), 0.2).is_err());
    }

    #[test]
    fn a_short_run_measures_real_traffic() {
        let config = LoadgenConfig {
            connections: 4,
            secs: 0.4,
            pipeline: 4,
            rows: 200,
            ..LoadgenConfig::default()
        };
        let report = run(&config).expect("loadgen runs");
        assert!(report.requests > 0, "{report:?}");
        assert!(report.ops_per_sec > 0.0);
        assert!(report.p99_ns >= report.p50_ns);
        assert!(
            report.insert_requests > 0,
            "insert-heavy mix must reach the engine: {report:?}"
        );
        let json = report.to_json();
        assert!(json.contains("\"ops_per_sec\""), "{json}");
    }
}
