//! Integration drive of the durability and replication subsystem: a leader
//! serving with `--oplog`, a TCP follower tailing it through the
//! `replicate` op, a file-tailing follower sharing the log path, and
//! multi-dataset tenancy routing by the `"dataset"` request field. The
//! leader's own responses are the reference — a caught-up follower must
//! serve byte-identical reads and reject mutations with `read_only`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mithra::prelude::*;
use mithra::service::oplog::{read_entries_from, REPLICATE_BATCH_LIMIT};
use mithra::service::protocol::Json;
use mithra::service::snapshot::parse_snapshot_anchored;
use mithra::service::{
    follower_channel, handle_line, load_snapshot_anchored, replay_entries, run_follower, serve,
    serve_follower, serve_lines, serve_tenants, OpLog, ReplicaSource, ReplicationStatus,
    ServeOptions, SyncPolicy, TenantSpec,
};

/// Same COMPAS-flavored fixture as the protocol suites, so the replicated
/// state has value dictionaries and a non-trivial MUP frontier.
fn engine() -> CoverageEngine {
    let schema = Schema::new(vec![
        Attribute::with_values("sex", ["m", "f"]).unwrap(),
        Attribute::with_values("race", ["white", "black", "hispanic"]).unwrap(),
        Attribute::with_values("age", ["young", "old"]).unwrap(),
    ])
    .unwrap();
    let rows = [
        vec![0, 0, 0],
        vec![0, 0, 1],
        vec![0, 1, 0],
        vec![1, 0, 0],
        vec![1, 0, 1],
        vec![0, 2, 0],
    ];
    let ds = Dataset::from_rows(schema, &rows).unwrap();
    CoverageEngine::new(ds, Threshold::Count(1)).unwrap()
}

fn scratch_log(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mithra-replication-{tag}-{}.oplog",
        std::process::id()
    ))
}

/// Serves `engine` on an ephemeral port in a background thread.
fn spawn(engine: Arc<Mutex<CoverageEngine>>, options: ServeOptions) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = serve(engine, options, listener);
    });
    addr
}

/// A fixture-engine follower of `source` served on an ephemeral port,
/// with its fetcher on a second thread: the follower's address, its
/// progress, the fetcher's stop flag and its thread.
fn spawn_follower(
    source: ReplicaSource,
    options: ServeOptions,
) -> (
    SocketAddr,
    Arc<ReplicationStatus>,
    Arc<AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let status = Arc::new(ReplicationStatus::new(source.describe(), 0));
    let (pages, feed) = follower_channel(&status).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || serve_follower(engine(), feed, options, listener));
    let stop = Arc::new(AtomicBool::new(false));
    let tail = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_follower(source, pages, Duration::from_millis(10), stop))
    };
    (addr, status, stop, tail)
}

/// A field of the fixture server's `stats` answer.
fn stats_field(stream: &mut TcpStream, request: &str, key: &str) -> u64 {
    let stats = ask_pipelined(stream, request, 1);
    let doc = Json::parse(&stats[0]).unwrap();
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no `{key}` in {}", stats[0]))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Writes `payload` in one syscall and reads exactly `n` response lines.
fn ask_pipelined(stream: &mut TcpStream, payload: &str, n: usize) -> Vec<String> {
    stream.write_all(payload.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    (0..n)
        .map(|i| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap_or_else(|e| {
                panic!("response {i}/{n} never arrived: {e}");
            });
            line.trim_end().to_string()
        })
        .collect()
}

/// Polls until the follower's applied seq reaches `seq` (10 s deadline).
fn await_catchup(status: &ReplicationStatus, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while status.applied_seq() < seq {
        assert!(
            Instant::now() < deadline,
            "follower stuck at seq {} waiting for {seq} ({} errors)",
            status.applied_seq(),
            status.errors()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Leader with an op log, TCP follower tailing `replicate`: after catch-up
/// the follower answers reads byte-for-byte like the leader — including
/// dictionary growth it learned from the log — rejects writes with the
/// stable `read_only` code, and reports its position under
/// `stats.replication`.
#[test]
fn tcp_follower_replays_the_leader_and_serves_identical_reads() {
    let path = scratch_log("tcp");
    let log = Arc::new(Mutex::new(OpLog::open(&path, SyncPolicy::Batch).unwrap()));
    let leader = Arc::new(Mutex::new(engine()));
    let leader_addr = spawn(
        Arc::clone(&leader),
        ServeOptions::new()
            .with_oplog(Some(Arc::clone(&log)))
            .with_grow_schema(true),
    );

    // Three logged mutations: a two-row insert, an insert that grows the
    // `race` dictionary, and a delete.
    let mut stream = connect(leader_addr);
    let script = concat!(
        "{\"op\":\"insert\",\"rows\":[[\"f\",\"black\",\"young\"],[\"f\",\"hispanic\",\"old\"]]}\n",
        "{\"op\":\"insert\",\"row\":[\"m\",\"martian\",\"old\"]}\n",
        "{\"op\":\"delete\",\"row\":[\"f\",\"hispanic\",\"old\"]}\n",
    );
    for response in ask_pipelined(&mut stream, script, 3) {
        let doc = Json::parse(&response).unwrap();
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
    }

    // A follower bootstrapped from the same base CSV state tails the leader.
    let source = ReplicaSource::Tcp(leader_addr.to_string());
    let (follower_addr, status, stop, tail) = spawn_follower(source, ServeOptions::new());
    await_catchup(&status, 3);

    let mut follower_stream = connect(follower_addr);

    // Byte-identical reads, leader vs follower.
    let reads = concat!(
        "{\"id\":1,\"op\":\"mups\"}\n",
        "{\"id\":2,\"op\":\"coverage\",\"pattern\":\"11X\"}\n",
        "{\"id\":3,\"op\":\"coverage\",\"pattern\":\"X0X\"}\n",
    );
    let from_leader = ask_pipelined(&mut stream, reads, 3);
    let from_follower = ask_pipelined(&mut follower_stream, reads, 3);
    assert_eq!(from_follower, from_leader, "follower reads diverged");

    // Mutations are refused with the stable code — nothing is applied.
    let rejected = ask_pipelined(
        &mut follower_stream,
        "{\"op\":\"insert\",\"row\":[\"m\",\"white\",\"old\"]}\n",
        1,
    );
    let doc = Json::parse(&rejected[0]).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("read_only"));

    // The follower's stats expose its replication position.
    let stats = ask_pipelined(&mut follower_stream, "{\"op\":\"stats\"}\n", 1);
    let doc = Json::parse(&stats[0]).unwrap();
    let replication = doc.get("replication").expect("stats.replication section");
    assert_eq!(
        replication.get("role").and_then(Json::as_str),
        Some("follower")
    );
    assert_eq!(
        replication.get("applied_seq").and_then(Json::as_u64),
        Some(3)
    );

    stop.store(true, Ordering::Relaxed);
    tail.join().unwrap().unwrap();
    std::fs::remove_file(&path).ok();
}

/// A follower can also tail a shared log *file* (no leader process at all):
/// it applies the entries through the ordinary engine path and converges on
/// the state of an engine that applied them directly.
#[test]
fn file_tailing_follower_catches_up_from_a_shared_log() {
    use mithra::service::LoggedOp;

    let path = scratch_log("file");
    let mut reference = engine();
    {
        let mut log = OpLog::open(&path, SyncPolicy::Always).unwrap();
        for row in [["f", "black", "young"], ["f", "hispanic", "old"]] {
            let raw: Vec<String> = row.iter().map(|s| s.to_string()).collect();
            let coded: Vec<u8> = raw
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    reference
                        .dataset()
                        .schema()
                        .attribute(i)
                        .code_of(v)
                        .unwrap()
                })
                .collect();
            reference.insert(&coded).unwrap();
            log.append(LoggedOp::Insert { rows: vec![raw] }).unwrap();
        }
    }

    let source = ReplicaSource::File(path.clone());
    let (addr, status, stop, tail) = spawn_follower(source, ServeOptions::new());
    await_catchup(&status, 2);
    stop.store(true, Ordering::Relaxed);
    tail.join().unwrap().unwrap();
    std::fs::remove_file(&path).ok();

    // The follower's engine lives in its event loop: read it over the
    // protocol.
    let mut stream = connect(addr);
    let mups = ask_pipelined(&mut stream, "{\"op\":\"mups\"}\n", 1);
    assert_eq!(
        mups[0],
        handle_line(&mut reference, &ServeOptions::new(), r#"{"op":"mups"}"#)
    );
    let rows = stats_field(&mut stream, "{\"op\":\"stats\"}\n", "rows");
    assert_eq!(rows, reference.dataset().len() as u64);
    assert_eq!(status.entries_applied(), 2);
}

/// Two datasets behind one event loop: requests route by the `"dataset"`
/// field (absent = tenant 0), mutations stay isolated to their tenant,
/// unknown names get the stable `unknown_dataset` code, and `stats` lists
/// the hosted datasets.
#[test]
fn datasets_route_by_name_and_stay_isolated() {
    let hr = {
        let schema = Schema::new(vec![
            Attribute::with_values("dept", ["eng", "sales"]).unwrap(),
            Attribute::with_values("level", ["junior", "senior"]).unwrap(),
        ])
        .unwrap();
        let ds = Dataset::from_rows(schema, &[vec![0, 0], vec![1, 1]]).unwrap();
        CoverageEngine::new(ds, Threshold::Count(1)).unwrap()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let tenants = vec![
        TenantSpec::new("default", engine(), None, ServeOptions::new()),
        TenantSpec::new("hr", hr, None, ServeOptions::new()),
    ];
    std::thread::spawn(move || {
        let _ = serve_tenants(tenants, listener);
    });

    let mut stream = connect(addr);
    let script = concat!(
        "{\"id\":1,\"op\":\"insert\",\"row\":[\"f\",\"black\",\"young\"]}\n",
        "{\"id\":2,\"dataset\":\"hr\",\"op\":\"insert\",\"row\":[\"eng\",\"senior\"]}\n",
        "{\"id\":3,\"dataset\":\"default\",\"op\":\"mups\"}\n",
        "{\"id\":4,\"dataset\":\"hr\",\"op\":\"mups\"}\n",
        "{\"id\":5,\"dataset\":\"payroll\",\"op\":\"mups\"}\n",
    );
    let responses = ask_pipelined(&mut stream, script, 5);
    assert_eq!(
        responses[0],
        r#"{"ok":true,"id":1,"op":"insert","inserted":1,"rows":7}"#
    );
    assert_eq!(
        responses[1],
        r#"{"ok":true,"id":2,"op":"insert","inserted":1,"rows":3}"#
    );
    for response in &responses[2..4] {
        let doc = Json::parse(response).unwrap();
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
    }
    let doc = Json::parse(&responses[4]).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("code").and_then(Json::as_str),
        Some("unknown_dataset")
    );

    // Isolation: each mutation landed only in its own engine.
    let rows = |stream: &mut TcpStream, request| stats_field(stream, request, "rows");
    assert_eq!(rows(&mut stream, "{\"op\":\"stats\"}\n"), 7);
    let hr_stats = "{\"dataset\":\"hr\",\"op\":\"stats\"}\n";
    assert_eq!(rows(&mut stream, hr_stats), 3);

    // The default tenant's stats list every hosted dataset with its
    // routed-request counts.
    let stats = ask_pipelined(&mut stream, "{\"op\":\"stats\"}\n", 1);
    let doc = Json::parse(&stats[0]).unwrap();
    let datasets = doc
        .get("io")
        .and_then(|io| io.get("datasets"))
        .and_then(Json::as_array)
        .expect("stats.io.datasets section");
    let names: Vec<&str> = datasets
        .iter()
        .filter_map(|d| d.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["default", "hr"]);
}

/// A `snapshot` pipelined into the *same event-loop tick* as preceding
/// mutations must anchor past them: a snapshot that captured the tick's
/// mutations while its anchor (and the truncation) excluded them would
/// make recovery and follower snapshot-sync replay the tail and
/// double-apply the rows.
#[test]
fn same_tick_snapshot_anchors_past_staged_mutations() {
    let log_path = scratch_log("snap-anchor");
    let snap_path = std::env::temp_dir().join(format!(
        "mithra-replication-snap-anchor-{}.snap",
        std::process::id()
    ));
    std::fs::remove_file(&log_path).ok();
    std::fs::remove_file(&snap_path).ok();
    let log = Arc::new(Mutex::new(
        OpLog::open(&log_path, SyncPolicy::Batch).unwrap(),
    ));
    let addr = spawn(
        Arc::new(Mutex::new(engine())),
        ServeOptions::new()
            .with_oplog(Some(Arc::clone(&log)))
            .with_snapshot_path(Some(snap_path.clone())),
    );

    // One write, so the whole script lands in one readiness tick: three
    // mutations, a snapshot mid-segment, then two more mutations whose
    // entries form the post-anchor tail.
    let mut stream = connect(addr);
    let script = concat!(
        "{\"op\":\"insert\",\"row\":[\"f\",\"black\",\"young\"]}\n",
        "{\"op\":\"insert\",\"row\":[\"f\",\"hispanic\",\"old\"]}\n",
        "{\"op\":\"insert\",\"row\":[\"m\",\"black\",\"old\"]}\n",
        "{\"op\":\"snapshot\"}\n",
        "{\"op\":\"insert\",\"row\":[\"f\",\"hispanic\",\"old\"]}\n",
        "{\"op\":\"delete\",\"row\":[\"f\",\"black\",\"young\"]}\n",
    );
    let responses = ask_pipelined(&mut stream, script, 6);
    for response in &responses {
        let doc = Json::parse(response).unwrap();
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
    }
    // The snapshot anchored *after* the three staged inserts, whether or
    // not they shared its tick.
    let snapshot = Json::parse(&responses[3]).unwrap();
    assert_eq!(snapshot.get("oplog_seq").and_then(Json::as_u64), Some(3));

    // Recovery (snapshot + tail replay) reproduces the live engine exactly
    // — no double-applied rows. The live engine is read over the protocol.
    let live_rows = stats_field(&mut stream, "{\"op\":\"stats\"}\n", "rows") as usize;
    assert_eq!(live_rows, 6 + 4 - 1);
    let (mut recovered, anchor): (CoverageEngine, u64) =
        load_snapshot_anchored(&snap_path).unwrap();
    assert_eq!(anchor, 3);
    let tail = read_entries_from(&log_path, anchor + 1).unwrap();
    let applied = replay_entries(&mut recovered, &tail, anchor).unwrap();
    assert_eq!(applied, 5);
    assert_eq!(recovered.dataset().len(), live_rows);
    let live_mups = ask_pipelined(&mut stream, "{\"op\":\"mups\"}\n", 1);
    assert_eq!(
        handle_line(&mut recovered, &ServeOptions::new(), r#"{"op":"mups"}"#),
        live_mups[0]
    );

    std::fs::remove_file(&log_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

/// The stdin front end runs the same segment step: a `snapshot` in the
/// same read as preceding inserts anchors past them, so recovery replays
/// only what came after it.
#[test]
fn same_read_snapshot_on_stdin_anchors_past_staged_mutations() {
    let log_path = scratch_log("stdin-snap-anchor");
    let snap_path = std::env::temp_dir().join(format!(
        "mithra-replication-stdin-snap-anchor-{}.snap",
        std::process::id()
    ));
    std::fs::remove_file(&log_path).ok();
    std::fs::remove_file(&snap_path).ok();
    let log = Arc::new(Mutex::new(
        OpLog::open(&log_path, SyncPolicy::Batch).unwrap(),
    ));
    let options = ServeOptions::new()
        .with_oplog(Some(Arc::clone(&log)))
        .with_snapshot_path(Some(snap_path.clone()));
    let mut live = engine();
    // A byte slice is one read: insert, insert and snapshot form one
    // segment.
    let script = concat!(
        "{\"op\":\"insert\",\"row\":[\"f\",\"black\",\"young\"]}\n",
        "{\"op\":\"insert\",\"row\":[\"f\",\"hispanic\",\"old\"]}\n",
        "{\"op\":\"snapshot\"}\n",
    );
    let mut output = Vec::new();
    serve_lines(&mut live, &options, script.as_bytes(), &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    let responses: Vec<&str> = text.lines().collect();
    assert_eq!(responses.len(), 3, "{text}");
    for response in &responses {
        let doc = Json::parse(response).unwrap();
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
    }
    let snapshot = Json::parse(responses[2]).unwrap();
    assert_eq!(snapshot.get("oplog_seq").and_then(Json::as_u64), Some(2));
    // The log was truncated through the anchor: nothing is left to replay.
    assert_eq!(log.lock().unwrap().last_seq(), 2);
    assert!(log.lock().unwrap().is_empty());
    assert!(read_entries_from(&log_path, 1).unwrap().is_empty());

    // Snapshot + tail replay equals the live engine.
    let (mut recovered, anchor): (CoverageEngine, u64) =
        load_snapshot_anchored(&snap_path).unwrap();
    assert_eq!(anchor, 2);
    let tail = read_entries_from(&log_path, anchor + 1).unwrap();
    replay_entries(&mut recovered, &tail, anchor).unwrap();
    assert_eq!(recovered.dataset().len(), live.dataset().len());
    assert_eq!(recovered.mups(), live.mups());

    std::fs::remove_file(&log_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

/// The leader's side of catch-up: `from:0` means the beginning, a page
/// carries at most `REPLICATE_BATCH_LIMIT` entries and points `next` past
/// them, a caught-up cursor gets an empty page, and a cursor the leader
/// has truncated past answers `bad_request`.
#[test]
fn replicate_pages_from_the_beginning_and_refuses_truncated_history() {
    let log_path = scratch_log("paging");
    let snap_path = log_path.with_extension("snap");
    std::fs::remove_file(&log_path).ok();
    let log = OpLog::open(&log_path, SyncPolicy::Off).unwrap();
    let options = ServeOptions::new()
        .with_oplog(Some(Arc::new(Mutex::new(log))))
        .with_snapshot_path(Some(snap_path.clone()));
    let mut leader = engine();
    let total = REPLICATE_BATCH_LIMIT as u64 + 3;
    let script = "{\"op\":\"insert\",\"row\":[\"f\",\"black\",\"old\"]}\n".repeat(total as usize);
    serve_lines(&mut leader, &options, script.as_bytes(), &mut Vec::new()).unwrap();

    let mut ask = |line: &str| Json::parse(&handle_line(&mut leader, &options, line)).unwrap();
    let replicate = |from: u64| format!("{{\"op\":\"replicate\",\"from\":{from}}}");
    let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64);
    let first = ask(&replicate(0));
    assert_eq!(field(&first, "from"), Some(1));
    assert_eq!(field(&first, "last_seq"), Some(total));
    assert_eq!(field(&first, "count"), Some(REPLICATE_BATCH_LIMIT as u64));
    assert_eq!(
        first
            .get("entries")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(REPLICATE_BATCH_LIMIT)
    );
    let next = field(&first, "next").unwrap();
    assert_eq!(next, REPLICATE_BATCH_LIMIT as u64 + 1);
    let rest = ask(&replicate(next));
    assert_eq!(field(&rest, "count"), Some(3));
    assert_eq!(field(&rest, "next"), Some(total + 1));
    let caught_up = ask(&replicate(total + 1));
    assert_eq!(field(&caught_up, "count"), Some(0));
    assert_eq!(field(&caught_up, "next"), Some(total + 1));

    // A snapshot truncates the log through its anchor: seq 1 is gone.
    let snapshot = ask(r#"{"op":"snapshot"}"#);
    assert_eq!(snapshot.get("ok").and_then(Json::as_bool), Some(true));
    let stale = ask(&replicate(1));
    assert_eq!(stale.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        stale.get("code").and_then(Json::as_str),
        Some("bad_request")
    );

    std::fs::remove_file(&log_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

/// The `replicate` answers for a fixed log, recorded when the leader built
/// them by re-encoding parsed entries; splicing the lines read back from
/// the file must serve the same bytes.
const GOLDEN_REPLICATE: [&str; 3] = [
    r#"{"ok":true,"op":"replicate","from":1,"last_seq":4,"count":4,"entries":[{"v":1,"seq":1,"op":"grow","attr":"race","value":"né \"x\"\\y"},{"v":1,"seq":2,"op":"insert","rows":[["f","né \"x\"\\y","old"],["m","black","young"]]},{"v":1,"seq":3,"op":"delete","rows":[["m","black","young"]]},{"v":1,"seq":4,"op":"insert","rows":[["f","white","old"]]}],"next":5}"#,
    r#"{"ok":true,"id":7,"op":"replicate","from":3,"last_seq":4,"count":2,"entries":[{"v":1,"seq":3,"op":"delete","rows":[["m","black","young"]]},{"v":1,"seq":4,"op":"insert","rows":[["f","white","old"]]}],"next":5}"#,
    r#"{"ok":true,"op":"replicate","from":5,"last_seq":5,"count":1,"entries":[{"v":1,"seq":5,"op":"insert","rows":[["m","white","old"]]}],"next":6}"#,
];

#[test]
fn replicate_answers_are_byte_identical_to_the_golden_pages() {
    let log_path = scratch_log("golden");
    let snap_path = log_path.with_extension("golden-snap");
    std::fs::remove_file(&log_path).ok();
    let log = OpLog::open(&log_path, SyncPolicy::Off).unwrap();
    let options = ServeOptions::new()
        .with_oplog(Some(Arc::new(Mutex::new(log))))
        .with_snapshot_path(Some(snap_path.clone()));
    let mut leader = engine();
    let script = concat!(
        "{\"op\":\"grow\",\"attr\":\"race\",\"value\":\"n\u{e9} \\\"x\\\"\\\\y\"}\n",
        "{\"op\":\"insert\",\"rows\":[[\"f\",\"n\u{e9} \\\"x\\\"\\\\y\",\"old\"],[\"m\",\"black\",\"young\"]]}\n",
        "{\"op\":\"delete\",\"row\":[\"m\",\"black\",\"young\"]}\n",
        "{\"op\":\"insert\",\"row\":[\"f\",\"white\",\"old\"]}\n",
    );
    serve_lines(&mut leader, &options, script.as_bytes(), &mut Vec::new()).unwrap();
    let mut answers = vec![
        handle_line(&mut leader, &options, r#"{"op":"replicate","from":0}"#),
        handle_line(
            &mut leader,
            &options,
            r#"{"id":7,"op":"replicate","from":3}"#,
        ),
    ];
    handle_line(&mut leader, &options, r#"{"op":"snapshot"}"#);
    handle_line(
        &mut leader,
        &options,
        r#"{"op":"insert","row":["m","white","old"]}"#,
    );
    answers.push(handle_line(
        &mut leader,
        &options,
        r#"{"op":"replicate","from":5}"#,
    ));
    assert_eq!(answers, GOLDEN_REPLICATE);
    std::fs::remove_file(&log_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

/// The rows of one fixture insert or delete, as logged.
fn logged_row(row: [&str; 3]) -> Vec<Vec<String>> {
    vec![row.iter().map(|v| v.to_string()).collect()]
}

/// Writes `total` logged mutations to a fresh log at `path` — three
/// inserts, then a delete of the first one's row — applying each to a
/// fixture engine too. Returns that engine and its row count after each
/// prefix (`rows[k]` = base + entries 1..=k).
fn write_leader_log(path: &std::path::Path, total: usize) -> (CoverageEngine, Vec<usize>) {
    use mithra::service::{apply_entry, LoggedOp};
    std::fs::remove_file(path).ok();
    let mut leader = engine();
    let mut rows = vec![leader.dataset().len()];
    let mut log = OpLog::open(path, SyncPolicy::Off).unwrap();
    let inserts = [
        ["f", "black", "young"],
        ["f", "hispanic", "old"],
        ["m", "black", "old"],
    ];
    for i in 0..total {
        let op = match i % 4 {
            3 => LoggedOp::Delete {
                rows: logged_row(inserts[0]),
            },
            k => LoggedOp::Insert {
                rows: logged_row(inserts[k]),
            },
        };
        apply_entry(&mut leader, &op).unwrap();
        log.append(op).unwrap();
        rows.push(leader.dataset().len());
    }
    (leader, rows)
}

/// A file follower answers `snapshot` requests while it catches up, so
/// the snapshots interleave with its page applies. Each snapshot must
/// hold exactly the entries through the anchor it records — base +
/// leader entries 1..=anchor — and restoring it and replaying the tail
/// must serve the leader's final `mups` bytes. A follower whose anchor
/// lagged the applied state would replay an entry twice and diverge.
#[test]
fn follower_snapshots_anchor_at_exactly_the_entries_they_hold() {
    let log_path = scratch_log("follower-snapshots");
    let snap_path = log_path.with_extension("follower-snap");
    std::fs::remove_file(&snap_path).ok();
    let total = 8 * REPLICATE_BATCH_LIMIT + 5;
    let (mut leader, prefix_rows) = write_leader_log(&log_path, total);
    let leader_mups = handle_line(&mut leader, &ServeOptions::new(), r#"{"op":"mups"}"#);
    let tail = read_entries_from(&log_path, 1).unwrap();

    let options = ServeOptions::new().with_snapshot_path(Some(snap_path.clone()));
    let source = ReplicaSource::File(log_path.clone());
    let (addr, status, stop, fetcher) = spawn_follower(source, options);
    // Snapshot back-to-back while the follower catches up, keeping each
    // snapshot's text; check them once it has caught up.
    let mut stream = connect(addr);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut snapshots = Vec::new();
    loop {
        let caught_up = status.applied_seq() == total as u64;
        let answer = ask_pipelined(&mut stream, "{\"op\":\"snapshot\"}\n", 1);
        let doc = Json::parse(&answer[0]).unwrap();
        let anchor = doc
            .get("oplog_seq")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{}", answer[0]));
        snapshots.push((anchor, std::fs::read_to_string(&snap_path).unwrap()));
        if caught_up {
            break;
        }
        assert!(Instant::now() < deadline, "follower stuck");
    }
    let anchors: Vec<u64> = snapshots.iter().map(|(anchor, _)| *anchor).collect();
    assert_eq!(anchors.last(), Some(&(total as u64)));
    for (anchor, text) in snapshots {
        let (mut restored, saved_anchor): (CoverageEngine, u64) =
            parse_snapshot_anchored(&text).unwrap();
        assert_eq!(saved_anchor, anchor);
        assert_eq!(
            restored.dataset().len(),
            prefix_rows[anchor as usize],
            "the snapshot anchored at seq {anchor} holds other entries ({anchors:?})"
        );
        assert_eq!(
            replay_entries(&mut restored, &tail, anchor),
            Ok(total as u64)
        );
        assert_eq!(
            handle_line(&mut restored, &ServeOptions::new(), r#"{"op":"mups"}"#),
            leader_mups,
            "restore + tail replay from seq {anchor} diverged from the leader"
        );
    }
    stop.store(true, Ordering::Relaxed);
    fetcher.join().unwrap().unwrap();
    std::fs::remove_file(&log_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

/// The follower's page channel is bounded: while the event loop does not
/// drain it, the fetcher stops after `FOLLOWER_PAGE_CAP` buffered pages
/// plus the one it blocks on, and fetches no more. Once a loop serves the
/// channel, the follower converges to lag 0.
#[test]
fn follower_page_channel_caps_the_fetcher_until_the_loop_drains() {
    use mithra::service::FOLLOWER_PAGE_CAP;

    let log_path = scratch_log("follower-cap");
    let total = (FOLLOWER_PAGE_CAP + 2) * REPLICATE_BATCH_LIMIT + 7;
    write_leader_log(&log_path, total);
    let status = Arc::new(ReplicationStatus::new("file://cap", 0));
    let (pages, feed) = follower_channel(&status).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let fetcher = {
        let (source, stop) = (ReplicaSource::File(log_path.clone()), Arc::clone(&stop));
        std::thread::spawn(move || run_follower(source, pages, Duration::from_millis(10), stop))
    };
    let blocked = FOLLOWER_PAGE_CAP as u64 + 1;
    let deadline = Instant::now() + Duration::from_secs(10);
    while status.rounds() < blocked {
        assert!(Instant::now() < deadline, "fetcher stalled early");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(status.rounds(), blocked, "the fetcher kept fetching");
    assert_eq!(
        status.leader_seq(),
        blocked * REPLICATE_BATCH_LIMIT as u64,
        "the fetcher holds more than the channel's pages and the one it blocks on"
    );
    assert_eq!(status.applied_seq(), 0);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || serve_follower(engine(), feed, ServeOptions::new(), listener));
    await_catchup(&status, total as u64);
    let mut stream = connect(addr);
    let stats = ask_pipelined(&mut stream, "{\"op\":\"stats\"}\n", 1);
    let doc = Json::parse(&stats[0]).unwrap();
    let replication = doc.get("replication").unwrap();
    assert_eq!(replication.get("lag").and_then(Json::as_u64), Some(0));
    assert_eq!(
        replication.get("applied_seq").and_then(Json::as_u64),
        Some(total as u64)
    );
    stop.store(true, Ordering::Relaxed);
    fetcher.join().unwrap().unwrap();
    std::fs::remove_file(&log_path).ok();
}
