//! End-to-end drive of the `mithra serve` NDJSON protocol: the engine is
//! spawned in-process and exercised through the same [`handle_line`] /
//! [`serve_lines`] / [`serve`] entry points the CLI uses, including
//! malformed-request error responses and a real TCP round trip.

use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Mutex};

use mithra::prelude::*;
use mithra::service::oplog::{OpLog, SyncPolicy};
use mithra::service::protocol::{parse_request, Json, Request, OPS};
use mithra::service::{handle_line, load_snapshot, serve, serve_lines, ServeOptions};

/// COMPAS-flavored fixture with value dictionaries, so protocol rows can be
/// sent as value names.
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

fn request(engine: &mut CoverageEngine, line: &str) -> Json {
    let response = handle_line(engine, &ServeOptions::new(), line);
    Json::parse(&response).unwrap_or_else(|e| panic!("bad JSON `{response}`: {e}"))
}

fn assert_ok(doc: &Json, line: &str) {
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {line} → {doc:?}"
    );
}

/// The ISSUE's acceptance sequence: insert → mups → coverage → stats, each
/// answered with one valid JSON line, with state visibly advancing.
#[test]
fn insert_mups_coverage_stats_sequence() {
    let mut engine = engine();
    let initial_mups = engine.mups().len();
    assert!(initial_mups > 0, "fixture must start uncovered");

    // 1. Insert a batch closing part of the frontier.
    let line = r#"{"op":"insert","rows":[["f","black","young"],["f","hispanic","old"]]}"#;
    let doc = request(&mut engine, line);
    assert_ok(&doc, line);
    assert_eq!(doc.get("inserted").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(8));

    // 2. The MUP list reflects the inserts and matches the engine state.
    let doc = request(&mut engine, r#"{"op":"mups"}"#);
    assert_ok(&doc, "mups");
    let listed = doc.get("mups").unwrap().as_array().unwrap().len();
    assert_eq!(listed, engine.mups().len());
    assert!(listed < initial_mups + 2, "frontier should have shrunk");

    // 3. Coverage of the batch's pattern went up.
    let line = r#"{"op":"coverage","pattern":"11X"}"#; // f|black|X
    let doc = request(&mut engine, line);
    assert_ok(&doc, line);
    assert_eq!(doc.get("coverage").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("covered").and_then(Json::as_bool), Some(true));

    // 4. Stats report the maintenance that just happened.
    let doc = request(&mut engine, r#"{"op":"stats"}"#);
    assert_ok(&doc, "stats");
    assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(8));
    assert_eq!(doc.get("inserts").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("batches").and_then(Json::as_u64), Some(1));
    assert_eq!(
        doc.get("mups").and_then(Json::as_u64),
        Some(engine.mups().len() as u64)
    );
}

/// The op name of a parsed request. No wildcard arm: a new `Request`
/// variant does not compile here until it is named.
fn op_name(request: &Request) -> &'static str {
    match request {
        Request::Insert { .. } => "insert",
        Request::Delete { .. } => "delete",
        Request::Grow { .. } => "grow",
        Request::Mups { .. } => "mups",
        Request::Coverage { .. } => "coverage",
        Request::Enhance { .. } => "enhance",
        Request::Stats => "stats",
        Request::Snapshot => "snapshot",
        Request::Restore => "restore",
        Request::Replicate { .. } => "replicate",
    }
}

/// Every op `parse_request` accepts is served end to end: one request per
/// entry of `OPS`, each parsed to the variant of that name and answered
/// `ok` under it.
#[test]
fn every_op_is_served_through_handle_line() {
    let requests = [
        ("insert", r#"{"op":"insert","row":["f","black","old"]}"#),
        ("delete", r#"{"op":"delete","row":["f","black","old"]}"#),
        ("grow", r#"{"op":"grow","attr":"race","value":"asian"}"#),
        ("mups", r#"{"op":"mups","limit":1}"#),
        ("coverage", r#"{"op":"coverage","pattern":"1XX"}"#),
        ("enhance", r#"{"op":"enhance","lambda":1}"#),
        ("stats", r#"{"op":"stats"}"#),
        ("snapshot", r#"{"op":"snapshot"}"#),
        ("restore", r#"{"op":"restore"}"#),
        ("replicate", r#"{"op":"replicate","from":0}"#),
    ];
    assert_eq!(requests.map(|(op, _)| op), OPS);
    let dir = std::env::temp_dir().join(format!("mithra-every-op-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // `restore` refuses to run beside an op log, so only `replicate` gets one.
    let with_snapshot = ServeOptions::new().with_snapshot_path(Some(dir.join("engine.snapshot")));
    let log = OpLog::open(&dir.join("engine.oplog"), SyncPolicy::Off).unwrap();
    let with_log = ServeOptions::new().with_oplog(Some(Arc::new(Mutex::new(log))));
    let mut engine = engine();
    for (op, line) in requests {
        let parsed = parse_request(line).unwrap_or_else(|f| panic!("{line}: {f:?}"));
        assert_eq!(op_name(&parsed.request), op, "{line}");
        let options = if op == "replicate" {
            &with_log
        } else {
            &with_snapshot
        };
        let response = handle_line(&mut engine, options, line);
        let doc = Json::parse(&response).unwrap();
        assert_ok(&doc, line);
        assert_eq!(doc.get("op").and_then(Json::as_str), Some(op), "{response}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The served engine's oracle holds the coverage lattice. After every
/// step of a mixed request stream, its `coverage` answers equal the dense
/// `from_dataset` oracle's and its MUPs equal a batch DEEPDIVER audit.
#[test]
fn lattice_engine_serves_the_dense_oracles_answers() {
    let mut engine = engine();
    assert!(engine.oracle().has_lattice());
    let script = [
        (r#"{"op":"mups"}"#, None),
        (
            r#"{"op":"insert","rows":[["f","black","young"],["f","hispanic","old"]]}"#,
            None,
        ),
        (r#"{"op":"coverage","pattern":"11X"}"#, Some("11X")),
        (r#"{"op":"delete","row":["f","black","young"]}"#, None),
        (r#"{"op":"mups"}"#, None),
        (r#"{"op":"coverage","pattern":"X0X"}"#, Some("X0X")),
    ];
    for (line, pattern) in script {
        let doc = request(&mut engine, line);
        assert_ok(&doc, line);
        if let Some(pattern) = pattern {
            let dense = CoverageOracle::from_dataset(engine.dataset());
            let codes = Pattern::parse(pattern).unwrap();
            assert_eq!(
                doc.get("coverage").and_then(Json::as_u64),
                Some(dense.coverage(codes.codes())),
                "{line}"
            );
        }
        let batch = CoverageReport::audit(engine.dataset(), Threshold::Count(1)).unwrap();
        assert_eq!(engine.mups(), batch.mups.as_slice(), "after {line}");
    }
}

/// Engine state advanced through the protocol equals a batch DEEPDIVER
/// audit of the same materialized dataset.
#[test]
fn protocol_inserts_match_batch_audit() {
    let mut engine = engine();
    let mut materialized = engine.dataset().clone();
    let inserts = [
        ("m", "hispanic", "old"),
        ("f", "white", "young"),
        ("f", "white", "young"),
        ("m", "black", "old"),
    ];
    for (sex, race, age) in inserts {
        let line = format!(r#"{{"op":"insert","row":["{sex}","{race}","{age}"]}}"#);
        let doc = request(&mut engine, &line);
        assert_ok(&doc, &line);
        let row = [
            materialized.schema().attribute(0).code_of(sex).unwrap(),
            materialized.schema().attribute(1).code_of(race).unwrap(),
            materialized.schema().attribute(2).code_of(age).unwrap(),
        ];
        materialized.push_row(&row).unwrap();
    }
    let batch = CoverageReport::audit(&materialized, Threshold::Count(1)).unwrap();
    assert_eq!(engine.mups(), batch.mups.as_slice());
}

/// Every malformed request yields `{"ok":false}` with a reason — and the
/// engine keeps serving afterwards, with no state damage.
#[test]
fn malformed_requests_get_error_responses() {
    let mut engine = engine();
    let rows_before = engine.dataset().len();
    let bad_lines = [
        "",                                       // handled upstream (blank skipped) but must not panic
        "{",                                      // truncated JSON
        "[]",                                     // not an object
        r#"{"op":"audit"}"#,                      // unknown op
        r#"{"op":"insert"}"#,                     // missing rows
        r#"{"op":"insert","row":["m","black"]}"#, // arity mismatch
        r#"{"op":"insert","row":["m","martian","old"]}"#, // unknown value
        r#"{"op":"insert","rows":[["m","white","old"],["m","martian","old"]]}"#, // bad batch → atomic reject
        r#"{"op":"coverage","pattern":"1X"}"#,                                   // pattern arity
        r#"{"op":"coverage","pattern":"1?X"}"#,                                  // pattern syntax
        r#"{"op":"enhance","lambda":0}"#,                                        // λ out of range
        r#"{"op":"mups","limit":"ten"}"#,                                        // wrong type
    ];
    for line in bad_lines {
        let doc = request(&mut engine, line);
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(false),
            "`{line}` should have been rejected"
        );
        let reason = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(!reason.is_empty());
    }
    assert_eq!(
        engine.dataset().len(),
        rows_before,
        "rejected requests must not mutate the dataset"
    );
    let doc = request(&mut engine, r#"{"op":"stats"}"#);
    assert_ok(&doc, "stats after errors");
}

/// The bug this PR fixes, end-to-end: a row carrying a previously unseen
/// value string arrives over the protocol. Strict mode still rejects it;
/// under `--grow-schema` (or an explicit `grow` op) it lands, the engine's
/// MUP set equals a batch audit of the rebuilt grown dataset, and snapshot
/// v3 round-trips the grown dictionaries through a process restart.
#[test]
fn unseen_values_grow_through_the_serving_path() {
    let dir = std::env::temp_dir().join(format!("mithra-grow-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.snapshot");
    let options = ServeOptions::new()
        .with_snapshot_path(Some(path.clone()))
        .with_grow_schema(true);

    let mups_response = {
        let mut engine = engine();
        // Strict mode: the unseen value is rejected (default behavior).
        let strict = handle_line(
            &mut engine,
            &ServeOptions::new(),
            r#"{"op":"insert","row":["f","asian","old"]}"#,
        );
        assert!(strict.contains("\"ok\":false"), "{strict}");

        // Growth mode: the same insert registers `asian` and lands the row.
        let line = r#"{"op":"insert","row":["f","asian","old"]}"#;
        let doc = Json::parse(&handle_line(&mut engine, &options, line)).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(7));

        // An explicit grow op registers a value with zero rows.
        let line = r#"{"op":"grow","attr":"age","value":"middle"}"#;
        let doc = Json::parse(&handle_line(&mut engine, &options, line)).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("code").and_then(Json::as_u64), Some(2));

        // The maintained MUP set equals a batch audit of the grown dataset.
        let batch = CoverageReport::audit(engine.dataset(), Threshold::Count(1)).unwrap();
        assert_eq!(engine.mups(), batch.mups.as_slice());

        let doc = Json::parse(&handle_line(&mut engine, &options, r#"{"op":"snapshot"}"#)).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        handle_line(&mut engine, &ServeOptions::new(), r#"{"op":"mups"}"#)
        // …engine dropped: process state gone.
    };

    let mut revived: CoverageEngine = load_snapshot(&path).expect("snapshot v3 loads");
    assert_eq!(
        handle_line(&mut revived, &ServeOptions::new(), r#"{"op":"mups"}"#),
        mups_response,
        "restored engine must serve the identical mups response"
    );
    assert_eq!(revived.dictionary_growth(), &[0, 1, 1]);
    let schema = revived.dataset().schema();
    assert_eq!(schema.attribute(1).code_of("asian").unwrap(), 3);
    assert_eq!(schema.attribute(2).code_of("middle").unwrap(), 2);
    // The revived engine keeps accepting rows on the grown values.
    let line = r#"{"op":"insert","row":["m","asian","middle"]}"#;
    let doc = Json::parse(&handle_line(&mut revived, &options, line)).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    let batch = CoverageReport::audit(revived.dataset(), Threshold::Count(1)).unwrap();
    assert_eq!(revived.mups(), batch.mups.as_slice());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deletes through the protocol are the exact inverse of inserts: after an
/// insert+delete pair the MUP set, coverage answers, and row count are back
/// to baseline, and a delete of an absent row is rejected atomically.
#[test]
fn protocol_deletes_mirror_inserts() {
    let mut engine = engine();
    let baseline_mups = request(&mut engine, r#"{"op":"mups"}"#);
    let line = r#"{"op":"insert","rows":[["f","black","young"],["f","black","young"]]}"#;
    assert_ok(&request(&mut engine, line), line);

    let line = r#"{"op":"delete","row":["f","black","young"]}"#;
    let doc = request(&mut engine, line);
    assert_ok(&doc, line);
    assert_eq!(doc.get("deleted").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(7));

    let line = r#"{"op":"delete","rows":[["f","black","young"]]}"#;
    assert_ok(&request(&mut engine, line), line);
    let after = request(&mut engine, r#"{"op":"mups"}"#);
    assert_eq!(
        baseline_mups.get("mups").unwrap().as_array().unwrap(),
        after.get("mups").unwrap().as_array().unwrap(),
        "insert+delete must be a no-op on the frontier"
    );

    // Both copies are gone: a third delete is rejected and changes nothing.
    let doc = request(&mut engine, line);
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(engine.dataset().len(), 6);

    // The protocol-maintained state still equals a batch audit.
    let batch = CoverageReport::audit(engine.dataset(), Threshold::Count(1)).unwrap();
    assert_eq!(engine.mups(), batch.mups.as_slice());
}

/// The durability acceptance path: mutate through the protocol, `snapshot`,
/// kill the engine, restore from disk — the revived engine serves byte-for-
/// byte identical `mups` and `stats` responses without a re-audit.
#[test]
fn killed_and_restored_engine_serves_identical_responses() {
    let dir = std::env::temp_dir().join(format!("mithra-proto-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.snapshot");

    let (mups_response, stats_response) = {
        let mut engine = engine();
        for line in [
            r#"{"op":"insert","rows":[["f","black","young"],["m","hispanic","old"]]}"#,
            r#"{"op":"delete","row":["m","white","young"]}"#,
        ] {
            assert_ok(&request(&mut engine, line), line);
        }
        let snap_options = ServeOptions::new().with_snapshot_path(Some(path.clone()));
        let doc = Json::parse(&handle_line(
            &mut engine,
            &snap_options,
            r#"{"op":"snapshot"}"#,
        ))
        .unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        (
            handle_line(&mut engine, &ServeOptions::new(), r#"{"op":"mups"}"#),
            handle_line(&mut engine, &ServeOptions::new(), r#"{"op":"stats"}"#),
        )
        // …engine dropped here: the process state is gone.
    };

    let mut revived: CoverageEngine = load_snapshot(&path).expect("snapshot loads");
    assert_eq!(
        handle_line(&mut revived, &ServeOptions::new(), r#"{"op":"mups"}"#),
        mups_response
    );
    // Stats must agree on every durable field; the memo-cache gauges are
    // process-local (a restored engine starts cold) and are exempt.
    let revived_stats = handle_line(&mut revived, &ServeOptions::new(), r#"{"op":"stats"}"#);
    let expected = Json::parse(&stats_response).unwrap();
    let got = Json::parse(&revived_stats).unwrap();
    for key in [
        "ok",
        "rows",
        "attributes",
        "tau",
        "mups",
        "max_covered_level",
        "inserts",
        "batches",
        "deletes",
        "delete_batches",
        "mups_retired",
        "mups_discovered",
        "full_recomputes",
    ] {
        assert_eq!(got.get(key), expected.get(key), "stats field `{key}`");
    }
    assert!(got.get("cache").is_some());
    // And it is a live engine, not a read-only replica.
    let line = r#"{"op":"insert","row":["f","white","old"]}"#;
    assert_ok(&request(&mut revived, line), line);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `serve_lines` (the stdin/stdout mode): a scripted session produces one
/// response line per request, in order.
#[test]
fn scripted_stdio_session() {
    let mut engine = engine();
    let script = "\
{\"op\":\"stats\"}\n\
not json\n\
{\"op\":\"insert\",\"row\":[\"f\",\"black\",\"young\"]}\n\
{\"op\":\"mups\",\"limit\":3}\n";
    let mut output = Vec::new();
    serve_lines(
        &mut engine,
        &ServeOptions::new(),
        script.as_bytes(),
        &mut output,
    )
    .unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    let oks: Vec<Option<bool>> = lines
        .iter()
        .map(|l| Json::parse(l).unwrap().get("ok").and_then(Json::as_bool))
        .collect();
    assert_eq!(oks, vec![Some(true), Some(false), Some(true), Some(true)]);
}

/// Full TCP round trip: bind an ephemeral port, serve on the event loop,
/// and run two sequential client connections against the shared engine —
/// state must persist across connections.
#[test]
fn tcp_round_trip_shares_one_engine() {
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let shared = Arc::new(Mutex::new(engine()));
    std::thread::spawn(move || {
        let _ = serve(shared, ServeOptions::new(), listener);
    });

    let ask = |line: &str| -> Json {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        drop(stream);
        Json::parse(response.trim()).unwrap()
    };

    let doc = ask(r#"{"op":"insert","row":["f","black","young"]}"#);
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    // A second connection sees the first connection's insert.
    let doc = ask(r#"{"op":"stats"}"#);
    assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(7));
    assert_eq!(doc.get("inserts").and_then(Json::as_u64), Some(1));
    // And a third connection reads the same engine.
    let doc = ask(r#"{"op":"coverage","pattern":"XXX"}"#);
    assert_eq!(doc.get("coverage").and_then(Json::as_u64), Some(7));
}
