//! Integration drive of the event-driven TCP front end: one readiness loop
//! multiplexing every connection, incremental NDJSON frame decoding,
//! cross-connection insert coalescing, and admission control. The
//! in-process [`handle_line`] and [`serve_lines`] paths serve as the
//! reference — the event loop must produce byte-identical responses.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mithra::prelude::*;
use mithra::service::protocol::Json;
use mithra::service::server::MAX_LINE_BYTES;
use mithra::service::{handle_line, serve, serve_lines, ServeOptions};
use proptest::prelude::*;

/// Same COMPAS-flavored fixture as `serve_protocol.rs`, so both suites
/// exercise identical value dictionaries and frontier shapes.
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

/// Binds an ephemeral port and serves the fixture engine on a background
/// thread, returning the address and a shared handle onto the engine.
fn spawn(options: ServeOptions) -> (SocketAddr, Arc<Mutex<CoverageEngine>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let shared = Arc::new(Mutex::new(engine()));
    let server = Arc::clone(&shared);
    std::thread::spawn(move || {
        let _ = serve(server, options, listener);
    });
    (addr, shared)
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

/// Pipelined requests on one connection come back one response per request,
/// in request order, each echoing its caller-chosen `id`.
#[test]
fn pipelined_requests_answer_in_order_with_ids() {
    let (addr, _) = spawn(ServeOptions::new());
    let mut stream = connect(addr);
    let script = concat!(
        "{\"id\":7,\"op\":\"insert\",\"row\":[\"f\",\"black\",\"young\"]}\n",
        "{\"id\":\"second\",\"op\":\"coverage\",\"pattern\":\"11X\"}\n",
        "{\"id\":9,\"op\":\"mups\",\"limit\":2}\n",
    );
    let responses = ask_pipelined(&mut stream, script, 3);
    assert_eq!(
        responses[0],
        r#"{"ok":true,"id":7,"op":"insert","inserted":1,"rows":7}"#
    );
    let doc = Json::parse(&responses[1]).unwrap();
    assert_eq!(doc.get("id").and_then(Json::as_str), Some("second"));
    assert_eq!(doc.get("covered").and_then(Json::as_bool), Some(true));
    let doc = Json::parse(&responses[2]).unwrap();
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(9));
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
}

/// A request delivered one byte at a time — worst-case fragmentation — is
/// reassembled across readiness events and answered exactly once.
#[test]
fn fragmented_frames_reassemble_across_reads() {
    let (addr, _) = spawn(ServeOptions::new());
    let mut stream = connect(addr);
    let line = "{\"id\":1,\"op\":\"coverage\",\"pattern\":\"0XX\"}\n";
    for byte in line.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
    }
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let doc = Json::parse(response.trim()).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("coverage").and_then(Json::as_u64), Some(4));
}

/// An oversized line is rejected with `line_too_long` in bounded memory and
/// the connection resynchronizes at the next newline — the following
/// request on the same connection is served normally.
#[test]
fn oversized_lines_error_then_resync() {
    let (addr, _) = spawn(ServeOptions::new());
    let mut stream = connect(addr);
    let mut payload = String::with_capacity(MAX_LINE_BYTES + 128);
    payload.push_str("{\"op\":\"mups\",\"junk\":\"");
    payload.push_str(&"a".repeat(MAX_LINE_BYTES + 16));
    payload.push_str("\"}\n{\"id\":2,\"op\":\"stats\"}\n");
    let responses = ask_pipelined(&mut stream, &payload, 2);
    let doc = Json::parse(&responses[0]).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("code").and_then(Json::as_str),
        Some("line_too_long")
    );
    let doc = Json::parse(&responses[1]).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(2));
}

/// A client that pipelines a batch of inserts and vanishes without reading
/// a single response must not wedge the loop: the writes it managed to send
/// still land, and the engine stays consistent with a batch audit.
#[test]
fn mid_batch_disconnect_leaves_the_engine_consistent() {
    let (addr, shared) = spawn(ServeOptions::new());
    {
        let mut stream = connect(addr);
        let burst: String = (0..8)
            .map(|_| "{\"op\":\"insert\",\"row\":[\"f\",\"hispanic\",\"old\"]}\n")
            .collect();
        stream.write_all(burst.as_bytes()).unwrap();
        stream.flush().unwrap();
        // Dropped here: FIN after the payload, no response ever read.
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        {
            let engine = shared.lock().unwrap();
            if engine.dataset().len() == 6 + 8 {
                let batch = CoverageReport::audit(engine.dataset(), Threshold::Count(1)).unwrap();
                assert_eq!(engine.mups(), batch.mups.as_slice());
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "inserts sent before the disconnect never landed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The front end is still alive for the next client.
    let mut stream = connect(addr);
    let responses = ask_pipelined(&mut stream, "{\"op\":\"mups\"}\n", 1);
    assert!(responses[0].starts_with("{\"ok\":true"), "{}", responses[0]);
}

/// TCP, stdin and `handle_line` run one pipeline: an identical pipelined
/// script (mutations, queries, errors, a snapshot and `stats`) yields
/// byte-identical responses on all three, except that TCP `stats` adds the
/// front end's `"io"` section.
#[test]
fn tcp_stdin_and_handle_line_serve_identical_bytes() {
    let snapshot = std::env::temp_dir().join(format!(
        "mithra-serve-event-identical-{}.snap",
        std::process::id()
    ));
    let script = [
        r#"{"id":1,"op":"insert","rows":[["f","black","young"],["f","hispanic","old"]]}"#,
        r#"{"id":2,"op":"coverage","pattern":"11X"}"#,
        r#"{"op":"mups"}"#,
        r#"{"id":3,"op":"insert","row":["m","martian","old"]}"#,
        r#"{"id":4,"op":"delete","row":["f","black","young"]}"#,
        "not json at all",
        r#"{"id":5,"op":"coverage","pattern":"X0X"}"#,
        r#"{"id":6,"op":"snapshot"}"#,
        r#"{"id":7,"op":"stats"}"#,
    ];
    // Each front end writes the snapshot at the same path in turn, so the
    // `snapshot` responses name the same file.
    let options = ServeOptions::new().with_snapshot_path(Some(snapshot.clone()));
    let mut reference = engine();
    let expected: Vec<String> = script
        .iter()
        .map(|line| handle_line(&mut reference, &options, line))
        .collect();
    assert!(!expected[8].contains("\"io\""), "{}", expected[8]);

    let payload: String = script.iter().map(|l| format!("{l}\n")).collect();
    let mut stdin_engine = engine();
    let mut output = Vec::new();
    serve_lines(&mut stdin_engine, &options, payload.as_bytes(), &mut output).unwrap();
    let stdin: Vec<String> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(stdin, expected, "stdin diverged from handle_line");

    let (addr, _) = spawn(options);
    let mut stream = connect(addr);
    let mut tcp = ask_pipelined(&mut stream, &payload, script.len());
    assert!(tcp[8].contains(",\"io\":{\"requests\":"), "{}", tcp[8]);
    tcp[8] = without_io_section(&tcp[8]);
    assert_eq!(tcp, expected, "TCP diverged from handle_line");
    std::fs::remove_file(&snapshot).ok();
}

/// `response` with its `,"io":{…}` section cut out.
fn without_io_section(response: &str) -> String {
    let Some(start) = response.find(",\"io\":{") else {
        return response.to_string();
    };
    let open = start + ",\"io\":".len();
    let mut depth = 0usize;
    for (i, byte) in response.bytes().enumerate().skip(open) {
        match byte {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return format!("{}{}", &response[..start], &response[i + 1..]);
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced io section in {response}");
}

fn io_counter(stats: &Json, key: &str) -> u64 {
    stats
        .get("io")
        .and_then(|io| io.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats io section missing `{key}`"))
}

/// Inserts pipelined into one readiness tick coalesce into fewer engine
/// batches than requests — observable through the `stats` io counters, with
/// every request still answered individually and row counts advancing one
/// insert at a time.
#[test]
fn pipelined_insert_bursts_coalesce_into_fewer_engine_batches() {
    let (addr, _) = spawn(ServeOptions::new());
    let mut stream = connect(addr);
    let per_burst = 32usize;
    let burst: String = (0..per_burst)
        .map(|i| format!("{{\"id\":{i},\"op\":\"insert\",\"row\":[\"m\",\"black\",\"old\"]}}\n"))
        .collect();
    let mut coalesced = false;
    for attempt in 0..10 {
        let responses = ask_pipelined(&mut stream, &burst, per_burst);
        for (i, response) in responses.iter().enumerate() {
            let expected_rows = 6 + attempt * per_burst + i + 1;
            assert_eq!(
                *response,
                format!(
                    "{{\"ok\":true,\"id\":{i},\"op\":\"insert\",\"inserted\":1,\"rows\":{expected_rows}}}"
                ),
            );
        }
        let stats = ask_pipelined(&mut stream, "{\"op\":\"stats\"}\n", 1);
        let doc = Json::parse(&stats[0]).unwrap();
        if io_counter(&doc, "coalesced_inserts") > 0 {
            assert!(
                io_counter(&doc, "insert_engine_batches") < io_counter(&doc, "insert_requests"),
                "coalescing must collapse engine batches: {}",
                stats[0]
            );
            coalesced = true;
            break;
        }
    }
    assert!(
        coalesced,
        "ten pipelined bursts of {per_burst} inserts never shared an engine batch"
    );
}

/// Connects and writes `payload` before the server's event loop starts, so
/// the loop's first read finds the whole burst already in the socket.
fn serve_preloaded(options: ServeOptions, payload: &str) -> TcpStream {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let mut stream = connect(listener.local_addr().unwrap());
    stream.write_all(payload.as_bytes()).unwrap();
    let server = Arc::new(Mutex::new(engine()));
    std::thread::spawn(move || {
        let _ = serve(server, options, listener);
    });
    stream
}

/// `n` pipelined inserts of one fixture row, ids 1..=n.
fn insert_burst(n: usize) -> String {
    (1..=n)
        .map(|i| format!("{{\"id\":{i},\"op\":\"insert\",\"row\":[\"f\",\"black\",\"old\"]}}\n"))
        .collect()
}

/// A full admission budget defers reading; it never refuses a request. A
/// burst of several budgets' worth of inserts, already buffered when the
/// loop first reads, is answered `ok`, in order, one full budget per tick:
/// the engine sees exactly `n / max_pending` insert batches.
#[test]
fn admission_budget_defers_a_burst_instead_of_shedding_it() {
    for (max_pending, n) in [(4, 12), (1, 16)] {
        let payload = format!("{}{{\"op\":\"stats\"}}\n", insert_burst(n));
        let options = ServeOptions::new().with_max_pending(max_pending);
        let mut stream = serve_preloaded(options, &payload);
        let responses = ask_pipelined(&mut stream, "", n + 1);
        for (i, response) in responses[..n].iter().enumerate() {
            assert_eq!(
                *response,
                format!(
                    "{{\"ok\":true,\"id\":{},\"op\":\"insert\",\"inserted\":1,\"rows\":{}}}",
                    i + 1,
                    6 + i + 1
                ),
            );
        }
        let stats = Json::parse(&responses[n]).unwrap();
        assert_eq!(io_counter(&stats, "insert_requests"), n as u64);
        assert_eq!(
            io_counter(&stats, "insert_engine_batches"),
            (n / max_pending) as u64
        );
        let responses = ask_pipelined(&mut stream, "{\"op\":\"mups\",\"limit\":1}\n", 1);
        assert!(responses[0].starts_with("{\"ok\":true"), "{}", responses[0]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any chunking of a pipelined read-only script — including splits in
    /// the middle of a frame — produces exactly the reference responses.
    #[test]
    fn any_chunking_yields_reference_responses(cuts in proptest::collection::vec(0usize..200, 0..8)) {
        let script = [
            r#"{"id":1,"op":"coverage","pattern":"11X"}"#,
            r#"{"op":"mups","limit":2}"#,
            "{malformed",
            r#"{"id":2,"op":"coverage","pattern":"X0X"}"#,
        ];
        let mut reference = engine();
        let options = ServeOptions::new();
        let expected: Vec<String> = script
            .iter()
            .map(|line| handle_line(&mut reference, &options, line))
            .collect();
        let payload: String = script.iter().map(|l| format!("{l}\n")).collect();

        let (addr, _) = spawn(ServeOptions::new());
        let mut stream = connect(addr);
        let bytes = payload.as_bytes();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % bytes.len()).collect();
        cuts.push(bytes.len());
        cuts.sort_unstable();
        let mut start = 0usize;
        for cut in cuts {
            if cut > start {
                stream.write_all(&bytes[start..cut]).unwrap();
                stream.flush().unwrap();
                start = cut;
            }
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let responses: Vec<String> = (0..script.len())
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line.trim_end().to_string()
            })
            .collect();
        prop_assert_eq!(responses, expected);
    }
}
