//! Protocol hardening: hostile or stuck clients are refused with
//! structured errors and bounded resources, never with unbounded memory
//! growth or a wedged accept loop; and every truncation or single-byte
//! flip of a valid line gets exactly one response line, never a panic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use euler_browse::DynamicGeoBrowsingService;
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid};
use euler_serve::{Json, ServeConfig, ServeCore, Server, TcpClient};

fn grid() -> Grid {
    Grid::new(
        DataSpace::new(Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()),
        16,
        16,
    )
    .unwrap()
}

fn start(config: ServeConfig) -> Server {
    let session = Arc::new(DynamicGeoBrowsingService::new(grid()));
    let core = ServeCore::new(session, config);
    Server::start(core, "127.0.0.1:0").expect("bind")
}

fn read_error_line(stream: TcpStream) -> (Json, bool) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response line");
    let json = euler_serve::parse_json(line.trim()).expect("error response is JSON");
    // After the one refusal the server closes: the next read is EOF, or
    // a reset when the server still had unread flood bytes in flight.
    let mut rest = Vec::new();
    let closed = match reader.read_to_end(&mut rest) {
        Ok(n) => n == 0,
        Err(_reset) => true,
    };
    (json, closed)
}

/// One oversized (but terminated) request line gets exactly one
/// structured error response and the connection is closed; the server
/// keeps serving other connections.
#[test]
fn oversized_line_is_refused_once_and_the_connection_closed() {
    let server = start(ServeConfig {
        max_line_bytes: 256,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut line = vec![b'x'; 4096];
    line.push(b'\n');
    stream.write_all(&line).expect("send oversized line");
    stream.flush().unwrap();

    let (json, closed) = read_error_line(stream);
    assert_eq!(json.get("status").and_then(Json::as_str), Some("error"));
    let msg = json.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(
        msg.contains("max_line_bytes"),
        "refusal should name the limit, got: {msg}"
    );
    assert!(closed, "the connection must be closed after the refusal");

    // The listener is unharmed: a fresh polite connection still works.
    let mut client = TcpClient::connect(addr).expect("reconnect");
    let pong = client
        .round_trip(r#"{"tenant":"t","op":"ping"}"#)
        .expect("ping after refusal");
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}

/// A terminator-free stream is refused as soon as it exceeds the bound —
/// the server never waits for a newline that may never come, and never
/// buffers more than the limit.
#[test]
fn terminator_free_stream_is_refused_without_waiting_for_eof() {
    let server = start(ServeConfig {
        max_line_bytes: 256,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    // 64 KiB with no '\n', and the write side stays open: the refusal
    // must come from the bound, not from EOF.
    stream
        .write_all(&vec![b'y'; 64 * 1024])
        .expect("send flood");
    stream.flush().unwrap();

    let (json, closed) = read_error_line(stream);
    assert_eq!(json.get("status").and_then(Json::as_str), Some("error"));
    assert!(closed, "the connection must be closed after the refusal");
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}

/// A connection idle past the timeout is dropped; an active one is not.
#[test]
fn idle_connections_are_dropped_after_the_timeout() {
    let server = start(ServeConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Active connection: a round trip well within the window succeeds.
    let mut client = TcpClient::connect(addr).expect("connect");
    let pong = client
        .round_trip(r#"{"tenant":"t","op":"ping"}"#)
        .expect("ping");
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));

    // Now go quiet: the server must close the connection on its own.
    let stream = TcpStream::connect(addr).expect("idle connect");
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let started = Instant::now();
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    let n = reader
        .read_line(&mut buf)
        .expect("read until server closes");
    assert_eq!(n, 0, "an idle connection must be closed, not answered");
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "closed suspiciously fast — not the idle timeout"
    );
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}

/// One valid line per op and browse knob: the seed corpus of the
/// protocol-line mutation law.
const CORPUS: &[&str] = &[
    r#"{"tenant":"t","op":"browse","cols":4,"rows":3}"#,
    r#"{"tenant":"alice","op":"browse","cols":4,"rows":2,"region":[2,2,14,10],"threads":2,"deadline_ms":50,"mega_threshold":3}"#,
    r#"{"tenant":"feed","op":"insert","rect":[10.0,10.0,12.0,11.0]}"#,
    r#"{"tenant":"feed","op":"remove","rect":[10.0,10.0,12.0,11.0]}"#,
    r#"{"tenant":"t","op":"stats"}"#,
    r#"{"tenant":"ops","op":"ping"}"#,
    r#"{"tenant":"ops","op":"checkpoint"}"#,
];

/// A fresh core over a session that already holds the corpus's
/// rectangle, so the unmutated `remove` succeeds.
fn fresh_core() -> Arc<ServeCore> {
    let rects = [
        Rect::new(10.0, 10.0, 12.0, 11.0).unwrap(),
        Rect::new(30.0, 5.0, 41.0, 19.0).unwrap(),
    ];
    let session = Arc::new(DynamicGeoBrowsingService::with_objects(grid(), rects));
    ServeCore::new(session, ServeConfig::default())
}

/// A fresh core over an empty session: every `remove`, mutated or not,
/// is a remove past empty.
fn empty_core() -> Arc<ServeCore> {
    let session = Arc::new(DynamicGeoBrowsingService::new(grid()));
    ServeCore::new(session, ServeConfig::default())
}

/// Every truncation prefix of `line`, then every single-byte flip of it
/// by `0x01` and by `0xFF`.
fn mutations(line: &str) -> Vec<Vec<u8>> {
    let bytes = line.as_bytes();
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|k| bytes[..k].to_vec()).collect();
    for mask in [0x01u8, 0xFF] {
        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= mask;
            out.push(flipped);
        }
    }
    out
}

/// Parses one encoded response, asserting it is a single JSON line with
/// a status.
fn one_response_line(text: &str, input: &[u8]) -> Json {
    assert!(
        !text.contains('\n'),
        "{:?}: response spans lines",
        String::from_utf8_lossy(input)
    );
    let json = euler_serve::parse_json(text).unwrap_or_else(|e| {
        panic!(
            "{:?}: response {text:?} is not JSON: {e}",
            String::from_utf8_lossy(input)
        )
    });
    assert!(
        json.get("status").and_then(Json::as_str).is_some(),
        "{:?}: response {text} has no status",
        String::from_utf8_lossy(input)
    );
    json
}

/// The protocol-line mutation law: every truncation and every `0x01` /
/// `0xFF` byte flip of a valid line gets exactly one response line and
/// never a panic. UTF-8 text goes to a fresh `ServeCore::handle_line`;
/// a flip that breaks UTF-8 goes over TCP and gets one structured error
/// on a connection that stays usable.
#[test]
fn every_truncation_and_byte_flip_of_a_valid_line_gets_one_response() {
    for line in CORPUS {
        let mut out = String::new();
        fresh_core().handle_line(line).write_line(&mut out);
        let json = one_response_line(&out, line.as_bytes());
        assert_eq!(
            json.get("status").and_then(Json::as_str),
            Some("ok"),
            "corpus line {line} must be valid: {out}"
        );
    }

    mutation_law(fresh_core);
    mutation_law(empty_core);
}

/// Sends every mutation of every corpus line to a core from
/// `make_core`: UTF-8 text to a fresh core's `handle_line`, the rest over
/// TCP to one server; each gets exactly one response line.
fn mutation_law(make_core: fn() -> Arc<ServeCore>) {
    let server = Server::start(make_core(), "127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    let (mut local, mut wire) = (0, 0);
    for line in CORPUS {
        for input in mutations(line) {
            assert!(!input.contains(&b'\n'), "a mutation must stay one line");
            match std::str::from_utf8(&input) {
                Ok(text) => {
                    let mut out = String::new();
                    make_core().handle_line(text).write_line(&mut out);
                    one_response_line(&out, &input);
                    local += 1;
                }
                Err(_) => {
                    let mut frame = input.clone();
                    frame.push(b'\n');
                    conn.get_mut().write_all(&frame).expect("send");
                    let mut reply = String::new();
                    let n = conn.read_line(&mut reply).expect("reply line");
                    assert!(n > 0, "server closed the connection instead of replying");
                    let json = one_response_line(reply.trim_end(), &input);
                    assert_eq!(
                        json.get("status").and_then(Json::as_str),
                        Some("error"),
                        "{reply}"
                    );
                    let msg = json.get("error").and_then(Json::as_str).unwrap_or("");
                    assert!(msg.contains("UTF-8"), "{reply}");
                    wire += 1;
                }
            }
        }
    }
    let total: usize = CORPUS.iter().map(|l| 3 * l.len()).sum();
    assert_eq!(local + wire, total);
    assert!(wire > 0, "some flips must break UTF-8");
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}

/// A `remove` on an empty in-memory store is refused with a structured
/// `remove failed` error (not a caught worker panic), and the store
/// keeps serving.
#[test]
fn a_remove_past_empty_is_a_structured_error() {
    let core = empty_core();
    let answer = |line: &str| {
        let mut out = String::new();
        core.handle_line(line).write_line(&mut out);
        one_response_line(&out, line.as_bytes())
    };
    let json = answer(r#"{"tenant":"t","op":"remove","rect":[1,1,2,2]}"#);
    assert_eq!(json.get("status").and_then(Json::as_str), Some("error"));
    let msg = json.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        msg.starts_with("remove failed: ") && msg.contains("empty"),
        "{msg}"
    );
    let json = answer(r#"{"tenant":"t","op":"insert","rect":[1,1,2,2]}"#);
    assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(json.get("version").and_then(Json::as_u64), Some(1));
}
