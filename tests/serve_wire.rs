//! The serve transport over real sockets: hostile lines get exactly one
//! structured error and the connection (and process) lives on, the
//! connection cap sheds with `queue_full`, a drip-fed line cannot hold a
//! connection past the idle timeout, and TCP answers equal the in-process
//! client's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use spatial_histograms::browse::{BrowseSession, DynamicGeoBrowsingService, PinnedSession};
use spatial_histograms::geom::Rect;
use spatial_histograms::grid::{DataSpace, Grid};
use spatial_histograms::metrics::Recorder;
use spatial_histograms::serve::{
    parse_json, Json, LocalClient, ServeConfig, ServeCore, Server, TcpClient, MAX_CONNECTIONS,
};

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
    Server::start(ServeCore::new(session, config), "127.0.0.1:0").expect("bind")
}

/// A raw connection: sends arbitrary bytes, reads one reply line.
struct Raw {
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Raw {
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, bytes: &[u8]) -> Json {
        self.reader.get_mut().write_all(bytes).expect("send");
        self.reply()
    }

    fn reply(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reply line");
        assert!(n > 0, "server closed the connection instead of replying");
        parse_json(line.trim()).expect("reply is JSON")
    }

    /// True once the server has closed its side: EOF, or a reset.
    fn closed(mut self) -> bool {
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).map_or(true, |n| n == 0)
    }
}

fn status(reply: &Json) -> &str {
    reply.get("status").and_then(Json::as_str).unwrap_or("")
}

fn error_text(reply: &Json) -> &str {
    reply.get("error").and_then(Json::as_str).unwrap_or("")
}

const PING: &[u8] = b"{\"tenant\":\"t\",\"op\":\"ping\"}\n";

#[test]
fn a_nesting_bomb_gets_one_error_and_the_server_survives() {
    let server = start(ServeConfig::default());
    let mut raw = Raw::connect(server.addr());
    // 60,000 bytes: under the 64 KiB line bound, far past the depth bound.
    let mut bomb = vec![b'['; 60_000];
    bomb.push(b'\n');
    let reply = raw.send(&bomb);
    assert_eq!(status(&reply), "error");
    assert!(error_text(&reply).contains("nesting"), "{reply}");
    // Same connection, then a fresh one: both still served.
    assert_eq!(status(&raw.send(PING)), "ok");
    assert_eq!(status(&Raw::connect(server.addr()).send(PING)), "ok");
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}

#[test]
fn invalid_utf8_gets_one_error_and_the_connection_stays_usable() {
    let server = start(ServeConfig::default());
    let mut raw = Raw::connect(server.addr());
    let reply = raw.send(b"{\"tenant\":\"t\",\"op\":\"p\xffng\"}\n");
    assert_eq!(status(&reply), "error");
    assert!(error_text(&reply).contains("UTF-8"), "{reply}");
    assert_eq!(status(&raw.send(PING)), "ok");
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}

#[test]
fn duplicate_keys_are_an_error_not_first_wins() {
    let server = start(ServeConfig::default());
    let mut raw = Raw::connect(server.addr());
    let reply = raw.send(b"{\"tenant\":\"t\",\"op\":\"ping\",\"op\":\"shutdown\"}\n");
    assert_eq!(status(&reply), "error");
    assert!(error_text(&reply).contains("duplicate key"), "{reply}");
    assert!(!server.core().is_shutdown(), "neither op may run");
    assert_eq!(status(&raw.send(PING)), "ok");
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}

#[test]
fn a_number_outside_the_json_grammar_is_one_error() {
    let server = start(ServeConfig::default());
    let mut raw = Raw::connect(server.addr());
    let reply = raw.send(b"{\"tenant\":\"t\",\"op\":\"browse\",\"cols\":01,\"rows\":1}\n");
    assert_eq!(status(&reply), "error");
    assert!(error_text(&reply).contains("invalid number"), "{reply}");
    assert_eq!(status(&raw.send(PING)), "ok");
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}

#[test]
fn connections_past_the_cap_are_shed_with_queue_full() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let held: Vec<Raw> = (0..MAX_CONNECTIONS).map(|_| Raw::connect(addr)).collect();

    let mut extra = Raw::connect(addr);
    let reply = extra.reply();
    assert_eq!(status(&reply), "shed");
    assert_eq!(
        reply.get("reason").and_then(Json::as_str),
        Some("queue_full")
    );
    assert!(extra.closed(), "a shed connection must be closed");

    // The held connections are all being served.
    let mut held = held;
    assert_eq!(status(&held[0].send(PING)), "ok");
    assert_eq!(status(&held[MAX_CONNECTIONS - 1].send(PING)), "ok");

    // Closing them frees the slots again.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = Raw::connect(addr).send(PING);
        if status(&reply) == "ok" {
            break;
        }
        assert!(Instant::now() < deadline, "slots never freed: {reply}");
        thread::sleep(Duration::from_millis(10));
    }
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}

#[test]
fn a_drip_fed_line_is_dropped_at_the_idle_timeout() {
    let idle = Duration::from_millis(300);
    let server = start(ServeConfig {
        idle_timeout: idle,
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut watcher = stream.try_clone().unwrap();
    watcher
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let closed_after = thread::spawn(move || {
        let mut rest = Vec::new();
        let _ = watcher.read_to_end(&mut rest);
        (started.elapsed(), rest)
    });

    // One byte every 20 ms, never a newline: each read succeeds well
    // inside the timeout, but the line as a whole never completes.
    while !closed_after.is_finished() && started.elapsed() < Duration::from_secs(5) {
        let _ = stream.write_all(b" ");
        thread::sleep(Duration::from_millis(20));
    }
    let (elapsed, reply) = closed_after.join().unwrap();
    assert!(reply.is_empty(), "a timed-out line gets no reply");
    // The server's clock starts a moment after ours, so allow slack below.
    assert!(
        elapsed >= idle / 2,
        "closed before the timeout: {elapsed:?}"
    );
    assert!(
        elapsed < idle * 5,
        "the drip held the connection for {elapsed:?}"
    );
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}

#[test]
fn tcp_answers_equal_the_local_clients() {
    let server = start(ServeConfig::default());
    let local = LocalClient::new(ServeCore::new(
        Arc::new(DynamicGeoBrowsingService::new(grid())),
        ServeConfig::default(),
    ));
    let mut tcp = TcpClient::connect(server.addr()).expect("connect");
    let script = [
        r#"{"tenant":"t","op":"ping"}"#,
        r#"{"tenant":"t","op":"insert","rect":[2,2,30,30]}"#,
        r#"{"tenant":"t","op":"insert","rect":[10.5,10,20,44.25]}"#,
        r#"{"tenant":"t","op":"browse","cols":4,"rows":4,"deadline_ms":5000}"#,
        r#"{"tenant":"t","op":"browse","cols":4,"rows":4,"deadline_ms":5000}"#,
        r#"{"tenant":"t","op":"remove","rect":[2,2,30,30]}"#,
        r#"{"tenant":"t","op":"browse","cols":3,"rows":5,"region":[0,0,15,15],"deadline_ms":5000}"#,
        r#"{"tenant":"t","op":"warp"}"#,
    ];
    for line in script {
        let over_tcp = tcp.round_trip(line).expect("round trip");
        assert_eq!(over_tcp, local.request_line(line), "diverged on {line}");
    }
    assert_eq!(
        tcp.round_trip(r#"{"tenant":"t","op":"shutdown"}"#)
            .expect("shutdown ack")
            .get("op")
            .and_then(Json::as_str),
        Some("shutdown")
    );
    server.join().expect("clean shutdown");
}

/// Forwards to a dynamic service but panics on every insert.
struct PanickyInserts(DynamicGeoBrowsingService);

impl BrowseSession for PanickyInserts {
    fn session_name(&self) -> &'static str {
        "panicky"
    }
    fn grid(&self) -> &Grid {
        BrowseSession::grid(&self.0)
    }
    fn len(&self) -> u64 {
        BrowseSession::len(&self.0)
    }
    fn epoch(&self) -> u64 {
        BrowseSession::epoch(&self.0)
    }
    fn version(&self) -> u64 {
        BrowseSession::version(&self.0)
    }
    fn pin_session(&self) -> PinnedSession {
        self.0.pin_session()
    }
    fn insert(&self, _rect: &Rect) {
        panic!("insert exploded");
    }
    fn remove(&self, rect: &Rect) {
        BrowseSession::remove(&self.0, rect)
    }
    fn recorder(&self) -> &Arc<Recorder> {
        BrowseSession::recorder(&self.0)
    }
}

#[test]
fn a_panicking_handler_is_one_error_on_a_live_connection() {
    let session = Arc::new(PanickyInserts(DynamicGeoBrowsingService::new(grid())));
    let server = Server::start(
        ServeCore::new(session, ServeConfig::default()),
        "127.0.0.1:0",
    )
    .expect("bind");
    let mut raw = Raw::connect(server.addr());
    let reply = raw.send(b"{\"tenant\":\"t\",\"op\":\"insert\",\"rect\":[1,1,2,2]}\n");
    assert_eq!(status(&reply), "error");
    assert_eq!(error_text(&reply), "internal: request worker panicked");
    assert_eq!(status(&raw.send(PING)), "ok");
    server.core().begin_shutdown();
    server.join().expect("clean shutdown");
}
