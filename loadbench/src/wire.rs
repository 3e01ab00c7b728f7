//! The wire side: a `geobrowse serve` child process, and the open-loop
//! client that replays schedules to it over TCP.
//!
//! Each connection gets a writer thread, which sleeps until each op is due
//! and sends it whether or not earlier replies are back, and a reader
//! thread blocked on the socket, which timestamps each reply line as its
//! last byte arrives. A socket read timeout cannot stand in for the second
//! thread: on Linux it is rounded to scheduler ticks of several
//! milliseconds, which would delay sends by more than the latencies being
//! measured.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::check::Outcome;
use crate::workload::Scheduled;

/// How long a reader waits for the next reply before giving the rest up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `geobrowse serve` child. Dropping it kills the process.
pub struct ServerProc {
    child: Child,
    stdout: Option<thread::JoinHandle<()>>,
    stderr_path: PathBuf,
    pub addr: SocketAddr,
    /// From spawn to the `listening on` line.
    pub setup: Duration,
}

impl ServerProc {
    /// Spawns `bin` with `args` and waits for it to print its address.
    pub fn spawn(bin: &Path, args: &[String], stderr_path: &Path) -> io::Result<ServerProc> {
        let stderr = File::create(stderr_path)?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Keeps reading until the server exits, so its stdout never fills.
        let stdout = thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("listening on ") {
                    let addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
                    let _ = tx.send((Instant::now(), addr));
                }
            }
        });
        let mut server = ServerProc {
            child,
            stdout: Some(stdout),
            stderr_path: stderr_path.to_path_buf(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok((at, Some(addr))) => {
                server.addr = addr;
                server.setup = at - started;
                Ok(server)
            }
            _ => Err(io::Error::other(format!(
                "server did not start: {}",
                server.stderr_text().trim()
            ))),
        }
    }

    pub fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// The peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `shutdown` and waits for the process to drain and exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        round_trip(self.addr, r#"{"tenant":"ops","op":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("server did not exit after shutdown"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// One request line and its one reply line.
pub fn round_trip(addr: SocketAddr, line: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    (&stream).write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply)?;
    if reply.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no reply"));
    }
    Ok(reply.trim_end().to_string())
}

/// Replays both schedules over two connections to `addr`, open loop.
/// Outcome times are offsets from the common schedule start.
pub fn drive(
    addr: SocketAddr,
    streams: &[Vec<Scheduled>; 2],
    keep: &[Vec<bool>; 2],
) -> io::Result<[Vec<Outcome>; 2]> {
    let conns = [TcpStream::connect(addr)?, TcpStream::connect(addr)?];
    for c in &conns {
        c.set_nodelay(true)?;
        c.set_read_timeout(Some(REPLY_TIMEOUT))?;
    }
    let t0 = Instant::now() + Duration::from_millis(20);
    let results: Vec<io::Result<Vec<Outcome>>> = thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|c| {
                let (conn, ops, keep) = (&conns[c], &streams[c], &keep[c]);
                let writer = s.spawn(move || send_all(conn, t0, ops, &format!("c{c}")));
                let reader = s.spawn(move || read_replies(conn, t0, ops.len(), keep));
                (writer, reader)
            })
            .collect();
        workers
            .into_iter()
            .map(|(writer, reader)| {
                let sent = writer.join().expect("writer thread panicked");
                let replies = reader.join().expect("reader thread panicked");
                let sent = sent?;
                Ok(sent
                    .iter()
                    .enumerate()
                    .map(|(i, &at)| match replies.get(i) {
                        Some(r) => Outcome {
                            sent_ns: at,
                            ..r.clone()
                        },
                        None => Outcome::no_reply(at),
                    })
                    .collect())
            })
            .collect()
    });
    let mut it = results.into_iter();
    let (a, b) = (
        it.next().expect("two streams")?,
        it.next().expect("two streams")?,
    );
    Ok([a, b])
}

fn send_all(
    conn: &TcpStream,
    t0: Instant,
    ops: &[Scheduled],
    tenant: &str,
) -> io::Result<Vec<u64>> {
    let mut sent = Vec::with_capacity(ops.len());
    let mut conn = conn;
    for s in ops {
        let line = format!("{}\n", s.op.line(tenant));
        let due = t0 + s.at;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        sent.push(t0.elapsed().as_nanos() as u64);
        conn.write_all(line.as_bytes())?;
    }
    Ok(sent)
}

fn read_replies(conn: &TcpStream, t0: Instant, n: usize, keep: &[bool]) -> Vec<Outcome> {
    let mut reader = BufReader::with_capacity(1 << 16, conn);
    let mut line = String::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let done = t0.elapsed().as_nanos() as u64;
                out.push(Outcome::from_line(
                    line.trim_end(),
                    0,
                    done,
                    keep[out.len()],
                ));
            }
        }
    }
    out
}
