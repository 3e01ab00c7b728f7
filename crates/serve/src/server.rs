//! The TCP front door: line-delimited JSON requests multiplexed onto one
//! [`ServeCore`], over blocking `std::net`.
//!
//! The accept loop blocks in `TcpListener::accept`. Each accepted
//! connection gets one thread, which reads a request line, runs
//! [`ServeCore::handle`] inline and writes the reply, so a connection is
//! served one request at a time, in order. At most [`MAX_CONNECTIONS`]
//! connections are open at once; one more is answered with the
//! `{"status":"shed","reason":"queue_full"}` line and closed.
//!
//! Connections are hardened against hostile or stuck clients: a request
//! line longer than `ServeConfig::max_line_bytes` gets one structured
//! error response and the connection is closed (a terminator-free stream
//! can never balloon memory), and a whole request line must arrive within
//! `ServeConfig::idle_timeout` of the read starting or the connection is
//! dropped. The socket read timeout is re-armed with the time that remains
//! before every read, so a client dripping one byte at a time is dropped
//! on schedule too. A line that is not UTF-8, and a panic inside
//! `handle`, each get one structured error and the connection lives on.
//!
//! Shutdown is a drain, not an abort, and the accept loop never polls:
//! whoever raises the shutdown flag wakes it with one self-connect — the
//! connection thread that served `shutdown`, or [`Server::join`] / drop
//! when the flag is already up. The loop then drops the listener (so
//! reconnects are refused), shuts the read side of every open connection
//! (idle ones end at once, in-flight replies are still written), waits
//! for the connections and [`ServeCore::in_flight_ops`] to reach zero,
//! and finally syncs the session once — on a durable session that is the
//! WAL fsync making every acknowledged write crash-safe.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::core::ServeCore;
use crate::proto::{ProtoError, Request, Response, ShedReason};

/// Connections served at once. Each holds one thread, so the cap bounds
/// threads as well as sockets; the next connection is shed with
/// `queue_full` and closed.
pub const MAX_CONNECTIONS: usize = 128;

/// What the accept loop shares with its connection threads.
struct Shared {
    core: Arc<ServeCore>,
    /// The listener's address, for the shutdown wake.
    addr: SocketAddr,
    /// Open connections by id: what the cap counts and the drain walks.
    open: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled whenever a connection closes.
    closed: Condvar,
}

impl Shared {
    fn open(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.open.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Removes a connection from the open set when its thread ends, however
/// it ends.
struct Registration {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.shared.open().remove(&self.id);
        self.shared.closed.notify_all();
    }
}

/// Accepts connections on `listener` until `core` observes a shutdown,
/// then drains them and syncs the session.
fn serve(core: Arc<ServeCore>, listener: TcpListener) -> io::Result<()> {
    let shared = Arc::new(Shared {
        core,
        addr: listener.local_addr()?,
        open: Mutex::new(HashMap::new()),
        closed: Condvar::new(),
    });
    let mut result = Ok(());
    for id in 0u64.. {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                result = Err(e);
                break;
            }
        };
        if shared.core.is_shutdown() {
            break; // the wake, or a client arriving too late
        }
        admit(&shared, id, stream);
    }

    // Drain: 1. refuse reconnects;
    drop(listener);
    let mut open = shared.open();
    // 2. end idle connections now, while in-flight replies still go out;
    for stream in open.values() {
        let _ = stream.shutdown(Shutdown::Read);
    }
    // 3. wait for every connection, and every tracked op, to finish;
    while !open.is_empty() {
        open = shared.closed.wait(open).unwrap_or_else(|e| e.into_inner());
    }
    drop(open);
    while shared.core.in_flight_ops() > 0 {
        thread::sleep(Duration::from_millis(1));
    }
    // 4. force every acknowledged write to stable storage (a no-op on
    // in-memory sessions, the WAL fsync on durable ones).
    shared.core.session().sync()?;
    result
}

/// Registers `stream` and starts its thread, or sheds it when the server
/// is at [`MAX_CONNECTIONS`] (or out of threads).
fn admit(shared: &Arc<Shared>, id: u64, stream: TcpStream) {
    let mut open = shared.open();
    if open.len() >= MAX_CONNECTIONS {
        drop(open);
        refuse(stream);
        return;
    }
    let Ok(handle) = stream.try_clone() else {
        return; // out of descriptors: dropping the stream closes it
    };
    open.insert(id, handle);
    drop(open);
    let worker = shared.clone();
    let spawned = thread::Builder::new()
        .name("euler-serve-conn".into())
        .spawn(move || {
            let registration = Registration { shared: worker, id };
            // Connection errors (reset peers, broken pipes) end that
            // session only.
            let _ = handle_connection(&registration.shared, stream);
        });
    if spawned.is_err() {
        if let Some(handle) = shared.open().remove(&id) {
            refuse(handle);
        }
    }
}

/// Sheds a connection the server has no room for: one `queue_full` line,
/// then close.
fn refuse(mut stream: TcpStream) {
    let shed = Response::Shed {
        reason: ShedReason::QueueFull,
    };
    let _ = write_response(&mut stream, &shed, &mut String::new());
    let _ = stream.shutdown(Shutdown::Write);
}

/// Writes `response` as one line, encoded into `buf` (the connection's
/// reusable buffer).
fn write_response(stream: &mut TcpStream, response: &Response, buf: &mut String) -> io::Result<()> {
    buf.clear();
    response.write_line(buf);
    buf.push('\n');
    stream.write_all(buf.as_bytes())
}

/// A socket whose reads all share one deadline: before every read the
/// read timeout is re-armed with the time that remains, so a line that
/// trickles in still has to arrive whole before the deadline.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let core = &shared.core;
    let _ = stream.set_nodelay(true);
    let max_line = core.config().max_line_bytes;
    let idle = core.config().idle_timeout;
    // One byte past the bound is enough to know a line is too long.
    let limit = max_line.saturating_add(1) as u64;
    let mut reader = BufReader::new(DeadlineReader {
        stream,
        deadline: Instant::now(),
    });
    let mut line = Vec::new();
    let mut out = String::new();
    loop {
        line.clear();
        reader.get_mut().deadline = Instant::now() + idle;
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(_) => {}
            // Idle too long (a timed-out socket read reports WouldBlock):
            // drop quietly.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(())
            }
            Err(e) => return Err(e),
        }
        if line.is_empty() {
            return Ok(()); // client hung up
        }
        let stream = &mut reader.get_mut().stream;
        if line.len() > max_line {
            // Oversized line: one structured refusal, then close — the
            // discarded stream cannot be re-synchronized.
            let err = Response::Error(ProtoError(format!(
                "request line exceeds max_line_bytes={max_line}"
            )));
            return write_response(stream, &err, &mut out);
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            // The line is delimited, so the stream stays in sync.
            let err = Response::Error(ProtoError("request line is not valid UTF-8".into()));
            write_response(stream, &err, &mut out)?;
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        // The guard spans handling AND the response write, so the
        // shutdown drain never syncs under a request whose answer is
        // still unwritten.
        let _op = core.begin_op();
        let response = match Request::parse(trimmed) {
            Ok(req) => catch_unwind(AssertUnwindSafe(|| core.handle(&req))).unwrap_or_else(|_| {
                Response::Error(ProtoError("internal: request worker panicked".into()))
            }),
            Err(e) => Response::Error(e),
        };
        let shutting_down = core.is_shutdown();
        write_response(stream, &response, &mut out)?;
        if shutting_down {
            wake(shared.addr);
            return Ok(()); // acknowledge shutdown, then close
        }
    }
}

/// Unblocks an accept loop so it observes the shutdown flag: one
/// connection to the listener, closed at once. A listener already gone
/// refuses it, which is just as good.
fn wake(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// A running TCP server: its bound address plus the thread running the
/// accept loop.
pub struct Server {
    addr: SocketAddr,
    core: Arc<ServeCore>,
    thread: Option<thread::JoinHandle<io::Result<()>>>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) and serves
    /// `core` on a dedicated accept thread until a `shutdown` request
    /// arrives.
    pub fn start(core: Arc<ServeCore>, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let loop_core = core.clone();
        let thread = thread::Builder::new()
            .name("euler-serve".into())
            .spawn(move || serve(loop_core, listener))?;
        Ok(Server {
            addr: bound,
            core,
            thread: Some(thread),
        })
    }

    /// The address the server actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving core, for in-process inspection alongside the wire.
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// Waits for the server to shut down, drain and sync. If the shutdown
    /// flag is already up (say, from [`ServeCore::begin_shutdown`]), this
    /// wakes the accept loop first; otherwise it waits for a `shutdown`
    /// request over the wire.
    pub fn join(mut self) -> io::Result<()> {
        self.join_inner()
    }

    fn join_inner(&mut self) -> io::Result<()> {
        let Some(handle) = self.thread.take() else {
            return Ok(());
        };
        if self.core.is_shutdown() {
            wake(self.addr);
        }
        match handle.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // An abandoned handle must not leave the accept loop running.
        self.core.begin_shutdown();
        let _ = self.join_inner();
    }
}
