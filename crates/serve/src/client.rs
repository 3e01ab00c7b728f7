//! Two clients with one request surface: an in-process session for tests
//! and embedding, and a blocking line-protocol TCP client for the wire.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::core::ServeCore;
use crate::json::Json;
use crate::proto::{Request, Response};

/// In-process client: the same requests and responses as the wire, with
/// no sockets in between. Conformance tests run the same script against
/// this and [`TcpClient`].
pub struct LocalClient {
    core: Arc<ServeCore>,
}

impl LocalClient {
    /// A client bound directly to `core`.
    pub fn new(core: Arc<ServeCore>) -> LocalClient {
        LocalClient { core }
    }

    /// Serves one typed request.
    pub fn request(&self, req: &Request) -> Response {
        self.core.handle(req)
    }

    /// Serves one protocol line, returning the response JSON — exactly
    /// what a TCP peer would read back: the reply goes through the wire
    /// encoder and the parser.
    pub fn request_line(&self, line: &str) -> Json {
        let mut out = String::new();
        self.core.handle_line(line).write_line(&mut out);
        crate::json::parse(&out).expect("the wire encoder writes valid JSON")
    }

    /// The underlying core.
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }
}

/// Blocking line-protocol client over TCP, used by tests, the bundled
/// example and the CLI.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
}

impl TcpClient {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        // A hung server should fail a test, not wedge it.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        Ok(TcpClient {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one raw request line and parses the one-line JSON response.
    pub fn round_trip(&mut self, line: &str) -> io::Result<Json> {
        let stream = self.reader.get_mut();
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        let mut out = String::new();
        if self.reader.read_line(&mut out)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        crate::json::parse(out.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Typed round trip: encodes `req`, returns the response JSON.
    pub fn send(&mut self, req: &Request) -> io::Result<Json> {
        self.round_trip(&req.to_json().to_string())
    }
}
