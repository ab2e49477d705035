//! Unix-domain-socket front end for the serving [`Engine`].
//!
//! The daemon is std-only: a nonblocking [`UnixListener`] accept loop
//! (polled so shutdown is noticed promptly), one thread per connection,
//! and newline-delimited request/response lines dispatched through
//! [`Engine::handle_line`]. A connection may pipeline any number of
//! requests; replies come back in request order on the same connection.
//!
//! Shutdown is graceful: a `shutdown` request flips the engine's drain
//! flag (new predicts are refused with a structured `shutdown` error),
//! the batcher finishes every accepted job, the acknowledgement is sent,
//! and [`Server::run`] joins its threads and removes the socket file.

use crate::engine::{Control, Engine, EngineConfig, ServeModel, DEFAULT_QUEUE_CAPACITY};
use crate::ServerError;
use hotspot_core::api::{ApiError, ErrorKind};
use std::fs;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How often the accept loop and idle connections check the drain flag.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Read timeout on connection sockets, so idle readers notice shutdown.
const READ_POLL: Duration = Duration::from_millis(100);

/// Longest request line the daemon accepts, newline excluded: 1 MiB.
/// The largest request the repository's own tools send, the inline
/// 3 × 3-tile layout `scan` of `tools/serve_smoke.sh`, is 1,769 bytes, so
/// the cap leaves 592× headroom; a 30 × 30-tile layout (268,729 bytes)
/// still fits. It bounds what one client can make the daemon buffer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Filesystem path of the Unix domain socket to listen on. A stale
    /// file at this path is removed on bind.
    pub socket: PathBuf,
    /// Micro-batch queue bound (see [`EngineConfig`]).
    pub queue_capacity: usize,
}

impl ServerConfig {
    /// Config listening on `socket` with the default queue bound.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket: socket.into(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        }
    }
}

/// A bound (but not yet running) daemon.
pub struct Server {
    engine: Arc<Engine>,
    listener: UnixListener,
    socket: PathBuf,
}

impl Server {
    /// Binds the socket and prepares the engine. The daemon does not
    /// serve until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Socket-level failures ([`ServerError::Io`]).
    pub fn bind(model: ServeModel, config: &ServerConfig) -> Result<Server, ServerError> {
        match fs::remove_file(&config.socket) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            engine: Arc::new(Engine::new(
                model,
                EngineConfig {
                    queue_capacity: config.queue_capacity,
                },
            )),
            listener,
            socket: config.socket.clone(),
        })
    }

    /// The serving engine (for in-process inspection in tests/benches).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The socket path this daemon listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Serves until a `shutdown` request completes: spawns the batcher,
    /// accepts connections, drains, joins every thread, removes the
    /// socket file.
    ///
    /// # Errors
    ///
    /// Accept-loop failures other than `WouldBlock`/`Interrupted`; the
    /// daemon shuts down before reporting them.
    pub fn run(self) -> Result<(), ServerError> {
        let engine = self.engine.clone();
        let batcher = thread::Builder::new()
            .name("hotspot-batcher".into())
            .spawn({
                let engine = engine.clone();
                move || engine.run_batcher()
            })?;
        let mut handlers = Vec::new();
        let mut accept_error = None;
        while !engine.is_shutdown() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let engine = engine.clone();
                    handlers.push(
                        thread::Builder::new()
                            .name("hotspot-conn".into())
                            .spawn(move || handle_connection(&engine, stream))?,
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    engine.begin_shutdown();
                    accept_error = Some(e);
                    break;
                }
            }
        }
        let _ = batcher.join();
        for handler in handlers {
            let _ = handler.join();
        }
        let _ = fs::remove_file(&self.socket);
        match accept_error {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }
}

/// Removes the first complete line from `buf` and returns it without its
/// newline. Only bytes from `*searched` on are scanned; the rest were
/// scanned by an earlier call, so framing a line costs time linear in its
/// length however many reads deliver it.
fn take_line(buf: &mut Vec<u8>, searched: &mut usize) -> Option<Vec<u8>> {
    match buf[*searched..].iter().position(|&b| b == b'\n') {
        Some(pos) => {
            let end = *searched + pos;
            *searched = 0;
            let mut line: Vec<u8> = buf.drain(..=end).collect();
            line.pop();
            Some(line)
        }
        None => {
            *searched = buf.len();
            None
        }
    }
}

/// Writes one reply line, newline included, in one `write_all`, so a
/// reply costs one syscall. `false` when the peer is gone.
fn write_reply(mut writer: impl Write, mut reply: String) -> bool {
    reply.push('\n');
    writer.write_all(reply.as_bytes()).is_ok() && writer.flush().is_ok()
}

/// Reads newline-delimited request lines, writes one reply line each.
/// A line longer than [`MAX_LINE_BYTES`] — complete or not — gets a
/// structured `data` error and the connection is closed.
fn handle_connection(engine: &Engine, stream: UnixStream) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut reader = &stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut searched = 0;
    let mut chunk = [0u8; 4096];
    let refuse = || {
        let error = ApiError::new(
            ErrorKind::Data,
            format!("request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"),
        );
        write_reply(&stream, engine.error_reply(None, error));
    };
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(line) = take_line(&mut buf, &mut searched) {
                    if line.len() > MAX_LINE_BYTES {
                        return refuse();
                    }
                    let line = String::from_utf8_lossy(&line);
                    if line.trim().is_empty() {
                        continue;
                    }
                    let (reply, control) = engine.handle_line(&line);
                    if !write_reply(&stream, reply) || control == Control::Shutdown {
                        return;
                    }
                }
                if buf.len() > MAX_LINE_BYTES {
                    return refuse();
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle poll: drop the connection once draining begins so
                // `run` can join us; any queued reply was already written.
                if engine.is_shutdown() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// A persistent client connection for streaming requests.
///
/// Used by the CLI `client` subcommand, the integration tests and the
/// serve bench; protocol errors still arrive as reply lines (`"ok":
/// false), only transport failures surface as [`io::Error`].
pub struct ClientConn {
    stream: UnixStream,
    buf: Vec<u8>,
    /// The request line being sent, reused across requests.
    out: Vec<u8>,
}

impl ClientConn {
    /// Connects to a daemon socket.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(socket: &Path) -> io::Result<ClientConn> {
        Ok(ClientConn {
            stream: UnixStream::connect(socket)?,
            buf: Vec::new(),
            out: Vec::new(),
        })
    }

    /// Sends one request line and blocks for its reply line.
    ///
    /// # Errors
    ///
    /// Transport failures, including the daemon closing the connection
    /// before replying.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        // Line and newline in one write: one syscall per request.
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out)?;
        self.stream.flush()?;
        self.read_line()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut chunk = [0u8; 4096];
        let mut searched = 0;
        loop {
            if let Some(line) = take_line(&mut self.buf, &mut searched) {
                return Ok(String::from_utf8_lossy(&line).into_owned());
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection before replying",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// One-shot request helper: connect, send `line`, return the reply line.
///
/// # Errors
///
/// Transport failures (see [`ClientConn::request`]).
pub fn client_roundtrip(socket: &Path, line: &str) -> io::Result<String> {
    ClientConn::connect(socket)?.request(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_reply_is_one_write_call() {
        let mut w = CountingWriter::default();
        assert!(write_reply(&mut w, r#"{"ok":true}"#.to_string()));
        assert_eq!(w.writes, vec![b"{\"ok\":true}\n".to_vec()]);
    }
}
