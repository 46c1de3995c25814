//! The accept loop: thread-per-connection keep-alive serving with
//! graceful drain.
//!
//! The listener runs non-blocking so the loop can poll the shutdown flag;
//! accepted sockets switch back to blocking with a short read timeout, so
//! idle keep-alive connections also notice shutdown promptly. In-flight
//! requests are counted and drained before the server checkpoints durable
//! datasets and returns — the contract the graceful-shutdown regression
//! test (kill a live server mid-feed, reopen, no acked batch lost) pins
//! down.

use crate::api;
use crate::http::{self, ReadOutcome, Response};
use crate::state::AppState;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often idle loops (accept, idle connections) poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// How long the drain step waits for in-flight requests before giving up.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Server configuration.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Directory durable datasets persist under; `None` disables them.
    pub data_dir: Option<PathBuf>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
}

impl Server {
    /// Binds `config.addr` and prepares the shared state. The listener is
    /// non-blocking; nothing is served until [`Server::run`].
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            state: Arc::new(AppState::new(config.data_dir)),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state, for embedding tests that reach around HTTP.
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Serves until shutdown is requested (`POST /admin/shutdown`, a
    /// delivered SIGTERM/SIGINT, or [`AppState::request_shutdown`]), then
    /// drains in-flight requests, checkpoints durable datasets, and
    /// returns.
    pub fn run(self) -> std::io::Result<()> {
        let in_flight = Arc::new(AtomicUsize::new(0));
        loop {
            if self.state.shutdown_requested() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    let in_flight = Arc::clone(&in_flight);
                    std::thread::spawn(move || serve_connection(stream, state, in_flight));
                }
                Err(err)
                    if matches!(
                        err.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        // Drain: connection threads see the flag at their next request
        // boundary; wait for requests already being answered.
        let drain_start = Instant::now();
        while in_flight.load(Ordering::SeqCst) > 0 && drain_start.elapsed() < DRAIN_DEADLINE {
            std::thread::sleep(POLL_INTERVAL);
        }
        // Flush: acked durable batches are already WAL'd (nothing can be
        // lost); the checkpoint folds them into a snapshot so the next
        // open replays nothing.
        for (name, err) in self.state.checkpoint_all() {
            eprintln!("dbscan-serve: checkpoint of dataset `{name}` failed: {err}");
        }
        Ok(())
    }

    /// Runs the server on a background thread — the embedding used by the
    /// integration tests and the repo benchmark's `serve-2d` workload.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = self.state();
        let shutdown = state.shutdown_flag();
        let join = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            state,
            shutdown,
            join,
        })
    }
}

/// A running in-process server (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state.
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Requests graceful shutdown and waits for the drain to finish.
    pub fn stop(self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.join.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

/// One connection's keep-alive loop.
fn serve_connection(stream: TcpStream, state: Arc<AppState>, in_flight: Arc<AtomicUsize>) {
    if stream.set_nonblocking(false).is_err()
        || stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .is_err()
    {
        return;
    }
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut stream = stream;
    loop {
        match http::read_request(&mut reader) {
            Ok(ReadOutcome::NotYet) => {
                if state.shutdown_requested() {
                    return;
                }
            }
            Ok(ReadOutcome::Eof) => return,
            Ok(ReadOutcome::Request(request)) => {
                in_flight.fetch_add(1, Ordering::SeqCst);
                let mut response = api::dispatch(&state, &request);
                // Close when either side asks for it, or when draining.
                response.close = request.wants_close() || state.shutdown_requested();
                let write = http::write_response(&mut stream, &response);
                in_flight.fetch_sub(1, Ordering::SeqCst);
                if write.is_err() || response.close {
                    return;
                }
            }
            Err(http::HttpError::BadRequest(msg)) => {
                let mut response = Response::error(400, &msg);
                response.close = true;
                let _ = http::write_response(&mut stream, &response);
                return;
            }
            Err(http::HttpError::TooLarge(_)) => {
                let mut response = Response::error(413, "request body too large");
                response.close = true;
                let _ = http::write_response(&mut stream, &response);
                return;
            }
            Err(http::HttpError::Io(_)) => return,
        }
    }
}
