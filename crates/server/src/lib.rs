#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # qp-server
//!
//! A threaded TCP server exposing the personalization engine over the qp
//! wire protocol (length-prefixed JSON frames; see `qp_client::wire`).
//! One thread per connection, one request in flight per connection,
//! backed by `Personalizer::serving(Arc<SnapshotStore>)` so writers can
//! publish new database epochs while requests are in flight.
//!
//! Robustness is the point of this crate, not a bolt-on:
//!
//! * **Deadlines** — the wait for a frame header runs under
//!   [`ServerConfig::idle_timeout`]; frame bodies and response writes run
//!   under the tighter [`ServerConfig::io_timeout`], so a stalled client
//!   cannot pin a handler thread.
//! * **Admission before parsing** — every frame buys an admission permit
//!   *before* its JSON is parsed; a shed request is answered with a
//!   typed `overloaded` error having cost nothing downstream. The accept
//!   loop sheds whole connections the same way once
//!   [`ServerConfig::max_connections`] is reached.
//! * **Frame hygiene** — oversized frames are rejected from the header
//!   alone (the payload is never read) and malformed payloads get a
//!   typed error; both poison only the offending connection.
//! * **Panic isolation** — request dispatch runs under `catch_unwind`;
//!   a panicking handler turns into an `internal` protocol error and a
//!   closed connection while the server keeps serving.
//! * **Graceful shutdown** — [`Server::shutdown`] stops accepting,
//!   drains in-flight requests under [`ServerConfig::drain_timeout`],
//!   then severs straggler connections.
//!
//! Under the `failpoints` feature the connection loop passes the
//! `net.read`, `net.write`, and `net.write.short` chaos sites
//! (`qp_storage::ChaosPlan::wire_default`), injecting read/write aborts,
//! delays, and torn mid-frame writes.

pub mod testsupport;

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use qp_client::json::Json;
use qp_client::wire::{
    self, Answer, ErrorCode, FrameError, Request, Response, WireError, WireTuple,
    DEFAULT_MAX_FRAME,
};
use qp_core::{
    AdmissionConfig, AdmissionController, AnswerAlgorithm, BreakerConfig, Maintainer,
    PersistOptions, PersonalizationOptions, PersonalizeRequest, Personalizer, PrefError,
    Profile, ProfileStore, Resilience, RetryPolicy, SelectionCriterion, UserId,
};
use qp_obs::{MetricValue, MetricsRegistry};
use qp_storage::{failpoint, DataType, DbDelta, SnapshotStore, Value};

/// Server tuning knobs. `Default` is sized for tests and small
/// deployments; the benches and the binary override the geometry.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Open-connection bound; further connects are shed with a typed
    /// `overloaded` error before any frame is read.
    pub max_connections: usize,
    /// Largest accepted frame payload, in bytes.
    pub max_frame: usize,
    /// Deadline for frame-body reads and response writes.
    pub io_timeout: Duration,
    /// How long a connection may sit idle between frames.
    pub idle_timeout: Duration,
    /// How long [`Server::shutdown`] waits for in-flight requests.
    pub drain_timeout: Duration,
    /// Per-request admission geometry (permits acquired before parsing).
    pub admission: AdmissionConfig,
    /// Circuit breaker shared by every connection's personalizer;
    /// `None` disables breaking.
    pub breaker: Option<BreakerConfig>,
    /// Seed for the shared transient-error retry policy; `None`
    /// disables retries.
    pub retry_seed: Option<u64>,
    /// Top-K preferences selected when a request does not say.
    pub default_k: usize,
    /// Minimum satisfied preferences when a request does not say.
    pub default_l: usize,
    /// Directory for the durable profile store. `None` (the default)
    /// keeps profiles in memory only; `Some(dir)` recovers registered
    /// profiles from `dir` at startup and logs every registration
    /// before acknowledging it (see DESIGN.md §"Durability & recovery").
    pub data_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 256,
            max_frame: DEFAULT_MAX_FRAME,
            io_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(2),
            admission: AdmissionConfig::default(),
            breaker: Some(BreakerConfig::default()),
            retry_seed: Some(0x9d5e),
            default_k: 5,
            default_l: 1,
            data_dir: None,
        }
    }
}

/// What [`Server::shutdown`] managed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// In-flight requests that completed inside the drain window.
    pub drained: usize,
    /// In-flight requests severed when the window expired.
    pub aborted: usize,
    /// Registered profiles that were durable on disk when the server
    /// exited (the profile store's buffered log records flushed and
    /// fsynced during drain). Always 0 without a `data_dir`.
    pub profiles_flushed: u64,
}

struct Shared {
    config: ServerConfig,
    store: Arc<SnapshotStore>,
    /// One profile store for the whole server: profiles registered on
    /// any connection are visible to every connection, addressed by the
    /// store-assigned user id, and held as compact encoded blobs until a
    /// request first decodes them.
    profiles: Arc<ProfileStore>,
    /// One maintenance engine for the whole server: serializes delta
    /// publishes and patches every connection's materialized preference
    /// results (all personalizers share its registry) instead of letting
    /// an epoch bump recompute them from scratch.
    maintainer: Maintainer,
    metrics: Arc<MetricsRegistry>,
    admission: AdmissionController,
    resilience: Arc<Resilience>,
    shutting_down: AtomicBool,
    in_flight: AtomicUsize,
    connections: AtomicUsize,
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

impl Shared {
    fn count(&self, name: &str) {
        self.metrics.counter(name).inc();
    }
}

/// A running server. Dropping it shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
    shutdown_report: Option<ShutdownReport>,
}

impl Server {
    /// Binds, spawns the accept loop, and returns immediately.
    pub fn start(config: ServerConfig, store: Arc<SnapshotStore>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let mut resilience = Resilience::new();
        if let Some(breaker) = config.breaker {
            resilience = resilience.with_breaker(breaker);
        }
        if let Some(seed) = config.retry_seed {
            resilience = resilience.with_retry(RetryPolicy::quick(seed));
        }
        let metrics = Arc::new(MetricsRegistry::new());
        let profiles = match &config.data_dir {
            Some(dir) => {
                let options = PersistOptions::from_env().metrics(Arc::clone(&metrics));
                let store = ProfileStore::open_with(dir, options).map_err(|e| {
                    std::io::Error::other(format!(
                        "profile store at {}: {e}",
                        dir.display()
                    ))
                })?;
                Arc::new(store)
            }
            None => Arc::new(ProfileStore::new().with_metrics(Arc::clone(&metrics))),
        };
        let maintainer = Maintainer::new(Arc::clone(&store))
            .with_metrics(Arc::clone(&metrics))
            .with_profile_store(Arc::clone(&profiles));
        let shared = Arc::new(Shared {
            admission: AdmissionController::new(config.admission),
            config,
            store,
            profiles,
            maintainer,
            metrics,
            resilience: Arc::new(resilience),
            shutting_down: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("qp-server-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;

        Ok(Server { shared, addr, accept_thread: Some(accept_thread), shutdown_report: None })
    }

    /// The bound address (the real port when the config asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (`server.*` families; see
    /// OBSERVABILITY.md).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Open connections right now.
    pub fn open_connections(&self) -> usize {
        self.shared.connections.load(Ordering::Acquire)
    }

    /// Requests currently being processed.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// The server-wide profile store (durable when the config named a
    /// `data_dir`). Exposed for restart tests and operator tooling.
    pub fn profiles(&self) -> Arc<ProfileStore> {
        Arc::clone(&self.shared.profiles)
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests under
    /// the configured [`ServerConfig::drain_timeout`], then sever every
    /// remaining connection (aborting stragglers). Idempotent.
    pub fn shutdown(&mut self) -> ShutdownReport {
        if let Some(report) = self.shutdown_report {
            return report;
        }
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            handle.join().ok();
        }

        let initial = self.shared.in_flight.load(Ordering::Acquire);
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        while self.shared.in_flight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        let remaining = self.shared.in_flight.load(Ordering::Acquire);

        // Sever every connection: wakes handlers idling for the next
        // frame, and aborts whatever the drain window did not cover.
        {
            let mut conns =
                self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
            for (_, stream) in conns.drain() {
                stream.shutdown(std::net::Shutdown::Both).ok();
            }
        }
        // Handlers exit on their next read/write against the severed
        // socket; give them a short, bounded window to unwind.
        let grace = Instant::now() + Duration::from_millis(500);
        while self.shared.connections.load(Ordering::Acquire) > 0 && Instant::now() < grace {
            thread::sleep(Duration::from_millis(1));
        }

        // With every connection gone, push buffered registration records
        // to disk so a restart recovers everything that was acknowledged.
        // A flush failure (disk fault during drain) degrades the store
        // read-only; the report then says 0 profiles made it down.
        let profiles_flushed = if self.shared.profiles.is_durable()
            && self.shared.profiles.flush().is_ok()
        {
            self.shared.profiles.len() as u64
        } else {
            0
        };

        let report = ShutdownReport {
            drained: initial.saturating_sub(remaining),
            aborted: remaining,
            profiles_flushed,
        };
        self.shared
            .metrics
            .counter("server.shutdown.drained")
            .add(report.drained as u64);
        self.shared
            .metrics
            .counter("server.shutdown.aborted")
            .add(report.aborted as u64);
        self.shutdown_report = Some(report);
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.count("server.connections.accepted");
                if shared.connections.load(Ordering::Acquire)
                    >= shared.config.max_connections
                {
                    shed_connection(&shared, stream);
                    continue;
                }
                spawn_handler(&shared, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Accept-level shedding: the connection bound is hit, so the brand-new
/// peer gets one typed `overloaded` frame and a half-close — nothing of
/// theirs is ever parsed. The frame write and the post-write drain run
/// on a detached thread so a stalled peer can never wedge the accept
/// loop; if no thread can be spawned the stream just drops (reset).
fn shed_connection(shared: &Shared, mut stream: TcpStream) {
    shared.count("server.connections.shed");
    let error = WireError {
        code: ErrorCode::Overloaded,
        message: format!(
            "{} connections open (limit {})",
            shared.connections.load(Ordering::Acquire),
            shared.config.max_connections
        ),
        retryable: true,
    };
    let io_timeout = shared.config.io_timeout;
    thread::Builder::new()
        .name("qp-server-shed".to_string())
        .spawn(move || {
            stream.set_write_timeout(Some(io_timeout)).ok();
            if wire::write_frame(&mut stream, &error.to_json()).is_err() {
                return;
            }
            // Half-close, then drain whatever the peer already sent: a
            // full close with unread peer bytes degrades into an RST
            // that can destroy the typed frame before the peer reads it.
            stream.shutdown(std::net::Shutdown::Write).ok();
            stream.set_read_timeout(Some(io_timeout)).ok();
            let deadline = Instant::now() + io_timeout;
            let mut sink = [0u8; 512];
            while Instant::now() < deadline {
                match stream.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        })
        .ok();
}

fn spawn_handler(shared: &Arc<Shared>, stream: TcpStream) {
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(conn_id, clone);
    }
    shared.connections.fetch_add(1, Ordering::AcqRel);
    shared
        .metrics
        .gauge("server.connections.open")
        .set(shared.connections.load(Ordering::Acquire) as i64);

    let handler_shared = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name(format!("qp-server-conn-{conn_id}"))
        .spawn(move || {
            handle_connection(&handler_shared, stream, conn_id);
            handler_shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&conn_id);
            handler_shared.connections.fetch_sub(1, Ordering::AcqRel);
            handler_shared
                .metrics
                .gauge("server.connections.open")
                .set(handler_shared.connections.load(Ordering::Acquire) as i64);
        });
    if spawned.is_err() {
        // Thread spawn failed (fd/thread exhaustion): roll the
        // registration back; the stream drops and the peer sees a reset.
        shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&conn_id);
        shared.connections.fetch_sub(1, Ordering::AcqRel);
        shared.count("server.connections.spawn_failed");
    }
}

/// Why the per-connection loop ended; only used to decide metrics.
enum ConnExit {
    Clean,
    IdleTimeout,
    ReadError,
    WriteError,
    Poisoned,
    ChaosAbort,
    ShuttingDown,
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, _conn_id: u64) {
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(shared.config.io_timeout)).ok();
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            shared.count("server.connections.read_errors");
            return;
        }
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    // The personalizer is built lazily: ping-only probes (and the load
    // generator's stall clients) never pay for an engine.
    let mut personalizer: Option<Personalizer<'static>> = None;

    let exit = connection_loop(shared, &mut reader, &mut writer, &mut personalizer);
    match exit {
        ConnExit::Clean | ConnExit::ShuttingDown => {}
        ConnExit::IdleTimeout => shared.count("server.connections.idle_closed"),
        ConnExit::ReadError => shared.count("server.connections.read_errors"),
        ConnExit::WriteError => shared.count("server.connections.write_errors"),
        ConnExit::Poisoned => shared.count("server.connections.poisoned"),
        ConnExit::ChaosAbort => shared.count("server.connections.chaos_aborted"),
    }
}

fn connection_loop(
    shared: &Arc<Shared>,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    personalizer: &mut Option<Personalizer<'static>>,
) -> ConnExit {
    loop {
        // Waiting for the next frame runs under the idle timeout; once a
        // header arrives, the body must land within the I/O deadline.
        reader.get_ref().set_read_timeout(Some(shared.config.idle_timeout)).ok();
        if failpoint::check("net.read").is_err() {
            return ConnExit::ChaosAbort;
        }
        let declared = match wire::read_header(reader, shared.config.max_frame) {
            Ok(declared) => declared,
            Err(FrameError::Closed) => return ConnExit::Clean,
            Err(FrameError::TooLarge { declared, limit }) => {
                shared.count("server.frames.too_large");
                let error = WireError {
                    code: ErrorCode::FrameTooLarge,
                    message: format!("frame of {declared} bytes exceeds the {limit}-byte limit"),
                    retryable: false,
                };
                write_response(shared, writer, Response::Error(error)).ok();
                return ConnExit::Poisoned;
            }
            Err(FrameError::Io(e)) if is_timeout(&e) => return ConnExit::IdleTimeout,
            Err(_) => return ConnExit::ReadError,
        };
        reader.get_ref().set_read_timeout(Some(shared.config.io_timeout)).ok();
        let frame = match wire::read_body(reader, declared) {
            Ok(frame) => frame,
            Err(FrameError::Malformed(m)) => {
                shared.count("server.frames.malformed");
                let error = WireError {
                    code: ErrorCode::BadFrame,
                    message: m,
                    retryable: false,
                };
                write_response(shared, writer, Response::Error(error)).ok();
                return ConnExit::Poisoned;
            }
            Err(FrameError::Io(e)) if is_timeout(&e) => return ConnExit::IdleTimeout,
            Err(_) => return ConnExit::ReadError,
        };
        shared.count("server.frames.received");

        if shared.shutting_down.load(Ordering::Acquire) {
            let error = WireError {
                code: ErrorCode::ShuttingDown,
                message: "server is draining".to_string(),
                retryable: true,
            };
            write_response(shared, writer, Response::Error(error)).ok();
            return ConnExit::ShuttingDown;
        }

        // Admission strictly before parsing: a shed frame costs the
        // server nothing beyond the buffered bytes.
        let permit = match shared.admission.try_acquire() {
            Ok(permit) => permit,
            Err(shed) => {
                shared.count("server.shed");
                let error = WireError {
                    code: ErrorCode::Overloaded,
                    message: format!(
                        "{} in flight after waiting {:?}",
                        shed.in_flight, shed.waited
                    ),
                    retryable: true,
                };
                match write_response(shared, writer, Response::Error(error)) {
                    Ok(()) => continue,
                    Err(exit) => return exit,
                }
            }
        };

        let request = match Request::from_json(&frame) {
            Ok(request) => request,
            Err(m) => {
                drop(permit);
                shared.count("server.requests.bad");
                let error =
                    WireError { code: ErrorCode::BadRequest, message: m, retryable: false };
                match write_response(shared, writer, Response::Error(error)) {
                    Ok(()) => continue,
                    Err(exit) => return exit,
                }
            }
        };

        // A request stays in flight until its response bytes are written:
        // the shutdown drain waits on this counter, and severing the
        // socket between dispatch and write would lose a drained answer.
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let start = Instant::now();
        let dispatched = std::panic::catch_unwind(AssertUnwindSafe(|| {
            dispatch(shared, personalizer, request)
        }));

        let (response, close_after) = match dispatched {
            Ok(response) => {
                shared.metrics.histogram("server.request_us").observe(start.elapsed());
                (response, false)
            }
            Err(panic) => {
                // The request died; the server must not. The panicking
                // handler may have wedged its personalizer mid-request,
                // so rebuild it on the next use.
                *personalizer = None;
                shared.count("server.panics");
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "request handler panicked".to_string());
                let error =
                    WireError { code: ErrorCode::Internal, message, retryable: false };
                (Response::Error(error), true)
            }
        };

        let written = write_response(shared, writer, response);
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        drop(permit);
        if let Err(exit) = written {
            return exit;
        }
        if close_after {
            return ConnExit::Poisoned;
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Writes one response frame, passing the `net.write` /
/// `net.write.short` chaos sites: an injected `net.write` error aborts
/// the connection before any bytes; `net.write.short` emits a torn frame
/// (header plus half the payload) and then severs, which the peer must
/// surface as an I/O error, never as a parsed response.
///
/// The frame limit is enforced on writes as well as reads: a response
/// that encodes larger than `max_frame` (a personalized answer over a
/// broad query can carry tens of thousands of ranked tuples) is replaced
/// with a typed `answer_too_large` error rather than sent as a frame the
/// peer is entitled to refuse. The connection stays usable.
///
/// The response is taken by value so its answer rows move into the
/// encoded tree rather than being copied.
fn write_response(
    shared: &Shared,
    writer: &mut TcpStream,
    response: Response,
) -> Result<(), ConnExit> {
    if failpoint::check("net.write").is_err() {
        shared.count("server.chaos.write_aborted");
        return Err(ConnExit::ChaosAbort);
    }
    let mut payload = Json::from(response).to_string();
    if payload.len() > shared.config.max_frame {
        shared.count("server.responses.too_large");
        let error = WireError {
            code: ErrorCode::AnswerTooLarge,
            message: format!(
                "response of {} bytes exceeds the {}-byte frame limit; narrow the query \
                 or serve with a larger max_frame",
                payload.len(),
                shared.config.max_frame
            ),
            retryable: false,
        };
        payload = Json::from(Response::Error(error)).to_string();
    }
    if failpoint::check("net.write.short").is_err() {
        shared.count("server.chaos.torn_writes");
        let header = (payload.len() as u32).to_be_bytes();
        let half = payload.len() / 2;
        writer.write_all(&header).ok();
        writer.write_all(&payload.as_bytes()[..half]).ok();
        writer.flush().ok();
        writer.shutdown(std::net::Shutdown::Both).ok();
        return Err(ConnExit::ChaosAbort);
    }
    match wire::write_payload(writer, payload.as_bytes()) {
        Ok(()) => {
            shared.count("server.responses");
            Ok(())
        }
        Err(_) => {
            shared.count("server.connections.write_errors");
            Err(ConnExit::WriteError)
        }
    }
}

fn dispatch(
    shared: &Arc<Shared>,
    personalizer: &mut Option<Personalizer<'static>>,
    request: Request,
) -> Response {
    match request {
        Request::Ping => {
            shared.count("server.requests.ping");
            Response::Pong
        }
        Request::Stats => {
            shared.count("server.requests.stats");
            Response::Stats(encode_metrics(&shared.metrics))
        }
        Request::RegisterProfile { user, profile } => {
            let db = shared.store.snapshot();
            match Profile::parse(db.catalog(), &profile) {
                Ok(parsed) => {
                    let preferences = parsed.len() as u64;
                    let (user_id, version) = match shared.profiles.register_named(&user, &parsed)
                    {
                        Ok(pair) => pair,
                        Err(e) => {
                            // A disk fault mid-flight degraded the store to
                            // read-only: refuse the write with a typed code
                            // but keep serving reads on this connection.
                            shared.count("server.profiles.register_refused");
                            let code = match &e {
                                PrefError::Persist(_) => ErrorCode::ReadOnly,
                                _ => ErrorCode::BadRequest,
                            };
                            return Response::Error(WireError {
                                code,
                                message: format!("register: {e}"),
                                retryable: false,
                            });
                        }
                    };
                    // Precompute the user's selections for every catalog
                    // relation under the server's default options, so an
                    // early personalize request already resolves its
                    // selection phase as a store lookup. Runs off the
                    // registration critical path (the reply must not wait
                    // on selection algorithms) and best-effort: a failure
                    // or a lost race with re-registration only costs the
                    // warm start.
                    {
                        let shared = Arc::clone(shared);
                        std::thread::spawn(move || {
                            let db = shared.store.snapshot();
                            shared
                                .profiles
                                .precompute(user_id, db.catalog(), &default_options(&shared.config))
                                .ok();
                        });
                    }
                    shared.count("server.profiles.registered");
                    Response::ProfileRegistered {
                        user,
                        user_id: user_id.0,
                        version,
                        preferences,
                    }
                }
                Err(e) => Response::Error(WireError {
                    code: ErrorCode::BadRequest,
                    message: format!("profile: {e}"),
                    retryable: false,
                }),
            }
        }
        Request::PublishDelta { changes } => {
            let db = shared.store.snapshot();
            let mut delta = DbDelta::new();
            for slice in &changes {
                // Types guide number coercion only; a relation the catalog
                // cannot resolve converts generically and is rejected with
                // its proper error by the publish below.
                let types: Option<Vec<DataType>> = db
                    .catalog()
                    .relation_by_name(&slice.relation)
                    .ok()
                    .map(|rel| rel.attributes.iter().map(|a| a.data_type).collect());
                let convert = |rows: &[Vec<Json>]| -> Result<Vec<Vec<Value>>, String> {
                    rows.iter()
                        .map(|row| {
                            row.iter()
                                .enumerate()
                                .map(|(i, v)| {
                                    let want =
                                        types.as_ref().and_then(|t| t.get(i)).copied();
                                    json_to_value(v, want)
                                })
                                .collect()
                        })
                        .collect()
                };
                let (inserts, deletes) =
                    match (convert(&slice.inserts), convert(&slice.deletes)) {
                        (Ok(i), Ok(d)) => (i, d),
                        (Err(m), _) | (_, Err(m)) => {
                            shared.count("server.requests.delta_rejected");
                            return Response::Error(WireError {
                                code: ErrorCode::DeltaRejected,
                                message: format!("relation {:?}: {m}", slice.relation),
                                retryable: false,
                            });
                        }
                    };
                for row in deletes {
                    delta = delta.delete(&slice.relation, row);
                }
                for row in inserts {
                    delta = delta.insert(&slice.relation, row);
                }
            }
            match shared.maintainer.publish(&delta) {
                Ok((_, applied, outcome)) => {
                    shared.count("server.requests.publish_delta");
                    Response::DeltaApplied {
                        old_version: applied.old_version,
                        new_version: applied.new_version,
                        rows_inserted: applied.rows_inserted() as u64,
                        rows_deleted: applied.rows_deleted() as u64,
                        patched: outcome.patched,
                        carried: outcome.carried,
                        rematerialized: outcome.rematerialized,
                        dropped: outcome.dropped + outcome.stale,
                    }
                }
                Err(e) => {
                    shared.count("server.requests.delta_rejected");
                    Response::Error(WireError {
                        code: ErrorCode::DeltaRejected,
                        message: e.to_string(),
                        retryable: false,
                    })
                }
            }
        }
        Request::Personalize { user, user_id, sql, k, l, algorithm } => {
            let resolved = match user_id {
                Some(id) => Some(UserId(id)),
                None => shared.profiles.lookup_named(&user),
            };
            let Some(uid) = resolved else {
                shared.count("server.requests.unknown_user");
                return Response::Error(WireError {
                    code: ErrorCode::UnknownUser,
                    message: format!("no profile registered for {user:?}"),
                    retryable: false,
                });
            };
            let algorithm = match algorithm.as_deref() {
                None => None,
                Some("spa") => Some(AnswerAlgorithm::Spa),
                Some("ppa") => Some(AnswerAlgorithm::Ppa),
                Some(other) => {
                    return Response::Error(WireError {
                        code: ErrorCode::BadRequest,
                        message: format!("unknown algorithm {other:?} (want spa|ppa)"),
                        retryable: false,
                    })
                }
            };
            let p = personalizer.get_or_insert_with(|| {
                let mut p = Personalizer::serving(Arc::clone(&shared.store))
                    .with_profile_store(Arc::clone(&shared.profiles))
                    .with_maintenance(shared.maintainer.registry());
                p.set_resilience(Some(Arc::clone(&shared.resilience)));
                p
            });
            let mut options = default_options(&shared.config);
            if let Some(k) = k {
                options.criterion = SelectionCriterion::TopK(k as usize);
            }
            if let Some(l) = l {
                options.l = l as usize;
            }
            if let Some(algorithm) = algorithm {
                options.algorithm = algorithm;
            }
            let start = Instant::now();
            let run = p.run(PersonalizeRequest::user(uid, &sql).options(options));
            match run {
                Ok(outcome) => {
                    shared.count("server.requests.personalize");
                    let degraded = !outcome.is_complete() || outcome.resilience.short_circuited;
                    if degraded {
                        shared.count("server.degraded");
                    }
                    if outcome.resilience.short_circuited {
                        shared.count("server.short_circuited");
                    }
                    shared
                        .metrics
                        .counter("server.retries")
                        .add(u64::from(outcome.resilience.retries));
                    Response::Answer(Answer {
                        columns: outcome.report.answer.columns,
                        tuples: outcome
                            .report
                            .answer
                            .tuples
                            .iter()
                            .map(|t| WireTuple {
                                doi: t.doi,
                                row: t.row.iter().map(value_to_json).collect(),
                            })
                            .collect(),
                        degraded,
                        retries: u64::from(outcome.resilience.retries),
                        elapsed_us: start.elapsed().as_micros() as u64,
                    })
                }
                Err(e) => {
                    let (code, retryable) = match &e {
                        PrefError::Overloaded { .. } => (ErrorCode::Overloaded, true),
                        // The id-addressed profile vanished between the
                        // lookup and the run (or a stale id was replayed).
                        PrefError::UnknownUser { .. } => {
                            shared.count("server.requests.unknown_user");
                            (ErrorCode::UnknownUser, false)
                        }
                        other => (ErrorCode::Query, qp_core::is_transient(other)),
                    };
                    shared.count("server.requests.failed");
                    Response::Error(WireError { code, message: e.to_string(), retryable })
                }
            }
        }
    }
}

/// The options a request gets when it does not override anything — also
/// the options profile registration precomputes selections under, so
/// default-shaped requests hit the precomputed memo (the memo key
/// fingerprints the criterion, selection algorithm, and ranking).
fn default_options(config: &ServerConfig) -> PersonalizationOptions {
    PersonalizationOptions {
        criterion: SelectionCriterion::TopK(config.default_k),
        l: config.default_l,
        ..Default::default()
    }
}

/// Converts one wire value to a storage [`Value`], coercing numbers to
/// the column's declared type when the catalog knows it. Mismatches the
/// conversion cannot express (e.g. a fractional number for an `Int`
/// column) fall through as floats for the storage layer's type check to
/// reject with a precise error.
fn json_to_value(v: &Json, want: Option<DataType>) -> Result<Value, String> {
    Ok(match v {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Str(s) => Value::str(s.as_str()),
        Json::Num(n) => match want {
            Some(DataType::Float) => Value::Float(*n),
            _ if n.fract() == 0.0 && n.is_finite() => Value::Int(*n as i64),
            _ => Value::Float(*n),
        },
        other => return Err(format!("unsupported row value {other:?}")),
    })
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Num(*i as f64),
        Value::Float(f) => Json::Num(*f),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::Bool(b) => Json::Bool(*b),
    }
}

fn encode_metrics(metrics: &MetricsRegistry) -> Vec<(String, Json)> {
    metrics
        .snapshot()
        .into_iter()
        .map(|record| {
            let value = match record.value {
                MetricValue::Counter(n) => Json::Num(n as f64),
                MetricValue::Gauge(n) => Json::Num(n as f64),
                MetricValue::Histogram { count, sum_us, .. } => Json::obj(vec![
                    ("count", Json::Num(count as f64)),
                    ("sum_us", Json::Num(sum_us as f64)),
                ]),
            };
            (record.name, value)
        })
        .collect()
}
