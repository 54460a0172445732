#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # qp-client
//!
//! A typed client for the qp wire protocol (see [`wire`] for the frame
//! format), plus the protocol definition itself — `qp-server` depends on
//! this crate, not the other way round, so the client stays free of the
//! engine stack.
//!
//! ```no_run
//! use qp_client::{Client, PersonalizeCall};
//! use std::time::Duration;
//!
//! let mut c = Client::connect("127.0.0.1:7878", Duration::from_secs(2)).unwrap();
//! c.register_profile("al", "doi(MOVIE.genre = 'comedy') = (0.8, 0.1)").unwrap();
//! let answer = c
//!     .personalize(PersonalizeCall::new("al", "select title from MOVIE").k(5))
//!     .unwrap();
//! for t in &answer.tuples {
//!     println!("{:.3}  {:?}", t.doi, t.row);
//! }
//! ```

pub mod json;
pub mod wire;

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

pub use json::Json;
pub use wire::{
    Answer, DeltaSlice, ErrorCode, FrameError, Request, Response, WireError, WireTuple,
    DEFAULT_MAX_FRAME,
};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, timeout, reset).
    Io(std::io::Error),
    /// The byte stream broke protocol (torn frame, oversized frame,
    /// non-JSON payload, or a response shape the client cannot decode).
    Protocol(String),
    /// The server replied with a typed error.
    Server(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            FrameError::Closed => ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            )),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// What the server assigned when a profile was registered. Keep the
/// `user_id` and thread it into [`PersonalizeCall::user_id`] (or use
/// [`Registration::call`]) — id-addressed requests skip the server's
/// name lookup and identify the profile durably across connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registration {
    /// Store-assigned user id, stable for the server's lifetime.
    pub user_id: u64,
    /// Store version: 1 on first registration, +1 per re-registration.
    pub version: u64,
    /// Number of preferences parsed from the profile text.
    pub preferences: u64,
}

impl Registration {
    /// A [`PersonalizeCall`] addressed by this registration's id.
    pub fn call(&self, sql: impl Into<String>) -> PersonalizeCall {
        PersonalizeCall::new("", sql).user_id(self.user_id)
    }
}

/// Builder for a `personalize` request.
#[derive(Debug, Clone)]
pub struct PersonalizeCall {
    user: String,
    user_id: Option<u64>,
    sql: String,
    k: Option<u64>,
    l: Option<u64>,
    algorithm: Option<String>,
}

impl PersonalizeCall {
    /// Personalize `sql` under `user`'s registered profile, with the
    /// server's default K / L / algorithm.
    pub fn new(user: impl Into<String>, sql: impl Into<String>) -> Self {
        PersonalizeCall {
            user: user.into(),
            user_id: None,
            sql: sql.into(),
            k: None,
            l: None,
            algorithm: None,
        }
    }

    /// Addresses the profile by its store-assigned id (from
    /// [`Registration::user_id`]) instead of the user-key lookup.
    pub fn user_id(mut self, user_id: u64) -> Self {
        self.user_id = Some(user_id);
        self
    }

    /// Selects the top-K preferences.
    pub fn k(mut self, k: u64) -> Self {
        self.k = Some(k);
        self
    }

    /// Requires at least L satisfied preferences per answer tuple.
    pub fn l(mut self, l: u64) -> Self {
        self.l = Some(l);
        self
    }

    /// Picks the answer algorithm (`"spa"` or `"ppa"`).
    pub fn algorithm(mut self, algorithm: impl Into<String>) -> Self {
        self.algorithm = Some(algorithm.into());
        self
    }

    fn into_request(self) -> Request {
        Request::Personalize {
            user: self.user,
            user_id: self.user_id,
            sql: self.sql,
            k: self.k,
            l: self.l,
            algorithm: self.algorithm,
        }
    }
}

/// Builder for a `publish_delta` request: row inserts and value-addressed
/// deletes, folded into one slice per relation in first-touch order.
///
/// ```no_run
/// # use qp_client::{Client, DeltaSpec, Json};
/// # use std::time::Duration;
/// # let mut c = Client::connect("127.0.0.1:7878", Duration::from_secs(2)).unwrap();
/// let receipt = c
///     .publish_delta(
///         DeltaSpec::new()
///             .insert("MOVIE", vec![Json::num(900.0), Json::str("New"), Json::num(2005.0)])
///             .delete("MOVIE", vec![Json::num(3.0), Json::str("Old"), Json::num(1983.0)]),
///     )
///     .unwrap();
/// assert!(receipt.new_version > receipt.old_version);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeltaSpec {
    changes: Vec<DeltaSlice>,
}

impl DeltaSpec {
    /// An empty delta (publishing it is a no-op epoch bump).
    pub fn new() -> Self {
        DeltaSpec::default()
    }

    /// Queues a row insert into `relation`.
    pub fn insert(mut self, relation: &str, row: Vec<Json>) -> Self {
        self.slice(relation).inserts.push(row);
        self
    }

    /// Queues a value-addressed delete of a live row of `relation`.
    pub fn delete(mut self, relation: &str, row: Vec<Json>) -> Self {
        self.slice(relation).deletes.push(row);
        self
    }

    /// True iff no writes were queued.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    fn slice(&mut self, relation: &str) -> &mut DeltaSlice {
        if let Some(at) = self.changes.iter().position(|s| s.relation == relation) {
            return &mut self.changes[at];
        }
        self.changes.push(DeltaSlice { relation: relation.to_string(), ..Default::default() });
        self.changes.last_mut().expect("slice just pushed")
    }

    fn into_request(self) -> Request {
        Request::PublishDelta { changes: self.changes }
    }
}

/// What the server reports after applying a published delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReceipt {
    /// Epoch the delta replaced.
    pub old_version: u64,
    /// Epoch readers now see.
    pub new_version: u64,
    /// Rows inserted across all relations.
    pub rows_inserted: u64,
    /// Rows deleted across all relations.
    pub rows_deleted: u64,
    /// Materialized preference results, joins included, brought to the
    /// new epoch by evaluating them against the delta's rows only.
    pub patched: u64,
    /// Materializations carried unchanged to the new epoch.
    pub carried: u64,
    /// Materializations recomputed from scratch: shapes the delta path
    /// does not cover (a `NOT IN` sub-query) and failed delta
    /// evaluations.
    pub rematerialized: u64,
    /// Materializations dropped (stale or failed maintenance).
    pub dropped: u64,
}

/// A connected protocol client. One request is in flight at a time; the
/// connection is reused across requests until an error poisons it.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: usize,
}

impl Client {
    /// Connects to `addr` and applies `timeout` to connect, reads, and
    /// writes. A timed-out read surfaces as [`ClientError::Io`].
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(ClientError::Io)?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".to_string()))?;
        let stream = TcpStream::connect_timeout(&addr, timeout).map_err(ClientError::Io)?;
        Client::from_stream(stream, timeout)
    }

    /// Wraps an already-connected stream (used by tests and the load
    /// generator to control socket construction).
    pub fn from_stream(stream: TcpStream, timeout: Duration) -> Result<Client, ClientError> {
        stream.set_read_timeout(Some(timeout)).map_err(ClientError::Io)?;
        stream.set_write_timeout(Some(timeout)).map_err(ClientError::Io)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().map_err(ClientError::Io)?);
        Ok(Client { reader, writer: BufWriter::new(stream), max_frame: DEFAULT_MAX_FRAME })
    }

    /// Overrides the maximum response frame size this client accepts.
    pub fn with_max_frame(mut self, max_frame: usize) -> Client {
        self.max_frame = max_frame;
        self
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Registers (or replaces) `user`'s profile; returns the store
    /// assignment — id, version, and the number of preferences the
    /// server parsed out of the DSL text.
    pub fn register_profile(
        &mut self,
        user: &str,
        profile_dsl: &str,
    ) -> Result<Registration, ClientError> {
        let req = Request::RegisterProfile {
            user: user.to_string(),
            profile: profile_dsl.to_string(),
        };
        match self.roundtrip(&req)? {
            Response::ProfileRegistered { user_id, version, preferences, .. } => {
                Ok(Registration { user_id, version, preferences })
            }
            other => Err(unexpected("profile_registered", &other)),
        }
    }

    /// Runs one personalized query.
    pub fn personalize(&mut self, call: PersonalizeCall) -> Result<Answer, ClientError> {
        match self.roundtrip(&call.into_request())? {
            Response::Answer(a) => Ok(a),
            other => Err(unexpected("answer", &other)),
        }
    }

    /// Publishes `delta` as one new database epoch. A rejected delta
    /// (unknown relation, arity/type mismatch, delete of a missing
    /// tuple) surfaces as [`ClientError::Server`] with
    /// [`ErrorCode::DeltaRejected`] and changes nothing server-side.
    pub fn publish_delta(&mut self, delta: DeltaSpec) -> Result<DeltaReceipt, ClientError> {
        match self.roundtrip(&delta.into_request())? {
            Response::DeltaApplied {
                old_version,
                new_version,
                rows_inserted,
                rows_deleted,
                patched,
                carried,
                rematerialized,
                dropped,
            } => Ok(DeltaReceipt {
                old_version,
                new_version,
                rows_inserted,
                rows_deleted,
                patched,
                carried,
                rematerialized,
                dropped,
            }),
            other => Err(unexpected("delta_applied", &other)),
        }
    }

    /// Fetches the server's metrics snapshot as `(name, value)` pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, Json)>, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(metrics) => Ok(metrics),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Sends one request frame and decodes one response frame. A typed
    /// server failure becomes [`ClientError::Server`].
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        wire::write_frame(&mut self.writer, &request.to_json()).map_err(ClientError::Io)?;
        let frame = wire::read_frame(&mut self.reader, self.max_frame)?;
        match Response::from_json(&frame).map_err(ClientError::Protocol)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            ok => Ok(ok),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted:?}, got {got:?}"))
}
