//! The qp wire protocol: framing, request/response shapes, and error
//! codes, shared verbatim by `qp-server` and the client in this crate.
//!
//! # Frame format
//!
//! Every message — in either direction — is one *frame*:
//!
//! ```text
//! +----------------+----------------------------------+
//! | length: u32 BE | payload: `length` bytes of UTF-8 |
//! +----------------+----------------------------------+
//! ```
//!
//! The payload is exactly one JSON object (see [`crate::json`]). Frames
//! larger than the receiver's max-frame limit (default
//! [`DEFAULT_MAX_FRAME`]) are rejected without reading the payload;
//! payloads that are not valid JSON poison only the connection that sent
//! them.
//!
//! # Requests and responses
//!
//! Requests carry an `"op"` discriminator (`ping`, `register_profile`,
//! `personalize`, `stats`). Successful responses carry `"ok": true` and
//! their own `"op"`; failures carry `"ok": false` and an `"error"`
//! object with a stable [`ErrorCode`], a human-readable message, and a
//! `"retryable"` hint.

use std::io::{self, Read, Write};

use crate::json::{self, Json};

/// Default cap on a single frame's payload, in bytes (256 KiB).
pub const DEFAULT_MAX_FRAME: usize = 256 * 1024;

/// Reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// An I/O error (including timeouts) interrupted the frame.
    Io(io::Error),
    /// The declared payload length exceeds the receiver's limit.
    TooLarge {
        /// Declared payload length.
        declared: usize,
        /// The receiver's limit.
        limit: usize,
    },
    /// The payload was not one well-formed JSON object.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::TooLarge { declared, limit } => {
                write!(f, "frame of {declared} bytes exceeds the {limit}-byte limit")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: 4-byte big-endian length, then the encoded value.
pub fn write_frame(w: &mut impl Write, value: &Json) -> io::Result<()> {
    write_payload(w, value.to_string().as_bytes())
}

/// Writes one already-encoded frame payload with its length header.
/// Callers that need the encoded size first (e.g. a server enforcing its
/// own frame limit on *writes*) encode once, inspect, then call this.
///
/// Header and payload go out in one `write_all`: on an unbuffered
/// `TCP_NODELAY` socket two writes would cost two segments.
pub fn write_payload(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, enforcing `max_frame` on the declared length.
///
/// A clean EOF *before any header byte* is [`FrameError::Closed`]; EOF
/// mid-frame is an [`FrameError::Io`] (`UnexpectedEof`) because the peer
/// tore the frame.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Json, FrameError> {
    let declared = read_header(r, max_frame)?;
    read_body(r, declared)
}

/// Reads one frame header and validates the declared length against
/// `max_frame` — without touching the payload, so an oversized frame is
/// rejected before a single payload byte is read. Servers use this
/// split (header under the idle timeout, body under the I/O deadline);
/// most callers want [`read_frame`].
pub fn read_header(r: &mut impl Read, max_frame: usize) -> Result<usize, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let declared = u32::from_be_bytes(header) as usize;
    if declared > max_frame {
        return Err(FrameError::TooLarge { declared, limit: max_frame });
    }
    Ok(declared)
}

/// Reads and parses a frame body whose length [`read_header`] already
/// validated.
pub fn read_body(r: &mut impl Read, declared: usize) -> Result<Json, FrameError> {
    let mut payload = vec![0u8; declared];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    let text = String::from_utf8(payload)
        .map_err(|_| FrameError::Malformed("payload is not UTF-8".to_string()))?;
    match json::parse(&text) {
        Ok(value @ Json::Obj(_)) => Ok(value),
        Ok(_) => Err(FrameError::Malformed("payload is not a JSON object".to_string())),
        Err(e) => Err(FrameError::Malformed(e)),
    }
}

/// Stable error codes carried in failure responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The server shed the request before parsing it (admission control
    /// or accept-queue bound). Retry after backoff.
    Overloaded,
    /// The frame payload was not one well-formed JSON object. The server
    /// closes the connection after sending this.
    BadFrame,
    /// The declared frame length exceeds the server's limit. The server
    /// closes the connection after sending this.
    FrameTooLarge,
    /// The JSON parsed but the request is invalid (unknown op, missing
    /// or ill-typed fields, profile that fails to parse).
    BadRequest,
    /// `personalize` for a user with no registered profile.
    UnknownUser,
    /// The personalized answer encoded larger than the server's frame
    /// limit. The connection stays usable; narrow the query (or run a
    /// server with a larger `max_frame`) and retry.
    AnswerTooLarge,
    /// Personalization failed with a typed engine error.
    Query,
    /// The connection handler panicked; the request died but the server
    /// survives. The connection is closed after this response.
    Internal,
    /// The server is draining for shutdown and takes no new requests.
    ShuttingDown,
    /// The server's durable profile store hit a disk fault and degraded
    /// to read-only: reads and personalization still work, but profile
    /// registration is refused until an operator intervenes. Not
    /// retryable against the same server.
    ReadOnly,
    /// A `publish_delta` was rejected wholesale — unknown relation,
    /// arity or type mismatch, a delete addressing no live tuple, or a
    /// write fault at publish time. Nothing was applied; the database
    /// epoch is unchanged. Not retryable as-is: the delta itself is
    /// wrong (or the store is faulted), so fix it first.
    DeltaRejected,
}

impl ErrorCode {
    /// The stable string carried on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownUser => "unknown_user",
            ErrorCode::AnswerTooLarge => "answer_too_large",
            ErrorCode::Query => "query",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ReadOnly => "read_only",
            ErrorCode::DeltaRejected => "delta_rejected",
        }
    }

    /// Parses the wire string back into a code.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "overloaded" => ErrorCode::Overloaded,
            "bad_frame" => ErrorCode::BadFrame,
            "frame_too_large" => ErrorCode::FrameTooLarge,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_user" => ErrorCode::UnknownUser,
            "answer_too_large" => ErrorCode::AnswerTooLarge,
            "query" => ErrorCode::Query,
            "internal" => ErrorCode::Internal,
            "shutting_down" => ErrorCode::ShuttingDown,
            "read_only" => ErrorCode::ReadOnly,
            "delta_rejected" => ErrorCode::DeltaRejected,
            _ => return None,
        })
    }
}

/// A typed failure response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable error code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Whether the client may retry the same request.
    pub retryable: bool,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl WireError {
    /// Encodes the failure as a response frame value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("ok", Json::Bool(false)),
            (
                "error",
                Json::obj(vec![
                    ("code", Json::str(self.code.as_str())),
                    ("message", Json::str(self.message.clone())),
                    ("retryable", Json::Bool(self.retryable)),
                ]),
            ),
        ])
    }
}

/// One relation's writes inside a [`Request::PublishDelta`].
///
/// Rows are positional JSON values (number / string / bool / null)
/// matched against the relation's schema server-side: numbers coerce to
/// the column's declared `Int`/`Float` type, everything else must match
/// exactly. Deletes are *value-addressed* — the full row as stored —
/// and resolved against the pre-delta snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeltaSlice {
    /// Relation name as it appears in the catalog.
    pub relation: String,
    /// Rows to insert, each with the relation's full arity.
    pub inserts: Vec<Vec<Json>>,
    /// Live rows to delete, value-addressed.
    pub deletes: Vec<Vec<Json>>,
}

fn rows_to_json(rows: &[Vec<Json>]) -> Json {
    Json::Arr(rows.iter().map(|row| Json::Arr(row.clone())).collect())
}

fn rows_from_json(v: Option<&Json>, what: &str) -> Result<Vec<Vec<Json>>, String> {
    let Some(v) = v else { return Ok(Vec::new()) };
    v.as_arr()
        .ok_or_else(|| format!("\"{what}\" must be an array of rows"))?
        .iter()
        .map(|row| {
            row.as_arr()
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("\"{what}\" rows must be arrays"))
        })
        .collect()
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Registers (or replaces) `user`'s preference profile, given in the
    /// paper's Figure-2 `doi(...) = (x, y)` notation.
    RegisterProfile {
        /// User key.
        user: String,
        /// Profile text in the DSL.
        profile: String,
    },
    /// Personalizes `sql` under `user`'s registered profile.
    Personalize {
        /// User key (must have a registered profile).
        user: String,
        /// Store-assigned user id from a `profile_registered` response.
        /// When present the server resolves the profile by id directly,
        /// skipping the name lookup; `user` is then only used in error
        /// messages.
        user_id: Option<u64>,
        /// The SQL query to personalize.
        sql: String,
        /// Top-K preferences to select (server default if absent).
        k: Option<u64>,
        /// Minimum satisfied preferences per answer tuple.
        l: Option<u64>,
        /// `"spa"` or `"ppa"` (server default if absent).
        algorithm: Option<String>,
    },
    /// Atomically publishes a set of row inserts/deletes as one new
    /// database epoch. Applied all-or-nothing: any invalid slice rejects
    /// the whole delta with [`ErrorCode::DeltaRejected`] and the epoch
    /// is unchanged. On success the server incrementally maintains its
    /// materialized preference results instead of recomputing them.
    PublishDelta {
        /// Per-relation changes; at most one slice per relation.
        changes: Vec<DeltaSlice>,
    },
    /// Dumps the server's metrics registry.
    Stats,
}

impl Request {
    /// Encodes the request as a frame value.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj(vec![("op", Json::str("ping"))]),
            Request::RegisterProfile { user, profile } => Json::obj(vec![
                ("op", Json::str("register_profile")),
                ("user", Json::str(user.clone())),
                ("profile", Json::str(profile.clone())),
            ]),
            Request::Personalize { user, user_id, sql, k, l, algorithm } => {
                let mut pairs = vec![
                    ("op", Json::str("personalize")),
                    ("user", Json::str(user.clone())),
                    ("sql", Json::str(sql.clone())),
                ];
                if let Some(id) = user_id {
                    pairs.push(("user_id", Json::num(*id as f64)));
                }
                if let Some(k) = k {
                    pairs.push(("k", Json::num(*k as f64)));
                }
                if let Some(l) = l {
                    pairs.push(("l", Json::num(*l as f64)));
                }
                if let Some(a) = algorithm {
                    pairs.push(("algorithm", Json::str(a.clone())));
                }
                Json::obj(pairs)
            }
            Request::PublishDelta { changes } => Json::obj(vec![
                ("op", Json::str("publish_delta")),
                (
                    "changes",
                    Json::Arr(
                        changes
                            .iter()
                            .map(|slice| {
                                Json::obj(vec![
                                    ("relation", Json::str(slice.relation.clone())),
                                    ("inserts", rows_to_json(&slice.inserts)),
                                    ("deletes", rows_to_json(&slice.deletes)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Request::Stats => Json::obj(vec![("op", Json::str("stats"))]),
        }
    }

    /// Decodes a request frame; `Err` carries a `bad_request` message.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let op = v.str_field("op").ok_or("missing \"op\"")?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "register_profile" => Ok(Request::RegisterProfile {
                user: v.str_field("user").ok_or("missing \"user\"")?.to_string(),
                profile: v.str_field("profile").ok_or("missing \"profile\"")?.to_string(),
            }),
            "personalize" => {
                for key in ["user_id", "k", "l"] {
                    if v.get(key).is_some() && v.u64_field(key).is_none() {
                        return Err(format!("\"{key}\" must be a non-negative integer"));
                    }
                }
                Ok(Request::Personalize {
                    user: v.str_field("user").ok_or("missing \"user\"")?.to_string(),
                    user_id: v.u64_field("user_id"),
                    sql: v.str_field("sql").ok_or("missing \"sql\"")?.to_string(),
                    k: v.u64_field("k"),
                    l: v.u64_field("l"),
                    algorithm: v.str_field("algorithm").map(str::to_string),
                })
            }
            "publish_delta" => {
                let changes = v
                    .get("changes")
                    .and_then(Json::as_arr)
                    .ok_or("missing \"changes\"")?
                    .iter()
                    .map(|slice| {
                        Ok(DeltaSlice {
                            relation: slice
                                .str_field("relation")
                                .ok_or("slice without \"relation\"")?
                                .to_string(),
                            inserts: rows_from_json(slice.get("inserts"), "inserts")?,
                            deletes: rows_from_json(slice.get("deletes"), "deletes")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Request::PublishDelta { changes })
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// One answer tuple on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTuple {
    /// Degree of interest the ranking assigned.
    pub doi: f64,
    /// Projected row values (strings/numbers/bools/null).
    pub row: Vec<Json>,
}

/// A successful `personalize` response.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Projected column names.
    pub columns: Vec<String>,
    /// Answer tuples, best first.
    pub tuples: Vec<WireTuple>,
    /// True if the server degraded the answer (dropped probes, breaker
    /// short-circuit) rather than computing it fully.
    pub degraded: bool,
    /// Transient-fault retries the server's `RetryPolicy` absorbed.
    pub retries: u64,
    /// Server-side latency for this request, in microseconds.
    pub elapsed_us: u64,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::RegisterProfile`].
    ProfileRegistered {
        /// Echoed user key.
        user: String,
        /// Store-assigned user id — durable for the server's lifetime,
        /// shared across connections. Pass it back as
        /// [`Request::Personalize::user_id`] to skip the name lookup.
        user_id: u64,
        /// Store version of the profile: 1 on first registration,
        /// bumped on every re-registration.
        version: u64,
        /// Number of preferences parsed from the profile text.
        preferences: u64,
    },
    /// Reply to [`Request::Personalize`].
    Answer(Answer),
    /// Reply to [`Request::PublishDelta`]: the delta became the new
    /// database epoch, and the maintenance counters say how the server's
    /// materialized preference results absorbed it.
    DeltaApplied {
        /// Epoch that was current when the delta arrived.
        old_version: u64,
        /// Epoch the delta produced — what readers now see.
        new_version: u64,
        /// Rows inserted across all relations.
        rows_inserted: u64,
        /// Rows deleted across all relations.
        rows_deleted: u64,
        /// Materializations, joins included, patched from the delta's
        /// rows.
        patched: u64,
        /// Materializations carried unchanged (delta missed their
        /// relations).
        carried: u64,
        /// Materializations recomputed from scratch (shapes the delta
        /// path does not cover, such as a `NOT IN` sub-query, or a
        /// failed delta evaluation).
        rematerialized: u64,
        /// Materializations dropped (stale epoch or maintenance error).
        dropped: u64,
    },
    /// Reply to [`Request::Stats`]: metric name → value (counters and
    /// gauges as numbers; histograms as objects).
    Stats(Vec<(String, Json)>),
    /// A typed failure.
    Error(WireError),
}

impl From<Response> for Json {
    /// Encodes the response as a frame value, moving its strings and
    /// answer rows into the tree instead of copying them.
    fn from(response: Response) -> Json {
        match response {
            Response::Pong => Json::obj(vec![("ok", Json::Bool(true)), ("op", Json::str("pong"))]),
            Response::ProfileRegistered { user, user_id, version, preferences } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::str("profile_registered")),
                ("user", Json::Str(user)),
                ("user_id", Json::num(user_id as f64)),
                ("version", Json::num(version as f64)),
                ("preferences", Json::num(preferences as f64)),
            ]),
            Response::Answer(a) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::str("answer")),
                ("columns", Json::Arr(a.columns.into_iter().map(Json::Str).collect())),
                (
                    "tuples",
                    Json::Arr(
                        a.tuples
                            .into_iter()
                            .map(|t| {
                                Json::obj(vec![
                                    ("doi", Json::num(t.doi)),
                                    ("row", Json::Arr(t.row)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("degraded", Json::Bool(a.degraded)),
                ("retries", Json::num(a.retries as f64)),
                ("elapsed_us", Json::num(a.elapsed_us as f64)),
            ]),
            Response::DeltaApplied {
                old_version,
                new_version,
                rows_inserted,
                rows_deleted,
                patched,
                carried,
                rematerialized,
                dropped,
            } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::str("delta_applied")),
                ("old_version", Json::num(old_version as f64)),
                ("new_version", Json::num(new_version as f64)),
                ("rows_inserted", Json::num(rows_inserted as f64)),
                ("rows_deleted", Json::num(rows_deleted as f64)),
                ("patched", Json::num(patched as f64)),
                ("carried", Json::num(carried as f64)),
                ("rematerialized", Json::num(rematerialized as f64)),
                ("dropped", Json::num(dropped as f64)),
            ]),
            Response::Stats(metrics) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::str("stats")),
                ("metrics", Json::Obj(metrics)),
            ]),
            Response::Error(e) => e.to_json(),
        }
    }
}

impl Response {
    /// Encodes the response as a frame value. Senders that own the
    /// response convert it with `Json::from` and skip the copy.
    pub fn to_json(&self) -> Json {
        self.clone().into()
    }

    /// Decodes a response frame; `Err` means the peer broke protocol.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => {
                let e = v.get("error").ok_or("failure response without \"error\"")?;
                let code_str = e.str_field("code").ok_or("error without \"code\"")?;
                let code = ErrorCode::parse(code_str)
                    .ok_or_else(|| format!("unknown error code {code_str:?}"))?;
                return Ok(Response::Error(WireError {
                    code,
                    message: e.str_field("message").unwrap_or_default().to_string(),
                    retryable: e.get("retryable").and_then(Json::as_bool).unwrap_or(false),
                }));
            }
            None => return Err("response without \"ok\"".to_string()),
        }
        match v.str_field("op").ok_or("success response without \"op\"")? {
            "pong" => Ok(Response::Pong),
            "profile_registered" => Ok(Response::ProfileRegistered {
                user: v.str_field("user").ok_or("missing \"user\"")?.to_string(),
                user_id: v.u64_field("user_id").ok_or("missing \"user_id\"")?,
                version: v.u64_field("version").ok_or("missing \"version\"")?,
                preferences: v.u64_field("preferences").ok_or("missing \"preferences\"")?,
            }),
            "answer" => {
                let columns = v
                    .get("columns")
                    .and_then(Json::as_arr)
                    .ok_or("missing \"columns\"")?
                    .iter()
                    .map(|c| c.as_str().map(str::to_string).ok_or("non-string column"))
                    .collect::<Result<Vec<_>, _>>()?;
                let tuples = v
                    .get("tuples")
                    .and_then(Json::as_arr)
                    .ok_or("missing \"tuples\"")?
                    .iter()
                    .map(|t| {
                        Ok(WireTuple {
                            doi: t.get("doi").and_then(Json::as_f64).ok_or("tuple without doi")?,
                            row: t
                                .get("row")
                                .and_then(Json::as_arr)
                                .ok_or("tuple without row")?
                                .to_vec(),
                        })
                    })
                    .collect::<Result<Vec<_>, &str>>()?;
                Ok(Response::Answer(Answer {
                    columns,
                    tuples,
                    degraded: v.get("degraded").and_then(Json::as_bool).unwrap_or(false),
                    retries: v.u64_field("retries").unwrap_or(0),
                    elapsed_us: v.u64_field("elapsed_us").unwrap_or(0),
                }))
            }
            "delta_applied" => Ok(Response::DeltaApplied {
                old_version: v.u64_field("old_version").ok_or("missing \"old_version\"")?,
                new_version: v.u64_field("new_version").ok_or("missing \"new_version\"")?,
                rows_inserted: v.u64_field("rows_inserted").unwrap_or(0),
                rows_deleted: v.u64_field("rows_deleted").unwrap_or(0),
                patched: v.u64_field("patched").unwrap_or(0),
                carried: v.u64_field("carried").unwrap_or(0),
                rematerialized: v.u64_field("rematerialized").unwrap_or(0),
                dropped: v.u64_field("dropped").unwrap_or(0),
            }),
            "stats" => match v.get("metrics") {
                Some(Json::Obj(pairs)) => Ok(Response::Stats(pairs.clone())),
                _ => Err("missing \"metrics\"".to_string()),
            },
            other => Err(format!("unknown response op {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let decoded = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Stats);
        round_trip_request(Request::RegisterProfile {
            user: "al".into(),
            profile: "doi(MOVIE.genre = 'comedy') = (0.8, 0.1)".into(),
        });
        round_trip_request(Request::Personalize {
            user: "al".into(),
            user_id: Some(7),
            sql: "select title from MOVIE".into(),
            k: Some(5),
            l: Some(1),
            algorithm: Some("ppa".into()),
        });
        round_trip_request(Request::Personalize {
            user: "al".into(),
            user_id: None,
            sql: "select title from MOVIE".into(),
            k: None,
            l: None,
            algorithm: None,
        });
        round_trip_request(Request::PublishDelta {
            changes: vec![
                DeltaSlice {
                    relation: "MOVIE".into(),
                    inserts: vec![vec![Json::num(900.0), Json::str("New"), Json::num(2005.0)]],
                    deletes: vec![vec![Json::num(3.0), Json::str("Old"), Json::num(1983.0)]],
                },
                DeltaSlice { relation: "GENRE".into(), inserts: vec![], deletes: vec![] },
            ],
        });
        round_trip_request(Request::PublishDelta { changes: vec![] });
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Pong,
            Response::ProfileRegistered {
                user: "al".into(),
                user_id: 3,
                version: 2,
                preferences: 7,
            },
            Response::Answer(Answer {
                columns: vec!["title".into()],
                tuples: vec![WireTuple {
                    doi: 0.75,
                    row: vec![Json::str("Psycho"), Json::Null, Json::num(3.0)],
                }],
                degraded: true,
                retries: 2,
                elapsed_us: 1234,
            }),
            Response::DeltaApplied {
                old_version: 7,
                new_version: 9,
                rows_inserted: 3,
                rows_deleted: 1,
                patched: 2,
                carried: 4,
                rematerialized: 1,
                dropped: 0,
            },
            Response::Stats(vec![("server.requests".into(), Json::num(9.0))]),
            Response::Error(WireError {
                code: ErrorCode::Overloaded,
                message: "64 in flight".into(),
                retryable: true,
            }),
            Response::Error(WireError {
                code: ErrorCode::DeltaRejected,
                message: "unknown relation \"NOPE\"".into(),
                retryable: false,
            }),
        ];
        for case in cases {
            assert_eq!(Response::from_json(&case.to_json()).unwrap(), case);
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let value = Request::Ping.to_json();
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        let payload_len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        assert_eq!(payload_len, buf.len() - 4, "header declares the payload length");
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), value);
    }

    #[test]
    fn frame_reader_enforces_the_limit() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping.to_json()).unwrap();
        let mut cursor = &buf[..];
        assert!(matches!(read_frame(&mut cursor, 4), Err(FrameError::TooLarge { .. })));
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), Request::Ping.to_json());
    }

    #[test]
    fn clean_eof_is_closed_and_torn_frame_is_io() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty, 1024), Err(FrameError::Closed)));

        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping.to_json()).unwrap();
        let mut torn = &buf[..buf.len() - 3];
        assert!(matches!(read_frame(&mut torn, 1024), Err(FrameError::Io(_))));
        let mut torn_header = &buf[..2];
        assert!(matches!(read_frame(&mut torn_header, 1024), Err(FrameError::Io(_))));
    }

    #[test]
    fn non_object_payload_is_malformed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::Arr(vec![])).unwrap();
        let mut cursor = &buf[..];
        assert!(matches!(read_frame(&mut cursor, 1024), Err(FrameError::Malformed(_))));

        let garbage = [0u8, 0, 0, 3, b'{', b'{', b'{'];
        let mut cursor = &garbage[..];
        assert!(matches!(read_frame(&mut cursor, 1024), Err(FrameError::Malformed(_))));
    }
}
