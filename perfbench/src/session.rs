//! The benchmark's client side: one connection at a time, driven through
//! qp-client's public wire layer exactly as `qp_client::Client` drives it,
//! with a timestamp at each step when the run is traced.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Read as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qp_client::json::{self, Json};
use qp_client::wire::{self, ErrorCode, FrameError, Request, Response, DEFAULT_MAX_FRAME};

/// Connect, read and write deadline. Generous: a request that needs it
/// has failed the benchmark's purpose anyway.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Microseconds in a duration, with the sub-microsecond digits kept.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Why an operation failed, as its failure code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The server answered with a typed error.
    Server(ErrorCode),
    /// The socket failed (connect, reset, timeout).
    Io,
    /// The bytes broke protocol, or the reply had the wrong shape.
    Protocol,
    /// The answer differed from the in-process reference.
    Mismatch,
}

impl Failure {
    /// The code reported for this failure.
    pub fn code(self) -> &'static str {
        match self {
            Failure::Server(code) => code.as_str(),
            Failure::Io => "io",
            Failure::Protocol => "protocol",
            Failure::Mismatch => "mismatch",
        }
    }

    /// Whether the connection is unusable after this failure.
    fn poisons(self) -> bool {
        match self {
            Failure::Server(code) => matches!(
                code,
                ErrorCode::Internal
                    | ErrorCode::BadFrame
                    | ErrorCode::FrameTooLarge
                    | ErrorCode::ShuttingDown
            ),
            Failure::Io | Failure::Protocol => true,
            Failure::Mismatch => false,
        }
    }
}

fn frame_failure(e: FrameError) -> Failure {
    match e {
        FrameError::Io(_) | FrameError::Closed => Failure::Io,
        FrameError::TooLarge { .. } | FrameError::Malformed(_) => Failure::Protocol,
    }
}

/// Client-side times of one operation, in microseconds. The split
/// fields stay 0 on an untraced call.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTimes {
    /// Connect, when this operation opened the connection.
    pub connect: f64,
    /// `wire::write_frame` until `wire::read_header` returned.
    pub wait: f64,
    /// Reading the response body.
    pub read: f64,
    /// `json::parse` and `Response::from_json`.
    pub decode: f64,
    /// The whole operation, connect included.
    pub total: f64,
    /// Response frame size, header included.
    pub bytes: usize,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Opens a connection with the socket settings `Client::connect` uses.
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// `Client::roundtrip`, call for call.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, Failure> {
        wire::write_frame(&mut self.writer, &request.to_json()).map_err(|_| Failure::Io)?;
        let frame = wire::read_frame(&mut self.reader, DEFAULT_MAX_FRAME).map_err(frame_failure)?;
        Response::from_json(&frame).map_err(|_| Failure::Protocol)
    }

    /// The same calls with `wire::read_body` split into its read and its
    /// parse, each timed.
    fn roundtrip_traced(
        &mut self,
        request: &Request,
        times: &mut WireTimes,
    ) -> Result<Response, Failure> {
        let sent = Instant::now();
        wire::write_frame(&mut self.writer, &request.to_json()).map_err(|_| Failure::Io)?;
        let declared =
            wire::read_header(&mut self.reader, DEFAULT_MAX_FRAME).map_err(frame_failure)?;
        let headed = Instant::now();
        let mut payload = vec![0u8; declared];
        self.reader
            .read_exact(&mut payload)
            .map_err(|_| Failure::Io)?;
        let text = String::from_utf8(payload).map_err(|_| Failure::Protocol)?;
        let read = Instant::now();
        let frame = match json::parse(&text) {
            Ok(frame @ Json::Obj(_)) => frame,
            _ => return Err(Failure::Protocol),
        };
        let response = Response::from_json(&frame).map_err(|_| Failure::Protocol);
        let decoded = Instant::now();
        times.wait = us(headed - sent);
        times.read = us(read - headed);
        times.decode = us(decoded - read);
        times.bytes = declared + 4;
        response
    }
}

/// One closed-loop client: at most one open connection, replaced every
/// `session_len` operations (never when 0).
pub struct Client {
    addr: SocketAddr,
    session_len: usize,
    conn: Option<Conn>,
    served: usize,
    /// Every connect this client made, in microseconds.
    pub connects_us: Vec<f64>,
}

impl Client {
    /// A client of the server at `addr`; it connects on first use.
    pub fn new(addr: SocketAddr, session_len: usize) -> Client {
        Client {
            addr,
            session_len,
            conn: None,
            served: 0,
            connects_us: Vec::new(),
        }
    }

    /// Sends one request and reads its response, connecting first when
    /// the session is over. A typed server error is a failure.
    pub fn call(
        &mut self,
        request: &Request,
        traced: bool,
    ) -> (Result<Response, Failure>, WireTimes) {
        let start = Instant::now();
        let mut times = WireTimes::default();
        if self.session_len > 0 && self.served >= self.session_len {
            self.conn = None;
        }
        if self.conn.is_none() {
            match Conn::open(self.addr) {
                Ok(conn) => self.conn = Some(conn),
                Err(_) => {
                    times.total = us(start.elapsed());
                    return (Err(Failure::Io), times);
                }
            }
            self.served = 0;
            times.connect = us(start.elapsed());
            self.connects_us.push(times.connect);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let result = if traced {
            conn.roundtrip_traced(request, &mut times)
        } else {
            conn.roundtrip(request)
        };
        times.total = us(start.elapsed());
        self.served += 1;
        let result = match result {
            Ok(Response::Error(e)) => Err(Failure::Server(e.code)),
            other => other,
        };
        if let Err(f) = result {
            if f.poisons() {
                self.conn = None;
            }
        }
        (result, times)
    }
}

/// Attempts and failures of one operation type.
#[derive(Debug, Clone, Default)]
pub struct Count {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed, any reason.
    pub failed: u64,
    /// Failures by code.
    pub codes: BTreeMap<&'static str, u64>,
}

/// Failure accounting per operation type.
#[derive(Debug, Clone, Default)]
pub struct Tally(pub BTreeMap<&'static str, Count>);

impl Tally {
    /// Counts one attempt of `op`, failed when `failure` is set.
    pub fn note(&mut self, op: &'static str, failure: Option<Failure>) {
        let count = self.0.entry(op).or_default();
        count.attempted += 1;
        if let Some(f) = failure {
            count.failed += 1;
            *count.codes.entry(f.code()).or_default() += 1;
        }
    }

    /// Turns an already-counted success of `op` into a failure.
    pub fn fail(&mut self, op: &'static str, failure: Failure) {
        let count = self.0.entry(op).or_default();
        count.failed += 1;
        *count.codes.entry(failure.code()).or_default() += 1;
    }

    /// Attempts and failures over every operation type.
    pub fn totals(&self) -> (u64, u64) {
        self.0
            .values()
            .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
    }

    /// One report line per operation type.
    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(op, c)| {
                let codes: Vec<String> = c.codes.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!(
                    "ops {op}: attempted {} failed {}{}",
                    c.attempted,
                    c.failed,
                    if codes.is_empty() {
                        String::new()
                    } else {
                        format!(" ({})", codes.join(", "))
                    }
                )
            })
            .collect()
    }
}
