//! Blocking client for the serve protocol.
//!
//! One [`ServeClient`] wraps one TCP connection and issues one request at
//! a time (the response to frame *n* is read before frame *n+1* is sent),
//! which also gives per-connection request ordering on the server. The
//! typed convenience methods turn server `Error` frames into
//! [`ClientError::Server`]; [`request`](ServeClient::request) returns the
//! raw [`Response`] for callers (like the load generator) that want to
//! count refusals instead of treating them as failures.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::protocol::{
    decode_response, encode, ErrorKind, Request, Response, WireDelta, WireStats,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, framing).
    Frame(FrameError),
    /// The server's reply did not decode, or had an unexpected variant.
    BadReply {
        /// What went wrong with the reply.
        detail: String,
    },
    /// The server answered with a typed error frame.
    Server {
        /// Coarse classification (retry / back off / give up).
        kind: ErrorKind,
        /// Stable machine-readable cause.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport error: {e}"),
            ClientError::BadReply { detail } => write!(f, "bad reply: {detail}"),
            ClientError::Server {
                kind,
                code,
                message,
            } => {
                write!(f, "server error ({kind:?}/{code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// A solved allocation in client-side form.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReply {
    /// Job ids of the solve, in the session's row order; rows of
    /// `aggregates` and `split` are in this order.
    pub job_ids: Vec<u64>,
    /// Per-job aggregate allocations.
    pub aggregates: Vec<f64>,
    /// Per-job per-site allocations.
    pub split: Vec<Vec<f64>>,
    /// Whether the server actually re-solved for this request.
    pub resolved: bool,
}

/// A blocking connection to an `amf-serve` server.
pub struct ServeClient {
    stream: TcpStream,
    max_frame: usize,
}

impl ServeClient {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(ServeClient {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Send one request and read its reply (error frames included).
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode(req)).map_err(FrameError::Io)?;
        let payload =
            read_frame(&mut self.stream, self.max_frame)?.ok_or_else(|| ClientError::BadReply {
                detail: "server closed before replying".to_string(),
            })?;
        decode_response(&payload).map_err(|e| ClientError::BadReply {
            detail: e.to_string(),
        })
    }

    fn expect<T>(
        &mut self,
        req: &Request,
        pick: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        match self.request(req)? {
            Response::Error {
                kind,
                code,
                message,
            } => Err(ClientError::Server {
                kind,
                code,
                message,
            }),
            other => pick(other).map_err(|resp| ClientError::BadReply {
                detail: format!("unexpected response {resp:?}"),
            }),
        }
    }

    /// Create a session for `tenant` (`mode`: `"plain"`, `"enhanced"`, or
    /// `None` for the server default).
    pub fn create_session(
        &mut self,
        tenant: &str,
        capacities: &[f64],
        mode: Option<&str>,
    ) -> Result<usize, ClientError> {
        self.expect(
            &Request::CreateSession {
                tenant: tenant.to_string(),
                capacities: capacities.to_vec(),
                mode: mode.map(str::to_string),
            },
            |resp| match resp {
                Response::Created { sites, .. } => Ok(sites),
                other => Err(other),
            },
        )
    }

    /// Apply deltas to the tenant's session (the server solves at the next
    /// `Solve`). Returns `(accepted, pending)`.
    pub fn apply_deltas(
        &mut self,
        tenant: &str,
        deltas: &[WireDelta],
    ) -> Result<(usize, usize), ClientError> {
        self.expect(
            &Request::ApplyDeltas {
                tenant: tenant.to_string(),
                deltas: deltas.to_vec(),
            },
            |resp| match resp {
                Response::Applied { accepted, pending } => Ok((accepted, pending)),
                other => Err(other),
            },
        )
    }

    /// Solve for the deltas applied since the last solve.
    pub fn solve(&mut self, tenant: &str) -> Result<SolveReply, ClientError> {
        self.expect(
            &Request::Solve {
                tenant: tenant.to_string(),
            },
            |resp| match resp {
                Response::Solved {
                    job_ids,
                    aggregates,
                    split,
                    resolved,
                } => Ok(SolveReply {
                    job_ids,
                    aggregates,
                    split,
                    resolved,
                }),
                other => Err(other),
            },
        )
    }

    /// Fetch the last solved allocation without re-solving.
    pub fn get_allocation(&mut self, tenant: &str) -> Result<SolveReply, ClientError> {
        self.expect(
            &Request::GetAllocation {
                tenant: tenant.to_string(),
            },
            |resp| match resp {
                Response::Solved {
                    job_ids,
                    aggregates,
                    split,
                    resolved,
                } => Ok(SolveReply {
                    job_ids,
                    aggregates,
                    split,
                    resolved,
                }),
                other => Err(other),
            },
        )
    }

    /// Fetch server-wide statistics.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        self.expect(&Request::Stats, |resp| match resp {
            Response::Stats { stats } => Ok(stats),
            other => Err(other),
        })
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Shutdown, |resp| match resp {
            Response::ShuttingDown => Ok(()),
            other => Err(other),
        })
    }
}
