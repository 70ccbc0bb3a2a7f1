//! A small blocking client for the wire protocol.
//!
//! One [`Client`] is one connection — and therefore one server-side
//! session: names it acquires are released by the server if the
//! connection drops. Calls are synchronous request/response except
//! [`Client::acquire_many`], which pipelines a batch of acquires in one
//! flush (the shape the server's handler serves with a single
//! `NameService::acquire_many` batch).

use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde_json::Value;

use crate::protocol::{
    read_frame, write_frame, Request, Response, Status, WireError, MAX_FRAME_LEN,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure — the connection is no longer
    /// usable.
    Wire(WireError),
    /// The server answered with an error status (e.g.
    /// [`Status::Exhausted`]); the connection remains usable.
    Server {
        /// The wire status byte, decoded.
        status: Status,
        /// The server's human-readable detail.
        detail: String,
    },
    /// The server closed the connection where a response was expected.
    Closed,
    /// The server answered with a well-formed response of the wrong
    /// kind for the request — a server bug, not a transport failure.
    Unexpected(&'static str),
}

impl ClientError {
    /// Whether this is the graceful "namespace full" answer.
    pub fn is_exhausted(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                status: Status::Exhausted,
                ..
            }
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server { status, detail } => write!(f, "server: {status}: {detail}"),
            ClientError::Closed => f.write_str("server closed the connection"),
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &request.encode())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.reader, MAX_FRAME_LEN)? {
            Some(payload) => Ok(Response::decode(&payload).map_err(WireError::Protocol)?),
            None => Err(ClientError::Closed),
        }
    }

    /// One synchronous round trip: send, flush, read one response.
    ///
    /// # Errors
    ///
    /// Transport errors only — a server-side error *status* comes back
    /// as `Ok(Response::Error { .. })` here; the typed helpers
    /// ([`acquire`](Self::acquire) etc.) lift it into
    /// [`ClientError::Server`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.writer.flush()?;
        self.recv()
    }

    /// Acquires one name.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`Status::Exhausted`] when the
    /// namespace is full (check [`ClientError::is_exhausted`]);
    /// transport errors otherwise.
    pub fn acquire(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::Acquire)? {
            Response::Name(name) => Ok(name),
            Response::Error { status, detail } => Err(ClientError::Server { status, detail }),
            _ => Err(ClientError::Unexpected("acquire")),
        }
    }

    /// Pipelines `count` acquires: writes every request, flushes once,
    /// then reads every response. The server drives the whole batch
    /// through the combiner together.
    ///
    /// # Errors
    ///
    /// The outer error is transport-level; per-request outcomes (a name
    /// or e.g. `Exhausted`) come back in the vector, in request order.
    pub fn acquire_many(
        &mut self,
        count: usize,
    ) -> Result<Vec<Result<u64, ClientError>>, ClientError> {
        for _ in 0..count {
            self.send(&Request::Acquire)?;
        }
        self.writer.flush()?;
        let mut outcomes = Vec::with_capacity(count);
        for _ in 0..count {
            outcomes.push(match self.recv()? {
                Response::Name(name) => Ok(name),
                Response::Error { status, detail } => Err(ClientError::Server { status, detail }),
                _ => Err(ClientError::Unexpected("acquire")),
            });
        }
        Ok(outcomes)
    }

    /// Releases a name previously acquired **on this connection**.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`Status::NotHeld`] if this
    /// connection does not hold the name.
    pub fn release(&mut self, name: u64) -> Result<(), ClientError> {
        match self.call(&Request::Release { name })? {
            Response::Released => Ok(()),
            Response::Error { status, detail } => Err(ClientError::Server { status, detail }),
            _ => Err(ClientError::Unexpected("release")),
        }
    }

    /// Fetches the server's live statistics.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ClientError::Server`] statuses.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(value) => Ok(value),
            Response::Error { status, detail } => Err(ClientError::Server { status, detail }),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }

    /// Asks the server to shut down gracefully; returns once the server
    /// acknowledged.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ClientError::Server`] statuses.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { status, detail } => Err(ClientError::Server { status, detail }),
            _ => Err(ClientError::Unexpected("shutdown")),
        }
    }
}
