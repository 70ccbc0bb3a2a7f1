//! The network front-end: renaming as a wire service.
//!
//! The ROADMAP's north star is a renaming *service* — a long-lived
//! process other machines lease names from, the deployment shape the
//! LevelArray line of work motivates (connection/thread slot
//! allocation). Everything below this crate stops at the in-process
//! [`NameService`](renaming_service::NameService) boundary; this crate
//! carries acquire/release across a socket:
//!
//! * [`protocol`] — the frame codec: length-prefixed binary frames, a
//!   versioned payload header, and a [`Status`] byte catalog pinned to
//!   [`RenamingError::code`](renaming_core::RenamingError::code) so the
//!   wire and the library enum cannot drift;
//! * [`server`] — [`NameServer`]: a `std::net::TcpListener` front-end
//!   with a bounded connection-handler pool, per-connection sessions
//!   (a dropped connection releases every name it held — RAII over the
//!   wire), each run of pipelined acquires served by one
//!   [`NameService::acquire_many`](renaming_service::NameService::acquire_many)
//!   batch, and a `Stats` endpoint serving live occupancy, worker counts and
//!   latency histograms as JSON;
//! * [`client`] — [`Client`]: a small blocking client speaking the
//!   protocol, with pipelined batch acquire;
//! * [`loadgen`] — the load-generator library behind the
//!   `renaming-loadgen` bin and bench experiment 19: sweeps
//!   connections × churn against a live server and summarizes
//!   client-observed latency through the workspace's interpolated
//!   [`Summary::quantile`](renaming_analysis::Summary::quantile) path.
//!
//! Everything is std-only — no async runtime, no network crates; the
//! vendored dependency set stays exactly as it is. Blocking sockets
//! plus the service's own flat-combining batching turn out to be all a
//! renaming server needs: one handler thread drains a connection's
//! pipelined requests and serves their acquires as *one* batch sweep.
//!
//! # Quickstart
//!
//! ```
//! use renaming_net::{Client, NameServer, ServerConfig};
//! use renaming_service::{AcquireMode, Algorithm, NameService};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = NameService::builder(Algorithm::Rebatching, 16)
//!     .acquire_mode(AcquireMode::Combining)
//!     .metrics(true)
//!     .build()?;
//! let handle = NameServer::bind("127.0.0.1:0", service, ServerConfig::default())?.spawn()?;
//!
//! let mut client = Client::connect(handle.addr())?;
//! let name = client.acquire()?;
//! let stats = client.stats()?;
//! let occupancy = stats.get("service").and_then(|s| s.get("occupancy"));
//! assert_eq!(occupancy.and_then(|o| o.as_u64()), Some(1));
//! client.release(name)?;
//! client.shutdown()?;
//! handle.join()?;
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use loadgen::{LatencySummary, LoadConfig, LoadReport};
pub use protocol::{
    read_frame, write_frame, ProtocolError, Request, Response, Status, WireError, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use server::{NameServer, ServerConfig, ServerHandle};
