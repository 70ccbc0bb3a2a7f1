//! A unified, thread-safe **acquire/release** front-end over every
//! renaming algorithm in the workspace.
//!
//! The paper's objects are long-lived loose-renaming primitives, but
//! their raw APIs are simulation-shaped: per-algorithm `get_name`
//! methods, hand-managed per-thread sessions and RNGs. This crate turns
//! them into one ergonomic service, the way practical renaming
//! front-ends (cf. the LevelArray line of work) expose the primitive:
//!
//! * [`Namespace`] — the interchangeable-backend trait (`acquire`,
//!   `release`, `namespace_size`, `capacity`), implemented by
//!   `Rebatching`, `AdaptiveRebatching`, `FastAdaptiveRebatching` and
//!   all four baselines, over hardware atomics **and** the
//!   register-based tournament substrate;
//! * [`NameGuard`] — RAII ownership of an acquired name: drop it and
//!   the name is recycled;
//! * [`NameService`] — the thread-safe front-end, built via
//!   [`NameServiceBuilder`]: internal per-worker session pooling and
//!   [`renaming_core::FastRng`] streams, so callers just write
//!   `let guard = service.acquire()?` from any thread, or take a
//!   whole batch of raw names in one sweep with
//!   [`NameService::acquire_many`] (what the `renaming-net` server's
//!   pipelined bursts use);
//! * [`ServiceMetrics`] — opt-in latency histograms
//!   ([`NameServiceBuilder::metrics`]): fixed-bucket log₂
//!   [`LatencyHistogram`]s with relaxed-counter increments, zero cost
//!   when disabled, exported over the wire by `renaming-net`'s `Stats`
//!   endpoint.
//!
//! # Quickstart
//!
//! ```
//! use renaming_service::{Algorithm, NameService, SeedPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = NameService::builder(Algorithm::Rebatching, 64)
//!     .seed_policy(SeedPolicy::Fixed(42))
//!     .build()?;
//!
//! std::thread::scope(|scope| {
//!     for _ in 0..8 {
//!         scope.spawn(|| {
//!             let guard = service.acquire().expect("within capacity");
//!             // `guard.value()` is a dense id unique among live guards.
//!             assert!(guard.value() < service.namespace_size());
//!             // dropped here -> name recycled
//!         });
//!     }
//! });
//! assert_eq!(service.held(), 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod builder;
mod combiner;
mod guard;
mod metrics;
mod namespace;
mod oracle;
mod pool;
mod service;
mod slots;
mod sync_shim;
mod wait;

#[cfg(all(test, renaming_model))]
mod model_tests;

pub use builder::{AcquireMode, Algorithm, NameServiceBuilder, TasBackend};
pub use guard::NameGuard;
pub use metrics::{
    HistogramSnapshot, LatencyHistogram, MetricsSnapshot, ServiceMetrics, HISTOGRAM_BUCKETS,
};
pub use namespace::{CountingSlot, Namespace, PooledSession, ServiceBackend, TournamentSlot};
pub use oracle::OracleVerdict;
pub use pool::PoolKind;
pub use service::{NameService, SeedPolicy};

// Re-export the vocabulary types a service caller needs, so depending on
// `renaming-core` directly is optional.
pub use renaming_core::{Epsilon, Name, RenamingError};

// Re-export the oracle's own vocabulary so callers consuming a verdict
// (tests, the wire server's `Stats`) need not depend on
// `renaming-oracle` directly.
pub use renaming_oracle::{
    History, HistoryReport, Oracle, OracleSummary, SnapshotReport, Violation, WorkerCounts,
};
