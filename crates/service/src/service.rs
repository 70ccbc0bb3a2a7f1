//! The [`NameService`] front-end: pooled sessions, per-stream RNGs, RAII
//! guards.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::SeedableRng;

use renaming_core::{FastRng, Name, RenamingError};

use renaming_oracle::Oracle;

use crate::builder::{AcquireMode, NameServiceBuilder};
use crate::combiner::Combiner;
use crate::guard::NameGuard;
use crate::metrics::ServiceMetrics;
use crate::oracle::OracleVerdict;
use crate::namespace::{PooledSession, ServiceBackend};
use crate::pool::{MutexPool, PoolKind, ShardedPool};
use crate::Algorithm;

/// How [`NameService`] seeds the per-worker coin-flip streams.
///
/// # Example
///
/// Fixed seeding makes single-threaded acquisition sequences a pure
/// function of the builder configuration:
///
/// ```
/// use renaming_service::{Algorithm, NameService, SeedPolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let run = || -> Result<Vec<usize>, Box<dyn std::error::Error>> {
///     let service = NameService::builder(Algorithm::Rebatching, 16)
///         .seed_policy(SeedPolicy::Fixed(42))
///         .build()?;
///     Ok((0..10).map(|_| service.acquire().map(|g| g.value()).expect("name")).collect())
/// };
/// assert_eq!(run()?, run()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedPolicy {
    /// Derive stream `i`'s seed deterministically from this base via a
    /// SplitMix64 increment. A service used from one thread at a time
    /// then produces a reproducible acquisition sequence — the mode
    /// experiments and tests want.
    Fixed(u64),
    /// Seed each stream from the system clock and a process-wide
    /// counter: distinct streams per service instance and run.
    Entropy,
}

impl SeedPolicy {
    /// The seed of worker stream `stream`.
    fn stream_seed(self, stream: u64) -> u64 {
        match self {
            // The SplitMix64 increment keeps distinct streams far apart
            // in seed space even for consecutive stream ids.
            SeedPolicy::Fixed(base) => {
                base.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            }
            SeedPolicy::Entropy => {
                static COUNTER: AtomicU64 = AtomicU64::new(0);
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0);
                nanos
                    ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ COUNTER.fetch_add(1, Ordering::Relaxed).rotate_left(32)
            }
        }
    }
}

/// One pooled worker: a reusable machine session plus its private RNG
/// stream. The stream id (and therefore the RNG seed) is assigned once,
/// at construction — never at checkout — so which pool slot a worker
/// lands in has no effect on the names it produces.
///
/// `pub(crate)` so the combining front-end can check one out and drive
/// its session through a whole batch.
pub(crate) struct Worker {
    pub(crate) session: Box<dyn PooledSession>,
    pub(crate) rng: FastRng,
}

/// The checkout pool: either the sharded lock-free pool (default) or the
/// original mutex-guarded vector (see [`PoolKind`]).
// Under the model cfg the variants' sizes diverge (the model Mutex
// carries instrumentation state); boxing would penalize the normal
// build for a test-only configuration.
#[cfg_attr(renaming_model, allow(clippy::large_enum_variant))]
enum SessionPool {
    Sharded(ShardedPool<Worker>),
    Mutex(MutexPool<Worker>),
}

impl SessionPool {
    fn checkout(&self) -> Option<Box<Worker>> {
        match self {
            SessionPool::Sharded(pool) => pool.checkout(),
            SessionPool::Mutex(pool) => pool.checkout(),
        }
    }

    fn checkin(&self, worker: Box<Worker>) {
        match self {
            SessionPool::Sharded(pool) => pool.checkin(worker),
            SessionPool::Mutex(pool) => pool.checkin(worker),
        }
    }

    fn pooled(&self) -> usize {
        match self {
            SessionPool::Sharded(pool) => pool.pooled(),
            SessionPool::Mutex(pool) => pool.pooled(),
        }
    }

    fn retired(&self) -> u64 {
        match self {
            SessionPool::Sharded(pool) => pool.retired(),
            SessionPool::Mutex(_) => 0,
        }
    }

    fn kind(&self) -> PoolKind {
        match self {
            SessionPool::Sharded(_) => PoolKind::Sharded,
            SessionPool::Mutex(_) => PoolKind::Mutex,
        }
    }

    fn shards(&self) -> Option<usize> {
        match self {
            SessionPool::Sharded(pool) => Some(pool.shards()),
            SessionPool::Mutex(_) => None,
        }
    }
}

/// A thread-safe, long-lived renaming service: `acquire` from any
/// thread, get an RAII [`NameGuard`], drop it to recycle the name.
///
/// The service wraps one [`ServiceBackend`] (any of the paper's
/// algorithms or the baselines, over hardware atomics or the
/// register-based tournament — see [`NameServiceBuilder`]) and owns a
/// pool of per-worker [`PooledSession`]s with private [`FastRng`]
/// streams. An acquire checks a worker out of the pool (creating one
/// only when the pool is empty, so the steady-state worker count tracks
/// the peak concurrency), drives its reusable machine, and checks it
/// back in: after warm-up, no machine construction, no RNG construction
/// and no allocation per operation — callers just write
/// `let guard = service.acquire()?`.
///
/// By default the pool is the sharded lock-free one
/// ([`PoolKind::Sharded`]): checkout is an atomic `swap` on a
/// cache-line-padded, thread-hinted shard slot, with work-stealing from
/// neighboring shards, so the acquire path has no global lock at all.
///
/// # Example
///
/// ```
/// use renaming_service::{Algorithm, NameService};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = NameService::builder(Algorithm::Rebatching, 64).build()?;
/// let guard = service.acquire()?;
/// assert!(guard.value() < service.namespace_size());
/// drop(guard); // name recycled
/// assert_eq!(service.held(), 0);
/// # Ok(())
/// # }
/// ```
pub struct NameService {
    backend: Arc<dyn ServiceBackend>,
    pool: SessionPool,
    seed_policy: SeedPolicy,
    /// Next worker stream id; also the number of workers ever created.
    streams: AtomicU64,
    /// `Some` iff the builder selected [`AcquireMode::Combining`]: the
    /// flat-combining front-end acquires route through. `None` is the
    /// direct path, byte-identical to pre-combining releases.
    combiner: Option<Combiner>,
    /// `Some` iff the builder enabled latency metrics
    /// ([`NameServiceBuilder::metrics`]). `None` — the default — is the
    /// zero-cost disabled state: the hot paths pay one never-taken
    /// branch and no clock reads.
    metrics: Option<Arc<ServiceMetrics>>,
    /// `Some` iff the builder enabled the concurrency oracle
    /// ([`NameServiceBuilder::oracle`]). Same zero-cost-when-off
    /// discipline as `metrics`: disabled is one never-taken branch.
    oracle: Option<Arc<Oracle>>,
}

impl NameService {
    /// Starts building a service for `capacity` concurrent holders on
    /// `algorithm` (atomic TAS backend, paper-default parameters).
    pub fn builder(algorithm: Algorithm, capacity: usize) -> NameServiceBuilder {
        NameServiceBuilder::new(algorithm, capacity)
    }

    /// Wraps an explicit backend — the escape hatch for backends the
    /// [`NameServiceBuilder`] enums do not cover (custom probe
    /// schedules, counting instrumentation, hand-built objects). Uses
    /// the default sharded pool; see
    /// [`with_backend_pool`](Self::with_backend_pool) to choose.
    pub fn with_backend(backend: Arc<dyn ServiceBackend>, seed_policy: SeedPolicy) -> Self {
        Self::with_backend_pool(
            backend,
            seed_policy,
            PoolKind::Sharded,
            None,
            AcquireMode::Direct,
        )
    }

    /// As [`with_backend`](Self::with_backend), additionally choosing
    /// the session-pool implementation, (for the sharded pool) the
    /// shard count, and the acquire front-end. `shards: None` uses one
    /// shard per hardware thread.
    pub fn with_backend_pool(
        backend: Arc<dyn ServiceBackend>,
        seed_policy: SeedPolicy,
        pool: PoolKind,
        shards: Option<usize>,
        acquire_mode: AcquireMode,
    ) -> Self {
        let pool = match pool {
            PoolKind::Sharded => SessionPool::Sharded(ShardedPool::new(
                shards.unwrap_or_else(ShardedPool::<Worker>::default_shards),
            )),
            PoolKind::Mutex => SessionPool::Mutex(MutexPool::new()),
        };
        Self {
            backend,
            pool,
            seed_policy,
            streams: AtomicU64::new(0),
            combiner: (acquire_mode == AcquireMode::Combining).then(Combiner::new),
            metrics: None,
            oracle: None,
        }
    }

    /// Attaches latency metrics — the builder's `metrics(true)` hook.
    /// Takes `&mut self` so it can only happen before the service is
    /// shared, keeping the enabled/disabled decision fixed for the
    /// service's lifetime (the hot path reads it branch-predictably).
    pub(crate) fn enable_metrics(&mut self) {
        self.metrics = Some(Arc::new(ServiceMetrics::new()));
    }

    /// The latency metrics, if the service was built with
    /// [`NameServiceBuilder::metrics`]`(true)` — `None` means disabled
    /// (the default; the acquire/release paths then read no clocks).
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = NameService::builder(Algorithm::Rebatching, 8)
    ///     .metrics(true)
    ///     .build()?;
    /// drop(service.acquire()?);
    /// let snap = service.metrics().expect("enabled").snapshot();
    /// assert_eq!(snap.acquire.count(), 1);
    /// assert_eq!(snap.release.count(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn metrics(&self) -> Option<&Arc<ServiceMetrics>> {
        self.metrics.as_ref()
    }

    /// Attaches the concurrency oracle — the builder's `oracle(true)`
    /// hook, public so [`with_backend`](Self::with_backend) escape-hatch
    /// services (custom backends the builder enums do not cover) can be
    /// instrumented too. Takes `&mut self` for the same reason as
    /// `enable_metrics`: the enabled/disabled decision is fixed before
    /// the service is shared.
    pub fn enable_oracle(&mut self) {
        self.oracle = Some(Arc::new(Oracle::new(
            self.backend.namespace_size(),
            self.backend.capacity(),
        )));
    }

    /// The concurrency oracle, if the service was built with
    /// [`NameServiceBuilder::oracle`]`(true)` — `None` means disabled
    /// (the default; the acquire/release paths then record nothing).
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = NameService::builder(Algorithm::Rebatching, 8)
    ///     .oracle(true)
    ///     .build()?;
    /// drop(service.acquire()?);
    /// let report = service.oracle().expect("enabled").verdict();
    /// assert!(report.is_clean() && report.drained());
    /// # Ok(())
    /// # }
    /// ```
    pub fn oracle(&self) -> Option<&Arc<Oracle>> {
        self.oracle.as_ref()
    }

    /// Checks the recorded history *and* the service's own quiescent
    /// counters in one verdict: the history checker's report, the
    /// worker conservation law, and agreement between the history's
    /// live count and the backend's [`held`](Self::held). `None` if the
    /// oracle is disabled. Meaningful at quiescence (all acquiring
    /// threads joined); see [`OracleVerdict`].
    pub fn oracle_verdict(&self) -> Option<OracleVerdict> {
        let oracle = self.oracle.as_ref()?;
        Some(OracleVerdict {
            history: oracle.verdict(),
            workers: renaming_oracle::WorkerCounts {
                created: self.worker_count() as u64,
                pooled: self.pooled_workers() as u64,
                retired: self.retired_workers(),
                resident: self.resident_workers() as u64,
            },
            held: self.held(),
        })
    }

    /// Acquires a unique name, returning an RAII guard that releases it
    /// on drop.
    ///
    /// Callable from any number of threads concurrently (up to
    /// [`capacity`](Self::capacity) names may be held at once).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] when the namespace
    /// cannot hold another name.
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = NameService::builder(Algorithm::FastAdaptive, 8).build()?;
    /// let a = service.acquire()?;
    /// let b = service.acquire()?;
    /// assert_ne!(a.value(), b.value(), "live guards hold distinct names");
    /// # Ok(())
    /// # }
    /// ```
    pub fn acquire(&self) -> Result<NameGuard<'_>, RenamingError> {
        self.acquire_name().map(|name| NameGuard::new(self, name))
    }

    /// Acquires a raw name without a guard. The caller owns it and is
    /// responsible for an eventual [`release_name`](Self::release_name).
    ///
    /// # Errors
    ///
    /// As for [`acquire`](Self::acquire).
    pub fn acquire_name(&self) -> Result<Name, RenamingError> {
        // Oracle disabled (the default): one never-taken branch, no
        // recording — the zero-cost-when-disabled discipline.
        let Some(oracle) = &self.oracle else {
            return self.acquire_name_timed();
        };
        oracle.acquire_start();
        let result = self.acquire_name_timed();
        match &result {
            Ok(name) => oracle.acquire_win(name.value()),
            Err(_) => oracle.acquire_fail(),
        }
        result
    }

    fn acquire_name_timed(&self) -> Result<Name, RenamingError> {
        // Metrics disabled (the default): one never-taken branch, no
        // clock reads — the zero-cost-when-disabled discipline.
        let Some(metrics) = &self.metrics else {
            return self.acquire_name_inner();
        };
        let start = std::time::Instant::now();
        let result = self.acquire_name_inner();
        metrics.acquire.record(start.elapsed());
        result
    }

    fn acquire_name_inner(&self) -> Result<Name, RenamingError> {
        match &self.combiner {
            Some(combiner) => combiner.acquire(self),
            None => self.acquire_direct(),
        }
    }

    /// The direct acquire path: check a worker out, drive one
    /// acquisition, check it back in. This is the whole of
    /// [`AcquireMode::Direct`] and the combining front-end's fallback
    /// when every request slot is taken.
    pub(crate) fn acquire_direct(&self) -> Result<Name, RenamingError> {
        let mut worker = self.checkout();
        let result = worker.session.acquire(&mut worker.rng);
        self.pool.checkin(worker);
        result
    }

    /// Acquires `count` raw names in one batched sweep, appending them
    /// to `out` — the paper's `BatchCall` shape for a caller that holds
    /// several requests at once (the wire server's pipelined bursts).
    /// The caller owns every name appended and is responsible for its
    /// eventual [`release_name`](Self::release_name).
    ///
    /// In [`AcquireMode::Direct`] this is one pool checkout, one
    /// [`PooledSession::acquire_batch`], one checkin. In
    /// [`AcquireMode::Combining`] an uncontended caller takes the
    /// combiner role and serves the batch on the resident session (then
    /// drains whatever queued behind it); a contended one falls back to
    /// per-name combining acquires. A batch of one drives the session
    /// exactly as [`acquire_name`](Self::acquire_name) does, so
    /// fixed-seed single-threaded sequences are the same either way.
    ///
    /// With metrics on, every name counts as one acquire sample of the
    /// batch's wall time; with the oracle on, every name records its own
    /// start and win (or fail).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] when the namespace
    /// cannot hold the whole batch. The names already won stay acquired
    /// and are left in `out`.
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = NameService::builder(Algorithm::Rebatching, 8).build()?;
    /// let mut names = Vec::new();
    /// service.acquire_many(4, &mut names)?;
    /// assert_eq!(service.held(), 4);
    /// for name in names {
    ///     service.release_name(name)?;
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn acquire_many(&self, count: usize, out: &mut Vec<Name>) -> Result<(), RenamingError> {
        let first = out.len();
        if let Some(oracle) = &self.oracle {
            for _ in 0..count {
                oracle.acquire_start();
            }
        }
        let start = self.metrics.is_some().then(std::time::Instant::now);
        let result = match &self.combiner {
            Some(combiner) => combiner.acquire_many(self, count, out),
            None => {
                let mut worker = self.checkout();
                let result = worker.session.acquire_batch(count, &mut worker.rng, out);
                self.pool.checkin(worker);
                result
            }
        };
        if let (Some(metrics), Some(start)) = (&self.metrics, start) {
            let elapsed = start.elapsed();
            for _ in 0..count {
                metrics.acquire.record(elapsed);
            }
        }
        if let Some(oracle) = &self.oracle {
            let won = &out[first..];
            for name in won {
                oracle.acquire_win(name.value());
            }
            for _ in won.len()..count {
                oracle.acquire_fail();
            }
        }
        result
    }

    /// Releases a raw name previously obtained from
    /// [`acquire_name`](Self::acquire_name) (or detached via
    /// [`NameGuard::into_name`]).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::ReleaseUnsupported`] if a custom
    /// backend is one-shot; every built-in backend (atomic and the
    /// epoch-resettable tournament) accepts the release.
    ///
    /// # Panics
    ///
    /// May panic if `name` is not currently held — a caller bug.
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = NameService::builder(Algorithm::Rebatching, 4).build()?;
    /// let name = service.acquire_name()?;
    /// assert_eq!(service.held(), 1);
    /// service.release_name(name)?;
    /// assert_eq!(service.held(), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn release_name(&self, name: Name) -> Result<(), RenamingError> {
        // The oracle must record *before* the backend resets the slot:
        // the published clock has to be visible to the name's next
        // winner (see the channel contract in `renaming_oracle`).
        if let Some(oracle) = &self.oracle {
            oracle.release(name.value());
        }
        self.release_name_timed(name)
    }

    /// The RAII release path: identical to
    /// [`release_name`](Self::release_name) except the oracle records
    /// the return as a `GuardDrop` event, so histories distinguish
    /// explicit releases from guard drops.
    pub(crate) fn release_name_from_guard(&self, name: Name) -> Result<(), RenamingError> {
        if let Some(oracle) = &self.oracle {
            oracle.guard_drop(name.value());
        }
        self.release_name_timed(name)
    }

    fn release_name_timed(&self, name: Name) -> Result<(), RenamingError> {
        let Some(metrics) = &self.metrics else {
            return self.backend.release(name);
        };
        let start = std::time::Instant::now();
        let result = self.backend.release(name);
        metrics.release.record(start.elapsed());
        result
    }

    /// The namespace size `m`: every acquired name is in `0..m`.
    pub fn namespace_size(&self) -> usize {
        self.backend.namespace_size()
    }

    /// The maximum number of simultaneously held names.
    pub fn capacity(&self) -> usize {
        self.backend.capacity()
    }

    /// Names currently held. A relaxed-counter read: intentionally
    /// approximate while acquires/releases are in flight (it sits on the
    /// hot path), exact once the service is quiescent.
    pub fn held(&self) -> usize {
        self.backend.held()
    }

    /// The backing algorithm's label (e.g. `"rebatching"`).
    pub fn algorithm(&self) -> &'static str {
        self.backend.algorithm()
    }

    /// Whether dropping a [`NameGuard`] actually recycles the name on
    /// this backend. `true` for every backend the builder can produce;
    /// only a custom one-shot [`ServiceBackend`] reports `false`.
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService, TasBackend};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let atomic = NameService::builder(Algorithm::Rebatching, 4).build()?;
    /// assert!(atomic.supports_release());
    ///
    /// // The register tournament recycles too (epoch-stamped reset).
    /// let tournament = NameService::builder(Algorithm::Rebatching, 4)
    ///     .tas_backend(TasBackend::Tournament)
    ///     .build()?;
    /// assert!(tournament.supports_release());
    /// # Ok(())
    /// # }
    /// ```
    pub fn supports_release(&self) -> bool {
        self.backend.supports_release()
    }

    /// Workers (sessions + RNG streams) created so far. Tracks the peak
    /// number of concurrent acquires; under sustained overflow of a full
    /// sharded pool it can exceed it (surplus idle workers are retired
    /// rather than pooled without bound).
    ///
    /// The load is `Acquire`, pairing with the `AcqRel` increment in the
    /// checkout slow path, so the count is exact once the service is
    /// quiescent (e.g. after joining all acquiring threads — the
    /// conservation law `worker_count == pooled_workers +
    /// retired_workers + resident_workers` the torture tests assert).
    /// While acquires are in flight it is a snapshot, advisory like
    /// every concurrent counter.
    pub fn worker_count(&self) -> usize {
        self.streams.load(Ordering::Acquire) as usize
    }

    /// Workers currently idle in the checkout pool (advisory under
    /// concurrency).
    pub fn pooled_workers(&self) -> usize {
        self.pool.pooled()
    }

    /// Workers the sharded pool has dropped because every slot was
    /// already occupied at check-in (always `0` for the mutex pool,
    /// which grows without bound instead). When the service is idle,
    /// `worker_count() == pooled_workers() + retired_workers() +
    /// resident_workers()` — the no-leak conservation law the torture
    /// tests assert.
    pub fn retired_workers(&self) -> u64 {
        self.pool.retired()
    }

    /// Workers held resident by the combining front-end's combiner role
    /// (`0` or `1`; always `0` in [`AcquireMode::Direct`]). The resident
    /// session travels with the combiner lock instead of cycling through
    /// the pool — see the worker conservation law on
    /// [`retired_workers`](Self::retired_workers).
    pub fn resident_workers(&self) -> usize {
        self.combiner.as_ref().map_or(0, Combiner::resident_workers)
    }

    /// Which session-pool implementation this service checks workers
    /// out of.
    pub fn pool_kind(&self) -> PoolKind {
        self.pool.kind()
    }

    /// The sharded pool's shard count, or `None` for the mutex pool.
    pub fn pool_shard_count(&self) -> Option<usize> {
        self.pool.shards()
    }

    /// The shared backend.
    pub fn backend(&self) -> &Arc<dyn ServiceBackend> {
        &self.backend
    }

    /// Which acquire front-end this service routes through.
    pub fn acquire_mode(&self) -> AcquireMode {
        if self.combiner.is_some() {
            AcquireMode::Combining
        } else {
            AcquireMode::Direct
        }
    }

    /// Checks a worker out for the combining front-end. It usually stays
    /// resident with the combiner role (the role's Acquire/Release lock
    /// edges hand it between combiners); [`Self::checkin_worker`] takes
    /// it back when two combiners raced and the resident seat is taken.
    pub(crate) fn checkout_worker(&self) -> Box<Worker> {
        self.checkout()
    }

    /// Returns a combining-front-end worker to the checkout pool when
    /// the combiner role already holds a resident worker.
    pub(crate) fn checkin_worker(&self, worker: Box<Worker>) {
        self.pool.checkin(worker);
    }

    fn checkout(&self) -> Box<Worker> {
        if let Some(worker) = self.pool.checkout() {
            return worker;
        }
        // Bounded slow path: only reached when every shard slot (or the
        // mutex vector) is empty. Stream ids — and with them the RNG
        // seeds — are fixed here, at construction, so pool placement
        // never changes a worker's coin flips. AcqRel pairs with the
        // Acquire read in `worker_count`, keeping the post-quiescence
        // conservation law exact.
        let stream = self.streams.fetch_add(1, Ordering::AcqRel);
        Box::new(Worker {
            session: self.backend.open_session(),
            rng: FastRng::seed_from_u64(self.seed_policy.stream_seed(stream)),
        })
    }
}

impl fmt::Debug for NameService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameService")
            .field("algorithm", &self.algorithm())
            .field("capacity", &self.capacity())
            .field("namespace_size", &self.namespace_size())
            .field("held", &self.held())
            .field("workers", &self.worker_count())
            .field("pool", &self.pool_kind())
            .field("seed_policy", &self.seed_policy)
            .field("acquire_mode", &self.acquire_mode())
            .field("oracle", &self.oracle.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TasBackend;

    #[test]
    fn acquire_release_cycle_recycles_names() {
        let service = NameService::builder(Algorithm::Rebatching, 4)
            .seed_policy(SeedPolicy::Fixed(7))
            .build()
            .expect("build");
        // Far more acquisitions than the namespace holds: only recycling
        // makes this terminate successfully.
        for _ in 0..100 {
            let guard = service.acquire().expect("within capacity");
            assert!(guard.value() < service.namespace_size());
        }
        assert_eq!(service.held(), 0);
        // Single-threaded use needs exactly one pooled worker.
        assert_eq!(service.worker_count(), 1);
        assert_eq!(service.pooled_workers(), 1);
    }

    #[test]
    fn concurrent_holders_are_distinct() {
        let service = NameService::builder(Algorithm::FastAdaptive, 16)
            .build()
            .expect("build");
        let guards: Vec<_> = (0..16).map(|_| service.acquire().expect("name")).collect();
        let mut values: Vec<usize> = guards.iter().map(|g| g.value()).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 16, "duplicate names among live guards");
        assert_eq!(service.held(), 16);
        drop(guards);
        assert_eq!(service.held(), 0);
    }

    #[test]
    fn fixed_seed_policy_reproduces_sequences() {
        let sequence = |seed: u64| -> Vec<usize> {
            let service = NameService::builder(Algorithm::Adaptive, 32)
                .seed_policy(SeedPolicy::Fixed(seed))
                .build()
                .expect("build");
            (0..20)
                .map(|_| {
                    let guard = service.acquire().expect("name");
                    guard.value()
                })
                .collect()
        };
        assert_eq!(sequence(42), sequence(42));
        assert_ne!(sequence(42), sequence(43), "seeds should matter");
    }

    #[test]
    fn both_pools_produce_identical_single_thread_sequences() {
        let sequence = |pool: PoolKind| -> Vec<usize> {
            let service = NameService::builder(Algorithm::Rebatching, 32)
                .pool_kind(pool)
                .seed_policy(SeedPolicy::Fixed(11))
                .build()
                .expect("build");
            assert_eq!(service.pool_kind(), pool);
            (0..30)
                .map(|_| service.acquire().expect("name").value())
                .collect()
        };
        assert_eq!(
            sequence(PoolKind::Sharded),
            sequence(PoolKind::Mutex),
            "pool choice must be invisible to single-threaded callers"
        );
    }

    #[test]
    fn guard_accessors_and_detach() {
        let service = NameService::builder(Algorithm::LinearScan, 4)
            .build()
            .expect("build");
        let guard = service.acquire().expect("name");
        assert_eq!(guard.name().value(), guard.value());
        assert_eq!(guard.service().algorithm(), "linear-scan");
        assert_eq!(format!("{guard}"), format!("{}", guard.name()));
        let name = guard.into_name();
        assert_eq!(service.held(), 1, "detached name stays held");
        service.release_name(name).expect("manual release");
        assert_eq!(service.held(), 0);
    }

    #[test]
    fn tournament_backend_recycles_on_guard_drop() {
        let service = NameService::builder(Algorithm::Rebatching, 4)
            .tas_backend(TasBackend::Tournament)
            .build()
            .expect("build");
        assert!(service.supports_release());
        let guard = service.acquire().expect("name");
        assert!(guard.value() < service.namespace_size());
        guard.release().expect("tournament releases via epoch reset");
        assert_eq!(service.held(), 0);
        // Churn far beyond the namespace (and beyond any slot's
        // per-epoch ticket budget): only drop-recycling makes this pass.
        for _ in 0..60 {
            let guard = service.acquire().expect("within capacity");
            std::hint::black_box(guard.value());
        }
        assert_eq!(service.held(), 0);
    }

    #[test]
    fn sharded_service_survives_thread_churn() {
        // More threads than shards, churn far beyond capacity: the
        // service must neither duplicate names nor lose workers.
        let service = NameService::builder(Algorithm::Rebatching, 16)
            .pool_shards(1)
            .seed_policy(SeedPolicy::Fixed(3))
            .build()
            .expect("build");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let service = &service;
                scope.spawn(move || {
                    for _ in 0..200 {
                        let guard = service.acquire().expect("within capacity");
                        std::hint::black_box(guard.value());
                    }
                });
            }
        });
        assert_eq!(service.held(), 0);
        // Conservation: once idle, every worker ever created is either
        // pooled or was retired on overflow — nothing leaks.
        assert_eq!(
            service.worker_count() as u64,
            service.pooled_workers() as u64 + service.retired_workers(),
        );
    }
}
