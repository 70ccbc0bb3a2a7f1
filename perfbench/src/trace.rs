//! Tracing from outside the program: a core-layer decorator and a
//! TAS-layer probe counter, both installed through public constructors.
//!
//! * **tas** — the backend is built over [`CountingSlot`]s with
//!   `Rebatching::from_parts`, so every `test_and_set` is counted;
//! * **core** — [`TracedBackend`] wraps that backend and times every
//!   `open_session`, `acquire`, `acquire_batch` and `release` the
//!   service makes, whichever thread makes it (server handlers included).
//!
//! Timings land in per-thread stripes so the threads being measured do
//! not contend on the recorder's cache lines.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::RngCore;
use renaming_core::{BatchLayout, Epsilon, ProbeSchedule, Rebatching, DEFAULT_BETA};
use renaming_service::{
    CountingSlot, Name, Namespace, PooledSession, RenamingError, ServiceBackend,
};
use renaming_tas::{AtomicTas, CountingTas, TasArray};

use crate::hist::{AtomicHist, Hist};

const STRIPES: usize = 16;

fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    INDEX.with(|index| *index)
}

/// One thread's share of the core-layer record. Every field is a
/// statistic that publishes nothing else, so all updates are Relaxed.
#[derive(Default)]
#[repr(align(128))]
struct Stripe {
    /// Per-name acquire cost: a single `acquire`'s duration, or a batch
    /// call's duration divided over the names it won.
    acquire: AtomicHist,
    release: AtomicHist,
    single_names: AtomicU64,
    batch_calls: AtomicU64,
    batch_names: AtomicU64,
}

/// The core layer's record, shared by a [`TracedBackend`] and its
/// sessions.
#[derive(Default)]
pub struct CoreTrace {
    stripes: [Stripe; STRIPES],
    sessions_opened: AtomicU64,
}

impl CoreTrace {
    fn stripe(&self) -> &Stripe {
        &self.stripes[stripe_index()]
    }

    pub fn snapshot(&self) -> CoreSnapshot {
        let mut snap = CoreSnapshot {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            ..CoreSnapshot::default()
        };
        for stripe in &self.stripes {
            stripe.acquire.drain_into(&mut snap.acquire);
            stripe.release.drain_into(&mut snap.release);
            snap.single_names += stripe.single_names.load(Ordering::Relaxed);
            snap.batch_calls += stripe.batch_calls.load(Ordering::Relaxed);
            snap.batch_names += stripe.batch_names.load(Ordering::Relaxed);
        }
        snap
    }
}

#[derive(Debug, Default, Clone)]
pub struct CoreSnapshot {
    pub acquire: Hist,
    pub release: Hist,
    pub single_names: u64,
    pub batch_calls: u64,
    pub batch_names: u64,
    pub sessions_opened: u64,
}

impl CoreSnapshot {
    /// Adds another set-up's record (sessions included).
    pub fn absorb(&mut self, other: &CoreSnapshot) {
        self.acquire.merge(&other.acquire);
        self.release.merge(&other.release);
        self.single_names += other.single_names;
        self.batch_calls += other.batch_calls;
        self.batch_names += other.batch_names;
        self.sessions_opened += other.sessions_opened;
    }

    /// What the layer did after `earlier`; `sessions_opened` stays the
    /// set-up's lifetime total, prefill included.
    pub fn since(&self, earlier: &CoreSnapshot) -> CoreSnapshot {
        CoreSnapshot {
            acquire: self.acquire.since(&earlier.acquire),
            release: self.release.since(&earlier.release),
            single_names: self.single_names - earlier.single_names,
            batch_calls: self.batch_calls - earlier.batch_calls,
            batch_names: self.batch_names - earlier.batch_names,
            sessions_opened: self.sessions_opened,
        }
    }

    pub fn names_won(&self) -> u64 {
        self.single_names + self.batch_names
    }
}

/// A [`ServiceBackend`] decorator recording the core layer's work.
pub struct TracedBackend {
    inner: Arc<dyn ServiceBackend>,
    trace: Arc<CoreTrace>,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn ServiceBackend>, trace: Arc<CoreTrace>) -> Self {
        Self { inner, trace }
    }
}

struct TracedSession {
    inner: Box<dyn PooledSession>,
    trace: Arc<CoreTrace>,
}

impl PooledSession for TracedSession {
    fn acquire(&mut self, rng: &mut dyn RngCore) -> Result<Name, RenamingError> {
        let start = Instant::now();
        let result = self.inner.acquire(rng);
        let elapsed = start.elapsed();
        if result.is_ok() {
            let stripe = self.trace.stripe();
            stripe.acquire.record(elapsed);
            stripe.single_names.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn acquire_batch(
        &mut self,
        count: usize,
        rng: &mut dyn RngCore,
        out: &mut Vec<Name>,
    ) -> Result<(), RenamingError> {
        let before = out.len();
        let start = Instant::now();
        let result = self.inner.acquire_batch(count, rng, out);
        let elapsed = start.elapsed();
        let won = (out.len() - before) as u64;
        let stripe = self.trace.stripe();
        stripe.batch_calls.fetch_add(1, Ordering::Relaxed);
        stripe.batch_names.fetch_add(won, Ordering::Relaxed);
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if let Some(per_name) = nanos.checked_div(won) {
            for _ in 0..won {
                stripe.acquire.record_ns(per_name);
            }
        }
        result
    }
}

impl Namespace for TracedBackend {
    fn acquire(&self, rng: &mut dyn RngCore) -> Result<Name, RenamingError> {
        self.inner.acquire(rng)
    }

    fn release(&self, name: Name) -> Result<(), RenamingError> {
        let start = Instant::now();
        let result = self.inner.release(name);
        self.trace.stripe().release.record(start.elapsed());
        result
    }

    fn namespace_size(&self) -> usize {
        self.inner.namespace_size()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn held(&self) -> usize {
        self.inner.held()
    }

    fn algorithm(&self) -> &'static str {
        self.inner.algorithm()
    }

    fn supports_release(&self) -> bool {
        self.inner.supports_release()
    }
}

impl ServiceBackend for TracedBackend {
    fn open_session(&self) -> Box<dyn PooledSession> {
        self.trace.sessions_opened.fetch_add(1, Ordering::Relaxed);
        Box::new(TracedSession {
            inner: self.inner.open_session(),
            trace: Arc::clone(&self.trace),
        })
    }
}

/// A ReBatching object over counting slots, with the same layout as
/// `NameService::builder(Algorithm::Rebatching, capacity)` (ε = 1,
/// β = 3), and a handle on its slots for reading the probe count.
pub fn counting_rebatching(
    capacity: usize,
) -> Result<(Arc<dyn ServiceBackend>, TasProbe), RenamingError> {
    let schedule = ProbeSchedule::paper(Epsilon::one(), DEFAULT_BETA)?;
    let layout = BatchLayout::shared(capacity, schedule)?;
    let slots: Arc<TasArray<CountingSlot>> = Arc::new(TasArray::from_slots(
        (0..layout.namespace_size())
            .map(|_| CountingTas::new(AtomicTas::new()))
            .collect(),
    ));
    let backend = Rebatching::from_parts(layout, Arc::clone(&slots))?;
    Ok((Arc::new(backend), TasProbe { slots }))
}

/// Reads the TAS layer's probe count.
pub struct TasProbe {
    slots: Arc<TasArray<CountingSlot>>,
}

impl TasProbe {
    /// `test_and_set` calls on every slot so far.
    pub fn probes(&self) -> u64 {
        (0..self.slots.len())
            .map(|i| self.slots.slot(i).tas_ops())
            .sum()
    }
}
