//! The flat-combining acquire front-end
//! ([`AcquireMode::Combining`](crate::AcquireMode)).
//!
//! Under heavy contention, N threads each driving an independent machine
//! is exactly the traffic shape the paper's algorithms are *worst* at:
//! every thread pays the full probe cost against slots the others are
//! busy filling. The paper's own core primitive — `BatchCall` — exists
//! to amortize that work across many simultaneous requests. This module
//! restructures service traffic into that shape:
//!
//! 1. each waiter publishes its acquire request into a private,
//!    cache-line-padded request slot (see [`crate::slots`] — the same
//!    `repr(align(128))` discipline as [`crate::pool`]'s shards);
//! 2. one thread CASes itself into the **combiner** role, drains every
//!    pending slot, and satisfies the whole batch through a *single*
//!    session — kept resident with the role, so combining acquires pay
//!    no pool checkout/checkin traffic — in one rebatching sweep
//!    ([`PooledSession::acquire_batch`](crate::PooledSession::acquire_batch)
//!    rearms the machine between wins instead of rewinding it, so the
//!    batch walks the namespace once instead of `count` times);
//! 3. results are published back through the slots, and each waiter —
//!    which spins briefly, yields, then parks — is unparked through the
//!    wait/notify layer ([`crate::wait`]) if it got as far as parking.
//!
//! An *uncontended* acquirer short-circuits all three steps: it takes
//! the combiner role outright, serves itself as a batch of one (which
//! the rearm contract makes identical to the direct path), and drains
//! any request that raced in behind it — so single-thread combining
//! costs one CAS over the direct path instead of a full
//! publish/elect/publish round-trip.
//!
//! One thread serving the batch also means the contended TAS cache lines
//! stay resident on one core for the whole sweep instead of bouncing
//! between every acquirer — the flat-combining effect.
//!
//! # Liveness
//!
//! A waiter re-contends for the combiner lock on every wake (and at
//! worst every [`PARK_TIMEOUT`]), so a request published while no
//! combiner is active can always serve itself. The combiner's exit
//! protocol keeps that timeout a backstop rather than the wake: after
//! releasing the lock, the combiner re-reads the queued-request hint and
//! re-elects itself if the hint is nonzero
//! ([`Combiner::drain_and_release`]). All the accesses involved (the
//! publisher's hint increment, its `PENDING` store, its failed lock CAS;
//! the combiner's unlock and hint re-read) are SeqCst, so in the single
//! total order either the publisher's CAS sees the lock free (and the
//! publisher becomes combiner itself), or the exiting combiner's re-read
//! sees the increment and drains again. A waiter parked on a request
//! that landed after the combiner's last scan is therefore served by
//! that combiner's exit, not by its own timeout.

use std::cell::UnsafeCell;
use std::sync::Arc;
use std::time::Duration;

use crate::sync_shim::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

use renaming_core::{Name, RenamingError};

use crate::service::{NameService, Worker};
use crate::slots::{SlotPoll, SlotTable};
use crate::sync_shim::thread::Thread;

/// Spins before a waiter starts yielding. Long enough to cover a small
/// batch being served; short enough not to burn a core under
/// oversubscription. Skipped entirely on single-CPU boxes, where a spin
/// can never observe progress (the combiner is not running).
#[cfg(not(renaming_model))]
const SPIN_LIMIT: u32 = 256;
/// Model builds: every spin iteration is a scheduling point of the
/// interleaving checker, so a long spin phase only multiplies the state
/// space without adding behaviors (the checker's fair-yield rule already
/// guarantees each spin observes progress). Two iterations keep the
/// spin→yield→park ladder itself explored.
#[cfg(renaming_model)]
const SPIN_LIMIT: u32 = 2;

/// Yields between spinning and parking. On an oversubscribed box the
/// combiner usually holds the lock only because it was descheduled;
/// yielding hands it the CPU to finish, at a fraction of a park/unpark
/// round-trip.
#[cfg(not(renaming_model))]
const YIELD_LIMIT: u32 = 16;
/// Model builds: shortened like [`SPIN_LIMIT`].
#[cfg(renaming_model)]
const YIELD_LIMIT: u32 = 2;

/// Park timeout: waiters re-contend for the combiner lock at least this
/// often. The publish/park handshake (SeqCst on both sides, see
/// [`crate::wait`]) makes the combiner's unpark reliable and its exit
/// re-check serves requests that land after its last scan, so this is
/// not the primary wake — it is a belt-and-suspenders bound on a
/// waiter's stall (it wakes, wins the free lock, and serves itself; see
/// the module docs on liveness).
const PARK_TIMEOUT: Duration = Duration::from_micros(500);

/// How many uncontended combiner turns keep the *short-critical-section*
/// shape after the last observed contention (a failed fast-path lock
/// CAS). While it decays the combiner releases the lock around the
/// actual acquire, so a preemption almost never lands inside the role —
/// the pile-up trigger on oversubscribed boxes. At zero the combiner
/// holds the lock across the acquire instead, which is one atomic RMW
/// per op cheaper — the shape a single-threaded caller always sees.
const CONTENDED_WINDOW: u32 = 256;

/// Drain rounds per combining session. Each round serves every request
/// pending at its scan; a second round picks up requests that arrived
/// during the first. Bounded so the combiner cannot be captured forever
/// by a steady arrival stream (fairness: it eventually hands the role
/// to a newcomer).
const DRAIN_ROUNDS: usize = 4;

/// Whether this box has a single hardware thread — cached once. Waiters
/// skip the spin phase there: with the combiner descheduled, a spin can
/// only burn the quantum the combiner needs.
#[cfg(not(renaming_model))]
fn single_cpu() -> bool {
    use std::sync::OnceLock;
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) == 1
    })
}

/// Model builds: the checker's virtual threads all "run", so the
/// single-CPU spin cutoff does not apply — and the host's CPU count must
/// not steer which branches the model explores.
#[cfg(renaming_model)]
fn single_cpu() -> bool {
    false
}

/// The combiner lock, padded so contending CASes on it never share a
/// line with any request slot.
#[repr(align(128))]
struct CombinerLock(AtomicBool);

/// The shared combining state: the slot table and the combiner role.
struct CombinerCore {
    /// The request-slot table (see [`crate::slots`]), shared with the
    /// thread leases.
    table: Arc<SlotTable>,
    lock: CombinerLock,
    /// The combiner's *resident* worker session. Whoever holds the
    /// combiner lock owns it: the session (and its TAS-line working
    /// set) travels with the role instead of bouncing through the pool
    /// on every acquire, so a combining acquire pays zero pool
    /// checkout/checkin traffic. Lazily populated from the pool by the
    /// first combiner.
    resident: UnsafeCell<Option<Box<Worker>>>,
    /// Occupancy mirror of `resident` (0 or 1), maintained under the
    /// lock but readable without it — the service's worker conservation
    /// accounting ([`NameService::resident_workers`]) reads it.
    /// Release stores / Acquire load, so an off-lock reader gets a
    /// happens-before edge to the store it observes (free on x86).
    resident_count: AtomicUsize,
    /// Published-request hint: incremented just before a waiter stores
    /// `PENDING` ([`Combiner::announce`]), decremented by the combiner
    /// in one batched `fetch_sub` per drain round (covering every slot
    /// that round adopted). Lets an uncontended combiner skip the full
    /// slot scan with one load. At any combiner's scan the hint is ≥ the
    /// number of slots the scan adopts (each adopted slot's increment is
    /// program-ordered before its `PENDING` store and consumed by exactly
    /// one later decrement) — asserted in the drain loop. A stale zero
    /// at a scan is benign: the waiter re-contends for the lock itself,
    /// and the SeqCst exit re-check cannot miss the increment (see the
    /// module docs on liveness).
    queued: AtomicUsize,
    /// Contention decay counter (see [`CONTENDED_WINDOW`]): refreshed by
    /// every failed fast-path lock CAS, decremented per uncontended
    /// combiner turn.
    contended: AtomicU32,
}

// SAFETY: `table`, counters and `lock` are atomics/shared-immutable.
// `resident` is only accessed by the thread currently holding `lock`,
// whose CAS / store edges order every access to it across combiner
// handoffs.
unsafe impl Sync for CombinerCore {}

/// The flat-combining front-end of one [`NameService`]. Constructed when
/// the service is built with
/// [`AcquireMode::Combining`](crate::AcquireMode::Combining).
pub(crate) struct Combiner {
    core: Arc<CombinerCore>,
}

impl std::fmt::Debug for Combiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Combiner")
            .field("slots", &self.core.table.len())
            .finish()
    }
}

impl Combiner {
    /// A combiner with one request slot per potential concurrent
    /// acquirer: twice the hardware parallelism (threads beyond that are
    /// not running, so their requests only queue), floored at 16 so an
    /// oversubscribed small box still queues its waiters through the
    /// batch path instead of spilling them to the direct fallback,
    /// power-of-two, bounded.
    pub(crate) fn new() -> Self {
        let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_slots((2 * parallelism).max(16))
    }

    /// A combiner with an explicit slot count (clamped to `2..=256`,
    /// rounded up to a power of two) — exposed for tests that need
    /// threads to outnumber slots deterministically.
    pub(crate) fn with_slots(slots: usize) -> Self {
        Self {
            core: Arc::new(CombinerCore {
                table: SlotTable::new(slots),
                lock: CombinerLock(AtomicBool::new(false)),
                resident: UnsafeCell::new(None),
                resident_count: AtomicUsize::new(0),
                queued: AtomicUsize::new(0),
                contended: AtomicU32::new(0),
            }),
        }
    }

    /// Tries to take the combiner role. SeqCst on both outcomes: the
    /// *failure* is the publisher's half of the exit-re-check handshake
    /// (a failed CAS that read `true` is ordered, in the single SeqCst
    /// order, before the lock-holder's unlock — and therefore before its
    /// queued re-read, which then cannot miss the publisher's
    /// increment).
    fn try_lock(&self) -> bool {
        self.core
            .lock
            .0
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Releases the combiner role. SeqCst: must precede the caller's
    /// queued re-read in the single total order (see `try_lock`).
    fn unlock(&self) {
        self.core.lock.0.store(false, Ordering::SeqCst);
    }

    /// Records a failed fast-path lock CAS, keeping the next
    /// [`CONTENDED_WINDOW`] combiner turns in the short-critical-section
    /// shape. Release (not Relaxed): pairs with the Acquire load in
    /// [`serve_locked`](Self::serve_locked) so the cross-thread read is
    /// a happens-before edge (free on x86; the model's race detector
    /// insists on it even for a heuristic).
    fn note_contention(&self) {
        self.core.contended.store(CONTENDED_WINDOW, Ordering::Release);
    }

    /// Bumps the published-request hint. Must be called *before* the
    /// slot's `PENDING` store, and pairs with exactly one later combiner
    /// batch decrement.
    fn announce(&self) {
        self.core.queued.fetch_add(1, Ordering::SeqCst);
    }

    /// Acquires one name through the combining path.
    pub(crate) fn acquire(&self, service: &NameService) -> Result<Name, RenamingError> {
        // Fast path: an uncontended acquirer takes the combiner role
        // outright, without publishing a request.
        if self.try_lock() {
            return self.serve_locked(service);
        }
        // The lock CAS failed: remember the contention so the next
        // combiner turns keep their critical sections short.
        self.note_contention();
        let Some(index) = self.core.table.leased_index() else {
            // Every slot leased: serve this thread directly. Correctness
            // is unaffected (both paths drive the same machines against
            // the same slots); only the batching amortization is lost.
            return service.acquire_direct();
        };
        let slot = self.core.table.slot(index);
        // Publish the request: bump the queued hint first (program order
        // on the SeqCst pair keeps it ordered before the state store, so
        // a combiner that sees PENDING also sees the count), then flip
        // the slot.
        self.announce();
        slot.publish();

        let mut spins = 0u32;
        loop {
            match slot.poll() {
                SlotPoll::Done(value) => {
                    slot.finish();
                    return Ok(Name::new(value));
                }
                SlotPoll::Failed => {
                    slot.finish();
                    return Err(RenamingError::NamespaceExhausted {
                        namespace: service.namespace_size(),
                    });
                }
                SlotPoll::Waiting => {}
            }
            if self.try_lock() {
                let worker = self.take_resident(service);
                self.drain_and_release(service, worker);
                // Our own request was part of the drain (it was PENDING
                // when we took the lock), so the next poll returns a
                // verdict.
                continue;
            }
            spins += 1;
            if spins < SPIN_LIMIT && !single_cpu() {
                crate::sync_shim::hint::spin_loop();
            } else if spins < SPIN_LIMIT + YIELD_LIMIT {
                // The lock holder is likely descheduled (certainly so on
                // a single-CPU box): hand it the rest of the quantum
                // instead of burning it, then re-contend.
                crate::sync_shim::thread::yield_now();
            } else {
                // Dekker handshake with the combiner's publication: we
                // engage the wait cell then re-load the state; the
                // combiner stores the state then loads the flag (all
                // SeqCst). At least one side must see the other, so
                // either we observe our result here and skip the park,
                // or the combiner observes the flag and unparks us —
                // a served request never sleeps out the full timeout.
                slot.wait.engage();
                if slot.in_flight() {
                    crate::sync_shim::thread::park_timeout(PARK_TIMEOUT);
                }
                slot.wait.disengage();
            }
        }
    }

    /// Acquires `count` names for one caller, appending them to `out`
    /// ([`NameService::acquire_many`]). A won lock serves the whole
    /// batch in one `acquire_batch` sweep on the resident session, then
    /// drains any request that queued behind it. A busy lock means
    /// another combiner is active: fall back to per-name
    /// [`acquire`](Self::acquire)s, which queue into its drain.
    pub(crate) fn acquire_many(
        &self,
        service: &NameService,
        count: usize,
        out: &mut Vec<Name>,
    ) -> Result<(), RenamingError> {
        if self.try_lock() {
            let mut worker = self.take_resident(service);
            let result = worker.session.acquire_batch(count, &mut worker.rng, out);
            self.drain_and_release(service, worker);
            return result;
        }
        self.note_contention();
        for _ in 0..count {
            out.push(self.acquire(service)?);
        }
        Ok(())
    }

    /// Serves the calling acquirer as the combiner. The caller holds
    /// the combiner lock; it is released before returning.
    fn serve_locked(&self, service: &NameService) -> Result<Name, RenamingError> {
        let mut worker = self.take_resident(service);
        let contended = self.core.contended.load(Ordering::Acquire);
        if contended == 0 {
            // Quiet shape: hold the role across the acquire. One
            // atomic RMW for the whole op — cheaper than the direct
            // path's pool checkout/checkin pair.
            let result = worker.session.acquire(&mut worker.rng);
            self.drain_and_release(service, worker);
            return result;
        }
        // Contended shape: release the role for the actual acquire,
        // so the lock covers only the resident handoffs (~a dozen ns
        // each) and a preemption almost never lands inside it — the
        // pile-up trigger on oversubscribed boxes. A thread that
        // takes the role meanwhile draws its own worker from the
        // pool, which is the direct-mode norm. (We hold the lock, so
        // the decay store cannot erase a concurrent refresh that
        // matters: refreshers are about to fail this very CAS again.)
        self.core.contended.store(contended - 1, Ordering::Release);
        self.unlock();
        let result = worker.session.acquire(&mut worker.rng);
        if self.try_lock() {
            // A combiner that took the role while we ran unlocked may
            // have parked its own worker: `drain_and_release` keeps that
            // incumbent and sends ours back to the pool.
            self.drain_and_release(service, worker);
        } else {
            // Someone else holds the role (and serves the queue, and
            // re-checks the queue on its own exit): our worker goes back
            // to the pool instead.
            service.checkin_worker(worker);
        }
        result
    }

    /// The combiner's exit protocol: drain, park the worker, release
    /// the lock, unpark the served waiters — then re-check the queued
    /// hint and re-elect itself if requests were published while it was
    /// letting go. The re-check serves a waiter whose request landed
    /// after the last scan without making it wait out [`PARK_TIMEOUT`]
    /// (see the module docs); it costs one SeqCst load on the
    /// uncontended path.
    ///
    /// The caller holds the combiner lock and passes in the worker it
    /// drained with; the lock is released (and the worker parked or
    /// returned to the pool) before returning.
    fn drain_and_release(&self, service: &NameService, mut worker: Box<Worker>) {
        loop {
            let notifications = self.drain(&mut worker);
            let displaced = self.park_resident(worker);
            self.unlock();
            // Unpark after releasing the lock, keeping futex syscalls
            // out of the critical section (a long combiner hold is what
            // cascades into pile-ups on oversubscribed boxes).
            for waiter in notifications {
                waiter.unpark();
            }
            if let Some(worker) = displaced {
                service.checkin_worker(worker);
            }
            if self.core.queued.load(Ordering::SeqCst) == 0 || !self.try_lock() {
                // Either nothing is published (every future publisher's
                // failed lock CAS is SeqCst-after our unlock, so it can
                // re-elect against a free lock or be seen by the *next*
                // combiner's exit), or another combiner took over and
                // inherits the re-check obligation.
                return;
            }
            // A nonzero hint with nothing yet adopted means some
            // publisher sits in its announce→publish window (the hint
            // increment is program-ordered before the PENDING store).
            // Yield it the CPU before re-draining: re-electing is
            // otherwise a busy retry loop whose progress depends
            // entirely on that other thread being scheduled — the
            // interleaving checker proves it can starve the publisher
            // outright under a bounded scheduler, and on a real box
            // spinning through drain rounds against a descheduled
            // publisher burns the quantum it needs.
            crate::sync_shim::thread::yield_now();
            worker = self.take_resident(service);
        }
    }

    /// Takes the resident worker, falling back to a pool checkout the
    /// first time (or after [`Combiner::park_resident`] was never
    /// reached on a panic path). Caller must hold the combiner lock.
    fn take_resident(&self, service: &NameService) -> Box<Worker> {
        // SAFETY: the combiner lock is held (see `Sync` for CombinerCore).
        let resident = unsafe { &mut *self.core.resident.get() };
        self.core.resident_count.store(0, Ordering::Release);
        resident
            .take()
            .unwrap_or_else(|| service.checkout_worker())
    }

    /// Stores the worker back as the resident session for the next
    /// combiner. Caller must hold the combiner lock.
    ///
    /// Returns the worker unparked when the seat is already occupied:
    /// on the contended shape, a thread that takes the role while we
    /// run unlocked checks out — and parks — its own worker, and
    /// overwriting it here would drop a session on the floor (breaking
    /// the `worker_count == pooled + retired + resident` conservation
    /// law). The caller routes the returned worker through
    /// [`NameService::checkin_worker`] after releasing the lock.
    #[must_use]
    fn park_resident(&self, worker: Box<Worker>) -> Option<Box<Worker>> {
        // SAFETY: the combiner lock is held (see `Sync` for CombinerCore).
        let resident = unsafe { &mut *self.core.resident.get() };
        if resident.is_some() {
            return Some(worker);
        }
        *resident = Some(worker);
        self.core.resident_count.store(1, Ordering::Release);
        None
    }

    /// How many worker sessions are held resident by the combiner role
    /// right now (0 or 1) — part of the service's worker conservation
    /// law alongside the pooled and retired counts.
    pub(crate) fn resident_workers(&self) -> usize {
        self.core.resident_count.load(Ordering::Acquire)
    }

    /// Serves every pending request through the combiner's worker.
    /// Caller holds the combiner lock; the returned waiters must be
    /// unparked *after* releasing it (see [`Self::drain_and_release`]).
    fn drain(&self, worker: &mut Worker) -> Vec<Thread> {
        // `Vec::new` defers the allocation: a drain that finds nothing
        // pending (the uncontended fast path) costs only the hint load.
        let mut pending = Vec::new();
        let mut names: Vec<Name> = Vec::new();
        let mut notifications = Vec::new();
        for _ in 0..DRAIN_ROUNDS {
            // The queued hint spares the uncontended turn the full slot
            // scan. A stale zero skips a request that was *just*
            // published — benign: its owner is awake (it has not parked
            // yet) and re-contends for the lock itself, and the exit
            // re-check in `drain_and_release`, which runs after this
            // return, sees the increment.
            if self.core.queued.load(Ordering::SeqCst) == 0 {
                return notifications;
            }
            pending.clear();
            for index in 0..self.core.table.len() {
                // PENDING → SERVING: marks the request adopted, so a
                // later round of this drain skips it and its owner keeps
                // waiting (it is still in flight) until the fill.
                if self.core.table.slot(index).take_for_service() {
                    pending.push(index);
                }
            }
            if pending.is_empty() {
                return notifications;
            }
            // Hint/slot-table consistency: every slot just adopted had
            // announced itself (increment program-ordered before its
            // PENDING store, consumed by no one else before our batched
            // decrement below), so the hint cannot undercount the batch.
            debug_assert!(
                self.core.queued.load(Ordering::SeqCst) >= pending.len(),
                "queued hint fell below the slots adopted by this scan"
            );
            // One session serves the whole batch: the machine is rearmed
            // between wins, so its probe walk — and the TAS lines it
            // touches — is shared across every request in `pending`.
            // A batch error (namespace exhausted mid-sweep) leaves a short
            // `names`; the publication below fails the unserved remainder.
            names.clear();
            let _ = worker
                .session
                .acquire_batch(pending.len(), &mut worker.rng, &mut names);
            // Consume the adopted requests' hint credits in one batched
            // decrement.
            self.core.queued.fetch_sub(pending.len(), Ordering::SeqCst);
            // Publish in slot order. On a partial batch (namespace
            // exhausted mid-sweep) the names that *were* won still go
            // out — they are real acquisitions — and the remainder fails.
            for (served, &index) in pending.iter().enumerate() {
                let slot = self.core.table.slot(index);
                if let Some(waiter) = slot.fill(names.get(served).map(|name| name.value())) {
                    notifications.push(waiter);
                }
            }
        }
        notifications
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counts_clamp_and_round() {
        assert_eq!(Combiner::with_slots(0).core.table.len(), 2);
        assert_eq!(Combiner::with_slots(3).core.table.len(), 4);
        assert_eq!(Combiner::with_slots(usize::MAX).core.table.len(), 256);
    }

    #[test]
    fn park_resident_keeps_the_incumbent_and_displaces_the_loser() {
        // Regression for the contended-shape race: thread A takes the
        // resident worker, runs its acquire unlocked, re-wins the lock
        // and parks — but meanwhile thread B became combiner, checked a
        // fresh worker out of the pool, and parked *it* as resident.
        // A's park must not overwrite (and thereby drop) B's worker; it
        // gets its own back for a pool checkin instead.
        let service = crate::NameService::builder(crate::Algorithm::Rebatching, 4)
            .build()
            .expect("build");
        let combiner = Combiner::with_slots(4);
        let first = service.checkout_worker();
        let second = service.checkout_worker();
        let created = service.worker_count();
        assert!(combiner.park_resident(first).is_none(), "empty seat parks");
        assert_eq!(combiner.resident_workers(), 1);
        let displaced = combiner
            .park_resident(second)
            .expect("occupied seat must displace, not drop");
        service.checkin_worker(displaced);
        assert_eq!(combiner.resident_workers(), 1, "incumbent stays seated");
        assert_eq!(
            service.pooled_workers() + combiner.resident_workers(),
            created,
            "worker conservation holds after a displaced park"
        );
    }

    #[test]
    fn exit_recheck_drains_requests_published_against_a_held_lock() {
        // Stage the liveness scenario deterministically on one thread: a
        // request is published while the lock is held (so its
        // publisher's lock CAS fails and it goes to sleep), and the
        // combiner's own exit must serve it — no park timeout, no third
        // party.
        let service = crate::NameService::builder(crate::Algorithm::Rebatching, 4)
            .build()
            .expect("build");
        let combiner = Combiner::with_slots(4);
        assert!(combiner.try_lock(), "stage: we are the active combiner");
        let table = &combiner.core.table;
        let index = table.leased_index().expect("free slot");
        let slot = table.slot(index);
        combiner.announce();
        slot.publish();
        assert_eq!(combiner.core.queued.load(Ordering::SeqCst), 1);
        // The combiner (us) exits: drain_and_release must notice the
        // published request via the exit re-check and serve it.
        let worker = combiner.take_resident(&service);
        combiner.drain_and_release(&service, worker);
        let SlotPoll::Done(value) = slot.poll() else {
            panic!("exit re-check must have served the published request");
        };
        slot.finish();
        assert_eq!(combiner.core.queued.load(Ordering::SeqCst), 0);
        service.release_name(Name::new(value)).expect("release");
        assert_eq!(service.held(), 0);
    }
}
