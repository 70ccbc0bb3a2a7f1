//! The wait/notify half of the combining front-end's slot protocol.
//!
//! A published request needs exactly one thing from the combiner: *tell
//! me when my slot is filled*. The owner is an OS thread that spins,
//! yields and finally parks; [`WaitCell`] is the handshake that makes
//! that park safe: an `engaged` flag plus the waiter's thread handle,
//! running the SeqCst Dekker publish/park protocol (store flag, re-load
//! state on one side; store state, load flag on the other — at least one
//! side must observe the other, so a served request can never sleep
//! through its own notification).
//!
//! The cell keeps the fast path cheap: a waiter registers its handle
//! once (at slot-lease claim) and only flips the `engaged` flag around
//! an actual park, so publishing a result to a spinning waiter costs one
//! SeqCst load and no mutex traffic.

use crate::sync_shim::sync::atomic::{AtomicBool, Ordering};
use crate::sync_shim::sync::Mutex;
use crate::sync_shim::thread::Thread;

/// One slot's wait/notify state: the `engaged` flag the Dekker handshake
/// runs on, plus the registered thread to unpark.
///
/// The flag and the slot's `state` field (owned by
/// [`slots::RequestSlot`](crate::slots)) form the two-sided SeqCst
/// handshake: a waiter *engages* (stores the flag) then re-checks the
/// slot state before parking; the combiner fills the state then loads
/// the flag. Sequential consistency on all four accesses means at least
/// one side observes the other — either the waiter sees its result and
/// never parks, or the combiner sees the flag and unparks it.
#[derive(Debug)]
pub(crate) struct WaitCell {
    /// `true` while the waiter is (about to be) parked on this slot;
    /// brackets the park exactly.
    engaged: AtomicBool,
    /// The registered waiter's handle. Written at lease claim, cleared
    /// at lease release; it persists across the lease's requests.
    waiter: Mutex<Option<Thread>>,
}

impl WaitCell {
    pub(crate) fn new() -> Self {
        Self {
            engaged: AtomicBool::new(false),
            waiter: Mutex::new(None),
        }
    }

    /// Registers the calling thread as this cell's waiter. Called once
    /// at slot-lease claim; the handle stays registered for the lease's
    /// lifetime and `engage`/`disengage` bracket each park.
    pub(crate) fn install_thread(&self) {
        *self.waiter.lock().expect("combiner waiter poisoned") =
            Some(crate::sync_shim::thread::current());
    }

    /// Flags the waiter as about to park. The caller must re-check the
    /// slot state after this store and skip the park if the slot was
    /// filled meanwhile.
    pub(crate) fn engage(&self) {
        self.engaged.store(true, Ordering::SeqCst);
    }

    /// Clears the park flag after the waiter wakes.
    ///
    /// Release (not Relaxed): the combiner's SeqCst flag load may read
    /// this store, and a Release/SeqCst pair gives that read a
    /// happens-before edge (free on x86 — a plain store). The flip is
    /// benign either way (worst case one spurious unpark), but the
    /// model's race detector insists every cross-thread read be an edge.
    pub(crate) fn disengage(&self) {
        self.engaged.store(false, Ordering::Release);
    }

    /// Drops the registered waiter and disengages — the slot is being
    /// released back to the unclaimed pool. Release for the same reason
    /// as [`disengage`](Self::disengage).
    pub(crate) fn clear(&self) {
        *self.waiter.lock().expect("combiner waiter poisoned") = None;
        self.engaged.store(false, Ordering::Release);
    }

    /// The combiner half of the handshake: called *after* the slot's
    /// state store (SeqCst), returns the thread to unpark if one is
    /// engaged. The handle is cloned: the lease keeps it registered for
    /// the next request.
    ///
    /// A `None` here is never a lost wakeup: the waiter either had not
    /// engaged yet — in which case its post-engage state re-check (also
    /// SeqCst) is ordered after the combiner's state store and sees the
    /// result — or already woke and disengaged.
    pub(crate) fn take_notification(&self) -> Option<Thread> {
        if !self.engaged.load(Ordering::SeqCst) {
            return None;
        }
        self.waiter.lock().expect("combiner waiter poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_waiters_persist_across_notifications() {
        let cell = WaitCell::new();
        cell.install_thread();
        assert!(cell.take_notification().is_none(), "not engaged: no wakeup");
        cell.engage();
        assert!(cell.take_notification().is_some());
        // The handle is cloned, not consumed: a second notification
        // (next request, same lease) still finds it.
        assert!(cell.take_notification().is_some());
        cell.disengage();
        assert!(cell.take_notification().is_none());
    }

    #[test]
    fn clear_drops_the_registration() {
        let cell = WaitCell::new();
        cell.install_thread();
        cell.engage();
        cell.clear();
        assert!(cell.take_notification().is_none());
    }
}
