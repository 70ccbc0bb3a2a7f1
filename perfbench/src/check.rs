//! The benchmark's own correctness check, and the mutant that proves it
//! is not vacuous.
//!
//! Every name a workload is handed passes [`Checker::issued`]: it must
//! lie inside the namespace, and its per-name flag must be clear (no
//! other holder). The holder clears the flag with [`Checker::returning`]
//! *before* it hands the name back, so the next winner — ordered after
//! the release through the slot's TAS — always finds it clear.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rand::RngCore;
use renaming_service::{Name, Namespace, PooledSession, RenamingError, ServiceBackend};

#[derive(Debug)]
pub struct Checker {
    live: Vec<AtomicBool>,
}

impl Checker {
    pub fn new(namespace_size: usize) -> Self {
        Self {
            live: (0..namespace_size)
                .map(|_| AtomicBool::new(false))
                .collect(),
        }
    }

    /// Records that `name` was just issued to a caller. `false` is a
    /// violation: the name is outside the namespace or already live. The
    /// caller must then not treat the name as its own.
    #[must_use]
    pub fn issued(&self, name: usize) -> bool {
        self.live
            .get(name)
            .is_some_and(|flag| !flag.swap(true, Ordering::SeqCst))
    }

    /// Records that the caller is about to release `name`.
    pub fn returning(&self, name: usize) {
        self.live[name].store(false, Ordering::SeqCst);
    }
}

/// A backend whose sessions, on the `fire_at`-th acquire overall,
/// return the first name they ever issued instead of winning a slot —
/// one re-issue of a live name, once. Releases pass through, so the
/// re-issued copy (which the check rejects and the caller drops) never
/// reaches the inner backend twice.
pub struct ReissueOnce {
    inner: Arc<dyn ServiceBackend>,
    state: Arc<Mutex<ReissueState>>,
}

#[derive(Default)]
struct ReissueState {
    acquires: u64,
    first: Option<Name>,
    fire_at: u64,
    fired: bool,
}

impl ReissueOnce {
    pub fn new(inner: Arc<dyn ServiceBackend>, fire_at: u64) -> Self {
        Self {
            inner,
            state: Arc::new(Mutex::new(ReissueState {
                fire_at,
                ..ReissueState::default()
            })),
        }
    }
}

struct ReissueSession {
    inner: Box<dyn PooledSession>,
    state: Arc<Mutex<ReissueState>>,
}

impl ReissueSession {
    /// Counts one acquire; returns the name to re-issue if this is the
    /// one that fires.
    fn intercept(&self) -> Option<Name> {
        let mut state = self.state.lock().expect("mutant state lock poisoned");
        state.acquires += 1;
        if !state.fired && state.acquires == state.fire_at {
            state.fired = true;
            return state.first;
        }
        None
    }

    fn remember(&self, name: Name) {
        let mut state = self.state.lock().expect("mutant state lock poisoned");
        state.first.get_or_insert(name);
    }
}

impl PooledSession for ReissueSession {
    fn acquire(&mut self, rng: &mut dyn RngCore) -> Result<Name, RenamingError> {
        if let Some(name) = self.intercept() {
            return Ok(name);
        }
        let name = self.inner.acquire(rng)?;
        self.remember(name);
        Ok(name)
    }

    fn acquire_batch(
        &mut self,
        count: usize,
        rng: &mut dyn RngCore,
        out: &mut Vec<Name>,
    ) -> Result<(), RenamingError> {
        for _ in 0..count {
            out.push(self.acquire(rng)?);
        }
        Ok(())
    }
}

impl Namespace for ReissueOnce {
    fn acquire(&self, rng: &mut dyn RngCore) -> Result<Name, RenamingError> {
        self.inner.acquire(rng)
    }

    fn release(&self, name: Name) -> Result<(), RenamingError> {
        self.inner.release(name)
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

impl ServiceBackend for ReissueOnce {
    fn open_session(&self) -> Box<dyn PooledSession> {
        Box::new(ReissueSession {
            inner: self.inner.open_session(),
            state: Arc::clone(&self.state),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_out_of_range_and_double_issue() {
        let check = Checker::new(4);
        assert!(check.issued(1));
        assert!(!check.issued(1), "second holder of a live name");
        assert!(!check.issued(4), "outside the namespace");
        check.returning(1);
        assert!(check.issued(1), "released names may be issued again");
    }
}
