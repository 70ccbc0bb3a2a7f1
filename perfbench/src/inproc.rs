//! `inproc-hot`: no network. A ReBatching service at 90% occupancy,
//! driven by closed-loop acquire → release callers.
//!
//! Each acquire probes past occupied slots, so the TAS, core and service
//! layers carry the whole cost — the paper's own workload.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use renaming_core::{Rebatching, DEFAULT_BETA};
use renaming_service::{
    AcquireMode, Algorithm, Epsilon, Name, NameService, PoolKind, SeedPolicy, ServiceBackend,
};

use crate::check::{Checker, ReissueOnce};
use crate::trace::{counting_rebatching, CoreTrace, TracedBackend};
use crate::{Measured, Tracing};

const CAPACITY: usize = 1024;
/// Names held for the whole run: 90% of capacity.
const PREFILL: usize = CAPACITY * 9 / 10;

pub struct Inproc {
    service: NameService,
    checker: Checker,
    prefilled: Vec<Name>,
    pub tracing: Option<Tracing>,
}

impl Inproc {
    /// Builds the service and fills it to [`PREFILL`] held names. Traced
    /// set-ups run the same object over counting slots behind the core
    /// decorator.
    pub fn setup(seed: u64, traced: bool) -> Inproc {
        let policy = SeedPolicy::Fixed(seed);
        let (service, tracing) = if traced {
            let (backend, tas) = counting_rebatching(CAPACITY).expect("valid parameters");
            let core = Arc::new(CoreTrace::default());
            let traced = TracedBackend::new(backend, Arc::clone(&core));
            let service = NameService::with_backend_pool(
                Arc::new(traced),
                policy,
                PoolKind::Sharded,
                None,
                AcquireMode::Direct,
            );
            (service, Some(Tracing { core, tas }))
        } else {
            let service = NameService::builder(Algorithm::Rebatching, CAPACITY)
                .seed_policy(policy)
                .build()
                .expect("valid parameters");
            (service, None)
        };
        Self::prefill(service, PREFILL, tracing)
    }

    fn prefill(service: NameService, count: usize, tracing: Option<Tracing>) -> Inproc {
        let checker = Checker::new(service.namespace_size());
        let prefilled = (0..count)
            .map(|_| {
                let name = service
                    .acquire_name()
                    .expect("prefill stays within capacity");
                assert!(checker.issued(name.value()), "prefill issued a live name");
                name
            })
            .collect();
        Inproc {
            service,
            checker,
            prefilled,
            tracing,
        }
    }

    /// Runs `threads` closed-loop callers until `duration` has passed or
    /// each has made `max_cycles` acquire → release cycles.
    pub fn measure(&self, threads: usize, duration: Duration, max_cycles: u64) -> Measured {
        let barrier = Barrier::new(threads + 1);
        let per_thread: Vec<Measured> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| self.caller(&barrier, duration, max_cycles)))
                .collect();
            barrier.wait();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        Measured::merge_all(per_thread)
    }

    fn caller(&self, barrier: &Barrier, duration: Duration, max_cycles: u64) -> Measured {
        let mut m = Measured::default();
        barrier.wait();
        let start = Instant::now();
        let mut now = start;
        let mut cycles = 0;
        while now - start < duration && cycles < max_cycles {
            cycles += 1;
            m.attempted += 1;
            let t0 = Instant::now();
            let acquired = self.service.acquire_name();
            now = Instant::now();
            let name = match acquired {
                Ok(name) if self.checker.issued(name.value()) => name,
                Ok(_) => {
                    // Not ours to release: someone else holds it.
                    m.violations += 1;
                    continue;
                }
                Err(_) => {
                    m.errors += 1;
                    continue;
                }
            };
            m.acquire.record(now - t0);
            self.checker.returning(name.value());
            m.attempted += 1;
            let t0 = Instant::now();
            let released = self.service.release_name(name);
            now = Instant::now();
            match released {
                Ok(()) => m.release.record(now - t0),
                Err(_) => m.errors += 1,
            }
        }
        m.wall = now - start;
        m
    }

    /// Releases the prefilled names and returns the occupancy left over,
    /// which must be 0.
    pub fn teardown(self) -> usize {
        for name in self.prefilled {
            self.checker.returning(name.value());
            self.service
                .release_name(name)
                .expect("prefilled names are held");
        }
        self.service.held()
    }
}

/// Runs the `inproc-hot` loop over a backend that re-issues one live
/// name once, and returns how many violations the check flagged (it
/// must be exactly 1) and the occupancy left after teardown (0).
pub fn mutant_self_check(seed: u64) -> (u64, usize) {
    const SMALL: usize = 16;
    const HELD: usize = 8;
    let inner: Arc<dyn ServiceBackend> =
        Arc::new(Rebatching::new(SMALL, Epsilon::one(), DEFAULT_BETA).expect("valid parameters"));
    let mutant = ReissueOnce::new(inner, HELD as u64 + 5);
    let service = NameService::with_backend_pool(
        Arc::new(mutant),
        SeedPolicy::Fixed(seed),
        PoolKind::Sharded,
        None,
        AcquireMode::Direct,
    );
    let run = Inproc::prefill(service, HELD, None);
    let measured = run.measure(1, Duration::from_secs(5), 64);
    (measured.violations, run.teardown())
}
