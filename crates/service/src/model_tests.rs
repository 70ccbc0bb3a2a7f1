//! Model-checked suites over the *real* concurrency layer.
//!
//! Compiled only under `RUSTFLAGS="--cfg renaming_model"` (see
//! [`crate::sync_shim`]): the slot table, wait cell, sharded pool and
//! combiner below are the production structs, whose atomics and
//! park/unpark calls resolve to the [`renaming_model`] shim — every
//! interleaving the checker explores is an interleaving of the shipped
//! code, and every cross-thread read is audited by the vector-clock
//! race detector.
//!
//! The `crates/model/tests/` suites prove the *protocols* (on distilled
//! models, exhaustively, with seeded mutants); these tests prove the
//! *implementations* follow them. The small structures are explored
//! exhaustively; the full combiner end-to-end runs under an explicit
//! interleaving cap (its state space includes the whole acquire
//! machinery) and asserts cleanliness over that window.

use std::sync::Arc;
use std::time::Duration;

use renaming_model::{thread, Checker};

use crate::pool::ShardedPool;
use crate::slots::{SlotPoll, SlotTable};

/// The real publish → engage → park / fill → notify handshake, on the
/// production `RequestSlot` + `WaitCell` (thread-waiter registration,
/// SeqCst Dekker pair, Release disengage): the waiter always observes
/// its verdict, in every interleaving, with no race reports.
#[test]
fn real_wait_cell_handshake_delivers_every_verdict() {
    let report = Checker::new().check(|| {
        let table = SlotTable::new(2);
        // A fresh table's first slot stands in for this thread's lease
        // (the thread-local lease table would outlive the execution).
        let index = 0;
        table.slot(index).wait.install_thread();

        let server = Arc::clone(&table);
        let combiner = thread::spawn(move || {
            let slot = server.slot(index);
            while !slot.take_for_service() {
                thread::yield_now();
            }
            if let Some(waiter) = slot.fill(Some(3)) {
                waiter.unpark();
            }
        });

        let slot = table.slot(index);
        slot.publish();
        // The sync wait loop from `Combiner::acquire`, minus the lock
        // re-contention (there is no combiner lock in this scenario).
        loop {
            match slot.poll() {
                SlotPoll::Done(value) => {
                    assert_eq!(value, 3);
                    slot.finish();
                    break;
                }
                SlotPoll::Failed => unreachable!("fill carried a name"),
                SlotPoll::Waiting => {
                    slot.wait.engage();
                    if slot.in_flight() {
                        thread::park_timeout(Duration::from_micros(500));
                    }
                    slot.wait.disengage();
                }
            }
        }
        combiner.join().unwrap();
        table.release(index);
    });
    println!(
        "service-model/wait-handshake: {} interleavings (complete: {})",
        report.interleavings, report.complete
    );
    report.assert_clean();
    assert!(report.complete, "real handshake must be explored exhaustively");
}

/// The real `ShardedPool` under a two-thread checkout/checkin race on
/// one shard: no worker conservation violation (`created == pooled +
/// retired` after quiescence) in any interleaving, and every
/// cross-thread pointer read carries a happens-before edge (the
/// Acquire/AcqRel strengthening documented in ARCHITECTURE.md).
#[test]
fn real_pool_churn_conserves_items() {
    let report = Checker::new().check(|| {
        let pool = Arc::new(ShardedPool::<u32>::new(1));
        pool.checkin(Box::new(1));

        let churners: Vec<_> = (0..2u32)
            .map(|i| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    // Checkout (stealing the seeded item or creating a
                    // fresh one), touch, checkin — the service's
                    // direct-path worker cycle.
                    let (item, created) = match pool.checkout() {
                        Some(item) => (item, 0u64),
                        None => (Box::new(10 + i), 1u64),
                    };
                    pool.checkin(item);
                    created
                })
            })
            .collect();
        let created: u64 = 1 + churners
            .into_iter()
            .map(|t| t.join().unwrap())
            .sum::<u64>();

        assert_eq!(
            pool.pooled() as u64 + pool.retired(),
            created,
            "pool conservation violated after quiescence"
        );
    });
    println!(
        "service-model/pool-churn: {} interleavings (complete: {})",
        report.interleavings, report.complete
    );
    report.assert_clean();
    assert!(report.complete, "real pool churn must be explored exhaustively");
}

/// End-to-end: two threads drive `NameService::acquire` through the
/// real combining front-end (lock election, slot publication, drain,
/// resident-worker handoff). The state space includes the whole acquire
/// machinery, so this runs under an explicit interleaving cap rather
/// than to exhaustion; within the window every interleaving must
/// produce two distinct names, preserve worker conservation, and report
/// no races, deadlocks or livelocks.
#[test]
fn real_combiner_two_acquirers_stay_conservative() {
    let report = Checker::new()
        .max_interleavings(400)
        .max_steps(20_000)
        .random_iterations(0)
        .check(|| {
            let service = Arc::new(
                crate::NameService::builder(crate::Algorithm::Rebatching, 8)
                    .acquire_mode(crate::AcquireMode::Combining)
                    .seed_policy(crate::SeedPolicy::Fixed(7))
                    .build()
                    .expect("build"),
            );

            let acquirers: Vec<_> = (0..2)
                .map(|_| {
                    let service = Arc::clone(&service);
                    thread::spawn(move || {
                        let guard = service.acquire().expect("within capacity");
                        guard.value()
                        // guard drops here -> name released
                    })
                })
                .collect();
            let mut names: Vec<usize> = acquirers
                .into_iter()
                .map(|t| t.join().unwrap())
                .collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 2, "concurrent acquires must win distinct names");
            assert_eq!(service.held(), 0, "both guards released");

            assert_eq!(
                service.pooled_workers() + service.resident_workers(),
                service.worker_count(),
                "worker conservation violated after quiescence"
            );
        });
    println!(
        "service-model/combiner-end-to-end: {} interleavings (complete: {})",
        report.interleavings, report.complete
    );
    report.assert_clean();
}

/// The wire server's batch call against a single sync acquire: one
/// thread takes two names through `NameService::acquire_many` (a won
/// combiner lock serves both in one `acquire_batch` sweep; a lost one
/// falls back to per-name combining acquires) while another thread
/// takes one through the combining `acquire_name`. Run under the same
/// interleaving cap as the two-acquirer suite plus a seeded random
/// tail: in every interleaving
/// the three names held together are distinct, and once both threads
/// are joined every worker is pooled, retired or resident.
#[test]
fn real_combiner_batch_races_a_single_acquire() {
    let report = Checker::new()
        .max_interleavings(400)
        .max_steps(20_000)
        // The DFS window varies late scheduling choices; the seeded
        // random tail is what preempts the batcher before its lock CAS,
        // sending it down the contended per-name fallback too.
        .random_iterations(200)
        .check(|| {
            let service = Arc::new(
                crate::NameService::builder(crate::Algorithm::Rebatching, 8)
                    .acquire_mode(crate::AcquireMode::Combining)
                    .seed_policy(crate::SeedPolicy::Fixed(7))
                    .build()
                    .expect("build"),
            );

            let batcher = {
                let service = Arc::clone(&service);
                thread::spawn(move || {
                    let mut names = Vec::new();
                    service.acquire_many(2, &mut names).expect("within capacity");
                    names
                })
            };
            let single = {
                let service = Arc::clone(&service);
                thread::spawn(move || service.acquire_name().expect("within capacity"))
            };
            let mut names = batcher.join().unwrap();
            assert_eq!(names.len(), 2, "the batch returns every name it asked for");
            names.push(single.join().unwrap());
            let mut values: Vec<usize> = names.iter().map(|name| name.value()).collect();
            values.sort_unstable();
            values.dedup();
            assert_eq!(values.len(), 3, "names held together must be distinct");
            for name in names {
                service.release_name(name).expect("release");
            }
            assert_eq!(service.held(), 0, "every name released");

            assert_eq!(
                service.pooled_workers() as u64
                    + service.retired_workers()
                    + service.resident_workers() as u64,
                service.worker_count() as u64,
                "worker conservation violated after quiescence"
            );
        });
    println!(
        "service-model/combiner-batch-vs-single: {} interleavings (complete: {})",
        report.interleavings, report.complete
    );
    report.assert_clean();
}
