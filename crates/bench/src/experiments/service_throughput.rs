//! Service throughput: acquire/release operations per second through the
//! `NameService` front-end, across backends, session pools, TAS
//! substrates and thread counts.
//!
//! Not a paper claim — this experiment tracks the service layer the API
//! redesign introduced: real OS threads hammer one `NameService` with
//! acquire/drop cycles (guard drop releases the name), for every
//! algorithm selectable through `NameServiceBuilder` on the atomic TAS
//! backend, once per session-pool implementation (the sharded lock-free
//! pool vs the original `Mutex<Vec<_>>` checkout). The thread axis is
//! driven by the harness's `--threads` flag (powers of two up to it)
//! rather than a pinned 1/2/4.
//!
//! The run also sweeps the **acquire-mode axis** — the direct per-thread
//! checkout path and the flat-combining front-end
//! (`AcquireMode::Combining`) — back-to-back per (backend, threads)
//! cell, recording both curves and their ratio in the artifact's
//! `mode_comparison` section.
//!
//! Since the register substrate became long-lived, the run also sweeps
//! the **tournament backend under acquire/release churn** for the
//! paper's three algorithms — every cycle recycles its name through the
//! epoch-stamped tree reset — and proves the O(1) reset claim directly:
//! using the tournament's register-operation instrumentation, it asserts
//! that a reset performs *zero* node register operations (an epoch bump,
//! not an `O(node_count)` rebuild).
//!
//! Beyond raw ops/sec, the run is a correctness soak: every cycle must
//! succeed within capacity, and every namespace must drain to zero held
//! names at the end.
//!
//! Results land in the harness records and in `BENCH_service.json` — the
//! CI artifact tracking the service's perf trajectory across PRs,
//! including the pooled-vs-sharded scaling curves side by side and the
//! tournament churn curves.

use std::fmt::Write as _;
use std::time::Instant;

use serde_json::{json, Value};

use renaming_analysis::Table;
use renaming_service::{AcquireMode, Algorithm, NameService, PoolKind, SeedPolicy, TasBackend};
use renaming_tas::rwtas::TournamentTas;
use renaming_tas::{ResettableTas, Tas, TicketTas};

use crate::experiments::{header, verdict};
use crate::Harness;

/// Where the JSON artifact lands (relative to the working directory).
pub const ARTIFACT_PATH: &str = "BENCH_service.json";

/// Capacity every atomic-backend service is provisioned for; thread
/// counts stay below it so each acquire must succeed.
const CAPACITY: usize = 64;

/// Capacity for the tournament-backend churn cells. Smaller: every slot
/// carries an `O(capacity)`-node register tree and each probe costs
/// `Θ(log capacity)` register operations.
const TOURNAMENT_CAPACITY: usize = 16;

/// Timed repetitions per (backend, pool, threads) point; the best
/// ops/sec is reported, as in the engine throughput experiment, so a
/// descheduled rep does not masquerade as a slow pool. The two pools
/// are measured back-to-back within each (backend, threads) cell so
/// slow machine-wide drift cancels out of their ratio.
const REPS: usize = 5;

/// Repetitions for the (much slower) tournament churn cells.
const TOURNAMENT_REPS: usize = 3;

/// Repetitions for the acquire-mode axis. The direct/combining contrast
/// is the finest one measured here (single-digit percent at 1 thread),
/// so it gets more best-of reps than the pool axis for the scheduler
/// noise to wash out.
const MODE_REPS: usize = 9;

struct Measurement {
    ops: u64,
    seconds: f64,
}

impl Measurement {
    fn ops_per_sec(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.ops as f64 / self.seconds
        }
    }
}

/// The thread axis: powers of two up to the harness's `--threads`
/// setting, always ending exactly there (so `--threads 6` sweeps
/// 1, 2, 4, 6). Replaces the previously pinned 1/2/4.
fn thread_sweep(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut counts = Vec::new();
    let mut t = 1;
    while t < max {
        counts.push(t);
        t *= 2;
    }
    counts.push(max);
    counts
}

/// `threads` OS threads each run `ops_per_thread` acquire/drop cycles
/// against one shared service. The timed region includes thread
/// spawn/join — a fixed cost identical for both pools, so it dilutes
/// the sharded/mutex ratio slightly toward 1.0 (the reported advantage
/// is a floor, not a ceiling).
fn hammer(service: &NameService, threads: usize, ops_per_thread: usize) -> Measurement {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                for _ in 0..ops_per_thread {
                    let guard = service.acquire().expect("within capacity");
                    std::hint::black_box(guard.value());
                    // guard drop -> release
                }
            });
        }
    });
    Measurement {
        ops: (threads * ops_per_thread) as u64,
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn best_of(service: &NameService, threads: usize, ops_per_thread: usize, reps: usize) -> Measurement {
    // Warm the worker pool (first acquires construct sessions).
    hammer(service, threads, 50);
    let mut best = hammer(service, threads, ops_per_thread);
    for _ in 1..reps {
        let m = hammer(service, threads, ops_per_thread);
        if m.ops_per_sec() > best.ops_per_sec() {
            best = m;
        }
    }
    best
}

fn pool_label(pool: PoolKind) -> &'static str {
    match pool {
        PoolKind::Sharded => "sharded",
        PoolKind::Mutex => "mutex",
    }
}

/// The `service_throughput` experiment: acquire/release ops/sec through
/// `NameService` for every atomic-backend algorithm (both session pools)
/// and for the paper algorithms on the long-lived tournament substrate,
/// across a `--threads`-driven sweep, plus a post-run drain check, a
/// sharded-vs-mutex comparison per backend and an O(1)-reset proof for
/// the register trees. Writes `BENCH_service.json`.
pub fn service_throughput(h: &mut Harness) -> String {
    let mut out = header(
        "service_throughput",
        "Service: NameService acquire/release ops/sec per backend, pool, TAS substrate (tooling)",
    );
    let ops_per_thread = if h.quick() { 10_000 } else { 60_000 };
    let thread_counts = thread_sweep(h.threads().min(CAPACITY));
    let max_threads = *thread_counts.last().expect("non-empty");
    let pools = [PoolKind::Mutex, PoolKind::Sharded];

    let mut table = Table::new(["backend", "tas", "pool", "threads", "ops", "Kops/s", "drained"]);
    let mut rows: Vec<Value> = Vec::new();
    let mut comparison: Vec<Value> = Vec::new();
    let mut all_drained = true;
    let mut sharded_wins_at_max = 0usize;
    let mut backends = 0usize;

    for algorithm in Algorithm::all() {
        backends += 1;
        // ops/sec by (pool, threads) for this backend's comparison row.
        let mut curve = vec![vec![0.0f64; thread_counts.len()]; pools.len()];
        let mut backend_label = "";
        for (thread_idx, &threads) in thread_counts.iter().enumerate() {
            for (pool_idx, &pool) in pools.iter().enumerate() {
                let service = NameService::builder(algorithm, CAPACITY)
                    .pool_kind(pool)
                    .seed_policy(SeedPolicy::Fixed(h.seed()))
                    .build()
                    .expect("service builds for every algorithm");
                let best = best_of(&service, threads, ops_per_thread, REPS);
                let drained = service.held() == 0;
                all_drained &= drained;
                backend_label = service.algorithm();
                curve[pool_idx][thread_idx] = best.ops_per_sec();
                table.row([
                    service.algorithm().to_string(),
                    "atomic".to_string(),
                    pool_label(pool).to_string(),
                    threads.to_string(),
                    best.ops.to_string(),
                    format!("{:.0}", best.ops_per_sec() / 1e3),
                    if drained { "yes".into() } else { "NO".to_string() },
                ]);
                rows.push(json!({
                    "backend": service.algorithm(),
                    "tas": "atomic",
                    "pool": pool_label(pool),
                    "pool_shards": service.pool_shard_count(),
                    "threads": threads,
                    "ops": best.ops,
                    "ops_per_sec": best.ops_per_sec(),
                    "drained": drained
                }));
                h.record(
                    "service_throughput",
                    json!({
                        "backend": service.algorithm(),
                        "tas": "atomic",
                        "pool": pool_label(pool),
                        "threads": threads,
                        "capacity": CAPACITY
                    }),
                    json!({"ops": best.ops, "ops_per_sec": best.ops_per_sec(), "drained": drained}),
                );
            }
        }
        let (mutex, sharded) = (&curve[0], &curve[1]);
        let at_1 = sharded[0] / mutex[0].max(f64::MIN_POSITIVE);
        let at_max = sharded[thread_counts.len() - 1]
            / mutex[thread_counts.len() - 1].max(f64::MIN_POSITIVE);
        if at_max > 1.0 {
            sharded_wins_at_max += 1;
        }
        comparison.push(json!({
            "backend": backend_label,
            "threads": thread_counts.clone(),
            "mutex_ops_per_sec": mutex,
            "sharded_ops_per_sec": sharded,
            "sharded_over_mutex_at_1_thread": at_1,
            "sharded_over_mutex_at_max_threads": at_max
        }));
        let _ = writeln!(
            out,
            "{algorithm:?}: sharded/mutex = {at_1:.2}x at 1 thread, {at_max:.2}x at {max_threads} threads",
        );
    }

    // ---- Acquire-mode axis: direct vs combining. ----
    //
    // Same backends, sharded pool, both acquire paths measured
    // back-to-back within each (backend, threads) cell so machine-wide
    // drift cancels out of the ratios over direct. At one thread the
    // combiner forms batches of one (the direct path with a slot
    // round-trip); under contention one combiner drains many requests
    // through a single checked-out session, amortizing checkout and —
    // for the rebatching machines — resuming the winning batch instead
    // of rescanning from batch zero (`BatchAcquire::rearm_after_win`).
    let mut mode_table = Table::new(["backend", "mode", "threads", "ops", "Kops/s", "drained"]);
    let mut mode_rows: Vec<Value> = Vec::new();
    let mut mode_comparison: Vec<Value> = Vec::new();
    let mode_labels = ["direct", "combining"];
    for algorithm in Algorithm::all() {
        let mut curve = vec![vec![0.0f64; thread_counts.len()]; mode_labels.len()];
        let mut backend_label = "";
        for (thread_idx, &threads) in thread_counts.iter().enumerate() {
            for (mode_idx, &mode_label) in mode_labels.iter().enumerate() {
                let mode = if mode_label == "direct" {
                    AcquireMode::Direct
                } else {
                    AcquireMode::Combining
                };
                let service = NameService::builder(algorithm, CAPACITY)
                    .acquire_mode(mode)
                    .seed_policy(SeedPolicy::Fixed(h.seed()))
                    .build()
                    .expect("service builds in every acquire mode");
                backend_label = service.algorithm();
                let best = best_of(&service, threads, ops_per_thread, MODE_REPS);
                let drained = service.held() == 0;
                all_drained &= drained;
                curve[mode_idx][thread_idx] = best.ops_per_sec();
                mode_table.row([
                    backend_label.to_string(),
                    mode_label.to_string(),
                    threads.to_string(),
                    best.ops.to_string(),
                    format!("{:.0}", best.ops_per_sec() / 1e3),
                    if drained { "yes".into() } else { "NO".to_string() },
                ]);
                mode_rows.push(json!({
                    "backend": backend_label,
                    "tas": "atomic",
                    "pool": pool_label(PoolKind::Sharded),
                    "mode": mode_label,
                    "threads": threads,
                    "ops": best.ops,
                    "ops_per_sec": best.ops_per_sec(),
                    "drained": drained
                }));
                h.record(
                    "service_throughput",
                    json!({
                        "backend": backend_label,
                        "tas": "atomic",
                        "pool": pool_label(PoolKind::Sharded),
                        "mode": mode_label,
                        "threads": threads,
                        "capacity": CAPACITY
                    }),
                    json!({"ops": best.ops, "ops_per_sec": best.ops_per_sec(), "drained": drained}),
                );
            }
        }
        let (direct, combining) = (&curve[0], &curve[1]);
        let last = thread_counts.len() - 1;
        let at_1 = combining[0] / direct[0].max(f64::MIN_POSITIVE);
        let at_max = combining[last] / direct[last].max(f64::MIN_POSITIVE);
        mode_comparison.push(json!({
            "backend": backend_label,
            "threads": thread_counts.clone(),
            "direct_ops_per_sec": direct,
            "combining_ops_per_sec": combining,
            "combining_over_direct_at_1_thread": at_1,
            "combining_over_direct_at_max_threads": at_max
        }));
        let _ = writeln!(
            out,
            "{algorithm:?}: combining/direct = {at_1:.2}x at 1 thread, {at_max:.2}x at {max_threads} threads",
        );
    }

    // ---- Tournament substrate: acquire/release churn curves. ----
    //
    // Every cycle recycles its name through the slot's epoch-stamped
    // reset; total cycles dwarf both the namespace and every slot's
    // per-epoch ticket window, so these cells double as the long-lived
    // soak for the register substrate.
    let tournament_ops = if h.quick() { 1_000 } else { 8_000 };
    let tournament_threads: Vec<usize> = thread_counts
        .iter()
        .copied()
        .filter(|&t| t <= TOURNAMENT_CAPACITY)
        .collect();
    let mut tournament_rows: Vec<Value> = Vec::new();
    for algorithm in [Algorithm::Rebatching, Algorithm::Adaptive, Algorithm::FastAdaptive] {
        let mut curve = Vec::new();
        for &threads in &tournament_threads {
            let service = NameService::builder(algorithm, TOURNAMENT_CAPACITY)
                .tas_backend(TasBackend::Tournament)
                .seed_policy(SeedPolicy::Fixed(h.seed()))
                .build()
                .expect("tournament service builds");
            assert!(service.supports_release(), "tournament must be long-lived");
            let best = best_of(&service, threads, tournament_ops, TOURNAMENT_REPS);
            let drained = service.held() == 0;
            all_drained &= drained;
            curve.push(best.ops_per_sec());
            table.row([
                service.algorithm().to_string(),
                "tournament".to_string(),
                pool_label(PoolKind::Sharded).to_string(),
                threads.to_string(),
                best.ops.to_string(),
                format!("{:.0}", best.ops_per_sec() / 1e3),
                if drained { "yes".into() } else { "NO".to_string() },
            ]);
            tournament_rows.push(json!({
                "backend": service.algorithm(),
                "tas": "tournament",
                "pool": pool_label(PoolKind::Sharded),
                "threads": threads,
                "capacity": TOURNAMENT_CAPACITY,
                "ops": best.ops,
                "ops_per_sec": best.ops_per_sec(),
                "drained": drained
            }));
            h.record(
                "service_throughput",
                json!({
                    "backend": service.algorithm(),
                    "tas": "tournament",
                    "pool": pool_label(PoolKind::Sharded),
                    "threads": threads,
                    "capacity": TOURNAMENT_CAPACITY
                }),
                json!({"ops": best.ops, "ops_per_sec": best.ops_per_sec(), "drained": drained}),
            );
        }
        let _ = writeln!(
            out,
            "{algorithm:?} over the tournament substrate: {:.0} .. {:.0} Kops/s across {:?} threads (every cycle epoch-resets its slot)",
            curve.first().copied().unwrap_or(0.0) / 1e3,
            curve.last().copied().unwrap_or(0.0) / 1e3,
            tournament_threads,
        );
    }

    // ---- O(1) reset proof, via the counting instrumentation. ----
    //
    // A reset must be a pure epoch bump: win a slot, reset it, and
    // assert the register-operation counters across all of the tree's
    // nodes did not move — i.e. the cost is independent of node_count()
    // — and that the slot is immediately winnable again.
    let slot = TicketTas::new(TournamentTas::new(TOURNAMENT_CAPACITY));
    assert!(slot.test_and_set().won(), "fresh slot must be winnable");
    let ops_before_reset = slot.inner().register_ops();
    slot.reset();
    let reset_register_ops = slot.inner().register_ops() - ops_before_reset;
    let reset_is_epoch_bump = reset_register_ops == 0;
    let reacquired = slot.test_and_set().won();
    let _ = writeln!(
        out,
        "tournament reset: {reset_register_ops} register ops across {} nodes (epoch bump), slot winnable again: {reacquired}",
        slot.inner().node_count(),
    );

    let artifact = json!({
        "experiment": "service_throughput",
        "mode": if h.quick() { "quick" } else { "full" },
        "seed": h.seed(),
        "capacity": CAPACITY,
        "tournament_capacity": TOURNAMENT_CAPACITY,
        "reps": REPS,
        "threads_sweep": thread_counts,
        "reproduce": format!(
            "cargo run -p renaming-bench --release --bin experiments -- service_throughput{} --seed {} --threads {}",
            if h.quick() { " --quick" } else { "" },
            h.seed(),
            h.threads()
        ),
        "rows": rows,
        "pool_comparison": comparison,
        "mode_rows": mode_rows,
        "mode_comparison": mode_comparison,
        "tournament_churn": tournament_rows,
        "tournament_reset": {
            "register_ops": reset_register_ops,
            "node_count": slot.inner().node_count(),
            "is_epoch_bump": reset_is_epoch_bump,
            "reacquired_after_reset": reacquired
        }
    });
    match serde_json::to_string(&artifact) {
        Ok(text) => match std::fs::write(ARTIFACT_PATH, text + "\n") {
            Ok(()) => {
                let _ = writeln!(out, "wrote {ARTIFACT_PATH}");
            }
            Err(e) => {
                let _ = writeln!(out, "could not write {ARTIFACT_PATH}: {e}");
            }
        },
        Err(e) => {
            let _ = writeln!(out, "could not serialize artifact: {e}");
        }
    }

    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "{mode_table}");
    let _ = writeln!(
        out,
        "sharded pool faster than mutex pool at {max_threads} threads on {sharded_wins_at_max}/{backends} backends"
    );
    out.push_str(&verdict(
        all_drained && reset_is_epoch_bump && reacquired,
        "every backend (incl. tournament churn) completed all acquire/release cycles, drained to 0 held names, and reset cost 0 register ops",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_is_driven_by_the_thread_knob() {
        assert_eq!(thread_sweep(1), vec![1]);
        assert_eq!(thread_sweep(2), vec![1, 2]);
        assert_eq!(thread_sweep(4), vec![1, 2, 4]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_sweep(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(thread_sweep(0), vec![1], "clamped to at least one thread");
    }

    #[test]
    fn quick_mode_passes_and_covers_every_backend_pool_and_substrate() {
        let mut h = Harness::with_threads(true, 5, 2);
        let report = service_throughput(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
        for label in [
            "rebatching",
            "adaptive-rebatching",
            "fast-adaptive-rebatching",
            "uniform",
            "linear-scan",
            "single-batch",
            "doubling-uniform",
            " sharded ",
            " mutex ",
            " tournament ",
            " direct ",
            " combining ",
            "combining/direct",
            "epoch bump",
        ] {
            assert!(report.contains(label), "missing {label} in:\n{report}");
        }
    }
}
