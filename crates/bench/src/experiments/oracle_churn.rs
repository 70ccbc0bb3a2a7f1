//! Oracle-checked churn: the concurrency oracle's vector-clock history
//! checker, run as an experiment over the whole service matrix.
//!
//! Not a paper claim — this experiment gates on **verdicts, not
//! timing**. For every algorithm selectable through `NameServiceBuilder`
//! and every acquire path (the direct per-thread checkout and the
//! flat-combining front-end), real OS threads
//! churn acquire/drop cycles against an oracle-instrumented service
//! while the main thread takes a Chandy–Lamport-style snapshot mid-run.
//! Each cell must replay to a clean verdict: no overlapping holds under
//! happens-before, names in bounds, capacity respected at every cut,
//! worker conservation intact, and everything drained at exit.
//!
//! Two companions keep the verdict honest:
//!
//! * a **seeded-violation self-check** drives an out-of-bounds win, a
//!   capacity excess and a double issue straight into a recorder and
//!   asserts the checker flags all three — a checker that cannot fail
//!   is not a check;
//! * an **overhead axis** measures checked-vs-unchecked ops/sec for
//!   every backend on the direct path, pricing the recording layer.
//!   The oracle-off rows use the exact code path CI's stability diff
//!   watches, so "zero cost when off" stays an enforced property, not
//!   a slogan.
//!
//! Results land in `BENCH_oracle.json`; the overhead table is also
//! merged into `BENCH_service.json` (key `oracle_overhead`) when that
//! artifact is present, so the service perf trajectory and the price of
//! checking it travel together.

use std::fmt::Write as _;
use std::time::Instant;

use serde_json::{json, Value};

use renaming_analysis::Table;
use renaming_service::{AcquireMode, Algorithm, NameService, Oracle, SeedPolicy, Violation};

use crate::experiments::{header, verdict};
use crate::Harness;

/// Where the JSON artifact lands (relative to the working directory).
pub const ARTIFACT_PATH: &str = "BENCH_oracle.json";

/// Capacity every checked service is provisioned for; small enough that
/// the post-run replay (linear in recorded events, with per-event clock
/// comparisons against every participant) stays cheap on CI boxes.
const CAPACITY: usize = 16;

/// Timed repetitions per overhead point; best ops/sec reported, as in
/// the service throughput experiment.
const OVERHEAD_REPS: usize = 3;

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

/// `threads` OS threads each run `ops_per_thread` acquire/drop cycles
/// against one shared service (the same hammer the service throughput
/// experiment times).
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

/// One oracle-checked churn cell: churn on `threads` threads with a
/// snapshot taken mid-run from the main thread, then replay the full
/// history. Returns `(verdict_is_clean, wins, events, snapshots_consistent)`.
fn checked_churn(
    service: &NameService,
    threads: usize,
    ops_per_thread: usize,
) -> (bool, u64, u64, bool) {
    let oracle = service.oracle().expect("oracle enabled").clone();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..ops_per_thread {
                    let guard = service.acquire().expect("within capacity");
                    std::hint::black_box(guard.value());
                }
            });
        }
        // A consistent cut taken while the churn is in full flight.
        oracle.snapshot();
    });
    let verdict = service.oracle_verdict().expect("oracle enabled");
    let snapshots_ok = !verdict.history.snapshots.is_empty()
        && verdict.history.snapshots.iter().all(|s| s.consistent);
    let clean = verdict.is_clean() && verdict.drained() && verdict.history.complete;
    (clean, verdict.history.wins, verdict.history.events as u64, snapshots_ok)
}

/// The seeded-violation self-check: drive an out-of-bounds win, a
/// capacity excess and a double issue straight into a fresh recorder;
/// the checker must flag all three classes.
fn injected_violations_detected() -> bool {
    let oracle = Oracle::new(4, 2);
    oracle.acquire_start();
    oracle.acquire_win(7); // namespace is 0..4
    for name in 0..2 {
        oracle.acquire_start();
        oracle.acquire_win(name);
    }
    oracle.acquire_start();
    oracle.acquire_win(0); // name 0 is still held: a double issue
    let report = oracle.verdict();
    let bounds = report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::NameOutOfBounds { .. }));
    let capacity = report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::CapacityExceeded { .. }));
    let overlap = report.violations.iter().any(|v| {
        matches!(
            v,
            Violation::DoubleIssue { .. } | Violation::OverlappingHolds { .. }
        )
    });
    bounds && capacity && overlap
}

/// The `oracle_churn` experiment: oracle-checked churn verdicts for
/// every algorithm × {direct, combining}, a seeded-violation
/// self-check, and a checked-vs-unchecked overhead axis. Writes
/// `BENCH_oracle.json` and merges the overhead table into
/// `BENCH_service.json` when present. The PASS gate is verdicts, not
/// timing.
pub fn oracle_churn(h: &mut Harness) -> String {
    let mut out = header(
        "oracle_churn",
        "Oracle: every backend and acquire mode replays to a clean vector-clock verdict under churn (tooling)",
    );
    let ops_per_thread = if h.quick() { 400 } else { 4_000 };
    let overhead_ops = if h.quick() { 5_000 } else { 40_000 };
    let threads = h.threads().clamp(2, CAPACITY);
    let overhead_threads = h.threads().clamp(1, CAPACITY);
    let mode_labels = ["direct", "combining"];

    let mut table = Table::new(["backend", "mode", "threads", "wins", "events", "verdict"]);
    let mut rows: Vec<Value> = Vec::new();
    let mut all_clean = true;
    let mut all_snapshots_consistent = true;

    for algorithm in Algorithm::all() {
        for &mode_label in &mode_labels {
            let mode = if mode_label == "direct" {
                AcquireMode::Direct
            } else {
                AcquireMode::Combining
            };
            let service = NameService::builder(algorithm, CAPACITY)
                .acquire_mode(mode)
                .oracle(true)
                .seed_policy(SeedPolicy::Fixed(h.seed()))
                .build()
                .expect("service builds for every algorithm and mode");
            let backend_label = service.algorithm();
            let (clean, wins, events, snapshots_ok) =
                checked_churn(&service, threads, ops_per_thread);
            all_clean &= clean;
            all_snapshots_consistent &= snapshots_ok;
            table.row([
                backend_label.to_string(),
                mode_label.to_string(),
                threads.to_string(),
                wins.to_string(),
                events.to_string(),
                if clean { "clean".into() } else { "VIOLATED".to_string() },
            ]);
            rows.push(json!({
                "backend": backend_label,
                "mode": mode_label,
                "threads": threads,
                "ops_per_thread": ops_per_thread,
                "wins": wins,
                "events": events,
                "clean": clean,
                "snapshots_consistent": snapshots_ok
            }));
            h.record(
                "oracle_churn",
                json!({
                    "backend": backend_label,
                    "mode": mode_label,
                    "threads": threads,
                    "capacity": CAPACITY
                }),
                json!({"wins": wins, "events": events, "clean": clean}),
            );
        }
    }

    // ---- Checked-vs-unchecked overhead, direct path, per backend. ----
    //
    // Both cells are measured back-to-back so machine-wide drift
    // cancels out of the ratio. The oracle-off cell is the stock
    // service — the same configuration CI's stability diff tracks.
    let mut overhead_table = Table::new(["backend", "off Kops/s", "on Kops/s", "on/off"]);
    let mut overhead_rows: Vec<Value> = Vec::new();
    for algorithm in Algorithm::all() {
        let plain = NameService::builder(algorithm, CAPACITY)
            .seed_policy(SeedPolicy::Fixed(h.seed()))
            .build()
            .expect("service builds");
        let off = best_of(&plain, overhead_threads, overhead_ops, OVERHEAD_REPS);
        let checked = NameService::builder(algorithm, CAPACITY)
            .oracle(true)
            .seed_policy(SeedPolicy::Fixed(h.seed()))
            .build()
            .expect("service builds");
        let on = best_of(&checked, overhead_threads, overhead_ops, OVERHEAD_REPS);
        let ratio = on.ops_per_sec() / off.ops_per_sec().max(f64::MIN_POSITIVE);
        overhead_table.row([
            plain.algorithm().to_string(),
            format!("{:.0}", off.ops_per_sec() / 1e3),
            format!("{:.0}", on.ops_per_sec() / 1e3),
            format!("{ratio:.2}"),
        ]);
        overhead_rows.push(json!({
            "backend": plain.algorithm(),
            "threads": overhead_threads,
            "ops": off.ops,
            "unchecked_ops_per_sec": off.ops_per_sec(),
            "checked_ops_per_sec": on.ops_per_sec(),
            "checked_over_unchecked": ratio
        }));
        h.record(
            "oracle_churn",
            json!({
                "backend": plain.algorithm(),
                "axis": "overhead",
                "threads": overhead_threads,
                "capacity": CAPACITY
            }),
            json!({
                "unchecked_ops_per_sec": off.ops_per_sec(),
                "checked_ops_per_sec": on.ops_per_sec(),
                "checked_over_unchecked": ratio
            }),
        );
    }

    let injections_caught = injected_violations_detected();
    let _ = writeln!(
        out,
        "seeded violations (out-of-bounds win, capacity excess, double issue) detected: {injections_caught}"
    );

    let artifact = json!({
        "experiment": "oracle_churn",
        "mode": if h.quick() { "quick" } else { "full" },
        "seed": h.seed(),
        "capacity": CAPACITY,
        "threads": threads,
        "ops_per_thread": ops_per_thread,
        "reproduce": format!(
            "cargo run -p renaming-bench --release --bin experiments -- oracle_churn{} --seed {} --threads {}",
            if h.quick() { " --quick" } else { "" },
            h.seed(),
            h.threads()
        ),
        "verdict_rows": rows,
        "oracle_overhead": &overhead_rows,
        "injected_violations_detected": injections_caught
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

    // Merge the overhead table into the service perf artifact, so the
    // price of checking travels with the trajectory it prices.
    match std::fs::read_to_string(super::service_throughput::ARTIFACT_PATH) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(mut service_artifact) => {
                if let Value::Object(pairs) = &mut service_artifact {
                    let merged = json!(overhead_rows);
                    match pairs.iter_mut().find(|(k, _)| k == "oracle_overhead") {
                        Some((_, slot)) => *slot = merged,
                        None => pairs.push(("oracle_overhead".to_string(), merged)),
                    }
                }
                match serde_json::to_string(&service_artifact) {
                    Ok(merged) => {
                        match std::fs::write(
                            super::service_throughput::ARTIFACT_PATH,
                            merged + "\n",
                        ) {
                            Ok(()) => {
                                let _ = writeln!(
                                    out,
                                    "merged oracle_overhead into {}",
                                    super::service_throughput::ARTIFACT_PATH
                                );
                            }
                            Err(e) => {
                                let _ = writeln!(out, "could not update service artifact: {e}");
                            }
                        }
                    }
                    Err(e) => {
                        let _ = writeln!(out, "could not serialize service artifact: {e}");
                    }
                }
            }
            Err(e) => {
                let _ = writeln!(out, "service artifact unreadable, not merged: {e}");
            }
        },
        Err(_) => {
            let _ = writeln!(
                out,
                "{} not present, overhead kept in {ARTIFACT_PATH} only",
                super::service_throughput::ARTIFACT_PATH
            );
        }
    }

    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "{overhead_table}");
    out.push_str(&verdict(
        all_clean && all_snapshots_consistent && injections_caught,
        "every backend x acquire-mode cell replayed to a clean, drained, complete verdict with consistent mid-churn snapshots, and every seeded violation was flagged",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_violations_never_pass_silently() {
        assert!(injected_violations_detected());
    }

    #[test]
    fn quick_mode_checks_every_backend_and_mode() {
        let mut h = Harness::with_threads(true, 5, 2);
        let report = oracle_churn(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
        for label in [
            "rebatching",
            "adaptive-rebatching",
            "fast-adaptive-rebatching",
            "uniform",
            "linear-scan",
            "single-batch",
            "doubling-uniform",
            " direct ",
            " combining ",
            "detected: true",
        ] {
            assert!(report.contains(label), "missing {label} in:\n{report}");
        }
        assert!(!report.contains("VIOLATED"), "{report}");
    }
}
