//! Smoke test of the benchmark itself: every workload, at the shortest
//! run length, prints every metric BENCHMARK.json names, with its unit,
//! passes its correctness check, and flags the seeded mutant. The
//! workloads are BENCHMARK.json's and [`DIAGNOSTIC`], which the benchmark
//! runs but BENCHMARK.json does not gate.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

use serde_json::Value;

/// The workload the benchmark runs for its latency budget but
/// BENCHMARK.json leaves out: its medians drift with the host by more
/// than the bounds.
const DIAGNOSTIC: &str = "wire-serial";

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key}: expected a string in {value:?}"))
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

/// Runs one workload at the minimum length; returns its report and the
/// metrics of its last line.
fn run(workload: &str, trace: &str) -> (String, Vec<(String, Value)>) {
    let args = format!("--workload {workload} --seed 7 --seconds 1 --trace {trace}");
    let out = perfbench(&args.split(' ').collect::<Vec<_>>());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last: Value = serde_json::from_str(stdout.lines().last().expect("a report"))
        .expect("the last line is JSON");
    let keys: Vec<&str> = match &last {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("last line is not an object: {other:?}"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
    assert!(last.get("attempted").and_then(Value::as_u64) >= Some(1));
    for needle in [
        "# host: available_parallelism=",
        "# reproduce: cargo run --release --offline --manifest-path perfbench/Cargo.toml -- ",
        "fail_ratio = 0 (",
        "self-check: mutant re-issue of a live name flagged (1 violation(s) flagged",
    ] {
        assert!(
            stdout.contains(needle),
            "{workload}: no {needle:?} in\n{stdout}"
        );
    }
    assert!(
        stdout.contains("# pinned to core ") || stdout.contains("# not pinned ("),
        "{workload}: the header does not say whether the run is pinned:\n{stdout}"
    );
    let metrics = match last.get("metrics") {
        Some(Value::Object(pairs)) => pairs.clone(),
        other => panic!("metrics: {other:?}"),
    };
    (stdout, metrics)
}

fn assert_metrics_match(workload: &str, listed: &[Value], printed: &[(String, Value)]) {
    let listed: Vec<(&str, &str)> = listed
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    let printed_names: Vec<&str> = printed.iter().map(|(name, _)| name.as_str()).collect();
    let listed_names: Vec<&str> = listed.iter().map(|&(name, _)| name).collect();
    assert_eq!(printed_names, listed_names, "{workload}: metric names");
    for ((name, metric), (_, unit)) in printed.iter().zip(&listed) {
        assert_eq!(text(metric, "unit"), *unit, "{workload}: unit of {name}");
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: value of {name}"
        );
    }
}

fn value_of(metrics: &[(String, Value)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, m)| m.get("value").and_then(Value::as_f64))
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark_json();
    let gated: Vec<&str> = array(&bench, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert!(!gated.contains(&DIAGNOSTIC), "{DIAGNOSTIC} is gated");
    let mut probes = Vec::new();
    for workload in gated.into_iter().chain([DIAGNOSTIC]) {
        let (report, end_to_end) = run(workload, "0");
        assert_metrics_match(workload, array(&bench, "end_to_end"), &end_to_end);
        for line in ["acquire_p99_us = ", "release_p99_us = "] {
            assert!(
                report.contains(line),
                "{workload}: no {line:?} in\n{report}"
            );
        }
        for (name, _) in &end_to_end {
            assert!(value_of(&end_to_end, name) > 0.0, "{workload}: {name} is 0");
        }

        let (report, per_layer) = run(workload, "1");
        assert_metrics_match(workload, array(&bench, "per_layer"), &per_layer);
        assert!(value_of(&per_layer, "core.names_won") > 0.0, "{workload}");
        if workload.starts_with("wire-") {
            assert!(
                value_of(&per_layer, "net.echo_rtt_p50_us") > 0.0,
                "{workload}"
            );
            assert!(
                report.contains("latency budget of acquire_p50_us"),
                "{report}"
            );
            assert!(report.contains("unattributed"), "{report}");
        }
        probes.push((
            workload.to_string(),
            value_of(&per_layer, "tas.probes_per_acquire"),
        ));
    }
    let probes_of = |name: &str| {
        probes
            .iter()
            .find(|(w, _)| w == name)
            .map(|&(_, p)| p)
            .expect("workload measured")
    };
    assert!(
        probes_of("inproc-hot") > probes_of(DIAGNOSTIC),
        "90% occupancy must cost more probes per acquire than a near-empty server: {probes:?}"
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload inproc-hot --seed 1 --seconds 1",
        "--workload inproc-hot --seed 1 --seconds 1 --trace 2",
    ] {
        let out = perfbench(&args.split(' ').collect::<Vec<_>>());
        assert!(!out.status.success(), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
    }
}
