//! The repository's benchmark: closed-loop renaming workloads, measured
//! from the caller's side, with a traced run that splits the cost into
//! the TAS, core, service and net layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload inproc-hot|wire-serial|wire-pipelined \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The report goes to standard output; its last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `perfbench/README.md` for what each workload and metric means.

mod affinity;
mod check;
mod hist;
mod inproc;
mod trace;
mod wire;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::hist::Hist;
use crate::inproc::Inproc;
use crate::trace::{CoreSnapshot, CoreTrace, TasProbe};
use crate::wire::{Shape, Wire};

/// Client threads (in-process callers or connections) per workload.
/// One: on a 2-core host a second caller made `inproc-hot` releases
/// bimodal (≈0.08 or ≈0.15 µs per trial) and gave `wire-pipelined` four
/// busy threads (two clients, two handlers) for two cores, so its
/// figures measured the scheduler. `perfbench/RESULTS.md` has the runs.
pub const THREADS: usize = 1;
/// Length of one trial: a fresh set-up, measured this long by a fresh
/// caller thread. A set-up and its threads can draw one of two speeds
/// and mostly keep it (with two callers on a 2-core host: `wire-serial`
/// acquires of ≈12 or ≈17 µs, `inproc-hot` releases of ≈0.08 or
/// ≈0.15 µs), so one long measurement reports whichever it drew. A run
/// measures many short trials instead and reports, for each trial
/// figure, the mean of its middle 80% over the trials ([`TRIM`]). The
/// host also runs in fast and slow phases that last seconds; a median
/// over trials jumps with whichever phase held most of the run, while
/// a mean moves in proportion to the mix. Trimming keeps the few trials
/// a host stall slowed several-fold out of the mean.
/// `perfbench/RESULTS.md` has the runs behind these choices.
const TRIAL: Duration = Duration::from_millis(250);
/// Share of the trials left out at each end before averaging a figure.
const TRIM: f64 = 0.1;

/// The figures each trial yields, with their units; a run reports the
/// trimmed mean over its trials of each. The first [`GATED`] are end-to-end
/// metrics, as is `setup_s`. The p99s after them are printed as report
/// lines only: on `wire-pipelined` they spread by 23% over five runs of
/// the same code where the p95s spread by 4–5% (`perfbench/RESULTS.md`):
/// the slowest 1% of requests are likely the ones a host stall hit.
const FIGURES: [(&str, &str); 7] = [
    ("ops_per_s", "ops/s"),
    ("acquire_p50_us", "us"),
    ("acquire_p95_us", "us"),
    ("release_p50_us", "us"),
    ("release_p95_us", "us"),
    ("acquire_p99_us", "us"),
    ("release_p99_us", "us"),
];
const GATED: usize = 5;
const OPS: usize = 0;
const ACQUIRE_P50: usize = 1;

const USAGE: &str = "usage: perfbench --workload inproc-hot|wire-serial|wire-pipelined \
--seed N --seconds S --trace 0|1";

/// What one measured phase saw from the callers' side.
#[derive(Debug, Default)]
pub struct Measured {
    pub acquire: Hist,
    pub release: Hist,
    /// Operations issued (acquires + releases).
    pub attempted: u64,
    /// Error answers (including `Exhausted`).
    pub errors: u64,
    /// Names the check rejected: out of range, or already live.
    pub violations: u64,
    /// Longest caller's measured time.
    pub wall: Duration,
    /// Client-side encode + decode time (wire workloads, traced only).
    pub codec_ns: u64,
    pub codec_frames: u64,
}

impl Measured {
    /// Pools the callers of one trial, which ran side by side.
    pub fn merge_all(parts: Vec<Measured>) -> Measured {
        let mut total = Measured::default();
        for part in parts {
            total.acquire.merge(&part.acquire);
            total.release.merge(&part.release);
            total.attempted += part.attempted;
            total.errors += part.errors;
            total.violations += part.violations;
            total.wall = total.wall.max(part.wall);
            total.codec_ns += part.codec_ns;
            total.codec_frames += part.codec_frames;
        }
        total
    }

    /// Pools a later trial, which ran after this one.
    fn append(&mut self, trial: Measured) {
        let wall = self.wall + trial.wall;
        *self = Measured::merge_all(vec![std::mem::take(self), trial]);
        self.wall = wall;
    }

    /// Completed acquires + releases per second of measured time.
    fn ops_per_s(&self) -> f64 {
        let completed = self.acquire.count() + self.release.count();
        completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The values of [`FIGURES`], in order.
    fn figures(&self) -> [f64; 7] {
        [
            self.ops_per_s(),
            us(self.acquire.quantile_ns(0.5)),
            us(self.acquire.quantile_ns(0.95)),
            us(self.release.quantile_ns(0.5)),
            us(self.release.quantile_ns(0.95)),
            us(self.acquire.quantile_ns(0.99)),
            us(self.release.quantile_ns(0.99)),
        ]
    }
}

/// Handles on a traced set-up's layers.
pub struct Tracing {
    pub core: Arc<CoreTrace>,
    pub tas: TasProbe,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    InprocHot,
    WireSerial,
    WirePipelined,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::InprocHot,
        Workload::WireSerial,
        Workload::WirePipelined,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::InprocHot => "inproc-hot",
            Workload::WireSerial => "wire-serial",
            Workload::WirePipelined => "wire-pipelined",
        }
    }

    fn is_wire(self) -> bool {
        self != Workload::InprocHot
    }
}

/// One set-up of a workload, ready to measure.
enum Instance {
    Inproc(Inproc),
    Wire(Wire, Shape),
}

impl Instance {
    fn setup(workload: Workload, seed: u64, traced: bool) -> Instance {
        match workload {
            Workload::InprocHot => Instance::Inproc(Inproc::setup(seed, traced)),
            Workload::WireSerial => Instance::Wire(Wire::setup(seed, traced), Shape::Serial),
            Workload::WirePipelined => Instance::Wire(Wire::setup(seed, traced), Shape::Pipelined),
        }
    }

    fn tracing(&self) -> Option<&Tracing> {
        match self {
            Instance::Inproc(run) => run.tracing.as_ref(),
            Instance::Wire(run, _) => run.tracing.as_ref(),
        }
    }

    fn measure(&mut self, duration: Duration) -> Measured {
        let traced = self.tracing().is_some();
        match self {
            Instance::Inproc(run) => run.measure(THREADS, duration, u64::MAX),
            Instance::Wire(run, shape) => run.measure(*shape, duration, traced),
        }
    }

    /// Tears the set-up down and returns the occupancy left (must be 0).
    fn teardown(self) -> usize {
        match self {
            Instance::Inproc(run) => run.teardown(),
            Instance::Wire(run, _) => run.teardown(),
        }
    }
}

/// A run's trials: each one's figures, everything the callers saw
/// pooled, and (traced) what the layers recorded while the callers were
/// measured.
#[derive(Default)]
struct Trials {
    figures: Vec<[f64; 7]>,
    measured: Measured,
    /// Occupancy left after the trials' teardowns, summed (must be 0).
    occupancy: usize,
    core: Option<CoreSnapshot>,
    probes: u64,
    setup_s: Vec<f64>,
}

/// Runs trials of [`TRIAL`] length, each on a fresh set-up with its own
/// seed derived from `seed`, until `total` is used up. `between` runs
/// after each trial's teardown.
fn run_trials(
    workload: Workload,
    seed: u64,
    traced: bool,
    total: Duration,
    mut between: impl FnMut(),
) -> Trials {
    let count = (total.as_secs_f64() / TRIAL.as_secs_f64()).round().max(1.0) as u32;
    let mut trials = Trials::default();
    for k in 0..count {
        let trial_seed = seed.wrapping_add(u64::from(k).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let start = Instant::now();
        let mut instance = Instance::setup(workload, trial_seed, traced);
        trials.setup_s.push(start.elapsed().as_secs_f64());

        let before = instance
            .tracing()
            .map(|t| (t.core.snapshot(), t.tas.probes()));
        let trial = instance.measure(total / count);
        trials.figures.push(trial.figures());
        trials.measured.append(trial);
        let after = instance
            .tracing()
            .map(|t| (t.core.snapshot(), t.tas.probes()));
        if let (Some((core0, probes0)), Some((core1, probes1))) = (before, after) {
            trials
                .core
                .get_or_insert_with(CoreSnapshot::default)
                .absorb(&core1.since(&core0));
            trials.probes += probes1 - probes0;
        }
        trials.occupancy += instance.teardown();
        between();
    }
    trials
}

impl Trials {
    /// The trimmed mean over the trials of `FIGURES[index]`.
    fn figure(&self, index: usize) -> f64 {
        let mut values: Vec<f64> = self.figures.iter().map(|f| f[index]).collect();
        trimmed_mean(&mut values)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout, when it is a git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git in the working directory)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

fn print_header(args: &Args, cores: usize, pinned: &Result<usize, String>) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: available_parallelism={cores} os={} arch={} commit={}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        commit()
    );
    match pinned {
        Ok(core) => println!("# pinned to core {core}: every thread of the run shares it"),
        Err(why) => println!("# not pinned ({why}): threads may spread over the cores"),
    }
    println!(
        "# reproduce: cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
         --workload {} --seed {} --seconds {} --trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
}

/// The metrics of the last line, in order, with their units.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name} = {value} {unit}");
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        name.to_string(),
                        serde_json::json!({ "value": value, "unit": unit }),
                    )
                })
                .collect(),
        )
    }
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The mean of `values` without the lowest and highest [`TRIM`] share.
fn trimmed_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = (values.len() as f64 * TRIM) as usize;
    let kept = &values[cut..values.len() - cut];
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Untraced run: the end-to-end metrics.
fn end_to_end(args: &Args, metrics: &mut Metrics) -> Vec<Trials> {
    let mut trials = run_trials(
        args.workload,
        args.seed,
        false,
        Duration::from_secs_f64(args.seconds),
        || {},
    );
    let m = &trials.measured;
    let count = trials.figures.len() as u64;
    println!(
        "samples: acquire n={} release n={} over {:.3} s in {count} trials \
         (per trial: acquire n={} release n={}); each metric is the trimmed mean over trials, setup_s the median",
        m.acquire.count(),
        m.release.count(),
        m.wall.as_secs_f64(),
        m.acquire.count() / count,
        m.release.count() / count,
    );
    for (index, (name, unit)) in FIGURES.into_iter().enumerate().take(GATED) {
        metrics.put(name, trials.figure(index), unit);
    }
    let setup_s = median(&mut trials.setup_s);
    metrics.put("setup_s", setup_s, "s");
    for (index, (name, unit)) in FIGURES.into_iter().enumerate().skip(GATED) {
        let value = trials.figure(index);
        println!("{name} = {value} {unit} (reported, not gated)");
    }
    vec![trials]
}

/// Traced run: untraced and traced trials, half the run each. On the
/// wire workloads a short loopback echo trial follows each untraced
/// trial, so the echo floor is measured under the same host conditions
/// as the `acquire_p50_us` it is set against, and summarised the same
/// way: the trimmed mean of the echo trials' medians. No call of `inproc-hot` crosses the
/// network, so it measures no echo and reports the floor as 0.
fn per_layer(args: &Args, metrics: &mut Metrics) -> Vec<Trials> {
    let on_wire = args.workload.is_wire();
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut echo_p50s = Vec::new();
    let plain = run_trials(args.workload, args.seed, false, half, || {
        if on_wire {
            echo_p50s.push(us(wire::echo_floor(TRIAL / 5).quantile_ns(0.5)));
        }
    });
    let echo_us = if on_wire {
        trimmed_mean(&mut echo_p50s)
    } else {
        0.0
    };
    let traced = run_trials(args.workload, args.seed, true, half, || {});
    let core = traced.core.clone().expect("traced set-ups record the core");
    let t = &traced.measured;

    let won = core.names_won() as f64;
    let probes = traced.probes as f64;
    metrics.put("tas.probes_per_acquire", ratio(probes, won), "probes");
    metrics.put("tas.lost_probe_share", ratio(probes - won, probes), "ratio");

    let core_acquire_ns = core.acquire.quantile_ns(0.5);
    metrics.put("core.acquire_ns_p50", core_acquire_ns, "ns");
    metrics.put("core.release_ns_p50", core.release.quantile_ns(0.5), "ns");
    metrics.put("core.batch_calls", core.batch_calls as f64, "count");
    let batch_names = core.batch_names as f64;
    metrics.put(
        "core.batch_size_mean",
        ratio(batch_names, core.batch_calls as f64),
        "names",
    );
    metrics.put("core.batched_names", batch_names, "count");
    metrics.put("core.names_won", won, "count");
    metrics.put("core.batched_share", ratio(batch_names, won), "ratio");
    let per_setup = ratio(core.sessions_opened as f64, traced.setup_s.len() as f64);
    metrics.put("core.sessions_opened", per_setup, "count");

    // In process the callers time `acquire_name`/`release_name`
    // directly. On the wire the server reaches the core through the
    // async facade instead, whose time sits in `net.unattributed_us`.
    let (service_acquire, service_release, service_self) = if on_wire {
        (0.0, 0.0, 0.0)
    } else {
        let acquire = t.acquire.quantile_ns(0.5);
        (
            acquire,
            t.release.quantile_ns(0.5),
            acquire - core_acquire_ns,
        )
    };
    metrics.put("service.acquire_ns_p50", service_acquire, "ns");
    metrics.put("service.release_ns_p50", service_release, "ns");
    metrics.put("service.self_ns_p50", service_self, "ns");

    metrics.put("net.echo_rtt_p50_us", echo_us, "us");
    let acquire_p50_us = plain.figure(ACQUIRE_P50);
    let (codec, unattributed) = if on_wire {
        (
            ratio(t.codec_ns as f64, t.codec_frames as f64),
            acquire_p50_us - echo_us - us(core_acquire_ns),
        )
    } else {
        (0.0, 0.0)
    };
    metrics.put("net.codec_ns_per_frame", codec, "ns");
    metrics.put("net.unattributed_us", unattributed, "us");
    metrics.put(
        "trace_overhead",
        ratio(traced.figure(OPS), plain.figure(OPS)),
        "ratio",
    );

    if on_wire {
        print_budget(acquire_p50_us, echo_us, us(core_acquire_ns), unattributed);
    }
    vec![plain, traced]
}

/// The `acquire_p50_us` budget: its parts add up to the whole, and what
/// no layer accounts for is labelled unattributed.
fn print_budget(total: f64, echo: f64, core: f64, unattributed: f64) {
    let share = |part: f64| 100.0 * ratio(part, total);
    println!("latency budget of acquire_p50_us (untraced):");
    for (row, value, source) in [
        ("loopback echo floor", echo, "net.echo_rtt_p50_us"),
        ("core acquire", core, "core.acquire_ns_p50"),
        (
            "unattributed: handler, async facade, combiner",
            unattributed,
            "net.unattributed_us",
        ),
        ("= acquire_p50_us", total, "end to end"),
    ] {
        println!(
            "  {row:<48} {value:>9.3} us {:>6.1}%  ({source})",
            share(value)
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Read before pinning, which narrows it to 1.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = affinity::pin_to_one_core();
    print_header(&args, cores, &pinned);
    let mut metrics = Metrics::default();
    let runs = if args.trace {
        per_layer(&args, &mut metrics)
    } else {
        end_to_end(&args, &mut metrics)
    };

    let attempted: u64 = runs.iter().map(|r| r.measured.attempted).sum();
    let errors: u64 = runs.iter().map(|r| r.measured.errors).sum();
    let violations: u64 = runs.iter().map(|r| r.measured.violations).sum();
    let occupancy: usize = runs.iter().map(|r| r.occupancy).sum();
    let failed = errors + violations + u64::from(occupancy > 0);
    println!(
        "fail_ratio = {} ({errors} errors, {violations} check violations, \
         occupancy {occupancy} at end, of {attempted} attempted)",
        ratio(failed as f64, attempted as f64)
    );

    let (flagged, mutant_occupancy) = inproc::mutant_self_check(args.seed);
    let self_check_ok = flagged == 1 && mutant_occupancy == 0;
    println!(
        "self-check: mutant re-issue of a live name {} ({flagged} violation(s) flagged, \
         occupancy {mutant_occupancy} after)",
        if self_check_ok {
            "flagged"
        } else {
            "NOT FLAGGED"
        }
    );

    let correct = failed == 0 && self_check_ok;
    let result = serde_json::json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": metrics.to_json(),
    });
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
