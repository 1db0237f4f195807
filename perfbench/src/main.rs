//! parqp's repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload bigjoin|mix|serve [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One client drives parqp's public entry points in a closed loop: the
//! next operation starts when the previous one has returned and its
//! output has been checked against a serial oracle computed in set-up.
//! Only the call into parqp is timed; checking happens after the clock
//! stops. Inputs are a pure function of `--seed` (default 42).
//!
//! `--trace 0` measures the end-to-end metrics with no trace sink,
//! metrics registry or paged store installed. Its times are adjusted to
//! a nominal host speed with a reference kernel timed before every
//! operation (see `host.rs`); the raw wall times are printed beside
//! them. `--trace 1` is the
//! per-layer run: it installs a timestamping trace sink to split each
//! operation into plan / exchange / local / unattributed time, and times
//! the same operations bare and under each observation runtime to give
//! the installed-over-bare overhead ratios. The last line of standard
//! output is one JSON object; the lines before it are the same figures
//! for people, with sample counts. `README.md` beside this file maps
//! every per-layer metric to the end-to-end metric it should move.

mod host;
mod probe;
mod workload;

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;

use parqp::data::paged::{self, IoStats, StoreConfig};
use parqp::mpc::exec::{self, ExecGuard, ExecMode};
use parqp::trace::Recorder;
use parqp_testkit::bench::time_ns;
use parqp_testkit::pool::WorkerPool;

use host::Reference;
use probe::{Phases, Probe};
use workload::{Comm, Op, SessionStats, Settled, Workload};

/// The whole set-up (inputs, oracles, warm-up) runs at least
/// `SETUP_REPEATS.0` times, and up to `SETUP_REPEATS.1` times while the
/// repeats took less than [`SETUP_SPAN_NS`]; `setup_s` is the median.
/// Short set-ups repeat more, so their median stays steady.
const SETUP_REPEATS: (usize, usize) = (3, 7);

/// See [`SETUP_REPEATS`].
const SETUP_SPAN_NS: u64 = 2_000_000_000;

/// Latency samples a run needs so that at least ten lie beyond p90.
const MIN_SAMPLES: usize = 100;

/// A run that cannot reach [`MIN_SAMPLES`] stops at this multiple of
/// `--seconds`.
const MAX_STRETCH: u64 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not an integer: {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match report {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operations attempted and failed (errored, panicked or wrong).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// One timed execution of an operation.
struct Run {
    begin: u64,
    end: u64,
    plan: Option<(u64, u64)>,
    settled: Option<Settled>,
}

impl Run {
    fn ns(&self) -> u64 {
        self.end - self.begin
    }

    /// Time after planning: the call into the execution entry point.
    fn run_ns(&self) -> u64 {
        self.ns() - self.plan.map_or(0, |(begin, end)| end - begin)
    }

    fn ok(&self) -> Option<&Settled> {
        self.settled.as_ref().filter(|s| s.correct)
    }
}

/// Run `op` once: time the call into parqp, then check its output.
fn run_once(op: &Op, observed: bool, tally: &mut Tally) -> Run {
    let begin = time_ns();
    let result = panic::catch_unwind(AssertUnwindSafe(|| op.execute(observed)));
    let end = time_ns();
    tally.attempted += 1;
    let (plan, settled) = match result {
        Ok(Ok(executed)) => (executed.plan, Some(op.settle(&executed.output))),
        Ok(Err(e)) => {
            eprintln!("perfbench: operation failed: {e}");
            (None, None)
        }
        Err(_) => {
            eprintln!("perfbench: operation panicked");
            (None, None)
        }
    };
    let run = Run {
        begin,
        end,
        plan,
        settled,
    };
    if run.ok().is_none() {
        tally.failed += 1;
    }
    run
}

/// Reference kernel samples taken on each side of a set-up.
const SETUP_KERNEL_SAMPLES: usize = 3;

/// A built and warmed-up workload, with its set-up timings.
struct Prepared {
    workload: Workload,
    _mode: ExecGuard,
    reference: Reference,
    setup_ns: Vec<u64>,
    /// Per set-up, the median reference kernel time around it.
    setup_kernel_ns: Vec<u64>,
    generate_ns: Vec<u64>,
    oracle_ns: Vec<u64>,
}

/// Build the workload [`SETUP_REPEATS`] times, warming up each time, and
/// keep the last build. The workload's execution mode stays installed
/// for the rest of the run.
fn prepare(args: &Args, tally: &mut Tally) -> Result<Prepared, String> {
    let mut mode = None;
    let mut built = None;
    let mut reference = Reference::new();
    let (mut setup_ns, mut generate_ns, mut oracle_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_kernel_ns = Vec::new();
    let (least, most) = SETUP_REPEATS;
    while setup_ns.len() < least
        || (setup_ns.len() < most && setup_ns.iter().sum::<u64>() < SETUP_SPAN_NS)
    {
        drop(built.take());
        let mut kernel_ns: Vec<u64> = (0..SETUP_KERNEL_SAMPLES)
            .map(|_| reference.sample())
            .collect();
        let begin = time_ns();
        let (workload, cost) = workload::build(&args.workload, args.seed)?;
        mode.get_or_insert_with(|| exec::install(workload.mode));
        for op in workload.ops.iter().take(workload.warmup) {
            run_once(op, false, tally);
        }
        setup_ns.push(time_ns() - begin);
        kernel_ns.extend((0..SETUP_KERNEL_SAMPLES).map(|_| reference.sample()));
        setup_kernel_ns.push(median(&kernel_ns));
        generate_ns.push(cost.generate_ns);
        oracle_ns.push(cost.oracle_ns);
        built = Some(workload);
    }
    Ok(Prepared {
        workload: built.expect("set-up ran at least once"),
        _mode: mode.expect("set-up ran at least once"),
        reference,
        setup_ns,
        setup_kernel_ns,
        generate_ns,
        oracle_ns,
    })
}

fn secs_to_ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Nearest-rank percentile of `samples` (`pct` in 1..=100); 0 if empty.
fn percentile(samples: &[u64], pct: usize) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (pct * sorted.len()).div_ceil(100);
    rank.checked_sub(1).map_or(0, |r| sorted[r])
}

fn median(samples: &[u64]) -> u64 {
    percentile(samples, 50)
}

fn median_f64(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Closed-loop run of whole passes for `--seconds`, tracing off. The
/// reference kernel runs before each operation; each time is adjusted
/// by the kernel's local median around it.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut prepared = prepare(args, &mut tally)?;
    let ops = &prepared.workload.ops;
    let reference = &mut prepared.reference;
    let budget = secs_to_ns(args.seconds);
    let (mut latencies, mut kernel_ns) = (Vec::new(), Vec::new());
    let (mut busy_ns, mut queries) = (0u64, 0u64);
    let mut first_pass: Option<Comm> = None;
    let start = time_ns();
    loop {
        let mut comm = Comm::default();
        for op in ops {
            kernel_ns.push(reference.sample());
            let run = run_once(op, false, &mut tally);
            latencies.push(run.ns());
            busy_ns += run.ns();
            if let Some(settled) = &run.settled {
                comm.add(settled.comm);
            }
            if let Some(settled) = run.ok() {
                queries += settled.queries;
            }
        }
        first_pass.get_or_insert(comm);
        let elapsed = time_ns() - start;
        if (elapsed >= budget && latencies.len() >= MIN_SAMPLES) || elapsed >= budget * MAX_STRETCH
        {
            break;
        }
    }
    let comm = first_pass.expect("at least one pass ran");
    let n = latencies.len();
    let passes = n / ops.len();
    let adjusted: Vec<u64> = latencies
        .iter()
        .zip(host::local_medians(&kernel_ns))
        .map(|(&ns, kernel)| host::adjust(ns, kernel).round() as u64)
        .collect();
    let adjusted_busy_ns: u64 = adjusted.iter().sum();
    let setup_s: Vec<u64> = prepared
        .setup_ns
        .iter()
        .zip(&prepared.setup_kernel_ns)
        .map(|(&ns, &kernel)| host::adjust(ns, kernel).round() as u64)
        .collect();
    let metrics = vec![
        Metric::new(
            "throughput_qps",
            queries as f64 / (adjusted_busy_ns as f64 / 1e9),
            "1/s",
            n,
        ),
        Metric::new("latency_p50_ms", ms(median(&adjusted) as f64), "ms", n),
        Metric::new(
            "latency_p90_ms",
            ms(percentile(&adjusted, 90) as f64),
            "ms",
            n,
        ),
        Metric::new("comm_load_L", comm.load as f64, "count", 1),
        Metric::new("comm_rounds", comm.rounds as f64, "count", 1),
        Metric::new("comm_tuples", comm.tuples as f64, "count", 1),
        Metric::new("setup_s", median(&setup_s) as f64 / 1e9, "s", setup_s.len()),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB", 1),
    ];
    let notes = vec![
        format!(
            "{} ops in {passes} passes ({queries} queries), {:.1} s busy",
            n,
            busy_ns as f64 / 1e9
        ),
        format!(
            "wall time, not adjusted: throughput_qps = {:.4}, latency_p50_ms = {:.4}, \
             latency_p90_ms = {:.4}, setup_s = {:.4}",
            queries as f64 / (busy_ns as f64 / 1e9),
            ms(median(&latencies) as f64),
            ms(percentile(&latencies, 90) as f64),
            median(&prepared.setup_ns) as f64 / 1e9,
        ),
        format!(
            "reference kernel: median {:.4} ms over {} samples, nominal {:.4} ms",
            ms(median(&kernel_ns) as f64),
            kernel_ns.len(),
            ms(host::NOMINAL_KERNEL_NS),
        ),
        format!(
            "error_rate = {} ({} of {} operations, set-up warm-up included)",
            tally.failed as f64 / tally.attempted as f64,
            tally.failed,
            tally.attempted
        ),
    ];
    Ok(Report {
        tally,
        tiling_failures: 0,
        metrics,
        notes,
    })
}

/// What the per-layer run times each operation under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// As in the end-to-end run.
    Bare,
    /// Under the timestamping [`Probe`] sink.
    Probe,
    /// Under `Recorder::capture`.
    Recorder,
    /// Under `metrics::capture`.
    Metrics,
    /// Under a default `paged::capture` store.
    Store,
    /// Serial if the workload runs parallel, else two workers.
    OtherMode,
    /// `replay_observed` in place of `replay` (sessions only).
    Observed,
}

/// Number of [`Variant`]s.
const VARIANTS: usize = 7;

/// Everything the per-layer run learns about one operation.
#[derive(Default)]
struct OpLayers {
    phases: Vec<Phases>,
    bare_ns: Vec<u64>,
    comm: Option<Comm>,
    queries: u64,
    session: Option<SessionStats>,
    io: Option<IoStats>,
    bound_ratio: Option<f64>,
    skew_ratio: Option<f64>,
}

/// The per-layer run: every operation under every [`Variant`], round
/// by round in rotating order, until `--seconds` have passed and every
/// operation has run at least once.
fn per_layer(args: &Args) -> Result<Report, String> {
    let mut tally = Tally::default();
    let prepared = prepare(args, &mut tally)?;
    let w = &prepared.workload;
    let serving = w.ops.iter().any(Op::is_session);
    let mut variants = vec![
        Variant::Bare,
        Variant::Probe,
        Variant::Recorder,
        Variant::Metrics,
        Variant::Store,
        Variant::OtherMode,
    ];
    if serving {
        variants.push(Variant::Observed);
    }
    let parallel = w.mode != ExecMode::Serial;
    let two_workers = Rc::new(WorkerPool::new(2));
    let probe = Rc::new(RefCell::new(Probe::default()));
    let mut layers: Vec<OpLayers> = w.ops.iter().map(|_| OpLayers::default()).collect();
    // Per variant: its time after planning over the bare one of the
    // same round (planning emits no events and never runs on workers).
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); VARIANTS];
    let mut tiling_failures = 0u64;
    let budget = secs_to_ns(args.seconds);
    let start = time_ns();
    let mut round = 0usize;
    while round < w.ops.len() || time_ns() - start < budget {
        let i = round % w.ops.len();
        let op = &w.ops[i];
        let at = &mut layers[i];
        let mut times = [0u64; VARIANTS];
        for k in 0..variants.len() {
            let variant = variants[(k + round) % variants.len()];
            let run = match variant {
                Variant::Bare => {
                    let run = run_once(op, false, &mut tally);
                    at.bare_ns.push(run.ns());
                    if let (None, Some(s)) = (&at.comm, run.ok()) {
                        at.comm = Some(s.comm);
                        at.queries = s.queries;
                        at.session = s.session;
                        if let Some(session) = &s.session {
                            at.skew_ratio = Some(session.skew_ratio);
                            at.bound_ratio = session.bound_ratio;
                        }
                    }
                    run
                }
                Variant::Probe => {
                    probe.borrow_mut().clear();
                    let run = {
                        let _sink = parqp::trace::install(probe.clone());
                        run_once(op, false, &mut tally)
                    };
                    match probe::attribute(&probe.borrow(), run.begin, run.end, run.plan) {
                        Ok(phases) => at.phases.push(phases),
                        Err(e) => {
                            eprintln!("perfbench: phases do not tile the operation: {e}");
                            tiling_failures += 1;
                        }
                    }
                    run
                }
                Variant::Recorder => Recorder::capture(|| run_once(op, false, &mut tally)).1,
                Variant::Metrics => {
                    let (registry, run) =
                        parqp_metrics::capture(|| run_once(op, false, &mut tally));
                    // A session records into its own registry instead.
                    if !serving && at.skew_ratio.is_none() {
                        at.skew_ratio = Some(registry.max_skew_ratio());
                        at.bound_ratio = registry.bound_ratio();
                    }
                    run
                }
                Variant::Store => {
                    let (parts, run) =
                        paged::capture(StoreConfig::default(), || run_once(op, false, &mut tally));
                    at.io.get_or_insert_with(|| {
                        let mut io = IoStats::default();
                        for part in &parts {
                            io.merge(part);
                        }
                        io
                    });
                    run
                }
                Variant::OtherMode => {
                    let _mode = if parallel {
                        exec::install(ExecMode::Serial)
                    } else {
                        exec::install_pool(two_workers.clone())
                    };
                    run_once(op, false, &mut tally)
                }
                Variant::Observed => run_once(op, true, &mut tally),
            };
            times[variant as usize] = run.run_ns();
        }
        let bare = times[Variant::Bare as usize] as f64;
        for &v in &variants {
            ratios[v as usize].push(times[v as usize] as f64 / bare);
        }
        round += 1;
    }
    let probed: usize = layers.iter().map(|l| l.phases.len()).sum();
    let notes = vec![format!(
        "{round} rounds × {} variants; phases tiled {probed} of {round} probed operations",
        variants.len(),
    )];
    Ok(Report {
        tally,
        tiling_failures,
        metrics: layer_metrics(&prepared, &layers, &ratios, parallel),
        notes,
    })
}

/// Per-operation medians of one phase component, in ns.
fn phase_medians(layers: &[OpLayers], part: impl Fn(&Phases) -> u64) -> Vec<u64> {
    layers
        .iter()
        .map(|l| median(&l.phases.iter().map(&part).collect::<Vec<_>>()))
        .collect()
}

fn mean_ms(per_op: &[u64]) -> f64 {
    ms(per_op.iter().sum::<u64>() as f64 / per_op.len().max(1) as f64)
}

/// `num / den`, or 0 when there is nothing to divide by.
fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_metrics(
    prepared: &Prepared,
    layers: &[OpLayers],
    ratios: &[Vec<f64>],
    parallel: bool,
) -> Vec<Metric> {
    let w = &prepared.workload;
    let probed: usize = layers.iter().map(|l| l.phases.len()).sum();
    let plan = phase_medians(layers, |p| p.plan_ns);
    let run = phase_medians(layers, |p| p.total_ns() - p.plan_ns);
    let exchange = phase_medians(layers, |p| p.exchange_ns);
    let local = phase_medians(layers, |p| p.local_ns);
    let unattributed = phase_medians(layers, |p| p.unattributed_ns);
    let total = phase_medians(layers, Phases::total_ns);

    let mut comm = Comm::default();
    let mut io = IoStats::default();
    let mut session = SessionStats::default();
    for l in layers {
        comm.add(l.comm.unwrap_or_default());
        io.merge(&l.session.map(|s| s.io).or(l.io).unwrap_or_default());
        if let Some(s) = l.session {
            session.hits += s.hits;
            session.lookups += s.lookups;
            session.evictions += s.evictions;
            session.reads_saved += s.reads_saved;
        }
    }
    let max_of =
        |f: fn(&OpLayers) -> Option<f64>| layers.iter().filter_map(f).fold(0.0f64, f64::max);
    let item_ms = |name: &str| {
        w.ops
            .iter()
            .zip(&total)
            .filter(|(op, _)| op.layer == Some(name))
            .fold(0.0, |acc, (_, &ns)| acc + ms(ns as f64))
    };
    let per_query_ns: Vec<u64> = layers
        .iter()
        .filter(|l| l.session.is_some() && l.queries > 0)
        .flat_map(|l| l.bare_ns.iter().map(move |&ns| ns / l.queries))
        .collect();
    let ratio = |v: Variant| median_f64(&ratios[v as usize]);
    let rounds = ratios[Variant::Bare as usize].len();
    // OtherMode over bare is serial ÷ parallel when the workload runs
    // parallel, and parallel ÷ serial otherwise.
    let other = ratio(Variant::OtherMode);
    let speedup = if parallel { other } else { 1.0 / other };

    let mut metrics = vec![
        Metric::new("planner.plan_ms", mean_ms(&plan), "ms", probed),
        Metric::new("join.run_ms", mean_ms(&run), "ms", probed),
        Metric::new("mpc.exchange_ms", mean_ms(&exchange), "ms", probed),
        Metric::new("join.local_ms", mean_ms(&local), "ms", probed),
        Metric::new("join.unattributed_ms", mean_ms(&unattributed), "ms", probed),
        Metric::new(
            "mpc.ns_per_tuple",
            share(run.iter().sum(), comm.tuples),
            "ns",
            probed,
        ),
        Metric::new("mpc.words", comm.words as f64, "count", 1),
        Metric::new("mpc.skew_ratio", max_of(|l| l.skew_ratio), "ratio", 1),
        Metric::new("metrics.bound_ratio", max_of(|l| l.bound_ratio), "ratio", 1),
        Metric::new("exec.parallel_speedup", speedup, "ratio", rounds),
    ];
    for name in workload::ITEM_LAYERS {
        metrics.push(Metric::new(name, item_ms(name), "ms", probed));
    }
    let observed = ratios[Variant::Observed as usize].len();
    metrics.extend([
        Metric::new(
            "serve.ms_per_query",
            ms(median(&per_query_ns) as f64),
            "ms",
            per_query_ns.len(),
        ),
        Metric::new(
            "serve.cache_hit_rate",
            share(session.hits, session.lookups),
            "ratio",
            1,
        ),
        Metric::new(
            "serve.cache_evictions",
            session.evictions as f64,
            "count",
            1,
        ),
        Metric::new("serve.reads_saved", session.reads_saved as f64, "count", 1),
        Metric::new("store.io_reads", io.reads as f64, "count", 1),
        Metric::new(
            "store.io_hit_rate",
            share(io.reads - io.misses, io.reads),
            "ratio",
            1,
        ),
        Metric::new("store.evictions", io.evictions as f64, "count", 1),
        Metric::new(
            "store.overhead_ratio",
            ratio(Variant::Store),
            "ratio",
            rounds,
        ),
        Metric::new(
            "trace.overhead_ratio",
            ratio(Variant::Recorder),
            "ratio",
            rounds,
        ),
        Metric::new(
            "trace.probe_overhead_ratio",
            ratio(Variant::Probe),
            "ratio",
            rounds,
        ),
        Metric::new(
            "metrics.overhead_ratio",
            ratio(Variant::Metrics),
            "ratio",
            rounds,
        ),
        Metric::new(
            "obs.overhead_ratio",
            ratio(Variant::Observed),
            "ratio",
            observed,
        ),
        Metric::new(
            "data.generate_ms",
            ms(median(&prepared.generate_ns) as f64),
            "ms",
            prepared.generate_ns.len(),
        ),
        Metric::new(
            "query.oracle_ms",
            ms(median(&prepared.oracle_ns) as f64),
            "ms",
            prepared.oracle_ns.len(),
        ),
    ]);
    metrics
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

struct Report {
    tally: Tally,
    tiling_failures: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            println!(
                "{:<28} {:>16.4} {:<6} (n = {})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let correct = self.tally.failed == 0 && self.tiling_failures == 0;
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            fields.join(", ")
        );
    }
}
