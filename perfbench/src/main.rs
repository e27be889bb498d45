//! End-to-end and per-layer benchmark of the heavily loaded balanced
//! allocation system.
//!
//! ```text
//! perfbench --workload <serve_churn|router_contended>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the workload and prints every end-to-end metric;
//! `--trace 1` runs the workload untraced and traced (the difference is the
//! tracing overhead) and prints the per-layer ledger. The last line of
//! standard output is one JSON object; a failed correctness check makes the
//! exit code 1, a run that could not complete makes it 2. `--smoke` shrinks
//! every input for a quick check that the benchmark itself works.
//! See `perfbench/README.md` for the workloads and metrics.

mod contended;
mod host;
mod ledger;
mod serve;
mod timed;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use pba_model::rng::mix64;

use crate::timed::Timed;
use crate::trace::Tracer;

/// Bins of both streaming workloads (`StreamConfig::new(1024)`: two-choice,
/// batch = n).
pub const BINS: usize = 1024;

/// The workload's key stream `stream`, item `i`: distinct for distinct
/// `(stream, i)` under one seed.
pub fn key(seed: u64, stream: u64, i: u64) -> u64 {
    mix64(mix64(seed) ^ (stream << 40) ^ i)
}

/// Input sizes of a run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Resident balls routed before serving (m/n = 1024 at full size).
    pub preload: u64,
    /// Tickets each connection or caller holds.
    pub tickets: usize,
    /// `A_heavy` instance of the ledger.
    pub heavy_m: u64,
    pub heavy_n: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Warm-up windows or calls after each set-up.
    pub warmup: u64,
    /// Length of one streaming slice.
    pub slice_s: f64,
    /// Windows of the in-process replay, and seconds of each ledger loop.
    pub replay_windows: usize,
    pub ledger_s: f64,
}

impl Sizes {
    fn full() -> Self {
        Self {
            preload: 1 << 20,
            tickets: 4096,
            heavy_m: 1 << 22,
            heavy_n: 1 << 10,
            setups: 5,
            warmup: 256,
            slice_s: 1.0,
            replay_windows: 8192,
            ledger_s: 1.0,
        }
    }

    fn smoke() -> Self {
        Self {
            preload: 1 << 14,
            tickets: 256,
            heavy_m: 1 << 16,
            heavy_n: 1 << 10,
            setups: 2,
            warmup: 50,
            slice_s: 0.1,
            replay_windows: 64,
            ledger_s: 0.05,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub timed: Timed,
    /// The traced half of a `--trace 1` run.
    pub traced: Option<Timed>,
    pub peak_rss_mb: f64,
    pub failures: Vec<String>,
    /// `serve_churn`: reply lines per client `read` call.
    pub replies_per_read: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => parsed.trace = value()? == "1",
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn child(args: &[String]) -> Result<(), String> {
    let mut seed = 0;
    let mut preload = 0;
    let mut reactors = 1;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value: u64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(format!("{flag} needs a number"))?;
        match flag.as_str() {
            "--seed" => seed = value,
            "--preload" => preload = value,
            "--reactors" => reactors = value as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    serve::child_main(seed, preload, reactors).map_err(|e| e.to_string())
}

/// Prints one metric and appends it to the result's `metrics` object. A
/// value that is not a finite number fails the run.
fn metric(json: &mut String, failures: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    println!("{name:<40} {value:>16.6} {unit}");
    let value = if value.is_finite() {
        value
    } else {
        failures.push(format!("metric {name} is {value}"));
        0.0
    };
    if !json.is_empty() {
        json.push_str(", ");
    }
    let _ = write!(
        json,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-child") {
        return match child(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve-child: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    println!(
        "# host nproc {} rustc \"{}\" profile \"{}\" reactors {} callers {} pool_threads {} steal_share_repeat {}",
        host::nproc(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        serve::reactors(),
        host::nproc(),
        rayon::current_num_threads(),
        timed::STEAL_SHARE,
    );
    println!(
        "# workload {} seed {} seconds {} trace {} sizes {:?}",
        args.workload, args.seed, args.seconds, args.trace as u8, sizes
    );
    let steal_before = host::steal_ticks();
    let mut tracer = args.trace.then(|| Tracer::new(Instant::now(), 0));
    let outcome = match args.workload.as_str() {
        "serve_churn" => serve::run(args.seed, args.seconds, &sizes, tracer.as_mut()),
        "router_contended" => Ok(contended::run(
            args.seed,
            args.seconds,
            &sizes,
            tracer.as_mut(),
        )),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} did not complete: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let timed = &outcome.timed;
    println!(
        "# timed slices kept {} repeated {} steal_ms {:.0} calib_us {:.1} latency_samples {}",
        timed.kept.len(),
        timed.repeated.len(),
        host::ticks_to_ms(timed.steal_ticks()),
        timed.calib_ns() / 1e3,
        timed.latency_samples()
    );
    let mut attempted = timed.attempted();
    let mut failed = timed.failed();
    let entries: Vec<ledger::Entry> = if let Some(mut tracer) = tracer {
        let traced = outcome.traced.take().unwrap_or_default();
        attempted += traced.attempted();
        failed += traced.failed();
        let serve_cpu = (args.workload == "serve_churn")
            .then(|| (timed.cpu_us_per_op(), outcome.replies_per_read));
        let mut entries = match ledger::ledger(
            args.seed,
            &sizes,
            &mut tracer,
            serve_cpu,
            &mut outcome.failures,
        ) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("perfbench: ledger did not complete: {e}");
                return ExitCode::from(2);
            }
        };
        entries.extend([
            (
                "trace.overhead_x",
                timed.throughput() / traced.throughput(),
                "x",
            ),
            (
                "host.steal_ms",
                host::ticks_to_ms(host::steal_ticks() - steal_before),
                "ms",
            ),
            (
                "host.repeated_slices",
                (timed.repeated.len() + traced.repeated.len()) as f64,
                "count",
            ),
        ]);
        let dir = std::env::current_exe()
            .ok()
            .and_then(|exe| Some(exe.parent()?.join("spans")))
            .unwrap_or_else(|| "spans".into());
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
        entries
    } else {
        let error_rate = failed as f64 / attempted.max(1) as f64;
        vec![
            ("setup_s", outcome.setup_s, "s"),
            ("throughput_ops_per_s", timed.throughput(), "1/s"),
            ("latency_p50_us", timed.latency_us(0.5), "us"),
            ("latency_p99_us", timed.latency_us(0.99), "us"),
            ("cpu_us_per_op", timed.cpu_us_per_op(), "us"),
            ("peak_rss_mb", outcome.peak_rss_mb, "MB"),
            ("gap_mean", timed.gap_mean(), "balls"),
            ("ok_rate", 1.0 - error_rate, "ratio"),
        ]
    };
    let mut json = String::new();
    for (name, value, unit) in entries {
        metric(&mut json, &mut outcome.failures, name, value, unit);
    }
    for f in &outcome.failures {
        println!("# CHECK FAILED: {f}");
    }
    let correct = outcome.failures.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
