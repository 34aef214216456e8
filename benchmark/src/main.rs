//! `benchmark` — one end-to-end and per-layer benchmark for the APGRE batch
//! driver, the incremental engine, and the query service.
//!
//! ```text
//! benchmark --workload <batch-table1|serve-read|serve-write|dynamic-stream>
//!           [--seed N] [--seconds S] [--trace 0|1] [--trace-file FILE] [--smoke]
//! ```
//!
//! Each invocation runs one workload in its own process, checks that its
//! outputs are correct, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics,
//! or with `--trace 1` the per-layer ones, after writing the run's spans to
//! the trace file. It exits 1 when a check fails. See `BENCHMARK.md`.

mod batch;
mod calibrate;
mod engine;
mod fixture;
mod load;
mod report;
mod service;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Calibration samples a traced run takes at each end.
const CALIBRATION_SAMPLES: usize = 5;

const USAGE: &str =
    "usage: benchmark --workload <batch-table1|serve-read|serve-write|dynamic-stream> \
                     [--seed N] [--seconds S] [--trace 0|1] [--trace-file FILE] [--smoke]";

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Exact APGRE on six Table-1 stand-ins.
    BatchTable1,
    /// The service's read path with no writes.
    ServeRead,
    /// The service with writes beside reads.
    ServeWrite,
    /// The engine's write path with the adaptive estimator.
    DynamicStream,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("batch-table1", Workload::BatchTable1),
        ("serve-read", Workload::ServeRead),
        ("serve-write", Workload::ServeWrite),
        ("dynamic-stream", Workload::DynamicStream),
    ];

    fn name(self) -> &'static str {
        Self::ALL.iter().find(|(_, w)| *w == self).map_or("?", |(n, _)| n)
    }
}

/// Named streams derived from the workload seed (see
/// [`fixture::derive_seed`]).
pub mod streams {
    /// Read traffic: vertices and endpoint mix.
    pub const TRAFFIC: u64 = 1;
    /// Write traffic: the order of the edit units in each cycle.
    pub const EDITS: u64 = 2;
    /// `batch-table1`'s per-round graph order.
    pub const ROUND_ORDER: u64 = 3;
    /// Write traffic: where in its slot each mutation falls.
    pub const MUTATE_TIMES: u64 = 4;
}

/// What every workload gets.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub window: Duration,
    /// Tiny inputs and short windows, every check still on.
    pub smoke: bool,
}

impl Ctx {
    /// The derived seed of `stream`.
    pub fn seed_of(&self, stream: u64) -> u64 {
        fixture::derive_seed(self.seed, stream)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::BatchTable1,
        seed: 4242,
        seconds: 15.0,
        trace: false,
        trace_file: None,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let found = Workload::ALL.iter().find(|(n, _)| *n == name);
                workload = Some(found.ok_or_else(|| format!("unknown workload {name:?}"))?.1);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-file" => parsed.trace_file = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// The environment block every trace record carries.
fn environment(args: &Args, ctx: &Ctx, calibration_ms: &[f64]) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let observed = apgre_bench::observed_parallelism(nproc);
    let rayon = if observed > 1 {
        format!("rayon runs {observed} worker threads")
    } else {
        "rayon runs inline".to_owned()
    };
    let quote = |s: &str| format!("\"{s}\"");
    vec![
        ("workload", quote(args.workload.name())),
        ("nproc", nproc.to_string()),
        ("observed_parallelism", observed.to_string()),
        (
            "measurement_mode",
            quote(&format!(
                "{nproc} shared hardware threads; {rayon}: not a parallel-capacity number"
            )),
        ),
        (
            "seeds",
            format!(
                "{{\"workload\":{},\"traffic\":{},\"edits\":{},\"round_order\":{},\"mutate_times\":{}}}",
                ctx.seed,
                ctx.seed_of(streams::TRAFFIC),
                ctx.seed_of(streams::EDITS),
                ctx.seed_of(streams::ROUND_ORDER),
                ctx.seed_of(streams::MUTATE_TIMES)
            ),
        ),
        ("window_s", ctx.window.as_secs_f64().to_string()),
        ("smoke", args.smoke.to_string()),
        ("commit", quote(&report::commit())),
        (
            "calibration_ms",
            format!(
                "[{}]",
                calibration_ms.iter().map(|ms| format!("{ms:.3}")).collect::<Vec<_>>().join(",")
            ),
        ),
    ]
}

fn write_trace(
    args: &Args,
    ctx: &Ctx,
    tr: &Tracer,
    calibration_ms: &[f64],
) -> std::io::Result<PathBuf> {
    let path = args.trace_file.clone().unwrap_or_else(|| {
        PathBuf::from("bench-traces").join(format!("{}-{}.json", args.workload.name(), args.seed))
    });
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, tr.to_json(&environment(args, ctx, calibration_ms)))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx =
        Ctx { seed: args.seed, window: Duration::from_secs_f64(args.seconds), smoke: args.smoke };
    println!(
        "workload {} seed {} window {:.1}s{}{}",
        args.workload.name(),
        ctx.seed,
        args.seconds,
        if args.trace { " traced" } else { "" },
        if args.smoke { " [smoke]" } else { "" }
    );
    let mut out = Outcome::default();
    let mut tr = Tracer::new(Instant::now(), args.trace);
    // A traced run probes the machine's speed while nothing else of the
    // run executes: before the workload starts and after it has stopped
    // every thread.
    let mut calibration = args.trace.then(calibrate::Calibrator::new);
    if let Some(c) = calibration.as_mut() {
        c.sample(CALIBRATION_SAMPLES);
    }
    match args.workload {
        Workload::BatchTable1 => batch::run(&ctx, &mut out, &mut tr),
        Workload::ServeRead => service::run_read(&ctx, &mut out, &mut tr),
        Workload::ServeWrite => service::run_write(&ctx, &mut out, &mut tr),
        Workload::DynamicStream => engine::run(&ctx, &mut out, &mut tr),
    }
    if let Some(c) = calibration.as_mut() {
        c.sample(CALIBRATION_SAMPLES);
    }
    match report::peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.check("VmHWM readable from /proc/self/status", false),
    }
    if args.trace {
        out.set("trace.spans", tr.len() as f64);
        if let Some(p50) = out.get("p50_ms") {
            out.set("trace.p50_ms", p50);
        }
        println!("per-layer self time (spans recorded by the benchmark around each layer call):");
        let layers = tr.self_time_ms();
        let total: f64 = layers.values().sum();
        for (layer, ms) in &layers {
            println!(
                "  {layer:<8} {ms:>12.3} ms  {:>5.1}%",
                100.0 * ms / total.max(f64::MIN_POSITIVE)
            );
        }
        let calibration_ms = calibration.as_ref().map_or(&[][..], |c| c.samples_ms());
        println!("machine-speed probe (ms, start then end): {calibration_ms:.2?}");
        match write_trace(&args, &ctx, &tr, calibration_ms) {
            Ok(path) => println!("trace: {} spans written to {}", tr.len(), path.display()),
            Err(e) => out.check(format!("trace file written ({e})"), false),
        }
    }
    let line = out.result_line(args.trace);
    println!(
        "{} checks, {}",
        out.checks_run(),
        if out.correct() { "all passed" } else { "FAILED" }
    );
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
