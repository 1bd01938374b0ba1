//! `perfbench`: the repository benchmark's measuring binary.
//!
//! ```text
//! perfbench run    --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--expect-digest <hex>] [--rustc <version>] [--source <digest>]
//! perfbench oracle --workload <fleet workload> --seed <n>
//! ```
//!
//! `run` measures one workload and prints a `{"meta": ...}` line, then
//! the result line (`correct`, `attempted`, `failed`, `metrics`) last.
//! With `--trace 0` the metrics are the end-to-end set, with `--trace 1`
//! the per-layer set. `oracle` runs the fleet workload's sequential
//! reference and prints the digest `run` checks against. `run.py` builds
//! this binary and drives both modes; see `README.md`.

mod fleet;
mod layers;
mod probe;
mod serve;

use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use greenhetero_perfbench::report::{result_line, Meta, Metrics};
use greenhetero_perfbench::tally::{Failure, Tally};
use greenhetero_perfbench::watchdog::{self, Progress, Watchdog};
use greenhetero_perfbench::{cpu_model, nproc};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper scenario on 1,000 noisy racks.
    FleetPaper,
    /// The paper scenario, noise off, on 10,000 identical racks.
    FleetIdentical,
    /// Manual daemon sessions ticked closed-loop over one connection.
    ServeTick,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet_paper" => Some(Workload::FleetPaper),
            "fleet_identical" => Some(Workload::FleetIdentical),
            "serve_tick" => Some(Workload::ServeTick),
            _ => None,
        }
    }

    /// The workload's contract name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetPaper => "fleet_paper",
            Workload::FleetIdentical => "fleet_identical",
            Workload::ServeTick => "serve_tick",
        }
    }
}

#[derive(Debug)]
struct Args {
    oracle: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect_digest: Option<String>,
    rustc: String,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let oracle = match argv.next().as_deref() {
        Some("run") => false,
        Some("oracle") => true,
        other => return Err(format!("expected mode run|oracle, got {other:?}")),
    };
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut expect_digest = None;
    let mut rustc = "unknown".to_string();
    let mut source = "unknown".to_string();
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            "--expect-digest" => expect_digest = Some(value),
            "--rustc" => rustc = value,
            "--source" => source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        oracle,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        expect_digest,
        rustc,
        source,
    })
}

/// What every workload runner gets: its parameters, the watchdog, and
/// the shared failure tally.
pub struct Ctx {
    /// The workload being measured.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Worker threads / pool size (the machine's parallelism).
    pub nproc: usize,
    /// The fleet oracle's digest, for fleet workloads.
    pub expect_digest: Option<String>,
    /// Deadline guard for every timed operation.
    pub watchdog: Watchdog,
    /// Last flushed fleet epoch, advanced by trace sinks.
    pub progress: Progress,
    tally: Arc<Mutex<Tally>>,
}

impl Ctx {
    /// Records one attempted operation.
    pub fn record(&self, outcome: Result<(), Failure>) -> bool {
        self.tally
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(outcome)
    }

    /// Records a checked output: `Wrong(what)` unless `got == want`.
    pub fn check<T: PartialEq>(&self, got: &T, want: &T, what: &str) -> bool {
        self.tally
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .check(got, want, what)
    }

    /// Runs `op` under the watchdog with `deadline`.
    pub fn guard<T>(&self, operation: &str, deadline: Duration, op: impl FnOnce() -> T) -> T {
        self.watchdog.guard(operation, deadline, op)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("perfbench: {reason}");
            return ExitCode::from(2);
        }
    };
    if args.oracle {
        return match fleet::oracle_digest(args.workload, args.seed) {
            Ok(digest) => {
                println!("{{\"oracle_digest\": \"{digest}\"}}");
                ExitCode::SUCCESS
            }
            Err(reason) => {
                eprintln!("perfbench oracle: {reason}");
                ExitCode::FAILURE
            }
        };
    }

    let tally = Arc::new(Mutex::new(Tally::new()));
    let progress = watchdog::progress();
    let on_stall = {
        let tally = Arc::clone(&tally);
        move |report: watchdog::StallReport| {
            let mut tally = tally.lock().unwrap_or_else(PoisonError::into_inner);
            tally.record(Err(Failure::TimedOut(report.operation.clone())));
            let line = report.to_json_line(tally.attempted(), tally.failed());
            eprintln!("perfbench: stalled: {line}");
            println!("{line}");
            std::process::exit(3);
        }
    };
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        nproc: nproc(),
        expect_digest: args.expect_digest.clone(),
        watchdog: Watchdog::start(args.workload.name(), Arc::clone(&progress), on_stall),
        progress,
        tally: Arc::clone(&tally),
    };

    let mut meta = Meta::new();
    meta.text("workload", args.workload.name());
    meta.num("seed", args.seed as f64);
    meta.num("seconds", args.seconds);
    meta.num("trace", f64::from(u8::from(args.trace)));
    meta.num("nproc", ctx.nproc as f64);
    meta.text("cpu_model", &cpu_model());
    meta.text("rustc", &args.rustc);
    meta.text("source", &args.source);

    let measured = match (args.workload, args.trace) {
        (Workload::ServeTick, false) => serve::end_to_end(&ctx, &mut meta),
        (Workload::ServeTick, true) => layers::serve(&ctx, &mut meta),
        (_, false) => fleet::end_to_end(&ctx, &mut meta),
        (_, true) => layers::fleet(&ctx, &mut meta),
    };
    let metrics: Metrics = match measured {
        Ok(metrics) => metrics,
        Err(reason) => {
            eprintln!(
                "perfbench: {} failed to set up: {reason}",
                args.workload.name()
            );
            return ExitCode::FAILURE;
        }
    };
    drop(ctx);

    let tally = tally.lock().unwrap_or_else(PoisonError::into_inner);
    let reasons: Vec<String> = tally
        .reasons()
        .iter()
        .map(|r| greenhetero_perfbench::report::json_string(&format!("{r:?}")))
        .collect();
    meta.raw("failures", format!("[{}]", reasons.join(", ")));
    let non_finite: Vec<String> = metrics
        .non_finite()
        .iter()
        .map(|n| greenhetero_perfbench::report::json_string(n))
        .collect();
    meta.raw("unmeasured", format!("[{}]", non_finite.join(", ")));
    println!("{}", meta.to_json_line());
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}
