//! The fleet workloads: `FleetSpec::run` timed from outside.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use greenhetero::core::policies::PolicyKind;
use greenhetero::core::types::Watts;
use greenhetero::power::solar::synthesize_shared;
use greenhetero::sim::fleet::{pretrain_database, FleetReport, FleetSpec};
use greenhetero::sim::scenario::{Scenario, TelemetrySpec};
use greenhetero_perfbench::report::{digest, Meta, Metrics};
use greenhetero_perfbench::sink::{AggSink, AggSnapshot};
use greenhetero_perfbench::split::FleetSplit;
use greenhetero_perfbench::stats::Samples;
use greenhetero_perfbench::tally::Failure;

use crate::{Ctx, Workload};

/// Racks in `fleet_paper`.
pub const PAPER_RACKS: u32 = 1_000;
/// Racks in `fleet_identical`.
pub const IDENTICAL_RACKS: u32 = 10_000;
/// Set-up repetitions in one batch.
pub const SETUP_REPS: usize = 25;
/// Time between the set-up batches a second thread takes while the
/// fleet runs. A batch takes ~1 ms, and one process's batch medians
/// differed by up to half from one second to the next, so `setup_s` is
/// the median over batches spread across the whole run.
pub const SETUP_INTERVAL: Duration = Duration::from_secs(1);
/// Deadline for one fleet run (the 10k-rack run takes ~24 s on one
/// worker of a 2.0 GHz Xeon).
pub const RUN_DEADLINE: Duration = Duration::from_secs(100);
/// Worker threads of every measured fleet run. One: on a shared host a
/// second worker's speed depends on what else holds the other cores
/// (one busy neighbour thread cut a 2-worker run from 56k to 33k
/// rack-epochs/s), while a single worker kept its rate.
pub const FLEET_WORKERS: usize = 1;

/// The workload's per-rack scenario: the paper runtime, with meter and
/// performance noise off for `fleet_identical`.
pub fn base_scenario(workload: Workload, seed: u64) -> Scenario {
    let mut base = Scenario::paper_runtime(PolicyKind::GreenHetero);
    base.seed = seed;
    if workload == Workload::FleetIdentical {
        base.meter_noise = Watts::new(0.0);
        base.perf_noise = 0.0;
    }
    base
}

/// The workload's fleet at `racks` racks on [`FLEET_WORKERS`] workers.
pub fn spec(workload: Workload, seed: u64, racks: u32) -> FleetSpec {
    let mut spec = FleetSpec::new(base_scenario(workload, seed), racks);
    spec.workers = FLEET_WORKERS;
    spec
}

/// The workload's full-size fleet.
pub fn workload_spec(workload: Workload, seed: u64) -> FleetSpec {
    let racks = match workload {
        Workload::FleetIdentical => IDENTICAL_RACKS,
        _ => PAPER_RACKS,
    };
    spec(workload, seed, racks)
}

/// Digest of everything a fleet run must reproduce: the CSV bytes plus
/// the exact bits of the two objective means.
pub fn fingerprint(report: &FleetReport) -> String {
    let mut bytes = Vec::with_capacity(16 * 1024);
    // Writing to a Vec cannot fail.
    let _ = report.write_csv(&mut bytes);
    bytes.extend_from_slice(
        format!(
            "mean_epu={:016x}\nmean_throughput={:016x}\n",
            report.mean_epu.value().to_bits(),
            report.mean_throughput().value().to_bits()
        )
        .as_bytes(),
    );
    digest(&bytes)
}

/// Runs the sequential reference for the workload's fleet and digests it.
///
/// # Errors
///
/// The reference run's error.
pub fn oracle_digest(workload: Workload, seed: u64) -> Result<String, String> {
    if workload == Workload::ServeTick {
        return Err("serve_tick has no fleet oracle".into());
    }
    let report = workload_spec(workload, seed)
        .run_sequential()
        .map_err(|e| e.to_string())?;
    Ok(fingerprint(&report))
}

/// Wall time of each public set-up call in one repetition.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    /// `Scenario::build_rack`.
    pub build_rack: Duration,
    /// The first `synthesize_shared` of this solar configuration.
    pub solar: Duration,
    /// `pretrain_database`.
    pub pretrain: Duration,
}

impl SetupSample {
    /// Sum of the three calls.
    pub fn total(&self) -> Duration {
        self.build_rack + self.solar + self.pretrain
    }
}

/// Times the fleet set-up calls `reps` times as the `batch`-th batch of
/// the process. Each repetition uses a seed derived from `(batch, k)`,
/// so its solar synthesis misses the process memo as a first call does;
/// only the last repetition of batch 0 uses `base` itself, leaving its
/// trace in the memo for the run that follows. (Later batches evict it,
/// so a later run may synthesize it again: tens of µs in seconds.)
///
/// # Errors
///
/// The first failing set-up call's error.
pub fn setup_samples(base: &Scenario, reps: usize, batch: u64) -> Result<Vec<SetupSample>, String> {
    (0..reps)
        .map(|k| {
            let mut scenario = base.clone();
            if batch > 0 || k + 1 < reps {
                scenario.seed = base.seed ^ (0x5E70_0000_0000_0000 | batch << 32 | k as u64);
            }
            let started = Instant::now();
            let rack = scenario.build_rack().map_err(|e| e.to_string())?;
            let build_rack = started.elapsed();
            let solar_config = scenario.solar_config().map_err(|e| e.to_string())?;
            let (_trace, hit) = synthesize_shared(&solar_config).map_err(|e| e.to_string())?;
            let solar = started.elapsed() - build_rack;
            if hit {
                return Err(format!("set-up repetition {k} hit the solar memo"));
            }
            pretrain_database(&rack, &scenario).map_err(|e| e.to_string())?;
            let pretrain = started.elapsed() - build_rack - solar;
            Ok(SetupSample {
                build_rack,
                solar,
                pretrain,
            })
        })
        .collect()
}

/// One fleet run under the watchdog, checked against `expect`. Records
/// the attempt; returns the report and its wall time when it succeeded.
pub fn run_checked(
    ctx: &Ctx,
    spec: &FleetSpec,
    expect: &str,
    operation: &str,
) -> Option<(FleetReport, Duration)> {
    let started = Instant::now();
    let outcome = ctx.guard(operation, RUN_DEADLINE, || spec.run());
    let wall = started.elapsed();
    match outcome {
        Err(e) => {
            ctx.record(Err(Failure::Rejected(format!("{operation}: {e}"))));
            None
        }
        Ok(report) => ctx
            .check(&fingerprint(&report).as_str(), &expect, operation)
            .then_some((report, wall)),
    }
}

/// The oracle digest a fleet run is checked against.
///
/// # Errors
///
/// When the caller supplied none.
pub fn expected_digest(ctx: &Ctx) -> Result<&str, String> {
    ctx.expect_digest
        .as_deref()
        .ok_or_else(|| "fleet workloads need --expect-digest (run.py supplies it)".to_string())
}

/// Untimed runs before the timed ones: one on `fleet_paper` (~3 s a
/// run), none on `fleet_identical`, whose single run fills the window.
fn warmup_runs(workload: Workload) -> usize {
    usize::from(workload == Workload::FleetPaper)
}

/// Median set-up time in seconds.
fn median_setup(samples: &[SetupSample]) -> f64 {
    let mut totals = Samples::new();
    for s in samples {
        totals.push(s.total().as_secs_f64());
    }
    totals.median().unwrap_or(f64::NAN)
}

/// Set-up batches 1, 2, ... taken every [`SETUP_INTERVAL`] until `stop`.
/// Runs on its own thread beside the fleet's one worker, so the batches
/// cover the whole run, not one moment of it.
///
/// # Errors
///
/// The first failing set-up call's error.
fn setup_batches(base: &Scenario, stop: &AtomicBool) -> Result<Vec<SetupSample>, String> {
    let mut samples = Vec::new();
    let mut batch = 0;
    let mut next = Instant::now() + SETUP_INTERVAL;
    while !stop.load(Ordering::Relaxed) {
        if Instant::now() >= next {
            batch += 1;
            samples.extend(setup_samples(base, SETUP_REPS, batch)?);
            next += SETUP_INTERVAL;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Ok(samples)
}

/// What the timed fleet runs of one process measured.
#[derive(Default)]
struct TimedRuns {
    /// Rack-epochs over all timed runs.
    rack_epochs: u64,
    /// Wall time over all timed runs.
    wall: Duration,
    /// Each timed run's rack-epochs per second, for the meta line.
    rates: Vec<String>,
    /// Each timed run's wall time per epoch.
    epoch_ms: Samples,
    /// Bits of the runs' `mean_epu` and `mean_throughput`.
    objective: Option<(u64, u64)>,
}

/// The warm-up runs, then timed runs until another would overrun the
/// window (always at least one). Every run is checked against `expect`.
fn timed_runs(ctx: &Ctx, spec: &FleetSpec, expect: &str) -> TimedRuns {
    // Untimed warm-up runs let the allocator and caches settle (the first
    // run of a process read up to 10% slower), unless one run fills the
    // window anyway.
    for _ in 0..warmup_runs(ctx.workload) {
        run_checked(ctx, spec, expect, "fleet_warmup");
    }
    let mut runs = TimedRuns::default();
    let started = Instant::now();
    while let Some((report, took)) = run_checked(ctx, spec, expect, "fleet_run") {
        let epochs = report.epochs.len().max(1) as f64;
        runs.rack_epochs += report.rack_epochs();
        runs.wall += took;
        runs.rates
            .push((report.rack_epochs() as f64 / took.as_secs_f64()).to_string());
        runs.epoch_ms.push(took.as_secs_f64() * 1e3 / epochs);
        let this = (
            report.mean_epu.value().to_bits(),
            report.mean_throughput().value().to_bits(),
        );
        // Every repeat of the same spec must land on the same bits.
        if *runs.objective.get_or_insert(this) != this {
            ctx.record(Err(Failure::Wrong(
                "objective changed between repeats".into(),
            )));
        }
        if started.elapsed() + took > ctx.seconds {
            break;
        }
    }
    runs
}

/// The untraced fleet run: end-to-end metrics only.
///
/// # Errors
///
/// Set-up failures (nothing is measured without a set-up).
pub fn end_to_end(ctx: &Ctx, meta: &mut Meta) -> Result<Metrics, String> {
    let expect = expected_digest(ctx)?;
    let spec = workload_spec(ctx.workload, ctx.seed);
    let mut setup = setup_samples(&spec.base, SETUP_REPS, 0)?;
    let stop = AtomicBool::new(false);
    let (mut runs, sampled) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| setup_batches(&spec.base, &stop));
        let runs = timed_runs(ctx, &spec, expect);
        stop.store(true, Ordering::Relaxed);
        let sampled = sampler
            .join()
            .unwrap_or_else(|_| Err("set-up sampler panicked".into()));
        (runs, sampled)
    });
    setup.extend(sampled?);

    let racks = f64::from(spec.racks);
    let mut metrics = Metrics::new();
    metrics.put("setup_s", median_setup(&setup), "s");
    // The rate is all timed rack-epochs over all timed wall time: a
    // median of a handful of ~3 s runs followed the host's speed swings
    // more closely than the whole window's average does.
    metrics.put(
        "rack_epochs_per_s",
        if runs.wall.is_zero() {
            f64::NAN
        } else {
            runs.rack_epochs as f64 / runs.wall.as_secs_f64()
        },
        "1/s",
    );
    metrics.put(
        "tick_decision_p50_ms",
        runs.epoch_ms.median().unwrap_or(f64::NAN),
        "ms",
    );
    metrics.put(
        "tick_decision_p90_ms",
        runs.epoch_ms.percentile(0.9).unwrap_or(f64::NAN),
        "ms",
    );
    metrics.put(
        "peak_rss_kb_per_rack",
        greenhetero_perfbench::peak_rss_kb().map_or(f64::NAN, |kb| kb / racks),
        "kB",
    );
    let (epu, throughput) = runs.objective.map_or((f64::NAN, f64::NAN), |(e, t)| {
        (f64::from_bits(e), f64::from_bits(t))
    });
    metrics.put("sim_epu", epu, "ratio");
    metrics.put("sim_throughput", throughput, "ops/s");

    meta.num("racks", racks);
    meta.num("epochs", 96.0);
    meta.num("workers", spec.workers as f64);
    meta.num("warmup_runs", warmup_runs(ctx.workload) as f64);
    meta.num("fleet_runs", runs.rates.len() as f64);
    meta.raw("run_rates", format!("[{}]", runs.rates.join(", ")));
    meta.num("setup_reps", setup.len() as f64);
    meta.num(
        "peak_rss_kb",
        greenhetero_perfbench::peak_rss_kb().unwrap_or(0.0),
    );
    meta.text("expect_digest", expect);
    meta.raw(
        "samples",
        format!(
            "{{\"rack_epochs_per_s\": {0}, \"tick_decision_p50_ms\": {0}, \"tick_decision_p90_ms\": {0}, \"setup_s\": {1}}}",
            runs.rates.len(),
            setup.len()
        ),
    );
    Ok(metrics)
}

/// A traced fleet measurement: one untraced run for the rate baseline,
/// then one run with the aggregating sink attached.
#[derive(Debug)]
pub struct FleetTrace {
    /// Rack-epochs per second without tracing.
    pub untraced_rate: f64,
    /// Rack-epochs per second with the sink attached.
    pub traced_rate: f64,
    /// What the sink aggregated.
    pub snap: AggSnapshot,
    /// The closing split of the traced run's capacity.
    pub split: FleetSplit,
    /// Shared solve-cache counters of the traced run.
    pub shared_reuse: f64,
    /// Solves published into the shared cache.
    pub shared_insertions: u64,
    /// Shared misses that did not end in an insertion's first solve.
    pub shared_duplicate_misses: u64,
    /// Workers the run used.
    pub workers: usize,
}

/// Measures `spec` untraced and traced; both runs are checked against
/// `expect`, and the split's closing check counts as an attempt.
pub fn traced(ctx: &Ctx, spec: &FleetSpec, expect: &str) -> Option<FleetTrace> {
    let (_, untraced_wall) = run_checked(ctx, spec, expect, "fleet_run_untraced")?;
    let sink = Arc::new(AggSink::new(Arc::clone(&ctx.progress)));
    let mut traced_spec = spec.clone();
    traced_spec.base.telemetry = TelemetrySpec::Sink(Arc::clone(&sink) as _);
    let (report, wall) = run_checked(ctx, &traced_spec, expect, "fleet_run_traced")?;
    let snap = sink.snapshot();
    let split = FleetSplit::new(&snap.totals, report.workers, wall, report.rack_epochs());
    ctx.record(if split.closes() {
        Ok(())
    } else {
        Err(Failure::Wrong(format!(
            "fleet split does not close: {split:?}"
        )))
    });
    let rack_epochs = report.rack_epochs() as f64;
    let stats = report.shared_solve;
    Some(FleetTrace {
        untraced_rate: rack_epochs / untraced_wall.as_secs_f64(),
        traced_rate: rack_epochs / wall.as_secs_f64(),
        snap,
        split,
        shared_reuse: stats.reuse_rate(),
        shared_insertions: stats.insertions,
        shared_duplicate_misses: stats.misses.saturating_sub(stats.insertions),
        workers: report.workers,
    })
}
