//! `bench_snapshot` — one-shot performance snapshot of the telemetry-
//! instrumented simulator, written as a single flat JSON object
//! (`BENCH_telemetry.json`) so CI can validate and archive it.
//!
//! The snapshot runs the paper's Fig. 8 runtime scenario (GreenHetero,
//! High solar) with a collecting telemetry sink and reports:
//!
//! * per-epoch wall-time p50/p99/mean from the run's own
//!   `greenhetero_epoch_wall_seconds` histogram;
//! * exact solver-latency p50/p99 from a timed hot loop over a 3-type
//!   allocation problem (sorted samples, not histogram buckets);
//! * telemetry event throughput (epoch events per second of run wall
//!   time).
//!
//! It also benchmarks the solver fast path in isolation and writes a
//! second snapshot (`BENCH_solver.json`): cold max-of-engines solves
//! versus warm-started and cache-hit solves over a drifting budget
//! sequence, the cache hit rate, and heap allocations per solve from a
//! counting global allocator.
//!
//! With `--fleet`, it instead benchmarks the fork-join epoch loop end
//! to end and writes `BENCH_fleet.json`
//! (`--fleet-out PATH`) with three measurements:
//!
//! * the headline fleet: a 1,000-rack (`--racks N`) one-day fleet
//!   stepped in lock-step at 1, 2, 4, and 8 workers — wall times,
//!   scaling efficiency, rack-epoch throughput, peak RSS per rack, and
//!   a boolean `scaling_gated` recording whether the machine had the
//!   ≥ 4 cores needed to actually measure the 2x scaling floor;
//! * the daemon point: `--sessions N` (default 1,000) serve sessions
//!   hosted in-process on the bounded session pool — wall time plus the
//!   peak daemon-attributable OS thread count against the structural
//!   `cores + 4` cap (pool workers + accept + spawner + watchdog, with
//!   one thread of slack), proving thread count does not grow with
//!   session count;
//! * the memory point: a homogeneous zero-noise `--racks100k N`
//!   (default 100,000) fleet run last, so the process's `VmHWM`
//!   high-water mark afterwards bounds its resident footprint — RSS per
//!   rack against the 80 kB/rack budget, plus the shared-solve reuse
//!   rate of the fleet-wide cache.
//!
//! Validating a fleet snapshot enforces the structural gates (thread
//! cap, RSS budget, reuse floor) unconditionally and the wall-clock
//! scaling floor only when `scaling_gated` is true, rejecting snapshots
//! whose flag contradicts their recorded core count — a snapshot may
//! not advertise a floor it never measured. Every gate failure names
//! the offending key, the observed value, and the required bound.
//!
//! Flags (all optional): `--days N` (default 1), `--servers N` servers
//! per type (default 5), `--out PATH` (default `BENCH_telemetry.json`),
//! `--solver-out PATH` (default `BENCH_solver.json`), `--fleet`,
//! `--racks N` (default 1000), `--sessions N` (default 1000),
//! `--racks100k N` (default 100000), `--epoch-secs N` (override the
//! epoch length for the fleet/session benches — CI uses 3600 for a
//! reduced 24-epoch day), `--fleet-out PATH` (default
//! `BENCH_fleet.json`), and `--validate PATH` to schema-check an
//! existing snapshot (any kind, auto-detected) instead of benchmarking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use greenhetero_core::database::{PerfModel, Quadratic};
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::solver::{
    solve, AllocationProblem, FastPathConfig, ServerGroup, SolverFastPath,
};
use greenhetero_core::telemetry::{names, CollectingSink, EventLine};
use greenhetero_core::types::{ConfigId, PowerRange, SimDuration, Watts};
use greenhetero_serve::{Daemon, ServeConfig, SessionSpec};
use greenhetero_sim::engine::run_scenario;
use greenhetero_sim::fleet::FleetSpec;
use greenhetero_sim::scenario::{Scenario, TelemetrySpec};

/// A pass-through system allocator that counts allocation calls, so the
/// snapshot can report allocations-per-solve for the hot loops.
struct CountingAlloc;

/// Total heap allocation calls since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Keys every telemetry snapshot must carry, all with finite numeric
/// values.
const SCHEMA_KEYS: &[&str] = &[
    "schema_version",
    "days",
    "servers_per_type",
    "epochs",
    "epoch_wall_p50_us",
    "epoch_wall_p99_us",
    "epoch_wall_mean_us",
    "solver_p50_us",
    "solver_p99_us",
    "solver_calls",
    "events_per_sec",
    "run_wall_ms",
];

/// Keys every solver fast-path snapshot must carry, all with finite
/// numeric values.
const SOLVER_SCHEMA_KEYS: &[&str] = &[
    "schema_version",
    "solver_calls",
    "cold_p50_us",
    "cold_p99_us",
    "warm_p50_us",
    "warm_p99_us",
    "cached_p50_us",
    "cached_p99_us",
    "speedup_warm_p50",
    "cache_hit_rate",
    "allocs_per_cold_solve",
    "allocs_per_warm_solve",
];

/// Keys every fleet snapshot must carry, all with finite numeric
/// values. (`scaling_gated`, the one boolean key, is checked
/// separately.)
const FLEET_SCHEMA_KEYS: &[&str] = &[
    "schema_version",
    "racks",
    "epochs",
    "rack_epochs",
    "cores",
    "w1_secs",
    "w2_secs",
    "w4_secs",
    "w8_secs",
    "scaling_w2",
    "scaling_w4",
    "scaling_w8",
    "racks_per_sec",
    "rack_epochs_per_sec",
    "peak_rss_mb",
    "rss_kb_per_rack",
    "sessions",
    "sessions_secs",
    "sessions_peak_threads",
    "sessions_thread_cap",
    "racks100k",
    "racks100k_epochs",
    "racks100k_secs",
    "racks100k_rack_epochs_per_sec",
    "racks100k_rss_kb_per_rack",
    "shared_solve_reuse_rate",
];

/// RSS budget per rack for the large-fleet memory point, kilobytes.
const RSS_KB_PER_RACK_CEILING: f64 = 80.0;

struct Args {
    days: u64,
    servers: u32,
    out: PathBuf,
    solver_out: PathBuf,
    fleet: bool,
    racks: u32,
    sessions: u32,
    racks100k: u32,
    epoch_secs: Option<u64>,
    fleet_out: PathBuf,
    validate: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        days: 1,
        servers: 5,
        out: PathBuf::from("BENCH_telemetry.json"),
        solver_out: PathBuf::from("BENCH_solver.json"),
        fleet: false,
        racks: 1000,
        sessions: 1000,
        racks100k: 100_000,
        epoch_secs: None,
        fleet_out: PathBuf::from("BENCH_fleet.json"),
        validate: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--days" => parsed.days = value("--days").parse().expect("--days takes an integer"),
            "--servers" => {
                parsed.servers = value("--servers")
                    .parse()
                    .expect("--servers takes an integer");
            }
            "--out" => parsed.out = PathBuf::from(value("--out")),
            "--solver-out" => parsed.solver_out = PathBuf::from(value("--solver-out")),
            "--fleet" => parsed.fleet = true,
            "--racks" => {
                parsed.racks = value("--racks").parse().expect("--racks takes an integer");
            }
            "--sessions" => {
                parsed.sessions = value("--sessions")
                    .parse()
                    .expect("--sessions takes an integer");
            }
            "--racks100k" => {
                parsed.racks100k = value("--racks100k")
                    .parse()
                    .expect("--racks100k takes an integer");
            }
            "--epoch-secs" => {
                parsed.epoch_secs = Some(
                    value("--epoch-secs")
                        .parse()
                        .expect("--epoch-secs takes an integer"),
                );
            }
            "--fleet-out" => parsed.fleet_out = PathBuf::from(value("--fleet-out")),
            "--validate" => parsed.validate = Some(PathBuf::from(value("--validate"))),
            other => panic!("unknown flag {other}; see the module docs for usage"),
        }
    }
    parsed
}

/// Formats one uniform gate-failure message: the offending key, the
/// observed value, and the required bound, always in the same shape so
/// CI logs and humans can grep them.
fn gate_failure(key: &str, observed: impl std::fmt::Display, required: &str) -> String {
    format!("{key} = {observed} violates required {required}")
}

/// A floor gate: `observed >= floor` or a uniform failure message.
fn gate_floor(key: &str, observed: f64, floor: f64) -> Result<(), String> {
    if observed >= floor {
        Ok(())
    } else {
        Err(gate_failure(
            key,
            format!("{observed:.4}"),
            &format!("floor {floor}"),
        ))
    }
}

/// A ceiling gate: `observed <= ceiling` or a uniform failure message.
fn gate_ceiling(key: &str, observed: f64, ceiling: f64) -> Result<(), String> {
    if observed <= ceiling {
        Ok(())
    } else {
        Err(gate_failure(
            key,
            format!("{observed:.4}"),
            &format!("ceiling {ceiling}"),
        ))
    }
}

/// A range gate: `observed` within `[lo, hi]` or a uniform failure
/// message.
fn gate_range(key: &str, observed: f64, lo: f64, hi: f64) -> Result<(), String> {
    if (lo..=hi).contains(&observed) {
        Ok(())
    } else {
        Err(gate_failure(
            key,
            format!("{observed:.4}"),
            &format!("range [{lo}, {hi}]"),
        ))
    }
}

/// Validates an existing snapshot file. The schema is auto-detected:
/// solver fast-path snapshots carry `cold_p50_us`, fleet snapshots carry
/// `scaling_w4`, telemetry snapshots carry neither. Returns an error
/// message on the first violation; every message names the offending
/// key, the observed value, and the required bound.
fn validate_snapshot(path: &PathBuf) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let line = text.trim();
    let event = EventLine::parse(line).ok_or("snapshot is not a flat JSON object")?;
    let is_solver = event.num("cold_p50_us").is_some();
    let is_fleet = event.num("scaling_w4").is_some();
    let keys = if is_solver {
        SOLVER_SCHEMA_KEYS
    } else if is_fleet {
        FLEET_SCHEMA_KEYS
    } else {
        SCHEMA_KEYS
    };
    for key in keys {
        let value = event.num(key).ok_or_else(|| {
            gate_failure(key, "<missing or non-numeric>", "a finite numeric value")
        })?;
        if !value.is_finite() {
            return Err(gate_failure(key, value, "a finite numeric value"));
        }
        if value < 0.0 {
            return Err(gate_failure(key, value, "a non-negative value"));
        }
    }
    if is_solver {
        // The fast path's reason to exist: warm solves must hold a 3×
        // median speedup over cold max-of-engines solves, and the
        // allocation cache must actually hit on a revisiting sequence.
        gate_floor(
            "speedup_warm_p50",
            event.num("speedup_warm_p50").unwrap_or(0.0),
            3.0,
        )?;
        let hit_rate = event.num("cache_hit_rate").unwrap_or(0.0);
        gate_range("cache_hit_rate", hit_rate, 0.0, 1.0)?;
        gate_floor("cache_hit_rate", hit_rate, 0.5)?;
    }
    if is_fleet {
        // Wall-clock scaling: lock-step fork-join epochs must actually
        // scale — but the floor only binds when the recording machine
        // had the cores to show it, and the snapshot must say so
        // honestly via `scaling_gated`, so a floor that was never
        // measured cannot silently pass as one that was.
        let scaling = event.num("scaling_w4").unwrap_or(0.0);
        let cores = event.num("cores").unwrap_or(0.0);
        let gated = event.flag("scaling_gated").ok_or_else(|| {
            gate_failure("scaling_gated", "<missing or non-boolean>", "a boolean")
        })?;
        if gated {
            if cores < 4.0 {
                return Err(gate_failure(
                    "scaling_gated",
                    "true",
                    &format!("cores >= 4 to have measured the floor (cores = {cores:.0})"),
                ));
            }
            gate_floor("scaling_w4", scaling, 2.0)?;
        } else {
            if cores >= 4.0 {
                return Err(gate_failure(
                    "scaling_gated",
                    "false",
                    &format!("true on a {cores:.0}-core machine (the 2x floor was measurable)"),
                ));
            }
            println!(
                "note: snapshot recorded on {cores:.0} cores (scaling_gated: false); \
                 2x scaling floor at 4 workers was not measurable"
            );
            if scaling <= 0.0 {
                return Err(gate_failure("scaling_w4", scaling, "a positive value"));
            }
        }
        // Structural gates hold on any machine — they are counts and
        // budgets, not wall-clock races.
        //
        // The bounded pool's reason to exist: the daemon's peak
        // thread bill must not grow with the session count.
        gate_ceiling(
            "sessions_peak_threads",
            event.num("sessions_peak_threads").unwrap_or(f64::MAX),
            event.num("sessions_thread_cap").unwrap_or(0.0),
        )
        .map_err(|e| format!("{e} (sessions_thread_cap)"))?;
        // The streaming fleet state's reason to exist: resident memory
        // per rack stays under the budget even at 100k racks.
        gate_ceiling(
            "racks100k_rss_kb_per_rack",
            event.num("racks100k_rss_kb_per_rack").unwrap_or(f64::MAX),
            RSS_KB_PER_RACK_CEILING,
        )?;
        // The shared solve cache's reason to exist: a homogeneous fleet
        // must reuse nearly every solve.
        let reuse = event.num("shared_solve_reuse_rate").unwrap_or(-1.0);
        gate_range("shared_solve_reuse_rate", reuse, 0.0, 1.0)?;
        gate_floor("shared_solve_reuse_rate", reuse, 0.9)?;
    }
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in kilobytes, or 0
/// where `/proc` is unavailable.
fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .unwrap_or(0.0)
}

/// Current thread count of this process, from `/proc/self/status`, or
/// 0 where `/proc` is unavailable.
fn process_threads() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Threads:")?.trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// The daemon point: hosts `args.sessions` serve sessions in-process on
/// the bounded session pool and measures wall time plus the peak
/// daemon-attributable thread count. Returns
/// `(secs, peak_threads, thread_cap)` where `peak_threads` is the
/// thread high-water delta over the pre-daemon baseline and the cap is
/// the structural `cores + 4` bill (pool workers + accept + spawner +
/// watchdog, with one thread of slack).
fn bench_sessions(args: &Args, cores: usize) -> (f64, f64, f64) {
    let threads_before = process_threads();
    let daemon = Daemon::start(ServeConfig {
        max_sessions: args.sessions as usize,
        admission_queue_depth: 64,
        drain_deadline_ms: 600_000,
        ..ServeConfig::default()
    })
    .expect("bench daemon starts");
    let supervisor = daemon.supervisor();
    let started = Instant::now();
    for i in 0..args.sessions {
        let mut spec = SessionSpec::named(&format!("bench-{i:05}"));
        spec.days = args.days;
        spec.servers_per_type = args.servers;
        if let Some(secs) = args.epoch_secs {
            spec.controller.epoch_len = SimDuration::from_secs(secs);
        }
        loop {
            match supervisor.submit(spec.clone()) {
                Ok(_) => break,
                Err(("backpressure", _)) => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err((reason, msg)) => panic!("bench session rejected: {reason}: {msg}"),
            }
        }
    }
    let mut peak_threads = process_threads();
    loop {
        peak_threads = peak_threads.max(process_threads());
        let snap = supervisor.status();
        if snap.active() == 0 {
            assert_eq!(
                snap.finished,
                u64::from(args.sessions),
                "every bench session must finish cleanly"
            );
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let secs = started.elapsed().as_secs_f64();
    let report = daemon.drain();
    assert_eq!(report.leaked, 0, "bench drain must not leak sessions");
    let peak_delta = (peak_threads - threads_before).max(0.0);
    let cap = cores as f64 + 4.0;
    println!(
        "sessions: {} sessions finished in {secs:.2} s on {} daemon threads \
         (cap {cap:.0}: {cores} pool workers + accept + spawner + watchdog + slack)",
        args.sessions, peak_delta
    );
    (secs, peak_delta, cap)
}

/// Benchmarks the fork-join epoch loop end to end: the
/// `racks`-rack headline fleet at 1, 2, 4, and 8 workers, the
/// `sessions`-session daemon point on the bounded pool, and the
/// homogeneous `racks100k`-rack memory point, writing the
/// `BENCH_fleet.json` snapshot.
fn bench_fleet(args: &Args) {
    let scenario_base = |policy| {
        let mut scenario = Scenario {
            days: args.days,
            servers_per_type: args.servers,
            ..Scenario::paper_runtime(policy)
        };
        if let Some(secs) = args.epoch_secs {
            scenario.controller.epoch_len = SimDuration::from_secs(secs);
        }
        scenario
    };
    let spec_for = |workers: usize| {
        let mut spec = FleetSpec::new(scenario_base(PolicyKind::GreenHetero), args.racks);
        spec.workers = workers;
        spec
    };

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut wall_secs = [0.0f64; 4];
    let mut epochs = 0usize;
    for (slot, workers) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let spec = spec_for(workers);
        let started = Instant::now();
        let report = spec.run().expect("fleet benchmark runs");
        wall_secs[slot] = started.elapsed().as_secs_f64();
        epochs = report.epochs.len();
        println!(
            "fleet: {} racks x {} epochs on {} workers in {:.2} s",
            args.racks, epochs, workers, wall_secs[slot]
        );
    }

    let best_secs = wall_secs.iter().copied().fold(f64::INFINITY, f64::min);
    let rack_epochs = f64::from(args.racks) * epochs as f64;

    // The honest-scaling gate: the 2x floor at 4 workers is only a
    // measurement when this machine could run 4 workers in parallel.
    let scaling_gated = cores >= 4;

    // VmHWM is a process-lifetime high-water mark, so read it before
    // the much larger fleet below inflates it: `rss_kb_per_rack` is a
    // claim about *this* fleet.
    let rss_kb = peak_rss_kb();

    // The daemon point: thousands of sessions on the bounded pool.
    let (sessions_secs, sessions_peak_threads, sessions_thread_cap) = bench_sessions(args, cores);

    // The memory point, run LAST so the process's VmHWM afterwards
    // bounds its resident footprint: two orders of magnitude past the
    // headline fleet, homogeneous and noise-free so every rack poses
    // bit-identical problems — the fleet-wide shared solve cache pays
    // one cold solve per distinct problem and the reuse rate approaches
    // (N-1)/N, while the streaming per-rack state keeps RSS/rack under
    // the budget.
    let big_racks: u32 = args.racks100k;
    let big_spec = FleetSpec::new(
        Scenario {
            meter_noise: Watts::new(0.0),
            perf_noise: 0.0,
            ..scenario_base(PolicyKind::GreenHetero)
        },
        big_racks,
    );
    let started = Instant::now();
    let big_report = big_spec.run().expect("large-fleet benchmark runs");
    let big_secs = started.elapsed().as_secs_f64();
    let big_epochs = big_report.epochs.len();
    let big_rack_epochs = f64::from(big_racks) * big_epochs as f64;
    let reuse = big_report.shared_solve.reuse_rate();
    let big_rss_kb = peak_rss_kb();
    let big_rss_kb_per_rack = big_rss_kb / f64::from(big_racks.max(1));
    println!(
        "fleet: {big_racks} homogeneous zero-noise racks x {big_epochs} epochs in \
         {big_secs:.2} s; shared-solve reuse rate {reuse:.4}; \
         peak RSS {:.1} MB ({big_rss_kb_per_rack:.2} kB/rack)",
        big_rss_kb / 1024.0
    );

    let mut json = String::from("{");
    let push = |json: &mut String, key: &str, value: f64| {
        if json.len() > 1 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{key}\": {value}");
    };
    push(&mut json, "schema_version", 1.0);
    push(&mut json, "racks", f64::from(args.racks));
    push(&mut json, "epochs", epochs as f64);
    push(&mut json, "rack_epochs", rack_epochs);
    push(&mut json, "cores", cores as f64);
    push(&mut json, "w1_secs", wall_secs[0]);
    push(&mut json, "w2_secs", wall_secs[1]);
    push(&mut json, "w4_secs", wall_secs[2]);
    push(&mut json, "w8_secs", wall_secs[3]);
    push(
        &mut json,
        "scaling_w2",
        wall_secs[0] / wall_secs[1].max(1e-9),
    );
    push(
        &mut json,
        "scaling_w4",
        wall_secs[0] / wall_secs[2].max(1e-9),
    );
    push(
        &mut json,
        "scaling_w8",
        wall_secs[0] / wall_secs[3].max(1e-9),
    );
    push(
        &mut json,
        "racks_per_sec",
        f64::from(args.racks) / best_secs.max(1e-9),
    );
    push(
        &mut json,
        "rack_epochs_per_sec",
        rack_epochs / best_secs.max(1e-9),
    );
    push(&mut json, "peak_rss_mb", rss_kb / 1024.0);
    push(
        &mut json,
        "rss_kb_per_rack",
        rss_kb / f64::from(args.racks.max(1)),
    );
    push(&mut json, "sessions", f64::from(args.sessions));
    push(&mut json, "sessions_secs", sessions_secs);
    push(&mut json, "sessions_peak_threads", sessions_peak_threads);
    push(&mut json, "sessions_thread_cap", sessions_thread_cap);
    push(&mut json, "racks100k", f64::from(big_racks));
    push(&mut json, "racks100k_epochs", big_epochs as f64);
    push(&mut json, "racks100k_secs", big_secs);
    push(
        &mut json,
        "racks100k_rack_epochs_per_sec",
        big_rack_epochs / big_secs.max(1e-9),
    );
    push(&mut json, "racks100k_rss_kb_per_rack", big_rss_kb_per_rack);
    push(&mut json, "shared_solve_reuse_rate", reuse);
    // The one boolean key: whether the 2x floor above was actually
    // measured on this machine.
    let _ = write!(json, ", \"scaling_gated\": {scaling_gated}");
    json.push_str("}\n");

    std::fs::write(&args.fleet_out, &json).expect("fleet snapshot file is writable");
    println!("wrote {}", args.fleet_out.display());
    println!(
        "fleet: best {:.2} s for {:.0} rack-epochs ({:.0}/s); scaling 1->4 workers {:.2}x \
         on {} cores; peak RSS {:.1} MB ({:.1} kB/rack)",
        best_secs,
        rack_epochs,
        rack_epochs / best_secs.max(1e-9),
        wall_secs[0] / wall_secs[2].max(1e-9),
        cores,
        rss_kb / 1024.0,
        rss_kb / f64::from(args.racks.max(1)),
    );
}

/// The 3-type allocation problem the solver hot loop exercises (matches
/// the `solver` micro-benchmark's mid-size case).
fn solver_problem() -> AllocationProblem {
    let groups: Vec<ServerGroup> = (0..3u32)
        .map(|i| {
            let idle = 40.0 + f64::from(i) * 12.0;
            let peak = 90.0 + f64::from(i) * 22.0;
            ServerGroup::new(
                ConfigId::new(i),
                5,
                PerfModel::new(
                    Quadratic {
                        l: -500.0 - f64::from(i) * 100.0,
                        m: 30.0 + f64::from(i) * 5.0,
                        n: -0.06 - f64::from(i) * 0.01,
                    },
                    PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap(),
                ),
            )
            .unwrap()
        })
        .collect();
    let budget: f64 = groups.iter().map(|g| g.group_peak().value()).sum::<f64>() * 0.7;
    AllocationProblem::new(groups, Watts::new(budget)).unwrap()
}

/// Exact quantile from a sorted sample vector (nearest-rank).
fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Benchmarks the solver fast path in isolation — cold max-of-engines
/// solves versus warm-started and cache-hit solves — and writes the
/// `BENCH_solver.json` snapshot.
fn bench_fast_path(out: &PathBuf) {
    let base = solver_problem();
    let calls = 2_000usize;

    // A drifting budget sequence: a ±2 % triangle wave around the base
    // budget, small enough that the warm gate stays open on every step.
    let problems: Vec<AllocationProblem> = (0..calls)
        .map(|i| {
            let phase = (i % 40) as f64 / 40.0;
            let wobble = if phase < 0.5 { phase } else { 1.0 - phase };
            let factor = 0.98 + 0.08 * wobble;
            AllocationProblem::new(
                base.groups().to_vec(),
                Watts::new(base.budget().value() * factor),
            )
            .expect("drifted problem is valid")
        })
        .collect();

    // Cold: the combined max-of-engines solver, fresh scratch per call.
    let mut cold_us = Vec::with_capacity(calls);
    let before_cold = ALLOCATIONS.load(Ordering::Relaxed);
    for p in &problems {
        let t = Instant::now();
        std::hint::black_box(solve(std::hint::black_box(p)).expect("cold solve succeeds"));
        cold_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let cold_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before_cold;

    // Warm: the fast path with its default config over the same drift
    // (one unmeasured call opens the gate).
    let mut fast = SolverFastPath::default();
    fast.solve(&problems[0]).expect("warmup solve succeeds");
    let mut warm_us = Vec::with_capacity(calls);
    let before_warm = ALLOCATIONS.load(Ordering::Relaxed);
    for p in &problems {
        let t = Instant::now();
        std::hint::black_box(
            fast.solve(std::hint::black_box(p))
                .expect("warm solve succeeds"),
        );
        warm_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let warm_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before_warm;

    // Cached: a short rotation of recurring problems with the warm gate
    // off, so every answer flows through the allocation cache.
    let mut cached_path = SolverFastPath::new(FastPathConfig {
        warm_start: false,
        ..FastPathConfig::default()
    });
    let rotation: Vec<&AllocationProblem> = problems.iter().step_by(calls / 4).collect();
    let mut cached_us = Vec::with_capacity(calls);
    for i in 0..calls {
        let p = rotation[i % rotation.len()];
        let t = Instant::now();
        std::hint::black_box(
            cached_path
                .solve(std::hint::black_box(p))
                .expect("cached solve succeeds"),
        );
        cached_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let stats = cached_path.stats();
    let hit_rate = stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64;

    cold_us.sort_by(f64::total_cmp);
    warm_us.sort_by(f64::total_cmp);
    cached_us.sort_by(f64::total_cmp);
    let cold_p50 = percentile_us(&cold_us, 0.50);
    let warm_p50 = percentile_us(&warm_us, 0.50);
    let speedup = cold_p50 / warm_p50.max(1e-9);

    let mut json = String::from("{");
    let push = |json: &mut String, key: &str, value: f64| {
        if json.len() > 1 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{key}\": {value}");
    };
    push(&mut json, "schema_version", 1.0);
    push(&mut json, "solver_calls", calls as f64);
    push(&mut json, "cold_p50_us", cold_p50);
    push(&mut json, "cold_p99_us", percentile_us(&cold_us, 0.99));
    push(&mut json, "warm_p50_us", warm_p50);
    push(&mut json, "warm_p99_us", percentile_us(&warm_us, 0.99));
    push(&mut json, "cached_p50_us", percentile_us(&cached_us, 0.50));
    push(&mut json, "cached_p99_us", percentile_us(&cached_us, 0.99));
    push(&mut json, "speedup_warm_p50", speedup);
    push(&mut json, "cache_hit_rate", hit_rate);
    push(
        &mut json,
        "allocs_per_cold_solve",
        cold_allocs as f64 / calls as f64,
    );
    push(
        &mut json,
        "allocs_per_warm_solve",
        warm_allocs as f64 / calls as f64,
    );
    json.push_str("}\n");

    std::fs::write(out, &json).expect("solver snapshot file is writable");
    println!("wrote {}", out.display());
    println!(
        "solver fast path: cold p50 {cold_p50:.1} us, warm p50 {warm_p50:.1} us \
         ({speedup:.1}x), cached p50 {:.1} us; hit rate {hit_rate:.3}; \
         allocs/solve cold {:.1}, warm {:.1}",
        percentile_us(&cached_us, 0.50),
        cold_allocs as f64 / calls as f64,
        warm_allocs as f64 / calls as f64,
    );
}

fn main() {
    let args = parse_args();

    if let Some(path) = &args.validate {
        match validate_snapshot(path) {
            Ok(()) => {
                println!("{} matches the bench_snapshot schema", path.display());
                return;
            }
            Err(reason) => {
                eprintln!("{} failed validation: {reason}", path.display());
                std::process::exit(1);
            }
        }
    }

    if args.fleet {
        bench_fleet(&args);
        return;
    }

    // 1. The Fig. 8 runtime scenario with a collecting sink.
    let sink = Arc::new(CollectingSink::new());
    let scenario = Scenario {
        days: args.days,
        servers_per_type: args.servers,
        telemetry: TelemetrySpec::Sink(sink.clone()),
        ..Scenario::paper_runtime(PolicyKind::GreenHetero)
    };
    let started = Instant::now();
    let report = run_scenario(scenario).expect("Fig. 8 scenario runs");
    let run_wall = started.elapsed();

    let epochs = report.epochs.len();
    let events = sink.epochs().len();
    assert_eq!(events, epochs, "one telemetry event per epoch");
    let events_per_sec = events as f64 / run_wall.as_secs_f64().max(1e-9);

    let wall_hist = report
        .ledger
        .histogram(names::EPOCH_WALL_SECONDS)
        .expect("epoch wall-time histogram registered");
    let epoch_mean_us = if wall_hist.count > 0 {
        wall_hist.sum / wall_hist.count as f64 * 1e6
    } else {
        0.0
    };

    // 2. Solver hot loop: exact percentiles over individually timed calls.
    let problem = solver_problem();
    let solver_calls = 2_000usize;
    let mut samples_us = Vec::with_capacity(solver_calls);
    for _ in 0..solver_calls {
        let t = Instant::now();
        let allocation = solve(std::hint::black_box(&problem)).expect("solver succeeds");
        std::hint::black_box(allocation);
        samples_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples_us.sort_by(f64::total_cmp);

    // 3. The flat JSON snapshot, keys in SCHEMA_KEYS order.
    let mut json = String::from("{");
    let push = |json: &mut String, key: &str, value: f64| {
        if json.len() > 1 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{key}\": {value}");
    };
    push(&mut json, "schema_version", 1.0);
    push(&mut json, "days", args.days as f64);
    push(&mut json, "servers_per_type", f64::from(args.servers));
    push(&mut json, "epochs", epochs as f64);
    push(&mut json, "epoch_wall_p50_us", wall_hist.p50 * 1e6);
    push(&mut json, "epoch_wall_p99_us", wall_hist.p99 * 1e6);
    push(&mut json, "epoch_wall_mean_us", epoch_mean_us);
    push(&mut json, "solver_p50_us", percentile_us(&samples_us, 0.50));
    push(&mut json, "solver_p99_us", percentile_us(&samples_us, 0.99));
    push(&mut json, "solver_calls", solver_calls as f64);
    push(&mut json, "events_per_sec", events_per_sec);
    push(&mut json, "run_wall_ms", run_wall.as_secs_f64() * 1e3);
    json.push_str("}\n");

    std::fs::write(&args.out, &json).expect("snapshot file is writable");
    println!("wrote {}", args.out.display());
    bench_fast_path(&args.solver_out);
    println!(
        "{} epochs in {:.0} ms; epoch wall p50 {:.0} us, p99 {:.0} us; \
         solver p50 {:.1} us, p99 {:.1} us; {:.0} events/s",
        epochs,
        run_wall.as_secs_f64() * 1e3,
        wall_hist.p50 * 1e6,
        wall_hist.p99 * 1e6,
        percentile_us(&samples_us, 0.50),
        percentile_us(&samples_us, 0.99),
        events_per_sec
    );
}
