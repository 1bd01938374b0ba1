//! The traced run: per-layer metrics, named `<module>.<metric>`.
//!
//! Every traced run prints the same set. The layers the workload itself
//! drives are measured on the workload; the ones it bypasses come from
//! a small fixed probe, so a fleet run also reports the wire layers and
//! a serve run the engine and fleet layers. `meta.probed` names which
//! ones came from a probe.

use std::time::{Duration, Instant};

use greenhetero::serve::Supervisor;
use greenhetero_perfbench::report::{Meta, Metrics};
use greenhetero_perfbench::split::SPLIT_TOLERANCE;
use greenhetero_perfbench::stats::{LogHistogram, Samples};
use greenhetero_perfbench::tally::Failure;

use crate::fleet::{self, FleetTrace};
use crate::probe;
use crate::serve::{self, Rtts};
use crate::{Ctx, Workload};

/// Racks in the fleet probe a serve run traces.
const PROBE_RACKS: u32 = 100;
/// Wire rounds per half (untraced, then traced) on `serve_tick`.
const SERVE_HALF_ROUNDS: u64 = 7;
/// Wire rounds per half in the serve probe of a fleet run.
const PROBE_HALF_ROUNDS: u64 = 2;
/// Rounds driven through `Supervisor` alone.
const SUPERVISOR_ROUNDS: u64 = 48;
/// Full one-day session runs stepped for `session.step_us`.
const SESSION_STEP_DAYS: usize = 3;

/// Wire and supervisor measurements of one serve trace.
#[derive(Debug, Default)]
struct ServeTrace {
    untraced_rate: f64,
    traced_rate: f64,
    rtts: Rtts,
    submit_ms: Samples,
    polls_per_decision: f64,
    pool_polls_per_decision: f64,
    pool_steals: f64,
    supervisor_tick_us: Samples,
    supervisor_decisions_us: Samples,
    wake_ms: Samples,
    session_step_us: Samples,
}

/// Converts a supervisor rejection into a failure.
fn rejected(what: &str, (tag, message): (&'static str, String)) -> Failure {
    Failure::Rejected(format!("{what}: {tag}: {message}"))
}

/// Ticks `SUPERVISOR_ROUNDS` rounds of fresh sessions through the
/// in-process `Supervisor`: call times of `tick`/`decisions`, and the
/// tick → decision wake time with no wire in between.
fn supervisor_rounds(
    ctx: &Ctx,
    sup: &Supervisor,
    oracle: &[Vec<String>],
    out: &mut ServeTrace,
) -> Result<(), String> {
    let specs: Vec<_> = (0..serve::SESSIONS)
        .map(|i| serve::session_spec("sup", ctx.seed, i))
        .collect();
    for spec in &specs {
        sup.submit(spec.clone())
            .map_err(|(tag, m)| format!("supervisor submit: {tag}: {m}"))?;
    }
    for spec in &specs {
        let deadline = Instant::now() + serve::REQUEST_DEADLINE;
        loop {
            let status = sup
                .session_status(&spec.name)
                .map_err(|(tag, m)| format!("supervisor status: {tag}: {m}"))?;
            match status.state {
                "running" => break,
                "pending" if Instant::now() < deadline => std::thread::yield_now(),
                other => return Err(format!("supervisor session never ran: {other}")),
            }
        }
    }
    for round in 0..SUPERVISOR_ROUNDS {
        let mut sent = Vec::with_capacity(specs.len());
        for spec in &specs {
            let t = Instant::now();
            let ticked = ctx.guard("supervisor_tick", serve::REQUEST_DEADLINE, || {
                sup.tick(&spec.name)
            });
            out.supervisor_tick_us.push(t.elapsed().as_secs_f64() * 1e6);
            let ok = ctx.record(ticked.map(drop).map_err(|r| rejected("supervisor tick", r)));
            sent.push(ok.then_some(t));
        }
        for ((spec, want), sent) in specs.iter().zip(oracle).zip(sent) {
            let Some(sent) = sent else { continue };
            ctx.guard("supervisor_decisions", serve::REQUEST_DEADLINE, || loop {
                let t = Instant::now();
                let fetched = sup.decisions(&spec.name, round, 1);
                out.supervisor_decisions_us
                    .push(t.elapsed().as_secs_f64() * 1e6);
                match fetched {
                    Ok((lines, ..)) if lines.is_empty() => {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    Ok((lines, ..)) => {
                        out.wake_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        ctx.check(&lines[0], &want[round as usize], "supervisor decision line");
                        break;
                    }
                    Err(r) => {
                        ctx.record(Err(rejected("supervisor decisions", r)));
                        break;
                    }
                }
            });
        }
    }
    Ok(())
}

/// Drives a daemon over the wire for `half` untraced then `half` traced
/// rounds, then through the `Supervisor` alone.
fn serve_trace(ctx: &Ctx, half: u64) -> Result<ServeTrace, String> {
    let mut out = ServeTrace::default();
    let (mut host, _) = serve::setup(ctx, &mut out.submit_ms)?;
    let oracle = serve::oracle_lines(&host.specs)?;

    let untraced = serve::closed_loop(ctx, &mut host, &oracle, 0, None, |rounds, _, _| {
        rounds >= half
    });
    let pool_before = host.daemon.supervisor().pool_stats();
    let traced = serve::closed_loop(
        ctx,
        &mut host,
        &oracle,
        untraced.rounds,
        Some(&mut out.rtts),
        |rounds, _, _| rounds >= half,
    );
    let pool_after = host.daemon.supervisor().pool_stats();
    let delivered = traced.decisions.max(1) as f64;
    out.untraced_rate = untraced.decisions as f64 / untraced.wall.as_secs_f64();
    out.traced_rate = traced.decisions as f64 / traced.wall.as_secs_f64();
    out.polls_per_decision = (traced.decisions + traced.empty_polls) as f64 / delivered;
    out.pool_polls_per_decision = (pool_after.polls - pool_before.polls) as f64 / delivered;
    out.pool_steals = (pool_after.steals - pool_before.steals) as f64;

    supervisor_rounds(ctx, host.daemon.supervisor(), &oracle, &mut out)?;
    let scenario = host.specs[0].scenario().map_err(|e| e.to_string())?;
    serve::drain(ctx, host);
    for _ in 0..SESSION_STEP_DAYS {
        out.session_step_us.extend(probe::step(&scenario)?);
    }
    Ok(out)
}

/// Median of the `pick`ed set-up component over the samples, in ms.
fn setup_ms(samples: &[fleet::SetupSample], pick: fn(&fleet::SetupSample) -> Duration) -> f64 {
    let mut values = Samples::new();
    for s in samples {
        values.push(pick(s).as_secs_f64() * 1e3);
    }
    values.median().unwrap_or(f64::NAN)
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |v| v as f64 / 1e3)
}

/// Puts the fleet-side layer metrics (engine phases, fleet split,
/// solver reuse) from a traced fleet run.
fn put_fleet(m: &mut Metrics, trace: Option<&FleetTrace>) {
    let nan = f64::NAN;
    let Some(t) = trace else {
        for (name, unit) in FLEET_LAYER_METRICS {
            m.put(name, nan, unit);
        }
        return;
    };
    let totals = &t.snap.totals;
    let wall: &LogHistogram = &t.snap.epoch_wall;
    let lookups = totals.cache_hits + totals.cache_misses;
    let solves = lookups + totals.warm_starts;
    m.put("engine.epoch_wall_us.p50", us(wall.percentile(0.5)), "us");
    m.put("engine.epoch_wall_us.p99", us(wall.percentile(0.99)), "us");
    m.put(
        "engine.epoch_wall_us.mean",
        wall.mean().map_or(nan, |v| v / 1e3),
        "us",
    );
    m.put(
        "predictor.predict_ns.mean",
        totals.mean_ns(totals.predict_ns),
        "ns",
    );
    m.put(
        "sources.select_ns.mean",
        totals.mean_ns(totals.sources_ns),
        "ns",
    );
    m.put(
        "solver.solve_us.mean",
        totals.mean_ns(totals.solve_ns) / 1e3,
        "us",
    );
    m.put(
        "solver.solve_share",
        totals.solve_ns as f64 / (totals.wall_ns as f64).max(1.0),
        "ratio",
    );
    m.put(
        "enforcer.enforce_us.mean",
        totals.mean_ns(totals.enforce_ns) / 1e3,
        "us",
    );
    m.put(
        "engine.other_us.mean",
        totals.mean_ns(totals.other_ns) / 1e3,
        "us",
    );
    m.put("fleet.overhead_share", t.split.overhead, "ratio");
    m.put("fleet.split_residual_share", t.split.residual, "ratio");
    m.put(
        "fleet.epoch_ms.p50",
        t.snap
            .fleet_epoch
            .percentile(0.5)
            .map_or(nan, |v| v as f64 / 1e6),
        "ms",
    );
    m.put(
        "fleet.epoch_ms.p99",
        t.snap
            .fleet_epoch
            .percentile(0.99)
            .map_or(nan, |v| v as f64 / 1e6),
        "ms",
    );
    m.put(
        "solver.local_hit_ratio",
        totals.cache_hits as f64 / (lookups.max(1)) as f64,
        "ratio",
    );
    m.put(
        "solver.warm_ratio",
        totals.warm_starts as f64 / (solves.max(1)) as f64,
        "ratio",
    );
    m.put("solver.shared_reuse_ratio", t.shared_reuse, "ratio");
    m.put(
        "solver.shared_insertions",
        t.shared_insertions as f64,
        "count",
    );
    m.put(
        "solver.shared_duplicate_misses",
        t.shared_duplicate_misses as f64,
        "count",
    );
}

/// The fleet-side per-layer metrics and their units.
const FLEET_LAYER_METRICS: &[(&str, &str)] = &[
    ("engine.epoch_wall_us.p50", "us"),
    ("engine.epoch_wall_us.p99", "us"),
    ("engine.epoch_wall_us.mean", "us"),
    ("predictor.predict_ns.mean", "ns"),
    ("sources.select_ns.mean", "ns"),
    ("solver.solve_us.mean", "us"),
    ("solver.solve_share", "ratio"),
    ("enforcer.enforce_us.mean", "us"),
    ("engine.other_us.mean", "us"),
    ("fleet.overhead_share", "ratio"),
    ("fleet.split_residual_share", "ratio"),
    ("fleet.epoch_ms.p50", "ms"),
    ("fleet.epoch_ms.p99", "ms"),
    ("solver.local_hit_ratio", "ratio"),
    ("solver.warm_ratio", "ratio"),
    ("solver.shared_reuse_ratio", "ratio"),
    ("solver.shared_insertions", "count"),
    ("solver.shared_duplicate_misses", "count"),
];

/// Puts the wire-side layer metrics from a serve trace.
fn put_serve(m: &mut Metrics, trace: &mut ServeTrace) {
    let nan = f64::NAN;
    let pct = |s: &mut Samples, q: f64| s.percentile(q).unwrap_or(nan);
    m.put(
        "client.tick_rtt_ms.p50",
        pct(&mut trace.rtts.tick_ms, 0.5),
        "ms",
    );
    m.put(
        "client.tick_rtt_ms.p90",
        pct(&mut trace.rtts.tick_ms, 0.9),
        "ms",
    );
    m.put(
        "client.decisions_rtt_ms.p50",
        pct(&mut trace.rtts.decisions_ms, 0.5),
        "ms",
    );
    m.put(
        "client.decisions_rtt_ms.p90",
        pct(&mut trace.rtts.decisions_ms, 0.9),
        "ms",
    );
    m.put(
        "client.submit_rtt_ms.p50",
        pct(&mut trace.submit_ms, 0.5),
        "ms",
    );
    m.put(
        "client.submit_rtt_ms.p90",
        pct(&mut trace.submit_ms, 0.9),
        "ms",
    );
    m.put(
        "supervisor.tick_us.p50",
        pct(&mut trace.supervisor_tick_us, 0.5),
        "us",
    );
    m.put(
        "supervisor.decisions_us.p50",
        pct(&mut trace.supervisor_decisions_us, 0.5),
        "us",
    );
    m.put("session.wake_ms.p50", pct(&mut trace.wake_ms, 0.5), "ms");
    m.put("session.wake_ms.p90", pct(&mut trace.wake_ms, 0.9), "ms");
    m.put(
        "session.step_us.p50",
        pct(&mut trace.session_step_us, 0.5),
        "us",
    );
    m.put(
        "client.polls_per_decision",
        trace.polls_per_decision,
        "ratio",
    );
    m.put(
        "pool.polls_per_decision",
        trace.pool_polls_per_decision,
        "ratio",
    );
    m.put("pool.steals", trace.pool_steals, "count");
}

/// Puts the fixed-probe and set-up metrics, and their sample counts.
fn put_probes(
    m: &mut Metrics,
    meta: &mut Meta,
    solver: &mut probe::SolverProbe,
    step: &mut Samples,
    setup: &[fleet::SetupSample],
) {
    meta.raw(
        "probe_samples",
        format!(
            "{{\"solver_each_path\": {}, \"step\": {}, \"setup\": {}}}",
            solver.cold_us.len(),
            step.len(),
            setup.len()
        ),
    );
    let nan = f64::NAN;
    m.put(
        "solver.cold_us.p50",
        solver.cold_us.median().unwrap_or(nan),
        "us",
    );
    m.put(
        "solver.warm_us.p50",
        solver.warm_us.median().unwrap_or(nan),
        "us",
    );
    m.put(
        "solver.cached_us.p50",
        solver.cached_us.median().unwrap_or(nan),
        "us",
    );
    m.put("engine.step_us.p50", step.median().unwrap_or(nan), "us");
    m.put(
        "engine.step_us.p99",
        step.percentile(0.99).unwrap_or(nan),
        "us",
    );
    m.put(
        "setup.build_rack_ms",
        setup_ms(setup, |s| s.build_rack),
        "ms",
    );
    m.put("setup.solar_ms", setup_ms(setup, |s| s.solar), "ms");
    m.put("setup.pretrain_ms", setup_ms(setup, |s| s.pretrain), "ms");
}

fn put_trace_overhead(m: &mut Metrics, untraced: f64, traced: f64) {
    m.put("trace.untraced_per_s", untraced, "1/s");
    m.put("trace.traced_per_s", traced, "1/s");
    m.put("trace.overhead_share", 1.0 - traced / untraced, "ratio");
}

fn put_split_meta(meta: &mut Meta, trace: Option<&FleetTrace>) {
    meta.num("split_tolerance", SPLIT_TOLERANCE);
    if let Some(t) = trace {
        let s = &t.split;
        meta.raw(
            "split",
            format!(
                "{{\"predict\": {}, \"sources\": {}, \"solve\": {}, \"enforce\": {}, \"other\": {}, \"overhead\": {}, \"residual\": {}, \"closes\": {}, \"events\": {}, \"workers\": {}}}",
                s.predict, s.sources, s.solve, s.enforce, s.other, s.overhead, s.residual,
                s.closes(), s.events, t.workers
            ),
        );
        let totals = &t.snap.totals;
        meta.raw(
            "solver_counts",
            format!(
                "{{\"local_hits\": {}, \"local_misses\": {}, \"warm_starts\": {}, \"overlapping_events\": {}}}",
                totals.cache_hits, totals.cache_misses, totals.warm_starts, totals.overlapping
            ),
        );
        meta.num("fleet_epoch_samples", t.snap.fleet_epoch.count() as f64);
        if let Some((epoch, ns)) = t.snap.slowest_epoch {
            meta.raw(
                "slowest_fleet_epoch",
                format!("{{\"epoch\": {epoch}, \"ms\": {}}}", ns as f64 / 1e6),
            );
        }
        meta.num("epoch_wall_samples", t.snap.epoch_wall.count() as f64);
    }
}

fn put_serve_meta(meta: &mut Meta, trace: &ServeTrace) {
    meta.raw(
        "serve_samples",
        format!(
            "{{\"tick_rtt\": {}, \"decisions_rtt\": {}, \"submit_rtt\": {}, \"supervisor_tick\": {}, \"supervisor_decisions\": {}, \"wake\": {}, \"session_step\": {}}}",
            trace.rtts.tick_ms.len(),
            trace.rtts.decisions_ms.len(),
            trace.submit_ms.len(),
            trace.supervisor_tick_us.len(),
            trace.supervisor_decisions_us.len(),
            trace.wake_ms.len(),
            trace.session_step_us.len(),
        ),
    );
}

/// The traced run of a fleet workload.
///
/// # Errors
///
/// Set-up failures.
pub fn fleet(ctx: &Ctx, meta: &mut Meta) -> Result<Metrics, String> {
    let expect = fleet::expected_digest(ctx)?;
    let spec = fleet::workload_spec(ctx.workload, ctx.seed);
    let setup = fleet::setup_samples(&spec.base, fleet::SETUP_REPS, 0)?;
    let trace = fleet::traced(ctx, &spec, expect);
    let mut serve = serve_trace(ctx, PROBE_HALF_ROUNDS)?;
    let mut solver = probe::solver()?;
    let mut step = probe::step(&spec.base)?;

    let mut m = Metrics::new();
    put_fleet(&mut m, trace.as_ref());
    put_probes(&mut m, meta, &mut solver, &mut step, &setup);
    put_serve(&mut m, &mut serve);
    let (untraced, traced) = trace
        .as_ref()
        .map_or((f64::NAN, f64::NAN), |t| (t.untraced_rate, t.traced_rate));
    put_trace_overhead(&mut m, untraced, traced);

    meta.num("racks", f64::from(spec.racks));
    meta.num("workers", spec.workers as f64);
    meta.text("probed", "client.*, supervisor.*, session.*, pool.*");
    put_split_meta(meta, trace.as_ref());
    put_serve_meta(meta, &serve);
    Ok(m)
}

/// The traced run of `serve_tick`.
///
/// # Errors
///
/// Set-up failures.
pub fn serve(ctx: &Ctx, meta: &mut Meta) -> Result<Metrics, String> {
    let mut serve = serve_trace(ctx, SERVE_HALF_ROUNDS)?;
    let probe_spec = fleet::spec(Workload::FleetPaper, ctx.seed, PROBE_RACKS);
    let expect = fleet::fingerprint(
        &ctx.guard("fleet_probe_oracle", fleet::RUN_DEADLINE, || {
            probe_spec.run_sequential()
        })
        .map_err(|e| e.to_string())?,
    );
    let trace = fleet::traced(ctx, &probe_spec, &expect);
    let setup = fleet::setup_samples(&probe_spec.base, fleet::SETUP_REPS, 0)?;
    let mut solver = probe::solver()?;
    let mut step = probe::step(&probe_spec.base)?;

    let mut m = Metrics::new();
    put_fleet(&mut m, trace.as_ref());
    put_probes(&mut m, meta, &mut solver, &mut step, &setup);
    put_serve(&mut m, &mut serve);
    put_trace_overhead(&mut m, serve.untraced_rate, serve.traced_rate);

    meta.num("sessions", serve::SESSIONS as f64);
    meta.num("workers", ctx.nproc as f64);
    meta.num("probe_racks", f64::from(PROBE_RACKS));
    meta.text(
        "probed",
        "engine.*, predictor.*, sources.*, solver.*, enforcer.*, fleet.*",
    );
    put_split_meta(meta, trace.as_ref());
    put_serve_meta(meta, &serve);
    Ok(m)
}
