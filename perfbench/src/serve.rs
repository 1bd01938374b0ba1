//! The `serve_tick` workload: an in-process daemon with manual sessions,
//! driven closed-loop by one `ServeClient` connection.

use std::time::{Duration, Instant};

use greenhetero::serve::{
    decision_line, ClientTimeouts, Daemon, ServeClient, ServeConfig, SessionSpec,
};
use greenhetero::sim::engine::{run_scenario, Stepper};
use greenhetero_perfbench::report::{Meta, Metrics};
use greenhetero_perfbench::stats::Samples;
use greenhetero_perfbench::tally::Failure;

use crate::Ctx;

/// Sessions hosted (and ticked every round). At ~88 ms per request a
/// round of 8 ticks and 8 fetches takes ~1.4 s, well inside the 5 s
/// heartbeat; 32 sessions overrun it and get evicted.
pub const SESSIONS: usize = 8;
/// Rounds every run completes, whatever `--seconds` says: 13 × 8 = 104
/// decisions, enough for a p90 with ten samples beyond it. The sim
/// objectives cover exactly these epochs.
pub const MIN_ROUNDS: u64 = 13;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Deadline for one request (and for one decision to arrive).
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// The `i`-th session of a run with workload seed `seed`.
pub fn session_spec(prefix: &str, seed: u64, i: usize) -> SessionSpec {
    let mut spec = SessionSpec::named(&format!("{prefix}-{i:02}"));
    spec.manual = true;
    // The wire carries numbers as f64: keep seeds below 2^53.
    spec.seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64) & ((1 << 53) - 1);
    spec
}

/// Every session's expected decision lines: `decision_line` over the
/// batch run of its scenario.
///
/// # Errors
///
/// Scenario or run failures.
pub fn oracle_lines(specs: &[SessionSpec]) -> Result<Vec<Vec<String>>, String> {
    specs
        .iter()
        .map(|spec| {
            let scenario = spec.scenario().map_err(|e| e.to_string())?;
            let report = run_scenario(scenario).map_err(|e| e.to_string())?;
            Ok(report.epochs.iter().map(decision_line).collect())
        })
        .collect()
}

/// A daemon with its sessions admitted and one client connected.
pub struct Host {
    /// The daemon.
    pub daemon: Daemon,
    /// The benchmark's one connection.
    pub client: ServeClient,
    /// The admitted sessions.
    pub specs: Vec<SessionSpec>,
}

/// Starts a daemon on `workers` pool threads and admits `specs` over the
/// wire, waiting until every session runs. Submit round trips go into
/// `submit_rtt_ms`.
///
/// # Errors
///
/// Start, connect, or admission failures.
pub fn start_host(
    ctx: &Ctx,
    specs: Vec<SessionSpec>,
    submit_rtt_ms: &mut Samples,
) -> Result<Host, String> {
    let daemon = Daemon::start(ServeConfig {
        worker_threads: ctx.nproc,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let timeouts = ClientTimeouts {
        read: Some(REQUEST_DEADLINE),
        write: Some(REQUEST_DEADLINE),
    };
    let mut client = ServeClient::connect_with_timeouts(&daemon.local_addr().to_string(), timeouts)
        .map_err(|e| format!("connect: {e:?}"))?;
    for spec in &specs {
        let sent = Instant::now();
        let reply = ctx
            .guard("submit", REQUEST_DEADLINE, || client.submit(spec))
            .map_err(|e| format!("submit {}: {e:?}", spec.name))?;
        submit_rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        if reply.flag("ok") != Some(true) {
            return Err(format!(
                "submit {} rejected: {:?}",
                spec.name,
                reply.text("reason")
            ));
        }
    }
    for spec in &specs {
        let deadline = Instant::now() + REQUEST_DEADLINE;
        loop {
            let status = ctx
                .guard("admission_status", REQUEST_DEADLINE, || {
                    client.session_status(&spec.name)
                })
                .map_err(|e| format!("status {}: {e:?}", spec.name))?;
            match status.text("state") {
                Some("running") => break,
                Some("pending") if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => return Err(format!("session {} never ran: {other:?}", spec.name)),
            }
        }
    }
    Ok(Host {
        daemon,
        client,
        specs,
    })
}

/// Drains `host`'s daemon; a drain that leaks a session or misses its
/// deadline is a failed operation.
pub fn drain(ctx: &Ctx, host: Host) {
    let Host { daemon, client, .. } = host;
    drop(client);
    let report = ctx.guard("drain", Duration::from_secs(30), || daemon.drain());
    ctx.record(if report.within_deadline && report.leaked == 0 {
        Ok(())
    } else {
        Err(Failure::Rejected(format!(
            "drain: within_deadline={} leaked={}",
            report.within_deadline, report.leaked
        )))
    });
}

/// Sets up `SETUP_REPS` times (draining all but the last host) and
/// returns the last host with the set-up times in seconds.
///
/// # Errors
///
/// Any repetition's set-up failure.
pub fn setup(ctx: &Ctx, submit_rtt_ms: &mut Samples) -> Result<(Host, Samples), String> {
    let specs: Vec<SessionSpec> = (0..SESSIONS)
        .map(|i| session_spec("rack", ctx.seed, i))
        .collect();
    let mut times = Samples::new();
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let host = start_host(ctx, specs.clone(), submit_rtt_ms)?;
        times.push(started.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((host, times));
        }
        drain(ctx, host);
    }
    Err("no set-up repetitions".into())
}

/// Per-call round trips, recorded only when tracing.
#[derive(Debug, Default)]
pub struct Rtts {
    /// `ServeClient::tick` round trips, ms.
    pub tick_ms: Samples,
    /// `ServeClient::decisions` round trips (every poll), ms.
    pub decisions_ms: Samples,
}

/// What a closed-loop stretch of rounds delivered.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Tick sent → matching decision received, ms.
    pub latency_ms: Samples,
    /// Decisions received and checked.
    pub decisions: u64,
    /// Decision fetches that came back empty.
    pub empty_polls: u64,
    /// Rounds completed.
    pub rounds: u64,
    /// Wall time of the rounds.
    pub wall: Duration,
}

/// Runs rounds `from..` until `stop(rounds_done, elapsed, last_round)`
/// says to, or the session horizon ends. Each round ticks every session,
/// then fetches each session's new decision with `decisions(name,
/// round, 1)`, polling until it lands. Ticks and fetches are attempts;
/// every decision is compared to the oracle.
pub fn closed_loop(
    ctx: &Ctx,
    host: &mut Host,
    oracle: &[Vec<String>],
    from: u64,
    mut rtts: Option<&mut Rtts>,
    stop: impl Fn(u64, Duration, Duration) -> bool,
) -> LoopOutcome {
    let horizon = oracle.iter().map(Vec::len).min().unwrap_or(0) as u64;
    let mut out = LoopOutcome::default();
    let started = Instant::now();
    let mut round = from;
    'rounds: while round < horizon {
        let round_started = Instant::now();
        let mut sent = Vec::with_capacity(host.specs.len());
        for spec in &host.specs {
            let t = Instant::now();
            let reply = ctx.guard("tick", REQUEST_DEADLINE, || host.client.tick(&spec.name));
            if let Some(r) = rtts.as_deref_mut() {
                r.tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let accepted = match reply {
                Ok(line) if line.flag("ok") == Some(true) => ctx.record(Ok(())),
                Ok(line) => ctx.record(Err(Failure::Rejected(format!(
                    "tick {}: {:?}",
                    spec.name,
                    line.text("reason")
                )))),
                Err(e) => {
                    ctx.record(Err(Failure::Rejected(format!("tick {}: {e:?}", spec.name))));
                    break 'rounds;
                }
            };
            sent.push(accepted.then_some(t));
        }
        for ((spec, want), sent) in host.specs.iter().zip(oracle).zip(sent) {
            let Some(sent) = sent else {
                ctx.record(Err(Failure::Rejected(format!(
                    "decision {}@{round}: its tick was refused",
                    spec.name
                ))));
                continue;
            };
            loop {
                let t = Instant::now();
                let fetched = ctx.guard("decisions", REQUEST_DEADLINE, || {
                    host.client.decisions(&spec.name, round, 1)
                });
                if let Some(r) = rtts.as_deref_mut() {
                    r.decisions_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                match fetched {
                    Ok(lines) if lines.is_empty() => {
                        out.empty_polls += 1;
                        if sent.elapsed() > REQUEST_DEADLINE {
                            ctx.record(Err(Failure::TimedOut(format!(
                                "decision {}@{round}",
                                spec.name
                            ))));
                            break;
                        }
                    }
                    Ok(lines) => {
                        out.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        out.decisions += 1;
                        ctx.check(
                            &lines[0].as_str(),
                            &want[round as usize].as_str(),
                            "decision line",
                        );
                        break;
                    }
                    Err(e) => {
                        ctx.record(Err(Failure::Rejected(format!(
                            "decisions {}@{round}: {e:?}",
                            spec.name
                        ))));
                        break 'rounds;
                    }
                }
            }
        }
        round += 1;
        out.rounds += 1;
        if stop(out.rounds, started.elapsed(), round_started.elapsed()) {
            break;
        }
    }
    out.wall = started.elapsed();
    out
}

/// Mean EPU and mean throughput of each session's first `epochs` epochs
/// (which the run served and checked against the same oracle), averaged
/// over sessions.
///
/// # Errors
///
/// Scenario or step failures.
pub fn objectives(specs: &[SessionSpec], epochs: u64) -> Result<(f64, f64), String> {
    let mut epu = 0.0;
    let mut throughput = 0.0;
    for spec in specs {
        let mut stepper =
            Stepper::new(spec.scenario().map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
        for _ in 0..epochs {
            stepper.step().map_err(|e| e.to_string())?;
        }
        let report = stepper.finish();
        epu += report.epu().value();
        throughput += report.mean_throughput().value();
    }
    let n = specs.len().max(1) as f64;
    Ok((epu / n, throughput / n))
}

/// The untraced serve run: end-to-end metrics only.
///
/// # Errors
///
/// Set-up failures.
pub fn end_to_end(ctx: &Ctx, meta: &mut Meta) -> Result<Metrics, String> {
    let mut submit_rtt = Samples::new();
    let (mut host, mut setup_times) = setup(ctx, &mut submit_rtt)?;
    let oracle = oracle_lines(&host.specs)?;
    let window = ctx.seconds;
    let outcome = closed_loop(ctx, &mut host, &oracle, 0, None, |rounds, elapsed, last| {
        rounds >= MIN_ROUNDS && elapsed + last > window
    });
    let (epu, throughput) = objectives(&host.specs, MIN_ROUNDS)?;
    let sessions = host.specs.len() as f64;
    drain(ctx, host);

    let mut latency = outcome.latency_ms;
    let mut metrics = Metrics::new();
    metrics.put("setup_s", setup_times.median().unwrap_or(f64::NAN), "s");
    metrics.put(
        "rack_epochs_per_s",
        outcome.decisions as f64 / outcome.wall.as_secs_f64(),
        "1/s",
    );
    metrics.put(
        "tick_decision_p50_ms",
        latency.median().unwrap_or(f64::NAN),
        "ms",
    );
    metrics.put(
        "tick_decision_p90_ms",
        latency.percentile(0.9).unwrap_or(f64::NAN),
        "ms",
    );
    metrics.put(
        "peak_rss_kb_per_rack",
        greenhetero_perfbench::peak_rss_kb().map_or(f64::NAN, |kb| kb / sessions),
        "kB",
    );
    metrics.put("sim_epu", epu, "ratio");
    metrics.put("sim_throughput", throughput, "ops/s");

    meta.num("sessions", sessions);
    meta.num("workers", ctx.nproc as f64);
    meta.num("rounds", outcome.rounds as f64);
    meta.num("decisions", outcome.decisions as f64);
    meta.num("empty_polls", outcome.empty_polls as f64);
    meta.num("objective_epochs", MIN_ROUNDS as f64);
    meta.num(
        "peak_rss_kb",
        greenhetero_perfbench::peak_rss_kb().unwrap_or(0.0),
    );
    meta.raw(
        "samples",
        format!(
            "{{\"tick_decision_p50_ms\": {0}, \"tick_decision_p90_ms\": {0}, \"setup_s\": {1}}}",
            latency.len(),
            setup_times.len()
        ),
    );
    Ok(metrics)
}
