//! Fixed micro-probes: the PAR solver on a fixed problem set, and one
//! rack's `Stepper::step` without the fleet around it.

use std::hint::black_box;
use std::time::Instant;

use greenhetero::core::database::{PerfModel, Quadratic};
use greenhetero::core::solver::{
    solve, AllocationProblem, FastPathConfig, ServerGroup, SolverFastPath,
};
use greenhetero::core::types::{ConfigId, PowerRange, Watts};
use greenhetero::sim::engine::Stepper;
use greenhetero::sim::scenario::Scenario;
use greenhetero_perfbench::stats::Samples;

/// Solves per solver path.
const SOLVES: usize = 2_000;
/// Full single-rack days stepped for `engine.step_us`.
const STEP_DAYS: usize = 5;

/// Solver latencies by path, µs.
#[derive(Debug, Default)]
pub struct SolverProbe {
    /// `solver::solve` (cold, both engines) on a drifting budget.
    pub cold_us: Samples,
    /// `SolverFastPath::solve` with warm starts on the same drift.
    pub warm_us: Samples,
    /// `SolverFastPath::solve`, warm starts off, on a short rotation of
    /// recurring problems (local-cache hits).
    pub cached_us: Samples,
}

/// A three-type rack problem with quadratic performance models.
fn base_problem() -> Result<AllocationProblem, String> {
    let groups = (0..3u32)
        .map(|i| {
            let f = f64::from(i);
            let range = PowerRange::new(Watts::new(40.0 + 12.0 * f), Watts::new(90.0 + 22.0 * f))
                .map_err(|e| e.to_string())?;
            let model = PerfModel::new(
                Quadratic {
                    l: -500.0 - 100.0 * f,
                    m: 30.0 + 5.0 * f,
                    n: -0.06 - 0.01 * f,
                },
                range,
            );
            ServerGroup::new(ConfigId::new(i), 5, model).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let budget = groups.iter().map(|g| g.group_peak().value()).sum::<f64>() * 0.7;
    AllocationProblem::new(groups, Watts::new(budget)).map_err(|e| e.to_string())
}

/// Times the three solver paths on a fixed problem set: a ±4 % budget
/// drift around a 70 %-of-peak budget.
///
/// # Errors
///
/// Problem construction or solve failures.
pub fn solver() -> Result<SolverProbe, String> {
    let base = base_problem()?;
    let problems = (0..SOLVES)
        .map(|i| {
            let phase = (i % 40) as f64 / 40.0;
            let wobble = if phase < 0.5 { phase } else { 1.0 - phase };
            let budget = base.budget().value() * (0.98 + 0.08 * wobble);
            AllocationProblem::new(base.groups().to_vec(), Watts::new(budget))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut probe = SolverProbe::default();
    for p in &problems {
        let t = Instant::now();
        black_box(solve(black_box(p)).map_err(|e| e.to_string())?);
        probe.cold_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut warm = SolverFastPath::default();
    warm.solve(&problems[0]).map_err(|e| e.to_string())?;
    for p in &problems {
        let t = Instant::now();
        black_box(warm.solve(black_box(p)).map_err(|e| e.to_string())?);
        probe.warm_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut cached = SolverFastPath::new(FastPathConfig {
        warm_start: false,
        ..FastPathConfig::default()
    });
    let rotation: Vec<&AllocationProblem> = problems.iter().step_by(SOLVES / 4).collect();
    for i in 0..SOLVES {
        let p = rotation[i % rotation.len()];
        let t = Instant::now();
        black_box(cached.solve(black_box(p)).map_err(|e| e.to_string())?);
        probe.cached_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(probe)
}

/// `Stepper::step` latency over `STEP_DAYS` fresh one-day runs of
/// `scenario`, µs.
///
/// # Errors
///
/// Stepper construction or step failures.
pub fn step(scenario: &Scenario) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for _ in 0..STEP_DAYS {
        let mut stepper = Stepper::new(scenario.clone()).map_err(|e| e.to_string())?;
        while !stepper.is_complete() {
            let t = Instant::now();
            black_box(stepper.step().map_err(|e| e.to_string())?);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(samples)
}
