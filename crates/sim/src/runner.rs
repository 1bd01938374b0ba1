//! Experiment runners: policy comparisons and parameter sweeps.
//!
//! The paper's figures compare the five Table III policies across
//! workloads, server combinations and grid budgets. These helpers run the
//! cross-products, in parallel across OS threads (each simulation is
//! independent and seeded).

use std::num::NonZeroUsize;
use std::time::Instant;

use greenhetero_core::error::CoreError;
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::types::Watts;

use crate::engine::Simulation;
use crate::report::RunReport;
use crate::scenario::Scenario;
use crate::sched::for_each_bounded;

/// The outcome of one (policy, scenario) cell.
#[derive(Debug)]
pub struct PolicyOutcome {
    /// The policy that ran.
    pub policy: PolicyKind,
    /// Its run report.
    pub report: RunReport,
}

/// Runs the same scenario under every policy in `policies`, in parallel.
///
/// # Errors
///
/// Propagates the first simulation failure encountered.
///
/// # Examples
///
/// ```no_run
/// use greenhetero_core::policies::PolicyKind;
/// use greenhetero_sim::runner::compare_policies;
/// use greenhetero_sim::scenario::Scenario;
///
/// let base = Scenario::paper_runtime(PolicyKind::Uniform);
/// let outcomes = compare_policies(&base, &PolicyKind::ALL)?;
/// for o in &outcomes {
///     println!("{}: {}", o.policy, o.report.mean_throughput());
/// }
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
pub fn compare_policies(
    base: &Scenario,
    policies: &[PolicyKind],
) -> Result<Vec<PolicyOutcome>, CoreError> {
    let scenarios: Vec<Scenario> = policies
        .iter()
        .map(|&policy| Scenario {
            policy,
            ..base.clone()
        })
        .collect();
    let reports = run_all(scenarios)?;
    Ok(policies
        .iter()
        .zip(reports)
        .map(|(&policy, report)| PolicyOutcome { policy, report })
        .collect())
}

/// Runs every scenario on a bounded worker pool and collects the reports
/// in input order.
///
/// The pool is [`for_each_bounded`] at [`worker_count`] workers (capped
/// at the scenario count), not one thread per scenario: a 500-cell sweep
/// on an 8-core box runs 8 simulations at a time instead of spawning 500
/// OS threads. Each run's telemetry records how long it waited in the
/// queue before a worker picked it up
/// ([`names::RUNNER_QUEUE_WAIT_SECONDS`](greenhetero_core::telemetry::names::RUNNER_QUEUE_WAIT_SECONDS)).
///
/// # Errors
///
/// Propagates the first simulation failure (in input order). A worker
/// panic is resumed on the calling thread.
pub fn run_all(scenarios: Vec<Scenario>) -> Result<Vec<RunReport>, CoreError> {
    let queued_at = Instant::now();
    let mut cells: Vec<SweepCell> = scenarios.into_iter().map(|s| (Some(s), None)).collect();
    for_each_bounded(&mut cells, worker_count(), |(scenario, result)| {
        if let Some(scenario) = scenario.take() {
            let waited = queued_at.elapsed();
            *result = Some(Simulation::new(scenario).and_then(|sim| {
                sim.note_queue_wait(waited);
                sim.run()
            }));
        }
    });
    cells
        .into_iter()
        .map(|(_, result)| {
            result.unwrap_or_else(|| {
                Err(CoreError::InvalidConfig {
                    reason: "sweep worker pool dropped a scenario result".into(),
                })
            })
        })
        .collect()
}

/// One sweep cell: the scenario until a worker takes it, then its outcome.
type SweepCell = (Option<Scenario>, Option<Result<RunReport, CoreError>>);

/// The worker-pool width: the `GH_SIM_THREADS` environment variable when
/// set to a positive integer (clamped to ≥ 1 — CI and benchmarks use it
/// to pin parallelism), otherwise the machine's available parallelism,
/// or one worker when that cannot be determined.
///
/// A set-but-unusable override (garbage, `0`, or a value that overflows
/// `usize`) no longer degrades silently: the first call logs a one-line
/// warning to stderr naming the rejected value and the width actually
/// used.
#[must_use]
pub fn worker_count() -> usize {
    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
    let (count, warning) = worker_count_from(std::env::var("GH_SIM_THREADS").ok().as_deref());
    if let Some(warning) = warning {
        WARN_ONCE.call_once(|| eprintln!("greenhetero-sim: {warning}"));
    }
    count
}

/// [`worker_count`] with the override injected, so tests never have to
/// mutate process-global environment state. Returns the width plus the
/// warning (if any) that the caller should surface exactly once.
fn worker_count_from(override_: Option<&str>) -> (usize, Option<String>) {
    let machine = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let Some(raw) = override_ else {
        return (machine(), None);
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => (
            1,
            Some("GH_SIM_THREADS=0 is not a valid pool width; clamping to 1 worker".into()),
        ),
        Ok(requested) => (requested, None),
        Err(_) => {
            let fallback = machine();
            (
                fallback,
                Some(format!(
                    "GH_SIM_THREADS={raw:?} is not a positive integer (unparseable or \
                     overflowing); falling back to machine parallelism ({fallback} workers)"
                )),
            )
        }
    }
}

/// Normalized performance of each policy relative to a baseline policy
/// (the paper normalizes to Uniform). Returns `(policy, speedup)` pairs.
///
/// # Errors
///
/// Propagates simulation failures; returns [`CoreError::InvalidConfig`]
/// if `baseline` is not among `policies`, or if the baseline run produced
/// zero (or non-finite) mean throughput — a 0-throughput baseline would
/// make every ratio meaningless, so it is an error rather than a silent
/// `1.0`.
pub fn normalized_performance(
    base: &Scenario,
    policies: &[PolicyKind],
    baseline: PolicyKind,
) -> Result<Vec<(PolicyKind, f64)>, CoreError> {
    let outcomes = compare_policies(base, policies)?;
    normalize_outcomes(&outcomes, baseline)
}

/// Divides every outcome's mean throughput by the baseline's, rejecting a
/// missing or zero-throughput baseline.
fn normalize_outcomes(
    outcomes: &[PolicyOutcome],
    baseline: PolicyKind,
) -> Result<Vec<(PolicyKind, f64)>, CoreError> {
    let base_thr = outcomes
        .iter()
        .find(|o| o.policy == baseline)
        .ok_or_else(|| CoreError::InvalidConfig {
            reason: format!("baseline {baseline} not among compared policies"),
        })?
        .report
        .mean_throughput()
        .value();
    if !base_thr.is_finite() || base_thr <= 0.0 {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "baseline {baseline} produced mean throughput {base_thr}; cannot normalize"
            ),
        });
    }
    Ok(outcomes
        .iter()
        .map(|o| (o.policy, o.report.mean_throughput().value() / base_thr))
        .collect())
}

/// Sweeps the grid power budget (the paper's Fig. 12), running the given
/// policy at each budget.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sweep_grid_budget(
    base: &Scenario,
    budgets: &[Watts],
) -> Result<Vec<(Watts, RunReport)>, CoreError> {
    let scenarios: Vec<Scenario> = budgets
        .iter()
        .map(|&grid_budget| Scenario {
            grid_budget,
            ..base.clone()
        })
        .collect();
    let reports = run_all(scenarios)?;
    Ok(budgets.iter().copied().zip(reports).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: PolicyKind) -> Scenario {
        Scenario {
            servers_per_type: 1,
            days: 1,
            ..Scenario::paper_runtime(policy)
        }
    }

    #[test]
    fn worker_count_override_parses_and_clamps() {
        assert_eq!(worker_count_from(Some("3")), (3, None));
        assert_eq!(worker_count_from(Some(" 2 ")), (2, None));
        assert_eq!(worker_count_from(Some("0")).0, 1, "override clamps to ≥ 1");
        let (fallback, none) = worker_count_from(None);
        assert!(fallback >= 1);
        assert!(none.is_none(), "an absent override is not a warning");
        // Garbage falls back to machine parallelism.
        assert_eq!(worker_count_from(Some("lots")).0, fallback);
        assert_eq!(worker_count_from(Some("-4")).0, fallback);
    }

    #[test]
    fn worker_count_garbage_override_warns() {
        let (count, warning) = worker_count_from(Some("lots"));
        assert!(count >= 1);
        let warning = warning.expect("garbage override must warn");
        assert!(
            warning.contains("\"lots\""),
            "warning names the value: {warning}"
        );
        assert!(
            warning.contains("falling back"),
            "warning says what happened: {warning}"
        );
    }

    #[test]
    fn worker_count_zero_override_warns_and_clamps() {
        let (count, warning) = worker_count_from(Some("0"));
        assert_eq!(count, 1);
        let warning = warning.expect("zero override must warn");
        assert!(warning.contains("GH_SIM_THREADS=0"), "warning: {warning}");
        // Whitespace-padded zero takes the same path.
        assert_eq!(worker_count_from(Some(" 0 ")).0, 1);
        assert!(worker_count_from(Some(" 0 ")).1.is_some());
    }

    #[test]
    fn worker_count_overflow_override_warns_and_falls_back() {
        // One past usize::MAX: parses under u128 semantics but overflows
        // usize, so it must take the warning fallback path, not wrap.
        let overflow = format!("{}0", usize::MAX);
        let (count, warning) = worker_count_from(Some(&overflow));
        assert_eq!(count, worker_count_from(None).0);
        let warning = warning.expect("overflowing override must warn");
        assert!(warning.contains("overflowing"), "warning: {warning}");
    }

    #[test]
    fn compare_policies_preserves_order() {
        let outcomes = compare_policies(
            &tiny(PolicyKind::Uniform),
            &[PolicyKind::Uniform, PolicyKind::GreenHetero],
        )
        .unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].policy, PolicyKind::Uniform);
        assert_eq!(outcomes[1].policy, PolicyKind::GreenHetero);
    }

    #[test]
    fn normalized_performance_baseline_is_one() {
        let rows = normalized_performance(
            &tiny(PolicyKind::Uniform),
            &[PolicyKind::Uniform, PolicyKind::GreenHetero],
            PolicyKind::Uniform,
        )
        .unwrap();
        let uniform = rows
            .iter()
            .find(|(p, _)| *p == PolicyKind::Uniform)
            .unwrap();
        assert!((uniform.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_baseline_is_an_error() {
        let err = normalized_performance(
            &tiny(PolicyKind::Uniform),
            &[PolicyKind::GreenHetero],
            PolicyKind::Uniform,
        );
        assert!(err.is_err());
    }

    /// An empty report: zero epochs, zero mean throughput.
    fn empty_report() -> RunReport {
        RunReport {
            epochs: Vec::new(),
            epu: greenhetero_core::metrics::EpuAccumulator::new(),
            grid_energy: greenhetero_core::types::WattHours::new(0.0),
            grid_peak: Watts::new(0.0),
            grid_cost: 0.0,
            battery_cycles: 0.0,
            unserved_energy: greenhetero_core::types::WattHours::new(0.0),
            degraded_epochs: 0,
            recovery_latency_epochs: None,
            ledger: greenhetero_core::telemetry::RunLedger::default(),
        }
    }

    #[test]
    fn zero_throughput_baseline_is_an_error() {
        let outcomes = vec![PolicyOutcome {
            policy: PolicyKind::Uniform,
            report: empty_report(),
        }];
        let err = normalize_outcomes(&outcomes, PolicyKind::Uniform).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("Uniform"),
            "error should name the baseline: {msg}"
        );
        assert!(
            msg.contains("cannot normalize"),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn run_all_completes_more_scenarios_than_cores() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let n = cores + 2;
        let scenarios: Vec<Scenario> = (0..n).map(|_| tiny(PolicyKind::Uniform)).collect();
        let reports = run_all(scenarios).unwrap();
        assert_eq!(reports.len(), n);
        // Every run passed through the pool, so each ledger holds one
        // queue-wait observation.
        for report in &reports {
            let hist = report
                .ledger
                .histogram(greenhetero_core::telemetry::names::RUNNER_QUEUE_WAIT_SECONDS)
                .expect("queue-wait histogram registered");
            assert_eq!(hist.count, 1);
        }
    }

    #[test]
    fn first_error_in_input_order_propagates() {
        let mut bad_days = tiny(PolicyKind::Uniform);
        bad_days.days = 0;
        let mut bad_servers = tiny(PolicyKind::Uniform);
        bad_servers.servers_per_type = 0;
        let scenarios = vec![tiny(PolicyKind::Uniform), bad_days, bad_servers];
        let err = run_all(scenarios).unwrap_err();
        assert!(
            err.to_string().contains("day"),
            "expected the earlier (days=0) failure, got: {err}"
        );
    }

    #[test]
    fn grid_budget_sweep_monotone_budgets() {
        let rows = sweep_grid_budget(
            &tiny(PolicyKind::GreenHetero),
            &[Watts::new(200.0), Watts::new(800.0)],
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        // More grid budget never hurts throughput.
        assert!(rows[1].1.mean_throughput().value() >= rows[0].1.mean_throughput().value() - 1e-6);
    }
}
