//! End-to-end purity tests for the solver fast path: the allocation
//! cache and the sampled cross-check are pure accelerators, so seeded
//! runs must be bit-identical with them on, off, or resized.
//!
//! Warm-starting itself may pick a different (exact-first) engine than a
//! cold max-of-engines solve, so it is covered by quality-tolerance
//! property tests in the core crate rather than bit-identity here; the
//! cache and cross-check have no such latitude.

use greenhetero_core::policies::PolicyKind;
use greenhetero_core::telemetry::names;
use greenhetero_sim::engine::run_scenario;
use greenhetero_sim::scenario::Scenario;

fn tiny(policy: PolicyKind) -> Scenario {
    Scenario {
        servers_per_type: 2,
        days: 1,
        ..Scenario::paper_runtime(policy)
    }
}

fn chaos(policy: PolicyKind) -> Scenario {
    Scenario {
        servers_per_type: 2,
        days: 1,
        ..Scenario::chaos_runtime(policy)
    }
}

/// Asserts that two scenario variants produce bit-identical runs.
fn assert_identical(base: Scenario, variant: Scenario, label: &str) {
    let a = run_scenario(base).unwrap_or_else(|e| panic!("{label} base: {e}"));
    let b = run_scenario(variant).unwrap_or_else(|e| panic!("{label} variant: {e}"));
    assert_eq!(a.epochs, b.epochs, "{label}: epoch streams diverged");
    assert_eq!(
        a.grid_cost.to_bits(),
        b.grid_cost.to_bits(),
        "{label}: grid cost diverged"
    );
    assert_eq!(
        a.battery_cycles.to_bits(),
        b.battery_cycles.to_bits(),
        "{label}: battery cycles diverged"
    );
}

#[test]
fn cache_on_and_off_are_bit_identical() {
    for policy in [PolicyKind::GreenHetero, PolicyKind::GreenHeteroA] {
        let base = tiny(policy);
        let mut no_cache = tiny(policy);
        no_cache.controller.solver.cache_capacity = 0;
        assert_identical(base, no_cache, "paper cache-off");

        let mut tiny_cache = tiny(policy);
        tiny_cache.controller.solver.cache_capacity = 2;
        assert_identical(tiny(policy), tiny_cache, "paper cache-resized");
    }
}

#[test]
fn cache_on_and_off_are_bit_identical_under_chaos() {
    let base = chaos(PolicyKind::GreenHetero);
    let mut no_cache = chaos(PolicyKind::GreenHetero);
    no_cache.controller.solver.cache_capacity = 0;
    assert_identical(base, no_cache, "chaos cache-off");
}

#[test]
fn cross_check_sampling_is_observe_only() {
    let base = tiny(PolicyKind::GreenHetero);
    let mut no_cross_check = tiny(PolicyKind::GreenHetero);
    no_cross_check.controller.solver.cross_check_period = 0;
    assert_identical(base, no_cross_check, "cross-check-off");

    let mut aggressive = tiny(PolicyKind::GreenHetero);
    aggressive.controller.solver.cross_check_period = 1;
    assert_identical(
        tiny(PolicyKind::GreenHetero),
        aggressive,
        "cross-check-every-solve",
    );
}

#[test]
fn fast_path_counters_reach_the_run_ledger() {
    // Static models (the A variant) keep fingerprints stable, so the
    // diurnal day's small epoch-to-epoch budget moves warm-start most
    // solves; the few cold solves each consult the cache.
    let report = run_scenario(tiny(PolicyKind::GreenHeteroA)).expect("simulation runs");
    let counter = |name: &str| report.ledger.counter(name).unwrap_or(0);
    assert!(
        counter(names::SOLVER_WARM_START) > 0,
        "warm path never engaged"
    );
    assert!(
        counter(names::SOLVER_CACHE_HIT) + counter(names::SOLVER_CACHE_MISS) > 0,
        "cache never consulted"
    );

    // The online-refit variant invalidates the warm gate every epoch by
    // design — model fingerprints change, so every solve must go cold.
    let refit = run_scenario(tiny(PolicyKind::GreenHetero)).expect("simulation runs");
    let refit_counter = |name: &str| refit.ledger.counter(name).unwrap_or(0);
    assert_eq!(
        refit_counter(names::SOLVER_WARM_START),
        0,
        "stale models must not be warm-started"
    );
    assert!(
        refit_counter(names::SOLVER_CACHE_MISS) > 0,
        "cold solves must consult the cache"
    );
}
