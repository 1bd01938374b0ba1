//! The fleet cost split and its closing check.
//!
//! A fleet run of `wall` seconds on `workers` threads offers
//! `workers × wall` of capacity. The split accounts for it as
//!
//! ```text
//! capacity = Σ predict + Σ sources + Σ solve + Σ enforce + Σ other + overhead
//! ```
//!
//! where the phase sums come from the engine's own per-epoch timers (via
//! the aggregating sink), `other` is each rack-epoch's wall minus its
//! phases, and `overhead = capacity − Σ epoch wall` is everything outside
//! a rack's epoch step: scheduler idle, steals and rollover, fold and
//! flush, and the set-up inside `FleetSpec::run`. The residual is what
//! is left after the parts are summed; it is reported by name, never
//! folded into a part.

use std::time::Duration;

use crate::sink::PhaseTotals;

/// Largest |residual| (as a share of capacity) for the split to close.
pub const SPLIT_TOLERANCE: f64 = 0.02;

/// The fleet split of one traced run, as shares of capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSplit {
    /// `workers × wall`, nanoseconds.
    pub capacity_ns: f64,
    /// Σ predictor time / capacity.
    pub predict: f64,
    /// Σ source-selection time / capacity.
    pub sources: f64,
    /// Σ solve time / capacity.
    pub solve: f64,
    /// Σ enforcement time / capacity.
    pub enforce: f64,
    /// Σ per-epoch remainder / capacity.
    pub other: f64,
    /// `1 − Σ epoch wall / capacity`.
    pub overhead: f64,
    /// `parts − 1`: zero when the parts account for the capacity.
    pub residual: f64,
    /// Events seen versus rack-epochs the run stepped.
    pub events: u64,
    /// Rack-epochs the run stepped.
    pub expected_events: u64,
}

impl FleetSplit {
    /// Splits a run's capacity using the sink's totals.
    #[must_use]
    pub fn new(totals: &PhaseTotals, workers: usize, wall: Duration, rack_epochs: u64) -> Self {
        let capacity_ns = workers as f64 * wall.as_nanos() as f64;
        let share = |ns: u128| ns as f64 / capacity_ns;
        let (predict, sources, solve, enforce, other) = (
            share(totals.predict_ns),
            share(totals.sources_ns),
            share(totals.solve_ns),
            share(totals.enforce_ns),
            share(totals.other_ns),
        );
        let overhead = 1.0 - share(totals.wall_ns);
        let residual = predict + sources + solve + enforce + other + overhead - 1.0;
        FleetSplit {
            capacity_ns,
            predict,
            sources,
            solve,
            enforce,
            other,
            overhead,
            residual,
            events: totals.events,
            expected_events: rack_epochs,
        }
    }

    /// `true` when every rack-epoch was seen, the overhead is a real
    /// share (epoch walls did not exceed the capacity), and the residual
    /// is within [`SPLIT_TOLERANCE`].
    #[must_use]
    pub fn closes(&self) -> bool {
        self.events == self.expected_events
            && (0.0..1.0).contains(&self.overhead)
            && self.residual.abs() <= SPLIT_TOLERANCE
    }
}
