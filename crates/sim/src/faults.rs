//! Deterministic fault injection: the chaos layer of the simulation.
//!
//! Green datacenters fail in characteristic ways — inverters trip, battery
//! strings die, utility feeds brown out, servers crash and telemetry links
//! drop — and the controller is expected to ride through all of them
//! (degraded, not dead). This module describes those disruptions as a
//! [`FaultSchedule`]: plain, timestamped data fixed *before* the run
//! starts, which the engine consults at every epoch boundary.
//!
//! # Determinism contract
//!
//! A schedule is inert data: querying [`FaultSchedule::state_at`] never
//! mutates anything, and [`FaultSchedule::seeded`] derives every window
//! from a [`StdRng`] seeded only by the caller's seed — so equal seeds
//! yield byte-identical schedules, and two runs of the same scenario
//! produce identical fault timings (and, the engine being deterministic,
//! identical [`EpochRecord`](crate::report::EpochRecord) streams).

use greenhetero_core::error::CoreError;
use greenhetero_core::types::{Ratio, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// What a fault does while its window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// `count` servers of rack group `group` are down: they crash at the
    /// window start and recover at the window end, shrinking the group's
    /// effective `GroupSpec::count` in between.
    ServerCrash {
        /// Rack group index (rack group order).
        group: usize,
        /// Servers taken offline (clamped to the group size by the engine).
        count: u32,
    },
    /// Inverter trip: the solar plant contributes nothing for the window,
    /// whatever the trace says.
    SolarDropout,
    /// Utility brownout: the grid budget is scaled by `factor` for the
    /// window.
    GridBrownout {
        /// Fraction of the nominal grid budget that remains available.
        factor: Ratio,
    },
    /// Monitor outage: no trustworthy power/performance feedback reaches
    /// the controller for the window (the controller holds its last
    /// predictions and skips database refits).
    TelemetryOutage,
    /// Battery string failure at the window start: the bank is permanently
    /// derated to `surviving` of its capacity and power limits. The window
    /// length is ignored — string failures do not heal themselves.
    BatteryStringFailure {
        /// Fraction of the bank (capacity, stored energy, C-rate limits)
        /// that survives the failure.
        surviving: Ratio,
    },
}

/// One timed fault: `kind` is in force on `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// When the fault strikes.
    pub start: SimTime,
    /// How long it lasts (ignored for [`FaultKind::BatteryStringFailure`],
    /// which is permanent).
    pub len: SimDuration,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// First instant at which the fault is no longer active.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.start + self.len
    }

    /// `true` while the fault is in force at `t`.
    #[must_use]
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }
}

/// The faults active at one instant, as the engine consumes them.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    /// `true` while an inverter trip zeroes the solar feed.
    pub solar_out: bool,
    /// Fraction of the nominal grid budget available (1 outside brownouts;
    /// the worst factor wins when brownout windows overlap).
    pub grid_factor: Ratio,
    /// `true` while monitor telemetry is unavailable.
    pub telemetry_out: bool,
    /// Crashed servers per rack group, in rack group order.
    pub crashed: Vec<u32>,
}

impl FaultState {
    /// The fault-free state for a rack of `groups` groups.
    #[must_use]
    pub fn nominal(groups: usize) -> Self {
        FaultState {
            solar_out: false,
            grid_factor: Ratio::ONE,
            telemetry_out: false,
            crashed: vec![0; groups],
        }
    }

    /// `true` if any fault is in force.
    #[must_use]
    pub fn any(&self) -> bool {
        self.solar_out
            || self.telemetry_out
            || self.grid_factor < Ratio::ONE
            || self.crashed.iter().any(|&c| c > 0)
    }
}

/// The full fault schedule of one run.
///
/// # Examples
///
/// ```
/// use greenhetero_core::types::{Ratio, SimDuration, SimTime};
/// use greenhetero_sim::faults::{FaultKind, FaultSchedule, FaultWindow};
///
/// let schedule = FaultSchedule::new(vec![FaultWindow {
///     start: SimTime::from_hours(11),
///     len: SimDuration::from_hours(2),
///     kind: FaultKind::SolarDropout,
/// }]);
/// assert!(schedule.state_at(SimTime::from_hours(12), 2).solar_out);
/// assert!(!schedule.state_at(SimTime::from_hours(14), 2).solar_out);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// The empty (fault-free) schedule.
    #[must_use]
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Wraps an explicit list of fault windows.
    #[must_use]
    pub fn new(windows: Vec<FaultWindow>) -> Self {
        FaultSchedule { windows }
    }

    /// The scheduled windows, in insertion order.
    #[must_use]
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// `true` when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Validates the schedule against a rack of `groups` groups.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a crash naming a
    /// nonexistent group or zero servers, a zero-length transient window,
    /// or a degenerate brownout/string-failure fraction.
    pub fn validate(&self, groups: usize) -> Result<(), CoreError> {
        for (i, w) in self.windows.iter().enumerate() {
            match w.kind {
                FaultKind::ServerCrash { group, count } => {
                    if group >= groups {
                        return Err(CoreError::InvalidConfig {
                            reason: format!(
                                "fault window {i}: crash targets group {group}, rack has {groups}"
                            ),
                        });
                    }
                    if count == 0 {
                        return Err(CoreError::InvalidConfig {
                            reason: format!("fault window {i}: crash of zero servers"),
                        });
                    }
                }
                FaultKind::GridBrownout { factor } => {
                    if factor >= Ratio::ONE {
                        return Err(CoreError::InvalidConfig {
                            reason: format!(
                                "fault window {i}: brownout factor must cut the budget"
                            ),
                        });
                    }
                }
                FaultKind::BatteryStringFailure { surviving } => {
                    if surviving.is_zero() {
                        return Err(CoreError::InvalidConfig {
                            reason: format!(
                                "fault window {i}: a string failure must leave some capacity"
                            ),
                        });
                    }
                }
                FaultKind::SolarDropout | FaultKind::TelemetryOutage => {}
            }
            let transient = !matches!(w.kind, FaultKind::BatteryStringFailure { .. });
            if transient && w.len.is_zero() {
                return Err(CoreError::InvalidConfig {
                    reason: format!("fault window {i}: transient fault with zero duration"),
                });
            }
        }
        Ok(())
    }

    /// The faults in force at `t`, for a rack of `groups` groups.
    #[must_use]
    pub fn state_at(&self, t: SimTime, groups: usize) -> FaultState {
        let mut state = FaultState::nominal(groups);
        for w in &self.windows {
            if !w.active_at(t) {
                continue;
            }
            match w.kind {
                FaultKind::SolarDropout => state.solar_out = true,
                FaultKind::TelemetryOutage => state.telemetry_out = true,
                FaultKind::GridBrownout { factor } => {
                    if factor < state.grid_factor {
                        state.grid_factor = factor;
                    }
                }
                FaultKind::ServerCrash { group, count } => {
                    if let Some(c) = state.crashed.get_mut(group) {
                        *c = c.saturating_add(count);
                    }
                }
                // Permanent; applied once by the engine, not per-state.
                FaultKind::BatteryStringFailure { .. } => {}
            }
        }
        state
    }

    /// The permanent battery events `(strike time, surviving fraction)`,
    /// in schedule order. The engine applies each exactly once.
    #[must_use]
    pub fn battery_failures(&self) -> Vec<(SimTime, Ratio)> {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::BatteryStringFailure { surviving } => Some((w.start, surviving)),
                _ => None,
            })
            .collect()
    }

    /// When the last scheduled fault clears: the latest window end
    /// (strike time for permanent string failures, which never clear but
    /// whose *transient* effect is instantaneous). `None` for an empty
    /// schedule.
    #[must_use]
    pub fn last_clear(&self) -> Option<SimTime> {
        self.windows
            .iter()
            .map(|w| match w.kind {
                FaultKind::BatteryStringFailure { .. } => w.start,
                _ => w.end(),
            })
            .max()
    }

    /// The acceptance chaos day: a midday inverter trip, one battery
    /// string failure mid-morning, a multi-hour crash/recovery of one
    /// server in group 0, and a 2-hour evening telemetry outage. All
    /// faults clear by 20:00, leaving the rest of the day to observe
    /// recovery.
    #[must_use]
    pub fn chaos_day() -> Self {
        FaultSchedule::new(vec![
            FaultWindow {
                start: SimTime::from_hours(9),
                len: SimDuration::ZERO,
                kind: FaultKind::BatteryStringFailure {
                    surviving: Ratio::saturating(0.9),
                },
            },
            FaultWindow {
                start: SimTime::from_hours(11),
                len: SimDuration::from_hours(2),
                kind: FaultKind::SolarDropout,
            },
            FaultWindow {
                start: SimTime::from_hours(14),
                len: SimDuration::from_hours(3),
                kind: FaultKind::ServerCrash { group: 0, count: 1 },
            },
            FaultWindow {
                start: SimTime::from_hours(18),
                len: SimDuration::from_hours(2),
                kind: FaultKind::TelemetryOutage,
            },
        ])
    }

    /// Derives a random-but-reproducible schedule from `seed`: per
    /// simulated day one solar dropout, one brownout, one telemetry outage
    /// and one single-server crash (cycling through the `groups` rack
    /// groups), plus a single capacity-fade event near the middle of the
    /// run. Equal `(seed, groups, days)` always yields the same schedule.
    #[must_use]
    pub fn seeded(seed: u64, groups: usize, days: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4641_554c);
        let mut windows = Vec::new();
        let hour = |rng: &mut StdRng, lo: f64, hi: f64| -> u64 {
            let h = lo + rng.random::<f64>() * (hi - lo);
            (h * 3600.0) as u64
        };
        for day in 0..days {
            let base = day * 86_400;
            windows.push(FaultWindow {
                start: SimTime::from_secs(base + hour(&mut rng, 9.0, 14.0)),
                len: SimDuration::from_secs(hour(&mut rng, 1.0, 3.0)),
                kind: FaultKind::SolarDropout,
            });
            windows.push(FaultWindow {
                start: SimTime::from_secs(base + hour(&mut rng, 0.0, 20.0)),
                len: SimDuration::from_secs(hour(&mut rng, 1.0, 4.0)),
                kind: FaultKind::GridBrownout {
                    factor: Ratio::saturating(0.4 + rng.random::<f64>() * 0.4),
                },
            });
            windows.push(FaultWindow {
                start: SimTime::from_secs(base + hour(&mut rng, 0.0, 21.0)),
                len: SimDuration::from_secs(hour(&mut rng, 1.0, 3.0)),
                kind: FaultKind::TelemetryOutage,
            });
            if groups > 0 {
                windows.push(FaultWindow {
                    start: SimTime::from_secs(base + hour(&mut rng, 0.0, 18.0)),
                    len: SimDuration::from_secs(hour(&mut rng, 2.0, 6.0)),
                    kind: FaultKind::ServerCrash {
                        group: (day as usize) % groups,
                        count: 1,
                    },
                });
            }
        }
        windows.push(FaultWindow {
            start: SimTime::from_secs(days * 43_200),
            len: SimDuration::ZERO,
            kind: FaultKind::BatteryStringFailure {
                surviving: Ratio::saturating(0.85 + rng.random::<f64>() * 0.1),
            },
        });
        FaultSchedule::new(windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_nominal_everywhere() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        assert_eq!(s.last_clear(), None);
        let state = s.state_at(SimTime::from_hours(12), 3);
        assert!(!state.any());
        assert_eq!(state.crashed, vec![0, 0, 0]);
    }

    #[test]
    fn windows_activate_and_clear() {
        let s = FaultSchedule::chaos_day();
        assert!(s.validate(2).is_ok());
        let noon = s.state_at(SimTime::from_hours(12), 2);
        assert!(noon.solar_out);
        assert!(!noon.telemetry_out);
        assert_eq!(noon.crashed, vec![0, 0]);
        let afternoon = s.state_at(SimTime::from_hours(15), 2);
        assert!(!afternoon.solar_out);
        assert_eq!(afternoon.crashed, vec![1, 0]);
        let evening = s.state_at(SimTime::from_hours(19), 2);
        assert!(evening.telemetry_out);
        let night = s.state_at(SimTime::from_hours(21), 2);
        assert!(!night.any());
        assert_eq!(s.last_clear(), Some(SimTime::from_hours(20)));
        assert_eq!(s.battery_failures().len(), 1);
    }

    #[test]
    fn overlapping_brownouts_take_the_worst_factor() {
        let w = |start: u64, len: u64, f: f64| FaultWindow {
            start: SimTime::from_hours(start),
            len: SimDuration::from_hours(len),
            kind: FaultKind::GridBrownout {
                factor: Ratio::saturating(f),
            },
        };
        let s = FaultSchedule::new(vec![w(1, 4, 0.8), w(2, 2, 0.5)]);
        assert_eq!(
            s.state_at(SimTime::from_hours(3), 1).grid_factor,
            Ratio::saturating(0.5)
        );
        assert_eq!(
            s.state_at(SimTime::from_hours(4), 1).grid_factor,
            Ratio::saturating(0.8)
        );
    }

    #[test]
    fn validation_rejects_bad_windows() {
        let bad_group = FaultSchedule::new(vec![FaultWindow {
            start: SimTime::ZERO,
            len: SimDuration::from_hours(1),
            kind: FaultKind::ServerCrash { group: 5, count: 1 },
        }]);
        assert!(bad_group.validate(2).is_err());

        let zero_len = FaultSchedule::new(vec![FaultWindow {
            start: SimTime::ZERO,
            len: SimDuration::ZERO,
            kind: FaultKind::SolarDropout,
        }]);
        assert!(zero_len.validate(2).is_err());

        let no_cut = FaultSchedule::new(vec![FaultWindow {
            start: SimTime::ZERO,
            len: SimDuration::from_hours(1),
            kind: FaultKind::GridBrownout { factor: Ratio::ONE },
        }]);
        assert!(no_cut.validate(2).is_err());

        let dead_bank = FaultSchedule::new(vec![FaultWindow {
            start: SimTime::ZERO,
            len: SimDuration::ZERO,
            kind: FaultKind::BatteryStringFailure {
                surviving: Ratio::ZERO,
            },
        }]);
        assert!(dead_bank.validate(2).is_err());
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let a = FaultSchedule::seeded(7, 2, 2);
        let b = FaultSchedule::seeded(7, 2, 2);
        assert_eq!(a, b);
        let c = FaultSchedule::seeded(8, 2, 2);
        assert_ne!(a, c);
        assert!(a.validate(2).is_ok());
        // One of each transient per day plus one permanent event.
        assert_eq!(a.windows().len(), 2 * 4 + 1);
    }

    #[test]
    fn crashes_accumulate_across_overlapping_windows() {
        let w = |group: usize| FaultWindow {
            start: SimTime::ZERO,
            len: SimDuration::from_hours(1),
            kind: FaultKind::ServerCrash { group, count: 1 },
        };
        let s = FaultSchedule::new(vec![w(0), w(0), w(1)]);
        let state = s.state_at(SimTime::from_secs(10), 2);
        assert_eq!(state.crashed, vec![2, 1]);
    }
}
