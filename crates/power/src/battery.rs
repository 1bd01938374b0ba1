//! The rack-level battery bank.
//!
//! Models the paper's provisioning (§V-A2): **10 × 12 V / 100 Ah lead-acid
//! batteries** per rack (12 kWh), a **40 % depth-of-discharge** limit
//! (≈1300 recharge cycles of lifetime), and **80 % round-trip energy
//! efficiency**. The bank exposes the [`BatteryView`] abstraction the
//! controller's source selection consumes, plus `charge`/`discharge`
//! physics for the simulation step.

use greenhetero_core::error::CoreError;
use greenhetero_core::sources::BatteryView;
use greenhetero_core::types::{Ratio, SimDuration, WattHours, Watts};

/// Static parameters of a battery bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatterySpec {
    /// Total nameplate capacity.
    pub capacity: WattHours,
    /// Depth-of-discharge limit: at most this fraction of capacity may be
    /// drawn before the bank refuses to discharge (paper: 40 %).
    pub dod_limit: Ratio,
    /// Round-trip energy efficiency; losses are charged on the way **in**
    /// (paper: 80 %).
    pub efficiency: Ratio,
    /// Maximum discharge power (C-rate limit).
    pub max_discharge: Watts,
    /// Maximum charge power accepted from a source.
    pub max_charge: Watts,
    /// Rated lifetime in full DoD cycles at the configured limit
    /// (paper: 1300 cycles at 40 % DoD).
    pub rated_cycles: f64,
    /// After hitting the DoD floor the bank stays offline as a source
    /// until recharged to this state of charge (hysteresis that prevents
    /// shallow micro-cycling, which ruins lead-acid lifetime).
    pub recharge_target: Ratio,
}

impl BatterySpec {
    /// The paper's rack bank: 10 × 12 V × 100 Ah = 12 kWh, DoD 40 %,
    /// η = 80 %, 1300 rated cycles. Charge/discharge rates are set to
    /// C/5 charge (2.4 kW) and C/3 discharge (4 kW) — comfortable
    /// lead-acid values that never bind at rack scale (~1 kW).
    #[must_use]
    pub fn paper_rack_bank() -> Self {
        let capacity = WattHours::new(10.0 * 12.0 * 100.0);
        BatterySpec {
            capacity,
            dod_limit: Ratio::saturating(0.4),
            efficiency: Ratio::saturating(0.8),
            max_discharge: Watts::new(4000.0),
            max_charge: Watts::new(2400.0),
            rated_cycles: 1300.0,
            recharge_target: Ratio::saturating(0.8),
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for non-positive capacity,
    /// a zero DoD limit or zero efficiency.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.capacity.value() <= 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: "battery capacity must be positive".into(),
            });
        }
        if self.dod_limit.is_zero() {
            return Err(CoreError::InvalidConfig {
                reason: "battery DoD limit must be positive".into(),
            });
        }
        if self.efficiency.is_zero() {
            return Err(CoreError::InvalidConfig {
                reason: "battery efficiency must be positive".into(),
            });
        }
        if self.max_discharge.value() <= 0.0 || self.max_charge.value() <= 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: "battery power limits must be positive".into(),
            });
        }
        if self.recharge_target <= self.floor_soc() {
            return Err(CoreError::InvalidConfig {
                reason: "recharge target must lie above the DoD floor".into(),
            });
        }
        Ok(())
    }

    /// The lowest state of charge the DoD limit permits.
    #[must_use]
    pub fn floor_soc(&self) -> Ratio {
        self.dod_limit.complement()
    }
}

/// A stateful battery bank.
///
/// # Examples
///
/// ```
/// use greenhetero_power::battery::{BatteryBank, BatterySpec};
/// use greenhetero_core::types::{SimDuration, Watts};
///
/// let mut bank = BatteryBank::new(BatterySpec::paper_rack_bank())?;
/// // Discharge 1 kW for an hour: SoC drops by 1/12 of capacity.
/// let delivered = bank.discharge(Watts::new(1000.0), SimDuration::from_hours(1));
/// assert_eq!(delivered, Watts::new(1000.0));
/// assert!((bank.soc().value() - (1.0 - 1000.0 / 12_000.0)).abs() < 1e-9);
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryBank {
    spec: BatterySpec,
    energy: WattHours,
    total_discharged: WattHours,
    /// Set when the bank hits the DoD floor; cleared when fully recharged.
    /// Drives the paper's "discharge to DoD, then recharge fully" cycling.
    recharging: bool,
}

impl BatteryBank {
    /// Creates a bank at full charge.
    ///
    /// # Errors
    ///
    /// Propagates [`BatterySpec::validate`] failures.
    pub fn new(spec: BatterySpec) -> Result<Self, CoreError> {
        spec.validate()?;
        Ok(BatteryBank {
            spec,
            energy: spec.capacity,
            total_discharged: WattHours::ZERO,
            recharging: false,
        })
    }

    /// The static parameters.
    #[must_use]
    pub fn spec(&self) -> &BatterySpec {
        &self.spec
    }

    /// Current stored energy.
    #[must_use]
    pub fn energy(&self) -> WattHours {
        self.energy
    }

    /// Current state of charge.
    #[must_use]
    pub fn soc(&self) -> Ratio {
        Ratio::saturating(self.energy.value() / self.spec.capacity.value())
    }

    /// Energy available above the DoD floor.
    #[must_use]
    pub fn usable(&self) -> WattHours {
        let floor = self.spec.capacity * self.spec.floor_soc().value();
        self.energy.saturating_sub(floor)
    }

    /// Remaining headroom to full charge.
    #[must_use]
    pub fn headroom(&self) -> WattHours {
        self.spec.capacity.saturating_sub(self.energy)
    }

    /// `true` while the bank is in its post-DoD recharge phase.
    #[must_use]
    pub fn is_recharging(&self) -> bool {
        self.recharging
    }

    /// Equivalent full-DoD cycles consumed so far.
    #[must_use]
    // greenhetero-lint: allow(GH002) equivalent-cycle count is a dimensionless wear metric
    pub fn cycles(&self) -> f64 {
        let per_cycle = self.spec.capacity.value() * self.spec.dod_limit.value();
        if per_cycle <= 0.0 {
            0.0
        } else {
            self.total_discharged.value() / per_cycle
        }
    }

    /// Fraction of rated lifetime consumed.
    #[must_use]
    pub fn lifetime_used(&self) -> Ratio {
        Ratio::saturating(self.cycles() / self.spec.rated_cycles)
    }

    /// The controller-facing capability view for an epoch of length
    /// `epoch`: how much the bank could discharge or accept, sustained
    /// over the whole epoch.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    #[must_use]
    pub fn view(&self, epoch: SimDuration) -> BatteryView {
        assert!(!epoch.is_zero(), "epoch must be non-zero");
        let hours = epoch.as_hours();
        let max_discharge = if self.recharging {
            // While recharging after a DoD hit, the bank stays offline as a
            // source until full (the paper recharges fully between cycles).
            Watts::ZERO
        } else {
            self.spec
                .max_discharge
                .min(Watts::new(self.usable().value() / hours))
        };
        // Accepting `p` watts for `hours` stores `p · hours · η`.
        let max_charge = self.spec.max_charge.min(Watts::new(
            self.headroom().value() / (hours * self.spec.efficiency.value()),
        ));
        BatteryView {
            max_discharge,
            max_charge,
            needs_recharge: self.recharging,
        }
    }

    /// Discharges at up to `power` for `duration`; returns the power
    /// actually sustained (less if the DoD floor intervenes). Hitting the
    /// floor flips the bank into its recharge phase.
    #[must_use = "the delivered power may be less than requested"]
    pub fn discharge(&mut self, power: Watts, duration: SimDuration) -> Watts {
        if duration.is_zero() || power.value() <= 0.0 || self.recharging {
            return Watts::ZERO;
        }
        let hours = duration.as_hours();
        let want = power.min(self.spec.max_discharge);
        let deliverable = WattHours::new(want.value() * hours).min(self.usable());
        if deliverable.value() <= 0.0 {
            return Watts::ZERO;
        }
        self.energy -= deliverable;
        self.total_discharged += deliverable;
        if self.usable().value() <= 1e-9 {
            self.recharging = true;
        }
        let delivered = Watts::new(deliverable.value() / hours);
        debug_assert!(
            delivered <= power + Watts::new(1e-9),
            "delivered more than was requested: {delivered:?} vs {power:?}"
        );
        self.audit();
        delivered
    }

    /// Charges at up to `power` (at the source) for `duration`; returns
    /// the source power actually drawn. Stored energy is discounted by the
    /// round-trip efficiency. Reaching full charge ends a recharge phase.
    #[must_use = "the accepted power may be less than offered"]
    pub fn charge(&mut self, power: Watts, duration: SimDuration) -> Watts {
        if duration.is_zero() || power.value() <= 0.0 {
            return Watts::ZERO;
        }
        let hours = duration.as_hours();
        let want = power.min(self.spec.max_charge);
        let offered = WattHours::new(want.value() * hours);
        let storable = (offered * self.spec.efficiency.value()).min(self.headroom());
        if storable.value() <= 0.0 {
            return Watts::ZERO;
        }
        self.energy += storable;
        let target = self.spec.capacity * self.spec.recharge_target.value();
        if self.energy >= target {
            self.recharging = false;
        }
        if self.headroom().value() <= 1e-9 {
            self.energy = self.spec.capacity; // snap round-off to full
        }
        let drawn = Watts::new(storable.value() / self.spec.efficiency.value() / hours);
        debug_assert!(
            drawn <= power + Watts::new(1e-9),
            "drew more than was offered: {drawn:?} vs {power:?}"
        );
        self.audit();
        drawn
    }

    /// Debug-build invariant audit: stored energy stays within
    /// `[DoD floor, capacity]` (the discharge path never dips below the
    /// floor; the charge path never overfills) and wear only accumulates.
    fn audit(&self) {
        let floor = self.spec.capacity.value() * self.spec.floor_soc().value();
        debug_assert!(
            self.energy.value() >= floor - 1e-6,
            "SoC fell below the DoD floor: {:?} < {floor} Wh",
            self.energy
        );
        debug_assert!(
            self.energy <= self.spec.capacity + WattHours::new(1e-6),
            "stored energy exceeds capacity: {:?}",
            self.energy
        );
        debug_assert!(
            self.total_discharged.value() >= 0.0,
            "cycle accounting went negative"
        );
    }

    /// Resets to full charge, clearing cycle accounting. For experiment
    /// setup ("we initialize the battery capacity to its maximal state").
    pub fn reset_full(&mut self) {
        self.energy = self.spec.capacity;
        self.total_discharged = WattHours::ZERO;
        self.recharging = false;
    }

    /// Permanently derates the bank to `surviving` of its current size —
    /// a battery string failing open, or capacity fade discovered by a
    /// maintenance check. Capacity, stored energy and both C-rate limits
    /// scale together (fewer strings = proportionally less of everything);
    /// cycle accounting is untouched. The fraction is clamped to at least
    /// 1 % so a degenerate event cannot zero the spec out entirely (a
    /// zero-capacity spec is invalid by construction).
    pub fn derate(&mut self, surviving: Ratio) {
        let f = surviving.value().max(0.01);
        self.spec.capacity = self.spec.capacity * f;
        self.spec.max_discharge = self.spec.max_discharge * f;
        self.spec.max_charge = self.spec.max_charge * f;
        self.energy = self.energy * f;
        if self.usable().value() <= 1e-9 {
            // What survives sits at (or below) the DoD floor: the bank
            // must recharge before serving as a source again.
            self.recharging = true;
        }
        self.audit();
    }
}

#[cfg(test)]
// Tests compare results of exact literal arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn bank() -> BatteryBank {
        BatteryBank::new(BatterySpec::paper_rack_bank()).unwrap()
    }

    #[test]
    fn paper_bank_parameters() {
        let b = bank();
        assert_eq!(b.spec().capacity, WattHours::new(12_000.0));
        assert!((b.spec().floor_soc().value() - 0.6).abs() < 1e-12);
        assert_eq!(b.energy(), WattHours::new(12_000.0));
        assert_eq!(b.soc(), Ratio::ONE);
        assert_eq!(b.usable(), WattHours::new(4800.0));
    }

    #[test]
    fn spec_validation() {
        let mut s = BatterySpec::paper_rack_bank();
        s.capacity = WattHours::ZERO;
        assert!(BatteryBank::new(s).is_err());
        let mut s = BatterySpec::paper_rack_bank();
        s.dod_limit = Ratio::ZERO;
        assert!(BatteryBank::new(s).is_err());
        let mut s = BatterySpec::paper_rack_bank();
        s.efficiency = Ratio::ZERO;
        assert!(BatteryBank::new(s).is_err());
        let mut s = BatterySpec::paper_rack_bank();
        s.max_charge = Watts::ZERO;
        assert!(BatteryBank::new(s).is_err());
    }

    #[test]
    fn discharge_drains_to_floor_only() {
        let mut b = bank();
        // 4.8 kWh usable: at 1.2 kW that is exactly 4 h. Ask for 6 h worth.
        let mut delivered_hours = 0.0;
        for _ in 0..24 {
            let p = b.discharge(Watts::new(1200.0), SimDuration::from_minutes(15));
            delivered_hours += p.value() * 0.25;
        }
        assert!((delivered_hours - 4800.0).abs() < 1.0);
        assert!((b.soc().value() - 0.6).abs() < 1e-6);
        assert!(b.is_recharging());
        // Further discharge refused.
        assert_eq!(
            b.discharge(Watts::new(100.0), SimDuration::from_minutes(15)),
            Watts::ZERO
        );
    }

    #[test]
    fn ride_through_matches_paper_case_c() {
        // Paper Fig. 8(b): at ~1.1 kW rack load the batteries sustain
        // Case C for about 4.2 h before the DoD floor.
        let mut b = bank();
        let mut hours = 0.0;
        loop {
            let p = b.discharge(Watts::new(1150.0), SimDuration::from_minutes(15));
            if p < Watts::new(1150.0) {
                break;
            }
            hours += 0.25;
        }
        assert!(
            (3.9..=4.4).contains(&hours),
            "ride-through was {hours} h, expected ≈ 4.2 h"
        );
    }

    #[test]
    fn charge_applies_efficiency() {
        let mut b = bank();
        // Empty the usable band first.
        let _ = b.discharge(Watts::new(4000.0), SimDuration::from_hours(2));
        assert!(b.is_recharging());
        let before = b.energy();
        let drawn = b.charge(Watts::new(1000.0), SimDuration::from_hours(1));
        assert_eq!(drawn, Watts::new(1000.0));
        let stored = b.energy() - before;
        assert!((stored.value() - 800.0).abs() < 1e-9, "stored {stored}");
    }

    #[test]
    fn recharge_phase_ends_at_the_hysteresis_target() {
        let mut b = bank();
        let _ = b.discharge(Watts::new(4000.0), SimDuration::from_hours(2));
        assert!(b.is_recharging());
        // Partially recharge (60 % → 73 %): still below the 90 % target,
        // so the bank stays offline as a source.
        let _ = b.charge(Watts::new(2000.0), SimDuration::from_hours(1));
        assert!(b.is_recharging());
        assert_eq!(
            b.view(SimDuration::from_minutes(15)).max_discharge,
            Watts::ZERO
        );
        // Keep charging past the target: the bank comes back online.
        for _ in 0..2 {
            let _ = b.charge(Watts::new(2400.0), SimDuration::from_hours(1));
        }
        assert!(b.soc().value() >= 0.9);
        assert!(!b.is_recharging());
        assert!(b.view(SimDuration::from_minutes(15)).max_discharge > Watts::ZERO);
        // And charging may continue all the way to full.
        for _ in 0..10 {
            let _ = b.charge(Watts::new(2400.0), SimDuration::from_hours(1));
        }
        assert_eq!(b.soc(), Ratio::ONE);
    }

    #[test]
    fn recharge_target_must_exceed_floor() {
        let mut s = BatterySpec::paper_rack_bank();
        s.recharge_target = Ratio::saturating(0.5); // below the 0.6 floor
        assert!(BatteryBank::new(s).is_err());
    }

    #[test]
    fn charge_stops_at_capacity() {
        let mut b = bank();
        assert_eq!(
            b.charge(Watts::new(1000.0), SimDuration::from_hours(1)),
            Watts::ZERO
        );
        assert_eq!(b.soc(), Ratio::ONE);
    }

    #[test]
    fn view_reflects_rates_and_energy() {
        let b = bank();
        let v = b.view(SimDuration::from_minutes(15));
        // Full bank: discharge limited by C-rate (4 kW), no charging headroom.
        assert_eq!(v.max_discharge, Watts::new(4000.0));
        assert_eq!(v.max_charge, Watts::ZERO);
        assert!(!v.needs_recharge);

        // Nearly drained: discharge limited by remaining usable energy.
        let mut b2 = bank();
        let _ = b2.discharge(Watts::new(4000.0), SimDuration::from_hours(1));
        // 800 Wh usable left; over 15 min that sustains 3.2 kW.
        let v2 = b2.view(SimDuration::from_minutes(15));
        assert!((v2.max_discharge.value() - 3200.0).abs() < 1.0);
    }

    #[test]
    fn cycle_accounting() {
        let mut b = bank();
        // One full DoD swing = 4.8 kWh discharged = 1 cycle.
        let _ = b.discharge(Watts::new(4000.0), SimDuration::from_hours(2));
        assert!((b.cycles() - 1.0).abs() < 1e-6);
        assert!((b.lifetime_used().value() - 1.0 / 1300.0).abs() < 1e-9);
        b.reset_full();
        assert_eq!(b.cycles(), 0.0);
        assert_eq!(b.soc(), Ratio::ONE);
    }

    #[test]
    fn two_discharges_per_day_is_small_lifetime_impact() {
        // The paper: "GreenHetero discharges the batteries twice per day
        // (to the maximum DoD), so there is relatively very small impact on
        // the lifetime." Two cycles/day on 1300 rated cycles ≈ 21 months.
        let mut b = bank();
        for _ in 0..2 {
            let _ = b.discharge(Watts::new(4000.0), SimDuration::from_hours(2));
            for _ in 0..10 {
                let _ = b.charge(Watts::new(2400.0), SimDuration::from_hours(1));
            }
        }
        assert!((b.cycles() - 2.0).abs() < 1e-6);
        assert!(b.lifetime_used().value() < 0.002);
    }

    #[test]
    fn derate_scales_capacity_energy_and_rates_together() {
        let mut b = bank();
        b.derate(Ratio::saturating(0.9));
        assert!((b.spec().capacity.value() - 10_800.0).abs() < 1e-9);
        assert!((b.spec().max_discharge.value() - 3600.0).abs() < 1e-9);
        assert!((b.spec().max_charge.value() - 2160.0).abs() < 1e-9);
        // SoC is preserved: the surviving strings were as full as the rest.
        assert_eq!(b.soc(), Ratio::ONE);
        assert!(b.spec().validate().is_ok());
        // The derated bank still obeys its (smaller) physics.
        let p = b.discharge(Watts::new(4000.0), SimDuration::from_minutes(15));
        assert!((p.value() - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn derate_preserves_soc_and_scales_usable_energy() {
        let mut b = bank();
        // Drain 4600 of the 4800 usable Wh, stopping above the floor.
        let _ = b.discharge(Watts::new(2300.0), SimDuration::from_hours(2));
        let soc_before = b.soc();
        assert!((b.usable().value() - 200.0).abs() < 1e-6);
        b.derate(Ratio::saturating(0.5));
        // The failed strings take their energy with them: SoC holds and
        // the usable band halves along with everything else.
        assert!((b.soc().value() - soc_before.value()).abs() < 1e-9);
        assert!((b.usable().value() - 100.0).abs() < 1e-6);
        assert!(!b.is_recharging());
    }

    #[test]
    fn derate_while_recharging_stays_offline_as_a_source() {
        let mut b = bank();
        let _ = b.discharge(Watts::new(4000.0), SimDuration::from_hours(2));
        assert!(b.is_recharging());
        b.derate(Ratio::saturating(0.9));
        assert!(b.is_recharging());
        assert_eq!(
            b.view(SimDuration::from_minutes(15)).max_discharge,
            Watts::ZERO
        );
    }

    #[test]
    fn derate_clamps_degenerate_fractions() {
        let mut b = bank();
        b.derate(Ratio::ZERO);
        assert!(b.spec().capacity.value() > 0.0);
        assert!(b.spec().validate().is_ok());
    }

    #[test]
    fn zero_duration_operations_are_noops() {
        let mut b = bank();
        assert_eq!(
            b.discharge(Watts::new(100.0), SimDuration::ZERO),
            Watts::ZERO
        );
        assert_eq!(b.charge(Watts::new(100.0), SimDuration::ZERO), Watts::ZERO);
    }
}
