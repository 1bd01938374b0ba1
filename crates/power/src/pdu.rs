//! The dual-feed PDU / automatic transfer switch.
//!
//! Executes the scheduler's [`SourcePlan`] against the *actual* epoch
//! conditions. The plan was made from predictions; when the real solar
//! output falls short, the ATS makes up the difference from the battery
//! and then the grid (exactly what the physical transfer switch would do),
//! and when solar overshoots, the surplus tops up the planned charging or
//! is curtailed.

use greenhetero_core::sources::{ChargeSource, SourcePlan};
use greenhetero_core::types::{Ratio, SimDuration, WattHours, Watts};

use crate::battery::BatteryBank;
use crate::grid::GridFeed;

/// The realized power flows of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFlows {
    /// Power delivered to the server load bus.
    pub to_load: Watts,
    /// Renewable share of the load power.
    pub from_renewable: Watts,
    /// Battery share of the load power.
    pub from_battery: Watts,
    /// Grid share of the load power.
    pub from_grid: Watts,
    /// Power drawn (at the source) to charge the battery.
    pub charging: Watts,
    /// Which source charged the battery, if any.
    pub charge_source: Option<ChargeSource>,
    /// Renewable power neither used nor stored.
    pub curtailed: Watts,
    /// Power promised by the plan but not deliverable (prediction error
    /// that even battery + grid could not cover).
    pub shortfall: Watts,
}

impl PowerFlows {
    /// Green (renewable + battery) fraction of the delivered load power.
    #[must_use]
    pub fn green_fraction(&self) -> Ratio {
        let total = self.to_load.value();
        if total <= 0.0 {
            Ratio::ZERO
        } else {
            Ratio::saturating((self.from_renewable + self.from_battery).value() / total)
        }
    }

    /// Energy delivered to the load over `duration`.
    #[must_use]
    pub fn load_energy(&self, duration: SimDuration) -> WattHours {
        self.to_load * duration
    }

    /// Load power that went unserved this epoch — the resilience ledger's
    /// name for [`shortfall`](PowerFlows::shortfall): what the servers
    /// wanted (within plan) but no source could deliver. Conservation
    /// holds as `renewable + battery + grid = load`, with
    /// `load + unserved` equal to the planned draw.
    #[must_use]
    pub fn unserved(&self) -> Watts {
        self.shortfall
    }
}

/// The rack PDU: applies plans to the physical sources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pdu;

impl Pdu {
    /// Creates a PDU.
    #[must_use]
    pub fn new() -> Self {
        Pdu
    }

    /// Executes `plan` for one epoch of length `duration`, given the
    /// actual average solar availability, mutating the battery and grid.
    /// The load is assumed to draw the plan's full budget; use
    /// [`dispatch`](Pdu::dispatch) when the realized load differs.
    ///
    /// Guarantees:
    /// * the battery never charges and discharges in the same epoch;
    /// * total grid draw stays within the feed's budget;
    /// * delivered load power never exceeds the plan's budget.
    pub fn apply(
        &self,
        plan: &SourcePlan,
        actual_solar: Watts,
        battery: &mut BatteryBank,
        grid: &mut GridFeed,
        duration: SimDuration,
    ) -> PowerFlows {
        self.dispatch(plan, actual_solar, plan.budget(), battery, grid, duration)
    }

    /// Like [`apply`](Pdu::apply), but with the *realized* load draw —
    /// servers under quantized DVFS caps usually draw a little less than
    /// the budget, and stranded below-idle allocations draw nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch(
        &self,
        plan: &SourcePlan,
        actual_solar: Watts,
        actual_load: Watts,
        battery: &mut BatteryBank,
        grid: &mut GridFeed,
        duration: SimDuration,
    ) -> PowerFlows {
        let actual_solar = actual_solar.non_negative();
        let planned_load = actual_load.non_negative().min(plan.budget());

        // Sources serve the load in the paper's priority order: renewable
        // first, battery second, grid as the last resort. The plan's
        // per-source amounts were sized from *predictions*; the physical
        // battery and grid enforce their own limits here.
        let from_renewable = actual_solar.min(planned_load);
        let after_renewable = planned_load - from_renewable;
        let from_battery = if after_renewable > Watts::ZERO {
            battery.discharge(after_renewable, duration)
        } else {
            Watts::ZERO
        };
        let after_battery = after_renewable - from_battery;
        let from_grid = if after_battery > Watts::ZERO {
            grid.draw(after_battery, duration)
        } else {
            Watts::ZERO
        };

        let to_load = from_renewable + from_battery + from_grid;
        let shortfall = planned_load.saturating_sub(to_load);

        // Charging — skipped entirely if the battery discharged ("only one
        // power source can charge the battery at any given time", and a
        // battery never charges while discharging).
        let mut charging = Watts::ZERO;
        let mut charge_source = None;
        if from_battery.is_zero() {
            // Any realized renewable surplus tops up the battery (Case A).
            let surplus = actual_solar.saturating_sub(from_renewable);
            if surplus > Watts::ZERO {
                charging = battery.charge(surplus, duration);
                if charging > Watts::ZERO {
                    charge_source = Some(ChargeSource::Renewable);
                }
            }
            // Otherwise, grid-recharge a drained battery when the plan
            // budgeted for it and the grid has headroom.
            if charging.is_zero() {
                if let Some((ChargeSource::Grid, planned)) = plan.charge {
                    let headroom = grid.budget().saturating_sub(from_grid);
                    let offer = planned.min(headroom);
                    if offer > Watts::ZERO {
                        // Draw from the grid only what the battery accepts.
                        let accepted = battery.charge(offer, duration);
                        if accepted > Watts::ZERO {
                            charging = grid.draw(accepted, duration);
                            charge_source = Some(ChargeSource::Grid);
                        }
                    }
                }
            }
        }

        let used_solar = from_renewable
            + if charge_source == Some(ChargeSource::Renewable) {
                charging
            } else {
                Watts::ZERO
            };
        let curtailed = actual_solar.saturating_sub(used_solar);

        PowerFlows {
            to_load,
            from_renewable,
            from_battery,
            from_grid,
            charging,
            charge_source,
            curtailed,
            shortfall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::BatterySpec;
    use crate::grid::GridTariff;
    use greenhetero_core::sources::{select_sources, SourceInputs, SupplyCase};

    fn battery() -> BatteryBank {
        BatteryBank::new(BatterySpec::paper_rack_bank()).unwrap()
    }

    fn grid(budget: f64) -> GridFeed {
        GridFeed::new(Watts::new(budget), GridTariff::paper()).unwrap()
    }

    fn epoch() -> SimDuration {
        SimDuration::from_minutes(15)
    }

    fn plan(r: f64, d: f64, bank: &BatteryBank, grid_budget: f64) -> SourcePlan {
        select_sources(&SourceInputs {
            predicted_renewable: Watts::new(r),
            predicted_demand: Watts::new(d),
            battery: bank.view(epoch()),
            grid_budget: Watts::new(grid_budget),
            renewable_negligible: Watts::new(5.0),
        })
    }

    #[test]
    fn perfect_prediction_case_a() {
        let mut bank = battery();
        // Drain a little so charging headroom exists.
        let _ = bank.discharge(Watts::new(4000.0), SimDuration::from_hours(1));
        // Recharge phase: the view reports needs_recharge.
        let mut g = grid(1000.0);
        let p = plan(1500.0, 1000.0, &bank, 1000.0);
        assert_eq!(p.case, SupplyCase::A);
        // The servers draw their 1000 W demand off the 1500 W bus.
        let flows = Pdu::new().dispatch(
            &p,
            Watts::new(1500.0),
            Watts::new(1000.0),
            &mut bank,
            &mut g,
            epoch(),
        );
        assert_eq!(flows.from_renewable, Watts::new(1000.0));
        assert_eq!(flows.from_grid, Watts::ZERO);
        assert_eq!(flows.shortfall, Watts::ZERO);
        assert!(flows.charging > Watts::ZERO);
        assert_eq!(flows.charge_source, Some(ChargeSource::Renewable));
        assert!((flows.green_fraction().value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solar_under_delivery_is_made_up_by_battery() {
        let mut bank = battery();
        let mut g = grid(1000.0);
        // Plan expected 800 W of sun; only 500 W materialized.
        let p = plan(800.0, 1000.0, &bank, 1000.0);
        let flows = Pdu::new().apply(&p, Watts::new(500.0), &mut bank, &mut g, epoch());
        assert_eq!(flows.from_renewable, Watts::new(500.0));
        // Battery covers planned 200 W + 300 W makeup.
        assert_eq!(flows.from_battery, Watts::new(500.0));
        assert_eq!(flows.to_load, Watts::new(1000.0));
        assert_eq!(flows.shortfall, Watts::ZERO);
    }

    #[test]
    fn depleted_battery_falls_to_grid_then_shortfall() {
        let mut bank = battery();
        let _ = bank.discharge(Watts::new(4000.0), SimDuration::from_hours(2)); // drain to floor
        let mut g = grid(300.0);
        let p = plan(0.0, 1000.0, &bank, 300.0);
        assert_eq!(p.case, SupplyCase::C);
        let flows = Pdu::new().apply(&p, Watts::ZERO, &mut bank, &mut g, epoch());
        assert_eq!(flows.from_battery, Watts::ZERO);
        assert_eq!(flows.from_grid, Watts::new(300.0));
        // The plan itself only budgeted 300 W of load (source selection saw
        // the drained battery), so there is no shortfall.
        assert_eq!(flows.shortfall, Watts::ZERO);
        // Grid charging happened only if budget allowed beyond load: not here.
        assert_eq!(flows.charging, Watts::ZERO);
    }

    #[test]
    fn grid_charges_drained_battery_with_spare_budget() {
        let mut bank = battery();
        let _ = bank.discharge(Watts::new(4000.0), SimDuration::from_hours(2));
        assert!(bank.is_recharging());
        let mut g = grid(1000.0);
        let p = plan(0.0, 600.0, &bank, 1000.0);
        let flows = Pdu::new().apply(&p, Watts::ZERO, &mut bank, &mut g, epoch());
        assert_eq!(flows.from_grid, Watts::new(600.0));
        assert_eq!(flows.charge_source, Some(ChargeSource::Grid));
        assert!((flows.charging.value() - 400.0).abs() < 1e-6);
        // Total grid draw stays within budget.
        assert!(g.peak_draw() <= g.budget());
    }

    #[test]
    fn no_charge_and_discharge_in_same_epoch() {
        let mut bank = battery();
        let _ = bank.discharge(Watts::new(1000.0), SimDuration::from_hours(1));
        let mut g = grid(1000.0);
        // Case B: battery discharges; even with headroom, no charging.
        let p = plan(600.0, 1000.0, &bank, 1000.0);
        let flows = Pdu::new().apply(&p, Watts::new(600.0), &mut bank, &mut g, epoch());
        assert!(flows.from_battery > Watts::ZERO);
        assert_eq!(flows.charging, Watts::ZERO);
        assert_eq!(flows.charge_source, None);
    }

    #[test]
    fn solar_overshoot_is_curtailed_when_battery_full() {
        let mut bank = battery(); // full
        let mut g = grid(1000.0);
        let p = plan(1200.0, 1000.0, &bank, 1000.0);
        let flows = Pdu::new().dispatch(
            &p,
            Watts::new(2000.0),
            Watts::new(1000.0),
            &mut bank,
            &mut g,
            epoch(),
        );
        assert_eq!(flows.from_renewable, Watts::new(1000.0));
        assert_eq!(flows.charging, Watts::ZERO);
        assert_eq!(flows.curtailed, Watts::new(1000.0));
    }

    #[test]
    fn unserved_power_conserves_energy() {
        // The plan was drawn up against a healthy battery, but by dispatch
        // time the bank sits at its DoD floor and the grid is browned out
        // to 300 W: 700 W of the planned 1000 W load goes unserved.
        let healthy = battery();
        let p = plan(0.0, 1000.0, &healthy, 1000.0);
        assert_eq!(p.budget(), Watts::new(1000.0));

        let mut drained = battery();
        let _ = drained.discharge(Watts::new(4000.0), SimDuration::from_hours(2));
        let mut g = grid(300.0);
        let flows = Pdu::new().apply(&p, Watts::ZERO, &mut drained, &mut g, epoch());

        assert_eq!(flows.from_battery, Watts::ZERO);
        assert_eq!(flows.from_grid, Watts::new(300.0));
        assert_eq!(flows.unserved(), Watts::new(700.0));
        // Conservation: sources sum to the delivered load...
        assert_eq!(
            flows.from_renewable + flows.from_battery + flows.from_grid,
            flows.to_load
        );
        // ...and delivered + unserved accounts for the whole planned draw.
        assert_eq!(flows.to_load + flows.unserved(), p.budget());
    }

    #[test]
    fn conservation_holds_without_faults_too() {
        let mut bank = battery();
        let mut g = grid(1000.0);
        let p = plan(800.0, 1000.0, &bank, 1000.0);
        let flows = Pdu::new().dispatch(
            &p,
            Watts::new(650.0),
            Watts::new(950.0),
            &mut bank,
            &mut g,
            epoch(),
        );
        assert_eq!(flows.unserved(), Watts::ZERO);
        assert_eq!(
            flows.from_renewable + flows.from_battery + flows.from_grid,
            flows.to_load
        );
        assert_eq!(flows.to_load + flows.unserved(), Watts::new(950.0));
    }

    #[test]
    fn load_energy_accounting() {
        let flows = PowerFlows {
            to_load: Watts::new(800.0),
            from_renewable: Watts::new(800.0),
            from_battery: Watts::ZERO,
            from_grid: Watts::ZERO,
            charging: Watts::ZERO,
            charge_source: None,
            curtailed: Watts::ZERO,
            shortfall: Watts::ZERO,
        };
        assert_eq!(
            flows.load_energy(SimDuration::from_minutes(30)),
            WattHours::new(400.0)
        );
    }
}
