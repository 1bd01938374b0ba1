//! Per-epoch records and run-level reports.

use std::io::Write;

use greenhetero_core::metrics::{EpuAccumulator, SeriesSummary};
use greenhetero_core::sources::SupplyCase;
use greenhetero_core::telemetry::RunLedger;
use greenhetero_core::types::{EpochId, Ratio, SimTime, Throughput, WattHours, Watts};

/// Everything the monitor recorded about one scheduling epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// The epoch index.
    pub epoch: EpochId,
    /// Start time of the epoch.
    pub time: SimTime,
    /// `true` if this epoch ran a training run instead of an allocation.
    pub training: bool,
    /// The supply regime the scheduler selected.
    pub case: SupplyCase,
    /// Power budget offered to the servers.
    pub budget: Watts,
    /// Unconstrained rack power demand at this epoch's offered load.
    pub demand: Watts,
    /// Actual solar generation (epoch average).
    pub solar: Watts,
    /// Power the servers actually drew.
    pub load: Watts,
    /// Battery discharge into the load.
    pub battery_discharge: Watts,
    /// Charging power, with sign folded into `charge_source` semantics.
    pub battery_charge: Watts,
    /// Grid power serving the load.
    pub grid_load: Watts,
    /// Grid power charging the battery.
    pub grid_charge: Watts,
    /// Battery state of charge at the end of the epoch.
    pub soc: Ratio,
    /// Offered-load intensity during the epoch.
    pub intensity: Ratio,
    /// Measured rack throughput.
    pub throughput: Throughput,
    /// Power allocation ratio of the first group (the paper's PAR view in
    /// Fig. 8), when an allocation ran.
    pub par: Option<Ratio>,
    /// Planned power the sources could not actually deliver this epoch.
    pub unserved: Watts,
    /// Servers the controller powered off to fit the budget (load shedding).
    pub shed_servers: u32,
    /// Servers offline due to injected crashes (not controller decisions).
    pub offline_servers: u32,
    /// `true` when the epoch ran in any degraded mode: a fallback or
    /// load-shedding decision, a telemetry outage, or unserved power.
    pub degraded: bool,
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Per-epoch records, in order.
    pub epochs: Vec<EpochRecord>,
    /// Accumulated effective power utilization.
    pub epu: EpuAccumulator,
    /// Total grid energy drawn.
    pub grid_energy: WattHours,
    /// Peak grid draw.
    pub grid_peak: Watts,
    /// Grid bill under the configured tariff.
    pub grid_cost: f64,
    /// Battery cycles consumed.
    pub battery_cycles: f64,
    /// Total planned energy the sources failed to deliver.
    pub unserved_energy: WattHours,
    /// Number of epochs that ran degraded (see [`EpochRecord::degraded`]).
    pub degraded_epochs: u64,
    /// Epochs between the last injected fault clearing and the first
    /// non-degraded epoch after it; `None` when no fault was injected or
    /// the run ended still degraded.
    pub recovery_latency_epochs: Option<u64>,
    /// Final snapshot of every telemetry instrument the run registered.
    pub ledger: RunLedger,
}

impl RunReport {
    /// Records excluding training epochs (the steady-state behaviour the
    /// paper's figures report).
    #[must_use]
    pub fn steady_epochs(&self) -> Vec<&EpochRecord> {
        self.epochs.iter().filter(|e| !e.training).collect()
    }

    /// Mean throughput over steady (non-training) epochs.
    #[must_use]
    pub fn mean_throughput(&self) -> Throughput {
        let steady = self.steady_epochs();
        if steady.is_empty() {
            return Throughput::ZERO;
        }
        let sum: f64 = steady.iter().map(|e| e.throughput.value()).sum();
        Throughput::new(sum / steady.len() as f64)
    }

    /// Mean throughput over steady epochs matching `filter`.
    #[must_use]
    pub fn mean_throughput_where<F: Fn(&EpochRecord) -> bool>(&self, filter: F) -> Throughput {
        let selected: Vec<&EpochRecord> = self
            .epochs
            .iter()
            .filter(|e| !e.training && filter(e))
            .collect();
        if selected.is_empty() {
            return Throughput::ZERO;
        }
        let sum: f64 = selected.iter().map(|e| e.throughput.value()).sum();
        Throughput::new(sum / selected.len() as f64)
    }

    /// The run's effective power utilization (Eq. 1).
    #[must_use]
    pub fn epu(&self) -> Ratio {
        self.epu.epu()
    }

    /// Mean PAR over epochs that made an allocation decision.
    #[must_use]
    pub fn mean_par(&self) -> Option<Ratio> {
        let pars: Vec<f64> = self
            .epochs
            .iter()
            .filter_map(|e| e.par.map(|p| p.value()))
            .collect();
        SeriesSummary::of(&pars).map(|s| Ratio::saturating(s.mean))
    }

    /// `true` for epochs whose power budget fell short of the rack's
    /// unconstrained demand — the "renewable power is insufficient"
    /// condition the paper's Figs. 9/10 restrict their analysis to.
    #[must_use]
    pub fn is_scarce(e: &EpochRecord) -> bool {
        e.budget.value() < 0.98 * e.demand.value()
    }

    /// Mean throughput over scarce (supply-constrained) steady epochs;
    /// falls back to the overall steady mean when no epoch was scarce.
    #[must_use]
    pub fn mean_scarce_throughput(&self) -> Throughput {
        let scarce = self.mean_throughput_where(Self::is_scarce);
        if scarce.value() > 0.0 {
            scarce
        } else {
            self.mean_throughput()
        }
    }

    /// Hours spent in each supply case `(A, B, C)`, assuming the epochs
    /// are evenly spaced.
    #[must_use]
    pub fn case_hours(&self, epoch_hours: f64) -> (f64, f64, f64) {
        let mut hours = (0.0, 0.0, 0.0);
        for e in &self.epochs {
            match e.case {
                SupplyCase::A => hours.0 += epoch_hours,
                SupplyCase::B => hours.1 += epoch_hours,
                SupplyCase::C => hours.2 += epoch_hours,
            }
        }
        hours
    }

    /// Writes the per-epoch series as CSV (one row per epoch).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_csv<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(
            writer,
            "epoch,seconds,training,case,budget_w,demand_w,solar_w,load_w,battery_discharge_w,\
             battery_charge_w,grid_load_w,grid_charge_w,soc,intensity,throughput,par,\
             unserved_w,shed,offline,degraded"
        )?;
        for e in &self.epochs {
            write!(
                writer,
                "{},{},{},{:?},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.4},{:.4},{:.2},",
                e.epoch.raw(),
                e.time.as_secs(),
                e.training,
                e.case,
                e.budget.value(),
                e.demand.value(),
                e.solar.value(),
                e.load.value(),
                e.battery_discharge.value(),
                e.battery_charge.value(),
                e.grid_load.value(),
                e.grid_charge.value(),
                e.soc.value(),
                e.intensity.value(),
                e.throughput.value(),
            )?;
            // The optional PAR field streams too: empty when absent, no
            // intermediate String either way.
            if let Some(p) = e.par {
                write!(writer, "{:.4}", p.value())?;
            }
            writeln!(
                writer,
                ",{:.2},{},{},{}",
                e.unserved.value(),
                e.shed_servers,
                e.offline_servers,
                e.degraded,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        epoch: u64,
        training: bool,
        case: SupplyCase,
        thr: f64,
        par: Option<f64>,
    ) -> EpochRecord {
        EpochRecord {
            epoch: EpochId::new(epoch),
            time: SimTime::from_secs(epoch * 900),
            training,
            case,
            budget: Watts::new(1000.0),
            demand: Watts::new(1200.0),
            solar: Watts::new(500.0),
            load: Watts::new(900.0),
            battery_discharge: Watts::ZERO,
            battery_charge: Watts::ZERO,
            grid_load: Watts::new(400.0),
            grid_charge: Watts::ZERO,
            soc: Ratio::ONE,
            intensity: Ratio::ONE,
            throughput: Throughput::new(thr),
            par: par.map(Ratio::saturating),
            unserved: Watts::ZERO,
            shed_servers: 0,
            offline_servers: 0,
            degraded: false,
        }
    }

    fn report() -> RunReport {
        RunReport {
            epochs: vec![
                record(0, true, SupplyCase::A, 10.0, None),
                record(1, false, SupplyCase::A, 100.0, Some(0.6)),
                record(2, false, SupplyCase::B, 200.0, Some(0.7)),
                record(3, false, SupplyCase::C, 300.0, Some(0.5)),
            ],
            epu: EpuAccumulator::new(),
            grid_energy: WattHours::new(100.0),
            grid_peak: Watts::new(400.0),
            grid_cost: 5.0,
            battery_cycles: 0.5,
            unserved_energy: WattHours::ZERO,
            degraded_epochs: 0,
            recovery_latency_epochs: None,
            ledger: RunLedger::default(),
        }
    }

    #[test]
    fn mean_throughput_excludes_training() {
        let r = report();
        assert_eq!(r.steady_epochs().len(), 3);
        assert_eq!(r.mean_throughput(), Throughput::new(200.0));
    }

    #[test]
    fn filtered_mean() {
        let r = report();
        let scarce = r.mean_throughput_where(|e| e.case != SupplyCase::A);
        assert_eq!(scarce, Throughput::new(250.0));
        let none = r.mean_throughput_where(|_| false);
        assert_eq!(none, Throughput::ZERO);
    }

    #[test]
    fn mean_par() {
        let r = report();
        let par = r.mean_par().unwrap();
        assert!((par.value() - 0.6).abs() < 1e-9);
    }

    #[test]
    // Counting epochs times 0.25 h is exact in binary floating point.
    #[allow(clippy::float_cmp)]
    fn case_hours() {
        let r = report();
        let (a, b, c) = r.case_hours(0.25);
        assert_eq!(a, 0.5);
        assert_eq!(b, 0.25);
        assert_eq!(c, 0.25);
    }

    /// Byte-exact golden output captured before `write_csv` was
    /// refactored to stream fields: the refactor must not change a byte.
    #[test]
    fn csv_bytes_match_golden_output() {
        let golden = "\
epoch,seconds,training,case,budget_w,demand_w,solar_w,load_w,battery_discharge_w,battery_charge_w,grid_load_w,grid_charge_w,soc,intensity,throughput,par,unserved_w,shed,offline,degraded
0,0,true,A,1000.00,1200.00,500.00,900.00,0.00,0.00,400.00,0.00,1.0000,1.0000,10.00,,0.00,0,0,false
1,900,false,A,1000.00,1200.00,500.00,900.00,0.00,0.00,400.00,0.00,1.0000,1.0000,100.00,0.6000,0.00,0,0,false
2,1800,false,B,1000.00,1200.00,500.00,900.00,0.00,0.00,400.00,0.00,1.0000,1.0000,200.00,0.7000,0.00,0,0,false
3,2700,false,C,1000.00,1200.00,500.00,900.00,0.00,0.00,400.00,0.00,1.0000,1.0000,300.00,0.5000,0.00,0,0,false
";
        let mut buf = Vec::new();
        report().write_csv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), golden);
    }

    #[test]
    fn csv_has_one_row_per_epoch_plus_header() {
        let r = report();
        let mut buf = Vec::new();
        r.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().next().unwrap().starts_with("epoch,"));
    }

    #[test]
    fn empty_report_mean_is_zero() {
        let r = RunReport {
            epochs: vec![],
            epu: EpuAccumulator::new(),
            grid_energy: WattHours::ZERO,
            grid_peak: Watts::ZERO,
            grid_cost: 0.0,
            battery_cycles: 0.0,
            unserved_energy: WattHours::ZERO,
            degraded_epochs: 0,
            recovery_latency_epochs: None,
            ledger: RunLedger::default(),
        };
        assert_eq!(r.mean_throughput(), Throughput::ZERO);
        assert_eq!(r.mean_par(), None);
    }
}
