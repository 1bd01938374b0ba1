//! Offered-load intensity profiles.
//!
//! The runtime experiments (Figs. 6, 8, 11) drive SPECjbb with "a typical
//! datacenter server rack power pattern": load swings diurnally between a
//! night trough and an afternoon peak. Batch experiments run at constant
//! full intensity.

use greenhetero_core::types::{Ratio, SimTime};

/// How the offered load evolves over simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntensityProfile {
    /// Constant offered load (batch workloads saturate at 1.0).
    Constant(Ratio),
    /// Diurnal swing between `trough` (pre-dawn) and `peak` (afternoon),
    /// the rack-demand shape of the paper's Fig. 6.
    Diurnal {
        /// Intensity at the nightly trough.
        trough: Ratio,
        /// Intensity at the afternoon peak.
        peak: Ratio,
    },
}

impl IntensityProfile {
    /// Full load, always — the batch-workload default.
    pub const SATURATED: IntensityProfile = IntensityProfile::Constant(Ratio::ONE);

    /// The paper's datacenter pattern: a 65 %–100 % diurnal swing (sized
    /// so the night load lands near 1 kW on the Comb1 rack, giving the
    /// ≈4-hour Case C battery ride-through of Fig. 8).
    #[must_use]
    pub fn datacenter_diurnal() -> Self {
        IntensityProfile::Diurnal {
            trough: Ratio::saturating(0.65),
            peak: Ratio::ONE,
        }
    }

    /// The offered-load intensity at time `t`.
    #[must_use]
    pub fn at(&self, t: SimTime) -> Ratio {
        match *self {
            IntensityProfile::Constant(r) => r,
            IntensityProfile::Diurnal { trough, peak } => {
                let shape = diurnal_shape(t.hour_of_day());
                Ratio::saturating(trough.value() + (peak.value() - trough.value()) * shape)
            }
        }
    }
}

/// Normalized diurnal shape (0 at ~04:00, 1 at ~14:00), matching the rack
/// load pattern of Wang et al. [13] the paper illustrates in Fig. 6.
fn diurnal_shape(hour: f64) -> f64 {
    use std::f64::consts::PI;
    let raw = 0.5 + 0.5 * ((hour - 14.0) / 24.0 * 2.0 * PI).cos();
    raw.powf(0.7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile() {
        let p = IntensityProfile::SATURATED;
        assert_eq!(p.at(SimTime::ZERO), Ratio::ONE);
        assert_eq!(p.at(SimTime::from_hours(13)), Ratio::ONE);
    }

    #[test]
    fn diurnal_swings_between_bounds() {
        let p = IntensityProfile::datacenter_diurnal();
        // The cosine trough sits 12 h opposite the 14:00 peak, at 02:00.
        let night = p.at(SimTime::from_hours(2));
        let afternoon = p.at(SimTime::from_hours(14));
        assert!(night < afternoon);
        assert!((afternoon.value() - 1.0).abs() < 1e-9);
        assert!((night.value() - 0.65).abs() < 1e-6);
        // Every hour lies within the configured band.
        for h in 0..24 {
            let v = p.at(SimTime::from_hours(h)).value();
            assert!((0.65..=1.0).contains(&v), "hour {h}: {v}");
        }
    }

    #[test]
    fn pattern_repeats_daily() {
        let p = IntensityProfile::datacenter_diurnal();
        assert_eq!(p.at(SimTime::from_hours(10)), p.at(SimTime::from_hours(34)));
    }
}
