//! DVFS frequency ladders and power-state sets.
//!
//! The paper's SPC controls server power with `cpufreq` (CPUs) and
//! `nvidia-smi` (the GPU). We model each platform's ladder as evenly
//! spaced frequency steps between a minimum fraction of base frequency and
//! base frequency, preceded by an *off/sleep* state — the "low power
//! states (e.g., Sleep and Hibernation)" of §IV-B4.
//!
//! The state set is workload-specific: a state's power is the draw at that
//! frequency under the *workload's* peak load (`idle + span·frac²`, the
//! classic `P ∝ f·V²` scaling), bounded by the workload's power envelope.

use greenhetero_core::enforcer::{PowerState, PowerStateSet};
use greenhetero_core::types::{MegaHertz, Watts};

use crate::ground_truth::GroundTruth;
use crate::platform::{PlatformClass, PlatformKind};

/// Exponent of the frequency→dynamic-power relation (`P_dyn ∝ f^α`).
pub const FREQ_POWER_EXPONENT: f64 = 2.0;

/// Number of DVFS steps (excluding the off state).
pub const LADDER_STEPS: usize = 8;

/// A platform's DVFS ladder: available frequencies, ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyLadder {
    freqs: Vec<MegaHertz>,
}

impl FrequencyLadder {
    /// The ladder for a platform: [`LADDER_STEPS`] evenly spaced levels
    /// from the platform's minimum fraction (40 % for CPUs, 50 % for the
    /// GPU, mirroring real cpufreq/nvidia-smi ranges) up to base frequency.
    #[must_use]
    pub fn for_platform(platform: PlatformKind) -> Self {
        let spec = platform.spec();
        let min_frac = match spec.class {
            PlatformClass::Cpu => 0.4,
            PlatformClass::Gpu => 0.5,
        };
        let base = spec.frequency.value();
        let freqs = (0..LADDER_STEPS)
            .map(|i| {
                let t = i as f64 / (LADDER_STEPS - 1) as f64;
                MegaHertz::new(base * (min_frac + t * (1.0 - min_frac)))
            })
            .collect();
        FrequencyLadder { freqs }
    }

    /// The available frequencies, ascending.
    #[must_use]
    pub fn freqs(&self) -> &[MegaHertz] {
        &self.freqs
    }

    /// Number of levels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` if there are no levels (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// The top frequency.
    #[must_use]
    pub fn max(&self) -> MegaHertz {
        self.freqs[self.freqs.len() - 1]
    }

    /// Fraction of base frequency at ladder position `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn fraction(&self, idx: usize) -> f64 {
        self.freqs[idx].value() / self.max().value()
    }
}

/// Builds the ordered power-state set `S_N` for a (platform, workload)
/// pair: an off state at 0 W, then each DVFS level at its full-load power
/// under this workload.
///
/// Frequencies whose power lands below the platform's idle draw are
/// clamped to idle (a powered server cannot draw less than idle).
#[must_use]
#[allow(clippy::expect_used)]
pub fn power_state_set(truth: &GroundTruth, ladder: &FrequencyLadder) -> PowerStateSet {
    let mut states = Vec::with_capacity(ladder.len() + 1);
    states.push(PowerState {
        label: "off".to_string(),
        power: Watts::ZERO,
    });
    let idle = truth.envelope().idle();
    let span = truth.envelope().dynamic();
    for (i, f) in ladder.freqs().iter().enumerate() {
        let frac = ladder.fraction(i).powf(FREQ_POWER_EXPONENT);
        states.push(PowerState {
            label: format!("{f}"),
            power: idle + span * frac,
        });
    }
    // greenhetero-lint: allow(GH001) the ladder yields monotone powers, so new() cannot fail
    PowerStateSet::new(states).expect("states are ordered by construction")
}

/// How a server picks its frequency (the `cpufreq` governors the paper
/// uses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Governor {
    /// Track instantaneous demand: pick the lowest state whose power meets
    /// the current load — the training-run governor.
    Ondemand,
    /// Pin a specific state index (used by training sweeps).
    Userspace(usize),
    /// Always the highest state.
    Performance,
    /// Enforce a power cap: the server duty-cycles between the adjacent
    /// DVFS states so its average draw tracks the cap — how the SPC
    /// realizes fractional allocations on real hardware (RAPL-style).
    /// Below idle power the server parks in its off state.
    Capped(Watts),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;

    #[test]
    fn ladder_shape() {
        let l = FrequencyLadder::for_platform(PlatformKind::XeonE52620);
        assert_eq!(l.len(), LADDER_STEPS);
        assert_eq!(l.max(), MegaHertz::from_ghz(2.0));
        assert!((l.freqs()[0].value() - 800.0).abs() < 1.0); // 40% of 2 GHz
                                                             // Ascending.
        for w in l.freqs().windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!((l.fraction(LADDER_STEPS - 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gpu_ladder_starts_at_half() {
        let l = FrequencyLadder::for_platform(PlatformKind::TitanXp);
        assert!((l.freqs()[0].value() - 0.5 * 1582.0).abs() < 1.0);
    }

    #[test]
    fn state_set_spans_off_to_workload_peak() {
        let gt = GroundTruth::new(PlatformKind::CoreI54460, WorkloadKind::SpecJbb).unwrap();
        let ladder = FrequencyLadder::for_platform(PlatformKind::CoreI54460);
        let set = power_state_set(&gt, &ladder);
        assert_eq!(set.len(), LADDER_STEPS + 1);
        assert_eq!(set.min_power(), Watts::ZERO);
        // Top state draws the workload peak.
        assert!(set
            .max_power()
            .approx_eq(gt.envelope().peak(), Watts::new(0.5)));
        // All intermediate states lie within [idle, peak] (besides off).
        for s in &set.states()[1..] {
            assert!(s.power >= gt.envelope().idle());
            assert!(s.power <= gt.envelope().peak() + Watts::new(1e-9));
        }
    }

    #[test]
    fn quadratic_power_scaling() {
        let gt = GroundTruth::new(PlatformKind::XeonE52620, WorkloadKind::Swaptions).unwrap();
        let ladder = FrequencyLadder::for_platform(PlatformKind::XeonE52620);
        let set = power_state_set(&gt, &ladder);
        // The 40%-frequency state draws idle + 0.16·span.
        let expected = gt.envelope().idle() + gt.envelope().dynamic() * 0.16;
        assert!(set.states()[1].power.approx_eq(expected, Watts::new(0.5)));
    }
}
