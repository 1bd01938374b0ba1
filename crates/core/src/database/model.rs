//! The performance projection `Perf = f(Power)` used by the solver.

use crate::database::fit::Quadratic;
use crate::types::{PowerRange, Throughput, Watts};

/// A per-(configuration, workload) performance projection.
///
/// Wraps a fitted [`Quadratic`] with the paper's §IV-B3 evaluation
/// semantics:
///
/// * allocations **below idle power** yield zero performance (the server
///   cannot even be powered);
/// * allocations **above peak power** yield the peak performance — extra
///   watts buy nothing;
/// * in between, the fitted curve is evaluated and floored at zero (a noisy
///   fit must never project negative throughput).
///
/// # Examples
///
/// ```
/// use greenhetero_core::database::{PerfModel, Quadratic};
/// use greenhetero_core::types::{PowerRange, Watts};
///
/// let range = PowerRange::new(Watts::new(47.0), Watts::new(81.0))?;
/// let model = PerfModel::new(Quadratic { l: -400.0, m: 20.0, n: -0.05 }, range);
/// assert_eq!(model.eval(Watts::new(30.0)).value(), 0.0);          // below idle
/// assert!(model.eval(Watts::new(81.0)) >= model.eval(Watts::new(60.0)));
/// assert_eq!(model.eval(Watts::new(200.0)), model.eval(Watts::new(81.0)));
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    curve: Quadratic,
    range: PowerRange,
}

impl PerfModel {
    /// Wraps a fitted curve with the server's productive power envelope.
    #[must_use]
    pub fn new(curve: Quadratic, range: PowerRange) -> Self {
        PerfModel { curve, range }
    }

    /// The underlying fitted quadratic.
    #[must_use]
    pub fn curve(&self) -> Quadratic {
        self.curve
    }

    /// The productive power envelope this model is valid over.
    #[must_use]
    pub fn range(&self) -> PowerRange {
        self.range
    }

    /// Projects the throughput achieved with `power` watts allocated.
    #[must_use]
    pub fn eval(&self, power: Watts) -> Throughput {
        if power < self.range.idle() {
            return Throughput::ZERO;
        }
        let effective = power.min(self.range.peak());
        Throughput::new(self.curve.eval(effective.value()).max(0.0))
    }

    /// The projected throughput at peak power — the best this
    /// (configuration, workload) pair can do.
    #[must_use]
    pub fn peak_throughput(&self) -> Throughput {
        self.eval(self.range.peak())
    }

    /// Energy efficiency at peak: throughput per watt when fully powered.
    ///
    /// This is the ordering key used by the `GreenHetero-p` policy
    /// ("allocate power to the server based on the order of energy
    /// efficiency").
    #[must_use]
    // greenhetero-lint: allow(GH002) throughput-per-watt has no newtype; used only for ordering
    pub fn peak_efficiency(&self) -> f64 {
        let peak = self.range.peak().value();
        if peak <= 0.0 {
            0.0
        } else {
            self.peak_throughput().value() / peak
        }
    }

    /// Marginal throughput per extra watt at `power`, clamped into the
    /// productive envelope. Zero outside it.
    #[must_use]
    // greenhetero-lint: allow(GH002) throughput-per-watt has no newtype; used only for ordering
    pub fn marginal(&self, power: Watts) -> f64 {
        if power < self.range.idle() || power > self.range.peak() {
            0.0
        } else {
            self.curve.derivative(power.value()).max(0.0)
        }
    }

    /// `true` if the fitted curve is monotone non-decreasing over the whole
    /// productive envelope — the physically sensible shape. A violated
    /// check signals a poor fit (e.g. noisy training samples).
    #[must_use]
    pub fn is_monotone_over_range(&self) -> bool {
        // A quadratic is monotone on an interval iff its derivative does not
        // change sign there; check the endpoints.
        self.curve.derivative(self.range.idle().value()) >= 0.0
            && self.curve.derivative(self.range.peak().value()) >= 0.0
    }

    /// A 64-bit digest of the model's exact parameter bits (curve
    /// coefficients plus the power envelope), used by the solver fast path
    /// to detect model drift between epochs without comparing five floats
    /// per group. Equal fingerprints mean bit-identical models; distinct
    /// models collide with probability ≈ 2⁻⁶⁴, and the allocation cache
    /// never trusts a fingerprint alone (it revalidates against the full
    /// problem before reuse).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the raw f64 bit patterns: deterministic across runs
        // and platforms, no hasher state to seed.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for bits in [
            self.curve.l.to_bits(),
            self.curve.m.to_bits(),
            self.curve.n.to_bits(),
            self.range.idle().value().to_bits(),
            self.range.peak().value().to_bits(),
        ] {
            for byte in bits.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }
}

#[cfg(test)]
// Tests compare results of exact literal arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn model() -> PerfModel {
        // Concave increasing over [47, 81]: f(p) = -400 + 20p − 0.05p²,
        // vertex at p = 200 (beyond peak), so monotone on the range.
        PerfModel::new(
            Quadratic {
                l: -400.0,
                m: 20.0,
                n: -0.05,
            },
            PowerRange::new(Watts::new(47.0), Watts::new(81.0)).unwrap(),
        )
    }

    #[test]
    fn below_idle_is_zero() {
        assert_eq!(model().eval(Watts::new(46.99)), Throughput::ZERO);
        assert_eq!(model().eval(Watts::ZERO), Throughput::ZERO);
    }

    #[test]
    fn at_idle_uses_curve() {
        let m = model();
        let expected = -400.0 + 20.0 * 47.0 - 0.05 * 47.0 * 47.0;
        assert!((m.eval(Watts::new(47.0)).value() - expected).abs() < 1e-9);
    }

    #[test]
    fn above_peak_saturates() {
        let m = model();
        assert_eq!(m.eval(Watts::new(81.0)), m.eval(Watts::new(500.0)));
        assert_eq!(m.peak_throughput(), m.eval(Watts::new(81.0)));
    }

    #[test]
    fn negative_projection_floors_to_zero() {
        // A fit whose curve dips negative near idle.
        let m = PerfModel::new(
            Quadratic {
                l: -10_000.0,
                m: 10.0,
                n: 0.0,
            },
            PowerRange::new(Watts::new(50.0), Watts::new(100.0)).unwrap(),
        );
        assert_eq!(m.eval(Watts::new(60.0)), Throughput::ZERO);
    }

    #[test]
    fn peak_efficiency_is_throughput_per_watt() {
        let m = model();
        let expected = m.peak_throughput().value() / 81.0;
        assert!((m.peak_efficiency() - expected).abs() < 1e-12);
    }

    #[test]
    fn marginal_zero_outside_range() {
        let m = model();
        assert_eq!(m.marginal(Watts::new(30.0)), 0.0);
        assert_eq!(m.marginal(Watts::new(100.0)), 0.0);
        assert!(m.marginal(Watts::new(60.0)) > 0.0);
    }

    #[test]
    fn fingerprint_tracks_parameter_bits() {
        let m = model();
        assert_eq!(m.fingerprint(), model().fingerprint());
        let nudged = PerfModel::new(
            Quadratic {
                l: -400.0,
                m: 20.0 + 1e-12,
                n: -0.05,
            },
            m.range(),
        );
        assert_ne!(m.fingerprint(), nudged.fingerprint());
        let wider = PerfModel::new(
            m.curve(),
            PowerRange::new(Watts::new(47.0), Watts::new(82.0)).unwrap(),
        );
        assert_ne!(m.fingerprint(), wider.fingerprint());
    }

    #[test]
    fn monotonicity_check() {
        assert!(model().is_monotone_over_range());
        let bad = PerfModel::new(
            Quadratic {
                l: 0.0,
                m: 10.0,
                n: -0.1, // vertex at 50, inside [40, 90] → not monotone
            },
            PowerRange::new(Watts::new(40.0), Watts::new(90.0)).unwrap(),
        );
        assert!(!bad.is_monotone_over_range());
    }
}
