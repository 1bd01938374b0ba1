//! Strongly-typed physical quantities and identifiers used across GreenHetero.
//!
//! The controller juggles watts, watt-hours, ratios, frequencies, and
//! throughput values, often in the same expression. Mixing those up is the
//! classic source of silent bugs in power-management code, so each quantity
//! gets its own newtype ([C-NEWTYPE]). All newtypes are `Copy`, ordered,
//! hashable where meaningful, and implement only the arithmetic that is
//! dimensionally sound (e.g. `Watts * SimDuration = WattHours`, but there
//! is no `Watts + Ratio`).
//!
//! # Examples
//!
//! ```
//! use greenhetero_core::types::{Watts, SimDuration};
//!
//! let rack_draw = Watts::new(850.0);
//! let epoch = SimDuration::from_minutes(15);
//! let energy = rack_draw * epoch;
//! assert!((energy.value() - 212.5).abs() < 1e-9); // 850 W for 1/4 h
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::error::CoreError;

/// Electrical power in watts.
///
/// `Watts` is a signed quantity: positive values are draws/supplies and the
/// sign convention of a particular flow (e.g. battery charge vs. discharge)
/// is documented at its use site. Constructors reject non-finite values.
///
/// # Examples
///
/// ```
/// use greenhetero_core::types::Watts;
///
/// let idle = Watts::new(88.0);
/// let peak = Watts::new(178.0);
/// assert_eq!(peak - idle, Watts::new(90.0));
/// assert!(peak > idle);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// Creates a power value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite; power readings and budgets are
    /// always finite in this system and a non-finite value indicates a
    /// logic error upstream.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "power must be finite, got {value}");
        Watts(value)
    }

    /// Creates a power value, returning an error on non-finite or negative
    /// input. Use this at validation boundaries (config parsing, trace I/O).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidQuantity`] if `value` is not a finite,
    /// non-negative number.
    pub fn try_non_negative(value: f64) -> Result<Self, CoreError> {
        if value.is_finite() && value >= 0.0 {
            Ok(Watts(value))
        } else {
            Err(CoreError::InvalidQuantity {
                quantity: "watts",
                value,
            })
        }
    }

    /// The raw value in watts.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// `true` if the value is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Clamps to the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: Watts, hi: Watts) -> Watts {
        assert!(lo <= hi, "clamp range inverted: {lo} > {hi}");
        Watts(self.0.clamp(lo.0, hi.0))
    }

    /// Element-wise minimum.
    #[must_use]
    pub fn min(self, other: Watts) -> Watts {
        Watts(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[must_use]
    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }

    /// Saturating subtraction: `max(self - other, 0)`.
    ///
    /// Convenient for "remaining budget" computations that must not go
    /// negative.
    #[must_use]
    pub fn saturating_sub(self, other: Watts) -> Watts {
        Watts((self.0 - other.0).max(0.0))
    }

    /// Returns `max(self, 0)`.
    #[must_use]
    pub fn non_negative(self) -> Watts {
        Watts(self.0.max(0.0))
    }

    /// Absolute difference between two powers.
    #[must_use]
    pub fn abs_diff(self, other: Watts) -> Watts {
        Watts((self.0 - other.0).abs())
    }

    /// `true` if `self` is within `tolerance` of `other`.
    #[must_use]
    pub fn approx_eq(self, other: Watts, tolerance: Watts) -> bool {
        self.abs_diff(other) <= tolerance
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} W", self.0)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl SubAssign for Watts {
    fn sub_assign(&mut self, rhs: Watts) {
        self.0 -= rhs.0;
    }
}

impl Neg for Watts {
    type Output = Watts;
    fn neg(self) -> Watts {
        Watts(-self.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Mul<Ratio> for Watts {
    type Output = Watts;
    fn mul(self, rhs: Ratio) -> Watts {
        Watts(self.0 * rhs.value())
    }
}

impl Div<f64> for Watts {
    type Output = Watts;
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}

impl Div for Watts {
    /// Dividing two powers yields a dimensionless factor.
    type Output = f64;
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, Add::add)
    }
}

impl Mul<SimDuration> for Watts {
    type Output = WattHours;
    fn mul(self, rhs: SimDuration) -> WattHours {
        WattHours(self.0 * rhs.as_hours())
    }
}

/// Electrical energy in watt-hours.
///
/// Produced by integrating [`Watts`] over a [`SimDuration`]; consumed mainly
/// by the battery model and the grid cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct WattHours(f64);

impl WattHours {
    /// Zero energy.
    pub const ZERO: WattHours = WattHours(0.0);

    /// Creates an energy value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "energy must be finite, got {value}");
        WattHours(value)
    }

    /// The raw value in watt-hours.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Kilowatt-hours view of the same energy.
    #[must_use]
    pub fn as_kilowatt_hours(self) -> f64 {
        self.0 / 1000.0
    }

    /// Element-wise minimum.
    #[must_use]
    pub fn min(self, other: WattHours) -> WattHours {
        WattHours(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[must_use]
    pub fn max(self, other: WattHours) -> WattHours {
        WattHours(self.0.max(other.0))
    }

    /// Saturating subtraction: `max(self - other, 0)`.
    #[must_use]
    pub fn saturating_sub(self, other: WattHours) -> WattHours {
        WattHours((self.0 - other.0).max(0.0))
    }

    /// Clamps to the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: WattHours, hi: WattHours) -> WattHours {
        assert!(lo <= hi, "clamp range inverted");
        WattHours(self.0.clamp(lo.0, hi.0))
    }

    /// Average power that would drain this energy over `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    #[must_use]
    pub fn over(self, duration: SimDuration) -> Watts {
        assert!(!duration.is_zero(), "cannot spread energy over zero time");
        Watts(self.0 / duration.as_hours())
    }
}

impl fmt::Display for WattHours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} Wh", self.0)
    }
}

impl Add for WattHours {
    type Output = WattHours;
    fn add(self, rhs: WattHours) -> WattHours {
        WattHours(self.0 + rhs.0)
    }
}

impl AddAssign for WattHours {
    fn add_assign(&mut self, rhs: WattHours) {
        self.0 += rhs.0;
    }
}

impl Sub for WattHours {
    type Output = WattHours;
    fn sub(self, rhs: WattHours) -> WattHours {
        WattHours(self.0 - rhs.0)
    }
}

impl SubAssign for WattHours {
    fn sub_assign(&mut self, rhs: WattHours) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for WattHours {
    type Output = WattHours;
    fn mul(self, rhs: f64) -> WattHours {
        WattHours(self.0 * rhs)
    }
}

impl Div for WattHours {
    type Output = f64;
    fn div(self, rhs: WattHours) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for WattHours {
    fn sum<I: Iterator<Item = WattHours>>(iter: I) -> WattHours {
        iter.fold(WattHours::ZERO, Add::add)
    }
}

/// A dimensionless fraction guaranteed to lie in `[0, 1]`.
///
/// Used for power-allocation ratios (the paper's η, γ, δ), battery state of
/// charge, efficiencies, and depth-of-discharge limits.
///
/// # Examples
///
/// ```
/// use greenhetero_core::types::Ratio;
///
/// let par = Ratio::new(0.65)?;
/// assert_eq!(par.value(), 0.65);
/// assert!(Ratio::new(1.2).is_err());
/// assert_eq!(Ratio::saturating(1.2), Ratio::ONE);
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Ratio(f64);

impl Ratio {
    /// The ratio 0.
    pub const ZERO: Ratio = Ratio(0.0);
    /// The ratio 1.
    pub const ONE: Ratio = Ratio(1.0);
    /// One half — the uniform split between two parties.
    pub const HALF: Ratio = Ratio(0.5);

    /// Creates a ratio, validating the `[0, 1]` range.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidQuantity`] if `value` is not finite or
    /// lies outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Self, CoreError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Ratio(value))
        } else {
            Err(CoreError::InvalidQuantity {
                quantity: "ratio",
                value,
            })
        }
    }

    /// Creates a ratio by clamping `value` into `[0, 1]` (NaN maps to 0).
    #[must_use]
    pub fn saturating(value: f64) -> Self {
        if value.is_nan() {
            Ratio(0.0)
        } else {
            Ratio(value.clamp(0.0, 1.0))
        }
    }

    /// The raw fraction.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The complementary ratio `1 - self`.
    #[must_use]
    pub fn complement(self) -> Ratio {
        Ratio(1.0 - self.0)
    }

    /// `true` if the value is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Presents the ratio as a percentage in `[0, 100]`.
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Builds a ratio from a percentage, clamping into `[0, 100]`.
    #[must_use]
    pub fn from_percent(percent: f64) -> Ratio {
        Ratio::saturating(percent / 100.0)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 * rhs.0)
    }
}

/// Processor (or accelerator) clock frequency in megahertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MegaHertz(f64);

impl MegaHertz {
    /// Creates a frequency.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite or is negative.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "frequency must be finite and non-negative, got {value}"
        );
        MegaHertz(value)
    }

    /// Convenience constructor from gigahertz.
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Self {
        MegaHertz::new(ghz * 1000.0)
    }

    /// The raw value in MHz.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Fraction of `max` that this frequency represents, clamped to `[0,1]`.
    #[must_use]
    pub fn fraction_of(self, max: MegaHertz) -> Ratio {
        if max.0 <= 0.0 {
            Ratio::ZERO
        } else {
            Ratio::saturating(self.0 / max.0)
        }
    }
}

impl fmt::Display for MegaHertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.2} GHz", self.0 / 1000.0)
        } else {
            write!(f, "{:.0} MHz", self.0)
        }
    }
}

/// Workload throughput in the workload's native metric (jops, rps, ips, …).
///
/// The controller treats throughput as a unitless "goodness" to maximize;
/// the metric name travels with the workload description, not the number.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Throughput(f64);

impl Throughput {
    /// Zero throughput.
    pub const ZERO: Throughput = Throughput(0.0);

    /// Creates a throughput value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "throughput must be finite, got {value}");
        Throughput(value)
    }

    /// The raw value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns `max(self, 0)` — negative fitted projections are treated as
    /// "no useful work".
    #[must_use]
    pub fn non_negative(self) -> Throughput {
        Throughput(self.0.max(0.0))
    }

    /// Element-wise maximum.
    #[must_use]
    pub fn max(self, other: Throughput) -> Throughput {
        Throughput(self.0.max(other.0))
    }

    /// Element-wise minimum.
    #[must_use]
    pub fn min(self, other: Throughput) -> Throughput {
        Throughput(self.0.min(other.0))
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} ops/s", self.0)
    }
}

impl Add for Throughput {
    type Output = Throughput;
    fn add(self, rhs: Throughput) -> Throughput {
        Throughput(self.0 + rhs.0)
    }
}

impl AddAssign for Throughput {
    fn add_assign(&mut self, rhs: Throughput) {
        self.0 += rhs.0;
    }
}

impl Sub for Throughput {
    type Output = Throughput;
    fn sub(self, rhs: Throughput) -> Throughput {
        Throughput(self.0 - rhs.0)
    }
}

impl Mul<f64> for Throughput {
    type Output = Throughput;
    fn mul(self, rhs: f64) -> Throughput {
        Throughput(self.0 * rhs)
    }
}

impl Div for Throughput {
    type Output = f64;
    fn div(self, rhs: Throughput) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Throughput {
    fn sum<I: Iterator<Item = Throughput>>(iter: I) -> Throughput {
        iter.fold(Throughput::ZERO, Add::add)
    }
}

/// A point in simulated time, measured in whole seconds since the start of
/// the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation origin (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from seconds since the origin.
    #[must_use]
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates a time from hours since the origin.
    #[must_use]
    pub fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3600)
    }

    /// Seconds since the origin.
    #[must_use]
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Fractional hours since the origin.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Hour-of-day in `[0, 24)`, useful for diurnal models.
    #[must_use]
    pub fn hour_of_day(self) -> f64 {
        (self.0 % 86_400) as f64 / 3600.0
    }

    /// Zero-based day index since the origin.
    #[must_use]
    pub fn day(self) -> u64 {
        self.0 / 86_400
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = self.0 / 3600;
        let m = (self.0 % 3600) / 60;
        let s = self.0 % 60;
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

/// A span of simulated time in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from seconds.
    #[must_use]
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration from minutes.
    #[must_use]
    pub fn from_minutes(minutes: u64) -> Self {
        SimDuration(minutes * 60)
    }

    /// Creates a duration from hours.
    #[must_use]
    pub fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600)
    }

    /// The span in seconds.
    #[must_use]
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// The span in fractional hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// `true` if the span is empty.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Number of whole `chunk`s contained in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    #[must_use]
    pub fn div_chunks(self, chunk: SimDuration) -> u64 {
        assert!(!chunk.is_zero(), "chunk must be non-zero");
        self.0 / chunk.0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(3600) {
            write!(f, "{} h", self.0 / 3600)
        } else if self.0.is_multiple_of(60) {
            write!(f, "{} min", self.0 / 60)
        } else {
            write!(f, "{} s", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a raw index.
            #[must_use]
            pub fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// The raw index.
            #[must_use]
            pub fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }
    };
}

id_newtype!(
    /// Identifies one server *configuration* (a platform model such as
    /// "Xeon E5-2620"), the first half of the database key.
    ConfigId
);

id_newtype!(
    /// Identifies one workload type (e.g. "SPECjbb"), the second half of the
    /// database key.
    WorkloadId
);

id_newtype!(
    /// Identifies an individual server within a rack.
    ServerId
);

/// Identifies one scheduling epoch (the paper uses 15-minute epochs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EpochId(u64);

impl EpochId {
    /// The first epoch.
    pub const FIRST: EpochId = EpochId(0);

    /// Creates an epoch id from a raw index.
    #[must_use]
    pub fn new(raw: u64) -> Self {
        EpochId(raw)
    }

    /// The raw index.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The epoch after this one.
    #[must_use]
    pub fn next(self) -> EpochId {
        EpochId(self.0 + 1)
    }

    /// Start time of this epoch given the epoch length.
    #[must_use]
    pub fn start_time(self, epoch_len: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 * epoch_len.as_secs())
    }
}

impl fmt::Display for EpochId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// The operating power envelope of a server: nothing useful happens below
/// `idle`, and nothing more happens above `peak`.
///
/// The paper's solver semantics (§IV-B3): allocations below idle yield zero
/// performance; allocations above peak yield the peak performance with the
/// excess wasted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerRange {
    idle: Watts,
    peak: Watts,
}

impl PowerRange {
    /// Creates a power range.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPowerRange`] if `idle` is negative or
    /// `peak < idle`.
    pub fn new(idle: Watts, peak: Watts) -> Result<Self, CoreError> {
        if idle.value() < 0.0 || peak < idle {
            return Err(CoreError::InvalidPowerRange {
                idle: idle.value(),
                peak: peak.value(),
            });
        }
        Ok(PowerRange { idle, peak })
    }

    /// The idle (minimum productive) power.
    #[must_use]
    pub fn idle(self) -> Watts {
        self.idle
    }

    /// The peak (maximum useful) power.
    #[must_use]
    pub fn peak(self) -> Watts {
        self.peak
    }

    /// Width of the dynamic range (`peak - idle`).
    #[must_use]
    pub fn dynamic(self) -> Watts {
        self.peak - self.idle
    }

    /// `true` if `power` lies within `[idle, peak]`.
    #[must_use]
    pub fn contains(self, power: Watts) -> bool {
        self.idle <= power && power <= self.peak
    }

    /// Clamps `power` into `[idle, peak]`.
    #[must_use]
    pub fn clamp(self, power: Watts) -> Watts {
        power.clamp(self.idle, self.peak)
    }

    /// Scales both endpoints by `factor` (used when a workload only ever
    /// draws a fraction of nameplate peak power).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scale_peak(self, factor: f64) -> PowerRange {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        let peak = (self.peak * factor).max(self.idle);
        PowerRange {
            idle: self.idle,
            peak,
        }
    }
}

impl fmt::Display for PowerRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.idle, self.peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_arithmetic() {
        let a = Watts::new(100.0);
        let b = Watts::new(40.0);
        assert_eq!(a + b, Watts::new(140.0));
        assert_eq!(a - b, Watts::new(60.0));
        assert_eq!(a * 0.5, Watts::new(50.0));
        assert_eq!(a / 2.0, Watts::new(50.0));
        assert!((a / b - 2.5).abs() < 1e-12);
        assert_eq!(-a, Watts::new(-100.0));
    }

    #[test]
    fn watts_saturating_sub_never_negative() {
        assert_eq!(
            Watts::new(10.0).saturating_sub(Watts::new(30.0)),
            Watts::ZERO
        );
        assert_eq!(
            Watts::new(30.0).saturating_sub(Watts::new(10.0)),
            Watts::new(20.0)
        );
    }

    #[test]
    fn watts_sum_and_helpers() {
        let total: Watts = [1.0, 2.0, 3.5].into_iter().map(Watts::new).sum();
        assert_eq!(total, Watts::new(6.5));
        assert_eq!(Watts::new(5.0).min(Watts::new(3.0)), Watts::new(3.0));
        assert_eq!(Watts::new(5.0).max(Watts::new(3.0)), Watts::new(5.0));
        assert!(Watts::new(5.0).approx_eq(Watts::new(5.05), Watts::new(0.1)));
        assert!(!Watts::new(5.0).approx_eq(Watts::new(5.2), Watts::new(0.1)));
    }

    #[test]
    #[should_panic(expected = "power must be finite")]
    fn watts_rejects_nan() {
        let _ = Watts::new(f64::NAN);
    }

    #[test]
    fn watts_try_non_negative() {
        assert!(Watts::try_non_negative(1.0).is_ok());
        assert!(Watts::try_non_negative(0.0).is_ok());
        assert!(Watts::try_non_negative(-0.1).is_err());
        assert!(Watts::try_non_negative(f64::INFINITY).is_err());
    }

    #[test]
    fn energy_from_power_times_time() {
        let e = Watts::new(200.0) * SimDuration::from_minutes(30);
        assert!((e.value() - 100.0).abs() < 1e-9);
        let p = e.over(SimDuration::from_hours(2));
        assert!((p.value() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn energy_kwh_view() {
        assert!((WattHours::new(12_000.0).as_kilowatt_hours() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_validation() {
        assert!(Ratio::new(0.0).is_ok());
        assert!(Ratio::new(1.0).is_ok());
        assert!(Ratio::new(-0.01).is_err());
        assert!(Ratio::new(1.01).is_err());
        assert!(Ratio::new(f64::NAN).is_err());
    }

    #[test]
    fn ratio_saturating_clamps() {
        assert_eq!(Ratio::saturating(-3.0), Ratio::ZERO);
        assert_eq!(Ratio::saturating(7.0), Ratio::ONE);
        assert_eq!(Ratio::saturating(f64::NAN), Ratio::ZERO);
        assert_eq!(Ratio::saturating(0.5), Ratio::HALF);
    }

    #[test]
    fn ratio_complement_and_percent() {
        let r = Ratio::new(0.65).unwrap();
        assert!((r.complement().value() - 0.35).abs() < 1e-12);
        assert!((r.as_percent() - 65.0).abs() < 1e-12);
        assert_eq!(Ratio::from_percent(65.0), r);
    }

    #[test]
    fn watts_times_ratio() {
        let p = Watts::new(220.0) * Ratio::new(0.65).unwrap();
        assert!((p.value() - 143.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_fraction() {
        let f = MegaHertz::from_ghz(1.0);
        let fmax = MegaHertz::from_ghz(2.0);
        assert!((f.fraction_of(fmax).value() - 0.5).abs() < 1e-12);
        assert_eq!(f.fraction_of(MegaHertz::new(0.0)), Ratio::ZERO);
    }

    #[test]
    fn sim_time_day_and_hour() {
        let t = SimTime::from_secs(86_400 + 3 * 3600 + 1800);
        assert_eq!(t.day(), 1);
        assert!((t.hour_of_day() - 3.5).abs() < 1e-12);
        assert_eq!(format!("{t}"), "27:30:00");
    }

    #[test]
    fn sim_time_duration_since_saturates() {
        let a = SimTime::from_secs(100);
        let b = SimTime::from_secs(300);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(200));
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_chunks() {
        let epoch = SimDuration::from_minutes(15);
        assert_eq!(SimDuration::from_hours(24).div_chunks(epoch), 96);
    }

    #[test]
    fn epoch_id_start_time() {
        let e = EpochId::new(4);
        assert_eq!(
            e.start_time(SimDuration::from_minutes(15)),
            SimTime::from_secs(3600)
        );
        assert_eq!(e.next(), EpochId::new(5));
    }

    #[test]
    fn power_range_validation() {
        assert!(PowerRange::new(Watts::new(88.0), Watts::new(178.0)).is_ok());
        assert!(PowerRange::new(Watts::new(100.0), Watts::new(50.0)).is_err());
        assert!(PowerRange::new(Watts::new(-1.0), Watts::new(50.0)).is_err());
    }

    #[test]
    fn power_range_clamp_and_contains() {
        let r = PowerRange::new(Watts::new(50.0), Watts::new(100.0)).unwrap();
        assert!(r.contains(Watts::new(75.0)));
        assert!(!r.contains(Watts::new(49.0)));
        assert_eq!(r.clamp(Watts::new(200.0)), Watts::new(100.0));
        assert_eq!(r.clamp(Watts::new(10.0)), Watts::new(50.0));
        assert_eq!(r.dynamic(), Watts::new(50.0));
    }

    #[test]
    fn power_range_scale_peak_never_below_idle() {
        let r = PowerRange::new(Watts::new(50.0), Watts::new(100.0)).unwrap();
        let scaled = r.scale_peak(0.1);
        assert_eq!(scaled.peak(), Watts::new(50.0));
        assert_eq!(scaled.idle(), Watts::new(50.0));
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(ConfigId::new(1) < ConfigId::new(2));
        assert_eq!(format!("{}", WorkloadId::new(3)), "WorkloadId#3");
        assert_eq!(ServerId::from(7).raw(), 7);
    }

    #[test]
    fn displays() {
        assert_eq!(format!("{}", Watts::new(81.0)), "81.0 W");
        assert_eq!(format!("{}", Ratio::new(0.5).unwrap()), "50.0%");
        assert_eq!(format!("{}", MegaHertz::from_ghz(3.7)), "3.70 GHz");
        assert_eq!(format!("{}", MegaHertz::new(800.0)), "800 MHz");
        assert_eq!(format!("{}", SimDuration::from_minutes(15)), "15 min");
        assert_eq!(format!("{}", SimDuration::from_hours(2)), "2 h");
        assert_eq!(format!("{}", SimDuration::from_secs(61)), "61 s");
    }
}
