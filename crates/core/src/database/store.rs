//! The performance-power database (the paper's §IV-B2 "Database").
//!
//! Keyed by (server configuration, workload type), each entry holds the
//! profiling samples gathered so far and the quadratic [`PerfModel`] fitted
//! to them. Entries are created by a **training run** (the first time a
//! workload reaches a configuration, it executes with ample power while the
//! monitor records five 2-minute samples) and thereafter **updated online**
//! each epoch with the observed (power, performance) feedback
//! (Algorithm 1, lines 7–10).

use std::collections::BTreeMap;

use crate::database::fit::{fit_quadratic, FitResult};
use crate::database::model::PerfModel;
use crate::error::CoreError;
use crate::types::{ConfigId, PowerRange, SimTime, Throughput, Watts, WorkloadId};

/// One profiling observation: the power a server drew and the performance
/// it delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSample {
    /// Observed power draw.
    pub power: Watts,
    /// Observed throughput.
    pub perf: Throughput,
    /// When the sample was taken.
    pub at: SimTime,
}

impl ProfileSample {
    /// Creates a sample.
    #[must_use]
    pub fn new(power: Watts, perf: Throughput, at: SimTime) -> Self {
        ProfileSample { power, perf, at }
    }
}

/// A database entry: accumulated samples plus the current fitted model.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    samples: Vec<ProfileSample>,
    model: PerfModel,
    refits: usize,
    training_len: usize,
    /// Fit error of the original training run, the yardstick a refit is
    /// judged against (floored so a perfect fit doesn't make any later
    /// noise look divergent).
    baseline_rmse: f64,
    /// Consecutive refits whose error blew past the baseline.
    diverging_refits: u32,
    /// Set when refits diverged repeatedly: the model is no longer
    /// trusted and the pair should be retrained.
    quarantined: bool,
}

impl ProfileEntry {
    /// The current fitted performance projection.
    #[must_use]
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// All samples currently retained.
    #[must_use]
    pub fn samples(&self) -> &[ProfileSample] {
        &self.samples
    }

    /// How many times the model has been refitted since training.
    #[must_use]
    pub fn refit_count(&self) -> usize {
        self.refits
    }

    /// `true` once repeated divergent refits got this entry quarantined.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The standard deviation of the model's residuals over the retained
    /// samples, floored at [`RESIDUAL_SIGMA_FLOOR`] of the mean absolute
    /// throughput — the monitor's yardstick for spotting outlier feedback.
    #[must_use]
    pub fn residual_sigma(&self) -> Throughput {
        let n = self.samples.len() as f64;
        if n == 0.0 {
            return Throughput::ZERO;
        }
        let mut sq_sum = 0.0;
        let mut abs_sum = 0.0;
        for s in &self.samples {
            let residual = s.perf.value() - self.model.eval(s.power).value();
            sq_sum += residual * residual;
            abs_sum += s.perf.value().abs();
        }
        let rms = (sq_sum / n).sqrt();
        let floor = RESIDUAL_SIGMA_FLOOR * (abs_sum / n);
        Throughput::new(rms.max(floor))
    }
}

/// The performance-power database.
///
/// # Examples
///
/// ```
/// use greenhetero_core::database::{PerfDatabase, ProfileSample};
/// use greenhetero_core::types::*;
///
/// let mut db = PerfDatabase::new();
/// let (cfg, wl) = (ConfigId::new(0), WorkloadId::new(0));
/// let range = PowerRange::new(Watts::new(47.0), Watts::new(81.0))?;
/// assert!(!db.contains(cfg, wl)); // → Algorithm 1 would start a training run
///
/// let samples: Vec<ProfileSample> = [55.0, 62.0, 69.0, 75.0, 81.0]
///     .iter()
///     .enumerate()
///     .map(|(i, &p)| ProfileSample::new(
///         Watts::new(p),
///         Throughput::new(100.0 * p - 0.3 * p * p),
///         SimTime::from_secs(i as u64 * 120),
///     ))
///     .collect();
/// db.insert_training(cfg, wl, range, &samples)?;
/// let model = db.model(cfg, wl)?;
/// assert!(model.eval(Watts::new(81.0)) > model.eval(Watts::new(55.0)));
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PerfDatabase {
    // Ordered map on purpose: `iter()` feeds checkpoint/report paths, and a
    // hash map's seeded order would make those outputs differ across runs.
    entries: BTreeMap<(ConfigId, WorkloadId), ProfileEntry>,
    max_samples: usize,
}

/// Default cap on retained samples per entry: the 5 training samples plus
/// roughly a day of 15-minute epoch feedback.
const DEFAULT_MAX_SAMPLES: usize = 128;

/// A refit counts as divergent when its error exceeds this multiple of the
/// training baseline. Generous on purpose: ordinary monitor noise (≈1 %)
/// must never trip it, only a fit being dragged off the curve.
const DIVERGENCE_FACTOR: f64 = 8.0;

/// Consecutive divergent refits before an entry is quarantined.
const QUARANTINE_STRIKES: u32 = 3;

/// Residual-sigma floor as a fraction of the mean absolute throughput,
/// so a near-perfect training fit still tolerates realistic noise.
const RESIDUAL_SIGMA_FLOOR: f64 = 0.02;

impl PerfDatabase {
    /// Creates an empty database with the default sample-retention cap.
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_samples(DEFAULT_MAX_SAMPLES)
    }

    /// Creates an empty database retaining at most `max_samples` samples
    /// per (configuration, workload) entry. Older feedback samples are
    /// evicted first; training samples are kept as long as possible.
    ///
    /// # Panics
    ///
    /// Panics if `max_samples < 2` — a quadratic fit needs at least two
    /// points.
    #[must_use]
    pub fn with_max_samples(max_samples: usize) -> Self {
        assert!(max_samples >= 2, "max_samples must be at least 2");
        PerfDatabase {
            entries: BTreeMap::new(),
            max_samples,
        }
    }

    /// `true` if a *trusted* projection exists for this (configuration,
    /// workload) pair — Algorithm 1's `c & w == 0` check, inverted. A
    /// quarantined entry counts as missing, which is exactly what
    /// schedules its retraining run.
    #[must_use]
    pub fn contains(&self, config: ConfigId, workload: WorkloadId) -> bool {
        self.entries
            .get(&(config, workload))
            .is_some_and(|e| !e.quarantined)
    }

    /// Number of (configuration, workload) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of entries currently quarantined (awaiting retraining).
    #[must_use]
    pub fn quarantined_len(&self) -> usize {
        self.entries.values().filter(|e| e.quarantined).count()
    }

    /// `true` if the database has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the performance projection for a pair.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileMissing`] when no training run has been
    /// performed for the pair yet.
    pub fn model(&self, config: ConfigId, workload: WorkloadId) -> Result<&PerfModel, CoreError> {
        self.entries
            .get(&(config, workload))
            .map(ProfileEntry::model)
            .ok_or(CoreError::ProfileMissing { config, workload })
    }

    /// Full entry access (samples, refit count) for diagnostics.
    #[must_use]
    pub fn entry(&self, config: ConfigId, workload: WorkloadId) -> Option<&ProfileEntry> {
        self.entries.get(&(config, workload))
    }

    /// Inserts the samples of a completed training run and fits the initial
    /// projection (Algorithm 1, lines 4–5). Replaces any existing entry.
    ///
    /// `range` is the server's productive power envelope for this workload
    /// (idle power .. workload peak draw), which bounds the projection.
    ///
    /// # Errors
    ///
    /// Propagates fit errors: fewer than 2 samples, or degenerate samples.
    pub fn insert_training(
        &mut self,
        config: ConfigId,
        workload: WorkloadId,
        range: PowerRange,
        samples: &[ProfileSample],
    ) -> Result<FitResult, CoreError> {
        let fit = Self::fit(samples)?;
        let mean_abs_perf =
            samples.iter().map(|s| s.perf.value().abs()).sum::<f64>() / samples.len() as f64;
        self.entries.insert(
            (config, workload),
            ProfileEntry {
                samples: samples.to_vec(),
                model: PerfModel::new(fit.curve, range),
                refits: 0,
                training_len: samples.len(),
                baseline_rmse: fit.rmse.max(RESIDUAL_SIGMA_FLOOR * mean_abs_perf),
                diverging_refits: 0,
                quarantined: false,
            },
        );
        Ok(fit)
    }

    /// Records epoch feedback and refits the projection with both the new
    /// and old profiling data (Algorithm 1, lines 8–10).
    ///
    /// The `GreenHetero-a` policy simply never calls this, which is exactly
    /// the "without optimizations" ablation of Table III.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileMissing`] when the pair has no training
    /// entry or the entry is quarantined (a retraining run must replace it
    /// first), and propagates fit failures (the previous model is kept in
    /// that case).
    pub fn record_feedback(
        &mut self,
        config: ConfigId,
        workload: WorkloadId,
        sample: ProfileSample,
    ) -> Result<FitResult, CoreError> {
        let max_samples = self.max_samples;
        let entry = self
            .entries
            .get_mut(&(config, workload))
            .filter(|e| !e.quarantined)
            .ok_or(CoreError::ProfileMissing { config, workload })?;

        entry.samples.push(sample);
        // Evict the oldest *feedback* sample once over cap; training
        // samples anchor the low/high-power ends of the fit.
        if entry.samples.len() > max_samples {
            let first_feedback = entry.training_len.min(entry.samples.len() - 1);
            entry.samples.remove(first_feedback);
        }

        let fit = Self::fit(&entry.samples)?;
        entry.model = PerfModel::new(fit.curve, entry.model.range());
        entry.refits += 1;
        // Divergence watchdog: a refit drifting far above the training
        // baseline means the samples no longer describe one curve. Three
        // strikes quarantine the entry so the scheduler retrains it.
        if fit.rmse > DIVERGENCE_FACTOR * entry.baseline_rmse {
            entry.diverging_refits += 1;
            if entry.diverging_refits >= QUARANTINE_STRIKES {
                entry.quarantined = true;
            }
        } else {
            entry.diverging_refits = 0;
        }
        Ok(fit)
    }

    /// Iterates over all `((config, workload), entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&(ConfigId, WorkloadId), &ProfileEntry)> {
        self.entries.iter()
    }

    /// Inserts a pre-built entry verbatim, replacing any existing one —
    /// the copy-on-write adoption hook ([`CowDatabase`] clones a shared
    /// base entry into its private overlay the first time a rack writes
    /// to it).
    ///
    /// [`CowDatabase`]: crate::database::CowDatabase
    pub(crate) fn adopt_entry(
        &mut self,
        config: ConfigId,
        workload: WorkloadId,
        entry: ProfileEntry,
    ) {
        self.entries.insert((config, workload), entry);
    }

    fn fit(samples: &[ProfileSample]) -> Result<FitResult, CoreError> {
        let points: Vec<(f64, f64)> = samples
            .iter()
            .map(|s| (s.power.value(), s.perf.value()))
            .collect();
        fit_quadratic(&points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (ConfigId, WorkloadId) {
        (ConfigId::new(1), WorkloadId::new(2))
    }

    fn range() -> PowerRange {
        PowerRange::new(Watts::new(47.0), Watts::new(81.0)).unwrap()
    }

    fn training_samples() -> Vec<ProfileSample> {
        // Ground truth: perf = 40p − 0.2p² (concave increasing on [47, 81]).
        [50.0, 58.0, 66.0, 74.0, 81.0]
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(40.0 * p - 0.2 * p * p),
                    SimTime::from_secs(i as u64 * 120),
                )
            })
            .collect()
    }

    #[test]
    fn missing_entry_reports_profile_missing() {
        let db = PerfDatabase::new();
        let (c, w) = ids();
        assert!(!db.contains(c, w));
        assert_eq!(
            db.model(c, w).unwrap_err(),
            CoreError::ProfileMissing {
                config: c,
                workload: w
            }
        );
    }

    #[test]
    fn training_run_creates_usable_model() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        let fit = db
            .insert_training(c, w, range(), &training_samples())
            .unwrap();
        assert!(fit.rmse < 1e-6);
        assert!(db.contains(c, w));
        assert_eq!(db.len(), 1);
        let m = db.model(c, w).unwrap();
        // Recovers the ground truth closely.
        assert!((m.curve().m - 40.0).abs() < 1e-5);
        assert!((m.curve().n + 0.2).abs() < 1e-7);
    }

    #[test]
    fn feedback_refits_and_counts() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        let s = ProfileSample::new(
            Watts::new(70.0),
            Throughput::new(40.0 * 70.0 - 0.2 * 70.0 * 70.0),
            SimTime::from_secs(900),
        );
        db.record_feedback(c, w, s).unwrap();
        let entry = db.entry(c, w).unwrap();
        assert_eq!(entry.refit_count(), 1);
        assert_eq!(entry.samples().len(), 6);
    }

    #[test]
    fn feedback_without_training_errors() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        let s = ProfileSample::new(Watts::new(60.0), Throughput::new(10.0), SimTime::ZERO);
        assert!(matches!(
            db.record_feedback(c, w, s),
            Err(CoreError::ProfileMissing { .. })
        ));
    }

    #[test]
    fn feedback_improves_a_biased_initial_fit() {
        // Train with samples only from a narrow power band, then feed
        // feedback across the full band: the refit model should project the
        // peak more accurately.
        let truth = |p: f64| 40.0 * p - 0.2 * p * p;
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        // Narrow, noisy training band near idle.
        let narrow: Vec<ProfileSample> = [48.0, 50.0, 52.0, 54.0, 56.0]
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let noise = if i % 2 == 0 { 30.0 } else { -30.0 };
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(truth(p) + noise),
                    SimTime::from_secs(i as u64 * 120),
                )
            })
            .collect();
        db.insert_training(c, w, range(), &narrow).unwrap();
        let err_before =
            (db.model(c, w).unwrap().eval(Watts::new(81.0)).value() - truth(81.0)).abs();
        for (i, p) in [60.0, 66.0, 72.0, 78.0, 81.0].iter().enumerate() {
            db.record_feedback(
                c,
                w,
                ProfileSample::new(
                    Watts::new(*p),
                    Throughput::new(truth(*p)),
                    SimTime::from_secs(1000 + i as u64 * 900),
                ),
            )
            .unwrap();
        }
        let err_after =
            (db.model(c, w).unwrap().eval(Watts::new(81.0)).value() - truth(81.0)).abs();
        assert!(
            err_after < err_before,
            "refit should improve peak projection: before {err_before}, after {err_after}"
        );
    }

    #[test]
    fn sample_cap_evicts_feedback_not_training() {
        let mut db = PerfDatabase::with_max_samples(7);
        let (c, w) = ids();
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        for i in 0u32..10 {
            let p = 50.0 + f64::from(i) * 3.0;
            db.record_feedback(
                c,
                w,
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(40.0 * p - 0.2 * p * p),
                    SimTime::from_secs(1000 + u64::from(i)),
                ),
            )
            .unwrap();
        }
        let entry = db.entry(c, w).unwrap();
        assert_eq!(entry.samples().len(), 7);
        // The five training samples survive at the front.
        for (s, t) in entry.samples().iter().take(5).zip(training_samples()) {
            assert_eq!(s.power, t.power);
        }
    }

    #[test]
    #[should_panic(expected = "max_samples must be at least 2")]
    fn tiny_cap_panics() {
        let _ = PerfDatabase::with_max_samples(1);
    }

    #[test]
    fn divergent_refits_quarantine_the_entry() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        // Wildly inconsistent feedback: alternating ±2000 around the curve
        // drags every refit far past the divergence threshold.
        let mut strikes = 0;
        for i in 0u32..10 {
            let p = 55.0 + f64::from(i) * 2.0;
            let noise = if i % 2 == 0 { 2000.0 } else { -2000.0 };
            let s = ProfileSample::new(
                Watts::new(p),
                Throughput::new(40.0 * p - 0.2 * p * p + noise),
                SimTime::from_secs(1000 + u64::from(i) * 900),
            );
            match db.record_feedback(c, w, s) {
                Ok(_) => strikes += 1,
                Err(CoreError::ProfileMissing { .. }) => break,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert_eq!(strikes, 3, "quarantine should trip on the third strike");
        let entry = db.entry(c, w).unwrap();
        assert!(entry.is_quarantined());
        // A quarantined pair reads as missing → Algorithm 1 retrains it.
        assert!(!db.contains(c, w));
        assert_eq!(db.quarantined_len(), 1);
        let s = ProfileSample::new(Watts::new(60.0), Throughput::new(1000.0), SimTime::ZERO);
        assert!(matches!(
            db.record_feedback(c, w, s),
            Err(CoreError::ProfileMissing { .. })
        ));
        // Retraining replaces the entry and clears the quarantine.
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        assert!(db.contains(c, w));
        assert_eq!(db.quarantined_len(), 0);
    }

    #[test]
    fn consistent_feedback_never_quarantines() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        // Realistic 1 % monitor noise must never look divergent.
        for i in 0u32..50 {
            let p = 50.0 + f64::from(i % 11) * 3.0;
            let truth = 40.0 * p - 0.2 * p * p;
            let noise = truth * 0.01 * if i % 2 == 0 { 1.0 } else { -1.0 };
            db.record_feedback(
                c,
                w,
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(truth + noise),
                    SimTime::from_secs(1000 + u64::from(i) * 900),
                ),
            )
            .unwrap();
        }
        assert!(db.contains(c, w));
        assert_eq!(db.quarantined_len(), 0);
    }

    #[test]
    fn residual_sigma_tracks_scatter() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        // A perfect fit still reports the floor, not zero.
        let sigma = db.entry(c, w).unwrap().residual_sigma();
        assert!(sigma.value() > 0.0);
    }

    #[test]
    fn iter_visits_all_entries() {
        let mut db = PerfDatabase::new();
        db.insert_training(
            ConfigId::new(0),
            WorkloadId::new(0),
            range(),
            &training_samples(),
        )
        .unwrap();
        db.insert_training(
            ConfigId::new(1),
            WorkloadId::new(0),
            range(),
            &training_samples(),
        )
        .unwrap();
        assert_eq!(db.iter().count(), 2);
    }
}
