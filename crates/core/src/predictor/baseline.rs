//! Baseline predictors for the prediction ablation.
//!
//! The paper selects Holt smoothing but notes any proven method can plug
//! in. These two simple baselines let experiments quantify how much the
//! trend-aware predictor actually buys (see `ablation_predictor` in the
//! bench crate).

use std::collections::VecDeque;

use crate::error::CoreError;
use crate::predictor::Predictor;

/// Predicts that the next value equals the last observed value
/// (the "naive" or persistence forecast).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LastValue {
    last: Option<f64>,
    count: usize,
}

impl LastValue {
    /// Creates an empty persistence predictor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Predictor for LastValue {
    fn observe(&mut self, value: f64) {
        self.last = Some(value);
        self.count += 1;
    }

    fn predict(&self) -> Result<f64, CoreError> {
        self.last.ok_or(CoreError::NoObservations)
    }

    fn len(&self) -> usize {
        self.count
    }
}

/// Predicts the mean of the most recent `window` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct MovingAverage {
    window: usize,
    buffer: VecDeque<f64>,
    count: usize,
}

impl MovingAverage {
    /// Creates a moving-average predictor over the last `window` values.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `window` is zero.
    pub fn new(window: usize) -> Result<Self, CoreError> {
        if window == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "moving-average window must be at least 1".to_string(),
            });
        }
        Ok(MovingAverage {
            window,
            buffer: VecDeque::with_capacity(window),
            count: 0,
        })
    }

    /// The configured window size.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Predictor for MovingAverage {
    fn observe(&mut self, value: f64) {
        if self.buffer.len() == self.window {
            self.buffer.pop_front();
        }
        self.buffer.push_back(value);
        self.count += 1;
    }

    fn predict(&self) -> Result<f64, CoreError> {
        if self.buffer.is_empty() {
            return Err(CoreError::NoObservations);
        }
        Ok(self.buffer.iter().sum::<f64>() / self.buffer.len() as f64)
    }

    fn len(&self) -> usize {
        self.count
    }
}

/// Predicts the value observed one season (e.g. one day of epochs) ago —
/// the natural baseline for strongly diurnal series like solar output.
/// Falls back to the last observed value until a full season has passed.
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalNaive {
    period: usize,
    history: VecDeque<f64>,
    count: usize,
}

impl SeasonalNaive {
    /// Creates a seasonal-naive predictor with the given period (e.g. 96
    /// for 15-minute epochs over a 24-hour season).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `period` is zero.
    pub fn new(period: usize) -> Result<Self, CoreError> {
        if period == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "seasonal period must be at least 1".to_string(),
            });
        }
        Ok(SeasonalNaive {
            period,
            history: VecDeque::with_capacity(period),
            count: 0,
        })
    }

    /// The configured season length.
    #[must_use]
    pub fn period(&self) -> usize {
        self.period
    }
}

impl Predictor for SeasonalNaive {
    fn observe(&mut self, value: f64) {
        if self.history.len() == self.period {
            self.history.pop_front();
        }
        self.history.push_back(value);
        self.count += 1;
    }

    fn predict(&self) -> Result<f64, CoreError> {
        // With a full season buffered, the front is exactly one period
        // back from the next epoch; otherwise fall back to persistence.
        let sample = if self.history.len() == self.period {
            self.history.front()
        } else {
            self.history.back()
        };
        sample.copied().ok_or(CoreError::NoObservations)
    }

    fn len(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
// Tests compare results of exact literal arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn last_value_tracks_most_recent() {
        let mut p = LastValue::new();
        assert!(p.predict().is_err());
        p.observe(5.0);
        p.observe(9.0);
        assert_eq!(p.predict().unwrap(), 9.0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn moving_average_rejects_zero_window() {
        assert!(MovingAverage::new(0).is_err());
    }

    #[test]
    fn moving_average_slides() {
        let mut p = MovingAverage::new(3).unwrap();
        assert!(p.predict().is_err());
        for v in [1.0, 2.0, 3.0, 4.0] {
            p.observe(v);
        }
        // Window holds [2, 3, 4].
        assert!((p.predict().unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(p.len(), 4);
        assert_eq!(p.window(), 3);
    }

    #[test]
    fn moving_average_partial_window() {
        let mut p = MovingAverage::new(10).unwrap();
        p.observe(4.0);
        p.observe(6.0);
        assert!((p.predict().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn seasonal_naive_rejects_zero_period() {
        assert!(SeasonalNaive::new(0).is_err());
    }

    #[test]
    fn seasonal_naive_predicts_one_period_back() {
        let mut p = SeasonalNaive::new(4).unwrap();
        assert!(p.predict().is_err());
        for v in [10.0, 20.0, 30.0, 40.0] {
            p.observe(v);
        }
        // Next epoch corresponds to position 0 of the season: 10.
        assert_eq!(p.predict().unwrap(), 10.0);
        p.observe(11.0); // season slot 0, second pass
        assert_eq!(p.predict().unwrap(), 20.0);
        assert_eq!(p.len(), 5);
        assert_eq!(p.period(), 4);
    }

    #[test]
    fn seasonal_naive_falls_back_to_persistence_early() {
        let mut p = SeasonalNaive::new(96).unwrap();
        p.observe(7.0);
        p.observe(9.0);
        assert_eq!(p.predict().unwrap(), 9.0);
    }

    #[test]
    fn seasonal_naive_nails_a_perfectly_periodic_series() {
        let season: Vec<f64> = (0..8).map(|i| f64::from(i) * 5.0).collect();
        let mut p = SeasonalNaive::new(8).unwrap();
        // One full warm-up season, then two scored seasons.
        let mut sse = 0.0;
        let mut scored = 0;
        for rep in 0..3 {
            for &v in &season {
                if rep > 0 {
                    let d = p.predict().unwrap() - v;
                    sse += d * d;
                    scored += 1;
                }
                p.observe(v);
            }
        }
        assert_eq!(scored, 16);
        assert_eq!(sse, 0.0);
    }
}
