//! The simple reference forecasters: naive, seasonal naive, drift, mean.

use super::{checked, Forecaster, Prediction};
use crate::error::ForecastError;
use crate::series::TimeSeries;
use crate::stats::mean;

/// Repeats the last observation: `ŷ_{t+h} = y_t`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaiveForecaster;

impl Forecaster for NaiveForecaster {
    fn name(&self) -> &str {
        "naive"
    }

    fn predict(&self, history: &TimeSeries, horizon: usize) -> Result<Prediction, ForecastError> {
        let values = checked(history, horizon, 1)?;
        Ok(Prediction::new(vec![values[values.len() - 1]; horizon], 1))
    }
}

/// Repeats the last full season: `ŷ_{t+h} = y_{t+h−m}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeasonalNaiveForecaster {
    /// Season length in observations (≥ 1).
    pub period: usize,
}

impl SeasonalNaiveForecaster {
    /// Creates a seasonal-naive forecaster for the given season length.
    pub fn new(period: usize) -> Self {
        SeasonalNaiveForecaster {
            period: period.max(1),
        }
    }
}

impl Forecaster for SeasonalNaiveForecaster {
    fn name(&self) -> &str {
        "seasonal-naive"
    }

    fn predict(&self, history: &TimeSeries, horizon: usize) -> Result<Prediction, ForecastError> {
        let values = checked(history, horizon, self.period)?;
        let n = values.len();
        let out: Vec<f64> = (0..horizon)
            .map(|h| values[n - self.period + (h % self.period)])
            .collect();
        Ok(Prediction::new(out, self.period))
    }
}

/// Extrapolates the line through the first and last observation:
/// `ŷ_{t+h} = y_t + h·(y_t − y_1)/(t − 1)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftForecaster;

impl Forecaster for DriftForecaster {
    fn name(&self) -> &str {
        "drift"
    }

    fn predict(&self, history: &TimeSeries, horizon: usize) -> Result<Prediction, ForecastError> {
        let values = checked(history, horizon, 2)?;
        let n = values.len();
        let slope = (values[n - 1] - values[0]) / (n - 1) as f64;
        let last = values[n - 1];
        let out = (1..=horizon).map(|h| last + slope * h as f64).collect();
        Ok(Prediction::new(out, 1))
    }
}

/// Predicts the mean of a trailing window (the whole series by default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeanForecaster {
    /// If set, only the last `window` observations are averaged.
    pub window: Option<usize>,
}

impl MeanForecaster {
    /// Mean of the entire history.
    pub fn new() -> Self {
        MeanForecaster { window: None }
    }

    /// Mean of the last `window` observations.
    pub fn with_window(window: usize) -> Self {
        MeanForecaster {
            window: Some(window.max(1)),
        }
    }
}

impl Forecaster for MeanForecaster {
    fn name(&self) -> &str {
        "mean"
    }

    fn predict(&self, history: &TimeSeries, horizon: usize) -> Result<Prediction, ForecastError> {
        let values = checked(history, horizon, 1)?;
        let window = self.window.unwrap_or(values.len()).min(values.len());
        let level = mean(&values[values.len() - window..]);
        Ok(Prediction::new(vec![level; horizon], 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::from_values(1.0, values).unwrap()
    }

    #[test]
    fn naive_repeats_last() {
        let fc = NaiveForecaster
            .forecast(&ts(vec![1.0, 5.0, 3.0]), 4)
            .unwrap();
        assert_eq!(fc.values(), &[3.0; 4]);
    }

    #[test]
    fn naive_rejects_empty_history_and_horizon() {
        assert!(NaiveForecaster.forecast(&ts(vec![]), 1).is_err());
        assert!(NaiveForecaster.forecast(&ts(vec![1.0]), 0).is_err());
    }

    #[test]
    fn seasonal_naive_repeats_season() {
        let fc = SeasonalNaiveForecaster::new(3)
            .forecast(&ts(vec![9.0, 9.0, 9.0, 1.0, 2.0, 3.0]), 5)
            .unwrap();
        assert_eq!(fc.values(), &[1.0, 2.0, 3.0, 1.0, 2.0]);
    }

    #[test]
    fn seasonal_naive_needs_full_season() {
        assert!(SeasonalNaiveForecaster::new(5)
            .forecast(&ts(vec![1.0, 2.0]), 1)
            .is_err());
    }

    #[test]
    fn seasonal_naive_period_zero_clamped_to_one() {
        let f = SeasonalNaiveForecaster::new(0);
        assert_eq!(f.period, 1);
        let fc = f.forecast(&ts(vec![1.0, 2.0]), 2).unwrap();
        assert_eq!(fc.values(), &[2.0, 2.0]);
    }

    #[test]
    fn drift_extrapolates_line() {
        let fc = DriftForecaster
            .forecast(&ts(vec![0.0, 1.0, 2.0, 3.0]), 3)
            .unwrap();
        assert_eq!(fc.values(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn drift_clamps_negative_projection() {
        // Strong downward drift runs into the zero clamp.
        let fc = DriftForecaster
            .forecast(&ts(vec![10.0, 5.0, 0.0]), 2)
            .unwrap();
        assert_eq!(fc.values(), &[0.0, 0.0]);
    }

    #[test]
    fn mean_uses_window() {
        let history = ts(vec![100.0, 100.0, 1.0, 3.0]);
        let all = MeanForecaster::new().forecast(&history, 1).unwrap();
        assert_eq!(all.values(), &[51.0]);
        let windowed = MeanForecaster::with_window(2)
            .forecast(&history, 1)
            .unwrap();
        assert_eq!(windowed.values(), &[2.0]);
    }

    #[test]
    fn mean_window_larger_than_history_is_fine() {
        let fc = MeanForecaster::with_window(100)
            .forecast(&ts(vec![2.0, 4.0]), 1)
            .unwrap();
        assert_eq!(fc.values(), &[3.0]);
    }

    #[test]
    fn in_sample_mase_populated_on_long_series() {
        let values: Vec<f64> = (0..40).map(|t| (t % 7) as f64).collect();
        let fc = SeasonalNaiveForecaster::new(7)
            .forecast(&ts(values), 3)
            .unwrap();
        assert!(fc.in_sample_mase().is_some());
        // A perfectly periodic series is predicted exactly.
        assert_eq!(fc.in_sample_mase().unwrap(), 0.0);
    }
}
