//! The Theta method (Assimakopoulos & Nikolopoulos 2000).
//!
//! Hyndman & Billah (2003) showed the classical Theta(0, 2) method is
//! equivalent to simple exponential smoothing with an added drift of half
//! the series' linear-regression slope — that formulation is implemented
//! here. Theta won the M3 competition and is the strongest *simple*
//! non-seasonal method in most comparisons, which makes it a valuable
//! reference point for the forecast ablation.

use super::{checked, Forecaster, Prediction};
use crate::error::ForecastError;
use crate::series::TimeSeries;
use crate::stats::linear_fit;

/// Theta(0, 2) forecaster: SES level plus half-slope drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaForecaster {
    /// SES smoothing factor `α ∈ (0, 1]`.
    pub alpha: f64,
}

impl Default for ThetaForecaster {
    fn default() -> Self {
        ThetaForecaster { alpha: 0.4 }
    }
}

impl ThetaForecaster {
    /// Creates a Theta forecaster with the given SES smoothing factor.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidParameter`] unless `0 < α ≤ 1`.
    pub fn new(alpha: f64) -> Result<Self, ForecastError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(ForecastError::InvalidParameter {
                name: "alpha",
                value: alpha,
            });
        }
        Ok(ThetaForecaster { alpha })
    }
}

impl Forecaster for ThetaForecaster {
    fn name(&self) -> &str {
        "theta"
    }

    fn predict(&self, history: &TimeSeries, horizon: usize) -> Result<Prediction, ForecastError> {
        let values = checked(history, horizon, 3)?;
        // Long-run drift: half the linear-regression slope.
        let (_, slope) = linear_fit(values);
        let drift = slope / 2.0;
        // Short-run level: SES over the raw series.
        let mut level = values[0];
        for &y in &values[1..] {
            level = self.alpha * y + (1.0 - self.alpha) * level;
        }
        let out = (1..=horizon).map(|h| level + drift * h as f64).collect();
        Ok(Prediction::new(out, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::from_values(1.0, values).unwrap()
    }

    #[test]
    fn constant_series_flat_forecast() {
        let fc = ThetaForecaster::default()
            .forecast(&ts(vec![5.0; 20]), 4)
            .unwrap();
        for &v in fc.values() {
            assert!((v - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_series_continues_at_half_slope() {
        let line: Vec<f64> = (0..40).map(|t| 10.0 + 2.0 * t as f64).collect();
        let fc = ThetaForecaster::new(0.9)
            .unwrap()
            .forecast(&ts(line), 10)
            .unwrap();
        // Drift is slope/2 = 1 per step.
        let d = fc.values()[9] - fc.values()[0];
        assert!((d - 9.0).abs() < 1e-9, "drift over 9 steps: {d}");
    }

    #[test]
    fn level_tracks_recent_values() {
        // Level shift: the SES level dominates the forecast start.
        let mut values = vec![10.0; 20];
        values.extend(vec![50.0; 20]);
        let fc = ThetaForecaster::default().forecast(&ts(values), 1).unwrap();
        assert!(
            fc.values()[0] > 40.0,
            "level should be near 50, got {}",
            fc.values()[0]
        );
    }

    #[test]
    fn validation() {
        assert!(ThetaForecaster::new(0.0).is_err());
        assert!(ThetaForecaster::new(1.5).is_err());
        assert!(ThetaForecaster::new(f64::NAN).is_err());
        assert!(ThetaForecaster::default()
            .forecast(&ts(vec![1.0, 2.0]), 1)
            .is_err());
        assert!(ThetaForecaster::default()
            .forecast(&ts(vec![1.0, 2.0, 3.0]), 0)
            .is_err());
    }

    #[test]
    fn nonnegative_output() {
        let falling: Vec<f64> = (0..30).map(|t| 30.0 - t as f64).collect();
        let fc = ThetaForecaster::default()
            .forecast(&ts(falling), 40)
            .unwrap();
        assert!(fc.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn reports_holdout_accuracy() {
        let values: Vec<f64> = (0..40).map(|t| 10.0 + t as f64).collect();
        let fc = ThetaForecaster::default().forecast(&ts(values), 5).unwrap();
        assert!(fc.in_sample_mase().is_some());
    }
}
