//! Forecasting methods.
//!
//! All methods implement the [`Forecaster`] trait. A method supplies one
//! values-only fit, [`Forecaster::predict`]: given a history series and a
//! horizon, a [`Prediction`] with one value per future step. The provided
//! [`Forecaster::forecast`] wraps that fit into a [`Forecast`] carrying the
//! in-sample MASE of a [`holdout_mase`] backtest, which Chamulteon's
//! conflict resolution uses as the *trust* measure for proactive
//! decisions. A forecast therefore costs exactly two fits: one on the
//! full history and one on the holdout prefix.

mod ar;
mod naive;
mod smoothing;
mod theta;

pub use ar::ArForecaster;
pub use naive::{DriftForecaster, MeanForecaster, NaiveForecaster, SeasonalNaiveForecaster};
pub use smoothing::{HoltForecaster, HoltWintersForecaster, SesForecaster};
pub use theta::ThetaForecaster;

use crate::accuracy::mase;
use crate::error::ForecastError;
use crate::series::TimeSeries;

/// A multi-step-ahead forecast produced by a [`Forecaster`].
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    method: String,
    values: Vec<f64>,
    in_sample_mase: Option<f64>,
}

/// Clamps predictions to valid arrival rates: negative values become zero
/// and non-finite values zero.
fn clamp_rates(values: Vec<f64>) -> Vec<f64> {
    values
        .into_iter()
        .map(|v| if v.is_finite() { v.max(0.0) } else { 0.0 })
        .collect()
}

/// Checks a forecast request — a non-zero horizon and at least `need`
/// observations — and returns the history's values.
pub(crate) fn checked(
    history: &TimeSeries,
    horizon: usize,
    need: usize,
) -> Result<&[f64], ForecastError> {
    if horizon == 0 {
        return Err(ForecastError::EmptyHorizon);
    }
    if history.len() < need {
        return Err(ForecastError::TooShort {
            have: history.len(),
            need,
        });
    }
    Ok(history.values())
}

/// The values of one model fit, before any backtest.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    values: Vec<f64>,
    season: usize,
}

impl Prediction {
    /// Creates a prediction, clamping the values like [`Forecast::new`].
    /// `season` is the season length the holdout MASE of this fit is
    /// scaled at (1 for non-seasonal methods).
    pub fn new(values: Vec<f64>, season: usize) -> Self {
        Prediction {
            values: clamp_rates(values),
            season,
        }
    }

    /// The predicted values, one per future step.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl Forecast {
    /// Creates a forecast result. Negative predictions are clamped to zero
    /// — arrival rates cannot be negative.
    pub fn new(method: impl Into<String>, values: Vec<f64>, in_sample_mase: Option<f64>) -> Self {
        Forecast {
            method: method.into(),
            values: clamp_rates(values),
            in_sample_mase,
        }
    }

    /// Name of the method that produced this forecast.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The predicted values, one per future step.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The predicted value at step `h` (0-based), if within the horizon.
    pub fn value_at(&self, h: usize) -> Option<f64> {
        self.values.get(h).copied()
    }

    /// In-sample one-step MASE from a holdout backtest, when the method
    /// computed one. Lower is better; below 1 beats the naive forecast.
    pub fn in_sample_mase(&self) -> Option<f64> {
        self.in_sample_mase
    }
}

/// A forecasting method.
///
/// The trait is object-safe so heterogeneous collections of methods can be
/// evaluated side by side (the forecast-method ablation bench does this).
pub trait Forecaster {
    /// A short human-readable name, e.g. `"holt-winters"`.
    fn name(&self) -> &str;

    /// Fits the method once and produces `horizon` predictions following
    /// the end of `history`, without a backtest.
    ///
    /// # Errors
    ///
    /// Implementations return [`ForecastError::TooShort`] when the history
    /// cannot support the method and [`ForecastError::EmptyHorizon`] for a
    /// zero horizon.
    fn predict(&self, history: &TimeSeries, horizon: usize) -> Result<Prediction, ForecastError>;

    /// Produces `horizon` predictions following the end of `history`, with
    /// the in-sample MASE of a [`holdout_mase`] backtest.
    ///
    /// # Errors
    ///
    /// The errors of [`Forecaster::predict`] on the full history.
    fn forecast(&self, history: &TimeSeries, horizon: usize) -> Result<Forecast, ForecastError> {
        let Prediction { values, season } = self.predict(history, horizon)?;
        let mase = holdout_mase(self, history, season);
        Ok(Forecast::new(self.name(), values, mase))
    }
}

/// Backtests a forecaster on the tail of `history`: the last
/// `max(1, len/5)` observations are held out, the method is fit once on the
/// rest with [`Forecaster::predict`] and its holdout MASE (scaled at
/// `season`) is returned. The fit on the prefix is values-only, so a
/// backtest never recurses into further backtests.
///
/// Returns `None` when the history is too short to split or the method
/// fails on the shortened series.
pub fn holdout_mase<F: Forecaster + ?Sized>(
    forecaster: &F,
    history: &TimeSeries,
    season: usize,
) -> Option<f64> {
    let n = history.len();
    if n < 8 {
        return None;
    }
    let holdout = (n / 5).max(1).min(n / 2);
    let (train, test) = history.split_at(n - holdout);
    let fit = forecaster.predict(&train, holdout).ok()?;
    let m = mase(train.values(), test.values(), fit.values(), season.max(1));
    if m.is_nan() {
        None
    } else {
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_clamps_negative_and_nonfinite() {
        let fc = Forecast::new("test", vec![-1.0, 2.0, f64::NAN, f64::INFINITY], None);
        assert_eq!(fc.values(), &[0.0, 2.0, 0.0, 0.0]);
        assert_eq!(fc.method(), "test");
        assert_eq!(fc.value_at(1), Some(2.0));
        assert_eq!(fc.value_at(9), None);
    }

    #[test]
    fn holdout_mase_perfect_method_scores_zero() {
        // A "method" that predicts the exact linear continuation of a line
        // scores zero error on a linear series.
        struct Oracle;
        impl Forecaster for Oracle {
            fn name(&self) -> &str {
                "oracle"
            }
            fn predict(
                &self,
                history: &TimeSeries,
                horizon: usize,
            ) -> Result<Prediction, ForecastError> {
                let last = history.last().unwrap_or(0.0);
                let values = (1..=horizon).map(|h| last + h as f64).collect();
                Ok(Prediction::new(values, 1))
            }
        }
        let line: Vec<f64> = (0..40).map(f64::from).collect();
        let ts = TimeSeries::from_values(1.0, line).unwrap();
        let m = holdout_mase(&Oracle, &ts, 1).unwrap();
        assert!(m < 1e-9);
    }

    #[test]
    fn holdout_mase_too_short_returns_none() {
        let ts = TimeSeries::from_values(1.0, vec![1.0, 2.0, 3.0]).unwrap();
        assert!(holdout_mase(&NaiveForecaster, &ts, 1).is_none());
    }

    #[test]
    fn forecaster_trait_is_object_safe() {
        let methods: Vec<Box<dyn Forecaster>> = vec![
            Box::new(NaiveForecaster),
            Box::new(MeanForecaster::default()),
        ];
        let ts = TimeSeries::from_values(1.0, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        for m in &methods {
            assert!(m.forecast(&ts, 2).is_ok());
        }
    }
}
