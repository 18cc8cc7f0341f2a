//! Autoregressive AR(p) forecaster fit by conditional least squares.
//!
//! Telescope models the decomposition *remainder* with a short
//! autoregression; this is that component. The design matrix is tiny
//! (p ≤ ~10 columns), so a dense normal-equations solve is appropriate.

use super::{checked, Forecaster, Prediction};
use crate::error::ForecastError;
use crate::series::TimeSeries;
use crate::stats::{mean, solve_linear_system};

/// AR(p) forecaster: `y_t = c + Σ φ_i · y_{t−i} + ε_t`, fit by least
/// squares, iterated forward for multi-step forecasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArForecaster {
    /// Model order `p ≥ 1`.
    pub order: usize,
}

impl Default for ArForecaster {
    fn default() -> Self {
        ArForecaster { order: 3 }
    }
}

impl ArForecaster {
    /// Creates an AR forecaster of the given order.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidParameter`] for order 0.
    pub fn new(order: usize) -> Result<Self, ForecastError> {
        if order == 0 {
            return Err(ForecastError::InvalidParameter {
                name: "order",
                value: 0.0,
            });
        }
        Ok(ArForecaster { order })
    }

    /// Fits the coefficients `(c, φ_1..φ_p)` on the given values.
    /// Returns `None` when the normal equations are singular (e.g. constant
    /// series), in which case callers should fall back to the mean.
    fn fit(&self, values: &[f64]) -> Option<Vec<f64>> {
        let p = self.order;
        let rows = values.len().checked_sub(p)?;
        if rows < p + 1 {
            return None;
        }
        // Normal equations X'X beta = X'y with X = [1, y_{t-1}, ..., y_{t-p}].
        let dim = p + 1;
        let mut xtx = vec![vec![0.0; dim]; dim];
        let mut xty = vec![0.0; dim];
        for t in p..values.len() {
            // Row `t` of X: 1 for the intercept, then the lagged values.
            let x = |a: usize| if a == 0 { 1.0 } else { values[t - a] };
            let y = values[t];
            for (a, row) in xtx.iter_mut().enumerate() {
                xty[a] += x(a) * y;
                for (b, cell) in row.iter_mut().enumerate() {
                    *cell += x(a) * x(b);
                }
            }
        }
        solve_linear_system(xtx, xty)
    }
}

impl Forecaster for ArForecaster {
    fn name(&self) -> &str {
        "ar"
    }

    fn predict(&self, history: &TimeSeries, horizon: usize) -> Result<Prediction, ForecastError> {
        let values = checked(history, horizon, 2 * self.order + 1)?;
        let out = match self.fit(values) {
            Some(beta) => {
                let p = self.order;
                let mut window: Vec<f64> = values[values.len() - p..].to_vec();
                let mut out = Vec::with_capacity(horizon);
                // Keep iterated forecasts from exploding on marginally
                // unstable fits: clamp to a generous band around the
                // observed range.
                let hi = values.iter().cloned().fold(f64::MIN, f64::max);
                let lo = values.iter().cloned().fold(f64::MAX, f64::min);
                let span = (hi - lo).max(1.0);
                for _ in 0..horizon {
                    let mut pred = beta[0];
                    for i in 1..=p {
                        pred += beta[i] * window[window.len() - i];
                    }
                    pred = pred.clamp(lo - 2.0 * span, hi + 2.0 * span);
                    out.push(pred);
                    window.push(pred);
                }
                out
            }
            // Singular fit (constant series): predict the mean.
            None => vec![mean(values); horizon],
        };
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
    fn recovers_ar1_process() {
        // y_t = 2 + 0.8 y_{t-1}, deterministic (no noise) converges to 10;
        // start away from the fixed point so the regression has signal.
        let mut values = vec![0.0];
        for _ in 0..60 {
            let prev = *values.last().unwrap();
            values.push(2.0 + 0.8 * prev);
        }
        let model = ArForecaster::new(1).unwrap();
        let beta = model.fit(&values).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-6, "c = {}", beta[0]);
        assert!((beta[1] - 0.8).abs() < 1e-6, "phi = {}", beta[1]);
    }

    #[test]
    fn forecast_converges_to_fixed_point() {
        let mut values = vec![0.0];
        for _ in 0..60 {
            let prev = *values.last().unwrap();
            values.push(2.0 + 0.8 * prev);
        }
        let fc = ArForecaster::new(1)
            .unwrap()
            .forecast(&ts(values), 50)
            .unwrap();
        // Long-run forecast approaches 2 / (1 - 0.8) = 10.
        assert!((fc.values()[49] - 10.0).abs() < 0.5);
    }

    #[test]
    fn constant_series_falls_back_to_mean() {
        let fc = ArForecaster::default()
            .forecast(&ts(vec![7.0; 30]), 5)
            .unwrap();
        for &v in fc.values() {
            assert!((v - 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn recovers_ar2_coefficients() {
        // y_t = 1 + 0.5 y_{t-1} − 0.3 y_{t-2}, seeded off equilibrium so the
        // regressors are not collinear.
        let mut values = vec![10.0, -4.0];
        for t in 2..80 {
            let y = 1.0 + 0.5 * values[t - 1] - 0.3 * values[t - 2];
            values.push(y);
        }
        let model = ArForecaster::new(2).unwrap();
        let beta = model.fit(&values).unwrap();
        assert!((beta[0] - 1.0).abs() < 1e-6, "c = {}", beta[0]);
        assert!((beta[1] - 0.5).abs() < 1e-6, "phi1 = {}", beta[1]);
        assert!((beta[2] + 0.3).abs() < 1e-6, "phi2 = {}", beta[2]);
    }

    #[test]
    fn collinear_alternating_series_falls_back_gracefully() {
        // A pure two-level alternation makes [1, y_{t-1}, y_{t-2}] linearly
        // dependent; the fit must not produce garbage — either a singular
        // fallback to the mean or a finite prediction is acceptable.
        let values: Vec<f64> = (0..40)
            .map(|t| if t % 2 == 0 { 5.0 } else { 15.0 })
            .collect();
        let fc = ArForecaster::new(2)
            .unwrap()
            .forecast(&ts(values), 4)
            .unwrap();
        for &v in fc.values() {
            assert!(v.is_finite());
            assert!((0.0..=25.0).contains(&v));
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(ArForecaster::new(0).is_err());
        assert!(ArForecaster::new(3)
            .unwrap()
            .forecast(&ts(vec![1.0, 2.0, 3.0]), 1)
            .is_err());
        assert!(ArForecaster::default()
            .forecast(&ts((0..30).map(f64::from).collect()), 0)
            .is_err());
    }

    #[test]
    fn forecasts_never_explode() {
        // Near-unit-root data; iterated forecasts must stay within the clamp.
        let values: Vec<f64> = (0..50).map(|t| t as f64 * 3.0).collect();
        let fc = ArForecaster::new(4)
            .unwrap()
            .forecast(&ts(values), 100)
            .unwrap();
        for &v in fc.values() {
            assert!(v.is_finite());
            assert!(v <= 147.0 + 2.0 * 147.0 + 1.0);
        }
    }
}
