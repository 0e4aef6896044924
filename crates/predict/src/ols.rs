//! Ordinary least squares with feature standardization.
//!
//! "Assuming a set of x1, x2, …, xN independent variables and y the
//! dependent variable, the classical linear regression model … is based on
//! the Ordinary Least Squares (OLS) model." (§4)
//!
//! Features are standardized (zero mean, unit variance) before solving the
//! normal equations; constant columns are dropped (their weight is zero by
//! construction). A small ridge term on the standardized Gram diagonal
//! keeps rank-deficient systems solvable — the Vmin study fits 101
//! features from 40 samples, where plain OLS is underdetermined — and
//! bounds the coefficients of collinear counter pairs so RFE's importance
//! ranking stays meaningful.

use crate::linalg::Matrix;
use std::fmt;

/// Relative ridge added to the standardized Gram diagonal.
///
/// Real counter files contain strongly collinear (sometimes identical)
/// event pairs; with a vanishing ridge the normal equations assign huge
/// cancelling coefficients to such pairs, which poisons RFE's
/// importance ranking. A 1e-4 relative ridge bounds coefficients on
/// collinear clusters while biasing well-conditioned problems negligibly.
const RIDGE: f64 = 1e-4;

/// Error returned by [`LinearRegression::fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// No samples were provided.
    EmptyDataset,
    /// Feature rows have inconsistent lengths, or targets don't match.
    ShapeMismatch,
    /// The normal equations could not be solved even with the ridge term.
    Singular,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::EmptyDataset => f.write_str("cannot fit on an empty dataset"),
            FitError::ShapeMismatch => f.write_str("feature/target shapes are inconsistent"),
            FitError::Singular => f.write_str("normal equations are singular"),
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted linear model `ŷ = β₀ + Σ βⱼ·xⱼ`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    /// Per-feature coefficients in *original* (unstandardized) units.
    coefficients: Vec<f64>,
    /// Intercept in original units.
    intercept: f64,
    /// Coefficients in standardized units (used for RFE ranking).
    standardized_coefficients: Vec<f64>,
}

impl LinearRegression {
    /// Fits the model to `x` (rows of features) and targets `y`.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] for empty/ragged inputs or a singular system.
    pub fn fit(x: &[Vec<f64>], y: &[f64]) -> Result<Self, FitError> {
        if x.is_empty() || y.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        if x.len() != y.len() {
            return Err(FitError::ShapeMismatch);
        }
        let p = x[0].len();
        if p == 0 || x.iter().any(|row| row.len() != p) {
            return Err(FitError::ShapeMismatch);
        }
        let n = x.len();

        // Standardize features; remember constant columns.
        let mut means = vec![0.0; p];
        let mut stds = vec![0.0; p];
        for j in 0..p {
            let mean = x.iter().map(|r| r[j]).sum::<f64>() / n as f64;
            let var = x.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n as f64;
            means[j] = mean;
            stds[j] = var.sqrt();
        }
        let active: Vec<usize> = (0..p).filter(|&j| stds[j] > 1e-300).collect();
        let y_mean = y.iter().sum::<f64>() / n as f64;

        if active.is_empty() {
            // All features constant: the model is just the mean.
            return Ok(LinearRegression {
                coefficients: vec![0.0; p],
                intercept: y_mean,
                standardized_coefficients: vec![0.0; p],
            });
        }

        let rows: Vec<Vec<f64>> = x
            .iter()
            .map(|r| {
                active
                    .iter()
                    .map(|&j| (r[j] - means[j]) / stds[j])
                    .collect()
            })
            .collect();
        let xm = Matrix::from_rows(&rows);
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        let mut gram = xm.gram();
        gram.add_diagonal(RIDGE * n as f64);
        let xty = xm.transpose_mul_vec(&yc);
        let beta_std = gram.solve(&xty).ok_or(FitError::Singular)?;

        // Back-transform to original units.
        let mut coefficients = vec![0.0; p];
        let mut standardized = vec![0.0; p];
        let mut intercept = y_mean;
        for (k, &j) in active.iter().enumerate() {
            standardized[j] = beta_std[k];
            coefficients[j] = beta_std[k] / stds[j];
            intercept -= coefficients[j] * means[j];
        }
        Ok(LinearRegression {
            coefficients,
            intercept,
            standardized_coefficients: standardized,
        })
    }

    /// Predicts a single sample.
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from the fitted model.
    #[must_use]
    pub(crate) fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.coefficients.len(),
            "feature count mismatch"
        );
        self.intercept
            + features
                .iter()
                .zip(&self.coefficients)
                .map(|(x, b)| x * b)
                .sum::<f64>()
    }

    /// Predicts many samples.
    #[must_use]
    pub fn predict_many(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict(r)).collect()
    }

    /// Coefficients in standardized units — comparable across features;
    /// this is the importance RFE ranks by.
    #[must_use]
    pub(crate) fn standardized_coefficients(&self) -> &[f64] {
        &self.standardized_coefficients
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relationship() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![f64::from(i), f64::from((i * 7) % 11)])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 4.0 * r[0] - 2.5 * r[1] + 7.0).collect();
        let m = LinearRegression::fit(&x, &y).unwrap();
        // The small ridge biases coefficients by O(RIDGE).
        assert!((m.coefficients[0] - 4.0).abs() < 1e-2);
        assert!((m.coefficients[1] + 2.5).abs() < 1e-2);
        assert!((m.intercept - 7.0).abs() < 0.1);
    }

    #[test]
    fn constant_feature_gets_zero_weight() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i), 3.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + 1.0).collect();
        let m = LinearRegression::fit(&x, &y).unwrap();
        assert_eq!(m.coefficients[1], 0.0);
        assert!((m.predict(&[10.0, 3.0]) - 21.0).abs() < 0.05);
    }

    #[test]
    fn all_constant_features_predict_the_mean() {
        let x = vec![vec![1.0], vec![1.0], vec![1.0]];
        let y = vec![2.0, 4.0, 6.0];
        let m = LinearRegression::fit(&x, &y).unwrap();
        assert_eq!(m.predict(&[1.0]), 4.0);
    }

    #[test]
    fn underdetermined_fit_is_still_usable() {
        // 5 samples, 10 features: the ridge keeps it solvable and the model
        // still interpolates the training data well.
        let x: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..10).map(|j| f64::from(i * j + i + 1)).collect())
            .collect();
        let y = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let m = LinearRegression::fit(&x, &y).unwrap();
        let pred = m.predict_many(&x);
        let rmse = crate::metrics::rmse(&y, &pred);
        assert!(rmse < 0.5, "train rmse {rmse}");
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            LinearRegression::fit(&[], &[]).unwrap_err(),
            FitError::EmptyDataset
        );
        assert_eq!(
            LinearRegression::fit(&[vec![1.0]], &[1.0, 2.0]).unwrap_err(),
            FitError::ShapeMismatch
        );
        assert_eq!(
            LinearRegression::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0]).unwrap_err(),
            FitError::ShapeMismatch
        );
    }

    #[test]
    fn standardized_coefficients_rank_importance() {
        // x0 drives y 10× harder than x1 (in standardized terms).
        let x: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let a = f64::from(i % 7);
                let b = f64::from(i % 5);
                vec![a, b]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 10.0 * r[0] + r[1]).collect();
        let m = LinearRegression::fit(&x, &y).unwrap();
        let s = m.standardized_coefficients();
        assert!(s[0].abs() > 5.0 * s[1].abs());
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_checks_shape() {
        let m = LinearRegression::fit(&[vec![1.0], vec![2.0]], &[1.0, 2.0]).unwrap();
        let _ = m.predict(&[1.0, 2.0]);
    }
}
