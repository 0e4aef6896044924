//! Recursive Feature Elimination (§4.2).
//!
//! "Given an external estimator that assigns weights to features (e.g., a
//! linear regression model) the goal of RFE is to select features by
//! recursively considering smaller and smaller sets of features. First,
//! the estimator is trained on the initial set of features, and weights
//! are assigned to each one of them. Then, features whose absolute weights
//! are the smallest are pruned from the current set of features. This
//! procedure is recursively repeated on the pruned set until the desired
//! number of features to select is eventually reached."

use crate::ols::{FitError, LinearRegression};

/// The result of an RFE run: the surviving feature indices (in original
/// column order) and a model fitted on exactly those features.
#[derive(Debug, Clone, PartialEq)]
pub struct RecursiveFeatureElimination {
    selected: Vec<usize>,
    model: LinearRegression,
}

impl RecursiveFeatureElimination {
    /// Runs RFE down to `keep` features, removing `step` features per
    /// round (at least one; never past `keep`).
    ///
    /// # Errors
    ///
    /// Propagates [`FitError`] from the underlying regressions; also
    /// rejects `keep == 0` or `keep` exceeding the feature count as
    /// [`FitError::ShapeMismatch`].
    pub fn fit(x: &[Vec<f64>], y: &[f64], keep: usize, step: usize) -> Result<Self, FitError> {
        if x.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        let p = x[0].len();
        if keep == 0 || keep > p {
            return Err(FitError::ShapeMismatch);
        }
        let step = step.max(1);

        let mut remaining: Vec<usize> = (0..p).collect();
        loop {
            let sub: Vec<Vec<f64>> = x
                .iter()
                .map(|row| remaining.iter().map(|&j| row[j]).collect())
                .collect();
            let model = LinearRegression::fit(&sub, y)?;
            if remaining.len() == keep {
                return Ok(RecursiveFeatureElimination {
                    selected: remaining,
                    model,
                });
            }
            // Rank by |standardized weight| ascending; drop the weakest.
            let weights = model.standardized_coefficients();
            let mut ranked: Vec<(usize, f64)> = weights
                .iter()
                .enumerate()
                .map(|(k, w)| (k, w.abs()))
                .collect();
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
            let drop_count = step.min(remaining.len() - keep);
            let mut to_drop: Vec<usize> = ranked[..drop_count].iter().map(|(k, _)| *k).collect();
            to_drop.sort_unstable_by(|a, b| b.cmp(a));
            for k in to_drop {
                remaining.remove(k);
            }
        }
    }

    /// The selected feature indices, in original column order.
    #[must_use]
    pub fn selected_features(&self) -> &[usize] {
        &self.selected
    }

    /// Projects a full feature row onto the selected features.
    #[must_use]
    fn project(&self, features: &[f64]) -> Vec<f64> {
        self.selected.iter().map(|&j| features[j]).collect()
    }

    /// Predicts from a *full* feature row (projection + model).
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.model.predict(&self.project(features))
    }

    /// Predicts many full feature rows.
    #[must_use]
    pub fn predict_many(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;
    use margins_rng::Rng;

    /// y depends on features 2 and 5; the other 8 are noise.
    fn noisy_dataset(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = (0..10).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let target = 5.0 * row[2] - 3.0 * row[5] + 0.01 * rng.range_f64(-1.0, 1.0);
            x.push(row);
            y.push(target);
        }
        (x, y)
    }

    #[test]
    fn rfe_finds_the_informative_features() {
        let (x, y) = noisy_dataset(200, 1);
        let rfe = RecursiveFeatureElimination::fit(&x, &y, 2, 1).unwrap();
        assert_eq!(rfe.selected_features(), &[2, 5]);
    }

    #[test]
    fn rfe_with_larger_steps_matches() {
        let (x, y) = noisy_dataset(200, 2);
        let rfe = RecursiveFeatureElimination::fit(&x, &y, 2, 3).unwrap();
        assert_eq!(rfe.selected_features(), &[2, 5]);
    }

    #[test]
    fn reduced_model_predicts_well_from_full_rows() {
        let (x, y) = noisy_dataset(150, 3);
        let rfe = RecursiveFeatureElimination::fit(&x, &y, 2, 1).unwrap();
        let pred = rfe.predict_many(&x);
        assert!(r2_score(&y, &pred) > 0.99);
    }

    #[test]
    fn keep_equals_p_is_a_plain_fit() {
        let (x, y) = noisy_dataset(50, 4);
        let rfe = RecursiveFeatureElimination::fit(&x, &y, 10, 1).unwrap();
        assert_eq!(rfe.selected_features().len(), 10);
    }

    #[test]
    fn invalid_keep_is_rejected() {
        let (x, y) = noisy_dataset(20, 5);
        assert!(RecursiveFeatureElimination::fit(&x, &y, 0, 1).is_err());
        assert!(RecursiveFeatureElimination::fit(&x, &y, 11, 1).is_err());
        assert!(RecursiveFeatureElimination::fit(&[], &[], 1, 1).is_err());
    }

    #[test]
    fn selection_is_order_preserving() {
        let (x, y) = noisy_dataset(120, 6);
        let rfe = RecursiveFeatureElimination::fit(&x, &y, 4, 1).unwrap();
        let s = rfe.selected_features();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
