//! The naïve baseline of §4.3: "we used as baseline model the naïve
//! prediction, which is the average of the target values (Vmin or severity)
//! of the samples of the training set."

/// The mean-of-training-targets predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveMean {
    mean: f64,
}

impl NaiveMean {
    /// Fits the baseline (computes the training-target mean).
    ///
    /// # Panics
    ///
    /// Panics on an empty training set.
    #[must_use]
    pub fn fit(y_train: &[f64]) -> Self {
        assert!(!y_train.is_empty(), "naive baseline needs training targets");
        NaiveMean {
            mean: y_train.iter().sum::<f64>() / y_train.len() as f64,
        }
    }

    /// Predictions for `n` samples (all identical).
    #[must_use]
    pub fn predict_many(&self, n: usize) -> Vec<f64> {
        vec![self.mean; n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_training_mean() {
        let m = NaiveMean::fit(&[1.0, 2.0, 3.0, 6.0]);
        assert_eq!(m.predict_many(3), vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn naive_r2_is_nonpositive_on_test_data() {
        // By construction the naive model explains no variance.
        let train = [1.0, 2.0, 3.0];
        let test = [0.0, 4.0];
        let m = NaiveMean::fit(&train);
        let r2 = crate::metrics::r2_score(&test, &m.predict_many(test.len()));
        assert!(r2 <= 0.0);
    }

    #[test]
    #[should_panic(expected = "training targets")]
    fn empty_training_panics() {
        let _ = NaiveMean::fit(&[]);
    }
}
