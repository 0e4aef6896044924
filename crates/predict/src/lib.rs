//! From-scratch statistical learning for the §4 prediction study: ordinary
//! least squares on standardized features, recursive feature elimination
//! (RFE), R²/RMSE metrics, seeded train/test splitting and the naïve
//! mean-of-training-targets baseline the paper compares against.
//!
//! The paper's analysis (§4) uses scikit-learn's linear regression and RFE;
//! this crate reimplements both so the whole reproduction is dependency
//! free:
//!
//! * `linalg` — a small dense matrix with Gaussian elimination,
//! * [`ols`] — [`ols::LinearRegression`] with feature standardization and a
//!   vanishing ridge term for rank-deficient systems (n < p happens in the
//!   Vmin study: 40 samples × 101 counters),
//! * [`rfe`] — recursive elimination down to the paper's five features,
//! * [`metrics`] — R² ("can be 0 … or even negative") and RMSE,
//! * [`split`] — seeded 80/20 shuffled splits (§4.3),
//! * [`naive`] — the baseline predictor.
//!
//! # Example
//!
//! ```
//! use margins_predict::ols::LinearRegression;
//! use margins_predict::metrics::{r2_score, rmse};
//!
//! // y = 2·x0 − 3·x1 + 1, exactly.
//! let x: Vec<Vec<f64>> = (0..20)
//!     .map(|i| vec![f64::from(i), f64::from(i % 5)])
//!     .collect();
//! let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] - 3.0 * r[1] + 1.0).collect();
//! let model = LinearRegression::fit(&x, &y).unwrap();
//! let pred = model.predict_many(&x);
//! assert!(r2_score(&y, &pred) > 0.999);
//! assert!(rmse(&y, &pred) < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The determinism lints of Cargo.toml bind library code only.
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::disallowed_types,
        clippy::disallowed_methods
    )
)]

mod linalg;
pub mod metrics;
pub mod naive;
pub mod ols;
pub mod rfe;
pub mod split;

pub use metrics::{r2_score, rmse};
pub use naive::NaiveMean;
pub use ols::LinearRegression;
pub use rfe::RecursiveFeatureElimination;
pub use split::train_test_split;
