//! Energy/performance tradeoff analysis — §5 of the paper.
//!
//! The X-Gene 2 has a *single* voltage domain for all four PMDs but
//! *per-PMD* frequencies. System software therefore:
//!
//! 1. sets the shared rail to the **maximum** safe Vmin across everything
//!    currently scheduled ("the predictor sets the voltage according to the
//!    workload run on the most sensitive PMD"),
//! 2. can **assign tasks to robust cores first** to lower that maximum
//!    ([`schedule`]),
//! 3. can **drop weak PMDs to 1.2 GHz**, whose divided clock regime is safe
//!    down to 760 mV, trading their performance for a deeper shared rail —
//!    the staircase of Figure 9 ([`tradeoff`]).
//!
//! [`model`] holds the relative power/performance laws behind the paper's
//! numbers (12.8% / 19.4% / 38.8% / 69.9% savings); [`vmin`] holds the
//! per-(core, workload) safe-voltage table feeding the [`governor`]; and
//! [`predictor`] is the §4.4 online flow — a trained severity model
//! answering "how low may the rail go for this workload under this
//! severity budget?".
//!
//! # Example
//!
//! ```
//! use margins_energy::model::undervolt_savings;
//! use margins_sim::Millivolts;
//!
//! // §5: undervolting to 915 mV at full clocks saves 12.8% energy.
//! assert!((undervolt_savings(Millivolts::new(915)) - 0.128).abs() < 0.001);
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

pub mod governor;
pub mod model;
pub mod predictor;
pub mod schedule;
pub mod tradeoff;
pub mod vmin;

pub use governor::{Governor, Policy};
pub use vmin::VminTable;
