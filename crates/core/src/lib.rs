//! The automated system-level voltage-margin characterization framework —
//! the primary contribution of Papadimitriou et al., MICRO-50 2017 (§2.2),
//! rebuilt over the simulated micro-server of `margins-sim`.
//!
//! The framework mirrors the three phases of the paper's Figure 2:
//!
//! 1. **Initialization** — a [`config::CampaignConfig`] declares the
//!    benchmark list, the voltage/frequency grid, the target cores and the
//!    iteration count.
//! 2. **Execution** — the [`runner`] pins each benchmark to its target
//!    core, parks every other PMD at 300 MHz (*reliable cores setup*,
//!    §2.2.1), steps the shared PMD rail down in 5 mV increments, runs each
//!    configuration N times (*massive iterative execution*), restores
//!    nominal voltage before persisting each run's log (*safe data
//!    collection*), and leans on the `watchdog` module to power-cycle the board
//!    whenever a run hangs it (*failure recognition*).
//! 3. **Parsing** — [`classify`] turns raw run records into the Table 3
//!    effect taxonomy {NO, SDC, CE, UE, AC, SC}; [`regions`] derives the
//!    safe/unsafe/crash regions, per-core `Vmin` and crash voltages of
//!    Figures 3–4; [`severity`] computes the severity function of §3.4.1;
//!    [`report`] renders everything as CSV, like the framework's "Final
//!    CSV results".
//!
//! [`dataset`] assembles the (performance counters, voltage) → target
//! matrices consumed by the `margins-predict` regression models (Figure 6's
//! profiling + training flow).
//!
//! # Example
//!
//! ```
//! use margins_core::config::CampaignConfig;
//! use margins_core::exec::{ExecContext, SerialExecutor};
//! use margins_core::runner::Campaign;
//! use margins_sim::{ChipSpec, Corner, CoreId, Millivolts};
//!
//! // A deliberately tiny campaign: one benchmark, one core, 3 iterations.
//! let config = CampaignConfig::builder()
//!     .benchmarks(["namd"])
//!     .cores([CoreId::new(4)])
//!     .iterations(3)
//!     .start_voltage(Millivolts::new(880))
//!     .floor_voltage(Millivolts::new(860))
//!     .build()
//!     .unwrap();
//! let result = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config)
//!     .run(&SerialExecutor, ExecContext::new())
//!     .unwrap();
//! assert!(!result.runs.is_empty());
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

pub mod cache;
mod chains;
pub mod classify;
pub mod config;
pub mod dataset;
pub mod effect;
pub mod exec;
pub mod profile;
pub mod regions;
pub mod report;
pub mod runner;
pub mod search;
pub mod severity;
mod watchdog;

pub use regions::CharacterizationResult;
