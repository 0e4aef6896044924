//! Behavioural simulator of an APM X-Gene 2 class micro-server — the
//! hardware substrate for the voltage-margin characterization study of
//! Papadimitriou et al., *"Harnessing Voltage Margins for Energy Efficiency
//! in Multicore CPUs"*, MICRO-50 2017.
//!
//! The real study undervolts three physical 8-core ARMv8 chips. This crate
//! substitutes the silicon with a simulator that reproduces the parts of the
//! machine the paper's findings are *about*:
//!
//! * the chip **topology** of Table 2 — 8 cores in 4 PMDs (each pair sharing
//!   a 256 KB L2), an 8 MB L3 in the separate PCP/SoC power domain
//!   ([`topology`]),
//! * the **voltage and frequency domains** of §2.1 — one shared PMD supply
//!   (980 mV nominal, 5 mV steps), per-PMD clocks from 300 MHz to 2.4 GHz
//!   with the clock-skipping/clock-division rule of §3.2 that collapses all
//!   frequencies into two effective timing regimes ([`volt`], [`freq`]),
//! * **process variation** — TTT/TFF/TSS corner chips and per-core
//!   threshold-voltage offsets ([`corner`]),
//! * the two failure mechanisms of §3.4 — **timing-path faults** in the
//!   pipeline (dominant on X-Gene 2, producing SDCs/crashes) and **SRAM
//!   bit-cell faults** in the caches (caught by parity/SECDED, producing
//!   CE/UE reports) ([`faults`]),
//! * the **cache hierarchy** with its protection schemes and an EDAC-style
//!   error log ([`cache`], [`edac`]),
//! * **power, thermal and supply-droop** models ([`power`], `thermal`,
//!   `droop`),
//! * the 101-event **PMU counter file** used by the prediction study
//!   ([`counters`]),
//! * the **management processors** (SLIMpro/PMpro) through which system
//!   software regulates voltage and drains error reports ([`mgmt`]),
//! * a [`system::System`] that boots, executes [`Program`]s on chosen cores
//!   through the [`machine::Machine`] op-level API, exposes a heartbeat and
//!   can be power-cycled by an external watchdog.
//!
//! Every stochastic element is driven by seeded RNGs: a chip is a pure
//! function of its [`corner::ChipSpec`], and a run is a pure function of
//! (chip, workload, configuration, run seed).
//!
//! # Example
//!
//! ```
//! use margins_sim::{ChipSpec, Corner, System, SystemConfig};
//! use margins_sim::volt::Millivolts;
//!
//! let mut sys = System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default());
//! sys.slimpro_mut().set_pmd_voltage(Millivolts::new(980)).unwrap();
//! assert!(sys.is_responsive());
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
pub mod calib;
pub mod corner;
pub mod counters;
mod droop;
pub mod edac;
pub mod enhance;
pub mod faults;
pub mod freq;
pub mod machine;
pub mod mgmt;
pub mod power;
pub mod program;
pub mod system;
mod thermal;
pub mod topology;
pub mod volt;

pub use corner::{ChipSpec, Corner};
pub use counters::{CounterFile, PmuEvent};
pub use enhance::Enhancements;
pub use freq::Megahertz;
pub use machine::Machine;
pub use program::{OutputDigest, Program};
pub use system::{RunOutcome, RunRecord, System, SystemConfig};
pub use topology::{CoreId, PmdId};
pub use volt::Millivolts;
