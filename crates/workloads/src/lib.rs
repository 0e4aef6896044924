//! SPEC CPU2006-like workload kernels for the voltage-margin study.
//!
//! The paper characterizes ten SPEC CPU2006 benchmarks (Figures 3–5) and
//! trains its prediction models on 26 programs / 40 program-input pairs
//! (§4.1). Since the real suite cannot ship here, this crate provides 26
//! kernels that span the same microarchitectural axes — floating-point
//! stencil codes, sparse/dense linear algebra, molecular dynamics, and
//! pointer-chasing/branchy integer codes — all written against the
//! simulator's [`Machine`] op API so that every arithmetic op, memory
//! access and branch passes through the timing-fault, droop, cache and
//! counter machinery.
//!
//! Each kernel computes a *real* result folded into an [`OutputDigest`];
//! silent data corruptions manifest as digest mismatches against a golden
//! nominal-conditions run, exactly like the physical framework's output
//! comparison (Table 3).
//!
//! The crate also contains the component-focused **self-tests** of §3.4
//! (`selftest`): cache march tests that fill and flip every bit of an
//! array level, and ALU/FPU stress tests — used to demonstrate that the
//! simulated chip, like the real X-Gene 2, is dominated by timing-path
//! failures rather than SRAM failures.
//!
//! # Example
//!
//! ```
//! use margins_workloads::{suite, Dataset};
//! use margins_sim::{ChipSpec, Corner, System, SystemConfig, CoreId};
//!
//! let program = suite::by_name("namd", Dataset::Ref).expect("namd exists");
//! let mut sys = System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default());
//! let record = sys.run(program.as_ref(), CoreId::new(4), 1).unwrap();
//! assert_eq!(record.program, "namd");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
mod selftest;
pub mod suite;
#[cfg(test)]
pub(crate) mod testutil;
mod util;

pub use margins_sim::{Machine, OutputDigest, Program};
pub use suite::Dataset;
