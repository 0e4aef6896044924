//! Campaign analytics over `margins-trace` streams.
//!
//! The telemetry stack records *what happened*; this crate answers *what it
//! means*. It consumes the byte-deterministic JSONL streams the framework
//! emits and produces three artifacts, all themselves byte-deterministic:
//!
//! * [`summary`] — the span tree folded into a typed
//!   [`StreamSummary`](summary::StreamSummary):
//!   per-sweep probe counts, outcome and severity tallies, recovery-storm
//!   detection, campaign-cache hit rates, energy totals and
//!   search-strategy savings.
//! * [`render`] — the summary rendered as markdown, JSON or CSV. Reports
//!   depend only on the record sequence, never on scheduling, paths or
//!   wall-clock state, so two renders of the same stream are identical
//!   byte for byte.
//! * [`diff`](mod@diff) — a semantic differ for two streams of the *same intended
//!   experiment*: it classifies the divergence (identical / schedule-only
//!   reordering / metrics drift / outcome divergence) and pinpoints the
//!   first diverging record with its enclosing span path, with a distinct
//!   exit code per class for CI gating.
//! * [`profile`] — the campaign profiling plane folded into hotspot
//!   reports (top phases and kernels by work share, per-sweep probe cost,
//!   step-work attribution) plus a work-accounting differ with its own
//!   CI exit codes.
//! * [`fleet`] — per-chip rollups over a merged multi-campaign stream,
//!   the shape `voltmargin serve` produces for each client.
//! * [`population`] — the same streams folded the other way: per-corner
//!   binding-Vmin and guardband-margin distributions, severity mix and
//!   per-sweep sub-populations across the chip fleet.
//!
//! The `trace-scope` binary exposes all of these over the command line.

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

pub mod diff;
pub mod fleet;
pub mod population;
pub mod profile;
pub mod render;
pub mod summary;

pub use diff::{diff, DiffReport, DivergenceClass};
pub use fleet::fleet_report;
pub use population::population_report;
pub use render::{csv, json, markdown};
pub use summary::summarize_records;
