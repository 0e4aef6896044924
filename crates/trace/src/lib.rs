//! Deterministic campaign telemetry for the characterization stack.
//!
//! The paper's methodology is observational: six months of undervolting
//! campaigns whose value is the *log* of every system-level effect (§2.2's
//! initialization/execution/parsing phases). This crate is the simulated
//! framework's equivalent of that log — a typed event model with
//! campaign → sweep → run span scoping, a metrics registry of deterministic
//! counters and histograms, and three sinks:
//!
//! * [`MemorySink`] — an in-memory collector for tests,
//! * [`JsonlSink`] — a byte-deterministic JSONL writer (sorted fields,
//!   modelled time only — no wall clock ever enters the stream),
//! * [`ProgressSink`] — a human progress reporter for stderr.
//!
//! # Architecture
//!
//! Instrumented code (the simulator, the campaign runner, the watchdog, the
//! governor) emits raw [`TraceEvent`]s through the [`Observer`] trait.
//! Because sharded campaigns execute sweeps concurrently, raw events are
//! buffered per work item (an [`EventBuffer`] per sweep) and merged in the
//! canonical item order by the runner; the [`StreamFinalizer`] then assigns
//! each event its sequence number and modelled-time stamp, producing
//! [`TraceRecord`]s that are forwarded to [`Sink`]s. Two executions of the
//! same fixed-seed campaign therefore emit **byte-identical** JSONL
//! streams, whether the work ran serially or sharded over worker threads.
//!
//! # Determinism rules
//!
//! * No wall-clock time: `t_model_s` is the campaign's modelled clock, the
//!   canonical-order running sum of modelled run times.
//! * No scheduling-dependent fields: events carry nothing derived from
//!   cross-board state. Schedule events name *logical* shards (one per
//!   work item, in canonical order), never the worker-thread partition;
//!   quantities with board history (golden runtime, `energy_j`) are safe
//!   to log only because the runner gives every work item a pristine
//!   board.
//! * Sorted JSON fields, `\n` line endings, shortest-roundtrip floats.

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

pub mod event;
pub mod files;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod reader;
pub mod sink;
pub mod span;
pub mod validate;
pub mod vmin;

pub use event::{EncodeError, TraceEvent, TraceRecord};
pub use files::{collect_jsonl, write_atomic};
pub use metrics::MetricsRegistry;
pub use observer::{merge_streams, EventBuffer, NullObserver, Observer, StreamFinalizer};
pub use reader::{read_jsonl, ParseFailure};
pub use sink::{JsonlSink, MemorySink, ProgressSink, Sink};
pub use span::{reconstruct, span_path_at, CampaignSpan, SpanError};
pub use validate::{validate_jsonl, validate_records, StreamStats};
