//! The fleet wire protocol: line-delimited JSON over any byte stream.
//!
//! Every frame is exactly one line holding one JSON object with a `"kind"`
//! discriminator. Encoding rides the deterministic
//! [`margins_trace::json`] layer — sorted object keys, raw number tokens,
//! no whitespace — so a [`Request`]/[`Response`] value has exactly one
//! wire representation and round-trips losslessly.
//!
//! Decoding is total: malformed JSON, wrong shapes, missing or mistyped
//! fields, and unknown `kind`s all map to a typed [`ProtoError`] — the
//! daemon never panics on untrusted bytes, and unknown kinds are rejected
//! with the protocol version attached so old clients can diagnose a skew.

use margins_core::config::{CampaignConfig, ConfigError};
use margins_core::search::SearchStrategy;
use margins_sim::topology::NUM_CORES;
use margins_sim::{ChipSpec, CoreId, Corner, Millivolts};
use margins_trace::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The wire protocol version spoken by this build. Carried on every
/// [`Response::Error`] frame so version-skewed peers can tell a typo from
/// a protocol gap.
///
/// Version 2 added the observability plane: `subscribe`/`unsubscribe`/
/// `health`/`metrics` requests, server-pushed `event` frames
/// ([`FleetEvent`]), queue position and progress on `status`, and
/// partial-results accounting on `cancelled`.
pub const PROTO_VERSION: u32 = 2;

/// Largest chip count a single submit may request. Far above "thousands
/// of simulated chips"; the bound turns an absurd request into a typed
/// rejection instead of an allocation storm.
pub const MAX_CHIPS: u32 = 65_536;

/// Largest request frame the daemon reads, its `\n` included. A submit
/// frame is under 1 KiB; the bound keeps a peer that never sends `\n`
/// from growing the daemon's read buffer without limit.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Most client connections the daemon serves at once, each on its own
/// thread. A connection past the cap is answered on the accept thread
/// with one `too-many-connections` error frame and then EOF.
pub const MAX_CONNECTIONS: usize = 64;

/// What one fleet characterization request sweeps: a contiguous serial
/// range of chips at one process corner, all running the same campaign
/// grid on the PMD rail.
///
/// Canonical chip order is ascending serial — the order results are
/// merged in, independent of any scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Process corner every chip in the fleet was fabbed at.
    pub corner: Corner,
    /// Serial number of the first chip.
    pub first_serial: u64,
    /// Number of chips (serials `first_serial..first_serial + chips`).
    pub chips: u32,
    /// Benchmark names of the campaign grid.
    pub benchmarks: Vec<String>,
    /// Target core indices.
    pub cores: Vec<u8>,
    /// Iterations per voltage step.
    pub iterations: u32,
    /// Sweep start voltage, millivolts.
    pub start_mv: u32,
    /// Sweep floor voltage, millivolts.
    pub floor_mv: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Vmin search strategy.
    pub search: SearchStrategy,
}

impl FleetSpec {
    /// The fleet's chips in canonical order (ascending serial).
    #[must_use]
    pub fn chip_specs(&self) -> Vec<ChipSpec> {
        (0..u64::from(self.chips))
            .map(|i| ChipSpec::new(self.corner, self.first_serial + i))
            .collect()
    }

    /// Validates the spec into the campaign configuration every chip runs.
    ///
    /// # Errors
    ///
    /// [`SpecError::NoChips`]/[`SpecError::TooManyChips`] for a bad fleet
    /// shape, [`SpecError::BadCore`] for an out-of-range core, and
    /// [`SpecError::Config`] when the campaign grid itself is invalid.
    pub fn campaign_config(&self) -> Result<CampaignConfig, SpecError> {
        if self.chips == 0 {
            return Err(SpecError::NoChips);
        }
        if self.chips > MAX_CHIPS {
            return Err(SpecError::TooManyChips {
                requested: self.chips,
                max: MAX_CHIPS,
            });
        }
        let cores = self
            .cores
            .iter()
            .map(|&i| {
                if usize::from(i) < NUM_CORES {
                    Ok(CoreId::new(i))
                } else {
                    Err(SpecError::BadCore { core: i })
                }
            })
            .collect::<Result<Vec<CoreId>, SpecError>>()?;
        CampaignConfig::builder()
            .benchmarks(self.benchmarks.clone())
            .cores(cores)
            .iterations(self.iterations)
            .start_voltage(Millivolts::new(self.start_mv))
            .floor_voltage(Millivolts::new(self.floor_mv))
            .seed(self.seed)
            .search(self.search)
            .build()
            .map_err(SpecError::Config)
    }
}

/// A fleet spec that cannot be turned into campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The fleet has zero chips.
    NoChips,
    /// The fleet exceeds [`MAX_CHIPS`].
    TooManyChips {
        /// Chips requested.
        requested: u32,
        /// The supported maximum.
        max: u32,
    },
    /// A core index beyond the simulated topology.
    BadCore {
        /// The offending index.
        core: u8,
    },
    /// The campaign grid is invalid.
    Config(ConfigError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoChips => f.write_str("fleet needs at least one chip"),
            SpecError::TooManyChips { requested, max } => {
                write!(f, "fleet of {requested} chips exceeds the maximum of {max}")
            }
            SpecError::BadCore { core } => {
                write!(f, "core {core} is outside the simulated topology")
            }
            SpecError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One client→daemon frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a fleet for characterization.
    Submit {
        /// Client name owning the resulting job and its streams.
        client: String,
        /// What to characterize.
        spec: FleetSpec,
    },
    /// Ask for a job's progress.
    Status {
        /// Owning client.
        client: String,
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Cancel a job's queued chips.
    Cancel {
        /// Owning client.
        client: String,
        /// Job id.
        job: u64,
    },
    /// Block until a job completes and fetch its merged streams.
    Results {
        /// Owning client.
        client: String,
        /// Job id.
        job: u64,
    },
    /// Start streaming a job's live event frames over this connection.
    Subscribe {
        /// Owning client.
        client: String,
        /// Job id.
        job: u64,
    },
    /// Stop streaming a job's event frames over this connection.
    Unsubscribe {
        /// Owning client.
        client: String,
        /// Job id.
        job: u64,
    },
    /// Ask for a daemon liveness snapshot (runtime gauges).
    Health,
    /// Ask for the daemon's OpenMetrics text exposition.
    Metrics,
    /// Stop the daemon after in-flight chips finish.
    Shutdown,
}

/// A point-in-time snapshot of the daemon's runtime gauges, answered to
/// [`Request::Health`]. Every field is a *gauge* — it reflects scheduling
/// luck at the instant of the request and is deliberately kept out of the
/// deterministic counter section of the metrics exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSnapshot {
    /// Configured scheduler worker threads.
    pub workers: u32,
    /// Workers currently characterizing a chip.
    pub busy: u32,
    /// Chip units waiting in per-client queues.
    pub queued_units: u64,
    /// Jobs admitted but not yet dispatched.
    pub jobs_queued: u32,
    /// Jobs with at least one dispatched chip and work remaining.
    pub jobs_running: u32,
    /// Jobs whose every chip completed.
    pub jobs_done: u32,
    /// Jobs cancelled before completing.
    pub jobs_cancelled: u32,
    /// Jobs that failed with an executor error.
    pub jobs_failed: u32,
    /// Live event subscriptions.
    pub subscribers: u32,
}

/// One server-pushed telemetry frame (`"kind":"event"` on the wire, with
/// a `"what"` sub-discriminator).
///
/// Event payloads are derived from the same deterministic `TraceEvent`
/// stream the job's artifacts are built from: every
/// [`FleetEvent::ChipFinished`] carries that chip's complete sealed JSONL
/// stream, so a fully received subscription re-sealed through
/// `merge_streams` in ascending chip order is byte-identical to the job's
/// merged trace artifact.
///
/// Unknown `what` tokens decode to [`FleetEvent::Unknown`] rather than a
/// [`ProtoError`]: a version-aware client skips event kinds it does not
/// speak while still hard-rejecting unknown top-level frame kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// A job was admitted to the scheduler.
    JobQueued {
        /// Job id.
        job: u64,
        /// Owning client.
        client: String,
        /// Chips the job will characterize.
        chips: u32,
    },
    /// The first chip of a job was dispatched to a worker.
    JobStarted {
        /// Job id.
        job: u64,
    },
    /// A chip was dispatched to a worker.
    ChipStarted {
        /// Job id.
        job: u64,
        /// Canonical chip index within the job.
        chip: u32,
        /// Chip identity, e.g. `TTT#40`.
        chip_id: String,
    },
    /// A (benchmark, core) sweep of a chip finished.
    SweepProgress {
        /// Job id.
        job: u64,
        /// Canonical chip index within the job.
        chip: u32,
        /// Benchmark name.
        program: String,
        /// Input dataset label.
        dataset: String,
        /// Target core index.
        core: u8,
        /// Classified runs the sweep produced.
        runs: u64,
    },
    /// A chip completed; carries the chip's sealed per-chip trace.
    ChipFinished {
        /// Job id.
        job: u64,
        /// Canonical chip index within the job.
        chip: u32,
        /// Chip identity, e.g. `TTT#40`.
        chip_id: String,
        /// Classified runs on this chip.
        runs: u64,
        /// Watchdog power cycles on this chip.
        power_cycles: u64,
        /// The chip's binding Vmin (max over its sweeps), absent when
        /// even the highest probed step misbehaved (censored).
        vmin_mv: Option<u32>,
        /// Sum of per-run severity contributions on this chip.
        severity_sum: f64,
        /// Campaign-cache lookups that hit.
        cache_hits: u64,
        /// Campaign-cache lookups issued.
        cache_lookups: u64,
        /// The chip's own sealed margins-trace JSONL stream.
        trace: String,
    },
    /// Every chip of a job completed.
    JobFinished {
        /// Job id.
        job: u64,
        /// Chips characterized.
        chips: u32,
        /// Classified runs over the whole job.
        runs: u64,
        /// Watchdog power cycles over the whole job.
        power_cycles: u64,
    },
    /// A job was cancelled; `done` of `total` chips had completed.
    JobCancelled {
        /// Job id.
        job: u64,
        /// Chips that completed before the cancel.
        done: u32,
        /// Chips total.
        total: u32,
    },
    /// A job failed with an executor error.
    JobFailed {
        /// Job id.
        job: u64,
        /// The error rendered for operators.
        message: String,
    },
    /// The subscriber's bounded queue overflowed; `dropped` events were
    /// discarded since the last delivered frame.
    Lagged {
        /// Job id.
        job: u64,
        /// Exact count of dropped events.
        dropped: u64,
    },
    /// An event kind this protocol version does not speak; skipped by
    /// version-aware clients.
    Unknown {
        /// The unrecognized `what` token.
        what: String,
    },
}

impl FleetEvent {
    /// The `what` sub-discriminator token on the wire.
    #[must_use]
    pub fn what(&self) -> &str {
        match self {
            FleetEvent::JobQueued { .. } => "job-queued",
            FleetEvent::JobStarted { .. } => "job-started",
            FleetEvent::ChipStarted { .. } => "chip-started",
            FleetEvent::SweepProgress { .. } => "sweep-progress",
            FleetEvent::ChipFinished { .. } => "chip-finished",
            FleetEvent::JobFinished { .. } => "job-finished",
            FleetEvent::JobCancelled { .. } => "job-cancelled",
            FleetEvent::JobFailed { .. } => "job-failed",
            FleetEvent::Lagged { .. } => "lagged",
            FleetEvent::Unknown { what } => what,
        }
    }

    /// The job the event belongs to; `None` for [`FleetEvent::Unknown`].
    #[must_use]
    pub fn job(&self) -> Option<u64> {
        match self {
            FleetEvent::JobQueued { job, .. }
            | FleetEvent::JobStarted { job }
            | FleetEvent::ChipStarted { job, .. }
            | FleetEvent::SweepProgress { job, .. }
            | FleetEvent::ChipFinished { job, .. }
            | FleetEvent::JobFinished { job, .. }
            | FleetEvent::JobCancelled { job, .. }
            | FleetEvent::JobFailed { job, .. }
            | FleetEvent::Lagged { job, .. } => Some(*job),
            FleetEvent::Unknown { .. } => None,
        }
    }
}

/// One daemon→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A submit was accepted.
    Submitted {
        /// The job id for follow-up requests.
        job: u64,
        /// Chips the job will characterize.
        chips: u32,
    },
    /// A job's progress.
    Status {
        /// Job id.
        job: u64,
        /// `"queued"`, `"running"`, `"done"`, `"failed"` or
        /// `"cancelled"`.
        state: String,
        /// Chips completed.
        done: u32,
        /// Chips total.
        total: u32,
        /// Chip units ahead of this job's first pending unit in its
        /// client's FIFO queue (0 when nothing of the job is queued).
        queue_position: u32,
        /// Completion fraction, `done / total`.
        progress: f64,
    },
    /// A cancel took effect; `done` of `total` chips had completed and
    /// their partial results are retained with the job.
    Cancelled {
        /// Job id.
        job: u64,
        /// Chips that completed before the cancel.
        done: u32,
        /// Chips total.
        total: u32,
    },
    /// A subscription started; `event` frames for the job follow on this
    /// connection.
    Subscribed {
        /// Job id.
        job: u64,
    },
    /// A subscription ended; no further `event` frames for the job will
    /// be pushed on this connection.
    Unsubscribed {
        /// Job id.
        job: u64,
    },
    /// The daemon's runtime gauges.
    Health(HealthSnapshot),
    /// The daemon's OpenMetrics text exposition.
    Metrics {
        /// The exposition body (ends with `# EOF`).
        body: String,
    },
    /// A server-pushed telemetry frame for a subscribed job.
    Event(FleetEvent),
    /// A completed job's merged deterministic outputs.
    Results {
        /// Job id.
        job: u64,
        /// Chips characterized.
        chips: u32,
        /// Classified runs over the whole fleet.
        runs: u64,
        /// Watchdog power cycles over the whole fleet.
        power_cycles: u64,
        /// Kernel ops executed on simulated boards — 0 for a fully warm
        /// cache replay.
        executed_ops: u64,
        /// The merged margins-trace JSONL stream (canonical chip order).
        trace: String,
        /// The OpenMetrics exposition of the merged stream.
        metrics: String,
    },
    /// The daemon acknowledged a shutdown.
    Bye,
    /// A request was rejected.
    Error {
        /// Protocol version of the daemon ([`PROTO_VERSION`]).
        proto: u32,
        /// Stable machine-readable code (see [`ProtoError::code`] and the
        /// daemon's own codes).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// A frame that failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The line is not valid JSON (truncated frames land here).
    Malformed {
        /// The JSON reader's message.
        message: String,
    },
    /// The line parsed but is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    MissingField {
        /// The field name.
        field: String,
    },
    /// A field holds the wrong type or an invalid value.
    BadField {
        /// The field name.
        field: String,
        /// What was wrong.
        message: String,
    },
    /// The `kind` discriminator names no request/response this protocol
    /// version knows.
    UnknownKind {
        /// The offending discriminator.
        kind: String,
        /// The speaker's protocol version.
        proto: u32,
    },
}

impl ProtoError {
    /// The stable machine-readable code for [`Response::Error`] frames.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::Malformed { .. } => "malformed",
            ProtoError::NotAnObject => "not-an-object",
            ProtoError::MissingField { .. } => "missing-field",
            ProtoError::BadField { .. } => "bad-field",
            ProtoError::UnknownKind { .. } => "unknown-kind",
        }
    }

    /// The [`Response::Error`] frame rejecting this decode failure.
    #[must_use]
    pub fn to_response(&self) -> Response {
        Response::Error {
            proto: PROTO_VERSION,
            code: self.code().to_owned(),
            message: self.to_string(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Malformed { message } => write!(f, "malformed frame: {message}"),
            ProtoError::NotAnObject => f.write_str("frame is not a JSON object"),
            ProtoError::MissingField { field } => write!(f, "missing field '{field}'"),
            ProtoError::BadField { field, message } => {
                write!(f, "bad field '{field}': {message}")
            }
            ProtoError::UnknownKind { kind, proto } => {
                write!(f, "unknown kind '{kind}' (protocol version {proto})")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// The lowercase wire token of a corner.
#[must_use]
pub fn corner_token(corner: Corner) -> &'static str {
    match corner {
        Corner::Ttt => "ttt",
        Corner::Tff => "tff",
        Corner::Tss => "tss",
    }
}

/// Parses a corner wire token.
#[must_use]
pub fn parse_corner(token: &str) -> Option<Corner> {
    match token {
        "ttt" => Some(Corner::Ttt),
        "tff" => Some(Corner::Tff),
        "tss" => Some(Corner::Tss),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

fn spec_value(spec: &FleetSpec) -> Value {
    obj(vec![
        ("corner", Value::from_str_val(corner_token(spec.corner))),
        ("first_serial", Value::from_u64(spec.first_serial)),
        ("chips", Value::from_u64(u64::from(spec.chips))),
        (
            "benchmarks",
            Value::Array(
                spec.benchmarks
                    .iter()
                    .map(|b| Value::from_str_val(b))
                    .collect(),
            ),
        ),
        (
            "cores",
            Value::Array(
                spec.cores
                    .iter()
                    .map(|&c| Value::from_u64(u64::from(c)))
                    .collect(),
            ),
        ),
        ("iterations", Value::from_u64(u64::from(spec.iterations))),
        ("start_mv", Value::from_u64(u64::from(spec.start_mv))),
        ("floor_mv", Value::from_u64(u64::from(spec.floor_mv))),
        ("seed", Value::from_u64(spec.seed)),
        ("search", Value::from_str_val(spec.search.name())),
    ])
}

impl Request {
    /// Encodes the request as its single wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let value = match self {
            Request::Submit { client, spec } => obj(vec![
                ("kind", Value::from_str_val("submit")),
                ("client", Value::from_str_val(client)),
                ("spec", spec_value(spec)),
            ]),
            Request::Status { client, job } => obj(vec![
                ("kind", Value::from_str_val("status")),
                ("client", Value::from_str_val(client)),
                ("job", Value::from_u64(*job)),
            ]),
            Request::Cancel { client, job } => obj(vec![
                ("kind", Value::from_str_val("cancel")),
                ("client", Value::from_str_val(client)),
                ("job", Value::from_u64(*job)),
            ]),
            Request::Results { client, job } => obj(vec![
                ("kind", Value::from_str_val("results")),
                ("client", Value::from_str_val(client)),
                ("job", Value::from_u64(*job)),
            ]),
            Request::Subscribe { client, job } => obj(vec![
                ("kind", Value::from_str_val("subscribe")),
                ("client", Value::from_str_val(client)),
                ("job", Value::from_u64(*job)),
            ]),
            Request::Unsubscribe { client, job } => obj(vec![
                ("kind", Value::from_str_val("unsubscribe")),
                ("client", Value::from_str_val(client)),
                ("job", Value::from_u64(*job)),
            ]),
            Request::Health => obj(vec![("kind", Value::from_str_val("health"))]),
            Request::Metrics => obj(vec![("kind", Value::from_str_val("metrics"))]),
            Request::Shutdown => obj(vec![("kind", Value::from_str_val("shutdown"))]),
        };
        json::render(&value)
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] for anything other than a well-formed frame
    /// of a known kind; never panics on untrusted bytes.
    pub fn parse_line(line: &str) -> Result<Request, ProtoError> {
        let fields = parse_frame(line)?;
        match str_field(&fields, "kind")? {
            "submit" => Ok(Request::Submit {
                client: str_field(&fields, "client")?.to_owned(),
                spec: spec_of(object_field(&fields, "spec")?)?,
            }),
            "status" => Ok(Request::Status {
                client: str_field(&fields, "client")?.to_owned(),
                job: u64_field(&fields, "job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                client: str_field(&fields, "client")?.to_owned(),
                job: u64_field(&fields, "job")?,
            }),
            "results" => Ok(Request::Results {
                client: str_field(&fields, "client")?.to_owned(),
                job: u64_field(&fields, "job")?,
            }),
            "subscribe" => Ok(Request::Subscribe {
                client: str_field(&fields, "client")?.to_owned(),
                job: u64_field(&fields, "job")?,
            }),
            "unsubscribe" => Ok(Request::Unsubscribe {
                client: str_field(&fields, "client")?.to_owned(),
                job: u64_field(&fields, "job")?,
            }),
            "health" => Ok(Request::Health),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError::UnknownKind {
                kind: other.to_owned(),
                proto: PROTO_VERSION,
            }),
        }
    }
}

impl Response {
    /// Encodes the response as its single wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let value = match self {
            Response::Submitted { job, chips } => obj(vec![
                ("kind", Value::from_str_val("submitted")),
                ("job", Value::from_u64(*job)),
                ("chips", Value::from_u64(u64::from(*chips))),
            ]),
            Response::Status {
                job,
                state,
                done,
                total,
                queue_position,
                progress,
            } => obj(vec![
                ("kind", Value::from_str_val("status")),
                ("job", Value::from_u64(*job)),
                ("state", Value::from_str_val(state)),
                ("done", Value::from_u64(u64::from(*done))),
                ("total", Value::from_u64(u64::from(*total))),
                (
                    "queue_position",
                    Value::from_u64(u64::from(*queue_position)),
                ),
                ("progress", Value::from_f64(*progress)),
            ]),
            Response::Cancelled { job, done, total } => obj(vec![
                ("kind", Value::from_str_val("cancelled")),
                ("job", Value::from_u64(*job)),
                ("done", Value::from_u64(u64::from(*done))),
                ("total", Value::from_u64(u64::from(*total))),
            ]),
            Response::Subscribed { job } => obj(vec![
                ("kind", Value::from_str_val("subscribed")),
                ("job", Value::from_u64(*job)),
            ]),
            Response::Unsubscribed { job } => obj(vec![
                ("kind", Value::from_str_val("unsubscribed")),
                ("job", Value::from_u64(*job)),
            ]),
            Response::Health(h) => obj(vec![
                ("kind", Value::from_str_val("health")),
                ("workers", Value::from_u64(u64::from(h.workers))),
                ("busy", Value::from_u64(u64::from(h.busy))),
                ("queued_units", Value::from_u64(h.queued_units)),
                ("jobs_queued", Value::from_u64(u64::from(h.jobs_queued))),
                ("jobs_running", Value::from_u64(u64::from(h.jobs_running))),
                ("jobs_done", Value::from_u64(u64::from(h.jobs_done))),
                (
                    "jobs_cancelled",
                    Value::from_u64(u64::from(h.jobs_cancelled)),
                ),
                ("jobs_failed", Value::from_u64(u64::from(h.jobs_failed))),
                ("subscribers", Value::from_u64(u64::from(h.subscribers))),
            ]),
            Response::Metrics { body } => obj(vec![
                ("kind", Value::from_str_val("metrics")),
                ("body", Value::from_str_val(body)),
            ]),
            Response::Event(event) => event_value(event),
            Response::Results {
                job,
                chips,
                runs,
                power_cycles,
                executed_ops,
                trace,
                metrics,
            } => obj(vec![
                ("kind", Value::from_str_val("results")),
                ("job", Value::from_u64(*job)),
                ("chips", Value::from_u64(u64::from(*chips))),
                ("runs", Value::from_u64(*runs)),
                ("power_cycles", Value::from_u64(*power_cycles)),
                ("executed_ops", Value::from_u64(*executed_ops)),
                ("trace", Value::from_str_val(trace)),
                ("metrics", Value::from_str_val(metrics)),
            ]),
            Response::Bye => obj(vec![("kind", Value::from_str_val("bye"))]),
            Response::Error {
                proto,
                code,
                message,
            } => obj(vec![
                ("kind", Value::from_str_val("error")),
                ("proto", Value::from_u64(u64::from(*proto))),
                ("code", Value::from_str_val(code)),
                ("message", Value::from_str_val(message)),
            ]),
        };
        json::render(&value)
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`]; never panics on untrusted bytes.
    pub fn parse_line(line: &str) -> Result<Response, ProtoError> {
        let fields = parse_frame(line)?;
        match str_field(&fields, "kind")? {
            "submitted" => Ok(Response::Submitted {
                job: u64_field(&fields, "job")?,
                chips: u32_field(&fields, "chips")?,
            }),
            "status" => Ok(Response::Status {
                job: u64_field(&fields, "job")?,
                state: str_field(&fields, "state")?.to_owned(),
                done: u32_field(&fields, "done")?,
                total: u32_field(&fields, "total")?,
                queue_position: u32_field(&fields, "queue_position")?,
                progress: f64_field(&fields, "progress")?,
            }),
            "cancelled" => Ok(Response::Cancelled {
                job: u64_field(&fields, "job")?,
                done: u32_field(&fields, "done")?,
                total: u32_field(&fields, "total")?,
            }),
            "subscribed" => Ok(Response::Subscribed {
                job: u64_field(&fields, "job")?,
            }),
            "unsubscribed" => Ok(Response::Unsubscribed {
                job: u64_field(&fields, "job")?,
            }),
            "health" => Ok(Response::Health(HealthSnapshot {
                workers: u32_field(&fields, "workers")?,
                busy: u32_field(&fields, "busy")?,
                queued_units: u64_field(&fields, "queued_units")?,
                jobs_queued: u32_field(&fields, "jobs_queued")?,
                jobs_running: u32_field(&fields, "jobs_running")?,
                jobs_done: u32_field(&fields, "jobs_done")?,
                jobs_cancelled: u32_field(&fields, "jobs_cancelled")?,
                jobs_failed: u32_field(&fields, "jobs_failed")?,
                subscribers: u32_field(&fields, "subscribers")?,
            })),
            "metrics" => Ok(Response::Metrics {
                body: str_field(&fields, "body")?.to_owned(),
            }),
            "event" => Ok(Response::Event(event_of(&fields)?)),
            "results" => Ok(Response::Results {
                job: u64_field(&fields, "job")?,
                chips: u32_field(&fields, "chips")?,
                runs: u64_field(&fields, "runs")?,
                power_cycles: u64_field(&fields, "power_cycles")?,
                executed_ops: u64_field(&fields, "executed_ops")?,
                trace: str_field(&fields, "trace")?.to_owned(),
                metrics: str_field(&fields, "metrics")?.to_owned(),
            }),
            "bye" => Ok(Response::Bye),
            "error" => Ok(Response::Error {
                proto: u32_field(&fields, "proto")?,
                code: str_field(&fields, "code")?.to_owned(),
                message: str_field(&fields, "message")?.to_owned(),
            }),
            other => Err(ProtoError::UnknownKind {
                kind: other.to_owned(),
                proto: PROTO_VERSION,
            }),
        }
    }
}

/// Encodes a [`FleetEvent`] as its `"kind":"event"` wire object.
fn event_value(event: &FleetEvent) -> Value {
    let mut fields = vec![
        ("kind", Value::from_str_val("event")),
        ("what", Value::from_str_val(event.what())),
    ];
    match event {
        FleetEvent::JobQueued { job, client, chips } => {
            fields.push(("job", Value::from_u64(*job)));
            fields.push(("client", Value::from_str_val(client)));
            fields.push(("chips", Value::from_u64(u64::from(*chips))));
        }
        FleetEvent::JobStarted { job } => {
            fields.push(("job", Value::from_u64(*job)));
        }
        FleetEvent::ChipStarted { job, chip, chip_id } => {
            fields.push(("job", Value::from_u64(*job)));
            fields.push(("chip", Value::from_u64(u64::from(*chip))));
            fields.push(("chip_id", Value::from_str_val(chip_id)));
        }
        FleetEvent::SweepProgress {
            job,
            chip,
            program,
            dataset,
            core,
            runs,
        } => {
            fields.push(("job", Value::from_u64(*job)));
            fields.push(("chip", Value::from_u64(u64::from(*chip))));
            fields.push(("program", Value::from_str_val(program)));
            fields.push(("dataset", Value::from_str_val(dataset)));
            fields.push(("core", Value::from_u64(u64::from(*core))));
            fields.push(("runs", Value::from_u64(*runs)));
        }
        FleetEvent::ChipFinished {
            job,
            chip,
            chip_id,
            runs,
            power_cycles,
            vmin_mv,
            severity_sum,
            cache_hits,
            cache_lookups,
            trace,
        } => {
            fields.push(("job", Value::from_u64(*job)));
            fields.push(("chip", Value::from_u64(u64::from(*chip))));
            fields.push(("chip_id", Value::from_str_val(chip_id)));
            fields.push(("runs", Value::from_u64(*runs)));
            fields.push(("power_cycles", Value::from_u64(*power_cycles)));
            if let Some(mv) = vmin_mv {
                fields.push(("vmin_mv", Value::from_u64(u64::from(*mv))));
            }
            fields.push(("severity_sum", Value::from_f64(*severity_sum)));
            fields.push(("cache_hits", Value::from_u64(*cache_hits)));
            fields.push(("cache_lookups", Value::from_u64(*cache_lookups)));
            fields.push(("trace", Value::from_str_val(trace)));
        }
        FleetEvent::JobFinished {
            job,
            chips,
            runs,
            power_cycles,
        } => {
            fields.push(("job", Value::from_u64(*job)));
            fields.push(("chips", Value::from_u64(u64::from(*chips))));
            fields.push(("runs", Value::from_u64(*runs)));
            fields.push(("power_cycles", Value::from_u64(*power_cycles)));
        }
        FleetEvent::JobCancelled { job, done, total } => {
            fields.push(("job", Value::from_u64(*job)));
            fields.push(("done", Value::from_u64(u64::from(*done))));
            fields.push(("total", Value::from_u64(u64::from(*total))));
        }
        FleetEvent::JobFailed { job, message } => {
            fields.push(("job", Value::from_u64(*job)));
            fields.push(("message", Value::from_str_val(message)));
        }
        FleetEvent::Lagged { job, dropped } => {
            fields.push(("job", Value::from_u64(*job)));
            fields.push(("dropped", Value::from_u64(*dropped)));
        }
        FleetEvent::Unknown { .. } => {}
    }
    obj(fields)
}

/// Decodes the payload of a `"kind":"event"` frame. Unknown `what` tokens
/// decode to [`FleetEvent::Unknown`] so version-aware clients can skip
/// event kinds newer than their protocol.
fn event_of(fields: &BTreeMap<String, Value>) -> Result<FleetEvent, ProtoError> {
    match str_field(fields, "what")? {
        "job-queued" => Ok(FleetEvent::JobQueued {
            job: u64_field(fields, "job")?,
            client: str_field(fields, "client")?.to_owned(),
            chips: u32_field(fields, "chips")?,
        }),
        "job-started" => Ok(FleetEvent::JobStarted {
            job: u64_field(fields, "job")?,
        }),
        "chip-started" => Ok(FleetEvent::ChipStarted {
            job: u64_field(fields, "job")?,
            chip: u32_field(fields, "chip")?,
            chip_id: str_field(fields, "chip_id")?.to_owned(),
        }),
        "sweep-progress" => Ok(FleetEvent::SweepProgress {
            job: u64_field(fields, "job")?,
            chip: u32_field(fields, "chip")?,
            program: str_field(fields, "program")?.to_owned(),
            dataset: str_field(fields, "dataset")?.to_owned(),
            core: u8_field(fields, "core")?,
            runs: u64_field(fields, "runs")?,
        }),
        "chip-finished" => Ok(FleetEvent::ChipFinished {
            job: u64_field(fields, "job")?,
            chip: u32_field(fields, "chip")?,
            chip_id: str_field(fields, "chip_id")?.to_owned(),
            runs: u64_field(fields, "runs")?,
            power_cycles: u64_field(fields, "power_cycles")?,
            vmin_mv: opt_u32_field(fields, "vmin_mv")?,
            severity_sum: f64_field(fields, "severity_sum")?,
            cache_hits: u64_field(fields, "cache_hits")?,
            cache_lookups: u64_field(fields, "cache_lookups")?,
            trace: str_field(fields, "trace")?.to_owned(),
        }),
        "job-finished" => Ok(FleetEvent::JobFinished {
            job: u64_field(fields, "job")?,
            chips: u32_field(fields, "chips")?,
            runs: u64_field(fields, "runs")?,
            power_cycles: u64_field(fields, "power_cycles")?,
        }),
        "job-cancelled" => Ok(FleetEvent::JobCancelled {
            job: u64_field(fields, "job")?,
            done: u32_field(fields, "done")?,
            total: u32_field(fields, "total")?,
        }),
        "job-failed" => Ok(FleetEvent::JobFailed {
            job: u64_field(fields, "job")?,
            message: str_field(fields, "message")?.to_owned(),
        }),
        "lagged" => Ok(FleetEvent::Lagged {
            job: u64_field(fields, "job")?,
            dropped: u64_field(fields, "dropped")?,
        }),
        other => Ok(FleetEvent::Unknown {
            what: other.to_owned(),
        }),
    }
}

// ---------------------------------------------------------------------
// Decoding helpers
// ---------------------------------------------------------------------

fn parse_frame(line: &str) -> Result<BTreeMap<String, Value>, ProtoError> {
    let value = json::parse(line.trim_end_matches(['\r', '\n']))
        .map_err(|message| ProtoError::Malformed { message })?;
    match value {
        Value::Object(map) => Ok(map),
        _ => Err(ProtoError::NotAnObject),
    }
}

fn field<'a>(fields: &'a BTreeMap<String, Value>, name: &str) -> Result<&'a Value, ProtoError> {
    fields.get(name).ok_or_else(|| ProtoError::MissingField {
        field: name.to_owned(),
    })
}

fn str_field<'a>(fields: &'a BTreeMap<String, Value>, name: &str) -> Result<&'a str, ProtoError> {
    field(fields, name)?
        .as_str()
        .ok_or_else(|| ProtoError::BadField {
            field: name.to_owned(),
            message: "expected a string".to_owned(),
        })
}

fn object_field<'a>(
    fields: &'a BTreeMap<String, Value>,
    name: &str,
) -> Result<&'a BTreeMap<String, Value>, ProtoError> {
    field(fields, name)?
        .as_object()
        .ok_or_else(|| ProtoError::BadField {
            field: name.to_owned(),
            message: "expected an object".to_owned(),
        })
}

fn u64_field(fields: &BTreeMap<String, Value>, name: &str) -> Result<u64, ProtoError> {
    let raw = field(fields, name)?
        .as_number()
        .ok_or_else(|| ProtoError::BadField {
            field: name.to_owned(),
            message: "expected an unsigned integer".to_owned(),
        })?;
    raw.parse::<u64>().map_err(|_| ProtoError::BadField {
        field: name.to_owned(),
        message: format!("'{raw}' is not an unsigned 64-bit integer"),
    })
}

fn u32_field(fields: &BTreeMap<String, Value>, name: &str) -> Result<u32, ProtoError> {
    let wide = u64_field(fields, name)?;
    u32::try_from(wide).map_err(|_| ProtoError::BadField {
        field: name.to_owned(),
        message: format!("{wide} exceeds the unsigned 32-bit range"),
    })
}

fn u8_field(fields: &BTreeMap<String, Value>, name: &str) -> Result<u8, ProtoError> {
    let wide = u64_field(fields, name)?;
    u8::try_from(wide).map_err(|_| ProtoError::BadField {
        field: name.to_owned(),
        message: format!("{wide} exceeds the unsigned 8-bit range"),
    })
}

/// A `u32` field that may be legitimately absent (e.g. a censored Vmin).
fn opt_u32_field(fields: &BTreeMap<String, Value>, name: &str) -> Result<Option<u32>, ProtoError> {
    if fields.contains_key(name) {
        u32_field(fields, name).map(Some)
    } else {
        Ok(None)
    }
}

fn f64_field(fields: &BTreeMap<String, Value>, name: &str) -> Result<f64, ProtoError> {
    let raw = field(fields, name)?
        .as_number()
        .ok_or_else(|| ProtoError::BadField {
            field: name.to_owned(),
            message: "expected a number".to_owned(),
        })?;
    let value = raw.parse::<f64>().map_err(|_| ProtoError::BadField {
        field: name.to_owned(),
        message: format!("'{raw}' is not a number"),
    })?;
    if value.is_finite() {
        Ok(value)
    } else {
        Err(ProtoError::BadField {
            field: name.to_owned(),
            message: format!("'{raw}' is not finite"),
        })
    }
}

fn spec_of(fields: &BTreeMap<String, Value>) -> Result<FleetSpec, ProtoError> {
    let corner_token = str_field(fields, "corner")?;
    let corner = parse_corner(corner_token).ok_or_else(|| ProtoError::BadField {
        field: "corner".to_owned(),
        message: format!("unknown corner '{corner_token}' (ttt|tff|tss)"),
    })?;
    let search_token = str_field(fields, "search")?;
    let search = SearchStrategy::parse(search_token).ok_or_else(|| ProtoError::BadField {
        field: "search".to_owned(),
        message: format!("unknown strategy '{search_token}'"),
    })?;
    let benchmarks = match field(fields, "benchmarks")? {
        Value::Array(items) => items
            .iter()
            .map(|v| {
                v.as_str().map(str::to_owned).ok_or(ProtoError::BadField {
                    field: "benchmarks".to_owned(),
                    message: "expected an array of strings".to_owned(),
                })
            })
            .collect::<Result<Vec<String>, ProtoError>>()?,
        _ => {
            return Err(ProtoError::BadField {
                field: "benchmarks".to_owned(),
                message: "expected an array of strings".to_owned(),
            })
        }
    };
    let cores = match field(fields, "cores")? {
        Value::Array(items) => items
            .iter()
            .map(|v| {
                v.as_number()
                    .and_then(|raw| raw.parse::<u8>().ok())
                    .ok_or(ProtoError::BadField {
                        field: "cores".to_owned(),
                        message: "expected an array of core indices".to_owned(),
                    })
            })
            .collect::<Result<Vec<u8>, ProtoError>>()?,
        _ => {
            return Err(ProtoError::BadField {
                field: "cores".to_owned(),
                message: "expected an array of core indices".to_owned(),
            })
        }
    };
    Ok(FleetSpec {
        corner,
        first_serial: u64_field(fields, "first_serial")?,
        chips: u32_field(fields, "chips")?,
        benchmarks,
        cores,
        iterations: u32_field(fields, "iterations")?,
        start_mv: u32_field(fields, "start_mv")?,
        floor_mv: u32_field(fields, "floor_mv")?,
        seed: u64_field(fields, "seed")?,
        search,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FleetSpec {
        FleetSpec {
            corner: Corner::Tss,
            first_serial: 40,
            chips: 3,
            benchmarks: vec!["namd".into(), "mcf".into()],
            cores: vec![0, 4],
            iterations: 2,
            start_mv: 890,
            floor_mv: 880,
            seed: 7,
            search: SearchStrategy::Bisection,
        }
    }

    #[test]
    fn requests_round_trip_through_the_wire() {
        let frames = [
            Request::Submit {
                client: "rack-a".into(),
                spec: spec(),
            },
            Request::Status {
                client: "rack-a".into(),
                job: 3,
            },
            Request::Cancel {
                client: "rack \"b\"\n".into(),
                job: u64::MAX,
            },
            Request::Results {
                client: String::new(),
                job: 0,
            },
            Request::Subscribe {
                client: "rack-a".into(),
                job: 12,
            },
            Request::Unsubscribe {
                client: "rack-a".into(),
                job: 12,
            },
            Request::Health,
            Request::Metrics,
            Request::Shutdown,
        ];
        for frame in frames {
            let line = frame.to_line();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(Request::parse_line(&line).expect("round trip"), frame);
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire() {
        let frames = [
            Response::Submitted { job: 1, chips: 64 },
            Response::Status {
                job: 1,
                state: "running".into(),
                done: 3,
                total: 64,
                queue_position: 7,
                progress: 3.0 / 64.0,
            },
            Response::Cancelled {
                job: 9,
                done: 2,
                total: 5,
            },
            Response::Subscribed { job: 4 },
            Response::Unsubscribed { job: 4 },
            Response::Health(HealthSnapshot {
                workers: 4,
                busy: 2,
                queued_units: 61,
                jobs_queued: 1,
                jobs_running: 1,
                jobs_done: 3,
                jobs_cancelled: 1,
                jobs_failed: 0,
                subscribers: 2,
            }),
            Response::Metrics {
                body: "# TYPE voltmargin_runs counter\nvoltmargin_runs_total 3\n# EOF\n".into(),
            },
            Response::Event(FleetEvent::ChipFinished {
                job: 1,
                chip: 3,
                chip_id: "TTT#103".into(),
                runs: 3,
                power_cycles: 1,
                vmin_mv: Some(885),
                severity_sum: 2.5,
                cache_hits: 0,
                cache_lookups: 4,
                trace: "{\"seq\":0}\n".into(),
            }),
            Response::Event(FleetEvent::ChipFinished {
                job: 1,
                chip: 4,
                chip_id: "TTT#104".into(),
                runs: 3,
                power_cycles: 0,
                vmin_mv: None,
                severity_sum: 0.0,
                cache_hits: 4,
                cache_lookups: 4,
                trace: String::new(),
            }),
            Response::Event(FleetEvent::Lagged { job: 1, dropped: 9 }),
            Response::Results {
                job: 1,
                chips: 2,
                runs: 120,
                power_cycles: 4,
                executed_ops: 0,
                trace: "{\"seq\":0}\n{\"seq\":1}\n".into(),
                metrics: "# EOF\n".into(),
            },
            Response::Bye,
            Response::Error {
                proto: PROTO_VERSION,
                code: "malformed".into(),
                message: "truncated".into(),
            },
        ];
        for frame in frames {
            let line = frame.to_line();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(Response::parse_line(&line).expect("round trip"), frame);
        }
    }

    #[test]
    fn truncated_and_corrupt_frames_are_typed_errors() {
        let whole = Request::Submit {
            client: "c".into(),
            spec: spec(),
        }
        .to_line();
        for cut in 1..whole.len() {
            let err = Request::parse_line(&whole[..cut]).expect_err("truncated frame");
            assert!(
                matches!(
                    err,
                    ProtoError::Malformed { .. }
                        | ProtoError::MissingField { .. }
                        | ProtoError::BadField { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
        assert_eq!(
            Request::parse_line("[1,2]").expect_err("array frame"),
            ProtoError::NotAnObject
        );
        let err = Request::parse_line("{\"kind\":7}").expect_err("numeric kind");
        assert_eq!(err.code(), "bad-field");
    }

    #[test]
    fn unknown_kinds_are_rejected_with_the_protocol_version() {
        let err = Request::parse_line("{\"kind\":\"reboot\"}").expect_err("unknown kind");
        assert_eq!(
            err,
            ProtoError::UnknownKind {
                kind: "reboot".into(),
                proto: PROTO_VERSION,
            }
        );
        let Response::Error {
            proto,
            code,
            message,
        } = err.to_response()
        else {
            panic!("to_response must build an error frame");
        };
        assert_eq!((proto, code.as_str()), (PROTO_VERSION, "unknown-kind"));
        assert!(message.contains("reboot"), "{message}");
    }

    #[test]
    fn every_event_kind_round_trips() {
        let events = [
            FleetEvent::JobQueued {
                job: 0,
                client: "rack \"a\"".into(),
                chips: 64,
            },
            FleetEvent::JobStarted { job: 0 },
            FleetEvent::ChipStarted {
                job: 0,
                chip: 1,
                chip_id: "TSS#501".into(),
            },
            FleetEvent::SweepProgress {
                job: 0,
                chip: 1,
                program: "namd".into(),
                dataset: "ref".into(),
                core: 4,
                runs: 3,
            },
            FleetEvent::JobFinished {
                job: 0,
                chips: 64,
                runs: 192,
                power_cycles: 4,
            },
            FleetEvent::JobCancelled {
                job: 0,
                done: 12,
                total: 64,
            },
            FleetEvent::JobFailed {
                job: 0,
                message: "executor: too many threads".into(),
            },
            FleetEvent::Lagged { job: 0, dropped: 1 },
        ];
        for event in events {
            let line = Response::Event(event.clone()).to_line();
            assert!(!line.contains('\n'), "events are single lines: {line}");
            assert_eq!(
                Response::parse_line(&line).expect("round trip"),
                Response::Event(event)
            );
        }
    }

    #[test]
    fn unknown_event_kinds_decode_skippable_not_fatal() {
        // An unknown *event* kind is a soft skip for version-aware
        // clients…
        let decoded = Response::parse_line("{\"kind\":\"event\",\"what\":\"chip-teleported\"}")
            .expect("unknown events decode");
        let Response::Event(event) = decoded else {
            panic!("expected an event frame");
        };
        assert_eq!(
            event,
            FleetEvent::Unknown {
                what: "chip-teleported".into()
            }
        );
        assert_eq!(event.job(), None);
        assert_eq!(event.what(), "chip-teleported");
        // …while an unknown *frame* kind stays a hard typed rejection.
        assert!(matches!(
            Response::parse_line("{\"kind\":\"telemetry\"}"),
            Err(ProtoError::UnknownKind { .. })
        ));
        // A known event kind with a broken payload is still a typed error.
        assert!(matches!(
            Response::parse_line("{\"kind\":\"event\",\"what\":\"lagged\"}"),
            Err(ProtoError::MissingField { .. })
        ));
    }

    #[test]
    fn censored_vmin_is_encoded_by_omission() {
        let censored = Response::Event(FleetEvent::ChipFinished {
            job: 2,
            chip: 0,
            chip_id: "TFF#9".into(),
            runs: 3,
            power_cycles: 2,
            vmin_mv: None,
            severity_sum: 7.5,
            cache_hits: 0,
            cache_lookups: 4,
            trace: String::new(),
        });
        let line = censored.to_line();
        assert!(!line.contains("vmin_mv"), "{line}");
        assert_eq!(Response::parse_line(&line).expect("round trip"), censored);
    }

    #[test]
    fn spec_validation_produces_typed_errors() {
        assert_eq!(
            FleetSpec { chips: 0, ..spec() }.campaign_config(),
            Err(SpecError::NoChips)
        );
        assert!(matches!(
            FleetSpec {
                chips: MAX_CHIPS + 1,
                ..spec()
            }
            .campaign_config(),
            Err(SpecError::TooManyChips { .. })
        ));
        assert_eq!(
            FleetSpec {
                cores: vec![200],
                ..spec()
            }
            .campaign_config(),
            Err(SpecError::BadCore { core: 200 })
        );
        assert!(matches!(
            FleetSpec {
                iterations: 0,
                ..spec()
            }
            .campaign_config(),
            Err(SpecError::Config(_))
        ));
        let config = spec().campaign_config().expect("valid spec");
        assert_eq!(config.iterations, 2);
        assert_eq!(config.search, SearchStrategy::Bisection);
    }

    #[test]
    fn chip_specs_ascend_serials_from_the_first() {
        let chips = spec().chip_specs();
        assert_eq!(chips.len(), 3);
        assert_eq!(chips[0].to_string(), "TSS#40");
        assert_eq!(chips[2].to_string(), "TSS#42");
    }
}
