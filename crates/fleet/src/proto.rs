//! The fleet wire protocol: line-delimited JSON over any byte stream.
//!
//! Every frame is exactly one line holding one JSON object with a `"kind"`
//! discriminator. Encoding rides the deterministic
//! [`margins_trace::json`] layer — sorted object keys, raw number tokens,
//! no whitespace — so a [`Request`]/[`Response`] value has exactly one
//! wire representation and round-trips losslessly.
//!
//! The declarations of [`Request`], [`Response`], [`FleetEvent`] and
//! [`HealthSnapshot`] below are the schema, written once: each variant
//! names its wire token there, and the private `frames!` macro derives
//! from them the encoder behind `to_line` and the decoder behind
//! `parse_line`. A variant's fields are written under their own names and
//! read in declaration order. The fields of a `health` frame's snapshot
//! and of an `event` frame's [`FleetEvent`] sit beside `kind` in the frame
//! object, the event's own token under `what`. Only the nested
//! [`FleetSpec`] object has a codec written out by hand.
//!
//! Decoding is total: malformed JSON, wrong shapes, missing or mistyped
//! fields, and unknown `kind`s all map to a typed [`ProtoError`] — the
//! daemon never panics on untrusted bytes, and unknown kinds are rejected
//! with the protocol version attached so old clients can diagnose a skew.

use margins_core::config::{CampaignConfig, ConfigError};
use margins_core::search::SearchStrategy;
use margins_sim::topology::NUM_CORES;
use margins_sim::{ChipSpec, CoreId, Corner, Millivolts};
use margins_trace::json::{self, FieldError, Fields, Value};
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
const MAX_CHIPS: u32 = 65_536;

/// Largest request frame the daemon reads, its `\n` included. A submit
/// frame is under 1 KiB; the bound keeps a peer that never sends `\n`
/// from growing the daemon's read buffer without limit.
pub(crate) const MAX_FRAME_BYTES: usize = 1 << 20;

/// Most client connections the daemon serves at once, each on its own
/// thread. A connection past the cap is answered on the accept thread
/// with one `too-many-connections` error frame and then EOF.
pub const MAX_CONNECTIONS: usize = 64;

/// Declares a frame type and derives from that one declaration its wire
/// codec: a private `put_fields`, which puts the value's fields into a
/// frame object under their own names, and `take_fields`, which reads them
/// back by name and type in declaration order.
///
/// An enum names the key its tag is written under (`by "kind"`) and gives
/// each variant its wire token. A variant is a unit, has named fields, or
/// wraps one payload whose fields share the frame object (`Health =
/// "health" (health: HealthSnapshot)`). A trailing `.. Unknown { what:
/// String }` variant takes any other token; without one, an unknown token
/// is a [`ProtoError::UnknownKind`]. A struct's fields are read and
/// written as a variant's are.
macro_rules! frames {
    (@unknown $token:ident) => {
        return Err(ProtoError::UnknownKind {
            kind: $token.to_owned(),
            proto: PROTO_VERSION,
        })
    };
    (@unknown $token:ident $name:ident $unknown:ident $what:ident) => {
        $name::$unknown {
            $what: $token.to_owned(),
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident by $key:literal {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident = $tag:literal
                $({ $($(#[$field_meta:meta])* $field:ident: $ty:ty,)+ })?
                $(($payload:ident: $payload_ty:ty))?,
            )+
            $(
                ..
                $(#[$unknown_meta:meta])*
                $unknown:ident { $(#[$what_meta:meta])* $what:ident: String, },
            )?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$variant_meta])*
                $variant $({ $($(#[$field_meta])* $field: $ty,)+ })? $(($payload_ty))?,
            )+
            $(
                $(#[$unknown_meta])*
                $unknown { $(#[$what_meta])* $what: String },
            )?
        }

        impl $name {
            /// The variant's wire token.
            fn tag(&self) -> &str {
                match self {
                    $($name::$variant { .. } => $tag,)+
                    $($name::$unknown { $what } => $what,)?
                }
            }

            /// Puts the tag and the variant's fields into `frame`.
            fn put_fields(&self, frame: &mut BTreeMap<String, Value>) {
                frame.insert($key.to_owned(), Value::from_str_val(self.tag()));
                match self {
                    $(
                        $name::$variant $({ $($field),+ })? $(($payload))? => {
                            $($($field.put(frame, stringify!($field));)+)?
                            $($payload.put_fields(frame);)?
                        }
                    )+
                    $($name::$unknown { .. } => {})?
                }
            }

            /// Reads the tag, then the fields of the variant it names.
            fn take_fields(fields: &mut Fields<'_>) -> Result<$name, ProtoError> {
                Ok(match fields.get($key)? {
                    $(
                        $tag => $name::$variant
                            $({ $($field: <$ty as Wire>::take(fields, stringify!($field))?,)+ })?
                            $((<$payload_ty>::take_fields(fields)?))?,
                    )+
                    other => frames!(@unknown other $($name $unknown $what)?),
                })
            }

            /// Every wire token, in declaration order.
            #[cfg(test)]
            const TAGS: &'static [&'static str] = &[$($tag),+];
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident: $ty:ty,)+
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)+
        }

        impl $name {
            /// Puts the fields into `frame`.
            fn put_fields(&self, frame: &mut BTreeMap<String, Value>) {
                $(self.$field.put(frame, stringify!($field));)+
            }

            /// Reads the fields in declaration order.
            fn take_fields(fields: &mut Fields<'_>) -> Result<$name, ProtoError> {
                Ok($name {
                    $($field: <$ty as Wire>::take(fields, stringify!($field))?,)+
                })
            }
        }
    };
}

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
    /// The fleet exceeds 65 536 chips.
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

frames! {
    /// One client→daemon frame.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request by "kind" {
        /// Submit a fleet for characterization.
        Submit = "submit" {
            /// Client name owning the resulting job and its streams.
            client: String,
            /// What to characterize.
            spec: FleetSpec,
        },
        /// Ask for a job's progress.
        Status = "status" {
            /// Owning client.
            client: String,
            /// Job id from [`Response::Submitted`].
            job: u64,
        },
        /// Cancel a job's queued chips.
        Cancel = "cancel" {
            /// Owning client.
            client: String,
            /// Job id.
            job: u64,
        },
        /// Block until a job completes and fetch its merged streams.
        Results = "results" {
            /// Owning client.
            client: String,
            /// Job id.
            job: u64,
        },
        /// Start streaming a job's live event frames over this connection.
        Subscribe = "subscribe" {
            /// Owning client.
            client: String,
            /// Job id.
            job: u64,
        },
        /// Stop streaming a job's event frames over this connection.
        Unsubscribe = "unsubscribe" {
            /// Owning client.
            client: String,
            /// Job id.
            job: u64,
        },
        /// Ask for a daemon liveness snapshot (runtime gauges).
        Health = "health",
        /// Ask for the daemon's OpenMetrics text exposition.
        Metrics = "metrics",
        /// Stop the daemon after in-flight chips finish.
        Shutdown = "shutdown",
    }
}

frames! {
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
}

frames! {
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
    pub enum FleetEvent by "what" {
        /// A job was admitted to the scheduler.
        JobQueued = "job-queued" {
            /// Job id.
            job: u64,
            /// Owning client.
            client: String,
            /// Chips the job will characterize.
            chips: u32,
        },
        /// The first chip of a job was dispatched to a worker.
        JobStarted = "job-started" {
            /// Job id.
            job: u64,
        },
        /// A chip was dispatched to a worker.
        ChipStarted = "chip-started" {
            /// Job id.
            job: u64,
            /// Canonical chip index within the job.
            chip: u32,
            /// Chip identity, e.g. `TTT#40`.
            chip_id: String,
        },
        /// A (benchmark, core) sweep of a chip finished.
        SweepProgress = "sweep-progress" {
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
        ChipFinished = "chip-finished" {
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
        JobFinished = "job-finished" {
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
        JobCancelled = "job-cancelled" {
            /// Job id.
            job: u64,
            /// Chips that completed before the cancel.
            done: u32,
            /// Chips total.
            total: u32,
        },
        /// A job failed with an executor error.
        JobFailed = "job-failed" {
            /// Job id.
            job: u64,
            /// The error rendered for operators.
            message: String,
        },
        /// The subscriber's bounded queue overflowed; `dropped` events were
        /// discarded since the last delivered frame.
        Lagged = "lagged" {
            /// Job id.
            job: u64,
            /// Exact count of dropped events.
            dropped: u64,
        },
        ..
        /// An event kind this protocol version does not speak; skipped by
        /// version-aware clients.
        Unknown {
            /// The unrecognized `what` token.
            what: String,
        },
    }
}

impl FleetEvent {
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

frames! {
    /// One daemon→client frame.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response by "kind" {
        /// A submit was accepted.
        Submitted = "submitted" {
            /// The job id for follow-up requests.
            job: u64,
            /// Chips the job will characterize.
            chips: u32,
        },
        /// A job's progress.
        Status = "status" {
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
        Cancelled = "cancelled" {
            /// Job id.
            job: u64,
            /// Chips that completed before the cancel.
            done: u32,
            /// Chips total.
            total: u32,
        },
        /// A subscription started; `event` frames for the job follow on this
        /// connection.
        Subscribed = "subscribed" {
            /// Job id.
            job: u64,
        },
        /// A subscription ended; no further `event` frames for the job will
        /// be pushed on this connection.
        Unsubscribed = "unsubscribed" {
            /// Job id.
            job: u64,
        },
        /// The daemon's runtime gauges.
        Health = "health" (health: HealthSnapshot),
        /// The daemon's OpenMetrics text exposition.
        Metrics = "metrics" {
            /// The exposition body (ends with `# EOF`).
            body: String,
        },
        /// A server-pushed telemetry frame for a subscribed job.
        Event = "event" (event: FleetEvent),
        /// A completed job's merged deterministic outputs.
        Results = "results" {
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
        Bye = "bye",
        /// A request was rejected.
        Error = "error" {
            /// Protocol version of the daemon ([`PROTO_VERSION`]).
            proto: u32,
            /// Stable machine-readable code (a decode failure's from
            /// [`ProtoError::to_response`], or one of the daemon's own).
            code: String,
            /// Human-readable detail.
            message: String,
        },
    }
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
    fn code(&self) -> &'static str {
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

// ---------------------------------------------------------------------
// The wire codec
// ---------------------------------------------------------------------

impl Request {
    /// Encodes the request as its single wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut frame = BTreeMap::new();
        self.put_fields(&mut frame);
        json::render(&Value::Object(frame))
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] for anything other than a well-formed frame
    /// of a known kind; never panics on untrusted bytes.
    pub fn parse_line(line: &str) -> Result<Request, ProtoError> {
        let frame = parse_frame(line)?;
        Request::take_fields(&mut Fields::of(&frame).ok_or(ProtoError::NotAnObject)?)
    }
}

impl Response {
    /// Encodes the response as its single wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut frame = BTreeMap::new();
        self.put_fields(&mut frame);
        json::render(&Value::Object(frame))
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`]; never panics on untrusted bytes.
    pub fn parse_line(line: &str) -> Result<Response, ProtoError> {
        let frame = parse_frame(line)?;
        Response::take_fields(&mut Fields::of(&frame).ok_or(ProtoError::NotAnObject)?)
    }
}

fn parse_frame(line: &str) -> Result<Value, ProtoError> {
    json::parse(line.trim_end_matches(['\r', '\n']))
        .map_err(|message| ProtoError::Malformed { message })
}

/// A field read's failure, worded as [`FieldError`]'s Display words it:
/// a mistyped value is echoed back, as an unknown corner or strategy is.
impl From<FieldError<'_>> for ProtoError {
    fn from(e: FieldError<'_>) -> ProtoError {
        match e {
            FieldError::Missing(field) => ProtoError::MissingField {
                field: field.to_owned(),
            },
            FieldError::Mistyped {
                field,
                expected,
                got,
            } => ProtoError::BadField {
                field: field.to_owned(),
                message: format!("expected {expected}, got {}", json::render(got)),
            },
        }
    }
}

/// A frame field's type: how `frames!` puts a value into a frame object
/// and takes it back out.
trait Wire: Sized {
    /// Puts the value into `frame` under `key`.
    fn put(&self, frame: &mut BTreeMap<String, Value>, key: &str);

    /// Takes the value under `key` out of `fields`.
    fn take(fields: &mut Fields<'_>, key: &'static str) -> Result<Self, ProtoError>;
}

impl Wire for String {
    fn put(&self, frame: &mut BTreeMap<String, Value>, key: &str) {
        frame.insert(key.to_owned(), Value::from_str_val(self));
    }

    fn take(fields: &mut Fields<'_>, key: &'static str) -> Result<Self, ProtoError> {
        Ok(fields.get(key)?)
    }
}

impl Wire for u8 {
    fn put(&self, frame: &mut BTreeMap<String, Value>, key: &str) {
        u64::from(*self).put(frame, key);
    }

    fn take(fields: &mut Fields<'_>, key: &'static str) -> Result<Self, ProtoError> {
        Ok(fields.get(key)?)
    }
}

impl Wire for u32 {
    fn put(&self, frame: &mut BTreeMap<String, Value>, key: &str) {
        u64::from(*self).put(frame, key);
    }

    fn take(fields: &mut Fields<'_>, key: &'static str) -> Result<Self, ProtoError> {
        Ok(fields.get(key)?)
    }
}

impl Wire for u64 {
    fn put(&self, frame: &mut BTreeMap<String, Value>, key: &str) {
        frame.insert(key.to_owned(), Value::from_u64(*self));
    }

    fn take(fields: &mut Fields<'_>, key: &'static str) -> Result<Self, ProtoError> {
        Ok(fields.get(key)?)
    }
}

impl Wire for f64 {
    fn put(&self, frame: &mut BTreeMap<String, Value>, key: &str) {
        frame.insert(key.to_owned(), Value::from_f64(*self));
    }

    fn take(fields: &mut Fields<'_>, key: &'static str) -> Result<Self, ProtoError> {
        Ok(fields.get(key)?)
    }
}

/// `None` is written by leaving the key out, and an absent key reads as
/// `None`.
impl Wire for Option<u32> {
    fn put(&self, frame: &mut BTreeMap<String, Value>, key: &str) {
        if let Some(value) = self {
            value.put(frame, key);
        }
    }

    fn take(fields: &mut Fields<'_>, key: &'static str) -> Result<Self, ProtoError> {
        fields
            .contains(key)
            .then(|| u32::take(fields, key))
            .transpose()
    }
}

/// A spec is a nested object. Its codec is written out because it reads
/// the corner and strategy tokens before the other fields, so a spec that
/// is broken twice reports its token.
impl Wire for FleetSpec {
    fn put(&self, frame: &mut BTreeMap<String, Value>, key: &str) {
        let benchmarks = self.benchmarks.iter().map(|b| Value::from_str_val(b));
        let cores = self.cores.iter().map(|&c| Value::from_u64(u64::from(c)));
        let mut spec = BTreeMap::from([
            (
                "corner".to_owned(),
                Value::from_str_val(self.corner.token()),
            ),
            ("benchmarks".to_owned(), Value::Array(benchmarks.collect())),
            ("cores".to_owned(), Value::Array(cores.collect())),
            ("search".to_owned(), Value::from_str_val(self.search.name())),
        ]);
        self.first_serial.put(&mut spec, "first_serial");
        self.chips.put(&mut spec, "chips");
        self.iterations.put(&mut spec, "iterations");
        self.start_mv.put(&mut spec, "start_mv");
        self.floor_mv.put(&mut spec, "floor_mv");
        self.seed.put(&mut spec, "seed");
        frame.insert(key.to_owned(), Value::Object(spec));
    }

    fn take(fields: &mut Fields<'_>, key: &'static str) -> Result<Self, ProtoError> {
        let mut fields: Fields<'_> = fields.get(key)?;
        let corner_token = fields.get("corner")?;
        let corner = Corner::from_token(corner_token).ok_or_else(|| ProtoError::BadField {
            field: "corner".to_owned(),
            message: format!("unknown corner '{corner_token}' (ttt|tff|tss)"),
        })?;
        let search_token = fields.get("search")?;
        let search = SearchStrategy::parse(search_token).ok_or_else(|| ProtoError::BadField {
            field: "search".to_owned(),
            message: format!("unknown strategy '{search_token}'"),
        })?;
        Ok(FleetSpec {
            corner,
            first_serial: fields.get("first_serial")?,
            chips: fields.get("chips")?,
            benchmarks: fields.list("benchmarks")?,
            cores: fields.list("cores")?,
            iterations: fields.get("iterations")?,
            start_mv: fields.get("start_mv")?,
            floor_mv: fields.get("floor_mv")?,
            seed: fields.get("seed")?,
            search,
        })
    }
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
        // One sample per kind, in declaration order, each with the line the
        // encoder writes for it.
        let samples = [
            (
                Request::Submit {
                    client: "rack-a".into(),
                    spec: spec(),
                },
                r#"{"client":"rack-a","kind":"submit","spec":{"benchmarks":["namd","mcf"],"chips":3,"cores":[0,4],"corner":"tss","first_serial":40,"floor_mv":880,"iterations":2,"search":"bisection","seed":7,"start_mv":890}}"#,
            ),
            (
                Request::Status {
                    client: "rack-a".into(),
                    job: 3,
                },
                r#"{"client":"rack-a","job":3,"kind":"status"}"#,
            ),
            (
                Request::Cancel {
                    client: "rack \"b\"\n".into(),
                    job: u64::MAX,
                },
                r#"{"client":"rack \"b\"\n","job":18446744073709551615,"kind":"cancel"}"#,
            ),
            (
                Request::Results {
                    client: String::new(),
                    job: 0,
                },
                r#"{"client":"","job":0,"kind":"results"}"#,
            ),
            (
                Request::Subscribe {
                    client: "rack-a".into(),
                    job: 12,
                },
                r#"{"client":"rack-a","job":12,"kind":"subscribe"}"#,
            ),
            (
                Request::Unsubscribe {
                    client: "rack-a".into(),
                    job: 12,
                },
                r#"{"client":"rack-a","job":12,"kind":"unsubscribe"}"#,
            ),
            (Request::Health, r#"{"kind":"health"}"#),
            (Request::Metrics, r#"{"kind":"metrics"}"#),
            (Request::Shutdown, r#"{"kind":"shutdown"}"#),
        ];
        let tags: Vec<&str> = samples.iter().map(|(frame, _)| frame.tag()).collect();
        assert_eq!(tags, Request::TAGS);
        for (frame, line) in samples {
            assert_eq!(frame.to_line(), line);
            assert_eq!(Request::parse_line(line).expect("round trip"), frame);
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire() {
        let samples = [
            (
                Response::Submitted { job: 1, chips: 64 },
                r#"{"chips":64,"job":1,"kind":"submitted"}"#,
            ),
            (
                Response::Status {
                    job: 1,
                    state: "running".into(),
                    done: 3,
                    total: 64,
                    queue_position: 7,
                    progress: 3.0 / 64.0,
                },
                r#"{"done":3,"job":1,"kind":"status","progress":0.046875,"queue_position":7,"state":"running","total":64}"#,
            ),
            (
                Response::Cancelled {
                    job: 9,
                    done: 2,
                    total: 5,
                },
                r#"{"done":2,"job":9,"kind":"cancelled","total":5}"#,
            ),
            (
                Response::Subscribed { job: 4 },
                r#"{"job":4,"kind":"subscribed"}"#,
            ),
            (
                Response::Unsubscribed { job: 4 },
                r#"{"job":4,"kind":"unsubscribed"}"#,
            ),
            (
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
                r#"{"busy":2,"jobs_cancelled":1,"jobs_done":3,"jobs_failed":0,"jobs_queued":1,"jobs_running":1,"kind":"health","queued_units":61,"subscribers":2,"workers":4}"#,
            ),
            (
                Response::Metrics {
                    body: "# TYPE voltmargin_runs counter\nvoltmargin_runs_total 3\n# EOF\n".into(),
                },
                r##"{"body":"# TYPE voltmargin_runs counter\nvoltmargin_runs_total 3\n# EOF\n","kind":"metrics"}"##,
            ),
            // A censored chip: no `vmin_mv` key at all.
            (
                Response::Event(FleetEvent::ChipFinished {
                    job: 1,
                    chip: 4,
                    chip_id: "TTT#104".into(),
                    runs: 3,
                    power_cycles: 0,
                    vmin_mv: None,
                    severity_sum: 0.1 + 0.2,
                    cache_hits: 4,
                    cache_lookups: 4,
                    trace: String::new(),
                }),
                r#"{"cache_hits":4,"cache_lookups":4,"chip":4,"chip_id":"TTT#104","job":1,"kind":"event","power_cycles":0,"runs":3,"severity_sum":0.30000000000000004,"trace":"","what":"chip-finished"}"#,
            ),
            (
                Response::Results {
                    job: 1,
                    chips: 2,
                    runs: 120,
                    power_cycles: 4,
                    executed_ops: 0,
                    trace: "{\"seq\":0}\n{\"seq\":1}\n".into(),
                    metrics: "# EOF\n".into(),
                },
                r##"{"chips":2,"executed_ops":0,"job":1,"kind":"results","metrics":"# EOF\n","power_cycles":4,"runs":120,"trace":"{\"seq\":0}\n{\"seq\":1}\n"}"##,
            ),
            (Response::Bye, r#"{"kind":"bye"}"#),
            (
                Response::Error {
                    proto: PROTO_VERSION,
                    code: "malformed".into(),
                    message: "truncated".into(),
                },
                r#"{"code":"malformed","kind":"error","message":"truncated","proto":2}"#,
            ),
        ];
        let tags: Vec<&str> = samples.iter().map(|(frame, _)| frame.tag()).collect();
        assert_eq!(tags, Response::TAGS);
        for (frame, line) in samples {
            assert_eq!(frame.to_line(), line);
            assert_eq!(Response::parse_line(line).expect("round trip"), frame);
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
        // Worded as the shared field reader words it, value echoed.
        assert_eq!(
            err.to_string(),
            "bad field 'kind': expected a string, got 7"
        );
        let err = Request::parse_line("{\"kind\":\"status\",\"client\":\"c\",\"job\":-1}")
            .expect_err("negative job");
        assert_eq!(
            err.to_string(),
            "bad field 'job': expected an unsigned 64-bit integer, got -1"
        );
        // Fields are read in declaration order, and a spec's tokens first.
        let err = Request::parse_line(r#"{"kind":"status"}"#).expect_err("bare status");
        assert_eq!(err.to_string(), "missing field 'client'");
        let err = Request::parse_line(
            r#"{"client":"c","kind":"submit","spec":{"corner":"ttt","search":"nope"}}"#,
        )
        .expect_err("unknown strategy");
        assert_eq!(
            err.to_string(),
            "bad field 'search': unknown strategy 'nope'"
        );
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
        let samples = [
            (
                FleetEvent::JobQueued {
                    job: 0,
                    client: "rack \"a\"".into(),
                    chips: 64,
                },
                r#"{"chips":64,"client":"rack \"a\"","job":0,"kind":"event","what":"job-queued"}"#,
            ),
            (
                FleetEvent::JobStarted { job: 0 },
                r#"{"job":0,"kind":"event","what":"job-started"}"#,
            ),
            (
                FleetEvent::ChipStarted {
                    job: 0,
                    chip: 1,
                    chip_id: "TSS#501".into(),
                },
                r#"{"chip":1,"chip_id":"TSS#501","job":0,"kind":"event","what":"chip-started"}"#,
            ),
            (
                FleetEvent::SweepProgress {
                    job: 0,
                    chip: 1,
                    program: "namd".into(),
                    dataset: "ref".into(),
                    core: 4,
                    runs: 3,
                },
                r#"{"chip":1,"core":4,"dataset":"ref","job":0,"kind":"event","program":"namd","runs":3,"what":"sweep-progress"}"#,
            ),
            (
                FleetEvent::ChipFinished {
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
                },
                r#"{"cache_hits":0,"cache_lookups":4,"chip":3,"chip_id":"TTT#103","job":1,"kind":"event","power_cycles":1,"runs":3,"severity_sum":2.5,"trace":"{\"seq\":0}\n","vmin_mv":885,"what":"chip-finished"}"#,
            ),
            (
                FleetEvent::JobFinished {
                    job: 0,
                    chips: 64,
                    runs: 192,
                    power_cycles: 4,
                },
                r#"{"chips":64,"job":0,"kind":"event","power_cycles":4,"runs":192,"what":"job-finished"}"#,
            ),
            (
                FleetEvent::JobCancelled {
                    job: 0,
                    done: 12,
                    total: 64,
                },
                r#"{"done":12,"job":0,"kind":"event","total":64,"what":"job-cancelled"}"#,
            ),
            (
                FleetEvent::JobFailed {
                    job: 0,
                    message: "executor: too many threads".into(),
                },
                r#"{"job":0,"kind":"event","message":"executor: too many threads","what":"job-failed"}"#,
            ),
            (
                FleetEvent::Lagged { job: 0, dropped: 1 },
                r#"{"dropped":1,"job":0,"kind":"event","what":"lagged"}"#,
            ),
            (
                FleetEvent::Unknown {
                    what: "chip-teleported".into(),
                },
                r#"{"kind":"event","what":"chip-teleported"}"#,
            ),
        ];
        let tags: Vec<&str> = samples.iter().map(|(event, _)| event.tag()).collect();
        assert_eq!(tags, [FleetEvent::TAGS, &["chip-teleported"]].concat());
        for (event, line) in samples {
            let frame = Response::Event(event);
            assert_eq!(frame.to_line(), line);
            assert_eq!(Response::parse_line(line).expect("round trip"), frame);
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
        assert_eq!(event.tag(), "chip-teleported");
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
